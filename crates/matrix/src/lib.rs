//! # gep-matrix
//!
//! Dense matrix storage and cache-friendly layouts used throughout the
//! GEP (Gaussian Elimination Paradigm) workspace.
//!
//! The crate provides:
//!
//! * [`Matrix`] — an owned, row-major dense matrix.
//! * [`morton`] — bit-interleaving (Z-order) index arithmetic.
//! * [`TiledMatrix`] — the *bit-interleaved block layout* of the paper's
//!   Section 4.2: fixed-size square tiles stored contiguously in row-major
//!   order internally, with tiles arranged along the Z-order curve. This is
//!   the TLB-friendly layout the paper converts to and from (and charges the
//!   conversion cost to the measured running time, as we do in `gep-bench`).
//! * [`layout`] — address maps `(i, j) -> linear address` for the cache
//!   simulator, covering row-major, column-major and Morton-tiled layouts.
//!
//! The paper states its recursions for `n = 2^q`. The in-core I-GEP and
//! C-GEP engines accept any side that halves exactly down to a leaf
//! `<= base` ([`halves_to_leaf`]); [`fit_side`] picks the smallest such
//! side for an arbitrary size, and [`Matrix::padded`] embeds a matrix
//! into it. [`TiledMatrix`] stays on power-of-two sides ([`next_pow2`]).

pub mod dense;
pub mod layout;
pub mod morton;
pub mod tiled;

pub use dense::Matrix;
pub use layout::{ColMajor, Layout, MortonTiled, RowMajor};
pub use tiled::TiledMatrix;

/// Smallest power of two `>= n` (and `>= 1`).
///
/// The paper's recursions assume `n = 2^q`; [`fit_side`] is capped at
/// this side.
///
/// # Panics
/// Panics if the result would overflow `usize`.
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// The smallest side `m >= n` of the form `b'·2^q` with `b'` a multiple
/// of 8 in `(base/2, base]`, capped at [`next_pow2`]`(n)`.
///
/// Halving such an `m` lands exactly on leaves of side `b'`, so the
/// I-GEP engines run it with the same `base` and the same Figure 2
/// recursion as a power-of-two side; only the leaf side changes. A
/// power of two `n >= base` maps to itself, and a `base` with no
/// multiple of 8 in range (`base < 8`) gives `next_pow2(n)`.
///
/// # Panics
/// Panics if the result would overflow `usize`.
pub fn fit_side(n: usize, base: usize) -> usize {
    (base / 2 + 1..=base)
        .filter(|b| b % 8 == 0)
        .map(|b| b * next_pow2(n.div_ceil(b)))
        .fold(next_pow2(n), usize::min)
}

/// True if halving `n` stays exact until the side is `<= base`: the
/// sides the in-core I-GEP engines accept (`n = leaf·2^q`, `leaf <=
/// base`). Every power of two qualifies, as does every [`fit_side`].
pub fn halves_to_leaf(n: usize, base: usize) -> bool {
    let mut s = n;
    while s > base {
        if s % 2 == 1 {
            return false;
        }
        s /= 2;
    }
    true
}

/// True if `n` is a power of two (and nonzero).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pow2_basics() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(1024), 1024);
        assert_eq!(next_pow2(1025), 2048);
    }

    #[test]
    fn fit_side_fits_leaves() {
        assert_eq!(fit_side(1501, 64), 1536); // 48·32
        assert_eq!(fit_side(1500, 64), 1536);
        assert_eq!(fit_side(160, 32), 192); // 24·8
        assert_eq!(fit_side(160, 64), 160); // 40·4
        assert_eq!(fit_side(600, 64), 640); // 40·16
        assert_eq!(fit_side(0, 64), 1);
        assert_eq!(fit_side(5, 64), 8);
        for base in [8usize, 16, 32, 48, 64, 100, 128] {
            for q in 0..12 {
                let p = 1usize << q;
                if p >= base {
                    assert_eq!(fit_side(p, base), p, "pow2 {p} base {base}");
                }
            }
            for n in 0..3000 {
                let m = fit_side(n, base);
                assert!(
                    m >= n.max(1) && m <= next_pow2(n),
                    "n={n} base={base} m={m}"
                );
                assert!(halves_to_leaf(m, base), "n={n} base={base} m={m}");
            }
        }
        // No multiple of 8 in (base/2, base]: the power-of-two rule.
        for base in 1..8 {
            for n in [3usize, 100, 1501] {
                assert_eq!(fit_side(n, base), next_pow2(n), "n={n} base={base}");
            }
        }
    }

    #[test]
    fn halves_to_leaf_basics() {
        assert!(halves_to_leaf(1536, 64));
        assert!(halves_to_leaf(160, 32));
        assert!(halves_to_leaf(1024, 1));
        assert!(halves_to_leaf(3, 64));
        assert!(!halves_to_leaf(1500, 64));
        assert!(!halves_to_leaf(3, 1));
        assert!(halves_to_leaf(96, 16)); // 96 → 48 → 24 → 12
        assert!(!halves_to_leaf(200, 16)); // 200 → 100 → 50 → 25
    }

    #[test]
    fn is_pow2_basics() {
        assert!(!is_pow2(0));
        assert!(is_pow2(1));
        assert!(is_pow2(2));
        assert!(!is_pow2(3));
        assert!(is_pow2(64));
        assert!(!is_pow2(65));
    }
}
