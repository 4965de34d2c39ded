//! **I-GEP / F** — the in-place cache-oblivious recursion (Figure 2).
//!
//! `F(X, k1, k2)` takes an aligned subsquare `X = c[i1..i2, j1..j2]` with
//! `|i-range| = |j-range| = |k-range| = 2^q`, splits `X` into quadrants and
//! the `k`-range into halves, and recurses: a *forward pass* over all four
//! quadrants with the first `k`-half, then a *backward pass* in reverse
//! quadrant order with the second half. The recursion touches each update
//! of `Σ` exactly once and orders the updates on any fixed cell by
//! increasing `k` (Theorem 2.1); it is cache-oblivious with
//! Θ(n³/(B√M)) I/Os on a tall cache.
//!
//! This module's engine is generic over [`CellStore`], which is what the
//! cache-simulator and out-of-core experiments run. Its recursion is the
//! shared leaf schedule of [`crate::walk`]. The raw-speed in-core
//! variant (with the Figure 6 A/B/C/D specialisation) lives in
//! [`crate::abcd`].

use crate::iterative::gep_iterative_box;
use crate::spec::GepSpec;
use crate::store::CellStore;
use crate::walk::{walk_leaves, Cube};
use std::ops::ControlFlow;
use std::time::Instant;

/// Runs I-GEP (Figure 2) on `c`.
///
/// `base_size` is the §4.2 optimisation: subproblems of side `<= base_size`
/// are solved with the iterative kernel instead of recursing to single
/// elements. `base_size = 1` is the literal Figure 2 algorithm. For specs
/// on which I-GEP is exact (Gaussian elimination, LU, Floyd–Warshall,
/// matrix multiplication, …) the result is independent of `base_size`.
///
/// The best `base_size` is host-dependent and interacts with kernel
/// selection: larger bases give the specialized SIMD base-case kernels of
/// `gep-kernels` longer inner loops to amortise their setup, while the
/// scalar generic kernel usually peaks earlier. `repro tune` measures
/// `base_size × backend` per application (see `docs/KERNELS.md`); the
/// experiments pass `gep_kernels::DEFAULT_BASE_SIZE` (64). Note this
/// store-based engine always uses the generic iterative kernel — the
/// specialized kernels apply to the raw in-core [`crate::abcd`] engine.
///
/// # Panics
/// Panics unless `c` is square with a side that halves exactly down to
/// leaves of side `<= base_size` ([`gep_matrix::halves_to_leaf`]), and
/// `base_size >= 1`.
pub fn igep<S, St>(spec: &S, c: &mut St, base_size: usize)
where
    S: GepSpec,
    St: CellStore<S::Elem> + ?Sized,
{
    let n = c.n();
    igep_box(spec, c, 0, 0, 0, n, base_size);
}

/// The recursive `F` on an explicit box: rows `i0..i0+s`,
/// cols `j0..j0+s`, update indices `k0..k0+s`.
///
/// Runs the iterative kernel on each leaf of the [`walk_leaves`] schedule
/// and counts the non-pruned calls of `F` into `igep.calls`.
///
/// # Panics
/// Panics unless `s` is zero or halves exactly down to leaves of side
/// `<= base`, and `base >= 1`; the
/// caller must pass boxes aligned the way `F` would produce them for the
/// results to mean anything.
pub fn igep_box<S, St>(spec: &S, c: &mut St, i0: usize, j0: usize, k0: usize, s: usize, base: usize)
where
    S: GepSpec,
    St: CellStore<S::Elem> + ?Sized,
{
    let root = Cube { i0, j0, k0, s };
    let calls = walk_leaves(spec, root, base, &mut |leaf| {
        run_leaf(spec, c, leaf);
        ControlFlow::Continue(())
    });
    gep_obs::counter_add("igep.calls", calls);
}

/// One leaf of `F` (Figure 2, line 2 generalised to a box): the iterative
/// kernel on the box, for `s = 1` exactly the paper's base case. Shared
/// by [`igep`] and [`crate::igep_resumable`]; with a recorder installed
/// it counts `igep.base_cases` and `igep.updates` and times the kernel
/// into `kernel.leaf_ns`.
pub(crate) fn run_leaf<S, St>(spec: &S, c: &mut St, leaf: Cube)
where
    S: GepSpec,
    St: CellStore<S::Elem> + ?Sized,
{
    let (i, j, k) = leaf.ranges();
    if !gep_obs::enabled() {
        gep_iterative_box(spec, c, i, j, k);
        return;
    }
    gep_obs::counter_add("igep.base_cases", 1);
    gep_obs::counter_add("igep.updates", spec.sigma_count(i, j, k));
    let start = Instant::now();
    gep_iterative_box(spec, c, i, j, k);
    gep_obs::hist_record("kernel.leaf_ns", start.elapsed().as_nanos() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::gep_iterative;
    use crate::spec::{ClosureSpec, ExplicitSet, SumSpec};
    use gep_matrix::Matrix;

    #[test]
    fn paper_counterexample_value_for_f() {
        // Section 2.2.1: F outputs c[1][0] = 8 where G outputs 2.
        let mut c = Matrix::from_rows(&[vec![0i64, 0], vec![0, 1]]);
        igep(&SumSpec, &mut c, 1);
        assert_eq!(c[(1, 0)], 8);
    }

    /// Floyd–Warshall-style spec: min-plus over the full update set.
    /// I-GEP is exact for this class, so F ≡ G for any input.
    struct MinPlus;
    impl GepSpec for MinPlus {
        type Elem = i64;
        fn update(&self, _: usize, _: usize, _: usize, x: i64, u: i64, v: i64, _w: i64) -> i64 {
            x.min(u.saturating_add(v))
        }
        fn in_sigma(&self, _: usize, _: usize, _: usize) -> bool {
            true
        }
    }

    #[test]
    fn igep_equals_g_on_min_plus() {
        for n in [1usize, 2, 4, 8, 16] {
            let init = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    0i64
                } else {
                    ((i * 7 + j * 13) % 19 + 1) as i64
                }
            });
            let mut g = init.clone();
            let mut f = init.clone();
            gep_iterative(&MinPlus, &mut g);
            igep(&MinPlus, &mut f, 1);
            assert_eq!(g, f, "n={n}");
        }
    }

    #[test]
    fn base_size_does_not_change_result_on_valid_spec() {
        let n = 16;
        let init = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0i64
            } else {
                ((i * 31 + j * 17) % 23 + 1) as i64
            }
        });
        let mut reference = init.clone();
        igep(&MinPlus, &mut reference, 1);
        for base in [2usize, 4, 8, 16] {
            let mut c = init.clone();
            igep(&MinPlus, &mut c, base);
            assert_eq!(c, reference, "base={base}");
        }
    }

    #[test]
    fn pruning_skips_untouched_quadrants() {
        // Σ confined to the top-left quadrant: bottom-right must not be read.
        let sigma = ExplicitSet::from_iter(
            (0..2).flat_map(|i| (0..2).flat_map(move |j| (0..2).map(move |k| (i, j, k)))),
        );
        let spec = ClosureSpec::new(|_, _, _, x: i64, u, v, w| x + u + v + w, sigma);
        let init = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as i64);
        let mut f = init.clone();
        let mut g = init.clone();
        igep(&spec, &mut f, 1);
        gep_iterative(&spec, &mut g);
        // Sub-box confined Σ with box side 2 is itself a complete 2x2 GEP;
        // I-GEP on sub-GEP of SumSpec diverges from G in general, but the
        // untouched quadrants must be identical to the input.
        for i in 0..4 {
            for j in 0..4 {
                if i >= 2 || j >= 2 {
                    assert_eq!(f[(i, j)], init[(i, j)]);
                    assert_eq!(g[(i, j)], init[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn n1_single_cell() {
        let spec = ClosureSpec::new(
            |_, _, _, x: i64, u, v, w| x * 2 + u + v + w,
            ExplicitSet::from_iter([(0, 0, 0)]),
        );
        let mut c = Matrix::from_rows(&[vec![3i64]]);
        igep(&spec, &mut c, 1);
        // x=u=v=w=3 -> 2*3 + 3 + 3 + 3 = 15.
        assert_eq!(c[(0, 0)], 15);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_pow2() {
        let mut c = Matrix::square(3, 0i64);
        igep(&SumSpec, &mut c, 1);
    }
}
