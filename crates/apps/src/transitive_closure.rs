//! Boolean transitive closure (Warshall's algorithm) as a GEP instance.
//!
//! `Σ` is the full set and `f(x, u, v, ·) = x ∨ (u ∧ v)`: vertex `j` is
//! reachable from `i` if it already was, or if `k` is reachable from `i`
//! and `j` from `k`. This is Floyd–Warshall over the Boolean semiring —
//! the closure spec [`SemiringSpec`] over [`OrAndBool`] — so I-GEP is
//! exact for it.

use crate::closure::SemiringSpec;
use gep_core::algebra::OrAndBool;
use gep_matrix::Matrix;

/// Computes the reflexive-transitive closure of an adjacency matrix in
/// place (diagonal is set to `true` first), using optimised sequential
/// I-GEP.
///
/// # Panics
/// Panics unless `adj` is square with a side that halves exactly down to
/// leaves of side `<= base_size` (a power of two, or a
/// [`gep_matrix::fit_side`] for the same base).
pub fn transitive_closure(adj: &mut Matrix<bool>, base_size: usize) {
    for i in 0..adj.n() {
        adj.set(i, i, true);
    }
    gep_core::igep_opt(&SemiringSpec::<OrAndBool>::new(), adj, base_size);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::tc_reference;
    use gep_core::{cgep_full, gep_iterative, igep};

    const TC: SemiringSpec<OrAndBool> = SemiringSpec::new();

    fn random_adj(n: usize, seed: u64, density_mod: u64) -> Matrix<bool> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            i == j || s % density_mod == 0
        })
    }

    #[test]
    fn engines_agree_with_reference() {
        for n in [2usize, 4, 8, 16, 32] {
            let init = random_adj(n, n as u64 + 1, 5);
            let oracle = tc_reference(&init);
            let mut g = init.clone();
            gep_iterative(&TC, &mut g);
            assert_eq!(g, oracle, "G n={n}");
            let mut f = init.clone();
            igep(&TC, &mut f, 1);
            assert_eq!(f, oracle, "F n={n}");
            let mut t = init.clone();
            transitive_closure(&mut t, 4);
            assert_eq!(t, oracle, "opt n={n}");
            let mut h = init.clone();
            cgep_full(&TC, &mut h, 2);
            assert_eq!(h, oracle, "H n={n}");
        }
    }

    #[test]
    fn kernel_base_sizes_agree() {
        let n = 16;
        let init = random_adj(n, 33, 7);
        let mut reference = init.clone();
        gep_iterative(&TC, &mut reference);
        for base in [1usize, 2, 4, 8, 16] {
            let mut c = init.clone();
            gep_core::igep_opt(&TC, &mut c, base);
            assert_eq!(c, reference, "base={base}");
        }
    }

    #[test]
    fn chain_reaches_everything_forward() {
        // 0 -> 1 -> 2 -> 3: closure is the upper triangle.
        let mut adj = Matrix::from_fn(4, 4, |i, j| j == i + 1);
        transitive_closure(&mut adj, 1);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(adj[(i, j)], j >= i, "({i},{j})");
            }
        }
    }

    #[test]
    fn cycle_reaches_everything() {
        let mut adj = Matrix::from_fn(8, 8, |i, j| j == (i + 1) % 8);
        transitive_closure(&mut adj, 2);
        assert!(adj.as_slice().iter().all(|&b| b));
    }
}
