//! Boolean transitive closure (Warshall's algorithm) as a GEP instance.
//!
//! `Σ` is the full set and `f(x, u, v, ·) = x ∨ (u ∧ v)`: vertex `j` is
//! reachable from `i` if it already was, or if `k` is reachable from `i`
//! and `j` from `k`. This is Floyd–Warshall over the Boolean semiring, so
//! I-GEP is exact for it.

use gep_core::algebra::OrAndBool;
use gep_core::{BoxShape, GepMat, GepSpec};
use gep_kernels::AlgebraKernels;
use gep_matrix::Matrix;

/// Transitive closure over `bool` adjacency matrices.
#[derive(Clone, Copy, Debug, Default)]
pub struct TransitiveClosureSpec;

impl GepSpec for TransitiveClosureSpec {
    type Elem = bool;

    #[inline(always)]
    fn update(&self, _i: usize, _j: usize, _k: usize, x: bool, u: bool, v: bool, _w: bool) -> bool {
        x || (u && v)
    }

    #[inline(always)]
    fn in_sigma(&self, _i: usize, _j: usize, _k: usize) -> bool {
        true
    }

    #[inline(always)]
    fn sigma_count(&self, ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> u64 {
        gep_core::iterative::sigma_count_full(ib, jb, kb)
    }

    #[inline(always)]
    fn tau(&self, n: usize, _i: usize, _j: usize, l: i64) -> Option<usize> {
        (l >= 0 && n > 0).then(|| (l as usize).min(n - 1))
    }

    /// Row-sweep kernel: skips the inner loop entirely when `u` is false.
    unsafe fn kernel(&self, m: GepMat<'_, bool>, xr: usize, xc: usize, kk: usize, s: usize) {
        for k in kk..kk + s {
            let vrow = m.row_ptr(k);
            for i in xr..xr + s {
                // u = c[i,k] is stable within this k-iteration: the only
                // in-tile write to it is the j == k update, which computes
                // x || (x && v) = x.
                let u = m.get(i, k);
                if !u {
                    continue;
                }
                let xrow = m.row_ptr(i);
                for j in xc..xc + s {
                    if *vrow.add(j) {
                        *xrow.add(j) = true;
                    }
                }
            }
        }
    }

    /// Routes the base case through the active backend's closure kernel
    /// for the boolean semiring
    /// ([`gep_kernels::AlgebraKernels::closure_kernel`] on [`OrAndBool`]
    /// — wide byte-wise OR on disjoint boxes); the `Generic` backend
    /// falls back to [`TransitiveClosureSpec::kernel`].
    unsafe fn kernel_shaped(
        &self,
        m: GepMat<'_, bool>,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
        shape: BoxShape,
    ) {
        match gep_kernels::dispatch().and_then(OrAndBool::closure_kernel) {
            Some(kernel) => kernel(m, xr, xc, kk, s, shape),
            None => self.kernel(m, xr, xc, kk, s),
        }
    }
}

/// Computes the reflexive-transitive closure of an adjacency matrix in
/// place (diagonal is set to `true` first), using optimised sequential
/// I-GEP.
///
/// # Panics
/// Panics unless `adj` is square with a power-of-two side.
pub fn transitive_closure(adj: &mut Matrix<bool>, base_size: usize) {
    for i in 0..adj.n() {
        adj.set(i, i, true);
    }
    gep_core::igep_opt(&TransitiveClosureSpec, adj, base_size);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::tc_reference;
    use gep_core::{cgep_full, gep_iterative, igep};

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
            gep_iterative(&TransitiveClosureSpec, &mut g);
            assert_eq!(g, oracle, "G n={n}");
            let mut f = init.clone();
            igep(&TransitiveClosureSpec, &mut f, 1);
            assert_eq!(f, oracle, "F n={n}");
            let mut t = init.clone();
            transitive_closure(&mut t, 4);
            assert_eq!(t, oracle, "opt n={n}");
            let mut h = init.clone();
            cgep_full(&TransitiveClosureSpec, &mut h, 2);
            assert_eq!(h, oracle, "H n={n}");
        }
    }

    #[test]
    fn kernel_base_sizes_agree() {
        let n = 16;
        let init = random_adj(n, 33, 7);
        let mut reference = init.clone();
        gep_iterative(&TransitiveClosureSpec, &mut reference);
        for base in [1usize, 2, 4, 8, 16] {
            let mut c = init.clone();
            gep_core::igep_opt(&TransitiveClosureSpec, &mut c, base);
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
