//! Generic algebraic-closure spec: full-`Σ` GEP over any
//! [`UpdateAlgebra`](gep_core::algebra::UpdateAlgebra).
//!
//! One spec covers every "Floyd–Warshall-shaped" problem — the update is
//! `x ← x ⊕ (u ⊗ v)` for all `(i, j, k)`, so instantiating a new closure
//! (shortest paths, widest paths, reachability, …) is *only* a matter of
//! picking the algebra:
//!
//! * [`SemiringSpec<MinPlusI64>`] — APSP over exact `i64` weights
//!   (saturating, `∞`-absorbing; see [`gep_core::algebra::MinPlusI64`]);
//! * [`SemiringSpec<MinPlusF64>`] — APSP over IEEE `f64` weights;
//! * [`SemiringSpec<MaxMinI64>`] — bottleneck (widest-path) closure;
//! * [`SemiringSpec<OrAndBool>`] — boolean transitive closure.
//!
//! I-GEP is exact for all of these (the paper's motivating full-`Σ`
//! applications). Base cases route through the active `gep-kernels`
//! backend via the [`AlgebraKernels::closure_kernel`] hook; algebras
//! without a specialized kernel fall back to the scalar sweep below.
//!
//! [`SemiringSpec<MinPlusI64>`]: SemiringSpec
//! [`SemiringSpec<MinPlusF64>`]: SemiringSpec
//! [`SemiringSpec<MaxMinI64>`]: SemiringSpec
//! [`SemiringSpec<OrAndBool>`]: SemiringSpec

use gep_core::{BoxShape, GepMat, GepSpec};
use gep_kernels::AlgebraKernels;
use std::marker::PhantomData;

/// Full-`Σ` closure spec over the algebra `A`: `f(x, u, v, ·) = x ⊕ (u ⊗ v)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SemiringSpec<A>(PhantomData<A>);

impl<A> SemiringSpec<A> {
    /// Creates the spec.
    pub const fn new() -> Self {
        Self(PhantomData)
    }
}

impl<A: AlgebraKernels> GepSpec for SemiringSpec<A> {
    type Elem = A::Elem;

    #[inline(always)]
    fn update(
        &self,
        _i: usize,
        _j: usize,
        _k: usize,
        x: A::Elem,
        u: A::Elem,
        v: A::Elem,
        _w: A::Elem,
    ) -> A::Elem {
        A::fma(x, u, v)
    }

    #[inline(always)]
    fn in_sigma(&self, _i: usize, _j: usize, _k: usize) -> bool {
        true
    }

    #[inline(always)]
    fn sigma_intersects(&self, _: (usize, usize), _: (usize, usize), _: (usize, usize)) -> bool {
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

    /// Scalar tile sweep, `k` outermost with the generic kernel's `j == k`
    /// aliasing refresh of `u`; `w` is unused by the update, so no pivot
    /// refresh is needed. Sound on every box shape.
    unsafe fn kernel(&self, m: GepMat<'_, A::Elem>, xr: usize, xc: usize, kk: usize, s: usize) {
        for k in kk..kk + s {
            let vrow = m.row_ptr(k);
            for i in xr..xr + s {
                let mut u = m.get(i, k);
                let xrow = m.row_ptr(i);
                for j in xc..xc + s {
                    let nx = A::fma(*xrow.add(j), u, *vrow.add(j));
                    *xrow.add(j) = nx;
                    if j == k {
                        u = nx;
                    }
                }
            }
        }
    }

    /// Routes the base case through the active backend's kernel for this
    /// algebra ([`AlgebraKernels::closure_kernel`]); algebras without one
    /// — and the `Generic` backend — fall back to [`SemiringSpec::kernel`].
    unsafe fn kernel_shaped(
        &self,
        m: GepMat<'_, A::Elem>,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
        shape: BoxShape,
    ) {
        match gep_kernels::dispatch().and_then(A::closure_kernel) {
            Some(kernel) => kernel(m, xr, xc, kk, s, shape),
            None => self.kernel(m, xr, xc, kk, s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{maxmin_reference, tc_reference};
    use gep_core::algebra::{MaxMinI64, OrAndBool};
    use gep_core::{cgep_full, gep_iterative, igep, igep_opt};
    use gep_matrix::Matrix;

    fn random_caps(n: usize, seed: u64) -> Matrix<i64> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if i == j {
                i64::MAX // ONE: staying put has no bottleneck
            } else if s % 4 == 0 {
                i64::MIN // ZERO: no edge
            } else {
                (s % 100) as i64
            }
        })
    }

    #[test]
    fn maxmin_engines_agree_with_reference() {
        let spec = SemiringSpec::<MaxMinI64>::new();
        for n in [2usize, 4, 8, 16, 32] {
            let init = random_caps(n, 0xB0 + n as u64);
            let oracle = maxmin_reference(&init);
            let mut g = init.clone();
            gep_iterative(&spec, &mut g);
            assert_eq!(g, oracle, "G n={n}");
            let mut f = init.clone();
            igep(&spec, &mut f, 1);
            assert_eq!(f, oracle, "igep n={n}");
            let mut opt = init.clone();
            igep_opt(&spec, &mut opt, 4);
            assert_eq!(opt, oracle, "abcd n={n}");
            let mut h = init.clone();
            cgep_full(&spec, &mut h, 2);
            assert_eq!(h, oracle, "cgep n={n}");
        }
    }

    #[test]
    fn maxmin_widest_path_known_graph() {
        // 0 -[5]-> 1 -[3]-> 2 and 0 -[2]-> 2: widest 0→2 is min(5,3) = 3.
        let inf = i64::MIN;
        let init = Matrix::from_rows(&[
            vec![i64::MAX, 5, 2],
            vec![inf, i64::MAX, 3],
            vec![inf, inf, i64::MAX],
        ]);
        let mut m = init.padded(i64::MIN, 2);
        igep_opt(&SemiringSpec::<MaxMinI64>::new(), &mut m, 2);
        assert_eq!(m[(0, 2)], 3);
        assert_eq!(m[(0, 1)], 5);
        assert_eq!(m[(1, 0)], i64::MIN);
    }

    #[test]
    fn orand_closure_matches_tc_reference() {
        let spec = SemiringSpec::<OrAndBool>::new();
        for n in [4usize, 8, 16] {
            let mut s = 0x7C ^ n as u64;
            let init = Matrix::from_fn(n, n, |i, j| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                i == j || s % 5 == 0
            });
            let mut a = init.clone();
            igep_opt(&spec, &mut a, 4);
            assert_eq!(a, tc_reference(&init), "n={n}");
        }
    }
}
