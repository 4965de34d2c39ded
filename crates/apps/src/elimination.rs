//! Generic elimination spec: Gaussian elimination over any
//! [`EliminationAlgebra`].
//!
//! `Σ = {⟨i,j,k⟩ : i > k ∧ j > k}` and `f(x, u, v, w) = x ⊖ (u ⊗ w⁻¹ ⊗ v)`
//! — the Schur-complement update of elimination without pivoting, lifted
//! from `(f64, +, ×)` to an arbitrary ring with partial inverses. The
//! exact instantiations are the interesting ones:
//!
//! * [`ElimSpec<Gf2x64>`] — bitsliced GF(2) elimination, one
//!   [`Gf2Block`](gep_core::algebra::Gf2Block) (64×64 bits) per GEP cell;
//! * [`ElimSpec<GfP<P>>`] — prime-field elimination with Barrett
//!   reduction (exact rank / determinant / solving mod p);
//! * [`ElimSpec<PlusTimesF64>`] — the classical real-field instance,
//!   named [`type@crate::GaussianSpec`]: `f = x − (u / w)·v`, the order of
//!   every f64 GE kernel (see [`EliminationAlgebra::multiplier`]).
//!
//! No pivoting, as in the paper: inputs must have nonsingular leading
//! principal minors (over GF(2): nonsingular leading *block* minors).
//! Exact algebras have no `inf`/`NaN` to absorb a zero pivot, so the
//! kernel panics on one instead of silently poisoning the matrix.
//!
//! [`ElimSpec<Gf2x64>`]: ElimSpec
//! [`ElimSpec<GfP<P>>`]: ElimSpec
//! [`ElimSpec<PlusTimesF64>`]: ElimSpec

use gep_core::algebra::EliminationAlgebra;
use gep_core::{BoxShape, GepMat, GepSpec};
use gep_kernels::AlgebraKernels;
use std::marker::PhantomData;

/// Elimination without pivoting over the algebra `A`:
/// `Σ = {i > k ∧ j > k}`, `f = x ⊖ (u ⊗ w⁻¹) ⊗ v`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ElimSpec<A>(PhantomData<A>);

impl<A> ElimSpec<A> {
    /// Creates the spec.
    pub const fn new() -> Self {
        Self(PhantomData)
    }
}

impl<A: EliminationAlgebra + AlgebraKernels> GepSpec for ElimSpec<A> {
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
        w: A::Elem,
    ) -> A::Elem {
        A::eliminate(x, u, v, w)
    }

    #[inline(always)]
    fn in_sigma(&self, i: usize, j: usize, k: usize) -> bool {
        i > k && j > k
    }

    #[inline(always)]
    fn sigma_intersects(&self, ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> bool {
        // Σ ∩ box ≠ ∅ ⇔ some i > k and some j > k with k in range:
        // the smallest k works if any does.
        ib.1 > kb.0 && jb.1 > kb.0
    }

    #[inline(always)]
    fn sigma_count(&self, ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> u64 {
        gep_core::iterative::sigma_count_elim(ib, jb, kb)
    }

    #[inline(always)]
    fn tau(&self, _n: usize, i: usize, j: usize, l: i64) -> Option<usize> {
        // ⟨i,j,k'⟩ ∈ Σ ⇔ k' < min(i, j); the largest such k' ≤ l is
        // min(l, i-1, j-1) when non-negative.
        if i == 0 || j == 0 {
            return None;
        }
        let cap = (i - 1).min(j - 1) as i64;
        let t = l.min(cap);
        (t >= 0).then_some(t as usize)
    }

    /// Hoisted tile kernel (the §4.2 "move divisions out of the
    /// innermost loop" optimisation): the pivot's
    /// [`EliminationAlgebra::multiplier`] once per `k` (one inverse for
    /// exact algebras), the multiplier `u ⊗ w⁻¹` once per `(k, i)`, a
    /// multiply-subtract in the inner loop. Each cell gets exactly the
    /// operations of [`EliminationAlgebra::eliminate`], in the same
    /// order, so the kernel equals G bitwise for every algebra, `f64`
    /// included. The hoists are sound on every box shape because `Σ`
    /// excludes `i == k` and `j == k`, so row `k` and column `k` are
    /// never written during step `k`.
    ///
    /// # Panics
    /// Panics when a pivot is not invertible (see module docs).
    unsafe fn kernel(&self, m: GepMat<'_, A::Elem>, xr: usize, xc: usize, kk: usize, s: usize) {
        for k in kk..kk + s {
            let by_pivot = A::multiplier(m.get(k, k));
            let vrow = m.row_ptr(k);
            for i in (k + 1).max(xr)..xr + s {
                let factor = by_pivot(m.get(i, k));
                let xrow = m.row_ptr(i);
                for j in (k + 1).max(xc)..xc + s {
                    *xrow.add(j) = A::sub(*xrow.add(j), A::mul(factor, *vrow.add(j)));
                }
            }
        }
    }

    /// Routes the base case through the active backend's elimination
    /// kernel for this algebra ([`AlgebraKernels::elim_kernel`]); algebras
    /// without one — and the `Generic` backend — fall back to
    /// [`ElimSpec::kernel`].
    unsafe fn kernel_shaped(
        &self,
        m: GepMat<'_, A::Elem>,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
        shape: BoxShape,
    ) {
        match gep_kernels::dispatch().and_then(A::elim_kernel) {
            Some(kernel) => kernel(m, xr, xc, kk, s, shape),
            None => self.kernel(m, xr, xc, kk, s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{gf2_block_elim_reference, gfp_elim_reference};
    use gep_core::algebra::{Gf2Block, Gf2x64, GfMersenne31, GfP};
    use gep_core::{cgep_full, gep_iterative, igep, igep_opt};
    use gep_matrix::Matrix;

    fn rand64(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Random invertible 64×64 bit block as a unit-lower · unit-upper
    /// product — all leading minors are 1, so it is nonsingular.
    fn gf2_invertible_block(s: &mut u64) -> Gf2Block {
        let mut lo = Gf2Block::IDENTITY;
        let mut up = Gf2Block::IDENTITY;
        for r in 0..64 {
            lo.0[r] |= rand64(s) & (((1u128 << r) - 1) as u64);
            up.0[r] |= rand64(s) & !(((1u128 << (r + 1)) - 1) as u64);
        }
        lo.mul(&up)
    }

    /// Block matrix whose leading principal *block* minors are all
    /// nonsingular: a block-level unit-lower · upper product with
    /// invertible diagonal blocks, so every Schur-complement pivot the
    /// elimination reaches is invertible.
    fn gf2_matrix_lu(n: usize, seed: u64) -> Matrix<Gf2Block> {
        let mut s = seed;
        let rnd_block = |s: &mut u64| Gf2Block(std::array::from_fn(|_| rand64(s)));
        let lo = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                Gf2Block::IDENTITY
            } else if i > j {
                rnd_block(&mut s)
            } else {
                Gf2Block::ZERO
            }
        });
        let mut s2 = seed ^ 0xABCD;
        let up = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                gf2_invertible_block(&mut s2)
            } else if i < j {
                rnd_block(&mut s2)
            } else {
                Gf2Block::ZERO
            }
        });
        Matrix::from_fn(n, n, |i, j| {
            let mut acc = Gf2Block::ZERO;
            for m in 0..n {
                acc.xor_assign(&lo[(i, m)].mul(&up[(m, j)]));
            }
            acc
        })
    }

    fn gfp_matrix<const P: u64>(n: usize, seed: u64) -> Matrix<u64> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| {
            let x = rand64(&mut s) % P;
            // A heavy diagonal keeps leading minors nonzero with
            // overwhelming probability for a random prime-field matrix;
            // the references assert invertibility explicitly.
            if i == j && x == 0 {
                1
            } else {
                x
            }
        })
    }

    #[test]
    fn gf2_engines_agree_with_scalar_block_reference() {
        let spec = ElimSpec::<Gf2x64>::new();
        for n in [1usize, 2, 4, 8] {
            let init = gf2_matrix_lu(n, 0x9F2 + n as u64);
            let oracle = gf2_block_elim_reference(&init);
            let mut g = init.clone();
            gep_iterative(&spec, &mut g);
            assert_eq!(g, oracle, "G n={n}");
            let mut f = init.clone();
            igep(&spec, &mut f, 1);
            assert_eq!(f, oracle, "igep n={n}");
            let mut opt = init.clone();
            igep_opt(&spec, &mut opt, 2);
            assert_eq!(opt, oracle, "abcd n={n}");
            let mut h = init.clone();
            cgep_full(&spec, &mut h, 2);
            assert_eq!(h, oracle, "cgep n={n}");
        }
    }

    #[test]
    fn gfp_engines_agree_with_naive_mod_reference() {
        const P: u64 = 2_147_483_647;
        let spec = ElimSpec::<GfMersenne31>::new();
        for n in [2usize, 4, 8, 16] {
            let init = gfp_matrix::<P>(n, 0x6F0 + n as u64);
            let oracle = gfp_elim_reference(&init, P);
            let mut g = init.clone();
            gep_iterative(&spec, &mut g);
            assert_eq!(g, oracle, "G n={n}");
            let mut f = init.clone();
            igep(&spec, &mut f, 1);
            assert_eq!(f, oracle, "igep n={n}");
            let mut opt = init.clone();
            igep_opt(&spec, &mut opt, 4);
            assert_eq!(opt, oracle, "abcd n={n}");
        }
    }

    #[test]
    fn gfp_small_prime_elimination() {
        // Hand-checkable over GF(7): eliminate [[3, 1], [5, 2]].
        // w⁻¹ = 3⁻¹ = 5; factor = 5·5 = 25 = 4; x' = 2 − 4·1 = −2 = 5.
        let init = Matrix::from_rows(&[vec![3u64, 1], vec![5, 2]]);
        let mut m = init.clone();
        igep_opt(&ElimSpec::<GfP<7>>::new(), &mut m, 1);
        assert_eq!(m[(1, 1)], 5);
        assert_eq!(gfp_elim_reference(&init, 7)[(1, 1)], 5);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // textbook index form, on purpose
    fn gf2_block_elimination_matches_bit_level_ge() {
        // For a 2×2 block matrix [[W, V], [U, X]] with every bit-leading
        // minor of W nonsingular, 64 steps of plain bit-level GE leave the
        // bottom-right 64×64 bit region equal to the Schur complement
        // X ⊕ U·W⁻¹·V — which is exactly what one block-elimination step
        // produces. This pins the bitsliced block arithmetic to the naive
        // bit-matrix algorithm, independent of Gf2Block's word tricks.
        let mut s = 0xB17_C0DEu64;
        let w = gf2_invertible_block(&mut s); // L·U ⇒ all leading minors = 1
        let rnd_block = |s: &mut u64| Gf2Block(std::array::from_fn(|_| rand64(s)));
        let v = rnd_block(&mut s);
        let u = rnd_block(&mut s);
        let x = rnd_block(&mut s);

        // Naive bit-level GE on the 128×128 bool matrix, first 64 steps.
        let blk = |b: &Gf2Block, r: usize, c: usize| b.get(r, c);
        let mut bits = vec![vec![false; 128]; 128];
        for r in 0..64 {
            for c in 0..64 {
                bits[r][c] = blk(&w, r, c);
                bits[r][c + 64] = blk(&v, r, c);
                bits[r + 64][c] = blk(&u, r, c);
                bits[r + 64][c + 64] = blk(&x, r, c);
            }
        }
        for k in 0..64 {
            assert!(
                bits[k][k],
                "bit pivot {k} vanished; W minors must be nonsingular"
            );
            for i in k + 1..128 {
                if bits[i][k] {
                    for j in k + 1..128 {
                        bits[i][j] ^= bits[k][j];
                    }
                }
            }
        }

        // One block-elimination step via the bitsliced algebra.
        let schur = Gf2x64::eliminate(x, u, v, w);
        for r in 0..64 {
            for c in 0..64 {
                assert_eq!(schur.get(r, c), bits[r + 64][c + 64], "bit ({r},{c})");
            }
        }
    }
}
