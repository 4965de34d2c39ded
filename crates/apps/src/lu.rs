//! LU decomposition without pivoting as a GEP instance.
//!
//! `Σ = {⟨i,j,k⟩ : i > k ∧ j ≥ k}` with the index-aware update
//!
//! ```text
//! f(i, j, k, x, u, v, w) = x / w          if j == k   (store multiplier)
//!                        = x − u·v        if j > k    (u is already the multiplier)
//! ```
//!
//! At `⟨i,k,k⟩` the cell `c[i,k]` becomes the multiplier
//! `l_ik = a⁽ᵏ⁾[i,k] / a⁽ᵏ⁾[k,k]`; later updates `⟨i,j,k⟩` (same `k`,
//! `j > k`) read `u = c[i,k] = l_ik` — Table 1 guarantees they see the
//! post-multiplier state (`u` is in state `k + [j > k] = k+1`). The run
//! leaves `U` on and above the diagonal and unit-lower-triangular `L`'s
//! subdiagonal entries below it — the classic packed LU.

use gep_core::{BoxShape, GepMat, GepSpec};
use gep_matrix::Matrix;

/// LU decomposition without pivoting (packed `L\U` in place).
#[derive(Clone, Copy, Debug, Default)]
pub struct LuSpec;

impl GepSpec for LuSpec {
    type Elem = f64;

    #[inline(always)]
    fn update(&self, _i: usize, j: usize, k: usize, x: f64, u: f64, v: f64, w: f64) -> f64 {
        if j == k {
            x / w
        } else {
            x - u * v
        }
    }

    #[inline(always)]
    fn in_sigma(&self, i: usize, j: usize, k: usize) -> bool {
        i > k && j >= k
    }

    #[inline(always)]
    fn sigma_intersects(&self, ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> bool {
        ib.1 > kb.0 && jb.1 >= kb.0
    }

    #[inline(always)]
    fn tau(&self, _n: usize, i: usize, j: usize, l: i64) -> Option<usize> {
        // Σ_ij = {k' : k' < i ∧ k' <= j} = [0, min(i-1, j)].
        if i == 0 {
            return None;
        }
        let cap = (i as i64 - 1).min(j as i64);
        let t = l.min(cap);
        (t >= 0).then_some(t as usize)
    }

    /// Tile kernel with the multiplier column handled explicitly.
    unsafe fn kernel(&self, m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize) {
        for k in kk..kk + s {
            let w = m.get(k, k);
            let vrow = m.row_ptr(k);
            for i in (k + 1).max(xr)..xr + s {
                // j == k: form the multiplier (only if column k is in the
                // tile; otherwise it was formed by the tile that owns it).
                if (xc..xc + s).contains(&k) {
                    let l = m.get(i, k) / w;
                    m.set(i, k, l);
                }
                let u = m.get(i, k);
                let xrow = m.row_ptr(i);
                for j in (k + 1).max(xc)..xc + s {
                    *xrow.add(j) -= u * *vrow.add(j);
                }
            }
        }
    }

    /// Routes the base case through the active `gep-kernels` backend; on
    /// disjoint boxes the multipliers are already formed, so the whole
    /// tile is a pure `X −= U·V` panel. The `Generic` backend falls back
    /// to [`LuSpec::kernel`].
    unsafe fn kernel_shaped(
        &self,
        m: GepMat<'_, f64>,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
        shape: BoxShape,
    ) {
        match gep_kernels::dispatch() {
            Some(set) => (set.f64_lu)(m, xr, xc, kk, s, shape),
            None => self.kernel(m, xr, xc, kk, s),
        }
    }
}

/// Runs in-place LU decomposition (optimised sequential I-GEP): afterwards
/// `a` holds `U` on/above the diagonal, `L`'s subdiagonal below it.
///
/// # Panics
/// Panics unless `a` is square with a side that halves exactly down to
/// leaves of side `<= base_size` (a power of two, or a
/// [`gep_matrix::fit_side`] for the same base).
pub fn lu_in_place(a: &mut Matrix<f64>, base_size: usize) {
    gep_core::igep_opt(&LuSpec, a, base_size);
}

/// Unpacks a packed `L\U` matrix into `(L, U)` with unit diagonal `L`.
pub fn unpack(packed: &Matrix<f64>) -> (Matrix<f64>, Matrix<f64>) {
    let n = packed.n();
    let l = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0
        } else if i > j {
            packed[(i, j)]
        } else {
            0.0
        }
    });
    let u = Matrix::from_fn(n, n, |i, j| if i <= j { packed[(i, j)] } else { 0.0 });
    (l, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::matmul_reference;
    use gep_core::{cgep_full, gep_iterative, igep, igep_opt};

    fn dd_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut s = seed;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 500.0 - 1.0
        };
        let mut m = Matrix::from_fn(n, n, |_, _| rng());
        for i in 0..n {
            m[(i, i)] = n as f64 + 2.0;
        }
        m
    }

    #[test]
    fn l_times_u_reconstructs_a() {
        for n in [2usize, 4, 8, 16] {
            let a = dd_matrix(n, 3 * n as u64 + 1);
            let mut p = a.clone();
            lu_in_place(&mut p, 4);
            let (l, u) = unpack(&p);
            let lu = matmul_reference(&l, &u);
            assert!(
                lu.approx_eq(&a, 1e-9),
                "n={n}: ||LU - A|| = {}",
                lu.max_abs_diff(&a)
            );
        }
    }

    #[test]
    fn engines_agree() {
        let n = 16;
        let a = dd_matrix(n, 77);
        let mut g = a.clone();
        gep_iterative(&LuSpec, &mut g);
        let mut f = a.clone();
        igep(&LuSpec, &mut f, 1);
        let mut opt1 = a.clone();
        igep_opt(&LuSpec, &mut opt1, 1);
        let mut opt8 = a.clone();
        igep_opt(&LuSpec, &mut opt8, 8);
        let mut h = a.clone();
        cgep_full(&LuSpec, &mut h, 2);
        assert!(g.approx_eq(&f, 1e-9));
        assert!(g.approx_eq(&opt1, 1e-9));
        assert!(g.approx_eq(&opt8, 1e-9));
        assert!(g.approx_eq(&h, 1e-9));
    }

    #[test]
    fn known_2x2() {
        // A = [[4, 3], [6, 3]]: L = [[1,0],[1.5,1]], U = [[4,3],[0,-1.5]].
        let mut a = Matrix::from_rows(&[vec![4.0, 3.0], vec![6.0, 3.0]]);
        lu_in_place(&mut a, 1);
        assert!((a[(0, 0)] - 4.0).abs() < 1e-12);
        assert!((a[(0, 1)] - 3.0).abs() < 1e-12);
        assert!((a[(1, 0)] - 1.5).abs() < 1e-12);
        assert!((a[(1, 1)] + 1.5).abs() < 1e-12);
    }

    #[test]
    fn lu_agrees_with_gaussian_upper_triangle() {
        let n = 8;
        let a = dd_matrix(n, 5);
        let mut lu = a.clone();
        lu_in_place(&mut lu, 2);
        let mut ge = a.clone();
        crate::gaussian::eliminate(&mut ge, 2);
        for i in 0..n {
            for j in i..n {
                assert!((lu[(i, j)] - ge[(i, j)]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn tau_closed_form_matches_default_scan() {
        let spec = LuSpec;
        let n = 12;
        for i in 0..n {
            for j in 0..n {
                for l in -1..n as i64 + 2 {
                    let scan = (0..n)
                        .rev()
                        .find(|&k| (k as i64) <= l && spec.in_sigma(i, j, k));
                    assert_eq!(spec.tau(n, i, j, l), scan, "i={i} j={j} l={l}");
                }
            }
        }
    }
}
