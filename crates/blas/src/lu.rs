//! Right-looking blocked LU / Gaussian elimination without pivoting
//! (the FLAME-on-GotoBLAS substitute of Figure 10).
//!
//! For each `panel`-wide diagonal block:
//!
//! 1. factor the current column panel unblocked (compute multipliers);
//! 2. triangular-solve the row panel (`U₁₂ ← L₁₁⁻¹ A₁₂`);
//! 3. rank-`panel` update of the trailing submatrix
//!    (`A₂₂ −= L₂₁ · U₁₂`) via the blocked [`dgemm`](crate::dgemm) —
//!    the BLAS-3 bulk of the work.

use crate::gemm::{dgemm_rect_with, GemmParams};
use gep_matrix::Matrix;

/// In-place blocked LU without pivoting: afterwards `a` holds `U` on and
/// above the diagonal, unit-`L`'s subdiagonal below it.
///
/// # Panics
/// Panics unless `a` is square and `panel >= 1`.
pub fn lu_blocked(a: &mut Matrix<f64>, panel: usize) {
    let n = a.n();
    assert!(panel >= 1);
    for kb in (0..n).step_by(panel) {
        let pb = panel.min(n - kb);
        // 1. Unblocked factorisation of the diagonal-and-below column
        //    panel A[kb.., kb..kb+pb].
        for k in kb..kb + pb {
            let pivot = a[(k, k)];
            for i in k + 1..n {
                let mult = a[(i, k)] / pivot;
                a[(i, k)] = mult;
                for j in k + 1..kb + pb {
                    let v = a[(k, j)];
                    a[(i, j)] -= mult * v;
                }
            }
        }
        if kb + pb >= n {
            break;
        }
        // 2. U12 <- L11^{-1} A12 (unit lower triangular solve, row panel).
        for k in kb..kb + pb {
            for i in kb..k {
                let l = a[(k, i)];
                for j in kb + pb..n {
                    let v = a[(i, j)];
                    a[(k, j)] -= l * v;
                }
            }
        }
        // 3. Trailing update A22 -= L21 * U12 as a rectangular dgemm on
        //    extracted panels (copy out, multiply blocked, write back).
        let m2 = n - (kb + pb);
        let l21 = Matrix::from_fn(m2, pb, |i, j| a[(kb + pb + i, kb + j)]);
        let u12 = Matrix::from_fn(pb, m2, |i, j| a[(kb + i, kb + pb + j)]);
        let mut prod = Matrix::filled(m2, m2, 0.0);
        dgemm_rect_with(&mut prod, &l21, &u12, GemmParams::default());
        for i in 0..m2 {
            for j in 0..m2 {
                a[(kb + pb + i, kb + pb + j)] -= prod[(i, j)];
            }
        }
    }
}

/// Blocked Gaussian elimination without pivoting: identical factorisation;
/// read the result's upper triangle as `U` (the subdiagonal holds the
/// multipliers, which plain GE discards).
pub fn ge_blocked(a: &mut Matrix<f64>, panel: usize) {
    lu_blocked(a, panel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gep_apps::reference::{ge_reference, matmul_reference};

    fn dd(n: usize, seed: u64) -> Matrix<f64> {
        let mut s = seed;
        let mut m = Matrix::from_fn(n, n, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 500.0 - 1.0
        });
        for i in 0..n {
            m[(i, i)] = n as f64 + 3.0;
        }
        m
    }

    #[test]
    fn lu_reconstructs_a() {
        for n in [4usize, 8, 16, 33, 64] {
            for panel in [1usize, 2, 8, 16] {
                let a = dd(n, n as u64 * 31 + panel as u64);
                let mut p = a.clone();
                lu_blocked(&mut p, panel);
                let (l, u) = gep_apps::lu::unpack(&p);
                let lu = matmul_reference(&l, &u);
                assert!(
                    lu.approx_eq(&a, 1e-8),
                    "n={n} panel={panel}: err {}",
                    lu.max_abs_diff(&a)
                );
            }
        }
    }

    #[test]
    fn upper_triangle_matches_unblocked_ge() {
        let n = 32;
        let a = dd(n, 17);
        let oracle = ge_reference(&a);
        for panel in [1usize, 4, 8, 32] {
            let mut p = a.clone();
            ge_blocked(&mut p, panel);
            for i in 0..n {
                for j in i..n {
                    assert!(
                        (p[(i, j)] - oracle[(i, j)]).abs() < 1e-8,
                        "panel={panel} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_gep_lu_engine() {
        let n = 32;
        let a = dd(n, 23);
        let mut blocked = a.clone();
        lu_blocked(&mut blocked, 8);
        let mut gep = a.clone();
        gep_apps::lu::lu_in_place(&mut gep, 8);
        assert!(
            blocked.approx_eq(&gep, 1e-8),
            "err {}",
            blocked.max_abs_diff(&gep)
        );
    }

    #[test]
    fn panel_one_equals_unblocked() {
        let n = 16;
        let a = dd(n, 29);
        let mut p1 = a.clone();
        lu_blocked(&mut p1, 1);
        let mut pn = a.clone();
        lu_blocked(&mut pn, n);
        assert!(p1.approx_eq(&pn, 1e-8));
    }
}
