//! Gaussian elimination without pivoting as a GEP instance, plus
//! triangular solves and an end-to-end linear solver.
//!
//! `Σ = {⟨i,j,k⟩ : i > k ∧ j > k}` and `f(x, u, v, w) = x − (u / w)·v`:
//! at step `k`, every cell strictly below and to the right of the pivot
//! `c[k,k]` is reduced by `(c[i,k]/c[k,k])·c[k,j]`, where `c[i,k]` and
//! `c[k,j]` carry exactly `k` elimination steps (Table 1). This is
//! [`ElimSpec`] over [`PlusTimesF64`]; every engine and kernel backend
//! computes it in this one order. After the run the upper triangle
//! (including the diagonal) holds `U` of `A = L·U`; the strict lower
//! triangle holds partially-reduced residue (use [`crate::lu::LuSpec`]
//! when the multipliers are needed).
//!
//! No pivoting: inputs must be such that all leading principal minors are
//! nonsingular (e.g. diagonally dominant or positive definite), as in the
//! paper's experiments.

use crate::elimination::ElimSpec;
use gep_core::algebra::PlusTimesF64;
use gep_matrix::Matrix;

/// Gaussian elimination without pivoting: the elimination spec over the
/// real field.
pub type GaussianSpec = ElimSpec<PlusTimesF64>;

/// The [`type@GaussianSpec`] value, so `&GaussianSpec` reads like a unit
/// struct.
#[allow(non_upper_case_globals)]
pub const GaussianSpec: GaussianSpec = ElimSpec::new();

/// Runs Gaussian elimination (optimised sequential I-GEP) in place;
/// afterwards the upper triangle of `a` is the `U` factor.
///
/// # Panics
/// Panics unless `a` is square with a side that halves exactly down to
/// leaves of side `<= base_size` (a power of two, or a
/// [`gep_matrix::fit_side`] for the same base).
pub fn eliminate(a: &mut Matrix<f64>, base_size: usize) {
    gep_core::igep_opt(&GaussianSpec, a, base_size);
}

/// `A`, with `b` as column `n` when given, embedded in a square of side
/// `fit_side(width, base_size)`. Identity padding keeps the system
/// nonsingular and the extra rows/columns inert (their off-diagonal
/// entries are zero).
fn identity_padded(a: &Matrix<f64>, b: Option<&[f64]>, base_size: usize) -> Matrix<f64> {
    let n = a.n();
    let width = n + usize::from(b.is_some());
    let m = gep_matrix::fit_side(width, base_size);
    Matrix::from_fn(m, m, |i, j| {
        if i < n && j < n {
            a[(i, j)]
        } else if i < n && j == n {
            b.map_or(0.0, |b| b[i])
        } else if i == j {
            1.0
        } else {
            0.0
        }
    })
}

/// Solves `U x = y` for upper-triangular `U` (back substitution) on the
/// leading `x.len() × x.len()` block of `u`, with `y` in column `ycol`.
fn back_substitute(u: &Matrix<f64>, ycol: usize, x: &mut [f64]) {
    let n = x.len();
    for i in (0..n).rev() {
        let mut acc = u[(i, ycol)];
        for j in i + 1..n {
            acc -= u[(i, j)] * x[j];
        }
        x[i] = acc / u[(i, i)];
    }
}

/// Solves `A x = b` by GEP Gaussian elimination (no pivoting) followed by
/// back substitution.
///
/// `A` may be any square size: the `(n+1)`-column system `[A | b]` is
/// padded internally to `fit_side(n+1, base_size)` and eliminated, which
/// leaves `U` in its first `n` columns and `y` with `U x = y` in column
/// `n`. Requires all leading principal minors nonsingular.
pub fn solve(a: &Matrix<f64>, b: &[f64], base_size: usize) -> Vec<f64> {
    let n = a.n();
    assert_eq!(b.len(), n);
    // Allocated before `aug`, so freeing `aug` can shrink the heap top.
    let mut x = vec![0.0; n];
    let mut aug = identity_padded(a, Some(b), base_size);
    eliminate(&mut aug, base_size);
    back_substitute(&aug, n, &mut x);
    x
}

/// Determinant of `A` via elimination: the product of the pivots.
pub fn determinant(a: &Matrix<f64>, base_size: usize) -> f64 {
    let mut p = identity_padded(a, None, base_size);
    eliminate(&mut p, base_size);
    (0..a.n()).map(|i| p[(i, i)]).product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{ge_reference, mat_vec, solve_reference};
    use gep_core::{cgep_full, gep_iterative, igep, GepSpec};

    fn spd_matrix(n: usize, seed: u64) -> Matrix<f64> {
        // Diagonally dominant => elimination without pivoting is stable.
        let mut s = seed;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 1000.0
        };
        let mut m = Matrix::from_fn(n, n, |_, _| rng() - 0.5);
        for i in 0..n {
            m[(i, i)] = n as f64 + 1.0;
        }
        m
    }

    #[test]
    fn engines_agree_with_reference_upper_triangle() {
        for n in [2usize, 4, 8, 16] {
            let a = spd_matrix(n, 42);
            let oracle = ge_reference(&a);
            let mut g = a.clone();
            gep_iterative(&GaussianSpec, &mut g);
            let mut f = a.clone();
            igep(&GaussianSpec, &mut f, 1);
            let mut opt = a.clone();
            eliminate(&mut opt, 4);
            let mut h = a.clone();
            cgep_full(&GaussianSpec, &mut h, 2);
            for i in 0..n {
                for j in i..n {
                    let o = oracle[(i, j)];
                    assert!((g[(i, j)] - o).abs() < 1e-9, "G ({i},{j}) n={n}");
                    assert!((f[(i, j)] - o).abs() < 1e-9, "F ({i},{j}) n={n}");
                    assert!((opt[(i, j)] - o).abs() < 1e-9, "opt ({i},{j}) n={n}");
                    assert!((h[(i, j)] - o).abs() < 1e-9, "H ({i},{j}) n={n}");
                }
            }
        }
    }

    #[test]
    fn base_size_invariance() {
        let n = 32;
        let a = spd_matrix(n, 7);
        let mut reference = a.clone();
        gep_iterative(&GaussianSpec, &mut reference);
        for base in [1usize, 2, 8, 32] {
            let mut c = a.clone();
            eliminate(&mut c, base);
            assert!(c.approx_eq(&reference, 1e-9), "base={base}");
        }
    }

    #[test]
    fn solver_matches_reference_and_residual_is_small() {
        for n in [3usize, 5, 8, 13, 16] {
            let a = spd_matrix(n, 1000 + n as u64);
            let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
            let x = solve(&a, &b, 4);
            let x_ref = solve_reference(&a, &b);
            for i in 0..n {
                assert!((x[i] - x_ref[i]).abs() < 1e-8, "n={n} i={i}");
            }
            let ax = mat_vec(&a, &x);
            for i in 0..n {
                assert!((ax[i] - b[i]).abs() < 1e-8, "residual n={n} i={i}");
            }
        }
    }

    #[test]
    fn determinant_of_known_matrices() {
        let i4 = Matrix::identity(4);
        assert!((determinant(&i4, 1) - 1.0).abs() < 1e-12);
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        assert!((determinant(&a, 1) - 5.0).abs() < 1e-12);
        // Upper triangular: determinant = product of diagonal.
        let t = Matrix::from_rows(&[
            vec![2.0, 5.0, 1.0],
            vec![0.0, 3.0, 4.0],
            vec![0.0, 0.0, 0.5],
        ]);
        assert!((determinant(&t, 2) - 3.0).abs() < 1e-12);
    }

    /// `[A | b]` of width `n + 1` runs on the fitted side 1536 (`48·32`)
    /// for n = 1500 and 1501, not on 2048.
    fn check_solve_on_side_1536(n: usize) {
        assert_eq!(gep_matrix::fit_side(n + 1, 64), 1536);
        let a = spd_matrix(n, n as u64);
        let b: Vec<f64> = (0..n).map(|i| (i % 11) as f64 - 5.0).collect();
        let x = solve(&a, &b, 64);
        let x_ref = solve_reference(&a, &b);
        for i in 0..n {
            assert!((x[i] - x_ref[i]).abs() < 1e-10, "n={n} i={i}");
        }
    }

    // Two tests, not one loop, so the O(n³) unoptimised reference solves
    // run on separate test threads.
    #[test]
    fn solver_at_1500_matches_reference() {
        check_solve_on_side_1536(1500);
    }

    #[test]
    fn solver_at_1501_matches_reference() {
        check_solve_on_side_1536(1501);
    }

    #[test]
    fn determinant_on_a_fitted_side() {
        // n = 150 pads to 192 (24·8) with base 32, to 256 with base 4.
        let n = 150;
        assert_eq!(gep_matrix::fit_side(n, 32), 192);
        let mut a = spd_matrix(n, 3);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = if i == j { 1.0 } else { a[(i, j)] / n as f64 };
            }
        }
        let u = ge_reference(&a);
        let want: f64 = (0..n).map(|i| u[(i, i)]).product();
        for base in [32usize, 4] {
            let got = determinant(&a, base);
            assert!(
                (got - want).abs() < 1e-12 * want.abs(),
                "base={base}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn tau_closed_form_matches_default_scan() {
        let spec = GaussianSpec;
        let n = 16;
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

    #[test]
    fn sigma_intersects_is_exact_for_boxes() {
        let spec = GaussianSpec;
        let n = 8;
        // Compare against brute force on all aligned boxes.
        for s in [1usize, 2, 4, 8] {
            for i0 in (0..n).step_by(s) {
                for j0 in (0..n).step_by(s) {
                    for k0 in (0..n).step_by(s) {
                        let brute = (i0..i0 + s).any(|i| {
                            (j0..j0 + s).any(|j| (k0..k0 + s).any(|k| spec.in_sigma(i, j, k)))
                        });
                        assert_eq!(
                            spec.sigma_intersects(
                                (i0, i0 + s - 1),
                                (j0, j0 + s - 1),
                                (k0, k0 + s - 1)
                            ),
                            brute,
                            "box i0={i0} j0={j0} k0={k0} s={s}"
                        );
                    }
                }
            }
        }
    }
}
