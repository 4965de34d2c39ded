//! Independent textbook implementations used as test oracles.
//!
//! These are deliberately written in the most direct way possible —
//! separate from the GEP machinery — so that agreement between a GEP
//! engine and an oracle is meaningful evidence of correctness.

use crate::floyd_warshall::Weight;
use gep_core::algebra::{Gf2Block, UpdateAlgebra, TROPICAL_INF};
use gep_matrix::Matrix;

/// Classic triple-loop Floyd–Warshall on a distance matrix.
pub fn fw_reference<W: Weight>(dist: &Matrix<W>) -> Matrix<W> {
    let n = dist.n();
    let mut d = dist.clone();
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let cand = W::Alg::mul(d[(i, k)], d[(k, j)]);
                if cand < d[(i, j)] {
                    d[(i, j)] = cand;
                }
            }
        }
    }
    d
}

/// Classic O(n³) Gaussian elimination without pivoting; returns the
/// eliminated matrix (upper triangle = U; subdiagonal zeroed).
pub fn ge_reference(a: &Matrix<f64>) -> Matrix<f64> {
    let n = a.n();
    let mut m = a.clone();
    for k in 0..n {
        for i in k + 1..n {
            let factor = m[(i, k)] / m[(k, k)];
            for j in k..n {
                m[(i, j)] -= factor * m[(k, j)];
            }
        }
    }
    m
}

/// Solves `A x = b` by Gaussian elimination with partial pivoting (the
/// robust oracle for the no-pivoting solver on well-conditioned inputs).
pub fn solve_reference(a: &Matrix<f64>, b: &[f64]) -> Vec<f64> {
    let n = a.n();
    assert_eq!(b.len(), n);
    let mut m = a.clone();
    let mut rhs = b.to_vec();
    for k in 0..n {
        // Partial pivot.
        let piv = (k..n)
            .max_by(|&p, &q| m[(p, k)].abs().total_cmp(&m[(q, k)].abs()))
            .unwrap();
        if piv != k {
            for j in 0..n {
                let tmp = m[(k, j)];
                m[(k, j)] = m[(piv, j)];
                m[(piv, j)] = tmp;
            }
            rhs.swap(k, piv);
        }
        for i in k + 1..n {
            let f = m[(i, k)] / m[(k, k)];
            for j in k..n {
                m[(i, j)] -= f * m[(k, j)];
            }
            rhs[i] -= f * rhs[k];
        }
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = rhs[i];
        for j in i + 1..n {
            acc -= m[(i, j)] * x[j];
        }
        x[i] = acc / m[(i, i)];
    }
    x
}

/// Naive `O(n³)` matrix multiplication.
pub fn matmul_reference(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let n = a.n();
    assert_eq!(b.n(), n);
    let mut c = Matrix::square(n, 0.0);
    for i in 0..n {
        for k in 0..n {
            let u = a[(i, k)];
            for j in 0..n {
                c[(i, j)] += u * b[(k, j)];
            }
        }
    }
    c
}

/// Matrix-vector product.
pub fn mat_vec(a: &Matrix<f64>, x: &[f64]) -> Vec<f64> {
    let n = a.n();
    assert_eq!(x.len(), n);
    (0..n)
        .map(|i| (0..n).map(|j| a[(i, j)] * x[j]).sum())
        .collect()
}

/// Reflexive-transitive closure by BFS from every vertex.
pub fn tc_reference(adj: &Matrix<bool>) -> Matrix<bool> {
    let n = adj.n();
    let mut out = Matrix::square(n, false);
    for s in 0..n {
        let mut stack = vec![s];
        let mut seen = vec![false; n];
        seen[s] = true;
        while let Some(v) = stack.pop() {
            for w in 0..n {
                if adj[(v, w)] && !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        for (w, &r) in seen.iter().enumerate() {
            out.set(s, w, r || out[(s, w)]);
        }
    }
    out
}

/// Classic triple-loop bottleneck (max-min / widest-path) closure:
/// `cap[i][j] = max(cap[i][j], min(cap[i][k], cap[k][j]))`, with
/// `i64::MIN` as "no path" and `i64::MAX` as an unconstrained hop.
pub fn maxmin_reference(cap: &Matrix<i64>) -> Matrix<i64> {
    let n = cap.n();
    let mut c = cap.clone();
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let cand = c[(i, k)].min(c[(k, j)]);
                if cand > c[(i, j)] {
                    c[(i, j)] = cand;
                }
            }
        }
    }
    c
}

/// 64×64 bool-matrix product, one bit per `bool` — the scalar oracle for
/// the bitsliced [`Gf2Block::mul`].
fn bool_block_mul(a: &[[bool; 64]; 64], b: &[[bool; 64]; 64]) -> [[bool; 64]; 64] {
    let mut c = [[false; 64]; 64];
    for i in 0..64 {
        for k in 0..64 {
            if a[i][k] {
                for j in 0..64 {
                    c[i][j] ^= b[k][j];
                }
            }
        }
    }
    c
}

/// 64×64 bool-matrix inverse over GF(2) by textbook Gauss–Jordan with
/// row swaps; `None` if singular. Independent of `Gf2Block`'s word-level
/// tricks.
fn bool_block_inv(a: &[[bool; 64]; 64]) -> Option<[[bool; 64]; 64]> {
    let mut m = *a;
    let mut inv = [[false; 64]; 64];
    for (i, row) in inv.iter_mut().enumerate() {
        row[i] = true;
    }
    for col in 0..64 {
        let pivot = (col..64).find(|&r| m[r][col])?;
        m.swap(col, pivot);
        inv.swap(col, pivot);
        let (mrow, irow) = (m[col], inv[col]);
        for r in 0..64 {
            if r != col && m[r][col] {
                for j in 0..64 {
                    m[r][j] ^= mrow[j];
                    inv[r][j] ^= irow[j];
                }
            }
        }
    }
    Some(inv)
}

/// Block-level GF(2) elimination oracle: the same Schur-complement
/// recurrence as `ElimSpec<Gf2x64>` (`Σ = {i > k ∧ j > k}`,
/// `X ← X ⊕ U·W⁻¹·V`), but executed entirely in scalar `bool` arithmetic
/// — no bitslicing anywhere — so agreement with the bitsliced engines is
/// meaningful evidence that the word-parallel block operations are
/// correct.
///
/// # Panics
/// Panics if a pivot block is singular (the no-pivoting precondition:
/// leading principal *block* minors must be nonsingular).
#[allow(clippy::needless_range_loop)] // textbook index form, on purpose
pub fn gf2_block_elim_reference(c: &Matrix<Gf2Block>) -> Matrix<Gf2Block> {
    let n = c.n();
    // Unpack to scalar bools once; all arithmetic below is bool-only.
    let unpack = |b: &Gf2Block| {
        let mut out = [[false; 64]; 64];
        for (r, row) in out.iter_mut().enumerate() {
            for (col, cell) in row.iter_mut().enumerate() {
                *cell = b.get(r, col);
            }
        }
        out
    };
    let mut blocks: Vec<Vec<[[bool; 64]; 64]>> = (0..n)
        .map(|i| (0..n).map(|j| unpack(&c[(i, j)])).collect())
        .collect();
    for k in 0..n {
        let winv = bool_block_inv(&blocks[k][k])
            .expect("GF(2) reference elimination hit a singular pivot block");
        for i in k + 1..n {
            let factor = bool_block_mul(&blocks[i][k], &winv);
            for j in k + 1..n {
                let prod = bool_block_mul(&factor, &blocks[k][j]);
                for (xrow, prow) in blocks[i][j].iter_mut().zip(prod.iter()) {
                    for (x, p) in xrow.iter_mut().zip(prow.iter()) {
                        *x ^= p;
                    }
                }
            }
        }
    }
    Matrix::from_fn(n, n, |i, j| {
        let mut b = Gf2Block::ZERO;
        for r in 0..64 {
            for col in 0..64 {
                b.set(r, col, blocks[i][j][r][col]);
            }
        }
        b
    })
}

/// Naive GF(p) elimination oracle: `Σ = {i > k ∧ j > k}`,
/// `x ← x − (u·w⁻¹)·v mod p`, all arithmetic in `u128` with `%` and the
/// inverse by square-and-multiply Fermat — independent of the Barrett
/// machinery in `gep_core::algebra::GfP`.
///
/// # Panics
/// Panics on a zero pivot.
pub fn gfp_elim_reference(a: &Matrix<u64>, p: u64) -> Matrix<u64> {
    let n = a.n();
    let p128 = p as u128;
    let pow_mod = |mut b: u128, mut e: u64| {
        let mut acc = 1u128;
        b %= p128;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * b % p128;
            }
            b = b * b % p128;
            e >>= 1;
        }
        acc
    };
    let mut m = a.clone();
    for k in 0..n {
        let w = m[(k, k)] as u128;
        assert!(
            w % p128 != 0,
            "GF(p) reference elimination hit a zero pivot"
        );
        let winv = pow_mod(w, p - 2);
        for i in k + 1..n {
            let factor = m[(i, k)] as u128 * winv % p128;
            for j in k + 1..n {
                let prod = factor * (m[(k, j)] as u128) % p128;
                m[(i, j)] = ((m[(i, j)] as u128 + p128 - prod) % p128) as u64;
            }
        }
    }
    m
}

/// Single-source Dijkstra (nonnegative weights) — an independent APSP
/// oracle when run from every source.
pub fn dijkstra_reference(dist: &Matrix<i64>, src: usize) -> Vec<i64> {
    let n = dist.n();
    let inf = TROPICAL_INF;
    let mut d = vec![inf; n];
    let mut done = vec![false; n];
    d[src] = 0;
    for _ in 0..n {
        let Some(u) = (0..n)
            .filter(|&v| !done[v] && d[v] < inf)
            .min_by_key(|&v| d[v])
        else {
            break;
        };
        done[u] = true;
        for v in 0..n {
            let w = dist[(u, v)];
            if w < inf && d[u] + w < d[v] {
                d[v] = d[u] + w;
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fw_and_dijkstra_agree_on_nonnegative_graphs() {
        let n = 16;
        let mut s = 555u64;
        let dist = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0
            } else {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s % 3 == 0 {
                    TROPICAL_INF
                } else {
                    (s % 20) as i64 + 1
                }
            }
        });
        let fw = fw_reference(&dist);
        for src in 0..n {
            let dj = dijkstra_reference(&dist, src);
            for v in 0..n {
                assert_eq!(fw[(src, v)], dj[v], "src={src} v={v}");
            }
        }
    }

    #[test]
    fn ge_reference_zeroes_subdiagonal() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]]);
        let r = ge_reference(&a);
        assert!((r[(1, 0)]).abs() < 1e-12);
        assert!((r[(1, 1)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_reference_known_system() {
        // x + y = 3; x - y = 1 -> x = 2, y = 1.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, -1.0]]);
        let x = solve_reference(&a, &[3.0, 1.0]);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_reference_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = matmul_reference(&a, &b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn tc_reference_is_reflexive() {
        let adj = Matrix::square(5, false);
        let tc = tc_reference(&adj);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(tc[(i, j)], i == j);
            }
        }
    }
}
