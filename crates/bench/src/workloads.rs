//! Deterministic workload generators shared by the harness and benches.

use gep_core::TROPICAL_INF;
use gep_matrix::Matrix;

/// xorshift64 — deterministic, seedable, dependency-free.
#[derive(Clone, Copy, Debug)]
pub struct XorShift(pub u64);

impl XorShift {
    /// Next raw value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Random directed graph as an `i64` distance matrix: edge probability
/// `2/3`, weights in `[1, 100]`, zero diagonal.
pub fn random_dist_matrix(n: usize, seed: u64) -> Matrix<i64> {
    let mut rng = XorShift(seed | 1);
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0
        } else if rng.next_u64() % 3 == 0 {
            TROPICAL_INF
        } else {
            (rng.next_u64() % 100) as i64 + 1
        }
    })
}

/// Random diagonally dominant matrix (safe for elimination without
/// pivoting).
pub fn dd_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = XorShift(seed | 1);
    let mut m = Matrix::from_fn(n, n, |_, _| rng.unit_f64() - 0.5);
    for i in 0..n {
        m[(i, i)] = n as f64 + 1.0;
    }
    m
}

/// Random dense matrix with entries in `[-1, 1)`.
pub fn rnd_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = XorShift(seed | 1);
    Matrix::from_fn(n, n, |_, _| 2.0 * rng.unit_f64() - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_dist_matrix(8, 1), random_dist_matrix(8, 1));
        assert_eq!(dd_matrix(8, 2), dd_matrix(8, 2));
        assert_ne!(rnd_matrix(8, 3), rnd_matrix(8, 4));
    }

    #[test]
    fn dist_matrix_structure() {
        let m = random_dist_matrix(16, 7);
        for i in 0..16 {
            assert_eq!(m[(i, i)], 0);
            for j in 0..16 {
                assert!(m[(i, j)] >= 0);
            }
        }
    }

    #[test]
    fn dd_matrix_is_dominant() {
        let m = dd_matrix(16, 9);
        for i in 0..16 {
            let off: f64 = (0..16).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            assert!(m[(i, i)] > off);
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = XorShift(42);
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
