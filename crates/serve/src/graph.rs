//! Seeded workload graphs and mutation streams.
//!
//! Deterministic generators shared by the server binary, the load
//! generator, the `repro serve` experiment, and the integration tests —
//! so every layer can independently reconstruct the exact graph a given
//! `(n, seed)` names. The xorshift recurrence matches
//! `gep-bench::workloads` so seeds mean the same thing across the
//! workspace.

use std::fmt::Display;

use gep_matrix::Matrix;

use crate::protocol::{EdgeMut, TROPICAL_INF};

/// xorshift64 — the workspace's standard deterministic stream.
#[derive(Clone, Debug)]
pub struct XorShift(pub u64);

impl XorShift {
    /// Seeds (zero-proofed: seed 0 maps to 1).
    pub fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    /// Next raw value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform value in `[0, bound)`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Random directed distance matrix: zero diagonal, one third of the
/// off-diagonal entries absent ([`TROPICAL_INF`]), the rest weighted
/// `1..=100`. Identical to `gep-bench`'s `random_dist_matrix` so
/// `repro` experiments and the server agree on what graph a seed names.
pub fn random_graph(n: usize, seed: u64) -> Matrix<i64> {
    let mut rng = XorShift::new(seed);
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

/// A deterministic stream of `count` edge mutations on an `n`-vertex
/// graph: mostly re-weights (`1..=100`), one in eight a deletion
/// (weight pinned to [`TROPICAL_INF`]). Diagonal picks are nudged off
/// the diagonal so every mutation is effectual.
pub fn random_mutations(n: usize, count: usize, seed: u64) -> Vec<EdgeMut> {
    assert!(n >= 2, "mutations need at least two vertices");
    let mut rng = XorShift::new(seed);
    (0..count)
        .map(|_| {
            let u = rng.below(n as u64) as u32;
            let mut v = rng.below(n as u64) as u32;
            if v == u {
                v = (v + 1) % n as u32;
            }
            let w = if rng.next_u64() % 8 == 0 {
                TROPICAL_INF
            } else {
                (rng.next_u64() % 100) as i64 + 1
            };
            (u, v, w)
        })
        .collect()
}

/// Applies a mutation batch to a base distance matrix, in order, with
/// the server's semantics: `w ≥ TROPICAL_INF` clamps to exactly
/// `TROPICAL_INF` (edge delete) and diagonal updates are ignored. Used
/// by the solver thread and, independently, by oracles re-deriving what
/// the server should now believe.
pub fn apply_mutations(base: &mut Matrix<i64>, edges: &[EdgeMut]) {
    let n = base.n();
    for &(u, v, w) in edges {
        let (u, v) = (u as usize, v as usize);
        assert!(u < n && v < n, "mutation endpoint out of range");
        if u == v {
            continue;
        }
        base.set(u, v, w.min(TROPICAL_INF));
    }
}

/// Checks that every off-diagonal weight of a base matrix is
/// non-negative (the diagonal is ignored: the solve pins it to 0).
/// Path reconstruction and the Dijkstra oracles assume no negative
/// cycles, so the server refuses negative weights outright.
pub fn check_weights(base: &Matrix<i64>) -> Result<(), String> {
    base.iter_indexed()
        .filter(|&(i, j, _)| i != j)
        .try_for_each(|(i, j, &w)| check_weight(i, j, w))
}

/// One edge's share of [`check_weights`], also applied to every
/// `mutate` triple.
pub(crate) fn check_weight(u: impl Display, v: impl Display, w: i64) -> Result<(), String> {
    if w < 0 {
        return Err(format!(
            "edge ({u}, {v}) has negative weight {w}; weights must be non-negative"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(
            random_graph(16, 42).as_slice(),
            random_graph(16, 42).as_slice()
        );
        // Note `seed | 1`: 42 and 43 would collide, 42 vs 44 do not.
        assert_ne!(
            random_graph(16, 42).as_slice(),
            random_graph(16, 44).as_slice()
        );
        assert_eq!(random_mutations(16, 20, 7), random_mutations(16, 20, 7));
        assert_ne!(random_mutations(16, 20, 7), random_mutations(16, 20, 9));
    }

    #[test]
    fn mutations_never_touch_the_diagonal() {
        for &(u, v, _) in &random_mutations(8, 500, 3) {
            assert_ne!(u, v);
        }
    }

    #[test]
    fn apply_mutations_clamps_deletes_and_skips_diagonal() {
        let mut base = random_graph(8, 1);
        apply_mutations(
            &mut base,
            &[(0, 1, 55), (2, 3, i64::MAX), (4, 4, 99), (0, 1, 7)],
        );
        assert_eq!(base.get(0, 1), 7, "later mutation wins in order");
        assert_eq!(base.get(2, 3), TROPICAL_INF, "delete clamps to INF");
        assert_eq!(base.get(4, 4), 0, "diagonal untouched");
    }

    #[test]
    fn check_weights_rejects_negative_edges_only() {
        let mut base = random_graph(6, 5);
        assert_eq!(check_weights(&base), Ok(()));
        base.set(2, 2, -1);
        assert_eq!(check_weights(&base), Ok(()), "the diagonal is ignored");
        base.set(3, 1, -4);
        let err = check_weights(&base).unwrap_err();
        assert!(err.contains("(3, 1)") && err.contains("-4"), "{err}");
    }
}
