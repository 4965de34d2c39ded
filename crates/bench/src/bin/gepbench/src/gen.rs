//! Seeded input generators owned by the benchmark.
//!
//! Every input — graphs, matrices, right-hand sides, the query stream and
//! the mutation stream — is a pure function of `--seed` and comes from
//! here, never from the generators of the crates under test, so a change
//! to those crates cannot change what the benchmark feeds them. Each
//! generator draws from its own stream, so adding a draw to one leaves the
//! others' values unchanged.

use gep_core::TROPICAL_INF;
use gep_matrix::Matrix;

/// Weight of a missing edge.
pub const NO_EDGE: i64 = TROPICAL_INF;

const STREAM_DENSE: u64 = 1;
const STREAM_MATRIX: u64 = 2;
const STREAM_RHS: u64 = 3;
const STREAM_SPARSE: u64 = 4;
const STREAM_QUERIES: u64 = 5;
const STREAM_MUTATIONS: u64 = 6;
const STREAM_SOURCES: u64 = 7;

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Random digraph as a distance matrix: each ordered pair `i != j` is an
/// edge with probability 1/4, weight uniform in `1..=1000`.
pub fn dense_digraph(n: usize, seed: u64) -> Matrix<i64> {
    let mut rng = Rng::new(seed, STREAM_DENSE);
    Matrix::from_fn(n, n, |i, j| {
        let draw = rng.next_u64();
        if i == j {
            0
        } else if draw.is_multiple_of(4) {
            1 + ((draw >> 2) % 1000) as i64
        } else {
            NO_EDGE
        }
    })
}

/// Strictly diagonally dominant matrix: off-diagonal entries uniform in
/// `[-0.5, 0.5)`, diagonal `n`, so elimination without pivoting is stable.
pub fn dd_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = Rng::new(seed, STREAM_MATRIX);
    Matrix::from_fn(n, n, |i, j| {
        let off = rng.unit() - 0.5;
        if i == j {
            n as f64
        } else {
            off
        }
    })
}

/// Right-hand side, entries uniform in `[-1, 1)`.
pub fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed, STREAM_RHS);
    (0..n).map(|_| 2.0 * rng.unit() - 1.0).collect()
}

/// Sparse digraph: every vertex has `degree` distinct out-neighbours,
/// weights uniform in `1..=100`, so shortest paths take several hops.
pub fn sparse_digraph(n: usize, degree: usize, seed: u64) -> Matrix<i64> {
    assert!(
        degree < n,
        "out-degree {degree} needs more than {n} vertices"
    );
    let mut rng = Rng::new(seed, STREAM_SPARSE);
    let mut g = Matrix::from_fn(n, n, |i, j| if i == j { 0 } else { NO_EDGE });
    for u in 0..n {
        let mut added = 0;
        while added < degree {
            let v = rng.below(n as u64) as usize;
            if v != u && g[(u, v)] == NO_EDGE {
                g[(u, v)] = 1 + rng.below(100) as i64;
                added += 1;
            }
        }
    }
    g
}

/// A read request kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Dist,
    Path,
    Reach,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Dist => "dist",
            Op::Path => "path",
            Op::Reach => "reach",
        }
    }
}

/// The read stream: 90% `dist`, 5% `path`, 5% `reach`, endpoints uniform.
pub struct Queries {
    rng: Rng,
    n: u64,
}

impl Queries {
    pub fn new(n: usize, seed: u64) -> Queries {
        Queries {
            rng: Rng::new(seed, STREAM_QUERIES),
            n: n as u64,
        }
    }

    pub fn next_query(&mut self) -> (Op, u32, u32) {
        let roll = self.rng.below(20);
        let op = match roll {
            0 => Op::Path,
            1 => Op::Reach,
            _ => Op::Dist,
        };
        let u = self.rng.below(self.n) as u32;
        let v = self.rng.below(self.n) as u32;
        (op, u, v)
    }
}

/// One single-edge update `(u, v, w)`; `w == NO_EDGE` deletes the edge.
pub type Mutation = (u32, u32, i64);

/// `count` single-edge mutations of existing edges of `graph`: three
/// quarters lower a weight, one eighth raise one, one eighth delete one.
/// Each is drawn against the graph as the earlier ones left it.
pub fn mutations(graph: &Matrix<i64>, count: usize, seed: u64) -> Vec<Mutation> {
    let mut rng = Rng::new(seed, STREAM_MUTATIONS);
    let mut g = graph.clone();
    let n = g.n() as u64;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (u, v) = (rng.below(n) as usize, rng.below(n) as usize);
        let w = g[(u, v)];
        if u == v || w == NO_EDGE {
            continue;
        }
        let new = match rng.below(8) {
            0 => w + 1 + rng.below(100) as i64,
            1 => NO_EDGE,
            _ if w > 1 => 1 + rng.below(w as u64 - 1) as i64,
            _ => continue,
        };
        g[(u, v)] = new;
        out.push((u as u32, v as u32, new));
    }
    out
}

/// `count` distinct source vertices for the final shortest-path oracle.
pub fn sources(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, STREAM_SOURCES);
    let mut out: Vec<usize> = Vec::with_capacity(count.min(n));
    while out.len() < count.min(n) {
        let s = rng.below(n as u64) as usize;
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first values for seed 1 are pinned: a change here changes
    /// every workload's inputs, and so every number the benchmark reports.
    #[test]
    fn seed_one_values_are_pinned() {
        let mut rng = Rng::new(1, 0);
        assert_eq!(
            [rng.next_u64(), rng.next_u64(), rng.next_u64()],
            [
                13757245211066428519,
                17911839290282890590,
                8196980753821780235
            ]
        );
        assert_eq!(dense_digraph(4, 1).row(0), &[0, NO_EDGE, 598, NO_EDGE]);
        let a = dd_matrix(3, 1);
        assert_eq!((a[(0, 0)], a[(0, 1)]), (3.0, 0.16478798243469372));
        assert_eq!(rhs(2, 1), vec![-0.4432068805971143, -0.8841577194755008]);
        let s = sparse_digraph(6, 2, 1);
        assert_eq!(s.row(0), &[0, 19, NO_EDGE, 7, NO_EDGE, NO_EDGE]);
        let mut q = Queries::new(500, 1);
        let first: Vec<_> = (0..3).map(|_| q.next_query()).collect();
        assert_eq!(
            first,
            vec![
                (Op::Dist, 402, 342),
                (Op::Dist, 480, 15),
                (Op::Dist, 52, 106)
            ]
        );
        assert_eq!(
            mutations(&sparse_digraph(16, 8, 1), 3, 1),
            vec![(2, 9, 32), (13, 14, NO_EDGE), (2, 8, 1)]
        );
        assert_eq!(sources(500, 3, 1), vec![460, 311, 339]);
    }

    #[test]
    fn generators_are_deterministic_and_well_formed() {
        assert!(dense_digraph(32, 7) == dense_digraph(32, 7));
        assert!(dense_digraph(32, 7) != dense_digraph(32, 8));
        let a = dd_matrix(40, 3);
        for i in 0..40 {
            let off: f64 = (0..40).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
            assert!(off < a[(i, i)], "row {i} not dominant");
        }
        let g = sparse_digraph(50, 8, 2);
        for u in 0..50 {
            let deg = (0..50).filter(|&v| v != u && g[(u, v)] != NO_EDGE).count();
            assert_eq!(deg, 8);
        }
        let muts = mutations(&g, 200, 2);
        assert_eq!(muts.len(), 200);
        let mut q = Queries::new(50, 4);
        let paths = (0..20_000).filter(|_| q.next_query().0 == Op::Path).count();
        assert!((800..1200).contains(&paths), "path share off: {paths}");
    }
}
