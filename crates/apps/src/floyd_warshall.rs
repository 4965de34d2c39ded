//! Floyd–Warshall all-pairs shortest paths as a GEP instance.
//!
//! `Σ` is the full set `[0,n)³` and `f(x, u, v, ·) = min(x, u ⊗ v)` —
//! the classic relaxation `d[i][j] = min(d[i][j], d[i][k] + d[k][j])`,
//! i.e. the closure update of the tropical semiring. I-GEP is exact for
//! this spec (it is one of the paper's motivating applications).
//!
//! The distance-only spec is simply the generic algebraic closure
//! [`SemiringSpec`] instantiated at the tropical algebra of the weight
//! type ([`MinPlusI64`] / [`MinPlusF64`]); [`FwSpec`] survives as a type
//! alias so call sites read as before. Paths are not solved for: after a
//! distance-only solve, [`tight_path`] rebuilds one shortest path by
//! walking tight edges backward from the destination over the graph's
//! [`InEdges`], reading a single row of the matrix. A new or cheaper edge
//! is folded into a solved matrix by [`relax_edge`], one `O(n²)` rank-1
//! min-plus update, exact and equal to a re-solve. [`FwPredSpec`], which
//! carries a predecessor beside each distance, remains as a benchmark
//! reference.
//!
//! Historical note: `i64` weight addition used to be plain `+`, which
//! both wrapped on large finite weights and let `INFINITY + negative`
//! undercut the sentinel (a missing edge could "win" a relaxation). The
//! algebra's `⊗` ([`MinPlusI64::mul`]) saturates and absorbs at
//! [`TROPICAL_INF`]; every caller here adds weights through it, so every
//! caller inherits the fix.

use crate::closure::SemiringSpec;
use gep_core::algebra::{MinPlusF64, MinPlusI64, UpdateAlgebra, TROPICAL_INF};
use gep_kernels::AlgebraKernels;
use gep_matrix::Matrix;

/// Names the tropical algebra of a shortest-path weight type, so that
/// [`FwSpec<W>`] and [`apsp`] can be spelled by element type. The
/// sentinels and `⊗` live on the algebra: "no edge" is
/// `<W::Alg as UpdateAlgebra>::ZERO` ([`TROPICAL_INF`] for `i64`), the
/// empty path is `ONE`, and path concatenation is [`UpdateAlgebra::mul`].
pub trait Weight: Copy + PartialOrd {
    /// The tropical algebra this weight type instantiates.
    type Alg: AlgebraKernels<Elem = Self>;
}

impl Weight for i64 {
    type Alg = MinPlusI64;
}

impl Weight for f64 {
    type Alg = MinPlusF64;
}

/// Distance-only Floyd–Warshall spec: the algebraic closure over the
/// weight type's tropical algebra.
pub type FwSpec<W = i64> = SemiringSpec<<W as Weight>::Alg>;

/// Distance + *predecessor* spec: the pre-kernel representation of a
/// path-carrying solve, kept because the `gepbench` serving workloads
/// time it as the reference engine run beside the server's solve.
///
/// Element `(d, p)`: `d` is the current shortest distance from `i` to
/// `j`, `p` the vertex immediately *before* `j` on that path
/// (`u32::MAX` = none/self). When the relaxation through `k` strictly
/// improves `d[i][j]`, the predecessor of `(i, j)` becomes the
/// predecessor of `(k, j)` — the last hop of the `k → j` suffix.
///
/// Its `(i64, u32)` element has no specialized base-case kernel, so every
/// leaf runs the generic path. Paths are better rebuilt from a
/// distance-only [`FwSpec`] solve with [`tight_path`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FwPredSpec;

impl gep_core::GepSpec for FwPredSpec {
    type Elem = (i64, u32);

    #[inline(always)]
    fn update(
        &self,
        _i: usize,
        _j: usize,
        _k: usize,
        x: (i64, u32),
        u: (i64, u32),
        v: (i64, u32),
        _w: (i64, u32),
    ) -> (i64, u32) {
        let cand = MinPlusI64::mul(u.0, v.0);
        if cand < x.0 {
            (cand, v.1)
        } else {
            x
        }
    }

    #[inline(always)]
    fn in_sigma(&self, _i: usize, _j: usize, _k: usize) -> bool {
        true
    }

    #[inline(always)]
    fn tau(&self, n: usize, _i: usize, _j: usize, l: i64) -> Option<usize> {
        (l >= 0 && n > 0).then(|| (l as usize).min(n - 1))
    }
}

/// Builds the initial distance matrix from an edge list
/// (`n` vertices, directed edges `(from, to, weight)`).
///
/// `d[i][i] = 0` (the algebra's `ONE`), absent edges are its `ZERO`
/// (∞); parallel edges keep the minimum weight.
pub fn distance_matrix<W: Weight>(n: usize, edges: &[(usize, usize, W)]) -> Matrix<W> {
    let mut m = Matrix::from_fn(n, n, |i, j| if i == j { W::Alg::ONE } else { W::Alg::ZERO });
    for &(a, b, w) in edges {
        if w < m[(a, b)] {
            m[(a, b)] = w;
        }
    }
    m
}

/// In-edge lists of a weighted digraph in CSR form: for every vertex
/// `v`, the `(k, w)` pairs of its edges `k → v`. Self loops are left
/// out; they never lie on a simple path.
#[derive(Clone, Debug)]
pub struct InEdges {
    /// `edges[offsets[v]..offsets[v + 1]]` are the in-edges of `v`.
    offsets: Vec<usize>,
    edges: Vec<(u32, i64)>,
}

impl InEdges {
    /// The in-edges of a distance matrix: every finite off-diagonal
    /// entry `w[(k, v)]` is one edge `k → v`.
    pub fn from_matrix(w: &Matrix<i64>) -> InEdges {
        let n = w.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for v in 0..n {
            for k in 0..n {
                let wt = w[(k, v)];
                if k != v && wt < TROPICAL_INF {
                    edges.push((k as u32, wt));
                }
            }
            offsets.push(edges.len());
        }
        InEdges { offsets, edges }
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The `(k, w)` in-edges of `v`.
    pub fn of(&self, v: usize) -> &[(u32, i64)] {
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// One shortest `src → dst` path (inclusive vertex sequence) rebuilt from
/// a distance-only solve, or `None` if `dst` is unreachable.
///
/// `row` is row `src` of the solved distance matrix (it may be longer
/// than the graph, as a padded solve's is); `in_edges` are the graph the
/// solve was run on. The walk goes backward from `dst`: from `cur` it
/// takes an in-edge `k → cur` that is *tight*, `row[k] ⊗ w == row[cur]`,
/// and whose tail it has not visited yet, backtracking out of dead ends
/// (a depth-first search, so each vertex is entered at most once).
/// Telescoping the tight edges, the path weighs exactly `row[dst]`.
///
/// Weights must be non-negative (no negative cycles), so that
/// `row[src] == 0` and the last edge of every shortest path is tight. A
/// zero-weight cycle can hold tight edges that lead away from `src`; the
/// visited set stops the walk from circling there, and backtracking
/// finds the way out.
pub fn tight_path(row: &[i64], in_edges: &InEdges, src: usize, dst: usize) -> Option<Vec<usize>> {
    if src == dst {
        return Some(vec![src]);
    }
    if row[dst] >= TROPICAL_INF {
        return None;
    }
    let mut seen = vec![false; in_edges.n()];
    seen[dst] = true;
    // The walk so far, each vertex with the index of its next in-edge
    // to try.
    let mut walk = vec![(dst, 0usize)];
    while let Some(&(cur, from)) = walk.last() {
        let edges = &in_edges.of(cur)[from..];
        let next = edges.iter().position(|&(k, w)| {
            !seen[k as usize] && MinPlusI64::mul(row[k as usize], w) == row[cur]
        });
        let Some(at) = next else {
            walk.pop();
            continue;
        };
        walk.last_mut().expect("walk is non-empty").1 = from + at + 1;
        let k = edges[at].0 as usize;
        if k == src {
            let mut path: Vec<usize> = walk.iter().map(|&(v, _)| v).collect();
            path.push(src);
            path.reverse();
            return Some(path);
        }
        seen[k] = true;
        walk.push((k, 0));
    }
    None
}

/// Folds a new or cheaper edge `a → b` of weight `w` into a solved
/// distance matrix: the GEP update run for the single pivot edge,
/// `d[i][j] ← min(d[i][j], d[i][a] ⊗ w ⊗ d[b][j])`, over the logical
/// `n × n` block, saturating at [`TROPICAL_INF`]. `O(n²)`.
///
/// With non-negative weights this is exact: a shortest path of the new
/// graph uses the new edge at most once, so it is either an old shortest
/// path or `i ⇝ a → b ⇝ j` over old ones. The result equals a fresh
/// solve of the new graph bit for bit; a padded solve's padding rows and
/// columns (unreachable, `d[i][a] = d[b][j] = ∞`) are left untouched, as
/// a fresh solve leaves them. Row `b` and column `a` cannot improve
/// (`d[b][a] ⊗ w ≥ 0`), so relaxing in place reads no updated value.
///
/// # Panics
/// Returns whether it relaxed: when `w ≥ d[a][b]` the edge shortens no
/// path, and the matrix is left as is without a pass over it.
///
/// # Panics
/// Panics if `a` or `b` is out of the `n × n` block of `d`.
pub fn relax_edge(d: &mut Matrix<i64>, n: usize, a: usize, b: usize, w: i64) -> bool {
    assert!(a < n && b < n, "edge ({a}, {b}) out of the {n} x {n} block");
    if w >= d[(a, b)] {
        return false;
    }
    let via = d.row(b)[..n].to_vec();
    for i in 0..n {
        let t = MinPlusI64::mul(d[(i, a)], w);
        if t >= TROPICAL_INF {
            continue;
        }
        // `t < ∞` and every entry is at most `∞`, so `t + y` cannot
        // overflow, and when it reaches `∞` the min keeps `x ≤ ∞`: the
        // saturating `⊗` without a branch in the loop.
        for (x, &y) in d.row_mut(i)[..n].iter_mut().zip(&via) {
            *x = (*x).min(t + y);
        }
    }
    true
}

/// Convenience: solve APSP with the optimised sequential I-GEP engine.
///
/// # Panics
/// Panics unless `dist` is square with a side that halves exactly down
/// to leaves of side `<= base_size` (pad with [`TROPICAL_INF`] via
/// [`Matrix::padded`] first if needed).
pub fn apsp<W: Weight>(dist: &mut Matrix<W>, base_size: usize) {
    gep_core::igep_opt(&FwSpec::<W>::new(), dist, base_size);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::fw_reference;
    use gep_core::{cgep_full, gep_iterative, igep, igep_opt};

    fn random_graph(n: usize, seed: u64) -> Matrix<i64> {
        let mut s = seed;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0
            } else if rng() % 3 == 0 {
                TROPICAL_INF
            } else {
                (rng() % 50) as i64 + 1
            }
        })
    }

    #[test]
    fn all_engines_agree_with_reference() {
        for n in [2usize, 4, 8, 16, 32] {
            let init = random_graph(n, 0xF00D + n as u64);
            let oracle = fw_reference(&init);
            let mut g = init.clone();
            gep_iterative(&FwSpec::<i64>::new(), &mut g);
            assert_eq!(g, oracle, "G n={n}");
            let mut f = init.clone();
            igep(&FwSpec::<i64>::new(), &mut f, 1);
            assert_eq!(f, oracle, "igep n={n}");
            let mut opt = init.clone();
            igep_opt(&FwSpec::<i64>::new(), &mut opt, 4);
            assert_eq!(opt, oracle, "abcd n={n}");
            let mut h = init.clone();
            cgep_full(&FwSpec::<i64>::new(), &mut h, 2);
            assert_eq!(h, oracle, "cgep n={n}");
        }
    }

    #[test]
    fn kernel_override_matches_generic_on_all_base_sizes() {
        let n = 32;
        let init = random_graph(n, 77);
        let oracle = fw_reference(&init);
        for base in [1usize, 2, 4, 8, 16, 32] {
            let mut c = init.clone();
            apsp(&mut c, base);
            assert_eq!(c, oracle, "base={base}");
        }
    }

    /// Regression for the historical `wadd` overflow bug: with plain `+`,
    /// `INFINITY + (−w)` is *less than* `INFINITY`, so relaxing through a
    /// missing edge fabricated reachability; and two near-sentinel finite
    /// weights wrapped `i64`. Neither may happen now.
    #[test]
    fn missing_edges_and_near_sentinel_weights_do_not_undercut_infinity() {
        let inf = TROPICAL_INF;
        // Vertex 1 has *no* outgoing edges; 2 → 1 is a negative edge.
        // Old bug: d[0][1] = d[0][2] + d[2][1] with d[0][2] = INF gave
        // INF − 5 < INF. Correct: 0 cannot reach 1.
        let init = Matrix::from_rows(&[
            vec![0, inf, inf, 3],
            vec![inf, 0, inf, inf],
            vec![-5, -5, 0, inf],
            vec![inf, inf, inf, 0],
        ]);
        for base in [1usize, 2, 4] {
            let mut d = init.clone();
            apsp(&mut d, base);
            assert_eq!(d[(0, 1)], inf, "missing edge undercut, base={base}");
            assert_eq!(d[(3, 2)], inf);
            assert_eq!(d[(0, 3)], 3);
            assert_eq!(d[(2, 3)], -2, "finite relaxation must still work");
        }

        // Near-sentinel finite weights: the concatenation saturates to
        // INFINITY instead of wrapping negative and "winning".
        let big = inf - 1;
        let init = Matrix::from_rows(&[
            vec![0, big, inf, inf],
            vec![inf, 0, big, inf],
            vec![inf, inf, 0, inf],
            vec![inf, inf, inf, 0],
        ]);
        let mut d = init.clone();
        apsp(&mut d, 2);
        assert_eq!(d[(0, 1)], big);
        assert_eq!(d[(0, 2)], inf, "big + big must saturate, not wrap");
        assert_eq!(d, fw_reference(&init));
    }

    /// The tropical `⊗` every weight addition here goes through.
    #[test]
    fn wadd_is_absorbing_and_saturating() {
        let inf = TROPICAL_INF;
        assert_eq!(MinPlusI64::mul(inf, -100), inf);
        assert_eq!(MinPlusI64::mul(-100, inf), inf);
        assert_eq!(MinPlusI64::mul(inf - 1, inf - 1), inf);
        assert_eq!(MinPlusI64::mul(5, 7), 12);
        assert_eq!(MinPlusF64::mul(f64::INFINITY, -100.0), f64::INFINITY);
    }

    #[test]
    fn f64_weights() {
        let n = 16;
        let mut s = 5u64;
        let init = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                if s % 4 == 0 {
                    f64::INFINITY
                } else {
                    ((s >> 33) % 100) as f64 / 10.0
                }
            }
        });
        let mut a = init.clone();
        let mut b = init.clone();
        gep_iterative(&FwSpec::<f64>::new(), &mut a);
        apsp(&mut b, 4);
        // G and I-GEP may associate path sums differently, so distances
        // can differ by rounding; both are valid FW outputs.
        assert!(a.approx_eq(&b, 1e-9));
    }

    /// Solves `d` distance-only and returns it with the graph's in-edges.
    fn solve_with_in_edges(d: &Matrix<i64>, base: usize) -> (Matrix<i64>, InEdges) {
        let mut solved = d.clone();
        apsp(&mut solved, base);
        (solved, InEdges::from_matrix(d))
    }

    /// Checks that `path` runs `src → dst` over real edges of `graph` and
    /// weighs `want`; returns its hop count.
    fn check_walk(graph: &Matrix<i64>, path: &[usize], src: usize, dst: usize, want: i64) -> usize {
        assert_eq!((path[0], *path.last().unwrap()), (src, dst));
        let mut total = 0i64;
        for hop in path.windows(2) {
            let w = graph[(hop[0], hop[1])];
            assert!(
                hop[0] != hop[1] && w < TROPICAL_INF,
                "path {path:?} uses a missing edge {}->{}",
                hop[0],
                hop[1]
            );
            total += w;
        }
        assert_eq!(total, want, "path {path:?} weight {src}->{dst}");
        path.len() - 1
    }

    #[test]
    fn paths_are_valid_and_optimal() {
        let edges = vec![
            (0usize, 1, 7i64),
            (0, 2, 2),
            (2, 1, 3),
            (1, 3, 1),
            (2, 3, 8),
            (3, 0, 4),
        ];
        let (m, inn) = solve_with_in_edges(&distance_matrix(4, &edges), 1);
        // 0 -> 1 via 2: cost 5.
        assert_eq!(m[(0, 1)], 5);
        assert_eq!(tight_path(m.row(0), &inn, 0, 1), Some(vec![0, 2, 1]));
        // 0 -> 3 via 2,1: 2 + 3 + 1 = 6.
        assert_eq!(m[(0, 3)], 6);
        assert_eq!(tight_path(m.row(0), &inn, 0, 3), Some(vec![0, 2, 1, 3]));
        // Self path.
        assert_eq!(tight_path(m.row(2), &inn, 2, 2), Some(vec![2]));
    }

    /// The predecessor-carrying spec computes the same distances as the
    /// distance-only spec, and every tight-edge path rebuilt from those
    /// distances walks real edges with total weight equal to the distance.
    #[test]
    fn path_spec_distances_match_distance_spec() {
        let n = 16;
        let init_d = random_graph(n, 99);
        let mut p = pred_init(&init_d);
        igep_opt(&FwPredSpec, &mut p, 4);
        let (d, inn) = solve_with_in_edges(&init_d, 4);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(p[(i, j)].0, d[(i, j)], "({i},{j})");
                if let Some(path) = tight_path(d.row(i), &inn, i, j) {
                    check_walk(&init_d, &path, i, j, d[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn unreachable_is_none() {
        // Two isolated vertices.
        let (m, inn) = solve_with_in_edges(&distance_matrix(2, &[]), 1);
        assert_eq!(tight_path(m.row(0), &inn, 0, 1), None);
    }

    /// A zero-weight cycle next to the real predecessor: from 3 the walk
    /// first tries the tight edge 1 → 3, whose only tight in-edge comes
    /// back from 3. A walk without a visited set circles 3 → 1 → 3
    /// forever, and one without backtracking stops at 1; this one backs
    /// out and finds 0 → 2 → 3.
    #[test]
    fn tight_path_backtracks_out_of_zero_weight_cycle_dead_end() {
        let edges = vec![(0usize, 2, 1i64), (2, 3, 0), (3, 1, 0), (1, 3, 0)];
        let (m, inn) = solve_with_in_edges(&distance_matrix(4, &edges), 1);
        assert_eq!(m.row(0), &[0, 1, 1, 1]);
        assert_eq!(tight_path(m.row(0), &inn, 0, 3), Some(vec![0, 2, 3]));
        assert_eq!(tight_path(m.row(0), &inn, 0, 1), Some(vec![0, 2, 3, 1]));
        assert_eq!(tight_path(m.row(1), &inn, 1, 3), Some(vec![1, 3]));
        assert_eq!(tight_path(m.row(1), &inn, 1, 2), None);
    }

    /// Converts a distance matrix into the [`FwPredSpec`] initial state.
    fn pred_init(d: &Matrix<i64>) -> Matrix<(i64, u32)> {
        let n = d.n();
        Matrix::from_fn(n, n, |i, j| {
            let w = d[(i, j)];
            if i != j && w < TROPICAL_INF {
                (w, i as u32)
            } else if i == j {
                (0, u32::MAX)
            } else {
                (w, u32::MAX)
            }
        })
    }

    /// Differential: pred-spec and distance-only distances match the
    /// independent Dijkstra oracle from every source, and every tight-edge
    /// path walks real edges of the input with total weight equal to that
    /// distance.
    #[test]
    fn pred_spec_differential_vs_dijkstra_oracle() {
        for (n, seed) in [(4usize, 0xBEEFu64), (8, 0xB0A7), (16, 0x1CEB), (32, 0x5EED)] {
            let init_d = random_graph(n, seed);
            let mut p = pred_init(&init_d);
            igep_opt(&FwPredSpec, &mut p, 4);
            let (d, inn) = solve_with_in_edges(&init_d, 4);
            for src in 0..n {
                let oracle = crate::reference::dijkstra_reference(&init_d, src);
                for dst in 0..n {
                    assert_eq!(p[(src, dst)].0, oracle[dst], "n={n} {src}->{dst}");
                    assert_eq!(d[(src, dst)], oracle[dst], "n={n} {src}->{dst}");
                    match tight_path(d.row(src), &inn, src, dst) {
                        Some(path) => {
                            check_walk(&init_d, &path, src, dst, oracle[dst]);
                        }
                        None => assert_eq!(
                            oracle[dst], TROPICAL_INF,
                            "no path returned but oracle reaches {src}->{dst}"
                        ),
                    }
                }
            }
        }
    }

    /// Differential on unit-weight graphs: distances equal BFS hop counts,
    /// and every tight-edge path has exactly that many hops (shortest
    /// unweighted paths).
    #[test]
    fn pred_spec_differential_vs_bfs_oracle_on_unit_graphs() {
        fn bfs_hops(adj: &Matrix<i64>, src: usize) -> Vec<i64> {
            let n = adj.n();
            let inf = TROPICAL_INF;
            let mut hops = vec![inf; n];
            hops[src] = 0;
            let mut queue = std::collections::VecDeque::from([src]);
            while let Some(u) = queue.pop_front() {
                for v in 0..n {
                    if u != v && adj[(u, v)] == 1 && hops[v] == inf {
                        hops[v] = hops[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            hops
        }
        for (n, seed) in [(8usize, 0x8F5u64), (16, 0xFACE), (32, 0xD06)] {
            // Sparse unit-weight digraph: edge probability 1/4.
            let mut s = seed | 1;
            let mut rng = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let init_d = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    0
                } else if rng() % 4 == 0 {
                    1
                } else {
                    TROPICAL_INF
                }
            });
            let mut p = pred_init(&init_d);
            igep_opt(&FwPredSpec, &mut p, 4);
            let (d, inn) = solve_with_in_edges(&init_d, 4);
            for src in 0..n {
                let hops = bfs_hops(&init_d, src);
                for dst in 0..n {
                    assert_eq!(p[(src, dst)].0, hops[dst], "n={n} {src}->{dst}");
                    if let Some(path) = tight_path(d.row(src), &inn, src, dst) {
                        let len = check_walk(&init_d, &path, src, dst, hops[dst]);
                        assert_eq!(len as i64, hops[dst], "hops {src}->{dst}");
                    }
                }
            }
        }
    }

    /// No-path and self-loop edge cases: isolated vertices rebuild to
    /// `None`, self paths are the single vertex, and explicit self-loop
    /// edges stay out of both the distance matrix and the in-edges (a
    /// self loop never shortens a shortest path under nonnegative
    /// weights).
    #[test]
    fn pred_spec_no_path_and_self_loop_edge_cases() {
        // Vertex 3 is isolated; vertex 1 carries a self loop.
        let edges = vec![(0usize, 1, 2i64), (1, 1, 5), (1, 2, 3), (2, 0, 7)];
        let init = distance_matrix(4, &edges);
        assert_eq!(init[(1, 1)], 0, "self loop must not enter the matrix");
        let (m, inn) = solve_with_in_edges(&init, 1);
        assert!(
            inn.of(1).iter().all(|&(k, _)| k != 1),
            "no self-loop in-edge"
        );
        assert_eq!(tight_path(m.row(0), &inn, 0, 2), Some(vec![0, 1, 2]));
        assert_eq!(m[(0, 2)], 5);
        assert_eq!(tight_path(m.row(1), &inn, 1, 1), Some(vec![1]), "self path");
        for v in 0..3 {
            assert_eq!(tight_path(m.row(v), &inn, v, 3), None, "{v}->3 unreachable");
            assert_eq!(tight_path(m.row(3), &inn, 3, v), None, "3->{v} unreachable");
        }
        assert_eq!(tight_path(m.row(3), &inn, 3, 3), Some(vec![3]));
    }

    /// Pads `g` to a power-of-two side and solves it, as a server does.
    fn padded_solve(g: &Matrix<i64>) -> Matrix<i64> {
        let n = g.n();
        let side = gep_matrix::next_pow2(n);
        let mut d = Matrix::from_fn(side, side, |i, j| match (i == j, i < n && j < n) {
            (true, _) => 0,
            (false, true) => g[(i, j)],
            (false, false) => TROPICAL_INF,
        });
        apsp(&mut d, 4);
        d
    }

    /// Every rank-1 relaxation leaves the padded matrix equal, padding
    /// included, to a fresh solve of the new graph, and its logical block
    /// equal to the textbook oracle. The graphs have zero weights and
    /// vertices with no edges at all.
    #[test]
    fn relax_edge_equals_a_fresh_solve_bit_for_bit() {
        for (n, seed) in [(3usize, 5u64), (12, 0xC0DE), (20, 0xFEED)] {
            let mut g = random_graph(n, seed);
            for j in 0..n {
                g[(0, j)] = if j == 0 { 0 } else { TROPICAL_INF };
                g[(j, n - 1)] = if j == n - 1 { 0 } else { TROPICAL_INF };
            }
            let mut d = padded_solve(&g);
            let mut s = seed;
            for step in 0..3 * n {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (a, b) = ((s >> 20) as usize % n, (s >> 40) as usize % n);
                let w = ((s >> 8) % 4) as i64 * ((s >> 12) % 30) as i64;
                if a == b || w >= g[(a, b)] {
                    continue;
                }
                g[(a, b)] = w;
                let shorter = w < d[(a, b)];
                assert_eq!(relax_edge(&mut d, n, a, b, w), shorter);
                assert_eq!(d, padded_solve(&g), "n={n} step {step}: ({a},{b}) <- {w}");
                let oracle = fw_reference(&g);
                assert!((0..n).all(|i| d.row(i)[..n] == oracle.row(i)[..]));
            }
        }
    }

    #[test]
    fn relax_edge_skips_an_edge_that_shortens_nothing() {
        let edges = vec![(0usize, 1, 2i64), (1, 2, 2), (0, 2, 9)];
        let mut d = padded_solve(&distance_matrix(3, &edges));
        let before = d.clone();
        assert!(!relax_edge(&mut d, 3, 0, 2, 4), "4 = d[0][2] already");
        assert!(!relax_edge(&mut d, 3, 2, 0, TROPICAL_INF), "an absent edge");
        assert_eq!(d, before);
        assert!(relax_edge(&mut d, 3, 2, 0, 0), "a zero-weight back edge");
        assert_eq!((d[(2, 1)], d[(1, 0)], d[(1, 1)]), (2, 2, 0));
        assert_eq!(d[(3, 0)], TROPICAL_INF, "padding stays unreachable");
    }

    #[test]
    fn distance_matrix_takes_min_of_parallel_edges() {
        let m = distance_matrix::<i64>(2, &[(0, 1, 9), (0, 1, 4), (0, 1, 6)]);
        assert_eq!(m[(0, 1)], 4);
        assert_eq!(m[(1, 0)], TROPICAL_INF);
        assert_eq!(m[(0, 0)], 0);
    }
}
