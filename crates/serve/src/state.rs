//! Epoch-versioned APSP cache with mutation batching.
//!
//! The core trade the paper's framework makes profitable: one
//! cache-oblivious I-GEP Floyd–Warshall solve (`Θ(n³)` work,
//! `O(n³/(B√M))` misses) amortizes across millions of `O(1)` point
//! lookups. [`ApspCache`] owns that amortization:
//!
//! * **Queries never block on a solve.** The published result is an
//!   `Arc<Solved>` behind an `RwLock` held only long enough to clone the
//!   `Arc`. Readers then work on an immutable snapshot; the background
//!   solver swaps in a *new* `Arc` under a write lock held only for the
//!   pointer swap.
//! * **Epochs prove atomicity.** Each published solve carries an epoch,
//!   strictly increasing from 1. A response stamped with epoch `e` was
//!   computed entirely from solve `e` — there is no way to observe half
//!   of epoch `e` and half of `e+1`, and any client will see epochs
//!   monotone non-decreasing.
//! * **Mutations batch.** Edge updates append to a buffer under a mutex
//!   and wake the solver thread through a condvar. The solver drains the
//!   *entire* buffer each wake, applies it to the base matrix, re-solves,
//!   and swaps — so a burst of mutations costs one solve, not one each.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use gep_apps::floyd_warshall::{tight_path, FwSpec, InEdges};
use gep_apps::Weight;
use gep_core::abcd::igep_opt;
use gep_matrix::{next_pow2, Matrix};

use crate::graph::{apply_mutations, check_weight, check_weights};
use crate::metrics::ServeMetrics;
use crate::protocol::EdgeMut;

/// Base-case size handed to the I-GEP engine (the `r` at which the
/// recursion bottoms out into the base-case kernel).
pub const SOLVE_BASE_SIZE: usize = 32;

/// One immutable published solve.
pub struct Solved {
    /// Epoch number, strictly increasing from 1 per cache.
    pub epoch: u64,
    /// Logical vertex count (the matrix is padded to a power of two).
    n: usize,
    /// The distance-only solve, padded side: 8 bytes per cell.
    dist: Matrix<i64>,
    /// In-edges of the graph this epoch was solved from; `path` walks
    /// its tight edges.
    in_edges: InEdges,
    /// Wall-clock seconds the solve took.
    pub solve_s: f64,
    /// When the solve finished (for cache-age gauges).
    pub solved_at: Instant,
}

impl Solved {
    /// Logical vertex count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Shortest distance `u → v`, `None` when unreachable.
    pub fn dist(&self, u: usize, v: usize) -> Option<i64> {
        let d = self.dist[(u, v)];
        (d < <i64 as Weight>::INFINITY).then_some(d)
    }

    /// Whether `v` is reachable from `u`.
    pub fn reach(&self, u: usize, v: usize) -> bool {
        self.dist[(u, v)] < <i64 as Weight>::INFINITY
    }

    /// One shortest path `u → v` as a vertex sequence (inclusive), walked
    /// backward over tight edges of this epoch's graph; it reads only row
    /// `u` of the matrix. `None` when unreachable.
    pub fn path(&self, u: usize, v: usize) -> Option<Vec<usize>> {
        tight_path(self.dist.row(u), &self.in_edges, u, v)
    }
}

/// Runs the padded distance-only I-GEP solve for an `n`-vertex base
/// matrix — the `MinPlusI64` SIMD leaves, as `apsp` uses — and indexes
/// the base graph's in-edges for path queries.
fn solve(base: &Matrix<i64>) -> (Matrix<i64>, InEdges, f64) {
    let n = base.n();
    let padded = next_pow2(n.max(1));
    let mut c = Matrix::from_fn(padded, padded, |i, j| {
        if i == j {
            0
        } else if i < n && j < n {
            base.get(i, j).min(<i64 as Weight>::INFINITY)
        } else {
            <i64 as Weight>::INFINITY
        }
    });
    let t0 = Instant::now();
    igep_opt(&FwSpec::<i64>::new(), &mut c, SOLVE_BASE_SIZE.min(padded));
    let solve_s = t0.elapsed().as_secs_f64();
    (c, InEdges::from_matrix(base), solve_s)
}

/// What the solver thread shares with the front end.
struct Pending {
    /// The authoritative base (un-solved) distance matrix; mutations
    /// apply here before each re-solve.
    base: Matrix<i64>,
    /// Accumulated, not-yet-solved mutations.
    batch: Vec<EdgeMut>,
    /// Accept instant of each not-yet-solved `mutate` call (one entry
    /// per accepted request, not per edge) — the enqueue timestamps the
    /// freshness histograms measure from.
    arrivals: Vec<Instant>,
    /// Set by [`ApspCache::stop`]; the solver drains and exits.
    stop: bool,
}

/// Lifetime counters, snapshotted by status responses and the stats
/// ticker.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Background re-solves completed (excludes the initial solve).
    pub resolves: u64,
    /// Total mutations ever folded into a published epoch.
    pub mutations_applied: u64,
}

/// The epoch-versioned cache plus its background solver thread.
pub struct ApspCache {
    current: RwLock<Arc<Solved>>,
    pending: Mutex<Pending>,
    wake: Condvar,
    stats: Mutex<CacheStats>,
    /// Batches taken off the buffer (a solve is in flight whenever this
    /// exceeds `stats.resolves`).
    started: AtomicU64,
    /// Request/phase latency and mutation-freshness histograms, shared
    /// with the TCP front end.
    metrics: ServeMetrics,
    solver: Mutex<Option<JoinHandle<()>>>,
}

impl ApspCache {
    /// Solves `base` synchronously (epoch 1) and starts the background
    /// solver thread.
    ///
    /// # Panics
    /// Panics unless `base` is square with non-negative weights (see
    /// [`check_weights`]); `Server::start` checks first and returns an
    /// error instead.
    pub fn new(base: Matrix<i64>) -> Arc<ApspCache> {
        assert!(base.is_square(), "base distance matrix must be square");
        if let Err(e) = check_weights(&base) {
            panic!("{e}");
        }
        let n = base.n();
        let (dist, in_edges, solve_s) = solve(&base);
        // `serve.resolve_s` has exactly one writer at a time: this
        // thread now, the solver thread after it spawns below. All other
        // `serve.*` gauges belong to the server's stats ticker.
        gep_obs::gauge_set("serve.resolve_s", solve_s);
        let cache = Arc::new(ApspCache {
            current: RwLock::new(Arc::new(Solved {
                epoch: 1,
                n,
                dist,
                in_edges,
                solve_s,
                solved_at: Instant::now(),
            })),
            pending: Mutex::new(Pending {
                base,
                batch: Vec::new(),
                arrivals: Vec::new(),
                stop: false,
            }),
            wake: Condvar::new(),
            stats: Mutex::new(CacheStats::default()),
            started: AtomicU64::new(0),
            metrics: ServeMetrics::new(),
            solver: Mutex::new(None),
        });
        let worker = Arc::clone(&cache);
        let handle = std::thread::Builder::new()
            .name("gep-serve-solver".into())
            .spawn(move || worker.solver_loop())
            .expect("spawn solver thread");
        *cache.solver.lock().unwrap() = Some(handle);
        cache
    }

    /// The currently published solve. Cheap: one read lock + Arc clone.
    pub fn snapshot(&self) -> Arc<Solved> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// Appends a mutation batch and wakes the solver. Returns the batch
    /// depth (pending mutations) after the append. Endpoints and weights
    /// are validated here — a batch with an out-of-range vertex or a
    /// negative weight is rejected whole — so the solver thread can
    /// assume well-formed batches. Connection threads only bump counters
    /// (additive, race-free); the `serve.batch_depth` gauge belongs to
    /// the server's periodic stats ticker.
    pub fn mutate(&self, edges: &[EdgeMut]) -> Result<usize, String> {
        let n = self.snapshot().n();
        for &(u, v, w) in edges {
            if u as usize >= n || v as usize >= n {
                return Err(format!("edge ({u}, {v}) out of range for n={n}"));
            }
            check_weight(u, v, w)?;
        }
        let mut pending = self.pending.lock().unwrap();
        pending.batch.extend_from_slice(edges);
        if !edges.is_empty() {
            // One arrival per accepted request: the freshness histograms
            // get exactly one staleness sample per non-empty mutate.
            pending.arrivals.push(Instant::now());
        }
        let depth = pending.batch.len();
        gep_obs::counter_add("serve.mutations", edges.len() as u64);
        self.wake.notify_one();
        Ok(depth)
    }

    /// Pending (accepted, not yet picked up) mutation count.
    pub fn batch_depth(&self) -> usize {
        self.pending.lock().unwrap().batch.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().unwrap()
    }

    /// The server-side latency/freshness histograms.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Blocks until every mutation accepted before this call has been
    /// folded into a published epoch. Test/experiment aid; the serving
    /// path never calls it.
    pub fn quiesce(&self) {
        loop {
            let drained = self.pending.lock().unwrap().batch.is_empty();
            let in_flight =
                self.started.load(Ordering::Acquire) > self.stats.lock().unwrap().resolves;
            if drained && !in_flight {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Stops the solver thread (drains any pending batch first, so every
    /// accepted mutation is published before shutdown).
    pub fn stop(&self) {
        {
            let mut pending = self.pending.lock().unwrap();
            pending.stop = true;
            self.wake.notify_one();
        }
        if let Some(handle) = self.solver.lock().unwrap().take() {
            let _ = handle.join();
        }
    }

    fn solver_loop(&self) {
        loop {
            let (batch, arrivals, base, drained_at) = {
                let mut pending = self.pending.lock().unwrap();
                while pending.batch.is_empty() && !pending.stop {
                    pending = self.wake.wait(pending).unwrap();
                }
                if pending.batch.is_empty() && pending.stop {
                    return;
                }
                let batch = std::mem::take(&mut pending.batch);
                let arrivals = std::mem::take(&mut pending.arrivals);
                self.started.fetch_add(1, Ordering::AcqRel);
                apply_mutations(&mut pending.base, &batch);
                // Solve from a clone so the mutex is not held across the
                // n³ solve (new mutations keep batching meanwhile).
                (batch, arrivals, pending.base.clone(), Instant::now())
            };
            let (dist, in_edges, solve_s) = solve(&base);
            {
                let mut current = self.current.write().unwrap();
                let epoch = current.epoch + 1;
                *current = Arc::new(Solved {
                    epoch,
                    n: base.n(),
                    dist,
                    in_edges,
                    solve_s,
                    solved_at: Instant::now(),
                });
            }
            // Freshness telemetry, measured at publish time: how long
            // each accepted mutate request waited in the buffer, how
            // long the drain-to-publish (re-solve) took, and the total
            // enqueue-to-visibility staleness. Recorded before the stats
            // bump so anything `quiesce()`-gated sees complete series.
            let published_at = Instant::now();
            let elapsed = |from: Instant, to: Instant| {
                to.duration_since(from).as_nanos().min(u64::MAX as u128) as u64
            };
            let queue_waits: Vec<u64> = arrivals.iter().map(|&a| elapsed(a, drained_at)).collect();
            let staleness: Vec<u64> = arrivals.iter().map(|&a| elapsed(a, published_at)).collect();
            self.metrics
                .record_batch(&queue_waits, elapsed(drained_at, published_at), &staleness);
            {
                let mut stats = self.stats.lock().unwrap();
                stats.resolves += 1;
                stats.mutations_applied += batch.len() as u64;
            }
            gep_obs::counter_add("serve.resolves", 1);
            gep_obs::gauge_set("serve.resolve_s", solve_s);
        }
    }
}

impl Drop for ApspCache {
    fn drop(&mut self) {
        // `stop()` is idempotent (the join handle is take()n), so a
        // second call after explicit shutdown is a no-op. The solver
        // thread holds its own Arc, so this only runs once it has
        // already exited.
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{random_graph, random_mutations};
    use gep_apps::reference::{dijkstra_reference, fw_reference};

    #[test]
    fn initial_solve_matches_reference() {
        let base = random_graph(20, 11);
        let oracle = fw_reference(&base);
        let cache = ApspCache::new(base);
        let snap = cache.snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.n(), 20);
        for i in 0..20 {
            for j in 0..20 {
                let want = oracle.get(i, j);
                let got = snap.dist(i, j);
                if want >= <i64 as Weight>::INFINITY {
                    assert_eq!(got, None, "({i},{j}) should be unreachable");
                } else {
                    assert_eq!(got, Some(want), "({i},{j})");
                }
            }
        }
        cache.stop();
    }

    #[test]
    fn one_mutate_call_triggers_exactly_one_resolve() {
        let base = random_graph(16, 3);
        let cache = ApspCache::new(base.clone());
        let muts = random_mutations(16, 24, 5);
        cache.mutate(&muts).unwrap();
        cache.quiesce();
        let snap = cache.snapshot();
        assert_eq!(snap.epoch, 2, "one batch, one swap");
        assert_eq!(cache.stats().resolves, 1);
        assert_eq!(cache.stats().mutations_applied, 24);

        // Post-swap answers bit-match an independent from-scratch oracle.
        let mut mutated = base;
        apply_mutations(&mut mutated, &muts);
        let oracle = fw_reference(&mutated);
        for i in 0..16 {
            for j in 0..16 {
                let want = oracle.get(i, j);
                let got = snap.dist(i, j).unwrap_or(<i64 as Weight>::INFINITY);
                assert_eq!(got, want.min(<i64 as Weight>::INFINITY), "({i},{j})");
            }
        }
        cache.stop();
    }

    #[test]
    fn out_of_range_mutations_are_rejected_whole() {
        let cache = ApspCache::new(random_graph(8, 1));
        let err = cache.mutate(&[(0, 1, 5), (0, 8, 5)]).unwrap_err();
        assert!(err.contains("out of range"));
        assert_eq!(cache.batch_depth(), 0, "rejected batch leaves no residue");
        cache.quiesce();
        assert_eq!(cache.snapshot().epoch, 1, "no solve for a rejected batch");
        cache.stop();
    }

    #[test]
    fn paths_walk_real_edges_of_the_mutated_graph() {
        let base = random_graph(12, 9);
        let cache = ApspCache::new(base.clone());
        let muts = random_mutations(12, 10, 2);
        cache.mutate(&muts).unwrap();
        cache.quiesce();
        let snap = cache.snapshot();
        let mut mutated = base;
        apply_mutations(&mut mutated, &muts);
        for u in 0..12 {
            for v in 0..12 {
                match snap.path(u, v) {
                    None => assert!(!snap.reach(u, v)),
                    Some(p) => {
                        assert_eq!(p[0], u);
                        assert_eq!(*p.last().unwrap(), v);
                        let total: i64 = p
                            .windows(2)
                            .map(|e| mutated.get(e[0], e[1]))
                            .fold(0, |acc: i64, w| acc.wadd(w));
                        assert_eq!(Some(total).filter(|&d| d < TROPICAL_INF_L), snap.dist(u, v));
                    }
                }
            }
        }
        cache.stop();
    }

    /// Checks every pair of `snap` against the Dijkstra oracle on
    /// `graph`: the distance matches, and the path (present exactly when
    /// the oracle reaches) walks real edges of `graph` and weighs that
    /// distance. Returns the hop count of every path found.
    fn check_against_dijkstra(snap: &Solved, graph: &Matrix<i64>) -> Vec<Vec<Option<usize>>> {
        let n = snap.n();
        (0..n)
            .map(|u| {
                let oracle = dijkstra_reference(graph, u);
                (0..n)
                    .map(|v| {
                        let want = Some(oracle[v]).filter(|&d| d < TROPICAL_INF_L);
                        assert_eq!(snap.dist(u, v), want, "dist ({u},{v})");
                        let path = snap.path(u, v);
                        assert_eq!(path.is_some(), want.is_some(), "path ({u},{v})");
                        let p = path?;
                        assert_eq!((p[0], *p.last().unwrap()), (u, v));
                        let mut total = 0;
                        for hop in p.windows(2) {
                            let w = graph.get(hop[0], hop[1]);
                            assert!(hop[0] != hop[1] && w < TROPICAL_INF_L, "{p:?}");
                            total += w;
                        }
                        assert_eq!(Some(total), want, "weight of {p:?}");
                        Some(p.len() - 1)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn paths_match_dijkstra_oracle_across_epochs() {
        let n = 24;
        let mut graph = random_graph(n, 21);
        let cache = ApspCache::new(graph.clone());
        check_against_dijkstra(&cache.snapshot(), &graph);
        for seed in [4, 6] {
            let muts = random_mutations(n, 30, seed);
            cache.mutate(&muts).unwrap();
            cache.quiesce();
            apply_mutations(&mut graph, &muts);
            check_against_dijkstra(&cache.snapshot(), &graph);
        }
        assert_eq!(cache.snapshot().epoch, 3);
        cache.stop();
    }

    /// On unit weights, every path is a shortest *unweighted* path: its
    /// hop count is the BFS distance.
    #[test]
    fn paths_match_bfs_hops_on_unit_graphs() {
        let n = 20;
        let mut rng = crate::graph::XorShift::new(0xB0F5);
        let graph = Matrix::from_fn(n, n, |i, j| match (i == j, rng.below(4) == 0) {
            (true, _) => 0,
            (false, true) => 1,
            (false, false) => TROPICAL_INF_L,
        });
        let cache = ApspCache::new(graph.clone());
        let hops = check_against_dijkstra(&cache.snapshot(), &graph);
        for (u, row) in hops.iter().enumerate() {
            let mut bfs = vec![None; n];
            bfs[u] = Some(0);
            let mut queue = std::collections::VecDeque::from([u]);
            while let Some(x) = queue.pop_front() {
                for y in 0..n {
                    if graph.get(x, y) == 1 && bfs[y].is_none() {
                        bfs[y] = Some(bfs[x].unwrap() + 1);
                        queue.push_back(y);
                    }
                }
            }
            assert_eq!(row, &bfs, "hops from {u}");
        }
        cache.stop();
    }

    /// A zero-weight cycle 3 ⇄ 1 beside the real route 0 → 2 → 3: walking
    /// back from 3, the first tight in-edge leads into the cycle, a dead
    /// end the walk must back out of.
    #[test]
    fn zero_weight_cycle_dead_end_does_not_trap_the_path_walk() {
        let inf = TROPICAL_INF_L;
        let graph = Matrix::from_rows(&[
            vec![0, inf, 1, inf],
            vec![inf, 0, inf, 0],
            vec![inf, inf, 0, 0],
            vec![inf, 0, inf, 0],
        ]);
        let cache = ApspCache::new(graph.clone());
        let snap = cache.snapshot();
        assert_eq!(snap.path(0, 3), Some(vec![0, 2, 3]));
        assert_eq!(snap.path(0, 1), Some(vec![0, 2, 3, 1]));
        check_against_dijkstra(&snap, &graph);
        cache.stop();
    }

    /// Each epoch answers paths from its own graph: a shortcut added in
    /// epoch 2 is taken there, gone again in epoch 3, and a reader still
    /// holding the epoch-2 snapshot keeps seeing it.
    #[test]
    fn decrease_then_increase_of_one_edge_across_two_epochs() {
        let inf = TROPICAL_INF_L;
        let graph = Matrix::from_rows(&[
            vec![0, 10, 1, inf],
            vec![inf, 0, inf, 1],
            vec![inf, 1, 0, inf],
            vec![inf, inf, inf, 0],
        ]);
        let cache = ApspCache::new(graph);
        assert_eq!(cache.snapshot().path(0, 3), Some(vec![0, 2, 1, 3]));
        cache.mutate(&[(0, 1, 1)]).unwrap();
        cache.quiesce();
        let decreased = cache.snapshot();
        assert_eq!((decreased.epoch, decreased.dist(0, 3)), (2, Some(2)));
        assert_eq!(decreased.path(0, 3), Some(vec![0, 1, 3]));
        cache.mutate(&[(0, 1, 10)]).unwrap();
        cache.quiesce();
        let increased = cache.snapshot();
        assert_eq!((increased.epoch, increased.dist(0, 3)), (3, Some(3)));
        assert_eq!(increased.path(0, 3), Some(vec![0, 2, 1, 3]));
        assert_eq!(
            decreased.path(0, 3),
            Some(vec![0, 1, 3]),
            "epoch 2 keeps its graph"
        );
        cache.stop();
    }

    #[test]
    fn unreachable_pairs_and_self_paths() {
        let inf = TROPICAL_INF_L;
        // 2 is a sink; 3 is isolated.
        let graph = Matrix::from_rows(&[
            vec![0, 4, inf, inf],
            vec![3, 0, 5, inf],
            vec![inf, inf, 0, inf],
            vec![inf, inf, inf, 0],
        ]);
        let cache = ApspCache::new(graph);
        let snap = cache.snapshot();
        for v in 0..4 {
            assert_eq!(snap.path(v, v), Some(vec![v]), "self path {v}");
            assert_eq!(snap.dist(v, v), Some(0));
        }
        for (u, v) in [(2, 0), (2, 1), (0, 3), (3, 0), (3, 2)] {
            assert_eq!(snap.path(u, v), None, "({u},{v})");
            assert_eq!(snap.dist(u, v), None);
            assert!(!snap.reach(u, v));
        }
        assert_eq!(snap.path(0, 2), Some(vec![0, 1, 2]));
        cache.stop();
    }

    #[test]
    fn negative_weight_mutations_are_rejected_whole() {
        let cache = ApspCache::new(random_graph(8, 1));
        let err = cache.mutate(&[(0, 1, 5), (2, 3, -1)]).unwrap_err();
        assert!(err.contains("negative"), "{err}");
        assert_eq!(cache.batch_depth(), 0, "rejected batch leaves no residue");
        cache.stop();
    }

    #[test]
    #[should_panic(expected = "negative weight")]
    fn negative_base_weight_is_refused() {
        let mut base = random_graph(8, 1);
        base.set(1, 2, -3);
        ApspCache::new(base);
    }

    #[test]
    fn each_mutate_call_yields_one_staleness_sample() {
        let cache = ApspCache::new(random_graph(12, 7));
        cache.mutate(&random_mutations(12, 4, 1)).unwrap();
        cache.mutate(&random_mutations(12, 4, 2)).unwrap();
        cache.quiesce();
        cache.mutate(&random_mutations(12, 4, 3)).unwrap();
        cache.quiesce();
        let hists = cache.metrics().histograms();
        // Three accepted requests -> three queue-wait and staleness
        // samples, however the solver batched them; at least one batch
        // drained, at most three.
        assert_eq!(hists["serve.mutation.queue_wait_ns"].count(), 3);
        assert_eq!(hists["serve.mutation.staleness_ns"].count(), 3);
        let drains = hists["serve.mutation.batch_drain_ns"].count();
        assert!((1..=3).contains(&drains), "batches: {drains}");
        // Staleness (enqueue -> publish) dominates queue wait by
        // construction: it includes the solve.
        assert!(
            hists["serve.mutation.staleness_ns"].max()
                >= hists["serve.mutation.queue_wait_ns"].max()
        );
        cache.stop();
    }

    /// Satellite (gauge audit): connection-path `mutate()` and the solver
    /// must not write point-in-time gauges — `serve.batch_depth` is the
    /// stats ticker's alone, so its value can't be torn between a
    /// connection thread's append and the solver's drain. The solver's
    /// `serve.resolve_s` (single writer) is the only gauge this layer
    /// publishes.
    #[test]
    fn cache_layer_publishes_no_batch_depth_gauge() {
        gep_obs::install(gep_obs::Recorder::new());
        let cache = ApspCache::new(random_graph(8, 2));
        cache.mutate(&[(0, 1, 5)]).unwrap();
        cache.quiesce();
        cache.stop();
        let rec = gep_obs::take().expect("recorder still installed");
        assert!(
            !rec.gauges.contains_key("serve.batch_depth"),
            "batch_depth is published by the server ticker, not the cache"
        );
        assert!(
            !rec.gauges.contains_key("serve.epoch"),
            "epoch gauge is published by the server ticker, not the cache"
        );
        assert!(rec.gauges.contains_key("serve.resolve_s"));
    }

    const TROPICAL_INF_L: i64 = gep_core::algebra::TROPICAL_INF;
}
