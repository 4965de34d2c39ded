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
//!   *entire* buffer each wake, applies it to the base matrix, updates
//!   the distances and swaps — so a burst of mutations costs one epoch,
//!   not one each.
//! * **Cheaper edges cost `O(n²)`.** A batch whose edges only get
//!   cheaper, appear, or rise off every shortest path is folded into a
//!   copy of the published matrix by one rank-1 min-plus relaxation per
//!   cheaper edge ([`relax_edge`]), exact and equal to a re-solve. Only a
//!   rise or delete of a *tight* edge (`old weight == d[a][b]`), or a
//!   batch whose relaxations would cost more than a solve, re-runs the
//!   full I-GEP solve.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use gep_apps::floyd_warshall::{relax_edge, tight_path, FwSpec, InEdges};
use gep_core::abcd::igep_opt;
use gep_matrix::{fit_side, Matrix};

use crate::graph::{apply_mutations, check_weight, check_weights};
use crate::metrics::ServeMetrics;
use crate::protocol::{EdgeMut, TROPICAL_INF};

/// Base-case size handed to the I-GEP engine (the `r` at which the
/// recursion bottoms out into the base-case kernel).
pub const SOLVE_BASE_SIZE: usize = 32;

/// One immutable published epoch.
pub struct Solved {
    /// Epoch number, strictly increasing from 1 per cache.
    pub epoch: u64,
    /// Logical vertex count (the matrix is padded to a fitted side).
    n: usize,
    /// The distance-only solve, padded side: 8 bytes per cell.
    dist: Matrix<i64>,
    /// In-edges of the graph this epoch was solved from; `path` walks
    /// its tight edges.
    in_edges: InEdges,
    /// Wall-clock seconds of the last full I-GEP solve; incremental
    /// epochs carry it forward.
    pub solve_s: f64,
    /// Seconds of min-plus work that produced this epoch: the full solve
    /// (epoch 1 and every re-solve) plus any rank-1 relaxations folded in
    /// before publishing, or the relaxations alone.
    pub update_s: f64,
    /// Mutations (edges, as accepted) folded into this and every earlier
    /// epoch.
    pub mutations_applied: u64,
    /// Epochs up to this one that were published from rank-1 relaxations
    /// alone, without a full solve.
    pub incremental: u64,
    /// When the epoch was published (for cache-age gauges).
    pub solved_at: Instant,
}

impl Solved {
    /// Logical vertex count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Epochs published after the first: `epoch − 1`.
    pub fn resolves(&self) -> u64 {
        self.epoch - 1
    }

    /// Shortest distance `u → v`, `None` when unreachable.
    pub fn dist(&self, u: usize, v: usize) -> Option<i64> {
        let d = self.dist[(u, v)];
        (d < TROPICAL_INF).then_some(d)
    }

    /// Whether `v` is reachable from `u`.
    pub fn reach(&self, u: usize, v: usize) -> bool {
        self.dist[(u, v)] < TROPICAL_INF
    }

    /// One shortest path `u → v` as a vertex sequence (inclusive), walked
    /// backward over tight edges of this epoch's graph; it reads only row
    /// `u` of the matrix. `None` when unreachable.
    pub fn path(&self, u: usize, v: usize) -> Option<Vec<usize>> {
        tight_path(self.dist.row(u), &self.in_edges, u, v)
    }
}

/// The solver's input for an `n`-vertex base matrix: padded to
/// `fit_side(n, SOLVE_BASE_SIZE)`, zero diagonal, unreachable padding.
fn padded(base: &Matrix<i64>) -> Matrix<i64> {
    let n = base.n();
    let side = fit_side(n, SOLVE_BASE_SIZE);
    Matrix::from_fn(side, side, |i, j| {
        if i == j {
            0
        } else if i < n && j < n {
            base.get(i, j).min(TROPICAL_INF)
        } else {
            TROPICAL_INF
        }
    })
}

/// Runs the distance-only I-GEP solve in place — the `MinPlusI64` SIMD
/// leaves, as `apsp` uses — and returns its wall-clock seconds.
fn solve(c: &mut Matrix<i64>) -> f64 {
    let t0 = Instant::now();
    igep_opt(&FwSpec::<i64>::new(), c, SOLVE_BASE_SIZE.min(c.n()));
    t0.elapsed().as_secs_f64()
}

/// One off-diagonal edge of a batch with the weight it replaces.
#[derive(Clone, Copy, Debug)]
struct Edit {
    a: usize,
    b: usize,
    old: i64,
    w: i64,
}

/// How a batch of edits can reach the distances of its graph from a
/// matrix `d` solved before it: `Some(k)` when `k` rank-1 relaxations
/// do (every edit is a decrease, an insert or a no-op, or raises an edge
/// that is not tight, `old > d[a][b]`, so no shortest path uses it);
/// `None` when an edit raises a tight edge and only a full solve will.
///
/// `d` is the matrix before the batch. Relaxing an earlier edit can only
/// lower `d[a][b]`, so a rise judged non-tight here stays non-tight when
/// the walk reaches it; the check is conservative only for a rise that
/// an earlier decrease in the same batch made non-tight.
fn plan(d: &Matrix<i64>, edits: &[Edit]) -> Option<usize> {
    let mut decreases = 0;
    for e in edits {
        if e.w < e.old {
            decreases += 1;
        } else if e.w > e.old && e.old <= d[(e.a, e.b)] {
            return None;
        }
    }
    Some(decreases)
}

/// Folds `edits` into `d` in order; returns how many relaxed.
fn relax_all(d: &mut Matrix<i64>, n: usize, edits: &[Edit]) -> usize {
    edits
        .iter()
        .filter(|e| e.w < e.old && relax_edge(d, n, e.a, e.b, e.w))
        .count()
}

/// What the solver thread shares with the front end.
struct Pending {
    /// The authoritative base (un-solved) distance matrix. Only the
    /// solver thread changes it, applying each batch as it drains it.
    base: Matrix<i64>,
    /// Accumulated, not-yet-drained mutations.
    batch: Vec<EdgeMut>,
    /// Accept instant of each not-yet-drained `mutate` call (one entry
    /// per accepted request, not per edge) — the enqueue timestamps the
    /// freshness histograms measure from.
    arrivals: Vec<Instant>,
    /// Edges ever accepted; [`ApspCache::quiesce`] waits for the
    /// published count to reach it.
    accepted: u64,
    /// Set by [`ApspCache::stop`]; the solver drains and exits.
    stop: bool,
}

impl Pending {
    /// Appends one accepted `mutate` batch.
    fn push(&mut self, edges: &[EdgeMut]) {
        self.batch.extend_from_slice(edges);
        self.accepted += edges.len() as u64;
        if !edges.is_empty() {
            // One arrival per accepted request: the freshness histograms
            // get exactly one staleness sample per non-empty mutate.
            self.arrivals.push(Instant::now());
        }
    }

    /// The pending batch as edits of `base`, each edge against the
    /// weight the edges before it leave there. Deletes clamp to
    /// [`TROPICAL_INF`] and diagonal edges drop out, as in
    /// [`apply_mutations`].
    fn edits(&self) -> Vec<Edit> {
        let mut now: HashMap<(usize, usize), i64> = HashMap::new();
        self.batch
            .iter()
            .filter(|&&(u, v, _)| u != v)
            .map(|&(u, v, w)| {
                let (a, b, w) = (u as usize, v as usize, w.min(TROPICAL_INF));
                let old = now
                    .insert((a, b), w)
                    .unwrap_or_else(|| self.base.get(a, b).min(TROPICAL_INF));
                Edit { a, b, old, w }
            })
            .collect()
    }

    /// Takes the pending batch into `drain` and applies it to `base`.
    fn drain_into(&mut self, drain: &mut Drain) {
        let now = Instant::now();
        drain.started.get_or_insert(now);
        let batch = std::mem::take(&mut self.batch);
        apply_mutations(&mut self.base, &batch);
        drain.edges += batch.len() as u64;
        for a in self.arrivals.drain(..) {
            drain.queue_wait_ns.push(nanos(a, now));
            drain.arrivals.push(a);
        }
    }
}

/// The mutations taken off the buffer for the epoch being built.
#[derive(Default)]
struct Drain {
    /// When the first batch was drained.
    started: Option<Instant>,
    edges: u64,
    arrivals: Vec<Instant>,
    /// Enqueue → drain of each arrival.
    queue_wait_ns: Vec<u64>,
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos().min(u64::MAX as u128) as u64
}

/// Lifetime counters, bumped once an epoch's freshness samples are
/// recorded: what [`ApspCache::quiesce`] waits on.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Epochs published after the first.
    pub resolves: u64,
    /// Total mutations ever folded into a published epoch.
    pub mutations_applied: u64,
    /// Epochs published from rank-1 relaxations alone.
    pub incremental: u64,
}

/// The epoch-versioned cache plus its background solver thread.
pub struct ApspCache {
    current: RwLock<Arc<Solved>>,
    pending: Mutex<Pending>,
    wake: Condvar,
    stats: Mutex<CacheStats>,
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
        let mut dist = padded(&base);
        let solve_s = solve(&mut dist);
        // `serve.resolve_s` has exactly one writer at a time: this
        // thread now, the solver thread after it spawns below. All other
        // `serve.*` gauges belong to the server's stats ticker.
        gep_obs::gauge_set("serve.resolve_s", solve_s);
        let cache = Arc::new(ApspCache {
            current: RwLock::new(Arc::new(Solved {
                epoch: 1,
                n: base.n(),
                dist,
                in_edges: InEdges::from_matrix(&base),
                solve_s,
                update_s: solve_s,
                mutations_applied: 0,
                incremental: 0,
                solved_at: Instant::now(),
            })),
            pending: Mutex::new(Pending {
                base,
                batch: Vec::new(),
                arrivals: Vec::new(),
                accepted: 0,
                stop: false,
            }),
            wake: Condvar::new(),
            stats: Mutex::new(CacheStats::default()),
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
        let mut pending = self.lock_pending();
        pending.push(edges);
        let depth = pending.batch.len();
        gep_obs::counter_add("serve.mutations", edges.len() as u64);
        self.wake.notify_one();
        Ok(depth)
    }

    /// Pending (accepted, not yet picked up) mutation count.
    pub fn batch_depth(&self) -> usize {
        self.lock_pending().batch.len()
    }

    fn lock_pending(&self) -> std::sync::MutexGuard<'_, Pending> {
        self.pending
            .lock()
            .expect("the solver thread panicked holding the mutation buffer")
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
    /// folded into a published epoch and its freshness samples recorded.
    /// Test/experiment aid; the serving path never calls it.
    pub fn quiesce(&self) {
        let accepted = self.lock_pending().accepted;
        while self.stats().mutations_applied < accepted {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Stops the solver thread (drains any pending batch first, so every
    /// accepted mutation is published before shutdown).
    pub fn stop(&self) {
        {
            let mut pending = self.lock_pending();
            pending.stop = true;
            self.wake.notify_one();
        }
        if let Some(handle) = self.solver.lock().unwrap().take() {
            let _ = handle.join();
        }
    }

    fn solver_loop(&self) {
        // Measured seconds per rank-1 relaxation; until the first one,
        // a solve's per-pivot share.
        let mut relax_s: Option<f64> = None;
        loop {
            // Only this thread publishes, so `prev` stays current.
            let prev = self.snapshot();
            let n = prev.n;
            let mut solve_s = prev.solve_s;
            let per_relax = relax_s.unwrap_or(solve_s / n.max(1) as f64);
            // Relaxations are worth it while they cost less than a solve.
            let fits = |plan: Option<usize>, solve_s: f64| {
                plan.is_some_and(|k| (k as f64) * per_relax < solve_s)
            };
            let mut drain = Drain::default();
            let (edits, fresh) = {
                let mut pending = self.lock_pending();
                while pending.batch.is_empty() && !pending.stop {
                    pending = self.wake.wait(pending).unwrap();
                }
                if pending.batch.is_empty() {
                    return;
                }
                let edits = pending.edits();
                let incremental = fits(plan(&prev.dist, &edits), solve_s);
                pending.drain_into(&mut drain);
                // A full solve starts from the new base; building its
                // input here replaces a copy of the base.
                (edits, (!incremental).then(|| padded(&pending.base)))
            };
            let mut relax_time = 0.0;
            let mut relaxed = 0;
            let mut relax = |d: &mut Matrix<i64>, edits: &[Edit]| {
                let t = Instant::now();
                relaxed += relax_all(d, n, edits);
                relax_time += t.elapsed().as_secs_f64();
            };
            let full = fresh.is_some();
            let mut dist = match fresh {
                Some(mut c) => {
                    solve_s = solve(&mut c);
                    c
                }
                None => {
                    // The one n×n copy of an incremental epoch.
                    let mut d = prev.dist.clone();
                    relax(&mut d, &edits);
                    d
                }
            };
            // Fold before publishing: mutations that arrived meanwhile
            // and qualify join this epoch, so a long solve is not
            // followed at once by an incremental epoch that replaces it
            // before any reader could see it.
            let (folded, in_edges) = {
                let mut pending = self.lock_pending();
                let edits = pending.edits();
                let folded = (!pending.batch.is_empty() && fits(plan(&dist, &edits), solve_s))
                    .then(|| {
                        pending.drain_into(&mut drain);
                        edits
                    });
                (folded, InEdges::from_matrix(&pending.base))
            };
            if let Some(edits) = folded {
                relax(&mut dist, &edits);
            }
            if relaxed > 0 {
                relax_s = Some(relax_time / relaxed as f64);
            }
            let update_s = if full { solve_s } else { 0.0 } + relax_time;
            let next = Solved {
                epoch: prev.epoch + 1,
                n,
                dist,
                in_edges,
                solve_s,
                update_s,
                mutations_applied: prev.mutations_applied + drain.edges,
                incremental: prev.incremental + u64::from(!full),
                solved_at: Instant::now(),
            };
            drop(prev);
            *self.current.write().unwrap() = Arc::new(next);
            // Freshness telemetry, measured at publish time: how long
            // each accepted mutate request waited in the buffer, how
            // long the drain-to-publish update took, and the total
            // enqueue-to-visibility staleness. Recorded before the stats
            // bump so anything `quiesce()`-gated sees complete series.
            let published_at = Instant::now();
            let staleness: Vec<u64> = drain
                .arrivals
                .iter()
                .map(|&a| nanos(a, published_at))
                .collect();
            let started = drain.started.expect("a batch was drained");
            self.metrics.record_batch(
                &drain.queue_wait_ns,
                nanos(started, published_at),
                &staleness,
                (!full).then_some((update_s * 1e9) as u64),
            );
            {
                let mut stats = self.stats.lock().unwrap();
                stats.resolves += 1;
                stats.mutations_applied += drain.edges;
                stats.incremental += u64::from(!full);
            }
            gep_obs::counter_add("serve.resolves", 1);
            if full {
                gep_obs::gauge_set("serve.resolve_s", solve_s);
            } else {
                gep_obs::counter_add("serve.incremental", 1);
            }
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
    use gep_core::algebra::{MinPlusI64, UpdateAlgebra};

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
                if want >= TROPICAL_INF {
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
                let got = snap.dist(i, j).unwrap_or(TROPICAL_INF);
                assert_eq!(got, want.min(TROPICAL_INF), "({i},{j})");
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
                            .fold(0, MinPlusI64::mul);
                        assert_eq!(Some(total).filter(|&d| d < TROPICAL_INF), snap.dist(u, v));
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
                        let want = Some(oracle[v]).filter(|&d| d < TROPICAL_INF);
                        assert_eq!(snap.dist(u, v), want, "dist ({u},{v})");
                        let path = snap.path(u, v);
                        assert_eq!(path.is_some(), want.is_some(), "path ({u},{v})");
                        let p = path?;
                        assert_eq!((p[0], *p.last().unwrap()), (u, v));
                        let mut total = 0;
                        for hop in p.windows(2) {
                            let w = graph.get(hop[0], hop[1]);
                            assert!(hop[0] != hop[1] && w < TROPICAL_INF, "{p:?}");
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
            (false, false) => TROPICAL_INF,
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
        let inf = TROPICAL_INF;
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
        let inf = TROPICAL_INF;
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
        let inf = TROPICAL_INF;
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

    /// A fresh padded solve of `graph`: what every epoch's matrix must
    /// equal bit for bit, padding included.
    fn resolved(graph: &Matrix<i64>) -> Matrix<i64> {
        let mut d = padded(graph);
        solve(&mut d);
        d
    }

    /// An edge on a shortest path (`w == d[a][b]`, finite) and one off
    /// every shortest path (`w > d[a][b]`).
    fn tight_and_slack_edges(graph: &Matrix<i64>, snap: &Solved) -> ((u32, u32), (u32, u32)) {
        let n = graph.n();
        let edges = (0..n).flat_map(|a| (0..n).map(move |b| (a, b)));
        let finite = |&(a, b): &(usize, usize)| a != b && graph.get(a, b) < TROPICAL_INF;
        let pick = |tight: bool| {
            edges
                .clone()
                .filter(finite)
                .find(|&(a, b)| (Some(graph.get(a, b)) == snap.dist(a, b)) == tight)
                .map(|(a, b)| (a as u32, b as u32))
                .expect("the random graph has both kinds")
        };
        (pick(true), pick(false))
    }

    #[test]
    fn a_decrease_is_folded_in_without_a_solve() {
        let mut graph = random_graph(24, 5);
        let cache = ApspCache::new(graph.clone());
        let first = cache.snapshot();
        let (_, (a, b)) = tight_and_slack_edges(&graph, &first);
        cache.mutate(&[(a, b, 0)]).unwrap();
        cache.quiesce();
        apply_mutations(&mut graph, &[(a, b, 0)]);
        let snap = cache.snapshot();
        assert_eq!(
            (snap.epoch, snap.incremental, snap.mutations_applied),
            (2, 1, 1)
        );
        assert_eq!(
            snap.solve_s, first.solve_s,
            "solve_s is the last full solve"
        );
        assert_eq!(snap.dist, resolved(&graph));
        assert_eq!(snap.dist(a as usize, b as usize), Some(0));
        check_against_dijkstra(&snap, &graph);
        let stats = cache.stats();
        assert_eq!((stats.resolves, stats.incremental), (1, 1));
        let hists = cache.metrics().histograms();
        assert_eq!(hists["serve.update_ns"].count(), 1);
        cache.stop();
    }

    /// n = 600 pads to the fitted side 768 (`24·32`), not 1024: the
    /// first full solve and a `relax_edge` epoch both match `fw_reference`.
    #[test]
    fn fitted_side_solve_and_relax_epoch_match_reference() {
        let n = 600;
        let mut graph = random_graph(n, 12);
        let cache = ApspCache::new(graph.clone());
        let matches_reference = |snap: &Solved, graph: &Matrix<i64>| {
            let oracle = fw_reference(graph);
            for i in 0..n {
                for j in 0..n {
                    let want = oracle.get(i, j).min(TROPICAL_INF);
                    assert_eq!(snap.dist(i, j).unwrap_or(TROPICAL_INF), want, "({i},{j})");
                }
            }
        };
        let first = cache.snapshot();
        assert_eq!(first.dist.n(), 768);
        matches_reference(&first, &graph);
        let (_, (a, b)) = tight_and_slack_edges(&graph, &first);
        cache.mutate(&[(a, b, 0)]).unwrap();
        cache.quiesce();
        apply_mutations(&mut graph, &[(a, b, 0)]);
        let snap = cache.snapshot();
        assert_eq!(
            (snap.epoch, snap.incremental),
            (2, 1),
            "relaxed, not re-solved"
        );
        assert_eq!(snap.dist, resolved(&graph));
        matches_reference(&snap, &graph);
        cache.stop();
    }

    #[test]
    fn a_tight_rise_falls_back_to_a_full_solve() {
        let mut graph = random_graph(24, 6);
        let cache = ApspCache::new(graph.clone());
        for delete in [false, true] {
            let ((a, b), _) = tight_and_slack_edges(&graph, &cache.snapshot());
            let w = if delete {
                TROPICAL_INF
            } else {
                graph.get(a as usize, b as usize) + 50
            };
            cache.mutate(&[(a, b, w)]).unwrap();
            cache.quiesce();
            apply_mutations(&mut graph, &[(a, b, w)]);
            let snap = cache.snapshot();
            assert_eq!(snap.incremental, 0, "rise of ({a},{b}) to {w} re-solved");
            assert_eq!(snap.update_s, snap.solve_s);
            assert_eq!(snap.dist, resolved(&graph));
            check_against_dijkstra(&snap, &graph);
        }
        assert_eq!(cache.stats().resolves, 2);
        assert!(!cache.metrics().histograms().contains_key("serve.update_ns"));
        cache.stop();
    }

    /// Decreases, inserts, a no-op, a diagonal edge and rises or deletes
    /// of slack edges, in one batch: all incremental, and the epoch equals
    /// a re-solve.
    #[test]
    fn a_mixed_batch_without_tight_rises_is_incremental() {
        let n = 20;
        let mut graph = random_graph(n, 8);
        let cache = ApspCache::new(graph.clone());
        let snap = cache.snapshot();
        let slack: Vec<(u32, u32)> = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b && Some(graph.get(a, b)) > snap.dist(a, b))
            .map(|(a, b)| (a as u32, b as u32))
            .take(3)
            .collect();
        let absent = (1..n)
            .find(|&b| graph.get(0, b) >= TROPICAL_INF)
            .expect("a missing out-edge of 0") as u32;
        let (a, b) = slack[0];
        let batch = vec![
            (
                slack[1].0,
                slack[1].1,
                graph.get(slack[1].0 as usize, slack[1].1 as usize) + 7,
            ),
            (slack[2].0, slack[2].1, TROPICAL_INF),
            (a, b, snap.dist(a as usize, b as usize).unwrap()),
            (0, absent, 3),
            (4, 4, 9),
            (0, absent, 3),
        ];
        cache.mutate(&batch).unwrap();
        cache.quiesce();
        apply_mutations(&mut graph, &batch);
        let next = cache.snapshot();
        assert_eq!(
            (next.epoch, next.incremental, next.mutations_applied),
            (2, 1, 6)
        );
        assert_eq!(next.dist, resolved(&graph));
        check_against_dijkstra(&next, &graph);
        cache.stop();
    }

    /// A decrease accepted while a full solve runs joins that solve's
    /// epoch instead of replacing it half a millisecond later.
    #[test]
    fn mutations_arriving_during_a_solve_fold_into_its_epoch() {
        let n = 400;
        let mut graph = random_graph(n, 12);
        let cache = ApspCache::new(graph.clone());
        let ((a, b), (c, e)) = tight_and_slack_edges(&graph, &cache.snapshot());
        let rise = [(a, b, TROPICAL_INF)];
        cache.mutate(&rise).unwrap();
        // Once the solver has taken the rise, hold the buffer: it cannot
        // fold, and so cannot publish, before the decrease is in.
        let decrease = [(c, e, 0)];
        loop {
            let mut pending = cache.lock_pending();
            if pending.batch.is_empty() {
                assert_eq!(cache.snapshot().epoch, 1, "the solve outran the test");
                pending.push(&decrease);
                break;
            }
        }
        cache.quiesce();
        apply_mutations(&mut graph, &rise);
        apply_mutations(&mut graph, &decrease);
        let snap = cache.snapshot();
        assert_eq!(
            (snap.epoch, snap.incremental, snap.mutations_applied),
            (2, 0, 2)
        );
        assert!(
            snap.update_s >= snap.solve_s,
            "the fold's relaxation counts"
        );
        assert_eq!(snap.dist, resolved(&graph));
        assert_eq!(
            cache.metrics().histograms()["serve.mutation.staleness_ns"].count(),
            2
        );
        for u in [0, c as usize, n - 1] {
            for (v, &d) in dijkstra_reference(&graph, u).iter().enumerate() {
                assert_eq!(snap.path(u, v).is_some(), d < TROPICAL_INF);
            }
        }
        assert_eq!(
            snap.path(c as usize, e as usize),
            Some(vec![c as usize, e as usize])
        );
        cache.stop();
    }

    /// Every epoch of a stream of single-edge mutations, incremental or
    /// not, answers dist and path from its own graph; a snapshot held
    /// across later epochs keeps answering from its own.
    #[test]
    fn every_epoch_of_a_stream_answers_from_its_own_graph() {
        let n = 16;
        let mut graph = random_graph(n, 13);
        let cache = ApspCache::new(graph.clone());
        let mut held = Vec::new();
        for (i, &edge) in random_mutations(n, 12, 31).iter().enumerate() {
            let edge = if i % 3 == 0 {
                (edge.0, edge.1, 0)
            } else {
                edge
            };
            cache.mutate(&[edge]).unwrap();
            cache.quiesce();
            apply_mutations(&mut graph, &[edge]);
            let snap = cache.snapshot();
            assert_eq!(snap.epoch, i as u64 + 2);
            assert_eq!(snap.dist, resolved(&graph), "epoch {}", snap.epoch);
            check_against_dijkstra(&snap, &graph);
            held.push((snap, graph.clone()));
        }
        assert!(
            cache.snapshot().incremental > 0,
            "zero weights are decreases"
        );
        for (snap, graph) in &held {
            check_against_dijkstra(snap, graph);
        }
        cache.stop();
    }
}
