//! The incremental-serving axis of the differential harness.
//!
//! One trial drives a `gep-serve` [`ApspCache`] through a random stream
//! of mutation batches on a random graph — decreases, inserts, zero
//! weights, rises and deletes of slack and of tight edges, diagonal and
//! no-op edges, and bursts of back-to-back batches that the solver may
//! merge or fold into one epoch — and checks every epoch it publishes
//! against the independent oracles: each distance against
//! [`fw_reference`] of the graph so far, and each `path` answer as a walk
//! over real edges of that graph whose weight is the
//! [`dijkstra_reference`] distance. The server chooses between the
//! rank-1 incremental update and the full I-GEP re-solve from measured
//! timings, so a trial's path through the two is not fixed; its answers
//! are, and any divergence is a bug.
//!
//! Seeds derive and replay exactly like the other diffcheck axes; a
//! failure prints the seed and `diffcheck incremental --seed <u64>`
//! reruns that trial alone.

use gep::apps::reference::{dijkstra_reference, fw_reference};
use gep::core::algebra::TROPICAL_INF;
use gep::matrix::Matrix;
use gep_serve::graph::{apply_mutations, XorShift};
use gep_serve::protocol::EdgeMut;
use gep_serve::state::{ApspCache, Solved};

/// What one trial exercised.
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrStats {
    /// Vertices.
    pub n: usize,
    /// Epochs published after the first.
    pub epochs: u64,
    /// Of those, epochs published from rank-1 relaxations alone.
    pub incremental: u64,
    /// Edges accepted.
    pub edges: u64,
}

/// Runs the trial of `seed`; `Err` describes the first wrong answer.
pub fn incremental_trial(seed: u64) -> Result<IncrStats, String> {
    let mut rng = XorShift::new(seed);
    let n = 1 + rng.below(40) as usize;
    let density = 1 + rng.below(4);
    let isolated = rng.below(n as u64) as usize;
    let mut graph = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0
        } else if i == isolated || j == isolated || rng.below(4) >= density {
            TROPICAL_INF
        } else {
            weight(&mut rng)
        }
    });
    let cache = ApspCache::new(graph.clone());
    let result = drive(&cache, &mut graph, &mut rng);
    cache.stop();
    let stats = result?;
    Ok(IncrStats { n, ..stats })
}

fn weight(rng: &mut XorShift) -> i64 {
    // One in four weights is zero: zero-weight cycles and ties.
    if rng.below(4) == 0 {
        0
    } else {
        1 + rng.below(30) as i64
    }
}

fn drive(
    cache: &ApspCache,
    graph: &mut Matrix<i64>,
    rng: &mut XorShift,
) -> Result<IncrStats, String> {
    check_epoch(&cache.snapshot(), graph)?;
    let mut stats = IncrStats::default();
    let mut epoch = 1;
    let batches = 3 + rng.below(10);
    for b in 0..batches {
        let snap = cache.snapshot();
        let batch = random_batch(rng, graph, &snap);
        cache
            .mutate(&batch)
            .map_err(|e| format!("batch {b}: {e}"))?;
        apply_mutations(graph, &batch);
        stats.edges += batch.len() as u64;
        // One batch in four is followed at once by the next, which the
        // solver merges into a drain, folds into the epoch it is
        // building, or publishes on its own.
        if b + 1 < batches && rng.below(4) == 0 {
            continue;
        }
        cache.quiesce();
        let snap = cache.snapshot();
        let at = format!("epoch {} after batch {b}", snap.epoch);
        if snap.epoch <= epoch || snap.resolves() + 1 != snap.epoch {
            return Err(format!("{at}: epoch did not advance from {epoch}"));
        }
        if snap.mutations_applied != stats.edges {
            return Err(format!(
                "{at}: {} mutations applied, {} accepted",
                snap.mutations_applied, stats.edges
            ));
        }
        epoch = snap.epoch;
        check_epoch(&snap, graph).map_err(|e| format!("{at}: {e}"))?;
    }
    let last = cache.snapshot();
    stats.epochs = last.resolves();
    stats.incremental = last.incremental;
    Ok(stats)
}

/// One to four edges, each against the graph as the edges before it
/// leave it: decreases and inserts (half), rises of slack edges, rises
/// or deletes of tight ones (one batch in three), diagonal and no-op
/// edges.
fn random_batch(rng: &mut XorShift, graph: &Matrix<i64>, snap: &Solved) -> Vec<EdgeMut> {
    let n = graph.n();
    let mut now = graph.clone();
    let tight_ok = rng.below(3) == 0;
    let len = 1 + rng.below(4);
    let mut batch = Vec::new();
    for _ in 0..len {
        let (mut u, mut v) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
        let edges = (0..n * n).map(|x| (x / n, x % n));
        let finite = |&(a, b): &(usize, usize)| a != b && now[(a, b)] < TROPICAL_INF;
        let dist = |a: usize, b: usize| snap.dist(a, b).unwrap_or(TROPICAL_INF);
        let w = match rng.below(8) {
            0..=3 => rng.below(now[(u, v)].min(31) as u64 + 1) as i64,
            4 | 5 => {
                let tight = rng.below(2) == 0 && tight_ok;
                let start = rng.below((n * n) as u64) as usize;
                let pick = edges
                    .clone()
                    .cycle()
                    .skip(start)
                    .take(n * n)
                    .filter(finite)
                    .find(|&(a, b)| (now[(a, b)] == dist(a, b)) == tight);
                match pick {
                    Some((a, b)) => {
                        (u, v) = (a, b);
                        if rng.below(3) == 0 {
                            TROPICAL_INF
                        } else {
                            now[(a, b)] + 1 + rng.below(20) as i64
                        }
                    }
                    None => weight(rng),
                }
            }
            6 => {
                v = u;
                weight(rng)
            }
            _ => now[(u, v)].min(TROPICAL_INF),
        };
        if u != v {
            now[(u, v)] = w;
        }
        batch.push((u as u32, v as u32, w));
    }
    batch
}

/// Every distance of `snap` against [`fw_reference`] of `graph`, and
/// every path as a walk over real edges of `graph` weighing the
/// [`dijkstra_reference`] distance.
fn check_epoch(snap: &Solved, graph: &Matrix<i64>) -> Result<(), String> {
    let n = graph.n();
    let oracle = fw_reference(graph);
    for u in 0..n {
        let dijkstra = dijkstra_reference(graph, u);
        for v in 0..n {
            let want = Some(oracle[(u, v)]).filter(|&d| d < TROPICAL_INF);
            if snap.dist(u, v) != want || dijkstra[v].min(TROPICAL_INF) != oracle[(u, v)] {
                return Err(format!(
                    "dist ({u},{v}) = {:?}, Floyd–Warshall {want:?}, Dijkstra {}",
                    snap.dist(u, v),
                    dijkstra[v]
                ));
            }
            let path = snap.path(u, v);
            let weight = path.as_ref().map(|p| {
                p.windows(2).try_fold(0i64, |acc, hop| {
                    let w = graph[(hop[0], hop[1])];
                    (hop[0] != hop[1] && w < TROPICAL_INF).then_some(acc + w)
                })
            });
            let ends = path.as_ref().map(|p| (p[0], p[p.len() - 1]));
            let ok = match want {
                None => path.is_none(),
                Some(d) => ends == Some((u, v)) && weight == Some(Some(d)),
            };
            if !ok {
                return Err(format!("path ({u},{v}) = {path:?}, distance {want:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_pass_and_take_both_paths() {
        let (mut epochs, mut incremental) = (0, 0);
        for seed in 1..=12u64 {
            let stats = incremental_trial(seed * 0x9E37_79B9).unwrap_or_else(|e| panic!("{e}"));
            assert!(stats.epochs >= 1 && stats.edges >= 3);
            epochs += stats.epochs;
            incremental += stats.incremental;
        }
        assert!(
            0 < incremental && incremental < epochs,
            "{incremental} of {epochs}"
        );
    }
}
