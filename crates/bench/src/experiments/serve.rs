//! Serving experiment: the paper's amortization story, measured
//! end-to-end.
//!
//! One cache-oblivious I-GEP Floyd–Warshall solve costs `Θ(n³)`; every
//! point query afterwards is an `O(1)` lookup. This experiment stands up
//! a real `gep-serve` TCP server in-process, drives it with the real
//! load generator, and emits `BENCH_serve.json`:
//!
//! * **Phase 1 (cached reads)** — a fixed count of `dist(u, v)` queries
//!   (≥100k at full scale against one cached `n = 512` solve) in
//!   closed-loop mode; per-request latency goes to log-bucketed
//!   histograms (p50/p90/p99 in the document's `histograms` object —
//!   informational, never gated).
//! * **Phase 2 (mutate + update)** — one `mutate` request carrying a
//!   seeded batch; the background solver must publish *exactly one*
//!   epoch, 1 → 2 (the batch raises a tight edge, so a full re-solve).
//!   The post-swap matrix is verified bit-for-bit against an
//!   independent from-scratch reference solve of the mutated graph.
//! * **Phase 3 (post-swap reads)** — a short mixed workload answered
//!   entirely at epoch 2.
//!
//! Everything in the emitted *row* — request counts, error counts,
//! epochs, re-solve count, oracle verdict — is a pure function of
//! `(n, seed, workers)`, so the row belongs in the CI deterministic
//! baseline. Latency lives only in histograms.

use std::collections::BTreeMap;

use gep_apps::reference::fw_reference;
use gep_core::TROPICAL_INF;
use gep_obs::Histogram;
use gep_serve::graph::{apply_mutations, random_graph, random_mutations};
use gep_serve::loadgen::{self, LoadgenConfig, Mix, Pacing, RunLength};
use gep_serve::protocol::{response_ok, Request};
use gep_serve::server::{Server, ServerConfig};

/// The deterministic outcome of one serving run (plus informational
/// timings/latencies).
#[derive(Debug)]
pub struct ServeOutcome {
    /// Graph size.
    pub n: usize,
    /// Load-generator workers (connections).
    pub workers: usize,
    /// Total requests across both query phases.
    pub requests: u64,
    /// Failed requests (must be 0).
    pub errors: u64,
    /// Epoch answering phase 1 (must be 1).
    pub epoch_start: u64,
    /// Epoch answering phase 3 / final (must be 2).
    pub epoch_final: u64,
    /// Epochs after the first (must be exactly 1: one batch, one epoch).
    pub resolves: u64,
    /// Of those, epochs published by rank-1 updates alone (this batch
    /// raises a tight edge, so 0: it takes the full re-solve).
    pub incremental: u64,
    /// Mutations in the applied batch.
    pub mutations: u64,
    /// Responses whose epoch went backwards on a connection (must be 0).
    pub epoch_regressions: u64,
    /// Whether the post-swap cache bit-matched the from-scratch
    /// reference solve of the mutated graph.
    pub oracle_match: bool,
    /// Initial solve seconds (informational).
    pub solve_s: f64,
    /// Phase 1 wall-clock seconds and throughput (informational).
    pub read_elapsed_s: f64,
    pub read_qps: f64,
    /// Per-op request counts (deterministic for the fixed workload).
    pub op_counts: BTreeMap<&'static str, u64>,
    /// Per-op latency histograms (informational).
    pub latency_ns: BTreeMap<&'static str, Histogram>,
}

/// Runs the experiment. Full scale: `n = 512`, 120k cached dist queries
/// (the ≥100k acceptance floor with margin). Quick: `n = 128`, 20k.
pub fn serve(quick: bool) -> ServeOutcome {
    let (n, phase1_requests, phase3_requests, mutation_count) = if quick {
        (128usize, 20_000u64, 2_000u64, 32usize)
    } else {
        (512usize, 120_000u64, 10_000u64, 64usize)
    };
    let workers = 4;
    let seed = 42;

    let base = random_graph(n, seed);
    let server = Server::start(&ServerConfig::default(), base.clone()).expect("server starts");
    let addr = server.local_addr();
    let solve_s = server.cache().snapshot().solve_s;

    // Phase 1: cached dist reads against epoch 1.
    let read = loadgen::run(&LoadgenConfig {
        addr,
        workers,
        pacing: Pacing::Closed,
        length: RunLength::Requests(phase1_requests),
        mix: Mix::dist_only(),
        seed: seed ^ 0xA5A5,
        n: n as u32,
    })
    .expect("phase 1 loadgen");
    let epoch_start = read.epoch_max;

    // Phase 2: one mutation batch, exactly one re-solve, oracle check.
    let muts = random_mutations(n, mutation_count, seed ^ 0x5A5A);
    let resp = loadgen::request_once(
        addr,
        &Request::Mutate {
            edges: muts.clone(),
        },
    )
    .expect("mutate request");
    assert!(response_ok(&resp), "mutation accepted: {resp:?}");
    server.cache().quiesce();
    let snap = server.cache().snapshot();
    let stats = server.cache().stats();

    let mut mutated = base;
    apply_mutations(&mut mutated, &muts);
    let oracle = fw_reference(&mutated);
    let inf = TROPICAL_INF;
    let oracle_match =
        (0..n).all(|u| (0..n).all(|v| snap.dist(u, v).unwrap_or(inf) == oracle.get(u, v).min(inf)));

    // Phase 3: a short mixed workload, answered entirely at epoch 2.
    let post = loadgen::run(&LoadgenConfig {
        addr,
        workers,
        pacing: Pacing::Closed,
        length: RunLength::Requests(phase3_requests),
        mix: Mix::default(),
        seed: seed ^ 0xC3C3,
        n: n as u32,
    })
    .expect("phase 3 loadgen");

    server.shutdown();

    let mut op_counts = BTreeMap::new();
    let mut latency_ns: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    for report in [&read, &post] {
        for (op, stats) in &report.ops {
            *op_counts.entry(*op).or_insert(0) += stats.count;
            latency_ns.entry(op).or_default().merge(&stats.latency_ns);
        }
    }

    ServeOutcome {
        n,
        workers,
        requests: read.total() + post.total(),
        errors: read.errors() + post.errors(),
        epoch_start,
        epoch_final: post.epoch_max.max(snap.epoch),
        resolves: stats.resolves,
        incremental: stats.incremental,
        mutations: stats.mutations_applied,
        epoch_regressions: read.epoch_regressions
            + post.epoch_regressions
            + u64::from(post.epoch_min < snap.epoch),
        oracle_match,
        solve_s,
        read_elapsed_s: read.elapsed_s,
        read_qps: read.qps(),
        op_counts,
        latency_ns,
    }
}

/// Human-readable summary (stdout companion of `BENCH_serve.json`).
pub fn print_serve(o: &ServeOutcome) {
    println!(
        "serve: n={} workers={} — initial solve {:.3}s; {} cached dist reads at {:.0} req/s",
        o.n,
        o.workers,
        o.solve_s,
        o.op_counts.get("dist").copied().unwrap_or(0),
        o.read_qps
    );
    println!(
        "serve: epochs {} -> {} via {} update(s) ({} incremental) of a {}-edge batch; oracle match: {}; epoch regressions: {}",
        o.epoch_start,
        o.epoch_final,
        o.resolves,
        o.incremental,
        o.mutations,
        o.oracle_match,
        o.epoch_regressions
    );
    for (op, hist) in &o.latency_ns {
        let q = |p: Option<u64>| p.map(|ns| ns as f64 / 1e3).unwrap_or(f64::NAN);
        println!(
            "serve: {:<6} {:>8} reqs  p50 {:>8.1}us  p90 {:>8.1}us  p99 {:>8.1}us",
            op,
            hist.count(),
            q(hist.p50()),
            q(hist.p90()),
            q(hist.p99()),
        );
    }
}
