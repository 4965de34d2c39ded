//! SLO experiment: the serving observability stack, gated end-to-end.
//!
//! `repro serve` proves the cache answers correctly under mutation; this
//! experiment proves the *telemetry about* that serving is trustworthy,
//! and turns the service-level objectives into a CI-gated verdict. It
//! stands up an in-process `gep-serve`, runs a warmup read phase, then
//! several mutate→quiesce→read rounds, and checks:
//!
//! * **Accounting closure** — the server's own per-op request histograms
//!   (`serve.req_ns.<op>`) settle to exactly the client's request counts,
//!   every phase histogram carries one sample per request, and the
//!   `status` op's quantile summary agrees (`server_counts_match`,
//!   `phases_complete`);
//! * **Exposition health** — a live `metrics` scrape over TCP passes
//!   [`gep_obs::validate_exposition`] (`exposition_valid`);
//! * **Freshness** — each accepted `mutate` call contributes exactly one
//!   sample to `serve.mutation.staleness_ns`, and the worst observed
//!   mutation-to-visibility latency is under [`SLO_STALENESS_MAX_NS`];
//! * **Latency + correctness SLOs** — server-side dist p99 under
//!   [`SLO_P99_DIST_NS`], zero request errors, zero epoch regressions,
//!   and exactly one epoch swap per round.
//!
//! Everything in the emitted row — counts, epochs, resolves, staleness
//! sample count, and the boolean verdicts — is a pure function of
//! `(n, seed, workers, rounds)`, so the row lives in the deterministic CI
//! baseline. The latency/staleness magnitudes ride along as
//! informational `_ns` fields and histograms.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gep_obs::{Histogram, Json};
use gep_serve::graph::{random_graph, random_mutations};
use gep_serve::loadgen::{self, LoadgenConfig, Mix, Pacing, RunLength};
use gep_serve::protocol::{response_ok, Request};
use gep_serve::server::{Server, ServerConfig};
use gep_serve::PHASES;

/// Server-side dist p99 objective: 250ms — generous for an `O(1)` lookup
/// (typical is tens of microseconds) so the verdict is stable on loaded
/// CI machines while still catching a pathological serving stack.
pub const SLO_P99_DIST_NS: u64 = 250_000_000;

/// Mutation-to-visibility objective: an accepted write must be servable
/// within 60s (the quick re-solve takes well under a second).
pub const SLO_STALENESS_MAX_NS: u64 = 60_000_000_000;

/// The outcome of one SLO run. Deterministic facts plus boolean verdicts
/// first; informational magnitudes after.
#[derive(Debug)]
pub struct SloOutcome {
    pub n: usize,
    pub workers: usize,
    /// Total loadgen requests across warmup and all rounds.
    pub requests: u64,
    /// Failed requests (must be 0).
    pub errors: u64,
    /// Final epoch (must be `1 + rounds`).
    pub epoch_final: u64,
    /// Epochs after the first (must be exactly `rounds`).
    pub resolves: u64,
    /// Of those, epochs published by rank-1 updates alone (no round
    /// raises a tight edge, so every round's).
    pub incremental: u64,
    /// Edge mutations applied across all rounds.
    pub mutations: u64,
    /// Epoch-went-backwards observations (must be 0).
    pub epoch_regressions: u64,
    /// Samples in `serve.mutation.staleness_ns` (must be `rounds`: one
    /// accepted mutate call per round, one sample each).
    pub staleness_samples: u64,
    /// The composite SLO verdict — what CI gates on.
    pub slo_pass: bool,
    /// The live `metrics` scrape validated.
    pub exposition_valid: bool,
    /// Server per-op counts settled to the client's counts and the
    /// `status` summary agreed.
    pub server_counts_match: bool,
    /// Every phase histogram carries one sample per request of its op.
    pub phases_complete: bool,
    /// Informational magnitudes (wall-clock; never gated).
    pub p99_dist_server_ns: u64,
    pub staleness_max_ns: u64,
    pub staleness_p50_ns: u64,
    pub queue_wait_max_ns: u64,
    pub batch_drain_max_ns: u64,
    /// Per-op client request counts (deterministic).
    pub op_counts: BTreeMap<&'static str, u64>,
    /// Client round-trip latency per op (informational).
    pub latency_ns: BTreeMap<&'static str, Histogram>,
    /// The server's own histograms (per-op totals, per-phase, freshness).
    pub server_hists: BTreeMap<String, Histogram>,
}

/// Runs the experiment. Quick: `n = 128`, 8k warmup reads + 3 rounds of
/// (16-edge mutate + 2k reads). Full: `n = 256`, 40k + 3 × (32-edge + 5k).
pub fn slo(quick: bool) -> SloOutcome {
    let (n, warm_requests, edges_per_round, round_requests) = if quick {
        (128usize, 8_000u64, 16usize, 2_000u64)
    } else {
        (256usize, 40_000u64, 32usize, 5_000u64)
    };
    let rounds = 3u64;
    let workers = 4usize;
    let seed = 4242u64;

    let server =
        Server::start(&ServerConfig::default(), random_graph(n, seed)).expect("server starts");
    let addr = server.local_addr();
    let run = |length: u64, salt: u64| {
        loadgen::run(&LoadgenConfig {
            addr,
            workers,
            pacing: Pacing::Closed,
            length: RunLength::Requests(length),
            mix: Mix::default(),
            seed: seed ^ salt,
            n: n as u32,
        })
        .expect("loadgen phase")
    };

    // Warmup reads at epoch 1, then mutate→quiesce→read rounds: each
    // round's single mutate call is one batch, one update (rank-1 or a
    // re-solve), one epoch swap, one staleness sample.
    let mut reports = vec![run(warm_requests, 0x1111)];
    for round in 0..rounds {
        let edges = random_mutations(n, edges_per_round, seed ^ (0x2222 + round));
        let resp = loadgen::request_once(addr, &Request::Mutate { edges }).expect("mutate");
        assert!(response_ok(&resp), "mutation accepted: {resp:?}");
        server.cache().quiesce();
        reports.push(run(round_requests, 0x3333 + round));
    }

    let stats = server.cache().stats();
    let epoch_final = server.cache().snapshot().epoch;

    let mut op_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut latency_ns: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    let (mut requests, mut errors, mut epoch_regressions) = (0u64, 0u64, 0u64);
    for report in &reports {
        requests += report.total();
        errors += report.errors();
        epoch_regressions += report.epoch_regressions;
        for (op, s) in &report.ops {
            *op_counts.entry(op).or_insert(0) += s.count;
            latency_ns.entry(op).or_default().merge(&s.latency_ns);
        }
    }

    // The server records a request's phases *after* writing its response,
    // so its counts can trail the client's by a scheduling hiccup: settle
    // until they match (bounded — a miss fails `server_counts_match`,
    // not the process).
    let deadline = Instant::now() + Duration::from_secs(5);
    let (settled, server_hists) = loop {
        let hists = server.cache().metrics().histograms();
        let settled = op_counts.iter().all(|(op, want)| {
            hists.get(&format!("serve.req_ns.{op}")).map(|h| h.count()) == Some(*want)
        });
        if settled || Instant::now() >= deadline {
            break (settled, hists);
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    let phases_complete = op_counts.iter().all(|(op, want)| {
        PHASES.iter().all(|phase| {
            server_hists
                .get(&format!("serve.phase_ns.{op}.{phase}"))
                .map(|h| h.count())
                == Some(*want)
        })
    });

    // A real scrape over the wire, validated like any external consumer
    // would; then the status op's quantile summary must agree with the
    // settled counts.
    let exposition_valid = match loadgen::scrape_metrics(addr) {
        Ok(doc) => gep_obs::validate_exposition(&doc).is_ok(),
        Err(_) => false,
    };
    let status = loadgen::request_once(addr, &Request::Status).expect("status request");
    let status_ops_agree = response_ok(&status)
        && op_counts.iter().all(|(op, want)| {
            status
                .get("ops")
                .and_then(|ops| ops.get(op))
                .and_then(|entry| entry.get("count"))
                .and_then(Json::as_u64)
                == Some(*want)
        });
    let server_counts_match = settled && status_ops_agree;
    server.shutdown();

    let hist_stat =
        |name: &str, f: &dyn Fn(&Histogram) -> u64| server_hists.get(name).map(f).unwrap_or(0);
    let staleness_samples = hist_stat("serve.mutation.staleness_ns", &|h| h.count());
    let staleness_max_ns = hist_stat("serve.mutation.staleness_ns", &|h| h.max());
    let staleness_p50_ns = hist_stat("serve.mutation.staleness_ns", &|h| h.p50().unwrap_or(0));
    let queue_wait_max_ns = hist_stat("serve.mutation.queue_wait_ns", &|h| h.max());
    let batch_drain_max_ns = hist_stat("serve.mutation.batch_drain_ns", &|h| h.max());
    let p99_dist_server_ns = hist_stat("serve.req_ns.dist", &|h| h.p99().unwrap_or(0));

    let slo_pass = errors == 0
        && epoch_regressions == 0
        && epoch_final == 1 + rounds
        && stats.resolves == rounds
        && staleness_samples == rounds
        && server_counts_match
        && phases_complete
        && exposition_valid
        && p99_dist_server_ns < SLO_P99_DIST_NS
        && staleness_max_ns < SLO_STALENESS_MAX_NS;

    SloOutcome {
        n,
        workers,
        requests,
        errors,
        epoch_final,
        resolves: stats.resolves,
        incremental: stats.incremental,
        mutations: stats.mutations_applied,
        epoch_regressions,
        staleness_samples,
        slo_pass,
        exposition_valid,
        server_counts_match,
        phases_complete,
        p99_dist_server_ns,
        staleness_max_ns,
        staleness_p50_ns,
        queue_wait_max_ns,
        batch_drain_max_ns,
        op_counts,
        latency_ns,
        server_hists,
    }
}

/// Human-readable summary (stdout companion of `BENCH_slo.json`).
pub fn print_slo(o: &SloOutcome) {
    println!(
        "slo: n={} workers={} — {} requests, {} errors, epochs 1 -> {} via {} update(s) ({} incremental, {} edges), {} regressions",
        o.n,
        o.workers,
        o.requests,
        o.errors,
        o.epoch_final,
        o.resolves,
        o.incremental,
        o.mutations,
        o.epoch_regressions
    );
    println!(
        "slo: accounting — server counts match: {}; phases complete: {}; exposition valid: {}",
        o.server_counts_match, o.phases_complete, o.exposition_valid
    );
    println!(
        "slo: freshness — {} staleness sample(s), p50 {:.1}ms, max {:.1}ms (queue wait max {:.1}ms, drain max {:.1}ms)",
        o.staleness_samples,
        o.staleness_p50_ns as f64 / 1e6,
        o.staleness_max_ns as f64 / 1e6,
        o.queue_wait_max_ns as f64 / 1e6,
        o.batch_drain_max_ns as f64 / 1e6
    );
    println!(
        "slo: server dist p99 {:.1}us (objective < {:.0}ms) — SLO {}",
        o.p99_dist_server_ns as f64 / 1e3,
        SLO_P99_DIST_NS as f64 / 1e6,
        if o.slo_pass { "PASS" } else { "FAIL" }
    );
}
