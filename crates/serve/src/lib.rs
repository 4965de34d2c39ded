//! # gep-serve — APSP-as-a-service
//!
//! The paper's economics, productized: a single cache-oblivious I-GEP
//! Floyd–Warshall solve costs `Θ(n³)` work but `O(n³/(B√M))` cache
//! misses, and once solved, every distance and reachability query is an
//! `O(1)` lookup and every path query a walk over one matrix row. This
//! crate wraps that trade in a long-running server:
//!
//! * [`state`] — the epoch-versioned [`state::ApspCache`]: queries read
//!   an immutable `Arc` snapshot and never block on a solve; a
//!   background thread drains the mutation batch buffer, folds cheaper
//!   edges in by `O(n²)` rank-1 updates ([`gep_apps::relax_edge`]) or,
//!   when a tight edge rises, re-solves the distance-only
//!   [`gep_apps::FwSpec`] on the SIMD min-plus leaves, and atomically
//!   swaps the new epoch in; paths are rebuilt per query by
//!   [`gep_apps::tight_path`] over the epoch's in-edges;
//! * [`protocol`] — length-prefixed JSON frames over TCP, hand-rolled on
//!   `std::net` with the workspace's own `gep_obs::Json` (no serde, no
//!   async runtime); every response carries the answering epoch;
//! * [`server`] — the thread-per-connection front end plus a stats
//!   ticker publishing `serve.*` counters and gauges, flight-recorder
//!   ready (`gep-serve --flight` + `repro watch` tails a live server);
//! * [`loadgen`] — seeded open/closed-loop workload driver recording
//!   per-request latency into mergeable log-bucketed histograms, the
//!   source of `BENCH_serve.json`;
//! * [`metrics`] — the server's own account of where request time goes:
//!   per-op × per-phase latency histograms (read/parse/snapshot/compute/
//!   serialize/write), mutation-freshness (staleness) histograms, and
//!   the slow-request rate limiter; scraped live via the `metrics` op;
//! * [`graph`] — deterministic seeded graphs and mutation streams shared
//!   by the server, the load generator, tests, and `repro serve`.
//!
//! The protocol, epoch/batching semantics, and loadgen knobs are
//! documented in `docs/SERVING.md`; the phase taxonomy and exposition
//! format in `docs/OBSERVABILITY.md`.

pub mod graph;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod state;

pub use loadgen::{LoadgenConfig, LoadgenReport, Mix, Pacing, RunLength};
pub use metrics::{PhaseNanos, ServeMetrics, PHASES};
pub use protocol::{Request, TROPICAL_INF};
pub use server::{Server, ServerConfig};
pub use state::{ApspCache, Solved};
