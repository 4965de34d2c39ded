//! # gep-obs — observability for the GEP workspace
//!
//! A zero-cost-when-disabled instrumentation layer shared by every crate in
//! the workspace. The paper's evaluation (Section 4, Figures 7–12) is built
//! on *observed* quantities — cache misses, I/O wait, recursion structure —
//! and this crate is how the engines report them:
//!
//! * [`recorder`] — a [`Recorder`] of **counters** (monotonic `u64`
//!   sums), **gauges** (last-write-wins `f64` values), **histograms**
//!   (log-bucketed sample distributions, [`hist`]) and hierarchical
//!   **spans** (timed intervals forming the A/B/C/D call tree), installed
//!   process-wide ([`install`]) or scoped to one closure and the forks it
//!   makes ([`record`], [`inherit`]). When nothing records every hook is a
//!   single relaxed atomic load, so the hot recursive engines pay nothing
//!   in the default configuration.
//! * [`hist`] — the mergeable power-of-two-bucketed [`Histogram`] behind
//!   the p50/p90/p99/max latency metrics (kernel leaves, extmem I/O).
//! * [`sampler`] — the flight recorder: a background [`Sampler`] that
//!   streams periodic counter/gauge snapshots — plus structured
//!   [`flight_event`] lines such as slow-request logs — to a
//!   crash-durable JSONL file, tailed live by `repro watch`.
//! * [`expose`] — the live metrics exposition: one self-describing JSON
//!   document (counters, gauges, histogram quantiles and buckets) a
//!   running process answers scrapes with; `gep-serve`'s `metrics` op,
//!   `loadgen --scrape` and `repro watch --addr` all speak it.
//! * [`json`] — a small self-contained JSON value type, writer and parser
//!   (the workspace deliberately has no serde_json dependency).
//! * [`chrome`] — exports recorded spans as Chrome trace-event JSON,
//!   loadable in Perfetto / `chrome://tracing`, plus a well-nestedness
//!   checker used by the golden tests.
//! * [`summary`](mod@summary) — a human-readable summary table of a recording.
//! * [`bench`](mod@bench) — the `BENCH_<experiment>.json` schema written by
//!   `repro -- all --json`: one machine-readable file per reproduced
//!   figure/table, with a validator so CI can reject malformed output.
//!
//! ## Usage
//!
//! ```
//! gep_obs::install(gep_obs::Recorder::new());
//! {
//!     let _span = gep_obs::span("F", "igep").arg("s", 8);
//!     gep_obs::counter_add("igep.calls", 1);
//! }
//! let rec = gep_obs::take().unwrap();
//! assert_eq!(rec.counter("igep.calls"), 1);
//! assert_eq!(rec.spans.len(), 1);
//!
//! // Scoped to one piece of work: concurrent work elsewhere in the
//! // process cannot add to these counts.
//! let (sum, rec) = gep_obs::record(gep_obs::Recorder::counters_only(), || {
//!     gep_obs::counter_add("igep.calls", 2);
//!     40 + 2
//! });
//! assert_eq!((sum, rec.counter("igep.calls")), (42, 2));
//! ```
//!
//! See `docs/OBSERVABILITY.md` for the full tour.

pub mod bench;
pub mod chrome;
pub mod expose;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod sampler;
pub mod summary;

pub use bench::BenchDoc;
pub use chrome::{check_well_nested, chrome_trace, chrome_trace_string};
pub use expose::{exposition, exposition_hist_stat, validate_exposition};
pub use hist::Histogram;
pub use json::Json;
pub use recorder::{
    counter_add, enabled, gauge_set, hist_record, inherit, install, metrics_snapshot, record, span,
    spans_enabled, take, MetricsSnapshot, Recorder, SpanGuard, SpanRecord,
};
pub use sampler::{flight_event, read_flight_file, FlightLog, Sample, Sampler, SamplerConfig};
pub use summary::summary;
