//! Server-side request metrics: per-op × per-phase latency histograms
//! plus mutation-freshness telemetry.
//!
//! The load generator can only see round-trip time; this module is the
//! server's own account of where that time went. Every request passes
//! seven checkpoints on its handler thread — the phase taxonomy:
//!
//! | phase       | interval                                            |
//! |-------------|-----------------------------------------------------|
//! | `read`      | first frame byte arrived → body fully read          |
//! | `parse`     | JSON parse + request/trace-envelope validation      |
//! | `snapshot`  | acquiring the epoch snapshot (`Arc` clone)          |
//! | `compute`   | dispatching the op against the snapshot             |
//! | `serialize` | encoding the response frame                         |
//! | `write`     | writing + flushing it onto the wire                 |
//!
//! The phase durations are pairwise differences of consecutive
//! checkpoints, so they *telescope*: their sum equals the request's
//! measured total exactly — no unattributed remainder, the property the
//! slow-request integration test pins down. Each sample lands in a
//! [`gep_obs::Histogram`] keyed `serve.req_ns.<op>` (totals) and
//! `serve.phase_ns.<op>.<phase>`, owned here — not in the process-global
//! recorder — so the `metrics` op and the `status` latency view work
//! even when no recorder is installed, and connection threads never
//! contend on the global sink per request.
//!
//! Mutation freshness gets three more histograms, fed by the solver
//! thread: `serve.mutation.queue_wait_ns` (enqueue → batch drain),
//! `serve.mutation.batch_drain_ns` (first drain → epoch publish: the
//! update) and `serve.mutation.staleness_ns` (enqueue → publish: how
//! long a client's accepted write stayed invisible — the
//! mutation-to-visibility latency the SLO gate bounds). A fourth,
//! `serve.update_ns`, takes one sample per incremental epoch: the time
//! its rank-1 relaxations took (a full re-solve reports through the
//! `serve.resolve_s` gauge instead).

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use gep_obs::{Histogram, Json};

/// The request phases, in wire order.
pub const PHASES: [&str; 6] = ["read", "parse", "snapshot", "compute", "serialize", "write"];

/// Cap on slow-request flight events per second; beyond it events are
/// counted as suppressed instead of written, so a latency storm (or a
/// zero threshold in tests/CI) cannot bloat the flight file.
pub const SLOW_EVENTS_PER_SEC: u32 = 32;

/// Phase-attributed timing of one request, in nanoseconds. Built from
/// the handler's seven checkpoints, so the fields telescope: their sum
/// is the request's total measured time, exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseNanos {
    pub read: u64,
    pub parse: u64,
    pub snapshot: u64,
    pub compute: u64,
    pub serialize: u64,
    pub write: u64,
}

impl PhaseNanos {
    /// Pairwise differences of the checkpoints `t0..=t6` (first byte,
    /// body read, parsed, snapshot taken, computed, serialized, written).
    pub fn from_checkpoints(t: &[Instant; 7]) -> PhaseNanos {
        let ns =
            |a: Instant, b: Instant| b.duration_since(a).as_nanos().min(u64::MAX as u128) as u64;
        PhaseNanos {
            read: ns(t[0], t[1]),
            parse: ns(t[1], t[2]),
            snapshot: ns(t[2], t[3]),
            compute: ns(t[3], t[4]),
            serialize: ns(t[4], t[5]),
            write: ns(t[5], t[6]),
        }
    }

    /// The phases paired with their names, in [`PHASES`] order.
    pub fn as_list(&self) -> [(&'static str, u64); 6] {
        [
            ("read", self.read),
            ("parse", self.parse),
            ("snapshot", self.snapshot),
            ("compute", self.compute),
            ("serialize", self.serialize),
            ("write", self.write),
        ]
    }

    /// Total request time — the telescoping sum of all six phases.
    pub fn total(&self) -> u64 {
        self.as_list().iter().map(|(_, v)| v).sum()
    }

    /// The `{"<phase>_ns": ...}` object embedded in slow-request events.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.as_list()
                .iter()
                .map(|(name, v)| (format!("{name}_ns"), Json::Int(*v as i64)))
                .collect(),
        )
    }
}

#[derive(Default)]
struct Inner {
    /// Total request latency per op.
    req_ns: BTreeMap<&'static str, Histogram>,
    /// Phase latency per (op, phase).
    phase_ns: BTreeMap<(&'static str, &'static str), Histogram>,
    queue_wait_ns: Histogram,
    batch_drain_ns: Histogram,
    staleness_ns: Histogram,
    update_ns: Histogram,
    slow_emitted: u64,
    slow_suppressed: u64,
    /// Current one-second rate-limit window: (start, events emitted).
    slow_window: Option<(Instant, u32)>,
}

/// The server's metric store. One per [`crate::state::ApspCache`], shared
/// by connection threads (request phases), the solver thread (mutation
/// freshness) and the `metrics`/`status` ops (exposition).
#[derive(Default)]
pub struct ServeMetrics {
    inner: Mutex<Inner>,
}

impl ServeMetrics {
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one request's total and per-phase latencies under `op`.
    pub fn record_request(&self, op: &'static str, phases: &PhaseNanos) {
        let mut g = self.lock();
        g.req_ns.entry(op).or_default().record(phases.total());
        for (phase, v) in phases.as_list() {
            g.phase_ns.entry((op, phase)).or_default().record(v);
        }
    }

    /// Records one published epoch's mutations: per-arrival queue waits
    /// and stalenesses (one sample per accepted `mutate` request), the
    /// drain-to-publish duration (one sample per epoch) and, for an
    /// incremental epoch, its rank-1 update time.
    pub fn record_batch(
        &self,
        queue_wait_ns: &[u64],
        drain_ns: u64,
        staleness_ns: &[u64],
        update_ns: Option<u64>,
    ) {
        let mut g = self.lock();
        for &w in queue_wait_ns {
            g.queue_wait_ns.record(w);
        }
        g.batch_drain_ns.record(drain_ns);
        if let Some(ns) = update_ns {
            g.update_ns.record(ns);
        }
        for &s in staleness_ns {
            g.staleness_ns.record(s);
        }
    }

    /// Claims one slow-request event slot. At most
    /// [`SLOW_EVENTS_PER_SEC`] claims succeed per one-second window;
    /// refused claims are tallied as suppressed.
    pub fn try_slow_event(&self) -> bool {
        let now = Instant::now();
        let mut g = self.lock();
        let count = match g.slow_window {
            Some((start, count)) if now.duration_since(start).as_secs() < 1 => count,
            _ => {
                g.slow_window = Some((now, 0));
                0
            }
        };
        if count < SLOW_EVENTS_PER_SEC {
            g.slow_window = Some((g.slow_window.unwrap().0, count + 1));
            g.slow_emitted += 1;
            true
        } else {
            g.slow_suppressed += 1;
            false
        }
    }

    /// `(emitted, suppressed)` slow-request event totals.
    pub fn slow_counts(&self) -> (u64, u64) {
        let g = self.lock();
        (g.slow_emitted, g.slow_suppressed)
    }

    /// All histograms keyed by their exposition metric names. Empty
    /// mutation histograms are omitted (a read-only server exposes no
    /// freshness series).
    pub fn histograms(&self) -> BTreeMap<String, Histogram> {
        let g = self.lock();
        let mut out = BTreeMap::new();
        for (op, h) in &g.req_ns {
            out.insert(format!("serve.req_ns.{op}"), h.clone());
        }
        for ((op, phase), h) in &g.phase_ns {
            out.insert(format!("serve.phase_ns.{op}.{phase}"), h.clone());
        }
        for (name, h) in [
            ("serve.mutation.queue_wait_ns", &g.queue_wait_ns),
            ("serve.mutation.batch_drain_ns", &g.batch_drain_ns),
            ("serve.mutation.staleness_ns", &g.staleness_ns),
            ("serve.update_ns", &g.update_ns),
        ] {
            if h.count() > 0 {
                out.insert(name.to_string(), h.clone());
            }
        }
        out
    }

    /// Per-op `(count, p50_ns, p99_ns)` for the `status` latency view.
    pub fn op_summaries(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let g = self.lock();
        g.req_ns
            .iter()
            .map(|(op, h)| (*op, h.count(), h.p50().unwrap_or(0), h.p99().unwrap_or(0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_telescope_to_the_total() {
        let ph = PhaseNanos {
            read: 10,
            parse: 20,
            snapshot: 5,
            compute: 1000,
            serialize: 40,
            write: 25,
        };
        assert_eq!(ph.total(), 1100);
        let j = ph.to_json();
        let sum: i64 = PHASES
            .iter()
            .map(|p| j.get(&format!("{p}_ns")).and_then(Json::as_i64).unwrap())
            .sum();
        assert_eq!(sum, 1100, "JSON phases carry the same telescoping sum");
    }

    #[test]
    fn request_records_land_in_per_op_and_per_phase_histograms() {
        let m = ServeMetrics::new();
        let ph = PhaseNanos {
            read: 1,
            parse: 2,
            snapshot: 3,
            compute: 4,
            serialize: 5,
            write: 6,
        };
        m.record_request("dist", &ph);
        m.record_request("dist", &ph);
        m.record_request("status", &ph);
        let hists = m.histograms();
        assert_eq!(hists["serve.req_ns.dist"].count(), 2);
        assert_eq!(hists["serve.req_ns.status"].count(), 1);
        for phase in PHASES {
            assert_eq!(
                hists[&format!("serve.phase_ns.dist.{phase}")].count(),
                2,
                "every phase of every request is recorded"
            );
        }
        assert!(
            !hists.contains_key("serve.mutation.staleness_ns"),
            "no mutations -> no freshness series"
        );
        let sums: Vec<_> = m.op_summaries();
        assert_eq!(sums.len(), 2);
        let dist = sums.iter().find(|(op, ..)| *op == "dist").unwrap();
        assert_eq!(dist.1, 2);
    }

    #[test]
    fn batch_records_feed_the_freshness_histograms() {
        let m = ServeMetrics::new();
        m.record_batch(&[100, 200], 5_000, &[5_100, 5_200], None);
        assert!(!m.histograms().contains_key("serve.update_ns"));
        m.record_batch(&[], 300, &[], Some(250));
        let hists = m.histograms();
        assert_eq!(hists["serve.update_ns"].count(), 1);
        assert_eq!(hists["serve.mutation.queue_wait_ns"].count(), 2);
        assert_eq!(hists["serve.mutation.batch_drain_ns"].count(), 2);
        assert_eq!(hists["serve.mutation.staleness_ns"].count(), 2);
        assert_eq!(hists["serve.mutation.staleness_ns"].max(), 5_200);
    }

    #[test]
    fn slow_events_are_rate_limited_per_second() {
        let m = ServeMetrics::new();
        let granted = (0..SLOW_EVENTS_PER_SEC + 10)
            .filter(|_| m.try_slow_event())
            .count();
        assert_eq!(granted as u32, SLOW_EVENTS_PER_SEC);
        let (emitted, suppressed) = m.slow_counts();
        assert_eq!(emitted, SLOW_EVENTS_PER_SEC as u64);
        assert_eq!(suppressed, 10);
    }
}
