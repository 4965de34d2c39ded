//! The recorder: counters, gauges and hierarchical spans, recorded either
//! process-wide or scoped to one piece of work.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** With no recorder installed (the default),
//!    [`counter_add`], [`gauge_set`] and [`span`] each reduce to one relaxed
//!    atomic load and an early return. The recursive engines in `gep-core`
//!    keep their instrumentation unconditionally in place and rely on this.
//! 2. **Safe under parallelism.** The rayon engines record from many worker
//!    threads at once; the sink is a mutex-guarded accumulator and spans
//!    carry a per-thread id so traces stay well-nested per thread (rayon's
//!    work-stealing during `join` is strictly LIFO per OS thread).
//! 3. **Isolation on request.** [`install`] sets the process-global
//!    recorder, which every thread without a scope records into — the
//!    mode of binaries and of whole-process captures. [`record`] instead
//!    runs one closure with its own recorder bound to the calling thread;
//!    the engines' forks carry that binding onto the threads they run on
//!    ([`inherit`]), so two concurrent scoped solves count exactly their
//!    own work and neither leaks into the global recorder.
//! 4. **No dependencies.** Everything here is `std`.
//!
//! Deep recursions can produce millions of spans (I-GEP at base size 1 emits
//! one span per recursive call), so span recording can be switched off
//! independently of counters via [`Recorder::counters_only`].

use crate::hist::Histogram;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One completed span: a timed interval on one thread, with integer
/// arguments (coordinates, sizes, counts).
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Short name, e.g. the Figure 6 function kind `"A"`.
    pub name: &'static str,
    /// Category, e.g. the engine: `"abcd"`, `"igep"`, `"cgep"`.
    pub cat: &'static str,
    /// Recorder-assigned thread id (dense, starting at 0).
    pub tid: u64,
    /// Start time in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on the recording thread at open time.
    pub depth: usize,
    /// Integer arguments attached with [`SpanGuard::arg`].
    pub args: Vec<(&'static str, i64)>,
}

/// An in-memory recording. Install with [`install`], retrieve with
/// [`take`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    record_spans: bool,
    /// Monotonic event counts, keyed by dotted name (`"abcd.a.calls"`).
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins values (`"parallel.pool_threads"`).
    pub gauges: BTreeMap<String, f64>,
    /// Log-bucketed sample distributions (`"kernel.leaf_ns"`), merged
    /// across recording threads by the sink mutex.
    pub hists: BTreeMap<String, Histogram>,
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
}

impl Recorder {
    /// A fresh recorder that records counters, gauges and spans.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            record_spans: true,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder with span recording off — counters and gauges only.
    /// Use for deep recursions (e.g. base size 1) where per-call spans
    /// would cost gigabytes.
    pub fn counters_only() -> Self {
        Recorder {
            record_spans: false,
            ..Recorder::new()
        }
    }

    /// Value of a counter, or 0 if it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any sample was ever recorded into it.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Recording targets alive in the process: the global recorder (0 or 1)
/// plus every running [`record`] scope. Zero is the disabled fast path.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Whether a global recorder is installed, and whether it records spans.
static GLOBAL: AtomicBool = AtomicBool::new(false);
static GLOBAL_SPANS: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Recorder>> = Mutex::new(None);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// The recorder of one [`record`] call, shared by the threads its work
/// forks onto.
#[derive(Debug)]
struct Scoped {
    record_spans: bool,
    rec: Mutex<Recorder>,
}

impl Scoped {
    fn lock(&self) -> MutexGuard<'_, Recorder> {
        self.rec.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    /// The scope this thread records into; `None` means the global sink.
    static SCOPE: RefCell<Option<Arc<Scoped>>> = const { RefCell::new(None) };
}

fn sink() -> MutexGuard<'static, Option<Recorder>> {
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The calling thread's scope, if it has one.
fn thread_scope() -> Option<Arc<Scoped>> {
    SCOPE.try_with(|s| s.borrow().clone()).ok().flatten()
}

/// Whether the calling thread's scope records spans; `None` without a
/// scope. Reads the binding without touching its reference count.
fn scope_spans() -> Option<bool> {
    SCOPE
        .try_with(|s| s.borrow().as_ref().map(|scope| scope.record_spans))
        .ok()
        .flatten()
}

/// Runs `f` on the calling thread's recording target — its scope, or
/// else the global recorder if one is installed.
#[inline]
fn with_target(f: impl FnOnce(&mut Recorder)) {
    if LIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    match thread_scope() {
        Some(scope) => f(&mut scope.lock()),
        None => {
            if let Some(r) = sink().as_mut() {
                f(r)
            }
        }
    }
}

/// True iff the calling thread records somewhere: it runs inside a
/// [`record`] scope, or a global recorder is installed. Instrumented code
/// may use this to gate work that is expensive even without recording
/// (e.g. counting Σ-triples in a base-case box).
#[inline]
pub fn enabled() -> bool {
    LIVE.load(Ordering::Relaxed) != 0 && (scope_spans().is_some() || GLOBAL.load(Ordering::Relaxed))
}

/// True iff the calling thread's recorder also records spans.
#[inline]
pub fn spans_enabled() -> bool {
    LIVE.load(Ordering::Relaxed) != 0
        && scope_spans().unwrap_or_else(|| GLOBAL_SPANS.load(Ordering::Relaxed))
}

/// Installs `r` as the process-global recorder, replacing (and dropping)
/// any previous one. Concurrent engines on threads without a [`record`]
/// scope immediately start recording into it.
pub fn install(r: Recorder) {
    let mut global = sink();
    if global.is_none() {
        LIVE.fetch_add(1, Ordering::SeqCst);
    }
    GLOBAL_SPANS.store(r.record_spans, Ordering::SeqCst);
    GLOBAL.store(true, Ordering::SeqCst);
    *global = Some(r);
}

/// Stops global recording and returns the global recorder, if one was
/// installed. Spans still open on other threads are discarded when they
/// close. Scoped recorders are unaffected.
pub fn take() -> Option<Recorder> {
    let mut global = sink();
    let r = global.take();
    if r.is_some() {
        LIVE.fetch_sub(1, Ordering::SeqCst);
    }
    GLOBAL.store(false, Ordering::SeqCst);
    GLOBAL_SPANS.store(false, Ordering::SeqCst);
    r
}

/// Runs `f` with `rec` as the calling thread's recorder and returns `f`'s
/// result together with the recording.
///
/// Everything `f` records — on this thread, and on every thread its forks
/// run on via [`inherit`] — lands in `rec` and nowhere else: not in the
/// global recorder, and not in another scope running at the same time.
/// Nested calls shadow the outer scope until they return.
pub fn record<R>(rec: Recorder, f: impl FnOnce() -> R) -> (R, Recorder) {
    let scope = Arc::new(Scoped {
        record_spans: rec.record_spans,
        rec: Mutex::new(rec),
    });
    struct Live;
    impl Drop for Live {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }
    LIVE.fetch_add(1, Ordering::SeqCst);
    let live = Live;
    let out = run_in(Some(Arc::clone(&scope)), f);
    drop(live);
    // A straggling clone (a span guard or an inherited closure that
    // outlived its fork) keeps an empty recorder, not this one.
    let rec = std::mem::take(&mut *scope.lock());
    (out, rec)
}

/// Runs `f` with `scope` bound to the calling thread, restoring the
/// thread's own binding afterwards (also on unwind).
fn run_in<R>(scope: Option<Arc<Scoped>>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Scoped>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            let _ = SCOPE.try_with(|s| *s.borrow_mut() = prev);
        }
    }
    if scope.is_none() && LIVE.load(Ordering::Relaxed) == 0 {
        return f();
    }
    let _restore = Restore(SCOPE.with(|s| s.replace(scope)));
    f()
}

/// Wraps `f` so that, wherever it runs, it records into the scope of the
/// thread calling `inherit` (or into the global recorder if that thread
/// has none). Fork points wrap each closure they may hand to another
/// thread: `RayonJoiner` and the other `rayon::join` call sites in
/// `gep-parallel` do. Costs one relaxed atomic load when nothing records.
pub fn inherit<R>(f: impl FnOnce() -> R) -> impl FnOnce() -> R {
    let scope = if LIVE.load(Ordering::Relaxed) == 0 {
        None
    } else {
        thread_scope()
    };
    move || run_in(scope, f)
}

/// Adds `delta` to the named counter. No-op when disabled.
pub fn counter_add(name: &str, delta: u64) {
    with_target(|r| {
        let c = r.counters.entry(name.to_string()).or_insert(0);
        *c = c.wrapping_add(delta);
    });
}

/// Sets the named gauge. No-op when disabled.
pub fn gauge_set(name: &str, value: f64) {
    with_target(|r| {
        r.gauges.insert(name.to_string(), value);
    });
}

/// One snapshot of the installed recorder's counters and gauges for the
/// flight-recorder sampler, or `None` when no recorder is installed. The
/// clone happens under the sink mutex; serialization and file I/O stay
/// outside it.
pub(crate) fn snapshot_for_sampler() -> Option<(BTreeMap<String, u64>, BTreeMap<String, f64>)> {
    if LIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    sink()
        .as_ref()
        .map(|r| (r.counters.clone(), r.gauges.clone()))
}

/// A point-in-time clone of the installed recorder's metric state —
/// counters, gauges and histograms. Spans are trace data, not metrics,
/// and stay out: a deep recursion's span vector can be gigabytes.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub hists: BTreeMap<String, Histogram>,
}

/// Snapshots the installed recorder's metrics without uninstalling it
/// (unlike [`take`], recording continues). This is how a live process
/// exposes its metrics on demand — the `gep-serve` `metrics` op builds
/// its exposition from here. The clone happens under the sink mutex;
/// callers serialize outside it. `None` when no recorder is installed.
pub fn metrics_snapshot() -> Option<MetricsSnapshot> {
    if LIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    sink().as_ref().map(|r| MetricsSnapshot {
        counters: r.counters.clone(),
        gauges: r.gauges.clone(),
        hists: r.hists.clone(),
    })
}

/// Records one sample into the named histogram. No-op when disabled
/// (one relaxed atomic load, like [`counter_add`]).
pub fn hist_record(name: &str, value: u64) {
    with_target(|r| r.hists.entry(name.to_string()).or_default().record(value));
}

struct ActiveSpan {
    /// Where the span closes into: the scope it opened under, or the
    /// global recorder.
    scope: Option<Arc<Scoped>>,
    name: &'static str,
    cat: &'static str,
    start: Instant,
    depth: usize,
    args: Vec<(&'static str, i64)>,
}

/// RAII guard returned by [`span`]; the span closes when the guard drops.
/// All methods are no-ops when recording is disabled.
#[must_use = "the span closes when this guard drops"]
pub struct SpanGuard(Option<ActiveSpan>);

/// Opens a span. Returns an inert guard (one atomic load, no allocation)
/// when span recording is disabled.
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard(None);
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    SpanGuard(Some(ActiveSpan {
        scope: thread_scope(),
        name,
        cat,
        start: Instant::now(),
        depth,
        args: Vec::new(),
    }))
}

impl SpanGuard {
    /// Attaches an integer argument (builder-style).
    pub fn arg(mut self, key: &'static str, value: i64) -> Self {
        if let Some(a) = self.0.as_mut() {
            a.args.push((key, value));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let end = Instant::now();
        let tid = TID.with(|t| *t);
        let push = |r: &mut Recorder| {
            // `duration_since` saturates to zero for pre-epoch instants.
            let start_ns = a.start.duration_since(r.epoch).as_nanos() as u64;
            let dur_ns = end.duration_since(a.start).as_nanos() as u64;
            r.spans.push(SpanRecord {
                name: a.name,
                cat: a.cat,
                tid,
                start_ns,
                dur_ns,
                depth: a.depth,
                args: a.args,
            });
        };
        match &a.scope {
            Some(scope) => push(&mut scope.lock()),
            None => {
                if let Some(r) = sink().as_mut() {
                    push(r)
                }
            }
        }
    }
}

/// Serializes tests that touch the process-global recorder (used by this
/// crate's own test modules; integration tests need their own lock).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        test_lock()
    }

    #[test]
    fn disabled_hooks_are_noops() {
        let _g = lock();
        let _ = take(); // clear any leftover recorder
        assert!(!enabled());
        counter_add("x", 5);
        gauge_set("g", 1.5);
        hist_record("h", 9);
        let _s = span("a", "b").arg("k", 1);
        drop(_s);
        assert!(take().is_none());
    }

    #[test]
    fn concurrent_hist_records_merge_to_one_distribution() {
        let _g = lock();
        install(Recorder::counters_only());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..500u64 {
                        hist_record("lat", t * 500 + i);
                    }
                });
            }
        });
        let r = take().unwrap();
        let h = r.hist("lat").expect("histogram recorded");
        assert_eq!(h.count(), 2000);
        assert_eq!(h.max(), 1999);
        assert!(r.hist("missing").is_none());
    }

    #[test]
    fn counters_gauges_spans_record() {
        let _g = lock();
        install(Recorder::new());
        counter_add("hits", 2);
        counter_add("hits", 3);
        gauge_set("threads", 4.0);
        gauge_set("threads", 8.0);
        {
            let _outer = span("outer", "test").arg("n", 16);
            let _inner = span("inner", "test");
        }
        let r = take().expect("recorder installed");
        assert_eq!(r.counter("hits"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("threads"), Some(8.0));
        assert_eq!(r.spans.len(), 2);
        // Inner closes first; outer contains it and sits one level shallower.
        let inner = &r.spans[0];
        let outer = &r.spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.args, vec![("n", 16)]);
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn counters_only_skips_spans() {
        let _g = lock();
        install(Recorder::counters_only());
        assert!(enabled());
        assert!(!spans_enabled());
        counter_add("c", 1);
        let _s = span("a", "b");
        drop(_s);
        let r = take().unwrap();
        assert_eq!(r.counter("c"), 1);
        assert!(r.spans.is_empty());
    }

    #[test]
    fn concurrent_counter_adds_sum() {
        let _g = lock();
        install(Recorder::counters_only());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        counter_add("par", 1);
                    }
                });
            }
        });
        let r = take().unwrap();
        assert_eq!(r.counter("par"), 4000);
    }

    /// Two scoped recordings running at once, beside a global recorder
    /// fed by an unscoped thread: each sees exactly its own counts, and
    /// work forked through `inherit` lands in its forker's scope.
    #[test]
    fn scopes_isolate_concurrent_work_from_each_other_and_the_global() {
        let _g = lock();
        install(Recorder::counters_only());
        let scoped = |adds: u64| {
            move || {
                record(Recorder::counters_only(), || {
                    std::thread::scope(|s| {
                        s.spawn(inherit(|| {
                            for _ in 0..adds {
                                counter_add("work", 1);
                            }
                        }));
                        // Not inherited: a bare spawned thread records
                        // into the global recorder.
                        s.spawn(|| counter_add("global.only", 1));
                    });
                    for _ in 0..adds {
                        counter_add("work", 1);
                        hist_record("lat", adds);
                    }
                    assert!(enabled());
                })
                .1
            }
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(scoped(300));
            let b = s.spawn(scoped(700));
            for _ in 0..50 {
                counter_add("work", 1);
            }
            (a.join().unwrap(), b.join().unwrap())
        });
        let global = take().unwrap();
        assert_eq!(a.counter("work"), 600);
        assert_eq!(b.counter("work"), 1400);
        assert_eq!(a.hist("lat").unwrap().count(), 300);
        assert_eq!(a.counter("global.only"), 0);
        assert_eq!(global.counter("work"), 50);
        assert_eq!(global.counter("global.only"), 2);
        assert!(global.hist("lat").is_none());
    }

    #[test]
    fn nested_scopes_shadow_and_restore() {
        let (inner, outer) = record(Recorder::new(), || {
            counter_add("outer", 1);
            let ((), inner) = record(Recorder::counters_only(), || {
                assert!(!spans_enabled());
                counter_add("inner", 1);
                drop(span("skipped", "test"));
            });
            assert!(spans_enabled());
            drop(span("kept", "test"));
            counter_add("outer", 1);
            inner
        });
        assert_eq!((inner.counter("inner"), inner.counter("outer")), (1, 0));
        assert_eq!((outer.counter("inner"), outer.counter("outer")), (0, 2));
        assert!(inner.spans.is_empty());
        assert_eq!(outer.spans.len(), 1);
        assert_eq!(outer.spans[0].name, "kept");
    }

    #[test]
    fn scope_is_restored_when_the_closure_panics() {
        let caught = std::panic::catch_unwind(|| {
            record(Recorder::counters_only(), || panic!("boom"));
        });
        assert!(caught.is_err());
        assert!(
            scope_spans().is_none(),
            "no scope left bound to this thread"
        );
    }
}
