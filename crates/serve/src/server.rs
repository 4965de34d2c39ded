//! The TCP front end: thread-per-connection over [`ApspCache`].
//!
//! Hand-rolled on `std::net` — no async runtime, no framework. Each
//! accepted connection gets a handler thread that loops
//! read-frame → dispatch → write-frame until the peer closes or a
//! `shutdown` request arrives. Point queries clone the cache's `Arc`
//! snapshot and answer without ever blocking on a solve; the epoch in
//! every response is the snapshot's, so clients can verify monotonicity.
//!
//! ## Request-scoped observability
//!
//! Every request carries a trace id (client-supplied or server-assigned
//! `s<conn>-<seq>`), echoed in the response, and is timed through six
//! telescoping phases — read, parse, snapshot, compute, serialize,
//! write — recorded into the cache's [`ServeMetrics`] per-op × per-phase
//! histograms (see [`crate::metrics`] for the taxonomy). Requests whose
//! total meets `ServerConfig::slow_threshold` additionally emit one
//! structured `slow_request` event into the flight recorder (rate-capped
//! at [`crate::metrics::SLOW_EVENTS_PER_SEC`]), carrying the trace id,
//! op, epoch and the full phase breakdown.
//!
//! ## Gauge discipline
//!
//! Connection threads only ever *add to counters* (race-free). All
//! point-in-time `serve.*` gauges — `cache_age_s`, `epoch`,
//! `batch_depth`, `connections.open` — have exactly one writer: the
//! stats ticker below, which republishes them every 200 ms and once more
//! on shutdown (so the flight file's final flush sample carries closing
//! values). The one exception, `serve.resolve_s`, is written by the
//! cache's single solver thread, and only after a full solve. This makes
//! every gauge's last write the newest value by construction, with no
//! cross-thread interleaving to reason about.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gep_matrix::Matrix;
use gep_obs::{Histogram, Json};

use crate::graph::check_weights;
use crate::metrics::{PhaseNanos, ServeMetrics};
use crate::protocol::{
    encode_frame, err_response, ok_response, read_frame_raw, request_trace, with_trace,
    write_encoded, Request,
};
use crate::state::{ApspCache, Solved};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Requests whose total handling time reaches this threshold emit a
    /// structured `slow_request` flight-recorder event with their full
    /// phase breakdown. `Duration::ZERO` logs every request (rate-capped;
    /// useful in CI to prove the pipeline works).
    pub slow_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            slow_threshold: Duration::from_millis(100),
        }
    }
}

struct Shared {
    cache: Arc<ApspCache>,
    stop: AtomicBool,
    /// Currently open client connections.
    open: AtomicU64,
    /// Total requests answered, by success.
    served: AtomicU64,
    errors: AtomicU64,
    /// Connection id allocator (trace ids embed it).
    next_conn: AtomicU64,
    /// Slow-request threshold in nanoseconds.
    slow_threshold_ns: u64,
}

/// A running server: listener thread + per-connection handlers + stats
/// ticker, all joined by [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    ticker_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Solves `base` (blocking: the server only accepts once epoch 1 is
    /// ready) and starts listening on `config.addr`. Fails with
    /// `InvalidInput` if `base` has a negative weight.
    pub fn start(config: &ServerConfig, base: Matrix<i64>) -> std::io::Result<Arc<Server>> {
        check_weights(&base)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(resolve(&config.addr)?)?;
        let local_addr = listener.local_addr()?;
        let cache = ApspCache::new(base);
        let shared = Arc::new(Shared {
            cache,
            stop: AtomicBool::new(false),
            open: AtomicU64::new(0),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
            slow_threshold_ns: config.slow_threshold.as_nanos().min(u64::MAX as u128) as u64,
        });
        let server = Arc::new(Server {
            shared: Arc::clone(&shared),
            local_addr,
            accept_thread: Mutex::new(None),
            ticker_thread: Mutex::new(None),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("gep-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        *server.accept_thread.lock().unwrap() = Some(accept);

        let ticker_shared = Arc::clone(&shared);
        let ticker = std::thread::Builder::new()
            .name("gep-serve-ticker".into())
            .spawn(move || stats_ticker(ticker_shared))?;
        *server.ticker_thread.lock().unwrap() = Some(ticker);

        gep_obs::counter_add("serve.started", 1);
        Ok(server)
    }

    /// The bound address (read the ephemeral port here in tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Direct cache access for in-process oracle verification; network
    /// clients see exactly these snapshots.
    pub fn cache(&self) -> &Arc<ApspCache> {
        &self.shared.cache
    }

    /// Whether a client has requested shutdown (or [`Server::shutdown`]
    /// ran).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Blocks until a `shutdown` request arrives (the server binary's
    /// main thread parks here).
    pub fn wait_for_shutdown_request(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Graceful shutdown: stop accepting, finish the pending mutation
    /// batch, stop the solver and ticker. In-flight connections see
    /// their stream close. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            // Second caller still needs the join below to be complete,
            // but the Mutex<Option<..>> take() makes joining one-shot
            // and a concurrent second call simply finds None.
        }
        // The accept loop blocks in accept(); poke it with a throwaway
        // connection so it observes the stop flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.lock().unwrap().take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.ticker_thread.lock().unwrap().take() {
            let _ = handle.join();
        }
        self.shared.cache.stop();
    }

    /// (served_ok, errors) so far.
    pub fn request_totals(&self) -> (u64, u64) {
        (
            self.shared.served.load(Ordering::Relaxed),
            self.shared.errors.load(Ordering::Relaxed),
        )
    }
}

fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("address '{addr}' resolves to nothing"),
        )
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::Acquire) {
            return; // the shutdown poke, or a straggler past it
        }
        gep_obs::counter_add("serve.connections", 1);
        shared.open.fetch_add(1, Ordering::Relaxed);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
        let conn_shared = Arc::clone(&shared);
        let _ = std::thread::Builder::new()
            .name("gep-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &conn_shared, conn_id);
                conn_shared.open.fetch_sub(1, Ordering::Relaxed);
            });
    }
}

fn stats_ticker(shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::Acquire) {
        publish_stats(&shared);
        std::thread::sleep(Duration::from_millis(200));
    }
    publish_stats(&shared); // final values for the flight file's flush
}

/// The *sole* writer of the point-in-time `serve.*` gauges (see the
/// module docs' gauge discipline). Runs on the ticker thread only.
fn publish_stats(shared: &Shared) {
    let snap = shared.cache.snapshot();
    gep_obs::gauge_set("serve.cache_age_s", snap.solved_at.elapsed().as_secs_f64());
    gep_obs::gauge_set("serve.epoch", snap.epoch as f64);
    gep_obs::gauge_set("serve.batch_depth", shared.cache.batch_depth() as f64);
    gep_obs::gauge_set(
        "serve.connections.open",
        shared.open.load(Ordering::Relaxed) as f64,
    );
}

/// The per-op query counter (additive — safe from connection threads).
fn op_counter(op: &str) -> &'static str {
    match op {
        "dist" => "serve.queries.dist",
        "path" => "serve.queries.path",
        "reach" => "serve.queries.reach",
        "mutate" => "serve.queries.mutate",
        "status" => "serve.queries.status",
        "metrics" => "serve.queries.metrics",
        _ => "serve.queries.other",
    }
}

/// The op label requests are metered under. `Request::op_name` for
/// parseable requests; the handler passes `"invalid"` otherwise.
fn op_label(parsed: &Result<Request, String>) -> &'static str {
    match parsed {
        Ok(req) => req.op_name(),
        Err(_) => "invalid",
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared, conn_id: u64) -> std::io::Result<()> {
    stream.set_nodelay(true)?; // latency over throughput for tiny frames
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut req_seq = 0u64;
    while let Some((body, t0)) = read_frame_raw(&mut reader)? {
        let t_read = Instant::now();
        if shared.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        req_seq += 1;

        // Parse phase: bytes -> JSON -> request + trace envelope. A bad
        // trace id fails the request (the client asked for an echo the
        // server can't give) but never the connection.
        let (parsed, trace) = match Json::parse(&body) {
            Ok(frame) => {
                let parsed = Request::from_json(&frame);
                match request_trace(&frame) {
                    Ok(Some(t)) => (parsed, t.to_string()),
                    Ok(None) => (parsed, format!("s{conn_id}-{req_seq}")),
                    Err(e) => (parsed.and(Err(e)), format!("s{conn_id}-{req_seq}")),
                }
            }
            Err(e) => (
                Err(format!("frame not JSON: {e}")),
                format!("s{conn_id}-{req_seq}"),
            ),
        };
        let op = op_label(&parsed);
        let t_parse = Instant::now();

        // Snapshot phase: one read lock + Arc clone. Taken for every
        // request (errors included) so the error response's epoch is the
        // one the request would have been answered from.
        let snap = shared.cache.snapshot();
        let t_snap = Instant::now();

        // Compute phase: dispatch against the snapshot, bookkeeping,
        // trace echo.
        let resp = match &parsed {
            Ok(req) => dispatch(req, &snap, shared),
            Err(msg) => err_response(snap.epoch, msg),
        };
        gep_obs::counter_add(op_counter(op), 1);
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            shared.served.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        let resp = with_trace(resp, &trace);
        let t_compute = Instant::now();

        // Serialize and write phases, timed apart so a slow client (or
        // full socket buffer) shows up as write time, not compute time.
        let encoded = encode_frame(&resp)?;
        let t_serialize = Instant::now();
        write_encoded(&mut writer, &encoded)?;
        let t_write = Instant::now();

        let phases = PhaseNanos::from_checkpoints(&[
            t0,
            t_read,
            t_parse,
            t_snap,
            t_compute,
            t_serialize,
            t_write,
        ]);
        let metrics = shared.cache.metrics();
        metrics.record_request(op, &phases);
        let total_ns = phases.total();
        if total_ns >= shared.slow_threshold_ns {
            log_slow_request(metrics, op, &trace, snap.epoch, &phases, total_ns);
        }

        if shared.stop.load(Ordering::Acquire) {
            return Ok(()); // shutdown was this very request
        }
    }
    Ok(())
}

/// Emits one structured slow-request event into the flight recorder
/// (best-effort: dropped when no sampler runs), rate-capped through
/// [`ServeMetrics::try_slow_event`].
fn log_slow_request(
    metrics: &ServeMetrics,
    op: &str,
    trace: &str,
    epoch: u64,
    phases: &PhaseNanos,
    total_ns: u64,
) {
    if !metrics.try_slow_event() {
        gep_obs::counter_add("serve.requests.slow_suppressed", 1);
        return;
    }
    gep_obs::counter_add("serve.requests.slow", 1);
    gep_obs::flight_event(
        "slow_request",
        vec![
            ("trace".to_string(), Json::Str(trace.into())),
            ("op".to_string(), Json::Str(op.into())),
            ("epoch".to_string(), Json::Int(epoch as i64)),
            ("total_ns".to_string(), Json::Int(total_ns as i64)),
            ("phases".to_string(), phases.to_json()),
        ],
    );
}

fn dispatch(req: &Request, snap: &Arc<Solved>, shared: &Shared) -> Json {
    let epoch = snap.epoch;
    let check = |u: u32, v: u32| -> Result<(usize, usize), Json> {
        let (u, v) = (u as usize, v as usize);
        if u < snap.n() && v < snap.n() {
            Ok((u, v))
        } else {
            Err(err_response(
                epoch,
                &format!("vertex out of range (n={})", snap.n()),
            ))
        }
    };
    match req {
        Request::Dist { u, v } => match check(*u, *v) {
            Ok((u, v)) => ok_response(
                epoch,
                vec![("dist", snap.dist(u, v).map(Json::Int).unwrap_or(Json::Null))],
            ),
            Err(e) => e,
        },
        Request::Path { u, v } => match check(*u, *v) {
            Ok((u, v)) => match snap.path(u, v) {
                Some(p) => ok_response(
                    epoch,
                    vec![
                        ("dist", snap.dist(u, v).map(Json::Int).unwrap_or(Json::Null)),
                        (
                            "path",
                            Json::Arr(p.into_iter().map(|x| Json::Int(x as i64)).collect()),
                        ),
                    ],
                ),
                None => ok_response(epoch, vec![("dist", Json::Null), ("path", Json::Null)]),
            },
            Err(e) => e,
        },
        Request::Reach { u, v } => match check(*u, *v) {
            Ok((u, v)) => ok_response(epoch, vec![("reach", Json::Bool(snap.reach(u, v)))]),
            Err(e) => e,
        },
        Request::Mutate { edges } => match shared.cache.mutate(edges) {
            Ok(depth) => ok_response(epoch, vec![("pending", Json::Int(depth as i64))]),
            Err(msg) => err_response(epoch, &msg),
        },
        Request::Status => {
            // The per-op latency view: request counts and p50/p99 from
            // the server-side histograms (log-bucket resolution).
            let ops = Json::Obj(
                shared
                    .cache
                    .metrics()
                    .op_summaries()
                    .into_iter()
                    .map(|(op, count, p50, p99)| {
                        (
                            op.to_string(),
                            Json::obj(vec![
                                ("count", Json::Int(count as i64)),
                                ("p50_ns", Json::Int(p50 as i64)),
                                ("p99_ns", Json::Int(p99 as i64)),
                            ]),
                        )
                    })
                    .collect(),
            );
            ok_response(
                epoch,
                vec![
                    ("n", Json::Int(snap.n() as i64)),
                    // Epoch and counts come from the one snapshot, so
                    // `resolves == epoch - 1` in every answer.
                    ("resolves", Json::Int(snap.resolves() as i64)),
                    (
                        "mutations_applied",
                        Json::Int(snap.mutations_applied as i64),
                    ),
                    ("incremental", Json::Int(snap.incremental as i64)),
                    ("batch_depth", Json::Int(shared.cache.batch_depth() as i64)),
                    ("solve_s", Json::from_f64(snap.solve_s)),
                    ("update_s", Json::from_f64(snap.update_s)),
                    (
                        "cache_age_s",
                        Json::from_f64(snap.solved_at.elapsed().as_secs_f64()),
                    ),
                    (
                        "served",
                        Json::Int(shared.served.load(Ordering::Relaxed) as i64),
                    ),
                    ("ops", ops),
                ],
            )
        }
        Request::Metrics => ok_response(epoch, vec![("metrics", build_exposition(snap, shared))]),
        Request::Shutdown => {
            shared.stop.store(true, Ordering::Release);
            ok_response(epoch, vec![("shutting_down", Json::Bool(true))])
        }
    }
}

/// Assembles the live exposition for the `metrics` op: the process-global
/// recorder's counters/gauges/histograms when one is installed, overlaid
/// with the server's own authoritative state — request totals, the
/// snapshot's epoch counts, live gauges and the [`ServeMetrics`]
/// histograms — so a scrape is complete even in a process running
/// without a recorder.
fn build_exposition(snap: &Arc<Solved>, shared: &Shared) -> Json {
    let (mut counters, mut gauges, mut hists) = match gep_obs::metrics_snapshot() {
        Some(s) => (s.counters, s.gauges, s.hists),
        None => (
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::<String, Histogram>::new(),
        ),
    };
    counters.insert(
        "serve.requests.served".into(),
        shared.served.load(Ordering::Relaxed),
    );
    counters.insert(
        "serve.requests.errors".into(),
        shared.errors.load(Ordering::Relaxed),
    );
    counters.insert("serve.resolves".into(), snap.resolves());
    counters.insert("serve.incremental".into(), snap.incremental);
    let (slow, suppressed) = shared.cache.metrics().slow_counts();
    counters.insert("serve.requests.slow".into(), slow);
    counters.insert("serve.requests.slow_suppressed".into(), suppressed);
    gauges.insert("serve.epoch".into(), snap.epoch as f64);
    gauges.insert(
        "serve.cache_age_s".into(),
        snap.solved_at.elapsed().as_secs_f64(),
    );
    gauges.insert(
        "serve.batch_depth".into(),
        shared.cache.batch_depth() as f64,
    );
    gauges.insert(
        "serve.connections.open".into(),
        shared.open.load(Ordering::Relaxed) as f64,
    );
    hists.extend(shared.cache.metrics().histograms());
    gep_obs::exposition(&counters, &gauges, &hists)
}
