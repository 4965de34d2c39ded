//! The gep-serve workloads: `serve-read` and `serve-write`.
//!
//! A session starts `gep_serve::Server` on a seeded sparse digraph and
//! drives it over its TCP protocol: one reader connection runs an open
//! loop at [`QPS`] requests per second, timing each request from its due
//! time, and for `serve-write` a second connection sends one single-edge
//! `mutate` every [`MUTATE_EVERY`] and polls `status` every
//! [`POLL_EVERY`] to see when each becomes visible. Every response is
//! checked: no error frames, epochs monotone per connection, every `path`
//! answer a real walk of the graph of its epoch whose weight is the
//! answered distance, and after a quiesce the final snapshot equals
//! Dijkstra on the benchmark's own copy of the graph.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gep_apps::FwPredSpec;
use gep_matrix::{next_pow2, Matrix};
use gep_obs::Json;
use gep_serve::{Server, ServerConfig, Solved};

use crate::gen::{self, Mutation, Op, NO_EDGE};
use crate::host::{self, Spans};
use crate::metrics::{Outcome, THREADS};
use crate::solve::{engine_seconds, run_engine, ENGINE_RUNS};
use crate::stats::Dist;

/// Out-degree of every vertex of the served graph.
pub const DEGREE: usize = 8;
/// Open-loop read rate of the reader connection.
pub const QPS: u64 = 4000;
/// The reader sleeps until this long before each due time, then spins.
const SPIN: Duration = Duration::from_micros(80);
pub const MUTATE_EVERY: Duration = Duration::from_millis(125);
const POLL_EVERY: Duration = Duration::from_millis(1);
/// Sources the final snapshot is checked from.
const ORACLE_SOURCES: usize = 32;
/// How long after the window mutations may take to become visible.
const VISIBLE_WITHIN: Duration = Duration::from_secs(30);
/// The protocol's frame size limit.
const MAX_FRAME: usize = 1 << 20;

/// Unmeasured open-loop reads before each window, so connection
/// buffers and the snapshot's pages are warm when timing starts.
const WARMUP: Duration = Duration::from_secs(1);
/// Seed offset of the warm-up's query stream.
const WARMUP_STREAM: u64 = 0x5741_524d;

/// Index, among the CPUs the process may use, of the load generator's CPU
/// and of the server's.
const CLIENT_CPU: usize = 0;
const SERVER_CPU: usize = 1;

/// Pins the calling thread to the `role`-th CPU the process may use.
/// On two cores, unpinned round trips are bimodal from run to run —
/// about 15 µs when the client and the server's connection thread happen
/// to share a CPU, 30 µs when they do not — and a re-solve lands on
/// either core. Pinned, every run sees one arrangement: the server,
/// every thread it spawns included, on one CPU, the load on the other.
fn pin(role: usize) {
    if host::parallelism() >= THREADS {
        if let Some(&cpu) = host::allowed_cpus().get(role) {
            host::pin_current_thread(cpu);
        }
    }
}

fn interval() -> Duration {
    Duration::from_nanos(1_000_000_000 / QPS)
}

/// One connection speaking the length-prefixed JSON frames of gep-serve.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn call(&mut self, body: &str) -> Result<Json, String> {
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
        frame.extend_from_slice(body.as_bytes());
        self.writer
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))?;
        let mut len = [0u8; 4];
        self.reader
            .read_exact(&mut len)
            .map_err(|e| format!("receive: {e}"))?;
        let len = u32::from_be_bytes(len) as usize;
        if len > MAX_FRAME {
            return Err(format!("response frame of {len} bytes"));
        }
        let mut buf = vec![0u8; len];
        self.reader
            .read_exact(&mut buf)
            .map_err(|e| format!("receive: {e}"))?;
        let text = String::from_utf8(buf).map_err(|e| format!("response not UTF-8: {e}"))?;
        let resp = Json::parse(&text).map_err(|e| format!("response not JSON: {e}"))?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("error frame: {text}"));
        }
        Ok(resp)
    }
}

fn field(resp: &Json, key: &str) -> Result<u64, String> {
    resp.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response lacks integer '{key}': {resp}"))
}

/// A `path` answer, kept to be checked against the graph of its epoch.
struct PathAnswer {
    epoch: u64,
    u: usize,
    v: usize,
    dist: Option<i64>,
    path: Option<Vec<usize>>,
}

impl PathAnswer {
    fn parse(resp: &Json, u: u32, v: u32) -> Result<PathAnswer, String> {
        let dist = resp.get("dist").and_then(Json::as_i64);
        let path = match resp.get("path") {
            Some(Json::Arr(hops)) => Some(
                hops.iter()
                    .map(|h| h.as_u64().map(|x| x as usize))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| format!("path hops not vertices: {resp}"))?,
            ),
            _ => None,
        };
        Ok(PathAnswer {
            epoch: field(resp, "epoch")?,
            u: u as usize,
            v: v as usize,
            dist,
            path,
        })
    }
}

/// What the reader connection saw.
#[derive(Default)]
struct ReadLog {
    /// Seconds from each request's due time to its response, per op.
    latency: BTreeMap<&'static str, Vec<f64>>,
    /// Requests sent a whole interval or more after their due time.
    late: usize,
    queries: Vec<(Op, u32, u32)>,
    paths: Vec<PathAnswer>,
    failures: Vec<String>,
}

impl ReadLog {
    fn all(&self) -> Dist {
        Dist::new(self.latency.values().flatten().copied().collect())
    }

    fn op(&self, op: Op) -> Dist {
        Dist::new(self.latency.get(op.name()).cloned().unwrap_or_default())
    }

    fn count(&self) -> usize {
        self.latency.values().map(Vec::len).sum()
    }
}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    // Yield rather than spin, so the other load-generator thread, which
    // shares this CPU, is not held off.
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn read_loop(
    client: &mut Client,
    n: usize,
    seed: u64,
    start: Instant,
    window: Duration,
    spans: &mut Option<Spans>,
) -> ReadLog {
    let mut queries = gen::Queries::new(n, seed);
    let mut log = ReadLog::default();
    let mut last_epoch = 0;
    let end = start + window;
    for i in 0u32.. {
        let due = start + interval() * i;
        if due >= end {
            break;
        }
        wait_until(due);
        let (op, u, v) = queries.next_query();
        let body = format!(r#"{{"op":"{}","u":{u},"v":{v}}}"#, op.name());
        let sent = Instant::now();
        let resp = client.call(&body);
        let done = Instant::now();
        log.queries.push((op, u, v));
        if sent - due >= interval() {
            log.late += 1;
        }
        log.latency
            .entry(op.name())
            .or_default()
            .push((done - due).as_secs_f64());
        if let Some(s) = spans {
            s.record(op.name(), "read", 1, sent, done - sent);
        }
        let checked = resp.and_then(|r| {
            let epoch = field(&r, "epoch")?;
            if epoch < last_epoch {
                return Err(format!("epoch went back from {last_epoch} to {epoch}"));
            }
            last_epoch = epoch;
            if op == Op::Path {
                log.paths.push(PathAnswer::parse(&r, u, v)?);
            }
            Ok(())
        });
        if let Err(e) = checked {
            log.failures.push(format!("{} {u} {v}: {e}", op.name()));
            if e.starts_with("send") || e.starts_with("receive") {
                break;
            }
        }
    }
    log
}

/// What the mutating connection saw.
#[derive(Default)]
struct WriteLog {
    sent: usize,
    /// Seconds from each mutate's send to the first `status` showing it.
    staleness: Vec<f64>,
    /// Mutations folded into each epoch, from consistent `status` reads.
    applied_at: BTreeMap<u64, u64>,
    /// `status.solve_s` of every epoch after the first: the re-solves.
    resolve_s: BTreeMap<u64, f64>,
    failures: Vec<String>,
}

fn write_loop(
    client: &mut Client,
    muts: &[Mutation],
    start: Instant,
    window: Duration,
    spans: &mut Option<Spans>,
) -> WriteLog {
    let mut log = WriteLog::default();
    let mut sent_at: Vec<Instant> = Vec::with_capacity(muts.len());
    let mut tick = start;
    loop {
        let now = Instant::now();
        let k = sent_at.len();
        if k < muts.len() && now < start + window && now >= start + MUTATE_EVERY * k as u32 {
            let (u, v, w) = muts[k];
            let t = Instant::now();
            let resp = client.call(&format!(r#"{{"op":"mutate","edges":[[{u},{v},{w}]]}}"#));
            if let Some(s) = spans {
                s.record("mutate", "write", 2, t, t.elapsed());
            }
            if let Err(e) = resp {
                log.failures.push(format!("mutate {u} {v} {w}: {e}"));
                break;
            }
            sent_at.push(t);
        }
        let status = client.call(r#"{"op":"status"}"#).and_then(|r| {
            let seen = Instant::now();
            let epoch = field(&r, "epoch")?;
            let applied = field(&r, "mutations_applied")?;
            // `status` reads the snapshot before the counters, so a
            // re-solve published in between shows up as one resolve too
            // many; only a read with `resolves == epoch - 1` maps this
            // epoch to its mutation count.
            if field(&r, "resolves")? + 1 == epoch {
                log.applied_at.insert(epoch, applied);
                if epoch > 1 {
                    let solve_s = r.get("solve_s").and_then(Json::as_f64);
                    log.resolve_s.insert(epoch, solve_s.unwrap_or(f64::NAN));
                }
            }
            Ok((seen, applied as usize))
        });
        let (seen, applied) = match status {
            Ok(s) => s,
            Err(e) => {
                log.failures.push(format!("status: {e}"));
                break;
            }
        };
        while log.staleness.len() < applied.min(sent_at.len()) {
            let sent = sent_at[log.staleness.len()];
            if let Some(s) = spans {
                s.record("mutate-to-visible", "write", 3, sent, seen - sent);
            }
            log.staleness.push((seen - sent).as_secs_f64());
        }
        let sending_done = sent_at.len() == muts.len() || now >= start + window;
        if sending_done && log.staleness.len() == sent_at.len() {
            break;
        }
        if now >= start + window + VISIBLE_WITHIN {
            log.failures.push(format!(
                "{} of {} mutations not visible {VISIBLE_WITHIN:?} after the window",
                sent_at.len() - log.staleness.len(),
                sent_at.len()
            ));
            break;
        }
        tick = (tick + POLL_EVERY).max(now);
        wait_until(tick);
    }
    log.sent = sent_at.len();
    log
}

/// Single-source shortest distances by dense Dijkstra (weights are
/// non-negative), the oracle for the server's final snapshot.
pub fn dijkstra(g: &Matrix<i64>, s: usize) -> Vec<i64> {
    let n = g.n();
    let mut dist = vec![NO_EDGE; n];
    let mut done = vec![false; n];
    dist[s] = 0;
    while let Some(u) = (0..n)
        .filter(|&v| !done[v] && dist[v] < NO_EDGE)
        .min_by_key(|&v| dist[v])
    {
        done[u] = true;
        for (v, &w) in g.row(u).iter().enumerate() {
            if w < NO_EDGE && dist[u] + w < dist[v] {
                dist[v] = dist[u] + w;
            }
        }
    }
    dist
}

/// Checks each `path` answer against the graph its epoch was solved from:
/// the base graph plus the first `applied_at[epoch]` mutations.
fn check_paths(
    base: &Matrix<i64>,
    muts: &[Mutation],
    applied_at: &BTreeMap<u64, u64>,
    paths: &[PathAnswer],
    out: &mut Outcome,
) {
    let mut history: HashMap<(usize, usize), Vec<(usize, i64)>> = HashMap::new();
    for (idx, &(u, v, w)) in muts.iter().enumerate() {
        history
            .entry((u as usize, v as usize))
            .or_default()
            .push((idx, w));
    }
    for p in paths {
        out.check(
            (|| {
                let applied = *applied_at
                    .get(&p.epoch)
                    .ok_or_else(|| format!("epoch {} never seen by status", p.epoch))?
                    as usize;
                let weight = |a: usize, b: usize| {
                    history
                        .get(&(a, b))
                        .and_then(|h| h.iter().rev().find(|(idx, _)| *idx < applied))
                        .map_or(base[(a, b)], |&(_, w)| w)
                };
                match (p.dist, &p.path) {
                    (None, None) => Ok(()),
                    (Some(d), Some(path)) => {
                        let ends = (path.first(), path.last()) == (Some(&p.u), Some(&p.v));
                        let mut total = 0i64;
                        for hop in path.windows(2) {
                            let w = if hop[0] == hop[1] {
                                NO_EDGE
                            } else {
                                weight(hop[0], hop[1])
                            };
                            if w >= NO_EDGE {
                                return Err(format!("path {path:?} uses a missing edge"));
                            }
                            total += w;
                        }
                        if ends && total == d {
                            Ok(())
                        } else {
                            Err(format!("path {path:?} weighs {total}, answer {d}"))
                        }
                    }
                    _ => Err("path and dist disagree on reachability".into()),
                }
            })()
            .map_err(|e| format!("path {} {} at epoch {}: {e}", p.u, p.v, p.epoch)),
        );
    }
}

/// Mean nanoseconds of `Solved::dist` or `Solved::path` over the
/// session's queries of that op, on the final snapshot.
fn lookup_ns(snap: &Solved, queries: &[(Op, u32, u32)], op: Op) -> f64 {
    let picked: Vec<(usize, usize)> = queries
        .iter()
        .filter(|q| q.0 == op)
        .map(|&(_, u, v)| (u as usize, v as usize))
        .collect();
    let t = Instant::now();
    for &(u, v) in &picked {
        match op {
            Op::Path => drop(black_box(snap.path(black_box(u), black_box(v)))),
            _ => drop(black_box(snap.dist(black_box(u), black_box(v)))),
        }
    }
    t.elapsed().as_nanos() as f64 / picked.len().max(1) as f64
}

/// One server's life: start, a window of load, quiesce, checks, shutdown.
struct Session {
    setup_s: f64,
    initial_solve_s: f64,
    reads: ReadLog,
    writes: WriteLog,
    resolves: u64,
    cpu_util: f64,
    /// Mean lookup nanoseconds for `dist` and `path`.
    lookup: (f64, f64),
}

struct Plan {
    n: usize,
    seed: u64,
    window: Duration,
    writes: bool,
}

/// Runs one session on a thread pinned to the server's CPU, which every
/// thread the server spawns inherits.
fn session(plan: &Plan, spans: &mut Option<Spans>, out: &mut Outcome) -> Option<Session> {
    std::thread::scope(|s| {
        s.spawn(|| {
            pin(SERVER_CPU);
            run_session(plan, spans, out)
        })
        .join()
        .expect("session thread")
    })
}

fn run_session(plan: &Plan, spans: &mut Option<Spans>, out: &mut Outcome) -> Option<Session> {
    let base = gen::sparse_digraph(plan.n, DEGREE, plan.seed);
    let muts = if plan.writes {
        let count = (plan.window.as_nanos() / MUTATE_EVERY.as_nanos()) as usize;
        gen::mutations(&base, count, plan.seed)
    } else {
        Vec::new()
    };
    let (server, mut reader, setup_s, initial_solve_s) = start(&base, out)?;
    let mut writer = if plan.writes {
        match Client::connect(server.local_addr()) {
            Ok(c) => Some(c),
            Err(e) => {
                out.check(Err(format!("connect: {e}")));
                server.shutdown();
                return None;
            }
        }
    } else {
        None
    };

    let (cpu0, t0) = (host::cpu_seconds(), Instant::now());
    let start = t0 + WARMUP;
    let mut read_spans = spans.as_ref().map(Spans::fork);
    let mut write_spans = spans.as_ref().map(Spans::fork);
    let (reads, writes) = std::thread::scope(|s| {
        let r = s.spawn(|| {
            pin(CLIENT_CPU);
            read_loop(
                &mut reader,
                plan.n,
                plan.seed ^ WARMUP_STREAM,
                t0,
                WARMUP,
                &mut None,
            );
            read_loop(
                &mut reader,
                plan.n,
                plan.seed,
                start,
                plan.window,
                &mut read_spans,
            )
        });
        let w = writer.as_mut().map(|c| {
            s.spawn(|| {
                pin(CLIENT_CPU);
                write_loop(c, &muts, start, plan.window, &mut write_spans)
            })
        });
        let writes = w.map(|h| h.join().expect("writer thread"));
        (r.join().expect("reader thread"), writes.unwrap_or_default())
    });
    let cpu_util = (host::cpu_seconds() - cpu0) / (THREADS as f64 * t0.elapsed().as_secs_f64());
    if let Some(all) = spans.as_mut() {
        for part in [read_spans, write_spans].into_iter().flatten() {
            all.append(part);
        }
    }
    drop((reader, writer));

    server.cache().quiesce();
    let snap = server.cache().snapshot();
    let resolves = server.cache().stats().resolves;
    for e in reads.failures.iter().chain(&writes.failures) {
        out.failures.push(e.clone());
    }
    out.attempted += (reads.count() + writes.sent) as u64;

    let mut applied_at = writes.applied_at.clone();
    if !plan.writes {
        applied_at.insert(1, 0);
    }
    check_paths(&base, &muts, &applied_at, &reads.paths, out);
    let mut last = base.clone();
    for &(u, v, w) in &muts[..writes.sent] {
        last[(u as usize, v as usize)] = w;
    }
    out.check(
        if server.cache().stats().mutations_applied == writes.sent as u64 {
            Ok(())
        } else {
            Err(format!(
                "{} mutations sent but not all applied",
                writes.sent
            ))
        },
    );
    for s in gen::sources(plan.n, ORACLE_SOURCES, plan.seed) {
        let want = dijkstra(&last, s);
        let wrong = (0..plan.n)
            .filter(|&v| snap.dist(s, v).unwrap_or(NO_EDGE) != want[v])
            .count();
        out.check(if wrong == 0 {
            Ok(())
        } else {
            Err(format!(
                "final snapshot: {wrong} distances from {s} differ from Dijkstra"
            ))
        });
    }
    let lookup = (
        lookup_ns(&snap, &reads.queries, Op::Dist),
        lookup_ns(&snap, &reads.queries, Op::Path),
    );
    server.shutdown();
    Some(Session {
        setup_s,
        initial_solve_s,
        reads,
        writes,
        resolves,
        cpu_util,
        lookup,
    })
}

/// `Server::start` to the first successful response; returns the server,
/// the connection that got the response, the set-up seconds and the
/// initial solve's `status.solve_s`.
fn start(
    base: &Matrix<i64>,
    out: &mut Outcome,
) -> Option<(std::sync::Arc<Server>, Client, f64, f64)> {
    let t = Instant::now();
    let server = match Server::start(&ServerConfig::default(), base.clone()) {
        Ok(s) => s,
        Err(e) => {
            out.check(Err(format!("Server::start: {e}")));
            return None;
        }
    };
    let first = Client::connect(server.local_addr())
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut c| c.call(r#"{"op":"dist","u":0,"v":1}"#).map(|_| c));
    let setup_s = t.elapsed().as_secs_f64();
    let status = first.and_then(|mut c| {
        let r = c.call(r#"{"op":"status"}"#)?;
        let solve_s = r.get("solve_s").and_then(Json::as_f64);
        Ok((
            c,
            solve_s.ok_or_else(|| format!("status lacks solve_s: {r}"))?,
        ))
    });
    out.attempted += 1;
    match status {
        Ok((client, solve_s)) => Some((server, client, setup_s, solve_s)),
        Err(e) => {
            out.failures.push(format!("first response: {e}"));
            server.shutdown();
            None
        }
    }
}

/// A set-up-only run: start, first response, initial solve time, with the
/// server on its CPU as in a measured session.
pub fn setup(n: usize, seed: u64, out: &mut Outcome) {
    let base = gen::sparse_digraph(n, DEGREE, seed);
    std::thread::scope(|s| {
        s.spawn(|| {
            pin(SERVER_CPU);
            if let Some((server, client, setup_s, solve_s)) = start(&base, out) {
                out.set("setup_s", setup_s, 1);
                out.set("solve_s", solve_s, 1);
                drop(client);
                server.shutdown();
            }
        })
        .join()
        .expect("set-up thread")
    });
}

/// One measured run of `serve-read` (`writes == false`) or `serve-write`.
pub fn measure(
    n: usize,
    seed: u64,
    secs: f64,
    writes: bool,
    trace: Option<&mut Spans>,
    out: &mut Outcome,
) {
    let mut plan = Plan {
        n,
        seed,
        window: Duration::from_secs_f64(secs),
        writes,
    };
    let Some(spans) = trace else {
        if let Some(s) = session(&plan, &mut None, out) {
            let all = s.reads.all();
            out.set("setup_s", s.setup_s, 1);
            let resolves = s.writes.resolve_s.values();
            let fastest = resolves.clone().fold(s.initial_solve_s, |m, &v| m.min(v));
            out.set("solve_s", fastest, 1 + resolves.len());
            out.set("latency_p50_ms", all.median() * 1e3, all.len());
        }
        return;
    };
    plan.window /= 2;
    let Some(a) = session(&plan, &mut None, out) else {
        return;
    };
    gep_obs::install(gep_obs::Recorder::counters_only());
    let mut traced_spans = Some(spans.fork());
    let b = session(&plan, &mut traced_spans, out);
    let rec = gep_obs::take().expect("the recorder installed above");
    let Some(b) = b else {
        return;
    };
    spans.append(traced_spans.expect("spans created above"));

    let base = gen::sparse_digraph(n, DEGREE, seed);
    let padded = pred_input(&base);
    let mut engine = |threads| run_engine(&FwPredSpec, &mut padded.clone(), threads);
    let serial = engine_seconds(spans, 1, &mut engine);
    let parallel = engine_seconds(spans, THREADS, &mut engine);

    let solves = 1 + b.resolves as usize;
    crate::layers::set_kernel_and_core(out, &rec, solves, serial, (n, padded.n()));
    out.set("apps.overhead_share", 0.0, 0);
    out.set("parallel.speedup", serial / parallel, 2 * ENGINE_RUNS);
    out.set("parallel.cpu_util", a.cpu_util, 1);
    let resolve = Dist::new(a.writes.resolve_s.values().copied().collect());
    let staleness = Dist::new(a.writes.staleness.clone());
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.set("serve.resolves", a.resolves as f64, 1);
    out.set(
        "serve.edges_per_resolve",
        per(a.writes.sent as f64, a.resolves as f64),
        a.resolves as usize,
    );
    out.set(
        "serve.staleness_per_solve",
        if staleness.len() > 0 && resolve.len() > 0 {
            staleness.median() / resolve.median()
        } else {
            0.0
        },
        staleness.len(),
    );
    let (dist_ns, path_ns) = a.lookup;
    for (name, op, ns) in [
        ("serve.lookup_share.dist", Op::Dist, dist_ns),
        ("serve.lookup_share.path", Op::Path, path_ns),
    ] {
        let reads = a.reads.op(op);
        out.set(name, per(ns, reads.median() * 1e9), reads.len());
    }
    let ops = a.reads.count() + b.reads.count();
    out.set("harness.ops", ops as f64, 1);
    out.set(
        "harness.late_share",
        per((a.reads.late + b.reads.late) as f64, ops as f64),
        ops,
    );
    out.set(
        "obs.trace_overhead_share",
        b.reads.all().median() / a.reads.all().median() - 1.0,
        b.reads.count(),
    );
}

/// The padded `(dist, pred)` matrix the server solves for `base`.
fn pred_input(base: &Matrix<i64>) -> Matrix<(i64, u32)> {
    let n = base.n();
    let none = u32::MAX;
    Matrix::from_fn(next_pow2(n), next_pow2(n), |i, j| {
        if i == j {
            (0, none)
        } else if i < n && j < n && base[(i, j)] < NO_EDGE {
            (base[(i, j)], i as u32)
        } else {
            (NO_EDGE, none)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dijkstra_matches_floyd_warshall() {
        let g = gen::sparse_digraph(40, 3, 9);
        let mut fw = g.clone();
        gep_core::gep_iterative(&gep_apps::FwSpec::<i64>::new(), &mut fw);
        for s in 0..40 {
            assert_eq!(dijkstra(&g, s), fw.row(s), "source {s}");
        }
    }

    #[test]
    fn path_checks_use_the_graph_of_the_answering_epoch() {
        let mut base = Matrix::from_fn(3, 3, |i, j| if i == j { 0 } else { NO_EDGE });
        base[(0, 1)] = 5;
        base[(1, 2)] = 5;
        let muts = vec![(0, 1, 2)];
        let applied_at = BTreeMap::from([(1, 0), (2, 1)]);
        let answer = |epoch, dist| PathAnswer {
            epoch,
            u: 0,
            v: 2,
            dist: Some(dist),
            path: Some(vec![0, 1, 2]),
        };
        let mut out = Outcome::default();
        check_paths(
            &base,
            &muts,
            &applied_at,
            &[answer(1, 10), answer(2, 7)],
            &mut out,
        );
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        check_paths(
            &base,
            &muts,
            &applied_at,
            &[answer(1, 7), answer(3, 7)],
            &mut out,
        );
        assert_eq!(out.failures.len(), 2, "{:?}", out.failures);
        assert_eq!(out.attempted, 4);
    }
}
