//! End-to-end serving tests: a real in-process [`gep_serve::Server`] on
//! an ephemeral localhost port, driven by the real [`gep_serve::loadgen`]
//! over TCP.
//!
//! The two properties the ISSUE's acceptance criteria hinge on:
//!
//! 1. **Epoch monotonicity under concurrent mutation** — every response
//!    on every connection carries an epoch no lower than the previous
//!    one, and post-mutation distances bit-match a from-scratch oracle
//!    solve of the mutated graph (no torn reads across the swap);
//! 2. **Graceful shutdown flushes the flight file** — a server stopped
//!    mid-flight leaves a parseable JSONL flight log whose final flush
//!    sample carries the closing `serve.*` stats.

use std::sync::Mutex;
use std::time::Duration;

use gep_apps::reference::fw_reference;
use gep_core::algebra::{MinPlusI64, UpdateAlgebra, TROPICAL_INF};
use gep_obs::Json;
use gep_serve::graph::{apply_mutations, random_graph, random_mutations};
use gep_serve::loadgen::{self, LoadgenConfig, Mix, Pacing, RunLength};
use gep_serve::protocol::{response_epoch, response_ok, Request};
use gep_serve::server::{Server, ServerConfig};

fn start_server(n: usize, seed: u64) -> std::sync::Arc<Server> {
    Server::start(&ServerConfig::default(), random_graph(n, seed)).expect("server starts")
}

/// The recorder (and flight-event sink) is process-global; tests that
/// install one serialize here so a concurrent test's server can't write
/// counters or events into another's capture window.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn loadgen_over_tcp_answers_every_request_at_epoch_one() {
    let server = start_server(32, 7);
    let report = loadgen::run(&LoadgenConfig {
        addr: server.local_addr(),
        workers: 3,
        pacing: Pacing::Closed,
        length: RunLength::Requests(900),
        mix: Mix::default(),
        seed: 11,
        n: 32,
    })
    .expect("loadgen run");
    assert_eq!(report.total(), 900, "fixed request count is exact");
    assert_eq!(report.errors(), 0);
    assert_eq!((report.epoch_min, report.epoch_max), (1, 1));
    assert_eq!(report.epoch_regressions, 0);
    server.shutdown();
}

#[test]
fn epochs_stay_monotone_and_answers_match_oracle_after_mutation() {
    let n = 48;
    let base = random_graph(n, 3);
    let server = Server::start(&ServerConfig::default(), base.clone()).expect("server starts");
    let addr = server.local_addr();

    // Queries hammer the server while a mutation batch lands mid-run.
    let muts = random_mutations(n, 32, 5);
    let mutator = {
        let muts = muts.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let resp = loadgen::request_once(addr, &Request::Mutate { edges: muts })
                .expect("mutate request");
            assert!(response_ok(&resp), "mutation accepted: {resp:?}");
        })
    };
    let report = loadgen::run(&LoadgenConfig {
        addr,
        workers: 4,
        pacing: Pacing::Closed,
        length: RunLength::Requests(20_000),
        mix: Mix::default(),
        seed: 9,
        n: n as u32,
    })
    .expect("loadgen run");
    mutator.join().unwrap();
    assert_eq!(report.errors(), 0);
    assert_eq!(
        report.epoch_regressions, 0,
        "every connection saw monotone non-decreasing epochs"
    );

    // One mutate request = one batch = exactly one background re-solve.
    server.cache().quiesce();
    let snap = server.cache().snapshot();
    assert_eq!(snap.epoch, 2, "epoch 1 (initial) then exactly one swap");
    assert_eq!(server.cache().stats().resolves, 1);

    // Post-swap answers bit-match an independent from-scratch solve.
    let mut mutated = base;
    apply_mutations(&mut mutated, &muts);
    let oracle = fw_reference(&mutated);
    let inf = TROPICAL_INF;
    for u in 0..n {
        for v in 0..n {
            let want = oracle.get(u, v).min(inf);
            let got = snap.dist(u, v).unwrap_or(inf);
            assert_eq!(got, want, "({u},{v}) after mutation");
        }
    }

    // And the network path agrees with the in-process snapshot.
    for (u, v) in [(0usize, 1usize), (5, 40), (17, 3), (n - 1, 0)] {
        let resp = loadgen::request_once(
            addr,
            &Request::Dist {
                u: u as u32,
                v: v as u32,
            },
        )
        .expect("dist request");
        assert!(response_ok(&resp));
        assert_eq!(response_epoch(&resp), Some(2));
        let want = snap.dist(u, v).map(Json::Int).unwrap_or(Json::Null);
        assert_eq!(resp.get("dist"), Some(&want), "({u},{v}) over TCP");
    }
    server.shutdown();
}

#[test]
fn path_responses_reconstruct_real_shortest_paths_over_tcp() {
    let n = 24;
    let base = random_graph(n, 13);
    let server = Server::start(&ServerConfig::default(), base.clone()).expect("server starts");
    let oracle = fw_reference(&base);
    let inf = TROPICAL_INF;
    for u in 0..n {
        for v in 0..n {
            let resp = loadgen::request_once(
                server.local_addr(),
                &Request::Path {
                    u: u as u32,
                    v: v as u32,
                },
            )
            .expect("path request");
            assert!(response_ok(&resp));
            let want = oracle.get(u, v);
            match resp.get("path") {
                Some(Json::Null) | None => {
                    assert!(want >= inf, "({u},{v}) should have a path")
                }
                Some(Json::Arr(steps)) => {
                    let path: Vec<usize> =
                        steps.iter().map(|s| s.as_u64().unwrap() as usize).collect();
                    assert_eq!(path[0], u);
                    assert_eq!(*path.last().unwrap(), v);
                    let total: i64 = path
                        .windows(2)
                        .map(|e| base.get(e[0], e[1]))
                        .fold(0, MinPlusI64::mul);
                    assert_eq!(total, want, "({u},{v}) path weight");
                }
                other => panic!("unexpected path field: {other:?}"),
            }
        }
    }
    server.shutdown();
}

#[test]
fn malformed_and_out_of_range_requests_get_clean_errors() {
    let server = start_server(8, 1);
    let addr = server.local_addr();
    let resp = loadgen::request_once(addr, &Request::Dist { u: 0, v: 99 }).unwrap();
    assert!(!response_ok(&resp));
    assert!(resp
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("out of range"));
    // A raw frame that parses as JSON but not as a request.
    {
        use gep_serve::protocol::{read_frame, write_frame};
        use std::io::{BufReader, BufWriter};
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        write_frame(&mut w, &Json::obj(vec![("op", Json::Str("warp".into()))])).unwrap();
        let resp = read_frame(&mut r).unwrap().unwrap();
        assert!(!response_ok(&resp));
        // The connection survives the bad request.
        write_frame(&mut w, &Request::Status.to_json()).unwrap();
        assert!(response_ok(&read_frame(&mut r).unwrap().unwrap()));
    }
    let (_, errors) = server.request_totals();
    assert!(errors >= 2);
    server.shutdown();
}

/// Path reconstruction and the Dijkstra oracles assume no negative
/// cycles, so negative weights are refused at both doors: `Server::start`
/// returns an error, and `mutate` answers a clean `ok:false` frame that
/// leaves the connection open and the graph unchanged.
#[test]
fn negative_weights_are_rejected_cleanly() {
    use gep_serve::protocol::{read_frame, write_frame};
    use std::io::{BufReader, BufWriter};

    let mut bad = random_graph(8, 4);
    bad.set(2, 5, -7);
    let err = Server::start(&ServerConfig::default(), bad)
        .err()
        .expect("start refuses");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("negative"), "{err}");

    let server = start_server(8, 4);
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = BufWriter::new(stream);
    let mutate = Request::Mutate {
        edges: vec![(0, 1, 3), (1, 2, -1)],
    };
    write_frame(&mut w, &mutate.to_json()).unwrap();
    let resp = read_frame(&mut r).unwrap().unwrap();
    assert!(!response_ok(&resp));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("negative"),
        "{resp:?}"
    );
    // Same connection, next request: still served, still epoch 1.
    write_frame(&mut w, &Request::Path { u: 0, v: 1 }.to_json()).unwrap();
    let resp = read_frame(&mut r).unwrap().unwrap();
    assert!(response_ok(&resp));
    assert_eq!(response_epoch(&resp), Some(1));
    server.cache().quiesce();
    assert_eq!(server.cache().stats().resolves, 0, "nothing was applied");
    server.shutdown();
}

#[test]
fn graceful_shutdown_flushes_final_flight_sample() {
    // Other tests in this binary may still share the process-global
    // recorder (loadgen runs bump counters), so assert floors, not
    // exact values, on `serve.*` keys we publish ourselves.
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    gep_obs::install(gep_obs::Recorder::new());
    let dir = std::env::temp_dir().join(format!("gep_serve_flight_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let flight = dir.join("flight.jsonl");
    let sampler = gep_obs::Sampler::start(gep_obs::SamplerConfig::new(&flight)).unwrap();

    let server = start_server(16, 5);
    let addr = server.local_addr();
    for _ in 0..50 {
        let resp = loadgen::request_once(addr, &Request::Dist { u: 1, v: 2 }).unwrap();
        assert!(response_ok(&resp));
    }
    let resp = loadgen::request_once(addr, &Request::Shutdown).unwrap();
    assert!(response_ok(&resp));
    assert!(server.shutdown_requested(), "client shutdown observed");
    server.shutdown();
    sampler.stop(); // must write the final flush sample

    let log = gep_obs::read_flight_file(&flight).expect("flight file parses");
    assert!(!log.torn_tail, "clean stop leaves no torn tail");
    let last_idx = log.samples.len().checked_sub(1).expect("flush sample");
    // Other tests in this binary share the process-global recorder, so
    // assert presence and a sane floor rather than exact values.
    let epoch = log.gauge(last_idx, "serve.epoch").expect("epoch gauge");
    assert!(epoch >= 1.0, "final sample carries serve.* gauges");
    // The stats ticker — not the cache or connection threads — owns the
    // point-in-time gauges, and its final publish runs before shutdown
    // returns, so batch depth is present (and drained to zero).
    let depth = log
        .gauge(last_idx, "serve.batch_depth")
        .expect("batch_depth gauge published by the stats ticker");
    assert_eq!(depth, 0.0, "no pending mutations at shutdown");
    let counters = log.samples[last_idx]
        .get("counters")
        .expect("counters object");
    assert!(
        counters
            .get("serve.queries.dist")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 50,
        "final sample carries the query counters: {counters:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
    let _ = gep_obs::take();
}

#[test]
fn trace_ids_round_trip_and_reject_malformed() {
    use gep_serve::protocol::{
        read_frame, response_trace, with_trace, write_frame, MAX_TRACE_BYTES,
    };
    use std::io::{BufReader, BufWriter};

    let server = start_server(8, 2);
    let addr = server.local_addr();
    let connect = || {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let r = BufReader::new(stream.try_clone().unwrap());
        let w = BufWriter::new(stream);
        (r, w)
    };

    // A client-supplied trace id is echoed verbatim.
    let (mut r, mut w) = connect();
    let req = with_trace(Request::Dist { u: 0, v: 1 }.to_json(), "client-trace.01");
    write_frame(&mut w, &req).unwrap();
    let resp = read_frame(&mut r).unwrap().unwrap();
    assert!(response_ok(&resp));
    assert_eq!(response_trace(&resp), Some("client-trace.01"));

    // Without one, the server assigns an id unique per request...
    write_frame(&mut w, &Request::Status.to_json()).unwrap();
    let a = read_frame(&mut r).unwrap().unwrap();
    write_frame(&mut w, &Request::Status.to_json()).unwrap();
    let b = read_frame(&mut r).unwrap().unwrap();
    let ta = response_trace(&a).expect("assigned trace").to_string();
    let tb = response_trace(&b).expect("assigned trace").to_string();
    assert!(ta.starts_with('s') && tb.starts_with('s'), "{ta} / {tb}");
    assert_ne!(ta, tb, "server-assigned ids are unique per request");

    // ...and with a connection-distinguishing prefix.
    let (mut r2, mut w2) = connect();
    write_frame(&mut w2, &Request::Status.to_json()).unwrap();
    let c = read_frame(&mut r2).unwrap().unwrap();
    let tc = response_trace(&c).expect("assigned trace").to_string();
    let prefix = |t: &str| t.split('-').next().unwrap().to_string();
    assert_ne!(
        prefix(&ta),
        prefix(&tc),
        "distinct connections get distinct prefixes"
    );

    // A non-string trace fails the request with a trace-specific error —
    // but never the connection.
    let bad_int = match Request::Status.to_json() {
        Json::Obj(mut fields) => {
            fields.push(("trace".into(), Json::Int(7)));
            Json::Obj(fields)
        }
        other => other,
    };
    write_frame(&mut w, &bad_int).unwrap();
    let resp = read_frame(&mut r).unwrap().unwrap();
    assert!(!response_ok(&resp));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("trace"),
        "error names the trace envelope: {resp:?}"
    );

    // Same for an oversized id.
    let oversized = "x".repeat(MAX_TRACE_BYTES + 1);
    write_frame(&mut w, &with_trace(Request::Status.to_json(), &oversized)).unwrap();
    let resp = read_frame(&mut r).unwrap().unwrap();
    assert!(!response_ok(&resp));

    // The connection survived both rejections.
    write_frame(&mut w, &Request::Status.to_json()).unwrap();
    assert!(response_ok(&read_frame(&mut r).unwrap().unwrap()));
    server.shutdown();
}

#[test]
fn metrics_op_exposes_per_op_phase_histograms_and_status_quantiles() {
    use gep_serve::PHASES;

    let server = start_server(16, 3);
    let addr = server.local_addr();
    for i in 0..40u32 {
        let resp = loadgen::request_once(
            addr,
            &Request::Dist {
                u: i % 16,
                v: (i + 1) % 16,
            },
        )
        .unwrap();
        assert!(response_ok(&resp));
    }
    for _ in 0..5 {
        let resp = loadgen::request_once(addr, &Request::Path { u: 0, v: 9 }).unwrap();
        assert!(response_ok(&resp));
    }

    // Phase samples are recorded *after* the response is written, so
    // settle until the server's own count catches up with ours.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let exposition = loop {
        let doc = loadgen::scrape_metrics(addr).expect("metrics scrape");
        let dist_count = gep_obs::exposition_hist_stat(&doc, "serve.req_ns.dist", "count");
        if dist_count == Some(40) {
            break doc;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never recorded all 40 dist requests: {dist_count:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    gep_obs::validate_exposition(&exposition).expect("exposition validates");
    for phase in PHASES {
        assert_eq!(
            gep_obs::exposition_hist_stat(
                &exposition,
                &format!("serve.phase_ns.dist.{phase}"),
                "count"
            ),
            Some(40),
            "every dist request contributed a {phase} sample"
        );
    }
    assert_eq!(
        gep_obs::exposition_hist_stat(&exposition, "serve.req_ns.path", "count"),
        Some(5)
    );
    assert!(
        exposition
            .get("histograms")
            .and_then(|h| h.get("serve.mutation.staleness_ns"))
            .is_none(),
        "no mutations yet -> no freshness series"
    );

    // The status op carries the same per-op quantile summaries.
    let status = loadgen::request_once(addr, &Request::Status).unwrap();
    assert!(response_ok(&status));
    let dist_ops = status
        .get("ops")
        .and_then(|ops| ops.get("dist"))
        .expect("status.ops.dist");
    assert_eq!(dist_ops.get("count").and_then(Json::as_u64), Some(40));
    assert!(dist_ops.get("p50_ns").and_then(Json::as_u64).unwrap() > 0);
    assert!(
        dist_ops.get("p99_ns").and_then(Json::as_u64).unwrap()
            >= dist_ops.get("p50_ns").and_then(Json::as_u64).unwrap()
    );

    // One accepted mutation, once visible, yields one staleness sample.
    let edges = random_mutations(16, 4, 99);
    let resp = loadgen::request_once(addr, &Request::Mutate { edges }).unwrap();
    assert!(response_ok(&resp));
    server.cache().quiesce();
    let doc = loadgen::scrape_metrics(addr).expect("metrics scrape after mutation");
    assert_eq!(
        gep_obs::exposition_hist_stat(&doc, "serve.mutation.staleness_ns", "count"),
        Some(1),
        "one mutate call -> one staleness sample"
    );
    server.shutdown();
}

#[test]
fn slow_request_flight_events_attribute_phases_that_sum_to_total() {
    use gep_serve::protocol::{read_frame, with_trace, write_frame};
    use std::io::{BufReader, BufWriter};

    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    gep_obs::install(gep_obs::Recorder::new());
    let dir = std::env::temp_dir().join(format!("gep_serve_slow_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let flight = dir.join("flight.jsonl");
    let sampler = gep_obs::Sampler::start(gep_obs::SamplerConfig::new(&flight)).unwrap();

    // Threshold zero: every request is "slow", so one probe suffices.
    let config = ServerConfig {
        slow_threshold: Duration::ZERO,
        ..ServerConfig::default()
    };
    let server = Server::start(&config, random_graph(16, 5)).expect("server starts");
    let addr = server.local_addr();
    {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        let req = with_trace(Request::Dist { u: 3, v: 7 }.to_json(), "slow-probe");
        write_frame(&mut w, &req).unwrap();
        assert!(response_ok(&read_frame(&mut r).unwrap().unwrap()));
    }
    server.shutdown();
    sampler.stop();

    let log = gep_obs::read_flight_file(&flight).expect("flight file parses");
    let event = log
        .events
        .iter()
        .find(|e| {
            e.get("event").and_then(Json::as_str) == Some("slow_request")
                && e.get("trace").and_then(Json::as_str) == Some("slow-probe")
        })
        .expect("slow_request event for the probe");
    assert_eq!(event.get("op").and_then(Json::as_str), Some("dist"));
    assert_eq!(event.get("epoch").and_then(Json::as_u64), Some(1));
    let total = event
        .get("total_ns")
        .and_then(Json::as_u64)
        .expect("total_ns");
    let phases = event.get("phases").expect("phases object");
    let phase_sum: u64 = gep_serve::PHASES
        .iter()
        .map(|p| {
            phases
                .get(&format!("{p}_ns"))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("missing phase {p}: {phases:?}"))
        })
        .sum();
    // The phases are pairwise checkpoint differences, so they telescope:
    // the attribution is exact, not approximate.
    assert_eq!(
        phase_sum, total,
        "phase durations sum to the measured total"
    );
    assert!(total > 0, "a real request takes nonzero time");

    std::fs::remove_dir_all(&dir).ok();
    let _ = gep_obs::take();
}

/// `status` answers the epoch and its counts from one snapshot, so
/// `resolves + 1 == epoch` in every answer; an incremental epoch carries
/// the last full solve's `solve_s` forward and shows in the `metrics`
/// exposition as `serve.incremental` and a `serve.update_ns` sample.
#[test]
fn status_counts_incremental_epochs_from_one_snapshot() {
    let server = start_server(24, 17);
    let addr = server.local_addr();
    let status = || {
        let r = loadgen::request_once(addr, &Request::Status).unwrap();
        assert!(response_ok(&r), "{r:?}");
        let int = |k: &str| r.get(k).and_then(Json::as_u64).unwrap();
        let float = |k: &str| r.get(k).and_then(Json::as_f64).unwrap();
        let counts = (int("epoch"), int("resolves"), int("incremental"));
        assert_eq!(counts.0, counts.1 + 1, "{r:?}");
        (
            counts,
            int("mutations_applied"),
            float("solve_s"),
            float("update_s"),
        )
    };
    let (first, _, solve_s, update_s) = status();
    assert_eq!((first, update_s), ((1, 0, 0), solve_s));

    // Setting an edge to weight 0 can only shorten paths: one
    // relaxation, no solve.
    let snap = server.cache().snapshot();
    let (u, v) = (0..24u32)
        .flat_map(|u| (0..24u32).map(move |v| (u, v)))
        .find(|&(u, v)| snap.dist(u as usize, v as usize) != Some(0))
        .unwrap();
    let resp = loadgen::request_once(
        addr,
        &Request::Mutate {
            edges: vec![(u, v, 0)],
        },
    )
    .unwrap();
    assert!(response_ok(&resp));
    server.cache().quiesce();
    let (counts, applied, carried, update_s) = status();
    assert_eq!((counts, applied, carried), ((2, 1, 1), 1, solve_s));
    assert!(update_s < solve_s, "{update_s} vs {solve_s}");

    // Raising it again: it is now the tight edge u -> v, so a re-solve.
    let resp = loadgen::request_once(
        addr,
        &Request::Mutate {
            edges: vec![(u, v, 1000)],
        },
    )
    .unwrap();
    assert!(response_ok(&resp));
    server.cache().quiesce();
    let ((epoch, _, incremental), applied, solve_s, update_s) = status();
    assert_eq!((epoch, incremental, applied, update_s), (3, 1, 2, solve_s));

    let doc = loadgen::scrape_metrics(addr).expect("metrics scrape");
    let counter = |k: &str| {
        doc.get("counters")
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
    };
    assert_eq!(
        (counter("serve.resolves"), counter("serve.incremental")),
        (Some(2), Some(1))
    );
    assert_eq!(
        gep_obs::exposition_hist_stat(&doc, "serve.update_ns", "count"),
        Some(1)
    );
    server.shutdown();
}
