//! The reproduction driver: one subcommand per paper figure/table.
//!
//! ```text
//! cargo run -p gep-bench --release --bin repro -- all --quick
//! cargo run -p gep-bench --release --bin repro -- fig8
//! cargo run -p gep-bench --release --bin repro -- all --quick --json
//! cargo run -p gep-bench --release --bin repro -- validate
//! cargo run -p gep-bench --release --bin repro -- trace
//! cargo run -p gep-bench --release --bin repro -- tune --json
//! cargo run -p gep-bench --release --bin repro -- profile --json
//! cargo run -p gep-bench --release --bin repro -- resume --flight flight.jsonl
//! cargo run -p gep-bench --release --bin repro -- watch flight.jsonl
//! ```
//!
//! With `--json`, every experiment also writes a machine-readable
//! `BENCH_<experiment>.json` into `bench_json/` (schema:
//! `gep_obs::bench`); `validate` re-parses and schema-checks the emitted
//! files, which is what CI archives. `trace` records one multithreaded
//! I-GEP run and writes its A/B/C/D call tree as Chrome trace-event JSON
//! (open `bench_json/trace_igep.json` at <https://ui.perfetto.dev>).
//! `profile` attributes one recorded I-GEP solve per recursion depth and
//! box shape, cross-checked exactly against the §3 recurrences.
//! `--flight <path>` streams a flight-recorder JSONL file during any
//! experiment; `watch <path>` tails such a file (from another process)
//! and renders live progress/ETA plus any structured events
//! (`slow_request` lines from a serving run) as they appear.
//! `watch --addr HOST:PORT` instead polls a live `gep-serve` over TCP via
//! the `metrics` op — no flight file needed. `slo` runs the deterministic
//! serving-SLO gate and emits `BENCH_slo.json`. See docs/OBSERVABILITY.md.

use gep_bench::experiments::*;
use gep_bench::{compare, jsonout, trajectory};
use gep_obs::{BenchDoc, Json};

fn fnum(v: f64) -> Json {
    Json::Float(v)
}

fn inum(v: u64) -> Json {
    Json::Int(v as i64)
}

/// The serving rows' `kernel_fallbacks` field: base cases of the served
/// solves that found no specialized kernel (an exact gate at 0). Absent
/// when no recorder ran, as without `--json`.
fn kernel_fallbacks(rec: Option<&gep_obs::Recorder>) -> Option<(&'static str, Json)> {
    rec.map(|r| ("kernel_fallbacks", inum(r.counter("kernels.fallback"))))
}

/// Appends one snapshot of `bench_dir` to the repo-root trajectory file.
/// Best-effort: a missing or metric-less bench dir is reported, not fatal.
fn append_trajectory(bench_dir: &std::path::Path, source: &str, quick: bool) {
    let entry =
        match trajectory::entry_from_dir(bench_dir, source, quick, &gep_bench::util::host_info()) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("trajectory: skipped ({e})");
                return;
            }
        };
    let path = std::path::Path::new(trajectory::TRAJECTORY_FILE);
    match trajectory::append(path, entry) {
        Ok(seq) => println!("appended entry {seq} to {}", path.display()),
        Err(e) => eprintln!("trajectory: cannot append to {}: {e}", path.display()),
    }
}

/// Formats the `progress.*` gauges of the last sample of a flight log as
/// one status line, or reports what is still missing.
fn progress_line(log: &gep_obs::FlightLog) -> (Option<i64>, String) {
    let Some(idx) = log.samples.len().checked_sub(1) else {
        return (None, "no samples yet".into());
    };
    let seq = log.samples[idx].get("seq").and_then(Json::as_i64);
    let g = |name: &str| log.gauge(idx, name);
    let (Some(cursor), Some(total), Some(pct)) = (
        g("progress.cursor"),
        g("progress.total_steps"),
        g("progress.pct"),
    ) else {
        // Not a checkpointed solve — maybe a live `gep-serve --flight`.
        if let Some(epoch) = g("serve.epoch") {
            let mut line = format!("serve: epoch {epoch:.0}");
            if let Some(depth) = g("serve.batch_depth") {
                line += &format!("  batch {depth:.0}");
            }
            if let Some(age) = g("serve.cache_age_s") {
                line += &format!("  cache age {}", gep_bench::util::fmt_secs(age));
            }
            if let Some(open) = g("serve.connections.open") {
                line += &format!("  conns {open:.0}");
            }
            if let Some(solve) = g("serve.resolve_s") {
                line += &format!("  last solve {solve:.3}s");
            }
            return (seq, line);
        }
        return (
            seq,
            "sampling, but no progress.* gauges yet (is a checkpointed solve running?)".into(),
        );
    };
    let mut line = format!("{pct:5.1}%  leaf {cursor:.0}/{total:.0}");
    if let (Some(rate), Some(eta)) = (g("progress.leaves_per_s"), g("progress.eta_s")) {
        line += &format!(
            "  {rate:.0} leaves/s  eta {}",
            gep_bench::util::fmt_secs(eta)
        );
    }
    if let Some(w) = g("progress.io_wait_frac") {
        line += &format!("  io-wait {:.0}%", w * 100.0);
    }
    if let (Some(steps), Some(bytes)) = (
        g("progress.ckpt_lag_steps"),
        g("progress.ckpt_lag_wal_bytes"),
    ) {
        line += &format!("  ckpt-lag {steps:.0} steps/{bytes:.0} B");
    }
    (seq, line)
}

/// One rendered line per structured flight event; `slow_request` gets its
/// trace/op/epoch/total called out, anything else prints its name.
fn event_line(ev: &Json) -> String {
    let name = ev.get("event").and_then(Json::as_str).unwrap_or("?");
    if name == "slow_request" {
        let s = |k: &str| ev.get(k).and_then(Json::as_str).unwrap_or("?");
        let i = |k: &str| ev.get(k).and_then(Json::as_u64).unwrap_or(0);
        return format!(
            "slow_request trace={} op={} epoch={} total {:.2}ms",
            s("trace"),
            s("op"),
            i("epoch"),
            i("total_ns") as f64 / 1e6
        );
    }
    format!("event {name}")
}

/// `repro watch --addr HOST:PORT`: polls a live `gep-serve` over TCP via
/// the `metrics` op and renders one line per scrape — no flight file (or
/// filesystem access to the server) required.
fn watch_addr(addr: &str, once: bool) {
    use std::net::ToSocketAddrs;
    let Some(addr) = addr.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
        eprintln!("watch: address '{addr}' does not resolve");
        std::process::exit(2);
    };
    loop {
        match gep_serve::loadgen::scrape_metrics(addr) {
            Ok(doc) => {
                let counter = |name: &str| {
                    doc.get("counters")
                        .and_then(|c| c.get(name))
                        .and_then(Json::as_u64)
                };
                let gauge = |name: &str| {
                    doc.get("gauges")
                        .and_then(|g| g.get(name))
                        .and_then(Json::as_gauge)
                };
                let mut line = String::from("serve:");
                if let Some(epoch) = gauge("serve.epoch") {
                    line += &format!(" epoch {epoch:.0}");
                }
                if let Some(served) = counter("serve.requests.served") {
                    line += &format!("  served {served}");
                }
                if let Some(p99) = gep_obs::exposition_hist_stat(&doc, "serve.req_ns.dist", "p99") {
                    line += &format!("  dist p99 {:.1}us", p99 as f64 / 1e3);
                }
                if let Some(depth) = gauge("serve.batch_depth") {
                    line += &format!("  batch {depth:.0}");
                }
                if let Some(open) = gauge("serve.connections.open") {
                    line += &format!("  conns {open:.0}");
                }
                if let Some(slow) = counter("serve.requests.slow") {
                    line += &format!("  slow {slow}");
                }
                println!("[scrape] {line}");
            }
            Err(e) => println!("waiting: {e}"),
        }
        if once {
            return;
        }
        std::thread::sleep(std::time::Duration::from_secs(1));
    }
}

/// `repro watch <file>`: tails a flight-recorder file written by another
/// process (`--flight`) and renders live progress, plus structured events
/// (slow-request lines) as they land. Stops at 100%, on `--once` after
/// the first read, or on ctrl-C.
fn watch(path: &std::path::Path, once: bool) {
    let mut last_seq = None;
    let mut last_event_seq = i64::MIN;
    loop {
        match gep_obs::read_flight_file(path) {
            Ok(log) => {
                for ev in &log.events {
                    let seq = ev.get("seq").and_then(Json::as_i64).unwrap_or(i64::MIN);
                    if seq > last_event_seq {
                        println!("[#{seq}] {}", event_line(ev));
                        last_event_seq = seq;
                    }
                }
                let (seq, line) = progress_line(&log);
                if seq != last_seq || seq.is_none() {
                    println!(
                        "[{}{}] {line}",
                        seq.map_or("-".into(), |s| format!("#{s}")),
                        if log.torn_tail { ", torn tail" } else { "" },
                    );
                    last_seq = seq;
                }
                let done = log
                    .samples
                    .len()
                    .checked_sub(1)
                    .and_then(|i| log.gauge(i, "progress.pct"))
                    .is_some_and(|p| p >= 100.0);
                if done {
                    println!("solve complete");
                    return;
                }
            }
            Err(e) => println!("waiting: {e}"),
        }
        if once {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
}

/// Builds the `BENCH_misses.json` document from a sweep outcome.
fn misses_doc(outcome: &misses::MissesOutcome, quick: bool) -> BenchDoc {
    let mut d = BenchDoc::new(
        "misses",
        "Section 4: measured LLC misses vs cachesim vs n^3/(B*sqrt(M))",
        quick,
    )
    .host(&gep_bench::util::host_info());
    for r in &outcome.rows {
        let mut fields = vec![
            ("app", Json::Str(r.app.into())),
            ("engine", Json::Str(r.engine.into())),
            ("backend", Json::Str(r.backend.into())),
            ("n", inum(r.n as u64)),
            ("seconds", fnum(r.seconds)),
            ("bound", fnum(r.bound)),
        ];
        // Absent measurements stay absent — no fake zeros in the schema.
        if let Some(s) = r.sim_llc {
            fields.push(("sim_llc_misses", inum(s)));
        }
        if let Some(ratio) = r.ratio_sim() {
            fields.push(("ratio_sim_over_bound", fnum(ratio)));
        }
        if let Some(hw) = &r.hw {
            for (event, value) in &hw.counts {
                fields.push(match *event {
                    "cycles" => ("hw_cycles", inum(*value)),
                    "instructions" => ("hw_instructions", inum(*value)),
                    "l1d_loads" => ("hw_l1d_loads", inum(*value)),
                    "l1d_misses" => ("hw_l1d_misses", inum(*value)),
                    "llc_loads" => ("hw_llc_loads", inum(*value)),
                    "llc_misses" => ("hw_llc_misses", inum(*value)),
                    "dtlb_misses" => ("hw_dtlb_misses", inum(*value)),
                    "task_clock_ns" => ("hw_task_clock_ns", inum(*value)),
                    "page_faults" => ("hw_page_faults", inum(*value)),
                    "context_switches" => ("hw_context_switches", inum(*value)),
                    _ => continue,
                });
            }
        }
        if let Some(ratio) = r.ratio_hw() {
            fields.push(("ratio_hw_over_bound", fnum(ratio)));
        }
        d.row(fields);
    }
    d.gauge("geometry.llc_bytes", outcome.geometry.llc_bytes as f64);
    d.gauge("geometry.line_bytes", outcome.geometry.line_bytes as f64);
    for (name, c) in &outcome.fits {
        d.gauge(name, *c);
    }
    d
}

fn ooc_doc(name: &str, title: &str, quick: bool, runs: &[fig7::OocRun]) -> BenchDoc {
    let mut d = BenchDoc::new(name, title, quick);
    for r in runs {
        d.row(vec![
            ("engine", Json::Str(r.engine.slug().into())),
            ("m_bytes", inum(r.m_bytes)),
            ("b_bytes", inum(r.b_bytes)),
            ("wait_s", fnum(r.wait_s)),
            ("transfers", inum(r.transfers)),
        ]);
    }
    d
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    // `--flight <path>` takes a value: exclude it from the positionals so
    // the path is not mistaken for the subcommand.
    let flight_idx = args.iter().position(|a| a == "--flight");
    let flight = flight_idx.and_then(|i| args.get(i + 1)).cloned();
    let positional: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && Some(*i) != flight_idx.map(|f| f + 1))
        .map(|(_, a)| a.as_str())
        .collect();
    let what = positional.first().copied().unwrap_or("all");

    let known = [
        "algebras",
        "counterexample",
        "table1",
        "table2",
        "fig7a",
        "fig7b",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "span",
        "space",
        "lemma31",
        "lemma32",
        "layout",
        "misses",
        "profile",
        "resume",
        "serve",
        "slo",
        "tune",
        "compare",
        "validate",
        "trace",
        "watch",
        "all",
    ];
    if !known.contains(&what) {
        eprintln!("unknown experiment '{what}'; one of: {}", known.join(", "));
        std::process::exit(2);
    }

    if what == "validate" {
        match jsonout::validate_all(&jsonout::out_dir()) {
            Ok(count) => println!("{count} BENCH file(s) valid"),
            Err(e) => {
                eprintln!("validation failed: {e}");
                std::process::exit(1);
            }
        }
        // The repo-root trajectory is part of the bench output contract:
        // schema-check it whenever it exists. An entry-less trajectory is
        // a coverage regression — the file only exists because some run
        // was supposed to append to it.
        let traj = std::path::Path::new(trajectory::TRAJECTORY_FILE);
        if traj.exists() {
            let parsed = std::fs::read_to_string(traj)
                .map_err(|e| e.to_string())
                .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()));
            let entries = match parsed.and_then(|doc| {
                trajectory::validate(&doc).map(|()| {
                    doc.get("entries")
                        .and_then(Json::as_arr)
                        .map_or(0, <[_]>::len)
                })
            }) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("validation failed: {}: {e}", traj.display());
                    std::process::exit(1);
                }
            };
            if entries == 0 {
                eprintln!(
                    "validation failed: {}: no entries (coverage regression: \
                     nothing has appended a snapshot)",
                    traj.display()
                );
                std::process::exit(1);
            }
            println!("ok {} ({entries} entries)", traj.display());
        }
        return;
    }

    if what == "watch" {
        let once = args.iter().any(|a| a == "--once");
        if let Some(i) = args.iter().position(|a| a == "--addr") {
            let Some(addr) = args.get(i + 1) else {
                eprintln!("usage: repro watch --addr HOST:PORT [--once]");
                std::process::exit(2);
            };
            watch_addr(addr, once);
            return;
        }
        let Some(path) = positional.get(1) else {
            eprintln!("usage: repro watch <flight-file> [--once] | repro watch --addr HOST:PORT");
            std::process::exit(2);
        };
        watch(std::path::Path::new(path), once);
        return;
    }

    if what == "compare" {
        // repro compare <baseline-dir> [current-dir] [--deterministic]
        let deterministic = args.iter().any(|a| a == "--deterministic");
        let mut dirs = args.iter().filter(|a| !a.starts_with("--")).skip(1);
        let Some(baseline) = dirs.next() else {
            eprintln!("usage: repro compare <baseline-dir> [current-dir] [--deterministic]");
            std::process::exit(2);
        };
        let current = dirs.next().map(String::as_str).unwrap_or(jsonout::OUT_DIR);
        let report = match compare::compare_dirs(
            std::path::Path::new(baseline),
            std::path::Path::new(current),
            deterministic,
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("compare failed: {e}");
                std::process::exit(2);
            }
        };
        compare::print_report(&report);
        append_trajectory(std::path::Path::new(current), "compare", quick);
        if report.has_regressions() {
            std::process::exit(1);
        }
        return;
    }

    if what == "trace" {
        // Base n/16 keeps the span count in the thousands (base 1 at this
        // size would record millions of per-call spans).
        let n = if quick { 128 } else { 512 };
        let base = n / 16;
        let spec = gep_apps::floyd_warshall::FwSpec::<i64>::new();
        let mut c = gep_bench::workloads::random_dist_matrix(n, 8);
        gep_obs::install(gep_obs::Recorder::new());
        gep_parallel::with_threads(4, || gep_parallel::igep_parallel(&spec, &mut c, base));
        let rec = gep_obs::take().expect("recorder was installed");
        print!("{}", gep_obs::summary(&rec));
        let dir = jsonout::out_dir();
        let path = dir.join("trace_igep.json");
        let write = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, gep_obs::chrome_trace_string(&rec)));
        match write {
            Ok(()) => println!(
                "wrote {} ({} spans; open at https://ui.perfetto.dev)",
                path.display(),
                rec.spans.len()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        return;
    }

    // --flight <path>: stream periodic counter/gauge snapshots to a
    // crash-durable JSONL file while the experiments run (`repro watch`
    // tails it from another process). A recorder is installed up front so
    // `progress.*` gauges publish even for experiments that do not
    // install one themselves; experiments that install their own simply
    // replace it and keep being sampled.
    let _flight_sampler = flight.as_ref().and_then(|path| {
        gep_obs::install(gep_obs::Recorder::counters_only());
        match gep_obs::Sampler::start(gep_obs::SamplerConfig::new(path)) {
            Ok(s) => {
                println!("flight recorder streaming to {path}");
                Some(s)
            }
            Err(e) => {
                eprintln!("cannot start flight recorder at {path}: {e}");
                None
            }
        }
    });

    // Experiments below read the recorder with `gep_obs::take()`. With
    // `--flight` active that would leave no recorder installed, so a fast
    // run could end with a header-only flight file (no periodic tick
    // fired, and the sampler's final flush sample finds nothing to
    // snapshot). Putting the recorder back keeps the last published
    // progress gauges visible to the flush sample.
    let flight_active = _flight_sampler.is_some();
    let reinstall = |rec: gep_obs::Recorder| {
        if flight_active {
            gep_obs::install(rec);
        }
    };

    let run = |name: &str| what == "all" || what == name;
    let emit = |doc: &BenchDoc| {
        if json {
            jsonout::emit(doc);
        }
    };

    if what == "tune" {
        // Not part of `all`: a kernel report, not a paper artefact, and
        // the longest sweep (every backend × every base × five apps).
        let points = tune::tune(quick);
        emit(&tune::tune_doc(&points, quick));
        return;
    }

    if run("counterexample") {
        let (g, f, h) = theory::counterexample();
        let mut d = BenchDoc::new(
            "counterexample",
            "Section 2.2.1: the 2x2 instance where I-GEP != GEP",
            quick,
        );
        for (engine, value) in [("G", g), ("F", f), ("H", h)] {
            d.row(vec![
                ("engine", Json::Str(engine.into())),
                ("c21", Json::Int(value)),
            ]);
        }
        emit(&d);
    }
    if run("table1") {
        let ok = theory::table1(if quick { 8 } else { 16 });
        let mut d = BenchDoc::new("table1", "Table 1: operand states read by G and F", quick);
        d.row(vec![("checks_passed", Json::Bool(ok))]);
        emit(&d);
    }
    if run("table2") {
        theory::table2();
        let mut d = BenchDoc::new("table2", "Table 2: machine inventory", quick)
            .host(&gep_bench::util::host_info());
        for m in gep_cachesim::table2_machines() {
            d.row(vec![
                ("model", Json::Str(m.name.into())),
                ("processors", inum(m.processors as u64)),
                ("ghz", fnum(m.ghz)),
                ("peak_gflops", fnum(m.peak_gflops)),
                ("l1_bytes", inum(m.l1.0)),
                ("l2_bytes", inum(m.l2.0)),
                ("ram_bytes", inum(m.ram)),
            ]);
        }
        emit(&d);
    }
    if run("fig7a") {
        let (n, b) = if quick { (128, 128) } else { (256, 256) };
        if json {
            gep_obs::install(gep_obs::Recorder::counters_only());
        }
        let runs = fig7::fig7a(n, b, &[1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0, 1.0 / 2.0]);
        let mut d = ooc_doc(
            "fig7a",
            "Figure 7(a): out-of-core FW, I/O wait vs cache size M",
            quick,
            &runs,
        );
        if let Some(rec) = gep_obs::take() {
            for (k, v) in &rec.counters {
                d.counter(k, *v);
            }
            reinstall(rec);
        }
        emit(&d);
    }
    if run("fig7b") {
        // Fixed M = 1/4 of the matrix; sweep B. Tall cache M >= B²
        // (elements) bounds the largest useful B.
        let n = if quick { 128 } else { 256 };
        let m = (n * n * 8 / 4) as u64;
        let bs: &[u64] = if quick {
            &[64, 128, 256, 512]
        } else {
            &[128, 256, 512, 1024, 2048]
        };
        if json {
            gep_obs::install(gep_obs::Recorder::counters_only());
        }
        let runs = fig7::fig7b(n, m, bs);
        let mut d = ooc_doc(
            "fig7b",
            "Figure 7(b): out-of-core FW, I/O wait vs M/B",
            quick,
            &runs,
        );
        if let Some(rec) = gep_obs::take() {
            for (k, v) in &rec.counters {
                d.counter(k, *v);
            }
            reinstall(rec);
        }
        emit(&d);
    }
    if run("fig8") {
        let sizes: &[usize] = if quick {
            &[128, 256, 512]
        } else {
            &[256, 512, 1024, 2048]
        };
        let rows = fig8::fig8(sizes, if quick { 1 } else { 3 });
        let mut d = BenchDoc::new(
            "fig8",
            "Figure 8: in-core Floyd-Warshall, GEP vs I-GEP",
            quick,
        )
        .host(&gep_bench::util::host_info());
        for r in &rows {
            d.row(vec![
                ("n", inum(r.n as u64)),
                ("gep_s", fnum(r.gep_s)),
                ("igep_s", fnum(r.igep_s)),
                ("speedup", fnum(r.speedup())),
            ]);
        }
        emit(&d);
        // n = 512 i64 = 2 MB: the first power of two above the Xeon's
        // 512 KB L2 (smaller sizes fit and show only compulsory misses).
        let misses = fig8::fig8_misses(&[512]);
        let mut d = BenchDoc::new(
            "fig8_misses",
            "Figure 8 (cache view): L2 misses on the simulated Intel Xeon",
            quick,
        );
        for (n, gep_l2, igep_l2) in misses {
            d.row(vec![
                ("n", inum(n as u64)),
                ("gep_l2_misses", inum(gep_l2)),
                ("igep_l2_misses", inum(igep_l2)),
            ]);
        }
        emit(&d);
    }
    if run("fig9") {
        // 512 caps the sweep: the reduced-space variant's bookkeeping
        // makes larger sizes impractically slow (see EXPERIMENTS.md).
        let sizes: &[usize] = if quick {
            &[64, 128, 256]
        } else {
            &[128, 256, 512]
        };
        let rows = fig9::fig9_time(sizes, if quick { 1 } else { 3 });
        let mut d = BenchDoc::new("fig9", "Figure 9 (time): I-GEP vs C-GEP variants", quick)
            .host(&gep_bench::util::host_info());
        for r in &rows {
            d.row(vec![
                ("n", inum(r.n as u64)),
                ("igep_s", fnum(r.igep_s)),
                ("cgep4_s", fnum(r.cgep4_s)),
                ("cgepr_s", fnum(r.cgepr_s)),
            ]);
        }
        emit(&d);
        let miss_sizes: &[usize] = if quick { &[64, 128] } else { &[128, 256] };
        let misses = fig9::fig9_misses(miss_sizes);
        let mut d = BenchDoc::new(
            "fig9_misses",
            "Figure 9 (L2 misses): simulated Intel Xeon hierarchy",
            quick,
        );
        for (n, igep_l2, cgep_l2) in misses {
            d.row(vec![
                ("n", inum(n as u64)),
                ("igep_l2_misses", inum(igep_l2)),
                ("cgep4_l2_misses", inum(cgep_l2)),
            ]);
        }
        emit(&d);
    }
    if run("fig10") {
        let sizes: &[usize] = if quick {
            &[128, 256, 512]
        } else {
            &[256, 512, 1024, 2048]
        };
        let rows = fig10::fig10(sizes, if quick { 1 } else { 3 });
        let mut d = BenchDoc::new(
            "fig10",
            "Figure 10: Gaussian elimination, GEP vs I-GEP vs blocked baseline",
            quick,
        )
        .host(&gep_bench::util::host_info());
        for r in &rows {
            d.row(vec![
                ("n", inum(r.n as u64)),
                ("gep_s", fnum(r.gep_s)),
                ("igep_s", fnum(r.igep_s)),
                ("blocked_s", fnum(r.blas_s)),
            ]);
        }
        emit(&d);
    }
    if run("fig11") {
        let sizes: &[usize] = if quick {
            &[128, 256, 512]
        } else {
            &[256, 512, 1024]
        };
        let rows = fig11::fig11_time(sizes, if quick { 1 } else { 3 });
        let mut d = BenchDoc::new(
            "fig11",
            "Figure 11 (time): matrix multiplication, loop vs I-GEP vs dgemm",
            quick,
        )
        .host(&gep_bench::util::host_info());
        for r in &rows {
            d.row(vec![
                ("n", inum(r.n as u64)),
                ("loop_s", fnum(r.gep_s)),
                ("igep_s", fnum(r.igep_s)),
                ("dgemm_s", fnum(r.blas_s)),
            ]);
        }
        emit(&d);
        // f64 matrices: 3 x 512 KB at n = 256 exceed the Opteron's 1 MB
        // L2; n = 128 discriminates only in L1.
        let miss_sizes: &[usize] = if quick { &[128] } else { &[128, 256] };
        let misses = fig11::fig11_misses(miss_sizes);
        let mut d = BenchDoc::new(
            "fig11_misses",
            "Figure 11 (misses): simulated AMD Opteron 250, L1/L2 misses",
            quick,
        );
        for m in misses {
            d.row(vec![
                ("n", inum(m.n as u64)),
                ("loop_l1", inum(m.naive.0)),
                ("loop_l2", inum(m.naive.1)),
                ("igep_l1", inum(m.igep.0)),
                ("igep_l2", inum(m.igep.1)),
                ("tiled_l1", inum(m.tiled.0)),
                ("tiled_l2", inum(m.tiled.1)),
            ]);
        }
        emit(&d);
    }
    if run("fig12") {
        let n = if quick { 256 } else { 1024 };
        let max_threads = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
            .max(8);
        let threads: Vec<usize> = (1..=max_threads.min(8)).collect();
        let apps = fig12::fig12(n, &threads, if quick { 1 } else { 2 });
        let mut d = BenchDoc::new("fig12", "Figure 12: multithreaded I-GEP speedup", quick)
            .host(&gep_bench::util::host_info());
        for app in &apps {
            for &(p, secs, speedup) in &app.points {
                d.row(vec![
                    ("app", Json::Str(app.app.into())),
                    ("threads", inum(p as u64)),
                    ("seconds", fnum(secs)),
                    ("speedup", fnum(speedup)),
                    ("measured", Json::Bool(fig12::measured(p))),
                    (
                        "predicted_speedup",
                        fnum(fig12::predicted_speedup(app.app, n, p)),
                    ),
                ]);
            }
        }
        emit(&d);
    }
    if run("algebras") {
        let sizes: &[usize] = if quick { &[64, 128] } else { &[128, 256, 512] };
        let rows = algebras::algebras(sizes, if quick { 1 } else { 3 });
        let mut d = BenchDoc::new(
            "algebras",
            "Algebra sweep: I-GEP per update algebra, GF(2) bitsliced vs scalar",
            quick,
        )
        .host(&gep_bench::util::host_info());
        for r in &rows {
            d.row(vec![
                ("algebra", Json::Str(r.algebra.into())),
                ("kind", Json::Str(r.kind.into())),
                ("n", inum(r.n as u64)),
                ("seconds", fnum(r.seconds)),
                ("mcups", fnum(r.mcups)),
            ]);
        }
        for &n in sizes {
            if let Some(s) = algebras::bitslice_speedup(&rows, n) {
                d.gauge(&format!("gf2.bitslice_speedup.n{n}"), s);
            }
        }
        emit(&d);
    }
    if run("span") {
        let (rows, live_ok) = theory::span_report(if quick { 1 << 10 } else { 1 << 13 });
        let mut d = BenchDoc::new(
            "span",
            "Section 3: span recurrences + live instrumentation cross-check",
            quick,
        );
        for (m, span_full, span_simple, span_mm, work) in rows {
            d.row(vec![
                ("n", inum(m as u64)),
                ("span_full", inum(span_full)),
                ("span_simple", inum(span_simple)),
                ("span_mm", inum(span_mm)),
                ("work", inum(work)),
            ]);
        }
        d.counter("live_cross_check_passed", live_ok as u64);
        emit(&d);
        if !live_ok {
            eprintln!("error: recorded A/B/C/D counts diverge from the span recurrences");
            std::process::exit(1);
        }
    }
    if run("profile") {
        // Fixed base sizes, not the tuned one: quick and full both make 4
        // halvings, so the depth x kind table is identical across hosts
        // and modes, and the CI baseline stays deterministic.
        let (n, base) = if quick { (64, 4) } else { (256, 16) };
        let p = profile::profile_report(n, base, gep_hwc::availability());
        // profile_report installs and takes its own span recorder; restore
        // one so `--flight` sampling keeps running for later experiments.
        if flight_active {
            gep_obs::install(gep_obs::Recorder::counters_only());
        }
        profile::print_profile(&p);
        let mut d = BenchDoc::new(
            "profile",
            "Depth x shape attribution with exact Section 3 cross-check and roofline",
            quick,
        )
        .host(&gep_bench::util::host_info());
        for r in &p.rows {
            // Depth and kind are identity (strings); calls/predicted/flops
            // are deterministic; times carry the noisy `_s` suffix.
            d.row(vec![
                ("depth", Json::Str(r.depth.to_string())),
                ("kind", Json::Str(r.kind.into())),
                ("calls", inum(r.calls)),
                ("predicted", inum(r.predicted)),
                ("flops", inum(r.flops)),
                ("total_s", fnum(r.total_ns as f64 / 1e9)),
                ("self_s", fnum(r.self_ns as f64 / 1e9)),
            ]);
        }
        for s in &p.shapes {
            let mut fields = vec![
                ("shape", Json::Str(s.shape.into())),
                ("leaves", inum(s.leaves)),
                ("flops", inum(s.flops)),
                ("seconds", fnum(s.seconds)),
                ("leaf_gflops", fnum(s.gflops())),
            ];
            // Host-dependent and absent without perf access — like the
            // misses doc, never a fake zero.
            if let Some(m) = s.llc_misses {
                fields.push(("hw_llc_misses", inum(m)));
            }
            d.row(fields);
        }
        for (k, h) in &p.hists {
            d.histogram(k, h);
        }
        d.gauge("roofline.block_transfer_bound", p.bound_block_transfers);
        d.gauge("geometry.llc_bytes", p.geometry.llc_bytes as f64);
        d.gauge("geometry.line_bytes", p.geometry.line_bytes as f64);
        d.counter("cross_check_passed", p.cross_check_ok as u64);
        d.counter("fallback_kernels", p.fallback_kernels);
        emit(&d);
        if json {
            let dir = jsonout::out_dir();
            let path = dir.join("profile_flame.folded");
            let write = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, p.flame.as_bytes()));
            match write {
                Ok(()) => println!(
                    "wrote {} ({} stacks; load into any flamegraph viewer)",
                    path.display(),
                    p.flame.lines().count()
                ),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if !p.cross_check_ok {
            eprintln!("error: attributed leaf counts diverge from the Section 3 recurrences");
            std::process::exit(1);
        }
    }
    if run("space") {
        let sizes: &[usize] = if quick {
            &[8, 16, 32]
        } else {
            &[8, 16, 32, 64]
        };
        let rows = theory::space_report(sizes);
        let mut d = BenchDoc::new(
            "space",
            "Section 2.2.2: reduced-space C-GEP live-snapshot peaks",
            quick,
        );
        for (n, peak, bound) in rows {
            d.row(vec![
                ("n", inum(n as u64)),
                ("peak_live_snapshots", inum(peak as u64)),
                ("claimed_bound", inum(bound as u64)),
            ]);
        }
        emit(&d);
    }
    if run("layout") {
        let sizes: &[usize] = if quick { &[256] } else { &[256, 512] };
        let rows = layout::layout_study(sizes, 64);
        let mut d = BenchDoc::new(
            "layout",
            "Section 4.2: row-major vs Morton-tiled TLB/L2 misses",
            quick,
        );
        for (n, rm, mt) in rows {
            d.row(vec![
                ("n", inum(n as u64)),
                ("rowmajor_tlb", inum(rm.0)),
                ("rowmajor_l2", inum(rm.1)),
                ("morton_tlb", inum(mt.0)),
                ("morton_l2", inum(mt.1)),
            ]);
        }
        emit(&d);
    }
    if run("lemma31") {
        let (n, m, b) = if quick {
            (64, 8 * 1024, 128)
        } else {
            (128, 16 * 1024, 128)
        };
        let rows = lemma::lemma31(n, m as u64, b);
        let mut d = BenchDoc::new(
            "lemma31",
            "Lemma 3.1(b): deterministic distributed-cache schedule",
            quick,
        );
        for (p, qp) in rows {
            d.row(vec![("p", inum(p as u64)), ("misses", inum(qp))]);
        }
        emit(&d);
    }
    if run("lemma32") {
        let (n, m1) = if quick {
            (32, 2 * 1024)
        } else {
            (64, 4 * 1024)
        };
        let (q1, q2_same, q2_big) = lemma::lemma32(n, m1, 64);
        let mut d = BenchDoc::new("lemma32", "Lemma 3.2(b): shared-cache schedules", quick);
        d.row(vec![
            ("q1", inum(q1)),
            ("q2_same_m", inum(q2_same)),
            ("q2_enlarged", inum(q2_big)),
        ]);
        emit(&d);
    }
    if run("resume") {
        gep_extmem::silence_injected_crash_reports();
        // Recording makes the scenarios publish their extmem/WAL latency
        // histograms and leaf timings into the document.
        if json {
            gep_obs::install(gep_obs::Recorder::counters_only());
        }
        let rows = resume::resume(quick);
        let mut d = BenchDoc::new(
            "resume",
            "Crash-safe out-of-core GEP: checkpoint/recovery determinism",
            quick,
        );
        for r in &rows {
            d.row(vec![
                ("app", Json::Str(r.app.into())),
                ("scenario", Json::Str(r.scenario.into())),
                ("n", inum(r.n as u64)),
                ("base", inum(r.base as u64)),
                // Identity, not a metric: part of the row key, so encode
                // as a string (`snapshot_every` is not a PARAM_KEY).
                ("every", Json::Str(r.snapshot_every.to_string())),
                ("total_steps", inum(r.stats.total_steps)),
                ("resumed_cursor", inum(r.stats.start_cursor)),
                ("executed_steps", inum(r.stats.executed_steps)),
                ("snapshots_written", inum(r.stats.snapshots_written)),
                ("wal_records", inum(r.stats.wal_records)),
                ("wal_bytes", inum(r.stats.wal_bytes)),
                ("snap_bytes", inum(r.stats.snap_bytes)),
                ("ckpt_bytes", inum(r.stats.store_bytes)),
                ("recovery_fallbacks", inum(r.stats.recovery_fallbacks)),
                ("bit_identical", Json::Bool(r.bit_identical)),
            ]);
        }
        if let Some(rec) = gep_obs::take() {
            for (k, h) in &rec.hists {
                d.histogram(k, h);
            }
            reinstall(rec);
        }
        emit(&d);
        if rows.iter().any(|r| !r.bit_identical) {
            eprintln!("error: a recovery scenario diverged from the uninterrupted run");
            std::process::exit(1);
        }
    }
    if run("serve") {
        // A full recorder (gauges too): the server publishes serve.*
        // epoch/batch-depth/cache-age gauges, which the flight sampler
        // streams when `--flight` is active.
        if json || flight_active {
            gep_obs::install(gep_obs::Recorder::new());
        }
        let outcome = serve::serve(quick);
        serve::print_serve(&outcome);
        let mut d = BenchDoc::new(
            "serve",
            "APSP-as-a-service: cached I-GEP solve, epoch swap, loadgen latency",
            quick,
        );
        // Every row field is a pure function of (n, seed, workers) —
        // latency goes only to the histograms object, which `repro
        // compare` never gates on.
        let rec = gep_obs::take();
        let mut row = vec![
            ("n", inum(outcome.n as u64)),
            ("threads", inum(outcome.workers as u64)),
            ("requests", inum(outcome.requests)),
            ("errors", inum(outcome.errors)),
            ("epoch_start", inum(outcome.epoch_start)),
            ("epoch_final", inum(outcome.epoch_final)),
            ("resolves", inum(outcome.resolves)),
            ("incremental", inum(outcome.incremental)),
            ("mutations", inum(outcome.mutations)),
            ("epoch_regressions", inum(outcome.epoch_regressions)),
            ("oracle_match", Json::Bool(outcome.oracle_match)),
        ];
        row.extend(kernel_fallbacks(rec.as_ref()));
        d.row(row);
        for (op, count) in &outcome.op_counts {
            d.counter(&format!("serve.loadgen.{op}.requests"), *count);
        }
        for (op, hist) in &outcome.latency_ns {
            d.histogram(&format!("serve.latency_ns.{op}"), hist);
        }
        d.gauge("serve.solve_s", outcome.solve_s);
        d.gauge("serve.read_qps", outcome.read_qps);
        if let Some(rec) = rec {
            for (k, v) in &rec.counters {
                d.counter(k, *v);
            }
            reinstall(rec);
        }
        emit(&d);
        if !outcome.oracle_match || outcome.epoch_regressions > 0 || outcome.errors > 0 {
            eprintln!("error: serving run failed verification (oracle/epochs/errors)");
            std::process::exit(1);
        }
    }
    if run("slo") {
        // Like serve: a full recorder so the scrape (and flight sampler,
        // when active) sees the serve.* gauges alongside the server's own
        // per-op/per-phase histograms.
        if json || flight_active {
            gep_obs::install(gep_obs::Recorder::new());
        }
        let outcome = slo::slo(quick);
        slo::print_slo(&outcome);
        let mut d = BenchDoc::new(
            "slo",
            "Serving SLO gate: telemetry accounting, exposition health, mutation freshness",
            quick,
        );
        // Counts, epochs and boolean verdicts are pure functions of
        // (n, seed, workers, rounds) — gated exactly. The `_ns`
        // magnitudes are wall-clock and ride along informationally.
        let rec = gep_obs::take();
        let mut row = vec![
            ("n", inum(outcome.n as u64)),
            ("threads", inum(outcome.workers as u64)),
            ("requests", inum(outcome.requests)),
            ("errors", inum(outcome.errors)),
            ("epoch_final", inum(outcome.epoch_final)),
            ("resolves", inum(outcome.resolves)),
            ("incremental", inum(outcome.incremental)),
            ("mutations", inum(outcome.mutations)),
            ("epoch_regressions", inum(outcome.epoch_regressions)),
            ("staleness_samples", inum(outcome.staleness_samples)),
            ("slo_pass", Json::Bool(outcome.slo_pass)),
            ("exposition_valid", Json::Bool(outcome.exposition_valid)),
            (
                "server_counts_match",
                Json::Bool(outcome.server_counts_match),
            ),
            ("phases_complete", Json::Bool(outcome.phases_complete)),
            ("p99_dist_server_ns", inum(outcome.p99_dist_server_ns)),
            ("staleness_max_ns", inum(outcome.staleness_max_ns)),
            ("staleness_p50_ns", inum(outcome.staleness_p50_ns)),
            ("queue_wait_max_ns", inum(outcome.queue_wait_max_ns)),
            ("batch_drain_max_ns", inum(outcome.batch_drain_max_ns)),
        ];
        row.extend(kernel_fallbacks(rec.as_ref()));
        d.row(row);
        for (op, count) in &outcome.op_counts {
            d.counter(&format!("serve.loadgen.{op}.requests"), *count);
        }
        for (op, hist) in &outcome.latency_ns {
            d.histogram(&format!("serve.client_latency_ns.{op}"), hist);
        }
        for (name, hist) in &outcome.server_hists {
            d.histogram(name, hist);
        }
        if let Some(rec) = rec {
            for (k, v) in &rec.counters {
                d.counter(k, *v);
            }
            reinstall(rec);
        }
        emit(&d);
        if !outcome.slo_pass {
            eprintln!("error: SLO gate failed (see verdicts above)");
            std::process::exit(1);
        }
    }
    if run("misses") {
        // The recorder collects hwc.* (or hwc.unavailable) counters so the
        // summary and the JSON document both show what was measured.
        gep_obs::install(gep_obs::Recorder::counters_only());
        let outcome = misses::misses(quick);
        misses::print_misses(&outcome);
        let mut d = misses_doc(&outcome, quick);
        if let Some(rec) = gep_obs::take() {
            print!("{}", gep_obs::summary(&rec));
            for (k, v) in &rec.counters {
                d.counter(k, *v);
            }
            for (k, h) in &rec.hists {
                d.histogram(k, h);
            }
            reinstall(rec);
        }
        emit(&d);
    }
    if what == "all" && json {
        append_trajectory(&jsonout::out_dir(), "all", quick);
    }
}
