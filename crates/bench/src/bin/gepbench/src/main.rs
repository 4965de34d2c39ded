//! gepbench: the repository's benchmark. Five seeded workloads time only
//! public calls — `apsp`, `gaussian::solve`, `igep_parallel` inside
//! `with_threads`, and `gep_serve::Server` over its TCP protocol — check
//! every output, and report end-to-end metrics untraced and per-layer
//! metrics from a separate traced run. See README.md beside this crate.

mod gen;
mod host;
mod layers;
mod metrics;
mod serve;
mod solve;
mod stats;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::str::FromStr;
use std::time::{Duration, Instant};

use gep_obs::Json;

use host::Spans;
use metrics::{finalize, Outcome, Report, END_TO_END};

const USAGE: &str = "usage:
  gepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  gepbench run [--seed <n>] [--seconds <s>] [--trace]
  gepbench agree [--sets <k>] [--runs <r>] [--seconds <s>]
workloads: fw-1024 ge-1500 ge-2047-2t serve-read serve-write";

/// Measured seconds per run unless `--seconds` says otherwise; equal to
/// `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-up-only processes per untraced run, besides the measuring one:
/// `setup_s` is the median over all of them.
const EXTRA_SETUPS: usize = 4;
/// A workload process still running after this is killed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);
/// Where runs leave trace files and their workload processes' scratch
/// directories, relative to the directory the benchmark runs in.
const OUT_DIR: &str = "gepbench-out";

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    Fw1024,
    Ge1500,
    Ge2047x2,
    ServeRead,
    ServeWrite,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Fw1024,
        Workload::Ge1500,
        Workload::Ge2047x2,
        Workload::ServeRead,
        Workload::ServeWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fw1024 => "fw-1024",
            Workload::Ge1500 => "ge-1500",
            Workload::Ge2047x2 => "ge-2047-2t",
            Workload::ServeRead => "serve-read",
            Workload::ServeWrite => "serve-write",
        }
    }

    fn from_name(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }
}

/// Problem sizes: the benchmark always runs [`FULL`]; the smoke test
/// runs the same code on tiny ones.
pub struct Sizes {
    pub fw: usize,
    pub ge: usize,
    pub ge2t: usize,
    pub serve: usize,
}

pub const FULL: Sizes = Sizes {
    fw: 1024,
    ge: 1500,
    ge2t: 2047,
    serve: 500,
};

/// Runs one workload in this process — what a workload process does.
/// `setup_only` takes one set-up sample and stops.
pub fn run_workload(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    secs: f64,
    trace: bool,
    setup_only: bool,
) -> (Outcome, Option<Spans>) {
    let mut out = Outcome::new();
    let mut spans = trace.then(|| Spans::new(Instant::now()));
    let writes = w == Workload::ServeWrite;
    let mut case: Box<dyn solve::Case> = match w {
        Workload::Fw1024 => Box::new(solve::Fw::new(sizes.fw, seed)),
        Workload::Ge1500 => Box::new(solve::GeSolve::new(sizes.ge, seed)),
        Workload::Ge2047x2 => Box::new(solve::GeParallel::new(sizes.ge2t, seed)),
        Workload::ServeRead | Workload::ServeWrite => {
            if setup_only {
                serve::setup(sizes.serve, seed, &mut out);
            } else {
                serve::measure(sizes.serve, seed, secs, writes, spans.as_mut(), &mut out);
            }
            return finish(out, spans, !trace && !setup_only);
        }
    };
    if setup_only {
        let s = solve::setup(case.as_mut(), solve::Check::Sampled, &mut out);
        out.set("setup_s", s, 1);
    } else {
        solve::measure(case.as_mut(), secs, spans.as_mut(), &mut out);
    }
    finish(out, spans, !trace && !setup_only)
}

/// Adds the process's peak memory to an untraced measuring run.
fn finish(mut out: Outcome, spans: Option<Spans>, with_rss: bool) -> (Outcome, Option<Spans>) {
    if with_rss {
        out.set("rss_mb", host::peak_rss_mb(), 1);
    }
    (out, spans)
}

/// `--key value` options; a key with no value reads as `1`.
struct Opts(BTreeMap<String, String>);

impl Opts {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Opts, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .filter(|k| allowed.contains(k))
                .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                _ => "1".into(),
            };
            map.insert(key.to_string(), value);
        }
        Ok(Opts(map))
    }

    fn get<T: FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match (self.0.get(key), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("bad value '{v}' for --{key}")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("missing --{key}")),
        }
    }

    fn flag(&self, key: &str) -> Result<bool, String> {
        match self.get::<u8>(key, Some(0))? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(format!("--{key} takes 0 or 1")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let s = self.get("seconds", Some(DEFAULT_SECONDS))?;
        if s > 0.0 && s <= 60.0 {
            Ok(s)
        } else {
            Err(format!("--seconds {s} is outside (0, 60]"))
        }
    }
}

/// Why the benchmark stopped without a result line.
enum Stop {
    /// The command line was wrong: exit 2 with the usage.
    Usage(String),
    /// The build or a workload process failed: exit 1.
    Failed(String),
}

impl From<String> for Stop {
    fn from(msg: String) -> Stop {
        Stop::Usage(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(Stop::Usage(msg)) => {
            eprintln!("gepbench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Stop::Failed(msg)) => {
            eprintln!("gepbench: run failed: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, Stop> {
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some("run") | Some("agree") | Some("child") => (args[0].as_str(), &args[1..]),
        _ => ("one", args),
    };
    match cmd {
        "one" => {
            let o = Opts::parse(rest, &["workload", "seed", "seconds", "trace"])?;
            let w = Workload::from_name(&o.get::<String>("workload", None)?)?;
            let (seed, secs, trace) = (o.get("seed", None)?, o.seconds()?, o.flag("trace")?);
            let report = bench(w, seed, secs, trace).map_err(Stop::Failed)?;
            print_report(w, seed, trace, &report);
            println!("{}", report.result_json());
            Ok(exit_code(report.failures.is_empty()))
        }
        "run" => {
            let o = Opts::parse(rest, &["seed", "seconds", "trace"])?;
            let (seed, secs, trace) = (o.get("seed", Some(1))?, o.seconds()?, o.flag("trace")?);
            let mut all_correct = true;
            for w in Workload::ALL {
                let report = bench(w, seed, secs, trace).map_err(Stop::Failed)?;
                print_report(w, seed, trace, &report);
                let mut line = report.result_json();
                if let Json::Obj(fields) = &mut line {
                    fields.insert(0, ("workload".into(), Json::Str(w.name().into())));
                }
                println!("{line}");
                all_correct &= report.failures.is_empty();
            }
            Ok(exit_code(all_correct))
        }
        "agree" => {
            let o = Opts::parse(rest, &["sets", "runs", "seconds"])?;
            let (sets, runs) = (o.get("sets", Some(2usize))?, o.get("runs", Some(5usize))?);
            if sets < 2 || runs < 2 {
                return Err(Stop::Usage(
                    "agree needs at least 2 sets of at least 2 runs".into(),
                ));
            }
            agree(sets, runs, o.seconds()?).map_err(Stop::Failed)
        }
        _ => {
            let o = Opts::parse(rest, &["workload", "seed", "seconds", "trace", "setup"])?;
            let w = Workload::from_name(&o.get::<String>("workload", None)?)?;
            let (trace, setup) = (o.flag("trace")?, o.flag("setup")?);
            let (mut out, spans) =
                run_workload(w, &FULL, o.get("seed", None)?, o.seconds()?, trace, setup);
            if let Some(spans) = spans {
                if let Err(e) = std::fs::write("trace.json", spans.into_json().to_string()) {
                    out.failures.push(format!("writing trace.json: {e}"));
                }
            }
            println!("{}", out.to_json());
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One benchmark run of `w`: untraced, the extra set-up processes and the
/// measuring process; traced, the measuring process alone.
fn bench(w: Workload, seed: u64, secs: f64, trace: bool) -> Result<Report, String> {
    let main = workload_process(w, seed, secs, trace, None)?;
    let mut setups = Vec::new();
    if !trace {
        for k in 0..EXTRA_SETUPS {
            setups.push(workload_process(w, seed, secs, false, Some(k))?);
        }
    }
    Ok(finalize(trace, main, setups))
}

/// Runs one workload in a child process, in a fresh scratch directory
/// and without the environment that could change the kernel backend
/// (`GEP_KERNELS`, or a `tuning.json` found through `GEP_TUNING` or the
/// working directory).
fn workload_process(
    w: Workload,
    seed: u64,
    secs: f64,
    trace: bool,
    setup: Option<usize>,
) -> Result<Outcome, String> {
    let tag = format!(
        "{}-seed{seed}-{}-{}",
        w.name(),
        std::process::id(),
        setup.map_or("measure".into(), |k| format!("setup{k}"))
    );
    let dir = Path::new(OUT_DIR).join("tmp").join(&tag);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating gepbench: {e}"))?;
    let mut child = Command::new(exe)
        .args(["child", "--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &secs.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--setup", if setup.is_some() { "1" } else { "0" }])
        .current_dir(&dir)
        .env_remove("GEP_KERNELS")
        .env_remove("GEP_TUNING")
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the {} process: {e}", w.name()))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!(
                    "{} process killed after {CHILD_TIMEOUT:?}",
                    w.name()
                ));
            }
            Err(e) => break Err(format!("waiting for the {} process: {e}", w.name())),
        }
    }?;
    let text = reader
        .join()
        .expect("stdout reader thread")
        .map_err(|e| format!("reading the {} process: {e}", w.name()))?;
    if !status.success() {
        return Err(format!("{} process exited with {status}", w.name()));
    }
    let last = text.lines().last().unwrap_or_default();
    let doc =
        Json::parse(last).map_err(|e| format!("{} process printed no record: {e}", w.name()))?;
    let outcome = Outcome::from_json(&doc)?;
    if trace {
        let dest = trace_path(w, seed);
        std::fs::rename(dir.join("trace.json"), &dest)
            .map_err(|e| format!("keeping {}: {e}", dest.display()))?;
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(outcome)
}

fn trace_path(w: Workload, seed: u64) -> PathBuf {
    Path::new(OUT_DIR).join(format!("trace-{}-seed{seed}.json", w.name()))
}

fn print_report(w: Workload, seed: u64, trace: bool, report: &Report) {
    println!(
        "{} seed={seed} {} | {} hardware threads, backend {}, cpu \"{}\", commit {}",
        w.name(),
        if trace { "traced" } else { "untraced" },
        host::parallelism(),
        report.backend,
        host::cpu_model(),
        host::commit(),
    );
    if w == Workload::Ge2047x2 && host::parallelism() < metrics::THREADS {
        println!(
            "  measured: false (fewer than {} hardware threads)",
            metrics::THREADS
        );
    }
    for m in &report.metrics {
        println!(
            "  {:<28} {:>14.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if trace {
        println!("  trace: {}", trace_path(w, seed).display());
    }
    println!(
        "  correct: {} ({} attempted, {} failed)",
        report.failures.is_empty(),
        report.attempted,
        report.failures.len()
    );
    for f in report.failures.iter().take(5) {
        println!("  failure: {f}");
    }
}

/// Runs every workload `runs` times in each of `sets` sets, interleaving
/// the sets; set `s` (from 0) uses seeds `s + 1`, `s + 1 + sets`, ….
/// Reports each metric's median and quartiles per set, whether every set's
/// median is within the metric's bound of the first set's, and the spread
/// (interquartile range over median) across all runs.
fn agree(sets: usize, runs: usize, secs: f64) -> Result<ExitCode, String> {
    let mut values: BTreeMap<(Workload, &str), Vec<Vec<f64>>> = BTreeMap::new();
    let mut failed = 0;
    for r in 0..runs {
        for s in 0..sets {
            let seed = (s + 1 + sets * r) as u64;
            for w in Workload::ALL {
                let report = bench(w, seed, secs, false)?;
                failed += report.failures.len();
                for m in &report.metrics {
                    let per_set = values
                        .entry((w, m.name))
                        .or_insert_with(|| vec![Vec::new(); sets]);
                    per_set[s].push(m.value);
                }
                eprintln!(
                    "agree: run {} set {} seed {seed} {} done",
                    r + 1,
                    s + 1,
                    w.name()
                );
            }
        }
    }
    let mut all_agree = failed == 0;
    for ((w, name), per_set) in &values {
        let bound = END_TO_END
            .iter()
            .find(|e| e.0 == *name)
            .map_or(0.0, |e| e.2);
        let medians: Vec<f64> = per_set.iter().map(|v| stats::quartiles(v).1).collect();
        let agrees = medians
            .iter()
            .all(|m| (m - medians[0]).abs() <= bound * medians[0]);
        let pooled: Vec<f64> = per_set.iter().flatten().copied().collect();
        let (q1, q2, q3) = stats::quartiles(&pooled);
        let spread = (q3 - q1) / q2;
        let sets_text: Vec<String> = per_set
            .iter()
            .map(|v| {
                let (a, b, c) = stats::quartiles(v);
                format!("{b:.6} [{a:.6}, {c:.6}]")
            })
            .collect();
        println!(
            "{:<12} {:<16} {} | agree {} | spread {:.4} (bound {bound}, target {:.4})",
            w.name(),
            name,
            sets_text.join("  "),
            if agrees { "yes" } else { "NO" },
            spread,
            bound / 3.0
        );
        all_agree &= agrees;
    }
    println!(
        "agree: {} ({failed} failures)",
        if all_agree {
            "all sets agree"
        } else {
            "sets disagree"
        }
    );
    Ok(exit_code(all_agree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;

    const TINY: Sizes = Sizes {
        fw: 64,
        ge: 50,
        ge2t: 63,
        serve: 24,
    };

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_workloads_and_metrics() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, (name, unit, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some("lower"));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let layers = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        }
    }

    /// Every workload at tiny sizes with 1 s windows, untraced and traced:
    /// all checks pass and the emitted metrics are exactly the declared ones.
    #[test]
    fn smoke_every_workload_emits_exactly_the_declared_metrics() {
        let doc = benchmark_json();
        let valid = |n: &str| {
            !n.is_empty()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for w in Workload::ALL {
            for trace in [false, true] {
                let setups = if trace {
                    Vec::new()
                } else {
                    vec![run_workload(w, &TINY, 1, 1.0, false, true).0]
                };
                let (main, spans) = run_workload(w, &TINY, 1, 1.0, trace, false);
                assert_eq!(spans.is_some(), trace);
                let report = finalize(trace, main, setups);
                assert!(
                    report.failures.is_empty(),
                    "{} trace={trace}: {:?}",
                    w.name(),
                    report.failures
                );
                let emitted: Vec<String> =
                    report.metrics.iter().map(|m| m.name.to_string()).collect();
                let declared = names(&doc, if trace { "per_layer" } else { "end_to_end" });
                assert_eq!(emitted, declared, "{} trace={trace}", w.name());
                assert!(emitted.iter().all(|n| valid(n)), "{emitted:?}");
                let line = Json::parse(&report.result_json().to_string()).expect("result line");
                assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            }
        }
    }

    #[test]
    fn options_parse_values_and_bare_flags() {
        let args: Vec<String> = ["--seed", "7", "--trace"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Opts::parse(&args, &["seed", "trace", "seconds"]).unwrap();
        assert_eq!(o.get::<u64>("seed", None), Ok(7));
        assert_eq!(o.flag("trace"), Ok(true));
        assert_eq!(o.seconds(), Ok(DEFAULT_SECONDS));
        assert!(Opts::parse(&args, &["seed"]).is_err());
        assert!(Workload::from_name("fw-2048").is_err());
    }
}
