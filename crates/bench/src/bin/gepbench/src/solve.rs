//! The in-core solve workloads: `fw-1024`, `ge-1500` and `ge-2047-2t`.
//!
//! Each times one public call per solve on a fresh copy of its seeded
//! input and checks every output. A traced run splits the window into an
//! untraced half and a half under `gep_obs::Recorder::counters_only()`,
//! whose counts and leaf-time sums the engines already publish, then
//! times the bare I-GEP engine on the same padded input, serially and on
//! two threads.

use std::time::{Duration, Instant};

use gep_apps::floyd_warshall::{apsp, FwSpec};
use gep_apps::gaussian::solve;
use gep_apps::GaussianSpec;
use gep_core::{gep_iterative, igep_opt, GepSpec};
use gep_matrix::{next_pow2, Matrix};
use gep_parallel::{igep_parallel, with_threads};

use crate::gen;
use crate::host::{self, Spans};
use crate::metrics::{Outcome, THREADS};
use crate::serve::dijkstra;
use crate::stats::Dist;

/// Base-case side handed to every engine: the kernels' default.
pub const BASE: usize = gep_kernels::DEFAULT_BASE_SIZE;

/// Fewest timed solves per window, however long each takes.
const MIN_SOLVES: usize = 3;

/// Runs of the bare engine per thread count in a traced run.
pub const ENGINE_RUNS: usize = 3;

/// Largest accepted scaled residual `‖Ax − b‖∞ / (‖A‖∞ ‖x‖∞)`.
const MAX_RESIDUAL: f64 = 1e-12;

/// How a solve's output is checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// The measuring process's cold solve: against the full oracle.
    Oracle,
    /// A warm solve: like the oracle-checked one.
    Repeat,
    /// A set-up process's cold solve: against a cheaper sampled oracle.
    Sampled,
}

/// Sources the sampled `fw` oracle runs Dijkstra from.
const SAMPLED_SOURCES: usize = 32;

/// One solve workload.
pub trait Case {
    /// The public call each timed solve makes.
    fn call(&self) -> &'static str;
    /// Columns of real work and the padded side the engine runs on.
    fn widths(&self) -> (usize, usize);
    /// Whether the timed call goes through `gep-apps`.
    fn crosses_apps(&self) -> bool;
    /// Restores the input (untimed).
    fn reset(&mut self);
    /// The timed solve.
    fn solve(&mut self);
    /// Checks the last solve's output.
    fn check(&mut self, how: Check) -> Result<(), String>;
    /// The bare I-GEP engine on the padded input, on `threads` threads;
    /// returns when it started and how long it ran.
    fn engine(&mut self, threads: usize) -> (Instant, Duration);
}

/// `fw-1024`: `apsp` on a dense random digraph, one thread.
pub struct Fw {
    input: Matrix<i64>,
    work: Matrix<i64>,
    first: Option<Matrix<i64>>,
    seed: u64,
}

impl Fw {
    pub fn new(n: usize, seed: u64) -> Fw {
        assert!(n.is_power_of_two(), "fw input must need no padding");
        let input = gen::dense_digraph(n, seed);
        Fw {
            work: input.clone(),
            input,
            first: None,
            seed,
        }
    }
}

impl Case for Fw {
    fn call(&self) -> &'static str {
        "gep_apps::floyd_warshall::apsp"
    }
    fn widths(&self) -> (usize, usize) {
        (self.input.n(), self.input.n())
    }
    fn crosses_apps(&self) -> bool {
        true
    }
    fn reset(&mut self) {
        self.work.copy_from(&self.input);
    }
    fn solve(&mut self) {
        apsp(&mut self.work, BASE);
    }
    fn check(&mut self, how: Check) -> Result<(), String> {
        match how {
            Check::Oracle => {
                let mut oracle = self.input.clone();
                gep_iterative(&FwSpec::<i64>::new(), &mut oracle);
                if oracle != self.work {
                    return Err("fw: cold solve is not bit-exact against gep_iterative".into());
                }
                self.first = Some(self.work.clone());
            }
            Check::Repeat if self.first.as_ref() != Some(&self.work) => {
                return Err("fw: a warm solve differs from the first solve".into());
            }
            Check::Repeat => {}
            Check::Sampled => {
                let n = self.input.n();
                for s in gen::sources(n, SAMPLED_SOURCES, self.seed) {
                    if dijkstra(&self.input, s) != self.work.row(s) {
                        return Err(format!("fw: distances from {s} differ from Dijkstra"));
                    }
                }
            }
        }
        Ok(())
    }
    fn engine(&mut self, threads: usize) -> (Instant, Duration) {
        self.reset();
        run_engine(&FwSpec::<i64>::new(), &mut self.work, threads)
    }
}

/// `ge-1500`: `gaussian::solve` on a diagonally dominant system.
pub struct GeSolve {
    a: Matrix<f64>,
    b: Vec<f64>,
    x: Vec<f64>,
}

impl GeSolve {
    pub fn new(n: usize, seed: u64) -> GeSolve {
        GeSolve {
            a: gen::dd_matrix(n, seed),
            b: gen::rhs(n, seed),
            x: Vec::new(),
        }
    }
}

impl Case for GeSolve {
    fn call(&self) -> &'static str {
        "gep_apps::gaussian::solve"
    }
    fn widths(&self) -> (usize, usize) {
        (self.a.n() + 1, next_pow2(self.a.n() + 1))
    }
    fn crosses_apps(&self) -> bool {
        true
    }
    fn reset(&mut self) {}
    fn solve(&mut self) {
        self.x = solve(&self.a, &self.b, BASE);
    }
    fn check(&mut self, _how: Check) -> Result<(), String> {
        check_residual("ge", &self.a, &self.x, &self.b)
    }
    fn engine(&mut self, threads: usize) -> (Instant, Duration) {
        // Built per call so untraced runs hold no memory `solve` does not.
        let mut aug = augmented(&self.a, &self.b);
        run_engine(&GaussianSpec, &mut aug, threads)
    }
}

/// `ge-2047-2t`: `igep_parallel(GaussianSpec)` on the unpadded
/// `2048`-wide system `[A | b]`, inside `with_threads(2)`.
pub struct GeParallel {
    a: Matrix<f64>,
    b: Vec<f64>,
    aug: Matrix<f64>,
    work: Matrix<f64>,
}

impl GeParallel {
    pub fn new(n: usize, seed: u64) -> GeParallel {
        let (a, b) = (gen::dd_matrix(n, seed), gen::rhs(n, seed));
        let aug = augmented(&a, &b);
        GeParallel {
            work: aug.clone(),
            a,
            b,
            aug,
        }
    }
}

impl Case for GeParallel {
    fn call(&self) -> &'static str {
        "gep_parallel::igep_parallel"
    }
    fn widths(&self) -> (usize, usize) {
        (self.a.n() + 1, self.aug.n())
    }
    fn crosses_apps(&self) -> bool {
        false
    }
    fn reset(&mut self) {
        self.work.copy_from(&self.aug);
    }
    fn solve(&mut self) {
        let work = &mut self.work;
        with_threads(THREADS, || igep_parallel(&GaussianSpec, work, BASE));
    }
    fn check(&mut self, _how: Check) -> Result<(), String> {
        let x = back_substitute(&self.work, self.a.n());
        check_residual("ge-2t", &self.a, &x, &self.b)
    }
    fn engine(&mut self, threads: usize) -> (Instant, Duration) {
        self.reset();
        run_engine(&GaussianSpec, &mut self.work, threads)
    }
}

/// The public call [`run_engine`] makes on `threads` threads.
fn engine_call(threads: usize) -> &'static str {
    if threads == 1 {
        "gep_core::igep_opt"
    } else {
        "gep_parallel::igep_parallel"
    }
}

/// Times the bare I-GEP engine: serial `igep_opt`, or `igep_parallel`
/// inside `with_threads(threads)`.
pub fn run_engine<S: GepSpec + Sync>(
    spec: &S,
    work: &mut Matrix<S::Elem>,
    threads: usize,
) -> (Instant, Duration) {
    let t = Instant::now();
    if threads == 1 {
        igep_opt(spec, work, BASE);
    } else {
        with_threads(threads, || igep_parallel(spec, work, BASE));
    }
    (t, t.elapsed())
}

/// Median seconds of [`ENGINE_RUNS`] engine runs on `threads` threads,
/// each recorded as a span.
pub fn engine_seconds(
    spans: &mut Spans,
    threads: usize,
    mut run: impl FnMut(usize) -> (Instant, Duration),
) -> f64 {
    let runs = (0..ENGINE_RUNS)
        .map(|_| {
            let (t, dt) = run(threads);
            spans.record(engine_call(threads), "engine", 0, t, dt);
            dt.as_secs_f64()
        })
        .collect();
    Dist::new(runs).median()
}

/// The system `[A | b]` padded to a power of two with identity rows and
/// columns, as `gaussian::solve` builds it internally.
fn augmented(a: &Matrix<f64>, b: &[f64]) -> Matrix<f64> {
    let n = a.n();
    Matrix::from_fn(next_pow2(n + 1), next_pow2(n + 1), |i, j| {
        if i < n && j < n {
            a[(i, j)]
        } else if i < n && j == n {
            b[i]
        } else if i == j {
            1.0
        } else {
            0.0
        }
    })
}

/// Solves `U x = y` from an eliminated augmented system: `U` is the upper
/// triangle of the first `n` columns, `y` column `n`.
fn back_substitute(u: &Matrix<f64>, n: usize) -> Vec<f64> {
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let row = u.row(i);
        let acc: f64 = row[i + 1..n]
            .iter()
            .zip(&x[i + 1..])
            .map(|(a, b)| a * b)
            .sum();
        x[i] = (row[n] - acc) / row[i];
    }
    x
}

/// Scaled residual `‖Ax − b‖∞ / (‖A‖∞ ‖x‖∞)`.
pub fn residual(a: &Matrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    let n = a.n();
    let mut r_max: f64 = 0.0;
    let mut a_norm: f64 = 0.0;
    for (i, &bi) in b.iter().enumerate().take(n) {
        let row = a.row(i);
        let ax: f64 = row.iter().zip(x).map(|(a, x)| a * x).sum();
        r_max = r_max.max((ax - bi).abs());
        a_norm = a_norm.max(row.iter().map(|v| v.abs()).sum());
    }
    let x_norm = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    r_max / (a_norm * x_norm)
}

fn check_residual(name: &str, a: &Matrix<f64>, x: &[f64], b: &[f64]) -> Result<(), String> {
    let r = residual(a, x, b);
    if x.len() == a.n() && r <= MAX_RESIDUAL {
        Ok(())
    } else {
        Err(format!(
            "{name}: scaled residual {r:e} above {MAX_RESIDUAL:e}"
        ))
    }
}

/// Times solves until `window` has passed (and at least [`MIN_SOLVES`]),
/// checking each output. Returns the per-solve seconds.
fn timed_solves(
    case: &mut dyn Case,
    window: Duration,
    out: &mut Outcome,
    mut spans: Option<&mut Spans>,
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_SOLVES || start.elapsed() < window {
        case.reset();
        let t = Instant::now();
        case.solve();
        let dt = t.elapsed();
        if let Some(s) = spans.as_deref_mut() {
            s.record(case.call(), "solve", 0, t, dt);
        }
        times.push(dt.as_secs_f64());
        out.check(case.check(Check::Repeat));
    }
    times
}

/// The set-up of every solve workload: its cold first solve, checked.
pub fn setup(case: &mut dyn Case, how: Check, out: &mut Outcome) -> f64 {
    case.reset();
    let t = Instant::now();
    case.solve();
    let secs = t.elapsed().as_secs_f64();
    out.check(case.check(how));
    secs
}

/// One measured run: the set-up, then a window of warm solves.
pub fn measure(case: &mut dyn Case, secs: f64, trace: Option<&mut Spans>, out: &mut Outcome) {
    let setup_s = setup(case, Check::Oracle, out);
    let Some(spans) = trace else {
        let times = Dist::new(timed_solves(case, Duration::from_secs_f64(secs), out, None));
        out.set("setup_s", setup_s, 1);
        out.set("solve_s", times.pct(0.0), times.len());
        out.set("latency_p50_ms", times.median() * 1e3, times.len());
        return;
    };
    let half = Duration::from_secs_f64(secs / 2.0);
    let (cpu0, wall0) = (host::cpu_seconds(), Instant::now());
    let untraced = Dist::new(timed_solves(case, half, out, None));
    let cpu_util = (host::cpu_seconds() - cpu0) / (THREADS as f64 * wall0.elapsed().as_secs_f64());

    gep_obs::install(gep_obs::Recorder::counters_only());
    let traced = Dist::new(timed_solves(case, half, out, Some(spans)));
    let rec = gep_obs::take().expect("the recorder installed above");

    let serial = engine_seconds(spans, 1, |t| case.engine(t));
    let parallel = engine_seconds(spans, THREADS, |t| case.engine(t));

    let solve_s = untraced.median();
    let ops = (untraced.len() + traced.len()) as f64;
    crate::layers::set_kernel_and_core(out, &rec, traced.len(), serial, case.widths());
    let overhead = if case.crosses_apps() {
        (solve_s - serial) / solve_s
    } else {
        0.0
    };
    out.set("apps.overhead_share", overhead, untraced.len());
    out.set("parallel.speedup", serial / parallel, 2 * ENGINE_RUNS);
    out.set("parallel.cpu_util", cpu_util, untraced.len());
    for name in [
        "serve.resolves",
        "serve.edges_per_resolve",
        "serve.staleness_per_solve",
        "serve.lookup_share.dist",
        "serve.lookup_share.path",
        "harness.late_share",
    ] {
        out.set(name, 0.0, 0);
    }
    out.set("harness.ops", ops, 1);
    out.set(
        "obs.trace_overhead_share",
        traced.median() / solve_s - 1.0,
        traced.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn augmented_system_solves_back_to_x() {
        let (a, b) = (gen::dd_matrix(13, 5), gen::rhs(13, 5));
        let mut aug = augmented(&a, &b);
        assert_eq!(aug.n(), 16);
        igep_opt(&GaussianSpec, &mut aug, 4);
        let x = back_substitute(&aug, 13);
        assert!(residual(&a, &x, &b) <= MAX_RESIDUAL);
        let wrong: Vec<f64> = x.iter().map(|v| v * 1.001).collect();
        assert!(check_residual("t", &a, &wrong, &b).is_err());
    }
}
