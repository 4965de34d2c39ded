//! `repro tune`: the `gep-kernels` autotuner.
//!
//! Sweeps base size × kernel backend for each of the five kernel-backed
//! applications (GE, LU, FW, TC, MM) and marks, per application, the
//! fastest base size on the fastest backend. It is a measurement only:
//! nothing it finds changes how later runs pick their backend or base
//! size. The grid — including the scalar `Generic` baseline — is reported
//! as a table and, with `--json`, as `BENCH_kernels.json`.

use crate::util::{gflops, print_table, timed_best};
use crate::workloads::{dd_matrix, random_dist_matrix, rnd_matrix, XorShift};
use gep_apps::floyd_warshall::FwSpec;
use gep_apps::matmul::matmul;
use gep_apps::{GaussianSpec, LuSpec, SemiringSpec};
use gep_core::algebra::{OrAndBool, PlusTimesF64};
use gep_core::igep_opt;
use gep_kernels::{available_backends, set_backend_override, Backend};
use gep_matrix::Matrix;
use gep_obs::{BenchDoc, Json};

/// Keys of the applications the tuner sweeps.
pub const TUNED_APPS: [&str; 5] = ["ge", "lu", "fw", "tc", "mm"];

/// One measured grid point.
#[derive(Clone, Copy, Debug)]
pub struct TunePoint {
    /// Application key (`ge`, `lu`, `fw`, `tc`, `mm`).
    pub app: &'static str,
    /// Kernel backend forced for the measurement.
    pub backend: Backend,
    /// I-GEP base (tile) size.
    pub base_size: usize,
    /// Best-of-reps wall time.
    pub seconds: f64,
    /// Updates per second, scaled by the app's per-update op count
    /// (GFLOP/s for the f64 apps, Gop/s for FW/TC).
    pub gflops: f64,
    /// Whether this point is its application's fastest base size on the
    /// fastest backend.
    pub chosen: bool,
}

/// Times one application at `(backend already forced, base)`; returns
/// `(seconds, normalized rate)`.
fn measure(app: &str, n: usize, base: usize, reps: usize) -> (f64, f64) {
    match app {
        "ge" => {
            let input = dd_matrix(n, 0xD15C + n as u64);
            let flops = 2.0 / 3.0 * (n as f64).powi(3);
            let (_, s) = timed_best(reps, || {
                let mut c = input.clone();
                igep_opt(&GaussianSpec, &mut c, base);
                c
            });
            (s, gflops(flops, s))
        }
        "lu" => {
            let input = dd_matrix(n, 0x10D1 + n as u64);
            let flops = 2.0 / 3.0 * (n as f64).powi(3);
            let (_, s) = timed_best(reps, || {
                let mut c = input.clone();
                igep_opt(&LuSpec, &mut c, base);
                c
            });
            (s, gflops(flops, s))
        }
        "fw" => {
            let input = random_dist_matrix(n, 0xF1D0 + n as u64);
            let ops = (n as f64).powi(3);
            let (_, s) = timed_best(reps, || {
                let mut c = input.clone();
                igep_opt(&FwSpec::<i64>::new(), &mut c, base);
                c
            });
            (s, gflops(ops, s))
        }
        "tc" => {
            let mut rng = XorShift(0x7C11 + n as u64);
            let input = Matrix::from_fn(n, n, |i, j| i == j || rng.next_u64() % 8 == 0);
            let ops = (n as f64).powi(3);
            let (_, s) = timed_best(reps, || {
                let mut c = input.clone();
                igep_opt(&SemiringSpec::<OrAndBool>::new(), &mut c, base);
                c
            });
            (s, gflops(ops, s))
        }
        "mm" => {
            let a = rnd_matrix(n, 0x3131 + n as u64);
            let b = rnd_matrix(n, 0x3232 + n as u64);
            let flops = 2.0 * (n as f64).powi(3);
            let (_, s) = timed_best(reps, || matmul::<PlusTimesF64>(&a, &b, base));
            (s, gflops(flops, s))
        }
        other => unreachable!("unknown tuned app {other}"),
    }
}

/// Runs the sweep, prints the table, and returns the grid.
pub fn tune(quick: bool) -> Vec<TunePoint> {
    let n = if quick { 256 } else { 512 };
    let reps = if quick { 1 } else { 3 };
    let bases: &[usize] = if quick {
        &[32, 64, 128]
    } else {
        &[16, 32, 64, 128]
    };
    tune_with(n, reps, bases)
}

/// The sweep at an explicit grid (testable at tiny sizes).
pub fn tune_with(n: usize, reps: usize, bases: &[usize]) -> Vec<TunePoint> {
    let backends = available_backends();

    let mut points: Vec<TunePoint> = vec![];
    for app in TUNED_APPS {
        for &backend in &backends {
            set_backend_override(Some(backend));
            for &base in bases {
                let (seconds, rate) = measure(app, n, base, reps);
                points.push(TunePoint {
                    app,
                    backend,
                    base_size: base,
                    seconds,
                    gflops: rate,
                    chosen: false,
                });
            }
        }
    }
    set_backend_override(None);

    // Fastest backend: the one minimizing the sum over apps of its best
    // per-app time (one backend serves a whole process).
    let total = |b: Backend| -> f64 {
        TUNED_APPS
            .iter()
            .map(|app| {
                points
                    .iter()
                    .filter(|p| p.app == *app && p.backend == b)
                    .map(|p| p.seconds)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    let best_backend = backends
        .iter()
        .copied()
        .min_by(|&a, &b| total(a).total_cmp(&total(b)))
        .unwrap_or(Backend::Portable);

    let mut bases_chosen = vec![];
    for app in TUNED_APPS {
        let winner = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.app == app && p.backend == best_backend)
            .min_by(|(_, x), (_, y)| x.seconds.total_cmp(&y.seconds))
            .map(|(i, _)| i)
            .expect("grid covers every app");
        points[winner].chosen = true;
        bases_chosen.push(format!("{app}={}", points[winner].base_size));
    }

    let mut rows = vec![];
    for p in &points {
        rows.push(vec![
            p.app.to_string(),
            p.backend.name().to_string(),
            p.base_size.to_string(),
            format!("{:.1}ms", p.seconds * 1e3),
            format!("{:.2}", p.gflops),
            if p.chosen { "*".into() } else { String::new() },
        ]);
    }
    print_table(
        &format!("repro tune: backend x base-size sweep (n = {n})"),
        &["app", "backend", "base", "time", "G(fl)op/s", "chosen"],
        &rows,
    );
    println!(
        "fastest: backend {}, bases {}",
        best_backend.name(),
        bases_chosen.join(" ")
    );
    points
}

/// The sweep as a `BENCH_kernels.json` document.
pub fn tune_doc(points: &[TunePoint], quick: bool) -> BenchDoc {
    let mut d = BenchDoc::new(
        "kernels",
        "gep-kernels autotuner: backend x base-size sweep per application",
        quick,
    )
    .host(&crate::util::host_info());
    for p in points {
        d.row(vec![
            ("app", Json::Str(p.app.into())),
            ("backend", Json::Str(p.backend.name().into())),
            ("base_size", Json::Int(p.base_size as i64)),
            ("seconds", Json::Float(p.seconds)),
            ("gflops", Json::Float(p.gflops)),
            ("chosen", Json::Bool(p.chosen)),
        ]);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_covers_grid_and_picks_one_winner_per_app() {
        let points = tune_with(32, 1, &[8, 16]);
        let backends = available_backends().len();
        assert_eq!(points.len(), TUNED_APPS.len() * backends * 2);
        for app in TUNED_APPS {
            assert_eq!(
                points.iter().filter(|p| p.app == app && p.chosen).count(),
                1,
                "exactly one winner for {app}"
            );
        }
        // Every winner sits on one backend.
        let chosen: Vec<&TunePoint> = points.iter().filter(|p| p.chosen).collect();
        assert!(chosen.iter().all(|p| p.backend == chosen[0].backend));
        let doc = tune_doc(&points, true);
        assert_eq!(doc.filename(), "BENCH_kernels.json");
    }
}
