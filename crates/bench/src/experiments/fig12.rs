//! Figure 12: multithreaded I-GEP speedup for matrix multiplication,
//! Gaussian elimination and Floyd–Warshall as the thread count grows.
//!
//! Paper (8-way Opteron 850, n = 5000): speedups at 8 threads are
//! MM 6.0×, FW 5.73×, GE 5.33× — MM parallelises best, as its span is
//! `O(n)` vs `O(n log² n)`.
//!
//! Measured wall-clock speedup is bounded by the host's core count (this
//! is recorded next to the results); the work/span *predicted* speedups
//! from `gep-parallel::span` are printed alongside so the schedule's
//! parallelism is visible even on small hosts.

use crate::util::{fmt_secs, print_table, timed_best};
use crate::workloads::{dd_matrix, random_dist_matrix, rnd_matrix};
use gep_apps::floyd_warshall::FwSpec;
use gep_apps::GaussianSpec;
use gep_core::algebra::PlusTimesF64;
use gep_matrix::Matrix;
use gep_parallel::{igep_parallel, matmul_parallel, span, with_threads};

/// Speedup rows for one application.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Application name.
    pub app: &'static str,
    /// `(threads, seconds, speedup)` per thread count.
    pub points: Vec<(usize, f64, f64)>,
}

/// Runs the thread sweep for the three applications at side `n`.
pub fn fig12(n: usize, threads: &[usize], reps: usize) -> Vec<ScalingRow> {
    let base = 64;
    let fw_input = random_dist_matrix(n, 61612);
    let ge_input = dd_matrix(n, 61612);
    let mm_a = rnd_matrix(n, 1);
    let mm_b = rnd_matrix(n, 2);

    let mut apps: Vec<ScalingRow> = vec![];
    for app in ["MM", "GE", "FW"] {
        let mut points = vec![];
        let mut t1 = 0.0;
        for &p in threads {
            let (_, secs) = match app {
                "MM" => timed_best(reps, || {
                    with_threads(p, || {
                        let mut c = Matrix::square(n, 0.0);
                        matmul_parallel::<PlusTimesF64>(&mut c, &mm_a, &mm_b, base);
                    })
                }),
                "GE" => timed_best(reps, || {
                    with_threads(p, || {
                        let mut c = ge_input.clone();
                        igep_parallel(&GaussianSpec, &mut c, base);
                    })
                }),
                _ => timed_best(reps, || {
                    with_threads(p, || {
                        let mut c = fw_input.clone();
                        igep_parallel(&FwSpec::<i64>::new(), &mut c, base);
                    })
                }),
            };
            if p == threads[0] {
                t1 = secs;
            }
            points.push((p, secs, t1 / secs));
        }
        apps.push(ScalingRow { app, points });
    }

    let mut rows = vec![];
    for row in &apps {
        for &(p, secs, sp) in &row.points {
            rows.push(vec![
                row.app.to_string(),
                p.to_string(),
                fmt_secs(secs),
                if measured(p) {
                    format!("{sp:.2}x")
                } else {
                    "not measured".to_string()
                },
                // Predicted greedy-bound speedup for this schedule.
                format!("{:.2}x", predicted_speedup(row.app, n, p)),
            ]);
        }
    }
    print_table(
        &format!(
            "Figure 12: multithreaded I-GEP, n={n} (host: {})",
            crate::util::host_info()
        ),
        &[
            "app",
            "threads",
            "time",
            "measured speedup",
            "predicted speedup (T₁/p+T∞)",
        ],
        &rows,
    );
    println!("paper (8 threads, n=5000): MM 6.0x, FW 5.73x, GE 5.33x.");
    apps
}

/// Whether a `p`-thread speedup is measured on this host. Beyond its
/// hardware threads the threads time-slice, so T₁/Tₚ there says nothing
/// about the schedule: the table prints `not measured`, the JSON row
/// carries `measured: false` and `repro compare` skips its `speedup`.
pub fn measured(p: usize) -> bool {
    p <= std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Greedy-bound speedup prediction per application: MM uses the `O(n)`
/// span, FW/GE the full `O(n log² n)` A/B/C/D span.
pub fn predicted_speedup(app: &str, n: usize, p: usize) -> f64 {
    let work = span::work_full_sigma(n) as f64;
    let sp = match app {
        "MM" => span::span_mm(n) as f64,
        _ => span::span_full(n) as f64,
    };
    (work / 1.0 + sp) / (work / p as f64 + sp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_runs_complete_and_match() {
        // Smoke: one small sweep; correctness of parallel engines is
        // covered in gep-parallel's own tests.
        let rows = fig12(128, &[1, 2], 1);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.points.len(), 2);
            assert!(r.points.iter().all(|&(_, s, _)| s > 0.0));
        }
    }

    #[test]
    fn predicted_ordering_mm_best() {
        let n = 4096;
        let mm = predicted_speedup("MM", n, 8);
        let fw = predicted_speedup("FW", n, 8);
        assert!(mm >= fw, "MM has the larger predicted speedup");
        assert!(mm > 6.0, "MM prediction near-linear: {mm:.2}");
    }
}
