//! Timing and table-formatting helpers for the harness.

use std::time::Instant;

/// Times a closure, returning `(result, seconds)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Times a closure, keeping the best (minimum) of `reps` runs — the
/// standard way to suppress scheduling noise for deterministic kernels.
pub fn timed_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    assert!(reps >= 1);
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..reps {
        let (r, t) = timed(&mut f);
        if t < best {
            best = t;
            out = r;
        }
    }
    (out, best)
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// `GFLOP/s` for an operation count and elapsed time.
pub fn gflops(flops: f64, seconds: f64) -> f64 {
    flops / seconds / 1e9
}

/// Formats seconds adaptively (`ms` below 1 s).
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Best-effort host description: model name from `/proc/cpuinfo`,
/// hardware threads, and the kernel backend `gep-kernels` selects, e.g.
/// `… (2 hardware threads, kernels avx512)`, so every BENCH row and
/// trajectory entry names the register tile that produced it.
pub fn host_info() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(str::trim)
        .unwrap_or("unknown CPU");
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let kernels = gep_kernels::selected_backend().name();
    format!("{model} ({cores} hardware threads, kernels {kernels})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_info_names_the_backend() {
        let want = format!(", kernels {})", gep_kernels::selected_backend().name());
        assert!(host_info().ends_with(&want), "{}", host_info());
    }

    #[test]
    fn timed_measures_something() {
        let (v, t) = timed(|| (0..10_000).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(t >= 0.0);
    }

    #[test]
    fn timed_best_returns_min() {
        let mut calls = 0;
        let (_, t) = timed_best(3, || {
            calls += 1;
        });
        assert_eq!(calls, 3);
        assert!(t >= 0.0);
    }

    #[test]
    fn gflops_math() {
        assert!((gflops(2e9, 1.0) - 2.0).abs() < 1e-12);
        assert!((gflops(1e9, 0.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fmt_secs_units() {
        assert_eq!(fmt_secs(2.0), "2.00s");
        assert_eq!(fmt_secs(0.0123), "12.3ms");
    }
}
