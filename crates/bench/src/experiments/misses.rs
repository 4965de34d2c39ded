//! `repro misses` — measured cache misses vs cachesim vs the paper bound.
//!
//! The paper's Section 4 claim is that I-GEP's *real* miss counts track
//! the cache-oblivious `Θ(n³/(B√M))` bound while iterative GEP pays
//! `Θ(n³/B)`. This experiment sweeps `n` for both Gaussian elimination
//! and Floyd–Warshall over four engines —
//!
//! * `iterative` — the triply nested loop of Figure 1,
//! * `blocked` — the cache-aware blocked baseline (GE only),
//! * `igep` — the plain I-GEP recursion (no vector kernels),
//! * `igep_kernel` — I-GEP with the `gep-kernels` base cases (row label
//!   carries the active backend name),
//!
//! — and reports three miss numbers per row: **measured** LLC misses from
//! hardware counters (`gep-hwc`; absent on denied hosts, never zero),
//! **simulated** LLC misses from a host-shaped [`TrackedMatrix`]
//! hierarchy (engines the simulator can drive), and the **analytic**
//! bound evaluated with the host's detected `B` and `M`. The fitted
//! constants (median measured/bound — [`gep_cachesim::fit_constant`])
//! quantify how tightly the asymptotic curves describe this machine.

use crate::util::{fmt_secs, print_table, timed_best};
use crate::workloads::{dd_matrix, random_dist_matrix};
use gep_apps::{FwSpec, GaussianSpec};
use gep_blaslike::ge_blocked;
use gep_cachesim::{
    fit_constant, igep_miss_bound, iterative_miss_bound, AddressSpace, Hierarchy, HostCaches,
    TrackedMatrix,
};
use gep_core::{gep_iterative, igep, igep_opt};
use gep_hwc::{Availability, HwReading, HwSpan};
use std::cell::RefCell;
use std::rc::Rc;

/// Elements are `f64` (GE) or `i64` (FW) — 8 bytes either way.
const ELEM_BYTES: u64 = 8;

/// The cache geometry the bound and the simulator both use.
#[derive(Clone, Debug)]
pub struct Geometry {
    /// Last-level cache capacity in bytes (the bound's `M`).
    pub llc_bytes: u64,
    /// Cache line size in bytes (the bound's `B`).
    pub line_bytes: u64,
    /// `"sysfs"` when detected from the host, else the Table 2 fallback.
    pub source: &'static str,
    host: Option<HostCaches>,
}

impl Geometry {
    /// Detects the host geometry, falling back to the simulated Intel
    /// Xeon's L2 when `/sys` is unavailable (non-Linux).
    pub fn detect() -> Geometry {
        match gep_cachesim::detect_host() {
            Some(host) => {
                let ll = host.last_level().expect("detect_host yields levels");
                Geometry {
                    llc_bytes: ll.size_bytes,
                    line_bytes: ll.line_bytes,
                    source: "sysfs",
                    host: Some(host),
                }
            }
            None => {
                let xeon = gep_cachesim::table2_machines()[0];
                Geometry {
                    llc_bytes: xeon.l2.0,
                    line_bytes: xeon.l2.2,
                    source: "table2-xeon-l2",
                    host: None,
                }
            }
        }
    }

    fn hierarchy(&self) -> Hierarchy {
        match &self.host {
            Some(h) => h.hierarchy().expect("detected hosts have L1+LLC"),
            None => gep_cachesim::table2_machines()[0].hierarchy(),
        }
    }
}

/// One (app, engine, n) measurement.
#[derive(Clone, Debug)]
pub struct MissRow {
    /// `"ge"` or `"fw"`.
    pub app: &'static str,
    /// Engine slug (see module docs).
    pub engine: &'static str,
    /// Kernel backend name for `igep_kernel`, `"-"` otherwise.
    pub backend: &'static str,
    /// Matrix side.
    pub n: usize,
    /// Best-of-reps wall time.
    pub seconds: f64,
    /// Analytic miss bound for this engine at the host geometry
    /// (unscaled — multiply by the fitted constant to predict counts).
    pub bound: f64,
    /// Simulated LLC misses, when the simulator can drive this engine.
    pub sim_llc: Option<u64>,
    /// Hardware readings, when counters are live.
    pub hw: Option<HwReading>,
}

impl MissRow {
    /// Measured LLC misses, if the PMU scheduled that event.
    pub fn hw_llc(&self) -> Option<u64> {
        self.hw.as_ref().and_then(HwReading::llc_misses)
    }

    /// `simulated / bound`.
    pub fn ratio_sim(&self) -> Option<f64> {
        self.sim_llc
            .filter(|_| self.bound > 0.0)
            .map(|s| s as f64 / self.bound)
    }

    /// `measured / bound`.
    pub fn ratio_hw(&self) -> Option<f64> {
        self.hw_llc()
            .filter(|_| self.bound > 0.0)
            .map(|m| m as f64 / self.bound)
    }
}

/// The full experiment result.
#[derive(Clone, Debug)]
pub struct MissesOutcome {
    /// All rows, grouped by app then n then engine.
    pub rows: Vec<MissRow>,
    /// Geometry both the bound and the simulator used.
    pub geometry: Geometry,
    /// Why hardware counters were unavailable, if they were.
    pub hwc_reason: Option<String>,
    /// Fitted constants: `("fit_hw.ge.igep", 1.8)`-style pairs, one per
    /// (source, app, engine) with data.
    pub fits: Vec<(String, f64)>,
}

/// Runs the sweep with default sizes. Degrades gracefully: on hosts that
/// deny `perf_event_open` the measured column is absent (and
/// `hwc.unavailable` counts the attempts), never zero.
pub fn misses(quick: bool) -> MissesOutcome {
    let (sizes, sim_cap, reps): (&[usize], usize, usize) = if quick {
        (&[128, 256], 256, 1)
    } else {
        (&[256, 512, 1024], 512, 2)
    };
    misses_sized(sizes, sim_cap, reps, gep_hwc::availability())
}

/// [`misses`] with every environment input injected — sizes, the largest
/// `n` worth simulating, and the counter availability decision (the
/// force-deny tests drive this directly).
pub fn misses_sized(
    sizes: &[usize],
    sim_cap: usize,
    reps: usize,
    avail: &Availability,
) -> MissesOutcome {
    let geometry = Geometry::detect();
    let mut rows = Vec::new();

    // Times `f`, then repeats it once more under hardware counters. The
    // counted run is separate from the timed ones so counter multiplexing
    // never pollutes the timing column.
    let measure = |label: &str, reps: usize, f: &mut dyn FnMut()| -> (f64, Option<HwReading>) {
        let (_, secs) = timed_best(reps, &mut *f);
        let span = HwSpan::start_with(label, avail);
        f();
        (secs, span.stop())
    };

    let backend = gep_kernels::selected_backend().name();
    for &n in sizes {
        let sim = n <= sim_cap;

        // Gaussian elimination (f64, diagonally dominant input).
        let input = dd_matrix(n, 61612 + n as u64);
        let sim_ge = |use_igep: bool| -> u64 {
            let cache = Rc::new(RefCell::new(geometry.hierarchy()));
            let mut space = AddressSpace::new();
            let mut t = TrackedMatrix::new(input.clone(), cache.clone(), &mut space);
            if use_igep {
                igep(&GaussianSpec, &mut t, 64);
            } else {
                gep_iterative(&GaussianSpec, &mut t);
            }
            let misses = cache.borrow().l2_stats().misses;
            misses
        };
        let it_bound = iterative_miss_bound(n, geometry.line_bytes, ELEM_BYTES);
        let rec_bound = igep_miss_bound(n, geometry.llc_bytes, geometry.line_bytes, ELEM_BYTES);

        let (secs, hw) = measure("ge.iterative", reps, &mut || {
            let mut c = input.clone();
            gep_iterative(&GaussianSpec, &mut c);
            std::hint::black_box(&c);
        });
        rows.push(MissRow {
            app: "ge",
            engine: "iterative",
            backend: "-",
            n,
            seconds: secs,
            bound: it_bound,
            sim_llc: sim.then(|| sim_ge(false)),
            hw,
        });

        let (secs, hw) = measure("ge.blocked", reps, &mut || {
            let mut c = input.clone();
            ge_blocked(&mut c, 64);
            std::hint::black_box(&c);
        });
        rows.push(MissRow {
            app: "ge",
            engine: "blocked",
            backend: "-",
            n,
            seconds: secs,
            bound: rec_bound,
            sim_llc: None, // the simulator drives CellStore engines only
            hw,
        });

        let (secs, hw) = measure("ge.igep", reps, &mut || {
            let mut c = input.clone();
            igep(&GaussianSpec, &mut c, 64);
            std::hint::black_box(&c);
        });
        rows.push(MissRow {
            app: "ge",
            engine: "igep",
            backend: "-",
            n,
            seconds: secs,
            bound: rec_bound,
            sim_llc: sim.then(|| sim_ge(true)),
            hw,
        });

        let (secs, hw) = measure(&format!("ge.igep_{backend}"), reps, &mut || {
            let mut c = input.clone();
            igep_opt(&GaussianSpec, &mut c, gep_kernels::DEFAULT_BASE_SIZE);
            std::hint::black_box(&c);
        });
        rows.push(MissRow {
            app: "ge",
            engine: "igep_kernel",
            backend,
            n,
            seconds: secs,
            bound: rec_bound,
            sim_llc: None, // kernel base cases bypass per-element access
            hw,
        });

        // Floyd–Warshall (i64 min-plus).
        let spec = FwSpec::<i64>::new();
        let input = random_dist_matrix(n, 61613 + n as u64);
        let sim_fw = |use_igep: bool| -> u64 {
            let cache = Rc::new(RefCell::new(geometry.hierarchy()));
            let mut space = AddressSpace::new();
            let mut t = TrackedMatrix::new(input.clone(), cache.clone(), &mut space);
            if use_igep {
                igep(&spec, &mut t, 64);
            } else {
                gep_iterative(&spec, &mut t);
            }
            let misses = cache.borrow().l2_stats().misses;
            misses
        };

        let (secs, hw) = measure("fw.iterative", reps, &mut || {
            let mut c = input.clone();
            gep_iterative(&spec, &mut c);
            std::hint::black_box(&c);
        });
        rows.push(MissRow {
            app: "fw",
            engine: "iterative",
            backend: "-",
            n,
            seconds: secs,
            bound: it_bound,
            sim_llc: sim.then(|| sim_fw(false)),
            hw,
        });

        let (secs, hw) = measure("fw.igep", reps, &mut || {
            let mut c = input.clone();
            igep(&spec, &mut c, 64);
            std::hint::black_box(&c);
        });
        rows.push(MissRow {
            app: "fw",
            engine: "igep",
            backend: "-",
            n,
            seconds: secs,
            bound: rec_bound,
            sim_llc: sim.then(|| sim_fw(true)),
            hw,
        });

        let (secs, hw) = measure(&format!("fw.igep_{backend}"), reps, &mut || {
            let mut c = input.clone();
            igep_opt(&spec, &mut c, gep_kernels::DEFAULT_BASE_SIZE);
            std::hint::black_box(&c);
        });
        rows.push(MissRow {
            app: "fw",
            engine: "igep_kernel",
            backend,
            n,
            seconds: secs,
            bound: rec_bound,
            sim_llc: None,
            hw,
        });
    }

    let fits = compute_fits(&rows);
    MissesOutcome {
        rows,
        geometry,
        hwc_reason: avail.reason().map(str::to_string),
        fits,
    }
}

fn compute_fits(rows: &[MissRow]) -> Vec<(String, f64)> {
    let mut fits = Vec::new();
    let mut keys: Vec<(&str, &str)> = Vec::new();
    for r in rows {
        if !keys.contains(&(r.app, r.engine)) {
            keys.push((r.app, r.engine));
        }
    }
    for (app, engine) in keys {
        let of = |rows: &[MissRow], pick: &dyn Fn(&MissRow) -> Option<u64>| -> Option<f64> {
            let pairs: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.app == app && r.engine == engine)
                .filter_map(|r| pick(r).map(|m| (m as f64, r.bound)))
                .collect();
            fit_constant(&pairs)
        };
        if let Some(c) = of(rows, &MissRow::hw_llc) {
            fits.push((format!("fit_hw.{app}.{engine}"), c));
        }
        if let Some(c) = of(rows, &|r: &MissRow| r.sim_llc) {
            fits.push((format!("fit_sim.{app}.{engine}"), c));
        }
    }
    fits
}

/// Prints the measured-vs-simulated-vs-bound tables.
pub fn print_misses(outcome: &MissesOutcome) {
    let g = &outcome.geometry;
    println!(
        "\ncache geometry ({}): LLC M = {} KB, line B = {} bytes (sqrt(M) = {:.0} elements)",
        g.source,
        g.llc_bytes / 1024,
        g.line_bytes,
        gep_cachesim::predicted_speedup_factor(g.llc_bytes, ELEM_BYTES),
    );
    match &outcome.hwc_reason {
        Some(reason) => println!("hardware counters unavailable: {reason}"),
        None => println!("hardware counters: live (perf_event_open)"),
    }
    let cell = |v: Option<String>| v.unwrap_or_else(|| "-".into());
    for (app, title) in [
        ("ge", "Gaussian elimination (f64)"),
        ("fw", "Floyd-Warshall (i64 min-plus)"),
    ] {
        let rows: Vec<Vec<String>> = outcome
            .rows
            .iter()
            .filter(|r| r.app == app)
            .map(|r| {
                vec![
                    r.n.to_string(),
                    if r.engine == "igep_kernel" {
                        format!("{} ({})", r.engine, r.backend)
                    } else {
                        r.engine.to_string()
                    },
                    fmt_secs(r.seconds),
                    cell(r.hw_llc().map(|v| v.to_string())),
                    cell(r.sim_llc.map(|v| v.to_string())),
                    format!("{:.3e}", r.bound),
                    cell(r.ratio_hw().map(|v| format!("{v:.2}"))),
                    cell(r.ratio_sim().map(|v| format!("{v:.2}"))),
                ]
            })
            .collect();
        print_table(
            &format!("repro misses: {title}"),
            &[
                "n",
                "engine",
                "time",
                "LLC misses (hw)",
                "LLC misses (sim)",
                "bound n^3/(B*sqrt(M))",
                "hw/bound",
                "sim/bound",
            ],
            &rows,
        );
    }
    if outcome.fits.is_empty() {
        println!("no fitted constants (no measured or simulated misses)");
    } else {
        for (name, c) in &outcome.fits {
            println!("{name} = {c:.3}");
        }
        println!("(median measured/bound per engine; the paper predicts O(1) constants for igep)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn force_denied_counters_degrade_not_fail() {
        let _g = lock();
        gep_obs::install(gep_obs::Recorder::counters_only());
        let denied = Availability::Unavailable {
            reason: "mocked perf_event_paranoid=3".to_string(),
        };
        let outcome = misses_sized(&[32, 64], 64, 1, &denied);
        // The experiment completes with every engine row present...
        assert_eq!(outcome.rows.len(), 2 * 7);
        assert_eq!(
            outcome.hwc_reason.as_deref(),
            Some("mocked perf_event_paranoid=3")
        );
        for row in &outcome.rows {
            // ...hardware columns absent (None), never zero...
            assert!(row.hw.is_none(), "{row:?}");
            assert!(row.hw_llc().is_none());
            assert!(row.bound > 0.0, "{row:?}");
            assert!(row.seconds >= 0.0);
        }
        // ...simulated misses still flow for the CellStore engines...
        for row in &outcome.rows {
            match row.engine {
                "iterative" | "igep" => assert!(row.sim_llc.is_some(), "{row:?}"),
                _ => assert!(row.sim_llc.is_none(), "{row:?}"),
            }
        }
        // ...and the recorder shows the degradation marker, not fake zeros.
        let rec = gep_obs::take().unwrap();
        assert_eq!(rec.counter("hwc.unavailable"), outcome.rows.len() as u64);
        assert!(
            !rec.counters
                .keys()
                .any(|k| k.starts_with("hwc.ge.") || k.starts_with("hwc.fw.")),
            "denied runs must not publish event counters: {:?}",
            rec.counters
        );
        // Fits exist from the simulated side even with no hardware.
        assert!(outcome.fits.iter().any(|(n, _)| n.starts_with("fit_sim.")));
        assert!(!outcome.fits.iter().any(|(n, _)| n.starts_with("fit_hw.")));
    }

    #[test]
    fn bounds_order_iterative_above_igep() {
        let g = Geometry::detect();
        let it = iterative_miss_bound(512, g.line_bytes, ELEM_BYTES);
        let ig = igep_miss_bound(512, g.llc_bytes, g.line_bytes, ELEM_BYTES);
        assert!(
            it > ig,
            "n^3/B must dominate n^3/(B*sqrt(M)): it={it} ig={ig}"
        );
    }

    #[test]
    fn live_sweep_smoke() {
        let _g = lock();
        // Whatever this host allows: rows complete, ratios only exist
        // where their inputs do.
        gep_obs::install(gep_obs::Recorder::counters_only());
        let outcome = misses_sized(&[32], 32, 1, gep_hwc::availability());
        let _ = gep_obs::take();
        assert_eq!(outcome.rows.len(), 7);
        for row in &outcome.rows {
            assert_eq!(row.ratio_hw().is_some(), row.hw_llc().is_some());
            assert_eq!(row.ratio_sim().is_some(), row.sim_llc.is_some());
        }
        if outcome.hwc_reason.is_none() {
            // Live counters: at least the software clock was read.
            assert!(outcome.rows.iter().any(|r| r.hw.is_some()));
        }
    }
}
