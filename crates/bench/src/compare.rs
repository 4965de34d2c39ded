//! The bench-trajectory regression gate: `repro compare <baseline> [current]`.
//!
//! Diffs two directories of `BENCH_*.json` files field by field. Rows are
//! matched by their *identity fields* (strings, booleans used as labels,
//! and the well-known sweep parameters `n`, `threads`, `p`, `m_bytes`,
//! `b_bytes`); every other numeric field is a *metric* judged by a
//! per-metric [`Tolerance`] derived from its name:
//!
//! * timing fields (`*_s`, `seconds`, `speedup`, ...) are noisy —
//!   lower-is-better with a wide 50% band, and skipped entirely in
//!   `deterministic_only` mode (the CI gate, where baseline and current
//!   may run on different hardware);
//! * measured hardware counters (`hw_*`) are machine-specific — always
//!   informational, never gated;
//! * simulated miss counts, span/work counts and other integers are
//!   deterministic — they must match exactly.
//!
//! A *regression* is a gated metric outside its tolerance in the bad
//! direction, or a baseline row/file missing from the current run
//! (coverage loss). Extra files or rows in the current run are fine — new
//! experiments are not regressions. `repro compare` exits nonzero iff
//! regressions are found.

use gep_obs::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// How a metric is judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Growth beyond tolerance is a regression (times, misses).
    LowerIsBetter,
    /// Shrinking beyond tolerance is a regression (speedups).
    HigherIsBetter,
    /// Any drift beyond tolerance is a regression (deterministic counts).
    Exact,
}

/// Per-metric comparison policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerance {
    /// Allowed relative drift (0.0 = exact, 0.5 = 50%).
    pub rel: f64,
    /// Which drift direction counts as a regression.
    pub direction: Direction,
    /// Noisy metrics are skipped in `deterministic_only` mode.
    pub noisy: bool,
    /// Informational metrics are reported but never gate the exit code.
    pub informational: bool,
}

/// Row-identity parameters: integer fields that position a row within a
/// sweep rather than measuring anything.
const PARAM_KEYS: &[&str] = &[
    "n",
    "threads",
    "p",
    "m_bytes",
    "b_bytes",
    "base",
    "processors",
];

/// Whether an integer field positions a row in a sweep (identity) rather
/// than measuring something. Shared with [`crate::trajectory`]'s
/// flattening so both views agree on row identity.
pub fn is_param_key(field: &str) -> bool {
    PARAM_KEYS.contains(&field)
}

/// The naming-convention classifier. Pure and unit-tested — this is the
/// whole tolerance policy.
pub fn tolerance_for(field: &str) -> Tolerance {
    if field.starts_with("hw_") {
        // Measured hardware counters vary across machines and with PMU
        // multiplexing; report drift, never gate on it.
        return Tolerance {
            rel: 1.0,
            direction: Direction::LowerIsBetter,
            noisy: true,
            informational: true,
        };
    }
    if field.ends_with("_ns") {
        // Nanosecond latency fields (serving p50/p99 and friends) are
        // pure wall-clock: report drift, never gate. Deterministic
        // serving facts (request counts, epochs) use other names and
        // stay exact.
        return Tolerance {
            rel: 1.0,
            direction: Direction::LowerIsBetter,
            noisy: true,
            informational: true,
        };
    }
    if field.ends_with("_share") {
        // Derived latency fractions (e.g. the loadgen's network+queue
        // share of client p99): ratios of wall-clock measurements, so
        // report drift, never gate.
        return Tolerance {
            rel: 1.0,
            direction: Direction::LowerIsBetter,
            noisy: true,
            informational: true,
        };
    }
    if field.ends_with("_s") || field == "seconds" || field.ends_with("gflops") {
        return Tolerance {
            rel: 0.5,
            direction: Direction::LowerIsBetter,
            noisy: true,
            informational: false,
        };
    }
    if field.contains("speedup") {
        return Tolerance {
            rel: 0.5,
            direction: Direction::HigherIsBetter,
            noisy: true,
            informational: false,
        };
    }
    if field.starts_with("ratio") || field.starts_with("fit") || field.ends_with("bound") {
        // Derived analytic quantities: deterministic inputs but float
        // arithmetic; a small band absorbs formatting/rounding drift.
        return Tolerance {
            rel: 0.1,
            direction: Direction::Exact,
            noisy: false,
            informational: false,
        };
    }
    // Everything else — simulated miss counts, span/work counts, flags
    // stored as 0/1 — is deterministic and must match exactly.
    Tolerance {
        rel: 0.0,
        direction: Direction::Exact,
        noisy: false,
        informational: false,
    }
}

/// One comparison finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// `<file> <row-key> <field>` locator.
    pub what: String,
    /// Human-readable delta.
    pub detail: String,
}

/// The full diff of two result sets.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Gated metrics outside tolerance in the bad direction, plus
    /// baseline rows/files missing from the current run.
    pub regressions: Vec<Finding>,
    /// Gated metrics outside tolerance in the *good* direction.
    pub improvements: Vec<Finding>,
    /// Drift in informational metrics (`hw_*`), never gating.
    pub notes: Vec<Finding>,
    /// Metric values actually compared.
    pub compared: usize,
}

impl CompareReport {
    /// True when the gate should fail the run.
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }
}

/// Identity key of a row: every string field, plus the `PARAM_KEYS`
/// integers, in field order.
fn row_key(row: &Json) -> String {
    let Json::Obj(fields) = row else {
        return String::from("<non-object>");
    };
    let mut parts = Vec::new();
    for (k, v) in fields {
        match v {
            Json::Str(s) => parts.push(format!("{k}={s}")),
            Json::Int(i) if PARAM_KEYS.contains(&k.as_str()) => parts.push(format!("{k}={i}")),
            _ => {}
        }
    }
    if parts.is_empty() {
        String::from("<row>")
    } else {
        parts.join(",")
    }
}

fn metric_fields(row: &Json) -> Vec<(&str, f64)> {
    let Json::Obj(fields) = row else {
        return Vec::new();
    };
    fields
        .iter()
        .filter(|(k, v)| {
            !(matches!(v, Json::Str(_))
                || matches!(v, Json::Int(_)) && PARAM_KEYS.contains(&k.as_str()))
        })
        .filter_map(|(k, v)| {
            let num = match v {
                Json::Bool(b) => Some(*b as i64 as f64),
                other => other.as_gauge(),
            };
            num.map(|n| (k.as_str(), n))
        })
        .collect()
}

/// `measured: false` marks a row whose thread count exceeds the host's
/// hardware threads (fig12): its `speedup` times time-slicing, not
/// scaling, so it is not compared. The flag itself is host context, never
/// a metric.
fn unmeasured(row: &Json) -> bool {
    matches!(row.get("measured"), Some(Json::Bool(false)))
}

fn compare_metric(
    report: &mut CompareReport,
    what: String,
    field: &str,
    base: f64,
    cur: f64,
    deterministic_only: bool,
) {
    let tol = tolerance_for(field);
    if deterministic_only && tol.noisy && !tol.informational {
        return;
    }
    if !base.is_finite() || !cur.is_finite() {
        // NaN/Inf sentinels: only a change of class is reportable.
        if base.is_nan() != cur.is_nan() || (base.is_infinite() && base != cur) {
            report.regressions.push(Finding {
                what,
                detail: format!("{field}: {base} -> {cur} (non-finite class changed)"),
            });
        }
        return;
    }
    report.compared += 1;
    let scale = base.abs().max(1e-12);
    let drift = (cur - base) / scale;
    let (bad, good) = match tol.direction {
        Direction::LowerIsBetter => (drift > tol.rel, drift < -tol.rel),
        Direction::HigherIsBetter => (drift < -tol.rel, drift > tol.rel),
        Direction::Exact => (drift.abs() > tol.rel, false),
    };
    if !bad && !good {
        return;
    }
    let finding = Finding {
        what,
        detail: format!(
            "{field}: {base} -> {cur} ({:+.1}% vs ±{:.0}% tolerance)",
            drift * 100.0,
            tol.rel * 100.0
        ),
    };
    if tol.informational {
        report.notes.push(finding);
    } else if bad {
        report.regressions.push(finding);
    } else {
        report.improvements.push(finding);
    }
}

/// Compares two parsed `BENCH_*.json` documents (pure; unit-tested).
pub fn compare_docs(
    file: &str,
    baseline: &Json,
    current: &Json,
    deterministic_only: bool,
    report: &mut CompareReport,
) {
    let empty: [Json; 0] = [];
    let base_rows = baseline
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let cur_rows = current.get("rows").and_then(Json::as_arr).unwrap_or(&empty);
    let mut cur_by_key: BTreeMap<String, &Json> = BTreeMap::new();
    for row in cur_rows {
        cur_by_key.insert(row_key(row), row);
    }
    for row in base_rows {
        let key = row_key(row);
        let Some(cur_row) = cur_by_key.get(&key) else {
            report.regressions.push(Finding {
                what: format!("{file} [{key}]"),
                detail: "row present in baseline, missing from current run".into(),
            });
            continue;
        };
        let cur_metrics: BTreeMap<&str, f64> = metric_fields(cur_row).into_iter().collect();
        let skip_speedup = unmeasured(row) || unmeasured(cur_row);
        for (field, base_val) in metric_fields(row) {
            if field == "measured" || (skip_speedup && field == "speedup") {
                continue;
            }
            match cur_metrics.get(field) {
                Some(&cur_val) => compare_metric(
                    report,
                    format!("{file} [{key}]"),
                    field,
                    base_val,
                    cur_val,
                    deterministic_only,
                ),
                None => report.regressions.push(Finding {
                    what: format!("{file} [{key}]"),
                    detail: format!("field {field} present in baseline, missing now"),
                }),
            }
        }
    }
}

fn bench_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    gep_obs::bench::validate(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}

/// Compares every baseline `BENCH_*.json` against its counterpart under
/// `current`. Errors only on unreadable/invalid input; regressions are
/// reported in the result, not as an `Err`.
pub fn compare_dirs(
    baseline: &Path,
    current: &Path,
    deterministic_only: bool,
) -> Result<CompareReport, String> {
    let base_paths = bench_files(baseline)?;
    if base_paths.is_empty() {
        return Err(format!(
            "no BENCH_*.json files in baseline {}",
            baseline.display()
        ));
    }
    let mut report = CompareReport::default();
    for base_path in &base_paths {
        let name = base_path
            .file_name()
            .and_then(|f| f.to_str())
            .expect("bench_files yields BENCH_*.json names");
        let base_doc = load(base_path)?;
        let cur_path = current.join(name);
        if !cur_path.exists() {
            report.regressions.push(Finding {
                what: name.to_string(),
                detail: "file present in baseline, missing from current run".into(),
            });
            continue;
        }
        compare_docs(
            name,
            &base_doc,
            &load(&cur_path)?,
            deterministic_only,
            &mut report,
        );
    }
    Ok(report)
}

/// Prints the report in the order the user scans it: regressions (the
/// reason the gate fails), then improvements, then informational notes.
pub fn print_report(report: &CompareReport) {
    for f in &report.regressions {
        println!("REGRESSION {}: {}", f.what, f.detail);
    }
    for f in &report.improvements {
        println!("improved   {}: {}", f.what, f.detail);
    }
    for f in &report.notes {
        println!("note       {}: {}", f.what, f.detail);
    }
    println!(
        "{} metric(s) compared: {} regression(s), {} improvement(s), {} note(s)",
        report.compared,
        report.regressions.len(),
        report.improvements.len(),
        report.notes.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gep_obs::BenchDoc;

    #[test]
    fn tolerances_follow_the_naming_convention() {
        let t = tolerance_for("gep_s");
        assert_eq!(t.direction, Direction::LowerIsBetter);
        assert!(t.noisy && !t.informational && t.rel >= 0.3);
        let t = tolerance_for("speedup");
        assert_eq!(t.direction, Direction::HigherIsBetter);
        let t = tolerance_for("hw_llc_misses");
        assert!(t.informational && t.noisy);
        let t = tolerance_for("igep_l2_misses");
        assert_eq!(
            t,
            Tolerance {
                rel: 0.0,
                direction: Direction::Exact,
                noisy: false,
                informational: false,
            }
        );
        assert_eq!(tolerance_for("ratio_sim_over_bound").rel, 0.1);
        // Serving latencies: wall-clock nanoseconds are informational;
        // serving counts/epochs fall through to exact.
        let t = tolerance_for("p99_ns");
        assert!(t.informational && t.noisy);
        assert_eq!(t.direction, Direction::LowerIsBetter);
        let t = tolerance_for("net_queue_share");
        assert!(t.informational && t.noisy, "latency shares never gate");
        assert_eq!(tolerance_for("epoch_regressions").rel, 0.0);
        assert!(!tolerance_for("requests").informational);
        assert!(
            !tolerance_for("slo_pass").informational,
            "SLO verdicts gate exactly"
        );
    }

    fn doc(rows: Vec<Vec<(&str, Json)>>) -> Json {
        let mut d = BenchDoc::new("t", "test", true);
        for r in rows {
            d.row(r);
        }
        d.to_json()
    }

    #[test]
    fn deterministic_drift_is_a_regression_and_timing_noise_is_not() {
        let base = doc(vec![vec![
            ("n", Json::Int(256)),
            ("igep_l2_misses", Json::Int(1000)),
            ("igep_s", Json::Float(1.0)),
        ]]);
        let cur = doc(vec![vec![
            ("n", Json::Int(256)),
            ("igep_l2_misses", Json::Int(1001)),
            ("igep_s", Json::Float(1.4)), // +40% < 50% band
        ]]);
        let mut report = CompareReport::default();
        compare_docs("BENCH_t.json", &base, &cur, false, &mut report);
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert!(report.regressions[0].detail.contains("igep_l2_misses"));
        assert!(report.has_regressions());
    }

    #[test]
    fn timing_regressions_gate_only_past_the_wide_band() {
        let base = doc(vec![vec![
            ("n", Json::Int(64)),
            ("gep_s", Json::Float(1.0)),
        ]]);
        let slow = doc(vec![vec![
            ("n", Json::Int(64)),
            ("gep_s", Json::Float(1.6)),
        ]]);
        let mut report = CompareReport::default();
        compare_docs("f", &base, &slow, false, &mut report);
        assert_eq!(report.regressions.len(), 1);
        // The same drift is ignored in deterministic-only (CI) mode.
        let mut report = CompareReport::default();
        compare_docs("f", &base, &slow, true, &mut report);
        assert!(!report.has_regressions());
        assert_eq!(report.compared, 0);
    }

    #[test]
    fn faster_times_and_hw_drift_do_not_gate() {
        let base = doc(vec![vec![
            ("n", Json::Int(64)),
            ("gep_s", Json::Float(1.0)),
            ("hw_llc_misses", Json::Int(1_000_000)),
        ]]);
        let cur = doc(vec![vec![
            ("n", Json::Int(64)),
            ("gep_s", Json::Float(0.2)),
            ("hw_llc_misses", Json::Int(9_000_000)),
        ]]);
        let mut report = CompareReport::default();
        compare_docs("f", &base, &cur, false, &mut report);
        assert!(!report.has_regressions(), "{:?}", report.regressions);
        assert_eq!(report.improvements.len(), 1);
        assert_eq!(report.notes.len(), 1, "hw drift is a note");
    }

    #[test]
    fn missing_rows_and_fields_are_coverage_regressions() {
        let base = doc(vec![
            vec![
                ("engine", Json::Str("igep".into())),
                ("misses", Json::Int(5)),
            ],
            vec![
                ("engine", Json::Str("gep".into())),
                ("misses", Json::Int(9)),
            ],
        ]);
        let cur = doc(vec![vec![("engine", Json::Str("igep".into()))]]);
        let mut report = CompareReport::default();
        compare_docs("f", &base, &cur, false, &mut report);
        // One missing row (gep), one missing field (igep.misses).
        assert_eq!(report.regressions.len(), 2, "{:?}", report.regressions);
        // Extra rows in current are NOT regressions.
        let mut report = CompareReport::default();
        compare_docs("f", &cur, &base, false, &mut report);
        assert!(!report.has_regressions());
    }

    #[test]
    fn rows_match_on_identity_not_position() {
        let base = doc(vec![
            vec![("n", Json::Int(128)), ("work", Json::Int(7))],
            vec![("n", Json::Int(256)), ("work", Json::Int(8))],
        ]);
        // Same rows, reversed order: no findings.
        let cur = doc(vec![
            vec![("n", Json::Int(256)), ("work", Json::Int(8))],
            vec![("n", Json::Int(128)), ("work", Json::Int(7))],
        ]);
        let mut report = CompareReport::default();
        compare_docs("f", &base, &cur, false, &mut report);
        assert!(!report.has_regressions());
        assert_eq!(report.compared, 2);
    }

    #[test]
    fn unmeasured_speedups_are_skipped() {
        let row = |speedup: f64, measured: bool| {
            vec![
                ("app", Json::Str("FW".into())),
                ("threads", Json::Int(8)),
                ("speedup", Json::Float(speedup)),
                ("predicted_speedup", Json::Float(5.0)),
                ("measured", Json::Bool(measured)),
            ]
        };
        let base = doc(vec![row(4.0, true)]);
        // A host with fewer hardware threads: the collapsed speedup is
        // not a regression, and the flag itself is not compared.
        let cur = doc(vec![row(0.9, false)]);
        let mut report = CompareReport::default();
        compare_docs("f", &base, &cur, false, &mut report);
        assert!(!report.has_regressions(), "{:?}", report.regressions);
        assert_eq!(report.compared, 1, "only predicted_speedup is compared");
        let mut report = CompareReport::default();
        compare_docs("f", &cur, &base, false, &mut report);
        assert!(!report.has_regressions(), "{:?}", report.regressions);
        // Measured on both sides, the same drop gates.
        let mut report = CompareReport::default();
        compare_docs("f", &base, &doc(vec![row(0.9, true)]), false, &mut report);
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert!(report.regressions[0].detail.contains("speedup"));
    }

    #[test]
    fn nonfinite_sentinels_compare_by_class() {
        let base = doc(vec![vec![
            ("n", Json::Int(8)),
            ("ratio_hw_over_bound", Json::from_f64(f64::NAN)),
        ]]);
        let same = base.clone();
        let mut report = CompareReport::default();
        compare_docs("f", &base, &same, false, &mut report);
        assert!(!report.has_regressions());
        let changed = doc(vec![vec![
            ("n", Json::Int(8)),
            ("ratio_hw_over_bound", Json::Float(2.0)),
        ]]);
        let mut report = CompareReport::default();
        compare_docs("f", &base, &changed, false, &mut report);
        assert_eq!(report.regressions.len(), 1);
    }

    #[test]
    fn compare_dirs_end_to_end() {
        let root = std::env::temp_dir().join("gep_bench_compare_test");
        let _ = std::fs::remove_dir_all(&root);
        let (b, c) = (root.join("base"), root.join("cur"));
        let mut base = BenchDoc::new("sweep", "t", true);
        base.row(vec![("n", Json::Int(4)), ("count", Json::Int(10))]);
        base.write_to(&b).unwrap();
        let mut cur = BenchDoc::new("sweep", "t", true);
        cur.row(vec![("n", Json::Int(4)), ("count", Json::Int(11))]);
        cur.write_to(&c).unwrap();
        let report = compare_dirs(&b, &c, false).expect("comparable");
        assert!(report.has_regressions());
        // Identical dirs: clean.
        let report = compare_dirs(&b, &b, false).unwrap();
        assert!(!report.has_regressions());
        // Empty baseline dir: an input error, not a clean pass.
        std::fs::create_dir_all(root.join("empty")).unwrap();
        assert!(compare_dirs(&root.join("empty"), &c, false).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }
}
