//! The metric vocabulary, the record a workload run produces, and the
//! step that turns runs into the reported metrics.
//!
//! Each run reports every metric of its kind — every end-to-end metric
//! untraced, every per-layer metric traced — on every workload. A metric
//! whose layer a workload does not cross is a count or a fraction that
//! reads 0 there; every time is measured on every workload. The tables
//! here are the single source of names, units, directions and bounds;
//! a test holds `BENCHMARK.json` to them.

use gep_obs::Json;
use std::collections::BTreeMap;

use crate::stats::Dist;

/// End-to-end metrics: name, unit, regression bound (share of the parent's
/// median). All are better lower. The timing bounds are as wide as the
/// benchmark contract allows: on the shared two-core host other tenants
/// move whole runs, and ten seeds of one commit spread (interquartile
/// range over median) up to 9% on `solve_s` and 18% on `latency_p50_ms`.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.25),
    ("solve_s", "s", 0.25),
    ("latency_p50_ms", "ms", 0.25),
    ("rss_mb", "MB", 0.10),
];

/// Per-layer metrics of a traced run: name, unit, better direction.
pub const PER_LAYER: [(&str, &str, &str); 27] = [
    ("kernels.leaf_s", "s", "lower"),
    ("kernels.leaf_s.a", "s", "lower"),
    ("kernels.leaf_s.b", "s", "lower"),
    ("kernels.leaf_s.c", "s", "lower"),
    ("kernels.leaf_s.d", "s", "lower"),
    ("kernels.mupd_per_s", "Mupd/s", "higher"),
    ("kernels.fallback_share", "fraction", "lower"),
    ("core.serial_s", "s", "lower"),
    ("core.recursion_s", "s", "lower"),
    ("core.base_cases", "count", "lower"),
    ("core.calls.a", "count", "lower"),
    ("core.calls.b", "count", "lower"),
    ("core.calls.c", "count", "lower"),
    ("core.calls.d", "count", "lower"),
    ("core.pad_share", "fraction", "lower"),
    ("apps.overhead_share", "fraction", "lower"),
    ("parallel.joins", "count", "lower"),
    ("parallel.speedup", "ratio", "higher"),
    ("parallel.cpu_util", "fraction", "higher"),
    ("serve.resolves", "count", "lower"),
    ("serve.edges_per_resolve", "ratio", "higher"),
    ("serve.staleness_per_solve", "ratio", "lower"),
    ("serve.lookup_share.dist", "fraction", "lower"),
    ("serve.lookup_share.path", "fraction", "lower"),
    ("harness.ops", "count", "higher"),
    ("harness.late_share", "fraction", "lower"),
    ("obs.trace_overhead_share", "fraction", "lower"),
];

/// Threads the workloads may use; CPU utilisation is measured against it.
pub const THREADS: usize = 2;

/// What one workload process measured: metric values (or raw set-up
/// samples, pooled across processes by [`finalize`]) with their sample
/// counts, and every operation and check it attempted.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<String, (f64, u64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub backend: String,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            backend: gep_kernels::selected_backend().name().into(),
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.values.insert(name.into(), (value, samples as u64));
    }

    /// Counts one attempted operation or check, and its failure.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    pub fn to_json(&self) -> Json {
        let values = self
            .values
            .iter()
            .map(|(k, &(v, n))| {
                (
                    k.clone(),
                    Json::Arr(vec![Json::from_f64(v), Json::Int(n as i64)]),
                )
            })
            .collect();
        Json::obj(vec![
            ("values", Json::Obj(values)),
            ("attempted", Json::Int(self.attempted as i64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            ("backend", Json::Str(self.backend.clone())),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Outcome, String> {
        let bad = || format!("malformed workload record: {doc}");
        let mut out = Outcome::default();
        let Some(Json::Obj(values)) = doc.get("values") else {
            return Err(bad());
        };
        for (k, pair) in values {
            match pair.as_arr() {
                Some([v, n]) => {
                    let v = v.as_gauge().ok_or_else(bad)?;
                    out.values
                        .insert(k.clone(), (v, n.as_u64().ok_or_else(bad)?));
                }
                _ => return Err(bad()),
            }
        }
        out.attempted = doc
            .get("attempted")
            .and_then(Json::as_u64)
            .ok_or_else(bad)?;
        for f in doc.get("failures").and_then(Json::as_arr).ok_or_else(bad)? {
            out.failures.push(f.as_str().ok_or_else(bad)?.into());
        }
        out.backend = doc
            .get("backend")
            .and_then(Json::as_str)
            .ok_or_else(bad)?
            .into();
        Ok(out)
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// The metrics of one benchmark run, with its correctness tally.
#[derive(Debug)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub backend: String,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Json::obj(vec![
                    ("value", Json::from_f64(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failures.len() as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Builds the report of one run from its measuring process and its extra
/// set-up processes. A value the set-up processes also report is pooled
/// over all processes: `setup_s` as the median, `solve_s` — the fastest
/// solve — as the minimum.
pub fn finalize(trace: bool, main: Outcome, setups: Vec<Outcome>) -> Report {
    let mut values = main.values;
    let mut attempted = main.attempted;
    let mut failures = main.failures;
    let mut pooled: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for setup in setups {
        attempted += setup.attempted;
        failures.extend(setup.failures);
        for (k, (v, _)) in setup.values {
            pooled.entry(k).or_default().push(v);
        }
    }
    for (k, mut samples) in pooled {
        let mut n = samples.len() as u64;
        if let Some(&(v, main_n)) = values.get(&k) {
            samples.push(v);
            n += main_n;
        }
        let pooled = if k == "solve_s" {
            samples.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            Dist::new(samples).median()
        };
        values.insert(k, (pooled, n));
    }
    let table: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    };
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        match values.remove(name) {
            Some((value, samples)) if value.is_finite() => metrics.push(Metric {
                name,
                unit,
                value,
                samples,
            }),
            Some((value, _)) => failures.push(format!("metric {name} is {value}")),
            None => failures.push(format!("metric {name} was not measured")),
        }
    }
    if let Some(extra) = values.keys().next() {
        failures.push(format!("undeclared metric {extra}"));
    }
    Report {
        metrics,
        attempted,
        failures,
        backend: main.backend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips_through_json() {
        let mut o = Outcome::new();
        o.set("setup_s", 0.123456789, 1);
        o.check(Ok(()));
        o.check(Err("residual 1e-3 above 1e-12".into()));
        let back = Outcome::from_json(&Json::parse(&o.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.values, o.values);
        assert_eq!((back.attempted, back.failures), (2, o.failures));
        assert_eq!(back.backend, o.backend);
    }

    #[test]
    fn setup_samples_pool_as_a_median_and_undeclared_names_fail() {
        let mut main = Outcome::new();
        for (name, _, _) in END_TO_END {
            main.set(name, 1.0, 7);
        }
        main.set("setup_s", 3.0, 1);
        let setups = [2.0, 9.0]
            .into_iter()
            .map(|v| {
                let mut o = Outcome::new();
                o.set("setup_s", v, 1);
                o.check(Ok(()));
                o
            })
            .collect();
        let report = finalize(false, main, setups);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let setup = report.metrics.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.value, setup.samples), (3.0, 3));
        assert_eq!(report.attempted, 2);

        let mut stray = Outcome::new();
        stray.set("made.up", 1.0, 1);
        let report = finalize(true, stray, Vec::new());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("undeclared metric made.up")));
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("kernels.leaf_s was not measured")));
    }
}
