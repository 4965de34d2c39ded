//! The repo-root `BENCH_trajectory.json` — an append-style record of bench
//! snapshots across PRs.
//!
//! Every `repro all --json` (and every `repro compare`) appends one entry
//! summarizing the current `bench_json/` output, so the repo carries its
//! own measurement history: schema-versioned, validated by
//! `repro validate`, and diffable in review like any other text file.
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "kind": "gep-bench-trajectory",
//!   "entries": [
//!     { "seq": 1, "unix_time": 1754500000, "host": "...", "quick": true,
//!       "source": "all",
//!       "metrics": { "fig8.n=512.gep_s": 0.51, ... } },
//!     ...
//!   ]
//! }
//! ```
//!
//! Metrics are the flattened numeric fields of every `BENCH_*.json` row,
//! keyed `<experiment>.<row-identity>.<field>` — the same row identity the
//! [`compare`](crate::compare) gate matches on.

use gep_obs::Json;
use std::path::Path;

/// Trajectory file schema version.
pub const TRAJECTORY_VERSION: i64 = 1;
/// The `kind` discriminator (distinguishes the file from BENCH_* docs).
pub const TRAJECTORY_KIND: &str = "gep-bench-trajectory";
/// Filename at the repository root.
pub const TRAJECTORY_FILE: &str = "BENCH_trajectory.json";

/// Flattens one parsed `BENCH_*.json` document into `(key, value)` metric
/// pairs. Strings and sweep parameters form the key; every other numeric
/// field (including the non-finite gauge sentinels) becomes a value.
pub fn flatten_doc(doc: &Json) -> Vec<(String, Json)> {
    let Some(experiment) = doc.get("experiment").and_then(Json::as_str) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if let Some(rows) = doc.get("rows").and_then(Json::as_arr) {
        for row in rows {
            let Json::Obj(fields) = row else { continue };
            let identity: Vec<String> = fields
                .iter()
                .filter_map(|(k, v)| match v {
                    Json::Str(s) => Some(format!("{k}={s}")),
                    Json::Int(i) if crate::compare::is_param_key(k) => Some(format!("{k}={i}")),
                    _ => None,
                })
                .collect();
            let prefix = if identity.is_empty() {
                experiment.to_string()
            } else {
                format!("{experiment}.{}", identity.join(","))
            };
            for (k, v) in fields {
                let numeric = match v {
                    Json::Str(_) => None,
                    Json::Int(_) if crate::compare::is_param_key(k) => None,
                    Json::Bool(b) => Some(Json::Int(*b as i64)),
                    other if other.as_gauge().is_some() => Some(other.clone()),
                    _ => None,
                };
                if let Some(n) = numeric {
                    out.push((format!("{prefix}.{k}"), n));
                }
            }
        }
    }
    for section in ["counters", "gauges"] {
        if let Some(Json::Obj(fields)) = doc.get(section) {
            for (k, v) in fields {
                if v.as_gauge().is_some() {
                    // `serve.connections` in BENCH_serve stays as is, not
                    // `serve.serve.connections`.
                    let key = if k.starts_with(&format!("{experiment}.")) {
                        k.clone()
                    } else {
                        format!("{experiment}.{k}")
                    };
                    out.push((key, v.clone()));
                }
            }
        }
    }
    out
}

/// Builds one trajectory entry from every `BENCH_*.json` in `bench_dir`.
pub fn entry_from_dir(
    bench_dir: &Path,
    source: &str,
    quick: bool,
    host: &str,
) -> Result<Json, String> {
    let entries = std::fs::read_dir(bench_dir)
        .map_err(|e| format!("cannot read {}: {e}", bench_dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
        })
        .collect();
    paths.sort();
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        metrics.extend(flatten_doc(&doc));
    }
    if metrics.is_empty() {
        return Err(format!(
            "no BENCH_*.json metrics under {}",
            bench_dir.display()
        ));
    }
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    Ok(Json::obj(vec![
        ("seq", Json::Int(0)), // assigned by append
        ("unix_time", Json::Int(unix_time)),
        ("host", Json::Str(host.to_string())),
        ("quick", Json::Bool(quick)),
        ("source", Json::Str(source.to_string())),
        ("metrics", Json::Obj(metrics.into_iter().collect())),
    ]))
}

fn empty_trajectory() -> Json {
    Json::obj(vec![
        ("schema_version", Json::Int(TRAJECTORY_VERSION)),
        ("kind", Json::Str(TRAJECTORY_KIND.to_string())),
        ("entries", Json::Arr(Vec::new())),
    ])
}

/// Appends `entry` to the trajectory file at `path` (created if missing),
/// assigning the next `seq`. Returns the assigned sequence number.
pub fn append(path: &Path, entry: Json) -> Result<i64, String> {
    let mut doc = if path.exists() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        validate(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
        doc
    } else {
        empty_trajectory()
    };
    let Json::Obj(fields) = &mut doc else {
        unreachable!("validate guarantees an object");
    };
    let entries = fields
        .iter_mut()
        .find(|(k, _)| k == "entries")
        .map(|(_, v)| v)
        .expect("validate guarantees entries");
    let Json::Arr(items) = entries else {
        unreachable!("validate guarantees an array");
    };
    let seq = items
        .iter()
        .filter_map(|e| e.get("seq").and_then(Json::as_i64))
        .max()
        .unwrap_or(0)
        + 1;
    let Json::Obj(mut entry_fields) = entry else {
        return Err("trajectory entry must be an object".into());
    };
    for (k, v) in &mut entry_fields {
        if k == "seq" {
            *v = Json::Int(seq);
        }
    }
    items.push(Json::Obj(entry_fields));
    let mut text = String::new();
    render(&doc, &mut text);
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(seq)
}

/// One entry per line, so the file diffs append-only in review.
fn render(doc: &Json, out: &mut String) {
    let Json::Obj(fields) = doc else {
        doc.write_into(out);
        return;
    };
    out.push_str("{\n");
    for (idx, (k, v)) in fields.iter().enumerate() {
        out.push_str("  ");
        Json::Str(k.clone()).write_into(out);
        out.push_str(": ");
        match (k.as_str(), v) {
            ("entries", Json::Arr(items)) => {
                out.push_str("[\n");
                for (eidx, item) in items.iter().enumerate() {
                    out.push_str("    ");
                    item.write_into(out);
                    if eidx + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str("  ]");
            }
            _ => v.write_into(out),
        }
        if idx + 1 < fields.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("}\n");
}

/// Validates a trajectory document's envelope.
pub fn validate(doc: &Json) -> Result<(), String> {
    if !doc.is_obj() {
        return Err("trajectory is not a JSON object".into());
    }
    match doc.get("schema_version").and_then(Json::as_i64) {
        Some(TRAJECTORY_VERSION) => {}
        Some(v) => {
            return Err(format!(
                "trajectory schema_version {v} != {TRAJECTORY_VERSION}"
            ))
        }
        None => return Err("missing integer schema_version".into()),
    }
    match doc.get("kind").and_then(Json::as_str) {
        Some(TRAJECTORY_KIND) => {}
        other => return Err(format!("kind {other:?} != {TRAJECTORY_KIND:?}")),
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing entries array")?;
    let mut last_seq = 0;
    for (idx, entry) in entries.iter().enumerate() {
        if !entry.is_obj() {
            return Err(format!("entries[{idx}] is not an object"));
        }
        let seq = entry
            .get("seq")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("entries[{idx}] missing integer seq"))?;
        if seq <= last_seq {
            return Err(format!(
                "entries[{idx}].seq {seq} not strictly increasing (prev {last_seq})"
            ));
        }
        last_seq = seq;
        entry
            .get("unix_time")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("entries[{idx}] missing integer unix_time"))?;
        entry
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entries[{idx}] missing string source"))?;
        entry
            .get("quick")
            .and_then(|q| q.as_bool())
            .ok_or_else(|| format!("entries[{idx}] missing boolean quick"))?;
        let Some(Json::Obj(metrics)) = entry.get("metrics") else {
            return Err(format!("entries[{idx}] missing metrics object"));
        };
        for (k, v) in metrics {
            if v.as_gauge().is_none() {
                return Err(format!("entries[{idx}].metrics.{k} is not numeric: {v}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gep_obs::BenchDoc;

    fn mkdoc() -> BenchDoc {
        let mut d = BenchDoc::new("fig8", "t", true);
        d.row(vec![
            ("n", Json::Int(512)),
            ("gep_s", Json::Float(0.5)),
            ("engine", Json::Str("igep".into())),
        ]);
        d.counter("cache.l2.misses", 7);
        d.gauge("fit.c", 2.5);
        d
    }

    #[test]
    fn flatten_keys_rows_by_identity() {
        let pairs = flatten_doc(&mkdoc().to_json());
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"fig8.n=512,engine=igep.gep_s"), "{keys:?}");
        assert!(keys.contains(&"fig8.cache.l2.misses"), "{keys:?}");
        assert!(keys.contains(&"fig8.fit.c"), "{keys:?}");
        // Identity fields are in the key, not duplicated as metrics.
        assert!(!keys.iter().any(|k| k.ends_with(".n")), "{keys:?}");
    }

    #[test]
    fn counter_keys_are_prefixed_once() {
        let mut d = BenchDoc::new("serve", "t", true);
        d.counter("serve.connections", 3);
        d.counter("kernels.fallback", 0);
        let pairs = flatten_doc(&d.to_json());
        let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort();
        assert_eq!(keys, ["serve.connections", "serve.kernels.fallback"]);
    }

    #[test]
    fn append_assigns_increasing_seq_and_validates() {
        let dir = std::env::temp_dir().join("gep_bench_trajectory_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        mkdoc().write_to(&dir.join("bench_json")).unwrap();
        let path = dir.join(TRAJECTORY_FILE);
        let entry = || {
            entry_from_dir(&dir.join("bench_json"), "all", true, "test host")
                .expect("bench dir has metrics")
        };
        assert_eq!(append(&path, entry()), Ok(1));
        assert_eq!(append(&path, entry()), Ok(2));
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        validate(&doc).expect("written trajectory validates");
        assert_eq!(doc.get("entries").unwrap().as_arr().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validator_rejects_broken_trajectories() {
        validate(&empty_trajectory()).expect("fresh file is valid");
        let cases = [
            ("not object", Json::Int(1)),
            (
                "bad kind",
                Json::obj(vec![
                    ("schema_version", Json::Int(1)),
                    ("kind", Json::Str("other".into())),
                    ("entries", Json::Arr(vec![])),
                ]),
            ),
            (
                "non-increasing seq",
                Json::obj(vec![
                    ("schema_version", Json::Int(1)),
                    ("kind", Json::Str(TRAJECTORY_KIND.into())),
                    (
                        "entries",
                        Json::Arr(vec![
                            Json::obj(vec![
                                ("seq", Json::Int(2)),
                                ("unix_time", Json::Int(0)),
                                ("host", Json::Str("h".into())),
                                ("quick", Json::Bool(true)),
                                ("source", Json::Str("all".into())),
                                ("metrics", Json::obj(vec![("m", Json::Int(1))])),
                            ]),
                            Json::obj(vec![
                                ("seq", Json::Int(2)),
                                ("unix_time", Json::Int(0)),
                                ("host", Json::Str("h".into())),
                                ("quick", Json::Bool(true)),
                                ("source", Json::Str("all".into())),
                                ("metrics", Json::obj(vec![("m", Json::Int(1))])),
                            ]),
                        ]),
                    ),
                ]),
            ),
        ];
        for (label, doc) in cases {
            assert!(validate(&doc).is_err(), "{label} should fail");
        }
    }

    #[test]
    fn entry_requires_metrics() {
        let dir = std::env::temp_dir().join("gep_bench_trajectory_empty");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(entry_from_dir(&dir, "all", true, "h").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
