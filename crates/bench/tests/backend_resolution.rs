//! The kernel backend of a `repro` run is the override, `GEP_KERNELS`, or
//! `detect_best()` — never a file in the working directory, and never a
//! name `GEP_KERNELS` does not recognize. Each test runs `repro table2
//! --json` and checks that the emitted host stamp names the detected
//! backend.
//!
//! Lives in an integration test because it starts the `repro` binary as
//! a child process with its own working directory and environment.

use gep_obs::Json;
use std::path::Path;
use std::process::Command;

/// Runs `repro table2 --json` in a fresh directory, prepared by `plant`,
/// with `GEP_KERNELS` set to `kernels` (removed when `None`), and returns
/// the host stamp of the `BENCH_table2.json` it writes.
fn host_stamp(tag: &str, plant: impl FnOnce(&Path), kernels: Option<&str>) -> String {
    let dir = std::env::temp_dir().join(format!("gep-backend-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    plant(&dir);

    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["table2", "--json"]).current_dir(&dir);
    match kernels {
        Some(v) => cmd.env("GEP_KERNELS", v),
        None => cmd.env_remove("GEP_KERNELS"),
    };
    let out = cmd.output().expect("start repro");
    assert!(
        out.status.success(),
        "repro table2 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(dir.join("bench_json/BENCH_table2.json"))
        .expect("repro table2 --json writes BENCH_table2.json");
    let doc = Json::parse(&text).expect("BENCH_table2.json parses");
    let host = doc
        .get("host")
        .and_then(Json::as_str)
        .expect("BENCH_table2.json carries a host stamp")
        .to_string();
    let _ = std::fs::remove_dir_all(&dir);
    host
}

fn assert_detected(host: &str) {
    let want = format!(", kernels {})", gep_kernels::detect_best().name());
    assert!(
        host.ends_with(&want),
        "host {host:?} should end with {want:?}"
    );
}

/// A `tuning.json` naming the `generic` backend, planted in the working
/// directory, changes nothing.
#[test]
fn working_directory_files_do_not_pick_the_backend() {
    let host = host_stamp(
        "cwd",
        |dir| {
            std::fs::write(
                dir.join("tuning.json"),
                r#"{"schema_version":1,"kind":"gep-tuning","backend":"generic","apps":{}}"#,
            )
            .unwrap()
        },
        None,
    );
    assert_detected(&host);
}

/// A `GEP_KERNELS` value that names no backend, such as `sse2`, takes
/// the "not recognized, auto-detecting" path.
#[test]
fn retired_sse2_name_auto_detects() {
    assert_detected(&host_stamp("sse2", |_| {}, Some("sse2")));
}
