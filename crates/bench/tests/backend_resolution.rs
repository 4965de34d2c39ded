//! The kernel backend of a `repro` run is the override, `GEP_KERNELS`, or
//! `detect_best()` — never a file in the working directory. This test
//! plants a `tuning.json` that names the `generic` backend there, runs
//! without `GEP_KERNELS`, and checks that the emitted host stamp still
//! names the detected backend.
//!
//! Lives in an integration test because it starts the `repro` binary as
//! a child process with its own working directory and environment.

use gep_obs::Json;
use std::process::Command;

#[test]
fn working_directory_files_do_not_pick_the_backend() {
    let dir = std::env::temp_dir().join(format!("gep-backend-cwd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("tuning.json"),
        r#"{"schema_version":1,"kind":"gep-tuning","backend":"generic","apps":{}}"#,
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table2", "--json"])
        .current_dir(&dir)
        .env_remove("GEP_KERNELS")
        .output()
        .expect("start repro");
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

    let want = format!(", kernels {})", gep_kernels::detect_best().name());
    assert!(
        host.ends_with(&want),
        "host {host:?} should end with {want:?}"
    );
}
