//! Kernel and core metrics from the counts the engines publish into
//! `gep_obs` while a traced window runs.

use gep_obs::Recorder;

use crate::metrics::Outcome;

/// Sets the `kernels.*`, `core.*` and `parallel.joins` metrics from a
/// recording of `solves` solves. `serial_s` is the bare serial engine on
/// the same padded input; `(width, padded)` are the columns of real work
/// and the side the engine runs on.
pub fn set_kernel_and_core(
    out: &mut Outcome,
    rec: &Recorder,
    solves: usize,
    serial_s: f64,
    (width, padded): (usize, usize),
) {
    let per_solve = |v: f64| v / solves.max(1) as f64;
    let leaf_total_s = |name: &str| rec.hist(name).map_or(0.0, |h| h.sum() as f64 / 1e9);
    let leaf_s = per_solve(leaf_total_s("kernel.leaf_ns"));
    out.set("kernels.leaf_s", leaf_s, solves);
    for shape in ["a", "b", "c", "d"] {
        let s = per_solve(leaf_total_s(&format!("kernel.leaf.{shape}_ns")));
        out.set(&format!("kernels.leaf_s.{shape}"), s, solves);
    }
    let updates = rec.counter("abcd.updates") as f64;
    out.set(
        "kernels.mupd_per_s",
        updates / leaf_total_s("kernel.leaf_ns") / 1e6,
        solves,
    );
    let base_cases = rec.counter("abcd.base_cases") as f64;
    out.set(
        "kernels.fallback_share",
        rec.counter("kernels.fallback") as f64 / base_cases,
        solves,
    );
    out.set("core.serial_s", serial_s, 1);
    out.set("core.recursion_s", serial_s - leaf_s, solves);
    out.set("core.base_cases", per_solve(base_cases), solves);
    for kind in ["a", "b", "c", "d"] {
        let calls = rec.counter(&format!("abcd.{kind}.calls")) as f64;
        out.set(&format!("core.calls.{kind}"), per_solve(calls), solves);
    }
    let real = (width as f64 / padded as f64).powi(3);
    out.set("core.pad_share", 1.0 - real, 1);
    let joins = rec.counter("parallel.joins") as f64;
    out.set("parallel.joins", per_solve(joins), solves);
}
