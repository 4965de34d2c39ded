//! Workspace-wide differential verification: `gep_core::verify` plus the
//! multithreaded engines.
//!
//! `gep-core` can only register the engines it owns; this module extends
//! the registry with `gep-parallel`'s two entry points, giving the full
//! seven-engine harness the `diffcheck` binary and the cross-engine tests
//! drive. Divergence localization is order-insensitive (records are keyed
//! by `⟨i,j,k⟩`), so the parallel engines' nondeterministic log order is
//! harmless.

pub use gep_core::verify::*;
use gep_core::GepSpec;
use gep_kernels::Backend;
use gep_matrix::Matrix;

/// Whether `backend`'s f64 elimination kernels fuse multiply-subtract
/// (AVX2's `_mm256_fnmadd_pd`), rounding once where G rounds twice. Only
/// AVX2 does: under every other backend f64 GE and LU equal G bit for
/// bit.
pub fn fuses(backend: Backend) -> bool {
    backend == Backend::Avx2
}

/// Whether two f64 elimination results agree as `backend` promises:
/// bitwise, or within 1e-9 where it [`fuses`].
pub fn elim_agrees(backend: Backend, got: &Matrix<f64>, want: &Matrix<f64>) -> bool {
    if fuses(backend) {
        got.approx_eq(want, 1e-9)
    } else {
        got == want
    }
}

/// Every engine in the workspace: the five sequential ones from
/// [`core_engines`] plus `igep_parallel` and `cgep_parallel` (run on the
/// ambient rayon pool).
pub fn all_engines<S: GepSpec + Sync>() -> Vec<Engine<S>> {
    let mut v = core_engines::<S>();
    v.push(Engine {
        name: "igep_parallel",
        fully_general: false,
        run: |s, c, b| gep_parallel::igep_parallel(s, c, b),
    });
    v.push(Engine {
        name: "cgep_parallel",
        fully_general: true,
        run: |s, c, b| gep_parallel::cgep_parallel(s, c, b),
    });
    v
}
