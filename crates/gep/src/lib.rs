//! # gep — the cache-oblivious Gaussian Elimination Paradigm
//!
//! Facade crate over the GEP workspace, a Rust implementation of
//! *Chowdhury & Ramachandran, "The Cache-oblivious Gaussian Elimination
//! Paradigm: Theoretical Framework, Parallelization and Experimental
//! Evaluation"*.
//!
//! ## Quickstart
//!
//! ```
//! use gep::prelude::*;
//!
//! // All-pairs shortest paths, cache-obliviously.
//! let edges = [(0usize, 1, 3i64), (1, 2, 4), (2, 3, 1), (3, 0, 9)];
//! let mut d = gep::apps::floyd_warshall::distance_matrix(4, &edges);
//! gep::apps::floyd_warshall::apsp(&mut d, 64);
//! assert_eq!(d[(0, 3)], 8); // 0 -> 1 -> 2 -> 3
//!
//! // Solve a linear system by GEP Gaussian elimination.
//! let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
//! let x = gep::apps::gaussian::solve(&a, &[1.0, 2.0], 64);
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! ```
//!
//! ## Crate map
//!
//! * [`core`] — the paradigm: `GepSpec`, iterative **G**, cache-oblivious
//!   **I-GEP**, fully general **C-GEP** (two space variants), the
//!   optimised A/B/C/D engine, π/δ/τ theory and trace verification.
//! * [`matrix`] — dense storage, views, Morton-tiled layouts.
//! * [`apps`] — Floyd–Warshall, Gaussian elimination, LU, matrix
//!   multiplication, transitive closure (+ reference oracles).
//! * [`parallel`] — multithreaded I-GEP on rayon; span accounting.
//! * [`cachesim`] — ideal-cache and Table-2 machine simulators.
//! * [`extmem`] — the out-of-core substrate (simulated disk + page
//!   cache).
//! * [`blaslike`] — the cache-aware blocked baseline.
//! * [`kernels`] — vectorized base-case kernels (portable / AVX2+FMA /
//!   AVX-512) with runtime dispatch (see `docs/KERNELS.md`).
//! * [`obs`] — observability: counters, spans, bench-JSON schema.
//! * [`hwc`] — hardware performance counters via raw `perf_event_open`,
//!   publishing `hwc.*` into [`obs`]; degrades gracefully where denied
//!   (see `docs/OBSERVABILITY.md`).
//! * [`verify`] — the seven-engine differential harness: trace every
//!   engine against iterative G, localize the first divergent update,
//!   delta-minimize failing instances (`gep-bench`'s `diffcheck` CLI).

pub mod verify;

pub use gep_apps as apps;
pub use gep_blaslike as blaslike;
pub use gep_cachesim as cachesim;
pub use gep_core as core;
pub use gep_extmem as extmem;
pub use gep_hwc as hwc;
pub use gep_kernels as kernels;
pub use gep_matrix as matrix;
pub use gep_obs as obs;
pub use gep_parallel as parallel;

/// The commonly needed names in one import.
pub mod prelude {
    pub use gep_apps::{FwSpec, GaussianSpec, LuSpec, SemiringSpec};
    pub use gep_core::{
        cgep_full, cgep_reduced, gep_iterative, igep, igep_opt, CellStore, GepSpec,
    };
    pub use gep_matrix::Matrix;
    pub use gep_parallel::{igep_parallel, with_threads};
}
