//! # gep-core — the Gaussian Elimination Paradigm
//!
//! This crate implements the computational framework of
//! *Chowdhury & Ramachandran, "The Cache-oblivious Gaussian Elimination
//! Paradigm: Theoretical Framework, Parallelization and Experimental
//! Evaluation"* (SPAA).
//!
//! **GEP** is the triply nested loop
//!
//! ```text
//! for k in 0..n: for i in 0..n: for j in 0..n:
//!     if (i, j, k) ∈ Σ:  c[i][j] = f(c[i][j], c[i][k], c[k][j], c[k][k])
//! ```
//!
//! parameterised by an update function `f` and an update set `Σ`
//! (together, a [`GepSpec`]). Instances include Gaussian elimination and LU
//! decomposition without pivoting, Floyd–Warshall all-pairs shortest paths,
//! and matrix multiplication (see the `gep-apps` crate).
//!
//! The crate provides four engines, all generic over a [`CellStore`] so the
//! same code runs in-core, under a cache simulator (`gep-cachesim`) and
//! out-of-core (`gep-extmem`):
//!
//! * [`iterative::gep_iterative`] — **G** (Figure 1): the Θ(n³)-work,
//!   Θ(n³/B)-I/O reference loop. The paradigm's *defining semantics*.
//! * [`igep::igep`] — **I-GEP / F** (Figure 2): in-place cache-oblivious
//!   recursion, Θ(n³/(B√M)) I/Os. Equivalent to G for an important class of
//!   specs (all the applications above) but *not* for arbitrary GEP — see
//!   [`spec::SumSpec`] for the paper's Section 2.2.1 counterexample.
//! * [`cgep::cgep_full`] — **C-GEP / H** (Figure 3): I-GEP plus four
//!   snapshot matrices `u0, u1, v0, v1` (4n² extra space); equivalent to G
//!   for **every** `f` and `Σ`.
//! * [`cgep_reduced::cgep_reduced`] — C-GEP with a liveness-managed
//!   snapshot store in place of the four full matrices, implementing the
//!   paper's reduced-space observation (~n²+n live snapshots).
//!
//! In addition, [`abcd`] implements the paper's Figure 6 decomposition of
//! I-GEP into the function family `A / B / C / D` over raw in-core storage
//! ([`gepmat::GepMat`]); it is the high-performance sequential engine and —
//! through the [`joiner::Joiner`] abstraction — the one tree that
//! `gep-parallel` runs multithreaded, with I-GEP's kernels or C-GEP's
//! snapshot leaf ([`cgep::cgep_abcd`]) at its leaves.
//!
//! ## Index conventions
//!
//! The paper uses 1-based indices `i, j, k ∈ [1, n]`. This crate is 0-based:
//! `i, j, k ∈ [0, n)`. The *state index* `m ∈ [0, n]` of a cell `(i, j)`
//! denotes its value after all updates `⟨i, j, k'⟩ ∈ Σ` with `k' < m` have
//! been applied (and no others); state 0 is the initial value. The theory
//! functions [`theory::pi_state`] and [`theory::delta_state`] return state
//! indices under this convention, which absorbs the paper's `k − |·|`
//! subscript arithmetic into clean half-open prefixes.
//!
//! The I-GEP and C-GEP engines ([`igep()`], [`igep_opt`], the resumable
//! cursor, [`cgep_full`], [`cgep_reduced()`] and [`cgep::cgep_abcd`])
//! take any side that halves exactly down to leaves of side `<= base`: a
//! power of two, or a [`gep_matrix::fit_side`] for that base (use
//! [`gep_matrix::Matrix::padded`] to embed other sizes). The π/δ/τ theory
//! functions need a power of two.

pub mod abcd;
pub mod algebra;
pub mod cgep;
pub mod cgep_reduced;
pub mod gepmat;
pub mod igep;
pub mod iterative;
pub mod joiner;
pub mod legality;
pub mod resume;
pub mod spec;
pub mod store;
pub mod theory;
pub mod trace;
pub mod verify;
pub mod walk;

pub use abcd::igep_opt;
pub use algebra::{
    EliminationAlgebra, Gf2, Gf2Block, Gf2x64, GfMersenne31, GfP, MaxMinI64, MinPlusF64,
    MinPlusI64, OrAndBool, PlusTimesF64, UpdateAlgebra, TROPICAL_INF,
};
pub use cgep::{cgep_full, cgep_full_with};
pub use cgep_reduced::{cgep_reduced, ReducedSpaceStats};
pub use gepmat::GepMat;
pub use igep::{igep, igep_box};
pub use iterative::gep_iterative;
pub use joiner::{Joiner, Serial};
pub use legality::{check_igep_legality, Legality};
pub use resume::{igep_resumable, igep_step_count, ResumeOutcome, StepControl};
pub use spec::{BoxShape, ClosureSpec, ExplicitSet, GepSpec, SumSpec};
pub use store::CellStore;
pub use verify::{diff_engine, diff_engines, DiffReport, Divergence, Engine, TraceSpec};
pub use walk::{walk_leaves, Cube};
