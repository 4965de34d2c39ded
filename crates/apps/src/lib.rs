//! # gep-apps — GEP instantiations
//!
//! The problems the paper solves through the Gaussian Elimination Paradigm,
//! each expressed as a [`gep_core::GepSpec`] so every engine (iterative G,
//! cache-oblivious I-GEP, fully general C-GEP, optimised A/B/C/D, the
//! parallel engine, the cache-simulated and out-of-core stores) runs them
//! unchanged:
//!
//! * [`closure`] — the generic algebraic closure [`SemiringSpec`]
//!   (`x ← x ⊕ u ⊗ v`, full `Σ`) over any
//!   [`UpdateAlgebra`](gep_core::algebra::UpdateAlgebra): min-plus APSP,
//!   bottleneck (max-min) widest paths, boolean reachability, …;
//! * [`elimination`] — the generic [`ElimSpec`]
//!   (`x ← x ⊖ u ⊗ w⁻¹ ⊗ v`, `Σ = {i > k ∧ j > k}`) over any
//!   [`EliminationAlgebra`](gep_core::algebra::EliminationAlgebra):
//!   bitsliced GF(2) block elimination, prime fields GF(p), the reals;
//! * [`floyd_warshall`] — all-pairs shortest paths (min-plus, full `Σ`),
//!   with shortest paths rebuilt from the solved distances by walking
//!   tight edges, and cheaper edges folded into a solved matrix by one
//!   `O(n²)` rank-1 relaxation each;
//! * [`gaussian`] — Gaussian elimination without pivoting, the name
//!   [`type@GaussianSpec`] for [`ElimSpec`] over the reals
//!   (`f = x − (u/w)·v`), plus triangular solves and an end-to-end linear
//!   solver;
//! * [`lu`] — LU decomposition without pivoting (multipliers stored
//!   in-place, `Σ = {i > k ∧ j ≥ k}`);
//! * [`matmul`] — matrix multiplication, both as the paper's GEP embedding
//!   into a `2n × 2n` matrix and as the direct divide-and-conquer over
//!   three matrices (the `D`-only recursion with maximal parallelism);
//! * [`transitive_closure`] — Boolean transitive closure
//!   (Warshall's algorithm) on [`SemiringSpec`] over the Boolean semiring;
//! * [`simple_dp`] — the parenthesis problem ("simple DP"), the paper's
//!   cited non-GEP adaptation of the framework, with a polygon
//!   triangulation instance;
//! * [`reference`] — independent textbook implementations used as test
//!   oracles throughout the workspace.

pub mod closure;
pub mod elimination;
pub mod floyd_warshall;
pub mod gaussian;
pub mod lu;
pub mod matmul;
pub mod reference;
pub mod simple_dp;
pub mod transitive_closure;

pub use closure::SemiringSpec;
pub use elimination::ElimSpec;
pub use floyd_warshall::{relax_edge, tight_path, FwPredSpec, FwSpec, InEdges, Weight};
pub use gaussian::GaussianSpec;
pub use lu::LuSpec;
pub use matmul::MatMulEmbedSpec;
