//! # gep-bench — the reproduction harness
//!
//! One module per experiment in the paper's Section 4 (plus the
//! theoretical artefacts of Sections 2–3). The `repro` binary
//! (`cargo run -p gep-bench --release --bin repro -- <exp>`) prints each
//! table/figure as text rows; the Criterion benches in `benches/` provide
//! statistically sound timing for the in-core comparisons.
//!
//! | subcommand | paper artefact |
//! |---|---|
//! | `counterexample` | §2.2.1 — the 2×2 instance where I-GEP ≠ GEP |
//! | `table1` | Table 1 — operand states read by G and F |
//! | `table2` | Table 2 — machine inventory (+ this host) |
//! | `fig7a` | out-of-core I/O wait vs cache size `M` |
//! | `fig7b` | out-of-core I/O wait vs `M/B` |
//! | `fig8` | in-core Floyd–Warshall: GEP vs I-GEP |
//! | `fig9` | I-GEP vs C-GEP (both variants): time and L2 misses |
//! | `fig10` | Gaussian elimination: GEP vs I-GEP vs cache-aware baseline |
//! | `fig11` | matrix multiplication: GEP vs I-GEP vs baseline (+ misses) |
//! | `fig12` | multithreaded I-GEP speedup |
//! | `span` | §3 — span recurrences / predicted parallelism |
//! | `space` | §2.2.2 — reduced-space C-GEP live-snapshot peaks |
//! | `resume` | checkpoint/recovery determinism (see `docs/EXTMEM.md`) |
//! | `lemma31` | Lemma 3.1(b) — distributed-cache deterministic schedule |
//! | `tune` | `gep-kernels` autotuner — backend × base-size sweep report |

pub mod compare;
pub mod crashcheck;
pub mod experiments;
pub mod incrcheck;
pub mod jsonout;
pub mod trajectory;
pub mod util;
pub mod workloads;

pub use experiments::*;
