//! # gep-parallel — multithreaded I-GEP (paper Section 3)
//!
//! The Figure 6 `A / B / C / D` recursion from `gep-core::abcd`, executed
//! on rayon's work-stealing pool via [`RayonJoiner`]. With `p` workers the
//! engine performs `T₁ = Θ(n³)` work and runs in
//! `O(n³/p + n log² n)` parallel steps (Theorem 3.1); for pure matrix
//! multiplication the all-independent `D` recursion improves the span to
//! `O(n)`.
//!
//! Also provided:
//!
//! * [`cgep_parallel`] — multithreaded C-GEP: the same tree with C-GEP's
//!   snapshot leaf ([`gep_core::cgep::cgep_abcd`]). Every engine here
//!   forks through [`RayonJoiner`] alone.
//! * [`span`] — analytic work/span accounting for Figure 6 and for the
//!   naive parallelisation the paper mentions first (only the middle two
//!   quadrant calls of each Figure 2 pass concurrent, span
//!   `Θ(n^{log₂ 6})`), verifying the Section 3 recurrences numerically.
//! * [`with_threads`] — scoped thread-pool control for the speedup
//!   experiments (Figure 12).

pub mod cgep_par;
pub mod span;

pub use cgep_par::cgep_parallel;

use gep_core::{GepSpec, Joiner};
use gep_matrix::Matrix;

/// Rayon-backed joiner: `join` maps to [`rayon::join`].
///
/// Both closures are wrapped in [`gep_obs::inherit`], so a solve run
/// under [`gep_obs::record`] keeps recording into its own scope on
/// whatever thread rayon runs each half.
#[derive(Clone, Copy, Debug, Default)]
pub struct RayonJoiner;

impl Joiner for RayonJoiner {
    #[inline]
    fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
    {
        gep_obs::counter_add("parallel.joins", 1);
        rayon::join(gep_obs::inherit(a), gep_obs::inherit(b))
    }
}

/// Multithreaded I-GEP: the full Figure 6 schedule on the current rayon
/// pool.
///
/// Result is identical to the sequential engines for every spec on which
/// I-GEP is exact (the parallel groups of Figure 6 are independent, so the
/// computation is deterministic).
///
/// # Panics
/// Panics unless `c` is square with a side that halves exactly down to
/// leaves of side `<= base_size` (a power of two, or a
/// [`gep_matrix::fit_side`] for the same base).
pub fn igep_parallel<S>(spec: &S, c: &mut Matrix<S::Elem>, base_size: usize)
where
    S: GepSpec + Sync,
{
    let _span = gep_obs::span("igep_parallel", "parallel")
        .arg("n", c.n() as i64)
        .arg("base", base_size as i64)
        .arg("threads", rayon::current_num_threads() as i64);
    // Hardware counters for the whole parallel region: the span opens with
    // the inherit flag, so rayon workers spawned under it are counted too.
    // Inert without a recorder; degrades to `hwc.unavailable` on denied
    // hosts.
    let _hw = gep_hwc::HwSpan::start("parallel.igep");
    // Resolve the kernel backend before the first rayon join: the
    // env/profile lookup happens once here on the calling thread; worker
    // threads then see only the cached atomic/OnceLock fast path (the
    // resolved `&'static KernelSet` is shared freely — it's `Sync`).
    let _ = gep_kernels::selected_backend();
    gep_core::abcd::igep_abcd(&RayonJoiner, spec, c, base_size);
}

/// Parallel matrix multiplication `C ⊕= A ⊗ B` over the update algebra
/// `A` (the `D`-only recursion with all four quadrant calls of each
/// `k`-half concurrent — span `O(n)`).
pub fn matmul_parallel<A: gep_kernels::AlgebraKernels>(
    c: &mut Matrix<A::Elem>,
    a: &Matrix<A::Elem>,
    b: &Matrix<A::Elem>,
    base_size: usize,
) {
    gep_apps::matmul::matmul_dac::<A, _>(&RayonJoiner, c, a, b, base_size);
}

/// Runs `f` on a dedicated rayon pool of `threads` workers
/// (the Figure 12 thread sweep).
///
/// # Panics
/// Panics if the pool cannot be built.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    gep_obs::gauge_set("parallel.pool_threads", threads as f64);
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gep_apps::floyd_warshall::FwSpec;
    use gep_apps::matmul::matmul;
    use gep_apps::{GaussianSpec, LuSpec, SemiringSpec};
    use gep_core::algebra::{OrAndBool, PlusTimesF64};
    use gep_core::{gep_iterative, igep_opt, TROPICAL_INF};

    fn random_dist(n: usize, seed: u64) -> Matrix<i64> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0
            } else {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s % 4 == 0 {
                    TROPICAL_INF
                } else {
                    (s % 100) as i64 + 1
                }
            }
        })
    }

    #[test]
    fn parallel_fw_matches_sequential() {
        for n in [4usize, 16, 64] {
            let init = random_dist(n, n as u64);
            let mut seq = init.clone();
            igep_opt(&FwSpec::<i64>::new(), &mut seq, 8);
            for threads in [1usize, 2, 4] {
                let mut par = init.clone();
                with_threads(threads, || {
                    igep_parallel(&FwSpec::<i64>::new(), &mut par, 8)
                });
                assert_eq!(par, seq, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_gaussian_matches_sequential_bitwise() {
        // The Figure 6 groups are independent, so parallel execution is
        // deterministic and bitwise equal to the serial A/B/C/D engine.
        let n = 64;
        let mut s = 11u64;
        let mut init = Matrix::from_fn(n, n, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 1000.0 - 0.5
        });
        for i in 0..n {
            init[(i, i)] = n as f64;
        }
        let mut seq = init.clone();
        igep_opt(&GaussianSpec, &mut seq, 8);
        let mut par = init.clone();
        with_threads(4, || igep_parallel(&GaussianSpec, &mut par, 8));
        assert_eq!(par, seq);
    }

    /// A side of `20·8` with base 32 runs bitwise equal to the serial engine.
    #[test]
    fn parallel_fitted_side_matches_sequential_bitwise() {
        let (n, base) = (160, 32);
        let init = random_dist(n, 160);
        let mut seq = init.clone();
        igep_opt(&FwSpec::<i64>::new(), &mut seq, base);
        let mut par = init.clone();
        with_threads(2, || igep_parallel(&FwSpec::<i64>::new(), &mut par, base));
        assert_eq!(par, seq);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn parallel_rejects_side_that_does_not_halve_to_a_leaf() {
        igep_parallel(&FwSpec::<i64>::new(), &mut Matrix::square(1500, 0), 64);
    }

    #[test]
    fn parallel_lu_matches_sequential_bitwise() {
        let n = 32;
        let mut s = 21u64;
        let mut init = Matrix::from_fn(n, n, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 500.0 - 1.0
        });
        for i in 0..n {
            init[(i, i)] = 2.0 * n as f64;
        }
        let mut seq = init.clone();
        igep_opt(&LuSpec, &mut seq, 4);
        let mut par = init.clone();
        with_threads(3, || igep_parallel(&LuSpec, &mut par, 4));
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_tc_matches_iterative() {
        let n = 32;
        let mut s = 31u64;
        let init = Matrix::from_fn(n, n, |i, j| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            i == j || s % 6 == 0
        });
        let tc = SemiringSpec::<OrAndBool>::new();
        let mut g = init.clone();
        gep_iterative(&tc, &mut g);
        let mut par = init.clone();
        with_threads(4, || igep_parallel(&tc, &mut par, 4));
        assert_eq!(par, g);
    }

    #[test]
    fn parallel_matmul_matches_serial_bitwise() {
        let n = 64;
        let mut s = 41u64;
        let mut gen = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 2000) as f64 / 1000.0 - 1.0
        };
        let a = Matrix::from_fn(n, n, |_, _| gen());
        let b = Matrix::from_fn(n, n, |_, _| gen());
        let seq = matmul::<PlusTimesF64>(&a, &b, 8);
        let mut par = Matrix::square(n, 0.0);
        with_threads(4, || matmul_parallel::<PlusTimesF64>(&mut par, &a, &b, 8));
        assert_eq!(par, seq);
    }

    #[test]
    fn repeated_parallel_runs_are_deterministic() {
        let n = 32;
        let init = random_dist(n, 77);
        let mut first = init.clone();
        with_threads(4, || igep_parallel(&FwSpec::<i64>::new(), &mut first, 4));
        for _ in 0..5 {
            let mut again = init.clone();
            with_threads(4, || igep_parallel(&FwSpec::<i64>::new(), &mut again, 4));
            assert_eq!(again, first);
        }
    }
}
