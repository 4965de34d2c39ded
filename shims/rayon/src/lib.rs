//! Offline stand-in for the `rayon` crate.
//!
//! The build environment for this repository has no network access to a
//! crates registry, so the workspace vendors a minimal, API-compatible
//! subset of the external crates it uses (see `shims/README.md`). This
//! shim covers exactly the surface `gep-parallel` and `gep-bench` touch:
//!
//! * [`join`] — potentially-parallel fork/join via `std::thread::scope`,
//!   throttled by a global budget of extra threads so recursive joins
//!   cannot spawn unboundedly;
//! * [`current_num_threads`];
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] — reinterprets the
//!   requested pool size as the thread budget for the enclosed call.
//!
//! It is *not* a work-stealing scheduler: each `join` either runs its
//! second closure on a freshly scoped thread (budget permitting) or runs
//! both closures sequentially. That preserves rayon's semantics (both
//! closures complete before `join` returns; panics propagate) and enough
//! of its parallelism for the Figure 12 thread sweep to be meaningful.
//!
//! Like rayon's pool workers, the spawned threads start with fresh
//! thread-locals. Thread context a fork must keep — `gep-obs` recording
//! scopes — is carried by the caller wrapping each closure in
//! `gep_obs::inherit`, as `gep_parallel::RayonJoiner` does; that works
//! the same over this shim and over the real crate.

use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::OnceLock;

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Remaining number of *extra* threads `join` may spawn.
fn budget() -> &'static AtomicIsize {
    static BUDGET: OnceLock<AtomicIsize> = OnceLock::new();
    BUDGET.get_or_init(|| AtomicIsize::new(default_threads() as isize - 1))
}

/// The nominal pool width reported by [`current_num_threads`].
fn configured() -> &'static AtomicUsize {
    static CONFIGURED: OnceLock<AtomicUsize> = OnceLock::new();
    CONFIGURED.get_or_init(|| AtomicUsize::new(default_threads()))
}

fn try_acquire_thread() -> bool {
    budget()
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| {
            if b > 0 {
                Some(b - 1)
            } else {
                None
            }
        })
        .is_ok()
}

fn release_thread() {
    budget().fetch_add(1, Ordering::AcqRel);
}

/// Runs `oper_a` and `oper_b`, potentially in parallel, and returns both
/// results. Mirrors `rayon::join`: panics from either closure propagate.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if try_acquire_thread() {
        let out = std::thread::scope(|s| {
            let hb = s.spawn(oper_b);
            let ra = oper_a();
            (ra, hb.join())
        });
        release_thread();
        match out {
            (ra, Ok(rb)) => (ra, rb),
            (_, Err(payload)) => std::panic::resume_unwind(payload),
        }
    } else {
        (oper_a(), oper_b())
    }
}

/// Number of threads the current "pool" is configured for.
pub fn current_num_threads() -> usize {
    configured().load(Ordering::Acquire)
}

/// Error type returned by [`ThreadPoolBuilder::build`]; the shim never
/// actually fails to build.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: match self.num_threads {
                Some(0) | None => default_threads(),
                Some(n) => n,
            },
        })
    }
}

/// A "pool" is just a thread-budget setting scoped to `install`.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `f` with the global join budget set to this pool's width.
    ///
    /// Unlike real rayon the budget is global rather than per-pool, so
    /// concurrent `install`s interleave; the workspace only ever sweeps
    /// pool sizes sequentially (`with_threads`), where this is exact.
    pub fn install<R, F>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let prev_budget = budget().swap(self.threads as isize - 1, Ordering::AcqRel);
        let prev_conf = configured().swap(self.threads, Ordering::AcqRel);
        let out = f();
        budget().store(prev_budget, Ordering::Release);
        configured().store(prev_conf, Ordering::Release);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    fn nested_joins_complete() {
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 8 {
                (lo..hi).sum()
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
                a + b
            }
        }
        assert_eq!(sum(0, 1000), 499_500);
    }

    #[test]
    fn install_sets_reported_width() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let seen = pool.install(current_num_threads);
        assert_eq!(seen, 3);
    }

    #[test]
    fn join_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            join(|| (), || panic!("boom"));
        });
        assert!(caught.is_err());
    }
}
