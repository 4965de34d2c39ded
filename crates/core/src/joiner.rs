//! The `Joiner` abstraction: one recursion skeleton, sequential or parallel.
//!
//! Figure 6's algorithm is identical in the sequential and multithreaded
//! settings — only the `parallel:` annotations differ. The [`Joiner`]
//! trait factors that difference out: [`Serial`] runs both halves of a
//! join in order (the optimised sequential I-GEP of Section 4.2), while
//! `gep-parallel` provides a rayon-backed joiner (the multithreaded I-GEP
//! of Section 3). This mirrors how rayon's own demos parameterise
//! divide-and-conquer algorithms over `join`.

/// Executes two (or four) independent tasks, possibly in parallel.
///
/// An implementation that runs a task on another thread must wrap it in
/// [`gep_obs::inherit`], so the engines' instrumentation keeps recording
/// into the forking thread's [`gep_obs::record`] scope. [`Serial`] runs
/// everything on the calling thread and inherits trivially.
pub trait Joiner: Sync {
    /// Runs `a` and `b`, returning both results.
    fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send;

    /// Runs four independent tasks (default: two nested joins).
    fn join4<A, B, C, D>(&self, a: A, b: B, c: C, d: D)
    where
        A: FnOnce() + Send,
        B: FnOnce() + Send,
        C: FnOnce() + Send,
        D: FnOnce() + Send,
    {
        self.join(|| self.join(a, b), || self.join(c, d));
    }
}

/// Sequential execution: a join is just two calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Serial;

impl Joiner for Serial {
    #[inline]
    fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB,
    {
        (a(), b())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn serial_join_runs_in_order() {
        let order = AtomicU32::new(0);
        let j = Serial;
        let (a, b) = j.join(
            || {
                let prev = order.load(Ordering::Relaxed);
                order.store(prev * 10 + 1, Ordering::Relaxed);
                1
            },
            || {
                let prev = order.load(Ordering::Relaxed);
                order.store(prev * 10 + 2, Ordering::Relaxed);
                2
            },
        );
        assert_eq!((a, b), (1, 2));
        assert_eq!(order.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn join4_runs_all() {
        let count = std::sync::atomic::AtomicU32::new(0);
        let bump = || {
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        };
        Serial.join4(bump, bump, bump, bump);
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 4);
    }
}
