//! Cursor-resumable I-GEP: the Figure 2 recursion with an explicit,
//! restartable progress cursor.
//!
//! The I-GEP recursion's quadrant access sequence is *statically
//! predictable*: which base-case boxes run, and in which order, depends
//! only on `(Σ, n, base)` — never on matrix contents. That makes the
//! count of completed base cases a complete description of progress: a
//! solve that stops after `k` base cases can be re-entered later by
//! walking the same recursion and skipping the first `k` leaves, and it
//! will perform exactly the updates the uninterrupted run would have
//! performed from that point, in the same order.
//!
//! This is the foundation of the crash-safety layer in `gep-extmem`:
//! a checkpoint records "`k` base cases done" plus the matrix state at
//! that boundary, and recovery is [`igep_resumable`] with
//! `start_step = k` over the restored matrix. No redo log is needed —
//! determinism *is* the redo log.
//!
//! The leaf schedule *is* [`crate::walk::walk_leaves`]: [`igep`],
//! [`igep_resumable`] and [`igep_step_count`] all visit its leaves, and
//! the first two run them through one shared leaf body, so a cursor
//! counts the same leaves in all three. The step numbering counts only
//! non-pruned base cases (boxes with `T ∩ Σ = ∅` execute nothing and are
//! skipped by the walker itself, so they cannot desynchronise the
//! cursor).
//!
//! [`igep`]: crate::igep::igep

use crate::igep::run_leaf;
use crate::spec::GepSpec;
use crate::store::CellStore;
use crate::walk::{walk_leaves, Cube};
use std::ops::ControlFlow;

/// What the per-step hook tells the resumable engine to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepControl {
    /// Keep going.
    Continue,
    /// Stop after this step (the cursor stays valid: a later call with
    /// `start_step` = the returned step count resumes exactly here).
    Stop,
}

/// Outcome of a (possibly partial) resumable run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumeOutcome {
    /// Total completed base-case steps, counted from the very beginning
    /// of the schedule (skipped steps included).
    pub cursor: u64,
    /// Base cases actually executed by *this* call.
    pub executed: u64,
    /// True iff the whole schedule ran to the end (no [`StepControl::Stop`]).
    pub completed: bool,
}

/// Runs I-GEP from base-case step `start_step` (0 = from scratch),
/// calling `on_step(cursor)` after each executed base case with the
/// number of steps completed so far.
///
/// With `start_step = 0` and a hook that always returns
/// [`StepControl::Continue`], this performs exactly the updates of
/// [`crate::igep::igep`] in the same order, so results are bit-identical
/// (floating point included — resumption changes no rounding).
///
/// `c` must hold the matrix state of the moment step `start_step`
/// completed; the engine walks the schedule without touching cells
/// until the cursor catches up.
///
/// # Panics
/// Panics unless `c` is square with a side that halves exactly down to
/// leaves of side `<= base_size`, and `base_size >= 1` (same contract
/// as `igep`).
pub fn igep_resumable<S, St>(
    spec: &S,
    c: &mut St,
    base_size: usize,
    start_step: u64,
    on_step: &mut dyn FnMut(u64) -> StepControl,
) -> ResumeOutcome
where
    S: GepSpec,
    St: CellStore<S::Elem> + ?Sized,
{
    let n = c.n();
    let mut out = ResumeOutcome {
        cursor: 0,
        executed: 0,
        completed: true,
    };
    walk_leaves(spec, Cube::root(n), base_size, &mut |leaf| {
        out.cursor += 1;
        if out.cursor <= start_step {
            return ControlFlow::Continue(()); // already done before the restart point
        }
        run_leaf(spec, c, leaf);
        out.executed += 1;
        if on_step(out.cursor) == StepControl::Stop {
            out.completed = false;
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    });
    out
}

/// Number of base-case steps the full schedule contains for `(Σ, n,
/// base)` — the cursor value of a completed run. Pure: touches no matrix.
///
/// # Panics
/// Panics unless `n` is zero or halves exactly down to leaves of side
/// `<= base_size`, and `base_size >= 1`.
pub fn igep_step_count<S: GepSpec>(spec: &S, n: usize, base_size: usize) -> u64 {
    let mut leaves = 0;
    walk_leaves(spec, Cube::root(n), base_size, &mut |_| {
        leaves += 1;
        ControlFlow::Continue(())
    });
    leaves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::igep::igep;
    use crate::spec::{ClosureSpec, ExplicitSet, SumSpec};
    use gep_matrix::Matrix;

    /// Exact (Floyd–Warshall-class) spec for bit-identity checks.
    struct MinPlus;
    impl GepSpec for MinPlus {
        type Elem = i64;
        fn update(&self, _: usize, _: usize, _: usize, x: i64, u: i64, v: i64, _w: i64) -> i64 {
            x.min(u.saturating_add(v))
        }
        fn in_sigma(&self, _: usize, _: usize, _: usize) -> bool {
            true
        }
    }

    fn dist(n: usize) -> Matrix<i64> {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0
            } else {
                ((i * 7 + j * 13) % 19 + 1) as i64
            }
        })
    }

    #[test]
    fn uninterrupted_resumable_equals_igep() {
        for n in [1usize, 2, 8, 16] {
            for base in [1usize, 2, 4] {
                let init = dist(n);
                let mut want = init.clone();
                igep(&MinPlus, &mut want, base);
                let mut got = init.clone();
                let out =
                    igep_resumable(&MinPlus, &mut got, base, 0, &mut |_| StepControl::Continue);
                assert_eq!(got, want, "n={n} base={base}");
                assert!(out.completed);
                assert_eq!(out.cursor, out.executed);
                assert_eq!(out.cursor, igep_step_count(&MinPlus, n, base));
            }
        }
    }

    #[test]
    fn stop_and_resume_at_every_cursor_is_bit_identical() {
        let n = 8;
        let base = 2;
        let init = dist(n);
        let mut want = init.clone();
        igep(&MinPlus, &mut want, base);
        let total = igep_step_count(&MinPlus, n, base);
        assert!(total > 2);
        for stop_at in 0..=total {
            // Phase 1: run until `stop_at` steps are done.
            let mut m = init.clone();
            let out = igep_resumable(&MinPlus, &mut m, base, 0, &mut |step| {
                if step >= stop_at {
                    StepControl::Stop
                } else {
                    StepControl::Continue
                }
            });
            // The hook runs *after* a step executes, so stop_at = 0 still
            // performs step 1; and Stop on the very last step leaves
            // `completed = false` even though the schedule is exhausted
            // (resuming from cursor = total is then a no-op).
            assert_eq!(out.cursor, stop_at.max(1));
            assert!(!out.completed);
            // Phase 2: resume from the recorded cursor on the partial state.
            let resumed = igep_resumable(&MinPlus, &mut m, base, out.cursor, &mut |_| {
                StepControl::Continue
            });
            assert!(resumed.completed);
            assert_eq!(resumed.cursor, total);
            assert_eq!(resumed.executed, total - out.cursor);
            assert_eq!(m, want, "resume from step {} diverged", out.cursor);
        }
    }

    #[test]
    fn resume_matches_even_where_igep_is_inexact() {
        // SumSpec is the §2.2.1 counterexample: F ≠ G. Resumability is a
        // property of the *engine schedule*, not of the spec class, so a
        // crashed-and-resumed F run must still equal an uninterrupted F run.
        let n = 4;
        let init = Matrix::from_fn(n, n, |i, j| (i * n + j) as i64 % 5 - 2);
        let mut want = init.clone();
        igep(&SumSpec, &mut want, 1);
        let total = igep_step_count(&SumSpec, n, 1);
        for stop_at in [1, total / 3, total / 2, total - 1] {
            let mut m = init.clone();
            let out = igep_resumable(&SumSpec, &mut m, 1, 0, &mut |step| {
                if step >= stop_at {
                    StepControl::Stop
                } else {
                    StepControl::Continue
                }
            });
            igep_resumable(&SumSpec, &mut m, 1, out.cursor, &mut |_| {
                StepControl::Continue
            });
            assert_eq!(m, want, "stop_at={stop_at}");
        }
    }

    #[test]
    fn pruned_sigma_keeps_cursor_consistent() {
        // Σ confined to one quadrant: most boxes prune. The cursor must
        // count only executed leaves, identically in both walks.
        let sigma = ExplicitSet::from_iter(
            (0..2).flat_map(|i| (0..2).flat_map(move |j| (0..2).map(move |k| (i, j, k)))),
        );
        let spec = ClosureSpec::new(|_, _, _, x: i64, u, v, w| x + u + v + w, sigma);
        let n = 8;
        let init = Matrix::from_fn(n, n, |i, j| (i * n + j) as i64);
        let total = igep_step_count(&spec, n, 1);
        assert!(total < (n * n * n) as u64, "pruning must shrink the walk");
        let mut want = init.clone();
        igep(&spec, &mut want, 1);
        let stop_at = total / 2;
        let mut m = init.clone();
        let out = igep_resumable(&spec, &mut m, 1, 0, &mut |step| {
            if step >= stop_at {
                StepControl::Stop
            } else {
                StepControl::Continue
            }
        });
        igep_resumable(&spec, &mut m, 1, out.cursor, &mut |_| StepControl::Continue);
        assert_eq!(m, want);
    }

    #[test]
    fn n0_is_trivially_complete() {
        let mut m: Matrix<i64> = Matrix::square(0, 0);
        let out = igep_resumable(&MinPlus, &mut m, 1, 0, &mut |_| StepControl::Continue);
        assert_eq!(
            out,
            ResumeOutcome {
                cursor: 0,
                executed: 0,
                completed: true
            }
        );
        assert_eq!(igep_step_count(&MinPlus, 0, 1), 0);
    }

    #[test]
    fn start_past_the_end_executes_nothing() {
        let n = 4;
        let init = dist(n);
        let total = igep_step_count(&MinPlus, n, 1);
        let mut m = init.clone();
        let out = igep_resumable(&MinPlus, &mut m, 1, total, &mut |_| StepControl::Continue);
        assert_eq!(m, init, "no cell may be touched");
        assert_eq!(out.executed, 0);
        assert!(out.completed);
    }
}
