//! Golden tests for the observability layer: the §3 recurrences in
//! `gep_parallel::span` as a live cross-check on what the engines actually
//! did.
//!
//! For full-Σ runs (`SumSpec`) the recorded A/B/C/D invocation counts,
//! I-GEP call counts, base-case counts and per-base-case update totals
//! must *exactly* match the analytic values — and the n³ update total —
//! at n ∈ {4, 8, 16}. The exported Chrome trace must re-parse and be
//! well-nested, sequentially and under rayon work-stealing.

use gep_core::{igep, igep_opt, SumSpec};
use gep_matrix::Matrix;
use gep_obs::{check_well_nested, chrome_trace_string, Json, Recorder};
use gep_parallel::span::{abcd_counts_full, base_cases_full, igep_calls_full};
use gep_parallel::{igep_parallel, with_threads};

/// Records `run` into a recorder scoped to it: cargo runs these tests on
/// concurrent threads, and each must count exactly its own engine's work,
/// including what rayon forks onto other threads.
fn record<R>(rec: Recorder, run: impl FnOnce() -> R) -> Recorder {
    gep_obs::record(rec, run).1
}

fn input(n: usize) -> Matrix<i64> {
    Matrix::from_fn(n, n, |i, j| (i * n + j) as i64 + 1)
}

#[test]
fn abcd_counts_match_span_recurrences() {
    for n in [4usize, 8, 16] {
        for base in [1usize, 2, 4] {
            let rec = record(Recorder::counters_only(), || {
                igep_opt(&SumSpec, &mut input(n), base);
            });
            let predicted = abcd_counts_full(n, base);
            assert_eq!(
                rec.counter("abcd.a.calls"),
                predicted.a,
                "A n={n} base={base}"
            );
            assert_eq!(
                rec.counter("abcd.b.calls"),
                predicted.b,
                "B n={n} base={base}"
            );
            assert_eq!(
                rec.counter("abcd.c.calls"),
                predicted.c,
                "C n={n} base={base}"
            );
            assert_eq!(
                rec.counter("abcd.d.calls"),
                predicted.d,
                "D n={n} base={base}"
            );
            assert_eq!(
                rec.counter("abcd.base_cases"),
                base_cases_full(n, base),
                "base cases n={n} base={base}"
            );
            // Full Σ: every (i, j, k) triple is one update.
            assert_eq!(
                rec.counter("abcd.updates"),
                (n * n * n) as u64,
                "updates n={n} base={base}"
            );
        }
    }
}

#[test]
fn igep_counts_match_span_recurrences() {
    for n in [4usize, 8, 16] {
        for base in [1usize, 2, 4] {
            let rec = record(Recorder::counters_only(), || {
                igep(&SumSpec, &mut input(n), base);
            });
            assert_eq!(
                rec.counter("igep.calls"),
                igep_calls_full(n, base),
                "calls n={n} base={base}"
            );
            assert_eq!(
                rec.counter("igep.base_cases"),
                base_cases_full(n, base),
                "base cases n={n} base={base}"
            );
            assert_eq!(
                rec.counter("igep.updates"),
                (n * n * n) as u64,
                "updates n={n} base={base}"
            );
        }
    }
}

#[test]
fn parallel_run_agrees_with_recurrences_and_counts_joins() {
    let n = 16;
    let base = 2;
    let rec = record(Recorder::counters_only(), || {
        with_threads(4, || igep_parallel(&SumSpec, &mut input(n), base));
    });
    let predicted = abcd_counts_full(n, base);
    assert_eq!(rec.counter("abcd.a.calls"), predicted.a);
    assert_eq!(rec.counter("abcd.b.calls"), predicted.b);
    assert_eq!(rec.counter("abcd.c.calls"), predicted.c);
    assert_eq!(rec.counter("abcd.d.calls"), predicted.d);
    assert_eq!(rec.counter("abcd.updates"), (n * n * n) as u64);
    assert_eq!(rec.counter("parallel.joins"), joins_full(n, base));
    assert_eq!(rec.gauge("parallel.pool_threads"), Some(4.0));
}

/// Joins the Figure 6 recursion issues for a full-Σ run: each internal
/// (non-leaf) node issues a fixed number — A has 2 `join` calls, B and C
/// have 4, D has 2 `join4`s and a join4 is two nested joins = 3. Leaves
/// issue none. The internal count per kind is the total minus the leaves
/// of that kind.
fn joins_full(n: usize, base: usize) -> u64 {
    let predicted = abcd_counts_full(n, base);
    let leaf = leaf_counts(n, base);
    2 * (predicted.a - leaf[0])
        + 4 * (predicted.b - leaf[1])
        + 4 * (predicted.c - leaf[2])
        + 6 * (predicted.d - leaf[3])
}

/// Regression for the process-global recorder race: two instrumented
/// parallel solves of different sizes run at the same time, each in its
/// own scope, and each scope holds exactly its own solve's counts.
#[test]
fn concurrent_scoped_solves_keep_exact_per_solve_counts() {
    let solve = |n: usize, base: usize| {
        move || {
            record(Recorder::counters_only(), || {
                with_threads(2, || igep_parallel(&SumSpec, &mut input(n), base))
            })
        }
    };
    for _ in 0..3 {
        let (small, large) = std::thread::scope(|s| {
            let small = s.spawn(solve(8, 2));
            let large = s.spawn(solve(16, 1));
            (small.join().unwrap(), large.join().unwrap())
        });
        for (rec, n, base) in [(small, 8usize, 2usize), (large, 16, 1)] {
            let predicted = abcd_counts_full(n, base);
            assert_eq!(rec.counter("abcd.a.calls"), predicted.a, "n={n}");
            assert_eq!(rec.counter("abcd.d.calls"), predicted.d, "n={n}");
            assert_eq!(rec.counter("abcd.base_cases"), base_cases_full(n, base));
            assert_eq!(rec.counter("abcd.updates"), (n * n * n) as u64, "n={n}");
            assert_eq!(rec.counter("parallel.joins"), joins_full(n, base), "n={n}");
        }
    }
}

/// Leaf (base-case) invocation counts per kind `[A, B, C, D]` of a full-Σ
/// run, by direct walk of the Figure 5 dispatch table.
fn leaf_counts(n: usize, base: usize) -> [u64; 4] {
    fn rec(kind: usize, s: usize, base: usize, acc: &mut [u64; 4]) {
        if s <= base {
            acc[kind] += 1;
            return;
        }
        let children: &[usize] = match kind {
            0 => &[0, 1, 2, 3, 0, 1, 2, 3],
            1 => &[1, 1, 3, 3, 1, 1, 3, 3],
            2 => &[2, 2, 3, 3, 2, 2, 3, 3],
            _ => &[3; 8],
        };
        for &c in children {
            rec(c, s / 2, base, acc);
        }
    }
    let mut acc = [0u64; 4];
    rec(0, n, base, &mut acc);
    acc
}

#[test]
fn chrome_trace_parses_and_is_well_nested_serial() {
    let n = 8;
    let base = 2;
    let rec = record(Recorder::new(), || {
        igep_opt(&SumSpec, &mut input(n), base);
    });
    assert_eq!(rec.spans.len() as u64, abcd_counts_full(n, base).total());
    let text = chrome_trace_string(&rec);
    let doc = Json::parse(&text).expect("exported trace must parse");
    let checked = check_well_nested(&doc).expect("trace must be well-nested");
    assert_eq!(checked as u64, abcd_counts_full(n, base).total());
    // Counters ride along in the export.
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("abcd.updates"))
            .and_then(Json::as_u64),
        Some((n * n * n) as u64)
    );
}

#[test]
fn chrome_trace_is_well_nested_under_work_stealing() {
    let n = 16;
    let base = 2;
    let rec = record(Recorder::new(), || {
        with_threads(4, || igep_parallel(&SumSpec, &mut input(n), base));
    });
    let expected = abcd_counts_full(n, base).total() + 1; // + igep_parallel span
    assert_eq!(rec.spans.len() as u64, expected);
    let doc = Json::parse(&chrome_trace_string(&rec)).expect("trace must parse");
    assert_eq!(
        check_well_nested(&doc).expect("well-nested") as u64,
        expected
    );
}

#[test]
fn recorded_run_produces_same_result_as_unrecorded() {
    let n = 16;
    let mut plain = input(n);
    igep_opt(&SumSpec, &mut plain, 2);
    let mut recorded = input(n);
    let _rec = record(Recorder::new(), || {
        igep_opt(&SumSpec, &mut recorded, 2);
    });
    assert_eq!(plain, recorded);
}
