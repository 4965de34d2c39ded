//! The engine × application matrix: every application spec run through
//! every engine, compared against iterative GEP (the defining semantics),
//! across sizes and base cases.

use gep::apps::{FwSpec, GaussianSpec, LuSpec, SemiringSpec};
use gep::core::algebra::{OrAndBool, PlusTimesF64};
use gep::core::{
    cgep_full, cgep_reduced, gep_iterative, igep, igep_opt, ClosureSpec, ExplicitSet, GepSpec,
    SumSpec,
};
use gep::kernels::selected_backend;
use gep::matrix::Matrix;
use gep::parallel::{cgep_parallel, igep_parallel, with_threads};
use gep::verify::elim_agrees;

/// Boolean transitive closure: the closure spec over `(∨, ∧)`.
const TC: SemiringSpec<OrAndBool> = SemiringSpec::new();

/// Runs one spec through all engines on one input; panics with a labelled
/// message on the first divergence. `exact` controls bitwise vs approx
/// comparison (f64 path sums may associate differently across engines).
fn check_all_engines<S>(spec: &S, input: &Matrix<S::Elem>, label: &str)
where
    S: GepSpec + Sync,
    S::Elem: PartialEq + std::fmt::Debug,
{
    let mut oracle = input.clone();
    gep_iterative(spec, &mut oracle);

    for base in [1usize, 2, 8] {
        let mut m = input.clone();
        igep(spec, &mut m, base);
        assert_eq!(m, oracle, "{label}: igep base={base}");

        let mut m = input.clone();
        igep_opt(spec, &mut m, base);
        assert_eq!(m, oracle, "{label}: igep_opt base={base}");

        let mut m = input.clone();
        cgep_full(spec, &mut m, base);
        assert_eq!(m, oracle, "{label}: cgep_full base={base}");

        let mut m = input.clone();
        cgep_reduced(spec, &mut m, base);
        assert_eq!(m, oracle, "{label}: cgep_reduced base={base}");
    }

    let mut m = input.clone();
    with_threads(3, || igep_parallel(spec, &mut m, 8));
    assert_eq!(m, oracle, "{label}: igep_parallel");

    for base in [1usize, 8] {
        let mut m = input.clone();
        with_threads(3, || cgep_parallel(spec, &mut m, base));
        assert_eq!(m, oracle, "{label}: cgep_parallel base={base}");
    }
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

#[test]
fn floyd_warshall_all_engines() {
    for n in [1usize, 2, 4, 8, 16, 32] {
        let mut rng = xorshift(n as u64 * 1001);
        let input = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0i64
            } else if rng() % 5 == 0 {
                i64::MAX / 4
            } else {
                (rng() % 90) as i64 + 1
            }
        });
        check_all_engines(&FwSpec::<i64>::new(), &input, &format!("FW n={n}"));
    }
}

#[test]
fn transitive_closure_all_engines() {
    for n in [2usize, 8, 32] {
        let mut rng = xorshift(n as u64 * 77);
        let input = Matrix::from_fn(n, n, |i, j| i == j || rng() % 4 == 0);
        check_all_engines(&TC, &input, &format!("TC n={n}"));
    }
}

/// f64 engines against G under the ambient kernel backend: bitwise
/// where the backend rounds every multiply and subtract on its own (each
/// engine then applies G's operations to each cell in G's order), within
/// 1e-9 where its kernels fuse multiply-subtract
/// ([`gep::kernels::Backend::fuses`]).
fn check_all_engines_f64<S>(spec: &S, input: &Matrix<f64>, label: &str)
where
    S: GepSpec<Elem = f64> + Sync,
{
    let mut oracle = input.clone();
    gep_iterative(spec, &mut oracle);
    let same = |m: &Matrix<f64>| elim_agrees(selected_backend(), m, &oracle);
    for base in [1usize, 4, 16] {
        for (name, m) in [
            ("igep", {
                let mut m = input.clone();
                igep(spec, &mut m, base);
                m
            }),
            ("igep_opt", {
                let mut m = input.clone();
                igep_opt(spec, &mut m, base);
                m
            }),
            ("cgep_full", {
                let mut m = input.clone();
                cgep_full(spec, &mut m, base);
                m
            }),
            ("cgep_reduced", {
                let mut m = input.clone();
                cgep_reduced(spec, &mut m, base);
                m
            }),
        ] {
            assert!(
                same(&m),
                "{label}: {name} base={base}, err={}",
                m.max_abs_diff(&oracle)
            );
        }
    }
    let mut m = input.clone();
    with_threads(2, || igep_parallel(spec, &mut m, 8));
    assert!(same(&m), "{label}: parallel");

    let mut m = input.clone();
    with_threads(2, || cgep_parallel(spec, &mut m, 8));
    assert!(same(&m), "{label}: cgep_parallel");
}

#[test]
fn gaussian_all_engines() {
    for n in [2usize, 8, 32] {
        let mut rng = xorshift(n as u64 * 31);
        let mut input = Matrix::from_fn(n, n, |_, _| (rng() % 1000) as f64 / 1000.0 - 0.5);
        for i in 0..n {
            input[(i, i)] = n as f64 + 2.0;
        }
        check_all_engines_f64(&GaussianSpec, &input, &format!("GE n={n}"));
    }
}

#[test]
fn lu_all_engines() {
    for n in [2usize, 8, 32] {
        let mut rng = xorshift(n as u64 * 53);
        let mut input = Matrix::from_fn(n, n, |_, _| (rng() % 1000) as f64 / 500.0 - 1.0);
        for i in 0..n {
            input[(i, i)] = 2.0 * n as f64 + 1.0;
        }
        check_all_engines_f64(&LuSpec, &input, &format!("LU n={n}"));
    }
}

/// The matmul embedding through every engine (I-GEP is exact for it).
#[test]
fn matmul_embedding_all_engines() {
    use gep::apps::matmul::MatMulEmbedSpec;
    for n in [2usize, 4, 8, 16] {
        let mut rng = xorshift(n as u64 * 97);
        let a = Matrix::from_fn(n, n, |_, _| (rng() % 100) as f64 / 50.0 - 1.0);
        let b = Matrix::from_fn(n, n, |_, _| (rng() % 100) as f64 / 50.0 - 1.0);
        let m = 2 * n;
        let emb = Matrix::from_fn(m, m, |i, j| match (i < n, j < n) {
            (true, true) => 0.0,
            (true, false) => b[(i, j - n)],
            (false, true) => a[(i - n, j)],
            (false, false) => 0.0,
        });
        check_all_engines_f64(
            &MatMulEmbedSpec::<PlusTimesF64>::new(n),
            &emb,
            &format!("MM-embed n={n}"),
        );
    }
}

/// The shrunk `cgep_is_fully_general` proptest regression (n = 8, 38
/// explicit Σ-triples, affine f with coefficients (−1,−3,−3,−3)), promoted
/// to a deterministic test: the fully general engines must reproduce G on
/// it at every base size, with no proptest in the loop. The instance
/// itself (Σ and values spelled out) lives in
/// `gep_core::verify::recorded_regression`.
#[test]
fn recorded_regression_deterministic() {
    let inst = gep::verify::recorded_regression();
    let spec = inst.spec();
    let init = inst.init();
    let mut oracle = init.clone();
    gep_iterative(&spec, &mut oracle);

    for base in [1usize, 2, 8] {
        let mut m = init.clone();
        cgep_full(&spec, &mut m, base);
        assert_eq!(m, oracle, "cgep_full base={base}");

        let mut m = init.clone();
        let stats = cgep_reduced(&spec, &mut m, base);
        assert_eq!(m, oracle, "cgep_reduced base={base}");
        assert!(
            stats.peak_live_snapshots <= stats.claimed_bound,
            "peak {} > bound {}",
            stats.peak_live_snapshots,
            stats.claimed_bound
        );

        let mut m = init.clone();
        with_threads(3, || cgep_parallel(&spec, &mut m, base));
        assert_eq!(m, oracle, "cgep_parallel base={base}");
    }
}

/// C-GEP on fitted sides: `cgep_full`, `cgep_reduced` and `cgep_parallel`
/// (at 1 and 3 threads) equal G bit for bit over random affine `f` and
/// explicit Σ on sides `leaf·2^q` that are not powers of two, and the
/// reduced variant's live snapshots peak within `n² + n`. I-GEP must
/// diverge from G on some of these instances, or they would not tell a
/// fully general engine from I-GEP.
#[test]
fn cgep_engines_match_g_on_fitted_sides() {
    use gep::verify::AffineInstance;
    let sides = [
        (6usize, 3usize),
        (10, 5),
        (12, 3),
        (14, 7),
        (20, 5),
        (24, 6),
        (28, 7),
        (40, 5),
        (48, 6),
        (56, 7),
    ];
    let mut igep_diverged = 0;
    for (n, base) in sides {
        assert!(!n.is_power_of_two() && gep::matrix::halves_to_leaf(n, base));
        for seed in 0..2u64 {
            let mut rng = xorshift((n as u64) << 8 | seed);
            let mut below = |m: usize| (rng() % m as u64) as usize;
            let count = below(n * n * n / 2 + 1);
            let inst = AffineInstance {
                n,
                sigma: (0..count).map(|_| (below(n), below(n), below(n))).collect(),
                coeffs: (
                    below(7) as i64 - 3,
                    below(7) as i64 - 3,
                    below(7) as i64 - 3,
                    below(7) as i64 - 3,
                ),
                vals: (0..n * n).map(|_| below(201) as i64 - 100).collect(),
            };
            let (spec, init) = (inst.spec(), inst.init());
            let label = format!("n={n} base={base} seed={seed}");
            let mut oracle = init.clone();
            gep_iterative(&spec, &mut oracle);

            let mut m = init.clone();
            cgep_full(&spec, &mut m, base);
            assert_eq!(m, oracle, "cgep_full {label}");

            let mut m = init.clone();
            let stats = cgep_reduced(&spec, &mut m, base);
            assert_eq!(m, oracle, "cgep_reduced {label}");
            assert!(
                stats.peak_live_snapshots <= n * n + n,
                "cgep_reduced {label}: peak {} > n² + n",
                stats.peak_live_snapshots
            );

            for threads in [1usize, 3] {
                let mut m = init.clone();
                with_threads(threads, || cgep_parallel(&spec, &mut m, base));
                assert_eq!(m, oracle, "cgep_parallel threads={threads} {label}");
            }

            let mut m = init.clone();
            igep(&spec, &mut m, base);
            igep_diverged += usize::from(m != oracle);
        }
    }
    assert!(igep_diverged > 0, "no instance tells C-GEP from I-GEP");
}

/// An arbitrary-Σ ClosureSpec instance (not any named application) for the
/// harness matrix below.
#[allow(clippy::type_complexity)]
fn arbitrary_closure_instance() -> (
    ClosureSpec<i64, impl Fn(usize, usize, usize, i64, i64, i64, i64) -> i64>,
    Matrix<i64>,
) {
    let n = 8usize;
    let mut rng = xorshift(0xC0FFEE);
    let sigma: Vec<_> = (0..n)
        .flat_map(|i| (0..n).flat_map(move |j| (0..n).map(move |k| (i, j, k))))
        .filter(|_| rng() % 3 == 0)
        .collect();
    let spec = ClosureSpec::new(
        |i, j, k, x: i64, u, v, w| {
            x.wrapping_mul(2)
                .wrapping_sub(u.wrapping_mul(5))
                .wrapping_add(v.wrapping_mul(9))
                .wrapping_sub(w.wrapping_mul(3))
                .wrapping_add((7 * i + 3 * j + k) as i64)
        },
        ExplicitSet::from_iter(sigma),
    );
    let mut rng = xorshift(0xBEEF);
    let init = Matrix::from_fn(n, n, |_, _| (rng() % 401) as i64 - 200);
    (spec, init)
}

/// The differential harness over every registered engine (all seven) on
/// Floyd–Warshall, and an arbitrary-Σ closure spec: a fully general engine
/// must never diverge from G; I-GEP must not diverge on the legal FW spec.
#[test]
fn verify_harness_all_engines_i64() {
    use gep::verify::{all_engines, diff_engine};

    let n = 8usize;
    let mut rng = xorshift(4242);
    let fw_init = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0i64
        } else if rng() % 5 == 0 {
            i64::MAX / 4
        } else {
            (rng() % 90) as i64 + 1
        }
    });
    let engines = all_engines::<FwSpec<i64>>();
    assert_eq!(engines.len(), 7, "all seven engines registered");
    for e in &engines {
        let rep = diff_engine(&FwSpec::<i64>::new(), &fw_init, e, 2);
        // FW is I-GEP-legal: every engine's *result* equals G's. I-GEP's
        // per-update operands legitimately differ (π/δ states, Table 1),
        // so only the fully general engines must match trace-for-trace.
        assert!(rep.result_matches, "FW result must match G: {rep}");
        if e.fully_general {
            assert!(rep.matches(), "FW: {rep}");
        }
    }

    let (spec, init) = arbitrary_closure_instance();
    for e in &all_engines() {
        let rep = diff_engine(&spec, &init, e, 1);
        assert!(!rep.is_violation(), "{rep}");
    }
}

/// The harness on Gaussian elimination (f64): every engine's final matrix
/// equals G's bitwise (division orders coincide), and the fully general
/// engines match G trace-for-trace.
#[test]
fn verify_harness_all_engines_gaussian() {
    use gep::verify::{all_engines, diff_engine};

    let n = 8usize;
    let mut rng = xorshift(99);
    let mut init = Matrix::from_fn(n, n, |_, _| (rng() % 1000) as f64 / 1000.0 - 0.5);
    for i in 0..n {
        init[(i, i)] = n as f64 + 2.0;
    }
    for e in &all_engines::<GaussianSpec>() {
        let rep = diff_engine(&GaussianSpec, &init, e, 2);
        assert!(rep.result_matches, "GE result must match G: {rep}");
        if e.fully_general {
            assert!(rep.matches(), "GE: {rep}");
        }
    }
}

/// The harness must *localize* a real bug: `cgep_full_buggy` reintroduces
/// the wrong w-read bracket, and the report pinpoints the first divergent
/// update with the offending operand; the minimizer shrinks the witness
/// to n ≤ 4.
#[test]
fn verify_harness_catches_reintroduced_bug() {
    use gep::verify::{buggy_engine, diff_engine, minimize, AffineInstance, Divergence};

    let inst = gep::verify::recorded_regression();
    let rep = diff_engine(&inst.spec(), &inst.init(), &buggy_engine(), 1);
    assert!(rep.is_violation());
    match rep.divergence {
        Some(Divergence::DivergentUpdate {
            update,
            ref operands,
            ..
        }) => {
            assert_eq!(update.0, update.2, "w-bracket bug fires on i == k");
            assert!(operands.iter().any(|d| d.operand == "w"));
        }
        ref d => panic!("expected DivergentUpdate, got {d:?}"),
    }

    let fails = |cand: &AffineInstance| {
        diff_engine(&cand.spec(), &cand.init(), &buggy_engine(), 1).is_violation()
    };
    let min = minimize(&inst, &fails);
    assert!(min.n <= 4, "minimized witness n = {}", min.n);
    assert!(fails(&min));
}

/// n = 0 and n = 1 through every engine entry point: no panics, and the
/// n = 1 result matches G (a single cell, Σ ⊆ {⟨0,0,0⟩}).
#[test]
fn degenerate_sizes_all_engines() {
    for n in [0usize, 1] {
        let input = Matrix::from_fn(n, n, |_, _| 7i64);
        let mut oracle = input.clone();
        gep_iterative(&SumSpec, &mut oracle);

        let mut m = input.clone();
        igep(&SumSpec, &mut m, 1);
        assert_eq!(m, oracle, "igep n={n}");

        let mut m = input.clone();
        igep_opt(&SumSpec, &mut m, 1);
        assert_eq!(m, oracle, "igep_opt n={n}");

        let mut m = input.clone();
        cgep_full(&SumSpec, &mut m, 1);
        assert_eq!(m, oracle, "cgep_full n={n}");

        let mut m = input.clone();
        let stats = cgep_reduced(&SumSpec, &mut m, 1);
        assert_eq!(m, oracle, "cgep_reduced n={n}");
        assert!(stats.peak_live_snapshots <= stats.claimed_bound);

        let mut m = input.clone();
        with_threads(2, || igep_parallel(&SumSpec, &mut m, 1));
        assert_eq!(m, oracle, "igep_parallel n={n}");

        let mut m = input.clone();
        with_threads(2, || cgep_parallel(&SumSpec, &mut m, 1));
        assert_eq!(m, oracle, "cgep_parallel n={n}");

        // Applications: FW and TC must also accept the degenerate sizes
        // (their τ overrides used to underflow at n = 0).
        let mut d = Matrix::from_fn(n, n, |_, _| 0i64);
        igep(&FwSpec::<i64>::new(), &mut d, 1);
        let mut t = Matrix::from_fn(n, n, |_, _| true);
        igep(&TC, &mut t, 1);
    }
}
