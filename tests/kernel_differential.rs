//! Differential verification of the `gep-kernels` backends: every
//! (application × backend × base size × n) combination must reproduce the
//! iterative G engine wherever I-GEP is exact — bitwise for `i64`/`bool`
//! (and FW over `f64`: add + min round identically on every path), and
//! for the f64 eliminations on every backend that does not fuse
//! multiply-subtract (to 1e-9 on one that does, see
//! [`gep::kernels::Backend::fuses`]) — including n = 0, n = 1,
//! odd sides (driven as a single non-power-of-two base case) and base
//! sizes that do not divide n.
//!
//! The kernel-backend override is process-global, so every test
//! serializes on one mutex and drops the override before releasing it.

use gep::apps::matmul::{matmul, MatMulEmbedSpec};
use gep::apps::{FwSpec, GaussianSpec, LuSpec, SemiringSpec};
use gep::core::algebra::{OrAndBool, PlusTimesF64};
use gep::core::{gep_iterative, igep_opt, BoxShape, GepMat, GepSpec};
use gep::kernels::{available_backends, set_backend_override, Backend};
use gep::matrix::Matrix;
use gep::verify::elim_agrees;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Boolean transitive closure: the closure spec over `(∨, ∧)`.
const TC: SemiringSpec<OrAndBool> = SemiringSpec::new();

/// Serializes the record/override windows across the harness threads.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The satellite grid: base sizes 1..=3 plus 4, 7, 8, 16, 64.
const BASES: [usize; 8] = [1, 2, 3, 4, 7, 8, 16, 64];
/// Power-of-two sides plus the degenerate 0 and 1.
const SIDES: [usize; 6] = [0, 1, 2, 4, 8, 32];
/// Odd sides, driven as one non-power-of-two diagonal base case.
const ODD_SIDES: [usize; 4] = [3, 5, 9, 13];

fn backends_under_test() -> Vec<Backend> {
    available_backends()
        .into_iter()
        .filter(|b| *b != Backend::Generic)
        .collect()
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

fn dd_f64(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = xorshift(seed);
    let mut m = Matrix::from_fn(n, n, |_, _| (rng() % 1000) as f64 / 1000.0 - 0.5);
    for i in 0..n {
        m[(i, i)] = n as f64 + 2.0;
    }
    m
}

fn dist_i64(n: usize, seed: u64) -> Matrix<i64> {
    let mut rng = xorshift(seed);
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0
        } else if rng() % 4 == 0 {
            i64::MAX / 4
        } else {
            (rng() % 100) as i64 + 1
        }
    })
}

fn dist_f64(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = xorshift(seed);
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else if rng() % 4 == 0 {
            f64::INFINITY
        } else {
            (rng() % 1000) as f64 / 10.0 + 1.0
        }
    })
}

fn adj_bool(n: usize, seed: u64) -> Matrix<bool> {
    let mut rng = xorshift(seed);
    Matrix::from_fn(n, n, |i, j| i == j || rng() % 4 == 0)
}

/// Runs `igep_opt` on a clone of `init` with `backend` forced. The caller
/// holds [`LOCK`].
fn igep_with<S: GepSpec + Sync>(
    spec: &S,
    init: &Matrix<S::Elem>,
    base: usize,
    backend: Backend,
) -> Matrix<S::Elem> {
    set_backend_override(Some(backend));
    let mut m = init.clone();
    igep_opt(spec, &mut m, base);
    set_backend_override(None);
    m
}

/// Applies the whole computation as ONE base case — a single diagonal box
/// `[0,n)³` — which both exercises non-power-of-two tile sides the
/// recursion never produces and equals G exactly (the box sweep applies
/// the same updates in the same k-outer order).
fn single_box_with<S: GepSpec>(
    spec: &S,
    init: &Matrix<S::Elem>,
    backend: Backend,
) -> Matrix<S::Elem> {
    set_backend_override(Some(backend));
    let mut m = init.clone();
    if m.n() > 0 {
        let h = GepMat::new(&mut m);
        // SAFETY: exclusive borrow; the box [0,n)³ is in bounds.
        unsafe { spec.kernel_shaped(h, 0, 0, 0, init.n(), BoxShape::Diagonal) }
    }
    set_backend_override(None);
    m
}

#[test]
fn gaussian_every_backend_base_and_size() {
    let _g = lock();
    for n in SIDES {
        let init = dd_f64(n, 0xA1 + n as u64);
        let mut oracle = init.clone();
        gep_iterative(&GaussianSpec, &mut oracle);
        for backend in backends_under_test() {
            for base in BASES {
                let got = igep_with(&GaussianSpec, &init, base, backend);
                assert!(
                    elim_agrees(backend, &got, &oracle),
                    "GE {} n={n} base={base}: err={:e}",
                    backend.name(),
                    got.max_abs_diff(&oracle)
                );
            }
        }
    }
}

#[test]
fn lu_every_backend_base_and_size() {
    let _g = lock();
    for n in SIDES {
        let init = dd_f64(n, 0xB2 + n as u64);
        let mut oracle = init.clone();
        gep_iterative(&LuSpec, &mut oracle);
        for backend in backends_under_test() {
            for base in BASES {
                let got = igep_with(&LuSpec, &init, base, backend);
                assert!(
                    elim_agrees(backend, &got, &oracle),
                    "LU {} n={n} base={base}: err={:e}",
                    backend.name(),
                    got.max_abs_diff(&oracle)
                );
            }
        }
    }
}

#[test]
fn floyd_warshall_i64_bitwise_every_backend() {
    let _g = lock();
    for n in SIDES {
        let init = dist_i64(n, 0xC3 + n as u64);
        let mut oracle = init.clone();
        gep_iterative(&FwSpec::<i64>::new(), &mut oracle);
        for backend in backends_under_test() {
            for base in BASES {
                let got = igep_with(&FwSpec::<i64>::new(), &init, base, backend);
                assert_eq!(got, oracle, "FW i64 {} n={n} base={base}", backend.name());
            }
        }
    }
}

#[test]
fn floyd_warshall_f64_bitwise_every_backend() {
    // FW f64 kernels never fuse (add then compare — exactly the scalar
    // operations), so against the *same engine* on the generic backend
    // the specialized backends are bitwise identical, infinities
    // included. (Bitwise I-GEP-vs-G is only claimed for i64, where
    // arithmetic is exact.)
    let _g = lock();
    for n in SIDES {
        let init = dist_f64(n, 0xD4 + n as u64);
        for base in BASES {
            let want = igep_with(&FwSpec::<f64>::new(), &init, base, Backend::Generic);
            for backend in backends_under_test() {
                let got = igep_with(&FwSpec::<f64>::new(), &init, base, backend);
                assert_eq!(got, want, "FW f64 {} n={n} base={base}", backend.name());
            }
        }
    }
}

#[test]
fn transitive_closure_bitwise_every_backend() {
    let _g = lock();
    for n in SIDES {
        let init = adj_bool(n, 0xE5 + n as u64);
        let mut oracle = init.clone();
        gep_iterative(&TC, &mut oracle);
        for backend in backends_under_test() {
            for base in BASES {
                let got = igep_with(&TC, &init, base, backend);
                assert_eq!(got, oracle, "TC {} n={n} base={base}", backend.name());
            }
        }
    }
}

#[test]
fn matmul_embedding_every_backend() {
    let _g = lock();
    for n in [1usize, 2, 4, 16] {
        let mut rng = xorshift(0xF6 + n as u64);
        let a = Matrix::from_fn(n, n, |_, _| (rng() % 200) as f64 / 100.0 - 1.0);
        let b = Matrix::from_fn(n, n, |_, _| (rng() % 200) as f64 / 100.0 - 1.0);
        let emb_init = Matrix::from_fn(2 * n, 2 * n, |i, j| match (i < n, j < n) {
            (true, false) => b[(i, j - n)],
            (false, true) => a[(i - n, j)],
            _ => 0.0,
        });
        let mut oracle = emb_init.clone();
        gep_iterative(&MatMulEmbedSpec::<PlusTimesF64>::new(n), &mut oracle);
        for backend in backends_under_test() {
            for base in BASES {
                let got = igep_with(
                    &MatMulEmbedSpec::<PlusTimesF64>::new(n),
                    &emb_init,
                    base,
                    backend,
                );
                assert!(
                    got.approx_eq(&oracle, 1e-9),
                    "MM-embed {} n={n} base={base}: err={:e}",
                    backend.name(),
                    got.max_abs_diff(&oracle)
                );
                // The embed-vs-recursion invariant: under ONE backend both
                // matmul paths apply each (i,j,k) contribution through the
                // same panel op in the same k order, so the C blocks are
                // bitwise identical.
                set_backend_override(Some(backend));
                let dac = matmul::<PlusTimesF64>(&a, &b, base);
                set_backend_override(None);
                let emb_c = Matrix::from_fn(n, n, |i, j| got[(n + i, n + j)]);
                assert_eq!(
                    emb_c,
                    dac,
                    "MM embed-vs-dac {} n={n} base={base}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn odd_sides_single_box_matches_g() {
    let _g = lock();
    for n in ODD_SIDES {
        for backend in backends_under_test() {
            let init = dd_f64(n, 0x11 + n as u64);
            let mut oracle = init.clone();
            gep_iterative(&GaussianSpec, &mut oracle);
            let got = single_box_with(&GaussianSpec, &init, backend);
            assert!(
                got.approx_eq(&oracle, 1e-9),
                "GE single-box {} n={n}: err={:e}",
                backend.name(),
                got.max_abs_diff(&oracle)
            );

            let init = dd_f64(n, 0x22 + n as u64);
            let mut oracle = init.clone();
            gep_iterative(&LuSpec, &mut oracle);
            let got = single_box_with(&LuSpec, &init, backend);
            assert!(
                got.approx_eq(&oracle, 1e-9),
                "LU single-box {} n={n}: err={:e}",
                backend.name(),
                got.max_abs_diff(&oracle)
            );

            let init = dist_i64(n, 0x33 + n as u64);
            let mut oracle = init.clone();
            gep_iterative(&FwSpec::<i64>::new(), &mut oracle);
            let got = single_box_with(&FwSpec::<i64>::new(), &init, backend);
            assert_eq!(got, oracle, "FW single-box {} n={n}", backend.name());

            let init = adj_bool(n, 0x44 + n as u64);
            let mut oracle = init.clone();
            gep_iterative(&TC, &mut oracle);
            let got = single_box_with(&TC, &init, backend);
            assert_eq!(got, oracle, "TC single-box {} n={n}", backend.name());
        }
    }
}

/// Acceptance criterion: on power-of-two full-Σ runs of the five
/// kernel-backed applications nothing falls back to the generic scalar
/// base case, and the dispatch counter names the selected backend.
#[test]
fn no_fallback_on_power_of_two_full_sigma_runs() {
    let _g = lock();
    let n = 16usize;
    gep::obs::install(gep::obs::Recorder::counters_only());
    let mut ge = dd_f64(n, 1);
    igep_opt(&GaussianSpec, &mut ge, 4);
    let mut lu = dd_f64(n, 2);
    igep_opt(&LuSpec, &mut lu, 4);
    let mut fw = dist_i64(n, 3);
    igep_opt(&FwSpec::<i64>::new(), &mut fw, 4);
    let mut tc = adj_bool(n, 4);
    igep_opt(&TC, &mut tc, 4);
    let mut rng = xorshift(5);
    let a = Matrix::from_fn(n, n, |_, _| (rng() % 200) as f64 / 100.0 - 1.0);
    let _ = matmul::<PlusTimesF64>(&a, &a, 4);
    let rec = gep::obs::take().expect("recorder was installed");
    assert_eq!(
        rec.counter("kernels.fallback"),
        0,
        "specialized kernels must cover every base case"
    );
    let dispatched: u64 = available_backends()
        .iter()
        .map(|b| rec.counter(b.dispatch_counter()))
        .sum();
    assert!(dispatched > 0, "dispatch counter must record the backend");
}

/// Non-negative-weight min-plus solves never leave the AVX2 or AVX-512
/// register tile on `RowPanel`, `ColPanel` or `Disjoint` leaves: an
/// `apsp` run shaped like the fw-1024 benchmark (leaves of 64) and a
/// gep-serve-shaped solve (fitted side, `TROPICAL_INF` padding, leaves of
/// 32) bump `kernels.fw_i64.saturating` zero times. One negative weight
/// does bump it, on those two backends only ([`Backend::fuses`]).
#[test]
fn fw_tile_covers_non_negative_apsp() {
    use gep::apps::floyd_warshall::apsp;
    use gep::core::algebra::TROPICAL_INF;
    use gep::kernels::{selected_backend, FW_I64_SATURATING_COUNTER};
    let _g = lock();
    let serve_like = |n: usize, seed: u64| {
        let side = gep::matrix::fit_side(n, 32);
        let g = dist_i64(n, seed);
        Matrix::from_fn(side, side, |i, j| match (i == j, i < n && j < n) {
            (true, _) => 0,
            (false, true) => g[(i, j)],
            (false, false) => TROPICAL_INF,
        })
    };
    let ((), rec) = gep::obs::record(gep::obs::Recorder::counters_only(), || {
        let mut fw = dist_i64(256, 7);
        apsp(&mut fw, 64);
        let mut serve = serve_like(300, 8);
        igep_opt(&FwSpec::<i64>::new(), &mut serve, 32);
    });
    for shape in ["b", "c", "d"] {
        assert!(
            rec.counter(&format!("abcd.{shape}.calls")) > 0,
            "the runs must reach {shape} leaves"
        );
    }
    assert_eq!(rec.counter(FW_I64_SATURATING_COUNTER), 0);

    let ((), rec) = gep::obs::record(gep::obs::Recorder::counters_only(), || {
        let mut fw = dist_i64(256, 7);
        fw[(3, 200)] = i64::MIN;
        apsp(&mut fw, 64);
    });
    let saturating = rec.counter(FW_I64_SATURATING_COUNTER);
    if selected_backend().fuses() {
        assert!(
            saturating > 0,
            "a negative entry must take the saturating panel"
        );
    } else {
        assert_eq!(
            saturating, 0,
            "only the AVX2 and AVX-512 backends count saturating calls"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random FW instances: every backend bit-matches G at a random
    /// power-of-two size and base.
    #[test]
    fn prop_fw_backends_bitwise(seed in any::<u64>(), np in 0usize..5, bi in 0usize..BASES.len()) {
        let _g = lock();
        let n = 1usize << np;
        let base = BASES[bi];
        let init = dist_i64(n, seed);
        let mut oracle = init.clone();
        gep_iterative(&FwSpec::<i64>::new(), &mut oracle);
        for backend in backends_under_test() {
            let got = igep_with(&FwSpec::<i64>::new(), &init, base, backend);
            prop_assert_eq!(&got, &oracle, "FW {} n={} base={}", backend.name(), n, base);
        }
    }

    /// Random diagonally dominant eliminations: every backend stays
    /// within 1e-9 of G at a random power-of-two size and base.
    #[test]
    fn prop_ge_backends_approx(seed in any::<u64>(), np in 0usize..5, bi in 0usize..BASES.len()) {
        let _g = lock();
        let n = 1usize << np;
        let base = BASES[bi];
        let init = dd_f64(n, seed);
        let mut oracle = init.clone();
        gep_iterative(&GaussianSpec, &mut oracle);
        for backend in backends_under_test() {
            let got = igep_with(&GaussianSpec, &init, base, backend);
            prop_assert!(
                got.approx_eq(&oracle, 1e-9),
                "GE {} n={} base={}: err={:e}",
                backend.name(), n, base, got.max_abs_diff(&oracle)
            );
        }
    }
}
