//! Cross-engine divergence localization CLI.
//!
//! ```text
//! cargo run -p gep-bench --release --bin diffcheck              # = all
//! cargo run -p gep-bench --release --bin diffcheck -- regression
//! cargo run -p gep-bench --release --bin diffcheck -- demo
//! cargo run -p gep-bench --release --bin diffcheck -- fuzz 5000
//! ```
//!
//! * `regression` — replays the shrunk instance recorded in
//!   `tests/properties.proptest-regressions` for `cgep_is_fully_general`
//!   through all seven engines and prints each verdict. The fully general
//!   engines (C-GEP family) must match G exactly; I-GEP divergence on this
//!   arbitrary Σ is expected (paper §2.2.1) and printed as such.
//! * `demo` — runs the deliberately broken `cgep_full_buggy` (the
//!   historical wrong `w`-read Iverson bracket) on the same instance,
//!   prints the localized first divergent update with operand/slot/τ
//!   diagnosis, then delta-minimizes the instance and reports the shrunk
//!   witness.
//! * `fuzz [trials]` — random general-Σ instances through all seven
//!   engines; any divergence of a fully general engine is localized and
//!   reported (exit code 1). Every instance has its own RNG seed, printed
//!   on failure; `fuzz --seed <u64>` (decimal or 0x-hex) replays exactly
//!   that instance deterministically. One seed in 8 also runs a second
//!   general-Σ instance, on a small fitted side ([`FITTED_SMALL`]: a
//!   non-power-of-two `leaf·2^q`), through all seven engines the same
//!   way. One seed in 40 also runs an FW and an f64 GE instance on a
//!   larger fitted side ([`FITTED`]) through the in-core I-GEP and C-GEP
//!   engines, against G: bitwise for FW, and for GE unless the ambient
//!   kernel backend fuses multiply-subtract (AVX2; then within 1e-9).
//! * `kernels [trials]` — the specialized-vs-generic kernel axis: random
//!   instances of the five kernel-backed applications (GE, LU, FW, TC,
//!   MM) run with each `gep-kernels` backend the host supports, compared
//!   against the scalar generic base case (bitwise for `i64`/`bool`, and
//!   for f64 GE and LU on every backend that does not fuse
//!   multiply-subtract; 1e-9 for MM and for GE and LU under AVX2; the MM
//!   embed-vs-recursion bitwise invariant is
//!   checked under every backend). One seed in 8 runs on a fitted side
//!   ([`FITTED`]) instead of `n ∈ {4..32}`, without MM, whose
//!   recursion needs a power of two. Independently, one seed in 4 also
//!   runs a copy of its FW instance with about a third of the weights
//!   swapped for wide ones ([`WIDE_TIERS`]: negatives, `−INF`, below
//!   `−INF`, above `INF`), so both the AVX2 min-plus register tile and
//!   its saturating fallback meet the generic kernel. Seeds print and
//!   replay exactly like
//!   `fuzz` (`kernels --seed <u64>`). Passing `--engine-kernels` to
//!   `fuzz` or `all` folds this axis into each fuzz trial.
//! * `algebras [trials]` — the update-algebra axis: random closure
//!   instances over `(min,+)` / `(max,min)` / `(∨,∧)` and elimination
//!   instances over GF(2) (bitsliced 64×64 blocks) and GF(2³¹−1),
//!   checked three ways per algebra: every engine vs an independent
//!   scalar oracle, every available kernel backend vs the generic base
//!   case, and the matmul embed-vs-recursion bitwise invariant. All
//!   algebras here are exact, so every comparison is bitwise. One seed
//!   in 8 runs the closure and GF(2³¹−1) instances on a fitted side
//!   ([`FITTED`]), without the embed invariant, whose matmul recursion
//!   needs a power of two. One seed in 4 also checks a wide copy of its
//!   `(min,+)` instance, as the kernels axis does; on that copy the two
//!   I-GEP engines are not held to the oracle (out-of-range weights break
//!   the laws they rely on), while G, C-GEP and every backend still are.
//!   Seeds print and replay exactly like `fuzz` (`algebras --seed <u64>`).
//! * `crash [trials]` — the crash-recovery axis (`gep_bench::crashcheck`):
//!   each trial runs a checkpointed out-of-core solve (FW over `i64` or
//!   GE over `f64`), kills it at a seed-fuzzed write (optionally tearing
//!   the final stable append), corrupts a checkpoint object, or injects
//!   transient read faults; then resumes and demands the result match the
//!   uninterrupted run **bit for bit**. Failing seeds are printed, replay
//!   via `crash --seed <u64>`, and are also appended to
//!   `diffcheck-crash-failing-seeds.txt` so CI can archive them.
//! * `incremental [trials]` — the incremental-serving axis
//!   (`gep_bench::incrcheck`): each trial drives a `gep-serve` cache
//!   through random mutation batches (decreases, inserts, zero weights,
//!   slack and tight rises, deletes, bursts) and checks every published
//!   epoch against the Floyd–Warshall and Dijkstra oracles, paths
//!   included, whichever of the rank-1 update and the full re-solve the
//!   server chose. Failing seeds print, replay via
//!   `incremental --seed <u64>`, and go to
//!   `diffcheck-incremental-failing-seeds.txt` like the crash axis's.

use gep::apps::matmul::{matmul, MatMulEmbedSpec};
use gep::apps::reference::{
    fw_reference, gf2_block_elim_reference, gfp_elim_reference, maxmin_reference, tc_reference,
};
use gep::apps::{ElimSpec, FwSpec, GaussianSpec, LuSpec, SemiringSpec};
use gep::core::algebra::{
    Gf2Block, Gf2x64, GfMersenne31, MaxMinI64, MinPlusI64, OrAndBool, PlusTimesF64, TROPICAL_INF,
};
use gep::core::GepSpec;
use gep::matrix::Matrix;
use gep::verify::{
    all_engines, buggy_engine, diff_engine, elim_agrees, minimize, recorded_regression,
    AffineInstance,
};
use gep_kernels::{available_backends, selected_backend, set_backend_override, Backend};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, m: u64) -> u64 {
        self.next() % m
    }
}

fn check_instance(inst: &AffineInstance, label: &str, bases: &[usize]) -> bool {
    let spec = inst.spec();
    let init = inst.init();
    let mut ok = true;
    for base in bases {
        for engine in all_engines() {
            let rep = diff_engine(&spec, &init, &engine, *base);
            if rep.is_violation() {
                ok = false;
                println!("[{label}] base {base}: VIOLATION\n{rep}");
            } else if rep.matches() {
                println!("[{label}] base {base}: {rep}");
            } else {
                println!(
                    "[{label}] base {base}: {}: trace diverges from G \
                     ({}) — expected, not fully general (paper §2.2.1)",
                    engine.name,
                    if rep.result_matches {
                        "final result agrees"
                    } else {
                        "final result differs"
                    }
                );
            }
        }
    }
    ok
}

fn regression() -> bool {
    let inst = recorded_regression();
    println!("replaying recorded cgep_is_fully_general regression instance:");
    println!("{inst}\n");
    let ok = check_instance(&inst, "regression", &[1, 2, 8]);
    println!(
        "\nregression replay: {}",
        if ok {
            "all fully general engines match G"
        } else {
            "VIOLATIONS FOUND"
        }
    );
    ok
}

fn demo() {
    let inst = recorded_regression();
    println!("demo: C-GEP with the wrong w-read bracket (`i >= k` instead of");
    println!("`i > k || (i == k && j > k)`) on the recorded regression instance.\n");
    let rep = diff_engine(&inst.spec(), &inst.init(), &buggy_engine(), 1);
    assert!(
        rep.is_violation(),
        "the planted bug must diverge on the recorded instance"
    );
    println!("localization:\n{rep}\n");

    println!("delta-minimizing (Σ ddmin + index compaction + n-halving + value zeroing)…");
    let fails = |cand: &AffineInstance| {
        diff_engine(&cand.spec(), &cand.init(), &buggy_engine(), 1).is_violation()
    };
    let min = minimize(&inst, &fails);
    println!("minimized witness:\n{min}\n");
    let rep = diff_engine(&min.spec(), &min.init(), &buggy_engine(), 1);
    println!("localization on the minimized witness:\n{rep}");
}

/// Master seed the per-trial seeds derive from.
const FUZZ_MASTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: turns `master + trial` into a well-mixed
/// per-trial seed, so each instance is reproducible from one number.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Non-power-of-two sides `leaf·2^q`, each with a base that halves it
/// exactly down to its leaf: the sides `gep_matrix::fit_side` produces,
/// plus leaves that are not multiples of 8.
const FITTED: [(usize, usize); 5] = [
    (160, 64), // 40·4
    (160, 32), // 20·8
    (192, 64), // 48·4
    (192, 16), // 12·16
    (320, 64), // 40·8
];

/// The fitted `(side, base)` of `seed`'s trial, for one seed in
/// `one_in`. Drawn from a stream of its own, so every other seed replays
/// the same power-of-two instance it always did.
fn fitted_draw(seed: u64, one_in: u64) -> Option<(usize, usize)> {
    let mut rng = Rng(mix(seed ^ 0x4649_5454).max(1));
    (rng.below(one_in) == 0).then(|| FITTED[rng.below(FITTED.len() as u64) as usize])
}

/// Min-plus weights outside the generators' usual `0`, `INF` and
/// `1..100`, in four tiers: values in `[0, 2·INF]`, where the AVX2
/// `Disjoint` kernel runs its register tile; negatives down to `−INF`;
/// values above `2·INF`; values below `−INF`. Any one value from the last
/// three sends that kernel to its saturating panel. (A full-Σ run clamps
/// values above `INF` in its B and C leaves before a `Disjoint` leaf reads
/// them, so only the kernels crate's direct test puts the third tier in
/// front of the tile's range check.)
const WIDE_TIERS: [&[i64]; 4] = [
    &[TROPICAL_INF + 1, 2 * TROPICAL_INF - 1, 2 * TROPICAL_INF],
    &[-1, -37, -1000, -TROPICAL_INF],
    &[2 * TROPICAL_INF + 1, i64::MAX],
    &[-TROPICAL_INF - 1, i64::MIN],
];

/// For one seed in `one_in`, a wide copy of the min-plus instance
/// `init`: about a third of its weights swapped for [`WIDE_TIERS`]
/// values, half from the first tier and half from one tier drawn per
/// seed (so a quarter of such seeds stay on the register tile).
/// Drawn from a stream of its own, so every seed still checks the
/// instance it always did.
fn wide_copy(seed: u64, one_in: u64, init: &Matrix<i64>) -> Option<Matrix<i64>> {
    let mut rng = Rng(mix(seed ^ 0x5749_4445).max(1));
    (rng.below(one_in) == 0).then(|| {
        let tier = WIDE_TIERS[rng.below(4) as usize];
        Matrix::from_fn(init.n(), init.n(), |i, j| {
            if rng.below(3) == 0 {
                let pick = if rng.below(2) == 0 {
                    WIDE_TIERS[0]
                } else {
                    tier
                };
                pick[rng.below(pick.len() as u64) as usize]
            } else {
                init[(i, j)]
            }
        })
    })
}

/// An engine entry point: `(spec, matrix, base)`.
type EngineFn<S> = fn(&S, &mut Matrix<<S as GepSpec>::Elem>, usize);

/// Runs `init` through G and through the in-core engines on a fitted
/// side, I-GEP's and C-GEP's; returns the engines whose result `same`
/// rejects against G's.
fn fitted_engines_check<S: GepSpec + Sync>(
    spec: &S,
    init: &Matrix<S::Elem>,
    base: usize,
    same: impl Fn(&Matrix<S::Elem>, &Matrix<S::Elem>) -> bool,
) -> Vec<&'static str> {
    let mut g = init.clone();
    gep::core::gep_iterative(spec, &mut g);
    let engines: [(&'static str, EngineFn<S>); 5] = [
        ("igep", |s, c, b| gep::core::igep(s, c, b)),
        ("igep_opt", |s, c, b| gep::core::igep_opt(s, c, b)),
        ("igep_parallel", |s, c, b| {
            gep::parallel::igep_parallel(s, c, b)
        }),
        ("cgep_full", |s, c, b| gep::core::cgep_full(s, c, b)),
        ("cgep_parallel", |s, c, b| {
            gep::parallel::cgep_parallel(s, c, b)
        }),
    ];
    engines
        .into_iter()
        .filter(|(_, run)| {
            let mut c = init.clone();
            run(spec, &mut c, base);
            !same(&c, &g)
        })
        .map(|(name, _)| name)
        .collect()
}

/// The fitted-side part of a fuzz trial: FW with sentinels bitwise
/// against G, and f64 GE bitwise too unless the ambient backend fuses
/// (then within 1e-9).
fn fitted_one(seed: u64, n: usize, base: usize, label: &str) -> bool {
    let mut rng = Rng(mix(seed ^ 0x5349_4445).max(1));
    let fw = Matrix::from_fn(n, n, |i, j| match (i == j, rng.below(6)) {
        (true, _) => 0i64,
        (false, 0) => TROPICAL_INF,
        (false, _) => rng.below(100) as i64 + 1,
    });
    let mut ge = Matrix::from_fn(n, n, |_, _| rng.below(1000) as f64 / 1000.0 - 0.5);
    for i in 0..n {
        ge[(i, i)] = n as f64;
    }
    let failed = [
        (
            "fw",
            fitted_engines_check(&FwSpec::<i64>::new(), &fw, base, |a, b| a == b),
        ),
        (
            "ge",
            fitted_engines_check(&GaussianSpec, &ge, base, |a, b| {
                elim_agrees(selected_backend(), a, b)
            }),
        ),
    ];
    let mut ok = true;
    for (app, engines) in failed {
        for engine in engines {
            ok = false;
            println!(
                "{label} (seed {seed:#018x}) fitted side {n} base {base}: {app} engine \
                 {engine} diverges from G"
            );
            println!("replay with: diffcheck fuzz --seed {seed:#x}\n");
        }
    }
    ok
}

/// Builds the random instance identified by `seed`.
fn random_instance(seed: u64) -> AffineInstance {
    // xorshift has 0 as a fixed point; remap it rather than hang.
    let mut rng = Rng(seed.max(1));
    let n = 1usize << (1 + rng.below(3));
    affine_instance(&mut rng, n)
}

/// Small non-power-of-two sides `leaf·2^q` with a base that halves each
/// exactly to its leaf, for general-Σ instances: every engine's full
/// update trace is compared against G's there, so they stay small.
const FITTED_SMALL: [(usize, usize); 4] = [(6, 3), (10, 5), (12, 3), (20, 5)];

/// For one seed in `one_in`, a general-Σ instance on a side of
/// [`FITTED_SMALL`], with its base. Drawn from a stream of its own, so
/// every seed still replays the power-of-two instance it always did.
fn fitted_instance(seed: u64, one_in: u64) -> Option<(AffineInstance, usize)> {
    let mut rng = Rng(mix(seed ^ 0x4146_4649).max(1));
    (rng.below(one_in) == 0).then(|| {
        let (n, base) = FITTED_SMALL[rng.below(FITTED_SMALL.len() as u64) as usize];
        (affine_instance(&mut rng, n), base)
    })
}

/// Draws a general-Σ affine instance of side `n` from `rng`.
fn affine_instance(rng: &mut Rng, n: usize) -> AffineInstance {
    let count = rng.below((n * n * n + 1) as u64) as usize;
    let sigma = (0..count)
        .map(|_| {
            (
                rng.below(n as u64) as usize,
                rng.below(n as u64) as usize,
                rng.below(n as u64) as usize,
            )
        })
        .collect();
    let coeffs = (
        rng.below(7) as i64 - 3,
        rng.below(7) as i64 - 3,
        rng.below(7) as i64 - 3,
        rng.below(7) as i64 - 3,
    );
    let vals = (0..n * n).map(|_| rng.below(201) as i64 - 100).collect();
    AffineInstance {
        n,
        sigma,
        coeffs,
        vals,
    }
}

/// Checks the instance(s) of one seed through all engines; prints the
/// seed with any violation so the instance can be replayed via `--seed`.
fn fuzz_one(seed: u64, label: &str) -> bool {
    let mut ok = fuzz_engines(&random_instance(seed), &[1, 2], seed, label);
    if let Some((inst, base)) = fitted_instance(seed, 8) {
        ok &= fuzz_engines(&inst, &[base], seed, &format!("{label}, fitted side"));
    }
    if let Some((n, base)) = fitted_draw(seed, 40) {
        ok &= fitted_one(seed, n, base, label);
    }
    ok
}

/// Runs `inst` through all engines at each of `bases`; prints every
/// violation with the instance and the replay line of `seed`.
fn fuzz_engines(inst: &AffineInstance, bases: &[usize], seed: u64, label: &str) -> bool {
    let spec = inst.spec();
    let init = inst.init();
    let mut ok = true;
    for &base in bases {
        for engine in all_engines() {
            let rep = diff_engine(&spec, &init, &engine, base);
            if rep.is_violation() {
                ok = false;
                println!("{label} (seed {seed:#018x}) base {base}: VIOLATION\n{rep}");
                println!("instance:\n{inst}\n");
                println!("replay with: diffcheck fuzz --seed {seed:#x}\n");
            }
        }
    }
    ok
}

fn fuzz(trials: u64, replay: Option<u64>, engine_kernels: bool) -> bool {
    if let Some(seed) = replay {
        println!("replaying the instance of seed {seed:#018x}:");
        println!("{}\n", random_instance(seed));
        let mut ok = fuzz_one(seed, "replay");
        if engine_kernels {
            ok &= kernels_one(seed, "replay");
        }
        println!(
            "replay: {}",
            if ok {
                "no violations"
            } else {
                "VIOLATIONS FOUND"
            }
        );
        return ok;
    }
    let mut ok = true;
    for trial in 0..trials {
        let seed = mix(FUZZ_MASTER_SEED.wrapping_add(trial));
        if !fuzz_one(seed, &format!("trial {trial}")) {
            ok = false;
        }
        // The kernels axis is ~50x the cost of one affine trial; thin it.
        if engine_kernels && trial % 50 == 0 && !kernels_one(seed, &format!("trial {trial}")) {
            ok = false;
        }
        if (trial + 1) % 500 == 0 {
            println!("… {} trials done", trial + 1);
        }
    }
    println!(
        "fuzz: {trials} trials, {}",
        if ok {
            "no violations"
        } else {
            "VIOLATIONS FOUND"
        }
    );
    ok
}

/// Runs `run` on a clone of `init` with the kernel backend forced (and
/// the override dropped afterwards).
fn run_with<T: Copy>(
    backend: Backend,
    init: &Matrix<T>,
    run: &dyn Fn(&mut Matrix<T>),
) -> Matrix<T> {
    set_backend_override(Some(backend));
    let mut m = init.clone();
    run(&mut m);
    set_backend_override(None);
    m
}

/// One kernels-axis trial: random instances of the five kernel-backed
/// applications, every available backend vs the scalar generic base case.
fn kernels_one(seed: u64, label: &str) -> bool {
    let mut rng = Rng(seed.max(1));
    let n = 1usize << (2 + rng.below(4)); // 4, 8, 16, 32
    let bases = [1usize, 2, 3, 4, 7, 8, 16];
    let base = bases[rng.below(bases.len() as u64) as usize];
    let (n, base) = fitted_draw(seed, 8).unwrap_or((n, base));
    let simd: Vec<Backend> = available_backends()
        .into_iter()
        .filter(|b| *b != Backend::Generic)
        .collect();

    let mut ok = true;
    let mut report = |app: &str, backend: Backend, detail: String| {
        ok = false;
        println!(
            "{label} (seed {seed:#018x}) kernels axis: {app} backend {} n {n} base {base} \
             diverges from generic: {detail}",
            backend.name()
        );
        println!("replay with: diffcheck kernels --seed {seed:#x}\n");
    };

    // f64 GE / LU: bitwise, except under the AVX2 backend, whose fused
    // multiply-subtract legitimately changes the last bits.
    let mut ge_init = Matrix::from_fn(n, n, |_, _| rng.below(1000) as f64 / 1000.0 - 0.5);
    for i in 0..n {
        ge_init[(i, i)] = n as f64 + 2.0;
    }
    for (app, run) in [
        (
            "ge",
            (&|m: &mut Matrix<f64>| gep::core::igep_opt(&GaussianSpec, m, base))
                as &dyn Fn(&mut Matrix<f64>),
        ),
        ("lu", &|m: &mut Matrix<f64>| {
            gep::core::igep_opt(&LuSpec, m, base)
        }),
    ] {
        let want = run_with(Backend::Generic, &ge_init, run);
        for &backend in &simd {
            let got = run_with(backend, &ge_init, run);
            if !elim_agrees(backend, &got, &want) {
                report(
                    app,
                    backend,
                    format!("max |delta| = {:e}", got.max_abs_diff(&want)),
                );
            }
        }
    }

    // i64 FW and bool TC: min/or are exact, so bitwise equality holds,
    // on the wide copy too (negative cycles, saturation and all).
    let fw_init = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0i64
        } else if rng.below(4) == 0 {
            i64::MAX / 4
        } else {
            rng.below(100) as i64 + 1
        }
    });
    let fw_wide = wide_copy(seed, 4, &fw_init);
    let fw_run: &dyn Fn(&mut Matrix<i64>) =
        &|m| gep::core::igep_opt(&FwSpec::<i64>::new(), m, base);
    for (init, what) in [(Some(&fw_init), ""), (fw_wide.as_ref(), " (wide weights)")] {
        let Some(init) = init else { continue };
        let fw_want = run_with(Backend::Generic, init, fw_run);
        for &backend in &simd {
            if run_with(backend, init, fw_run) != fw_want {
                report("fw", backend, format!("bitwise i64 mismatch{what}"));
            }
        }
    }

    let tc_init = Matrix::from_fn(n, n, |i, j| i == j || rng.below(4) == 0);
    let tc_run: &dyn Fn(&mut Matrix<bool>) =
        &|m| gep::core::igep_opt(&SemiringSpec::<OrAndBool>::new(), m, base);
    let tc_want = run_with(Backend::Generic, &tc_init, tc_run);
    for &backend in &simd {
        if run_with(backend, &tc_init, tc_run) != tc_want {
            report("tc", backend, "bitwise bool mismatch".into());
        }
    }

    // MM: backend vs generic with tolerance, plus the embed-vs-recursion
    // bitwise invariant under every backend (both paths must route each
    // (i,j,k) contribution through the same panel op in the same order).
    // The MM recursion needs a power-of-two side.
    if !n.is_power_of_two() {
        return ok;
    }
    let a = Matrix::from_fn(n, n, |_, _| rng.below(200) as f64 / 100.0 - 1.0);
    let b = Matrix::from_fn(n, n, |_, _| rng.below(200) as f64 / 100.0 - 1.0);
    let emb_init = Matrix::from_fn(2 * n, 2 * n, |i, j| match (i < n, j < n) {
        (true, false) => b[(i, j - n)],
        (false, true) => a[(i - n, j)],
        _ => 0.0,
    });
    set_backend_override(Some(Backend::Generic));
    let mm_want = matmul::<PlusTimesF64>(&a, &b, base);
    set_backend_override(None);
    for backend in available_backends() {
        set_backend_override(Some(backend));
        let dac = matmul::<PlusTimesF64>(&a, &b, base);
        let mut emb = emb_init.clone();
        gep::core::igep_opt(&MatMulEmbedSpec::<PlusTimesF64>::new(n), &mut emb, base);
        set_backend_override(None);
        let emb_c = Matrix::from_fn(n, n, |i, j| emb[(n + i, n + j)]);
        if emb_c != dac {
            report(
                "mm",
                backend,
                "embed-vs-recursion bitwise invariant broken".into(),
            );
        }
        if backend != Backend::Generic && !dac.approx_eq(&mm_want, 1e-9) {
            report(
                "mm",
                backend,
                format!("max |delta| = {:e}", dac.max_abs_diff(&mm_want)),
            );
        }
    }
    ok
}

/// The kernels axis as a standalone fuzzer (subcommand `kernels`).
fn kernels_fuzz(trials: u64, replay: Option<u64>) -> bool {
    if available_backends().len() <= 1 {
        println!("kernels: only the generic backend is available on this host; nothing to diff");
        return true;
    }
    if let Some(seed) = replay {
        println!("replaying the kernels-axis instance of seed {seed:#018x}:");
        let ok = kernels_one(seed, "replay");
        println!(
            "replay: {}",
            if ok {
                "no divergence"
            } else {
                "DIVERGENCE FOUND"
            }
        );
        return ok;
    }
    let mut ok = true;
    for trial in 0..trials {
        let seed = mix(FUZZ_MASTER_SEED
            .wrapping_add(0x4B45_524E)
            .wrapping_add(trial));
        if !kernels_one(seed, &format!("trial {trial}")) {
            ok = false;
        }
        if (trial + 1) % 100 == 0 {
            println!("… {} kernel trials done", trial + 1);
        }
    }
    println!(
        "kernels: {trials} trials x {} backends, {}",
        available_backends().len() - 1,
        if ok {
            "no divergence from the generic base case"
        } else {
            "DIVERGENCE FOUND"
        }
    );
    ok
}

/// Runs one closure (semiring FW-style) instance of algebra `A` through
/// every engine against `oracle`, then every non-generic backend against
/// the generic result. Exact algebras only: all comparisons are bitwise.
/// `igep_vs_oracle: false` drops the two I-GEP engines from the oracle
/// comparison: they match G only where the algebra's laws hold, and
/// min-plus weights outside `[−INF, INF]` break them (the saturating `⊗`
/// is not associative there, and negative cycles make the result depend
/// on the update order). G and the fully general C-GEP are still checked.
fn closure_algebra_check<A: gep_kernels::AlgebraKernels>(
    init: &Matrix<A::Elem>,
    oracle: &Matrix<A::Elem>,
    base: usize,
    igep_vs_oracle: bool,
    report: &mut dyn FnMut(&'static str, String),
) {
    let spec = SemiringSpec::<A>::new();
    let mut g = init.clone();
    gep::core::gep_iterative(&spec, &mut g);
    if &g != oracle {
        report(A::NAME, "engine G diverges from the scalar oracle".into());
    }
    if igep_vs_oracle {
        let mut f = init.clone();
        gep::core::igep(&spec, &mut f, base);
        if &f != oracle {
            report(
                A::NAME,
                format!("engine F (base {base}) diverges from the scalar oracle"),
            );
        }
        let mut o = init.clone();
        gep::core::igep_opt(&spec, &mut o, base);
        if &o != oracle {
            report(
                A::NAME,
                format!("engine A/B/C/D (base {base}) diverges from the scalar oracle"),
            );
        }
    }
    let mut h = init.clone();
    gep::core::cgep_full(&spec, &mut h, base);
    if &h != oracle {
        report(
            A::NAME,
            format!("engine H (base {base}) diverges from the scalar oracle"),
        );
    }
    let run: &dyn Fn(&mut Matrix<A::Elem>) = &|m| gep::core::igep_opt(&spec, m, base);
    let want = run_with(Backend::Generic, init, run);
    for backend in available_backends() {
        if backend == Backend::Generic {
            continue;
        }
        if run_with(backend, init, run) != want {
            report(
                A::NAME,
                format!(
                    "backend {} diverges from generic (base {base})",
                    backend.name()
                ),
            );
        }
    }
}

/// The matmul embed-vs-recursion bitwise invariant over algebra `A`,
/// checked under every available backend.
fn embed_vs_recursion_check<A: gep_kernels::AlgebraKernels>(
    a: &Matrix<A::Elem>,
    b: &Matrix<A::Elem>,
    base: usize,
    report: &mut dyn FnMut(&'static str, String),
) {
    let n = a.n();
    let emb_init = Matrix::from_fn(2 * n, 2 * n, |i, j| match (i < n, j < n) {
        (true, false) => b[(i, j - n)],
        (false, true) => a[(i - n, j)],
        _ => A::ZERO,
    });
    for backend in available_backends() {
        set_backend_override(Some(backend));
        let dac = matmul::<A>(a, b, base);
        let mut emb = emb_init.clone();
        gep::core::igep_opt(&MatMulEmbedSpec::<A>::new(n), &mut emb, base);
        set_backend_override(None);
        let emb_c = Matrix::from_fn(n, n, |i, j| emb[(n + i, n + j)]);
        if emb_c != dac {
            report(
                A::NAME,
                format!(
                    "matmul embed-vs-recursion bitwise invariant broken under backend {} \
                     (base {base})",
                    backend.name()
                ),
            );
        }
    }
}

/// Runs one elimination instance of algebra `A` through every engine
/// against `oracle`, then every non-generic backend against the generic
/// result.
fn elim_algebra_check<A>(
    init: &Matrix<A::Elem>,
    oracle: &Matrix<A::Elem>,
    base: usize,
    report: &mut dyn FnMut(&'static str, String),
) where
    A: gep_kernels::AlgebraKernels + gep::core::algebra::EliminationAlgebra,
{
    let spec = ElimSpec::<A>::new();
    let mut g = init.clone();
    gep::core::gep_iterative(&spec, &mut g);
    if &g != oracle {
        report(
            A::NAME,
            "elimination engine G diverges from the scalar oracle".into(),
        );
    }
    let mut o = init.clone();
    gep::core::igep_opt(&spec, &mut o, base);
    if &o != oracle {
        report(
            A::NAME,
            format!("elimination engine A/B/C/D (base {base}) diverges from the scalar oracle"),
        );
    }
    let mut h = init.clone();
    gep::core::cgep_full(&spec, &mut h, base);
    if &h != oracle {
        report(
            A::NAME,
            format!("elimination engine H (base {base}) diverges from the oracle"),
        );
    }
    let run: &dyn Fn(&mut Matrix<A::Elem>) = &|m| gep::core::igep_opt(&spec, m, base);
    let want = run_with(Backend::Generic, init, run);
    for backend in available_backends() {
        if backend == Backend::Generic {
            continue;
        }
        if run_with(backend, init, run) != want {
            report(
                A::NAME,
                format!(
                    "elimination backend {} diverges from generic (base {base})",
                    backend.name()
                ),
            );
        }
    }
}

/// Random invertible 64×64 bit block (unit-lower · unit-upper product:
/// every leading minor is 1).
fn gf2_invertible_block(rng: &mut Rng) -> Gf2Block {
    let mut lo = Gf2Block::IDENTITY;
    let mut up = Gf2Block::IDENTITY;
    for r in 0..64 {
        lo.0[r] |= rng.next() & (((1u128 << r) - 1) as u64);
        up.0[r] |= rng.next() & !(((1u128 << (r + 1)) - 1) as u64);
    }
    lo.mul(&up)
}

/// Random GF(2) block matrix with nonsingular leading block minors
/// (block-level unit-lower · upper product with invertible diagonal
/// blocks), so elimination never hits a singular pivot block.
fn gf2_elim_instance(n: usize, rng: &mut Rng) -> Matrix<Gf2Block> {
    let rnd_block = |rng: &mut Rng| Gf2Block(std::array::from_fn(|_| rng.next()));
    let mut lo = Matrix::square(n, Gf2Block::ZERO);
    let mut up = Matrix::square(n, Gf2Block::ZERO);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                lo[(i, j)] = Gf2Block::IDENTITY;
                up[(i, j)] = gf2_invertible_block(rng);
            } else if i > j {
                lo[(i, j)] = rnd_block(rng);
            } else {
                up[(i, j)] = rnd_block(rng);
            }
        }
    }
    Matrix::from_fn(n, n, |i, j| {
        let mut acc = Gf2Block::ZERO;
        for m in 0..n {
            acc.xor_assign(&lo[(i, m)].mul(&up[(m, j)]));
        }
        acc
    })
}

/// One algebra-axis trial (see the module docs for what is covered).
fn algebras_one(seed: u64, label: &str) -> bool {
    let mut rng = Rng(seed.max(1));
    let n = 1usize << (2 + rng.below(3)); // 4, 8, 16
    let bases = [1usize, 2, 4, 8];
    let base = bases[rng.below(bases.len() as u64) as usize];
    let (n, base) = fitted_draw(seed, 8).unwrap_or((n, base));

    let mut ok = true;
    let mut report = |algebra: &'static str, detail: String| {
        ok = false;
        println!("{label} (seed {seed:#018x}) algebra axis: {algebra} n {n} base {base}: {detail}");
        println!("replay with: diffcheck algebras --seed {seed:#x}\n");
    };

    // (min, +): shortest paths with INF sprinkled in, plus near-sentinel
    // weights so the saturating/absorbing ⊗ is exercised, not just the
    // comfortable middle of the range; one seed in 4 adds a wide copy.
    let fw_init = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0i64
        } else {
            match rng.below(8) {
                0 | 1 => TROPICAL_INF,
                2 => TROPICAL_INF - 1 - rng.below(50) as i64,
                _ => rng.below(100) as i64 + 1,
            }
        }
    });
    closure_algebra_check::<MinPlusI64>(&fw_init, &fw_reference(&fw_init), base, true, &mut report);
    if let Some(wide) = wide_copy(seed, 4, &fw_init) {
        closure_algebra_check::<MinPlusI64>(
            &wide,
            &fw_reference(&wide),
            base,
            false,
            &mut |algebra, detail| report(algebra, format!("wide weights: {detail}")),
        );
    }

    // (max, min): widest paths / bottleneck capacities; ZERO = i64::MIN
    // marks a missing edge, the diagonal is ONE (unbounded self-capacity).
    let mm_init = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            i64::MAX
        } else if rng.below(4) == 0 {
            i64::MIN
        } else {
            rng.below(1000) as i64
        }
    });
    closure_algebra_check::<MaxMinI64>(
        &mm_init,
        &maxmin_reference(&mm_init),
        base,
        true,
        &mut report,
    );

    // (∨, ∧): reachability on a reflexive random digraph.
    let tc_init = Matrix::from_fn(n, n, |i, j| i == j || rng.below(4) == 0);
    closure_algebra_check::<OrAndBool>(&tc_init, &tc_reference(&tc_init), base, true, &mut report);

    // Embed-vs-recursion over the exact semirings (bitwise, all backends);
    // the matmul recursion needs a power-of-two side.
    if n.is_power_of_two() {
        let a = Matrix::from_fn(n, n, |_, _| rng.below(200) as i64);
        let b = Matrix::from_fn(n, n, |_, _| rng.below(200) as i64);
        embed_vs_recursion_check::<MinPlusI64>(&a, &b, base, &mut report);
        embed_vs_recursion_check::<MaxMinI64>(&a, &b, base, &mut report);
        let ab = Matrix::from_fn(n, n, |_, _| rng.below(3) == 0);
        let bb = Matrix::from_fn(n, n, |_, _| rng.below(3) == 0);
        embed_vs_recursion_check::<OrAndBool>(&ab, &bb, base, &mut report);
    }

    // GF(2), bitsliced: elimination against the scalar bool-matrix
    // reference, plus the embed invariant on the (noncommutative) block
    // ring. Block count is kept small — each cell is a 64×64 bit tile.
    let bn = 1usize << rng.below(3); // 1, 2, 4 blocks per side
    let gf2_init = gf2_elim_instance(bn, &mut rng);
    elim_algebra_check::<Gf2x64>(
        &gf2_init,
        &gf2_block_elim_reference(&gf2_init),
        base.min(bn),
        &mut report,
    );
    let ga = Matrix::from_fn(bn, bn, |_, _| Gf2Block(std::array::from_fn(|_| rng.next())));
    let gb = Matrix::from_fn(bn, bn, |_, _| Gf2Block(std::array::from_fn(|_| rng.next())));
    embed_vs_recursion_check::<Gf2x64>(&ga, &gb, base.min(bn), &mut report);

    // GF(2³¹ − 1): Barrett-reduced elimination vs the naive u128 `%`
    // reference. A heavy diagonal keeps the leading minors nonsingular.
    const P: u64 = 2_147_483_647;
    let gfp_init = Matrix::from_fn(n, n, |i, j| {
        let x = rng.next() % P;
        if i == j && x == 0 {
            1
        } else {
            x
        }
    });
    elim_algebra_check::<GfMersenne31>(
        &gfp_init,
        &gfp_elim_reference(&gfp_init, P),
        base,
        &mut report,
    );
    ok
}

/// The algebra axis as a standalone fuzzer (subcommand `algebras`).
fn algebras_fuzz(trials: u64, replay: Option<u64>) -> bool {
    if let Some(seed) = replay {
        println!("replaying the algebra-axis instance of seed {seed:#018x}:");
        let ok = algebras_one(seed, "replay");
        println!(
            "replay: {}",
            if ok {
                "no divergence"
            } else {
                "DIVERGENCE FOUND"
            }
        );
        return ok;
    }
    let mut ok = true;
    for trial in 0..trials {
        let seed = mix(FUZZ_MASTER_SEED
            .wrapping_add(0x414C_4745)
            .wrapping_add(trial));
        if !algebras_one(seed, &format!("trial {trial}")) {
            ok = false;
        }
        if (trial + 1) % 25 == 0 {
            println!("… {} algebra trials done", trial + 1);
        }
    }
    println!(
        "algebras: {trials} trials x 6 algebras x {} backends, {}",
        available_backends().len(),
        if ok {
            "no divergence (engines, backends, embed-vs-recursion all bitwise)"
        } else {
            "DIVERGENCE FOUND"
        }
    );
    ok
}

/// The crash-recovery axis as a standalone fuzzer (subcommand `crash`).
/// Failing seeds go to `diffcheck-crash-failing-seeds.txt` for CI to
/// archive as an artifact.
fn crash_fuzz(trials: u64, replay: Option<u64>) -> bool {
    gep::extmem::silence_injected_crash_reports();
    if let Some(seed) = replay {
        println!("replaying the crash-axis trial of seed {seed:#018x}:");
        match gep_bench::crashcheck::crash_trial(seed) {
            Ok(stats) => {
                println!(
                    "replay: recovered bit-identically (resumed from cursor {} of {}, \
                     {} snapshots, {} recovery fallbacks)",
                    stats.start_cursor,
                    stats.total_steps,
                    stats.snapshots_written,
                    stats.recovery_fallbacks,
                );
                return true;
            }
            Err(e) => {
                println!("replay: RECOVERY VIOLATION\n{e}");
                return false;
            }
        }
    }
    let mut failing: Vec<u64> = Vec::new();
    for trial in 0..trials {
        let seed = mix(FUZZ_MASTER_SEED
            .wrapping_add(0x4352_4153)
            .wrapping_add(trial));
        if let Err(e) = gep_bench::crashcheck::crash_trial(seed) {
            println!("trial {trial}: RECOVERY VIOLATION\n{e}");
            println!("replay with: diffcheck crash --seed {seed:#x}\n");
            failing.push(seed);
        }
        if (trial + 1) % 50 == 0 {
            println!("… {} crash trials done", trial + 1);
        }
    }
    if !failing.is_empty() {
        let lines: String = failing.iter().map(|s| format!("{s:#018x}\n")).collect();
        let path = "diffcheck-crash-failing-seeds.txt";
        match std::fs::write(path, &lines) {
            Ok(()) => println!("wrote {} failing seed(s) to {path}", failing.len()),
            Err(e) => println!("could not write {path}: {e}"),
        }
    }
    println!(
        "crash: {trials} trials, {}",
        if failing.is_empty() {
            "every interrupted run recovered bit-identically"
        } else {
            "RECOVERY VIOLATIONS FOUND"
        }
    );
    failing.is_empty()
}

/// The incremental-serving axis as a standalone fuzzer (subcommand
/// `incremental`). Failing seeds go to
/// `diffcheck-incremental-failing-seeds.txt` for CI to archive.
fn incremental_fuzz(trials: u64, replay: Option<u64>) -> bool {
    use gep_bench::incrcheck::incremental_trial;
    if let Some(seed) = replay {
        println!("replaying the incremental-axis trial of seed {seed:#018x}:");
        return match incremental_trial(seed) {
            Ok(s) => {
                println!(
                    "replay: n {}, {} edges, {} epochs ({} incremental), every epoch matches",
                    s.n, s.edges, s.epochs, s.incremental
                );
                true
            }
            Err(e) => {
                println!("replay: VIOLATION\n{e}");
                false
            }
        };
    }
    let (mut epochs, mut incremental) = (0u64, 0u64);
    let mut failing: Vec<u64> = Vec::new();
    for trial in 0..trials {
        let seed = mix(FUZZ_MASTER_SEED
            .wrapping_add(0x494E_4352)
            .wrapping_add(trial));
        match incremental_trial(seed) {
            Ok(s) => {
                epochs += s.epochs;
                incremental += s.incremental;
            }
            Err(e) => {
                println!("trial {trial}: VIOLATION\n{e}");
                println!("replay with: diffcheck incremental --seed {seed:#x}\n");
                failing.push(seed);
            }
        }
    }
    if !failing.is_empty() {
        let lines: String = failing.iter().map(|s| format!("{s:#018x}\n")).collect();
        let path = "diffcheck-incremental-failing-seeds.txt";
        match std::fs::write(path, &lines) {
            Ok(()) => println!("wrote {} failing seed(s) to {path}", failing.len()),
            Err(e) => println!("could not write {path}: {e}"),
        }
    }
    println!(
        "incremental: {trials} trials, {epochs} epochs ({incremental} incremental), {}",
        if failing.is_empty() {
            "every epoch matches the oracles"
        } else {
            "VIOLATIONS FOUND"
        }
    );
    failing.is_empty()
}

/// Parses a seed in decimal or `0x`-prefixed hex.
fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The subcommand `args[0]`'s trial count: `args[1]`, or `default` when
/// absent. Anything else exits 2, naming the subcommand and the argument.
fn trial_count(args: &[String], default: u64) -> u64 {
    match args.get(1) {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!(
                "{}: trial count '{s}' is not a non-negative integer",
                args[0]
            );
            std::process::exit(2);
        }),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let engine_kernels = if let Some(pos) = args.iter().position(|a| a == "--engine-kernels") {
        args.remove(pos);
        true
    } else {
        false
    };
    let mut seed: Option<u64> = None;
    if let Some(pos) = args.iter().position(|a| a == "--seed") {
        let value = args.get(pos + 1).cloned().unwrap_or_else(|| {
            eprintln!("--seed needs a value");
            std::process::exit(2);
        });
        seed = Some(parse_seed(&value).unwrap_or_else(|| {
            eprintln!("--seed '{value}' is not a u64 (decimal or 0x-hex)");
            std::process::exit(2);
        }));
        args.drain(pos..=pos + 1);
    }
    let what = args.first().map(String::as_str).unwrap_or("all");
    let ok = match what {
        "regression" => regression(),
        "demo" => {
            demo();
            true
        }
        "fuzz" => fuzz(trial_count(&args, 2000), seed, engine_kernels),
        "kernels" => kernels_fuzz(trial_count(&args, 200), seed),
        "algebras" => algebras_fuzz(trial_count(&args, 50), seed),
        "crash" => crash_fuzz(trial_count(&args, 200), seed),
        "incremental" => incremental_fuzz(trial_count(&args, 200), seed),
        "all" => {
            let a = regression();
            println!();
            demo();
            println!();
            let b = fuzz(2000, seed, engine_kernels);
            println!();
            let c = algebras_fuzz(50, seed);
            println!();
            let d = crash_fuzz(50, seed);
            println!();
            a && b && c && d && incremental_fuzz(100, seed)
        }
        other => {
            eprintln!(
                "unknown subcommand '{other}'; one of: regression, demo, fuzz, kernels, \
                 algebras, crash, incremental, all"
            );
            std::process::exit(2);
        }
    };
    if !ok {
        std::process::exit(1);
    }
}
