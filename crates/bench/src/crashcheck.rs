//! The crash axis of the differential harness.
//!
//! One trial kills a checkpointed out-of-core solve at a seed-fuzzed
//! point — crash at the Nth write (optionally tearing the final stable
//! append), silent checkpoint corruption, or transient read faults —
//! resumes it from the surviving checkpoint, and compares the result
//! **bit for bit** against an uninterrupted run of the same instance
//! (and both against the in-core engine). Determinism makes this strict:
//! the resumable schedule re-executes exactly the remaining leaf steps,
//! so any divergence is a real recovery bug, not noise.
//!
//! Trials alternate Floyd–Warshall over `i64` and Gaussian elimination
//! over `f64` (the two [`gep_extmem::ElemBytes`] element types), so both
//! the exact and the floating-point paths cross the checkpoint format.
//!
//! Seeds derive and replay exactly like the other diffcheck axes: trial
//! `t` uses `mix(master + CRASH_AXIS_OFFSET + t)`; a failure prints the
//! seed and `diffcheck crash --seed <u64>` reruns that instance alone.

use gep::apps::{FwSpec, GaussianSpec};
use gep::core::{GepSpec, TROPICAL_INF};
use gep::matrix::Matrix;
use gep_extmem::{
    fault_clock, run_checkpointed, run_to_crash, CkptConfig, CkptStats, CkptStore, DiskProfile,
    ElemBytes, FaultPlan, MemStore,
};

/// xorshift64; 0 is a fixed point, so seeds are clamped to ≥ 1.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
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

/// Bitwise matrix equality through the checkpoint serialisation, so
/// `f64` compares by bits (NaN payloads and signed zeros included) —
/// "resumes to the same answer" means the same answer, not an
/// approximation of it.
pub fn bits_eq<T: ElemBytes>(a: &Matrix<T>, b: &Matrix<T>) -> bool {
    if a.n() != b.n() {
        return false;
    }
    let (mut ba, mut bb) = (Vec::new(), Vec::new());
    for i in 0..a.n() {
        for j in 0..a.n() {
            a.get(i, j).write_le(&mut ba);
            b.get(i, j).write_le(&mut bb);
        }
    }
    ba == bb
}

/// The fault mode of one trial.
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// Kill at the `at`-th write; `torn` tears the final stable append.
    Crash { at: u64, torn: bool },
    /// Complete cleanly, flip one byte of one stored object, resume.
    Corrupt,
    /// Transient read faults with bounded retry; must self-heal.
    ReadFaults { every: u64 },
}

fn run_one<S, T>(
    spec: &S,
    input: &Matrix<T>,
    cfg: &CkptConfig,
    rng: &mut Rng,
    app: &str,
    seed: u64,
) -> Result<CkptStats, String>
where
    S: GepSpec<Elem = T>,
    T: ElemBytes,
{
    let fail = |detail: String| {
        Err(format!(
            "seed {seed:#018x} app {app} n {n} base {base} every {every}: {detail}",
            n = input.n(),
            base = cfg.base,
            every = cfg.snapshot_every,
        ))
    };

    // The uninterrupted differential baseline, which also measures the
    // run's write count (the crash-point domain).
    let clock = fault_clock(FaultPlan::default());
    let mut store = MemStore::new(Some(clock.clone()));
    let (want, _) = run_checkpointed(spec, input, cfg, &mut store, Some(clock.clone()));
    let writes = clock.borrow().writes();
    if writes < 4 {
        return fail(format!("implausible baseline write count {writes}"));
    }

    // Sanity: out-of-core checkpointed == in-core I-GEP, bit for bit.
    let mut oracle = input.clone();
    gep::core::igep(spec, &mut oracle, cfg.base);
    if !bits_eq(&want, &oracle) {
        return fail("uninterrupted checkpointed run diverges from in-core I-GEP".into());
    }

    let mode = match rng.below(4) {
        0 | 1 => Mode::Crash {
            at: 1 + rng.below(writes),
            torn: rng.below(2) == 1,
        },
        2 => Mode::Corrupt,
        _ => Mode::ReadFaults {
            every: 5 + rng.below(20),
        },
    };

    match mode {
        Mode::Crash { at, torn } => {
            let clock = fault_clock(FaultPlan {
                crash_at_write: Some(at),
                torn_write: torn,
                ..Default::default()
            });
            let mut store = MemStore::new(Some(clock.clone()));
            let first = run_to_crash(std::panic::AssertUnwindSafe(|| {
                run_checkpointed(spec, input, cfg, &mut store, Some(clock.clone()))
            }));
            match first {
                Ok((result, stats)) => {
                    // `at` ≤ the baseline's write count, so not crashing
                    // would mean the write sequence diverged.
                    if !bits_eq(&result, &want) {
                        return fail(format!(
                            "mode crash(at={at},torn={torn}): no crash fired and result differs"
                        ));
                    }
                    Ok(stats)
                }
                Err(crash) => {
                    if crash.at_write != at {
                        return fail(format!(
                            "mode crash(at={at},torn={torn}): crashed at write {} instead",
                            crash.at_write
                        ));
                    }
                    let (result, stats) =
                        run_checkpointed(spec, input, cfg, &mut store, Some(clock.clone()));
                    if !bits_eq(&result, &want) {
                        return fail(format!(
                            "mode crash(at={at},torn={torn}): resumed result differs from \
                             uninterrupted run (resumed from cursor {})",
                            stats.start_cursor
                        ));
                    }
                    Ok(stats)
                }
            }
        }
        Mode::Corrupt => {
            // `store` already holds the completed run. Corrupt one byte
            // of one object; the resume must detect it (checksums) and
            // fall back — a wrong answer is the only failure.
            let names = store.list();
            let name = names[rng.below(names.len() as u64) as usize].clone();
            let len = store.read(&name).expect("listed object").len();
            store.corrupt(&name, rng.below(len as u64) as usize);
            let (result, stats) = run_checkpointed(spec, input, cfg, &mut store, None);
            if !bits_eq(&result, &want) {
                return fail(format!(
                    "mode corrupt({name}): recovery produced a wrong result instead of \
                     falling back (fallbacks {})",
                    stats.recovery_fallbacks
                ));
            }
            Ok(stats)
        }
        Mode::ReadFaults { every } => {
            let clock = fault_clock(FaultPlan {
                read_fail_every: Some(every),
                max_retries: 2,
                ..Default::default()
            });
            let mut store = MemStore::new(Some(clock.clone()));
            let attempt = run_to_crash(std::panic::AssertUnwindSafe(|| {
                run_checkpointed(spec, input, cfg, &mut store, Some(clock.clone()))
            }));
            let (result, stats) = match attempt {
                Ok(pair) => pair,
                // Retry exhaustion escalates to a crash; resuming is
                // still required to converge.
                Err(_) => run_checkpointed(spec, input, cfg, &mut store, Some(clock.clone())),
            };
            if !bits_eq(&result, &want) {
                return fail(format!(
                    "mode read-faults(every={every}): result differs after {} retries",
                    clock.borrow().retries()
                ));
            }
            Ok(stats)
        }
    }
}

fn fw_input(n: usize, rng: &mut Rng) -> Matrix<i64> {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0
        } else if rng.below(5) == 0 {
            TROPICAL_INF
        } else {
            rng.below(30) as i64 + 1
        }
    })
}

fn ge_input(n: usize, rng: &mut Rng) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            n as f64 + 2.0
        } else {
            rng.below(2001) as f64 / 1000.0 - 1.0
        }
    })
}

/// Runs the crash trial of `seed`. `Ok` carries the resumed/clean
/// attempt's checkpoint stats; `Err` carries a replayable description.
pub fn crash_trial(seed: u64) -> Result<CkptStats, String> {
    let mut rng = Rng::new(seed);
    let n = 8usize << rng.below(2); // 8 or 16
    let base = 1 + rng.below(2) as usize;
    let cfg = CkptConfig {
        m_bytes: 2048,
        b_bytes: 128 << rng.below(2), // 128 or 256
        base,
        snapshot_every: 3 + rng.below(28),
        profile: DiskProfile::fujitsu_map3735nc(),
    };
    if rng.below(2) == 0 {
        let input = fw_input(n, &mut rng);
        run_one(&FwSpec::<i64>::new(), &input, &cfg, &mut rng, "fw", seed)
    } else {
        let input = ge_input(n, &mut rng);
        run_one(&GaussianSpec, &input, &cfg, &mut rng, "ge", seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handful_of_crash_trials_pass() {
        gep_extmem::silence_injected_crash_reports();
        for trial in 0..12u64 {
            let seed = 0xC0FF_EE00u64.wrapping_add(trial.wrapping_mul(0x9E37_79B9));
            crash_trial(seed).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        gep_extmem::silence_injected_crash_reports();
        let a = crash_trial(42).expect("trial passes");
        let b = crash_trial(42).expect("trial passes");
        assert_eq!(a, b, "same seed must replay the same trial");
    }
}
