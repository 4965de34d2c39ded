//! Reduced-space **C-GEP** — copy-on-destroy snapshots.
//!
//! The paper observes (Section 2.2.2, "Reducing the Additional Space")
//! that at any point during C-GEP's execution at most `n² + n` of the
//! `4n²` snapshot values are needed, and sketches a variant using four
//! `(n/2) × (n/2)` matrices plus two `n/2`-vectors. The exact construction
//! lives in the companion technical report (TR-06-04); this module
//! implements the underlying liveness argument directly:
//!
//! * as long as a cell has not advanced past the state a snapshot slot
//!   captures, readers of that slot can read the **cell itself** — no copy
//!   is needed;
//! * a snapshot is materialised only at the *destroying write*: when an
//!   update is about to overwrite a state that some future reader still
//!   needs (τ of the slot equals the cell's pre-update state), the old
//!   value is copied out, tagged with its exact remaining-reader count
//!   (derivable from `Σ`);
//! * every read decrements the count; the slot is freed at zero.
//!
//! A snapshot is therefore live for the minimal possible window —
//! destruction to last read — and the measured peak obeys the paper's
//! `n² + n` bound (asserted by the property tests, fuzzing over arbitrary
//! `f` and `Σ`, and recorded in `EXPERIMENTS.md`). Like the paper's
//! reduced variant, this one trades bookkeeping time for the smaller
//! footprint, which is why Figure 9 shows it slower than the `4n²`
//! variant.

use crate::cgep::for_each_in_leaf;
use crate::spec::GepSpec;
use crate::store::CellStore;
use crate::walk::{walk_leaves, Cube};
use gep_matrix::halves_to_leaf;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::ControlFlow;

/// Multiplicative hasher for the already-well-mixed `u64` slot keys —
/// the snapshot maps are on the per-update hot path, where SipHash would
/// dominate the runtime (the paper's variant pays analogous bookkeeping in
/// buffer re-initialisation instead).
#[derive(Default)]
struct SlotHasher(u64);

impl Hasher for SlotHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        // Fibonacci hashing: one multiply, strong high bits.
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type SlotMap<V> = HashMap<u64, V, BuildHasherDefault<SlotHasher>>;

/// Statistics from a reduced-space C-GEP run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReducedSpaceStats {
    /// Maximum number of snapshot *values* live at any instant.
    pub peak_live_snapshots: usize,
    /// Total snapshot materialisations (copy-on-destroy events).
    pub saves: u64,
    /// Total snapshot-slot reads (from a copy or from the live cell).
    pub reads: u64,
    /// Reads served directly from the live cell (no copy existed).
    pub reads_from_cell: u64,
    /// The paper's claimed bound for comparison: `n² + n`.
    pub claimed_bound: usize,
}

/// Slot kinds, in the paper's naming. A slot `(kind, a, b)` captures the
/// state of cell `(a, b)` after all its updates with
/// `k' ≤ limit(kind, a, b)` where the limits are `b−1, b, a−1, a`.
const U0: u64 = 0;
const U1: u64 = 1;
const V0: u64 = 2;
const V1: u64 = 3;

#[inline(always)]
fn key(kind: u64, a: usize, b: usize) -> u64 {
    (kind << 60) | ((a as u64) << 30) | b as u64
}

#[inline(always)]
fn slot_limit(kind: u64, a: usize, b: usize) -> i64 {
    match kind {
        U0 => b as i64 - 1,
        U1 => b as i64,
        V0 => a as i64 - 1,
        _ => a as i64,
    }
}

/// Exact read-event counts for the four snapshot slots of cell `(a, b)`:
/// `[u0, u1, v0, v1]`.
///
/// * `u`-slots of `(a, b)` are read by updates `⟨a, j, b⟩` (their
///   `c[i,k]` argument), split by `j ≤ b` (u0) vs `j > b` (u1); when
///   `a == b` the diagonal cell additionally serves every `w`-read of
///   updates `⟨i, j, b⟩`, split by the Figure 3 Iverson bracket.
/// * `v`-slots of `(a, b)` are read by updates `⟨i, b, a⟩` (their
///   `c[k,j]` argument), split by `i ≤ a` (v0) vs `i > a` (v1).
fn slot_readers<S: GepSpec>(spec: &S, n: usize, a: usize, b: usize) -> [u32; 4] {
    let mut u0 = 0u32;
    let mut u1 = 0u32;
    for j in 0..n {
        if spec.in_sigma(a, j, b) {
            if j <= b {
                u0 += 1;
            } else {
                u1 += 1;
            }
        }
    }
    if a == b {
        // w-reads of the diagonal cell (b, b).
        for i in 0..n {
            for j in 0..n {
                if spec.in_sigma(i, j, b) {
                    if i > b || (i == b && j > b) {
                        u1 += 1;
                    } else {
                        u0 += 1;
                    }
                }
            }
        }
    }
    let mut v0 = 0u32;
    let mut v1 = 0u32;
    for i in 0..n {
        if spec.in_sigma(i, b, a) {
            if i <= a {
                v0 += 1;
            } else {
                v1 += 1;
            }
        }
    }
    [u0, u1, v0, v1]
}

/// Sentinel: reader count not computed yet.
const UNKNOWN: u32 = u32::MAX;

fn kind_name(kind: u64) -> &'static str {
    match kind {
        U0 => "u0",
        U1 => "u1",
        V0 => "v0",
        _ => "v1",
    }
}

/// Enumerates `Σ ∩ [0,n)³` for diagnostics (assertion messages only —
/// O(n³) membership scan, never on the success path).
fn dump_sigma<S: GepSpec>(spec: &S, n: usize) -> String {
    let sigma: Vec<(usize, usize, usize)> = (0..n)
        .flat_map(|k| (0..n).flat_map(move |i| (0..n).map(move |j| (i, j, k))))
        .filter(|&(i, j, k)| spec.in_sigma(i, j, k))
        .collect();
    format!("Σ ({} triples) = {:?}", sigma.len(), sigma)
}

struct SnapStore<'s, S: GepSpec> {
    spec: &'s S,
    n: usize,
    /// Remaining-reader counts per slot, dense and lazily initialised.
    /// This is *metadata* (4n² u32 counters), not snapshot storage; the
    /// paper's structural scheme encodes the same information in buffer
    /// placement. Index: `kind · n² + a · n + b`.
    counts: Vec<u32>,
    /// Materialised snapshot values — the paper's "intermediate values".
    /// At most ~n²+n entries are ever live (the §2.2.2 claim).
    live: SlotMap<S::Elem>,
    peak: usize,
    saves: u64,
    reads: u64,
    reads_from_cell: u64,
}

impl<S: GepSpec> SnapStore<'_, S> {
    #[inline(always)]
    fn idx(&self, kind: u64, a: usize, b: usize) -> usize {
        kind as usize * self.n * self.n + a * self.n + b
    }

    #[inline]
    fn remaining(&mut self, kind: u64, a: usize, b: usize) -> u32 {
        let i = self.idx(kind, a, b);
        let r = self.counts[i];
        if r != UNKNOWN {
            return r;
        }
        // First touch of any slot of (a, b): compute all four at once
        // (they share the Σ row/column scans).
        let rs = slot_readers(self.spec, self.n, a, b);
        for (k, &v) in rs.iter().enumerate() {
            let j = self.idx(k as u64, a, b);
            if self.counts[j] == UNKNOWN {
                self.counts[j] = v;
            }
        }
        self.counts[i]
    }

    /// Copy-on-destroy: called just before cell `(a, b)` (currently
    /// holding `old`, in the state after `tau_prev`) is overwritten.
    /// Materialises every slot whose captured state is the current one
    /// and that still has pending readers.
    fn on_destroy(&mut self, a: usize, b: usize, old: S::Elem, tau_prev: Option<usize>) {
        for kind in [U0, U1, V0, V1] {
            let limit = slot_limit(kind, a, b);
            if self.spec.tau(self.n, a, b, limit) != tau_prev {
                continue;
            }
            if self.remaining(kind, a, b) == 0 {
                continue;
            }
            self.live.insert(key(kind, a, b), old);
            self.saves += 1;
            self.peak = self.peak.max(self.live.len());
        }
    }

    /// Reads slot `(kind, a, b)`: from a materialised copy, or from the
    /// still-live cell when the state has not been destroyed yet.
    fn consume<St: CellStore<S::Elem> + ?Sized>(
        &mut self,
        c: &mut St,
        kind: u64,
        a: usize,
        b: usize,
    ) -> S::Elem {
        self.reads += 1;
        let k = key(kind, a, b);
        let remaining = self.remaining(kind, a, b);
        debug_assert!(
            remaining > 0,
            "read of slot {}[{a},{b}] with no pending readers — reader \
             accounting disagrees with the engine's actual reads; {}",
            kind_name(kind),
            dump_sigma(self.spec, self.n)
        );
        let val = match self.live.get(&k) {
            Some(&v) => v,
            None => {
                self.reads_from_cell += 1;
                c.read(a, b)
            }
        };
        let r = remaining - 1;
        let i = self.idx(kind, a, b);
        self.counts[i] = r;
        if r == 0 {
            self.live.remove(&k);
        }
        val
    }

    /// Applies one update `⟨i,j,k⟩`, reading `u`, `v`, `w` through the
    /// Figure 3 slots and copying out the state it destroys.
    #[inline]
    fn apply<St: CellStore<S::Elem> + ?Sized>(&mut self, c: &mut St, i: usize, j: usize, k: usize) {
        let x = c.read(i, j);
        let u = self.consume(c, if j > k { U1 } else { U0 }, i, k);
        let v = self.consume(c, if i > k { V1 } else { V0 }, k, j);
        let w = self.consume(c, if i > k || (i == k && j > k) { U1 } else { U0 }, k, k);
        let nv = self.spec.update(i, j, k, x, u, v, w);
        // This write destroys the state "after tau(i, j, k-1)" of (i, j);
        // copy it out for any slot that still needs it.
        let tau_prev = self.spec.tau(self.n, i, j, k as i64 - 1);
        self.on_destroy(i, j, x, tau_prev);
        c.write(i, j, nv);
    }
}

/// Runs reduced-space C-GEP on `c`; equivalent to [`crate::cgep_full`]
/// (and hence to iterative GEP) for every spec, while keeping only the
/// minimal live snapshot set instead of four full matrices.
///
/// Returns space/bookkeeping statistics.
///
/// # Panics
/// Panics unless `c` is square with a side that halves exactly down to
/// leaves of side `<= base_size` ([`gep_matrix::halves_to_leaf`]).
pub fn cgep_reduced<S, St>(spec: &S, c: &mut St, base_size: usize) -> ReducedSpaceStats
where
    S: GepSpec,
    St: CellStore<S::Elem> + ?Sized,
{
    let n = c.n();
    if n == 0 {
        // Σ ⊆ [0,0)³ is empty: nothing to do, nothing ever live.
        return ReducedSpaceStats::default();
    }
    assert!(
        halves_to_leaf(n, base_size),
        "C-GEP needs side = leaf·power-of-two with leaf <= base"
    );
    let mut snaps = SnapStore {
        spec,
        n,
        counts: vec![UNKNOWN; 4 * n * n],
        live: SlotMap::default(),
        peak: 0,
        saves: 0,
        reads: 0,
        reads_from_cell: 0,
    };
    let (mut leaves, mut updates) = (0, 0);
    let calls = walk_leaves(spec, Cube::root(n), base_size, &mut |leaf| {
        leaves += 1;
        updates += for_each_in_leaf(spec, leaf, |i, j, k| snaps.apply(c, i, j, k));
        ControlFlow::Continue(())
    });
    gep_obs::counter_add("cgep_reduced.calls", calls);
    gep_obs::counter_add("cgep_reduced.base_cases", leaves);
    gep_obs::counter_add("cgep_reduced.updates", updates);
    debug_assert!(
        snaps.live.is_empty(),
        "snapshots left live after the run ({:?}): reader accounting \
         incomplete; {}",
        snaps
            .live
            .keys()
            .map(|&k| {
                (
                    kind_name(k >> 60),
                    (k >> 30) as usize & 0x3FFF_FFFF,
                    k as usize & 0x3FFF_FFFF,
                )
            })
            .collect::<Vec<_>>(),
        dump_sigma(spec, n)
    );
    debug_assert!(
        snaps.peak <= n * n + n,
        "peak live snapshots {} exceeds the paper's §2.2.2 bound n²+n = {}; {}",
        snaps.peak,
        n * n + n,
        dump_sigma(spec, n)
    );
    if gep_obs::enabled() {
        gep_obs::counter_add("cgep_reduced.saves", snaps.saves);
        gep_obs::counter_add("cgep_reduced.snapshot_reads", snaps.reads);
        gep_obs::counter_add("cgep_reduced.reads_from_cell", snaps.reads_from_cell);
        gep_obs::gauge_set("cgep_reduced.peak_live_snapshots", snaps.peak as f64);
    }
    ReducedSpaceStats {
        peak_live_snapshots: snaps.peak,
        saves: snaps.saves,
        reads: snaps.reads,
        reads_from_cell: snaps.reads_from_cell,
        claimed_bound: n * n + n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::gep_iterative;
    use crate::spec::{ClosureSpec, ExplicitSet, SumSpec};
    use gep_matrix::Matrix;

    #[test]
    fn counterexample_fixed_by_reduced_cgep() {
        let init = Matrix::from_rows(&[vec![0i64, 0], vec![0, 1]]);
        let mut h = init.clone();
        let mut g = init.clone();
        cgep_reduced(&SumSpec, &mut h, 1);
        gep_iterative(&SumSpec, &mut g);
        assert_eq!(h, g);
        assert_eq!(h[(1, 0)], 2);
    }

    #[test]
    fn reduced_equals_full_on_sum_spec() {
        for n in [2usize, 4, 8, 16] {
            let init = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 5) % 11) as i64 - 5);
            let mut r = init.clone();
            let mut g = init.clone();
            let stats = cgep_reduced(&SumSpec, &mut r, 1);
            gep_iterative(&SumSpec, &mut g);
            assert_eq!(r, g, "n={n}");
            assert!(stats.reads > 0);
        }
    }

    #[test]
    fn exhaustive_all_sigma_n2() {
        let all: Vec<(usize, usize, usize)> = (0..2)
            .flat_map(|i| (0..2).flat_map(move |j| (0..2).map(move |k| (i, j, k))))
            .collect();
        for mask in 0u32..256 {
            let sigma = ExplicitSet::from_iter(
                all.iter()
                    .enumerate()
                    .filter(|(b, _)| mask & (1 << b) != 0)
                    .map(|(_, &t)| t),
            );
            let spec = ClosureSpec::new(
                |i, j, k, x: i64, u, v, w| {
                    x.wrapping_mul(3)
                        .wrapping_add(u.wrapping_mul(5))
                        .wrapping_sub(v.wrapping_mul(7))
                        .wrapping_add(w.wrapping_mul(11))
                        .wrapping_add((i + 2 * j + 4 * k) as i64)
                },
                sigma,
            );
            let init = Matrix::from_rows(&[vec![1i64, 2], vec![3, 4]]);
            let mut h = init.clone();
            let mut g = init.clone();
            let stats = cgep_reduced(&spec, &mut h, 1);
            gep_iterative(&spec, &mut g);
            assert_eq!(h, g, "mask={mask:#b}");
            assert!(
                stats.peak_live_snapshots <= stats.claimed_bound,
                "mask={mask:#b}: {} > {}",
                stats.peak_live_snapshots,
                stats.claimed_bound
            );
        }
    }

    #[test]
    fn random_sigma_matches_g_and_respects_bound() {
        let mut state = 0xDEADBEEFu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [4usize, 8] {
            for trial in 0..25 {
                let mut triples = vec![];
                for i in 0..n {
                    for j in 0..n {
                        for k in 0..n {
                            if rng() % 4 == 0 {
                                triples.push((i, j, k));
                            }
                        }
                    }
                }
                let spec = ClosureSpec::new(
                    |i, j, k, x: i64, u, v, w| {
                        x.wrapping_add(u.wrapping_mul(2))
                            .wrapping_add(v.wrapping_mul(3))
                            .wrapping_sub(w)
                            .wrapping_add((i * 2 + j * 3 + k * 5) as i64)
                    },
                    ExplicitSet::from_iter(triples),
                );
                let init = Matrix::from_fn(n, n, |i, j| (i * n + j) as i64 + 1);
                let mut h = init.clone();
                let mut g = init.clone();
                let stats = cgep_reduced(&spec, &mut h, 1);
                gep_iterative(&spec, &mut g);
                assert_eq!(h, g, "n={n} trial={trial}");
                assert!(
                    stats.peak_live_snapshots <= stats.claimed_bound,
                    "n={n} trial={trial}: {} > {}",
                    stats.peak_live_snapshots,
                    stats.claimed_bound
                );
            }
        }
    }

    #[test]
    fn peak_live_within_paper_bound_on_full_sigma() {
        // The paper claims the reduced variant needs <= n² + n extra cells.
        for n in [4usize, 8, 16, 32] {
            let init = Matrix::from_fn(n, n, |i, j| ((i + 2 * j) % 9) as i64);
            let mut c = init.clone();
            let stats = cgep_reduced(&SumSpec, &mut c, 1);
            assert!(
                stats.peak_live_snapshots <= stats.claimed_bound,
                "n={n}: peak {} exceeds claimed n²+n = {}",
                stats.peak_live_snapshots,
                stats.claimed_bound
            );
        }
    }

    #[test]
    fn base_size_invariant() {
        let n = 16;
        let init = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 13) as i64 - 6);
        let mut reference = init.clone();
        cgep_reduced(&SumSpec, &mut reference, 1);
        for base in [2usize, 4, 8, 16] {
            let mut c = init.clone();
            cgep_reduced(&SumSpec, &mut c, base);
            assert_eq!(c, reference, "base={base}");
        }
    }

    #[test]
    fn stats_counts_are_consistent() {
        let n = 8;
        let mut c = Matrix::from_fn(n, n, |i, j| (i + j) as i64);
        let stats = cgep_reduced(&SumSpec, &mut c, 1);
        // Every update performs exactly 3 snapshot-slot reads (u, v, w).
        assert_eq!(stats.reads, (n * n * n * 3) as u64);
        assert!(stats.saves > 0);
        assert!(stats.reads_from_cell > 0, "some reads hit the live cell");
    }
}
