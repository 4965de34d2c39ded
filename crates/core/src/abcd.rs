//! The Figure 6 decomposition of I-GEP: function family `A / B / C / D`.
//!
//! I-GEP's recursion invokes four distinct *kinds* of subproblem,
//! distinguished by how the output block `X = c[I, J]`, the row panel
//! `U = c[I, K]`, the column panel `V = c[K, J]` and the pivot block
//! `W = c[K, K]` overlap:
//!
//! | kind | precondition (Fig. 13) | overlap |
//! |------|------------------------|---------|
//! | `A`  | `I = J = K`            | all four coincide |
//! | `B`  | `I = K`, `J ∩ K = ∅`   | `X ≡ V`, `U ≡ W` |
//! | `C`  | `J = K`, `I ∩ K = ∅`   | `X ≡ U`, `V ≡ W` |
//! | `D`  | `I ∩ K = J ∩ K = ∅`    | none |
//!
//! Less overlap means fewer ordering constraints and therefore more
//! parallelism: `D` runs all four quadrant calls of each half concurrently,
//! `B`/`C` run pairs, `A` is mostly sequential. Because `U`, `V`, `W` are
//! always determined by `(I, J, K)`, a subproblem is fully described by the
//! tuple `(xr, xc, kk, s)` — the row origin, column origin, `k`-origin and
//! side — over a single shared matrix handle [`GepMat`].
//!
//! The engine is generic over a [`Joiner`], so the *same* code is the
//! optimised sequential I-GEP of Section 4.2 (with [`Serial`]) and the
//! multithreaded I-GEP of Section 3 (with `gep-parallel`'s rayon joiner).
//!
//! The paper's Fig. 5 distinguishes `B₁/B₂`, `C₁/C₂`, `D₁..D₄` by which
//! pass they arise in; their *bodies* are identical, so the subscripts are
//! not represented at runtime (they matter only for the span analysis in
//! `gep-parallel::span`).

use crate::gepmat::GepMat;
use crate::joiner::{Joiner, Serial};
use crate::spec::{BoxShape, GepSpec};
use gep_matrix::{halves_to_leaf, Matrix};

/// Optimised sequential I-GEP (Section 4.2): the A/B/C/D recursion with an
/// iterative base-case kernel of side `base_size`, executed serially.
///
/// Produces the same result as [`crate::igep`] for every spec on which
/// I-GEP is exact.
///
/// The side must halve exactly down to leaves of side `<= base_size`
/// ([`gep_matrix::halves_to_leaf`]): a power of two, or a
/// [`gep_matrix::fit_side`] for the same `base_size`.
///
/// # Panics
/// Panics unless `c` is square with such a side and `1 <= base_size`.
pub fn igep_opt<S>(spec: &S, c: &mut Matrix<S::Elem>, base_size: usize)
where
    S: GepSpec + Sync,
{
    igep_abcd(&Serial, spec, c, base_size);
}

/// The A/B/C/D engine with an explicit joiner (used by `gep-parallel`).
///
/// # Panics
/// Panics unless `c` is square with a side that halves exactly down to
/// leaves of side `<= base_size`, and `1 <= base_size`.
pub fn igep_abcd<S, J>(joiner: &J, spec: &S, c: &mut Matrix<S::Elem>, base_size: usize)
where
    S: GepSpec + Sync,
    J: Joiner,
{
    let n = c.n();
    if n == 0 {
        return; // Σ ⊆ [0,0)³ is empty — match gep_iterative's no-op.
    }
    assert!(base_size >= 1);
    assert!(
        halves_to_leaf(n, base_size),
        "I-GEP needs side = leaf·power-of-two with leaf <= base"
    );
    let m = GepMat::new(c);
    // SAFETY: `m` exclusively borrows `c`; `fn_a` upholds the Figure 6
    // disjoint-writes discipline (see `gepmat` module docs).
    unsafe { fn_a(joiner, spec, m, 0, 0, 0, n, base_size) }
}

/// Generic iterative base-case kernel: iterative GEP restricted to the box
/// `i ∈ [xr, xr+s) × j ∈ [xc, xc+s) × k ∈ [kk, kk+s)`, with the `u`/`w`
/// reads hoisted out of the inner loop (and refreshed at the aliasing
/// points `j == k` / `i == j == k`, so semantics match Figure 1 exactly).
///
/// # Safety
/// The caller must guarantee exclusive access to every cell the kernel
/// touches: the box itself plus the panels `c[xr.., kk..]`, `c[kk.., xc..]`
/// and `c[kk.., kk..]` (shared reads among concurrent kernels are allowed
/// only for cells none of them writes).
pub unsafe fn generic_kernel<S>(
    spec: &S,
    m: GepMat<'_, S::Elem>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
) where
    S: GepSpec,
{
    for k in kk..kk + s {
        let mut w = m.get(k, k);
        for i in xr..xr + s {
            let mut u = m.get(i, k);
            for j in xc..xc + s {
                if spec.in_sigma(i, j, k) {
                    let x = m.get(i, j);
                    let v = m.get(k, j);
                    let nv = spec.update(i, j, k, x, u, v, w);
                    m.set(i, j, nv);
                    if j == k {
                        u = nv;
                        if i == k {
                            w = nv;
                        }
                    }
                }
            }
        }
    }
}

#[inline]
fn pruned<S: GepSpec>(spec: &S, xr: usize, xc: usize, kk: usize, s: usize) -> bool {
    !spec.sigma_intersects((xr, xr + s - 1), (xc, xc + s - 1), (kk, kk + s - 1))
}

/// Observability accounting for one base-case kernel invocation, gated
/// on [`gep_obs::enabled`] ([`GepSpec::sigma_count`] may scan the box).
#[inline]
fn record_base_case<S: GepSpec>(spec: &S, xr: usize, xc: usize, kk: usize, s: usize) {
    if gep_obs::enabled() {
        gep_obs::counter_add("abcd.base_cases", 1);
        gep_obs::counter_add(
            "abcd.updates",
            spec.sigma_count((xr, xr + s - 1), (xc, xc + s - 1), (kk, kk + s - 1)),
        );
    }
}

/// Executes one base-case kernel, timing it into the `kernel.leaf_ns`
/// histogram plus a per-shape one (`kernel.leaf.{a,b,c,d}_ns`) when a
/// recorder is installed. The disabled path takes no clock readings at
/// all — just the one relaxed load of [`gep_obs::enabled`].
///
/// # Safety
/// Same contract as [`GepSpec::kernel_shaped`] / [`generic_kernel`].
#[inline]
unsafe fn leaf_kernel<S: GepSpec>(
    spec: &S,
    m: GepMat<'_, S::Elem>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    shape: BoxShape,
) {
    if !gep_obs::enabled() {
        spec.kernel_shaped(m, xr, xc, kk, s, shape);
        return;
    }
    record_base_case(spec, xr, xc, kk, s);
    let start = std::time::Instant::now();
    spec.kernel_shaped(m, xr, xc, kk, s, shape);
    let ns = start.elapsed().as_nanos() as u64;
    gep_obs::hist_record("kernel.leaf_ns", ns);
    let per_shape = match shape {
        BoxShape::Diagonal => "kernel.leaf.a_ns",
        BoxShape::RowPanel => "kernel.leaf.b_ns",
        BoxShape::ColPanel => "kernel.leaf.c_ns",
        BoxShape::Disjoint => "kernel.leaf.d_ns",
    };
    gep_obs::hist_record(per_shape, ns);
}

/// `A` — all of `X`, `U`, `V`, `W` coincide (`xr == xc == kk`).
///
/// # Safety
/// Caller guarantees exclusive access to the subsquare at `(xr, xc)` of
/// side `s` (which here covers the panels too).
#[allow(clippy::too_many_arguments)]
pub unsafe fn fn_a<S, J>(
    joiner: &J,
    spec: &S,
    m: GepMat<'_, S::Elem>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    base: usize,
) where
    S: GepSpec + Sync,
    J: Joiner,
{
    debug_assert!(xr == kk && xc == kk);
    if pruned(spec, xr, xc, kk, s) {
        return;
    }
    gep_obs::counter_add("abcd.a.calls", 1);
    let _span = gep_obs::span("A", "abcd")
        .arg("xr", xr as i64)
        .arg("xc", xc as i64)
        .arg("kk", kk as i64)
        .arg("s", s as i64);
    if s <= base {
        leaf_kernel(spec, m, xr, xc, kk, s, BoxShape::Diagonal);
        return;
    }
    let h = s / 2;
    // Forward pass (k in first half).
    fn_a(joiner, spec, m, xr, xc, kk, h, base);
    joiner.join(
        // SAFETY: B writes X12 (rows xr.., cols xc+h..) and C writes X21
        // (rows xr+h.., cols xc..): disjoint; both only read X11/W11,
        // which neither writes.
        || fn_b(joiner, spec, m, xr, xc + h, kk, h, base),
        || fn_c(joiner, spec, m, xr + h, xc, kk, h, base),
    );
    fn_d(joiner, spec, m, xr + h, xc + h, kk, h, base);
    // Backward pass (k in second half).
    fn_a(joiner, spec, m, xr + h, xc + h, kk + h, h, base);
    joiner.join(
        || fn_b(joiner, spec, m, xr + h, xc, kk + h, h, base),
        || fn_c(joiner, spec, m, xr, xc + h, kk + h, h, base),
    );
    fn_d(joiner, spec, m, xr, xc, kk + h, h, base);
}

/// `B` — `I = K` (row range equals pivot range), `J` disjoint: `X ≡ V`,
/// `U ≡ W`.
///
/// # Safety
/// As [`fn_a`]; caller guarantees exclusivity of `X` and read-stability of
/// the pivot block.
#[allow(clippy::too_many_arguments)]
pub unsafe fn fn_b<S, J>(
    joiner: &J,
    spec: &S,
    m: GepMat<'_, S::Elem>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    base: usize,
) where
    S: GepSpec + Sync,
    J: Joiner,
{
    debug_assert!(xr == kk);
    if pruned(spec, xr, xc, kk, s) {
        return;
    }
    gep_obs::counter_add("abcd.b.calls", 1);
    let _span = gep_obs::span("B", "abcd")
        .arg("xr", xr as i64)
        .arg("xc", xc as i64)
        .arg("kk", kk as i64)
        .arg("s", s as i64);
    if s <= base {
        leaf_kernel(spec, m, xr, xc, kk, s, BoxShape::RowPanel);
        return;
    }
    let h = s / 2;
    // Forward: the two B-children write X11, X12 (disjoint columns) and
    // read only the pivot block U11 = W11 outside X.
    joiner.join(
        || fn_b(joiner, spec, m, xr, xc, kk, h, base),
        || fn_b(joiner, spec, m, xr, xc + h, kk, h, base),
    );
    // The D-children write X21, X22 and read V11 = X11 / V12 = X12
    // (finished above) and U21 = c[rows xr+h.., cols kk..kk+h] = W21
    // region outside X.
    joiner.join(
        || fn_d(joiner, spec, m, xr + h, xc, kk, h, base),
        || fn_d(joiner, spec, m, xr + h, xc + h, kk, h, base),
    );
    // Backward: k in second half; bottom row of quadrants first.
    joiner.join(
        || fn_b(joiner, spec, m, xr + h, xc, kk + h, h, base),
        || fn_b(joiner, spec, m, xr + h, xc + h, kk + h, h, base),
    );
    joiner.join(
        || fn_d(joiner, spec, m, xr, xc, kk + h, h, base),
        || fn_d(joiner, spec, m, xr, xc + h, kk + h, h, base),
    );
}

/// `C` — `J = K` (column range equals pivot range), `I` disjoint:
/// `X ≡ U`, `V ≡ W`.
///
/// # Safety
/// As [`fn_b`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn fn_c<S, J>(
    joiner: &J,
    spec: &S,
    m: GepMat<'_, S::Elem>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    base: usize,
) where
    S: GepSpec + Sync,
    J: Joiner,
{
    debug_assert!(xc == kk);
    if pruned(spec, xr, xc, kk, s) {
        return;
    }
    gep_obs::counter_add("abcd.c.calls", 1);
    let _span = gep_obs::span("C", "abcd")
        .arg("xr", xr as i64)
        .arg("xc", xc as i64)
        .arg("kk", kk as i64)
        .arg("s", s as i64);
    if s <= base {
        leaf_kernel(spec, m, xr, xc, kk, s, BoxShape::ColPanel);
        return;
    }
    let h = s / 2;
    joiner.join(
        || fn_c(joiner, spec, m, xr, xc, kk, h, base),
        || fn_c(joiner, spec, m, xr + h, xc, kk, h, base),
    );
    joiner.join(
        || fn_d(joiner, spec, m, xr, xc + h, kk, h, base),
        || fn_d(joiner, spec, m, xr + h, xc + h, kk, h, base),
    );
    joiner.join(
        || fn_c(joiner, spec, m, xr, xc + h, kk + h, h, base),
        || fn_c(joiner, spec, m, xr + h, xc + h, kk + h, h, base),
    );
    joiner.join(
        || fn_d(joiner, spec, m, xr, xc, kk + h, h, base),
        || fn_d(joiner, spec, m, xr + h, xc, kk + h, h, base),
    );
}

/// `D` — `I` and `J` both disjoint from `K`: `X`, `U`, `V`, `W` pairwise
/// non-overlapping, so all four quadrant calls of each `k`-half run
/// concurrently.
///
/// # Safety
/// As [`fn_b`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn fn_d<S, J>(
    joiner: &J,
    spec: &S,
    m: GepMat<'_, S::Elem>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    base: usize,
) where
    S: GepSpec + Sync,
    J: Joiner,
{
    if pruned(spec, xr, xc, kk, s) {
        return;
    }
    gep_obs::counter_add("abcd.d.calls", 1);
    let _span = gep_obs::span("D", "abcd")
        .arg("xr", xr as i64)
        .arg("xc", xc as i64)
        .arg("kk", kk as i64)
        .arg("s", s as i64);
    if s <= base {
        leaf_kernel(spec, m, xr, xc, kk, s, BoxShape::Disjoint);
        return;
    }
    let h = s / 2;
    // All four children write disjoint X-quadrants and read panels outside
    // X entirely.
    joiner.join4(
        || fn_d(joiner, spec, m, xr, xc, kk, h, base),
        || fn_d(joiner, spec, m, xr, xc + h, kk, h, base),
        || fn_d(joiner, spec, m, xr + h, xc, kk, h, base),
        || fn_d(joiner, spec, m, xr + h, xc + h, kk, h, base),
    );
    joiner.join4(
        || fn_d(joiner, spec, m, xr, xc, kk + h, h, base),
        || fn_d(joiner, spec, m, xr, xc + h, kk + h, h, base),
        || fn_d(joiner, spec, m, xr + h, xc, kk + h, h, base),
        || fn_d(joiner, spec, m, xr + h, xc + h, kk + h, h, base),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::igep::igep;
    use crate::iterative::gep_iterative;

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

    fn random_dist(n: usize, seed: u64) -> Matrix<i64> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0
            } else {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 100) as i64 + 1
            }
        })
    }

    #[test]
    fn abcd_matches_g_and_igep_on_min_plus() {
        for n in [1usize, 2, 4, 8, 16, 32] {
            let init = random_dist(n, 42 + n as u64);
            let mut g = init.clone();
            let mut f = init.clone();
            let mut opt = init.clone();
            gep_iterative(&MinPlus, &mut g);
            igep(&MinPlus, &mut f, 1);
            igep_opt(&MinPlus, &mut opt, 1);
            assert_eq!(g, f, "n={n}");
            assert_eq!(g, opt, "n={n}");
        }
    }

    #[test]
    fn abcd_base_size_invariant() {
        let n = 32;
        let init = random_dist(n, 7);
        let mut reference = init.clone();
        gep_iterative(&MinPlus, &mut reference);
        for base in [1usize, 2, 4, 8, 16, 32] {
            let mut c = init.clone();
            igep_opt(&MinPlus, &mut c, base);
            assert_eq!(c, reference, "base={base}");
        }
    }

    /// Gaussian-elimination-shaped spec (Σ = {i > k ∧ j > k}) exercises
    /// the pruning paths of all four function kinds.
    struct GeSpec;
    impl GepSpec for GeSpec {
        type Elem = f64;
        fn update(&self, _: usize, _: usize, _: usize, x: f64, u: f64, v: f64, w: f64) -> f64 {
            x - (u / w) * v
        }
        fn in_sigma(&self, i: usize, j: usize, k: usize) -> bool {
            i > k && j > k
        }
        fn sigma_intersects(
            &self,
            ib: (usize, usize),
            jb: (usize, usize),
            kb: (usize, usize),
        ) -> bool {
            // Exists i > k, j > k within the boxes.
            ib.1 > kb.0 && jb.1 > kb.0
        }
    }

    /// Symbolic replay of the recursion, checking the Figure 5 dispatch
    /// table: the function kind of every child call (determined by the
    /// Figure 13 preconditions on its coordinates) must be the kind the
    /// parent's body invokes.
    #[test]
    fn figure5_dispatch_table_holds() {
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        enum Kind {
            A,
            B,
            C,
            D,
        }
        fn classify(xr: usize, xc: usize, kk: usize) -> Kind {
            match (xr == kk, xc == kk) {
                (true, true) => Kind::A,
                (true, false) => Kind::B,
                (false, true) => Kind::C,
                (false, false) => Kind::D,
            }
        }
        // (child kind per Figure 5, row = parent kind), forward then
        // backward pass, in our bodies' call order.
        fn walk(kind: Kind, xr: usize, xc: usize, kk: usize, s: usize) {
            assert_eq!(
                classify(xr, xc, kk),
                kind,
                "precondition at ({xr},{xc},{kk})"
            );
            if s == 1 {
                return;
            }
            let h = s / 2;
            let children: Vec<(Kind, usize, usize, usize)> = match kind {
                Kind::A => vec![
                    (Kind::A, xr, xc, kk),
                    (Kind::B, xr, xc + h, kk),
                    (Kind::C, xr + h, xc, kk),
                    (Kind::D, xr + h, xc + h, kk),
                    (Kind::A, xr + h, xc + h, kk + h),
                    (Kind::B, xr + h, xc, kk + h),
                    (Kind::C, xr, xc + h, kk + h),
                    (Kind::D, xr, xc, kk + h),
                ],
                Kind::B => vec![
                    (Kind::B, xr, xc, kk),
                    (Kind::B, xr, xc + h, kk),
                    (Kind::D, xr + h, xc, kk),
                    (Kind::D, xr + h, xc + h, kk),
                    (Kind::B, xr + h, xc, kk + h),
                    (Kind::B, xr + h, xc + h, kk + h),
                    (Kind::D, xr, xc, kk + h),
                    (Kind::D, xr, xc + h, kk + h),
                ],
                Kind::C => vec![
                    (Kind::C, xr, xc, kk),
                    (Kind::C, xr + h, xc, kk),
                    (Kind::D, xr, xc + h, kk),
                    (Kind::D, xr + h, xc + h, kk),
                    (Kind::C, xr, xc + h, kk + h),
                    (Kind::C, xr + h, xc + h, kk + h),
                    (Kind::D, xr, xc, kk + h),
                    (Kind::D, xr + h, xc, kk + h),
                ],
                Kind::D => vec![
                    (Kind::D, xr, xc, kk),
                    (Kind::D, xr, xc + h, kk),
                    (Kind::D, xr + h, xc, kk),
                    (Kind::D, xr + h, xc + h, kk),
                    (Kind::D, xr, xc, kk + h),
                    (Kind::D, xr, xc + h, kk + h),
                    (Kind::D, xr + h, xc, kk + h),
                    (Kind::D, xr + h, xc + h, kk + h),
                ],
            };
            for (k, r, c, kx) in children {
                walk(k, r, c, kx, h);
            }
        }
        walk(Kind::A, 0, 0, 0, 32);
    }

    /// Every base case lands one sample in `kernel.leaf_ns` and exactly
    /// one of the per-shape histograms. The recorder is scoped to this
    /// solve, so sibling tests running engines at the same time cannot
    /// add to its counts.
    #[test]
    fn leaf_latency_histograms_cover_every_base_case() {
        let mut c = random_dist(16, 3);
        let ((), rec) = gep_obs::record(gep_obs::Recorder::counters_only(), || {
            igep_opt(&MinPlus, &mut c, 2)
        });
        let base_cases = rec.counter("abcd.base_cases");
        assert_eq!(base_cases, 512); // 8^3 leaves for n=16, base=2
        let h = rec.hist("kernel.leaf_ns").expect("leaf histogram present");
        assert_eq!(h.count(), base_cases);
        let per_shape: u64 = ["a", "b", "c", "d"]
            .iter()
            .map(|s| {
                rec.hist(&format!("kernel.leaf.{s}_ns"))
                    .map_or(0, |h| h.count())
            })
            .sum();
        assert_eq!(per_shape, base_cases);
    }

    #[test]
    fn abcd_matches_g_on_gaussian_elimination() {
        for n in [4usize, 8, 16] {
            // Diagonally dominant => no pivoting needed.
            let init = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    n as f64 * 10.0
                } else {
                    ((i * 13 + j * 7) % 10) as f64 / 10.0 + 0.1
                }
            });
            let mut g = init.clone();
            let mut opt = init.clone();
            gep_iterative(&GeSpec, &mut g);
            igep_opt(&GeSpec, &mut opt, 2);
            assert!(g.approx_eq(&opt, 1e-9), "n={n}");
        }
    }

    /// Sides `leaf·2^q` (leaf <= base) run the same recursion down to
    /// leaves of the leaf side, bit-identical to G.
    #[test]
    fn abcd_matches_g_on_fitted_sides() {
        for (n, base) in [(160usize, 32usize), (40, 8), (24, 8), (12, 4)] {
            let init = random_dist(n, 5 + n as u64);
            let mut g = init.clone();
            let mut opt = init.clone();
            gep_iterative(&MinPlus, &mut g);
            igep_opt(&MinPlus, &mut opt, base);
            assert_eq!(g, opt, "min-plus n={n} base={base}");
            let init = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    n as f64 * 10.0
                } else {
                    ((i * 13 + j * 7) % 10) as f64 / 10.0 + 0.1
                }
            });
            let mut g = init.clone();
            let mut opt = init.clone();
            gep_iterative(&GeSpec, &mut g);
            igep_opt(&GeSpec, &mut opt, base);
            assert_eq!(g, opt, "ge n={n} base={base}");
        }
    }

    /// Empty Σ: the engine returns right after checking the side.
    struct NoSigma;
    impl GepSpec for NoSigma {
        type Elem = i64;
        fn update(&self, _: usize, _: usize, _: usize, x: i64, _: i64, _: i64, _: i64) -> i64 {
            x
        }
        fn in_sigma(&self, _: usize, _: usize, _: usize) -> bool {
            false
        }
        fn sigma_intersects(
            &self,
            _: (usize, usize),
            _: (usize, usize),
            _: (usize, usize),
        ) -> bool {
            false
        }
    }

    #[test]
    fn accepts_sides_that_halve_to_a_leaf() {
        igep_opt(&NoSigma, &mut Matrix::square(1536, 0), 64); // 48·32
        igep_opt(&NoSigma, &mut Matrix::square(160, 0), 32); // 20·8
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_side_that_does_not_halve_to_a_leaf() {
        igep_opt(&NoSigma, &mut Matrix::square(1500, 0), 64);
    }
}
