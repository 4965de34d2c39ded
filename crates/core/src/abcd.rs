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
//! always determined by `(I, J, K)`, a subproblem is fully described by
//! its [`Cube`], and its kind is [`BoxShape::classify`] of the cube's
//! origin.
//!
//! There is one tree, `fig6_tree`, generic over a [`Joiner`] and over its
//! leaf body. With [`Serial`] it is the optimised sequential I-GEP of
//! Section 4.2, with `gep-parallel`'s rayon joiner the multithreaded I-GEP
//! of Section 3. [`igep_abcd`] runs the I-GEP base-case kernels at its
//! leaves; [`crate::cgep::cgep_abcd`] runs C-GEP's snapshot leaf there
//! (§3: "a similar parallel algorithm with the same parallel time bound
//! applies to C-GEP").
//!
//! The paper's Fig. 5 distinguishes `B₁/B₂`, `C₁/C₂`, `D₁..D₄` by which
//! pass they arise in; their *bodies* are identical, so the subscripts are
//! not represented at runtime (they matter only for the span analysis in
//! `gep-parallel::span`).

use crate::gepmat::GepMat;
use crate::joiner::{Joiner, Serial};
use crate::spec::{BoxShape, GepSpec};
use crate::walk::Cube;
use gep_matrix::{halves_to_leaf, Matrix};

/// Optimised sequential I-GEP (Section 4.2): the A/B/C/D recursion with an
/// iterative base-case kernel of side `base_size`, executed serially.
///
/// Produces the same result as [`crate::igep()`] for every spec on which
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
    let m = GepMat::new(c);
    // SAFETY: `m` exclusively borrows `c`, and a base-case kernel writes
    // only its box and reads only the box's panels (`GepSpec::kernel`).
    unsafe {
        fig6_tree(joiner, spec, n, base_size, &|b: Cube, shape| {
            leaf_kernel(spec, m, b, shape)
        })
    }
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

/// Observability accounting for one base-case kernel invocation, gated
/// on [`gep_obs::enabled`] ([`GepSpec::sigma_count`] may scan the box).
#[inline]
fn record_base_case<S: GepSpec>(spec: &S, b: Cube) {
    if gep_obs::enabled() {
        let (i, j, k) = b.ranges();
        gep_obs::counter_add("abcd.base_cases", 1);
        gep_obs::counter_add("abcd.updates", spec.sigma_count(i, j, k));
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
unsafe fn leaf_kernel<S: GepSpec>(spec: &S, m: GepMat<'_, S::Elem>, b: Cube, shape: BoxShape) {
    let Cube { i0, j0, k0, s } = b;
    if !gep_obs::enabled() {
        spec.kernel_shaped(m, i0, j0, k0, s, shape);
        return;
    }
    record_base_case(spec, b);
    let start = std::time::Instant::now();
    spec.kernel_shaped(m, i0, j0, k0, s, shape);
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

/// Runs the Figure 6 tree over `[0, n)³`, calling `leaf(box, shape)` on
/// every non-pruned box of side `<= base`, where `shape` is the box's
/// kind ([`BoxShape::classify`]). The calls of one `parallel:` block of
/// Figure 6 go to `joiner` together; everything else runs in order.
///
/// # Panics
/// Panics unless `n` is zero (nothing runs) or halves exactly down to
/// leaves of side `<= base` ([`gep_matrix::halves_to_leaf`]), and
/// `base >= 1`.
///
/// # Safety
/// A leaf must write only cells of its box's `X = c[I, J]`, plus
/// per-cell state kept beside them (such as C-GEP's snapshots of the same
/// `(i, j)`), and read only `X`, `U = c[I, K]`, `V = c[K, J]` and
/// `W = c[K, K]`. Figure 6's grouping then gives the calls of each
/// parallel block pairwise disjoint writes that no other call of the
/// block reads (`gepmat` module docs), so a leaf body over shared raw
/// storage is race-free under any joiner.
pub(crate) unsafe fn fig6_tree<S, J, L>(joiner: &J, spec: &S, n: usize, base: usize, leaf: &L)
where
    S: GepSpec + Sync,
    J: Joiner,
    L: Fn(Cube, BoxShape) + Sync,
{
    if n == 0 {
        return; // Σ ⊆ [0,0)³ is empty — match gep_iterative's no-op.
    }
    assert!(base >= 1);
    assert!(
        halves_to_leaf(n, base),
        "the Figure 6 tree needs side = leaf·power-of-two with leaf <= base"
    );
    node(
        &Tree {
            joiner,
            spec,
            base,
            leaf,
        },
        Cube::root(n),
    );
}

/// What every node of one [`fig6_tree`] run shares.
struct Tree<'a, S, J, L> {
    joiner: &'a J,
    spec: &'a S,
    base: usize,
    leaf: &'a L,
}

/// One call of `A`, `B`, `C` or `D` on box `b`; its kind is
/// `BoxShape::classify` of `b`'s origin.
///
/// # Safety
/// As [`fig6_tree`].
unsafe fn node<S, J, L>(t: &Tree<'_, S, J, L>, b: Cube)
where
    S: GepSpec + Sync,
    J: Joiner,
    L: Fn(Cube, BoxShape) + Sync,
{
    let (i, j, k) = b.ranges();
    if !t.spec.sigma_intersects(i, j, k) {
        return;
    }
    let shape = BoxShape::classify(b.i0, b.j0, b.k0);
    let (calls, name) = match shape {
        BoxShape::Diagonal => ("abcd.a.calls", "A"),
        BoxShape::RowPanel => ("abcd.b.calls", "B"),
        BoxShape::ColPanel => ("abcd.c.calls", "C"),
        BoxShape::Disjoint => ("abcd.d.calls", "D"),
    };
    gep_obs::counter_add(calls, 1);
    let _span = gep_obs::span(name, "abcd")
        .arg("xr", b.i0 as i64)
        .arg("xc", b.j0 as i64)
        .arg("kk", b.k0 as i64)
        .arg("s", b.s as i64);
    if b.s <= t.base {
        (t.leaf)(b, shape);
        return;
    }
    let h = b.s / 2;
    // The child with quadrant offsets `(di, dj, dk)` in half-sides.
    let q = |di: usize, dj: usize, dk: usize| Cube {
        i0: b.i0 + di * h,
        j0: b.j0 + dj * h,
        k0: b.k0 + dk * h,
        s: h,
    };
    // SAFETY (every child call): the children of one join write disjoint
    // quadrants of `X` and read only cells none of them writes (the
    // comment on each group says which), so `fig6_tree`'s contract holds
    // for each of them.
    let go = |c: Cube| node(t, c);
    let join = |a: Cube, c: Cube| {
        t.joiner.join(|| go(a), || go(c));
    };
    match shape {
        BoxShape::Diagonal => {
            // Forward pass (k in first half). B writes X12 and C writes
            // X21: disjoint; both only read X11/W11, which neither writes.
            go(q(0, 0, 0));
            join(q(0, 1, 0), q(1, 0, 0));
            go(q(1, 1, 0));
            // Backward pass (k in second half).
            go(q(1, 1, 1));
            join(q(1, 0, 1), q(0, 1, 1));
            go(q(0, 0, 1));
        }
        BoxShape::RowPanel => {
            // Forward: the two B-children write X11, X12 (disjoint
            // columns) and read only the pivot block U11 = W11 outside X.
            join(q(0, 0, 0), q(0, 1, 0));
            // The D-children write X21, X22 and read V11 = X11 / V12 =
            // X12 (finished above) and U21, a region outside X.
            join(q(1, 0, 0), q(1, 1, 0));
            // Backward: k in second half; bottom row of quadrants first.
            join(q(1, 0, 1), q(1, 1, 1));
            join(q(0, 0, 1), q(0, 1, 1));
        }
        BoxShape::ColPanel => {
            // The transpose of B: pairs of disjoint rows.
            join(q(0, 0, 0), q(1, 0, 0));
            join(q(0, 1, 0), q(1, 1, 0));
            join(q(0, 1, 1), q(1, 1, 1));
            join(q(0, 0, 1), q(1, 0, 1));
        }
        BoxShape::Disjoint => {
            // All four children write disjoint X-quadrants and read
            // panels outside X entirely.
            for dk in [0, 1] {
                t.joiner.join4(
                    || go(q(0, 0, dk)),
                    || go(q(0, 1, dk)),
                    || go(q(1, 0, dk)),
                    || go(q(1, 1, dk)),
                );
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cgep::cgep_abcd;
    use crate::igep::igep;
    use crate::iterative::gep_iterative;
    use crate::spec::{ClosureSpec, ExplicitSet};
    use crate::walk::walk_leaves;
    use std::ops::ControlFlow;
    use std::sync::Mutex;

    /// The leaves `fig6_tree` hands its leaf body under [`Serial`], in
    /// call order, with the shape each was given.
    pub(crate) fn fig6_leaves<S: GepSpec + Sync>(
        spec: &S,
        n: usize,
        base: usize,
    ) -> Vec<(Cube, BoxShape)> {
        let out = Mutex::new(Vec::new());
        // SAFETY: the leaf body touches no matrix.
        unsafe {
            fig6_tree(&Serial, spec, n, base, &|b, shape| {
                out.lock().unwrap().push((b, shape))
            })
        };
        out.into_inner().unwrap()
    }

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
            let init = diag_dominant(n);
            let mut g = init.clone();
            let mut opt = init.clone();
            gep_iterative(&GeSpec, &mut g);
            igep_opt(&GeSpec, &mut opt, base);
            assert_eq!(g, opt, "ge n={n} base={base}");
        }
    }

    /// An `i64` spec on a seeded sparse Σ over `[0, n)³` (about one
    /// triple in five) whose `f` reveals the order of its reads, so
    /// I-GEP's result differs from G's.
    fn sparse_spec(n: usize) -> impl GepSpec<Elem = i64> + Sync {
        let mut s = 0x5EED + n as u64;
        let mut keep = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % 5 == 0
        };
        let sigma = ExplicitSet::from_iter(
            (0..n)
                .flat_map(|i| (0..n).flat_map(move |j| (0..n).map(move |k| (i, j, k))))
                .filter(|_| keep()),
        );
        let f = |i, j, k, x: i64, u: i64, v: i64, w: i64| {
            x.wrapping_mul(3)
                .wrapping_add(u.wrapping_mul(5))
                .wrapping_sub(v.wrapping_mul(7))
                .wrapping_add(w)
                .wrapping_add((i + 2 * j + 4 * k) as i64)
        };
        ClosureSpec::new(f, sigma)
    }

    /// Power-of-two and fitted `(side, base)` pairs for the tree tests.
    const TREE_SIDES: [(usize, usize); 8] = [
        (1, 1),
        (8, 2),
        (16, 4),
        (32, 4),
        (12, 4),
        (24, 8),
        (40, 8),
        (20, 5),
    ];

    fn diag_dominant(n: usize) -> Matrix<f64> {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64 * 10.0
            } else {
                ((i * 13 + j * 7) % 10) as f64 / 10.0 + 0.1
            }
        })
    }

    /// The tree visits exactly the boxes of Figure 2's walk, each as
    /// often, and hands each its own kind; over full, GE and sparse Σ.
    #[test]
    fn fig6_leaves_are_the_walk_leaves() {
        fn check<S: GepSpec + Sync>(spec: &S, n: usize, base: usize, what: &str) {
            let tree = fig6_leaves(spec, n, base);
            for &(b, shape) in &tree {
                assert_eq!(shape, BoxShape::classify(b.i0, b.j0, b.k0), "{what} {b:?}");
            }
            let mut got: Vec<Cube> = tree.into_iter().map(|(b, _)| b).collect();
            let mut want = Vec::new();
            walk_leaves(spec, Cube::root(n), base, &mut |b| {
                want.push(b);
                ControlFlow::Continue(())
            });
            got.sort();
            want.sort();
            assert_eq!(got, want, "{what} n={n} base={base}");
        }
        for (n, base) in TREE_SIDES {
            check(&MinPlus, n, base, "full Σ");
            check(&GeSpec, n, base, "GE Σ");
            check(&sparse_spec(n), n, base, "sparse Σ");
        }
    }

    /// C-GEP's leaf on the tree equals G bit for bit on the same specs,
    /// where I-GEP on the sparse Σ does not.
    #[test]
    fn cgep_abcd_matches_g() {
        let mut igep_diverged = 0;
        for (n, base) in TREE_SIDES {
            let init = random_dist(n, 9 + n as u64);
            let mut g = init.clone();
            let mut h = init.clone();
            gep_iterative(&MinPlus, &mut g);
            cgep_abcd(&Serial, &MinPlus, &mut h, base);
            assert_eq!(h, g, "min-plus n={n} base={base}");

            let init = diag_dominant(n);
            let mut g = init.clone();
            let mut h = init.clone();
            gep_iterative(&GeSpec, &mut g);
            cgep_abcd(&Serial, &GeSpec, &mut h, base);
            assert_eq!(h, g, "ge n={n} base={base}");

            let spec = sparse_spec(n);
            let init = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 19) as i64 - 9);
            let mut g = init.clone();
            let mut h = init.clone();
            let mut f = init.clone();
            gep_iterative(&spec, &mut g);
            cgep_abcd(&Serial, &spec, &mut h, base);
            igep_opt(&spec, &mut f, base);
            assert_eq!(h, g, "sparse n={n} base={base}");
            igep_diverged += usize::from(f != g);
        }
        assert!(
            igep_diverged > 0,
            "no sparse instance tells C-GEP from I-GEP"
        );
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
