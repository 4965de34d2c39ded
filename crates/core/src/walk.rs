//! The Figure 2 leaf schedule: one walker over the recursion of `F`.
//!
//! Which boxes I-GEP's `F` visits, and in which order, depends only on
//! `(Σ, root box, base)` — never on matrix contents. [`walk_leaves`]
//! enumerates that schedule: it descends the recursion in [`OCTANTS`]
//! order, prunes every box with `T ∩ Σ = ∅` (Figure 2, line 1), and hands
//! each remaining box of side `<= base` to a visitor. Everything that runs
//! or replays the sequential recursion is a visitor of this one walk:
//! [`crate::igep()`] (the iterative kernel per leaf), [`crate::igep_resumable`]
//! (the same, behind a skip-and-stop cursor), [`crate::igep_step_count`]
//! (counts leaves), C-GEP's `H` in [`crate::cgep_full_with`],
//! [`crate::cgep_reduced()`] and the planted-bug fixture
//! [`crate::verify::cgep_full_buggy`] (the snapshot leaf body per leaf), and
//! the Lemma 3.1(b) schedule in `gep-bench` (pins each
//! leaf to a simulated processor). Because the visitor sees leaves before
//! they run, the walk is also the lookahead an out-of-core prefetcher
//! would read.

use crate::spec::GepSpec;
use gep_matrix::halves_to_leaf;
use std::ops::ControlFlow;

/// The eight recursive calls of `F` in execution order, as `(di, dj, dk)`
/// offsets in half-sides: forward pass over the four quadrants with the
/// first k-half, then the backward pass in reverse quadrant order with
/// the second half (Figure 2, lines 5–6).
pub const OCTANTS: [(usize, usize, usize); 8] = [
    (0, 0, 0),
    (0, 1, 0),
    (1, 0, 0),
    (1, 1, 0),
    (1, 1, 1),
    (1, 0, 1),
    (0, 1, 1),
    (0, 0, 1),
];

/// A box of the recursion: rows `i0..i0+s`, cols `j0..j0+s`, update
/// indices `k0..k0+s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cube {
    /// First row.
    pub i0: usize,
    /// First column.
    pub j0: usize,
    /// First update index.
    pub k0: usize,
    /// Side (a leaf side `<= base` times a power of two).
    pub s: usize,
}

impl Cube {
    /// The whole problem of side `n`: `[0, n)³`.
    pub fn root(n: usize) -> Cube {
        Cube {
            i0: 0,
            j0: 0,
            k0: 0,
            s: n,
        }
    }

    /// The inclusive `(i, j, k)` ranges of the box, as
    /// [`GepSpec::sigma_intersects`] and the box kernels take them.
    pub fn ranges(self) -> ((usize, usize), (usize, usize), (usize, usize)) {
        let Cube { i0, j0, k0, s } = self;
        ((i0, i0 + s - 1), (j0, j0 + s - 1), (k0, k0 + s - 1))
    }
}

/// Walks `F`'s recursion from `root`, calling `visit` on every
/// non-pruned box of side `<= base` in Figure 2 order. A visitor that
/// returns [`ControlFlow::Break`] ends the walk there.
///
/// Returns the number of non-pruned boxes entered, leaves included —
/// the number of calls `F` makes that get past its line 1.
///
/// # Panics
/// Panics unless `root.s` is zero (an empty walk) or halves exactly down
/// to leaves of side `<= base` ([`gep_matrix::halves_to_leaf`]), and
/// `base >= 1`.
pub fn walk_leaves<S: GepSpec>(
    spec: &S,
    root: Cube,
    base: usize,
    visit: &mut impl FnMut(Cube) -> ControlFlow<()>,
) -> u64 {
    if root.s == 0 {
        return 0; // Σ ⊆ [0,0)³ is empty.
    }
    assert!(base >= 1);
    assert!(
        halves_to_leaf(root.s, base),
        "I-GEP needs side = leaf·power-of-two with leaf <= base"
    );
    let mut nodes = 0;
    let _ = descend(spec, root, base, &mut nodes, visit);
    nodes
}

fn descend<S: GepSpec>(
    spec: &S,
    b: Cube,
    base: usize,
    nodes: &mut u64,
    visit: &mut impl FnMut(Cube) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let (i, j, k) = b.ranges();
    if !spec.sigma_intersects(i, j, k) {
        return ControlFlow::Continue(());
    }
    *nodes += 1;
    if b.s <= base {
        return visit(b);
    }
    let h = b.s / 2;
    for (di, dj, dk) in OCTANTS {
        let child = Cube {
            i0: b.i0 + di * h,
            j0: b.j0 + dj * h,
            k0: b.k0 + dk * h,
            s: h,
        };
        descend(spec, child, base, nodes, visit)?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::sigma_count_box;
    use crate::spec::{ClosureSpec, ExplicitSet, SumSpec};
    use crate::verify::cgep_full_buggy;
    use crate::{cgep_full, cgep_reduced};
    use crate::{igep, igep_resumable, igep_step_count, StepControl};
    use gep_matrix::Matrix;
    use gep_obs::Recorder;

    /// Gaussian-elimination Σ: `⟨i, j, k⟩` with `i > k` and `j > k`,
    /// pruned exactly.
    struct GeSigma;
    impl GepSpec for GeSigma {
        type Elem = i64;
        fn update(&self, _: usize, _: usize, _: usize, x: i64, u: i64, v: i64, w: i64) -> i64 {
            x.wrapping_mul(3).wrapping_add(u ^ v).wrapping_sub(w)
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
            ib.1 > kb.0 && jb.1 > kb.0
        }
    }

    /// A spec on a seeded sparse Σ over `[0, n)³` (about one triple in
    /// five), and |Σ|.
    fn sparse_spec(n: usize) -> (impl GepSpec<Elem = i64>, u64) {
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
        let len = sigma.len() as u64;
        let f = |_, _, _, x: i64, u: i64, v: i64, w: i64| x.wrapping_add(u).wrapping_sub(v) ^ w;
        (ClosureSpec::new(f, sigma), len)
    }

    fn leaves<S: GepSpec>(spec: &S, n: usize, base: usize) -> (Vec<Cube>, u64) {
        let mut out = Vec::new();
        let nodes = walk_leaves(spec, Cube::root(n), base, &mut |c| {
            out.push(c);
            ControlFlow::Continue(())
        });
        (out, nodes)
    }

    fn input(n: usize) -> Matrix<i64> {
        Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 19) as i64 + 1)
    }

    /// The walk covers Σ exactly once: its leaves' Σ-counts sum to |Σ|,
    /// there are as many as `igep_step_count` says, and every engine on
    /// the walk — `igep` and both C-GEPs — records one call per node
    /// entered, one base case per leaf and one update per triple of Σ.
    fn check_cover<S: GepSpec<Elem = i64>>(spec: &S, n: usize, base: usize, sigma: u64) {
        let (walked, nodes) = leaves(spec, n, base);
        let covered: u64 = walked
            .iter()
            .map(|c| {
                let (i, j, k) = c.ranges();
                sigma_count_box(spec, i, j, k)
            })
            .sum();
        assert_eq!(covered, sigma, "n={n} base={base}");
        assert_eq!(walked.len() as u64, igep_step_count(spec, n, base));
        let record = |run: &dyn Fn()| gep_obs::record(Recorder::counters_only(), run).1;
        let runs = [
            ("igep", record(&|| igep(spec, &mut input(n), base))),
            ("cgep", record(&|| cgep_full(spec, &mut input(n), base))),
            (
                "cgep_reduced",
                record(&|| {
                    cgep_reduced(spec, &mut input(n), base);
                }),
            ),
        ];
        for (engine, rec) in runs {
            let got =
                ["calls", "base_cases", "updates"].map(|c| rec.counter(&format!("{engine}.{c}")));
            assert_eq!(
                got,
                [nodes, walked.len() as u64, sigma],
                "{engine} n={n} base={base}"
            );
        }
    }

    /// Power-of-two sides, and sides `leaf·2^q` with `leaf <= base`.
    #[test]
    fn leaves_cover_sigma_exactly_once() {
        let pow2 = [1usize, 2, 8, 16]
            .into_iter()
            .flat_map(|n| [1usize, 2, 4].map(|base| (n, base)));
        let fitted = [(12usize, 4usize), (24, 8), (40, 8), (20, 5)];
        for (n, base) in pow2.chain(fitted) {
            let (spec, sigma) = sparse_spec(n);
            check_cover(&spec, n, base, sigma);
            let ge: u64 = (0..n as u64).map(|m| m * m).sum();
            check_cover(&GeSigma, n, base, ge);
        }
    }

    /// A side `leaf·2^q` (leaf <= base) walks leaves of exactly the leaf
    /// side.
    #[test]
    fn fitted_sides_walk_leaves_of_the_leaf_side() {
        for (n, base, leaf) in [
            (12usize, 4usize, 3usize),
            (24, 8, 6),
            (40, 8, 5),
            (20, 5, 5),
        ] {
            let (walked, _) = leaves(&SumSpec, n, base);
            assert!(walked.iter().all(|c| c.s == leaf), "n={n} base={base}");
        }
        assert_eq!(igep_step_count(&SumSpec, 1536, 64), 32 * 32 * 32); // leaves of 48
        assert_eq!(igep_step_count(&SumSpec, 160, 32), 8 * 8 * 8); // leaves of 20
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_side_that_does_not_halve_to_a_leaf() {
        igep_step_count(&SumSpec, 1500, 64);
    }

    // Side 12 halves to leaves of 3: the C-GEP entry points accept it
    // with base 4 (above) and reject it with base 2.

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn cgep_full_rejects_side_that_does_not_halve_to_a_leaf() {
        cgep_full(&SumSpec, &mut input(12), 2);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn cgep_reduced_rejects_side_that_does_not_halve_to_a_leaf() {
        cgep_reduced(&SumSpec, &mut input(12), 2);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn cgep_full_buggy_rejects_side_that_does_not_halve_to_a_leaf() {
        cgep_full_buggy(&SumSpec, &mut input(12), 2);
    }

    #[test]
    fn igep_and_resumable_share_the_leaf_body() {
        for n in [2usize, 8, 16] {
            for base in [1usize, 4] {
                let (spec, _) = sparse_spec(n);
                let ((), a) = gep_obs::record(Recorder::counters_only(), || {
                    igep(&spec, &mut input(n), base)
                });
                let (_, b) = gep_obs::record(Recorder::counters_only(), || {
                    igep_resumable(&spec, &mut input(n), base, 0, &mut |_| {
                        StepControl::Continue
                    })
                });
                for name in ["igep.base_cases", "igep.updates"] {
                    assert_eq!(a.counter(name), b.counter(name), "{name} n={n} base={base}");
                }
                let leaf_ns = |r: &Recorder| r.hist("kernel.leaf_ns").map_or(0, |h| h.count());
                assert_eq!(leaf_ns(&a), a.counter("igep.base_cases"));
                assert_eq!(leaf_ns(&a), leaf_ns(&b));
            }
        }
    }

    /// On full Σ, the Figure 6 tree runs the same leaf boxes as the walk
    /// but, inside `B`, `C` and `D`, not in Figure 2 order (e.g. `B`'s
    /// backward pass runs X21 before X22). Only the multiset of boxes and
    /// the results agree.
    #[test]
    fn abcd_leaves_are_the_walk_reordered() {
        let (n, base) = (8, 2);
        let abcd: Vec<Cube> = crate::abcd::tests::fig6_leaves(&SumSpec, n, base)
            .into_iter()
            .map(|(b, _)| b)
            .collect();
        let (walked, _) = leaves(&SumSpec, n, base);
        assert_eq!(abcd.len(), 64);
        assert_ne!(abcd, walked, "abcd's serial order is not Figure 2's");
        let sorted = |mut v: Vec<Cube>| {
            v.sort();
            v
        };
        assert_eq!(sorted(abcd), sorted(walked));
    }
}
