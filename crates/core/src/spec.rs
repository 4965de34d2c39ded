//! GEP problem specifications: the update function `f` and update set `Σ`.

use std::collections::HashSet;
use std::fmt::Debug;

/// The geometric relation between a base-case box `X = c[I, J]` and its
/// pivot range `K` — the same classification that names the Figure 6
/// function family (`A`/`B`/`C`/`D`).
///
/// The recursive engines only produce *aligned* boxes, so each of `I` and
/// `J` is either equal to or disjoint from `K`. The shape decides which
/// specialized base-case kernel is sound: on a [`BoxShape::Disjoint`] box
/// the panels `U = c[I, K]`, `V = c[K, J]` and `W = c[K, K]` are all
/// outside `X` and therefore stable while the kernel writes `X`, which is
/// what permits register-accumulating (k-innermost) micro-tile kernels.
/// The other three shapes alias `X` with one or more panels and need
/// k-outermost sweeps that re-read the aliased cells (see
/// `docs/KERNELS.md` for the full safety argument).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BoxShape {
    /// `I = J = K`: the `A` precondition — `X`, `U`, `V`, `W` coincide.
    Diagonal,
    /// `I = K`, `J ∩ K = ∅`: the `B` precondition — `X ≡ V`, `U ≡ W`.
    RowPanel,
    /// `J = K`, `I ∩ K = ∅`: the `C` precondition — `X ≡ U`, `V ≡ W`.
    ColPanel,
    /// `I ∩ K = J ∩ K = ∅`: the `D` precondition — no overlap at all.
    /// This is where ~all the FLOPs of a full-Σ run live.
    Disjoint,
}

impl BoxShape {
    /// Classifies an aligned box by its origin coordinates (the Figure 13
    /// preconditions reduce to origin equality for aligned boxes).
    #[inline(always)]
    pub fn classify(xr: usize, xc: usize, kk: usize) -> BoxShape {
        match (xr == kk, xc == kk) {
            (true, true) => BoxShape::Diagonal,
            (true, false) => BoxShape::RowPanel,
            (false, true) => BoxShape::ColPanel,
            (false, false) => BoxShape::Disjoint,
        }
    }
}

/// A GEP instance: the element set `S`, the update function
/// `f : S⁴ → S`, and the update set `Σ ⊆ [0,n)³`.
///
/// The paper's `f` takes only the four cell values; implementations here
/// also receive the indices `(i, j, k)`, a strict generalisation that lets a
/// single spec express index-dependent kernels (e.g. LU decomposition,
/// which divides when `j == k` and multiply-subtracts when `j > k`).
///
/// Several methods have conservative defaults; engines work correctly with
/// just [`update`](GepSpec::update) and [`in_sigma`](GepSpec::in_sigma)
/// implemented, and get faster (subproblem pruning, O(1) snapshot
/// bookkeeping in reduced-space C-GEP) when the others are overridden.
pub trait GepSpec {
    /// Matrix element type.
    type Elem: Copy + Send + Sync + PartialEq + Debug;

    /// The update function: new value for `c[i][j]` given
    /// `x = c[i][j]`, `u = c[i][k]`, `v = c[k][j]`, `w = c[k][k]`.
    #[allow(clippy::too_many_arguments)]
    fn update(
        &self,
        i: usize,
        j: usize,
        k: usize,
        x: Self::Elem,
        u: Self::Elem,
        v: Self::Elem,
        w: Self::Elem,
    ) -> Self::Elem;

    /// Membership test: is `⟨i, j, k⟩ ∈ Σ`?
    fn in_sigma(&self, i: usize, j: usize, k: usize) -> bool;

    /// Does `Σ` intersect the box `i ∈ [ib.0, ib.1] × j ∈ [jb.0, jb.1] ×
    /// k ∈ [kb.0, kb.1]` (inclusive bounds)?
    ///
    /// This is the test of line 1 of Figures 2/3 (`T ∩ Σ_G = ∅ ⇒ return`).
    /// The default `true` is always sound — it merely disables pruning.
    /// Structured sets should override with an exact (or superset) test.
    fn sigma_intersects(&self, ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> bool {
        let _ = (ib, jb, kb);
        true
    }

    /// Number of updates `⟨i, j, k⟩ ∈ Σ` inside the box (inclusive bounds,
    /// as [`sigma_intersects`](GepSpec::sigma_intersects)): what a base
    /// case there applies. The engines' `*.updates` counters read it for
    /// every leaf when a recorder is installed.
    ///
    /// The default scans the box, O(s³) per leaf; structured sets should
    /// override with a closed form ([`crate::iterative::sigma_count_full`],
    /// [`crate::iterative::sigma_count_elim`]).
    fn sigma_count(&self, ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> u64 {
        crate::iterative::sigma_count_box(self, ib, jb, kb)
    }

    /// `τᵢⱼ(l)` (Definition 2.3, 0-based): the largest `k' ≤ l` with
    /// `⟨i, j, k'⟩ ∈ Σ`, or `None` if no such update exists. `l` may be
    /// negative (then always `None`). `n` bounds the scan.
    ///
    /// The default scans downward from `min(l, n-1)`; structured sets
    /// should override with a closed form.
    fn tau(&self, n: usize, i: usize, j: usize, l: i64) -> Option<usize> {
        if l < 0 || n == 0 {
            return None;
        }
        let top = (l as usize).min(n - 1);
        (0..=top).rev().find(|&k| self.in_sigma(i, j, k))
    }

    /// Optimised in-core base-case kernel used by the A/B/C/D engine
    /// ([`crate::abcd`]): iterative GEP on the box
    /// `i ∈ [xr, xr+s) × j ∈ [xc, xc+s) × k ∈ [kk, kk+s)` over the raw
    /// matrix handle. Override to provide a vectorised kernel (the
    /// Floyd–Warshall and matrix-multiplication specs in `gep-apps` do).
    ///
    /// # Safety
    /// The caller guarantees exclusive access to every cell written and
    /// stability of every cell read, per the Figure 6 dependency argument
    /// (see `gep-core::gepmat`). Implementations must only access cells in
    /// the box and its `U`/`V`/`W` panels, and must compute exactly what
    /// iterative GEP restricted to the box computes.
    unsafe fn kernel(
        &self,
        m: crate::gepmat::GepMat<'_, Self::Elem>,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
    ) where
        Self: Sized,
    {
        crate::abcd::generic_kernel(self, m, xr, xc, kk, s);
    }

    /// The kernel-provider hook: like [`kernel`](GepSpec::kernel), but the
    /// engine also passes the [`BoxShape`] of the base-case box, which it
    /// knows statically (the A/B/C/D engine) or can classify from the
    /// aligned origins. Specs backed by a kernel library (`gep-kernels`)
    /// override this to pick a shape-appropriate specialized kernel —
    /// register-accumulating micro-tiles on [`BoxShape::Disjoint`] boxes,
    /// aliasing-aware sweeps elsewhere.
    ///
    /// The default ignores the shape and forwards to
    /// [`kernel`](GepSpec::kernel), so existing specs are unaffected; it
    /// bumps the `kernels.fallback` observability counter so runs can
    /// assert that no base case silently missed the specialized path
    /// (the counter stays 0 on power-of-two full-Σ runs of the five
    /// kernel-backed applications).
    ///
    /// # Safety
    /// As [`kernel`](GepSpec::kernel); additionally `shape` must be the
    /// true classification of `(xr, xc, kk)` per [`BoxShape::classify`].
    unsafe fn kernel_shaped(
        &self,
        m: crate::gepmat::GepMat<'_, Self::Elem>,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
        shape: BoxShape,
    ) where
        Self: Sized,
    {
        let _ = shape;
        gep_obs::counter_add("kernels.fallback", 1);
        self.kernel(m, xr, xc, kk, s);
    }
}

/// Blanket impl so `&S` can be passed wherever a spec is consumed by value.
impl<S: GepSpec> GepSpec for &S {
    type Elem = S::Elem;
    #[inline(always)]
    fn update(
        &self,
        i: usize,
        j: usize,
        k: usize,
        x: Self::Elem,
        u: Self::Elem,
        v: Self::Elem,
        w: Self::Elem,
    ) -> Self::Elem {
        (**self).update(i, j, k, x, u, v, w)
    }
    #[inline(always)]
    fn in_sigma(&self, i: usize, j: usize, k: usize) -> bool {
        (**self).in_sigma(i, j, k)
    }
    #[inline(always)]
    fn sigma_intersects(&self, ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> bool {
        (**self).sigma_intersects(ib, jb, kb)
    }
    #[inline(always)]
    fn sigma_count(&self, ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> u64 {
        (**self).sigma_count(ib, jb, kb)
    }
    #[inline(always)]
    fn tau(&self, n: usize, i: usize, j: usize, l: i64) -> Option<usize> {
        (**self).tau(n, i, j, l)
    }
    #[inline(always)]
    unsafe fn kernel(
        &self,
        m: crate::gepmat::GepMat<'_, Self::Elem>,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
    ) {
        (**self).kernel(m, xr, xc, kk, s)
    }
    #[inline(always)]
    unsafe fn kernel_shaped(
        &self,
        m: crate::gepmat::GepMat<'_, Self::Elem>,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
        shape: BoxShape,
    ) {
        (**self).kernel_shaped(m, xr, xc, kk, s, shape)
    }
}

/// The paper's Section 2.2.1 counterexample spec: `f = x + u + v + w` over
/// the full update set.
///
/// On the 2×2 instance `c = [[0, 0], [0, 1]]`, iterative GEP (G) yields
/// `c[1][0] = 2` while I-GEP (F) yields `c[1][0] = 8` — demonstrating that
/// I-GEP is **not** a correct implementation of arbitrary GEP, which is what
/// motivates C-GEP.
///
/// ```
/// use gep_core::{gep_iterative, igep, cgep_full, SumSpec, GepSpec};
/// use gep_matrix::Matrix;
///
/// let init = Matrix::from_rows(&[vec![0i64, 0], vec![0, 1]]);
/// let (mut g, mut f, mut h) = (init.clone(), init.clone(), init.clone());
/// gep_iterative(&SumSpec, &mut g);
/// igep(&SumSpec, &mut f, 1);
/// cgep_full(&SumSpec, &mut h, 1);
/// assert_eq!(g[(1, 0)], 2);  // the paradigm's defining semantics
/// assert_eq!(f[(1, 0)], 8);  // I-GEP diverges on this spec...
/// assert_eq!(h, g);          // ...C-GEP never does
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct SumSpec;

impl GepSpec for SumSpec {
    type Elem = i64;
    #[inline(always)]
    fn update(&self, _i: usize, _j: usize, _k: usize, x: i64, u: i64, v: i64, w: i64) -> i64 {
        // Wrapping keeps large-n tests well-defined; values grow
        // exponentially under f = sum and both G and the cache-oblivious
        // engines wrap identically.
        x.wrapping_add(u).wrapping_add(v).wrapping_add(w)
    }
    #[inline(always)]
    fn in_sigma(&self, _i: usize, _j: usize, _k: usize) -> bool {
        true
    }
    #[inline(always)]
    fn sigma_intersects(&self, _: (usize, usize), _: (usize, usize), _: (usize, usize)) -> bool {
        true
    }
    #[inline(always)]
    fn tau(&self, n: usize, _i: usize, _j: usize, l: i64) -> Option<usize> {
        (l >= 0 && n > 0).then(|| (l as usize).min(n - 1))
    }
}

/// An explicit, enumerated update set: `Σ` as a hash set of triples.
///
/// Used by the exhaustive small-case correctness tests (every `Σ ⊆ [0,2)³`)
/// and by fuzzed random instances. `sigma_intersects` is exact.
#[derive(Clone, Debug, Default)]
pub struct ExplicitSet {
    set: HashSet<(usize, usize, usize)>,
}

impl FromIterator<(usize, usize, usize)> for ExplicitSet {
    fn from_iter<I: IntoIterator<Item = (usize, usize, usize)>>(it: I) -> Self {
        Self {
            set: it.into_iter().collect(),
        }
    }
}

impl Extend<(usize, usize, usize)> for ExplicitSet {
    fn extend<I: IntoIterator<Item = (usize, usize, usize)>>(&mut self, it: I) {
        self.set.extend(it);
    }
}

impl ExplicitSet {
    /// Builds from an iterator of `(i, j, k)` triples.
    ///
    /// Thin alias for the [`FromIterator`] impl, kept because
    /// `ExplicitSet::from_iter([...])` at call sites reads better than a
    /// turbofished `collect`.
    #[allow(clippy::should_implement_trait)] // delegates to the trait impl below
    pub fn from_iter(it: impl IntoIterator<Item = (usize, usize, usize)>) -> Self {
        <Self as FromIterator<_>>::from_iter(it)
    }

    /// Number of updates in `Σ`.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True if `Σ` is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, i: usize, j: usize, k: usize) -> bool {
        self.set.contains(&(i, j, k))
    }

    /// Exact box-intersection test.
    pub fn intersects(&self, ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> bool {
        self.set.iter().any(|&(i, j, k)| {
            ib.0 <= i && i <= ib.1 && jb.0 <= j && j <= jb.1 && kb.0 <= k && k <= kb.1
        })
    }
}

/// A fully general spec built from a closure `f` and an [`ExplicitSet`].
///
/// The workhorse of the correctness test suites: any `f`, any `Σ`.
pub struct ClosureSpec<T, F> {
    f: F,
    sigma: ExplicitSet,
    _marker: std::marker::PhantomData<T>,
}

impl<T, F> ClosureSpec<T, F>
where
    T: Copy + Send + Sync + PartialEq + Debug,
    F: Fn(usize, usize, usize, T, T, T, T) -> T,
{
    /// Creates a spec from an update closure and an explicit update set.
    pub fn new(f: F, sigma: ExplicitSet) -> Self {
        Self {
            f,
            sigma,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T, F> GepSpec for ClosureSpec<T, F>
where
    T: Copy + Send + Sync + PartialEq + Debug,
    F: Fn(usize, usize, usize, T, T, T, T) -> T,
{
    type Elem = T;
    #[inline]
    fn update(&self, i: usize, j: usize, k: usize, x: T, u: T, v: T, w: T) -> T {
        (self.f)(i, j, k, x, u, v, w)
    }
    #[inline]
    fn in_sigma(&self, i: usize, j: usize, k: usize) -> bool {
        self.sigma.contains(i, j, k)
    }
    fn sigma_intersects(&self, ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> bool {
        self.sigma.intersects(ib, jb, kb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_set_membership_and_boxes() {
        let s = ExplicitSet::from_iter([(0, 1, 0), (3, 3, 2)]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(0, 1, 0));
        assert!(!s.contains(1, 0, 0));
        assert!(s.intersects((0, 0), (0, 3), (0, 0)));
        assert!(!s.intersects((1, 2), (0, 3), (0, 3)));
        assert!(s.intersects((2, 3), (2, 3), (2, 3)));
    }

    #[test]
    fn explicit_set_collects_and_extends() {
        let mut s: ExplicitSet = [(0, 0, 0), (1, 2, 3)].into_iter().collect();
        assert!(s.contains(1, 2, 3));
        s.extend([(1, 2, 3), (2, 2, 2)]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(2, 2, 2));
    }

    #[test]
    fn default_tau_scans_down() {
        let s = ClosureSpec::new(
            |_, _, _, x: i64, _, _, _| x,
            ExplicitSet::from_iter([(1, 1, 0), (1, 1, 2)]),
        );
        assert_eq!(s.tau(4, 1, 1, -1), None);
        assert_eq!(s.tau(4, 1, 1, 0), Some(0));
        assert_eq!(s.tau(4, 1, 1, 1), Some(0));
        assert_eq!(s.tau(4, 1, 1, 2), Some(2));
        assert_eq!(s.tau(4, 1, 1, 3), Some(2));
        assert_eq!(s.tau(4, 0, 0, 3), None);
    }

    #[test]
    fn sum_spec_tau_is_identity() {
        assert_eq!(SumSpec.tau(8, 3, 5, 6), Some(6));
        assert_eq!(SumSpec.tau(8, 3, 5, 100), Some(7));
        assert_eq!(SumSpec.tau(8, 3, 5, -1), None);
    }
}
