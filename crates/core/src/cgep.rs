//! **C-GEP / H** — the fully general cache-oblivious GEP (Figure 3).
//!
//! C-GEP follows exactly the same recursion as I-GEP but performs each
//! update the way *iterative* GEP would have: instead of reading
//! `c[i,k]`, `c[k,j]`, `c[k,k]` directly (whose states under the recursion
//! are characterised by Theorem 2.2 and generally differ from G's),
//! it reads snapshots saved in four auxiliary matrices:
//!
//! * `u1[a,b]` — value of `c[a,b]` after all its updates with `k' ≤ b`
//!   (saved when the update with `k = τ_ab(b)` is applied);
//! * `u0[a,b]` — same with `k' ≤ b − 1` (saved at `k = τ_ab(b−1)`);
//! * `v1[a,b]` / `v0[a,b]` — same with `k' ≤ a` / `k' ≤ a − 1`.
//!
//! At update `⟨i,j,k⟩` the reads are (Iverson brackets as in Figure 3):
//!
//! ```text
//! c[i,j] ← f( c[i,j],  u_[j>k][i,k],  v_[i>k][k,j],  u_[(i>k) ∨ (i=k ∧ j>k)][k,k] )
//! ```
//!
//! which reproduces exactly the states iterative GEP reads (Table 1,
//! column G). All four auxiliary matrices are initialised to the input
//! matrix — reads whose snapshot is never saved (τ undefined) therefore
//! see the initial value, as required. Extra space: 4n² cells; time and
//! I/O bounds are those of I-GEP.
//!
//! The recursion is I-GEP's, and so is the leaf body's home:
//! [`cgep_full_with`] runs `run_leaf` below at the leaves of
//! [`walk_leaves`] (Figure 2's order), and [`cgep_abcd`] runs it at the
//! leaves of the Figure 6 tree, which `gep-parallel` forks.

use crate::abcd::fig6_tree;
use crate::gepmat::GepMat;
use crate::joiner::Joiner;
use crate::spec::GepSpec;
use crate::store::CellStore;
use crate::walk::{walk_leaves, Cube};
use gep_matrix::{halves_to_leaf, Matrix};
use std::ops::ControlFlow;

/// Runs C-GEP (Figure 3) on `c`, allocating the four snapshot matrices
/// internally (in-core convenience wrapper over [`cgep_full_with`]).
///
/// Equivalent to [`gep_iterative`](crate::gep_iterative) for **every** spec.
///
/// # Panics
/// Panics unless `c` is square with a side that halves exactly down to
/// leaves of side `<= base_size` ([`gep_matrix::halves_to_leaf`]): a
/// power of two, or a [`gep_matrix::fit_side`] for the same base.
pub fn cgep_full<S>(spec: &S, c: &mut Matrix<S::Elem>, base_size: usize)
where
    S: GepSpec,
{
    let mut u0 = c.clone();
    let mut u1 = c.clone();
    let mut v0 = c.clone();
    let mut v1 = c.clone();
    cgep_full_with(
        spec, c, &mut u0, &mut u1, &mut v0, &mut v1, base_size, false,
    );
}

/// Runs C-GEP with caller-provided snapshot stores (so they can live
/// out-of-core or under a cache simulator alongside `c`).
///
/// If `init_aux` is true the four stores are first initialised by copying
/// `c` into them cell by cell — the paper charges this cost to the
/// algorithm, and the bulk copy is visible to simulating stores. Pass
/// `false` if the stores already hold a copy of `c`.
///
/// # Panics
/// Panics on size mismatch, or unless the side halves exactly down to
/// leaves of side `<= base_size` ([`gep_matrix::halves_to_leaf`]).
#[allow(clippy::too_many_arguments)]
pub fn cgep_full_with<S, St>(
    spec: &S,
    c: &mut St,
    u0: &mut St,
    u1: &mut St,
    v0: &mut St,
    v1: &mut St,
    base_size: usize,
    init_aux: bool,
) where
    S: GepSpec,
    St: CellStore<S::Elem>,
{
    let n = c.n();
    if n == 0 {
        return; // Σ ⊆ [0,0)³ is empty — match gep_iterative's no-op.
    }
    assert!(
        halves_to_leaf(n, base_size),
        "C-GEP needs side = leaf·power-of-two with leaf <= base"
    );
    assert!(u0.n() == n && u1.n() == n && v0.n() == n && v1.n() == n);
    if init_aux {
        u0.copy_from_store(c);
        u1.copy_from_store(c);
        v0.copy_from_store(c);
        v1.copy_from_store(c);
    }
    let (mut leaves, mut updates) = (0, 0);
    let calls = walk_leaves(spec, Cube::root(n), base_size, &mut |leaf| {
        leaves += 1;
        updates += run_leaf(spec, c, u0, u1, v0, v1, leaf, |i, j, k| {
            i > k || (i == k && j > k)
        });
        ControlFlow::Continue(())
    });
    gep_obs::counter_add("cgep.calls", calls);
    gep_obs::counter_add("cgep.base_cases", leaves);
    gep_obs::counter_add("cgep.updates", updates);
}

/// Runs C-GEP (Figure 3) on the Figure 6 tree under `joiner`, with the
/// four snapshot matrices allocated internally. With `gep-parallel`'s
/// rayon joiner this is the multithreaded C-GEP of Section 3.
///
/// Equivalent to [`gep_iterative`](crate::gep_iterative) for **every**
/// spec, under every joiner: an update saves snapshots only into its own
/// cell `(i, j)`, so a leaf writes only its box of each of the five
/// matrices, and its snapshot reads fall in the `U`, `V`, `W` panels.
///
/// # Panics
/// Panics unless `c` is square with a side that halves exactly down to
/// leaves of side `<= base_size` ([`gep_matrix::halves_to_leaf`]), and
/// `1 <= base_size`.
pub fn cgep_abcd<S, J>(joiner: &J, spec: &S, c: &mut Matrix<S::Elem>, base_size: usize)
where
    S: GepSpec + Sync,
    J: Joiner,
{
    let n = c.n();
    let mut snapshots = [c.clone(), c.clone(), c.clone(), c.clone()];
    let [u0, u1, v0, v1] = snapshots.each_mut().map(|m| Shared(GepMat::new(m)));
    let c = Shared(GepMat::new(c));
    let leaf = |b: Cube, _| {
        let (mut c, mut u0, mut u1, mut v0, mut v1) = (c, u0, u1, v0, v1);
        run_leaf(
            spec,
            &mut c,
            &mut u0,
            &mut u1,
            &mut v0,
            &mut v1,
            b,
            |i, j, k| i > k || (i == k && j > k),
        );
    };
    // SAFETY: the five handles borrow their matrices exclusively, and
    // `run_leaf` on box `b` writes only cells of `b`'s `X` in each of
    // them and reads `c`'s `X` and the snapshots' `U`, `V`, `W`: the
    // contract of `fig6_tree`.
    unsafe { fig6_tree(joiner, spec, n, base_size, &leaf) }
}

/// A [`GepMat`] read and written as a [`CellStore`], for leaves of the
/// Figure 6 tree. Its accessors are `GepMat`'s unchecked `get`/`set`:
/// only `cgep_abcd` builds one, and `fig6_tree`'s contract keeps every
/// access free of races.
#[derive(Clone, Copy)]
struct Shared<'a, T>(GepMat<'a, T>);

impl<T: Copy> CellStore<T> for Shared<'_, T> {
    #[inline(always)]
    fn n(&self) -> usize {
        self.0.n()
    }
    #[inline(always)]
    fn read(&mut self, i: usize, j: usize) -> T {
        // SAFETY: see the type's doc.
        unsafe { self.0.get(i, j) }
    }
    #[inline(always)]
    fn write(&mut self, i: usize, j: usize, v: T) {
        // SAFETY: see the type's doc.
        unsafe { self.0.set(i, j, v) }
    }
}

/// Calls `update(i, j, k)` on each triple of Σ in `leaf`, k-major as in
/// G, and returns how many there were: the loop of every C-GEP leaf.
pub(crate) fn for_each_in_leaf<S: GepSpec>(
    spec: &S,
    leaf: Cube,
    mut update: impl FnMut(usize, usize, usize),
) -> u64 {
    let Cube { i0, j0, k0, s } = leaf;
    let mut count = 0;
    for k in k0..k0 + s {
        for i in i0..i0 + s {
            for j in j0..j0 + s {
                if spec.in_sigma(i, j, k) {
                    update(i, j, k);
                    count += 1;
                }
            }
        }
    }
    count
}

/// One leaf of `H`: every update of Σ in `leaf` with snapshot reads and
/// saves; returns the number applied. `w_from_u1(i, j, k)` is the
/// Iverson bracket of the `w` read — Figure 3's is
/// `i > k ∨ (i = k ∧ j > k)`; the `verify` fixture plants a wrong one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_leaf<S, St>(
    spec: &S,
    c: &mut St,
    u0: &mut St,
    u1: &mut St,
    v0: &mut St,
    v1: &mut St,
    leaf: Cube,
    w_from_u1: impl Fn(usize, usize, usize) -> bool,
) -> u64
where
    S: GepSpec,
    St: CellStore<S::Elem> + ?Sized,
{
    for_each_in_leaf(spec, leaf, |i, j, k| {
        let w1 = w_from_u1(i, j, k);
        apply(spec, c, u0, u1, v0, v1, i, j, k, w1);
    })
}

/// Applies one update `⟨i,j,k⟩` with snapshot reads and saves
/// (lines 2–8 of Figure 3, 0-based); `w1` picks `u1[k,k]` over `u0[k,k]`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn apply<S, St>(
    spec: &S,
    c: &mut St,
    u0: &mut St,
    u1: &mut St,
    v0: &mut St,
    v1: &mut St,
    i: usize,
    j: usize,
    k: usize,
    w1: bool,
) where
    S: GepSpec,
    St: CellStore<S::Elem> + ?Sized,
{
    let x = c.read(i, j);
    let u = if j > k { u1.read(i, k) } else { u0.read(i, k) };
    let v = if i > k { v1.read(k, j) } else { v0.read(k, j) };
    let w = if w1 { u1.read(k, k) } else { u0.read(k, k) };
    let nv = spec.update(i, j, k, x, u, v, w);
    c.write(i, j, nv);
    // Snapshot saves (τ tests of lines 5–8).
    let n = c.n();
    if Some(k) == spec.tau(n, i, j, j as i64 - 1) {
        u0.write(i, j, nv);
    }
    if Some(k) == spec.tau(n, i, j, j as i64) {
        u1.write(i, j, nv);
    }
    if Some(k) == spec.tau(n, i, j, i as i64 - 1) {
        v0.write(i, j, nv);
    }
    if Some(k) == spec.tau(n, i, j, i as i64) {
        v1.write(i, j, nv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::gep_iterative;
    use crate::spec::{ClosureSpec, ExplicitSet, SumSpec};

    #[test]
    fn counterexample_fixed_by_cgep() {
        let init = Matrix::from_rows(&[vec![0i64, 0], vec![0, 1]]);
        let mut h = init.clone();
        let mut g = init.clone();
        cgep_full(&SumSpec, &mut h, 1);
        gep_iterative(&SumSpec, &mut g);
        assert_eq!(h[(1, 0)], 2);
        assert_eq!(h, g);
    }

    #[test]
    fn cgep_equals_g_on_sum_spec_larger() {
        for n in [4usize, 8, 16] {
            let init = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 3) % 7) as i64 - 3);
            let mut h = init.clone();
            let mut g = init.clone();
            cgep_full(&SumSpec, &mut h, 1);
            gep_iterative(&SumSpec, &mut g);
            assert_eq!(h, g, "n={n}");
        }
    }

    #[test]
    fn cgep_base_size_invariant() {
        let n = 16;
        let init = Matrix::from_fn(n, n, |i, j| ((i * 11 + j) % 5) as i64 - 2);
        let mut reference = init.clone();
        cgep_full(&SumSpec, &mut reference, 1);
        for base in [2usize, 4, 8, 16] {
            let mut c = init.clone();
            cgep_full(&SumSpec, &mut c, base);
            assert_eq!(c, reference, "base={base}");
        }
    }

    /// Exhaustive: every Σ ⊆ [0,2)³ with an order-revealing f must make
    /// C-GEP agree with G on a 2×2 matrix of distinct values.
    #[test]
    fn exhaustive_all_sigma_n2() {
        let all: Vec<(usize, usize, usize)> = (0..2)
            .flat_map(|i| (0..2).flat_map(move |j| (0..2).map(move |k| (i, j, k))))
            .collect();
        assert_eq!(all.len(), 8);
        for mask in 0u32..256 {
            let sigma = ExplicitSet::from_iter(
                all.iter()
                    .enumerate()
                    .filter(|(b, _)| mask & (1 << b) != 0)
                    .map(|(_, &t)| t),
            );
            // f mixes all inputs with distinct weights so any wrong-state
            // read changes the output.
            let spec = ClosureSpec::new(
                |i, j, k, x: i64, u, v, w| {
                    x.wrapping_mul(3)
                        .wrapping_add(u.wrapping_mul(5))
                        .wrapping_add(v.wrapping_mul(7))
                        .wrapping_add(w.wrapping_mul(11))
                        .wrapping_add((i + 2 * j + 4 * k) as i64)
                },
                sigma,
            );
            let init = Matrix::from_rows(&[vec![1i64, 2], vec![3, 4]]);
            let mut h = init.clone();
            let mut g = init.clone();
            cgep_full(&spec, &mut h, 1);
            gep_iterative(&spec, &mut g);
            assert_eq!(h, g, "mask={mask:#b}");
        }
    }

    /// Random Σ on 4×4 and 8×8 with an order-revealing f.
    #[test]
    fn random_sigma_n4_n8() {
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [4usize, 8] {
            for trial in 0..40 {
                let mut triples = vec![];
                for i in 0..n {
                    for j in 0..n {
                        for k in 0..n {
                            if rng() % 3 == 0 {
                                triples.push((i, j, k));
                            }
                        }
                    }
                }
                let spec = ClosureSpec::new(
                    |i, j, k, x: i64, u, v, w| {
                        x.wrapping_mul(2)
                            .wrapping_add(u)
                            .wrapping_sub(v.wrapping_mul(3))
                            .wrapping_add(w.wrapping_mul(5))
                            .wrapping_add((i ^ j ^ k) as i64)
                    },
                    ExplicitSet::from_iter(triples),
                );
                let init = Matrix::from_fn(n, n, |i, j| (i * n + j) as i64 + 1);
                let mut h = init.clone();
                let mut g = init.clone();
                cgep_full(&spec, &mut h, 1);
                gep_iterative(&spec, &mut g);
                assert_eq!(h, g, "n={n} trial={trial}");
            }
        }
    }

    #[test]
    fn cgep_with_preinitialised_aux() {
        let init = Matrix::from_fn(8, 8, |i, j| ((i + j) % 4) as i64);
        let mut c = init.clone();
        let mut u0 = init.clone();
        let mut u1 = init.clone();
        let mut v0 = init.clone();
        let mut v1 = init.clone();
        cgep_full_with(
            &SumSpec, &mut c, &mut u0, &mut u1, &mut v0, &mut v1, 2, false,
        );
        let mut g = init.clone();
        gep_iterative(&SumSpec, &mut g);
        assert_eq!(c, g);
    }

    #[test]
    fn cgep_init_aux_flag_copies() {
        let init = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as i64);
        let mut c = init.clone();
        // Deliberately garbage aux contents; init_aux = true must fix them.
        let mut u0 = Matrix::square(4, -99i64);
        let mut u1 = Matrix::square(4, -99i64);
        let mut v0 = Matrix::square(4, -99i64);
        let mut v1 = Matrix::square(4, -99i64);
        cgep_full_with(
            &SumSpec, &mut c, &mut u0, &mut u1, &mut v0, &mut v1, 1, true,
        );
        let mut g = init.clone();
        gep_iterative(&SumSpec, &mut g);
        assert_eq!(c, g);
    }
}
