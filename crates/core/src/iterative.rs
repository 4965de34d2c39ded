//! **G** — the iterative Gaussian Elimination Paradigm (Figure 1).
//!
//! This is the paradigm's *defining semantics*: every other engine in the
//! workspace is judged correct by agreeing with `gep_iterative` (for the
//! spec classes where agreement is promised). It runs in Θ(n³) time and
//! incurs Θ(n³/B) I/Os — the baseline the cache-oblivious engines beat.

use crate::spec::GepSpec;
use crate::store::CellStore;

/// Runs iterative GEP (Figure 1) on `c`.
///
/// Loop order is exactly the paper's: `k` outermost, then `i`, then `j`;
/// each update `⟨i, j, k⟩ ∈ Σ` applies
/// `c[i][j] ← f(c[i][j], c[i][k], c[k][j], c[k][k])` against the *current*
/// contents of `c`.
///
/// Works for any square store (power-of-two side not required).
pub fn gep_iterative<S, St>(spec: &S, c: &mut St)
where
    S: GepSpec,
    St: CellStore<S::Elem> + ?Sized,
{
    let n = c.n();
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if spec.in_sigma(i, j, k) {
                    let x = c.read(i, j);
                    let u = c.read(i, k);
                    let v = c.read(k, j);
                    let w = c.read(k, k);
                    c.write(i, j, spec.update(i, j, k, x, u, v, w));
                }
            }
        }
    }
}

/// Runs iterative GEP restricted to the inclusive box
/// `i ∈ [ib.0, ib.1] × j ∈ [jb.0, jb.1] × k ∈ [kb.0, kb.1]`.
///
/// This is the §4.2 *iterative base-case kernel* shared by the recursive
/// engines once a subproblem fits their `base_size`.
pub fn gep_iterative_box<S, St>(
    spec: &S,
    c: &mut St,
    ib: (usize, usize),
    jb: (usize, usize),
    kb: (usize, usize),
) where
    S: GepSpec,
    St: CellStore<S::Elem> + ?Sized,
{
    for k in kb.0..=kb.1 {
        for i in ib.0..=ib.1 {
            for j in jb.0..=jb.1 {
                if spec.in_sigma(i, j, k) {
                    let x = c.read(i, j);
                    let u = c.read(i, k);
                    let v = c.read(k, j);
                    let w = c.read(k, k);
                    c.write(i, j, spec.update(i, j, k, x, u, v, w));
                }
            }
        }
    }
}

/// Number of updates `⟨i, j, k⟩ ∈ Σ` inside the inclusive box — what the
/// base-case kernel above will apply there — by scanning it.
///
/// The default [`GepSpec::sigma_count`]: the recursive engines report it
/// per base case when a recorder is installed (the `*.updates` counters),
/// and the golden tests check the totals against `n³` for full Σ. O(s³)
/// per call; specs with a structured Σ override it with
/// [`sigma_count_full`] or [`sigma_count_elim`].
pub fn sigma_count_box<S>(
    spec: &S,
    ib: (usize, usize),
    jb: (usize, usize),
    kb: (usize, usize),
) -> u64
where
    S: GepSpec + ?Sized,
{
    let mut count = 0u64;
    for k in kb.0..=kb.1 {
        for i in ib.0..=ib.1 {
            for j in jb.0..=jb.1 {
                if spec.in_sigma(i, j, k) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Length of an inclusive interval (0 when it is empty).
fn span_len(b: (usize, usize)) -> u64 {
    (b.1 + 1).saturating_sub(b.0) as u64
}

/// [`sigma_count_box`] in closed form for a full `Σ`: the box's volume.
pub fn sigma_count_full(ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> u64 {
    span_len(ib) * span_len(jb) * span_len(kb)
}

/// [`sigma_count_box`] for `Σ = {i > k ∧ j > k}`: per `k`, the rows above
/// `k` times the columns above `k`, O(s) per box.
pub fn sigma_count_elim(ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> u64 {
    let above = |b: (usize, usize), k: usize| span_len((b.0.max(k + 1), b.1));
    (kb.0..=kb.1).map(|k| above(ib, k) * above(jb, k)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SumSpec;
    use gep_matrix::Matrix;

    #[test]
    fn paper_counterexample_value_for_g() {
        // Section 2.2.1: c = [[0,0],[0,1]], f = sum, full Σ ⇒ G gives
        // c[1][0] (paper's c[2,1]) = 2.
        let mut c = Matrix::from_rows(&[vec![0i64, 0], vec![0, 1]]);
        gep_iterative(&SumSpec, &mut c);
        assert_eq!(c[(1, 0)], 2);
    }

    #[test]
    fn box_restriction_matches_full_run_on_full_box() {
        let init = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as i64 % 3);
        let mut a = init.clone();
        let mut b = init.clone();
        gep_iterative(&SumSpec, &mut a);
        gep_iterative_box(&SumSpec, &mut b, (0, 3), (0, 3), (0, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_sigma_is_identity() {
        let spec = crate::spec::ClosureSpec::new(
            |_, _, _, _: i64, _, _, _| panic!("must not be called"),
            crate::spec::ExplicitSet::default(),
        );
        let init = Matrix::from_fn(4, 4, |i, j| (i + j) as i64);
        let mut c = init.clone();
        gep_iterative(&spec, &mut c);
        assert_eq!(c, init);
    }

    #[test]
    fn sigma_count_counts_triples_in_box() {
        assert_eq!(sigma_count_box(&SumSpec, (0, 3), (0, 3), (0, 3)), 64);
        assert_eq!(sigma_count_box(&SumSpec, (1, 2), (0, 3), (2, 2)), 8);
        let spec = crate::spec::ClosureSpec::new(
            |_, _, _, x: i64, _, _, _| x,
            crate::spec::ExplicitSet::from_iter([(0, 1, 1), (1, 1, 1)]),
        );
        assert_eq!(sigma_count_box(&spec, (0, 1), (0, 1), (0, 1)), 2);
        assert_eq!(sigma_count_box(&spec, (0, 0), (0, 0), (0, 0)), 0);
    }

    #[test]
    fn closed_form_sigma_counts_match_the_scan() {
        struct Elim;
        impl GepSpec for Elim {
            type Elem = i64;
            fn update(&self, _: usize, _: usize, _: usize, x: i64, _: i64, _: i64, _: i64) -> i64 {
                x
            }
            fn in_sigma(&self, i: usize, j: usize, k: usize) -> bool {
                i > k && j > k
            }
        }
        let bounds = [(0, 0), (0, 3), (2, 5), (3, 3), (4, 7), (5, 4), (1, 6)];
        for &ib in &bounds {
            for &jb in &bounds {
                for &kb in &bounds {
                    let ctx = format!("{ib:?} {jb:?} {kb:?}");
                    let full = sigma_count_box(&SumSpec, ib, jb, kb);
                    assert_eq!(sigma_count_full(ib, jb, kb), full, "full {ctx}");
                    let elim = sigma_count_box(&Elim, ib, jb, kb);
                    assert_eq!(sigma_count_elim(ib, jb, kb), elim, "elim {ctx}");
                }
            }
        }
    }

    #[test]
    fn single_update_applies_f_once() {
        let spec = crate::spec::ClosureSpec::new(
            |_, _, _, x: i64, u, v, w| x + 10 * u + 100 * v + 1000 * w,
            crate::spec::ExplicitSet::from_iter([(0, 1, 1)]),
        );
        // x = c[0][1] = 2, u = c[0][1]?? no: u = c[i][k] = c[0][1] = 2,
        // v = c[k][j] = c[1][1] = 4, w = c[1][1] = 4.
        let mut c = Matrix::from_rows(&[vec![1i64, 2], vec![3, 4]]);
        gep_iterative(&spec, &mut c);
        assert_eq!(c[(0, 1)], 2 + 10 * 2 + 100 * 4 + 1000 * 4);
        assert_eq!(c[(0, 0)], 1);
        assert_eq!(c[(1, 0)], 3);
        assert_eq!(c[(1, 1)], 4);
    }
}
