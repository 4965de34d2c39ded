//! Execution tracing and theorem verification.
//!
//! The paper's structural results are *testable*: this module records the
//! exact update stream an engine performs, together with the values each
//! update read and wrote, and checks them against
//!
//! * **Theorem 2.1** — I-GEP performs exactly the updates of `Σ`, each one
//!   exactly once, and updates each cell in increasing `k` order;
//! * **Theorem 2.2 / Table 1** — immediately before I-GEP applies
//!   `⟨i,j,k⟩`, the operands are in the states characterised by `π` and
//!   `δ`, while iterative GEP reads the Table 1 column-G states.
//!
//! These checks run in the test suites of this crate and `gep-bench`'s
//! `repro table1` subcommand.

use crate::igep::igep;
use crate::iterative::gep_iterative;
use crate::spec::GepSpec;
use crate::theory::{delta_state, g_state_u, g_state_v, g_state_w, pi_state};
use crate::verify::TraceSpec;
use gep_matrix::Matrix;
use std::collections::HashMap;

/// One applied update with the operand values it read and the value it
/// wrote.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UpdateRecord<T> {
    /// Target row.
    pub i: usize,
    /// Target column.
    pub j: usize,
    /// Update index.
    pub k: usize,
    /// `c[i,j]` read.
    pub x: T,
    /// `c[i,k]` read.
    pub u: T,
    /// `c[k,j]` read.
    pub v: T,
    /// `c[k,k]` read.
    pub w: T,
    /// Value written to `c[i,j]`.
    pub out: T,
}

/// Runs iterative GEP on `c`, returning the time-ordered update records.
pub fn trace_g<S: GepSpec>(spec: &S, c: &mut Matrix<S::Elem>) -> Vec<UpdateRecord<S::Elem>> {
    let rec = TraceSpec::new(spec);
    gep_iterative(&rec, c);
    rec.into_log()
}

/// Runs I-GEP (base case 1, the literal Figure 2) on `c`, returning the
/// time-ordered update records.
pub fn trace_igep<S: GepSpec>(spec: &S, c: &mut Matrix<S::Elem>) -> Vec<UpdateRecord<S::Elem>> {
    let rec = TraceSpec::new(spec);
    igep(&rec, c, 1);
    rec.into_log()
}

/// Verifies Theorem 2.1 for `spec` on the given input: the I-GEP trace is
/// a permutation of the G trace with no duplicates, and each cell's
/// updates appear in increasing `k`.
///
/// Returns `Err` with a description of the first violation.
pub fn check_theorem_2_1<S: GepSpec>(spec: &S, init: &Matrix<S::Elem>) -> Result<(), String> {
    let g_trace = trace_g(spec, &mut init.clone());
    let f_trace = trace_igep(spec, &mut init.clone());

    let gset: std::collections::HashSet<(usize, usize, usize)> =
        g_trace.iter().map(|r| (r.i, r.j, r.k)).collect();
    let fset: std::collections::HashSet<(usize, usize, usize)> =
        f_trace.iter().map(|r| (r.i, r.j, r.k)).collect();
    if gset != fset {
        return Err(format!(
            "Σ_F != Σ_G: F-only {:?}, G-only {:?}",
            fset.difference(&gset).take(3).collect::<Vec<_>>(),
            gset.difference(&fset).take(3).collect::<Vec<_>>()
        ));
    }
    if f_trace.len() != fset.len() {
        return Err("F applied some update more than once".into());
    }
    let mut last_k: HashMap<(usize, usize), usize> = HashMap::new();
    for r in &f_trace {
        if let Some(&prev) = last_k.get(&(r.i, r.j)) {
            if r.k <= prev {
                return Err(format!(
                    "cell ({}, {}) updated with k={} after k={}",
                    r.i, r.j, r.k, prev
                ));
            }
        }
        last_k.insert((r.i, r.j), r.k);
    }
    Ok(())
}

/// Per-cell state table reconstructed from a trace: `state(cell, m)` =
/// value after all of the cell's updates with `k' < m`.
pub struct StateTable<T> {
    init: Matrix<T>,
    /// For each cell, its updates as (k, value-after), increasing in k.
    hist: HashMap<(usize, usize), Vec<(usize, T)>>,
}

impl<T: Copy> StateTable<T> {
    /// Builds from an initial matrix and a trace (which must update each
    /// cell in increasing `k` — guaranteed for G and, by Theorem 2.1, for
    /// I-GEP).
    pub fn new(init: Matrix<T>, trace: &[UpdateRecord<T>]) -> Self {
        let mut hist: HashMap<(usize, usize), Vec<(usize, T)>> = HashMap::new();
        for r in trace {
            let h = hist.entry((r.i, r.j)).or_default();
            debug_assert!(h.last().is_none_or(|&(k, _)| k < r.k));
            h.push((r.k, r.out));
        }
        Self { init, hist }
    }

    /// `state m` of cell `(i, j)`: value after all updates with `k' < m`.
    pub fn state(&self, i: usize, j: usize, m: usize) -> T {
        match self.hist.get(&(i, j)) {
            None => self.init[(i, j)],
            Some(h) => h
                .iter()
                .rev()
                .find(|&&(k, _)| k < m)
                .map_or(self.init[(i, j)], |&(_, v)| v),
        }
    }
}

/// Verifies Theorem 2.2 (and Table 1 column F): each operand value I-GEP
/// reads equals the π/δ-characterised state, reconstructed from the trace
/// itself.
pub fn check_theorem_2_2<S: GepSpec>(spec: &S, init: &Matrix<S::Elem>) -> Result<(), String> {
    let n = init.n();
    let trace = trace_igep(spec, &mut init.clone());
    let table = StateTable::new(init.clone(), &trace);
    for r in &trace {
        let (i, j, k) = (r.i, r.j, r.k);
        let expect_x = table.state(i, j, k);
        let expect_u = table.state(i, k, pi_state(n, j, k));
        let expect_v = table.state(k, j, pi_state(n, i, k));
        let expect_w = table.state(k, k, delta_state(n, i, j, k));
        if r.x != expect_x {
            return Err(format!(
                "⟨{i},{j},{k}⟩: x read {:?}, Thm2.2 expects {:?}",
                r.x, expect_x
            ));
        }
        if r.u != expect_u {
            return Err(format!(
                "⟨{i},{j},{k}⟩: u read {:?}, Thm2.2 expects {:?}",
                r.u, expect_u
            ));
        }
        if r.v != expect_v {
            return Err(format!(
                "⟨{i},{j},{k}⟩: v read {:?}, Thm2.2 expects {:?}",
                r.v, expect_v
            ));
        }
        if r.w != expect_w {
            return Err(format!(
                "⟨{i},{j},{k}⟩: w read {:?}, Thm2.2 expects {:?}",
                r.w, expect_w
            ));
        }
    }
    Ok(())
}

/// Verifies Table 1 column G: iterative GEP reads the
/// `k + Iverson-bracket` states.
pub fn check_table1_g<S: GepSpec>(spec: &S, init: &Matrix<S::Elem>) -> Result<(), String> {
    let trace = trace_g(spec, &mut init.clone());
    let table = StateTable::new(init.clone(), &trace);
    for r in &trace {
        let (i, j, k) = (r.i, r.j, r.k);
        let checks = [
            ("x", r.x, table.state(i, j, k)),
            ("u", r.u, table.state(i, k, g_state_u(i, j, k))),
            ("v", r.v, table.state(k, j, g_state_v(i, j, k))),
            ("w", r.w, table.state(k, k, g_state_w(i, j, k))),
        ];
        for (name, got, want) in checks {
            if got != want {
                return Err(format!(
                    "⟨{i},{j},{k}⟩: {name} read {got:?}, Table 1 expects {want:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClosureSpec, ExplicitSet, SumSpec};

    fn mix_spec(sigma: ExplicitSet) -> impl GepSpec<Elem = i64> {
        ClosureSpec::new(
            |i, j, k, x: i64, u, v, w| {
                x.wrapping_mul(3)
                    .wrapping_add(u.wrapping_mul(5))
                    .wrapping_add(v.wrapping_mul(7))
                    .wrapping_add(w.wrapping_mul(11))
                    .wrapping_add((i + 31 * j + 61 * k) as i64)
            },
            sigma,
        )
    }

    fn full_sigma(n: usize) -> ExplicitSet {
        ExplicitSet::from_iter(
            (0..n).flat_map(|i| (0..n).flat_map(move |j| (0..n).map(move |k| (i, j, k)))),
        )
    }

    fn random_sigma(n: usize, seed: u64, keep_mod: u64) -> ExplicitSet {
        let mut s = seed;
        let mut v = vec![];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    if s % keep_mod == 0 {
                        v.push((i, j, k));
                    }
                }
            }
        }
        ExplicitSet::from_iter(v)
    }

    fn init(n: usize) -> Matrix<i64> {
        Matrix::from_fn(n, n, |i, j| (i * n + j) as i64 + 1)
    }

    #[test]
    fn theorem_2_1_full_sigma() {
        for n in [1usize, 2, 4, 8, 16] {
            let spec = mix_spec(full_sigma(n));
            check_theorem_2_1(&spec, &init(n)).unwrap();
        }
    }

    #[test]
    fn theorem_2_1_random_sigma() {
        for n in [4usize, 8] {
            for seed in 1..6 {
                let spec = mix_spec(random_sigma(n, seed, 3));
                check_theorem_2_1(&spec, &init(n)).unwrap();
            }
        }
    }

    #[test]
    fn theorem_2_2_full_sigma() {
        for n in [1usize, 2, 4, 8, 16] {
            let spec = mix_spec(full_sigma(n));
            check_theorem_2_2(&spec, &init(n)).unwrap();
        }
    }

    #[test]
    fn theorem_2_2_random_sigma() {
        for n in [4usize, 8] {
            for seed in 10..15 {
                let spec = mix_spec(random_sigma(n, seed, 4));
                check_theorem_2_2(&spec, &init(n)).unwrap();
            }
        }
    }

    #[test]
    fn table1_g_column() {
        for n in [2usize, 4, 8] {
            let spec = mix_spec(full_sigma(n));
            check_table1_g(&spec, &init(n)).unwrap();
            let spec = mix_spec(random_sigma(n, 99, 2));
            check_table1_g(&spec, &init(n)).unwrap();
        }
    }

    #[test]
    fn g_and_f_orders_differ_but_sets_agree() {
        // On the 2×2 counterexample the *sets* of updates agree even though
        // the interleaving (and hence the result) differs.
        let init = Matrix::from_rows(&[vec![0i64, 0], vec![0, 1]]);
        check_theorem_2_1(&SumSpec, &init).unwrap();
        let g = trace_g(&SumSpec, &mut init.clone());
        let f = trace_igep(&SumSpec, &mut init.clone());
        assert_eq!(g.len(), 8);
        assert_eq!(f.len(), 8);
        let gsets: Vec<_> = g.iter().map(|r| (r.i, r.j, r.k)).collect();
        let fsets: Vec<_> = f.iter().map(|r| (r.i, r.j, r.k)).collect();
        assert_ne!(gsets, fsets, "total orders should differ");
    }

    #[test]
    fn state_table_reconstruction() {
        let spec = mix_spec(full_sigma(2));
        let i0 = init(2);
        let trace = trace_g(&spec, &mut i0.clone());
        let t = StateTable::new(i0.clone(), &trace);
        // State 0 is the initial value everywhere.
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(t.state(i, j, 0), i0[(i, j)]);
            }
        }
        // State 2 of any cell is its final value (all k' < 2 applied).
        let mut fin = i0.clone();
        gep_iterative(&spec, &mut fin);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(t.state(i, j, 2), fin[(i, j)]);
            }
        }
    }
}
