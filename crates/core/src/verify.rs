//! Differential verification: run a spec through every engine, localize
//! the first divergent update, and delta-minimize failing instances.
//!
//! [`crate::trace`] checks the paper's *structural* theorems (2.1, 2.2,
//! Table 1) for I-GEP. This module is the operational complement: a
//! cross-engine harness that treats [`crate::gep_iterative`] as the
//! defining semantics and answers, for any other engine, *where exactly*
//! it first departs from G — which update `⟨i,j,k⟩`, which operand
//! (`x`/`u`/`v`/`w`), what each side read, which Figure 3 snapshot slot
//! (`u0`/`u1`/`v0`/`v1`) was responsible for serving the read, and the τ
//! values that schedule that slot's save. A greedy delta-minimizer then
//! shrinks a failing `(n, Σ, f, c₀)` instance to a smallest witness.
//!
//! The harness is engine-agnostic: engines are registered as
//! [`Engine`] entries (name + function pointer), so new engines — and
//! deliberately broken ones, like [`cgep_full_buggy`] — are cross-checked
//! with one line. The `gep` facade crate extends the registry with the
//! multithreaded engines; `gep-bench`'s `diffcheck` binary is the CLI.

use crate::cgep::run_leaf;
use crate::spec::{ClosureSpec, ExplicitSet, GepSpec};
use crate::trace::UpdateRecord;
use crate::walk::{walk_leaves, Cube};
use gep_matrix::{halves_to_leaf, Matrix};
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Mutex;

/// A spec wrapper that records every applied update, usable from
/// multithreaded engines (the log is a mutex, and record order is never
/// relied upon — records are keyed by `⟨i,j,k⟩`, which Theorem 2.1
/// guarantees is applied at most once per engine run).
///
/// `kernel` is deliberately *not* forwarded: optimised app kernels bypass
/// [`GepSpec::update`], so tracing always routes through the generic
/// kernel, which applies `f` per update.
pub struct TraceSpec<'s, S: GepSpec> {
    inner: &'s S,
    log: Mutex<Vec<UpdateRecord<S::Elem>>>,
}

impl<'s, S: GepSpec> TraceSpec<'s, S> {
    /// Wraps `spec` with an empty log.
    pub fn new(spec: &'s S) -> Self {
        Self {
            inner: spec,
            log: Mutex::new(Vec::new()),
        }
    }

    /// Consumes the wrapper, returning the recorded updates in the order
    /// the engine applied them (nondeterministic across threads).
    pub fn into_log(self) -> Vec<UpdateRecord<S::Elem>> {
        self.log.into_inner().unwrap()
    }
}

impl<S: GepSpec> GepSpec for TraceSpec<'_, S> {
    type Elem = S::Elem;
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
        let out = self.inner.update(i, j, k, x, u, v, w);
        self.log.lock().unwrap().push(UpdateRecord {
            i,
            j,
            k,
            x,
            u,
            v,
            w,
            out,
        });
        out
    }
    fn in_sigma(&self, i: usize, j: usize, k: usize) -> bool {
        self.inner.in_sigma(i, j, k)
    }
    fn sigma_intersects(&self, ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> bool {
        self.inner.sigma_intersects(ib, jb, kb)
    }
    fn sigma_count(&self, ib: (usize, usize), jb: (usize, usize), kb: (usize, usize)) -> u64 {
        self.inner.sigma_count(ib, jb, kb)
    }
    fn tau(&self, n: usize, i: usize, j: usize, l: i64) -> Option<usize> {
        self.inner.tau(n, i, j, l)
    }
}

/// A named engine entry in the differential harness.
///
/// `run` executes the engine on `c` with the given base size, reading the
/// spec through a [`TraceSpec`] so every applied update is recorded.
pub struct Engine<S: GepSpec> {
    /// Display name (`"cgep_full"`, `"igep_parallel"`, …).
    pub name: &'static str,
    /// Whether the paper promises this engine equals G for **every**
    /// `f` and `Σ` (true for the C-GEP family, false for I-GEP, whose
    /// divergence on general Σ is the §2.2.1 counterexample, not a bug).
    pub fully_general: bool,
    /// Engine entry point: `(traced spec, matrix, base_size)`.
    pub run: fn(&TraceSpec<'_, S>, &mut Matrix<S::Elem>, usize),
}

/// The sequential engines of `gep-core`, in fixed registry order.
/// `gep::verify::all_engines` appends the multithreaded ones.
pub fn core_engines<S: GepSpec + Sync>() -> Vec<Engine<S>> {
    vec![
        Engine {
            name: "gep_iterative",
            fully_general: true,
            run: |s, c, _| crate::iterative::gep_iterative(s, c),
        },
        Engine {
            name: "igep",
            fully_general: false,
            run: |s, c, b| crate::igep::igep(s, c, b),
        },
        Engine {
            name: "igep_opt",
            fully_general: false,
            run: |s, c, b| crate::abcd::igep_opt(s, c, b),
        },
        Engine {
            name: "cgep_full",
            fully_general: true,
            run: |s, c, b| crate::cgep::cgep_full(s, c, b),
        },
        Engine {
            name: "cgep_reduced",
            fully_general: true,
            run: |s, c, b| {
                crate::cgep_reduced::cgep_reduced(s, c, b);
            },
        },
    ]
}

/// One engine execution: final matrix plus the recorded update stream.
pub struct EngineRun<T> {
    /// Engine display name.
    pub name: &'static str,
    /// Matrix after the run.
    pub result: Matrix<T>,
    /// Updates in application order.
    pub trace: Vec<UpdateRecord<T>>,
}

/// Runs `engine` on a copy of `init` under tracing.
pub fn run_traced<S: GepSpec>(
    spec: &S,
    init: &Matrix<S::Elem>,
    engine: &Engine<S>,
    base_size: usize,
) -> EngineRun<S::Elem> {
    let traced = TraceSpec::new(spec);
    let mut c = init.clone();
    (engine.run)(&traced, &mut c, base_size);
    EngineRun {
        name: engine.name,
        result: c,
        trace: traced.into_log(),
    }
}

/// The four snapshot matrices of Figure 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// State after updates with `k' ≤ b − 1` of cell `(a, b)`.
    U0,
    /// State after updates with `k' ≤ b`.
    U1,
    /// State after updates with `k' ≤ a − 1`.
    V0,
    /// State after updates with `k' ≤ a`.
    V1,
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Slot::U0 => "u0",
            Slot::U1 => "u1",
            Slot::V0 => "v0",
            Slot::V1 => "v1",
        })
    }
}

/// The Figure 3 slot that serves the `u = c[i,k]` read of `⟨i,j,k⟩`.
pub fn u_slot(j: usize, k: usize) -> Slot {
    if j > k {
        Slot::U1
    } else {
        Slot::U0
    }
}

/// The Figure 3 slot that serves the `v = c[k,j]` read of `⟨i,j,k⟩`.
pub fn v_slot(i: usize, k: usize) -> Slot {
    if i > k {
        Slot::V1
    } else {
        Slot::V0
    }
}

/// The Figure 3 slot that serves the `w = c[k,k]` read of `⟨i,j,k⟩`.
pub fn w_slot(i: usize, j: usize, k: usize) -> Slot {
    if i > k || (i == k && j > k) {
        Slot::U1
    } else {
        Slot::U0
    }
}

/// The state limit `l` captured by slot `(slot, a, b)`: the slot holds the
/// cell's value after all its updates with `k' ≤ l`, i.e. it is saved at
/// the update `⟨a, b, τ_ab(l)⟩`.
pub fn slot_limit(slot: Slot, a: usize, b: usize) -> i64 {
    match slot {
        Slot::U0 => b as i64 - 1,
        Slot::U1 => b as i64,
        Slot::V0 => a as i64 - 1,
        Slot::V1 => a as i64,
    }
}

/// Diagnosis of one divergent operand read.
#[derive(Clone, Copy, Debug)]
pub struct OperandDiff<T> {
    /// `"x"`, `"u"`, `"v"` or `"w"`.
    pub operand: &'static str,
    /// The cell the operand reads (`(i,j)`, `(i,k)`, `(k,j)` or `(k,k)`).
    pub cell: (usize, usize),
    /// What the engine under test read.
    pub got: T,
    /// What iterative GEP read.
    pub expected: T,
    /// The Figure 3 snapshot slot responsible for serving this read
    /// (`None` for `x`, which always reads the live cell).
    pub slot: Option<Slot>,
    /// The state limit `l` of that slot.
    pub slot_limit: Option<i64>,
    /// `τ_cell(l)` — the update index whose application must save the
    /// slot (`Some(None)` means τ is undefined: the slot keeps the
    /// initial value).
    pub save_tau: Option<Option<usize>>,
}

/// How an engine departs from iterative GEP.
#[derive(Clone, Debug)]
pub enum Divergence<T> {
    /// The engine applied an update outside `Σ` (or one G never applied).
    ExtraUpdate {
        /// The offending `⟨i,j,k⟩`.
        update: (usize, usize, usize),
    },
    /// The engine never applied an update G applied.
    MissingUpdate {
        /// The skipped `⟨i,j,k⟩`.
        update: (usize, usize, usize),
    },
    /// The engine applied one update more than once (violates Thm 2.1).
    DuplicateUpdate {
        /// The repeated `⟨i,j,k⟩`.
        update: (usize, usize, usize),
        /// Application count.
        times: usize,
    },
    /// The first update — in G's canonical `(k, i, j)` order — whose
    /// operand reads or written value differ between the engines.
    DivergentUpdate {
        /// The `⟨i,j,k⟩` of first divergence.
        update: (usize, usize, usize),
        /// The engine's record.
        got: UpdateRecord<T>,
        /// G's record.
        expected: UpdateRecord<T>,
        /// Per-operand diagnosis (only the operands that differ).
        operands: Vec<OperandDiff<T>>,
    },
    /// Every update matched yet the final matrices differ — an engine
    /// wrote somewhere outside the update stream.
    SilentMismatch {
        /// First differing cell in row-major order.
        cell: (usize, usize),
        /// Engine's final value.
        got: T,
        /// G's final value.
        expected: T,
    },
}

/// Outcome of diffing one engine against iterative GEP.
pub struct DiffReport<T> {
    /// Engine display name.
    pub engine: &'static str,
    /// Whether the engine claims full generality.
    pub fully_general: bool,
    /// `None` when the engine matched G exactly (trace and result).
    pub divergence: Option<Divergence<T>>,
    /// Whether the **final matrices** agree cell-for-cell. On a legal spec
    /// (Theorem 2.2 sense) I-GEP's per-update operands differ from G's —
    /// π/δ states vs Table 1 column G — while the result still matches;
    /// this field separates the two notions.
    pub result_matches: bool,
}

impl<T> DiffReport<T> {
    /// True when the engine matched G exactly on this instance — the full
    /// trace (operand values per update) *and* the final matrix.
    pub fn matches(&self) -> bool {
        self.divergence.is_none()
    }

    /// True when this report shows a *bug*: divergence on an engine that
    /// promises full generality. (I-GEP diverging on general Σ is the
    /// paper's §2.2.1 expectation, not a defect.)
    pub fn is_violation(&self) -> bool {
        self.fully_general && self.divergence.is_some()
    }
}

impl<T: fmt::Debug> fmt::Display for DiffReport<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.divergence {
            None => write!(f, "{}: OK (trace and result identical to G)", self.engine),
            Some(Divergence::ExtraUpdate { update }) => write!(
                f,
                "{}: applied update <{},{},{}> that iterative GEP never applies",
                self.engine, update.0, update.1, update.2
            ),
            Some(Divergence::MissingUpdate { update }) => write!(
                f,
                "{}: never applied update <{},{},{}> from Σ",
                self.engine, update.0, update.1, update.2
            ),
            Some(Divergence::DuplicateUpdate { update, times }) => write!(
                f,
                "{}: applied update <{},{},{}> {} times (Theorem 2.1 requires exactly once)",
                self.engine, update.0, update.1, update.2, times
            ),
            Some(Divergence::DivergentUpdate {
                update,
                got,
                expected,
                operands,
            }) => {
                writeln!(
                    f,
                    "{}: first divergent update <{},{},{}> (in G's k-major order)",
                    self.engine, update.0, update.1, update.2
                )?;
                writeln!(
                    f,
                    "  G    read x={:?} u={:?} v={:?} w={:?} -> wrote {:?}",
                    expected.x, expected.u, expected.v, expected.w, expected.out
                )?;
                writeln!(
                    f,
                    "  {:4} read x={:?} u={:?} v={:?} w={:?} -> wrote {:?}",
                    self.engine, got.x, got.u, got.v, got.w, got.out
                )?;
                for d in operands {
                    write!(
                        f,
                        "  operand {} = c[{},{}]: got {:?}, G read {:?}",
                        d.operand, d.cell.0, d.cell.1, d.got, d.expected
                    )?;
                    if let (Some(slot), Some(limit), Some(tau)) = (d.slot, d.slot_limit, d.save_tau)
                    {
                        write!(
                            f,
                            " [Fig. 3 slot {slot}[{},{}], state limit l={limit}, ",
                            d.cell.0, d.cell.1
                        )?;
                        match tau {
                            Some(t) => write!(f, "saved at k=τ={t}]")?,
                            None => write!(f, "τ undefined: slot keeps the initial value]")?,
                        }
                    }
                    writeln!(f)?;
                }
                if self.result_matches {
                    writeln!(
                        f,
                        "  (final matrices nevertheless agree — \
                         trace-level divergence only)"
                    )?;
                }
                Ok(())
            }
            Some(Divergence::SilentMismatch {
                cell,
                got,
                expected,
            }) => write!(
                f,
                "{}: all updates matched G yet c[{},{}] ended as {:?} (G: {:?}) — \
                 write outside the update stream",
                self.engine, cell.0, cell.1, got, expected
            ),
        }
    }
}

/// Diffs `engine` against iterative GEP on `init`, localizing the first
/// divergence (if any) in G's canonical update order.
pub fn diff_engine<S: GepSpec>(
    spec: &S,
    init: &Matrix<S::Elem>,
    engine: &Engine<S>,
    base_size: usize,
) -> DiffReport<S::Elem> {
    let n = init.n();
    let g = {
        let traced = TraceSpec::new(spec);
        let mut c = init.clone();
        crate::iterative::gep_iterative(&traced, &mut c);
        EngineRun {
            name: "gep_iterative",
            result: c,
            trace: traced.into_log(),
        }
    };
    let e = run_traced(spec, init, engine, base_size);

    let result_matches = (0..n).all(|i| (0..n).all(|j| e.result[(i, j)] == g.result[(i, j)]));
    let report = |d| DiffReport {
        engine: engine.name,
        fully_general: engine.fully_general,
        divergence: d,
        result_matches,
    };

    // Index the engine's records; duplicates violate Theorem 2.1.
    let mut by_key: HashMap<(usize, usize, usize), UpdateRecord<S::Elem>> = HashMap::new();
    let mut counts: HashMap<(usize, usize, usize), usize> = HashMap::new();
    for r in &e.trace {
        let key = (r.i, r.j, r.k);
        *counts.entry(key).or_insert(0) += 1;
        by_key.entry(key).or_insert(*r);
    }
    if let Some((&update, &times)) = counts.iter().find(|&(_, &c)| c > 1) {
        return report(Some(Divergence::DuplicateUpdate { update, times }));
    }

    // Walk G's trace in canonical order: the first update the engine
    // skipped or executed with different operand values localizes the bug.
    for gr in &g.trace {
        let key = (gr.i, gr.j, gr.k);
        let Some(er) = by_key.get(&key) else {
            return report(Some(Divergence::MissingUpdate { update: key }));
        };
        if er != gr {
            let (i, j, k) = key;
            let mut operands = Vec::new();
            let mut diag = |operand: &'static str,
                            cell: (usize, usize),
                            got: S::Elem,
                            expected: S::Elem,
                            slot: Option<Slot>| {
                if got != expected {
                    let slot_limit = slot.map(|s| slot_limit(s, cell.0, cell.1));
                    let save_tau = slot_limit.map(|l| spec.tau(n, cell.0, cell.1, l));
                    operands.push(OperandDiff {
                        operand,
                        cell,
                        got,
                        expected,
                        slot,
                        slot_limit,
                        save_tau,
                    });
                }
            };
            diag("x", (i, j), er.x, gr.x, None);
            diag("u", (i, k), er.u, gr.u, Some(u_slot(j, k)));
            diag("v", (k, j), er.v, gr.v, Some(v_slot(i, k)));
            diag("w", (k, k), er.w, gr.w, Some(w_slot(i, j, k)));
            return report(Some(Divergence::DivergentUpdate {
                update: key,
                got: *er,
                expected: *gr,
                operands,
            }));
        }
    }
    // Updates G never applied but the engine did.
    if let Some(r) = e.trace.iter().find(|r| {
        !g.trace
            .iter()
            .any(|gr| (gr.i, gr.j, gr.k) == (r.i, r.j, r.k))
    }) {
        return report(Some(Divergence::ExtraUpdate {
            update: (r.i, r.j, r.k),
        }));
    }
    // Identical traces: the results must agree cell-for-cell.
    for i in 0..n {
        for j in 0..n {
            if e.result[(i, j)] != g.result[(i, j)] {
                return report(Some(Divergence::SilentMismatch {
                    cell: (i, j),
                    got: e.result[(i, j)],
                    expected: g.result[(i, j)],
                }));
            }
        }
    }
    report(None)
}

/// Diffs every registered engine, returning one report per engine.
pub fn diff_engines<S: GepSpec>(
    spec: &S,
    init: &Matrix<S::Elem>,
    engines: &[Engine<S>],
    base_size: usize,
) -> Vec<DiffReport<S::Elem>> {
    engines
        .iter()
        .map(|e| diff_engine(spec, init, e, base_size))
        .collect()
}

// ---------------------------------------------------------------------------
// Replayable instances and delta-minimization
// ---------------------------------------------------------------------------

/// A self-contained general-Σ GEP instance with the affine update function
/// used by the fuzz property (`tests/properties.rs::cgep_is_fully_general`):
///
/// ```text
/// f(i,j,k,x,u,v,w) = ca·x + cb·u + cc·v + cd·w + (i + 2j + 4k)   (wrapping)
/// ```
///
/// Everything needed to replay a failure — side, explicit Σ, coefficients,
/// initial values — in one cloneable value, so the minimizer can mutate
/// candidates freely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffineInstance {
    /// Matrix side: one that halves to a leaf for the recursive engines
    /// (`gep_matrix::halves_to_leaf`), a power of two for `cgep_parallel`.
    pub n: usize,
    /// Explicit update set (duplicates are collapsed by the spec).
    pub sigma: Vec<(usize, usize, usize)>,
    /// `(ca, cb, cc, cd)` — weights of `x, u, v, w`.
    pub coeffs: (i64, i64, i64, i64),
    /// Row-major initial matrix, `n²` values.
    pub vals: Vec<i64>,
}

impl AffineInstance {
    /// The spec: affine `f` over the explicit Σ.
    #[allow(clippy::type_complexity)]
    pub fn spec(
        &self,
    ) -> ClosureSpec<i64, impl Fn(usize, usize, usize, i64, i64, i64, i64) -> i64> {
        let (ca, cb, cc, cd) = self.coeffs;
        ClosureSpec::new(
            move |i: usize, j: usize, k: usize, x: i64, u: i64, v: i64, w: i64| {
                x.wrapping_mul(ca)
                    .wrapping_add(u.wrapping_mul(cb))
                    .wrapping_add(v.wrapping_mul(cc))
                    .wrapping_add(w.wrapping_mul(cd))
                    .wrapping_add((i + 2 * j + 4 * k) as i64)
            },
            ExplicitSet::from_iter(self.sigma.iter().copied()),
        )
    }

    /// The initial matrix.
    pub fn init(&self) -> Matrix<i64> {
        let n = self.n;
        Matrix::from_fn(n, n, |i, j| self.vals[i * n + j])
    }
}

impl fmt::Display for AffineInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "n = {}, f = {}·x + {}·u + {}·v + {}·w + (i + 2j + 4k)",
            self.n, self.coeffs.0, self.coeffs.1, self.coeffs.2, self.coeffs.3
        )?;
        writeln!(f, "Σ ({} triples) = {:?}", self.sigma.len(), self.sigma)?;
        write!(f, "c₀ = ")?;
        for i in 0..self.n {
            let row = &self.vals[i * self.n..(i + 1) * self.n];
            write!(f, "{}{row:?}", if i == 0 { "" } else { "; " })?;
        }
        Ok(())
    }
}

/// Greedy delta-minimization of a failing instance: repeatedly
///
/// 1. halves `n` whenever every Σ-triple fits the top-left quadrant,
/// 2. compacts the used index values onto `0..m` (order-preserving), so a
///    witness stranded at high indices can migrate to the origin,
/// 3. removes Σ-triples ddmin-style (chunks from `|Σ|/2` down to 1),
/// 4. zeroes initial values,
///
/// keeping each mutation only if `still_fails` holds, until a fixed point.
/// Index compaction does not preserve τ adjacency (`j−1`-style offsets),
/// which is fine: every candidate is revalidated before acceptance.
/// `still_fails(&instance)` must be true for the input instance.
pub fn minimize(
    inst: &AffineInstance,
    still_fails: &dyn Fn(&AffineInstance) -> bool,
) -> AffineInstance {
    assert!(
        still_fails(inst),
        "minimize: the starting instance does not fail"
    );
    let mut cur = inst.clone();
    loop {
        let mut progressed = false;

        // 1. Shrink n while Σ fits in the top-left half.
        while cur.n > 1 {
            let m = cur.n / 2;
            if !cur.sigma.iter().all(|&(i, j, k)| i < m && j < m && k < m) {
                break;
            }
            let cand = AffineInstance {
                n: m,
                sigma: cur.sigma.clone(),
                coeffs: cur.coeffs,
                vals: (0..m)
                    .flat_map(|i| cur.vals[i * cur.n..i * cur.n + m].to_vec())
                    .collect(),
            };
            if still_fails(&cand) {
                cur = cand;
                progressed = true;
            } else {
                break;
            }
        }

        // 2. Compact coordinates: remap the distinct index values used by
        // Σ onto 0..m (order-preserving) and keep only the matching rows
        // and columns of c₀, so the n-halving above can bite.
        let mut used: Vec<usize> = cur.sigma.iter().flat_map(|&(i, j, k)| [i, j, k]).collect();
        used.sort_unstable();
        used.dedup();
        if let Some(&top) = used.last() {
            let m = used.len().next_power_of_two();
            if m < cur.n || top + 1 > used.len() {
                let rank = |x: usize| used.binary_search(&x).unwrap();
                let mut vals = vec![0i64; m * m];
                for (a, &ia) in used.iter().enumerate() {
                    for (b, &jb) in used.iter().enumerate() {
                        vals[a * m + b] = cur.vals[ia * cur.n + jb];
                    }
                }
                let cand = AffineInstance {
                    n: m,
                    sigma: cur
                        .sigma
                        .iter()
                        .map(|&(i, j, k)| (rank(i), rank(j), rank(k)))
                        .collect(),
                    coeffs: cur.coeffs,
                    vals,
                };
                if still_fails(&cand) {
                    cur = cand;
                    progressed = true;
                }
            }
        }

        // 3. ddmin over Σ.
        let mut chunk = (cur.sigma.len() / 2).max(1);
        loop {
            let mut idx = 0;
            while idx < cur.sigma.len() {
                let mut cand = cur.clone();
                let end = (idx + chunk).min(cand.sigma.len());
                cand.sigma.drain(idx..end);
                if still_fails(&cand) {
                    cur = cand;
                    progressed = true;
                } else {
                    idx += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // 4. Zero initial values.
        for idx in 0..cur.vals.len() {
            if cur.vals[idx] == 0 {
                continue;
            }
            let mut cand = cur.clone();
            cand.vals[idx] = 0;
            if still_fails(&cand) {
                cur = cand;
                progressed = true;
            }
        }

        if !progressed {
            return cur;
        }
    }
}

// ---------------------------------------------------------------------------
// The reintroduced bug: a C-GEP with the historical wrong snapshot rule
// ---------------------------------------------------------------------------

/// C-GEP (Figure 3) with the **wrong** `w`-read Iverson bracket:
/// `i ≥ k` instead of `i > k ∨ (i = k ∧ j > k)`.
///
/// This is the transcription error behind the recorded
/// `cgep_is_fully_general` regression (see `docs/THEORY.md`): on updates
/// `⟨k, j, k⟩` with `j ≤ k` it reads `u1[k,k]` — the pivot's state *after*
/// its `k`-th update — where Table 1 column G requires `u0[k,k]`, the state
/// before it. Any Σ containing `⟨k,j,k⟩, j ≤ k` together with an update
/// `⟨k,k,k'⟩, k' ≤ k` that changes the pivot will diverge.
///
/// It walks the same leaves as [`crate::cgep_full`] and runs C-GEP's own
/// leaf body — the same snapshot reads and τ saves — with only that
/// bracket swapped.
///
/// Kept (deliberately broken, never exported to `prelude`) as the harness
/// fixture: tests and the `diffcheck demo` subcommand run it through
/// [`diff_engine`] to prove divergence localization and minimization work.
pub fn cgep_full_buggy<S>(spec: &S, c: &mut Matrix<S::Elem>, base_size: usize)
where
    S: GepSpec,
{
    let n = c.n();
    if n == 0 {
        return;
    }
    assert!(
        halves_to_leaf(n, base_size),
        "C-GEP needs side = leaf·power-of-two with leaf <= base"
    );
    let mut u0 = c.clone();
    let mut u1 = c.clone();
    let mut v0 = c.clone();
    let mut v1 = c.clone();
    // BUG (planted): `i >= k` replaces the Figure 3 bracket
    // `i > k ∨ (i = k ∧ j > k)`.
    let planted = |i: usize, _: usize, k: usize| i >= k;
    walk_leaves(spec, Cube::root(n), base_size, &mut |leaf| {
        run_leaf(spec, c, &mut u0, &mut u1, &mut v0, &mut v1, leaf, planted);
        ControlFlow::Continue(())
    });
}

/// [`Engine`] entry for [`cgep_full_buggy`] (marked fully general — the
/// point of the fixture is that the harness must catch the lie).
pub fn buggy_engine<S: GepSpec + Sync>() -> Engine<S> {
    Engine {
        name: "cgep_full_buggy",
        fully_general: true,
        run: |s, c, b| cgep_full_buggy(s, c, b),
    }
}

/// The shrunk instance recorded in `tests/properties.proptest-regressions`
/// for `cgep_is_fully_general` (n = 8, 38 explicit Σ-triples, affine f),
/// promoted to a deterministic fixture so the case can never silently rot.
pub fn recorded_regression() -> AffineInstance {
    AffineInstance {
        n: 8,
        sigma: vec![
            (0, 4, 1),
            (0, 0, 0),
            (6, 4, 0),
            (3, 0, 4),
            (0, 0, 1),
            (0, 2, 6),
            (5, 5, 1),
            (3, 2, 0),
            (5, 6, 0),
            (1, 3, 2),
            (2, 4, 5),
            (1, 1, 2),
            (2, 0, 3),
            (4, 5, 7),
            (5, 6, 3),
            (4, 7, 3),
            (7, 2, 7),
            (0, 7, 2),
            (6, 5, 3),
            (3, 0, 7),
            (3, 3, 5),
            (7, 3, 4),
            (1, 3, 7),
            (1, 2, 4),
            (7, 7, 7),
            (3, 1, 1),
            (4, 4, 7),
            (2, 1, 0),
            (2, 4, 2),
            (7, 6, 6),
            (5, 5, 0),
            (3, 2, 1),
            (5, 2, 3),
            (3, 0, 6),
            (0, 3, 3),
            (2, 6, 7),
            (0, 1, 4),
            (0, 4, 3),
        ],
        coeffs: (-1, -3, -3, -3),
        vals: vec![
            -57, -34, -91, 59, -73, -68, -92, 2, -84, -58, -79, -90, -21, -14, -14, 90, 39, -38,
            -53, 68, 19, 100, 83, 1, 83, -78, 19, -75, 78, 20, 75, 4, 29, -50, 58, 72, 100, 3, -55,
            79, -33, -72, -15, -34, -38, 48, -47, -64, -75, 23, 4, 2, -52, 69, 62, 72, -15, -16,
            -59, -14, -28, -52, -17, 27,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SumSpec;

    fn order_revealing(sigma: Vec<(usize, usize, usize)>) -> AffineInstance {
        let n = sigma
            .iter()
            .map(|&(i, j, k)| i.max(j).max(k) + 1)
            .max()
            .unwrap_or(1);
        let n = n.next_power_of_two();
        AffineInstance {
            n,
            sigma,
            coeffs: (3, 5, 7, 11),
            vals: (0..n * n).map(|x| x as i64 + 1).collect(),
        }
    }

    #[test]
    fn cgep_engines_match_g_on_recorded_regression() {
        let inst = recorded_regression();
        let spec = inst.spec();
        let init = inst.init();
        for e in core_engines() {
            let rep = diff_engine(&spec, &init, &e, 1);
            assert!(!rep.is_violation(), "{rep}");
        }
    }

    #[test]
    fn igep_divergence_is_localized_on_sum_counterexample() {
        // §2.2.1: on c = [[0,0],[0,1]] with f = sum, I-GEP departs from G.
        // All four k = 0 updates read identical operands in both engines;
        // the first divergent record in G's canonical order is <0,0,1>,
        // which I-GEP applies last — after its backward pass has already
        // pushed c[0,1], c[1,0] and c[1,1] past the states G reads.
        let init = Matrix::from_rows(&[vec![0i64, 0], vec![0, 1]]);
        let engines = core_engines::<SumSpec>();
        let igep = engines.iter().find(|e| e.name == "igep").unwrap();
        let rep = diff_engine(&SumSpec, &init, igep, 1);
        assert!(!rep.is_violation(), "igep is not fully general by design");
        match rep.divergence {
            Some(Divergence::DivergentUpdate {
                update,
                ref operands,
                ..
            }) => {
                assert_eq!(update, (0, 0, 1));
                assert!(!operands.is_empty());
            }
            ref d => panic!("expected DivergentUpdate, got {d:?}"),
        }
    }

    #[test]
    fn buggy_cgep_is_caught_and_localized() {
        let inst = recorded_regression();
        let spec = inst.spec();
        let init = inst.init();
        let rep = diff_engine(&spec, &init, &buggy_engine(), 1);
        assert!(rep.is_violation(), "the planted bug must be detected");
        match rep.divergence {
            Some(Divergence::DivergentUpdate {
                update,
                ref operands,
                ..
            }) => {
                let (i, _j, k) = update;
                // The planted bracket bug only fires on diagonal-row
                // updates <k, j, k>.
                assert_eq!(i, k, "w-bracket bug fires on i == k");
                assert!(
                    operands.iter().any(|d| d.operand == "w"),
                    "the diverging operand must be w"
                );
            }
            ref d => panic!("expected DivergentUpdate, got {d:?}"),
        }
    }

    #[test]
    fn minimizer_shrinks_buggy_witness_to_n_at_most_4() {
        let inst = recorded_regression();
        let fails = |cand: &AffineInstance| {
            diff_engine(&cand.spec(), &cand.init(), &buggy_engine(), 1).is_violation()
        };
        let min = minimize(&inst, &fails);
        assert!(fails(&min), "minimized instance must still fail");
        assert!(min.n <= 4, "minimized to n = {}", min.n);
        assert!(min.sigma.len() <= 4, "minimized Σ = {:?}", min.sigma);
    }

    #[test]
    fn minimizer_is_identity_on_already_minimal_witness() {
        // <0,0,0> alone cannot fail; a 2-triple witness of the planted bug:
        // <0,0,0> changes the pivot, <1,1,1> with <1,0,1> reads it.
        let inst = order_revealing(vec![(0, 0, 0)]);
        let ok = |cand: &AffineInstance| {
            diff_engine(&cand.spec(), &cand.init(), &buggy_engine(), 1).is_violation()
        };
        assert!(!ok(&inst), "single <0,0,0> cannot trip the w-bracket bug");
    }

    #[test]
    fn extra_and_missing_updates_are_reported() {
        // An "engine" that skips every update: every Σ member is missing.
        let skip = Engine::<SumSpec> {
            name: "skip_all",
            fully_general: true,
            run: |_, _, _| {},
        };
        let init = Matrix::from_rows(&[vec![1i64, 2], vec![3, 4]]);
        let rep = diff_engine(&SumSpec, &init, &skip, 1);
        assert!(matches!(
            rep.divergence,
            Some(Divergence::MissingUpdate { update: (0, 0, 0) })
        ));
    }

    #[test]
    fn trace_spec_records_through_default_kernel() {
        let traced = TraceSpec::new(&SumSpec);
        let mut c = Matrix::from_rows(&[vec![0i64, 0], vec![0, 1]]);
        crate::abcd::igep_opt(&traced, &mut c, 2);
        let log = traced.into_log();
        assert_eq!(log.len(), 8, "2³ updates recorded through the kernel");
    }

    #[test]
    fn report_display_is_informative() {
        let inst = recorded_regression();
        let spec = inst.spec();
        let init = inst.init();
        let rep = diff_engine(&spec, &init, &buggy_engine(), 1);
        let text = format!("{rep}");
        assert!(text.contains("first divergent update"), "{text}");
        assert!(text.contains("operand w"), "{text}");
        assert!(text.contains("slot"), "{text}");
    }
}
