//! Multithreaded **C-GEP** (paper Section 3: "a similar parallel
//! algorithm with the same parallel time bound applies to C-GEP").
//!
//! The recursion and the parallel grouping are exactly Figure 6's; only
//! the base-case update differs — it reads the snapshot matrices and
//! performs the τ-scheduled saves of Figure 3. The dependency argument
//! carries over because every snapshot write of a task targets the same
//! `(i, j)` cells as its `c` writes (each update saves only into its own
//! cell's slots), so the groups' write sets stay pairwise disjoint, and
//! snapshot *reads* target the `U`/`V`/`W` panel regions that no group
//! member writes.

use gep_core::{GepMat, GepSpec, Joiner};
use gep_matrix::Matrix;

/// The five shared matrices of a C-GEP execution.
struct Mats<'a, T> {
    c: GepMat<'a, T>,
    u0: GepMat<'a, T>,
    u1: GepMat<'a, T>,
    v0: GepMat<'a, T>,
    v1: GepMat<'a, T>,
}

impl<T> Clone for Mats<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Mats<'_, T> {}

/// Runs multithreaded C-GEP (4n² variant) on the current rayon pool;
/// equivalent to iterative GEP for **every** spec.
///
/// Unlike the sequential C-GEPs, this engine keeps the power-of-two rule:
/// its Figure 6 grouping is its own recursion, not the leaf walker, and
/// no differential covers it on a fitted side yet (ROADMAP.md, "One side rule").
///
/// # Panics
/// Panics unless `c` is square with a power-of-two side.
pub fn cgep_parallel<S>(spec: &S, c: &mut Matrix<S::Elem>, base_size: usize)
where
    S: GepSpec + Sync,
{
    let n = c.n();
    if n == 0 {
        return; // Σ ⊆ [0,0)³ is empty — match gep_iterative's no-op.
    }
    assert!(n.is_power_of_two(), "C-GEP needs a power-of-two side");
    assert!(base_size >= 1);
    let _span = gep_obs::span("cgep_parallel", "parallel")
        .arg("n", n as i64)
        .arg("base", base_size as i64)
        .arg("threads", rayon::current_num_threads() as i64);
    let mut u0 = c.clone();
    let mut u1 = c.clone();
    let mut v0 = c.clone();
    let mut v1 = c.clone();
    let mats = Mats {
        c: GepMat::new(c),
        u0: GepMat::new(&mut u0),
        u1: GepMat::new(&mut u1),
        v0: GepMat::new(&mut v0),
        v1: GepMat::new(&mut v1),
    };
    // SAFETY: exclusive borrows of all five matrices; `h_a` upholds the
    // Figure 6 disjoint-writes discipline extended to the snapshot
    // matrices (module docs).
    unsafe { h_a(&crate::RayonJoiner, spec, mats, 0, 0, 0, n, base_size) }
}

/// One Figure 3 update with snapshot reads and saves, on raw matrices.
///
/// # Safety
/// Caller guarantees exclusive write access to cell `(i, j)` of all five
/// matrices and read stability of the panel cells.
#[inline]
unsafe fn apply<S: GepSpec>(
    spec: &S,
    m: Mats<'_, S::Elem>,
    n: usize,
    i: usize,
    j: usize,
    k: usize,
) {
    let x = m.c.get(i, j);
    let u = if j > k {
        m.u1.get(i, k)
    } else {
        m.u0.get(i, k)
    };
    let v = if i > k {
        m.v1.get(k, j)
    } else {
        m.v0.get(k, j)
    };
    let w = if i > k || (i == k && j > k) {
        m.u1.get(k, k)
    } else {
        m.u0.get(k, k)
    };
    let nv = spec.update(i, j, k, x, u, v, w);
    m.c.set(i, j, nv);
    if Some(k) == spec.tau(n, i, j, j as i64 - 1) {
        m.u0.set(i, j, nv);
    }
    if Some(k) == spec.tau(n, i, j, j as i64) {
        m.u1.set(i, j, nv);
    }
    if Some(k) == spec.tau(n, i, j, i as i64 - 1) {
        m.v0.set(i, j, nv);
    }
    if Some(k) == spec.tau(n, i, j, i as i64) {
        m.v1.set(i, j, nv);
    }
}

/// Iterative base-case kernel (k-major order, like G).
unsafe fn kernel<S: GepSpec>(
    spec: &S,
    m: Mats<'_, S::Elem>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
) {
    let n = m.c.n();
    for k in kk..kk + s {
        for i in xr..xr + s {
            for j in xc..xc + s {
                if spec.in_sigma(i, j, k) {
                    apply(spec, m, n, i, j, k);
                }
            }
        }
    }
}

macro_rules! pruned {
    ($spec:expr, $xr:expr, $xc:expr, $kk:expr, $s:expr) => {
        !$spec.sigma_intersects(
            ($xr, $xr + $s - 1),
            ($xc, $xc + $s - 1),
            ($kk, $kk + $s - 1),
        )
    };
}

#[allow(clippy::too_many_arguments)]
unsafe fn h_a<S: GepSpec + Sync, J: Joiner>(
    j_: &J,
    spec: &S,
    m: Mats<'_, S::Elem>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    base: usize,
) {
    if pruned!(spec, xr, xc, kk, s) {
        return;
    }
    if s <= base {
        kernel(spec, m, xr, xc, kk, s);
        return;
    }
    let h = s / 2;
    h_a(j_, spec, m, xr, xc, kk, h, base);
    j_.join(
        || h_b(j_, spec, m, xr, xc + h, kk, h, base),
        || h_c(j_, spec, m, xr + h, xc, kk, h, base),
    );
    h_d(j_, spec, m, xr + h, xc + h, kk, h, base);
    h_a(j_, spec, m, xr + h, xc + h, kk + h, h, base);
    j_.join(
        || h_b(j_, spec, m, xr + h, xc, kk + h, h, base),
        || h_c(j_, spec, m, xr, xc + h, kk + h, h, base),
    );
    h_d(j_, spec, m, xr, xc, kk + h, h, base);
}

#[allow(clippy::too_many_arguments)]
unsafe fn h_b<S: GepSpec + Sync, J: Joiner>(
    j_: &J,
    spec: &S,
    m: Mats<'_, S::Elem>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    base: usize,
) {
    if pruned!(spec, xr, xc, kk, s) {
        return;
    }
    if s <= base {
        kernel(spec, m, xr, xc, kk, s);
        return;
    }
    let h = s / 2;
    j_.join(
        || h_b(j_, spec, m, xr, xc, kk, h, base),
        || h_b(j_, spec, m, xr, xc + h, kk, h, base),
    );
    j_.join(
        || h_d(j_, spec, m, xr + h, xc, kk, h, base),
        || h_d(j_, spec, m, xr + h, xc + h, kk, h, base),
    );
    j_.join(
        || h_b(j_, spec, m, xr + h, xc, kk + h, h, base),
        || h_b(j_, spec, m, xr + h, xc + h, kk + h, h, base),
    );
    j_.join(
        || h_d(j_, spec, m, xr, xc, kk + h, h, base),
        || h_d(j_, spec, m, xr, xc + h, kk + h, h, base),
    );
}

#[allow(clippy::too_many_arguments)]
unsafe fn h_c<S: GepSpec + Sync, J: Joiner>(
    j_: &J,
    spec: &S,
    m: Mats<'_, S::Elem>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    base: usize,
) {
    if pruned!(spec, xr, xc, kk, s) {
        return;
    }
    if s <= base {
        kernel(spec, m, xr, xc, kk, s);
        return;
    }
    let h = s / 2;
    j_.join(
        || h_c(j_, spec, m, xr, xc, kk, h, base),
        || h_c(j_, spec, m, xr + h, xc, kk, h, base),
    );
    j_.join(
        || h_d(j_, spec, m, xr, xc + h, kk, h, base),
        || h_d(j_, spec, m, xr + h, xc + h, kk, h, base),
    );
    j_.join(
        || h_c(j_, spec, m, xr, xc + h, kk + h, h, base),
        || h_c(j_, spec, m, xr + h, xc + h, kk + h, h, base),
    );
    j_.join(
        || h_d(j_, spec, m, xr, xc, kk + h, h, base),
        || h_d(j_, spec, m, xr + h, xc, kk + h, h, base),
    );
}

#[allow(clippy::too_many_arguments)]
unsafe fn h_d<S: GepSpec + Sync, J: Joiner>(
    j_: &J,
    spec: &S,
    m: Mats<'_, S::Elem>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    base: usize,
) {
    if pruned!(spec, xr, xc, kk, s) {
        return;
    }
    if s <= base {
        kernel(spec, m, xr, xc, kk, s);
        return;
    }
    let h = s / 2;
    j_.join4(
        || h_d(j_, spec, m, xr, xc, kk, h, base),
        || h_d(j_, spec, m, xr, xc + h, kk, h, base),
        || h_d(j_, spec, m, xr + h, xc, kk, h, base),
        || h_d(j_, spec, m, xr + h, xc + h, kk, h, base),
    );
    j_.join4(
        || h_d(j_, spec, m, xr, xc, kk + h, h, base),
        || h_d(j_, spec, m, xr, xc + h, kk + h, h, base),
        || h_d(j_, spec, m, xr + h, xc, kk + h, h, base),
        || h_d(j_, spec, m, xr + h, xc + h, kk + h, h, base),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;
    use gep_core::{cgep_full, gep_iterative, SumSpec};

    #[test]
    fn parallel_cgep_fixes_the_counterexample() {
        let init = Matrix::from_rows(&[vec![0i64, 0], vec![0, 1]]);
        let mut h = init.clone();
        with_threads(2, || cgep_parallel(&SumSpec, &mut h, 1));
        assert_eq!(h[(1, 0)], 2);
    }

    #[test]
    fn parallel_cgep_equals_sequential_cgep_on_general_spec() {
        for n in [4usize, 16, 64] {
            let init = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 13) as i64 - 6);
            let mut seq = init.clone();
            cgep_full(&SumSpec, &mut seq, 4);
            for threads in [1usize, 3, 4] {
                let mut par = init.clone();
                with_threads(threads, || cgep_parallel(&SumSpec, &mut par, 4));
                assert_eq!(par, seq, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_cgep_on_fw_matches_g() {
        use gep_apps::floyd_warshall::FwSpec;
        let n = 64;
        let mut s = 31u64;
        let init = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0i64
            } else {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 90) as i64 + 1
            }
        });
        let mut g = init.clone();
        gep_iterative(&FwSpec::<i64>::new(), &mut g);
        let mut par = init.clone();
        with_threads(4, || cgep_parallel(&FwSpec::<i64>::new(), &mut par, 8));
        assert_eq!(par, g);
    }

    #[test]
    fn repeated_runs_deterministic() {
        let n = 32;
        let init = Matrix::from_fn(n, n, |i, j| (i * n + j) as i64 % 17 - 8);
        let mut first = init.clone();
        with_threads(4, || cgep_parallel(&SumSpec, &mut first, 2));
        for _ in 0..3 {
            let mut again = init.clone();
            with_threads(4, || cgep_parallel(&SumSpec, &mut again, 2));
            assert_eq!(again, first);
        }
    }
}
