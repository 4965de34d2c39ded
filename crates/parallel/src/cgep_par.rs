//! Multithreaded **C-GEP** (paper Section 3: "a similar parallel
//! algorithm with the same parallel time bound applies to C-GEP").
//!
//! The recursion and the parallel grouping are exactly Figure 6's, and
//! so is the code: [`gep_core::cgep::cgep_abcd`] runs C-GEP's snapshot
//! leaf on the same A/B/C/D tree as [`crate::igep_parallel`]. The
//! dependency argument carries over because every snapshot write of a
//! task targets the same `(i, j)` cells as its `c` writes (each update
//! saves only into its own cell's slots), so the groups' write sets stay
//! pairwise disjoint, and snapshot *reads* target the `U`/`V`/`W` panel
//! regions that no group member writes.

use gep_core::GepSpec;
use gep_matrix::Matrix;

/// Runs multithreaded C-GEP (4n² variant) on the current rayon pool;
/// equivalent to iterative GEP for **every** spec.
///
/// # Panics
/// Panics unless `c` is square with a side that halves exactly down to
/// leaves of side `<= base_size` (a power of two, or a
/// [`gep_matrix::fit_side`] for the same base), and `1 <= base_size`.
pub fn cgep_parallel<S>(spec: &S, c: &mut Matrix<S::Elem>, base_size: usize)
where
    S: GepSpec + Sync,
{
    let _span = gep_obs::span("cgep_parallel", "parallel")
        .arg("n", c.n() as i64)
        .arg("base", base_size as i64)
        .arg("threads", rayon::current_num_threads() as i64);
    gep_core::cgep::cgep_abcd(&crate::RayonJoiner, spec, c, base_size);
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
    #[should_panic(expected = "power-of-two")]
    fn parallel_cgep_rejects_side_that_does_not_halve_to_a_leaf() {
        cgep_parallel(&SumSpec, &mut Matrix::square(1500, 0), 64);
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
