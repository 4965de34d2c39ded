//! Figure 10: Gaussian elimination without pivoting — iterative GEP vs
//! cache-oblivious I-GEP vs the cache-aware blocked baseline
//! (GotoBLAS/FLAME substitute).
//!
//! Paper shapes: baseline > I-GEP > GEP, with the baseline ~1.5× I-GEP
//! and I-GEP ~5–6× GEP. We report GFLOPS (2n³/3 flops) and rates relative
//! to the baseline (the paper's %-of-peak axis needs the machine's
//! theoretical peak, which is not knowable portably; ratios preserve the
//! shape).

use crate::util::{fmt_secs, gflops, print_table, timed_best};
use crate::workloads::dd_matrix;
use gep_apps::GaussianSpec;
use gep_blaslike::ge_blocked;
use gep_core::{gep_iterative, igep_opt};

/// One (n) measurement.
#[derive(Clone, Copy, Debug)]
pub struct Fig10Row {
    /// Matrix side.
    pub n: usize,
    /// Iterative GEP seconds.
    pub gep_s: f64,
    /// Optimised I-GEP seconds.
    pub igep_s: f64,
    /// Blocked cache-aware baseline seconds.
    pub blas_s: f64,
}

/// Runs the sweep and prints the table.
pub fn fig10(sizes: &[usize], reps: usize) -> Vec<Fig10Row> {
    // The kernel backend resolves inside gep-kernels (override /
    // GEP_KERNELS / CPU detection).
    let base = gep_kernels::DEFAULT_BASE_SIZE;
    let mut out = vec![];
    let mut rows = vec![];
    for &n in sizes {
        let input = dd_matrix(n, 61610 + n as u64);
        let flops = 2.0 / 3.0 * (n as f64).powi(3);
        let (_, gep_s) = timed_best(reps, || {
            let mut c = input.clone();
            gep_iterative(&GaussianSpec, &mut c);
            c
        });
        let (_, igep_s) = timed_best(reps, || {
            let mut c = input.clone();
            igep_opt(&GaussianSpec, &mut c, base);
            c
        });
        let (_, blas_s) = timed_best(reps, || {
            let mut c = input.clone();
            ge_blocked(&mut c, 64);
            c
        });
        out.push(Fig10Row {
            n,
            gep_s,
            igep_s,
            blas_s,
        });
        rows.push(vec![
            n.to_string(),
            format!("{} ({:.2} GF)", fmt_secs(gep_s), gflops(flops, gep_s)),
            format!("{} ({:.2} GF)", fmt_secs(igep_s), gflops(flops, igep_s)),
            format!("{} ({:.2} GF)", fmt_secs(blas_s), gflops(flops, blas_s)),
            format!("{:.2}x", gep_s / igep_s),
            format!("{:.2}x", igep_s / blas_s),
        ]);
    }
    print_table(
        "Figure 10: Gaussian elimination w/o pivoting (f64)",
        &[
            "n",
            "GEP",
            &format!("I-GEP (base {base})"),
            "cache-aware blocked",
            "GEP/I-GEP",
            "I-GEP/blocked",
        ],
        &rows,
    );
    println!("paper: GotoBLAS ~75-83% peak, I-GEP ~45-55%, GEP ~7-9% (ordering and rough factors are the reproduction target).");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn igep_beats_gep_by_paper_like_factor() {
        let r = fig10(&[256], 2)[0];
        assert!(
            r.gep_s / r.igep_s > 2.5,
            "I-GEP should beat GEP decisively: {:.2}x",
            r.gep_s / r.igep_s
        );
        // The blocked cache-aware baseline must at least be in I-GEP's
        // league (the paper's 1.5x BLAS advantage came from vendor
        // assembly; see EXPERIMENTS.md). With the gep-kernels SIMD base
        // cases I-GEP now meets or beats the scalar blocked baseline, so
        // the bound is one-sided: I-GEP must not fall behind it by 2x.
        assert!(r.blas_s < r.gep_s, "blocked baseline far above GEP");
        assert!(
            r.igep_s < 2.0 * r.blas_s,
            "I-GEP fell out of the blocked baseline's league: {:.1}ms vs {:.1}ms",
            r.igep_s * 1e3,
            r.blas_s * 1e3
        );
    }
}
