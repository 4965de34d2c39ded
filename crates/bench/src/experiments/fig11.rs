//! Figure 11: square matrix multiplication — GEP (triple loop) vs
//! cache-oblivious I-GEP vs the cache-aware blocked baseline, in time and
//! in simulated cache misses.
//!
//! Paper shapes: baseline fastest (~1.5× I-GEP), I-GEP ~4–6× the triple
//! loop; **I-GEP incurs no more L1/L2 misses than the cache-aware code**
//! (its losses are instruction overhead, not cache behaviour).

use crate::util::{fmt_secs, gflops, print_table, timed_best};
use crate::workloads::rnd_matrix;
use gep_apps::matmul::matmul;
use gep_apps::reference::matmul_reference;
use gep_blaslike::dgemm;
use gep_cachesim::{AddressSpace, CacheModel, SharedCache, TrackedMatrix};
use gep_core::algebra::PlusTimesF64;
use gep_core::CellStore;
use gep_matrix::Matrix;
use std::cell::RefCell;
use std::rc::Rc;

/// One timing measurement.
#[derive(Clone, Copy, Debug)]
pub struct Fig11Row {
    /// Matrix side.
    pub n: usize,
    /// Naive triple loop (`ikj`, the "optimised GEP" baseline) seconds.
    pub gep_s: f64,
    /// I-GEP (direct divide-and-conquer, base 64) seconds.
    pub igep_s: f64,
    /// Cache-aware blocked `dgemm` seconds.
    pub blas_s: f64,
}

/// Timing sweep.
pub fn fig11_time(sizes: &[usize], reps: usize) -> Vec<Fig11Row> {
    let base = gep_kernels::DEFAULT_BASE_SIZE;
    let mut out = vec![];
    let mut rows = vec![];
    for &n in sizes {
        let a = rnd_matrix(n, 61611 + n as u64);
        let b = rnd_matrix(n, 61612 + n as u64);
        let flops = 2.0 * (n as f64).powi(3);
        let (_, gep_s) = timed_best(reps, || matmul_reference(&a, &b));
        let (_, igep_s) = timed_best(reps, || matmul::<PlusTimesF64>(&a, &b, base));
        let (_, blas_s) = timed_best(reps, || {
            let mut c = Matrix::square(n, 0.0);
            dgemm(&mut c, &a, &b);
            c
        });
        out.push(Fig11Row {
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
        "Figure 11 (time): square matrix multiplication (f64, C += A·B)",
        &[
            "n",
            "triple loop",
            &format!("I-GEP (base {base})"),
            "cache-aware dgemm",
            "loop/I-GEP",
            "I-GEP/dgemm",
        ],
        &rows,
    );
    println!("paper (Opteron): BLAS 78-83% peak, I-GEP 50-56%, GEP 9-13%.");
    out
}

/// Store-generic naive triple loop over tracked matrices.
fn mm_naive_tracked<C: CacheModel>(
    c: &mut TrackedMatrix<f64, C>,
    a: &mut TrackedMatrix<f64, C>,
    b: &mut TrackedMatrix<f64, C>,
) {
    let n = CellStore::<f64>::n(c);
    for i in 0..n {
        for k in 0..n {
            let u = a.read(i, k);
            for j in 0..n {
                let x = c.read(i, j);
                let v = b.read(k, j);
                c.write(i, j, x + u * v);
            }
        }
    }
}

/// Store-generic cache-aware tiled matmul (tile chosen from the L1 size —
/// this code *knows* the cache, unlike I-GEP).
fn mm_tiled_tracked<C: CacheModel>(
    c: &mut TrackedMatrix<f64, C>,
    a: &mut TrackedMatrix<f64, C>,
    b: &mut TrackedMatrix<f64, C>,
    tile: usize,
) {
    let n = CellStore::<f64>::n(c);
    for i0 in (0..n).step_by(tile) {
        for k0 in (0..n).step_by(tile) {
            for j0 in (0..n).step_by(tile) {
                for i in i0..(i0 + tile).min(n) {
                    for k in k0..(k0 + tile).min(n) {
                        let u = a.read(i, k);
                        for j in j0..(j0 + tile).min(n) {
                            let x = c.read(i, j);
                            let v = b.read(k, j);
                            c.write(i, j, x + u * v);
                        }
                    }
                }
            }
        }
    }
}

/// Store-generic direct I-GEP matrix multiplication (the `D`-only
/// quadrant recursion over three separate tracked matrices) — the fair
/// miss-count counterpart of [`matmul`], avoiding the embedding's 4×
/// footprint.
#[allow(clippy::too_many_arguments)]
fn mm_dac_tracked<C: CacheModel, L: gep_matrix::Layout>(
    c: &mut TrackedMatrix<f64, C, L>,
    a: &mut TrackedMatrix<f64, C, L>,
    b: &mut TrackedMatrix<f64, C, L>,
    ci: usize,
    cj: usize,
    kk: usize,
    s: usize,
) {
    if s == 1 {
        let x = c.read(ci, cj);
        let u = a.read(ci, kk);
        let v = b.read(kk, cj);
        c.write(ci, cj, x + u * v);
        return;
    }
    let h = s / 2;
    for (di, dj, dk) in [
        (0, 0, 0),
        (0, h, 0),
        (h, 0, 0),
        (h, h, 0),
        (0, 0, h),
        (0, h, h),
        (h, 0, h),
        (h, h, h),
    ] {
        mm_dac_tracked(c, a, b, ci + di, cj + dj, kk + dk, h);
    }
}

/// Miss counts on the simulated AMD Opteron 250 hierarchy (the Figure 11
/// machine): `(l1, l2)` per engine.
#[derive(Clone, Copy, Debug)]
pub struct Fig11Misses {
    /// Matrix side.
    pub n: usize,
    /// Naive triple loop (L1, L2) misses.
    pub naive: (u64, u64),
    /// I-GEP via the GEP embedding (L1, L2) misses.
    pub igep: (u64, u64),
    /// Cache-aware tiled loop (L1, L2) misses.
    pub tiled: (u64, u64),
}

/// Runs the miss-count comparison.
pub fn fig11_misses(sizes: &[usize]) -> Vec<Fig11Misses> {
    let opteron = gep_cachesim::table2_machines()[1];
    let mut out = vec![];
    let mut rows = vec![];
    for &n in sizes {
        let a = rnd_matrix(n, 3);
        let b = rnd_matrix(n, 4);

        #[allow(clippy::type_complexity)]
        let run_pair = |f: &mut dyn FnMut(
            &mut TrackedMatrix<f64, gep_cachesim::Hierarchy>,
            &mut TrackedMatrix<f64, gep_cachesim::Hierarchy>,
            &mut TrackedMatrix<f64, gep_cachesim::Hierarchy>,
        )| {
            let cache: SharedCache<gep_cachesim::Hierarchy> =
                Rc::new(RefCell::new(opteron.hierarchy()));
            let mut space = AddressSpace::new();
            // Stagger the three bases by odd line counts: back-to-back
            // power-of-two matrices would sit a multiple of the L1 way
            // size apart, aliasing the same sets — an allocator artefact
            // real systems avoid, applied to every engine equally.
            let mut tc = TrackedMatrix::new(Matrix::square(n, 0.0), cache.clone(), &mut space);
            space.alloc(3 * 64, 64);
            let mut ta = TrackedMatrix::new(a.clone(), cache.clone(), &mut space);
            space.alloc(5 * 64, 64);
            let mut tb = TrackedMatrix::new(b.clone(), cache.clone(), &mut space);
            f(&mut tc, &mut ta, &mut tb);
            let h = cache.borrow();
            (h.l1_stats().misses, h.l2_stats().misses)
        };

        let naive = run_pair(&mut |c, a, b| mm_naive_tracked(c, a, b));
        // L1 = 64 KB = 8192 doubles: a cache-aware tile of 32 keeps three
        // 32x32 tiles (3 KB) resident.
        let tiled = run_pair(&mut |c, a, b| mm_tiled_tracked(c, a, b, 32));
        // Cache-oblivious I-GEP: the direct D-only recursion over the
        // same three matrices, stored in the §4.2 bit-interleaved layout
        // (as the paper's implementation was).
        let igep_misses = {
            let cache: SharedCache<gep_cachesim::Hierarchy> =
                Rc::new(RefCell::new(opteron.hierarchy()));
            let mut space = AddressSpace::new();
            let layout = gep_matrix::MortonTiled { tile: 32.min(n) };
            let mut tc = TrackedMatrix::with_layout(
                Matrix::square(n, 0.0),
                cache.clone(),
                &mut space,
                layout,
            );
            space.alloc(3 * 64, 64);
            let mut ta = TrackedMatrix::with_layout(a.clone(), cache.clone(), &mut space, layout);
            space.alloc(5 * 64, 64);
            let mut tb = TrackedMatrix::with_layout(b.clone(), cache.clone(), &mut space, layout);
            mm_dac_tracked(&mut tc, &mut ta, &mut tb, 0, 0, 0, n);
            let h = cache.borrow();
            (h.l1_stats().misses, h.l2_stats().misses)
        };

        out.push(Fig11Misses {
            n,
            naive,
            igep: igep_misses,
            tiled,
        });
        rows.push(vec![
            n.to_string(),
            format!("{}/{}", naive.0, naive.1),
            format!("{}/{}", igep_misses.0, igep_misses.1),
            format!("{}/{}", tiled.0, tiled.1),
        ]);
    }
    print_table(
        "Figure 11 (misses): simulated AMD Opteron 250, L1/L2 misses",
        &["n", "triple loop", "I-GEP (direct)", "cache-aware tiled"],
        &rows,
    );
    println!("paper: I-GEP incurs fewer L1 and L2 misses than native BLAS.");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_holds_at_modest_size() {
        // In-cache sizes on big-L3 hosts leave the loop and I-GEP nearly
        // tied (see EXPERIMENTS.md); assert no-regression + the dgemm win,
        // with margin for timer noise.
        let r = fig11_time(&[512], 3)[0];
        assert!(
            r.igep_s < r.gep_s * 1.05,
            "I-GEP at least matches the naive loop: {:.1}ms vs {:.1}ms",
            r.igep_s * 1e3,
            r.gep_s * 1e3
        );
        assert!(r.blas_s < r.gep_s, "dgemm beats the naive loop");
    }

    #[test]
    fn igep_misses_at_most_tiled() {
        // At n = 128 the matrices exceed L1 (64 KB) but all fit L2, so
        // the discriminating level is L1.
        let m = fig11_misses(&[128])[0];
        assert!(
            m.igep.0 < m.naive.0 / 4,
            "I-GEP far below the naive loop in L1 misses: {:?} vs {:?}",
            m.igep,
            m.naive
        );
        // Our idealised tiled loop pays no packing cost (unlike real
        // BLAS), so "same league" is the reproducible claim here; see
        // EXPERIMENTS.md.
        assert!(
            m.igep.0 <= m.tiled.0 * 3,
            "I-GEP L1 misses in the tiled code's league: {:?} vs {:?}",
            m.igep,
            m.tiled
        );
        assert!(
            m.igep.1 <= m.tiled.1,
            "equal-or-fewer L2 misses: {:?} vs {:?}",
            m.igep,
            m.tiled
        );
    }
}
