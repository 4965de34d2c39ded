//! Criterion bench comparing `gep-kernels` backends per application:
//! scalar generic base case vs portable auto-vectorized vs the best SIMD
//! backend the host supports, at the default base size (64).
//!
//! Two views:
//!
//! * `kernel_compare/<app>` — full I-GEP runs of each application with
//!   the backend forced, throughput in updates (Criterion prints
//!   elements/s; multiply by the app's flops-per-update for GFLOP/s).
//! * `kernel_compare/disjoint_box` — the raw `C −= A·B` panel on one
//!   64×64 fully disjoint box, the shape where ~all FLOPs live (the
//!   acceptance target: best f64 kernel ≥ 2× the scalar loop here).
//!
//! The machine-readable GFLOP/s table (`BENCH_kernels.json`) comes from
//! `repro tune --json`, which sweeps the same grid.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gep_apps::floyd_warshall::FwSpec;
use gep_apps::matmul::matmul;
use gep_apps::{GaussianSpec, LuSpec, SemiringSpec};
use gep_bench::workloads::{dd_matrix, random_dist_matrix, rnd_matrix, XorShift};
use gep_core::algebra::{OrAndBool, PlusTimesF64};
use gep_core::igep_opt;
use gep_kernels::{detect_best, kernel_set, set_backend_override, Backend};
use gep_matrix::Matrix;
use std::hint::black_box;

const BASE: usize = 64;

/// Generic (scalar), portable, and — when it differs from portable — the
/// best SIMD backend on this host.
fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Generic, Backend::Portable];
    let best = detect_best();
    if !v.contains(&best) {
        v.push(best);
    }
    v
}

fn bench_apps(c: &mut Criterion) {
    let n = 256usize;
    let updates = (n * n * n) as u64;

    let ge_in = dd_matrix(n, 1061);
    let lu_in = dd_matrix(n, 1062);
    let fw_in = random_dist_matrix(n, 1063);
    let mut rng = XorShift(1064);
    let tc_in = Matrix::from_fn(n, n, |i, j| i == j || rng.next_u64() % 8 == 0);
    let mm_a = rnd_matrix(n, 1065);
    let mm_b = rnd_matrix(n, 1066);

    let mut g = c.benchmark_group("kernel_compare");
    g.sample_size(10);
    g.throughput(Throughput::Elements(updates));
    for backend in backends() {
        let id = backend.name();
        set_backend_override(Some(backend));
        g.bench_with_input(BenchmarkId::new("ge", id), &ge_in, |b, input| {
            b.iter(|| {
                let mut m = input.clone();
                igep_opt(&GaussianSpec, &mut m, BASE);
                black_box(m[(0, 0)])
            })
        });
        g.bench_with_input(BenchmarkId::new("lu", id), &lu_in, |b, input| {
            b.iter(|| {
                let mut m = input.clone();
                igep_opt(&LuSpec, &mut m, BASE);
                black_box(m[(0, 0)])
            })
        });
        g.bench_with_input(BenchmarkId::new("fw", id), &fw_in, |b, input| {
            b.iter(|| {
                let mut m = input.clone();
                igep_opt(&FwSpec::<i64>::new(), &mut m, BASE);
                black_box(m[(0, 0)])
            })
        });
        g.bench_with_input(BenchmarkId::new("tc", id), &tc_in, |b, input| {
            b.iter(|| {
                let mut m = input.clone();
                igep_opt(&SemiringSpec::<OrAndBool>::new(), &mut m, BASE);
                black_box(m[(0, 0)])
            })
        });
        g.bench_with_input(BenchmarkId::new("mm", id), &(&mm_a, &mm_b), |b, input| {
            b.iter(|| black_box(matmul::<PlusTimesF64>(input.0, input.1, BASE)[(0, 0)]))
        });
    }
    set_backend_override(None);
    g.finish();
}

/// The acceptance microbench: one 64×64×64 disjoint `C −= A·B` box.
fn bench_disjoint_box(c: &mut Criterion) {
    let s = BASE;
    let a = rnd_matrix(s, 2061);
    let b = rnd_matrix(s, 2062);

    let mut g = c.benchmark_group("kernel_compare/disjoint_box");
    // 2·s³ flops per panel application.
    g.throughput(Throughput::Elements(2 * (s * s * s) as u64));
    for backend in backends() {
        g.bench_with_input(
            BenchmarkId::new("mm_sub", backend.name()),
            &(),
            |bch, ()| {
                let mut cm = Matrix::square(s, 0.0);
                match kernel_set(backend) {
                    Some(set) => bch.iter(|| unsafe {
                        (set.f64_mm_sub)(
                            cm.as_mut_slice().as_mut_ptr(),
                            s,
                            a.as_slice().as_ptr(),
                            s,
                            b.as_slice().as_ptr(),
                            s,
                            s,
                            s,
                            s,
                        );
                        black_box(cm[(0, 0)])
                    }),
                    // Generic: the scalar loop the A/B/C/D base case runs.
                    None => bch.iter(|| {
                        for i in 0..s {
                            for k in 0..s {
                                let u = a[(i, k)];
                                for j in 0..s {
                                    cm[(i, j)] -= u * b[(k, j)];
                                }
                            }
                        }
                        black_box(cm[(0, 0)])
                    }),
                }
            },
        );
    }
    g.finish();
}

fn bench(c: &mut Criterion) {
    bench_apps(c);
    bench_disjoint_box(c);
}

criterion_group!(benches, bench);
criterion_main!(benches);
