//! Workspace integration tests: multi-crate, end-to-end scenarios.

use gep::apps::floyd_warshall::distance_matrix;
use gep::apps::reference;
use gep::apps::FwSpec;
use gep::cachesim::{AddressSpace, IdealCache, TrackedMatrix};
use gep::core::{cgep_full, gep_iterative, igep, igep_opt, SumSpec, TROPICAL_INF};
use gep::extmem::{DiskProfile, ExtArena, ExtMatrix};
use gep::matrix::Matrix;
use gep::parallel::{igep_parallel, with_threads};
use std::cell::RefCell;
use std::rc::Rc;

fn fw_input(n: usize, seed: u64) -> Matrix<i64> {
    let mut s = seed | 1;
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0
        } else {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s % 4 == 0 {
                TROPICAL_INF
            } else {
                (s % 60) as i64 + 1
            }
        }
    })
}

/// Every substrate — in-core, tracked (cache-simulated), out-of-core,
/// parallel — produces the identical APSP result.
#[test]
fn apsp_identical_across_all_substrates() {
    let n = 64;
    let spec = FwSpec::<i64>::new();
    let input = fw_input(n, 0xA11);

    let mut oracle = input.clone();
    gep_iterative(&spec, &mut oracle);

    // In-core recursive engines.
    let mut f = input.clone();
    igep(&spec, &mut f, 1);
    assert_eq!(f, oracle, "igep");
    let mut opt = input.clone();
    igep_opt(&spec, &mut opt, 16);
    assert_eq!(opt, oracle, "igep_opt");
    let mut h = input.clone();
    cgep_full(&spec, &mut h, 4);
    assert_eq!(h, oracle, "cgep");

    // Cache-simulated.
    let cache = Rc::new(RefCell::new(IdealCache::new(4096, 64)));
    let mut space = AddressSpace::new();
    let mut tracked = TrackedMatrix::new(input.clone(), cache, &mut space);
    igep(&spec, &mut tracked, 1);
    assert_eq!(tracked.into_inner(), oracle, "tracked");

    // Out-of-core.
    let arena = Rc::new(RefCell::new(ExtArena::new(
        8 * 1024,
        128,
        DiskProfile::fujitsu_map3735nc(),
    )));
    let mut ext = ExtMatrix::from_matrix(arena, &input);
    igep(&spec, &mut ext, 1);
    assert_eq!(ext.to_matrix(), oracle, "extmem");

    // Parallel.
    let mut par = input.clone();
    with_threads(4, || igep_parallel(&spec, &mut par, 16));
    assert_eq!(par, oracle, "parallel");
}

/// APSP agrees with an independent Dijkstra oracle (not FW-shaped at all).
#[test]
fn apsp_agrees_with_dijkstra() {
    let n = 32;
    let input = fw_input(n, 0xD1D7);
    let mut solved = input.clone();
    gep::apps::floyd_warshall::apsp(&mut solved, 8);
    for src in 0..n {
        let d = reference::dijkstra_reference(&input, src);
        for v in 0..n {
            assert_eq!(solved[(src, v)], d[v], "src={src} v={v}");
        }
    }
}

/// Linear solve → residual, determinant → product of pivots, LU → L·U = A,
/// all from one matrix, across engines.
#[test]
fn linear_algebra_pipeline() {
    let n = 24; // non-power-of-two: exercises padding
    let mut s = 5u64;
    let mut a = Matrix::from_fn(n, n, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 1000) as f64 / 1000.0 - 0.5
    });
    for i in 0..n {
        a[(i, i)] = n as f64 + 1.0;
    }
    let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();

    let x = gep::apps::gaussian::solve(&a, &b, 8);
    let x_ref = reference::solve_reference(&a, &b);
    for i in 0..n {
        assert!((x[i] - x_ref[i]).abs() < 1e-8);
    }

    // LU on the padded matrix reconstructs it.
    let m = gep::matrix::next_pow2(n);
    let padded = Matrix::from_fn(m, m, |i, j| {
        if i < n && j < n {
            a[(i, j)]
        } else if i == j {
            1.0
        } else {
            0.0
        }
    });
    let mut packed = padded.clone();
    gep::apps::lu::lu_in_place(&mut packed, 8);
    let (l, u) = gep::apps::lu::unpack(&packed);
    assert!(reference::matmul_reference(&l, &u).approx_eq(&padded, 1e-8));

    // Determinant equals the product of U's diagonal (padding contributes 1).
    let det = gep::apps::gaussian::determinant(&a, 8);
    let pivot_prod: f64 = (0..n).map(|i| u[(i, i)]).product();
    assert!((det - pivot_prod).abs() / pivot_prod.abs() < 1e-10);
}

/// All four matrix-multiplication routes agree: reference, direct D&C,
/// GEP embedding, blocked cache-aware dgemm.
#[test]
fn matmul_four_ways() {
    let n = 32;
    let mut s = 11u64;
    let mut gen = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 2000) as f64 / 1000.0 - 1.0
    };
    let a = Matrix::from_fn(n, n, |_, _| gen());
    let b = Matrix::from_fn(n, n, |_, _| gen());
    let want = reference::matmul_reference(&a, &b);
    assert!(
        gep::apps::matmul::matmul::<gep::core::algebra::PlusTimesF64>(&a, &b, 8)
            .approx_eq(&want, 1e-9)
    );
    assert!(
        gep::apps::matmul::matmul_gep::<gep::core::algebra::PlusTimesF64>(
            &a,
            &b,
            Matrix::square(n, 0.0),
            8
        )
        .approx_eq(&want, 1e-9)
    );
    let mut c = Matrix::square(n, 0.0);
    gep::blaslike::dgemm(&mut c, &a, &b);
    assert!(c.approx_eq(&want, 1e-9));
}

/// Transitive closure is consistent with shortest-path reachability.
#[test]
fn closure_matches_fw_reachability() {
    let n = 32;
    let dist = fw_input(n, 0xC105);
    let mut adj = Matrix::from_fn(n, n, |i, j| i != j && dist[(i, j)] < TROPICAL_INF);
    gep::apps::transitive_closure::transitive_closure(&mut adj, 8);
    let mut solved = dist.clone();
    gep::apps::floyd_warshall::apsp(&mut solved, 8);
    for i in 0..n {
        for j in 0..n {
            assert_eq!(adj[(i, j)], solved[(i, j)] < TROPICAL_INF, "({i},{j})");
        }
    }
}

/// C-GEP over a *shared* out-of-core arena equals iterative GEP for an
/// I-GEP-breaking spec — the full-generality claim, out of core.
#[test]
fn full_generality_out_of_core() {
    let n = 8;
    let input = Matrix::from_fn(n, n, |i, j| ((i * 3 + j) % 5) as i64 - 2);
    let arena = Rc::new(RefCell::new(ExtArena::new(
        2048,
        64,
        DiskProfile::fujitsu_map3735nc(),
    )));
    let mut c = ExtMatrix::from_matrix(arena.clone(), &input);
    let mut u0 = ExtMatrix::from_matrix(arena.clone(), &input);
    let mut u1 = ExtMatrix::from_matrix(arena.clone(), &input);
    let mut v0 = ExtMatrix::from_matrix(arena.clone(), &input);
    let mut v1 = ExtMatrix::from_matrix(arena.clone(), &input);
    gep::core::cgep_full_with(
        &SumSpec, &mut c, &mut u0, &mut u1, &mut v0, &mut v1, 1, false,
    );
    let mut g = input.clone();
    gep_iterative(&SumSpec, &mut g);
    assert_eq!(c.to_matrix(), g);

    // And I-GEP would NOT have matched on this spec.
    let mut f = input.clone();
    igep(&SumSpec, &mut f, 1);
    assert_ne!(f, g);
}

/// The distance-matrix builder + padding pipeline used by the examples.
#[test]
fn distance_matrix_padding_pipeline() {
    let edges = [(0usize, 1, 2i64), (1, 2, 2), (2, 0, 2)];
    let d = distance_matrix::<i64>(3, &edges);
    let mut padded = d.padded(TROPICAL_INF, 2);
    assert_eq!(padded.n(), 4);
    gep::apps::floyd_warshall::apsp(&mut padded, 2);
    assert_eq!(padded[(0, 2)], 4);
    assert_eq!(padded[(2, 1)], 4);
    // Padding vertex stays unreachable.
    assert!(padded[(0, 3)] >= TROPICAL_INF);
}
