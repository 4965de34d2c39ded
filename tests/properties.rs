//! Property-based tests (proptest) over the workspace's core invariants.

use gep::apps::floyd_warshall::FwSpec;
use gep::apps::reference;
use gep::cachesim::{CacheModel, IdealCache};
use gep::core::algebra::{MinPlusI64, UpdateAlgebra};
use gep::core::spec::{ClosureSpec, ExplicitSet};
use gep::core::{cgep_full, cgep_reduced, gep_iterative, igep, igep_opt, TROPICAL_INF};
use gep::extmem::{DiskProfile, ExtArena, ExtMatrix};
use gep::matrix::{morton, Matrix, TiledMatrix};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// An arbitrary GEP instance: side (power of two), update set, affine
/// update coefficients, initial matrix.
#[allow(clippy::type_complexity)]
fn arb_gep_instance() -> impl Strategy<
    Value = (
        usize,
        Vec<(usize, usize, usize)>,
        (i64, i64, i64, i64),
        Vec<i64>,
    ),
> {
    (1usize..=3).prop_flat_map(|q| {
        let n = 1usize << q;
        (
            Just(n),
            proptest::collection::vec(
                ((0..n), (0..n), (0..n)).prop_map(|(i, j, k)| (i, j, k)),
                0..=n * n * n,
            ),
            (-3i64..=3, -3i64..=3, -3i64..=3, -3i64..=3),
            proptest::collection::vec(-100i64..=100, n * n),
        )
    })
}

fn make_matrix(n: usize, vals: &[i64]) -> Matrix<i64> {
    Matrix::from_fn(n, n, |i, j| vals[i * n + j])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// C-GEP (both variants) equals iterative GEP for *arbitrary* f and Σ —
    /// the full-generality theorem, fuzzed.
    #[test]
    fn cgep_is_fully_general((n, sigma, (ca, cb, cc, cd), vals) in arb_gep_instance()) {
        let spec = ClosureSpec::new(
            move |i: usize, j: usize, k: usize, x: i64, u: i64, v: i64, w: i64| {
                x.wrapping_mul(ca)
                    .wrapping_add(u.wrapping_mul(cb))
                    .wrapping_add(v.wrapping_mul(cc))
                    .wrapping_add(w.wrapping_mul(cd))
                    .wrapping_add((i + 2 * j + 4 * k) as i64)
            },
            ExplicitSet::from_iter(sigma),
        );
        let init = make_matrix(n, &vals);
        let mut g = init.clone();
        gep_iterative(&spec, &mut g);
        let mut h = init.clone();
        cgep_full(&spec, &mut h, 1);
        prop_assert_eq!(&h, &g);
        let mut r = init.clone();
        let stats = cgep_reduced(&spec, &mut r, 1);
        prop_assert_eq!(&r, &g);
        // The §2.2.2 space claim holds on every fuzzed instance.
        prop_assert!(stats.peak_live_snapshots <= stats.claimed_bound);
    }

    /// I-GEP equals G on Floyd–Warshall for random graphs and all engines'
    /// base sizes.
    #[test]
    fn igep_exact_on_fw(
        q in 1usize..=4,
        seed in any::<u64>(),
        base in prop::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        let n = 1usize << q;
        let mut s = seed | 1;
        let input = Matrix::from_fn(n, n, |i, j| {
            if i == j { 0i64 } else {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                if s % 4 == 0 { TROPICAL_INF } else { (s % 50) as i64 + 1 }
            }
        });
        let mut g = input.clone();
        gep_iterative(&FwSpec::<i64>::new(), &mut g);
        let mut f = input.clone();
        igep(&FwSpec::<i64>::new(), &mut f, base);
        prop_assert_eq!(&f, &g);
        let mut o = input.clone();
        igep_opt(&FwSpec::<i64>::new(), &mut o, base);
        prop_assert_eq!(&o, &g);
        // Triangle inequality of the result.
        for i in 0..n { for j in 0..n { for k in 0..n {
            prop_assert!(g[(i,j)] <= MinPlusI64::mul(g[(i,k)], g[(k,j)]));
        }}}
    }

    /// Gaussian-elimination solve has a small residual on diagonally
    /// dominant random systems.
    #[test]
    fn gaussian_solve_residual(
        n in 2usize..=20,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let mut a = Matrix::from_fn(n, n, |_, _| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 1000) as f64 / 1000.0 - 0.5
        });
        for i in 0..n { a[(i, i)] = n as f64 + 1.0; }
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 11) as f64) - 5.0).collect();
        let x = gep::apps::gaussian::solve(&a, &b, 4);
        let ax = reference::mat_vec(&a, &x);
        for i in 0..n {
            prop_assert!((ax[i] - b[i]).abs() < 1e-8, "residual {} at {}", ax[i] - b[i], i);
        }
    }

    /// Morton interleave/deinterleave is a bijection.
    #[test]
    fn morton_roundtrip(r in any::<u32>(), c in any::<u32>()) {
        let z = morton::interleave(r, c);
        prop_assert_eq!(morton::deinterleave(z), (r, c));
    }

    /// Tiled-layout conversion is lossless for every valid tile size.
    #[test]
    fn tiled_roundtrip(q in 0usize..=5, tq in 0usize..=5, seed in any::<u64>()) {
        let n = 1usize << q;
        let tile = 1usize << tq.min(q);
        let mut s = seed | 1;
        let m = Matrix::from_fn(n, n, |_, _| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17; s as i64
        });
        let t = TiledMatrix::from_matrix(&m, tile);
        prop_assert_eq!(t.to_matrix(), m);
    }

    /// LRU inclusion: misses never increase with cache size on any trace.
    #[test]
    fn lru_miss_monotonicity(trace in proptest::collection::vec(0u64..64, 1..500)) {
        let mut prev = u64::MAX;
        for blocks in [1u64, 2, 4, 8, 16, 32, 64] {
            let mut c = IdealCache::new(blocks * 64, 64);
            for &b in &trace {
                c.access(b * 64);
            }
            prop_assert!(c.stats().misses <= prev);
            prev = c.stats().misses;
        }
    }

    /// Out-of-core matrices hold exactly what an in-core matrix holds
    /// after an identical random write/read stream, for any cache/page
    /// geometry.
    #[test]
    fn extmem_equals_incore(
        ops in proptest::collection::vec((0usize..16, 0usize..16, -100i64..100), 1..200),
        cache_pages in 1u64..8,
    ) {
        use gep::core::CellStore;
        let arena = Rc::new(RefCell::new(ExtArena::new(
            cache_pages * 64, 64, DiskProfile::fujitsu_map3735nc(),
        )));
        let mut ext = ExtMatrix::<i64>::zeroed(arena, 16);
        let mut plain = Matrix::square(16, 0i64);
        for &(i, j, v) in &ops {
            CellStore::write(&mut ext, i, j, v);
            plain.set(i, j, v);
            prop_assert_eq!(CellStore::read(&mut ext, i, j), plain.get(i, j));
        }
        prop_assert_eq!(ext.to_matrix(), plain);
    }

    /// Matrix padding/shrinking round-trips and leaves content intact.
    #[test]
    fn pad_shrink_roundtrip(rows in 1usize..200, cols in 1usize..200, base in 1usize..80, seed in any::<u64>()) {
        let mut s = seed | 1;
        let m = Matrix::from_fn(rows, cols, |_, _| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17; (s % 1000) as i32
        });
        let p = m.padded(-1, base);
        prop_assert!(gep::matrix::halves_to_leaf(p.n(), base));
        prop_assert!(p.n() >= rows.max(cols));
        prop_assert!(p.n() <= gep::matrix::next_pow2(rows.max(cols)));
        prop_assert_eq!(p.shrunk(rows, cols), m);
    }

    /// Distance-only Floyd–Warshall plus tight-edge paths: distances agree
    /// with Dijkstra, every rebuilt path is a real walk in the graph with
    /// total weight equal to the reported distance, and a path is missing
    /// exactly when the destination is unreachable.
    #[test]
    fn fw_paths_are_valid_walks(q in 1usize..=4, seed in any::<u64>()) {
        use gep::apps::floyd_warshall::{apsp, tight_path, InEdges};
        let n = 1usize << q;
        let inf = TROPICAL_INF;
        let mut s = seed | 1;
        let dist = Matrix::from_fn(n, n, |i, j| {
            if i == j { 0i64 } else {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                if s % 3 == 0 { inf } else { (s % 40) as i64 + 1 }
            }
        });
        let mut solved = dist.clone();
        apsp(&mut solved, 4);
        let in_edges = InEdges::from_matrix(&dist);
        for src in 0..n {
            let dj = reference::dijkstra_reference(&dist, src);
            for v in 0..n {
                prop_assert_eq!(solved[(src, v)].min(inf), dj[v].min(inf), "dist {} {}", src, v);
                match tight_path(solved.row(src), &in_edges, src, v) {
                    Some(path) => {
                        prop_assert_eq!((path[0], path[path.len() - 1]), (src, v));
                        let mut total = 0i64;
                        for w in path.windows(2) {
                            prop_assert!(w[0] != w[1] && dist[(w[0], w[1])] < inf);
                            total += dist[(w[0], w[1])];
                        }
                        prop_assert_eq!(total, solved[(src, v)]);
                    }
                    None => prop_assert!(solved[(src, v)] >= inf, "no path {} {}", src, v),
                }
            }
        }
    }

    /// Rank-1 updates track a stream of edge changes exactly: after every
    /// decrease or insert (one `relax_edge`) and every rise or delete of
    /// an edge off all shortest paths (no change), the padded matrix
    /// equals a fresh I-GEP solve bit for bit, padding included, and its
    /// logical block equals the textbook oracle. Graphs have zero weights
    /// and a vertex with no edges.
    #[test]
    fn rank1_updates_equal_a_fresh_solve(
        n in 1usize..=24,
        seed in any::<u64>(),
        steps in 1usize..=40,
    ) {
        use gep::apps::floyd_warshall::{apsp, relax_edge};
        let inf = TROPICAL_INF;
        let side = n.next_power_of_two();
        let mut s = seed | 1;
        let mut next = move |m: u64| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            s % m
        };
        let lonely = next(n as u64) as usize;
        let mut graph = Matrix::from_fn(n, n, |i, j| match (i == j, i == lonely || j == lonely) {
            (true, _) => 0,
            (false, true) => inf,
            (false, false) => [inf, inf, 0, 1 + next(40) as i64][next(4) as usize],
        });
        let fresh = |g: &Matrix<i64>| {
            let mut d = Matrix::from_fn(side, side, |i, j| {
                if i == j { 0 } else if i < n && j < n { g[(i, j)] } else { inf }
            });
            apsp(&mut d, 4);
            d
        };
        let mut d = fresh(&graph);
        for step in 0..steps {
            let (a, b) = (next(n as u64) as usize, next(n as u64) as usize);
            let old = graph[(a, b)];
            if a == b {
                continue;
            }
            if next(2) == 0 {
                let w = next(old.min(41) as u64 + 1) as i64;
                graph[(a, b)] = w;
                relax_edge(&mut d, n, a, b, w);
            } else if old > d[(a, b)] {
                graph[(a, b)] = if next(3) == 0 { inf } else { old.min(100) + 1 + next(20) as i64 };
            } else {
                continue;
            }
            prop_assert_eq!(&d, &fresh(&graph), "step {}: ({}, {}) was {}", step, a, b, old);
            let oracle = reference::fw_reference(&graph);
            for i in 0..n {
                prop_assert_eq!(&d.row(i)[..n], oracle.row(i));
            }
        }
    }

    /// Simple-DP: the cache-oblivious solver equals the diagonal-order
    /// loop for random weights and base values.
    #[test]
    fn simple_dp_recursive_equals_iterative(q in 0usize..=5, seed in any::<u64>()) {
        use gep::apps::simple_dp::{solve, solve_iterative};
        let n = 1usize << q;
        let mut s = seed | 1;
        let mut base = Matrix::square(n + 1, 0.0);
        for i in 0..n {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            base[(i, i + 1)] = (s % 500) as f64 / 25.0;
        }
        let w = move |i: usize, j: usize| ((i * 37 + j * 11 + seed as usize) % 97) as f64 / 7.0;
        let mut a = base.clone();
        let mut b = base.clone();
        solve_iterative(&mut a, &w);
        solve(&mut b, &w);
        for i in 0..=n {
            for j in i + 1..=n {
                prop_assert!((a[(i, j)] - b[(i, j)]).abs() < 1e-9, "cell ({}, {})", i, j);
            }
        }
    }

    /// Semiring matmul is associative for (min, +) — exercised through the
    /// divide-and-conquer engine over plain `i64` matrices with the
    /// `MinPlusI64` algebra tag.
    #[test]
    fn min_plus_matmul_associative(q in 0usize..=3, seed in any::<u64>()) {
        use gep::apps::matmul::matmul;
        use gep::core::algebra::MinPlusI64;
        let n = 1usize << q;
        let mut s = seed | 1;
        let mut gen = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 100) as i64
        };
        let a = Matrix::from_fn(n, n, |_, _| gen());
        let b = Matrix::from_fn(n, n, |_, _| gen());
        let c = Matrix::from_fn(n, n, |_, _| gen());
        let left = matmul::<MinPlusI64>(&matmul::<MinPlusI64>(&a, &b, 2), &c, 2);
        let right = matmul::<MinPlusI64>(&a, &matmul::<MinPlusI64>(&b, &c, 2), 2);
        prop_assert_eq!(left, right);
    }
}
