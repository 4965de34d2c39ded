//! A realistic APSP workload: all-pairs shortest paths with route
//! reconstruction on a synthetic road network (grid with highways),
//! solved by the cache-oblivious distance-only I-GEP (SIMD min-plus
//! leaves), with routes rebuilt afterwards by walking tight edges.
//!
//! ```text
//! cargo run -p gep --release --example road_network_apsp
//! ```

use gep::apps::floyd_warshall::{apsp, distance_matrix, tight_path, InEdges};
use gep::core::TROPICAL_INF;
use gep::matrix::fit_side;

/// Builds a `side x side` grid road network: local streets between
/// neighbours (weight 4–9), plus a few long "highways" (weight ~ distance).
fn road_network(side: usize) -> (usize, Vec<(usize, usize, i64)>) {
    let n = side * side;
    let id = |r: usize, c: usize| r * side + c;
    let mut edges = vec![];
    let mut seed = 0xCAFEu64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                let w = (rng() % 6) as i64 + 4;
                edges.push((id(r, c), id(r, c + 1), w));
                edges.push((id(r, c + 1), id(r, c), w));
            }
            if r + 1 < side {
                let w = (rng() % 6) as i64 + 4;
                edges.push((id(r, c), id(r + 1, c), w));
                edges.push((id(r + 1, c), id(r, c), w));
            }
        }
    }
    // Highways: corner to corner and a ring road.
    let corners = [
        id(0, 0),
        id(0, side - 1),
        id(side - 1, 0),
        id(side - 1, side - 1),
    ];
    for i in 0..4 {
        for j in 0..4 {
            if i != j {
                edges.push((corners[i], corners[j], 2 * side as i64));
            }
        }
    }
    (n, edges)
}

fn main() {
    let side = 10;
    let (n, edges) = road_network(side);
    println!("road network: {n} junctions, {} road segments", edges.len());

    // Build the distance matrix, pad to a side the recursion halves down
    // to leaves of side <= 32, solve.
    let m = distance_matrix(n, &edges);
    let mut padded = m.padded(TROPICAL_INF, 32);
    println!(
        "padded to {} x {} for the recursion",
        padded.n(),
        padded.n()
    );
    assert_eq!(padded.n(), fit_side(n, 32));
    apsp(&mut padded, 32);

    // Route queries: walk tight edges of the unpadded network backward
    // from the destination, reading one row of the solved matrix.
    let in_edges = InEdges::from_matrix(&m);
    let from = 0; // top-left corner
    let to = n - 1; // bottom-right corner
    let dist = padded[(from, to)];
    let route = tight_path(padded.row(from), &in_edges, from, to).expect("network is connected");
    println!(
        "fastest {from} -> {to}: cost {dist}, {} hops",
        route.len() - 1
    );
    println!(
        "route: {}",
        route
            .iter()
            .map(|v| format!("({},{})", v / side, v % side))
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    // Verify the route's cost against the edge list.
    let mut cost = 0i64;
    for w in route.windows(2) {
        cost += edges
            .iter()
            .filter(|&&(a, b, _)| a == w[0] && b == w[1])
            .map(|&(_, _, c)| c)
            .min()
            .expect("consecutive route hops are road segments");
    }
    assert_eq!(cost, dist, "reconstructed route cost must equal distance");
    println!("route cost verified ✓");

    // Network diameter (longest shortest path among real vertices).
    let diameter = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .map(|(i, j)| padded[(i, j)])
        .max()
        .unwrap();
    println!("network diameter: {diameter}");
}
