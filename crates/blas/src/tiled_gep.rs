//! Cache-aware **tiled GEP** — the Section 2.3 comparison point.
//!
//! The paper frames I-GEP/C-GEP as *cache-oblivious tiling* of the GEP
//! loop nest and contrasts it with the classic cache-aware tiling an
//! optimising compiler would emit. This module is that compiler output,
//! written by hand: a one-level blocking of the loop nest with an explicit
//! tile parameter, phase-ordered per `k`-block exactly like the `A/B/C/D`
//! decomposition —
//!
//! 1. the diagonal tile `(kb, kb)` (function `A`'s role),
//! 2. the `kb`-row of tiles (`B`), 3. the `kb`-column (`C`),
//! 4. all remaining tiles (`D`).
//!
//! This phase order is what makes naive GEP tiling legal: it preserves the
//! Table 1 operand states for every spec on which I-GEP is exact (the same
//! dependency argument as Figure 6, flattened to one level). Unlike I-GEP
//! it must be re-tuned per machine — that asymmetry is the point of §2.3.

use gep_core::{GepMat, GepSpec};
use gep_matrix::Matrix;

/// Runs cache-aware tiled GEP on `c` with square tiles of side `tile`.
///
/// Produces the same result as I-GEP (and iterative GEP) for every spec on
/// which I-GEP is exact.
///
/// # Panics
/// Panics unless `c` is square with a power-of-two side and `tile` is a
/// power of two `<= n`.
pub fn gep_tiled<S>(spec: &S, c: &mut Matrix<S::Elem>, tile: usize)
where
    S: GepSpec + Sync,
{
    let n = c.n();
    assert!(n.is_power_of_two(), "tiled GEP needs a power-of-two side");
    assert!(tile.is_power_of_two() && tile <= n, "bad tile size");
    let m = GepMat::new(c);
    let blocks = n / tile;
    for kb in 0..blocks {
        let k0 = kb * tile;
        let in_box = |r0: usize, c0: usize| {
            spec.sigma_intersects(
                (r0, r0 + tile - 1),
                (c0, c0 + tile - 1),
                (k0, k0 + tile - 1),
            )
        };
        // SAFETY: phases are sequential and each kernel call owns its
        // tile's writes; reads touch only tiles finalised (w.r.t. this
        // k-block) by earlier phases — the Figure 6 argument, one level.
        unsafe {
            // Phase A: diagonal tile.
            if in_box(k0, k0) {
                spec.kernel(m, k0, k0, k0, tile);
            }
            // Phase B: the k-row of tiles.
            for jb in 0..blocks {
                if jb != kb && in_box(k0, jb * tile) {
                    spec.kernel(m, k0, jb * tile, k0, tile);
                }
            }
            // Phase C: the k-column of tiles.
            for ib in 0..blocks {
                if ib != kb && in_box(ib * tile, k0) {
                    spec.kernel(m, ib * tile, k0, k0, tile);
                }
            }
            // Phase D: everything else.
            for ib in 0..blocks {
                for jb in 0..blocks {
                    if ib != kb && jb != kb && in_box(ib * tile, jb * tile) {
                        spec.kernel(m, ib * tile, jb * tile, k0, tile);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gep_apps::floyd_warshall::FwSpec;
    use gep_apps::{GaussianSpec, SemiringSpec};
    use gep_core::algebra::OrAndBool;
    use gep_core::gep_iterative;
    use gep_core::TROPICAL_INF;

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
                    (s % 40) as i64 + 1
                }
            }
        })
    }

    #[test]
    fn tiled_fw_matches_iterative_for_all_tiles() {
        for n in [8usize, 32] {
            let input = fw_input(n, n as u64);
            let mut oracle = input.clone();
            gep_iterative(&FwSpec::<i64>::new(), &mut oracle);
            for tile in [1usize, 2, 4, 8] {
                let mut c = input.clone();
                gep_tiled(&FwSpec::<i64>::new(), &mut c, tile);
                assert_eq!(c, oracle, "n={n} tile={tile}");
            }
            // tile == n degenerates to one big kernel call == iterative.
            let mut c = input.clone();
            gep_tiled(&FwSpec::<i64>::new(), &mut c, n);
            assert_eq!(c, oracle);
        }
    }

    #[test]
    fn tiled_gaussian_matches_iterative() {
        let n = 32;
        let mut s = 3u64;
        let mut input = Matrix::from_fn(n, n, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 1000.0 - 0.5
        });
        for i in 0..n {
            input[(i, i)] = n as f64 + 2.0;
        }
        let mut oracle = input.clone();
        gep_iterative(&GaussianSpec, &mut oracle);
        for tile in [4usize, 8, 16] {
            let mut c = input.clone();
            gep_tiled(&GaussianSpec, &mut c, tile);
            assert!(c.approx_eq(&oracle, 1e-9), "tile={tile}");
        }
    }

    #[test]
    fn tiled_transitive_closure_matches_iterative() {
        let n = 16;
        let mut s = 77u64;
        let input = Matrix::from_fn(n, n, |i, j| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            i == j || s % 5 == 0
        });
        let mut oracle = input.clone();
        gep_iterative(&SemiringSpec::<OrAndBool>::new(), &mut oracle);
        let mut c = input.clone();
        gep_tiled(&SemiringSpec::<OrAndBool>::new(), &mut c, 4);
        assert_eq!(c, oracle);
    }
}
