//! AVX-512 backend: zmm register tiles for the i64 min-plus and f64
//! multiply-accumulate hot paths. Everything else is the AVX2 backend's
//! code — the shaped entry points are [`crate::avx2`]'s, instantiated with
//! [`Avx512`] — so this file holds the tiles alone.
//!
//! Both tiles keep 8 rows × 16 columns of C in sixteen zmm accumulators,
//! k innermost, reading A and B in place. Columns beyond the last whole
//! 16 run on one or two zmm per row with the last vector masked
//! (`maskz_loadu`/`mask_storeu`: masked-off lanes neither fault nor
//! store), and rows beyond the last whole 8 run on a 4-, 2- or 1-row
//! instance of the same const-generic block. No cell takes a scalar path.
//!
//! * **i64 min-plus.** `vpminsq` (`_mm512_min_epi64`) makes each update
//!   one `add` and one `min` on 8 lanes, where AVX2 needs `add`, `cmpgt`
//!   and `blendv` on 4. The contract and the exactness argument are those
//!   of the AVX2 tile: every A and B entry in `[0, 2·INF]`, C clamped to
//!   `min(x, INF)` on load.
//! * **f64.** `_mm512_fmadd_pd`/`_mm512_fnmadd_pd` apply each cell's
//!   updates fused and in ascending k, exactly as AVX2's
//!   `_mm256_fmadd_pd`/`_mm256_fnmadd_pd` lanes and fused scalar edges do,
//!   so results are bitwise equal to the AVX2 backend's.
//!
//! The tiles are `#[target_feature]` functions reachable only through the
//! AVX-512 kernel set, which [`crate::kernel_set`] hands out only after
//! `is_x86_feature_detected!` confirms `avx512f`, `avx2` and `fma`.

#![allow(clippy::missing_safety_doc, clippy::too_many_arguments)]

use crate::avx2::{FwTile, Tiles};
use crate::MmPanel;
use core::arch::x86_64::*;
use gep_core::algebra::TROPICAL_INF;

/// The AVX-512 tiles: 8 rows × 16 columns of C in sixteen zmm
/// accumulators.
pub(crate) struct Avx512;

impl Tiles for Avx512 {
    const ROWS: usize = 8;
    const FW_I64: FwTile = fw_i64_tile;
    const MM_ACC: MmPanel = mm_tile::<false>;
    const MM_SUB: MmPanel = mm_tile::<true>;
}

/// The mask of the first `n` of 8 lanes, `1 ≤ n ≤ 8`.
#[inline(always)]
fn lanes(n: usize) -> __mmask8 {
    (0xFFu16 >> (8 - n)) as __mmask8
}

/// One pass of a tile over C: what to compute on an `R × 8V` block of C
/// at row `i`, column `j`, whose final vector has live lanes `last`.
trait Blocks {
    /// # Safety
    /// The pass's `#[target_feature]`s are enabled, and rows `i..i + R`
    /// and columns `j..j + 8(V − 1) + popcount(last)` lie inside the C the
    /// pass was built for (its tile function's contract covers them).
    unsafe fn block<const R: usize, const V: usize>(&self, i: usize, j: usize, last: __mmask8);
}

/// Runs `f` over an `mi × nj` C: whole 8-row blocks, then one 4-, 2- and
/// 1-row block as the remainder needs; per row block, 16-column blocks
/// (two zmm) and a last block of one or two zmm whose final vector holds
/// the remaining 1 to 8 columns.
///
/// # Safety
/// As [`Blocks::block`] for every block of the `mi × nj` C: the features
/// are enabled and `f` was built for a C of at least that shape.
#[inline(always)]
unsafe fn for_each_block<F: Blocks>(f: &F, mi: usize, nj: usize) {
    let mut i = 0;
    while i < mi {
        let rows = match mi - i {
            8.. => 8,
            4..=7 => 4,
            2 | 3 => 2,
            _ => 1,
        };
        let mut j = 0;
        while j < nj {
            let w = (nj - j).min(16);
            let last = lanes(if w > 8 { w - 8 } else { w });
            match (rows, w > 8) {
                (8, true) => f.block::<8, 2>(i, j, last),
                (8, false) => f.block::<8, 1>(i, j, last),
                (4, true) => f.block::<4, 2>(i, j, last),
                (4, false) => f.block::<4, 1>(i, j, last),
                (2, true) => f.block::<2, 2>(i, j, last),
                (2, false) => f.block::<2, 1>(i, j, last),
                (_, true) => f.block::<1, 2>(i, j, last),
                (_, false) => f.block::<1, 1>(i, j, last),
            }
            j += w;
        }
        i += rows;
    }
}

/// The lane mask of vector `v` of a `V`-vector row block: all lanes but
/// in the final vector, whose live lanes are `last`.
#[inline(always)]
fn vec_mask<const V: usize>(v: usize, last: __mmask8) -> __mmask8 {
    if v + 1 == V {
        last
    } else {
        0xFF
    }
}

/// The operands of an i64 min-plus tile pass, all at stride `ld`.
struct FwI64 {
    c: *mut i64,
    a: *const i64,
    b: *const i64,
    ld: usize,
    kd: usize,
}

impl Blocks for FwI64 {
    #[inline(always)]
    unsafe fn block<const R: usize, const V: usize>(&self, i: usize, j: usize, last: __mmask8) {
        let FwI64 { ld, kd, .. } = *self;
        let (c, a, b) = (self.c.add(i * ld + j), self.a.add(i * ld), self.b.add(j));
        let inf = _mm512_set1_epi64(TROPICAL_INF);
        let mut acc: [[__m512i; V]; R] = core::array::from_fn(|r| {
            core::array::from_fn(|v| {
                let p = c.add(r * ld + 8 * v).cast();
                _mm512_min_epi64(_mm512_maskz_loadu_epi64(vec_mask::<V>(v, last), p), inf)
            })
        });
        for k in 0..kd {
            let brow = b.add(k * ld);
            let bv: [__m512i; V] = core::array::from_fn(|v| {
                _mm512_maskz_loadu_epi64(vec_mask::<V>(v, last), brow.add(8 * v).cast())
            });
            for (r, acc) in acc.iter_mut().enumerate() {
                let u = _mm512_set1_epi64(*a.add(r * ld + k));
                for (x, &bv) in acc.iter_mut().zip(&bv) {
                    *x = _mm512_min_epi64(*x, _mm512_add_epi64(u, bv));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (v, &x) in acc.iter().enumerate() {
                let p = c.add(r * ld + 8 * v).cast();
                _mm512_mask_storeu_epi64(p, vec_mask::<V>(v, last), x);
            }
        }
    }
}

/// Register-blocked i64 min-plus product `C ← min(C, INF, A ⊗ B)` of an
/// `mi × kd` A and a `kd × nj` B into an `mi × nj` C, all at stride `ld`:
/// the zmm instance of the AVX2 tile, one `add` and one `min` per 8
/// updates, with the same contract.
///
/// # Safety
/// AVX-512F is available; otherwise as the AVX2 tile: `c` (writable), `a`
/// and `b` are valid for the shapes above at stride `ld`, `c` overlaps
/// neither, and every entry of `a` and `b` lies in `[0, 2·INF]`.
#[target_feature(enable = "avx512f")]
unsafe fn fw_i64_tile(
    c: *mut i64,
    a: *const i64,
    b: *const i64,
    ld: usize,
    mi: usize,
    nj: usize,
    kd: usize,
) {
    for_each_block(&FwI64 { c, a, b, ld, kd }, mi, nj)
}

/// The operands of an f64 tile pass; `SUB` selects `C − A·B`.
struct Mm<const SUB: bool> {
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    kd: usize,
}

impl<const SUB: bool> Blocks for Mm<SUB> {
    #[inline(always)]
    unsafe fn block<const R: usize, const V: usize>(&self, i: usize, j: usize, last: __mmask8) {
        let Mm {
            ldc, lda, ldb, kd, ..
        } = *self;
        let (c, a, b) = (self.c.add(i * ldc + j), self.a.add(i * lda), self.b.add(j));
        let mut acc: [[__m512d; V]; R] = core::array::from_fn(|r| {
            core::array::from_fn(|v| {
                _mm512_maskz_loadu_pd(vec_mask::<V>(v, last), c.add(r * ldc + 8 * v))
            })
        });
        for k in 0..kd {
            let brow = b.add(k * ldb);
            let bv: [__m512d; V] = core::array::from_fn(|v| {
                _mm512_maskz_loadu_pd(vec_mask::<V>(v, last), brow.add(8 * v))
            });
            for (r, acc) in acc.iter_mut().enumerate() {
                let u = _mm512_set1_pd(*a.add(r * lda + k));
                for (x, &bv) in acc.iter_mut().zip(&bv) {
                    *x = if SUB {
                        _mm512_fnmadd_pd(u, bv, *x)
                    } else {
                        _mm512_fmadd_pd(u, bv, *x)
                    };
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (v, &x) in acc.iter().enumerate() {
                _mm512_mask_storeu_pd(c.add(r * ldc + 8 * v), vec_mask::<V>(v, last), x);
            }
        }
    }
}

/// Register-blocked `C ← C ± A·B` (`SUB` selects `−`) over an `mi × nj`
/// C, `mi × kd` A and `kd × nj` B at strides `ldc`, `lda`, `ldb`: each
/// cell's updates fused (one rounding each) and in ascending k.
///
/// # Safety
/// AVX-512F and FMA are available; the panels are valid for the shapes
/// above and `c` overlaps neither `a` nor `b`.
#[target_feature(enable = "avx512f", enable = "fma")]
unsafe fn mm_tile<const SUB: bool>(
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    mi: usize,
    nj: usize,
    kd: usize,
) {
    let m = Mm::<SUB> {
        c,
        ldc,
        a,
        lda,
        b,
        ldb,
        kd,
    };
    for_each_block(&m, mi, nj)
}
