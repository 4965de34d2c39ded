//! AVX2/FMA backend: explicit `std::arch` micro-tile kernels for the
//! disjoint (GEMM-like) box, plus 256-bit re-instantiations of the shared
//! sweeps for the aliasing shapes. The i64 min-plus kernel also runs the
//! aliased `RowPanel`/`ColPanel` boxes on its tile (see
//! [`fw_i64_row_panel`]).
//!
//! The shaped entry points that use a register tile ([`ge`], [`lu`],
//! [`fw_i64`]) are generic over [`Tiles`], so the AVX-512 backend
//! (`crate::avx512`) shares everything here but its tiles: the range
//! check, the panel drivers, the saturating fallback and the sweeps.
//!
//! Rounding discipline: the f64 multiply-accumulate panels use *fused*
//! operations everywhere — `_mm256_fmadd_pd`/`_mm256_fnmadd_pd` in the
//! 4×8 register tile and `f64::mul_add` in the scalar edge paths — so a
//! given `(i, j, k)` update produces bit-identical results no matter which
//! path its cell lands on. The sweeps stay unfused (`x ± u·v` is never
//! contracted by rustc), matching the portable backend bit-for-bit on
//! non-disjoint boxes.
//!
//! The [`crate::KernelSet`] vtable holds the shaped entry points below,
//! plain `unsafe fn`s, and the tiles, `#[target_feature]` functions
//! coerced to `unsafe fn` pointers. Callers uphold the safety contract by
//! construction: all of them are only reachable through
//! [`crate::dispatch`], which selects this backend only after
//! `is_x86_feature_detected!("avx2")` and `("fma")` both pass.

#![allow(clippy::missing_safety_doc, clippy::too_many_arguments)]

use crate::{sweeps, MmPanel};
use core::arch::x86_64::*;
use gep_core::algebra::{MinPlusI64, UpdateAlgebra, TROPICAL_INF};
use gep_core::{BoxShape, GepMat};

/// An i64 min-plus tile `(c, a, b, ld, mi, nj, kd)`: all three operands
/// at stride `ld`, otherwise as [`crate::TilePanel`].
pub(crate) type FwTile = unsafe fn(*mut i64, *const i64, *const i64, usize, usize, usize, usize);

/// The register tiles of one SIMD backend. The shaped entry points run
/// `Disjoint` boxes, and the order-free parts of the i64 `RowPanel` and
/// `ColPanel` boxes, on these; AVX2 ([`Avx2`]) and AVX-512 differ only
/// here. Each tile handles any `mi`, `nj` and `kd`.
pub(crate) trait Tiles {
    /// Rows of C in one tile block: the height of the GE factor strip and
    /// of the `RowPanel` driver's blocks. At most [`MAX_ROWS`].
    const ROWS: usize;
    /// Exact i64 min-plus product `C ← min(C, INF, A ⊗ B)` under the
    /// contract of [`fw_i64_tile_inner`].
    const FW_I64: FwTile;
    /// `C ← C + A·B`, one fused rounding per update, k ascending per cell.
    const MM_ACC: MmPanel;
    /// `C ← C − A·B`, likewise.
    const MM_SUB: MmPanel;
}

/// The tallest tile block of any backend (AVX-512's 8 rows).
pub(crate) const MAX_ROWS: usize = 8;

/// The AVX2 tiles: 4 rows × 8 columns of C in eight ymm accumulators.
pub(crate) struct Avx2;

impl Tiles for Avx2 {
    const ROWS: usize = 4;
    const FW_I64: FwTile = fw_i64_tile_inner;
    const MM_ACC: MmPanel = mm_acc_inner;
    const MM_SUB: MmPanel = mm_sub_inner;
}

// ---------------------------------------------------------------------
// f64 multiply-accumulate panels (the FLOP hot path)
// ---------------------------------------------------------------------

/// Fused scalar cell: `*c ← *c + u·v` over the k-column, one rounding per
/// update (identical to the fmadd lanes of the vector path).
#[inline(always)]
unsafe fn cell_acc(c: *mut f64, arow: *const f64, bcol: *const f64, ldb: usize, kd: usize) {
    let mut x = *c;
    for k in 0..kd {
        x = (*arow.add(k)).mul_add(*bcol.add(k * ldb), x);
    }
    *c = x;
}

/// Fused scalar cell for the subtracting panel: `(−u)·v + x` is exactly
/// what `_mm256_fnmadd_pd` computes per lane.
#[inline(always)]
unsafe fn cell_sub(c: *mut f64, arow: *const f64, bcol: *const f64, ldb: usize, kd: usize) {
    let mut x = *c;
    for k in 0..kd {
        x = (-*arow.add(k)).mul_add(*bcol.add(k * ldb), x);
    }
    *c = x;
}

macro_rules! mm_panel {
    ($name:ident, $vfma:ident, $cell:ident) => {
        /// Register-blocked panel: 4 rows × 8 columns of C held in eight
        /// ymm accumulators, k innermost (one broadcast of `a[i,k]`, two
        /// loads of `b[k, j..j+8]` per step).
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn $name(
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
            let mut i = 0usize;
            while i + 4 <= mi {
                let r0 = c.add(i * ldc);
                let r1 = c.add((i + 1) * ldc);
                let r2 = c.add((i + 2) * ldc);
                let r3 = c.add((i + 3) * ldc);
                let a0 = a.add(i * lda);
                let a1 = a.add((i + 1) * lda);
                let a2 = a.add((i + 2) * lda);
                let a3 = a.add((i + 3) * lda);
                let mut j = 0usize;
                while j + 8 <= nj {
                    let mut c00 = _mm256_loadu_pd(r0.add(j));
                    let mut c01 = _mm256_loadu_pd(r0.add(j + 4));
                    let mut c10 = _mm256_loadu_pd(r1.add(j));
                    let mut c11 = _mm256_loadu_pd(r1.add(j + 4));
                    let mut c20 = _mm256_loadu_pd(r2.add(j));
                    let mut c21 = _mm256_loadu_pd(r2.add(j + 4));
                    let mut c30 = _mm256_loadu_pd(r3.add(j));
                    let mut c31 = _mm256_loadu_pd(r3.add(j + 4));
                    for k in 0..kd {
                        let brow = b.add(k * ldb + j);
                        let bv0 = _mm256_loadu_pd(brow);
                        let bv1 = _mm256_loadu_pd(brow.add(4));
                        let u0 = _mm256_set1_pd(*a0.add(k));
                        c00 = $vfma(u0, bv0, c00);
                        c01 = $vfma(u0, bv1, c01);
                        let u1 = _mm256_set1_pd(*a1.add(k));
                        c10 = $vfma(u1, bv0, c10);
                        c11 = $vfma(u1, bv1, c11);
                        let u2 = _mm256_set1_pd(*a2.add(k));
                        c20 = $vfma(u2, bv0, c20);
                        c21 = $vfma(u2, bv1, c21);
                        let u3 = _mm256_set1_pd(*a3.add(k));
                        c30 = $vfma(u3, bv0, c30);
                        c31 = $vfma(u3, bv1, c31);
                    }
                    _mm256_storeu_pd(r0.add(j), c00);
                    _mm256_storeu_pd(r0.add(j + 4), c01);
                    _mm256_storeu_pd(r1.add(j), c10);
                    _mm256_storeu_pd(r1.add(j + 4), c11);
                    _mm256_storeu_pd(r2.add(j), c20);
                    _mm256_storeu_pd(r2.add(j + 4), c21);
                    _mm256_storeu_pd(r3.add(j), c30);
                    _mm256_storeu_pd(r3.add(j + 4), c31);
                    j += 8;
                }
                while j < nj {
                    $cell(r0.add(j), a0, b.add(j), ldb, kd);
                    $cell(r1.add(j), a1, b.add(j), ldb, kd);
                    $cell(r2.add(j), a2, b.add(j), ldb, kd);
                    $cell(r3.add(j), a3, b.add(j), ldb, kd);
                    j += 1;
                }
                i += 4;
            }
            while i < mi {
                let r = c.add(i * ldc);
                let ar = a.add(i * lda);
                for j in 0..nj {
                    $cell(r.add(j), ar, b.add(j), ldb, kd);
                }
                i += 1;
            }
        }
    };
}

mm_panel!(mm_acc_inner, _mm256_fmadd_pd, cell_acc);
mm_panel!(mm_sub_inner, _mm256_fnmadd_pd, cell_sub);

// ---------------------------------------------------------------------
// Gaussian disjoint-box panel: precompute u/w factor strips, then FNMA
// ---------------------------------------------------------------------

/// k-chunk length of the factor strip (up to 8 rows × 128 k = 8 KiB of
/// stack).
const GE_KC: usize = 128;

/// `C ← C − (A/w)·B` over the `Disjoint` GE box: the factors `a[i,k] /
/// w[k]` of `T::ROWS` rows and up to [`GE_KC`] steps go to a strip, which
/// `T::mm_sub` then applies.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn ge_panel<T: Tiles>(
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    w: *const f64,
    ws: usize,
    mi: usize,
    nj: usize,
    kd: usize,
) {
    let mut fbuf = [0.0f64; MAX_ROWS * GE_KC];
    let mut i = 0usize;
    while i < mi {
        let rows = (mi - i).min(T::ROWS);
        let mut k0 = 0usize;
        while k0 < kd {
            let kc = (kd - k0).min(GE_KC);
            for r in 0..rows {
                let arow = a.add((i + r) * lda + k0);
                for k in 0..kc {
                    fbuf[r * GE_KC + k] = *arow.add(k) / *w.add((k0 + k) * ws);
                }
            }
            (T::MM_SUB)(
                c.add(i * ldc),
                ldc,
                fbuf.as_ptr(),
                GE_KC,
                b.add(k0 * ldb),
                ldb,
                rows,
                nj,
                kc,
            );
            k0 += kc;
        }
        i += rows;
    }
}

// ---------------------------------------------------------------------
// Floyd–Warshall min-plus panels
// ---------------------------------------------------------------------

#[target_feature(enable = "avx2")]
unsafe fn fw_f64_panel_inner(
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
    for i in 0..mi {
        let crow = c.add(i * ldc);
        let arow = a.add(i * lda);
        for k in 0..kd {
            let u = *arow.add(k);
            let uv = _mm256_set1_pd(u);
            let brow = b.add(k * ldb);
            let mut j = 0usize;
            while j + 4 <= nj {
                let x = _mm256_loadu_pd(crow.add(j));
                let v = _mm256_loadu_pd(brow.add(j));
                let cand = _mm256_add_pd(uv, v);
                // `cand < x` with ordered-quiet semantics == the scalar
                // `if cand < x` (NaN compares false, keeps x).
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(cand, x);
                _mm256_storeu_pd(crow.add(j), _mm256_blendv_pd(x, cand, lt));
                j += 4;
            }
            while j < nj {
                let cand = u + *brow.add(j);
                if cand < *crow.add(j) {
                    *crow.add(j) = cand;
                }
                j += 1;
            }
        }
    }
}

/// The largest A or B entry the i64 min-plus tile accepts: with both
/// operands in `[0, 2·INF]` the plain sum lies in `[0, 4·INF]`, which fits
/// an i64 (`4·INF ≤ i64::MAX`), and `min(u + v, INF)` equals
/// [`MinPlusI64::mul`]`(u, v)`: a pair below `INF` adds exactly, and a
/// pair with an absorbing operand (`≥ INF`) sums to at least `INF`.
const FW_TILE_MAX: i64 = 2 * TROPICAL_INF;

/// Does every entry of the `s × s` block at `p` lie in
/// `[0, FW_TILE_MAX]`, the tile's precondition? O(s²) against the
/// tile's O(s³); a negative entry reads as a huge unsigned one.
///
/// # Safety
/// AVX2 is available, and `p` addresses `s` readable rows of `s` entries
/// at stride `ld`.
#[target_feature(enable = "avx2")]
unsafe fn fw_i64_in_range(p: *const i64, ld: usize, s: usize) -> bool {
    (0..s).all(|r| {
        core::slice::from_raw_parts(p.add(r * ld), s)
            .iter()
            .fold(true, |ok, &x| ok & (x as u64 <= FW_TILE_MAX as u64))
    })
}

/// Register-blocked i64 min-plus product `C ← min(C, INF, A ⊗ B)` of an
/// `mi × kd` A and a `kd × nj` B into an `mi × nj` C, all at stride `ld`:
/// 4 rows × 8 columns of C held in eight ymm accumulators, k innermost,
/// one `add`, `cmpgt` and `blendv` per 4 updates, reading A and B in
/// place. Cells outside whole 4×8 blocks run the same arithmetic in
/// scalar code, so any shape works. A `Disjoint` box is one `(s, s, s)`
/// call; the aliased panels call it on their order-free parts (see
/// [`fw_i64_row_panel`]).
///
/// Exactness: with A and B stable and an integer `min` independent of
/// order, the generic kernel's result on a `Disjoint` box (`kd ≥ 1`) is
/// `min(x₀, minₖ MinPlusI64::mul(uₖ, vₖ)) = min(min(x₀, INF),
/// minₖ(uₖ + vₖ))` — which is what both the tile and the scalar edge
/// cells compute.
///
/// # Safety
/// AVX2 is available; `c` (writable), `a` and `b` are valid for the
/// shapes above at stride `ld`, `c` overlaps neither, and every entry of
/// `a` and `b` lies in `[0, FW_TILE_MAX]`.
#[target_feature(enable = "avx2")]
unsafe fn fw_i64_tile_inner(
    c: *mut i64,
    a: *const i64,
    b: *const i64,
    ld: usize,
    mi: usize,
    nj: usize,
    kd: usize,
) {
    let inf = _mm256_set1_epi64x(TROPICAL_INF);
    let load = |p: *const i64| {
        let x = _mm256_loadu_si256(p as *const __m256i);
        _mm256_blendv_epi8(x, inf, _mm256_cmpgt_epi64(x, inf))
    };
    let relax = |acc: __m256i, u: __m256i, v: __m256i| {
        let t = _mm256_add_epi64(u, v);
        _mm256_blendv_epi8(acc, t, _mm256_cmpgt_epi64(acc, t))
    };
    let cell = |p: *mut i64, ar: *const i64, j: usize| {
        let mut x = (*p).min(TROPICAL_INF);
        for k in 0..kd {
            x = x.min(*ar.add(k) + *b.add(k * ld + j));
        }
        *p = x;
    };
    let mut i = 0usize;
    while i + 4 <= mi {
        let (r0, r1, r2, r3) = (
            c.add(i * ld),
            c.add((i + 1) * ld),
            c.add((i + 2) * ld),
            c.add((i + 3) * ld),
        );
        let (a0, a1, a2, a3) = (
            a.add(i * ld),
            a.add((i + 1) * ld),
            a.add((i + 2) * ld),
            a.add((i + 3) * ld),
        );
        let mut j = 0usize;
        while j + 8 <= nj {
            let mut c00 = load(r0.add(j));
            let mut c01 = load(r0.add(j + 4));
            let mut c10 = load(r1.add(j));
            let mut c11 = load(r1.add(j + 4));
            let mut c20 = load(r2.add(j));
            let mut c21 = load(r2.add(j + 4));
            let mut c30 = load(r3.add(j));
            let mut c31 = load(r3.add(j + 4));
            for k in 0..kd {
                let brow = b.add(k * ld + j);
                let bv0 = _mm256_loadu_si256(brow as *const __m256i);
                let bv1 = _mm256_loadu_si256(brow.add(4) as *const __m256i);
                let u0 = _mm256_set1_epi64x(*a0.add(k));
                c00 = relax(c00, u0, bv0);
                c01 = relax(c01, u0, bv1);
                let u1 = _mm256_set1_epi64x(*a1.add(k));
                c10 = relax(c10, u1, bv0);
                c11 = relax(c11, u1, bv1);
                let u2 = _mm256_set1_epi64x(*a2.add(k));
                c20 = relax(c20, u2, bv0);
                c21 = relax(c21, u2, bv1);
                let u3 = _mm256_set1_epi64x(*a3.add(k));
                c30 = relax(c30, u3, bv0);
                c31 = relax(c31, u3, bv1);
            }
            for (p, v) in [
                (r0.add(j), c00),
                (r0.add(j + 4), c01),
                (r1.add(j), c10),
                (r1.add(j + 4), c11),
                (r2.add(j), c20),
                (r2.add(j + 4), c21),
                (r3.add(j), c30),
                (r3.add(j + 4), c31),
            ] {
                _mm256_storeu_si256(p as *mut __m256i, v);
            }
            j += 8;
        }
        for jj in j..nj {
            cell(r0.add(jj), a0, jj);
            cell(r1.add(jj), a1, jj);
            cell(r2.add(jj), a2, jj);
            cell(r3.add(jj), a3, jj);
        }
        i += 4;
    }
    for ii in i..mi {
        for jj in 0..nj {
            cell(c.add(ii * ld + jj), a.add(ii * ld), jj);
        }
    }
}

/// `dst[j] ← min(dst[j], u + src[j])` over `n` entries: one row of a
/// panel's in-block triangle. No overflow with `u ∈ [0, FW_TILE_MAX]` and
/// `src` clamped to `[0, INF]`.
///
/// # Safety
/// AVX2 is available; `dst` and `src` address `n` entries and do not
/// overlap.
#[target_feature(enable = "avx2")]
unsafe fn fw_i64_relax_row(dst: *mut i64, u: i64, src: *const i64, n: usize) {
    let (dst, src) = (
        core::slice::from_raw_parts_mut(dst, n),
        core::slice::from_raw_parts(src, n),
    );
    for (x, &v) in dst.iter_mut().zip(src) {
        *x = (*x).min(u + v);
    }
}

/// `x ← min(x, INF)` over the `s × s` block at `p`.
///
/// # Safety
/// AVX2 is available, and `p` addresses `s` writable rows of `s` entries
/// at stride `ld`.
#[target_feature(enable = "avx2")]
unsafe fn fw_i64_clamp(p: *mut i64, ld: usize, s: usize) {
    for r in 0..s {
        for x in core::slice::from_raw_parts_mut(p.add(r * ld), s) {
            *x = (*x).min(TROPICAL_INF);
        }
    }
}

/// Exact i64 min-plus `RowPanel` (B) box on the register tile: `X =
/// c[kk.., xc..]` is updated from itself through the diagonal block `D =
/// c[kk.., kk..]`, `x[i,j] ← min(x[i,j], D[i,k] ⊗ x[k,j])` for k
/// ascending, every entry of `X` and `D` in `[0, FW_TILE_MAX]`.
///
/// Exactness: write `r_m` for row `m` of `X` at the start of step `m`.
/// Every cell gets at least one update and each `⊗` is at most `INF`, so
/// clamping `X` to `min(x, INF)` first changes no result, and on clamped
/// operands `D[i,m] ⊗ r_m = min(D[i,m] + r_m, INF)` with no overflow
/// (`≤ 3·INF`). `D[i,i] ≥ 0` makes the self-update at `k == i` a no-op, so
/// G's result is `final_i = min(r_i, min_{m>i} D[i,m] + r_m)` with `r_i =
/// min(x₀_i, min_{m<i} D[i,m] + r_m)`. Integer `min` is order-free, so
/// each `min` may be split into a tile product over whole row blocks and
/// an in-block triangle; no closure of `D` is assumed, and nothing depends
/// on the tile's width. Two ascending passes over `T::ROWS`-row blocks `R
/// = [i0, e)`:
/// 1. lower: `R ← min(R, D[R, <i0] ⊗ X[<i0])` on the tile (those rows
///    already hold `r`), then the triangle `m ∈ [i0, i)` row by row;
/// 2. upper: the triangle `m ∈ (i, e)` first, reading rows the upper
///    pass has not reached, then `R ← min(R, D[R, ≥e] ⊗ X[≥e])`, whose
///    rows still hold `r`.
///
/// # Safety
/// AVX2 is available; `x` (`s × s`, writable) and `d` (`s × s`) are valid
/// at stride `ld` and do not overlap, and every entry of both lies in
/// `[0, FW_TILE_MAX]`.
#[target_feature(enable = "avx2")]
unsafe fn fw_i64_row_panel<T: Tiles>(x: *mut i64, d: *const i64, ld: usize, s: usize) {
    fw_i64_clamp(x, ld, s);
    let row = |i: usize| x.add(i * ld);
    let mut i0 = 0;
    while i0 < s {
        let e = (i0 + T::ROWS).min(s);
        if i0 > 0 {
            (T::FW_I64)(row(i0), d.add(i0 * ld), x, ld, e - i0, s, i0);
        }
        for i in i0..e {
            for m in i0..i {
                fw_i64_relax_row(row(i), *d.add(i * ld + m), row(m), s);
            }
        }
        i0 = e;
    }
    let mut i0 = 0;
    while i0 < s {
        let e = (i0 + T::ROWS).min(s);
        for i in i0..e {
            for m in i + 1..e {
                fw_i64_relax_row(row(i), *d.add(i * ld + m), row(m), s);
            }
        }
        if e < s {
            (T::FW_I64)(row(i0), d.add(i0 * ld + e), row(e), ld, e - i0, s, s - e);
        }
        i0 = e;
    }
}

/// Exact i64 min-plus `ColPanel` (C) box on the register tile: the
/// transpose of [`fw_i64_row_panel`]. `X = c[xr.., kk..]` is updated as
/// `x[i,j] ← min(x[i,j], x[i,k] ⊗ D[k,j])`, so column `j` ends as
/// `min(c_j, min_{m>j} c_m + D[m,j])` with `c_j = min(x₀_j, min_{m<j}
/// c_m + D[m,j])`. The passes run over 8-column blocks `J = [j0, e)`
/// (the width of [`fw_i64_col_triangle`]'s transposed vectors, on every
/// tile), with `X` as the tile's A operand and `D` as its B operand.
///
/// # Safety
/// As [`fw_i64_row_panel`].
#[target_feature(enable = "avx2")]
unsafe fn fw_i64_col_panel<T: Tiles>(x: *mut i64, d: *const i64, ld: usize, s: usize) {
    fw_i64_clamp(x, ld, s);
    let mut j0 = 0;
    while j0 < s {
        let e = (j0 + 8).min(s);
        if j0 > 0 {
            (T::FW_I64)(x.add(j0), x, d.add(j0), ld, s, e - j0, j0);
        }
        fw_i64_col_triangle::<false>(x, d, ld, s, j0, e);
        j0 = e;
    }
    let mut j0 = 0;
    while j0 < s {
        let e = (j0 + 8).min(s);
        fw_i64_col_triangle::<true>(x, d, ld, s, j0, e);
        if e < s {
            (T::FW_I64)(
                x.add(j0),
                x.add(e),
                d.add(e * ld + j0),
                ld,
                s,
                e - j0,
                s - e,
            );
        }
        j0 = e;
    }
}

/// The in-block triangle of a `ColPanel` column block `[j0, e)` over all
/// `s` rows: column `j` takes `x[i,m] + D[m,j]` for every `m < j` (lower
/// pass, `m` already final) or every `m ∈ (j, e)` (`UPPER`, `m` not yet
/// reached). A whole 8-column block runs four rows at a time as eight
/// column vectors (a 4×4 transpose in and out), one vector relax per
/// `(m, j)`; other cells run the same order in scalar code.
///
/// # Safety
/// As [`fw_i64_row_panel`], with `j0 < e ≤ min(j0 + 8, s)`.
#[target_feature(enable = "avx2")]
unsafe fn fw_i64_col_triangle<const UPPER: bool>(
    x: *mut i64,
    d: *const i64,
    ld: usize,
    s: usize,
    j0: usize,
    e: usize,
) {
    let folds = |m: usize, j: usize| if UPPER { m > j } else { m < j };
    // Swaps rows and columns of the two 4×4 blocks `v[0..4]`, `v[4..8]`.
    let transpose = |v: &mut [__m256i; 8]| {
        for h in [0, 4] {
            let t0 = _mm256_unpacklo_epi64(v[h], v[h + 1]);
            let t1 = _mm256_unpackhi_epi64(v[h], v[h + 1]);
            let t2 = _mm256_unpacklo_epi64(v[h + 2], v[h + 3]);
            let t3 = _mm256_unpackhi_epi64(v[h + 2], v[h + 3]);
            v[h] = _mm256_permute2x128_si256(t0, t2, 0x20);
            v[h + 1] = _mm256_permute2x128_si256(t1, t3, 0x20);
            v[h + 2] = _mm256_permute2x128_si256(t0, t2, 0x31);
            v[h + 3] = _mm256_permute2x128_si256(t1, t3, 0x31);
        }
    };
    let db = d.add(j0 * ld + j0);
    let mut i = 0;
    if e - j0 == 8 {
        while i + 4 <= s {
            let xb = x.add(i * ld + j0);
            let at = |q: usize| xb.add(q % 4 * ld + q / 4 * 4) as *mut __m256i;
            let mut v: [__m256i; 8] = core::array::from_fn(|q| _mm256_loadu_si256(at(q)));
            transpose(&mut v);
            for j in 0..8 {
                for m in 0..8 {
                    if folds(m, j) {
                        let t = _mm256_add_epi64(v[m], _mm256_set1_epi64x(*db.add(m * ld + j)));
                        v[j] = _mm256_blendv_epi8(v[j], t, _mm256_cmpgt_epi64(v[j], t));
                    }
                }
            }
            transpose(&mut v);
            for (q, r) in v.into_iter().enumerate() {
                _mm256_storeu_si256(at(q), r);
            }
            i += 4;
        }
    }
    for i in i..s {
        let xr = x.add(i * ld);
        for j in j0..e {
            let mut t = *xr.add(j);
            for m in (j0..e).filter(|&m| folds(m, j)) {
                t = t.min(*xr.add(m) + *d.add(m * ld + j));
            }
            *xr.add(j) = t;
        }
    }
}

/// i64 min-plus panel with the exact [`MinPlusI64::mul`] semantics of the
/// scalar path: `u ⊗ v` saturates instead of wrapping and is absorbing at
/// [`TROPICAL_INF`] — a plain `_mm256_add_epi64` would let two
/// near-sentinel weights wrap negative and "win" every relaxation. The
/// exact fallback for `Disjoint` boxes with an A or B entry outside
/// `[0, 2·INF]`.
#[target_feature(enable = "avx2")]
unsafe fn fw_i64_panel_inner(
    c: *mut i64,
    ldc: usize,
    a: *const i64,
    lda: usize,
    b: *const i64,
    ldb: usize,
    mi: usize,
    nj: usize,
    kd: usize,
) {
    let inf = _mm256_set1_epi64x(TROPICAL_INF);
    let inf_m1 = _mm256_set1_epi64x(TROPICAL_INF - 1);
    let zero = _mm256_setzero_si256();
    for i in 0..mi {
        let crow = c.add(i * ldc);
        let arow = a.add(i * lda);
        for k in 0..kd {
            let u = *arow.add(k);
            let brow = b.add(k * ldb);
            if u >= TROPICAL_INF {
                // u is absorbing: every candidate is exactly INF. Only
                // out-of-range cells (x > INF) change, matching the
                // scalar `min(x, INF)`.
                let mut j = 0usize;
                while j + 4 <= nj {
                    let x = _mm256_loadu_si256(crow.add(j) as *const __m256i);
                    let gt = _mm256_cmpgt_epi64(x, inf);
                    let res = _mm256_blendv_epi8(x, inf, gt);
                    _mm256_storeu_si256(crow.add(j) as *mut __m256i, res);
                    j += 4;
                }
                while j < nj {
                    if TROPICAL_INF < *crow.add(j) {
                        *crow.add(j) = TROPICAL_INF;
                    }
                    j += 1;
                }
                continue;
            }
            let uv = _mm256_set1_epi64x(u);
            // Overflow of u + v requires sign(u) == sign(v), so the
            // saturated value is uniform across the vector.
            let satval = _mm256_set1_epi64x(if u >= 0 { i64::MAX } else { i64::MIN });
            let mut j = 0usize;
            while j + 4 <= nj {
                let x = _mm256_loadu_si256(crow.add(j) as *const __m256i);
                let v = _mm256_loadu_si256(brow.add(j) as *const __m256i);
                let mut cand = _mm256_add_epi64(uv, v);
                // Signed-overflow mask: the sum overflowed iff its sign
                // differs from both addends' — (u^cand) & (v^cand) has
                // the sign bit set (AVX2 has no 64-bit arithmetic shift,
                // so read the sign bit with a compare against zero).
                let ovf = _mm256_cmpgt_epi64(
                    zero,
                    _mm256_and_si256(_mm256_xor_si256(uv, cand), _mm256_xor_si256(v, cand)),
                );
                cand = _mm256_blendv_epi8(cand, satval, ovf);
                // Clamp into the sentinel: min(cand, INF) (no
                // _mm256_min_epi64 at AVX2).
                let big = _mm256_cmpgt_epi64(cand, inf);
                cand = _mm256_blendv_epi8(cand, inf, big);
                // Absorb: v ≥ INF ⇒ cand = INF, whatever u was.
                let vinf = _mm256_cmpgt_epi64(v, inf_m1);
                cand = _mm256_blendv_epi8(cand, inf, vinf);
                // Take cand exactly where x > cand, i.e. cand < x.
                let gt = _mm256_cmpgt_epi64(x, cand);
                let res = _mm256_blendv_epi8(x, cand, gt);
                _mm256_storeu_si256(crow.add(j) as *mut __m256i, res);
                j += 4;
            }
            while j < nj {
                let cand = MinPlusI64::mul(u, *brow.add(j));
                if cand < *crow.add(j) {
                    *crow.add(j) = cand;
                }
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Transitive-closure or-panel (bool == u8 with values 0/1)
// ---------------------------------------------------------------------

#[target_feature(enable = "avx2")]
unsafe fn tc_panel_inner(
    c: *mut bool,
    ldc: usize,
    a: *const bool,
    lda: usize,
    b: *const bool,
    ldb: usize,
    mi: usize,
    nj: usize,
    kd: usize,
) {
    for i in 0..mi {
        let crow = c.add(i * ldc) as *mut u8;
        let arow = a.add(i * lda);
        for k in 0..kd {
            if !*arow.add(k) {
                continue;
            }
            let brow = b.add(k * ldb) as *const u8;
            let mut j = 0usize;
            while j + 32 <= nj {
                let x = _mm256_loadu_si256(crow.add(j) as *const __m256i);
                let v = _mm256_loadu_si256(brow.add(j) as *const __m256i);
                _mm256_storeu_si256(crow.add(j) as *mut __m256i, _mm256_or_si256(x, v));
                j += 32;
            }
            while j < nj {
                // OR of 0x00/0x01 bytes stays a valid bool.
                *crow.add(j) |= *brow.add(j);
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// 256-bit instantiations of the shared sweeps (aliasing shapes)
// ---------------------------------------------------------------------

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn ge_sweep_tf(m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize) {
    sweeps::ge_sweep(m, xr, xc, kk, s)
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn lu_sweep_tf(m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize) {
    sweeps::lu_sweep(m, xr, xc, kk, s)
}

#[target_feature(enable = "avx2")]
unsafe fn fw_f64_sweep_tf(m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize) {
    sweeps::fw_sweep::<f64>(m, xr, xc, kk, s)
}

#[target_feature(enable = "avx2")]
unsafe fn fw_i64_sweep_tf(m: GepMat<'_, i64>, xr: usize, xc: usize, kk: usize, s: usize) {
    sweeps::fw_sweep::<i64>(m, xr, xc, kk, s)
}

#[target_feature(enable = "avx2")]
unsafe fn tc_sweep_tf(m: GepMat<'_, bool>, xr: usize, xc: usize, kk: usize, s: usize) {
    sweeps::tc_sweep(m, xr, xc, kk, s)
}

// ---------------------------------------------------------------------
// Shaped entry points (the KernelSet vtable)
// ---------------------------------------------------------------------

pub unsafe fn ge<T: Tiles>(
    m: GepMat<'_, f64>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    shape: BoxShape,
) {
    match shape {
        // Pruning guarantees xr > kk and xc > kk here, so the whole box is
        // inside Σ and U/V/W are all outside X: a pure GEMM-like panel.
        BoxShape::Disjoint => {
            let ld = m.n();
            ge_panel::<T>(
                m.row_ptr(xr).add(xc),
                ld,
                m.row_ptr(xr).add(kk),
                ld,
                m.row_ptr(kk).add(xc),
                ld,
                m.row_ptr(kk).add(kk),
                ld + 1,
                s,
                s,
                s,
            )
        }
        _ => ge_sweep_tf(m, xr, xc, kk, s),
    }
}

pub unsafe fn lu<T: Tiles>(
    m: GepMat<'_, f64>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    shape: BoxShape,
) {
    match shape {
        // Disjoint ⇒ xc > kk: column k is outside the tile, the
        // multipliers in c[xr.., kk..] are already formed, and every
        // update is the pure `x − u·v`.
        BoxShape::Disjoint => {
            let ld = m.n();
            (T::MM_SUB)(
                m.row_ptr(xr).add(xc),
                ld,
                m.row_ptr(xr).add(kk),
                ld,
                m.row_ptr(kk).add(xc),
                ld,
                s,
                s,
                s,
            )
        }
        _ => lu_sweep_tf(m, xr, xc, kk, s),
    }
}

pub unsafe fn fw_f64(
    m: GepMat<'_, f64>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    shape: BoxShape,
) {
    match shape {
        BoxShape::Disjoint => {
            let ld = m.n();
            fw_f64_panel_inner(
                m.row_ptr(xr).add(xc),
                ld,
                m.row_ptr(xr).add(kk),
                ld,
                m.row_ptr(kk).add(xc),
                ld,
                s,
                s,
                s,
            )
        }
        _ => fw_f64_sweep_tf(m, xr, xc, kk, s),
    }
}

pub unsafe fn fw_i64<T: Tiles>(
    m: GepMat<'_, i64>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    shape: BoxShape,
) {
    if shape == BoxShape::Diagonal {
        return fw_i64_sweep_tf(m, xr, xc, kk, s);
    }
    let ld = m.n();
    let (c, a, b) = (
        m.row_ptr(xr).add(xc),
        m.row_ptr(xr).add(kk) as *const i64,
        m.row_ptr(kk).add(xc) as *const i64,
    );
    // SAFETY: C = c[xr.., xc..], A = c[xr.., kk..] and B = c[kk.., xc..]
    // are s×s blocks of the ld-wide matrix. On a `Disjoint` box C overlaps
    // neither; on a `RowPanel` A is the diagonal block and B is C itself,
    // on a `ColPanel` A is C and B the diagonal block, which the panel
    // kernels never write. The fast paths run only once both passed the
    // range check.
    if fw_i64_in_range(a, ld, s) && fw_i64_in_range(b, ld, s) {
        match shape {
            BoxShape::Disjoint => (T::FW_I64)(c, a, b, ld, s, s, s),
            BoxShape::RowPanel => fw_i64_row_panel::<T>(c, a, ld, s),
            _ => fw_i64_col_panel::<T>(c, b, ld, s),
        }
    } else {
        gep_obs::counter_add(crate::FW_I64_SATURATING_COUNTER, 1);
        match shape {
            BoxShape::Disjoint => fw_i64_panel_inner(c, ld, a, ld, b, ld, s, s, s),
            _ => fw_i64_sweep_tf(m, xr, xc, kk, s),
        }
    }
}

pub unsafe fn tc(m: GepMat<'_, bool>, xr: usize, xc: usize, kk: usize, s: usize, shape: BoxShape) {
    match shape {
        BoxShape::Disjoint => {
            let ld = m.n();
            tc_panel_inner(
                m.row_ptr(xr).add(xc),
                ld,
                m.row_ptr(xr).add(kk),
                ld,
                m.row_ptr(kk).add(xc),
                ld,
                s,
                s,
                s,
            )
        }
        _ => tc_sweep_tf(m, xr, xc, kk, s),
    }
}
