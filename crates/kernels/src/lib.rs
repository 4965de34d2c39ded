//! # gep-kernels — specialized base-case kernels with runtime dispatch
//!
//! The recursive GEP engines spend essentially all of their time in the
//! base case. This crate provides vectorized, register-blocked base-case
//! kernels for the concrete applications in `gep-apps` — the f64 trailing
//! matrix-multiplication update `C ← C − A·B` (shared by Gaussian
//! elimination and LU), the min-plus Floyd–Warshall inner loop (`f64` and
//! `i64`), and the boolean and-or transitive-closure kernel. [`Backend`]
//! has four values; three of them carry kernels:
//!
//! * [`Backend::Portable`] — shared, auto-vectorizable Rust sweeps;
//!   correct on every host.
//! * [`Backend::Avx2`] — explicit 256-bit AVX2 + FMA kernels, selected
//!   only when `is_x86_feature_detected!` confirms host support.
//! * [`Backend::Avx512`] — the AVX2 kernels with 512-bit register tiles
//!   for the i64 min-plus and f64 multiply-accumulate hot paths, selected
//!   only when `avx512f`, `avx2` and `fma` are all detected.
//!
//! [`Backend::Generic`] is the fourth: no kernel set at all
//! ([`dispatch`] returns `None`), telling the caller to use its own
//! scalar kernel — the pre-existing behaviour, kept available for
//! differential testing.
//!
//! ## Box shapes
//!
//! Every kernel receives the [`BoxShape`] of its base-case box. On a
//! [`BoxShape::Disjoint`] box the `U`/`V`/`W` panels are stable for the
//! whole call, so the f64 multiply-accumulate kernels and the AVX2 and
//! AVX-512 `i64` min-plus kernels run k-innermost register micro-tiles
//! (where ~all the updates of a full-Σ run live). The aliased shapes
//! (`Diagonal`, `RowPanel`, `ColPanel`) run k-outermost sweeps that
//! reproduce the generic kernel's aliasing refreshes exactly. See
//! `docs/KERNELS.md` for the taxonomy and the per-application safety
//! argument.
//!
//! ## Selection
//!
//! The backend is resolved per process (plus a cheap atomic re-check per
//! call so tests and the tuner can override):
//!
//! 1. a programmatic override ([`set_backend_override`]), else
//! 2. the `GEP_KERNELS` environment variable (`generic` / `portable` /
//!    `avx2` / `avx512`), else
//! 3. the best backend the host supports ([`detect_best`]).
//!
//! Every [`dispatch`] call bumps the observability counter
//! `kernels.dispatch.<backend>`; engines falling back to the generic
//! iterative kernel bump `kernels.fallback` (see `gep-core`).

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
mod sweeps;

/// The §4.2 base-case size the engines are run at unless a caller names
/// another. 64 keeps the whole working set of a disjoint box (three 64×64
/// f64 panels ≈ 96 KiB) near L2 while giving the SIMD panels long enough
/// inner loops to amortize their setup. `repro tune` measures the
/// alternatives.
pub const DEFAULT_BASE_SIZE: usize = 64;

use gep_core::algebra::{
    Gf2, Gf2Block, Gf2x64, GfP, MaxMinI64, MinPlusF64, MinPlusI64, OrAndBool, PlusTimesF64,
    UpdateAlgebra,
};
use gep_core::{BoxShape, GepMat};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A kernel backend. `Generic` means "no specialized kernels": engines
/// use their spec's scalar base case.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Backend {
    Generic = 0,
    Portable = 1,
    Avx2 = 2,
    Avx512 = 3,
}

impl Backend {
    /// All backends, in increasing order of specialization; each one's
    /// discriminant is its index here.
    pub const ALL: [Backend; 4] = [
        Backend::Generic,
        Backend::Portable,
        Backend::Avx2,
        Backend::Avx512,
    ];

    /// Stable lowercase name (used by `GEP_KERNELS`, host stamps and
    /// counter names).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Generic => "generic",
            Backend::Portable => "portable",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Inverse of [`Backend::name`] (case-insensitive).
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.to_ascii_lowercase().as_str() {
            "generic" => Some(Backend::Generic),
            "portable" => Some(Backend::Portable),
            "avx2" => Some(Backend::Avx2),
            "avx512" => Some(Backend::Avx512),
            _ => None,
        }
    }

    /// Can this backend run on the current host?
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Generic | Backend::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                Backend::Avx2.is_supported() && std::arch::is_x86_feature_detected!("avx512f")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Name of the obs counter bumped each time this backend is dispatched
    /// (`kernels.dispatch.<backend>`). Public so tests and tooling can
    /// assert on dispatch activity without hard-coding the strings.
    pub fn dispatch_counter(self) -> &'static str {
        match self {
            Backend::Generic => "kernels.dispatch.generic",
            Backend::Portable => "kernels.dispatch.portable",
            Backend::Avx2 => "kernels.dispatch.avx2",
            Backend::Avx512 => "kernels.dispatch.avx512",
        }
    }

    /// Whether this backend runs the FMA register tiles: AVX2 and
    /// AVX-512. Their f64 elimination kernels fuse multiply-subtract,
    /// rounding once where G rounds twice (every other backend equals G
    /// bit for bit), and their i64 min-plus kernel runs the exact tile,
    /// counting each call that falls back to the saturating path in
    /// [`FW_I64_SATURATING_COUNTER`].
    pub fn fuses(self) -> bool {
        matches!(self, Backend::Avx2 | Backend::Avx512)
    }
}

/// The backends the current host can actually run, in increasing order of
/// specialization. Always contains at least `Generic` and `Portable`.
pub fn available_backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
}

/// The fastest specialized backend the host supports: `Avx512`, else
/// `Avx2`, else `Portable` (always `Portable` off x86-64).
pub fn detect_best() -> Backend {
    [Backend::Avx512, Backend::Avx2]
        .into_iter()
        .find(|b| b.is_supported())
        .unwrap_or(Backend::Portable)
}

/// A shaped base-case kernel over the whole-matrix handle: arguments are
/// the box origin `(xr, xc)`, pivot origin `kk`, side `s`, and the true
/// [`BoxShape`] of `(xr, xc, kk)`.
///
/// # Safety contract (all fields of [`KernelSet`])
/// As [`gep_core::spec::GepSpec::kernel_shaped`]: exclusive access to the
/// box, stability of the out-of-box panel cells, truthful `shape`.
pub type ShapedKernel<T> = unsafe fn(GepMat<'_, T>, usize, usize, usize, usize, BoxShape);

/// A raw `C ← C ⊕ (A ⊗ B)` accumulation panel over element type `T`:
/// `c` is `mi × nj` with row stride `ldc`, `a` is `mi × kd` (stride
/// `lda`), `b` is `kd × nj` (stride `ldb`); `a`/`b` must not overlap `c`.
pub type TilePanel<T> =
    unsafe fn(*mut T, usize, *const T, usize, *const T, usize, usize, usize, usize);

/// The f64 panel type (the historical name, kept as an alias).
pub type MmPanel = TilePanel<f64>;

/// The vtable of one backend: shaped kernels for the GEP applications
/// plus raw matrix-multiplication panels for callers (the matmul spec,
/// the tuner) that already hold disjoint panel pointers. Fields are
/// plain fn pointers, so a `&'static KernelSet` is freely shareable
/// across threads. Specs reach the right field for their algebra through
/// the [`AlgebraKernels`] hooks rather than naming fields directly.
pub struct KernelSet {
    pub backend: Backend,
    /// Gaussian elimination: `Σ = {i > k ∧ j > k}`, `f = x − (u/w)·v`.
    pub f64_ge: ShapedKernel<f64>,
    /// LU decomposition: `Σ = {i > k ∧ j ≥ k}`, multiplier at `j == k`.
    pub f64_lu: ShapedKernel<f64>,
    /// Floyd–Warshall min-plus over full `Σ`, IEEE f64 weights.
    pub f64_fw: ShapedKernel<f64>,
    /// Floyd–Warshall min-plus over full `Σ`, exact i64 weights
    /// (saturating, sentinel-absorbing `⊗` — see
    /// [`gep_core::algebra::MinPlusI64`]). AVX2 and AVX-512 run
    /// `Disjoint`, `RowPanel` and `ColPanel` boxes on a register tile,
    /// falling back to the saturating panel or sweep (and bumping
    /// [`FW_I64_SATURATING_COUNTER`]) when an operand lies outside `[0,
    /// 2·TROPICAL_INF]`.
    pub i64_fw: ShapedKernel<i64>,
    /// Bottleneck max-min closure over full `Σ`, i64 capacities.
    ///
    /// One shared auto-vectorized sweep serves every backend: the body
    /// is `min`/`max`/compare only, which LLVM vectorizes well without
    /// hand-written intrinsics.
    pub i64_maxmin: ShapedKernel<i64>,
    /// Transitive closure and-or over full `Σ`.
    pub bool_tc: ShapedKernel<bool>,
    /// Bitsliced GF(2) block elimination: `Σ = {i > k ∧ j > k}`,
    /// `f = x ⊖ u·w⁻¹·v` over 64×64 bit blocks
    /// ([`gep_core::algebra::Gf2x64`]).
    ///
    /// Word-parallel by construction (64 GF(2) columns per `u64`), so a
    /// single implementation serves every backend.
    pub gf2_elim: ShapedKernel<gep_core::algebra::Gf2Block>,
    /// `C += A·B`.
    pub f64_mm_acc: MmPanel,
    /// `C −= A·B`.
    pub f64_mm_sub: MmPanel,
}

mod portable {
    //! Fn-pointer-compatible wrappers around the shared sweeps: the
    //! portable backend uses the aliasing-safe k-outermost bodies on
    //! every shape and lets LLVM auto-vectorize at the baseline target.
    use super::{sweeps, BoxShape, GepMat};

    pub unsafe fn ge(m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize, _: BoxShape) {
        sweeps::ge_sweep(m, xr, xc, kk, s)
    }
    pub unsafe fn lu(m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize, _: BoxShape) {
        sweeps::lu_sweep(m, xr, xc, kk, s)
    }
    pub unsafe fn fw_f64(
        m: GepMat<'_, f64>,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
        _: BoxShape,
    ) {
        sweeps::fw_sweep::<f64>(m, xr, xc, kk, s)
    }
    pub unsafe fn fw_i64(
        m: GepMat<'_, i64>,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
        _: BoxShape,
    ) {
        sweeps::fw_sweep::<i64>(m, xr, xc, kk, s)
    }
    pub unsafe fn tc(m: GepMat<'_, bool>, xr: usize, xc: usize, kk: usize, s: usize, _: BoxShape) {
        sweeps::tc_sweep(m, xr, xc, kk, s)
    }
    pub unsafe fn maxmin(
        m: GepMat<'_, i64>,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
        _: BoxShape,
    ) {
        sweeps::maxmin_sweep(m, xr, xc, kk, s)
    }
    pub unsafe fn gf2_elim(
        m: GepMat<'_, gep_core::algebra::Gf2Block>,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
        _: BoxShape,
    ) {
        sweeps::gf2_elim_sweep(m, xr, xc, kk, s)
    }
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn mm_acc(
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
        sweeps::mm_acc_portable(c, ldc, a, lda, b, ldb, mi, nj, kd)
    }
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn mm_sub(
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
        sweeps::mm_sub_portable(c, ldc, a, lda, b, ldb, mi, nj, kd)
    }
}

static PORTABLE_SET: KernelSet = KernelSet {
    backend: Backend::Portable,
    f64_ge: portable::ge,
    f64_lu: portable::lu,
    f64_fw: portable::fw_f64,
    i64_fw: portable::fw_i64,
    i64_maxmin: portable::maxmin,
    bool_tc: portable::tc,
    gf2_elim: portable::gf2_elim,
    f64_mm_acc: portable::mm_acc,
    f64_mm_sub: portable::mm_sub,
};

#[cfg(target_arch = "x86_64")]
static AVX2_SET: KernelSet = KernelSet {
    backend: Backend::Avx2,
    f64_ge: avx2::ge::<avx2::Avx2>,
    f64_lu: avx2::lu::<avx2::Avx2>,
    f64_fw: avx2::fw_f64,
    i64_fw: avx2::fw_i64::<avx2::Avx2>,
    i64_maxmin: portable::maxmin,
    bool_tc: avx2::tc,
    gf2_elim: portable::gf2_elim,
    f64_mm_acc: <avx2::Avx2 as avx2::Tiles>::MM_ACC,
    f64_mm_sub: <avx2::Avx2 as avx2::Tiles>::MM_SUB,
};

/// The AVX2 set with the zmm tiles in its hot entries.
#[cfg(target_arch = "x86_64")]
static AVX512_SET: KernelSet = KernelSet {
    backend: Backend::Avx512,
    f64_ge: avx2::ge::<avx512::Avx512>,
    f64_lu: avx2::lu::<avx512::Avx512>,
    i64_fw: avx2::fw_i64::<avx512::Avx512>,
    f64_mm_acc: <avx512::Avx512 as avx2::Tiles>::MM_ACC,
    f64_mm_sub: <avx512::Avx512 as avx2::Tiles>::MM_SUB,
    ..AVX2_SET
};

/// The kernel set of a specific backend, or `None` for
/// [`Backend::Generic`].
///
/// Callers are expected to pass a supported backend (see
/// [`Backend::is_supported`]); asking for an unsupported one returns the
/// strongest set the host can actually execute rather than one it cannot.
pub fn kernel_set(backend: Backend) -> Option<&'static KernelSet> {
    match backend {
        Backend::Generic => None,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if Backend::Avx512.is_supported() => Some(&AVX512_SET),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 if Backend::Avx2.is_supported() => Some(&AVX2_SET),
        _ => Some(&PORTABLE_SET),
    }
}

const OVERRIDE_UNSET: u8 = u8::MAX;
static OVERRIDE: AtomicU8 = AtomicU8::new(OVERRIDE_UNSET);

/// Programmatically pins the backend (outranks `GEP_KERNELS`), or clears
/// the pin with `None`. Used by the tuner and the differential test
/// suites; process-global, so concurrent tests that set it must
/// serialize.
pub fn set_backend_override(backend: Option<Backend>) {
    OVERRIDE.store(
        backend.map_or(OVERRIDE_UNSET, |b| b as u8),
        Ordering::SeqCst,
    );
}

fn backend_override() -> Option<Backend> {
    Backend::ALL
        .get(usize::from(OVERRIDE.load(Ordering::SeqCst)))
        .copied()
}

fn env_backend() -> Option<Backend> {
    let v = std::env::var("GEP_KERNELS").ok()?;
    if v.is_empty() {
        return None;
    }
    match Backend::from_name(&v) {
        Some(b) if b.is_supported() => Some(b),
        Some(b) => {
            eprintln!(
                "warning: GEP_KERNELS={} not supported on this host; auto-detecting",
                b.name()
            );
            None
        }
        None => {
            eprintln!(
                "warning: GEP_KERNELS={v:?} not recognized \
                 (generic/portable/avx2/avx512); auto-detecting"
            );
            None
        }
    }
}

/// Env var, else detection, resolved once per process.
fn ambient_backend() -> Backend {
    static AMBIENT: OnceLock<Backend> = OnceLock::new();
    *AMBIENT.get_or_init(|| env_backend().unwrap_or_else(detect_best))
}

/// Counter bumped once per AVX2 or AVX-512 (see [`Backend::fuses`])
/// `Disjoint`, `RowPanel` or `ColPanel` `i64_fw` call that runs the
/// saturating panel or sweep because an A or B entry lies outside `[0,
/// 2·TROPICAL_INF]`, the register tile's contract. Distinct from
/// `kernels.fallback`, which counts base cases with no specialized kernel.
pub const FW_I64_SATURATING_COUNTER: &str = "kernels.fw_i64.saturating";

/// The backend [`dispatch`] will use right now.
pub fn selected_backend() -> Backend {
    backend_override().unwrap_or_else(ambient_backend)
}

/// Resolves the active backend and returns its kernel set, or `None` when
/// the generic scalar path is selected. Bumps
/// `kernels.dispatch.<backend>`.
///
/// The returned reference is `'static` and the set is `Sync`, so parallel
/// engines can resolve once before forking and share it across workers.
pub fn dispatch() -> Option<&'static KernelSet> {
    let b = selected_backend();
    gep_obs::counter_add(b.dispatch_counter(), 1);
    kernel_set(b)
}

/// Binds an [`UpdateAlgebra`] to the specialized kernels (if any) a
/// [`KernelSet`] carries for it. Specs in `gep-apps` are generic over the
/// algebra and reach their base-case kernels only through these hooks, so
/// adding an algebra never touches the spec layer: implement the algebra
/// in `gep-core`, implement (or default) this trait here, done.
///
/// Every hook defaults to `None` — "no specialized kernel for this
/// algebra in this set" — which callers must treat exactly like
/// [`Backend::Generic`]: fall back to the generic scalar base case (and
/// bump `kernels.fallback`).
pub trait AlgebraKernels: UpdateAlgebra {
    /// Kernel for full-`Σ` closure specs (`Σ = all (i,j,k)`), e.g.
    /// Floyd–Warshall or transitive closure over this algebra.
    fn closure_kernel(_set: &KernelSet) -> Option<ShapedKernel<Self::Elem>> {
        None
    }
    /// Kernel for elimination specs (`Σ = {i > k ∧ j > k}`,
    /// `f = x ⊖ u·w⁻¹·v`) over this algebra.
    fn elim_kernel(_set: &KernelSet) -> Option<ShapedKernel<Self::Elem>> {
        None
    }
    /// Raw `C ← C ⊕ (A ⊗ B)` (or `⊖` when `sub`) panel for callers that
    /// hold disjoint panel pointers (the matmul spec, the tuner).
    fn mm_panel(_set: &KernelSet, _sub: bool) -> Option<TilePanel<Self::Elem>> {
        None
    }
}

impl AlgebraKernels for PlusTimesF64 {
    fn elim_kernel(set: &KernelSet) -> Option<ShapedKernel<f64>> {
        Some(set.f64_ge)
    }
    fn mm_panel(set: &KernelSet, sub: bool) -> Option<TilePanel<f64>> {
        Some(if sub { set.f64_mm_sub } else { set.f64_mm_acc })
    }
}

impl AlgebraKernels for MinPlusI64 {
    fn closure_kernel(set: &KernelSet) -> Option<ShapedKernel<i64>> {
        Some(set.i64_fw)
    }
}

impl AlgebraKernels for MinPlusF64 {
    fn closure_kernel(set: &KernelSet) -> Option<ShapedKernel<f64>> {
        Some(set.f64_fw)
    }
}

impl AlgebraKernels for MaxMinI64 {
    fn closure_kernel(set: &KernelSet) -> Option<ShapedKernel<i64>> {
        Some(set.i64_maxmin)
    }
}

impl AlgebraKernels for OrAndBool {
    fn closure_kernel(set: &KernelSet) -> Option<ShapedKernel<bool>> {
        Some(set.bool_tc)
    }
}

impl AlgebraKernels for Gf2x64 {
    fn elim_kernel(set: &KernelSet) -> Option<ShapedKernel<Gf2Block>> {
        Some(set.gf2_elim)
    }
}

/// Scalar GF(2): no specialized kernel — the bitsliced representation
/// ([`Gf2x64`]) is the fast path; bit-per-bool exists for oracles only.
impl AlgebraKernels for Gf2 {}

/// GF(p): scalar Barrett arithmetic everywhere for now; all hooks default
/// to the generic fallback.
impl<const P: u64> AlgebraKernels for GfP<P> {}

#[cfg(test)]
mod tests {
    use super::*;
    use gep_core::abcd::generic_kernel;
    use gep_core::GepSpec;
    use gep_matrix::Matrix;
    use std::sync::Mutex;

    /// Serializes tests that touch the process-global backend override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 11
    }

    // -- reference specs (local copies so this crate's tests don't need
    //    gep-apps, which depends on this crate) ------------------------

    struct GeRef;
    impl GepSpec for GeRef {
        type Elem = f64;
        fn update(&self, _: usize, _: usize, _: usize, x: f64, u: f64, v: f64, w: f64) -> f64 {
            x - (u / w) * v
        }
        fn in_sigma(&self, i: usize, j: usize, k: usize) -> bool {
            i > k && j > k
        }
    }

    struct LuRef;
    impl GepSpec for LuRef {
        type Elem = f64;
        fn update(&self, _: usize, j: usize, k: usize, x: f64, u: f64, v: f64, w: f64) -> f64 {
            if j == k {
                x / w
            } else {
                x - u * v
            }
        }
        fn in_sigma(&self, i: usize, j: usize, k: usize) -> bool {
            i > k && j >= k
        }
    }

    struct FwRefF64;
    impl GepSpec for FwRefF64 {
        type Elem = f64;
        fn update(&self, _: usize, _: usize, _: usize, x: f64, u: f64, v: f64, _: f64) -> f64 {
            let cand = u + v;
            if cand < x {
                cand
            } else {
                x
            }
        }
        fn in_sigma(&self, _: usize, _: usize, _: usize) -> bool {
            true
        }
    }

    struct FwRefI64;
    impl GepSpec for FwRefI64 {
        type Elem = i64;
        fn update(&self, _: usize, _: usize, _: usize, x: i64, u: i64, v: i64, _: i64) -> i64 {
            let cand = MinPlusI64::mul(u, v);
            if cand < x {
                cand
            } else {
                x
            }
        }
        fn in_sigma(&self, _: usize, _: usize, _: usize) -> bool {
            true
        }
    }

    struct TcRef;
    impl GepSpec for TcRef {
        type Elem = bool;
        fn update(&self, _: usize, _: usize, _: usize, x: bool, u: bool, v: bool, _: bool) -> bool {
            x || (u && v)
        }
        fn in_sigma(&self, _: usize, _: usize, _: usize) -> bool {
            true
        }
    }

    struct MaxMinRef;
    impl GepSpec for MaxMinRef {
        type Elem = i64;
        fn update(&self, _: usize, _: usize, _: usize, x: i64, u: i64, v: i64, _: i64) -> i64 {
            let cand = if u < v { u } else { v };
            if cand > x {
                cand
            } else {
                x
            }
        }
        fn in_sigma(&self, _: usize, _: usize, _: usize) -> bool {
            true
        }
    }

    struct Gf2Ref;
    impl GepSpec for Gf2Ref {
        type Elem = Gf2Block;
        fn update(
            &self,
            _: usize,
            _: usize,
            _: usize,
            x: Gf2Block,
            u: Gf2Block,
            v: Gf2Block,
            w: Gf2Block,
        ) -> Gf2Block {
            <Gf2x64 as gep_core::algebra::EliminationAlgebra>::eliminate(x, u, v, w)
        }
        fn in_sigma(&self, i: usize, j: usize, k: usize) -> bool {
            i > k && j > k
        }
    }

    fn f64_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| {
            let r = (lcg(&mut s) % 1000) as f64 / 1000.0;
            // Diagonally dominant keeps GE/LU divisors well away from 0.
            if i == j {
                8.0 + r
            } else {
                0.5 + r
            }
        })
    }

    fn i64_matrix(n: usize, seed: u64) -> Matrix<i64> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0
            } else {
                (lcg(&mut s) % 100) as i64 + 1
            }
        })
    }

    fn bool_matrix(n: usize, seed: u64) -> Matrix<bool> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| i == j || lcg(&mut s).is_multiple_of(4))
    }

    /// Capacities in `[0, 1000)` with `ONE` on the diagonal and a sprinkle
    /// of `ZERO = i64::MIN` sentinels (absent edges).
    fn maxmin_matrix(n: usize, seed: u64) -> Matrix<i64> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                i64::MAX
            } else if lcg(&mut s).is_multiple_of(8) {
                i64::MIN
            } else {
                (lcg(&mut s) % 1000) as i64
            }
        })
    }

    fn rand64(seed: &mut u64) -> u64 {
        (lcg(seed) << 32) ^ lcg(seed)
    }

    fn gf2_random_block(seed: &mut u64) -> Gf2Block {
        let mut b = Gf2Block::ZERO;
        for r in 0..64 {
            b.0[r] = rand64(seed);
        }
        b
    }

    /// A random *invertible* 64×64 bit block: product of a random
    /// unit-lower and a random unit-upper triangular bit matrix.
    fn gf2_invertible_block(seed: &mut u64) -> Gf2Block {
        let mut lo = Gf2Block::IDENTITY;
        let mut up = Gf2Block::IDENTITY;
        for r in 0..64 {
            lo.0[r] |= rand64(seed) & (((1u128 << r) - 1) as u64);
            up.0[r] |= rand64(seed) & !(((1u128 << (r + 1)) - 1) as u64);
        }
        lo.mul(&up)
    }

    /// Random block matrix whose *original* diagonal blocks are
    /// invertible — what the panel-shape kernels need, since their pivot
    /// blocks lie outside the box and are never rewritten.
    fn gf2_matrix_diag_invertible(n: usize, seed: u64) -> Matrix<Gf2Block> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                gf2_invertible_block(&mut s)
            } else {
                gf2_random_block(&mut s)
            }
        })
    }

    /// Block-level `L·U` product (unit-lower · upper-with-invertible-
    /// diagonal): every leading principal block minor is nonsingular, so
    /// diagonal-box elimination — where the pivot *evolves* into a Schur
    /// complement — never hits a singular pivot block.
    fn gf2_matrix_lu(n: usize, seed: u64) -> Matrix<Gf2Block> {
        let mut s = seed;
        let lo = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                Gf2Block::IDENTITY
            } else if j < i {
                gf2_random_block(&mut s)
            } else {
                Gf2Block::ZERO
            }
        });
        let up = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                gf2_invertible_block(&mut s)
            } else if j > i {
                gf2_random_block(&mut s)
            } else {
                Gf2Block::ZERO
            }
        });
        Matrix::from_fn(n, n, |i, j| {
            let mut acc = Gf2Block::ZERO;
            for m in 0..n {
                acc.xor_assign(&lo.get(i, m).mul(&up.get(m, j)));
            }
            acc
        })
    }

    fn assert_f64_close(got: &Matrix<f64>, want: &Matrix<f64>, ctx: &str) {
        let n = want.n();
        for i in 0..n {
            for j in 0..n {
                let (g, w) = (got[(i, j)], want[(i, j)]);
                let tol = 1e-9 * w.abs().max(1.0);
                assert!(
                    (g - w).abs() <= tol,
                    "{ctx}: mismatch at ({i},{j}): got {g}, want {w}"
                );
            }
        }
    }

    /// The four aligned box configurations for side `s` on a `2s` grid,
    /// in `(xr, xc, kk, shape)` form — the same geometries the recursive
    /// engines produce (for GE/LU the disjoint box additionally satisfies
    /// `xr ≥ kk + s` and `xc ≥ kk + s`, as pruning guarantees).
    fn shapes(s: usize) -> [(usize, usize, usize, BoxShape); 4] {
        [
            (0, 0, 0, BoxShape::Diagonal),
            (0, s, 0, BoxShape::RowPanel),
            (s, 0, 0, BoxShape::ColPanel),
            (s, s, 0, BoxShape::Disjoint),
        ]
    }

    const SIDES: [usize; 8] = [1, 2, 3, 4, 5, 7, 8, 16];

    fn specialized_sets() -> Vec<&'static KernelSet> {
        available_backends()
            .into_iter()
            .filter_map(kernel_set)
            .collect()
    }

    #[test]
    fn shaped_kernels_match_generic_on_every_shape() {
        for set in specialized_sets() {
            let name = set.backend.name();
            for &s in &SIDES {
                let n = 2 * s;
                for (xr, xc, kk, shape) in shapes(s) {
                    let ctx = format!("{name} s={s} shape={shape:?}");

                    // f64 Gaussian elimination.
                    let init = f64_matrix(n, 0xC0FFEE ^ s as u64);
                    let mut want = init.clone();
                    let mut got = init.clone();
                    unsafe {
                        generic_kernel(&GeRef, GepMat::new(&mut want), xr, xc, kk, s);
                        (set.f64_ge)(GepMat::new(&mut got), xr, xc, kk, s, shape);
                    }
                    assert_f64_close(&got, &want, &format!("ge {ctx}"));

                    // f64 LU decomposition.
                    let init = f64_matrix(n, 0xBEEF ^ s as u64);
                    let mut want = init.clone();
                    let mut got = init.clone();
                    unsafe {
                        generic_kernel(&LuRef, GepMat::new(&mut want), xr, xc, kk, s);
                        (set.f64_lu)(GepMat::new(&mut got), xr, xc, kk, s, shape);
                    }
                    assert_f64_close(&got, &want, &format!("lu {ctx}"));

                    // f64 Floyd–Warshall (min-plus is exact arithmetic on
                    // these values: bitwise compare).
                    let init = f64_matrix(n, 0xF00D ^ s as u64);
                    let mut want = init.clone();
                    let mut got = init.clone();
                    unsafe {
                        generic_kernel(&FwRefF64, GepMat::new(&mut want), xr, xc, kk, s);
                        (set.f64_fw)(GepMat::new(&mut got), xr, xc, kk, s, shape);
                    }
                    assert_eq!(got, want, "fw f64 {ctx}");

                    // i64 Floyd–Warshall (exact).
                    let init = i64_matrix(n, 0xABCD ^ s as u64);
                    let mut want = init.clone();
                    let mut got = init.clone();
                    unsafe {
                        generic_kernel(&FwRefI64, GepMat::new(&mut want), xr, xc, kk, s);
                        (set.i64_fw)(GepMat::new(&mut got), xr, xc, kk, s, shape);
                    }
                    assert_eq!(got, want, "fw i64 {ctx}");

                    // bool transitive closure (exact).
                    let init = bool_matrix(n, 0x5EED ^ s as u64);
                    let mut want = init.clone();
                    let mut got = init.clone();
                    unsafe {
                        generic_kernel(&TcRef, GepMat::new(&mut want), xr, xc, kk, s);
                        (set.bool_tc)(GepMat::new(&mut got), xr, xc, kk, s, shape);
                    }
                    assert_eq!(got, want, "tc {ctx}");

                    // i64 max-min bottleneck closure (exact).
                    let init = maxmin_matrix(n, 0xD00D ^ s as u64);
                    let mut want = init.clone();
                    let mut got = init.clone();
                    unsafe {
                        generic_kernel(&MaxMinRef, GepMat::new(&mut want), xr, xc, kk, s);
                        (set.i64_maxmin)(GepMat::new(&mut got), xr, xc, kk, s, shape);
                    }
                    assert_eq!(got, want, "maxmin {ctx}");

                    // Bitsliced GF(2) block elimination (exact). The input
                    // is chosen per shape so every pivot block the kernel
                    // reads is invertible: a diagonal box evolves its
                    // pivots into Schur complements (needs nonsingular
                    // leading block minors — the L·U construction); panel
                    // boxes read the untouched originals (needs invertible
                    // diagonal blocks only).
                    let init = if shape == BoxShape::Diagonal {
                        gf2_matrix_lu(n, 0x6F2 ^ s as u64)
                    } else {
                        gf2_matrix_diag_invertible(n, 0x6F2 ^ s as u64)
                    };
                    let mut want = init.clone();
                    let mut got = init.clone();
                    unsafe {
                        generic_kernel(&Gf2Ref, GepMat::new(&mut want), xr, xc, kk, s);
                        (set.gf2_elim)(GepMat::new(&mut got), xr, xc, kk, s, shape);
                    }
                    assert_eq!(got, want, "gf2 {ctx}");
                }
            }
        }
    }

    /// Adversarial near-sentinel i64 weights: with plain `+`, a pair of
    /// large finite weights wraps negative (or lands just under the
    /// sentinel) and wins every relaxation. All backends — including the
    /// AVX2 disjoint panel — must match the saturating, `∞`-absorbing
    /// reference exactly.
    #[test]
    fn fw_i64_near_sentinel_weights_do_not_wrap() {
        use gep_core::algebra::TROPICAL_INF;
        let vals = [
            TROPICAL_INF,
            TROPICAL_INF - 1,
            i64::MAX / 2, // out-of-contract: above the sentinel
            i64::MIN / 2 + 1,
            -(TROPICAL_INF / 3),
            TROPICAL_INF / 2 + 3,
            0,
            7,
        ];
        for set in specialized_sets() {
            for &s in &[2usize, 4, 8] {
                let n = 2 * s;
                let mut c = 0usize;
                let init = Matrix::from_fn(n, n, |i, j| {
                    c += 1;
                    if i == j {
                        0
                    } else {
                        vals[(7 * c + i + 3 * j) % vals.len()]
                    }
                });
                for (xr, xc, kk, shape) in shapes(s) {
                    let mut want = init.clone();
                    let mut got = init.clone();
                    unsafe {
                        generic_kernel(&FwRefI64, GepMat::new(&mut want), xr, xc, kk, s);
                        (set.i64_fw)(GepMat::new(&mut got), xr, xc, kk, s, shape);
                    }
                    assert_eq!(
                        got,
                        want,
                        "fw i64 sentinel {} s={s} {shape:?}",
                        set.backend.name()
                    );
                }
            }
        }
    }

    /// `Disjoint` boxes on and off the register tiles' contract, at leaf
    /// sides that exercise their edges (6, 12, 20: AVX2's 4×8, AVX-512's
    /// 8×16 with masked lanes) and sides above the usual leaf of 64. A and B entries drawn from `fast` (`0` to
    /// `INF` and above, up to `2·INF`) keep the tile; one entry from
    /// `negative` (down to `−INF`, where a plain sum would not overflow
    /// but would undercut an absorbing `INF`), `high` (above `2·INF`,
    /// where it would overflow) or `low` (below `−INF`) sends the whole
    /// call to the saturating panel. C may hold anything in every case.
    /// Every backend must match the generic kernel bit for bit, and only
    /// the tiled backends ([`Backend::fuses`]) count their saturating
    /// calls.
    #[test]
    fn fw_i64_disjoint_tile_exact_on_and_off_contract() {
        use gep_core::algebra::TROPICAL_INF as INF;
        let fast = [0, 3, 1000, INF / 2, INF - 1, INF, INF + 1, 2 * INF];
        let negative = [-1, -7, -1000, -INF];
        let high = [2 * INF + 1, i64::MAX];
        let low = [-INF - 1, i64::MIN];
        let c_only = [-1000, -INF, i64::MIN, i64::MAX];
        for set in specialized_sets() {
            for &s in &[6usize, 8, 12, 20, 24, 40, 48, 56, 64, 72] {
                let n = 2 * s;
                for (case, off) in [&[][..], &negative, &high, &low].into_iter().enumerate() {
                    let off_contract = !off.is_empty();
                    let mut seed = 0x71E ^ (s as u64) ^ ((case as u64) << 8);
                    let init = Matrix::from_fn(n, n, |i, j| {
                        let r = lcg(&mut seed) as usize;
                        let in_c = i >= s && j >= s;
                        match (r.is_multiple_of(7), in_c) {
                            (true, true) => c_only[(r / 7) % c_only.len()],
                            (true, false) if off_contract => off[(r / 7) % off.len()],
                            _ => fast[r % fast.len()],
                        }
                    });
                    let mut want = init.clone();
                    let mut got = init.clone();
                    let ((), rec) =
                        gep_obs::record(gep_obs::Recorder::counters_only(), || unsafe {
                            generic_kernel(&FwRefI64, GepMat::new(&mut want), s, s, 0, s);
                            (set.i64_fw)(GepMat::new(&mut got), s, s, 0, s, BoxShape::Disjoint);
                        });
                    let ctx = format!("{} s={s} case={case}", set.backend.name());
                    assert_eq!(got, want, "fw i64 disjoint {ctx}");
                    assert_eq!(
                        rec.counter(FW_I64_SATURATING_COUNTER),
                        u64::from(off_contract && set.backend.fuses()),
                        "saturating-panel count {ctx}"
                    );
                }
            }
        }
    }

    /// The `i64` draws of [`fw_i64_aliased_panels_exact_on_and_off_contract`]
    /// on a `2s` grid with the box at `(xr, xc)`. Case 0 draws `X` and a
    /// random, not closed, `D` in `[0, INF]`; case 1 adds entries in
    /// `(INF, 2·INF]`, still on the tile. Off it, case 2 puts a negative
    /// entry on `D`'s diagonal, case 3 draws negatives down to `i64::MIN`
    /// and case 4 values above `2·INF`. One forced entry per case in `X`
    /// (the first two and the last) or `D` makes every off-contract panel
    /// call one.
    fn fw_i64_draw(s: usize, xr: usize, xc: usize, case: usize) -> Matrix<i64> {
        use gep_core::algebra::TROPICAL_INF as INF;
        let rare: [&[i64]; FW_I64_CASES] = [
            &[INF],
            &[INF + 1, INF + 7, 2 * INF],
            &[INF],
            &[-1, -7, -INF, i64::MIN],
            &[2 * INF + 1, i64::MAX],
        ];
        let rare = rare[case];
        let mut seed = 0xA1 ^ ((s as u64) << 8) ^ ((case as u64) << 16) ^ xr as u64;
        let mut init = Matrix::from_fn(2 * s, 2 * s, |_, _| {
            let r = lcg(&mut seed) as usize;
            if r.is_multiple_of(8) {
                rare[(r / 8) % rare.len()]
            } else {
                (r / 8 % 1000) as i64
            }
        });
        match case {
            1 => init[(xr, xc)] = 2 * INF,
            2 => init[(s / 2, s / 2)] = -3,
            3 => init[(xr + s - 1, xc)] = i64::MIN,
            4 => init[(0, s - 1)] = i64::MAX,
            _ => {}
        }
        init
    }

    /// Cases of [`fw_i64_draw`]; those from 2 on are off the tile's
    /// contract.
    const FW_I64_CASES: usize = 5;

    /// `RowPanel` and `ColPanel` boxes on and off the register tiles'
    /// contract, drawn by [`fw_i64_draw`]. Sides up to 8 run the AVX2
    /// scalar edges and partial blocks; 12, 20 and 72 end on a partial
    /// 4- or 8-row or 8-column block. Every backend must match the
    /// generic kernel bit for bit, and the tiled backends must count
    /// exactly their off-contract calls.
    #[test]
    fn fw_i64_aliased_panels_exact_on_and_off_contract() {
        for set in specialized_sets() {
            for &s in &[1usize, 3, 4, 5, 7, 8, 12, 20, 32, 40, 64, 72] {
                for (xr, xc, shape) in [(0, s, BoxShape::RowPanel), (s, 0, BoxShape::ColPanel)] {
                    for case in 0..FW_I64_CASES {
                        let init = fw_i64_draw(s, xr, xc, case);
                        let mut want = init.clone();
                        let mut got = init.clone();
                        let ((), rec) =
                            gep_obs::record(gep_obs::Recorder::counters_only(), || unsafe {
                                generic_kernel(&FwRefI64, GepMat::new(&mut want), xr, xc, 0, s);
                                (set.i64_fw)(GepMat::new(&mut got), xr, xc, 0, s, shape);
                            });
                        let ctx = format!("{} s={s} {shape:?} case={case}", set.backend.name());
                        assert_eq!(got, want, "fw i64 aliased {ctx}");
                        assert_eq!(
                            rec.counter(FW_I64_SATURATING_COUNTER),
                            u64::from(case >= 2 && set.backend.fuses()),
                            "saturating count {ctx}"
                        );
                    }
                }
            }
        }
    }

    /// Runs `kernel` of `a` and of `b` on copies of `init`; asserts the
    /// results and the saturating counts equal, and returns `a`'s result.
    fn same_on_both<T: Copy + PartialEq + std::fmt::Debug>(
        init: &Matrix<T>,
        kernel: fn(&KernelSet) -> ShapedKernel<T>,
        (a, b): (&KernelSet, &KernelSet),
        (xr, xc, kk, s, shape): (usize, usize, usize, usize, BoxShape),
        ctx: &str,
    ) -> Matrix<T> {
        let run = |set: &KernelSet| {
            let mut m = init.clone();
            let ((), rec) = gep_obs::record(gep_obs::Recorder::counters_only(), || unsafe {
                kernel(set)(GepMat::new(&mut m), xr, xc, kk, s, shape)
            });
            (m, rec.counter(FW_I64_SATURATING_COUNTER))
        };
        let (got_a, got_b) = (run(a), run(b));
        assert!(
            got_a == got_b,
            "{ctx}: {} and {} differ",
            a.backend.name(),
            b.backend.name()
        );
        got_a.0
    }

    /// The AVX-512 set equals the AVX2 set bit for bit: every `KernelSet`
    /// entry, every `BoxShape`, sides 1 to 72 (the fitted leaves 24, 40,
    /// 48 and 56 among them, and every side off a multiple of 8, which
    /// the zmm tiles run on masked lanes). f64 draws are random, i64
    /// draws are the five of [`fw_i64_draw`], and the i64 min-plus
    /// results must also equal the generic kernel's. GF(2) runs to side 8
    /// only: its 64×64-bit block products make longer sides slow, and
    /// both sets share its one sweep.
    #[test]
    fn avx512_matches_avx2_bitwise() {
        if !Backend::Avx512.is_supported() {
            println!("skipping avx512_matches_avx2_bitwise: this host has no AVX-512");
            return;
        }
        let sets = (
            kernel_set(Backend::Avx512).unwrap(),
            kernel_set(Backend::Avx2).unwrap(),
        );
        assert_eq!(sets.0.backend, Backend::Avx512);
        for s in 1..=72usize {
            for (xr, xc, kk, shape) in shapes(s) {
                let bx = (xr, xc, kk, s, shape);
                let ctx = format!("s={s} {shape:?}");
                let seed = (s as u64) << 4 ^ shape as u64;
                let f = f64_matrix(2 * s, 0xF64 ^ seed);
                same_on_both(&f, |k| k.f64_ge, sets, bx, &format!("ge {ctx}"));
                same_on_both(&f, |k| k.f64_lu, sets, bx, &format!("lu {ctx}"));
                same_on_both(&f, |k| k.f64_fw, sets, bx, &format!("fw f64 {ctx}"));
                for case in 0..FW_I64_CASES {
                    let init = fw_i64_draw(s, xr, xc, case);
                    let ctx = format!("fw i64 {ctx} case={case}");
                    let got = same_on_both(&init, |k| k.i64_fw, sets, bx, &ctx);
                    let mut want = init.clone();
                    unsafe { generic_kernel(&FwRefI64, GepMat::new(&mut want), xr, xc, kk, s) };
                    assert_eq!(got, want, "{ctx} against the generic kernel");
                }
                let init = maxmin_matrix(2 * s, 0xD00D ^ seed);
                same_on_both(&init, |k| k.i64_maxmin, sets, bx, &format!("maxmin {ctx}"));
                let init = bool_matrix(2 * s, 0x5EED ^ seed);
                same_on_both(&init, |k| k.bool_tc, sets, bx, &format!("tc {ctx}"));
                if s <= 8 {
                    let init = if shape == BoxShape::Diagonal {
                        gf2_matrix_lu(2 * s, 0x6F2 ^ seed)
                    } else {
                        gf2_matrix_diag_invertible(2 * s, 0x6F2 ^ seed)
                    };
                    same_on_both(&init, |k| k.gf2_elim, sets, bx, &format!("gf2 {ctx}"));
                }
            }
            // The raw panels, on C blocks that are not square.
            let (mi, nj, kd) = (s, (5 * s) % 37 + 1, (3 * s) % 29 + 1);
            let ld = 80;
            let (a, b) = (f64_matrix(ld, 11 ^ s as u64), f64_matrix(ld, 13 ^ s as u64));
            let c0 = f64_matrix(ld, 7 ^ s as u64);
            for sub in [false, true] {
                let [got, want] = [sets.0, sets.1].map(|set| {
                    let mut c = c0.clone();
                    let panel = if sub { set.f64_mm_sub } else { set.f64_mm_acc };
                    unsafe {
                        panel(
                            c.as_mut_slice().as_mut_ptr(),
                            ld,
                            a.as_slice().as_ptr(),
                            ld,
                            b.as_slice().as_ptr(),
                            ld,
                            mi,
                            nj,
                            kd,
                        )
                    };
                    c
                });
                assert_eq!(got, want, "mm sub={sub} {mi}x{nj}x{kd}");
            }
        }
    }

    #[test]
    fn mm_panels_match_naive_with_remainders() {
        for set in specialized_sets() {
            let name = set.backend.name();
            for &(mi, nj, kd) in &[
                (1usize, 1usize, 1usize),
                (1, 9, 3),
                (3, 4, 5),
                (4, 8, 8),
                (5, 11, 7),
                (6, 10, 2),
                (13, 19, 17),
            ] {
                let n = mi.max(nj).max(kd);
                let c0 = f64_matrix(n, 7 * (mi + 3 * nj + 5 * kd) as u64);
                let a = f64_matrix(n, 11 * (mi + 3 * nj + 5 * kd) as u64);
                let b = f64_matrix(n, 13 * (mi + 3 * nj + 5 * kd) as u64);
                let ld = c0.n();
                for sub in [false, true] {
                    let mut got = c0.clone();
                    let mut want = c0.clone();
                    for i in 0..mi {
                        for k in 0..kd {
                            for j in 0..nj {
                                let t = a[(i, k)] * b[(k, j)];
                                if sub {
                                    want[(i, j)] -= t;
                                } else {
                                    want[(i, j)] += t;
                                }
                            }
                        }
                    }
                    unsafe {
                        let cptr = got.as_mut_slice().as_mut_ptr();
                        let aptr = a.as_slice().as_ptr();
                        let bptr = b.as_slice().as_ptr();
                        let panel = if sub { set.f64_mm_sub } else { set.f64_mm_acc };
                        panel(cptr, ld, aptr, ld, bptr, ld, mi, nj, kd);
                    }
                    assert_f64_close(&got, &want, &format!("{name} mm sub={sub} {mi}x{nj}x{kd}"));
                }
            }
        }
    }

    #[test]
    fn zero_sized_boxes_are_noops() {
        for set in specialized_sets() {
            let init = f64_matrix(4, 99);
            let mut m = init.clone();
            unsafe {
                (set.f64_ge)(GepMat::new(&mut m), 0, 0, 0, 0, BoxShape::Diagonal);
                (set.f64_lu)(GepMat::new(&mut m), 2, 2, 0, 0, BoxShape::Disjoint);
                (set.f64_mm_acc)(
                    m.as_mut_slice().as_mut_ptr(),
                    4,
                    init.as_slice().as_ptr(),
                    4,
                    init.as_slice().as_ptr(),
                    4,
                    0,
                    0,
                    0,
                );
            }
            assert_eq!(m, init, "{}", set.backend.name());
        }
    }

    #[test]
    fn algebra_hooks_resolve_expected_kernels() {
        let set = kernel_set(Backend::Portable).unwrap();
        // Closure algebras expose a closure kernel, no elimination kernel.
        assert!(MinPlusI64::closure_kernel(set).is_some());
        assert!(MinPlusI64::elim_kernel(set).is_none());
        assert!(MinPlusF64::closure_kernel(set).is_some());
        assert!(MaxMinI64::closure_kernel(set).is_some());
        assert!(OrAndBool::closure_kernel(set).is_some());
        // Elimination algebras: the reverse.
        assert!(Gf2x64::elim_kernel(set).is_some());
        assert!(Gf2x64::closure_kernel(set).is_none());
        assert!(PlusTimesF64::elim_kernel(set).is_some());
        assert!(PlusTimesF64::mm_panel(set, false).is_some());
        assert!(PlusTimesF64::mm_panel(set, true).is_some());
        // Scalar GF(2) and GF(p) have no specialized kernels (yet): every
        // hook defaults to the generic fallback.
        assert!(Gf2::elim_kernel(set).is_none());
        assert!(GfP::<7>::elim_kernel(set).is_none());
        assert!(GfP::<7>::closure_kernel(set).is_none());
    }

    #[test]
    fn backend_names_roundtrip() {
        for (i, b) in Backend::ALL.into_iter().enumerate() {
            assert_eq!(b as usize, i, "the override indexes ALL by discriminant");
            assert_eq!(Backend::from_name(b.name()), Some(b));
            assert_eq!(Backend::from_name(&b.name().to_uppercase()), Some(b));
        }
        assert_eq!(Backend::from_name("mmx"), None);
    }

    #[test]
    fn available_backends_is_sane() {
        let avail = available_backends();
        assert!(avail.contains(&Backend::Generic));
        assert!(avail.contains(&Backend::Portable));
        assert!(avail.contains(&detect_best()));
        for b in avail {
            match b {
                Backend::Generic => assert!(kernel_set(b).is_none()),
                _ => assert_eq!(kernel_set(b).unwrap().backend, b),
            }
        }
        // An unsupported backend falls back to a set the host can run.
        for b in Backend::ALL {
            if let Some(set) = kernel_set(b) {
                assert!(set.backend.is_supported(), "{b:?} -> {:?}", set.backend);
            }
        }
    }

    #[test]
    fn override_controls_dispatch() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        for b in Backend::ALL {
            set_backend_override(Some(b));
            assert_eq!(selected_backend(), b);
        }
        set_backend_override(Some(Backend::Generic));
        assert_eq!(selected_backend(), Backend::Generic);
        assert!(dispatch().is_none());
        set_backend_override(Some(Backend::Portable));
        assert_eq!(selected_backend(), Backend::Portable);
        assert_eq!(dispatch().unwrap().backend, Backend::Portable);
        set_backend_override(None);
        // Back to ambient resolution; whatever it picks must be supported.
        assert!(selected_backend().is_supported());
    }

    #[test]
    fn dispatch_bumps_backend_counter() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_backend_override(Some(Backend::Portable));
        gep_obs::install(gep_obs::Recorder::counters_only());
        dispatch();
        dispatch();
        let rec = gep_obs::take().expect("recorder installed above");
        set_backend_override(None);
        assert_eq!(rec.counter("kernels.dispatch.portable"), 2);
    }
}
