//! `CellStore` instrumentation: run any GEP engine under a simulated
//! cache.
//!
//! A [`TrackedMatrix`] owns its element data but routes every
//! `read`/`write` through a [`SharedCache`] (so the input matrix and
//! C-GEP's four snapshot matrices can share one cache, exactly like a real
//! machine), mapping `(i, j)` to a byte address through any [`Layout`] —
//! row-major by default, or the paper's §4.2 Morton-tiled layout.

use crate::CacheModel;
use gep_core::CellStore;
use gep_matrix::{Layout, Matrix, RowMajor};
use std::cell::RefCell;
use std::rc::Rc;

/// A cache model shared by several tracked matrices (single-threaded).
pub type SharedCache<C> = Rc<RefCell<C>>;

/// Allocates non-overlapping, block-aligned base addresses for matrices in
/// a simulated address space.
#[derive(Debug, Default)]
pub struct AddressSpace {
    next: u64,
}

impl AddressSpace {
    /// A fresh address space starting at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves `bytes`, aligned up to `align`, returning the base address.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        let base = self.next.div_ceil(align) * align;
        self.next = base + bytes;
        base
    }
}

/// An `n x n` matrix whose every element access touches a shared simulated
/// cache.
pub struct TrackedMatrix<T, C: CacheModel, L: Layout = RowMajor> {
    data: Matrix<T>,
    cache: SharedCache<C>,
    base_addr: u64,
    layout: L,
}

impl<T: Copy, C: CacheModel, L: Layout> TrackedMatrix<T, C, L> {
    /// Wraps `data`, placing it at a fresh block-aligned base address in
    /// `space` and mapping indices with `layout`.
    pub fn with_layout(
        data: Matrix<T>,
        cache: SharedCache<C>,
        space: &mut AddressSpace,
        layout: L,
    ) -> Self {
        let n = data.n() as u64;
        let bytes = n * n * std::mem::size_of::<T>() as u64;
        let base_addr = space.alloc(bytes, 64);
        Self {
            data,
            cache,
            base_addr,
            layout,
        }
    }

    /// The wrapped matrix (by reference, without touching the cache).
    pub fn inner(&self) -> &Matrix<T> {
        &self.data
    }

    /// Unwraps into the plain matrix.
    pub fn into_inner(self) -> Matrix<T> {
        self.data
    }

    #[inline]
    fn touch(&self, i: usize, j: usize) {
        let idx = self.layout.index(self.data.n(), i, j) as u64;
        let addr = self.base_addr + idx * std::mem::size_of::<T>() as u64;
        self.cache.borrow_mut().access(addr);
    }
}

impl<T: Copy, C: CacheModel> TrackedMatrix<T, C, RowMajor> {
    /// Row-major tracked matrix.
    pub fn new(data: Matrix<T>, cache: SharedCache<C>, space: &mut AddressSpace) -> Self {
        Self::with_layout(data, cache, space, RowMajor)
    }
}

impl<T: Copy, C: CacheModel, L: Layout> CellStore<T> for TrackedMatrix<T, C, L> {
    fn n(&self) -> usize {
        self.data.n()
    }
    #[inline]
    fn read(&mut self, i: usize, j: usize) -> T {
        self.touch(i, j);
        self.data.get(i, j)
    }
    #[inline]
    fn write(&mut self, i: usize, j: usize, v: T) {
        self.touch(i, j);
        self.data.set(i, j, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdealCache;
    use gep_apps::floyd_warshall::FwSpec;
    use gep_core::{gep_iterative, igep, TROPICAL_INF};

    fn fw_input(n: usize, seed: u64) -> Matrix<i64> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0
            } else {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s % 5 == 0 {
                    TROPICAL_INF
                } else {
                    (s % 30) as i64 + 1
                }
            }
        })
    }

    fn run_g_misses(n: usize, m_bytes: u64, b_bytes: u64) -> (u64, Matrix<i64>) {
        let cache = Rc::new(RefCell::new(IdealCache::new(m_bytes, b_bytes)));
        let mut space = AddressSpace::new();
        let mut t = TrackedMatrix::new(fw_input(n, 1), cache.clone(), &mut space);
        gep_iterative(&FwSpec::<i64>::new(), &mut t);
        let misses = cache.borrow().stats().misses;
        (misses, t.into_inner())
    }

    fn run_igep_misses(n: usize, m_bytes: u64, b_bytes: u64) -> (u64, Matrix<i64>) {
        let cache = Rc::new(RefCell::new(IdealCache::new(m_bytes, b_bytes)));
        let mut space = AddressSpace::new();
        let mut t = TrackedMatrix::new(fw_input(n, 1), cache.clone(), &mut space);
        igep(&FwSpec::<i64>::new(), &mut t, 1);
        let misses = cache.borrow().stats().misses;
        (misses, t.into_inner())
    }

    #[test]
    fn tracking_does_not_change_results() {
        let n = 32;
        let (_, tracked_result) = run_igep_misses(n, 4096, 64);
        let mut plain = fw_input(n, 1);
        igep(&FwSpec::<i64>::new(), &mut plain, 1);
        assert_eq!(tracked_result, plain);
    }

    #[test]
    fn igep_misses_far_fewer_than_g() {
        // n = 64 (32 KB matrix), cache 4 KB, B = 64 B: the out-of-cache
        // regime where the paper's separation shows.
        let n = 64;
        let (g, _) = run_g_misses(n, 4096, 64);
        let (f, _) = run_igep_misses(n, 4096, 64);
        assert!(
            f * 3 < g,
            "I-GEP should miss at least 3x less: igep={f} g={g}"
        );
    }

    #[test]
    fn igep_misses_scale_down_with_m() {
        // Ideal-cache bound n³/(B√M): quadrupling M should roughly halve
        // misses (allow slack for constants and boundary effects).
        let n = 64;
        let (m1, _) = run_igep_misses(n, 2048, 64);
        let (m4, _) = run_igep_misses(n, 8192, 64);
        assert!(
            (m4 as f64) < 0.75 * m1 as f64,
            "4x cache should cut misses well below 75%: {m1} -> {m4}"
        );
    }

    #[test]
    fn g_misses_insensitive_to_m() {
        // GEP's Θ(n³/B) bound doesn't improve with cache size (once the
        // matrix doesn't fit).
        let n = 64;
        let (small, _) = run_g_misses(n, 2048, 64);
        let (large, _) = run_g_misses(n, 8192, 64);
        let ratio = large as f64 / small as f64;
        assert!(ratio > 0.5, "G barely benefits from 4x cache: {ratio}");
    }

    #[test]
    fn address_space_is_disjoint_and_aligned() {
        let mut s = AddressSpace::new();
        let a = s.alloc(100, 64);
        let b = s.alloc(100, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn shared_cache_across_matrices() {
        let cache = Rc::new(RefCell::new(IdealCache::new(2 * 64, 64)));
        let mut space = AddressSpace::new();
        let mut m1 = TrackedMatrix::new(Matrix::square(8, 0u8), cache.clone(), &mut space);
        let mut m2 = TrackedMatrix::new(Matrix::square(8, 0u8), cache.clone(), &mut space);
        // Accesses to different matrices evict each other in a tiny cache.
        m1.write(0, 0, 1);
        m2.write(0, 0, 2);
        let _ = m1.read(0, 0);
        let _ = m2.read(0, 0);
        assert_eq!(m1.inner()[(0, 0)], 1);
        assert_eq!(m2.inner()[(0, 0)], 2);
        assert_eq!(cache.borrow().stats().accesses(), 4);
    }
}
