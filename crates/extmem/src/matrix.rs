//! Out-of-core matrices over a shared [`ExtArena`].

use crate::arena::ExtArena;
use gep_core::CellStore;
use gep_matrix::Matrix;
use std::cell::RefCell;
use std::rc::Rc;

/// An arena shared by several out-of-core matrices (single-threaded),
/// mirroring how C-GEP's snapshot matrices share the STXXL cache.
pub type SharedArena<T> = Rc<RefCell<ExtArena<T>>>;

/// An `n × n` matrix stored out-of-core (row-major within its arena
/// region), implementing [`CellStore`] so the GEP engines run over it
/// unchanged.
pub struct ExtMatrix<T: Copy + Default> {
    arena: SharedArena<T>,
    base: u64,
    n: usize,
}

impl<T: Copy + Default> ExtMatrix<T> {
    /// Allocates an uninitialised (all-default) matrix in `arena`.
    pub fn zeroed(arena: SharedArena<T>, n: usize) -> Self {
        let base = arena.borrow_mut().alloc((n * n) as u64);
        Self { arena, base, n }
    }

    /// Allocates and fills from an in-core matrix (this is the "load the
    /// input onto disk" phase; its I/O is charged like any other).
    pub fn from_matrix(arena: SharedArena<T>, m: &Matrix<T>) -> Self {
        let mut out = Self::zeroed(arena, m.n());
        for i in 0..out.n {
            for j in 0..out.n {
                CellStore::write(&mut out, i, j, m.get(i, j));
            }
        }
        out
    }

    /// Reads the whole matrix back in-core (for verification).
    ///
    /// Flushes the shared arena first so the on-disk image and the
    /// returned matrix agree — reading back must leave no dirty page
    /// behind whose loss (in a crash) would change what a checkpoint or a
    /// re-read observes.
    pub fn to_matrix(&mut self) -> Matrix<T> {
        self.arena.borrow_mut().flush();
        let n = self.n;
        let mut out = Matrix::square(n, T::default());
        for i in 0..n {
            for j in 0..n {
                out.set(i, j, CellStore::read(self, i, j));
            }
        }
        out
    }

    #[inline]
    fn offset(&self, i: usize, j: usize) -> u64 {
        debug_assert!(i < self.n && j < self.n);
        self.base + (i * self.n + j) as u64
    }
}

impl<T: Copy + Default> CellStore<T> for ExtMatrix<T> {
    fn n(&self) -> usize {
        self.n
    }
    #[inline]
    fn read(&mut self, i: usize, j: usize) -> T {
        self.arena.borrow_mut().read(self.offset(i, j))
    }
    #[inline]
    fn write(&mut self, i: usize, j: usize, v: T) {
        self.arena.borrow_mut().write(self.offset(i, j), v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskProfile;
    use gep_apps::floyd_warshall::FwSpec;
    use gep_core::{cgep_full_with, gep_iterative, igep, TROPICAL_INF};

    fn shared(m_bytes: u64, b_bytes: u64) -> SharedArena<i64> {
        Rc::new(RefCell::new(ExtArena::new(
            m_bytes,
            b_bytes,
            DiskProfile::fujitsu_map3735nc(),
        )))
    }

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

    #[test]
    fn roundtrip_through_disk() {
        // Cache of 2 tiny pages forces constant eviction; contents must
        // still be exact.
        let arena = shared(2 * 64, 64);
        let m = Matrix::from_fn(16, 16, |i, j| (i * 16 + j) as i64);
        let mut ext = ExtMatrix::from_matrix(arena.clone(), &m);
        assert_eq!(ext.to_matrix(), m);
        assert!(arena.borrow().io_stats().transfers() > 0);
    }

    #[test]
    fn igep_out_of_core_matches_in_core() {
        let n = 32;
        let input = fw_input(n, 3);
        // Cache: half the matrix (32*32*8 = 8 KiB matrix; M = 4 KiB).
        let arena = shared(4096, 512);
        let mut ext = ExtMatrix::from_matrix(arena.clone(), &input);
        igep(&FwSpec::<i64>::new(), &mut ext, 1);
        let mut in_core = input.clone();
        igep(&FwSpec::<i64>::new(), &mut in_core, 1);
        assert_eq!(ext.to_matrix(), in_core);
    }

    #[test]
    fn cgep_out_of_core_with_shared_arena() {
        let n = 16;
        let input = fw_input(n, 9);
        let arena = shared(4096, 256);
        let mut c = ExtMatrix::from_matrix(arena.clone(), &input);
        let mut u0 = ExtMatrix::from_matrix(arena.clone(), &input);
        let mut u1 = ExtMatrix::from_matrix(arena.clone(), &input);
        let mut v0 = ExtMatrix::from_matrix(arena.clone(), &input);
        let mut v1 = ExtMatrix::from_matrix(arena.clone(), &input);
        cgep_full_with(
            &FwSpec::<i64>::new(),
            &mut c,
            &mut u0,
            &mut u1,
            &mut v0,
            &mut v1,
            1,
            false,
        );
        let mut oracle = input.clone();
        gep_iterative(&FwSpec::<i64>::new(), &mut oracle);
        assert_eq!(c.to_matrix(), oracle);
    }

    #[test]
    fn igep_waits_less_than_gep_out_of_core() {
        // The Figure 7 headline: out-of-core I-GEP beats GEP by orders of
        // magnitude in I/O wait. Small scale here; the bench harness runs
        // the full sweep.
        let n = 128; // 128 KiB matrix
        let input = fw_input(n, 17);
        let run = |use_igep: bool| {
            // M = 1/8 of the matrix; B chosen to respect the tall-cache
            // assumption M >= B² (in elements: 2048 >= 16²).
            let arena = shared(16 * 1024, 128);
            let mut ext = ExtMatrix::from_matrix(arena.clone(), &input);
            let load_wait = arena.borrow().io_stats().wait_s;
            if use_igep {
                igep(&FwSpec::<i64>::new(), &mut ext, 1);
            } else {
                gep_iterative(&FwSpec::<i64>::new(), &mut ext);
            }
            let wait = arena.borrow().io_stats().wait_s - load_wait;
            wait
        };
        let gep_wait = run(false);
        let igep_wait = run(true);
        assert!(
            igep_wait * 5.0 < gep_wait,
            "I-GEP {igep_wait:.3}s vs GEP {gep_wait:.3}s"
        );
    }

    #[test]
    fn to_matrix_flushes_dirty_pages_first() {
        let arena = shared(8 * 64, 64);
        let m = Matrix::from_fn(8, 8, |i, j| (10 * i + j) as i64);
        let mut ext = ExtMatrix::from_matrix(arena.clone(), &m);
        assert!(arena.borrow().dirty_pages() > 0, "load leaves dirty pages");
        let back = ext.to_matrix();
        assert_eq!(back, m);
        assert_eq!(
            arena.borrow().dirty_pages(),
            0,
            "to_matrix must leave the disk image committed"
        );
        // The flushed disk image itself holds the data: a fresh read of
        // every block (bypassing cache state) agrees with the matrix.
        let a = arena.borrow();
        let disk = a.disk();
        assert!(!disk.block_ids().is_empty());
        let epp = a.elems_per_page() as u64;
        for id in disk.block_ids() {
            let blk = disk.peek_block(id).expect("materialised");
            for (off, &v) in blk.iter().enumerate() {
                let idx = id * epp + off as u64;
                if idx < 64 {
                    assert_eq!(v, m.get((idx / 8) as usize, (idx % 8) as usize));
                }
            }
        }
    }

    #[test]
    fn distinct_matrices_never_alias() {
        let arena = shared(16 * 64, 64);
        let mut a = ExtMatrix::<i64>::zeroed(arena.clone(), 8);
        let mut b = ExtMatrix::<i64>::zeroed(arena.clone(), 8);
        CellStore::write(&mut a, 0, 0, 1);
        CellStore::write(&mut b, 0, 0, 2);
        assert_eq!(CellStore::read(&mut a, 0, 0), 1);
        assert_eq!(CellStore::read(&mut b, 0, 0), 2);
    }
}
