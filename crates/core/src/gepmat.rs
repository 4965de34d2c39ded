//! `GepMat`: the raw shared-matrix handle used by the optimised and
//! parallel I-GEP and C-GEP engines.
//!
//! The Figure 6 recursion passes four submatrices `X, U, V, W` that may
//! *alias* (in `A` they are all the same subsquare) and runs sibling calls
//! concurrently whose reads overlap while their writes stay disjoint
//! (e.g. `B₁` and `C₁` both read quadrant `X₁₁` while writing `X₁₂` and
//! `X₂₁` respectively). Rust's `&mut` cannot express "disjoint writes with
//! shared reads proven by an external dependency argument", so the engine
//! works over a raw pointer handle and concentrates the obligation in two
//! `unsafe` accessors.
//!
//! **Safety argument** (paper, Section 3): at every step of the A/B/C/D
//! recursion, the calls grouped in one `parallel:` block write pairwise
//! disjoint quadrants, and no call in the block writes a region another
//! call in the block reads. Sequential composition of the blocks gives
//! each write exclusive access at the moment it happens. Every engine on
//! this handle runs the one Figure 6 tree in [`crate::abcd`], whose
//! grouping is the paper's, so its dependency analysis carries over to
//! any leaf body that writes only its box (plus per-cell state beside
//! it, as C-GEP's snapshots) and reads only the box's panels; the test
//! suites additionally compare every parallel execution against the
//! sequential engines.

use gep_matrix::Matrix;
use std::marker::PhantomData;

/// A shared handle to an `n x n` row-major matrix.
///
/// Copyable so recursion closures can capture it by value.
pub struct GepMat<'a, T> {
    ptr: *mut T,
    n: usize,
    _marker: PhantomData<&'a mut [T]>,
}

impl<T> Clone for GepMat<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for GepMat<'_, T> {}

// SAFETY: see the module-level safety argument. The handle itself is just a
// pointer + size; all dereferences are `unsafe fn`s whose callers must
// uphold the disjoint-writes discipline.
unsafe impl<T: Send> Send for GepMat<'_, T> {}
unsafe impl<T: Send> Sync for GepMat<'_, T> {}

impl<'a, T: Copy> GepMat<'a, T> {
    /// Creates a handle borrowing `m` exclusively for `'a`.
    pub fn new(m: &'a mut Matrix<T>) -> Self {
        let n = m.n();
        Self {
            ptr: m.as_mut_slice().as_mut_ptr(),
            n,
            _marker: PhantomData,
        }
    }

    /// Side length.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reads element `(i, j)`.
    ///
    /// # Safety
    /// `i, j < n`, and no concurrent write to `(i, j)`.
    #[inline(always)]
    pub unsafe fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.n && j < self.n);
        *self.ptr.add(i * self.n + j)
    }

    /// Writes element `(i, j)`.
    ///
    /// # Safety
    /// `i, j < n`, and no concurrent access to `(i, j)`.
    #[inline(always)]
    pub unsafe fn set(&self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.n && j < self.n);
        *self.ptr.add(i * self.n + j) = v;
    }

    /// Pointer to the start of row `i`.
    ///
    /// # Safety
    /// `i < n`; accesses through the pointer must respect the same
    /// disjointness discipline as [`GepMat::get`]/[`GepMat::set`].
    #[inline(always)]
    pub unsafe fn row_ptr(&self, i: usize) -> *mut T {
        debug_assert!(i < self.n);
        self.ptr.add(i * self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as i32);
        let g = GepMat::new(&mut m);
        unsafe {
            assert_eq!(g.get(2, 3), 11);
            g.set(2, 3, -1);
            assert_eq!(g.get(2, 3), -1);
        }
        assert_eq!(m[(2, 3)], -1);
    }

    #[test]
    fn row_ptr_matches_layout() {
        let mut m = Matrix::from_fn(4, 4, |i, j| (i * 10 + j) as u32);
        let g = GepMat::new(&mut m);
        unsafe {
            let p = g.row_ptr(2);
            assert_eq!(*p, 20);
            assert_eq!(*p.add(3), 23);
        }
    }

    #[test]
    fn handle_is_copy_and_sendable() {
        fn assert_send_sync<X: Send + Sync>(_: &X) {}
        let mut m = Matrix::square(2, 0u64);
        let g = GepMat::new(&mut m);
        let h = g;
        assert_send_sync(&h);
        unsafe {
            g.set(0, 0, 5);
            assert_eq!(h.get(0, 0), 5);
        }
    }
}
