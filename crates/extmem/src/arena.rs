//! The external-memory arena: an LRU page cache over the simulated disk.
//!
//! This is the STXXL role: a fully associative cache of `M` bytes over
//! pages of `B` bytes, with dirty write-back, holding the elements of one
//! or more out-of-core matrices. Both `M` and `B` are user-set, exactly
//! like STXXL's cache configuration in the paper's Figure 7 sweeps.

use crate::disk::{DiskProfile, IoStats, SimDisk};
use crate::fault::FaultClock;
use std::collections::{BTreeMap, HashMap};

struct Page<T> {
    data: Box<[T]>,
    dirty: bool,
    stamp: u64,
}

/// An element-addressed external-memory arena with an `M`-byte LRU page
/// cache over `B`-byte pages.
///
/// Dropping an arena flushes its dirty pages (unless the thread is
/// already panicking), so the underlying [`SimDisk`] image is always the
/// committed state — a checkpoint can never observe a stale page.
pub struct ExtArena<T: Copy + Default> {
    disk: SimDisk<T>,
    epp: usize,
    capacity_pages: usize,
    cache: HashMap<u64, Page<T>>,
    by_age: BTreeMap<u64, u64>,
    clock: u64,
    next_free: u64,
    faults: u64,
}

impl<T: Copy + Default> ExtArena<T> {
    /// Creates an arena with cache size `m_bytes`, page size `b_bytes`,
    /// and the given disk timing profile.
    ///
    /// # Panics
    /// Panics unless `b_bytes` divides into at least one element, the
    /// cache holds at least one page, and `b_bytes % size_of::<T>() == 0`.
    pub fn new(m_bytes: u64, b_bytes: u64, profile: DiskProfile) -> Self {
        let disk = SimDisk::new(b_bytes, profile);
        let capacity_pages = (m_bytes / b_bytes) as usize;
        assert!(capacity_pages >= 1, "cache must hold at least one page");
        Self {
            epp: disk.block_elems(),
            disk,
            capacity_pages,
            cache: HashMap::new(),
            by_age: BTreeMap::new(),
            clock: 0,
            next_free: 0,
            faults: 0,
        }
    }

    /// Cache capacity in pages (`M / B`).
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Elements per page.
    pub fn elems_per_page(&self) -> usize {
        self.epp
    }

    /// Reserves `elems` contiguous elements, returning the base element
    /// offset (page-aligned so distinct allocations never share a page).
    pub fn alloc(&mut self, elems: u64) -> u64 {
        let base = self.next_free.div_ceil(self.epp as u64) * self.epp as u64;
        self.next_free = base + elems;
        base
    }

    /// Page faults so far (cache misses that touched the disk layer,
    /// including compulsory faults on never-written pages).
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Disk counters (transfers, seeks, modelled wait time).
    pub fn io_stats(&self) -> IoStats {
        self.disk.stats()
    }

    /// Dirty resident pages (would be lost by a crash before a flush).
    pub fn dirty_pages(&self) -> usize {
        self.cache.values().filter(|p| p.dirty).count()
    }

    /// Attaches a fault-injection clock to the underlying disk (see
    /// [`crate::fault`]).
    pub fn set_fault_clock(&mut self, clock: FaultClock) {
        self.disk.set_fault_clock(clock);
    }

    /// The underlying block device — the checkpoint layer serialises and
    /// restores its image directly (uncharged: checkpointing I/O is
    /// accounted separately under `ckpt.*`).
    pub fn disk(&self) -> &SimDisk<T> {
        &self.disk
    }

    /// Mutable access to the underlying block device (recovery restores
    /// blocks; snapshots clear the changed set).
    pub fn disk_mut(&mut self) -> &mut SimDisk<T> {
        &mut self.disk
    }

    fn touch_page(&mut self, page: u64) -> &mut Page<T> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(p) = self.cache.get_mut(&page) {
            self.by_age.remove(&p.stamp);
            p.stamp = clock;
            self.by_age.insert(clock, page);
        } else {
            self.faults += 1;
            let timing = gep_obs::enabled();
            // Evict if full.
            if self.cache.len() == self.capacity_pages {
                let (&oldest, &victim) = self.by_age.iter().next().expect("cache full");
                self.by_age.remove(&oldest);
                let v = self.cache.remove(&victim).expect("resident");
                if v.dirty {
                    let start = timing.then(std::time::Instant::now);
                    self.disk.write_block(victim, &v.data);
                    if let Some(t) = start {
                        gep_obs::hist_record("extmem.write_ns", t.elapsed().as_nanos() as u64);
                    }
                }
            }
            let start = timing.then(std::time::Instant::now);
            let data = self.disk.read_block(page);
            if let Some(t) = start {
                gep_obs::hist_record("extmem.read_ns", t.elapsed().as_nanos() as u64);
            }
            self.cache.insert(
                page,
                Page {
                    data,
                    dirty: false,
                    stamp: clock,
                },
            );
            self.by_age.insert(clock, page);
        }
        self.cache.get_mut(&page).expect("just inserted")
    }

    /// Reads the element at offset `idx`.
    pub fn read(&mut self, idx: u64) -> T {
        let (page, off) = (idx / self.epp as u64, (idx % self.epp as u64) as usize);
        self.touch_page(page).data[off]
    }

    /// Writes the element at offset `idx`.
    pub fn write(&mut self, idx: u64, v: T) {
        let (page, off) = (idx / self.epp as u64, (idx % self.epp as u64) as usize);
        let p = self.touch_page(page);
        p.data[off] = v;
        p.dirty = true;
    }

    /// Writes all dirty pages back to the disk (end-of-run flush).
    /// Publishes `extmem.flush.pages` to the `gep_obs` recorder so the
    /// drop path is observable in tests.
    pub fn flush(&mut self) {
        // Flush in page order: sequential, like a sane final write-back.
        let mut dirty: Vec<u64> = self
            .cache
            .iter()
            .filter(|(_, p)| p.dirty)
            .map(|(&id, _)| id)
            .collect();
        dirty.sort_unstable();
        let flushed = dirty.len() as u64;
        let timing = gep_obs::enabled();
        for id in dirty {
            let p = self.cache.get_mut(&id).expect("resident");
            let data = std::mem::replace(&mut p.data, Vec::new().into_boxed_slice());
            let start = timing.then(std::time::Instant::now);
            self.disk.write_block(id, &data);
            if let Some(t) = start {
                gep_obs::hist_record("extmem.write_ns", t.elapsed().as_nanos() as u64);
            }
            let p = self.cache.get_mut(&id).expect("resident");
            p.data = data;
            p.dirty = false;
        }
        if flushed > 0 && gep_obs::enabled() {
            gep_obs::counter_add("extmem.flush.pages", flushed);
        }
    }
}

impl<T: Copy + Default> Drop for ExtArena<T> {
    fn drop(&mut self) {
        // Deterministic write-back on the normal exit path. During a
        // panic (including an injected crash) the dirty pages are
        // *deliberately* lost — that is exactly the volatile state a real
        // crash destroys, and re-entering the disk here could double-panic.
        if !std::thread::panicking() {
            self.flush();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn arena(pages: u64) -> ExtArena<i64> {
        // 64-byte pages = 8 i64 elements.
        ExtArena::new(pages * 64, 64, DiskProfile::fujitsu_map3735nc())
    }

    #[test]
    fn read_default_is_zero() {
        let mut a = arena(2);
        assert_eq!(a.read(1234), 0);
    }

    #[test]
    fn write_read_within_cache() {
        let mut a = arena(2);
        a.write(3, 42);
        assert_eq!(a.read(3), 42);
        assert_eq!(a.io_stats().transfers(), 0, "no disk traffic yet");
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let mut a = arena(1); // single-page cache
        a.write(0, 7); // page 0, dirty
        let _ = a.read(8); // page 1: evicts page 0 -> write-back
        assert_eq!(a.io_stats().block_writes, 1);
        assert_eq!(a.read(0), 7, "page 0 reloaded from disk");
        assert_eq!(a.io_stats().block_reads, 1);
    }

    #[test]
    fn clean_pages_evict_for_free() {
        let mut a = arena(1);
        a.write(0, 5);
        let _ = a.read(8); // evict dirty page 0 (1 write)
        let _ = a.read(0); // reload page 0 (1 read), clean now
        let _ = a.read(8); // evict clean page 0: no write-back, page 8... page 1 was evicted clean too
        let s = a.io_stats();
        assert_eq!(s.block_writes, 1);
        assert_eq!(s.block_reads, 1, "page 1 was never written: free reload");
    }

    #[test]
    fn faults_count_compulsory_misses() {
        let mut a = arena(4);
        for i in 0..32 {
            a.write(i, i as i64);
        }
        assert_eq!(a.faults(), 4); // 32 elements / 8 per page
    }

    #[test]
    fn alloc_is_page_aligned_and_disjoint() {
        let mut a = arena(4);
        let x = a.alloc(10);
        let y = a.alloc(5);
        assert_eq!(x % 8, 0);
        assert_eq!(y % 8, 0);
        assert!(y >= x + 10);
    }

    #[test]
    fn flush_persists_everything() {
        let mut a = arena(8);
        for i in 0..40 {
            a.write(i, 100 + i as i64);
        }
        a.flush();
        assert!(a.io_stats().block_writes >= 5);
        // Data still correct after flush (pages now clean).
        for i in 0..40 {
            assert_eq!(a.read(i), 100 + i as i64);
        }
    }

    #[test]
    fn dirty_pages_tracks_unflushed_writes() {
        let mut a = arena(4);
        assert_eq!(a.dirty_pages(), 0);
        a.write(0, 1);
        a.write(8, 2);
        assert_eq!(a.dirty_pages(), 2);
        let _ = a.read(16);
        assert_eq!(a.dirty_pages(), 2, "reads do not dirty");
        a.flush();
        assert_eq!(a.dirty_pages(), 0);
    }

    #[test]
    fn drop_flushes_dirty_pages_deterministically() {
        // The scoped recorder observes the drop-path flush even though
        // the arena (and its disk) die with it.
        let ((), rec) = gep_obs::record(gep_obs::Recorder::counters_only(), || {
            let mut a = arena(4);
            a.write(0, 1);
            a.write(8, 2);
            a.write(9, 3); // same page as 8
        }); // drop → flush
        assert_eq!(rec.counter("extmem.flush.pages"), 2);
        assert_eq!(
            rec.counter("io.unlabelled.block_writes"),
            0,
            "flush publishes its own counter, not io.* (those need a label)"
        );
    }

    #[test]
    fn drop_during_panic_skips_flush() {
        crate::fault::silence_injected_crash_reports();
        let (result, rec) = gep_obs::record(gep_obs::Recorder::counters_only(), || {
            crate::fault::run_to_crash(|| {
                let mut a = arena(4);
                a.write(0, 1);
                crate::fault::crash(1, false);
            })
        });
        assert!(result.is_err());
        assert_eq!(
            rec.counter("extmem.flush.pages"),
            0,
            "unwinding must not write back volatile state"
        );
    }

    #[test]
    fn larger_cache_fewer_faults() {
        let run = |pages: u64| {
            let mut a = arena(pages);
            // Strided sweep over 16 pages, repeated.
            for _ in 0..4 {
                for p in 0..16u64 {
                    a.write(p * 8, 1);
                }
            }
            a.faults()
        };
        assert!(run(16) < run(8));
        assert!(run(8) <= run(2));
    }
}
