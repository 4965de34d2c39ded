//! # gep-extmem — simulated external memory (the STXXL substitute)
//!
//! The paper's out-of-core experiments (Figure 7) run GEP / I-GEP / C-GEP
//! over the STXXL library, which keeps a fully associative page cache of
//! configurable size `M` and block size `B` in RAM over a fast SCSI disk
//! (Fujitsu MAP3735NC: 10K RPM, 4.5 ms average seek, 64–107 MB/s
//! transfer), with DIRECT-I/O so the OS page cache is bypassed.
//!
//! This crate rebuilds that stack as a deterministic simulation:
//!
//! * [`SimDisk`] — a sparse block device with the Fujitsu drive's timing
//!   model: each transfer costs `B / bandwidth`, plus an average seek
//!   unless it continues the previous transfer sequentially;
//! * [`ExtArena`] — a fully associative LRU **page cache** of `M` bytes
//!   over the disk with dirty-block write-back (the STXXL cache);
//! * [`ExtMatrix`] — an `n × n` matrix living in the arena, implementing
//!   [`gep_core::CellStore`] so every unchanged GEP engine runs
//!   out-of-core. Several matrices (e.g. C-GEP's snapshots) share one
//!   arena, exactly as they would share the STXXL cache.
//!
//! The harness reads back [`IoStats`]: block transfers, bytes, and the
//! modelled *I/O wait time* that Figure 7 plots.
//!
//! The stores take any side; the engines over them keep their in-core
//! side rules. Every out-of-core run here (Figure 7, the resume
//! experiment, the crash axis) uses power-of-two sides, so those are the
//! sides whose I/O counts and crash recovery are checked; fitted sides
//! are ROADMAP.md's "One side rule".

pub mod arena;
pub mod checkpoint;
pub mod disk;
pub mod fault;
pub mod matrix;
pub mod store;
pub mod wal;

pub use arena::ExtArena;
pub use checkpoint::{
    recover, run_checkpointed, CkptConfig, CkptStats, ElemBytes, Manifest, Recovery,
};
pub use disk::{DiskProfile, IoStats, SimDisk};
pub use fault::{
    fault_clock, run_to_crash, silence_injected_crash_reports, FaultClock, FaultPlan,
    InjectedCrash, WriteFate,
};
pub use matrix::{ExtMatrix, SharedArena};
pub use store::{CkptStore, DirStore, MemStore};
pub use wal::{crc32, read_wal, WalRecord, WalScan};
