//! Checkpoint/resume for out-of-core I-GEP solves.
//!
//! ## Protocol
//!
//! A run's durable state lives in a [`CkptStore`] under three names:
//!
//! * `WAL` — append-only, checksummed progress records ([`crate::wal`]);
//! * `snap-<g>` — block-level snapshots of the [`crate::SimDisk`] image.
//!   Generation 0 is a full image (taken right after the input is loaded,
//!   at cursor 0); generation `g > 0` holds only the blocks written since
//!   generation `g − 1` (the disk's changed set);
//! * `MANIFEST` — the commit point: a fixed-size, checksummed record
//!   naming the latest generation and its cursor, replaced atomically
//!   (tmp + rename semantics, [`CkptStore::put_atomic`]).
//!
//! A snapshot at cursor `c` commits in four ordered writes:
//!
//! ```text
//! flush arena → put_atomic snap-<g> → append WAL Snapshot{g, c}
//!             → put_atomic MANIFEST{g, c} → mark disk clean
//! ```
//!
//! A crash between any two of them leaves the *previous* manifest
//! pointing at a fully valid chain — the new snapshot file and WAL record
//! are orphans that the resumed run simply overwrites. This is the same
//! "manifest is the root of trust, everything else is immutable +
//! re-writable" design as LSM manifests and wal3.
//!
//! ## Recovery invariants
//!
//! [`recover`] trusts nothing it cannot checksum:
//!
//! 1. the manifest must decode and match the run's `(n, base, Σ-schedule
//!    total, element type)`;
//! 2. the snapshot chain `snap-0 ..= snap-latest` is validated front to
//!    back; the first generation that is missing, corrupt, or
//!    inconsistent truncates the chain there (counted as *fallbacks*);
//! 3. the WAL's longest valid prefix must contain the matching
//!    `Snapshot{g, c}` record for every generation the chain keeps —
//!    a generation the WAL never heard of is treated as uncommitted;
//! 4. the restart cursor is the cursor of the last surviving generation;
//!    recomputation from there is bit-exact because the leaf schedule is
//!    deterministic (see [`gep_core::resume`]).
//!
//! Losing the chain tip therefore costs recomputation, never
//! correctness.

use crate::arena::ExtArena;
use crate::disk::DiskProfile;
use crate::fault::FaultClock;
use crate::matrix::{ExtMatrix, SharedArena};
use crate::store::CkptStore;
use crate::wal::{crc32, read_wal, WalRecord};
use gep_core::{igep_resumable, igep_step_count, GepSpec, StepControl};
use gep_matrix::Matrix;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Fixed-width little-endian serialisation for checkpointable elements.
/// Floats round-trip through raw bits, so restored values are
/// bit-identical (NaN payloads included).
pub trait ElemBytes: Copy + Default + PartialEq + std::fmt::Debug + 'static {
    /// Serialised size in bytes.
    const SIZE: usize;
    /// Distinct per implementing type — catches reinterpreting a
    /// checkpoint under a same-sized but different element type (i64 vs
    /// f64 both serialise to 8 bytes).
    const TAG: u8;
    /// Appends the little-endian encoding to `out`.
    fn write_le(&self, out: &mut Vec<u8>);
    /// Decodes from the first `SIZE` bytes of `b`.
    fn read_le(b: &[u8]) -> Self;
}

/// The element code stored in manifest and snapshot headers: tag in the
/// high half, byte size in the low half.
fn elem_code<T: ElemBytes>() -> u32 {
    ((T::TAG as u32) << 16) | T::SIZE as u32
}

impl ElemBytes for i64 {
    const SIZE: usize = 8;
    const TAG: u8 = 1;
    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(b: &[u8]) -> Self {
        i64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
    }
}

impl ElemBytes for f64 {
    const SIZE: usize = 8;
    const TAG: u8 = 2;
    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_le(b: &[u8]) -> Self {
        f64::from_bits(u64::from_le_bytes(b[..8].try_into().expect("8 bytes")))
    }
}

const MANIFEST_MAGIC: &[u8; 4] = b"GEPM";
const SNAP_MAGIC: &[u8; 4] = b"GEPS";
const FORMAT_VERSION: u32 = 1;

/// Object names in the store.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// The WAL object name.
pub const WAL_NAME: &str = "WAL";

fn snap_name(gen: u64) -> String {
    format!("snap-{gen}")
}

/// The versioned manifest: the atomic commit point of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Matrix dimension.
    pub n: u64,
    /// Recursion base-case size.
    pub base: u64,
    /// Total leaf steps of the schedule.
    pub total_steps: u64,
    /// Leaf steps between snapshots.
    pub snapshot_every: u64,
    /// Latest committed snapshot generation.
    pub latest_gen: u64,
    /// Cursor of that generation (leaf steps `1..=cursor` are durable).
    pub cursor: u64,
    /// Element type code (size + tag — type check across restarts).
    pub elem_code: u32,
    /// True once the run finished (`cursor == total_steps`).
    pub completed: bool,
}

impl Manifest {
    /// Serialises with magic, version and trailing CRC-32.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.elem_code.to_le_bytes());
        for v in [
            self.n,
            self.base,
            self.total_steps,
            self.snapshot_every,
            self.latest_gen,
            self.cursor,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(self.completed as u8);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes and checksum-validates; `None` on any mismatch.
    pub fn decode(buf: &[u8]) -> Option<Manifest> {
        if buf.len() != 4 + 4 + 4 + 6 * 8 + 1 + 4 || &buf[..4] != MANIFEST_MAGIC {
            return None;
        }
        let body = &buf[..buf.len() - 4];
        let crc_stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().ok()?);
        if crc32(body) != crc_stored {
            return None;
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().ok()?);
        if version != FORMAT_VERSION {
            return None;
        }
        let elem_code = u32::from_le_bytes(buf[8..12].try_into().ok()?);
        let mut vals = [0u64; 6];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = u64::from_le_bytes(buf[12 + i * 8..20 + i * 8].try_into().ok()?);
        }
        Some(Manifest {
            n: vals[0],
            base: vals[1],
            total_steps: vals[2],
            snapshot_every: vals[3],
            latest_gen: vals[4],
            cursor: vals[5],
            elem_code,
            completed: buf[60] != 0,
        })
    }
}

/// Serialises one snapshot: generation, cursor, and the listed disk
/// blocks, with magic, version and trailing CRC-32.
fn encode_snapshot<T: ElemBytes>(gen: u64, cursor: u64, blocks: &[(u64, Vec<T>)]) -> Vec<u8> {
    let block_elems = blocks.first().map_or(0, |(_, b)| b.len());
    let mut out = Vec::new();
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&elem_code::<T>().to_le_bytes());
    for v in [gen, cursor, block_elems as u64, blocks.len() as u64] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for (id, data) in blocks {
        debug_assert_eq!(data.len(), block_elems, "uniform block size");
        out.extend_from_slice(&id.to_le_bytes());
        for e in data {
            e.write_le(&mut out);
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A snapshot's block list: `(block id, block contents)` pairs.
type SnapBlocks<T> = Vec<(u64, Vec<T>)>;

/// Decodes and checksum-validates a snapshot; `None` on any corruption.
fn decode_snapshot<T: ElemBytes>(buf: &[u8]) -> Option<(u64, u64, SnapBlocks<T>)> {
    if buf.len() < 4 + 4 + 4 + 4 * 8 + 4 || &buf[..4] != SNAP_MAGIC {
        return None;
    }
    let body = &buf[..buf.len() - 4];
    let crc_stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().ok()?);
    if crc32(body) != crc_stored {
        return None;
    }
    if u32::from_le_bytes(buf[4..8].try_into().ok()?) != FORMAT_VERSION
        || u32::from_le_bytes(buf[8..12].try_into().ok()?) != elem_code::<T>()
    {
        return None;
    }
    let gen = u64::from_le_bytes(buf[12..20].try_into().ok()?);
    let cursor = u64::from_le_bytes(buf[20..28].try_into().ok()?);
    let block_elems = u64::from_le_bytes(buf[28..36].try_into().ok()?) as usize;
    let nblocks = u64::from_le_bytes(buf[36..44].try_into().ok()?) as usize;
    let expect = 44 + nblocks * (8 + block_elems * T::SIZE) + 4;
    if buf.len() != expect {
        return None;
    }
    let mut blocks = Vec::with_capacity(nblocks);
    let mut pos = 44;
    for _ in 0..nblocks {
        let id = u64::from_le_bytes(buf[pos..pos + 8].try_into().ok()?);
        pos += 8;
        let mut data = Vec::with_capacity(block_elems);
        for _ in 0..block_elems {
            data.push(T::read_le(&buf[pos..]));
            pos += T::SIZE;
        }
        blocks.push((id, data));
    }
    Some((gen, cursor, blocks))
}

/// What [`recover`] reconstructed from stable storage.
#[derive(Clone, Debug)]
pub struct Recovery<T> {
    /// Restart cursor (leaf steps `1..=cursor` need no recomputation).
    pub cursor: u64,
    /// The merged disk image at that cursor (chain applied in generation
    /// order, later generations overwriting earlier blocks).
    pub blocks: Vec<(u64, Vec<T>)>,
    /// Generations that had committed per the manifest but failed
    /// validation and were discarded (0 = clean recovery).
    pub fallbacks: u64,
    /// Bytes discarded from the WAL tail (torn final append).
    pub wal_torn_bytes: u64,
}

/// Reads stable storage and reconstructs the newest trustworthy state
/// for a run with the given schedule parameters. `None` means nothing
/// usable survives (no manifest, a corrupt manifest, a mismatched
/// schedule, or no valid generation 0) — start from scratch.
pub fn recover<T: ElemBytes>(
    store: &dyn CkptStore,
    n: u64,
    base: u64,
    total_steps: u64,
) -> Option<Recovery<T>> {
    let manifest = Manifest::decode(&store.read(MANIFEST_NAME)?)?;
    if manifest.n != n
        || manifest.base != base
        || manifest.total_steps != total_steps
        || manifest.elem_code != elem_code::<T>()
    {
        return None;
    }
    let scan = read_wal(&store.read(WAL_NAME).unwrap_or_default());
    let wal_snaps: BTreeMap<u64, u64> = scan
        .records
        .iter()
        .filter_map(|r| match *r {
            WalRecord::Snapshot { gen, cursor } => Some((gen, cursor)),
            _ => None,
        })
        .collect();

    // Validate the chain front to back; keep the longest prefix whose
    // snapshots decode *and* were logged with the same cursor.
    let mut chain: Vec<(u64, SnapBlocks<T>)> = Vec::new(); // (cursor, blocks)
    let mut prev_cursor = 0u64;
    for gen in 0..=manifest.latest_gen {
        let Some(buf) = store.read(&snap_name(gen)) else {
            break;
        };
        let Some((g, cursor, blocks)) = decode_snapshot::<T>(&buf) else {
            break;
        };
        if g != gen
            || wal_snaps.get(&gen) != Some(&cursor)
            || (gen > 0 && cursor <= prev_cursor)
            || cursor > total_steps
        {
            break;
        }
        prev_cursor = cursor;
        chain.push((cursor, blocks));
    }
    if chain.is_empty() {
        return None;
    }
    let fallbacks = manifest.latest_gen + 1 - chain.len() as u64;
    let cursor = chain.last().expect("non-empty").0;
    let mut merged: BTreeMap<u64, Vec<T>> = BTreeMap::new();
    for (_, blocks) in chain {
        for (id, data) in blocks {
            merged.insert(id, data);
        }
    }
    Some(Recovery {
        cursor,
        blocks: merged.into_iter().collect(),
        fallbacks,
        wal_torn_bytes: scan.torn_bytes as u64,
    })
}

/// Checkpointing configuration of one out-of-core solve.
#[derive(Clone, Copy, Debug)]
pub struct CkptConfig {
    /// Arena cache size in bytes.
    pub m_bytes: u64,
    /// Page/block size in bytes.
    pub b_bytes: u64,
    /// Recursion base-case size.
    pub base: usize,
    /// Leaf steps between snapshots (≥ 1).
    pub snapshot_every: u64,
    /// Disk timing model.
    pub profile: DiskProfile,
}

/// Counters of one [`run_checkpointed`] attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CkptStats {
    /// Cursor the attempt started from (0 = fresh run).
    pub start_cursor: u64,
    /// Leaf steps executed by this attempt.
    pub executed_steps: u64,
    /// Total leaf steps of the schedule.
    pub total_steps: u64,
    /// Snapshots committed by this attempt.
    pub snapshots_written: u64,
    /// WAL records appended by this attempt.
    pub wal_records: u64,
    /// WAL bytes appended by this attempt.
    pub wal_bytes: u64,
    /// Snapshot bytes written by this attempt.
    pub snap_bytes: u64,
    /// Committed-but-untrusted generations discarded at recovery.
    pub recovery_fallbacks: u64,
    /// Torn WAL tail bytes discarded at recovery.
    pub wal_torn_bytes: u64,
    /// Store footprint after completion.
    pub store_bytes: u64,
}

/// The generation a snapshot at `cursor` belongs to: 0 at cursor 0 (the
/// full post-load image), then one per `snapshot_every` boundary, with a
/// final off-boundary generation if the schedule length is not a
/// multiple. A pure function of the cursor, so interrupted and fresh
/// runs number generations identically.
fn gen_for(cursor: u64, every: u64) -> u64 {
    cursor.div_ceil(every)
}

struct Committer<'s> {
    store: &'s mut dyn CkptStore,
    manifest: Manifest,
    stats: CkptStats,
}

impl Committer<'_> {
    fn wal_append(&mut self, rec: &WalRecord) {
        let bytes = rec.encode();
        // The append is this protocol's fsync point: a record is durable
        // once `append` returns (see CkptStore docs), so its latency is
        // the WAL-fsync latency.
        let start = gep_obs::enabled().then(std::time::Instant::now);
        self.store.append(WAL_NAME, &bytes);
        if let Some(t) = start {
            gep_obs::hist_record("extmem.wal_fsync_ns", t.elapsed().as_nanos() as u64);
        }
        self.stats.wal_records += 1;
        self.stats.wal_bytes += bytes.len() as u64;
    }

    /// The four-write commit sequence described in the module docs.
    fn snapshot<T: ElemBytes>(&mut self, arena: &SharedArena<T>, cursor: u64) {
        let gen = gen_for(cursor, self.manifest.snapshot_every);
        let blocks: Vec<(u64, Vec<T>)> = {
            let mut a = arena.borrow_mut();
            a.flush();
            let disk = a.disk();
            let ids = if gen == 0 {
                disk.block_ids()
            } else {
                disk.changed_blocks()
            };
            ids.into_iter()
                .map(|id| (id, disk.peek_block(id).expect("flushed block").to_vec()))
                .collect()
        };
        let snap = encode_snapshot::<T>(gen, cursor, &blocks);
        self.stats.snap_bytes += snap.len() as u64;
        self.store.put_atomic(&snap_name(gen), &snap);
        self.wal_append(&WalRecord::Snapshot { gen, cursor });
        self.manifest.latest_gen = gen;
        self.manifest.cursor = cursor;
        self.manifest.completed = cursor == self.manifest.total_steps;
        self.store
            .put_atomic(MANIFEST_NAME, &self.manifest.encode());
        arena.borrow_mut().disk_mut().mark_clean();
        self.stats.snapshots_written += 1;
    }
}

/// Publishes the live `progress.*` gauges for one executed leaf. The
/// flight-recorder sampler snapshots these from its background thread,
/// which is what `repro watch` tails for its progress/ETA view.
///
/// `io_wait_s` is the *modelled* disk wait, `elapsed_s` the measured host
/// wall time, so `progress.io_wait_frac` mixes simulated and real clocks —
/// a deliberate approximation documented in docs/OBSERVABILITY.md.
fn publish_progress(
    cursor: u64,
    total_steps: u64,
    start_cursor: u64,
    elapsed_s: f64,
    io_wait_s: f64,
    committed_cursor: u64,
    wal_lag_bytes: u64,
) {
    gep_obs::gauge_set("progress.cursor", cursor as f64);
    gep_obs::gauge_set("progress.total_steps", total_steps as f64);
    let pct = if total_steps == 0 {
        100.0
    } else {
        100.0 * cursor as f64 / total_steps as f64
    };
    gep_obs::gauge_set("progress.pct", pct);
    let done = cursor.saturating_sub(start_cursor);
    if elapsed_s > 0.0 && done > 0 {
        let rate = done as f64 / elapsed_s;
        gep_obs::gauge_set("progress.leaves_per_s", rate);
        gep_obs::gauge_set(
            "progress.eta_s",
            total_steps.saturating_sub(cursor) as f64 / rate,
        );
    }
    let denom = (io_wait_s + elapsed_s).max(f64::MIN_POSITIVE);
    gep_obs::gauge_set("progress.io_wait_frac", io_wait_s / denom);
    gep_obs::gauge_set(
        "progress.ckpt_lag_steps",
        cursor.saturating_sub(committed_cursor) as f64,
    );
    gep_obs::gauge_set("progress.ckpt_lag_wal_bytes", wal_lag_bytes as f64);
}

/// Runs (or resumes) an out-of-core I-GEP solve with periodic
/// checkpoints, returning the result matrix and the attempt's counters.
///
/// If `store` holds a valid checkpoint for the same schedule, the solve
/// restarts from its cursor instead of from scratch; otherwise stale
/// objects are cleared and a fresh run begins (generation-0 snapshot
/// right after the input loads). An injected crash (see [`crate::fault`])
/// unwinds out of this function; calling it again with the same `store`
/// *is* the recovery path — the crash-differential harness does exactly
/// that and compares against an uninterrupted run bit for bit.
///
/// Publishes `ckpt.*` counters/gauges to `gep_obs` when a recorder is
/// installed.
///
/// The schedule is `igep_resumable`'s, so `n` must halve exactly down to
/// leaves of side `<= cfg.base` (`gep_matrix::halves_to_leaf`). Only
/// power-of-two sides are exercised (the crash axis and the resume
/// experiment); fitted sides wait for their own crash differential
/// (ROADMAP.md, "One side rule").
///
/// # Panics
/// Panics on schedule violations (a side that does not halve to a leaf,
/// zero `snapshot_every`) and propagates injected crashes.
pub fn run_checkpointed<S, T>(
    spec: &S,
    input: &Matrix<T>,
    cfg: &CkptConfig,
    store: &mut dyn CkptStore,
    fault: Option<FaultClock>,
) -> (Matrix<T>, CkptStats)
where
    S: GepSpec<Elem = T>,
    T: ElemBytes,
{
    assert!(cfg.snapshot_every >= 1, "snapshot_every must be positive");
    let n = input.n();
    let total_steps = igep_step_count(spec, n, cfg.base);
    let arena: SharedArena<T> = Rc::new(RefCell::new(ExtArena::new(
        cfg.m_bytes,
        cfg.b_bytes,
        cfg.profile,
    )));
    if let Some(clock) = fault.clone() {
        arena.borrow_mut().set_fault_clock(clock);
    }

    let recovery = recover::<T>(store, n as u64, cfg.base as u64, total_steps);
    let manifest = Manifest {
        n: n as u64,
        base: cfg.base as u64,
        total_steps,
        snapshot_every: cfg.snapshot_every,
        latest_gen: 0,
        cursor: 0,
        elem_code: elem_code::<T>(),
        completed: false,
    };
    let mut committer = Committer {
        store,
        manifest,
        stats: CkptStats {
            total_steps,
            ..CkptStats::default()
        },
    };

    let start_cursor;
    let mut ext = ExtMatrix::<T>::zeroed(arena.clone(), n);
    match recovery {
        Some(rec) => {
            start_cursor = rec.cursor;
            committer.stats.recovery_fallbacks = rec.fallbacks;
            committer.stats.wal_torn_bytes = rec.wal_torn_bytes;
            committer.manifest.latest_gen = gen_for(rec.cursor, cfg.snapshot_every);
            committer.manifest.cursor = rec.cursor;
            {
                let mut a = arena.borrow_mut();
                let disk = a.disk_mut();
                for (id, data) in &rec.blocks {
                    disk.restore_block(*id, data);
                }
            }
        }
        None => {
            // Nothing trustworthy: clear stale objects, load the input,
            // and anchor the chain with a full generation-0 snapshot.
            for name in committer.store.list() {
                committer.store.remove(&name);
            }
            start_cursor = 0;
            for i in 0..n {
                for j in 0..n {
                    gep_core::CellStore::write(&mut ext, i, j, input.get(i, j));
                }
            }
            committer.wal_append(&WalRecord::Start {
                n: n as u64,
                base: cfg.base as u64,
                total_steps,
                snapshot_every: cfg.snapshot_every,
            });
            committer.snapshot(&arena, 0);
        }
    }
    committer.stats.start_cursor = start_cursor;
    let run_start = std::time::Instant::now();

    if start_cursor < total_steps || total_steps == 0 {
        let every = cfg.snapshot_every;
        let outcome = {
            let committer = &mut committer;
            let arena = &arena;
            let mut wal_bytes_at_commit = committer.stats.wal_bytes;
            igep_resumable(spec, &mut ext, cfg.base, start_cursor, &mut |cursor| {
                if cursor % every == 0 && cursor < total_steps {
                    committer.snapshot(arena, cursor);
                    wal_bytes_at_commit = committer.stats.wal_bytes;
                }
                if gep_obs::enabled() {
                    publish_progress(
                        cursor,
                        total_steps,
                        start_cursor,
                        run_start.elapsed().as_secs_f64(),
                        arena.borrow().io_stats().wait_s,
                        committer.manifest.cursor,
                        committer.stats.wal_bytes - wal_bytes_at_commit,
                    );
                }
                StepControl::Continue
            })
        };
        debug_assert!(outcome.completed);
        committer.stats.executed_steps = outcome.executed;
        // Final snapshot + completion records (the torn-final-write case
        // the fuzzer must survive lives exactly here).
        committer.snapshot(&arena, total_steps);
        committer.wal_append(&WalRecord::Complete {
            cursor: total_steps,
        });
    }

    let result = ext.to_matrix();
    committer.stats.store_bytes = committer.store.total_bytes();
    let stats = committer.stats;
    if gep_obs::enabled() {
        gep_obs::counter_add("ckpt.snapshots", stats.snapshots_written);
        gep_obs::counter_add("ckpt.wal.records", stats.wal_records);
        gep_obs::counter_add("ckpt.wal.bytes", stats.wal_bytes);
        gep_obs::counter_add("ckpt.snap.bytes", stats.snap_bytes);
        gep_obs::counter_add("ckpt.replayed.steps", stats.executed_steps);
        gep_obs::counter_add("ckpt.recovery.fallbacks", stats.recovery_fallbacks);
        gep_obs::gauge_set("ckpt.store_bytes", stats.store_bytes as f64);
        gep_obs::gauge_set("ckpt.saved_steps", stats.start_cursor as f64);
        // Final progress state: the sampler's stop() flush after this
        // point records a finished run (cursor == total, zero lag) even
        // when the resume found nothing left to execute.
        publish_progress(
            total_steps,
            total_steps,
            stats.start_cursor,
            run_start.elapsed().as_secs_f64(),
            arena.borrow().io_stats().wait_s,
            total_steps,
            0,
        );
    }
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{fault_clock, run_to_crash, silence_injected_crash_reports, FaultPlan};
    use crate::store::{CkptStore, DirStore, MemStore};
    use gep_apps::floyd_warshall::FwSpec;
    use gep_core::TROPICAL_INF;

    fn cfg(every: u64) -> CkptConfig {
        CkptConfig {
            m_bytes: 2048,
            b_bytes: 256,
            base: 2,
            snapshot_every: every,
            profile: DiskProfile::fujitsu_map3735nc(),
        }
    }

    fn fw_input(n: usize, seed: u64) -> Matrix<i64> {
        let mut s = seed.max(1);
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

    fn oracle(input: &Matrix<i64>, base: usize) -> Matrix<i64> {
        let mut m = input.clone();
        gep_core::igep(&FwSpec::<i64>::new(), &mut m, base);
        m
    }

    #[test]
    fn manifest_roundtrip_and_corruption_detection() {
        let m = Manifest {
            n: 64,
            base: 4,
            total_steps: 4096,
            snapshot_every: 128,
            latest_gen: 7,
            cursor: 896,
            elem_code: super::elem_code::<i64>(),
            completed: false,
        };
        let buf = m.encode();
        assert_eq!(Manifest::decode(&buf), Some(m));
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x10;
            assert_eq!(Manifest::decode(&bad), None, "flip at {at} undetected");
        }
        assert_eq!(Manifest::decode(&buf[..buf.len() - 1]), None);
    }

    #[test]
    fn snapshot_roundtrip_and_corruption_detection() {
        let blocks = vec![(3u64, vec![1i64, -2, 3]), (9u64, vec![7, 8, 9])];
        let buf = encode_snapshot::<i64>(2, 500, &blocks);
        let (gen, cursor, back) = decode_snapshot::<i64>(&buf).expect("valid");
        assert_eq!((gen, cursor), (2, 500));
        assert_eq!(back, blocks);
        // Corruption anywhere is caught by the CRC.
        for at in [0, 5, 13, 44, 50, buf.len() - 2] {
            let mut bad = buf.clone();
            bad[at] ^= 0xFF;
            assert!(decode_snapshot::<i64>(&bad).is_none(), "flip at {at}");
        }
        // Element type confusion is caught even with a valid CRC.
        let as_f64 = decode_snapshot::<f64>(&buf);
        assert!(as_f64.is_none(), "i64 snapshot must not decode as f64");
    }

    #[test]
    fn f64_elements_roundtrip_bitwise() {
        let special = vec![(0u64, vec![0.0f64, -0.0, f64::NAN, f64::INFINITY, 1.5e-308])];
        let buf = encode_snapshot::<f64>(0, 0, &special);
        let (_, _, back) = decode_snapshot::<f64>(&buf).expect("valid");
        for (a, b) in special[0].1.iter().zip(&back[0].1) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn uninterrupted_checkpointed_run_matches_igep() {
        let n = 16;
        let input = fw_input(n, 11);
        let mut store = MemStore::new(None);
        let (result, stats) =
            run_checkpointed(&FwSpec::<i64>::new(), &input, &cfg(10), &mut store, None);
        assert_eq!(result, oracle(&input, 2));
        assert_eq!(stats.start_cursor, 0);
        assert_eq!(stats.executed_steps, stats.total_steps);
        assert!(stats.snapshots_written >= 3, "gen0 + periodic + final");
        assert!(stats.wal_records >= stats.snapshots_written + 2);
        assert!(stats.snap_bytes > 0 && stats.wal_bytes > 0);
        assert_eq!(stats.recovery_fallbacks, 0);
        // The store ends with a completed manifest.
        let m = Manifest::decode(&store.read(MANIFEST_NAME).unwrap()).unwrap();
        assert!(m.completed);
        assert_eq!(m.cursor, stats.total_steps);
    }

    /// The progress gauges and latency histograms a flight recorder would
    /// sample: final state shows a complete run with zero checkpoint lag,
    /// and every durability / paging event left a latency sample.
    #[test]
    fn run_publishes_progress_gauges_and_latency_histograms() {
        let n = 16;
        let input = fw_input(n, 23);
        let mut store = MemStore::new(None);
        let ((_, stats), rec) = gep_obs::record(gep_obs::Recorder::counters_only(), || {
            run_checkpointed(&FwSpec::<i64>::new(), &input, &cfg(10), &mut store, None)
        });
        assert_eq!(rec.gauge("progress.cursor"), Some(stats.total_steps as f64));
        assert_eq!(rec.gauge("progress.pct"), Some(100.0));
        assert_eq!(rec.gauge("progress.ckpt_lag_steps"), Some(0.0));
        assert_eq!(rec.gauge("progress.ckpt_lag_wal_bytes"), Some(0.0));
        let frac = rec.gauge("progress.io_wait_frac").expect("io_wait_frac");
        assert!((0.0..=1.0).contains(&frac), "frac={frac}");
        let wal = rec.hist("extmem.wal_fsync_ns").expect("wal hist");
        assert_eq!(wal.count(), stats.wal_records);
        // The leaf kernels themselves run over the arena-backed CellStore
        // and record into kernel.leaf_ns via gep-core's resumable walker.
        let leaf = rec.hist("kernel.leaf_ns").expect("leaf hist");
        assert_eq!(leaf.count(), stats.executed_steps);
        // A 2 KiB cache over a 16x16 i64 matrix must page: both fault
        // paths leave latency samples.
        assert!(rec.hist("extmem.read_ns").is_some(), "read hist");
        assert!(rec.hist("extmem.write_ns").is_some(), "write hist");
    }

    #[test]
    fn resuming_a_completed_run_recomputes_nothing() {
        let n = 8;
        let input = fw_input(n, 5);
        let mut store = MemStore::new(None);
        let (first, _) = run_checkpointed(&FwSpec::<i64>::new(), &input, &cfg(7), &mut store, None);
        let (again, stats) =
            run_checkpointed(&FwSpec::<i64>::new(), &input, &cfg(7), &mut store, None);
        assert_eq!(first, again);
        assert_eq!(stats.executed_steps, 0);
        assert_eq!(stats.start_cursor, stats.total_steps);
        assert_eq!(stats.snapshots_written, 0, "no new snapshots needed");
    }

    #[test]
    fn crash_at_every_write_resumes_bit_identically() {
        silence_injected_crash_reports();
        let n = 8;
        let base = 2;
        let input = fw_input(n, 23);
        let want = oracle(&input, base);
        let mut config = cfg(5);
        config.base = base;
        // First, count the writes of an uninterrupted run.
        let clock = fault_clock(FaultPlan::default());
        let mut store = MemStore::new(Some(clock.clone()));
        let (_, _) = run_checkpointed(
            &FwSpec::<i64>::new(),
            &input,
            &config,
            &mut store,
            Some(clock.clone()),
        );
        let total_writes = clock.borrow().writes();
        assert!(total_writes > 20);
        // Crash at each write point (torn and untorn), then resume once.
        for at in 1..=total_writes {
            for torn in [false, true] {
                let clock = fault_clock(FaultPlan {
                    crash_at_write: Some(at),
                    torn_write: torn,
                    ..Default::default()
                });
                let mut store = MemStore::new(Some(clock.clone()));
                let crashed = run_to_crash(std::panic::AssertUnwindSafe(|| {
                    run_checkpointed(
                        &FwSpec::<i64>::new(),
                        &input,
                        &config,
                        &mut store,
                        Some(clock.clone()),
                    )
                }));
                match crashed {
                    Err(c) => {
                        assert_eq!(c.at_write, at);
                        let (result, stats) = run_checkpointed(
                            &FwSpec::<i64>::new(),
                            &input,
                            &config,
                            &mut store,
                            Some(clock.clone()),
                        );
                        assert_eq!(result, want, "at={at} torn={torn}");
                        assert!(
                            stats.start_cursor <= stats.total_steps,
                            "cursor within schedule"
                        );
                    }
                    Ok((result, _)) => assert_eq!(result, want, "no crash at={at}"),
                }
            }
        }
    }

    #[test]
    fn corrupted_chain_tip_falls_back_to_previous_snapshot() {
        let n = 8;
        let input = fw_input(n, 31);
        let want = oracle(&input, 2);
        let mut store = MemStore::new(None);
        let (_, stats) = run_checkpointed(&FwSpec::<i64>::new(), &input, &cfg(5), &mut store, None);
        let latest = Manifest::decode(&store.read(MANIFEST_NAME).unwrap())
            .unwrap()
            .latest_gen;
        assert!(latest >= 2);
        assert!(stats.snapshots_written >= 3);
        // Silently corrupt the newest snapshot: recovery must detect it,
        // fall back one generation, and still converge to the right answer.
        store.corrupt(&format!("snap-{latest}"), 60);
        let (result, stats) =
            run_checkpointed(&FwSpec::<i64>::new(), &input, &cfg(5), &mut store, None);
        assert_eq!(result, want);
        assert_eq!(stats.recovery_fallbacks, 1);
        assert!(stats.executed_steps > 0, "the lost tail was recomputed");
    }

    #[test]
    fn corrupted_manifest_restarts_from_scratch() {
        let n = 8;
        let input = fw_input(n, 41);
        let want = oracle(&input, 2);
        let mut store = MemStore::new(None);
        let _ = run_checkpointed(&FwSpec::<i64>::new(), &input, &cfg(5), &mut store, None);
        store.corrupt(MANIFEST_NAME, 20);
        let (result, stats) =
            run_checkpointed(&FwSpec::<i64>::new(), &input, &cfg(5), &mut store, None);
        assert_eq!(result, want);
        assert_eq!(stats.start_cursor, 0, "untrusted manifest → fresh run");
    }

    #[test]
    fn schedule_mismatch_is_not_resumed() {
        let input = fw_input(8, 3);
        let mut store = MemStore::new(None);
        let _ = run_checkpointed(&FwSpec::<i64>::new(), &input, &cfg(5), &mut store, None);
        // Same store, different base ⇒ different schedule ⇒ fresh run.
        let mut other = cfg(5);
        other.base = 4;
        let (result, stats) =
            run_checkpointed(&FwSpec::<i64>::new(), &input, &other, &mut store, None);
        assert_eq!(result, oracle(&input, 4));
        assert_eq!(stats.start_cursor, 0);
    }

    #[test]
    fn dirstore_end_to_end_resume_on_real_filesystem() {
        let base = std::env::temp_dir().join(format!("gep-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let n = 8;
        let input = fw_input(n, 51);
        let want = oracle(&input, 2);
        {
            let mut store = DirStore::open(&base);
            let (result, _) =
                run_checkpointed(&FwSpec::<i64>::new(), &input, &cfg(6), &mut store, None);
            assert_eq!(result, want);
        }
        // A new process (modelled by reopening the store) resumes the
        // completed run without recomputation.
        let mut store = DirStore::open(&base);
        let (result, stats) =
            run_checkpointed(&FwSpec::<i64>::new(), &input, &cfg(6), &mut store, None);
        assert_eq!(result, want);
        assert_eq!(stats.executed_steps, 0);
        let _ = std::fs::remove_dir_all(&base);
    }
}
