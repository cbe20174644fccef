//! Durable ingest journal: a segmented, append-only write-ahead log for
//! admitted batches.
//!
//! The supervised runtime's recovery model without a journal is
//! at-most-once: a worker crash discards every in-flight batch and merely
//! counts it (`SupervisorStats::lost_in_flight`). The journal upgrades
//! that to *effectively once*: every batch that clears admission is
//! framed and appended here **after** it is handed to the worker, so a
//! restart can restore the last durable checkpoint and re-feed exactly
//! the journaled batches above it, suppressing outputs that were already
//! delivered (the supervisor's delivered-seq watermark).
//!
//! # On-disk format
//!
//! A journal is a directory of segment files `<stem>.<index>.<ext>`
//! (index 0 is the *oldest* — the opposite convention from
//! [`crate::CheckpointStore`], whose generation 0 is the newest; journal
//! indices only grow, so truncation is a plain unlink of the low
//! indices). Each segment is a run of frames:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! where `crc` is the checkpoint envelope's CRC32 ([`crate::crc32`])
//! over the payload, and the payload is a JSON [`JournalRecord`]. A
//! frame is valid only if its length is sane, its payload is complete,
//! its checksum matches, and the payload decodes — anything less is
//! treated as a torn tail.
//!
//! # Torn-tail tolerance
//!
//! [`Journal::open`] scans every segment front to back and truncates at
//! the first invalid frame: a crash mid-append (or a partial page
//! flush) costs the torn frame and nothing before it. Corruption in a
//! *non-last* segment additionally drops every later segment — records
//! after a hole cannot be replayed in order, and replay must be a
//! contiguous prefix of what was admitted.
//!
//! # Fsync policy
//!
//! Appends write immediately (so same-process readers always see every
//! frame via the page cache) but fsync on a cadence: every 8 appends
//! times a backoff. The backoff doubles (capped) whenever a sync fails or
//! takes over 50 ms, and resets on a fast success — a persistently slow
//! disk degrades durability granularity instead of stalling ingest,
//! mirroring the checkpoint-cadence backoff in the supervisor. A segment
//! rolls over once the next frame would take it past 4 MiB. The write
//! itself is retried on the checkpoint saves' schedule: three attempts,
//! backing off from 2 ms to at most 50 ms with seeded jitter.

use crate::error::FreewayError;
use crate::persistence::crc32;
use crate::retry::retry;
use freeway_linalg::Matrix;
use freeway_streams::{Batch, DriftPhase};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Upper bound on a single frame's payload; a length field above this is
/// corruption, not a record.
const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Frame header size: `len` + `crc`, both `u32` little-endian.
const FRAME_HEADER_BYTES: usize = 8;

/// Cap on the fsync-cadence backoff multiplier (same cap as the
/// supervisor's checkpoint-cadence backoff).
const MAX_SYNC_BACKOFF: u64 = 64;

/// A segment rolls over once the next frame would take it past this size.
const SEGMENT_MAX_BYTES: u64 = 4 << 20;

/// Appends between fsyncs on a healthy disk; a process crash costs at
/// most this many minus one frames.
const FSYNC_EVERY_N_APPENDS: u64 = 8;

/// A sync slower than this doubles the fsync-cadence backoff.
const SLOW_SYNC_BUDGET: Duration = Duration::from_millis(50);

/// Where the ingest journal persists.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Base path, e.g. `dir/journal.wal`; segments land next to it as
    /// `journal.0.wal`, `journal.1.wal`, …
    pub path: PathBuf,
}

impl JournalConfig {
    /// A journal rooted at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }
}

/// One journaled batch: everything needed to reconstruct the admitted
/// [`Batch`] plus which supervisor entry point it took.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// The batch's sequence number.
    pub seq: u64,
    /// Whether the batch was fed prequentially (test-then-train) rather
    /// than as a plain train/infer command.
    pub prequential: bool,
    /// Ground-truth drift phase tag carried by the batch.
    pub phase: DriftPhase,
    /// Labels, when the batch had them.
    pub labels: Option<Vec<usize>>,
    /// Feature rows.
    pub x: Matrix,
}

impl JournalRecord {
    /// Reconstructs the admitted batch.
    pub fn to_batch(&self) -> Batch {
        Batch { x: self.x.clone(), labels: self.labels.clone(), seq: self.seq, phase: self.phase }
    }
}

/// Builds the complete on-disk frame (header + payload) for `batch`
/// without consuming it. Callers frame *before* handing the batch to the
/// worker and append the bytes only after the hand-off succeeds.
pub fn frame_batch(batch: &Batch, prequential: bool) -> Vec<u8> {
    let record = JournalRecord {
        seq: batch.seq,
        prequential,
        phase: batch.phase,
        labels: batch.labels.clone(),
        x: batch.x.clone(),
    };
    // Audited: encoding plain structs of numbers to an in-memory buffer
    // has no failure path (same contract as Checkpoint::to_json).
    #[allow(clippy::expect_used)]
    let payload = serde_json::to_vec(&record).expect("journal record serialises");
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Counters describing one journal's lifetime (monotone; recovery
/// counters are set once at open).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Frames appended since open.
    pub appended: u64,
    /// Fsync calls issued since open.
    pub synced: u64,
    /// Syncs that failed or blew the slow-sync budget.
    pub slow_syncs: u64,
    /// Fully-framed records found on disk at open.
    pub recovered_records: u64,
    /// Torn-tail bytes discarded at open.
    pub torn_bytes_dropped: u64,
    /// Segment files unlinked by checkpoint-coordinated truncation.
    pub truncated_segments: u64,
}

/// A sealed (non-active) segment's replay metadata.
#[derive(Clone, Debug)]
struct SegmentMeta {
    index: u64,
    path: PathBuf,
    /// Highest seq in the segment; `None` for an empty segment.
    last_seq: Option<u64>,
}

/// The segmented write-ahead log. Owned by the supervisor when
/// journaling is enabled; see the module docs for format and policy.
pub struct Journal {
    config: JournalConfig,
    sealed: Vec<SegmentMeta>,
    active: File,
    active_index: u64,
    active_path: PathBuf,
    active_bytes: u64,
    active_last_seq: Option<u64>,
    /// Appends since the last fsync.
    pending_appends: u64,
    /// Cadence multiplier; doubles on slow/failed sync, resets on fast
    /// success.
    sync_backoff: u64,
    stats: JournalStats,
    /// [`crate::Fault::SlowDisk`]: the delay before every fsync, counted
    /// against the slow-sync budget like the sync itself.
    pub(crate) slow_disk: Duration,
}

/// What a front-to-back scan of one segment found.
struct SegmentScan {
    records: Vec<JournalRecord>,
    /// Byte offset of the first invalid frame (= file length when the
    /// whole segment is clean).
    valid_bytes: u64,
    torn: bool,
}

fn scan_segment_bytes(bytes: &[u8]) -> SegmentScan {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while bytes.len() - offset >= FRAME_HEADER_BYTES {
        let len = u32::from_le_bytes([
            bytes[offset],
            bytes[offset + 1],
            bytes[offset + 2],
            bytes[offset + 3],
        ]);
        let crc = u32::from_le_bytes([
            bytes[offset + 4],
            bytes[offset + 5],
            bytes[offset + 6],
            bytes[offset + 7],
        ]);
        if len > MAX_FRAME_BYTES {
            break;
        }
        let start = offset + FRAME_HEADER_BYTES;
        let end = start + len as usize;
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break;
        }
        match serde_json::from_slice::<JournalRecord>(payload) {
            Ok(record) => records.push(record),
            Err(_) => break,
        }
        offset = end;
    }
    SegmentScan { records, valid_bytes: offset as u64, torn: offset < bytes.len() }
}

impl Journal {
    /// Opens (or creates) the journal rooted at `config.path`, scanning
    /// existing segments oldest-first and truncating the torn tail; see
    /// the module docs for the recovery rules. The scanned records are
    /// returned so the caller can replay them without a second pass.
    ///
    /// # Errors
    /// [`FreewayError::Io`] when the directory or a segment cannot be
    /// read, created, or truncated.
    pub fn open(config: JournalConfig) -> Result<(Self, Vec<JournalRecord>), FreewayError> {
        if let Some(dir) = config.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut indices = Self::existing_segment_indices(&config)?;
        indices.sort_unstable();

        let mut stats = JournalStats::default();
        let mut recovered = Vec::new();
        let mut metas: Vec<SegmentMeta> = Vec::new();
        let mut torn_at: Option<usize> = None;
        for (position, &index) in indices.iter().enumerate() {
            let path = segment_path(&config.path, index);
            let bytes = std::fs::read(&path)?;
            let scan = scan_segment_bytes(&bytes);
            if scan.torn {
                stats.torn_bytes_dropped += bytes.len() as u64 - scan.valid_bytes;
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(scan.valid_bytes)?;
                file.sync_all()?;
            }
            let last_seq = scan.records.last().map(|r| r.seq);
            stats.recovered_records += scan.records.len() as u64;
            recovered.extend(scan.records);
            metas.push(SegmentMeta { index, path, last_seq });
            if scan.torn {
                torn_at = Some(position);
                break;
            }
        }
        // Records after a hole cannot be replayed contiguously: drop
        // every segment beyond the first torn one.
        if let Some(position) = torn_at {
            for &index in &indices[position + 1..] {
                let _ = std::fs::remove_file(segment_path(&config.path, index));
            }
        }

        let (active_index, active_meta) = match metas.pop() {
            Some(meta) => (meta.index, Some(meta)),
            None => (0, None),
        };
        let active_path = segment_path(&config.path, active_index);
        let active = OpenOptions::new().create(true).append(true).open(&active_path)?;
        let active_bytes = active.metadata()?.len();
        let journal = Self {
            config,
            sealed: metas,
            active,
            active_index,
            active_path,
            active_bytes,
            active_last_seq: active_meta.and_then(|m| m.last_seq),
            pending_appends: 0,
            sync_backoff: 1,
            stats,
            slow_disk: Duration::ZERO,
        };
        Ok((journal, recovered))
    }

    fn existing_segment_indices(config: &JournalConfig) -> Result<Vec<u64>, FreewayError> {
        let (stem, ext) = stem_and_ext(&config.path);
        let dir = match config.path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let mut indices = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&format!("{stem}.")) else { continue };
            let Some(middle) = rest.strip_suffix(&format!(".{ext}")) else { continue };
            if let Ok(index) = middle.parse::<u64>() {
                indices.push(index);
            }
        }
        Ok(indices)
    }

    /// Appends one pre-framed record (see [`frame_batch`]), retrying a
    /// failed write, rotating segments and syncing on cadence.
    /// Returns whether this append flushed the segment to disk.
    ///
    /// # Errors
    /// [`FreewayError::Io`] when the write still fails after the retry
    /// budget. Sync failures are *not* errors — they degrade the fsync
    /// cadence instead (see the module docs).
    pub fn append_frame(&mut self, seq: u64, frame: &[u8]) -> Result<bool, FreewayError> {
        if self.active_bytes > 0
            && self.active_bytes.saturating_add(frame.len() as u64) > SEGMENT_MAX_BYTES
        {
            self.rotate()?;
        }
        retry(|| self.active.write_all(frame))?;
        self.active_bytes += frame.len() as u64;
        self.active_last_seq = Some(seq);
        self.stats.appended += 1;
        self.pending_appends += 1;
        let cadence = FSYNC_EVERY_N_APPENDS.saturating_mul(self.sync_backoff);
        let mut synced = false;
        if self.pending_appends >= cadence {
            self.sync_with_budget();
            synced = true;
        }
        Ok(synced)
    }

    /// Seals the active segment (final fsync, best-effort) and starts the
    /// next one.
    fn rotate(&mut self) -> Result<(), FreewayError> {
        let _ = self.active.sync_all();
        self.sealed.push(SegmentMeta {
            index: self.active_index,
            path: self.active_path.clone(),
            last_seq: self.active_last_seq,
        });
        self.active_index += 1;
        self.active_path = segment_path(&self.config.path, self.active_index);
        self.active = OpenOptions::new().create(true).append(true).open(&self.active_path)?;
        self.active_bytes = 0;
        self.active_last_seq = None;
        self.pending_appends = 0;
        Ok(())
    }

    /// Fsyncs the active segment, timing it against the slow-sync budget:
    /// a failure or an over-budget sync doubles the cadence backoff, a
    /// fast success resets it.
    fn sync_with_budget(&mut self) {
        let started = Instant::now();
        if !self.slow_disk.is_zero() {
            std::thread::sleep(self.slow_disk);
        }
        let ok = self.active.sync_all().is_ok();
        self.stats.synced += 1;
        self.pending_appends = 0;
        if !ok || started.elapsed() > SLOW_SYNC_BUDGET {
            self.stats.slow_syncs += 1;
            self.sync_backoff = (self.sync_backoff * 2).min(MAX_SYNC_BACKOFF);
        } else {
            self.sync_backoff = 1;
        }
    }

    /// Forces a durability point (used by `finish` and tests);
    /// best-effort, feeds the same backoff accounting as cadence syncs.
    pub fn sync(&mut self) {
        self.sync_with_budget();
    }

    /// Re-reads every retained record with `seq > above` (all records
    /// when `above` is `None`), oldest first, from disk — unsynced
    /// appends are still visible through the page cache within the
    /// writing process.
    ///
    /// # Errors
    /// [`FreewayError::Io`] when a segment cannot be read.
    pub fn records_above(&self, above: Option<u64>) -> Result<Vec<JournalRecord>, FreewayError> {
        let mut records = Vec::new();
        for meta in &self.sealed {
            let bytes = std::fs::read(&meta.path)?;
            records.extend(scan_segment_bytes(&bytes).records);
        }
        let bytes = std::fs::read(&self.active_path)?;
        records.extend(scan_segment_bytes(&bytes).records);
        if let Some(floor) = above {
            records.retain(|r| r.seq > floor);
        }
        Ok(records)
    }

    /// Checkpoint-coordinated truncation: unlinks every *sealed* segment
    /// whose records all have `seq <= below` (the active segment is never
    /// dropped). Returns the number of segments removed. The supervisor
    /// passes the floor of the oldest checkpoint generation it persisted,
    /// so every generation a restore can fall back to keeps its records.
    ///
    /// # Errors
    /// [`FreewayError::Io`] when an unlink fails.
    pub fn truncate_below(&mut self, below: u64) -> Result<u64, FreewayError> {
        let mut removed = 0u64;
        while let Some(meta) = self.sealed.first() {
            let fully_below = meta.last_seq.is_none_or(|last| last <= below);
            if !fully_below {
                break;
            }
            std::fs::remove_file(&meta.path)?;
            self.sealed.remove(0);
            removed += 1;
        }
        self.stats.truncated_segments += removed;
        Ok(removed)
    }

    /// Lowest retained segment index. `0` means the journal still reaches
    /// back to the run's first admitted batch (genesis), so a fresh
    /// learner plus a full replay reconstructs the exact state.
    pub fn lowest_segment_index(&self) -> u64 {
        self.sealed.first().map_or(self.active_index, |m| m.index)
    }

    /// Highest journaled sequence number, if any record is retained.
    pub fn last_seq(&self) -> Option<u64> {
        self.active_last_seq.or_else(|| self.sealed.iter().rev().find_map(|m| m.last_seq))
    }

    /// Number of retained segment files (sealed + active).
    pub fn num_segments(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Lifetime counters.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Current fsync-cadence backoff multiplier (1 = healthy disk).
    pub fn sync_backoff(&self) -> u64 {
        self.sync_backoff
    }
}

fn stem_and_ext(path: &std::path::Path) -> (String, String) {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("journal").to_string();
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("wal").to_string();
    (stem, ext)
}

/// Path of segment `index` for a journal rooted at `base`.
pub fn segment_path(base: &std::path::Path, index: u64) -> PathBuf {
    let (stem, ext) = stem_and_ext(base);
    base.with_file_name(format!("{stem}.{index}.{ext}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeway_streams::DriftPhase;

    fn temp_journal_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("freeway-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn tiny_batch(seq: u64) -> Batch {
        let x = Matrix::from_rows(&[vec![seq as f64, 1.0], vec![2.0, 3.0]]);
        Batch::labeled(x, vec![0, 1], seq, DriftPhase::Stable)
    }

    /// A frame over half a segment long, so every append after the first
    /// rolls the journal over to a new segment.
    fn half_segment_frame(seq: u64) -> Vec<u8> {
        let (rows, cols) = (64 * 1024, 2);
        // Square roots render as 17-18 JSON characters each.
        let data = (0..rows * cols).map(|i| seq as f64 + (i as f64).sqrt()).collect();
        let batch = Batch::unlabeled(Matrix::from_vec(rows, cols, data), seq, DriftPhase::Stable);
        let frame = frame_batch(&batch, false);
        assert!(frame.len() as u64 > SEGMENT_MAX_BYTES / 2);
        frame
    }

    fn config(dir: &std::path::Path) -> JournalConfig {
        JournalConfig::new(dir.join("journal.wal"))
    }

    #[test]
    fn append_then_reopen_roundtrips_records() {
        let dir = temp_journal_dir("roundtrip");
        let (mut journal, recovered) = Journal::open(config(&dir)).expect("open");
        assert!(recovered.is_empty());
        for seq in 0..5u64 {
            let frame = frame_batch(&tiny_batch(seq), seq % 2 == 0);
            journal.append_frame(seq, &frame).expect("append");
        }
        assert_eq!(journal.last_seq(), Some(4));
        drop(journal);

        let (journal, recovered) = Journal::open(config(&dir)).expect("reopen");
        assert_eq!(recovered.len(), 5);
        for (i, record) in recovered.iter().enumerate() {
            assert_eq!(record.seq, i as u64);
            assert_eq!(record.prequential, i % 2 == 0);
            let batch = record.to_batch();
            assert_eq!(batch.labels.as_deref(), Some(&[0usize, 1][..]));
            assert_eq!(batch.x, tiny_batch(i as u64).x);
        }
        assert_eq!(journal.stats().recovered_records, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_above_filters_and_sees_unsynced_appends() {
        let dir = temp_journal_dir("filter");
        let (mut journal, _) = Journal::open(config(&dir)).expect("open");
        for seq in 0..6u64 {
            let frame = frame_batch(&tiny_batch(seq), false);
            let synced = journal.append_frame(seq, &frame).expect("append");
            assert!(!synced, "a cadence of {FSYNC_EVERY_N_APPENDS} must not sync on append {seq}");
        }
        let all = journal.records_above(None).expect("read");
        assert_eq!(all.len(), 6, "unsynced frames are visible to the writing process");
        let above = journal.records_above(Some(3)).expect("read");
        assert_eq!(above.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![4, 5]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_journal_dir("torn");
        let (mut journal, _) = Journal::open(config(&dir)).expect("open");
        for seq in 0..3u64 {
            let frame = frame_batch(&tiny_batch(seq), false);
            journal.append_frame(seq, &frame).expect("append");
        }
        drop(journal);

        // Tear the tail: chop the last 5 bytes off the only segment.
        let seg = segment_path(&dir.join("journal.wal"), 0);
        let bytes = std::fs::read(&seg).expect("read");
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).expect("truncate");

        let clean_prefix: usize =
            (0..2u64).map(|seq| frame_batch(&tiny_batch(seq), false).len()).sum();
        let (journal, recovered) = Journal::open(config(&dir)).expect("reopen");
        assert_eq!(recovered.len(), 2, "fully-framed prefix survives");
        assert_eq!(journal.stats().torn_bytes_dropped as usize, bytes.len() - 5 - clean_prefix);
        // The truncated file is clean again: a third open finds no tear.
        drop(journal);
        let (journal, recovered) = Journal::open(config(&dir)).expect("third open");
        assert_eq!(recovered.len(), 2);
        assert_eq!(journal.stats().torn_bytes_dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_mid_frame_drops_suffix_and_later_segments() {
        let dir = temp_journal_dir("midframe");
        let cfg = config(&dir);
        let (mut journal, _) = Journal::open(cfg.clone()).expect("open");
        for seq in 0..3u64 {
            journal.append_frame(seq, &half_segment_frame(seq)).expect("append");
        }
        assert_eq!(journal.num_segments(), 3);
        drop(journal);

        // Flip one payload byte in the middle segment: its record dies,
        // and segment 2 (after the hole) must be dropped wholesale.
        let seg1 = segment_path(&cfg.path, 1);
        let mut bytes = std::fs::read(&seg1).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&seg1, &bytes).expect("write");

        let (journal, recovered) = Journal::open(cfg.clone()).expect("reopen");
        assert_eq!(recovered.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0]);
        assert!(!segment_path(&cfg.path, 2).exists(), "post-hole segment unlinked");
        assert_eq!(journal.last_seq(), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_truncate_below_drop_only_sealed_covered_segments() {
        let dir = temp_journal_dir("truncate");
        let (mut journal, _) = Journal::open(config(&dir)).expect("open");
        for seq in 0..4u64 {
            journal.append_frame(seq, &half_segment_frame(seq)).expect("append");
        }
        assert_eq!(journal.num_segments(), 4);
        assert_eq!(journal.lowest_segment_index(), 0);

        // Checkpoint covers seq 1: segments 0 and 1 go, 2 stays (its
        // record has seq 2 > 1), the active one is untouchable.
        let removed = journal.truncate_below(1).expect("truncate");
        assert_eq!(removed, 2);
        assert_eq!(journal.lowest_segment_index(), 2);
        assert_eq!(
            journal.records_above(None).expect("read").iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![2, 3]
        );
        // Even a checkpoint above everything never drops the active segment.
        let removed = journal.truncate_below(100).expect("truncate");
        assert_eq!(removed, 1);
        assert_eq!(journal.num_segments(), 1);
        assert_eq!(journal.last_seq(), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_sync_degrades_cadence_then_recovers() {
        let dir = temp_journal_dir("slowsync");
        let (mut journal, _) = Journal::open(config(&dir)).expect("open");
        // Appends seq, syncing exactly on the cadence's last one.
        let mut seq = 0u64;
        let mut appends = |journal: &mut Journal, n: u64| {
            for i in 1..=n {
                let frame = frame_batch(&tiny_batch(seq), false);
                let synced = journal.append_frame(seq, &frame).expect("append");
                assert_eq!(synced, i == n, "append {i} of a cadence of {n}");
                seq += 1;
            }
        };
        journal.slow_disk = SLOW_SYNC_BUDGET + Duration::from_millis(10);
        appends(&mut journal, FSYNC_EVERY_N_APPENDS);
        assert_eq!(journal.sync_backoff(), 2, "slow sync doubles the backoff");
        assert_eq!(journal.stats().slow_syncs, 1);
        // Backoff 2 doubles the cadence, and a fast sync resets it.
        journal.slow_disk = Duration::ZERO;
        appends(&mut journal, 2 * FSYNC_EVERY_N_APPENDS);
        assert_eq!(journal.sync_backoff(), 1);
        assert_eq!(journal.stats().slow_syncs, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
