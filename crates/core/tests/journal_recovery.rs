//! Torn-write recovery drill for the ingest journal (ISSUE §journal):
//! a crash can cut the log at *any* byte. Opening a journal truncated at
//! every possible prefix of its tail frame must recover every fully
//! framed record, drop the torn tail cleanly, and leave the log
//! appendable — no prefix may produce an error, a partial record, or a
//! corrupted reopen. A journal written for a different model must be
//! refused at startup with a typed error, never replayed into a panic.

use freeway_core::journal::segment_path;
use freeway_core::{
    frame_batch, BatchFault, FreewayError, Journal, JournalConfig, JournalRecord, PipelineBuilder,
};
use freeway_linalg::Matrix;
use freeway_ml::ModelSpec;
use freeway_streams::{Batch, DriftPhase};
use proptest::prelude::*;

fn temp_dir(label: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("freeway-journal-torn-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A deterministic labeled batch whose payload varies with `seq`.
fn batch(seq: u64, rows: usize) -> Batch {
    let cols = 3;
    let data: Vec<f64> = (0..rows * cols).map(|i| (seq as f64) + (i as f64) * 0.25).collect();
    let x = Matrix::from_vec(rows, cols, data);
    let labels = (0..rows).map(|r| (r + seq as usize) % 2).collect();
    Batch::labeled(x, labels, seq, DriftPhase::Stable)
}

/// Writes `records` through a real journal and returns the raw segment
/// bytes plus the byte offset where each frame starts (so cuts can be
/// aimed at the tail frame).
fn journaled_bytes(dir: &std::path::Path, n: u64) -> (Vec<u8>, Vec<usize>, Vec<JournalRecord>) {
    let config = JournalConfig::new(dir.join("ingest.wal"));
    let (mut journal, recovered) = Journal::open(config.clone()).expect("fresh journal opens");
    assert!(recovered.is_empty());
    let mut offsets = Vec::new();
    let mut offset = 0usize;
    for seq in 0..n {
        let frame = frame_batch(&batch(seq, 2 + (seq as usize % 3)), true);
        offsets.push(offset);
        offset += frame.len();
        journal.append_frame(seq, &frame).expect("append");
    }
    journal.sync();
    let (reopened, records) = Journal::open(config).expect("reopen");
    assert_eq!(records.len(), n as usize, "all synced records recover");
    drop(reopened);
    let bytes = std::fs::read(segment_path(&dir.join("ingest.wal"), 0)).expect("segment bytes");
    assert_eq!(bytes.len(), offset, "offsets account for every byte");
    (bytes, offsets, records)
}

#[test]
fn every_byte_prefix_of_the_tail_frame_recovers_cleanly() {
    let dir = temp_dir("exhaustive");
    let n = 4u64;
    let (bytes, offsets, records) = journaled_bytes(&dir, n);
    let tail_start = *offsets.last().expect("at least one frame");

    // Cut the log at every byte inside (and at the start of) the tail
    // frame: everything before it must come back, nothing after.
    for cut in tail_start..bytes.len() {
        let case = dir.join(format!("cut-{cut}"));
        std::fs::create_dir_all(&case).expect("case dir");
        let base = case.join("ingest.wal");
        std::fs::write(segment_path(&base, 0), &bytes[..cut]).expect("torn copy");
        let (journal, recovered) =
            Journal::open(JournalConfig::new(base)).expect("torn tail is never an open error");
        assert_eq!(
            recovered,
            records[..(n - 1) as usize],
            "cut at byte {cut}: all fully framed records, nothing more"
        );
        assert_eq!(
            journal.stats().torn_bytes_dropped as usize,
            cut - tail_start,
            "cut at byte {cut}: exactly the torn tail is dropped"
        );
        // The recovered log is appendable: the write-ahead contract
        // survives the crash.
        let mut journal = journal;
        let replacement = frame_batch(&batch(n - 1, 2), true);
        journal.append_frame(n - 1, &replacement).expect("append after torn recovery");
        journal.sync();
        let (_j, reread) = Journal::open(JournalConfig::new(case.join("ingest.wal")))
            .expect("reopen after repair");
        assert_eq!(reread.len(), n as usize, "cut at byte {cut}: repaired log is complete");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupting_a_mid_log_byte_drops_that_frame_and_its_suffix() {
    let dir = temp_dir("midframe");
    let n = 5u64;
    let (bytes, offsets, records) = journaled_bytes(&dir, n);
    // Flip one payload byte inside frame 2: frames 0-1 survive, frames
    // 2-4 are dropped (replay must be a contiguous prefix).
    let mut corrupt = bytes.clone();
    let victim = offsets[2] + 12;
    corrupt[victim] ^= 0xFF;
    let case = dir.join("corrupt");
    std::fs::create_dir_all(&case).expect("case dir");
    let base = case.join("ingest.wal");
    std::fs::write(segment_path(&base, 0), &corrupt).expect("corrupt copy");
    let (journal, recovered) =
        Journal::open(JournalConfig::new(base)).expect("corruption is recovered, not fatal");
    assert_eq!(recovered, records[..2], "contiguous prefix before the corrupt frame");
    assert_eq!(
        journal.stats().torn_bytes_dropped as usize,
        bytes.len() - offsets[2],
        "the corrupt frame and its suffix are dropped"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn startup_recovery_refuses_a_journal_written_for_another_model() {
    let dir = temp_dir("foreign-model");
    let journal = JournalConfig::new(dir.join("ingest.wal"));
    let build = |spec| PipelineBuilder::new(spec).journal(journal.clone()).build_supervised();
    let mut first = build(ModelSpec::lr(4, 3)).expect("fresh journal");
    for seq in 0..6u64 {
        let data = (0..32).map(|i| (seq * 32 + i) as f64 * 0.01).collect();
        let labels = (0..8).map(|r| r % 3).collect();
        let batch = Batch::labeled(Matrix::from_vec(8, 4, data), labels, seq, DriftPhase::Stable);
        first.feed_prequential(batch).expect("clean batch");
    }
    first.finish().expect("finish");

    match build(ModelSpec::lr(8, 3)).err() {
        Some(FreewayError::PoisonBatch {
            seq: 0,
            fault: BatchFault::WidthMismatch { found: 4, expected: 8 },
        }) => {}
        other => panic!("wider model: expected a width-mismatch poison error, got {other:?}"),
    }
    match build(ModelSpec::lr(4, 2)).err() {
        Some(FreewayError::PoisonBatch {
            seq: 0,
            fault: BatchFault::LabelOutOfRange { row: 2, label: 2, classes: 2 },
        }) => {}
        other => panic!("fewer classes: expected a label-range poison error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary record sets cut at an arbitrary byte: the recovery is
    /// always the longest fully framed prefix at or before the cut.
    #[test]
    fn any_cut_point_recovers_the_framed_prefix(
        n in 1u64..6,
        rows in 1usize..4,
        cut_fraction in 0.0f64..1.0,
    ) {
        let dir = temp_dir(&format!("prop-{n}-{rows}-{:.0}", cut_fraction * 1000.0));
        let config = JournalConfig::new(dir.join("ingest.wal"));
        let (mut journal, _) = Journal::open(config).expect("fresh journal");
        let mut offsets = Vec::new();
        let mut offset = 0usize;
        for seq in 0..n {
            let frame = frame_batch(&batch(seq, rows), seq % 2 == 0);
            offsets.push(offset);
            offset += frame.len();
            journal.append_frame(seq, &frame).expect("append");
        }
        journal.sync();
        drop(journal);
        let seg = segment_path(&dir.join("ingest.wal"), 0);
        let bytes = std::fs::read(&seg).expect("segment bytes");
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        std::fs::write(&seg, &bytes[..cut]).expect("torn rewrite");
        let (reopened, recovered) =
            Journal::open(JournalConfig::new(dir.join("ingest.wal"))).expect("recovery");
        let expect_full = offsets.iter().filter(|&&o| {
            // A frame survives iff the *next* frame boundary fits the cut.
            let next = offsets.iter().find(|&&p| p > o).copied().unwrap_or(bytes.len());
            next <= cut
        }).count();
        prop_assert_eq!(recovered.len(), expect_full);
        for (seq, record) in recovered.iter().enumerate() {
            prop_assert_eq!(record.seq, seq as u64);
        }
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
