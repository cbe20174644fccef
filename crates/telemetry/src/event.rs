//! Structured runtime events emitted by the pipeline, supervisor, learner,
//! and drift machinery.
//!
//! Events are small `Copy` values: every payload is a scalar or a
//! `&'static str` tag, so emitting one never allocates. String tags rather
//! than domain enums keep this crate dependency-free — the producing crates
//! translate their own enums via `tag()` helpers.

use serde::Serialize;

/// One structured observability event.
///
/// Serialized externally tagged, e.g.
/// `{"DriftDetected": {"seq": 12, "severity": 4.1, ...}}`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
#[non_exhaustive]
pub enum TelemetryEvent {
    /// The shift classifier saw a severe shift (pattern B or C, paper
    /// Eqns 6–10): severity `M` exceeded the `alpha` threshold.
    DriftDetected {
        /// Batch sequence number the decision was made on.
        seq: u64,
        /// Severity z-score `M = (d_t - mu_d) / sigma_d` (Eqn 10),
        /// sanitized to a large finite value if degenerate.
        severity: f64,
        /// Distance `d_t` between consecutive projected batch means.
        distance: f64,
        /// Distance `d_h` to the nearest historical distribution, or a
        /// negative sentinel when no history exists yet.
        nearest_historical: f64,
        /// Classified pattern tag: `"sudden"` or `"reoccurring"`.
        pattern: &'static str,
    },
    /// The learner routed a batch to an adaptation strategy.
    StrategyDispatched {
        /// Batch sequence number.
        seq: u64,
        /// Strategy tag (e.g. `"ensemble"`, `"cec"`, `"knowledge-reuse"`).
        strategy: &'static str,
        /// Pattern tag that drove the dispatch, `"warmup"` before the
        /// shift tracker is ready.
        pattern: &'static str,
    },
    /// The adaptive streaming window dropped batches whose decayed weight
    /// fell below the floor (Eqn 11 decay).
    WindowEvicted {
        /// Batch sequence number current when the eviction happened.
        seq: u64,
        /// Granularity level that owns the window.
        level: usize,
        /// Number of window batches evicted.
        evicted: usize,
        /// Normalized disorder of the insertion that triggered decay.
        disorder: f64,
    },
    /// The supervisor captured a checkpoint from the worker.
    CheckpointWritten {
        /// Batch sequence number the checkpoint covers.
        seq: u64,
        /// Whether the checkpoint was also persisted to disk.
        persisted: bool,
    },
    /// Learner state was restored from the last good checkpoint.
    CheckpointRestored {
        /// Batch sequence number the restored checkpoint covers.
        seq: u64,
    },
    /// The batch guard rejected a batch into the quarantine.
    BatchQuarantined {
        /// Sequence number of the rejected batch.
        seq: u64,
        /// Fault tag (e.g. `"non-finite-feature"`, `"width-mismatch"`).
        fault: &'static str,
    },
    /// The supervisor restarted the worker thread after a panic.
    WorkerRestarted {
        /// Total restarts so far, including this one.
        restarts: u64,
        /// In-flight batches lost with the crashed worker.
        lost_in_flight: u64,
    },
    /// An inference report was produced in degraded mode (e.g. severe
    /// shift handled with no trusted model available).
    InferenceDegraded {
        /// Batch sequence number.
        seq: u64,
        /// Strategy tag that degraded.
        strategy: &'static str,
    },
    /// A distribution/model snapshot entered the knowledge store.
    KnowledgePreserved {
        /// Batch sequence number current at preservation time.
        seq: u64,
        /// Live entries in the store after the insert.
        entries: usize,
        /// Window disorder recorded with the snapshot.
        disorder: f64,
    },
    /// The degradation ladder moved the learner to a different service
    /// level (overload protection: full → short-only → inference-only
    /// → shed, and back on recovery).
    DegradationChanged {
        /// Batch sequence number current at the transition.
        seq: u64,
        /// Level tag before the transition (e.g. `"full"`).
        from: &'static str,
        /// Level tag after the transition (e.g. `"short-only"`).
        to: &'static str,
    },
    /// The admission controller dropped a batch instead of feeding it.
    BatchShed {
        /// Sequence number of the dropped batch.
        seq: u64,
        /// Why it was dropped (`"queue-full"`, `"degraded"` or
        /// `"fenced"`).
        reason: &'static str,
    },
    /// A shard reused a model snapshot preserved by a *different* shard
    /// through the cross-shard knowledge registry (sharded Pattern-C
    /// warm start).
    SharedKnowledgeHit {
        /// Batch sequence number the lookup was made on.
        seq: u64,
        /// Shard that performed the lookup.
        shard: u64,
        /// Shard that originally preserved the reused snapshot.
        source_shard: u64,
        /// Feature-space distance to the matched fingerprint.
        distance: f64,
    },
    /// An admitted batch was framed and appended to the durable ingest
    /// journal.
    JournalAppended {
        /// Sequence number of the journaled batch.
        seq: u64,
        /// Framed record size in bytes (header + payload).
        bytes: u64,
        /// Whether this append also flushed the segment to disk
        /// (fsync cadence boundary).
        synced: bool,
    },
    /// A crash recovery replayed journaled batches into the restored
    /// learner.
    JournalReplayed {
        /// Highest sequence number reached by the replay.
        seq: u64,
        /// Batches re-fed from the journal during this recovery.
        replayed: u64,
        /// Replayed batches whose outputs were suppressed because they
        /// had already been delivered (seq-based dedup).
        suppressed: u64,
    },
    /// Journal segments entirely below the last durable checkpoint were
    /// dropped.
    JournalTruncated {
        /// Checkpoint sequence number the truncation is anchored to.
        seq: u64,
        /// Number of segment files removed.
        segments: u64,
    },
    /// A label schedule withheld a batch's labels at ingest time: the
    /// features were served unlabeled and the labels were parked for
    /// later delivery (or dropped entirely under a partial-label
    /// regime).
    LabelDeferred {
        /// Sequence number of the batch whose labels were withheld.
        seq: u64,
        /// Scheduled delivery lag in batches (`0` when the labels were
        /// dropped and will never arrive).
        expected_lag: u64,
    },
    /// Previously deferred labels were delivered as a training-only
    /// batch.
    LabelArrived {
        /// Sequence number of the original feature batch the labels
        /// belong to.
        seq: u64,
        /// Batches elapsed between deferral and delivery.
        lag: u64,
    },
    /// The liveness watchdog declared a worker stalled: work was pending
    /// and its heartbeat progress epoch did not advance within the
    /// configured deadline.
    WorkerStalled {
        /// Last batch sequence number the worker completed before it
        /// stopped making progress.
        seq: u64,
        /// Stage tag the worker last reported (e.g. `"train"`,
        /// `"checkpoint"`, `"chaos-stall"`).
        stage: &'static str,
    },
    /// A stalled worker was forcibly recovered through the
    /// checkpoint-restore + journal-replay path.
    WorkerRecovered {
        /// Last batch sequence number completed before the stall.
        seq: u64,
        /// Total restarts so far, including this forced recovery.
        restarts: u64,
    },
    /// A shard exhausted its restart budget and was fenced: its keys are
    /// deterministically rerouted to surviving shards and its knowledge
    /// sub-list stays readable for warm starts.
    ShardFenced {
        /// Batch sequence number current when the fence was raised.
        seq: u64,
        /// Index of the fenced shard.
        shard: u64,
    },
}

impl TelemetryEvent {
    /// The event's kind discriminant.
    pub fn kind(&self) -> EventKind {
        match self {
            TelemetryEvent::DriftDetected { .. } => EventKind::DriftDetected,
            TelemetryEvent::StrategyDispatched { .. } => EventKind::StrategyDispatched,
            TelemetryEvent::WindowEvicted { .. } => EventKind::WindowEvicted,
            TelemetryEvent::CheckpointWritten { .. } => EventKind::CheckpointWritten,
            TelemetryEvent::CheckpointRestored { .. } => EventKind::CheckpointRestored,
            TelemetryEvent::BatchQuarantined { .. } => EventKind::BatchQuarantined,
            TelemetryEvent::WorkerRestarted { .. } => EventKind::WorkerRestarted,
            TelemetryEvent::InferenceDegraded { .. } => EventKind::InferenceDegraded,
            TelemetryEvent::KnowledgePreserved { .. } => EventKind::KnowledgePreserved,
            TelemetryEvent::DegradationChanged { .. } => EventKind::DegradationChanged,
            TelemetryEvent::BatchShed { .. } => EventKind::BatchShed,
            TelemetryEvent::SharedKnowledgeHit { .. } => EventKind::SharedKnowledgeHit,
            TelemetryEvent::JournalAppended { .. } => EventKind::JournalAppended,
            TelemetryEvent::JournalReplayed { .. } => EventKind::JournalReplayed,
            TelemetryEvent::JournalTruncated { .. } => EventKind::JournalTruncated,
            TelemetryEvent::LabelDeferred { .. } => EventKind::LabelDeferred,
            TelemetryEvent::LabelArrived { .. } => EventKind::LabelArrived,
            TelemetryEvent::WorkerStalled { .. } => EventKind::WorkerStalled,
            TelemetryEvent::WorkerRecovered { .. } => EventKind::WorkerRecovered,
            TelemetryEvent::ShardFenced { .. } => EventKind::ShardFenced,
        }
    }

    /// The batch sequence number the event refers to, when it has one.
    pub fn seq(&self) -> Option<u64> {
        match *self {
            TelemetryEvent::DriftDetected { seq, .. }
            | TelemetryEvent::StrategyDispatched { seq, .. }
            | TelemetryEvent::WindowEvicted { seq, .. }
            | TelemetryEvent::CheckpointWritten { seq, .. }
            | TelemetryEvent::CheckpointRestored { seq }
            | TelemetryEvent::BatchQuarantined { seq, .. }
            | TelemetryEvent::InferenceDegraded { seq, .. }
            | TelemetryEvent::KnowledgePreserved { seq, .. }
            | TelemetryEvent::DegradationChanged { seq, .. }
            | TelemetryEvent::BatchShed { seq, .. }
            | TelemetryEvent::SharedKnowledgeHit { seq, .. }
            | TelemetryEvent::JournalAppended { seq, .. }
            | TelemetryEvent::JournalReplayed { seq, .. }
            | TelemetryEvent::JournalTruncated { seq, .. }
            | TelemetryEvent::LabelDeferred { seq, .. }
            | TelemetryEvent::LabelArrived { seq, .. }
            | TelemetryEvent::WorkerStalled { seq, .. }
            | TelemetryEvent::WorkerRecovered { seq, .. }
            | TelemetryEvent::ShardFenced { seq, .. } => Some(seq),
            TelemetryEvent::WorkerRestarted { .. } => None,
        }
    }
}

/// Discriminant for [`TelemetryEvent`], used for per-kind counters and
/// filtering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EventKind {
    /// See [`TelemetryEvent::DriftDetected`].
    DriftDetected,
    /// See [`TelemetryEvent::StrategyDispatched`].
    StrategyDispatched,
    /// See [`TelemetryEvent::WindowEvicted`].
    WindowEvicted,
    /// See [`TelemetryEvent::CheckpointWritten`].
    CheckpointWritten,
    /// See [`TelemetryEvent::CheckpointRestored`].
    CheckpointRestored,
    /// See [`TelemetryEvent::BatchQuarantined`].
    BatchQuarantined,
    /// See [`TelemetryEvent::WorkerRestarted`].
    WorkerRestarted,
    /// See [`TelemetryEvent::InferenceDegraded`].
    InferenceDegraded,
    /// See [`TelemetryEvent::KnowledgePreserved`].
    KnowledgePreserved,
    /// See [`TelemetryEvent::DegradationChanged`].
    DegradationChanged,
    /// See [`TelemetryEvent::BatchShed`].
    BatchShed,
    /// See [`TelemetryEvent::SharedKnowledgeHit`].
    SharedKnowledgeHit,
    /// See [`TelemetryEvent::JournalAppended`].
    JournalAppended,
    /// See [`TelemetryEvent::JournalReplayed`].
    JournalReplayed,
    /// See [`TelemetryEvent::JournalTruncated`].
    JournalTruncated,
    /// See [`TelemetryEvent::LabelDeferred`].
    LabelDeferred,
    /// See [`TelemetryEvent::LabelArrived`].
    LabelArrived,
    /// See [`TelemetryEvent::WorkerStalled`].
    WorkerStalled,
    /// See [`TelemetryEvent::WorkerRecovered`].
    WorkerRecovered,
    /// See [`TelemetryEvent::ShardFenced`].
    ShardFenced,
}

impl EventKind {
    /// Every kind, in counter-index order.
    pub const ALL: [EventKind; 20] = [
        EventKind::DriftDetected,
        EventKind::StrategyDispatched,
        EventKind::WindowEvicted,
        EventKind::CheckpointWritten,
        EventKind::CheckpointRestored,
        EventKind::BatchQuarantined,
        EventKind::WorkerRestarted,
        EventKind::InferenceDegraded,
        EventKind::KnowledgePreserved,
        EventKind::DegradationChanged,
        EventKind::BatchShed,
        EventKind::SharedKnowledgeHit,
        EventKind::JournalAppended,
        EventKind::JournalReplayed,
        EventKind::JournalTruncated,
        EventKind::LabelDeferred,
        EventKind::LabelArrived,
        EventKind::WorkerStalled,
        EventKind::WorkerRecovered,
        EventKind::ShardFenced,
    ];

    /// Variant name as it appears in serialized events.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::DriftDetected => "DriftDetected",
            EventKind::StrategyDispatched => "StrategyDispatched",
            EventKind::WindowEvicted => "WindowEvicted",
            EventKind::CheckpointWritten => "CheckpointWritten",
            EventKind::CheckpointRestored => "CheckpointRestored",
            EventKind::BatchQuarantined => "BatchQuarantined",
            EventKind::WorkerRestarted => "WorkerRestarted",
            EventKind::InferenceDegraded => "InferenceDegraded",
            EventKind::KnowledgePreserved => "KnowledgePreserved",
            EventKind::DegradationChanged => "DegradationChanged",
            EventKind::BatchShed => "BatchShed",
            EventKind::SharedKnowledgeHit => "SharedKnowledgeHit",
            EventKind::JournalAppended => "JournalAppended",
            EventKind::JournalReplayed => "JournalReplayed",
            EventKind::JournalTruncated => "JournalTruncated",
            EventKind::LabelDeferred => "LabelDeferred",
            EventKind::LabelArrived => "LabelArrived",
            EventKind::WorkerStalled => "WorkerStalled",
            EventKind::WorkerRecovered => "WorkerRecovered",
            EventKind::ShardFenced => "ShardFenced",
        }
    }

    /// Snake-case suffix used in per-kind metric names.
    pub fn metric_name(self) -> &'static str {
        match self {
            EventKind::DriftDetected => "drift_detected",
            EventKind::StrategyDispatched => "strategy_dispatched",
            EventKind::WindowEvicted => "window_evicted",
            EventKind::CheckpointWritten => "checkpoint_written",
            EventKind::CheckpointRestored => "checkpoint_restored",
            EventKind::BatchQuarantined => "batch_quarantined",
            EventKind::WorkerRestarted => "worker_restarted",
            EventKind::InferenceDegraded => "inference_degraded",
            EventKind::KnowledgePreserved => "knowledge_preserved",
            EventKind::DegradationChanged => "degradation_changed",
            EventKind::BatchShed => "batch_shed",
            EventKind::SharedKnowledgeHit => "shared_knowledge_hit",
            EventKind::JournalAppended => "journal_appended",
            EventKind::JournalReplayed => "journal_replayed",
            EventKind::JournalTruncated => "journal_truncated",
            EventKind::LabelDeferred => "label_deferred",
            EventKind::LabelArrived => "label_arrived",
            EventKind::WorkerStalled => "worker_stalled",
            EventKind::WorkerRecovered => "worker_recovered",
            EventKind::ShardFenced => "shard_fenced",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            EventKind::DriftDetected => 0,
            EventKind::StrategyDispatched => 1,
            EventKind::WindowEvicted => 2,
            EventKind::CheckpointWritten => 3,
            EventKind::CheckpointRestored => 4,
            EventKind::BatchQuarantined => 5,
            EventKind::WorkerRestarted => 6,
            EventKind::InferenceDegraded => 7,
            EventKind::KnowledgePreserved => 8,
            EventKind::DegradationChanged => 9,
            EventKind::BatchShed => 10,
            EventKind::SharedKnowledgeHit => 11,
            EventKind::JournalAppended => 12,
            EventKind::JournalReplayed => 13,
            EventKind::JournalTruncated => 14,
            EventKind::LabelDeferred => 15,
            EventKind::LabelArrived => 16,
            EventKind::WorkerStalled => 17,
            EventKind::WorkerRecovered => 18,
            EventKind::ShardFenced => 19,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_index_matches_all_order() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn events_serialize_externally_tagged() {
        let event = TelemetryEvent::BatchQuarantined { seq: 7, fault: "empty" };
        let json = serde_json::to_string(&event).expect("serializable");
        assert!(json.contains("BatchQuarantined"), "{json}");
        assert!(json.contains("\"seq\":7"), "{json}");
        assert_eq!(event.seq(), Some(7));
        assert_eq!(event.kind().name(), "BatchQuarantined");
    }
}
