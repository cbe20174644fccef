//! The FreewayML error taxonomy.
//!
//! The runtime's value is the state it accumulates across drifts, so a
//! production deployment must degrade instead of aborting: worker crashes
//! trigger a checkpoint restart (surfacing as
//! [`FreewayError::RestartsExhausted`] only once the budget is spent),
//! poison input is quarantined (never fed to the learner), and
//! corrupt checkpoints are rejected with a [`CheckpointError`] naming
//! exactly what disagreed. Every fallible pipeline operation returns
//! `Result<_, FreewayError>`; the only paths that still panic are
//! programmer errors (invalid configurations) caught at construction.

use crate::guard::BatchFault;

/// Everything that can go wrong in the hardened runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum FreewayError {
    /// A configuration or builder combination failed validation; the
    /// message names the offending field.
    InvalidConfig(String),
    /// The worker thread is gone and no restart was attempted (e.g. the
    /// pipeline was already finished).
    WorkerUnavailable,
    /// The worker's input queue is full: transient backpressure, not a
    /// failure. Callers may retry, shed, or block — unlike
    /// [`Self::WorkerUnavailable`], which means the worker is dead and a
    /// retry can never succeed.
    QueueFull,
    /// Code outside supervision panicked (a serving call holding the
    /// service lock); the message says what. Worker panics restart
    /// instead.
    WorkerPanicked(String),
    /// The worker crashed more times than the supervisor allows.
    RestartsExhausted {
        /// Restarts attempted before giving up.
        attempts: usize,
        /// Panic message of the final crash.
        last_panic: String,
    },
    /// A batch failed ingestion validation. The supervised pipeline
    /// quarantines instead of returning this; it surfaces only from
    /// explicit validation calls and from startup recovery over a
    /// journal whose records this pipeline's model cannot take.
    PoisonBatch {
        /// Sequence number of the offending batch.
        seq: u64,
        /// What was wrong with it.
        fault: BatchFault,
    },
    /// A checkpoint could not be decoded, validated, or restored.
    Checkpoint(CheckpointError),
    /// Filesystem failure while persisting or loading a checkpoint.
    Io(std::io::Error),
    /// A deadline-bounded drain ([`ShardedPipeline::barrier_deadline`])
    /// gave up: the listed shards still owed work when the budget ran
    /// out. The pipeline is untouched — callers may retry, extend the
    /// budget, or escalate to fencing.
    ///
    /// [`ShardedPipeline::barrier_deadline`]:
    ///     crate::shard::ShardedPipeline::barrier_deadline
    DrainTimeout {
        /// Indices of the shards that had not reached quiescence.
        shards: Vec<usize>,
    },
}

/// Why a checkpoint was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The checkpoint's format version is not one this build understands.
    UnsupportedVersion {
        /// Version found in the checkpoint.
        found: u32,
        /// Version this build writes and accepts.
        supported: u32,
    },
    /// Level count differs from what the checkpoint's own config builds.
    LevelCountMismatch {
        /// Levels stored in the checkpoint.
        found: usize,
        /// Levels the configuration constructs.
        expected: usize,
    },
    /// A level's flat parameter vector has the wrong length for the spec.
    ParameterLengthMismatch {
        /// Index of the offending level (0 = short).
        level: usize,
        /// Parameters stored.
        found: usize,
        /// Parameters the spec requires.
        expected: usize,
    },
    /// A preserved knowledge snapshot was captured from a different
    /// architecture than the checkpoint declares.
    SnapshotSpecMismatch {
        /// Index of the offending knowledge entry.
        entry: usize,
    },
    /// The serialized form could not be parsed at all.
    Malformed(String),
    /// The payload's CRC32 does not match the checksum stored alongside
    /// it — the file was truncated or corrupted after it was written.
    CrcMismatch {
        /// Checksum stored in the envelope.
        stored: u32,
        /// Checksum computed over the payload actually read.
        computed: u32,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported checkpoint version {found} (this build reads {supported})")
            }
            Self::LevelCountMismatch { found, expected } => {
                write!(f, "checkpoint level count mismatch: {found} stored, {expected} expected")
            }
            Self::ParameterLengthMismatch { level, found, expected } => {
                write!(
                    f,
                    "level {level} parameter length mismatch: {found} stored, {expected} expected"
                )
            }
            Self::SnapshotSpecMismatch { entry } => {
                write!(f, "knowledge entry {entry} was captured from a different model spec")
            }
            Self::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            Self::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl std::fmt::Display for FreewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Self::WorkerUnavailable => write!(f, "pipeline worker is not running"),
            Self::QueueFull => write!(f, "pipeline queue is full (retryable backpressure)"),
            Self::WorkerPanicked(msg) => write!(f, "pipeline worker panicked: {msg}"),
            Self::RestartsExhausted { attempts, last_panic } => {
                write!(f, "worker restart budget exhausted after {attempts} attempts: {last_panic}")
            }
            Self::PoisonBatch { seq, fault } => write!(f, "poison batch (seq {seq}): {fault}"),
            Self::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::DrainTimeout { shards } => {
                write!(f, "drain deadline elapsed with unresponsive shards {shards:?}")
            }
        }
    }
}

impl std::error::Error for FreewayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Checkpoint(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for FreewayError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<std::io::Error> for FreewayError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Renders a `catch_unwind` payload as a human-readable message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = FreewayError::Checkpoint(CheckpointError::UnsupportedVersion {
            found: 9,
            supported: 1,
        });
        let msg = e.to_string();
        assert!(msg.contains("version 9"), "{msg}");

        let e = FreewayError::RestartsExhausted { attempts: 3, last_panic: "boom".into() };
        assert!(e.to_string().contains("3 attempts"));
    }

    #[test]
    fn panic_message_handles_both_payload_kinds() {
        assert_eq!(panic_message(Box::new("static")), "static");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(42u32)), "non-string panic payload");
    }
}
