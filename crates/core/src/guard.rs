//! Ingestion guard: batch validation at the pipeline boundary.
//!
//! A NaN-laced or wrong-width batch fed straight into the learner panics
//! deep inside the math substrate (`partial_cmp(..).expect("finite")`,
//! shape asserts) — after the stream has already poisoned parameters.
//! The guard validates every batch **at the pipeline boundary**, before
//! any learner state is touched. The supervisor quarantines a rejected
//! batch instead of panicking: it counts it, announces it as a
//! `BatchQuarantined` event, and drops it. Unlabeled batches are *not*
//! faults: the pipeline degrades them to inference-only service.

use freeway_streams::Batch;

/// Why a batch was rejected at ingestion.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum BatchFault {
    /// The batch holds no rows.
    Empty,
    /// Feature width differs from the model's input dimension.
    WidthMismatch {
        /// Columns found.
        found: usize,
        /// Columns the model expects.
        expected: usize,
    },
    /// Label vector length differs from the row count.
    LabelCountMismatch {
        /// Feature rows.
        rows: usize,
        /// Labels supplied.
        labels: usize,
    },
    /// A label is outside `0..num_classes`.
    LabelOutOfRange {
        /// Row carrying the label.
        row: usize,
        /// The offending label.
        label: usize,
        /// Number of classes the model has.
        classes: usize,
    },
    /// A feature value is NaN or infinite.
    NonFiniteFeature {
        /// Row of the first offending value.
        row: usize,
        /// Column of the first offending value.
        col: usize,
    },
    /// The batch repeats the previously accepted sequence number.
    DuplicateSeq {
        /// The repeated sequence number.
        seq: u64,
    },
    /// The batch's sequence number moves backwards.
    RegressedSeq {
        /// The regressing sequence number.
        seq: u64,
        /// Highest sequence number accepted so far.
        newest: u64,
    },
}

impl BatchFault {
    /// Short static tag identifying the fault kind, used in telemetry
    /// events and metric labels.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Empty => "empty",
            Self::WidthMismatch { .. } => "width-mismatch",
            Self::LabelCountMismatch { .. } => "label-count-mismatch",
            Self::LabelOutOfRange { .. } => "label-out-of-range",
            Self::NonFiniteFeature { .. } => "non-finite-feature",
            Self::DuplicateSeq { .. } => "duplicate-seq",
            Self::RegressedSeq { .. } => "regressed-seq",
        }
    }
}

impl std::fmt::Display for BatchFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "empty batch"),
            Self::WidthMismatch { found, expected } => {
                write!(f, "feature width {found}, model expects {expected}")
            }
            Self::LabelCountMismatch { rows, labels } => {
                write!(f, "{labels} labels for {rows} rows")
            }
            Self::LabelOutOfRange { row, label, classes } => {
                write!(f, "row {row}: label {label} out of range for {classes} classes")
            }
            Self::NonFiniteFeature { row, col } => {
                write!(f, "non-finite feature at row {row}, column {col}")
            }
            Self::DuplicateSeq { seq } => write!(f, "duplicate sequence number {seq}"),
            Self::RegressedSeq { seq, newest } => {
                write!(f, "sequence number {seq} regresses behind {newest}")
            }
        }
    }
}

/// What the guard validates against.
#[derive(Clone, Copy, Debug)]
pub struct GuardPolicy {
    /// Feature dimension every batch must match.
    pub expected_features: usize,
    /// Number of classes labels must stay below.
    pub num_classes: usize,
}

/// Stateful batch validator (tracks the newest accepted `seq`).
#[derive(Clone, Debug)]
pub struct BatchGuard {
    policy: GuardPolicy,
    newest_seq: Option<u64>,
}

impl BatchGuard {
    /// Creates a guard for the given policy.
    pub fn new(policy: GuardPolicy) -> Self {
        Self { policy, newest_seq: None }
    }

    /// Validates a batch; `Ok` admits it (and advances the seq watermark),
    /// `Err` names the first fault found. Checks are ordered cheapest
    /// first; the non-finite scan is the only O(rows × cols) pass.
    pub fn admit(&mut self, batch: &Batch) -> Result<(), BatchFault> {
        self.inspect(batch)?;
        self.accept(batch.seq);
        Ok(())
    }

    /// Validation only — the seq watermark does **not** advance. The
    /// admission controller needs this split: an inspected batch may
    /// still bounce off a full queue and be re-offered later, which
    /// `admit`'s eager watermark would misreport as a duplicate. Call
    /// [`Self::accept`] once the batch is actually enqueued.
    pub fn inspect(&self, batch: &Batch) -> Result<(), BatchFault> {
        if batch.is_empty() {
            return Err(BatchFault::Empty);
        }
        if batch.dim() != self.policy.expected_features {
            return Err(BatchFault::WidthMismatch {
                found: batch.dim(),
                expected: self.policy.expected_features,
            });
        }
        if let Some(labels) = batch.labels.as_deref() {
            if labels.len() != batch.len() {
                return Err(BatchFault::LabelCountMismatch {
                    rows: batch.len(),
                    labels: labels.len(),
                });
            }
            for (row, &label) in labels.iter().enumerate() {
                if label >= self.policy.num_classes {
                    return Err(BatchFault::LabelOutOfRange {
                        row,
                        label,
                        classes: self.policy.num_classes,
                    });
                }
            }
        }
        let cols = batch.dim();
        if let Some(flat) = batch.x.as_slice().iter().position(|v| !v.is_finite()) {
            return Err(BatchFault::NonFiniteFeature { row: flat / cols, col: flat % cols });
        }
        if let Some(newest) = self.newest_seq {
            if batch.seq == newest {
                return Err(BatchFault::DuplicateSeq { seq: batch.seq });
            }
            if batch.seq < newest {
                return Err(BatchFault::RegressedSeq { seq: batch.seq, newest });
            }
        }
        Ok(())
    }

    /// Advances the seq watermark after a successfully enqueued batch.
    /// Pair with [`Self::inspect`]; [`Self::admit`] does both.
    pub fn accept(&mut self, seq: u64) {
        self.newest_seq = Some(seq);
    }

    /// Highest sequence number accepted so far.
    pub fn newest_seq(&self) -> Option<u64> {
        self.newest_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeway_linalg::Matrix;
    use freeway_streams::DriftPhase;

    fn guard() -> BatchGuard {
        BatchGuard::new(GuardPolicy { expected_features: 3, num_classes: 2 })
    }

    fn clean(seq: u64) -> Batch {
        Batch::labeled(Matrix::filled(4, 3, 1.0), vec![0, 1, 0, 1], seq, DriftPhase::Stable)
    }

    #[test]
    fn clean_batches_are_admitted_in_order() {
        let mut g = guard();
        assert_eq!(g.admit(&clean(0)), Ok(()));
        assert_eq!(g.admit(&clean(1)), Ok(()));
        assert_eq!(g.admit(&clean(5)), Ok(()), "gaps are fine, only regressions are not");
        assert_eq!(g.newest_seq(), Some(5));
    }

    #[test]
    fn rejects_nan_and_inf_with_position() {
        let mut g = guard();
        let mut b = clean(0);
        b.x.row_mut(2)[1] = f64::NAN;
        assert_eq!(g.admit(&b), Err(BatchFault::NonFiniteFeature { row: 2, col: 1 }));
        let mut b = clean(0);
        b.x.row_mut(0)[0] = f64::INFINITY;
        assert_eq!(g.admit(&b), Err(BatchFault::NonFiniteFeature { row: 0, col: 0 }));
    }

    #[test]
    fn rejects_width_and_label_faults() {
        let mut g = guard();
        let wide = Batch::labeled(Matrix::filled(2, 4, 0.0), vec![0, 1], 0, DriftPhase::Stable);
        assert!(matches!(g.admit(&wide), Err(BatchFault::WidthMismatch { found: 4, expected: 3 })));

        // Bypass the Batch::labeled assert the way corrupt deserialized
        // input would.
        let ragged = Batch {
            x: Matrix::filled(3, 3, 0.0),
            labels: Some(vec![0, 1]),
            seq: 0,
            phase: DriftPhase::Stable,
        };
        assert!(matches!(g.admit(&ragged), Err(BatchFault::LabelCountMismatch { .. })));

        let hot = Batch::labeled(Matrix::filled(2, 3, 0.0), vec![0, 7], 0, DriftPhase::Stable);
        assert!(matches!(g.admit(&hot), Err(BatchFault::LabelOutOfRange { label: 7, .. })));
    }

    #[test]
    fn rejects_duplicate_and_regressing_seq() {
        let mut g = guard();
        g.admit(&clean(3)).unwrap();
        assert_eq!(g.admit(&clean(3)), Err(BatchFault::DuplicateSeq { seq: 3 }));
        assert_eq!(g.admit(&clean(1)), Err(BatchFault::RegressedSeq { seq: 1, newest: 3 }));
        // A rejection must not advance the watermark.
        assert_eq!(g.admit(&clean(4)), Ok(()));
    }

    #[test]
    fn inspect_does_not_advance_the_watermark() {
        let mut g = guard();
        assert_eq!(g.inspect(&clean(3)), Ok(()));
        assert_eq!(g.newest_seq(), None, "inspection alone must not commit");
        // The same batch can be inspected again (a queue-full re-offer).
        assert_eq!(g.inspect(&clean(3)), Ok(()));
        g.accept(3);
        assert_eq!(g.newest_seq(), Some(3));
        assert_eq!(g.inspect(&clean(3)), Err(BatchFault::DuplicateSeq { seq: 3 }));
    }

    #[test]
    fn unlabeled_batches_are_not_faults() {
        let mut g = guard();
        let b = Batch::unlabeled(Matrix::filled(2, 3, 0.5), 0, DriftPhase::Stable);
        assert_eq!(g.admit(&b), Ok(()));
    }
}
