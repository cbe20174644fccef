//! The graceful-degradation ladder (overload protection).
//!
//! Under sustained overload a streaming learner must not stall ingestion
//! or grow latency without bound; the paper's own strategy taxonomy
//! suggests the alternative — when the system cannot afford the full
//! reaction, run a cheaper one. The ladder makes that explicit with four
//! service levels, ordered from full fidelity to none:
//!
//! 1. [`DegradationLevel::Full`] — full strategy dispatch, every
//!    granularity level trains;
//! 2. [`DegradationLevel::ShortOnly`] — multi-granularity retrain is
//!    skipped: only the short model trains, windows stop accumulating
//!    (the cheapest adaptation that still tracks the stream);
//! 3. [`DegradationLevel::InferenceOnly`] — training freezes entirely;
//!    the frozen ensemble keeps serving predictions;
//! 4. [`DegradationLevel::Shed`] — even inference is load we cannot
//!    afford; the admission controller drops incoming batches.
//!
//! [`DegradationLadder::observe`] drives the level from a normalized
//! pressure signal (the worker queue's occupancy, computed by the
//! admission controller) with *hysteresis*: a level change needs
//! two consecutive observations above the downgrade threshold of 0.85
//! (or four below the upgrade threshold of 0.35), and the two thresholds
//! are separated, so an oscillating load does not flap the ladder. Every
//! transition is emitted as [`TelemetryEvent::DegradationChanged`].
//!
//! The current level is published through a [`DegradationHandle`] — an
//! atomic shared with the [`crate::learner::Learner`] on the worker
//! thread, read with one relaxed load per batch (no locks, no
//! allocation, so the zero-alloc hot-path gate is untouched).

use freeway_telemetry::{Telemetry, TelemetryEvent};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Service level of the learner under overload, best first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum DegradationLevel {
    /// Full strategy dispatch; every granularity level trains.
    Full,
    /// Only the short-granularity model trains; long windows idle.
    ShortOnly,
    /// Training frozen; the ensemble serves inference only.
    InferenceOnly,
    /// Incoming batches are shed at admission.
    Shed,
}

impl DegradationLevel {
    /// Every level, best first (the ladder steps through this order).
    pub const ALL: [DegradationLevel; 4] = [
        DegradationLevel::Full,
        DegradationLevel::ShortOnly,
        DegradationLevel::InferenceOnly,
        DegradationLevel::Shed,
    ];

    /// Static tag used in telemetry events and experiment output.
    pub fn tag(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::ShortOnly => "short-only",
            Self::InferenceOnly => "inference-only",
            Self::Shed => "shed",
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Self::Full => 0,
            Self::ShortOnly => 1,
            Self::InferenceOnly => 2,
            Self::Shed => 3,
        }
    }

    fn from_u8(value: u8) -> Self {
        match value {
            0 => Self::Full,
            1 => Self::ShortOnly,
            2 => Self::InferenceOnly,
            _ => Self::Shed,
        }
    }

    /// One step worse (saturates at [`Self::Shed`]).
    pub fn worse(self) -> Self {
        Self::from_u8((self.as_u8() + 1).min(3))
    }

    /// One step better (saturates at [`Self::Full`]).
    pub fn better(self) -> Self {
        Self::from_u8(self.as_u8().saturating_sub(1))
    }
}

/// Shared, lock-free view of the current [`DegradationLevel`].
///
/// The admission controller (producer side) writes it; the learner
/// (worker side) reads it once per batch. Cloning shares the cell.
#[derive(Clone, Debug)]
pub struct DegradationHandle {
    level: Arc<AtomicU8>,
}

impl Default for DegradationHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl DegradationHandle {
    /// A handle starting at [`DegradationLevel::Full`].
    pub fn new() -> Self {
        Self { level: Arc::new(AtomicU8::new(0)) }
    }

    /// Current level (one relaxed load).
    #[inline]
    pub fn level(&self) -> DegradationLevel {
        DegradationLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Publishes a new level (one relaxed store).
    #[inline]
    pub fn set(&self, level: DegradationLevel) {
        self.level.store(level.as_u8(), Ordering::Relaxed);
    }
}

/// Pressure above which the ladder counts toward a downgrade. Pressure
/// is normalized occupancy: 1.0 means the worker queue is full.
const DOWNGRADE_ABOVE: f64 = 0.85;
/// Pressure below which the ladder counts toward an upgrade; the gap up
/// to [`DOWNGRADE_ABOVE`] is the hysteresis band.
const UPGRADE_BELOW: f64 = 0.35;
/// Consecutive over-threshold observations required to step down.
const DWELL_DOWN: u32 = 2;
/// Consecutive under-threshold observations required to step up. Larger
/// than [`DWELL_DOWN`]: reacting to overload must be fast, trusting a
/// recovery should be slow.
const DWELL_UP: u32 = 4;

/// The stateful ladder: pressure observations in, level transitions out.
#[derive(Debug)]
pub struct DegradationLadder {
    handle: DegradationHandle,
    telemetry: Telemetry,
    above_streak: u32,
    below_streak: u32,
    transitions: u64,
}

impl DegradationLadder {
    /// Creates a ladder publishing into `handle` and announcing
    /// transitions on `telemetry`.
    pub fn new(handle: DegradationHandle, telemetry: Telemetry) -> Self {
        Self { handle, telemetry, above_streak: 0, below_streak: 0, transitions: 0 }
    }

    /// The shared level cell (clone to hand to a learner).
    pub fn handle(&self) -> &DegradationHandle {
        &self.handle
    }

    /// Current level.
    pub fn level(&self) -> DegradationLevel {
        self.handle.level()
    }

    /// Total transitions performed (both directions).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Feeds one pressure observation (normalized occupancy, 1.0 = the
    /// worker queue is full) stamped with the batch sequence number
    /// it was measured at. Steps the ladder at most one level per call,
    /// after its dwell, and emits [`TelemetryEvent::DegradationChanged`]
    /// on every transition. Returns the level in force after the
    /// observation.
    pub fn observe(&mut self, seq: u64, pressure: f64) -> DegradationLevel {
        let level = self.handle.level();
        if pressure > DOWNGRADE_ABOVE {
            self.below_streak = 0;
            self.above_streak += 1;
            if self.above_streak >= DWELL_DOWN && level != DegradationLevel::Shed {
                self.above_streak = 0;
                return self.transition(seq, level, level.worse());
            }
        } else if pressure < UPGRADE_BELOW {
            self.above_streak = 0;
            self.below_streak += 1;
            if self.below_streak >= DWELL_UP && level != DegradationLevel::Full {
                self.below_streak = 0;
                return self.transition(seq, level, level.better());
            }
        } else {
            // Inside the hysteresis band: hold the level, reset both
            // streaks so a boundary-straddling load cannot creep over a
            // dwell count one observation at a time.
            self.above_streak = 0;
            self.below_streak = 0;
        }
        level
    }

    fn transition(
        &mut self,
        seq: u64,
        from: DegradationLevel,
        to: DegradationLevel,
    ) -> DegradationLevel {
        self.handle.set(to);
        self.transitions += 1;
        self.telemetry.emit(TelemetryEvent::DegradationChanged {
            seq,
            from: from.tag(),
            to: to.tag(),
        });
        to
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeway_telemetry::TelemetrySink;

    fn ladder() -> DegradationLadder {
        DegradationLadder::new(DegradationHandle::new(), Telemetry::disabled())
    }

    #[test]
    fn levels_step_in_order_and_saturate() {
        assert_eq!(DegradationLevel::Full.worse(), DegradationLevel::ShortOnly);
        assert_eq!(DegradationLevel::ShortOnly.worse(), DegradationLevel::InferenceOnly);
        assert_eq!(DegradationLevel::InferenceOnly.worse(), DegradationLevel::Shed);
        assert_eq!(DegradationLevel::Shed.worse(), DegradationLevel::Shed);
        assert_eq!(DegradationLevel::Full.better(), DegradationLevel::Full);
        assert_eq!(DegradationLevel::Shed.better(), DegradationLevel::InferenceOnly);
    }

    #[test]
    fn downgrade_needs_the_dwell() {
        let mut l = ladder();
        assert_eq!(l.observe(0, 0.95), DegradationLevel::Full, "one spike is not enough");
        assert_eq!(l.observe(1, 0.95), DegradationLevel::ShortOnly, "dwell_down = 2 reached");
        assert_eq!(l.transitions(), 1);
    }

    #[test]
    fn upgrade_needs_the_longer_dwell() {
        let mut l = ladder();
        l.observe(0, 0.95);
        l.observe(1, 0.95);
        assert_eq!(l.level(), DegradationLevel::ShortOnly);
        for seq in 2..5 {
            assert_eq!(l.observe(seq, 0.1), DegradationLevel::ShortOnly, "dwell_up = 4 pending");
        }
        assert_eq!(l.observe(5, 0.1), DegradationLevel::Full);
    }

    #[test]
    fn hysteresis_band_holds_and_resets_streaks() {
        let mut l = ladder();
        l.observe(0, 0.95);
        // A band observation between spikes must reset the streak: the
        // next spike starts the dwell over instead of completing it.
        l.observe(1, 0.5);
        assert_eq!(l.observe(2, 0.95), DegradationLevel::Full);
        assert_eq!(l.observe(3, 0.95), DegradationLevel::ShortOnly);
    }

    #[test]
    fn sustained_overload_walks_all_the_way_to_shed() {
        let mut l = ladder();
        for seq in 0..20 {
            l.observe(seq, 1.0);
        }
        assert_eq!(l.level(), DegradationLevel::Shed);
        for seq in 20..40 {
            l.observe(seq, 1.0);
        }
        assert_eq!(l.level(), DegradationLevel::Shed, "saturates, never wraps");
    }

    #[test]
    fn transitions_are_emitted_with_level_tags() {
        let (telemetry, sink) = Telemetry::recording();
        let mut l = DegradationLadder::new(DegradationHandle::new(), telemetry);
        l.observe(0, 0.9);
        l.observe(1, 0.9);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        match events[0] {
            TelemetryEvent::DegradationChanged { seq, from, to } => {
                assert_eq!(seq, 1);
                assert_eq!(from, "full");
                assert_eq!(to, "short-only");
            }
            other => panic!("expected DegradationChanged, got {other:?}"),
        }
    }

    #[test]
    fn square_wave_pressure_yields_exactly_one_downgrade_and_one_upgrade() {
        let (telemetry, sink) = Telemetry::recording();
        let mut l = DegradationLadder::new(DegradationHandle::new(), telemetry);
        // One square wave — three observations of overload, seven of calm
        // — with a single-observation spike after recovery that the
        // hysteresis dwell must swallow. The timeline has four threshold
        // crossings but the ladder may move exactly twice.
        let wave: &[f64] = &[0.95, 0.95, 0.95, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.95, 0.1];
        for (seq, &pressure) in wave.iter().enumerate() {
            l.observe(seq as u64, pressure);
        }
        assert_eq!(l.level(), DegradationLevel::Full, "the wave ends recovered");
        assert_eq!(l.transitions(), 2);
        let events = sink.events();
        assert_eq!(events.len(), 2, "exactly one downgrade and one upgrade: {events:?}");
        assert!(matches!(
            events[0],
            TelemetryEvent::DegradationChanged { seq: 1, from: "full", to: "short-only" }
        ));
        assert!(matches!(
            events[1],
            TelemetryEvent::DegradationChanged { seq: 6, from: "short-only", to: "full" }
        ));
    }

    #[test]
    fn handle_is_shared_across_clones() {
        let h = DegradationHandle::new();
        let h2 = h.clone();
        h.set(DegradationLevel::InferenceOnly);
        assert_eq!(h2.level(), DegradationLevel::InferenceOnly);
    }
}
