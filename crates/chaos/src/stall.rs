//! Stall chaos: hung and livelocked workers, and the machinery to assert
//! the liveness watchdog catches them without killing slow-but-healthy
//! ones.
//!
//! Two harnesses, mirroring the [`crate::overload`] split:
//!
//! * [`run_stall_prequential`] drives a real
//!   [`SupervisedPipeline`](freeway_core::SupervisedPipeline)
//!   (worker thread and all) while injecting scheduled stalls — sleeps or
//!   livelocks — as [`Fault::Stall`], and pumps the watchdog until
//!   each stall is detected and force-recovered. Wall-clock only: it
//!   proves the detect → abandon → checkpoint-restore → replay path on
//!   real threads.
//! * [`simulate_stall`] replays the *same* [`WatchdogState`] decision
//!   logic the supervisor uses against a virtual-time worker model. No
//!   threads, no clocks — byte-identical output for a given config, which
//!   is what the committed `results/` artifacts and CI gates need, and
//!   the natural host for the false-positive property: a worker that
//!   keeps progressing, however slowly polled, is never declared stalled.

use std::time::Duration;

use freeway_core::liveness::WatchdogState;
use freeway_core::supervisor::SupervisorConfig;
use freeway_core::{Fault, FreewayError, Learner};
use freeway_streams::StreamGenerator;
use serde::Serialize;

use crate::{run_faulted, ChaosRunReport};

/// One scheduled worker stall.
#[derive(Clone, Copy, Debug)]
pub struct StallSpec {
    /// Batch index immediately before which the stall is injected; the
    /// batch itself is fed *behind* the stall so it is deterministically
    /// in flight when the watchdog fires (lost without a journal,
    /// replayed with one — exactly the panic-drill contract).
    pub at: usize,
    /// How long the worker hangs if left alone. Make this comfortably
    /// longer than the configured stall deadline, or the stall ends
    /// before the watchdog can prove anything.
    pub duration: Duration,
    /// `true` spins (livelock, burns a core); `false` sleeps (hang).
    /// The watchdog must not care — progress is what it watches, and
    /// neither makes any.
    pub livelock: bool,
}

/// Drives a [`SupervisedPipeline`](freeway_core::SupervisedPipeline) over
/// `batches` batches of the stream, injecting a worker stall immediately
/// before feeding each index listed in `stalls`, pumping
/// [`check_liveness`](freeway_core::SupervisedPipeline::check_liveness)
/// until the watchdog detects and force-recovers each one, and scoring
/// every output against the labels the stream produced.
///
/// # Errors
/// [`FreewayError::InvalidConfig`] when stalls are scheduled without a
/// [`SupervisorConfig::stall_deadline`] (the watchdog would never fire
/// and the drill would wait forever); otherwise propagates supervisor
/// errors — notably [`FreewayError::RestartsExhausted`] when stalls
/// outnumber the restart budget.
pub fn run_stall_prequential(
    stream: &mut dyn StreamGenerator,
    learner: Learner,
    config: SupervisorConfig,
    batches: usize,
    batch_size: usize,
    stalls: &[StallSpec],
) -> Result<ChaosRunReport, FreewayError> {
    if !stalls.is_empty() && config.stall_deadline.is_none() {
        return Err(FreewayError::InvalidConfig(
            "stall drill requires a stall deadline on the supervisor".to_owned(),
        ));
    }
    run_faulted(stream, learner, config, batches, batch_size, |i| {
        let spec = stalls.iter().find(|s| s.at == i)?;
        Some(Fault::Stall { duration: spec.duration, livelock: spec.livelock })
    })
}

/// Knobs for the deterministic virtual-time stall simulation.
#[derive(Clone, Debug)]
pub struct SimStallConfig {
    /// Virtual ticks to run.
    pub ticks: u64,
    /// One batch arrives every this many ticks (0 disables arrivals).
    pub arrival_every: u64,
    /// Ticks of work the modeled worker spends per batch — a *slow*
    /// worker has a large value here yet still makes progress, which is
    /// exactly what the watchdog must tolerate.
    pub service_ticks: u64,
    /// The watchdog is polled every this many ticks (the supervisor's
    /// pump cadence). Sparse polling must cost detection latency, never
    /// correctness.
    pub poll_every: u64,
    /// Watchdog deadline in virtual ticks ([`WatchdogState::new`]).
    pub deadline_ticks: u64,
    /// Scheduled stalls as `(start_tick, duration_ticks)`: the worker
    /// makes zero progress inside a window until the watchdog detects it
    /// (forced recovery ends the stall immediately).
    pub stalls: Vec<(u64, u64)>,
}

/// One watchdog firing in virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimDetection {
    /// Virtual tick at which the watchdog declared the stall.
    pub tick: u64,
    /// Index into [`SimStallConfig::stalls`] of the window it caught, or
    /// `None` for a false positive (no stall was active).
    pub stall: Option<usize>,
}

/// Outcome of one deterministic stall simulation.
#[derive(Clone, Debug)]
pub struct SimStallReport {
    /// Batches the modeled worker completed.
    pub processed: u64,
    /// Every watchdog firing, in order.
    pub detections: Vec<SimDetection>,
    /// Firings with no active stall — must be zero for any progressing
    /// worker; this is the field the false-positive proptest pins.
    pub false_positives: u64,
    /// Stall windows ended by a detection (true positives).
    pub recovered: u64,
    /// Worst detection latency observed, in ticks from stall start
    /// (0 when nothing was detected).
    pub max_detection_latency: u64,
}

impl SimStallReport {
    /// Renders the report as deterministic pretty-printed JSON: same
    /// config, same bytes — suitable for committed artifacts and CI
    /// gates.
    pub fn deterministic_json(&self) -> String {
        #[derive(Serialize)]
        struct Detection {
            tick: u64,
            stall: i64,
        }
        #[derive(Serialize)]
        struct Report {
            processed: u64,
            detections: Vec<Detection>,
            false_positives: u64,
            recovered: u64,
            max_detection_latency: u64,
        }
        let report = Report {
            processed: self.processed,
            detections: self
                .detections
                .iter()
                .map(|d| Detection {
                    tick: d.tick,
                    stall: d.stall.map_or(-1, |s| i64::try_from(s).unwrap_or(i64::MAX)),
                })
                .collect(),
            false_positives: self.false_positives,
            recovered: self.recovered,
            max_detection_latency: self.max_detection_latency,
        };
        serde_json::to_string_pretty(&report).unwrap_or_else(|_| String::from("{}"))
    }
}

/// Replays the supervisor's [`WatchdogState`] against a virtual-time
/// worker model: arrivals queue pending work, the worker spends
/// `service_ticks` per batch (beating its heartbeat on every
/// completion, exactly like the real worker), stall windows freeze all
/// progress, and the watchdog is polled on the configured cadence with
/// the same `(now, epoch, pending)` triple the supervisor feeds it.
///
/// A detection inside a stall window ends that window at once (modeling
/// forced recovery); a detection outside any window is counted as a
/// false positive. No wall clock, no threads: the outcome is a pure
/// function of the config.
pub fn simulate_stall(config: &SimStallConfig) -> SimStallReport {
    let mut watchdog = WatchdogState::new(config.deadline_ticks);
    let mut report = SimStallReport {
        processed: 0,
        detections: Vec::new(),
        false_positives: 0,
        recovered: 0,
        max_detection_latency: 0,
    };
    let mut pending = 0u64;
    let mut epoch = 0u64;
    let mut service_progress = 0u64;
    let mut recovered = vec![false; config.stalls.len()];

    let active_stall = |tick: u64, recovered: &[bool]| -> Option<usize> {
        config
            .stalls
            .iter()
            .enumerate()
            .find(|(i, (start, dur))| {
                !recovered[*i] && tick >= *start && tick < start.saturating_add(*dur)
            })
            .map(|(i, _)| i)
    };

    for tick in 0..config.ticks {
        if config.arrival_every > 0 && tick % config.arrival_every == 0 {
            pending += 1;
        }
        let stalled = active_stall(tick, &recovered);
        if stalled.is_none() && pending > 0 {
            service_progress += 1;
            if service_progress >= config.service_ticks.max(1) {
                service_progress = 0;
                pending -= 1;
                report.processed += 1;
                epoch += 1;
            }
        }
        if config.poll_every > 0 && tick % config.poll_every == 0 {
            // The same triple the supervisor pump hands the real
            // watchdog: monotonic now, heartbeat epoch, pending work.
            if watchdog.observe(tick, epoch, pending) {
                report.detections.push(SimDetection { tick, stall: stalled });
                match stalled {
                    Some(i) => {
                        recovered[i] = true;
                        report.recovered += 1;
                        let latency = tick.saturating_sub(config.stalls[i].0);
                        report.max_detection_latency = report.max_detection_latency.max(latency);
                        // Forced recovery respawns the worker with a
                        // fresh heartbeat and a fresh watchdog.
                        watchdog = WatchdogState::new(config.deadline_ticks);
                        service_progress = 0;
                    }
                    None => report.false_positives += 1,
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> SimStallConfig {
        SimStallConfig {
            ticks: 2_000,
            arrival_every: 10,
            service_ticks: 4,
            poll_every: 5,
            deadline_ticks: 100,
            stalls: Vec::new(),
        }
    }

    #[test]
    fn progressing_worker_is_never_declared_stalled() {
        let report = simulate_stall(&base_config());
        assert_eq!(report.false_positives, 0);
        assert!(report.detections.is_empty());
        assert!(report.processed > 0);
    }

    #[test]
    fn slow_worker_with_backlog_is_still_not_stalled() {
        // Service slower than arrivals: pending grows without bound, yet
        // every completion is progress — the watchdog must stay quiet.
        let config = SimStallConfig { arrival_every: 5, service_ticks: 40, ..base_config() };
        let report = simulate_stall(&config);
        assert_eq!(report.false_positives, 0, "slow-but-progressing must never be killed");
        assert!(report.processed > 0);
    }

    #[test]
    fn stall_is_detected_within_deadline_plus_poll_jitter() {
        let config = SimStallConfig { stalls: vec![(500, 100_000)], ..base_config() };
        let report = simulate_stall(&config);
        assert_eq!(report.recovered, 1, "{report:?}");
        assert_eq!(report.false_positives, 0);
        let bound = config.deadline_ticks + 2 * config.poll_every + config.service_ticks;
        assert!(
            report.max_detection_latency <= bound,
            "detected after {} ticks, bound {bound}",
            report.max_detection_latency
        );
    }

    #[test]
    fn short_stall_under_the_deadline_goes_unpunished() {
        // A pause shorter than the deadline is indistinguishable from a
        // slow step; the watchdog must let it pass.
        let config = SimStallConfig { stalls: vec![(500, 30)], ..base_config() };
        let report = simulate_stall(&config);
        assert_eq!(report.recovered, 0);
        assert_eq!(report.false_positives, 0);
    }

    #[test]
    fn idle_worker_is_never_stalled_no_matter_how_long() {
        let config = SimStallConfig { arrival_every: 0, ticks: 100_000, ..base_config() };
        let report = simulate_stall(&config);
        assert!(report.detections.is_empty(), "no pending work, no stall");
    }

    #[test]
    fn simulation_is_deterministic() {
        let config = SimStallConfig { stalls: vec![(300, 500), (1_200, 400)], ..base_config() };
        let a = simulate_stall(&config).deterministic_json();
        let b = simulate_stall(&config).deterministic_json();
        assert_eq!(a, b);
        assert!(a.contains("\"recovered\": 2"), "{a}");
    }
}
