//! The sharded multi-tenant scale-out runtime.
//!
//! [`ShardedPipeline`] hash-routes keyed batches across N shards, each a
//! full [`AdmittedPipeline`] (supervised worker + admission control +
//! degradation ladder) driving its own [`crate::Learner`]. The shards
//! are tied together by two shared structures:
//!
//! * one [`Telemetry`] handle — counters and events from every shard
//!   land on a single stream, so fleet observability is the same code
//!   path as single-pipeline observability;
//! * one [`SharedKnowledge`] registry — concepts preserved on any shard
//!   are visible to Pattern-C lookup on every other shard (lock-free on
//!   the read path; see [`crate::knowledge`] for the concurrency
//!   contract).
//!
//! Routing is `mix64(key) % n` ([`shard_for`]): a hand-rolled SplitMix64
//! finalizer rather than `std`'s hasher, so the key→shard mapping is
//! stable across Rust releases and platforms — per-tenant placement is
//! part of the reproducibility surface.
//!
//! Each shard's learner runs on its own worker thread, and that one
//! thread is all the compute a shard has: N shards use N cores.

use crate::admission::{
    waited, AdmissionOutcome, AdmissionStats, AdmittedPipeline, AdmittedRun, ShedReason,
};
use crate::error::FreewayError;
use crate::knowledge::SharedKnowledge;
use crate::pipeline::PipelineOutput;
use crate::supervisor::{Doorbell, Fault};
use freeway_streams::keyed::{mix64, KeyedBatch};
use freeway_streams::Batch;
use freeway_telemetry::{Counter, Telemetry, TelemetryEvent};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The shard a key routes to: `mix64(key) % num_shards`.
///
/// # Panics
/// Panics when `num_shards` is zero.
pub fn shard_for(key: u64, num_shards: usize) -> usize {
    assert!(num_shards > 0, "num_shards must be positive");
    (mix64(key) % num_shards as u64) as usize
}

/// Salt separating the failover hash from the primary placement hash, so
/// the keys of a fenced shard spread over the survivors instead of
/// clumping. An arbitrary odd constant — changing it changes failover
/// placement, which is part of the reproducibility surface like
/// [`shard_for`] itself.
const FAILOVER_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Deterministic fallback routing under fencing: the shard `key` is
/// served by given the current fenced set (`fenced[i]` = shard `i` is
/// fenced), or `None` when every shard is fenced.
///
/// Invariants, release-stable like [`shard_for`]:
///
/// * a key whose primary shard ([`shard_for`]) is healthy always routes
///   to that primary — fencing *other* shards never moves it;
/// * a key whose primary is fenced routes to a surviving shard chosen by
///   a salted re-hash over the survivor list, so the same `(key,
///   fenced-set)` always yields the same adoptive shard, and a fenced
///   shard's keys spread across all survivors.
///
/// # Panics
/// Panics when `fenced` is empty.
pub fn failover_shard(key: u64, fenced: &[bool]) -> Option<usize> {
    assert!(!fenced.is_empty(), "fenced set must cover at least one shard");
    let primary = shard_for(key, fenced.len());
    if !fenced[primary] {
        return Some(primary);
    }
    let survivors: Vec<usize> = (0..fenced.len()).filter(|&shard| !fenced[shard]).collect();
    if survivors.is_empty() {
        return None;
    }
    let pick = (mix64(mix64(key) ^ FAILOVER_SALT) % survivors.len() as u64) as usize;
    Some(survivors[pick])
}

/// N admitted pipelines behind one hash router, sharing one telemetry
/// stream and one cross-shard knowledge registry. Construct via
/// [`crate::PipelineBuilder::shards`] + `build_sharded`.
pub struct ShardedPipeline {
    shards: Vec<AdmittedPipeline>,
    shared: SharedKnowledge,
    telemetry: Telemetry,
    /// Round-robin scan position for [`Self::try_recv`] fairness.
    recv_cursor: usize,
    /// Fence state per shard (`true` = restart budget exhausted, keys
    /// rerouted). Monotone: a fence is never lowered within a run.
    fenced: Vec<bool>,
    /// Outputs rescued from an aborted [`Self::barrier_deadline`]; served
    /// before fresh shard output so a timed-out drain loses nothing.
    stash: VecDeque<(usize, PipelineOutput)>,
    /// Exported fence counter (`freeway_shards_fenced_total`).
    fenced_counter: Counter,
}

impl ShardedPipeline {
    pub(crate) fn new(
        shards: Vec<AdmittedPipeline>,
        shared: SharedKnowledge,
        telemetry: Telemetry,
    ) -> Self {
        let fenced = vec![false; shards.len()];
        let fenced_counter = telemetry.counter("freeway_shards_fenced_total");
        Self {
            shards,
            shared,
            telemetry,
            recv_cursor: 0,
            fenced,
            stash: VecDeque::new(),
            fenced_counter,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` is served by under the current fence set
    /// ([`failover_shard`]).
    ///
    /// # Errors
    /// [`FreewayError::WorkerUnavailable`] when every shard is fenced —
    /// terminal: retries cannot succeed within this runtime.
    pub fn route_for_key(&self, key: u64) -> Result<usize, FreewayError> {
        failover_shard(key, &self.fenced).ok_or(FreewayError::WorkerUnavailable)
    }

    /// Indices of fenced shards, ascending.
    pub fn fenced_shards(&self) -> Vec<usize> {
        (0..self.fenced.len()).filter(|&shard| self.fenced[shard]).collect()
    }

    /// Whether `shard` is fenced.
    pub fn is_fenced(&self, shard: usize) -> bool {
        self.fenced[shard]
    }

    /// Raises the fence on one shard: its keys reroute to survivors from
    /// the next feed on, and its [`SharedKnowledge`] sub-list stays
    /// readable so adopting shards warm-start Pattern-C reuse from the
    /// concepts it preserved.
    fn fence_shard(&mut self, shard: usize) {
        if self.fenced[shard] {
            return;
        }
        self.fenced[shard] = true;
        self.fenced_counter.inc();
        self.telemetry
            .emit(TelemetryEvent::ShardFenced { seq: self.telemetry.seq(), shard: shard as u64 });
    }

    /// Absorbs restart exhaustion on `shard` into a fence: `Ok(None)`
    /// once fenced, the call's own result otherwise. `dropped` is the seq
    /// of a batch the failing call consumed; it is counted as shed before
    /// the fence goes up.
    fn fence_if_exhausted<T>(
        &mut self,
        shard: usize,
        dropped: Option<u64>,
        result: Result<T, FreewayError>,
    ) -> Result<Option<T>, FreewayError> {
        match result {
            Ok(value) => Ok(Some(value)),
            Err(FreewayError::RestartsExhausted { .. }) => {
                if let Some(seq) = dropped {
                    self.shards[shard].count_shed(seq, ShedReason::Fenced);
                }
                self.fence_shard(shard);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// The cross-shard knowledge registry.
    pub fn shared(&self) -> &SharedKnowledge {
        &self.shared
    }

    /// The telemetry handle shared by every shard.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Direct access to one shard (tests, drills, per-shard stats). A
    /// fenced shard has no worker: feeding it directly fails with
    /// [`FreewayError::WorkerUnavailable`].
    pub fn shard(&mut self, shard: usize) -> &mut AdmittedPipeline {
        &mut self.shards[shard]
    }

    /// Routes a training/inference batch to its key's serving shard
    /// (primary, or the deterministic failover shard when the primary is
    /// fenced). A shard that exhausts its restart budget *during* this
    /// feed is fenced in place: the triggering batch is reported as
    /// `Shed(Fenced)` (it was handed to a worker that died past the
    /// budget — nothing replays it) and subsequent feeds for its keys
    /// reroute to survivors.
    ///
    /// # Errors
    /// As [`AdmittedPipeline::feed`] on the routed shard, except restart
    /// exhaustion (absorbed into a fence);
    /// [`FreewayError::WorkerUnavailable`] when every shard is fenced.
    pub fn feed(&mut self, batch: KeyedBatch) -> Result<(usize, AdmissionOutcome), FreewayError> {
        let (shard, outcome) = self.route(batch, false, true)?;
        Ok((shard, waited(outcome)?))
    }

    /// Routes a prequential batch to its key's serving shard; fencing
    /// semantics as [`Self::feed`].
    ///
    /// # Errors
    /// As [`Self::feed`].
    pub fn feed_prequential(
        &mut self,
        batch: KeyedBatch,
    ) -> Result<(usize, AdmissionOutcome), FreewayError> {
        let (shard, outcome) = self.route(batch, true, true)?;
        Ok((shard, waited(outcome)?))
    }

    /// Routes a batch to its key's serving shard; fencing semantics as
    /// [`Self::feed`]. With `wait` unset, a batch that
    /// [`crate::AdmissionPolicy::Block`] would wait on comes straight back
    /// as `Err` (see [`AdmittedPipeline::offer`]).
    ///
    /// # Errors
    /// As [`Self::feed`].
    pub(crate) fn route(
        &mut self,
        batch: KeyedBatch,
        prequential: bool,
        wait: bool,
    ) -> Result<(usize, Result<AdmissionOutcome, Batch>), FreewayError> {
        let shard = self.route_for_key(batch.key)?;
        let seq = batch.batch.seq;
        let result = self.shards[shard].offer(batch.batch, prequential, wait);
        let outcome = self.fence_if_exhausted(shard, Some(seq), result)?;
        Ok((shard, outcome.unwrap_or(Ok(AdmissionOutcome::Shed(ShedReason::Fenced)))))
    }

    /// Receives the next ready output from any shard without blocking,
    /// scanning round-robin from the last served shard so no shard can
    /// starve the drain. Outputs a fenced shard's worker produced before
    /// dying are still delivered here; a shard discovered exhausted
    /// during the scan is fenced rather than erroring the drain.
    ///
    /// # Errors
    /// As [`AdmittedPipeline::try_recv`] on the failing shard (restart
    /// exhaustion excepted).
    pub fn try_recv(&mut self) -> Result<Option<(usize, PipelineOutput)>, FreewayError> {
        if let Some(entry) = self.stash.pop_front() {
            return Ok(Some(entry));
        }
        let n = self.shards.len();
        for step in 0..n {
            let shard = (self.recv_cursor + step) % n;
            let result = self.shards[shard].try_recv();
            if let Some(out) = self.fence_if_exhausted(shard, None, result)?.flatten() {
                self.recv_cursor = (shard + 1) % n;
                return Ok(Some((shard, out)));
            }
        }
        Ok(None)
    }

    /// One non-blocking drain pass over shard `i`: pulls every ready
    /// output (each receive polls the shard's stall watchdog), fences on
    /// exhaustion. Returns whether the shard is quiescent: nothing in
    /// flight, replayed answers included (a fenced shard is quiescent
    /// once its surviving outputs are drained).
    fn drain_shard_step(
        &mut self,
        i: usize,
        outputs: &mut Vec<(usize, PipelineOutput)>,
    ) -> Result<bool, FreewayError> {
        loop {
            let result = self.shards[i].try_recv();
            match self.fence_if_exhausted(i, None, result)? {
                Some(Some(out)) => outputs.push((i, out)),
                Some(None) => break,
                // Keep draining: what the dead worker produced is still
                // queued on the fenced shard.
                None => {}
            }
        }
        Ok(self.fenced[i] || self.shards[i].supervisor().in_flight() == 0)
    }

    /// Drains every shard to quiescence — zero batches in flight — and
    /// returns all outputs sorted by `(seq, shard)`.
    ///
    /// This is the deterministic phase boundary: after a barrier the
    /// shared registry holds every preservation the fed batches could
    /// trigger, regardless of worker scheduling, which is what lets
    /// drills and paper tables stay byte-reproducible on a live
    /// multi-threaded runtime.
    ///
    /// With a stall deadline configured every receive of the drain polls
    /// the watchdog: a shard wedged mid-drain is forcibly recovered (or
    /// fenced on budget exhaustion) instead of spinning this loop
    /// forever. Without one, a truly wedged shard hangs this call — use
    /// [`Self::barrier_deadline`] when shutdown must be bounded.
    ///
    /// # Errors
    /// As [`AdmittedPipeline::try_recv`] (restart exhaustion is absorbed
    /// into a fence).
    pub fn barrier(&mut self) -> Result<Vec<(usize, PipelineOutput)>, FreewayError> {
        self.drain(None)
    }

    /// [`Self::barrier`] with a wall-clock budget: shards that have not
    /// reached quiescence when it elapses are reported in a typed
    /// [`FreewayError::DrainTimeout`] listing their indices, so shutdown
    /// can never hang on a stalled shard. Outputs already drained are
    /// stashed and re-served by the next `try_recv`/`barrier` call —
    /// a timed-out drain loses nothing.
    ///
    /// # Errors
    /// [`FreewayError::DrainTimeout`] naming the unresponsive shards;
    /// otherwise as [`Self::barrier`].
    pub fn barrier_deadline(
        &mut self,
        budget: Duration,
    ) -> Result<Vec<(usize, PipelineOutput)>, FreewayError> {
        self.drain(Some(budget))
    }

    /// The one drain loop behind [`Self::barrier`] (no `budget`) and
    /// [`Self::barrier_deadline`]: sweeps the shards that are not yet
    /// quiescent until none is left or the budget runs out.
    pub(crate) fn drain(
        &mut self,
        budget: Option<Duration>,
    ) -> Result<Vec<(usize, PipelineOutput)>, FreewayError> {
        let deadline = budget.map(|budget| Instant::now() + budget);
        let mut outputs: Vec<(usize, PipelineOutput)> = self.stash.drain(..).collect();
        let mut quiescent = vec![false; self.shards.len()];
        loop {
            for (i, done) in quiescent.iter_mut().enumerate() {
                if !*done {
                    *done = self.drain_shard_step(i, &mut outputs)?;
                }
            }
            if quiescent.iter().all(|&done| done) {
                break;
            }
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                self.stash.extend(outputs);
                let shards = (0..quiescent.len()).filter(|&i| !quiescent[i]).collect();
                return Err(FreewayError::DrainTimeout { shards });
            }
            std::thread::yield_now();
        }
        outputs.sort_by_key(|(shard, out)| (out.seq, *shard));
        Ok(outputs)
    }

    /// The smallest stall deadline over all shards (`None` when no shard
    /// runs a watchdog).
    pub(crate) fn min_stall_deadline(&mut self) -> Option<Duration> {
        self.shards.iter_mut().filter_map(|shard| shard.supervisor().stall_deadline()).min()
    }

    /// Highest batch seq any shard's startup recovery restored from a
    /// previous process's journal (`None` when nothing was recovered).
    /// A caller numbering batches for this runtime continues above it.
    pub(crate) fn recovered_seq(&mut self) -> Option<u64> {
        self.shards.iter_mut().filter_map(|shard| shard.supervisor().recovered_seq()).max()
    }

    /// The bell `shard`'s workers, including future respawns, ring after
    /// each output they send and when they exit.
    pub(crate) fn doorbell(&mut self, shard: usize) -> &Doorbell {
        self.shards[shard].supervisor().doorbell()
    }

    /// Aggregated admission counters across all shards (sums).
    pub fn stats(&self) -> AdmissionStats {
        aggregate_stats(self.shards.iter().map(AdmittedPipeline::stats))
    }

    /// Injects `fault` into one shard's worker
    /// ([`crate::SupervisedPipeline::inject`]) while the other shards keep
    /// serving. Restart exhaustion discovered while delivering it fences
    /// the shard instead of erroring; a fenced shard has no worker left to
    /// fault, so it ignores the injection.
    ///
    /// # Errors
    /// [`FreewayError::InvalidConfig`] naming the shard and the shard
    /// count when `shard` is out of range; otherwise as
    /// [`crate::SupervisedPipeline::inject`], restart exhaustion excepted.
    pub fn inject(&mut self, shard: usize, fault: Fault) -> Result<(), FreewayError> {
        let Some(&fenced) = self.fenced.get(shard) else {
            return Err(FreewayError::InvalidConfig(format!(
                "fault aimed at shard {shard} of a {}-shard runtime",
                self.shards.len()
            )));
        };
        if fenced {
            return Ok(());
        }
        let result = self.shards[shard].supervisor().inject(fault);
        self.fence_if_exhausted(shard, None, result)?;
        Ok(())
    }

    /// Finishes every shard and hands back the per-shard runs plus the
    /// shared registry.
    ///
    /// # Errors
    /// As [`AdmittedPipeline::finish`]; the first failing shard aborts
    /// the collection.
    pub fn finish(self) -> Result<ShardedRun, FreewayError> {
        let mut runs = Vec::with_capacity(self.shards.len());
        for shard in self.shards {
            runs.push(shard.finish()?);
        }
        Ok(ShardedRun { shards: runs, shared: self.shared })
    }
}

/// Everything a finished sharded run hands back.
pub struct ShardedRun {
    /// Per-shard admitted runs, indexed by shard.
    pub shards: Vec<AdmittedRun>,
    /// The cross-shard knowledge registry (final state).
    pub shared: SharedKnowledge,
}

impl ShardedRun {
    /// Aggregated admission counters across all shards.
    pub fn admission(&self) -> AdmissionStats {
        aggregate_stats(self.shards.iter().map(|run| run.admission))
    }

    /// Total cross-shard knowledge hits across all shard learners.
    pub fn shared_hits(&self) -> u64 {
        self.shards.iter().map(|run| run.learner().shared_hits()).sum()
    }
}

fn aggregate_stats(stats: impl Iterator<Item = AdmissionStats>) -> AdmissionStats {
    stats.fold(AdmissionStats::default(), |mut acc, s| {
        acc.offered += s.offered;
        acc.admitted += s.admitted;
        acc.shed += s.shed;
        acc.quarantined += s.quarantined;
        acc.degradation_transitions += s.degradation_transitions;
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_for_is_stable_and_covers_all_shards() {
        // Pinned routing: key→shard placement is part of the
        // reproducibility surface.
        assert_eq!(shard_for(0, 4), (0xe220a8397b1dcdaf_u64 % 4) as usize);
        let mut seen = [false; 4];
        for key in 0..64u64 {
            seen[shard_for(key, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 keys cover 4 shards: {seen:?}");
    }

    #[test]
    fn aggregate_sums_counters() {
        let a = AdmissionStats {
            offered: 3,
            admitted: 2,
            shed: 1,
            quarantined: 0,
            degradation_transitions: 1,
        };
        let b = AdmissionStats {
            offered: 4,
            admitted: 4,
            shed: 0,
            quarantined: 1,
            degradation_transitions: 0,
        };
        let total = aggregate_stats([a, b].into_iter());
        assert_eq!(total.offered, 7);
        assert_eq!(total.admitted, 6);
        assert_eq!(total.shed, 1);
        assert_eq!(total.quarantined, 1);
        assert_eq!(total.degradation_transitions, 1);
    }
}
