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
//! Thread budget: the kernel worker pool is process-wide and shared by
//! all shards, so shard workers and pool threads draw on one core
//! budget. [`crate::PipelineBuilder::build_sharded`] validates the split
//! (serial kernels per shard by default); see
//! [`crate::FreewayConfig::num_threads`] for the policy.

use crate::admission::{
    AdmissionOutcome, AdmissionStats, AdmittedPipeline, AdmittedRun, ShedReason,
};
use crate::error::FreewayError;
use crate::knowledge::SharedKnowledge;
use crate::pipeline::PipelineOutput;
use freeway_streams::keyed::{mix64, KeyedBatch};
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

    /// The shard `key` routes to when every shard is healthy (primary
    /// placement; fencing-blind). See [`Self::route_for_key`] for the
    /// fence-aware route.
    pub fn shard_for_key(&self, key: u64) -> usize {
        shard_for(key, self.shards.len())
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

    /// Raises the fence on one shard: its backlog is shed as
    /// [`ShedReason::Fenced`], its keys reroute to survivors from the
    /// next feed on, and its [`SharedKnowledge`] sub-list stays readable
    /// so adopting shards warm-start Pattern-C reuse from the concepts it
    /// preserved.
    fn fence_shard(&mut self, shard: usize) {
        if self.fenced[shard] {
            return;
        }
        self.fenced[shard] = true;
        self.shards[shard].fence();
        self.fenced_counter.inc();
        self.telemetry
            .emit(TelemetryEvent::ShardFenced { seq: self.telemetry.seq(), shard: shard as u64 });
    }

    /// The cross-shard knowledge registry.
    pub fn shared(&self) -> &SharedKnowledge {
        &self.shared
    }

    /// The telemetry handle shared by every shard.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Direct access to one shard (tests, drills, per-shard stats).
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
        let shard = self.route_for_key(batch.key)?;
        let seq = batch.batch.seq;
        match self.shards[shard].feed(batch.batch) {
            Ok(outcome) => Ok((shard, outcome)),
            Err(FreewayError::RestartsExhausted { .. }) => {
                self.shards[shard].note_fenced_drop(seq);
                self.fence_shard(shard);
                Ok((shard, AdmissionOutcome::Shed(ShedReason::Fenced)))
            }
            Err(e) => Err(e),
        }
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
        let shard = self.route_for_key(batch.key)?;
        let seq = batch.batch.seq;
        match self.shards[shard].feed_prequential(batch.batch) {
            Ok(outcome) => Ok((shard, outcome)),
            Err(FreewayError::RestartsExhausted { .. }) => {
                self.shards[shard].note_fenced_drop(seq);
                self.fence_shard(shard);
                Ok((shard, AdmissionOutcome::Shed(ShedReason::Fenced)))
            }
            Err(e) => Err(e),
        }
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
            match self.shards[shard].try_recv() {
                Ok(Some(out)) => {
                    self.recv_cursor = (shard + 1) % n;
                    return Ok(Some((shard, out)));
                }
                Ok(None) => {}
                Err(FreewayError::RestartsExhausted { .. }) => self.fence_shard(shard),
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Polls every unfenced shard's stall watchdog
    /// ([`AdmittedPipeline::check_liveness`]); a shard whose forced
    /// recovery exhausts its restart budget is fenced. Returns the number
    /// of stalled workers recovered this call. A no-op (always `Ok(0)`)
    /// unless a stall deadline is configured.
    ///
    /// # Errors
    /// Non-exhaustion recovery failures, as
    /// [`AdmittedPipeline::check_liveness`].
    pub fn check_liveness(&mut self) -> Result<usize, FreewayError> {
        let mut recovered = 0;
        for shard in 0..self.shards.len() {
            if self.fenced[shard] {
                continue;
            }
            match self.shards[shard].check_liveness() {
                Ok(true) => recovered += 1,
                Ok(false) => {}
                Err(FreewayError::RestartsExhausted { .. }) => self.fence_shard(shard),
                Err(e) => return Err(e),
            }
        }
        Ok(recovered)
    }

    /// One non-blocking drain pass over shard `i`: polls the stall
    /// watchdog, pulls every ready output, fences on exhaustion. Returns
    /// whether the shard is quiescent (a fenced shard is quiescent once
    /// its surviving outputs are drained).
    ///
    /// The watchdog goes first because its sweep absorbs worker output
    /// into the supervisor's pending queue and stops counting it in
    /// flight; draining after it hands that output over in this pass
    /// instead of leaving it behind a shard that already looks quiescent.
    fn drain_shard_step(
        &mut self,
        i: usize,
        outputs: &mut Vec<(usize, PipelineOutput)>,
    ) -> Result<bool, FreewayError> {
        if !self.fenced[i] {
            match self.shards[i].check_liveness() {
                Ok(_) => {}
                Err(FreewayError::RestartsExhausted { .. }) => self.fence_shard(i),
                Err(e) => return Err(e),
            }
        }
        loop {
            match self.shards[i].try_recv() {
                Ok(Some(out)) => outputs.push((i, out)),
                Ok(None) => break,
                // Keep draining: what the dead worker produced is still
                // queued on the fenced shard.
                Err(FreewayError::RestartsExhausted { .. }) => self.fence_shard(i),
                Err(e) => return Err(e),
            }
        }
        Ok(self.fenced[i]
            || (self.shards[i].backlog_len() == 0 && self.shards[i].supervisor().in_flight() == 0))
    }

    /// Drains every shard to quiescence — backlogs empty, zero batches in
    /// flight — and returns all outputs sorted by `(seq, shard)`.
    ///
    /// This is the deterministic phase boundary: after a barrier the
    /// shared registry holds every preservation the fed batches could
    /// trigger, regardless of worker scheduling, which is what lets
    /// drills and paper tables stay byte-reproducible on a live
    /// multi-threaded runtime.
    ///
    /// With a stall deadline configured the drain doubles as the watchdog
    /// pump: a shard wedged mid-drain is forcibly recovered (or fenced on
    /// budget exhaustion) instead of spinning this loop forever. Without
    /// one, a truly wedged shard hangs this call — use
    /// [`Self::barrier_deadline`] when shutdown must be bounded.
    ///
    /// # Errors
    /// As [`AdmittedPipeline::try_recv`] (restart exhaustion is absorbed
    /// into a fence).
    pub fn barrier(&mut self) -> Result<Vec<(usize, PipelineOutput)>, FreewayError> {
        let mut outputs: Vec<(usize, PipelineOutput)> = self.stash.drain(..).collect();
        for i in 0..self.shards.len() {
            while !self.drain_shard_step(i, &mut outputs)? {
                std::thread::yield_now();
            }
        }
        outputs.sort_by_key(|(shard, out)| (out.seq, *shard));
        Ok(outputs)
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
        let deadline = Instant::now() + budget;
        let mut outputs: Vec<(usize, PipelineOutput)> = self.stash.drain(..).collect();
        let n = self.shards.len();
        let mut quiescent = vec![false; n];
        loop {
            let mut all = true;
            for (i, done) in quiescent.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                if self.drain_shard_step(i, &mut outputs)? {
                    *done = true;
                } else {
                    all = false;
                }
            }
            if all {
                break;
            }
            if Instant::now() >= deadline {
                self.stash.extend(outputs);
                let shards = (0..n).filter(|&i| !quiescent[i]).collect();
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

    /// Has every shard's worker, including future respawns, unpark
    /// `thread` after each output it sends and when it exits.
    pub(crate) fn install_doorbell(&mut self, thread: &std::thread::Thread) {
        for shard in &mut self.shards {
            shard.supervisor().install_doorbell(thread.clone());
        }
    }

    /// Aggregated admission counters across all shards (sums; the
    /// backlog peak is the max over shards — peaks do not add).
    pub fn stats(&self) -> AdmissionStats {
        aggregate_stats(self.shards.iter().map(AdmittedPipeline::stats))
    }

    /// Per-shard admission counters, indexed by shard.
    pub fn per_shard_stats(&self) -> Vec<AdmissionStats> {
        self.shards.iter().map(AdmittedPipeline::stats).collect()
    }

    /// Chaos hook: makes one shard's worker panic on its next command,
    /// exercising that shard's crash-restart path while the other shards
    /// and the shared registry keep serving.
    ///
    /// # Errors
    /// As [`crate::SupervisedPipeline::inject_worker_panic`]; restart
    /// exhaustion discovered while delivering the injection fences the
    /// shard instead of erroring.
    pub fn inject_worker_panic(&mut self, shard: usize) -> Result<(), FreewayError> {
        match self.shards[shard].supervisor().inject_worker_panic() {
            Ok(()) => Ok(()),
            Err(FreewayError::RestartsExhausted { .. }) => {
                self.fence_shard(shard);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Chaos hook: schedules a stall (sleep or livelock) of `duration` on
    /// one shard's worker, exercising the watchdog detect → force-restart
    /// path while the other shards keep serving.
    ///
    /// # Errors
    /// As [`crate::SupervisedPipeline::inject_worker_stall`]; restart
    /// exhaustion discovered while delivering the injection fences the
    /// shard instead of erroring.
    pub fn inject_worker_stall(
        &mut self,
        shard: usize,
        duration: Duration,
        livelock: bool,
    ) -> Result<(), FreewayError> {
        match self.shards[shard].supervisor().inject_worker_stall(duration, livelock) {
            Ok(()) => Ok(()),
            Err(FreewayError::RestartsExhausted { .. }) => {
                self.fence_shard(shard);
                Ok(())
            }
            Err(e) => Err(e),
        }
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
        acc.backlog_peak = acc.backlog_peak.max(s.backlog_peak);
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
    fn aggregate_sums_counters_and_maxes_peak() {
        let a = AdmissionStats {
            offered: 3,
            admitted: 2,
            shed: 1,
            quarantined: 0,
            backlog_peak: 5,
            degradation_transitions: 1,
        };
        let b = AdmissionStats {
            offered: 4,
            admitted: 4,
            shed: 0,
            quarantined: 1,
            backlog_peak: 2,
            degradation_transitions: 0,
        };
        let total = aggregate_stats([a, b].into_iter());
        assert_eq!(total.offered, 7);
        assert_eq!(total.admitted, 6);
        assert_eq!(total.shed, 1);
        assert_eq!(total.quarantined, 1);
        assert_eq!(total.backlog_peak, 5);
        assert_eq!(total.degradation_transitions, 1);
    }
}
