//! The public FreewayML API.
//!
//! [`Learner`] mirrors the paper's constructor template
//! (`Learner(Model, ModelNum, MiniBatch, KdgBuffer, ExpBuffer, α)`) and
//! wires the strategy selector to the three mechanisms: on each inference
//! batch exactly **one** strategy runs (slight → ensemble, sudden → CEC,
//! reoccurring → knowledge reuse), while every training batch updates the
//! multi-granularity models regardless (§V-A).

use crate::config::FreewayConfig;
use crate::degrade::{DegradationHandle, DegradationLevel};
use crate::error::FreewayError;
use crate::granularity::MultiGranularity;
use crate::knowledge::{KnowledgeStore, SharedKnowledge, SharedReader};
use crate::selector::{Decision, StrategySelector};
use freeway_cluster::{CoherentExperience, ExperienceBuffer};
use freeway_drift::ShiftPattern;
use freeway_linalg::Matrix;
use freeway_ml::{Model, ModelSnapshot, ModelSpec};
use freeway_streams::Batch;
use freeway_telemetry::{Stage, Telemetry, TelemetryEvent};

/// Which mechanism produced a batch's predictions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Strategy {
    /// Multi-granularity Gaussian-kernel ensemble (Pattern A / warm-up).
    Ensemble,
    /// Coherent experience clustering (Pattern B).
    Clustering,
    /// Historical knowledge reuse (Pattern C).
    KnowledgeReuse,
}

impl Strategy {
    /// Display tag used in experiment output.
    pub fn tag(self) -> &'static str {
        match self {
            Self::Ensemble => "ensemble",
            Self::Clustering => "cec",
            Self::KnowledgeReuse => "knowledge",
        }
    }
}

/// Outcome of one inference batch.
#[derive(Clone, Debug)]
pub struct InferenceReport {
    /// Hard class predictions, one per input row.
    pub predictions: Vec<usize>,
    /// Strategy that produced them.
    pub strategy: Strategy,
    /// Classified pattern (`None` during PCA warm-up).
    pub pattern: Option<ShiftPattern>,
    /// Shift severity `M` (0 during warm-up).
    pub severity: f64,
    /// Shift distance `d_t` (0 during warm-up).
    pub distance: f64,
    /// True when the shift tracker is running on a degraded (identity)
    /// PCA projection after a numerical failure — predictions still
    /// flow, but pattern routing is less trustworthy until re-warm-up.
    pub degraded: bool,
    /// Overload service level in force when this batch was answered
    /// ([`DegradationLevel::Full`] unless an admission controller has
    /// stepped the ladder down).
    pub degradation: DegradationLevel,
}

impl InferenceReport {
    /// Hard class predictions, one per input row.
    pub fn predictions(&self) -> &[usize] {
        &self.predictions
    }

    /// Strategy that produced the predictions.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Classified pattern (`None` during PCA warm-up).
    pub fn pattern(&self) -> Option<ShiftPattern> {
        self.pattern
    }

    /// Shift severity `M` (0 during warm-up).
    pub fn severity(&self) -> f64 {
        self.severity
    }

    /// Shift distance `d_t` (0 during warm-up).
    pub fn distance(&self) -> f64 {
        self.distance
    }

    /// Overload service level in force when this batch was answered.
    pub fn degradation(&self) -> DegradationLevel {
        self.degradation
    }
}

/// Counters of how often each strategy served an inference batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StrategyStats {
    /// Batches served by the multi-granularity ensemble.
    pub ensemble: usize,
    /// Batches served by coherent experience clustering.
    pub clustering: usize,
    /// Batches served by historical knowledge reuse.
    pub knowledge: usize,
}

impl StrategyStats {
    /// Total inference batches recorded.
    pub fn total(&self) -> usize {
        self.ensemble + self.clustering + self.knowledge
    }
}

/// The adaptive, stable streaming learner.
///
/// ```
/// use freeway_core::{FreewayConfig, Learner};
/// use freeway_ml::ModelSpec;
/// use freeway_streams::{Hyperplane, StreamGenerator};
///
/// let mut stream = Hyperplane::new(10, 0.02, 0.05, 42);
/// let mut learner = Learner::new(
///     ModelSpec::lr(10, 2),
///     FreewayConfig { mini_batch: 128, pca_warmup_rows: 128, ..Default::default() },
/// );
/// for _ in 0..5 {
///     let batch = stream.next_batch(128);
///     let report = learner.process(&batch);
///     assert_eq!(report.predictions.len(), 128);
/// }
/// assert_eq!(learner.strategy_stats().total(), 5);
/// ```
pub struct Learner {
    config: FreewayConfig,
    spec: ModelSpec,
    selector: StrategySelector,
    granularity: MultiGranularity,
    knowledge: KnowledgeStore,
    experience: ExperienceBuffer,
    cec: CoherentExperience,
    stats: StrategyStats,
    telemetry: Telemetry,
    /// Shared overload service level, written by an admission
    /// controller's degradation ladder and read (one relaxed load) at
    /// the top of every train call. Defaults to a private handle pinned
    /// at [`DegradationLevel::Full`], so standalone learners behave
    /// exactly as before.
    degradation: DegradationHandle,
    /// Cross-shard knowledge registry handle; `None` outside a sharded
    /// runtime, in which case no publish or lookup ever happens and the
    /// learner is byte-identical to the unsharded one.
    shared: Option<SharedReader>,
    /// Training batches seen — the stable half of this shard's
    /// `(seq, shard)` ordering key in the shared registry.
    batches_trained: u64,
    /// Inference batches answered from a *foreign* shard's shared entry.
    shared_hits: u64,
    /// Unlabeled batches that still trained the short model via CEC
    /// pseudo-labels (continuous low-label mode; see
    /// [`FreewayConfig::enable_pseudo_labels`]).
    pseudo_trained: u64,
    /// When set, preservations are NOT mirrored into the shared registry.
    /// The supervisor flips this during journal replay: the original
    /// publishes survived the in-process crash, so re-publishing them
    /// would be a side effect the fault-free run never had.
    shared_publish_muted: bool,
    /// The model knowledge snapshots are loaded into for evidence checks
    /// and reuse, built on first use.
    evidence: Option<Evidence>,
    /// A training batch's column means, centred copy and projection.
    projection: Projection,
}

/// A kept model of one architecture: a snapshot's parameters are loaded
/// into it instead of into a freshly built model.
struct Evidence {
    spec: ModelSpec,
    model: Box<dyn Model>,
}

impl Evidence {
    /// `slot`'s model holding `snapshot`'s parameters, rebuilt only when
    /// the snapshot is of another architecture.
    fn load<'e>(slot: &'e mut Option<Evidence>, snapshot: &ModelSnapshot) -> &'e dyn Model {
        match slot {
            Some(kept) if kept.spec == snapshot.spec => {
                kept.model.set_parameters(&snapshot.params);
            }
            _ => {
                *slot = Some(Evidence { spec: snapshot.spec.clone(), model: snapshot.restore() });
            }
        }
        Self::loaded(slot)
    }

    /// The model the last [`Self::load`] into `slot` filled.
    fn loaded(slot: &Option<Evidence>) -> &dyn Model {
        // Audited: every caller loads the slot first.
        #[allow(clippy::expect_used)]
        &*slot.as_ref().expect("a snapshot was loaded").model
    }
}

/// Buffers of [`Learner::project`].
#[derive(Default)]
struct Projection {
    mean: Vec<f64>,
    centered: Vec<f64>,
    projected: Vec<f64>,
}

/// Fraction of hits among `count` scored rows (non-empty).
fn hit_rate((hits, count): (usize, usize)) -> f64 {
    hits as f64 / count as f64
}

impl Learner {
    /// Creates a learner for the given model architecture.
    ///
    /// # Panics
    /// On invalid configuration; use [`Learner::try_new`] (or
    /// [`crate::PipelineBuilder`]) for a fallible construction path.
    pub fn new(spec: ModelSpec, config: FreewayConfig) -> Self {
        match Self::try_new(spec, config, Telemetry::disabled()) {
            Ok(learner) => learner,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible constructor with an observability handle: per-stage timing
    /// spans, shift gauges, and drift/strategy events flow into
    /// `telemetry` (pass [`Telemetry::disabled`] for a zero-overhead
    /// no-op).
    ///
    /// # Errors
    /// [`FreewayError::InvalidConfig`] when the configuration violates a
    /// constraint (the message names the offending field).
    pub fn try_new(
        spec: ModelSpec,
        config: FreewayConfig,
        telemetry: Telemetry,
    ) -> Result<Self, FreewayError> {
        config.check().map_err(FreewayError::InvalidConfig)?;
        let selector = StrategySelector::with_telemetry(&config, telemetry.clone());
        let mut granularity = MultiGranularity::new(spec.clone(), &config);
        granularity.attach_telemetry(&telemetry);
        let mut knowledge = KnowledgeStore::new(config.kdg_buffer);
        knowledge.attach_telemetry(telemetry.clone());
        let experience =
            ExperienceBuffer::new(config.experience_points(), Some(config.exp_buffer as u64 * 4));
        let cec = CoherentExperience::with_recent(
            spec.classes() * config.cec_cluster_multiplier.max(1),
            config.mini_batch.max(1),
            config.cec_min_purity,
            config.seed ^ 0xCEC,
        );
        Ok(Self {
            config,
            spec,
            selector,
            granularity,
            knowledge,
            experience,
            cec,
            stats: StrategyStats::default(),
            telemetry,
            degradation: DegradationHandle::new(),
            shared: None,
            batches_trained: 0,
            shared_hits: 0,
            pseudo_trained: 0,
            shared_publish_muted: false,
            evidence: None,
            projection: Projection::default(),
        })
    }

    /// The paper's constructor template:
    /// `Learner(Model, ModelNum, MiniBatch, KdgBuffer, ExpBuffer, α)`.
    pub fn paper_interface(
        model: ModelSpec,
        model_num: usize,
        mini_batch: usize,
        kdg_buffer: usize,
        exp_buffer: usize,
        alpha: f64,
    ) -> Self {
        let config = FreewayConfig {
            model_num,
            mini_batch,
            kdg_buffer,
            exp_buffer,
            alpha,
            ..Default::default()
        };
        Self::new(model, config)
    }

    /// Configuration in force.
    pub fn config(&self) -> &FreewayConfig {
        &self.config
    }

    /// Model architecture.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Knowledge store (space studies read this).
    pub fn knowledge(&self) -> &KnowledgeStore {
        &self.knowledge
    }

    /// Strategy selector (shift-graph introspection).
    pub fn selector(&self) -> &StrategySelector {
        &self.selector
    }

    /// Multi-granularity bank (ablations poke at this).
    pub fn granularity(&self) -> &MultiGranularity {
        &self.granularity
    }

    /// How often each strategy has served inference so far.
    pub fn strategy_stats(&self) -> StrategyStats {
        self.stats
    }

    /// The observability handle this learner reports into (disabled by
    /// default; pipelines clone this to share one event stream).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Re-attaches an observability handle after construction, re-wiring
    /// every sub-component (used when a learner is rebuilt from a
    /// checkpoint and must keep reporting into the supervisor's sink).
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.selector.attach_telemetry(telemetry.clone());
        self.granularity.attach_telemetry(&telemetry);
        self.knowledge.attach_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Rate-aware adjuster hook: accelerate ASW decay under pressure.
    pub fn set_decay_multiplier(&mut self, multiplier: f64) {
        self.granularity.set_decay_multiplier(multiplier);
    }

    /// Shares an overload degradation level with this learner: training
    /// is gated on the handle's current [`DegradationLevel`] from the
    /// next batch on. Wired by [`crate::PipelineBuilder`] when admission
    /// control is configured.
    pub fn attach_degradation(&mut self, handle: DegradationHandle) {
        self.degradation = handle;
    }

    /// Current overload service level (from the attached handle).
    pub fn degradation_level(&self) -> DegradationLevel {
        self.degradation.level()
    }

    /// Joins this learner to a cross-shard knowledge registry as `shard`:
    /// window-completion preservations are additionally published to the
    /// registry, and severe-shift inference first probes other shards'
    /// entries (sharded Pattern-C warm start). Wired by
    /// [`crate::PipelineBuilder::build_sharded`].
    pub fn attach_shared_knowledge(&mut self, shared: &SharedKnowledge, shard: usize) {
        self.shared = Some(shared.reader(shard));
    }

    /// Inference batches answered from a foreign shard's shared entry.
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits
    }

    /// Unlabeled batches that trained the short model via CEC
    /// pseudo-labels. Zero unless
    /// [`FreewayConfig::enable_pseudo_labels`] is set.
    pub fn pseudo_trained(&self) -> u64 {
        self.pseudo_trained
    }

    /// Mutes (or unmutes) mirroring preservations into the shared
    /// registry. Used by the supervisor while re-feeding journaled
    /// batches after a crash: the crashed worker's publishes are still in
    /// the registry, so replay must not repeat them.
    pub fn set_shared_publish_muted(&mut self, muted: bool) {
        self.shared_publish_muted = muted;
    }

    /// Projects a batch mean into shift-graph coordinates, left in
    /// `projection.projected` (zeros during warm-up, when no PCA exists
    /// yet), through buffers the learner keeps.
    fn project(&mut self, x: &Matrix) {
        let p = &mut self.projection;
        match self.selector.tracker().pca() {
            Some(pca) => {
                x.column_means_into(&mut p.mean);
                pca.project_mean_into(&p.mean, &mut p.centered, &mut p.projected);
            }
            // The warm-up placeholder must match the dimension PCA will
            // actually fit, which is capped by the feature count (e.g.
            // SEA has 3 features but the default asks for 4 components).
            None => {
                p.projected.clear();
                p.projected.resize(self.config.pca_components.min(self.spec.features()), 0.0);
            }
        }
    }

    /// Handles one **inference** batch: classifies its shift pattern and
    /// runs exactly one strategy.
    pub fn infer(&mut self, x: &Matrix) -> InferenceReport {
        let report = {
            let _span = self.telemetry.time(Stage::Infer);
            self.infer_inner(x)
        };
        match report.strategy {
            Strategy::Ensemble => self.stats.ensemble += 1,
            Strategy::Clustering => self.stats.clustering += 1,
            Strategy::KnowledgeReuse => self.stats.knowledge += 1,
        }
        if self.telemetry.enabled() {
            let seq = self.telemetry.seq();
            self.telemetry.emit(TelemetryEvent::StrategyDispatched {
                seq,
                strategy: report.strategy.tag(),
                pattern: report.pattern.map_or("warmup", ShiftPattern::tag),
            });
            if report.degraded {
                self.telemetry.emit(TelemetryEvent::InferenceDegraded {
                    seq,
                    strategy: report.strategy.tag(),
                });
            }
        }
        report
    }

    fn infer_inner(&mut self, x: &Matrix) -> InferenceReport {
        let degradation = self.degradation.level();
        let decision = self.selector.observe(x);
        let degraded = self.selector.tracker().pca().is_some_and(|p| p.degraded());
        match decision {
            None => {
                // PCA warm-up: only the ensemble exists. This is the only
                // arm that needs its own projection — a ready selector
                // already projected the batch into `measurement.projected`,
                // so projecting up front would duplicate the column-means
                // and PCA work on every post-warmup batch.
                self.project(x);
                let predictions = self.granularity.predict(x, &self.projection.projected);
                InferenceReport {
                    predictions,
                    strategy: Strategy::Ensemble,
                    pattern: None,
                    severity: 0.0,
                    distance: 0.0,
                    degraded,
                    degradation,
                }
            }
            Some(Decision { pattern, measurement }) => {
                let (predictions, strategy) = match pattern {
                    ShiftPattern::Slight => {
                        (self.granularity.predict(x, &measurement.projected), Strategy::Ensemble)
                    }
                    ShiftPattern::Sudden => {
                        self.granularity.handle_severe_shift();
                        self.infer_sudden(x, &measurement.projected, &mut None)
                    }
                    ShiftPattern::Reoccurring => {
                        self.granularity.handle_severe_shift();
                        // Reuse is gated twice: the paper's `d_h < d_t`
                        // (already part of the classification) plus an
                        // absolute bound — moving to the matched
                        // distribution must itself look like a *slight*
                        // shift, otherwise the "match" is a projection
                        // coincidence and the snapshot would mispredict.
                        let slight_bound =
                            measurement.history_mean + self.config.alpha * measurement.history_std;
                        self.infer_reoccurring(
                            x,
                            &measurement.projected,
                            measurement.distance.min(slight_bound),
                        )
                    }
                };
                InferenceReport {
                    predictions,
                    strategy,
                    pattern: Some(pattern),
                    severity: measurement.severity,
                    distance: measurement.distance,
                    degraded,
                    degradation,
                }
            }
        }
    }

    /// Cross-shard Pattern-C probe: when a severe shift lands on this
    /// shard, another tenant's shard may already hold the post-shift
    /// concept. Tried before CEC arbitration because a matching foreign
    /// snapshot is trained knowledge, not a cold-start reconstruction.
    ///
    /// The probe sits on `infer_sudden` (not only the Reoccurring arm)
    /// deliberately: a concept that is *recurring globally* but *new to
    /// this shard* classifies as Sudden here — the local tracker has no
    /// history of it — and that is exactly the case the shared registry
    /// exists for. The evidence gate mirrors the local reuse gate: the
    /// restored snapshot must score at least as well as the live ensemble
    /// on the freshest labeled points.
    fn try_shared_reuse(
        &mut self,
        x: &Matrix,
        projected: &[f64],
        ensemble_score: &mut Option<f64>,
    ) -> Option<(Vec<usize>, Strategy)> {
        if self.shared.is_none() || !self.config.enable_knowledge {
            return None;
        }
        // Fingerprints live in raw feature space (per-shard PCA bases are
        // incomparable), so the lookup key is the raw batch mean.
        let fingerprint = x.column_means();
        let (entry, distance) = self.shared.as_mut()?.nearest_foreign(&fingerprint)?;
        if self.experience.is_empty() {
            return None;
        }
        let restored = Evidence::load(&mut self.evidence, &entry.snapshot);
        let guidance = self.experience.recent_rows(self.cec.max_experience);
        let restored_score = hit_rate(self.granularity.model_hits(restored, guidance));
        if restored_score < self.ensemble_guidance_score(ensemble_score, projected) {
            return None;
        }
        self.shared_hits += 1;
        if self.telemetry.enabled() {
            self.telemetry.emit(TelemetryEvent::SharedKnowledgeHit {
                seq: self.telemetry.seq(),
                shard: self.shared.as_ref().map_or(0, |r| r.shard()) as u64,
                source_shard: entry.shard as u64,
                distance,
            });
        }
        let preds = self.granularity.model_predict(Evidence::loaded(&self.evidence), x);
        Some((preds, Strategy::KnowledgeReuse))
    }

    /// Pattern B. `ensemble_score` carries the ensemble's guidance score a
    /// failed reuse gate already took for this batch.
    fn infer_sudden(
        &mut self,
        x: &Matrix,
        projected: &[f64],
        ensemble_score: &mut Option<f64>,
    ) -> (Vec<usize>, Strategy) {
        if let Some(reused) = self.try_shared_reuse(x, projected, ensemble_score) {
            return reused;
        }
        if !self.config.enable_cec {
            return (self.granularity.predict(x, projected), Strategy::Ensemble);
        }
        match self.cec.predict_scored(x, &self.experience) {
            Some((preds, purity)) => {
                // Evidence-based arbitration: the freshest labeled points
                // already carry the post-shift distribution (continuity
                // hypothesis). CEC's purity *is* its accuracy on the
                // guidance slice (guidance points inherit their cluster's
                // majority label), so scoring the ensemble on the same
                // slice makes the comparison apples-to-apples. (CEC found
                // guidance, so the slice is not empty.)
                if purity > self.ensemble_guidance_score(ensemble_score, projected) {
                    (preds, Strategy::Clustering)
                } else {
                    (self.granularity.predict(x, projected), Strategy::Ensemble)
                }
            }
            // No coherent experience yet: the ensemble is the only option.
            None => (self.granularity.predict(x, projected), Strategy::Ensemble),
        }
    }

    fn infer_reoccurring(
        &mut self,
        x: &Matrix,
        projected: &[f64],
        distance: f64,
    ) -> (Vec<usize>, Strategy) {
        let mut ensemble_score = None;
        if !self.config.enable_knowledge {
            return self.infer_sudden(x, projected, &mut ensemble_score);
        }
        // Knowledge must also beat the nearest *live* model's fingerprint:
        // if a current model is as close to this data as the snapshot is,
        // restoring the snapshot can only lose (it is older).
        let live_bound = self.granularity.nearest_live_distance(projected).unwrap_or(f64::INFINITY);
        let Some(entry) = self.knowledge.match_knowledge(projected, distance.min(live_bound))
        else {
            // No matching knowledge: Pattern C degenerates to Pattern B.
            return self.infer_sudden(x, projected, &mut ensemble_score);
        };
        // Read-only reuse: the matched snapshot answers this batch.
        // Overwriting the live models would destroy their current
        // adaptation whenever a match is a false positive, so reuse stays
        // inference-side and incremental training continues uninterrupted
        // (§IV-D only requires the knowledge to serve the reoccurring
        // distribution).
        let restored = Evidence::load(&mut self.evidence, &entry.snapshot);
        // Evidence check: a genuine reoccurrence means the freshest labeled
        // points (continuity hypothesis) come from the distribution the
        // snapshot was trained on, so the snapshot must score well on them.
        // A projection-collision false match fails here and falls through
        // to the Pattern-B path.
        if !self.experience.is_empty() {
            let guidance = self.experience.recent_rows(self.cec.max_experience);
            let restored_score = hit_rate(self.granularity.model_hits(restored, guidance));
            if restored_score < self.ensemble_guidance_score(&mut ensemble_score, projected) {
                return self.infer_sudden(x, projected, &mut ensemble_score);
            }
        }
        let restored = Evidence::loaded(&self.evidence);
        (self.granularity.model_predict(restored, x), Strategy::KnowledgeReuse)
    }

    /// The live ensemble's accuracy on the guidance slice — the freshest
    /// labeled points, which already carry the post-shift distribution
    /// (continuity hypothesis) — scored on first use. Every evidence gate
    /// on a severe batch (local reuse, shared reuse, CEC arbitration)
    /// scores against this slice, and none of them changes the experience
    /// buffer or the ensemble, so the ensemble is scored at most once per
    /// batch. The slice is read from the experience ring in place; it
    /// must not be empty.
    fn ensemble_guidance_score(&mut self, score: &mut Option<f64>, projected: &[f64]) -> f64 {
        if let Some(score) = *score {
            return score;
        }
        let guidance = self.experience.recent_rows(self.cec.max_experience);
        let fresh = hit_rate(self.granularity.ensemble_hits(guidance, projected));
        *score = Some(fresh);
        fresh
    }

    /// Handles one **training** batch: always updates the
    /// multi-granularity models, maintains coherent experience, and
    /// preserves knowledge at window completions (§V-A).
    pub fn train(&mut self, x: &Matrix, labels: &[usize]) {
        assert_eq!(x.rows(), labels.len(), "label count mismatch");
        let _span = self.telemetry.time(Stage::Train);
        self.batches_trained += 1;
        let degradation = self.degradation.level();
        if matches!(degradation, DegradationLevel::InferenceOnly | DegradationLevel::Shed) {
            // Training frozen under overload: the ensemble keeps serving
            // from its current parameters; no window, experience, or
            // knowledge state moves, so recovery resumes cleanly.
            return;
        }
        // A training-only stream must still warm up PCA; observe() during
        // warm-up only accumulates rows (it reports nothing), and once the
        // selector is ready the inference stream owns all observations.
        if !self.selector.is_ready() {
            let _ = self.selector.observe(x);
        }
        self.project(x);
        let projected = &self.projection.projected;
        if degradation == DegradationLevel::ShortOnly {
            // Overload ladder step 1: skip the multi-granularity retrain;
            // only the cheap short model tracks the stream. Experience
            // maintenance stays (CEC must keep working under pressure —
            // severe shifts do not wait for the load to clear), but
            // window completions cannot happen, so knowledge
            // preservation is naturally paused.
            self.granularity.train_short_only(x, labels, projected);
            self.experience.tick();
            self.experience.push_batch(x, labels);
            return;
        }
        self.granularity.train(x, labels, projected);

        // Maintain the coherent-experience buffer from the training stream.
        self.experience.tick();
        self.experience.push_batch(x, labels);

        // Knowledge preservation on window completion, gated by disorder.
        if !self.config.enable_knowledge {
            let _ = self.granularity.take_completed_disorder();
            return;
        }
        if let Some(disorder) = self.granularity.take_completed_disorder() {
            let (mu_d, _) = self.selector.tracker().history_stats();
            let dedup_radius = self.config.kdg_dedup_scale * mu_d;
            // High disorder ⇒ the stable long model; low disorder ⇒ the
            // stream just moved directionally, the long window blurred
            // that trajectory, so preserve the information-rich short
            // model (its distribution is the current one; preserving both
            // under one fingerprint would just thrash the dedup slot).
            let model = if disorder > self.config.beta {
                self.granularity.long_model()
            } else {
                self.granularity.short_model()
            };
            self.knowledge.preserve_dedup(
                self.projection.projected.clone(),
                model,
                self.spec.clone(),
                disorder,
                dedup_radius,
            );
            // Mirror the preservation into the cross-shard registry so
            // other tenants' shards can warm-start on this concept. The
            // fingerprint is the raw batch mean (shared space); `seq` is
            // this shard's train counter, giving the registry its stable
            // `(seq, shard)` ordering key.
            if let Some(reader) = self.shared.as_ref().filter(|_| !self.shared_publish_muted) {
                let model = if disorder > self.config.beta {
                    self.granularity.long_model()
                } else {
                    self.granularity.short_model()
                };
                reader.publish(
                    self.batches_trained,
                    x.column_means(),
                    ModelSnapshot::capture(self.spec.clone(), model),
                    disorder,
                    dedup_radius,
                );
            }
        }
    }

    /// Loads a checkpoint's models and knowledge into this learner (see
    /// [`crate::persistence::Checkpoint`] for what is and is not carried
    /// across restarts).
    ///
    /// # Errors
    /// [`crate::FreewayError::Checkpoint`] when the checkpoint's shape
    /// does not fit this learner; nothing is applied on rejection.
    pub fn restore_from(
        &mut self,
        checkpoint: &crate::persistence::Checkpoint,
    ) -> Result<(), crate::error::FreewayError> {
        self.granularity.set_level_parameters(&checkpoint.level_parameters)?;
        for (distribution, snapshot, disorder) in &checkpoint.knowledge {
            self.knowledge.restore_entry(distribution.clone(), snapshot.clone(), *disorder);
        }
        Ok(())
    }

    /// Prequential step: infer on the batch, then (if labeled) train on
    /// it. Returns the inference report.
    ///
    /// Unlabeled batches may still train when
    /// [`FreewayConfig::enable_pseudo_labels`] is set: CEC clusters the
    /// batch against the coherent-experience buffer and, when its purity
    /// clears [`FreewayConfig::pseudo_label_min_purity`], the cluster
    /// labels update the short model only. This extends the paper's
    /// Pattern-B pseudo-labeling (§IV-C) to a continuous low-label mode:
    /// under delayed or partial label arrival the short model keeps
    /// tracking the stream instead of freezing until labels land.
    pub fn process(&mut self, batch: &Batch) -> InferenceReport {
        self.telemetry.batch_started(batch.seq);
        let report = self.infer(&batch.x);
        if let Some(labels) = batch.labels.as_deref() {
            self.train(&batch.x, labels);
        } else {
            self.maybe_pseudo_train(&batch.x);
        }
        report
    }

    /// Pseudo-label training on an unlabeled batch (continuous low-label
    /// mode). Guarded so that it is a no-op unless explicitly enabled:
    ///
    /// - CEC must produce a clustering whose purity clears the configured
    ///   floor — low-purity clusterings are exactly the ones whose
    ///   majority labels would poison the model.
    /// - Only the short model trains (`train_short_only`): a wrong
    ///   pseudo-label washes out of the short window quickly, whereas the
    ///   long model and knowledge store would fossilize it.
    /// - The experience buffer is **not** touched: pseudo-labels feeding
    ///   the very buffer CEC clusters against would self-reinforce, so
    ///   guidance stays genuinely labeled.
    fn maybe_pseudo_train(&mut self, x: &Matrix) {
        if !self.config.enable_pseudo_labels || !self.config.enable_cec {
            return;
        }
        if !self.selector.is_ready() {
            return;
        }
        let degradation = self.degradation.level();
        if matches!(degradation, DegradationLevel::InferenceOnly | DegradationLevel::Shed) {
            return;
        }
        let Some((preds, purity)) = self.cec.predict_scored(x, &self.experience) else {
            return;
        };
        if purity < self.config.pseudo_label_min_purity {
            return;
        }
        let _span = self.telemetry.time(Stage::Train);
        self.project(x);
        self.granularity.train_short_only(x, &preds, &self.projection.projected);
        self.pseudo_trained += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeway_streams::concept::{stream_rng, GmmConcept};
    use freeway_streams::DriftPhase;

    fn config() -> FreewayConfig {
        FreewayConfig {
            pca_warmup_rows: 64,
            mini_batch: 128,
            asw_max_batches: 3,
            learning_rate: 0.3,
            ..Default::default()
        }
    }

    fn run_stream(
        learner: &mut Learner,
        concept: &GmmConcept,
        rng: &mut rand::rngs::StdRng,
        batches: usize,
        size: usize,
    ) -> Vec<InferenceReport> {
        (0..batches)
            .map(|i| {
                let (x, y) = concept.sample_batch(size, rng);
                let b = Batch::labeled(x, y, i as u64, DriftPhase::Stable);
                learner.process(&b)
            })
            .collect()
    }

    #[test]
    fn pseudo_labels_train_only_when_enabled_and_pure() {
        let run = |enable: bool| {
            let mut rng = stream_rng(77);
            let concept = GmmConcept::random(6, 2, 2, 8.0, 0.4, &mut rng);
            let cfg = FreewayConfig {
                enable_pseudo_labels: enable,
                pseudo_label_min_purity: 0.5,
                ..config()
            };
            let mut learner = Learner::new(ModelSpec::lr(6, 2), cfg);
            // Labeled warm-up readies PCA and fills the experience buffer
            // CEC clusters against.
            for i in 0..6u64 {
                let (x, y) = concept.sample_batch(128, &mut rng);
                learner.process(&Batch::labeled(x, y, i, DriftPhase::Stable));
            }
            assert_eq!(learner.pseudo_trained(), 0, "labeled batches never pseudo-train");
            for i in 6..16u64 {
                let (x, _) = concept.sample_batch(128, &mut rng);
                learner.process(&Batch::unlabeled(x, i, DriftPhase::Stable));
            }
            learner.pseudo_trained()
        };
        assert_eq!(run(false), 0, "pseudo-labeling is opt-in");
        assert!(run(true) > 0, "well-separated unlabeled batches should pseudo-train");
    }

    #[test]
    fn paper_interface_sets_fields() {
        let l = Learner::paper_interface(ModelSpec::lr(4, 2), 2, 512, 15, 8, 2.5);
        assert_eq!(l.config().model_num, 2);
        assert_eq!(l.config().mini_batch, 512);
        assert_eq!(l.config().kdg_buffer, 15);
        assert_eq!(l.config().exp_buffer, 8);
        assert!((l.config().alpha - 2.5).abs() < 1e-12);
    }

    #[test]
    fn learns_a_stable_stream() {
        let mut rng = stream_rng(10);
        let concept = GmmConcept::random(6, 2, 2, 4.0, 0.6, &mut rng);
        let mut learner = Learner::new(ModelSpec::lr(6, 2), config());
        let _ = run_stream(&mut learner, &concept, &mut rng, 25, 128);
        // Accuracy on a fresh batch from the same concept.
        let (x, y) = concept.sample_batch(256, &mut rng);
        let report = learner.infer(&x);
        let correct = report.predictions.iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(
            correct as f64 / y.len() as f64 > 0.8,
            "stable stream accuracy {correct}/{}",
            y.len()
        );
    }

    #[test]
    fn sudden_shift_triggers_clustering() {
        // Seed chosen so the generated GMM geometry is one where the CEC
        // purity check beats the degraded ensemble under the vendored
        // `rand` stand-in (whose stream differs from crates.io `rand`);
        // the severity detection itself fires for every seed.
        let mut rng = stream_rng(5);
        let mut concept = GmmConcept::random(6, 2, 2, 4.0, 0.6, &mut rng);
        let mut learner = Learner::new(ModelSpec::lr(6, 2), config());
        let _ = run_stream(&mut learner, &concept, &mut rng, 20, 128);
        concept.translate(&[30.0; 6]);
        let (x, y) = concept.sample_batch(128, &mut rng);
        let b = Batch::labeled(x, y, 99, DriftPhase::Sudden);
        let report = learner.process(&b);
        assert!(
            matches!(report.strategy, Strategy::Clustering | Strategy::KnowledgeReuse),
            "severe shift must leave the ensemble, got {:?}",
            report.strategy
        );
        assert!(report.severity > 1.96);
    }

    #[test]
    fn reoccurring_shift_reuses_knowledge() {
        let mut rng = stream_rng(12);
        let concept = GmmConcept::random(6, 2, 2, 4.0, 0.6, &mut rng);
        let mut cfg = config();
        cfg.beta = 0.9; // force both-save path frequently
        let mut learner = Learner::new(ModelSpec::lr(6, 2), cfg);
        // Home phase: long enough to preserve knowledge.
        let _ = run_stream(&mut learner, &concept, &mut rng, 25, 128);
        assert!(!learner.knowledge().is_empty(), "window completions must preserve");
        // Away phase.
        let mut away = concept.clone();
        away.translate(&[40.0; 6]);
        let _ = run_stream(&mut learner, &away, &mut rng, 10, 128);
        // Return home: the jump back should match stored knowledge.
        let (x, y) = concept.sample_batch(128, &mut rng);
        let b = Batch::labeled(x, y, 999, DriftPhase::Reoccurring);
        let report = learner.process(&b);
        assert_eq!(report.pattern, Some(ShiftPattern::Reoccurring));
        assert_eq!(report.strategy, Strategy::KnowledgeReuse);
    }

    #[test]
    fn exactly_one_strategy_per_inference() {
        // The report carries a single strategy; across a mixed stream all
        // three appear (selector routes, never blends).
        let mut rng = stream_rng(13);
        let concept = GmmConcept::random(6, 2, 2, 4.0, 0.6, &mut rng);
        let mut learner = Learner::new(ModelSpec::lr(6, 2), config());
        let reports = run_stream(&mut learner, &concept, &mut rng, 30, 128);
        for r in &reports {
            assert_eq!(r.predictions.len(), 128);
        }
        let ensemble_count = reports.iter().filter(|r| r.strategy == Strategy::Ensemble).count();
        assert!(ensemble_count > reports.len() / 2, "stable stream is mostly ensemble");
    }

    #[test]
    fn unlabeled_batches_do_not_train() {
        let mut rng = stream_rng(14);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut learner = Learner::new(ModelSpec::lr(4, 2), config());
        let (x, y) = concept.sample_batch(256, &mut rng);
        let b = Batch::labeled(x, y, 0, DriftPhase::Stable);
        learner.process(&b);
        let params_before = learner.granularity().short_model().parameters();
        let (x2, _) = concept.sample_batch(128, &mut rng);
        let unlabeled = Batch::unlabeled(x2, 1, DriftPhase::Stable);
        learner.process(&unlabeled);
        assert_eq!(
            learner.granularity().short_model().parameters(),
            params_before,
            "inference-only batches must not move parameters"
        );
    }

    #[test]
    fn degradation_gates_training_but_not_inference() {
        use crate::degrade::{DegradationHandle, DegradationLevel};
        let mut rng = stream_rng(16);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut learner = Learner::new(ModelSpec::lr(4, 2), config());
        let handle = DegradationHandle::new();
        learner.attach_degradation(handle.clone());
        let _ = run_stream(&mut learner, &concept, &mut rng, 5, 128);

        // Inference-only: parameters must not move, predictions must flow.
        handle.set(DegradationLevel::InferenceOnly);
        let before = learner.granularity().short_model().parameters();
        let (x, y) = concept.sample_batch(128, &mut rng);
        let report = learner.process(&Batch::labeled(x, y, 100, DriftPhase::Stable));
        assert_eq!(report.predictions.len(), 128);
        assert_eq!(report.degradation(), DegradationLevel::InferenceOnly);
        assert_eq!(
            learner.granularity().short_model().parameters(),
            before,
            "frozen training must not move parameters"
        );

        // Short-only: the short model moves again.
        handle.set(DegradationLevel::ShortOnly);
        let (x, y) = concept.sample_batch(128, &mut rng);
        let report = learner.process(&Batch::labeled(x, y, 101, DriftPhase::Stable));
        assert_eq!(report.degradation(), DegradationLevel::ShortOnly);
        assert_ne!(
            learner.granularity().short_model().parameters(),
            before,
            "short-only must keep tracking the stream"
        );

        // Recovery: full service resumes.
        handle.set(DegradationLevel::Full);
        let (x, y) = concept.sample_batch(128, &mut rng);
        let report = learner.process(&Batch::labeled(x, y, 102, DriftPhase::Stable));
        assert_eq!(report.degradation(), DegradationLevel::Full);
    }

    #[test]
    fn knowledge_space_is_measurable() {
        let mut rng = stream_rng(15);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut learner = Learner::new(ModelSpec::lr(4, 2), config());
        let _ = run_stream(&mut learner, &concept, &mut rng, 30, 128);
        if !learner.knowledge().is_empty() {
            assert!(learner.knowledge().space_bytes() > 0);
        }
    }

    #[test]
    fn decay_multiplier_changes_the_long_model_update() {
        // Two learners see identical batches; one decays its windows three
        // times faster, so its first window completion trains the long
        // model on differently weighted data.
        let mut rng = stream_rng(16);
        let concept = GmmConcept::random(4, 2, 2, 3.0, 0.5, &mut rng);
        let mut plain = Learner::new(ModelSpec::lr(4, 2), config());
        let mut boosted = Learner::new(ModelSpec::lr(4, 2), config());
        boosted.set_decay_multiplier(3.0);
        let init = plain.granularity().long_model().parameters();
        let long = |learner: &Learner| learner.granularity().long_model().parameters();
        for i in 0..20 {
            if long(&plain) != init && long(&boosted) != init {
                break;
            }
            let (x, y) = concept.sample_batch(128, &mut rng);
            let batch = Batch::labeled(x, y, i, DriftPhase::Stable);
            plain.process(&batch);
            boosted.process(&batch);
        }
        assert_ne!(long(&plain), init, "the plain window never completed");
        assert_ne!(long(&boosted), init, "the boosted window never completed");
        assert_ne!(long(&plain), long(&boosted), "the multiplier never reached the window");
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use freeway_streams::concept::{stream_rng, GmmConcept};
    use freeway_streams::DriftPhase;

    #[test]
    fn strategy_stats_count_every_inference() {
        let mut rng = stream_rng(77);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut learner = Learner::new(
            ModelSpec::lr(4, 2),
            FreewayConfig { mini_batch: 64, pca_warmup_rows: 64, ..Default::default() },
        );
        for i in 0..15 {
            let (x, y) = concept.sample_batch(64, &mut rng);
            learner.process(&Batch::labeled(x, y, i, DriftPhase::Stable));
        }
        let stats = learner.strategy_stats();
        assert_eq!(stats.total(), 15, "every process() infers exactly once");
        assert!(stats.ensemble >= 10, "stable stream is mostly ensemble: {stats:?}");
    }

    #[test]
    fn three_level_learner_works_end_to_end() {
        let mut rng = stream_rng(78);
        let concept = GmmConcept::random(4, 2, 2, 3.0, 0.5, &mut rng);
        let mut learner = Learner::new(
            ModelSpec::lr(4, 2),
            FreewayConfig {
                model_num: 3,
                mini_batch: 64,
                pca_warmup_rows: 64,
                asw_max_batches: 2,
                ..Default::default()
            },
        );
        for i in 0..20 {
            let (x, y) = concept.sample_batch(64, &mut rng);
            let report = learner.process(&Batch::labeled(x, y, i, DriftPhase::Stable));
            assert_eq!(report.predictions.len(), 64);
        }
        assert_eq!(learner.granularity().num_levels(), 3);
    }
}
