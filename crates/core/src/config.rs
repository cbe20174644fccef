//! Configuration for the FreewayML learner.

use freeway_ml::{Adam, Ftrl, Momentum, Optimizer, Sgd};
use serde::{Deserialize, Serialize};

/// Which optimizer drives the granularity models' updates.
///
/// FreewayML's mechanisms are orthogonal to the base trainer; the paper
/// uses mini-batch SGD (the default here), but the framework accepts any
/// of the substrate's optimizers — e.g. FTRL to match an Alink-style
/// deployment.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum OptimizerKind {
    /// Plain SGD (the paper's setting).
    Sgd,
    /// SGD with classical momentum.
    Momentum {
        /// Momentum coefficient in `[0, 1)`.
        mu: f64,
    },
    /// Adam with canonical betas.
    Adam,
    /// FTRL-proximal with light regularisation.
    Ftrl,
}

impl OptimizerKind {
    /// Instantiates the optimizer at the given learning rate.
    pub fn build(self, learning_rate: f64) -> Box<dyn Optimizer> {
        match self {
            Self::Sgd => Box::new(Sgd::new(learning_rate)),
            Self::Momentum { mu } => Box::new(Momentum::new(learning_rate, mu)),
            Self::Adam => Box::new(Adam::new(learning_rate)),
            Self::Ftrl => Box::new(Ftrl::new(learning_rate, 1.0, 0.001, 0.001)),
        }
    }
}

/// All tunables of FreewayML, with the paper's defaults.
///
/// The constructor template in §V is
/// `Learner(Model=model, ModelNum=2, MiniBatch=1024, KdgBuffer=20,
/// ExpBuffer=10, α=1.96)`; the remaining fields parameterise pieces the
/// paper describes qualitatively (ASW bounds, disorder threshold β,
/// ensemble kernel width, decay shape).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FreewayConfig {
    /// Number of granularity levels (2 = short + long, the default).
    pub model_num: usize,
    /// Mini-batch size the stream is consumed in.
    pub mini_batch: usize,
    /// Maximum knowledge entries kept in memory (`KdgBuffer`).
    pub kdg_buffer: usize,
    /// Experience points retained for CEC, expressed in batches
    /// (`ExpBuffer`); the actual point capacity is
    /// `exp_buffer * mini_batch` rows capped by [`Self::exp_point_cap`].
    pub exp_buffer: usize,
    /// Hard cap on CEC experience points (keeps k-means cheap).
    pub exp_point_cap: usize,
    /// Severity threshold α for pattern classification.
    pub alpha: f64,
    /// Disorder threshold β for knowledge preservation (normalised to
    /// `[0, 1]`).
    pub beta: f64,
    /// Gaussian kernel width σ of the ensemble (Equation 14), expressed
    /// as a multiple of the *typical* shift distance (the weighted history
    /// mean `μ_d`): kernels auto-scale to the stream's own motion, so the
    /// same configuration works across datasets with different feature
    /// scales.
    pub ensemble_sigma: f64,
    /// CEC clusters per class. Real stream classes are multi-modal, so
    /// clustering with exactly one cluster per label (the paper's framing)
    /// under-fits; a small multiple keeps the mapping label-agnostic while
    /// matching the data's mode count.
    pub cec_cluster_multiplier: usize,
    /// Minimum labeled-guidance purity for CEC predictions (see
    /// `freeway_cluster::CoherentExperience::min_purity`); below this the
    /// learner falls back to the ensemble.
    pub cec_min_purity: f64,
    /// Knowledge-preservation dedup radius, as a multiple of the stream's
    /// typical shift distance: a new entry within this radius of an
    /// existing one replaces it, keeping the KdgBuffer covering distinct
    /// distributions instead of near-duplicates of the current one.
    pub kdg_dedup_scale: f64,
    /// ASW: maximum batches before a long-model update fires.
    pub asw_max_batches: usize,
    /// ASW: maximum items before a long-model update fires.
    pub asw_max_items: usize,
    /// ASW: base per-insertion decay rate.
    pub asw_base_decay: f64,
    /// ASW: additional decay for the worst-ranked batch (scaled linearly
    /// by rank).
    pub asw_rank_decay: f64,
    /// ASW: additional decay multiplier at disorder 1.0.
    pub asw_disorder_boost: f64,
    /// ASW: entries whose weight falls below this are dropped.
    pub asw_min_weight: f64,
    /// Learning rate for all granularity models.
    pub learning_rate: f64,
    /// Base optimizer for all granularity models.
    pub optimizer: OptimizerKind,
    /// PCA warm-up rows for the shift tracker.
    pub pca_warmup_rows: usize,
    /// PCA components.
    pub pca_components: usize,
    /// Shift-history length k (Equations 8–9).
    pub shift_history: usize,
    /// Recency decay of shift-history weights, in `[0, 1]`.
    pub shift_recency_decay: f64,
    /// Remembered historical distributions for `d_h`.
    pub distribution_memory: usize,
    /// Pre-computing window subsets (1 disables pre-computation).
    pub precompute_subsets: usize,
    /// Gradient passes over the window data when a long-granularity
    /// update fires. One pass per batch would leave the long model far
    /// behind the short one (it updates `asw_max_batches` times less
    /// often); a few passes over the accumulated window keep it a
    /// *stable* peer rather than a stale one.
    pub asw_update_epochs: usize,
    /// Base RNG seed for model initialisation.
    pub seed: u64,
    /// Mechanism toggle: coherent experience clustering on Pattern B.
    /// Disabling falls back to the ensemble (per-mechanism studies and
    /// ablations flip this).
    pub enable_cec: bool,
    /// Mechanism toggle: historical knowledge reuse on Pattern C.
    pub enable_knowledge: bool,
    /// Continuous low-label mode: train the short-granularity model on
    /// CEC pseudo-labels for *unlabeled* batches whose cluster purity
    /// clears [`Self::pseudo_label_min_purity`]. The paper uses CEC
    /// labeling only inside Pattern-B handling; this extends it to every
    /// unlabeled batch so delayed/partial-label streams keep adapting
    /// between label deliveries. Off by default — it changes inference
    /// output on unlabeled streams. With the published `serde`, the
    /// attribute below decodes a configuration written without this
    /// field as `false`; the vendored stand-in ignores `#[serde(...)]`
    /// attributes, so such a configuration fails to decode there.
    #[serde(default)]
    pub enable_pseudo_labels: bool,
    /// Minimum CEC labeled-guidance purity for a pseudo-label training
    /// pass (stricter than [`Self::cec_min_purity`] by default: training
    /// on wrong labels is worse than predicting with them).
    #[serde(default = "default_pseudo_label_min_purity")]
    pub pseudo_label_min_purity: f64,
}

fn default_pseudo_label_min_purity() -> f64 {
    0.9
}

impl Default for FreewayConfig {
    fn default() -> Self {
        Self {
            model_num: 2,
            mini_batch: 1024,
            kdg_buffer: 20,
            exp_buffer: 10,
            exp_point_cap: 512,
            alpha: 1.96,
            beta: 0.3,
            ensemble_sigma: 0.5,
            cec_cluster_multiplier: 4,
            cec_min_purity: 0.7,
            kdg_dedup_scale: 2.0,
            asw_max_batches: 4,
            asw_max_items: 16_384,
            asw_base_decay: 0.05,
            asw_rank_decay: 0.15,
            asw_disorder_boost: 1.0,
            asw_min_weight: 0.05,
            learning_rate: 0.3,
            optimizer: OptimizerKind::Sgd,
            pca_warmup_rows: 512,
            pca_components: 4,
            shift_history: 20,
            shift_recency_decay: 0.9,
            distribution_memory: 200,
            precompute_subsets: 4,
            asw_update_epochs: 2,
            seed: 42,
            enable_cec: true,
            enable_knowledge: true,
            enable_pseudo_labels: false,
            pseudo_label_min_purity: default_pseudo_label_min_purity(),
        }
    }
}

impl FreewayConfig {
    /// Validates internal consistency without panicking.
    ///
    /// Returns a message naming the offending field on the first violated
    /// constraint. This is what [`crate::builder::PipelineBuilder`] calls;
    /// [`Self::validate`] is the panicking form for call sites that treat
    /// a bad configuration as a programmer error.
    pub fn check(&self) -> Result<(), String> {
        fn ensure(ok: bool, msg: &str) -> Result<(), String> {
            if ok {
                Ok(())
            } else {
                Err(msg.to_string())
            }
        }
        ensure(self.model_num >= 1, "model_num must be at least 1")?;
        ensure(self.mini_batch > 0, "mini_batch must be positive")?;
        ensure(self.kdg_buffer > 0, "kdg_buffer must be positive")?;
        ensure(self.alpha > 0.0, "alpha must be positive")?;
        ensure((0.0..=1.0).contains(&self.beta), "beta must be in [0, 1]")?;
        ensure(self.ensemble_sigma > 0.0, "ensemble_sigma must be positive")?;
        ensure((0.0..=1.0).contains(&self.cec_min_purity), "cec_min_purity must be in [0, 1]")?;
        ensure(self.asw_max_batches >= 1, "asw_max_batches must be at least 1")?;
        ensure(self.asw_max_items > 0, "asw_max_items must be positive")?;
        ensure((0.0..1.0).contains(&self.asw_base_decay), "asw_base_decay must be in [0, 1)")?;
        ensure(self.asw_min_weight > 0.0, "asw_min_weight must be positive")?;
        ensure(self.learning_rate > 0.0, "learning_rate must be positive")?;
        ensure(self.pca_warmup_rows >= 2, "pca_warmup_rows must be at least 2")?;
        ensure(self.pca_components >= 1, "pca_components must be at least 1")?;
        ensure(self.shift_history >= 2, "shift_history must be at least 2")?;
        ensure(
            (0.0..=1.0).contains(&self.shift_recency_decay),
            "shift_recency_decay must be in [0, 1]",
        )?;
        ensure(self.precompute_subsets >= 1, "precompute_subsets must be at least 1")?;
        ensure(self.asw_update_epochs >= 1, "asw_update_epochs must be at least 1")?;
        ensure(
            (0.0..=1.0).contains(&self.pseudo_label_min_purity),
            "pseudo_label_min_purity must be in [0, 1]",
        )?;
        Ok(())
    }

    /// Validates internal consistency; call after manual field edits.
    ///
    /// # Panics
    /// Panics on invalid combinations, with a message naming the field.
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }

    /// The CEC experience capacity in points.
    pub fn experience_points(&self) -> usize {
        (self.exp_buffer * self.mini_batch).min(self.exp_point_cap).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_template() {
        let c = FreewayConfig::default();
        assert_eq!(c.model_num, 2);
        assert_eq!(c.mini_batch, 1024);
        assert_eq!(c.kdg_buffer, 20);
        assert_eq!(c.exp_buffer, 10);
        assert!((c.alpha - 1.96).abs() < 1e-12);
        c.validate();
    }

    #[test]
    fn experience_points_is_capped() {
        let c = FreewayConfig::default();
        assert_eq!(c.experience_points(), 512, "10 * 1024 capped at 512");
        let small = FreewayConfig { mini_batch: 10, exp_buffer: 3, ..Default::default() };
        assert_eq!(small.experience_points(), 30);
    }

    #[test]
    fn check_reports_errors_naming_the_field() {
        let c = FreewayConfig {
            alpha: 2.5,
            mini_batch: 256,
            seed: 7,
            enable_cec: false,
            ..Default::default()
        };
        assert!(c.check().is_ok());

        // Each bad value must be rejected here rather than trip an
        // assertion once a learner is built or fed.
        for (bad, field) in [
            (FreewayConfig { learning_rate: 0.0, ..Default::default() }, "learning_rate"),
            (
                FreewayConfig { shift_recency_decay: -1.0, ..Default::default() },
                "shift_recency_decay",
            ),
            (FreewayConfig { cec_min_purity: 2.0, ..Default::default() }, "cec_min_purity"),
        ] {
            let err = bad.check().expect_err(field);
            assert!(err.contains(field), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn validate_rejects_bad_alpha() {
        FreewayConfig { alpha: -1.0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn validate_rejects_bad_beta() {
        FreewayConfig { beta: 2.0, ..Default::default() }.validate();
    }
}

#[cfg(test)]
mod optimizer_tests {
    use super::*;

    #[test]
    fn every_optimizer_kind_builds_and_steps() {
        for kind in [
            OptimizerKind::Sgd,
            OptimizerKind::Momentum { mu: 0.9 },
            OptimizerKind::Adam,
            OptimizerKind::Ftrl,
        ] {
            let mut opt = kind.build(0.1);
            let delta = opt.step(&[1.0, -2.0], &[0.5, 0.5]);
            assert_eq!(delta.len(), 2, "{kind:?}");
            assert!(delta.iter().all(|d| d.is_finite()));
        }
    }

    #[test]
    fn optimizer_kind_serde_roundtrips() {
        let kind = OptimizerKind::Momentum { mu: 0.8 };
        let json = serde_json::to_string(&kind).unwrap();
        let back: OptimizerKind = serde_json::from_str(&json).unwrap();
        assert_eq!(kind, back);
    }
}
