//! Shared experiment scaffolding: scale knobs, model specs per dataset,
//! and system construction.

use freeway_baselines::{FreewaySystem, StreamingLearner};
use freeway_core::FreewayConfig;
use freeway_ml::ModelSpec;
use freeway_streams::{datasets, StreamGenerator};

/// The six Table-I benchmark datasets, in paper order.
pub const BENCHMARKS: [&str; 6] =
    ["Hyperplane", "SEA", "Airlines", "Covertype", "NSL-KDD", "Electricity"];

/// Scale knobs every experiment accepts.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Measured batches per run.
    pub batches: usize,
    /// Rows per batch.
    pub batch_size: usize,
    /// Train-only warm-up batches before measurement.
    pub warmup: usize,
    /// Base seed; runs derive per-system/dataset seeds from it.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Self { batches: 200, batch_size: 256, warmup: 4, seed: 7 }
    }
}

impl Scale {
    /// Reads `FREEWAY_BATCHES`, `FREEWAY_BATCH_SIZE`, `FREEWAY_WARMUP`,
    /// and `FREEWAY_SEED` from the environment over the defaults, so the
    /// binaries can be scaled up to paper size without recompilation.
    pub fn from_env() -> Self {
        let mut s = Self::default();
        let read = |key: &str| std::env::var(key).ok().and_then(|v| v.parse::<usize>().ok());
        if let Some(v) = read("FREEWAY_BATCHES") {
            s.batches = v.max(1);
        }
        if let Some(v) = read("FREEWAY_BATCH_SIZE") {
            s.batch_size = v.max(1);
        }
        if let Some(v) = read("FREEWAY_WARMUP") {
            s.warmup = v;
        }
        if let Some(v) = read("FREEWAY_SEED") {
            s.seed = v as u64;
        }
        s
    }

    /// A fast scale for unit tests.
    pub fn tiny() -> Self {
        Self { batches: 30, batch_size: 96, warmup: 3, seed: 7 }
    }
}

/// The model families of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelFamily {
    /// Streaming logistic regression.
    Lr,
    /// Streaming MLP.
    Mlp,
    /// Streaming CNN (appendix experiments).
    Cnn,
}

impl ModelFamily {
    /// Display tag.
    pub fn tag(self) -> &'static str {
        match self {
            Self::Lr => "LR",
            Self::Mlp => "MLP",
            Self::Cnn => "CNN",
        }
    }

    /// Builds the family's spec for a stream of `features` x `classes`.
    ///
    /// MLP uses one 32-wide hidden layer (the lightweight structure the
    /// paper targets); CNN mirrors the appendix (32 kernels of width 3,
    /// narrowing to width 2 for very short feature vectors such as SEA's).
    pub fn spec(self, features: usize, classes: usize) -> ModelSpec {
        match self {
            Self::Lr => ModelSpec::lr(features, classes),
            Self::Mlp => ModelSpec::mlp(features, vec![32], classes),
            Self::Cnn => {
                let kernel = if features >= 6 { 3 } else { 2 };
                ModelSpec::cnn(features, 32, kernel, classes)
            }
        }
    }

    /// Baseline systems the paper pairs with this family in Table I.
    pub fn paper_baselines(self) -> &'static [&'static str] {
        match self {
            Self::Lr => &["flinkml", "sparkmllib", "alink"],
            Self::Mlp => &["river", "camel", "agem"],
            Self::Cnn => &["plain"],
        }
    }
}

/// Builds a benchmark stream by paper name.
pub fn dataset(name: &str, seed: u64) -> Box<dyn StreamGenerator> {
    datasets::by_name(name, seed)
}

/// FreewayML configuration used across the evaluation: paper defaults,
/// with the mini-batch and warm-up sized to the experiment scale.
pub fn freeway_config(scale: &Scale) -> FreewayConfig {
    FreewayConfig {
        mini_batch: scale.batch_size,
        // PCA must warm within the train-only warm-up batches so measured
        // batches all flow through the strategy selector.
        pca_warmup_rows: (scale.warmup.max(1) * scale.batch_size).min(512),
        seed: scale.seed,
        ..Default::default()
    }
}

/// Builds a system by name for a dataset/family pair.
pub fn build_system(
    name: &str,
    family: ModelFamily,
    features: usize,
    classes: usize,
    scale: &Scale,
) -> Box<dyn StreamingLearner> {
    let spec = family.spec(features, classes);
    if name.eq_ignore_ascii_case("freewayml") {
        Box::new(FreewaySystem::with_config(spec, freeway_config(scale)))
    } else {
        freeway_baselines::by_name(name, spec, scale.seed)
    }
}

/// Builds a FreewayML system with specific mechanisms enabled (the
/// per-mechanism studies of Figures 9 and 12).
pub fn build_freeway_variant(
    family: ModelFamily,
    features: usize,
    classes: usize,
    scale: &Scale,
    model_num: usize,
    enable_cec: bool,
    enable_knowledge: bool,
) -> Box<dyn StreamingLearner> {
    let spec = family.spec(features, classes);
    let config = FreewayConfig { model_num, enable_cec, enable_knowledge, ..freeway_config(scale) };
    Box::new(FreewaySystem::with_config(spec, config))
}

/// Writes an experiment's JSON record under `results/` (cwd-relative),
/// creating the directory if needed. Errors are reported, not fatal —
/// the printed table is the primary artifact.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialise {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_fit_every_benchmark() {
        for name in BENCHMARKS {
            let g = dataset(name, 1);
            for family in [ModelFamily::Lr, ModelFamily::Mlp, ModelFamily::Cnn] {
                let spec = family.spec(g.num_features(), g.num_classes());
                let model = spec.build(0);
                assert_eq!(model.num_features(), g.num_features(), "{name}/{family:?}");
            }
        }
    }

    #[test]
    fn build_system_covers_freeway_and_baselines() {
        let scale = Scale::tiny();
        for name in ["freewayml", "flinkml", "river"] {
            let s = build_system(name, ModelFamily::Lr, 5, 2, &scale);
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn scale_from_env_falls_back_to_defaults() {
        let s = Scale::from_env();
        assert!(s.batches >= 1 && s.batch_size >= 1);
    }
}
