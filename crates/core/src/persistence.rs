//! Checkpointing: saving and restoring a learner's state.
//!
//! Deployments restart; FreewayML's value is exactly the state it
//! accumulates (trained granularity models, historical knowledge), so a
//! checkpoint captures both. The shift tracker's PCA and history are
//! deliberately **not** checkpointed: the paper freezes PCA on warm-up
//! data, and after a restart the honest move is to re-warm on current
//! data rather than resume distances against a projection fitted on a
//! possibly long-gone distribution. A restored learner therefore spends
//! one PCA warm-up answering from its (fully restored) ensemble before
//! pattern routing resumes.
//!
//! Restoring is fallible, never panicking: a checkpoint from another
//! build, another architecture, or a corrupted file is *rejected* with a
//! [`CheckpointError`] naming what disagreed, and the learner being
//! restored into is left untouched. Disk persistence goes through
//! [`Checkpoint::save_atomic`] (write temp, fsync, rename), so a crash
//! mid-write leaves the previous checkpoint intact.
//!
//! Two further layers harden the on-disk format against the failures
//! rename atomicity cannot catch (bit rot, truncation by a full disk,
//! partial copies): every file carries a CRC32 over its payload in a
//! small envelope, and a [`CheckpointStore`] keeps the last *N*
//! generations (`checkpoint.0.json` newest) so that a corrupted newest
//! file falls back to the previous good one instead of losing all
//! accumulated state. Files written by older builds (bare checkpoint,
//! no envelope) still load.

use crate::config::FreewayConfig;
use crate::error::{CheckpointError, FreewayError};
use crate::learner::Learner;
use freeway_ml::{ModelSnapshot, ModelSpec};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time.
static CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xedb8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the checksum stored in checkpoint
/// envelopes. Exposed so chaos tests can forge or verify envelopes.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// On-disk wrapper: the checkpoint JSON as an opaque string plus its
/// CRC32. The payload stays a *string* (not a nested object) so the
/// checksum is computed over the exact bytes written, independent of
/// how a JSON parser would re-order object keys.
#[derive(Serialize, Deserialize)]
struct Envelope {
    crc32: u32,
    payload: String,
}

/// Format version this build writes and accepts. Bump on any change to
/// the serialized shape; readers reject every other version instead of
/// mis-decoding state.
pub const CHECKPOINT_VERSION: u32 = 1;

fn current_version() -> u32 {
    CHECKPOINT_VERSION
}

/// A serialisable learner checkpoint.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version (see [`CHECKPOINT_VERSION`]). A file written
    /// before versioning has none, and both `serde` builds reject it:
    /// the published crate decodes the missing field as 0, which fails
    /// [`Self::validate`] as [`CheckpointError::UnsupportedVersion`];
    /// the vendored stand-in ignores `#[serde(...)]` attributes and
    /// reports the missing field as [`CheckpointError::Malformed`].
    #[serde(default)]
    pub version: u32,
    /// Configuration the learner ran with.
    pub config: FreewayConfig,
    /// Model architecture.
    pub spec: ModelSpec,
    /// Flat parameters of every granularity level, short first.
    pub level_parameters: Vec<Vec<f64>>,
    /// Preserved knowledge: (distribution fingerprint, snapshot, disorder).
    pub knowledge: Vec<(Vec<f64>, ModelSnapshot, f64)>,
    /// Highest batch sequence number the worker had processed when this
    /// checkpoint was captured — the replay floor for the ingest journal
    /// (`None` on checkpoints captured before any batch, and on files
    /// written by pre-journal builds; both mean "replay everything").
    /// Both `serde` builds decode a missing value as `None`. They write
    /// `None` differently: the published crate skips the field, so
    /// pre-journal checkpoint bytes are unchanged; the vendored stand-in
    /// ignores the attribute and writes `"journal_seq":null`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub journal_seq: Option<u64>,
}

impl Checkpoint {
    /// Captures a checkpoint from a live learner.
    pub fn capture(learner: &Learner) -> Self {
        Self {
            version: current_version(),
            config: learner.config().clone(),
            spec: learner.spec().clone(),
            level_parameters: learner.granularity().level_parameters(),
            knowledge: learner
                .knowledge()
                .entries()
                .iter()
                .map(|e| (e.distribution.clone(), e.snapshot.clone(), e.disorder))
                .collect(),
            journal_seq: None,
        }
    }

    /// Checks internal consistency without building a learner: version,
    /// level count against the checkpoint's own config, per-level
    /// parameter lengths against the spec, and knowledge snapshots
    /// against the spec.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: self.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        let expected_levels = self.config.model_num.max(1);
        if self.level_parameters.len() != expected_levels {
            return Err(CheckpointError::LevelCountMismatch {
                found: self.level_parameters.len(),
                expected: expected_levels,
            });
        }
        let expected_params = self.spec.num_parameters();
        if let Some((level, p)) =
            self.level_parameters.iter().enumerate().find(|(_, p)| p.len() != expected_params)
        {
            return Err(CheckpointError::ParameterLengthMismatch {
                level,
                found: p.len(),
                expected: expected_params,
            });
        }
        if let Some((entry, _)) =
            self.knowledge.iter().enumerate().find(|(_, (_, snap, _))| snap.spec != self.spec)
        {
            return Err(CheckpointError::SnapshotSpecMismatch { entry });
        }
        Ok(())
    }

    /// Rebuilds a learner from the checkpoint.
    ///
    /// # Errors
    /// [`FreewayError::Checkpoint`] when the checkpoint fails
    /// [`Self::validate`] — a corrupt or mismatched checkpoint is
    /// rejected, never half-restored.
    pub fn restore(&self) -> Result<Learner, FreewayError> {
        self.validate()?;
        let mut learner = Learner::new(self.spec.clone(), self.config.clone());
        learner.restore_from(self)?;
        Ok(learner)
    }

    /// JSON encoding (checkpoints are dominated by `f64` parameters, so
    /// JSON costs ~2.5× the binary size; acceptable for the model sizes
    /// the paper targets, and diffable/debuggable in return).
    pub fn to_json(&self) -> String {
        // Audited: encoding plain structs of numbers/strings to an
        // in-memory string has no failure path.
        #[allow(clippy::expect_used)]
        serde_json::to_string(self).expect("checkpoint serialises")
    }

    /// Decodes a checkpoint from JSON and validates it.
    ///
    /// # Errors
    /// [`CheckpointError::Malformed`] when the JSON does not parse, any
    /// other [`CheckpointError`] when it parses but fails validation.
    pub fn from_json(json: &str) -> Result<Self, FreewayError> {
        let checkpoint: Self =
            serde_json::from_str(json).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        checkpoint.validate()?;
        Ok(checkpoint)
    }

    /// Persists to `path` atomically: wrap the JSON in a CRC32 envelope,
    /// write to `<path>.tmp`, fsync, then rename over the destination.
    /// Readers observe either the old checkpoint or the new one — never
    /// a torn write — and silent corruption after the write is caught by
    /// the checksum on load.
    ///
    /// # Errors
    /// [`FreewayError::Io`] on any filesystem failure.
    pub fn save_atomic(&self, path: &Path) -> Result<(), FreewayError> {
        use std::io::Write as _;
        let payload = self.to_json();
        let envelope = Envelope { crc32: crc32(payload.as_bytes()), payload };
        // Audited: an in-memory struct of a u32 and a String always
        // encodes.
        #[allow(clippy::expect_used)]
        let body = serde_json::to_string(&envelope).expect("envelope serialises");
        let tmp = path.with_extension("tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(body.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads and validates a checkpoint previously written with
    /// [`Self::save_atomic`]. Accepts both the enveloped format (CRC32
    /// verified before the payload is trusted) and the legacy bare
    /// format written by older builds.
    ///
    /// # Errors
    /// [`FreewayError::Io`] when the file cannot be read,
    /// [`FreewayError::Checkpoint`] when the checksum disagrees
    /// ([`CheckpointError::CrcMismatch`]) or the payload cannot be
    /// decoded or fails validation.
    pub fn load(path: &Path) -> Result<Self, FreewayError> {
        let json = std::fs::read_to_string(path)?;
        if let Ok(envelope) = serde_json::from_str::<Envelope>(&json) {
            let computed = crc32(envelope.payload.as_bytes());
            if computed != envelope.crc32 {
                return Err(
                    CheckpointError::CrcMismatch { stored: envelope.crc32, computed }.into()
                );
            }
            return Self::from_json(&envelope.payload);
        }
        Self::from_json(&json)
    }
}

/// Generational checkpoint storage: the newest checkpoint lives at
/// `<stem>.0.<ext>`, the previous at `<stem>.1.<ext>`, and so on up to a
/// configured depth. Saving rotates generations by rename (cheap, and
/// each individual file was written atomically), so a save interrupted
/// at any point leaves at least the previous generation loadable.
/// Restoring walks generations newest-first and returns the first file
/// that passes CRC, version, and structural validation — one corrupted
/// or truncated file costs one checkpoint interval, not the run.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    base: PathBuf,
    generations: usize,
}

impl CheckpointStore {
    /// A store rooted at `base` (e.g. `dir/checkpoint.json`) keeping
    /// `generations` files. Depth is clamped to at least 1.
    pub fn new(base: impl Into<PathBuf>, generations: usize) -> Self {
        Self { base: base.into(), generations: generations.max(1) }
    }

    /// Number of generations retained.
    pub fn generations(&self) -> usize {
        self.generations
    }

    /// Path of generation `generation` (0 = newest).
    pub fn generation_path(&self, generation: usize) -> PathBuf {
        let stem = self.base.file_stem().and_then(|s| s.to_str()).unwrap_or("checkpoint");
        let ext = self.base.extension().and_then(|e| e.to_str()).unwrap_or("json");
        self.base.with_file_name(format!("{stem}.{generation}.{ext}"))
    }

    /// Persists `checkpoint` as the new generation 0, rotating existing
    /// generations down and dropping the oldest beyond the configured
    /// depth.
    ///
    /// # Errors
    /// [`FreewayError::Io`] when the new generation cannot be written;
    /// rotation failures of *older* generations are not fatal (the new
    /// checkpoint still lands).
    pub fn save(&self, checkpoint: &Checkpoint) -> Result<(), FreewayError> {
        for generation in (0..self.generations.saturating_sub(1)).rev() {
            let from = self.generation_path(generation);
            if from.exists() {
                let _ = std::fs::rename(&from, self.generation_path(generation + 1));
            }
        }
        checkpoint.save_atomic(&self.generation_path(0))
    }

    /// Loads the newest generation that passes CRC, version, and
    /// structural validation, returning it together with the generation
    /// index it came from (0 = the newest file was good). Falls back to
    /// the bare `base` path last, for files written before generational
    /// storage existed.
    ///
    /// # Errors
    /// The error from the *newest* file when every candidate fails —
    /// that is the file an operator should look at first — or
    /// [`FreewayError::Io`] with `NotFound` when no candidate exists.
    pub fn load_newest(&self) -> Result<(Checkpoint, usize), FreewayError> {
        let mut newest_error: Option<FreewayError> = None;
        for generation in 0..self.generations {
            let path = self.generation_path(generation);
            if !path.exists() {
                continue;
            }
            match Checkpoint::load(&path) {
                Ok(checkpoint) => return Ok((checkpoint, generation)),
                Err(err) => {
                    if newest_error.is_none() {
                        newest_error = Some(err);
                    }
                }
            }
        }
        if self.base.exists() {
            match Checkpoint::load(&self.base) {
                Ok(checkpoint) => return Ok((checkpoint, self.generations)),
                Err(err) => {
                    if newest_error.is_none() {
                        newest_error = Some(err);
                    }
                }
            }
        }
        Err(newest_error.unwrap_or_else(|| {
            FreewayError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no checkpoint generation found under {}", self.base.display()),
            ))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeway_streams::concept::{stream_rng, GmmConcept};
    use freeway_streams::{Batch, DriftPhase};

    fn trained_learner() -> (Learner, GmmConcept, rand::rngs::StdRng) {
        let mut rng = stream_rng(42);
        let concept = GmmConcept::random(5, 2, 2, 4.0, 0.6, &mut rng);
        let mut learner = Learner::new(
            ModelSpec::mlp(5, vec![8], 2),
            FreewayConfig {
                mini_batch: 96,
                pca_warmup_rows: 96,
                asw_max_batches: 3,
                ..Default::default()
            },
        );
        for i in 0..30 {
            let (x, y) = concept.sample_batch(96, &mut rng);
            learner.process(&Batch::labeled(x, y, i, DriftPhase::Stable));
        }
        (learner, concept, rng)
    }

    #[test]
    fn roundtrip_preserves_models_and_knowledge() {
        let (learner, concept, mut rng) = trained_learner();
        let checkpoint = Checkpoint::capture(&learner);
        let restored = checkpoint.restore().expect("self-captured checkpoint restores");

        assert_eq!(
            restored.granularity().level_parameters(),
            learner.granularity().level_parameters(),
            "every level's parameters survive"
        );
        assert_eq!(restored.knowledge().len(), learner.knowledge().len());

        // The restored ensemble predicts like the original's short model.
        let (x, _) = concept.sample_batch(128, &mut rng);
        let mut restored = restored;
        let report = restored.infer(&x);
        let original_short = learner.granularity().short_model().predict(&x);
        let agree = report.predictions.iter().zip(&original_short).filter(|(a, b)| a == b).count();
        assert!(
            agree as f64 / x.rows() as f64 > 0.9,
            "restored learner must behave like the original: {agree}/{}",
            x.rows()
        );
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let (learner, _, _) = trained_learner();
        let checkpoint = Checkpoint::capture(&learner);
        let json = checkpoint.to_json();
        let decoded = Checkpoint::from_json(&json).expect("valid json");
        assert_eq!(decoded.version, CHECKPOINT_VERSION);
        assert_eq!(decoded.level_parameters, checkpoint.level_parameters);
        assert_eq!(decoded.knowledge.len(), checkpoint.knowledge.len());
        for (a, b) in decoded.knowledge.iter().zip(&checkpoint.knowledge) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn restored_learner_keeps_learning() {
        let (learner, concept, mut rng) = trained_learner();
        let mut restored =
            Checkpoint::capture(&learner).restore().expect("self-captured checkpoint restores");
        // Continue the stream through the restored learner; accuracy must
        // stay high (the restored models carry the learned state through
        // the PCA re-warm-up).
        let mut correct = 0;
        let mut total = 0;
        for i in 0..10 {
            let (x, y) = concept.sample_batch(96, &mut rng);
            let report =
                restored.process(&Batch::labeled(x, y.clone(), 100 + i, DriftPhase::Stable));
            correct += report.predictions.iter().zip(&y).filter(|(p, t)| p == t).count();
            total += y.len();
        }
        assert!(correct as f64 / total as f64 > 0.8, "post-restore accuracy {correct}/{total}");
    }

    #[test]
    fn restore_rejects_mismatched_levels() {
        let (learner, _, _) = trained_learner();
        let mut checkpoint = Checkpoint::capture(&learner);
        checkpoint.level_parameters.pop();
        match checkpoint.restore().err() {
            Some(FreewayError::Checkpoint(CheckpointError::LevelCountMismatch {
                found: 1,
                expected: 2,
            })) => {}
            other => panic!("expected LevelCountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_truncated_parameters() {
        let (learner, _, _) = trained_learner();
        let mut checkpoint = Checkpoint::capture(&learner);
        checkpoint.level_parameters[1].truncate(3);
        match checkpoint.restore().err() {
            Some(FreewayError::Checkpoint(CheckpointError::ParameterLengthMismatch {
                level: 1,
                found: 3,
                ..
            })) => {}
            other => panic!("expected ParameterLengthMismatch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        let (learner, _, _) = trained_learner();
        let mut checkpoint = Checkpoint::capture(&learner);
        checkpoint.version = CHECKPOINT_VERSION + 1;
        let json = checkpoint.to_json();
        match Checkpoint::from_json(&json) {
            Err(FreewayError::Checkpoint(CheckpointError::UnsupportedVersion {
                found,
                supported,
            })) => {
                assert_eq!(found, CHECKPOINT_VERSION + 1);
                assert_eq!(supported, CHECKPOINT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // Pre-versioning checkpoints deserialize as version 0 and are
        // rejected the same way, not mis-decoded.
        checkpoint.version = 0;
        assert!(matches!(
            Checkpoint::from_json(&checkpoint.to_json()),
            Err(FreewayError::Checkpoint(CheckpointError::UnsupportedVersion { found: 0, .. }))
        ));
    }

    #[test]
    fn checkpoint_without_a_version_is_rejected() {
        let (learner, _, _) = trained_learner();
        let json = Checkpoint::capture(&learner).to_json();
        let unversioned = json.replacen(&format!("\"version\":{CHECKPOINT_VERSION},"), "", 1);
        assert_ne!(json, unversioned, "fixture must drop the version key");
        // UnsupportedVersion with the published serde, Malformed with the
        // vendored stand-in: a checkpoint error either way.
        let decoded = Checkpoint::from_json(&unversioned);
        assert!(matches!(decoded, Err(FreewayError::Checkpoint(_))), "{decoded:?}");
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        assert!(matches!(
            Checkpoint::from_json("{\"version\": 1, \"garbage\":"),
            Err(FreewayError::Checkpoint(CheckpointError::Malformed(_)))
        ));
    }

    #[test]
    fn save_atomic_then_load_roundtrips() {
        let (learner, _, _) = trained_learner();
        let checkpoint = Checkpoint::capture(&learner);
        let dir = std::env::temp_dir().join("freeway-persistence-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ckpt.json");
        checkpoint.save_atomic(&path).expect("save succeeds");
        assert!(!path.with_extension("tmp").exists(), "temp file renamed away");
        let loaded = Checkpoint::load(&path).expect("load succeeds");
        assert_eq!(loaded.level_parameters, checkpoint.level_parameters);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn corrupted_payload_fails_crc_not_parse() {
        let (learner, _, _) = trained_learner();
        let checkpoint = Checkpoint::capture(&learner);
        let dir = std::env::temp_dir().join("freeway-crc-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ckpt.json");
        checkpoint.save_atomic(&path).expect("save succeeds");
        // Flip one digit without breaking the JSON structure: the
        // envelope still parses, the checksum must not. A digit swap is
        // safe anywhere it lands (stored CRC or payload — either way the
        // two sides disagree), and the serialized version field
        // guarantees a `1` exists.
        let body = std::fs::read_to_string(&path).expect("readable");
        let tampered = body.replacen('1', "2", 1);
        assert_ne!(body, tampered, "fixture must actually change a byte");
        std::fs::write(&path, tampered).expect("writable");
        assert!(matches!(
            Checkpoint::load(&path),
            Err(FreewayError::Checkpoint(CheckpointError::CrcMismatch { .. }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_with_retired_config_fields_still_restores() {
        // Version-1 checkpoints written before `parallel_inference`,
        // `async_long_updates`, `num_threads` and `parallel_gradient` left
        // `FreewayConfig` still carry them.
        let (learner, concept, mut rng) = trained_learner();
        let json = Checkpoint::capture(&learner).to_json();
        let legacy = json.replacen(
            "\"config\":{",
            "\"config\":{\"parallel_inference\":true,\"async_long_updates\":false,\
             \"num_threads\":4,\"parallel_gradient\":true,",
            1,
        );
        assert_ne!(json, legacy, "fixture must carry the retired fields");
        let restored = Checkpoint::from_json(&legacy)
            .and_then(|checkpoint| checkpoint.restore())
            .expect("unknown config fields are ignored");
        assert_eq!(
            restored.granularity().level_parameters(),
            learner.granularity().level_parameters()
        );
        let (x, _) = concept.sample_batch(128, &mut rng);
        assert_eq!(
            restored.granularity().short_model().predict(&x),
            learner.granularity().short_model().predict(&x)
        );
        assert_eq!(
            restored.granularity().long_model().predict(&x),
            learner.granularity().long_model().predict(&x)
        );
    }

    #[test]
    fn legacy_bare_checkpoint_still_loads() {
        let (learner, _, _) = trained_learner();
        let checkpoint = Checkpoint::capture(&learner);
        let dir = std::env::temp_dir().join("freeway-legacy-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ckpt.json");
        std::fs::write(&path, checkpoint.to_json()).expect("writable");
        let loaded = Checkpoint::load(&path).expect("legacy format loads");
        assert_eq!(loaded.level_parameters, checkpoint.level_parameters);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_rotates_generations_and_falls_back_past_corruption() {
        let (mut learner, concept, mut rng) = trained_learner();
        let first = Checkpoint::capture(&learner);
        let (x, y) = concept.sample_batch(96, &mut rng);
        learner.process(&Batch::labeled(x, y, 100, DriftPhase::Stable));
        let second = Checkpoint::capture(&learner);
        assert_ne!(first.level_parameters, second.level_parameters, "fixture must differ");

        let dir = std::env::temp_dir().join("freeway-store-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let store = CheckpointStore::new(dir.join("checkpoint.json"), 3);
        store.save(&first).expect("first save");
        store.save(&second).expect("second save");
        assert!(store.generation_path(0).exists());
        assert!(store.generation_path(1).exists());

        let (loaded, generation) = store.load_newest().expect("newest loads");
        assert_eq!(generation, 0);
        assert_eq!(loaded.level_parameters, second.level_parameters);

        // Truncate the newest file: restore must fall back to the
        // previous generation instead of failing.
        let newest = store.generation_path(0);
        let body = std::fs::read_to_string(&newest).expect("readable");
        std::fs::write(&newest, &body[..body.len() / 2]).expect("truncatable");
        let (recovered, generation) = store.load_newest().expect("fallback loads");
        assert_eq!(generation, 1);
        assert_eq!(recovered.level_parameters, first.level_parameters);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_caps_retained_generations() {
        let (learner, _, _) = trained_learner();
        let checkpoint = Checkpoint::capture(&learner);
        let dir = std::env::temp_dir().join("freeway-store-cap-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let store = CheckpointStore::new(dir.join("checkpoint.json"), 2);
        for _ in 0..4 {
            store.save(&checkpoint).expect("save");
        }
        assert!(store.generation_path(0).exists());
        assert!(store.generation_path(1).exists());
        assert!(!store.generation_path(2).exists(), "oldest generations are dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_reports_not_found() {
        let dir = std::env::temp_dir().join("freeway-store-empty-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let store = CheckpointStore::new(dir.join("checkpoint.json"), 3);
        assert!(matches!(store.load_newest(), Err(FreewayError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
