//! The acceptance drill for the overload-resilient runtime (ISSUE
//! §overload): a 4× arrival burst against a deliberately slowed train
//! stage must finish with zero panics, bounded producer latency and
//! memory, and prequential accuracy within three points of an unloaded
//! run on the same stream seed. A second drill corrupts the newest
//! checkpoint generation on disk and requires restore to fall back to an
//! older, intact one.

use std::time::Duration;

use freeway_chaos::{
    paired_per_seq, run_overload_prequential, simulate_overload, BurstSchedule, OverloadConfig,
    SimOverloadConfig,
};
use freeway_core::admission::{AdmissionConfig, AdmissionPolicy};
use freeway_core::persistence::CheckpointStore;
use freeway_core::supervisor::SupervisorConfig;
use freeway_core::{FreewayConfig, Learner, PipelineBuilder};
use freeway_ml::ModelSpec;
use freeway_streams::datasets::electricity;
use freeway_streams::StreamGenerator;

const STREAM_SEED: u64 = 2121;
const BATCH_SIZE: usize = 96;

fn learner(stream: &dyn StreamGenerator) -> Learner {
    PipelineBuilder::new(ModelSpec::lr(stream.num_features(), stream.num_classes()))
        .with_config(FreewayConfig {
            pca_warmup_rows: 192,
            mini_batch: BATCH_SIZE,
            ..Default::default()
        })
        .build_learner()
        .expect("valid configuration")
}

fn drill_config(schedule: BurstSchedule, train_delay: Duration) -> OverloadConfig {
    OverloadConfig {
        admission: AdmissionConfig { policy: AdmissionPolicy::SheddingNewest, ladder: true },
        supervisor: SupervisorConfig { queue_depth: 8, ..Default::default() },
        schedule,
        tick: Duration::from_millis(10),
        ticks: 80,
        batch_size: BATCH_SIZE,
        train_delay,
        persist_delay: Duration::ZERO,
    }
}

// The drill budgets real wall-clock stage times (10ms ticks against a
// 6ms slowed train stage); debug-profile compute blows those budgets and
// turns the burst overload into a sustained one, so the envelope is
// enforced in release via the ci.sh overload gate.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive: run under --release (ci.sh gate)")]
fn overload_drill_bounds_latency_memory_and_accuracy() {
    // Unloaded reference: same stream seed, same arrival count, healthy
    // worker, blocking admission — nothing shed, nothing degraded.
    // 4× burst peaks over a baseline the slowed worker can sustain: the
    // bursts overflow the worker queue (shedding + degradation), the gaps
    // between them let the ladder walk back up.
    let schedule = BurstSchedule { base: 1, burst: 4, period: 20, duty: 3 };
    let mut clean = electricity(STREAM_SEED);
    let mut reference_cfg = drill_config(schedule, Duration::ZERO);
    reference_cfg.admission.policy = AdmissionPolicy::Block;
    reference_cfg.admission.ladder = false;
    let clean_learner = learner(&clean);
    let reference =
        run_overload_prequential(&mut clean, clean_learner, &reference_cfg).expect("unloaded run");
    assert_eq!(reference.admission.shed, 0);
    assert_eq!(reference.stats.worker_panics, 0);

    // Overloaded run: same arrivals, train stage slowed to 60% of a tick.
    let mut loaded = electricity(STREAM_SEED);
    let config = drill_config(schedule, Duration::from_millis(6));
    let loaded_learner = learner(&loaded);
    let report =
        run_overload_prequential(&mut loaded, loaded_learner, &config).expect("overload run");

    // Zero stalls/panics: the drill finishing is the no-stall claim; the
    // worker must never have crashed under load.
    assert_eq!(report.stats.worker_panics, 0, "{:?}", report.stats);
    assert_eq!(report.stats.restarts, 0, "{:?}", report.stats);

    // Overload really happened and was answered by shedding.
    assert!(report.admission.shed > 0, "4x burst against a slow worker must shed");

    // Bounded producer latency: p99 well under the deadline a blocking
    // producer would have blown (the worker needs 8ms per batch; a
    // blocked producer would see multiples of that at every burst).
    let p99 = report.feed_latency_quantile(0.99);
    assert!(p99 < Duration::from_millis(50), "p99 producer feed latency {p99:?}");

    // Accuracy envelope: scored on the sequence numbers both runs kept,
    // the overloaded run stays within three points of the unloaded one.
    let (loaded_acc, clean_acc) = paired_per_seq(&report.per_seq, &reference.per_seq);
    assert!(report.scored > 0, "the overloaded run still learned");
    assert!(
        (clean_acc - loaded_acc).abs() < 0.03,
        "overloaded {loaded_acc:.4} vs unloaded {clean_acc:.4}"
    );
}

#[test]
fn corrupted_newest_checkpoint_generation_falls_back_to_previous() {
    let dir = std::env::temp_dir().join("freeway-overload-corruption");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("ckpt.json");

    // Run long enough to rotate at least two checkpoint generations.
    let mut stream = electricity(STREAM_SEED);
    let mut config =
        drill_config(BurstSchedule { base: 1, burst: 1, period: 0, duty: 0 }, Duration::ZERO);
    config.supervisor.checkpoint_path = Some(path.clone());
    config.supervisor.checkpoint_every_n_batches = 4;
    config.ticks = 40;
    let lrn = learner(&stream);
    let report = run_overload_prequential(&mut stream, lrn, &config).expect("checkpointing run");
    assert!(report.stats.checkpoints_persisted >= 2, "{:?}", report.stats);

    let store = CheckpointStore::new(path, 3);
    let (_, generation) = store.load_newest().expect("intact store loads");
    assert_eq!(generation, 0, "newest generation wins while intact");

    // Chaos: trash the newest generation on disk (truncation — the CRC
    // envelope never parses). Restore must fall back to generation 1.
    std::fs::write(store.generation_path(0), b"{\"crc32\":1,\"payload\":\"gar").expect("corrupt");
    let (recovered, generation) = store.load_newest().expect("fallback restore");
    assert_eq!(generation, 1, "corrupted gen 0 falls back to gen 1");
    recovered.restore().expect("the fallback checkpoint is a working learner");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulated_overload_is_deterministic_and_degrades_gracefully() {
    let config = SimOverloadConfig {
        schedule: BurstSchedule { base: 1, burst: 4, period: 30, duty: 5 },
        ticks: 120,
        batch_size: BATCH_SIZE,
        queue_capacity: 8,
        service_per_tick: 1.25,
        degraded_speedup: 2.0,
        policy: AdmissionPolicy::SheddingNewest,
        ladder: true,
    };
    let mut a_stream = electricity(STREAM_SEED);
    let a_learner = learner(&a_stream);
    let a = simulate_overload(&mut a_stream, a_learner, &config);
    let mut b_stream = electricity(STREAM_SEED);
    let b_learner = learner(&b_stream);
    let b = simulate_overload(&mut b_stream, b_learner, &config);

    // Virtual time: two runs are byte-identical.
    assert_eq!(a.deterministic_json(), b.deterministic_json());

    // The bursts push occupancy over the ladder's knee: service degrades
    // under load and recovers between bursts instead of staying pinned.
    assert!(!a.transitions.is_empty(), "bursts must step the ladder");
    assert!(
        a.transitions.iter().any(|t| t.to != "full")
            && a.transitions.iter().any(|t| t.to == "full"),
        "both directions observed: {:?}",
        a.transitions
    );
    assert!(a.scored > 0 && a.accuracy() > 0.5, "accuracy {:.4}", a.accuracy());
}
