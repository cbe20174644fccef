//! Overload drill for the admission-controlled runtime.
//!
//! Drives the virtual-time overload simulator: a 4× burst arrival
//! schedule against a server that can sustain only the baseline rate,
//! fronted by a shedding admission controller and the graceful
//! degradation ladder. Prints the admission ledger, the ladder's
//! transition timeline, and the prequential accuracy under load, then
//! writes the deterministic report to `results/OVERLOAD_drill.json`
//! (byte-identical across runs on the same seed).
//!
//! ```sh
//! cargo run --release --example overload_drill
//! ```

use std::fs;
use std::path::Path;

use freewayml::chaos::{simulate_overload, BurstSchedule, SimOverloadConfig};
use freewayml::core::admission::AdmissionPolicy;
use freewayml::prelude::*;
use freewayml::streams::datasets::electricity;

fn main() {
    let stream_seed = 2121;
    let config = SimOverloadConfig {
        schedule: BurstSchedule { base: 1, burst: 4, period: 30, duty: 5 },
        ticks: 120,
        batch_size: 96,
        queue_capacity: 8,
        service_per_tick: 1.25,
        degraded_speedup: 2.0,
        policy: AdmissionPolicy::SheddingNewest,
        ladder: true,
    };

    let mut stream = electricity(stream_seed);
    let learner = PipelineBuilder::new(ModelSpec::lr(stream.num_features(), stream.num_classes()))
        .with_config(FreewayConfig { pca_warmup_rows: 192, mini_batch: 96, ..Default::default() })
        .build_learner()
        .expect("valid configuration");
    let report = simulate_overload(&mut stream, learner, &config);

    println!(
        "arrivals: {} offered over {} ticks ({}x burst every {} ticks)",
        report.offered, config.ticks, config.schedule.burst, config.schedule.period
    );
    println!(
        "admission: {} admitted, {} shed, queue peak {}/{}",
        report.admitted,
        report.shed_total(),
        report.queue_peak,
        config.queue_capacity
    );
    for (reason, count) in &report.shed_by_reason {
        println!("  shed [{reason}]: {count}");
    }
    println!("service by ladder level:");
    for (level, count) in &report.processed_by_level {
        println!("  {level:<14} {count} batches");
    }
    println!("ladder transitions:");
    for t in &report.transitions {
        println!("  tick {:>3}: {} -> {}", t.tick, t.from, t.to);
    }
    println!(
        "prequential accuracy under overload: {:.4} ({}/{} scored)",
        report.accuracy(),
        report.correct,
        report.scored
    );

    let out = Path::new("results").join("OVERLOAD_drill.json");
    fs::create_dir_all("results").expect("results directory");
    fs::write(&out, report.deterministic_json() + "\n").expect("write drill artifact");
    println!("\nwrote {}", out.display());
}
