//! The rate-aware adjuster under a simulated traffic spike (§V-B).
//!
//! A rate-simulated source feeds the threaded pipeline. When the flow
//! rate spikes past the threshold, the adjuster raises the ASW decay
//! multiplier (cheapening long-model updates) and scales how many
//! batches are consumed per scheduling tick with queue pressure.
//!
//! ```sh
//! cargo run --release --example rate_adaptive
//! ```

use freewayml::core::pipeline::Pipeline;
use freewayml::core::rate::{RateAdjusterParams, RateAwareAdjuster};
use freewayml::prelude::*;
use freewayml::streams::source::SimulatedSource;

fn main() {
    let batch_size = 256;
    let mut source = SimulatedSource::new(
        Box::new(Hyperplane::new(10, 0.02, 0.05, 3)),
        20_000.0, // items per simulated second
        100_000.0,
    );
    let adjuster = RateAwareAdjuster::new(RateAdjusterParams {
        rate_threshold: 40_000.0,
        ..Default::default()
    });

    let learner = Learner::new(
        ModelSpec::lr(10, 2),
        FreewayConfig { mini_batch: batch_size, ..Default::default() },
    );
    let config = SupervisorConfig { queue_depth: 32, ..Default::default() };
    let mut pipeline = Pipeline::with_learner(learner, config).expect("valid queue depth");

    println!("tick | rate     | pressure | batches/tick | decay x");
    println!("-----+----------+----------+--------------+--------");
    let mut seq = 0u64;
    for tick in 0..30 {
        // Simulated traffic spike between ticks 10 and 20.
        if tick == 10 {
            source.set_rate(120_000.0);
        }
        if tick == 20 {
            source.set_rate(20_000.0);
        }
        source.advance(0.05);

        let adj = adjuster.adjust(source.pressure(), source.rate());
        println!(
            "{tick:>4} | {:>8.0} | {:>8.2} | {:>12} | {:>6.2}",
            source.rate(),
            source.pressure(),
            adj.inference_batches,
            adj.decay_multiplier
        );

        for _ in 0..adj.inference_batches {
            if let Some(batch) = source.try_take_batch(batch_size) {
                pipeline.feed_prequential(batch.clone()).expect("worker alive");
                seq += 1;
            }
        }
        // Drain available outputs without blocking the producer loop.
        while pipeline.try_recv().expect("worker alive").is_some() {}
    }

    let learner = pipeline.finish().expect("clean shutdown").learner;
    println!(
        "\nprocessed ~{seq} batches; dropped {:.0} items at the source; \
         selector ready: {}",
        source.dropped_items(),
        learner.selector().is_ready()
    );
}
