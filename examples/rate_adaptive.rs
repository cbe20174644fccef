//! The rate-aware adjuster under a simulated traffic spike (§V-B).
//!
//! A rate-simulated source feeds a [`Learner`] directly. On every
//! scheduling tick the adjuster reads the flow rate and the source's
//! buffer pressure, and the loop applies both of its outputs: how many
//! batches the learner consumes this tick, and the ASW decay multiplier
//! (`Learner::set_decay_multiplier`). Past the rate threshold the
//! multiplier rises, so window contents decay faster and long-model
//! updates fire less often.
//!
//! ```sh
//! cargo run --release --example rate_adaptive
//! ```

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
    let mut learner = Learner::new(
        ModelSpec::lr(10, 2),
        FreewayConfig { mini_batch: batch_size, ..Default::default() },
    );

    println!("tick | rate     | pressure | batches/tick | decay x");
    println!("-----+----------+----------+--------------+--------");
    let mut processed = 0u64;
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
        learner.set_decay_multiplier(adj.decay_multiplier);
        println!(
            "{tick:>4} | {:>8.0} | {:>8.2} | {:>12} | {:>6.2}",
            source.rate(),
            source.pressure(),
            adj.inference_batches,
            adj.decay_multiplier
        );

        for _ in 0..adj.inference_batches {
            if let Some(batch) = source.try_take_batch(batch_size) {
                learner.process(&batch);
                processed += 1;
            }
        }
    }

    println!(
        "\nprocessed {processed} batches; dropped {:.0} items at the source; \
         selector ready: {}",
        source.dropped_items(),
        learner.selector().is_ready()
    );
}
