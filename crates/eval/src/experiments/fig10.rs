//! Figure 10: throughput vs batch size on the Hyperplane workload.
//!
//! Every framework runs infer-then-train over the same stream at batch
//! sizes 256–2048; throughput is total items divided by total processing
//! time (the figure's y-axis).

use crate::experiments::common::{build_system, ModelFamily, Scale};
use crate::prequential::run_prequential;
use freeway_streams::Hyperplane;
use serde::Serialize;

/// Batch sizes swept by the paper's Figure 10.
pub const BATCH_SIZES: [usize; 4] = [256, 512, 1024, 2048];

/// One (family, system, batch size) throughput point.
#[derive(Clone, Debug, Serialize)]
pub struct Point {
    /// Model family tag.
    pub model: String,
    /// System name.
    pub system: String,
    /// Batch size.
    pub batch_size: usize,
    /// Measured throughput (items/second).
    pub items_per_sec: f64,
}

/// Full Figure-10 result set.
#[derive(Clone, Debug, Serialize)]
pub struct Fig10 {
    /// All measured points.
    pub points: Vec<Point>,
}

/// Runs the sweep. `scale.batches` controls the batches measured per
/// point (throughput needs fewer than accuracy studies).
pub fn run(scale: &Scale) -> Fig10 {
    run_families(scale, &[ModelFamily::Lr, ModelFamily::Mlp], &BATCH_SIZES)
}

/// Parameterised sweep used by tests and the CNN appendix.
pub fn run_families(scale: &Scale, families: &[ModelFamily], batch_sizes: &[usize]) -> Fig10 {
    Fig10 { points: sweep(scale, families, batch_sizes).iter().map(BenchPoint::point).collect() }
}

/// One throughput point with the caller thread's allocation counts.
#[derive(Clone, Debug, Serialize)]
pub struct BenchPoint {
    /// Model family tag.
    pub model: String,
    /// System name.
    pub system: String,
    /// Batch size.
    pub batch_size: usize,
    /// Measured throughput (items/second).
    pub items_per_sec: f64,
    /// Heap allocations per stream item on the caller thread during the
    /// measured run, or `-1.0` when the binary was built without the
    /// `alloc-metrics` feature.
    pub allocs_per_item: f64,
    /// Heap bytes requested per stream item on the caller thread during
    /// the measured run, or `-1.0` when not measured.
    pub bytes_per_item: f64,
}

impl BenchPoint {
    /// The Figure-10 fields of this point.
    fn point(&self) -> Point {
        Point {
            model: self.model.clone(),
            system: self.system.clone(),
            batch_size: self.batch_size,
            items_per_sec: self.items_per_sec,
        }
    }
}

/// The machine-readable `results/BENCH_throughput.json` artifact.
#[derive(Clone, Debug, Serialize)]
pub struct BenchThroughput {
    /// Cores available on the measuring host (context for the numbers).
    pub host_cores: usize,
    /// All measured points.
    pub points: Vec<BenchPoint>,
    /// Per-kernel GFLOP/s at the shipped shapes, so a kernel regression
    /// is attributable without re-deriving it from items/second. Empty
    /// when the caller skipped the micro sweep.
    pub kernel_microbench: Vec<crate::kernel_bench::KernelBenchPoint>,
    /// Shard-scaling sweep over the sharded multi-tenant runtime
    /// (items/s per shard count over interleaved keyed streams). Empty
    /// when the caller skipped the shard sweep.
    pub shard_scaling: Vec<crate::shard_bench::ShardScalingPoint>,
    /// Many-clients serving sweep over the serving facade (aggregate
    /// items/s and round-trip percentiles per closed-loop client
    /// count). Empty when the caller skipped the serving sweep.
    pub serving: Vec<crate::serving_bench::ServingPoint>,
}

/// Runs the Figure-10 sweep once with allocation counts; the other
/// sections start empty for the caller to fill.
pub fn run_bench(
    scale: &Scale,
    families: &[ModelFamily],
    batch_sizes: &[usize],
) -> BenchThroughput {
    BenchThroughput {
        host_cores: std::thread::available_parallelism().map_or(1, usize::from),
        points: sweep(scale, families, batch_sizes),
        kernel_microbench: Vec::new(),
        shard_scaling: Vec::new(),
        serving: Vec::new(),
    }
}

/// Every framework of each family, infer-then-train at every batch size.
fn sweep(scale: &Scale, families: &[ModelFamily], batch_sizes: &[usize]) -> Vec<BenchPoint> {
    let mut points = Vec::new();
    for &family in families {
        let mut systems: Vec<&str> = family.paper_baselines().to_vec();
        systems.push("freewayml");
        for &bs in batch_sizes {
            for sys in &systems {
                let mut generator = Hyperplane::new(10, 0.02, 0.05, scale.seed);
                let point_scale = Scale { batch_size: bs, ..*scale };
                let mut learner = build_system(sys, family, 10, 2, &point_scale);
                let before = crate::alloc_metrics::snapshot();
                let result = run_prequential(
                    learner.as_mut(),
                    &mut generator,
                    scale.batches,
                    bs,
                    scale.warmup,
                );
                // Caller-thread allocations per measured item; -1 when
                // the alloc-metrics feature is off. Includes the stream
                // generator and warmup, so warm zero-alloc hot paths
                // show up as a small constant, not exactly zero.
                let items = (scale.batches * bs) as f64;
                let (allocs_per_item, bytes_per_item) = before
                    .and_then(|b| crate::alloc_metrics::since(&b))
                    .map_or((-1.0, -1.0), |d| (d.allocs as f64 / items, d.bytes as f64 / items));
                points.push(BenchPoint {
                    model: format!("Streaming{}", family.tag()),
                    system: result.system.clone(),
                    batch_size: bs,
                    items_per_sec: result.throughput_items_per_sec(),
                    allocs_per_item,
                    bytes_per_item,
                });
            }
        }
    }
    points
}

impl BenchThroughput {
    /// Renders the Figure-10 blocks (one per family: rows = system,
    /// columns = batch size, cells = items/s), then each non-empty
    /// section.
    pub fn render(&self) -> String {
        let mut out = format!("Host: {} core(s)\n", self.host_cores);
        out.push_str(
            &Fig10 { points: self.points.iter().map(BenchPoint::point).collect() }.render(),
        );
        if !self.shard_scaling.is_empty() {
            out.push_str("== Shard scaling (interleaved keyed streams) ==\n");
            let header =
                vec!["Shards".to_string(), "Keys".into(), "items/s".into(), "vs 1 shard".into()];
            let rows: Vec<Vec<String>> = self
                .shard_scaling
                .iter()
                .map(|p| {
                    vec![
                        p.shards.to_string(),
                        p.keys.to_string(),
                        format!("{:.0}", p.items_per_sec),
                        format!("{:.2}x", p.speedup_vs_one_shard),
                    ]
                })
                .collect();
            out.push_str(&crate::metrics::render_table(&header, &rows));
        }
        if !self.serving.is_empty() {
            out.push_str("== Serving (closed-loop clients over the service facade) ==\n");
            let header = vec![
                "Clients".to_string(),
                "Shards".into(),
                "Batch".into(),
                "items/s".into(),
                "p50 us".into(),
                "p99 us".into(),
            ];
            let rows: Vec<Vec<String>> = self
                .serving
                .iter()
                .map(|p| {
                    vec![
                        p.clients.to_string(),
                        p.shards.to_string(),
                        p.batch_size.to_string(),
                        format!("{:.0}", p.items_per_sec),
                        format!("{:.0}", p.p50_round_trip_us),
                        format!("{:.0}", p.p99_round_trip_us),
                    ]
                })
                .collect();
            out.push_str(&crate::metrics::render_table(&header, &rows));
        }
        if !self.kernel_microbench.is_empty() {
            out.push_str("== Kernel microbench ==\n");
            let header =
                vec!["Kernel".to_string(), "Shape".into(), "ns/call".into(), "GFLOP/s".into()];
            let rows: Vec<Vec<String>> = self
                .kernel_microbench
                .iter()
                .map(|p| {
                    vec![
                        p.kernel.clone(),
                        p.shape.clone(),
                        format!("{:.0}", p.ns_per_call),
                        format!("{:.2}", p.gflops),
                    ]
                })
                .collect();
            out.push_str(&crate::metrics::render_table(&header, &rows));
        }
        out
    }
}

impl Fig10 {
    /// Renders one series block per family: rows = system, columns =
    /// batch size, cells = items/s.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let models: Vec<String> = {
            let mut seen = Vec::new();
            for p in &self.points {
                if !seen.contains(&p.model) {
                    seen.push(p.model.clone());
                }
            }
            seen
        };
        for model in models {
            out.push_str(&format!("== Throughput (items/s), {model} ==\n"));
            let in_model: Vec<&Point> = self.points.iter().filter(|p| p.model == model).collect();
            let mut sizes: Vec<usize> = in_model.iter().map(|p| p.batch_size).collect();
            sizes.sort_unstable();
            sizes.dedup();
            let mut systems = Vec::new();
            for p in &in_model {
                if !systems.contains(&p.system) {
                    systems.push(p.system.clone());
                }
            }
            let mut header = vec!["System".to_string()];
            header.extend(sizes.iter().map(|s| s.to_string()));
            let rows: Vec<Vec<String>> = systems
                .iter()
                .map(|sys| {
                    let mut row = vec![sys.clone()];
                    for &s in &sizes {
                        let p = in_model.iter().find(|p| &p.system == sys && p.batch_size == s);
                        row.push(p.map_or("-".into(), |p| format!("{:.0}", p.items_per_sec)));
                    }
                    row
                })
                .collect();
            out.push_str(&crate::metrics::render_table(&header, &rows));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_sweep_covers_every_system_with_alloc_counts() {
        let scale = Scale { batches: 4, ..Scale::tiny() };
        let b = run_bench(&scale, &[ModelFamily::Lr], &[64]);
        assert_eq!(b.points.len(), 4, "4 systems x 1 batch size");
        for p in &b.points {
            assert!(p.items_per_sec > 0.0, "{p:?}");
            if cfg!(feature = "alloc-metrics") {
                assert!(p.allocs_per_item >= 0.0 && p.bytes_per_item >= 0.0, "{p:?}");
            } else {
                assert_eq!(p.allocs_per_item, -1.0, "{p:?}");
                assert_eq!(p.bytes_per_item, -1.0, "{p:?}");
            }
        }
        assert!(b.render().contains("StreamingLR"));
    }

    #[test]
    fn sweep_produces_positive_throughput() {
        let scale = Scale { batches: 10, ..Scale::tiny() };
        let f = run_families(&scale, &[ModelFamily::Lr], &[128, 256]);
        assert_eq!(f.points.len(), 4 * 2);
        for p in &f.points {
            assert!(p.items_per_sec > 0.0, "{p:?}");
        }
        assert!(f.render().contains("StreamingLR"));
    }
}
