//! Throughput over the Figure-10 workload.
//!
//! Writes `results/BENCH_throughput.json`: items/second and per-item
//! allocations per framework and batch size, with a per-kernel GFLOP/s
//! microbench section.
//!
//! Flags:
//! - `--models lr,mlp[,cnn]` restricts the model families swept
//!   (default: `lr,mlp`).
//! - `--quick` shrinks the sweep to a CI-sized regression probe: LR
//!   only, batch 256, 20 batches (still overridable
//!   through `FREEWAY_BATCHES`), results not written to `results/`.
//! - `--shards 1,2[,4]` sweeps the sharded runtime at those shard
//!   counts over `--keys` interleaved keyed streams (full runs default
//!   to `1,2`; quick runs skip the shard sweep unless the flag is
//!   given, at a CI-sized stream length).
//! - `--keys K` sets the keyed-stream (tenant) count for the shard
//!   sweep (default 1024).
//! - `--serving 1,8[,32]` sweeps the serving facade at those closed-loop
//!   client counts over 2 shards (full runs default to `1,8,32`; quick
//!   runs skip the serving sweep unless the flag is given).

use freeway_eval::experiments::{common, fig10, ModelFamily, Scale};
use freeway_eval::kernel_bench;
use freeway_eval::serving_bench::{self, ServingSweep};
use freeway_eval::shard_bench::{self, ShardSweep};

fn parse_models(spec: &str) -> Vec<ModelFamily> {
    let mut families = Vec::new();
    for tag in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let family = match tag.to_ascii_lowercase().as_str() {
            "lr" => ModelFamily::Lr,
            "mlp" => ModelFamily::Mlp,
            "cnn" => ModelFamily::Cnn,
            other => {
                eprintln!("error: unknown model family '{other}' (expected lr, mlp, or cnn)");
                std::process::exit(2);
            }
        };
        if !families.contains(&family) {
            families.push(family);
        }
    }
    if families.is_empty() {
        eprintln!("error: --models needs at least one family");
        std::process::exit(2);
    }
    families
}

fn parse_shards(spec: &str) -> Vec<usize> {
    let mut counts = Vec::new();
    for tag in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match tag.parse::<usize>() {
            Ok(n) if n > 0 => {
                if !counts.contains(&n) {
                    counts.push(n);
                }
            }
            _ => {
                eprintln!("error: --shards takes positive counts, e.g. --shards 1,2");
                std::process::exit(2);
            }
        }
    }
    if counts.is_empty() {
        eprintln!("error: --shards needs at least one count");
        std::process::exit(2);
    }
    counts
}

fn parse_clients(spec: &str) -> Vec<usize> {
    let mut counts = Vec::new();
    for tag in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match tag.parse::<usize>() {
            Ok(n) if n > 0 => {
                if !counts.contains(&n) {
                    counts.push(n);
                }
            }
            _ => {
                eprintln!("error: --serving takes positive client counts, e.g. --serving 1,8");
                std::process::exit(2);
            }
        }
    }
    if counts.is_empty() {
        eprintln!("error: --serving needs at least one client count");
        std::process::exit(2);
    }
    counts
}

fn parse_keys(spec: &str) -> usize {
    match spec.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("error: --keys takes a positive stream count, e.g. --keys 1024");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut quick = false;
    let mut families = vec![ModelFamily::Lr, ModelFamily::Mlp];
    let mut shard_counts: Option<Vec<usize>> = None;
    let mut serving_counts: Option<Vec<usize>> = None;
    let mut keys = 1024usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--models" => {
                let Some(spec) = args.next() else {
                    eprintln!("error: --models needs a value, e.g. --models lr,mlp");
                    std::process::exit(2);
                };
                families = parse_models(&spec);
            }
            "--shards" => {
                let Some(spec) = args.next() else {
                    eprintln!("error: --shards needs a value, e.g. --shards 1,2");
                    std::process::exit(2);
                };
                shard_counts = Some(parse_shards(&spec));
            }
            "--keys" => {
                let Some(spec) = args.next() else {
                    eprintln!("error: --keys needs a value, e.g. --keys 1024");
                    std::process::exit(2);
                };
                keys = parse_keys(&spec);
            }
            "--serving" => {
                let Some(spec) = args.next() else {
                    eprintln!("error: --serving needs a value, e.g. --serving 1,8");
                    std::process::exit(2);
                };
                serving_counts = Some(parse_clients(&spec));
            }
            other => {
                if let Some(spec) = other.strip_prefix("--models=") {
                    families = parse_models(spec);
                } else if let Some(spec) = other.strip_prefix("--shards=") {
                    shard_counts = Some(parse_shards(spec));
                } else if let Some(spec) = other.strip_prefix("--keys=") {
                    keys = parse_keys(spec);
                } else if let Some(spec) = other.strip_prefix("--serving=") {
                    serving_counts = Some(parse_clients(spec));
                } else {
                    eprintln!(
                        "error: unknown flag '{other}' \
                         (supported: --models, --shards, --keys, --serving, --quick)"
                    );
                    std::process::exit(2);
                }
            }
        }
    }

    let mut scale = Scale::from_env();
    if std::env::var("FREEWAY_BATCHES").is_err() {
        scale.batches = if quick { 20 } else { 30 };
    }
    let batch_sizes: &[usize] = if quick { &[256] } else { &[256, 1024, 2048] };
    if quick {
        families = vec![ModelFamily::Lr];
    }
    eprintln!("Throughput at {scale:?}{}", if quick { " (quick)" } else { "" });
    let mut result = fig10::run_bench(&scale, &families, batch_sizes);
    result.kernel_microbench = kernel_bench::run();
    // Shard-scaling sweep: on by default for full runs, opt-in (via
    // --shards) for quick CI probes.
    let shard_sweep_counts = shard_counts.unwrap_or(if quick { Vec::new() } else { vec![1, 2] });
    if !shard_sweep_counts.is_empty() {
        let sweep =
            ShardSweep { keys, batches: if quick { keys } else { 2 * keys }, ..Default::default() };
        eprintln!(
            "Shard scaling at {:?} shards, {} keyed streams x {} batches of {}",
            shard_sweep_counts, sweep.keys, sweep.batches, sweep.batch_size
        );
        result.shard_scaling = shard_bench::run_shard_scaling(&shard_sweep_counts, &sweep);
    }
    // Many-clients serving sweep: on by default for full runs, opt-in
    // (via --serving) for quick CI probes.
    let serving_sweep_counts =
        serving_counts.unwrap_or(if quick { Vec::new() } else { vec![1, 8, 32] });
    if !serving_sweep_counts.is_empty() {
        // The serving sweep is cheap; quick runs use the same length so
        // a quick `--serving` measurement matches the full artifact.
        let sweep = ServingSweep::default();
        eprintln!(
            "Serving sweep at {:?} clients, {} shards x {} batches of {}",
            serving_sweep_counts, sweep.shards, sweep.batches_per_client, sweep.batch_size
        );
        result.serving = serving_bench::run_serving(&serving_sweep_counts, &sweep);
    }
    println!("{}", result.render());
    if quick {
        // Machine-readable output for the CI gate without touching the
        // checked-in artifact.
        println!("{}", serde_json::to_string(&result).expect("serializable result"));
    } else {
        common::save_json("BENCH_throughput", &result);
    }
}
