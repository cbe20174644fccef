//! The FreewayML benchmark: one command, two closed-loop workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <learner-drift|serve-roundtrip> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` before any clock starts. Every
//! answer is checked against a serialized reference replay of the same
//! inputs; a mismatch, a shed, quarantined or `Busy` submission, or an
//! out-of-order delivery fails the run (exit 1) instead of printing
//! numbers. Informational lines come first; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.
//!
//! The metrics are chosen to hold steady on a host whose hypervisor
//! steals CPU time: throughput and the per-batch tail are CPU time (which
//! the kernel nets steal out of), taken from each batch's median over the
//! run's passes; latency is a wall-clock median; quality and memory are
//! deterministic. Every pass replays the same seeded stream, so passes
//! are comparable batch by batch. Wall-clock throughput and p99 latency
//! are printed as information only, because on such a host they measure
//! the hypervisor.
//!
//! Durable serving (journal and persisted checkpoints on, reads with
//! their labels following later) is measured by the traced run's
//! per-layer suite rather than as an end-to-end workload: its CPU time
//! rides on filesystem calls whose cost swings with the host's load, so
//! its end-to-end figures were too noisy to gate on.
//!
//! Files the run writes (durable serving directories, the span trace)
//! live under `.perfbench-work/` in the working directory.

mod alloc;
mod clock;
mod host;
mod layers;
mod learner_drift;
mod serving;
mod stats;
mod trace;

use freeway_streams::datasets::SimulatedDataset;
use freeway_streams::generator::take_batches;
use freeway_streams::Batch;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where run files go, relative to the working directory.
const WORK_ROOT: &str = ".perfbench-work";

/// Preallocated span capacity of the traced run.
const TRACE_CAPACITY: usize = 1 << 18;

/// Passes of each kind a run makes even when `--seconds` is shorter.
const MIN_PASSES: u64 = 2;

/// A benchmark failure: the run exits non-zero without printing numbers.
pub type Failure = String;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Measurements of one workload's measured phases, pooled over passes.
#[derive(Debug, Default)]
pub struct E2e {
    /// Wall time of every fresh set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall-clock latency of every measured batch, in microseconds.
    pub latency_us: Vec<f64>,
    /// Process CPU time of every measured batch, in microseconds, pass
    /// after pass (every pass replays the same batches).
    pub batch_cpu_us: Vec<f64>,
    /// Process CPU time over the measured batches, in seconds.
    pub cpu_s: f64,
    /// Wall time over the measured batches, in seconds.
    pub wall_s: f64,
    /// Rows answered in the measured batches.
    pub rows: u64,
    /// Submissions attempted in the measured batches.
    pub submitted: u64,
    /// Submissions answered in the measured batches.
    pub answered: u64,
    /// Heap allocations, on every thread, during the measured batches.
    pub allocs: u64,
    /// Per-batch accuracy of one pass (every pass answers identically).
    pub batch_accs: Vec<f64>,
    /// Heap high-water mark of each pass above its set-up's start, in MB.
    pub heap_peak_mb: Vec<f64>,
    /// Answered rows per CPU-second of each pass.
    pub pass_items_per_cpu_s: Vec<f64>,
}

impl E2e {
    /// Pools one pass into the totals.
    pub fn absorb(&mut self, pass: E2e) {
        if !self.pass_items_per_cpu_s.is_empty() {
            let per_pass = self.batch_cpu_us.len() / self.pass_items_per_cpu_s.len();
            assert_eq!(pass.batch_cpu_us.len(), per_pass, "every pass replays the same batches");
        }
        self.pass_items_per_cpu_s.push(stats::ratio(pass.rows as f64, pass.cpu_s));
        self.setup_s.extend(pass.setup_s);
        self.latency_us.extend(pass.latency_us);
        self.batch_cpu_us.extend(pass.batch_cpu_us);
        self.cpu_s += pass.cpu_s;
        self.wall_s += pass.wall_s;
        self.rows += pass.rows;
        self.submitted += pass.submitted;
        self.answered += pass.answered;
        self.allocs += pass.allocs;
        if self.batch_accs.is_empty() {
            self.batch_accs = pass.batch_accs;
        }
        self.heap_peak_mb.extend(pass.heap_peak_mb);
    }

    /// Records one measured batch that answered `rows` rows: its latency,
    /// the wall and process CPU time it took, and its allocations.
    pub fn record(
        &mut self,
        latency_us: f64,
        wall_s: f64,
        cpu: Duration,
        allocs: u64,
        rows: usize,
        accuracy: f64,
    ) {
        self.latency_us.push(latency_us);
        self.batch_cpu_us.push(cpu.as_secs_f64() * 1e6);
        self.wall_s += wall_s;
        self.cpu_s += cpu.as_secs_f64();
        self.allocs += allocs;
        self.rows += rows as u64;
        self.submitted += 1;
        self.answered += 1;
        self.batch_accs.push(accuracy);
    }

    /// Each batch's median CPU time over the pooled passes, in batch order.
    /// A burst of host contention lands on different batches in different
    /// passes, so the per-batch median filters it out while a batch that
    /// is expensive in every pass stays expensive.
    fn batch_cpu_medians(&self) -> Vec<f64> {
        let passes = self.pass_items_per_cpu_s.len();
        if passes == 0 {
            return Vec::new();
        }
        let n = self.batch_cpu_us.len() / passes;
        (0..n)
            .map(|j| {
                let samples: Vec<f64> = (0..passes).map(|p| self.batch_cpu_us[p * n + j]).collect();
                stats::median(&samples)
            })
            .collect()
    }

    /// Answered rows per second of process CPU time, for a typical pass:
    /// a pass's rows over the sum of the per-batch median CPU times.
    pub fn items_per_cpu_s(&self) -> f64 {
        let passes = self.pass_items_per_cpu_s.len() as f64;
        let cpu_s = self.batch_cpu_medians().iter().sum::<f64>() / 1e6;
        stats::ratio(self.rows as f64 / passes, cpu_s)
    }

    /// p99 over the batches of a pass of their median CPU time.
    pub fn batch_cpu_p99_us(&self) -> f64 {
        stats::quantile(&self.batch_cpu_medians(), 0.99)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", stats::median(&self.setup_s), "s"),
            metric("items_per_cpu_s", self.items_per_cpu_s(), "items/CPU-s"),
            metric("latency_p50_us", stats::median(&self.latency_us), "us"),
            metric("batch_cpu_p99_us", self.batch_cpu_p99_us(), "us"),
            metric(
                "accuracy",
                freeway_eval::metrics::global_accuracy(&self.batch_accs),
                "fraction",
            ),
            metric(
                "stability",
                freeway_eval::metrics::stability_index(&self.batch_accs),
                "fraction",
            ),
            metric(
                "answered_rate",
                stats::ratio(self.answered as f64, self.submitted as f64),
                "fraction",
            ),
            metric("heap_peak_mb", stats::median(&self.heap_peak_mb), "MB"),
        ]
    }

    /// Informational lines: sample counts, and the wall-clock figures
    /// that are printed but not gated.
    pub fn info(&self, label: &str) -> Vec<String> {
        vec![
            format!(
                "{label}: passes={} setups={} batches={} rows={} allocs_per_batch={:.1}",
                self.pass_items_per_cpu_s.len(),
                self.setup_s.len(),
                self.latency_us.len(),
                self.rows,
                stats::ratio(self.allocs as f64, self.latency_us.len() as f64)
            ),
            format!(
                "{label}: items_per_cpu_s per pass: {}",
                self.pass_items_per_cpu_s.iter().map(|v| format!("{v:.0}")).collect::<Vec<_>>().join(" ")
            ),
            format!(
                "{label}: latency_p50_us={:.1} (n={}) batch_cpu_p99_us={:.1} (n={} batches \
                 x {} passes, {} batches beyond p99)",
                stats::median(&self.latency_us),
                self.latency_us.len(),
                self.batch_cpu_p99_us(),
                self.batch_cpu_medians().len(),
                self.pass_items_per_cpu_s.len(),
                self.batch_cpu_medians().len() / 100
            ),
            format!(
                "{label}: not gated: wall items_per_s={:.1} wall latency_p99_us={:.1} (n={}, {} beyond p99)",
                stats::ratio(self.rows as f64, self.wall_s),
                stats::quantile(&self.latency_us, 0.99),
                self.latency_us.len(),
                self.latency_us.len() / 100
            ),
        ]
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Submissions attempted.
    pub attempted: u64,
    /// Submissions not answered.
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Informational lines printed before it.
    pub info: Vec<String>,
}

/// Runs measured passes until `--seconds` has elapsed (and at least
/// `MIN_PASSES` of each kind ran). In a traced run, passes alternate
/// untraced and traced so the overhead compares like with like.
pub fn alternate(
    args: &Args,
    traced_run: bool,
    batches: usize,
    mut pass: impl FnMut(bool, &mut E2e) -> Result<(), Failure>,
) -> Result<(E2e, Option<E2e>), Failure> {
    let min_passes = if traced_run { 2 * MIN_PASSES } else { MIN_PASSES };
    let (mut untraced, mut traced) = (E2e::default(), E2e::default());
    let started = Instant::now();
    let mut index = 0u64;
    while index < min_passes || started.elapsed() < args.seconds {
        let trace_pass = traced_run && index % 2 == 1;
        let mut result = E2e {
            latency_us: Vec::with_capacity(batches),
            batch_cpu_us: Vec::with_capacity(batches),
            batch_accs: Vec::with_capacity(batches),
            ..E2e::default()
        };
        pass(trace_pass, &mut result)?;
        if trace_pass {
            traced.absorb(result);
        } else {
            untraced.absorb(result);
        }
        index += 1;
    }
    Ok((untraced, traced_run.then_some(traced)))
}

/// Concatenates `segments` stretches of `per_segment` batches from
/// independently seeded simulators (the first stretch `lead` batches
/// longer), numbered in stream order. Each segment boundary is a severe
/// shift to an unseen concept palette, and one run averages quality and
/// cost over several palettes instead of resting on one seed's draw.
pub fn segmented(
    simulator: impl Fn(u64) -> SimulatedDataset,
    seed: u64,
    segments: usize,
    per_segment: usize,
    lead: usize,
    rows: usize,
) -> Vec<Batch> {
    let mut batches = Vec::with_capacity(lead + segments * per_segment);
    for segment in 0..segments {
        let mut stream = simulator(seed.wrapping_mul(64).wrapping_add(segment as u64));
        let n = per_segment + if segment == 0 { lead } else { 0 };
        batches.extend(take_batches(&mut stream, n, rows));
    }
    for (seq, batch) in batches.iter_mut().enumerate() {
        batch.seq = seq as u64;
    }
    batches
}

/// Assembles a workload's outcome. Without `traced` the metrics are the
/// end-to-end ones; with it they start with the traced passes' timing
/// metrics and the tracing overhead against the untraced passes of the
/// same run (the per-layer suite appends the rest).
pub fn outcome(label: &str, untraced: E2e, traced: Option<E2e>) -> Outcome {
    let mut info = untraced.info(label);
    let mut attempted = untraced.submitted;
    let mut failed = untraced.submitted - untraced.answered;
    let metrics = match traced {
        None => untraced.metrics(),
        Some(traced) => {
            info.extend(traced.info(&format!("{label} traced")));
            attempted += traced.submitted;
            failed += traced.submitted - traced.answered;
            let latency = stats::median(&untraced.latency_us);
            let traced_latency = stats::median(&traced.latency_us);
            vec![
                metric("trace.latency_p50_us", traced_latency, "us"),
                metric("trace.items_per_cpu_s", traced.items_per_cpu_s(), "items/CPU-s"),
                metric(
                    "trace.overhead_latency_pct",
                    100.0 * stats::ratio(traced_latency - latency, latency),
                    "%",
                ),
                metric(
                    "trace.overhead_cpu_pct",
                    100.0
                        * (stats::ratio(untraced.items_per_cpu_s(), traced.items_per_cpu_s())
                            - 1.0),
                    "%",
                ),
            ]
        }
    };
    Outcome { attempted, failed, metrics, info }
}

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's learner alone, on a drifting NSL-KDD stream.
    LearnerDrift,
    /// Prequential round trips through a 1-shard `Service`.
    ServeRoundtrip,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "learner-drift" => Some(Self::LearnerDrift),
            "serve-roundtrip" => Some(Self::ServeRoundtrip),
            _ => None,
        }
    }

    /// The span enclosing one measured batch in a traced pass; its self
    /// time is what the benchmark itself spends per batch.
    pub fn batch_span(self) -> &'static str {
        match self {
            Self::LearnerDrift => "learner.batch",
            Self::ServeRoundtrip => "serve.roundtrip",
        }
    }

    /// The workload's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Self::LearnerDrift => "learner-drift",
            Self::ServeRoundtrip => "serve-roundtrip",
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, Failure> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(1..=3600).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 1..=3600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args, work: &Path) -> Result<Outcome, Failure> {
    let revision = host::git_revision();
    let netted = host::steal_netted();
    println!(
        "host: revision={revision} nproc={} steal_netted={} durable_fs={}",
        host::nproc(),
        netted.map_or("unknown", |n| if n { "yes" } else { "no" }),
        host::filesystem_of(work)
    );
    if netted == Some(false) {
        eprintln!(
            "warning: this kernel charges hypervisor steal to task CPU time; \
             CPU-time metrics include it"
        );
    }
    let before = host::CpuJiffies::read();
    let mut tracer = args.trace.then(|| trace::Tracer::new(TRACE_CAPACITY));
    let mut outcome = match args.workload {
        Workload::LearnerDrift => learner_drift::run(args, tracer.as_mut())?,
        Workload::ServeRoundtrip => serving::run_roundtrip(args, tracer.as_mut())?,
    };
    if let Some(tracer) = tracer.as_mut() {
        let own = tracer.self_wall_us(args.workload.batch_span());
        outcome.metrics.push(metric("trace.batch_self_us_p50", stats::median(&own), "us"));
        outcome.attempted += layers::run(args, work, tracer, &mut outcome.metrics)?;
        let path = PathBuf::from(WORK_ROOT).join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome.info.push(format!(
            "trace: {} spans written to {} ({} dropped)",
            tracer.spans().len(),
            path.display(),
            tracer.dropped()
        ));
    }
    if let (Some(before), Some(after)) = (before, host::CpuJiffies::read()) {
        outcome.info.push(format!(
            "host: steal_share={:.4} of all CPU time during the run",
            before.steal_share_until(after)
        ));
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    // Kernels stay serial: the process-wide pool would otherwise follow
    // an inherited FREEWAY_THREADS and contend with the shard worker.
    std::env::remove_var("FREEWAY_THREADS");
    let work =
        PathBuf::from(WORK_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {err}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(outcome) => {
            for line in &outcome.info {
                println!("{line}");
            }
            println!("{}", json_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
