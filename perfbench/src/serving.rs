//! Closed-loop traffic through the serving facade: the `serve-roundtrip`
//! workload, and the durable serving traffic the per-layer suite measures.
//!
//! Both use the Electricity simulator (8 features, 2 classes, cyclic
//! reoccurring regimes) and LR on 64-row batches, served by a 1-shard
//! `Service` with the builder's default admission and supervision. The
//! load generator is one thread with one `ClientSession` and one batch in
//! flight, so the program runs at most a router and one shard worker
//! beside it on a 2-core host.
//!
//! `serve-roundtrip` submits prequential batches with no durable paths:
//! the learner is a small share of each round trip, the rest is the
//! router's poll loop, the channel hops, admission and the in-memory
//! checkpoint. Durable traffic journals every submission and persists
//! checkpoints; each batch is submitted unlabeled (a read) and its labels
//! follow `LABEL_LAG` batches later (a write); set-up restarts the
//! service over a journal-and-checkpoint directory that an unmeasured
//! prefill phase wrote.

use crate::trace::Tracer;
use crate::{alloc, clock, Args, E2e, Failure, Outcome};
use freeway_core::{
    ClientSession, FeedOutcome, InferenceReport, JournalConfig, PipelineBuilder, ServeError,
    Service, SubmitOutcome, SupervisedPipeline,
};
use freeway_eval::metrics::batch_accuracy;
use freeway_linalg::Matrix;
use freeway_ml::ModelSpec;
use freeway_streams::{datasets, Batch, DriftPhase};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Rows per batch.
const ROWS: usize = 64;
/// Concept palettes (independently seeded simulator segments) per
/// `serve-roundtrip` pass, of `ROUNDTRIP_SEGMENT` batches each.
const ROUNDTRIP_SEGMENTS: usize = 8;
const ROUNDTRIP_SEGMENT: usize = 250;
/// Reads per concept palette in durable traffic.
const DURABLE_SEGMENT: usize = 100;
/// Batches the prefill phase serves before the measured restarts. Enough
/// that the journal rolls past its first 4 MiB segment and a persisted
/// checkpoint truncates it, so a restart loads a checkpoint and replays
/// the journal above it.
const PREFILL_BATCHES: usize = 300;
/// Prequential warm-up batches available to `serve-roundtrip` set-up.
const WARMUP: usize = 32;
/// Batches between a read and the write carrying its labels.
const LABEL_LAG: usize = 4;
/// The session's routing key (one shard, so any key).
const KEY: u64 = 7;
/// Fresh set-ups per pass; the last one serves the pass.
const SETUPS_PER_PASS: usize = 5;
/// Journal base name inside a durable directory.
const JOURNAL_FILE: &str = "ingest.wal";
/// Checkpoint base name inside a durable directory.
const CHECKPOINT_FILE: &str = "ckpt.json";
/// Suffix `build_sharded` gives shard 0's durable paths.
const SHARD0: &str = ".shard0";

/// The serving model: LR, 8 features, 2 classes.
fn spec() -> ModelSpec {
    ModelSpec::lr(8, 2)
}

/// The serving deployment description: builder defaults for admission,
/// supervision and the service, one shard, serial kernels.
pub fn builder() -> PipelineBuilder {
    PipelineBuilder::new(spec()).with_mini_batch(ROWS)
}

/// [`builder`] with the ingest journal and persisted checkpoints in
/// `dir`, at the builder's default cadences.
pub fn durable_builder(dir: &Path) -> PipelineBuilder {
    builder()
        .journal(JournalConfig::new(dir.join(JOURNAL_FILE)))
        .with_checkpoint_path(dir.join(CHECKPOINT_FILE))
}

/// [`durable_builder`] for a single supervised pipeline reading the files
/// shard 0 of a durable service wrote in `dir`.
fn durable_supervised_builder(dir: &Path) -> PipelineBuilder {
    builder()
        .journal(JournalConfig::new(dir.join(format!("{JOURNAL_FILE}{SHARD0}"))))
        .with_checkpoint_path(dir.join(format!("{CHECKPOINT_FILE}{SHARD0}")))
}

/// The journal base path a 1-shard durable service uses in `dir`.
pub fn shard0_journal(dir: &Path) -> PathBuf {
    dir.join(format!("{JOURNAL_FILE}{SHARD0}"))
}

/// Seeded serving inputs.
pub struct Inputs {
    /// Batches served before the measured ones: prequential warm-up for
    /// `serve-roundtrip`, the prefill phase for durable traffic.
    pub warmup: Vec<Batch>,
    /// The measured stream.
    pub measured: Vec<Batch>,
}

/// Generates `lead` batches, then `segments` measured segments of
/// `per_segment` batches, from `seed`.
fn inputs(seed: u64, lead: usize, segments: usize, per_segment: usize) -> Inputs {
    let mut warmup =
        crate::segmented(datasets::electricity, seed, segments, per_segment, lead, ROWS);
    let measured = warmup.split_off(lead);
    Inputs { warmup, measured }
}

/// `serve-roundtrip` inputs: the prequential warm-up and `segments`
/// measured segments.
pub fn roundtrip_inputs(seed: u64, segments: usize) -> Inputs {
    inputs(seed, WARMUP, segments, ROUNDTRIP_SEGMENT)
}

/// The serialized reference for prequential traffic: a bare learner's
/// answers through `Learner::process`.
pub struct Reference {
    /// Warm-up batches until the first answer with a shift pattern (the
    /// selector is ready).
    pub warmup_used: usize,
    /// Predictions for the used warm-up batches, then the measured ones.
    pub answers: Vec<Vec<usize>>,
}

/// Replays `inputs` through a bare learner.
pub fn reference(inputs: &Inputs) -> Result<Reference, Failure> {
    let mut learner = builder().build_learner().map_err(|e| e.to_string())?;
    let mut answers = Vec::with_capacity(inputs.warmup.len() + inputs.measured.len());
    let mut ready = false;
    for batch in &inputs.warmup {
        let report = learner.process(batch);
        ready = report.pattern().is_some();
        answers.push(report.predictions);
        if ready {
            break;
        }
    }
    if !ready {
        return Err(format!("selector not ready after {} warm-up batches", inputs.warmup.len()));
    }
    let warmup_used = answers.len();
    answers.extend(inputs.measured.iter().map(|batch| learner.process(batch).predictions));
    Ok(Reference { warmup_used, answers })
}

/// A running service with its one session and delivery ledger.
pub struct Live {
    service: Service,
    session: ClientSession,
    /// The session-local sequence number the next submission must get.
    next: u64,
    answered: u64,
    trained: u64,
}

impl Live {
    /// Starts the service `builder` describes and opens the session.
    pub fn start(builder: PipelineBuilder) -> Result<Self, Failure> {
        let service = builder.build_service().map_err(|e| e.to_string())?;
        let session = service.handle().open_session(KEY).map_err(|e| e.to_string())?;
        Ok(Self { service, session, next: 0, answered: 0, trained: 0 })
    }

    /// One closed-loop exchange: submits, then waits for that
    /// submission's verdict. Fails on `Busy`, on any other submit error,
    /// and on an output that is not the next one in order. With a tracer,
    /// the submit call and the wait are child spans of `parent`.
    fn exchange(
        &mut self,
        mut tracer: Option<&mut Tracer>,
        parent: Option<usize>,
        id: u64,
        submit: impl FnOnce(&mut ClientSession) -> Result<u64, (Batch, ServeError)>,
    ) -> Result<SubmitOutcome, Failure> {
        let open = tracer.as_deref().map(|t| t.begin("serve.submit", parent, id));
        let submitted = submit(&mut self.session);
        if let (Some(t), Some(open)) = (tracer.as_deref_mut(), open) {
            t.end(open);
        }
        let seq = match submitted {
            Ok(seq) => seq,
            Err((_, ServeError::Busy { .. })) => {
                return Err(format!("submission {} was refused with Busy", self.next))
            }
            Err((_, err)) => return Err(format!("submission {} failed: {err}", self.next)),
        };
        if seq != self.next {
            return Err(format!("session numbered submission {} as {seq}", self.next));
        }
        self.next += 1;
        let open = tracer.as_deref().map(|t| t.begin("serve.wait", parent, id));
        let out = self.session.recv_output().map_err(|e| format!("awaiting {seq}: {e}"))?;
        if let (Some(t), Some(open)) = (tracer, open) {
            t.end(open);
        }
        if out.client_seq != seq {
            return Err(format!("awaited submission {seq}, received {}", out.client_seq));
        }
        Ok(out.outcome)
    }

    /// [`Self::exchange`] that must come back answered.
    pub fn answer(
        &mut self,
        tracer: Option<&mut Tracer>,
        parent: Option<usize>,
        id: u64,
        submit: impl FnOnce(&mut ClientSession) -> Result<u64, (Batch, ServeError)>,
    ) -> Result<InferenceReport, Failure> {
        match self.exchange(tracer, parent, id, submit)? {
            SubmitOutcome::Answered(report) => {
                self.answered += 1;
                Ok(report)
            }
            other => Err(format!("batch {id}: expected an answer, got {other:?}")),
        }
    }

    /// [`Self::exchange`] that must come back trained.
    pub fn train(
        &mut self,
        tracer: Option<&mut Tracer>,
        parent: Option<usize>,
        id: u64,
        submit: impl FnOnce(&mut ClientSession) -> Result<u64, (Batch, ServeError)>,
    ) -> Result<(), Failure> {
        match self.exchange(tracer, parent, id, submit)? {
            SubmitOutcome::Trained => {
                self.trained += 1;
                Ok(())
            }
            other => Err(format!("batch {id}: expected a trained verdict, got {other:?}")),
        }
    }

    /// Shuts down and checks the delivery ledger: no unsolicited output,
    /// nothing shed or quarantined, and every submission counted once.
    pub fn close(mut self) -> Result<(), Failure> {
        if let Some(extra) = self.session.try_output() {
            return Err(format!("unsolicited output for submission {}", extra.client_seq));
        }
        drop(self.session);
        let report = self.service.shutdown().map_err(|e| e.to_string())?;
        let stats = report.stats;
        if stats.shed != 0 || stats.quarantined != 0 {
            return Err(format!(
                "{} shed and {} quarantined submissions",
                stats.shed, stats.quarantined
            ));
        }
        if (stats.answered, stats.trained) != (self.answered, self.trained) {
            return Err(format!(
                "service counted {} answers and {} trainings, the session received {} and {}",
                stats.answered, stats.trained, self.answered, self.trained
            ));
        }
        Ok(())
    }
}

fn check(report: &InferenceReport, expected: &[usize], what: &str) -> Result<(), Failure> {
    if report.predictions() == expected {
        Ok(())
    } else {
        Err(format!("{what}: predictions differ from the reference replay"))
    }
}

fn labeled(batch: &Batch) -> (Matrix, Vec<usize>) {
    (batch.x.clone(), batch.labels().to_vec())
}

/// `serve-roundtrip` set-up: build the service, open the session, and
/// submit warm-up batches until the selector is ready.
fn roundtrip_set_up(
    warmup: Vec<(Matrix, Vec<usize>)>,
    reference: &Reference,
) -> Result<Live, Failure> {
    let mut live = Live::start(builder())?;
    let last = warmup.len() - 1;
    for (i, (x, y)) in warmup.into_iter().enumerate() {
        let report = live.answer(None, None, i as u64, |s| s.submit_labeled(x, y))?;
        check(&report, &reference.answers[i], "warm-up")?;
        if report.pattern().is_some() != (i == last) {
            return Err(format!("warm-up batch {i}: selector readiness differs from the replay"));
        }
    }
    Ok(live)
}

fn roundtrip_pass(
    inputs: &Inputs,
    reference: &Reference,
    mut tracer: Option<&mut Tracer>,
    result: &mut E2e,
) -> Result<(), Failure> {
    let used = reference.warmup_used;
    let mut live = None;
    let mut baseline = 0;
    for _ in 0..SETUPS_PER_PASS {
        if let Some(old) = live.take() {
            Live::close(old)?;
        }
        let copies = inputs.warmup[..used].iter().map(labeled).collect();
        baseline = alloc::reset_peak();
        let t0 = Instant::now();
        live = Some(roundtrip_set_up(copies, reference)?);
        result.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut live = live.ok_or("no set-up ran")?;
    for (i, batch) in inputs.measured.iter().enumerate() {
        let (x, y) = labeled(batch);
        let id = (used + i) as u64;
        let (p0, a0) = (clock::process_cpu(), alloc::allocs());
        let (report, wall) = match tracer.as_deref_mut() {
            None => {
                let w0 = Instant::now();
                let report = live.answer(None, None, id, |s| s.submit_labeled(x, y))?;
                (report, w0.elapsed().as_secs_f64() * 1e6)
            }
            Some(t) => {
                let open = t.begin("serve.roundtrip", None, id);
                let slot = t.reserve(&open);
                let report = live.answer(Some(&mut *t), slot, id, |s| s.submit_labeled(x, y))?;
                (report, t.close_reserved(slot, open).wall_us())
            }
        };
        let (cpu, allocs) = (clock::process_cpu() - p0, alloc::allocs() - a0);
        check(&report, &reference.answers[used + i], &format!("batch {id}"))?;
        let accuracy = batch_accuracy(report.predictions(), batch.labels());
        result.record(wall, wall / 1e6, cpu, allocs, ROWS, accuracy);
    }
    result.heap_peak_mb.push(alloc::peak_mb_above(baseline));
    live.close()
}

/// Copies the flat directory `from` into a new directory `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), Failure> {
    let io = |e: std::io::Error| format!("copying {} to {}: {e}", from.display(), to.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        if entry.file_type().map_err(io)?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
        }
    }
    Ok(())
}

/// Removes a run directory; a leftover is only disk, never a wrong
/// answer, so failure is reported but not fatal.
fn remove_dir(dir: &Path) {
    if let Err(err) = std::fs::remove_dir_all(dir) {
        eprintln!("perfbench: could not remove {}: {err}", dir.display());
    }
}

/// Everything durable traffic prepares before any clock starts: inputs,
/// the prefilled directory, and the reference answers.
pub struct Durable {
    /// The seeded stream: `warmup` is the prefill phase.
    pub inputs: Inputs,
    /// The journal-and-checkpoint directory the prefill phase wrote.
    prefill: PathBuf,
    /// Predictions of every measured read, from the reference replay.
    reference: Vec<Vec<usize>>,
    work: PathBuf,
    restarts: u64,
}

impl Durable {
    /// Generates the inputs, runs the prefill phase into `work/prefill`,
    /// and replays the measured traffic through the reference.
    pub fn prepare(seed: u64, work: &Path, segments: usize) -> Result<Self, Failure> {
        let inputs = inputs(seed, PREFILL_BATCHES, segments, DURABLE_SEGMENT);
        let prefill = work.join("prefill");
        std::fs::create_dir_all(&prefill).map_err(|e| format!("{}: {e}", prefill.display()))?;
        let mut live = Live::start(durable_builder(&prefill))?;
        split_traffic(&mut live, &inputs.warmup, 0, None, |_, _, _| Ok(()))?;
        live.close()?;
        let reference = durable_reference(&inputs, &prefill, &work.join("reference"))?;
        Ok(Self { inputs, prefill, reference, work: work.to_owned(), restarts: 0 })
    }

    /// A fresh copy of the prefilled directory.
    pub fn fresh_copy(&mut self) -> Result<PathBuf, Failure> {
        self.restarts += 1;
        let dir = self.work.join(format!("restart-{}", self.restarts));
        copy_dir(&self.prefill, &dir)?;
        Ok(dir)
    }

    /// Set-up: restart a service over a fresh copy of the prefilled
    /// directory (journal scan, checkpoint load, replay), open the
    /// session, and wait for the first answer. Returns the service, its
    /// directory, the set-up time (its clock starts after the copy), and
    /// the heap level just before set-up.
    fn set_up(&mut self) -> Result<(Live, PathBuf, f64, usize), Failure> {
        let dir = self.fresh_copy()?;
        let first = self.inputs.measured[0].x.clone();
        let baseline = alloc::reset_peak();
        let t0 = Instant::now();
        let mut live = Live::start(durable_builder(&dir))?;
        let report = live.answer(None, None, 0, |s| s.submit(first))?;
        let setup_s = t0.elapsed().as_secs_f64();
        check(&report, &self.reference[0], "first answer after restart")?;
        Ok((live, dir, setup_s, baseline))
    }

    /// One measured pass: fresh set-ups, then reads with their labels
    /// following `LABEL_LAG` batches later. With a tracer each read is a
    /// `serve.infer` span and each write a `serve.train` span.
    pub fn pass(&mut self, tracer: Option<&mut Tracer>, result: &mut E2e) -> Result<(), Failure> {
        let mut live: Option<(Live, PathBuf)> = None;
        let mut baseline = 0;
        for _ in 0..SETUPS_PER_PASS {
            if let Some((old, dir)) = live.take() {
                Live::close(old)?;
                remove_dir(&dir);
            }
            let (started, dir, setup_s, base) = self.set_up()?;
            result.setup_s.push(setup_s);
            baseline = base;
            live = Some((started, dir));
        }
        let (mut live, dir) = live.ok_or("no set-up ran")?;
        let reference = &self.reference;
        split_traffic(&mut live, &self.inputs.measured, 1, tracer, |i, report, cost| {
            check(report, &reference[i], &format!("read {i}"))?;
            let accuracy = batch_accuracy(report.predictions(), self.inputs.measured[i].labels());
            result.record(cost.read_us, cost.wall_s, cost.cpu, cost.allocs, ROWS, accuracy);
            result.submitted += u64::from(cost.wrote);
            result.answered += u64::from(cost.wrote);
            Ok(())
        })?;
        result.heap_peak_mb.push(alloc::peak_mb_above(baseline));
        live.close()?;
        remove_dir(&dir);
        Ok(())
    }
}

/// Cost of one split-traffic step.
struct StepCost {
    /// Wall time of the read round trip, in microseconds.
    read_us: f64,
    /// Wall time of the step (read plus write), in seconds.
    wall_s: f64,
    /// Process CPU time of the step.
    cpu: Duration,
    /// Heap allocations, on every thread, during the step.
    allocs: u64,
    /// Whether the step carried a write.
    wrote: bool,
}

/// Split traffic over `batches[from..]`: each batch is read (submitted
/// unlabeled) and, `LABEL_LAG` batches later, written (its labels
/// submitted for training). `step` sees every read's answer and cost.
fn split_traffic(
    live: &mut Live,
    batches: &[Batch],
    from: usize,
    mut tracer: Option<&mut Tracer>,
    mut step: impl FnMut(usize, &InferenceReport, StepCost) -> Result<(), Failure>,
) -> Result<(), Failure> {
    for i in from..batches.len() {
        let x = batches[i].x.clone();
        let write = i.checked_sub(LABEL_LAG).map(|j| (j, labeled(&batches[j])));
        let id = i as u64;
        let (p0, a0, w0) = (clock::process_cpu(), alloc::allocs(), Instant::now());
        let (report, read_us) = match tracer.as_deref_mut() {
            None => {
                let report = live.answer(None, None, id, |s| s.submit(x))?;
                (report, w0.elapsed().as_secs_f64() * 1e6)
            }
            Some(t) => {
                let open = t.begin("serve.infer", None, id);
                let slot = t.reserve(&open);
                let report = live.answer(Some(&mut *t), slot, id, |s| s.submit(x))?;
                (report, t.close_reserved(slot, open).wall_us())
            }
        };
        let wrote = write.is_some();
        if let Some((j, (wx, wy))) = write {
            let id = j as u64;
            match tracer.as_deref_mut() {
                None => live.train(None, None, id, |s| s.submit_train(wx, wy))?,
                Some(t) => {
                    let open = t.begin("serve.train", None, id);
                    let slot = t.reserve(&open);
                    live.train(Some(&mut *t), slot, id, |s| s.submit_train(wx, wy))?;
                    t.close_reserved(slot, open);
                }
            }
        }
        let cost = StepCost {
            read_us,
            wall_s: w0.elapsed().as_secs_f64(),
            cpu: clock::process_cpu() - p0,
            allocs: alloc::allocs() - a0,
            wrote,
        };
        step(i, &report, cost)?;
    }
    Ok(())
}

/// Feeds one batch to a supervised pipeline and waits for its output.
fn feed_recv(
    pipeline: &mut SupervisedPipeline,
    batch: Batch,
) -> Result<Option<InferenceReport>, Failure> {
    let seq = batch.seq;
    match pipeline.feed(batch).map_err(|e| e.to_string())? {
        FeedOutcome::Accepted => {}
        other => return Err(format!("reference batch {seq}: {other:?}")),
    }
    let out = pipeline.recv().map_err(|e| e.to_string())?;
    if out.seq != seq {
        return Err(format!("reference awaited {seq}, received {}", out.seq));
    }
    Ok(out.report)
}

/// The durable traffic's reference: a supervised pipeline with the journal
/// and checkpoints, restarted from a copy of the prefilled directory and
/// fed the same reads and writes in the same order and numbering.
fn durable_reference(
    inputs: &Inputs,
    prefill: &Path,
    dir: &Path,
) -> Result<Vec<Vec<usize>>, Failure> {
    copy_dir(prefill, dir)?;
    let mut pipeline =
        durable_supervised_builder(dir).build_supervised().map_err(|e| e.to_string())?;
    let mut seq = 0;
    let mut answers = Vec::with_capacity(inputs.measured.len());
    for (i, batch) in inputs.measured.iter().enumerate() {
        let read = Batch::unlabeled(batch.x.clone(), seq, DriftPhase::Stable);
        seq += 1;
        let report =
            feed_recv(&mut pipeline, read)?.ok_or("reference read came back unanswered")?;
        answers.push(report.predictions);
        if let Some(j) = i.checked_sub(LABEL_LAG) {
            let (x, y) = labeled(&inputs.measured[j]);
            if feed_recv(&mut pipeline, Batch::labeled(x, y, seq, DriftPhase::Stable))?.is_some() {
                return Err("reference write came back answered".to_owned());
            }
            seq += 1;
        }
    }
    let run = pipeline.finish().map_err(|e| e.to_string())?;
    if run.stats.quarantined != 0 {
        return Err(format!("reference quarantined {} batches", run.stats.quarantined));
    }
    remove_dir(dir);
    Ok(answers)
}

/// Runs `serve-roundtrip`.
pub fn run_roundtrip(args: &Args, mut tracer: Option<&mut Tracer>) -> Result<Outcome, Failure> {
    let inputs = roundtrip_inputs(args.seed, ROUNDTRIP_SEGMENTS);
    let reference = reference(&inputs)?;
    let n = inputs.measured.len();
    let (untraced, traced) = crate::alternate(args, tracer.is_some(), n, |trace_pass, result| {
        let pass_tracer = if trace_pass { tracer.as_deref_mut() } else { None };
        roundtrip_pass(&inputs, &reference, pass_tracer, result)
    })?;
    Ok(crate::outcome("serve-roundtrip", untraced, traced))
}
