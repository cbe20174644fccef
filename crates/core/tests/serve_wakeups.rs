//! Wake-up accounting of the serving facade. A binary of its own, so no
//! other test's service shares the process:
//!
//! * a healthy closed-loop round trip wakes the shard worker and the
//!   session only: the maintenance thread (`freeway-serve`) sleeps
//!   through 200 exchanges without a single context switch;
//! * closing a session is synchronous: the active-sessions gauge has
//!   dropped by the time the session's `drop` returns.

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use freeway_core::telemetry::Telemetry;
use freeway_core::{ClientSession, FreewayConfig, PipelineBuilder, SubmitOutcome};
use freeway_ml::ModelSpec;
use freeway_streams::concept::{stream_rng, GmmConcept};
use freeway_streams::{Batch, DriftPhase};

const DIM: usize = 6;
const CLASSES: usize = 2;
const ROWS: usize = 32;

/// Each test starts a service; running them one at a time makes the
/// maintenance thread a test finds its own.
static SERIAL: Mutex<()> = Mutex::new(());

/// A 1-shard service with the builder's defaults: no stall deadline, so
/// the maintenance thread has no timer.
fn builder() -> PipelineBuilder {
    PipelineBuilder::new(ModelSpec::lr(DIM, CLASSES)).with_config(FreewayConfig {
        pca_warmup_rows: 64,
        mini_batch: ROWS,
        ..Default::default()
    })
}

fn batches(count: usize) -> Vec<Batch> {
    let mut rng = stream_rng(17);
    let concept = GmmConcept::random(DIM, CLASSES, 2, 4.0, 0.6, &mut rng);
    (0..count)
        .map(|i| {
            let (x, y) = concept.sample_batch(ROWS, &mut rng);
            Batch::labeled(x, y, i as u64, DriftPhase::Stable)
        })
        .collect()
}

/// One closed-loop exchange that must come back answered.
fn exchange(session: &mut ClientSession, batch: Batch) {
    let client_seq = session.submit_batch(batch, true).expect("admitted");
    let out = session.recv_output().expect("output delivered");
    assert_eq!(out.client_seq, client_seq, "closed loop: the answer is for this submission");
    assert!(matches!(out.outcome, SubmitOutcome::Answered(_)), "{:?}", out.outcome);
}

/// `/proc/self/task/<tid>` of the one thread named `freeway-serve`.
#[cfg(target_os = "linux")]
fn maintenance_task() -> std::path::PathBuf {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let mut found = tasks.filter_map(Result::ok).map(|task| task.path()).filter(|task| {
        std::fs::read_to_string(task.join("comm")).is_ok_and(|comm| comm.trim() == "freeway-serve")
    });
    let task = found.next().expect("the service runs a thread named freeway-serve");
    assert!(found.next().is_none(), "one service, one maintenance thread");
    task
}

/// The value of `field` in a task's `status` file.
#[cfg(target_os = "linux")]
fn status_field(task: &std::path::Path, field: &str) -> String {
    let status = std::fs::read_to_string(task.join("status")).expect("task status");
    let line = status.lines().find(|line| line.starts_with(field)).expect("status field");
    line[field.len()..].trim().to_owned()
}

#[test]
#[cfg(target_os = "linux")]
fn a_healthy_round_trip_never_wakes_the_maintenance_thread() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let service = builder().build_service().expect("valid service");
    let mut session = service.handle().open_session(3).expect("service running");
    let batches = batches(220);
    let (warmup, measured) = batches.split_at(20);
    for batch in warmup {
        exchange(&mut session, batch.clone());
    }
    // Count from the thread's first park on: it parks as soon as it
    // starts and, with no stall deadline and no crash, never wakes.
    let task = maintenance_task();
    for _ in 0..5_000 {
        if status_field(&task, "State:").starts_with('S') {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let switches = || status_field(&task, "voluntary_ctxt_switches:");
    let before = switches();
    for batch in measured {
        exchange(&mut session, batch.clone());
    }
    assert_eq!(switches(), before, "the maintenance thread woke during healthy round trips");
    drop(session);
    let report = service.shutdown().expect("clean shutdown");
    assert_eq!(report.stats.answered, 220);
}

#[test]
fn closing_a_session_is_synchronous() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (telemetry, _sink) = Telemetry::recording();
    let service = builder().with_telemetry(telemetry.clone()).build_service().expect("valid");
    let handle = service.handle();
    let active = || telemetry.metrics().gauges.get("freeway_serve_sessions_active").copied();
    let a = handle.open_session(1).expect("service running");
    let b = handle.open_session(2).expect("service running");
    assert_eq!(active(), Some(2.0));
    drop(b);
    assert_eq!(active(), Some(1.0), "the close landed after drop returned");
    drop(a);
    assert_eq!(active(), Some(0.0), "the close landed after drop returned");
    let report = service.shutdown().expect("clean shutdown");
    assert_eq!(report.stats.sessions_opened, 2);
}
