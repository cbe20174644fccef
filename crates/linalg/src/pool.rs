//! Persistent worker pool shared by every parallel kernel in the
//! workspace.
//!
//! The pool replaces the ad-hoc `std::thread::scope` spawns the
//! codebase used before: threads are created once and fed jobs through
//! a channel, so the per-call cost of going parallel is a channel send
//! instead of a thread spawn. Three design rules keep it predictable:
//!
//! 1. **Determinism** — the pool only ever runs *independent* tasks;
//!    every reduction across task results happens on the calling thread
//!    in a fixed order chosen by work size, never by thread count or
//!    completion order. Callers that follow this rule (all kernels in
//!    this crate do) produce bit-identical results for any pool size.
//! 2. **Safe sizing** — the default is a single thread, i.e. fully
//!    serial. Parallelism is opt-in via [`configure`] (driven by
//!    `FreewayConfig`) or the `FREEWAY_THREADS` environment variable
//!    (`0` means "use all available cores"); the env var wins so
//!    deployments can re-size without code changes.
//! 3. **No nested blocking** — jobs that themselves call parallel
//!    kernels run those kernels inline (workers never wait on other
//!    workers), so the pool cannot deadlock on itself.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A unit of work submitted to the pool. The lifetime lets scoped tasks
/// borrow from the caller's stack; [`WorkerPool::run`] joins all tasks
/// before returning, which is what makes that sound.
pub type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A fixed-size set of worker threads fed through an MPMC channel.
///
/// Most code should use the process-wide pool via [`global`]; standalone
/// pools exist so tests can compare thread counts side by side.
pub struct WorkerPool {
    sender: Sender<Job>,
    threads: usize,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

impl WorkerPool {
    /// Spawns a pool with `threads` workers (`0` and `1` both mean
    /// "serial": no workers are spawned and every task runs inline).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = unbounded::<Job>();
        if threads > 1 {
            for i in 0..threads {
                let rx: Receiver<Job> = receiver.clone();
                // Audited: OS refusing to spawn threads at startup is
                // unrecoverable; failing loudly here is the design.
                #[allow(clippy::expect_used)]
                std::thread::Builder::new()
                    .name(format!("freeway-worker-{i}"))
                    .spawn(move || {
                        IN_WORKER.with(|flag| flag.set(true));
                        while let Ok(job) = rx.recv() {
                            // A panicking job must not take the worker
                            // down with it; scoped tasks re-raise their
                            // panic on the submitting thread instead.
                            let _ = panic::catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("failed to spawn freeway worker thread");
            }
        }
        Self { sender, threads }
    }

    /// Number of threads this pool was created with (1 = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether submitting tasks can actually overlap execution.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Runs every task to completion before returning.
    ///
    /// On a serial pool — or when called from inside a worker (nested
    /// parallelism) — tasks run inline on the current thread, in order.
    /// Otherwise they are distributed across the workers and this call
    /// blocks until the last one finishes. A panic in any task is
    /// re-raised here once all tasks have settled.
    pub fn run(&self, tasks: Vec<Task<'_>>) {
        if tasks.is_empty() {
            return;
        }
        if !self.is_parallel() || IN_WORKER.with(|flag| flag.get()) {
            for task in tasks {
                task();
            }
            return;
        }
        let latch = Arc::new(Latch::new(tasks.len()));
        for task in tasks {
            // SAFETY: `run` blocks on the latch until every task has
            // completed, so borrows captured by the tasks outlive their
            // execution even though the channel requires 'static.
            let task: Task<'static> =
                unsafe { std::mem::transmute::<Task<'_>, Task<'static>>(task) };
            let latch_handle = Arc::clone(&latch);
            let job: Job = Box::new(move || {
                let result = panic::catch_unwind(AssertUnwindSafe(task));
                latch_handle.complete(result.err());
            });
            // Audited: workers only exit when the last sender drops, and
            // `self` holds one — the channel cannot be disconnected here.
            #[allow(clippy::expect_used)]
            self.sender.send(job).expect("worker threads outlive the pool handle");
        }
        latch.wait_and_propagate();
    }
}

struct Latch {
    state: Mutex<LatchState>,
    all_done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            state: Mutex::new(LatchState { remaining: count, panic_payload: None }),
            all_done: Condvar::new(),
        }
    }

    fn complete(&self, panic_payload: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self.state.lock();
        state.remaining -= 1;
        if state.panic_payload.is_none() {
            state.panic_payload = panic_payload;
        }
        if state.remaining == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait_and_propagate(&self) {
        let mut state = self.state.lock();
        while state.remaining > 0 {
            self.all_done.wait(&mut state);
        }
        if let Some(payload) = state.panic_payload.take() {
            drop(state);
            panic::resume_unwind(payload);
        }
    }
}

static DESIRED_THREADS: AtomicUsize = AtomicUsize::new(1);
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
static GLOBAL: Mutex<Option<Arc<WorkerPool>>> = Mutex::new(None);

/// Sets the process-wide pool size (used by `FreewayConfig`); `0` means
/// "use all available cores", matching the env var. The
/// `FREEWAY_THREADS` environment variable, when set, takes precedence.
/// Takes effect lazily: the next [`global`] call re-creates the pool if
/// the size changed; pool handles already held keep working.
pub fn configure(threads: usize) {
    let resolved = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    DESIRED_THREADS.store(resolved, Ordering::Relaxed);
}

/// The pool size [`global`] would use right now.
pub fn configured_threads() -> usize {
    let env = *ENV_THREADS.get_or_init(|| {
        std::env::var("FREEWAY_THREADS").ok().and_then(|raw| {
            let parsed = raw.trim().parse::<usize>().ok()?;
            Some(if parsed == 0 {
                std::thread::available_parallelism().map_or(1, usize::from)
            } else {
                parsed
            })
        })
    });
    env.unwrap_or_else(|| DESIRED_THREADS.load(Ordering::Relaxed)).max(1)
}

/// The process-wide pool, created lazily at the currently configured
/// size. Cheap enough to call per kernel invocation, but size-gate
/// first: serial fallbacks should not pay for the handle.
pub fn global() -> Arc<WorkerPool> {
    let desired = configured_threads();
    let mut slot = GLOBAL.lock();
    match slot.as_ref() {
        Some(pool) if pool.threads() == desired => Arc::clone(pool),
        _ => {
            // Replacing the pool drops our sender once callers finish;
            // orphaned workers then drain their queue and exit.
            let pool = Arc::new(WorkerPool::new(desired));
            *slot = Some(Arc::clone(&pool));
            pool
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert!(!pool.is_parallel());
        let mut touched = false;
        pool.run(vec![Box::new(|| touched = true)]);
        assert!(touched);
    }

    #[test]
    fn parallel_pool_runs_every_task() {
        let pool = WorkerPool::new(4);
        let counter = AtomicU64::new(0);
        let tasks: Vec<Task<'_>> = (0..64)
            .map(|i| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(i, Ordering::Relaxed);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), (0..64).sum::<u64>());
    }

    #[test]
    fn tasks_can_borrow_disjoint_output_slices() {
        let pool = WorkerPool::new(3);
        let mut out = vec![0usize; 9];
        let tasks: Vec<Task<'_>> = out
            .chunks_mut(3)
            .enumerate()
            .map(|(i, chunk)| {
                Box::new(move || {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = i * 3 + j;
                    }
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(out, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn panic_in_task_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![Box::new(|| {}), Box::new(|| panic!("deliberate test panic"))]);
        }));
        assert!(result.is_err(), "panic must cross the pool boundary");
        // The pool must stay usable after a panicked task.
        let mut ok = false;
        pool.run(vec![Box::new(|| ok = true)]);
        assert!(ok);
    }

    #[test]
    fn nested_run_from_worker_does_not_deadlock() {
        let pool = Arc::new(WorkerPool::new(2));
        let outer = Arc::clone(&pool);
        let hits = Arc::new(AtomicU64::new(0));
        let hits_outer = Arc::clone(&hits);
        pool.run(vec![Box::new(move || {
            let hits_inner = Arc::clone(&hits_outer);
            // Inner run executes inline on the worker thread.
            outer.run(vec![Box::new(move || {
                hits_inner.fetch_add(1, Ordering::Relaxed);
            })]);
        })]);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn configured_threads_defaults_to_serial() {
        // In the test environment FREEWAY_THREADS is normally unset, in
        // which case the compiled-in default of 1 (serial) applies.
        if std::env::var("FREEWAY_THREADS").is_err() {
            assert_eq!(configured_threads(), 1);
        }
    }
}
