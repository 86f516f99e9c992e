//! The shared worker pool partition jobs run on, and the execution context
//! that carries it.
//!
//! A [`WorkerPool`] is `n` identical threads draining one queue of boxed
//! jobs. It knows nothing of programs or reasoners: a job carries what it
//! works on (a partitioned reasoner's job carries its community's reasoner
//! and items, see [`crate::incremental`]), so one pool serves any number of
//! reasoners over any number of programs. Outcomes land in per-submission
//! [`BatchHandle`] slots in submission order (no channel allocation per
//! window), and because the pool is shared behind an `Arc`, several windows
//! can have jobs in flight at once — the property the
//! [`StreamEngine`](crate::engine::StreamEngine) builds on.
//!
//! A job may itself submit a batch to the pool it runs on and wait for it:
//! a multi-tenant serving entry runs as one job and fans its dirty
//! partitions out over the same pool. [`BatchHandle::wait`] called on one of
//! the pool's workers therefore claims the batch's jobs no worker has
//! started yet and runs them itself before it blocks, so a waiting worker
//! never holds a thread its batch needs and nested batches cannot
//! deadlock, however few workers there are. Each job runs exactly once,
//! on whichever thread claims it first. A thread outside the pool only
//! waits.
//!
//! [`ExecCtx`] is the one value the reasoners of an engine or a
//! multi-tenant engine share: the pool (or none, for caller-thread
//! execution) and the counters they report reuse, planning and recovery
//! into. [`partition_pool`] decides pool-or-caller for every partitioned
//! executor; every pool — a stand-alone reasoner's, a multi-tenant
//! engine's, a stream engine's — is sized by
//! [`ReasonerConfig::workers`](crate::ReasonerConfig), where `0` gives one
//! worker per partition (per partition per lane in a stream engine).

use crate::config::{ParallelMode, ReasonerConfig};
use crate::metrics::{CacheCounters, FailureCounters};
use crate::poison::{lock_recover, wait_recover};
use asp_core::AspError;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, ThreadId};

/// One unit of work: everything it needs is inside the closure.
pub type Job<R> = Box<dyn FnOnce() -> R + Send>;

/// Error marker for a job that panicked. The pool itself survives: the
/// unwind is caught and the worker keeps serving jobs, so one poisoned
/// partition can never deadlock a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobPanicked;

/// Outcome of one job: its result, or the panic marker.
pub type JobOutcome<R> = Result<R, JobPanicked>;

/// Runs `job` on the current thread, catching a panic.
fn run_caught<R>(job: Job<R>) -> JobOutcome<R> {
    std::panic::catch_unwind(AssertUnwindSafe(job)).map_err(|_| JobPanicked)
}

struct BatchState<R> {
    /// Jobs nobody has claimed yet; a worker or the waiter takes one out
    /// before running it, so each runs once.
    jobs: Vec<Option<Job<R>>>,
    slots: Vec<Option<JobOutcome<R>>>,
    remaining: usize,
}

struct BatchShared<R> {
    state: Mutex<BatchState<R>>,
    done: Condvar,
}

impl<R> BatchShared<R> {
    /// Runs job `slot` and stores its outcome, unless another thread
    /// claimed it first.
    fn run_slot(&self, slot: usize) {
        let Some(job) = lock_recover(&self.state).jobs[slot].take() else {
            return;
        };
        let outcome = run_caught(job);
        let mut state = lock_recover(&self.state);
        state.slots[slot] = Some(outcome);
        state.remaining -= 1;
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// Handle to one submitted batch of jobs; [`BatchHandle::wait`] blocks until
/// every job completed and returns the outcomes in submission order.
#[must_use = "a batch handle must be waited on to observe the results"]
pub struct BatchHandle<R> {
    shared: Arc<BatchShared<R>>,
    /// The threads of the pool the batch was submitted to.
    workers: Arc<[ThreadId]>,
}

impl<R> BatchHandle<R> {
    /// Blocks until all jobs of the batch finished; outcomes are returned in
    /// the order the jobs were submitted. Called on one of the pool's own
    /// workers, it first runs every job of the batch no worker has started
    /// (see the module docs).
    pub fn wait(self) -> Vec<JobOutcome<R>> {
        if self.workers.contains(&std::thread::current().id()) {
            let jobs = lock_recover(&self.shared.state).jobs.len();
            for slot in 0..jobs {
                self.shared.run_slot(slot);
            }
        }
        let mut state = lock_recover(&self.shared.state);
        while state.remaining > 0 {
            state = wait_recover(&self.shared.done, state);
        }
        state.slots.iter_mut().map(|s| s.take().expect("completed batch has all slots")).collect()
    }
}

/// A queued job: claims and runs one slot of its batch.
type Task = Box<dyn FnOnce() + Send>;

struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<QueueState>,
    available: Condvar,
}

/// A fixed-size pool of identical worker threads draining one shared job
/// queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// The ids of `handles`' threads, shared with every batch handle.
    ids: Arc<[ThreadId]>,
}

impl WorkerPool {
    /// Spawns `workers` threads named `{name}-{i}`; jobs are handed to
    /// whichever worker frees up first.
    pub fn new(name: &str, workers: usize) -> Result<Self, AspError> {
        if workers == 0 {
            return Err(AspError::Internal("worker pool needs at least one worker".into()));
        }
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(QueueState { tasks: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || loop {
                    let task = {
                        let mut queue = lock_recover(&shared.queue);
                        loop {
                            if let Some(task) = queue.tasks.pop_front() {
                                break task;
                            }
                            if queue.shutdown {
                                return;
                            }
                            queue = wait_recover(&shared.available, queue);
                        }
                    };
                    task();
                })
                .map_err(|e| AspError::Internal(format!("cannot spawn worker: {e}")))?;
            handles.push(handle);
        }
        let ids = handles.iter().map(|h| h.thread().id()).collect();
        Ok(WorkerPool { shared, handles, ids })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues `jobs` and returns the batch handle. Takes `&self`: a pool
    /// behind an `Arc` accepts concurrent submissions from several windows
    /// in flight.
    pub fn submit<R: Send + 'static>(&self, jobs: Vec<Job<R>>) -> BatchHandle<R> {
        let n = jobs.len();
        let batch = Arc::new(BatchShared {
            state: Mutex::new(BatchState {
                jobs: jobs.into_iter().map(Some).collect(),
                slots: (0..n).map(|_| None).collect(),
                remaining: n,
            }),
            done: Condvar::new(),
        });
        if n > 0 {
            let mut queue = lock_recover(&self.shared.queue);
            for slot in 0..n {
                let batch = Arc::clone(&batch);
                queue.tasks.push_back(Box::new(move || batch.run_slot(slot)));
            }
            drop(queue);
            self.shared.available.notify_all();
        }
        BatchHandle { shared: batch, workers: Arc::clone(&self.ids) }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock_recover(&self.shared.queue).shutdown = true;
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The pool that serves partitioned reasoners' dirty partitions, or `None`
/// when they run on the caller thread: in [`ParallelMode::Sequential`] and
/// under [`ReasonerConfig::delta_ground`]. It has
/// [`ReasonerConfig::workers`] threads, or `default_workers` when that is
/// `0`. Every partitioned executor decides pool-or-caller and pool size
/// here; the caller only supplies its default.
pub fn partition_pool(
    config: &ReasonerConfig,
    default_workers: usize,
) -> Result<Option<Arc<WorkerPool>>, AspError> {
    if config.mode == ParallelMode::Sequential || config.delta_ground {
        return Ok(None);
    }
    let workers = match config.workers {
        0 => default_workers,
        n => n,
    };
    Ok(Some(Arc::new(WorkerPool::new("pr-worker", workers.max(1))?)))
}

/// What the partitioned reasoners of one engine, one multi-tenant engine or
/// one stand-alone reasoner share: the pool that runs their dirty partitions
/// (`None`: each runs them on its own thread, see [`partition_pool`]), the
/// reuse counters and the retry/fallback counters they report into.
/// Cloning shares all three. The default has no pool and fresh counters.
#[derive(Clone, Default)]
pub struct ExecCtx {
    /// The shared pool; `None` runs jobs on the caller thread.
    pub pool: Option<Arc<WorkerPool>>,
    /// Reused and recomputed communities.
    pub counters: Arc<CacheCounters>,
    /// Retries and fallbacks of panicked partition jobs.
    pub failures: Arc<FailureCounters>,
}

impl ExecCtx {
    /// Runs `jobs` on the pool, or one after another on the caller thread
    /// without one, and returns their outcomes in submission order. A
    /// panicking job yields [`JobPanicked`] either way.
    pub fn run<R: Send + 'static>(&self, jobs: Vec<Job<R>>) -> Vec<JobOutcome<R>> {
        match &self.pool {
            Some(pool) => pool.submit(jobs).wait(),
            None => jobs.into_iter().map(run_caught).collect(),
        }
    }

    /// Worker threads of the pool (0 without one).
    pub fn workers(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.workers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One squaring job per payload.
    fn squares(payloads: Vec<u64>) -> Vec<Job<u64>> {
        payloads.into_iter().map(|x| Box::new(move || x * x) as Job<u64>).collect()
    }

    #[test]
    fn batch_results_keep_submission_order() {
        let pool = WorkerPool::new("sq", 3).unwrap();
        let out = pool.submit(squares(vec![1, 2, 3, 4, 5])).wait();
        let values: Vec<u64> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, vec![1, 4, 9, 16, 25]);
    }

    #[test]
    fn jobs_carry_the_callers_index_and_land_in_submission_order() {
        let pool = WorkerPool::new("tagged", 2).unwrap();
        let tagged: [(usize, u64); 3] = [(5, 50), (1, 10), (3, 30)];
        let jobs: Vec<Job<(usize, u64)>> =
            tagged.into_iter().map(|job| Box::new(move || job) as _).collect();
        let out = pool.submit(jobs).wait();
        assert_eq!(out, vec![Ok((5, 50)), Ok((1, 10)), Ok((3, 30))]);
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let pool = WorkerPool::new("sq", 1).unwrap();
        assert!(pool.submit(squares(vec![])).wait().is_empty());
    }

    #[test]
    fn concurrent_batches_from_multiple_windows_interleave() {
        let pool = Arc::new(WorkerPool::new("sq", 2).unwrap());
        let handles: Vec<_> = (0..8u64)
            .map(|w| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let out = pool.submit(squares(vec![w, w + 1])).wait();
                    out.into_iter().map(Result::unwrap).collect::<Vec<_>>()
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            let w = w as u64;
            assert_eq!(h.join().unwrap(), vec![w * w, (w + 1) * (w + 1)]);
        }
    }

    /// `x + 1` per payload, panicking on 13.
    fn unlucky(payloads: Vec<u64>) -> Vec<Job<u64>> {
        let job = |x: u64| {
            Box::new(move || {
                assert!(x != 13, "unlucky payload");
                x + 1
            }) as Job<u64>
        };
        payloads.into_iter().map(job).collect()
    }

    #[test]
    fn panicking_job_does_not_deadlock_the_pool() {
        let pool = WorkerPool::new("panicky", 2).unwrap();
        let out = pool.submit(unlucky(vec![1, 13, 3])).wait();
        assert_eq!(out, vec![Ok(2), Err(JobPanicked), Ok(4)]);
        // The pool keeps serving jobs after the panic.
        let again = pool.submit(unlucky(vec![10, 20])).wait();
        assert_eq!(again, vec![Ok(11), Ok(21)]);
    }

    /// Runs `f` on a fresh thread and fails, instead of hanging, when it
    /// has not returned within ten seconds.
    fn within_timeout<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(std::time::Duration::from_secs(10)).expect("the batch deadlocked")
    }

    #[test]
    fn a_job_waiting_on_a_nested_batch_of_its_own_pool_completes() {
        let outer = within_timeout(|| {
            let pool = Arc::new(WorkerPool::new("nested", 1).unwrap());
            let inner_pool = Arc::clone(&pool);
            let job: Job<Vec<JobOutcome<u64>>> =
                Box::new(move || inner_pool.submit(squares(vec![2, 3])).wait());
            pool.submit(vec![job]).wait()
        });
        assert_eq!(outer, vec![Ok(vec![Ok(4), Ok(9)])]);
    }

    #[test]
    fn a_thread_outside_the_pool_only_waits() {
        let names = within_timeout(|| {
            let pool = WorkerPool::new("outside", 1).unwrap();
            let name = || std::thread::current().name().map(str::to_string);
            let jobs: Vec<Job<Option<String>>> =
                (0..4).map(|_| Box::new(name) as Job<Option<String>>).collect();
            pool.submit(jobs).wait()
        });
        assert_eq!(names, vec![Ok(Some("outside-0".to_string())); 4]);
    }

    #[test]
    fn a_panicking_nested_job_is_reported_and_the_pool_keeps_serving() {
        let (nested, again) = within_timeout(|| {
            let pool = Arc::new(WorkerPool::new("nested-panic", 1).unwrap());
            let inner_pool = Arc::clone(&pool);
            let job: Job<Vec<JobOutcome<u64>>> =
                Box::new(move || inner_pool.submit(unlucky(vec![1, 13, 3])).wait());
            let nested = pool.submit(vec![job]).wait();
            (nested, pool.submit(unlucky(vec![10, 20])).wait())
        });
        assert_eq!(nested, vec![Ok(vec![Ok(2), Err(JobPanicked), Ok(4)])]);
        assert_eq!(again, vec![Ok(11), Ok(21)]);
    }

    #[test]
    fn caller_thread_context_runs_the_same_jobs_with_the_same_outcomes() {
        let pooled = ExecCtx {
            pool: Some(Arc::new(WorkerPool::new("ctx", 2).unwrap())),
            ..Default::default()
        };
        let inline = ExecCtx::default();
        assert_eq!((pooled.workers(), inline.workers()), (2, 0));
        let expected = vec![Ok(2), Err(JobPanicked), Ok(4)];
        assert_eq!(pooled.run(unlucky(vec![1, 13, 3])), expected);
        assert_eq!(inline.run(unlucky(vec![1, 13, 3])), expected);
    }

    #[test]
    fn zero_workers_is_an_error() {
        assert!(WorkerPool::new("none", 0).is_err());
    }

    #[test]
    fn pool_workers_update_shared_registry_metrics_concurrently() {
        // Jobs share one registry handle exactly the way the engine's lanes
        // do: every update from every pool thread must land in one scrape,
        // with the histogram count matching the job count.
        use std::sync::atomic::{AtomicU64, Ordering};

        let registry = Arc::new(sr_obs::MetricsRegistry::new());
        let jobs_done = Arc::new(AtomicU64::new(0));
        let shared = Arc::clone(&jobs_done);
        registry
            .register_counter_fn("sr_test_jobs_total", &[], move || shared.load(Ordering::Relaxed));
        let payload_hist = Arc::new(sr_obs::Histogram::new());
        registry.register_histogram("sr_test_payload", &[], Arc::clone(&payload_hist));
        let pool = Arc::new(WorkerPool::new("metered", 4).unwrap());

        let submitters: Vec<_> = (0..8u64)
            .map(|w| {
                let pool = Arc::clone(&pool);
                let jobs: Vec<Job<u64>> = (0..16)
                    .map(|i| {
                        let jobs_done = Arc::clone(&jobs_done);
                        let payload_hist = Arc::clone(&payload_hist);
                        let x = w * 16 + i;
                        Box::new(move || {
                            jobs_done.fetch_add(1, Ordering::Relaxed);
                            payload_hist.record(x as f64);
                            x
                        }) as _
                    })
                    .collect();
                std::thread::spawn(move || pool.submit(jobs).wait())
            })
            .collect();
        for h in submitters {
            assert!(h.join().unwrap().iter().all(Result::is_ok));
        }

        assert_eq!(jobs_done.load(Ordering::Relaxed), 8 * 16, "every job counted exactly once");
        assert_eq!(payload_hist.count(), 8 * 16);
        assert_eq!(payload_hist.min(), 0.0);
        let text = registry.render_prometheus();
        assert!(text.contains("sr_test_jobs_total 128"), "{text}");
        assert!(text.contains("sr_test_payload_count 128"), "{text}");
    }
}
