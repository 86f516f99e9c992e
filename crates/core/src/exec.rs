//! Shared worker-pool executor for partition jobs.
//!
//! The original parallel reasoner dedicated one long-lived thread per
//! partition and allocated a fresh reply channel on every `process` call.
//! This module replaces that with a single size-configurable pool: jobs are
//! tagged [`JobTag`] `(window_id, partition_idx)` with the partition index
//! the caller gives, pushed onto one shared queue, and completed results
//! land in per-submission [`BatchHandle`] slots in submission order (no
//! channel allocation per window). Because the pool is shared behind an
//! `Arc`, several windows can have partition jobs in flight at once — the
//! property the [`StreamEngine`](crate::engine::StreamEngine) builds on.
//!
//! The pool is generic and hosts no hooks of its own: a job runs exactly
//! what its worker closure does. The reasoner pool's closures run the
//! partition-job hook themselves ([`crate::parallel::reasoner_pool`]).

use crate::poison::{lock_recover, wait_recover};
use asp_core::AspError;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Identifies one partition job of one window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobTag {
    /// The window the job belongs to.
    pub window_id: u64,
    /// The partition (community) index within that window, as the caller
    /// gave it — not the job's position in its batch.
    pub partition_idx: usize,
}

/// Error marker returned for a job whose worker closure panicked. The pool
/// itself survives: the worker thread catches the unwind and keeps serving
/// jobs, so one poisoned partition can never deadlock a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobPanicked {
    /// The job that panicked.
    pub tag: JobTag,
}

/// A worker closure: per-worker mutable state (e.g. a reasoner instance)
/// lives inside the closure's captures.
pub type WorkerFn<J, R> = Box<dyn FnMut(JobTag, J) -> R + Send>;

/// Outcome of one job: the closure's result, or the panic marker.
pub type JobOutcome<R> = Result<R, JobPanicked>;

struct Job<J, R> {
    tag: JobTag,
    /// The job's position in its batch: where its outcome lands.
    slot: usize,
    payload: J,
    batch: Arc<BatchShared<R>>,
}

struct BatchState<R> {
    slots: Vec<Option<JobOutcome<R>>>,
    remaining: usize,
}

struct BatchShared<R> {
    state: Mutex<BatchState<R>>,
    done: Condvar,
}

/// Handle to one submitted batch of jobs; [`BatchHandle::wait`] blocks until
/// every job completed and returns the outcomes in submission order.
#[must_use = "a batch handle must be waited on to observe the results"]
pub struct BatchHandle<R> {
    shared: Arc<BatchShared<R>>,
}

impl<R> BatchHandle<R> {
    /// Blocks until all jobs of the batch finished; outcomes are returned in
    /// the order the payloads were submitted.
    pub fn wait(self) -> Vec<JobOutcome<R>> {
        let mut state = lock_recover(&self.shared.state);
        while state.remaining > 0 {
            state = wait_recover(&self.shared.done, state);
        }
        state.slots.iter_mut().map(|s| s.take().expect("completed batch has all slots")).collect()
    }
}

struct QueueState<J, R> {
    jobs: VecDeque<Job<J, R>>,
    shutdown: bool,
}

struct PoolShared<J, R> {
    queue: Mutex<QueueState<J, R>>,
    available: Condvar,
}

/// A fixed-size pool of worker threads draining one shared job queue.
pub struct WorkerPool<J: Send + 'static, R: Send + 'static> {
    shared: Arc<PoolShared<J, R>>,
    handles: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static, R: Send + 'static> WorkerPool<J, R> {
    /// Spawns one thread per entry of `workers` (named `{name}-{i}`). Each
    /// closure owns its worker-local state; jobs are handed to whichever
    /// worker frees up first.
    pub fn new(name: &str, workers: Vec<WorkerFn<J, R>>) -> Result<Self, AspError> {
        if workers.is_empty() {
            return Err(AspError::Internal("worker pool needs at least one worker".into()));
        }
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(workers.len());
        for (i, mut work) in workers.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || loop {
                    let job = {
                        let mut queue = lock_recover(&shared.queue);
                        loop {
                            if let Some(job) = queue.jobs.pop_front() {
                                break job;
                            }
                            if queue.shutdown {
                                return;
                            }
                            queue = wait_recover(&shared.available, queue);
                        }
                    };
                    let Job { tag, slot, payload, batch } = job;
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| work(tag, payload)))
                        .map_err(|_| JobPanicked { tag });
                    let mut state = lock_recover(&batch.state);
                    state.slots[slot] = Some(outcome);
                    state.remaining -= 1;
                    if state.remaining == 0 {
                        batch.done.notify_all();
                    }
                })
                .map_err(|e| AspError::Internal(format!("cannot spawn worker: {e}")))?;
            handles.push(handle);
        }
        Ok(WorkerPool { shared, handles })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues one job per `(partition_idx, payload)`, tagged
    /// `(window_id, partition_idx)`, and returns the batch handle. Takes
    /// `&self`: a pool behind an `Arc` accepts concurrent submissions from
    /// several windows in flight.
    pub fn submit(&self, window_id: u64, jobs: Vec<(usize, J)>) -> BatchHandle<R> {
        let batch = Arc::new(BatchShared {
            state: Mutex::new(BatchState {
                slots: (0..jobs.len()).map(|_| None).collect(),
                remaining: jobs.len(),
            }),
            done: Condvar::new(),
        });
        if !jobs.is_empty() {
            let mut queue = lock_recover(&self.shared.queue);
            for (slot, (partition_idx, payload)) in jobs.into_iter().enumerate() {
                queue.jobs.push_back(Job {
                    tag: JobTag { window_id, partition_idx },
                    slot,
                    payload,
                    batch: Arc::clone(&batch),
                });
            }
            drop(queue);
            self.shared.available.notify_all();
        }
        BatchHandle { shared: batch }
    }
}

impl<J: Send + 'static, R: Send + 'static> Drop for WorkerPool<J, R> {
    fn drop(&mut self) {
        lock_recover(&self.shared.queue).shutdown = true;
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `payloads` as jobs indexed by their position.
    fn indexed(payloads: Vec<u64>) -> Vec<(usize, u64)> {
        payloads.into_iter().enumerate().collect()
    }

    fn squaring_pool(workers: usize) -> WorkerPool<u64, u64> {
        let fns: Vec<WorkerFn<u64, u64>> =
            (0..workers).map(|_| Box::new(|_tag: JobTag, x: u64| x * x) as _).collect();
        WorkerPool::new("sq", fns).unwrap()
    }

    #[test]
    fn batch_results_keep_submission_order() {
        let pool = squaring_pool(3);
        let out = pool.submit(7, indexed(vec![1, 2, 3, 4, 5])).wait();
        let values: Vec<u64> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, vec![1, 4, 9, 16, 25]);
    }

    #[test]
    fn jobs_carry_the_callers_index_and_land_in_submission_order() {
        let fns: Vec<WorkerFn<u64, (usize, u64)>> =
            (0..2).map(|_| Box::new(|tag: JobTag, x: u64| (tag.partition_idx, x)) as _).collect();
        let pool = WorkerPool::new("tagged", fns).unwrap();
        let out = pool.submit(3, vec![(5, 50), (1, 10), (3, 30)]).wait();
        assert_eq!(out, vec![Ok((5, 50)), Ok((1, 10)), Ok((3, 30))]);
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let pool = squaring_pool(1);
        assert!(pool.submit(0, vec![]).wait().is_empty());
    }

    #[test]
    fn concurrent_batches_from_multiple_windows_interleave() {
        let pool = Arc::new(squaring_pool(2));
        let handles: Vec<_> = (0..8u64)
            .map(|w| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let out = pool.submit(w, indexed(vec![w, w + 1])).wait();
                    out.into_iter().map(Result::unwrap).collect::<Vec<_>>()
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            let w = w as u64;
            assert_eq!(h.join().unwrap(), vec![w * w, (w + 1) * (w + 1)]);
        }
    }

    #[test]
    fn panicking_job_does_not_deadlock_the_pool() {
        let fns: Vec<WorkerFn<u64, u64>> = (0..2)
            .map(|_| {
                Box::new(|tag: JobTag, x: u64| {
                    assert!(x != 13, "unlucky payload in window {}", tag.window_id);
                    x + 1
                }) as _
            })
            .collect();
        let pool = WorkerPool::new("panicky", fns).unwrap();
        let out = pool.submit(1, indexed(vec![1, 13, 3])).wait();
        assert_eq!(out[0], Ok(2));
        assert_eq!(out[1], Err(JobPanicked { tag: JobTag { window_id: 1, partition_idx: 1 } }));
        assert_eq!(out[2], Ok(4));
        // The pool keeps serving jobs after the panic.
        let again = pool.submit(2, indexed(vec![10, 20])).wait();
        assert_eq!(again, vec![Ok(11), Ok(21)]);
    }

    #[test]
    fn zero_workers_is_an_error() {
        assert!(WorkerPool::<u64, u64>::new("none", vec![]).is_err());
    }

    #[test]
    fn pool_workers_update_shared_registry_metrics_concurrently() {
        // Worker closures share one registry handle exactly the way the
        // engine's lanes do: every update from every pool thread must land
        // in one scrape, with the histogram count matching the job count.
        use std::sync::atomic::Ordering;

        let registry = Arc::new(sr_obs::MetricsRegistry::new());
        let jobs_done = registry.counter("sr_test_jobs_total", &[]);
        let payload_hist = registry.histogram("sr_test_payload", &[]);
        let fns: Vec<WorkerFn<u64, u64>> = (0..4)
            .map(|_| {
                let jobs_done = Arc::clone(&jobs_done);
                let payload_hist = Arc::clone(&payload_hist);
                Box::new(move |_tag: JobTag, x: u64| {
                    jobs_done.fetch_add(1, Ordering::Relaxed);
                    payload_hist.record(x as f64);
                    x
                }) as _
            })
            .collect();
        let pool = Arc::new(WorkerPool::new("metered", fns).unwrap());

        let submitters: Vec<_> = (0..8u64)
            .map(|w| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    pool.submit(w, indexed((0..16).map(|i| w * 16 + i).collect())).wait()
                })
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
