//! Fork–join on the caller: [`ExecCtx::fork_join`] runs jobs on the thread
//! that asks, forking scoped threads (joined through their handles) only
//! while a permit is free. The caller counts: it takes a free permit but runs
//! jobs either way, each fork takes one more, and a job's nested call (a
//! serving entry's partitions) takes none.

use crate::config::{ParallelMode, ReasonerConfig};
use crate::metrics::{CacheCounters, FailureCounters};
use crate::poison::lock_recover;
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Error marker for a job that panicked; the other jobs still run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobPanicked;

thread_local! {
    /// Where the permit count lives of the context whose job this thread runs.
    static IN_JOB: Cell<usize> = const { Cell::new(0) };
}

/// A taken permit, given back on drop.
struct Permit<'a>(&'a AtomicUsize);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What the partitioned reasoners of one engine, one multi-tenant engine or
/// one stand-alone reasoner share: the thread bound and its permits, and the
/// reuse and retry counters. Cloning shares them. The default forks nothing.
#[derive(Clone, Default)]
pub struct ExecCtx {
    bound: usize,
    taken: Arc<AtomicUsize>,
    /// Reused and recomputed communities.
    pub counters: Arc<CacheCounters>,
    /// Retries and fallbacks of panicked partition jobs.
    pub failures: Arc<FailureCounters>,
}

impl ExecCtx {
    /// This context's counters under a bound of [`ReasonerConfig::workers`]
    /// threads, or `default_threads` when that is `0`; the bound is 0 (fork
    /// nothing) in [`ParallelMode::Sequential`] and under `delta_ground`.
    pub fn with_bound(&self, config: &ReasonerConfig, default_threads: usize) -> ExecCtx {
        let bound = match config.workers {
            _ if config.mode == ParallelMode::Sequential || config.delta_ground => 0,
            0 => default_threads,
            n => n,
        };
        ExecCtx { bound, taken: Arc::default(), ..self.clone() }
    }

    /// How many threads of this context may reason at once.
    pub fn threads(&self) -> usize {
        self.bound
    }

    fn try_take(&self) -> Option<Permit<'_>> {
        let free = |t: usize| (t < self.bound).then_some(t + 1);
        self.taken.fetch_update(Ordering::AcqRel, Ordering::Acquire, free).ok()?;
        Some(Permit(&self.taken))
    }

    /// Runs `run` once on every job, on the caller and on as many forks as
    /// free permits allow; returns the outcomes in submission order. Threads
    /// that share the jobs claim the heaviest by `weight` first; a caller
    /// alone keeps submission order.
    pub fn fork_join<J: Send, R: Send>(
        &self,
        jobs: &mut [J],
        weight: impl Fn(&J) -> usize,
        run: impl Fn(&mut J) -> R + Sync,
    ) -> Vec<Result<R, JobPanicked>> {
        let (n, id) = (jobs.len(), Arc::as_ptr(&self.taken) as usize);
        let _caller = if IN_JOB.with(Cell::get) == id { None } else { self.try_take() };
        let permits: Vec<Permit> = (1..n).map_while(|_| self.try_take()).collect();
        let mut claims: Vec<(usize, &mut J)> = jobs.iter_mut().enumerate().collect();
        if !permits.is_empty() {
            claims.sort_by_key(|(_, job)| std::cmp::Reverse(weight(job)));
        }
        let claims: Vec<_> = claims.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let next = AtomicUsize::new(0);
        let drain = &|| {
            let mut done = Vec::new();
            while let Some(claim) = claims.get(next.fetch_add(1, Ordering::Relaxed)) {
                let (i, job) = lock_recover(claim).take().expect("each job is claimed once");
                let outer = IN_JOB.with(|c| c.replace(id));
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run(job)));
                IN_JOB.with(|c| c.set(outer));
                done.push((i, outcome.map_err(|_| JobPanicked)));
            }
            done
        };
        let mut done = std::thread::scope(|s| {
            let mut forks = Vec::new();
            for permit in permits {
                let trace = sr_obs::tracer().is_enabled().then(sr_obs::current_ctx);
                forks.extend(std::thread::Builder::new().spawn_scoped(s, move || {
                    let (_permit, _trace) = (permit, trace.map(sr_obs::ctx_scope));
                    drain()
                }));
            }
            let mut done = drain();
            let _join = if forks.is_empty() { None } else { sr_obs::span(sr_obs::Stage::Join) };
            for fork in forks {
                done.extend(fork.join().expect("a fork catches its jobs' panics"));
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, outcome)| outcome).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// A context whose threads reason at most `bound` at once.
    fn ctx(bound: usize) -> ExecCtx {
        ExecCtx::default().with_bound(&ReasonerConfig::default(), bound)
    }

    /// Squares every payload.
    fn squares(ctx: &ExecCtx, mut payloads: Vec<u64>) -> Vec<Result<u64, JobPanicked>> {
        ctx.fork_join(&mut payloads, |_| 0, |x| *x * *x)
    }

    /// `x + 1` per payload, panicking on 13.
    fn unlucky(ctx: &ExecCtx, mut payloads: Vec<u64>) -> Vec<Result<u64, JobPanicked>> {
        ctx.fork_join(
            &mut payloads,
            |_| 0,
            |&mut x| {
                assert!(x != 13, "unlucky payload");
                x + 1
            },
        )
    }

    /// Holds every job that attends until `size` jobs have started, so that
    /// many threads are inside jobs at once; fails the job after ten
    /// seconds instead of hanging.
    struct Meeting {
        size: usize,
        started: Mutex<usize>,
        arrived: std::sync::Condvar,
    }

    impl Meeting {
        fn new(size: usize) -> Self {
            Meeting { size, started: Mutex::new(0), arrived: std::sync::Condvar::new() }
        }

        fn attend(&self) {
            let mut started = lock_recover(&self.started);
            *started += 1;
            self.arrived.notify_all();
            let ten_s = Duration::from_secs(10);
            let (started, wait) =
                self.arrived.wait_timeout_while(started, ten_s, |s| *s < self.size).unwrap();
            assert!(!wait.timed_out(), "only {} of {} jobs ran at once", *started, self.size);
        }
    }

    /// The threads that ran `jobs` jobs under `ctx`, by job, when `together`
    /// of them must run at once.
    fn runners(ctx: &ExecCtx, jobs: usize, together: usize) -> Vec<ThreadId> {
        let meeting = Meeting::new(together);
        let mut jobs = vec![(); jobs];
        let ran = ctx.fork_join(
            &mut jobs,
            |_| 0,
            |_| {
                meeting.attend();
                std::thread::current().id()
            },
        );
        ran.into_iter().map(|r| r.expect("enough threads ran the jobs")).collect()
    }

    /// Runs `f` on a fresh thread and fails, instead of hanging, when it
    /// has not returned within ten seconds.
    fn within_timeout<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(10)).expect("the batch deadlocked")
    }

    #[test]
    fn batch_results_keep_submission_order() {
        for bound in 0..4 {
            let out = squares(&ctx(bound), vec![1, 2, 3, 4, 5]);
            assert_eq!(out, vec![Ok(1), Ok(4), Ok(9), Ok(16), Ok(25)], "bound {bound}");
        }
    }

    #[test]
    fn jobs_carry_the_callers_index_and_land_in_submission_order() {
        // Weighted by their tag. A caller alone claims in submission order;
        // with a fork the heaviest two are claimed first and meet, so the
        // lightest runs last. Outcomes come back as submitted either way.
        for (bound, together) in [(0, 1), (2, 2)] {
            let mut tagged = [(1, 10), (5, 50), (3, 30)];
            let (claimed, meeting) = (Mutex::new(Vec::new()), Meeting::new(together));
            let out = ctx(bound).fork_join(
                &mut tagged,
                |&(tag, _)| tag,
                |&mut (tag, value)| {
                    lock_recover(&claimed).push(tag);
                    meeting.attend();
                    value
                },
            );
            assert_eq!(out, vec![Ok(10), Ok(50), Ok(30)], "bound {bound}");
            let claimed = claimed.into_inner().unwrap();
            if bound == 0 {
                assert_eq!(claimed, [1, 5, 3], "a caller alone keeps submission order");
            } else {
                assert_eq!(claimed[2], 1, "forked threads claim the heaviest first: {claimed:?}");
            }
        }
    }

    #[test]
    fn empty_batch_completes_immediately() {
        for bound in [0, 2] {
            assert!(squares(&ctx(bound), vec![]).is_empty());
        }
    }

    #[test]
    fn concurrent_batches_from_multiple_windows_interleave() {
        let shared = &ctx(2);
        std::thread::scope(|s| {
            let callers: Vec<_> =
                (0..6u64).map(|w| (w, s.spawn(move || squares(shared, vec![w, w + 1])))).collect();
            for (w, caller) in callers {
                assert_eq!(caller.join().unwrap(), vec![Ok(w * w), Ok((w + 1) * (w + 1))]);
            }
        });
        assert_eq!(shared.taken.load(Ordering::Relaxed), 0, "every permit came back");
    }

    #[test]
    fn panicking_job_does_not_deadlock_the_pool() {
        for bound in 0..4 {
            let ctx = ctx(bound);
            assert_eq!(unlucky(&ctx, vec![1, 13, 3]), vec![Ok(2), Err(JobPanicked), Ok(4)]);
            // The context keeps serving after the panic, its permits back.
            assert_eq!(unlucky(&ctx, vec![10, 20]), vec![Ok(11), Ok(21)]);
            assert_eq!(ctx.taken.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn at_most_bound_threads_are_inside_jobs_at_once() {
        for bound in 1..5 {
            let (inside, high) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let meeting = Meeting::new(bound);
            let mut jobs = vec![(); 8];
            let out = ctx(bound).fork_join(
                &mut jobs,
                |_| 0,
                |_| {
                    high.fetch_max(inside.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    meeting.attend();
                    inside.fetch_sub(1, Ordering::SeqCst);
                },
            );
            assert!(out.iter().all(Result::is_ok), "bound {bound}: fewer threads than permits");
            assert_eq!(high.into_inner(), bound, "bound {bound}: threads inside jobs at once");
        }
    }

    #[test]
    fn bound_zero_runs_every_job_on_the_caller_thread() {
        let caller = std::thread::current().id();
        assert_eq!(runners(&ctx(0), 3, 1), vec![caller; 3]);
        for config in [
            ReasonerConfig { mode: ParallelMode::Sequential, ..Default::default() },
            ReasonerConfig { delta_ground: true, workers: 4, ..Default::default() },
        ] {
            assert_eq!(ExecCtx::default().with_bound(&config, 4).threads(), 0, "forks nothing");
        }
    }

    #[test]
    fn the_calling_thread_runs_jobs_too() {
        let caller = std::thread::current().id();
        let ran = runners(&ctx(2), 4, 2);
        assert!(ran.contains(&caller), "the caller does not only wait: {ran:?}");
        let threads: std::collections::HashSet<_> = ran.iter().collect();
        assert_eq!(threads.len(), 2, "one fork under a bound of 2: {ran:?}");
    }

    #[test]
    fn a_job_waiting_on_a_nested_batch_of_its_own_pool_completes() {
        for bound in 1..4 {
            let out = within_timeout(move || {
                let ctx = ctx(bound);
                let mut entries = vec![2u64, 3];
                ctx.fork_join(&mut entries, |_| 0, |&mut x| squares(&ctx, vec![x, x + 1]))
            });
            assert_eq!(out, vec![Ok(vec![Ok(4), Ok(9)]), Ok(vec![Ok(9), Ok(16)])], "bound {bound}");
        }
        // One entry on a caller holding one of 2 permits: its nested batch
        // takes no second permit for itself, so the free one forks and both
        // nested jobs run at once.
        let nested = within_timeout(|| {
            let ctx = ctx(2);
            let mut entry = [()];
            let mut ran = ctx.fork_join(&mut entry, |_| 0, |_| runners(&ctx, 2, 2));
            ran.pop().unwrap().unwrap()
        });
        assert_ne!(nested[0], nested[1], "the nested batch forked: {nested:?}");
    }

    #[test]
    fn a_panicking_nested_job_is_reported_and_the_pool_keeps_serving() {
        let (nested, again) = within_timeout(|| {
            let ctx = ctx(2);
            let mut entries = [vec![1, 13, 3], vec![5]];
            let nested = ctx.fork_join(&mut entries, |_| 0, |xs| unlucky(&ctx, xs.clone()));
            (nested, unlucky(&ctx, vec![10, 20]))
        });
        assert_eq!(nested, vec![Ok(vec![Ok(2), Err(JobPanicked), Ok(4)]), Ok(vec![Ok(6)])]);
        assert_eq!(again, vec![Ok(11), Ok(21)]);
    }

    #[test]
    fn caller_thread_context_runs_the_same_jobs_with_the_same_outcomes() {
        let (forking, inline) = (ctx(2), ExecCtx::default());
        assert_eq!((forking.threads(), inline.threads()), (2, 0));
        let expected = vec![Ok(2), Err(JobPanicked), Ok(4)];
        assert_eq!(unlucky(&forking, vec![1, 13, 3]), expected);
        assert_eq!(unlucky(&inline, vec![1, 13, 3]), expected);
    }

    #[test]
    fn pool_workers_update_shared_registry_metrics_concurrently() {
        // Jobs of several callers share one registry handle exactly the way
        // the engine's lanes do: every update from every thread must land in
        // one scrape, with the histogram count matching the job count.
        use std::sync::atomic::AtomicU64;

        let registry = sr_obs::MetricsRegistry::new();
        let jobs_done = Arc::new(AtomicU64::new(0));
        let shared = Arc::clone(&jobs_done);
        registry
            .register_counter_fn("sr_test_jobs_total", &[], move || shared.load(Ordering::Relaxed));
        let payload_hist = Arc::new(sr_obs::Histogram::new());
        registry.register_histogram("sr_test_payload", &[], Arc::clone(&payload_hist));
        let ctx = ctx(4);
        std::thread::scope(|s| {
            for w in 0..8u64 {
                let (ctx, jobs_done, payload_hist) = (&ctx, &jobs_done, &payload_hist);
                s.spawn(move || {
                    let mut jobs: Vec<u64> = (0..16).map(|i| w * 16 + i).collect();
                    let out = ctx.fork_join(
                        &mut jobs,
                        |_| 0,
                        |&mut x| {
                            jobs_done.fetch_add(1, Ordering::Relaxed);
                            payload_hist.record(x as f64);
                            x
                        },
                    );
                    assert!(out.iter().all(Result::is_ok));
                });
            }
        });

        assert_eq!(jobs_done.load(Ordering::Relaxed), 8 * 16, "every job counted exactly once");
        assert_eq!(payload_hist.count(), 8 * 16);
        assert_eq!(payload_hist.min(), 0.0);
        let text = registry.render_prometheus();
        assert!(text.contains("sr_test_jobs_total 128"), "{text}");
        assert!(text.contains("sr_test_payload_count 128"), "{text}");
    }
}
