//! Persistent worker pool behind the batched inference engine.
//!
//! The pre-engine harness (`yoloc-bench`'s original `run_parallel`)
//! spawned a fresh set of threads for every call. This module replaces it
//! with a *persistent* pool: [`WorkerPool::with`] spawns the workers once
//! inside a [`std::thread::scope`], hands the pool to a closure, and every
//! [`WorkerPool::run`] inside that closure reuses the same threads. The
//! batched inference engine
//! ([`CompiledNetwork::infer_batch`](crate::compiler::CompiledNetwork::infer_batch)),
//! the serving broker and the figure-reproduction binaries in
//! `yoloc-bench` all share this one implementation.
//!
//! Design constraints and how they are met:
//!
//! * **No `unsafe`.** Jobs are type-erased as `Box<dyn FnOnce() + Send +
//!   'env>` where `'env` is fixed when the pool is created, so jobs may
//!   borrow anything that outlives the [`WorkerPool::with`] call — create
//!   the model/batch first, then open the pool.
//! * **Deterministic results.** [`WorkerPool::run`] preserves input order
//!   in its output vector regardless of which worker executes which job,
//!   so a result is a pure function of the job list, never of scheduling.
//! * **No idle caller.** The submitting thread helps drain the queue, so
//!   a pool of `workers = 1` executes jobs exactly like a serial loop on
//!   the calling thread (no cross-thread handoff at all), and `workers =
//!   n` applies `n` compute lanes in total.
//!
//! # Examples
//!
//! ```
//! use yoloc_core::engine::WorkerPool;
//!
//! let inputs: Vec<u64> = (0..100).collect();
//! let squares = WorkerPool::with(4, |pool| {
//!     pool.run(inputs.iter().map(|&v| move || v * v).collect())
//! });
//! assert_eq!(squares[9], 81);
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Derives the deterministic RNG stream seed for sample `index` of a
/// batched inference with base seed `seed`.
///
/// The index is mixed through a SplitMix64-style finalizer so neighbouring
/// samples get statistically independent streams, and the mapping is pure:
/// the noise a sample sees depends only on `(seed, index)`, never on which
/// worker executes it or in what order — the root of the batched engine's
/// bit-reproducibility.
pub fn sample_stream_seed(seed: u64, index: usize) -> u64 {
    let mut z = (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    seed ^ z ^ (z >> 31)
}

/// A type-erased unit of work valid for the pool's environment lifetime.
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

struct PoolState<'env> {
    jobs: VecDeque<Job<'env>>,
    shutdown: bool,
}

/// A persistent, scope-bound worker pool (see the [module docs](self)).
///
/// Construct one with [`WorkerPool::with`]; the pool cannot outlive that
/// call, which is what makes borrowing from the caller's stack safe
/// without `unsafe` code.
pub struct WorkerPool<'env> {
    state: Mutex<PoolState<'env>>,
    job_ready: Condvar,
    workers: usize,
}

impl<'env> WorkerPool<'env> {
    /// Runs `body` with a pool of `workers` total compute lanes (the
    /// calling thread counts as one; `workers - 1` threads are spawned).
    /// Worker threads persist across every [`WorkerPool::run`] call made
    /// inside `body` and join when `body` returns.
    ///
    /// `workers == 0` is treated as 1. Jobs submitted inside `body` may
    /// borrow any data created *before* the `with` call.
    pub fn with<R>(workers: usize, body: impl FnOnce(&WorkerPool<'env>) -> R) -> R {
        let workers = workers.max(1);
        let pool = WorkerPool {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            workers,
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(|| pool.worker_loop());
            }
            // Shut the workers down even if `body` unwinds — otherwise the
            // implicit join at the end of the scope would wait forever on
            // workers parked in `job_ready.wait`.
            struct Shutdown<'pool, 'env>(&'pool WorkerPool<'env>);
            impl Drop for Shutdown<'_, '_> {
                fn drop(&mut self) {
                    let mut st = self.0.state.lock().expect("pool lock");
                    st.shutdown = true;
                    drop(st);
                    self.0.job_ready.notify_all();
                }
            }
            let _shutdown = Shutdown(&pool);
            body(&pool)
        })
    }

    /// Total compute lanes (spawned workers plus the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `jobs` across the pool, returning their results in input
    /// order. The calling thread participates in draining the queue and
    /// blocks until every job has completed.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let slots: Arc<Vec<Mutex<Option<T>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        // Completion is counted by a drop guard so a panicking job still
        // wakes the submitting thread (which then finds the empty result
        // slot and propagates the failure) instead of hanging it forever.
        struct Complete(Arc<(Mutex<usize>, Condvar)>);
        impl Drop for Complete {
            fn drop(&mut self) {
                let (count, cv) = &*self.0;
                *count.lock().expect("done lock") += 1;
                cv.notify_all();
            }
        }
        {
            let mut st = self.state.lock().expect("pool lock");
            for (i, job) in jobs.into_iter().enumerate() {
                let slots = Arc::clone(&slots);
                let done = Arc::clone(&done);
                st.jobs.push_back(Box::new(move || {
                    let _complete = Complete(done);
                    let value = job();
                    *slots[i].lock().expect("slot lock") = Some(value);
                }));
            }
        }
        self.job_ready.notify_all();
        // Help drain the queue from the submitting thread.
        loop {
            let job = self.state.lock().expect("pool lock").jobs.pop_front();
            match job {
                Some(job) => job(),
                None => break,
            }
        }
        // Wait for jobs picked up by other workers to finish.
        let (count, cv) = &*done;
        let mut finished = count.lock().expect("done lock");
        while *finished < n {
            finished = cv.wait(finished).expect("done lock");
        }
        drop(finished);
        slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("slot lock")
                    .take()
                    .expect("a pool job panicked on a worker thread")
            })
            .collect()
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut st = self.state.lock().expect("pool lock");
                loop {
                    if let Some(job) = st.jobs.pop_front() {
                        break Some(job);
                    }
                    if st.shutdown {
                        break None;
                    }
                    st = self.job_ready.wait(st).expect("pool lock");
                }
            };
            match job {
                Some(job) => job(),
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_input_order() {
        let out = WorkerPool::with(4, |pool| {
            pool.run((0..64usize).map(|i| move || i * i).collect::<Vec<_>>())
        });
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_runs() {
        let (a, b) = WorkerPool::with(3, |pool| {
            let a = pool.run((0..10u64).map(|i| move || i + 1).collect::<Vec<_>>());
            let b = pool.run((0..10u64).map(|i| move || i * 2).collect::<Vec<_>>());
            (a, b)
        });
        assert_eq!(a, (1..=10).collect::<Vec<_>>());
        assert_eq!(b, (0..20).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_can_borrow_caller_data() {
        let data: Vec<u64> = (0..32).collect();
        let doubled = WorkerPool::with(2, |pool| {
            pool.run(data.iter().map(|v| move || v * 2).collect::<Vec<_>>())
        });
        assert_eq!(doubled[31], 62);
    }

    #[test]
    fn single_worker_runs_on_calling_thread() {
        let caller = std::thread::current().id();
        let ids = WorkerPool::with(1, |pool| {
            pool.run(
                (0..8)
                    .map(|_| || std::thread::current().id())
                    .collect::<Vec<_>>(),
            )
        });
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u8> = WorkerPool::with(2, |pool| pool.run(Vec::<fn() -> u8>::new()));
        assert!(out.is_empty());
    }

    #[test]
    fn zero_workers_degrades_to_one() {
        let out = WorkerPool::with(0, |pool| {
            assert_eq!(pool.workers(), 1);
            pool.run(vec![|| 41 + 1])
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    #[should_panic]
    fn panicking_job_propagates_instead_of_hanging() {
        // Whether the failing job lands on the calling thread or a spawned
        // worker, run() must panic (empty result slot), never deadlock.
        WorkerPool::with(3, |pool| {
            pool.run(
                (0..8)
                    .map(|i| move || if i == 5 { panic!("job failed") } else { i })
                    .collect::<Vec<_>>(),
            )
        });
    }

    #[test]
    #[should_panic(expected = "body failed")]
    fn panicking_body_still_joins_workers() {
        // The shutdown drop guard must release parked workers so the
        // scope's implicit join terminates and the panic propagates.
        WorkerPool::with(3, |_pool| -> () { panic!("body failed") });
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let jobs = |n: usize| (0..40u64).map(|i| move || i.wrapping_mul(i) ^ 7).take(n);
        let serial = WorkerPool::with(1, |p| p.run(jobs(40).collect::<Vec<_>>()));
        for workers in [2, 4, 8] {
            let parallel = WorkerPool::with(workers, |p| p.run(jobs(40).collect::<Vec<_>>()));
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }
}
