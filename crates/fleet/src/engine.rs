//! The work-stealing worker pool.

use crate::report::{FleetJob, FleetReport, JobError, JobOutcome};
use crate::sweep::SweepSpec;
use pels_soc::Scenario;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

/// One job's result from [`FleetEngine::map`]: how long it ran, where it
/// ran, and what it produced.
#[derive(Debug, Clone)]
pub struct JobResult<R> {
    /// Wall-clock time the job spent on its worker.
    pub elapsed: std::time::Duration,
    /// Index of the worker thread that executed the job.
    pub worker: usize,
    /// `true` when the job was stolen from another worker's deque rather
    /// than popped from the executing worker's own share.
    pub stolen: bool,
    /// The job's output, or its own failure.
    pub result: Result<R, JobError>,
}

/// A fixed pool of workers executing independent jobs, longest-first,
/// with work stealing.
///
/// The engine is stateless between batches: construct once, reuse for
/// any number of [`FleetEngine::map`] / [`FleetEngine::run_scenarios`]
/// calls. Scheduling never affects results — outputs always come back in
/// input order.
#[derive(Debug, Clone, Copy)]
pub struct FleetEngine {
    workers: usize,
}

impl FleetEngine {
    /// A pool of exactly `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        FleetEngine {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the host's available parallelism.
    pub fn auto() -> Self {
        Self::new(host_parallelism())
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job` over every item on the worker pool and returns the
    /// results **in input order**.
    ///
    /// `weight` is a relative cost estimate (any monotone unit — e.g.
    /// simulated cycles): jobs are scheduled longest-first so a heavy
    /// tail job starts early instead of serializing the end of the batch.
    /// A panicking job is caught at the worker boundary and reported as
    /// [`JobError::Panicked`] in its own slot; sibling jobs and the batch
    /// are unaffected.
    pub fn map<T, R>(
        &self,
        items: &[T],
        weight: impl Fn(&T) -> u64,
        job: impl Fn(&T) -> Result<R, JobError> + Sync,
    ) -> Vec<JobResult<R>>
    where
        T: Sync,
        R: Send,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);

        // Longest-first: sort indices by descending weight, then deal
        // them round-robin so every worker starts with a balanced share.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(weight(&items[i])));
        let deques: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (k, &i) in order.iter().enumerate() {
            deques[k % workers]
                .lock()
                .expect("deque poisoned")
                .push_back(i);
        }

        type Report<R> = (usize, usize, bool, std::time::Duration, Result<R, JobError>);
        let (tx, rx) = mpsc::channel::<Report<R>>();
        std::thread::scope(|scope| {
            for me in 0..workers {
                let tx = tx.clone();
                let deques = &deques;
                let job = &job;
                scope.spawn(move || {
                    while let Some((idx, stolen)) = next_job(me, deques) {
                        let _span = pels_obs::profile::span("fleet.job");
                        let start = Instant::now();
                        let result = catch_unwind(AssertUnwindSafe(|| job(&items[idx])))
                            .unwrap_or_else(|p| Err(JobError::Panicked(panic_message(&*p))));
                        // The receiver outlives the scope; a send only
                        // fails if the batch was abandoned wholesale.
                        let _ = tx.send((idx, me, stolen, start.elapsed(), result));
                    }
                });
            }
        });
        drop(tx);

        let mut slots: Vec<Option<JobResult<R>>> = (0..n).map(|_| None).collect();
        for (idx, worker, stolen, elapsed, result) in rx {
            slots[idx] = Some(JobResult {
                elapsed,
                worker,
                stolen,
                result,
            });
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job reports exactly once"))
            .collect()
    }

    /// Runs labelled scenarios as a fleet: each job executes
    /// [`JobOutcome::measure`] (simulate + power summary) on a worker,
    /// weighted by the scenario's estimated simulated-cycle cost.
    pub fn run_scenarios(&self, jobs: &[(String, Scenario)]) -> FleetReport {
        let _span = pels_obs::profile::span("fleet.batch");
        let start = Instant::now();
        let results = self.map(
            jobs,
            |(_, s)| scenario_weight(s),
            |(_, s)| JobOutcome::measure(s).map_err(JobError::from),
        );
        FleetReport {
            workers: self.workers,
            jobs: jobs
                .iter()
                .zip(results)
                .map(|((label, _), r)| FleetJob {
                    label: label.clone(),
                    elapsed: r.elapsed,
                    worker: r.worker,
                    stolen: r.stolen,
                    result: r.result,
                })
                .collect(),
            wall: start.elapsed(),
        }
    }

    /// Expands a [`SweepSpec`] and runs the resulting fleet.
    ///
    /// # Errors
    ///
    /// Returns the first [`pels_soc::ScenarioError`] if a sweep point
    /// fails description validation — the spec is rejected before any
    /// simulation starts.
    pub fn run_sweep(&self, spec: &SweepSpec) -> Result<FleetReport, pels_soc::ScenarioError> {
        Ok(self.run_scenarios(&spec.jobs()?))
    }
}

/// The host's available parallelism (1 when unknown).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Estimated simulated cycles for one scenario run — the longest-first
/// scheduling key: the active window's [`Scenario::cycle_budget`],
/// doubled for the matching idle window.
fn scenario_weight(s: &Scenario) -> u64 {
    s.cycle_budget().saturating_mul(2)
}

/// Pops the next job index for worker `me`, with a flag marking whether
/// it came from a sibling's deque (a steal) rather than `me`'s own share.
fn next_job(me: usize, deques: &[Mutex<VecDeque<usize>>]) -> Option<(usize, bool)> {
    // Own queue from the front...
    if let Some(i) = deques[me].lock().expect("deque poisoned").pop_front() {
        return Some((i, false));
    }
    // ...then steal from the back of the busiest-looking sibling.
    for k in 1..deques.len() {
        let other = (me + k) % deques.len();
        if let Some(i) = deques[other].lock().expect("deque poisoned").pop_back() {
            return Some((i, true));
        }
    }
    None
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_input_order() {
        let engine = FleetEngine::new(4);
        let items: Vec<u64> = (0..32).collect();
        // Weight inversely to index so the schedule order differs from
        // the input order.
        let results = engine.map(&items, |&i| 1_000 - i, |&i| Ok::<u64, JobError>(i * i));
        assert_eq!(results.len(), 32);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r.result.as_ref().unwrap(), (i as u64).pow(2));
        }
    }

    #[test]
    fn failing_job_does_not_poison_siblings() {
        let engine = FleetEngine::new(2);
        let items: Vec<u32> = (0..8).collect();
        let results = engine.map(
            &items,
            |_| 1,
            |&i| {
                if i == 3 {
                    Err(JobError::Panicked("synthetic".into()))
                } else {
                    Ok(i)
                }
            },
        );
        assert!(results[3].result.is_err());
        assert_eq!(
            results.iter().filter(|r| r.result.is_ok()).count(),
            7,
            "exactly one slot fails"
        );
    }

    #[test]
    fn panicking_job_is_caught_at_the_worker_boundary() {
        // Quiet the default panic hook for the intentional panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let engine = FleetEngine::new(2);
        let items = [0u32, 1, 2];
        let results = engine.map(
            &items,
            |_| 1,
            |&i| {
                if i == 1 {
                    panic!("boom {i}");
                }
                Ok(i)
            },
        );
        std::panic::set_hook(prev);
        match &results[1].result {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected a caught panic, got {other:?}"),
        }
        assert!(results[0].result.is_ok() && results[2].result.is_ok());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let engine = FleetEngine::new(3);
        let results = engine.map(&[] as &[u32], |_| 1, |&i| Ok::<u32, JobError>(i));
        assert!(results.is_empty());
    }

    #[test]
    fn worker_count_is_clamped_to_one() {
        assert_eq!(FleetEngine::new(0).workers(), 1);
        assert!(FleetEngine::auto().workers() >= 1);
    }
}
