//! # pels-fleet — parallel scenario fleet execution
//!
//! The evaluation workload of one [`pels_soc::Scenario`] is a single
//! deterministic, single-threaded simulation. Regenerating the paper's
//! figures — and the ablation grids around them — means running *many*
//! independent scenarios: cartesian products over mediator × frequency ×
//! PELS configuration × fabric topology. This crate schedules those runs
//! across a fixed pool of worker threads and reduces the results into a
//! deterministic, input-order-stable [`FleetReport`].
//!
//! ## Architecture
//!
//! * [`FleetEngine`] owns the worker count and implements the scheduling
//!   policy: jobs are sorted **longest-first** by a caller-supplied weight
//!   estimate, dealt round-robin into per-worker deques, and each worker
//!   pops its own deque from the front and **steals from the back** of its
//!   siblings when it runs dry — the classic work-stealing shape, built
//!   from `std::thread` + `Mutex<VecDeque>` only (no external crates).
//! * [`SweepSpec`] is the declarative layer: one base
//!   [`pels_soc::ScenarioDesc`] and a cartesian product of sweep axes
//!   over it, expanding into labelled, validated [`pels_soc::Scenario`]
//!   jobs.
//! * [`FleetReport`] is the reduction: per-job outcomes **in input
//!   order** (scheduling order never leaks into the report), per-job wall
//!   time, and a [`FleetReport::digest`] over every simulation-derived
//!   field — the hook the determinism suite uses to prove that 1-worker
//!   and N-worker runs are bit-identical.
//!
//! ## Determinism
//!
//! Each job runs a freshly built SoC, so jobs share no mutable state; the
//! component-name interner is global and lock-protected, and all
//! reporting paths key by *name* (sorted), never by interning order —
//! which is the one thing that does race across worker threads. Power
//! totals come from `BTreeMap`-backed models, so even f64 summation order
//! is fixed. The digest therefore depends only on the job list, not on
//! the worker count or thread scheduling.
//!
//! ## Failure isolation
//!
//! A job that fails — [`pels_soc::ScenarioError`] from
//! [`pels_soc::Scenario::try_run`], or a panic, which the engine catches
//! — produces a [`JobError`] in its own slot of the report. Sibling jobs
//! are unaffected; a misconfigured sweep point costs exactly one job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod report;
pub mod sweep;

pub use engine::{FleetEngine, JobResult};
pub use report::{FleetJob, FleetReport, JobError, JobOutcome, WorkerStats};
pub use sweep::SweepSpec;

// The engine migrates whole simulations to worker threads; these bindings
// fail to compile if any simulator layer regresses on `Send`.
fn _assert_send<T: Send>() {}
fn _send_audit() {
    _assert_send::<pels_soc::Soc>();
    _assert_send::<pels_soc::Scenario>();
    _assert_send::<pels_soc::ScenarioReport>();
    _assert_send::<pels_power::PowerModel>();
}
