//! Benchmark of the PELS simulator on the paper's own workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload linking --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run generates a pool of scenario descriptions from `--seed`
//! (`workloads.rs`) as JSON text, checks the cheapest job of the pool
//! against the naive reference scheduler, runs one warm-up round through
//! `FleetEngine::run_scenarios`, then repeats rounds until `--seconds`
//! have passed. A round sets the pool up (decodes and validates every
//! description) and runs it as one fleet batch (closed loop, one worker,
//! each job = `JobOutcome::measure`: `Scenario::try_run` plus its power
//! summary). Outputs are checked on every round: each job completes all of
//! its linking events and the round reproduces the warm-up round's fleet
//! digest bit for bit; the lifetime workload's projections must be
//! finite, its energy ledgers must telescope, and every PELS node must
//! outlast its interrupt-mediated twin.
//!
//! `--trace 0` reports the end-to-end metrics: simulated cycles per host
//! CPU second, host CPU time per scenario job (median over the pool) and
//! set-up time, each timed on the CPU clock of the thread doing the work
//! (see [`thread_cpu_time`]) and taken from the fastest of its samples
//! (see [`uncontended`]). `--trace 1` runs the same loop with the
//! span profiler on and reports host time layer by layer (description decode,
//! SoC assembly, active and idle simulation windows, the rest of the
//! scenario job, power post-processing, fleet overhead) plus the
//! scheduler, CPU and fabric counters that say which route advanced the
//! simulated cycles.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod workloads;

use pels_fleet::{FleetEngine, FleetJob, FleetReport, JobError, JobOutcome};
use pels_obs::profile;
use pels_soc::{ExecMode, Scenario, ScenarioDesc};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// CPU time the calling thread has run so far. Unlike wall time it leaves
/// out the time the thread waited for a CPU: preemption by other processes
/// and, in a virtual machine whose kernel accounts steal time, time the
/// host gave the virtual CPU to another guest. A single-threaded job on an
/// idle host takes as much wall time as CPU time.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_time() -> Duration {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which the standard
    // library links; `ts` is a live, writable `timespec` of the layout the
    // call expects, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on every Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Elsewhere: wall time since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_time() -> Duration {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

/// Decodes and validates the generated descriptions into runnable jobs.
fn decode(inputs: &[(String, String)]) -> Result<Vec<(String, Scenario)>, String> {
    inputs
        .iter()
        .map(|(label, text)| {
            let desc = ScenarioDesc::from_json(text).map_err(|e| format!("{label}: {e}"))?;
            let scenario = Scenario::from_desc(desc).map_err(|e| format!("{label}: {e}"))?;
            Ok((label.clone(), scenario))
        })
        .collect()
}

/// Assembles every job's SoC (and drops it).
fn build_socs(jobs: &[(String, Scenario)]) {
    for (_, s) in jobs {
        black_box(s.build_soc());
    }
}

/// Simulated cycles of one job: the active window plus the idle window.
fn job_cycles(o: &JobOutcome) -> u64 {
    let r = &o.report;
    (r.active_window.as_ps() + r.idle_window.as_ps()) / r.freq.period_ps()
}

/// Jobs of `report` that failed or missed linking events.
fn failed_jobs(report: &FleetReport) -> u64 {
    report
        .jobs
        .iter()
        .filter(|j| match &j.result {
            Ok(o) => {
                o.report.events_completed != o.scenario.events
                    || o.report.latencies.len() != o.scenario.events as usize
            }
            Err(_) => true,
        })
        .count() as u64
}

/// The naive reference scheduler must reproduce the cheapest job of the
/// pool exactly (same fleet digest: latencies, windows, power).
fn check_against_naive(jobs: &[(String, Scenario)]) -> Result<(), String> {
    let (label, fast) = jobs
        .iter()
        .min_by_key(|(_, s)| u64::from(s.events) * u64::from(s.timer_period_cycles()))
        .ok_or("empty pool")?;
    let mut desc = fast.desc().clone();
    desc.exec = ExecMode::Naive;
    let naive = Scenario::from_desc(desc).map_err(|e| format!("{label}: {e}"))?;
    let engine = FleetEngine::new(1);
    let a = engine.run_scenarios(&[(label.clone(), fast.clone())]);
    let b = engine.run_scenarios(&[(label.clone(), naive)]);
    if a.digest() != b.digest() || failed_jobs(&a) != 0 {
        return Err(format!(
            "{label}: fast path differs from the naive reference"
        ));
    }
    Ok(())
}

/// Lifetime pairs (PELS at even, IRQ at odd slots, same node otherwise):
/// both projections finite and positive, the energy ledger telescoping to
/// mean power × span, and PELS lasting at least as long as the baseline.
fn check_lifetime(report: &FleetReport) -> Result<(), String> {
    let outcomes: Vec<&JobOutcome> = report.succeeded().map(|(_, o)| o).collect();
    for pair in outcomes.chunks(2) {
        let mut days = Vec::new();
        for o in pair {
            let label = format!("{:?}", o.scenario.sample_period);
            let ledger = o
                .report
                .energy
                .as_ref()
                .ok_or(format!("{label}: no ledger"))?;
            let life = o
                .report
                .lifetime
                .as_ref()
                .ok_or(format!("{label}: no projection"))?;
            // µW × ps = 1e-12 µJ.
            let telescoped = ledger.mean_power().as_uw() * ledger.span().as_ps() as f64 * 1e-12;
            if (telescoped - ledger.total_uj()).abs() > 1e-9 * ledger.total_uj().abs().max(1.0) {
                return Err(format!("{label}: ledger does not telescope"));
            }
            if !(life.seconds.is_finite() && life.seconds > 0.0) {
                return Err(format!("{label}: lifetime {} s", life.seconds));
            }
            days.push(life.seconds);
        }
        if let [pels, irq] = days[..] {
            if pels < irq {
                return Err(format!(
                    "PELS node dies before the IRQ node ({pels} < {irq} s)"
                ));
            }
        }
    }
    Ok(())
}

/// The power and lifetime post-processing a user runs on a report.
fn power_post(o: &JobOutcome) {
    let r = &o.report;
    let model = r.power_model();
    black_box(r.active_power(&model));
    black_box(r.idle_power(&model));
    if let Some(timeline) = r.power_timeline(&model) {
        let ledger = pels_power::EnergyLedger::from_timeline(&timeline);
        black_box(pels_power::Battery::coin_cell().project(&ledger));
    }
}

/// Nearest-rank median.
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Runs the pool as one fleet batch, job by job what
/// `FleetEngine::run_scenarios` runs, and also times each job on its
/// worker thread's CPU clock (in pool order; zero for a failed job).
fn run_round(engine: &FleetEngine, jobs: &[(String, Scenario)]) -> (FleetReport, Vec<Duration>) {
    let start = Instant::now();
    let results = engine.map(
        jobs,
        |_| 0,
        |(_, s)| {
            let t = thread_cpu_time();
            let outcome = JobOutcome::measure(s).map_err(JobError::from)?;
            Ok((outcome, thread_cpu_time() - t))
        },
    );
    let wall = start.elapsed();
    let mut cpu = Vec::with_capacity(jobs.len());
    let jobs = jobs
        .iter()
        .zip(results)
        .map(|((label, _), r)| {
            let (result, t) = match r.result {
                Ok((o, t)) => (Ok(o), t),
                Err(e) => (Err(e), Duration::ZERO),
            };
            cpu.push(t);
            FleetJob {
                label: label.clone(),
                elapsed: r.elapsed,
                worker: r.worker,
                stolen: r.stolen,
                result,
            }
        })
        .collect();
    let report = FleetReport {
        workers: engine.workers(),
        jobs,
        wall,
    };
    (report, cpu)
}

/// One measured round: the pool set up once, then run once as a fleet
/// batch.
struct Round {
    /// CPU time of decoding and validating the pool.
    setup: Duration,
    /// Wall time of the batch.
    wall: Duration,
    /// Wall time the workers spent inside jobs.
    busy: Duration,
    /// CPU time of each job, in pool order.
    job_cpu: Vec<Duration>,
}

/// What a run measured.
struct Run {
    /// The warm-up round: every measured round reproduced its digest, so
    /// its simulated statistics stand for all of them.
    warmup: FleetReport,
    rounds: Vec<Round>,
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

fn run(args: &Args) -> Result<Run, String> {
    let inputs = workloads::inputs(args.workload, args.seed, args.trace);
    let jobs = decode(&inputs)?;
    let mut error = check_against_naive(&jobs).err();
    // One worker: on a shared host, parallel rounds add the noise of a
    // second contended core to every measurement.
    let engine = FleetEngine::new(1);
    let warmup = engine.run_scenarios(&jobs);
    let mut failed = failed_jobs(&warmup);
    if args.workload == Workload::Lifetime && error.is_none() {
        error = check_lifetime(&warmup).err();
    }
    let reference = warmup.digest();

    if args.trace {
        profile::reset();
        profile::set_enabled(true);
    }
    let mut rounds = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    while rounds.is_empty() || start.elapsed() < budget {
        let t = thread_cpu_time();
        {
            let _g = profile::span("bench.desc_decode");
            black_box(decode(&inputs)?);
        }
        let setup = thread_cpu_time() - t;
        if args.trace {
            let _g = profile::span("bench.soc_build");
            build_socs(&jobs);
        }
        let (report, job_cpu) = run_round(&engine, &jobs);
        if args.trace {
            let _g = profile::span("bench.power_post");
            for (_, o) in report.succeeded() {
                power_post(o);
            }
        }
        failed += failed_jobs(&report);
        if report.digest() != reference && error.is_none() {
            error = Some("a round's fleet digest differs from the warm-up round".into());
        }
        rounds.push(Round {
            setup,
            wall: report.wall,
            busy: report.busy(),
            job_cpu,
        });
    }
    profile::set_enabled(false);
    let attempted = (rounds.len() as u64 + 1) * jobs.len() as u64;
    Ok(Run {
        warmup,
        rounds,
        attempted,
        failed,
        error,
    })
}

type Metric = (&'static str, f64, &'static str);

/// The time a repeated measurement takes when the host is least
/// contended: its fastest sample. The work is deterministic, so every
/// sample would read the same on a quiet machine. A shared host instead
/// runs it up to 1.75x slower (in CPU time too, so not a matter of
/// waiting for the CPU) in phases of one to tens of seconds, and the
/// share of a run spent in them varies from run to run: a median follows
/// that share, while the fastest sample only needs one quiet moment per
/// job in the run. Over 55-second windows of one long run, the fastest
/// sample spread least of the minimum, 1st, 5th and 50th percentiles.
fn uncontended(samples: impl Iterator<Item = f64>) -> f64 {
    samples.fold(f64::INFINITY, f64::min)
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let pool_cycles: u64 = run.warmup.succeeded().map(|(_, o)| job_cycles(o)).sum();
    let mut job_ms: Vec<f64> = (0..run.warmup.jobs.len())
        .map(|k| uncontended(run.rounds.iter().map(|r| r.job_cpu[k].as_secs_f64() * 1e3)))
        .collect();
    // Summed job by job: a whole round is uncontended less often than
    // each of its jobs is.
    let pool_ms: f64 = job_ms.iter().sum();
    vec![
        (
            "sim_mcycles_per_s",
            pool_cycles as f64 / pool_ms / 1e3,
            "Mcycles/s",
        ),
        ("job_ms_p50", median(&mut job_ms), "ms"),
        (
            "setup_s",
            uncontended(run.rounds.iter().map(|r| r.setup.as_secs_f64())),
            "s",
        ),
    ]
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let spans = profile::report();
    let ns = |path: &str| spans.get(path).map_or(0, |s| s.total_ns) as f64;
    let self_ns = |path: &str| spans.get(path).map_or(0, |s| s.self_ns) as f64;
    let rounds = run.rounds.len() as f64;
    let pool = run.warmup.jobs.len() as f64;
    let per_job_us = |total_ns: f64| total_ns / (rounds * pool) / 1e3;

    // Simulated statistics per pool, from the warm-up round.
    let sum = |f: &dyn Fn(&JobOutcome) -> u64| {
        run.warmup.succeeded().map(|(_, o)| f(o)).sum::<u64>() as f64
    };
    let counter = |name: &'static str| {
        move |o: &JobOutcome| {
            o.report
                .metrics
                .as_ref()
                .and_then(|m| m.get(name))
                .unwrap_or(0)
        }
    };
    let active_cycles = sum(&|o| o.report.active_window.as_ps() / o.report.freq.period_ps());
    let idle_cycles = sum(&|o| o.report.idle_window.as_ps() / o.report.freq.period_ps());
    let skipped = sum(&|o| o.report.sched_stats.skipped_cycles);
    let fast = sum(&|o| o.report.sched_stats.fast_cycles);
    let stirred = sum(&|o| o.report.sched_stats.stirred_cycles);
    let routed = skipped + fast + stirred;
    let hits = sum(&|o| o.report.decode_cache_hits);
    let misses = sum(&|o| o.report.decode_cache_misses);
    let fleet_ns: f64 = run
        .rounds
        .iter()
        .map(|r| r.wall.saturating_sub(r.busy).as_nanos() as f64)
        .sum();

    vec![
        ("desc.decode_us", per_job_us(ns("bench.desc_decode")), "us"),
        ("soc.build_us", per_job_us(ns("bench.soc_build")), "us"),
        (
            "soc.active_us",
            per_job_us(ns("fleet.job/scenario.active")),
            "us",
        ),
        (
            "soc.idle_us",
            per_job_us(ns("fleet.job/scenario.idle")),
            "us",
        ),
        ("scenario.other_us", per_job_us(self_ns("fleet.job")), "us"),
        ("power.post_us", per_job_us(ns("bench.power_post")), "us"),
        ("fleet.overhead_us", per_job_us(fleet_ns), "us"),
        (
            "soc.active_ns_per_cycle",
            ns("fleet.job/scenario.active") / (active_cycles * rounds),
            "ns",
        ),
        (
            "soc.idle_ns_per_cycle",
            ns("fleet.job/scenario.idle") / (idle_cycles * rounds),
            "ns",
        ),
        ("sched.skip_pct", 100.0 * skipped / routed, "%"),
        ("sched.fast_pct", 100.0 * fast / routed, "%"),
        ("sched.stirred_pct", 100.0 * stirred / routed, "%"),
        (
            "sched.skip_spans",
            sum(&|o| o.report.sched_stats.skip_spans) / pool,
            "count",
        ),
        (
            "sched.wakes",
            sum(&|o| o.report.sched_stats.wakes) / pool,
            "count",
        ),
        (
            "sprint.spans",
            sum(&counter("soc.sprint.spans")) / pool,
            "count",
        ),
        ("cpu.retired", sum(&counter("cpu.retired")) / pool, "count"),
        (
            "cpu.decode_hit_pct",
            100.0 * hits / (hits + misses).max(1.0),
            "%",
        ),
        (
            "fabric.transfers",
            sum(&counter("fabric.transfers")) / pool,
            "count",
        ),
    ]
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; such a value also marks the run
            // incorrect.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload linking|lifetime \
                 --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let run = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    if let Some(e) = &run.error {
        eprintln!("perfbench: incorrect output: {e}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = run.error.is_none() && run.failed == 0 && finite;
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<26} {value:>14.4} {unit}");
    }
    println!(
        "{}",
        result_line(correct, run.attempted, run.failed, &metrics)
    );
    ExitCode::SUCCESS
}
