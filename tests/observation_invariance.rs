//! Differential proof that every observation probe is pure observation.
//!
//! Four probes record what a run did without changing it: the metrics
//! snapshot (`obs`), the windowed activity timeline (`timeline_window`),
//! causal event flows (`flows`) and the energy ledger with its battery
//! projection (`lifetime`). The contract: trace digests and entry
//! counts, activity images, latencies, windows and scheduler counters
//! are bit-identical with any subset of probes on, under every execution
//! mode and mediator, and fleet digests do not move under a probe or the
//! worker count. `obs` also keeps the trace's entries, which a plain run
//! streams through the trace's digest, counts and latency pairer. The
//! first two tests run the shared harness in `tests/common`: the first
//! over every non-empty probe subset that `tests/flow_invariance.rs` and
//! `tests/lifetime_invariance.rs` do not run, on the default scenario
//! and a duty-cycled one (where an unobserved report keeps no trace
//! entry, and an observed one's entries give the latencies and
//! completed count the online pairer did), the second over the metrics,
//! timeline and lifetime probes alone, the metrics snapshot over a
//! sampled timeline, and all four; those two files check the flow probe
//! and the ledger over a sampled timeline. Each subset simulates once.
//! The tests after them pin what each probe records (timeline windows
//! partition the run, a sampled SoC equals its unsampled twin once both
//! are drained, flow attribution is mode-independent, the ledger
//! partitions the power timeline, duty-cycled horizons stay cheap).

mod common;

use common::{
    assert_reports_identical, run, ALL_PROBES, FLOWS, LIFETIME, MEDIATORS, OBS, TIMELINE,
};
use pels_fleet::{FleetEngine, SweepSpec};
use pels_power::{Battery, EnergyLedger};
use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::Timer;
use pels_repro::soc::{ExecMode, Mediator, Scenario, ScenarioDesc, Soc, SystemDesc};
use pels_sim::{ActivityKind, ActivitySet, SimTime};

/// The probe subsets `tests/flow_invariance.rs` and
/// `tests/lifetime_invariance.rs` run through the same harness.
const RUN_ELSEWHERE: [usize; 4] = [FLOWS, OBS | TIMELINE | FLOWS, LIFETIME, LIFETIME | TIMELINE];

#[test]
fn every_probe_subset_is_pure_observation() {
    let rest: Vec<usize> = (1..=ALL_PROBES)
        .filter(|mask| !RUN_ELSEWHERE.contains(mask))
        .collect();
    common::assert_subsets_pure(&rest);
}

#[test]
fn fleet_digest_is_invariant_under_every_probe_and_worker_count() {
    // The metrics, timeline and lifetime probes alone, the metrics
    // snapshot over a sampled timeline, then all four together; the
    // flow probe alone and the ledger over a sampled timeline are
    // checked beside their subsets above.
    common::assert_fleet_digest_invariant(&[OBS, TIMELINE, LIFETIME, OBS | TIMELINE, ALL_PROBES]);
}

#[test]
fn timeline_sampling_never_perturbs_any_mediator() {
    for mediator in [
        Mediator::PelsSequenced,
        Mediator::PelsInstant,
        Mediator::IbexIrq,
    ] {
        let base = Scenario::iso_frequency(mediator);
        let plain = base.run();
        // Maximum time resolution: a window boundary is crossed on nearly
        // every cycle, so every observation point in the run loops closes
        // a window. A coarser window exercises the skip-stretch path.
        for window in [1, 64, 4096] {
            let sampled = run(ScenarioDesc {
                timeline_window: window,
                ..base.desc().clone()
            });
            assert!(plain.timeline.is_none(), "timelines are opt-in");
            let timeline = sampled.timeline.as_ref().expect("sampled timeline");
            assert!(!timeline.is_empty());
            assert_eq!(timeline.window_cycles, window);
            // The windows partition the run: contiguous, in order, and
            // their activity sums to exactly the full-run image.
            let mut prev_end = 0;
            for w in timeline.windows() {
                assert_eq!(w.start_cycle, prev_end, "windows are contiguous");
                assert!(w.end_cycle > w.start_cycle);
                prev_end = w.end_cycle;
            }
            // Window deltas sum to the drained active image: exact for
            // every event counter; clock rows with integer gating
            // residuals (`cycles / 10`) may round down per window, so
            // only the ungated fabric clock is compared exactly.
            let total = timeline.total_activity();
            let mut summed = pels_sim::ActivitySet::new();
            let mut drained = pels_sim::ActivitySet::new();
            for (name, kind, n) in total.iter() {
                if kind != pels_sim::ActivityKind::ClockCycle {
                    summed.record_named(name, kind, n);
                }
            }
            for (name, kind, n) in sampled.active_activity.iter() {
                if kind != pels_sim::ActivityKind::ClockCycle {
                    drained.record_named(name, kind, n);
                }
            }
            assert_eq!(summed, drained, "window deltas sum to the drained image");
            assert_eq!(
                total.count("fabric", pels_sim::ActivityKind::ClockCycle),
                sampled
                    .active_activity
                    .count("fabric", pels_sim::ActivityKind::ClockCycle),
                "ungated clock rows sum exactly"
            );
            assert_reports_identical(&plain, &sampled, &format!("{mediator} window {window}"));
        }
    }
}

#[test]
fn timeline_sampled_soc_equals_its_unsampled_twin_mid_run() {
    for mediator in MEDIATORS {
        for exec in [ExecMode::Fast, ExecMode::Naive] {
            let scenario = Scenario::from_desc(ScenarioDesc {
                mediator,
                exec,
                ..ScenarioDesc::default()
            })
            .expect("valid scenario");
            let mut plain = scenario.build_soc();
            plain.timer_mut().write(Timer::CMP, scenario.timer_period_cycles()).unwrap();
            plain.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
            for window in [1, 16] {
                let (mut plain, mut sampled) = (plain.clone(), plain.clone());
                sampled.start_timeline(window);
                // Uneven strides land the observation points at every
                // phase of the events (and of the windows).
                for (k, stride) in [1, 7, 13, 29].iter().cycle().take(80).enumerate() {
                    plain.run(*stride);
                    sampled.run(*stride);
                    let ctx = format!("{mediator} {exec:?} window {window} point {k}");
                    common::assert_same_drained(&plain, &sampled, &ctx);
                }
                let timeline = sampled.take_timeline().expect("sampled");
                assert!(timeline.len() > 1, "windows were closed mid-run");
            }
        }
    }
}

#[test]
fn draining_mid_timeline_keeps_every_window_whole() {
    // An IRQ node sampled at 500-cycle windows and drained at cycles
    // 3000 and 6000, inside windows: a drain must not cut the window
    // it falls in short, so the windows' event counters sum to exactly
    // what the drains hold.
    let scenario = Scenario::from_desc(ScenarioDesc {
        mediator: Mediator::IbexIrq,
        ..ScenarioDesc::default()
    })
    .expect("valid scenario");
    let mut soc = scenario.build_soc();
    soc.timer_mut().write(Timer::CMP, 137).unwrap();
    soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
    soc.start_timeline(500);
    let mut drained = ActivitySet::new();
    for _ in 0..2 {
        soc.run(3000);
        drained.merge(&soc.drain_activity());
    }
    let timeline = soc.take_timeline().expect("sampled");
    drained.merge(&soc.drain_activity());
    let events = |set: &ActivitySet| {
        let mut out = ActivitySet::new();
        for (name, kind, n) in set.iter().filter(|&(_, k, _)| k != ActivityKind::ClockCycle) {
            out.record_named(name, kind, n);
        }
        out
    };
    assert_eq!(events(&timeline.total_activity()), events(&drained));
    assert_eq!(drained.count("ibex", ActivityKind::InstrRetired), 491);
    assert_eq!(drained.count("fabric", ActivityKind::BusTransfer), 172);
    // The window that straddles the first drain kept its instructions.
    let straddling = timeline
        .windows()
        .find(|w| w.start_cycle < 3000 && w.end_cycle > 3000)
        .expect("a window straddles the drain");
    assert!(straddling.activity.count("ibex", ActivityKind::InstrRetired) > 0);
}

#[test]
fn span_profiler_enable_never_perturbs_results() {
    let base = Scenario::iso_frequency(Mediator::IbexIrq);
    let off = base.run();
    // Maximum observability: global profiler on *and* metrics collected.
    pels_obs::profile::set_enabled(true);
    let on = run(ScenarioDesc {
        obs: true,
        ..base.desc().clone()
    });
    pels_obs::profile::set_enabled(false);
    assert_reports_identical(&off, &on, "span profiler");
}

#[test]
fn publishing_metrics_mid_run_leaves_the_soc_untouched() {
    let mut observed = Soc::from_desc(&SystemDesc::default()).unwrap();
    let mut reference = Soc::from_desc(&SystemDesc::default()).unwrap();
    let mut snap = pels_obs::MetricsSnapshot::default();
    for _ in 0..10 {
        observed.run(100);
        reference.run(100);
        // Observation point in the middle of the run: gauges republish on
        // every pass (set semantics, idempotent).
        observed.publish_metrics(&mut snap);
        let _ = observed.sched_stats();
        let _ = observed.cpu().retired();
        let _ = observed.master_stats();
    }
    assert_eq!(observed.first_difference(&reference), None);
    assert_eq!(observed.sched_stats(), reference.sched_stats());
    // And the counters the snapshot reports match the accessors exactly.
    assert_eq!(snap.get("cpu.retired").unwrap_or(0), reference.cpu().retired());
    assert_eq!(observed.drain_activity(), reference.drain_activity());
}

#[test]
fn flow_attribution_is_identical_across_exec_modes() {
    for mediator in MEDIATORS {
        let report_for = |exec| {
            run(ScenarioDesc {
                exec,
                flows: true,
                ..Scenario::latency_probe(mediator).desc().clone()
            })
                .flow_report()
                .expect("flow report")
        };
        // The measured eot→actuation segment is architectural, so its
        // decomposition cannot depend on the host execution strategy.
        assert_eq!(
            report_for(ExecMode::Fast),
            report_for(ExecMode::Naive),
            "{mediator}"
        );
    }
}

#[test]
fn ledger_partitions_the_power_timeline_exactly() {
    let report = run(ScenarioDesc {
        lifetime: true,
        timeline_window: 256,
        ..ScenarioDesc::default()
    });
    let ledger = report.energy.as_ref().expect("ledger");
    let timeline = report
        .power_timeline(&report.power_model())
        .expect("sampled timeline");

    // Rebuilding the ledger from the report's own power timeline gives
    // the identical ledger: same integration, same result, bit-for-bit.
    assert_eq!(&EnergyLedger::from_timeline(&timeline), ledger);

    // Blame rows partition the total: the floor row is the residual by
    // construction, so components + floor telescope back to the total.
    let rows = ledger.blame();
    let row_sum_uj: f64 = rows.iter().map(|r| r.uj).sum();
    assert!(
        (row_sum_uj - ledger.total_uj()).abs() <= 1e-12 * ledger.total_uj(),
        "blame rows {row_sum_uj} vs total {}",
        ledger.total_uj()
    );
    let share_sum: f64 = rows.iter().map(|r| r.share).sum();
    assert!((share_sum - 1.0).abs() < 1e-12);

    // The total telescopes to mean-power × span, and the ledger's mean
    // is exactly the timeline's duration-weighted mean.
    let span_s = ledger.span().as_secs_f64();
    let reconstructed_uj = ledger.mean_power().as_uw() * span_s;
    assert!(
        (reconstructed_uj - ledger.total_uj()).abs() <= 1e-9 * ledger.total_uj(),
        "mean × span {reconstructed_uj} vs total {}",
        ledger.total_uj()
    );
    assert!((ledger.mean_power().as_uw() - timeline.mean_total_uw()).abs() <= 1e-9);

    // And the projection's blame telescopes to the projected days.
    let projection = report.lifetime.as_ref().expect("projection");
    let day_sum: f64 = projection.blame.iter().map(|r| r.days_cost).sum();
    assert!((day_sum - projection.days()).abs() <= 1e-9 * projection.days());
}

#[test]
fn duty_cycled_horizon_integrates_sleep_cheaply() {
    // 100 ms duty periods over 10 s of simulated time: the node sleeps
    // >99.9% of the span, which quiescence skipping makes nearly free.
    let s = Scenario::duty_cycled(
        Mediator::PelsSequenced,
        SimTime::from_ms(100),
        SimTime::from_ms(10_000),
    );
    assert_eq!(s.events, 100);
    let report = s.run();
    let ledger = report.energy.as_ref().expect("ledger");
    // The span covers (at least) the horizon and the mean collapses
    // toward the idle floor — far below the busy-window power.
    assert!(ledger.span() >= SimTime::from_ms(10_000));
    let idle_uw = report
        .idle_power(&report.power_model())
        .total()
        .as_uw();
    assert!(
        ledger.mean_power().as_uw() < idle_uw * 1.05,
        "duty-cycled mean {} vs idle floor {idle_uw}",
        ledger.mean_power().as_uw()
    );
    // A plausible coin-cell lifetime: months, not hours and not ∞.
    let projection = report.lifetime.as_ref().expect("projection");
    assert!(projection.days() > 30.0 && projection.days() < 10_000.0);
}

#[test]
fn pels_outlives_the_irq_baseline_when_duty_cycled() {
    let days = |mediator| {
        Scenario::duty_cycled(mediator, SimTime::from_ms(10), SimTime::from_ms(500))
            .run()
            .lifetime
            .expect("projection")
            .days()
    };
    let pels = days(Mediator::PelsSequenced);
    let irq = days(Mediator::IbexIrq);
    assert!(
        pels > irq,
        "PELS mediation must outlast the IRQ baseline: {pels} vs {irq} days"
    );
}

#[test]
fn merged_ledger_is_identical_across_worker_counts() {
    let spec = SweepSpec::over(ScenarioDesc {
        lifetime: true,
        ..ScenarioDesc::default()
    })
    .mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq])
    .sample_periods_us(&[100, 500]);
    let mut digests = Vec::new();
    let mut ledgers = Vec::new();
    for workers in [1, 2, 8] {
        let report = FleetEngine::new(workers).run_sweep(&spec).unwrap();
        assert_eq!(report.failed().count(), 0);
        digests.push(report.digest());
        ledgers.push(report.merged_energy_ledger());
    }
    // Same jobs, any schedule: digests and the input-order ledger fold
    // are bit-identical (PartialEq over every f64 accumulator).
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    assert!(ledgers.windows(2).all(|w| w[0] == w[1]));
    let merged = &ledgers[0];
    // 2 mediators × 2 sample periods, one integrated window per job.
    assert_eq!(merged.windows(), 4, "every job contributes");
    assert!(merged.total_uj() > 0.0);
    // Projecting the merged ledger works like any other ledger.
    let projection = Battery::coin_cell().project(merged);
    assert!(projection.days() > 0.0);
}
