//! Differential proof that the observability layer is pure observation.
//!
//! `pels-obs` instruments every layer of the stack — decode-cache and
//! scheduler counters, metrics snapshots, host-time spans — and the
//! contract is that none of it can perturb architectural results: traces,
//! activity images, latencies and power inputs must be bit-identical
//! whether observability is off, on, or maximally on (metrics snapshot
//! *and* the global span profiler). These tests run the same workloads
//! both ways and compare everything the simulation derives.

use pels_fleet::{FleetEngine, SweepSpec};
use pels_repro::soc::{Mediator, Scenario, ScenarioReport, SocBuilder};

/// Every simulation-derived field of two reports must match exactly.
/// Host-time fields (there are none in `ScenarioReport`) and the metrics
/// snapshot itself are the only allowed differences.
fn assert_reports_identical(plain: &ScenarioReport, observed: &ScenarioReport) {
    assert_eq!(plain.latencies, observed.latencies);
    assert_eq!(plain.events_completed, observed.events_completed);
    assert_eq!(plain.trace.entries(), observed.trace.entries());
    assert_eq!(plain.active_activity, observed.active_activity);
    assert_eq!(plain.idle_activity, observed.idle_activity);
    assert_eq!(plain.active_window, observed.active_window);
    assert_eq!(plain.idle_window, observed.idle_window);
    assert_eq!(plain.sched_stats, observed.sched_stats);
    assert_eq!(plain.decode_cache_hits, observed.decode_cache_hits);
    assert_eq!(plain.decode_cache_misses, observed.decode_cache_misses);
}

#[test]
fn metrics_snapshot_never_perturbs_any_mediator() {
    for mediator in [
        Mediator::PelsSequenced,
        Mediator::PelsInstant,
        Mediator::IbexIrq,
    ] {
        let base = Scenario::iso_frequency(mediator);
        let plain = base.run();
        let observed = base.to_builder().obs(true).build().unwrap().run();
        assert!(plain.metrics.is_none(), "obs is opt-in");
        assert!(observed.metrics.is_some(), "obs(true) snapshots");
        assert_reports_identical(&plain, &observed);
    }
}

#[test]
fn span_profiler_enable_never_perturbs_results() {
    let base = Scenario::iso_frequency(Mediator::IbexIrq);
    let off = base.run();
    // Maximum observability: global profiler on *and* metrics collected.
    pels_obs::profile::set_enabled(true);
    let on = base.to_builder().obs(true).build().unwrap().run();
    pels_obs::profile::set_enabled(false);
    assert_reports_identical(&off, &on);
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
            let sampled = base
                .to_builder()
                .timeline_window(window)
                .build()
                .unwrap()
                .run();
            assert!(plain.timeline.is_none(), "timelines are opt-in");
            let timeline = sampled.timeline.as_ref().expect("sampled timeline");
            assert!(!timeline.windows.is_empty());
            assert_eq!(timeline.window_cycles, window);
            // The windows partition the run: contiguous, in order, and
            // their activity sums to exactly the full-run image.
            let mut prev_end = 0;
            for w in &timeline.windows {
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
            assert_reports_identical(&plain, &sampled);
        }
    }
}

#[test]
fn fleet_digest_is_invariant_under_timeline_sampling() {
    let mediators = [Mediator::PelsSequenced, Mediator::IbexIrq];
    let plain = FleetEngine::new(1)
        .run_sweep(&SweepSpec::new().mediators(&mediators))
        .unwrap();
    let sampled = FleetEngine::new(2)
        .run_sweep(
            &SweepSpec::new()
                .mediators(&mediators)
                .obs(true)
                .timeline_window(128),
        )
        .unwrap();
    // Timeline sampling is passive observation: the digest hashes every
    // simulation-derived field of every job and must not move.
    assert_eq!(plain.digest(), sampled.digest());
}

#[test]
fn fleet_digest_is_invariant_under_obs_and_worker_count() {
    let mediators = [Mediator::PelsSequenced, Mediator::IbexIrq];
    let plain = FleetEngine::new(1)
        .run_sweep(&SweepSpec::new().mediators(&mediators))
        .unwrap();
    let observed = FleetEngine::new(2)
        .run_sweep(&SweepSpec::new().mediators(&mediators).obs(true))
        .unwrap();
    // The digest hashes every simulation-derived field of every job;
    // worker attribution and metrics snapshots are host-side observation
    // and must not move it.
    assert_eq!(plain.digest(), observed.digest());
}

#[test]
fn publishing_metrics_mid_run_leaves_the_soc_untouched() {
    let mut observed = SocBuilder::new().build();
    let mut reference = SocBuilder::new().build();
    let mut reg = pels_obs::MetricsRegistry::new();
    for _ in 0..10 {
        observed.run(100);
        reference.run(100);
        // Observation point in the middle of the run: gauges republish on
        // every pass (set semantics, idempotent).
        observed.publish_metrics(&mut reg);
        let _ = observed.sched_stats();
        let _ = observed.decode_cache_stats();
        let _ = observed.master_stats();
    }
    assert_eq!(observed.cycle(), reference.cycle());
    assert_eq!(observed.trace().entries(), reference.trace().entries());
    assert_eq!(observed.sched_stats(), reference.sched_stats());
    assert_eq!(observed.drain_activity(), reference.drain_activity());
    // And the counters the snapshot reports match the accessors exactly.
    let snap = reg.snapshot();
    let (hits, _) = reference.decode_cache_stats();
    if hits > 0 {
        assert_eq!(snap.get("cpu.decode_cache.hits"), Some(hits));
    }
}
