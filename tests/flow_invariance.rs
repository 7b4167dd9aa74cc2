//! Differential proof that causal flow tracing is pure observation.
//!
//! Flow recording threads ids through every layer of the stack — event
//! wires, trigger FIFOs, the execution pipelines, the IRQ path — so the
//! contract must be airtight: every observation point is a branch that
//! reads architectural state and never writes it. These tests run the
//! same workloads with flows off and on, across all three execution
//! strategies, and compare everything the simulation derives.

use pels_fleet::{FleetEngine, SweepSpec};
use pels_repro::soc::{ExecMode, Mediator, Scenario, ScenarioReport};

/// Every simulation-derived field of two reports must match exactly;
/// the flow record itself is the only allowed difference.
fn assert_reports_identical(plain: &ScenarioReport, flowed: &ScenarioReport) {
    assert_eq!(plain.latencies, flowed.latencies);
    assert_eq!(plain.events_completed, flowed.events_completed);
    assert_eq!(plain.trace.entries(), flowed.trace.entries());
    assert_eq!(plain.active_activity, flowed.active_activity);
    assert_eq!(plain.idle_activity, flowed.idle_activity);
    assert_eq!(plain.active_window, flowed.active_window);
    assert_eq!(plain.idle_window, flowed.idle_window);
    assert_eq!(plain.sched_stats, flowed.sched_stats);
    assert_eq!(plain.decode_cache_hits, flowed.decode_cache_hits);
    assert_eq!(plain.decode_cache_misses, flowed.decode_cache_misses);
}

#[test]
fn flow_recording_never_perturbs_any_mediator_or_exec_mode() {
    for mediator in [
        Mediator::PelsSequenced,
        Mediator::PelsInstant,
        Mediator::IbexIrq,
    ] {
        for exec in [ExecMode::Fast, ExecMode::Naive] {
            let base = Scenario::iso_frequency(mediator)
                .to_builder()
                .exec_mode(exec)
                .build()
                .unwrap();
            let plain = base.run();
            let flowed = base.to_builder().flows(true).build().unwrap().run();
            assert!(plain.flows.is_none(), "flows are opt-in");
            let flows = flowed.flows.as_ref().expect("flows(true) records");
            assert!(!flows.is_empty(), "{mediator} {exec:?}: flows recorded");
            assert_reports_identical(&plain, &flowed);
        }
    }
}

#[test]
fn flow_attribution_is_identical_across_exec_modes() {
    for mediator in [
        Mediator::PelsSequenced,
        Mediator::PelsInstant,
        Mediator::IbexIrq,
    ] {
        let report_for = |exec| {
            Scenario::latency_probe(mediator)
                .to_builder()
                .exec_mode(exec)
                .flows(true)
                .build()
                .unwrap()
                .run()
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
fn flows_compose_with_full_observability() {
    // Maximum observation: metrics snapshot, timeline sampling and flow
    // recording all at once must still change nothing architectural.
    let base = Scenario::iso_frequency(Mediator::IbexIrq);
    let plain = base.run();
    let maxed = base
        .to_builder()
        .obs(true)
        .timeline_window(128)
        .flows(true)
        .build()
        .unwrap()
        .run();
    assert!(maxed.metrics.is_some());
    assert!(maxed.timeline.is_some());
    assert!(maxed.flows.is_some());
    assert_reports_identical(&plain, &maxed);
}

#[test]
fn fleet_digest_is_invariant_under_flow_recording() {
    let mediators = [Mediator::PelsSequenced, Mediator::IbexIrq];
    let plain = FleetEngine::new(1)
        .run_sweep(&SweepSpec::new().mediators(&mediators))
        .unwrap();
    let flowed = FleetEngine::new(2)
        .run_sweep(&SweepSpec::new().mediators(&mediators).flows(true))
        .unwrap();
    // The digest hashes every simulation-derived field of every job;
    // flow recording is host-side observation and must not move it.
    assert_eq!(plain.digest(), flowed.digest());
    assert!(flowed.flow_report().flows() > 0);
}
