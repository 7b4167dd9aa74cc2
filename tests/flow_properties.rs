//! Properties of the causal flow layer: per-flow hop deltas must
//! telescope to exactly the end-to-end latencies the architectural trace
//! measures, and flow-report aggregation must be order-invariant.
//!
//! The first property is the whole point of the attribution: if the
//! per-stage blame table did not sum to the measured latency, the
//! decomposition would be narrative rather than accounting.

use pels_repro::obs::FlowReport;
use pels_repro::sim::{FlowTrace, Rng, SimTime};
use pels_repro::soc::{Mediator, Scenario, ScenarioDesc, ScenarioReport};

/// Per-flow end-to-end cycles (first `eot` hop to the first terminal hop
/// after it), in mint order — chronological, because flows are minted at
/// their originating stimulus.
fn flow_e2e_cycles(flows: &FlowTrace, period_ps: u64, terminal: &str) -> Vec<u64> {
    let mut e2e = Vec::new();
    for id in flows.flow_ids() {
        let hops: Vec<_> = flows.hops_of(id).collect();
        let Some(start) = hops.iter().position(|h| h.stage == "eot") else {
            continue;
        };
        let Some(end) = hops[start..].iter().find(|h| h.stage == terminal) else {
            continue;
        };
        e2e.push((end.time.as_ps() - hops[start].time.as_ps()) / period_ps);
        // Within the segment, consecutive deltas telescope by
        // construction — assert the hop times are monotone so the
        // deltas are all the attribution sees.
        for pair in hops.windows(2) {
            assert!(pair[0].time <= pair[1].time, "hop times are monotone");
        }
    }
    e2e
}

fn assert_attribution_is_exact(report: &ScenarioReport, scenario: &Scenario) {
    let flows = report.flows.as_ref().expect("flows recorded");
    let terminal = Scenario::completion_marker(scenario.mediator).1;
    let e2e = flow_e2e_cycles(flows, scenario.freq().period_ps(), terminal);
    // One complete flow per measured event, with identical per-event
    // latencies: the causal pairing reproduces the trace pairing
    // (`latencies_and_count`) exactly on an always-actuating workload.
    assert_eq!(
        e2e, report.latencies,
        "per-flow e2e must equal the measured per-event latencies"
    );
    // The per-stage attribution telescopes: stage totals sum to exactly
    // the end-to-end total, and the distribution matches the stats.
    let fr = report.flow_report().expect("flow report");
    assert_eq!(fr.flows(), report.latencies.len() as u64);
    assert_eq!(fr.attributed_cycles(), fr.end_to_end().sum());
    assert_eq!(fr.end_to_end().sum(), report.latencies.iter().sum::<u64>());
    assert_eq!(fr.end_to_end().min(), Some(report.stats.min));
    assert_eq!(fr.end_to_end().max(), Some(report.stats.max));
}

#[test]
fn paper_probes_decompose_exactly() {
    for mediator in [
        Mediator::PelsSequenced,
        Mediator::PelsInstant,
        Mediator::IbexIrq,
    ] {
        let s = Scenario::from_desc(ScenarioDesc {
            flows: true,
            ..Scenario::latency_probe(mediator).desc().clone()
        })
        .unwrap();
        let report = s.run();
        assert_attribution_is_exact(&report, &s);
        // The pinned paper latencies stay visible through the flow lens.
        let expect = match mediator {
            Mediator::PelsSequenced => 7,
            Mediator::PelsInstant => 2,
            Mediator::IbexIrq => 16,
        };
        let fr = report.flow_report().unwrap();
        assert_eq!(fr.end_to_end().p50(), Some(expect), "{mediator}");
    }
}

#[test]
fn attribution_sums_exactly_in_randomized_scenarios() {
    let mut rng = Rng::seed_from_u64(0xf10a_cafe);
    for trial in 0..12 {
        let mediator = match rng.index(3) {
            0 => Mediator::PelsSequenced,
            1 => Mediator::PelsInstant,
            _ => Mediator::IbexIrq,
        };
        let period_ps = 5_000 + rng.next_below(45_000);
        let cycles = 96 + rng.next_below(160);
        let mut desc = ScenarioDesc {
            mediator,
            sample_period: SimTime::from_ps(cycles * period_ps),
            spi_words: 1 + rng.next_below(2) as u32,
            events: 3 + rng.next_below(6) as u32,
            flows: true,
            ..ScenarioDesc::default()
        };
        desc.system.freq = pels_repro::sim::Frequency::from_period_ps(period_ps);
        // The threshold program needs the constant 2.5 V default sensor
        // (always above threshold) so every readout actuates before the
        // next eot — the precondition for causal pairing == trace
        // pairing.
        if mediator != Mediator::IbexIrq && rng.next_below(2) == 0 {
            desc.rmw_only = true;
        }
        if mediator != Mediator::IbexIrq {
            desc.system.pels.links = 1 + rng.next_below(4) as usize;
        }
        let s = Scenario::from_desc(desc).unwrap();
        let report = s.run();
        assert!(
            report.latencies.len() >= 3,
            "trial {trial}: measured enough events"
        );
        assert_attribution_is_exact(&report, &s);
    }
}

#[test]
fn flow_report_merge_is_order_invariant() {
    let reports: Vec<FlowReport> = [
        Mediator::PelsSequenced,
        Mediator::PelsInstant,
        Mediator::IbexIrq,
    ]
    .into_iter()
    .map(|m| {
        Scenario::from_desc(ScenarioDesc {
            flows: true,
            ..Scenario::latency_probe(m).desc().clone()
        })
        .unwrap()
        .run()
            .flow_report()
            .unwrap()
    })
    .collect();
    // Fold in every permutation of three: all six aggregates identical.
    let fold = |order: [usize; 3]| {
        let mut merged = FlowReport::default();
        for i in order {
            merged.merge(&reports[i]);
        }
        merged
    };
    let reference = fold([0, 1, 2]);
    for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
        assert_eq!(fold(order), reference, "order {order:?}");
    }
    assert_eq!(
        reference.flows(),
        reports.iter().map(FlowReport::flows).sum::<u64>()
    );
    assert_eq!(reference.attributed_cycles(), reference.end_to_end().sum());
}

#[test]
fn fleet_merges_flow_reports_across_jobs() {
    use pels_repro::fleet::{FleetEngine, SweepSpec};
    let spec = SweepSpec::over(ScenarioDesc {
        rmw_only: true,
        events: 5,
        flows: true,
        ..ScenarioDesc::default()
    })
    .mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq]);
    let batch = FleetEngine::new(2).run_sweep(&spec).unwrap();
    let merged = batch.flow_report();
    assert_eq!(merged.flows(), 10, "5 events per job, 2 jobs");
    assert_eq!(merged.attributed_cycles(), merged.end_to_end().sum());
    // Both mediation paths are present in the merged blame table.
    let labels: Vec<&str> = merged.stages().map(|(l, _)| l).collect();
    assert!(labels.contains(&"pels.link0.write"), "{labels:?}");
    assert!(labels.contains(&"ibex.irq_enter"), "{labels:?}");
    // Without the switch, no job records flows and the merge is empty.
    let plain = FleetEngine::new(1)
        .run_sweep(&SweepSpec::over(ScenarioDesc {
            events: 5,
            ..ScenarioDesc::default()
        }))
        .unwrap();
    assert_eq!(plain.flow_report().flows(), 0);
}
