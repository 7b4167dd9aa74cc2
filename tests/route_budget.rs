//! Deterministic route-counter budget for the paper's Fig. 5 workload.
//!
//! Wall-clock throughput drifts about 2× between runs on a shared host,
//! so it cannot gate a regression. The scheduler's route counters can:
//! they are a pure function of the scenario. This suite runs the default
//! Fig. 5 linking scenario per mediator × SPI readout length and bounds
//! the cycles the SoC had to *step* (fast, stirred or naive route — every
//! cycle not jumped by an O(1) skip) per completed linking event.
//!
//! The budgets are the values the scheduler reaches today, exactly: a
//! change that makes any peripheral, the fabric or PELS hold the SoC
//! awake longer per event fails here. Lower a budget when the scheduler
//! improves. (Before the SPI published its word-completion deadline the
//! same runs stepped 17 / 29 cycles per event under PELS sequenced,
//! 12.5 / 24.5 under PELS instant and 34.25 / 46.25 under the IRQ.)

use pels_repro::soc::{Mediator, Scenario, ScenarioDesc};

/// `(mediator, spi_words, max stepped cycles per event)`.
const BUDGETS: [(Mediator, u32, f64); 6] = [
    (Mediator::PelsSequenced, 1, 15.0),
    (Mediator::PelsSequenced, 4, 18.0),
    (Mediator::PelsInstant, 1, 10.5),
    (Mediator::PelsInstant, 4, 13.5),
    (Mediator::IbexIrq, 1, 32.25),
    (Mediator::IbexIrq, 4, 35.25),
];

#[test]
fn fig5_stepped_cycles_per_event_stay_within_budget() {
    for (mediator, words, budget) in BUDGETS {
        let scenario = Scenario::from_desc(ScenarioDesc {
            mediator,
            spi_words: words,
            ..ScenarioDesc::default()
        })
        .expect("valid scenario");
        let report = scenario.run();
        assert_eq!(
            report.events_completed, scenario.events,
            "{mediator:?} × {words} words: every linking event completes"
        );
        let stepped = report.sched_stats.stepped_cycles();
        let per_event = stepped as f64 / f64::from(report.events_completed);
        assert!(
            per_event <= budget,
            "{mediator:?} × {words} words: {per_event} stepped cycles per event \
             exceeds the budget of {budget} ({:?})",
            report.sched_stats
        );
    }
}
