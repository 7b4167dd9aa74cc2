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
//!
//! A second test pins every [`SchedStats`] field exactly, in both
//! execution modes: a scheduler rework that claims identical behaviour
//! must leave all of them unchanged.

use pels_repro::soc::{ExecMode, Mediator, Scenario, ScenarioDesc, SchedStats};

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

/// `[fast, stirred, naive, skip spans, skipped cycles, rebuilds, wakes,
/// sleeps]`, in [`SchedStats`] field order.
type Counters = [u64; 8];

fn counters(s: SchedStats) -> Counters {
    [
        s.fast_cycles,
        s.stirred_cycles,
        s.naive_cycles,
        s.skip_spans,
        s.skipped_cycles,
        s.rebuilds,
        s.wakes,
        s.sleeps,
    ]
}

/// `(mediator, spi_words, fast-mode counters, naive-mode counters)`.
///
/// A bus access to a sleeping slave is served in place, so on its own it
/// is not a wake, a sleep or a stirred cycle.
const PINNED: [(Mediator, u32, Counters, Counters); 6] = [
    (
        Mediator::PelsSequenced,
        1,
        [240, 60, 0, 40, 815, 207, 80, 87],
        [0, 0, 1115, 0, 0, 7, 0, 0],
    ),
    (
        Mediator::PelsSequenced,
        4,
        [240, 120, 0, 100, 767, 327, 140, 147],
        [0, 0, 1127, 0, 0, 7, 0, 0],
    ),
    (
        Mediator::PelsInstant,
        1,
        [131, 79, 0, 40, 900, 185, 79, 86],
        [0, 0, 1110, 0, 0, 7, 0, 0],
    ),
    (
        Mediator::PelsInstant,
        4,
        [131, 139, 0, 100, 852, 305, 139, 146],
        [0, 0, 1122, 0, 0, 7, 0, 0],
    ),
    (
        Mediator::IbexIrq,
        1,
        [585, 60, 0, 40, 475, 224, 80, 87],
        [0, 0, 1120, 0, 0, 6, 0, 0],
    ),
    (
        Mediator::IbexIrq,
        4,
        [585, 120, 0, 100, 427, 344, 140, 147],
        [0, 0, 1132, 0, 0, 6, 0, 0],
    ),
];

/// Every scheduler counter, exactly, for each Fig. 5 mediator × readout
/// length under both execution modes. The budgets above only bound the
/// stepped cycles from above; this pin proves a scheduler rework leaves
/// every route, transition and aggregate-update count unchanged.
#[test]
fn fig5_sched_counters_are_pinned() {
    for (mediator, words, fast, naive) in PINNED {
        for (exec, want) in [(ExecMode::Fast, fast), (ExecMode::Naive, naive)] {
            let scenario = Scenario::from_desc(ScenarioDesc {
                mediator,
                spi_words: words,
                exec,
                ..ScenarioDesc::default()
            })
            .expect("valid scenario");
            let got = counters(scenario.run().sched_stats);
            assert_eq!(got, want, "{mediator:?} × {words} words, {exec:?}");
        }
    }
}
