//! Event-period fast-forward is exact: a run that jumps whole periods
//! ends in the same SoC and the same report as the naive reference,
//! which never jumps.
//!
//! Every mediator × 1 and 4 SPI words × sensor kind × probe subset runs
//! fast and naive. The two reports must measure the same
//! ([`assert_same_measurement`]) and the two SoCs, run again from the
//! same description, must be equal as wholes ([`first_divergence`] names
//! the first differing cycle otherwise). Constant-sensor runs with an
//! aligned timeline or none must jump; time-varying sensors never may.

mod common;

use common::{assert_same, assert_same_drained, assert_same_measurement, with_probes, MEDIATORS};
use common::{FLOWS, LIFETIME, OBS};
use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::Timer;
use pels_repro::sim::SimTime;
use pels_repro::soc::{ExecMode, Scenario, ScenarioDesc, ScenarioReport, SensorKind, Soc};

/// Events per run: enough for a probe to find the period and jump.
const EVENTS: u32 = 24;

/// The sensor kinds, constant first.
fn sensors() -> [SensorKind; 4] {
    [
        SensorKind::Constant(2.5),
        // So slow that the quantized level holds over the whole run:
        // its snapshots match, and only the veto keeps a jump (and, over
        // a longer horizon, a drift) away.
        SensorKind::Ramp {
            start: 2.3,
            slope_per_us: 1e-6,
        },
        SensorKind::NoisyRamp {
            start: 2.3,
            slope_per_us: 0.01,
            sigma: 0.05,
            seed: 7,
        },
        SensorKind::Sine {
            offset: 2.4,
            amplitude: 0.3,
            freq_hz: 10_000.0,
        },
    ]
}

/// A probe subset: its name and the edit that switches it on.
type Subset = (&'static str, fn(&ScenarioDesc) -> ScenarioDesc);

/// Probe subsets, with whether a constant-sensor run must jump under
/// them: none, `obs`, a timeline window of one event period with the
/// lifetime ledger, a 128-cycle window that never repeats with the
/// event, and flows.
const SUBSETS: [(Subset, bool); 5] = [
    (("none", |d| d.clone()), true),
    (("obs", |d| with_probes(d, OBS)), true),
    (("aligned timeline+lifetime", aligned_timeline), true),
    (
        ("128-cycle timeline", |d| ScenarioDesc {
            timeline_window: 128,
            ..d.clone()
        }),
        false,
    ),
    (("flows", |d| with_probes(d, FLOWS)), true),
];

/// `desc` sampling one timeline window per event period, with the
/// energy ledger on.
fn aligned_timeline(desc: &ScenarioDesc) -> ScenarioDesc {
    let mut d = with_probes(desc, LIFETIME);
    d.timeline_window = d.sample_period.as_ps() / d.system.freq.period_ps();
    d
}

/// Runs `desc`'s active window on a built SoC, as `Scenario::try_run`
/// does, and returns the SoC. `stepped` asks for the count one event at a
/// time, each call with the budget left: the same stop checks and skip
/// budgets as one call, but no call ever sees two snapshots to compare,
/// so nothing is jumped.
fn active_soc(desc: &ScenarioDesc, stepped: bool) -> Soc {
    let scenario = Scenario::from_desc(desc.clone()).expect("valid scenario");
    let mut soc = scenario.build_soc();
    let marker = Scenario::completion_marker(desc.mediator);
    soc.trace_mut().pair(("spi", "eot"), marker);
    if desc.timeline_window > 0 {
        soc.start_timeline(desc.timeline_window);
    }
    let timer = soc.timer_mut();
    timer
        .write(Timer::CMP, scenario.timer_period_cycles())
        .unwrap();
    timer.write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
    let (events, end) = (desc.events as usize, soc.cycle() + scenario.cycle_budget());
    let counts = if stepped { 1..=events } else { events..=events };
    for count in counts {
        soc.run_for_trace_count(end - soc.cycle(), marker.0, marker.1, count);
    }
    if stepped {
        assert_eq!(
            soc.fast_forward_stats().jumps,
            0,
            "the stepped reference never jumps"
        );
    }
    soc
}

fn run(desc: &ScenarioDesc) -> ScenarioReport {
    Scenario::from_desc(desc.clone())
        .expect("valid scenario")
        .run()
}

/// Runs `desc` fast and naive and checks the two measure the same, keep
/// the same entries and flows and end in equal SoCs (drained first when
/// a timeline sampled them); then checks the
/// fast active SoC against a fast one that stepped every event: equal
/// SoCs, scheduler statistics and timelines (so equal energy ledgers).
fn assert_exact(desc: &ScenarioDesc, ctx: &str) -> ScenarioReport {
    let naive_desc = ScenarioDesc {
        exec: ExecMode::Naive,
        ..desc.clone()
    };
    let (fast, naive) = (run(desc), run(&naive_desc));
    assert_same_measurement(&fast, &naive, ctx);
    assert_eq!(fast.flows, naive.flows, "{ctx}: flows");
    assert_eq!(
        fast.trace.entries(),
        naive.trace.entries(),
        "{ctx}: kept entries"
    );
    assert_eq!(
        naive.fast_forward.jumps, 0,
        "{ctx}: the naive reference never jumps"
    );
    let mut jumped = active_soc(desc, false);
    let reference = active_soc(&naive_desc, false);
    if desc.timeline_window == 0 {
        let pre = (
            Scenario::from_desc(desc.clone()).unwrap().build_soc(),
            Scenario::from_desc(naive_desc).unwrap().build_soc(),
        );
        assert_same(&pre, &jumped, &reference, ctx);
    } else {
        // The two close their windows at different cycles, so they hold
        // equal totals in different places until a drain.
        assert_same_drained(&jumped, &reference, ctx);
    }
    let mut stepped = active_soc(desc, true);
    assert_eq!(
        jumped.first_difference(&stepped),
        None,
        "{ctx}: jumped vs stepped"
    );
    assert_eq!(
        jumped.sched_stats(),
        stepped.sched_stats(),
        "{ctx}: scheduler stats"
    );
    assert_eq!(
        jumped.take_timeline(),
        stepped.take_timeline(),
        "{ctx}: timeline"
    );
    fast
}

#[test]
fn fast_forward_equals_stepping_for_every_mediator_sensor_and_probe_subset() {
    for mediator in MEDIATORS {
        for spi_words in [1, 4] {
            for (k, sensor) in sensors().into_iter().enumerate() {
                for ((name, subset), must_jump) in SUBSETS {
                    let mut base = ScenarioDesc {
                        mediator,
                        spi_words,
                        events: EVENTS,
                        ..ScenarioDesc::default()
                    };
                    base.system.sensor = sensor;
                    base.threshold_level = 1.0;
                    let desc = subset(&base);
                    let ctx = format!("{mediator} {spi_words}w sensor {k} {name}");
                    let report = assert_exact(&desc, &ctx);
                    let jumps = report.fast_forward.jumps;
                    if k > 0 {
                        assert_eq!(jumps, 0, "{ctx}: a time-varying sensor vetoes the jump");
                    } else {
                        assert_eq!(jumps > 0, must_jump, "{ctx}: {:?}", report.fast_forward);
                    }
                }
            }
        }
    }
}

#[test]
fn a_duty_cycled_horizon_is_mostly_jumped() {
    for mediator in MEDIATORS {
        let desc = aligned_timeline(&ScenarioDesc {
            mediator,
            sample_period: SimTime::from_us(20),
            events: 60,
            ..ScenarioDesc::default()
        });
        let report = assert_exact(&desc, &format!("{mediator} duty-cycled"));
        let ff = report.fast_forward;
        let cycles = report.active_window.as_ps() / report.freq.period_ps();
        assert!(
            ff.cycles * 4 > cycles * 3,
            "{mediator}: {ff:?} of {cycles} cycles"
        );
    }
}

#[test]
fn a_jump_stops_short_of_the_cycle_budget() {
    for mediator in MEDIATORS {
        let desc = ScenarioDesc {
            mediator,
            ..ScenarioDesc::default()
        };
        let scenario = Scenario::from_desc(desc.clone()).expect("valid scenario");
        let marker = Scenario::completion_marker(mediator);
        // A budget that runs out in the middle of a period, long before
        // the wanted count.
        let budget = 40 * u64::from(scenario.timer_period_cycles()) + 17;
        let run = |exec| {
            let mut soc = Scenario::from_desc(ScenarioDesc {
                exec,
                ..desc.clone()
            })
            .expect("valid scenario")
            .build_soc();
            let timer = soc.timer_mut();
            timer
                .write(Timer::CMP, scenario.timer_period_cycles())
                .unwrap();
            timer.write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
            let reached = soc.run_for_trace_count(budget, marker.0, marker.1, 1_000);
            (soc, reached)
        };
        let ((fast, reached), (naive, naive_reached)) = (run(ExecMode::Fast), run(ExecMode::Naive));
        assert!(fast.fast_forward_stats().jumps > 0, "{mediator}");
        assert_eq!(
            (reached, fast.cycle()),
            (naive_reached, naive.cycle()),
            "{mediator}"
        );
        assert_eq!(fast.first_difference(&naive), None, "{mediator}");
    }
}
