//! The paper's Figure 3 workload on the full SoC: a ramping sensor is
//! read out autonomously (timer → SPI → µDMA), PELS threshold-checks each
//! sample and actuates a GPIO — first with a *sequenced action* (bus
//! read-modify-write), then with an *instant action* (single-wire line) —
//! while the Ibex-class core sleeps the entire time.
//!
//! ```text
//! cargo run --example threshold_sensor
//! ```

use pels_repro::soc::{Mediator, Scenario, ScenarioDesc, SensorKind};

fn main() {
    for mediator in [Mediator::PelsSequenced, Mediator::PelsInstant] {
        // A thermistor-style ramp: starts below the 1.6 V threshold and
        // crosses it at a known time; only readouts after the crossing
        // may actuate.
        let mut desc = ScenarioDesc {
            mediator,
            events: 8,
            ..ScenarioDesc::default()
        };
        desc.system.sensor = SensorKind::NoisyRamp {
            start: 1.2,
            slope_per_us: 0.05,
            sigma: 0.01,
            seed: 2024,
        };
        let scenario = Scenario::from_desc(desc).expect("valid scenario");

        let report = scenario.run();
        println!("== mediator: {mediator} @ {} ==", report.freq);
        println!(
            "  linking events completed : {}",
            report.events_completed
        );
        println!(
            "  latency (cycles)         : min {} / mean {} / max {} (jitter {})",
            report.stats.min,
            report.stats.mean,
            report.stats.max,
            report.stats.jitter()
        );
        println!("  latency (wall clock)     : {}", report.mean_latency_time());

        let model = report.power_model();
        let active = report.active_power(&model);
        let idle = report.idle_power(&model);
        println!("  SoC power active / idle  : {} / {}", active.total(), idle.total());
        println!(
            "  memory-system power      : {} (active)",
            active.memory_system()
        );
        let core_awake = report
            .active_activity
            .count("ibex", pels_repro::sim::ActivityKind::ClockCycle);
        println!("  core clock cycles awake  : {core_awake} (slept through it all)\n");
    }

    println!("note: the sequenced flavour needs no GPIO event wiring (works");
    println!("with any memory-mapped peripheral); the instant flavour is");
    println!("faster and jitter-free but requires the co-designed wire —");
    println!("exactly the trade-off of the paper's Figure 1.");
}
