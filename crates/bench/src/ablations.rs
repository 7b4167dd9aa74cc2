//! Design-choice ablations.
//!
//! Each function removes one of PELS's design decisions and measures what
//! returns: the latency/energy cost of fetching microcode over the shared
//! bus (vs the private SCM of Section III-1b), the events lost without
//! the trigger FIFO, the worst-case latency divergence under
//! fixed-priority arbitration (vs the round-robin of Section IV-A), and
//! the contention relief a per-slave crossbar buys (Section III-1).

use pels_core::{ActionMode, Command, Program};
use pels_fleet::{FleetEngine, JobError};
use pels_interconnect::{ArbiterKind, Topology};
use pels_periph::Timer;
use pels_soc::mem_map::{pels_word_offset, APB_BASE, GPIO_OFFSET, TIMER_OFFSET, UART_OFFSET, WDT_OFFSET};
use pels_soc::{Mediator, Scenario, Soc, SystemDesc};
use pels_interconnect::ApbSlave;
use pels_sim::EventVector;
use std::fmt::Write as _;

/// Unwraps a batch of infallible fleet jobs back into plain results.
fn collect_infallible<R>(results: Vec<pels_fleet::JobResult<R>>) -> Vec<R> {
    results
        .into_iter()
        .map(|r| r.result.expect("ablation jobs are infallible"))
        .collect()
}

/// Result of the SCM-vs-shared-memory fetch ablation.
#[derive(Debug, Clone, Copy)]
pub struct ScmAblation {
    /// Sequenced-action latency with the private SCM (paper design).
    pub scm_latency: u64,
    /// Latency when every fetch pays a shared-bus round trip.
    pub shared_latency: u64,
}

/// Re-runs the sequenced-action probe with microcode fetches stalled by a
/// bus round trip (3 cycles), the cost a shared-SRAM instruction store
/// would impose (Section II-C2's "using the system's local memory trades
/// off area reuse for latency").
pub fn scm_vs_shared_fetch() -> ScmAblation {
    let scm = Scenario::latency_probe(Mediator::PelsSequenced)
        .run()
        .stats
        .min;

    let s = Scenario::latency_probe(Mediator::PelsSequenced);
    let mut soc = s_build_with_fetch_stall(&s, 3);
    soc.trace_mut().pair(("spi", "eot"), ("gpio", "padout"));
    arm(&mut soc, 60);
    soc.run_for_trace_count(5_000, "gpio", "padout", 5);
    let shared = soc
        .trace()
        .latencies()
        .iter()
        .map(|t| t.as_ps() / s.freq().period_ps())
        .min()
        .expect("events completed");

    ScmAblation {
        scm_latency: scm,
        shared_latency: shared,
    }
}

fn s_build_with_fetch_stall(s: &Scenario, stall: u32) -> Soc {
    let mut soc = Soc::from_desc(&s.system).expect("scenario systems are valid");
    {
        let link = soc.pels_mut().link_mut(0);
        link.set_mask(EventVector::mask_of(&[0]))
            .set_base(APB_BASE)
            .set_fetch_stall(stall);
        link.load_program(&s.link_program()).expect("program fits");
    }
    soc.spi_mut().set_default_len(s.spi_words);
    soc.load_program(
        pels_soc::mem_map::RESET_PC,
        &[pels_cpu::asm::wfi(), pels_cpu::asm::jal(0, -4)],
    );
    soc
}

fn arm(soc: &mut Soc, period: u32) {
    soc.timer_mut().write(Timer::CMP, period).unwrap();
    soc.timer_mut()
        .write(Timer::CTRL, Timer::CTRL_ENABLE)
        .unwrap();
}

/// Result of the trigger-FIFO ablation.
#[derive(Debug, Clone, Copy)]
pub struct FifoAblation {
    /// FIFO depth under test.
    pub depth: usize,
    /// Triggers produced by the burst.
    pub triggers: u64,
    /// Triggers lost because no buffer space was available.
    pub dropped: u64,
}

/// Fires events faster than the link can service them and counts losses
/// for several FIFO depths (depth 0 = the unbuffered strawman; the paper
/// buffers "to prevent interference with a running execution unit").
pub fn fifo_depth_sweep() -> Vec<FifoAblation> {
    let depths = [0usize, 1, 2, 4];
    collect_infallible(FleetEngine::auto().map(
        &depths,
        |_| 1,
        |&depth| {
            let mut desc = SystemDesc::default();
            desc.pels.fifo_depth = depth;
            let mut soc = Soc::from_desc(&desc).expect("valid fifo depth");
            {
                let link = soc.pels_mut().link_mut(0);
                link.set_mask(EventVector::mask_of(&[2])); // timer compare
                link.set_base(APB_BASE);
                // A slow program: 10-cycle wait then pulse.
                link.load_program(
                    &Program::new(vec![
                        Command::Wait { cycles: 10 },
                        Command::Action {
                            mode: ActionMode::Pulse,
                            group: 0,
                            mask: 1 << 20,
                        },
                        Command::Halt,
                    ])
                    .expect("valid program"),
                )
                .expect("fits");
            }
            soc.load_program(
                pels_soc::mem_map::RESET_PC,
                &[pels_cpu::asm::wfi(), pels_cpu::asm::jal(0, -4)],
            );
            // Timer fires every 4 cycles: ~3x faster than the 13-cycle
            // program.
            arm(&mut soc, 3);
            soc.run(400);
            let trig = soc.pels().link(0).trigger();
            Ok::<_, JobError>(FifoAblation {
                depth,
                triggers: trig.triggers(),
                dropped: trig.drops(),
            })
        },
    ))
}

/// Result of the arbitration-policy ablation.
#[derive(Debug, Clone, Copy)]
pub struct ArbiterAblation {
    /// Arbitration policy under test.
    pub policy: ArbiterKind,
    /// Fastest link's event→actuation latency (cycles).
    pub best_latency: u64,
    /// Slowest link's latency (cycles) — the predictability metric.
    pub worst_latency: u64,
}

/// Triggers four links simultaneously, all issuing sequenced writes to
/// different peripherals over the shared bus, and measures the spread of
/// completion latencies under round-robin vs fixed-priority arbitration.
pub fn arbiter_contention() -> Vec<ArbiterAblation> {
    collect_infallible(FleetEngine::auto().map(
        &ArbiterKind::ALL,
        |_| 1,
        |&policy| Ok::<_, JobError>(run_contention(policy, Topology::Shared)),
    ))
}

/// Same contention pattern, comparing the shared bus against a per-slave
/// crossbar (the topology axis of Section IV-A).
pub fn topology_contention() -> Vec<(Topology, ArbiterAblation)> {
    collect_infallible(FleetEngine::auto().map(
        &Topology::ALL,
        |_| 1,
        |&t| Ok::<_, JobError>((t, run_contention(ArbiterKind::RoundRobin, t))),
    ))
}

fn run_contention(policy: ArbiterKind, topology: Topology) -> ArbiterAblation {
    let desc = SystemDesc {
        arbiter: policy,
        topology,
        ..SystemDesc::default()
    };
    // Each link writes a different peripheral register.
    let targets = [
        pels_word_offset(GPIO_OFFSET, pels_periph::Gpio::PADOUTSET),
        pels_word_offset(UART_OFFSET, pels_periph::Uart::CLKDIV),
        pels_word_offset(WDT_OFFSET, pels_periph::Watchdog::LOAD),
        pels_word_offset(TIMER_OFFSET, Timer::VALUE),
    ];
    let writes: Vec<(u16, u32)> = (0..).zip(targets).map(|(i, t)| (t, 0x10 + i)).collect();
    let (best_latency, worst_latency) = contention_latencies(desc, &writes, 100, 140);
    ArbiterAblation {
        policy,
        best_latency,
        worst_latency,
    }
}

/// The contention probe: one PELS link per `(offset, value)` in
/// `writes`, all triggered by the timer compare (line 2, timer `period`)
/// and each issuing that one sequenced `Write` over the fabric of
/// `desc`. Runs `cycles` cycles and returns the best and worst latency,
/// in cycles, from the timer compare to a link's `halt`.
fn contention_latencies(
    mut desc: SystemDesc,
    writes: &[(u16, u32)],
    period: u32,
    cycles: u64,
) -> (u64, u64) {
    desc.timer_starts_spi = false;
    desc.pels.links = writes.len();
    desc.pels.scm_lines = 4;
    let mut soc = Soc::from_desc(&desc).expect("valid contention system");
    soc.trace_mut().enable_entries();
    for (i, &(offset, value)) in writes.iter().enumerate() {
        let link = soc.pels_mut().link_mut(i);
        link.set_mask(EventVector::mask_of(&[2])).set_base(APB_BASE);
        link.load_program(
            &Program::new(vec![Command::Write { offset, value }, Command::Halt])
                .expect("valid program"),
        )
        .expect("fits");
    }
    soc.load_program(
        pels_soc::mem_map::RESET_PC,
        &[pels_cpu::asm::wfi(), pels_cpu::asm::jal(0, -4)],
    );
    arm(&mut soc, period);
    soc.run(cycles);
    let t0 = soc
        .trace()
        .first("timer", "compare")
        .expect("timer fired")
        .time
        .as_ps();
    let period_ps = soc.frequency().period_ps();
    let lats = (0..writes.len()).map(|i| {
        let halt = soc
            .trace()
            .first(&format!("pels.link{i}"), "halt")
            .unwrap_or_else(|| panic!("link{i} completed"));
        (halt.time.as_ps() - t0) / period_ps
    });
    lats.fold((u64::MAX, 0), |(best, worst), l| (best.min(l), worst.max(l)))
}

/// Jitter of one mediation path under bus contention.
#[derive(Debug, Clone, Copy)]
pub struct JitterPoint {
    /// Mediation path.
    pub mediator: Mediator,
    /// Minimum event→actuation latency (cycles).
    pub min: u64,
    /// Maximum latency (cycles).
    pub max: u64,
    /// Jitter = max − min: the paper's predictability metric.
    pub jitter: u64,
}

/// Measures linking jitter while the core hammers the peripheral bus
/// with an endless polling loop — the predictability story of Section I
/// ("by circumventing the CPU and the system interconnect, instant
/// actions reduce access latency and minimize jitter"): instant actions
/// stay jitter-free because they never touch the bus; sequenced actions
/// absorb arbitration slots; a contended handler varies most.
pub fn jitter_under_contention() -> Vec<JitterPoint> {
    let mediators = [Mediator::PelsInstant, Mediator::PelsSequenced];
    collect_infallible(FleetEngine::auto().map(
        &mediators,
        |_| 1,
        |&mediator| {
            // A noisy sensor makes the contending CPU loop's length
            // data-dependent (below), so each linking event meets the bus
            // in a different phase — without it, the periodic poll loop
            // phase-locks to the events and jitter degenerates to zero.
            let mut desc = Scenario::latency_probe(mediator).desc().clone();
            desc.system.sensor = pels_soc::SensorKind::NoisyRamp {
                start: 2.5,
                slope_per_us: 0.0,
                sigma: 0.05,
                seed: 99,
            };
            let s = Scenario::from_desc(desc).expect("jitter scenario is valid");
            let mut soc = Soc::from_desc(&s.system).expect("scenario systems are valid");
            {
                let link = soc.pels_mut().link_mut(0);
                link.set_mask(EventVector::mask_of(&[0])).set_base(APB_BASE);
                link.load_program(&s.link_program()).expect("fits");
            }
            soc.spi_mut().set_default_len(s.spi_words);
            // The core hammers the bus with sample reads and inserts a
            // sample-dependent delay (0–3 iterations): realistic,
            // irregular contention.
            use pels_cpu::asm;
            let mut p = Vec::new();
            p.extend(asm::li32(
                5,
                pels_soc::mem_map::apb_reg(pels_soc::mem_map::SPI_OFFSET, pels_periph::Spi::LAST),
            ));
            p.push(asm::lw(6, 5, 0)); // poll:
            p.push(asm::andi(7, 6, 3));
            p.push(asm::beq(7, 0, 12)); // d: done -> back to poll
            p.push(asm::addi(7, 7, -1));
            p.push(asm::jal(0, -8)); // -> d
            p.push(asm::jal(0, -20)); // -> poll
            soc.load_program(pels_soc::mem_map::RESET_PC, &p);
            let marker = Scenario::completion_marker(mediator);
            soc.trace_mut().pair(("spi", "eot"), marker);
            arm(&mut soc, 61);
            soc.run_for_trace_count(30_000, marker.0, marker.1, 40);
            let lats: Vec<u64> = soc
                .trace()
                .latencies()
                .iter()
                .map(|t| t.as_ps() / s.freq().period_ps())
                .collect();
            assert!(lats.len() >= 20, "{mediator}: events completed under load");
            let min = *lats.iter().min().expect("non-empty");
            let max = *lats.iter().max().expect("non-empty");
            Ok::<_, JobError>(JitterPoint {
                mediator,
                min,
                max,
                jitter: max - min,
            })
        },
    ))
}

/// Result of the calibration-sensitivity study.
#[derive(Debug, Clone, Copy)]
pub struct SensitivityPoint {
    /// SRAM read energy assumed (pJ).
    pub e_sram_read_pj: f64,
    /// Resulting iso-latency active-power ratio (Ibex/PELS).
    pub ratio: f64,
}

/// Sweeps the most influential calibration constant — the SRAM access
/// energy — across a generous ±50 % band and recomputes the headline
/// iso-latency active-power ratio from the *same* measured activity.
/// The paper's conclusion (PELS wins by ~2–3×) must not hinge on the
/// exact pJ figure chosen.
pub fn calibration_sensitivity() -> Vec<SensitivityPoint> {
    use pels_power::{Calibration, PowerModel};
    use pels_soc::power_setup::component_areas;

    // The two measurement runs are independent: one fleet batch. The
    // sensitivity sweep itself is pure arithmetic over the *same*
    // measured activity, so it stays serial.
    let jobs = vec![
        (
            "pels".to_string(),
            Scenario::iso_latency(Mediator::PelsSequenced),
        ),
        ("ibex".to_string(), Scenario::iso_latency(Mediator::IbexIrq)),
    ];
    let fleet = FleetEngine::auto().run_scenarios(&jobs);
    let pels_report = fleet
        .outcome("pels")
        .expect("pels measurement succeeded")
        .report
        .clone();
    let ibex_report = fleet
        .outcome("ibex")
        .expect("ibex measurement succeeded")
        .report
        .clone();

    [10.0, 15.0, 20.0, 25.0, 30.0]
        .into_iter()
        .map(|e_sram| {
            let mut calib = Calibration::tsmc65();
            calib.e_sram_read_pj = e_sram;
            calib.e_sram_write_pj = e_sram + 2.0;
            let mut model = PowerModel::new(calib);
            for (name, kge) in component_areas(pels_report.pels) {
                model.add_component(name, kge);
            }
            let pels = pels_report.active_power(&model).total();
            let ibex = ibex_report.active_power(&model).total();
            SensitivityPoint {
                e_sram_read_pj: e_sram,
                ratio: ibex / pels,
            }
        })
        .collect()
}

/// Result of the polling-I/O-processor ablation.
#[derive(Debug, Clone, Copy)]
pub struct PollingAblation {
    /// Event→actuation latency of the busy-polling core (cycles).
    pub polling_latency: u64,
    /// Latency of the PELS sequenced path on the same workload.
    pub pels_latency: u64,
    /// SRAM accesses per microsecond while polling.
    pub polling_sram_rate: f64,
    /// SRAM accesses per microsecond with PELS mediating.
    pub pels_sram_rate: f64,
}

/// The general-purpose I/O-processor approach at its worst (paper Figure
/// 1a without even WFI): the core busy-polls the SPI status register.
/// Latency can beat the interrupt path (no entry overhead) but the core
/// never sleeps and hammers the SRAM with fetches — the flexibility/
/// efficiency trade-off of Section II-C2.
pub fn polling_vs_pels() -> PollingAblation {
    use pels_soc::baseline::threshold_polling_image;
    use pels_sim::ActivityKind;

    // Polling run.
    let s = Scenario::latency_probe(Mediator::PelsSequenced);
    let mut soc = Soc::from_desc(&s.system).expect("scenario systems are valid");
    soc.pels_mut().set_enabled(false);
    soc.spi_mut().set_default_len(s.spi_words);
    let image = threshold_polling_image(s.threshold_code());
    for (addr, words) in &image.segments {
        soc.load_program(*addr, words);
    }
    soc.trace_mut().pair(("spi", "eot"), ("gpio", "padout"));
    arm(&mut soc, s.timer_period_cycles());
    soc.run_for_trace_count(20_000, "gpio", "padout", 10);
    let polling_latency = soc
        .trace()
        .latencies()
        .iter()
        .map(|t| t.as_ps() / s.freq().period_ps())
        .min()
        .expect("polling actuated");
    let window_us = soc.window_time().as_us_f64();
    let activity = soc.drain_activity();
    let polling_sram_rate = (activity.count("sram", ActivityKind::SramRead)
        + activity.count("sram", ActivityKind::SramWrite)) as f64
        / window_us;

    // PELS reference on the identical workload.
    let report = s.run();
    let pels_window_us = report.active_window.as_us_f64();
    let pels_sram_rate = (report.active_activity.count("sram", ActivityKind::SramRead)
        + report
            .active_activity
            .count("sram", ActivityKind::SramWrite)) as f64
        / pels_window_us;

    PollingAblation {
        polling_latency,
        pels_latency: report.stats.min,
        polling_sram_rate,
        pels_sram_rate,
    }
}

/// One point of the link-count scaling study.
#[derive(Debug, Clone, Copy)]
pub struct LinkScalingPoint {
    /// Links triggered simultaneously.
    pub links: usize,
    /// Best (first-served) completion latency in cycles.
    pub best_latency: u64,
    /// Worst (last-served) completion latency in cycles.
    pub worst_latency: u64,
}

/// Quantifies Section III-1's observation that "the arbitration policy
/// affects each link's typical and maximum latency, especially in the
/// worst-case scenario where all links try to access peripherals
/// simultaneously": 1..=8 links all fire on one event, each issuing one
/// sequenced write over the shared bus.
pub fn link_scaling() -> Vec<LinkScalingPoint> {
    let link_counts: Vec<usize> = (1..=8).collect();
    let padoutset = pels_word_offset(GPIO_OFFSET, pels_periph::Gpio::PADOUTSET);
    collect_infallible(FleetEngine::auto().map(
        &link_counts,
        |&links| links as u64,
        |&links| {
            let writes: Vec<(u16, u32)> = (0..links).map(|i| (padoutset, 1 << i)).collect();
            let cycles = 60 + 10 * links as u64;
            let (best_latency, worst_latency) =
                contention_latencies(SystemDesc::default(), &writes, 50, cycles);
            Ok::<_, JobError>(LinkScalingPoint {
                links,
                best_latency,
                worst_latency,
            })
        },
    ))
}

/// Renders all ablations as text.
pub fn render_all() -> String {
    let mut out = String::from("Ablations\n=========\n\n");

    let scm = scm_vs_shared_fetch();
    let _ = writeln!(
        out,
        "[scm-vs-shared-fetch] sequenced action: private SCM = {} cycles, \
         shared-memory fetch = {} cycles (+{})",
        scm.scm_latency,
        scm.shared_latency,
        scm.shared_latency - scm.scm_latency
    );

    let _ = writeln!(out, "\n[trigger-fifo] burst of back-to-back events:");
    for f in fifo_depth_sweep() {
        let _ = writeln!(
            out,
            "  depth {}: {} triggers, {} dropped",
            f.depth, f.triggers, f.dropped
        );
    }

    let _ = writeln!(out, "\n[arbitration] 4 links contending on the shared bus:");
    for a in arbiter_contention() {
        let _ = writeln!(
            out,
            "  {:<15} best {} / worst {} cycles (spread {})",
            a.policy.to_string(),
            a.best_latency,
            a.worst_latency,
            a.worst_latency - a.best_latency
        );
    }

    let _ = writeln!(out, "\n[topology] same contention, round-robin:");
    for (t, a) in topology_contention() {
        let _ = writeln!(
            out,
            "  {:<20} best {} / worst {} cycles",
            t.to_string(),
            a.best_latency,
            a.worst_latency
        );
    }

    let _ = writeln!(out, "\n[jitter under contention] polling core on the bus:");
    for j in jitter_under_contention() {
        let _ = writeln!(
            out,
            "  {:<16} min {} / max {} cycles (jitter {})",
            j.mediator.to_string(),
            j.min,
            j.max,
            j.jitter
        );
    }

    let _ = writeln!(out, "\n[calibration sensitivity] iso-latency active ratio vs E_sram:");
    for pt in calibration_sensitivity() {
        let _ = writeln!(
            out,
            "  E_sram_read = {:>4.0} pJ -> ratio {:.2}x",
            pt.e_sram_read_pj, pt.ratio
        );
    }

    let p = polling_vs_pels();
    let _ = writeln!(
        out,
        "\n[polling i/o processor] latency {} vs pels {} cycles; \
         sram traffic {:.0} vs {:.1} accesses/us",
        p.polling_latency, p.pels_latency, p.polling_sram_rate, p.pels_sram_rate
    );

    let _ = writeln!(
        out,
        "\n[link scaling] N links firing simultaneously, shared bus:"
    );
    for p in link_scaling() {
        let _ = writeln!(
            out,
            "  {} link(s): best {} / worst {} cycles",
            p.links, p.best_latency, p.worst_latency
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_fetch_costs_latency() {
        let r = scm_vs_shared_fetch();
        assert_eq!(r.scm_latency, 7);
        assert!(
            r.shared_latency >= r.scm_latency + 3,
            "shared-memory fetch must pay at least one bus round trip \
             ({} vs {})",
            r.shared_latency,
            r.scm_latency
        );
    }

    #[test]
    fn unbuffered_link_drops_events() {
        let sweep = fifo_depth_sweep();
        let depth0 = sweep.iter().find(|f| f.depth == 0).expect("depth 0 run");
        assert!(depth0.dropped > 0, "unbuffered design must lose events");
        let depth4 = sweep.iter().find(|f| f.depth == 4).expect("depth 4 run");
        assert!(
            depth4.dropped < depth0.dropped,
            "buffering reduces losses"
        );
    }

    #[test]
    fn fixed_priority_worsens_worst_case() {
        let runs = arbiter_contention();
        let rr = &runs[0];
        let fp = &runs[1];
        assert_eq!(rr.policy, ArbiterKind::RoundRobin);
        // Fixed priority serves link 0 first every time; the last link
        // waits at least as long as under round-robin.
        assert!(fp.worst_latency >= rr.worst_latency);
        assert!(fp.best_latency <= rr.best_latency);
    }

    #[test]
    fn instant_actions_are_jitter_free_under_contention() {
        let points = jitter_under_contention();
        let instant = points
            .iter()
            .find(|p| p.mediator == Mediator::PelsInstant)
            .expect("instant point");
        let sequenced = points
            .iter()
            .find(|p| p.mediator == Mediator::PelsSequenced)
            .expect("sequenced point");
        assert_eq!(instant.jitter, 0, "instant actions never touch the bus");
        assert_eq!(instant.min, 2);
        assert!(
            sequenced.jitter > 0,
            "arbitration must show up in the sequenced path"
        );
        assert!(sequenced.min >= 7);
    }

    #[test]
    fn conclusion_robust_to_sram_energy_choice() {
        let sweep = calibration_sensitivity();
        assert_eq!(sweep.len(), 5);
        for pt in &sweep {
            assert!(
                pt.ratio > 1.7 && pt.ratio < 3.2,
                "ratio {:.2} at E_sram = {} pJ leaves the paper's band",
                pt.ratio,
                pt.e_sram_read_pj
            );
        }
        // More expensive SRAM favours PELS monotonically.
        for w in sweep.windows(2) {
            assert!(w[1].ratio > w[0].ratio);
        }
    }

    #[test]
    fn polling_burns_memory_bandwidth_for_its_latency() {
    let p = polling_vs_pels();
        // Polling may react fast, but the energy story is catastrophic:
        // orders of magnitude more SRAM traffic than the sleeping-core
        // PELS configuration.
        assert!(p.polling_latency <= 20, "polling reacts quickly");
        assert_eq!(p.pels_latency, 7);
        // Measured: ~26 accesses/us polling vs ~2/us with PELS (the
        // PELS figure is almost entirely the common uDMA landing).
        assert!(
            p.polling_sram_rate > 10.0 * p.pels_sram_rate,
            "polling sram {:.1}/us vs pels {:.1}/us",
            p.polling_sram_rate,
            p.pels_sram_rate
        );
    }

    #[test]
    fn worst_case_latency_grows_linearly_with_links() {
        let points = link_scaling();
        assert_eq!(points[0].links, 1);
        // Single link: the uncontended 4-cycle write path (write commands
        // commit 2 bus cycles after issue; observable one later).
        let solo = points[0].worst_latency;
        for w in points.windows(2) {
            assert!(
                w[1].worst_latency >= w[0].worst_latency,
                "worst case must not improve with more contenders"
            );
        }
        let eight = points.last().expect("eight-link point");
        // Each extra link adds one bus occupancy (2 cycles) to the tail.
        assert!(
            eight.worst_latency >= solo + 2 * 7,
            "8-way contention stretches the tail: {} vs {}",
            eight.worst_latency,
            solo
        );
        assert_eq!(
            points[0].best_latency, points[7].best_latency,
            "the first-served link never waits"
        );
    }

    #[test]
    fn crossbar_collapses_contention() {
        let runs = topology_contention();
        let shared = &runs[0].1;
        let xbar = &runs[1].1;
        assert!(
            xbar.worst_latency < shared.worst_latency,
            "parallel slave lanes must shorten the worst case \
             ({} vs {})",
            xbar.worst_latency,
            shared.worst_latency
        );
        assert_eq!(
            xbar.worst_latency, xbar.best_latency,
            "disjoint targets complete in lock-step on a crossbar"
        );
    }
}
