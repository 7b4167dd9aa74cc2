//! Observational identity of the fast active path.
//!
//! PR 3 adds two busy-cycle accelerators: the CPU's decoded-instruction
//! cache and the SoC's active-slave scheduling (ticking only non-sleeping
//! peripherals instead of walking every slave each cycle). These tests
//! prove both are invisible: with the CPU *busy* (not parked in `wfi`,
//! so whole-SoC skips never apply) the fast configuration and the forced
//! naive one (`Soc::set_exec_mode(ExecMode::Naive)`: every peripheral
//! ticks every cycle, decode cache off) produce bit-identical traces,
//! activity images, latency statistics and architectural state.

use std::collections::BTreeMap;

use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::{Spi, Timer};
use pels_repro::sim::{ActivityKind, ActivitySet, Rng};
use pels_repro::soc::event_map::{EV_GPIO_RISE, EV_TIMER_CMP};
use pels_repro::soc::mem_map::RESET_PC;
use pels_repro::soc::{ExecMode, Mediator, Scenario, Soc, SocBuilder};
use pels_repro::{core as pels_core, cpu::asm};

/// One externally applied stimulus step, generated once and replayed
/// identically on both SoCs.
#[derive(Debug, Clone, Copy)]
enum Op {
    Run(u64),
    Inject(u32),
    PokeTimerCmp(u32),
    GpioInput(u32),
    Drain,
}

fn activity_image(a: &ActivitySet) -> BTreeMap<(&'static str, ActivityKind), u64> {
    a.iter()
        .filter(|&(_, _, n)| n != 0)
        .map(|(c, k, n)| ((c, k), n))
        .collect()
}

/// The busy-CPU workload: PELS link 0 toggles a GPIO pad on every timer
/// compare match while the CPU spins in a compute loop (mixed compressed
/// and 32-bit instructions, so the decode cache is on the critical path
/// every cycle and the SoC never reaches a whole-chip skip).
fn busy_workload_soc(naive: bool) -> Soc {
    use pels_repro::soc::event_map::AL_GPIO_TOGGLE;
    let mut soc = SocBuilder::new().pels_links(2).build();
    soc.pels_mut()
        .link_mut(0)
        .set_mask(pels_repro::sim::EventVector::mask_of(&[EV_TIMER_CMP]));
    soc.pels_mut()
        .link_mut(0)
        .load_program(
            &pels_core::Program::new(vec![
                pels_core::Command::Action {
                    mode: pels_core::ActionMode::Toggle,
                    group: 0,
                    mask: 1 << (AL_GPIO_TOGGLE - 16),
                },
                pels_core::Command::Halt,
            ])
            .expect("valid"),
        )
        .expect("fits");
    // x1 += 1; x2 += x1; loop — never sleeps.
    soc.load_program(
        RESET_PC,
        &[
            asm::addi(1, 1, 1),
            asm::add(2, 2, 1),
            asm::jal(0, -8),
        ],
    );
    soc.timer_mut().write(Timer::CMP, 16).unwrap();
    soc.timer_mut()
        .write(Timer::CTRL, Timer::CTRL_ENABLE)
        .unwrap();
    soc.spi_mut().write(Spi::CMD, 1).unwrap();
    if naive {
        soc.set_exec_mode(ExecMode::Naive);
    }
    soc
}

fn apply(soc: &mut Soc, op: Op) {
    match op {
        Op::Run(n) => soc.run(n),
        Op::Inject(line) => soc.inject_event(line),
        Op::PokeTimerCmp(v) => {
            soc.timer_mut().write(Timer::CMP, v).unwrap();
        }
        Op::GpioInput(v) => soc.gpio_mut().set_input(v),
        Op::Drain => {}
    }
}

fn assert_identical(fast: &Soc, naive: &Soc, ctx: &str) {
    assert_eq!(fast.cycle(), naive.cycle(), "{ctx}: cycle");
    assert_eq!(
        fast.trace().entries(),
        naive.trace().entries(),
        "{ctx}: trace streams diverge"
    );
    assert_eq!(fast.timer().value(), naive.timer().value(), "{ctx}: timer value");
    assert_eq!(fast.timer().fires(), naive.timer().fires(), "{ctx}: timer fires");
    assert_eq!(fast.gpio().out(), naive.gpio().out(), "{ctx}: gpio out");
    assert_eq!(fast.spi().is_busy(), naive.spi().is_busy(), "{ctx}: spi busy");
    assert_eq!(fast.cpu().cycles(), naive.cpu().cycles(), "{ctx}: cpu cycles");
    assert_eq!(fast.cpu().retired(), naive.cpu().retired(), "{ctx}: cpu retired");
    assert_eq!(fast.cpu().pc(), naive.cpu().pc(), "{ctx}: cpu pc");
    for r in 0..32 {
        assert_eq!(fast.cpu().reg(r), naive.cpu().reg(r), "{ctx}: x{r}");
    }
}

/// The differential property: with a busy CPU, random stimulus schedules
/// observe no difference between the fast active path (decode cache +
/// active-slave scheduling) and the forced-naive reference.
#[test]
fn fast_active_path_is_observationally_identical_to_naive() {
    let mut rng = Rng::seed_from_u64(0xAC71_BE01);
    for case in 0..16 {
        let ops: Vec<Op> = (0..rng.range_u64(4, 16))
            .map(|_| match rng.index(8) {
                0..=2 => Op::Run(rng.range_u64(1, 120)),
                3 => Op::Run(rng.range_u64(200, 1_500)),
                4 => Op::Inject([EV_TIMER_CMP, EV_GPIO_RISE, 9][rng.index(3)]),
                5 => Op::PokeTimerCmp(rng.range_u64(1, 64) as u32),
                6 => Op::GpioInput(rng.next_u32() & 0xF),
                _ => Op::Drain,
            })
            .collect();
        let mut fast = busy_workload_soc(false);
        let mut naive = busy_workload_soc(true);
        for (i, &op) in ops.iter().enumerate() {
            if let Op::Drain = op {
                let af = activity_image(&fast.drain_activity());
                let an = activity_image(&naive.drain_activity());
                assert_eq!(af, an, "case {case} op {i}: activity windows diverge");
            } else {
                apply(&mut fast, op);
                apply(&mut naive, op);
            }
            assert_identical(&fast, &naive, &format!("case {case} op {i} ({op:?})"));
        }
        let af = activity_image(&fast.drain_activity());
        let an = activity_image(&naive.drain_activity());
        assert_eq!(af, an, "case {case}: final activity (power input) diverges");
        let (hits, _) = fast.cpu().decode_cache_stats();
        assert!(hits > 0, "case {case}: busy loop exercised the decode cache");
    }
}

/// Scenario-level identity: every mediator's full measured report —
/// latencies, [`LinkingStats`], completed events, activity images and
/// trace — is bit-identical between [`ExecMode::Fast`] and
/// [`ExecMode::Naive`] builds.
#[test]
fn scenario_reports_identical_fast_vs_naive() {
    for mediator in [
        Mediator::PelsSequenced,
        Mediator::PelsInstant,
        Mediator::IbexIrq,
    ] {
        let fast = Scenario::iso_frequency(mediator).run();
        let naive = Scenario::iso_frequency(mediator)
            .to_builder()
            .exec_mode(ExecMode::Naive)
            .build()
            .expect("preset variant stays valid")
            .run();
        let ctx = format!("{mediator}");
        assert_eq!(fast.events_completed, naive.events_completed, "{ctx}: events");
        assert_eq!(fast.latencies, naive.latencies, "{ctx}: latencies");
        assert_eq!(fast.stats, naive.stats, "{ctx}: LinkingStats");
        assert_eq!(
            activity_image(&fast.active_activity),
            activity_image(&naive.active_activity),
            "{ctx}: active-window activity"
        );
        assert_eq!(
            activity_image(&fast.idle_activity),
            activity_image(&naive.idle_activity),
            "{ctx}: idle-window activity"
        );
        assert_eq!(fast.active_window, naive.active_window, "{ctx}: active window");
        assert_eq!(
            fast.trace.entries(),
            naive.trace.entries(),
            "{ctx}: trace streams diverge"
        );
    }
}

/// IRQ delivery into a straight-line kernel, property-style: sweep the
/// external event arrival cycle across several loop iterations and
/// demand the interrupt is taken on exactly the same cycle on the fast
/// path as on the naive reference — compared in 3-cycle chunks so a
/// divergence pins to the cycle it happened, not just the endpoint.
#[test]
fn irq_delivery_in_straight_line_kernel_is_cycle_exact_vs_naive() {
    use pels_repro::cpu::csr::addr as csr;
    use pels_repro::soc::event_map::{irq_bit_for_event, EV_ADC_DONE};

    let bit = irq_bit_for_event(EV_ADC_DONE);
    let vector_table = RESET_PC + 0x200;
    let build = |naive: bool| {
        let mut soc = SocBuilder::new().build();
        // Straight-line kernel: six ALU ops closed by a jump — an
        // 8-cycle loop body the IRQ arrival sweeps across.
        soc.load_program(
            RESET_PC,
            &[
                asm::addi(1, 1, 1),
                asm::addi(2, 2, 2),
                asm::add(3, 3, 1),
                asm::add(4, 4, 2),
                asm::xori(5, 5, 1),
                asm::add(6, 6, 5),
                asm::jal(0, -24),
            ],
        );
        // Handler inline at its vector slot: count the entry, return.
        soc.load_program(
            vector_table + 4 * bit,
            &[asm::addi(15, 15, 1), asm::mret()],
        );
        let cpu = soc.cpu_mut();
        cpu.csrs.write(csr::MTVEC, vector_table);
        cpu.csrs.write(csr::MIE, 1 << bit);
        cpu.csrs.write(csr::MSTATUS, 8); // MSTATUS.MIE
        if naive {
            soc.set_exec_mode(ExecMode::Naive);
        }
        soc
    };

    for arrival in 0..48u64 {
        let mut fast = build(false);
        let mut naive = build(true);
        fast.run(arrival);
        naive.run(arrival);
        fast.inject_event(EV_ADC_DONE);
        naive.inject_event(EV_ADC_DONE);
        for chunk in 0..20 {
            fast.run(3);
            naive.run(3);
            assert_eq!(
                fast.cpu().irq_entries(),
                naive.cpu().irq_entries(),
                "arrival {arrival} chunk {chunk}: IRQ entry cycle diverges"
            );
            assert_identical(&fast, &naive, &format!("arrival {arrival} chunk {chunk}"));
        }
        assert_eq!(fast.cpu().irq_entries(), 1, "arrival {arrival}: IRQ taken");
        assert_eq!(fast.cpu().reg(15), 1, "arrival {arrival}: handler ran once");
    }
}

/// `run_for_trace_count` (the skipping trace-wait the scenario harness
/// uses) lands on the same cycle and trace as naive single-stepping with
/// a predicate.
#[test]
fn run_for_trace_count_matches_stepped_predicate_wait() {
    let mut fast = busy_workload_soc(false);
    let mut naive = busy_workload_soc(true);
    let done = fast.run_for_trace_count(5_000, "pels.link0", "action", 6);
    let stepped = naive.run_until(5_000, |s| {
        s.trace().all("pels.link0", "action").len() >= 6
    });
    assert!(done && stepped, "both sides saw 6 link actions");
    assert_identical(&fast, &naive, "after trace-count wait");
}

/// [`ExecMode`] selection on the scenario builder: the default is
/// `Fast`, an explicit mode sticks, and the last call wins.
#[test]
fn exec_mode_selection_is_explicit_and_last_wins() {
    let default = Scenario::builder().build().unwrap();
    assert_eq!(default.exec, ExecMode::Fast);
    let naive = Scenario::builder()
        .exec_mode(ExecMode::Naive)
        .build()
        .unwrap();
    assert_eq!(naive.exec, ExecMode::Naive);
    let last_wins = Scenario::builder()
        .exec_mode(ExecMode::Naive)
        .exec_mode(ExecMode::Fast)
        .build()
        .unwrap();
    assert_eq!(last_wins.exec, ExecMode::Fast);
}

/// A never-sleeping compute loop dense in dependent instruction pairs —
/// a `lui+addi` pair, a same-rd ALU-immediate chain and an
/// always-taken `slt+bne` compare-and-branch — with the timer-driven
/// PELS toggle workload around it.
fn pair_dense_soc() -> Soc {
    use pels_repro::soc::event_map::AL_GPIO_TOGGLE;
    let mut soc = SocBuilder::new().pels_links(2).build();
    soc.pels_mut()
        .link_mut(0)
        .set_mask(pels_repro::sim::EventVector::mask_of(&[EV_TIMER_CMP]));
    soc.pels_mut()
        .link_mut(0)
        .load_program(
            &pels_core::Program::new(vec![
                pels_core::Command::Action {
                    mode: pels_core::ActionMode::Toggle,
                    group: 0,
                    mask: 1 << (AL_GPIO_TOGGLE - 16),
                },
                pels_core::Command::Halt,
            ])
            .expect("valid"),
        )
        .expect("fits");
    soc.load_program(
        RESET_PC,
        &[
            asm::lui(5, 0x1000),    // ┐ LuiAddi pair
            asm::addi(5, 5, 0x21),  // ┘
            asm::addi(1, 1, 1),     // ┐ same-rd AluImmPair
            asm::addi(1, 1, 2),     // ┘
            asm::slt(12, 0, 5),     // ┐ CmpBranch pair, always taken
            asm::bne(12, 0, -20),   // ┘
        ],
    );
    soc.timer_mut().write(Timer::CMP, 16).unwrap();
    soc.timer_mut()
        .write(Timer::CTRL, Timer::CTRL_ENABLE)
        .unwrap();
    soc
}

/// SoC differential over the pair-dense workload: the fast path and the
/// naive reference observe the same stimulus schedule bit-identically —
/// trace, activity image, architectural and peripheral state at every
/// step.
#[test]
fn fused_pair_workload_is_identical_across_tiers() {
    let ops = [
        Op::Run(37),
        Op::Inject(EV_GPIO_RISE),
        Op::Run(101),
        Op::PokeTimerCmp(24),
        Op::Run(500),
        Op::GpioInput(3),
        Op::Run(263),
    ];
    let mut fast = pair_dense_soc();
    let mut naive = pair_dense_soc();
    naive.set_exec_mode(ExecMode::Naive);
    for (i, &op) in ops.iter().enumerate() {
        apply(&mut fast, op);
        apply(&mut naive, op);
        assert_identical(&fast, &naive, &format!("op {i} ({op:?})"));
    }
    let af = activity_image(&fast.drain_activity());
    let an = activity_image(&naive.drain_activity());
    assert_eq!(af, an, "fast vs naive activity (power input) diverges");
}

/// IRQ delivery across the pair-dense kernel's dependent pairs,
/// property-style: sweep the external event arrival cycle across the
/// loop body and demand the interrupt is taken on exactly the same
/// cycle on the fast path as on the naive reference.
#[test]
fn irq_delivery_across_fused_pairs_is_cycle_exact() {
    use pels_repro::cpu::csr::addr as csr;
    use pels_repro::soc::event_map::{irq_bit_for_event, EV_ADC_DONE};

    let bit = irq_bit_for_event(EV_ADC_DONE);
    let vector_table = RESET_PC + 0x200;
    let build = |naive: bool| {
        let mut soc = SocBuilder::new().build();
        soc.load_program(
            RESET_PC,
            &[
                asm::lui(5, 0x1000),
                asm::addi(5, 5, 0x21),
                asm::addi(1, 1, 1),
                asm::addi(1, 1, 2),
                asm::slt(12, 0, 5),
                asm::bne(12, 0, -20),
            ],
        );
        soc.load_program(
            vector_table + 4 * bit,
            &[asm::addi(15, 15, 1), asm::mret()],
        );
        let cpu = soc.cpu_mut();
        cpu.csrs.write(csr::MTVEC, vector_table);
        cpu.csrs.write(csr::MIE, 1 << bit);
        cpu.csrs.write(csr::MSTATUS, 8); // MSTATUS.MIE
        if naive {
            soc.set_exec_mode(ExecMode::Naive);
        }
        soc
    };

    for arrival in 0..32u64 {
        let mut fast = build(false);
        let mut naive = build(true);
        fast.run(arrival);
        naive.run(arrival);
        fast.inject_event(EV_ADC_DONE);
        naive.inject_event(EV_ADC_DONE);
        for chunk in 0..20 {
            fast.run(3);
            naive.run(3);
            assert_eq!(
                fast.cpu().irq_entries(),
                naive.cpu().irq_entries(),
                "arrival {arrival} chunk {chunk}: IRQ entry cycle diverges"
            );
            assert_identical(&fast, &naive, &format!("arrival {arrival} chunk {chunk}"));
        }
        assert_eq!(fast.cpu().irq_entries(), 1, "arrival {arrival}: IRQ taken");
        assert_eq!(fast.cpu().reg(15), 1, "arrival {arrival}: handler ran once");
    }
}
