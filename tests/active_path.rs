//! Observational identity of the fast active path.
//!
//! Two busy-cycle accelerators: the CPU's decoded-instruction cache and
//! the SoC's active-slave scheduling (ticking only non-sleeping
//! peripherals instead of walking every slave each cycle). These tests
//! prove both are invisible: with the CPU *busy* (not parked in `wfi`,
//! so whole-SoC skips never apply) the fast configuration and the forced
//! naive one (`Soc::set_exec_mode(ExecMode::Naive)`: every peripheral
//! ticks every cycle, decode cache off) stay equal as whole SoCs after
//! every step, and produce bit-identical scenario reports.

mod common;

use common::{assert_same, toggle_workload, Lockstep};
use pels_repro::cpu::asm;
use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::Timer;
use pels_repro::sim::Rng;
use pels_repro::soc::event_map::{EV_GPIO_RISE, EV_TIMER_CMP};
use pels_repro::soc::mem_map::RESET_PC;
use pels_repro::soc::{ExecMode, Scenario, ScenarioDesc, Soc, SystemDesc};

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

/// The busy-CPU workload: the CPU spins in a compute loop (`x1 += 1;
/// x2 += x1`), so the decode cache is on the critical path every cycle
/// and the SoC never reaches a whole-chip skip.
fn busy_workload_soc() -> Soc {
    toggle_workload(&[asm::addi(1, 1, 1), asm::add(2, 2, 1), asm::jal(0, -8)], 16)
}

/// Applies `op` to both SoCs of `pair` and compares them whole.
fn apply(pair: &mut Lockstep, op: Op, ctx: &str) {
    match op {
        Op::Run(n) => pair.apply(ctx, |soc| soc.run(n)),
        Op::Inject(line) => pair.apply(ctx, |soc| soc.inject_event(line)),
        Op::PokeTimerCmp(v) => pair.apply(ctx, |soc| {
            soc.timer_mut().write(Timer::CMP, v).unwrap();
        }),
        Op::GpioInput(v) => pair.apply(ctx, |soc| soc.gpio_mut().set_input(v)),
        Op::Drain => pair.drain(ctx),
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
        let mut pair = Lockstep::new(busy_workload_soc());
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut pair, op, &format!("case {case} op {i} ({op:?})"));
        }
        pair.drain(&format!("case {case}: final window"));
        let (hits, _) = pair.fast.cpu().decode_cache_stats();
        assert!(hits > 0, "case {case}: busy loop exercised the decode cache");
    }
}

/// Scenario-level identity: every mediator's measured report —
/// latencies, [`LinkingStats`], completed events, activity images,
/// windows and trace — is bit-identical between [`ExecMode::Fast`] and
/// [`ExecMode::Naive`] builds.
#[test]
fn scenario_reports_identical_fast_vs_naive() {
    for mediator in common::MEDIATORS {
        let fast = Scenario::iso_frequency(mediator).run();
        let naive = Scenario::from_desc(ScenarioDesc {
            exec: ExecMode::Naive,
            ..Scenario::iso_frequency(mediator).desc().clone()
        })
        .expect("preset variant stays valid")
        .run();
        common::assert_same_measurement(&fast, &naive, &format!("{mediator}"));
    }
}

/// IRQ delivery into `kernel`, property-style: sweeps the external
/// event's arrival over `arrivals` cycles and demands the fast path takes
/// the interrupt on exactly the cycle the naive reference does. The
/// whole SoCs (pc, `mepc`, registers, counters) are compared every 3
/// cycles after the injection, so an entry shifted by whole loop
/// iterations cannot hide, and a mismatch is pinned to its first cycle.
fn assert_irq_sweep(kernel: &[u32], arrivals: u64) {
    use pels_repro::cpu::csr::addr as csr;
    use pels_repro::soc::event_map::{irq_bit_for_event, EV_ADC_DONE};

    let bit = irq_bit_for_event(EV_ADC_DONE);
    let vector_table = RESET_PC + 0x200;
    let mut soc = Soc::from_desc(&SystemDesc::default()).unwrap();
    soc.load_program(RESET_PC, kernel);
    // Handler inline at its vector slot: count the entry, return.
    soc.load_program(vector_table + 4 * bit, &[asm::addi(15, 15, 1), asm::mret()]);
    let cpu = soc.cpu_mut();
    cpu.csrs.write(csr::MTVEC, vector_table);
    cpu.csrs.write(csr::MIE, 1 << bit);
    cpu.csrs.write(csr::MSTATUS, 8); // MSTATUS.MIE
    for arrival in 0..arrivals {
        let mut pair = Lockstep::new(soc.clone());
        let ctx = format!("arrival {arrival}");
        pair.apply(&ctx, |soc| soc.run(arrival));
        pair.apply(&ctx, |soc| soc.inject_event(EV_ADC_DONE));
        for _ in 0..20 {
            pair.apply(&ctx, |soc| soc.run(3));
        }
        assert_eq!(pair.fast.cpu().irq_entries(), 1, "{ctx}: IRQ taken");
        assert_eq!(pair.fast.cpu().reg(15), 1, "{ctx}: handler ran once");
    }
}

/// IRQ delivery into a straight-line kernel: six ALU ops closed by a
/// jump — an 8-cycle loop body the arrival sweeps across.
#[test]
fn irq_delivery_in_straight_line_kernel_is_cycle_exact_vs_naive() {
    let kernel = [
        asm::addi(1, 1, 1),
        asm::addi(2, 2, 2),
        asm::add(3, 3, 1),
        asm::add(4, 4, 2),
        asm::xori(5, 5, 1),
        asm::add(6, 6, 5),
        asm::jal(0, -24),
    ];
    assert_irq_sweep(&kernel, 48);
}

/// `run_for_trace_count` (the skipping trace-wait the scenario harness
/// uses) lands on the same cycle and state as naive single-stepping with
/// a predicate.
#[test]
fn run_for_trace_count_matches_stepped_predicate_wait() {
    let Lockstep { mut fast, mut naive } = Lockstep::new(busy_workload_soc());
    let pre = (fast.clone(), naive.clone());
    let done = fast.run_for_trace_count(5_000, "pels.link0", "action", 6);
    let stepped = naive.run_until(5_000, |s| {
        s.trace().all("pels.link0", "action").len() >= 6
    });
    assert!(done && stepped, "both sides saw 6 link actions");
    assert_same(&pre, &fast, &naive, "after trace-count wait");
}

/// A never-sleeping compute loop dense in dependent instruction pairs:
/// a `lui+addi` pair, a same-rd ALU-immediate chain and an always-taken
/// `slt+bne` compare-and-branch.
fn pair_dense_kernel() -> Vec<u32> {
    vec![
        asm::lui(5, 0x1000),   // ┐ lui+addi pair
        asm::addi(5, 5, 0x21), // ┘
        asm::addi(1, 1, 1),    // ┐ same-rd ALU-immediate chain
        asm::addi(1, 1, 2),    // ┘
        asm::slt(12, 0, 5),    // ┐ compare-and-branch, always taken
        asm::bne(12, 0, -20),  // ┘
    ]
}

/// A 14-deep loop of register-only ALU ops closed by an always-taken
/// compare-and-branch: no loads, stores or `wfi`, so the CPU retires an
/// instruction on every non-stall cycle.
fn long_alu_kernel() -> Vec<u32> {
    vec![
        asm::lui(5, 0x1000),
        asm::addi(5, 5, 0x21),
        asm::addi(1, 1, 1),
        asm::addi(1, 1, 2),
        asm::addi(2, 2, 3),
        asm::addi(2, 2, 5),
        asm::xori(3, 3, 0x11),
        asm::addi(3, 3, 1),
        asm::addi(4, 4, 1),
        asm::addi(4, 4, 1),
        asm::add(6, 6, 1),
        asm::xor(7, 7, 2),
        asm::slt(12, 0, 5),
        asm::bne(12, 0, -52),
    ]
}

/// SoC differential over both compute kernels: the fast path and the
/// naive reference observe the same stimulus schedule bit-identically —
/// trace, activity image, architectural and peripheral state at every
/// step.
#[test]
fn compute_kernels_are_identical_fast_vs_naive() {
    for (name, kernel, timer_cmp) in [
        ("pair-dense", pair_dense_kernel(), 16),
        ("long ALU", long_alu_kernel(), 512),
    ] {
        let ops = [
            Op::Run(37),
            Op::Inject(EV_GPIO_RISE),
            Op::Run(101),
            Op::PokeTimerCmp(timer_cmp + 8),
            Op::Run(500),
            Op::GpioInput(3),
            Op::Run(263),
            Op::Run(2_000),
        ];
        let mut pair = Lockstep::new(toggle_workload(&kernel, timer_cmp));
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut pair, op, &format!("{name} op {i} ({op:?})"));
        }
        assert!(pair.fast.cpu().retired() > 1_000, "{name}: the CPU never sleeps");
        pair.drain(&format!("{name}: final window"));
    }
}

/// IRQ delivery across the pair-dense kernel's dependent pairs,
/// property-style: sweep the external event arrival cycle across the
/// loop body and demand the interrupt is taken on exactly the same
/// cycle on the fast path as on the naive reference.
#[test]
fn irq_delivery_across_dependent_pairs_is_cycle_exact() {
    assert_irq_sweep(&pair_dense_kernel(), 32);
}
