//! Bench: raw simulation throughput (SoC cycles per second of host
//! time) — the meta-benchmark for the behavioural substrate itself,
//! across PELS configurations, the naive-scheduler baseline, and both
//! mediators.

use pels_bench::harness::Bench;
use pels_bench::throughput;
use pels_cpu::asm;
use pels_soc::mem_map::RESET_PC;
use pels_soc::{ExecMode, Mediator, Scenario, SocBuilder};

const CYCLES: u64 = 10_000;

/// A SoC whose CPU spins (`addi x1,x1,1; j .-4`) while every peripheral
/// is quiescent — the `Soc::tick`-level microbench isolating active-cycle
/// cost: whole-SoC skips are impossible (the CPU is busy), so each cycle
/// pays the peripheral-scheduling and fetch/decode overhead directly.
fn busy_cpu_soc(naive: bool) -> pels_soc::Soc {
    let mut soc = SocBuilder::new().build();
    soc.trace_mut().set_enabled(false);
    soc.load_program(RESET_PC, &[asm::addi(1, 1, 1), asm::jal(0, -4)]);
    if naive {
        soc.set_exec_mode(ExecMode::Naive);
    }
    soc
}

fn main() {
    let bench = Bench::from_args("sim_throughput").sample_size(10);

    for links in [1usize, 4, 8] {
        bench.run_throughput(&format!("idle_soc_links/{links}"), CYCLES, || {
            let mut soc = SocBuilder::new().pels_links(links).build();
            soc.trace_mut().set_enabled(false);
            soc.run(CYCLES);
            soc.cycle()
        });
    }

    // The naive every-cycle baseline the quiescence scheduler replaces.
    bench.run_throughput("idle_soc_naive", CYCLES, || {
        let mut soc = SocBuilder::new().build();
        soc.set_exec_mode(ExecMode::Naive);
        soc.trace_mut().set_enabled(false);
        soc.run(CYCLES);
        soc.cycle()
    });

    // Active-cycle cost in isolation (CPU busy, N quiescent slaves), on
    // the fast path and on the forced-naive reference path.
    for (name, naive) in [
        ("busy_cpu_quiescent_slaves", false),
        ("busy_cpu_quiescent_slaves_naive", true),
    ] {
        bench.run_throughput(name, CYCLES, || {
            let mut soc = busy_cpu_soc(naive);
            soc.run(CYCLES);
            soc.cycle()
        });
    }

    for mediator in [Mediator::PelsSequenced, Mediator::IbexIrq] {
        let s = Scenario::builder()
            .mediator(mediator)
            .events(50)
            .build()
            .expect("valid scenario");
        bench.run(&format!("linking_workload/{mediator}"), || {
            s.run().events_completed
        });
    }

    // End-to-end active path: the same scenarios with the fast path off
    // (`ExecMode::Naive`) — the before/after pair behind the tracked
    // `linking_speedup` / `irq_speedup` fields.
    for mediator in [Mediator::PelsSequenced, Mediator::IbexIrq] {
        let s = Scenario::builder()
            .mediator(mediator)
            .events(50)
            .exec_mode(ExecMode::Naive)
            .build()
            .expect("valid scenario");
        bench.run(&format!("active_path_naive/{mediator}"), || {
            s.run().events_completed
        });
    }

    // The tracked artifact rows (the same measurement `reproduce
    // sim_throughput` writes to BENCH_sim_throughput.json).
    let rows = throughput::measure(3);
    print!("{}", throughput::render(&rows));
}
