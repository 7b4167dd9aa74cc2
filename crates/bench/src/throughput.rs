//! Raw simulation-throughput measurement (simulated SoC cycles per
//! wall-clock second) — the meta-benchmark for the behavioural substrate
//! itself, tracked across PRs via `BENCH_sim_throughput.json`.
//!
//! Four workloads bound the space:
//!
//! * **idle SoC** — CPU parked in `wfi`, all peripherals quiescent: the
//!   dominant state of the paper's duty-cycled ULP workloads and the one
//!   the quiescence-aware scheduler accelerates. Measured on both the
//!   fast path and the naive every-cycle path so the speedup itself is a
//!   tracked number.
//! * **linking workload** — the iso-frequency PELS-mediated sensing
//!   scenario (events actually flow through trigger/exec every period).
//! * **IRQ baseline** — the same scenario mediated by Ibex interrupts
//!   (CPU wake/sleep traffic every event).
//! * **busy linking workload** — a PELS link fires while the CPU crunches
//!   a straight-line kernel that never sleeps, so every cycle retires
//!   through the decode-cached single-step path (`linking_busy_cpu`).

use crate::harness::{fmt_rate, Bench};
use pels_sim::Frequency;
use pels_soc::{ExecMode, Mediator, Scenario, SocBuilder};
use pels_cpu::asm;
use pels_interconnect::ApbSlave as _;
use pels_periph::Timer;
use pels_soc::event_map::{AL_GPIO_TOGGLE, EV_TIMER_CMP};
use pels_soc::mem_map::RESET_PC;

/// Simulated cycles per idle-SoC measurement iteration.
pub const IDLE_CYCLES: u64 = 200_000;

/// Simulated cycles per busy-linking measurement iteration.
pub const BUSY_CYCLES: u64 = 200_000;

/// One measured workload.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Workload key (stable across PRs; used as the JSON field name).
    pub name: &'static str,
    /// Simulated SoC cycles per iteration.
    pub cycles: u64,
    /// Simulated cycles per wall-clock second (median-of-samples).
    pub cycles_per_sec: f64,
}

fn idle_soc(naive: bool) -> pels_soc::Soc {
    let mut soc = SocBuilder::new().build();
    if naive {
        soc.set_exec_mode(ExecMode::Naive);
    }
    soc.trace_mut().set_enabled(false);
    soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
    soc
}

/// A PELS link toggles a GPIO on every timer compare while the CPU
/// crunches a straight-line ALU kernel — peripheral events keep flowing,
/// but the CPU never sleeps, so host throughput is bound by instruction
/// execution rather than by whole-SoC skips.
pub fn busy_linking_soc() -> pels_soc::Soc {
    let mut soc = SocBuilder::new().build();
    soc.trace_mut().set_enabled(false);
    soc.pels_mut()
        .link_mut(0)
        .set_mask(pels_sim::EventVector::mask_of(&[EV_TIMER_CMP]));
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
    // A 14-deep loop of register-only ALU ops closed by a compare-and-
    // branch: no loads, stores or `wfi`, so the CPU retires an
    // instruction on every non-stall cycle.
    soc.load_program(
        RESET_PC,
        &[
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
        ],
    );
    soc.timer_mut().write(Timer::CMP, 512).unwrap();
    soc.timer_mut()
        .write(Timer::CTRL, Timer::CTRL_ENABLE)
        .unwrap();
    soc
}

fn scenario_cycles(mediator: Mediator, naive: bool) -> (Scenario, u64) {
    let exec = if naive { ExecMode::Naive } else { ExecMode::Fast };
    let s = Scenario::iso_frequency(mediator)
        .to_builder()
        .exec_mode(exec)
        .build()
        .expect("preset variant stays valid");
    let r = s.run();
    let window = r.active_window.checked_add(r.idle_window).expect("window fits");
    let cycles = Frequency::from_mhz(r.freq.as_mhz()).cycles_in(window);
    (s, cycles)
}

/// Runs all workloads with `samples` timing samples each.
pub fn measure(samples: usize) -> Vec<ThroughputRow> {
    let bench = Bench::new("sim_throughput", samples);
    let mut rows = Vec::new();

    for (name, naive) in [("idle_soc", false), ("idle_soc_naive", true)] {
        let rate = bench.run_throughput(name, IDLE_CYCLES, || {
            let mut soc = idle_soc(naive);
            soc.run(IDLE_CYCLES);
            soc.cycle()
        });
        rows.push(ThroughputRow {
            name,
            cycles: IDLE_CYCLES,
            cycles_per_sec: rate,
        });
    }

    // Each active workload is measured on the fast path and on the
    // forced-naive reference path, so the active-path speedup itself is
    // a tracked number (both runs simulate bit-identical SoCs).
    for (name, mediator, naive) in [
        ("linking_workload", Mediator::PelsSequenced, false),
        ("linking_workload_naive", Mediator::PelsSequenced, true),
        ("irq_baseline", Mediator::IbexIrq, false),
        ("irq_baseline_naive", Mediator::IbexIrq, true),
    ] {
        let (s, cycles) = scenario_cycles(mediator, naive);
        let rate = bench.run_throughput(name, cycles, || s.run().events_completed);
        rows.push(ThroughputRow {
            name,
            cycles,
            cycles_per_sec: rate,
        });
    }

    let name = "linking_busy_cpu";
    let rate = bench.run_throughput(name, BUSY_CYCLES, || {
        let mut soc = busy_linking_soc();
        soc.run(BUSY_CYCLES);
        soc.cycle()
    });
    rows.push(ThroughputRow {
        name,
        cycles: BUSY_CYCLES,
        cycles_per_sec: rate,
    });
    rows
}

/// The speedup of row `fast` over row `reference`.
pub fn speedup_vs(rows: &[ThroughputRow], fast: &str, reference: &str) -> Option<f64> {
    let fast = rows.iter().find(|r| r.name == fast)?;
    let reference = rows.iter().find(|r| r.name == reference)?;
    Some(fast.cycles_per_sec / reference.cycles_per_sec)
}

/// The fast-over-naive speedup for workload `name` (its reference row is
/// `<name>_naive`).
pub fn speedup_of(rows: &[ThroughputRow], name: &str) -> Option<f64> {
    speedup_vs(rows, name, &format!("{name}_naive"))
}

/// The idle-path speedup (fast over naive) from a measured row set.
pub fn idle_speedup(rows: &[ThroughputRow]) -> Option<f64> {
    speedup_of(rows, "idle_soc")
}

/// Renders the human-readable summary.
pub fn render(rows: &[ThroughputRow]) -> String {
    let mut s = String::from("sim_throughput - simulated SoC cycles per host second\n");
    for r in rows {
        s.push_str(&format!(
            "  {:<24} {:>10}cycles/s   ({} simulated cycles/iter)\n",
            r.name,
            fmt_rate(r.cycles_per_sec),
            r.cycles,
        ));
    }
    if let Some(x) = idle_speedup(rows) {
        s.push_str(&format!(
            "  idle-path speedup (quiescence scheduler vs naive): {x:.1}x\n"
        ));
    }
    if let Some(x) = speedup_of(rows, "linking_workload") {
        s.push_str(&format!("  active-path speedup (linking workload): {x:.1}x\n"));
    }
    if let Some(x) = speedup_of(rows, "irq_baseline") {
        s.push_str(&format!("  active-path speedup (irq baseline): {x:.1}x\n"));
    }
    s
}

/// Version of the `BENCH_sim_throughput.json` schema, recorded in the
/// artifact itself. Bump when a key is renamed or its meaning changes
/// (adding keys is non-breaking: the writer merges, never drops).
pub const SCHEMA_VERSION: u64 = 3;

/// Parses the flat JSON objects the `BENCH_*` artifacts use — one
/// `"key": value` pair per entry, values numbers or strings, no nesting —
/// into `(key, raw value text)` pairs in file order. `None` when `text`
/// is not such an object (the caller then starts from scratch rather
/// than guessing at a partial parse).
fn parse_flat_object(text: &str) -> Option<Vec<(String, String)>> {
    let mut rest = text.trim().strip_prefix('{')?.strip_suffix('}')?.trim();
    let mut pairs = Vec::new();
    while !rest.is_empty() {
        rest = rest.strip_prefix('"')?;
        let end = rest.find('"')?;
        let key = rest[..end].to_string();
        rest = rest[end + 1..].trim_start().strip_prefix(':')?.trim_start();
        let value = if let Some(in_str) = rest.strip_prefix('"') {
            let end = in_str.find('"')?;
            rest = in_str[end + 1..].trim_start();
            format!("\"{}\"", &in_str[..end])
        } else {
            let end = rest.find(',').unwrap_or(rest.len());
            let v = rest[..end].trim();
            if v.is_empty() {
                return None;
            }
            let v = v.to_string();
            rest = &rest[end..];
            v
        };
        pairs.push((key, value));
        match rest.strip_prefix(',') {
            Some(r) => rest = r.trim_start(),
            None if rest.is_empty() => {}
            None => return None,
        }
    }
    Some(pairs)
}

/// Serializes the rows (plus host metadata for a `samples`-sample run)
/// into the `BENCH_sim_throughput.json` artifact, merging into
/// `existing` (the file's previous contents, if any): keys this run
/// doesn't produce are kept verbatim in place, keys it does are
/// updated, new keys append. A run of a subset of workloads therefore
/// never drops another run's fields. Flat object, hand-rolled — no serde
/// in the offline dependency graph.
pub fn merge_json(rows: &[ThroughputRow], samples: usize, existing: Option<&str>) -> String {
    let mut updates: Vec<(String, String)> = rows
        .iter()
        .map(|r| {
            (
                format!("{}_cycles_per_sec", r.name),
                format!("{:.1}", r.cycles_per_sec),
            )
        })
        .collect();
    if let Some(x) = idle_speedup(rows) {
        updates.push(("idle_speedup".into(), format!("{x:.2}")));
    }
    if let Some(x) = speedup_of(rows, "linking_workload") {
        updates.push(("linking_speedup".into(), format!("{x:.2}")));
    }
    if let Some(x) = speedup_of(rows, "irq_baseline") {
        updates.push(("irq_speedup".into(), format!("{x:.2}")));
    }
    updates.push(("idle_cycles_per_iter".into(), IDLE_CYCLES.to_string()));
    // Host metadata: numbers in this artifact are only comparable on a
    // similar host, so record the parallelism the run had available and
    // how many timing samples backed each median.
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    updates.push(("host_parallelism".into(), parallelism.to_string()));
    updates.push(("bench_samples".into(), samples.to_string()));
    updates.push(("schema_version".into(), SCHEMA_VERSION.to_string()));

    let mut merged = existing.and_then(parse_flat_object).unwrap_or_default();
    for (key, value) in updates {
        match merged.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => merged.push((key, value)),
        }
    }

    let mut s = String::from("{\n");
    for (i, (key, value)) in merged.iter().enumerate() {
        let sep = if i + 1 < merged.len() { "," } else { "" };
        s.push_str(&format!("  \"{key}\": {value}{sep}\n"));
    }
    s.push_str("}\n");
    s
}

/// [`merge_json`] with no prior contents — fresh serialization.
pub fn to_json(rows: &[ThroughputRow], samples: usize) -> String {
    merge_json(rows, samples, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed() {
        let rows = vec![
            ThroughputRow {
                name: "idle_soc",
                cycles: 10,
                cycles_per_sec: 2e6,
            },
            ThroughputRow {
                name: "idle_soc_naive",
                cycles: 10,
                cycles_per_sec: 5e5,
            },
        ];
        let j = to_json(&rows, 10);
        assert!(j.starts_with('{') && j.ends_with("}\n"));
        assert!(j.contains("\"bench_samples\": 10"));
        assert!(j.contains("\"host_parallelism\": "));
        assert!(j.contains("\"idle_soc_cycles_per_sec\": 2000000.0"));
        assert!(j.contains("\"idle_speedup\": 4.00"));
        // No trailing comma before the closing brace.
        assert!(!j.contains(",\n}"));
    }

    #[test]
    fn speedup_needs_both_rows() {
        assert!(idle_speedup(&[]).is_none());
        assert!(speedup_of(&[], "linking_workload").is_none());
    }

    #[test]
    fn merge_preserves_foreign_keys_and_updates_own() {
        let existing = "{\n  \"someone_elses_metric\": 123.4,\n  \"idle_soc_cycles_per_sec\": 1.0,\n  \"a_string\": \"with, comma\"\n}\n";
        let rows = vec![ThroughputRow {
            name: "idle_soc",
            cycles: 10,
            cycles_per_sec: 2e6,
        }];
        let j = merge_json(&rows, 10, Some(existing));
        // Foreign keys survive verbatim, own keys are updated in place.
        assert!(j.contains("\"someone_elses_metric\": 123.4"));
        assert!(j.contains("\"a_string\": \"with, comma\""));
        assert!(j.contains("\"idle_soc_cycles_per_sec\": 2000000.0"));
        assert!(!j.contains("\"idle_soc_cycles_per_sec\": 1.0"));
        assert!(j.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(!j.contains(",\n}"));
        // The output round-trips through its own parser.
        assert!(parse_flat_object(&j).is_some());
    }

    #[test]
    fn merge_starts_fresh_on_unparseable_existing() {
        let rows = vec![ThroughputRow {
            name: "idle_soc",
            cycles: 10,
            cycles_per_sec: 2e6,
        }];
        for garbage in ["not json", "{ broken", "{\"k\": }"] {
            let j = merge_json(&rows, 10, Some(garbage));
            assert!(j.contains("\"idle_soc_cycles_per_sec\": 2000000.0"));
            assert!(j.ends_with("}\n"));
        }
    }

    #[test]
    fn busy_linking_workload_simulates_identically_to_naive() {
        // The measurement must time the simulation the naive reference
        // path would run: same final cycle, retirement and activity.
        let mut fast = busy_linking_soc();
        let mut naive = busy_linking_soc();
        naive.set_exec_mode(ExecMode::Naive);
        fast.run(2_000);
        naive.run(2_000);
        assert_eq!(fast.cycle(), naive.cycle());
        assert_eq!(fast.cpu().cycles(), naive.cpu().cycles());
        assert_eq!(fast.cpu().retired(), naive.cpu().retired());
        assert!(fast.cpu().retired() > 1_000, "the CPU never sleeps");
        assert_eq!(fast.drain_activity(), naive.drain_activity());
    }

    #[test]
    fn idle_soc_workloads_simulate_identically() {
        // The measurement must time identical simulations: same final
        // cycle on both scheduler paths.
        let mut fast = idle_soc(false);
        let mut naive = idle_soc(true);
        fast.run(500);
        naive.run(500);
        assert_eq!(fast.cycle(), naive.cycle());
        assert_eq!(fast.cpu().cycles(), naive.cpu().cycles());
    }
}
