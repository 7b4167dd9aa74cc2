//! Observational identity of the quiescence-aware peripheral scheduler.
//!
//! The fast scheduler in `pels_soc::Soc` skips ticking peripherals that
//! report themselves idle, replaying the skipped cycles in closed form
//! when a wake condition arrives. These tests prove the optimisation is
//! invisible: for randomized workloads the fast path and the naive
//! tick-everything path (`set_exec_mode(ExecMode::Naive)`) produce the same
//! traces, the same activity image (hence bit-identical power numbers),
//! and the same architectural state. The random stimulus includes SPI
//! transfers of several words, mid-transfer `CLKDIV` changes and µDMA
//! arming (ring mode, out-of-range targets, huge sizes), so the SPI's
//! published word deadline and closed-form catch-up are covered too.
//! Each wake condition — timer deadline, event wire, APB access,
//! injected external event — also gets a dedicated test.

use std::collections::BTreeMap;

use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::{Spi, Timer};
use pels_repro::sim::{ActivityKind, ActivitySet, Rng};
use pels_repro::soc::event_map::{EV_GPIO_RISE, EV_TIMER_CMP};
use pels_repro::soc::mem_map::{apb_reg, GPIO_OFFSET, L2_SIZE, RESET_PC};
use pels_repro::soc::{ExecMode, Soc, SystemDesc};
use pels_repro::{core as pels_core, cpu::asm, periph::Gpio};

/// One externally applied stimulus step, generated once and replayed
/// identically on both SoCs.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Advance `n` cycles.
    Run(u64),
    /// Inject an external event pulse on `line`.
    Inject(u32),
    /// Direct-poke the timer compare register (bus-bypassing test path —
    /// exercises the `periph_mut` wake hole).
    PokeTimerCmp(u32),
    /// Flip the GPIO pad input (edge detector feeds `EV_GPIO_RISE`).
    GpioInput(u32),
    /// Start (or restart) an SPI transfer of this many words.
    SpiCmd(u32),
    /// Set the SPI cycles-per-word divider, possibly mid-word.
    SpiClkdiv(u32),
    /// Arm the SPI µDMA channel: L2 target, size in bytes, ring mode.
    SpiUdma { saddr: u32, bytes: u32, ring: bool },
    /// Drain and compare the activity window.
    Drain,
}

/// Normalizes an [`ActivitySet`] for comparison (drops zero counts — the
/// dense representation may materialize rows the sparse path never
/// touched).
fn activity_image(a: &ActivitySet) -> BTreeMap<(&'static str, ActivityKind), u64> {
    a.iter()
        .filter(|&(_, _, n)| n != 0)
        .map(|(c, k, n)| ((c, k), n))
        .collect()
}

/// Builds the reference workload SoC: PELS link 0 toggles a GPIO pad on
/// every timer compare match, the CPU parks in `wfi` after boot.
fn workload_soc() -> Soc {
    use pels_repro::soc::event_map::AL_GPIO_TOGGLE;
    let mut desc = SystemDesc::default();
    desc.pels.links = 2;
    let mut soc = Soc::from_desc(&desc).unwrap();
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
    soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
    soc.timer_mut().write(Timer::CMP, 16).unwrap();
    soc.timer_mut()
        .write(Timer::CTRL, Timer::CTRL_ENABLE)
        .unwrap();
    soc.spi_mut().write(Spi::CMD, 1).unwrap();
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
        Op::SpiCmd(words) => soc.spi_mut().write(Spi::CMD, words).unwrap(),
        Op::SpiClkdiv(v) => soc.spi_mut().write(Spi::CLKDIV, v).unwrap(),
        Op::SpiUdma { saddr, bytes, ring } => {
            let spi = soc.spi_mut();
            spi.write(Spi::UDMA_SADDR, saddr).unwrap();
            spi.write(Spi::UDMA_CFG, u32::from(ring)).unwrap();
            spi.write(Spi::UDMA_SIZE, bytes).unwrap();
        }
        Op::Drain => {} // handled by the caller so both sides drain together
    }
}

/// L2 regions the random µDMA arming writes to: `(base, bytes)`.
const UDMA_WINDOWS: [(u32, u32); 2] = [(0x4000, 64), (L2_SIZE - 16, 16)];

/// A random µDMA arming: in L2, straddling its end or far outside it,
/// with a small or a huge (saturating) size.
fn random_udma(rng: &mut Rng) -> Op {
    Op::SpiUdma {
        saddr: [0x4000, L2_SIZE - 8, 0x7FFF_0000][rng.index(3)],
        bytes: if rng.index(8) == 0 {
            u32::MAX - 2
        } else {
            rng.range_u64(1, 48) as u32
        },
        ring: rng.index(2) == 0,
    }
}

/// Asserts every observable of the two SoCs matches.
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
    assert_eq!(
        fast.gpio().pad_toggles(),
        naive.gpio().pad_toggles(),
        "{ctx}: pad toggles"
    );
    assert_eq!(fast.spi().is_busy(), naive.spi().is_busy(), "{ctx}: spi busy");
    assert_eq!(fast.spi().words_done(), naive.spi().words_done(), "{ctx}: spi words");
    assert_eq!(fast.spi().last_word(), naive.spi().last_word(), "{ctx}: spi last word");
    assert_eq!(fast.spi().rx_level(), naive.spi().rx_level(), "{ctx}: spi rx level");
    for addr in UDMA_WINDOWS.iter().flat_map(|&(base, len)| (base..base + len).step_by(4)) {
        assert_eq!(
            fast.l2().peek_word(addr),
            naive.l2().peek_word(addr),
            "{ctx}: L2 word {addr:#x} (µDMA window)"
        );
    }
    assert_eq!(fast.cpu().cycles(), naive.cpu().cycles(), "{ctx}: cpu cycles");
    assert_eq!(fast.cpu().pc(), naive.cpu().pc(), "{ctx}: cpu pc");
}

/// The differential property: random stimulus schedules observe no
/// difference between the fast and naive schedulers — traces, activity
/// (power input) and architectural state are all identical. A clone of
/// the fast SoC taken at a random operation (sleepers, pending bus
/// traffic and undrained activity included) continues identically too.
#[test]
fn fast_scheduler_is_observationally_identical_to_naive() {
    let mut rng = Rng::seed_from_u64(0x5C4E_D001);
    // A separate stream picks the fork points, so the stimulus stays the
    // same as without them.
    let mut fork_rng = Rng::seed_from_u64(0x5C4E_D002);
    for case in 0..24 {
        let ops: Vec<Op> = (0..rng.range_u64(4, 20))
            .map(|_| match rng.index(11) {
                0..=2 => Op::Run(rng.range_u64(1, 120)),
                3 => Op::Run(rng.range_u64(200, 2_000)),
                4 => Op::Inject([EV_TIMER_CMP, EV_GPIO_RISE, 9][rng.index(3)]),
                5 => Op::PokeTimerCmp(rng.range_u64(1, 64) as u32),
                6 => Op::GpioInput(rng.next_u32() & 0xF),
                7 => Op::SpiCmd(rng.range_u64(1, 5) as u32),
                8 => Op::SpiClkdiv(rng.range_u64(1, 13) as u32),
                9 => random_udma(&mut rng),
                _ => Op::Drain,
            })
            .collect();
        let fork = fork_rng.index(ops.len());
        let mut fast = workload_soc();
        let mut naive = workload_soc();
        naive.set_exec_mode(ExecMode::Naive);
        let mut clone = None;
        for (i, &op) in ops.iter().enumerate() {
            if i == fork {
                clone = Some(fast.clone());
            }
            if let Op::Drain = op {
                let an = activity_image(&naive.drain_activity());
                for soc in std::iter::once(&mut fast).chain(clone.as_mut()) {
                    let a = activity_image(&soc.drain_activity());
                    assert_eq!(a, an, "case {case} op {i}: activity windows diverge");
                }
            } else {
                for soc in [&mut fast, &mut naive].into_iter().chain(clone.as_mut()) {
                    apply(soc, op);
                }
            }
            let ctx = format!("case {case} op {i} ({op:?})");
            assert_identical(&fast, &naive, &ctx);
            if let Some(clone) = &clone {
                assert_identical(clone, &naive, &format!("{ctx}, clone from op {fork}"));
            }
        }
        let an = activity_image(&naive.drain_activity());
        for soc in std::iter::once(&mut fast).chain(clone.as_mut()) {
            let a = activity_image(&soc.drain_activity());
            assert_eq!(a, an, "case {case}: final activity (power input) diverges");
        }
    }
}

/// Wake condition 1 — deadline: a sleeping timer still fires its compare
/// match at exactly the right cycle, with no CPU or bus traffic to wake
/// it early.
#[test]
fn timer_deadline_wakes_sleeping_timer() {
    let desc = SystemDesc {
        timer_starts_spi: false,
        ..SystemDesc::default()
    };
    let mut fast = Soc::from_desc(&desc).unwrap();
    let mut naive = Soc::from_desc(&desc).unwrap();
    naive.set_exec_mode(ExecMode::Naive);
    for soc in [&mut fast, &mut naive] {
        soc.timer_mut().write(Timer::CMP, 40).unwrap();
        soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
        soc.run(200);
    }
    assert!(fast.timer().fires() >= 4, "timer kept firing while asleep");
    assert_eq!(fast.timer().fires(), naive.timer().fires());
    assert_eq!(fast.timer().value(), naive.timer().value());
    assert_eq!(fast.trace().entries(), naive.trace().entries());
}

/// Wake condition 2 — event wire: the timer's compare pulse lands in the
/// sleeping SPI's wake mask (its start-action line) and starts a
/// transfer on schedule.
#[test]
fn event_wire_wakes_sleeping_spi() {
    // timer_starts_spi default: wired
    let mut fast = Soc::from_desc(&SystemDesc::default()).unwrap();
    let mut naive = Soc::from_desc(&SystemDesc::default()).unwrap();
    naive.set_exec_mode(ExecMode::Naive);
    for soc in [&mut fast, &mut naive] {
        soc.spi_mut().write(Spi::CMD, 1).unwrap(); // arm last_len
        soc.run(30); // long idle stretch puts the SPI to sleep
        soc.timer_mut().write(Timer::CMP, 10).unwrap();
        soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
        soc.run(40);
    }
    assert!(
        fast.trace().first("spi", "eot").is_some(),
        "wire-woken SPI completed a transfer"
    );
    assert_eq!(fast.trace().entries(), naive.trace().entries());
}

/// Wake condition 3 — APB access: a CPU store to a sleeping peripheral's
/// register wakes it (and replays its skipped cycles) before the write
/// lands.
#[test]
fn apb_access_wakes_sleeping_peripheral() {
    let mut fast = Soc::from_desc(&SystemDesc::default()).unwrap();
    let mut naive = Soc::from_desc(&SystemDesc::default()).unwrap();
    naive.set_exec_mode(ExecMode::Naive);
    for soc in [&mut fast, &mut naive] {
        let mut p = vec![];
        // Delay loop (~120 cycles) so the GPIO is long asleep, then store.
        p.extend(asm::li32(5, 40));
        p.push(asm::addi(5, 5, -1));
        p.push(asm::bne(5, 0, -4));
        p.extend(asm::li32(1, apb_reg(GPIO_OFFSET, Gpio::PADOUTSET)));
        p.extend(asm::li32(2, 0x3C));
        p.push(asm::sw(1, 2, 0));
        p.push(asm::wfi());
        soc.load_program(RESET_PC, &p);
        soc.run(400);
    }
    assert_eq!(fast.gpio().out(), 0x3C, "store reached the sleeping GPIO");
    assert_eq!(fast.gpio().out(), naive.gpio().out());
    assert_eq!(fast.trace().entries(), naive.trace().entries());
}

/// Wake condition 4 — injected external event: a pad-level pulse on a
/// line in a sleeping peripheral's wake mask starts it.
#[test]
fn injected_event_wakes_sleeping_peripheral() {
    let mut fast = Soc::from_desc(&SystemDesc::default()).unwrap();
    let mut naive = Soc::from_desc(&SystemDesc::default()).unwrap();
    naive.set_exec_mode(ExecMode::Naive);
    for soc in [&mut fast, &mut naive] {
        soc.spi_mut().write(Spi::CMD, 1).unwrap();
        soc.run(50); // everything asleep
        soc.inject_event(EV_TIMER_CMP); // SPI's start line, from outside
        soc.run(30);
    }
    assert!(
        fast.trace().first("spi", "eot").is_some(),
        "injected pulse started the sleeping SPI"
    );
    assert_eq!(fast.trace().entries(), naive.trace().entries());
    let af = activity_image(&fast.drain_activity());
    let an = activity_image(&naive.drain_activity());
    assert_eq!(af, an, "activity (power input) identical");
}

/// The trace values of every `udma_err` entry (dropped µDMA words).
fn udma_errors(soc: &Soc) -> Vec<u64> {
    soc.trace()
        .entries()
        .iter()
        .filter(|e| e.label == "udma_err")
        .map(|e| e.value)
        .collect()
}

/// A µDMA target outside L2 — firmware-writable through `UDMA_SADDR` —
/// drops each word with one `udma_err` trace entry instead of aborting
/// the simulation, and the transfer still completes on schedule.
#[test]
fn out_of_range_udma_target_drops_words_identically() {
    let desc = SystemDesc {
        timer_starts_spi: false,
        ..SystemDesc::default()
    };
    let mut fast = Soc::from_desc(&desc).unwrap();
    let mut naive = Soc::from_desc(&desc).unwrap();
    naive.set_exec_mode(ExecMode::Naive);
    for soc in [&mut fast, &mut naive] {
        let spi = soc.spi_mut();
        spi.write(Spi::UDMA_SADDR, 0x7FFF_0000).unwrap();
        spi.write(Spi::UDMA_SIZE, 8).unwrap();
        spi.write(Spi::CMD, 2).unwrap();
        soc.run(100);
    }
    assert_eq!(udma_errors(&fast), [0x7FFF_0000, 0x7FFF_0004]);
    assert!(fast.trace().first("spi", "eot").is_some());
    assert_identical(&fast, &naive, "out-of-range µDMA");
    let af = activity_image(&fast.drain_activity());
    let an = activity_image(&naive.drain_activity());
    assert_eq!(af, an, "activity (power input) identical");
}

/// A huge `UDMA_SIZE` saturates at the largest whole-word size instead
/// of overflowing (or wrapping to an unarmed channel): the words land in
/// L2.
#[test]
fn huge_udma_size_arms_the_channel_identically() {
    let desc = SystemDesc {
        timer_starts_spi: false,
        ..SystemDesc::default()
    };
    let mut fast = Soc::from_desc(&desc).unwrap();
    let mut naive = Soc::from_desc(&desc).unwrap();
    naive.set_exec_mode(ExecMode::Naive);
    for soc in [&mut fast, &mut naive] {
        let spi = soc.spi_mut();
        spi.write(Spi::UDMA_SADDR, 0x4000).unwrap();
        spi.write(Spi::UDMA_SIZE, u32::MAX - 2).unwrap();
        spi.write(Spi::CMD, 3).unwrap();
        soc.run(100);
    }
    assert_eq!(fast.spi().words_done(), 3);
    assert_eq!(fast.spi().rx_level(), 0, "words went to L2, not the FIFO");
    assert_eq!(fast.l2().peek_word(0x4008), fast.spi().last_word());
    assert!(udma_errors(&fast).is_empty());
    assert_identical(&fast, &naive, "huge µDMA size");
}

/// Mid-sleep observation: `&self` accessors must always see current
/// architectural state, even while the peripheral is being skipped.
#[test]
fn sleeping_timer_is_observable_between_runs() {
    let mut soc = Soc::from_desc(&SystemDesc {
        timer_starts_spi: false,
        ..SystemDesc::default()
    })
    .unwrap();
    soc.timer_mut().write(Timer::CMP, 1_000_000).unwrap();
    soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
    let mut last = 0;
    for _ in 0..10 {
        soc.run(37);
        let v = soc.timer().value();
        assert_eq!(
            u64::from(v),
            u64::from(last) + 37,
            "timer counts every skipped cycle"
        );
        last = v;
    }
}

/// `run_until` predicates observe synced state: waiting on a timer value
/// works even though the timer sleeps between predicate calls.
#[test]
fn run_until_sees_synced_peripheral_state() {
    let mut soc = Soc::from_desc(&SystemDesc {
        timer_starts_spi: false,
        ..SystemDesc::default()
    })
    .unwrap();
    soc.timer_mut().write(Timer::CMP, 1_000_000).unwrap();
    soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
    let reached = soc.run_until(10_000, |s| s.timer().value() >= 123);
    assert!(reached);
    assert_eq!(soc.timer().value(), 123);
}
