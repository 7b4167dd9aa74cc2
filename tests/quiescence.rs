//! Observational identity of the quiescence-aware peripheral scheduler.
//!
//! The fast scheduler in `pels_soc::Soc` skips ticking peripherals that
//! report themselves idle, replaying the skipped cycles in closed form
//! when a wake condition arrives. These tests prove the optimisation is
//! invisible: for randomized workloads the fast path and the naive
//! tick-everything path (`set_exec_mode(ExecMode::Naive)`) stay equal as
//! whole SoCs (`Soc`'s `PartialEq`: CPU, PELS, every peripheral, fabric,
//! L2, trace and activity image, hence bit-identical power numbers)
//! after every step. One random stream includes SPI transfers of several
//! words, mid-transfer `CLKDIV` changes and µDMA arming (ring mode,
//! out-of-range targets, huge sizes), so the SPI's published word
//! deadline and closed-form catch-up are covered; a second one starts ADC
//! conversions, arms and kicks the watchdog, and drives the UART and I2C,
//! so the ADC's and watchdog's closed-form catch-ups run against the
//! naive path too. A third one has PELS read and write those peripherals
//! over the bus while they count asleep, so bus accesses served in place
//! replay live catch-ups. Each wake condition — timer deadline, event
//! wire, APB access, injected external event — also gets a dedicated
//! test.

mod common;

use common::Lockstep;
use pels_repro::core::{Command, Program};
use pels_repro::cpu::asm;
use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::{Adc, Gpio, I2c, Spi, Timer, Uart, Watchdog};
use pels_repro::sim::{EventVector, Rng};
use pels_repro::soc::event_map::{
    AL_ADC_START, AL_I2C_START, AL_WDT_KICK, EV_GPIO_RISE, EV_TIMER_CMP,
};
use pels_repro::soc::mem_map::{
    apb_reg, pels_word_offset, ADC_OFFSET, APB_BASE, GPIO_OFFSET, L2_SIZE, RESET_PC, SPI_OFFSET,
    TIMER_OFFSET, WDT_OFFSET,
};
use pels_repro::soc::{Soc, SystemDesc};

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
    /// Start an ADC conversion.
    AdcStart,
    /// Load the watchdog and switch it on or off.
    Wdt { load: u32, enable: bool },
    /// Reload the watchdog counter.
    WdtKick,
    /// Queue one byte for UART transmission.
    UartTx(u8),
    /// Start an I2C transfer (`CMD` word: address, byte count, read flag).
    I2cCmd(u32),
    /// Drain and compare the activity window.
    Drain,
}

/// The reference workload: the CPU parks in `wfi` after boot, so whole-SoC
/// skips apply between events.
fn workload_soc() -> Soc {
    common::toggle_workload(&[asm::wfi(), asm::jal(0, -4)], 16)
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
        Op::AdcStart => soc.adc_mut().write(Adc::CTRL, 1).unwrap(),
        Op::Wdt { load, enable } => {
            let wdt = soc.wdt_mut();
            wdt.write(Watchdog::LOAD, load).unwrap();
            wdt.write(Watchdog::CTRL, u32::from(enable)).unwrap();
        }
        Op::WdtKick => soc.wdt_mut().write(Watchdog::KICK, 0).unwrap(),
        // A full TX FIFO refuses the byte, identically on both paths.
        Op::UartTx(byte) => {
            let _ = soc.uart_mut().write(Uart::TXDATA, u32::from(byte));
        }
        Op::I2cCmd(cmd) => soc.i2c_mut().write(I2c::CMD, cmd).unwrap(),
        Op::Drain => {} // `run_case` drains both sides together
    }
}

/// Replays `ops` on `soc` and its naive reference, comparing the whole
/// SoCs after every op. From op `fork` on, a clone of both (sleepers,
/// pending bus traffic and undrained activity included) replays the rest
/// too and must stay equal in the same way.
fn run_case(case: &str, soc: Soc, ops: &[Op], fork: usize) {
    let mut main = Lockstep::new(soc);
    let mut forked = None;
    for (i, &op) in ops.iter().enumerate() {
        if i == fork {
            forked = Some(main.clone());
        }
        let fork_side = forked.as_mut().map(|f| (f, ", clone"));
        for (pair, side) in std::iter::once((&mut main, "")).chain(fork_side) {
            let ctx = format!("{case} op {i} ({op:?}){side}");
            match op {
                Op::Drain => pair.drain(&ctx),
                _ => pair.apply(&ctx, |soc| apply(soc, op)),
            }
        }
    }
    main.drain(&format!("{case}: final window"));
    if let Some(mut clone) = forked {
        clone.drain(&format!("{case}: final window, clone from op {fork}"));
    }
}

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

/// The differential property: random stimulus schedules observe no
/// difference between the fast and naive schedulers — traces, activity
/// (power input) and architectural state are all identical. A clone of
/// the SoCs taken at a random operation (sleepers, pending bus traffic
/// and undrained activity included) continues identically too.
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
        run_case(&format!("case {case}"), workload_soc(), &ops, fork);
    }
}

/// The second stream drives the peripherals the first leaves alone: ADC
/// conversions (started by register or by their PELS action line) and
/// the watchdog (armed, kicked, switched off, biting) sleep on published
/// deadlines and catch up in closed form; UART bytes and I2C transfers
/// (to the attached sensor or to an absent address) keep them busy.
#[test]
fn adc_watchdog_uart_and_i2c_are_identical_to_naive() {
    let mut rng = Rng::seed_from_u64(0xADC0_3D06);
    let mut fork_rng = Rng::seed_from_u64(0xADC0_3D07);
    for case in 0..24 {
        let ops: Vec<Op> = (0..rng.range_u64(4, 20))
            .map(|_| match rng.index(10) {
                0..=1 => Op::Run(rng.range_u64(1, 120)),
                2 => Op::Run(rng.range_u64(200, 2_000)),
                3 => Op::AdcStart,
                4 => Op::Wdt {
                    load: rng.range_u64(0, 300) as u32,
                    enable: rng.index(4) != 0,
                },
                5 => Op::WdtKick,
                6 => Op::Inject([AL_ADC_START, AL_WDT_KICK, AL_I2C_START][rng.index(3)]),
                7 => Op::UartTx(rng.next_u32() as u8),
                8 => Op::I2cCmd(
                    [0x48, 0x49][rng.index(2)]
                        | (rng.range_u64(1, 4) as u32) << 8
                        | [0, I2c::CMD_READ][rng.index(2)],
                ),
                _ => Op::Drain,
            })
            .collect();
        let fork = fork_rng.index(ops.len());
        run_case(&format!("case {case}"), workload_soc(), &ops, fork);
    }
}

/// The line that fires PELS link 1 in the third stream: no peripheral
/// drives it, so only `Op::Inject` does.
const LINK1_TRIGGER: u32 = 9;

/// A random command for PELS link 1: a `Capture` of a register that
/// moves while its peripheral counts asleep, a `Write` to the timer
/// compare or the watchdog kick, or a short `Wait` that spreads the
/// accesses over the sleepers' spans.
fn random_bus_command(rng: &mut Rng) -> Command {
    let capture = |slot, reg| Command::Capture {
        offset: pels_word_offset(slot, reg),
        mask: u32::MAX,
    };
    match rng.index(7) {
        0 => capture(TIMER_OFFSET, Timer::VALUE),
        1 => capture(WDT_OFFSET, Watchdog::VALUE),
        2 => capture(ADC_OFFSET, Adc::STATUS),
        3 => capture(SPI_OFFSET, Spi::STATUS),
        4 => Command::Write {
            offset: pels_word_offset(TIMER_OFFSET, Timer::CMP),
            value: rng.range_u64(1, 3_000) as u32,
        },
        5 => Command::Write {
            offset: pels_word_offset(WDT_OFFSET, Watchdog::KICK),
            value: 0,
        },
        _ => Command::Wait {
            cycles: rng.range_u64(1, 40) as u32,
        },
    }
}

/// The third stream has a bus master reach sleepers whose catch-up is
/// live: PELS link 1 runs random reads and writes of the timer, the
/// watchdog, the ADC and the SPI each time `LINK1_TRIGGER` is injected,
/// while other ops start those peripherals counting. Each access is
/// served in place, so it must replay the sleeper's span exactly
/// through the access cycle.
#[test]
fn pels_bus_accesses_to_counting_sleepers_are_identical_to_naive() {
    let mut rng = Rng::seed_from_u64(0x000B_05AC_CE55);
    let mut fork_rng = Rng::seed_from_u64(0x000B_05AC_CE56);
    for case in 0..24 {
        // Two commands, repeated a few times (the link's SCM holds four).
        let commands = vec![
            random_bus_command(&mut rng),
            random_bus_command(&mut rng),
            Command::Loop {
                target: 0,
                count: rng.range_u64(0, 4) as u32,
            },
            Command::Halt,
        ];
        let mut soc = workload_soc();
        let link = soc.pels_mut().link_mut(1);
        link.set_mask(EventVector::mask_of(&[LINK1_TRIGGER]))
            .set_base(APB_BASE);
        link.load_program(&Program::new(commands).expect("valid"))
            .expect("fits");
        let ops: Vec<Op> = (0..rng.range_u64(4, 20))
            .map(|_| match rng.index(10) {
                0..=1 => Op::Run(rng.range_u64(1, 120)),
                2 => Op::Run(rng.range_u64(200, 2_000)),
                3..=4 => Op::Inject(LINK1_TRIGGER),
                5 => Op::Wdt {
                    load: rng.range_u64(20, 400) as u32,
                    enable: rng.index(4) != 0,
                },
                6 => Op::AdcStart,
                7 => Op::SpiCmd(rng.range_u64(1, 5) as u32),
                8 => Op::PokeTimerCmp(rng.range_u64(20, 2_000) as u32),
                _ => Op::Drain,
            })
            .collect();
        let fork = fork_rng.index(ops.len());
        run_case(&format!("case {case}"), soc, &ops, fork);
    }
}

/// The default SoC without the timer-compare → SPI-start wire.
fn unwired_soc() -> Soc {
    let desc = SystemDesc {
        timer_starts_spi: false,
        ..SystemDesc::default()
    };
    Soc::from_desc(&desc).unwrap()
}

/// Wake condition 1 — deadline: a sleeping timer still fires its compare
/// match at exactly the right cycle, with no CPU or bus traffic to wake
/// it early.
#[test]
fn timer_deadline_wakes_sleeping_timer() {
    let mut pair = Lockstep::new(unwired_soc());
    pair.apply("arm the timer", |soc| {
        soc.timer_mut().write(Timer::CMP, 40).unwrap();
        soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
    });
    pair.apply("run", |soc| soc.run(200));
    assert!(pair.fast.timer().fires() >= 4, "timer kept firing while asleep");
}

/// Wake condition 2 — event wire: the timer's compare pulse lands in the
/// sleeping SPI's wake mask (its start-action line) and starts a
/// transfer on schedule.
#[test]
fn event_wire_wakes_sleeping_spi() {
    // timer_starts_spi default: wired
    let mut pair = Lockstep::new(Soc::from_desc(&SystemDesc::default()).unwrap());
    pair.apply("arm last_len", |soc| soc.spi_mut().write(Spi::CMD, 1).unwrap());
    pair.apply("idle", |soc| soc.run(30)); // long idle stretch puts the SPI to sleep
    pair.apply("arm the timer", |soc| {
        soc.timer_mut().write(Timer::CMP, 10).unwrap();
        soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
    });
    pair.apply("run", |soc| soc.run(40));
    assert!(
        pair.fast.trace().first("spi", "eot").is_some(),
        "wire-woken SPI completed a transfer"
    );
}

/// Wake condition 3 — APB access: a CPU store to a sleeping peripheral's
/// register wakes it (and replays its skipped cycles) before the write
/// lands.
#[test]
fn apb_access_wakes_sleeping_peripheral() {
    let mut soc = Soc::from_desc(&SystemDesc::default()).unwrap();
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
    let mut pair = Lockstep::new(soc);
    pair.apply("run", |soc| soc.run(400));
    assert_eq!(pair.fast.gpio().out(), 0x3C, "store reached the sleeping GPIO");
}

/// Wake condition 4 — injected external event: a pad-level pulse on a
/// line in a sleeping peripheral's wake mask starts it.
#[test]
fn injected_event_wakes_sleeping_peripheral() {
    let mut pair = Lockstep::new(Soc::from_desc(&SystemDesc::default()).unwrap());
    pair.apply("arm last_len", |soc| soc.spi_mut().write(Spi::CMD, 1).unwrap());
    pair.apply("idle", |soc| soc.run(50)); // everything asleep
    // The SPI's start line, from outside.
    pair.apply("inject", |soc| soc.inject_event(EV_TIMER_CMP));
    pair.apply("run", |soc| soc.run(30));
    assert!(
        pair.fast.trace().first("spi", "eot").is_some(),
        "injected pulse started the sleeping SPI"
    );
    pair.drain("activity (power input)");
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
    let mut pair = Lockstep::new(unwired_soc());
    pair.apply("arm", |soc| {
        let spi = soc.spi_mut();
        spi.write(Spi::UDMA_SADDR, 0x7FFF_0000).unwrap();
        spi.write(Spi::UDMA_SIZE, 8).unwrap();
        spi.write(Spi::CMD, 2).unwrap();
    });
    pair.apply("run", |soc| soc.run(100));
    assert_eq!(udma_errors(&pair.fast), [0x7FFF_0000, 0x7FFF_0004]);
    assert!(pair.fast.trace().first("spi", "eot").is_some());
    pair.drain("activity (power input)");
}

/// A huge `UDMA_SIZE` saturates at the largest whole-word size instead
/// of overflowing (or wrapping to an unarmed channel): the words land in
/// L2.
#[test]
fn huge_udma_size_arms_the_channel_identically() {
    let mut pair = Lockstep::new(unwired_soc());
    pair.apply("arm", |soc| {
        let spi = soc.spi_mut();
        spi.write(Spi::UDMA_SADDR, 0x4000).unwrap();
        spi.write(Spi::UDMA_SIZE, u32::MAX - 2).unwrap();
        spi.write(Spi::CMD, 3).unwrap();
    });
    pair.apply("run", |soc| soc.run(100));
    let fast = &pair.fast;
    assert_eq!(fast.spi().words_done(), 3);
    assert_eq!(fast.spi().rx_level(), 0, "words went to L2, not the FIFO");
    assert_eq!(fast.l2().peek_word(0x4008), fast.spi().last_word());
    assert!(udma_errors(fast).is_empty());
}

/// Mid-sleep observation: `&self` accessors must always see current
/// architectural state, even while the peripheral is being skipped.
#[test]
fn sleeping_timer_is_observable_between_runs() {
    let mut soc = unwired_soc();
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
    let mut soc = unwired_soc();
    soc.timer_mut().write(Timer::CMP, 1_000_000).unwrap();
    soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
    let reached = soc.run_until(10_000, |s| s.timer().value() >= 123);
    assert!(reached);
    assert_eq!(soc.timer().value(), 123);
}
