//! Cross-crate integration tests: the full SoC driven end-to-end,
//! including the path the scenarios shortcut — the CPU configuring PELS
//! entirely over the bus.

use pels_repro::core::{encode_command, regs, ActionMode, Command, Cond};
use pels_repro::cpu::asm;
use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::{Gpio, Spi, Timer};
use pels_repro::sim::EventVector;
use pels_repro::soc::mem_map::{
    apb_reg, pels_word_offset, APB_BASE, GPIO_OFFSET, PELS_BASE, RESET_PC, TIMER_OFFSET,
};
use pels_repro::soc::{Mediator, Scenario, ScenarioDesc, SensorKind, Soc, SystemDesc};

/// Helper: emit `sw value -> addr` using scratch registers x28/x29.
fn store_imm(program: &mut Vec<u32>, addr: u32, value: u32) {
    program.extend(asm::li32(28, addr));
    program.extend(asm::li32(29, value));
    program.push(asm::sw(28, 29, 0));
}

/// The full firmware flow of a real deployment: the core boots, programs
/// PELS's mask/base/microcode **through the memory-mapped config port**,
/// arms the timer **through the APB fabric**, and goes to sleep; from
/// then on the linking runs without it.
#[test]
fn cpu_configures_and_launches_autonomous_linking_over_the_bus() {
    let mut soc = Soc::from_desc(&SystemDesc {
        sensor: SensorKind::Constant(2.5),
        ..SystemDesc::default()
    })
    .unwrap();
    soc.spi_mut().set_default_len(1);

    let link0 = PELS_BASE + regs::LINK0;
    let mut p = Vec::new();
    // Link 0: listen to SPI end-of-transfer (line 0).
    store_imm(&mut p, link0 + regs::LINK_MASK_LO, 1 << 0);
    // Base address for sequenced offsets.
    store_imm(&mut p, link0 + regs::LINK_BASE, APB_BASE);
    // Microcode through the SCM window: toggle GPIO PADOUT, halt.
    let toggle = encode_command(&Command::Toggle {
        offset: pels_word_offset(GPIO_OFFSET, Gpio::PADOUT),
        mask: 1,
    })
    .unwrap();
    let halt = encode_command(&Command::Halt).unwrap();
    for (i, raw) in [toggle, halt].into_iter().enumerate() {
        let base = link0 + regs::SCM_WINDOW + 8 * i as u32;
        store_imm(&mut p, base, raw as u32);
        store_imm(&mut p, base + 4, (raw >> 32) as u32);
    }
    // Arm the timer over the APB fabric: CMP = 60, enable.
    store_imm(&mut p, apb_reg(TIMER_OFFSET, Timer::CMP), 60);
    store_imm(&mut p, apb_reg(TIMER_OFFSET, Timer::CTRL), 1);
    // Sleep forever.
    p.push(asm::wfi());
    p.push(asm::jal(0, -4));
    soc.load_program(RESET_PC, &p);

    soc.trace_mut().enable_entries();
    soc.run(1_500);

    assert!(soc.cpu().is_sleeping(), "boot finished and the core slept");
    let toggles = soc.gpio().pad_toggles();
    assert!(
        toggles >= 2,
        "autonomous linking actuated repeatedly ({toggles} toggles)"
    );
    // The whole linking loop ran with the core asleep.
    let events = soc.trace().all("spi", "eot").len();
    assert!(events >= 2, "periodic readouts happened ({events})");
}

#[test]
fn sequenced_latency_survives_cpu_bus_traffic() {
    // A polling CPU hammers the bus while PELS handles linking events:
    // round-robin arbitration keeps PELS serviced (latency bounded), even
    // though it may occasionally wait a transfer slot.
    let mut soc = Soc::from_desc(&SystemDesc {
        sensor: SensorKind::Constant(2.5),
        ..SystemDesc::default()
    })
    .unwrap();
    soc.spi_mut().set_default_len(1);
    {
        let link = soc.pels_mut().link_mut(0);
        link.set_mask(EventVector::mask_of(&[0])).set_base(APB_BASE);
        link.load_program(
            &pels_repro::core::Program::new(vec![
                Command::Toggle {
                    offset: pels_word_offset(GPIO_OFFSET, Gpio::PADOUT),
                    mask: 1,
                },
                Command::Halt,
            ])
            .unwrap(),
        )
        .unwrap();
    }
    // CPU: endless loads from the UART status register.
    let mut p = Vec::new();
    p.extend(asm::li32(5, apb_reg(4 * 0x400, 0x04))); // UART STATUS
    p.push(asm::lw(6, 5, 0));
    p.push(asm::jal(0, -4));
    soc.load_program(RESET_PC, &p);
    soc.timer_mut().write(Timer::CMP, 60).unwrap();
    soc.timer_mut().write(Timer::CTRL, 1).unwrap();

    soc.trace_mut().enable_entries();
    soc.run(2_000);

    let lats: Vec<u64> = soc
        .trace()
        .latencies_and_count(("spi", "eot"), ("gpio", "padout"))
        .0
        .iter()
        .map(|t| t.as_ps() / soc.frequency().period_ps())
        .collect();
    assert!(lats.len() >= 10, "events kept completing under contention");
    assert!(*lats.iter().min().unwrap() >= 7, "never faster than uncontended");
    assert!(
        *lats.iter().max().unwrap() <= 7 + 8,
        "round-robin bounds the added wait (got {:?})",
        lats.iter().max()
    );
}

#[test]
fn all_three_mediators_give_identical_functional_behaviour() {
    // Same workload, three mediators: every one must toggle the GPIO once
    // per above-threshold readout — only timing and power differ.
    let mut counts = Vec::new();
    for mediator in [
        Mediator::PelsSequenced,
        Mediator::PelsInstant,
        Mediator::IbexIrq,
    ] {
        let s = Scenario::from_desc(ScenarioDesc {
            mediator,
            events: 6,
            ..ScenarioDesc::default()
        })
        .expect("valid scenario");
        let report = s.run();
        counts.push(report.events_completed.min(8));
        assert!(report.events_completed >= 6, "{mediator} completed events");
    }
    assert!(counts.iter().all(|&c| c >= 6));
}

#[test]
fn trigger_condition_all_links_two_peripherals() {
    // AND-condition: the link fires only when the timer compare AND the
    // SPI end-of-transfer pulse in the same cycle — which never happens
    // here (EOT trails the compare by a full transfer), so OR fires and
    // AND stays quiet. Verifies condition plumbing end-to-end.
    for (cond, expect_fire) in [
        (pels_repro::core::TriggerCond::Any, true),
        (pels_repro::core::TriggerCond::All, false),
    ] {
        let mut soc = Soc::from_desc(&SystemDesc {
            sensor: SensorKind::Constant(2.5),
            ..SystemDesc::default()
        })
        .unwrap();
        soc.spi_mut().set_default_len(1);
        {
            let link = soc.pels_mut().link_mut(0);
            link.set_mask(EventVector::mask_of(&[0, 2]))
                .set_condition(cond)
                .set_base(APB_BASE);
            link.load_program(
                &pels_repro::core::Program::new(vec![
                    Command::Action {
                        mode: ActionMode::Pulse,
                        group: 0,
                        mask: 1 << 20,
                    },
                    Command::Halt,
                ])
                .unwrap(),
            )
            .unwrap();
        }
        soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
        soc.timer_mut().write(Timer::CMP, 50).unwrap();
        soc.timer_mut().write(Timer::CTRL, 1).unwrap();
        soc.trace_mut().enable_entries();
        soc.run(500);
        let fired = soc.trace().first("pels.link0", "action").is_some();
        assert_eq!(fired, expect_fire, "condition {cond:?}");
    }
}

#[test]
fn capture_jump_if_paths_agree_with_cpu_computation() {
    // PELS's threshold decision must match what the CPU would compute on
    // the same sample: run the ramp until the crossing and compare the
    // first-actuation sample against the configured threshold.
    // `obs` keeps the trace entries read below.
    let mut desc = ScenarioDesc {
        events: 40,
        obs: true,
        ..ScenarioDesc::default()
    };
    desc.system.sensor = SensorKind::Ramp {
        start: 1.0,
        slope_per_us: 0.02,
    };
    let s = Scenario::from_desc(desc).expect("valid scenario");
    let report = s.run();
    let threshold = s.threshold_code();
    // The capture trace carries the masked sample for each trigger.
    let captures: Vec<u64> = report
        .trace
        .all("pels.link0", "capture")
        .iter()
        .map(|e| e.value)
        .collect();
    assert!(!captures.is_empty());
    let padouts = report.trace.all("gpio", "padout").len();
    let above = captures
        .iter()
        .filter(|&&v| v >= u64::from(threshold))
        .count();
    assert_eq!(
        padouts, above,
        "actuations must equal above-threshold samples"
    );
    // And the ramp means the early samples were below threshold.
    assert!(above < captures.len(), "ramp started below the threshold");
}

#[test]
fn instant_and_sequenced_flavours_toggle_the_same_pad() {
    // The two Figure 3 flavours must produce identical pad behaviour.
    let run = |mediator| {
        let s = Scenario::from_desc(ScenarioDesc {
            mediator,
            events: 5,
            obs: true,
            ..ScenarioDesc::default()
        })
        .expect("valid scenario");
        let r = s.run();
        r.trace.all("gpio", "padout").len()
    };
    let sequenced = run(Mediator::PelsSequenced);
    let instant = run(Mediator::PelsInstant);
    // The runs stop at their respective completion markers (pad change vs
    // action pulse), so the instant run may cut off one cycle before its
    // final pad change lands.
    assert!(sequenced >= 5 && instant >= 4);
    assert!(
        sequenced.abs_diff(instant) <= 1,
        "same pad behaviour: {sequenced} vs {instant}"
    );
}

#[test]
fn spi_udma_and_cpu_share_l2_coherently() {
    // µDMA lands samples at 0x4000 while the CPU reads them back: the
    // single L2 model guarantees coherence; this checks the plumbing.
    let mut soc = Soc::from_desc(&SystemDesc {
        sensor: SensorKind::Constant(3.3),
        ..SystemDesc::default()
    })
    .unwrap();
    soc.spi_mut().set_default_len(2);
    soc.spi_mut().write(Spi::UDMA_SADDR, 0x4000).unwrap();
    soc.spi_mut().write(Spi::UDMA_SIZE, 8).unwrap();
    let mut p = Vec::new();
    // Busy-wait then read the landed word into x5.
    p.extend(asm::li32(5, 0x1C00_4000));
    p.push(asm::lw(6, 5, 0));
    p.push(asm::beq(6, 0, -4)); // loop until non-zero
    p.push(asm::ecall());
    soc.load_program(RESET_PC, &p);
    soc.timer_mut().write(Timer::CMP, 30).unwrap();
    soc.timer_mut().write(Timer::CTRL, 1).unwrap();
    soc.run(400);
    assert_eq!(soc.cpu().reg(6), 4095, "full-scale sample visible to the CPU");
}

#[test]
fn fabric_decode_error_reaches_pels_as_bus_error() {
    // A link whose base points at unmapped space must abort cleanly, not
    // wedge the SoC.
    let mut soc = Soc::from_desc(&SystemDesc::default()).unwrap();
    soc.spi_mut().set_default_len(1);
    {
        let link = soc.pels_mut().link_mut(0);
        link.set_mask(EventVector::mask_of(&[2]))
            .set_base(0x0BAD_0000);
        link.load_program(
            &pels_repro::core::Program::new(vec![
                Command::Capture { offset: 0, mask: 1 },
                Command::Halt,
            ])
            .unwrap(),
        )
        .unwrap();
    }
    soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
    soc.timer_mut().write(Timer::CMP, 40).unwrap();
    soc.timer_mut().write(Timer::CTRL, 1).unwrap();
    soc.trace_mut().enable_entries();
    soc.run(300);
    assert!(soc.trace().first("pels.link0", "bus_error").is_some());
    assert!(
        !soc.pels().link(0).is_busy(),
        "link returned to idle after the error"
    );
    let decode_errors = soc.fabric_stats().decode_errors;
    assert!(decode_errors >= 1);
}

#[test]
fn jump_if_signed_condition_works_end_to_end() {
    // GeS vs GeU differ on a sign-bit sample; drive a capture of a known
    // pattern through GPIO PADOUT and check the signed branch.
    let mut soc = Soc::from_desc(&SystemDesc {
        timer_starts_spi: false,
        ..SystemDesc::default()
    })
    .unwrap();
    soc.gpio_mut().write(Gpio::PADOUT, 0x8000_0001).unwrap();
    {
        let link = soc.pels_mut().link_mut(0);
        link.set_mask(EventVector::mask_of(&[2])).set_base(APB_BASE);
        link.load_program(
            &pels_repro::core::Program::new(vec![
                // Capture full PADOUT (mask keeps the sign bit).
                Command::Capture {
                    offset: pels_word_offset(GPIO_OFFSET, Gpio::PADOUT),
                    mask: 0xFFFF_FFFF,
                },
                // Signed: 0x80000001 < 0, so GeS 0 must NOT jump...
                Command::JumpIf {
                    cond: Cond::GeS,
                    target: 3,
                    operand: 0,
                },
                Command::Halt,
                // ...and this action must not run.
                Command::Action {
                    mode: ActionMode::Pulse,
                    group: 0,
                    mask: 1 << 20,
                },
            ])
            .unwrap(),
        )
        .unwrap();
    }
    soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
    soc.timer_mut().write(Timer::CMP, 20).unwrap();
    soc.timer_mut().write(Timer::CTRL, 1).unwrap();
    soc.trace_mut().enable_entries();
    soc.run(200);
    assert!(soc.trace().first("pels.link0", "capture").is_some());
    assert!(
        soc.trace().first("pels.link0", "action").is_none(),
        "signed compare took the not-taken path"
    );
}

#[test]
fn disabled_pels_soc_still_boots_and_runs_cpu_code() {
    let mut soc = Soc::from_desc(&SystemDesc::default()).unwrap();
    soc.pels_mut().set_enabled(false);
    let mut p = Vec::new();
    p.extend(asm::li32(1, 7));
    p.extend(asm::li32(2, 6));
    p.push(asm::mul(3, 1, 2));
    p.push(asm::ecall());
    soc.load_program(RESET_PC, &p);
    soc.run(20);
    assert_eq!(soc.cpu().reg(3), 42);
}

#[test]
fn spi_scenario_reports_compose_over_multiple_runs() {
    // Determinism: the same scenario run twice gives identical latencies
    // and identical activity (the whole stack is seeded/deterministic).
    let s = Scenario::iso_frequency(Mediator::PelsSequenced);
    let a = s.run();
    let b = s.run();
    assert_eq!(a.latencies, b.latencies);
    assert_eq!(a.stats, b.stats);
    assert_eq!(
        a.active_activity, b.active_activity,
        "activity accounting is deterministic"
    );
}

#[test]
fn pels_generates_pwm_without_cpu_or_timer() {
    // Section III-2: `loop` and `wait` subsume timer functions. One
    // trigger launches a self-timed pulse train: N pulses with a fixed
    // period, CPU and timer both idle — an autonomous PWM burst.
    let mut soc = Soc::from_desc(&SystemDesc {
        timer_starts_spi: false,
        ..SystemDesc::default()
    })
    .unwrap();
    {
        let link = soc.pels_mut().link_mut(0);
        link.set_mask(EventVector::mask_of(&[2]));
        link.load_program(
            &pels_repro::core::Program::new(vec![
                Command::Action {
                    mode: ActionMode::Pulse,
                    group: 0,
                    mask: 1 << 20,
                },
                Command::Wait { cycles: 9 },
                Command::Loop { target: 0, count: 7 },
                Command::Halt,
            ])
            .unwrap(),
        )
        .unwrap();
    }
    soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
    // One single trigger via the timer in one-shot mode.
    soc.timer_mut().write(Timer::CMP, 5).unwrap();
    soc.timer_mut()
        .write(Timer::CTRL, Timer::CTRL_ENABLE | Timer::CTRL_ONE_SHOT)
        .unwrap();
    soc.trace_mut().enable_entries();
    soc.run(200);

    let pulses = soc.trace().all("pels.link0", "action");
    assert_eq!(pulses.len(), 8, "loop count 7 = 8 pulse iterations");
    // Fixed period: wait(9) + loop redirect(2) + action(1) = 12 cycles.
    let period_ps = soc.frequency().period_ps();
    let times: Vec<u64> = pulses.iter().map(|e| e.time.as_ps() / period_ps).collect();
    let deltas: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        deltas.windows(2).all(|w| w[0] == w[1]),
        "jitter-free period: {deltas:?}"
    );
    assert_eq!(soc.timer().fires(), 1, "single launch trigger");
}

#[test]
fn cpu_store_to_read_only_peripheral_register_faults() {
    let mut soc = Soc::from_desc(&SystemDesc::default()).unwrap();
    let mut p = Vec::new();
    // PADIN is read-only; the slave rejects the store with PSLVERR.
    p.extend(asm::li32(1, apb_reg(GPIO_OFFSET, Gpio::PADIN)));
    p.extend(asm::li32(2, 1));
    p.push(asm::sw(1, 2, 0));
    p.push(asm::ecall());
    soc.load_program(RESET_PC, &p);
    soc.run(50);
    assert!(matches!(
        soc.cpu().halt_cause(),
        Some(pels_repro::cpu::core::HaltCause::BusFault { .. })
    ));
}

#[test]
fn at_least_k_condition_votes_across_sensors() {
    // 2-of-3 voting: timer compare (2), SPI EOT (0), ADC done (3). Wire
    // the ADC to the timer so ADC-done and SPI-EOT can coincide; with
    // AtLeast(2), single pulses never fire the link.
    let mut soc = Soc::from_desc(&SystemDesc {
        sensor: SensorKind::Constant(2.0),
        ..SystemDesc::default()
    })
    .unwrap();
    soc.spi_mut().set_default_len(4); // 16 cycles, matches ADC conversion
    soc.adc_mut()
        .wire_start_action(pels_repro::soc::event_map::EV_TIMER_CMP);
    {
        let link = soc.pels_mut().link_mut(0);
        link.set_mask(EventVector::mask_of(&[0, 2, 3]))
            .set_condition(pels_repro::core::TriggerCond::AtLeast(2));
        link.load_program(
            &pels_repro::core::Program::new(vec![
                Command::Action {
                    mode: ActionMode::Pulse,
                    group: 0,
                    mask: 1 << 21,
                },
                Command::Halt,
            ])
            .unwrap(),
        )
        .unwrap();
    }
    soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
    soc.timer_mut().write(Timer::CMP, 100).unwrap();
    soc.timer_mut().write(Timer::CTRL, 1).unwrap();
    soc.trace_mut().enable_entries();
    soc.run(600);
    let votes = soc.trace().all("pels.link0", "action").len();
    let eots = soc.trace().all("spi", "eot").len();
    assert!(eots >= 4);
    assert_eq!(votes, eots, "every coincident pair fired the vote");
}

#[test]
fn action_latch_modes_drive_levels_visible_to_peripherals() {
    // `set`-mode actions latch the line; the GPIO keeps seeing it and
    // re-applies the action every cycle — so a latched *toggle* line
    // would flip the pad each cycle. A latched SET is idempotent: the
    // pad goes high and stays high.
    let mut soc = Soc::from_desc(&SystemDesc {
        timer_starts_spi: false,
        ..SystemDesc::default()
    })
    .unwrap();
    {
        let link = soc.pels_mut().link_mut(0);
        link.set_mask(EventVector::mask_of(&[2]));
        link.load_program(
            &pels_repro::core::Program::new(vec![
                Command::Action {
                    mode: ActionMode::Set,
                    group: 0,
                    mask: 1 << 19, // AL_GPIO_SET
                },
                Command::Halt,
            ])
            .unwrap(),
        )
        .unwrap();
    }
    soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
    soc.timer_mut().write(Timer::CMP, 10).unwrap();
    soc.timer_mut()
        .write(Timer::CTRL, Timer::CTRL_ENABLE | Timer::CTRL_ONE_SHOT)
        .unwrap();
    soc.run(100);
    assert!(soc.gpio().pin(0), "latched set-line holds the pad high");
    assert!(
        soc.pels().action_lines().is_set(19),
        "line latched, not pulsed"
    );
}

#[test]
fn pels_sequenced_action_launches_uart_dma_message() {
    // A single sequenced `write` to UART.UDMA_SIZE launches a multi-byte
    // alert message streamed by the TX µDMA from L2 — an entire
    // notification pipeline with the core asleep. This is the kind of
    // "arbitrary command realizable through the system interconnect" the
    // paper's sequenced actions enable (Section II conclusion).
    use pels_repro::periph::Uart;
    use pels_repro::soc::mem_map::UART_OFFSET;

    let mut soc = Soc::from_desc(&SystemDesc {
        sensor: SensorKind::Constant(2.5),
        ..SystemDesc::default()
    })
    .unwrap();
    soc.spi_mut().set_default_len(1);
    // The alert text lives in L2 (placed by boot firmware in real life).
    let msg = b"ALRT";
    soc.l2_mut()
        .load(0x5000, &[u32::from_le_bytes(*msg)]);
    soc.uart_mut().write(Uart::UDMA_SADDR, 0x5000).unwrap();
    soc.uart_mut().write(Uart::CLKDIV, 2).unwrap();
    {
        let link = soc.pels_mut().link_mut(0);
        link.set_mask(EventVector::mask_of(&[0])) // SPI end-of-transfer
            .set_base(APB_BASE);
        link.load_program(
            &pels_repro::core::Program::new(vec![
                Command::Write {
                    offset: pels_word_offset(UART_OFFSET, Uart::UDMA_SIZE),
                    value: msg.len() as u32,
                },
                Command::Halt,
            ])
            .unwrap(),
        )
        .unwrap();
    }
    soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
    soc.timer_mut().write(Timer::CMP, 30).unwrap();
    soc.timer_mut()
        .write(Timer::CTRL, Timer::CTRL_ENABLE | Timer::CTRL_ONE_SHOT)
        .unwrap();

    soc.trace_mut().enable_entries();
    soc.run(200);
    assert_eq!(soc.uart().sent(), msg, "the alert went out");
    assert!(soc.cpu().is_sleeping(), "without the core");
    assert!(
        soc.trace().first("uart", "tx_done").is_some(),
        "tx-done event available for further linking"
    );
}

#[test]
fn pels_links_i2c_sensor_end_to_end() {
    // The second serial sensor path: timer -> instant action starts an
    // I2C read transaction -> done event triggers a threshold check on
    // the big-endian LAST16 register -> GPIO actuation. Two peripherals
    // PELS has never been "co-designed" with, linked purely through the
    // generic mechanisms.
    use pels_repro::periph::I2c;
    use pels_repro::soc::event_map::{AL_I2C_START, EV_I2C_DONE, EV_TIMER_CMP};
    use pels_repro::soc::mem_map::I2C_OFFSET;

    // Link 0 starts the I2C transaction off the timer; link 1 runs the
    // threshold check off the I2C completion.
    let mut soc = {
        let mut desc = SystemDesc {
            sensor: SensorKind::Constant(2.5),
            timer_starts_spi: false,
            ..SystemDesc::default()
        };
        desc.pels.links = 2;
        let mut soc2 = Soc::from_desc(&desc).unwrap();
        soc2.i2c_mut()
            .set_default_cmd(0x48 | I2c::CMD_READ | (2 << 8));
        {
            let l0 = soc2.pels_mut().link_mut(0);
            l0.set_mask(EventVector::mask_of(&[EV_TIMER_CMP]));
            l0.load_program(
                &pels_repro::core::Program::new(vec![
                    Command::Action {
                        mode: ActionMode::Pulse,
                        group: 0,
                        mask: 1 << AL_I2C_START,
                    },
                    Command::Halt,
                ])
                .unwrap(),
            )
            .unwrap();
        }
        {
            let l1 = soc2.pels_mut().link_mut(1);
            l1.set_mask(EventVector::mask_of(&[EV_I2C_DONE]))
                .set_base(APB_BASE);
            l1.load_program(
                &pels_repro::core::Program::new(vec![
                    Command::Capture {
                        offset: pels_word_offset(I2C_OFFSET, I2c::LAST16),
                        mask: 0xFFFF,
                    },
                    Command::JumpIf {
                        cond: Cond::LtU,
                        target: 3,
                        operand: 2000,
                    },
                    Command::Toggle {
                        offset: pels_word_offset(GPIO_OFFSET, Gpio::PADOUT),
                        mask: 1,
                    },
                    Command::Halt,
                ])
                .unwrap(),
            )
            .unwrap();
        }
        soc2
    };
    soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
    soc.timer_mut().write(Timer::CMP, 150).unwrap();
    soc.timer_mut().write(Timer::CTRL, 1).unwrap();
    soc.trace_mut().enable_entries();
    soc.run(1_200);

    let transactions = soc.i2c().transactions();
    let toggles = soc.gpio().pad_toggles();
    assert!(transactions >= 5, "i2c sampled repeatedly ({transactions})");
    assert_eq!(toggles, soc.trace().all("gpio", "padout").len() as u64);
    assert!(toggles >= 5, "every sample actuated ({toggles})");
    // 2.5 V on a 12-bit 3.3 V scale = 3102: above the 2000 threshold.
    assert!(soc.i2c().last16() > 3000);
    assert!(soc.cpu().is_sleeping());
}
