//! PELS subsuming a watchdog (paper Section III-2: `loop` and `wait`
//! "subsume watchdog-like functions without requiring an external
//! timer").
//!
//! Two runs of the same SoC with an armed hardware watchdog:
//!
//! 1. nobody kicks it → it bites repeatedly;
//! 2. a PELS link kicks it from microcode — a `wait`/`loop` pair pulsing
//!    the kick action line — with the CPU asleep throughout.
//!
//! ```text
//! cargo run --example watchdog_link
//! ```

use pels_repro::core::{assemble, TriggerCond};
use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::{Timer, Watchdog};
use pels_repro::sim::EventVector;
use pels_repro::soc::mem_map::RESET_PC;
use pels_repro::soc::{Soc, SystemDesc};

const WDT_TIMEOUT: u32 = 40;
const RUN_CYCLES: u64 = 2_000;

fn arm_watchdog(soc: &mut Soc) {
    soc.wdt_mut().write(Watchdog::LOAD, WDT_TIMEOUT).unwrap();
    soc.wdt_mut().write(Watchdog::CTRL, 1).unwrap();
    soc.load_program(
        RESET_PC,
        &[pels_repro::cpu::asm::wfi(), pels_repro::cpu::asm::jal(0, -4)],
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let desc = SystemDesc {
        timer_starts_spi: false,
        ..SystemDesc::default()
    };

    // Run 1: unattended watchdog.
    let mut soc = Soc::from_desc(&desc)?;
    arm_watchdog(&mut soc);
    soc.run(RUN_CYCLES);
    let unattended_bites = soc.wdt().bites();
    println!("unattended watchdog: {unattended_bites} bites in {RUN_CYCLES} cycles");

    // Run 2: a PELS link kicks it every 25 cycles (well inside the
    // 40-cycle timeout). The kick is an instant action on line 25; the
    // link re-triggers itself off the periodic timer.
    let mut soc = Soc::from_desc(&desc)?;
    arm_watchdog(&mut soc);
    let kick_program = assemble(
        "; watchdog service, no CPU involved
         kick: action pulse, 0, 0x2000000  ; line 25 = watchdog kick
               halt",
    )?;
    {
        let link = soc.pels_mut().link_mut(0);
        link.set_mask(EventVector::mask_of(&[2])) // timer compare event
            .set_condition(TriggerCond::Any);
        link.load_program(&kick_program)?;
    }
    soc.timer_mut().write(Timer::CMP, 25).unwrap();
    soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
    let kicks = soc.trace_mut().watch(("pels.link0", "action"));
    soc.run(RUN_CYCLES);
    println!(
        "PELS-serviced watchdog: {} bites in {RUN_CYCLES} cycles ({} kicks delivered)",
        soc.wdt().bites(),
        soc.trace().count(kicks)
    );
    println!(
        "cpu stayed asleep: {} of its cycles were sleep",
        soc.cpu().sleep_cycles()
    );

    assert!(unattended_bites > 0);
    assert_eq!(soc.wdt().bites(), 0, "the link kept the dog fed");
    println!("\nthe same loop/wait machinery can also replace the external");
    println!("timer entirely: a `wait N` + self-looping program is a");
    println!("watchdog with zero dedicated hardware.");
    Ok(())
}
