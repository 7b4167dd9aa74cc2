//! Two clock domains: the SoC at 55 MHz and an always-on 32.768 kHz
//! domain whose RTC tick wakes the linking machinery — the standard ULP
//! partitioning of the paper's Section I ("the processing domain and the
//! I/O domain in different power regions").
//!
//! Every 32 kHz edge injects a wake-up event; a PELS link responds with
//! an instant action (kicking the watchdog) without the 55 MHz core ever
//! leaving WFI. The SoC domain is run with [`Soc::run`], which skips the
//! idle spans between ticks; each RTC edge time is converted into the
//! SoC cycle it lands on.
//!
//! ```text
//! cargo run --example dual_clock
//! ```

use pels_repro::core::{assemble, TriggerCond};
use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::Watchdog;
use pels_repro::sim::{EventVector, Frequency, SimTime};
use pels_repro::soc::mem_map::RESET_PC;
use pels_repro::soc::{Soc, SystemDesc};

/// Global event line carrying the always-on domain's tick into the SoC.
const EV_RTC_TICK: u32 = 12;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc_freq = Frequency::from_mhz(55.0);
    let rtc_freq = Frequency::from_period_ps(30_517_578); // ~32.768 kHz

    let mut soc = Soc::from_desc(&SystemDesc {
        freq: soc_freq,
        timer_starts_spi: false,
        ..SystemDesc::default()
    })?;

    // The watchdog would bite every ~1100 cycles (20 us at 55 MHz); the
    // 32 kHz tick (every ~30.5 us)... would be too slow, so give it a
    // 2500-cycle timeout (~45 us) instead: serviced on every RTC tick.
    soc.wdt_mut().write(Watchdog::LOAD, 2_500)?;
    soc.wdt_mut().write(Watchdog::CTRL, 1)?;

    let program = assemble(
        "action pulse, 0, 0x2000000   ; line 25 = watchdog kick
         halt",
    )?;
    {
        let link = soc.pels_mut().link_mut(0);
        link.set_mask(EventVector::mask_of(&[EV_RTC_TICK]))
            .set_condition(TriggerCond::Any);
        link.load_program(&program)?;
    }
    soc.load_program(
        RESET_PC,
        &[pels_repro::cpu::asm::wfi(), pels_repro::cpu::asm::jal(0, -4)],
    );

    // Interleave the two domains by edge time. The SoC has an edge at
    // every multiple of its period, starting at t = 0; on a tie the SoC
    // edge goes first, so a tick is injected after every SoC edge at or
    // before it.
    let horizon = SimTime::from_us(400);
    let run_to = |soc: &mut Soc, soc_edges: u64| soc.run(soc_edges - soc.cycle());
    let kicks = soc.trace_mut().watch(("pels.link0", "action"));
    let mut rtc_ticks = 0u64;
    let mut tick = SimTime::ZERO;
    while tick < horizon {
        run_to(&mut soc, soc_freq.cycles_in(tick) + 1);
        soc.inject_event(EV_RTC_TICK);
        rtc_ticks += 1;
        tick += rtc_freq.period();
    }
    // Finish with every SoC edge strictly before the horizon.
    run_to(&mut soc, horizon.as_ps().div_ceil(soc_freq.period_ps()));

    let kicks = soc.trace().count(kicks);
    println!("simulated 400 us: {rtc_ticks} rtc ticks at 32.768 kHz");
    println!("pels delivered {kicks} watchdog kicks, {} bites", soc.wdt().bites());
    println!("core sleep cycles: {}", soc.cpu().sleep_cycles());

    assert_eq!(kicks as u64, rtc_ticks, "one kick per tick");
    assert_eq!(soc.wdt().bites(), 0, "the 32 kHz domain kept the dog fed");
    assert!(soc.cpu().is_sleeping());
    println!("\ntwo clock domains, zero core wake-ups: the Figure 1c profile.");
    Ok(())
}
