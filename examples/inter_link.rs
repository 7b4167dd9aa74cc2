//! Inter-link triggering through action-line loopback (paper Figure 2 ⑨
//! and Section III-2: links "trigger each other through specific instant
//! actions", enabling "link specialization and diversification").
//!
//! Link 0 is the *detector*: it threshold-checks the sensor sample and —
//! instead of actuating directly — pulses loopback line 40. Link 1 is the
//! *alert generator*: triggered by line 40, it writes an alert byte to
//! the UART with a sequenced action. Neither link could do the whole job
//! alone with a 4-line SCM; together they implement a 6-command flow.
//!
//! ```text
//! cargo run --example inter_link
//! ```

use pels_repro::core::{assemble, TriggerCond};
use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::Timer;
use pels_repro::sim::EventVector;
use pels_repro::soc::mem_map::{pels_word_offset, APB_BASE, SPI_OFFSET, UART_OFFSET};
use pels_repro::soc::{SensorKind, Soc, SystemDesc};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut desc = SystemDesc {
        sensor: SensorKind::Constant(2.8), // above threshold
        ..SystemDesc::default()
    };
    desc.pels.links = 2;
    desc.pels.scm_lines = 4;
    let mut soc = Soc::from_desc(&desc)?;

    // Link 0: capture SPI sample, compare, chain to link 1 via line 40.
    let spi_last = pels_word_offset(SPI_OFFSET, pels_repro::periph::Spi::LAST);
    let detector = assemble(&format!(
        "      capture {spi_last}, 0xFFF
               jump-if ltu, @quiet, 2000
               action pulse, 1, 0x100   ; loopback line 40 (group 1, bit 8)
        quiet: halt"
    ))?;

    // Link 1: sequenced write of '!' into the UART TX register.
    let uart_tx = pels_word_offset(UART_OFFSET, pels_repro::periph::Uart::TXDATA);
    let alerter = assemble(&format!(
        "write {uart_tx}, 0x21   ; '!'
         halt"
    ))?;

    {
        let l0 = soc.pels_mut().link_mut(0);
        l0.set_mask(EventVector::mask_of(&[0])) // SPI end-of-transfer
            .set_condition(TriggerCond::Any)
            .set_base(APB_BASE);
        l0.load_program(&detector)?;
    }
    {
        let l1 = soc.pels_mut().link_mut(1);
        l1.set_mask(EventVector::mask_of(&[40])) // loopback from link 0
            .set_condition(TriggerCond::Any)
            .set_base(APB_BASE);
        l1.load_program(&alerter)?;
    }

    // CPU sleeps; periodic readout every 120 cycles.
    soc.load_program(
        pels_repro::soc::mem_map::RESET_PC,
        &[pels_repro::cpu::asm::wfi(), pels_repro::cpu::asm::jal(0, -4)],
    );
    soc.spi_mut().set_default_len(1);
    soc.timer_mut().write(Timer::CMP, 120).unwrap();
    soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();

    let detections = soc.trace_mut().watch(("pels.link0", "action"));
    let alerts = soc.trace_mut().watch(("pels.link1", "halt"));
    soc.run(1_000);

    println!("uart transmitted: {:?}", String::from_utf8_lossy(soc.uart().sent()));
    println!("link0 detections : {}", soc.trace().count(detections));
    println!("link1 alerts     : {}", soc.trace().count(alerts));
    assert!(!soc.uart().sent().is_empty(), "alert bytes were sent");
    assert!(soc.uart().sent().iter().all(|&b| b == b'!'));

    println!("\nevent flow: timer -> spi readout -> link0 (detect) ->");
    println!("loopback line 40 -> link1 (alert) -> uart, all core-asleep.");
    Ok(())
}
