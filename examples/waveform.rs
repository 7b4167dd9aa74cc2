//! Dumps VCD waveforms of one linking event — the debugging workflow an
//! RTL engineer would use on the original SystemVerilog PELS, available
//! here without any external tooling.
//!
//! Two documents are written:
//!
//! * `pels_linking.vcd` — hand-picked architectural state sampled every
//!   cycle (clock, SPI/link busy, SCM program counter, GPIO pad);
//! * `pels_flows.vcd` — the architectural trace bridged through
//!   [`pels_repro::sim::vcd::trace_to_vcd`] with causal flows on: one
//!   pulse track per trace event, one 16-bit `<channel>.flow` track per
//!   PELS channel and one `flow.<stage>` track per typed flow stage,
//!   each pulsing the flow id as the event crosses it.
//!
//! ```text
//! cargo run --example waveform      # writes both .vcd files
//! gtkwave pels_flows.vcd            # (on a machine with GTKWave)
//! ```

use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::Timer;
use pels_repro::sim::vcd::{trace_to_vcd, VcdWriter};
use pels_repro::soc::{Mediator, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::latency_probe(Mediator::PelsSequenced);
    // The scenario builds its own SoC; we step it ourselves with a short
    // timer period so the linking event lands inside the capture window.
    let mut soc = scenario.build_soc();
    soc.trace_mut().enable_flows();
    soc.trace_mut().enable_entries();
    soc.timer_mut().write(Timer::CMP, 20)?;
    soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE)?;

    let mut vcd = VcdWriter::new("pels_soc");
    let clk = vcd.add_signal("clk", 1);
    let spi_busy = vcd.add_signal("spi_busy", 1);
    let link_busy = vcd.add_signal("link0_busy", 1);
    let link_pc = vcd.add_signal("link0_pc", 4);
    let gpio_out = vcd.add_signal("gpio_padout", 8);
    let events = vcd.add_signal("event_lines", 16);

    for _ in 0..80 {
        let t = soc.time();
        vcd.change(t, clk, soc.cycle() & 1);
        vcd.change(t, spi_busy, u64::from(soc.spi().is_busy()));
        vcd.change(t, link_busy, u64::from(soc.pels().link(0).is_busy()));
        vcd.change(t, link_pc, soc.pels().link(0).exec().pc() as u64);
        vcd.change(t, gpio_out, u64::from(soc.gpio().out()));
        vcd.change(t, events, soc.pels().action_lines().bits());
        soc.step();
    }

    let doc = vcd.finish();
    std::fs::write("pels_linking.vcd", &doc)?;
    println!(
        "wrote pels_linking.vcd ({} bytes) covering one {}-cycle linking event",
        doc.len(),
        scenario.timer_period_cycles() + 20
    );
    println!("signals: clk, spi_busy, link0_busy, link0_pc, gpio_padout, event_lines");

    // The same window through the causal flow lens: the trace's pulse
    // tracks plus the per-channel / per-stage flow-id tracks.
    let flows = soc.trace().flow_trace().expect("flows enabled above");
    let flow_doc = trace_to_vcd(soc.trace(), Some(flows), "pels_soc");
    std::fs::write("pels_flows.vcd", &flow_doc)?;
    println!(
        "wrote pels_flows.vcd ({} bytes): {} causal hops across {} flow(s)",
        flow_doc.len(),
        flows.len(),
        flows.minted(),
    );
    Ok(())
}
