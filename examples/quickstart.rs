//! Quickstart: assemble a PELS microcode program, build a PELS instance,
//! feed it an event and watch the action lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use pels_repro::core::pels::NoBus;
use pels_repro::core::{assemble, Pels, TriggerCond};
use pels_repro::sim::{EventVector, SimTime, Trace};
use pels_repro::soc::SystemDesc;

/// The committed description of the minimal quickstart system
/// (regenerate with `reproduce -- desc`).
const SYSTEM_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/descs/quickstart_system.json"));

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write the linking program in the paper's pseudocode style.
    //    This one waits two cycles, then pulses outgoing event line 8 —
    //    an *instant action*.
    let program = assemble(
        "; my first linking program
         wait 2
         action pulse, 0, 0x100   ; line 8
         halt",
    )?;
    println!("assembled program:\n{program}");

    // 2. Describe the system in JSON and build from the description —
    //    here the paper's minimal 1-link, 4-command, ~7 kGE PELS
    //    configuration, loaded from `examples/descs/` — and configure
    //    link 0 to trigger on event line 3.
    let desc = SystemDesc::from_json(SYSTEM_JSON)?;
    let mut pels = Pels::new(desc.pels.to_config());
    pels.link_mut(0)
        .set_mask(EventVector::mask_of(&[3]))
        .set_condition(TriggerCond::Any);
    pels.link_mut(0).load_program(&program)?;

    // 3. Tick the unit: an event pulse on line 3 at cycle 0, then idle.
    //    (`NoBus` because this program uses no sequenced actions.)
    let mut trace = Trace::with_entries();
    let mut bus = NoBus;
    for cycle in 0..8u64 {
        let events = if cycle == 0 {
            EventVector::mask_of(&[3])
        } else {
            EventVector::EMPTY
        };
        let out = pels.tick(events, SimTime::from_ns(cycle * 18), &mut bus, &mut trace);
        println!(
            "cycle {cycle}: in={events:<12} out={}",
            if out.is_empty() {
                "-".to_string()
            } else {
                out.to_string()
            }
        );
    }

    // The pulse lands on line 8 exactly 2 (trigger) + 2 (wait) cycles
    // after the event.
    println!("\ntrace:\n{trace}");
    Ok(())
}
