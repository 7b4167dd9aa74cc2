//! Minimal VCD (Value Change Dump) writer.
//!
//! Lets any model dump waveforms inspectable with GTKWave & co. — the
//! debugging workflow an RTL engineer would expect from the original
//! SystemVerilog PELS. Only the subset of IEEE 1364 VCD needed for scalar
//! and vector signals is implemented; no external dependency required.

use crate::error::SimError;
use crate::flow::FlowTrace;
use crate::intern::ComponentId;
use crate::time::SimTime;
use crate::trace::Trace;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Handle to a registered signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(usize);

#[derive(Debug, Clone)]
struct Signal {
    name: String,
    width: u32,
    ident: String,
    last: Option<u64>,
}

/// An in-memory VCD document builder.
///
/// Register signals up front, then report value changes as simulation time
/// advances; [`VcdWriter::finish`] renders the document.
///
/// ```
/// use pels_sim::vcd::VcdWriter;
/// use pels_sim::SimTime;
/// let mut vcd = VcdWriter::new("pels");
/// let trig = vcd.add_signal("link0_trigger", 1);
/// let pc = vcd.add_signal("link0_pc", 4);
/// vcd.change(SimTime::ZERO, trig, 1);
/// vcd.change(SimTime::from_ns(10), pc, 3);
/// let doc = vcd.finish();
/// assert!(doc.contains("$var wire 1"));
/// assert!(doc.contains("$enddefinitions"));
/// ```
#[derive(Debug, Clone)]
pub struct VcdWriter {
    module: String,
    signals: Vec<Signal>,
    body: String,
    time_open: Option<SimTime>,
}

/// Generates the short VCD identifier for signal `n` (printable ASCII
/// `!`..`~`, base-94 little-endian).
fn ident_for(mut n: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

impl VcdWriter {
    /// Creates a writer for a single module scope.
    pub fn new(module: impl Into<String>) -> Self {
        VcdWriter {
            module: module.into(),
            signals: Vec::new(),
            body: String::new(),
            time_open: None,
        }
    }

    /// Registers a signal of `width` bits and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn add_signal(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        assert!((1..=64).contains(&width), "signal width must be 1..=64");
        let id = self.signals.len();
        self.signals.push(Signal {
            name: name.into(),
            width,
            ident: ident_for(id),
            last: None,
        });
        SignalId(id)
    }

    /// Reports a value for `signal` at `time`. Unchanged values are elided
    /// like real VCD dumps.
    ///
    /// Values wider than the signal are truncated to its width.
    pub fn change(&mut self, time: SimTime, signal: SignalId, value: u64) {
        let sig = &self.signals[signal.0];
        let mask = if sig.width == 64 {
            u64::MAX
        } else {
            (1u64 << sig.width) - 1
        };
        let value = value & mask;
        if sig.last == Some(value) {
            return;
        }
        if self.time_open != Some(time) {
            let _ = writeln!(self.body, "#{}", time.as_ps());
            self.time_open = Some(time);
        }
        let sig = &mut self.signals[signal.0];
        sig.last = Some(value);
        if sig.width == 1 {
            let _ = writeln!(self.body, "{}{}", value & 1, sig.ident);
        } else {
            let _ = writeln!(self.body, "b{value:b} {}", sig.ident);
        }
    }

    /// Looks up a signal handle by name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] when the name was never
    /// registered.
    pub fn signal(&self, name: &str) -> Result<SignalId, SimError> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(SignalId)
            .ok_or_else(|| SimError::UnknownSignal(name.to_owned()))
    }

    /// Renders the complete VCD document.
    pub fn finish(self) -> String {
        let mut out = String::new();
        out.push_str("$timescale 1ps $end\n");
        let _ = writeln!(out, "$scope module {} $end", self.module);
        for s in &self.signals {
            let _ = writeln!(out, "$var wire {} {} {} $end", s.width, s.ident, s.name);
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        out.push_str(&self.body);
        out
    }
}

/// Width of the flow-id vector signals emitted by [`trace_to_vcd`].
const FLOW_ID_BITS: u32 = 16;

/// Renders `trace`'s kept entries (see [`Trace::enable_entries`]) and
/// optionally the causal `flows` recorded alongside them as a VCD
/// document:
///
/// * one 1-bit pulse signal per distinct `source.label` track, driven to
///   1 at each event's timestamp and back to 0 one picosecond later, so
///   every event shows as a narrow pulse in GTKWave & co.;
/// * with `flows`, one 16-bit `<channel>.flow` signal per PELS channel
///   (hop sources named `pels.*`) and one 16-bit `flow.<stage>` signal
///   per typed flow stage, each pulsing the [`crate::FlowId`] at every
///   hop — reading a stage track left to right shows which flow crossed
///   it when, and a channel track shows which flow the channel carried.
///
/// Signals are declared in order of first occurrence (trace tracks
/// first, then flow tracks), and simultaneous edges keep their record
/// order (stable sort), so the document is byte-identical across runs
/// for a deterministic trace.
///
/// ```
/// use pels_sim::vcd::trace_to_vcd;
/// use pels_sim::{ComponentId, FlowTrace, SimTime, Trace};
/// let mut t = Trace::with_entries();
/// t.record_named(SimTime::from_ns(10), "spi", "eot", 0);
/// t.record_named(SimTime::from_ns(80), "gpio", "set", 1);
/// let doc = trace_to_vcd(&t, None, "pels");
/// assert!(doc.contains("$var wire 1 ! spi.eot $end"));
/// assert!(doc.contains("#10000\n1!")); // pulse up at the event time...
/// assert!(doc.contains("#10001\n0!")); // ...and back down 1 ps later
///
/// let mut flows = FlowTrace::default();
/// flows.raise(SimTime::from_ns(10), ComponentId::intern("pels.link0"), 1, "trigger");
/// let doc = trace_to_vcd(&t, Some(&flows), "pels");
/// assert!(doc.contains("$var wire 16 # pels.link0.flow $end"));
/// assert!(doc.contains("$var wire 16 $ flow.trigger $end"));
/// assert!(doc.contains("b1 #")); // the hop pulses the flow id
/// ```
pub fn trace_to_vcd(trace: &Trace, flows: Option<&FlowTrace>, module: &str) -> String {
    let mut vcd = VcdWriter::new(module);
    let mut ids: HashMap<(ComponentId, &'static str), SignalId> = HashMap::new();
    let hop_count = flows.map_or(0, FlowTrace::len);
    let mut changes: Vec<(SimTime, SignalId, u64)> =
        Vec::with_capacity((trace.entries().len() + 2 * hop_count) * 2);
    for e in trace.entries() {
        let sig = *ids
            .entry((e.source, e.label))
            .or_insert_with(|| vcd.add_signal(format!("{}.{}", e.source.name(), e.label), 1));
        changes.push((e.time, sig, 1));
        changes.push((SimTime::from_ps(e.time.as_ps() + 1), sig, 0));
    }
    if let Some(flows) = flows {
        let mut channels: HashMap<ComponentId, SignalId> = HashMap::new();
        let mut stages: HashMap<&'static str, SignalId> = HashMap::new();
        for h in flows.hops() {
            let mut pulse = |sig: SignalId| {
                changes.push((h.time, sig, h.flow.0));
                changes.push((SimTime::from_ps(h.time.as_ps() + 1), sig, 0));
            };
            if h.source_name().starts_with("pels.") {
                pulse(*channels.entry(h.source).or_insert_with(|| {
                    vcd.add_signal(format!("{}.flow", h.source_name()), FLOW_ID_BITS)
                }));
            }
            pulse(*stages.entry(h.stage).or_insert_with(|| {
                vcd.add_signal(format!("flow.{}", h.stage), FLOW_ID_BITS)
            }));
        }
    }
    // Falling edges interleave with later events; VCD timestamps must be
    // monotone. The sort is stable, so same-time edges keep record order.
    changes.sort_by_key(|&(t, _, _)| t);
    for (t, sig, v) in changes {
        vcd.change(t, sig, v);
    }
    vcd.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_generation_is_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..500 {
            let id = ident_for(n);
            assert!(id.bytes().all(|b| (b'!'..=b'~').contains(&b)));
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn header_lists_signals() {
        let mut w = VcdWriter::new("top");
        w.add_signal("clk", 1);
        w.add_signal("bus", 32);
        let doc = w.finish();
        assert!(doc.contains("$scope module top $end"));
        assert!(doc.contains("$var wire 1 ! clk $end"));
        assert!(doc.contains("$var wire 32 \" bus $end"));
    }

    #[test]
    fn unchanged_values_are_elided() {
        let mut w = VcdWriter::new("m");
        let s = w.add_signal("x", 1);
        w.change(SimTime::from_ps(0), s, 1);
        w.change(SimTime::from_ps(5), s, 1); // no change
        w.change(SimTime::from_ps(9), s, 0);
        let doc = w.finish();
        assert!(doc.contains("#0\n1!"));
        assert!(!doc.contains("#5"));
        assert!(doc.contains("#9\n0!"));
    }

    #[test]
    fn vector_values_use_binary_format() {
        let mut w = VcdWriter::new("m");
        let s = w.add_signal("v", 8);
        w.change(SimTime::from_ps(2), s, 0x1ff); // truncated to 8 bits
        let doc = w.finish();
        assert!(doc.contains("b11111111 !"));
    }

    #[test]
    fn lookup_by_name() {
        let mut w = VcdWriter::new("m");
        let s = w.add_signal("sig", 1);
        assert_eq!(w.signal("sig").unwrap(), s);
        assert!(matches!(
            w.signal("none"),
            Err(SimError::UnknownSignal(_))
        ));
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        VcdWriter::new("m").add_signal("bad", 0);
    }

    #[test]
    fn trace_bridge_pulses_every_event_in_time_order() {
        let mut t = Trace::with_entries();
        t.record_named(SimTime::from_ps(5), "vcd-test-a", "hit", 0);
        t.record_named(SimTime::from_ps(5), "vcd-test-b", "hit", 0);
        t.record_named(SimTime::from_ps(40), "vcd-test-a", "hit", 1);
        let doc = trace_to_vcd(&t, None, "bridge");
        assert!(doc.contains("$var wire 1 ! vcd-test-a.hit $end"));
        assert!(doc.contains("$var wire 1 \" vcd-test-b.hit $end"));
        // Both tracks pulse inside the same #5 block, trace order kept.
        assert!(doc.contains("#5\n1!\n1\"\n#6\n0!\n0\"\n"));
        assert!(doc.contains("#40\n1!\n#41\n0!\n"));
        // Timestamps are monotone (VCD requirement).
        let mut last = -1i64;
        for line in doc.lines().filter(|l| l.starts_with('#')) {
            let ts: i64 = line[1..].parse().unwrap();
            assert!(ts > last, "non-monotone timestamp {ts} after {last}");
            last = ts;
        }
    }

    #[test]
    fn trace_bridge_emits_channel_and_stage_flow_tracks() {
        let link = ComponentId::intern("pels.vcd-test-link");
        let gpio = ComponentId::intern("vcd-test-gpio");
        let mut t = Trace::with_entries();
        t.record(SimTime::from_ps(10), link, "trigger", 0);
        let mut flows = FlowTrace::default();
        flows.raise(SimTime::from_ps(10), link, 1, "trigger");
        flows.cycle_end();
        assert!(flows.adopt_wire(SimTime::from_ps(20), gpio, 1, "padout"));
        flows.raise(SimTime::from_ps(30), link, 2, "trigger");
        let doc = trace_to_vcd(&t, Some(&flows), "m");
        // One channel track for the PELS source (but none for the GPIO),
        // one stage track per distinct typed stage.
        assert_eq!(doc.matches("$var wire 16").count(), 3);
        assert!(doc.contains("pels.vcd-test-link.flow"));
        assert!(doc.contains("flow.trigger"));
        assert!(doc.contains("flow.padout"));
        assert!(!doc.contains("vcd-test-gpio.flow"));
        // Each hop pulses the flow id on its tracks: id 1 then id 2 on
        // the channel + trigger-stage pair, id 1 on the padout stage.
        assert_eq!(doc.matches("b1 ").count(), 3);
        assert_eq!(doc.matches("b10 ").count(), 2);
        // Flow-off rendering is unchanged.
        assert!(!trace_to_vcd(&t, None, "m").contains("$var wire 16"));
    }

    #[test]
    fn trace_bridge_on_an_empty_trace_is_just_a_header() {
        let doc = trace_to_vcd(&Trace::new(), None, "empty");
        assert!(doc.contains("$enddefinitions"));
        assert!(!doc.contains('#'));
    }
}
