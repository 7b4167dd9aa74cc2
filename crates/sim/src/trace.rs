//! Timestamped event tracing.
//!
//! A [`Trace`] records interesting simulation events (`spi.eot`,
//! `pels.link0.trigger`, `ibex.irq_enter`, …) with their timestamp, and is
//! the raw material for latency measurements: the paper's 2/7/16-cycle
//! numbers are produced by subtracting trace timestamps.
//!
//! The record path is allocation-free: sources are interned
//! [`ComponentId`]s and labels are `&'static str` (every label in the
//! workspace is a literal), so recording an event is a plain `Vec` push of
//! a small `Copy` struct. The string-keyed query helpers resolve names
//! through the interning registry.

use crate::flow::FlowTrace;
use crate::intern::ComponentId;
use crate::time::SimTime;
use std::fmt;

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Time the event occurred.
    pub time: SimTime,
    /// Interned hierarchical source name, e.g. `pels.link0`.
    pub source: ComponentId,
    /// Event label, e.g. `trigger`.
    pub label: &'static str,
    /// Optional payload (register value, line index, …).
    pub value: u64,
}

impl TraceEntry {
    /// The source's name.
    pub fn source_name(&self) -> &'static str {
        self.source.name()
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {}.{} = {:#x}",
            self.time.to_string(),
            self.source.name(),
            self.label,
            self.value
        )
    }
}

/// An append-only event trace with query helpers.
///
/// ```
/// use pels_sim::{ComponentId, SimTime, Trace};
/// let spi = ComponentId::intern("spi");
/// let gpio = ComponentId::intern("gpio");
/// let mut t = Trace::new();
/// t.record(SimTime::from_ns(10), spi, "eot", 0);
/// t.record(SimTime::from_ns(80), gpio, "set", 1);
/// let lat = t.latencies_all(("spi", "eot"), ("gpio", "set"));
/// assert_eq!(lat, vec![SimTime::from_ns(70)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    /// Causal flow layer, reached through [`Trace::flow_trace_mut`];
    /// `None` (the default) keeps every flow observation point in the
    /// models down to a single branch.
    flows: Option<Box<FlowTrace>>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event. Allocation-free apart from amortized growth of
    /// the entry vector.
    #[inline]
    pub fn record(&mut self, time: SimTime, source: ComponentId, label: &'static str, value: u64) {
        self.entries.push(TraceEntry {
            time,
            source,
            label,
            value,
        });
    }

    /// Records an event under a source name, interning it if needed.
    /// Convenience layer for tests and cold paths.
    pub fn record_named(&mut self, time: SimTime, source: &str, label: &'static str, value: u64) {
        self.record(time, ComponentId::intern(source), label, value);
    }

    /// All recorded entries in order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// First entry matching `(source, label)`.
    pub fn first(&self, source: &str, label: &str) -> Option<&TraceEntry> {
        let id = ComponentId::lookup(source)?;
        self.entries
            .iter()
            .find(|e| e.source == id && e.label == label)
    }

    /// All entries matching `(source, label)`.
    pub fn all(&self, source: &str, label: &str) -> Vec<&TraceEntry> {
        let Some(id) = ComponentId::lookup(source) else {
            return Vec::new();
        };
        self.entries
            .iter()
            .filter(|e| e.source == id && e.label == label)
            .collect()
    }

    /// Latencies for every `(from → next to)` pair, for jitter statistics.
    pub fn latencies_all(&self, from: (&str, &str), to: (&str, &str)) -> Vec<SimTime> {
        let mut out = Vec::new();
        let ends: Vec<&TraceEntry> = self.all(to.0, to.1);
        let mut ei = 0usize;
        for s in self.all(from.0, from.1) {
            while ei < ends.len() && ends[ei].time < s.time {
                ei += 1;
            }
            if ei < ends.len() {
                out.push(ends[ei].time - s.time);
                ei += 1;
            }
        }
        out
    }

    /// Turns on causal flow tracing (off by default).
    pub fn enable_flows(&mut self) {
        if self.flows.is_none() {
            self.flows = Some(Box::default());
        }
    }

    /// The recorded flow layer, if enabled.
    pub fn flow_trace(&self) -> Option<&FlowTrace> {
        self.flows.as_deref()
    }

    /// The flow layer to record into, if enabled. Every observation point
    /// in the models is one `if let` on this handle, a single branch when
    /// flows are off.
    #[inline]
    pub fn flow_trace_mut(&mut self) -> Option<&mut FlowTrace> {
        self.flows.as_deref_mut()
    }

    /// Removes and returns the flow layer (disabling further flow
    /// recording).
    pub fn take_flow_trace(&mut self) -> Option<FlowTrace> {
        self.flows.take().map(|b| *b)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.record_named(SimTime::from_ns(0), "timer", "ovf", 0);
        t.record_named(SimTime::from_ns(10), "spi", "eot", 0);
        t.record_named(SimTime::from_ns(50), "gpio", "set", 1);
        t.record_named(SimTime::from_ns(100), "spi", "eot", 1);
        t.record_named(SimTime::from_ns(170), "gpio", "set", 0);
        t
    }

    #[test]
    fn first_and_all() {
        let t = sample();
        assert_eq!(t.first("spi", "eot").unwrap().time, SimTime::from_ns(10));
        assert_eq!(t.all("spi", "eot").len(), 2);
        assert!(t.first("trace-test-unknown-source", "x").is_none());
    }

    #[test]
    fn latencies_all_pairs_in_order() {
        let t = sample();
        let ls = t.latencies_all(("spi", "eot"), ("gpio", "set"));
        assert_eq!(
            ls.iter().map(|l| l.as_ns()).collect::<Vec<_>>(),
            vec![40, 70]
        );
    }

    #[test]
    fn display_contains_entries() {
        let t = sample();
        let s = t.to_string();
        assert!(s.contains("spi.eot"));
        assert!(s.contains("gpio.set"));
    }
}
