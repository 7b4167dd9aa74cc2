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
        self.latencies_and_count(from, to).0
    }

    /// [`Self::latencies_all`] and the number of `to` entries, from one
    /// pass over the trace that collects the `from` and `to` times
    /// together. Each start pairs with the first unpaired end at or after
    /// it, both in trace order.
    pub fn latencies_and_count(
        &self,
        from: (&str, &str),
        to: (&str, &str),
    ) -> (Vec<SimTime>, usize) {
        let (from_id, to_id) = (ComponentId::lookup(from.0), ComponentId::lookup(to.0));
        let (mut starts, mut ends) = (Vec::new(), Vec::new());
        for e in &self.entries {
            if Some(e.source) == from_id && e.label == from.1 {
                starts.push(e.time);
            }
            if Some(e.source) == to_id && e.label == to.1 {
                ends.push(e.time);
            }
        }
        let mut latencies = Vec::with_capacity(starts.len().min(ends.len()));
        let mut ei = 0usize;
        for s in starts {
            while ei < ends.len() && ends[ei] < s {
                ei += 1;
            }
            if ei < ends.len() {
                latencies.push(ends[ei] - s);
                ei += 1;
            }
        }
        (latencies, ends.len())
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

    /// Pairs the entries of `all()` by search: each start takes the first
    /// end at or after it that follows the end the previous start took.
    fn reference_latencies(t: &Trace, from: (&str, &str), to: (&str, &str)) -> Vec<SimTime> {
        let ends = t.all(to.0, to.1);
        let mut next = 0;
        let mut out = Vec::new();
        for s in t.all(from.0, from.1) {
            if let Some(i) = (next..ends.len()).find(|&i| ends[i].time >= s.time) {
                next = i + 1;
                out.push(ends[i].time - s.time);
            }
        }
        out
    }

    #[test]
    fn one_pass_latencies_match_a_reference_built_from_all() {
        let mut rng = crate::Rng::seed_from_u64(0x7ACE_0001);
        let names = [
            ("trace-pass-spi", "eot"),
            ("trace-pass-gpio", "set"),
            ("trace-pass-spi", "other"),
        ];
        for case in 0..200 {
            let mut t = Trace::new();
            let mut at = 0;
            for _ in 0..rng.range_u64(0, 40) {
                // Often several entries in one cycle: an end in the
                // cycle of its start, starts with no end between them.
                at += rng.index(3) as u64;
                let (source, label) = names[rng.index(names.len())];
                t.record_named(SimTime::from_ns(at), source, label, 0);
            }
            let (from, to) = (names[0], names[1]);
            let (latencies, ends) = t.latencies_and_count(from, to);
            assert_eq!(latencies, reference_latencies(&t, from, to), "case {case}");
            assert_eq!(latencies, t.latencies_all(from, to), "case {case}");
            assert_eq!(ends, t.all(to.0, to.1).len(), "case {case}");
        }
        // A marker in the cycle of its start pairs with it; a start with
        // no later marker stays unmatched; a name never interned counts 0.
        let mut t = Trace::new();
        t.record_named(SimTime::from_ns(5), "trace-pass-spi", "eot", 0);
        t.record_named(SimTime::from_ns(5), "trace-pass-gpio", "set", 0);
        t.record_named(SimTime::from_ns(9), "trace-pass-spi", "eot", 0);
        let (latencies, ends) = t.latencies_and_count(names[0], names[1]);
        assert_eq!((latencies, ends), (vec![SimTime::ZERO], 1));
        assert_eq!(
            t.latencies_and_count(names[0], ("trace-pass-never", "set")),
            (Vec::new(), 0)
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
