//! Timestamped event tracing.
//!
//! A [`Trace`] takes interesting simulation events (`spi.eot`,
//! `pels.link0.trigger`, `ibex.irq_enter`, …) with their timestamp, and is
//! the raw material for latency measurements: the paper's 2/7/16-cycle
//! numbers are produced by subtracting trace timestamps.
//!
//! The trace streams. Every entry feeds three O(1) online consumers and is
//! then dropped: an order-sensitive digest of every entry (what trace
//! equality compares), a count per `(source, label)` key a consumer
//! registered with [`Trace::watch`] (what a run waiting for completions
//! reads), and, once [`Trace::pair`] names a start and an end key, a
//! pairer that turns start → end pairs into latencies as they complete.
//! Memory therefore stays constant over any horizon. An observer that
//! wants the entries themselves (an exporter, a test asserting on one
//! event) opts in with [`Trace::enable_entries`], the way flows are opted
//! into with [`Trace::enable_flows`]; only then do the string-keyed query
//! helpers ([`Trace::first`], [`Trace::all`],
//! [`Trace::latencies_and_count`])
//! see anything.
//!
//! The record path is allocation-free: sources are interned
//! [`ComponentId`]s and labels are `&'static str` (every label in the
//! workspace is a literal), so recording an event mixes four words into
//! the digest and compares it against the few watched keys.

use crate::flow::FlowTrace;
use crate::intern::ComponentId;
use crate::time::SimTime;
use std::collections::VecDeque;
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

/// A `(source, label)` trace point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    source: ComponentId,
    label: &'static str,
}

impl Key {
    fn new((source, label): (&str, &'static str)) -> Key {
        Key {
            source: ComponentId::intern(source),
            label,
        }
    }

    #[inline]
    fn matches(&self, source: ComponentId, label: &str) -> bool {
        self.source == source && self.label == label
    }
}

/// The online form of [`Trace::latencies_and_count`]'s pairing rule:
/// each start pairs with the first unpaired end at or after it, both in
/// trace order. It holds only the starts and ends not yet settled, so a
/// run whose every start meets its end holds at most a few.
#[derive(Debug, Clone)]
struct Pairer {
    from: Key,
    to: Key,
    /// Starts not yet paired, in trace order.
    starts: VecDeque<SimTime>,
    /// Ends no start has reached yet, in trace order.
    ends: VecDeque<SimTime>,
    latencies: Vec<SimTime>,
}

impl Pairer {
    #[inline]
    fn observe(&mut self, time: SimTime, source: ComponentId, label: &str) {
        if self.from.matches(source, label) {
            self.starts.push_back(time);
            self.settle();
        }
        if self.to.matches(source, label) {
            self.ends.push_back(time);
            self.settle();
        }
    }

    /// Consumes the front end against the front start while both exist.
    /// An end before the front start is dropped: the offline rule skips
    /// it for this start and every later one.
    fn settle(&mut self) {
        while let (Some(&start), Some(&end)) = (self.starts.front(), self.ends.front()) {
            self.ends.pop_front();
            if end >= start {
                self.starts.pop_front();
                self.latencies.push(end - start);
            }
        }
    }
}

/// Mixes one word into the digest: a rotate, an xor and a multiply by an
/// odd constant. Each step is a bijection in both the digest and the
/// word, so two entry streams that differ in exactly one word always end
/// in different digests; reordering entries changes it with
/// overwhelming probability.
#[inline]
fn mix(digest: u64, word: u64) -> u64 {
    (digest.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The label's bytes, eight at a time, and its length as one word:
/// labels compare by value, so the digest may not depend on which copy
/// of a literal an entry points at.
#[inline]
fn label_word(label: &str) -> u64 {
    let mut word = label.len() as u64;
    for chunk in label.as_bytes().chunks(8) {
        let mut bytes = [0u8; 8];
        bytes[..chunk.len()].copy_from_slice(chunk);
        word = mix(word, u64::from_le_bytes(bytes));
    }
    word
}

/// A handle to a count [`Trace::watch`] keeps: an index into the trace
/// that issued it, clones of that trace included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watch(usize);

/// An append-only event trace: a digest and online consumers always, the
/// entries themselves on request.
///
/// ```
/// use pels_sim::{ComponentId, SimTime, Trace};
/// let spi = ComponentId::intern("spi");
/// let gpio = ComponentId::intern("gpio");
/// let mut t = Trace::new();
/// let done = t.pair(("spi", "eot"), ("gpio", "set"));
/// t.record(SimTime::from_ns(10), spi, "eot", 0);
/// t.record(SimTime::from_ns(80), gpio, "set", 1);
/// assert_eq!(t.latencies(), [SimTime::from_ns(70)]);
/// assert_eq!(t.count(done), 1);
/// assert_eq!(t.len(), 2);
/// assert!(t.entries().is_empty(), "entries are kept only on request");
/// ```
///
/// Equality compares what was recorded: the number of entries, their
/// digest and the flow layer. Which keys a trace counts or pairs and
/// whether it keeps its entries are observation and never make two
/// traces differ.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Entries recorded so far.
    recorded: u64,
    /// Order-sensitive digest of every entry's time, source, label and
    /// value.
    digest: u64,
    /// The keys [`Trace::watch`] registered, with their counts.
    counts: Vec<(Key, u64)>,
    /// The latency pairer [`Trace::pair`] set up, if any.
    pairer: Option<Box<Pairer>>,
    /// The entries, kept once [`Trace::enable_entries`] was called.
    entries: Option<Vec<TraceEntry>>,
    /// Causal flow layer, reached through [`Trace::flow_trace_mut`];
    /// `None` (the default) keeps every flow observation point in the
    /// models down to a single branch.
    flows: Option<Box<FlowTrace>>,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        (self.recorded, self.digest) == (other.recorded, other.digest) && self.flows == other.flows
    }
}

impl Trace {
    /// Creates an empty trace that keeps no entries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace that keeps its entries.
    pub fn with_entries() -> Self {
        let mut t = Self::new();
        t.enable_entries();
        t
    }

    /// Records an event: mixes it into the digest, feeds the watched
    /// counts and the pairer, and keeps it if entries are enabled.
    #[inline]
    pub fn record(&mut self, time: SimTime, source: ComponentId, label: &'static str, value: u64) {
        self.recorded += 1;
        let mut digest = mix(self.digest, time.as_ps());
        digest = mix(digest, source.index() as u64);
        digest = mix(digest, label_word(label));
        self.digest = mix(digest, value);
        for (key, n) in &mut self.counts {
            if key.matches(source, label) {
                *n += 1;
            }
        }
        if let Some(p) = self.pairer.as_deref_mut() {
            p.observe(time, source, label);
        }
        if let Some(entries) = &mut self.entries {
            entries.push(TraceEntry {
                time,
                source,
                label,
                value,
            });
        }
    }

    /// Records an event under a source name, interning it if needed.
    /// Convenience layer for tests and cold paths.
    pub fn record_named(&mut self, time: SimTime, source: &str, label: &'static str, value: u64) {
        self.record(time, ComponentId::intern(source), label, value);
    }

    /// Keeps every entry recorded from now on (off by default), for the
    /// query helpers and exporters that read entries.
    pub fn enable_entries(&mut self) {
        self.entries.get_or_insert_with(Vec::new);
    }

    /// The kept entries in order: empty unless
    /// [`Trace::enable_entries`] was called before they were recorded.
    pub fn entries(&self) -> &[TraceEntry] {
        self.entries.as_deref().unwrap_or_default()
    }

    /// Number of entries recorded, kept or not.
    pub fn len(&self) -> usize {
        self.recorded as usize
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// The order-sensitive digest of every entry recorded, kept or not.
    /// Sources enter it by their interned id, so digests compare within
    /// one process.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Counts the entries matching `key` recorded from now on, whether or
    /// not the trace keeps entries, so a count never depends on what an
    /// observer asked to keep. Watching a key twice returns the same
    /// handle. Read the count with [`Trace::count`].
    pub fn watch(&mut self, key: (&str, &'static str)) -> Watch {
        let key = Key::new(key);
        if let Some(i) = self.counts.iter().position(|(k, _)| *k == key) {
            return Watch(i);
        }
        self.counts.push((key, 0));
        Watch(self.counts.len() - 1)
    }

    /// The count of the key [`Trace::watch`] handed out `watch` for.
    ///
    /// # Panics
    ///
    /// Panics on a handle another trace handed out that this one never
    /// issued.
    #[inline]
    pub fn count(&self, watch: Watch) -> usize {
        self.counts[watch.0].1 as usize
    }

    /// Pairs every `from` entry recorded from now on with the first
    /// unpaired `to` entry at or after it, as
    /// [`Trace::latencies_and_count`] does over kept entries, and
    /// watches `to`. Replaces an earlier pairing.
    pub fn pair(&mut self, from: (&str, &'static str), to: (&str, &'static str)) -> Watch {
        self.pairer = Some(Box::new(Pairer {
            from: Key::new(from),
            to: Key::new(to),
            starts: VecDeque::new(),
            ends: VecDeque::new(),
            latencies: Vec::new(),
        }));
        self.watch(to)
    }

    /// The latencies [`Trace::pair`]'s pairer has completed, in order.
    pub fn latencies(&self) -> &[SimTime] {
        self.pairer.as_deref().map_or(&[], |p| &p.latencies)
    }

    /// Takes [`Trace::latencies`], leaving the pairer pairing on from an
    /// empty list, so a report can keep the one copy.
    pub fn take_latencies(&mut self) -> Vec<SimTime> {
        self.pairer
            .as_deref_mut()
            .map_or_else(Vec::new, |p| std::mem::take(&mut p.latencies))
    }

    /// First kept entry matching `(source, label)`.
    pub fn first(&self, source: &str, label: &str) -> Option<&TraceEntry> {
        let id = ComponentId::lookup(source)?;
        self.entries()
            .iter()
            .find(|e| e.source == id && e.label == label)
    }

    /// All kept entries matching `(source, label)`.
    pub fn all(&self, source: &str, label: &str) -> Vec<&TraceEntry> {
        let Some(id) = ComponentId::lookup(source) else {
            return Vec::new();
        };
        self.entries()
            .iter()
            .filter(|e| e.source == id && e.label == label)
            .collect()
    }

    /// Latencies for every `(from → next to)` pair of kept entries, for
    /// jitter statistics, and the number of `to` entries, from one
    /// pass over the kept entries that collects the `from` and `to` times
    /// together. Each start pairs with the first unpaired end at or after
    /// it, both in trace order. The reference for [`Trace::pair`].
    pub fn latencies_and_count(
        &self,
        from: (&str, &str),
        to: (&str, &str),
    ) -> (Vec<SimTime>, usize) {
        let (from_id, to_id) = (ComponentId::lookup(from.0), ComponentId::lookup(to.0));
        let (mut starts, mut ends) = (Vec::new(), Vec::new());
        for e in self.entries() {
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
        for e in self.entries() {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::with_entries();
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
        let (ls, _) = t.latencies_and_count(("spi", "eot"), ("gpio", "set"));
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
    fn one_pass_and_online_latencies_match_a_reference_built_from_all() {
        let mut rng = crate::Rng::seed_from_u64(0x7ACE_0001);
        let names = [
            ("trace-pass-spi", "eot"),
            ("trace-pass-gpio", "set"),
            ("trace-pass-spi", "other"),
        ];
        let (from, to) = (names[0], names[1]);
        for case in 0..200 {
            let mut t = Trace::with_entries();
            let done = t.pair(from, to);
            let mut at = 0;
            for _ in 0..rng.range_u64(0, 40) {
                // Often several entries in one cycle: an end in the
                // cycle of its start, starts with no end between them.
                at += rng.index(3) as u64;
                let (source, label) = names[rng.index(names.len())];
                t.record_named(SimTime::from_ns(at), source, label, 0);
            }
            let (latencies, ends) = t.latencies_and_count(from, to);
            assert_eq!(latencies, reference_latencies(&t, from, to), "case {case}");
            assert_eq!(ends, t.all(to.0, to.1).len(), "case {case}");
            assert_eq!(t.latencies(), latencies, "case {case}: online pairer");
            assert_eq!(t.count(done), ends, "case {case}: online count");
        }
        // A marker in the cycle of its start pairs with it, also when it
        // was recorded first; a start with no later marker stays
        // unmatched; a name never interned counts 0.
        let mut t = Trace::with_entries();
        let done = t.pair(names[0], names[1]);
        t.record_named(SimTime::from_ns(5), "trace-pass-gpio", "set", 0);
        t.record_named(SimTime::from_ns(5), "trace-pass-spi", "eot", 0);
        t.record_named(SimTime::from_ns(9), "trace-pass-spi", "eot", 0);
        let (latencies, ends) = t.latencies_and_count(names[0], names[1]);
        assert_eq!((&latencies[..], ends), (&[SimTime::ZERO][..], 1));
        assert_eq!((t.latencies(), t.count(done)), (&latencies[..], 1));
        assert_eq!(
            t.latencies_and_count(names[0], ("trace-pass-never", "set")),
            (Vec::new(), 0)
        );
    }

    #[test]
    fn an_unkept_trace_streams_the_same_consumers_as_a_kept_one() {
        let (from, to) = (("trace-stream-spi", "eot"), ("trace-stream-gpio", "set"));
        let (mut kept, mut streamed) = (Trace::with_entries(), Trace::new());
        let (a, b) = (kept.pair(from, to), streamed.pair(from, to));
        for t in [&mut kept, &mut streamed] {
            for (at, key) in [(1, from), (3, to), (3, from), (3, to), (8, from)] {
                t.record_named(SimTime::from_ns(at), key.0, key.1, at);
            }
        }
        assert!(streamed.entries().is_empty());
        assert_eq!(kept.entries().len(), 5);
        assert_eq!(
            (streamed.len(), streamed.digest()),
            (kept.len(), kept.digest())
        );
        assert_eq!(
            (streamed.latencies(), streamed.count(b)),
            (kept.latencies(), kept.count(a))
        );
        assert_eq!(streamed, kept, "keeping entries is observation");
        assert_eq!(streamed.take_latencies(), kept.latencies());
        assert!(streamed.latencies().is_empty(), "taken");
        // A key watched late counts from then on, kept entries or not.
        let (a, b) = (kept.watch(from), streamed.watch(from));
        assert_eq!((kept.count(a), streamed.count(b)), (0, 0));
        for t in [&mut kept, &mut streamed] {
            t.record_named(SimTime::from_ns(9), from.0, from.1, 9);
        }
        assert_eq!((kept.count(a), streamed.count(b)), (1, 1));
    }

    #[test]
    fn the_digest_sees_each_entrys_time_source_label_value_and_order() {
        let spi = ComponentId::intern("trace-digest-spi");
        let gpio = ComponentId::intern("trace-digest-gpio");
        let base = [
            (SimTime::from_ns(1), spi, "eot", 0),
            (SimTime::from_ns(2), gpio, "set", 1),
            (SimTime::from_ns(2), gpio, "set", 2),
        ];
        let trace = |entries: &[(SimTime, ComponentId, &'static str, u64)]| {
            let mut t = Trace::new();
            for &(time, source, label, value) in entries {
                t.record(time, source, label, value);
            }
            t
        };
        let reference = trace(&base);
        assert_eq!(trace(&base), reference);
        let mut variants = Vec::new();
        for edit in 0..4 {
            let mut v = base;
            match edit {
                0 => v[1].0 = SimTime::from_ns(3),
                1 => v[1].1 = spi,
                2 => v[1].2 = "clr",
                _ => v[1].3 = 7,
            }
            variants.push(v);
        }
        let mut swapped = base;
        swapped.swap(1, 2);
        variants.push(swapped);
        for v in &variants {
            let t = trace(v);
            assert_eq!(t.len(), reference.len());
            assert_ne!(t.digest(), reference.digest(), "{v:?}");
            assert_ne!(t, reference, "{v:?}");
        }
        // Labels enter by value, not by the address of one literal.
        let owned: &'static str = Box::leak(String::from("eot").into_boxed_str());
        let mut copy = base;
        copy[0].2 = owned;
        assert_eq!(trace(&copy), reference);
    }

    #[test]
    fn display_contains_entries() {
        let t = sample();
        let s = t.to_string();
        assert!(s.contains("spi.eot"));
        assert!(s.contains("gpio.set"));
    }
}
