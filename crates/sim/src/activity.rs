//! Switching-activity accounting.
//!
//! The paper estimates power with Synopsys PrimeTime: switching activity
//! from RTL simulation weighted by extracted capacitances. Our substitute
//! keeps the first half exact — every model counts its activity cycle by
//! cycle in its own state and flushes the counts here — and the
//! `pels-power` crate supplies literature-calibrated per-event energies
//! for the second half.
//!
//! Counters are stored densely: one `[u64; ActivityKind::COUNT]` row per
//! interned [`ComponentId`], so [`ActivitySet::record`] is a
//! bounds-checked array add with no allocation and no string hashing. The
//! string-keyed query API survives as a thin lookup layer over the
//! interning registry.

use crate::intern::ComponentId;
use std::fmt;

/// A class of energy-consuming activity.
///
/// Each variant maps to a per-event energy in the power model's calibration
/// table; the split follows the breakdown PrimeTime reports (clock tree,
/// registers, memories, bus, logic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum ActivityKind {
    /// A cycle in which the component's clock toggled (clock-tree load).
    ClockCycle,
    /// A cycle in which the component did useful work (datapath active).
    ActiveCycle,
    /// Architectural register file read port access.
    RegRead,
    /// Architectural register file write port access.
    RegWrite,
    /// SRAM macro read access (paper: the power-hungry path, Section I).
    SramRead,
    /// SRAM macro write access.
    SramWrite,
    /// Standard-cell-memory read (PELS private microcode fetch).
    ScmRead,
    /// Standard-cell-memory write (microcode load).
    ScmWrite,
    /// A transfer completing on the system interconnect.
    BusTransfer,
    /// A cycle spent arbitrating / stalled on the interconnect.
    BusStall,
    /// One instruction retired (CPU) or one command executed (PELS).
    InstrRetired,
    /// One instruction fetch issued to memory.
    InstrFetch,
    /// A single-wire event pulse driven or consumed.
    EventPulse,
    /// Interrupt entry/exit sequencing work.
    IrqOverhead,
}

impl ActivityKind {
    /// Number of kinds (the width of a dense counter row).
    pub const COUNT: usize = 14;

    /// All kinds, for iteration in reports.
    pub const ALL: [ActivityKind; ActivityKind::COUNT] = [
        ActivityKind::ClockCycle,
        ActivityKind::ActiveCycle,
        ActivityKind::RegRead,
        ActivityKind::RegWrite,
        ActivityKind::SramRead,
        ActivityKind::SramWrite,
        ActivityKind::ScmRead,
        ActivityKind::ScmWrite,
        ActivityKind::BusTransfer,
        ActivityKind::BusStall,
        ActivityKind::InstrRetired,
        ActivityKind::InstrFetch,
        ActivityKind::EventPulse,
        ActivityKind::IrqOverhead,
    ];

    /// Dense index of this kind (declaration order, matching [`Self::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ActivityKind::ClockCycle => "clock_cycle",
            ActivityKind::ActiveCycle => "active_cycle",
            ActivityKind::RegRead => "reg_read",
            ActivityKind::RegWrite => "reg_write",
            ActivityKind::SramRead => "sram_read",
            ActivityKind::SramWrite => "sram_write",
            ActivityKind::ScmRead => "scm_read",
            ActivityKind::ScmWrite => "scm_write",
            ActivityKind::BusTransfer => "bus_transfer",
            ActivityKind::BusStall => "bus_stall",
            ActivityKind::InstrRetired => "instr_retired",
            ActivityKind::InstrFetch => "instr_fetch",
            ActivityKind::EventPulse => "event_pulse",
            ActivityKind::IrqOverhead => "irq_overhead",
        }
    }
}

impl fmt::Display for ActivityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

type Row = [u64; ActivityKind::COUNT];

const ZERO_ROW: Row = [0; ActivityKind::COUNT];

/// Per-component, per-kind activity counters.
///
/// Components are identified by interned [`ComponentId`]s; rows are stored
/// densely indexed by id, so [`ActivitySet::record`] is an array add with
/// zero heap allocation on the steady state (the row vector grows only the
/// first time a new component records). String-keyed queries resolve the
/// name through the interning registry without allocating.
///
/// ```
/// use pels_sim::{ActivityKind, ActivitySet, ComponentId};
/// let sram = ComponentId::intern("sram");
/// let mut a = ActivitySet::new();
/// a.record(sram, ActivityKind::SramRead, 3);
/// a.record(sram, ActivityKind::SramRead, 1);
/// assert_eq!(a.count("sram", ActivityKind::SramRead), 4);
/// ```
#[derive(Debug, Default)]
pub struct ActivitySet {
    /// `counts[id][kind]`, indexed by `ComponentId::index()`.
    counts: Vec<Row>,
}

impl Clone for ActivitySet {
    fn clone(&self) -> Self {
        ActivitySet {
            counts: self.counts.clone(),
        }
    }

    /// Copies `source` into this set's existing row storage.
    fn clone_from(&mut self, source: &Self) {
        self.counts.clone_from(&source.counts);
    }
}

impl ActivitySet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` occurrences of `kind` for `component`.
    ///
    /// Components call it when they flush their own counts: after the
    /// first record for a given component it performs no allocation and
    /// no hashing.
    #[inline]
    pub fn record(&mut self, component: ComponentId, kind: ActivityKind, n: u64) {
        if n == 0 {
            return;
        }
        let idx = component.index();
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, ZERO_ROW);
        }
        self.counts[idx][kind.index()] += n;
    }

    /// Adds `n` occurrences of `kind` for the component named `component`,
    /// interning the name if needed. Convenience layer for cold paths and
    /// tests; hot paths should hold a [`ComponentId`].
    pub fn record_named(&mut self, component: &str, kind: ActivityKind, n: u64) {
        self.record(ComponentId::intern(component), kind, n);
    }

    /// The counter row of `component`, indexed by [`ActivityKind::index`]
    /// (all zeros when the component never recorded).
    pub fn row(&self, component: ComponentId) -> &[u64; ActivityKind::COUNT] {
        self.counts.get(component.index()).unwrap_or(&ZERO_ROW)
    }

    /// Every component with at least one non-zero counter and its row,
    /// in id (interning) order — the dense view evaluators walk without
    /// resolving names.
    pub fn rows(&self) -> impl Iterator<Item = (ComponentId, &[u64; ActivityKind::COUNT])> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, row)| **row != ZERO_ROW)
            .map(|(i, row)| (ComponentId::from_index(i), row))
    }

    /// Count of `kind` recorded for the component with id `component`.
    pub fn count_id(&self, component: ComponentId, kind: ActivityKind) -> u64 {
        self.row(component)[kind.index()]
    }

    /// Count of `kind` recorded for `component` (no allocation: resolves
    /// the name through the interning registry).
    pub fn count(&self, component: &str, kind: ActivityKind) -> u64 {
        ComponentId::lookup(component)
            .map(|id| self.count_id(id, kind))
            .unwrap_or(0)
    }

    /// Sum of `kind` across all components (one column scan).
    pub fn kind_total(&self, kind: ActivityKind) -> u64 {
        let k = kind.index();
        self.counts.iter().map(|row| row[k]).sum()
    }

    /// Ids of components with at least one non-zero counter, sorted by
    /// name for deterministic reporting. Each name is resolved once: a
    /// comparator calling [`ComponentId::name`] would lock the global
    /// registry twice per comparison.
    fn present(&self) -> Vec<ComponentId> {
        let mut ids: Vec<ComponentId> = self.rows().map(|(id, _)| id).collect();
        ids.sort_by_cached_key(|id| id.name());
        ids
    }

    /// Sorted list of component names present in the set.
    pub fn components(&self) -> Vec<&'static str> {
        self.present().into_iter().map(|id| id.name()).collect()
    }

    /// Iterates over `(component, kind, count)` for every non-zero
    /// counter, components sorted by name, kinds in declaration order —
    /// the same deterministic order the original `BTreeMap` keyed by
    /// `(String, ActivityKind)` produced.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, ActivityKind, u64)> + '_ {
        self.present().into_iter().flat_map(move |id| {
            let row = *self.row(id);
            ActivityKind::ALL.into_iter().filter_map(move |k| {
                let n = row[k.index()];
                (n > 0).then_some((id.name(), k, n))
            })
        })
    }

    /// Merges another set into this one (counts add).
    pub fn merge(&mut self, other: &ActivitySet) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), ZERO_ROW);
        }
        // Over the flattened counters, so the adds vectorise.
        let theirs = other.counts.as_flattened();
        for (m, t) in self.counts.as_flattened_mut().iter_mut().zip(theirs) {
            *m += t;
        }
    }

    /// Returns the difference `self - baseline`: the activity recorded
    /// since `baseline` was an image of this set.
    ///
    /// `baseline` must not exceed `self` in any counter; debug builds
    /// assert it, since an underflow means the two images do not share
    /// a history.
    pub fn delta_from(&self, baseline: &ActivitySet) -> ActivitySet {
        debug_assert!(
            baseline.counts[self.counts.len().min(baseline.counts.len())..]
                .iter()
                .all(|row| *row == ZERO_ROW),
            "baseline holds activity this set never recorded"
        );
        let mut out = ActivitySet {
            counts: self.counts.clone(),
        };
        for (mine, base) in out.counts.iter_mut().zip(&baseline.counts) {
            for (m, b) in mine.iter_mut().zip(base) {
                debug_assert!(*m >= *b, "baseline counter {b} exceeds {m}");
                *m = m.wrapping_sub(*b);
            }
        }
        out
    }

    /// Zeroes every counter, keeping the row storage for reuse.
    pub fn clear(&mut self) {
        self.counts.fill(ZERO_ROW);
    }

    /// A 64-bit hash of the counters that agrees with `==`: equal sets
    /// hash equal, whatever trailing all-zero rows either holds. Four
    /// independent multiply lanes keep the loop from waiting on one
    /// multiply chain.
    pub fn fingerprint(&self) -> u64 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let len = self
            .counts
            .iter()
            .rposition(|row| *row != ZERO_ROW)
            .map_or(0, |i| i + 1);
        let words = self.counts[..len].as_flattened();
        let mut lanes = [1u64, 2, 3, 4];
        let mut chunks = words.chunks_exact(lanes.len());
        for chunk in &mut chunks {
            for (h, &n) in lanes.iter_mut().zip(chunk) {
                *h = (*h ^ n).wrapping_mul(K);
            }
        }
        for (h, &n) in lanes.iter_mut().zip(chunks.remainder()) {
            *h = (*h ^ n).wrapping_mul(K);
        }
        lanes
            .into_iter()
            .fold(words.len() as u64, |acc, h| (acc ^ h ^ (h >> 29)).wrapping_mul(K))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|row| *row == ZERO_ROW)
    }
}

/// The activity one component counts itself between flushes: register
/// reads and writes, busy cycles and event pulses. A component owns one
/// and hands it to an [`ActivitySet`] only through [`Self::drain`], from
/// its own `drain_activity`; being component state, it takes part in the
/// component's equality. Peripherals count all four kinds, PELS its
/// config-port accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityCounter {
    /// Register reads (`RegRead`).
    pub reads: u64,
    /// Register writes (`RegWrite`).
    pub writes: u64,
    /// Busy cycles, ticked or caught up (`ActiveCycle`).
    pub active_cycles: u64,
    /// Event pulses raised (`EventPulse`).
    pub pulses: u64,
}

impl ActivityCounter {
    /// Adds the counts to `into` under `component` and restarts them.
    pub fn drain(&mut self, component: ComponentId, into: &mut ActivitySet) {
        let c = std::mem::take(self);
        into.record(component, ActivityKind::RegRead, c.reads);
        into.record(component, ActivityKind::RegWrite, c.writes);
        into.record(component, ActivityKind::ActiveCycle, c.active_cycles);
        into.record(component, ActivityKind::EventPulse, c.pulses);
    }
}

/// Two sets are equal when every component has identical counters; rows of
/// zeros (including trailing rows one set has and the other lacks) do not
/// distinguish them.
impl PartialEq for ActivitySet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.counts.len() <= other.counts.len() {
            (&self.counts, &other.counts)
        } else {
            (&other.counts, &self.counts)
        };
        // One flat slice comparison (a `memcmp`) over the shared rows,
        // then the longer set's extra rows must be all zero.
        let (head, tail) = long.split_at(short.len());
        short.as_flattened() == head.as_flattened() && tail.iter().all(|row| *row == ZERO_ROW)
    }
}

impl Eq for ActivitySet {}

impl fmt::Display for ActivitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "activity:")?;
        for (c, k, n) in self.iter() {
            writeln!(f, "  {c:<16} {k:<14} {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let ibex = ComponentId::intern("act-ibex");
        let pels = ComponentId::intern("act-pels");
        let mut a = ActivitySet::new();
        a.record(ibex, ActivityKind::InstrRetired, 10);
        a.record(ibex, ActivityKind::SramRead, 12);
        a.record(pels, ActivityKind::ScmRead, 4);
        assert_eq!(a.count("act-ibex", ActivityKind::InstrRetired), 10);
        assert_eq!(a.count("act-ibex", ActivityKind::ScmRead), 0);
        assert_eq!(a.kind_total(ActivityKind::ScmRead), 4);
        assert_eq!(a.components(), vec!["act-ibex", "act-pels"]);
    }

    #[test]
    fn unknown_component_reads_as_zero() {
        let a = ActivitySet::new();
        assert_eq!(a.count("never-interned-component", ActivityKind::RegRead), 0);
    }

    #[test]
    fn zero_records_are_ignored() {
        let x = ComponentId::intern("act-zero");
        let mut a = ActivitySet::new();
        a.record(x, ActivityKind::RegRead, 0);
        assert!(a.is_empty());
    }

    #[test]
    fn merge_adds_counts() {
        let x = ComponentId::intern("act-mx");
        let y = ComponentId::intern("act-my");
        let mut a = ActivitySet::new();
        a.record(x, ActivityKind::RegRead, 1);
        let mut b = ActivitySet::new();
        b.record(x, ActivityKind::RegRead, 2);
        b.record(y, ActivityKind::RegWrite, 3);
        a.merge(&b);
        assert_eq!(a.count_id(x, ActivityKind::RegRead), 3);
        assert_eq!(a.count_id(y, ActivityKind::RegWrite), 3);
    }

    #[test]
    fn delta_isolates_window() {
        let x = ComponentId::intern("act-dx");
        let y = ComponentId::intern("act-dy");
        let mut base = ActivitySet::new();
        base.record(x, ActivityKind::BusTransfer, 5);
        let mut later = base.clone();
        later.record(x, ActivityKind::BusTransfer, 2);
        later.record(y, ActivityKind::EventPulse, 1);
        let d = later.delta_from(&base);
        assert_eq!(d.count_id(x, ActivityKind::BusTransfer), 2);
        assert_eq!(d.count_id(y, ActivityKind::EventPulse), 1);
    }

    #[test]
    fn clear_zeroes_and_fingerprint_follows_equality() {
        let x = ComponentId::intern("act-fpx");
        let pad = ComponentId::intern("act-fppad");
        let mut a = ActivitySet::new();
        a.record(x, ActivityKind::BusStall, 3);
        let mut padded = a.clone();
        padded.record(pad, ActivityKind::BusStall, 1);
        let mut b = padded.clone();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.fingerprint(), ActivitySet::new().fingerprint());
        b.record(x, ActivityKind::BusStall, 3);
        // b keeps pad's (now zero) row: equal to a, and hashed alike.
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), padded.fingerprint());
        // The same count under another kind is another set.
        let mut c = ActivitySet::new();
        c.record(x, ActivityKind::BusTransfer, 3);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds")]
    fn delta_from_a_larger_baseline_is_caught() {
        let x = ComponentId::intern("act-under");
        let mut small = ActivitySet::new();
        small.record(x, ActivityKind::RegRead, 1);
        let mut big = small.clone();
        big.record(x, ActivityKind::RegRead, 1);
        let _ = small.delta_from(&big);
    }

    #[test]
    fn equality_ignores_zero_rows() {
        let x = ComponentId::intern("act-eqx");
        let pad = ComponentId::intern("act-eqpad");
        let mut a = ActivitySet::new();
        a.record(x, ActivityKind::ClockCycle, 1);
        let mut b = ActivitySet::new();
        b.record(pad, ActivityKind::ClockCycle, 1);
        b.record(pad, ActivityKind::ClockCycle, 0);
        let mut c = ActivitySet::new();
        c.record(x, ActivityKind::ClockCycle, 1);
        // b has a row a lacks; c matches a exactly.
        assert_ne!(a, b);
        assert_eq!(a, c);
        // c grows an all-zero row for pad (interned after x): still
        // equal in either order. A non-zero row there is not.
        c.merge(&b.delta_from(&b));
        assert_eq!(a, c);
        assert_eq!(c, a);
        c.merge(&b);
        assert_ne!(a, c);
        assert_ne!(c, a);
    }

    #[test]
    fn iter_is_sorted_by_name_then_kind() {
        let b = ComponentId::intern("act-iter-b");
        let a_id = ComponentId::intern("act-iter-a");
        let mut s = ActivitySet::new();
        s.record(b, ActivityKind::RegWrite, 1);
        s.record(a_id, ActivityKind::RegRead, 2);
        s.record(a_id, ActivityKind::ClockCycle, 3);
        let got: Vec<_> = s.iter().collect();
        assert_eq!(
            got,
            vec![
                ("act-iter-a", ActivityKind::ClockCycle, 3),
                ("act-iter-a", ActivityKind::RegRead, 2),
                ("act-iter-b", ActivityKind::RegWrite, 1),
            ]
        );
    }

    #[test]
    fn rows_skip_zero_rows_in_id_order() {
        let x = ComponentId::intern("act-rows-x");
        let pad = ComponentId::intern("act-rows-pad");
        let y = ComponentId::intern("act-rows-y");
        let mut s = ActivitySet::new();
        s.record(y, ActivityKind::ScmRead, 4);
        s.record(x, ActivityKind::ClockCycle, 2);
        let got: Vec<_> = s
            .rows()
            .map(|(id, row)| (id, row[ActivityKind::ScmRead.index()]))
            .collect();
        assert_eq!(got, vec![(x, 0), (y, 4)]);
        assert_eq!(s.row(pad), &[0; ActivityKind::COUNT]);
        assert_eq!(s.row(x)[ActivityKind::ClockCycle.index()], 2);
    }

    #[test]
    fn activity_counter_drains_every_kind_and_resets() {
        let mut c = ActivityCounter {
            reads: 2,
            writes: 1,
            active_cycles: 5,
            pulses: 3,
        };
        let mut act = ActivitySet::new();
        c.drain(ComponentId::intern("act-counter"), &mut act);
        assert_eq!(act.count("act-counter", ActivityKind::RegRead), 2);
        assert_eq!(act.count("act-counter", ActivityKind::RegWrite), 1);
        assert_eq!(act.count("act-counter", ActivityKind::ActiveCycle), 5);
        assert_eq!(act.count("act-counter", ActivityKind::EventPulse), 3);
        assert_eq!(c, ActivityCounter::default());
    }

    #[test]
    fn display_lists_all_entries() {
        let mut a = ActivitySet::new();
        a.record_named("act-disp", ActivityKind::ClockCycle, 7);
        let s = a.to_string();
        assert!(s.contains("clock_cycle"));
        assert!(s.contains('7'));
    }

    #[test]
    fn all_kinds_have_distinct_labels() {
        let mut labels: Vec<_> = ActivityKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ActivityKind::ALL.len());
    }

    #[test]
    fn kind_index_matches_declaration_order() {
        for (i, k) in ActivityKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
