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
//!
//! A component flushes its counts into any [`ActivitySink`]: an
//! [`ActivitySet`] or an [`ActivityRow`] — one slot per counter the row
//! has been given, the narrow form a timeline sampler hashes, compares
//! and sums once per window.

use crate::intern::ComponentId;
use std::fmt;
use std::sync::Arc;

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
    pub fn drain(&mut self, component: ComponentId, into: &mut impl ActivitySink) {
        let c = std::mem::take(self);
        into.record(component, ActivityKind::RegRead, c.reads);
        into.record(component, ActivityKind::RegWrite, c.writes);
        into.record(component, ActivityKind::ActiveCycle, c.active_cycles);
        into.record(component, ActivityKind::EventPulse, c.pulses);
    }
}

/// Where a component flushes the activity it counted: an
/// [`ActivitySet`] or an [`ActivityRow`].
///
/// Flushes record every counter they keep, zero or not, so the first
/// flush into a fresh row gives it a slot for each.
pub trait ActivitySink {
    /// Adds `n` occurrences of `kind` for `component`.
    fn record(&mut self, component: ComponentId, kind: ActivityKind, n: u64);
}

impl ActivitySink for ActivitySet {
    #[inline]
    fn record(&mut self, component: ComponentId, kind: ActivityKind, n: u64) {
        ActivitySet::record(self, component, kind, n);
    }
}

/// The slots of an [`ActivityRow`]: one per `(component, kind)` counter,
/// in the order the row first saw them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityLayout {
    /// The counter behind each slot.
    slots: Vec<(ComponentId, ActivityKind)>,
    /// `slot + 1` of each counter, indexed by component id then kind;
    /// 0 for a counter without a slot.
    index: Vec<[u16; ActivityKind::COUNT]>,
}

impl ActivityLayout {
    /// Number of slots.
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// The slot of `(component, kind)`, if it has one.
    #[inline]
    pub fn slot(&self, component: ComponentId, kind: ActivityKind) -> Option<usize> {
        let at = self.index.get(component.index())?[kind.index()];
        (at as usize).checked_sub(1)
    }

    /// Gives `(component, kind)`, which has no slot yet, the next one.
    fn push(&mut self, component: ComponentId, kind: ActivityKind) {
        let idx = component.index();
        if idx >= self.index.len() {
            self.index.resize(idx + 1, [0; ActivityKind::COUNT]);
        }
        self.slots.push((component, kind));
        self.index[idx][kind.index()] =
            u16::try_from(self.slots.len()).expect("a layout holds fewer than 65536 slots");
    }
}

/// Activity counters in the narrow form: one `u64` per slot of an
/// [`ActivityLayout`], which holds only the counters recorded into the
/// row — a few dozen for a SoC's components, where a dense
/// [`ActivitySet`] spans every interned component times
/// [`ActivityKind::COUNT`]. Hashing, comparing, summing and clearing
/// walk the slots alone.
///
/// A counter the layout lacks gets the next slot when it is first
/// recorded. An empty row ([`ActivityRow::default`]) gives one to every
/// counter it is handed, zero or not, until its layout is fixed by
/// [`ActivityRow::adopt_layout_of`]: so the first flush of a set of
/// components lays the row out. A row with a fixed layout — every row
/// [`ActivityRow::new`] makes — skips a zero count at once, and a flush
/// into it only finds slots. Clones share the layout until one of them
/// grows it.
///
/// Two rows are equal when they hold the same activity: rows of one
/// layout compare slot by slot, rows of different layouts by their
/// [`ActivitySet`] images.
///
/// ```
/// use pels_sim::{ActivityKind, ActivityRow, ActivitySink, ComponentId};
/// let spi = ComponentId::intern("spi");
/// let mut row = ActivityRow::default();
/// row.record(spi, ActivityKind::RegRead, 0);
/// row.record(spi, ActivityKind::EventPulse, 2);
/// assert_eq!(row.counts(), &[0, 2]);
/// let mut next = ActivityRow::new(row.layout().clone());
/// next.record(spi, ActivityKind::EventPulse, 1);
/// next.add(&row);
/// assert_eq!(next.to_set().count("spi", ActivityKind::EventPulse), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ActivityRow {
    layout: Arc<ActivityLayout>,
    counts: Vec<u64>,
    /// Whether a zero count is skipped rather than given a slot.
    fixed: bool,
}

impl ActivityRow {
    /// An all-zero row over `layout`, fixed.
    pub fn new(layout: Arc<ActivityLayout>) -> Self {
        ActivityRow {
            counts: vec![0; layout.width()],
            layout,
            fixed: true,
        }
    }

    /// Fixes `row`'s layout and lays `self` out on it, keeping both
    /// rows' counts, so that adding `row` into `self` goes slot by slot.
    /// A counter only `self` holds gets a slot in the shared layout, so
    /// the two always end on one layout. Once they share it this is one
    /// pointer comparison; it re-lays `self` out only after `row` grew.
    pub fn adopt_layout_of(&mut self, row: &mut ActivityRow) {
        row.fixed = true;
        if Arc::ptr_eq(&self.layout, &row.layout) {
            return;
        }
        let mut relaid = ActivityRow::new(row.layout.clone());
        relaid.add(self);
        if !Arc::ptr_eq(&relaid.layout, &row.layout) {
            row.counts.resize(relaid.counts.len(), 0);
            row.layout = relaid.layout.clone();
        }
        *self = relaid;
    }

    /// A row holding `set`, laid out over the set's non-zero counters in
    /// component-id then kind order: equal sets give equal rows.
    pub(crate) fn from_set(set: &ActivitySet) -> Self {
        let mut row = ActivityRow::default();
        row.add_set(set);
        row
    }

    /// The row's slots.
    pub fn layout(&self) -> &Arc<ActivityLayout> {
        &self.layout
    }

    /// The counts, in slot order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count of `kind` for `component` (0 without a slot).
    pub fn count_id(&self, component: ComponentId, kind: ActivityKind) -> u64 {
        self.layout
            .slot(component, kind)
            .map_or(0, |slot| self.counts[slot])
    }

    /// Adds `other`'s counts: slot by slot when the two rows share a
    /// layout, counter by counter otherwise.
    pub fn add(&mut self, other: &ActivityRow) {
        if self.same_layout(other) {
            for (m, t) in self.counts.iter_mut().zip(&other.counts) {
                *m += t;
            }
        } else {
            other.for_each_nonzero(|id, k, n| self.record(id, k, n));
        }
    }

    /// Adds every non-zero counter of `set`.
    pub fn add_set(&mut self, set: &ActivitySet) {
        for (id, row) in set.rows() {
            for k in ActivityKind::ALL {
                if row[k.index()] > 0 {
                    self.record(id, k, row[k.index()]);
                }
            }
        }
    }

    /// Adds the counts to `set`.
    pub fn add_to(&self, set: &mut ActivitySet) {
        self.for_each_nonzero(|id, k, n| set.record(id, k, n));
    }

    /// The counts as an [`ActivitySet`].
    pub fn to_set(&self) -> ActivitySet {
        let mut set = ActivitySet::new();
        self.add_to(&mut set);
        set
    }

    /// Zeroes every slot, keeping the layout.
    pub fn clear(&mut self) {
        self.counts.fill(0);
    }

    /// A 64-bit hash of the counts, equal for rows of one layout that
    /// compare equal. Four independent multiply lanes keep the loop from
    /// waiting on one multiply chain; the last step folds the high half
    /// into the low one, so the hash can key a table as it is.
    pub(crate) fn fingerprint(&self) -> u64 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut lanes = [1u64, 2, 3, 4];
        let mut chunks = self.counts.chunks_exact(lanes.len());
        for chunk in &mut chunks {
            for (h, &n) in lanes.iter_mut().zip(chunk) {
                *h = (*h ^ n).wrapping_mul(K);
            }
        }
        for (h, &n) in lanes.iter_mut().zip(chunks.remainder()) {
            *h = (*h ^ n).wrapping_mul(K);
        }
        let h = lanes.into_iter().fold(self.counts.len() as u64, |acc, h| {
            (acc ^ h ^ (h >> 29)).wrapping_mul(K)
        });
        h ^ (h >> 32)
    }

    fn same_layout(&self, other: &ActivityRow) -> bool {
        Arc::ptr_eq(&self.layout, &other.layout) || self.layout == other.layout
    }

    fn for_each_nonzero(&self, mut f: impl FnMut(ComponentId, ActivityKind, u64)) {
        for (&(id, k), &n) in self.layout.slots.iter().zip(&self.counts) {
            if n > 0 {
                f(id, k, n);
            }
        }
    }

    /// Records `n` into a new slot for `(component, kind)`.
    #[cold]
    fn push_slot(&mut self, component: ComponentId, kind: ActivityKind, n: u64) {
        Arc::make_mut(&mut self.layout).push(component, kind);
        self.counts.push(n);
    }
}

impl ActivitySink for ActivityRow {
    #[inline]
    fn record(&mut self, component: ComponentId, kind: ActivityKind, n: u64) {
        if n == 0 && self.fixed {
            return;
        }
        match self.layout.slot(component, kind) {
            Some(slot) => self.counts[slot] += n,
            None => self.push_slot(component, kind, n),
        }
    }
}

impl PartialEq for ActivityRow {
    fn eq(&self, other: &Self) -> bool {
        if self.same_layout(other) {
            self.counts == other.counts
        } else {
            self.to_set() == other.to_set()
        }
    }
}

impl Eq for ActivityRow {}

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

    /// A row laid out over `pairs`, recorded in that order.
    fn row_of(pairs: &[(&str, ActivityKind)]) -> ActivityRow {
        let mut row = ActivityRow::default();
        for &(name, k) in pairs {
            ActivitySink::record(&mut row, ComponentId::intern(name), k, 0);
        }
        row
    }

    #[test]
    fn a_row_gives_each_new_counter_the_next_slot() {
        let row = row_of(&[
            ("act-lay-b", ActivityKind::RegRead),
            ("act-lay-a", ActivityKind::ScmRead),
            ("act-lay-b", ActivityKind::RegRead),
            ("act-lay-b", ActivityKind::EventPulse),
        ]);
        let (a, b) = (
            ComponentId::intern("act-lay-a"),
            ComponentId::intern("act-lay-b"),
        );
        let layout = row.layout();
        assert_eq!(layout.width(), 3);
        assert_eq!(row.counts(), &[0, 0, 0]);
        assert_eq!(layout.slot(b, ActivityKind::RegRead), Some(0));
        assert_eq!(layout.slot(a, ActivityKind::ScmRead), Some(1));
        assert_eq!(layout.slot(b, ActivityKind::EventPulse), Some(2));
        assert_eq!(layout.slot(a, ActivityKind::RegRead), None);
        assert_eq!(
            layout.slot(ComponentId::intern("act-lay-none"), ActivityKind::RegRead),
            None
        );
        // A clone that grows leaves the original's layout alone.
        let mut grown = row.clone();
        ActivitySink::record(&mut grown, a, ActivityKind::RegRead, 4);
        assert_eq!((grown.layout().width(), row.layout().width()), (4, 3));
        assert_eq!(grown.count_id(a, ActivityKind::RegRead), 4);
        // A fixed layout skips a zero count; a non-zero one still gets a
        // slot.
        ActivityRow::default().adopt_layout_of(&mut grown);
        ActivitySink::record(&mut grown, a, ActivityKind::RegWrite, 0);
        assert_eq!(grown.layout().width(), 4);
        ActivitySink::record(&mut grown, a, ActivityKind::RegWrite, 1);
        assert_eq!(grown.layout().width(), 5);
        assert_eq!(ActivityRow::new(row.layout().clone()).counts(), &[0, 0, 0]);
    }

    #[test]
    fn adopting_a_layout_shares_it_and_keeps_both_rows_counts() {
        let (a, b, c) = (
            ComponentId::intern("act-adopt-a"),
            ComponentId::intern("act-adopt-b"),
            ComponentId::intern("act-adopt-c"),
        );
        let mut row = row_of(&[
            ("act-adopt-b", ActivityKind::RegRead),
            ("act-adopt-c", ActivityKind::BusStall),
        ]);
        ActivitySink::record(&mut row, c, ActivityKind::BusStall, 2);
        // `closed` holds a counter the row has no slot for.
        let mut closed = ActivityRow::default();
        ActivitySink::record(&mut closed, a, ActivityKind::RegWrite, 5);
        ActivitySink::record(&mut closed, b, ActivityKind::RegRead, 1);
        let (closed_set, row_set) = (closed.to_set(), row.to_set());
        closed.adopt_layout_of(&mut row);
        assert!(Arc::ptr_eq(closed.layout(), row.layout()));
        assert_eq!(row.layout().width(), 3);
        assert_eq!((closed.to_set(), row.to_set()), (closed_set, row_set));
        // The row is fixed now: a zero count finds no new slot.
        ActivitySink::record(&mut row, a, ActivityKind::EventPulse, 0);
        assert_eq!(row.layout().width(), 3);
        // Adopting again changes nothing, and adds go slot by slot.
        let layout = row.layout().clone();
        closed.adopt_layout_of(&mut row);
        closed.add(&row);
        assert!(Arc::ptr_eq(closed.layout(), &layout));
        assert_eq!(closed.counts(), &[1, 2, 5]);
        // A row that grows is adopted again.
        ActivitySink::record(&mut row, a, ActivityKind::EventPulse, 3);
        closed.adopt_layout_of(&mut row);
        assert!(Arc::ptr_eq(closed.layout(), row.layout()));
        assert_eq!(closed.count_id(a, ActivityKind::RegWrite), 5);
        assert_eq!(closed.count_id(a, ActivityKind::EventPulse), 0);
    }

    #[test]
    fn a_row_records_sums_and_expands_like_a_set() {
        let pairs = [
            ("act-row-x", ActivityKind::ClockCycle),
            ("act-row-y", ActivityKind::SramRead),
            ("act-row-x", ActivityKind::BusStall),
        ];
        let mut row = row_of(&pairs);
        let mut set = ActivitySet::new();
        for (i, &(name, k)) in pairs.iter().enumerate() {
            let id = ComponentId::intern(name);
            ActivitySink::record(&mut row, id, k, i as u64 * 3);
            set.record(id, k, i as u64 * 3);
        }
        assert_eq!(row.counts(), &[0, 3, 6]);
        assert_eq!(row.to_set(), set);
        assert_eq!(row, ActivityRow::from_set(&set));
        let mut twice = ActivityRow::new(row.layout().clone());
        twice.add(&row);
        twice.add(&row);
        assert_eq!(
            twice.count_id(ComponentId::intern("act-row-x"), ActivityKind::BusStall),
            12
        );
        let mut doubled = set.clone();
        row.add_to(&mut doubled);
        assert_eq!(twice.to_set(), doubled);
        // A row over another layout adds by counter.
        let mut other = ActivityRow::from_set(&set);
        other.add(&row);
        assert_eq!(other.to_set(), doubled);
        // Added into a row of the first layout, it lines up slot by slot.
        let mut relaid = ActivityRow::new(row.layout().clone());
        relaid.add(&other);
        assert_eq!(relaid.counts(), twice.counts());
        twice.clear();
        assert_eq!(twice.counts(), &[0, 0, 0]);
        assert_eq!(twice, ActivityRow::default());
    }

    #[test]
    fn row_equality_and_fingerprint_follow_the_activity() {
        let layout = row_of(&[
            ("act-fp-x", ActivityKind::BusStall),
            ("act-fp-x", ActivityKind::BusTransfer),
        ])
        .layout()
        .clone();
        let x = ComponentId::intern("act-fp-x");
        let row = |stall, transfer| {
            let mut r = ActivityRow::new(layout.clone());
            ActivitySink::record(&mut r, x, ActivityKind::BusStall, stall);
            ActivitySink::record(&mut r, x, ActivityKind::BusTransfer, transfer);
            r
        };
        assert_eq!(row(3, 0), row(3, 0));
        assert_eq!(row(3, 0).fingerprint(), row(3, 0).fingerprint());
        // The same count under another kind is other activity.
        assert_ne!(row(3, 0), row(0, 3));
        assert_ne!(row(3, 0).fingerprint(), row(0, 3).fingerprint());
        // Zero rows of any layouts hold the same (no) activity.
        assert_eq!(row(0, 0), ActivityRow::default());
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
