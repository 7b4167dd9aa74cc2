//! Windowed activity timelines.
//!
//! A whole-run [`ActivitySet`] collapses time: it can
//! say *how much* switching happened but not *when*. A timeline slices the
//! run into consecutive cycle windows, each carrying the activity delta
//! that accrued inside it, so the power model can be evaluated per window
//! and the paper's Figure 5 bars become curves.
//!
//! Windows record their **actual** `[start_cycle, end_cycle)` span rather
//! than assuming a fixed width: the SoC's quiescence fast path skips whole
//! spans in O(1), and a sampler that forced a window boundary inside a
//! skip would perturb the very scheduler statistics it is observing. A
//! long skip therefore shows up as one long, low-activity window — which
//! is exactly what a power timeline should say about a sleeping system.
//!
//! A duty-cycled run repeats a handful of window shapes thousands of
//! times, so the timeline stores each distinct `(span, activity)` pair
//! once and keeps per window only its span and the index of its sample.
//! [`ActivityTimeline::push_row`] recognises a repeat of *any* earlier
//! sample, however far back, by the row's fingerprint — looked up as it
//! is, without hashing it again — confirmed with `==` over the row's
//! slots. Only a new sample is expanded into an [`ActivitySet`], the form
//! [`ActivityTimeline::windows`] hands out.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::activity::{ActivityRow, ActivitySet};

/// One sampling window, as [`ActivityTimeline::windows`] yields it: the
/// half-open cycle span `[start_cycle, end_cycle)` and the activity
/// recorded inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityWindow<'a> {
    /// First cycle of the window (inclusive).
    pub start_cycle: u64,
    /// First cycle after the window (exclusive).
    pub end_cycle: u64,
    /// Index of the window's distinct sample: two windows pushed in one
    /// form share it exactly when their spans and activities are equal
    /// (see [`ActivityTimeline::push`]).
    pub sample: usize,
    /// Activity delta accrued inside the window.
    pub activity: &'a ActivitySet,
}

impl ActivityWindow<'_> {
    /// Window width in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// One entry of the per-window index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start_cycle: u64,
    end_cycle: u64,
    sample: u32,
}

/// One distinct `(span, activity)` pair: the row it was pushed as, for
/// comparing later windows, and its expansion, for reading it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Sample {
    cycles: u64,
    row: ActivityRow,
    activity: ActivitySet,
}

/// Hashes a lookup key, already a mixed 64-bit fingerprint, as itself.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("lookup keys are hashed with write_u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// A run's worth of consecutive windows, stored as distinct
/// `(span in cycles, activity)` samples plus a per-window
/// `(start, end, sample)` index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityTimeline {
    /// Nominal window width the sampler was configured with; actual
    /// windows may be longer when a quiescence skip crossed a boundary.
    pub window_cycles: u64,
    /// Distinct samples in order of first appearance.
    samples: Vec<Sample>,
    /// Windows in cycle order; the sampler's spans are contiguous and
    /// non-overlapping.
    windows: Vec<Span>,
    /// Sample by fingerprint of its span and row. A fingerprint shared
    /// by unequal samples keeps its first; the others are found by a
    /// scan.
    lookup: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
}

impl ActivityTimeline {
    /// Creates an empty timeline with the given nominal window width.
    pub fn new(window_cycles: u64) -> Self {
        ActivityTimeline {
            window_cycles,
            ..Self::default()
        }
    }

    /// Appends the window `[start_cycle, end_cycle)` that recorded
    /// `activity` and returns its sample. A window whose span and
    /// activity equal an earlier window's shares that window's sample;
    /// only a new pair is copied.
    ///
    /// The set goes in as an [`ActivityRow`] over its own non-zero
    /// counters, so repeats pushed here are recognised among themselves;
    /// a sampler pushes rows of one fixed layout through
    /// [`Self::push_row`], and a repeat across the two forms may take a
    /// sample of its own.
    ///
    /// # Panics
    ///
    /// Panics if `end_cycle < start_cycle`.
    pub fn push(&mut self, start_cycle: u64, end_cycle: u64, activity: &ActivitySet) -> usize {
        self.push_row(start_cycle, end_cycle, &ActivityRow::from_set(activity))
    }

    /// Appends the window `[start_cycle, end_cycle)` whose activity is
    /// `row` and returns its sample, as [`Self::push`] does. A repeat
    /// costs one hash of the row's slots, one table probe and one slot
    /// comparison; a new sample also copies the row and expands it.
    ///
    /// # Panics
    ///
    /// Panics if `end_cycle < start_cycle`.
    pub fn push_row(&mut self, start_cycle: u64, end_cycle: u64, row: &ActivityRow) -> usize {
        let cycles = end_cycle
            .checked_sub(start_cycle)
            .expect("a window ends at or after its start");
        let key = row.fingerprint() ^ cycles.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        self.push_keyed(start_cycle, end_cycle, key, row)
    }

    /// [`Self::push_row`] under a given lookup `key`, which must be
    /// equal for equal `(span, row)` pairs.
    fn push_keyed(
        &mut self,
        start_cycle: u64,
        end_cycle: u64,
        key: u64,
        row: &ActivityRow,
    ) -> usize {
        let cycles = end_cycle - start_cycle;
        let same = |s: &Sample| s.cycles == cycles && s.row == *row;
        let found = match self.lookup.get(&key) {
            Some(&i) if same(&self.samples[i as usize]) => Some(i),
            Some(_) => self.samples.iter().position(same).map(|i| i as u32),
            None => None,
        };
        let sample = found.unwrap_or_else(|| {
            let i = self.samples.len() as u32;
            self.samples.push(Sample {
                cycles,
                row: row.clone(),
                activity: row.to_set(),
            });
            self.lookup.entry(key).or_insert(i);
            i
        });
        self.windows.push(Span {
            start_cycle,
            end_cycle,
            sample,
        });
        sample as usize
    }

    /// Appends `periods` copies of the windows from index `from` on (one
    /// period's), each `cycles` later than the one before. Each copy
    /// takes its original's sample, which is what [`Self::push_row`]
    /// finds for an equal span and row.
    pub fn repeat_period(&mut self, from: usize, periods: u64, cycles: u64) {
        let end = self.windows.len();
        for k in 1..=periods {
            for i in from..end {
                let w = self.windows[i];
                self.windows.push(Span {
                    start_cycle: w.start_cycle + k * cycles,
                    end_cycle: w.end_cycle + k * cycles,
                    sample: w.sample,
                });
            }
        }
    }

    /// Number of windows captured.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no windows were captured.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Number of distinct `(span, activity)` samples behind the windows.
    pub fn distinct(&self) -> usize {
        self.samples.len()
    }

    /// The windows in cycle order.
    pub fn windows(&self) -> impl ExactSizeIterator<Item = ActivityWindow<'_>> + '_ {
        self.windows.iter().map(|w| ActivityWindow {
            start_cycle: w.start_cycle,
            end_cycle: w.end_cycle,
            sample: w.sample as usize,
            activity: &self.samples[w.sample as usize].activity,
        })
    }

    /// Sum of every window's activity — the whole-timeline image.
    pub fn total_activity(&self) -> ActivitySet {
        let mut total = ActivitySet::new();
        for w in self.windows() {
            total.merge(w.activity);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivityKind, ComponentId};

    fn pulses(n: u64) -> ActivitySet {
        let mut activity = ActivitySet::new();
        activity.record(
            ComponentId::intern("timeline-test-periph"),
            ActivityKind::EventPulse,
            n,
        );
        activity
    }

    #[test]
    fn series_and_totals() {
        let mut t = ActivityTimeline::new(100);
        t.push(0, 100, &pulses(3));
        t.push(100, 450, &pulses(1)); // a skip stretched this one
        t.push(450, 550, &pulses(0));
        assert_eq!(t.len(), 3);
        let series: Vec<u64> = t
            .windows()
            .map(|w| w.activity.kind_total(ActivityKind::EventPulse))
            .collect();
        assert_eq!(series, vec![3, 1, 0]);
        assert_eq!(t.windows().nth(1).unwrap().cycles(), 350);
        assert_eq!(t.total_activity().kind_total(ActivityKind::EventPulse), 4);
    }

    #[test]
    fn repeats_share_one_sample_however_far_apart() {
        let mut t = ActivityTimeline::new(10);
        // Window shapes as (width, pulses): the first shape comes back
        // after six others, and six pulses over 20 cycles are another
        // sample than six over 10.
        let shapes = [
            (10, 1),
            (10, 2),
            (10, 3),
            (10, 4),
            (10, 5),
            (10, 6),
            (20, 6),
            (10, 1),
        ];
        let mut at = 0;
        for (width, n) in shapes {
            t.push(at, at + width, &pulses(n));
            at += width;
        }
        let samples: Vec<usize> = t.windows().map(|w| w.sample).collect();
        assert_eq!(samples, vec![0, 1, 2, 3, 4, 5, 6, 0]);
        assert_eq!(t.distinct(), 7);
        assert_eq!(t.len(), 8);
        // Each window still reads its own span and activity.
        let eighth = t.windows().nth(7).unwrap();
        assert_eq!((eighth.start_cycle, eighth.end_cycle), (80, 90));
        assert_eq!(eighth.activity, &pulses(1));
    }

    #[test]
    fn unequal_rows_on_one_key_get_their_own_samples_through_the_scan() {
        let mut t = ActivityTimeline::new(10);
        let rows: Vec<ActivityRow> = (1..=3).map(|n| ActivityRow::from_set(&pulses(n))).collect();
        // Every window on one key: only the first sample is in the
        // table, the others are found by the scan.
        for (k, r) in rows.iter().chain(&rows).enumerate() {
            let at = 10 * k as u64;
            t.push_keyed(at, at + 10, 7, r);
        }
        let samples: Vec<usize> = t.windows().map(|w| w.sample).collect();
        assert_eq!(samples, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(t.distinct(), 3);
        for (w, n) in t.windows().zip([1, 2, 3, 1, 2, 3]) {
            assert_eq!(w.activity, &pulses(n));
        }
        // The same row over another span is another sample, on the same
        // key too.
        assert_eq!(t.push_keyed(60, 80, 7, &rows[0]), 3);
    }

    #[test]
    fn rows_of_one_layout_dedup_like_sets() {
        let pulses_id = ComponentId::intern("timeline-test-periph");
        let mut laid = ActivityRow::default();
        crate::ActivitySink::record(&mut laid, pulses_id, ActivityKind::RegRead, 0);
        crate::ActivitySink::record(&mut laid, pulses_id, ActivityKind::EventPulse, 0);
        let layout = laid.layout();
        let mut by_row = ActivityTimeline::new(10);
        let mut by_set = ActivityTimeline::new(10);
        for (k, n) in [2, 0, 2, 5, 0].into_iter().enumerate() {
            let mut row = ActivityRow::new(layout.clone());
            crate::ActivitySink::record(&mut row, pulses_id, ActivityKind::EventPulse, n);
            let at = 10 * k as u64;
            by_row.push_row(at, at + 10, &row);
            by_set.push(at, at + 10, &pulses(n));
        }
        let windows = |t: &ActivityTimeline| -> Vec<(u64, usize, ActivitySet)> {
            t.windows()
                .map(|w| (w.start_cycle, w.sample, w.activity.clone()))
                .collect()
        };
        assert_eq!(windows(&by_row), windows(&by_set));
        assert_eq!(by_row.distinct(), 3);
    }

    #[test]
    fn empty_timeline() {
        let t = ActivityTimeline::new(64);
        assert!(t.is_empty());
        assert_eq!(t.distinct(), 0);
        assert_eq!(t.windows().len(), 0);
        assert!(t.total_activity().is_empty());
    }
}
