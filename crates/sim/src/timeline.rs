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
//! [`ActivityTimeline::push`] recognises a repeat of *any* earlier
//! sample, however far back, by a fingerprint lookup confirmed with `==`.

use std::collections::HashMap;

use crate::activity::ActivitySet;

/// One sampling window, as [`ActivityTimeline::windows`] yields it: the
/// half-open cycle span `[start_cycle, end_cycle)` and the activity
/// recorded inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityWindow<'a> {
    /// First cycle of the window (inclusive).
    pub start_cycle: u64,
    /// First cycle after the window (exclusive).
    pub end_cycle: u64,
    /// Index of the window's distinct sample: two windows share it
    /// exactly when their spans and activities are equal.
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

/// A run's worth of consecutive windows, stored as distinct
/// `(span in cycles, activity)` samples plus a per-window
/// `(start, end, sample)` index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityTimeline {
    /// Nominal window width the sampler was configured with; actual
    /// windows may be longer when a quiescence skip crossed a boundary.
    pub window_cycles: u64,
    /// Distinct samples in order of first appearance.
    samples: Vec<(u64, ActivitySet)>,
    /// Windows in cycle order; the sampler's spans are contiguous and
    /// non-overlapping.
    windows: Vec<Span>,
    /// Sample by fingerprint of its span and activity. A fingerprint
    /// shared by unequal samples keeps its first; the others are found
    /// by a scan.
    lookup: HashMap<u64, u32>,
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
    /// # Panics
    ///
    /// Panics if `end_cycle < start_cycle`.
    pub fn push(&mut self, start_cycle: u64, end_cycle: u64, activity: &ActivitySet) -> usize {
        let cycles = end_cycle
            .checked_sub(start_cycle)
            .expect("a window ends at or after its start");
        let same = |(c, a): &(u64, ActivitySet)| *c == cycles && a == activity;
        let key = activity.fingerprint() ^ cycles.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let found = match self.lookup.get(&key) {
            Some(&i) if same(&self.samples[i as usize]) => Some(i),
            Some(_) => self.samples.iter().position(same).map(|i| i as u32),
            None => None,
        };
        let sample = found.unwrap_or_else(|| {
            let i = self.samples.len() as u32;
            self.samples.push((cycles, activity.clone()));
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
            activity: &self.samples[w.sample as usize].1,
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
    fn empty_timeline() {
        let t = ActivityTimeline::new(64);
        assert!(t.is_empty());
        assert_eq!(t.distinct(), 0);
        assert_eq!(t.windows().len(), 0);
        assert!(t.total_activity().is_empty());
    }
}
