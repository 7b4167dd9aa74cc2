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

use crate::activity::ActivitySet;

/// One sampling window: the half-open cycle span `[start_cycle,
/// end_cycle)` and the activity recorded inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityWindow {
    /// First cycle of the window (inclusive).
    pub start_cycle: u64,
    /// First cycle after the window (exclusive); always `> start_cycle`.
    pub end_cycle: u64,
    /// Activity delta accrued inside the window.
    pub activity: ActivitySet,
}

impl ActivityWindow {
    /// Window width in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// A run's worth of consecutive [`ActivityWindow`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityTimeline {
    /// Nominal window width the sampler was configured with; actual
    /// windows may be longer when a quiescence skip crossed a boundary.
    pub window_cycles: u64,
    /// Windows in cycle order; spans are contiguous and non-overlapping.
    pub windows: Vec<ActivityWindow>,
}

impl ActivityTimeline {
    /// Creates an empty timeline with the given nominal window width.
    pub fn new(window_cycles: u64) -> Self {
        ActivityTimeline {
            window_cycles,
            windows: Vec::new(),
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

    /// Per-window totals of one activity kind summed across all
    /// components — a ready-to-plot series.
    pub fn kind_series(&self, kind: crate::ActivityKind) -> Vec<u64> {
        self.windows
            .iter()
            .map(|w| w.activity.kind_total(kind))
            .collect()
    }

    /// Sum of every window's activity — the whole-timeline image.
    pub fn total_activity(&self) -> ActivitySet {
        let mut total = ActivitySet::new();
        for w in &self.windows {
            total.merge(&w.activity);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivityKind, ComponentId};

    fn window(start: u64, end: u64, pulses: u64) -> ActivityWindow {
        let mut activity = ActivitySet::new();
        activity.record(
            ComponentId::intern("timeline-test-periph"),
            ActivityKind::EventPulse,
            pulses,
        );
        ActivityWindow {
            start_cycle: start,
            end_cycle: end,
            activity,
        }
    }

    #[test]
    fn series_and_totals() {
        let mut t = ActivityTimeline::new(100);
        t.windows.push(window(0, 100, 3));
        t.windows.push(window(100, 450, 1)); // a skip stretched this one
        t.windows.push(window(450, 550, 0));
        assert_eq!(t.len(), 3);
        assert_eq!(t.kind_series(ActivityKind::EventPulse), vec![3, 1, 0]);
        assert_eq!(t.windows[1].cycles(), 350);
        assert_eq!(t.total_activity().kind_total(ActivityKind::EventPulse), 4);
    }

    #[test]
    fn empty_timeline() {
        let t = ActivityTimeline::new(64);
        assert!(t.is_empty());
        assert_eq!(t.kind_series(ActivityKind::ClockCycle), Vec::<u64>::new());
        assert!(t.total_activity().is_empty());
    }
}
