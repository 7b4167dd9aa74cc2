//! Power over simulated time.
//!
//! Evaluates a [`PowerModel`] once per [`ActivityTimeline`] window,
//! turning the whole-run averaged [`PowerReport`](crate::PowerReport)
//! into a per-component power *curve* — the time-resolved view behind
//! the paper's Figure 5 comparison. Each sample carries the window's
//! span in simulated time, the total SoC power, and the per-component
//! breakdown, ready for counter-track export or a terminal sparkline.
//! Every sample comes from [`PowerModel::report`], the crate's one
//! evaluator, either directly or as a copy of an earlier window's
//! sample for identical inputs.

use crate::model::PowerModel;
use pels_sim::{ActivitySet, ActivityTimeline, Frequency, SimTime};

/// How many preceding windows [`PowerTimeline::from_activity`] searches
/// for one it can reuse.
const MEMO_LOOKBACK: usize = 4;

/// Power over one timeline window.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSample {
    /// Window start in simulated time.
    pub start: SimTime,
    /// Window end in simulated time (exclusive); always after `start`.
    pub end: SimTime,
    /// Total SoC power over the window (components + analog floor), µW.
    pub total_uw: f64,
    /// Per-component total power (dynamic + leakage), µW, sorted
    /// descending — the order [`PowerModel::report`] produces.
    pub components: Vec<(&'static str, f64)>,
}

impl PowerSample {
    /// Evaluates `model` over `activity` recorded in `[start, end)`.
    fn evaluate(model: &PowerModel, activity: &ActivitySet, start: SimTime, end: SimTime) -> Self {
        let report = model.report(activity, SimTime::from_ps(end.as_ps() - start.as_ps()));
        PowerSample {
            start,
            end,
            total_uw: report.total().as_uw(),
            components: report
                .components()
                .iter()
                .map(|c| (c.name, c.total().as_uw()))
                .collect(),
        }
    }

    /// Window duration.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }

    /// A component's power over this window, µW (0 if absent).
    pub fn component_uw(&self, name: &str) -> f64 {
        self.components
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }
}

/// A per-window power series derived from an activity timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerTimeline {
    /// Samples in time order; spans are contiguous and non-overlapping.
    pub samples: Vec<PowerSample>,
}

impl PowerTimeline {
    /// Evaluates `model` over every window of `timeline`, converting
    /// window cycle spans to simulated time at `clock`'s period.
    ///
    /// Windows are evaluated independently, so a quiescence-stretched
    /// window (long span, little activity) correctly averages down to a
    /// low power, while a busy nominal-width window shows the peak.
    ///
    /// A window with the same span and an equal [`ActivitySet`] as one
    /// of the four windows before it reuses that window's sample:
    /// [`PowerModel::report`] is a pure function of those two inputs,
    /// so the copy is bit-identical to a fresh evaluation. A
    /// duty-cycled run repeats a handful of window shapes, so only its
    /// distinct windows cost an evaluation.
    pub fn from_activity(
        model: &PowerModel,
        timeline: &ActivityTimeline,
        clock: Frequency,
    ) -> Self {
        let mut samples: Vec<PowerSample> = Vec::with_capacity(timeline.windows.len());
        // The inputs behind each sample: span in ps and activity.
        let mut inputs: Vec<(u64, &ActivitySet)> = Vec::with_capacity(timeline.windows.len());
        for w in timeline.windows.iter().filter(|w| w.end_cycle > w.start_cycle) {
            let (start, end) = (clock.cycles(w.start_cycle), clock.cycles(w.end_cycle));
            let span = end.as_ps() - start.as_ps();
            let recent = inputs.len().saturating_sub(MEMO_LOOKBACK)..inputs.len();
            let hit = recent
                .rev()
                .find(|&i| inputs[i].0 == span && *inputs[i].1 == w.activity);
            let sample = match hit {
                Some(i) => PowerSample {
                    start,
                    end,
                    total_uw: samples[i].total_uw,
                    components: samples[i].components.clone(),
                },
                None => PowerSample::evaluate(model, &w.activity, start, end),
            };
            samples.push(sample);
            inputs.push((span, &w.activity));
        }
        PowerTimeline { samples }
    }

    /// A single-sample timeline covering `[0, window)` — the whole
    /// measurement window evaluated at once, for runs that sampled no
    /// activity timeline.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn from_window(model: &PowerModel, activity: &ActivitySet, window: SimTime) -> Self {
        let sample = PowerSample::evaluate(model, activity, SimTime::ZERO, window);
        PowerTimeline {
            samples: vec![sample],
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the timeline holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The total-power series, µW — ready for a sparkline.
    pub fn total_series(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.total_uw).collect()
    }

    /// Sorted union of every component name appearing in any sample.
    pub fn component_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .samples
            .iter()
            .flat_map(|s| s.components.iter().map(|&(n, _)| n))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Time-weighted average total power over the whole timeline, µW.
    pub fn mean_total_uw(&self) -> f64 {
        let mut energy = 0.0; // µW·ps
        let mut span = 0.0;
        for s in &self.samples {
            let d = (s.end.as_ps() - s.start.as_ps()) as f64;
            energy += s.total_uw * d;
            span += d;
        }
        if span > 0.0 {
            energy / span
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Calibration;
    use pels_sim::{ActivityKind, ActivitySet, ActivityWindow, ComponentId};

    fn model() -> PowerModel {
        let mut m = PowerModel::new(Calibration::default());
        m.add_component("ibex", 27.0).add_component("sram", 200.0);
        m
    }

    fn busy_window(start: u64, end: u64, reads: u64) -> ActivityWindow {
        let mut activity = ActivitySet::new();
        let cycles = end - start;
        activity.record(
            ComponentId::intern("ibex"),
            ActivityKind::ClockCycle,
            cycles,
        );
        activity.record(ComponentId::intern("sram"), ActivityKind::SramRead, reads);
        ActivityWindow {
            start_cycle: start,
            end_cycle: end,
            activity,
        }
    }

    #[test]
    fn busy_windows_draw_more_than_idle_ones() {
        let mut t = ActivityTimeline::new(100);
        t.windows.push(busy_window(0, 100, 500));
        t.windows.push(ActivityWindow {
            start_cycle: 100,
            end_cycle: 200,
            activity: ActivitySet::new(),
        });
        let clock = Frequency::from_mhz(100.0);
        let pt = PowerTimeline::from_activity(&model(), &t, clock);
        assert_eq!(pt.len(), 2);
        assert!(pt.samples[0].total_uw > pt.samples[1].total_uw);
        // The idle window still pays leakage + the analog floor.
        assert!(pt.samples[1].total_uw > 0.0);
        // Window spans convert to simulated time at the clock period.
        assert_eq!(pt.samples[0].start, SimTime::ZERO);
        assert_eq!(pt.samples[0].end, clock.cycles(100));
        assert_eq!(pt.samples[1].end, clock.cycles(200));
        assert!(pt.samples[0].component_uw("sram") > 0.0);
        assert_eq!(pt.samples[0].component_uw("nonexistent"), 0.0);
    }

    #[test]
    fn quiescence_stretched_window_averages_down() {
        // Same activity over 10x the span => ~10x less dynamic power.
        let mut short = ActivityTimeline::new(100);
        short.windows.push(busy_window(0, 100, 200));
        let mut long = ActivityTimeline::new(100);
        long.windows.push({
            let mut w = busy_window(0, 1000, 200);
            w.activity = short.windows[0].activity.clone();
            w
        });
        let clock = Frequency::from_mhz(100.0);
        let m = model();
        let ps = PowerTimeline::from_activity(&m, &short, clock);
        let pl = PowerTimeline::from_activity(&m, &long, clock);
        assert!(ps.samples[0].total_uw > pl.samples[0].total_uw);
    }

    #[test]
    fn mean_is_time_weighted() {
        let mut t = ActivityTimeline::new(100);
        t.windows.push(busy_window(0, 100, 1000));
        t.windows.push(ActivityWindow {
            start_cycle: 100,
            end_cycle: 1100, // 10x longer idle stretch
            activity: ActivitySet::new(),
        });
        let pt = PowerTimeline::from_activity(&model(), &t, Frequency::from_mhz(100.0));
        let mean = pt.mean_total_uw();
        let naive = pt.total_series().iter().sum::<f64>() / 2.0;
        // The long idle window dominates the weighted mean.
        assert!(mean < naive);
        assert!(mean > 0.0);
        // Degenerate case: no samples.
        assert_eq!(PowerTimeline::default().mean_total_uw(), 0.0);
        assert!(PowerTimeline::default().is_empty());
    }

    #[test]
    fn mean_weights_quiescence_stretched_windows_by_duration() {
        // One nominal-width busy window next to a 99x-stretched idle
        // window: the weighted mean must equal the hand-computed
        // Σ(p·d)/Σd, which sits very close to the idle power.
        let mut t = ActivityTimeline::new(100);
        t.windows.push(busy_window(0, 100, 1000));
        t.windows.push(ActivityWindow {
            start_cycle: 100,
            end_cycle: 10_000, // quiescence-stretched: 99 windows' span
            activity: ActivitySet::new(),
        });
        let pt = PowerTimeline::from_activity(&model(), &t, Frequency::from_mhz(100.0));
        let (busy, idle) = (pt.samples[0].total_uw, pt.samples[1].total_uw);
        let expected = (busy * 100.0 + idle * 9_900.0) / 10_000.0;
        assert!((pt.mean_total_uw() - expected).abs() <= 1e-12 * expected);
        // The stretch dominates: only 1% of the busy/idle gap survives
        // into the mean, which stays strictly between the two powers.
        assert!(pt.mean_total_uw() - idle <= (busy - idle) * 0.0101);
        assert!(pt.mean_total_uw() > idle && pt.mean_total_uw() < busy);
    }

    #[test]
    fn single_window_timeline_matches_the_whole_window_report() {
        let m = model();
        let w = busy_window(0, 400, 70);
        let window = SimTime::from_ns(4_000);
        let pt = PowerTimeline::from_window(&m, &w.activity, window);
        assert_eq!(pt.len(), 1);
        let s = &pt.samples[0];
        assert_eq!((s.start, s.end), (SimTime::ZERO, window));
        let report = m.report(&w.activity, window);
        assert_eq!(s.total_uw.to_bits(), report.total().as_uw().to_bits());
        let want: Vec<&str> = report.components().iter().map(|c| c.name).collect();
        let got: Vec<&str> = s.components.iter().map(|&(n, _)| n).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn component_names_are_sorted_union() {
        let mut t = ActivityTimeline::new(10);
        t.windows.push(busy_window(0, 10, 1));
        let pt = PowerTimeline::from_activity(&model(), &t, Frequency::from_mhz(50.0));
        let names = pt.component_names();
        assert!(names.contains(&"ibex"));
        assert!(names.contains(&"sram"));
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
