//! Power over simulated time.
//!
//! Evaluates a [`PowerModel`] over an [`ActivityTimeline`], turning the
//! whole-run averaged [`PowerReport`](crate::PowerReport) into a
//! per-component power *curve* — the time-resolved view behind the
//! paper's Figure 5 comparison. Like the activity timeline, a
//! [`PowerTimeline`] stores each distinct sample once — total SoC power
//! and the per-component breakdown — plus a per-window
//! `(start, end, sample)` index in simulated time. Every sample comes
//! from [`PowerModel::report`], the crate's one evaluator, called once
//! per distinct `(span, activity)` pair: the report is a pure function
//! of those two inputs, so a window that shares a sample reads exactly
//! the value a fresh evaluation would give.

use std::ops::Deref;

use crate::model::PowerModel;
use pels_sim::{ActivitySet, ActivityTimeline, Frequency, SimTime};

/// Power over one distinct `(span, activity)` input.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSample {
    /// Total SoC power (components + analog floor), µW.
    pub total_uw: f64,
    /// Per-component total power (dynamic + leakage), µW, sorted
    /// descending — the order [`PowerModel::report`] produces.
    pub components: Vec<(&'static str, f64)>,
}

impl PowerSample {
    /// Evaluates `model` over `activity` recorded in a window `span` long.
    fn evaluate(model: &PowerModel, activity: &ActivitySet, span: SimTime) -> Self {
        let report = model.report(activity, span);
        PowerSample {
            total_uw: report.total().as_uw(),
            components: report
                .components()
                .iter()
                .map(|c| (c.name, c.total().as_uw()))
                .collect(),
        }
    }

    /// A component's power, µW (0 if absent).
    pub fn component_uw(&self, name: &str) -> f64 {
        self.components
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }
}

/// One window of a [`PowerTimeline`]: its span in simulated time and
/// the sample it draws. Dereferences to the [`PowerSample`], so
/// `window.total_uw` and `window.components` read the window's power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerWindow<'a> {
    /// Window start in simulated time.
    pub start: SimTime,
    /// Window end in simulated time (exclusive); always after `start`.
    pub end: SimTime,
    /// Index of the distinct sample in [`PowerTimeline::samples`].
    pub sample: usize,
    power: &'a PowerSample,
}

impl PowerWindow<'_> {
    /// Window duration.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

impl Deref for PowerWindow<'_> {
    type Target = PowerSample;

    fn deref(&self) -> &PowerSample {
        self.power
    }
}

/// One entry of the per-window index, spans in ps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Span {
    pub(crate) start_ps: u64,
    pub(crate) end_ps: u64,
    pub(crate) sample: u32,
}

/// A per-window power series derived from an activity timeline: distinct
/// samples plus a per-window index in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerTimeline {
    /// Distinct samples in order of first appearance.
    pub(crate) samples: Vec<PowerSample>,
    /// Windows in time order; spans are contiguous and non-overlapping.
    pub(crate) windows: Vec<Span>,
}

impl PowerTimeline {
    /// Evaluates `model` over every window of `timeline`, converting
    /// window cycle spans to simulated time at `clock`'s period.
    /// Zero-width windows cover no time and are left out.
    ///
    /// Windows are evaluated independently, so a quiescence-stretched
    /// window (long span, little activity) correctly averages down to a
    /// low power, while a busy nominal-width window shows the peak.
    /// The timeline already names each window's distinct
    /// `(span, activity)` sample, so each sample is evaluated once, the
    /// first time a window draws it.
    pub fn from_activity(
        model: &PowerModel,
        timeline: &ActivityTimeline,
        clock: Frequency,
    ) -> Self {
        let mut out = PowerTimeline {
            samples: Vec::with_capacity(timeline.distinct()),
            windows: Vec::with_capacity(timeline.len()),
        };
        // The power sample behind each activity sample, once evaluated.
        let mut evaluated: Vec<Option<u32>> = vec![None; timeline.distinct()];
        for w in timeline.windows().filter(|w| w.end_cycle > w.start_cycle) {
            let sample = *evaluated[w.sample].get_or_insert_with(|| {
                let span = clock.cycles(w.cycles());
                out.samples
                    .push(PowerSample::evaluate(model, w.activity, span));
                (out.samples.len() - 1) as u32
            });
            out.windows.push(Span {
                start_ps: clock.cycles(w.start_cycle).as_ps(),
                end_ps: clock.cycles(w.end_cycle).as_ps(),
                sample,
            });
        }
        out
    }

    /// A single-window timeline covering `[0, window)` — the whole
    /// measurement window evaluated at once, for runs that sampled no
    /// activity timeline.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn from_window(model: &PowerModel, activity: &ActivitySet, window: SimTime) -> Self {
        PowerTimeline {
            samples: vec![PowerSample::evaluate(model, activity, window)],
            windows: vec![Span {
                start_ps: 0,
                end_ps: window.as_ps(),
                sample: 0,
            }],
        }
    }

    /// Appends a window drawing a sample of its own — how tests build a
    /// timeline by hand.
    #[cfg(test)]
    pub(crate) fn push(&mut self, start: SimTime, end: SimTime, sample: PowerSample) {
        self.windows.push(Span {
            start_ps: start.as_ps(),
            end_ps: end.as_ps(),
            sample: self.samples.len() as u32,
        });
        self.samples.push(sample);
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the timeline holds no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The distinct samples, in order of first appearance.
    pub fn samples(&self) -> &[PowerSample] {
        &self.samples
    }

    /// The windows in time order, each with the sample it draws.
    pub fn windows(&self) -> impl ExactSizeIterator<Item = PowerWindow<'_>> + '_ {
        self.windows.iter().map(|w| PowerWindow {
            start: SimTime::from_ps(w.start_ps),
            end: SimTime::from_ps(w.end_ps),
            sample: w.sample as usize,
            power: &self.samples[w.sample as usize],
        })
    }

    /// The total-power series, µW, one value per window — ready for a
    /// sparkline.
    pub fn total_series(&self) -> Vec<f64> {
        self.windows().map(|w| w.total_uw).collect()
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
    /// Windows add in time order.
    pub fn mean_total_uw(&self) -> f64 {
        let mut energy = 0.0; // µW·ps
        let mut span = 0.0;
        for w in &self.windows {
            let d = (w.end_ps - w.start_ps) as f64;
            energy += self.samples[w.sample as usize].total_uw * d;
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
    use pels_sim::{ActivityKind, ActivitySet, ComponentId};

    fn model() -> PowerModel {
        let mut m = PowerModel::new(Calibration::default());
        m.add_component("ibex", 27.0).add_component("sram", 200.0);
        m
    }

    fn busy(cycles: u64, reads: u64) -> ActivitySet {
        let mut activity = ActivitySet::new();
        activity.record(
            ComponentId::intern("ibex"),
            ActivityKind::ClockCycle,
            cycles,
        );
        activity.record(ComponentId::intern("sram"), ActivityKind::SramRead, reads);
        activity
    }

    #[test]
    fn busy_windows_draw_more_than_idle_ones() {
        let mut t = ActivityTimeline::new(100);
        t.push(0, 100, &busy(100, 500));
        t.push(100, 200, &ActivitySet::new());
        let clock = Frequency::from_mhz(100.0);
        let pt = PowerTimeline::from_activity(&model(), &t, clock);
        assert_eq!(pt.len(), 2);
        let w: Vec<PowerWindow> = pt.windows().collect();
        assert!(w[0].total_uw > w[1].total_uw);
        // The idle window still pays leakage + the analog floor.
        assert!(w[1].total_uw > 0.0);
        // Window spans convert to simulated time at the clock period.
        assert_eq!(w[0].start, SimTime::ZERO);
        assert_eq!(w[0].end, clock.cycles(100));
        assert_eq!(w[1].end, clock.cycles(200));
        assert_eq!(w[1].duration(), clock.cycles(100));
        assert!(w[0].component_uw("sram") > 0.0);
        assert_eq!(w[0].component_uw("nonexistent"), 0.0);
    }

    #[test]
    fn quiescence_stretched_window_averages_down() {
        // Same activity over 10x the span => ~10x less dynamic power.
        let mut short = ActivityTimeline::new(100);
        short.push(0, 100, &busy(100, 200));
        let mut long = ActivityTimeline::new(100);
        long.push(0, 1000, &busy(100, 200));
        let clock = Frequency::from_mhz(100.0);
        let m = model();
        let ps = PowerTimeline::from_activity(&m, &short, clock);
        let pl = PowerTimeline::from_activity(&m, &long, clock);
        assert!(ps.samples()[0].total_uw > pl.samples()[0].total_uw);
    }

    #[test]
    fn each_distinct_window_is_evaluated_once() {
        // Shapes a b a b b a, with a zero-width window in the middle:
        // two samples, five windows, each window with its own span.
        let mut t = ActivityTimeline::new(100);
        let (a, b) = (busy(100, 7), ActivitySet::new());
        let mut at = 0;
        for (k, act) in [&a, &b, &a, &b, &b, &a].into_iter().enumerate() {
            if k == 3 {
                t.push(at, at, &a);
            }
            t.push(at, at + 100, act);
            at += 100;
        }
        let clock = Frequency::from_mhz(100.0);
        let m = model();
        let pt = PowerTimeline::from_activity(&m, &t, clock);
        assert_eq!((pt.len(), pt.samples().len()), (6, 2));
        let samples: Vec<usize> = pt.windows().map(|w| w.sample).collect();
        assert_eq!(samples, vec![0, 1, 0, 1, 1, 0]);
        let fresh = m.report(&a, clock.cycles(100)).total().as_uw();
        let last = pt.windows().last().unwrap();
        assert_eq!(last.total_uw.to_bits(), fresh.to_bits());
        assert_eq!((last.start, last.end), (clock.cycles(500), clock.cycles(600)));
    }

    #[test]
    fn mean_is_time_weighted() {
        let mut t = ActivityTimeline::new(100);
        t.push(0, 100, &busy(100, 1000));
        t.push(100, 1100, &ActivitySet::new()); // 10x longer idle stretch
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
        t.push(0, 100, &busy(100, 1000));
        // Quiescence-stretched: 99 windows' span.
        t.push(100, 10_000, &ActivitySet::new());
        let pt = PowerTimeline::from_activity(&model(), &t, Frequency::from_mhz(100.0));
        let (busy, idle) = (pt.samples()[0].total_uw, pt.samples()[1].total_uw);
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
        let activity = busy(400, 70);
        let window = SimTime::from_ns(4_000);
        let pt = PowerTimeline::from_window(&m, &activity, window);
        assert_eq!(pt.len(), 1);
        let s = pt.windows().next().unwrap();
        assert_eq!((s.start, s.end), (SimTime::ZERO, window));
        let report = m.report(&activity, window);
        assert_eq!(s.total_uw.to_bits(), report.total().as_uw().to_bits());
        let want: Vec<&str> = report.components().iter().map(|c| c.name).collect();
        let got: Vec<&str> = s.components.iter().map(|&(n, _)| n).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn component_names_are_sorted_union() {
        let mut t = ActivityTimeline::new(10);
        t.push(0, 10, &busy(10, 1));
        let pt = PowerTimeline::from_activity(&model(), &t, Frequency::from_mhz(50.0));
        let names = pt.component_names();
        assert!(names.contains(&"ibex"));
        assert!(names.contains(&"sram"));
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
