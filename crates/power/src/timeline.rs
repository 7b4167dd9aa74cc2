//! Power over simulated time.
//!
//! Evaluates a [`PowerModel`] over an [`ActivityTimeline`], turning the
//! whole-run averaged [`PowerReport`](crate::PowerReport) into a
//! per-component power *curve* — the time-resolved view behind the
//! paper's Figure 5 comparison. A [`PowerTimeline`] is a view over the
//! activity timeline it was evaluated over: it stores one power sample
//! — total SoC power and the per-component breakdown — per distinct
//! activity sample that a non-empty window draws, and reads each
//! window's span and sample from the activity timeline's own index.
//! Every sample comes from [`PowerModel::report`], the crate's one
//! evaluator, called once per distinct `(span, activity)` pair: the
//! report is a pure function of those two inputs, so a window that
//! shares a sample reads exactly the value a fresh evaluation would
//! give.

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

/// A per-window power series over an activity timeline: distinct
/// samples, read per window through the activity timeline's index in
/// time order. Zero-width windows cover no time and are left out.
#[derive(Debug, Clone)]
pub struct PowerTimeline<'a> {
    /// The timeline the samples were evaluated over.
    pub(crate) activity: &'a ActivityTimeline,
    /// The clock that converts its cycle spans to simulated time.
    pub(crate) clock: Frequency,
    /// Distinct samples in order of first appearance.
    pub(crate) samples: Vec<PowerSample>,
    /// The power sample behind each activity sample; `None` for one
    /// that only zero-width windows draw.
    pub(crate) of: Vec<Option<u32>>,
}

impl<'a> PowerTimeline<'a> {
    /// Evaluates `model` over every window of `timeline`, converting
    /// window cycle spans to simulated time at `clock`'s period.
    ///
    /// Windows are evaluated independently, so a quiescence-stretched
    /// window (long span, little activity) correctly averages down to a
    /// low power, while a busy nominal-width window shows the peak.
    /// The timeline already names each window's distinct
    /// `(span, activity)` sample, so each sample is evaluated once, the
    /// first time a non-empty window draws it.
    pub fn from_activity(
        model: &PowerModel,
        timeline: &'a ActivityTimeline,
        clock: Frequency,
    ) -> Self {
        let mut samples = Vec::with_capacity(timeline.distinct());
        let mut of: Vec<Option<u32>> = vec![None; timeline.distinct()];
        for w in timeline.windows().filter(|w| w.end_cycle > w.start_cycle) {
            of[w.sample].get_or_insert_with(|| {
                let span = clock.cycles(w.cycles());
                samples.push(PowerSample::evaluate(model, w.activity, span));
                (samples.len() - 1) as u32
            });
        }
        PowerTimeline {
            activity: timeline,
            clock,
            samples,
            of,
        }
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows().count()
    }

    /// Whether the timeline holds no windows.
    pub fn is_empty(&self) -> bool {
        self.windows().next().is_none()
    }

    /// The distinct samples, in order of first appearance.
    pub fn samples(&self) -> &[PowerSample] {
        &self.samples
    }

    /// The windows in time order, each with the sample it draws.
    pub fn windows(&self) -> impl Iterator<Item = PowerWindow<'_>> + '_ {
        self.activity.windows().filter_map(|w| {
            // A zero-width window draws a sample with no power sample.
            let sample = self.of[w.sample]? as usize;
            Some(PowerWindow {
                start: self.clock.cycles(w.start_cycle),
                end: self.clock.cycles(w.end_cycle),
                sample,
                power: &self.samples[sample],
            })
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
        for w in self.windows() {
            let d = w.duration().as_ps() as f64;
            energy += w.total_uw * d;
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
        // Shapes a b a b b a, with zero-width windows first and in the
        // middle: two samples, six windows, each window with its own
        // span. The zero-width windows' activity sample comes first, so
        // the power samples are numbered apart from the activity ones.
        let mut t = ActivityTimeline::new(100);
        let (a, b) = (busy(100, 7), ActivitySet::new());
        let mut at = 0;
        for (k, act) in [&a, &b, &a, &b, &b, &a].into_iter().enumerate() {
            if k == 0 || k == 3 {
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
        // Degenerate case: no windows, or only zero-width ones.
        let mut empty = ActivityTimeline::new(100);
        let none = PowerTimeline::from_activity(&model(), &empty, Frequency::from_mhz(100.0));
        assert_eq!(none.mean_total_uw(), 0.0);
        assert!(none.is_empty());
        empty.push(0, 0, &busy(1, 1));
        let zero = PowerTimeline::from_activity(&model(), &empty, Frequency::from_mhz(100.0));
        assert!(zero.is_empty() && zero.samples().is_empty());
        assert_eq!(zero.mean_total_uw(), 0.0);
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
        // A run that sampled no timeline integrates its whole window as
        // a one-window timeline.
        let m = model();
        let activity = busy(400, 70);
        let clock = Frequency::from_mhz(100.0);
        let mut t = ActivityTimeline::new(400);
        t.push(0, 400, &activity);
        let pt = PowerTimeline::from_activity(&m, &t, clock);
        assert_eq!(pt.len(), 1);
        let s = pt.windows().next().unwrap();
        let window = SimTime::from_ns(4_000);
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
