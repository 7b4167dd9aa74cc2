//! Seeded differential: the timeline sampler against a test-only copy of
//! the baseline/delta sampler it replaced.
//!
//! The reference runs on an unsampled twin of the sampled SoC. At each
//! window end the sampled SoC reports, it flushes the twin's components
//! into its own cumulative activity image, diffs the image against a
//! baseline copy taken at the previous close, adds the window's clock
//! share and copies the image into the baseline. A drain inside a window
//! carries the window's part so far into its close, which the old
//! sampler lacked: it kept a stale baseline and lost that part. Over
//! random run segments, window widths and drains, under every mediator
//! and both exec modes, the two must close the same windows with the
//! same activity and the same power, drain the same sets, and every
//! repeat of a window must share its first occurrence's sample, however
//! far back.

use super::*;
use crate::{power_setup, Mediator, Scenario, ScenarioDesc};
use pels_power::PowerTimeline;
use pels_sim::Rng;

/// The baseline/delta sampler, run beside an unsampled [`Soc`].
struct BaselineSampler {
    window_start: u64,
    /// The twin's components, flushed since the last drain.
    image: ActivitySet,
    /// The twin's flushed activity image at the last close.
    baseline: ActivitySet,
    baseline_awake: u64,
    /// What the open window recorded before a drain took it.
    carry: ActivitySet,
    carry_awake: u64,
    windows: Vec<(u64, u64, ActivitySet)>,
}

impl BaselineSampler {
    fn new(soc: &Soc) -> Self {
        BaselineSampler {
            window_start: soc.cycle,
            image: ActivitySet::new(),
            baseline: ActivitySet::new(),
            baseline_awake: 0,
            carry: ActivitySet::new(),
            carry_awake: 0,
            windows: Vec::new(),
        }
    }

    /// The open window's activity since the baseline, components flushed.
    fn delta(&mut self, soc: &mut Soc) -> (ActivitySet, u64) {
        soc.sync_slaves();
        soc.flush_components_into(&mut self.image);
        let delta = self.image.delta_from(&self.baseline);
        (delta, soc.cpu_awake_cycles - self.baseline_awake)
    }

    fn close(&mut self, soc: &mut Soc) {
        let (mut delta, awake) = self.delta(soc);
        delta.merge(&std::mem::take(&mut self.carry));
        let awake = awake + std::mem::take(&mut self.carry_awake);
        let cycles = soc.cycle - self.window_start;
        Soc::record_clock_activity(&mut delta, &soc.clock_ids, cycles, awake);
        self.windows.push((self.window_start, soc.cycle, delta));
        self.window_start = soc.cycle;
        self.baseline.clone_from(&self.image);
        self.baseline_awake = soc.cpu_awake_cycles;
    }

    fn drain(&mut self, soc: &mut Soc) -> ActivitySet {
        let (delta, awake) = self.delta(soc);
        self.carry.merge(&delta);
        self.carry_awake += awake;
        self.baseline = ActivitySet::new();
        self.baseline_awake = 0;
        let set = self.drained(soc);
        self.image = ActivitySet::new();
        set
    }

    /// What `soc` drains, with the image of its flushed components.
    fn drained(&self, soc: &mut Soc) -> ActivitySet {
        let mut set = soc.drain_activity();
        set.merge(&self.image);
        set
    }
}

/// What the cases covered.
#[derive(Default)]
struct Tally {
    far_repeats: usize,
    windows: usize,
}

fn run_case(rng: &mut Rng, mediator: Mediator, exec: ExecMode, tally: &mut Tally) {
    let scenario = Scenario::from_desc(ScenarioDesc {
        mediator,
        exec,
        ..ScenarioDesc::default()
    })
    .expect("valid scenario");
    let mut sampled = scenario.build_soc();
    let period = rng.range_u64(40, 1500) as u32;
    sampled
        .timer_mut()
        .write(pels_periph::Timer::CMP, period)
        .unwrap();
    sampled
        .timer_mut()
        .write(pels_periph::Timer::CTRL, pels_periph::Timer::CTRL_ENABLE)
        .unwrap();
    let mut twin = sampled.clone();
    // Widths 1..2000, log-spread so that narrow windows, which close at
    // nearly every observation point, come up as often as wide ones.
    let width = (rng.range_u64(1, 2000) >> rng.index(11)).max(1);
    let ctx = format!("{mediator} {exec:?} period {period} width {width}");
    sampled.start_timeline(width);
    let mut reference = BaselineSampler::new(&twin);
    let mut seen = 0;
    for segment in 0..rng.range_u64(4, 12) {
        sampled.run(rng.range_u64(1, 4000));
        let sampler = sampled.accel.sampler.as_ref().expect("sampling");
        let ends: Vec<u64> = sampler
            .timeline
            .windows()
            .skip(seen)
            .map(|w| w.end_cycle)
            .collect();
        seen += ends.len();
        for end in ends {
            twin.run(end - twin.cycle);
            reference.close(&mut twin);
        }
        twin.run(sampled.cycle - twin.cycle);
        let at = format!("{ctx} segment {segment}");
        if rng.ratio(1, 3) {
            assert_eq!(
                sampled.drain_activity(),
                reference.drain(&mut twin),
                "{at}: drain"
            );
        }
        let (mut a, mut b) = (sampled.clone(), twin.clone());
        assert_eq!(
            a.drain_activity(),
            reference.drained(&mut b),
            "{at}: drained clones"
        );
        assert_eq!(a.first_difference(&b), None, "{at}: drained clones differ");
    }
    let timeline = sampled.take_timeline().expect("sampled");
    if twin.cycle > reference.window_start {
        reference.close(&mut twin);
    }
    assert_eq!(
        sampled.drain_activity(),
        reference.drain(&mut twin),
        "{ctx}: final drain"
    );

    // Identical windows.
    let got: Vec<_> = timeline.windows().collect();
    assert_eq!(got.len(), reference.windows.len(), "{ctx}: window count");
    for (i, (g, (start, end, activity))) in got.iter().zip(&reference.windows).enumerate() {
        assert_eq!(
            (g.start_cycle, g.end_cycle),
            (*start, *end),
            "{ctx}: window {i} span"
        );
        assert_eq!(g.activity, activity, "{ctx}: window {i} activity");
        if i + 1 < got.len() {
            assert!(g.cycles() >= width, "{ctx}: window {i} closed early");
        }
    }

    // Identical power, one evaluation per distinct window.
    let model = power_setup::power_model_for(scenario.pels());
    let clock = scenario.freq();
    let power = PowerTimeline::from_activity(&model, &timeline, clock);
    assert_eq!(power.len(), got.len(), "{ctx}: power windows");
    for (i, (p, (start, end, activity))) in power.windows().zip(&reference.windows).enumerate() {
        let report = model.report(activity, clock.cycles(end - start));
        assert_eq!((p.start, p.end), (clock.cycles(*start), clock.cycles(*end)));
        assert_eq!(
            p.total_uw.to_bits(),
            report.total().as_uw().to_bits(),
            "{ctx}: window {i} power"
        );
        let want: Vec<(&str, u64)> = report
            .components()
            .iter()
            .map(|c| (c.name, c.total().as_uw().to_bits()))
            .collect();
        let have: Vec<(&str, u64)> = p
            .components
            .iter()
            .map(|&(n, uw)| (n, uw.to_bits()))
            .collect();
        assert_eq!(have, want, "{ctx}: window {i} components");
    }

    // Every repeat shares its first occurrence's sample.
    let mut distinct = 0;
    for (i, (_, _, activity)) in reference.windows.iter().enumerate() {
        let cycles = got[i].cycles();
        match (0..i).find(|&j| got[j].cycles() == cycles && reference.windows[j].2 == *activity) {
            Some(j) => {
                assert_eq!(
                    got[i].sample, got[j].sample,
                    "{ctx}: window {i} repeats {j}"
                );
                tally.far_repeats += usize::from(i - j > 4);
            }
            None => distinct += 1,
        }
    }
    assert_eq!(timeline.distinct(), distinct, "{ctx}: distinct samples");
    assert_eq!(power.samples().len(), distinct, "{ctx}: evaluations");
    tally.windows += got.len();
}

#[test]
fn row_buffer_sampler_matches_the_baseline_delta_sampler() {
    let mut rng = Rng::seed_from_u64(0x71DE_5A3B);
    let mut tally = Tally::default();
    for mediator in [
        Mediator::PelsSequenced,
        Mediator::PelsInstant,
        Mediator::IbexIrq,
    ] {
        for exec in [ExecMode::Fast, ExecMode::Naive] {
            for _ in 0..4 {
                run_case(&mut rng, mediator, exec, &mut tally);
            }
        }
    }
    assert!(tally.windows > 10_000, "the cases closed few windows");
    assert!(tally.far_repeats > 0, "no repeat lay beyond four windows");
}
