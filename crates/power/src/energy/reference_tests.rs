//! Seeded property test: [`PowerTimeline::from_activity`] (which
//! evaluates each distinct window once) and
//! [`EnergyLedger::from_timeline`] (which sums per name in a dense
//! vector) are bit-identical to the plain reference kept here — one
//! [`PowerModel::report`] per window, and one `BTreeMap` entry per name
//! added in window order.

use super::EnergyLedger;
use crate::model::PowerModel;
use crate::timeline::{PowerSample, PowerTimeline};
use crate::Calibration;
use pels_sim::{ActivityKind, ActivitySet, ActivityTimeline, ComponentId, Frequency, Rng, SimTime};
use std::collections::BTreeMap;

const REGISTERED: [(&str, f64); 5] = [
    ("ibex", 27.0),
    ("sram", 200.0),
    ("fabric", 8.0),
    ("pels", 5.0),
    ("pels.link0", 3.0),
];

/// Components that record activity but have no area in the model.
const UNREGISTERED: [&str; 2] = ["reference-test.mystery", "reference-test.probe"];

const CASES: usize = 300;

fn model() -> PowerModel {
    let mut m = PowerModel::new(Calibration::default());
    for (name, kge) in REGISTERED {
        m.add_component(name, kge);
    }
    m
}

/// A window shape: the records that make up its activity and its width.
#[derive(Clone)]
struct Shape {
    records: Vec<(ComponentId, ActivityKind, u64)>,
    cycles: u64,
}

fn random_shape(rng: &mut Rng) -> Shape {
    let names: Vec<&str> = REGISTERED
        .iter()
        .map(|&(n, _)| n)
        .chain(UNREGISTERED)
        .collect();
    let mut records = Vec::new();
    // Some shapes are idle: nothing but the window's span.
    for _ in 0..rng.index(6) {
        let id = ComponentId::intern(names[rng.index(names.len())]);
        let kind = ActivityKind::ALL[rng.index(ActivityKind::COUNT)];
        records.push((id, kind, rng.range_u64(1, 5_000)));
    }
    Shape {
        records,
        cycles: rng.range_u64(1, 20_000),
    }
}

/// Builds `shape`'s activity afresh: records in a shuffled order, some
/// split in two, sometimes padded with trailing all-zero rows. Every
/// build compares equal to every other build of the same shape.
fn build(shape: &Shape, rng: &mut Rng) -> ActivitySet {
    let mut records = shape.records.clone();
    for i in (1..records.len()).rev() {
        records.swap(i, rng.index(i + 1));
    }
    let mut set = ActivitySet::new();
    for (id, kind, n) in records {
        if n > 1 && rng.bool() {
            let k = rng.range_u64(1, n - 1);
            set.record(id, kind, k);
            set.record(id, kind, n - k);
        } else {
            set.record(id, kind, n);
        }
    }
    if rng.ratio(1, 4) {
        let mut pad = ActivitySet::new();
        pad.record(
            ComponentId::intern(UNREGISTERED[1]),
            ActivityKind::EventPulse,
            1,
        );
        set.merge(&pad.delta_from(&pad));
    }
    set
}

/// A timeline that revisits a few shapes — alternating, repeated and
/// permuted — next to near-misses (same activity, other span; same span,
/// one more count) and zero-span windows.
fn random_timeline(rng: &mut Rng) -> ActivityTimeline {
    let shapes: Vec<Shape> = (0..rng.range_u64(1, 4))
        .map(|_| random_shape(rng))
        .collect();
    let mut t = ActivityTimeline::new(100);
    let mut cycle = 0;
    for k in 0..rng.range_u64(1, 40) as usize {
        let mut shape = if rng.ratio(1, 2) {
            shapes[k % shapes.len()].clone()
        } else {
            shapes[rng.index(shapes.len())].clone()
        };
        match rng.index(10) {
            0 => shape.cycles += 1,
            1 => match shape.records.first_mut() {
                Some(r) => r.2 += 1,
                None => shape = random_shape(rng),
            },
            2 => shape.cycles = 0,
            _ => {}
        }
        let activity = build(&shape, rng);
        t.push(cycle, cycle + shape.cycles, &activity);
        cycle += shape.cycles;
    }
    t
}

/// One reference window: its span and its power, evaluated directly.
type RefWindow = (SimTime, SimTime, PowerSample);

/// The reference timeline: every non-empty window evaluated directly,
/// one sample per window.
fn reference_samples(model: &PowerModel, t: &ActivityTimeline, clock: Frequency) -> Vec<RefWindow> {
    t.windows()
        .filter(|w| w.end_cycle > w.start_cycle)
        .map(|w| {
            let (start, end) = (clock.cycles(w.start_cycle), clock.cycles(w.end_cycle));
            let report = model.report(w.activity, SimTime::from_ps(end.as_ps() - start.as_ps()));
            let sample = PowerSample {
                total_uw: report.total().as_uw(),
                components: report
                    .components()
                    .iter()
                    .map(|c| (c.name, c.total().as_uw()))
                    .collect(),
            };
            (start, end, sample)
        })
        .collect()
}

fn assert_samples_bit_identical(got: &PowerTimeline, want: &[RefWindow], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: sample count");
    for (i, (g, (start, end, w))) in got.windows().zip(want).enumerate() {
        assert_eq!((g.start, g.end), (*start, *end), "{ctx}: sample {i} span");
        assert_eq!(
            g.total_uw.to_bits(),
            w.total_uw.to_bits(),
            "{ctx}: sample {i} total"
        );
        let bits = |s: &PowerSample| -> Vec<(&str, u64)> {
            s.components
                .iter()
                .map(|&(n, p)| (n, p.to_bits()))
                .collect()
        };
        assert_eq!(bits(&g), bits(w), "{ctx}: sample {i} components");
    }
}

/// The reference ledger: one map entry per name, adds in sample order.
fn assert_ledger_matches_reference(ledger: &EnergyLedger, timeline: &PowerTimeline, ctx: &str) {
    let (mut span_ps, mut total) = (0u64, 0.0f64);
    let mut components: BTreeMap<&str, f64> = BTreeMap::new();
    for s in timeline.windows() {
        let d = (s.end.as_ps() - s.start.as_ps()) as f64;
        span_ps += s.end.as_ps() - s.start.as_ps();
        total += s.total_uw * d;
        for &(name, uw) in &s.components {
            *components.entry(name).or_insert(0.0) += uw * d;
        }
    }
    assert_eq!(ledger.span_ps, span_ps, "{ctx}: span");
    assert_eq!(ledger.windows, timeline.len(), "{ctx}: windows");
    assert_eq!(ledger.total_uwps.to_bits(), total.to_bits(), "{ctx}: total");
    let bits = |m: &BTreeMap<&str, f64>| -> Vec<(String, u64)> {
        m.iter()
            .map(|(&n, v)| (n.to_owned(), v.to_bits()))
            .collect()
    };
    assert_eq!(
        bits(&ledger.components),
        bits(&components),
        "{ctx}: components"
    );
}

#[test]
fn memo_and_dense_ledger_match_the_reference_bit_for_bit() {
    let m = model();
    let mut rng = Rng::seed_from_u64(0x5EED_1ED6_E220);
    let mut reused = 0;
    let mut far_reused = 0;
    for case in 0..CASES {
        let clock = Frequency::from_period_ps([18_182, 10_000, 1_000_000][rng.index(3)]);
        let t = random_timeline(&mut rng);
        let ctx = format!("case {case}");
        let got = PowerTimeline::from_activity(&m, &t, clock);
        let want = reference_samples(&m, &t, clock);
        assert_samples_bit_identical(&got, &want, &ctx);
        assert_ledger_matches_reference(&EnergyLedger::from_timeline(&got), &got, &ctx);
        let w: Vec<_> = t.windows().collect();
        reused += (0..w.len())
            .filter(|&i| {
                w[i].cycles() > 0
                    && (i.saturating_sub(4)..i)
                        .any(|j| w[j].cycles() == w[i].cycles() && w[j].activity == w[i].activity)
            })
            .count();
        // Every repeat shares its first occurrence's sample, however far
        // back: one evaluation per distinct non-empty window.
        let w: Vec<_> = w.into_iter().filter(|w| w.cycles() > 0).collect();
        let p: Vec<usize> = got.windows().map(|p| p.sample).collect();
        let mut distinct = 0;
        for i in 0..w.len() {
            let same =
                |j: &usize| w[*j].cycles() == w[i].cycles() && w[*j].activity == w[i].activity;
            match (0..i).find(same) {
                Some(j) => {
                    assert_eq!(p[i], p[j], "{ctx}: window {i} repeats window {j}");
                    far_reused += usize::from(i - j > 4);
                }
                None => distinct += 1,
            }
        }
        assert_eq!(got.samples().len(), distinct, "{ctx}: distinct samples");
    }
    assert!(reused > CASES, "the generator stopped repeating windows");
    assert!(far_reused > 0, "no repeat lay beyond four windows");
}

#[test]
fn equal_names_at_distinct_addresses_share_one_ledger_row() {
    // Each name as a literal and as a leaked copy: equal strings, two
    // addresses, so the pointer guess misses and the search must match.
    let names: Vec<&'static str> = ["ibex", "sram", "fabric", "pels.link0"]
        .into_iter()
        .flat_map(|n| [n, &*Box::leak(n.to_owned().into_boxed_str())])
        .collect();
    assert!(!std::ptr::eq(names[0], names[1]));
    let mut rng = Rng::seed_from_u64(0xAD_D2E5);
    let clock = Frequency::from_period_ps(1_000);
    for case in 0..CASES {
        // Every window draws a sample of its own: its activity is its
        // index, and only the window's span reaches the ledger.
        let mut activity = ActivityTimeline::new(100);
        let mut samples = Vec::new();
        let mut at = 0;
        for k in 0..rng.range_u64(1, 30) {
            let span = rng.range_u64(1, 5_000);
            let mut pulses = ActivitySet::new();
            pulses.record(
                ComponentId::intern(UNREGISTERED[1]),
                ActivityKind::EventPulse,
                k + 1,
            );
            activity.push(at, at + span, &pulses);
            let mut components: Vec<(&'static str, f64)> = (0..rng.index(8))
                .map(|_| (names[rng.index(names.len())], rng.f64() * 100.0))
                .collect();
            // Most samples keep the previous order, as real ones do.
            if rng.ratio(1, 3) {
                components.reverse();
            }
            samples.push(PowerSample {
                total_uw: rng.f64() * 500.0,
                components,
            });
            at += span;
        }
        let t = PowerTimeline {
            activity: &activity,
            clock,
            of: (0..samples.len() as u32).map(Some).collect(),
            samples,
        };
        let ledger = EnergyLedger::from_timeline(&t);
        assert_ledger_matches_reference(&ledger, &t, &format!("case {case}"));
        let mut want: Vec<&str> = t
            .samples()
            .iter()
            .flat_map(|s| s.components.iter().map(|&(n, _)| n))
            .collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(
            ledger.component_names(),
            want,
            "case {case}: one row per name"
        );
    }
}
