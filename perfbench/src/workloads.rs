//! Seeded input generation: each workload is a pool of scenario
//! descriptions, emitted as the JSON documents the simulator's
//! description codec reads.
//!
//! Each pool is a fixed factorial design over the knobs that set a job's
//! cost (mediator, readout length, sample-period band), and the seed
//! draws the remaining values inside narrow cells (sample period,
//! threshold level). Every seed thus runs different inputs of nearly the
//! same total cost, which keeps run-to-run spread down to host noise.

use pels_sim::SimTime;
use pels_soc::{Mediator, ScenarioDesc};

/// Sample-period cells per mediator and readout length in the linking pool.
const READOUT_CELLS: usize = 2;

/// PELS/IRQ pairs in the lifetime pool.
const LIFETIME_PAIRS: usize = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 5 linking under every mediator: PELS sequenced and instant
    /// (the CPU sleeps while PELS, SPI, µDMA and GPIO carry every event)
    /// and the Ibex interrupt baseline (the CPU wakes, runs the handler
    /// and sleeps again on every event).
    Linking,
    /// Duty-cycled PELS-vs-IRQ pairs over long horizons with the energy
    /// ledger and battery projection on: sleep spans dominate.
    Lifetime,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "linking" => Some(Workload::Linking),
            "lifetime" => Some(Workload::Lifetime),
            _ => None,
        }
    }
}

/// SplitMix64: a tiny, well-mixed, reproducible generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    /// `n` picks from `choices`, each used equally often, shuffled.
    fn balanced<T: Copy>(&mut self, choices: &[T], n: usize) -> Vec<T> {
        let mut v: Vec<T> = (0..n).map(|k| choices[k % choices.len()]).collect();
        self.shuffle(&mut v);
        v
    }
}

/// Maps a unit draw linearly onto `[lo, hi]`.
fn lerp(u: f64, lo: f64, hi: f64) -> f64 {
    lo + u * (hi - lo)
}

/// The workload's pool for `seed`: labelled descriptions as JSON text.
/// `observe` asks every job for a metrics snapshot (traced runs only).
pub fn inputs(workload: Workload, seed: u64, observe: bool) -> Vec<(String, String)> {
    let mut rng = SplitMix64(seed);
    let descs = match workload {
        Workload::Linking => readout_pool(&mut rng),
        Workload::Lifetime => lifetime_pool(&mut rng),
    };
    descs
        .into_iter()
        .enumerate()
        .map(|(k, mut d)| {
            d.obs = observe;
            (format!("job{k:02} {}", d.mediator), d.to_json())
        })
        .collect()
}

/// The Figure 5 iso-frequency sensing node (55 MHz): periodic SPI
/// readouts of the threshold sensor. Every mediator × readout length
/// (1–4 words) × sample-period cell (2–3 µs) combination appears once.
/// Mirrored cells draw mirrored offsets inside their cells, so the
/// periods of every seed sum to the same total and the pool's simulated
/// cycle count does not depend on the seed.
fn readout_pool(rng: &mut SplitMix64) -> Vec<ScenarioDesc> {
    let cells = READOUT_CELLS;
    let mediators = [Mediator::PelsSequenced, Mediator::PelsInstant, Mediator::IbexIrq];
    let mut pool = Vec::with_capacity(mediators.len() * 4 * cells);
    for mediator in mediators {
        for spi_words in 1..=4 {
            let mut offsets: Vec<f64> = (0..cells).map(|_| rng.unit()).collect();
            for cell in cells.div_ceil(2)..cells {
                offsets[cell] = 1.0 - offsets[cells - 1 - cell];
            }
            for (cell, offset) in offsets.into_iter().enumerate() {
                let u = (cell as f64 + offset) / cells as f64;
                pool.push(ScenarioDesc {
                    mediator,
                    sample_period: SimTime::from_ns(lerp(u, 2_000.0, 3_000.0) as u64),
                    spi_words,
                    // Below the 2.5 V sensor level, so every readout
                    // actuates.
                    threshold_level: lerp(rng.unit(), 0.5, 2.2),
                    events: 300,
                    ..ScenarioDesc::default()
                });
            }
        }
    }
    pool
}

/// Duty-cycled PELS/IRQ pairs: identical nodes that differ only in the
/// mediator, each sampling one timeline window per duty period and
/// projecting battery lifetime. Sample periods sit on a log grid from
/// 10 µs to 1 ms, each jittered by a fiftieth of its grid step: the
/// longest periods hold most of the pool's simulated cycles, so a wider
/// draw would let the seed swing the pool's cycle count.
fn lifetime_pool(rng: &mut SplitMix64) -> Vec<ScenarioDesc> {
    let pairs = LIFETIME_PAIRS;
    let words = rng.balanced(&[1, 2, 3, 4], pairs);
    let mut pool = Vec::with_capacity(2 * pairs);
    for (k, &spi_words) in words.iter().enumerate() {
        let u = (k as f64 + 0.5 + 0.02 * (rng.unit() - 0.5)) / pairs as f64;
        let sample_period = SimTime::from_ns((10_000.0 * 100f64.powf(u)) as u64);
        for mediator in [Mediator::PelsSequenced, Mediator::IbexIrq] {
            let base = ScenarioDesc::default();
            pool.push(ScenarioDesc {
                mediator,
                sample_period,
                spi_words,
                events: 100,
                timeline_window: sample_period.as_ps() / base.system.freq.period_ps(),
                lifetime: true,
                ..base
            });
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 2] = [Workload::Linking, Workload::Lifetime];

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in ALL {
            assert_eq!(inputs(w, 7, false), inputs(w, 7, false), "{w:?}");
            assert_ne!(inputs(w, 7, false), inputs(w, 8, false), "{w:?}");
        }
    }

    #[test]
    fn readout_periods_sum_to_the_same_total_for_every_seed() {
        let total_ns = |seed| -> u64 {
            readout_pool(&mut SplitMix64(seed))
                .iter()
                .map(|d| d.sample_period.as_ps() / 1_000)
                .sum()
        };
        // Each period is truncated to whole ns.
        let slack = readout_pool(&mut SplitMix64(0)).len() as u64;
        for seed in 1..20 {
            assert!(
                total_ns(seed).abs_diff(total_ns(0)) <= slack,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn every_generated_description_decodes_and_validates() {
        for w in ALL {
            for (label, text) in inputs(w, 3, true) {
                let desc = ScenarioDesc::from_json(&text).expect("decodes");
                assert!(desc.obs, "{w:?} {label}");
                pels_soc::Scenario::from_desc(desc).expect("validates");
            }
        }
    }
}
