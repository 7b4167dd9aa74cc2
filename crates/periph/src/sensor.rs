//! Synthetic analog sources.
//!
//! The paper's motivating workload reads a thermistor/varistor-class sensor
//! and compares the sample against a threshold (Figure 3). We do not have
//! the physical sensor, so [`SensorKind`] synthesizes the analog signal the
//! ADC/SPI/I2C front-ends digitize: deterministic shapes (constant, ramp,
//! sine) and a ramp with seeded Gaussian noise. The substitution preserves
//! the relevant behaviour — the digital side sees a stream of samples that
//! crosses thresholds at controllable times.

use pels_sim::rng::Rng;
use pels_sim::{PeriodVisitor, Periodic, SimTime};

/// The synthetic analog source behind the SPI/ADC/I2C front-ends.
///
/// Substitutes the paper's thermistor/varistor (see `DESIGN.md`): each
/// variant exercises the same digital code path with controllable
/// threshold-crossing behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorKind {
    /// A fixed level (always above/below threshold — used for the
    /// repeatable latency/power measurements).
    Constant(f64),
    /// A linear ramp, `start + slope_per_us * t_us`, crossing a threshold
    /// exactly `(threshold - start) / slope_per_us` microseconds in.
    Ramp {
        /// Level at time zero.
        start: f64,
        /// Volts per simulated microsecond.
        slope_per_us: f64,
    },
    /// A ramp with Gaussian measurement noise (seeded, reproducible).
    NoisyRamp {
        /// Level at time zero.
        start: f64,
        /// Volts per simulated microsecond.
        slope_per_us: f64,
        /// Noise standard deviation.
        sigma: f64,
        /// RNG seed.
        seed: u64,
    },
    /// A sine wave, `offset + amplitude * sin(2π * freq_hz * t)`
    /// (periodic threshold crossings).
    Sine {
        /// Mid level.
        offset: f64,
        /// Peak deviation.
        amplitude: f64,
        /// Frequency in Hz.
        freq_hz: f64,
    },
}

impl SensorKind {
    /// Builds the 12-bit, 0–3.3 V quantized front-end.
    pub fn quantizer(&self) -> Quantizer {
        let seed = match *self {
            SensorKind::NoisyRamp { seed, .. } => seed,
            _ => 0,
        };
        Quantizer {
            sensor: *self,
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// The 12-bit code a given analog level quantizes to (for choosing
    /// thresholds).
    pub fn code_for_level(level: f64) -> u32 {
        SensorKind::Constant(level).quantizer().convert(SimTime::ZERO)
    }
}

/// Quantizes a sensor to a 12-bit code over 0–3.3 V, the way the SoC's
/// ADC front-end would.
///
/// ```
/// use pels_periph::SensorKind;
/// use pels_sim::SimTime;
/// let mut q = SensorKind::Constant(1.65).quantizer();
/// let code = q.convert(SimTime::ZERO);
/// assert!((i64::from(code) - 2047).abs() <= 1); // mid-scale
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quantizer {
    sensor: SensorKind,
    /// Measurement-noise generator; only [`SensorKind::NoisyRamp`] draws
    /// from it.
    rng: Rng,
}

/// A sensor that reads absolute time vetoes fast-forward; a constant
/// one repeats.
impl Periodic for Quantizer {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        if !matches!(self.sensor, SensorKind::Constant(_)) {
            v.aperiodic();
        }
    }
}

impl Quantizer {
    /// The maximum output code.
    const MAX_CODE: u32 = (1 << 12) - 1;
    /// The full-scale input level in volts (the low rail is 0 V).
    const FULL_SCALE: f64 = 3.3;

    /// The instantaneous analog level at `time`. Noisy sensors advance
    /// their seeded generator once per sample.
    fn sample(&mut self, time: SimTime) -> f64 {
        match self.sensor {
            SensorKind::Constant(level) => level,
            SensorKind::Ramp {
                start,
                slope_per_us,
            } => start + slope_per_us * time.as_us_f64(),
            SensorKind::NoisyRamp {
                start,
                slope_per_us,
                sigma,
                ..
            } => (start + slope_per_us * time.as_us_f64()) + sigma * self.rng.gaussian(),
            SensorKind::Sine {
                offset,
                amplitude,
                freq_hz,
            } => {
                let t = time.as_secs_f64();
                offset + amplitude * (2.0 * std::f64::consts::PI * freq_hz * t).sin()
            }
        }
    }

    /// Samples the sensor at `time` and converts; clamps at the rails.
    pub fn convert(&mut self, time: SimTime) -> u32 {
        let frac = (self.sample(time) / Self::FULL_SCALE).clamp(0.0, 1.0);
        (frac * f64::from(Self::MAX_CODE)).round() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let mut q = SensorKind::Constant(2.5).quantizer();
        assert_eq!(q.sample(SimTime::ZERO), 2.5);
        assert_eq!(q.sample(SimTime::from_ms(10)), 2.5);
    }

    #[test]
    fn ramp_crosses_threshold_at_expected_time() {
        let mut q = SensorKind::Ramp {
            start: 0.0,
            slope_per_us: 0.1,
        }
        .quantizer();
        assert!(q.sample(SimTime::from_us(9)) < 1.0);
        assert!(q.sample(SimTime::from_us(11)) > 1.0);
    }

    #[test]
    fn sine_oscillates_around_offset() {
        let mut q = SensorKind::Sine {
            offset: 1.0,
            amplitude: 0.5,
            freq_hz: 1000.0,
        }
        .quantizer();
        // Quarter period of 1 kHz = 250 us -> peak.
        let peak = q.sample(SimTime::from_us(250));
        assert!((peak - 1.5).abs() < 1e-9);
        let zero = q.sample(SimTime::ZERO);
        assert!((zero - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noise_is_reproducible_and_roughly_zero_mean() {
        let noise = SensorKind::NoisyRamp {
            start: 0.0,
            slope_per_us: 0.0,
            sigma: 0.1,
            seed: 42,
        };
        let mut a = noise.quantizer();
        let mut b = noise.quantizer();
        let xs: Vec<f64> = (0..1000).map(|_| a.sample(SimTime::ZERO)).collect();
        let ys: Vec<f64> = (0..1000).map(|_| b.sample(SimTime::ZERO)).collect();
        assert_eq!(xs, ys);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean} too far from zero");
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((var.sqrt() - 0.1).abs() < 0.02);
    }

    #[test]
    fn quantizer_clamps_at_rails() {
        assert_eq!(SensorKind::code_for_level(-5.0), 0);
        assert_eq!(SensorKind::code_for_level(9.0), Quantizer::MAX_CODE);
        assert_eq!(Quantizer::MAX_CODE, 4095);
    }
}
