//! The enumerated description axes: analog source, mediator, execution
//! mode.

use pels_periph::sensor::{Composite, Constant, GaussianNoise, Quantizer, Ramp, Sine};
use pels_sim::SimTime;
use std::fmt;

/// The synthetic analog source behind the SPI/ADC front-ends.
///
/// Substitutes the paper's thermistor/varistor (see `DESIGN.md`): each
/// variant exercises the same digital code path with controllable
/// threshold-crossing behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorKind {
    /// A fixed level (always above/below threshold — used for the
    /// repeatable latency/power measurements).
    Constant(f64),
    /// A linear ramp crossing the threshold at a known time.
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
    /// A sine wave (periodic threshold crossings).
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
        let source: Box<dyn pels_periph::AnalogSource> = match *self {
            SensorKind::Constant(v) => Box::new(Constant(v)),
            SensorKind::Ramp { start, slope_per_us } => Box::new(Ramp {
                start,
                slope_per_us,
            }),
            SensorKind::NoisyRamp {
                start,
                slope_per_us,
                sigma,
                seed,
            } => Box::new(Composite::new(vec![
                Box::new(Ramp {
                    start,
                    slope_per_us,
                }),
                Box::new(GaussianNoise::new(sigma, seed)),
            ])),
            SensorKind::Sine {
                offset,
                amplitude,
                freq_hz,
            } => Box::new(Sine {
                offset,
                amplitude,
                freq_hz,
            }),
        };
        Quantizer::new(source, 12, 0.0, 3.3)
    }

    /// The 12-bit code a given analog level quantizes to (for choosing
    /// thresholds).
    pub fn code_for_level(level: f64) -> u32 {
        let mut q = Quantizer::new(Box::new(Constant(level)), 12, 0.0, 3.3);
        q.convert(SimTime::ZERO)
    }
}

/// Who mediates the linking event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mediator {
    /// PELS issues the actuation over the interconnect (sequenced
    /// action).
    PelsSequenced,
    /// PELS actuates through a single-wire event line (instant action).
    PelsInstant,
    /// The Ibex-class core handles an interrupt (the paper's baseline).
    IbexIrq,
}

impl Mediator {
    /// The serialized name (also the `Display` form).
    pub fn name(&self) -> &'static str {
        match self {
            Mediator::PelsSequenced => "pels-sequenced",
            Mediator::PelsInstant => "pels-instant",
            Mediator::IbexIrq => "ibex-irq",
        }
    }

    /// Parses a serialized name back into the mediator.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "pels-sequenced" => Some(Mediator::PelsSequenced),
            "pels-instant" => Some(Mediator::PelsInstant),
            "ibex-irq" => Some(Mediator::IbexIrq),
            _ => None,
        }
    }
}

impl fmt::Display for Mediator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which simulation path a scenario runs on.
///
/// Both are observationally identical — same traces, latencies,
/// activity and architectural state (the differential suites in
/// `tests/active_path.rs` and `tests/desc_fuzz.rs` prove it) — and differ
/// only in speed. The naive mode exists *for* those differential tests
/// and for before/after benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Every accelerator on: decode cache, active-slave scheduling and
    /// quiescence skipping.
    #[default]
    Fast,
    /// The naive reference path: every peripheral ticks every cycle, no
    /// decode cache.
    Naive,
}

impl ExecMode {
    /// The serialized name (also the `Display` form).
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::Fast => "fast",
            ExecMode::Naive => "naive",
        }
    }

    /// Parses a serialized name back into the mode.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "fast" => Some(ExecMode::Fast),
            "naive" => Some(ExecMode::Naive),
            _ => None,
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensor_kinds_build_quantizers() {
        for kind in [
            SensorKind::Constant(1.0),
            SensorKind::Ramp {
                start: 0.0,
                slope_per_us: 0.1,
            },
            SensorKind::NoisyRamp {
                start: 0.0,
                slope_per_us: 0.1,
                sigma: 0.05,
                seed: 7,
            },
            SensorKind::Sine {
                offset: 1.6,
                amplitude: 1.0,
                freq_hz: 1e4,
            },
        ] {
            let mut q = kind.quantizer();
            let _ = q.convert(SimTime::ZERO);
        }
        assert_eq!(SensorKind::code_for_level(3.3), 4095);
        assert_eq!(SensorKind::code_for_level(0.0), 0);
    }

    #[test]
    fn names_round_trip() {
        for m in [
            Mediator::PelsSequenced,
            Mediator::PelsInstant,
            Mediator::IbexIrq,
        ] {
            assert_eq!(Mediator::from_name(m.name()), Some(m));
        }
        for e in [ExecMode::Fast, ExecMode::Naive] {
            assert_eq!(ExecMode::from_name(e.name()), Some(e));
        }
        assert_eq!(Mediator::from_name("dma"), None);
        assert_eq!(ExecMode::from_name("turbo"), None);
    }
}
