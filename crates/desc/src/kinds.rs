//! The enumerated description axes: analog source, mediator, execution
//! mode.

use std::fmt;

/// The synthetic analog source behind the SPI/ADC/I2C front-ends (defined
/// next to the quantizer that samples it).
pub use pels_periph::sensor::SensorKind;

/// One analog source of each kind, for decoding a kind by its name
/// (the parameters are placeholders).
pub(crate) const SENSOR_KINDS: [SensorKind; 4] = [
    SensorKind::Constant(0.0),
    SensorKind::Ramp { start: 0.0, slope_per_us: 0.0 },
    SensorKind::NoisyRamp { start: 0.0, slope_per_us: 0.0, sigma: 0.0, seed: 0 },
    SensorKind::Sine { offset: 0.0, amplitude: 0.0, freq_hz: 0.0 },
];

/// A sensor's serialized kind name.
pub(crate) fn sensor_name(sensor: &SensorKind) -> &'static str {
    match sensor {
        SensorKind::Constant(_) => "constant",
        SensorKind::Ramp { .. } => "ramp",
        SensorKind::NoisyRamp { .. } => "noisy-ramp",
        SensorKind::Sine { .. } => "sine",
    }
}

/// A sensor's float parameters in the codec's key order (a noisy ramp's
/// integer `seed` is not among them).
pub(crate) fn sensor_fields(sensor: &mut SensorKind) -> Vec<(&'static str, &mut f64)> {
    use SensorKind::*;
    match sensor {
        Constant(level) => vec![("level", level)],
        Ramp { start, slope_per_us } => vec![("start", start), ("slope_per_us", slope_per_us)],
        NoisyRamp { start, slope_per_us, sigma, .. } => {
            vec![("start", start), ("slope_per_us", slope_per_us), ("sigma", sigma)]
        }
        Sine { offset, amplitude, freq_hz } => {
            vec![("offset", offset), ("amplitude", amplitude), ("freq_hz", freq_hz)]
        }
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
    /// Every mediator.
    pub(crate) const ALL: [Mediator; 3] =
        [Mediator::PelsSequenced, Mediator::PelsInstant, Mediator::IbexIrq];

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
        Self::ALL.into_iter().find(|m| m.name() == name)
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
    /// Every mode.
    pub(crate) const ALL: [ExecMode; 2] = [ExecMode::Fast, ExecMode::Naive];

    /// The serialized name (also the `Display` form).
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::Fast => "fast",
            ExecMode::Naive => "naive",
        }
    }

    /// Parses a serialized name back into the mode.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.name() == name)
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
    use pels_sim::SimTime;

    #[test]
    fn sensor_kinds_build_quantizers() {
        // Exact codes pin every analog source bit-for-bit, including a
        // non-integer-microsecond instant (one 55 MHz cycle past 18 µs).
        let times = [
            SimTime::ZERO,
            SimTime::from_us(3),
            SimTime::from_ps(18_018_181),
            SimTime::from_us(25),
            SimTime::from_us(250),
        ];
        let noisy = SensorKind::NoisyRamp {
            start: 0.5,
            slope_per_us: 0.01,
            sigma: 0.05,
            seed: 7,
        };
        let cases = [
            (SensorKind::Constant(1.0), [1241; 5]),
            (
                SensorKind::Ramp {
                    start: 0.5,
                    slope_per_us: 0.01,
                },
                [620, 658, 844, 931, 3723],
            ),
            (noisy, [682, 542, 844, 898, 3694]),
            (
                SensorKind::Sine {
                    offset: 1.6,
                    amplitude: 1.0,
                    freq_hz: 1e4,
                },
                [1985, 2218, 3109, 3226, 1985],
            ),
        ];
        for (kind, want) in cases {
            let mut q = kind.quantizer();
            let got = times.map(|t| q.convert(t));
            assert_eq!(got, want, "{kind:?}");
        }
        // A run of consecutive seeded noisy codes at 55 MHz cycle steps.
        let mut q = noisy.quantizer();
        let run: Vec<u32> = (0..16)
            .map(|c| q.convert(SimTime::from_ps(18_181 * c)))
            .collect();
        assert_eq!(
            run,
            [682, 505, 621, 588, 593, 650, 718, 504, 563, 626, 696, 572, 753, 603, 509, 780]
        );
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
