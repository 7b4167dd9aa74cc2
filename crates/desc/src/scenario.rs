//! The workload half of a description: who mediates, the stimulus, how
//! much to measure, and how to run it.

use crate::error::DescError;
use crate::kinds::{ExecMode, Mediator, SensorKind};
use crate::system::SystemDesc;
use pels_core::PelsConfig;
use pels_obs::json::MAX_EXACT_INT;
use pels_sim::{Frequency, SimTime};

/// A validated, serializable description of one evaluation run: the
/// [`SystemDesc`] it executes on plus the workload knobs (mediator,
/// threshold, readout shape, event count, execution mode, observability).
///
/// `Scenario::from_desc` (in `pels-soc`) validates one and turns it into a
/// runnable scenario; a variant is written with struct-update syntax,
/// `ScenarioDesc { obs: true, ..base.clone() }`. JSON round-trips are
/// lossless: `ScenarioDesc::from_json(d.to_json()) == d`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDesc {
    /// The platform the scenario runs on.
    pub system: SystemDesc,
    /// Who mediates the linking event.
    pub mediator: Mediator,
    /// Analog threshold level (V); the default sensor's constant level
    /// sits above it so every readout actuates.
    pub threshold_level: f64,
    /// Wall-clock interval between sensor readouts (the sensor's sample
    /// rate is a property of the application, not of the mediator's
    /// clock).
    pub sample_period: SimTime,
    /// Words per SPI readout.
    pub spi_words: u32,
    /// Linking events to measure.
    pub events: u32,
    /// `true` → the link runs the minimal single-RMW/action program (the
    /// latency-table measurement); `false` → the full Figure 3 threshold
    /// check (the Figure 5 power workload).
    pub rmw_only: bool,
    /// Which simulation path to run on (fast / naive); both are
    /// observationally identical.
    pub exec: ExecMode,
    /// Collect an observability metrics snapshot with the report, and
    /// keep the active run's trace entries in it (the Chrome export
    /// reads them; without `obs` the trace keeps only its digest,
    /// counts and latencies). Publishing happens after the simulation
    /// windows complete and keeping entries is observation, so the
    /// setting cannot perturb architectural results
    /// (`tests/observation_invariance.rs`).
    pub obs: bool,
    /// Nominal sampling-window width (in cycles) for the activity
    /// timeline of the active run; `0` disables sampling.
    pub timeline_window: u64,
    /// Record causal event flows (`pels_sim::flow`) during the run. Pure
    /// observation like `obs`: `tests/observation_invariance.rs` proves
    /// runs are bit-identical with flows on and off.
    pub flows: bool,
    /// Integrate the run's power into an energy ledger and project
    /// battery lifetime with the report. Pure post-processing over the
    /// activity the run recorded anyway: `tests/observation_invariance.rs`
    /// proves runs are bit-identical with the ledger on and off.
    pub lifetime: bool,
}

impl Default for ScenarioDesc {
    /// The paper's common base workload on the default platform: 2.5 V
    /// sensor vs 1.6 V threshold, 1 µs sample period, 2-word DMA
    /// readouts, 20 events, sequenced-action mediation.
    fn default() -> Self {
        ScenarioDesc {
            system: SystemDesc::default(),
            mediator: Mediator::PelsSequenced,
            threshold_level: 1.6,
            sample_period: SimTime::from_ns(1000),
            spi_words: 2,
            events: 20,
            rmw_only: false,
            exec: ExecMode::Fast,
            obs: false,
            timeline_window: 0,
            flows: false,
            lifetime: false,
        }
    }
}

impl ScenarioDesc {
    /// The system clock (of the mediating system).
    pub fn freq(&self) -> Frequency {
        self.system.freq
    }

    /// The analog source.
    pub fn sensor(&self) -> SensorKind {
        self.system.sensor
    }

    /// The SPI cycles-per-word divider of the described system.
    pub fn spi_clkdiv(&self) -> u32 {
        self.system.spi_clkdiv()
    }

    /// The PELS configuration of the described system (loopback left to
    /// the SoC assembly).
    pub fn pels(&self) -> PelsConfig {
        self.system.pels.to_config()
    }

    /// The sample period in whole cycles of this scenario's clock, as
    /// armed into the timer's 32-bit compare register. Exact for every
    /// description [`ScenarioDesc::validate`] accepts.
    pub fn timer_period_cycles(&self) -> u32 {
        (self.sample_period.as_ps() / self.system.freq.period_ps()) as u32
    }

    /// The sensor threshold as a 12-bit code.
    pub fn threshold_code(&self) -> u32 {
        SensorKind::code_for_level(self.threshold_level)
    }

    /// Checks the description describes a runnable, measurable scenario.
    ///
    /// # Errors
    ///
    /// [`DescError`] with the JSON path of the first offending value:
    /// a non-finite threshold level, zero events / SPI words, a readout whose µDMA byte count
    /// (`spi_words * 4`) overflows `u32`, a sample period shorter than
    /// one clock cycle or longer than `u32::MAX` cycles, a sample period
    /// (ps) or timeline window above 2^53 (the largest integer a JSON
    /// number holds exactly), the interrupt baseline without µDMA, or
    /// any [`SystemDesc::validate`] failure (reported under `/system`).
    pub fn validate(&self) -> Result<(), DescError> {
        if !self.threshold_level.is_finite() {
            return Err(DescError::new(
                "/threshold_level",
                "threshold_level must be finite (JSON has no NaN or infinity)",
            ));
        }
        if self.events == 0 {
            return Err(DescError::new("/events", "events must be at least 1"));
        }
        if self.spi_words == 0 {
            return Err(DescError::new("/spi_words", "spi_words must be at least 1"));
        }
        if self.spi_words.checked_mul(4).is_none() {
            return Err(DescError::new(
                "/spi_words",
                "spi_words * 4 (the µDMA byte count) must fit in 32 bits",
            ));
        }
        if self.sample_period.as_ps() == 0 {
            return Err(DescError::new(
                "/sample_period_ps",
                "sample_period must be non-zero",
            ));
        }
        if self.sample_period.as_ps() > MAX_EXACT_INT {
            return Err(DescError::new(
                "/sample_period_ps",
                "sample_period must fit a JSON number exactly (at most 2^53 ps)",
            ));
        }
        let period_cycles = self.sample_period.as_ps() / self.system.freq.period_ps();
        if period_cycles == 0 || period_cycles > u64::from(u32::MAX) {
            return Err(DescError::new(
                "/sample_period_ps",
                "sample_period must span 1 to 2^32 - 1 clock cycles (the timer's compare range)",
            ));
        }
        if self.timeline_window > MAX_EXACT_INT {
            return Err(DescError::new(
                "/timeline_window",
                "timeline_window must fit a JSON number exactly (at most 2^53)",
            ));
        }
        self.system.validate_at("/system")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_desc_validates() {
        let d = ScenarioDesc::default();
        d.validate().expect("default scenario desc is valid");
        // 1 µs at 55 MHz (period rounded to 18182 ps): 54 whole cycles.
        assert_eq!(d.timer_period_cycles(), 54);
        assert_eq!(d.spi_clkdiv(), 4);
        assert_eq!(d.pels(), PelsConfig::default());
    }

    #[test]
    fn validate_pins_paths() {
        let d = ScenarioDesc {
            events: 0,
            ..ScenarioDesc::default()
        };
        assert_eq!(d.validate().unwrap_err().path, "/events");

        let d = ScenarioDesc {
            spi_words: 0,
            ..ScenarioDesc::default()
        };
        assert_eq!(d.validate().unwrap_err().path, "/spi_words");

        let d = ScenarioDesc {
            sample_period: SimTime::ZERO,
            ..ScenarioDesc::default()
        };
        assert_eq!(d.validate().unwrap_err().path, "/sample_period_ps");

        let mut d = ScenarioDesc::default();
        d.system.pels.links = 99;
        assert_eq!(d.validate().unwrap_err().path, "/system/pels/links");

        // The µDMA byte count `spi_words * 4` must not overflow.
        let d = ScenarioDesc {
            spi_words: 1 << 30,
            ..ScenarioDesc::default()
        };
        assert_eq!(d.validate().unwrap_err().path, "/spi_words");
        let d = ScenarioDesc {
            spi_words: (1 << 30) - 1,
            ..ScenarioDesc::default()
        };
        d.validate().expect("the largest readout fits");

        // The timer compare value must be 1..=u32::MAX cycles.
        for period in [SimTime::from_ps(1), SimTime::from_ms(100_000)] {
            let d = ScenarioDesc {
                sample_period: period,
                ..ScenarioDesc::default()
            };
            assert_eq!(d.validate().unwrap_err().path, "/sample_period_ps", "{period}");
        }
        let d = ScenarioDesc {
            sample_period: SimTime::from_ms(78_000),
            ..ScenarioDesc::default()
        };
        d.validate().expect("78 s at 55 MHz fits the timer");
        assert_eq!(d.timer_period_cycles(), 4_289_957_100);

        // Integer fields stay within what a JSON number holds exactly.
        let mut d = ScenarioDesc {
            sample_period: SimTime::from_ps(MAX_EXACT_INT),
            ..ScenarioDesc::default()
        };
        d.system.freq = Frequency::from_period_ps(1_000_000_000);
        d.validate().expect("2^53 ps at 1 kHz fits the timer");
        d.sample_period = SimTime::from_ps(MAX_EXACT_INT + 1);
        assert_eq!(d.validate().unwrap_err().path, "/sample_period_ps");
        let d = ScenarioDesc {
            timeline_window: MAX_EXACT_INT,
            ..ScenarioDesc::default()
        };
        d.validate().expect("a 2^53-cycle window is representable");
        let d = ScenarioDesc {
            timeline_window: MAX_EXACT_INT + 1,
            ..ScenarioDesc::default()
        };
        assert_eq!(d.validate().unwrap_err().path, "/timeline_window");

        // Floats must be finite: JSON cannot spell NaN or infinity.
        let d = ScenarioDesc {
            threshold_level: f64::NAN,
            ..ScenarioDesc::default()
        };
        assert_eq!(d.validate().unwrap_err().path, "/threshold_level");
        let mut d = ScenarioDesc::default();
        d.system.sensor = SensorKind::Constant(f64::INFINITY);
        assert_eq!(d.validate().unwrap_err().path, "/system/sensor/level");
    }
}
