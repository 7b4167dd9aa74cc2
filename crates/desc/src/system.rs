//! The hardware half of a description: clocks, PELS geometry, peripheral
//! instances, fabric shape.

use crate::error::DescError;
use crate::kinds::{sensor_fields, SensorKind};
use crate::mem_map::{
    APB_SIZE, APB_STRIDE, GPIO_OFFSET, SPI_OFFSET,
};
use pels_core::PelsConfig;
use pels_interconnect::{ArbiterKind, Topology};
use pels_obs::json::MAX_EXACT_INT;
use pels_sim::{EventVector, Frequency};

/// The PELS geometry of a description.
///
/// The loopback window is *not* part of the description: which action
/// lines feed back is an assembly-time invariant of the SoC (lines
/// 40..=47, see `pels_soc`), not a per-system knob, so descriptions
/// cannot desynchronize it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PelsDesc {
    /// Number of independent links (paper sweeps 1–8; hardware model
    /// caps at 64).
    pub links: usize,
    /// SCM lines (commands) per link (paper sweeps 4, 6, 8; hardware
    /// model caps at 512).
    pub scm_lines: usize,
    /// Trigger-FIFO depth per link (0 = unbuffered ablation; hardware
    /// model caps at 64).
    pub fifo_depth: usize,
}

impl Default for PelsDesc {
    /// The paper's minimal configuration — identical to
    /// [`PelsConfig::default`].
    fn default() -> Self {
        Self::from_config(&PelsConfig::default())
    }
}

impl PelsDesc {
    /// The corresponding [`PelsConfig`] (loopback left empty — the SoC
    /// assembly owns it).
    pub fn to_config(self) -> PelsConfig {
        PelsConfig {
            links: self.links,
            scm_lines: self.scm_lines,
            fifo_depth: self.fifo_depth,
            loopback: EventVector::EMPTY,
        }
    }

    /// The description of an existing configuration (loopback dropped —
    /// it is assembly-owned).
    pub fn from_config(config: &PelsConfig) -> Self {
        PelsDesc {
            links: config.links,
            scm_lines: config.scm_lines,
            fifo_depth: config.fifo_depth,
        }
    }

    fn validate_at(&self, base: &str) -> Result<(), DescError> {
        if !(1..=64).contains(&self.links) {
            return Err(DescError::new(
                format!("{base}/pels/links"),
                format!("links must be between 1 and 64, got {}", self.links),
            ));
        }
        if !(1..=512).contains(&self.scm_lines) {
            return Err(DescError::new(
                format!("{base}/pels/scm_lines"),
                format!("scm_lines must be between 1 and 512, got {}", self.scm_lines),
            ));
        }
        if self.fifo_depth > 64 {
            return Err(DescError::new(
                format!("{base}/pels/fifo_depth"),
                format!("fifo_depth must be at most 64, got {}", self.fifo_depth),
            ));
        }
        Ok(())
    }
}

/// What kind of peripheral an instance is, plus its per-kind parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeriphKind {
    /// GPIO controller (set/clear/toggle action lines, pin-0 rise event).
    Gpio,
    /// Periodic timer (compare event, start/stop action lines).
    Timer,
    /// SPI master with µDMA channel (end-of-transfer event).
    Spi {
        /// SPI cycles per transferred word.
        clkdiv: u32,
    },
    /// SAR ADC (conversion-done event).
    Adc {
        /// Cycles one conversion takes.
        conversion_cycles: u32,
    },
    /// UART (tx-done event).
    Uart,
    /// Watchdog (bite event, kick action line).
    Wdt,
    /// I2C master with an attached sensor device (done/nack events).
    I2c,
}

/// One instance of each peripheral kind, in canonical slot order, with
/// the reference platform's parameters (SPI clkdiv 4, 16-cycle ADC
/// conversions).
pub(crate) const CANONICAL_KINDS: [PeriphKind; 7] = [
    PeriphKind::Gpio,
    PeriphKind::Timer,
    PeriphKind::Spi { clkdiv: 4 },
    PeriphKind::Adc {
        conversion_cycles: 16,
    },
    PeriphKind::Uart,
    PeriphKind::Wdt,
    PeriphKind::I2c,
];

/// The longest clock period a description may give: below 1 kHz is no
/// SoC clock, and a huge period overflows picosecond time within a few
/// cycles.
pub(crate) const MAX_PERIOD_PS: u64 = 1_000_000_000;

impl PeriphKind {
    /// The serialized kind name — also the instance's component name in
    /// traces and activity images.
    pub fn name(&self) -> &'static str {
        match self {
            PeriphKind::Gpio => "gpio",
            PeriphKind::Timer => "timer",
            PeriphKind::Spi { .. } => "spi",
            PeriphKind::Adc { .. } => "adc",
            PeriphKind::Uart => "uart",
            PeriphKind::Wdt => "wdt",
            PeriphKind::I2c => "i2c",
        }
    }
}

/// One peripheral instance: its kind and the APB slot it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriphInst {
    /// The kind (with per-kind parameters).
    pub kind: PeriphKind,
    /// Byte offset of the instance's slot from the APB base. Must be a
    /// multiple of [`APB_STRIDE`] inside the APB window.
    pub offset: u32,
}

/// A validated, serializable description of one SoC: clock, PELS
/// geometry, analog source, fabric shape and the peripheral instances
/// with their memory-map slots.
///
/// `Soc::from_desc` (in `pels-soc`) validates one and assembles exactly
/// the SoC it describes. JSON round-trips are lossless:
/// `SystemDesc::from_json(d.to_json()) == d`.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemDesc {
    /// System clock (period 1 ps ..= 1 ms).
    pub freq: Frequency,
    /// PELS geometry.
    pub pels: PelsDesc,
    /// The analog source behind the SPI/ADC/I2C front-ends.
    pub sensor: SensorKind,
    /// Fabric topology (shared APB vs per-slave crossbar).
    pub topology: Topology,
    /// Arbitration policy (round-robin vs fixed-priority).
    pub arbiter: ArbiterKind,
    /// Whether the timer compare event starts an SPI transfer (the
    /// autonomous-readout wiring of the paper's workload).
    pub timer_starts_spi: bool,
    /// Peripheral instances in assembly order. Validation requires
    /// exactly one of each kind on distinct stride-aligned slots.
    pub peripherals: Vec<PeriphInst>,
}

impl Default for SystemDesc {
    /// The paper's reference platform: 55 MHz, minimal PELS, a constant
    /// 2.5 V source, the canonical seven peripherals on their canonical
    /// slots (SPI clkdiv 4, 16-cycle ADC conversions).
    ///
    /// This is *the* single source of the defaults — every SoC and
    /// scenario starts from it, so the constants cannot drift apart.
    fn default() -> Self {
        SystemDesc {
            freq: Frequency::from_mhz(55.0),
            pels: PelsDesc::default(),
            sensor: SensorKind::Constant(2.5),
            topology: Topology::Shared,
            arbiter: ArbiterKind::RoundRobin,
            timer_starts_spi: true,
            peripherals: Self::canonical_peripherals(),
        }
    }
}

impl SystemDesc {
    /// The canonical seven peripheral instances on their canonical slots
    /// (the fixed wiring of the paper's platform).
    pub fn canonical_peripherals() -> Vec<PeriphInst> {
        CANONICAL_KINDS
            .into_iter()
            .enumerate()
            .map(|(i, kind)| PeriphInst {
                kind,
                offset: i as u32 * APB_STRIDE,
            })
            .collect()
    }

    /// The first SPI instance's clock divider, or the default (4) when
    /// the description has no SPI instance (which never survives
    /// [`SystemDesc::validate`]).
    pub fn spi_clkdiv(&self) -> u32 {
        self.peripherals
            .iter()
            .find_map(|p| match p.kind {
                PeriphKind::Spi { clkdiv } => Some(clkdiv),
                _ => None,
            })
            .unwrap_or(4)
    }

    /// Points the first SPI instance at a new clock divider (no-op when
    /// the description has no SPI instance — validation reports that
    /// separately).
    pub fn set_spi_clkdiv(&mut self, clkdiv: u32) {
        for p in &mut self.peripherals {
            if let PeriphKind::Spi { clkdiv: c } = &mut p.kind {
                *c = clkdiv;
                return;
            }
        }
    }

    /// The first ADC instance's conversion latency, or the default (16)
    /// when the description has no ADC instance.
    pub fn adc_conversion_cycles(&self) -> u32 {
        self.peripherals
            .iter()
            .find_map(|p| match p.kind {
                PeriphKind::Adc { conversion_cycles } => Some(conversion_cycles),
                _ => None,
            })
            .unwrap_or(16)
    }

    /// Points the first ADC instance at a new conversion latency (no-op
    /// when the description has no ADC instance).
    pub fn set_adc_conversion_cycles(&mut self, cycles: u32) {
        for p in &mut self.peripherals {
            if let PeriphKind::Adc { conversion_cycles } = &mut p.kind {
                *conversion_cycles = cycles;
                return;
            }
        }
    }

    /// The APB slot offset of the first instance named `kind_name`, or
    /// the canonical offset when absent.
    fn offset_of(&self, kind_name: &str, fallback: u32) -> u32 {
        self.peripherals
            .iter()
            .find(|p| p.kind.name() == kind_name)
            .map(|p| p.offset)
            .unwrap_or(fallback)
    }

    /// The GPIO instance's APB slot offset.
    pub fn gpio_offset(&self) -> u32 {
        self.offset_of("gpio", GPIO_OFFSET)
    }

    /// The SPI instance's APB slot offset.
    pub fn spi_offset(&self) -> u32 {
        self.offset_of("spi", SPI_OFFSET)
    }

    /// Checks the description describes a buildable SoC.
    ///
    /// # Errors
    ///
    /// [`DescError`] with the JSON path of the first offending value:
    /// PELS geometry out of the modelled hardware range, a peripheral
    /// kind missing or duplicated, a slot off-stride / outside the APB
    /// window / doubly occupied, a zero SPI divider or ADC conversion
    /// latency, a non-finite sensor parameter, or a sensor seed too
    /// large for a JSON number.
    pub fn validate(&self) -> Result<(), DescError> {
        self.validate_at("")
    }

    /// [`SystemDesc::validate`] with every reported path prefixed by
    /// `base` — how a nested description (e.g. under `/system`) reports
    /// in its host document's coordinates.
    pub fn validate_at(&self, base: &str) -> Result<(), DescError> {
        if self.freq.period_ps() > MAX_PERIOD_PS {
            return Err(DescError::new(
                format!("{base}/freq_period_ps"),
                format!(
                    "clock period must be at most {MAX_PERIOD_PS} ps (1 kHz), got {}",
                    self.freq.period_ps()
                ),
            ));
        }
        self.pels.validate_at(base)?;
        for (field, v) in sensor_fields(&mut { self.sensor }) {
            if !v.is_finite() {
                return Err(DescError::new(
                    format!("{base}/sensor/{field}"),
                    "sensor parameters must be finite (JSON has no NaN or infinity)",
                ));
            }
        }
        if let SensorKind::NoisyRamp { seed, .. } = self.sensor {
            if seed > MAX_EXACT_INT {
                return Err(DescError::new(
                    format!("{base}/sensor/seed"),
                    "seed must fit a JSON number exactly (at most 2^53)",
                ));
            }
        }
        let mut seen_kinds: Vec<&'static str> = Vec::new();
        let mut seen_offsets: Vec<u32> = Vec::new();
        for (i, p) in self.peripherals.iter().enumerate() {
            let name = p.kind.name();
            if seen_kinds.contains(&name) {
                return Err(DescError::new(
                    format!("{base}/peripherals/{i}/kind"),
                    format!("duplicate peripheral kind `{name}`"),
                ));
            }
            seen_kinds.push(name);
            if p.offset % APB_STRIDE != 0 {
                return Err(DescError::new(
                    format!("{base}/peripherals/{i}/offset"),
                    format!(
                        "offset {} is not a multiple of the {APB_STRIDE}-byte APB stride",
                        p.offset
                    ),
                ));
            }
            if p.offset >= APB_SIZE {
                return Err(DescError::new(
                    format!("{base}/peripherals/{i}/offset"),
                    format!(
                        "offset {} lies outside the {APB_SIZE}-byte APB window",
                        p.offset
                    ),
                ));
            }
            if seen_offsets.contains(&p.offset) {
                return Err(DescError::new(
                    format!("{base}/peripherals/{i}/offset"),
                    format!("APB slot {} is already occupied", p.offset),
                ));
            }
            seen_offsets.push(p.offset);
            match p.kind {
                PeriphKind::Spi { clkdiv: 0 } => {
                    return Err(DescError::new(
                        format!("{base}/peripherals/{i}/clkdiv"),
                        "clkdiv must be at least 1",
                    ));
                }
                PeriphKind::Adc { conversion_cycles: 0 } => {
                    return Err(DescError::new(
                        format!("{base}/peripherals/{i}/conversion_cycles"),
                        "conversion_cycles must be at least 1",
                    ));
                }
                _ => {}
            }
        }
        for required in CANONICAL_KINDS.map(|k| k.name()) {
            if !seen_kinds.contains(&required) {
                return Err(DescError::new(
                    format!("{base}/peripherals"),
                    format!("missing peripheral kind `{required}`"),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_desc_validates_and_matches_pels_config() {
        let d = SystemDesc::default();
        d.validate().expect("default desc is valid");
        assert_eq!(PelsDesc::default().to_config(), PelsConfig::default());
        assert_eq!(d.spi_clkdiv(), 4);
        assert_eq!(d.adc_conversion_cycles(), 16);
        assert_eq!(d.gpio_offset(), GPIO_OFFSET);
        assert_eq!(d.spi_offset(), SPI_OFFSET);
    }

    #[test]
    fn validate_pins_paths() {
        let mut d = SystemDesc::default();
        d.pels.links = 0;
        let e = d.validate().unwrap_err();
        assert_eq!(e.path, "/pels/links");

        let mut d = SystemDesc::default();
        d.pels.scm_lines = 513;
        let e = d.validate_at("/system").unwrap_err();
        assert_eq!(e.path, "/system/pels/scm_lines");

        let d = SystemDesc {
            freq: Frequency::from_period_ps(u64::MAX),
            ..SystemDesc::default()
        };
        let e = d.validate().unwrap_err();
        assert_eq!(e.path, "/freq_period_ps");

        for depth in [65, 100_000_000_000, usize::MAX] {
            let mut d = SystemDesc::default();
            d.pels.fifo_depth = depth;
            let e = d.validate().unwrap_err();
            assert_eq!(e.path, "/pels/fifo_depth");
        }

        let mut d = SystemDesc::default();
        d.set_spi_clkdiv(0);
        let e = d.validate().unwrap_err();
        assert_eq!(e.path, "/peripherals/2/clkdiv");

        let mut d = SystemDesc::default();
        d.peripherals[3].offset = d.peripherals[6].offset;
        let e = d.validate().unwrap_err();
        assert_eq!(e.path, "/peripherals/6/offset");
        assert!(e.message.contains("already occupied"), "{e}");

        let mut d = SystemDesc::default();
        d.peripherals[1].offset = 12;
        let e = d.validate().unwrap_err();
        assert_eq!(e.path, "/peripherals/1/offset");

        let mut d = SystemDesc::default();
        d.peripherals.remove(4);
        let e = d.validate().unwrap_err();
        assert_eq!(e.path, "/peripherals");
        assert!(e.message.contains("`uart`"), "{e}");

        let mut d = SystemDesc::default();
        d.peripherals[0].kind = PeriphKind::Timer;
        let e = d.validate().unwrap_err();
        assert_eq!(e.path, "/peripherals/1/kind");
        assert!(e.message.contains("duplicate"), "{e}");

        let sensors = [
            (SensorKind::Constant(f64::NAN), "level"),
            (SensorKind::Ramp { start: 0.0, slope_per_us: f64::INFINITY }, "slope_per_us"),
            (
                SensorKind::NoisyRamp {
                    start: 0.0,
                    slope_per_us: 0.1,
                    sigma: f64::NEG_INFINITY,
                    seed: 1,
                },
                "sigma",
            ),
            (SensorKind::Sine { offset: f64::NAN, amplitude: 1.0, freq_hz: 1e3 }, "offset"),
        ];
        for (sensor, field) in sensors {
            let d = SystemDesc {
                sensor,
                ..SystemDesc::default()
            };
            let e = d.validate_at("/system").unwrap_err();
            assert_eq!(e.path, format!("/system/sensor/{field}"));
        }
    }

    #[test]
    fn setters_target_the_parameterized_kinds() {
        let mut d = SystemDesc::default();
        d.set_spi_clkdiv(9);
        d.set_adc_conversion_cycles(3);
        assert_eq!(d.spi_clkdiv(), 9);
        assert_eq!(d.adc_conversion_cycles(), 3);
    }
}
