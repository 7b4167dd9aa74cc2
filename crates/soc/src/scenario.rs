//! The paper's evaluation workload (Section IV-B).
//!
//! "We design an event-linking application consisting of a
//! threshold-crossing check after I/O DMA-managed sensor readout through
//! the SPI interface [...] We compare PELS's mediation through sequenced
//! actions with an interrupt-based mechanism redirecting the linking event
//! to the Ibex core in two scenarios: (i) iso-latency [...] PELS and Ibex
//! match a 500 ns latency requirement at 27 MHz and 55 MHz respectively,
//! and (ii) iso-frequency" (both at 55 MHz).
//!
//! A [`Scenario`] describes one such run: who mediates the linking
//! ([`Mediator`]), at what frequency, with which microcode/handler
//! flavour. [`Scenario::run`] executes it cycle-accurately and returns a
//! [`ScenarioReport`] with per-event latencies and the switching activity
//! of both the measurement window and a matching idle window — the inputs
//! Figure 5 and the Section IV-B latency comparison are regenerated from.

use crate::baseline;
use crate::event_map::*;
use crate::mem_map::*;
use crate::power_setup;
use crate::soc::{ConfigError, SchedStats, SensorKind, Soc, SocBuilder};
use pels_core::{ActionMode, Command, Cond, PelsConfig, Program, TriggerCond};
use pels_desc::{DescError, ExecMode, ScenarioDesc};
use pels_interconnect::{ApbSlave, ArbiterKind, Topology};
use pels_periph::{Spi, Timer};
use pels_power::{Battery, EnergyLedger, LifetimeReport, PowerModel, PowerReport, PowerTimeline};
use pels_sim::{ActivitySet, EventVector, Frequency, SimTime, Trace};
use std::fmt;
use std::ops::Deref;

/// Why a [`Scenario`] could not be built — or, at run time, why it
/// produced no measurement.
///
/// Returned by [`ScenarioBuilder::build`] (construction-time validation)
/// and [`Scenario::try_run`] (runtime failure). A sweep engine maps each
/// variant to a per-job failure instead of a harness panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// `events == 0`: there is nothing to measure.
    ZeroEvents,
    /// `spi_words == 0`: the readout would transfer nothing, so the
    /// end-of-transfer event driving the whole chain never fires.
    ZeroSpiWords,
    /// `sample_period` was zero: the timer would need a period of zero
    /// cycles.
    ZeroSamplePeriod,
    /// The interrupt baseline (`Mediator::IbexIrq`) with `use_udma ==
    /// false`: the handler image re-arms the µDMA channel and reads the
    /// landed sample, so the combination cannot execute coherently.
    IrqNeedsUdma,
    /// The SoC configuration itself was invalid (zero links / SCM lines /
    /// clkdiv).
    Config(ConfigError),
    /// Any other [`ScenarioDesc::validate`] failure, with the JSON path
    /// of the offending value.
    Desc(DescError),
    /// The run completed no linking event inside its cycle budget — a
    /// mis-targeted threshold, a mis-wired link, or a budget too small.
    NoEvents {
        /// The mediator that failed to produce an event.
        mediator: Mediator,
        /// The cycle budget that elapsed without a completion.
        budget: u64,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::ZeroEvents => f.write_str("events must be at least 1"),
            ScenarioError::ZeroSpiWords => f.write_str("spi_words must be at least 1"),
            ScenarioError::ZeroSamplePeriod => {
                f.write_str("sample_period must be non-zero")
            }
            ScenarioError::IrqNeedsUdma => {
                f.write_str("the ibex-irq baseline requires use_udma (its handler reads the sample from L2)")
            }
            ScenarioError::Config(e) => write!(f, "invalid SoC configuration: {e}"),
            ScenarioError::Desc(e) => write!(f, "invalid description: {e}"),
            ScenarioError::NoEvents { mediator, budget } => write!(
                f,
                "no linking event completed for {mediator} within {budget} cycles"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Config(e) => Some(e),
            ScenarioError::Desc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        ScenarioError::Config(e)
    }
}

/// Who mediates the linking event (now owned by `pels-desc`, re-exported
/// for compatibility).
pub use pels_desc::Mediator;

/// Per-event latency statistics (in mediator-clock cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkingStats {
    /// Events measured.
    pub count: usize,
    /// Minimum latency.
    pub min: u64,
    /// Maximum latency.
    pub max: u64,
    /// Mean latency (rounded down).
    pub mean: u64,
    /// Median latency — the rank-`ceil(0.50·count)` sample, exact.
    pub p50: u64,
    /// 99th-percentile latency — the rank-`ceil(0.99·count)` sample,
    /// exact. With the paper's small event counts this usually equals
    /// `max`; it diverges exactly when the tail does.
    pub p99: u64,
}

impl LinkingStats {
    /// Computes stats from raw per-event cycle latencies; `None` on an
    /// empty sample (a run that completed no events has no statistics —
    /// the caller decides whether that is a per-job failure or a bug).
    ///
    /// Quantiles are exact (computed from the sorted sample), unlike the
    /// bounded-error [`pels_obs::Histogram`] the report carries next to
    /// these stats.
    pub fn from_cycles(latencies: &[u64]) -> Option<Self> {
        let (&min, &max) = (latencies.iter().min()?, latencies.iter().max()?);
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let rank = |q: f64| {
            let r = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[r - 1]
        };
        Some(LinkingStats {
            count: latencies.len(),
            min,
            max,
            mean: latencies.iter().sum::<u64>() / latencies.len() as u64,
            p50: rank(0.50),
            p99: rank(0.99),
        })
    }

    /// Max − min: the jitter the paper argues instant actions eliminate.
    pub fn jitter(&self) -> u64 {
        self.max - self.min
    }
}

/// One evaluation run: a validated [`ScenarioDesc`] plus the machinery to
/// execute it.
///
/// The canonical ways to obtain one are [`Scenario::from_desc`] (from a
/// description, possibly loaded via [`ScenarioDesc::from_json`]) and
/// [`Scenario::builder`] (or the preset shorthands
/// [`Scenario::iso_latency`] / [`Scenario::iso_frequency`] /
/// [`Scenario::latency_probe`], which wrap it). Every path validates, so
/// a `Scenario` in hand is always runnable. The scenario [`Deref`]s to
/// its description for *reading* (`s.events`, `s.mediator`,
/// `s.system.topology`, …); mutation routes through
/// [`Scenario::to_builder`] so it cannot bypass validation.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    desc: ScenarioDesc,
}

impl Deref for Scenario {
    type Target = ScenarioDesc;

    fn deref(&self) -> &ScenarioDesc {
        &self.desc
    }
}

/// Chained, validating constructor for [`Scenario`] — the canonical
/// construction path.
///
/// Starts from the paper's common base workload (2.5 V sensor vs 1.6 V
/// threshold, 1 µs sample period, 2-word DMA readouts, 20 events) and
/// lets each knob be overridden; [`ScenarioBuilder::build`] rejects
/// configurations that could never measure anything.
///
/// ```
/// use pels_soc::{Mediator, Scenario};
/// let s = Scenario::builder()
///     .mediator(Mediator::PelsInstant)
///     .events(8)
///     .pels_links(2)
///     .build()
///     .expect("valid scenario");
/// assert_eq!(s.events, 8);
/// assert!(Scenario::builder().events(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    draft: ScenarioDesc,
}

impl ScenarioBuilder {
    /// Starts from the common base workload
    /// ([`ScenarioDesc::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets who mediates the linking event.
    pub fn mediator(mut self, mediator: Mediator) -> Self {
        self.draft.mediator = mediator;
        self
    }

    /// Sets the system clock.
    pub fn frequency(mut self, freq: Frequency) -> Self {
        self.draft.system.freq = freq;
        self
    }

    /// Sets the analog threshold level (V).
    pub fn threshold_level(mut self, level: f64) -> Self {
        self.draft.threshold_level = level;
        self
    }

    /// Selects the analog source.
    pub fn sensor(mut self, sensor: SensorKind) -> Self {
        self.draft.system.sensor = sensor;
        self
    }

    /// Sets the wall-clock interval between sensor readouts.
    pub fn sample_period(mut self, period: SimTime) -> Self {
        self.draft.sample_period = period;
        self
    }

    /// Sets the words per SPI readout.
    pub fn spi_words(mut self, words: u32) -> Self {
        self.draft.spi_words = words;
        self
    }

    /// Sets the SPI cycles-per-word divider.
    pub fn spi_clkdiv(mut self, clkdiv: u32) -> Self {
        self.draft.system.set_spi_clkdiv(clkdiv);
        self
    }

    /// Sets the number of linking events to measure.
    pub fn events(mut self, events: u32) -> Self {
        self.draft.events = events;
        self
    }

    /// Replaces the whole PELS configuration (the loopback window is
    /// assembly-owned and ignored).
    pub fn pels(mut self, pels: PelsConfig) -> Self {
        self.draft.system.pels = pels_desc::PelsDesc::from_config(&pels);
        self
    }

    /// Sets the number of PELS links.
    pub fn pels_links(mut self, links: usize) -> Self {
        self.draft.system.pels.links = links;
        self
    }

    /// Sets the SCM lines per link.
    pub fn scm_lines(mut self, lines: usize) -> Self {
        self.draft.system.pels.scm_lines = lines;
        self
    }

    /// Sets the per-link trigger-FIFO depth.
    pub fn fifo_depth(mut self, depth: usize) -> Self {
        self.draft.system.pels.fifo_depth = depth;
        self
    }

    /// `true` → minimal single-action program; `false` → full threshold
    /// check.
    pub fn rmw_only(mut self, rmw_only: bool) -> Self {
        self.draft.rmw_only = rmw_only;
        self
    }

    /// Whether readout data lands in L2 through the SPI µDMA channel.
    pub fn use_udma(mut self, use_udma: bool) -> Self {
        self.draft.use_udma = use_udma;
        self
    }

    /// Selects the fabric topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.draft.system.topology = topology;
        self
    }

    /// Selects the arbitration policy.
    pub fn arbiter(mut self, arbiter: ArbiterKind) -> Self {
        self.draft.system.arbiter = arbiter;
        self
    }

    /// Selects which simulation path the run executes on. All modes are
    /// observationally identical (the differential suites prove it);
    /// the slow ones exist for those suites and for before/after
    /// benchmarks.
    pub fn exec_mode(mut self, exec: ExecMode) -> Self {
        self.draft.exec = exec;
        self
    }

    /// Collects an observability metrics snapshot with the report (see
    /// [`ScenarioDesc::obs`]).
    pub fn obs(mut self, obs: bool) -> Self {
        self.draft.obs = obs;
        self
    }

    /// Samples a windowed activity timeline of the active run with the
    /// given nominal window width in cycles; `0` disables sampling (see
    /// [`ScenarioDesc::timeline_window`]).
    pub fn timeline_window(mut self, window_cycles: u64) -> Self {
        self.draft.timeline_window = window_cycles;
        self
    }

    /// Records causal event flows during the active run (see
    /// [`ScenarioDesc::flows`]). Pure observation, like [`Self::obs`]:
    /// `tests/flow_invariance.rs` proves the run is bit-identical with
    /// flows on and off.
    pub fn flows(mut self, flows: bool) -> Self {
        self.draft.flows = flows;
        self
    }

    /// Integrates the run's power into an [`pels_power::EnergyLedger`]
    /// and projects battery lifetime with the report (see
    /// [`ScenarioDesc::lifetime`]). Pure post-processing over activity
    /// the run records anyway: `tests/lifetime_invariance.rs` proves the
    /// run is bit-identical with the ledger on and off.
    pub fn lifetime(mut self, lifetime: bool) -> Self {
        self.draft.lifetime = lifetime;
        self
    }

    /// Validates and produces the scenario
    /// (= [`Scenario::from_desc`] on the accumulated draft).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::ZeroEvents`] / [`ScenarioError::ZeroSpiWords`] /
    /// [`ScenarioError::ZeroSamplePeriod`] for unmeasurable workloads,
    /// [`ScenarioError::IrqNeedsUdma`] for the interrupt baseline without
    /// µDMA, [`ScenarioError::Config`] for an invalid PELS/SoC geometry,
    /// and [`ScenarioError::Desc`] for anything else
    /// [`ScenarioDesc::validate`] rejects.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        Scenario::from_desc(self.draft)
    }
}

impl Scenario {
    /// Starts a [`ScenarioBuilder`] from the common base workload — the
    /// setter-style way to construct a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// The canonical entry point: validates `desc` and wraps it as a
    /// runnable scenario. [`ScenarioBuilder`] is a thin setter layer over
    /// this.
    ///
    /// # Errors
    ///
    /// The legacy unmeasurable-workload checks keep their legacy variants
    /// (zero events / SPI words / sample period, the interrupt baseline
    /// without µDMA, zero links / SCM lines / clkdiv); everything else
    /// [`ScenarioDesc::validate`] catches is reported as
    /// [`ScenarioError::Desc`] with the JSON path of the offending value.
    pub fn from_desc(desc: ScenarioDesc) -> Result<Self, ScenarioError> {
        if desc.events == 0 {
            return Err(ScenarioError::ZeroEvents);
        }
        if desc.spi_words == 0 {
            return Err(ScenarioError::ZeroSpiWords);
        }
        if desc.sample_period.as_ps() == 0 {
            return Err(ScenarioError::ZeroSamplePeriod);
        }
        if desc.mediator == Mediator::IbexIrq && !desc.use_udma {
            return Err(ScenarioError::IrqNeedsUdma);
        }
        if desc.system.pels.links == 0 {
            return Err(ConfigError::ZeroLinks.into());
        }
        if desc.system.pels.scm_lines == 0 {
            return Err(ConfigError::ZeroScmLines.into());
        }
        if desc.spi_clkdiv() == 0 {
            return Err(ConfigError::ZeroClkdiv.into());
        }
        desc.validate().map_err(ScenarioError::Desc)?;
        Ok(Scenario { desc })
    }

    /// The scenario's description — e.g. for serialization via
    /// [`ScenarioDesc::to_json`].
    pub fn desc(&self) -> &ScenarioDesc {
        &self.desc
    }

    /// Iso-latency operating point (paper: 500 ns budget — PELS at
    /// 27 MHz, Ibex at 55 MHz).
    pub fn iso_latency(mediator: Mediator) -> Self {
        let freq = match mediator {
            Mediator::IbexIrq => Frequency::from_mhz(55.0),
            _ => Frequency::from_mhz(27.0),
        };
        Self::builder()
            .mediator(mediator)
            .frequency(freq)
            .build()
            .expect("preset scenarios are valid by construction")
    }

    /// Iso-frequency operating point (both at 55 MHz).
    pub fn iso_frequency(mediator: Mediator) -> Self {
        Self::builder()
            .mediator(mediator)
            .build()
            .expect("preset scenarios are valid by construction")
    }

    /// A long-horizon duty-cycled sensor node: every `sample_period` the
    /// node *sleeps* (timer counting, everything else quiescent),
    /// *senses* (autonomous SPI readout of the default two words) and
    /// *bursts* (mediation + actuation), repeated until `horizon` of
    /// simulated time is covered. Lifetime projection is switched on and
    /// the activity timeline samples one window per duty period, so the
    /// sleep stretch collapses into a single quiescence-stretched sample
    /// — hours of device time integrate in seconds of host time.
    ///
    /// # Panics
    ///
    /// Panics if `sample_period` is zero or does not fit the timer's
    /// 32-bit compare register at the default 55 MHz clock (periods up
    /// to ~78 s).
    pub fn duty_cycled(mediator: Mediator, sample_period: SimTime, horizon: SimTime) -> Self {
        assert!(sample_period.as_ps() > 0, "sample_period must be non-zero");
        let events = (horizon.as_ps() / sample_period.as_ps()).max(1);
        assert!(events <= u64::from(u32::MAX), "horizon holds too many events");
        let builder = Self::builder()
            .mediator(mediator)
            .sample_period(sample_period)
            .events(events as u32)
            .lifetime(true);
        let period_cycles =
            sample_period.as_ps() / builder.draft.system.freq.period_ps();
        assert!(
            period_cycles <= u64::from(u32::MAX),
            "sample_period exceeds the timer's 32-bit compare range"
        );
        builder
            .timeline_window(period_cycles.max(1))
            .build()
            .expect("preset scenarios are valid by construction")
    }

    /// The latency-table variant: minimal mediation program.
    pub fn latency_probe(mediator: Mediator) -> Self {
        Self::builder()
            .mediator(mediator)
            .rmw_only(true)
            .events(10)
            .build()
            .expect("preset scenarios are valid by construction")
    }

    /// A [`ScenarioBuilder`] seeded with this scenario — derive a variant
    /// without mutating fields in place.
    pub fn to_builder(&self) -> ScenarioBuilder {
        ScenarioBuilder {
            draft: self.desc.clone(),
        }
    }

    /// The PELS microcode for this scenario, targeting the described
    /// system's memory map.
    ///
    /// # Panics
    ///
    /// Panics if called for the Ibex mediator.
    pub fn link_program(&self) -> Program {
        let toggle = Command::Toggle {
            offset: pels_word_offset(self.system.gpio_offset(), pels_periph::Gpio::PADOUT),
            mask: 1,
        };
        let pulse = Command::Action {
            mode: ActionMode::Pulse,
            group: 0,
            mask: 1 << AL_GPIO_TOGGLE,
        };
        let actuate = match self.mediator {
            Mediator::PelsSequenced => toggle,
            Mediator::PelsInstant => pulse,
            Mediator::IbexIrq => panic!("the ibex baseline runs no PELS microcode"),
        };
        let cmds = if self.rmw_only {
            vec![actuate, Command::Halt]
        } else {
            // Figure 3: capture the sample, bail below threshold,
            // actuate on the fall-through path (no taken-branch bubble
            // on the measured path).
            vec![
                Command::Capture {
                    offset: pels_word_offset(self.system.spi_offset(), Spi::LAST),
                    mask: 0xFFF,
                },
                Command::JumpIf {
                    cond: Cond::LtU,
                    target: 3,
                    operand: self.threshold_code(),
                },
                actuate,
                Command::Halt,
            ]
        };
        Program::new(cmds).expect("scenario programs are valid by construction")
    }

    /// Assembles the described SoC, loads the mediation program (PELS
    /// microcode or the interrupt-baseline image), arms the readout chain
    /// and applies the execution mode. [`Scenario::try_run`] drives this;
    /// it is public so harnesses (examples, differential tests) can step
    /// the system manually.
    pub fn build_soc(&self) -> Soc {
        let mut soc = SocBuilder::from_desc(self.system.clone()).build();
        if self.flows {
            soc.enable_flows();
        }

        match self.mediator {
            Mediator::PelsSequenced | Mediator::PelsInstant => {
                let program = self.link_program();
                {
                    let link = soc.pels_mut().link_mut(0);
                    link.set_mask(EventVector::mask_of(&[EV_SPI_EOT]))
                        .set_condition(TriggerCond::Any)
                        .set_base(APB_BASE);
                    link.load_program(&program)
                        .expect("scenario program fits the configured scm");
                }
                // The core only boots and sleeps; linking never wakes it.
                soc.load_program(RESET_PC, &[pels_cpu::asm::wfi(), pels_cpu::asm::jal(0, -4)]);
            }
            Mediator::IbexIrq => {
                soc.pels_mut().set_enabled(false);
                let image = baseline::threshold_irq_image_at(
                    self.threshold_code(),
                    self.spi_words * 4,
                    self.system.spi_offset(),
                    self.system.gpio_offset(),
                );
                for (addr, words) in &image.segments {
                    soc.load_program(*addr, words);
                }
            }
        }

        // Autonomous readout chain: timer compare starts the SPI; µDMA
        // lands the words in L2.
        soc.spi_mut().set_default_len(self.spi_words);
        if self.use_udma {
            soc.spi_mut().write(Spi::UDMA_SADDR, 0x4000).unwrap();
            // Autonomous (PELS) configurations stream into a ring buffer;
            // the interrupt baseline re-arms the channel from its handler
            // instead (Figure 1a vs 1c).
            if self.mediator != Mediator::IbexIrq {
                soc.spi_mut().write(Spi::UDMA_CFG, 1).unwrap();
            }
            soc.spi_mut()
                .write(Spi::UDMA_SIZE, self.spi_words * 4)
                .unwrap();
        }
        soc.set_exec_mode(self.exec);
        soc
    }

    fn arm_timer(soc: &mut Soc, period: u32) {
        soc.timer_mut().write(Timer::CMP, period).unwrap();
        soc.timer_mut()
            .write(Timer::CTRL, Timer::CTRL_ENABLE)
            .unwrap();
    }

    /// The trace point that marks a completed linking action.
    fn completion_marker(&self) -> (&'static str, &'static str) {
        match self.mediator {
            Mediator::PelsInstant => ("pels.link0", "action"),
            _ => ("gpio", "padout"),
        }
    }

    /// Executes the scenario: an *active* window with periodic linking
    /// events, plus an equal-length *idle* window (same configuration, no
    /// events) for the idle bars of Figure 5.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::NoEvents`] if no linking event completes within
    /// the cycle budget — a below-threshold sensor, a mis-wired link, or
    /// a budget too small. A sweep engine reports this as that one job's
    /// failure instead of aborting the batch.
    pub fn try_run(&self) -> Result<ScenarioReport, ScenarioError> {
        // Active window.
        let mut soc = self.build_soc();
        // Start sampling before the timer is armed so the first window
        // covers the arming writes too: the window deltas then sum to
        // exactly the drained activity image of the whole active run.
        if self.timeline_window > 0 {
            soc.start_timeline(self.timeline_window);
        }
        Self::arm_timer(&mut soc, self.timer_period_cycles());
        let per_event = u64::from(self.timer_period_cycles())
            + u64::from(self.spi_words * self.spi_clkdiv())
            + 64;
        let budget = u64::from(self.events) * per_event + 2_000;
        let marker = self.completion_marker();
        let wanted = self.events as usize;
        {
            let _span = pels_obs::profile::span("scenario.active");
            soc.run_for_trace_count(budget, marker.0, marker.1, wanted);
        }

        let window = soc.window_time();
        let cycles = soc.window_cycles();
        let sched_stats = soc.sched_stats();
        let (decode_cache_hits, decode_cache_misses) = soc.decode_cache_stats();
        // Snapshot before the drain: `drain_activity` resets the windowed
        // counters (retired, fetches, fabric transfers) to zero.
        let metrics = self.obs.then(|| {
            let mut reg = pels_obs::MetricsRegistry::new();
            soc.publish_metrics(&mut reg);
            reg.snapshot()
        });
        // Collect the timeline before the drain: the sampler's deltas
        // are relative to the cumulative image the drain resets.
        let timeline = soc.take_timeline();
        let activity = soc.drain_activity();
        // Re-arm the µDMA channel is unnecessary for measurement; events
        // beyond the first reuse the FIFO path, which is equivalent for
        // the linking check (the `LAST` register always holds the newest
        // sample).
        let latencies: Vec<u64> = soc
            .trace()
            .latencies_all(("spi", "eot"), marker)
            .into_iter()
            .map(|t| t.as_ps() / self.freq().period_ps())
            .collect();
        let stats = LinkingStats::from_cycles(&latencies).ok_or(ScenarioError::NoEvents {
            mediator: self.mediator,
            budget,
        })?;
        let mut latency_hist = pels_obs::Histogram::new();
        for &l in &latencies {
            latency_hist.record(l);
        }
        let events_completed = soc.trace().all(marker.0, marker.1).len() as u32;
        // Detach the flow record before cloning the trace into the
        // report: flows are an analysis artifact, not part of the
        // architectural trace the differential suites compare.
        let flows = soc.trace_mut().take_flow_trace();

        // Idle window: identical configuration, timer disarmed, same
        // number of cycles.
        let mut idle_soc = self.build_soc();
        {
            let _span = pels_obs::profile::span("scenario.idle");
            idle_soc.run(cycles);
        }
        let idle_window = idle_soc.window_time();
        let idle_activity = idle_soc.drain_activity();

        // Energy ledger + lifetime projection: pure post-processing over
        // activity the run recorded anyway, computed after both windows
        // completed so it cannot perturb architectural results
        // (`tests/lifetime_invariance.rs`). With a sampled timeline the
        // ledger integrates per window; without one it integrates the
        // whole active window as a single sample.
        let (energy, lifetime) = if self.lifetime {
            let model = power_setup::power_model_for(self.pels());
            let pt = match &timeline {
                Some(t) => PowerTimeline::from_activity(&model, t, self.freq()),
                None => PowerTimeline::from_window(&model, &activity, window),
            };
            let ledger = EnergyLedger::from_timeline(&pt);
            let projection = Battery::coin_cell().project(&ledger);
            (Some(ledger), Some(projection))
        } else {
            (None, None)
        };

        Ok(ScenarioReport {
            mediator: self.mediator,
            freq: self.freq(),
            latencies,
            stats,
            latency_hist,
            timeline,
            events_completed,
            active_activity: activity,
            active_window: window,
            idle_activity,
            idle_window,
            pels: self.pels(),
            trace: soc.trace().clone(),
            sched_stats,
            decode_cache_hits,
            decode_cache_misses,
            metrics,
            flows,
            energy,
            lifetime,
        })
    }

    /// [`Scenario::try_run`], panicking on failure — the convenient form
    /// for presets and tests, where no events completing is a harness bug
    /// rather than a measurable outcome.
    ///
    /// # Panics
    ///
    /// Panics if the run produced no measurement.
    pub fn run(&self) -> ScenarioReport {
        self.try_run()
            .unwrap_or_else(|e| panic!("scenario failed: {e}"))
    }
}

/// The measured outcome of a [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Who mediated.
    pub mediator: Mediator,
    /// Clock of the mediating system.
    pub freq: Frequency,
    /// Raw per-event latencies in cycles.
    pub latencies: Vec<u64>,
    /// Latency statistics.
    pub stats: LinkingStats,
    /// The same per-event latencies as a mergeable distribution — the
    /// fleet merges these across jobs deterministically (bucket counts
    /// add, order-invariant).
    pub latency_hist: pels_obs::Histogram,
    /// Windowed activity timeline of the active run — `Some` only when
    /// the scenario was built with [`ScenarioBuilder::timeline_window`].
    pub timeline: Option<pels_sim::ActivityTimeline>,
    /// Linking events completed.
    pub events_completed: u32,
    /// Switching activity of the active window.
    pub active_activity: ActivitySet,
    /// Duration of the active window.
    pub active_window: SimTime,
    /// Switching activity of the matching idle window.
    pub idle_activity: ActivitySet,
    /// Duration of the idle window.
    pub idle_window: SimTime,
    /// The PELS configuration used.
    pub pels: PelsConfig,
    /// The full event trace of the active run (per-stage analysis).
    pub trace: Trace,
    /// Scheduler statistics of the active run (fast/stirred/naive cycle
    /// split, skip spans, rebuilds).
    pub sched_stats: SchedStats,
    /// Decoded-instruction cache hits during the active run.
    pub decode_cache_hits: u64,
    /// Decoded-instruction cache misses during the active run.
    pub decode_cache_misses: u64,
    /// Full metrics snapshot of the active run — `Some` only when the
    /// scenario was built with [`ScenarioBuilder::obs`].
    pub metrics: Option<pels_obs::MetricsSnapshot>,
    /// Causal event-flow record of the active run — `Some` only when the
    /// scenario was built with [`ScenarioBuilder::flows`]. Analyze it
    /// with [`ScenarioReport::flow_report`].
    pub flows: Option<pels_sim::FlowTrace>,
    /// Integrated per-component energy of the active run — `Some` only
    /// when the scenario was built with [`ScenarioBuilder::lifetime`].
    pub energy: Option<EnergyLedger>,
    /// Battery-lifetime projection over [`Self::energy`] (the default
    /// coin cell) — `Some` exactly when `energy` is.
    pub lifetime: Option<LifetimeReport>,
}

impl ScenarioReport {
    /// The calibrated power model for this configuration.
    pub fn power_model(&self) -> PowerModel {
        power_setup::power_model_for(self.pels)
    }

    /// Power report for the active window.
    pub fn active_power(&self, model: &PowerModel) -> PowerReport {
        model.report(&self.active_activity, self.active_window)
    }

    /// Power report for the idle window.
    pub fn idle_power(&self, model: &PowerModel) -> PowerReport {
        model.report(&self.idle_activity, self.idle_window)
    }

    /// Per-window power over the active run — `Some` only when the
    /// scenario sampled a timeline
    /// ([`ScenarioBuilder::timeline_window`]).
    pub fn power_timeline(&self, model: &PowerModel) -> Option<pels_power::PowerTimeline> {
        self.timeline
            .as_ref()
            .map(|t| pels_power::PowerTimeline::from_activity(model, t, self.freq))
    }

    /// Mean latency as wall-clock time (for the 500 ns iso-latency
    /// check).
    pub fn mean_latency_time(&self) -> SimTime {
        SimTime::from_ps(self.stats.mean * self.freq.period_ps())
    }

    /// Per-stage latency attribution over the recorded flows — `Some`
    /// only when the scenario ran with [`ScenarioBuilder::flows`].
    ///
    /// The report decomposes the same eot→actuation segment
    /// [`LinkingStats`] measures, so its per-stage cycle sums telescope
    /// to exactly the end-to-end latencies
    /// (`tests/flow_properties.rs`).
    pub fn flow_report(&self) -> Option<pels_obs::FlowReport> {
        let flows = self.flows.as_ref()?;
        let terminal = match self.mediator {
            Mediator::PelsInstant => "action",
            _ => "padout",
        };
        Some(pels_obs::FlowReport::from_flows(
            flows,
            self.freq.period_ps(),
            "eot",
            terminal,
        ))
    }

    /// Serializes the report to a machine-readable JSON object.
    ///
    /// Covers the headline measurements (latency statistics, window
    /// durations, events completed) plus the fast-path counters; when
    /// the scenario ran with [`ScenarioBuilder::obs`] the full metrics
    /// snapshot is inlined under `"metrics"`, otherwise that field is
    /// `null`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("{\n");
        let _ = writeln!(
            s,
            "  \"mediator\": \"{}\",",
            pels_obs::json::escape(&self.mediator.to_string())
        );
        let _ = writeln!(s, "  \"freq_mhz\": {},", self.freq.as_mhz());
        let _ = writeln!(s, "  \"events_completed\": {},", self.events_completed);
        let _ = writeln!(
            s,
            "  \"latency_cycles\": {{\"count\": {}, \"min\": {}, \"max\": {}, \
             \"mean\": {}, \"p50\": {}, \"p99\": {}, \"jitter\": {}}},",
            self.stats.count,
            self.stats.min,
            self.stats.max,
            self.stats.mean,
            self.stats.p50,
            self.stats.p99,
            self.stats.jitter()
        );
        let _ = writeln!(s, "  \"active_window_ns\": {},", self.active_window.as_ns());
        let _ = writeln!(s, "  \"idle_window_ns\": {},", self.idle_window.as_ns());
        let sc = &self.sched_stats;
        let _ = writeln!(
            s,
            "  \"sched\": {{\"fast_cycles\": {}, \"stirred_cycles\": {}, \
             \"naive_cycles\": {}, \"skip_spans\": {}, \"skipped_cycles\": {}, \
             \"rebuilds\": {}, \"wakes\": {}, \"sleeps\": {}}},",
            sc.fast_cycles,
            sc.stirred_cycles,
            sc.naive_cycles,
            sc.skip_spans,
            sc.skipped_cycles,
            sc.rebuilds,
            sc.wakes,
            sc.sleeps
        );
        let _ = writeln!(
            s,
            "  \"decode_cache\": {{\"hits\": {}, \"misses\": {}}},",
            self.decode_cache_hits, self.decode_cache_misses
        );
        let _ = writeln!(s, "  \"trace_events\": {},", self.trace.len());
        match &self.energy {
            Some(ledger) => {
                let _ = writeln!(s, "  \"energy\": {},", ledger.to_json());
            }
            None => s.push_str("  \"energy\": null,\n"),
        }
        match &self.lifetime {
            Some(projection) => {
                let _ = writeln!(s, "  \"lifetime\": {},", projection.to_json());
            }
            None => s.push_str("  \"lifetime\": null,\n"),
        }
        match &self.metrics {
            Some(snap) => {
                s.push_str("  \"metrics\": {");
                for (i, (name, v)) in snap.iter().enumerate() {
                    let sep = if i + 1 < snap.len() { "," } else { "" };
                    let _ = write!(
                        s,
                        "\n    \"{}\": {v}{sep}",
                        pels_obs::json::escape(name)
                    );
                }
                s.push_str("\n  }\n");
            }
            None => s.push_str("  \"metrics\": null\n"),
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequenced_rmw_latency_is_seven_cycles() {
        let report = Scenario::latency_probe(Mediator::PelsSequenced).run();
        assert_eq!(report.stats.min, 7, "paper: 7-cycle sequenced action");
        assert_eq!(report.stats.max, 7, "no jitter on an idle bus");
    }

    #[test]
    fn instant_action_latency_is_two_cycles() {
        let report = Scenario::latency_probe(Mediator::PelsInstant).run();
        assert_eq!(report.stats.min, 2, "paper: 2-cycle instant action");
        assert_eq!(report.stats.jitter(), 0, "instant actions are fixed-latency");
    }

    #[test]
    fn ibex_interrupt_latency_is_sixteen_cycles() {
        let report = Scenario::latency_probe(Mediator::IbexIrq).run();
        assert_eq!(
            report.stats.min, 16,
            "paper: 16 cycles through the interrupt path"
        );
    }

    #[test]
    fn threshold_program_actuates_every_readout() {
        let s = Scenario::iso_frequency(Mediator::PelsSequenced);
        let report = s.run();
        assert!(report.events_completed >= s.events);
        assert!(report.stats.min >= 11, "capture+jump+rmw path");
    }

    #[test]
    fn below_threshold_never_actuates() {
        let s = Scenario::builder()
            .sensor(SensorKind::Constant(1.0)) // below the 1.6 V threshold
            .events(3)
            .build()
            .unwrap();
        let mut soc = s.build_soc();
        Scenario::arm_timer(&mut soc, s.timer_period_cycles());
        soc.run(3_000);
        assert!(soc.trace().all("spi", "eot").len() >= 3, "readouts happen");
        assert!(
            soc.trace().first("gpio", "padout").is_none(),
            "no actuation below threshold"
        );
    }

    #[test]
    fn iso_latency_meets_500ns_budget() {
        for mediator in [Mediator::PelsSequenced, Mediator::IbexIrq] {
            let report = Scenario::iso_latency(mediator).run();
            assert!(
                report.mean_latency_time() <= SimTime::from_ns(500),
                "{mediator}: {} exceeds 500 ns",
                report.mean_latency_time()
            );
        }
    }

    #[test]
    fn obs_snapshot_is_opt_in_and_does_not_perturb_results() {
        let base = Scenario::iso_frequency(Mediator::IbexIrq);
        let plain = base.run();
        let observed = base.to_builder().obs(true).build().unwrap().run();

        // Opt-in: the snapshot only exists when requested.
        assert!(plain.metrics.is_none());
        let snap = observed.metrics.as_ref().expect("obs(true) snapshot");
        assert!(snap.get("cpu.decode_cache.hits").unwrap_or(0) > 0);
        assert_eq!(
            snap.get("soc.sched.sleeps"),
            Some(observed.sched_stats.sleeps)
        );

        // Zero perturbation: identical architectural results either way.
        assert_eq!(plain.latencies, observed.latencies);
        assert_eq!(plain.trace.entries(), observed.trace.entries());
        assert_eq!(plain.sched_stats, observed.sched_stats);
        assert_eq!(plain.decode_cache_hits, observed.decode_cache_hits);

        // The JSON export carries the fast-path counters.
        let json = observed.to_json();
        assert!(json.contains("\"sched\""));
        assert!(json.contains("\"decode_cache\""));
        assert!(json.contains("\"cpu.decode_cache.hits\""));
        assert!(plain.to_json().contains("\"metrics\": null"));
    }

    #[test]
    fn lifetime_projection_is_opt_in_and_populated() {
        let plain = Scenario::iso_frequency(Mediator::PelsSequenced).run();
        assert!(plain.energy.is_none() && plain.lifetime.is_none());
        assert!(plain.to_json().contains("\"energy\": null"));

        let s = Scenario::duty_cycled(
            Mediator::PelsSequenced,
            SimTime::from_us(50),
            SimTime::from_ms(1),
        );
        assert_eq!(s.events, 20);
        assert!(s.lifetime);
        let report = s.run();
        let ledger = report.energy.as_ref().expect("ledger with lifetime(true)");
        assert!(ledger.total_uj() > 0.0);
        assert!(ledger.windows() > 1, "one window per duty period");
        let projection = report.lifetime.as_ref().expect("projection");
        assert!(projection.days() > 0.0 && projection.days().is_finite());
        let json = report.to_json();
        assert!(json.contains("\"energy\": {"));
        assert!(json.contains("\"days\":"));
    }

    #[test]
    fn lifetime_without_timeline_integrates_one_window() {
        let s = Scenario::builder()
            .mediator(Mediator::IbexIrq)
            .events(5)
            .lifetime(true)
            .build()
            .unwrap();
        let report = s.run();
        let ledger = report.energy.as_ref().unwrap();
        assert_eq!(ledger.windows(), 1);
        assert_eq!(ledger.span(), report.active_window);
        assert!(ledger.mean_power().as_uw() > 0.0);
    }

    #[test]
    fn udma_lands_sensor_words_in_l2() {
        let s = Scenario::iso_frequency(Mediator::PelsSequenced);
        let mut soc = s.build_soc();
        Scenario::arm_timer(&mut soc, s.timer_period_cycles());
        soc.run(u64::from(s.timer_period_cycles()) + 64);
        // 2.5 V on a 3.3 V 12-bit scale ≈ code 3102.
        let code = soc.l2().peek_word(0x4000);
        assert!(code > 3000 && code < 3200, "sample {code} landed in L2");
    }

    #[test]
    fn builder_rejects_unmeasurable_workloads() {
        assert_eq!(
            Scenario::builder().events(0).build().unwrap_err(),
            ScenarioError::ZeroEvents
        );
        assert_eq!(
            Scenario::builder().spi_words(0).build().unwrap_err(),
            ScenarioError::ZeroSpiWords
        );
        assert_eq!(
            Scenario::builder()
                .sample_period(SimTime::ZERO)
                .build()
                .unwrap_err(),
            ScenarioError::ZeroSamplePeriod
        );
        assert_eq!(
            Scenario::builder()
                .mediator(Mediator::IbexIrq)
                .use_udma(false)
                .build()
                .unwrap_err(),
            ScenarioError::IrqNeedsUdma
        );
    }

    #[test]
    fn builder_surfaces_config_errors() {
        assert_eq!(
            Scenario::builder().pels_links(0).build().unwrap_err(),
            ScenarioError::Config(ConfigError::ZeroLinks)
        );
        assert_eq!(
            Scenario::builder().scm_lines(0).build().unwrap_err(),
            ScenarioError::Config(ConfigError::ZeroScmLines)
        );
        assert_eq!(
            Scenario::builder().spi_clkdiv(0).build().unwrap_err(),
            ScenarioError::Config(ConfigError::ZeroClkdiv)
        );
    }

    #[test]
    fn try_run_reports_no_events_instead_of_panicking() {
        // Sensor below threshold: readouts happen but the linking action
        // never fires, so the run completes no events.
        let s = Scenario::builder()
            .sensor(SensorKind::Constant(1.0))
            .events(3)
            .build()
            .unwrap();
        match s.try_run() {
            Err(ScenarioError::NoEvents { mediator, .. }) => {
                assert_eq!(mediator, Mediator::PelsSequenced);
            }
            other => panic!("expected NoEvents, got {other:?}"),
        }
    }

    #[test]
    fn to_builder_round_trips_and_derives_variants() {
        let base = Scenario::iso_latency(Mediator::PelsInstant);
        let variant = base.to_builder().events(7).build().unwrap();
        assert_eq!(variant.mediator, Mediator::PelsInstant);
        assert_eq!(variant.freq(), base.freq());
        assert_eq!(variant.events, 7);
    }

    #[test]
    fn error_display_and_source_are_useful() {
        let e = ScenarioError::Config(ConfigError::ZeroLinks);
        assert!(e.to_string().contains("invalid SoC configuration"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&ScenarioError::ZeroEvents).is_none());
    }
}
