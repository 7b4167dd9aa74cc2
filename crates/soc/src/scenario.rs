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
use crate::soc::{FastForwardStats, SchedStats, Soc};
use pels_core::{ActionMode, Command, Cond, PelsConfig, Program, TriggerCond};
use pels_desc::{DescError, ScenarioDesc};
use pels_interconnect::ApbSlave;
use pels_periph::{Spi, Timer};
use pels_power::{Battery, EnergyLedger, LifetimeReport, PowerModel, PowerReport, PowerTimeline};
use pels_sim::{ActivitySet, ActivityTimeline, EventVector, Frequency, SimTime, Trace};
use std::fmt;
use std::ops::Deref;

/// Why a [`Scenario`] could not be built — or, at run time, why it
/// produced no measurement.
///
/// Returned by [`Scenario::from_desc`] (construction-time validation)
/// and [`Scenario::try_run`] (runtime failure). A sweep engine maps each
/// variant to a per-job failure instead of a harness panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// A [`ScenarioDesc::validate`] failure, with the JSON path of the
    /// offending value.
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
            ScenarioError::Desc(e) => Some(e),
            ScenarioError::NoEvents { .. } => None,
        }
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
/// [`Scenario::from_desc`] is the one constructor; the presets
/// ([`Scenario::iso_latency`], [`Scenario::iso_frequency`],
/// [`Scenario::duty_cycled`], [`Scenario::latency_probe`]) build a
/// description and hand it to it. Construction validates, so a
/// `Scenario` in hand is always runnable. The scenario [`Deref`]s to its
/// description for *reading* (`s.events`, `s.mediator`,
/// `s.system.topology`, …); a variant is a new description:
///
/// ```
/// use pels_soc::{Mediator, Scenario, ScenarioDesc};
/// let s = Scenario::iso_frequency(Mediator::PelsInstant);
/// let variant = Scenario::from_desc(ScenarioDesc {
///     events: 8,
///     ..s.desc().clone()
/// })
/// .expect("valid scenario");
/// assert_eq!(variant.events, 8);
/// assert!(Scenario::from_desc(ScenarioDesc { events: 0, ..s.desc().clone() }).is_err());
/// ```
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

impl Scenario {
    /// Validates `desc` and wraps it as a runnable scenario.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Desc`] with the JSON path of the first value
    /// [`ScenarioDesc::validate`] rejects, or at `/system/pels/scm_lines`
    /// when a PELS mediator's [`Scenario::link_program`] does not fit
    /// the SCM.
    pub fn from_desc(desc: ScenarioDesc) -> Result<Self, ScenarioError> {
        desc.validate().map_err(ScenarioError::Desc)?;
        let s = Scenario { desc };
        if s.mediator != Mediator::IbexIrq {
            let (needed, lines) = (s.link_program().len(), s.system.pels.scm_lines);
            if needed > lines {
                return Err(ScenarioError::Desc(DescError::new(
                    "/system/pels/scm_lines",
                    format!("the {} program needs {needed} SCM lines, got {lines}", s.mediator),
                )));
            }
        }
        Ok(s)
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
        let mut desc = ScenarioDesc {
            mediator,
            ..ScenarioDesc::default()
        };
        desc.system.freq = freq;
        Self::preset(desc)
    }

    /// Iso-frequency operating point (both at 55 MHz).
    pub fn iso_frequency(mediator: Mediator) -> Self {
        Self::preset(ScenarioDesc {
            mediator,
            ..ScenarioDesc::default()
        })
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
    /// Panics if `sample_period` is zero, if the horizon holds more than
    /// `u32::MAX` periods, or if the description fails validation — e.g.
    /// a period that does not fit the timer's 32-bit compare register at
    /// the default 55 MHz clock (periods up to ~78 s).
    pub fn duty_cycled(mediator: Mediator, sample_period: SimTime, horizon: SimTime) -> Self {
        assert!(sample_period.as_ps() > 0, "sample_period must be non-zero");
        let events = (horizon.as_ps() / sample_period.as_ps()).max(1);
        assert!(events <= u64::from(u32::MAX), "horizon holds too many events");
        let mut desc = ScenarioDesc {
            mediator,
            sample_period,
            events: events as u32,
            lifetime: true,
            ..ScenarioDesc::default()
        };
        desc.timeline_window = u64::from(desc.timer_period_cycles());
        Self::preset(desc)
    }

    /// The latency-table variant: minimal mediation program.
    pub fn latency_probe(mediator: Mediator) -> Self {
        Self::preset(ScenarioDesc {
            mediator,
            rmw_only: true,
            events: 10,
            ..ScenarioDesc::default()
        })
    }

    fn preset(desc: ScenarioDesc) -> Self {
        Self::from_desc(desc).unwrap_or_else(|e| panic!("invalid preset scenario: {e}"))
    }

    /// The active window's cycle budget: per event one sample period,
    /// one SPI readout and 64 cycles of slack, plus 2,000 cycles of
    /// run-in. Saturates instead of overflowing.
    pub fn cycle_budget(&self) -> u64 {
        // At most (2^32 - 1)^2 + 2^32 + 63: the per-event term fits u64.
        let per_event = u64::from(self.timer_period_cycles())
            + u64::from(self.spi_words) * u64::from(self.spi_clkdiv())
            + 64;
        u64::from(self.events)
            .saturating_mul(per_event)
            .saturating_add(2_000)
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
        let mut soc =
            Soc::from_desc(&self.system).expect("scenario descriptions are validated");
        if self.flows {
            soc.trace_mut().enable_flows();
        }
        if self.obs {
            soc.trace_mut().enable_entries();
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
        soc.spi_mut().write(Spi::UDMA_SADDR, 0x4000).unwrap();
        // Autonomous (PELS) configurations stream into a ring buffer; the
        // interrupt baseline re-arms the channel from its handler instead
        // (Figure 1a vs 1c).
        if self.mediator != Mediator::IbexIrq {
            soc.spi_mut().write(Spi::UDMA_CFG, 1).unwrap();
        }
        soc.spi_mut()
            .write(Spi::UDMA_SIZE, self.spi_words * 4)
            .unwrap();
        soc.set_exec_mode(self.exec);
        soc
    }

    fn arm_timer(soc: &mut Soc, period: u32) {
        soc.timer_mut().write(Timer::CMP, period).unwrap();
        soc.timer_mut()
            .write(Timer::CTRL, Timer::CTRL_ENABLE)
            .unwrap();
    }

    /// The trace point `(source, label)` that marks a completed linking
    /// action under `mediator`: the instant action itself, or the pad
    /// change a register write caused.
    pub fn completion_marker(mediator: Mediator) -> (&'static str, &'static str) {
        match mediator {
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
        // Active window, on a snapshot of the freshly built SoC; the
        // pristine original later runs the idle window.
        let mut idle_soc = self.build_soc();
        let mut soc = idle_soc.clone();
        // The trace pairs eot→marker latencies and counts completed
        // events as they happen, so nothing below reads its entries.
        let marker = Self::completion_marker(self.mediator);
        let done = soc.trace_mut().pair(("spi", "eot"), marker);
        // Start sampling before the timer is armed so the first window
        // covers the arming writes too: the window deltas then sum to
        // exactly the drained activity image of the whole active run.
        if self.timeline_window > 0 {
            soc.start_timeline(self.timeline_window);
        }
        Self::arm_timer(&mut soc, self.timer_period_cycles());
        let budget = self.cycle_budget();
        let wanted = self.events as usize;
        {
            let _span = pels_obs::profile::span("scenario.active");
            soc.run_for_trace_count(budget, marker.0, marker.1, wanted);
        }

        let window = soc.window_time();
        let cycles = soc.window_cycles();
        let sched_stats = soc.sched_stats();
        let fast_forward = soc.fast_forward_stats();
        // Snapshot before the drain: `drain_activity` resets the windowed
        // counters (retired, fetches, fabric transfers) to zero.
        let metrics = self.obs.then(|| {
            let mut m = pels_obs::MetricsSnapshot::default();
            soc.publish_metrics(&mut m);
            m
        });
        // Close the last window at the same cycle the drain covers.
        let timeline = soc.take_timeline();
        let activity = soc.drain_activity();
        // Re-arm the µDMA channel is unnecessary for measurement; events
        // beyond the first reuse the FIFO path, which is equivalent for
        // the linking check (the `LAST` register always holds the newest
        // sample).
        // Converted in place: the trace keeps no second copy.
        let latencies: Vec<u64> = soc
            .trace_mut()
            .take_latencies()
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
        let events_completed = soc.trace().count(done) as u32;
        // Detach the flow record before the trace moves into the report:
        // flows are an analysis artifact, not part of the architectural
        // trace the differential suites compare.
        let flows = soc.trace_mut().take_flow_trace();

        // Idle window: identical configuration, timer disarmed, same
        // number of cycles.
        {
            let _span = pels_obs::profile::span("scenario.idle");
            idle_soc.run(cycles);
        }
        let idle_window = idle_soc.window_time();
        let idle_activity = idle_soc.drain_activity();

        // Energy ledger + lifetime projection: pure post-processing over
        // activity the run recorded anyway, computed after both windows
        // completed so it cannot perturb architectural results
        // (`tests/observation_invariance.rs`). With a sampled timeline the
        // ledger integrates per window; without one it integrates the
        // whole active window as a one-window timeline.
        let (energy, lifetime) = if self.lifetime {
            let model = power_setup::power_model_for(self.pels());
            let whole;
            let sampled = match &timeline {
                Some(t) => t,
                None => {
                    let mut t = ActivityTimeline::new(cycles);
                    t.push(0, cycles, &activity);
                    whole = t;
                    &whole
                }
            };
            let pt = PowerTimeline::from_activity(&model, sampled, self.freq());
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
            trace: std::mem::take(soc.trace_mut()),
            sched_stats,
            fast_forward,
            decode_cache_hits: 0,
            decode_cache_misses: 0,
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
    /// Windowed activity timeline of the active run — `Some` exactly
    /// when [`ScenarioDesc::timeline_window`] is non-zero.
    pub timeline: Option<ActivityTimeline>,
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
    /// The event trace of the active run: its digest, entry count and
    /// the eot→marker pairer always; its entries (per-stage analysis,
    /// the Chrome export) only when [`ScenarioDesc::obs`] is set.
    pub trace: Trace,
    /// Scheduler statistics of the active run (fast/stirred/naive cycle
    /// split, skip spans, aggregate updates).
    pub sched_stats: SchedStats,
    /// What the active run's event-period fast-forward jumped
    /// ([`Soc::fast_forward_stats`]). Host-side: it may differ between
    /// exec modes and probe subsets that give identical results.
    pub fast_forward: FastForwardStats,
    /// Always 0: the CPU no longer has a decoded-instruction cache. Kept
    /// only because the benchmark still reads it.
    pub decode_cache_hits: u64,
    /// Always 0, like [`ScenarioReport::decode_cache_hits`].
    pub decode_cache_misses: u64,
    /// Full metrics snapshot of the active run — `Some` exactly when
    /// [`ScenarioDesc::obs`] is set.
    pub metrics: Option<pels_obs::MetricsSnapshot>,
    /// Causal event-flow record of the active run — `Some` exactly when
    /// [`ScenarioDesc::flows`] is set. Analyze it with
    /// [`ScenarioReport::flow_report`].
    pub flows: Option<pels_sim::FlowTrace>,
    /// Integrated per-component energy of the active run — `Some` exactly
    /// when [`ScenarioDesc::lifetime`] is set.
    pub energy: Option<EnergyLedger>,
    /// Battery-lifetime projection over [`Self::energy`] (the default
    /// coin cell) — `Some` exactly when `energy` is.
    pub lifetime: Option<LifetimeReport>,
}

impl ScenarioReport {
    /// The calibrated power model for this configuration, a copy of the
    /// one built once per [`PelsConfig`].
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
    /// scenario sampled a timeline ([`ScenarioDesc::timeline_window`]).
    /// A view over [`Self::timeline`]: each distinct window is evaluated
    /// once. Under [`Self::power_model`] it is the timeline
    /// [`Self::energy`] integrated.
    pub fn power_timeline(&self, model: &PowerModel) -> Option<PowerTimeline<'_>> {
        let timeline = self.timeline.as_ref()?;
        Some(PowerTimeline::from_activity(model, timeline, self.freq))
    }

    /// Mean latency as wall-clock time (for the 500 ns iso-latency
    /// check).
    pub fn mean_latency_time(&self) -> SimTime {
        SimTime::from_ps(self.stats.mean * self.freq.period_ps())
    }

    /// Per-stage latency attribution over the recorded flows — `Some`
    /// only when the scenario ran with [`ScenarioDesc::flows`].
    ///
    /// The report decomposes the same eot→actuation segment
    /// [`LinkingStats`] measures, so its per-stage cycle sums telescope
    /// to exactly the end-to-end latencies
    /// (`tests/flow_properties.rs`).
    pub fn flow_report(&self) -> Option<pels_obs::FlowReport> {
        let flows = self.flows.as_ref()?;
        let (_, terminal) = Scenario::completion_marker(self.mediator);
        Some(pels_obs::FlowReport::from_flows(
            flows,
            self.freq.period_ps(),
            "eot",
            terminal,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::SensorKind;

    /// A sensor below the 1.6 V threshold: readouts happen, actuation
    /// never does.
    fn below_threshold() -> Scenario {
        let mut desc = ScenarioDesc {
            events: 3,
            ..ScenarioDesc::default()
        };
        desc.system.sensor = SensorKind::Constant(1.0);
        Scenario::from_desc(desc).unwrap()
    }

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
        let s = below_threshold();
        let mut soc = s.build_soc();
        soc.trace_mut().enable_entries();
        Scenario::arm_timer(&mut soc, s.timer_period_cycles());
        soc.run(3_000);
        assert!(soc.trace().all("spi", "eot").len() >= 3, "readouts happen");
        assert!(
            soc.trace().first("gpio", "padout").is_none(),
            "no actuation below threshold"
        );
    }

    /// Every window of `pt` to the bit: span, total and per-component
    /// power.
    type WindowBits = (u64, u64, u64, Vec<(&'static str, u64)>);

    fn window_bits(pt: &PowerTimeline) -> Vec<WindowBits> {
        pt.windows()
            .map(|w| {
                let components = w
                    .components
                    .iter()
                    .map(|&(n, uw)| (n, uw.to_bits()))
                    .collect();
                (
                    w.start.as_ps(),
                    w.end.as_ps(),
                    w.total_uw.to_bits(),
                    components,
                )
            })
            .collect()
    }

    #[test]
    fn the_kept_power_timeline_is_what_a_fresh_evaluation_gives() {
        for mediator in [Mediator::PelsSequenced, Mediator::IbexIrq] {
            let scenario =
                Scenario::duty_cycled(mediator, SimTime::from_us(50), SimTime::from_ms(1));
            let report = scenario.run();
            let model = report.power_model();
            let power = report.power_timeline(&model).expect("sampled");
            // Every window reads what a fresh evaluation of its own
            // activity over its own span gives.
            let clock = report.freq;
            let activity = report.timeline.as_ref().expect("sampled");
            let fresh: Vec<WindowBits> = activity
                .windows()
                .map(|w| {
                    let r = model.report(w.activity, clock.cycles(w.cycles()));
                    let components = r
                        .components()
                        .iter()
                        .map(|c| (c.name, c.total().as_uw().to_bits()))
                        .collect();
                    (
                        clock.cycles(w.start_cycle).as_ps(),
                        clock.cycles(w.end_cycle).as_ps(),
                        r.total().as_uw().to_bits(),
                        components,
                    )
                })
                .collect();
            assert_eq!(window_bits(&power), fresh, "{mediator}");
            assert!(power.samples().len() < fresh.len(), "{mediator}: windows repeat");
            // The report's energy integrates exactly that timeline.
            let ledger = EnergyLedger::from_timeline(&power);
            let energy = report.energy.as_ref().expect("lifetime run");
            assert_eq!(energy.total_uj().to_bits(), ledger.total_uj().to_bits());
            assert_eq!(energy.component_names(), ledger.component_names());
            for name in ledger.component_names() {
                assert_eq!(
                    energy.component_uj(name).to_bits(),
                    ledger.component_uj(name).to_bits(),
                    "{mediator} {name}"
                );
            }
            assert_eq!(
                (energy.span(), energy.windows()),
                (ledger.span(), ledger.windows())
            );
            // Another model reads other power over the same windows.
            let bare = PowerModel::new(pels_power::Calibration::tsmc65());
            let other = report.power_timeline(&bare).expect("sampled");
            assert_eq!(other.len(), power.len());
            assert_ne!(window_bits(&other), window_bits(&power));
        }
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
        let observed = Scenario::from_desc(ScenarioDesc {
            obs: true,
            ..base.desc().clone()
        })
        .unwrap()
        .run();

        // Opt-in: the snapshot only exists when requested.
        assert!(plain.metrics.is_none());
        let snap = observed.metrics.as_ref().expect("obs(true) snapshot");
        assert!(snap.get("cpu.retired").unwrap_or(0) > 0);
        assert_eq!(
            snap.get("soc.sched.sleeps"),
            Some(observed.sched_stats.sleeps)
        );

        // Zero perturbation: identical architectural results either way.
        assert_eq!(plain.latencies, observed.latencies);
        assert_eq!(plain.trace, observed.trace);
        assert_eq!(plain.sched_stats, observed.sched_stats);
        // `obs` also keeps the trace's entries; a plain run streams them.
        assert!(plain.trace.entries().is_empty());
        assert_eq!(observed.trace.entries().len(), observed.trace.len());
        let retired = |r: &ScenarioReport| {
            r.active_activity
                .count("ibex", pels_sim::ActivityKind::InstrRetired)
        };
        assert_eq!(retired(&plain), retired(&observed));
    }

    #[test]
    fn lifetime_projection_is_opt_in_and_populated() {
        let plain = Scenario::iso_frequency(Mediator::PelsSequenced).run();
        assert!(plain.energy.is_none() && plain.lifetime.is_none());

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
    }

    #[test]
    fn lifetime_without_timeline_integrates_one_window() {
        let s = Scenario::from_desc(ScenarioDesc {
            mediator: Mediator::IbexIrq,
            events: 5,
            lifetime: true,
            ..ScenarioDesc::default()
        })
        .unwrap();
        let report = s.run();
        let ledger = report.energy.as_ref().unwrap();
        assert_eq!(ledger.windows(), 1);
        assert_eq!(ledger.span(), report.active_window);
        assert!(ledger.mean_power().as_uw() > 0.0);
        // With no timeline to read back, there is no power timeline
        // either.
        assert!(report.power_timeline(&report.power_model()).is_none());
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
    fn from_desc_rejects_unmeasurable_workloads_with_paths() {
        type Edit = fn(&mut ScenarioDesc);
        let cases: [(Edit, &str); 8] = [
            (|d| d.events = 0, "/events"),
            (|d| d.spi_words = 0, "/spi_words"),
            (|d| d.sample_period = SimTime::ZERO, "/sample_period_ps"),
            (|d| d.system.pels.links = 0, "/system/pels/links"),
            (|d| d.system.pels.scm_lines = 0, "/system/pels/scm_lines"),
            (|d| d.system.set_spi_clkdiv(0), "/system/peripherals/2/clkdiv"),
            (|d| d.system.pels.scm_lines = 3, "/system/pels/scm_lines"),
            (
                |d| {
                    d.rmw_only = true;
                    d.system.pels.scm_lines = 1;
                },
                "/system/pels/scm_lines",
            ),
        ];
        for (edit, path) in cases {
            let mut desc = ScenarioDesc::default();
            edit(&mut desc);
            match Scenario::from_desc(desc) {
                Err(ScenarioError::Desc(e)) => assert_eq!(e.path, path),
                other => panic!("{path}: expected a Desc error, got {other:?}"),
            }
        }
        // The interrupt baseline loads no microcode.
        let mut irq = Scenario::iso_frequency(Mediator::IbexIrq).desc().clone();
        irq.system.pels.scm_lines = 1;
        assert!(Scenario::from_desc(irq).is_ok());
    }

    #[test]
    fn cycle_budget_counts_every_event_and_saturates() {
        let s = Scenario::iso_frequency(Mediator::PelsSequenced);
        // 20 events × (54-cycle period + 2 words × clkdiv 4 + 64) + 2000.
        assert_eq!(s.cycle_budget(), 20 * (54 + 2 * 4 + 64) + 2_000);

        // The largest readout at the slowest SPI: `spi_words * clkdiv`
        // overflows u32, and the whole budget overflows u64.
        let mut desc = ScenarioDesc {
            events: u32::MAX,
            spi_words: (1 << 30) - 1,
            ..ScenarioDesc::default()
        };
        desc.system.set_spi_clkdiv(u32::MAX);
        let s = Scenario::from_desc(desc).unwrap();
        assert_eq!(s.cycle_budget(), u64::MAX);
    }

    #[test]
    fn try_run_reports_no_events_instead_of_panicking() {
        // Sensor below threshold: readouts happen but the linking action
        // never fires, so the run completes no events.
        match below_threshold().try_run() {
            Err(ScenarioError::NoEvents { mediator, .. }) => {
                assert_eq!(mediator, Mediator::PelsSequenced);
            }
            other => panic!("expected NoEvents, got {other:?}"),
        }
    }

    #[test]
    fn error_display_and_source_are_useful() {
        let e = ScenarioError::Desc(DescError::new("/events", "events must be at least 1"));
        assert!(e.to_string().contains("invalid description"));
        assert!(std::error::Error::source(&e).is_some());
        let none = ScenarioError::NoEvents {
            mediator: Mediator::IbexIrq,
            budget: 10,
        };
        assert!(std::error::Error::source(&none).is_none());
    }
}
