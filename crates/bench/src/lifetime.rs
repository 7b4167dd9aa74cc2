//! The `lifetime` artifact: how long does the node last on a coin cell?
//!
//! Runs the duty-cycled preset (sleep → sense → burst every sample
//! period) for PELS-sequenced mediation and the interrupt baseline over
//! a long simulated horizon, projects both onto [`Battery::coin_cell`],
//! then sweeps duty cycle (sample period) × sensor payload (SPI words)
//! × mediator across a fleet with the energy ledger switched on.
//! Quiescence skipping makes the sleep stretches nearly free, so hours
//! of device time integrate in seconds of host time. The quick variant
//! shrinks the horizon and the sweep for smoke runs.

use pels_fleet::{FleetEngine, FleetReport, SweepSpec};
use pels_obs::json::Writer;
use pels_power::{Battery, LifetimeReport};
use pels_sim::SimTime;
use pels_soc::{Mediator, Scenario, ScenarioDesc};

/// The measured lifetime artifact: the headline PELS-vs-IRQ projection
/// and the sweep behind it.
pub struct Lifetime {
    /// Whether the horizon and sweep were shrunk for a smoke run.
    pub quick: bool,
    /// The headline's sample period.
    pub period: SimTime,
    /// The headline's simulated horizon.
    pub horizon: SimTime,
    /// The PELS-sequenced headline projection.
    pub pels: LifetimeReport,
    /// The interrupt-baseline headline projection.
    pub irq: LifetimeReport,
    /// Duty cycle × payload × mediator sweep, ledger on for every job.
    pub fleet: FleetReport,
}

/// Runs the headline pair and the sweep.
///
/// # Errors
///
/// A message naming the headline run or sweep job that failed.
pub fn run(quick: bool) -> Result<Lifetime, String> {
    // 100 kHz sampling is where mediation energy is visible over the
    // static leakage floor: the interrupt baseline wakes the core every
    // 10 µs, PELS keeps it asleep, and the gap is worth ~2 days of
    // coin cell. Longer periods amortize toward the leakage-only floor
    // (the sweep below covers that regime).
    let period = SimTime::from_us(10);
    let horizon = if quick {
        SimTime::from_ms(50)
    } else {
        SimTime::from_ms(1_000)
    };
    let project = |m: Mediator| -> Result<LifetimeReport, String> {
        let report = Scenario::duty_cycled(m, period, horizon)
            .try_run()
            .map_err(|e| format!("lifetime scenario ({m:?}) failed: {e}"))?;
        report
            .lifetime
            .ok_or_else(|| format!("lifetime scenario ({m:?}) produced no projection"))
    };
    let pels = project(Mediator::PelsSequenced)?;
    let irq = project(Mediator::IbexIrq)?;

    let periods_us: &[u64] = if quick {
        &[100, 500]
    } else {
        &[10, 100, 1_000]
    };
    let spec = SweepSpec::over(ScenarioDesc {
        lifetime: true,
        ..ScenarioDesc::default()
    })
    .mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq])
    .sample_periods_us(periods_us)
    .spi_word_counts(&[1, 4]);
    let fleet = FleetEngine::auto()
        .run_sweep(&spec)
        .map_err(|e| format!("lifetime sweep invalid: {e}"))?;
    if let Some((label, e)) = fleet.failed().next() {
        return Err(format!("lifetime sweep job `{label}` failed: {e}"));
    }
    Ok(Lifetime {
        quick,
        period,
        horizon,
        pels,
        irq,
        fleet,
    })
}

/// The quick artifact's text, as `reproduce -- lifetime --quick` prints
/// it above the line naming the file it wrote.
///
/// # Panics
///
/// Panics if a run fails.
pub fn render_quick() -> String {
    run(true).unwrap_or_else(|e| panic!("{e}")).render()
}

impl Lifetime {
    /// The projection table: both headline projections, their ratio and
    /// one row per sweep job.
    pub fn render(&self) -> String {
        let mut sweep_table = String::new();
        for (label, o) in self.fleet.succeeded() {
            let projection = o
                .report
                .lifetime
                .as_ref()
                .expect("lifetime(true) projection");
            sweep_table.push_str(&format!("  {label:<44}  {:>9.1} days\n", projection.days()));
        }
        format!(
            "Lifetime - days-of-battery projection ({} duty periods over {:.1} s)\n\
             PELS-sequenced node:\n{}\
             Ibex interrupt baseline:\n{}\
             PELS outlasts the baseline {:.2}x on the same cell\n\
             duty cycle x payload x mediator sweep ({} jobs):\n{}",
            (self.horizon.as_ps() / self.period.as_ps()),
            self.horizon.as_secs_f64(),
            self.pels.render(),
            self.irq.render(),
            self.pels.seconds / self.irq.seconds,
            self.fleet.jobs.len(),
            sweep_table,
        )
    }

    /// The `BENCH_lifetime.json` document: the battery parameters, the
    /// headline projection and the per-job sweep rows. `obs_check`
    /// schema-gates it.
    pub fn to_json(&self) -> String {
        let battery = Battery::coin_cell();
        let mut w = Writer::new();
        w.begin_object()
            .key("schema_version")
            .uint(1)
            .key("quick")
            .bool(self.quick);
        w.key("battery").begin_object();
        w.key("capacity_mah").float(battery.capacity_mah);
        w.key("nominal_v").float(battery.nominal_v);
        w.key("rate_exponent").float(battery.rate_exponent);
        w.key("sleep_floor_uw").float(battery.sleep_floor_uw);
        w.key("cutoff_fraction").float(battery.cutoff_fraction);
        w.end_object();
        // A zero-draw projection lasts forever: its `days` is infinite and
        // writes as `null`.
        let (pels, irq) = (&self.pels, &self.irq);
        w.key("headline").begin_object();
        w.key("sample_period_us").float(self.period.as_us_f64());
        w.key("horizon_ms").float(self.horizon.as_us_f64() / 1e3);
        w.key("pels_days")
            .float(pels.days())
            .key("irq_days")
            .float(irq.days());
        w.key("lifetime_ratio").float(pels.seconds / irq.seconds);
        w.key("pels_mean_uw").float(pels.mean_draw_uw);
        w.key("irq_mean_uw").float(irq.mean_draw_uw);
        w.end_object();
        w.key("sweep").begin_array();
        for (label, o) in self.fleet.succeeded() {
            let ledger = o.report.energy.as_ref().expect("lifetime(true) ledger");
            let projection = o
                .report
                .lifetime
                .as_ref()
                .expect("lifetime(true) projection");
            let desc = o.scenario.desc();
            w.begin_object().key("label").str(label);
            w.key("mediator").str(&desc.mediator.to_string());
            w.key("sample_period_us")
                .float(desc.sample_period.as_us_f64());
            w.key("spi_words").uint(u64::from(desc.spi_words));
            w.key("mean_uw").float(ledger.mean_power().as_uw());
            w.key("days").float(projection.days());
            w.end_object();
        }
        w.end_array();
        w.key("digest")
            .str(&format!("{:016x}", self.fleet.digest()));
        w.end_object();
        w.finish()
    }
}
