//! Battery model and lifetime projection.
//!
//! ULP designers buy *lifetime*, not watts: the question behind the
//! paper's 2.5× power claim is "how many more days does the node last?"
//! This module closes that gap by discharging a simple battery model
//! with an [`EnergyLedger`]'s time-weighted mean draw:
//!
//! * **capacity × nominal voltage** gives the stored energy;
//! * a **cutoff fraction** models the charge stranded below the
//!   regulator's minimum input voltage;
//! * a **rate-dependent discharge factor** (Peukert-style exponent
//!   around a rated draw) derates capacity at draws above the cell's
//!   rating;
//! * a **sleep-current floor** adds the always-on regulator /
//!   self-discharge load the SoC model does not see.
//!
//! The projection is deliberately analytical — mean draw over the
//! simulated span, linear state of charge — because the simulated
//! horizon (seconds to hours) is tiny against the projected lifetime
//! (months to years); anything fancier would be false precision.

use std::fmt::Write as _;

use crate::energy::EnergyLedger;
use crate::units::{Energy, Power};

/// Seconds per day, for lifetime conversions.
const SECONDS_PER_DAY: f64 = 86_400.0;

/// Number of points on the projected state-of-charge curve.
const SOC_POINTS: usize = 33;

/// An idealized primary cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    /// Rated capacity, mAh.
    pub capacity_mah: f64,
    /// Nominal terminal voltage, V.
    pub nominal_v: f64,
    /// Peukert-style rate exponent (≥ 1.0; 1.0 = rate-independent).
    pub rate_exponent: f64,
    /// Reference discharge current for the rate exponent, mA.
    pub rated_draw_ma: f64,
    /// Always-on system floor added to the SoC draw (regulator
    /// quiescent current, cell self-discharge), µW.
    pub sleep_floor_uw: f64,
    /// Usable fraction of rated capacity before the voltage cutoff
    /// (0 < f ≤ 1).
    pub cutoff_fraction: f64,
}

impl Battery {
    /// A battery with the given capacity and nominal voltage, no rate
    /// derating, no sleep floor and no cutoff.
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-finite capacity/voltage.
    pub fn new(capacity_mah: f64, nominal_v: f64) -> Self {
        assert!(
            capacity_mah.is_finite() && capacity_mah > 0.0,
            "capacity must be finite and > 0"
        );
        assert!(
            nominal_v.is_finite() && nominal_v > 0.0,
            "voltage must be finite and > 0"
        );
        Battery {
            capacity_mah,
            nominal_v,
            rate_exponent: 1.0,
            rated_draw_ma: 1.0,
            sleep_floor_uw: 0.0,
            cutoff_fraction: 1.0,
        }
    }

    /// A CR2032-class lithium coin cell: 225 mAh at 3.0 V, mild rate
    /// derating around a 0.2 mA rated draw, a 1.2 µW sleep floor and
    /// 92% usable before cutoff. The default cell for duty-cycled
    /// sensor-node lifetime projections.
    pub fn coin_cell() -> Self {
        Battery::new(225.0, 3.0)
            .with_rate(1.08, 0.2)
            .with_sleep_floor(Power::from_uw(1.2))
            .with_cutoff(0.92)
    }

    /// Sets the Peukert-style rate exponent and its reference draw.
    ///
    /// # Panics
    ///
    /// Panics if `exponent < 1.0` or `rated_draw_ma <= 0`.
    pub fn with_rate(mut self, exponent: f64, rated_draw_ma: f64) -> Self {
        assert!(
            exponent.is_finite() && exponent >= 1.0,
            "rate exponent must be >= 1.0"
        );
        assert!(
            rated_draw_ma.is_finite() && rated_draw_ma > 0.0,
            "rated draw must be > 0"
        );
        self.rate_exponent = exponent;
        self.rated_draw_ma = rated_draw_ma;
        self
    }

    /// Sets the always-on sleep-current floor.
    pub fn with_sleep_floor(mut self, floor: Power) -> Self {
        self.sleep_floor_uw = floor.as_uw();
        self
    }

    /// Sets the usable fraction before voltage cutoff.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn with_cutoff(mut self, fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && fraction > 0.0 && fraction <= 1.0,
            "cutoff fraction must be in (0, 1]"
        );
        self.cutoff_fraction = fraction;
        self
    }

    /// Rated stored energy (capacity × nominal voltage), before cutoff
    /// and rate derating.
    pub fn rated_energy(&self) -> Energy {
        // mAh × V = mWh; × 3.6 = J; × 1e6 = µJ.
        Energy::from_uj(self.capacity_mah * self.nominal_v * 3.6 * 1e6)
    }

    /// Usable energy at a sustained draw, µJ: rated energy × cutoff,
    /// derated by `(draw / rated_draw)^(exponent − 1)` for draws above
    /// the cell's rating (draws at or below rating are not derated).
    pub fn usable_uj(&self, draw: Power) -> f64 {
        let base = self.rated_energy().as_uj() * self.cutoff_fraction;
        let draw_ma = draw.as_uw() / 1e3 / self.nominal_v;
        if draw_ma <= self.rated_draw_ma || self.rate_exponent == 1.0 {
            base
        } else {
            base / (draw_ma / self.rated_draw_ma).powf(self.rate_exponent - 1.0)
        }
    }

    /// Projects this battery's lifetime under the ledger's mean draw
    /// plus the sleep floor, blaming days of battery on each component.
    pub fn project(&self, ledger: &EnergyLedger) -> LifetimeReport {
        let soc_draw_uw = ledger.mean_power().as_uw();
        let mean_draw_uw = soc_draw_uw + self.sleep_floor_uw;
        let usable_uj = self.usable_uj(Power::from_uw(mean_draw_uw));
        let seconds = if mean_draw_uw > 0.0 {
            usable_uj / mean_draw_uw // µJ / µW = s
        } else {
            f64::INFINITY
        };
        let days = seconds / SECONDS_PER_DAY;

        // Days-of-battery blame: each row's share of the mean draw costs
        // the same share of the projected days, so the table telescopes
        // back to the total lifetime.
        let days_for = |uw: f64| {
            if mean_draw_uw > 0.0 {
                days * (uw / mean_draw_uw)
            } else {
                0.0
            }
        };
        let span_s = ledger.span().as_secs_f64();
        let uw_of = |uj: f64| if span_s > 0.0 { uj / span_s } else { 0.0 };
        let mut blame: Vec<LifetimeBlame> = ledger
            .blame()
            .into_iter()
            .map(|row| {
                let uw = uw_of(row.uj);
                LifetimeBlame {
                    name: row.name,
                    uw,
                    days_cost: days_for(uw),
                }
            })
            .collect();
        blame.push(LifetimeBlame {
            name: "(sleep floor)",
            uw: self.sleep_floor_uw,
            days_cost: days_for(self.sleep_floor_uw),
        });

        let soc = (0..SOC_POINTS)
            .map(|i| {
                let f = i as f64 / (SOC_POINTS - 1) as f64;
                SocPoint {
                    t_days: days * f,
                    fraction: 1.0 - f,
                }
            })
            .collect();

        LifetimeReport {
            battery: self.clone(),
            mean_draw_uw,
            usable_uj,
            seconds,
            blame,
            soc,
        }
    }
}

/// One row of the days-of-battery blame table.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeBlame {
    /// Component name (or `"(analog floor)"` / `"(sleep floor)"`).
    pub name: &'static str,
    /// The row's share of the mean draw, µW.
    pub uw: f64,
    /// Days of battery this row consumes; rows sum to the projected
    /// lifetime.
    pub days_cost: f64,
}

/// A point on the projected state-of-charge curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocPoint {
    /// Time since full, days.
    pub t_days: f64,
    /// Remaining usable charge, 1.0 (full) → 0.0 (cutoff).
    pub fraction: f64,
}

/// Projected battery lifetime under a measured mean draw.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeReport {
    /// The battery the projection used.
    pub battery: Battery,
    /// Mean draw the projection assumed (SoC + sleep floor), µW.
    pub mean_draw_uw: f64,
    /// Usable energy at that draw, µJ.
    pub usable_uj: f64,
    /// Projected seconds to cutoff (∞ if the draw is zero).
    pub seconds: f64,
    /// Days-of-battery blame rows; `days_cost` sums to [`Self::days`].
    pub blame: Vec<LifetimeBlame>,
    /// Linear state-of-charge curve from full to cutoff.
    pub soc: Vec<SocPoint>,
}

impl LifetimeReport {
    /// Projected days to cutoff.
    pub fn days(&self) -> f64 {
        self.seconds / SECONDS_PER_DAY
    }

    /// ASCII lifetime card: headline days, then the days-of-battery
    /// blame table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "projected lifetime: {:.1} days at {} mean draw ({:.0} mAh {:.1} V cell)",
            self.days(),
            Power::from_uw(self.mean_draw_uw),
            self.battery.capacity_mah,
            self.battery.nominal_v,
        );
        let width = self.blame.iter().map(|r| r.name.len()).max().unwrap_or(0);
        for row in &self.blame {
            let share = if self.mean_draw_uw > 0.0 {
                row.uw / self.mean_draw_uw
            } else {
                0.0
            };
            let bar = "#".repeat((share * 40.0).round() as usize);
            let _ = writeln!(
                out,
                "  {:<width$}  {:>12}  {:>9.1} days  {}",
                row.name,
                Power::from_uw(row.uw.max(0.0)).to_string(),
                row.days_cost,
                bar,
            );
        }
        out
    }

    /// Fixed-key integer metrics for a `MetricsSnapshot` (`battery.*`; days in
    /// millidays, draw in nW, usable energy in mJ).
    pub fn metric_pairs(&self) -> Vec<(&'static str, u64)> {
        let days_milli = if self.seconds.is_finite() {
            (self.days() * 1e3).round() as u64
        } else {
            u64::MAX
        };
        vec![
            ("battery.days_milli", days_milli),
            ("battery.mean_draw_nw", (self.mean_draw_uw * 1e3).round() as u64),
            ("battery.usable_mj", (self.usable_uj / 1e3).round() as u64),
            ("battery.soc_points", self.soc.len() as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PowerModel;
    use crate::timeline::PowerTimeline;
    use crate::Calibration;
    use pels_sim::{ActivityKind, ActivitySet, ActivityTimeline, ComponentId, Frequency};

    fn ledger(stretch: u64) -> EnergyLedger {
        let mut m = PowerModel::new(Calibration::default());
        m.add_component("ibex", 27.0).add_component("sram", 200.0);
        let mut t = ActivityTimeline::new(100);
        let mut activity = ActivitySet::new();
        activity.record(ComponentId::intern("ibex"), ActivityKind::ClockCycle, 100);
        activity.record(ComponentId::intern("sram"), ActivityKind::SramRead, 300);
        t.push(0, 100 + stretch, &activity);
        EnergyLedger::from_timeline(&PowerTimeline::from_activity(
            &m,
            &t,
            Frequency::from_mhz(100.0),
        ))
    }

    #[test]
    fn lower_draw_lasts_longer() {
        let cell = Battery::coin_cell();
        let busy = cell.project(&ledger(0));
        let idle = cell.project(&ledger(10_000_000));
        assert!(idle.days() > busy.days());
        assert!(busy.days() > 0.0);
        assert!(idle.mean_draw_uw < busy.mean_draw_uw);
    }

    #[test]
    fn blame_days_telescope_to_total() {
        let report = Battery::coin_cell().project(&ledger(1_000));
        let sum: f64 = report.blame.iter().map(|r| r.days_cost).sum();
        assert!(
            (sum - report.days()).abs() <= 1e-9 * report.days(),
            "blame days {sum} vs total {}",
            report.days()
        );
        // The sleep-floor row is present and costs > 0 days.
        let floor = report
            .blame
            .iter()
            .find(|r| r.name == "(sleep floor)")
            .expect("sleep floor row");
        assert!(floor.days_cost > 0.0);
    }

    #[test]
    fn rate_derating_shrinks_usable_energy() {
        let cell = Battery::new(225.0, 3.0).with_rate(1.2, 0.2).with_cutoff(0.9);
        let at_rating = cell.usable_uj(Power::from_uw(0.2 * 3.0 * 1e3));
        let above = cell.usable_uj(Power::from_uw(2.0 * 3.0 * 1e3));
        let below = cell.usable_uj(Power::from_uw(0.01 * 3.0 * 1e3));
        assert!(above < at_rating);
        assert_eq!(below, at_rating); // no derating at or below rating
        // Cutoff strands 10% of the rated energy.
        assert!((at_rating - cell.rated_energy().as_uj() * 0.9).abs() < 1e-3);
    }

    #[test]
    fn soc_curve_is_monotone_full_to_empty() {
        let report = Battery::coin_cell().project(&ledger(100));
        assert_eq!(report.soc.len(), SOC_POINTS);
        assert_eq!(report.soc[0].fraction, 1.0);
        assert_eq!(report.soc.last().unwrap().fraction, 0.0);
        assert!((report.soc.last().unwrap().t_days - report.days()).abs() < 1e-9);
        for pair in report.soc.windows(2) {
            assert!(pair[1].t_days > pair[0].t_days);
            assert!(pair[1].fraction < pair[0].fraction);
        }
    }

    #[test]
    fn zero_draw_projects_infinite_lifetime() {
        let report = Battery::new(100.0, 3.0).project(&EnergyLedger::new());
        assert!(report.seconds.is_infinite());
        assert_eq!(report.metric_pairs()[0].1, u64::MAX);
    }

    #[test]
    fn render_and_metrics_are_populated() {
        let report = Battery::coin_cell().project(&ledger(1_000));
        let text = report.render();
        assert!(text.contains("projected lifetime"), "{text}");
        assert!(text.contains("(sleep floor)"), "{text}");
        let keys: Vec<&str> = report.metric_pairs().iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            vec![
                "battery.days_milli",
                "battery.mean_draw_nw",
                "battery.usable_mj",
                "battery.soc_points"
            ]
        );
        assert!(report.metric_pairs().iter().all(|&(_, v)| v > 0));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Battery::new(0.0, 3.0);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn bad_cutoff_rejected() {
        let _ = Battery::new(1.0, 3.0).with_cutoff(0.0);
    }
}
