//! The activity → power model.
//!
//! [`PowerModel::report`] is the one evaluator every power figure goes
//! through — whole-window reports, every [`crate::PowerTimeline`]
//! sample and the lifetime fallback. It walks the dense
//! [`ActivitySet`] rows by interned [`ComponentId`], reads areas from a
//! table indexed by the same id, resolves each unregistered name once
//! and keeps per-kind energy in a `[Energy; ActivityKind::COUNT]` array,
//! so evaluating a window hashes no strings and, when every active
//! component is registered, allocates only the report's own vector.
//!
//! Its floating-point summation order is a contract (pinned bit-for-bit
//! by `tests/power_golden.rs`): per component, kinds add in
//! [`ActivityKind::ALL`] order skipping zero counts; per-kind energy adds
//! across components in name order; components are stable-sorted by
//! descending total with ties in name order; [`PowerReport::total`]
//! folds in that order and then adds the analog floor.

use crate::calibration::Calibration;
use crate::units::{Energy, Power};
use pels_sim::{ActivityKind, ActivitySet, ComponentId, SimTime};
use std::borrow::Cow;
use std::fmt;

/// Power attributed to one component over the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentPower {
    /// Component name (the interned activity-set name).
    pub name: &'static str,
    /// Activity-driven (dynamic) power, including clock tree.
    pub dynamic: Power,
    /// Leakage share.
    pub leakage: Power,
}

impl ComponentPower {
    /// Dynamic + leakage.
    pub fn total(&self) -> Power {
        self.dynamic + self.leakage
    }
}

/// The result of evaluating a measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    window: SimTime,
    components: Vec<ComponentPower>,
    constant: Power,
    kind_energy: [Energy; ActivityKind::COUNT],
}

impl PowerReport {
    /// The measurement window.
    pub fn window(&self) -> SimTime {
        self.window
    }

    /// Per-component shares, sorted descending by total power.
    pub fn components(&self) -> &[ComponentPower] {
        &self.components
    }

    /// The frequency-independent analog floor (FLLs, bias).
    pub fn constant(&self) -> Power {
        self.constant
    }

    /// A component's share, if present.
    pub fn component(&self, name: &str) -> Option<&ComponentPower> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Total SoC power: components + analog floor.
    pub fn total(&self) -> Power {
        self.components.iter().map(ComponentPower::total).sum::<Power>() + self.constant
    }

    /// Power attributable to the memory system: SRAM and SCM access
    /// energy plus the SRAM component's clock/leakage share — the
    /// quantity behind the paper's 3.7×/4.3× comparison.
    pub fn memory_system(&self) -> Power {
        let access: Energy = [
            ActivityKind::SramRead,
            ActivityKind::SramWrite,
            ActivityKind::ScmRead,
            ActivityKind::ScmWrite,
        ]
        .into_iter()
        .map(|k| self.kind_energy(k))
        .sum();
        let sram_static = self
            .component("sram")
            .map(|c| c.leakage + self.clockless_dynamic_of("sram"))
            .unwrap_or(Power::ZERO);
        access.over(self.window) + sram_static
    }

    /// The clock-tree part of a component's dynamic power.
    fn clockless_dynamic_of(&self, name: &str) -> Power {
        // For the SRAM, dynamic = access energy + clock; access energy is
        // already reported via kind_energy, so return dynamic minus the
        // access part to avoid double counting.
        let Some(c) = self.component(name) else {
            return Power::ZERO;
        };
        let access: Energy = [ActivityKind::SramRead, ActivityKind::SramWrite]
            .into_iter()
            .map(|k| self.kind_energy(k))
            .sum();
        let access_p = access.over(self.window);
        if c.dynamic.as_uw() > access_p.as_uw() {
            Power::from_uw(c.dynamic.as_uw() - access_p.as_uw())
        } else {
            Power::ZERO
        }
    }

    /// Energy charged to an activity kind over the window.
    pub fn kind_energy(&self, kind: ActivityKind) -> Energy {
        self.kind_energy[kind.index()]
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "power over {} (total {}):", self.window, self.total())?;
        for c in &self.components {
            writeln!(
                f,
                "  {:<18} dyn {:>12}  leak {:>12}",
                c.name,
                c.dynamic.to_string(),
                c.leakage.to_string()
            )?;
        }
        writeln!(f, "  {:<18} {:>12}", "analog floor", self.constant.to_string())
    }
}

/// The model: a calibration plus the SoC's component inventory (areas in
/// kGE drive clock-tree energy and leakage shares).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    calibration: Calibration,
    /// Logic area per registered component, indexed by
    /// [`ComponentId::index`]; `None` for ids never registered.
    areas: Vec<Option<f64>>,
    /// Registered components in name order, names resolved once at
    /// registration.
    registered: Vec<(&'static str, ComponentId)>,
}

impl PowerModel {
    /// Creates a model with the given calibration and no components.
    pub fn new(calibration: Calibration) -> Self {
        PowerModel {
            calibration,
            areas: Vec::new(),
            registered: Vec::new(),
        }
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Registers a component and its logic area (re-registering a name
    /// replaces its area). Components appearing in the activity set
    /// without registration contribute event energy but no clock/leakage
    /// share.
    pub fn add_component(&mut self, name: impl AsRef<str>, area_kge: f64) -> &mut Self {
        let id = ComponentId::intern(name.as_ref());
        if self.areas.len() <= id.index() {
            self.areas.resize(id.index() + 1, None);
        }
        if self.areas[id.index()].replace(area_kge).is_none() {
            let name = id.name();
            let at = self.registered.partition_point(|&(n, _)| n < name);
            self.registered.insert(at, (name, id));
        }
        self
    }

    fn area(&self, id: ComponentId) -> Option<f64> {
        self.areas.get(id.index()).copied().flatten()
    }

    /// Evaluates a measurement window.
    ///
    /// `activity` must contain a [`ActivityKind::ClockCycle`] entry per
    /// clocked component (the SoC harness records one per cycle the
    /// component's clock was running — WFI-gated components record
    /// none). Every registered component appears in the report (it leaks
    /// whether active or not), as does every unregistered component with
    /// recorded activity.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn report(&self, activity: &ActivitySet, window: SimTime) -> PowerReport {
        assert!(window.as_ps() > 0, "window must be non-zero");
        // The registered inventory plus any unregistered component that
        // recorded activity, in name order: the order energies add in.
        // The inventory is borrowed when every active row is registered.
        let mut unregistered: Vec<(&'static str, ComponentId)> = activity
            .rows()
            .filter(|&(id, _)| self.area(id).is_none())
            .map(|(id, _)| (id.name(), id))
            .collect();
        let order: Cow<'_, [(&'static str, ComponentId)]> = if unregistered.is_empty() {
            Cow::Borrowed(&self.registered)
        } else {
            unregistered.extend_from_slice(&self.registered);
            unregistered.sort_unstable_by_key(|&(name, _)| name);
            Cow::Owned(unregistered)
        };

        let mut kind_energy = [Energy::ZERO; ActivityKind::COUNT];
        let mut components: Vec<ComponentPower> = order
            .iter()
            .map(|&(name, id)| {
                let area = self.area(id).unwrap_or(0.0);
                let row = activity.row(id);
                let mut energy = Energy::ZERO;
                for kind in ActivityKind::ALL {
                    let n = row[kind.index()];
                    if n == 0 {
                        continue;
                    }
                    let e = if kind == ActivityKind::ClockCycle {
                        self.calibration.clock_energy(area, n)
                    } else {
                        self.calibration.event_energy(kind, n)
                    };
                    energy += e;
                    kind_energy[kind.index()] += e;
                }
                let mut leakage = self.calibration.logic_leakage(area);
                if name == "sram" {
                    leakage += Power::from_uw(self.calibration.sram_leak_uw);
                }
                ComponentPower {
                    name,
                    dynamic: energy.over(window),
                    leakage,
                }
            })
            .collect();
        components.sort_by(|a, b| b.total().as_uw().total_cmp(&a.total().as_uw()));

        PowerReport {
            window,
            components,
            constant: Power::from_uw(self.calibration.p_const_uw),
            kind_energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        let mut m = PowerModel::new(Calibration::default());
        m.add_component("ibex", 27.0)
            .add_component("sram", 200.0)
            .add_component("pels.link0", 5.0);
        m
    }

    fn window() -> SimTime {
        SimTime::from_us(10)
    }

    #[test]
    fn empty_activity_still_leaks() {
        let m = model();
        let r = m.report(&ActivitySet::new(), window());
        let total = r.total().as_uw();
        let floor = m.calibration().p_const_uw
            + m.calibration().sram_leak_uw
            + m.calibration().leak_uw_per_kge * (27.0 + 200.0 + 5.0);
        assert!((total - floor).abs() < 1e-9);
    }

    #[test]
    fn clock_cycles_scale_with_area() {
        let m = model();
        let mut small = ActivitySet::new();
        small.record_named("pels.link0", ActivityKind::ClockCycle, 1000);
        let mut big = ActivitySet::new();
        big.record_named("ibex", ActivityKind::ClockCycle, 1000);
        let rs = m.report(&small, window());
        let rb = m.report(&big, window());
        let ds = rs.component("pels.link0").unwrap().dynamic.as_uw();
        let db = rb.component("ibex").unwrap().dynamic.as_uw();
        assert!((db / ds - 27.0 / 5.0).abs() < 1e-6);
    }

    #[test]
    fn unregistered_component_contributes_event_energy_only() {
        let m = model();
        let mut a = ActivitySet::new();
        a.record_named("mystery", ActivityKind::BusTransfer, 100);
        a.record_named("mystery", ActivityKind::ClockCycle, 1000);
        let r = m.report(&a, window());
        let c = r.component("mystery").unwrap();
        assert!(c.dynamic.as_uw() > 0.0, "event energy counted");
        assert_eq!(c.leakage.as_uw(), 0.0, "no area, no leakage");
        // ClockCycle with area 0 contributes nothing.
        let expected = m
            .calibration()
            .event_energy(ActivityKind::BusTransfer, 100)
            .over(window());
        assert!((c.dynamic.as_uw() - expected.as_uw()).abs() < 1e-9);
    }

    #[test]
    fn memory_system_power_tracks_sram_accesses() {
        let m = model();
        let mut quiet = ActivitySet::new();
        quiet.record_named("ibex", ActivityKind::InstrRetired, 100);
        let mut busy = quiet.clone();
        busy.record_named("sram", ActivityKind::SramRead, 10_000);
        let rq = m.report(&quiet, window());
        let rb = m.report(&busy, window());
        assert!(rb.memory_system().as_uw() > rq.memory_system().as_uw());
        // The non-memory parts are unchanged.
        assert!(
            (rb.component("ibex").unwrap().total().as_uw()
                - rq.component("ibex").unwrap().total().as_uw())
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn report_is_displayable_and_sorted() {
        let m = model();
        let mut a = ActivitySet::new();
        a.record_named("ibex", ActivityKind::SramRead, 1); // attributed to ibex name
        let r = m.report(&a, window());
        let s = r.to_string();
        assert!(s.contains("analog floor"));
        let totals: Vec<f64> = r.components().iter().map(|c| c.total().as_uw()).collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn kind_energy_accessible() {
        let m = model();
        let mut a = ActivitySet::new();
        a.record_named("sram", ActivityKind::SramRead, 5);
        let r = m.report(&a, window());
        assert!(
            (r.kind_energy(ActivityKind::SramRead).as_pj()
                - 5.0 * m.calibration().e_sram_read_pj)
                .abs()
                < 1e-9
        );
        assert_eq!(r.kind_energy(ActivityKind::ScmRead).as_pj(), 0.0);
    }

    #[test]
    fn unregistered_components_report_in_name_order_with_registered_ones() {
        let m = model();
        let mut a = ActivitySet::new();
        // Equal zero-power rows (a ClockCycle with no area costs
        // nothing) keep name order through the stable sort.
        a.record_named("model-zz", ActivityKind::ClockCycle, 10);
        a.record_named("model-aa", ActivityKind::ClockCycle, 10);
        let r = m.report(&a, window());
        let names: Vec<&str> = r.components().iter().map(|c| c.name).collect();
        let want = ["sram", "ibex", "pels.link0", "model-aa", "model-zz"];
        assert_eq!(names, want);
    }

    #[test]
    fn re_registering_a_component_replaces_its_area() {
        let mut m = model();
        m.add_component("ibex", 54.0);
        let r = m.report(&ActivitySet::new(), window());
        assert_eq!(r.components().len(), 3);
        let leak = r.component("ibex").unwrap().leakage.as_uw();
        assert_eq!(leak, m.calibration().logic_leakage(54.0).as_uw());
    }

    #[test]
    fn nan_rate_of_an_unexercised_kind_still_reports() {
        // Zero counts are skipped, so a NaN rate nobody uses never
        // reaches the units; the report is complete and ordered.
        let mut m = model();
        m.calibration.e_scm_write_pj = f64::NAN;
        let mut a = ActivitySet::new();
        a.record_named("ibex", ActivityKind::ClockCycle, 1000);
        a.record_named("sram", ActivityKind::SramRead, 10);
        let r = m.report(&a, window());
        assert!(r.total().as_uw().is_finite());
        assert_eq!(r.kind_energy(ActivityKind::ScmWrite), Energy::ZERO);
        let totals: Vec<f64> = r.components().iter().map(|c| c.total().as_uw()).collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        let m = model();
        let _ = m.report(&ActivitySet::new(), SimTime::ZERO);
    }
}
