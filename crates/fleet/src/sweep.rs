//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names the axes to sweep; [`SweepSpec::jobs`] expands
//! the cartesian product into labelled, builder-validated
//! [`Scenario`] jobs ready for
//! [`FleetEngine::run_scenarios`](crate::FleetEngine::run_scenarios).

use pels_interconnect::{ArbiterKind, Topology};
use pels_sim::{Frequency, SimTime};
use pels_soc::{DescError, ExecMode, Mediator, Scenario, ScenarioDesc, ScenarioError};
use std::path::Path;

/// A cartesian product of sweep axes over one or more base descriptions.
///
/// Every axis defaults to a single paper operating point, so the empty
/// spec expands to exactly one job; each setter widens one axis. The
/// product is expanded over every *base* [`ScenarioDesc`]: by default the
/// paper's base workload ([`ScenarioDesc::default`]), replaced by any
/// descriptions added with [`SweepSpec::add_desc`] /
/// [`SweepSpec::add_desc_file`] — the axes override the base's mediator,
/// clock, link count, fabric shape and uniform switches, while the base
/// supplies everything else (stimulus, readout shape, memory map, …).
///
/// ```
/// use pels_fleet::SweepSpec;
/// use pels_soc::Mediator;
/// let spec = SweepSpec::new()
///     .mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq])
///     .freqs_mhz(&[27.0, 55.0])
///     .links(&[1, 4]);
/// assert_eq!(spec.jobs().unwrap().len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    bases: Vec<(String, ScenarioDesc)>,
    mediators: Vec<Mediator>,
    freqs_mhz: Vec<f64>,
    links: Vec<usize>,
    topologies: Vec<Topology>,
    arbiters: Vec<ArbiterKind>,
    events: u32,
    rmw_only: bool,
    obs: bool,
    timeline_window: u64,
    exec: ExecMode,
    flows: bool,
    lifetime: bool,
    sample_periods_us: Option<Vec<u64>>,
    spi_word_counts: Option<Vec<u32>>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            bases: Vec::new(),
            mediators: vec![Mediator::PelsSequenced],
            freqs_mhz: vec![55.0],
            links: vec![1],
            topologies: vec![Topology::Shared],
            arbiters: vec![ArbiterKind::RoundRobin],
            events: 20,
            rmw_only: false,
            obs: false,
            timeline_window: 0,
            exec: ExecMode::Fast,
            flows: false,
            lifetime: false,
            sample_periods_us: None,
            spi_word_counts: None,
        }
    }
}

impl SweepSpec {
    /// A single-point spec at the paper's iso-frequency operating point.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sweeps the mediation path.
    pub fn mediators(mut self, mediators: &[Mediator]) -> Self {
        self.mediators = mediators.to_vec();
        self
    }

    /// Sweeps the system clock (MHz).
    pub fn freqs_mhz(mut self, freqs: &[f64]) -> Self {
        self.freqs_mhz = freqs.to_vec();
        self
    }

    /// Sweeps the instantiated PELS link count.
    pub fn links(mut self, links: &[usize]) -> Self {
        self.links = links.to_vec();
        self
    }

    /// Sweeps the fabric topology.
    pub fn topologies(mut self, topologies: &[Topology]) -> Self {
        self.topologies = topologies.to_vec();
        self
    }

    /// Sweeps the arbitration policy.
    pub fn arbiters(mut self, arbiters: &[ArbiterKind]) -> Self {
        self.arbiters = arbiters.to_vec();
        self
    }

    /// Linking events each job measures.
    pub fn events(mut self, events: u32) -> Self {
        self.events = events;
        self
    }

    /// `true` → every job runs the minimal single-action program.
    pub fn rmw_only(mut self, rmw_only: bool) -> Self {
        self.rmw_only = rmw_only;
        self
    }

    /// `true` → every job collects an observability metrics snapshot
    /// ([`pels_soc::ScenarioReport::metrics`]). Applied uniformly — it is
    /// a reporting switch, not a sweep axis.
    pub fn obs(mut self, obs: bool) -> Self {
        self.obs = obs;
        self
    }

    /// Nominal activity-sampling window (cycles) every job applies to
    /// its active run; `0` (the default) disables timeline sampling.
    /// Applied uniformly, like [`SweepSpec::obs`] — a reporting switch,
    /// not a sweep axis. Sampling never perturbs results, so the fleet
    /// digest is invariant under this setting
    /// (`tests/obs_invariance.rs`).
    pub fn timeline_window(mut self, window_cycles: u64) -> Self {
        self.timeline_window = window_cycles;
        self
    }

    /// `true` → every job records causal event flows
    /// ([`pels_soc::ScenarioReport::flows`]), and the fleet report
    /// carries their merged per-stage attribution
    /// ([`crate::FleetReport::flow_report`]). Applied uniformly, like
    /// [`SweepSpec::obs`] — a reporting switch, not a sweep axis. Flow
    /// recording never perturbs results, so the fleet digest is
    /// invariant under this setting (`tests/flow_invariance.rs`).
    pub fn flows(mut self, flows: bool) -> Self {
        self.flows = flows;
        self
    }

    /// Host-side execution strategy every job runs under
    /// ([`pels_soc::ExecMode`]). Applied uniformly — a host-speed switch,
    /// not a sweep axis. The strategy never perturbs results, so the
    /// fleet digest is invariant under this setting
    /// (`tests/obs_invariance.rs`).
    pub fn exec_mode(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// `true` → every job integrates its power into an energy ledger and
    /// projects battery lifetime
    /// ([`pels_soc::ScenarioReport::energy`] /
    /// [`pels_soc::ScenarioReport::lifetime`]), and the fleet report can
    /// fold the ledgers ([`crate::FleetReport::merged_energy_ledger`]).
    /// Applied uniformly, like [`SweepSpec::obs`] — a reporting switch,
    /// not a sweep axis. The ledger is pure post-processing, so the
    /// fleet digest is invariant under this setting
    /// (`tests/lifetime_invariance.rs`).
    pub fn lifetime(mut self, lifetime: bool) -> Self {
        self.lifetime = lifetime;
        self
    }

    /// Sweeps the sensor sample period (µs) — the *sensor rate* axis of
    /// a duty-cycle lifetime study. Unset (the default), every job keeps
    /// its base description's period and labels stay in the legacy
    /// format (digest stability); set, each value appends a ` T{p}us`
    /// label component.
    pub fn sample_periods_us(mut self, periods: &[u64]) -> Self {
        self.sample_periods_us = Some(periods.to_vec());
        self
    }

    /// Sweeps the words per SPI readout — the *duty cycle* axis of a
    /// lifetime study (a longer readout burst keeps the chain active for
    /// a larger slice of each period). Unset (the default), every job
    /// keeps its base description's readout shape and labels stay in the
    /// legacy format; set, each value appends a ` W{n}` label component.
    pub fn spi_word_counts(mut self, words: &[u32]) -> Self {
        self.spi_word_counts = Some(words.to_vec());
        self
    }

    /// Appends a named base description the axes are expanded over.
    /// Adding any base replaces the implicit paper-default base.
    pub fn add_desc(mut self, name: impl Into<String>, desc: ScenarioDesc) -> Self {
        self.bases.push((name.into(), desc));
        self
    }

    /// Appends a base description loaded from a JSON file (see
    /// [`ScenarioDesc::from_json`]); the base is named after the file
    /// stem.
    ///
    /// # Errors
    ///
    /// A [`DescError`] whose path is prefixed with the file path, for
    /// unreadable files, malformed JSON or failed validation.
    pub fn add_desc_file(self, path: impl AsRef<Path>) -> Result<Self, DescError> {
        let path = path.as_ref();
        let shown = path.display().to_string();
        let text = std::fs::read_to_string(path)
            .map_err(|e| DescError::new(shown.clone(), format!("cannot read file: {e}")))?;
        let desc = ScenarioDesc::from_json(&text).map_err(|e| e.prefixed(&shown))?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| shown.clone());
        Ok(self.add_desc(name, desc))
    }

    /// Expands the cartesian product into labelled scenarios, in a fixed
    /// deterministic order (base-major, mediator, …, arbiter, then the
    /// duty-cycle axes innermost). Labels encode the base name (when
    /// set) and every axis value, so they are unique within the sweep.
    ///
    /// # Errors
    ///
    /// The first [`ScenarioError`] if an axis value fails description
    /// validation (e.g. `links` containing 0); no partial job list is
    /// returned.
    pub fn jobs(&self) -> Result<Vec<(String, Scenario)>, ScenarioError> {
        let default_base = [(String::new(), ScenarioDesc::default())];
        let bases: &[(String, ScenarioDesc)] = if self.bases.is_empty() {
            &default_base
        } else {
            &self.bases
        };
        // Unset duty-cycle axes expand to a single "inherit from the
        // base" point, keeping legacy labels byte-identical.
        let periods: Vec<Option<u64>> = match &self.sample_periods_us {
            Some(v) => v.iter().map(|&p| Some(p)).collect(),
            None => vec![None],
        };
        let word_counts: Vec<Option<u32>> = match &self.spi_word_counts {
            Some(v) => v.iter().map(|&w| Some(w)).collect(),
            None => vec![None],
        };
        let mut jobs = Vec::new();
        for (name, base) in bases {
            for &mediator in &self.mediators {
                for &mhz in &self.freqs_mhz {
                    for &links in &self.links {
                        for &topology in &self.topologies {
                            for &arbiter in &self.arbiters {
                                for &period_us in &periods {
                                    for &words in &word_counts {
                                        let mut desc = base.clone();
                                        desc.mediator = mediator;
                                        desc.system.freq = Frequency::from_mhz(mhz);
                                        desc.system.pels.links = links;
                                        desc.system.topology = topology;
                                        desc.system.arbiter = arbiter;
                                        desc.events = self.events;
                                        desc.rmw_only = self.rmw_only;
                                        desc.obs = self.obs;
                                        desc.timeline_window = self.timeline_window;
                                        desc.exec = self.exec;
                                        desc.flows = self.flows;
                                        desc.lifetime = self.lifetime;
                                        let mut suffix = String::new();
                                        if let Some(p) = period_us {
                                            desc.sample_period = SimTime::from_us(p);
                                            suffix.push_str(&format!(" T{p}us"));
                                        }
                                        if let Some(w) = words {
                                            desc.spi_words = w;
                                            suffix.push_str(&format!(" W{w}"));
                                        }
                                        let scenario = Scenario::from_desc(desc)?;
                                        let prefix = if name.is_empty() {
                                            String::new()
                                        } else {
                                            format!("{name} ")
                                        };
                                        let label = format!(
                                            "{prefix}{mediator}@{mhz:.0}MHz links{links} {topology} {arbiter}{suffix}"
                                        );
                                        jobs.push((label, scenario));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_one_job() {
        let jobs = SweepSpec::new().jobs().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].1.mediator, Mediator::PelsSequenced);
        assert!(!jobs[0].1.obs, "obs is opt-in");
        let observed = SweepSpec::new().obs(true).jobs().unwrap();
        assert!(observed[0].1.obs);
    }

    #[test]
    fn product_order_is_deterministic_and_labels_unique() {
        let spec = SweepSpec::new()
            .mediators(&[Mediator::PelsSequenced, Mediator::PelsInstant])
            .links(&[1, 2, 4]);
        let a = spec.jobs().unwrap();
        let b = spec.jobs().unwrap();
        assert_eq!(a.len(), 6);
        let labels_a: Vec<&str> = a.iter().map(|(l, _)| l.as_str()).collect();
        let labels_b: Vec<&str> = b.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels_a, labels_b);
        let mut dedup = labels_a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels_a.len(), "labels are unique");
    }

    #[test]
    fn invalid_axis_value_rejects_the_whole_spec() {
        let spec = SweepSpec::new().links(&[1, 0]);
        assert!(spec.jobs().is_err());
    }

    #[test]
    fn desc_bases_replace_the_default_and_prefix_labels() {
        let alt = ScenarioDesc {
            spi_words: 1,
            ..ScenarioDesc::default()
        };
        let spec = SweepSpec::new()
            .add_desc("alt", alt)
            .add_desc("base", ScenarioDesc::default());
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs.len(), 2);
        assert!(jobs[0].0.starts_with("alt "), "label: {}", jobs[0].0);
        assert!(jobs[1].0.starts_with("base "), "label: {}", jobs[1].0);
        assert_eq!(jobs[0].1.spi_words, 1, "base supplies readout shape");
        assert_eq!(jobs[1].1.spi_words, 2);
        // Unnamed default base keeps legacy labels (digest stability).
        let legacy = SweepSpec::new().jobs().unwrap();
        assert!(legacy[0].0.starts_with("pels-sequenced@55MHz"));
    }

    #[test]
    fn duty_cycle_axes_expand_and_label() {
        let spec = SweepSpec::new()
            .mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq])
            .sample_periods_us(&[100, 1000])
            .spi_word_counts(&[2, 8])
            .lifetime(true);
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs.len(), 8);
        for (label, scenario) in &jobs {
            assert!(scenario.lifetime, "{label}");
            assert!(label.contains("us W"), "label carries both axes: {label}");
        }
        assert!(jobs[0].0.ends_with("T100us W2"), "{}", jobs[0].0);
        assert_eq!(jobs[1].1.spi_words, 8);
        assert_eq!(jobs[2].1.sample_period, SimTime::from_us(1000));
        // Unset axes keep legacy labels byte-identical.
        let legacy = SweepSpec::new().jobs().unwrap();
        assert_eq!(legacy[0].0, "pels-sequenced@55MHz links1 shared round-robin");
        assert!(!legacy[0].1.lifetime, "lifetime is opt-in");
    }

    #[test]
    fn exec_mode_is_uniform_across_jobs() {
        let jobs = SweepSpec::new()
            .exec_mode(ExecMode::Naive)
            .links(&[1, 2])
            .jobs()
            .unwrap();
        assert!(jobs.len() > 1);
        for (label, desc) in &jobs {
            assert_eq!(desc.exec, ExecMode::Naive, "{label}");
        }
    }
}
