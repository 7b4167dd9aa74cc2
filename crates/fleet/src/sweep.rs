//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] is one base [`ScenarioDesc`] plus the axes to sweep
//! over it; [`SweepSpec::jobs`] expands the cartesian product into
//! labelled, validated [`Scenario`] jobs ready for
//! [`FleetEngine::run_scenarios`](crate::FleetEngine::run_scenarios).

use pels_sim::SimTime;
use pels_soc::{freq_from_mhz, DescError, Mediator, Scenario, ScenarioDesc, ScenarioError};

/// A cartesian product of sweep axes over one base description.
///
/// The base ([`SweepSpec::over`]) supplies everything the axes do not
/// set: stimulus, readout shape, event count, execution mode, fabric
/// shape (`topology`, `arbiter`) and the observation switches (`obs`,
/// `timeline_window`, `flows`, `lifetime`), applied uniformly to every
/// job. Every axis defaults to a single paper operating point and
/// overrides the base's mediator, clock and link count, so the empty
/// spec expands to exactly one job; each axis setter widens one axis.
///
/// ```
/// use pels_fleet::SweepSpec;
/// use pels_soc::{Mediator, ScenarioDesc};
/// let spec = SweepSpec::over(ScenarioDesc {
///     events: 5,
///     ..ScenarioDesc::default()
/// })
/// .mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq])
/// .freqs_mhz(&[27.0, 55.0])
/// .links(&[1, 4]);
/// assert_eq!(spec.jobs().unwrap().len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    base: ScenarioDesc,
    mediators: Vec<Mediator>,
    freqs_mhz: Vec<f64>,
    links: Vec<usize>,
    sample_periods_us: Option<Vec<u64>>,
    spi_word_counts: Option<Vec<u32>>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::over(ScenarioDesc::default())
    }
}

impl SweepSpec {
    /// A single-point spec at the paper's iso-frequency operating point
    /// over the paper's base workload ([`ScenarioDesc::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-point spec at the paper's iso-frequency operating point
    /// over `base`.
    pub fn over(base: ScenarioDesc) -> Self {
        SweepSpec {
            base,
            mediators: vec![Mediator::PelsSequenced],
            freqs_mhz: vec![55.0],
            links: vec![1],
            sample_periods_us: None,
            spi_word_counts: None,
        }
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

    /// Sweeps the sensor sample period (µs) — the *sensor rate* axis of
    /// a duty-cycle lifetime study. Unset (the default), every job keeps
    /// the base description's period and labels stay in the legacy
    /// format (digest stability); set, each value appends a ` T{p}us`
    /// label component.
    pub fn sample_periods_us(mut self, periods: &[u64]) -> Self {
        self.sample_periods_us = Some(periods.to_vec());
        self
    }

    /// Sweeps the words per SPI readout — the *duty cycle* axis of a
    /// lifetime study (a longer readout burst keeps the chain active for
    /// a larger slice of each period). Unset (the default), every job
    /// keeps the base description's readout shape and labels stay in the
    /// legacy format; set, each value appends a ` W{n}` label component.
    pub fn spi_word_counts(mut self, words: &[u32]) -> Self {
        self.spi_word_counts = Some(words.to_vec());
        self
    }

    /// Expands the cartesian product into labelled scenarios, in a fixed
    /// deterministic order (mediator, clock, link count, then the
    /// duty-cycle axes innermost). Labels encode every axis value and
    /// the fabric shape, so they are unique within the sweep.
    ///
    /// # Errors
    ///
    /// The first [`ScenarioError`] if a point fails description
    /// validation (e.g. `links` containing 0, a clock that is not a
    /// positive frequency with a period of at least 1 ps, or a sample
    /// period too long to count in picoseconds); no partial job list is
    /// returned.
    pub fn jobs(&self) -> Result<Vec<(String, Scenario)>, ScenarioError> {
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
        for &mediator in &self.mediators {
            for &mhz in &self.freqs_mhz {
                let freq = freq_from_mhz(mhz, "/system/freq_mhz").map_err(ScenarioError::Desc)?;
                for &links in &self.links {
                    for &period_us in &periods {
                        for &words in &word_counts {
                            let mut desc = self.base.clone();
                            desc.mediator = mediator;
                            desc.system.freq = freq;
                            desc.system.pels.links = links;
                            let mut label = format!(
                                "{mediator}@{mhz:.0}MHz links{links} {} {}",
                                desc.system.topology, desc.system.arbiter
                            );
                            if let Some(p) = period_us {
                                let ps = p.checked_mul(1_000_000).ok_or_else(|| {
                                    ScenarioError::Desc(DescError::new(
                                        "/sample_period_ps",
                                        format!("{p} us overflows 64-bit picoseconds"),
                                    ))
                                })?;
                                desc.sample_period = SimTime::from_ps(ps);
                                label.push_str(&format!(" T{p}us"));
                            }
                            if let Some(w) = words {
                                desc.spi_words = w;
                                label.push_str(&format!(" W{w}"));
                            }
                            jobs.push((label, Scenario::from_desc(desc)?));
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
    use pels_interconnect::{ArbiterKind, Topology};
    use pels_soc::ExecMode;

    #[test]
    fn default_spec_is_one_job() {
        let jobs = SweepSpec::new().jobs().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].1.mediator, Mediator::PelsSequenced);
        assert!(!jobs[0].1.obs, "obs is opt-in");
        let observed = SweepSpec::over(ScenarioDesc {
            obs: true,
            ..ScenarioDesc::default()
        })
        .jobs()
        .unwrap();
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
    fn base_supplies_everything_the_axes_do_not_set() {
        let base = ScenarioDesc {
            spi_words: 1,
            events: 7,
            mediator: Mediator::IbexIrq,
            ..ScenarioDesc::default()
        };
        let jobs = SweepSpec::over(base).jobs().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].1.spi_words, 1, "base supplies readout shape");
        assert_eq!(jobs[0].1.events, 7);
        assert_eq!(jobs[0].1.mediator, Mediator::PelsSequenced, "axes override");
        assert_eq!(jobs[0].0, "pels-sequenced@55MHz links1 shared round-robin");

        let mut crossbar = ScenarioDesc::default();
        crossbar.system.topology = Topology::PerSlaveCrossbar;
        crossbar.system.arbiter = ArbiterKind::FixedPriority;
        let jobs = SweepSpec::over(crossbar.clone()).jobs().unwrap();
        assert_eq!(jobs[0].1.system, crossbar.system, "base supplies fabric shape");
        assert_eq!(
            jobs[0].0,
            "pels-sequenced@55MHz links1 per-slave crossbar fixed-priority"
        );
    }

    #[test]
    fn duty_cycle_axes_expand_and_label() {
        let spec = SweepSpec::over(ScenarioDesc {
            lifetime: true,
            ..ScenarioDesc::default()
        })
        .mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq])
        .sample_periods_us(&[100, 1000])
        .spi_word_counts(&[2, 8]);
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
        let jobs = SweepSpec::over(ScenarioDesc {
            exec: ExecMode::Naive,
            ..ScenarioDesc::default()
        })
        .links(&[1, 2])
        .jobs()
        .unwrap();
        assert!(jobs.len() > 1);
        for (label, desc) in &jobs {
            assert_eq!(desc.exec, ExecMode::Naive, "{label}");
        }
    }
}
