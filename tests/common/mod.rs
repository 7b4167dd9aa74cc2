//! The observation-invariance harness shared by the invariance suites.
//!
//! Four probes record what a run did without changing it: the metrics
//! snapshot (`obs`), the windowed activity timeline (`timeline_window`),
//! causal event flows (`flows`) and the energy ledger with its battery
//! projection (`lifetime`). A probe subset is a bit mask over
//! [`PROBES`]; [`assert_subsets_pure`] runs subsets against the plain
//! run under every execution mode and mediator, and
//! [`assert_fleet_digest_invariant`] checks fleet digests under subsets
//! and worker counts.

// Each suite uses its own slice of the harness.
#![allow(dead_code)]

use pels_fleet::{FleetEngine, SweepSpec};
use pels_repro::soc::{ExecMode, Mediator, Scenario, ScenarioDesc, ScenarioReport};

/// One observation probe: a name for failure messages and the edit that
/// switches it on.
type Probe = (&'static str, fn(&mut ScenarioDesc));

pub const PROBES: [Probe; 4] = [
    ("obs", |d| d.obs = true),
    ("timeline", |d| d.timeline_window = 128),
    ("flows", |d| d.flows = true),
    ("lifetime", |d| d.lifetime = true),
];

pub const OBS: usize = 1 << 0;
pub const TIMELINE: usize = 1 << 1;
pub const FLOWS: usize = 1 << 2;
pub const LIFETIME: usize = 1 << 3;

/// Every probe at once.
pub const ALL_PROBES: usize = (1 << PROBES.len()) - 1;

pub const MEDIATORS: [Mediator; 3] = [
    Mediator::PelsSequenced,
    Mediator::PelsInstant,
    Mediator::IbexIrq,
];

/// `base` with the probes whose bits are set in `mask` switched on.
pub fn with_probes(base: &ScenarioDesc, mask: usize) -> ScenarioDesc {
    let mut desc = base.clone();
    for (bit, (_, probe)) in PROBES.iter().enumerate() {
        if mask & 1 << bit != 0 {
            probe(&mut desc);
        }
    }
    desc
}

pub fn probe_names(mask: usize) -> String {
    let names: Vec<&str> = PROBES
        .iter()
        .enumerate()
        .filter(|&(bit, _)| mask & 1 << bit != 0)
        .map(|(_, (name, _))| *name)
        .collect();
    names.join("+")
}

pub fn run(desc: ScenarioDesc) -> ScenarioReport {
    Scenario::from_desc(desc).expect("valid scenario").run()
}

/// Every simulation-derived field of two reports must match exactly;
/// the probes' own records are the only allowed differences.
pub fn assert_reports_identical(plain: &ScenarioReport, observed: &ScenarioReport, ctx: &str) {
    assert_eq!(plain.latencies, observed.latencies, "{ctx}: latencies");
    assert_eq!(plain.events_completed, observed.events_completed, "{ctx}: events");
    assert_eq!(plain.trace.entries(), observed.trace.entries(), "{ctx}: trace");
    assert_eq!(plain.active_activity, observed.active_activity, "{ctx}: active activity");
    assert_eq!(plain.idle_activity, observed.idle_activity, "{ctx}: idle activity");
    assert_eq!(plain.active_window, observed.active_window, "{ctx}: active window");
    assert_eq!(plain.idle_window, observed.idle_window, "{ctx}: idle window");
    assert_eq!(plain.sched_stats, observed.sched_stats, "{ctx}: scheduler stats");
    assert_eq!(plain.decode_cache_hits, observed.decode_cache_hits, "{ctx}: cache hits");
    assert_eq!(
        plain.decode_cache_misses, observed.decode_cache_misses,
        "{ctx}: cache misses"
    );
}

/// Each probe's report field is `Some` exactly when the probe is on.
pub fn assert_probe_records(report: &ScenarioReport, mask: usize, ctx: &str) {
    let on = |probe: usize| mask & probe != 0;
    assert_eq!(report.metrics.is_some(), on(OBS), "{ctx}: metrics");
    assert_eq!(report.timeline.is_some(), on(TIMELINE), "{ctx}: timeline");
    assert_eq!(report.flows.is_some(), on(FLOWS), "{ctx}: flows");
    assert_eq!(report.energy.is_some(), on(LIFETIME), "{ctx}: energy");
    assert_eq!(report.lifetime.is_some(), on(LIFETIME), "{ctx}: lifetime");
    if let Some(flows) = &report.flows {
        assert!(!flows.is_empty(), "{ctx}: flows recorded");
    }
    if let (Some(ledger), Some(_)) = (&report.energy, &report.timeline) {
        assert!(ledger.windows() > 1, "{ctx}: the ledger integrates per window");
    }
}

/// Runs each probe subset in `masks` under every mediator and
/// `ExecMode` against the plain run: the probes record exactly what
/// they switch on and change nothing the simulation derives. Every
/// subset with `obs` must also publish the metrics snapshot `obs`
/// alone publishes: the other probes must not show in the counters.
pub fn assert_subsets_pure(masks: &[usize]) {
    for mediator in MEDIATORS {
        for exec in [ExecMode::Fast, ExecMode::Naive] {
            let base = ScenarioDesc {
                mediator,
                exec,
                ..ScenarioDesc::default()
            };
            let plain = run(base.clone());
            assert_probe_records(&plain, 0, &format!("{mediator} {exec:?} plain"));
            let obs_alone = masks
                .iter()
                .any(|&mask| mask & OBS != 0)
                .then(|| run(with_probes(&base, OBS)).metrics);
            for &mask in masks {
                let ctx = format!("{mediator} {exec:?} {}", probe_names(mask));
                let observed = run(with_probes(&base, mask));
                assert_probe_records(&observed, mask, &ctx);
                assert_reports_identical(&plain, &observed, &ctx);
                if mask & OBS != 0 {
                    let want = obs_alone.as_ref().expect("run above for any obs subset");
                    assert_eq!(&observed.metrics, want, "{ctx}: metrics snapshot");
                }
            }
        }
    }
}

/// Runs a two-mediator sweep with each probe subset in `masks` on 1 and
/// 2 workers. The digest hashes every simulation-derived field of every
/// job; probes and worker attribution are host-side observation and
/// must not move it.
pub fn assert_fleet_digest_invariant(masks: &[usize]) {
    let spec = |desc: ScenarioDesc| {
        SweepSpec::over(desc).mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq])
    };
    let plain = FleetEngine::new(1)
        .run_sweep(&spec(ScenarioDesc::default()))
        .unwrap();
    for &mask in masks {
        let desc = with_probes(&ScenarioDesc::default(), mask);
        for workers in [1, 2] {
            let observed = FleetEngine::new(workers).run_sweep(&spec(desc.clone())).unwrap();
            let ctx = format!("{} on {workers} worker(s)", probe_names(mask));
            assert_eq!(plain.digest(), observed.digest(), "{ctx}");
            assert_eq!(
                observed.flow_report().flows() > 0,
                desc.flows,
                "{ctx}: the fleet merges recorded flows"
            );
        }
    }
}
