//! The harnesses shared by the differential and invariance suites.
//!
//! The fast-vs-naive check: [`Lockstep`] drives a fast-path SoC and its
//! [`ExecMode::Naive`] reference with the same ops and compares them
//! whole (`Soc`'s `PartialEq`) after each one; [`assert_same`] names the
//! first cycle and component of a mismatch.
//!
//! The observation-invariance harness: four probes record what a run did
//! without changing it: the metrics snapshot (`obs`), the windowed
//! activity timeline (`timeline_window`), causal event flows (`flows`)
//! and the energy ledger with its battery projection (`lifetime`). A
//! probe subset is a bit mask over [`PROBES`]; [`assert_subsets_pure`]
//! runs subsets against the plain run under every execution mode and
//! mediator, and [`assert_fleet_digest_invariant`] checks fleet digests
//! under subsets and worker counts.

// Each suite uses its own slice of the harness.
#![allow(dead_code)]

use pels_fleet::{FleetEngine, SweepSpec};
use pels_repro::core as pels_core;
use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::{Spi, Timer};
use pels_repro::sim::{EventVector, SimTime};
use pels_repro::soc::event_map::{AL_GPIO_TOGGLE, EV_TIMER_CMP};
use pels_repro::soc::mem_map::RESET_PC;
use pels_repro::soc::{
    ExecMode, Mediator, Scenario, ScenarioDesc, ScenarioReport, Soc, SystemDesc,
};

/// The differential workload: PELS link 0 toggles a GPIO pad on every
/// timer compare match at `timer_cmp`, the SPI holds a one-word transfer
/// (restarted by each compare), and the CPU runs `program` from reset.
pub fn toggle_workload(program: &[u32], timer_cmp: u32) -> Soc {
    let mut desc = SystemDesc::default();
    desc.pels.links = 2;
    let mut soc = Soc::from_desc(&desc).unwrap();
    let link = soc.pels_mut().link_mut(0);
    link.set_mask(EventVector::mask_of(&[EV_TIMER_CMP]));
    let toggle = pels_core::Command::Action {
        mode: pels_core::ActionMode::Toggle,
        group: 0,
        mask: 1 << (AL_GPIO_TOGGLE - 16),
    };
    let program_of_link = pels_core::Program::new(vec![toggle, pels_core::Command::Halt]);
    link.load_program(&program_of_link.expect("valid")).expect("fits");
    soc.load_program(RESET_PC, program);
    soc.timer_mut().write(Timer::CMP, timer_cmp).unwrap();
    soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
    soc.spi_mut().write(Spi::CMD, 1).unwrap();
    soc
}

/// A SoC on the fast path beside its naive-mode reference. Every op is
/// applied to both, and the two must then be equal as whole SoCs.
#[derive(Clone)]
pub struct Lockstep {
    pub fast: Soc,
    pub naive: Soc,
}

impl Lockstep {
    /// `soc` on the fast path, beside a naive-mode clone of it. Both
    /// keep their trace entries from here on, for the suites that
    /// assert on single events.
    pub fn new(mut soc: Soc) -> Self {
        soc.trace_mut().enable_entries();
        let mut naive = soc.clone();
        naive.set_exec_mode(ExecMode::Naive);
        Lockstep { fast: soc, naive }
    }

    /// Applies `op` to both SoCs and asserts they are still equal.
    pub fn apply(&mut self, ctx: &str, op: impl Fn(&mut Soc)) {
        let pre = (self.fast.clone(), self.naive.clone());
        op(&mut self.fast);
        op(&mut self.naive);
        assert_same(&pre, &self.fast, &self.naive, ctx);
    }

    /// Drains both activity windows (the power model's input) and
    /// asserts the two, and the SoCs after the drain, are equal.
    pub fn drain(&mut self, ctx: &str) {
        drain_both(&mut self.fast, &mut self.naive, ctx);
    }
}

/// Drains `a` and `b` and asserts the drained activity sets, and the
/// SoCs after the drain, are equal.
fn drain_both(a: &mut Soc, b: &mut Soc, ctx: &str) {
    assert_eq!(a.drain_activity(), b.drain_activity(), "{ctx}: drained activity");
    let differs = a.first_difference(b);
    assert_eq!(differs, None, "{ctx}: component differing after the drain");
}

/// Asserts `a` and `b` are the same SoC wherever their activity counters
/// sit. A timeline window flushes component counters into the SoC's
/// activity image, so a sampled SoC and its unsampled twin hold equal
/// totals in different places until a drain gathers them: this drains
/// clones of both and compares the drained sets and the clones.
pub fn assert_same_drained(a: &Soc, b: &Soc, ctx: &str) {
    drain_both(&mut a.clone(), &mut b.clone(), ctx);
}

/// Asserts `fast == naive`, the whole-state check. `pre` holds the two
/// SoCs, equal, as they were before the op that produced `fast` and
/// `naive`; a mismatch panics with [`first_divergence`].
pub fn assert_same(pre: &(Soc, Soc), fast: &Soc, naive: &Soc, ctx: &str) {
    if fast != naive {
        panic!("{ctx}: fast and naive SoCs differ; {}", first_divergence(pre, fast, naive));
    }
}

/// Where the op that took the equal SoCs `pre` to the unequal `fast`
/// and `naive` first made them differ. Replays `run(k)` on clones of
/// `pre`, bisecting `k` over the cycles the op advanced, and names the
/// cycle after which the two first differ (`run(k - 1)` agrees, `run(k)`
/// does not) and the component that differs there. An op whose own
/// cycles replay without a difference diverged in what it did besides
/// running; the component is then read off `fast` and `naive`.
pub fn first_divergence(pre: &(Soc, Soc), fast: &Soc, naive: &Soc) -> String {
    let start = pre.0.cycle();
    let differs_after = |k: u64| {
        let (mut f, mut n) = pre.clone();
        f.run(k);
        n.run(k);
        f.first_difference(&n)
    };
    let advanced = fast.cycle().min(naive.cycle()) - start;
    let Some(mut component) = differs_after(advanced) else {
        let component = fast.first_difference(naive).expect("the SoCs differ");
        return format!("the op itself diverged by cycle {}: `{component}` differs", fast.cycle());
    };
    // `run(lo)` agrees and `run(hi)` differs.
    let (mut lo, mut hi) = (0, advanced);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match differs_after(mid) {
            Some(c) => (hi, component) = (mid, c),
            None => lo = mid,
        }
    }
    let cycle = start + hi;
    format!("first divergence at cycle {cycle} (run({hi}) from cycle {start}): `{component}` differs")
}

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

/// Every field the simulated chip determines must match exactly: what
/// two reports of one scenario under different exec modes may differ in
/// is only the host-side scheduler and decode-cache counters (and the
/// probes' records).
pub fn assert_same_measurement(a: &ScenarioReport, b: &ScenarioReport, ctx: &str) {
    assert_eq!(a.latencies, b.latencies, "{ctx}: latencies");
    assert_eq!(a.stats, b.stats, "{ctx}: LinkingStats");
    assert_eq!(a.events_completed, b.events_completed, "{ctx}: events");
    assert_eq!(a.trace.len(), b.trace.len(), "{ctx}: trace entries");
    assert_eq!(a.trace.digest(), b.trace.digest(), "{ctx}: trace digest");
    assert_eq!(a.active_activity, b.active_activity, "{ctx}: active activity");
    assert_eq!(a.idle_activity, b.idle_activity, "{ctx}: idle activity");
    assert_eq!(a.active_window, b.active_window, "{ctx}: active window");
    assert_eq!(a.idle_window, b.idle_window, "{ctx}: idle window");
}

/// Every simulation-derived field of two reports must match exactly;
/// the probes' own records are the only allowed differences.
pub fn assert_reports_identical(plain: &ScenarioReport, observed: &ScenarioReport, ctx: &str) {
    assert_same_measurement(plain, observed, ctx);
    assert_eq!(plain.sched_stats, observed.sched_stats, "{ctx}: scheduler stats");
}

/// Each probe's report field is `Some` exactly when the probe is on.
pub fn assert_probe_records(report: &ScenarioReport, mask: usize, ctx: &str) {
    let on = |probe: usize| mask & probe != 0;
    assert_eq!(report.metrics.is_some(), on(OBS), "{ctx}: metrics");
    assert_eq!(report.timeline.is_some(), on(TIMELINE), "{ctx}: timeline");
    assert_eq!(report.flows.is_some(), on(FLOWS), "{ctx}: flows");
    assert_eq!(report.energy.is_some(), on(LIFETIME), "{ctx}: energy");
    assert_eq!(report.lifetime.is_some(), on(LIFETIME), "{ctx}: lifetime");
    // `obs` is the probe that keeps the trace's entries: all of them
    // with it, none without.
    let kept = if on(OBS) { report.trace.len() } else { 0 };
    assert_eq!(report.trace.entries().len(), kept, "{ctx}: kept trace entries");
    // The report holds the one copy of the latencies the online pairer
    // completed; with the entries kept, they and the completed count
    // equal the offline pass over them.
    assert!(report.trace.latencies().is_empty(), "{ctx}: latencies taken");
    if on(OBS) {
        let marker = Scenario::completion_marker(report.mediator);
        let (latencies, completed) = report.trace.latencies_and_count(("spi", "eot"), marker);
        let cycles: Vec<u64> = latencies
            .iter()
            .map(|t| t.as_ps() / report.freq.period_ps())
            .collect();
        assert_eq!(report.latencies, cycles, "{ctx}: latencies of the kept entries");
        assert_eq!(report.events_completed as usize, completed, "{ctx}: completed count");
    }
    if let Some(flows) = &report.flows {
        assert!(!flows.is_empty(), "{ctx}: flows recorded");
    }
    if let (Some(ledger), Some(_)) = (&report.energy, &report.timeline) {
        assert!(ledger.windows() > 1, "{ctx}: the ledger integrates per window");
    }
}

/// Runs each probe subset in `masks` under every mediator and
/// `ExecMode` against the plain run, for the default scenario and a
/// 2 ms duty-cycled one (an event every 50 µs, asleep in between): the
/// probes record exactly what they switch on and change nothing the
/// simulation derives. Every subset with `obs` must also publish the
/// metrics snapshot `obs` alone publishes: the other probes must not
/// show in the counters.
pub fn assert_subsets_pure(masks: &[usize]) {
    let duty_cycled = ScenarioDesc {
        sample_period: SimTime::from_us(50),
        events: 40,
        ..ScenarioDesc::default()
    };
    for shape in [ScenarioDesc::default(), duty_cycled] {
        for mediator in MEDIATORS {
            for exec in [ExecMode::Fast, ExecMode::Naive] {
                let base = ScenarioDesc {
                    mediator,
                    exec,
                    ..shape.clone()
                };
                let of = format!("{mediator} {exec:?} {} events", base.events);
                let plain = run(base.clone());
                assert_probe_records(&plain, 0, &format!("{of} plain"));
                let obs_alone = masks
                    .iter()
                    .any(|&mask| mask & OBS != 0)
                    .then(|| run(with_probes(&base, OBS)).metrics);
                for &mask in masks {
                    let ctx = format!("{of} {}", probe_names(mask));
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
