//! The PELS top level: N links, event broadcast, action lines, loopback.

use crate::exec::{ActionLines, LinkBus};
use crate::link::{Link, DEFAULT_FIFO_DEPTH};
use pels_sim::{
    ActivityCounter, ActivitySink, ComponentId, EventVector, SimTime, SleepPlan, Trace,
};

/// Static configuration of a PELS instance — the two knobs the paper
/// sweeps in Figure 6a (links × SCM lines) plus the FIFO-depth and
/// loopback wiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PelsConfig {
    /// Number of independent links (paper sweeps 1–8).
    pub links: usize,
    /// SCM lines (commands) per link (paper sweeps 4, 6, 8).
    pub scm_lines: usize,
    /// Trigger-FIFO depth per link.
    pub fifo_depth: usize,
    /// Outgoing action lines fed back into the incoming events
    /// (inter-link triggering, paper Figure 2 ⑨).
    pub loopback: EventVector,
}

impl Default for PelsConfig {
    /// The paper's minimal configuration: 1 link, 4 SCM lines.
    fn default() -> Self {
        PelsConfig {
            links: 1,
            scm_lines: 4,
            fifo_depth: DEFAULT_FIFO_DEPTH,
            loopback: EventVector::EMPTY,
        }
    }
}

/// The bus-master side PELS needs from its integration: one port per
/// link. The SoC implements this over its fabric's master ports.
pub trait PelsBus {
    /// Whether link `link` can issue this cycle.
    fn can_issue(&self, link: usize) -> bool;
    /// Issues a read for link `link`.
    fn issue_read(&mut self, link: usize, addr: u32) -> bool;
    /// Issues a write for link `link`.
    fn issue_write(&mut self, link: usize, addr: u32, value: u32) -> bool;
    /// Takes link `link`'s completed response.
    fn take_response(&mut self, link: usize) -> Option<Result<u32, ()>>;
}

/// A no-bus implementation for instant-action-only deployments and unit
/// tests: every sequenced transaction errors.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBus;

impl PelsBus for NoBus {
    fn can_issue(&self, _link: usize) -> bool {
        true
    }
    fn issue_read(&mut self, _link: usize, _addr: u32) -> bool {
        true
    }
    fn issue_write(&mut self, _link: usize, _addr: u32, _value: u32) -> bool {
        true
    }
    fn take_response(&mut self, _link: usize) -> Option<Result<u32, ()>> {
        Some(Err(()))
    }
}

struct LinkPort<'a> {
    bus: &'a mut dyn PelsBus,
    link: usize,
}

impl LinkBus for LinkPort<'_> {
    fn can_issue(&self) -> bool {
        self.bus.can_issue(self.link)
    }
    fn issue_read(&mut self, addr: u32) -> bool {
        self.bus.issue_read(self.link, addr)
    }
    fn issue_write(&mut self, addr: u32, value: u32) -> bool {
        self.bus.issue_write(self.link, addr, value)
    }
    fn take_response(&mut self) -> Option<Result<u32, ()>> {
        self.bus.take_response(self.link)
    }
}

/// The Peripheral Event Linking System.
///
/// Tick once per clock cycle with the sampled external events; the return
/// value is the outgoing action-line image for the cycle (instant-action
/// pulses plus latched levels). Within a tick the execution units run
/// *before* the trigger units sample, so a trigger fires the cycle after
/// its event — the first command executes one further cycle later, giving
/// the paper's 2-cycle instant action.
#[derive(Debug, Clone, PartialEq)]
pub struct Pels {
    config: PelsConfig,
    links: Vec<Link>,
    actions: ActionLines,
    prev_actions: EventVector,
    enabled: bool,
    cycle: u64,
    /// `pels`, the component its config port charges.
    id: ComponentId,
    /// Config-port reads and writes since the last activity drain.
    pub(crate) config_port: ActivityCounter,
}

impl Pels {
    /// Creates a PELS instance from a config.
    ///
    /// # Panics
    ///
    /// Panics if `links` is 0 or greater than 64.
    pub fn new(config: PelsConfig) -> Self {
        assert!(
            (1..=64).contains(&config.links),
            "pels needs 1..=64 links, got {}",
            config.links
        );
        let links = (0..config.links)
            .map(|i| Link::with_fifo_depth(i, config.scm_lines, config.fifo_depth))
            .collect();
        Pels {
            config,
            links,
            actions: ActionLines::new(),
            prev_actions: EventVector::EMPTY,
            enabled: true,
            cycle: 0,
            id: ComponentId::intern("pels"),
            config_port: ActivityCounter::default(),
        }
    }

    /// The static configuration.
    pub fn config(&self) -> PelsConfig {
        self.config
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Access to link `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn link(&self, i: usize) -> &Link {
        &self.links[i]
    }

    /// Mutable access to link `i` (programming/configuration).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn link_mut(&mut self, i: usize) -> &mut Link {
        &mut self.links[i]
    }

    /// Globally enables/disables event processing.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether globally enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether any link is busy.
    pub fn is_busy(&self) -> bool {
        self.links.iter().any(Link::is_busy)
    }

    /// The action lines as of the *previous* cycle (what peripherals see
    /// through their registered inputs).
    pub fn action_lines(&self) -> EventVector {
        self.prev_actions
    }

    /// Elapsed ticks.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances one clock cycle.
    ///
    /// * `external_events` — event pulses from the peripherals this
    ///   cycle;
    /// * `bus` — the per-link master ports;
    /// * returns the outgoing action-line image for this cycle.
    pub fn tick(
        &mut self,
        external_events: EventVector,
        time: SimTime,
        bus: &mut dyn PelsBus,
        trace: &mut Trace,
    ) -> EventVector {
        let cycle = self.cycle;
        self.cycle += 1;
        if !self.enabled {
            self.prev_actions = EventVector::EMPTY;
            return EventVector::EMPTY;
        }

        // Quiescent fast path: no events arriving and every link idle
        // with an empty FIFO. Execution units would not change state and
        // no trigger can fire, so the output image is just the latched
        // action levels, unchanged.
        if (external_events | (self.prev_actions & self.config.loopback)).is_empty()
            && self.links.iter().all(Link::is_quiescent)
        {
            let visible = self.actions.current();
            self.prev_actions = visible;
            self.actions.end_cycle();
            return visible;
        }

        // 1. Execution units run on previously buffered triggers.
        for (i, link) in self.links.iter_mut().enumerate() {
            let mut port = LinkPort { bus, link: i };
            link.step_exec(cycle, time, &mut port, &mut self.actions, trace);
        }

        // 2. Trigger units sample this cycle's events (external pulses +
        //    looped-back action lines from the previous cycle).
        let events =
            external_events | (self.prev_actions & self.config.loopback);
        for link in &mut self.links {
            link.sample_events(events, cycle, trace);
        }

        // 3. Latch the output image.
        let visible = self.actions.current();
        self.prev_actions = visible;
        self.actions.end_cycle();
        visible
    }

    /// Drains the config-port accesses (`RegRead`/`RegWrite` under
    /// `pels`) and the per-link activity counters.
    pub fn drain_activity(&mut self, into: &mut impl ActivitySink) {
        self.config_port.drain(self.id, into);
        for link in &mut self.links {
            link.drain_activity(into);
        }
    }

    /// How PELS may sleep while no peripheral pulses: every tick is then
    /// a pure no-op when nothing is executing or buffered, no pulse is
    /// raised and the output image is already latched. It wakes on its
    /// loopback lines, where its own latched levels come back as events
    /// (a disabled PELS ignores them, and its latched image is empty).
    pub fn sleep_plan(&self) -> Option<SleepPlan> {
        let steady = if self.enabled {
            self.actions.pulses_clear()
                && self.actions.current() == self.prev_actions
                && self.links.iter().all(Link::is_quiescent)
        } else {
            self.prev_actions.is_empty()
        };
        steady.then_some(SleepPlan::until_wire(self.config.loopback))
    }

    /// Advances the cycle counter by `k` without ticking — the
    /// whole-span equivalent of `k` ticks under [`Pels::sleep_plan`].
    pub fn catch_up(&mut self, k: u64) {
        debug_assert!(self.sleep_plan().is_some(), "catch_up of a busy PELS");
        self.cycle += k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{ActionMode, Command};
    use crate::program::Program;
    use crate::trigger::TriggerCond;
    use pels_sim::ActivitySet;

    fn pulse_program(line: u32) -> Program {
        Program::new(vec![
            Command::Action {
                mode: ActionMode::Pulse,
                group: (line / 32) as u8,
                mask: 1 << (line % 32),
            },
            Command::Halt,
        ])
        .unwrap()
    }

    fn with_links(links: usize) -> Pels {
        Pels::new(PelsConfig {
            links,
            ..PelsConfig::default()
        })
    }

    fn tick_n(
        pels: &mut Pels,
        events: &[EventVector],
    ) -> Vec<EventVector> {
        let mut trace = Trace::new();
        let mut bus = NoBus;
        events
            .iter()
            .enumerate()
            .map(|(i, &ev)| {
                pels.tick(ev, SimTime::from_ps(i as u64 * 1000), &mut bus, &mut trace)
            })
            .collect()
    }

    #[test]
    fn instant_action_two_cycle_latency() {
        let mut pels = Pels::new(PelsConfig::default());
        pels.link_mut(0)
            .set_mask(EventVector::mask_of(&[3]));
        pels.link_mut(0).load_program(&pulse_program(8)).unwrap();
        let outs = tick_n(
            &mut pels,
            &[
                EventVector::mask_of(&[3]), // event at cycle 0
                EventVector::EMPTY,
                EventVector::EMPTY,
                EventVector::EMPTY,
            ],
        );
        assert!(outs[0].is_empty());
        assert!(outs[1].is_empty());
        assert!(outs[2].is_set(8), "pulse exactly 2 cycles after the event");
        assert!(outs[3].is_empty(), "pulse lasts one cycle");
    }

    #[test]
    fn links_operate_in_parallel() {
        let mut pels = with_links(2);
        pels.link_mut(0).set_mask(EventVector::mask_of(&[0]));
        pels.link_mut(0).load_program(&pulse_program(10)).unwrap();
        pels.link_mut(1).set_mask(EventVector::mask_of(&[1]));
        pels.link_mut(1).load_program(&pulse_program(11)).unwrap();
        let outs = tick_n(
            &mut pels,
            &[
                EventVector::mask_of(&[0, 1]),
                EventVector::EMPTY,
                EventVector::EMPTY,
            ],
        );
        assert!(outs[2].is_set(10) && outs[2].is_set(11));
    }

    #[test]
    fn loopback_triggers_second_link() {
        // Link 0 pulses line 40; line 40 loops back and triggers link 1,
        // which pulses line 41 — inter-link triggering (Figure 2 ⑨).
        let mut pels = Pels::new(PelsConfig {
            links: 2,
            loopback: EventVector::mask_of(&[40]),
            ..PelsConfig::default()
        });
        pels.link_mut(0).set_mask(EventVector::mask_of(&[0]));
        pels.link_mut(0).load_program(&pulse_program(40)).unwrap();
        pels.link_mut(1).set_mask(EventVector::mask_of(&[40]));
        pels.link_mut(1).load_program(&pulse_program(41)).unwrap();
        let mut events = vec![EventVector::mask_of(&[0])];
        events.extend([EventVector::EMPTY; 7]);
        let outs = tick_n(&mut pels, &events);
        assert!(outs[2].is_set(40), "link0 fires at cycle 2");
        // Link 1 sees line 40 at cycle 3 (registered loopback), fires at
        // cycle 5: another 2-cycle instant action.
        assert!(outs[5].is_set(41), "link1 chained via loopback");
    }

    #[test]
    fn disabled_pels_produces_nothing() {
        let mut pels = Pels::new(PelsConfig::default());
        pels.link_mut(0).set_mask(EventVector::mask_of(&[0]));
        pels.link_mut(0).load_program(&pulse_program(5)).unwrap();
        pels.set_enabled(false);
        let outs = tick_n(
            &mut pels,
            &[EventVector::mask_of(&[0]), EventVector::EMPTY, EventVector::EMPTY],
        );
        assert!(outs.iter().all(|o| o.is_empty()));
    }

    #[test]
    fn trigger_condition_all_gates_firing() {
        let mut pels = Pels::new(PelsConfig::default());
        pels.link_mut(0)
            .set_mask(EventVector::mask_of(&[0, 1]))
            .set_condition(TriggerCond::All);
        pels.link_mut(0).load_program(&pulse_program(5)).unwrap();
        let outs = tick_n(
            &mut pels,
            &[
                EventVector::mask_of(&[0]), // only one line: no trigger
                EventVector::EMPTY,
                EventVector::EMPTY,
                EventVector::mask_of(&[0, 1]), // both: trigger
                EventVector::EMPTY,
                EventVector::EMPTY,
            ],
        );
        assert!(outs[..5].iter().all(|o| !o.is_set(5)));
        assert!(outs[5].is_set(5));
    }

    #[test]
    fn new_rejects_zero_links() {
        let result = std::panic::catch_unwind(|| with_links(0));
        assert!(result.is_err());
    }

    #[test]
    fn activity_drains_per_link() {
        let mut pels = with_links(2);
        pels.link_mut(0).set_mask(EventVector::mask_of(&[0]));
        pels.link_mut(0).load_program(&pulse_program(5)).unwrap();
        let mut events = vec![EventVector::mask_of(&[0])];
        events.extend([EventVector::EMPTY; 5]);
        tick_n(&mut pels, &events);
        let mut a = ActivitySet::new();
        pels.drain_activity(&mut a);
        assert!(a.count("pels.link0", pels_sim::ActivityKind::InstrRetired) >= 2);
        assert_eq!(a.count("pels.link1", pels_sim::ActivityKind::InstrRetired), 0);
    }

    #[test]
    fn config_port_accesses_drain_under_pels() {
        let mut pels = with_links(1);
        pels.config_write(crate::regs::CTRL, 1).unwrap();
        let _ = pels.config_read(crate::regs::N_LINKS);
        // A rejected access still reached the port.
        assert!(pels.config_write(crate::regs::N_LINKS, 0).is_err());
        let mut a = ActivitySet::new();
        pels.drain_activity(&mut a);
        assert_eq!(a.count("pels", pels_sim::ActivityKind::RegRead), 1);
        assert_eq!(a.count("pels", pels_sim::ActivityKind::RegWrite), 2);
        let mut again = ActivitySet::new();
        pels.drain_activity(&mut again);
        assert!(again.is_empty(), "a drain restarts the count");
    }
}
