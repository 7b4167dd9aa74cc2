//! One independent linking unit.
//!
//! "To provide parallelism when servicing multiple peripheral linking
//! events, PELS is internally organized into independent linking units,
//! referred to as links" (paper Section III-1). A [`Link`] bundles the
//! trigger unit, the private SCM and the execution unit, and carries the
//! per-link configuration the main CPU programs: event mask, trigger
//! condition, sequenced-action base address and the microcode itself.

use crate::exec::{ExecCtx, ExecutionUnit, LinkBus, ActionLines};
use crate::program::Program;
use crate::scm::{Scm, ScmCapacityError};
use crate::trigger::{TriggerCond, TriggerUnit};
use std::sync::OnceLock;
use pels_sim::{
    ActivityKind, ActivitySink, ComponentId, EventVector, PeriodVisitor, Periodic, SimTime, Trace,
};

/// Default trigger-FIFO depth (matches a small RTL FIFO).
pub const DEFAULT_FIFO_DEPTH: usize = 4;

/// A single link: trigger unit + SCM + execution unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    id: ComponentId,
    trigger: TriggerUnit,
    scm: Scm,
    exec: ExecutionUnit,
    /// Snapshot of exec stats at the last activity drain.
    reported: crate::exec::ExecStats,
}

/// The component id of link `index`, `pels.link<index>`, interned once
/// per process.
///
/// # Panics
///
/// Panics if `index` is 64 or more (PELS has at most 64 links).
pub fn link_id(index: usize) -> ComponentId {
    static LINKS: [OnceLock<ComponentId>; 64] = [const { OnceLock::new() }; 64];
    *LINKS[index].get_or_init(|| ComponentId::intern(&format!("pels.link{index}")))
}

impl Periodic for Link {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        self.trigger.visit_period(v);
        self.scm.visit_period(v);
        self.exec.visit_period(v);
        self.reported.visit_period(v);
    }
}

impl Link {
    /// Creates link `index` with an SCM of `scm_lines` commands and the
    /// default FIFO depth.
    pub fn new(index: usize, scm_lines: usize) -> Self {
        Self::with_fifo_depth(index, scm_lines, DEFAULT_FIFO_DEPTH)
    }

    /// Creates a link with an explicit trigger-FIFO depth (the FIFO
    /// ablation uses depth 0).
    pub fn with_fifo_depth(index: usize, scm_lines: usize, fifo_depth: usize) -> Self {
        Link {
            id: link_id(index),
            trigger: TriggerUnit::new(fifo_depth),
            scm: Scm::new(scm_lines),
            exec: ExecutionUnit::new(),
            reported: crate::exec::ExecStats::default(),
        }
    }

    /// The link's hierarchical name (`pels.linkN`).
    pub fn name(&self) -> &'static str {
        self.id.name()
    }

    /// The link's interned component id.
    pub fn component(&self) -> ComponentId {
        self.id
    }

    /// The trigger unit (mask / condition configuration).
    pub fn trigger(&self) -> &TriggerUnit {
        &self.trigger
    }

    /// The execution unit (status inspection).
    pub fn exec(&self) -> &ExecutionUnit {
        &self.exec
    }

    /// The instruction memory.
    pub fn scm(&self) -> &Scm {
        &self.scm
    }

    /// Mutable instruction memory (memory-mapped SCM window path).
    pub fn scm_mut(&mut self) -> &mut Scm {
        &mut self.scm
    }

    /// Loads a microcode program.
    ///
    /// # Errors
    ///
    /// Returns [`ScmCapacityError`] if the program exceeds the SCM.
    pub fn load_program(&mut self, program: &Program) -> Result<(), ScmCapacityError> {
        self.scm.load(program)
    }

    /// Configures the event mask (which input lines this link listens
    /// to).
    pub fn set_mask(&mut self, mask: EventVector) -> &mut Self {
        self.trigger.set_mask(mask);
        self
    }

    /// Configures the trigger condition.
    pub fn set_condition(&mut self, cond: TriggerCond) -> &mut Self {
        self.trigger.set_condition(cond);
        self
    }

    /// Configures the base address of sequenced-action offsets.
    pub fn set_base(&mut self, base: u32) -> &mut Self {
        self.exec.set_base(base);
        self
    }

    /// Configures the per-fetch stall (SCM-vs-shared-SRAM ablation; 0 =
    /// the paper's private-SCM design).
    pub fn set_fetch_stall(&mut self, cycles: u32) -> &mut Self {
        self.exec.set_fetch_stall(cycles);
        self
    }

    /// Enables or disables the link.
    pub fn set_enabled(&mut self, enabled: bool) -> &mut Self {
        self.trigger.set_enabled(enabled);
        self
    }

    /// Whether the execution unit is busy.
    pub fn is_busy(&self) -> bool {
        self.exec.is_busy()
    }

    /// Whether a tick with no incoming events would be a complete no-op
    /// for this link: nothing executing, nothing buffered, and the
    /// trigger condition cannot fire on an empty event image (a
    /// degenerate `AtLeast(0)` condition can).
    pub fn is_quiescent(&self) -> bool {
        !self.exec.is_busy()
            && self.trigger.pending() == 0
            && !self.trigger.matches(EventVector::EMPTY)
    }

    /// Samples the broadcast events (trigger stage) — call once per cycle
    /// *before* [`Link::step_exec`]. The causal flow carried by the masked
    /// event wires, if flows are on, rides the trigger token.
    pub fn sample_events(&mut self, events: EventVector, cycle: u64, trace: &Trace) -> bool {
        let flow = trace.flow_trace().map_or(0, |f| {
            f.flow_on_lines((events & self.trigger.mask()).bits())
        });
        self.trigger.sample_with_flow(events, cycle, flow)
    }

    /// Advances the execution unit by one cycle.
    pub fn step_exec(
        &mut self,
        cycle: u64,
        time: SimTime,
        bus: &mut dyn LinkBus,
        actions: &mut ActionLines,
        trace: &mut Trace,
    ) {
        let mut ctx = ExecCtx {
            cycle,
            time,
            bus,
            actions,
            trace,
            id: self.id,
        };
        self.exec.step(&mut self.scm, &mut self.trigger, &mut ctx);
    }

    /// Drains SCM accesses, busy cycles and command counts into `into`.
    ///
    /// Execution statistics accumulate for the link's lifetime; this
    /// reports the delta since the previous drain so repeated measurement
    /// windows compose.
    pub fn drain_activity(&mut self, into: &mut impl ActivitySink) {
        let (reads, writes) = self.scm.take_access_counts();
        into.record(self.id, ActivityKind::ScmRead, reads);
        into.record(self.id, ActivityKind::ScmWrite, writes);
        let stats = self.exec.stats();
        into.record(
            self.id,
            ActivityKind::ActiveCycle,
            stats.busy_cycles - self.reported.busy_cycles,
        );
        into.record(
            self.id,
            ActivityKind::InstrRetired,
            stats.commands - self.reported.commands,
        );
        self.reported = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{ActionMode, Command};

    #[test]
    fn construction_and_config() {
        let mut link = Link::new(3, 8);
        assert_eq!(link.name(), "pels.link3");
        link.set_mask(EventVector::mask_of(&[5]))
            .set_condition(TriggerCond::All)
            .set_base(0x1A10_0000)
            .set_enabled(true);
        assert_eq!(link.trigger().mask(), EventVector::mask_of(&[5]));
        assert_eq!(link.trigger().condition(), TriggerCond::All);
        assert_eq!(link.exec().base(), 0x1A10_0000);
        assert!(!link.is_busy());
    }

    #[test]
    fn program_load_respects_capacity() {
        let mut link = Link::new(0, 2);
        let long = Program::new(vec![
            Command::Nop,
            Command::Nop,
            Command::Halt,
        ])
        .unwrap();
        assert!(link.load_program(&long).is_err());
        let short = Program::new(vec![Command::Action {
            mode: ActionMode::Pulse,
            group: 0,
            mask: 1,
        }])
        .unwrap();
        assert!(link.load_program(&short).is_ok());
    }

    #[test]
    fn sample_pushes_trigger() {
        let mut link = Link::new(0, 4);
        link.set_mask(EventVector::mask_of(&[2]));
        let trace = Trace::new();
        assert!(link.sample_events(EventVector::mask_of(&[2]), 7, &trace));
        assert_eq!(link.trigger().pending(), 1);
        assert!(!link.sample_events(EventVector::mask_of(&[3]), 8, &trace));
    }
}
