//! The per-link execution unit (paper Figure 2, blocks ④–⑨).
//!
//! ## Cycle accounting
//!
//! The FSM reproduces the latencies the paper reports (Figure 3 and
//! Section IV-B), with the event cycle counted as cycle 0:
//!
//! | stage                             | cycles | paper |
//! |-----------------------------------|--------|-------|
//! | trigger → first command executing | 2      | "one clock cycle after a successful triggering condition, the execution unit receives the first command" |
//! | `action` (instant)                | pulse visible at cycle 2 | 2 |
//! | `capture` (masked read)           | 3      | 3     |
//! | `jump-if`                         | 1      | 1     |
//! | read-modify-write (`set`/…)       | effect observable at cycle 7 | 7 |
//!
//! The sequenced timings derive from the APB fabric: issue at *N* → setup
//! *N*, access/commit *N*+1, response registered at the master for cycle
//! *N*+2; the modified value is written back "one cycle after the read
//! succeeds" (paper Section III-1c).

use crate::command::{ActionMode, Command};
use crate::scm::Scm;
use crate::trigger::TriggerUnit;
use pels_sim::{ComponentId, EventVector, PeriodVisitor, Periodic, SimTime, Trace};

/// The bus port a link masters sequenced actions on.
///
/// Implemented by the SoC over an `ApbFabric` master port; a transaction
/// issued in one cycle completes via [`LinkBus::take_response`] some
/// cycles later (arbitration + wait states included).
pub trait LinkBus {
    /// Whether a new transaction can be issued this cycle.
    fn can_issue(&self) -> bool;

    /// Issues a read of `addr`. Returns `false` when the port is busy.
    fn issue_read(&mut self, addr: u32) -> bool;

    /// Issues a write of `value` to `addr`. Returns `false` when busy.
    fn issue_write(&mut self, addr: u32, value: u32) -> bool;

    /// Takes the completed response: `Ok(rdata)` or `Err(())` on a bus
    /// error.
    fn take_response(&mut self) -> Option<Result<u32, ()>>;
}

/// The 64 outgoing single-wire event lines, shared by all links of a PELS
/// instance.
///
/// `Pulse` actions are visible for the cycle they execute in; `Set` /
/// `Clear` / `Toggle` actions latch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActionLines {
    latched: EventVector,
    pulses: EventVector,
}

impl ActionLines {
    /// Creates all-low lines.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies an `action` command to the lines of `group`.
    pub fn apply(&mut self, mode: ActionMode, group: u8, mask: u32) {
        let bits = u64::from(mask) << (32 * u64::from(group & 1));
        let vec = EventVector::from_bits(bits);
        match mode {
            ActionMode::Pulse => self.pulses |= vec,
            ActionMode::Set => self.latched |= vec,
            ActionMode::Clear => self.latched = self.latched & !vec,
            ActionMode::Toggle => {
                self.latched = EventVector::from_bits(self.latched.bits() ^ vec.bits())
            }
        }
    }

    /// The lines as visible this cycle (latched levels + pulses).
    pub fn current(&self) -> EventVector {
        self.latched | self.pulses
    }

    /// Latched levels only.
    pub fn latched(&self) -> EventVector {
        self.latched
    }

    /// Whether no one-cycle pulse is currently raised (the image is pure
    /// latched levels and therefore stable across idle cycles).
    pub fn pulses_clear(&self) -> bool {
        self.pulses.is_empty()
    }

    /// Clears the one-cycle pulses (called by the PELS top at the end of
    /// each cycle).
    pub fn end_cycle(&mut self) {
        self.pulses = EventVector::EMPTY;
    }
}

/// Per-cycle context handed to [`ExecutionUnit::step`].
pub struct ExecCtx<'a> {
    /// Cycle index.
    pub cycle: u64,
    /// Simulation time at this cycle.
    pub time: SimTime,
    /// The link's bus master port.
    pub bus: &'a mut dyn LinkBus,
    /// The shared outgoing action lines.
    pub actions: &'a mut ActionLines,
    /// Trace sink.
    pub trace: &'a mut Trace,
    /// Trace source id (e.g. the interned `pels.link0`).
    pub id: ComponentId,
}

impl ExecCtx<'_> {
    /// Records a flow hop under the link's adopted context.
    fn flow_hop(&mut self, stage: &'static str) {
        if let Some(f) = self.trace.flow_trace_mut() {
            f.hop(self.time, self.id, stage);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    /// SCM fetch in flight (initial cycle after trigger, and redirect
    /// bubbles).
    Fetch,
    /// Extra fetch stall for the SCM-vs-shared-SRAM ablation: commands
    /// fetched over the system bus pay this before executing.
    FetchStall { remaining: u32 },
    /// Executing the command at `pc` (fetch is pipelined).
    Execute,
    /// A sequenced read is in flight.
    ReadWait { cmd: Command },
    /// The modify cycle of an RMW: write issues here.
    WriteTurn { cmd: Command, rdata: u32 },
    /// A sequenced write is in flight.
    WriteWait,
    /// `wait` command counting down.
    Waiting { remaining: u32 },
}

/// Execution statistics exposed for measurements and ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Commands executed.
    pub commands: u64,
    /// Cycles the unit was not idle.
    pub busy_cycles: u64,
    /// Trigger tokens serviced.
    pub triggers_serviced: u64,
    /// Sequenced transactions that returned a bus error.
    pub bus_errors: u64,
}

/// The command-execution FSM of one link.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionUnit {
    state: State,
    pc: usize,
    dpr: u32,
    base: u32,
    loop_counter: Option<u32>,
    fetch_stall: u32,
    stats: ExecStats,
}

/// The statistics are counters; the FSM, program counter and registers
/// repeat.
impl Periodic for ExecStats {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        v.counter(&mut self.commands);
        v.counter(&mut self.busy_cycles);
        v.counter(&mut self.triggers_serviced);
        v.counter(&mut self.bus_errors);
    }
}

impl Periodic for ExecutionUnit {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        self.stats.visit_period(v);
    }
}

impl Default for ExecutionUnit {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecutionUnit {
    /// Creates an idle unit with base address 0.
    pub fn new() -> Self {
        ExecutionUnit {
            state: State::Idle,
            pc: 0,
            dpr: 0,
            base: 0,
            loop_counter: None,
            fetch_stall: 0,
            stats: ExecStats::default(),
        }
    }

    /// Adds `cycles` of stall before every command execution — models
    /// fetching microcode from shared memory over the bus instead of the
    /// private SCM (the ablation of the paper's Section III-1b design
    /// choice). Zero (the default) is the paper's SCM design.
    pub fn set_fetch_stall(&mut self, cycles: u32) {
        self.fetch_stall = cycles;
    }

    /// The configured per-fetch stall.
    pub fn fetch_stall(&self) -> u32 {
        self.fetch_stall
    }

    /// Sets the base address sequenced-action offsets are relative to.
    pub fn set_base(&mut self, base: u32) {
        self.base = base;
    }

    /// The configured base address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Whether the unit is processing a trigger.
    pub fn is_busy(&self) -> bool {
        self.state != State::Idle
    }

    /// Current program counter (SCM line).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// The datapath register (last `capture` result).
    pub fn dpr(&self) -> u32 {
        self.dpr
    }

    /// Execution statistics.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Resets the unit to idle (does not clear statistics).
    pub fn reset(&mut self) {
        self.state = State::Idle;
        self.pc = 0;
        self.loop_counter = None;
    }

    fn addr_of(&self, offset: u16) -> u32 {
        self.base.wrapping_add(u32::from(offset) * 4)
    }

    fn finish_program(&mut self) {
        self.state = State::Idle;
        self.pc = 0;
        self.loop_counter = None;
    }

    /// Advances one clock cycle.
    pub fn step(&mut self, scm: &mut Scm, trigger: &mut TriggerUnit, ctx: &mut ExecCtx<'_>) {
        if self.state != State::Idle {
            self.stats.busy_cycles += 1;
        }
        match self.state {
            State::Idle => {
                if let Some(token) = trigger.pop() {
                    self.stats.triggers_serviced += 1;
                    self.pc = 0;
                    // The SCM read is issued now; the command executes
                    // next cycle — "one clock cycle after a successful
                    // triggering condition" (paper Section III-1c).
                    self.state = if self.fetch_stall > 0 {
                        State::FetchStall {
                            remaining: self.fetch_stall,
                        }
                    } else {
                        State::Execute
                    };
                    self.stats.busy_cycles += 1;
                    ctx.trace.record_cycle(ctx.time, ctx.id, "trigger", ctx.cycle);
                    // Adopt (or clear) the flow the token carried; the
                    // link's context threads every later hop of this
                    // program run.
                    if let Some(f) = ctx.trace.flow_trace_mut() {
                        f.begin(ctx.time, ctx.id, token.flow, "trigger");
                    }
                }
            }
            State::Fetch => {
                // Redirect bubble: the pipelined prefetch of the
                // sequential line is discarded and the target line read.
                self.state = State::Execute;
            }
            State::FetchStall { remaining } => {
                self.state = if remaining <= 1 {
                    State::Execute
                } else {
                    State::FetchStall {
                        remaining: remaining - 1,
                    }
                };
            }
            State::Execute => {
                let cmd = scm.fetch(self.pc);
                self.execute(cmd, ctx);
            }
            State::ReadWait { cmd } => {
                if let Some(result) = ctx.bus.take_response() {
                    match result {
                        Ok(rdata) => match cmd {
                            Command::Capture { mask, .. } => {
                                self.dpr = rdata & mask;
                                ctx.trace.record(
                                    ctx.time,
                                    ctx.id,
                                    "capture",
                                    u64::from(self.dpr),
                                );
                                ctx.flow_hop("capture");
                                self.advance();
                            }
                            _ => {
                                // RMW: modify next cycle, then write back.
                                self.state = State::WriteTurn { cmd, rdata };
                            }
                        },
                        Err(()) => self.bus_error(ctx),
                    }
                }
            }
            State::WriteTurn { cmd, rdata } => {
                let (offset, new_value) = match cmd {
                    Command::Set { offset, mask } => (offset, rdata | mask),
                    Command::Clear { offset, mask } => (offset, rdata & !mask),
                    Command::Toggle { offset, mask } => (offset, rdata ^ mask),
                    _ => unreachable!("WriteTurn only entered for RMW commands"),
                };
                if ctx.bus.issue_write(self.addr_of(offset), new_value) {
                    // Hop at issue time (not response) so the downstream
                    // pad-out hop can never share a timestamp with it.
                    ctx.flow_hop("write");
                    self.state = State::WriteWait;
                }
                // else: port busy (cannot happen with a private port, but
                // retry next cycle keeps the model robust).
            }
            State::WriteWait => {
                if let Some(result) = ctx.bus.take_response() {
                    match result {
                        Ok(_) => self.advance(),
                        Err(()) => self.bus_error(ctx),
                    }
                }
            }
            State::Waiting { remaining } => {
                if remaining <= 1 {
                    self.advance();
                } else {
                    self.state = State::Waiting {
                        remaining: remaining - 1,
                    };
                }
            }
        }
    }

    /// Moves to the next sequential command (pipelined fetch: executes
    /// next cycle).
    fn advance(&mut self) {
        self.pc += 1;
        self.state = if self.fetch_stall > 0 {
            State::FetchStall {
                remaining: self.fetch_stall,
            }
        } else {
            State::Execute
        };
    }

    /// Redirects to `target` (costs one fetch bubble).
    fn redirect(&mut self, target: usize) {
        self.pc = target;
        self.state = if self.fetch_stall > 0 {
            State::FetchStall {
                remaining: self.fetch_stall + 1,
            }
        } else {
            State::Fetch
        };
    }

    fn bus_error(&mut self, ctx: &mut ExecCtx<'_>) {
        self.stats.bus_errors += 1;
        ctx.trace.record_cycle(ctx.time, ctx.id, "bus_error", ctx.cycle);
        ctx.flow_hop("bus_error");
        self.finish_program();
    }

    fn execute(&mut self, cmd: Command, ctx: &mut ExecCtx<'_>) {
        self.stats.commands += 1;
        match cmd {
            Command::Nop => self.advance(),
            Command::Halt => {
                ctx.trace.record_cycle(ctx.time, ctx.id, "halt", ctx.cycle);
                ctx.flow_hop("halt");
                self.finish_program();
            }
            Command::Action { mode, group, mask } => {
                ctx.actions.apply(mode, group, mask);
                ctx.trace
                    .record(ctx.time, ctx.id, "action", u64::from(mask));
                // The driven action lines carry the flow onward (loopback
                // retriggers, wired peripheral actions).
                if let Some(f) = ctx.trace.flow_trace_mut() {
                    f.hop(ctx.time, ctx.id, "action");
                    f.stage_lines(ctx.id, u64::from(mask) << (32 * u64::from(group & 1)));
                }
                self.advance();
            }
            Command::Wait { cycles } => {
                if cycles <= 1 {
                    self.advance();
                } else {
                    self.state = State::Waiting {
                        remaining: cycles - 1,
                    };
                }
            }
            Command::JumpIf {
                cond,
                target,
                operand,
            } => {
                if cond.eval(self.dpr, operand) {
                    self.redirect(usize::from(target));
                } else {
                    self.advance();
                }
            }
            Command::Loop { target, count } => {
                let remaining = self.loop_counter.unwrap_or(count);
                if remaining > 0 {
                    self.loop_counter = Some(remaining - 1);
                    self.redirect(usize::from(target));
                } else {
                    self.loop_counter = None;
                    self.advance();
                }
            }
            Command::Write { offset, value } => {
                if ctx.bus.issue_write(self.addr_of(offset), value) {
                    ctx.flow_hop("write");
                    self.state = State::WriteWait;
                }
            }
            Command::Capture { offset, .. } => {
                if ctx.bus.issue_read(self.addr_of(offset)) {
                    self.state = State::ReadWait { cmd };
                }
            }
            Command::Set { offset, .. }
            | Command::Clear { offset, .. }
            | Command::Toggle { offset, .. } => {
                if ctx.bus.issue_read(self.addr_of(offset)) {
                    self.state = State::ReadWait { cmd };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Cond;
    use crate::program::Program;
    use pels_sim::Fifo;

    /// A test bus with fixed response latency (2 cycles, like the real
    /// fabric) over a small register file.
    struct TestBus {
        regs: [u32; 16],
        in_flight: Option<(u32, bool, u32, u8)>, // addr, write, wdata, remaining
        response: Option<Result<u32, ()>>,
        pub reads: u32,
        pub writes: u32,
    }

    impl TestBus {
        fn new() -> Self {
            TestBus {
                regs: [0; 16],
                in_flight: None,
                response: None,
                reads: 0,
                writes: 0,
            }
        }

        /// Advances the bus one cycle (call once per exec step).
        fn tick(&mut self) {
            if let Some((addr, write, wdata, remaining)) = self.in_flight.take() {
                if remaining > 1 {
                    self.in_flight = Some((addr, write, wdata, remaining - 1));
                } else {
                    let idx = (addr / 4) as usize;
                    if idx >= self.regs.len() {
                        self.response = Some(Err(()));
                    } else if write {
                        self.regs[idx] = wdata;
                        self.writes += 1;
                        self.response = Some(Ok(0));
                    } else {
                        self.reads += 1;
                        self.response = Some(Ok(self.regs[idx]));
                    }
                }
            }
        }
    }

    impl LinkBus for TestBus {
        fn can_issue(&self) -> bool {
            self.in_flight.is_none() && self.response.is_none()
        }
        fn issue_read(&mut self, addr: u32) -> bool {
            if !self.can_issue() {
                return false;
            }
            self.in_flight = Some((addr, false, 0, 2));
            true
        }
        fn issue_write(&mut self, addr: u32, value: u32) -> bool {
            if !self.can_issue() {
                return false;
            }
            self.in_flight = Some((addr, true, value, 2));
            true
        }
        fn take_response(&mut self) -> Option<Result<u32, ()>> {
            self.response.take()
        }
    }

    struct Rig {
        exec: ExecutionUnit,
        scm: Scm,
        trigger: TriggerUnit,
        bus: TestBus,
        actions: ActionLines,
        trace: Trace,
        cycle: u64,
    }

    impl Rig {
        fn new(program: &Program) -> Self {
            let mut scm = Scm::new(8);
            scm.load(program).unwrap();
            let mut trigger = TriggerUnit::new(4);
            trigger.set_mask(EventVector::mask_of(&[0]));
            Rig {
                exec: ExecutionUnit::new(),
                scm,
                trigger,
                bus: TestBus::new(),
                actions: ActionLines::new(),
                trace: Trace::with_entries(),
                cycle: 0,
            }
        }

        fn fire(&mut self) {
            self.trigger.sample(EventVector::mask_of(&[0]), self.cycle);
        }

        /// One cycle; returns the action lines visible this cycle.
        fn step(&mut self) -> EventVector {
            let mut ctx = ExecCtx {
                cycle: self.cycle,
                time: SimTime::from_ps(self.cycle * 1000),
                bus: &mut self.bus,
                actions: &mut self.actions,
                trace: &mut self.trace,
                id: ComponentId::intern("link0"),
            };
            self.exec.step(&mut self.scm, &mut self.trigger, &mut ctx);
            self.bus.tick();
            let visible = self.actions.current();
            self.actions.end_cycle();
            self.cycle += 1;
            visible
        }

        /// Steps until idle or `max` cycles.
        fn run(&mut self, max: u64) -> EventVector {
            let mut seen = EventVector::EMPTY;
            for _ in 0..max {
                seen |= self.step();
                if !self.exec.is_busy() && self.trigger.pending() == 0 {
                    break;
                }
            }
            seen
        }
    }

    fn prog(cmds: Vec<Command>) -> Program {
        Program::new(cmds).unwrap()
    }

    #[test]
    fn instant_action_pulse_at_cycle_two() {
        // Event at cycle 0 (sample before first step): pulse must be
        // visible during cycle 2 — the paper's 2-cycle instant action.
        let mut r = Rig::new(&prog(vec![
            Command::Action {
                mode: ActionMode::Pulse,
                group: 0,
                mask: 1 << 8,
            },
            Command::Halt,
        ]));
        r.fire(); // event sampled before cycle 0
        // Rig step 0 is the paper's cycle C+1 (FIFO pop), so the pulse
        // must be visible during step 1 (= C+2): the 2-cycle instant
        // action.
        let v0 = r.step();
        let v1 = r.step();
        assert!(v0.is_empty());
        assert!(v1.is_set(8), "pulse visible two cycles after the event");
    }

    #[test]
    fn capture_takes_three_cycles_then_jump_one() {
        let mut r = Rig::new(&prog(vec![
            Command::Capture { offset: 4, mask: 0xFFFF },
            Command::JumpIf {
                cond: Cond::GeU,
                target: 3,
                operand: 100,
            },
            Command::Halt, // below threshold
            Command::Action {
                mode: ActionMode::Pulse,
                group: 0,
                mask: 1,
            },
        ]));
        r.bus.regs[4] = 500; // above threshold
        r.fire();
        let seen = r.run(32);
        assert!(seen.is_set(0), "threshold path taken");
        assert_eq!(r.exec.dpr(), 500);
        // Trace carries capture + action.
        assert!(r.trace.first("link0", "capture").is_some());
    }

    #[test]
    fn below_threshold_halts_without_action() {
        let mut r = Rig::new(&prog(vec![
            Command::Capture { offset: 4, mask: 0xFFFF },
            Command::JumpIf {
                cond: Cond::GeU,
                target: 3,
                operand: 100,
            },
            Command::Halt,
            Command::Action {
                mode: ActionMode::Pulse,
                group: 0,
                mask: 1,
            },
        ]));
        r.bus.regs[4] = 50;
        r.fire();
        let seen = r.run(32);
        assert!(seen.is_empty());
        assert!(!r.exec.is_busy());
    }

    #[test]
    fn rmw_set_reads_modifies_writes() {
        let mut r = Rig::new(&prog(vec![
            Command::Set { offset: 2, mask: 0xF0 },
            Command::Halt,
        ]));
        r.bus.regs[2] = 0x0F;
        r.fire();
        r.run(32);
        assert_eq!(r.bus.regs[2], 0xFF);
        assert_eq!(r.bus.reads, 1);
        assert_eq!(r.bus.writes, 1);
    }

    #[test]
    fn rmw_clear_and_toggle() {
        let mut r = Rig::new(&prog(vec![
            Command::Clear { offset: 1, mask: 0x0F },
            Command::Toggle { offset: 1, mask: 0xFF },
            Command::Halt,
        ]));
        r.bus.regs[1] = 0xFF;
        r.fire();
        r.run(64);
        // 0xFF -> clear 0x0F -> 0xF0 -> toggle 0xFF -> 0x0F
        assert_eq!(r.bus.regs[1], 0x0F);
    }

    #[test]
    fn write_command_stores_value() {
        let mut r = Rig::new(&prog(vec![
            Command::Write { offset: 3, value: 0xABCD },
            Command::Halt,
        ]));
        r.fire();
        r.run(32);
        assert_eq!(r.bus.regs[3], 0xABCD);
        assert_eq!(r.bus.reads, 0, "plain write needs no read");
    }

    #[test]
    fn wait_command_delays_execution() {
        let mut r1 = Rig::new(&prog(vec![
            Command::Action {
                mode: ActionMode::Pulse,
                group: 0,
                mask: 1,
            },
            Command::Halt,
        ]));
        let mut r2 = Rig::new(&prog(vec![
            Command::Wait { cycles: 5 },
            Command::Action {
                mode: ActionMode::Pulse,
                group: 0,
                mask: 1,
            },
            Command::Halt,
        ]));
        r1.fire();
        r2.fire();
        let mut t1 = None;
        let mut t2 = None;
        for i in 0..32 {
            if r1.step().is_set(0) && t1.is_none() {
                t1 = Some(i);
            }
            if r2.step().is_set(0) && t2.is_none() {
                t2 = Some(i);
            }
        }
        assert_eq!(t2.unwrap() - t1.unwrap(), 5, "wait 5 adds exactly 5 cycles");
    }

    #[test]
    fn loop_repeats_body_count_times() {
        // Body pulses line 0; loop jumps back twice -> 3 executions.
        let mut r = Rig::new(&prog(vec![
            Command::Action {
                mode: ActionMode::Pulse,
                group: 0,
                mask: 1,
            },
            Command::Loop { target: 0, count: 2 },
            Command::Halt,
        ]));
        r.fire();
        let mut pulses = 0;
        for _ in 0..64 {
            if r.step().is_set(0) {
                pulses += 1;
            }
            if !r.exec.is_busy() {
                break;
            }
        }
        assert_eq!(pulses, 3);
    }

    #[test]
    fn action_latch_modes() {
        let mut r = Rig::new(&prog(vec![
            Command::Action {
                mode: ActionMode::Set,
                group: 0,
                mask: 0b11,
            },
            Command::Action {
                mode: ActionMode::Clear,
                group: 0,
                mask: 0b01,
            },
            Command::Action {
                mode: ActionMode::Toggle,
                group: 1,
                mask: 0b1,
            },
            Command::Halt,
        ]));
        r.fire();
        r.run(32);
        assert_eq!(
            r.actions.latched(),
            EventVector::mask_of(&[1, 32]),
            "set 0-1, clear 0, toggle 32"
        );
    }

    #[test]
    fn bus_error_aborts_program() {
        let mut r = Rig::new(&prog(vec![
            Command::Capture { offset: 0xFF, mask: 1 }, // out of range in TestBus
            Command::Action {
                mode: ActionMode::Pulse,
                group: 0,
                mask: 1,
            },
            Command::Halt,
        ]));
        r.fire();
        let seen = r.run(32);
        assert!(seen.is_empty(), "program aborted before the action");
        assert_eq!(r.exec.stats().bus_errors, 1);
        assert!(r.trace.first("link0", "bus_error").is_some());
    }

    #[test]
    fn queued_trigger_services_after_current_program() {
        let mut r = Rig::new(&prog(vec![
            Command::Wait { cycles: 4 },
            Command::Action {
                mode: ActionMode::Pulse,
                group: 0,
                mask: 1,
            },
            Command::Halt,
        ]));
        r.fire();
        r.step();
        r.fire(); // second event while busy -> FIFO
        let mut pulses = 0;
        for _ in 0..64 {
            if r.step().is_set(0) {
                pulses += 1;
            }
            if !r.exec.is_busy() && r.trigger.pending() == 0 {
                break;
            }
        }
        assert_eq!(pulses, 2, "both events serviced");
        assert_eq!(r.exec.stats().triggers_serviced, 2);
    }

    #[test]
    fn rmw_is_observable_with_seven_cycle_latency() {
        // End-to-end accounting in the rig: event sampled before cycle 0;
        // the rig's step 0 corresponds to the paper's C+1 (FIFO pop).
        // Write commits during ReadWait→WriteTurn→WriteWait; regs updated
        // at bus.tick of the write's access cycle. The paper's "7 cycles"
        // = first cycle the written value is observable; here we assert
        // the commit cycle index.
        let mut r = Rig::new(&prog(vec![
            Command::Set { offset: 2, mask: 1 },
            Command::Halt,
        ]));
        r.fire();
        let mut commit_cycle = None;
        for i in 0..20 {
            r.step();
            if commit_cycle.is_none() && r.bus.regs[2] == 1 {
                commit_cycle = Some(i);
            }
        }
        // Steps (paper cycle in parens): 0 pop (C+1), 1 issue read (C+2),
        // 2 read commits (C+3), 3 response consumed (C+4), 4 modify +
        // issue write (C+5), 5 write commits (C+6) -> observable C+7, the
        // paper's 7-cycle sequenced action.
        assert_eq!(commit_cycle, Some(5));
    }

    #[test]
    fn stats_track_busy_and_commands() {
        let mut r = Rig::new(&prog(vec![Command::Nop, Command::Halt]));
        r.fire();
        r.run(16);
        let s = r.exec.stats();
        assert_eq!(s.commands, 2);
        assert!(s.busy_cycles >= 3);
        assert_eq!(s.triggers_serviced, 1);
    }

    #[test]
    fn trigger_fifo_integration_with_zero_depth_drops() {
        let p = prog(vec![Command::Halt]);
        let mut scm = Scm::new(4);
        scm.load(&p).unwrap();
        let mut trigger = TriggerUnit::new(0);
        trigger.set_mask(EventVector::mask_of(&[0]));
        trigger.sample(EventVector::mask_of(&[0]), 0);
        assert_eq!(trigger.drops(), 1);
        let _unused: Fifo<u8> = Fifo::new(1);
    }
}
