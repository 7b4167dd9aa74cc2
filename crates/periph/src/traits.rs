//! The peripheral contract and per-cycle context.

use crate::l2::L2Memory;
use pels_interconnect::ApbSlave;
use pels_sim::{ActivitySet, ComponentId, EventVector, SimTime, Trace};

/// Everything a peripheral can see and touch during one clock cycle.
///
/// The SoC harness constructs one `PeriphCtx` per cycle and threads it
/// through every peripheral's [`Peripheral::tick`]:
///
/// * [`PeriphCtx::events_in`] carries the event wires sampled at the start
///   of the cycle — PELS action lines and peripheral pulses from the
///   previous cycle (event outputs are registered, as in the RTL);
/// * pulses raised via [`PeriphCtx::raise`] become visible to PELS in this
///   same cycle (PELS's trigger units sample after the peripherals run) and
///   to other peripherals in the next one;
/// * [`PeriphCtx::l2`] is the shared L2 scratchpad the µDMA channels land
///   sensor data in.
pub struct PeriphCtx<'a> {
    /// Bus-clock cycle index.
    pub cycle: u64,
    /// Absolute simulation time at this cycle's edge.
    pub time: SimTime,
    /// Sampled incoming event wires.
    pub events_in: EventVector,
    /// Pulses raised during this cycle (accumulated across peripherals).
    pub events_out: EventVector,
    /// The L2 memory µDMA channels transfer to/from.
    pub l2: &'a mut L2Memory,
    /// Switching-activity sink.
    pub activity: &'a mut ActivitySet,
    /// Event trace for latency measurements.
    pub trace: &'a mut Trace,
}

impl<'a> PeriphCtx<'a> {
    /// Raises an event pulse on global line `line` and records it both in
    /// the trace (as `source.label`) and as switching activity.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn raise(&mut self, line: u32, source: ComponentId, label: &'static str) {
        self.events_out.set(line);
        self.trace.record(self.time, source, label, u64::from(line));
        // Causal flow: propagate the peripheral's adopted context, or mint
        // a fresh flow if it has none (this raise *is* the originating
        // stimulus). One branch when flows are off.
        self.trace.flow_raise(self.time, source, line, label);
        self.activity
            .record(source, pels_sim::ActivityKind::EventPulse, 1);
    }

    /// Whether incoming event wire `line` is active this cycle. `None`
    /// lines (unwired) read as inactive.
    pub fn wired_high(&self, line: Option<u32>) -> bool {
        line.map(|l| self.events_in.is_set(l)).unwrap_or(false)
    }
}

/// A memory-mapped peripheral participating in the event system.
///
/// Implementors are APB slaves (the *sequenced action* interface) and are
/// ticked once per cycle (the *instant action* interface plus any internal
/// behaviour: counters, shift registers, µDMA engines, ...).
///
/// Each of the SoC's seven peripherals implements this contract, and
/// [`crate::Periph`] dispatches it statically over the closed set. All
/// state a peripheral owns (registers, FIFOs, µDMA engines, seeded RNGs)
/// is plain data, so every peripheral — and the SoC holding them — is
/// `Clone` and `Send`.
pub trait Peripheral: ApbSlave {
    /// Stable instance name used in traces and activity reports.
    fn name(&self) -> &str {
        self.component().name()
    }

    /// Interned id of [`Peripheral::name`] — the key hot paths record
    /// activity and trace entries under.
    fn component(&self) -> ComponentId;

    /// Advances the peripheral by one clock cycle.
    fn tick(&mut self, ctx: &mut PeriphCtx<'_>);

    /// How the peripheral may sleep after its most recent tick or
    /// register access: `None` while every next tick must run, otherwise
    /// a [`SleepPlan`] (see there for the contract). The harness asks
    /// after every tick of an awake peripheral and after every bus access
    /// to a sleeping one.
    fn sleep_plan(&self) -> Option<SleepPlan>;

    /// Reconstructs the effect of `elapsed` skipped cycles, called
    /// immediately before the tick that ends a skip, before a bus access
    /// to the skipped peripheral and at observation points. Peripherals
    /// whose skipped ticks are pure no-ops keep the default; peripherals
    /// that count while asleep (timer, watchdog, a converting ADC, a
    /// shifting SPI) advance their counters and activity in closed form
    /// here.
    fn catch_up(&mut self, ctx: &mut PeriphCtx<'_>, elapsed: u64) {
        let _ = (ctx, elapsed);
    }

    /// Harvests internally counted activity (register-file accesses
    /// observed through the APB interface since the last drain).
    fn drain_activity(&mut self, into: &mut ActivitySet);
}

/// How a peripheral may sleep, from [`Peripheral::sleep_plan`].
///
/// The contract: *if no wire in `wake_mask` pulses*, ticking the
/// peripheral during the next `idle_for - 1` cycles would leave its
/// architectural state, its activity counters, its trace output and its
/// event pulses exactly as [`Peripheral::catch_up`] over those cycles
/// leaves them, and the `idle_for`-th tick (its next self-driven
/// observable action, e.g. a timer compare fire) runs as a real tick. A
/// plan with `idle_for` = [`SleepPlan::UNTIL_WIRE`] also promises that
/// `catch_up` is a no-op for any span. A plan with `idle_for < 2` leaves
/// no cycle to skip: the harness ticks the peripheral next cycle, as for
/// `None`. A bus access to a sleeping peripheral is served in place: the
/// harness catches it up through the access cycle, lets the bus read or
/// write it, and asks for a fresh plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SleepPlan {
    /// Cycles from the deciding cycle to the next tick that must run, or
    /// [`SleepPlan::UNTIL_WIRE`].
    pub idle_for: u64,
    /// The wires that wake it (its wired instant-action inputs).
    pub wake_mask: EventVector,
}

impl SleepPlan {
    /// `idle_for` of a peripheral with no self-driven action left: only
    /// a wire in its wake mask (or a bus access) can make it observable.
    pub const UNTIL_WIRE: u64 = u64::MAX;
}

/// Builds the wake mask for a set of optional wired input lines.
pub(crate) fn wake_mask_of(lines: &[Option<u32>]) -> EventVector {
    let mut v = EventVector::EMPTY;
    for l in lines.iter().flatten() {
        v.set(*l);
    }
    v
}

/// Small helper all peripherals use to count their APB register accesses;
/// drained into the global [`ActivitySet`] once per measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegAccessCounter {
    /// Register reads observed.
    pub reads: u64,
    /// Register writes observed.
    pub writes: u64,
}

impl RegAccessCounter {
    /// Counts a register read.
    pub fn read(&mut self) {
        self.reads += 1;
    }

    /// Counts a register write.
    pub fn write(&mut self) {
        self.writes += 1;
    }

    /// Drains the counts into `into` under `component`.
    pub fn drain(&mut self, component: ComponentId, into: &mut ActivitySet) {
        into.record(component, pels_sim::ActivityKind::RegRead, self.reads);
        into.record(component, pels_sim::ActivityKind::RegWrite, self.writes);
        self.reads = 0;
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_fixture<'a>(
        l2: &'a mut L2Memory,
        activity: &'a mut ActivitySet,
        trace: &'a mut Trace,
    ) -> PeriphCtx<'a> {
        PeriphCtx {
            cycle: 0,
            time: SimTime::ZERO,
            events_in: EventVector::mask_of(&[5]),
            events_out: EventVector::EMPTY,
            l2,
            activity,
            trace,
        }
    }

    #[test]
    fn raise_sets_line_and_traces() {
        let mut l2 = L2Memory::new(64);
        let mut act = ActivitySet::new();
        let mut trace = Trace::new();
        let mut ctx = ctx_fixture(&mut l2, &mut act, &mut trace);
        ctx.raise(7, ComponentId::intern("spi"), "eot");
        assert!(ctx.events_out.is_set(7));
        assert!(trace.first("spi", "eot").is_some());
        assert_eq!(act.count("spi", pels_sim::ActivityKind::EventPulse), 1);
    }

    #[test]
    fn wired_high_handles_unwired_lines() {
        let mut l2 = L2Memory::new(64);
        let mut act = ActivitySet::new();
        let mut trace = Trace::new();
        let ctx = ctx_fixture(&mut l2, &mut act, &mut trace);
        assert!(ctx.wired_high(Some(5)));
        assert!(!ctx.wired_high(Some(6)));
        assert!(!ctx.wired_high(None));
    }

    #[test]
    fn reg_counter_drains_and_resets() {
        let mut c = RegAccessCounter::default();
        c.read();
        c.read();
        c.write();
        let mut act = ActivitySet::new();
        c.drain(ComponentId::intern("gpio"), &mut act);
        assert_eq!(act.count("gpio", pels_sim::ActivityKind::RegRead), 2);
        assert_eq!(act.count("gpio", pels_sim::ActivityKind::RegWrite), 1);
        assert_eq!(c.reads, 0);
        assert_eq!(c.writes, 0);
    }

    #[test]
    fn wake_mask_of_skips_unwired() {
        let m = wake_mask_of(&[Some(3), None, Some(9)]);
        assert_eq!(m, EventVector::mask_of(&[3, 9]));
        assert_eq!(wake_mask_of(&[None, None]), EventVector::EMPTY);
    }
}
