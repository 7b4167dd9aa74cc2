//! The peripheral contract and per-cycle context.

use crate::l2::L2Memory;
use pels_interconnect::ApbSlave;
use pels_sim::{ActivityCounter, ActivitySet, ComponentId, EventVector, SimTime, Trace};

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
///
/// It carries no activity sink: a peripheral counts its own switching
/// activity in its [`ActivityCounter`] and hands it over only through
/// [`Peripheral::drain_activity`].
pub struct PeriphCtx<'a> {
    /// Absolute simulation time at this cycle's edge.
    pub time: SimTime,
    /// Sampled incoming event wires.
    pub events_in: EventVector,
    /// Pulses raised during this cycle (accumulated across peripherals).
    pub events_out: EventVector,
    /// The L2 memory µDMA channels transfer to/from.
    pub l2: &'a mut L2Memory,
    /// Event trace for latency measurements.
    pub trace: &'a mut Trace,
}

impl<'a> PeriphCtx<'a> {
    /// Raises an event pulse on global line `line`, records it in the
    /// trace (as `source.label`) and counts it in `counter`, the raising
    /// peripheral's own activity counter.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn raise(
        &mut self,
        line: u32,
        source: ComponentId,
        counter: &mut ActivityCounter,
        label: &'static str,
    ) {
        self.events_out.set(line);
        self.trace.record(self.time, source, label, u64::from(line));
        // Causal flow: propagate the peripheral's adopted context, or mint
        // a fresh flow if it has none (this raise *is* the originating
        // stimulus). One branch when flows are off.
        if let Some(f) = self.trace.flow_trace_mut() {
            f.raise(self.time, source, line, label);
        }
        counter.pulses += 1;
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
    /// shifting SPI) advance their counters and their `ActiveCycle`
    /// count in closed form here. A skipped span raises no pulse and
    /// records no trace, so it needs no [`PeriphCtx`].
    fn catch_up(&mut self, elapsed: u64) {
        let _ = elapsed;
    }

    /// Hands the activity the peripheral counted since its last drain
    /// (its [`ActivityCounter`]: register accesses, busy cycles, event
    /// pulses) to `into` and restarts the count. The only way a
    /// peripheral's activity reaches an [`ActivitySet`].
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_fixture<'a>(l2: &'a mut L2Memory, trace: &'a mut Trace) -> PeriphCtx<'a> {
        PeriphCtx {
            time: SimTime::ZERO,
            events_in: EventVector::mask_of(&[5]),
            events_out: EventVector::EMPTY,
            l2,
            trace,
        }
    }

    #[test]
    fn raise_sets_line_and_traces() {
        let mut l2 = L2Memory::new(64);
        let mut trace = Trace::new();
        let mut counter = ActivityCounter::default();
        let mut ctx = ctx_fixture(&mut l2, &mut trace);
        ctx.raise(7, ComponentId::intern("spi"), &mut counter, "eot");
        assert!(ctx.events_out.is_set(7));
        assert!(trace.first("spi", "eot").is_some());
        // The pulse is the raiser's to drain; nothing else counted it.
        assert_eq!(
            counter,
            ActivityCounter {
                pulses: 1,
                ..ActivityCounter::default()
            }
        );
    }

    #[test]
    fn wired_high_handles_unwired_lines() {
        let mut l2 = L2Memory::new(64);
        let mut trace = Trace::new();
        let ctx = ctx_fixture(&mut l2, &mut trace);
        assert!(ctx.wired_high(Some(5)));
        assert!(!ctx.wired_high(Some(6)));
        assert!(!ctx.wired_high(None));
    }

    #[test]
    fn wake_mask_of_skips_unwired() {
        let m = wake_mask_of(&[Some(3), None, Some(9)]);
        assert_eq!(m, EventVector::mask_of(&[3, 9]));
        assert_eq!(wake_mask_of(&[None, None]), EventVector::EMPTY);
    }
}
