//! Shared unit-test harness: drives a single peripheral cycle-by-cycle
//! with a synthetic [`PeriphCtx`].

use crate::l2::L2Memory;
use crate::traits::{PeriphCtx, Peripheral};
use pels_sim::{ActivitySet, EventVector, Frequency, SimTime, Trace};

#[derive(Clone, PartialEq)]
pub(crate) struct Harness {
    pub l2: L2Memory,
    pub trace: Trace,
    pub cycle: u64,
    pub period: SimTime,
}

impl Harness {
    pub fn new() -> Self {
        Harness {
            l2: L2Memory::new(4096),
            trace: Trace::with_entries(),
            cycle: 0,
            period: Frequency::from_mhz(55.0).period(),
        }
    }

    /// Ticks `p` once with `events_in`; returns the pulses it raised.
    pub fn tick(&mut self, p: &mut dyn Peripheral, events_in: EventVector) -> EventVector {
        let mut ctx = PeriphCtx {
            time: SimTime::from_ps(self.period.as_ps() * self.cycle),
            events_in,
            events_out: EventVector::EMPTY,
            l2: &mut self.l2,
            trace: &mut self.trace,
        };
        p.tick(&mut ctx);
        self.cycle += 1;
        ctx.events_out
    }

    /// Ticks `n` times with no input events, ORing all pulses raised.
    pub fn run(&mut self, p: &mut dyn Peripheral, n: u64) -> EventVector {
        let mut out = EventVector::EMPTY;
        for _ in 0..n {
            out |= self.tick(p, EventVector::EMPTY);
        }
        out
    }

    /// Replays an `elapsed`-cycle skipped span in closed form
    /// ([`Peripheral::catch_up`]), advancing the harness clock as the
    /// scheduler would.
    pub fn catch_up(&mut self, p: &mut dyn Peripheral, elapsed: u64) {
        p.catch_up(elapsed);
        self.cycle += elapsed;
    }

    /// Sleeps `p` through its current finite plan as the scheduler
    /// would: the skipped span in closed form, then the real tick that
    /// ends it. Returns that tick's pulses.
    pub fn sleep_through(&mut self, p: &mut dyn Peripheral) -> EventVector {
        let plan = p.sleep_plan().expect("a sleep plan");
        self.catch_up(p, plan.idle_for - 1);
        self.tick(p, EventVector::EMPTY)
    }
}

/// What `p` drains now; its counts restart.
pub(crate) fn drained(p: &mut impl Peripheral) -> ActivitySet {
    let mut set = ActivitySet::new();
    p.drain_activity(&mut set);
    set
}
