//! Watchdog timer.
//!
//! The paper notes that PELS's `loop`/`wait` commands "subsume
//! watchdog-like functions without requiring an external timer" (Section
//! III-2). This peripheral is the *external timer* being subsumed: it
//! exists so the watchdog example and the ablation can compare a
//! conventional watchdog against a PELS microcode watchdog.

use crate::traits::{wake_mask_of, PeriphCtx, Peripheral, SleepPlan};
use pels_interconnect::{ApbSlave, BusError};
use pels_sim::{ActivityCounter, ComponentId, PeriodVisitor, Periodic};

/// A down-counting watchdog that pulses a *bite* event at zero and
/// reloads.
///
/// ## Register map (byte offsets)
///
/// | offset | name    | access | function                       |
/// |-------:|---------|--------|--------------------------------|
/// | 0x00   | `CTRL`  | RW     | bit0 enable                    |
/// | 0x04   | `LOAD`  | RW     | reload value                   |
/// | 0x08   | `KICK`  | WO     | any write restarts the counter |
/// | 0x0C   | `VALUE` | RO     | current count                  |
///
/// ## Event wiring
///
/// * [`Watchdog::wire_bite_event`] — pulses when the counter expires;
/// * [`Watchdog::wire_kick_action`] — an incoming pulse kicks the dog
///   (what a PELS instant action does in the watchdog example).
#[derive(Debug, Clone, PartialEq)]
pub struct Watchdog {
    id: ComponentId,
    enable: bool,
    load: u32,
    value: u32,
    bite_line: Option<u32>,
    kick_line: Option<u32>,
    activity: ActivityCounter,
    bites: u64,
}

impl Periodic for Watchdog {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        self.activity.visit_period(v);
        v.counter(&mut self.bites);
    }
}

impl Watchdog {
    /// `CTRL` byte offset.
    pub const CTRL: u32 = 0x00;
    /// `LOAD` byte offset.
    pub const LOAD: u32 = 0x04;
    /// `KICK` byte offset.
    pub const KICK: u32 = 0x08;
    /// `VALUE` byte offset.
    pub const VALUE: u32 = 0x0C;

    /// Creates a disabled watchdog.
    pub fn new(name: impl Into<ComponentId>) -> Self {
        Watchdog {
            id: name.into(),
            enable: false,
            load: 0,
            value: 0,
            bite_line: None,
            kick_line: None,
            activity: ActivityCounter::default(),
            bites: 0,
        }
    }

    /// Pulses `line` when the counter expires.
    pub fn wire_bite_event(&mut self, line: u32) -> &mut Self {
        self.bite_line = Some(line);
        self
    }

    /// Restarts the counter when `line` pulses.
    pub fn wire_kick_action(&mut self, line: u32) -> &mut Self {
        self.kick_line = Some(line);
        self
    }

    /// Times the watchdog has bitten.
    pub fn bites(&self) -> u64 {
        self.bites
    }

    /// Current countdown value.
    pub fn value(&self) -> u32 {
        self.value
    }
}

impl ApbSlave for Watchdog {
    fn read(&mut self, offset: u32) -> Result<u32, BusError> {
        self.activity.reads += 1;
        match offset {
            Self::CTRL => Ok(u32::from(self.enable)),
            Self::LOAD => Ok(self.load),
            Self::VALUE => Ok(self.value),
            _ => Err(BusError::Slave { addr: offset }),
        }
    }

    fn write(&mut self, offset: u32, value: u32) -> Result<(), BusError> {
        self.activity.writes += 1;
        match offset {
            Self::CTRL => {
                let was = self.enable;
                self.enable = value & 1 != 0;
                if self.enable && !was {
                    self.value = self.load;
                }
            }
            Self::LOAD => self.load = value,
            Self::KICK => self.value = self.load,
            _ => return Err(BusError::Slave { addr: offset }),
        }
        Ok(())
    }
}

impl Peripheral for Watchdog {
    fn component(&self) -> ComponentId {
        self.id
    }

    fn tick(&mut self, ctx: &mut PeriphCtx<'_>) {
        if ctx.wired_high(self.kick_line) {
            self.value = self.load;
        }
        if !self.enable {
            return;
        }
        self.activity.active_cycles += 1;
        if self.value == 0 {
            self.bites += 1;
            self.value = self.load;
            if let Some(line) = self.bite_line {
                ctx.raise(line, self.id, &mut self.activity, "bite");
            }
        } else {
            self.value -= 1;
        }
    }

    fn sleep_plan(&self) -> Option<SleepPlan> {
        // Counting down is unobservable until the bite: `value` reaches 0
        // after `value` ticks, and the bite happens one tick later.
        let idle_for = if self.enable {
            u64::from(self.value) + 1
        } else {
            SleepPlan::UNTIL_WIRE
        };
        Some(SleepPlan {
            idle_for,
            wake_mask: wake_mask_of(&[self.kick_line]),
        })
    }

    fn catch_up(&mut self, elapsed: u64) {
        if !self.enable || elapsed == 0 {
            return;
        }
        // The scheduler never skips across the bite tick, so the counter
        // cannot underflow here.
        self.activity.active_cycles += elapsed;
        debug_assert!(
            elapsed <= u64::from(self.value),
            "watchdog catch-up skipped across a bite"
        );
        self.value -= elapsed as u32;
    }

    fn drain_activity(&mut self, into: &mut impl pels_sim::ActivitySink) {
        self.activity.drain(self.id, into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testctx::{drained, Harness};
    use pels_sim::{ActivityKind, EventVector};

    fn armed(load: u32) -> Watchdog {
        let mut w = Watchdog::new("wdt");
        w.write(Watchdog::LOAD, load).unwrap();
        w.write(Watchdog::CTRL, 1).unwrap();
        w.wire_bite_event(6);
        w
    }

    #[test]
    fn bites_after_load_plus_one_cycles() {
        let mut w = armed(3);
        let mut h = Harness::new();
        let out = h.run(&mut w, 3);
        assert!(!out.is_set(6));
        let out = h.run(&mut w, 1);
        assert!(out.is_set(6));
        assert_eq!(w.bites(), 1);
        assert_eq!(w.value(), 3, "reloads after biting");
    }

    #[test]
    fn register_kick_prevents_bite() {
        let mut w = armed(3);
        let mut h = Harness::new();
        for _ in 0..5 {
            h.run(&mut w, 2);
            w.write(Watchdog::KICK, 0).unwrap();
        }
        assert_eq!(w.bites(), 0);
    }

    #[test]
    fn action_line_kick_prevents_bite() {
        let mut w = armed(2);
        w.wire_kick_action(4);
        let mut h = Harness::new();
        for _ in 0..6 {
            h.tick(&mut w, EventVector::mask_of(&[4]));
        }
        assert_eq!(w.bites(), 0);
    }

    #[test]
    fn unkicked_watchdog_bites_repeatedly() {
        let mut w = armed(1);
        let mut h = Harness::new();
        h.run(&mut w, 8);
        assert_eq!(w.bites(), 4);
    }

    #[test]
    fn enabling_loads_counter() {
        let mut w = Watchdog::new("wdt");
        w.write(Watchdog::LOAD, 10).unwrap();
        w.write(Watchdog::CTRL, 1).unwrap();
        assert_eq!(w.value(), 10);
        assert_eq!(w.read(Watchdog::VALUE).unwrap(), 10);
    }

    #[test]
    fn drains_each_counting_cycle_and_its_bite() {
        // Loaded with 3, the watchdog counts 4 busy ticks to its bite.
        let mut ticked = armed(3);
        let mut slept = ticked.clone();
        assert!(Harness::new().run(&mut ticked, 4).is_set(6));
        let a = drained(&mut ticked);
        assert_eq!(a.count("wdt", ActivityKind::ActiveCycle), 4);
        assert_eq!(a.count("wdt", ActivityKind::EventPulse), 1);
        assert_eq!(a.count("wdt", ActivityKind::RegWrite), 2);
        assert!(
            drained(&mut ticked).is_empty(),
            "a drain restarts the count"
        );
        // Slept through, three of those cycles are caught up.
        assert!(Harness::new().sleep_through(&mut slept).is_set(6));
        assert_eq!(drained(&mut slept), a);
    }
}
