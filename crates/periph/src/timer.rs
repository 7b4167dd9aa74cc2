//! System timer with compare/overflow events.
//!
//! The producer end of the paper's example linking chain ("a periodic
//! timer overflow triggering an ADC conversion", Section I): a prescaled
//! up-counter raising an event pulse on compare match, controllable both
//! over the bus and through single-wire start/stop action lines.

use crate::traits::{wake_mask_of, PeriphCtx, Peripheral, RegAccessCounter, SleepPlan};
use pels_interconnect::{ApbSlave, BusError};
use pels_sim::{ActivityKind, ComponentId};

/// A 32-bit up-counting timer with prescaler and compare event.
///
/// ## Register map (byte offsets)
///
/// | offset | name    | access | function                              |
/// |-------:|---------|--------|---------------------------------------|
/// | 0x00   | `CTRL`  | RW     | bit0 enable, bit1 one-shot            |
/// | 0x04   | `CMP`   | RW     | compare value (event + wrap on match) |
/// | 0x08   | `VALUE` | RW     | current count (write to preload)      |
/// | 0x0C   | `PRESC` | RW     | prescaler: count every `PRESC+1` cycles |
///
/// ## Event wiring
///
/// * compare match pulses the line set by [`Timer::wire_compare_event`];
/// * a pulse on the [`Timer::wire_start_action`] line enables and restarts
///   the timer; one on [`Timer::wire_stop_action`] disables it.
#[derive(Debug, Clone, PartialEq)]
pub struct Timer {
    id: ComponentId,
    enable: bool,
    one_shot: bool,
    cmp: u32,
    value: u32,
    presc: u32,
    presc_count: u32,
    cmp_event_line: Option<u32>,
    start_line: Option<u32>,
    stop_line: Option<u32>,
    regs: RegAccessCounter,
    fires: u64,
}

impl Timer {
    /// `CTRL` byte offset.
    pub const CTRL: u32 = 0x00;
    /// `CMP` byte offset.
    pub const CMP: u32 = 0x04;
    /// `VALUE` byte offset.
    pub const VALUE: u32 = 0x08;
    /// `PRESC` byte offset.
    pub const PRESC: u32 = 0x0C;

    /// `CTRL` enable bit.
    pub const CTRL_ENABLE: u32 = 1 << 0;
    /// `CTRL` one-shot bit.
    pub const CTRL_ONE_SHOT: u32 = 1 << 1;

    /// Creates a timer named `name`, disabled, compare at `u32::MAX`.
    pub fn new(name: impl AsRef<str>) -> Self {
        Timer {
            id: ComponentId::intern(name.as_ref()),
            enable: false,
            one_shot: false,
            cmp: u32::MAX,
            value: 0,
            presc: 0,
            presc_count: 0,
            cmp_event_line: None,
            start_line: None,
            stop_line: None,
            regs: RegAccessCounter::default(),
            fires: 0,
        }
    }

    /// Pulses `line` on compare match.
    pub fn wire_compare_event(&mut self, line: u32) -> &mut Self {
        self.cmp_event_line = Some(line);
        self
    }

    /// Enables + restarts the timer when `line` pulses (instant action).
    pub fn wire_start_action(&mut self, line: u32) -> &mut Self {
        self.start_line = Some(line);
        self
    }

    /// Disables the timer when `line` pulses (instant action).
    pub fn wire_stop_action(&mut self, line: u32) -> &mut Self {
        self.stop_line = Some(line);
        self
    }

    /// Current counter value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// Whether the timer is running.
    pub fn is_enabled(&self) -> bool {
        self.enable
    }

    /// Number of compare matches since construction.
    pub fn fires(&self) -> u64 {
        self.fires
    }

    fn ctrl_word(&self) -> u32 {
        u32::from(self.enable) | (u32::from(self.one_shot) << 1)
    }

    /// Ticks from now (exclusive) until the tick on which the compare
    /// event fires, given the current post-tick state. The j-th future
    /// tick sees `presc_count + j - 1` (mod `presc+1`) on entry; a count
    /// action happens when that equals `presc`, and the fire is the
    /// `cmp - value + 1`-th action.
    fn ticks_to_fire(&self) -> u64 {
        let period = u64::from(self.presc) + 1;
        let to_first_action = u64::from(self.presc - self.presc_count) + 1;
        let actions_before_fire = u64::from(self.cmp.wrapping_sub(self.value));
        let total = u128::from(to_first_action) + u128::from(actions_before_fire) * u128::from(period);
        // Capped below `SleepPlan::UNTIL_WIRE`: a running timer always
        // has a live catch-up.
        total.min(u128::from(SleepPlan::UNTIL_WIRE - 1)) as u64
    }
}

impl ApbSlave for Timer {
    fn read(&mut self, offset: u32) -> Result<u32, BusError> {
        self.regs.read();
        match offset {
            Self::CTRL => Ok(self.ctrl_word()),
            Self::CMP => Ok(self.cmp),
            Self::VALUE => Ok(self.value),
            Self::PRESC => Ok(self.presc),
            _ => Err(BusError::Slave { addr: offset }),
        }
    }

    fn write(&mut self, offset: u32, value: u32) -> Result<(), BusError> {
        self.regs.write();
        match offset {
            Self::CTRL => {
                self.enable = value & Self::CTRL_ENABLE != 0;
                self.one_shot = value & Self::CTRL_ONE_SHOT != 0;
            }
            Self::CMP => self.cmp = value,
            Self::VALUE => self.value = value,
            Self::PRESC => {
                self.presc = value;
                self.presc_count = 0;
            }
            _ => return Err(BusError::Slave { addr: offset }),
        }
        Ok(())
    }
}

impl Peripheral for Timer {
    fn component(&self) -> ComponentId {
        self.id
    }

    fn tick(&mut self, ctx: &mut PeriphCtx<'_>) {
        if ctx.wired_high(self.start_line) {
            self.enable = true;
            self.value = 0;
            self.presc_count = 0;
        }
        if ctx.wired_high(self.stop_line) {
            self.enable = false;
        }
        if !self.enable {
            return;
        }
        ctx.activity.record(self.id, ActivityKind::ActiveCycle, 1);
        if self.presc_count < self.presc {
            self.presc_count += 1;
            return;
        }
        self.presc_count = 0;
        if self.value == self.cmp {
            self.value = 0;
            self.fires += 1;
            if self.one_shot {
                self.enable = false;
            }
            if let Some(line) = self.cmp_event_line {
                ctx.raise(line, self.id, "compare");
            }
        } else {
            self.value = self.value.wrapping_add(1);
        }
    }

    fn sleep_plan(&self) -> Option<SleepPlan> {
        // A running timer's only observable action is the compare fire;
        // everything before it (counting, prescaling, ActiveCycle
        // accounting) is reconstructed in closed form by `catch_up`.
        let idle_for = if self.enable {
            self.ticks_to_fire()
        } else {
            SleepPlan::UNTIL_WIRE
        };
        Some(SleepPlan {
            idle_for,
            wake_mask: wake_mask_of(&[self.start_line, self.stop_line]),
        })
    }

    fn catch_up(&mut self, ctx: &mut PeriphCtx<'_>, elapsed: u64) {
        if !self.enable || elapsed == 0 {
            return;
        }
        // Replay `elapsed` eventless ticks in closed form. The scheduler
        // guarantees the skipped span ends before `ticks_to_fire`, so no
        // compare match can occur inside it.
        ctx.activity.record(self.id, ActivityKind::ActiveCycle, elapsed);
        let period = u64::from(self.presc) + 1;
        let total = u64::from(self.presc_count) + elapsed;
        let actions = total / period;
        self.presc_count = (total % period) as u32;
        debug_assert!(
            actions <= u64::from(self.cmp.wrapping_sub(self.value)),
            "timer catch-up skipped across a compare fire"
        );
        self.value = self.value.wrapping_add(actions as u32);
    }

    fn drain_activity(&mut self, into: &mut pels_sim::ActivitySet) {
        self.regs.drain(self.id, into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testctx::Harness;
    use pels_sim::EventVector;

    fn enabled_timer(cmp: u32) -> Timer {
        let mut t = Timer::new("timer");
        t.write(Timer::CMP, cmp).unwrap();
        t.write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
        t.wire_compare_event(9);
        t
    }

    #[test]
    fn counts_up_when_enabled() {
        let mut t = enabled_timer(100);
        let mut h = Harness::new();
        h.run(&mut t, 5);
        assert_eq!(t.value(), 5);
    }

    #[test]
    fn disabled_timer_holds() {
        let mut t = Timer::new("timer");
        let mut h = Harness::new();
        h.run(&mut t, 5);
        assert_eq!(t.value(), 0);
    }

    #[test]
    fn compare_match_pulses_and_wraps() {
        let mut t = enabled_timer(3);
        let mut h = Harness::new();
        // Reaches 3 after 3 ticks; the 4th tick fires and wraps.
        let out = h.run(&mut t, 4);
        assert!(out.is_set(9));
        assert_eq!(t.value(), 0);
        assert_eq!(t.fires(), 1);
        // Periodic: fires again after another 4 ticks.
        let out = h.run(&mut t, 4);
        assert!(out.is_set(9));
        assert_eq!(t.fires(), 2);
    }

    #[test]
    fn one_shot_fires_once() {
        let mut t = Timer::new("timer");
        t.write(Timer::CMP, 1).unwrap();
        t.write(Timer::CTRL, Timer::CTRL_ENABLE | Timer::CTRL_ONE_SHOT)
            .unwrap();
        t.wire_compare_event(9);
        let mut h = Harness::new();
        let out = h.run(&mut t, 10);
        assert!(out.is_set(9));
        assert_eq!(t.fires(), 1);
        assert!(!t.is_enabled());
    }

    #[test]
    fn prescaler_slows_counting() {
        let mut t = enabled_timer(100);
        t.write(Timer::PRESC, 3).unwrap(); // count every 4 cycles
        let mut h = Harness::new();
        h.run(&mut t, 8);
        assert_eq!(t.value(), 2);
    }

    #[test]
    fn start_stop_action_lines() {
        let mut t = Timer::new("timer");
        t.write(Timer::CMP, 100).unwrap();
        t.wire_start_action(4).wire_stop_action(5);
        let mut h = Harness::new();
        h.tick(&mut t, EventVector::mask_of(&[4]));
        assert!(t.is_enabled());
        h.run(&mut t, 3);
        assert_eq!(t.value(), 4); // start tick counts too
        h.tick(&mut t, EventVector::mask_of(&[5]));
        assert!(!t.is_enabled());
        // Restart resets the count.
        h.tick(&mut t, EventVector::mask_of(&[4]));
        assert_eq!(t.value(), 1);
    }

    #[test]
    fn register_readback() {
        let mut t = Timer::new("timer");
        t.write(Timer::CMP, 55).unwrap();
        t.write(Timer::VALUE, 7).unwrap();
        t.write(Timer::PRESC, 2).unwrap();
        assert_eq!(t.read(Timer::CMP).unwrap(), 55);
        assert_eq!(t.read(Timer::VALUE).unwrap(), 7);
        assert_eq!(t.read(Timer::PRESC).unwrap(), 2);
        assert!(t.read(0x20).is_err());
    }
}
