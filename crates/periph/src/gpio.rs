//! General-purpose I/O.
//!
//! The actuation endpoint of the paper's linking scenario: the threshold
//! crossing either *sets a GPIO via a sequenced action* (a bus write to
//! [`Gpio::PADOUTSET`]) or *toggles it via an instant action* (a single-wire
//! line wired into the pad logic) — the two paths of Figure 3.

use crate::traits::{wake_mask_of, PeriphCtx, Peripheral, SleepPlan};
use pels_interconnect::{ApbSlave, BusError};
use pels_sim::{ActivityCounter, ComponentId, PeriodVisitor, Periodic};

/// A 32-pin GPIO controller with set/clear/toggle registers and
/// event-line-driven pad actions.
///
/// ## Register map (byte offsets)
///
/// | offset | name       | access | function                      |
/// |-------:|------------|--------|-------------------------------|
/// | 0x00   | `PADDIR`   | RW     | 1 = output                    |
/// | 0x04   | `PADIN`    | RO     | pad input values              |
/// | 0x08   | `PADOUT`   | RW     | output register               |
/// | 0x0C   | `PADOUTSET`| WO     | write-1-to-set                |
/// | 0x10   | `PADOUTCLR`| WO     | write-1-to-clear              |
/// | 0x14   | `PADOUTTGL`| WO     | write-1-to-toggle             |
///
/// ## Event wiring
///
/// Incoming action lines configured with [`Gpio::wire_set_action`] /
/// [`Gpio::wire_clear_action`] / [`Gpio::wire_toggle_action`] apply the
/// corresponding pad operation when pulsed — the peripheral-side support
/// for *instant actions*. A rising edge on a watched output pin
/// ([`Gpio::watch_pin`]) raises an outgoing event pulse.
#[derive(Debug, Clone, PartialEq)]
pub struct Gpio {
    id: ComponentId,
    dir: u32,
    out: u32,
    input: u32,
    /// Output value already reported in the trace/event logic.
    seen_out: u32,
    set_action: Option<(u32, u32)>,
    clear_action: Option<(u32, u32)>,
    toggle_action: Option<(u32, u32)>,
    watch: Option<(u32, u32)>,
    activity: ActivityCounter,
    pad_toggles: u64,
}

impl Periodic for Gpio {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        self.activity.visit_period(v);
        v.counter(&mut self.pad_toggles);
    }
}

impl Gpio {
    /// `PADDIR` byte offset.
    pub const PADDIR: u32 = 0x00;
    /// `PADIN` byte offset.
    pub const PADIN: u32 = 0x04;
    /// `PADOUT` byte offset.
    pub const PADOUT: u32 = 0x08;
    /// `PADOUTSET` byte offset.
    pub const PADOUTSET: u32 = 0x0C;
    /// `PADOUTCLR` byte offset.
    pub const PADOUTCLR: u32 = 0x10;
    /// `PADOUTTGL` byte offset.
    pub const PADOUTTGL: u32 = 0x14;

    /// Creates a GPIO instance named `name`.
    pub fn new(name: impl Into<ComponentId>) -> Self {
        Gpio {
            id: name.into(),
            dir: 0,
            out: 0,
            input: 0,
            seen_out: 0,
            set_action: None,
            clear_action: None,
            toggle_action: None,
            watch: None,
            activity: ActivityCounter::default(),
            pad_toggles: 0,
        }
    }

    /// Wires incoming event line `line` to *set* the pins in `mask`.
    pub fn wire_set_action(&mut self, line: u32, mask: u32) -> &mut Self {
        self.set_action = Some((line, mask));
        self
    }

    /// Wires incoming event line `line` to *clear* the pins in `mask`.
    pub fn wire_clear_action(&mut self, line: u32, mask: u32) -> &mut Self {
        self.clear_action = Some((line, mask));
        self
    }

    /// Wires incoming event line `line` to *toggle* the pins in `mask`.
    pub fn wire_toggle_action(&mut self, line: u32, mask: u32) -> &mut Self {
        self.toggle_action = Some((line, mask));
        self
    }

    /// Raises outgoing event line `event_line` whenever output pin `pin`
    /// rises.
    ///
    /// # Panics
    ///
    /// Panics if `pin >= 32`.
    pub fn watch_pin(&mut self, pin: u32, event_line: u32) -> &mut Self {
        assert!(pin < 32, "pin {pin} out of range");
        self.watch = Some((pin, event_line));
        self
    }

    /// Current output register value.
    pub fn out(&self) -> u32 {
        self.out
    }

    /// Level of output `pin`.
    ///
    /// # Panics
    ///
    /// Panics if `pin >= 32`.
    pub fn pin(&self, pin: u32) -> bool {
        assert!(pin < 32, "pin {pin} out of range");
        self.out & (1 << pin) != 0
    }

    /// Drives external input pads (tests / board models).
    pub fn set_input(&mut self, value: u32) {
        self.input = value;
    }

    /// Total pad transitions since construction.
    pub fn pad_toggles(&self) -> u64 {
        self.pad_toggles
    }
}

impl ApbSlave for Gpio {
    fn read(&mut self, offset: u32) -> Result<u32, BusError> {
        self.activity.reads += 1;
        match offset {
            Self::PADDIR => Ok(self.dir),
            Self::PADIN => Ok(self.input),
            Self::PADOUT => Ok(self.out),
            _ => Err(BusError::Slave { addr: offset }),
        }
    }

    fn write(&mut self, offset: u32, value: u32) -> Result<(), BusError> {
        self.activity.writes += 1;
        match offset {
            Self::PADDIR => self.dir = value,
            Self::PADOUT => self.out = value,
            Self::PADOUTSET => self.out |= value,
            Self::PADOUTCLR => self.out &= !value,
            Self::PADOUTTGL => self.out ^= value,
            _ => return Err(BusError::Slave { addr: offset }),
        }
        Ok(())
    }
}

impl Peripheral for Gpio {
    fn component(&self) -> ComponentId {
        self.id
    }

    fn tick(&mut self, ctx: &mut PeriphCtx<'_>) {
        // Instant actions: registered event wires act on the pad logic.
        if let Some((line, mask)) = self.set_action {
            if ctx.events_in.is_set(line) {
                self.out |= mask;
            }
        }
        if let Some((line, mask)) = self.clear_action {
            if ctx.events_in.is_set(line) {
                self.out &= !mask;
            }
        }
        if let Some((line, mask)) = self.toggle_action {
            if ctx.events_in.is_set(line) {
                self.out ^= mask;
            }
        }

        // Observable pad changes: trace + activity + watched-pin events.
        if self.out != self.seen_out {
            let changed = self.out ^ self.seen_out;
            self.pad_toggles += u64::from(changed.count_ones());
            self.activity.active_cycles += 1;
            ctx.trace
                .record(ctx.time, self.id, "padout", u64::from(self.out));
            if let Some(f) = ctx.trace.flow_trace_mut() {
                // Attribute the pad change: a wired instant action carries
                // its flow on the event wire; a sequenced/IRQ register
                // write stages it as a fabric write commit. Neither means
                // the cause is untracked — clear the context so a later
                // `pin_rise` cannot inherit a stale flow.
                let wired = [self.set_action, self.clear_action, self.toggle_action]
                    .iter()
                    .flatten()
                    .map(|(l, _)| *l)
                    .any(|l| {
                        ctx.events_in.is_set(l) && f.adopt_wire(ctx.time, self.id, l, "padout")
                    });
                if !wired && !f.take_reg_write(ctx.time, self.id, "padout") {
                    f.begin(ctx.time, self.id, 0, "padout");
                }
            }
            if let Some((pin, event_line)) = self.watch {
                let rose = changed & self.out & (1 << pin) != 0;
                if rose {
                    ctx.raise(event_line, self.id, &mut self.activity, "pin_rise");
                }
            }
            self.seen_out = self.out;
        }
    }

    fn sleep_plan(&self) -> Option<SleepPlan> {
        // After a tick the pad state is fully reported (`seen_out` ==
        // `out`); anything that could change it — an action-line pulse or
        // an APB write — is a wake condition.
        (self.out == self.seen_out).then(|| {
            SleepPlan::until_wire(wake_mask_of(&[
                self.set_action.map(|(l, _)| l),
                self.clear_action.map(|(l, _)| l),
                self.toggle_action.map(|(l, _)| l),
            ]))
        })
    }

    fn drain_activity(&mut self, into: &mut impl pels_sim::ActivitySink) {
        self.activity.drain(self.id, into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testctx::Harness;
    use pels_sim::EventVector;

    #[test]
    fn register_set_clear_toggle() {
        let mut g = Gpio::new("gpio");
        g.write(Gpio::PADOUTSET, 0b1010).unwrap();
        assert_eq!(g.out(), 0b1010);
        g.write(Gpio::PADOUTCLR, 0b0010).unwrap();
        assert_eq!(g.out(), 0b1000);
        g.write(Gpio::PADOUTTGL, 0b1100).unwrap();
        assert_eq!(g.out(), 0b0100);
        assert_eq!(g.read(Gpio::PADOUT).unwrap(), 0b0100);
    }

    #[test]
    fn unknown_offset_errors() {
        let mut g = Gpio::new("gpio");
        assert!(g.read(0x40).is_err());
        assert!(g.write(Gpio::PADIN, 0).is_err()); // PADIN is read-only
    }

    #[test]
    fn input_pads_read_back() {
        let mut g = Gpio::new("gpio");
        g.set_input(0xF0);
        assert_eq!(g.read(Gpio::PADIN).unwrap(), 0xF0);
    }

    #[test]
    fn instant_set_action_applies_on_wired_line() {
        let mut g = Gpio::new("gpio");
        g.wire_set_action(12, 0b1);
        let mut h = Harness::new();
        h.tick(&mut g, EventVector::mask_of(&[12]));
        assert!(g.pin(0));
        // Unrelated line does nothing.
        g.write(Gpio::PADOUTCLR, 1).unwrap();
        h.tick(&mut g, EventVector::mask_of(&[13]));
        assert!(!g.pin(0));
    }

    #[test]
    fn instant_toggle_action_toggles_each_pulse() {
        let mut g = Gpio::new("gpio");
        g.wire_toggle_action(3, 0b10);
        let mut h = Harness::new();
        h.tick(&mut g, EventVector::mask_of(&[3]));
        assert!(g.pin(1));
        h.tick(&mut g, EventVector::mask_of(&[3]));
        assert!(!g.pin(1));
        assert_eq!(g.pad_toggles(), 2);
    }

    #[test]
    fn watched_pin_raises_event_on_rise_only() {
        let mut g = Gpio::new("gpio");
        g.watch_pin(4, 20);
        let mut h = Harness::new();
        g.write(Gpio::PADOUTSET, 1 << 4).unwrap();
        let out = h.tick(&mut g, EventVector::EMPTY);
        assert!(out.is_set(20));
        // Falling edge: no event.
        g.write(Gpio::PADOUTCLR, 1 << 4).unwrap();
        let out = h.tick(&mut g, EventVector::EMPTY);
        assert!(!out.is_set(20));
    }

    #[test]
    fn pad_change_is_traced_for_latency_measurement() {
        let mut g = Gpio::new("gpio");
        let mut h = Harness::new();
        g.write(Gpio::PADOUTSET, 1).unwrap();
        h.tick(&mut g, EventVector::EMPTY);
        assert!(h.trace.first("gpio", "padout").is_some());
    }

    #[test]
    fn drain_activity_reports_reg_accesses() {
        let mut g = Gpio::new("gpio");
        g.write(Gpio::PADOUT, 1).unwrap();
        let _ = g.read(Gpio::PADOUT).unwrap();
        let mut a = pels_sim::ActivitySet::new();
        g.drain_activity(&mut a);
        assert_eq!(a.count("gpio", pels_sim::ActivityKind::RegRead), 1);
        assert_eq!(a.count("gpio", pels_sim::ActivityKind::RegWrite), 1);
    }
}
