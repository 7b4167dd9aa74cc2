//! On-chip ADC with event-triggered conversions.
//!
//! The paper's introduction motivates event linking with "a periodic timer
//! overflow triggering an ADC conversion" — this peripheral is that
//! consumer: a conversion can be started by a register write *or* by an
//! incoming single-wire action line, and completion raises an event.

use crate::sensor::Quantizer;
use crate::traits::{wake_mask_of, PeriphCtx, Peripheral, SleepPlan};
use pels_interconnect::{ApbSlave, BusError};
use pels_sim::{ActivityCounter, ComponentId};

/// A successive-approximation-style ADC model with a fixed conversion
/// latency in bus cycles.
///
/// ## Register map (byte offsets)
///
/// | offset | name     | access | function                            |
/// |-------:|----------|--------|-------------------------------------|
/// | 0x00   | `CTRL`   | WO     | bit0: start conversion              |
/// | 0x04   | `STATUS` | RO     | bit0: sample ready, bit1: busy      |
/// | 0x08   | `DATA`   | RO     | last sample; reading clears `ready` |
///
/// ## Event wiring
///
/// * [`Adc::wire_start_action`] — conversion starts when the line pulses;
/// * [`Adc::wire_done_event`] — pulses when a conversion completes.
#[derive(Debug, Clone, PartialEq)]
pub struct Adc {
    id: ComponentId,
    quantizer: Quantizer,
    conversion_cycles: u32,
    countdown: u32,
    data: u32,
    ready: bool,
    start_line: Option<u32>,
    done_line: Option<u32>,
    activity: ActivityCounter,
    conversions: u64,
}

impl Adc {
    /// `CTRL` byte offset.
    pub const CTRL: u32 = 0x00;
    /// `STATUS` byte offset.
    pub const STATUS: u32 = 0x04;
    /// `DATA` byte offset.
    pub const DATA: u32 = 0x08;

    /// Creates an ADC digitizing `quantizer`, with the given conversion
    /// latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `conversion_cycles` is zero.
    pub fn new(name: impl AsRef<str>, quantizer: Quantizer, conversion_cycles: u32) -> Self {
        assert!(conversion_cycles > 0, "conversion latency must be non-zero");
        Adc {
            id: ComponentId::intern(name.as_ref()),
            quantizer,
            conversion_cycles,
            countdown: 0,
            data: 0,
            ready: false,
            start_line: None,
            done_line: None,
            activity: ActivityCounter::default(),
            conversions: 0,
        }
    }

    /// Starts a conversion when `line` pulses (instant action).
    pub fn wire_start_action(&mut self, line: u32) -> &mut Self {
        self.start_line = Some(line);
        self
    }

    /// Pulses `line` when a conversion completes.
    pub fn wire_done_event(&mut self, line: u32) -> &mut Self {
        self.done_line = Some(line);
        self
    }

    /// Whether a conversion is in flight.
    pub fn is_busy(&self) -> bool {
        self.countdown > 0
    }

    /// Completed conversions since construction.
    pub fn conversions(&self) -> u64 {
        self.conversions
    }

    fn start(&mut self) {
        if !self.is_busy() {
            self.countdown = self.conversion_cycles;
        }
    }
}

impl ApbSlave for Adc {
    fn read(&mut self, offset: u32) -> Result<u32, BusError> {
        self.activity.reads += 1;
        match offset {
            Self::STATUS => Ok(u32::from(self.ready) | (u32::from(self.is_busy()) << 1)),
            Self::DATA => {
                self.ready = false;
                Ok(self.data)
            }
            _ => Err(BusError::Slave { addr: offset }),
        }
    }

    fn write(&mut self, offset: u32, value: u32) -> Result<(), BusError> {
        self.activity.writes += 1;
        match offset {
            Self::CTRL => {
                if value & 1 != 0 {
                    self.start();
                }
                Ok(())
            }
            _ => Err(BusError::Slave { addr: offset }),
        }
    }
}

impl Peripheral for Adc {
    fn component(&self) -> ComponentId {
        self.id
    }

    fn tick(&mut self, ctx: &mut PeriphCtx<'_>) {
        if ctx.wired_high(self.start_line) {
            self.start();
            if let Some(f) = ctx.trace.flow_trace_mut() {
                // Conversion started by a wire edge: adopt its flow (or
                // clear a stale one if the wire carried none).
                f.begin(ctx.time, self.id, 0, "start");
                if let Some(line) = self.start_line {
                    f.adopt_wire(ctx.time, self.id, line, "start");
                }
            }
        }
        if !self.is_busy() {
            return;
        }
        self.activity.active_cycles += 1;
        self.countdown -= 1;
        if self.countdown == 0 {
            self.data = self.quantizer.convert(ctx.time);
            self.ready = true;
            self.conversions += 1;
            if let Some(line) = self.done_line {
                ctx.raise(line, self.id, &mut self.activity, "done");
                // Conversion complete: next `done` originates fresh.
                if let Some(f) = ctx.trace.flow_trace_mut() {
                    f.begin(ctx.time, self.id, 0, "done");
                }
            }
        }
    }

    fn sleep_plan(&self) -> Option<SleepPlan> {
        // A busy ADC publishes its exact completion deadline: the next
        // `countdown - 1` ticks only decrement the counter (plus the
        // ActiveCycle accounting, which `catch_up` reproduces in closed
        // form), and the completing tick — data latch, ready flag, done
        // pulse — lands exactly on the deadline, in a real tick. An idle
        // ADC only reacts to its start line or a register access.
        let idle_for = if self.is_busy() {
            u64::from(self.countdown)
        } else {
            SleepPlan::UNTIL_WIRE
        };
        Some(SleepPlan {
            idle_for,
            wake_mask: wake_mask_of(&[self.start_line]),
        })
    }

    fn catch_up(&mut self, elapsed: u64) {
        // Replays a skipped mid-conversion span: each skipped cycle
        // recorded one ActiveCycle and decremented the countdown. The
        // sleep deadline is the completion tick itself, so a skipped
        // span always ends strictly before the countdown reaches zero.
        if !self.is_busy() || elapsed == 0 {
            return;
        }
        debug_assert!(
            elapsed < u64::from(self.countdown),
            "skipped span must end before the conversion completes"
        );
        self.activity.active_cycles += elapsed;
        self.countdown -= elapsed as u32;
    }

    fn drain_activity(&mut self, into: &mut impl pels_sim::ActivitySink) {
        self.activity.drain(self.id, into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::SensorKind;
    use crate::testctx::{drained, Harness};
    use pels_sim::{ActivityKind, EventVector};

    fn adc_fixture() -> Adc {
        let mut a = Adc::new("adc", SensorKind::Constant(3.3).quantizer(), 4);
        a.wire_done_event(11);
        a.wire_start_action(2);
        a
    }

    #[test]
    fn conversion_completes_after_latency() {
        let mut a = adc_fixture();
        a.write(Adc::CTRL, 1).unwrap();
        let mut h = Harness::new();
        let out = h.run(&mut a, 3);
        assert!(!out.is_set(11));
        assert!(a.is_busy());
        let out = h.run(&mut a, 1);
        assert!(out.is_set(11));
        assert_eq!(a.read(Adc::DATA).unwrap(), 4095);
        assert_eq!(a.conversions(), 1);
    }

    #[test]
    fn ready_clears_on_data_read() {
        let mut a = adc_fixture();
        a.write(Adc::CTRL, 1).unwrap();
        let mut h = Harness::new();
        h.run(&mut a, 4);
        assert_eq!(a.read(Adc::STATUS).unwrap() & 1, 1);
        let _ = a.read(Adc::DATA).unwrap();
        assert_eq!(a.read(Adc::STATUS).unwrap() & 1, 0);
    }

    #[test]
    fn action_line_triggers_conversion() {
        let mut a = adc_fixture();
        let mut h = Harness::new();
        h.tick(&mut a, EventVector::mask_of(&[2]));
        assert!(a.is_busy());
        let out = h.run(&mut a, 3);
        assert!(out.is_set(11));
    }

    #[test]
    fn start_while_busy_is_ignored() {
        let mut a = adc_fixture();
        a.write(Adc::CTRL, 1).unwrap();
        let mut h = Harness::new();
        h.run(&mut a, 2);
        a.write(Adc::CTRL, 1).unwrap(); // ignored
        let out = h.run(&mut a, 2);
        assert!(out.is_set(11));
        assert_eq!(a.conversions(), 1);
    }

    #[test]
    fn ctrl_without_start_bit_does_nothing() {
        let mut a = adc_fixture();
        a.write(Adc::CTRL, 0).unwrap();
        assert!(!a.is_busy());
    }

    #[test]
    fn unknown_offsets_error() {
        let mut a = adc_fixture();
        assert!(a.read(0x20).is_err());
        assert!(a.write(Adc::DATA, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_latency_rejected() {
        let _ = Adc::new("adc", SensorKind::Constant(0.0).quantizer(), 0);
    }

    #[test]
    fn sleep_plan_publishes_exact_completion_deadline() {
        let idle_for = |a: &Adc| a.sleep_plan().map(|p| p.idle_for);
        let mut a = adc_fixture();
        assert_eq!(idle_for(&a), Some(SleepPlan::UNTIL_WIRE));
        a.write(Adc::CTRL, 1).unwrap();
        // conversion_cycles = 4: after the start (before any tick) the
        // completing tick is 4 ticks away.
        assert_eq!(idle_for(&a), Some(4));
        let mut h = Harness::new();
        h.run(&mut a, 1);
        assert_eq!(idle_for(&a), Some(3));
    }

    #[test]
    fn drains_its_conversion_cycles_and_done_pulse() {
        let mut ticked = adc_fixture();
        ticked.write(Adc::CTRL, 1).unwrap();
        let mut slept = ticked.clone();
        assert!(Harness::new().run(&mut ticked, 4).is_set(11));
        let a = drained(&mut ticked);
        assert_eq!(a.count("adc", ActivityKind::ActiveCycle), 4);
        assert_eq!(a.count("adc", ActivityKind::EventPulse), 1);
        assert_eq!(a.count("adc", ActivityKind::RegWrite), 1);
        assert!(
            drained(&mut ticked).is_empty(),
            "a drain restarts the count"
        );
        // Slept through, three conversion cycles are caught up.
        assert!(Harness::new().sleep_through(&mut slept).is_set(11));
        assert_eq!(drained(&mut slept), a);
    }
}
