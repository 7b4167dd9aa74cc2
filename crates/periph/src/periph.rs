//! The closed set of SoC peripherals.

use crate::traits::{PeriphCtx, Peripheral, SleepPlan};
use crate::{Adc, Gpio, I2c, Spi, Timer, Uart, Watchdog};
use pels_interconnect::apb::Dir;
use pels_interconnect::{ApbSlave, BusError};
use pels_sim::{ActivitySink, ComponentId};

/// One of the SoC's seven peripherals, held by value in the APB fabric.
///
/// A system description instantiates exactly one of each, so the set is
/// closed: this enum dispatches [`ApbSlave`] and [`Peripheral`] with a
/// `match` instead of a vtable, and the SoC holding it can derive
/// `Clone`.
#[derive(Debug, Clone, PartialEq)]
pub enum Periph {
    /// The GPIO controller.
    Gpio(Gpio),
    /// The timer.
    Timer(Timer),
    /// The SPI master.
    Spi(Spi),
    /// The ADC.
    Adc(Adc),
    /// The UART.
    Uart(Uart),
    /// The watchdog.
    Wdt(Watchdog),
    /// The I2C master.
    I2c(I2c),
}

/// Evaluates `$call` with `$p` bound to the peripheral `$periph` holds.
macro_rules! each {
    ($periph:expr, $p:ident => $call:expr) => {
        match $periph {
            Periph::Gpio($p) => $call,
            Periph::Timer($p) => $call,
            Periph::Spi($p) => $call,
            Periph::Adc($p) => $call,
            Periph::Uart($p) => $call,
            Periph::Wdt($p) => $call,
            Periph::I2c($p) => $call,
        }
    };
}

impl ApbSlave for Periph {
    fn read(&mut self, offset: u32) -> Result<u32, BusError> {
        each!(self, p => p.read(offset))
    }

    fn write(&mut self, offset: u32, value: u32) -> Result<(), BusError> {
        each!(self, p => p.write(offset, value))
    }

    fn wait_states(&self, offset: u32, dir: Dir) -> u32 {
        each!(self, p => p.wait_states(offset, dir))
    }
}

impl Peripheral for Periph {
    fn component(&self) -> ComponentId {
        each!(self, p => p.component())
    }

    fn tick(&mut self, ctx: &mut PeriphCtx<'_>) {
        each!(self, p => p.tick(ctx))
    }

    fn sleep_plan(&self) -> Option<SleepPlan> {
        each!(self, p => p.sleep_plan())
    }

    fn catch_up(&mut self, elapsed: u64) {
        each!(self, p => p.catch_up(elapsed))
    }

    fn drain_activity(&mut self, into: &mut impl ActivitySink) {
        each!(self, p => p.drain_activity(into))
    }
}

/// A peripheral type [`Periph`] holds: typed access to its variant.
pub trait Variant: Sized {
    /// The peripheral in `periph`, if it holds this type.
    fn of(periph: &Periph) -> Option<&Self>;

    /// Mutable form of [`Variant::of`].
    fn of_mut(periph: &mut Periph) -> Option<&mut Self>;
}

macro_rules! variants {
    ($($variant:ident($ty:ty)),* $(,)?) => {$(
        impl Variant for $ty {
            fn of(periph: &Periph) -> Option<&Self> {
                match periph {
                    Periph::$variant(p) => Some(p),
                    _ => None,
                }
            }

            fn of_mut(periph: &mut Periph) -> Option<&mut Self> {
                match periph {
                    Periph::$variant(p) => Some(p),
                    _ => None,
                }
            }
        }
    )*};
}

variants!(
    Gpio(Gpio),
    Timer(Timer),
    Spi(Spi),
    Adc(Adc),
    Uart(Uart),
    Wdt(Watchdog),
    I2c(I2c),
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::SensorKind;
    use crate::testctx::Harness;
    use crate::SensorDevice;
    use pels_sim::EventVector;

    /// What a table state's plan must be.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Expect {
        /// `None`, or `idle_for < 2`: the next tick must run.
        Busy,
        /// A finite deadline of at least 2 cycles.
        Deadline,
        /// Idle until a wire.
        UntilWire,
    }

    fn expect_of(plan: Option<SleepPlan>) -> Expect {
        match plan.map(|p| p.idle_for) {
            None | Some(0 | 1) => Expect::Busy,
            Some(SleepPlan::UNTIL_WIRE) => Expect::UntilWire,
            Some(_) => Expect::Deadline,
        }
    }

    /// One step on the way to a table state.
    enum Step {
        /// A register write.
        W(u32, u32),
        /// Wireless ticks.
        T(u64),
    }

    fn timer() -> Periph {
        let mut t = Timer::new("timer");
        t.wire_compare_event(2)
            .wire_start_action(22)
            .wire_stop_action(23);
        Periph::Timer(t)
    }

    fn wdt() -> Periph {
        let mut w = Watchdog::new("wdt");
        w.wire_bite_event(6).wire_kick_action(25);
        Periph::Wdt(w)
    }

    fn adc() -> Periph {
        let mut a = Adc::new("adc", SensorKind::Constant(1.2).quantizer(), 6);
        a.wire_done_event(3).wire_start_action(24);
        Periph::Adc(a)
    }

    fn spi() -> Periph {
        let ramp = SensorKind::Ramp {
            start: 0.0,
            slope_per_us: 1.0,
        };
        let mut s = Spi::new("spi", ramp.quantizer());
        s.wire_eot_event(0)
            .wire_udma_done_event(1)
            .wire_start_action(2);
        Periph::Spi(s)
    }

    fn i2c() -> Periph {
        let mut i = I2c::new("i2c");
        let sensor = SensorDevice::new(0x48, SensorKind::Constant(2.0).quantizer());
        i.attach(sensor)
            .wire_done_event(7)
            .wire_nack_event(8)
            .wire_start_action(26);
        Periph::I2c(i)
    }

    fn uart() -> Periph {
        let mut u = Uart::new("uart");
        u.wire_tx_done_event(5);
        Periph::Uart(u)
    }

    fn gpio() -> Periph {
        let mut g = Gpio::new("gpio");
        g.wire_set_action(19, 0x1)
            .wire_toggle_action(20, 0x2)
            .wire_clear_action(21, 0x3);
        Periph::Gpio(g)
    }

    const ON: u32 = Timer::CTRL_ENABLE;
    const ONE_SHOT: u32 = Timer::CTRL_ENABLE | Timer::CTRL_ONE_SHOT;
    const I2C_READ_2: u32 = 0x48 | 2 << 8 | I2c::CMD_READ;

    /// A table row: a name, the peripheral, the steps that reach the
    /// state from reset and the plan the state must report.
    type Row = (&'static str, fn() -> Periph, &'static [Step], Expect);

    /// Reachable states of all seven peripherals, each sleeping kind
    /// (counting toward a deadline, idle until a wire) and each busy one.
    #[rustfmt::skip]
    const STATES: &[Row] = {
        use Expect::*;
        use Step::*;
        &[
            ("timer disabled", timer, &[W(Timer::CMP, 9), T(3)], UntilWire),
            ("timer enabled", timer, &[W(Timer::CMP, 30), W(Timer::CTRL, ON), T(4)], Deadline),
            ("timer prescaled", timer,
             &[W(Timer::PRESC, 3), W(Timer::CMP, 6), W(Timer::CTRL, ON), T(5)], Deadline),
            ("timer past its compare, counting to the wrap", timer,
             &[W(Timer::VALUE, 50), W(Timer::CMP, 7), W(Timer::CTRL, ON), T(2)], Deadline),
            ("timer at the longest deadline", timer,
             &[W(Timer::PRESC, !0), W(Timer::CMP, !0), W(Timer::CTRL, ON), T(1)], Deadline),
            ("one-shot timer after its fire", timer,
             &[W(Timer::CMP, 3), W(Timer::CTRL, ONE_SHOT), T(8)], UntilWire),
            ("watchdog disabled", wdt, &[W(Watchdog::LOAD, 40), T(2)], UntilWire),
            ("watchdog counting", wdt,
             &[W(Watchdog::LOAD, 40), W(Watchdog::CTRL, 1), T(5)], Deadline),
            ("watchdog one tick from its bite", wdt,
             &[W(Watchdog::LOAD, 3), W(Watchdog::CTRL, 1), T(3)], Busy),
            ("ADC idle", adc, &[T(2)], UntilWire),
            ("ADC converting", adc, &[W(Adc::CTRL, 1), T(1)], Deadline),
            ("ADC after a conversion", adc, &[W(Adc::CTRL, 1), T(9)], UntilWire),
            ("SPI idle", spi, &[T(1)], UntilWire),
            ("SPI shifting, CLKDIV 8", spi, &[W(Spi::CMD, 2), T(3)], Deadline),
            ("SPI shifting, CLKDIV 2", spi, &[W(Spi::CLKDIV, 2), W(Spi::CMD, 3), T(2)], Deadline),
            ("SPI shifting, CLKDIV 13, µDMA armed", spi,
             &[W(Spi::CLKDIV, 13), W(Spi::UDMA_SADDR, 0x40), W(Spi::UDMA_SIZE, 8),
               W(Spi::CMD, 2), T(15)], Deadline),
            ("SPI with CLKDIV lowered below its bit clock", spi,
             &[W(Spi::CMD, 1), T(5), W(Spi::CLKDIV, 3)], Busy),
            ("I2C idle", i2c, &[T(1)], UntilWire),
            ("I2C busy", i2c, &[W(I2c::CMD, I2C_READ_2), T(3)], Busy),
            ("UART drained", uart, &[W(Uart::TXDATA, 0x5A), T(200)], UntilWire),
            ("UART transmitting", uart, &[W(Uart::TXDATA, 0x5A), T(4)], Busy),
            ("GPIO settled", gpio, &[W(Gpio::PADOUT, 0x5), T(1)], UntilWire),
            ("GPIO with a pending pad change", gpio, &[W(Gpio::PADOUT, 0x5)], Busy),
        ]
    };

    /// The sleep contract, state by state: for a plan of `n >= 2` cycles,
    /// `catch_up(k)` for every `k < n` (up to a bound) leaves the
    /// peripheral, its activity counter included, exactly as `k` wireless
    /// ticks do, and those ticks raise no pulse and record no trace; a
    /// span replayed in two parts equals it replayed whole. For an
    /// idle-until-wire plan, `catch_up` changes nothing.
    #[test]
    fn catch_up_matches_ticks_for_every_sleep_plan() {
        for (name, build, steps, expect) in STATES {
            let (mut periph, mut harness) = (build(), Harness::new());
            for step in *steps {
                match *step {
                    Step::W(reg, value) => periph.write(reg, value).unwrap(),
                    Step::T(n) => {
                        harness.run(&mut periph, n);
                    }
                }
            }
            let plan = periph.sleep_plan();
            match expect_of(plan) {
                Expect::Busy => {}
                Expect::UntilWire => {
                    for k in [1, 2, 17, 1_000] {
                        let mut p = periph.clone();
                        p.catch_up(k);
                        assert_eq!(p, periph, "{name}: catch_up({k}) changed the peripheral");
                    }
                }
                Expect::Deadline => {
                    let n = plan.unwrap().idle_for;
                    for k in (0..n.min(48)).chain([n - 1].into_iter().filter(|&k| k < 5_000)) {
                        let (mut ticked, mut th) = (periph.clone(), harness.clone());
                        let pulses = th.run(&mut ticked, k);
                        assert_eq!(
                            pulses,
                            EventVector::EMPTY,
                            "{name}: {k} ticks raised a pulse"
                        );
                        let (mut skipped, mut sh) = (periph.clone(), harness.clone());
                        sh.catch_up(&mut skipped, k);
                        assert_eq!(skipped, ticked, "{name}: catch_up({k}) vs {k} ticks");
                        assert!(sh == th, "{name}: catch_up({k}) trace or L2");
                        if k >= 2 {
                            let (mut split, mut hh) = (periph.clone(), harness.clone());
                            hh.catch_up(&mut split, 1);
                            hh.catch_up(&mut split, k - 1);
                            assert!(split == ticked && hh == th, "{name}: 1 + {} split", k - 1);
                        }
                    }
                }
            }
            assert_eq!(expect_of(plan), *expect, "{name}: plan {plan:?}");
        }
    }
}
