//! The closed set of SoC peripherals.

use crate::traits::{IdleHint, PeriphCtx, Peripheral, SleepPlan};
use crate::{Adc, Gpio, I2c, Spi, Timer, Uart, Watchdog};
use pels_interconnect::apb::Dir;
use pels_interconnect::{ApbSlave, BusError};
use pels_sim::{ActivitySet, ComponentId, EventVector};

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

    fn idle_hint(&self) -> IdleHint {
        each!(self, p => p.idle_hint())
    }

    fn wake_mask(&self) -> EventVector {
        each!(self, p => p.wake_mask())
    }

    fn catch_up(&mut self, ctx: &mut PeriphCtx<'_>, elapsed: u64) {
        each!(self, p => p.catch_up(ctx, elapsed))
    }

    fn catch_up_is_noop(&self) -> bool {
        each!(self, p => p.catch_up_is_noop())
    }

    fn sleep_plan(&self) -> Option<SleepPlan> {
        each!(self, p => p.sleep_plan())
    }

    fn drain_activity(&mut self, into: &mut ActivitySet) {
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
