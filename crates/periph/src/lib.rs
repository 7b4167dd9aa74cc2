//! # pels-periph — peripheral models for the PULPissimo-like SoC
//!
//! The paper evaluates PELS against an event-linking application built from
//! PULPissimo peripherals: a timer kicks a µDMA-managed **SPI** sensor
//! readout, and the arriving sample must be threshold-checked and actuated
//! on a **GPIO** (paper Figure 3 and Section IV-B). This crate provides
//! those peripherals — and the supporting cast (ADC, UART, watchdog, the
//! analog sensor sources, the L2 scratchpad the µDMA lands data in) — as
//! cycle-accurate behavioural models.
//!
//! Every peripheral:
//!
//! * is an APB slave ([`pels_interconnect::ApbSlave`]) with a documented
//!   register map,
//! * participates in the **single-wire event system**: it can raise event
//!   pulses (e.g. [`Spi`] end-of-transfer) and react to incoming action
//!   lines (e.g. [`Gpio`] set/clear/toggle) — the "instant action"
//!   interface of Figure 1,
//! * counts its own switching activity for the power model and hands it
//!   over only through [`Peripheral::drain_activity`].
//!
//! Peripherals are ticked once per bus-clock cycle with a [`PeriphCtx`]
//! carrying the sampled event lines and platform handles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adc;
pub mod gpio;
pub mod i2c;
pub mod l2;
pub mod periph;
pub mod sensor;
pub mod spi;
pub mod timer;
pub mod traits;
pub mod uart;
pub mod udma;
pub mod wdt;

pub use adc::Adc;
pub use gpio::Gpio;
pub use i2c::{I2c, SensorDevice};
pub use l2::L2Memory;
pub use periph::{Periph, Variant};
pub use sensor::{Quantizer, SensorKind};
pub use spi::Spi;
pub use timer::Timer;
pub use traits::{PeriphCtx, Peripheral, SleepPlan};
pub use uart::Uart;
pub use udma::{UdmaChannel, UdmaTxChannel};
pub use wdt::Watchdog;

#[cfg(test)]
pub(crate) mod testctx;
