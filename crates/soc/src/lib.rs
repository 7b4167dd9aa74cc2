//! # pels-soc — the PULPissimo-like SoC integration
//!
//! Assembles the full evaluation platform of the paper's Section IV
//! (Figure 4): an Ibex-class RV32 core ([`pels_cpu`]), the PELS unit
//! ([`pels_core`]), an APB fabric with round-robin arbitration
//! ([`pels_interconnect`]), the 192 KiB L2 SRAM and the peripheral set —
//! SPI with µDMA, GPIO, Timer, ADC, UART, watchdog ([`pels_periph`]) —
//! into one deterministic, cycle-stepped system.
//!
//! The crate also hosts the paper's **evaluation workload**
//! ([`scenario`]): the threshold-crossing check after µDMA-managed SPI
//! sensor readout, mediated either by PELS (sequenced or instant actions)
//! or by the Ibex interrupt baseline, with latency measured from the
//! event trace and power derived from the recorded switching activity
//! ([`pels_power`]).
//!
//! ## Cycle ordering
//!
//! Each [`Soc::step`] executes one bus-clock cycle:
//!
//! 1. **Peripherals** tick, consuming last cycle's event/action wires and
//!    producing this cycle's pulses;
//! 2. **PELS** ticks: execution units first (buffered triggers), then the
//!    trigger units sample this cycle's pulses;
//! 3. **CPU** ticks, seeing this cycle's pulses as (edge-latched)
//!    interrupt lines;
//! 4. the **fabric** advances its APB phases;
//! 5. clock accounting (WFI gates the core clock).
//!
//! This ordering realizes the timing the paper reports: a 2-cycle instant
//! action, a 7-cycle sequenced read-modify-write, and a 16-cycle
//! interrupt-mediated baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod event_map;
pub mod power_setup;
pub mod scenario;
pub mod soc;

/// The SoC address map (now owned by `pels-desc`, re-exported for
/// compatibility).
pub use pels_desc::mem_map;

pub use pels_desc::{freq_from_mhz, DescError, ExecMode, ScenarioDesc, SystemDesc};
pub use scenario::{LinkingStats, Mediator, Scenario, ScenarioError, ScenarioReport};
pub use soc::{FastForwardStats, SchedStats, SensorKind, Soc};
