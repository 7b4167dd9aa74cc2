//! # pels-power — activity-based power and kGE area models
//!
//! The paper evaluates PELS with Synopsys PrimeTime (power, on the
//! synthesized netlist with simulation activity) and Synopsys Design
//! Compiler (area, TSMC 65 nm, 250 MHz, TT, 25 °C). Neither tool exists in
//! this reproduction's substrate, so this crate supplies the analytical
//! equivalents (substitution documented in `DESIGN.md`):
//!
//! * **Power** ([`model`]): PrimeTime computes `Σ activity × effective
//!   capacitance + leakage`. We keep the activity exact — every model in
//!   the workspace counts its switching events into a
//!   [`pels_sim::ActivitySet`] — and replace extracted capacitances with
//!   per-event energies calibrated to published 65 nm figures
//!   ([`calibration`], provenance in the module docs). Because the paper
//!   reports power *ratios* (2.5×, 1.6×, 3.7×, 4.3×), and ratios are
//!   driven by activity rather than absolute capacitance, this preserves
//!   the evaluation's shape.
//! * **Area** ([`area`]): a bottom-up gate-equivalent model anchored to
//!   the paper's published synthesis points (PELS minimal ≈ 7 kGE, Ibex ≈
//!   27 kGE, PicoRV32 ≈ 14.5 kGE) that reproduces the Figure 6a sweep and
//!   the Figure 6b PULPissimo breakdown.
//! * **Time-resolved power** ([`timeline`]): evaluates the model once per
//!   distinct window of a [`pels_sim::ActivityTimeline`], producing a
//!   [`PowerTimeline`] of per-component samples over simulated time —
//!   the Figure 5 bars as curves. The power timeline borrows the
//!   activity timeline and reads its windows through the activity
//!   timeline's own index; it stores only the distinct samples.
//! * **Energy & lifetime** ([`energy`], [`battery`]): integrates a
//!   [`PowerTimeline`], window by window in time order, into a
//!   per-component [`EnergyLedger`] (blame rows
//!   partition the total exactly) and discharges a [`Battery`] model
//!   with its mean draw to project days-to-empty — the paper's 2.5×
//!   power ratio restated as the lifetime question ULP designers ask.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod battery;
pub mod calibration;
pub mod energy;
pub mod model;
pub mod timeline;
pub mod units;

pub use area::{pels_area_kge, pulpissimo_breakdown, AreaBlock, IBEX_KGE, PICORV32_KGE};
pub use battery::{Battery, LifetimeBlame, LifetimeReport, SocPoint};
pub use calibration::Calibration;
pub use energy::{BlameRow, EnergyLedger};
pub use model::{ComponentPower, PowerModel, PowerReport};
pub use timeline::{PowerSample, PowerTimeline, PowerWindow};
pub use units::{Energy, Power};
