//! # pels-sim — deterministic simulation building blocks
//!
//! This crate is the foundation of the PELS reproduction (DATE 2024,
//! Ottaviano et al.). The paper evaluates PELS with cycle-accurate RTL
//! simulation; since no HDL simulator substrate exists in Rust, this crate
//! provides the pieces synchronous hardware models need: a **picosecond
//! time base** ([`SimTime`], [`Frequency`]), hardware [`Fifo`]s, the
//! 64-line [`EventVector`], event [`trace::Trace`]s with causal
//! [`flow`] records, switching [`activity::ActivitySet`] counters and
//! their windowed [`timeline`], and a [`vcd::VcdWriter`] for waveform
//! inspection.
//!
//! There is no generic component scheduler here: the SoC crate drives
//! its models from its own event-driven loop, which walks them in a
//! fixed order each cycle and skips spans in which nothing is pending.
//! Other clock domains couple in by converting their edge times into
//! SoC cycles.
//!
//! ## Example
//!
//! ```
//! use pels_sim::{Frequency, SimTime};
//!
//! // PELS at 27 MHz and the Ibex domain at 55 MHz (the paper's iso-latency
//! // operating points, Section IV-B): whole cycles in 1 us. Periods are
//! // integer picoseconds, so 55 MHz is an 18 182 ps period and 1 us holds
//! // 54 whole cycles.
//! let pels = Frequency::from_mhz(27.0);
//! let ibex = Frequency::from_mhz(55.0);
//! assert_eq!(pels.cycles_in(SimTime::from_us(1)), 27);
//! assert_eq!(ibex.cycles_in(SimTime::from_us(1)), 54);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod error;
pub mod events;
pub mod fifo;
pub mod flow;
pub mod intern;
pub mod rng;
pub mod time;
pub mod timeline;
pub mod trace;
pub mod vcd;

pub use activity::{
    ActivityCounter, ActivityKind, ActivityLayout, ActivityRow, ActivitySet, ActivitySink,
};
pub use error::SimError;
pub use events::{EventVector, SleepPlan};
pub use fifo::Fifo;
pub use flow::{FlowHop, FlowId, FlowTrace, FLOW_STAGES};
pub use intern::ComponentId;
pub use rng::Rng;
pub use time::{Frequency, SimTime};
pub use timeline::{ActivityTimeline, ActivityWindow};
pub use trace::{Trace, TraceEntry, Watch};
