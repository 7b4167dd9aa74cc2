//! # pels-desc — declarative system and scenario descriptions
//!
//! The construction API of the simulator: a validated, serializable
//! [`SystemDesc`] (clock plan, PELS geometry, peripheral instances with
//! per-kind parameters, memory-map slots, fabric shape) and
//! [`ScenarioDesc`] (mediator, stimulus, events, execution mode,
//! observability) that everything else builds from.
//!
//! * `Soc::from_desc` / `Scenario::from_desc` (in `pels-soc`) are the
//!   only constructors: callers edit a description and hand it over.
//! * [`SystemDesc::from_json`] / [`SystemDesc::to_json`] (and the
//!   `ScenarioDesc` pair) round-trip losslessly through the in-repo
//!   [`pels_obs::json`] parser — `from_json(d.to_json()) == d` for every
//!   valid description. No external dependencies.
//! * Validation is structural and eager, and every failure is a
//!   [`DescError`] carrying the JSON path of the offending value
//!   (`/peripherals/2/kind`), so a description file error points at the
//!   line that needs fixing.
//! * [`DescFuzzer`] generates bounded random descriptions (plus seeded
//!   invalid mutations) for the generate → validate → fast-vs-naive
//!   differential loop in `tests/desc_fuzz.rs`.
//!
//! See `DESIGN.md` §11 for the schema reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod fuzz;
pub mod kinds;
pub mod mem_map;
pub mod scenario;
pub mod system;

pub use codec::{freq_from_mhz, SCHEMA_VERSION};
pub use error::DescError;
pub use fuzz::{DescFuzzer, FuzzCase};
pub use kinds::{ExecMode, Mediator, SensorKind};
pub use scenario::ScenarioDesc;
pub use system::{PelsDesc, PeriphInst, PeriphKind, SystemDesc};
