//! # pels-interconnect — APB-class peripheral interconnect
//!
//! Models the PULPissimo peripheral-bus path PELS issues *sequenced actions*
//! on (paper Sections III and IV-A): an APB-style single-channel bus (or,
//! optionally, a per-slave crossbar) in front of memory-mapped peripherals,
//! with **round-robin arbitration** among bus masters to guarantee fair
//! bandwidth distribution, exactly as the paper relies on PULPissimo's
//! round-robin arbiters.
//!
//! ## Timing model
//!
//! A transfer granted in cycle *N* performs its APB **setup** phase in *N*
//! and its **access** phase in *N + 1 + wait-states*; the slave commits a
//! write (or samples read data) at the end of the access phase, and the
//! master's response register is visible to the master from the following
//! cycle. With zero wait states the bus is occupied for 2 cycles per
//! transfer and a master observes read data 2 cycles after issuing — the
//! timing from which the paper's 7-cycle sequenced action and 3-cycle
//! `capture` derive (see `pels-core`).
//!
//! ## Example
//!
//! ```
//! use pels_interconnect::{AddrRange, ApbFabric, ApbRequest, MemorySlave};
//!
//! let mut fabric: ApbFabric<MemorySlave> = ApbFabric::shared();
//! let m = fabric.add_master("cpu");
//! fabric.add_slave(AddrRange::new(0x1000, 0x100), MemorySlave::new(0x100));
//!
//! fabric.issue(m, ApbRequest::write(0x1004, 0xdead_beef)).unwrap();
//! fabric.tick(); // setup
//! fabric.tick(); // access: write commits
//! let resp = fabric.take_response(m).expect("write completed");
//! assert!(resp.result.is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod apb;
pub mod arbiter;
pub mod fabric;
pub mod memory;

pub use addr::{AddrRange, AddressMap};
pub use apb::{ApbRequest, ApbResponse, ApbSlave, BusError};
pub use arbiter::{Arbiter, ArbiterKind};
pub use fabric::{ApbFabric, FabricStats, MasterId, MasterStats, SlaveId, Topology};
pub use memory::MemorySlave;
