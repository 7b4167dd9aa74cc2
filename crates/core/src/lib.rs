//! # pels-core — the Peripheral Event Linking System
//!
//! This crate is the paper's primary contribution (Ottaviano et al., DATE
//! 2024): a lightweight, microcode-programmable event-linking unit that
//! lets peripherals interact **without waking the main core**, combining
//!
//! * **instant actions** — single-wire event lines driven in a fixed 2
//!   cycles from the triggering event, like the channel-based interconnects
//!   of Silicon Labs PRS / Nordic PPI (paper Table I), and
//! * **sequenced actions** — arbitrary read-modify-write commands issued
//!   over the system interconnect (7 cycles for an RMW), which no channel
//!   interconnect can express,
//!
//! under one microcode model executed from a tiny private SCM, so no fetch
//! ever touches the power-hungry shared SRAM.
//!
//! ## Architecture (paper Figure 2)
//!
//! A [`Pels`] instance contains `N` independent [`link::Link`]s. Each link
//! owns:
//!
//! * a [`trigger::TriggerUnit`] — event mask + trigger condition
//!   (any/all/at-least-k of the selected lines) + a trigger FIFO so pulses
//!   arriving while the link is busy are not lost;
//! * a private [`scm::Scm`] instruction memory (4–8 commands in the
//!   paper's sweep) holding [`Command`]s in the 48-bit encoding of
//!   Section III-2 (4-bit opcode, 12-bit field, 32-bit operand);
//! * an [`exec::ExecutionUnit`] — the FSM that fetches one command per
//!   cycle and performs instant actions or stalls through bus
//!   transactions.
//!
//! Links can trigger each other through action-line **loopback**
//! (Figure 2 ⑨), enabling link specialization.
//!
//! ## Example
//!
//! ```
//! use pels_core::{Command, Cond, ActionMode, Program};
//!
//! // The threshold check of the paper's Figure 3, instant-action flavour:
//! // capture the sensor sample, compare, pulse an event line.
//! let program = Program::new(vec![
//!     Command::Capture { offset: 6, mask: 0xFFF },
//!     Command::JumpIf { cond: Cond::GeU, target: 3, operand: 2000 },
//!     Command::Halt,
//!     Command::Action { mode: ActionMode::Pulse, group: 0, mask: 1 << 8 },
//! ])?;
//! assert_eq!(program.len(), 4);
//! # Ok::<(), pels_core::ProgramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod command;
pub mod config;
pub mod encoding;
pub mod exec;
pub mod link;
pub mod pels;
pub mod program;
pub mod scm;
pub mod trigger;

pub use asm::{assemble, AsmError};
pub use command::{ActionMode, Command, Cond, Opcode};
pub use config::regs;
pub use encoding::{decode_command, encode_command, EncodingError};
pub use exec::{ExecutionUnit, LinkBus};
pub use pels::{Pels, PelsConfig};
pub use program::{Program, ProgramError};
pub use scm::Scm;
pub use trigger::{TriggerCond, TriggerUnit};
