//! # pels-cpu — an Ibex-class RV32IM instruction-set simulator
//!
//! The paper's baseline handles peripheral linking with "a traditional
//! interrupt-based mechanism that relies on the main processing core"
//! (Section IV-B) — the core being lowRISC **Ibex**, a 2-stage, in-order
//! RV32IMC microcontroller CPU. This crate provides a cycle-stepped
//! instruction-set simulator with Ibex-like timing so the baseline's
//! 16-cycle interrupt-handling latency and its memory-system switching
//! activity are *measured from executed code*, not assumed:
//!
//! * RV32I base + M extension + **C extension** (16-bit compressed
//!   instructions, decoded by expansion like Ibex's decompressor) +
//!   Zicsr, `wfi` and `mret`;
//! * per-instruction cycle costs following the Ibex documentation
//!   ([`timing`]): 1-cycle ALU, 2-cycle loads/stores (plus bus wait
//!   states), 3-cycle taken branches, 2-cycle jumps, multi-cycle divide;
//! * machine-mode interrupts with Ibex's vectored dispatch and fast
//!   interrupt lines, and WFI sleep with wake-up cost;
//! * every instruction fetch is charged to the SRAM it executes from —
//!   the activity asymmetry at the heart of the paper's Figure 5.
//!
//! The CPU talks to the platform through the [`CpuBus`] trait: instruction
//! fetches and L2 data hit a fixed-latency path, peripheral accesses go
//! through the APB fabric and stall the pipeline for as long as
//! arbitration and wait states dictate.
//!
//! ## Example
//!
//! ```
//! use pels_cpu::{asm, Cpu, SimpleBus};
//!
//! // x1 = 5; x2 = 7; x3 = x1 + x2
//! let program = [
//!     asm::addi(1, 0, 5),
//!     asm::addi(2, 0, 7),
//!     asm::add(3, 1, 2),
//!     asm::wfi(),
//! ];
//! let mut bus = SimpleBus::new(4096);
//! bus.load(0, &program);
//! let mut cpu = Cpu::new(0);
//! while !cpu.is_sleeping() {
//!     cpu.tick(&mut bus, 0);
//! }
//! assert_eq!(cpu.reg(3), 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod bus;
pub mod compressed;
pub mod core;
pub mod csr;
pub mod decode;
pub mod instr;
pub mod regs;
pub mod timing;

pub use bus::{CpuBus, DataReq, DataResult, SimpleBus};
pub use compressed::{decode_compressed, is_compressed};
pub use core::{Cpu, CpuState, HaltCause};
pub use csr::CsrFile;
pub use decode::{decode, DecodeError};
pub use instr::{AluOp, BranchOp, CsrOp, Instr, LoadOp, MulDivOp, StoreOp};
pub use regs::RegFile;
