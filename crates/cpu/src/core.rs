//! The cycle-stepped Ibex-class core.

use crate::bus::{CpuBus, DataReq, DataResult};
use crate::compressed::{decode_compressed, is_compressed};
use crate::csr::CsrFile;
use crate::decode::{decode, DecodeError};
use crate::instr::{AluOp, BranchOp, CsrOp, CsrSrc, Instr, LoadOp, MulDivOp, StoreOp};
use crate::regs::RegFile;
use crate::timing;
use pels_sim::intern::FixedName;
use pels_sim::{
    ActivityKind, ActivitySink, ComponentId, EventVector, PeriodVisitor, Periodic, SleepPlan,
};

/// Why the core stopped executing (tests and scenarios use [`Instr::Ecall`]
/// / [`Instr::Ebreak`] as a program-exit convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltCause {
    /// `ecall` executed.
    Ecall,
    /// `ebreak` executed.
    Ebreak,
    /// An undecodable instruction word.
    IllegalInstruction(DecodeError),
    /// A data access faulted on the bus.
    BusFault {
        /// The faulting address.
        addr: u32,
    },
}

/// Pipeline state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuState {
    /// Fetching and executing.
    Running,
    /// Stalled on an in-flight peripheral-bus access.
    MemWait,
    /// Asleep in `wfi`, clock gated.
    Sleeping,
    /// Stopped (see [`HaltCause`]).
    Halted,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingLoad {
    rd: u8,
    op: LoadOp,
    byte_in_word: u32,
    is_load: bool,
    addr: u32,
}

/// The Ibex-class RV32IM core.
///
/// Drive it with one [`Cpu::tick`] per clock cycle, passing the sampled
/// interrupt lines. All architectural effects (register/memory updates)
/// happen in the first cycle of an instruction; the remaining cycles of a
/// multi-cycle instruction are modelled as stall.
#[derive(Debug, Clone, PartialEq)]
pub struct Cpu {
    id: ComponentId,
    pc: u32,
    regs: RegFile,
    /// Machine-mode CSRs (public: scenarios preset `mtvec`/`mie`).
    pub csrs: CsrFile,
    state: CpuState,
    halt_cause: Option<HaltCause>,
    stall: u32,
    pending: Option<PendingLoad>,
    last_irq_ack: Option<u32>,
    /// Core cycle of the most recent `mret`, for the causal-flow layer
    /// (polled by the SoC only when flow tracing is on).
    mret_taken: Option<u64>,
    /// One-word prefetch buffer (Ibex-style): consecutive 16-bit parcels
    /// of the same word cost a single memory fetch.
    fetch_buf: Option<(u32, u32)>,
    // Statistics / activity.
    cycles: u64,
    retired: u64,
    fetches: u64,
    irq_entries: u64,
    irq_overhead_cycles: u64,
    sleep_cycles: u64,
    stall_cycles: u64,
}

/// The statistics, `mcycle` and `minstret` are counters (a firmware
/// read of either lands in a register, which repeats or not); a taken
/// `mret`'s cycle is a stamp.
impl Periodic for Cpu {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        for c in [
            &mut self.cycles,
            &mut self.retired,
            &mut self.fetches,
            &mut self.irq_entries,
            &mut self.irq_overhead_cycles,
            &mut self.sleep_cycles,
            &mut self.stall_cycles,
            &mut self.csrs.mcycle,
            &mut self.csrs.minstret,
        ] {
            v.counter(c);
        }
        self.regs.visit_period(v);
        if let Some(c) = &mut self.mret_taken {
            v.stamp(c);
        }
    }
}

impl Cpu {
    /// Creates a core that will start fetching at `reset_pc`.
    pub fn new(reset_pc: u32) -> Self {
        static IBEX: FixedName = FixedName::new("ibex");
        Self::with_name(IBEX.id(), reset_pc)
    }

    /// Creates a core with an explicit activity/trace name.
    pub fn with_name(name: impl Into<ComponentId>, reset_pc: u32) -> Self {
        Cpu {
            id: name.into(),
            pc: reset_pc,
            regs: RegFile::new(),
            csrs: CsrFile::new(),
            state: CpuState::Running,
            halt_cause: None,
            stall: 0,
            pending: None,
            last_irq_ack: None,
            mret_taken: None,
            fetch_buf: None,
            cycles: 0,
            retired: 0,
            fetches: 0,
            irq_entries: 0,
            irq_overhead_cycles: 0,
            sleep_cycles: 0,
            stall_cycles: 0,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: u8) -> u32 {
        self.regs.get(r)
    }

    /// Writes an architectural register (test/bring-up convenience).
    pub fn set_reg(&mut self, r: u8, v: u32) {
        self.regs.set(r, v);
    }

    /// Pipeline state.
    pub fn state(&self) -> CpuState {
        self.state
    }

    /// Whether the core is in `wfi` sleep.
    pub fn is_sleeping(&self) -> bool {
        self.state == CpuState::Sleeping
    }

    /// Whether the core halted, and why.
    pub fn halt_cause(&self) -> Option<HaltCause> {
        self.halt_cause
    }

    /// Elapsed core cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired since the last activity flush: the count
    /// restarts at every [`Cpu::drain_activity`] (an activity drain or a
    /// timeline window close of the SoC). `minstret` counts for the
    /// core's lifetime.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Interrupt entries taken.
    pub fn irq_entries(&self) -> u64 {
        self.irq_entries
    }

    /// Takes the line of the most recent interrupt entry — the
    /// claim/acknowledge signal a platform interrupt controller uses to
    /// clear an edge-latched pending bit.
    pub fn take_irq_ack(&mut self) -> Option<u32> {
        self.last_irq_ack.take()
    }

    /// Takes the core cycle of the most recent `mret`, if one retired
    /// since the last poll — the handler-exit observation point of the
    /// causal-flow layer.
    pub fn take_mret(&mut self) -> Option<u64> {
        self.mret_taken.take()
    }

    /// Cycles spent asleep in `wfi`.
    pub fn sleep_cycles(&self) -> u64 {
        self.sleep_cycles
    }

    /// Publishes the core's cumulative counters into `m` under the
    /// `cpu.` prefix. Gauges (overwrite semantics), so publishing is
    /// idempotent at any given point in a run.
    pub fn publish_metrics(&self, m: &mut pels_obs::MetricsSnapshot) {
        m.set("cpu.cycles", self.cycles);
        m.set("cpu.retired", self.retired);
        m.set("cpu.fetches", self.fetches);
        m.set("cpu.irq.entries", self.irq_entries);
        m.set("cpu.irq.overhead_cycles", self.irq_overhead_cycles);
        m.set("cpu.sleep_cycles", self.sleep_cycles);
        m.set("cpu.stall_cycles", self.stall_cycles);
    }

    /// How the core may sleep with interrupt lines `irq`: halted, or in
    /// WFI with no line of `irq` enabled in `mie`, it is idle until a
    /// wire changes `irq`; running or stalled, it must tick.
    pub fn sleep_plan(&self, irq: u32) -> Option<SleepPlan> {
        let idle = match self.state {
            CpuState::Halted => true,
            CpuState::Sleeping => irq & self.csrs.mie == 0,
            CpuState::Running | CpuState::MemWait => false,
        };
        idle.then_some(SleepPlan::until_wire(EventVector::EMPTY))
    }

    /// Accounts `k` idle cycles under [`Cpu::sleep_plan`] exactly as `k`
    /// calls to [`Cpu::tick`] would: `irq` is mirrored into `mip` and
    /// the cycle, `mcycle` and sleep counters advance.
    pub fn catch_up(&mut self, k: u64, irq: u32) {
        debug_assert!(self.sleep_plan(irq).is_some(), "catch_up of a busy core");
        self.csrs.mip = irq;
        if self.state == CpuState::Sleeping {
            self.sleep_cycles += k;
        }
        self.cycles += k;
        self.csrs.mcycle += k;
    }

    /// Advances one clock cycle. `irq` carries the sampled interrupt
    /// lines (wired into `mip`).
    pub fn tick(&mut self, bus: &mut impl CpuBus, irq: u32) {
        self.cycles += 1;
        self.csrs.mcycle += 1;
        self.csrs.mip = irq;

        match self.state {
            CpuState::Halted => {}
            CpuState::Sleeping => {
                // WFI wakes on pending & mie-enabled interrupts regardless
                // of mstatus.MIE (RISC-V priv. spec; Ibex behaviour).
                if self.csrs.pending_interrupt().is_some() {
                    self.state = CpuState::Running;
                    self.stall = timing::WFI_WAKE;
                    self.stall_cycles += u64::from(timing::WFI_WAKE);
                } else {
                    self.sleep_cycles += 1;
                }
            }
            _ if self.stall > 0 => {
                self.stall -= 1;
                self.stall_cycles += 1;
            }
            CpuState::MemWait => {
                if let Some(result) = bus.poll() {
                    let p = self.pending.take().expect("memwait without pending op");
                    match result {
                        Ok(rdata) => {
                            if p.is_load {
                                let v = extract_load(p.op, rdata, p.byte_in_word);
                                self.regs.set(p.rd, v);
                            }
                            self.state = CpuState::Running;
                        }
                        Err(()) => self.halt(HaltCause::BusFault { addr: p.addr }),
                    }
                } else {
                    self.stall_cycles += 1;
                }
            }
            CpuState::Running => {
                if self.csrs.interrupts_enabled() {
                    if let Some(line) = self.csrs.pending_interrupt() {
                        self.pc = self.csrs.enter_interrupt(self.pc, line);
                        self.stall = timing::IRQ_ENTRY - 1;
                        self.irq_entries += 1;
                        self.irq_overhead_cycles += u64::from(timing::IRQ_ENTRY);
                        self.last_irq_ack = Some(line);
                        return;
                    }
                }
                match self.fetch_decode(bus) {
                    Ok((instr, size)) => self.execute(instr, size, bus),
                    Err(e) => self.halt(HaltCause::IllegalInstruction(e)),
                }
            }
        }
    }

    /// Runs until the core halts or sleeps, up to `max_cycles`. Returns
    /// the cycles consumed. Interrupt lines are held at `irq`.
    pub fn run(&mut self, bus: &mut impl CpuBus, irq: u32, max_cycles: u64) -> u64 {
        let start = self.cycles;
        while self.cycles - start < max_cycles {
            if self.state == CpuState::Halted || self.state == CpuState::Sleeping {
                break;
            }
            self.tick(bus, irq);
        }
        self.cycles - start
    }

    fn halt(&mut self, cause: HaltCause) {
        self.state = CpuState::Halted;
        self.halt_cause = Some(cause);
    }

    /// Fetches and decodes the instruction at `pc`, handling 16-bit
    /// (compressed) parcels and 32-bit instructions straddling a word
    /// boundary (which costs a second fetch, as in Ibex's prefetch
    /// buffer).
    ///
    /// Returns `(instr, size)`.
    fn fetch_decode(&mut self, bus: &mut impl CpuBus) -> Result<(Instr, u32), DecodeError> {
        let pc = self.pc;
        let aligned = pc & !3;
        let word = self.fetch_word(aligned, bus);
        let low_half = if pc & 2 == 0 {
            (word & 0xFFFF) as u16
        } else {
            (word >> 16) as u16
        };
        if is_compressed(low_half) {
            return Ok((decode_compressed(low_half, pc)?, 2));
        }
        let full = if pc & 2 == 0 {
            word
        } else {
            // 32-bit instruction straddling the word boundary.
            let next = self.fetch_word(aligned + 4, bus);
            u32::from(low_half) | (next << 16)
        };
        Ok((decode(full, pc)?, 4))
    }

    /// Reads an instruction word through the prefetch buffer.
    fn fetch_word(&mut self, aligned: u32, bus: &mut impl CpuBus) -> u32 {
        if let Some((addr, word)) = self.fetch_buf {
            if addr == aligned {
                return word;
            }
        }
        let word = bus.fetch(aligned);
        self.fetches += 1;
        self.fetch_buf = Some((aligned, word));
        word
    }

    fn retire(&mut self, extra_stall: u32) {
        self.retired += 1;
        self.csrs.minstret += 1;
        self.stall = extra_stall;
        self.stall_cycles += u64::from(extra_stall);
    }

    fn execute(&mut self, instr: Instr, size: u32, bus: &mut impl CpuBus) {
        let next_pc = self.pc.wrapping_add(size);
        match instr {
            Instr::Lui { rd, imm } => {
                self.regs.set(rd, imm);
                self.pc = next_pc;
                self.retire(timing::ALU - 1);
            }
            Instr::Auipc { rd, imm } => {
                self.regs.set(rd, self.pc.wrapping_add(imm));
                self.pc = next_pc;
                self.retire(timing::ALU - 1);
            }
            Instr::Jal { rd, offset } => {
                self.regs.set(rd, next_pc);
                self.pc = self.pc.wrapping_add(offset as u32);
                self.retire(timing::JUMP - 1);
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.regs.read(rs1).wrapping_add(offset as u32) & !1;
                self.regs.set(rd, next_pc);
                self.pc = target;
                self.retire(timing::JUMP - 1);
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.regs.read(rs1);
                let b = self.regs.read(rs2);
                let taken = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i32) < (b as i32),
                    BranchOp::Ge => (a as i32) >= (b as i32),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                if taken {
                    self.pc = self.pc.wrapping_add(offset as u32);
                    self.retire(timing::BRANCH_TAKEN - 1);
                } else {
                    self.pc = next_pc;
                    self.retire(timing::BRANCH_NOT_TAKEN - 1);
                }
            }
            Instr::Load { op, rd, rs1, offset } => {
                let addr = self.regs.read(rs1).wrapping_add(offset as u32);
                if misaligned(op_width_load(op), addr) {
                    self.halt(HaltCause::BusFault { addr });
                    return;
                }
                let word_addr = addr & !3;
                let byte = addr & 3;
                match bus.data(DataReq::read(word_addr)) {
                    DataResult::Done { value, extra_cycles } => {
                        self.regs.set(rd, extract_load(op, value, byte));
                        self.pc = next_pc;
                        self.retire(timing::LOAD_BASE - 1 + extra_cycles);
                    }
                    DataResult::Pending => {
                        self.pending = Some(PendingLoad {
                            rd,
                            op,
                            byte_in_word: byte,
                            is_load: true,
                            addr,
                        });
                        self.pc = next_pc;
                        self.retired += 1;
                        self.csrs.minstret += 1;
                        self.state = CpuState::MemWait;
                    }
                    DataResult::Fault => self.halt(HaltCause::BusFault { addr }),
                }
            }
            Instr::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                // A store may hit the instruction stream: drop the
                // prefetch buffer (trivially conservative).
                self.fetch_buf = None;
                let addr = self.regs.read(rs1).wrapping_add(offset as u32);
                if misaligned(op_width_store(op), addr) {
                    self.halt(HaltCause::BusFault { addr });
                    return;
                }
                let word_addr = addr & !3;
                let byte = addr & 3;
                let value = self.regs.read(rs2);
                let (wdata, strobe) = merge_store(op, value, byte);
                match bus.data(DataReq::write(word_addr, wdata, strobe)) {
                    DataResult::Done { extra_cycles, .. } => {
                        self.pc = next_pc;
                        self.retire(timing::STORE_BASE - 1 + extra_cycles);
                    }
                    DataResult::Pending => {
                        self.pending = Some(PendingLoad {
                            rd: 0,
                            op: LoadOp::Word,
                            byte_in_word: 0,
                            is_load: false,
                            addr,
                        });
                        self.pc = next_pc;
                        self.retired += 1;
                        self.csrs.minstret += 1;
                        self.state = CpuState::MemWait;
                    }
                    DataResult::Fault => self.halt(HaltCause::BusFault { addr }),
                }
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let a = self.regs.read(rs1);
                self.regs.set(rd, alu(op, a, imm as u32));
                self.pc = next_pc;
                self.retire(timing::ALU - 1);
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let a = self.regs.read(rs1);
                let b = self.regs.read(rs2);
                self.regs.set(rd, alu(op, a, b));
                self.pc = next_pc;
                self.retire(timing::ALU - 1);
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let a = self.regs.read(rs1);
                let b = self.regs.read(rs2);
                self.regs.set(rd, muldiv(op, a, b));
                self.pc = next_pc;
                let cost = match op {
                    MulDivOp::Mul | MulDivOp::Mulh | MulDivOp::Mulhsu | MulDivOp::Mulhu => {
                        timing::MUL
                    }
                    _ => timing::DIV,
                };
                self.retire(cost - 1);
            }
            Instr::Csr { op, rd, src, csr } => {
                let old = self.csrs.read(csr);
                let operand = match src {
                    CsrSrc::Reg(rs1) => self.regs.read(rs1),
                    CsrSrc::Imm(i) => u32::from(i),
                };
                let write_needed = match src {
                    // csrrs/csrrc with x0 / imm 0 must not write.
                    CsrSrc::Reg(0) | CsrSrc::Imm(0) => op == CsrOp::ReadWrite,
                    _ => true,
                };
                if write_needed {
                    let new = match op {
                        CsrOp::ReadWrite => operand,
                        CsrOp::ReadSet => old | operand,
                        CsrOp::ReadClear => old & !operand,
                    };
                    self.csrs.write(csr, new);
                }
                self.regs.set(rd, old);
                self.pc = next_pc;
                self.retire(timing::ALU - 1);
            }
            Instr::Fence => {
                // Covers both `fence` and `fence.i` (the decoder folds the
                // whole MISC-MEM opcode into one instruction). Every fetch
                // decodes the bits it reads, so a fence has no decoded
                // state to drop and only retires.
                self.pc = next_pc;
                self.retire(timing::ALU - 1);
            }
            Instr::Ecall => self.halt(HaltCause::Ecall),
            Instr::Ebreak => self.halt(HaltCause::Ebreak),
            Instr::Mret => {
                self.pc = self.csrs.exit_interrupt();
                self.mret_taken = Some(self.cycles);
                self.retire(timing::MRET - 1);
            }
            Instr::Wfi => {
                self.pc = next_pc;
                self.retired += 1;
                self.csrs.minstret += 1;
                self.state = CpuState::Sleeping;
            }
        }
    }

    /// Drains accumulated activity (fetches, retired instructions,
    /// register-file ports, interrupt overhead) into `into`.
    pub fn drain_activity(&mut self, into: &mut impl ActivitySink) {
        into.record(self.id, ActivityKind::InstrFetch, self.fetches);
        into.record(self.id, ActivityKind::InstrRetired, self.retired);
        into.record(
            self.id,
            ActivityKind::IrqOverhead,
            self.irq_overhead_cycles,
        );
        let (r, w) = self.regs.take_port_counts();
        into.record(self.id, ActivityKind::RegRead, r);
        into.record(self.id, ActivityKind::RegWrite, w);
        self.fetches = 0;
        self.retired = 0;
        self.irq_overhead_cycles = 0;
    }
}

fn misaligned(width: u32, addr: u32) -> bool {
    !addr.is_multiple_of(width)
}

fn op_width_load(op: LoadOp) -> u32 {
    match op {
        LoadOp::Byte | LoadOp::ByteU => 1,
        LoadOp::Half | LoadOp::HalfU => 2,
        LoadOp::Word => 4,
    }
}

fn op_width_store(op: StoreOp) -> u32 {
    match op {
        StoreOp::Byte => 1,
        StoreOp::Half => 2,
        StoreOp::Word => 4,
    }
}

fn extract_load(op: LoadOp, word: u32, byte: u32) -> u32 {
    match op {
        LoadOp::Word => word,
        LoadOp::Byte => (((word >> (byte * 8)) & 0xFF) as i8) as i32 as u32,
        LoadOp::ByteU => (word >> (byte * 8)) & 0xFF,
        LoadOp::Half => (((word >> (byte * 8)) & 0xFFFF) as i16) as i32 as u32,
        LoadOp::HalfU => (word >> (byte * 8)) & 0xFFFF,
    }
}

fn merge_store(op: StoreOp, value: u32, byte: u32) -> (u32, u8) {
    match op {
        StoreOp::Word => (value, 0b1111),
        StoreOp::Half => ((value & 0xFFFF) << (byte * 8), 0b0011 << byte),
        StoreOp::Byte => ((value & 0xFF) << (byte * 8), 1 << byte),
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
    }
}

fn muldiv(op: MulDivOp, a: u32, b: u32) -> u32 {
    match op {
        MulDivOp::Mul => a.wrapping_mul(b),
        MulDivOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulDivOp::Mulhsu => (((a as i32 as i64) * b as i64) >> 32) as u32,
        MulDivOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
        MulDivOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        MulDivOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulDivOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        MulDivOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

#[cfg(test)]
#[allow(clippy::vec_init_then_push)]
mod tests {
    use super::*;
    use crate::asm;
    use crate::bus::SimpleBus;
    use pels_sim::ActivitySet;

    fn run_program(program: &[u32], max: u64) -> (Cpu, SimpleBus) {
        let mut bus = SimpleBus::new(64 * 1024);
        bus.load(0, program);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, max);
        (cpu, bus)
    }

    #[test]
    fn arithmetic_program() {
        let mut p = vec![];
        p.extend(asm::li32(1, 100));
        p.extend(asm::li32(2, 42));
        p.push(asm::sub(3, 1, 2)); // 58
        p.push(asm::slli(4, 3, 2)); // 232
        p.push(asm::xori(5, 4, 0xFF)); // 232 ^ 255 = 23
        p.push(asm::ecall());
        let (cpu, _) = run_program(&p, 100);
        assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall));
        assert_eq!(cpu.reg(3), 58);
        assert_eq!(cpu.reg(4), 232);
        assert_eq!(cpu.reg(5), 23);
    }

    #[test]
    fn loads_and_stores_all_widths() {
        let mut p = vec![];
        p.extend(asm::li32(1, 0x1000)); // base
        p.extend(asm::li32(2, 0xDEAD_BEEF));
        p.push(asm::sw(1, 2, 0));
        p.push(asm::lw(3, 1, 0));
        p.push(asm::lb(4, 1, 0)); // 0xEF sign-extended
        p.push(asm::lbu(5, 1, 0));
        p.push(asm::lh(6, 1, 2)); // 0xDEAD sign-extended
        p.push(asm::lhu(7, 1, 2));
        p.push(asm::sb(1, 2, 4)); // byte 0xEF at 0x1004
        p.push(asm::sh(1, 2, 8)); // half 0xBEEF at 0x1008
        p.push(asm::ecall());
        let (cpu, bus) = run_program(&p, 100);
        assert_eq!(cpu.reg(3), 0xDEAD_BEEF);
        assert_eq!(cpu.reg(4), 0xFFFF_FFEF);
        assert_eq!(cpu.reg(5), 0xEF);
        assert_eq!(cpu.reg(6), 0xFFFF_DEAD);
        assert_eq!(cpu.reg(7), 0xDEAD);
        assert_eq!(bus.word(0x1004) & 0xFF, 0xEF);
        assert_eq!(bus.word(0x1008) & 0xFFFF, 0xBEEF);
    }

    #[test]
    fn branch_loop_counts() {
        // for (i = 0; i != 5; i++) sum += i;  => sum = 10
        let mut p = vec![];
        p.push(asm::addi(1, 0, 0)); // i
        p.push(asm::addi(2, 0, 0)); // sum
        p.push(asm::addi(3, 0, 5)); // limit
        // loop:
        p.push(asm::add(2, 2, 1));
        p.push(asm::addi(1, 1, 1));
        p.push(asm::bne(1, 3, -8));
        p.push(asm::ecall());
        let (cpu, _) = run_program(&p, 200);
        assert_eq!(cpu.reg(2), 10);
    }

    #[test]
    fn jal_and_jalr_link() {
        let mut p = vec![];
        p.push(asm::jal(1, 12)); // skip two instructions
        p.push(asm::addi(2, 0, 99)); // skipped
        p.push(asm::ecall()); // skipped
        p.push(asm::jalr(3, 1, 0)); // jump back to pc=4
        let (cpu, _) = run_program(&p, 100);
        assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall));
        assert_eq!(cpu.reg(1), 4);
        assert_eq!(cpu.reg(2), 99);
        assert_eq!(cpu.reg(3), 16);
    }

    #[test]
    fn muldiv_results() {
        let mut p = vec![];
        p.extend(asm::li32(1, 7));
        p.extend(asm::li32(2, 0xFFFF_FFFD)); // -3
        p.push(asm::mul(3, 1, 2)); // -21
        p.push(asm::div(4, 2, 1)); // -3 / 7 = 0
        p.push(asm::rem(5, 2, 1)); // -3 % 7 = -3
        p.push(asm::divu(6, 2, 1)); // big / 7
        p.push(asm::mulhu(7, 2, 2));
        p.push(asm::ecall());
        let (cpu, _) = run_program(&p, 200);
        assert_eq!(cpu.reg(3) as i32, -21);
        assert_eq!(cpu.reg(4), 0);
        assert_eq!(cpu.reg(5) as i32, -3);
        assert_eq!(cpu.reg(6), 0xFFFF_FFFD / 7);
        assert_eq!(cpu.reg(7), ((0xFFFF_FFFDu64 * 0xFFFF_FFFDu64) >> 32) as u32);
    }

    #[test]
    fn division_by_zero_follows_spec() {
        let mut p = vec![];
        p.extend(asm::li32(1, 10));
        p.push(asm::div(2, 1, 0));
        p.push(asm::rem(3, 1, 0));
        p.push(asm::ecall());
        let (cpu, _) = run_program(&p, 100);
        assert_eq!(cpu.reg(2), u32::MAX);
        assert_eq!(cpu.reg(3), 10);
    }

    #[test]
    fn timing_alu_is_one_cycle() {
        let p = [asm::addi(1, 0, 1), asm::addi(2, 0, 2), asm::ecall()];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        cpu.tick(&mut bus, 0);
        assert_eq!(cpu.reg(1), 1);
        cpu.tick(&mut bus, 0);
        assert_eq!(cpu.reg(2), 2);
    }

    #[test]
    fn timing_load_takes_two_cycles() {
        let p = [asm::lw(1, 0, 0x100), asm::addi(2, 0, 1), asm::ecall()];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        bus.load(0x100, &[77]);
        let mut cpu = Cpu::new(0);
        cpu.tick(&mut bus, 0); // load issues + completes, stall 1
        assert_eq!(cpu.reg(1), 77);
        cpu.tick(&mut bus, 0); // stall cycle
        assert_eq!(cpu.reg(2), 0);
        cpu.tick(&mut bus, 0); // addi
        assert_eq!(cpu.reg(2), 1);
    }

    #[test]
    fn timing_taken_branch_three_cycles() {
        let p = [
            asm::beq(0, 0, 8), // taken: 3 cycles
            asm::ecall(),
            asm::addi(1, 0, 1),
            asm::ecall(),
        ];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        cpu.tick(&mut bus, 0);
        cpu.tick(&mut bus, 0);
        cpu.tick(&mut bus, 0);
        assert_eq!(cpu.reg(1), 0, "target not yet executed");
        cpu.tick(&mut bus, 0);
        assert_eq!(cpu.reg(1), 1);
    }

    #[test]
    fn slow_region_stalls_pipeline() {
        let p = [asm::lw(1, 0, 0x200), asm::addi(2, 0, 5), asm::ecall()];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        bus.load(0x200, &[123]);
        bus.set_slow_region(0x200, 4, 3);
        let mut cpu = Cpu::new(0);
        let used = cpu.run(&mut bus, 0, 100);
        assert_eq!(cpu.reg(1), 123);
        assert_eq!(cpu.reg(2), 5);
        assert!(used > 5, "waited on the slow bus ({used} cycles)");
    }

    #[test]
    fn wfi_sleeps_until_interrupt_then_vectors() {
        // mtvec = 0x100 (vectored); enable line 11; wfi; after wake the
        // handler at 0x100 + 4*11 runs and writes x5.
        let mut p = vec![];
        p.extend(asm::li32(1, 0x100));
        p.push(asm::csrrw(0, crate::csr::addr::MTVEC, 1));
        p.extend(asm::li32(2, 1 << 11));
        p.push(asm::csrrw(0, crate::csr::addr::MIE, 2));
        p.push(asm::csrrsi(0, crate::csr::addr::MSTATUS, 8)); // MIE
        p.push(asm::wfi());
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        bus.load(0x100 + 4 * 11, &[asm::jal(0, 0x100)]); // vector: jump to 0x22C
        bus.load(0x22C, &[asm::addi(5, 0, 42), asm::mret()]);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, 100);
        assert!(cpu.is_sleeping());
        let slept_at = cpu.cycles();
        // Hold the line high; core wakes, vectors, runs the handler.
        for _ in 0..40 {
            cpu.tick(&mut bus, 1 << 11);
        }
        assert_eq!(cpu.reg(5), 42);
        // Level-triggered line held high: the handler re-enters after each
        // mret, so at least one entry must have happened.
        assert!(cpu.irq_entries() >= 1);
        assert!(cpu.cycles() > slept_at);
        // mret returned after the wfi; with the line still pending the
        // handler re-enters (level-triggered), which is fine — what
        // matters here is that state was restored.
        assert!(cpu.csrs.mepc > 0);
    }

    #[test]
    fn interrupt_not_taken_when_disabled() {
        let p = [asm::addi(1, 1, 1), asm::jal(0, -4)];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        for _ in 0..50 {
            cpu.tick(&mut bus, 0xFFFF_FFFF);
        }
        assert_eq!(cpu.irq_entries(), 0);
    }

    #[test]
    fn illegal_instruction_halts_with_cause() {
        let (cpu, _) = run_program(&[0xFFFF_FFFF], 10);
        assert!(matches!(
            cpu.halt_cause(),
            Some(HaltCause::IllegalInstruction(_))
        ));
    }

    #[test]
    fn misaligned_word_access_faults() {
        let mut p = vec![];
        p.extend(asm::li32(1, 0x1001));
        p.push(asm::lw(2, 1, 0));
        let (cpu, _) = run_program(&p, 10);
        assert_eq!(
            cpu.halt_cause(),
            Some(HaltCause::BusFault { addr: 0x1001 })
        );
    }

    #[test]
    fn csr_set_clear_semantics() {
        let mut p = vec![];
        p.push(asm::csrrwi(0, crate::csr::addr::MSCRATCH, 0b1010));
        p.push(asm::csrrsi(1, crate::csr::addr::MSCRATCH, 0b0101)); // old in x1
        p.push(asm::csrrci(2, crate::csr::addr::MSCRATCH, 0b0011)); // old in x2
        p.push(asm::csrrs(3, crate::csr::addr::MSCRATCH, 0)); // read-only
        p.push(asm::ecall());
        let (cpu, _) = run_program(&p, 50);
        assert_eq!(cpu.reg(1), 0b1010);
        assert_eq!(cpu.reg(2), 0b1111);
        assert_eq!(cpu.reg(3), 0b1100);
    }

    #[test]
    fn activity_drain_reports_fetches_and_retires() {
        let (mut cpu, _) = run_program(&[asm::addi(1, 0, 1), asm::ecall()], 10);
        let mut a = ActivitySet::new();
        cpu.drain_activity(&mut a);
        assert_eq!(a.count("ibex", ActivityKind::InstrFetch), 2);
        assert!(a.count("ibex", ActivityKind::RegWrite) >= 1);
    }

    /// Packs two 16-bit parcels into a little-endian program word.
    fn pack16(lo: u16, hi: u16) -> u32 {
        u32::from(lo) | (u32::from(hi) << 16)
    }

    #[test]
    fn compressed_program_executes_with_halfword_pc() {
        // c.li a0, 5 ; c.li a1, 7 ; c.add a0, a1 ; c.ebreak
        let p = [
            pack16(0x4515, 0x459D), // c.li a0,5 | c.li a1,7
            pack16(0x952E, 0x9002), // c.add a0,a1 | c.ebreak
        ];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, 50);
        assert_eq!(cpu.halt_cause(), Some(HaltCause::Ebreak));
        assert_eq!(cpu.reg(10), 12);
        assert_eq!(cpu.retired(), 3);
    }

    #[test]
    fn straddling_32bit_instruction_costs_extra_fetch() {
        // c.nop, then a 32-bit addi straddling the word boundary.
        let addi = asm::addi(1, 0, 42);
        let p = [
            pack16(0x0001, (addi & 0xFFFF) as u16),
            pack16((addi >> 16) as u16, 0x9002), // ...addi hi | c.ebreak
        ];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, 50);
        assert_eq!(cpu.reg(1), 42);
        assert_eq!(cpu.halt_cause(), Some(HaltCause::Ebreak));
        // With the prefetch buffer: c.nop fetches word 0; the straddling
        // addi reuses word 0 and fetches word 1; c.ebreak reuses word 1.
        assert_eq!(bus.fetches, 2);
    }

    #[test]
    fn compressed_branch_and_jump_use_halfword_offsets() {
        // 0x0: c.beqz a0, +6  (a0 == 0 -> taken, to 0x6)
        // 0x2: c.li a1, 1     (skipped)
        // 0x4: c.li a2, 2     (skipped)
        // 0x6: c.li a3, 3
        // 0x8: c.ebreak
        let p = [
            pack16(0xC119, 0x4585), // c.beqz a0,+6 | c.li a1,1
            pack16(0x4609, 0x468D), // c.li a2,2 | c.li a3,3
            pack16(0x9002, 0x0001),
        ];
        let mut bus = SimpleBus::new(4096);
        bus.load(0, &p);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, 50);
        assert_eq!(cpu.reg(11), 0, "skipped");
        assert_eq!(cpu.reg(12), 0, "skipped");
        assert_eq!(cpu.reg(13), 3, "branch target executed");
    }

    #[test]
    fn compressed_code_halves_fetch_traffic() {
        // The same loop body in compressed form issues ~half the fetch
        // words of the 32-bit form (the memory-activity argument for C).
        // 32-bit: addi x5,x5,1 x20; ecall.
        let mut wide = vec![];
        for _ in 0..20 {
            wide.push(asm::addi(5, 5, 1));
        }
        wide.push(asm::ecall());
        let mut bus_w = SimpleBus::new(4096);
        bus_w.load(0, &wide);
        let mut cpu_w = Cpu::new(0);
        cpu_w.run(&mut bus_w, 0, 200);
        // Compressed: c.addi x5, 1 = 0x0285.
        let mut narrow = vec![];
        for _ in 0..10 {
            narrow.push(pack16(0x0285, 0x0285));
        }
        narrow.push(pack16(0x9002, 0x0001)); // c.ebreak
        let mut bus_n = SimpleBus::new(4096);
        bus_n.load(0, &narrow);
        let mut cpu_n = Cpu::new(0);
        cpu_n.run(&mut bus_n, 0, 200);
        assert_eq!(cpu_w.reg(5), 20);
        assert_eq!(cpu_n.reg(5), 20);
        assert!(
            bus_n.fetches <= bus_w.fetches / 2 + 2,
            "compressed {} vs wide {}",
            bus_n.fetches,
            bus_w.fetches
        );
    }

    #[test]
    fn minstret_counts_retired() {
        let (cpu, _) = run_program(
            &[asm::addi(1, 0, 1), asm::addi(2, 0, 2), asm::ecall()],
            10,
        );
        assert_eq!(cpu.csrs.minstret, 2); // ecall halts without retiring
        assert_eq!(cpu.retired(), 2);
    }
}
