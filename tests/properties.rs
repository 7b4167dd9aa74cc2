//! Randomized property tests on the core invariants: the 48-bit command
//! encoding, the assembler, the event vector, the simulation crate's
//! data structures, and the CPU's arithmetic against reference
//! implementations.
//!
//! Each test draws its cases from a seeded [`Rng`] so the suite is fully
//! deterministic and needs no external property-testing crate. A failing
//! case prints its iteration index; re-running reproduces it exactly.

use pels_repro::core::{
    assemble, decode_command, encode_command, ActionMode, Command, Cond, Program,
};
use pels_repro::cpu::{asm, Cpu, SimpleBus};
use pels_repro::sim::{EventVector, Fifo, Rng};

const CASES: usize = 256;

/// Draws any encodable command.
fn arb_command(rng: &mut Rng) -> Command {
    let offset = (rng.next_u32() & 0xFFF) as u16;
    let target = (rng.next_u32() & 0x1FF) as u16;
    let value = rng.next_u32();
    let cond = [
        Cond::Eq,
        Cond::Ne,
        Cond::LtU,
        Cond::GeU,
        Cond::LtS,
        Cond::GeS,
    ][rng.index(6)];
    let mode = [
        ActionMode::Pulse,
        ActionMode::Set,
        ActionMode::Clear,
        ActionMode::Toggle,
    ][rng.index(4)];
    match rng.index(11) {
        0 => Command::Nop,
        1 => Command::Halt,
        2 => Command::Write { offset, value },
        3 => Command::Set {
            offset,
            mask: value,
        },
        4 => Command::Clear {
            offset,
            mask: value,
        },
        5 => Command::Toggle {
            offset,
            mask: value,
        },
        6 => Command::Capture {
            offset,
            mask: value,
        },
        7 => Command::JumpIf {
            cond,
            target,
            operand: value,
        },
        8 => Command::Loop {
            target,
            count: value,
        },
        9 => Command::Wait { cycles: value },
        _ => Command::Action {
            mode,
            group: rng.index(2) as u8,
            mask: value,
        },
    }
}

/// Every encodable command decodes back to itself, and fits 48 bits.
#[test]
fn command_encoding_roundtrips() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0001);
    for case in 0..CASES {
        let cmd = arb_command(&mut rng);
        let raw = encode_command(&cmd).expect("generator only builds encodable commands");
        assert!(raw >> 48 == 0, "case {case}: 48-bit encoding for {cmd:?}");
        assert_eq!(
            decode_command(raw).expect("encoded word decodes"),
            cmd,
            "case {case}"
        );
    }
}

/// The assembler parses the `Display` rendering of any command back to
/// the same command (the textual syntax is lossless). Jump/loop targets
/// are kept valid by padding the program with `nop` lines.
#[test]
fn assembler_roundtrips_display() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0002);
    for case in 0..CASES {
        let cmd = arb_command(&mut rng);
        let mut text = cmd.to_string();
        for _ in 0..512 {
            text.push_str("\nnop");
        }
        let program =
            assemble(&text).unwrap_or_else(|e| panic!("case {case}: `{cmd}` failed: {e}"));
        assert_eq!(program.commands().len(), 513, "case {case}");
        assert_eq!(program.commands()[0], cmd, "case {case}");
    }
}

/// Program validation accepts exactly the in-range jump targets.
#[test]
fn program_validation_checks_targets() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0003);
    for case in 0..CASES {
        let target = rng.next_below(32) as u16;
        let len = rng.range_u64(1, 16) as usize;
        let mut cmds = vec![Command::Nop; len];
        cmds.push(Command::JumpIf {
            cond: Cond::Eq,
            target,
            operand: 0,
        });
        let total = cmds.len();
        let result = Program::new(cmds);
        assert_eq!(
            result.is_ok(),
            usize::from(target) < total,
            "case {case}: target {target} in len {total}"
        );
    }
}

/// EventVector behaves exactly like its u64 bit image.
#[test]
fn event_vector_matches_u64_semantics() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0004);
    for case in 0..CASES {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let line = rng.next_below(64) as u32;
        let va = EventVector::from_bits(a);
        let vb = EventVector::from_bits(b);
        assert_eq!((va | vb).bits(), a | b, "case {case}");
        assert_eq!((va & vb).bits(), a & b, "case {case}");
        assert_eq!((!va).bits(), !a, "case {case}");
        assert_eq!(va.is_set(line), a & (1 << line) != 0, "case {case}");
        assert_eq!(va.count(), a.count_ones(), "case {case}");
        let collected: EventVector = va.iter().collect();
        assert_eq!(collected, va, "case {case}");
    }
}

/// The FIFO is a bounded queue: contents always equal a reference
/// VecDeque truncated at capacity.
#[test]
fn fifo_matches_reference_queue() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0005);
    for case in 0..CASES {
        let capacity = rng.index(8);
        let ops = rng.index(64);
        let mut fifo = Fifo::new(capacity);
        let mut reference = std::collections::VecDeque::new();
        for op in 0..ops {
            if rng.bool() {
                let v = rng.next_u32() as u8;
                let accepted = fifo.push_lossy(v);
                if reference.len() < capacity {
                    reference.push_back(v);
                    assert!(accepted, "case {case} op {op}");
                } else {
                    assert!(!accepted, "case {case} op {op}");
                }
            } else {
                assert_eq!(fifo.pop(), reference.pop_front(), "case {case} op {op}");
            }
            assert_eq!(fifo.len(), reference.len(), "case {case} op {op}");
        }
    }
}

/// CPU ALU instructions agree with Rust's wrapping integer semantics.
#[test]
fn cpu_alu_matches_reference() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0007);
    for case in 0..128 {
        // Mix raw draws with corner values so the interesting boundaries
        // are always hit.
        let corner = [0u32, 1, 31, 32, 0x7FFF_FFFF, 0x8000_0000, u32::MAX];
        let a = if rng.ratio(1, 4) { corner[rng.index(7)] } else { rng.next_u32() };
        let b = if rng.ratio(1, 4) { corner[rng.index(7)] } else { rng.next_u32() };
        let mut program = Vec::new();
        program.extend(asm::li32(1, a));
        program.extend(asm::li32(2, b));
        program.push(asm::add(3, 1, 2));
        program.push(asm::sub(4, 1, 2));
        program.push(asm::xor(5, 1, 2));
        program.push(asm::and(6, 1, 2));
        program.push(asm::or(7, 1, 2));
        program.push(asm::sltu(8, 1, 2));
        program.push(asm::slt(9, 1, 2));
        program.push(asm::sll(20, 1, 2));
        program.push(asm::srl(21, 1, 2));
        program.push(asm::sra(22, 1, 2));
        program.push(asm::ecall());
        let mut bus = SimpleBus::new(64 * 1024);
        bus.load(0, &program);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, 200);
        assert_eq!(cpu.reg(3), a.wrapping_add(b), "case {case}: add {a:#x} {b:#x}");
        assert_eq!(cpu.reg(4), a.wrapping_sub(b), "case {case}: sub {a:#x} {b:#x}");
        assert_eq!(cpu.reg(5), a ^ b, "case {case}");
        assert_eq!(cpu.reg(6), a & b, "case {case}");
        assert_eq!(cpu.reg(7), a | b, "case {case}");
        assert_eq!(cpu.reg(8), u32::from(a < b), "case {case}");
        assert_eq!(cpu.reg(9), u32::from((a as i32) < (b as i32)), "case {case}");
        assert_eq!(cpu.reg(20), a.wrapping_shl(b & 31), "case {case}");
        assert_eq!(cpu.reg(21), a.wrapping_shr(b & 31), "case {case}");
        assert_eq!(
            cpu.reg(22),
            ((a as i32).wrapping_shr(b & 31)) as u32,
            "case {case}"
        );
    }
}

/// M-extension results match 64-bit reference math, including the RISC-V
/// division corner cases.
#[test]
fn cpu_muldiv_matches_reference() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0008);
    for case in 0..128 {
        let corner = [0u32, 1, 0x7FFF_FFFF, 0x8000_0000, u32::MAX];
        let a = if rng.ratio(1, 4) { corner[rng.index(5)] } else { rng.next_u32() };
        let b = if rng.ratio(1, 4) { corner[rng.index(5)] } else { rng.next_u32() };
        let mut program = Vec::new();
        program.extend(asm::li32(1, a));
        program.extend(asm::li32(2, b));
        program.push(asm::mul(3, 1, 2));
        program.push(asm::mulhu(4, 1, 2));
        program.push(asm::mulh(5, 1, 2));
        program.push(asm::divu(6, 1, 2));
        program.push(asm::remu(7, 1, 2));
        program.push(asm::div(8, 1, 2));
        program.push(asm::rem(9, 1, 2));
        program.push(asm::ecall());
        let mut bus = SimpleBus::new(64 * 1024);
        bus.load(0, &program);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, 400);
        assert_eq!(cpu.reg(3), a.wrapping_mul(b), "case {case}: mul {a:#x} {b:#x}");
        assert_eq!(
            cpu.reg(4),
            ((u64::from(a) * u64::from(b)) >> 32) as u32,
            "case {case}"
        );
        assert_eq!(
            cpu.reg(5),
            (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
            "case {case}"
        );
        let divu = a.checked_div(b).unwrap_or(u32::MAX);
        let remu = a.checked_rem(b).unwrap_or(a);
        assert_eq!(cpu.reg(6), divu, "case {case}");
        assert_eq!(cpu.reg(7), remu, "case {case}");
        let (div, rem) = if b == 0 {
            (u32::MAX, a)
        } else if a == 0x8000_0000 && b == u32::MAX {
            (a, 0)
        } else {
            (
                ((a as i32).wrapping_div(b as i32)) as u32,
                ((a as i32).wrapping_rem(b as i32)) as u32,
            )
        };
        assert_eq!(cpu.reg(8), div, "case {case}: div {a:#x} {b:#x}");
        assert_eq!(cpu.reg(9), rem, "case {case}: rem {a:#x} {b:#x}");
    }
}

/// Loads and stores of every width round-trip through memory for
/// arbitrary values and (aligned) addresses.
#[test]
fn cpu_memory_roundtrips() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0009);
    for case in 0..128 {
        let value = rng.next_u32();
        let word = rng.next_below(64) as u32;
        let addr = 0x1000 + word * 4;
        let mut program = Vec::new();
        program.extend(asm::li32(1, addr));
        program.extend(asm::li32(2, value));
        program.push(asm::sw(1, 2, 0));
        program.push(asm::lw(3, 1, 0));
        program.push(asm::lhu(4, 1, 0));
        program.push(asm::lhu(5, 1, 2));
        program.push(asm::lbu(6, 1, 0));
        program.push(asm::lbu(7, 1, 3));
        program.push(asm::ecall());
        let mut bus = SimpleBus::new(64 * 1024);
        bus.load(0, &program);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut bus, 0, 100);
        assert_eq!(cpu.reg(3), value, "case {case}");
        assert_eq!(cpu.reg(4), value & 0xFFFF, "case {case}");
        assert_eq!(cpu.reg(5), value >> 16, "case {case}");
        assert_eq!(cpu.reg(6), value & 0xFF, "case {case}");
        assert_eq!(cpu.reg(7), value >> 24, "case {case}");
    }
}

/// The RV32 decoder never panics on arbitrary words.
#[test]
fn rv32_decoder_total_on_arbitrary_words() {
    let mut rng = Rng::seed_from_u64(0xC0DE_000A);
    for _ in 0..4096 {
        let word = rng.next_u32();
        let pc = rng.next_u32() & !1;
        let _ = pels_repro::cpu::decode(word, pc);
    }
}

/// The compressed decoder never panics on arbitrary halfwords, and only
/// claims parcels whose low bits are not `11`. Exhaustive — the space is
/// only 2^16.
#[test]
fn rv32c_decoder_total_on_arbitrary_halfwords() {
    use pels_repro::cpu::{decode_compressed, is_compressed};
    for half in 0..=u16::MAX {
        let r = decode_compressed(half, 0);
        if half & 0b11 == 0b11 {
            // A 32-bit parcel is never a valid compressed instruction;
            // our decoder may still be called on it by fuzzers — it must
            // just return an error, not nonsense.
            assert!(!is_compressed(half));
        }
        let _ = r;
    }
}

/// Running the CPU on arbitrary memory images never panics: illegal
/// instructions halt cleanly with a cause.
#[test]
fn cpu_survives_random_memory() {
    let mut rng = Rng::seed_from_u64(0xC0DE_000B);
    for case in 0..128 {
        let len = rng.range_u64(8, 64) as usize;
        let words: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
        let mut bus = pels_repro::cpu::SimpleBus::new(64 * 1024);
        bus.load(0, &words);
        let mut cpu = pels_repro::cpu::Cpu::new(0);
        cpu.run(&mut bus, 0, 500);
        // Either still running (looping in random code), sleeping, or
        // halted with a recorded cause — never a panic, never a wedge
        // that `run` cannot bound.
        assert!(cpu.cycles() <= 500, "case {case}");
    }
}

/// PELS config space is total: no offset/value pair panics, and a
/// register that accepts writes must be readable. Exhaustive over the
/// 4 KiB aligned window.
#[test]
fn pels_config_space_is_total() {
    let mut rng = Rng::seed_from_u64(0xC0DE_000C);
    let mut pels = pels_repro::core::Pels::new(pels_repro::core::PelsConfig {
        links: 2,
        ..pels_repro::core::PelsConfig::default()
    });
    for offset in (0u32..0x1000).step_by(4) {
        let value = rng.next_u32();
        let w = pels.config_write(offset, value);
        let r = pels.config_read(offset);
        if w.is_ok() {
            assert!(
                r.is_ok(),
                "offset {offset:#x} accepted a write but rejects reads"
            );
        }
    }
}
