//! Instruction-stream coherence and fetch accounting.
//!
//! Self-modifying code is the adversarial case: every fetch decodes the
//! bits it reads, so the target the program overwrites below runs in its
//! patched form, with or without `fence.i`. The compressed and
//! straddling loop pins the prefetch buffer's fetch count.

use pels_cpu::{asm, Cpu, HaltCause, SimpleBus};

fn pack16(lo: u16, hi: u16) -> u32 {
    u32::from(lo) | (u32::from(hi) << 16)
}

fn fresh(program: &[u32]) -> (Cpu, SimpleBus) {
    let mut bus = SimpleBus::new(64 * 1024);
    bus.load(0, program);
    (Cpu::new(0), bus)
}

/// Executes a target instruction, patches it through a store, issues
/// `fence.i`, and re-executes it. Layout (word addresses):
///
/// ```text
/// 0x00 li32 x1, 0x60          target address
/// 0x08 li32 x2, <patched>     addi x5, x0, 99
/// 0x10 jal  0x60              first execution of the original target
/// 0x14 bne  x6, x0, 0x28      second return → done
/// 0x18 addi x6, x0, 1
/// 0x1C sw   x2, 0(x1)         patch the target
/// 0x20 fence.i
/// 0x24 jal  0x60              re-execute the (patched) target
/// 0x28 ecall
/// 0x60 addi x5, x0, 1         the target (overwritten with x5 ← 99)
/// 0x64 jal  0x14              back to the return site
/// ```
fn self_modifying_program(with_fence: bool) -> Vec<u32> {
    let mut p = vec![0u32; 0x68 / 4];
    let mut at = |addr: usize, words: &[u32]| {
        for (i, &w) in words.iter().enumerate() {
            p[addr / 4 + i] = w;
        }
    };
    at(0x00, &asm::li32(1, 0x60));
    at(0x08, &asm::li32(2, asm::addi(5, 0, 99)));
    at(0x10, &[asm::jal(0, 0x60 - 0x10)]);
    at(0x14, &[asm::bne(6, 0, 0x28 - 0x14)]);
    at(0x18, &[asm::addi(6, 0, 1)]);
    at(0x1C, &[asm::sw(1, 2, 0)]);
    at(
        0x20,
        &[if with_fence {
            asm::fence_i()
        } else {
            asm::addi(0, 0, 0) // nop placeholder: same length, no fence
        }],
    );
    at(0x24, &[asm::jal(0, 0x60 - 0x24)]);
    at(0x28, &[asm::ecall()]);
    at(0x60, &[asm::addi(5, 0, 1)]);
    at(0x64, &[asm::jal(0, 0x14 - 0x64)]);
    p
}

#[test]
fn self_modifying_code_with_fence_i_executes_patched_instruction() {
    let (mut cpu, mut bus) = fresh(&self_modifying_program(true));
    cpu.run(&mut bus, 0, 200);
    assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall));
    assert_eq!(cpu.reg(5), 99, "patched instruction ran");
    // `fence.i` retires in one ALU cycle, as it always has.
    assert_eq!((cpu.cycles(), cpu.retired()), (23, 15));
}

#[test]
fn self_modifying_code_is_safe_even_without_fence_i() {
    // Each fetch decodes the word it reads, so the store alone makes the
    // patched instruction visible; the model does not need the fence.
    let (mut cpu, mut bus) = fresh(&self_modifying_program(false));
    cpu.run(&mut bus, 0, 200);
    assert_eq!(cpu.reg(5), 99);
}

#[test]
fn compressed_and_straddling_loop_fetch_count_is_pinned() {
    // A loop mixing a compressed parcel, a 32-bit instruction straddling
    // the word boundary (second fetch), a realigning c.nop and a
    // backward branch — the prefetch-buffer accounting cases.
    let addi6 = asm::addi(6, 6, 1);
    let p = [
        // 0x0: c.addi x5,1 | 0x2: addi x6,x6,1 (straddles into word 1)
        pack16(0x0285, (addi6 & 0xFFFF) as u16),
        // 0x6: c.nop
        pack16((addi6 >> 16) as u16, 0x0001),
        asm::addi(7, 7, 1),   // 0x8
        asm::bne(7, 8, -0xC), // 0xC: loop while x7 != x8
        asm::ecall(),         // 0x10
    ];
    let (mut cpu, mut bus) = fresh(&p);
    cpu.set_reg(8, 10); // loop bound
    cpu.run(&mut bus, 0, 1_000);
    assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall));
    assert_eq!((cpu.reg(5), cpu.reg(6), cpu.reg(7)), (10, 10, 10));
    assert_eq!(bus.fetches, 41, "fetch count (incl. straddling second fetch)");
    assert_eq!((cpu.cycles(), cpu.retired()), (69, 50));
}
