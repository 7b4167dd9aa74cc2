//! Decoded-instruction cache correctness.
//!
//! The cache is a host-side accelerator only: every test here runs the
//! same program with the cache enabled and disabled and demands equal
//! `Cpu`s (whose equality is architectural: it leaves out the cache)
//! and identical fetch traffic.
//! Self-modifying code is the adversarial case — a cached decode of an
//! instruction the program has since overwritten must never execute.

use pels_cpu::{asm, Cpu, HaltCause, SimpleBus};

fn pack16(lo: u16, hi: u16) -> u32 {
    u32::from(lo) | (u32::from(hi) << 16)
}

fn fresh(program: &[u32], cache: bool) -> (Cpu, SimpleBus) {
    let mut bus = SimpleBus::new(64 * 1024);
    bus.load(0, program);
    let mut cpu = Cpu::new(0);
    cpu.set_decode_cache_enabled(cache);
    (cpu, bus)
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
    let p = self_modifying_program(true);
    for cache in [true, false] {
        let (mut cpu, mut bus) = fresh(&p, cache);
        cpu.run(&mut bus, 0, 200);
        assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall), "cache={cache}");
        assert_eq!(cpu.reg(5), 99, "patched instruction ran (cache={cache})");
    }
}

#[test]
fn self_modifying_code_is_safe_even_without_fence_i() {
    // Raw-bits re-verification on every hit means a stale decode can
    // never replay, fence or not — the fence is belt-and-braces, not a
    // correctness requirement of the model.
    let p = self_modifying_program(false);
    let (mut cpu, mut bus) = fresh(&p, true);
    cpu.run(&mut bus, 0, 200);
    assert_eq!(cpu.reg(5), 99);
}

#[test]
fn self_modifying_run_is_cycle_identical_with_cache_on_and_off() {
    let p = self_modifying_program(true);
    let (mut on, mut bus_on) = fresh(&p, true);
    on.run(&mut bus_on, 0, 200);
    let (mut off, mut bus_off) = fresh(&p, false);
    off.run(&mut bus_off, 0, 200);
    assert_eq!(on, off, "architectural state identical");
    assert_eq!(bus_on.fetches, bus_off.fetches, "fetch traffic identical");
    let (_, misses) = on.decode_cache_stats();
    assert!(misses > 0, "the run populated the cache");
    let (off_hits, off_misses) = off.decode_cache_stats();
    assert_eq!((off_hits, off_misses), (0, 0), "disabled cache stays cold");
}

#[test]
fn compressed_and_straddling_loop_identical_with_cache_on_and_off() {
    // A loop mixing a compressed parcel, a 32-bit instruction straddling
    // the word boundary (second fetch), a realigning c.nop and a
    // backward branch — the prefetch-buffer accounting cases. Ten
    // iterations give the cache plenty of hits.
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
    let run = |cache: bool| {
        let (mut cpu, mut bus) = fresh(&p, cache);
        cpu.set_reg(8, 10); // loop bound
        cpu.run(&mut bus, 0, 1_000);
        assert_eq!(cpu.halt_cause(), Some(HaltCause::Ecall));
        assert_eq!((cpu.reg(5), cpu.reg(6), cpu.reg(7)), (10, 10, 10));
        (cpu, bus.fetches)
    };
    let (on, fetches_on) = run(true);
    let (off, fetches_off) = run(false);
    assert_eq!(on, off, "per-instruction timing and state identical");
    assert_eq!(
        fetches_on, fetches_off,
        "fetch count (incl. straddling second fetch) identical"
    );
    let (hits, misses) = on.decode_cache_stats();
    assert!(hits > misses, "loop body hits after the first iteration");
}

/// Lockstep differential: the same program advanced in ragged cycle
/// budgets with the cache on and off must agree on the whole
/// architectural state at every budget boundary — including boundaries
/// that land mid-stall inside a `div` or between a load/store pair.
#[test]
fn ragged_run_budgets_match_with_cache_on_and_off() {
    let p = [
        asm::lui(5, 0x1000),    // 0x00
        asm::addi(5, 5, 37),    // 0x04
        asm::addi(6, 6, 3),     // 0x08
        asm::xor(7, 5, 6),      // 0x0C
        asm::mul(9, 6, 7),      // 0x10
        asm::div(11, 9, 6),     // 0x14: a 37-cycle step
        asm::sw(0, 11, 0x100),  // 0x18
        asm::lw(13, 0, 0x100),  // 0x1C
        asm::addi(10, 10, 1),   // 0x20
        asm::slt(12, 10, 8),    // 0x24
        asm::bne(12, 0, -0x28), // 0x28: loop while x10 < x8
        asm::ecall(),           // 0x2C
    ];
    let (mut on, mut bus_on) = fresh(&p, true);
    let (mut off, mut bus_off) = fresh(&p, false);
    on.set_reg(8, 21);
    off.set_reg(8, 21);
    let budgets = [1u64, 2, 3, 5, 7, 1, 4, 32, 2, 9, 64, 1, 1, 3, 128];
    'outer: loop {
        for &k in &budgets {
            on.run(&mut bus_on, 0, k);
            off.run(&mut bus_off, 0, k);
            assert_eq!(on, off, "state at budget {k}");
            assert_eq!(bus_on.fetches, bus_off.fetches, "fetches at budget {k}");
            if on.halt_cause().is_some() {
                break 'outer;
            }
        }
    }
    assert_eq!(on.halt_cause(), Some(HaltCause::Ecall));
    let (hits, _) = on.decode_cache_stats();
    assert!(hits > 0, "the loop body hit the cache");
}

#[test]
fn disabling_flushes_and_resets_stats() {
    let p = [asm::addi(1, 0, 7), asm::addi(2, 1, 1), asm::ecall()];
    let (mut cpu, mut bus) = fresh(&p, true);
    cpu.run(&mut bus, 0, 50);
    assert!(cpu.decode_cache_enabled());
    let (_, misses) = cpu.decode_cache_stats();
    assert!(misses > 0);
    cpu.set_decode_cache_enabled(false);
    assert!(!cpu.decode_cache_enabled());
    assert_eq!(cpu.decode_cache_stats(), (0, 0));
}
