//! Randomized tests on PELS behavioural invariants: trigger accounting,
//! latency determinism, program robustness, arbiter fairness and
//! power-model monotonicity. Seeded [`Rng`] draws keep the suite
//! deterministic without an external property-testing crate.

use pels_repro::core::pels::NoBus;
use pels_repro::core::{
    ActionMode, Command, Cond, Pels, PelsConfig, Program, TriggerCond, TriggerUnit,
};
use pels_repro::interconnect::{Arbiter, ArbiterKind};
use pels_repro::power::{Calibration, PowerModel};
use pels_repro::sim::{ActivityKind, ActivitySet, EventVector, Rng, SimTime, Trace};

/// Random *terminating* program: no `loop` commands with a jump-back
/// (forward-only control flow), bounded waits.
fn arb_terminating_program(rng: &mut Rng, max_len: usize) -> Program {
    let len = 1 + rng.index(max_len - 1);
    let mut cmds: Vec<Command> = (0..len)
        .map(|_| match rng.index(3) {
            0 => Command::Nop,
            1 => Command::Wait {
                cycles: rng.next_below(20) as u32,
            },
            _ => Command::Action {
                mode: ActionMode::Pulse,
                group: rng.index(2) as u8,
                mask: rng.next_u32(),
            },
        })
        .collect();
    cmds.push(Command::Halt);
    Program::new(cmds).expect("generated commands are always valid")
}

/// Any bus-free program terminates: the link returns to idle within a
/// budget bounded by its wait cycles, and never panics.
#[test]
fn random_programs_terminate() {
    let mut rng = Rng::seed_from_u64(0x9E15_0001);
    for case in 0..128 {
        let program = arb_terminating_program(&mut rng, 12);
        let mut pels = Pels::new(PelsConfig {
            scm_lines: 16,
            ..PelsConfig::default()
        });
        pels.link_mut(0).set_mask(EventVector::mask_of(&[0]));
        pels.link_mut(0).load_program(&program).expect("16-line scm fits");
        let mut trace = Trace::new();
        let mut bus = NoBus;
        let mut events = EventVector::mask_of(&[0]);
        let budget = 16 * 2 + 20 * 16 + 8;
        let mut idle_at = None;
        for cycle in 0..budget {
            pels.tick(events, SimTime::from_ps(cycle * 1000), &mut bus, &mut trace);
            events = EventVector::EMPTY;
            if cycle > 2 && !pels.is_busy() {
                idle_at = Some(cycle);
                break;
            }
        }
        assert!(
            idle_at.is_some(),
            "case {case}: program must halt within {budget} cycles"
        );
    }
}

/// The instant-action latency is exactly 2 cycles for any action payload
/// and any trigger mask containing the event line — the fixed-latency
/// guarantee the paper sells.
#[test]
fn instant_latency_is_payload_independent() {
    let mut rng = Rng::seed_from_u64(0x9E15_0002);
    for case in 0..128 {
        let mask = rng.next_u32().max(1);
        let group = rng.index(2) as u8;
        let extra_lines = rng.next_u32() as u16;
        let trigger_line = 5u32;
        let mut listen = EventVector::mask_of(&[trigger_line]);
        // Add arbitrary other lines to the mask; they must not matter
        // under the `any` condition when only line 5 pulses.
        for b in 0..16 {
            if extra_lines & (1 << b) != 0 {
                listen.set(16 + b);
            }
        }
        let mut pels = Pels::new(PelsConfig::default());
        pels.link_mut(0).set_mask(listen).set_condition(TriggerCond::Any);
        pels.link_mut(0)
            .load_program(
                &Program::new(vec![
                    Command::Action {
                        mode: ActionMode::Pulse,
                        group,
                        mask,
                    },
                    Command::Halt,
                ])
                .expect("valid"),
            )
            .expect("fits");
        let mut trace = Trace::new();
        let mut bus = NoBus;
        let mut outs = Vec::new();
        for cycle in 0..6u64 {
            let ev = if cycle == 0 {
                EventVector::mask_of(&[trigger_line])
            } else {
                EventVector::EMPTY
            };
            outs.push(pels.tick(ev, SimTime::from_ps(cycle * 1000), &mut bus, &mut trace));
        }
        let expected = EventVector::from_bits(u64::from(mask) << (32 * u64::from(group)));
        assert!(outs[0].is_empty(), "case {case}");
        assert!(outs[1].is_empty(), "case {case}");
        assert_eq!(outs[2], expected, "case {case}: pulse exactly at cycle 2");
        assert!(outs[3].is_empty(), "case {case}");
    }
}

/// Trigger accounting conservation: pops + pending + drops equals the
/// number of accepted triggers, for arbitrary event sequences.
#[test]
fn trigger_unit_conserves_tokens() {
    let mut rng = Rng::seed_from_u64(0x9E15_0003);
    for case in 0..256 {
        let depth = rng.index(6);
        let n_events = 1 + rng.index(63);
        let mask = rng.next_u64();
        let pop_every = rng.range_u64(1, 5) as usize;
        let mut t = TriggerUnit::new(depth);
        t.set_mask(EventVector::from_bits(mask));
        let mut pops = 0u64;
        for i in 0..n_events {
            t.sample(EventVector::from_bits(rng.next_u64()), i as u64);
            if i % pop_every == 0 && t.pop().is_some() {
                pops += 1;
            }
        }
        let pending = t.pending() as u64;
        assert_eq!(
            t.triggers(),
            pops + pending + t.drops(),
            "case {case}: depth {depth} mask {mask:#x}"
        );
        assert!(pending <= depth as u64, "case {case}");
    }
}

/// Round-robin fairness: for persistent requesters, grant counts never
/// differ by more than one, for any requester subset.
#[test]
fn round_robin_is_fair_for_any_subset() {
    let mut rng = Rng::seed_from_u64(0x9E15_0004);
    let mut cases = 0;
    while cases < 128 {
        let n = 1 + rng.index(7);
        let subset = rng.next_u32() as u8;
        let rounds = rng.range_u64(10, 200) as usize;
        let requests: Vec<bool> = (0..n).map(|i| subset & (1 << i) != 0).collect();
        if !requests.iter().any(|&r| r) {
            continue;
        }
        cases += 1;
        let mut rr = Arbiter::new(ArbiterKind::RoundRobin);
        let mut grants = vec![0u64; n];
        for _ in 0..rounds {
            let g = rr.grant(&requests).expect("someone requests");
            assert!(requests[g], "only requesters are granted");
            grants[g] += 1;
        }
        let active: Vec<u64> = grants
            .iter()
            .zip(&requests)
            .filter(|(_, &r)| r)
            .map(|(&g, _)| g)
            .collect();
        let min = active.iter().min().expect("non-empty");
        let max = active.iter().max().expect("non-empty");
        assert!(
            max - min <= 1,
            "grants {grants:?} for requests {requests:?}"
        );
    }
}

/// Power is monotone in activity: adding events never lowers the
/// reported total.
#[test]
fn power_is_monotone_in_activity() {
    let mut rng = Rng::seed_from_u64(0x9E15_0005);
    let kinds = [
        ActivityKind::SramRead,
        ActivityKind::BusTransfer,
        ActivityKind::InstrRetired,
        ActivityKind::ClockCycle,
    ];
    for case in 0..256 {
        let mut model = PowerModel::new(Calibration::tsmc65());
        model.add_component("x", 20.0);
        let mut a = ActivitySet::new();
        for _ in 0..rng.index(16) {
            a.record_named("x", kinds[rng.index(4)], rng.next_below(1000));
        }
        let extra_kind = rng.index(4);
        let extra = rng.range_u64(1, 1000);
        let window = SimTime::from_us(10);
        let before = model.report(&a, window).total().as_uw();
        a.record_named("x", kinds[extra_kind], extra);
        let after = model.report(&a, window).total().as_uw();
        assert!(after >= before, "case {case}: {after} < {before}");
    }
}

/// A `jump-if` with any condition either falls through or redirects —
/// and the destination command executes in both cases (no lost control
/// flow), for arbitrary operands and datapath values.
#[test]
fn jump_if_always_reaches_a_pulse() {
    let mut rng = Rng::seed_from_u64(0x9E15_0006);
    let conds = [
        Cond::Eq,
        Cond::Ne,
        Cond::LtU,
        Cond::GeU,
        Cond::LtS,
        Cond::GeS,
    ];
    for case in 0..128 {
        let cond = conds[rng.index(6)];
        let operand = if rng.ratio(1, 4) { 0 } else { rng.next_u32() };
        // dpr is 0 (no capture ran). Both paths pulse a different line.
        let program = Program::new(vec![
            Command::JumpIf {
                cond,
                target: 3,
                operand,
            },
            Command::Action {
                mode: ActionMode::Pulse,
                group: 0,
                mask: 1,
            },
            Command::Halt,
            Command::Action {
                mode: ActionMode::Pulse,
                group: 0,
                mask: 2,
            },
        ])
        .expect("valid");
        let mut pels = Pels::new(PelsConfig::default());
        pels.link_mut(0).set_mask(EventVector::mask_of(&[0]));
        pels.link_mut(0).load_program(&program).expect("fits");
        let mut trace = Trace::new();
        let mut bus = NoBus;
        let mut seen = EventVector::EMPTY;
        let mut ev = EventVector::mask_of(&[0]);
        for cycle in 0..12u64 {
            seen |= pels.tick(ev, SimTime::from_ps(cycle * 1000), &mut bus, &mut trace);
            ev = EventVector::EMPTY;
        }
        let taken = cond.eval(0, operand);
        assert_eq!(
            seen.is_set(1),
            taken,
            "case {case}: taken path pulses line 1"
        );
        assert_eq!(
            seen.is_set(0),
            !taken,
            "case {case}: fall-through pulses line 0"
        );
        assert!(!pels.is_busy(), "case {case}: program halted either way");
    }
}
