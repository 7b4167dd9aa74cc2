//! Golden pin of the APB fabric's cycle behaviour.
//!
//! A seeded random request stream drives every topology × arbitration
//! policy, plus two 65-master fabrics (64 PELS links and the CPU is the
//! largest SoC a description can ask for). Each case folds everything a
//! bus master or the SoC scheduler can observe into one FNV-1a digest:
//!
//! * every response — master, `completed_cycle`, request and result;
//! * `touched_slaves`, `targeted_slaves` and `write_commits` after every
//!   tick, and `targeted_slaves` after every issue phase;
//! * the final [`FabricStats`] and every master's [`MasterStats`].
//!
//! The digests and stats were recorded from the original fabric, so any
//! internal rework (decode caching, allocation-free arbitration) has to
//! reproduce its grant order and timing exactly.

use pels_interconnect::{
    AddrRange, ApbFabric, ApbRequest, ArbiterKind, BusError, FabricStats, MemorySlave, Topology,
};

/// SplitMix64: the stream generator (kept local so the pin does not move
/// when a shared RNG changes).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn result_word(r: Result<u32, BusError>) -> u64 {
    match r {
        Ok(v) => u64::from(v),
        Err(BusError::Decode { addr }) => 1 << 40 | u64::from(addr),
        Err(BusError::Slave { addr }) => 2 << 40 | u64::from(addr),
        Err(e) => panic!("unexpected bus error {e}"),
    }
}

/// Slave bases (each 0x100 bytes, wait states 0, 1, 0, 3).
const SLAVES: [(u32, u32); 4] = [(0x1000, 0), (0x2000, 1), (0x3000, 0), (0x4000, 3)];

/// A random request: mostly mapped word accesses, some misaligned or
/// past-the-end offsets (slave errors) and some unmapped addresses
/// (decode errors).
fn random_request(rng: &mut SplitMix64) -> ApbRequest {
    let addr = match rng.below(10) {
        0 => 0xDEAD_0000 + (rng.below(4) as u32) * 4,
        1 => SLAVES[rng.below(4) as usize].0 + 0x80 + (rng.below(8) as u32) * 4 + 2,
        _ => SLAVES[rng.below(4) as usize].0 + (rng.below(0x20) as u32) * 4,
    };
    if rng.below(2) == 0 {
        ApbRequest::read(addr)
    } else {
        ApbRequest::write(addr, rng.next() as u32)
    }
}

/// Runs one case and returns its digest and aggregate stats.
fn run_case(
    topology: Topology,
    arbiter: ArbiterKind,
    masters: usize,
    issue_pct: u64,
    cycles: u64,
    seed: u64,
) -> (u64, FabricStats) {
    let mut rng = SplitMix64(seed);
    let mut fabric: ApbFabric<MemorySlave> = ApbFabric::with_config(topology, arbiter);
    let ids: Vec<_> = (0..masters)
        .map(|m| fabric.add_master(format!("golden.m{m}")))
        .collect();
    for (base, waits) in SLAVES {
        // 0x80-byte memories in 0x100-byte windows: the upper half of
        // each window decodes but the slave rejects it.
        fabric.add_slave(
            AddrRange::new(base, 0x100),
            MemorySlave::with_wait_states(0x80, waits),
        );
    }
    let mut d = Digest::new();
    for _ in 0..cycles {
        for (m, &id) in ids.iter().enumerate() {
            if let Some(resp) = fabric.take_response(id) {
                d.word(m as u64);
                d.word(resp.completed_cycle);
                d.word(u64::from(resp.request.addr));
                d.word(u64::from(resp.request.is_write()));
                d.word(u64::from(resp.request.wdata));
                d.word(result_word(resp.result));
            }
            if fabric.can_issue(id) && rng.below(100) < issue_pct {
                fabric.issue(id, random_request(&mut rng)).unwrap();
            }
        }
        d.word(fabric.targeted_slaves());
        fabric.tick();
        d.word(fabric.touched_slaves());
        d.word(fabric.targeted_slaves());
        d.word(u64::from(fabric.is_quiescent()));
        for &(slave, master) in fabric.write_commits() {
            d.word((slave as u64) << 32 | master as u64);
        }
    }
    let stats = fabric.stats();
    for w in [
        stats.transfers,
        stats.reads,
        stats.writes,
        stats.stall_cycles,
        stats.busy_cycles,
        stats.decode_errors,
        stats.slave_errors,
    ] {
        d.word(w);
    }
    for m in fabric.master_stats() {
        d.word(m.grants);
        d.word(m.stall_cycles);
    }
    (d.0, stats)
}

fn check(case: (u64, FabricStats), digest: u64, stats: FabricStats) {
    assert_eq!(case, (digest, stats), "fabric behaviour moved");
}

fn stats(t: [u64; 7]) -> FabricStats {
    FabricStats {
        transfers: t[0],
        reads: t[1],
        writes: t[2],
        stall_cycles: t[3],
        busy_cycles: t[4],
        decode_errors: t[5],
        slave_errors: t[6],
    }
}

#[test]
fn golden_shared_round_robin() {
    let case = run_case(Topology::Shared, ArbiterKind::RoundRobin, 5, 30, 3_000, 1);
    check(
        case,
        0x63B1_E140_3A25_33CE,
        stats([1044, 484, 560, 9705, 3000, 125, 103]),
    );
}

#[test]
fn golden_shared_fixed_priority() {
    let case = run_case(
        Topology::Shared,
        ArbiterKind::FixedPriority,
        5,
        30,
        3_000,
        2,
    );
    check(
        case,
        0xA1EF_AF48_FC39_908D,
        stats([1043, 517, 526, 9450, 3000, 82, 115]),
    );
}

#[test]
fn golden_crossbar_round_robin() {
    let case = run_case(
        Topology::PerSlaveCrossbar,
        ArbiterKind::RoundRobin,
        5,
        30,
        3_000,
        3,
    );
    check(
        case,
        0x9529_8556_4545_96A9,
        stats([2279, 1122, 1157, 2885, 2981, 209, 228]),
    );
}

#[test]
fn golden_crossbar_fixed_priority() {
    let case = run_case(
        Topology::PerSlaveCrossbar,
        ArbiterKind::FixedPriority,
        5,
        30,
        3_000,
        4,
    );
    check(
        case,
        0x0AF6_3CA4_CFEE_B22D,
        stats([2171, 1084, 1087, 3451, 2996, 241, 201]),
    );
}

#[test]
fn golden_sparse_traffic_with_quiescent_gaps() {
    let case = run_case(Topology::Shared, ArbiterKind::RoundRobin, 3, 2, 5_000, 5);
    check(
        case,
        0xC432_E3C1_4BE0_0B8A,
        stats([296, 147, 149, 31, 866, 32, 32]),
    );
}

#[test]
fn golden_65_masters_crossbar_round_robin() {
    let case = run_case(
        Topology::PerSlaveCrossbar,
        ArbiterKind::RoundRobin,
        65,
        5,
        2_000,
        6,
    );
    check(
        case,
        0x0489_B582_0B62_D149,
        stats([1920, 953, 967, 86802, 2000, 199, 183]),
    );
}

#[test]
fn golden_65_masters_shared_fixed_priority() {
    let case = run_case(
        Topology::Shared,
        ArbiterKind::FixedPriority,
        65,
        5,
        2_000,
        7,
    );
    check(
        case,
        0xDB0F_2FF5_3213_2ABE,
        stats([685, 350, 335, 113326, 2000, 76, 66]),
    );
}
