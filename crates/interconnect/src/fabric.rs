//! The bus fabric: master ports, decode, arbitration and APB phase timing.

use crate::addr::{AddrRange, AddressMap};
use crate::apb::{ApbRequest, ApbResponse, ApbSlave, BusError, Dir};
use crate::arbiter::{Arbiter, ArbiterKind};
use pels_sim::{
    ActivityKind, ActivitySink, ComponentId, EventVector, PeriodVisitor, Periodic, SleepPlan,
};
use std::fmt;

/// The fabric's component name.
static FABRIC: pels_sim::intern::FixedName = pels_sim::intern::FixedName::new("fabric");

/// Handle to a master port, returned by [`ApbFabric::add_master`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MasterId(usize);

impl MasterId {
    /// Raw port index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a slave, returned by [`ApbFabric::add_slave`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlaveId(usize);

impl SlaveId {
    /// Raw slave index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Fabric topology (paper Section IV-A: "the topology of the system
/// interconnect ... affect(s) the number of links that can access a group
/// of peripherals in parallel").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    /// One transfer at a time anywhere on the bus — a single-channel APB,
    /// PULPissimo's peripheral-bus configuration.
    #[default]
    Shared,
    /// One concurrent transfer per slave — a crossbar in front of the APB
    /// endpoints; masters targeting different slaves proceed in parallel.
    PerSlaveCrossbar,
}

impl Topology {
    /// Every topology.
    pub const ALL: [Topology; 2] = [Topology::Shared, Topology::PerSlaveCrossbar];

    /// The serialized name (also the `Display` form).
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Shared => "shared",
            Topology::PerSlaveCrossbar => "per-slave crossbar",
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-master arbitration statistics, cumulative over the fabric's
/// lifetime (unlike the windowed [`ApbFabric::drain_activity`] counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterStats {
    /// The master port's interned name (`ibex`, `pels.link0`, …).
    pub name: &'static str,
    /// Requests granted a lane.
    pub grants: u64,
    /// Master-cycles spent with a request pending but not granted.
    pub stall_cycles: u64,
}

/// Aggregate fabric statistics. Two kinds of counter share it:
/// `transfers` and `busy_cycles` are activity, handed on and restarted
/// by every [`ApbFabric::drain_activity`] (an activity drain or a
/// timeline window close of the SoC); the others are cumulative over the
/// fabric's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Completed transfers since the last activity flush.
    pub transfers: u64,
    /// Completed reads (cumulative).
    pub reads: u64,
    /// Completed writes (cumulative).
    pub writes: u64,
    /// Master-cycles spent with a request pending but not granted
    /// (cumulative).
    pub stall_cycles: u64,
    /// Cycles with at least one transfer in flight since the last
    /// activity flush.
    pub busy_cycles: u64,
    /// Transfers that failed to decode (cumulative).
    pub decode_errors: u64,
    /// Transfers the slave rejected (cumulative).
    pub slave_errors: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Setup,
    Access { remaining: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct InFlight {
    master: usize,
    /// Decoded `(slave index, offset)`; `None` when decode failed.
    target: Option<(usize, u32)>,
    request: ApbRequest,
    phase: Phase,
}

/// A request waiting for a grant, with its address decoded once at
/// issue.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    request: ApbRequest,
    /// Decoded `(slave index, offset)`; `None` when decode failed.
    target: Option<(usize, u32)>,
}

#[derive(Debug, Clone, PartialEq)]
struct MasterPort {
    id: ComponentId,
    pending: Option<Pending>,
    /// Whether this master's granted transfer occupies a lane.
    in_flight: bool,
    response: Option<ApbResponse>,
    /// Windowed stall count, reset by `drain_activity`.
    stall_cycles: u64,
    /// Lifetime grant count.
    grants: u64,
    /// Lifetime stall count (never reset).
    stall_total: u64,
}

/// The peripheral interconnect.
///
/// Generic over the slave type `S`: tests use one concrete slave type, the
/// SoC its closed peripheral enum. Either way slaves are held by value and
/// reached through [`ApbFabric::slave_mut`].
///
/// Drive it by calling [`ApbFabric::issue`] from master models during the
/// combinational phase of a cycle and [`ApbFabric::tick`] exactly once per
/// cycle after all masters have run.
#[derive(Debug, Clone, PartialEq)]
pub struct ApbFabric<S> {
    topology: Topology,
    arbiter_kind: ArbiterKind,
    masters: Vec<MasterPort>,
    slaves: Vec<S>,
    map: AddressMap,
    /// One lane per concurrent transfer: lane 0 only for [`Topology::Shared`];
    /// one lane per slave plus a decode-error lane for the crossbar.
    lanes: Vec<Option<InFlight>>,
    arbiters: Vec<Arbiter>,
    /// Per-master request lines handed to a lane's arbiter; sized in
    /// `add_master` and refilled in place, so ticking never allocates.
    requests: Vec<bool>,
    /// Masters with a request pending.
    pending_count: usize,
    /// Lanes with a transfer in flight.
    in_flight_count: usize,
    cycle: u64,
    stats: FabricStats,
    id: ComponentId,
    /// Slaves whose `read`/`write` executed during the most recent tick
    /// (bit per slave index).
    touched: u64,
    /// `(slave index, master index)` for every successful write committed
    /// during the most recent tick — the causal-flow layer uses this to
    /// attribute register-write effects (e.g. a GPIO pad change) to the
    /// master that caused them.
    write_commits: Vec<(usize, usize)>,
}

/// The cycle and every statistic are counters, a registered response's
/// completion cycle is a stamp, and each slave names its own.
impl<S: Periodic> Periodic for ApbFabric<S> {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        v.counter(&mut self.cycle);
        let s = &mut self.stats;
        for c in [
            &mut s.transfers,
            &mut s.reads,
            &mut s.writes,
            &mut s.stall_cycles,
            &mut s.busy_cycles,
            &mut s.decode_errors,
            &mut s.slave_errors,
        ] {
            v.counter(c);
        }
        for port in &mut self.masters {
            v.counter(&mut port.stall_cycles);
            v.counter(&mut port.grants);
            v.counter(&mut port.stall_total);
            if let Some(r) = &mut port.response {
                v.stamp(&mut r.completed_cycle);
            }
        }
        self.slaves.visit_period(v);
    }
}

impl<S: ApbSlave> ApbFabric<S> {
    /// Creates a single-channel (shared) fabric with round-robin
    /// arbitration — the paper's configuration.
    pub fn shared() -> Self {
        Self::with_config(Topology::Shared, ArbiterKind::RoundRobin)
    }

    /// Creates a per-slave crossbar fabric with round-robin arbitration.
    pub fn crossbar() -> Self {
        Self::with_config(Topology::PerSlaveCrossbar, ArbiterKind::RoundRobin)
    }

    /// Creates a fabric with an explicit topology and arbitration policy.
    pub fn with_config(topology: Topology, arbiter_kind: ArbiterKind) -> Self {
        let mut fabric = ApbFabric {
            topology,
            arbiter_kind,
            masters: Vec::new(),
            slaves: Vec::new(),
            map: AddressMap::new(),
            lanes: Vec::new(),
            arbiters: Vec::new(),
            requests: Vec::new(),
            pending_count: 0,
            in_flight_count: 0,
            cycle: 0,
            stats: FabricStats::default(),
            id: FABRIC.id(),
            touched: 0,
            write_commits: Vec::new(),
        };
        fabric.rebuild_lanes();
        fabric
    }

    fn rebuild_lanes(&mut self) {
        let n = match self.topology {
            Topology::Shared => 1,
            // One lane per slave + one for decode errors.
            Topology::PerSlaveCrossbar => self.slaves.len() + 1,
        };
        self.lanes = (0..n).map(|_| None).collect();
        self.arbiters = vec![Arbiter::new(self.arbiter_kind); n];
        // Rebuilding drops any transfer in flight.
        self.in_flight_count = 0;
        for port in &mut self.masters {
            port.in_flight = false;
        }
    }

    /// The configured topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The configured arbitration policy.
    pub fn arbiter_kind(&self) -> ArbiterKind {
        self.arbiter_kind
    }

    /// Registers a master port.
    pub fn add_master(&mut self, name: impl Into<ComponentId>) -> MasterId {
        self.masters.push(MasterPort {
            id: name.into(),
            pending: None,
            in_flight: false,
            response: None,
            stall_cycles: 0,
            grants: 0,
            stall_total: 0,
        });
        self.requests.push(false);
        MasterId(self.masters.len() - 1)
    }

    /// Maps `slave` at `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` overlaps an already-mapped slave — bus maps are
    /// static hardware configuration, so this is a construction bug, not a
    /// runtime condition.
    pub fn add_slave(&mut self, range: AddrRange, slave: S) -> SlaveId {
        let idx = self.slaves.len();
        if let Err(e) = self.map.insert(range, idx) {
            panic!("fabric address map conflict: {e}");
        }
        self.slaves.push(slave);
        self.rebuild_lanes();
        // The map grew: re-decode anything already waiting.
        for port in &mut self.masters {
            if let Some(p) = &mut port.pending {
                p.target = self.map.decode(p.request.addr);
            }
        }
        SlaveId(idx)
    }

    /// Immutable access to a slave model.
    pub fn slave(&self, id: SlaveId) -> &S {
        &self.slaves[id.0]
    }

    /// Mutable access to a slave model (for SoC harnesses that need to tick
    /// peripheral-internal state).
    pub fn slave_mut(&mut self, id: SlaveId) -> &mut S {
        &mut self.slaves[id.0]
    }

    /// Iterates mutably over all slaves with their ids.
    pub fn slaves_mut(&mut self) -> impl Iterator<Item = (SlaveId, &mut S)> {
        self.slaves
            .iter_mut()
            .enumerate()
            .map(|(i, s)| (SlaveId(i), s))
    }

    /// Mutable access to the slave at raw index `idx` — the accessor
    /// active-list schedulers use to visit a sparse subset of slaves
    /// without walking [`ApbFabric::slaves_mut`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= slave_count()`.
    pub fn slave_mut_at(&mut self, idx: usize) -> &mut S {
        &mut self.slaves[idx]
    }

    /// Number of registered slaves.
    pub fn slave_count(&self) -> usize {
        self.slaves.len()
    }

    /// Whether `master` can accept a new request this cycle.
    pub fn can_issue(&self, master: MasterId) -> bool {
        let port = &self.masters[master.0];
        port.pending.is_none() && !port.in_flight
    }

    /// Queues a request on `master`'s port; it will arbitrate from the next
    /// [`ApbFabric::tick`].
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Busy`] if the master already has a request
    /// pending or in flight.
    pub fn issue(&mut self, master: MasterId, request: ApbRequest) -> Result<(), BusError> {
        if !self.can_issue(master) {
            return Err(BusError::Busy);
        }
        self.masters[master.0].pending = Some(Pending {
            request,
            target: self.map.decode(request.addr),
        });
        self.pending_count += 1;
        Ok(())
    }

    /// Takes the response registered for `master`, if any.
    pub fn take_response(&mut self, master: MasterId) -> Option<ApbResponse> {
        self.masters[master.0].response.take()
    }

    /// Peeks at the registered response without consuming it.
    pub fn response(&self, master: MasterId) -> Option<&ApbResponse> {
        self.masters[master.0].response.as_ref()
    }

    /// Current fabric cycle (number of [`ApbFabric::tick`] calls).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Per-master lifetime arbitration statistics, in port order.
    pub fn master_stats(&self) -> Vec<MasterStats> {
        self.masters
            .iter()
            .map(|p| MasterStats {
                name: p.id.name(),
                grants: p.grants,
                stall_cycles: p.stall_total,
            })
            .collect()
    }

    /// Advances the bus by one clock cycle.
    ///
    /// Each lane, in index order, does one of two things:
    /// 1. a transfer in flight advances (setup → access; access completion
    ///    performs the slave read/write and registers the response);
    /// 2. a lane idle at the start of the cycle grants one pending request
    ///    (its setup phase is this cycle).
    ///
    /// Completion and a new grant never share a lane in one cycle, giving
    /// the APB back-to-back rate of one transfer per two cycles. A pending
    /// request belongs to exactly one lane, so lanes are independent and
    /// visiting them in one pass equals advancing every lane before
    /// granting any.
    pub fn tick(&mut self) {
        self.touched = 0;
        if !self.write_commits.is_empty() {
            self.write_commits.clear();
        }
        // Quiescent fast path: nothing pending, nothing in flight. Only
        // the cycle counter advances — stall/busy accounting would be
        // zero this cycle anyway.
        if self.is_quiescent() {
            self.cycle += 1;
            return;
        }
        let mut busy = false;
        for lane in 0..self.lanes.len() {
            if let Some(flight) = self.lanes[lane].take() {
                busy = true;
                self.advance(lane, flight);
            } else if self.pending_count > 0 {
                busy |= self.grant(lane);
            }
        }

        // Accounting.
        if self.pending_count > 0 {
            for port in &mut self.masters {
                if port.pending.is_some() {
                    port.stall_cycles += 1;
                    port.stall_total += 1;
                    self.stats.stall_cycles += 1;
                }
            }
        }
        // Busy = a transfer occupied a lane at the start of the cycle
        // (setup/access in progress) or was granted during it.
        if busy {
            self.stats.busy_cycles += 1;
        }
        self.cycle += 1;
    }

    /// Moves the transfer on `lane` one phase on, completing it (and
    /// freeing the lane) at the end of its access phase.
    fn advance(&mut self, lane: usize, mut flight: InFlight) {
        // A transfer granted (setup) in cycle N reaches its access
        // phase in cycle N+1; with zero wait states it completes there.
        let finish = match flight.phase {
            Phase::Setup => {
                let waits = match flight.target {
                    Some((slave, offset)) => {
                        self.slaves[slave].wait_states(offset, flight.request.dir)
                    }
                    None => 0,
                };
                if waits == 0 {
                    true
                } else {
                    flight.phase = Phase::Access { remaining: waits - 1 };
                    false
                }
            }
            Phase::Access { remaining: 0 } => true,
            Phase::Access { remaining } => {
                flight.phase = Phase::Access {
                    remaining: remaining - 1,
                };
                false
            }
        };
        if !finish {
            self.lanes[lane] = Some(flight);
            return;
        }
        let result = self.complete(&flight);
        let port = &mut self.masters[flight.master];
        port.in_flight = false;
        port.response = Some(ApbResponse {
            request: flight.request,
            result,
            completed_cycle: self.cycle,
        });
        self.in_flight_count -= 1;
        self.stats.transfers += 1;
        match flight.request.dir {
            Dir::Read => self.stats.reads += 1,
            Dir::Write => self.stats.writes += 1,
        }
    }

    /// Arbitrates the idle `lane` among the masters whose pending request
    /// maps to it; returns whether a transfer was granted.
    fn grant(&mut self, lane: usize) -> bool {
        let error_lane = self.slaves.len();
        let topology = self.topology;
        let mut any = false;
        for (req, port) in self.requests.iter_mut().zip(&self.masters) {
            *req = port.pending.is_some_and(|p| match topology {
                Topology::Shared => true,
                Topology::PerSlaveCrossbar => {
                    p.target.map_or(error_lane, |(slave, _)| slave) == lane
                }
            });
            any |= *req;
        }
        // An arbiter with no request line raised grants nobody and keeps
        // its state, so it need not be asked.
        if !any {
            return false;
        }
        let Some(granted) = self.arbiters[lane].grant(&self.requests) else {
            return false;
        };
        let port = &mut self.masters[granted];
        let pending = port
            .pending
            .take()
            .expect("granted master has a pending request");
        port.grants += 1;
        port.in_flight = true;
        self.pending_count -= 1;
        self.in_flight_count += 1;
        self.lanes[lane] = Some(InFlight {
            master: granted,
            target: pending.target,
            request: pending.request,
            phase: Phase::Setup,
        });
        true
    }

    fn complete(&mut self, flight: &InFlight) -> Result<u32, BusError> {
        match flight.target {
            None => {
                self.stats.decode_errors += 1;
                Err(BusError::Decode {
                    addr: flight.request.addr,
                })
            }
            Some((slave, offset)) => {
                if slave < 64 {
                    self.touched |= 1 << slave;
                }
                let r = match flight.request.dir {
                    Dir::Read => self.slaves[slave].read(offset),
                    Dir::Write => self.slaves[slave]
                        .write(offset, flight.request.wdata)
                        .map(|()| 0),
                };
                if r.is_err() {
                    self.stats.slave_errors += 1;
                } else if flight.request.dir == Dir::Write {
                    self.write_commits.push((slave, flight.master));
                }
                r
            }
        }
    }

    /// Slaves whose `read`/`write` executed during the most recent
    /// [`ApbFabric::tick`], as a bit-per-slave-index mask. Slave indexes
    /// ≥ 64 are not representable (no SoC here comes close).
    pub fn touched_slaves(&self) -> u64 {
        self.touched
    }

    /// `(slave index, master index)` for every write committed during the
    /// most recent [`ApbFabric::tick`].
    pub fn write_commits(&self) -> &[(usize, usize)] {
        &self.write_commits
    }

    /// Shared access to a slave by raw index (as reported by
    /// [`ApbFabric::write_commits`]).
    pub fn slave_at(&self, idx: usize) -> &S {
        &self.slaves[idx]
    }

    /// Whether the fabric is completely idle: no request pending at any
    /// master port and no transfer in flight on any lane. A quiescent
    /// fabric's [`ApbFabric::tick`] only advances the cycle counter.
    pub fn is_quiescent(&self) -> bool {
        self.pending_count == 0 && self.in_flight_count == 0
    }

    /// How the fabric may sleep: quiescent, it is idle until a master
    /// issues (a CPU or PELS tick, which are themselves awake then).
    pub fn sleep_plan(&self) -> Option<SleepPlan> {
        self.is_quiescent()
            .then_some(SleepPlan::until_wire(EventVector::EMPTY))
    }

    /// Advances the cycle counter by `k` without ticking — the
    /// whole-span equivalent of `k` quiescent [`ApbFabric::tick`]s.
    pub fn catch_up(&mut self, k: u64) {
        debug_assert!(self.is_quiescent(), "catch_up of a busy fabric");
        self.cycle += k;
    }

    /// Slaves targeted by a pending or in-flight request right now, as a
    /// bit-per-slave-index mask. A slave in this mask will be read or
    /// written on some upcoming tick unless the master withdraws.
    pub fn targeted_slaves(&self) -> u64 {
        let bit = |target: Option<(usize, u32)>| match target {
            Some((slave, _)) if slave < 64 => 1u64 << slave,
            _ => 0,
        };
        let mut mask = 0u64;
        if self.pending_count > 0 {
            for p in self.masters.iter().filter_map(|port| port.pending) {
                mask |= bit(p.target);
            }
        }
        if self.in_flight_count > 0 {
            for flight in self.lanes.iter().flatten() {
                mask |= bit(flight.target);
            }
        }
        mask
    }

    /// Drains per-master stall counts and aggregate transfer counts into an
    /// [`ActivitySink`]; counters restart from zero.
    pub fn drain_activity(&mut self, into: &mut impl ActivitySink) {
        for port in &mut self.masters {
            into.record(port.id, ActivityKind::BusStall, port.stall_cycles);
            port.stall_cycles = 0;
        }
        into.record(self.id, ActivityKind::BusTransfer, self.stats.transfers);
        into.record(self.id, ActivityKind::ActiveCycle, self.stats.busy_cycles);
        self.stats.transfers = 0;
        self.stats.busy_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemorySlave;
    use pels_sim::ActivitySet;

    fn fabric_1m_2s() -> (ApbFabric<MemorySlave>, MasterId, SlaveId, SlaveId) {
        let mut f = ApbFabric::shared();
        let m = f.add_master("m0");
        let s0 = f.add_slave(AddrRange::new(0x1000, 0x100), MemorySlave::new(0x100));
        let s1 = f.add_slave(AddrRange::new(0x2000, 0x100), MemorySlave::new(0x100));
        (f, m, s0, s1)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mut f, m, s0, _) = fabric_1m_2s();
        f.issue(m, ApbRequest::write(0x1010, 0xCAFE)).unwrap();
        f.tick(); // setup
        f.tick(); // access
        let resp = f.take_response(m).unwrap();
        assert!(resp.result.is_ok());
        assert_eq!(f.slave(s0).word(0x10 / 4), 0xCAFE);

        f.issue(m, ApbRequest::read(0x1010)).unwrap();
        f.tick();
        f.tick();
        assert_eq!(f.take_response(m).unwrap().rdata(), 0xCAFE);
    }

    #[test]
    fn transfer_takes_exactly_two_cycles() {
        let (mut f, m, _, _) = fabric_1m_2s();
        f.issue(m, ApbRequest::read(0x1000)).unwrap();
        f.tick(); // setup
        assert!(f.response(m).is_none());
        f.tick(); // access
        let resp = f.response(m).expect("response after access");
        assert_eq!(resp.completed_cycle, 1);
    }

    #[test]
    fn wait_states_extend_access_phase() {
        let mut f: ApbFabric<MemorySlave> = ApbFabric::shared();
        let m = f.add_master("m0");
        f.add_slave(
            AddrRange::new(0x0, 0x100),
            MemorySlave::with_wait_states(0x100, 2),
        );
        f.issue(m, ApbRequest::read(0x0)).unwrap();
        for _ in 0..3 {
            f.tick();
            assert!(f.response(m).is_none());
        }
        f.tick(); // setup + 2 waits + access = 4 ticks
        assert!(f.response(m).is_some());
    }

    #[test]
    fn decode_error_reported() {
        let (mut f, m, _, _) = fabric_1m_2s();
        f.issue(m, ApbRequest::read(0xDEAD_0000)).unwrap();
        f.tick();
        f.tick();
        let resp = f.take_response(m).unwrap();
        assert_eq!(
            resp.result,
            Err(BusError::Decode { addr: 0xDEAD_0000 })
        );
        assert_eq!(f.stats().decode_errors, 1);
    }

    #[test]
    fn busy_master_cannot_double_issue() {
        let (mut f, m, _, _) = fabric_1m_2s();
        f.issue(m, ApbRequest::read(0x1000)).unwrap();
        assert_eq!(f.issue(m, ApbRequest::read(0x1004)), Err(BusError::Busy));
        f.tick(); // granted -> in flight
        assert_eq!(f.issue(m, ApbRequest::read(0x1004)), Err(BusError::Busy));
        f.tick();
        let _ = f.take_response(m);
        assert!(f.can_issue(m));
    }

    #[test]
    fn shared_topology_serializes_masters() {
        let mut f: ApbFabric<MemorySlave> = ApbFabric::shared();
        let a = f.add_master("a");
        let b = f.add_master("b");
        f.add_slave(AddrRange::new(0x0, 0x100), MemorySlave::new(0x100));
        f.add_slave(AddrRange::new(0x100, 0x100), MemorySlave::new(0x100));
        f.issue(a, ApbRequest::write(0x0, 1)).unwrap();
        f.issue(b, ApbRequest::write(0x100, 2)).unwrap();
        f.tick(); // a setup (round-robin: a first)
        f.tick(); // a access -> done
        assert!(f.take_response(a).is_some());
        assert!(f.response(b).is_none());
        f.tick(); // b setup
        f.tick(); // b access
        assert!(f.take_response(b).is_some());
    }

    #[test]
    fn crossbar_runs_disjoint_slaves_in_parallel() {
        let mut f: ApbFabric<MemorySlave> = ApbFabric::crossbar();
        let a = f.add_master("a");
        let b = f.add_master("b");
        f.add_slave(AddrRange::new(0x0, 0x100), MemorySlave::new(0x100));
        f.add_slave(AddrRange::new(0x100, 0x100), MemorySlave::new(0x100));
        f.issue(a, ApbRequest::write(0x0, 1)).unwrap();
        f.issue(b, ApbRequest::write(0x100, 2)).unwrap();
        f.tick();
        f.tick();
        // Both complete in the same two cycles.
        assert!(f.take_response(a).is_some());
        assert!(f.take_response(b).is_some());
    }

    #[test]
    fn crossbar_still_serializes_same_slave() {
        let mut f: ApbFabric<MemorySlave> = ApbFabric::crossbar();
        let a = f.add_master("a");
        let b = f.add_master("b");
        f.add_slave(AddrRange::new(0x0, 0x100), MemorySlave::new(0x100));
        f.issue(a, ApbRequest::write(0x0, 1)).unwrap();
        f.issue(b, ApbRequest::write(0x4, 2)).unwrap();
        f.tick();
        f.tick();
        let done = [f.take_response(a).is_some(), f.take_response(b).is_some()];
        assert_eq!(done.iter().filter(|&&d| d).count(), 1);
    }

    #[test]
    fn round_robin_alternates_contending_masters() {
        let mut f: ApbFabric<MemorySlave> = ApbFabric::shared();
        let a = f.add_master("a");
        let b = f.add_master("b");
        f.add_slave(AddrRange::new(0x0, 0x100), MemorySlave::new(0x100));
        let mut order = Vec::new();
        for _ in 0..4 {
            if f.can_issue(a) {
                f.issue(a, ApbRequest::read(0x0)).unwrap();
            }
            if f.can_issue(b) {
                f.issue(b, ApbRequest::read(0x4)).unwrap();
            }
            f.tick();
            if f.take_response(a).is_some() {
                order.push('a');
            }
            if f.take_response(b).is_some() {
                order.push('b');
            }
        }
        assert_eq!(order, vec!['a', 'b']);
    }

    #[test]
    fn stats_and_activity_drain() {
        let (mut f, m, _, _) = fabric_1m_2s();
        f.issue(m, ApbRequest::write(0x1000, 5)).unwrap();
        f.tick();
        f.tick();
        let stats = f.stats();
        assert_eq!(stats.transfers, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.busy_cycles, 2);
        let mut a = ActivitySet::new();
        f.drain_activity(&mut a);
        assert_eq!(a.count("fabric", ActivityKind::BusTransfer), 1);
        // Drained: second drain adds nothing.
        let mut a2 = ActivitySet::new();
        f.drain_activity(&mut a2);
        assert_eq!(a2.count("fabric", ActivityKind::BusTransfer), 0);
    }

    #[test]
    fn master_stats_track_grants_and_stalls_cumulatively() {
        let mut f: ApbFabric<MemorySlave> = ApbFabric::shared();
        let a = f.add_master("ms-test-a");
        let b = f.add_master("ms-test-b");
        f.add_slave(AddrRange::new(0x0, 0x100), MemorySlave::new(0x100));
        f.issue(a, ApbRequest::read(0x0)).unwrap();
        f.issue(b, ApbRequest::read(0x4)).unwrap();
        for _ in 0..4 {
            f.tick();
        }
        let stats = f.master_stats();
        assert_eq!(stats[0].name, "ms-test-a");
        assert_eq!(stats[0].grants, 1);
        assert_eq!(stats[1].grants, 1);
        // b waited while a's transfer occupied the shared lane.
        assert!(stats[1].stall_cycles > 0);
        // Unlike the windowed activity counters, master stats survive a
        // drain.
        let mut acts = ActivitySet::new();
        f.drain_activity(&mut acts);
        assert_eq!(f.master_stats()[1].stall_cycles, stats[1].stall_cycles);
    }

    #[test]
    fn crossbar_decode_error_uses_error_lane() {
        let mut f: ApbFabric<MemorySlave> = ApbFabric::crossbar();
        let a = f.add_master("a");
        let b = f.add_master("b");
        f.add_slave(AddrRange::new(0x0, 0x100), MemorySlave::new(0x100));
        // a: unmapped address (error lane); b: valid slave — both proceed
        // in parallel because they arbitrate in different lanes.
        f.issue(a, ApbRequest::read(0xDEAD_0000)).unwrap();
        f.issue(b, ApbRequest::write(0x0, 9)).unwrap();
        f.tick();
        f.tick();
        assert!(matches!(
            f.take_response(a).unwrap().result,
            Err(BusError::Decode { .. })
        ));
        assert!(f.take_response(b).unwrap().result.is_ok());
    }

    #[test]
    #[should_panic(expected = "address map conflict")]
    fn overlapping_slave_panics() {
        let mut f: ApbFabric<MemorySlave> = ApbFabric::shared();
        f.add_slave(AddrRange::new(0x0, 0x100), MemorySlave::new(0x100));
        f.add_slave(AddrRange::new(0x80, 0x100), MemorySlave::new(0x100));
    }
}
