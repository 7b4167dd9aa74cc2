//! Causal event-flow tracing.
//!
//! The plain [`Trace`](crate::trace::Trace) records isolated
//! `(time, source, label)` points; nothing connects the SPI `eot` pulse to
//! the particular `gpio.padout` it caused. A [`FlowTrace`] adds that causal
//! thread: a [`FlowId`] is minted at every *originating* stimulus (timer
//! compare, sensor threshold crossing, GPIO edge, injected event) and
//! propagated hop by hop through the event wires, the PELS trigger FIFOs,
//! the execution pipelines and the IRQ path, so every completion can be
//! decomposed into per-stage cycle deltas.
//!
//! The layer is **pure observation**: it is off by default, every
//! observation point in the models is a single `if let` on
//! [`Trace::flow_trace_mut`](crate::trace::Trace::flow_trace_mut) (one
//! branch when flows are off), and the `observation_invariance` suite
//! proves runs are bit-identical with flows on and off. Debug builds check
//! every recorded stage against [`FLOW_STAGES`]. Flow hops are recorded
//! *only* here — never as extra `Trace` entries — so trace comparisons are
//! unaffected by construction.
//!
//! ## Propagation model
//!
//! Event wires carry flows for exactly as long as they carry pulses: stages
//! into `wire_now` are visible to same-cycle consumers (PELS trigger
//! sampling, the IRQ pending latch), rotate into `wire_prev` at the cycle
//! boundary for next-cycle consumers (peripheral event inputs), then decay.
//! Components that *adopt* a flow (an SPI transfer started by a wired
//! action, a link that popped a trigger token, the CPU entering a handler)
//! keep it as their current context; a raise with no adopted context mints
//! a fresh flow — that is the "originating stimulus" rule.

use crate::intern::ComponentId;
use crate::period::{PeriodVisitor, Periodic};
use crate::time::SimTime;
use std::collections::HashMap;

/// Every stage name a [`FlowHop`] may carry. Debug builds assert it on
/// every recorded hop and `obs_check` gates `OBS_flows.json` against it,
/// so new observation points must be registered here.
pub const FLOW_STAGES: &[&str] = &[
    // Originating stimuli.
    "inject", "compare", "bite", "pin_rise",
    // Peripheral progress and completion events.
    "start", "done", "nack", "tx_done", "udma_done", "eot",
    // PELS channel pipeline.
    "trigger", "capture", "write", "action", "halt", "bus_error",
    // Fabric-visible task retirement.
    "padout",
    // Ibex IRQ-baseline path.
    "irq_pend", "irq_enter", "handler_load", "handler_store", "mret",
];

/// Identity of one causal flow. Ids are minted sequentially from 1; `0` is
/// reserved as "no flow" on the wire-latch fast paths and never appears in
/// a recorded hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// One hop of a flow: at `time`, `source` advanced the flow through
/// `stage`. Consecutive hop deltas of a flow are the per-stage latency
/// attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowHop {
    /// The flow this hop belongs to.
    pub flow: FlowId,
    /// When the hop occurred.
    pub time: SimTime,
    /// Which component advanced the flow.
    pub source: ComponentId,
    /// Typed stage name; always a member of [`FLOW_STAGES`].
    pub stage: &'static str,
}

impl FlowHop {
    /// The source's interned name.
    pub fn source_name(&self) -> &'static str {
        self.source.name()
    }
}

/// Recorded flows plus the live propagation state (wire latches, per-
/// component adopted contexts, staged register-write flows).
///
/// Embedded in [`Trace`](crate::trace::Trace) as an `Option<Box<..>>` and
/// reached through [`Trace::flow_trace_mut`](crate::trace::Trace::flow_trace_mut),
/// so every observation point in the models is one branch when flows are off.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTrace {
    hops: Vec<FlowHop>,
    minted: u64,
    /// Flow carried by each of the 64 event lines this cycle.
    wire_now: [u64; 64],
    /// Flow carried by each event line last cycle (matches the registered
    /// `prev_wires` image peripherals see as `events_in`).
    wire_prev: [u64; 64],
    now_dirty: bool,
    prev_dirty: bool,
    /// Flow each component currently carries (adopted context).
    ctx: HashMap<ComponentId, u64>,
    /// Flow staged by a fabric write commit, keyed by the slave it hit;
    /// consumed by the slave's next tick (e.g. GPIO pad-out attribution).
    reg_writes: HashMap<ComponentId, u64>,
}

impl Default for FlowTrace {
    fn default() -> Self {
        FlowTrace {
            hops: Vec::new(),
            minted: 0,
            wire_now: [0; 64],
            wire_prev: [0; 64],
            now_dirty: false,
            prev_dirty: false,
            ctx: HashMap::new(),
            reg_writes: HashMap::new(),
        }
    }
}

impl FlowTrace {
    fn push(&mut self, flow: u64, time: SimTime, source: ComponentId, stage: &'static str) {
        debug_assert!(
            FLOW_STAGES.contains(&stage),
            "flow stage {stage:?} is not in FLOW_STAGES"
        );
        self.hops.push(FlowHop {
            flow: FlowId(flow),
            time,
            source,
            stage,
        });
    }

    fn mint(&mut self) -> u64 {
        self.minted += 1;
        self.minted
    }

    /// A component raised event `line`: propagate its adopted context, or
    /// mint a fresh flow if it has none (originating stimulus). The flow is
    /// staged onto the wire for same-cycle and next-cycle consumers.
    pub fn raise(&mut self, time: SimTime, source: ComponentId, line: u32, stage: &'static str) {
        let mut flow = self.ctx.get(&source).copied().unwrap_or(0);
        if flow == 0 {
            flow = self.mint();
        }
        self.push(flow, time, source, stage);
        if let Some(slot) = self.wire_now.get_mut(line as usize) {
            *slot = flow;
            self.now_dirty = true;
        }
    }

    /// A component observed last cycle's pulse on `line` and adopts its
    /// flow as context (e.g. SPI seeing its wired start line). Records a
    /// hop and returns `true` if the line carried a flow.
    pub fn adopt_wire(
        &mut self,
        time: SimTime,
        source: ComponentId,
        line: u32,
        stage: &'static str,
    ) -> bool {
        let flow = self
            .wire_prev
            .get(line as usize)
            .copied()
            .unwrap_or_default();
        if flow == 0 {
            return false;
        }
        self.ctx.insert(source, flow);
        self.push(flow, time, source, stage);
        true
    }

    /// The flow carried by the lowest set line in `bits`, checking this
    /// cycle's stages first, then last cycle's (loopback actions). `0` if
    /// none.
    pub fn flow_on_lines(&self, bits: u64) -> u64 {
        if !self.now_dirty && !self.prev_dirty {
            return 0;
        }
        let mut rest = bits;
        while rest != 0 {
            let line = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let f = self.wire_now[line];
            if f != 0 {
                return f;
            }
            let f = self.wire_prev[line];
            if f != 0 {
                return f;
            }
        }
        0
    }

    /// A component takes ownership of `flow` as its current context
    /// (replacing any previous one) and records a hop. `flow == 0` clears
    /// the context without recording — a popped trigger token that carried
    /// no flow must not inherit a stale one.
    pub fn begin(&mut self, time: SimTime, source: ComponentId, flow: u64, stage: &'static str) {
        if flow == 0 {
            self.ctx.remove(&source);
            return;
        }
        self.ctx.insert(source, flow);
        self.push(flow, time, source, stage);
    }

    /// Records a hop with the component's adopted context, if it has one.
    pub fn hop(&mut self, time: SimTime, source: ComponentId, stage: &'static str) {
        let flow = self.ctx.get(&source).copied().unwrap_or(0);
        if flow != 0 {
            self.push(flow, time, source, stage);
        }
    }

    /// Records a hop with an explicit flow id (used where the flow is
    /// tracked outside the context map, e.g. per-IRQ-bit latches).
    pub fn hop_with(&mut self, time: SimTime, source: ComponentId, flow: u64, stage: &'static str) {
        if flow != 0 {
            self.push(flow, time, source, stage);
        }
    }

    /// Stages the component's adopted context onto every line in `bits`
    /// (a wired PELS action driving event lines).
    pub fn stage_lines(&mut self, source: ComponentId, bits: u64) {
        let flow = self.ctx.get(&source).copied().unwrap_or(0);
        if flow == 0 {
            return;
        }
        let mut rest = bits;
        while rest != 0 {
            let line = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if line < 64 {
                self.wire_now[line] = flow;
                self.now_dirty = true;
            }
        }
    }

    /// Stages `flow` as the cause of the latest register write into
    /// `slave`; the slave's next tick may claim it via
    /// [`FlowTrace::take_reg_write`].
    pub fn stage_reg_write(&mut self, slave: ComponentId, flow: u64) {
        if flow != 0 {
            self.reg_writes.insert(slave, flow);
        }
    }

    /// Claims a staged register-write flow for `slave`, adopting it as
    /// context and recording a hop. Returns `false` if none was staged.
    pub fn take_reg_write(
        &mut self,
        time: SimTime,
        slave: ComponentId,
        stage: &'static str,
    ) -> bool {
        let Some(flow) = self.reg_writes.remove(&slave) else {
            return false;
        };
        self.ctx.insert(slave, flow);
        self.push(flow, time, slave, stage);
        true
    }

    /// The component's currently adopted flow context (`0` if none).
    pub fn component(&self, source: ComponentId) -> u64 {
        self.ctx.get(&source).copied().unwrap_or(0)
    }

    /// Clock-edge rotation: this cycle's wire stages become last cycle's,
    /// and decay after one more rotation — exactly the lifetime of the
    /// pulses they annotate.
    pub fn cycle_end(&mut self) {
        if self.now_dirty || self.prev_dirty {
            self.wire_prev = self.wire_now;
            self.prev_dirty = self.now_dirty;
            self.wire_now = [0; 64];
            self.now_dirty = false;
        }
    }

    /// A copy with every open flow and no recorded hop.
    pub fn without_hops(&self) -> FlowTrace {
        FlowTrace {
            hops: Vec::new(),
            minted: self.minted,
            wire_now: self.wire_now,
            wire_prev: self.wire_prev,
            now_dirty: self.now_dirty,
            prev_dirty: self.prev_dirty,
            ctx: self.ctx.clone(),
            reg_writes: self.reg_writes.clone(),
        }
    }

    /// The hops from `from` on: one period's, for a caller to work out
    /// how each one's flow id moves per period.
    pub fn hops_since(&self, from: usize) -> &[FlowHop] {
        &self.hops[from..]
    }

    /// Appends `periods` copies of the hops from `from` on (one period's),
    /// each `period` later than the one before, hop `i`'s flow id
    /// `shifts[i]` above it. The open flows and the mint count move with
    /// the SoC's period walk.
    pub fn repeat_period(&mut self, from: usize, periods: u64, period: SimTime, shifts: &[u64]) {
        let end = self.hops.len();
        for k in 1..=periods {
            for (i, shift) in (from..end).zip(shifts) {
                let h = self.hops[i];
                self.hops.push(FlowHop {
                    flow: FlowId(h.flow.0 + k * shift),
                    time: SimTime::from_ps(h.time.as_ps() + k * period.as_ps()),
                    ..h
                });
            }
        }
    }

    /// All recorded hops in order.
    pub fn hops(&self) -> &[FlowHop] {
        &self.hops
    }

    /// Number of recorded hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether no hop has been recorded.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Total flows minted.
    pub fn minted(&self) -> u64 {
        self.minted
    }

    /// Distinct flow ids in order of first appearance.
    pub fn flow_ids(&self) -> Vec<FlowId> {
        let mut seen = Vec::new();
        for h in &self.hops {
            if !seen.contains(&h.flow) {
                seen.push(h.flow);
            }
        }
        seen
    }

    /// All hops of one flow, in record order.
    pub fn hops_of(&self, flow: FlowId) -> impl Iterator<Item = &FlowHop> {
        self.hops.iter().filter(move |h| h.flow == flow)
    }
}

/// The mint count is a counter and every open flow id a flow stamp;
/// recorded hops are left to [`FlowTrace::repeat_period`].
impl Periodic for FlowTrace {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        v.counter(&mut self.minted);
        let wires = self.wire_now.iter_mut().chain(&mut self.wire_prev);
        wires.for_each(|id| v.flow(id));
        // By component, so two maps with one key set visit alike.
        for map in [&mut self.ctx, &mut self.reg_writes] {
            let mut open: Vec<_> = map.iter_mut().collect();
            open.sort_unstable_by_key(|&(id, _)| *id);
            open.into_iter().for_each(|(_, flow)| v.flow(flow));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(name: &str) -> ComponentId {
        ComponentId::intern(name)
    }

    #[test]
    fn raise_without_context_mints_fresh_flows() {
        let mut f = FlowTrace::default();
        let timer = cid("flow-test-timer");
        f.raise(SimTime::from_ns(10), timer, 3, "compare");
        f.cycle_end();
        f.raise(SimTime::from_ns(20), timer, 3, "compare");
        assert_eq!(f.minted(), 2);
        let ids = f.flow_ids();
        assert_eq!(ids, vec![FlowId(1), FlowId(2)]);
    }

    #[test]
    fn raise_with_adopted_context_propagates() {
        let mut f = FlowTrace::default();
        let gpio = cid("flow-test-gpio");
        let spi = cid("flow-test-spi");
        // GPIO mints on line 0; after one rotation SPI adopts it from the
        // wire and its own raise reuses the same flow.
        f.raise(SimTime::from_ns(0), gpio, 0, "pin_rise");
        f.cycle_end();
        assert!(f.adopt_wire(SimTime::from_ns(1), spi, 0, "start"));
        f.raise(SimTime::from_ns(5), spi, 7, "eot");
        assert_eq!(f.minted(), 1);
        assert_eq!(f.hops_of(FlowId(1)).count(), 3);
        let stages: Vec<_> = f.hops_of(FlowId(1)).map(|h| h.stage).collect();
        assert_eq!(stages, vec!["pin_rise", "start", "eot"]);
    }

    #[test]
    fn wire_flows_decay_after_two_rotations() {
        let mut f = FlowTrace::default();
        let timer = cid("flow-test-timer2");
        f.raise(SimTime::ZERO, timer, 5, "compare");
        assert_eq!(f.flow_on_lines(1 << 5), 1); // same cycle: wire_now
        f.cycle_end();
        assert_eq!(f.flow_on_lines(1 << 5), 1); // next cycle: wire_prev
        f.cycle_end();
        assert_eq!(f.flow_on_lines(1 << 5), 0); // decayed with the pulse
    }

    #[test]
    fn begin_zero_clears_context() {
        let mut f = FlowTrace::default();
        let link = cid("flow-test-link");
        f.begin(SimTime::ZERO, link, 9, "trigger");
        assert_eq!(f.component(link), 9);
        f.begin(SimTime::from_ns(1), link, 0, "trigger");
        assert_eq!(f.component(link), 0);
        // Only the first begin recorded a hop.
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn reg_write_staging_is_consumed_once() {
        let mut f = FlowTrace::default();
        let gpio = cid("flow-test-gpio2");
        f.stage_reg_write(gpio, 4);
        assert!(f.take_reg_write(SimTime::ZERO, gpio, "padout"));
        assert!(!f.take_reg_write(SimTime::ZERO, gpio, "padout"));
        assert_eq!(f.component(gpio), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not in FLOW_STAGES")]
    fn recording_an_unlisted_stage_panics() {
        let mut f = FlowTrace::default();
        f.raise(SimTime::ZERO, cid("flow-test-unlisted"), 0, "not_a_stage");
    }
}
