//! The SoC top level, assembled from a [`SystemDesc`].

use crate::event_map::*;
use crate::mem_map::*;
use pels_core::link::link_id;
use pels_core::pels::PelsBus;
use pels_core::Pels;
use pels_cpu::{Cpu, CpuBus, CpuState, DataReq, DataResult};
use pels_desc::{DescError, ExecMode, PeriphKind, SystemDesc};
use pels_interconnect::{AddrRange, ApbFabric, ApbRequest, ApbSlave, MasterId, SlaveId};
use pels_periph::{
    Adc, Gpio, I2c, L2Memory, Periph, PeriphCtx, Peripheral, SensorDevice, SleepPlan, Spi, Timer,
    Uart, Variant, Watchdog,
};
use pels_sim::intern::FixedName;
use pels_sim::{
    ActivityKind, ActivityRow, ActivitySet, ActivitySink, ActivityTimeline, ComponentId,
    EventVector, Frequency, PeriodVisitor, PeriodWalk, Periodic, SimTime, Trace, TraceEntry,
};

/// The synthetic analog source (defined in `pels-periph`, re-exported by
/// `pels-desc` and here).
pub use pels_desc::SensorKind;

/// The SoC's fixed component names, interned once per process.
static IBEX: FixedName = FixedName::new("ibex");
static FABRIC: FixedName = FixedName::new("fabric");
static SOC_CTRL: FixedName = FixedName::new("soc_ctrl");
static PERIPH_MISC: FixedName = FixedName::new("periph_misc");
static PELS: FixedName = FixedName::new("pels");
static GPIO: FixedName = FixedName::new("gpio");
static TIMER: FixedName = FixedName::new("timer");
static SPI: FixedName = FixedName::new("spi");
static ADC: FixedName = FixedName::new("adc");
static UART: FixedName = FixedName::new("uart");
static WDT: FixedName = FixedName::new("wdt");
static I2C: FixedName = FixedName::new("i2c");

impl Soc {
    /// Validates `desc` and assembles exactly the SoC it describes.
    ///
    /// ```
    /// use pels_soc::{Soc, SystemDesc};
    /// let mut desc = SystemDesc::default();
    /// desc.pels.links = 4;
    /// let soc = Soc::from_desc(&desc).expect("valid description");
    /// assert_eq!(soc.pels().link_count(), 4);
    /// ```
    ///
    /// # Errors
    ///
    /// Whatever [`SystemDesc::validate`] rejects — zero or out-of-range
    /// PELS geometry, bad slots, missing or duplicated peripherals, a
    /// zero SPI divider — as a [`DescError`] with the JSON path of the
    /// offending value.
    pub fn from_desc(desc: &SystemDesc) -> Result<Soc, DescError> {
        desc.validate()?;
        // PELS loopback window: lines 40..=47 feed back for inter-link
        // triggering.
        let mut pels_cfg = desc.pels.to_config();
        pels_cfg.loopback = (AL_LOOPBACK_FIRST..=AL_LOOPBACK_LAST).collect();
        let pels = Pels::new(pels_cfg);

        let mut fabric: ApbFabric<Periph> = ApbFabric::with_config(desc.topology, desc.arbiter);
        let cpu_master = fabric.add_master(IBEX.id());
        let pels_masters: Vec<MasterId> = (0..pels_cfg.links)
            .map(|i| fabric.add_master(link_id(i)))
            .collect();

        // Instantiate and wire each described peripheral, placing it on
        // its described APB slot in description order.
        let slot = |off: u32| AddrRange::new(APB_BASE + off, APB_STRIDE);
        let (mut gpio_id, mut timer_id, mut spi_id, mut adc_id) = (None, None, None, None);
        let (mut uart_id, mut wdt_id, mut i2c_id) = (None, None, None);
        let mut periph_ids = Vec::with_capacity(desc.peripherals.len());
        for inst in &desc.peripherals {
            let periph = match inst.kind {
                PeriphKind::Gpio => {
                    let mut gpio = Gpio::new(GPIO.id());
                    gpio.wire_set_action(AL_GPIO_SET, 1)
                        .wire_clear_action(AL_GPIO_CLEAR, 1)
                        .wire_toggle_action(AL_GPIO_TOGGLE, 1)
                        .watch_pin(0, EV_GPIO_RISE);
                    Periph::Gpio(gpio)
                }
                PeriphKind::Timer => {
                    let mut timer = Timer::new(TIMER.id());
                    timer
                        .wire_compare_event(EV_TIMER_CMP)
                        .wire_start_action(AL_TIMER_START)
                        .wire_stop_action(AL_TIMER_STOP);
                    Periph::Timer(timer)
                }
                PeriphKind::Spi { clkdiv } => {
                    let mut spi = Spi::new(SPI.id(), desc.sensor.quantizer());
                    spi.wire_eot_event(EV_SPI_EOT)
                        .wire_udma_done_event(EV_SPI_UDMA_DONE);
                    if desc.timer_starts_spi {
                        spi.wire_start_action(EV_TIMER_CMP);
                    }
                    spi.write(Spi::CLKDIV, clkdiv)
                        .expect("clkdiv is validated above");
                    Periph::Spi(spi)
                }
                PeriphKind::Adc { conversion_cycles } => {
                    let mut adc = Adc::new(ADC.id(), desc.sensor.quantizer(), conversion_cycles);
                    adc.wire_done_event(EV_ADC_DONE)
                        .wire_start_action(AL_ADC_START);
                    Periph::Adc(adc)
                }
                PeriphKind::Uart => {
                    let mut uart = Uart::new(UART.id());
                    uart.wire_tx_done_event(EV_UART_TX_DONE);
                    Periph::Uart(uart)
                }
                PeriphKind::Wdt => {
                    let mut wdt = Watchdog::new(WDT.id());
                    wdt.wire_bite_event(EV_WDT_BITE)
                        .wire_kick_action(AL_WDT_KICK);
                    Periph::Wdt(wdt)
                }
                PeriphKind::I2c => {
                    let mut i2c = I2c::new(I2C.id());
                    i2c.attach(SensorDevice::new(0x48, desc.sensor.quantizer()))
                        .wire_done_event(EV_I2C_DONE)
                        .wire_nack_event(EV_I2C_NACK)
                        .wire_start_action(AL_I2C_START);
                    Periph::I2c(i2c)
                }
            };
            periph_ids.push(periph.component());
            let id = fabric.add_slave(slot(inst.offset), periph);
            match inst.kind {
                PeriphKind::Gpio => gpio_id = Some(id),
                PeriphKind::Timer => timer_id = Some(id),
                PeriphKind::Spi { .. } => spi_id = Some(id),
                PeriphKind::Adc { .. } => adc_id = Some(id),
                PeriphKind::Uart => uart_id = Some(id),
                PeriphKind::Wdt => wdt_id = Some(id),
                PeriphKind::I2c => i2c_id = Some(id),
            }
        }
        let expect = |id: Option<SlaveId>, name: &str| {
            id.unwrap_or_else(|| panic!("description must instantiate one `{name}`"))
        };
        let gpio_id = expect(gpio_id, "gpio");
        let timer_id = expect(timer_id, "timer");
        let spi_id = expect(spi_id, "spi");
        let adc_id = expect(adc_id, "adc");
        let uart_id = expect(uart_id, "uart");
        let wdt_id = expect(wdt_id, "wdt");
        let i2c_id = expect(i2c_id, "i2c");
        let slave_count = fabric.slave_count();
        let irq_map = vec![
            (EV_SPI_EOT, irq_bit_for_event(EV_SPI_EOT)),
            (EV_TIMER_CMP, irq_bit_for_event(EV_TIMER_CMP)),
            (EV_ADC_DONE, irq_bit_for_event(EV_ADC_DONE)),
            (EV_WDT_BITE, irq_bit_for_event(EV_WDT_BITE)),
        ];

        let clock_ids = ClockIds {
            ibex: IBEX.id(),
            fabric: FABRIC.id(),
            soc_ctrl: SOC_CTRL.id(),
            periph_misc: PERIPH_MISC.id(),
            periphs: periph_ids,
            pels: PELS.id(),
            links: (0..pels_cfg.links).map(link_id).collect(),
        };

        Ok(Soc {
            freq: desc.freq,
            cycle: 0,
            l2: L2Memory::new(L2_SIZE),
            fabric,
            pels,
            pels_masters,
            cpu: Cpu::new(RESET_PC),
            cpu_master,
            closed: ActivityRow::default(),
            trace: Trace::new(),
            prev_wires: EventVector::EMPTY,
            injected: EventVector::EMPTY,
            irq_pending: 0,
            irq_lines: irq_map.iter().map(|&(line, _)| line).collect(),
            irq_map,
            irq_flow: [0; 32],
            gpio_id,
            timer_id,
            spi_id,
            adc_id,
            uart_id,
            wdt_id,
            i2c_id,
            cpu_awake_cycles: 0,
            window_cycles: 0,
            clock_ids,
            accel: Accel {
                sched: SlaveSched::new(slave_count),
                naive: false,
                sampler: None,
                fast_forward: FastForwardStats::default(),
            },
        })
    }
}

/// State of the passive windowed activity sampler (see
/// [`Soc::start_timeline`]).
///
/// The sampler never changes how the SoC advances: it only *flushes*
/// component counters at observation points the run loops already pass
/// through, and flushing is segmentation invariant, so obs-off and
/// timeline-on runs are bit-identical in every architectural result
/// (`tests/observation_invariance.rs`). A close flushes the components
/// into the sampler's reused row buffer, adds the row to the SoC's
/// `closed` image, hands it with its clock share to the timeline and
/// zeroes it. Both are [`ActivityRow`]s, one `u64` per counter the
/// SoC's components and clock accounting record (60 on the default
/// SoC), laid out by the first close, so a close hashes, compares, sums
/// and clears a few dozen words. No cumulative image is copied or
/// diffed, and everything the next drain returns stays in SoC fields:
/// the components' counters and `closed`.
#[derive(Clone, PartialEq)]
struct TimelineSampler {
    /// Nominal window width in cycles.
    window_cycles: u64,
    /// Cycle at which the current window opened.
    window_start: u64,
    /// First cycle at or past which the current window closes. Checked
    /// (never enforced) at run-loop observation points, so a quiescence
    /// skip crossing the boundary stretches the window instead of being
    /// split — `try_skip` and `SchedStats` stay untouched.
    next_boundary: u64,
    /// The closing window's row: filled and emptied by each close, so
    /// all zeros in between.
    row: ActivityRow,
    /// What the open window's components counted before a drain inside
    /// it took their counts; `None` for most windows.
    carry: Option<ActivitySet>,
    /// `cpu_awake_cycles` at window start, less the awake cycles a drain
    /// inside the window reset (wrapping), so that
    /// `cpu_awake_cycles - awake_start` is the window's awake share.
    awake_start: u64,
    /// Windows captured so far.
    timeline: ActivityTimeline,
}

/// Pre-interned component ids used on the per-drain clock-accounting
/// path, so draining never re-interns (or re-formats) names.
#[derive(Clone, PartialEq)]
struct ClockIds {
    ibex: ComponentId,
    fabric: ComponentId,
    soc_ctrl: ComponentId,
    periph_misc: ComponentId,
    periphs: Vec<ComponentId>,
    pels: ComponentId,
    links: Vec<ComponentId>,
}

/// Cumulative scheduler statistics: which of the three stepping regimes
/// each cycle took, how much whole-SoC idle time was jumped, and how
/// often slaves changed sleep state. Pure observation — nothing in the
/// scheduler reads these back, so recording them cannot perturb
/// behaviour (`tests/observation_invariance.rs` proves runs are
/// bit-identical with observability on or off). A bus access to a
/// sleeping slave is served in place, so on its own it moves none of
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Cycles stepped on the fast active-list path (no sleeper was due,
    /// only active slaves ticked).
    pub fast_cycles: u64,
    /// Cycles where the stir check found sleepers due by deadline or
    /// wire (they catch up and tick alongside the active set).
    pub stirred_cycles: u64,
    /// Cycles stepped under naive (reference) scheduling.
    pub naive_cycles: u64,
    /// Whole-SoC idle spans jumped by the O(1) skip.
    pub skip_spans: u64,
    /// Total cycles covered by those spans.
    pub skipped_cycles: u64,
    /// Scheduler aggregate-update batches: each wake batch, and each
    /// sleep-decision pass that put a slave to sleep or re-slept one in
    /// place, whether or not it had to refold an aggregate.
    pub rebuilds: u64,
    /// Individual slave wake transitions: sleepers due by deadline or
    /// wire, and sleepers a bus access left needing the next tick.
    pub wakes: u64,
    /// Individual awake-to-asleep transitions (a sleeper re-sleeping in
    /// place after a bus access is not one).
    pub sleeps: u64,
}

impl SchedStats {
    /// Cycles actually stepped (excludes skipped spans).
    pub fn stepped_cycles(&self) -> u64 {
        self.fast_cycles + self.stirred_cycles + self.naive_cycles
    }
}

/// Quiescence-scheduling state of every APB slave, as per-slave arrays
/// plus bitmask and aggregate views of them. The aggregates turn the
/// per-cycle scheduling questions ("does any sleeper need waking?",
/// "who must tick?") into a few word-sized compares instead of a walk
/// over every peripheral — the active-slave scheduling half of the fast
/// active path (see `DESIGN.md` §7).
///
/// Every transition is O(1) in the common case. Falling asleep, or
/// re-sleeping in place after a bus access, ORs / mins the slave's mask
/// and deadline into the aggregates. Waking refolds an aggregate over
/// the remaining sleepers only when a woken slave contributed to it (it
/// held the minimum deadline or had a wake mask); so does a re-sleep
/// that raises the minimum or drops a mask line.
///
/// A sleeper's deadline is `u64::MAX` exactly when its plan was idle
/// until a wire ([`SleepPlan::UNTIL_WIRE`]), whose `catch_up` is a no-op
/// by contract: only sleepers with a finite deadline have a span to
/// replay.
#[derive(Debug, Clone, PartialEq)]
struct SlaveSched {
    /// Bit-per-index mask of awake slaves. Its set bits, taken in
    /// ascending order ([`set_bits`]), visit slaves in exactly the order
    /// the naive full walk does.
    active: u64,
    /// Bit-per-index mask of sleeping slaves.
    asleep: u64,
    /// Union of all sleepers' wake masks.
    wake_union: EventVector,
    /// Earliest sleeper deadline (`u64::MAX` when none sleeps).
    next_deadline: u64,
    /// Per slave: the first un-ticked cycle while asleep, [`AWAKE`] while
    /// awake.
    since: Vec<u64>,
    /// Per slave: the cycle by which a sleeper must tick again
    /// (`u64::MAX` while awake or idle until a wire).
    deadline: Vec<u64>,
    /// Per slave: the wake-event mask sampled when it (re-)slept (empty
    /// while awake).
    mask: Vec<EventVector>,
    /// Observation-only counters (never read by scheduling decisions).
    stats: SchedStats,
}

/// The `since` slot of an awake slave.
const AWAKE: u64 = u64::MAX;

/// The indices of `mask`'s set bits, ascending.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

impl SlaveSched {
    /// `n` slaves, all awake.
    fn new(n: usize) -> Self {
        SlaveSched {
            active: (0..n).fold(0, |mask, i| mask | 1 << i),
            asleep: 0,
            wake_union: EventVector::EMPTY,
            next_deadline: u64::MAX,
            since: vec![AWAKE; n],
            deadline: vec![u64::MAX; n],
            mask: vec![EventVector::EMPTY; n],
            stats: SchedStats::default(),
        }
    }

    /// Puts awake slave `i` to sleep from cycle `since` until `deadline`.
    fn sleep(&mut self, i: usize, since: u64, deadline: u64, mask: EventVector) {
        let bit = 1u64 << i;
        self.active &= !bit;
        self.asleep |= bit;
        self.since[i] = since;
        self.deadline[i] = deadline;
        self.mask[i] = mask;
        self.wake_union |= mask;
        self.next_deadline = self.next_deadline.min(deadline);
    }

    /// Gives sleeping slave `i` a new deadline and wake mask (its state
    /// changed under a bus access), keeping it asleep.
    fn resleep(&mut self, i: usize, deadline: u64, mask: EventVector) {
        let (old_deadline, old_mask) = (self.deadline[i], self.mask[i]);
        self.deadline[i] = deadline;
        self.mask[i] = mask;
        let deadline_stale = deadline > old_deadline && old_deadline == self.next_deadline;
        let union_stale = !(old_mask & !mask).is_empty();
        if !deadline_stale {
            self.next_deadline = self.next_deadline.min(deadline);
        }
        if !union_stale {
            self.wake_union |= mask;
        }
        self.refold(deadline_stale, union_stale);
    }

    /// Sleepers whose own deadline is due at `cycle` or whose wake mask
    /// meets `wires`.
    fn due(&self, cycle: u64, wires: EventVector) -> u64 {
        set_bits(self.asleep)
            .filter(|&i| cycle >= self.deadline[i] || wires.intersects(self.mask[i]))
            .fold(0, |due, i| due | 1 << i)
    }

    /// Wakes every slave in `set` (awake ones stay awake): one aggregate
    /// update, which refolds an aggregate only when a woken slave
    /// contributed to it.
    fn wake(&mut self, set: u64) {
        let set = set & self.asleep;
        let (mut deadline_stale, mut union_stale) = (false, false);
        for i in set_bits(set) {
            deadline_stale |= self.deadline[i] == self.next_deadline;
            union_stale |= !self.mask[i].is_empty();
            self.since[i] = AWAKE;
            self.deadline[i] = u64::MAX;
            self.mask[i] = EventVector::EMPTY;
        }
        self.active |= set;
        self.asleep &= !set;
        self.refold(
            deadline_stale && self.next_deadline != u64::MAX,
            union_stale,
        );
        self.stats.rebuilds += 1;
    }

    /// Recomputes the stale aggregates over the sleepers.
    fn refold(&mut self, deadline: bool, union: bool) {
        if deadline {
            self.next_deadline = set_bits(self.asleep)
                .map(|i| self.deadline[i])
                .fold(u64::MAX, u64::min);
        }
        if union {
            self.wake_union =
                set_bits(self.asleep).fold(EventVector::EMPTY, |u, i| u | self.mask[i]);
        }
    }

    /// Whether the bitmasks and aggregates equal a from-scratch
    /// recomputation over the per-slave arrays, and awake slots are
    /// clear.
    fn consistent(&self) -> bool {
        let mut asleep = 0u64;
        let mut wake_union = EventVector::EMPTY;
        let mut next_deadline = u64::MAX;
        for (i, &since) in self.since.iter().enumerate() {
            if since == AWAKE {
                if self.deadline[i] != u64::MAX || !self.mask[i].is_empty() {
                    return false;
                }
            } else {
                asleep |= 1 << i;
                wake_union |= self.mask[i];
                next_deadline = next_deadline.min(self.deadline[i]);
            }
        }
        let all = (0..self.since.len()).fold(0u64, |mask, i| mask | 1 << i);
        self.active == all & !asleep
            && self.asleep == asleep
            && self.wake_union == wake_union
            && self.next_deadline == next_deadline
    }
}

/// The assembled PULPissimo-like SoC.
///
/// Every component is held by value, so a clone is an independent
/// snapshot: stepping it continues exactly as the original would.
/// Equality is architectural (see [`Soc::first_difference`]).
#[derive(Clone, PartialEq)]
pub struct Soc {
    freq: Frequency,
    cycle: u64,
    l2: L2Memory,
    fabric: ApbFabric<Periph>,
    pels: Pels,
    pels_masters: Vec<MasterId>,
    cpu: Cpu,
    cpu_master: MasterId,
    /// Component activity of the sampling windows closed since the last
    /// drain (zero when no sampler ran): with the components' unflushed
    /// counters, what the next drain returns. Laid out like the sampler's
    /// row from the end of the first close on.
    closed: ActivityRow,
    trace: Trace,
    /// Wire image peripherals sample next cycle: pulses + action lines.
    prev_wires: EventVector,
    /// Externally injected pulses for the next cycle (pad-level wake-up
    /// sources outside the modelled peripherals, e.g. an always-on
    /// 32 kHz domain).
    injected: EventVector,
    /// Edge-latched interrupt pending bits (cleared on CPU claim).
    irq_pending: u32,
    irq_map: Vec<(u32, u32)>,
    /// Union of `irq_map`'s event lines.
    irq_lines: EventVector,
    /// Causal flow latched alongside each `irq_pending` bit (flow layer
    /// only; all zeros when flows are off).
    irq_flow: [u64; 32],
    gpio_id: SlaveId,
    timer_id: SlaveId,
    spi_id: SlaveId,
    adc_id: SlaveId,
    uart_id: SlaveId,
    wdt_id: SlaveId,
    i2c_id: SlaveId,
    cpu_awake_cycles: u64,
    window_cycles: u64,
    clock_ids: ClockIds,
    accel: Accel,
}

/// The SoC's host-side state: how the simulator advances and what it
/// samples, never what the simulated chip holds. It legitimately differs
/// between [`ExecMode`]s, so any two compare equal and the derived
/// [`Soc`] equality is architectural.
#[derive(Clone)]
struct Accel {
    /// Per-slave quiescence state and its aggregates.
    sched: SlaveSched,
    /// When set, every slave ticks every cycle (the reference scheduler
    /// the differential property test compares against).
    naive: bool,
    /// Windowed activity sampler; `None` (the default) keeps every run
    /// loop's sampling cost at a single predictable branch.
    sampler: Option<Box<TimelineSampler>>,
    /// What [`Soc::run_for_trace_count`]'s fast-forward did.
    fast_forward: FastForwardStats,
}

/// What event-period fast-forward did (see [`Soc::run_for_trace_count`]):
/// host-side counts, kept out of [`SchedStats`] and the metrics, which
/// must not depend on which observers a run has.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// Jumps taken.
    pub jumps: u64,
    /// Whole periods replayed by those jumps.
    pub periods: u64,
    /// Cycles those periods cover.
    pub cycles: u64,
}

impl PartialEq for Accel {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Sleeper stamps and the scheduler's statistics; the sampler's window
/// bounds (stamps) and awake-cycle base (a counter, like the awake
/// count it is subtracted from). The timeline itself grows with the
/// horizon and is repeated by [`ActivityTimeline::repeat_period`].
impl Periodic for Accel {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        let sched = &mut self.sched;
        for stamp in sched.since.iter_mut().chain(&mut sched.deadline) {
            v.stamp(stamp);
        }
        v.stamp(&mut sched.next_deadline);
        let s = &mut sched.stats;
        for c in [
            &mut s.fast_cycles,
            &mut s.stirred_cycles,
            &mut s.naive_cycles,
            &mut s.skip_spans,
            &mut s.skipped_cycles,
            &mut s.rebuilds,
            &mut s.wakes,
            &mut s.sleeps,
        ] {
            v.counter(c);
        }
        if let Some(s) = self.sampler.as_deref_mut() {
            v.stamp(&mut s.window_start);
            v.stamp(&mut s.next_boundary);
            v.counter(&mut s.awake_start);
        }
    }
}

/// Every component's counters and stamps, the SoC's own cycle and clock
/// accounting, the closed windows' counts and the flows latched with
/// pending interrupts. The trace is left out: a replayed period's
/// entries go through [`Trace::repeat_period`].
impl Periodic for Soc {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        v.counter(&mut self.cycle);
        v.counter(&mut self.cpu_awake_cycles);
        v.counter(&mut self.window_cycles);
        self.cpu.visit_period(v);
        self.pels.visit_period(v);
        self.fabric.visit_period(v);
        self.l2.visit_period(v);
        self.closed.visit_period(v);
        for flow in &mut self.irq_flow {
            v.flow(flow);
        }
        self.accel.visit_period(v);
    }
}

/// A period snapshot (see [`Soc::run_for_trace_count`]): the SoC with
/// every counter taken out and every stamp made relative to the cycle it
/// was taken at, with the trace's repeating part only and no timeline.
struct PeriodSnapshot {
    /// The watched count it was taken at.
    events: usize,
    cycle: u64,
    /// Flows minted, flow hops recorded and timeline windows closed so
    /// far: where the next period's side effects start.
    minted: u64,
    hops: usize,
    windows: usize,
    /// The counters taken out, in visit order.
    counters: Vec<u64>,
    /// The flow ids taken out, in visit order.
    flows: Vec<u64>,
    state: Soc,
}

impl PeriodSnapshot {
    /// Whether `self` and a later snapshot `next` hold the same repeating
    /// state, so that the SoC repeats with their distance as its period.
    /// `Accel`'s equality is always true, so its scheduler and sampler
    /// are compared here (snapshots are taken only on the fast path).
    fn repeats_at(&self, next: &PeriodSnapshot) -> bool {
        let (a, b) = (&self.state, &next.state);
        self.counters.len() == next.counters.len()
            && self.flows.len() == next.flows.len()
            && self.flows_relabel_to(next)
            && a == b
            && a.accel.sched == b.accel.sched
            && a.accel.sampler == b.accel.sampler
            && a.trace.same_period_state(&b.trace)
    }

    /// Whether `next`'s flow ids are `self`'s relabelled as one period
    /// relabels them: each id either stays (a flow older than `self`) or
    /// moves by the period's mint count to a flow minted in the period,
    /// and every field that held one id at `self` holds one id at
    /// `next`. Flow ids are only labels (the models compare them and
    /// test them against 0), so such a relabelling repeats.
    fn flows_relabel_to(&self, next: &PeriodSnapshot) -> bool {
        let minted = next.minted - self.minted;
        let mut pairs: Vec<(u64, u64)> = (self.flows.iter().copied())
            .zip(next.flows.iter().copied())
            .filter(|&(x, y)| x != 0 || y != 0)
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let moves = |&(x, y): &(u64, u64)| y == x || (y > self.minted && y - x == minted);
        pairs.iter().all(|p| p.0 != 0 && moves(p)) && pairs.windows(2).all(|w| w[0].0 != w[1].0)
    }
}

/// Fast-forward probing for one [`Soc::run_for_trace_count`]: a base
/// snapshot at one completion marker, compared with a snapshot at each of
/// the next [`Probe::MAX_PERIOD`] markers. A probe that finds no period
/// gives way to the next one `gap` markers later, and the gap doubles,
/// so a run that never repeats takes O(log events) snapshots.
struct Probe {
    /// The watched count at which to take the next snapshot.
    next: usize,
    gap: usize,
    /// The base snapshot, while the trace logs the entries since.
    base: Option<PeriodSnapshot>,
}

impl Probe {
    /// The longest period, in events, a probe looks for. The GPIO pad
    /// toggles on each event, so the SoC's period is often two events.
    const MAX_PERIOD: usize = 4;
    /// The first base: the first events warm up FIFO watermarks, L2 pages
    /// and the sampler's row layout.
    const FIRST: usize = 2;
}

impl std::fmt::Debug for Soc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Soc")
            .field("freq", &self.freq)
            .field("cycle", &self.cycle)
            .field("pels_links", &self.pels.link_count())
            .finish_non_exhaustive()
    }
}

impl Soc {
    /// The first component whose architectural state differs between
    /// `self` and `other`, or `None` when the two SoCs are equal. Names,
    /// in this order: `cycle`, `cpu`, `pels`, a peripheral's trace name,
    /// `fabric`, `l2`, `trace`, and `soc` for the SoC's own wire,
    /// interrupt and clock-accounting state and the activity of timeline
    /// windows closed since the last drain. Each component counts its
    /// own undrained activity, so a differing charge is named by the
    /// component that counted it.
    ///
    /// `Soc`'s derived `PartialEq` is architectural equality: it compares
    /// all of the above and leaves out only host-side state, which
    /// legitimately differs between [`ExecMode`]s: the slave scheduler
    /// with its [`SchedStats`], the exec mode itself and the timeline
    /// sampler.
    pub fn first_difference(&self, other: &Soc) -> Option<&'static str> {
        if self == other {
            return None;
        }
        let (fabric, theirs) = (&self.fabric, &other.fabric);
        let periph = (0..fabric.slave_count().min(theirs.slave_count()))
            .map(|i| (fabric.slave_at(i), theirs.slave_at(i)))
            .find(|(mine, theirs)| mine != theirs);
        Some(if (self.freq, self.cycle) != (other.freq, other.cycle) {
            "cycle"
        } else if self.cpu != other.cpu {
            "cpu"
        } else if self.pels != other.pels {
            "pels"
        } else if let Some((p, _)) = periph {
            p.component().name()
        } else if fabric != theirs {
            "fabric"
        } else if self.l2 != other.l2 {
            "l2"
        } else if self.trace != other.trace {
            "trace"
        } else {
            "soc"
        })
    }
}

/// PELS master ports over the fabric.
struct PelsPort<'a> {
    fabric: &'a mut ApbFabric<Periph>,
    masters: &'a [MasterId],
}

impl PelsBus for PelsPort<'_> {
    fn can_issue(&self, link: usize) -> bool {
        self.fabric.can_issue(self.masters[link])
    }
    fn issue_read(&mut self, link: usize, addr: u32) -> bool {
        self.fabric
            .issue(self.masters[link], ApbRequest::read(addr))
            .is_ok()
    }
    fn issue_write(&mut self, link: usize, addr: u32, value: u32) -> bool {
        self.fabric
            .issue(self.masters[link], ApbRequest::write(addr, value))
            .is_ok()
    }
    fn take_response(&mut self, link: usize) -> Option<Result<u32, ()>> {
        self.fabric
            .take_response(self.masters[link])
            .map(|r| r.result.map_err(|_| ()))
    }
}

/// The CPU's view of the platform: L2 (fast path), PELS config (fixed
/// short latency) and the APB peripherals (through the fabric, with
/// arbitration stalls).
struct CpuPort<'a> {
    l2: &'a mut L2Memory,
    fabric: &'a mut ApbFabric<Periph>,
    master: MasterId,
    pels: &'a mut Pels,
    trace: &'a mut Trace,
    /// Time of the cycle this port was built for (handler load/store flow
    /// hops).
    time: SimTime,
    cpu_id: ComponentId,
}

impl CpuBus for CpuPort<'_> {
    fn fetch(&mut self, addr: u32) -> u32 {
        debug_assert!(
            (L2_BASE..L2_BASE + L2_SIZE).contains(&addr),
            "instruction fetch outside L2: {addr:#x}"
        );
        self.l2.read_word(addr - L2_BASE)
    }

    fn data(&mut self, req: DataReq) -> DataResult {
        let addr = req.addr;
        if (L2_BASE..L2_BASE + L2_SIZE).contains(&addr) {
            let off = addr - L2_BASE;
            if req.write {
                if req.strobe == 0b1111 {
                    self.l2.write_word(off, req.wdata);
                } else {
                    let mut w = self.l2.peek_word(off);
                    for lane in 0..4 {
                        if req.strobe & (1 << lane) != 0 {
                            let mask = 0xFFu32 << (lane * 8);
                            w = (w & !mask) | (req.wdata & mask);
                        }
                    }
                    self.l2.write_word(off, w);
                }
                DataResult::Done {
                    value: 0,
                    extra_cycles: 0,
                }
            } else {
                DataResult::Done {
                    value: self.l2.read_word(off),
                    extra_cycles: 0,
                }
            }
        } else if (PELS_BASE..PELS_BASE + PELS_SIZE).contains(&addr) {
            let off = addr - PELS_BASE;
            // The config port is a simple APB endpoint: model its
            // setup+access as two extra stall cycles.
            if req.write {
                match self.pels.config_write(off, req.wdata) {
                    Ok(()) => DataResult::Done {
                        value: 0,
                        extra_cycles: 2,
                    },
                    Err(_) => DataResult::Fault,
                }
            } else {
                match self.pels.config_read(off) {
                    Ok(v) => DataResult::Done {
                        value: v,
                        extra_cycles: 2,
                    },
                    Err(_) => DataResult::Fault,
                }
            }
        } else if (APB_BASE..APB_BASE + APB_SIZE).contains(&addr) {
            let request = if req.write {
                ApbRequest::write(addr, req.wdata)
            } else {
                ApbRequest::read(addr)
            };
            match self.fabric.issue(self.master, request) {
                Ok(()) => {
                    // One APB data access per handler load/store: issued
                    // exactly once per transaction (later cycles poll).
                    if let Some(f) = self.trace.flow_trace_mut() {
                        let stage = if req.write { "handler_store" } else { "handler_load" };
                        f.hop(self.time, self.cpu_id, stage);
                    }
                    DataResult::Pending
                }
                Err(_) => DataResult::Fault,
            }
        } else {
            DataResult::Fault
        }
    }

    fn poll(&mut self) -> Option<Result<u32, ()>> {
        self.fabric
            .take_response(self.master)
            .map(|r| r.result.map_err(|_| ()))
    }
}

impl Soc {
    /// The system clock frequency.
    pub fn frequency(&self) -> Frequency {
        self.freq
    }

    /// Elapsed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current simulation time.
    pub fn time(&self) -> SimTime {
        SimTime::from_ps(self.freq.period_ps() * self.cycle)
    }

    /// The event trace (latency measurements read this).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable trace access (e.g. to take the causal flow layer).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The PELS instance.
    pub fn pels(&self) -> &Pels {
        &self.pels
    }

    /// Mutable PELS access (programming).
    pub fn pels_mut(&mut self) -> &mut Pels {
        &mut self.pels
    }

    /// The CPU.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable CPU access.
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// The L2 memory.
    pub fn l2(&self) -> &L2Memory {
        &self.l2
    }

    /// Mutable L2 access (program loading).
    pub fn l2_mut(&mut self) -> &mut L2Memory {
        &mut self.l2
    }

    /// Loads a program image at absolute address `addr` (must be in L2).
    ///
    /// # Panics
    ///
    /// Panics if the image falls outside L2.
    pub fn load_program(&mut self, addr: u32, words: &[u32]) {
        assert!(addr >= L2_BASE, "program must live in L2");
        self.l2.load(addr - L2_BASE, words);
    }

    fn periph<P: Variant>(&self, id: SlaveId) -> &P {
        P::of(self.fabric.slave(id)).expect("slave id maps to its peripheral")
    }

    fn periph_mut<P: Variant>(&mut self, id: SlaveId) -> &mut P {
        // A direct mutable poke bypasses the bus, so none of the wake
        // conditions would notice it: sync the skipped span and force
        // the slave awake so its next tick sees the poked state.
        self.sync_slaves();
        self.accel.sched.wake(1 << id.index());
        P::of_mut(self.fabric.slave_mut(id)).expect("slave id maps to its peripheral")
    }

    /// The GPIO controller.
    pub fn gpio(&self) -> &Gpio {
        self.periph(self.gpio_id)
    }

    /// Mutable GPIO access.
    pub fn gpio_mut(&mut self) -> &mut Gpio {
        let id = self.gpio_id;
        self.periph_mut(id)
    }

    /// The timer.
    pub fn timer(&self) -> &Timer {
        self.periph(self.timer_id)
    }

    /// Mutable timer access.
    pub fn timer_mut(&mut self) -> &mut Timer {
        let id = self.timer_id;
        self.periph_mut(id)
    }

    /// The SPI master.
    pub fn spi(&self) -> &Spi {
        self.periph(self.spi_id)
    }

    /// Mutable SPI access.
    pub fn spi_mut(&mut self) -> &mut Spi {
        let id = self.spi_id;
        self.periph_mut(id)
    }

    /// The ADC.
    pub fn adc(&self) -> &Adc {
        self.periph(self.adc_id)
    }

    /// Mutable ADC access.
    pub fn adc_mut(&mut self) -> &mut Adc {
        let id = self.adc_id;
        self.periph_mut(id)
    }

    /// The UART.
    pub fn uart(&self) -> &Uart {
        self.periph(self.uart_id)
    }

    /// Mutable UART access.
    pub fn uart_mut(&mut self) -> &mut Uart {
        let id = self.uart_id;
        self.periph_mut(id)
    }

    /// The watchdog.
    pub fn wdt(&self) -> &Watchdog {
        self.periph(self.wdt_id)
    }

    /// Mutable watchdog access.
    pub fn wdt_mut(&mut self) -> &mut Watchdog {
        let id = self.wdt_id;
        self.periph_mut(id)
    }

    /// The I2C master.
    pub fn i2c(&self) -> &I2c {
        self.periph(self.i2c_id)
    }

    /// Mutable I2C access.
    pub fn i2c_mut(&mut self) -> &mut I2c {
        let id = self.i2c_id;
        self.periph_mut(id)
    }

    /// Fabric statistics. `transfers` and `busy_cycles` count since the
    /// last activity flush (a [`Soc::drain_activity`] or a timeline
    /// window close); reads, writes, stalls and errors are cumulative
    /// since construction. [`Soc::publish_metrics`] adds back what
    /// closed windows flushed, so its keys count since the last drain.
    pub fn fabric_stats(&self) -> pels_interconnect::FabricStats {
        self.fabric.stats()
    }

    /// Per-master fabric arbitration statistics (grants and stall cycles
    /// per bus master), cumulative since construction.
    pub fn master_stats(&self) -> Vec<pels_interconnect::MasterStats> {
        self.fabric.master_stats()
    }

    /// Scheduler statistics: fast/stirred/naive cycle split, skip spans,
    /// aggregate-update and wake/sleep transition counts. Cumulative since
    /// construction.
    pub fn sched_stats(&self) -> SchedStats {
        self.accel.sched.stats
    }

    /// Publishes CPU, scheduler and fabric counters into `m` (gauge
    /// semantics — idempotent at a given point in the run). Keys:
    /// `cpu.*`, `soc.sched.*`, `fabric.*`, and `fabric.master.<name>.*`
    /// per bus master.
    ///
    /// The activity counters (`cpu.retired`, `cpu.fetches`,
    /// `cpu.irq.overhead_cycles`, `fabric.transfers`,
    /// `fabric.busy_cycles`) count since the last
    /// [`Soc::drain_activity`], whether or not a timeline sampler
    /// flushed part of them into a closed window meanwhile.
    pub fn publish_metrics(&self, m: &mut pels_obs::MetricsSnapshot) {
        self.cpu.publish_metrics(m);
        let s = self.accel.sched.stats;
        m.set("soc.sched.fast_cycles", s.fast_cycles);
        m.set("soc.sched.stirred_cycles", s.stirred_cycles);
        m.set("soc.sched.naive_cycles", s.naive_cycles);
        m.set("soc.sched.skip_spans", s.skip_spans);
        m.set("soc.sched.skipped_cycles", s.skipped_cycles);
        m.set("soc.sched.rebuilds", s.rebuilds);
        m.set("soc.sched.wakes", s.wakes);
        m.set("soc.sched.sleeps", s.sleeps);
        let f = self.fabric.stats();
        m.set("fabric.transfers", f.transfers);
        m.set("fabric.stall_cycles", f.stall_cycles);
        m.set("fabric.busy_cycles", f.busy_cycles);
        for master in self.fabric.master_stats() {
            m.set(&format!("fabric.master.{}.grants", master.name), master.grants);
            m.set(&format!("fabric.master.{}.stalls", master.name), master.stall_cycles);
        }
        // The CPU and fabric report what they counted since their last
        // flush; add back what closed windows flushed since the last
        // drain.
        let ids = &self.clock_ids;
        for (key, id, kind) in [
            ("cpu.retired", ids.ibex, ActivityKind::InstrRetired),
            ("cpu.fetches", ids.ibex, ActivityKind::InstrFetch),
            ("cpu.irq.overhead_cycles", ids.ibex, ActivityKind::IrqOverhead),
            ("fabric.transfers", ids.fabric, ActivityKind::BusTransfer),
            ("fabric.busy_cycles", ids.fabric, ActivityKind::ActiveCycle),
        ] {
            let unflushed = m.get(key).unwrap_or(0);
            m.set(key, unflushed + self.closed.count_id(id, kind));
        }
    }

    /// Injects an external event pulse on global line `line` for the
    /// next cycle — the pad-level wake-up path of ULP SoCs (paper
    /// Section I: "the processing domain only wakes up when a specific
    /// condition is detected by the surrounding sensors"). Used by the
    /// dual-clock example to couple an always-on 32 kHz domain into the
    /// SoC domain.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn inject_event(&mut self, line: u32) {
        self.injected.set(line);
        // An injected pulse is an originating stimulus: mint its flow and
        // stage it on the wire the consuming step will sample.
        let time = self.time();
        if let Some(f) = self.trace.flow_trace_mut() {
            f.raise(time, self.clock_ids.soc_ctrl, line, "inject");
        }
    }

    /// Selects the execution path. [`ExecMode::Fast`] (the default)
    /// skips idle peripherals and reconstructs their skipped cycles in
    /// closed form; [`ExecMode::Naive`] is the reference path: every
    /// peripheral ticks every cycle and nothing is skipped. The CPU runs
    /// the same way in both. Both are observationally identical: after
    /// the same inputs the two SoCs compare equal (`==`, see
    /// [`Soc::first_difference`]), which leaves out only the scheduler,
    /// the exec mode and the timeline sampler. The differential suites
    /// in `tests/` check it after every step. May be switched mid-run.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        let naive = mode == ExecMode::Naive;
        self.sync_slaves();
        if naive {
            // Naive ticking never re-evaluates sleep state, so any slave
            // left asleep here would be skipped forever (and then
            // double-counted by a later catch-up). Wake everyone; the
            // sync above already replayed their skipped spans.
            self.accel.sched.wake(self.accel.sched.asleep);
        }
        self.accel.naive = naive;
    }

    /// Brings every sleeping slave's architectural state up to date
    /// (closed-form catch-up over the skipped span) without waking it.
    /// Called at every observation point — public step/run boundaries,
    /// `run_until` predicates, activity drains — so user code never sees
    /// lagging state.
    fn sync_slaves(&mut self) {
        // Only sleepers with a finite deadline (a counting timer or
        // watchdog, a converting ADC, a shifting SPI) have state to
        // reconstruct; an idle-until-wire sleeper's `catch_up` is a no-op
        // by contract, so skipping it — `since` and all — is
        // observationally identical.
        if self.accel.sched.next_deadline == u64::MAX {
            return;
        }
        let cycle = self.cycle;
        let sched = &mut self.accel.sched;
        for i in set_bits(sched.asleep) {
            let elapsed = cycle - sched.since[i];
            if sched.deadline[i] != u64::MAX && elapsed > 0 {
                self.fabric.slave_mut_at(i).catch_up(elapsed);
                sched.since[i] = cycle;
            }
        }
    }

    /// Executes one bus-clock cycle (see the crate docs for the phase
    /// ordering).
    pub fn step(&mut self) {
        self.step_inner();
        self.sync_slaves();
        self.timeline_tick();
    }

    fn step_inner(&mut self) {
        let time = self.time();
        let cycle = self.cycle;

        // 1. Peripherals (externally injected pulses appear alongside
        //    the peripheral-driven wires). A sleeping slave is skipped
        //    unless a wire it watches is high or its self-declared
        //    deadline arrived. Waking replays the skipped span in closed
        //    form *before* the normal tick, while the state is still
        //    exactly what the naive path would hold. (A bus access does
        //    not wake a sleeper: phase 4 serves it in place.)
        let injected = std::mem::take(&mut self.injected);
        let wires = self.prev_wires | injected;
        let naive = self.accel.naive;
        // Wake set: sleepers due this cycle. Each sleeper's own deadline
        // and mask are consulted only when the aggregate stir check
        // (their minimum / union) says some sleeper is due. Naive ticking
        // keeps every slave awake, so the set is empty there.
        let sched = &mut self.accel.sched;
        let mut wake = 0u64;
        if sched.asleep != 0 && (cycle >= sched.next_deadline || wires.intersects(sched.wake_union))
        {
            wake = sched.due(cycle, wires);
        }
        if naive {
            sched.stats.naive_cycles += 1;
        } else if wake != 0 {
            sched.stats.stirred_cycles += 1;
        } else {
            sched.stats.fast_cycles += 1;
        }
        // One walk over the active and waking slaves, in ascending index
        // order — exactly the slaves, and the order, of the naive full
        // walk's ticks. A waking slave replays its skipped span first.
        let mut ctx = PeriphCtx {
            time,
            events_in: wires,
            events_out: EventVector::EMPTY,
            l2: &mut self.l2,
            trace: &mut self.trace,
        };
        for i in set_bits(sched.active | wake) {
            let p = self.fabric.slave_mut_at(i);
            if wake & 1 << i != 0 {
                p.catch_up(cycle - sched.since[i]);
            }
            p.tick(&mut ctx);
        }
        let pulses = ctx.events_out | injected;
        if wake != 0 {
            sched.stats.wakes += u64::from(wake.count_ones());
            sched.wake(wake);
        }

        // 2. PELS.
        let actions = {
            let mut bus = PelsPort {
                fabric: &mut self.fabric,
                masters: &self.pels_masters,
            };
            self.pels.tick(pulses, time, &mut bus, &mut self.trace)
        };

        // 3. CPU with edge-latched interrupt lines.
        if pulses.intersects(self.irq_lines) {
            for &(line, bit) in &self.irq_map {
                if pulses.is_set(line) {
                    let newly = self.irq_pending & (1 << bit) == 0;
                    self.irq_pending |= 1 << bit;
                    if let Some(f) = self.trace.flow_trace_mut().filter(|_| newly) {
                        // Latch the wire's flow alongside the pending bit
                        // so the eventual handler entry inherits it.
                        let flow = f.flow_on_lines(1u64 << line);
                        self.irq_flow[bit as usize] = flow;
                        f.hop_with(time, self.clock_ids.ibex, flow, "irq_pend");
                    }
                }
            }
        }
        // A core whose plan is idle ticks exactly as it catches up one
        // cycle; only a busy core, or the naive reference, builds the
        // port and ticks.
        if !naive && self.cpu.sleep_plan(self.irq_pending).is_some() {
            self.cpu.catch_up(1, self.irq_pending);
        } else {
            let mut bus = CpuPort {
                l2: &mut self.l2,
                fabric: &mut self.fabric,
                master: self.cpu_master,
                pels: &mut self.pels,
                trace: &mut self.trace,
                time,
                cpu_id: self.clock_ids.ibex,
            };
            self.cpu.tick(&mut bus, self.irq_pending);
        }
        if let Some(line) = self.cpu.take_irq_ack() {
            self.irq_pending &= !(1u32 << line);
            if let Some(f) = self.trace.flow_trace_mut() {
                let flow = std::mem::take(&mut self.irq_flow[line as usize]);
                f.begin(time, self.clock_ids.ibex, flow, "irq_enter");
            }
        }

        // 4. Fabric APB phases. A sleeper the bus reaches this cycle is
        //    served in place: it is not due (the wake set above took
        //    every due sleeper), so this cycle's tick lies inside its
        //    replayable span, and catching it up through this cycle
        //    leaves it exactly as the naive path's tick did.
        let served = self.fabric.targeted_slaves() & self.accel.sched.asleep;
        if served != 0 {
            self.serve_in_place(served, cycle);
        }
        self.fabric.tick();
        self.record_bus_flows();

        // 4b. Sleep decisions, on post-bus state: a slave whose plan
        //     says the next n-1 ticks are unobservable (n >= 2) sleeps
        //     with an absolute deadline; an idle-until-wire one sleeps
        //     until one of its wires pulses. Plans are queried after the
        //     fabric phases so a register write landing this cycle is
        //     reflected. Only awake slaves and the sleepers the bus just
        //     read or wrote can have changed, so those are the slaves
        //     decided: a touched sleeper re-sleeps in place with its new
        //     plan, or wakes to tick next cycle.
        if !naive {
            let sched = &mut self.accel.sched;
            let touched = self.fabric.touched_slaves() & served;
            let (mut slept, mut resleeps, mut woke) = (0u64, 0u64, 0u64);
            for i in set_bits(sched.active | touched) {
                let plan = self.fabric.slave_at(i).sleep_plan();
                match plan.filter(|p| p.idle_for >= 2) {
                    Some(p) => {
                        // `u64::MAX` marks an idle-until-wire sleeper, so
                        // a finite deadline saturates one short of it.
                        let deadline = match p.idle_for {
                            SleepPlan::UNTIL_WIRE => u64::MAX,
                            n => cycle.saturating_add(n).min(u64::MAX - 1),
                        };
                        if touched & 1 << i != 0 {
                            sched.resleep(i, deadline, p.wake_mask);
                            resleeps += 1;
                        } else {
                            sched.sleep(i, cycle + 1, deadline, p.wake_mask);
                            slept += 1;
                        }
                    }
                    None if touched & 1 << i != 0 => woke |= 1 << i,
                    None => {}
                }
            }
            sched.stats.sleeps += slept;
            if slept + resleeps > 0 {
                sched.stats.rebuilds += 1;
            }
            if woke != 0 {
                sched.stats.wakes += u64::from(woke.count_ones());
                sched.wake(woke);
            }
        }
        debug_assert!(
            self.accel.sched.consistent(),
            "scheduler aggregates drifted from the per-slave arrays"
        );

        // 5. Bookkeeping.
        if matches!(self.cpu.state(), CpuState::Running | CpuState::MemWait) {
            self.cpu_awake_cycles += 1;
        }
        self.prev_wires = pulses | actions;
        if let Some(f) = self.trace.flow_trace_mut() {
            f.cycle_end();
        }
        self.cycle += 1;
        self.window_cycles += 1;
    }

    /// Catches the sleeping slaves in `served` up through `cycle`, before
    /// the fabric phases read or write them, and leaves them asleep.
    fn serve_in_place(&mut self, served: u64, cycle: u64) {
        let sched = &mut self.accel.sched;
        for i in set_bits(served) {
            debug_assert!(cycle < sched.deadline[i], "a due sleeper is awake by now");
            if sched.deadline[i] != u64::MAX {
                self.fabric
                    .slave_mut_at(i)
                    .catch_up(cycle + 1 - sched.since[i]);
            }
            sched.since[i] = cycle + 1;
        }
    }

    /// Records the flows of this cycle's bus phases, when flows are on.
    /// Each fabric write commit stages a flow keyed by the slave it hit:
    /// the CPU master carries the CPU's adopted context (IRQ handler
    /// stores), each PELS master its link's (sequenced RMW commands). The
    /// slave's next tick consumes it — e.g. GPIO pad-out attribution. A
    /// retired `mret` closes out the CPU's flow context.
    fn record_bus_flows(&mut self) {
        let Some(f) = self.trace.flow_trace_mut() else {
            return;
        };
        for &(slave, master) in self.fabric.write_commits() {
            let flow = if master == self.cpu_master.index() {
                f.component(self.clock_ids.ibex)
            } else {
                self.pels_masters
                    .iter()
                    .position(|m| m.index() == master)
                    .and_then(|link| self.clock_ids.links.get(link))
                    .map_or(0, |&id| f.component(id))
            };
            if flow != 0 {
                f.stage_reg_write(self.fabric.slave_at(slave).component(), flow);
            }
        }
        // Handler exit: `mret` retires inside the CPU; convert its core
        // cycle (locked to the SoC cycle) to absolute time.
        if let Some(c) = self.cpu.take_mret() {
            let t = SimTime::from_ps(self.freq.period_ps() * c);
            f.hop(t, self.clock_ids.ibex, "mret");
            f.begin(t, self.clock_ids.ibex, 0, "mret");
        }
    }

    /// Attempts to advance up to `budget` cycles in one jump, possible
    /// only when every component's [`SleepPlan`] allows it: the caller
    /// has checked that every peripheral sleeps, and the CPU, the fabric
    /// and PELS are asked here, in that order. No wire of last cycle may
    /// be in any sleeper's wake mask, the span ends before the nearest
    /// sleeper deadline, and last cycle's wires must be exactly PELS's
    /// latched action lines (its pulses have decayed), so the wire image
    /// reproduces itself. Returns the cycles skipped (0 if any component
    /// might act). Skipped peripherals are replayed by `catch_up` at the
    /// next wake or sync, the other three catch up here, so the jump is
    /// observationally identical to stepping — the differential test in
    /// `tests/quiescence.rs` exercises exactly this path via random
    /// `run` segment lengths.
    fn try_skip(&mut self, budget: u64) -> u64 {
        debug_assert_eq!(self.accel.sched.active, 0, "try_skip with a slave awake");
        if self.accel.naive || budget == 0 || !self.injected.is_empty() {
            return 0;
        }
        // A running CPU is the common veto (every cycle of an IRQ
        // handler while the peripherals sleep), so it is asked first.
        let Some(plans) = self
            .cpu
            .sleep_plan(self.irq_pending)
            .and_then(|cpu| Some([cpu, self.fabric.sleep_plan()?, self.pels.sleep_plan()?]))
        else {
            return 0;
        };
        debug_assert!(
            plans.iter().all(|p| p.idle_for == SleepPlan::UNTIL_WIRE),
            "only the peripherals publish deadlines"
        );
        let sched = &self.accel.sched;
        let wake = plans.iter().fold(sched.wake_union, |w, p| w | p.wake_mask);
        let span = budget.min(sched.next_deadline.saturating_sub(self.cycle));
        let wires = self.prev_wires;
        if span == 0 || wires.intersects(wake) || wires != self.pels.action_lines() {
            return 0;
        }
        self.cpu.catch_up(span, self.irq_pending);
        self.fabric.catch_up(span);
        self.pels.catch_up(span);
        self.cycle += span;
        self.window_cycles += span;
        self.accel.sched.stats.skip_spans += 1;
        self.accel.sched.stats.skipped_cycles += span;
        span
    }

    /// Runs `n` cycles, jumping over whole-SoC idle spans when possible.
    pub fn run(&mut self, n: u64) {
        self.run_to(self.cycle.saturating_add(n), |_| false);
    }

    /// Steps, or jumps over whole-SoC idle spans, until `stop(self)`
    /// holds (checked before every advance) or the cycle reaches `end`;
    /// syncs the sleepers and returns whether `stop` held. A jump is
    /// attempted only while no slave is awake, the first thing
    /// [`Soc::try_skip`] needs.
    fn run_to(&mut self, end: u64, mut stop: impl FnMut(&Soc) -> bool) -> bool {
        loop {
            let stopped = stop(self);
            if stopped || self.cycle >= end {
                self.sync_slaves();
                return stopped;
            }
            if self.accel.sched.active != 0 || self.try_skip(end - self.cycle) == 0 {
                self.step_inner();
            }
            self.timeline_tick();
        }
    }

    /// Runs until `pred(self)` holds or `max_cycles` elapse; returns
    /// `true` if the predicate was met.
    ///
    /// Steps one cycle at a time and checks the predicate before every
    /// cycle, so it is cycle-exact for any state it watches — CPU
    /// registers and pc included. It never jumps over idle spans (the
    /// predicate could observe any peripheral state); use
    /// [`Soc::run_for_trace_count`] when the condition is a trace-entry
    /// count — that one can skip idle spans.
    pub fn run_until(&mut self, max_cycles: u64, mut pred: impl FnMut(&Soc) -> bool) -> bool {
        let end = self.cycle.saturating_add(max_cycles);
        while self.cycle < end {
            self.sync_slaves();
            if pred(self) {
                return true;
            }
            self.step_inner();
            self.timeline_tick();
        }
        self.sync_slaves();
        pred(self)
    }

    /// Runs until the trace has counted at least `count` entries
    /// matching `(source, label)`, or `max_cycles` elapse; returns `true`
    /// if the count was reached. The count is [`Trace::watch`]'s: entries
    /// recorded since the trace first watched the key, whether or not the
    /// trace keeps entries, so a caller that wants earlier entries counted
    /// watches the key before recording them.
    ///
    /// The scenario engine's completion condition. Unlike a
    /// [`Soc::run_until`] closure, it reads one counter before each
    /// advance and jumps over provably inert spans — no component may
    /// act during such a span, so no trace entry can appear inside it
    /// and the stop cycle is identical to single-stepping.
    ///
    /// It also fast-forwards whole event periods (never under
    /// [`ExecMode::Naive`]). At a few completion markers (each rise of
    /// the count) it takes a period snapshot. When two snapshots `P`
    /// events apart are equal, the SoC repeats with that period: each
    /// counter grows by its per-period delta, each stamp by the period's
    /// cycles, and every period records the same trace entries, flow hops
    /// and timeline windows, shifted. The run then advances `M` whole
    /// periods in closed form, replays their side effects and steps the
    /// rest, stopping short of `count` and of `max_cycles`, so the stop
    /// cycle is still found by stepping. The result equals stepping
    /// (`tests/fast_forward.rs`); [`Soc::fast_forward_stats`] counts
    /// what was jumped.
    pub fn run_for_trace_count(
        &mut self,
        max_cycles: u64,
        source: &str,
        label: &'static str,
        count: usize,
    ) -> bool {
        let watch = self.trace.watch((source, label));
        let end = self.cycle.saturating_add(max_cycles);
        let mut probe = (!self.accel.naive).then_some(Probe {
            next: Probe::FIRST,
            gap: Probe::MAX_PERIOD,
            base: None,
        });
        while let Some(p) = &mut probe {
            let next = p.next;
            if next >= count || !self.run_to(end, |soc| soc.trace.count(watch) >= next) {
                break;
            }
            let seen = self.trace.count(watch);
            if seen >= count {
                break;
            }
            // A time-varying input ends the probing.
            let Some(now) = self.period_snapshot(seen) else {
                break;
            };
            match p.base.take() {
                None => {
                    self.trace.start_period_log();
                    p.base = Some(now);
                    p.next = seen + 1;
                }
                Some(base) if base.repeats_at(&now) => {
                    let log = self.trace.take_period_log();
                    // A hop whose flow's move per period is unclear ends
                    // the probing, as a period that never repeats would.
                    if let Some(shifts) = self.hop_shifts(&base, &now) {
                        self.jump_periods(&base, &now, (count, end), &log, &shifts);
                    }
                    probe = None;
                }
                Some(base) if seen - base.events < Probe::MAX_PERIOD => {
                    p.base = Some(base);
                    p.next = seen + 1;
                }
                Some(_) => {
                    self.trace.take_period_log();
                    p.next = seen + p.gap;
                    p.gap *= 2;
                }
            }
        }
        self.trace.take_period_log();
        self.run_to(end, |soc| soc.trace.count(watch) >= count)
    }

    /// Takes a period snapshot at watched count `events`, after syncing
    /// the sleepers: a clone of the SoC without the trace's entries, hops
    /// and counts and without the timeline's windows (what grows with the
    /// horizon), whose counters are taken out and whose stamps are made
    /// relative to the current cycle. `None` when a part of the state
    /// reads absolute time ([`PeriodVisitor::aperiodic`]).
    fn period_snapshot(&mut self, events: usize) -> Option<PeriodSnapshot> {
        self.sync_slaves();
        let shell = self.trace.period_shell(self.time());
        let trace = std::mem::replace(&mut self.trace, shell);
        let timeline = self
            .accel
            .sampler
            .as_deref_mut()
            .map(|s| std::mem::take(&mut s.timeline));
        let mut state = self.clone();
        self.trace = trace;
        if let (Some(s), Some(t)) = (self.accel.sampler.as_deref_mut(), timeline) {
            s.timeline = t;
        }
        // An idle-until-wire sleeper's catch-up is a no-op, so the cycle
        // it fell asleep at is never read: count it as caught up.
        let sched = &mut state.accel.sched;
        for i in set_bits(sched.asleep) {
            if sched.deadline[i] == u64::MAX {
                sched.since[i] = self.cycle;
            }
        }
        let (mut counters, mut flows) = (Vec::new(), Vec::new());
        let mut walk = PeriodWalk::Snapshot {
            counters: &mut counters,
            flows: &mut flows,
            cycle: self.cycle,
            time: self.time(),
            aperiodic: false,
        };
        state.visit_period(&mut walk);
        state.trace.visit_period(&mut walk);
        if matches!(walk, PeriodWalk::Snapshot { aperiodic: true, .. }) {
            return None;
        }
        Some(PeriodSnapshot {
            events,
            cycle: self.cycle,
            minted: self.trace.flows_minted(),
            hops: self.trace.flow_hops(),
            windows: self.accel.sampler.as_ref().map_or(0, |s| s.timeline.len()),
            counters,
            flows,
            state,
        })
    }

    /// How far each flow hop the trace recorded in the period from `base`
    /// to `now` moves its flow id per period: a flow minted in the period
    /// by the period's mint count, a flow open at `base` as the state
    /// fields that held it moved ([`PeriodSnapshot::flows_relabel_to`]).
    /// `None` when a hop carries an older flow no field held.
    fn hop_shifts(&self, base: &PeriodSnapshot, now: &PeriodSnapshot) -> Option<Vec<u64>> {
        let hops = self.trace.flow_trace().map_or(&[][..], |f| f.hops_since(base.hops));
        let shift = |id: u64| {
            if id > base.minted {
                return Some(now.minted - base.minted);
            }
            let held = base.flows.iter().zip(&now.flows).find(|&(&a, _)| a == id);
            held.map(|(a, b)| b - a)
        };
        hops.iter().map(|h| shift(h.flow.0)).collect()
    }

    /// Advances the SoC, which stands at snapshot `now` and repeats with
    /// `base` as one period before it, by as many whole periods as keep
    /// it short of the wanted count and of the end cycle. `log` is the
    /// period's trace entries and `shifts` its flow hops' moves per
    /// period ([`Soc::hop_shifts`]).
    fn jump_periods(
        &mut self,
        base: &PeriodSnapshot,
        now: &PeriodSnapshot,
        (count, end): (usize, u64),
        log: &[(TraceEntry, bool)],
        shifts: &[u64],
    ) {
        let events = now.events - base.events;
        let cycles = now.cycle - base.cycle;
        let periods = ((count - 1 - now.events) / events)
            .min((end.saturating_sub(now.cycle + 1) / cycles) as usize) as u64;
        if periods == 0 {
            return;
        }
        let growth = |now: &[u64], base: &[u64]| -> Vec<u64> {
            now.iter().zip(base).map(|(b, a)| b.wrapping_sub(*a)).collect()
        };
        let deltas = growth(&now.counters, &base.counters);
        let flow_deltas = growth(&now.flows, &base.flows);
        let period = SimTime::from_ps(self.freq.period_ps() * cycles);
        let mut walk = PeriodWalk::Advance {
            deltas: &deltas,
            flows: &flow_deltas,
            next: (0, 0),
            periods,
            cycles,
            time: period,
        };
        self.visit_period(&mut walk);
        self.trace.visit_period(&mut walk);
        self.trace
            .repeat_period(log, (base.hops, shifts), periods, (cycles, period));
        if let Some(s) = self.accel.sampler.as_deref_mut() {
            s.timeline.repeat_period(base.windows, periods, cycles);
        }
        let ff = &mut self.accel.fast_forward;
        ff.jumps += 1;
        ff.periods += periods;
        ff.cycles += periods * cycles;
    }

    /// What [`Soc::run_for_trace_count`]'s fast-forward jumped:
    /// cumulative since construction. Host-side, like [`SchedStats`],
    /// and kept out of the metrics: a probe's snapshots may fall at
    /// different markers under different observers.
    pub fn fast_forward_stats(&self) -> FastForwardStats {
        self.accel.fast_forward
    }

    /// Drains all accumulated activity — peripheral register traffic,
    /// busy cycles and pulses, CPU fetch/retire counts, PELS config-port
    /// and SCM accesses, fabric transfers, SRAM accesses — plus
    /// per-component clock-cycle counts for the window since the
    /// previous drain. Resets the window.
    ///
    /// A running timeline sampler is not disturbed: its open window
    /// keeps what its components counted before the drain.
    pub fn drain_activity(&mut self) -> ActivitySet {
        self.sync_slaves();
        let mut set = ActivitySet::new();
        self.flush_components_into(&mut set);
        if let Some(s) = self.accel.sampler.as_deref_mut() {
            s.carry.get_or_insert_with(ActivitySet::new).merge(&set);
            s.awake_start = s.awake_start.wrapping_sub(self.cpu_awake_cycles);
        }
        self.closed.add_to(&mut set);
        self.closed.clear();

        // Clock accounting: the core clock is gated during WFI sleep; the
        // rest of the SoC clocks every cycle of the window.
        let cycles = self.window_cycles;
        Self::record_clock_activity(&mut set, &self.clock_ids, cycles, self.cpu_awake_cycles);
        self.cpu_awake_cycles = 0;
        self.window_cycles = 0;
        set
    }

    /// Flushes every component's activity counters into `set`: the only
    /// way activity leaves a component. Counters add, so flushing at any
    /// intermediate point leaves the eventual [`Soc::drain_activity`]
    /// result bit-identical — this is what lets the timeline sampler
    /// close windows mid-run without perturbing the final drain. Clock
    /// accounting (`window_cycles` / `cpu_awake_cycles`) is deliberately
    /// untouched: it is derived, not accumulated, and the per-drain
    /// integer division (`cycles / 10`) must see the whole window.
    fn flush_components_into(&mut self, set: &mut impl ActivitySink) {
        self.cpu.drain_activity(set);
        self.pels.drain_activity(set);
        self.fabric.drain_activity(set);
        self.l2.drain_activity(set);
        for (_, p) in self.fabric.slaves_mut() {
            p.drain_activity(set);
        }
    }

    /// Adds the per-window clock-cycle accounting to an activity set:
    /// the core clock is gated during WFI sleep (`awake` cycles), the
    /// fabric/PELS/links clock every cycle, and idle-gated peripherals
    /// keep a ~10 % residual for gating logic and sampling flops. Busy
    /// peripheral cycles are charged separately, by the `ActiveCycle`
    /// count each peripheral keeps.
    fn record_clock_activity(set: &mut impl ActivitySink, ids: &ClockIds, cycles: u64, awake: u64) {
        set.record(ids.ibex, ActivityKind::ClockCycle, awake);
        set.record(ids.fabric, ActivityKind::ClockCycle, cycles);
        set.record(ids.soc_ctrl, ActivityKind::ClockCycle, cycles);
        set.record(ids.periph_misc, ActivityKind::ClockCycle, cycles / 10);
        for &id in &ids.periphs {
            set.record(id, ActivityKind::ClockCycle, cycles / 10);
        }
        set.record(ids.pels, ActivityKind::ClockCycle, cycles);
        for &link in &ids.links {
            set.record(link, ActivityKind::ClockCycle, cycles);
        }
    }

    /// Starts windowed activity sampling with a nominal window width of
    /// `window_cycles` bus cycles. Subsequent `run_*` calls close a
    /// window at the first observation point at or past each boundary;
    /// a quiescence skip crossing a boundary stretches the window
    /// rather than splitting the skip, so the fast path stays O(1) and
    /// scheduler statistics are bit-identical to an unsampled run.
    ///
    /// The first window additionally absorbs any activity accumulated
    /// since the last [`Soc::drain_activity`] (e.g. configuration
    /// writes during construction), so the window deltas always sum to
    /// exactly the image the next drain returns — the timeline is a
    /// partition of the drain, not a second bookkeeping domain.
    /// Restarting discards any timeline not yet collected with
    /// [`Soc::take_timeline`].
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    pub fn start_timeline(&mut self, window_cycles: u64) {
        assert!(window_cycles > 0, "window_cycles must be non-zero");
        self.accel.sampler = Some(Box::new(TimelineSampler {
            window_cycles,
            window_start: self.cycle,
            next_boundary: self.cycle.saturating_add(window_cycles),
            row: ActivityRow::default(),
            carry: None,
            awake_start: 0,
            timeline: ActivityTimeline::new(window_cycles),
        }));
    }

    /// Stops sampling and returns the captured timeline (closing the
    /// final partial window if it spans at least one cycle), or `None`
    /// if [`Soc::start_timeline`] was never called.
    pub fn take_timeline(&mut self) -> Option<ActivityTimeline> {
        let open = self
            .accel
            .sampler
            .as_ref()
            .map(|s| self.cycle > s.window_start)?;
        if open {
            self.close_timeline_window();
        }
        self.accel.sampler.take().map(|s| s.timeline)
    }

    /// Sampling hook on the run-loop observation points: one predictable
    /// branch when sampling is off.
    #[inline]
    fn timeline_tick(&mut self) {
        if let Some(s) = &self.accel.sampler {
            if self.cycle >= s.next_boundary {
                self.close_timeline_window();
            }
        }
    }

    /// Closes the current sampling window at the present cycle: brings
    /// sleeping slaves up to date (closed-form catch-up — segmentation
    /// invariant, so extra syncs cannot change results) and flushes
    /// component counters into the sampler's row, which then holds
    /// exactly the window's component activity. That activity joins the
    /// `closed` image, takes its share of the clock accounting (the drain
    /// counters stay untouched) and goes to the timeline, which copies and
    /// expands it only if no earlier window matches. Last, the row is
    /// zeroed for the next window.
    fn close_timeline_window(&mut self) {
        self.sync_slaves();
        let Some(mut s) = self.accel.sampler.take() else {
            return;
        };
        let row = &mut s.row;
        self.flush_components_into(row);
        self.closed.add(row);
        // A drain inside the window took its part so far; the window
        // still holds it.
        if let Some(carry) = s.carry.take() {
            row.add_set(&carry);
        }
        let (start, end) = (s.window_start, self.cycle);
        let awake = self.cpu_awake_cycles.wrapping_sub(s.awake_start);
        Self::record_clock_activity(row, &self.clock_ids, end - start, awake);
        s.timeline.push_row(start, end, row);
        row.clear();
        // The first close laid the row out with a slot for every counter;
        // from then on the row and `closed` share that layout.
        self.closed.adopt_layout_of(row);
        s.window_start = self.cycle;
        s.next_boundary = self.cycle.saturating_add(s.window_cycles);
        s.awake_start = self.cpu_awake_cycles;
        self.accel.sampler = Some(s);
    }

    /// Cycles elapsed since the last [`Soc::drain_activity`].
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// Wall-clock duration of the current window.
    pub fn window_time(&self) -> SimTime {
        SimTime::from_ps(self.freq.period_ps() * self.window_cycles)
    }
}

#[cfg(test)]
mod sampler_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use pels_cpu::asm;
    use pels_interconnect::{ArbiterKind, Topology};

    /// The default SoC, keeping its trace entries for the tests that
    /// read them.
    fn default_soc() -> Soc {
        let mut soc = Soc::from_desc(&SystemDesc::default()).unwrap();
        soc.trace_mut().enable_entries();
        soc
    }

    #[test]
    fn from_desc_produces_wired_soc() {
        let mut desc = SystemDesc::default();
        desc.pels.links = 2;
        let soc = Soc::from_desc(&desc).unwrap();
        assert_eq!(soc.pels().link_count(), 2);
        assert_eq!(soc.gpio().out(), 0);
        assert!(!soc.spi().is_busy());
        assert_eq!(soc.frequency(), Frequency::from_mhz(55.0));
    }

    #[test]
    fn cpu_runs_program_from_l2() {
        let mut soc = default_soc();
        let mut p = vec![];
        p.extend(asm::li32(1, 123));
        p.push(asm::wfi());
        soc.load_program(RESET_PC, &p);
        soc.run(10);
        assert_eq!(soc.cpu().reg(1), 123);
        assert!(soc.cpu().is_sleeping());
    }

    #[test]
    fn cpu_reaches_peripherals_over_fabric() {
        let mut soc = default_soc();
        let mut p = vec![];
        p.extend(asm::li32(1, apb_reg(GPIO_OFFSET, Gpio::PADOUTSET)));
        p.extend(asm::li32(2, 0xA5));
        p.push(asm::sw(1, 2, 0));
        p.push(asm::wfi());
        soc.load_program(RESET_PC, &p);
        soc.run(20);
        assert_eq!(soc.gpio().out(), 0xA5);
    }

    #[test]
    fn cpu_configures_pels_over_config_port() {
        use pels_core::regs;
        let mut soc = default_soc();
        let mut p = vec![];
        // Write link0 mask-lo = 0x4 (listen to line 2).
        p.extend(asm::li32(
            1,
            PELS_BASE + regs::LINK0 + regs::LINK_MASK_LO,
        ));
        p.extend(asm::li32(2, 0x4));
        p.push(asm::sw(1, 2, 0));
        // Read back into x3.
        p.push(asm::lw(3, 1, 0));
        p.push(asm::wfi());
        soc.load_program(RESET_PC, &p);
        soc.run(30);
        assert_eq!(soc.cpu().reg(3), 0x4);
        assert_eq!(
            soc.pels().link(0).trigger().mask(),
            EventVector::mask_of(&[2])
        );
        // PELS counted both config-port accesses; the drain charges them.
        let a = soc.drain_activity();
        assert_eq!(a.count("pels", ActivityKind::RegWrite), 1);
        assert_eq!(a.count("pels", ActivityKind::RegRead), 1);
    }

    #[test]
    fn timer_event_starts_spi_autonomously() {
        let mut soc = default_soc();
        // Program the timer via the bus-less test path.
        soc.timer_mut().write(Timer::CMP, 10).unwrap();
        soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
        soc.spi_mut().write(Spi::CMD, 1).unwrap(); // sets last_len = 1
        soc.run(11 + 2); // timer fires at ~11, spi starts a cycle later
        assert!(soc.spi().is_busy(), "spi started by the timer event");
        soc.run(10);
        assert!(soc.trace().first("spi", "eot").is_some());
    }

    #[test]
    fn wfi_gates_cpu_clock_in_activity() {
        let mut soc = default_soc();
        soc.load_program(RESET_PC, &[asm::wfi()]);
        soc.run(100);
        let a = soc.drain_activity();
        let ibex_clk = a.count("ibex", ActivityKind::ClockCycle);
        let fabric_clk = a.count("fabric", ActivityKind::ClockCycle);
        assert_eq!(fabric_clk, 100);
        assert!(ibex_clk < 5, "core clock gated after wfi ({ibex_clk})");
    }

    #[test]
    fn a_closed_window_is_part_of_soc_equality() {
        let scenario = crate::Scenario::from_desc(crate::ScenarioDesc {
            mediator: crate::Mediator::IbexIrq,
            ..crate::ScenarioDesc::default()
        })
        .unwrap();
        let mut a = scenario.build_soc();
        a.timer_mut().write(Timer::CMP, 137).unwrap();
        a.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
        a.start_timeline(500);
        a.run(3000);
        let ibex = a.clock_ids.ibex;
        let retired = |set: &ActivitySet| set.count_id(ibex, ActivityKind::InstrRetired);
        assert!(a.closed.count_id(ibex, ActivityKind::InstrRetired) > 0);
        // Two sampled SoCs that differ only in a closed window's counters
        // drain differently, so they must not compare equal.
        let mut b = a.clone();
        assert_eq!(a.first_difference(&b), None);
        b.closed.record(ibex, ActivityKind::InstrRetired, 1);
        assert_eq!(a.first_difference(&b), Some("soc"));
        let (da, db) = (a.drain_activity(), b.drain_activity());
        assert_eq!(retired(&da) + 1, retired(&db));
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn the_window_row_has_one_slot_per_counter_the_soc_records() {
        let mut soc = default_soc();
        soc.load_program(RESET_PC, &[asm::wfi()]);
        soc.start_timeline(20);
        soc.run(50);
        let sampler = soc.accel.sampler.as_ref().expect("sampling");
        let layout = sampler.row.layout();
        assert!(std::sync::Arc::ptr_eq(layout, soc.closed.layout()));
        // Default SoC (one PELS link): ibex 5 counters + clock, PELS
        // config port 4 + clock, link0 4 + clock, a bus-stall slot per
        // master (ibex, link0), fabric transfers, busy cycles + clock,
        // SRAM reads and writes, 7 peripherals x (reads, writes, busy,
        // pulses, clock), soc_ctrl and periph_misc clocks: 60 slots, not
        // a dense row per interned component.
        assert_eq!(layout.width(), 6 + 5 + 5 + 2 + 3 + 2 + 7 * 5 + 2);
        assert_eq!(layout.width(), 60);
        // Every counter a drain reports has a slot.
        let layout = layout.clone();
        for (name, kind, _) in soc.drain_activity().iter() {
            let id = ComponentId::lookup(name).unwrap();
            assert!(layout.slot(id, kind).is_some(), "{name}.{kind}");
        }
    }

    #[test]
    fn drain_resets_window() {
        let mut soc = default_soc();
        soc.run(10);
        let _ = soc.drain_activity();
        assert_eq!(soc.window_cycles(), 0);
        soc.run(5);
        assert_eq!(soc.window_cycles(), 5);
        assert_eq!(soc.window_time(), Frequency::from_mhz(55.0).cycles(5));
    }

    #[test]
    fn injected_events_reach_pels_and_irq_paths() {
        let desc = SystemDesc {
            timer_starts_spi: false,
            ..SystemDesc::default()
        };
        let mut soc = Soc::from_desc(&desc).unwrap();
        soc.pels_mut().link_mut(0).set_mask(EventVector::mask_of(&[9]));
        soc.pels_mut()
            .link_mut(0)
            .load_program(
                &pels_core::Program::new(vec![
                    pels_core::Command::Action {
                        mode: pels_core::ActionMode::Pulse,
                        group: 0,
                        mask: 1 << 20,
                    },
                    pels_core::Command::Halt,
                ])
                .expect("valid"),
            )
            .expect("fits");
        soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
        soc.trace_mut().enable_entries();
        soc.inject_event(9);
        soc.run(6);
        assert!(
            soc.trace().first("pels.link0", "action").is_some(),
            "injected pulse triggered the link"
        );
        // One-shot: no further triggers without further injections.
        let count = soc.trace().all("pels.link0", "action").len();
        soc.run(20);
        assert_eq!(soc.trace().all("pels.link0", "action").len(), count);
    }

    #[test]
    fn sched_stats_and_metrics_reflect_a_busy_run() {
        let mut soc = default_soc();
        let mut p = vec![];
        p.extend(asm::li32(1, apb_reg(GPIO_OFFSET, Gpio::PADOUTSET)));
        p.extend(asm::li32(2, 0xA5));
        p.push(asm::sw(1, 2, 0));
        // Busy loop: the core retires every pass.
        p.extend(asm::li32(3, 40));
        p.push(asm::addi(3, 3, -1));
        p.push(asm::bne(3, 0, -4));
        p.push(asm::wfi());
        soc.load_program(RESET_PC, &p);
        soc.run(2_000);
        let s = soc.sched_stats();
        assert!(s.stepped_cycles() > 0, "some cycles were stepped");
        assert!(s.sleeps > 0, "idle peripherals went to sleep");
        assert!(s.rebuilds > 0, "sleep transitions rebuilt the aggregates");
        assert!(
            s.skipped_cycles > 0,
            "post-wfi idle tail was skipped: {s:?}"
        );
        assert_eq!(
            s.stepped_cycles() + s.skipped_cycles,
            soc.cycle(),
            "every cycle is either stepped or skipped"
        );
        let retired = soc.cpu().retired();
        assert!(retired > 40, "the busy loop retired every pass");

        let mut snap = pels_obs::MetricsSnapshot::default();
        soc.publish_metrics(&mut snap);
        assert_eq!(snap.get("cpu.retired"), Some(retired));
        assert_eq!(snap.get("soc.sched.sleeps"), Some(s.sleeps));
        assert!(
            snap.get("fabric.master.ibex.grants").unwrap_or(0) > 0,
            "the store to GPIO was granted: {snap}"
        );
    }

    #[test]
    fn equality_leaves_out_host_side_state_and_names_what_differs() {
        let mut fast = default_soc();
        fast.load_program(RESET_PC, &[asm::addi(1, 1, 1), asm::wfi()]);
        let mut naive = fast.clone();
        naive.set_exec_mode(ExecMode::Naive);
        fast.run(100);
        naive.run(100);
        assert_ne!(fast.sched_stats(), naive.sched_stats());
        assert_eq!(fast.first_difference(&naive), None);
        naive.cpu_mut().set_reg(1, 7);
        assert_eq!(fast.first_difference(&naive), Some("cpu"));
        let mut poked = fast.clone();
        poked.wdt_mut().write(Watchdog::LOAD, 9).unwrap();
        assert!(poked != fast && poked.first_difference(&fast) == Some("wdt"));
    }

    /// `program` loaded on the default SoC, beside a naive-mode clone.
    fn fast_and_naive(program: &[u32]) -> (Soc, Soc) {
        let mut fast = default_soc();
        fast.load_program(RESET_PC, program);
        let mut naive = fast.clone();
        naive.set_exec_mode(ExecMode::Naive);
        (fast, naive)
    }

    /// `program` that stores `value` to APB register `reg`, then sleeps.
    fn store_then_wfi(reg: u32, value: u32) -> Vec<u32> {
        let mut p = asm::li32(1, reg).to_vec();
        p.extend(asm::li32(2, value));
        p.push(asm::sw(1, 2, 0));
        p.push(asm::wfi());
        p
    }

    /// Steps `soc` until the fabric reads or writes slave `id`; returns
    /// the cycle of that access.
    fn step_to_access(soc: &mut Soc, id: SlaveId) -> u64 {
        for _ in 0..1_000 {
            soc.step();
            if soc.fabric.touched_slaves() & 1 << id.index() != 0 {
                return soc.cycle - 1;
            }
        }
        panic!("no bus access reached slave {}", id.index());
    }

    fn asleep(soc: &Soc, id: SlaveId) -> bool {
        soc.accel.sched.asleep & 1 << id.index() != 0
    }

    #[test]
    fn bus_read_of_a_sleeping_timer_returns_the_naive_count_in_place() {
        let mut p = asm::li32(1, apb_reg(TIMER_OFFSET, Timer::VALUE)).to_vec();
        // Count down a delay loop while the timer counts asleep.
        p.extend(asm::li32(3, 20));
        p.push(asm::addi(3, 3, -1));
        p.push(asm::bne(3, 0, -4));
        p.push(asm::lw(2, 1, 0));
        p.push(asm::wfi());
        let (mut fast, mut naive) = fast_and_naive(&p);
        for soc in [&mut fast, &mut naive] {
            soc.timer_mut().write(Timer::CMP, 10_000).unwrap();
            soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
        }
        let id = fast.timer_id;
        let read = step_to_access(&mut fast, id);
        assert!(asleep(&fast, id), "the timer sleeps through its read");
        naive.run(read + 1);
        assert_eq!(fast.first_difference(&naive), None);
        fast.run(20);
        naive.run(20);
        assert!(fast.cpu().reg(2) > 20, "the read sees the running count");
        assert_eq!(fast.cpu().reg(2), naive.cpu().reg(2));
        assert_eq!(fast.sched_stats().wakes, 0, "{:?}", fast.sched_stats());
    }

    #[test]
    fn a_timer_whose_deadline_saturates_still_catches_up() {
        // Enabled after cycle 0 at the longest prescaler and compare, the
        // timer's absolute deadline overflows `u64`: it must stay a
        // finite-deadline sleeper, not read as idle until a wire.
        let (mut fast, mut naive) = fast_and_naive(&[asm::wfi()]);
        for soc in [&mut fast, &mut naive] {
            soc.run(10);
            soc.timer_mut().write(Timer::PRESC, u32::MAX).unwrap();
            soc.timer_mut().write(Timer::CMP, u32::MAX).unwrap();
            soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
            soc.run(50);
        }
        assert!(asleep(&fast, fast.timer_id));
        assert_eq!(fast.first_difference(&naive), None);
    }

    #[test]
    fn spi_cmd_write_resleeps_the_spi_with_its_word_deadline() {
        let p = store_then_wfi(apb_reg(SPI_OFFSET, Spi::CMD), 1);
        let (mut fast, mut naive) = fast_and_naive(&p);
        let id = fast.spi_id;
        let write = step_to_access(&mut fast, id);
        let n = fast.spi().sleep_plan().expect("an SPI has a plan").idle_for;
        assert!(asleep(&fast, id), "the SPI re-sleeps in place");
        assert_eq!(fast.accel.sched.deadline[id.index()], write + n);
        assert_eq!(fast.sched_stats().wakes, 0);
        naive.run(write + 1);
        assert_eq!(fast.first_difference(&naive), None);
        fast.run(100);
        naive.run(100);
        assert!(fast.trace().first("spi", "eot").is_some());
        assert_eq!(fast.first_difference(&naive), None);
    }

    #[test]
    fn one_differing_trace_entry_makes_socs_differ_in_trace() {
        let mut base = Soc::from_desc(&SystemDesc::default()).unwrap();
        base.run(40);
        let (spi, gpio) = (ComponentId::intern("spi"), ComponentId::intern("gpio"));
        let entries = [
            (base.freq.cycles(1), spi, "eot", 0),
            (base.freq.cycles(3), gpio, "padout", 1),
            (base.freq.cycles(3), gpio, "padout", 2),
        ];
        let recorded = |entries: &[(SimTime, ComponentId, &'static str, u64)], keep: bool| {
            let mut soc = base.clone();
            if keep {
                soc.trace_mut().enable_entries();
            }
            for &(time, source, label, value) in entries {
                soc.trace_mut().record(time, source, label, value);
            }
            soc
        };
        let reference = recorded(&entries, false);
        assert_eq!(
            recorded(&entries, true),
            reference,
            "keeping entries is observation"
        );
        let (mut later, mut valued, mut swapped) = (entries, entries, entries);
        later[0].0 = base.freq.cycles(2);
        valued[1].3 = 7;
        swapped.swap(1, 2);
        for (name, variant) in [("time", later), ("value", valued), ("order", swapped)] {
            let other = recorded(&variant, true);
            assert!(other != reference, "{name}");
            assert_eq!(other.first_difference(&reference), Some("trace"), "{name}");
        }
    }

    #[test]
    fn gpio_padout_write_wakes_the_gpio_to_tick_next_cycle() {
        let p = store_then_wfi(apb_reg(GPIO_OFFSET, Gpio::PADOUT), 0x5);
        let (mut fast, mut naive) = fast_and_naive(&p);
        let id = fast.gpio_id;
        let write = step_to_access(&mut fast, id);
        assert!(!asleep(&fast, id), "the write wakes the GPIO");
        assert_eq!(fast.sched_stats().wakes, 1);
        fast.step();
        let padout = fast.trace().first("gpio", "padout").expect("pad change reported");
        assert_eq!((padout.time, padout.value), (fast.freq.cycles(write + 1), 0x5));
        naive.run(write + 2);
        assert_eq!(fast.first_difference(&naive), None);
    }

    #[test]
    fn from_desc_assembles_the_described_system() {
        let mut desc = SystemDesc::default();
        desc.pels.links = 3;
        desc.pels.scm_lines = 8;
        desc.set_spi_clkdiv(2);
        desc.sensor = SensorKind::Constant(1.0);
        desc.topology = Topology::PerSlaveCrossbar;
        desc.arbiter = ArbiterKind::FixedPriority;
        let soc = Soc::from_desc(&desc).expect("valid desc");
        assert_eq!(soc.pels().link_count(), 3);
        assert_eq!(soc.pels().config().scm_lines, 8);
    }

    #[test]
    fn from_desc_reports_desc_errors_with_paths() {
        type Edit = fn(&mut SystemDesc);
        let cases: [(Edit, &str); 4] = [
            (|d| d.peripherals[1].offset = 12, "/peripherals/1/offset"),
            (|d| d.pels.links = 0, "/pels/links"),
            (|d| d.pels.scm_lines = 0, "/pels/scm_lines"),
            (|d| d.set_spi_clkdiv(0), "/peripherals/2/clkdiv"),
        ];
        for (edit, path) in cases {
            let mut desc = SystemDesc::default();
            edit(&mut desc);
            assert_eq!(Soc::from_desc(&desc).unwrap_err().path, path);
        }
    }
}
