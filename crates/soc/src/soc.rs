//! The SoC top level and its builder.

use crate::event_map::*;
use crate::mem_map::*;
use pels_core::pels::PelsBus;
use pels_core::{Pels, PelsBuilder};
use pels_cpu::{Cpu, CpuBus, CpuState, DataReq, DataResult};
use pels_desc::{DescError, ExecMode, PeriphKind, SystemDesc};
use pels_interconnect::{
    AddrRange, ApbFabric, ApbRequest, ApbSlave, ArbiterKind, MasterId, SlaveId, Topology,
};
use pels_periph::{
    Adc, Gpio, I2c, IdleHint, L2Memory, PeriphCtx, Peripheral, SensorDevice, Spi, Timer, Uart,
    Watchdog,
};
use pels_sim::{
    ActivityKind, ActivitySet, ActivityTimeline, ActivityWindow, ComponentId, EventVector,
    Frequency, SimTime, Trace,
};
use std::fmt;

/// The synthetic analog source (now owned by `pels-desc`, re-exported
/// for compatibility).
pub use pels_desc::SensorKind;

/// A structurally invalid SoC configuration, caught by
/// [`SocBuilder::try_build`] before any hardware is assembled.
///
/// Distinct from `pels_core::ConfigError` (a runtime register-access
/// fault): this is a *construction-time* validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `PelsConfig::links` was zero — a PELS with no links can never
    /// mediate an event.
    ZeroLinks,
    /// `PelsConfig::scm_lines` was zero — a link with no microcode store
    /// cannot hold even `halt`.
    ZeroScmLines,
    /// The SPI clock divider was zero — the serial clock would be
    /// division-by-zero fast.
    ZeroClkdiv,
    /// Any other [`SystemDesc::validate`] failure, with the JSON path of
    /// the offending value.
    Desc(DescError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroLinks => f.write_str("PELS needs at least 1 link"),
            ConfigError::ZeroScmLines => {
                f.write_str("each PELS link needs at least 1 SCM line")
            }
            ConfigError::ZeroClkdiv => f.write_str("SPI clkdiv must be at least 1"),
            ConfigError::Desc(e) => write!(f, "invalid system description: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Desc(e) => Some(e),
            _ => None,
        }
    }
}

/// Builder for [`Soc`], backed by a [`SystemDesc`].
///
/// [`SocBuilder::from_desc`] is the canonical entry point: every setter
/// below is a thin wrapper mutating the underlying description, so the
/// two construction styles cannot drift apart.
/// [`SocBuilder::try_build`] validates the description and assembles it;
/// [`SocBuilder::build`] is a panicking convenience wrapper over it.
///
/// ```
/// use pels_soc::{SocBuilder, SensorKind};
/// use pels_sim::Frequency;
/// let soc = SocBuilder::new()
///     .frequency(Frequency::from_mhz(55.0))
///     .pels_links(4)
///     .scm_lines(6)
///     .sensor(SensorKind::Constant(2.0))
///     .try_build()
///     .expect("valid configuration");
/// assert_eq!(soc.pels().link_count(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SocBuilder {
    desc: SystemDesc,
}

impl SocBuilder {
    /// Starts from [`SystemDesc::default`] (55 MHz, minimal PELS,
    /// constant 2.5 V sensor, canonical peripherals).
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical entry point: a builder assembling exactly `desc`.
    pub fn from_desc(desc: SystemDesc) -> Self {
        SocBuilder { desc }
    }

    /// The description this builder assembles.
    pub fn desc(&self) -> &SystemDesc {
        &self.desc
    }

    /// Sets the system clock frequency.
    pub fn frequency(mut self, freq: Frequency) -> Self {
        self.desc.freq = freq;
        self
    }

    /// Sets the number of PELS links.
    pub fn pels_links(mut self, links: usize) -> Self {
        self.desc.pels.links = links;
        self
    }

    /// Sets the SCM lines per link.
    pub fn scm_lines(mut self, lines: usize) -> Self {
        self.desc.pels.scm_lines = lines;
        self
    }

    /// Sets the per-link trigger-FIFO depth (0 = unbuffered ablation).
    pub fn fifo_depth(mut self, depth: usize) -> Self {
        self.desc.pels.fifo_depth = depth;
        self
    }

    /// Selects the analog source.
    pub fn sensor(mut self, sensor: SensorKind) -> Self {
        self.desc.sensor = sensor;
        self
    }

    /// Sets the SPI cycles-per-word divider.
    pub fn spi_clkdiv(mut self, clkdiv: u32) -> Self {
        self.desc.set_spi_clkdiv(clkdiv);
        self
    }

    /// Selects the fabric topology (shared APB vs per-slave crossbar).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.desc.topology = topology;
        self
    }

    /// Selects the arbitration policy (round-robin vs fixed-priority).
    pub fn arbiter(mut self, arbiter: ArbiterKind) -> Self {
        self.desc.arbiter = arbiter;
        self
    }

    /// Whether the timer compare event starts an SPI transfer (the
    /// autonomous-readout wiring of the paper's workload). Default true.
    pub fn timer_starts_spi(mut self, wired: bool) -> Self {
        self.desc.timer_starts_spi = wired;
        self
    }

    /// Assembles the SoC, validating the description first.
    ///
    /// # Errors
    ///
    /// The legacy impossibilities keep their legacy variants (zero links,
    /// zero SCM lines, zero clkdiv); everything else
    /// [`SystemDesc::validate`] catches — bad slots, missing or
    /// duplicated peripherals, out-of-range geometry — is reported as
    /// [`ConfigError::Desc`] with the JSON path of the offending value.
    pub fn try_build(self) -> Result<Soc, ConfigError> {
        if self.desc.pels.links == 0 {
            return Err(ConfigError::ZeroLinks);
        }
        if self.desc.pels.scm_lines == 0 {
            return Err(ConfigError::ZeroScmLines);
        }
        if self.desc.spi_clkdiv() == 0 {
            return Err(ConfigError::ZeroClkdiv);
        }
        self.desc.validate().map_err(ConfigError::Desc)?;
        Ok(self.assemble())
    }

    /// Assembles the SoC.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; [`SocBuilder::try_build`] is
    /// the non-panicking canonical path.
    pub fn build(self) -> Soc {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid SoC configuration: {e}"))
    }

    fn assemble(self) -> Soc {
        // PELS loopback window: lines 40..=47 feed back for inter-link
        // triggering.
        let loopback: EventVector =
            (AL_LOOPBACK_FIRST..=AL_LOOPBACK_LAST).collect();
        let mut pels_cfg = self.desc.pels.to_config();
        pels_cfg.loopback = loopback;
        let pels = PelsBuilder::new()
            .links(pels_cfg.links)
            .scm_lines(pels_cfg.scm_lines)
            .fifo_depth(pels_cfg.fifo_depth)
            .loopback(loopback)
            .build();

        let mut fabric: ApbFabric<Box<dyn Peripheral>> =
            ApbFabric::with_config(self.desc.topology, self.desc.arbiter);
        let cpu_master = fabric.add_master("ibex");
        let pels_masters: Vec<MasterId> = (0..pels_cfg.links)
            .map(|i| fabric.add_master(format!("pels.link{i}")))
            .collect();

        // Instantiate and wire each described peripheral, placing it on
        // its described APB slot in description order.
        let slot = |off: u32| AddrRange::new(APB_BASE + off, APB_STRIDE);
        let (mut gpio_id, mut timer_id, mut spi_id, mut adc_id) = (None, None, None, None);
        let (mut uart_id, mut wdt_id, mut i2c_id) = (None, None, None);
        let mut periph_names = Vec::with_capacity(self.desc.peripherals.len());
        for inst in &self.desc.peripherals {
            periph_names.push(inst.kind.name());
            let boxed: Box<dyn Peripheral> = match inst.kind {
                PeriphKind::Gpio => {
                    let mut gpio = Gpio::new("gpio");
                    gpio.wire_set_action(AL_GPIO_SET, 1)
                        .wire_clear_action(AL_GPIO_CLEAR, 1)
                        .wire_toggle_action(AL_GPIO_TOGGLE, 1)
                        .watch_pin(0, EV_GPIO_RISE);
                    Box::new(gpio)
                }
                PeriphKind::Timer => {
                    let mut timer = Timer::new("timer");
                    timer
                        .wire_compare_event(EV_TIMER_CMP)
                        .wire_start_action(AL_TIMER_START)
                        .wire_stop_action(AL_TIMER_STOP);
                    Box::new(timer)
                }
                PeriphKind::Spi { clkdiv } => {
                    let mut spi = Spi::new("spi", Box::new(self.desc.sensor.quantizer()));
                    spi.wire_eot_event(EV_SPI_EOT)
                        .wire_udma_done_event(EV_SPI_UDMA_DONE);
                    if self.desc.timer_starts_spi {
                        spi.wire_start_action(EV_TIMER_CMP);
                    }
                    spi.write(Spi::CLKDIV, clkdiv)
                        .expect("clkdiv is validated by the builder");
                    Box::new(spi)
                }
                PeriphKind::Adc { conversion_cycles } => {
                    let mut adc =
                        Adc::new("adc", self.desc.sensor.quantizer(), conversion_cycles);
                    adc.wire_done_event(EV_ADC_DONE)
                        .wire_start_action(AL_ADC_START);
                    Box::new(adc)
                }
                PeriphKind::Uart => {
                    let mut uart = Uart::new("uart");
                    uart.wire_tx_done_event(EV_UART_TX_DONE);
                    Box::new(uart)
                }
                PeriphKind::Wdt => {
                    let mut wdt = Watchdog::new("wdt");
                    wdt.wire_bite_event(EV_WDT_BITE)
                        .wire_kick_action(AL_WDT_KICK);
                    Box::new(wdt)
                }
                PeriphKind::I2c => {
                    let mut i2c = I2c::new("i2c");
                    i2c.attach(Box::new(SensorDevice::new(
                        0x48,
                        self.desc.sensor.quantizer(),
                    )))
                    .wire_done_event(EV_I2C_DONE)
                    .wire_nack_event(EV_I2C_NACK)
                    .wire_start_action(AL_I2C_START);
                    Box::new(i2c)
                }
            };
            let id = fabric.add_slave(slot(inst.offset), boxed);
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

        let clock_ids = ClockIds {
            ibex: ComponentId::intern("ibex"),
            fabric: ComponentId::intern("fabric"),
            soc_ctrl: ComponentId::intern("soc_ctrl"),
            periph_misc: ComponentId::intern("periph_misc"),
            periphs: periph_names
                .iter()
                .map(|n| ComponentId::intern(n))
                .collect(),
            pels: ComponentId::intern("pels"),
            links: (0..pels_cfg.links)
                .map(|i| ComponentId::intern(&format!("pels.link{i}")))
                .collect(),
        };

        Soc {
            freq: self.desc.freq,
            cycle: 0,
            l2: L2Memory::new(L2_SIZE),
            fabric,
            pels,
            pels_masters,
            cpu: Cpu::new(RESET_PC),
            cpu_master,
            activity: ActivitySet::new(),
            trace: Trace::new(),
            prev_wires: EventVector::EMPTY,
            injected: EventVector::EMPTY,
            irq_pending: 0,
            irq_map: vec![
                (EV_SPI_EOT, irq_bit_for_event(EV_SPI_EOT)),
                (EV_TIMER_CMP, irq_bit_for_event(EV_TIMER_CMP)),
                (EV_ADC_DONE, irq_bit_for_event(EV_ADC_DONE)),
                (EV_WDT_BITE, irq_bit_for_event(EV_WDT_BITE)),
            ],
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
            sleep: vec![SlaveSleep::Awake; slave_count],
            sched: SlaveSched {
                active: (0..slave_count).fold(0, |mask, i| mask | 1 << i),
                asleep: 0,
                lazy: 0,
                wake_union: EventVector::EMPTY,
                next_deadline: u64::MAX,
                stats: SchedStats::default(),
            },
            naive_ticking: false,
            clock_ids,
            sampler: None,
        }
    }
}

/// State of the passive windowed activity sampler (see
/// [`Soc::start_timeline`]).
///
/// The sampler never changes how the SoC advances: it only *reads* the
/// cumulative activity image at observation points the run loops already
/// pass through, so obs-off and timeline-on runs are bit-identical in
/// every architectural result (`tests/obs_invariance.rs`).
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
    /// Cumulative activity image at window start (components flushed).
    baseline: ActivitySet,
    /// `cpu_awake_cycles` at window start (for the gated-clock share).
    baseline_awake: u64,
    /// Windows captured so far.
    timeline: ActivityTimeline,
}

/// Pre-interned component ids used on the per-drain clock-accounting
/// path, so draining never re-interns (or re-formats) names.
struct ClockIds {
    ibex: ComponentId,
    fabric: ComponentId,
    soc_ctrl: ComponentId,
    periph_misc: ComponentId,
    periphs: Vec<ComponentId>,
    pels: ComponentId,
    links: Vec<ComponentId>,
}

/// Quiescence-scheduling state of one APB slave.
#[derive(Debug, Clone, Copy)]
enum SlaveSleep {
    /// Ticked every cycle.
    Awake,
    /// Skipped since cycle `since` (the first un-ticked cycle); must be
    /// ticked again no later than cycle `deadline`. `mask` is the
    /// wake-event mask cached when the slave went to sleep (wiring is
    /// construction-time static, and any register access wakes the slave
    /// before it could change). `lazy` caches
    /// [`Peripheral::catch_up_is_noop`] from the same moment — nothing
    /// can mutate a sleeping slave, so it stays valid for the whole skip
    /// and lets `sync_slaves` bypass slaves with nothing to reconstruct.
    Asleep {
        since: u64,
        deadline: u64,
        mask: EventVector,
        lazy: bool,
    },
}

/// Cumulative scheduler statistics: which of the three stepping regimes
/// each cycle took, how much whole-SoC idle time was jumped, and how
/// often slaves changed sleep state. Pure observation — nothing in the
/// scheduler reads these back, so recording them cannot perturb
/// behaviour (`tests/obs_invariance.rs` proves runs are bit-identical
/// with observability on or off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Cycles stepped on the fast active-list path (no sleeper could
    /// wake, only active slaves ticked).
    pub fast_cycles: u64,
    /// Cycles where the aggregate stir check forced a full slave walk.
    pub stirred_cycles: u64,
    /// Cycles stepped under naive (reference) scheduling.
    pub naive_cycles: u64,
    /// Whole-SoC idle spans jumped by the O(1) skip.
    pub skip_spans: u64,
    /// Total cycles covered by those spans.
    pub skipped_cycles: u64,
    /// Scheduler aggregate rebuilds (one per sleep-state transition
    /// batch).
    pub rebuilds: u64,
    /// Individual slave wake transitions.
    pub wakes: u64,
    /// Individual slave sleep transitions.
    pub sleeps: u64,
}

impl SchedStats {
    /// Cycles actually stepped (excludes skipped spans).
    pub fn stepped_cycles(&self) -> u64 {
        self.fast_cycles + self.stirred_cycles + self.naive_cycles
    }
}

/// Aggregates over the per-slave [`SlaveSleep`] vector, rebuilt whenever
/// any slave changes sleep state. They turn the per-cycle scheduling
/// questions ("does any sleeper need waking?", "who must tick?") into a
/// few word-sized compares instead of a walk over every `Box<dyn
/// Peripheral>` — the active-slave scheduling half of the fast active
/// path (see `DESIGN.md` §7).
#[derive(Debug, Clone, Default)]
struct SlaveSched {
    /// Bit-per-index mask of awake slaves. Its set bits, taken in
    /// ascending order ([`set_bits`]), visit slaves in exactly the order
    /// the naive full walk does.
    active: u64,
    /// Bit-per-index mask of sleeping slaves.
    asleep: u64,
    /// Bit-per-index mask of sleepers whose `catch_up` is a no-op.
    lazy: u64,
    /// Union of all sleepers' wake masks.
    wake_union: EventVector,
    /// Earliest sleeper deadline (`u64::MAX` when none sleeps).
    next_deadline: u64,
    /// Observation-only counters (never read by scheduling decisions).
    stats: SchedStats,
}

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
    fn rebuild(&mut self, sleep: &[SlaveSleep]) {
        self.stats.rebuilds += 1;
        self.active = 0;
        self.asleep = 0;
        self.lazy = 0;
        self.wake_union = EventVector::EMPTY;
        self.next_deadline = u64::MAX;
        for (i, s) in sleep.iter().enumerate() {
            match *s {
                SlaveSleep::Awake => self.active |= 1 << i,
                SlaveSleep::Asleep {
                    deadline,
                    mask,
                    lazy,
                    ..
                } => {
                    self.asleep |= 1 << i;
                    if lazy {
                        self.lazy |= 1 << i;
                    }
                    self.wake_union |= mask;
                    self.next_deadline = self.next_deadline.min(deadline);
                }
            }
        }
    }
}

/// The assembled PULPissimo-like SoC.
pub struct Soc {
    freq: Frequency,
    cycle: u64,
    l2: L2Memory,
    fabric: ApbFabric<Box<dyn Peripheral>>,
    pels: Pels,
    pels_masters: Vec<MasterId>,
    cpu: Cpu,
    cpu_master: MasterId,
    activity: ActivitySet,
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
    /// Per-slave quiescence state, indexed by slave index.
    sleep: Vec<SlaveSleep>,
    /// Aggregates over `sleep`, kept in lockstep with it.
    sched: SlaveSched,
    /// When set, every slave ticks every cycle (the reference scheduler
    /// the differential property test compares against).
    naive_ticking: bool,
    clock_ids: ClockIds,
    /// Windowed activity sampler; `None` (the default) keeps every run
    /// loop's sampling cost at a single predictable branch.
    sampler: Option<Box<TimelineSampler>>,
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

/// PELS master ports over the fabric.
struct PelsPort<'a> {
    fabric: &'a mut ApbFabric<Box<dyn Peripheral>>,
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
    fabric: &'a mut ApbFabric<Box<dyn Peripheral>>,
    master: MasterId,
    pels: &'a mut Pels,
    pels_id: ComponentId,
    activity: &'a mut ActivitySet,
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
                self.activity.record(self.pels_id, ActivityKind::RegWrite, 1);
                match self.pels.config_write(off, req.wdata) {
                    Ok(()) => DataResult::Done {
                        value: 0,
                        extra_cycles: 2,
                    },
                    Err(_) => DataResult::Fault,
                }
            } else {
                self.activity.record(self.pels_id, ActivityKind::RegRead, 1);
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
                    self.trace.flow_hop(
                        self.time,
                        self.cpu_id,
                        if req.write { "handler_store" } else { "handler_load" },
                    );
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

    /// Mutable trace access (e.g. to disable recording in benches).
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

    fn periph<P: 'static>(&self, id: SlaveId) -> &P {
        self.fabric
            .slave(id)
            .as_any()
            .downcast_ref()
            .expect("slave id maps to its concrete type")
    }

    fn periph_mut<P: 'static>(&mut self, id: SlaveId) -> &mut P {
        // A direct mutable poke bypasses the bus, so none of the wake
        // conditions would notice it: sync the skipped span and force
        // the slave awake so its next tick sees the poked state.
        self.sync_slaves();
        self.sleep[id.index()] = SlaveSleep::Awake;
        self.sched.rebuild(&self.sleep);
        self.fabric
            .slave_mut(id)
            .as_any_mut()
            .downcast_mut()
            .expect("slave id maps to its concrete type")
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

    /// Fabric statistics (transfers, stalls).
    pub fn fabric_stats(&self) -> pels_interconnect::FabricStats {
        self.fabric.stats()
    }

    /// Per-master fabric arbitration statistics (grants and stall cycles
    /// per bus master), cumulative since construction.
    pub fn master_stats(&self) -> Vec<pels_interconnect::MasterStats> {
        self.fabric.master_stats()
    }

    /// Scheduler statistics: fast/stirred/naive cycle split, skip spans,
    /// rebuild and wake/sleep transition counts. Cumulative since
    /// construction.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.stats
    }

    /// Decoded-instruction cache `(hits, misses)` (see
    /// [`pels_cpu::Cpu::decode_cache_stats`]).
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        self.cpu.decode_cache_stats()
    }

    /// Publishes CPU, scheduler and fabric counters into an
    /// observability registry (gauge semantics — idempotent at a given
    /// point in the run). Keys: `cpu.*`, `soc.sched.*`, `fabric.*`, and
    /// `fabric.master.<name>.*` per bus master.
    pub fn publish_metrics(&self, reg: &mut pels_obs::MetricsRegistry) {
        self.cpu.publish_metrics(reg);
        let s = self.sched.stats;
        reg.set_named("soc.sched.fast_cycles", s.fast_cycles);
        reg.set_named("soc.sched.stirred_cycles", s.stirred_cycles);
        reg.set_named("soc.sched.naive_cycles", s.naive_cycles);
        reg.set_named("soc.sched.skip_spans", s.skip_spans);
        reg.set_named("soc.sched.skipped_cycles", s.skipped_cycles);
        reg.set_named("soc.sched.rebuilds", s.rebuilds);
        reg.set_named("soc.sched.wakes", s.wakes);
        reg.set_named("soc.sched.sleeps", s.sleeps);
        let f = self.fabric.stats();
        reg.set_named("fabric.transfers", f.transfers);
        reg.set_named("fabric.stall_cycles", f.stall_cycles);
        reg.set_named("fabric.busy_cycles", f.busy_cycles);
        for m in self.fabric.master_stats() {
            reg.set_named(&format!("fabric.master.{}.grants", m.name), m.grants);
            reg.set_named(&format!("fabric.master.{}.stalls", m.name), m.stall_cycles);
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
        self.trace
            .flow_raise(self.time(), self.clock_ids.soc_ctrl, line, "inject");
    }

    /// Turns on causal event-flow tracing (see `pels_sim::flow`). Off by
    /// default; enabling is a pure-observation switch — the differential
    /// `flow_invariance` suite proves runs are bit-identical either way.
    pub fn enable_flows(&mut self) {
        self.trace.enable_flows();
    }

    /// Selects the execution path. [`ExecMode::Fast`] (the default)
    /// skips idle peripherals, reconstructs their skipped cycles in closed
    /// form and serves the CPU from its decoded-instruction cache;
    /// [`ExecMode::Naive`] is the reference path: every peripheral ticks
    /// every cycle, with no quiescence skipping and no decode cache. Both
    /// are observationally identical (same traces, activity and
    /// architectural state — the differential suites in `tests/` prove
    /// it). May be switched mid-run.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        let naive = mode == ExecMode::Naive;
        self.sync_slaves();
        if naive {
            // Naive ticking never re-evaluates sleep state, so any slave
            // left asleep here would be skipped forever (and then
            // double-counted by a later catch-up). Wake everyone; the
            // sync above already replayed their skipped spans.
            self.sleep.fill(SlaveSleep::Awake);
            self.sched.rebuild(&self.sleep);
        }
        self.naive_ticking = naive;
        self.cpu.set_decode_cache_enabled(!naive);
    }

    /// Brings every sleeping slave's architectural state up to date
    /// (closed-form catch-up over the skipped span) without waking it.
    /// Called at every observation point — public step/run boundaries,
    /// `run_until` predicates, activity drains — so user code never sees
    /// lagging state.
    fn sync_slaves(&mut self) {
        // Only sleepers with a live catch-up (an enabled timer/watchdog
        // mid-count) have state to reconstruct; lazy sleepers' `catch_up`
        // is a no-op by contract, so skipping them — `since` and all — is
        // observationally identical.
        let pending = self.sched.asleep & !self.sched.lazy;
        if pending == 0 {
            return;
        }
        let cycle = self.cycle;
        let time = self.time();
        let sleep = &mut self.sleep;
        let mut ctx = PeriphCtx {
            cycle,
            time,
            events_in: EventVector::EMPTY,
            events_out: EventVector::EMPTY,
            l2: &mut self.l2,
            activity: &mut self.activity,
            trace: &mut self.trace,
        };
        for i in set_bits(pending) {
            if let SlaveSleep::Asleep { since, .. } = &mut sleep[i] {
                let elapsed = cycle - *since;
                if elapsed > 0 {
                    self.fabric.slave_mut_at(i).catch_up(&mut ctx, elapsed);
                    *since = cycle;
                }
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
        //    unless something can observe or perturb it this cycle: a
        //    wire it watches is high, a bus request is pending or in
        //    flight for it, its registers were accessed during the
        //    previous cycle's fabric phases, or its self-declared
        //    deadline arrived. Waking replays the skipped span in closed
        //    form *before* the normal tick, while the state is still
        //    exactly what the naive path would hold.
        let injected = std::mem::take(&mut self.injected);
        let wires = self.prev_wires | injected;
        let naive = self.naive_ticking;
        // Aggregate stir check: can *any* sleeper need waking this cycle?
        // The aggregates are conservative unions/minima of the per-slave
        // conditions, so `false` here proves the full walk would wake
        // nobody — the active set alone is then exactly the set of
        // slaves the naive walk would tick.
        let stirred = self.sched.asleep != 0
            && (cycle >= self.sched.next_deadline
                || wires.intersects(self.sched.wake_union)
                || (self.fabric.targeted_slaves() | self.fabric.touched_slaves())
                    & self.sched.asleep
                    != 0);
        let mut any_woke = false;
        let mut woke_count = 0u64;
        let pulses = if naive || stirred {
            if naive {
                self.sched.stats.naive_cycles += 1;
            } else {
                self.sched.stats.stirred_cycles += 1;
            }
            let targeted = self.fabric.targeted_slaves();
            let touched = self.fabric.touched_slaves();
            let sleep = &mut self.sleep;
            let mut ctx = PeriphCtx {
                cycle,
                time,
                events_in: wires,
                events_out: EventVector::EMPTY,
                l2: &mut self.l2,
                activity: &mut self.activity,
                trace: &mut self.trace,
            };
            for (sid, p) in self.fabric.slaves_mut() {
                let i = sid.index();
                if !naive {
                    if let SlaveSleep::Asleep {
                        since,
                        deadline,
                        mask,
                        ..
                    } = sleep[i]
                    {
                        let bit = 1u64 << i;
                        let wake = cycle >= deadline
                            || wires.intersects(mask)
                            || targeted & bit != 0
                            || touched & bit != 0;
                        if !wake {
                            continue;
                        }
                        p.catch_up(&mut ctx, cycle - since);
                        sleep[i] = SlaveSleep::Awake;
                        any_woke = true;
                        woke_count += 1;
                    }
                }
                p.tick(&mut ctx);
            }
            ctx.events_out | injected
        } else {
            // Fast path: no sleeper can wake, so only the active set
            // ticks — the per-cycle cost is proportional to activity, not
            // to the slave count.
            self.sched.stats.fast_cycles += 1;
            let mut ctx = PeriphCtx {
                cycle,
                time,
                events_in: wires,
                events_out: EventVector::EMPTY,
                l2: &mut self.l2,
                activity: &mut self.activity,
                trace: &mut self.trace,
            };
            for i in set_bits(self.sched.active) {
                self.fabric.slave_mut_at(i).tick(&mut ctx);
            }
            ctx.events_out | injected
        };
        self.sched.stats.wakes += woke_count;
        if any_woke {
            self.sched.rebuild(&self.sleep);
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
        for &(line, bit) in &self.irq_map {
            if pulses.is_set(line) {
                let newly = self.irq_pending & (1 << bit) == 0;
                self.irq_pending |= 1 << bit;
                if newly && self.trace.flows_enabled() {
                    // Latch the wire's flow alongside the pending bit so
                    // the eventual handler entry inherits it.
                    let flow = self.trace.flow_on_lines(1u64 << line);
                    self.irq_flow[bit as usize] = flow;
                    self.trace
                        .flow_hop_with(time, self.clock_ids.ibex, flow, "irq_pend");
                }
            }
        }
        {
            let mut bus = CpuPort {
                l2: &mut self.l2,
                fabric: &mut self.fabric,
                master: self.cpu_master,
                pels: &mut self.pels,
                pels_id: self.clock_ids.pels,
                activity: &mut self.activity,
                trace: &mut self.trace,
                time,
                cpu_id: self.clock_ids.ibex,
            };
            self.cpu.tick(&mut bus, self.irq_pending);
        }
        if let Some(line) = self.cpu.take_irq_ack() {
            self.irq_pending &= !(1u32 << line);
            if self.trace.flows_enabled() {
                let flow = std::mem::take(&mut self.irq_flow[line as usize]);
                self.trace
                    .flow_begin(time, self.clock_ids.ibex, flow, "irq_enter");
            }
        }

        // 4. Fabric APB phases.
        self.fabric.tick();
        if self.trace.flows_enabled() {
            self.stage_write_commit_flows();
            // Handler exit: `mret` retires inside the CPU; convert its
            // core cycle (locked to the SoC cycle) to absolute time and
            // close out the CPU's flow context.
            if let Some(c) = self.cpu.take_mret() {
                let t = SimTime::from_ps(self.freq.period_ps() * c);
                self.trace.flow_hop(t, self.clock_ids.ibex, "mret");
                self.trace.flow_begin(t, self.clock_ids.ibex, 0, "mret");
            }
        }

        // 4b. Sleep decisions, on post-bus state: a slave whose idle
        //     hint says the next n-1 ticks are unobservable sleeps with
        //     an absolute deadline; an indefinitely idle one sleeps
        //     until an external wake condition. Hints are queried after
        //     the fabric phases so a register write landing this cycle
        //     is reflected.
        if !naive {
            // Only awake slaves can fall asleep, so consulting just the
            // active set is exhaustive. (Sleepers re-decide when they
            // wake, never in place.)
            let mut slept_count = 0u64;
            for i in set_bits(self.sched.active) {
                let p = self.fabric.slave_mut_at(i);
                match p.idle_hint() {
                    IdleHint::Busy => {}
                    IdleHint::IdleFor(n) => {
                        if n >= 2 {
                            self.sleep[i] = SlaveSleep::Asleep {
                                since: cycle + 1,
                                deadline: cycle.saturating_add(n),
                                mask: p.wake_mask(),
                                lazy: p.catch_up_is_noop(),
                            };
                            slept_count += 1;
                        }
                    }
                    IdleHint::Idle => {
                        self.sleep[i] = SlaveSleep::Asleep {
                            since: cycle + 1,
                            deadline: u64::MAX,
                            mask: p.wake_mask(),
                            lazy: p.catch_up_is_noop(),
                        };
                        slept_count += 1;
                    }
                }
            }
            self.sched.stats.sleeps += slept_count;
            if slept_count > 0 {
                self.sched.rebuild(&self.sleep);
            }
        }

        // 5. Bookkeeping.
        if matches!(self.cpu.state(), CpuState::Running | CpuState::MemWait) {
            self.cpu_awake_cycles += 1;
        }
        self.prev_wires = pulses | actions;
        self.trace.flow_cycle_end();
        self.cycle += 1;
        self.window_cycles += 1;
    }

    /// Translates this cycle's fabric write commits into staged causal
    /// flows keyed by the slave they hit: the CPU master carries the CPU's
    /// adopted context (IRQ handler stores), each PELS master its link's
    /// (sequenced RMW commands). Consumed by the slave's next tick — e.g.
    /// GPIO pad-out attribution. Only called when flows are enabled.
    fn stage_write_commit_flows(&mut self) {
        for i in 0..self.fabric.write_commits().len() {
            let (slave, master) = self.fabric.write_commits()[i];
            let flow = if master == self.cpu_master.index() {
                self.trace.flow_component(self.clock_ids.ibex)
            } else {
                self.pels_masters
                    .iter()
                    .position(|m| m.index() == master)
                    .and_then(|link| self.clock_ids.links.get(link))
                    .map(|&id| self.trace.flow_component(id))
                    .unwrap_or(0)
            };
            if flow != 0 {
                let id = self.fabric.slave_at(slave).component();
                self.trace.flow_stage_reg_write(id, flow);
            }
        }
    }

    /// Attempts to advance up to `budget` cycles in one jump, possible
    /// only when the whole SoC is provably inert: the CPU asleep (or
    /// halted) with no wakeable interrupt, every peripheral asleep and
    /// none of their wake wires high, the fabric empty, PELS steady, and
    /// the wire image self-reproducing. Returns the cycles skipped (0 if
    /// any component might act). Skipped peripherals are replayed by
    /// `catch_up` at the next wake or sync, so the jump is
    /// observationally identical to stepping — the differential test in
    /// `tests/quiescence.rs` exercises exactly this path via random
    /// `run` segment lengths.
    fn try_skip(&mut self, budget: u64) -> u64 {
        if self.naive_ticking || budget == 0 || !self.injected.is_empty() {
            return 0;
        }
        // A running (or bus-stalled) CPU always vetoes the skip — that is
        // the last check below (`skip_idle_cycles`), but on the busy path
        // it is the common exit, so take it first and skip the slave-state
        // proof entirely.
        if matches!(self.cpu.state(), CpuState::Running | CpuState::MemWait) {
            return 0;
        }
        let wires = self.prev_wires;
        // Every slave must be asleep, unwakeable by the current wires,
        // and strictly before its deadline; the span is bounded by the
        // nearest deadline. The `sched` aggregates answer all three in
        // O(1): an empty active set is "all asleep", the wake-mask
        // union covers every sleeper's mask, and the minimum deadline
        // bounds them all.
        if self.sched.active != 0 {
            return 0;
        }
        if wires.intersects(self.sched.wake_union) {
            return 0;
        }
        let remain = self.sched.next_deadline.saturating_sub(self.cycle);
        if remain == 0 {
            return 0;
        }
        let span = budget.min(remain);
        if !self.fabric.is_quiescent() {
            return 0;
        }
        // Peripheral pulses are empty while all slaves sleep, so PELS
        // sees no external events; its output must already be latched
        // and must be exactly the standing wire image (pulses would decay
        // next cycle, so a mismatch means the image is still settling).
        match self.pels.steady_output(EventVector::EMPTY) {
            Some(visible) if visible == wires => {}
            _ => return 0,
        }
        // The CPU commits the skip (or vetoes it if running/stalled or
        // about to take an interrupt).
        if !self.cpu.skip_idle_cycles(span, self.irq_pending) {
            return 0;
        }
        self.pels.skip_cycles(span);
        self.fabric.skip_cycles(span);
        self.cycle += span;
        self.window_cycles += span;
        self.sched.stats.skip_spans += 1;
        self.sched.stats.skipped_cycles += span;
        span
    }

    /// Runs `n` cycles, jumping over whole-SoC idle spans when possible.
    pub fn run(&mut self, n: u64) {
        let mut done = 0;
        while done < n {
            let advanced = self.try_skip(n - done);
            if advanced == 0 {
                self.step_inner();
                done += 1;
            } else {
                done += advanced;
            }
            self.timeline_tick();
        }
        self.sync_slaves();
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

    /// Runs until the trace holds at least `count` entries matching
    /// `(source, label)`, or `max_cycles` elapse; returns `true` if the
    /// count was reached. Pre-existing matching entries count.
    ///
    /// The scenario engine's completion condition. Unlike a
    /// [`Soc::run_until`] closure re-scanning the trace, this scans each
    /// entry exactly once (the trace is append-only) and jumps over
    /// provably inert spans — no component may act during such a span,
    /// so no trace entry can appear inside it and the stop cycle is
    /// identical to single-stepping.
    pub fn run_for_trace_count(
        &mut self,
        max_cycles: u64,
        source: &str,
        label: &str,
        count: usize,
    ) -> bool {
        let id = ComponentId::intern(source);
        let end = self.cycle.saturating_add(max_cycles);
        let mut seen = 0usize;
        let mut scanned = 0usize;
        loop {
            let entries = self.trace.entries();
            while scanned < entries.len() {
                let e = &entries[scanned];
                if e.source == id && e.label == label {
                    seen += 1;
                }
                scanned += 1;
            }
            let done = seen >= count;
            if done || self.cycle >= end {
                self.sync_slaves();
                return done;
            }
            if self.try_skip(end - self.cycle) == 0 {
                self.step_inner();
            }
            self.timeline_tick();
        }
    }

    /// Drains all accumulated activity — peripheral register traffic, CPU
    /// fetch/retire counts, PELS SCM accesses, fabric transfers, SRAM
    /// accesses — plus per-component clock-cycle counts for the window
    /// since the previous drain. Resets the window.
    pub fn drain_activity(&mut self) -> ActivitySet {
        self.sync_slaves();
        self.flush_component_activity();
        let mut set = std::mem::take(&mut self.activity);

        // Clock accounting: the core clock is gated during WFI sleep; the
        // rest of the SoC clocks every cycle of the window.
        let cycles = self.window_cycles;
        Self::record_clock_activity(&mut set, &self.clock_ids, cycles, self.cpu_awake_cycles);
        self.cpu_awake_cycles = 0;
        self.window_cycles = 0;
        set
    }

    /// Flushes every component's internal activity counters into the
    /// SoC's cumulative [`ActivitySet`]. Counters add, so flushing at any
    /// intermediate point leaves the eventual [`Soc::drain_activity`]
    /// result bit-identical — this is what lets the timeline sampler read
    /// a current image mid-run without perturbing the final drain. Clock
    /// accounting (`window_cycles` / `cpu_awake_cycles`) is deliberately
    /// untouched: it is derived, not accumulated, and the per-drain
    /// integer division (`cycles / 10`) must see the whole window.
    fn flush_component_activity(&mut self) {
        let mut set = std::mem::take(&mut self.activity);
        self.cpu.drain_activity(&mut set);
        self.pels.drain_activity(&mut set);
        self.fabric.drain_activity(&mut set);
        self.l2.drain_activity(&mut set);
        for (_, p) in self.fabric.slaves_mut() {
            p.drain_activity(&mut set);
        }
        self.activity = set;
    }

    /// Adds the per-window clock-cycle accounting to an activity set:
    /// the core clock is gated during WFI sleep (`awake` cycles), the
    /// fabric/PELS/links clock every cycle, and idle-gated peripherals
    /// keep a ~10 % residual for gating logic and sampling flops. Busy
    /// peripheral cycles are charged separately via their `ActiveCycle`
    /// records.
    fn record_clock_activity(set: &mut ActivitySet, ids: &ClockIds, cycles: u64, awake: u64) {
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
        self.sampler = Some(Box::new(TimelineSampler {
            window_cycles,
            window_start: self.cycle,
            next_boundary: self.cycle + window_cycles,
            baseline: ActivitySet::new(),
            baseline_awake: 0,
            timeline: ActivityTimeline::new(window_cycles),
        }));
    }

    /// Stops sampling and returns the captured timeline (closing the
    /// final partial window if it spans at least one cycle), or `None`
    /// if [`Soc::start_timeline`] was never called.
    pub fn take_timeline(&mut self) -> Option<ActivityTimeline> {
        let open = self
            .sampler
            .as_ref()
            .map(|s| self.cycle > s.window_start)?;
        if open {
            self.close_timeline_window();
        }
        self.sampler.take().map(|s| s.timeline)
    }

    /// Sampling hook on the run-loop observation points: one predictable
    /// branch when sampling is off.
    #[inline]
    fn timeline_tick(&mut self) {
        if let Some(s) = &self.sampler {
            if self.cycle >= s.next_boundary {
                self.close_timeline_window();
            }
        }
    }

    /// Closes the current sampling window at the present cycle: brings
    /// sleeping slaves up to date (closed-form catch-up — segmentation
    /// invariant, so extra syncs cannot change results), flushes
    /// component counters, and records the delta since the window's
    /// baseline plus the window's share of the clock accounting. The
    /// clock share is added to the *delta copy only*; the cumulative set
    /// and the drain counters stay untouched.
    fn close_timeline_window(&mut self) {
        self.sync_slaves();
        self.flush_component_activity();
        let Some(mut s) = self.sampler.take() else {
            return;
        };
        let mut delta = self.activity.delta_from(&s.baseline);
        let cycles = self.cycle - s.window_start;
        let awake = self.cpu_awake_cycles.saturating_sub(s.baseline_awake);
        Self::record_clock_activity(&mut delta, &self.clock_ids, cycles, awake);
        s.timeline.windows.push(ActivityWindow {
            start_cycle: s.window_start,
            end_cycle: self.cycle,
            activity: delta,
        });
        s.window_start = self.cycle;
        s.next_boundary = self.cycle + s.window_cycles;
        s.baseline = self.activity.clone();
        s.baseline_awake = self.cpu_awake_cycles;
        self.sampler = Some(s);
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
mod tests {
    use super::*;
    use pels_cpu::asm;

    #[test]
    fn builder_produces_wired_soc() {
        let soc = SocBuilder::new().pels_links(2).build();
        assert_eq!(soc.pels().link_count(), 2);
        assert_eq!(soc.gpio().out(), 0);
        assert!(!soc.spi().is_busy());
        assert_eq!(soc.frequency(), Frequency::from_mhz(55.0));
    }

    #[test]
    fn cpu_runs_program_from_l2() {
        let mut soc = SocBuilder::new().build();
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
        let mut soc = SocBuilder::new().build();
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
        let mut soc = SocBuilder::new().build();
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
    }

    #[test]
    fn timer_event_starts_spi_autonomously() {
        let mut soc = SocBuilder::new().build();
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
        let mut soc = SocBuilder::new().build();
        soc.load_program(RESET_PC, &[asm::wfi()]);
        soc.run(100);
        let a = soc.drain_activity();
        let ibex_clk = a.count("ibex", ActivityKind::ClockCycle);
        let fabric_clk = a.count("fabric", ActivityKind::ClockCycle);
        assert_eq!(fabric_clk, 100);
        assert!(ibex_clk < 5, "core clock gated after wfi ({ibex_clk})");
    }

    #[test]
    fn drain_resets_window() {
        let mut soc = SocBuilder::new().build();
        soc.run(10);
        let _ = soc.drain_activity();
        assert_eq!(soc.window_cycles(), 0);
        soc.run(5);
        assert_eq!(soc.window_cycles(), 5);
        assert_eq!(soc.window_time(), Frequency::from_mhz(55.0).cycles(5));
    }

    #[test]
    fn injected_events_reach_pels_and_irq_paths() {
        let mut soc = SocBuilder::new().timer_starts_spi(false).build();
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
        let mut soc = SocBuilder::new().build();
        let mut p = vec![];
        p.extend(asm::li32(1, apb_reg(GPIO_OFFSET, Gpio::PADOUTSET)));
        p.extend(asm::li32(2, 0xA5));
        p.push(asm::sw(1, 2, 0));
        // Busy loop: re-executed instructions are decode-cache hits.
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
        let (hits, _misses) = soc.decode_cache_stats();
        assert!(hits > 0, "li32 expansion re-executes cached lines");

        let mut reg = pels_obs::MetricsRegistry::new();
        soc.publish_metrics(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.get("cpu.decode_cache.hits"), Some(hits));
        assert_eq!(snap.get("soc.sched.sleeps"), Some(s.sleeps));
        assert!(
            snap.get("fabric.master.ibex.grants").unwrap_or(0) > 0,
            "the store to GPIO was granted: {snap}"
        );
    }

    #[test]
    fn builder_is_a_thin_wrapper_over_the_desc() {
        // The setter API and from_desc must describe the same machine.
        let via_setters = SocBuilder::new()
            .pels_links(3)
            .scm_lines(8)
            .spi_clkdiv(2)
            .sensor(SensorKind::Constant(1.0))
            .topology(Topology::PerSlaveCrossbar)
            .arbiter(ArbiterKind::FixedPriority);
        let mut desc = SystemDesc::default();
        desc.pels.links = 3;
        desc.pels.scm_lines = 8;
        desc.set_spi_clkdiv(2);
        desc.sensor = SensorKind::Constant(1.0);
        desc.topology = Topology::PerSlaveCrossbar;
        desc.arbiter = ArbiterKind::FixedPriority;
        assert_eq!(via_setters.desc(), &desc);
        let soc = SocBuilder::from_desc(desc).try_build().expect("valid desc");
        assert_eq!(soc.pels().link_count(), 3);
    }

    #[test]
    fn builder_reports_desc_errors_with_paths() {
        let mut desc = SystemDesc::default();
        desc.peripherals[1].offset = 12;
        let err = SocBuilder::from_desc(desc).try_build().unwrap_err();
        match err {
            ConfigError::Desc(e) => assert_eq!(e.path, "/peripherals/1/offset"),
            other => panic!("expected a Desc error, got {other:?}"),
        }
    }
}
