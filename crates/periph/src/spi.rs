//! SPI master with built-in µDMA RX channel.
//!
//! The sensor front-end of the paper's evaluation workload: "I/O
//! DMA-managed sensor readout through the SPI interface" (Section IV-B). A
//! transfer shifts words from the attached sensor (each word is the
//! current [`Quantizer`] code), lands them in the RX FIFO and — when armed — streams them to L2
//! through the embedded µDMA channel, then pulses **end-of-transfer**: the
//! event PELS (or the Ibex interrupt path) links on.

use crate::sensor::Quantizer;
use crate::traits::{wake_mask_of, PeriphCtx, Peripheral, SleepPlan};
use crate::udma::UdmaChannel;
use pels_interconnect::{ApbSlave, BusError};
use pels_sim::{ActivityCounter, ComponentId, Fifo};

/// SPI master peripheral.
///
/// ## Register map (byte offsets)
///
/// | offset | name        | access | function                                  |
/// |-------:|-------------|--------|-------------------------------------------|
/// | 0x00   | `STATUS`    | RO     | bit0 busy, bits\[15:8\] RX FIFO level     |
/// | 0x04   | `CMD`       | WO     | start a transfer of N words               |
/// | 0x08   | `DATA`      | RO     | pop RX FIFO (0 when empty)                |
/// | 0x0C   | `CLKDIV`    | RW     | bus-clock cycles per word (≥1)            |
/// | 0x10   | `UDMA_SADDR`| RW     | µDMA RX target address in L2              |
/// | 0x14   | `UDMA_SIZE` | WO     | arm µDMA RX channel with N bytes          |
/// | 0x18   | `LAST`      | RO     | most recent received word (no side effect)|
/// | 0x1C   | `UDMA_CFG`  | RW     | bit 0: continuous (ring-buffer) µDMA mode |
///
/// `LAST` exists so a PELS `capture` can read the newest sample without
/// perturbing FIFO state — the access pattern of the paper's Figure 3.
///
/// ## Event wiring
///
/// * [`Spi::wire_eot_event`] — pulses on end-of-transfer;
/// * [`Spi::wire_udma_done_event`] — pulses when the µDMA buffer completes;
/// * [`Spi::wire_start_action`] — an incoming pulse starts a transfer of
///   the most recent `CMD` length (instant-action start).
#[derive(Debug, Clone, PartialEq)]
pub struct Spi {
    id: ComponentId,
    sensor: Quantizer,
    clkdiv: u32,
    words_remaining: u32,
    cycle_in_word: u32,
    last_len: u32,
    last_word: u32,
    rx_fifo: Fifo<u32>,
    udma: UdmaChannel,
    udma_saddr: u32,
    eot_line: Option<u32>,
    udma_done_line: Option<u32>,
    start_line: Option<u32>,
    activity: ActivityCounter,
    words_done: u64,
}

impl Spi {
    /// `STATUS` byte offset.
    pub const STATUS: u32 = 0x00;
    /// `CMD` byte offset.
    pub const CMD: u32 = 0x04;
    /// `DATA` byte offset.
    pub const DATA: u32 = 0x08;
    /// `CLKDIV` byte offset.
    pub const CLKDIV: u32 = 0x0C;
    /// `UDMA_SADDR` byte offset.
    pub const UDMA_SADDR: u32 = 0x10;
    /// `UDMA_SIZE` byte offset.
    pub const UDMA_SIZE: u32 = 0x14;
    /// `LAST` byte offset.
    pub const LAST: u32 = 0x18;
    /// `UDMA_CFG` byte offset (bit 0: continuous/ring mode).
    pub const UDMA_CFG: u32 = 0x1C;

    /// Creates an SPI master reading `sensor`, 8 cycles/word, RX FIFO
    /// depth 8.
    pub fn new(name: impl AsRef<str>, sensor: Quantizer) -> Self {
        Spi {
            id: ComponentId::intern(name.as_ref()),
            sensor,
            clkdiv: 8,
            words_remaining: 0,
            cycle_in_word: 0,
            last_len: 1,
            last_word: 0,
            rx_fifo: Fifo::new(8),
            udma: UdmaChannel::new(),
            udma_saddr: 0,
            eot_line: None,
            udma_done_line: None,
            start_line: None,
            activity: ActivityCounter::default(),
            words_done: 0,
        }
    }

    /// Pulses `line` at end-of-transfer.
    pub fn wire_eot_event(&mut self, line: u32) -> &mut Self {
        self.eot_line = Some(line);
        self
    }

    /// Pulses `line` when the armed µDMA buffer completes.
    pub fn wire_udma_done_event(&mut self, line: u32) -> &mut Self {
        self.udma_done_line = Some(line);
        self
    }

    /// Starts a transfer (of the last `CMD` length) when `line` pulses.
    pub fn wire_start_action(&mut self, line: u32) -> &mut Self {
        self.start_line = Some(line);
        self
    }

    /// Presets the word count used by action-line starts without
    /// triggering a transfer (configuration convenience; over the bus the
    /// same effect needs a `CMD` write, which also starts one transfer).
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn set_default_len(&mut self, words: u32) -> &mut Self {
        assert!(words > 0, "transfer length must be non-zero");
        self.last_len = words;
        self
    }

    /// Whether a transfer is in progress.
    pub fn is_busy(&self) -> bool {
        self.words_remaining > 0
    }

    /// Most recent received word.
    pub fn last_word(&self) -> u32 {
        self.last_word
    }

    /// Words shifted since construction.
    pub fn words_done(&self) -> u64 {
        self.words_done
    }

    /// RX FIFO occupancy.
    pub fn rx_level(&self) -> usize {
        self.rx_fifo.len()
    }

    fn start(&mut self, words: u32) {
        self.words_remaining = words;
        self.cycle_in_word = 0;
    }
}

impl ApbSlave for Spi {
    fn read(&mut self, offset: u32) -> Result<u32, BusError> {
        self.activity.reads += 1;
        match offset {
            Self::STATUS => {
                Ok(u32::from(self.is_busy()) | ((self.rx_fifo.len() as u32) << 8))
            }
            Self::DATA => Ok(self.rx_fifo.pop().unwrap_or(0)),
            Self::CLKDIV => Ok(self.clkdiv),
            Self::UDMA_SADDR => Ok(self.udma_saddr),
            Self::UDMA_CFG => Ok(u32::from(self.udma.is_continuous())),
            Self::LAST => Ok(self.last_word),
            _ => Err(BusError::Slave { addr: offset }),
        }
    }

    fn write(&mut self, offset: u32, value: u32) -> Result<(), BusError> {
        self.activity.writes += 1;
        match offset {
            Self::CMD => {
                if value == 0 {
                    return Err(BusError::Slave { addr: offset });
                }
                self.last_len = value;
                self.start(value);
            }
            Self::CLKDIV => {
                if value == 0 {
                    return Err(BusError::Slave { addr: offset });
                }
                self.clkdiv = value;
            }
            Self::UDMA_SADDR => self.udma_saddr = value,
            Self::UDMA_CFG => self.udma.set_continuous(value & 1 != 0),
            Self::UDMA_SIZE => self.udma.configure(self.udma_saddr, value),
            _ => return Err(BusError::Slave { addr: offset }),
        }
        Ok(())
    }
}

impl Peripheral for Spi {
    fn component(&self) -> ComponentId {
        self.id
    }

    fn tick(&mut self, ctx: &mut PeriphCtx<'_>) {
        if ctx.wired_high(self.start_line) && !self.is_busy() {
            self.start(self.last_len);
            ctx.trace
                .record(ctx.time, self.id, "start", u64::from(self.last_len));
            if let Some(f) = ctx.trace.flow_trace_mut() {
                // Adopt the flow carried by the start wire (a timer
                // compare, a PELS action, …); if the wire carried none,
                // clear any stale context from a previous transfer.
                f.begin(ctx.time, self.id, 0, "start");
                if let Some(line) = self.start_line {
                    f.adopt_wire(ctx.time, self.id, line, "start");
                }
            }
        }
        if !self.is_busy() {
            return;
        }
        self.activity.active_cycles += 1;
        self.cycle_in_word += 1;
        if self.cycle_in_word < self.clkdiv {
            return;
        }
        // One word completes this cycle.
        self.cycle_in_word = 0;
        let word = self.sensor.convert(ctx.time);
        self.last_word = word;
        self.words_done += 1;
        if self.udma.is_active() {
            self.udma.push_word(word, ctx.l2);
            if let Some(addr) = self.udma.take_fault() {
                ctx.trace
                    .record(ctx.time, self.id, "udma_err", u64::from(addr));
            }
            if self.udma.take_done() {
                if let Some(line) = self.udma_done_line {
                    ctx.raise(line, self.id, &mut self.activity, "udma_done");
                }
            }
        } else {
            let _ = self.rx_fifo.push(word);
        }
        self.words_remaining -= 1;
        if self.words_remaining == 0 {
            if let Some(line) = self.eot_line {
                ctx.raise(line, self.id, &mut self.activity, "eot");
                // End of this causal event: drop the context so the next
                // transfer's eot originates a fresh flow (continuous µDMA
                // mode restarts without a wire edge).
                if let Some(f) = ctx.trace.flow_trace_mut() {
                    f.begin(ctx.time, self.id, 0, "eot");
                }
            }
        }
    }

    fn sleep_plan(&self) -> Option<SleepPlan> {
        // A shifting SPI publishes its word-completion deadline: until
        // then a tick only advances `cycle_in_word` and counts one
        // ActiveCycle, which `catch_up` replays in closed form. The
        // completing tick — device exchange, L2 write or FIFO push,
        // `udma_done`/`eot` pulses — lands on the deadline as a real tick.
        // The subtraction saturates because lowering `CLKDIV` mid-word
        // can leave `cycle_in_word` past the new divider (the next tick
        // then completes the word). An idle SPI only reacts to its start
        // line or a register access.
        let idle_for = if self.is_busy() {
            u64::from(self.clkdiv.saturating_sub(self.cycle_in_word))
        } else {
            SleepPlan::UNTIL_WIRE
        };
        Some(SleepPlan {
            idle_for,
            wake_mask: wake_mask_of(&[self.start_line]),
        })
    }

    fn catch_up(&mut self, elapsed: u64) {
        // Replays a skipped mid-word span: each skipped cycle counted one
        // ActiveCycle and advanced the bit clock. The span ends strictly
        // before the word-completing tick, so no word completes in it.
        if !self.is_busy() || elapsed == 0 {
            return;
        }
        debug_assert!(
            elapsed < u64::from(self.clkdiv.saturating_sub(self.cycle_in_word)),
            "skipped span must end before the word completes"
        );
        self.activity.active_cycles += elapsed;
        self.cycle_in_word += elapsed as u32;
    }

    fn drain_activity(&mut self, into: &mut impl pels_sim::ActivitySink) {
        self.activity.drain(self.id, into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::SensorKind;
    use crate::testctx::Harness;
    use pels_sim::{EventVector, SimTime};

    /// A ramp steep enough (about 180 codes per 8-cycle word) that every
    /// word a test shifts carries a distinct, rising code.
    const RAMP: SensorKind = SensorKind::Ramp {
        start: 0.0,
        slope_per_us: 1.0,
    };

    fn spi() -> Spi {
        let mut s = Spi::new("spi", RAMP.quantizer());
        s.wire_eot_event(3);
        s
    }

    /// The word a transfer completing on harness cycle `cycle` receives.
    fn word_at(cycle: u64) -> u32 {
        let period = Harness::new().period;
        RAMP.quantizer()
            .convert(SimTime::from_ps(period.as_ps() * cycle))
    }

    #[test]
    fn transfer_takes_clkdiv_cycles_per_word() {
        let mut s = spi();
        s.write(Spi::CMD, 1).unwrap();
        let mut h = Harness::new();
        let out = h.run(&mut s, 7);
        assert!(!out.is_set(3), "not done before 8 cycles");
        let out = h.run(&mut s, 1);
        assert!(out.is_set(3), "EOT on the 8th cycle");
        assert!(!s.is_busy());
        assert_eq!(s.last_word(), word_at(7));
    }

    #[test]
    fn words_land_in_rx_fifo_without_dma() {
        let mut s = spi();
        s.write(Spi::CMD, 3).unwrap();
        let mut h = Harness::new();
        h.run(&mut s, 24);
        assert_eq!(s.rx_level(), 3);
        assert_eq!(s.read(Spi::DATA).unwrap(), word_at(7));
        assert_eq!(s.read(Spi::DATA).unwrap(), word_at(15));
        assert_eq!(s.read(Spi::DATA).unwrap(), word_at(23));
        assert_eq!(s.read(Spi::DATA).unwrap(), 0); // empty reads as 0
    }

    #[test]
    fn udma_streams_to_l2_and_pulses_done() {
        let mut s = spi();
        s.wire_udma_done_event(4);
        s.write(Spi::UDMA_SADDR, 0x40).unwrap();
        s.write(Spi::UDMA_SIZE, 8).unwrap();
        s.write(Spi::CMD, 2).unwrap();
        let mut h = Harness::new();
        let out = h.run(&mut s, 16);
        assert!(out.is_set(3), "eot");
        assert!(out.is_set(4), "udma done");
        assert_eq!(h.l2.peek_word(0x40), word_at(7));
        assert_eq!(h.l2.peek_word(0x44), word_at(15));
        assert_eq!(s.rx_level(), 0, "dma path bypasses the fifo");
    }

    #[test]
    fn action_line_starts_transfer() {
        let mut s = spi();
        s.wire_start_action(7);
        s.write(Spi::CMD, 1).unwrap();
        let mut h = Harness::new();
        h.run(&mut s, 8); // finish the CMD transfer
        assert!(!s.is_busy());
        h.tick(&mut s, EventVector::mask_of(&[7]));
        assert!(s.is_busy());
        let out = h.run(&mut s, 8);
        assert!(out.is_set(3));
        assert_eq!(s.words_done(), 2);
    }

    #[test]
    fn status_reflects_busy_and_fifo_level() {
        let mut s = spi();
        s.write(Spi::CMD, 1).unwrap();
        assert_eq!(s.read(Spi::STATUS).unwrap() & 1, 1);
        let mut h = Harness::new();
        h.run(&mut s, 8);
        let st = s.read(Spi::STATUS).unwrap();
        assert_eq!(st & 1, 0);
        assert_eq!((st >> 8) & 0xFF, 1);
    }

    #[test]
    fn last_register_reads_without_popping() {
        let mut s = spi();
        s.write(Spi::CMD, 1).unwrap();
        let mut h = Harness::new();
        h.run(&mut s, 8);
        assert_eq!(s.read(Spi::LAST).unwrap(), word_at(7));
        assert_eq!(s.read(Spi::LAST).unwrap(), word_at(7));
        assert_eq!(s.rx_level(), 1);
    }

    #[test]
    fn zero_cmd_and_clkdiv_rejected() {
        let mut s = spi();
        assert!(s.write(Spi::CMD, 0).is_err());
        assert!(s.write(Spi::CLKDIV, 0).is_err());
    }

    #[test]
    fn faster_clkdiv_shortens_words() {
        let mut s = spi();
        s.write(Spi::CLKDIV, 2).unwrap();
        s.write(Spi::CMD, 2).unwrap();
        let mut h = Harness::new();
        let out = h.run(&mut s, 4);
        assert!(out.is_set(3));
    }

    /// Cycles to the SPI's next self-driven tick: its plan's `idle_for`.
    fn idle_for(s: &Spi) -> u64 {
        s.sleep_plan().expect("an SPI always has a plan").idle_for
    }

    /// The `idle_for` the SoC scheduler would read after each of `n` ticks.
    fn plans_over(s: &mut Spi, h: &mut Harness, n: u64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                h.run(s, 1);
                idle_for(s)
            })
            .collect()
    }

    const WIRE: u64 = SleepPlan::UNTIL_WIRE;

    #[test]
    fn sleep_plan_publishes_exact_word_deadline() {
        let mut s = spi();
        assert_eq!(idle_for(&s), WIRE);
        s.write(Spi::CMD, 2).unwrap();
        // clkdiv = 8: after the start (before any tick) the completing
        // tick is 8 ticks away.
        assert_eq!(idle_for(&s), 8);
        let mut h = Harness::new();
        h.run(&mut s, 1);
        assert_eq!(idle_for(&s), 7);
        // The word completes on the deadline; the next word publishes a
        // fresh full-word deadline.
        let out = h.run(&mut s, 7);
        assert!(!out.is_set(3));
        assert_eq!(s.words_done(), 1);
        assert_eq!(idle_for(&s), 8);
        let out = h.run(&mut s, 8);
        assert!(out.is_set(3));
        assert_eq!(idle_for(&s), WIRE);
    }

    #[test]
    fn lowering_clkdiv_mid_word_saturates_the_deadline() {
        let mut s = spi();
        s.write(Spi::CMD, 1).unwrap();
        let mut h = Harness::new();
        h.run(&mut s, 5);
        assert_eq!(idle_for(&s), 3);
        // cycle_in_word (5) is now past the divider: the very next tick
        // completes the word.
        s.write(Spi::CLKDIV, 3).unwrap();
        assert_eq!(idle_for(&s), 0);
        let out = h.run(&mut s, 1);
        assert!(out.is_set(3));
        assert_eq!(s.last_word(), word_at(5));
        // Lowered to exactly cycle_in_word + 1: due on the next tick.
        let mut s = spi();
        s.write(Spi::CMD, 1).unwrap();
        h.run(&mut s, 5);
        s.write(Spi::CLKDIV, 6).unwrap();
        assert_eq!(idle_for(&s), 1);
    }

    #[test]
    fn fastest_dividers_publish_no_multi_cycle_skip() {
        // clkdiv 1: every tick completes a word, so the plan never lets
        // the scheduler skip a cycle (it sleeps only on `idle_for >= 2`).
        let mut s = spi();
        s.write(Spi::CLKDIV, 1).unwrap();
        s.write(Spi::CMD, 4).unwrap();
        assert_eq!(idle_for(&s), 1);
        let mut h = Harness::new();
        assert_eq!(plans_over(&mut s, &mut h, 4), [1, 1, 1, WIRE]);
        assert_eq!(s.words_done(), 4);
        // clkdiv 2: the mid-word tick is the only skippable one — a word
        // boundary publishes 2, the tick after it 1.
        let mut s = spi();
        s.write(Spi::CLKDIV, 2).unwrap();
        s.write(Spi::CMD, 3).unwrap();
        assert_eq!(idle_for(&s), 2);
        assert_eq!(plans_over(&mut s, &mut h, 6), [1, 2, 1, 2, 1, WIRE]);
    }

    #[test]
    fn out_of_range_udma_words_are_dropped_and_traced() {
        let mut s = spi();
        s.wire_udma_done_event(4);
        s.write(Spi::UDMA_SADDR, 0x7FFF_0000).unwrap();
        s.write(Spi::UDMA_SIZE, 8).unwrap();
        s.write(Spi::CMD, 2).unwrap();
        let mut h = Harness::new();
        let out = h.run(&mut s, 16);
        assert!(out.is_set(3) && out.is_set(4), "eot and udma_done still pulse");
        let errs: Vec<u64> = h
            .trace
            .entries()
            .iter()
            .filter(|e| e.label == "udma_err")
            .map(|e| e.value)
            .collect();
        assert_eq!(errs, [0x7FFF_0000, 0x7FFF_0004]);
        assert_eq!(h.l2.writes(), 0);
    }

    #[test]
    fn full_scale_sensor_reads_max_code() {
        let mut s = Spi::new("spi", SensorKind::Constant(3.3).quantizer());
        s.wire_eot_event(3);
        s.write(Spi::CMD, 1).unwrap();
        let mut h = Harness::new();
        h.run(&mut s, 8);
        assert_eq!(s.last_word(), 4095);
    }
}
