//! UART transmitter.
//!
//! A secondary peripheral rounding out the SoC: the paper's SoC inventory
//! (PULPissimo) carries a UART among its I/O set, and the examples use it
//! as a *sequenced-action* target — PELS can emit an alert byte without
//! waking the core.

use crate::traits::{PeriphCtx, Peripheral, SleepPlan};
use crate::udma::UdmaTxChannel;
use pels_interconnect::{ApbSlave, BusError};
use pels_sim::{ActivityCounter, ComponentId, EventVector, Fifo};

/// A TX-only UART with a small FIFO and a fixed per-byte cycle cost.
///
/// ## Register map (byte offsets)
///
/// | offset | name     | access | function                              |
/// |-------:|----------|--------|----------------------------------------|
/// | 0x00   | `TXDATA` | WO     | enqueue a byte for transmission        |
/// | 0x04   | `STATUS` | RO     | bit0 busy, bits\[15:8\] TX FIFO level  |
/// | 0x08   | `CLKDIV` | RW     | cycles per byte (≥1)                   |
/// | 0x0C   | `UDMA_SADDR` | RW | TX µDMA source address in L2           |
/// | 0x10   | `UDMA_SIZE`  | WO | arm TX µDMA with N bytes (starts send) |
///
/// [`Uart::wire_tx_done_event`] pulses when the transmitter fully drains.
/// The TX µDMA channel lets one register write launch a whole message
/// from an L2 buffer — which means a single PELS *sequenced action* can
/// emit a multi-byte alert with the core asleep.
#[derive(Debug, Clone, PartialEq)]
pub struct Uart {
    id: ComponentId,
    tx_fifo: Fifo<u8>,
    clkdiv: u32,
    cycle_in_byte: u32,
    sending: Option<u8>,
    sent: Vec<u8>,
    done_line: Option<u32>,
    activity: ActivityCounter,
    udma: UdmaTxChannel,
    udma_saddr: u32,
    udma_bytes_left: u32,
    udma_word: u32,
    udma_word_bytes: u32,
}

impl Uart {
    /// `TXDATA` byte offset.
    pub const TXDATA: u32 = 0x00;
    /// `STATUS` byte offset.
    pub const STATUS: u32 = 0x04;
    /// `CLKDIV` byte offset.
    pub const CLKDIV: u32 = 0x08;
    /// `UDMA_SADDR` byte offset.
    pub const UDMA_SADDR: u32 = 0x0C;
    /// `UDMA_SIZE` byte offset.
    pub const UDMA_SIZE: u32 = 0x10;

    /// Creates a UART with FIFO depth 16 and 10 cycles per byte (8N1
    /// framing at clk/1).
    pub fn new(name: impl AsRef<str>) -> Self {
        Uart {
            id: ComponentId::intern(name.as_ref()),
            tx_fifo: Fifo::new(16),
            clkdiv: 10,
            cycle_in_byte: 0,
            sending: None,
            sent: Vec::new(),
            done_line: None,
            activity: ActivityCounter::default(),
            udma: UdmaTxChannel::new(),
            udma_saddr: 0,
            udma_bytes_left: 0,
            udma_word: 0,
            udma_word_bytes: 0,
        }
    }

    /// Pulses `line` when the transmitter drains.
    pub fn wire_tx_done_event(&mut self, line: u32) -> &mut Self {
        self.done_line = Some(line);
        self
    }

    /// Whether a byte is on the wire or queued.
    pub fn is_busy(&self) -> bool {
        self.sending.is_some() || !self.tx_fifo.is_empty() || self.udma_bytes_left > 0
    }

    /// Everything transmitted so far (test observation point).
    pub fn sent(&self) -> &[u8] {
        &self.sent
    }
}

impl ApbSlave for Uart {
    fn read(&mut self, offset: u32) -> Result<u32, BusError> {
        self.activity.reads += 1;
        match offset {
            Self::STATUS => {
                Ok(u32::from(self.is_busy()) | ((self.tx_fifo.len() as u32) << 8))
            }
            Self::CLKDIV => Ok(self.clkdiv),
            Self::UDMA_SADDR => Ok(self.udma_saddr),
            _ => Err(BusError::Slave { addr: offset }),
        }
    }

    fn write(&mut self, offset: u32, value: u32) -> Result<(), BusError> {
        self.activity.writes += 1;
        match offset {
            Self::TXDATA => {
                self.tx_fifo
                    .push(value as u8)
                    .map_err(|_| BusError::Slave { addr: offset })
            }
            Self::CLKDIV => {
                if value == 0 {
                    return Err(BusError::Slave { addr: offset });
                }
                self.clkdiv = value;
                Ok(())
            }
            Self::UDMA_SADDR => {
                self.udma_saddr = value;
                Ok(())
            }
            Self::UDMA_SIZE => {
                self.udma.configure(self.udma_saddr, value);
                self.udma_bytes_left = value;
                self.udma_word_bytes = 0;
                Ok(())
            }
            _ => Err(BusError::Slave { addr: offset }),
        }
    }
}

impl Peripheral for Uart {
    fn component(&self) -> ComponentId {
        self.id
    }

    fn tick(&mut self, ctx: &mut PeriphCtx<'_>) {
        // Refill the TX FIFO from the armed µDMA buffer.
        while self.udma_bytes_left > 0 && !self.tx_fifo.is_full() {
            if self.udma_word_bytes == 0 {
                let pulled = self.udma.pull_word(ctx.l2);
                if let Some(addr) = self.udma.take_fault() {
                    ctx.trace
                        .record(ctx.time, self.id, "udma_err", u64::from(addr));
                }
                match pulled {
                    Some(w) => {
                        self.udma_word = w;
                        self.udma_word_bytes = 4;
                    }
                    None => {
                        self.udma_bytes_left = 0;
                        break;
                    }
                }
            }
            let byte = (self.udma_word & 0xFF) as u8;
            self.udma_word >>= 8;
            self.udma_word_bytes -= 1;
            self.udma_bytes_left -= 1;
            let _ = self.tx_fifo.push(byte);
        }
        if self.sending.is_none() {
            self.sending = self.tx_fifo.pop();
        }
        let Some(byte) = self.sending else {
            return;
        };
        self.activity.active_cycles += 1;
        self.cycle_in_byte += 1;
        if self.cycle_in_byte >= self.clkdiv {
            self.sent.push(byte);
            ctx.trace.record(ctx.time, self.id, "tx", u64::from(byte));
            // Reset here rather than on the next pop, so a drained UART
            // holds the same state whether it sleeps or keeps ticking.
            self.sending = None;
            self.cycle_in_byte = 0;
            if self.tx_fifo.is_empty() {
                if let Some(line) = self.done_line {
                    ctx.raise(line, self.id, &mut self.activity, "tx_done");
                }
            }
        }
    }

    fn sleep_plan(&self) -> Option<SleepPlan> {
        // A transmitting UART counts ActiveCycle per cycle; a drained one
        // has no wired inputs and only wakes on a register access.
        (!self.is_busy()).then_some(SleepPlan::until_wire(EventVector::EMPTY))
    }

    fn drain_activity(&mut self, into: &mut impl pels_sim::ActivitySink) {
        self.activity.drain(self.id, into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testctx::Harness;

    #[test]
    fn transmits_bytes_in_order() {
        let mut u = Uart::new("uart");
        u.write(Uart::TXDATA, b'h'.into()).unwrap();
        u.write(Uart::TXDATA, b'i'.into()).unwrap();
        let mut h = Harness::new();
        h.run(&mut u, 20);
        assert_eq!(u.sent(), b"hi");
        assert!(!u.is_busy());
    }

    #[test]
    fn done_event_pulses_when_drained() {
        let mut u = Uart::new("uart");
        u.wire_tx_done_event(8);
        u.write(Uart::TXDATA, 0x55).unwrap();
        let mut h = Harness::new();
        let out = h.run(&mut u, 10);
        assert!(out.is_set(8));
    }

    #[test]
    fn byte_takes_clkdiv_cycles() {
        let mut u = Uart::new("uart");
        u.write(Uart::CLKDIV, 4).unwrap();
        u.write(Uart::TXDATA, 1).unwrap();
        let mut h = Harness::new();
        h.run(&mut u, 3);
        assert!(u.is_busy());
        h.run(&mut u, 1);
        assert!(!u.is_busy());
    }

    #[test]
    fn full_fifo_rejects_write() {
        let mut u = Uart::new("uart");
        for i in 0..16 {
            u.write(Uart::TXDATA, i).unwrap();
        }
        assert!(u.write(Uart::TXDATA, 99).is_err());
    }

    #[test]
    fn udma_transmits_message_from_l2() {
        let mut u = Uart::new("uart");
        u.wire_tx_done_event(8);
        u.write(Uart::CLKDIV, 2).unwrap();
        let mut h = Harness::new();
        // "hello" packed little-endian into L2 at 0x20.
        h.l2.load(0x20, &[u32::from_le_bytes(*b"hell"), u32::from_le_bytes([b'o', 0, 0, 0])]);
        u.write(Uart::UDMA_SADDR, 0x20).unwrap();
        u.write(Uart::UDMA_SIZE, 5).unwrap(); // exact byte count
        let out = h.run(&mut u, 5 * 2 + 4);
        assert_eq!(u.sent(), b"hello");
        assert!(out.is_set(8), "done event after the message drains");
        assert!(!u.is_busy());
    }

    #[test]
    fn out_of_range_udma_source_sends_zeros_and_traces() {
        // Harness L2 is 4 KiB: the second word lies past its end.
        let mut u = Uart::new("uart");
        u.write(Uart::CLKDIV, 1).unwrap();
        let mut h = Harness::new();
        h.l2.load(0xFFC, &[u32::from_le_bytes(*b"wxyz")]);
        u.write(Uart::UDMA_SADDR, 0xFFC).unwrap();
        u.write(Uart::UDMA_SIZE, 6).unwrap();
        h.run(&mut u, 12);
        assert_eq!(u.sent(), b"wxyz\0\0");
        let errs: Vec<u64> = h
            .trace
            .entries()
            .iter()
            .filter(|e| e.label == "udma_err")
            .map(|e| e.value)
            .collect();
        assert_eq!(errs, [0x1000]);
    }

    #[test]
    fn udma_message_interleaves_with_register_bytes() {
        let mut u = Uart::new("uart");
        u.write(Uart::CLKDIV, 1).unwrap();
        let mut h = Harness::new();
        h.l2.load(0, &[u32::from_le_bytes(*b"ab\0\0")]);
        u.write(Uart::UDMA_SADDR, 0).unwrap();
        u.write(Uart::UDMA_SIZE, 2).unwrap();
        h.run(&mut u, 4);
        u.write(Uart::TXDATA, b'c'.into()).unwrap();
        h.run(&mut u, 4);
        assert_eq!(u.sent(), b"abc");
    }

    #[test]
    fn status_reports_level() {
        let mut u = Uart::new("uart");
        u.write(Uart::TXDATA, 1).unwrap();
        u.write(Uart::TXDATA, 2).unwrap();
        let st = u.read(Uart::STATUS).unwrap();
        assert_eq!(st & 1, 1);
        assert_eq!((st >> 8) & 0xFF, 2);
    }
}
