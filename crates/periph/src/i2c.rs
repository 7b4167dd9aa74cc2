//! I2C master.
//!
//! PULPissimo's µDMA peripheral set includes an I2C master; it rounds
//! out this SoC's serial I/O next to the SPI front-end and gives the
//! examples a second, slower sensor path (I2C transactions cost tens of
//! cycles — exactly the kind of peripheral interaction worth offloading
//! from the core).
//!
//! The model executes whole transactions (START + address + N data
//! bytes + STOP) against an attached [`SensorDevice`], with a per-bit
//! cycle cost, ACK/NACK handling and completion/error event pulses.

use crate::sensor::Quantizer;
use crate::traits::{wake_mask_of, PeriphCtx, Peripheral, SleepPlan};
use pels_interconnect::{ApbSlave, BusError};
use pels_sim::{ActivityCounter, ComponentId, Fifo, SimTime, PeriodVisitor, Periodic};

/// An I2C temperature-sensor-style device: writes select nothing, reads
/// return the quantized sample, high byte first (big-endian, like most
/// I2C sensors).
#[derive(Debug, Clone, PartialEq)]
pub struct SensorDevice {
    address: u8,
    quantizer: Quantizer,
    pending: Option<u8>,
}

impl SensorDevice {
    /// Creates a sensor at `address` digitizing `quantizer`.
    ///
    /// # Panics
    ///
    /// Panics if `address` is not a valid 7-bit address.
    pub fn new(address: u8, quantizer: Quantizer) -> Self {
        assert!(address < 0x80, "i2c addresses are 7 bits");
        SensorDevice {
            address,
            quantizer,
            pending: None,
        }
    }

    /// Produces the next read byte.
    fn read_byte(&mut self, time: SimTime) -> u8 {
        match self.pending.take() {
            Some(low) => low,
            None => {
                let sample = self.quantizer.convert(time);
                self.pending = Some((sample & 0xFF) as u8);
                ((sample >> 8) & 0xFF) as u8
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read,
    Write,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Transaction {
    op: Op,
    bytes: u8,
}

/// The I2C master peripheral.
///
/// ## Register map (byte offsets)
///
/// | offset | name     | access | function                                   |
/// |-------:|----------|--------|--------------------------------------------|
/// | 0x00   | `STATUS` | RO     | bit0 busy, bit1 nack, bits\[15:8\] RX level |
/// | 0x04   | `CMD`    | WO     | bits\[6:0\] address, bit7 read, bits\[15:8\] byte count: starts a transaction |
/// | 0x08   | `TXDATA` | WO     | enqueue a byte for the next write           |
/// | 0x0C   | `RXDATA` | RO     | pop received byte (0 when empty)            |
/// | 0x10   | `CLKDIV` | RW     | bus-clock cycles per I2C bit (≥1)           |
/// | 0x14   | `LAST16` | RO     | last two received bytes, big-endian (no side effect) |
///
/// `LAST16` plays the role SPI's `LAST` does: a PELS `capture` can read
/// the most recent big-endian sample without disturbing the FIFO.
///
/// ## Event wiring
///
/// * [`I2c::wire_done_event`] — pulses when a transaction completes;
/// * [`I2c::wire_nack_event`] — pulses when the address is not
///   acknowledged;
/// * [`I2c::wire_start_action`] — an incoming pulse repeats the last
///   `CMD` transaction (instant-action start).
#[derive(Debug, Clone, PartialEq)]
pub struct I2c {
    id: ComponentId,
    devices: Vec<SensorDevice>,
    clkdiv: u32,
    current: Option<Transaction>,
    bits_left: u32,
    cycle_in_bit: u32,
    bytes_left: u8,
    target: Option<usize>,
    last_cmd: u32,
    tx_fifo: Fifo<u8>,
    rx_fifo: Fifo<u8>,
    last16: u16,
    nack: bool,
    done_line: Option<u32>,
    nack_line: Option<u32>,
    start_line: Option<u32>,
    activity: ActivityCounter,
    transactions: u64,
}

/// Bits on the wire per byte: 8 data + ACK.
const BITS_PER_BYTE: u32 = 9;
/// Bit-times charged for START + address byte + ACK.
const ADDRESS_BITS: u32 = 1 + 9;
/// Bit-times charged for STOP.
const STOP_BITS: u32 = 1;

impl Periodic for I2c {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        for d in &mut self.devices {
            d.quantizer.visit_period(v);
        }
        self.tx_fifo.visit_period(v);
        self.rx_fifo.visit_period(v);
        self.activity.visit_period(v);
        v.counter(&mut self.transactions);
    }
}

impl I2c {
    /// `STATUS` byte offset.
    pub const STATUS: u32 = 0x00;
    /// `CMD` byte offset.
    pub const CMD: u32 = 0x04;
    /// `TXDATA` byte offset.
    pub const TXDATA: u32 = 0x08;
    /// `RXDATA` byte offset.
    pub const RXDATA: u32 = 0x0C;
    /// `CLKDIV` byte offset.
    pub const CLKDIV: u32 = 0x10;
    /// `LAST16` byte offset.
    pub const LAST16: u32 = 0x14;

    /// `CMD` read flag (bit 7).
    pub const CMD_READ: u32 = 1 << 7;

    /// Creates a master with no devices, 4 cycles per bit.
    pub fn new(name: impl Into<ComponentId>) -> Self {
        I2c {
            id: name.into(),
            devices: Vec::new(),
            clkdiv: 4,
            current: None,
            bits_left: 0,
            cycle_in_bit: 0,
            bytes_left: 0,
            target: None,
            last_cmd: 0,
            tx_fifo: Fifo::new(8),
            rx_fifo: Fifo::new(8),
            last16: 0,
            nack: false,
            done_line: None,
            nack_line: None,
            start_line: None,
            activity: ActivityCounter::default(),
            transactions: 0,
        }
    }

    /// Attaches a device to the bus.
    pub fn attach(&mut self, device: SensorDevice) -> &mut Self {
        self.devices.push(device);
        self
    }

    /// Pulses `line` on transaction completion.
    pub fn wire_done_event(&mut self, line: u32) -> &mut Self {
        self.done_line = Some(line);
        self
    }

    /// Pulses `line` on an unacknowledged address.
    pub fn wire_nack_event(&mut self, line: u32) -> &mut Self {
        self.nack_line = Some(line);
        self
    }

    /// Repeats the last `CMD` transaction when `line` pulses.
    pub fn wire_start_action(&mut self, line: u32) -> &mut Self {
        self.start_line = Some(line);
        self
    }

    /// Whether a transaction is on the wire.
    pub fn is_busy(&self) -> bool {
        self.current.is_some()
    }

    /// Completed transactions.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// The last two received bytes, big-endian.
    pub fn last16(&self) -> u16 {
        self.last16
    }

    /// Presets the transaction repeated by the start action line without
    /// issuing it (bus-less configuration convenience, like
    /// [`crate::Spi::set_default_len`]).
    pub fn set_default_cmd(&mut self, cmd: u32) -> &mut Self {
        self.last_cmd = cmd;
        self
    }

    fn start(&mut self, cmd: u32) {
        if self.is_busy() {
            return;
        }
        let address = (cmd & 0x7F) as u8;
        let bytes = ((cmd >> 8) & 0xFF) as u8;
        if bytes == 0 {
            return;
        }
        let op = if cmd & Self::CMD_READ != 0 {
            Op::Read
        } else {
            Op::Write
        };
        self.last_cmd = cmd;
        self.target = self.devices.iter().position(|d| d.address == address);
        self.nack = self.target.is_none();
        self.current = Some(Transaction { op, bytes });
        self.bytes_left = bytes;
        // The address phase runs even when nobody ACKs (that is how the
        // master discovers the NACK).
        self.bits_left = ADDRESS_BITS
            + if self.nack {
                STOP_BITS
            } else {
                u32::from(bytes) * BITS_PER_BYTE + STOP_BITS
            };
        self.cycle_in_bit = 0;
    }
}

impl ApbSlave for I2c {
    fn read(&mut self, offset: u32) -> Result<u32, BusError> {
        self.activity.reads += 1;
        match offset {
            Self::STATUS => Ok(u32::from(self.is_busy())
                | (u32::from(self.nack) << 1)
                | ((self.rx_fifo.len() as u32) << 8)),
            Self::RXDATA => Ok(u32::from(self.rx_fifo.pop().unwrap_or(0))),
            Self::CLKDIV => Ok(self.clkdiv),
            Self::LAST16 => Ok(u32::from(self.last16)),
            _ => Err(BusError::Slave { addr: offset }),
        }
    }

    fn write(&mut self, offset: u32, value: u32) -> Result<(), BusError> {
        self.activity.writes += 1;
        match offset {
            Self::CMD => {
                self.start(value);
                Ok(())
            }
            Self::TXDATA => self
                .tx_fifo
                .push(value as u8)
                .map_err(|_| BusError::Slave { addr: offset }),
            Self::CLKDIV => {
                if value == 0 {
                    return Err(BusError::Slave { addr: offset });
                }
                self.clkdiv = value;
                Ok(())
            }
            _ => Err(BusError::Slave { addr: offset }),
        }
    }
}

impl Peripheral for I2c {
    fn component(&self) -> ComponentId {
        self.id
    }

    fn tick(&mut self, ctx: &mut PeriphCtx<'_>) {
        if ctx.wired_high(self.start_line) && self.last_cmd != 0 {
            self.start(self.last_cmd);
        }
        let Some(txn) = self.current else {
            return;
        };
        self.activity.active_cycles += 1;
        self.cycle_in_bit += 1;
        if self.cycle_in_bit < self.clkdiv {
            return;
        }
        self.cycle_in_bit = 0;
        self.bits_left -= 1;

        // A data byte completes every BITS_PER_BYTE bit-times after the
        // address phase (while bits for data remain).
        let data_bits_left = self.bits_left.saturating_sub(STOP_BITS);
        let in_data_phase = !self.nack
            && self.bits_left >= STOP_BITS
            && data_bits_left < u32::from(txn.bytes) * BITS_PER_BYTE;
        if in_data_phase && data_bits_left.is_multiple_of(BITS_PER_BYTE) && self.bytes_left > 0
        {
            let device = self
                .target
                .expect("data phase only entered with an acked target");
            match txn.op {
                Op::Read => {
                    let byte = self.devices[device].read_byte(ctx.time);
                    self.last16 = (self.last16 << 8) | u16::from(byte);
                    let _ = self.rx_fifo.push(byte);
                }
                // Sensors ignore written bytes (no register pointer).
                Op::Write => {
                    let _ = self.tx_fifo.pop();
                }
            }
            self.bytes_left -= 1;
        }

        if self.bits_left == 0 {
            self.current = None;
            self.transactions += 1;
            if self.nack {
                if let Some(line) = self.nack_line {
                    ctx.raise(line, self.id, &mut self.activity, "nack");
                }
            } else if let Some(line) = self.done_line {
                ctx.raise(line, self.id, &mut self.activity, "done");
            }
        }
    }

    fn sleep_plan(&self) -> Option<SleepPlan> {
        // Bit-banging a transaction counts ActiveCycle each cycle, so a
        // busy master stays awake; an idle one waits for its start line
        // or a CMD write.
        (!self.is_busy()).then(|| SleepPlan::until_wire(wake_mask_of(&[self.start_line])))
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
    use pels_sim::EventVector;

    fn master_with_sensor() -> I2c {
        let q = SensorKind::Constant(3.3).quantizer();
        let mut m = I2c::new("i2c");
        m.attach(SensorDevice::new(0x48, q));
        m.wire_done_event(7).wire_nack_event(8);
        m.write(I2c::CLKDIV, 1).unwrap();
        m
    }

    fn read_cmd(addr: u8, bytes: u8) -> u32 {
        u32::from(addr) | I2c::CMD_READ | (u32::from(bytes) << 8)
    }

    #[test]
    fn read_transaction_delivers_big_endian_sample() {
        let mut m = master_with_sensor();
        m.write(I2c::CMD, read_cmd(0x48, 2)).unwrap();
        assert!(m.is_busy());
        let mut h = Harness::new();
        // 10 addr bits + 18 data bits + 1 stop = 29 bit-times at clkdiv 1.
        let out = h.run(&mut m, 29);
        assert!(out.is_set(7), "done event");
        assert!(!m.is_busy());
        assert_eq!(m.last16(), 4095, "full-scale 12-bit sample");
        assert_eq!(m.read(I2c::RXDATA).unwrap(), 0x0F); // high byte
        assert_eq!(m.read(I2c::RXDATA).unwrap(), 0xFF); // low byte
    }

    #[test]
    fn unknown_address_nacks() {
        let mut m = master_with_sensor();
        m.write(I2c::CMD, read_cmd(0x10, 2)).unwrap();
        let mut h = Harness::new();
        let out = h.run(&mut m, 11); // addr phase + stop
        assert!(out.is_set(8), "nack event");
        assert!(!out.is_set(7));
        assert_eq!(m.read(I2c::STATUS).unwrap() & 0b10, 0b10, "nack flag");
        assert_eq!(m.rx_fifo.len(), 0);
    }

    #[test]
    fn clkdiv_scales_transaction_time() {
        let mut m = master_with_sensor();
        m.write(I2c::CLKDIV, 4).unwrap();
        m.write(I2c::CMD, read_cmd(0x48, 1)).unwrap();
        let mut h = Harness::new();
        // (10 + 9 + 1) bit-times x 4 cycles = 80.
        h.run(&mut m, 79);
        assert!(m.is_busy());
        let out = h.run(&mut m, 1);
        assert!(out.is_set(7));
    }

    #[test]
    fn write_transaction_consumes_tx_fifo() {
        let mut m = master_with_sensor();
        m.write(I2c::TXDATA, 0xAA).unwrap();
        m.write(I2c::TXDATA, 0x55).unwrap();
        m.write(I2c::CMD, 0x48 | (2 << 8)).unwrap();
        let mut h = Harness::new();
        let out = h.run(&mut m, 29);
        assert!(out.is_set(7), "done event");
        assert_eq!(m.transactions(), 1);
        assert_eq!(m.tx_fifo.len(), 0, "both bytes consumed");
    }

    #[test]
    fn action_line_repeats_last_command() {
        let mut m = master_with_sensor();
        m.wire_start_action(3);
        m.set_default_cmd(read_cmd(0x48, 1));
        let mut h = Harness::new();
        h.tick(&mut m, EventVector::mask_of(&[3]));
        assert!(m.is_busy());
        let out = h.run(&mut m, 25);
        assert!(out.is_set(7));
        assert_eq!(m.transactions(), 1);
    }

    #[test]
    fn zero_byte_command_ignored() {
        let mut m = master_with_sensor();
        m.write(I2c::CMD, 0x48).unwrap(); // 0 bytes
        assert!(!m.is_busy());
    }

    #[test]
    fn status_reflects_rx_level() {
        let mut m = master_with_sensor();
        m.write(I2c::CMD, read_cmd(0x48, 2)).unwrap();
        let mut h = Harness::new();
        h.run(&mut m, 29);
        let st = m.read(I2c::STATUS).unwrap();
        assert_eq!((st >> 8) & 0xFF, 2);
        assert_eq!(st & 1, 0);
    }
}
