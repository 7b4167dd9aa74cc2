//! The CPU ↔ platform memory interface.
//!
//! Ibex in PULPissimo sees two timing classes of memory: the tightly
//! coupled L2 SRAM (instruction fetches, data — fixed short latency) and
//! the APB peripheral space (variable latency: arbitration + wait states).
//! [`CpuBus`] exposes exactly that split: [`CpuBus::data`] either
//! completes immediately with a known extra cost ([`DataResult::Done`]) or
//! goes [`DataResult::Pending`] and finishes asynchronously through
//! [`CpuBus::poll`] while the pipeline stalls.

/// A data-side memory request (always a 32-bit word transaction; the core
/// performs sub-word extraction/merging itself, like Ibex's LSU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataReq {
    /// Word-aligned byte address.
    pub addr: u32,
    /// Write (vs read).
    pub write: bool,
    /// Write data (full word; pre-merged by the core).
    pub wdata: u32,
    /// Byte-lane strobe for writes (`0b1111` = full word).
    pub strobe: u8,
}

impl DataReq {
    /// A full-word read.
    pub fn read(addr: u32) -> Self {
        DataReq {
            addr,
            write: false,
            wdata: 0,
            strobe: 0,
        }
    }

    /// A write of the byte lanes selected by `strobe`.
    pub fn write(addr: u32, wdata: u32, strobe: u8) -> Self {
        DataReq {
            addr,
            write: true,
            wdata,
            strobe,
        }
    }
}

/// Outcome of issuing a [`DataReq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataResult {
    /// Completed in this cycle with `extra_cycles` of additional stall
    /// beyond the base load/store cost (L2 path).
    Done {
        /// Read data (0 for writes).
        value: u32,
        /// Extra stall cycles (e.g. SRAM banking conflicts).
        extra_cycles: u32,
    },
    /// Issued to the peripheral interconnect; the result arrives via
    /// [`CpuBus::poll`] some cycles later.
    Pending,
    /// The address decodes nowhere or the slave rejected the access.
    Fault,
}

/// The platform seen by the core.
pub trait CpuBus {
    /// Fetches the instruction word at `addr`. Single-cycle issue; the
    /// implementation charges fetch activity to the memory it reads.
    fn fetch(&mut self, addr: u32) -> u32;

    /// Issues a data access.
    fn data(&mut self, req: DataReq) -> DataResult;

    /// Polls for the completion of a [`DataResult::Pending`] access:
    /// `None` while in flight, then `Some(Ok(rdata))` or `Some(Err(()))`
    /// on a bus error.
    fn poll(&mut self) -> Option<Result<u32, ()>>;
}

/// A flat-memory bus for unit tests and self-contained examples: every
/// access is an L2-class access with zero extra cycles, except an optional
/// "slow region" which exercises the pending path.
#[derive(Debug, Clone)]
pub struct SimpleBus {
    words: Vec<u32>,
    slow_base: u32,
    slow_size: u32,
    slow_latency: u32,
    pending: Option<(DataReq, u32)>,
    /// Instruction fetches issued.
    pub fetches: u64,
    /// Data reads issued.
    pub reads: u64,
    /// Data writes issued.
    pub writes: u64,
}

impl SimpleBus {
    /// Creates a bus backed by `size_bytes` of zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero.
    pub fn new(size_bytes: u32) -> Self {
        assert!(size_bytes > 0, "memory must have non-zero size");
        SimpleBus {
            words: vec![0; (size_bytes as usize).div_ceil(4)],
            slow_base: u32::MAX,
            slow_size: 0,
            slow_latency: 0,
            pending: None,
            fetches: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Declares `[base, base+size)` as a slow region answering after
    /// `latency` polls — a stand-in for the APB path.
    pub fn set_slow_region(&mut self, base: u32, size: u32, latency: u32) {
        self.slow_base = base;
        self.slow_size = size;
        self.slow_latency = latency;
    }

    /// Loads `words` at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit.
    pub fn load(&mut self, addr: u32, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            let idx = (addr / 4) as usize + i;
            self.words[idx] = w;
        }
    }

    /// Direct word view for assertions.
    pub fn word(&self, addr: u32) -> u32 {
        self.words[(addr / 4) as usize]
    }

    fn in_slow(&self, addr: u32) -> bool {
        self.slow_size > 0 && addr >= self.slow_base && addr - self.slow_base < self.slow_size
    }

    fn access(&mut self, req: DataReq) -> Result<u32, ()> {
        let idx = (req.addr / 4) as usize;
        if idx >= self.words.len() {
            return Err(());
        }
        if req.write {
            self.writes += 1;
            let mut w = self.words[idx];
            for lane in 0..4 {
                if req.strobe & (1 << lane) != 0 {
                    let mask = 0xFFu32 << (lane * 8);
                    w = (w & !mask) | (req.wdata & mask);
                }
            }
            self.words[idx] = w;
            Ok(0)
        } else {
            self.reads += 1;
            Ok(self.words[idx])
        }
    }
}

impl CpuBus for SimpleBus {
    fn fetch(&mut self, addr: u32) -> u32 {
        self.fetches += 1;
        self.words
            .get((addr / 4) as usize)
            .copied()
            .unwrap_or(0)
    }

    fn data(&mut self, req: DataReq) -> DataResult {
        if self.in_slow(req.addr) {
            self.pending = Some((req, self.slow_latency));
            return DataResult::Pending;
        }
        match self.access(req) {
            Ok(value) => DataResult::Done {
                value,
                extra_cycles: 0,
            },
            Err(()) => DataResult::Fault,
        }
    }

    fn poll(&mut self) -> Option<Result<u32, ()>> {
        let (req, remaining) = self.pending.take()?;
        if remaining > 0 {
            self.pending = Some((req, remaining - 1));
            return None;
        }
        Some(self.access(req).map_err(|_| ()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strobe_merges_byte_lanes() {
        let mut b = SimpleBus::new(64);
        b.load(0, &[0xAABB_CCDD]);
        let r = b.data(DataReq::write(0, 0x1122_3344, 0b0101));
        assert!(matches!(r, DataResult::Done { .. }));
        assert_eq!(b.word(0), 0xAA22_CC44);
    }

    #[test]
    fn out_of_range_faults() {
        let mut b = SimpleBus::new(16);
        assert_eq!(b.data(DataReq::read(64)), DataResult::Fault);
    }

    #[test]
    fn slow_region_goes_pending_then_completes() {
        let mut b = SimpleBus::new(64);
        b.load(32, &[7]);
        b.set_slow_region(32, 4, 2);
        assert_eq!(b.data(DataReq::read(32)), DataResult::Pending);
        assert_eq!(b.poll(), None);
        assert_eq!(b.poll(), None);
        assert_eq!(b.poll(), Some(Ok(7)));
        assert_eq!(b.poll(), None, "pending consumed");
    }

    #[test]
    fn counters_track_traffic() {
        let mut b = SimpleBus::new(64);
        let _ = b.fetch(0);
        let _ = b.data(DataReq::read(0));
        let _ = b.data(DataReq::write(4, 1, 0xF));
        assert_eq!((b.fetches, b.reads, b.writes), (1, 1, 1));
    }
}
