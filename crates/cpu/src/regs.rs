//! The integer register file.

use pels_sim::{PeriodVisitor, Periodic};
use std::fmt;

/// The 32 RV32 integer registers; `x0` is hardwired to zero.
///
/// ```
/// use pels_cpu::RegFile;
/// let mut r = RegFile::new();
/// r.set(5, 99);
/// assert_eq!(r.get(5), 99);
/// r.set(0, 1); // writes to x0 are discarded
/// assert_eq!(r.get(0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    x: [u32; 32],
    reads: u64,
    writes: u64,
}

impl Default for RegFile {
    fn default() -> Self {
        Self::new()
    }
}

/// The access counts are counters; the registers repeat.
impl Periodic for RegFile {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        v.counter(&mut self.reads);
        v.counter(&mut self.writes);
    }
}

impl RegFile {
    /// Creates a zeroed register file.
    pub fn new() -> Self {
        RegFile {
            x: [0; 32],
            reads: 0,
            writes: 0,
        }
    }

    /// Reads register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 32`.
    pub fn get(&self, r: u8) -> u32 {
        self.x[r as usize]
    }

    /// Reads register `r`, counting a register-file port access.
    pub fn read(&mut self, r: u8) -> u32 {
        self.reads += 1;
        self.x[r as usize]
    }

    /// Writes register `r` (ignored for `x0`), counting a port access.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 32`.
    pub fn set(&mut self, r: u8, value: u32) {
        self.writes += 1;
        if r != 0 {
            self.x[r as usize] = value;
        }
    }

    /// Takes and clears both port counters.
    pub fn take_port_counts(&mut self) -> (u64, u64) {
        let out = (self.reads, self.writes);
        self.reads = 0;
        self.writes = 0;
        out
    }
}

impl fmt::Display for RegFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.x.iter().enumerate() {
            writeln!(f, "x{i:<2} = {v:#010x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_is_hardwired_zero() {
        let mut r = RegFile::new();
        r.set(0, 0xFFFF_FFFF);
        assert_eq!(r.get(0), 0);
    }

    #[test]
    fn all_other_registers_hold_values() {
        let mut r = RegFile::new();
        for i in 1..32u8 {
            r.set(i, u32::from(i) * 3);
        }
        for i in 1..32u8 {
            assert_eq!(r.get(i), u32::from(i) * 3);
        }
    }

    #[test]
    fn port_counters_track_accesses() {
        let mut r = RegFile::new();
        let _ = r.read(1);
        let _ = r.read(2);
        r.set(3, 1);
        assert_eq!(r.take_port_counts(), (2, 1));
        assert_eq!(r.take_port_counts(), (0, 0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_register_panics() {
        let r = RegFile::new();
        let _ = r.get(32);
    }
}
