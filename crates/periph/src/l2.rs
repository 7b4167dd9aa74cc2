//! L2 scratchpad memory.
//!
//! PULPissimo's 192 KiB interleaved L2 SRAM holds code and data; the Ibex
//! core fetches from it every cycle and the µDMA lands peripheral data in
//! it. Its access energy is the power-hungry path the paper's Section I
//! singles out — the activity counted here drives the `3.7×`/`4.3×`
//! memory-system power gap of Figure 5.

use pels_sim::{ActivityKind, ActivitySet};

/// A word-addressed SRAM with access accounting.
///
/// Byte addresses are relative to the memory's own base (the SoC handles
/// mapping). Sub-word accesses are modelled at word granularity, which is
/// what the energy accounting needs.
///
/// ```
/// use pels_periph::L2Memory;
/// let mut l2 = L2Memory::new(192 * 1024); // paper's configuration
/// l2.write_word(0x100, 42);
/// assert_eq!(l2.read_word(0x100), 42);
/// ```
#[derive(Debug, Clone)]
pub struct L2Memory {
    words: Vec<u32>,
    reads: u64,
    writes: u64,
}

impl L2Memory {
    /// Creates a zeroed memory of `size_bytes` (rounded up to a word).
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero.
    pub fn new(size_bytes: u32) -> Self {
        assert!(size_bytes > 0, "memory must have non-zero size");
        L2Memory {
            words: vec![0; (size_bytes as usize).div_ceil(4)],
            reads: 0,
            writes: 0,
        }
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    /// Whether byte offset `addr` lies inside the memory.
    pub fn contains(&self, addr: u32) -> bool {
        ((addr / 4) as usize) < self.words.len()
    }

    /// Reads the word containing byte offset `addr`, counting one SRAM
    /// read.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the memory.
    pub fn read_word(&mut self, addr: u32) -> u32 {
        self.reads += 1;
        self.words[self.word_index(addr)]
    }

    /// Writes the word containing byte offset `addr`, counting one SRAM
    /// write.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the memory.
    pub fn write_word(&mut self, addr: u32, value: u32) {
        self.writes += 1;
        let i = self.word_index(addr);
        self.words[i] = value;
    }

    /// Reads without counting activity — for loaders and test assertions,
    /// not for modelled traffic.
    pub fn peek_word(&self, addr: u32) -> u32 {
        self.words[self.word_index(addr)]
    }

    /// Writes without counting activity — for program loading.
    pub fn poke_word(&mut self, addr: u32, value: u32) {
        let i = self.word_index(addr);
        self.words[i] = value;
    }

    /// Loads a slice of words starting at byte offset `addr` (no activity).
    ///
    /// # Panics
    ///
    /// Panics if the slice does not fit.
    pub fn load(&mut self, addr: u32, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            self.poke_word(addr + (i as u32) * 4, w);
        }
    }

    /// Counted read accesses so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Counted write accesses so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Drains access counts into `into` under component name `sram`.
    pub fn drain_activity(&mut self, into: &mut ActivitySet) {
        into.record_named("sram", ActivityKind::SramRead, self.reads);
        into.record_named("sram", ActivityKind::SramWrite, self.writes);
        self.reads = 0;
        self.writes = 0;
    }

    fn word_index(&self, addr: u32) -> usize {
        let i = (addr / 4) as usize;
        assert!(
            i < self.words.len(),
            "L2 access at {addr:#x} outside {} bytes",
            self.size_bytes()
        );
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_counts() {
        let mut l2 = L2Memory::new(64);
        l2.write_word(0, 0xAA);
        l2.write_word(60, 0xBB);
        assert_eq!(l2.read_word(0), 0xAA);
        assert_eq!(l2.read_word(60), 0xBB);
        assert_eq!((l2.reads(), l2.writes()), (2, 2));
    }

    #[test]
    fn peek_poke_do_not_count() {
        let mut l2 = L2Memory::new(64);
        l2.poke_word(4, 9);
        assert_eq!(l2.peek_word(4), 9);
        assert_eq!((l2.reads(), l2.writes()), (0, 0));
    }

    #[test]
    fn load_places_program() {
        let mut l2 = L2Memory::new(64);
        l2.load(8, &[1, 2, 3]);
        assert_eq!(l2.peek_word(8), 1);
        assert_eq!(l2.peek_word(12), 2);
        assert_eq!(l2.peek_word(16), 3);
    }

    #[test]
    fn sub_word_addresses_hit_containing_word() {
        let mut l2 = L2Memory::new(64);
        l2.write_word(5, 7); // within word 1
        assert_eq!(l2.peek_word(4), 7);
    }

    #[test]
    fn drain_activity_resets() {
        let mut l2 = L2Memory::new(64);
        l2.write_word(0, 1);
        l2.read_word(0);
        let mut a = ActivitySet::new();
        l2.drain_activity(&mut a);
        assert_eq!(a.count("sram", ActivityKind::SramRead), 1);
        assert_eq!(a.count("sram", ActivityKind::SramWrite), 1);
        assert_eq!(l2.reads(), 0);
    }

    #[test]
    fn contains_matches_the_size() {
        let l2 = L2Memory::new(16);
        assert!(l2.contains(0) && l2.contains(15));
        assert!(!l2.contains(16) && !l2.contains(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_panics() {
        let mut l2 = L2Memory::new(16);
        let _ = l2.read_word(16);
    }
}
