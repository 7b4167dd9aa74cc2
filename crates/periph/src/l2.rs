//! L2 scratchpad memory.
//!
//! PULPissimo's 192 KiB interleaved L2 SRAM holds code and data; the Ibex
//! core fetches from it every cycle and the µDMA lands peripheral data in
//! it. Its access energy is the power-hungry path the paper's Section I
//! singles out — the activity counted here drives the `3.7×`/`4.3×`
//! memory-system power gap of Figure 5.

use pels_sim::{ActivityKind, ActivitySink, ComponentId, PeriodVisitor, Periodic};

/// Words per page: memory is allocated in 4 KiB pages.
const PAGE_WORDS: usize = 1024;

/// One 4 KiB page of words.
type Page = Box<[u32; PAGE_WORDS]>;

/// A word-addressed SRAM with access accounting.
///
/// Byte addresses are relative to the memory's own base (the SoC handles
/// mapping). Sub-word accesses are modelled at word granularity, which is
/// what the energy accounting needs.
///
/// Storage is paged: a 4 KiB page is allocated on its first write, and a
/// page never written reads as zeros. A run touches a few pages (code,
/// stack, DMA buffers) of the 192 KiB, so building, cloning and comparing
/// a memory cost only those. Equality is architectural: an absent page
/// equals an all-zero one.
///
/// ```
/// use pels_periph::L2Memory;
/// let mut l2 = L2Memory::new(192 * 1024); // paper's configuration
/// l2.write_word(0x100, 42);
/// assert_eq!(l2.read_word(0x100), 42);
/// ```
#[derive(Debug, Clone)]
pub struct L2Memory {
    /// Pages in address order; `None` until first written.
    pages: Vec<Option<Page>>,
    /// Size in words.
    words: usize,
    reads: u64,
    writes: u64,
    /// The interned `sram` name the accesses drain under.
    id: ComponentId,
}

impl PartialEq for L2Memory {
    fn eq(&self, other: &Self) -> bool {
        let zero = |p: &Page| p.iter().all(|&w| w == 0);
        (self.words, self.reads, self.writes, self.id)
            == (other.words, other.reads, other.writes, other.id)
            && self.pages.iter().zip(&other.pages).all(|pair| match pair {
                (Some(a), Some(b)) => a == b,
                (Some(p), None) | (None, Some(p)) => zero(p),
                (None, None) => true,
            })
    }
}

/// The access counts are counters; the contents repeat.
impl Periodic for L2Memory {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        v.counter(&mut self.reads);
        v.counter(&mut self.writes);
    }
}

impl L2Memory {
    /// Creates a zeroed memory of `size_bytes` (rounded up to a word).
    /// No page is allocated until it is written.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero.
    pub fn new(size_bytes: u32) -> Self {
        assert!(size_bytes > 0, "memory must have non-zero size");
        let words = (size_bytes as usize).div_ceil(4);
        L2Memory {
            pages: vec![None; words.div_ceil(PAGE_WORDS)],
            words,
            reads: 0,
            writes: 0,
            id: {
                static SRAM: pels_sim::intern::FixedName = pels_sim::intern::FixedName::new("sram");
                SRAM.id()
            },
        }
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> u32 {
        (self.words * 4) as u32
    }

    /// Whether byte offset `addr` lies inside the memory.
    pub fn contains(&self, addr: u32) -> bool {
        ((addr / 4) as usize) < self.words
    }

    /// Reads the word containing byte offset `addr`, counting one SRAM
    /// read.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the memory.
    pub fn read_word(&mut self, addr: u32) -> u32 {
        self.reads += 1;
        self.peek_word(addr)
    }

    /// Writes the word containing byte offset `addr`, counting one SRAM
    /// write.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the memory.
    pub fn write_word(&mut self, addr: u32, value: u32) {
        self.writes += 1;
        self.poke_word(addr, value);
    }

    /// Reads without counting activity — for loaders and test assertions,
    /// not for modelled traffic.
    pub fn peek_word(&self, addr: u32) -> u32 {
        let i = self.word_index(addr);
        self.pages[i / PAGE_WORDS]
            .as_ref()
            .map_or(0, |p| p[i % PAGE_WORDS])
    }

    /// Writes without counting activity — for program loading.
    pub fn poke_word(&mut self, addr: u32, value: u32) {
        let i = self.word_index(addr);
        let page = self.pages[i / PAGE_WORDS].get_or_insert_with(|| Box::new([0; PAGE_WORDS]));
        page[i % PAGE_WORDS] = value;
    }

    /// Number of pages allocated so far.
    #[cfg(test)]
    fn pages_allocated(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
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
    pub fn drain_activity(&mut self, into: &mut impl ActivitySink) {
        into.record(self.id, ActivityKind::SramRead, self.reads);
        into.record(self.id, ActivityKind::SramWrite, self.writes);
        self.reads = 0;
        self.writes = 0;
    }

    fn word_index(&self, addr: u32) -> usize {
        let i = (addr / 4) as usize;
        assert!(
            i < self.words,
            "L2 access at {addr:#x} outside {} bytes",
            self.size_bytes()
        );
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_sim::ActivitySet;

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
    fn pages_are_allocated_on_first_write_only() {
        let mut l2 = L2Memory::new(192 * 1024);
        assert_eq!(l2.pages_allocated(), 0);
        // Reads, of any page, allocate nothing and count as accesses.
        assert_eq!(l2.read_word(0x8000), 0);
        assert_eq!(l2.pages_allocated(), 0);
        l2.write_word(0x1000, 5);
        l2.poke_word(0x1ffc, 6); // same 4 KiB page
        l2.write_word(0x2f000, 7);
        assert_eq!(l2.pages_allocated(), 2);
        assert_eq!((l2.peek_word(0x1000), l2.peek_word(0x1ffc)), (5, 6));
        assert_eq!(l2.peek_word(0x2000), 0);
        assert_eq!((l2.reads(), l2.writes()), (1, 2));
        // A clone copies the written pages only, and continues alike.
        let mut copy = l2.clone();
        assert_eq!(copy.pages_allocated(), 2);
        assert_eq!(copy, l2);
        copy.write_word(0x2f000, 8);
        assert_ne!(copy, l2);
    }

    #[test]
    fn an_absent_page_equals_a_zeroed_one() {
        let mut zeroed = L2Memory::new(16 * 1024);
        zeroed.poke_word(0x2000, 0);
        let fresh = L2Memory::new(16 * 1024);
        assert_eq!(zeroed.pages_allocated(), 1);
        assert_eq!(zeroed, fresh);
        assert_eq!(fresh, zeroed);
        zeroed.poke_word(0x2004, 1);
        assert_ne!(zeroed, fresh);
        assert_ne!(fresh, zeroed);
        // Access counts are part of the state.
        let mut counted = L2Memory::new(16 * 1024);
        let _ = counted.read_word(0);
        assert_ne!(counted, fresh);
    }

    #[test]
    fn a_partial_last_page_is_bounded_by_the_size() {
        let mut l2 = L2Memory::new(4096 + 8);
        l2.write_word(4096 + 4, 9);
        assert_eq!(l2.peek_word(4096 + 4), 9);
        assert!(!l2.contains(4096 + 8));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_panics() {
        let mut l2 = L2Memory::new(16);
        let _ = l2.read_word(16);
    }
}
