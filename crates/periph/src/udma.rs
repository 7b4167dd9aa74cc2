//! µDMA channel building block.
//!
//! PULPissimo's autonomous I/O is built on µDMA (paper reference \[11\]):
//! every stream-capable peripheral embeds RX/TX channels that move data
//! between the peripheral and L2 without waking the core. This module is
//! the per-peripheral channel engine reused by [`crate::Spi`] and
//! [`crate::Adc`]: configure a target L2 buffer, stream words in, get a
//! completion flag for the peripheral's event output.
//!
//! Both registers that arm a channel are firmware-writable, so any value
//! must be safe: sizes round up to whole words and saturate at the
//! largest whole-word size, and an access outside L2 is dropped (a read
//! yields 0) and latched as a fault the peripheral reports, while the
//! channel still advances (its address wrapping at 4 GiB).

use crate::l2::L2Memory;

/// `size_bytes` rounded up to whole words, saturating at the largest
/// whole-word `u32`.
fn word_size(size_bytes: u32) -> u32 {
    size_bytes.checked_next_multiple_of(4).unwrap_or(!3)
}

/// One RX-direction µDMA channel (peripheral → L2).
///
/// For the opposite direction see [`UdmaTxChannel`].
///
/// ```
/// use pels_periph::{L2Memory, UdmaChannel};
/// let mut l2 = L2Memory::new(64);
/// let mut ch = UdmaChannel::new();
/// ch.configure(0x10, 8); // two words
/// assert!(ch.push_word(0xAAAA, &mut l2));
/// assert!(ch.push_word(0xBBBB, &mut l2));
/// assert!(ch.take_done());
/// assert_eq!(l2.peek_word(0x10), 0xAAAA);
/// assert_eq!(l2.peek_word(0x14), 0xBBBB);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UdmaChannel {
    saddr: u32,
    remaining: u32,
    done_pending: bool,
    fault: Option<u32>,
    transferred_words: u64,
    continuous: bool,
    reload_addr: u32,
    reload_size: u32,
}

impl UdmaChannel {
    /// Creates an idle channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the channel: `size_bytes` of data will land at L2 byte address
    /// `saddr`. Sizes are rounded up to whole words (saturating).
    pub fn configure(&mut self, saddr: u32, size_bytes: u32) {
        self.saddr = saddr;
        self.remaining = word_size(size_bytes);
        self.reload_addr = saddr;
        self.reload_size = self.remaining;
        self.done_pending = false;
    }

    /// Selects continuous (ring-buffer) mode: on completion the channel
    /// immediately re-arms at its original address — PULPissimo µDMA's
    /// continuous transfer mode, used for sustained sensor streaming.
    pub fn set_continuous(&mut self, continuous: bool) {
        self.continuous = continuous;
    }

    /// Whether continuous mode is selected.
    pub fn is_continuous(&self) -> bool {
        self.continuous
    }

    /// Whether the channel still expects data.
    pub fn is_active(&self) -> bool {
        self.remaining > 0
    }

    /// Bytes still expected.
    pub fn remaining_bytes(&self) -> u32 {
        self.remaining
    }

    /// Next L2 address to be written.
    pub fn current_addr(&self) -> u32 {
        self.saddr
    }

    /// Total words moved since construction.
    pub fn transferred_words(&self) -> u64 {
        self.transferred_words
    }

    /// Streams one word into L2. Returns `false` (word refused) when the
    /// channel is idle. Sets the done flag when the configured size
    /// completes. A word aimed outside L2 is dropped and latched for
    /// [`UdmaChannel::take_fault`]; the channel advances either way.
    pub fn push_word(&mut self, word: u32, l2: &mut L2Memory) -> bool {
        if !self.is_active() {
            return false;
        }
        if l2.contains(self.saddr) {
            l2.write_word(self.saddr, word);
        } else {
            self.fault = Some(self.saddr);
        }
        self.saddr = self.saddr.wrapping_add(4);
        self.remaining -= 4;
        self.transferred_words += 1;
        if self.remaining == 0 {
            self.done_pending = true;
            if self.continuous {
                self.saddr = self.reload_addr;
                self.remaining = self.reload_size;
            }
        }
        true
    }

    /// Takes the completion flag (a single pulse per completed transfer).
    pub fn take_done(&mut self) -> bool {
        std::mem::take(&mut self.done_pending)
    }

    /// Takes the L2 address of the last word dropped for lying outside
    /// L2, if any since the previous call.
    pub fn take_fault(&mut self) -> Option<u32> {
        self.fault.take()
    }
}

/// One TX-direction µDMA channel (L2 → peripheral).
///
/// Armed with an L2 buffer, it feeds the peripheral one word per
/// [`UdmaTxChannel::pull_word`] — the peripheral pulls at its own rate
/// (e.g. the UART per transmitted byte).
///
/// ```
/// use pels_periph::{L2Memory, UdmaTxChannel};
/// let mut l2 = L2Memory::new(64);
/// l2.poke_word(0x10, 0xAA);
/// l2.poke_word(0x14, 0xBB);
/// let mut tx = UdmaTxChannel::new();
/// tx.configure(0x10, 8);
/// assert_eq!(tx.pull_word(&mut l2), Some(0xAA));
/// assert_eq!(tx.pull_word(&mut l2), Some(0xBB));
/// assert!(tx.take_done());
/// assert_eq!(tx.pull_word(&mut l2), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UdmaTxChannel {
    saddr: u32,
    remaining: u32,
    done_pending: bool,
    fault: Option<u32>,
    transferred_words: u64,
}

impl UdmaTxChannel {
    /// Creates an idle channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the channel to stream `size_bytes` (rounded up to words,
    /// saturating) from L2 byte address `saddr`.
    pub fn configure(&mut self, saddr: u32, size_bytes: u32) {
        self.saddr = saddr;
        self.remaining = word_size(size_bytes);
        self.done_pending = false;
    }

    /// Whether data remains to stream.
    pub fn is_active(&self) -> bool {
        self.remaining > 0
    }

    /// Bytes still queued.
    pub fn remaining_bytes(&self) -> u32 {
        self.remaining
    }

    /// Total words streamed since construction.
    pub fn transferred_words(&self) -> u64 {
        self.transferred_words
    }

    /// Pulls the next word from L2, or `None` when drained. Sets the
    /// done flag as the last word leaves. A word outside L2 reads as 0
    /// and is latched for [`UdmaTxChannel::take_fault`].
    pub fn pull_word(&mut self, l2: &mut L2Memory) -> Option<u32> {
        if !self.is_active() {
            return None;
        }
        let word = if l2.contains(self.saddr) {
            l2.read_word(self.saddr)
        } else {
            self.fault = Some(self.saddr);
            0
        };
        self.saddr = self.saddr.wrapping_add(4);
        self.remaining -= 4;
        self.transferred_words += 1;
        if self.remaining == 0 {
            self.done_pending = true;
        }
        Some(word)
    }

    /// Takes the completion flag (one pulse per completed buffer).
    pub fn take_done(&mut self) -> bool {
        std::mem::take(&mut self.done_pending)
    }

    /// Takes the L2 address of the last word read from outside L2, if
    /// any since the previous call.
    pub fn take_fault(&mut self) -> Option<u32> {
        self.fault.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_channel_refuses_words() {
        let mut l2 = L2Memory::new(16);
        let mut ch = UdmaChannel::new();
        assert!(!ch.push_word(1, &mut l2));
        assert_eq!(l2.writes(), 0);
        assert!(!ch.take_done());
    }

    #[test]
    fn done_pulses_once() {
        let mut l2 = L2Memory::new(16);
        let mut ch = UdmaChannel::new();
        ch.configure(0, 4);
        assert!(ch.push_word(7, &mut l2));
        assert!(ch.take_done());
        assert!(!ch.take_done());
    }

    #[test]
    fn size_rounds_up_to_words() {
        let mut ch = UdmaChannel::new();
        ch.configure(0, 5);
        assert_eq!(ch.remaining_bytes(), 8);
    }

    #[test]
    fn reconfigure_clears_pending_done() {
        let mut l2 = L2Memory::new(16);
        let mut ch = UdmaChannel::new();
        ch.configure(0, 4);
        ch.push_word(1, &mut l2);
        ch.configure(8, 4);
        assert!(!ch.take_done());
        assert!(ch.is_active());
        assert_eq!(ch.current_addr(), 8);
    }

    #[test]
    fn tx_channel_drains_buffer_and_pulses_done() {
        let mut l2 = L2Memory::new(32);
        l2.load(0, &[1, 2, 3]);
        let mut tx = UdmaTxChannel::new();
        tx.configure(0, 12);
        assert!(tx.is_active());
        assert_eq!(tx.pull_word(&mut l2), Some(1));
        assert!(!tx.take_done());
        assert_eq!(tx.pull_word(&mut l2), Some(2));
        assert_eq!(tx.pull_word(&mut l2), Some(3));
        assert!(tx.take_done());
        assert!(!tx.is_active());
        assert_eq!(tx.transferred_words(), 3);
    }

    #[test]
    fn tx_idle_channel_returns_none() {
        let mut l2 = L2Memory::new(16);
        let mut tx = UdmaTxChannel::new();
        assert_eq!(tx.pull_word(&mut l2), None);
        assert_eq!(l2.reads(), 0);
    }

    #[test]
    fn huge_sizes_saturate_at_the_largest_whole_word_size() {
        let mut rx = UdmaChannel::new();
        rx.configure(0, u32::MAX - 2);
        assert!(rx.is_active());
        assert_eq!(rx.remaining_bytes(), 0xFFFF_FFFC);
        let mut tx = UdmaTxChannel::new();
        tx.configure(0, u32::MAX);
        assert_eq!(tx.remaining_bytes(), 0xFFFF_FFFC);
        rx.configure(0, 0xFFFF_FFFC);
        assert_eq!(rx.remaining_bytes(), 0xFFFF_FFFC);
    }

    #[test]
    fn rx_drops_out_of_range_words_and_keeps_advancing() {
        let mut l2 = L2Memory::new(16);
        let mut ch = UdmaChannel::new();
        ch.configure(0xFFFF_FFFC, 12);
        assert!(ch.push_word(1, &mut l2));
        assert_eq!(ch.take_fault(), Some(0xFFFF_FFFC));
        assert_eq!(ch.take_fault(), None);
        // The address wraps into L2 and the next word lands.
        assert!(ch.push_word(2, &mut l2));
        assert_eq!(ch.take_fault(), None);
        assert_eq!(l2.peek_word(0), 2);
        assert!(ch.push_word(3, &mut l2));
        assert!(ch.take_done());
        assert_eq!(l2.writes(), 2);
        assert_eq!(ch.transferred_words(), 3);
    }

    #[test]
    fn tx_reads_out_of_range_words_as_zero() {
        let mut l2 = L2Memory::new(16);
        l2.poke_word(12, 7);
        let mut tx = UdmaTxChannel::new();
        tx.configure(12, 8);
        assert_eq!(tx.pull_word(&mut l2), Some(7));
        assert_eq!(tx.take_fault(), None);
        assert_eq!(tx.pull_word(&mut l2), Some(0));
        assert_eq!(tx.take_fault(), Some(16));
        assert!(tx.take_done());
        assert_eq!(l2.reads(), 1);
    }

    #[test]
    fn counts_lifetime_words() {
        let mut l2 = L2Memory::new(32);
        let mut ch = UdmaChannel::new();
        ch.configure(0, 8);
        ch.push_word(1, &mut l2);
        ch.push_word(2, &mut l2);
        ch.configure(16, 4);
        ch.push_word(3, &mut l2);
        assert_eq!(ch.transferred_words(), 3);
    }
}
