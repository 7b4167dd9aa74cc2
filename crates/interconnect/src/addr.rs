//! Address ranges and the slave address map.

use crate::apb::BusError;
use std::fmt;

/// A half-open byte-address range `[base, base + size)`.
///
/// ```
/// use pels_interconnect::AddrRange;
/// let r = AddrRange::new(0x1A10_0000, 0x1000); // PULPissimo-style APB slot
/// assert!(r.contains(0x1A10_0FFC));
/// assert!(!r.contains(0x1A10_1000));
/// assert_eq!(r.offset_of(0x1A10_0004), Some(0x4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    base: u32,
    size: u32,
}

impl AddrRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or `base + size` overflows `u32`.
    pub fn new(base: u32, size: u32) -> Self {
        assert!(size > 0, "address range must have non-zero size");
        assert!(
            base.checked_add(size - 1).is_some(),
            "address range {base:#x}+{size:#x} overflows the 32-bit space"
        );
        AddrRange { base, size }
    }

    /// The first address in the range.
    pub const fn base(&self) -> u32 {
        self.base
    }

    /// The range size in bytes.
    pub const fn size(&self) -> u32 {
        self.size
    }

    /// The last address in the range.
    pub const fn last(&self) -> u32 {
        self.base + (self.size - 1)
    }

    /// Whether `addr` falls inside the range.
    pub const fn contains(&self, addr: u32) -> bool {
        addr >= self.base && addr <= self.last()
    }

    /// Byte offset of `addr` from the base, if contained.
    pub fn offset_of(&self, addr: u32) -> Option<u32> {
        self.contains(addr).then(|| addr - self.base)
    }

    /// Whether two ranges share any address.
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        self.base <= other.last() && other.base <= self.last()
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#010x}, {:#010x}]", self.base, self.last())
    }
}

/// An ordered map from address ranges to slave indices.
///
/// Overlap is rejected at insertion time so decode is always unambiguous —
/// the behavioural equivalent of a bus decoder that is correct by
/// construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AddressMap {
    entries: Vec<(AddrRange, usize)>,
}

impl AddressMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a range mapping to `slave`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Overlap`] if `range` overlaps an existing entry.
    pub fn insert(&mut self, range: AddrRange, slave: usize) -> Result<(), BusError> {
        for (existing, _) in &self.entries {
            if existing.overlaps(&range) {
                return Err(BusError::Overlap {
                    base: range.base(),
                    conflicting_base: existing.base(),
                });
            }
        }
        self.entries.push((range, slave));
        Ok(())
    }

    /// Decodes `addr` to `(slave index, offset within the slave)`.
    pub fn decode(&self, addr: u32) -> Option<(usize, u32)> {
        self.entries
            .iter()
            .find_map(|(r, s)| r.offset_of(addr).map(|off| (*s, off)))
    }

    /// Number of mapped ranges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(range, slave index)` entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (AddrRange, usize)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_basics() {
        let r = AddrRange::new(0x100, 0x10);
        assert_eq!(r.base(), 0x100);
        assert_eq!(r.last(), 0x10F);
        assert!(r.contains(0x100) && r.contains(0x10F));
        assert!(!r.contains(0xFF) && !r.contains(0x110));
        assert_eq!(r.offset_of(0x108), Some(8));
        assert_eq!(r.offset_of(0x110), None);
    }

    #[test]
    fn range_at_top_of_address_space() {
        let r = AddrRange::new(0xFFFF_FF00, 0x100);
        assert_eq!(r.last(), 0xFFFF_FFFF);
        assert!(r.contains(0xFFFF_FFFF));
    }

    #[test]
    #[should_panic(expected = "non-zero size")]
    fn zero_size_rejected() {
        let _ = AddrRange::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflowing_range_rejected() {
        let _ = AddrRange::new(0xFFFF_FFFF, 2);
    }

    #[test]
    fn overlap_detection() {
        let a = AddrRange::new(0x100, 0x100);
        assert!(a.overlaps(&AddrRange::new(0x1FF, 1)));
        assert!(a.overlaps(&AddrRange::new(0x0, 0x101)));
        assert!(!a.overlaps(&AddrRange::new(0x200, 0x10)));
        assert!(!a.overlaps(&AddrRange::new(0x0, 0x100)));
    }

    #[test]
    fn map_decodes_to_slave_and_offset() {
        let mut m = AddressMap::new();
        m.insert(AddrRange::new(0x1000, 0x100), 0).unwrap();
        m.insert(AddrRange::new(0x2000, 0x100), 1).unwrap();
        assert_eq!(m.decode(0x1004), Some((0, 4)));
        assert_eq!(m.decode(0x20FC), Some((1, 0xFC)));
        assert_eq!(m.decode(0x3000), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn map_rejects_overlap() {
        let mut m = AddressMap::new();
        m.insert(AddrRange::new(0x1000, 0x100), 0).unwrap();
        let err = m.insert(AddrRange::new(0x10FF, 0x10), 1).unwrap_err();
        assert!(matches!(err, BusError::Overlap { .. }));
        assert_eq!(m.len(), 1);
    }
}
