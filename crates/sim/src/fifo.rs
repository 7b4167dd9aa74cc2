//! Hardware FIFO model.
//!
//! PELS buffers trigger pulses in a per-link FIFO so that events arriving
//! while the execution unit is busy are not lost (paper Section III-1b).
//! This model has RTL-FIFO semantics: fixed capacity, full/empty flags and
//! occupancy watermarks, plus drop accounting for the `ablate_fifo`
//! experiment.

use crate::error::SimError;
use std::collections::VecDeque;

/// A fixed-capacity hardware FIFO.
///
/// ```
/// use pels_sim::Fifo;
/// let mut f: Fifo<u8> = Fifo::new(2);
/// f.push(1)?;
/// f.push(2)?;
/// assert!(f.is_full());
/// assert!(f.push(3).is_err());
/// assert_eq!(f.pop(), Some(1));
/// # Ok::<(), pels_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    capacity: usize,
    pushes: u64,
    drops: u64,
    max_occupancy: usize,
}

impl<T> Fifo<T> {
    /// Creates a FIFO with the given capacity.
    ///
    /// A capacity of zero is allowed and models an *unbuffered* design:
    /// every push is dropped. The FIFO-depth ablation uses this.
    pub fn new(capacity: usize) -> Self {
        Fifo {
            items: VecDeque::with_capacity(capacity),
            capacity,
            pushes: 0,
            drops: 0,
            max_occupancy: 0,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of buffered items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the FIFO holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the FIFO is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Pushes an item.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FifoFull`] (and counts a drop) when full.
    pub fn push(&mut self, item: T) -> Result<(), SimError> {
        self.pushes += 1;
        if self.is_full() {
            self.drops += 1;
            return Err(SimError::FifoFull {
                capacity: self.capacity,
            });
        }
        self.items.push_back(item);
        self.max_occupancy = self.max_occupancy.max(self.items.len());
        Ok(())
    }

    /// Pushes an item, silently dropping it when full.
    ///
    /// Matches the behaviour of a hardware FIFO whose producer does not
    /// observe back-pressure — exactly the loss mode the FIFO ablation
    /// quantifies. Returns `true` if the item was accepted.
    pub fn push_lossy(&mut self, item: T) -> bool {
        self.push(item).is_ok()
    }

    /// Pops the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Empties the FIFO (reset). Statistics are preserved.
    pub fn flush(&mut self) {
        self.items.clear();
    }

    /// Total push attempts since construction.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Push attempts rejected because the FIFO was full.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// High-water mark of occupancy.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }
}

impl<T> Extend<T> for Fifo<T> {
    /// Pushes items until the FIFO fills; the remainder is dropped (and
    /// counted), matching [`Fifo::push_lossy`].
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            let _ = self.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_orders_items() {
        let mut f = Fifo::new(4);
        for i in 0..4 {
            f.push(i).unwrap();
        }
        assert_eq!(f.max_occupancy(), 4);
        for i in 0..4 {
            assert_eq!(f.pop(), Some(i));
        }
        assert!(f.pop().is_none());
    }

    #[test]
    fn full_fifo_rejects_and_counts_drops() {
        let mut f = Fifo::new(1);
        f.push('a').unwrap();
        assert!(matches!(
            f.push('b'),
            Err(SimError::FifoFull { capacity: 1 })
        ));
        assert!(!f.push_lossy('c'));
        assert_eq!(f.drops(), 2);
        assert_eq!(f.pushes(), 3);
        assert_eq!(f.front(), Some(&'a'));
    }

    #[test]
    fn zero_capacity_models_unbuffered_link() {
        let mut f = Fifo::new(0);
        assert!(f.is_full());
        assert!(!f.push_lossy(1u32));
        assert_eq!(f.drops(), 1);
        assert!(f.is_empty());
    }

    #[test]
    fn flush_preserves_statistics() {
        let mut f = Fifo::new(2);
        f.push(1).unwrap();
        f.flush();
        assert!(f.is_empty());
        assert_eq!(f.pushes(), 1);
        assert_eq!(f.max_occupancy(), 1);
    }

    #[test]
    fn extend_is_lossy_at_capacity() {
        let mut f = Fifo::new(2);
        f.extend(0..5);
        assert_eq!(f.len(), 2);
        assert_eq!(f.drops(), 3);
    }
}
