//! Single-wire event lines.
//!
//! PELS routes *events*: single-cycle pulses on dedicated wires (paper
//! Section III). An [`EventVector`] models up to 64 such wires sampled in
//! one clock cycle. Peripherals OR their pulses into the vector during the
//! comb phase; consumers (PELS trigger units, the interrupt controller)
//! sample it before the next edge.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};

/// Width of an [`EventVector`] in wires.
pub const EVENT_LINES: u32 = 64;

/// A sampled set of up to 64 single-wire event lines.
///
/// ```
/// use pels_sim::EventVector;
/// let mut ev = EventVector::EMPTY;
/// ev.set(3); // e.g. SPI end-of-transfer
/// ev.set(7); // e.g. timer overflow
/// assert!(ev.is_set(3));
/// assert_eq!(ev.count(), 2);
/// assert_eq!(ev & EventVector::mask_of(&[3]), EventVector::mask_of(&[3]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EventVector(u64);

impl EventVector {
    /// No event lines active.
    pub const EMPTY: EventVector = EventVector(0);

    /// All 64 event lines active.
    pub const ALL: EventVector = EventVector(u64::MAX);

    /// Whether any line in `mask` is also active in `self`.
    pub fn intersects(self, mask: EventVector) -> bool {
        self.0 & mask.0 != 0
    }

    /// Creates a vector from its raw 64-bit image.
    pub const fn from_bits(bits: u64) -> Self {
        EventVector(bits)
    }

    /// The raw 64-bit image.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// A vector with exactly the given lines set.
    ///
    /// # Panics
    ///
    /// Panics if any line index is `>= 64`.
    pub fn mask_of(lines: &[u32]) -> Self {
        let mut v = EventVector::EMPTY;
        for &l in lines {
            v.set(l);
        }
        v
    }

    /// Sets line `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn set(&mut self, line: u32) {
        assert!(line < EVENT_LINES, "event line {line} out of range");
        self.0 |= 1 << line;
    }

    /// Clears line `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn clear(&mut self, line: u32) {
        assert!(line < EVENT_LINES, "event line {line} out of range");
        self.0 &= !(1 << line);
    }

    /// Whether line `line` is active.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn is_set(self, line: u32) -> bool {
        assert!(line < EVENT_LINES, "event line {line} out of range");
        self.0 & (1 << line) != 0
    }

    /// Whether no line is active.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of active lines.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterator over the indices of active lines, ascending.
    pub fn iter(self) -> impl Iterator<Item = u32> {
        (0..EVENT_LINES).filter(move |&l| self.0 & (1 << l) != 0)
    }
}

impl BitOr for EventVector {
    type Output = EventVector;
    fn bitor(self, rhs: EventVector) -> EventVector {
        EventVector(self.0 | rhs.0)
    }
}

impl BitOrAssign for EventVector {
    fn bitor_assign(&mut self, rhs: EventVector) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for EventVector {
    type Output = EventVector;
    fn bitand(self, rhs: EventVector) -> EventVector {
        EventVector(self.0 & rhs.0)
    }
}

impl Not for EventVector {
    type Output = EventVector;
    fn not(self) -> EventVector {
        EventVector(!self.0)
    }
}

impl fmt::Display for EventVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "events[")?;
        let mut first = true;
        for l in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
            first = false;
        }
        write!(f, "]")
    }
}

impl fmt::Binary for EventVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for EventVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl FromIterator<u32> for EventVector {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut v = EventVector::EMPTY;
        for l in iter {
            v.set(l);
        }
        v
    }
}

/// How a component may sleep: the one answer every component of the
/// SoC gives its scheduler (`Peripheral::sleep_plan` for the
/// peripherals, `sleep_plan` on the CPU, PELS and the APB fabric).
///
/// The contract: *if no wire in `wake_mask` pulses*, ticking the
/// component during the next `idle_for - 1` cycles would leave its
/// architectural state, its activity counters, its trace output and its
/// event pulses exactly as its `catch_up` over those cycles leaves them,
/// and the `idle_for`-th tick (its next self-driven observable action,
/// e.g. a timer compare fire) runs as a real tick. A plan with
/// `idle_for < 2` leaves no cycle to skip: the harness ticks the
/// component next cycle, as for `None`. A peripheral's plan with
/// `idle_for` = [`SleepPlan::UNTIL_WIRE`] also promises that its
/// `catch_up` is a no-op for any span; the CPU, PELS and the fabric
/// count cycles in theirs. A bus access to a sleeping peripheral is
/// served in place: the harness catches it up through the access cycle,
/// lets the bus read or write it, and asks for a fresh plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SleepPlan {
    /// Cycles from the deciding cycle to the next tick that must run, or
    /// [`SleepPlan::UNTIL_WIRE`].
    pub idle_for: u64,
    /// The wires that wake it (its wired inputs).
    pub wake_mask: EventVector,
}

impl SleepPlan {
    /// `idle_for` of a component with no self-driven action left: only
    /// a wire in its wake mask (or a bus access) can make it observable.
    pub const UNTIL_WIRE: u64 = u64::MAX;

    /// The plan of a component idle until a wire in `wake_mask` pulses.
    pub const fn until_wire(wake_mask: EventVector) -> SleepPlan {
        SleepPlan {
            idle_for: SleepPlan::UNTIL_WIRE,
            wake_mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_roundtrip() {
        let mut v = EventVector::EMPTY;
        v.set(0);
        v.set(63);
        assert!(v.is_set(0) && v.is_set(63));
        v.clear(0);
        assert!(!v.is_set(0) && v.is_set(63));
        assert_eq!(v.count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_rejects_out_of_range() {
        let mut v = EventVector::EMPTY;
        v.set(64);
    }

    #[test]
    fn bit_ops() {
        let a = EventVector::mask_of(&[1, 2]);
        let b = EventVector::mask_of(&[2, 3]);
        assert_eq!(a | b, EventVector::mask_of(&[1, 2, 3]));
        assert_eq!(a & b, EventVector::mask_of(&[2]));
        assert!((!a).is_set(0));
        assert!(!(!a).is_set(1));
    }

    #[test]
    fn iter_ascending() {
        let v = EventVector::mask_of(&[9, 1, 40]);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![1, 9, 40]);
        let back: EventVector = v.iter().collect();
        assert_eq!(back, v);
    }

    #[test]
    fn display_lists_lines() {
        assert_eq!(EventVector::mask_of(&[2, 5]).to_string(), "events[2,5]");
        assert_eq!(EventVector::EMPTY.to_string(), "events[]");
    }

    #[test]
    fn numeric_formats() {
        let v = EventVector::mask_of(&[0, 4]);
        assert_eq!(format!("{v:b}"), "10001");
        assert_eq!(format!("{v:x}"), "11");
    }
}
