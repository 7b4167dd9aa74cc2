//! The per-link trigger unit (paper Figure 2, blocks ①–③).
//!
//! Incoming events are broadcast to every link; each link's trigger unit
//! masks them (①) and checks a trigger condition (②) — all-selected-active
//! (AND), any-selected-active (OR), or an at-least-*k* generalization
//! (covering the paper's "a trigger condition can be a threshold to
//! generate an event"). Satisfied triggers are buffered in a FIFO so a
//! running execution unit does not lose events.

use pels_sim::{EventVector, Fifo};
use std::fmt;

/// The trigger condition over the masked event lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TriggerCond {
    /// Any selected line active (OR) — the default.
    #[default]
    Any,
    /// All selected lines active (AND).
    All,
    /// At least `k` selected lines active.
    AtLeast(u8),
}

impl fmt::Display for TriggerCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TriggerCond::Any => f.write_str("any"),
            TriggerCond::All => f.write_str("all"),
            TriggerCond::AtLeast(k) => write!(f, "at-least-{k}"),
        }
    }
}

/// One pending trigger token: the masked event image that satisfied the
/// condition (execution units may inspect it in future extensions; the
/// measurement harness uses it for diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerToken {
    /// The masked events at trigger time.
    pub events: EventVector,
    /// Cycle the trigger fired.
    pub cycle: u64,
    /// Causal flow carried by the event wire that fired the trigger
    /// (`0` = none / flow tracing off). Riding the FIFO means drops and
    /// occupancy automatically apply to flows too.
    pub flow: u64,
}

/// Mask + condition + FIFO.
///
/// ```
/// use pels_core::{TriggerCond, TriggerUnit};
/// use pels_sim::EventVector;
/// let mut t = TriggerUnit::new(4);
/// t.set_mask(EventVector::mask_of(&[3, 5]));
/// t.set_condition(TriggerCond::All);
/// t.sample(EventVector::mask_of(&[3]), 0);
/// assert!(t.pop().is_none()); // AND not satisfied
/// t.sample(EventVector::mask_of(&[3, 5, 9]), 1);
/// assert!(t.pop().is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerUnit {
    enabled: bool,
    mask: EventVector,
    condition: TriggerCond,
    fifo: Fifo<TriggerToken>,
    triggers: u64,
}

impl TriggerUnit {
    /// Creates a disabled-mask (never triggering) unit with the given FIFO
    /// depth. Depth 0 models the unbuffered ablation.
    pub fn new(fifo_depth: usize) -> Self {
        TriggerUnit {
            enabled: true,
            mask: EventVector::EMPTY,
            condition: TriggerCond::Any,
            fifo: Fifo::new(fifo_depth),
            triggers: 0,
        }
    }

    /// Enables or disables the unit.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the unit is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Selects which event lines participate.
    pub fn set_mask(&mut self, mask: EventVector) {
        self.mask = mask;
    }

    /// The configured mask.
    pub fn mask(&self) -> EventVector {
        self.mask
    }

    /// Sets the trigger condition.
    pub fn set_condition(&mut self, condition: TriggerCond) {
        self.condition = condition;
    }

    /// The configured condition.
    pub fn condition(&self) -> TriggerCond {
        self.condition
    }

    /// Evaluates the condition against `events` without touching the
    /// FIFO.
    pub fn matches(&self, events: EventVector) -> bool {
        if !self.enabled || self.mask.is_empty() {
            return false;
        }
        let hit = events & self.mask;
        match self.condition {
            TriggerCond::Any => !hit.is_empty(),
            TriggerCond::All => hit == self.mask,
            TriggerCond::AtLeast(k) => hit.count() >= u32::from(k),
        }
    }

    /// Samples one cycle of event lines; pushes a token when the
    /// condition fires. Returns whether a trigger was produced (even if it
    /// was then dropped by a full FIFO).
    pub fn sample(&mut self, events: EventVector, cycle: u64) -> bool {
        self.sample_with_flow(events, cycle, 0)
    }

    /// [`TriggerUnit::sample`] with a causal flow id to carry on the
    /// token (`0` = none).
    pub fn sample_with_flow(&mut self, events: EventVector, cycle: u64, flow: u64) -> bool {
        if !self.matches(events) {
            return false;
        }
        self.triggers += 1;
        let _ = self.fifo.push(TriggerToken {
            events: events & self.mask,
            cycle,
            flow,
        });
        true
    }

    /// Pops the oldest pending trigger.
    pub fn pop(&mut self) -> Option<TriggerToken> {
        self.fifo.pop()
    }

    /// Pending triggers.
    pub fn pending(&self) -> usize {
        self.fifo.len()
    }

    /// Triggers produced since construction (including dropped ones).
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Triggers lost to a full FIFO — the quantity the FIFO-depth
    /// ablation reports.
    pub fn drops(&self) -> u64 {
        self.fifo.drops()
    }

    /// High-water mark of FIFO occupancy.
    pub fn max_occupancy(&self) -> usize {
        self.fifo.max_occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_condition_fires_on_single_line() {
        let mut t = TriggerUnit::new(2);
        t.set_mask(EventVector::mask_of(&[1, 2]));
        assert!(t.sample(EventVector::mask_of(&[2]), 0));
        assert!(!t.sample(EventVector::mask_of(&[3]), 1));
        assert_eq!(t.pending(), 1);
        let tok = t.pop().unwrap();
        assert_eq!(tok.events, EventVector::mask_of(&[2]));
        assert_eq!(tok.cycle, 0);
    }

    #[test]
    fn all_condition_requires_every_line() {
        let mut t = TriggerUnit::new(2);
        t.set_mask(EventVector::mask_of(&[1, 2]));
        t.set_condition(TriggerCond::All);
        assert!(!t.sample(EventVector::mask_of(&[1]), 0));
        assert!(t.sample(EventVector::mask_of(&[1, 2]), 1));
    }

    #[test]
    fn at_least_k_counts_lines() {
        let mut t = TriggerUnit::new(2);
        t.set_mask(EventVector::mask_of(&[0, 1, 2, 3]));
        t.set_condition(TriggerCond::AtLeast(3));
        assert!(!t.sample(EventVector::mask_of(&[0, 1]), 0));
        assert!(t.sample(EventVector::mask_of(&[0, 1, 3]), 1));
    }

    #[test]
    fn empty_mask_never_fires() {
        let mut t = TriggerUnit::new(2);
        t.set_condition(TriggerCond::All); // vacuous truth guard
        assert!(!t.sample(EventVector::mask_of(&[0]), 0));
        assert!(!t.matches(EventVector::EMPTY));
    }

    #[test]
    fn disabled_unit_never_fires() {
        let mut t = TriggerUnit::new(2);
        t.set_mask(EventVector::mask_of(&[0]));
        t.set_enabled(false);
        assert!(!t.sample(EventVector::mask_of(&[0]), 0));
        t.set_enabled(true);
        assert!(t.sample(EventVector::mask_of(&[0]), 1));
    }

    #[test]
    fn full_fifo_drops_but_counts() {
        let mut t = TriggerUnit::new(1);
        t.set_mask(EventVector::mask_of(&[0]));
        let ev = EventVector::mask_of(&[0]);
        assert!(t.sample(ev, 0));
        assert!(t.sample(ev, 1)); // dropped
        assert_eq!(t.pending(), 1);
        assert_eq!(t.triggers(), 2);
        assert_eq!(t.drops(), 1);
    }

    #[test]
    fn zero_depth_fifo_drops_everything() {
        let mut t = TriggerUnit::new(0);
        t.set_mask(EventVector::mask_of(&[0]));
        assert!(t.sample(EventVector::mask_of(&[0]), 0));
        assert_eq!(t.pending(), 0);
        assert_eq!(t.drops(), 1);
    }

    #[test]
    fn condition_display() {
        assert_eq!(TriggerCond::Any.to_string(), "any");
        assert_eq!(TriggerCond::All.to_string(), "all");
        assert_eq!(TriggerCond::AtLeast(3).to_string(), "at-least-3");
    }
}
