//! Bus arbiters.
//!
//! PULPissimo's interconnect uses round-robin arbitration to guarantee fair
//! bandwidth distribution among masters (paper Section IV-A); a
//! fixed-priority alternative is provided for the arbitration ablation,
//! which shows the worst-case link-latency divergence the paper warns about
//! in Section III-1.

use std::fmt;

/// Selects an arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArbiterKind {
    /// Fair rotating-priority arbitration (the paper's configuration).
    #[default]
    RoundRobin,
    /// Lowest index always wins — starves high indices under contention.
    FixedPriority,
}

impl ArbiterKind {
    /// Every policy.
    pub const ALL: [ArbiterKind; 2] = [ArbiterKind::RoundRobin, ArbiterKind::FixedPriority];

    /// The serialized name (also the `Display` form).
    pub fn name(&self) -> &'static str {
        match self {
            ArbiterKind::RoundRobin => "round-robin",
            ArbiterKind::FixedPriority => "fixed-priority",
        }
    }
}

impl fmt::Display for ArbiterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Chooses one requester among a set each cycle.
///
/// Round-robin rotates priority: after granting index *i*, the highest
/// priority for the next arbitration is *i + 1*, so every requester is
/// served within `N` grants under full contention. Fixed priority always
/// grants the lowest requesting index.
///
/// ```
/// use pels_interconnect::{Arbiter, ArbiterKind};
/// let mut rr = Arbiter::new(ArbiterKind::RoundRobin);
/// let all = [true, true, true];
/// assert_eq!(rr.grant(&all), Some(0));
/// assert_eq!(rr.grant(&all), Some(1));
/// assert_eq!(rr.grant(&all), Some(2));
/// assert_eq!(rr.grant(&all), Some(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arbiter {
    /// Rotating priority; `next` is the index with the highest priority
    /// at the next arbitration.
    RoundRobin {
        /// Highest-priority index for the next grant.
        next: usize,
    },
    /// Lowest requesting index wins.
    FixedPriority,
}

impl Arbiter {
    /// A fresh arbiter of the given policy (round-robin starts with index
    /// 0 at the highest priority).
    pub fn new(kind: ArbiterKind) -> Self {
        match kind {
            ArbiterKind::RoundRobin => Arbiter::RoundRobin { next: 0 },
            ArbiterKind::FixedPriority => Arbiter::FixedPriority,
        }
    }

    /// Grants one of the requesting indices (`requests[i] == true`), or
    /// `None` if nobody requests.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        match self {
            Arbiter::RoundRobin { next } => {
                let n = requests.len();
                let i = (0..n).map(|k| (*next + k) % n).find(|&i| requests[i])?;
                *next = (i + 1) % n;
                Some(i)
            }
            Arbiter::FixedPriority => requests.iter().position(|&r| r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_fair_under_full_contention() {
        let mut rr = Arbiter::new(ArbiterKind::RoundRobin);
        let reqs = [true; 4];
        let mut grants = [0u32; 4];
        for _ in 0..400 {
            grants[rr.grant(&reqs).unwrap()] += 1;
        }
        assert_eq!(grants, [100; 4]);
    }

    #[test]
    fn round_robin_skips_idle_masters() {
        let mut rr = Arbiter::new(ArbiterKind::RoundRobin);
        assert_eq!(rr.grant(&[false, true, false]), Some(1));
        assert_eq!(rr.grant(&[true, false, true]), Some(2));
        assert_eq!(rr.grant(&[true, false, true]), Some(0));
    }

    #[test]
    fn round_robin_none_when_idle() {
        let mut rr = Arbiter::new(ArbiterKind::RoundRobin);
        assert_eq!(rr.grant(&[false, false]), None);
        assert_eq!(rr.grant(&[]), None);
        assert_eq!(rr, Arbiter::RoundRobin { next: 0 }, "no grant keeps the pointer");
    }

    #[test]
    fn fixed_priority_starves_high_indices() {
        let mut fp = Arbiter::new(ArbiterKind::FixedPriority);
        for _ in 0..10 {
            assert_eq!(fp.grant(&[true, true, true]), Some(0));
        }
        assert_eq!(fp.grant(&[false, false, true]), Some(2));
    }

    #[test]
    fn kind_displays_policy_and_defaults_to_round_robin() {
        assert_eq!(ArbiterKind::RoundRobin.to_string(), "round-robin");
        assert_eq!(ArbiterKind::FixedPriority.to_string(), "fixed-priority");
        assert_eq!(ArbiterKind::default(), ArbiterKind::RoundRobin);
    }
}
