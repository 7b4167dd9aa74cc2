//! The field split behind event-period fast-forward.
//!
//! A duty-cycled SoC repeats itself: between two completion markers of
//! a periodic workload, every field that differs is a *counter* that
//! only grows (activity counts, statistics, elapsed cycles) or a
//! *stamp* that holds an absolute time (a sleeper's deadline, a queued
//! trigger's cycle). Each component lists those fields in one
//! [`Periodic::visit_period`] walk; its derived `PartialEq` compares the
//! rest, the *repeating* state.
//!
//! A [`PeriodWalk`] then serves the two uses of that split: taking a
//! period snapshot (counters read out and zeroed, stamps made relative
//! to the current cycle), and advancing a live state by whole periods
//! in closed form (each counter grows by its per-period delta, each
//! stamp moves by the period's length).
//!
//! The split is exact only under one rule: no transition reads a
//! counter, and stamps are read only against the current cycle. A field
//! any transition reads otherwise (a timer's count compared against
//! `CMP`, a FIFO level) is repeating state, even when it only grows.

use crate::time::SimTime;

/// What a [`Periodic`] walk is told about each non-repeating field.
pub trait PeriodVisitor {
    /// A field no transition reads that only grows.
    fn counter(&mut self, value: &mut u64);
    /// An absolute cycle; `u64::MAX` means "never" and stays put.
    fn stamp(&mut self, cycle: &mut u64);
    /// An absolute simulation time.
    fn time(&mut self, time: &mut SimTime);
    /// A causal flow id; 0 means "no flow" and stays put. Over a
    /// period an id either stays (a flow latched before it) or moves by
    /// the flows minted in the period (a flow minted in it).
    fn flow(&mut self, id: &mut u64);
    /// The state reads absolute time (a time-varying sensor): two of its
    /// snapshots may look equal at the same phase and still drift apart,
    /// so none may match.
    fn aperiodic(&mut self);
}

/// A state that names its counters and stamps for fast-forward.
pub trait Periodic {
    /// Hands every counter and stamp field to `v`, in a fixed order.
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor);
}

/// The two walks fast-forward makes over a state.
#[derive(Debug)]
pub enum PeriodWalk<'a> {
    /// Turns a clone into a period snapshot: counters and flow ids are
    /// appended to `counters` and `flows` (a flow id's growth is read
    /// like a counter's, see [`PeriodVisitor::flow`]) and then zeroed, a
    /// flow id to 1 so "no flow" still compares; stamps and times are
    /// made relative to `cycle` and `time`.
    Snapshot {
        /// The counters read, in visit order.
        counters: &'a mut Vec<u64>,
        /// The flow ids read, in visit order.
        flows: &'a mut Vec<u64>,
        /// The current cycle.
        cycle: u64,
        /// The current time.
        time: SimTime,
        /// Set when some part of the state was [`PeriodVisitor::aperiodic`].
        aperiodic: bool,
    },
    /// Advances a live state by `periods` whole periods: counter `i` (in
    /// visit order) grows by `periods × deltas[i]`, a flow id `j` by
    /// `periods × flows[j]`, stamps by `periods × cycles` and times by
    /// `periods × time`.
    Advance {
        /// Per-period growth of each counter, in visit order.
        deltas: &'a [u64],
        /// Per-period growth of each flow id, in visit order.
        flows: &'a [u64],
        /// Counters and flow ids visited so far.
        next: (usize, usize),
        /// Whole periods to advance.
        periods: u64,
        /// Cycles in one period.
        cycles: u64,
        /// Time of one period.
        time: SimTime,
    },
}

impl PeriodVisitor for PeriodWalk<'_> {
    fn counter(&mut self, value: &mut u64) {
        match self {
            PeriodWalk::Snapshot { counters, .. } => counters.push(std::mem::take(value)),
            PeriodWalk::Advance {
                deltas,
                next,
                periods,
                ..
            } => {
                *value = value.wrapping_add(periods.wrapping_mul(deltas[next.0]));
                next.0 += 1;
            }
        }
    }

    fn stamp(&mut self, stamp: &mut u64) {
        if *stamp == u64::MAX {
            return;
        }
        match self {
            PeriodWalk::Snapshot { cycle, .. } => *stamp = stamp.wrapping_sub(*cycle),
            PeriodWalk::Advance {
                periods, cycles, ..
            } => *stamp += *periods * *cycles,
        }
    }

    fn time(&mut self, t: &mut SimTime) {
        *t = SimTime::from_ps(match self {
            PeriodWalk::Snapshot { time, .. } => t.as_ps().wrapping_sub(time.as_ps()),
            PeriodWalk::Advance { periods, time, .. } => t.as_ps() + *periods * time.as_ps(),
        });
    }

    fn flow(&mut self, id: &mut u64) {
        match self {
            PeriodWalk::Snapshot { flows, .. } => {
                flows.push(*id);
                *id = u64::from(*id != 0);
            }
            PeriodWalk::Advance {
                flows,
                next,
                periods,
                ..
            } => {
                if *id != 0 {
                    *id += *periods * flows[next.1];
                }
                next.1 += 1;
            }
        }
    }

    fn aperiodic(&mut self) {
        if let PeriodWalk::Snapshot { aperiodic, .. } = self {
            *aperiodic = true;
        }
    }
}

impl<T: Periodic> Periodic for Option<T> {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        if let Some(t) = self {
            t.visit_period(v);
        }
    }
}

impl<T: Periodic + ?Sized> Periodic for Box<T> {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        (**self).visit_period(v);
    }
}

impl<T: Periodic> Periodic for [T] {
    fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
        for t in self {
            t.visit_period(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        count: u64,
        deadline: u64,
        idle: u64,
        at: SimTime,
        flow: u64,
    }

    impl Periodic for Probe {
        fn visit_period(&mut self, v: &mut dyn PeriodVisitor) {
            v.counter(&mut self.count);
            v.stamp(&mut self.deadline);
            v.stamp(&mut self.idle);
            v.time(&mut self.at);
            v.flow(&mut self.flow);
        }
    }

    #[test]
    fn a_snapshot_zeroes_counters_and_relativises_stamps_and_advance_inverts_it() {
        let mut p = Probe {
            count: 7,
            deadline: 130,
            idle: u64::MAX,
            at: SimTime::from_ps(5_000),
            flow: 9,
        };
        let (mut counters, mut flows) = (Vec::new(), Vec::new());
        p.visit_period(&mut PeriodWalk::Snapshot {
            counters: &mut counters,
            flows: &mut flows,
            cycle: 100,
            time: SimTime::from_ps(4_000),
            aperiodic: false,
        });
        assert_eq!((counters, flows), (vec![7], vec![9]));
        assert_eq!((p.count, p.deadline, p.idle), (0, 30, u64::MAX));
        assert_eq!((p.at, p.flow), (SimTime::from_ps(1_000), 1));

        let mut q = Probe {
            count: 7,
            deadline: 130,
            idle: u64::MAX,
            at: SimTime::from_ps(5_000),
            flow: 9,
        };
        q.visit_period(&mut PeriodWalk::Advance {
            deltas: &[3],
            flows: &[2],
            next: (0, 0),
            periods: 4,
            cycles: 50,
            time: SimTime::from_ps(500),
        });
        assert_eq!((q.count, q.deadline, q.idle), (19, 330, u64::MAX));
        assert_eq!((q.at, q.flow), (SimTime::from_ps(7_000), 17));
    }
}
