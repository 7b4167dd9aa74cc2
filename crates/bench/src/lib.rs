//! # pels-bench — regenerating every table and figure of the paper
//!
//! One module per evaluation artifact:
//!
//! * [`sota`] — **Table I**: the feature comparison of autonomous
//!   peripheral-event handling systems;
//! * [`experiments`] — **Figure 3** (per-stage command latencies),
//!   **Figure 5** (iso-latency / iso-frequency power), the **Section
//!   IV-B latency comparison** (2 / 7 / 16 cycles), **Figure 6a** (area
//!   sweep) and **Figure 6b** (PULPissimo area breakdown);
//! * [`ablations`] — the design-choice studies DESIGN.md calls out:
//!   private SCM vs shared-memory fetch, trigger-FIFO depth, arbitration
//!   policy and fabric topology;
//! * [`lifetime`] — the days-of-battery projection of a duty-cycled
//!   node, PELS against the interrupt baseline, and its sweep.
//!
//! The `reproduce` binary renders all of them as text tables, and the
//! unit tests assert their results. The simulator's speed is measured
//! by the separate `perfbench` package at the repository root alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod experiments;
pub mod lifetime;
pub mod sota;
