//! # pels-obs — unified metrics, profiling, and trace export
//!
//! After three rounds of fast-path work (interned recording, quiescence
//! skipping, the decoded-instruction cache, active-slave scheduling) the
//! simulator had no way to show whether those machines actually engage on
//! a given workload. This crate is the observability layer the rest of
//! the workspace publishes into:
//!
//! * [`metrics`] — a [`MetricsSnapshot`]: named counters and gauges in
//!   one sorted map. Layers *publish* into it at observation points,
//!   after a run (`Soc::publish_metrics`, `FleetReport::publish_metrics`,
//!   …); the hot simulation loops keep their own plain-`u64` counters,
//!   so instrumentation can never perturb architectural results — the
//!   differential test in `tests/observation_invariance.rs` proves
//!   obs-on and obs-off runs are bit-identical.
//! * [`profile`] — a host-time span profiler: [`profile::span`] guards
//!   around run loops, fleet jobs and bench phases aggregate per-span
//!   call counts and total/self time into a rendered hierarchical
//!   report, and keep the raw intervals for Chrome trace export. Globally
//!   disabled by default; a disabled `span()` is one relaxed atomic load.
//! * [`chrome`] — serializes the simulated-time [`pels_sim::Trace`] and
//!   the host-time span intervals to Chrome trace-event JSON, loadable
//!   in Perfetto / `chrome://tracing`.
//! * [`flow`] — per-stage latency attribution over the causal
//!   [`pels_sim::FlowTrace`]: a mergeable [`FlowReport`] whose per-stage
//!   cycle sums telescope to exactly the end-to-end latencies — the
//!   "where do the cycles go?" blame table behind `OBS_flows.json`.
//! * [`hist`] — a mergeable log-bucketed [`Histogram`] (exact buckets
//!   below 64, 16 sub-buckets per octave above, so quantiles carry a
//!   ≤ 1/16 relative-error bound) plus the [`hist::sparkline`] render —
//!   the distribution layer behind per-scenario latency histograms and
//!   the fleet's deterministic cross-job merge.
//! * [`json`] — the tiny hand-rolled JSON writer/parser the exporters
//!   and the `obs_check` schema gate share (no serde in the offline
//!   dependency graph).
//!
//! ## Example
//!
//! ```
//! use pels_obs::MetricsSnapshot;
//! let mut run = MetricsSnapshot::default();
//! run.set("cpu.decode_cache.hits", 41);
//! let mut total = MetricsSnapshot::default();
//! total.absorb(&run);
//! total.absorb(&run);
//! assert_eq!(total.get("cpu.decode_cache.hits"), Some(82));
//! assert!(total.to_json().contains("\"cpu.decode_cache.hits\": 82"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod flow;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;

pub use chrome::ChromeTrace;
pub use flow::{FlowReport, StageRow};
pub use hist::Histogram;
pub use metrics::MetricsSnapshot;
pub use profile::{ProfileReport, SpanEvent, SpanGuard, SpanStats};
