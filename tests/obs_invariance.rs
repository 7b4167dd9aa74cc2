//! The metrics snapshot and the activity timeline are pure observation:
//! the shared harness in `tests/common` runs their probe subsets against
//! the plain run and checks fleet digests under them.
//! `tests/observation_invariance.rs` covers every subset of all four
//! probes.

mod common;

use common::{OBS, TIMELINE};

#[test]
fn metrics_snapshot_never_perturbs_any_mediator() {
    common::assert_subsets_pure(&[OBS]);
}

#[test]
fn fleet_digest_is_invariant_under_timeline_sampling() {
    common::assert_fleet_digest_invariant(&[TIMELINE, OBS | TIMELINE]);
}

#[test]
fn fleet_digest_is_invariant_under_obs_and_worker_count() {
    common::assert_fleet_digest_invariant(&[OBS]);
}
