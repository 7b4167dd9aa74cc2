//! Causal flow recording is pure observation: the shared harness in
//! `tests/common` runs the flow probe, alone and with the metrics and
//! timeline probes, against the plain run and checks fleet digests under
//! it. `tests/observation_invariance.rs` runs every other subset of the
//! four probes.

mod common;

use common::{FLOWS, OBS, TIMELINE};

#[test]
fn flow_recording_never_perturbs_any_mediator_or_exec_mode() {
    common::assert_subsets_pure(&[FLOWS]);
}

#[test]
fn flows_compose_with_full_observability() {
    common::assert_subsets_pure(&[OBS | TIMELINE | FLOWS]);
}

#[test]
fn fleet_digest_is_invariant_under_flow_recording() {
    common::assert_fleet_digest_invariant(&[FLOWS]);
}
