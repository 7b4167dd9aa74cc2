//! The energy ledger and battery projection are pure observation: the
//! shared harness in `tests/common` runs the lifetime probe, alone and
//! over a sampled timeline, against the plain run and checks fleet
//! digests under it. `tests/observation_invariance.rs` runs every other
//! subset of the four probes and pins what the ledger records.

mod common;

use common::{LIFETIME, TIMELINE};

#[test]
fn energy_ledger_never_perturbs_any_mediator() {
    common::assert_subsets_pure(&[LIFETIME, LIFETIME | TIMELINE]);
}

#[test]
fn fleet_digest_is_invariant_under_lifetime_and_worker_count() {
    common::assert_fleet_digest_invariant(&[LIFETIME | TIMELINE]);
}
