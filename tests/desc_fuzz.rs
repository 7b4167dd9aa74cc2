//! Description-driven fuzzing and construction-equivalence suite.
//!
//! The seeded topology fuzzer ([`DescFuzzer`]) generates hundreds of
//! system/scenario descriptions — permuted memory maps, varied clock
//! plans, PELS shapes and stimuli — and every accepted description must
//! (a) survive the JSON round trip bit-identically, and (b) produce a
//! bit-identical measured report under fast and naive host scheduling
//! (the same differential the hand-written `tests/active_path.rs` suite
//! runs on the paper presets). Deliberately broken descriptions must be
//! rejected with a [`DescError`] that names the offending JSON path.
//!
//! A last test pins the sweep layer to the descriptions it expands: a
//! `SweepSpec` job and the same [`ScenarioDesc`] built by hand must
//! measure identically, down to the fleet digest.

use pels_fleet::{FleetEngine, SweepSpec};
use pels_repro::desc::{DescFuzzer, FuzzCase};
use pels_repro::soc::{ExecMode, Mediator, Scenario, ScenarioDesc, SystemDesc};

/// Generate→validate→differential iterations (the ISSUE floor is 200).
const ITERATIONS: usize = 240;
const SEED: u64 = 0x5EED_DE5C;

#[test]
fn fuzzed_descriptions_round_trip_and_run_differentially() {
    let mut fuzzer = DescFuzzer::new(SEED);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for i in 0..ITERATIONS {
        match fuzzer.next_case() {
            FuzzCase::Valid(desc) => {
                desc.validate()
                    .unwrap_or_else(|e| panic!("iter {i}: generated-valid desc rejected: {e}"));

                // (a) JSON round trip is the identity.
                let json = desc.to_json();
                let back = ScenarioDesc::from_json(&json)
                    .unwrap_or_else(|e| panic!("iter {i}: emitted JSON fails to parse: {e}"));
                assert_eq!(back, desc, "iter {i}: round trip is not the identity");

                // (b) fast-vs-naive differential: the host scheduling
                // strategy must never perturb the measured report.
                let fast = Scenario::from_desc(desc.clone())
                    .unwrap_or_else(|e| panic!("iter {i}: from_desc: {e}"))
                    .try_run()
                    .unwrap_or_else(|e| panic!("iter {i}: fast run: {e}"));
                let mut naive_desc = desc;
                naive_desc.exec = ExecMode::Naive;
                let naive = Scenario::from_desc(naive_desc)
                    .unwrap_or_else(|e| panic!("iter {i}: from_desc(naive): {e}"))
                    .try_run()
                    .unwrap_or_else(|e| panic!("iter {i}: naive run: {e}"));

                assert_eq!(fast.events_completed, naive.events_completed, "iter {i}: events");
                assert_eq!(fast.latencies, naive.latencies, "iter {i}: latencies");
                assert_eq!(fast.stats, naive.stats, "iter {i}: LinkingStats");
                assert_eq!(fast.active_window, naive.active_window, "iter {i}: active window");
                assert_eq!(fast.idle_window, naive.idle_window, "iter {i}: idle window");
                assert_eq!(fast.trace.entries(), naive.trace.entries(), "iter {i}: trace");
                assert_eq!(
                    fast.active_activity, naive.active_activity,
                    "iter {i}: active-window activity"
                );
                assert_eq!(
                    fast.idle_activity, naive.idle_activity,
                    "iter {i}: idle-window activity"
                );
                accepted += 1;
            }
            FuzzCase::Invalid { desc, broke } => {
                let err = desc
                    .validate()
                    .expect_err(&format!("iter {i}: broken desc ({broke}) validated"));
                assert!(
                    err.path.starts_with('/'),
                    "iter {i} ({broke}): diagnostic path {:?} is not a JSON path",
                    err.path
                );
                assert!(!err.message.is_empty(), "iter {i} ({broke}): empty message");
                assert!(
                    Scenario::from_desc(desc).is_err(),
                    "iter {i} ({broke}): from_desc accepted a broken desc"
                );
                rejected += 1;
            }
        }
    }
    assert_eq!(accepted + rejected, ITERATIONS);
    assert!(accepted >= 150, "only {accepted} accepted cases — fuzzer drifted");
    assert!(rejected >= 10, "only {rejected} rejected cases — fuzzer drifted");
}

#[test]
fn shipped_corpus_round_trips_bit_identically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/descs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/descs exists (regenerate with `reproduce -- desc`)")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 10, "corpus went thin: {} files", paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("corpus file readable");
        let ctx = path.display();
        // Scenario documents nest the system; the rest are bare systems.
        match ScenarioDesc::from_json(&text) {
            Ok(desc) => {
                let back = ScenarioDesc::from_json(&desc.to_json())
                    .unwrap_or_else(|e| panic!("{ctx}: re-parse: {e}"));
                assert_eq!(back, desc, "{ctx}: scenario round trip");
            }
            Err(_) => {
                let desc = SystemDesc::from_json(&text)
                    .unwrap_or_else(|e| panic!("{ctx}: neither scenario nor system: {e}"));
                let back = SystemDesc::from_json(&desc.to_json())
                    .unwrap_or_else(|e| panic!("{ctx}: re-parse: {e}"));
                assert_eq!(back, desc, "{ctx}: system round trip");
            }
        }
    }
}

#[test]
fn fleet_digest_identical_for_sweep_and_hand_built_desc_jobs() {
    let mediators = [Mediator::PelsSequenced, Mediator::IbexIrq];
    let via_spec = FleetEngine::new(1)
        .run_sweep(&SweepSpec::new().mediators(&mediators))
        .expect("spec is valid");
    let jobs: Vec<(String, Scenario)> = mediators
        .iter()
        .map(|&m| {
            let desc = ScenarioDesc {
                mediator: m,
                ..ScenarioDesc::default()
            };
            let label = format!("{m}@55MHz links1 shared round-robin");
            (label, Scenario::from_desc(desc).expect("desc is valid"))
        })
        .collect();
    let via_desc = FleetEngine::new(1).run_scenarios(&jobs);
    assert_eq!(
        via_spec.digest(),
        via_desc.digest(),
        "description-built jobs must hash identically to the sweep's"
    );
}
