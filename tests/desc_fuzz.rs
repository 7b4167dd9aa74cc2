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
//! The codec's no-panic contract is checked on boundary mutants of the
//! shipped corpus: every scenario document under `examples/descs/`, with
//! one to three numeric literals replaced by a boundary value, must be
//! rejected with a typed error or build and run.
//!
//! A last test pins the sweep layer to the descriptions it expands: a
//! `SweepSpec` job and the same [`ScenarioDesc`] built by hand must
//! measure identically, down to the fleet digest.

mod common;

use pels_fleet::{FleetEngine, SweepSpec};
use pels_repro::desc::{DescFuzzer, FuzzCase};
use pels_repro::sim::Rng;
use pels_repro::soc::{ExecMode, Mediator, Scenario, ScenarioDesc, ScenarioError, SystemDesc};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

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

                common::assert_same_measurement(&fast, &naive, &format!("iter {i}"));
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

/// The committed corpus files, sorted by name.
fn corpus_paths() -> Vec<PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/descs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/descs exists (regenerate with `reproduce -- desc`)")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn shipped_corpus_round_trips_bit_identically() {
    let paths = corpus_paths();
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

/// Values every numeric field must survive: the edges of `u32`, `u64`
/// and exact `f64` integers, one past each, a huge float, a negative
/// and a fraction.
const BOUNDARY_VALUES: [&str; 10] = [
    "0",
    "1",
    "4294967295",
    "4294967296",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "1e300",
    "-1",
    "0.5",
];
const BOUNDARY_MUTANTS: usize = 10_000;
/// Mutants whose active window fits this many cycles are also run.
const RUNNABLE_BUDGET: u64 = 100_000;

/// Byte ranges of the numeric literals of a JSON document (string
/// contents skipped).
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                spans.push((start, i));
            }
            _ => i += 1,
        }
    }
    spans
}

/// The no-panic contract of the description layer: a decoded, validated
/// description always builds, and a run within a small budget either
/// measures or reports [`ScenarioError::NoEvents`].
#[test]
fn boundary_mutants_of_the_corpus_never_panic() {
    let scenarios: Vec<(PathBuf, String)> = corpus_paths()
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("corpus file readable");
            (p, text)
        })
        .filter(|(_, text)| ScenarioDesc::from_json(text).is_ok())
        .collect();
    assert!(scenarios.len() >= 8, "corpus went thin: {} scenarios", scenarios.len());

    let mut rng = Rng::seed_from_u64(0xB0DA_12E5);
    let (mut decode_err, mut desc_err, mut built, mut ran) = (0usize, 0usize, 0usize, 0usize);
    for i in 0..BOUNDARY_MUTANTS {
        let (path, text) = &scenarios[rng.index(scenarios.len())];
        let spans = number_spans(text);
        let mut picks: Vec<usize> = (0..=rng.index(3)).map(|_| rng.index(spans.len())).collect();
        picks.sort_unstable();
        picks.dedup();
        let mut mutant = text.clone();
        for &p in picks.iter().rev() {
            let value = BOUNDARY_VALUES[rng.index(BOUNDARY_VALUES.len())];
            mutant.replace_range(spans[p].0..spans[p].1, value);
        }

        let Ok(desc) = ScenarioDesc::from_json(&mutant) else {
            decode_err += 1;
            continue;
        };
        let Ok(scenario) = Scenario::from_desc(desc) else {
            desc_err += 1;
            continue;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            scenario.build_soc();
            if scenario.cycle_budget() > RUNNABLE_BUDGET {
                return false;
            }
            match scenario.try_run() {
                Ok(_) | Err(ScenarioError::NoEvents { .. }) => true,
                Err(e) => panic!("try_run failed with {e}"),
            }
        }));
        match outcome {
            Ok(did_run) => {
                built += 1;
                ran += usize::from(did_run);
            }
            Err(_) => panic!(
                "mutant {i} of {} panicked after validating:\n{mutant}",
                path.display()
            ),
        }
    }
    assert_eq!(decode_err + desc_err + built, BOUNDARY_MUTANTS);
    for (stage, n) in [
        ("decode errors", decode_err),
        ("from_desc errors", desc_err),
        ("built", built),
        ("ran", ran),
    ] {
        assert!(n > 0, "no mutant reached {stage} — the mutation drifted");
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
