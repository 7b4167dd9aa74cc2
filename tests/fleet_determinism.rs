//! Fleet determinism: scheduling must never leak into results.
//!
//! The contract under test: the same `SweepSpec` reduced on 1, 2, and N
//! workers yields **bit-identical** `FleetReport`s — same job order, same
//! latencies, same `f64` power bit patterns — and a job that fails does
//! so in its own slot without poisoning its siblings.

use pels_fleet::{FleetEngine, JobError, SweepSpec};
use pels_soc::{Mediator, Scenario, ScenarioDesc, ScenarioError, SensorKind};

fn reference_spec() -> SweepSpec {
    SweepSpec::over(ScenarioDesc {
        events: 5,
        ..ScenarioDesc::default()
    })
    .mediators(&[Mediator::PelsSequenced, Mediator::PelsInstant])
    .freqs_mhz(&[27.0, 55.0])
    .links(&[1, 4])
}

#[test]
fn reports_are_bit_identical_across_worker_counts() {
    let spec = reference_spec();
    let one = FleetEngine::new(1).run_sweep(&spec).expect("valid spec");
    let two = FleetEngine::new(2).run_sweep(&spec).expect("valid spec");
    let many = FleetEngine::new(8).run_sweep(&spec).expect("valid spec");

    assert_eq!(one.jobs.len(), 8);
    assert_eq!(one.digest(), two.digest(), "1 vs 2 workers");
    assert_eq!(one.digest(), many.digest(), "1 vs 8 workers");

    // The digest covers everything simulation-derived; spot-check the
    // strongest fields directly too, including exact f64 bit patterns.
    for (a, b) in one.jobs.iter().zip(&many.jobs) {
        assert_eq!(a.label, b.label, "input order is preserved");
        let (oa, ob) = (
            a.result.as_ref().expect("job succeeded"),
            b.result.as_ref().expect("job succeeded"),
        );
        assert_eq!(oa.report.latencies, ob.report.latencies, "{}", a.label);
        assert_eq!(
            oa.active_uw.to_bits(),
            ob.active_uw.to_bits(),
            "{}: active power must be bit-identical",
            a.label
        );
        assert_eq!(
            oa.idle_uw.to_bits(),
            ob.idle_uw.to_bits(),
            "{}: idle power must be bit-identical",
            a.label
        );
    }
}

#[test]
fn repeated_runs_on_the_same_engine_are_stable() {
    let spec = SweepSpec::over(ScenarioDesc {
        events: 3,
        ..ScenarioDesc::default()
    });
    let engine = FleetEngine::new(4);
    let a = engine.run_sweep(&spec).expect("valid spec");
    let b = engine.run_sweep(&spec).expect("valid spec");
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn failing_job_is_isolated_to_its_own_slot() {
    // Job 1 of 4 uses a below-threshold sensor: readouts happen but no
    // linking event ever completes, so try_run fails with NoEvents.
    let good = |events| {
        Scenario::from_desc(ScenarioDesc {
            events,
            ..ScenarioDesc::default()
        })
        .expect("valid scenario")
    };
    let mut bad = ScenarioDesc {
        events: 3,
        ..ScenarioDesc::default()
    };
    bad.system.sensor = SensorKind::Constant(1.0);
    let bad = Scenario::from_desc(bad).expect("builds fine; fails at run time");
    let jobs = vec![
        ("good-a".to_string(), good(4)),
        ("bad".to_string(), bad),
        ("good-b".to_string(), good(5)),
        ("good-c".to_string(), good(6)),
    ];
    let report = FleetEngine::new(2).run_scenarios(&jobs);

    assert_eq!(report.jobs.len(), 4);
    assert_eq!(report.succeeded().count(), 3, "siblings unaffected");
    let (label, err) = report.failed().next().expect("one failure");
    assert_eq!(label, "bad");
    match err {
        JobError::Scenario(ScenarioError::NoEvents { mediator, .. }) => {
            assert_eq!(*mediator, Mediator::PelsSequenced);
        }
        other => panic!("expected NoEvents, got {other:?}"),
    }
    // And the failure is deterministic too: the digest (which folds in
    // the error text) matches a serial run.
    let serial = FleetEngine::new(1).run_scenarios(&jobs);
    assert_eq!(report.digest(), serial.digest());
}

#[test]
fn invalid_sweep_axis_is_rejected_before_any_simulation() {
    let cases = [
        (SweepSpec::new().links(&[0]), "/system/pels/links"),
        (SweepSpec::new().freqs_mhz(&[0.0]), "/system/freq_mhz"),
        (SweepSpec::new().freqs_mhz(&[f64::NAN]), "/system/freq_mhz"),
        (SweepSpec::new().freqs_mhz(&[1e7]), "/system/freq_mhz"),
        (SweepSpec::new().freqs_mhz(&[0.0001]), "/system/freq_mhz"),
        (
            SweepSpec::new().sample_periods_us(&[u64::MAX / 1_000_000 + 1]),
            "/sample_period_ps",
        ),
    ];
    for (spec, path) in cases {
        match FleetEngine::new(2).run_sweep(&spec) {
            Err(ScenarioError::Desc(e)) => assert_eq!(e.path, path),
            other => panic!("expected a description rejection at {path}, got {other:?}"),
        }
    }
}

/// The three sweeps whose expansion is pinned below: the reference
/// 8-job fleet sweep at 5 events, the quick lifetime sweep of
/// `reproduce -- lifetime --quick`, and the empty spec.
fn pinned_specs() -> [SweepSpec; 3] {
    [
        reference_spec(),
        SweepSpec::over(ScenarioDesc {
            lifetime: true,
            ..ScenarioDesc::default()
        })
        .mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq])
        .sample_periods_us(&[100, 500])
        .spi_word_counts(&[1, 4]),
        SweepSpec::new(),
    ]
}

#[test]
fn sweep_labels_and_digests_are_pinned() {
    let pins: [(&[&str], u64); 3] = [
        (
            &[
                "pels-sequenced@27MHz links1 shared round-robin",
                "pels-sequenced@27MHz links4 shared round-robin",
                "pels-sequenced@55MHz links1 shared round-robin",
                "pels-sequenced@55MHz links4 shared round-robin",
                "pels-instant@27MHz links1 shared round-robin",
                "pels-instant@27MHz links4 shared round-robin",
                "pels-instant@55MHz links1 shared round-robin",
                "pels-instant@55MHz links4 shared round-robin",
            ],
            0x2073_0fe3_9918_ee05,
        ),
        (
            &[
                "pels-sequenced@55MHz links1 shared round-robin T100us W1",
                "pels-sequenced@55MHz links1 shared round-robin T100us W4",
                "pels-sequenced@55MHz links1 shared round-robin T500us W1",
                "pels-sequenced@55MHz links1 shared round-robin T500us W4",
                "ibex-irq@55MHz links1 shared round-robin T100us W1",
                "ibex-irq@55MHz links1 shared round-robin T100us W4",
                "ibex-irq@55MHz links1 shared round-robin T500us W1",
                "ibex-irq@55MHz links1 shared round-robin T500us W4",
            ],
            0xe6a1_5052_9f2e_663e,
        ),
        (
            &["pels-sequenced@55MHz links1 shared round-robin"],
            0xb450_4465_3ee4_29db,
        ),
    ];
    for (spec, (labels, digest)) in pinned_specs().iter().zip(pins) {
        let report = FleetEngine::new(2).run_sweep(spec).expect("valid spec");
        let got: Vec<&str> = report.jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(got, labels);
        assert_eq!(report.failed().count(), 0);
        assert_eq!(report.digest(), digest, "digest {:#018x}", report.digest());
    }
}
