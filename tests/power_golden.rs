//! Golden pin of every power, energy and lifetime figure.
//!
//! The power layer is pure floating-point post-processing over activity
//! counts, so any change to its summation order shows up as a flipped
//! low bit somewhere in a report. These tests dump the `f64::to_bits`
//! of every value the layer produces — per-report component and kind
//! powers, every power-timeline sample, the energy-ledger blame table
//! and the battery projection — and pin the dump's digest alongside a
//! few headline values, so a refactor of the evaluator has to reproduce
//! them bit-for-bit.
//!
//! On a mismatch the assertion message carries the whole dump; diff it
//! against a dump from a known-good revision to find the first value
//! that moved.

use std::fmt::Write as _;

use pels_power::{Calibration, PowerModel, PowerReport};
use pels_repro::soc::{Mediator, Scenario, ScenarioDesc, ScenarioReport};
use pels_sim::{ActivityKind, ActivitySet, SimTime};

/// Accumulates `label = bits` lines.
#[derive(Default)]
struct Dump(String);

impl Dump {
    fn f(&mut self, label: impl std::fmt::Display, v: f64) {
        let _ = writeln!(self.0, "{label} = {:016x}", v.to_bits());
    }

    fn u(&mut self, label: impl std::fmt::Display, v: u64) {
        let _ = writeln!(self.0, "{label} = {v}");
    }

    /// FNV-1a over the dump text.
    fn digest(&self) -> u64 {
        self.0.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn report(&mut self, tag: &str, r: &PowerReport) {
        self.f(format_args!("{tag}.total_uw"), r.total().as_uw());
        self.f(format_args!("{tag}.memory_uw"), r.memory_system().as_uw());
        self.f(format_args!("{tag}.constant_uw"), r.constant().as_uw());
        for (i, c) in r.components().iter().enumerate() {
            let name = &c.name;
            self.f(
                format_args!("{tag}.c{i}.{name}.dynamic_uw"),
                c.dynamic.as_uw(),
            );
            self.f(
                format_args!("{tag}.c{i}.{name}.leakage_uw"),
                c.leakage.as_uw(),
            );
        }
        for k in ActivityKind::ALL {
            self.f(format_args!("{tag}.kind.{k}_pj"), r.kind_energy(k).as_pj());
        }
    }

    fn scenario(&mut self, tag: &str, report: &ScenarioReport) {
        let model = report.power_model();
        self.report(&format!("{tag}.active"), &report.active_power(&model));
        self.report(&format!("{tag}.idle"), &report.idle_power(&model));
        if let Some(timeline) = report.power_timeline(&model) {
            for (i, s) in timeline.windows().enumerate() {
                self.u(format_args!("{tag}.sample{i}.start_ps"), s.start.as_ps());
                self.u(format_args!("{tag}.sample{i}.end_ps"), s.end.as_ps());
                self.f(format_args!("{tag}.sample{i}.total_uw"), s.total_uw);
                for (name, uw) in &s.components {
                    self.f(format_args!("{tag}.sample{i}.{name}_uw"), *uw);
                }
            }
        }
        let ledger = report
            .energy
            .as_ref()
            .expect("lifetime scenarios carry a ledger");
        self.u(format_args!("{tag}.ledger.span_ps"), ledger.span().as_ps());
        self.u(
            format_args!("{tag}.ledger.windows"),
            ledger.windows() as u64,
        );
        self.f(format_args!("{tag}.ledger.total_uj"), ledger.total_uj());
        self.f(format_args!("{tag}.ledger.floor_uj"), ledger.floor_uj());
        self.f(
            format_args!("{tag}.ledger.mean_uw"),
            ledger.mean_power().as_uw(),
        );
        for row in ledger.blame() {
            self.f(format_args!("{tag}.blame.{}.uj", row.name), row.uj);
            self.f(format_args!("{tag}.blame.{}.share", row.name), row.share);
        }
        let life = report
            .lifetime
            .as_ref()
            .expect("lifetime scenarios carry a projection");
        self.f(format_args!("{tag}.life.seconds"), life.seconds);
        self.f(format_args!("{tag}.life.mean_draw_uw"), life.mean_draw_uw);
        self.f(format_args!("{tag}.life.usable_uj"), life.usable_uj);
        for b in &life.blame {
            self.f(format_args!("{tag}.life.{}.uw", b.name), b.uw);
            self.f(format_args!("{tag}.life.{}.days", b.name), b.days_cost);
        }
    }
}

/// Asserts one pinned value, printing the full dump on mismatch.
fn pin(dump: &Dump, label: &str, want_bits: u64, got: f64) {
    assert_eq!(
        got.to_bits(),
        want_bits,
        "{label}: got {got} ({:016x}); full dump:\n{}",
        got.to_bits(),
        dump.0
    );
}

fn pin_digest(dump: &Dump, want: u64) {
    assert_eq!(
        dump.digest(),
        want,
        "power dump digest moved; full dump:\n{}",
        dump.0
    );
}

fn duty_cycled(mediator: Mediator) -> ScenarioReport {
    Scenario::duty_cycled(mediator, SimTime::from_us(50), SimTime::from_ms(1)).run()
}

#[test]
fn duty_cycled_pels_power_and_lifetime_are_pinned() {
    let report = duty_cycled(Mediator::PelsSequenced);
    let mut dump = Dump::default();
    dump.scenario("pels", &report);
    let model = report.power_model();
    pin(
        &dump,
        "active_uw",
        0x4086_a1bb_7a83_ce6c,
        report.active_power(&model).total().as_uw(),
    );
    pin(
        &dump,
        "idle_uw",
        0x4085_b78e_6ec8_27f1,
        report.idle_power(&model).total().as_uw(),
    );
    pin(
        &dump,
        "ledger_uj",
        0x3fe7_2ee4_0971_6772,
        report.energy.as_ref().unwrap().total_uj(),
    );
    pin(
        &dump,
        "seconds",
        0x4147_2875_6459_caae,
        report.lifetime.as_ref().unwrap().seconds,
    );
    pin_digest(&dump, 0xaaf9_6905_fd66_5f05);
}

#[test]
fn duty_cycled_irq_power_and_lifetime_are_pinned() {
    let report = duty_cycled(Mediator::IbexIrq);
    let mut dump = Dump::default();
    dump.scenario("irq", &report);
    let model = report.power_model();
    pin(
        &dump,
        "active_uw",
        0x4086_e50d_001c_38aa,
        report.active_power(&model).total().as_uw(),
    );
    pin(
        &dump,
        "idle_uw",
        0x4085_bbde_ad81_a324,
        report.idle_power(&model).total().as_uw(),
    );
    pin(
        &dump,
        "ledger_uj",
        0x3fe7_744f_6883_4f60,
        report.energy.as_ref().unwrap().total_uj(),
    );
    pin(
        &dump,
        "seconds",
        0x4146_df29_63a0_3b35,
        report.lifetime.as_ref().unwrap().seconds,
    );
    pin_digest(&dump, 0xf658_fb28_5499_c7bc);
}

#[test]
fn no_timeline_lifetime_fallback_is_pinned() {
    let report = Scenario::from_desc(ScenarioDesc {
        mediator: Mediator::IbexIrq,
        events: 5,
        lifetime: true,
        ..ScenarioDesc::default()
    })
    .unwrap()
    .run();
    assert!(
        report.timeline.is_none(),
        "the fallback path integrates one window"
    );
    let mut dump = Dump::default();
    dump.scenario("fallback", &report);
    pin(
        &dump,
        "ledger_uj",
        0x3f7b_acaa_44aa_9817,
        report.energy.as_ref().unwrap().total_uj(),
    );
    pin(
        &dump,
        "seconds",
        0x4139_de14_b194_70ed,
        report.lifetime.as_ref().unwrap().seconds,
    );
    pin_digest(&dump, 0x3af1_8528_72f6_b03d);
}

#[test]
fn report_with_unregistered_and_zero_area_components_is_pinned() {
    let mut model = PowerModel::new(Calibration::default());
    model
        .add_component("ibex", 27.0)
        .add_component("sram", 0.0)
        .add_component("pels.link0", 5.0)
        .add_component("golden-idle", 3.0);
    let mut a = ActivitySet::new();
    a.record_named("ibex", ActivityKind::ClockCycle, 1_000);
    a.record_named("ibex", ActivityKind::InstrRetired, 640);
    a.record_named("ibex", ActivityKind::InstrFetch, 700);
    a.record_named("ibex", ActivityKind::RegRead, 1_100);
    a.record_named("ibex", ActivityKind::SramRead, 3);
    a.record_named("sram", ActivityKind::ClockCycle, 1_000);
    a.record_named("sram", ActivityKind::SramRead, 710);
    a.record_named("sram", ActivityKind::SramWrite, 90);
    a.record_named("pels.link0", ActivityKind::ClockCycle, 1_000);
    a.record_named("pels.link0", ActivityKind::ScmRead, 48);
    a.record_named("pels.link0", ActivityKind::EventPulse, 7);
    // Never registered: event energy only, no clock or leakage share.
    a.record_named("golden-mystery", ActivityKind::ClockCycle, 1_000);
    a.record_named("golden-mystery", ActivityKind::BusTransfer, 33);
    let r = model.report(&a, SimTime::from_ns(10_007));
    let mut dump = Dump::default();
    dump.report("model", &r);
    pin(&dump, "total_uw", 0x40a4_a739_3053_1734, r.total().as_uw());
    pin(
        &dump,
        "memory_uw",
        0x4099_def7_c9c4_1634,
        r.memory_system().as_uw(),
    );
    pin_digest(&dump, 0xe905_9f40_e612_dc6e);
}
