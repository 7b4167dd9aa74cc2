//! Integration coverage for the string-keyed [`Trace`] query helpers and
//! [`ActivitySet`] aggregation/export — the two read paths every report,
//! power model and observability exporter in the workspace leans on.
//!
//! Component names are prefixed `ta-` so the global interning registry is
//! never shared with other tests.

use pels_sim::vcd::trace_to_vcd;
use pels_sim::{ActivityKind, ActivitySet, ComponentId, SimTime, Trace};

fn sample_trace() -> Trace {
    let spi = ComponentId::intern("ta-spi");
    let gpio = ComponentId::intern("ta-gpio");
    let mut t = Trace::with_entries();
    t.record(SimTime::from_ns(10), spi, "eot", 0);
    t.record(SimTime::from_ns(10), gpio, "set", 1); // same instant as the start
    t.record(SimTime::from_ns(100), spi, "eot", 1);
    t.record(SimTime::from_ns(170), gpio, "set", 0);
    t.record(SimTime::from_ns(300), spi, "eot", 2); // start with no matching end
    t
}

#[test]
fn string_queries_distinguish_unknown_source_from_unknown_label() {
    let t = sample_trace();
    // A name that was never interned anywhere must read as absent...
    assert!(t.first("ta-never-interned", "eot").is_none());
    assert!(t.all("ta-never-interned", "eot").is_empty());
    // ...and so must a known source with a label it never recorded.
    assert!(t.first("ta-spi", "ta-no-such-label").is_none());
    assert_eq!(t.all("ta-spi", "eot").len(), 3);
}

#[test]
fn latencies_all_drops_unmatched_trailing_starts() {
    let t = sample_trace();
    let (ls, _) = t.latencies_and_count(("ta-spi", "eot"), ("ta-gpio", "set"));
    // Three eot starts, two set ends: the 300 ns start has no end left.
    // The first end shares its start's instant and still counts (>=, not
    // >): a same-cycle consumer measures 0.
    assert_eq!(
        ls.iter().map(|l| l.as_ns()).collect::<Vec<_>>(),
        vec![0, 70]
    );
    // A consumer that never recorded yields no measurement.
    let (none, ends) = t.latencies_and_count(("ta-gpio", "set"), ("ta-never-interned", "x"));
    assert!(none.is_empty());
    assert_eq!(ends, 0);
}

#[test]
fn activity_merge_then_delta_roundtrips() {
    let cpu = ComponentId::intern("ta-cpu");
    let bus = ComponentId::intern("ta-bus");
    let mut base = ActivitySet::new();
    base.record(cpu, ActivityKind::InstrRetired, 100);
    base.record(bus, ActivityKind::BusTransfer, 40);

    let mut window = ActivitySet::new();
    window.record(cpu, ActivityKind::InstrRetired, 7);
    window.record(bus, ActivityKind::BusStall, 3);

    let mut merged = base.clone();
    merged.merge(&window);
    assert_eq!(merged.count("ta-cpu", ActivityKind::InstrRetired), 107);
    assert_eq!(merged.kind_total(ActivityKind::BusTransfer), 40);

    // Subtracting the baseline recovers exactly the window.
    assert_eq!(merged.delta_from(&base), window);
    // And merging an empty set is the identity.
    merged.merge(&ActivitySet::new());
    assert_eq!(merged.count("ta-bus", ActivityKind::BusStall), 3);
}

#[test]
fn activity_export_order_is_stable_across_recording_order() {
    let a = ComponentId::intern("ta-export-a");
    let b = ComponentId::intern("ta-export-b");
    let mut fwd = ActivitySet::new();
    fwd.record(a, ActivityKind::RegRead, 1);
    fwd.record(b, ActivityKind::RegWrite, 2);
    let mut rev = ActivitySet::new();
    rev.record(b, ActivityKind::RegWrite, 2);
    rev.record(a, ActivityKind::RegRead, 1);
    // iter() sorts by name then kind, so export order is independent of
    // the order events were recorded in (the determinism the fleet's
    // digest relies on).
    assert_eq!(fwd.iter().collect::<Vec<_>>(), rev.iter().collect::<Vec<_>>());
    assert_eq!(fwd.to_string(), rev.to_string());
    let rendered = fwd.to_string();
    assert!(rendered.contains("ta-export-a"));
    assert!(rendered.contains("reg_write"));
}

#[test]
fn vcd_bridge_declares_one_signal_per_track() {
    let t = sample_trace();
    let doc = trace_to_vcd(&t, None, "ta");
    assert_eq!(doc.matches("$var wire 1").count(), 2, "spi.eot + gpio.set");
    assert!(doc.contains("ta-spi.eot"));
    assert!(doc.contains("ta-gpio.set"));
    // Every event pulses: 3 eot + 2 set = 5 rising edges.
    assert_eq!(doc.matches("\n1!").count() + doc.matches("\n1\"").count(), 5);
}
