//! Schema gate for the observability artifacts.
//!
//! ```text
//! cargo run -p pels-bench --bin obs_check --release
//! ```
//!
//! Validates `OBS_metrics.json` (a flat object of non-negative integer
//! counters, with the decode-cache, scheduler and fleet-worker keys
//! present and nonzero), `OBS_trace.json` (well-formed
//! Chrome trace-event JSON that must include `"ph": "C"` power counter
//! tracks and `"ph": "s"`/`"f"` causal flow arrows),
//! `OBS_timeline.json` (at least one window, monotone contiguous
//! window timestamps, non-negative per-component power),
//! `OBS_flows.json` (per-mediator sections with complete flows, an
//! exemplar hop chain with monotone timestamps, and every stage drawn
//! from the [`pels_sim::FLOW_STAGES`] allowlist) and
//! `BENCH_lifetime.json` (battery parameters, a positive PELS-vs-IRQ
//! headline projection, non-empty sweep rows with positive mean draw
//! and a 16-hex-digit fleet digest) and `BENCH_fleet_throughput.json`
//! (the 8-job reference batch with no failed job, per-worker rows whose
//! job counts sum to the batch, and a 16-hex-digit digest).
//! `scripts/bench_smoke.sh` runs this after `reproduce -- fleet` and
//! `reproduce -- lifetime --quick --obs`, so any drift
//! in the exporters fails the tier-1 verify pass instead of silently
//! shipping broken artifacts.

use pels_obs::json::{self, Value};
use std::process::ExitCode;

/// Counters the reference `--obs` workload must drive to a nonzero
/// value: a zero here means the busy-CPU scenario or the fleet pass no
/// longer exercises that layer.
const NONZERO_KEYS: &[&str] = &[
    "cpu.cycles",
    "cpu.retired",
    "soc.sched.rebuilds",
    "soc.sched.sleeps",
    "fleet.jobs",
    "fleet.workers",
    "fleet.worker0.jobs",
    "power.energy.total_nj",
    "power.energy.span_us",
    "power.energy.windows",
    "power.energy.components",
    "battery.days_milli",
    "battery.mean_draw_nw",
    "battery.usable_mj",
    "battery.soc_points",
];

/// Every counter the energy ledger and battery projection publishers
/// may emit, by exact name — the schema side of
/// `EnergyLedger::metric_pairs` and `LifetimeReport::metric_pairs`. A
/// `power.energy.`- or `battery.`-prefixed key not listed here fails
/// the gate, same drift contract as [`KNOWN_CPU_SCHED_KEYS`].
const KNOWN_ENERGY_KEYS: &[&str] = &[
    "power.energy.total_nj",
    "power.energy.floor_nj",
    "power.energy.span_us",
    "power.energy.windows",
    "power.energy.components",
    "battery.days_milli",
    "battery.mean_draw_nw",
    "battery.usable_mj",
    "battery.soc_points",
];

/// Every counter the CPU and scheduler publishers may emit, by exact
/// name — the schema side of `Cpu::publish_metrics` and
/// `Soc::publish_metrics`. A `cpu.`-, `soc.sched.`- or
/// `soc.sprint.`-prefixed key in the snapshot that is not listed here
/// fails the gate: that is how producer renames and silent additions get
/// caught as drift instead of shipping two names for one counter. No
/// `soc.sprint.` key and no decoded-instruction cache counter is listed —
/// the sprint route and the cache were removed, so a publisher that
/// brings one back fails here. Extend this list in the
/// same change that adds or renames a published counter.
const KNOWN_CPU_SCHED_KEYS: &[&str] = &[
    "cpu.cycles",
    "cpu.retired",
    "cpu.fetches",
    "cpu.irq.entries",
    "cpu.irq.overhead_cycles",
    "cpu.sleep_cycles",
    "cpu.stall_cycles",
    "soc.sched.fast_cycles",
    "soc.sched.stirred_cycles",
    "soc.sched.naive_cycles",
    "soc.sched.skip_spans",
    "soc.sched.skipped_cycles",
    "soc.sched.rebuilds",
    "soc.sched.wakes",
    "soc.sched.sleeps",
];

fn check_metrics(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let obj = doc
        .as_object()
        .ok_or_else(|| format!("{path}: top level must be an object"))?;
    if obj.is_empty() {
        return Err(format!("{path}: empty metrics snapshot"));
    }
    for (key, value) in obj {
        value
            .as_u64()
            .ok_or_else(|| format!("{path}: `{key}` is not a non-negative integer"))?;
        if (key.starts_with("cpu.")
            || key.starts_with("soc.sched.")
            || key.starts_with("soc.sprint."))
            && !KNOWN_CPU_SCHED_KEYS.contains(&key.as_str())
        {
            return Err(format!(
                "{path}: counter `{key}` is not in the published schema — \
                 a producer renamed or added a `cpu.`/`soc.sched.`/`soc.sprint.` \
                 counter without updating KNOWN_CPU_SCHED_KEYS"
            ));
        }
        if (key.starts_with("power.energy.") || key.starts_with("battery."))
            && !KNOWN_ENERGY_KEYS.contains(&key.as_str())
        {
            return Err(format!(
                "{path}: counter `{key}` is not in the published schema — \
                 a producer renamed or added a `power.energy.`/`battery.` \
                 counter without updating KNOWN_ENERGY_KEYS"
            ));
        }
    }
    for key in NONZERO_KEYS {
        match doc.get(key).and_then(Value::as_u64) {
            None => return Err(format!("{path}: required counter `{key}` is missing")),
            Some(0) => {
                return Err(format!(
                    "{path}: counter `{key}` is zero — the reference workload \
                     no longer exercises it"
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

fn check_trace(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    pels_obs::chrome::validate(&text).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap_or_default();
    let ph = |e: &Value, want: &str| e.get("ph").and_then(Value::as_str) == Some(want);
    // The timeline exporter must have contributed counter tracks — a
    // trace of only instant events means the power-over-time view
    // silently disappeared from the artifact. The flow probes must have
    // contributed causal arrows; `validate` above already proved every
    // start has a matching finish and every flow event binds to an
    // anchor slice, so presence is all that is left to gate. The
    // battery projection must have contributed its state-of-charge
    // counter track alongside the power tracks.
    if !events.iter().any(|e| ph(e, "C")) {
        return Err(format!(
            "{path}: no `\"ph\": \"C\"` counter events — the power timeline \
             is missing from the trace"
        ));
    }
    if !events.iter().any(|e| ph(e, "s")) {
        return Err(format!(
            "{path}: no `\"ph\": \"s\"` flow events — the causal flow \
             arrows are missing from the trace"
        ));
    }
    let soc = |e: &Value| e.get("name").and_then(Value::as_str).is_some_and(|n| n.starts_with("battery_soc"));
    if !events.iter().any(|e| ph(e, "C") && soc(e)) {
        return Err(format!(
            "{path}: no `battery_soc` counter events — the state-of-charge \
             track is missing from the trace"
        ));
    }
    Ok(())
}

/// Validates `BENCH_lifetime.json`: battery parameters, a positive
/// finite PELS-vs-IRQ headline, non-empty sweep rows (each with a
/// label, mediator, duty-cycle point, positive mean draw and a positive
/// or null lifetime) and the 16-hex-digit fleet digest.
fn check_lifetime(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema_version").and_then(Value::as_u64) != Some(1) {
        return Err(format!("{path}: missing `schema_version` 1"));
    }
    let battery = doc
        .get("battery")
        .ok_or_else(|| format!("{path}: missing `battery` object"))?;
    for field in ["capacity_mah", "nominal_v", "rate_exponent", "cutoff_fraction"] {
        let v = battery
            .get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: missing numeric `battery.{field}`"))?;
        if v <= 0.0 {
            return Err(format!("{path}: `battery.{field}` = {v} is not positive"));
        }
    }
    let headline = doc
        .get("headline")
        .ok_or_else(|| format!("{path}: missing `headline` object"))?;
    for field in [
        "sample_period_us",
        "horizon_ms",
        "pels_days",
        "irq_days",
        "lifetime_ratio",
        "pels_mean_uw",
        "irq_mean_uw",
    ] {
        let v = headline
            .get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: missing numeric `headline.{field}`"))?;
        if v <= 0.0 {
            return Err(format!("{path}: `headline.{field}` = {v} is not positive"));
        }
    }
    let sweep = doc
        .get("sweep")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: missing `sweep` array"))?;
    if sweep.is_empty() {
        return Err(format!("{path}: sweep has no rows"));
    }
    for (i, row) in sweep.iter().enumerate() {
        let ctx = |msg: &str| format!("{path}: sweep row {i}: {msg}");
        for field in ["label", "mediator"] {
            row.get(field)
                .and_then(Value::as_str)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| ctx(&format!("missing non-empty string `{field}`")))?;
        }
        for field in ["sample_period_us", "spi_words", "mean_uw"] {
            let v = row
                .get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| ctx(&format!("missing numeric `{field}`")))?;
            if v <= 0.0 {
                return Err(ctx(&format!("`{field}` = {v} is not positive")));
            }
        }
        // `days` is null for a zero-draw projection, positive otherwise.
        match row.get("days") {
            Some(Value::Null) => {}
            Some(v) if v.as_f64().is_some_and(|d| d > 0.0) => {}
            _ => return Err(ctx("`days` must be positive or null")),
        }
    }
    check_digest(path, &doc)
}

/// The document's `digest` must be a 16-hex-digit fleet digest.
fn check_digest(path: &str, doc: &Value) -> Result<(), String> {
    let digest = doc
        .get("digest")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: missing string `digest`"))?;
    if digest.len() != 16 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("{path}: digest `{digest}` is not 16 hex digits"));
    }
    Ok(())
}

/// Validates `BENCH_fleet_throughput.json`: the 8-job reference batch
/// with no failed job, one `worker_stats` row per worker whose job
/// counts sum to `jobs`, and a 16-hex-digit fleet digest.
fn check_fleet(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let int = |v: &Value, key: &str, at: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{path}: {at}missing integer `{key}`"))
    };
    let jobs = int(&doc, "jobs", "")?;
    if jobs != 8 {
        return Err(format!("{path}: `jobs` = {jobs}, the reference batch has 8"));
    }
    let failed = int(&doc, "failed", "")?;
    if failed != 0 {
        return Err(format!("{path}: {failed} job(s) failed"));
    }
    let rows = doc
        .get("worker_stats")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: missing `worker_stats` array"))?;
    let workers = int(&doc, "workers", "")?;
    if rows.len() as u64 != workers {
        return Err(format!(
            "{path}: {} worker_stats row(s) for {workers} worker(s)",
            rows.len()
        ));
    }
    let mut attributed = 0;
    for (i, row) in rows.iter().enumerate() {
        attributed += int(row, "jobs", &format!("worker_stats row {i}: "))?;
    }
    if attributed != jobs {
        return Err(format!(
            "{path}: worker_stats attribute {attributed} job(s), the batch ran {jobs}"
        ));
    }
    check_digest(path, &doc)
}

/// Validates `OBS_flows.json`: every per-mediator section must carry a
/// non-empty flow report whose stage labels end in allowlisted stages,
/// and an exemplar hop chain with monotone timestamps and allowlisted
/// typed stages.
fn check_flows(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let obj = doc
        .as_object()
        .ok_or_else(|| format!("{path}: top level must be an object"))?;
    let stage_ok = |stage: &str| pels_sim::FLOW_STAGES.contains(&stage);
    let mut sections = 0usize;
    for (name, section) in obj {
        if name == "schema_version" {
            continue;
        }
        sections += 1;
        let ctx = |msg: &str| format!("{path}: section `{name}`: {msg}");
        section
            .get("freq_mhz")
            .and_then(Value::as_f64)
            .ok_or_else(|| ctx("missing numeric `freq_mhz`"))?;
        let report = section
            .get("report")
            .ok_or_else(|| ctx("missing `report` object"))?;
        match report.get("flows").and_then(Value::as_u64) {
            None => return Err(ctx("missing integer `report.flows`")),
            Some(0) => return Err(ctx("report has no complete flows")),
            Some(_) => {}
        }
        let stages = report
            .get("stages")
            .and_then(Value::as_object)
            .ok_or_else(|| ctx("missing `report.stages` object"))?;
        if stages.is_empty() {
            return Err(ctx("report attributes no stages"));
        }
        for (label, _) in stages {
            // Attribution labels are `<component>.<stage>`; the typed
            // stage is the suffix after the last dot.
            let stage = label.rsplit('.').next().unwrap_or(label);
            if !stage_ok(stage) {
                return Err(ctx(&format!(
                    "stage label `{label}` ends in `{stage}`, which is \
                     not in the FLOW_STAGES allowlist"
                )));
            }
        }
        let hops = section
            .get("exemplar_hops")
            .and_then(Value::as_array)
            .ok_or_else(|| ctx("missing `exemplar_hops` array"))?;
        if hops.is_empty() {
            return Err(ctx("exemplar hop chain is empty"));
        }
        let mut prev_ps: Option<u64> = None;
        for (i, hop) in hops.iter().enumerate() {
            let hctx = |msg: &str| ctx(&format!("hop {i}: {msg}"));
            let t_ps = hop
                .get("t_ps")
                .and_then(Value::as_u64)
                .ok_or_else(|| hctx("missing integer `t_ps`"))?;
            if prev_ps.is_some_and(|prev| t_ps < prev) {
                return Err(hctx("hop timestamps are not monotone"));
            }
            prev_ps = Some(t_ps);
            hop.get("source")
                .and_then(Value::as_str)
                .ok_or_else(|| hctx("missing string `source`"))?;
            let stage = hop
                .get("stage")
                .and_then(Value::as_str)
                .ok_or_else(|| hctx("missing string `stage`"))?;
            if !stage_ok(stage) {
                return Err(hctx(&format!(
                    "stage `{stage}` is not in the FLOW_STAGES allowlist"
                )));
            }
        }
    }
    if sections == 0 {
        return Err(format!("{path}: no per-mediator sections"));
    }
    Ok(())
}

fn check_timeline(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    for field in ["schema_version", "freq_mhz", "window_cycles"] {
        doc.get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: missing numeric `{field}`"))?;
    }
    let windows = doc
        .get("windows")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: missing `windows` array"))?;
    if windows.is_empty() {
        return Err(format!("{path}: timeline has no windows"));
    }
    let mut prev_end: Option<u64> = None;
    for (i, w) in windows.iter().enumerate() {
        let ctx = |msg: &str| format!("{path}: window {i}: {msg}");
        let cycle = |field: &str| {
            w.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| ctx(&format!("missing integer `{field}`")))
        };
        let (start, end) = (cycle("start_cycle")?, cycle("end_cycle")?);
        if end <= start {
            return Err(ctx("window span is empty or reversed"));
        }
        if let Some(prev) = prev_end {
            if start != prev {
                return Err(ctx("window timestamps are not contiguous/monotone"));
            }
        }
        prev_end = Some(end);
        for field in ["start_ns", "end_ns", "total_uw"] {
            w.get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| ctx(&format!("missing numeric `{field}`")))?;
        }
        let components = w
            .get("components")
            .and_then(Value::as_object)
            .ok_or_else(|| ctx("missing `components` object"))?;
        if components.is_empty() {
            return Err(ctx("window has no component breakdown"));
        }
        for (name, uw) in components {
            let uw = uw
                .as_f64()
                .ok_or_else(|| ctx(&format!("component `{name}` power is not numeric")))?;
            if uw < 0.0 {
                return Err(ctx(&format!("component `{name}` power {uw} is negative")));
            }
        }
    }
    Ok(())
}

type Check = fn(&str) -> Result<(), String>;

fn main() -> ExitCode {
    let checks: [(&str, Check); 6] = [
        ("OBS_metrics.json", check_metrics),
        ("OBS_trace.json", check_trace),
        ("OBS_timeline.json", check_timeline),
        ("OBS_flows.json", check_flows),
        ("BENCH_lifetime.json", check_lifetime),
        ("BENCH_fleet_throughput.json", check_fleet),
    ];
    let mut ok = true;
    for (path, check) in checks {
        match check(path) {
            Ok(()) => println!("obs_check: {path} OK"),
            Err(e) => {
                eprintln!("obs_check: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
