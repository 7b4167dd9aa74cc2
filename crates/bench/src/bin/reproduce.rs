//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p pels-bench --bin reproduce --release            # everything
//! cargo run -p pels-bench --bin reproduce -- table1 fig5      # a subset
//! ```
//!
//! Artifacts: `table1`, `fig3`, `fig5`, `latency`, `fig6a`, `fig6b`,
//! `ablations`, `extensions`, `fleet` (which runs a reference sweep on 1
//! worker and on all available workers, checks the two reports are
//! bit-identical, and writes `BENCH_fleet_throughput.json`), `desc`
//! (which regenerates the canonical system/scenario description corpus
//! under `examples/descs/`, gated by the `desc_check` binary), and
//! `lifetime` (which duty-cycles a sensor node over hours of simulated
//! time, projects coin-cell battery lifetime for PELS vs the interrupt
//! baseline, sweeps duty cycle × sensor payload × mediator across a
//! fleet, and writes `BENCH_lifetime.json` — schema-gated by
//! `obs_check`). The `--quick` flag shrinks the `lifetime` horizon for
//! smoke runs.
//!
//! The `--obs` flag (combinable with any artifact subset) enables the
//! host-time span profiler for the whole run and appends an
//! observability pass: a busy-CPU scenario (with windowed activity
//! sampling) plus a small fleet, exported as `OBS_metrics.json` (flat
//! counter snapshot), `OBS_trace.json` (Chrome trace-event JSON with
//! instant events, host spans and per-component power counter tracks,
//! loadable in Perfetto / `chrome://tracing`) and `OBS_timeline.json`
//! (the per-window per-component power timeline). The pass also prints
//! the power-over-time sparkline and the latency histogram, so the
//! terminal alone shows the shape of the run. `obs_check` gates all
//! three files' schemas in `scripts/bench_smoke.sh`.

use pels_bench::{ablations, experiments, lifetime, sota};
use pels_desc::{DescFuzzer, FuzzCase};
use pels_fleet::{report as fleet_report, FleetEngine, SweepSpec};
use pels_interconnect::{ArbiterKind, Topology};
use pels_obs::json::Writer;
use pels_power::{Battery, EnergyLedger};
use pels_soc::{Mediator, Scenario, ScenarioDesc, SensorKind, SystemDesc};
use std::process::ExitCode;

const ALL: &[&str] = &[
    "table1",
    "fig3",
    "latency",
    "fig5",
    "fig6a",
    "fig6b",
    "ablations",
    "extensions",
    "fleet",
    "desc",
    "lifetime",
];

/// The reference 8-job sweep for the fleet artifact: 2 mediators × 2
/// frequencies × 2 link counts.
fn fleet_reference_spec() -> SweepSpec {
    SweepSpec::new()
        .mediators(&[Mediator::PelsSequenced, Mediator::PelsInstant])
        .freqs_mhz(&[27.0, 55.0])
        .links(&[1, 4])
}

fn run_fleet_artifact() -> Result<String, String> {
    let spec = fleet_reference_spec();
    let serial = FleetEngine::new(1)
        .run_sweep(&spec)
        .map_err(|e| format!("fleet sweep invalid: {e}"))?;
    let parallel = FleetEngine::auto()
        .run_sweep(&spec)
        .map_err(|e| format!("fleet sweep invalid: {e}"))?;
    if serial.digest() != parallel.digest() {
        return Err(format!(
            "fleet determinism violated: 1-worker digest {:016x} != {}-worker digest {:016x}",
            serial.digest(),
            parallel.workers,
            parallel.digest()
        ));
    }
    let host = pels_fleet::engine::host_parallelism();
    let json = fleet_report::to_json(&parallel, host);
    std::fs::write("BENCH_fleet_throughput.json", &json)
        .map_err(|e| format!("writing BENCH_fleet_throughput.json: {e}"))?;
    Ok(format!(
        "Fleet - parallel scenario sweep (8-job reference batch)\n{}\n\
         digest {:016x} identical on 1 and {} worker(s) (host parallelism: {host})\n\
         serial wall {:.1} ms -> parallel wall {:.1} ms\n\
         (wrote BENCH_fleet_throughput.json)\n",
        parallel.render(),
        parallel.digest(),
        parallel.workers,
        serial.wall.as_secs_f64() * 1e3,
        parallel.wall.as_secs_f64() * 1e3,
    ))
}

/// The `lifetime` artifact ([`lifetime::run`]): writes
/// `BENCH_lifetime.json` and returns the projection table.
fn run_lifetime_artifact(quick: bool) -> Result<String, String> {
    let artifact = lifetime::run(quick)?;
    std::fs::write("BENCH_lifetime.json", artifact.to_json())
        .map_err(|e| format!("writing BENCH_lifetime.json: {e}"))?;
    Ok(format!("{}(wrote BENCH_lifetime.json)\n", artifact.render()))
}

/// Nominal sampling window (cycles) for the `--obs` pass's activity
/// timeline: ~20 windows over the reference run — coarse enough to stay
/// readable in a terminal sparkline, fine enough to resolve the
/// per-readout power bursts.
const OBS_TIMELINE_WINDOW: u64 = 64;

/// Serializes the power timeline as the flat `OBS_timeline.json`
/// artifact: per window, the cycle/ns span, the total power and the
/// per-component breakdown. `obs_check` schema-gates this file.
fn timeline_to_json(
    report: &pels_soc::ScenarioReport,
    power: &pels_power::PowerTimeline,
) -> String {
    let timeline = report.timeline.as_ref().expect("timeline sampled");
    let mut w = Writer::new();
    w.begin_object().key("schema_version").uint(1);
    w.key("freq_mhz").float(report.freq.as_mhz());
    w.key("window_cycles").uint(timeline.window_cycles);
    w.key("mean_total_uw").float(power.mean_total_uw());
    w.key("windows").begin_array();
    let cycle = |t: pels_sim::SimTime| report.freq.cycles_in(t);
    for p in power.windows() {
        w.begin_object();
        w.key("start_cycle").uint(cycle(p.start)).key("end_cycle").uint(cycle(p.end));
        w.key("start_ns").uint(p.start.as_ns()).key("end_ns").uint(p.end.as_ns());
        w.key("total_uw").float(p.total_uw);
        w.key("components").begin_object();
        for &(name, uw) in &p.components {
            w.key(name).float(uw);
        }
        w.end_object().end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// Serializes the three per-mediator flow decompositions as
/// `OBS_flows.json`: per section the [`pels_obs::FlowReport`] object
/// plus the exemplar hop chain of its first complete flow (timestamps,
/// sources, typed stages). `obs_check` gates non-emptiness, hop-time
/// monotonicity and the stage allowlist against this file.
fn flows_to_json(sections: &[(&str, &pels_soc::ScenarioReport)]) -> String {
    let mut w = Writer::new();
    w.begin_object().key("schema_version").uint(1);
    for &(name, report) in sections {
        let fr = report.flow_report().expect("flows recorded");
        let flows = report.flows.as_ref().expect("flows recorded");
        w.key(name).begin_object();
        w.key("freq_mhz").float(report.freq.as_mhz());
        w.key("report");
        fr.write_json(&mut w);
        w.key("exemplar_hops").begin_array();
        let exemplar = flows
            .flow_ids()
            .into_iter()
            .find(|&id| flows.hops_of(id).any(|h| h.stage == fr.terminal()));
        for h in exemplar.into_iter().flat_map(|id| flows.hops_of(id)) {
            w.begin_object().key("t_ps").uint(h.time.as_ps());
            w.key("source").str(h.source_name()).key("stage").str(h.stage);
            w.end_object();
        }
        w.end_array().end_object();
    }
    w.end_object();
    w.finish()
}

/// The `--obs` pass: runs a busy-CPU scenario (activity timeline
/// sampled every [`OBS_TIMELINE_WINDOW`] cycles) and a small fleet with
/// full metrics collection, plus the three flow-traced latency probes.
/// Exports the merged counter
/// snapshot, the Chrome trace (simulated-time events + flow arrows +
/// host-time spans + power counter tracks), the power timeline and the
/// per-stage flow decomposition, and renders the latency histogram,
/// power sparkline and PELS-vs-IRQ blame tables inline.
fn run_obs_artifact() -> Result<String, String> {
    // The profiler was enabled in `main` before any artifact ran; start
    // the event buffer from a clean slate so the exported trace covers
    // exactly this pass.
    pels_obs::profile::reset();
    let mut metrics = pels_obs::MetricsSnapshot::default();

    // Busy-CPU workload: the interrupt path keeps the core fetching, so
    // the CPU, the scheduler and the fabric all engage.
    let scenario = Scenario::from_desc(ScenarioDesc {
        obs: true,
        timeline_window: OBS_TIMELINE_WINDOW,
        ..Scenario::iso_frequency(Mediator::IbexIrq).desc().clone()
    })
    .map_err(|e| format!("obs scenario invalid: {e}"))?;
    let report = scenario
        .try_run()
        .map_err(|e| format!("obs scenario failed: {e}"))?;
    metrics.absorb(report.metrics.as_ref().expect("obs(true) snapshot"));

    // A small fleet on one worker — single-worker attribution is
    // deterministic, so `fleet.worker0.jobs` is reliably nonzero for the
    // obs_check schema gate.
    let fleet = FleetEngine::new(1)
        .run_sweep(&SweepSpec::new().mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq]))
        .map_err(|e| format!("obs fleet sweep invalid: {e}"))?;
    fleet.publish_metrics(&mut metrics);

    // Flow-traced latency probes: one per mediation path. Each records
    // the causal hop chain of every measured event, so the end-to-end
    // latencies the paper reports (7 / 2 / 16 cycles) decompose into a
    // per-stage blame table that sums exactly — see
    // `tests/flow_properties.rs` for the telescoping proof.
    let probe = |m: Mediator| -> Result<pels_soc::ScenarioReport, String> {
        Scenario::from_desc(ScenarioDesc {
            flows: true,
            ..Scenario::latency_probe(m).desc().clone()
        })
        .map_err(|e| format!("flow probe invalid: {e}"))?
            .try_run()
            .map_err(|e| format!("flow probe failed: {e}"))
    };
    let seq = probe(Mediator::PelsSequenced)?;
    let inst = probe(Mediator::PelsInstant)?;
    let irq = probe(Mediator::IbexIrq)?;
    std::fs::write(
        "OBS_flows.json",
        flows_to_json(&[
            ("pels_sequenced", &seq),
            ("pels_instant", &inst),
            ("ibex_irq", &irq),
        ]),
    )
    .map_err(|e| format!("writing OBS_flows.json: {e}"))?;

    // Power over simulated time: the model evaluated once per window.
    let model = report.power_model();
    let power = report
        .power_timeline(&model)
        .expect("timeline_window(>0) samples a timeline");
    if power.is_empty() {
        return Err("obs timeline captured no windows".into());
    }
    std::fs::write("OBS_timeline.json", timeline_to_json(&report, &power))
        .map_err(|e| format!("writing OBS_timeline.json: {e}"))?;

    // Integrate the timeline into the energy ledger and project it onto
    // the reference coin cell, then publish both as `power.energy.*` /
    // `battery.*` counters so the snapshot carries the energy story too.
    let ledger = EnergyLedger::from_timeline(&power);
    let projection = Battery::coin_cell().project(&ledger);
    for (key, value) in ledger
        .metric_pairs()
        .into_iter()
        .chain(projection.metric_pairs())
    {
        metrics.set(key, value);
    }

    std::fs::write("OBS_metrics.json", metrics.to_json())
        .map_err(|e| format!("writing OBS_metrics.json: {e}"))?;

    let mut chrome = pels_obs::ChromeTrace::new();
    chrome.add_sim_trace(&report.trace);
    for s in power.windows() {
        chrome.add_counter("power_uw", s.start.as_us_f64(), &s.components);
        chrome.add_counter("power_total_uw", s.start.as_us_f64(), &[("total", s.total_uw)]);
    }
    // Projected state of charge as its own counter track. The curve
    // spans days while the trace spans microseconds, so the track keeps
    // its own time base — one tick per projected day, named in the
    // track title so the axis is explicit.
    for p in &projection.soc {
        chrome.add_counter("battery_soc (t in days)", p.t_days, &[("fraction", p.fraction)]);
    }
    // Causal flow arrows: the PELS and IRQ probe chains rendered as
    // Perfetto s/t/f flows between per-component anchor slices.
    for probe_report in [&seq, &irq] {
        chrome.add_flow_events(probe_report.flows.as_ref().expect("flows(true) records"));
    }
    chrome.add_host_spans(&pels_obs::profile::take_events());
    let doc = chrome.finish();
    pels_obs::chrome::validate(&doc).map_err(|e| format!("chrome trace invalid: {e}"))?;
    std::fs::write("OBS_trace.json", &doc)
        .map_err(|e| format!("writing OBS_trace.json: {e}"))?;

    Ok(format!(
        "Observability - metrics snapshot, trace export and timeline\n{metrics}\n{}\n\
         latency distribution ({} events, p50 {} / p99 {} cycles):\n{}\
         power over simulated time ({} windows of ~{} cycles, mean {:.1} uW):\n  {}\n\
         where the energy goes - per-component blame:\n{}\
         {}\
         where the cycles go - PELS sequenced RMW:\n{}\
         where the cycles go - Ibex interrupt path:\n{}\
         (wrote OBS_metrics.json, OBS_trace.json, OBS_timeline.json, OBS_flows.json)\n",
        pels_obs::profile::report().render(),
        report.latency_hist.count(),
        report.stats.p50,
        report.stats.p99,
        report.latency_hist.render("cycles"),
        power.len(),
        OBS_TIMELINE_WINDOW,
        power.mean_total_uw(),
        pels_obs::hist::sparkline(&power.total_series()),
        ledger.render(),
        projection.render(),
        seq.flow_report().expect("flows recorded").render(),
        irq.flow_report().expect("flows recorded").render(),
    ))
}

/// Fixed seed for the fuzzed slice of the description corpus — the
/// corpus is a committed artifact, so regeneration must be bit-stable.
const DESC_FUZZ_SEED: u64 = 0xDE5C;

/// The `desc` artifact: emits the canonical description corpus under
/// `examples/descs/` — the paper presets, the named example systems and
/// a fixed-seed fuzzed slice. Every emitted document is round-tripped
/// through its own parser before it is written; `desc_check` re-gates
/// the files (parse → validate → smoke run) in `scripts/bench_smoke.sh`.
fn run_desc_artifact() -> Result<String, String> {
    let dir = std::path::Path::new("examples/descs");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let mut docs: Vec<(String, String)> = Vec::new();
    let scenario = |name: &str, d: &ScenarioDesc| -> Result<(String, String), String> {
        let json = d.to_json();
        let back = ScenarioDesc::from_json(&json)
            .map_err(|e| format!("{name}: emitted JSON fails to re-parse: {e}"))?;
        if &back != d {
            return Err(format!("{name}: round-trip is not the identity"));
        }
        Ok((format!("{name}.json"), json))
    };
    let system = |name: &str, d: &SystemDesc| -> Result<(String, String), String> {
        let json = d.to_json();
        let back = SystemDesc::from_json(&json)
            .map_err(|e| format!("{name}: emitted JSON fails to re-parse: {e}"))?;
        if &back != d {
            return Err(format!("{name}: round-trip is not the identity"));
        }
        Ok((format!("{name}.json"), json))
    };

    // The paper presets.
    docs.push(scenario("default_scenario", &ScenarioDesc::default())?);
    docs.push(scenario(
        "iso_frequency_irq",
        Scenario::iso_frequency(Mediator::IbexIrq).desc(),
    )?);
    docs.push(scenario(
        "latency_probe_instant",
        Scenario::latency_probe(Mediator::PelsInstant).desc(),
    )?);
    let mut crossbar = ScenarioDesc::default();
    crossbar.system.topology = Topology::PerSlaveCrossbar;
    crossbar.system.arbiter = ArbiterKind::FixedPriority;
    docs.push(scenario("crossbar_fixed_priority", &crossbar)?);

    // The named example systems (system-only documents).
    let mut quickstart = SystemDesc::default();
    quickstart.pels.links = 1;
    quickstart.pels.scm_lines = 4;
    docs.push(system("quickstart_system", &quickstart)?);
    let fusion = SystemDesc {
        sensor: SensorKind::Constant(2.0),
        ..SystemDesc::default()
    };
    docs.push(system("sensor_fusion_system", &fusion)?);

    // A fixed-seed fuzzed slice: the first 6 generated-valid cases.
    let mut fuzzer = DescFuzzer::new(DESC_FUZZ_SEED);
    let mut taken = 0usize;
    while taken < 6 {
        if let FuzzCase::Valid(desc) = fuzzer.next_case() {
            desc.validate()
                .map_err(|e| format!("fuzzed desc {taken} invalid: {e}"))?;
            docs.push(scenario(&format!("fuzz_{taken:02}"), &desc)?);
            taken += 1;
        }
    }

    let mut listing = String::new();
    for (name, json) in &docs {
        let path = dir.join(name);
        std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        listing.push_str(&format!("  {} ({} bytes)\n", path.display(), json.len()));
    }
    Ok(format!(
        "Descriptions - canonical corpus ({} documents, fuzz seed {DESC_FUZZ_SEED:#x})\n{listing}\
         (round-trip checked on emit; `desc_check` gates parse/validate/smoke)\n",
        docs.len(),
    ))
}

fn run_one(artifact: &str, quick: bool) -> Result<(), String> {
    let text = match artifact {
        "table1" => {
            let mut s = String::from(
                "Table I - autonomous peripheral-event handling systems\n",
            );
            s.push_str(&sota::render_table1());
            s
        }
        "fig3" => experiments::render_fig3(),
        "latency" => experiments::render_latency(),
        "fig5" => experiments::render_fig5(),
        "fig6a" => experiments::render_fig6a(),
        "fig6b" => experiments::render_fig6b(),
        "ablations" => ablations::render_all(),
        "extensions" => experiments::render_extension_link_power(),
        "fleet" => run_fleet_artifact()?,
        "desc" => run_desc_artifact()?,
        "lifetime" => run_lifetime_artifact(quick)?,
        other => return Err(format!("unknown artifact `{other}` (expected one of {ALL:?})")),
    };
    println!("================================================================");
    println!("{text}");
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let before = args.len();
    args.retain(|a| a != "--obs");
    let obs = args.len() != before;
    let before = args.len();
    args.retain(|a| a != "--quick");
    let quick = args.len() != before;
    if obs {
        pels_obs::profile::set_enabled(true);
    }
    let selected: Vec<&str> = if args.is_empty() {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for artifact in selected {
        if let Err(e) = run_one(artifact, quick) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if obs {
        match run_obs_artifact() {
            Ok(text) => {
                println!("================================================================");
                println!("{text}");
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
