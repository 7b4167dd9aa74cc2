//! The measured experiments: Figure 3, Figure 5, the latency comparison,
//! Figure 6a and Figure 6b.

use pels_fleet::{FleetEngine, JobError, JobOutcome};
use pels_power::{pels_area_kge, pulpissimo_breakdown, IBEX_KGE, PICORV32_KGE};
use pels_soc::power_setup::power_model_for;
use pels_soc::{Mediator, Scenario, ScenarioDesc, Soc, SystemDesc};
use std::fmt::Write as _;

/// One measured stage of Figure 3's pseudocode annotations.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Stage name as in the figure.
    pub stage: &'static str,
    /// Measured latency in clock cycles.
    pub measured: u64,
    /// The paper's annotation.
    pub paper: u64,
}

/// Measures the per-stage latencies of Figure 3 from cycle-accurate runs.
///
/// * `instant action` / `sequenced action` come from the minimal-program
///   latency probes;
/// * `capture` / `jump-if` are derived from the link trace of the full
///   threshold program (trigger → capture-complete, capture-complete →
///   action minus the action's own cycle).
pub fn fig3() -> Vec<Fig3Row> {
    let instant = Scenario::latency_probe(Mediator::PelsInstant).run();
    let sequenced = Scenario::latency_probe(Mediator::PelsSequenced).run();

    // `obs` keeps the trace entries the stage times are read from.
    let threshold = Scenario::from_desc(ScenarioDesc {
        obs: true,
        ..Scenario::iso_frequency(Mediator::PelsInstant).desc().clone()
    })
    .expect("the preset is valid")
    .run();
    let period = threshold.freq.period_ps();
    let cyc = |ps: u64| ps / period;
    let t_trigger = threshold
        .trace
        .first("pels.link0", "trigger")
        .expect("link triggered")
        .time
        .as_ps();
    let t_capture = threshold
        .trace
        .first("pels.link0", "capture")
        .expect("capture executed")
        .time
        .as_ps();
    let t_action = threshold
        .trace
        .first("pels.link0", "action")
        .expect("action executed")
        .time
        .as_ps();
    let capture_stage = cyc(t_capture - t_trigger);
    let jump_stage = cyc(t_action - t_capture) - 1; // minus the action's own cycle

    vec![
        Fig3Row {
            stage: "capture (masked read)",
            measured: capture_stage,
            paper: 3,
        },
        Fig3Row {
            stage: "jump-if",
            measured: jump_stage,
            paper: 1,
        },
        Fig3Row {
            stage: "instant action",
            measured: instant.stats.min,
            paper: 2,
        },
        Fig3Row {
            stage: "sequenced action (RMW)",
            measured: sequenced.stats.min,
            paper: 7,
        },
    ]
}

/// Renders Figure 3 as text.
pub fn render_fig3() -> String {
    let mut out = String::from("Figure 3 - per-stage latency [clock cycles]\n");
    let _ = writeln!(out, "{:<26} {:>9} {:>7}", "stage", "measured", "paper");
    for r in fig3() {
        let _ = writeln!(out, "{:<26} {:>9} {:>7}", r.stage, r.measured, r.paper);
    }
    out
}

/// One bar of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Bar {
    /// `iso-latency` or `iso-frequency`.
    pub scenario: &'static str,
    /// `pels` or `ibex`.
    pub system: &'static str,
    /// `idle` or `active`.
    pub mode: &'static str,
    /// Total SoC power (µW).
    pub power_uw: f64,
    /// Memory-system share (µW).
    pub memory_uw: f64,
    /// Operating frequency (MHz).
    pub freq_mhz: f64,
}

/// The complete Figure 5 data set plus the paper's headline ratios.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// All eight bars (2 scenarios × 2 systems × 2 modes).
    pub bars: Vec<Fig5Bar>,
    /// Active-power ratio Ibex/PELS at iso-latency (paper: 2.5×).
    pub iso_latency_active_ratio: f64,
    /// Idle-power ratio at iso-latency (paper: 1.5×).
    pub iso_latency_idle_ratio: f64,
    /// Active-power ratio at iso-frequency (paper: 1.6×).
    pub iso_frequency_active_ratio: f64,
    /// Memory-system power ratio at iso-latency (paper: 3.7×).
    pub iso_latency_memory_ratio: f64,
    /// Memory-system power ratio at iso-frequency (paper: 4.3×).
    pub iso_frequency_memory_ratio: f64,
}

/// Runs the four scenario instances behind Figure 5 — as one fleet batch
/// (the runs are independent, so they parallelize across the worker
/// pool) — and assembles the bars and ratios from the job outcomes.
pub fn fig5() -> Fig5Result {
    let jobs = vec![
        (
            "iso-latency/pels".to_string(),
            Scenario::iso_latency(Mediator::PelsSequenced),
        ),
        (
            "iso-latency/ibex".to_string(),
            Scenario::iso_latency(Mediator::IbexIrq),
        ),
        (
            "iso-frequency/pels".to_string(),
            Scenario::iso_frequency(Mediator::PelsSequenced),
        ),
        (
            "iso-frequency/ibex".to_string(),
            Scenario::iso_frequency(Mediator::IbexIrq),
        ),
    ];
    let fleet = FleetEngine::auto().run_scenarios(&jobs);
    let get = |label: &str| -> &JobOutcome {
        fleet
            .outcome(label)
            .unwrap_or_else(|| panic!("fig5 job `{label}` failed"))
    };

    let mut bars = Vec::new();
    let mut pair = |label: &'static str| {
        let p = get(&format!("{label}/pels"));
        let i = get(&format!("{label}/ibex"));
        for (system, o, mode, power_uw, memory_uw) in [
            ("pels", p, "idle", p.idle_uw, p.idle_memory_uw),
            ("pels", p, "active", p.active_uw, p.active_memory_uw),
            ("ibex", i, "idle", i.idle_uw, i.idle_memory_uw),
            ("ibex", i, "active", i.active_uw, i.active_memory_uw),
        ] {
            bars.push(Fig5Bar {
                scenario: label,
                system,
                mode,
                power_uw,
                memory_uw,
                freq_mhz: o.report.freq.as_mhz(),
            });
        }
        (
            i.active_uw / p.active_uw,
            i.idle_uw / p.idle_uw,
            i.active_memory_uw / p.active_memory_uw,
        )
    };

    let (lat_active, lat_idle, lat_mem) = pair("iso-latency");
    let (freq_active, _freq_idle, freq_mem) = pair("iso-frequency");

    Fig5Result {
        bars,
        iso_latency_active_ratio: lat_active,
        iso_latency_idle_ratio: lat_idle,
        iso_frequency_active_ratio: freq_active,
        iso_latency_memory_ratio: lat_mem,
        iso_frequency_memory_ratio: freq_mem,
    }
}

/// Renders Figure 5 as text.
pub fn render_fig5() -> String {
    let r = fig5();
    let mut out = String::from("Figure 5 - SoC power while waiting for / handling event linking\n");
    let _ = writeln!(
        out,
        "{:<14} {:<6} {:<7} {:>9} {:>10} {:>9}",
        "scenario", "system", "mode", "P [uW]", "mem [uW]", "f [MHz]"
    );
    for b in &r.bars {
        let _ = writeln!(
            out,
            "{:<14} {:<6} {:<7} {:>9.1} {:>10.1} {:>9.1}",
            b.scenario, b.system, b.mode, b.power_uw, b.memory_uw, b.freq_mhz
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "ratio ibex/pels, iso-latency  active : {:.2}x   (paper: 2.5x)",
        r.iso_latency_active_ratio
    );
    let _ = writeln!(
        out,
        "ratio ibex/pels, iso-latency  idle   : {:.2}x   (paper: 1.5x)",
        r.iso_latency_idle_ratio
    );
    let _ = writeln!(
        out,
        "ratio ibex/pels, iso-frequency active: {:.2}x   (paper: 1.6x)",
        r.iso_frequency_active_ratio
    );
    let _ = writeln!(
        out,
        "memory-system ratio, iso-latency     : {:.2}x   (paper: 3.7x)",
        r.iso_latency_memory_ratio
    );
    let _ = writeln!(
        out,
        "memory-system ratio, iso-frequency   : {:.2}x   (paper: 4.3x)",
        r.iso_frequency_memory_ratio
    );
    out
}

/// One row of the Section IV-B latency comparison.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// The mediation path.
    pub path: &'static str,
    /// Measured cycles (event to observable action).
    pub measured: u64,
    /// Measured jitter (max − min) across events.
    pub jitter: u64,
    /// The paper's number.
    pub paper: u64,
}

/// Measures the 2 / 7 / 16-cycle comparison (the three probes run as one
/// fleet batch).
pub fn latency_table() -> Vec<LatencyRow> {
    let rows = [
        ("instant action", Mediator::PelsInstant, 2),
        ("sequenced action", Mediator::PelsSequenced, 7),
        ("ibex interrupt", Mediator::IbexIrq, 16),
    ];
    let jobs: Vec<(String, Scenario)> = rows
        .iter()
        .map(|&(path, mediator, _)| (path.to_string(), Scenario::latency_probe(mediator)))
        .collect();
    let fleet = FleetEngine::auto().run_scenarios(&jobs);
    rows.into_iter()
        .map(|(path, _, paper)| {
            let o = fleet
                .outcome(path)
                .unwrap_or_else(|| panic!("latency probe `{path}` failed"));
            LatencyRow {
                path,
                measured: o.report.stats.min,
                jitter: o.report.stats.jitter(),
                paper,
            }
        })
        .collect()
}

/// Renders the latency comparison as text.
pub fn render_latency() -> String {
    let mut out =
        String::from("Section IV-B - linking-event latency [clock cycles]\n");
    let _ = writeln!(
        out,
        "{:<18} {:>9} {:>7} {:>7}",
        "path", "measured", "jitter", "paper"
    );
    for r in latency_table() {
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>7} {:>7}",
            r.path, r.measured, r.jitter, r.paper
        );
    }
    out
}

/// One point of the Figure 6a sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig6aPoint {
    /// Number of links.
    pub links: usize,
    /// SCM lines per link.
    pub scm_lines: usize,
    /// Synthesized-area model result (kGE).
    pub kge: f64,
}

/// The Figure 6a sweep: links 1–8 × SCM lines {4, 6, 8}.
pub fn fig6a() -> Vec<Fig6aPoint> {
    let mut points = Vec::new();
    for links in 1..=8 {
        for scm_lines in [4, 6, 8] {
            points.push(Fig6aPoint {
                links,
                scm_lines,
                kge: pels_area_kge(links, scm_lines),
            });
        }
    }
    points
}

/// Renders Figure 6a as text.
pub fn render_fig6a() -> String {
    let mut out = String::from("Figure 6a - PELS area sweep [kGE], TSMC 65nm model\n");
    let _ = writeln!(
        out,
        "{:<7} {:>8} {:>8} {:>8}",
        "links", "4 lines", "6 lines", "8 lines"
    );
    for links in 1..=8 {
        let _ = writeln!(
            out,
            "{:<7} {:>8.1} {:>8.1} {:>8.1}",
            links,
            pels_area_kge(links, 4),
            pels_area_kge(links, 6),
            pels_area_kge(links, 8),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "reference: Ibex     = {IBEX_KGE:.1} kGE (paper: ~27 kGE)");
    let _ = writeln!(
        out,
        "reference: PicoRV32 = {PICORV32_KGE:.1} kGE (paper: ~14.5 kGE)"
    );
    let min = pels_area_kge(1, 4);
    let _ = writeln!(
        out,
        "minimal PELS (1 link, 4 lines) = {min:.1} kGE: {:.1}x under Ibex, {:.1}x under PicoRV32",
        IBEX_KGE / min,
        PICORV32_KGE / min
    );
    out
}

/// Renders Figure 6b as text.
pub fn render_fig6b() -> String {
    let (blocks, frac_logic, frac_sram) = pulpissimo_breakdown(4, 6);
    let total: f64 = blocks.iter().map(|b| b.kge).sum();
    let mut out = String::from(
        "Figure 6b - PULPissimo area breakdown with a 4-link / 6-line PELS\n",
    );
    for b in &blocks {
        let _ = writeln!(
            out,
            "{:<20} {:>8.1} kGE  {:>5.1} %",
            b.name,
            b.kge,
            100.0 * b.kge / total
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "PELS share of logic area          : {:>5.2} % (paper: ~9.5 %)",
        100.0 * frac_logic
    );
    let _ = writeln!(
        out,
        "PELS share incl. 192 KiB L2 SRAM  : {:>5.2} % (paper: ~1 %)",
        100.0 * frac_sram
    );
    out
}

/// One point of the links-vs-power extension sweep.
#[derive(Debug, Clone, Copy)]
pub struct LinkPowerPoint {
    /// PELS links instantiated.
    pub links: usize,
    /// Idle SoC power at 55 MHz (µW).
    pub idle_uw: f64,
    /// PELS area at 6 SCM lines (kGE).
    pub kge: f64,
}

/// Extension (not in the paper): the *power* cost of the Figure 6a area
/// sweep — idle SoC power against instantiated link count, connecting
/// the area knob to the energy budget. Links are cheap in area but their
/// always-on clock load is what a system integrator actually pays.
pub fn extension_link_power() -> Vec<LinkPowerPoint> {
    let link_counts: Vec<usize> = (1..=8).collect();
    // Raw-`Soc` jobs (no `Scenario` layer), fanned out through the
    // engine's generic map: one fresh SoC per worker job.
    FleetEngine::auto()
        .map(
            &link_counts,
            |&links| links as u64, // heavier SoCs first
            |&links| {
                let mut desc = SystemDesc::default();
                desc.pels.links = links;
                desc.pels.scm_lines = 6;
                let mut soc = Soc::from_desc(&desc).expect("valid link count");
                soc.load_program(
                    pels_soc::mem_map::RESET_PC,
                    &[pels_cpu::asm::wfi(), pels_cpu::asm::jal(0, -4)],
                );
                soc.run(2_000);
                let window = soc.window_time();
                let activity = soc.drain_activity();
                let model = power_model_for(soc.pels().config());
                let idle_uw = model.report(&activity, window).total().as_uw();
                Ok::<_, JobError>(LinkPowerPoint {
                    links,
                    idle_uw,
                    kge: pels_area_kge(links, 6),
                })
            },
        )
        .into_iter()
        .map(|r| r.result.expect("idle-power jobs are infallible"))
        .collect()
}

/// Renders the extension sweep as text.
pub fn render_extension_link_power() -> String {
    let mut out = String::from(
        "Extension - idle SoC power vs PELS link count (55 MHz, 6 SCM lines)
",
    );
    let _ = writeln!(out, "{:<7} {:>10} {:>10}", "links", "kGE", "idle [uW]");
    for p in extension_link_power() {
        let _ = writeln!(out, "{:<7} {:>10.1} {:>10.1}", p.links, p.kge, p.idle_uw);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_stage_latencies_match_paper() {
        let rows = fig3();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert_eq!(
                row.measured, row.paper,
                "stage `{}` measured {} vs paper {}",
                row.stage, row.measured, row.paper
            );
        }
    }

    #[test]
    fn latency_table_matches_paper_exactly() {
        for row in latency_table() {
            assert_eq!(row.measured, row.paper, "{}", row.path);
            assert_eq!(row.jitter, 0, "{} should be deterministic", row.path);
        }
    }

    #[test]
    fn fig5_ratios_hold_paper_shape() {
        let r = fig5();
        // PELS wins everywhere, by factors in the paper's neighbourhood.
        assert!(
            r.iso_latency_active_ratio > 1.8 && r.iso_latency_active_ratio < 3.0,
            "iso-latency active {:.2} (paper 2.5)",
            r.iso_latency_active_ratio
        );
        assert!(
            r.iso_latency_idle_ratio > 1.3 && r.iso_latency_idle_ratio < 1.8,
            "iso-latency idle {:.2} (paper 1.5)",
            r.iso_latency_idle_ratio
        );
        assert!(
            r.iso_frequency_active_ratio > 1.25 && r.iso_frequency_active_ratio < 2.0,
            "iso-frequency active {:.2} (paper 1.6)",
            r.iso_frequency_active_ratio
        );
        assert!(
            r.iso_latency_memory_ratio > 3.0 && r.iso_latency_memory_ratio < 5.0,
            "iso-latency memory {:.2} (paper 3.7)",
            r.iso_latency_memory_ratio
        );
        assert!(
            r.iso_frequency_memory_ratio > 3.0 && r.iso_frequency_memory_ratio < 5.0,
            "iso-frequency memory {:.2} (paper 4.3)",
            r.iso_frequency_memory_ratio
        );
        assert_eq!(r.bars.len(), 8);
    }

    #[test]
    fn fig6a_sweep_covers_paper_grid() {
        let pts = fig6a();
        assert_eq!(pts.len(), 24);
        let min = pts
            .iter()
            .map(|p| p.kge)
            .fold(f64::INFINITY, f64::min);
        assert!((min - 7.0).abs() < 0.1, "minimal config ~7 kGE");
    }

    #[test]
    fn instant_actions_add_negligible_power() {
        // Paper Section IV-B: "We present power estimations for sequenced
        // actions, as instant actions introduce negligible dynamic
        // power." Verify on the minimal mediation programs: the power
        // attributable to the link running pure instant actions is a
        // sub-percent sliver of the SoC's active power, and well under
        // the sequenced flavour's link share (which pays two bus
        // transactions per event).
        // Action-attributable power = the link's dynamic power in the
        // active window minus its always-on clock load (its idle dynamic).
        let link_share = |mediator| {
            let r = Scenario::latency_probe(mediator).run();
            let m = r.power_model();
            let active = r.active_power(&m);
            let idle = r.idle_power(&m);
            let link = active
                .component("pels.link0")
                .expect("link present")
                .dynamic
                .as_uw()
                - idle
                    .component("pels.link0")
                    .expect("link present")
                    .dynamic
                    .as_uw();
            (link, active.total().as_uw())
        };
        let (instant_link, total) = link_share(Mediator::PelsInstant);
        let (sequenced_link, _) = link_share(Mediator::PelsSequenced);
        assert!(
            instant_link / total < 0.025,
            "instant-action link power {instant_link:.2} uW is {:.2}% of {total:.0} uW",
            100.0 * instant_link / total
        );
        assert!(
            instant_link < sequenced_link,
            "instant {instant_link:.2} uW vs sequenced {sequenced_link:.2} uW"
        );
    }

    #[test]
    fn link_power_extension_is_monotone() {
        let pts = extension_link_power();
        assert_eq!(pts.len(), 8);
        for w in pts.windows(2) {
            assert!(
                w[1].idle_uw > w[0].idle_uw,
                "every link adds clock load: {:?}",
                pts
            );
        }
        // Each link costs ~28 uW of always-on clock load at 55 MHz; 8
        // links add ~28% to the idle floor — the real integration cost
        // behind Figure 6a's area curve.
        let ratio = pts[7].idle_uw / pts[0].idle_uw;
        assert!(ratio > 1.15 && ratio < 1.45, "ratio {ratio:.2}");
    }

    #[test]
    fn renders_are_nonempty() {
        assert!(render_fig6a().contains("Ibex"));
        assert!(render_fig6b().contains("PELS share"));
    }
}
