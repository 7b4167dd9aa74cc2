//! Schema gate for the description corpus.
//!
//! ```text
//! cargo run -p pels-bench --bin desc_check --release
//! ```
//!
//! Walks every `*.json` under `examples/descs/` and, per file: parses it
//! as a description document (a [`ScenarioDesc`] when the root carries a
//! `system` key, a bare [`SystemDesc`] otherwise), checks the round trip
//! is the identity (`from_json(to_json(d)) == d`), and smoke-runs the
//! described system for one cycle — so a corpus file that drifts from
//! the parser, or describes a system `Soc::from_desc` rejects, fails tier-1
//! verification (`scripts/bench_smoke.sh`) instead of shipping broken.

use pels_obs::json;
use pels_soc::{Scenario, ScenarioDesc, Soc, SystemDesc};
use std::process::ExitCode;

fn check_scenario(text: &str) -> Result<&'static str, String> {
    let desc = ScenarioDesc::from_json(text).map_err(|e| format!("parse: {e}"))?;
    let back = ScenarioDesc::from_json(&desc.to_json())
        .map_err(|e| format!("re-parse of emitted JSON: {e}"))?;
    if back != desc {
        return Err("round-trip is not the identity".into());
    }
    let scenario = Scenario::from_desc(desc).map_err(|e| format!("scenario: {e}"))?;
    let mut soc = scenario.build_soc();
    soc.step();
    Ok("scenario")
}

fn check_system(text: &str) -> Result<&'static str, String> {
    let desc = SystemDesc::from_json(text).map_err(|e| format!("parse: {e}"))?;
    let back = SystemDesc::from_json(&desc.to_json())
        .map_err(|e| format!("re-parse of emitted JSON: {e}"))?;
    if back != desc {
        return Err("round-trip is not the identity".into());
    }
    let mut soc = Soc::from_desc(&desc).map_err(|e| format!("build: {e}"))?;
    soc.step();
    Ok("system")
}

fn check_file(path: &std::path::Path) -> Result<&'static str, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    // Classify by shape: a scenario document nests the system under a
    // `system` key; a bare system document carries `peripherals` at the
    // root.
    let value = json::parse(&text).map_err(|e| format!("malformed JSON: {e}"))?;
    if value.get("system").is_some() {
        check_scenario(&text)
    } else {
        check_system(&text)
    }
}

fn main() -> ExitCode {
    let dir = std::path::Path::new("examples/descs");
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("desc_check: cannot read {}: {e}", dir.display());
            eprintln!("desc_check: run `reproduce -- desc` to generate the corpus");
            return ExitCode::FAILURE;
        }
    };
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("desc_check: no .json files under {}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        match check_file(path) {
            Ok(kind) => println!("desc_check: {} OK ({kind})", path.display()),
            Err(e) => {
                eprintln!("desc_check: {} FAILED: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("desc_check: {} description documents OK", paths.len());
        ExitCode::SUCCESS
    }
}
