//! JSON round-tripping for descriptions, on the in-repo
//! [`pels_obs::json`] parser — no external dependencies.
//!
//! Emission is *canonical*: every key is written, in a fixed order, with
//! exact-integer picosecond fields (`freq_period_ps`,
//! `sample_period_ps`) so that `from_json(d.to_json()) == d` holds
//! bit-for-bit for every valid description. Decoding rejects unknown
//! keys and carries the JSON path of the first offending value in the
//! returned [`DescError`].

use crate::error::DescError;
use crate::kinds::{sensor_fields, ExecMode, Mediator, SensorKind};
use crate::scenario::ScenarioDesc;
use crate::system::{PelsDesc, PeriphInst, PeriphKind, SystemDesc};
use pels_interconnect::{ArbiterKind, Topology};
use pels_obs::json::{self, Value};
use pels_sim::{Frequency, SimTime};
use std::fmt::Write as _;

/// The description schema version this crate reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------

fn as_obj<'a>(v: &'a Value, path: &str) -> Result<&'a [(String, Value)], DescError> {
    v.as_object()
        .ok_or_else(|| DescError::new(path, "expected an object"))
}

fn req<'a>(
    obj: &'a [(String, Value)],
    key: &str,
    path: &str,
) -> Result<&'a Value, DescError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| DescError::new(path, format!("missing required key `{key}`")))
}

fn opt<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn check_keys(
    obj: &[(String, Value)],
    allowed: &[&str],
    path: &str,
) -> Result<(), DescError> {
    for (k, _) in obj {
        if !allowed.contains(&k.as_str()) {
            return Err(DescError::new(
                format!("{path}/{k}"),
                format!("unknown key `{k}`"),
            ));
        }
    }
    Ok(())
}

fn dec_f64(v: &Value, path: &str) -> Result<f64, DescError> {
    v.as_f64()
        .ok_or_else(|| DescError::new(path, "expected a number"))
}

fn dec_u64(v: &Value, path: &str) -> Result<u64, DescError> {
    v.as_u64()
        .ok_or_else(|| DescError::new(path, "expected a non-negative integer"))
}

fn dec_u32(v: &Value, path: &str) -> Result<u32, DescError> {
    let n = dec_u64(v, path)?;
    u32::try_from(n)
        .map_err(|_| DescError::new(path, format!("{n} does not fit a 32-bit integer")))
}

fn dec_usize(v: &Value, path: &str) -> Result<usize, DescError> {
    Ok(dec_u64(v, path)? as usize)
}

fn dec_bool(v: &Value, path: &str) -> Result<bool, DescError> {
    v.as_bool()
        .ok_or_else(|| DescError::new(path, "expected a boolean"))
}

fn dec_str<'a>(v: &'a Value, path: &str) -> Result<&'a str, DescError> {
    v.as_str()
        .ok_or_else(|| DescError::new(path, "expected a string"))
}

/// `schema_version`, where present, must be the one we speak.
fn check_version(obj: &[(String, Value)], path: &str, required: bool) -> Result<(), DescError> {
    let vpath = format!("{path}/schema_version");
    match opt(obj, "schema_version") {
        None if required => Err(DescError::new(
            path,
            "missing required key `schema_version`",
        )),
        None => Ok(()),
        Some(v) => {
            let n = dec_u64(v, &vpath)?;
            if n != SCHEMA_VERSION {
                return Err(DescError::new(
                    vpath,
                    format!("unsupported schema_version {n} (this build reads {SCHEMA_VERSION})"),
                ));
            }
            Ok(())
        }
    }
}

fn dec_sensor(v: &Value, path: &str) -> Result<SensorKind, DescError> {
    let obj = as_obj(v, path)?;
    let kind = dec_str(req(obj, "kind", path)?, &format!("{path}/kind"))?;
    let field = |key: &str| -> Result<f64, DescError> {
        dec_f64(req(obj, key, path)?, &format!("{path}/{key}"))
    };
    match kind {
        "constant" => {
            check_keys(obj, &["kind", "level"], path)?;
            Ok(SensorKind::Constant(field("level")?))
        }
        "ramp" => {
            check_keys(obj, &["kind", "start", "slope_per_us"], path)?;
            Ok(SensorKind::Ramp {
                start: field("start")?,
                slope_per_us: field("slope_per_us")?,
            })
        }
        "noisy-ramp" => {
            check_keys(obj, &["kind", "start", "slope_per_us", "sigma", "seed"], path)?;
            Ok(SensorKind::NoisyRamp {
                start: field("start")?,
                slope_per_us: field("slope_per_us")?,
                sigma: field("sigma")?,
                seed: dec_u64(req(obj, "seed", path)?, &format!("{path}/seed"))?,
            })
        }
        "sine" => {
            check_keys(obj, &["kind", "offset", "amplitude", "freq_hz"], path)?;
            Ok(SensorKind::Sine {
                offset: field("offset")?,
                amplitude: field("amplitude")?,
                freq_hz: field("freq_hz")?,
            })
        }
        other => Err(DescError::new(
            format!("{path}/kind"),
            format!("unknown sensor kind `{other}`"),
        )),
    }
}

fn dec_periph(v: &Value, path: &str) -> Result<PeriphInst, DescError> {
    let obj = as_obj(v, path)?;
    let kind = dec_str(req(obj, "kind", path)?, &format!("{path}/kind"))?;
    let offset = dec_u32(req(obj, "offset", path)?, &format!("{path}/offset"))?;
    let plain = |k: PeriphKind| -> Result<PeriphKind, DescError> {
        check_keys(obj, &["kind", "offset"], path)?;
        Ok(k)
    };
    let kind = match kind {
        "gpio" => plain(PeriphKind::Gpio)?,
        "timer" => plain(PeriphKind::Timer)?,
        "uart" => plain(PeriphKind::Uart)?,
        "wdt" => plain(PeriphKind::Wdt)?,
        "i2c" => plain(PeriphKind::I2c)?,
        "spi" => {
            check_keys(obj, &["kind", "offset", "clkdiv"], path)?;
            PeriphKind::Spi {
                clkdiv: dec_u32(req(obj, "clkdiv", path)?, &format!("{path}/clkdiv"))?,
            }
        }
        "adc" => {
            check_keys(obj, &["kind", "offset", "conversion_cycles"], path)?;
            PeriphKind::Adc {
                conversion_cycles: dec_u32(
                    req(obj, "conversion_cycles", path)?,
                    &format!("{path}/conversion_cycles"),
                )?,
            }
        }
        other => {
            return Err(DescError::new(
                format!("{path}/kind"),
                format!("unknown peripheral kind `{other}`"),
            ))
        }
    };
    Ok(PeriphInst { kind, offset })
}

/// The clock `mhz` megahertz describes, or an error at `path` for every
/// value [`Frequency::from_mhz`] would panic on: zero, negative or
/// non-finite, or so high that the period rounds to 0 ps.
///
/// # Errors
///
/// A [`DescError`] at `path` naming the violated bound.
pub fn freq_from_mhz(mhz: f64, path: &str) -> Result<Frequency, DescError> {
    if !(mhz > 0.0 && mhz.is_finite()) {
        return Err(DescError::new(path, "frequency must be positive and finite"));
    }
    if (1e6 / mhz).round() < 1.0 {
        return Err(DescError::new(
            path,
            "frequency must be at most 2000000 MHz (a clock period of at least 1 ps)",
        ));
    }
    Ok(Frequency::from_mhz(mhz))
}

fn dec_freq(obj: &[(String, Value)], path: &str) -> Result<Frequency, DescError> {
    let ps = opt(obj, "freq_period_ps");
    let mhz = opt(obj, "freq_mhz");
    match (ps, mhz) {
        (Some(_), Some(_)) => Err(DescError::new(
            format!("{path}/freq_mhz"),
            "specify exactly one of `freq_period_ps` and `freq_mhz`",
        )),
        (Some(v), None) => {
            let p = format!("{path}/freq_period_ps");
            let ps = dec_u64(v, &p)?;
            if ps == 0 {
                return Err(DescError::new(p, "clock period must be at least 1 ps"));
            }
            Ok(Frequency::from_period_ps(ps))
        }
        (None, Some(v)) => {
            let p = format!("{path}/freq_mhz");
            freq_from_mhz(dec_f64(v, &p)?, &p)
        }
        (None, None) => Err(DescError::new(
            path,
            "missing required key `freq_period_ps` (or `freq_mhz`)",
        )),
    }
}

const SYSTEM_KEYS: &[&str] = &[
    "schema_version",
    "freq_period_ps",
    "freq_mhz",
    "pels",
    "sensor",
    "topology",
    "arbiter",
    "timer_starts_spi",
    "peripherals",
];

fn dec_system(v: &Value, path: &str, version_required: bool) -> Result<SystemDesc, DescError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, SYSTEM_KEYS, path)?;
    check_version(obj, path, version_required)?;
    let freq = dec_freq(obj, path)?;

    let pels_path = format!("{path}/pels");
    let pels_obj = as_obj(req(obj, "pels", path)?, &pels_path)?;
    check_keys(pels_obj, &["links", "scm_lines", "fifo_depth"], &pels_path)?;
    let pels = PelsDesc {
        links: dec_usize(req(pels_obj, "links", &pels_path)?, &format!("{pels_path}/links"))?,
        scm_lines: dec_usize(
            req(pels_obj, "scm_lines", &pels_path)?,
            &format!("{pels_path}/scm_lines"),
        )?,
        fifo_depth: dec_usize(
            req(pels_obj, "fifo_depth", &pels_path)?,
            &format!("{pels_path}/fifo_depth"),
        )?,
    };

    let sensor = dec_sensor(req(obj, "sensor", path)?, &format!("{path}/sensor"))?;

    let topo_path = format!("{path}/topology");
    let topology = match dec_str(req(obj, "topology", path)?, &topo_path)? {
        "shared" => Topology::Shared,
        "per-slave crossbar" => Topology::PerSlaveCrossbar,
        other => {
            return Err(DescError::new(
                topo_path,
                format!("unknown topology `{other}`"),
            ))
        }
    };

    let arb_path = format!("{path}/arbiter");
    let arbiter = match dec_str(req(obj, "arbiter", path)?, &arb_path)? {
        "round-robin" => ArbiterKind::RoundRobin,
        "fixed-priority" => ArbiterKind::FixedPriority,
        other => {
            return Err(DescError::new(
                arb_path,
                format!("unknown arbiter `{other}`"),
            ))
        }
    };

    let timer_starts_spi = dec_bool(
        req(obj, "timer_starts_spi", path)?,
        &format!("{path}/timer_starts_spi"),
    )?;

    let list_path = format!("{path}/peripherals");
    let list = req(obj, "peripherals", path)?
        .as_array()
        .ok_or_else(|| DescError::new(&list_path, "expected an array"))?;
    let mut peripherals = Vec::with_capacity(list.len());
    for (i, item) in list.iter().enumerate() {
        peripherals.push(dec_periph(item, &format!("{list_path}/{i}"))?);
    }

    Ok(SystemDesc {
        freq,
        pels,
        sensor,
        topology,
        arbiter,
        timer_starts_spi,
        peripherals,
    })
}

const SCENARIO_KEYS: &[&str] = &[
    "schema_version",
    "mediator",
    "threshold_level",
    "sample_period_ps",
    "spi_words",
    "events",
    "rmw_only",
    "use_udma",
    "exec",
    "obs",
    "timeline_window",
    "flows",
    "lifetime",
    "system",
];

fn dec_scenario(v: &Value, path: &str) -> Result<ScenarioDesc, DescError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, SCENARIO_KEYS, path)?;
    check_version(obj, path, true)?;

    let med_path = format!("{path}/mediator");
    let mediator = dec_str(req(obj, "mediator", path)?, &med_path).and_then(|s| {
        Mediator::from_name(s)
            .ok_or_else(|| DescError::new(&med_path, format!("unknown mediator `{s}`")))
    })?;

    let exec_path = format!("{path}/exec");
    let exec = dec_str(req(obj, "exec", path)?, &exec_path).and_then(|s| {
        ExecMode::from_name(s)
            .ok_or_else(|| DescError::new(&exec_path, format!("unknown exec mode `{s}`")))
    })?;

    let sample_period = SimTime::from_ps(dec_u64(
        req(obj, "sample_period_ps", path)?,
        &format!("{path}/sample_period_ps"),
    )?);

    let system = dec_system(req(obj, "system", path)?, &format!("{path}/system"), false)?;

    Ok(ScenarioDesc {
        system,
        mediator,
        threshold_level: dec_f64(
            req(obj, "threshold_level", path)?,
            &format!("{path}/threshold_level"),
        )?,
        sample_period,
        spi_words: dec_u32(req(obj, "spi_words", path)?, &format!("{path}/spi_words"))?,
        events: dec_u32(req(obj, "events", path)?, &format!("{path}/events"))?,
        rmw_only: dec_bool(req(obj, "rmw_only", path)?, &format!("{path}/rmw_only"))?,
        use_udma: dec_bool(req(obj, "use_udma", path)?, &format!("{path}/use_udma"))?,
        exec,
        obs: dec_bool(req(obj, "obs", path)?, &format!("{path}/obs"))?,
        timeline_window: dec_u64(
            req(obj, "timeline_window", path)?,
            &format!("{path}/timeline_window"),
        )?,
        // Optional (defaults off) so descriptions written before the
        // causal-flow layer still parse; emission always writes it.
        flows: match opt(obj, "flows") {
            Some(v) => dec_bool(v, &format!("{path}/flows"))?,
            None => false,
        },
        // Optional like `flows`: descriptions written before the
        // energy-ledger layer still parse; emission always writes it.
        lifetime: match opt(obj, "lifetime") {
            Some(v) => dec_bool(v, &format!("{path}/lifetime"))?,
            None => false,
        },
    })
}

// ---------------------------------------------------------------------
// Encode: the canonical layout by hand, every number spelled by
// `json::uint` / `json::float`.
// ---------------------------------------------------------------------

fn write_sensor(out: &mut String, sensor: SensorKind) {
    let (kind, fields) = sensor_fields(sensor);
    let _ = write!(out, "{{ \"kind\": \"{kind}\"");
    for (key, v) in fields {
        let _ = write!(out, ", \"{key}\": {}", json::float(v));
    }
    if let SensorKind::NoisyRamp { seed, .. } = sensor {
        let _ = write!(out, ", \"seed\": {}", json::uint(seed));
    }
    out.push_str(" }");
}

fn write_periph(out: &mut String, p: &PeriphInst) {
    let (kind, offset) = (p.kind.name(), json::uint(p.offset.into()));
    let _ = write!(out, "{{ \"kind\": \"{kind}\", \"offset\": {offset}");
    match p.kind {
        PeriphKind::Spi { clkdiv } => {
            let _ = write!(out, ", \"clkdiv\": {}", json::uint(clkdiv.into()));
        }
        PeriphKind::Adc { conversion_cycles } => {
            let cycles = json::uint(conversion_cycles.into());
            let _ = write!(out, ", \"conversion_cycles\": {cycles}");
        }
        _ => {}
    }
    out.push_str(" }");
}

fn write_system(out: &mut String, d: &SystemDesc, pad: &str, root: bool) {
    let _ = writeln!(out, "{{");
    if root {
        let _ = writeln!(out, "{pad}  \"schema_version\": {},", json::uint(SCHEMA_VERSION));
    }
    let _ = writeln!(out, "{pad}  \"freq_period_ps\": {},", json::uint(d.freq.period_ps()));
    let _ = writeln!(
        out,
        "{pad}  \"pels\": {{ \"links\": {}, \"scm_lines\": {}, \"fifo_depth\": {} }},",
        json::uint(d.pels.links as u64),
        json::uint(d.pels.scm_lines as u64),
        json::uint(d.pels.fifo_depth as u64)
    );
    let _ = write!(out, "{pad}  \"sensor\": ");
    write_sensor(out, d.sensor);
    let _ = writeln!(out, ",");
    let _ = writeln!(out, "{pad}  \"topology\": \"{}\",", d.topology);
    let _ = writeln!(out, "{pad}  \"arbiter\": \"{}\",", d.arbiter);
    let _ = writeln!(out, "{pad}  \"timer_starts_spi\": {},", d.timer_starts_spi);
    let _ = writeln!(out, "{pad}  \"peripherals\": [");
    for (i, p) in d.peripherals.iter().enumerate() {
        let _ = write!(out, "{pad}    ");
        write_periph(out, p);
        let _ = writeln!(out, "{}", if i + 1 < d.peripherals.len() { "," } else { "" });
    }
    let _ = writeln!(out, "{pad}  ]");
    let _ = write!(out, "{pad}}}");
}

impl SystemDesc {
    /// Serializes to canonical JSON (every key, fixed order, exact
    /// integer picoseconds). [`SystemDesc::from_json`] of the result is
    /// identical to `self` for every valid description.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        write_system(&mut s, self, "", true);
        s.push('\n');
        s
    }

    /// Parses, decodes and validates a description document.
    ///
    /// # Errors
    ///
    /// [`DescError`] carrying the JSON path of the first problem:
    /// malformed JSON (path `""`), an unknown key, a wrong type, a
    /// missing key, or any [`SystemDesc::validate`] failure.
    pub fn from_json(text: &str) -> Result<Self, DescError> {
        let doc = json::parse(text)
            .map_err(|e| DescError::new("", format!("malformed JSON: {e}")))?;
        let desc = dec_system(&doc, "", true)?;
        desc.validate()?;
        Ok(desc)
    }
}

impl ScenarioDesc {
    /// Serializes to canonical JSON (every key, fixed order, exact
    /// integer picoseconds, the system nested under `"system"`).
    /// [`ScenarioDesc::from_json`] of the result is identical to `self`
    /// for every valid description.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", json::uint(SCHEMA_VERSION));
        let _ = writeln!(s, "  \"mediator\": \"{}\",", self.mediator);
        let _ = writeln!(s, "  \"threshold_level\": {},", json::float(self.threshold_level));
        let _ = writeln!(s, "  \"sample_period_ps\": {},", json::uint(self.sample_period.as_ps()));
        let _ = writeln!(s, "  \"spi_words\": {},", json::uint(self.spi_words.into()));
        let _ = writeln!(s, "  \"events\": {},", json::uint(self.events.into()));
        let _ = writeln!(s, "  \"rmw_only\": {},", self.rmw_only);
        let _ = writeln!(s, "  \"use_udma\": {},", self.use_udma);
        let _ = writeln!(s, "  \"exec\": \"{}\",", self.exec);
        let _ = writeln!(s, "  \"obs\": {},", self.obs);
        let _ = writeln!(s, "  \"timeline_window\": {},", json::uint(self.timeline_window));
        let _ = writeln!(s, "  \"flows\": {},", self.flows);
        let _ = writeln!(s, "  \"lifetime\": {},", self.lifetime);
        s.push_str("  \"system\": ");
        write_system(&mut s, &self.system, "  ", false);
        s.push_str("\n}\n");
        s
    }

    /// Parses, decodes and validates a scenario description document.
    ///
    /// # Errors
    ///
    /// [`DescError`] carrying the JSON path of the first problem:
    /// malformed JSON (path `""`), an unknown key, a wrong type, a
    /// missing key, or any [`ScenarioDesc::validate`] failure.
    pub fn from_json(text: &str) -> Result<Self, DescError> {
        let doc = json::parse(text)
            .map_err(|e| DescError::new("", format!("malformed JSON: {e}")))?;
        let desc = dec_scenario(&doc, "")?;
        desc.validate()?;
        Ok(desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_descs_round_trip() {
        let d = SystemDesc::default();
        assert_eq!(SystemDesc::from_json(&d.to_json()).unwrap(), d);
        let s = ScenarioDesc::default();
        assert_eq!(ScenarioDesc::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn non_default_desc_round_trips() {
        let mut s = ScenarioDesc {
            mediator: Mediator::IbexIrq,
            exec: ExecMode::Naive,
            ..ScenarioDesc::default()
        };
        s.system.topology = Topology::PerSlaveCrossbar;
        s.system.arbiter = ArbiterKind::FixedPriority;
        s.system.sensor = SensorKind::NoisyRamp {
            start: 0.25,
            slope_per_us: 0.125,
            sigma: 0.0625,
            seed: 0xDEAD_BEEF,
        };
        s.system.pels.links = 8;
        s.system.peripherals.swap(0, 6);
        s.timeline_window = 128;
        assert_eq!(ScenarioDesc::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn malformed_json_reports_at_root() {
        let e = SystemDesc::from_json("{ not json").unwrap_err();
        assert_eq!(e.path, "");
        assert!(e.message.contains("malformed JSON"), "{e}");
    }

    #[test]
    fn unknown_keys_are_rejected_with_paths() {
        let mut text = SystemDesc::default().to_json();
        text = text.replace("\"topology\"", "\"topographies\"");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/topographies");
        assert!(e.message.contains("unknown key"), "{e}");

        let mut s = ScenarioDesc::default().to_json();
        s = s.replace("\"obs\"", "\"observe\"");
        let e = ScenarioDesc::from_json(&s).unwrap_err();
        assert_eq!(e.path, "/observe");
    }

    #[test]
    fn out_of_range_values_report_paths_and_messages() {
        // Zero frequency.
        let text = SystemDesc::default()
            .to_json()
            .replace("\"freq_period_ps\": 18182", "\"freq_period_ps\": 0");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/freq_period_ps");
        assert!(e.message.contains("at least 1 ps"), "{e}");

        // Zero clkdiv.
        let text = SystemDesc::default()
            .to_json()
            .replace("\"clkdiv\": 4", "\"clkdiv\": 0");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/peripherals/2/clkdiv");
        assert!(e.message.contains("at least 1"), "{e}");

        // No links.
        let text = SystemDesc::default()
            .to_json()
            .replace("\"links\": 1,", "\"links\": 0,");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/pels/links");
        assert!(e.message.contains("between 1 and 64"), "{e}");

        // The same failure inside a scenario reports under /system.
        let text = ScenarioDesc::default()
            .to_json()
            .replace("\"links\": 1,", "\"links\": 0,");
        let e = ScenarioDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/system/pels/links");
    }

    #[test]
    fn integers_beyond_2_pow_53_fail_instead_of_rounding() {
        let with = |key: &str, value: &str| {
            let text = ScenarioDesc::default().to_json();
            let line = text
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("\"{key}\"")))
                .expect("canonical key");
            text.replace(line, &format!("  \"{key}\": {value},"))
        };
        // Past 2^53 the literal itself is refused, at its byte offset.
        for key in ["events", "timeline_window"] {
            for big in ["9007199254740993", "18446744073709551616"] {
                let text = with(key, big);
                let e = ScenarioDesc::from_json(&text).unwrap_err();
                assert_eq!(e.path, "", "{key} {big}");
                let at = format!("json parse error at byte {}", text.find(big).unwrap());
                assert!(e.message.contains(&at), "{key} {big}: {e}");
            }
        }
        // At 2^53 the value decodes exactly and meets the field's range.
        let e = ScenarioDesc::from_json(&with("events", "9007199254740992")).unwrap_err();
        assert_eq!(e.path, "/events");
        assert!(e.message.contains("9007199254740992 does not fit"), "{e}");
        let d = ScenarioDesc::from_json(&with("timeline_window", "9007199254740992")).unwrap();
        assert_eq!(d.timeline_window, 1 << 53);
        assert_eq!(ScenarioDesc::from_json(&d.to_json()).unwrap(), d);
        // A float literal past 2^53 is no integer.
        let e = ScenarioDesc::from_json(&with("timeline_window", "1e300")).unwrap_err();
        assert_eq!(e.path, "/timeline_window");
        assert!(e.message.contains("non-negative integer"), "{e}");
    }

    #[test]
    fn floats_beyond_2_pow_53_round_trip_in_exponent_form() {
        for v in [1e300, -1e20, 9007199254740994.0, 0.5, 3.0] {
            let mut d = ScenarioDesc {
                threshold_level: v,
                ..ScenarioDesc::default()
            };
            d.system.sensor = SensorKind::Constant(v);
            assert_eq!(ScenarioDesc::from_json(&d.to_json()).unwrap(), d, "{v}");
        }
        let d = ScenarioDesc {
            threshold_level: 1e300,
            ..ScenarioDesc::default()
        };
        assert!(d.to_json().contains("\"threshold_level\": 1e300,"));
    }

    #[test]
    fn type_and_key_errors_report_paths() {
        let text = SystemDesc::default()
            .to_json()
            .replace("\"timer_starts_spi\": true", "\"timer_starts_spi\": 1");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/timer_starts_spi");
        assert!(e.message.contains("boolean"), "{e}");

        let text = ScenarioDesc::default()
            .to_json()
            .replace("\"mediator\": \"pels-sequenced\"", "\"mediator\": \"smi\"");
        let e = ScenarioDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/mediator");
        assert!(e.message.contains("unknown mediator"), "{e}");

        let text = SystemDesc::default()
            .to_json()
            .replace("\"kind\": \"wdt\"", "\"kind\": \"dma\"");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/peripherals/5/kind");
        assert!(e.message.contains("unknown peripheral kind `dma`"), "{e}");
    }

    #[test]
    fn single_step_exec_mode_is_rejected_at_its_path() {
        let text = ScenarioDesc::default()
            .to_json()
            .replace("\"exec\": \"fast\"", "\"exec\": \"single-step\"");
        let e = ScenarioDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/exec");
        assert!(e.message.contains("unknown exec mode `single-step`"), "{e}");
    }

    #[test]
    fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
        let depth = 100_000;
        let text = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let e = ScenarioDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "");
        assert!(e.message.contains("malformed JSON"), "{e}");
        assert!(e.message.contains("nesting"), "{e}");
    }

    #[test]
    fn schema_version_is_required_and_checked() {
        let text = SystemDesc::default()
            .to_json()
            .replace("  \"schema_version\": 1,\n", "");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert!(e.message.contains("schema_version"), "{e}");

        let text = ScenarioDesc::default()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        let e = ScenarioDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/schema_version");
        assert!(e.message.contains("unsupported"), "{e}");
    }

    #[test]
    fn freq_mhz_is_accepted_but_not_alongside_period() {
        let text = SystemDesc::default()
            .to_json()
            .replace("\"freq_period_ps\": 18182", "\"freq_mhz\": 55");
        let d = SystemDesc::from_json(&text).unwrap();
        assert_eq!(d.freq, Frequency::from_mhz(55.0));

        let text = SystemDesc::default().to_json().replace(
            "\"freq_period_ps\": 18182",
            "\"freq_period_ps\": 18182, \"freq_mhz\": 55",
        );
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/freq_mhz");
        assert!(e.message.contains("exactly one"), "{e}");
    }

    #[test]
    fn freq_mhz_whose_period_rounds_to_zero_is_rejected() {
        let at = |mhz: &str| {
            ScenarioDesc::default()
                .to_json()
                .replace("\"freq_period_ps\": 18182", &format!("\"freq_mhz\": {mhz}"))
        };
        for mhz in ["10000000", "1e300"] {
            let e = ScenarioDesc::from_json(&at(mhz)).unwrap_err();
            assert_eq!(e.path, "/system/freq_mhz", "{mhz}");
            assert!(e.message.contains("at most 2000000 MHz"), "{e}");
        }
        // The highest accepted frequency rounds to a 1 ps period.
        let d = ScenarioDesc::from_json(&at("2000000")).unwrap();
        assert_eq!(d.system.freq.period_ps(), 1);
    }
}
