//! JSON round-tripping for descriptions, on the in-repo
//! [`pels_obs::json`] parser — no external dependencies.
//!
//! Emission is *canonical*: every key is written, in a fixed order, with
//! exact-integer picosecond fields (`freq_period_ps`,
//! `sample_period_ps`) so that `from_json(d.to_json()) == d` holds
//! bit-for-bit for every valid description. Decoding reads each object
//! through one reader that takes members by key: it rejects unknown and
//! repeated keys (ahead of any other error in the same object, except a
//! `schema_version` it does not speak) and carries the JSON path of the
//! first offending value in the returned [`DescError`].

use crate::error::DescError;
use crate::kinds::{sensor_fields, sensor_name, ExecMode, Mediator, SensorKind, SENSOR_KINDS};
use crate::scenario::ScenarioDesc;
use crate::system::{PelsDesc, PeriphInst, PeriphKind, SystemDesc, CANONICAL_KINDS, MAX_PERIOD_PS};
use pels_interconnect::{ArbiterKind, Topology};
use pels_obs::json::{self, Value};
use pels_sim::{Frequency, SimTime};
use std::fmt::{self, Write as _};

/// The description schema version this crate reads and writes. Version 2
/// dropped the scenario's `use_udma` key.
pub const SCHEMA_VERSION: u64 = 2;

// ---------------------------------------------------------------------
// Decode: one reader per JSON object, handing out members by key.
// ---------------------------------------------------------------------

/// Where a value sits in the document, spelled out (`/system/pels/links`)
/// only when an error names it.
#[derive(Clone, Copy)]
enum Path<'a> {
    Root,
    Key(&'a Path<'a>, &'a str),
    Index(&'a Path<'a>, usize),
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root => Ok(()),
            Path::Key(up, key) => write!(f, "{up}/{key}"),
            Path::Index(up, i) => write!(f, "{up}/{i}"),
        }
    }
}

/// How an enumerated value spells its name on the wire.
type Name<T> = fn(&T) -> &'static str;

/// Converts a member's value, or says what is wrong with it.
type Conv<'a, T> = fn(&'a Value) -> Result<T, String>;

/// A JSON scalar a description field reads as.
trait Wire: Sized + Default {
    fn read(v: &Value) -> Result<Self, String>;
}

impl Wire for u64 {
    fn read(v: &Value) -> Result<Self, String> {
        v.as_u64().ok_or_else(|| "expected a non-negative integer".into())
    }
}

impl Wire for u32 {
    fn read(v: &Value) -> Result<Self, String> {
        let n = u64::read(v)?;
        u32::try_from(n).map_err(|_| format!("{n} does not fit a 32-bit integer"))
    }
}

impl Wire for usize {
    fn read(v: &Value) -> Result<Self, String> {
        u64::read(v).map(|n| n as usize)
    }
}

impl Wire for f64 {
    fn read(v: &Value) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "expected a number".into())
    }
}

impl Wire for bool {
    fn read(v: &Value) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "expected a boolean".into())
    }
}

/// One JSON object under decode. Each member is taken by key. A failed
/// read keeps the first error and hands back a placeholder, so decoding
/// goes on and [`Obj::finish`] can report a member never taken (an
/// unknown or a repeated key) ahead of that error.
struct Obj<'a> {
    path: Path<'a>,
    members: &'a [(String, Value)],
    taken: Vec<bool>,
    err: Option<DescError>,
}

impl<'a> Obj<'a> {
    /// A reader over `v`, or over nothing when `v` is absent (its parent
    /// has reported that).
    fn new(v: Option<&'a Value>, path: Path<'a>) -> Self {
        let members = v.and_then(Value::as_object);
        let err = (v.is_some() && members.is_none())
            .then(|| DescError::new(path.to_string(), "expected an object"));
        let members = members.unwrap_or_default();
        Obj { path, members, taken: vec![false; members.len()], err }
    }

    /// Records a failure of the member `key`, or of the object itself.
    fn fail(&mut self, key: Option<&str>, message: impl Into<String>) {
        let at = key.map_or(self.path, |key| Path::Key(&self.path, key));
        self.err.get_or_insert_with(|| DescError::new(at.to_string(), message));
    }

    /// Takes the first member named `key` (a repeat stays untaken) and
    /// converts it, or records why not: a bad member at its own path, a
    /// missing `required` one at the object's.
    fn take<T>(&mut self, key: &str, required: bool, conv: Conv<'a, T>) -> Option<T> {
        let found = self.members.iter().position(|(k, _)| k == key);
        if found.is_none() && required {
            self.fail(None, format!("missing required key `{key}`"));
        }
        let i = found?;
        self.taken[i] = true;
        conv(&self.members[i].1).map_err(|message| self.fail(Some(key), message)).ok()
    }

    fn req<T: Wire>(&mut self, key: &str) -> T {
        self.take(key, true, T::read).unwrap_or_default()
    }

    /// The member `key`: the one of `all` that `name` spells as the
    /// member's string (`what` names the set in the error).
    fn lookup<T: Copy>(&mut self, key: &str, what: &str, all: &[T], name: Name<T>) -> Option<T> {
        let s = self.take(key, true, |v| v.as_str().ok_or_else(|| "expected a string".into()))?;
        let known = all.iter().copied().find(|t| name(t) == s);
        if known.is_none() {
            self.fail(Some(key), format!("unknown {what} `{s}`"));
        }
        known
    }

    /// [`Obj::lookup`], with the first of `all` standing in on failure.
    fn named<T: Copy>(&mut self, key: &str, what: &str, all: &[T], name: Name<T>) -> T {
        self.lookup(key, what, all, name).unwrap_or(all[0])
    }

    /// The `kind` member, which decides what other members the object
    /// has: an unknown kind is reported in their place.
    fn kind<T: Copy>(&mut self, what: &str, all: &[T], name: Name<T>) -> T {
        self.lookup("kind", what, all, name).unwrap_or_else(|| {
            self.taken.fill(true);
            all[0]
        })
    }

    /// Decodes the nested object `key` with `dec`.
    fn obj<T>(&mut self, key: &str, dec: impl FnOnce(&mut Obj) -> T) -> T {
        let (v, up) = (self.take(key, true, Ok), self.path);
        self.nested(v, Path::Key(&up, key), dec)
    }

    /// Decodes each object of the array `key` with `dec`.
    fn objs<T>(&mut self, key: &str, mut dec: impl FnMut(&mut Obj) -> T) -> Vec<T> {
        let list = self.take(key, true, |v| v.as_array().ok_or_else(|| "expected an array".into()));
        let (up, items) = (self.path, list.unwrap_or_default().iter().enumerate());
        let at = Path::Key(&up, key);
        items.map(|(i, item)| self.nested(Some(item), Path::Index(&at, i), &mut dec)).collect()
    }

    fn nested<T>(&mut self, v: Option<&Value>, path: Path, dec: impl FnOnce(&mut Obj) -> T) -> T {
        let mut obj = Obj::new(v, path);
        let out = dec(&mut obj);
        self.err = self.err.take().or(obj.finish().err());
        out
    }

    /// The first member never taken, as an unknown or a duplicate key;
    /// else the first failure.
    fn finish(self) -> Result<(), DescError> {
        let Some(i) = self.taken.iter().position(|&t| !t) else {
            return self.err.map_or(Ok(()), Err);
        };
        let key = &self.members[i].0;
        let repeated = self.members.iter().zip(&self.taken).any(|((k, _), &t)| t && k == key);
        let what = if repeated { "duplicate" } else { "unknown" };
        Err(DescError::new(Path::Key(&self.path, key).to_string(), format!("{what} key `{key}`")))
    }
}

/// Parses `text` and decodes its root object with `dec`.
fn decode<T>(text: &str, dec: impl FnOnce(&mut Obj) -> T) -> Result<T, DescError> {
    let doc = json::parse(text).map_err(|e| DescError::new("", format!("malformed JSON: {e}")))?;
    let mut root = Obj::new(Some(&doc), Path::Root);
    let out = dec(&mut root);
    root.finish().map(|()| out)
}

/// The clock `mhz` megahertz describes, or an error at `path` for every
/// value [`Frequency::from_mhz`] would panic on (zero, negative or
/// non-finite, or so high that the period rounds to 0 ps) and for a
/// clock below 1 kHz, which [`SystemDesc::validate`] refuses.
///
/// # Errors
///
/// A [`DescError`] at `path` naming the violated bound.
pub fn freq_from_mhz(mhz: f64, path: &str) -> Result<Frequency, DescError> {
    let period = (1e6 / mhz).round();
    let bound = if !(mhz > 0.0 && mhz.is_finite()) {
        "frequency must be positive and finite"
    } else if period < 1.0 {
        "frequency must be at most 2000000 MHz (a clock period of at least 1 ps)"
    } else if period > MAX_PERIOD_PS as f64 {
        "frequency must be at least 0.001 MHz (1 kHz)"
    } else {
        return Ok(Frequency::from_mhz(mhz));
    };
    Err(DescError::new(path, bound))
}

/// `schema_version`, where present, must be the one we speak. Another
/// version has another key set, so a mismatch is the error reported for
/// the object, in place of the keys it does not know.
fn dec_version(r: &mut Obj, required: bool) {
    let present = r.members.iter().any(|(k, _)| k == "schema_version");
    let read = r.take("schema_version", required, |v| match u64::read(v)? {
        SCHEMA_VERSION => Ok(()),
        n => Err(format!("unsupported schema_version {n} (this build reads {SCHEMA_VERSION})")),
    });
    if present && read.is_none() {
        r.taken.fill(true);
    }
}

/// Exactly one of `freq_period_ps` and `freq_mhz`.
fn dec_freq(r: &mut Obj) -> Frequency {
    let ps = r.take("freq_period_ps", false, |v| match u64::read(v)? {
        0 => Err("clock period must be at least 1 ps".into()),
        ps => Ok(Frequency::from_period_ps(ps)),
    });
    let mhz = r.take("freq_mhz", false, |v| {
        freq_from_mhz(f64::read(v)?, "").map_err(|e| e.message)
    });
    match (ps, mhz) {
        (Some(f), None) | (None, Some(f)) => return f,
        (Some(_), Some(_)) => {
            r.fail(Some("freq_mhz"), "specify exactly one of `freq_period_ps` and `freq_mhz`")
        }
        (None, None) => r.fail(None, "missing required key `freq_period_ps` (or `freq_mhz`)"),
    }
    Frequency::from_period_ps(1)
}

fn dec_sensor(r: &mut Obj) -> SensorKind {
    let mut sensor = r.kind("sensor kind", &SENSOR_KINDS, sensor_name);
    for (key, v) in sensor_fields(&mut sensor) {
        *v = r.req(key);
    }
    if let SensorKind::NoisyRamp { seed, .. } = &mut sensor {
        *seed = r.req("seed");
    }
    sensor
}

fn dec_periph(r: &mut Obj) -> PeriphInst {
    let mut kind = r.kind("peripheral kind", &CANONICAL_KINDS, PeriphKind::name);
    let offset = r.req("offset");
    match &mut kind {
        PeriphKind::Spi { clkdiv } => *clkdiv = r.req("clkdiv"),
        PeriphKind::Adc { conversion_cycles } => *conversion_cycles = r.req("conversion_cycles"),
        _ => {}
    }
    PeriphInst { kind, offset }
}

/// A system document (`root`) or the system nested in a scenario.
fn dec_system(r: &mut Obj, root: bool) -> SystemDesc {
    dec_version(r, root);
    SystemDesc {
        freq: dec_freq(r),
        pels: r.obj("pels", |r| PelsDesc {
            links: r.req("links"),
            scm_lines: r.req("scm_lines"),
            fifo_depth: r.req("fifo_depth"),
        }),
        sensor: r.obj("sensor", dec_sensor),
        topology: r.named("topology", "topology", &Topology::ALL, Topology::name),
        arbiter: r.named("arbiter", "arbiter", &ArbiterKind::ALL, ArbiterKind::name),
        timer_starts_spi: r.req("timer_starts_spi"),
        peripherals: r.objs("peripherals", dec_periph),
    }
}

fn dec_scenario(r: &mut Obj) -> ScenarioDesc {
    dec_version(r, true);
    ScenarioDesc {
        mediator: r.named("mediator", "mediator", &Mediator::ALL, Mediator::name),
        threshold_level: r.req("threshold_level"),
        sample_period: SimTime::from_ps(r.req("sample_period_ps")),
        spi_words: r.req("spi_words"),
        events: r.req("events"),
        rmw_only: r.req("rmw_only"),
        exec: r.named("exec", "exec mode", &ExecMode::ALL, ExecMode::name),
        obs: r.req("obs"),
        timeline_window: r.req("timeline_window"),
        // Optional (default off) so descriptions written before the
        // causal-flow and energy-ledger layers still parse; emission
        // always writes both.
        flows: r.take("flows", false, bool::read).unwrap_or(false),
        lifetime: r.take("lifetime", false, bool::read).unwrap_or(false),
        system: r.obj("system", |r| dec_system(r, false)),
    }
}

// ---------------------------------------------------------------------
// Encode: the canonical layout by hand, every number spelled by
// `json::uint` / `json::float`.
// ---------------------------------------------------------------------

fn write_sensor(out: &mut String, mut sensor: SensorKind) {
    let _ = write!(out, "{{ \"kind\": \"{}\"", sensor_name(&sensor));
    for (key, v) in sensor_fields(&mut sensor) {
        let _ = write!(out, ", \"{key}\": {}", json::float(*v));
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
        let desc = decode(text, |r| dec_system(r, true))?;
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
        let desc = decode(text, dec_scenario)?;
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
            .replace(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"), "");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert!(e.message.contains("schema_version"), "{e}");

        let text = ScenarioDesc::default().to_json().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 99",
        );
        let e = ScenarioDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/schema_version");
        assert!(e.message.contains("unsupported"), "{e}");
    }

    #[test]
    fn a_version_1_document_fails_at_its_version_not_at_its_old_keys() {
        // Version 1 scenarios carried `use_udma`, which version 2 dropped.
        let v2 = ScenarioDesc::default().to_json();
        let v1 = v2
            .replace("\"schema_version\": 2", "\"schema_version\": 1")
            .replace("\"rmw_only\": false,", "\"rmw_only\": false,\n  \"use_udma\": true,");
        assert!(v1.contains("\"use_udma\": true") && v1.contains("\"schema_version\": 1"));
        let e = ScenarioDesc::from_json(&v1).unwrap_err();
        assert_eq!(e.path, "/schema_version");
        assert!(e.message.contains("unsupported schema_version 1"), "{e}");
        // The version goes ahead of a duplicate key as well.
        let dup = v1.replace("\"events\": 20,", "\"events\": 20, \"events\": 5,");
        assert_eq!(ScenarioDesc::from_json(&dup).unwrap_err().path, "/schema_version");
        // At the version this build speaks, the old key is what fails.
        let v2_keys = v1.replace("\"schema_version\": 1", "\"schema_version\": 2");
        let e = ScenarioDesc::from_json(&v2_keys).unwrap_err();
        assert_eq!(e.path, "/use_udma");
        assert!(e.message.contains("unknown key"), "{e}");
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
    fn repeated_keys_are_rejected_with_paths() {
        // A second root `events` after the canonical one.
        let text = ScenarioDesc::default()
            .to_json()
            .replace("\"events\": 20,", "\"events\": 20, \"events\": 500,");
        let e = ScenarioDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/events");
        assert!(e.message.contains("duplicate key `events`"), "{e}");

        // A second `timer_starts_spi` inside `system`.
        let text = ScenarioDesc::default().to_json().replace(
            "\"timer_starts_spi\": true,",
            "\"timer_starts_spi\": true, \"timer_starts_spi\": false,",
        );
        let e = ScenarioDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/system/timer_starts_spi");
        assert!(e.message.contains("duplicate key `timer_starts_spi`"), "{e}");

        // A second `clkdiv` inside one peripheral entry, reported ahead
        // of the bad value it carries.
        let text = SystemDesc::default()
            .to_json()
            .replace("\"clkdiv\": 4", "\"clkdiv\": 4, \"clkdiv\": \"fast\"");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/peripherals/2/clkdiv");
        assert!(e.message.contains("duplicate key `clkdiv`"), "{e}");
    }

    #[test]
    fn freq_mhz_below_1_khz_is_rejected_at_its_own_path() {
        for mhz in ["0.0001", "1e-300"] {
            let text = SystemDesc::default()
                .to_json()
                .replace("\"freq_period_ps\": 18182", &format!("\"freq_mhz\": {mhz}"));
            let e = SystemDesc::from_json(&text).unwrap_err();
            assert_eq!(e.path, "/freq_mhz", "{mhz}");
            assert!(e.message.contains("at least 0.001 MHz"), "{mhz}: {e}");
        }
        // 1 kHz itself is the longest period validation accepts.
        let text = SystemDesc::default()
            .to_json()
            .replace("\"freq_period_ps\": 18182", "\"freq_mhz\": 0.001");
        let d = SystemDesc::from_json(&text).unwrap();
        assert_eq!(d.freq.period_ps(), MAX_PERIOD_PS);
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
