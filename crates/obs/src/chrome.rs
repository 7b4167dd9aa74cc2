//! Chrome trace-event export.
//!
//! Serializes two time domains into one document loadable in Perfetto or
//! `chrome://tracing`:
//!
//! * the **simulated-time** [`Trace`] — every entry becomes an instant
//!   event on a per-component track under the `sim` process, with the
//!   picosecond timestamp mapped onto the format's microsecond axis;
//! * the **host-time** profiler intervals ([`SpanEvent`]) — complete
//!   (`"X"`) events on per-thread tracks under the `host` process.
//!
//! Only the JSON-array-of-events subset of the trace-event format is
//! emitted (`{"traceEvents": [...]}`), which both viewers accept.

use crate::json::{self, Value, Writer};
use crate::profile::SpanEvent;
use pels_sim::{ComponentId, FlowHop, FlowTrace, Trace};
use std::collections::HashMap;

/// Process id used for simulated-time events.
pub const SIM_PID: u64 = 1;
/// Process id used for host-time profiler spans.
pub const HOST_PID: u64 = 2;

/// Builder for a Chrome trace-event document.
///
/// ```
/// use pels_obs::ChromeTrace;
/// use pels_sim::{SimTime, Trace};
/// let mut t = Trace::with_entries();
/// t.record_named(SimTime::from_ns(10), "spi", "eot", 1);
/// let mut ct = ChromeTrace::new();
/// ct.add_sim_trace(&t);
/// let doc = ct.finish();
/// assert!(doc.contains("\"traceEvents\""));
/// assert!(pels_obs::chrome::validate(&doc).is_ok());
/// ```
#[derive(Debug)]
pub struct ChromeTrace {
    /// The document, with the root object and `traceEvents` open.
    w: Writer,
    events: usize,
    sim_tids: HashMap<ComponentId, u64>,
    named_threads: Vec<(u64, u64)>,
    flow_id_base: u64,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        ChromeTrace::new()
    }
}

impl ChromeTrace {
    /// Creates an empty document builder.
    pub fn new() -> Self {
        let mut w = Writer::new();
        w.begin_object().key("traceEvents").begin_array();
        let mut ct = ChromeTrace {
            w,
            events: 0,
            sim_tids: HashMap::new(),
            named_threads: Vec::new(),
            flow_id_base: 0,
        };
        ct.metadata("process_name", SIM_PID, 0, "sim (simulated time)");
        ct.metadata("process_name", HOST_PID, 0, "host (wall time)");
        ct
    }

    /// Opens the next event object and writes its leading `ph`, `name`
    /// and (when given) `cat` members.
    fn event(&mut self, ph: &str, name: &str, cat: Option<&str>) -> &mut Writer {
        self.events += 1;
        self.w.begin_object().key("ph").str(ph).key("name").str(name);
        if let Some(cat) = cat {
            self.w.key("cat").str(cat);
        }
        &mut self.w
    }

    /// A metadata event naming a process or thread track.
    fn metadata(&mut self, what: &str, pid: u64, tid: u64, name: &str) {
        let w = self.event("M", what, None);
        w.key("pid").uint(pid).key("tid").uint(tid);
        w.key("args").begin_object().key("name").str(name).end_object().end_object();
    }

    fn name_thread(&mut self, pid: u64, tid: u64, name: &str) {
        if !self.named_threads.contains(&(pid, tid)) {
            self.named_threads.push((pid, tid));
            self.metadata("thread_name", pid, tid, name);
        }
    }

    /// Adds every kept entry of a simulated-time trace (see
    /// [`Trace::enable_entries`]) as instant events, one track per source
    /// component. 1 simulated µs maps to 1 trace µs.
    pub fn add_sim_trace(&mut self, trace: &Trace) {
        for e in trace.entries() {
            let next = self.sim_tids.len() as u64 + 1;
            let tid = *self.sim_tids.entry(e.source).or_insert(next);
            self.name_thread(SIM_PID, tid, e.source.name());
            let name = format!("{}.{}", e.source.name(), e.label);
            let w = self.event("i", &name, Some("sim"));
            w.key("s").str("t").key("ts").float(e.time.as_ps() as f64 / 1e6);
            w.key("pid").uint(SIM_PID).key("tid").uint(tid);
            w.key("args").begin_object().key("value").uint(e.value).end_object().end_object();
        }
    }

    /// Adds one counter-track sample (`"ph": "C"`) under the `sim`
    /// process: a named set of numeric series at a simulated-time
    /// timestamp (µs on the trace axis). Perfetto renders each series of
    /// a given counter name as one track, so a sequence of calls with
    /// the same `name` and timestamps in order draws a curve — power or
    /// activity over simulated time next to the instant-event tracks.
    ///
    /// Entries are emitted in the order given; a non-finite value is
    /// written as `null` (JSON has no NaN or infinity).
    pub fn add_counter(&mut self, name: &str, ts_us: f64, series: &[(&str, f64)]) {
        let w = self.event("C", name, Some("sim"));
        w.key("ts").float(ts_us).key("pid").uint(SIM_PID).key("tid").uint(0);
        w.key("args").begin_object();
        for &(key, value) in series {
            w.key(key).float(value);
        }
        w.end_object().end_object();
    }

    /// Adds every causal flow as a Perfetto flow-arrow chain: each hop
    /// becomes a short anchor slice (`"X"`) on its component's track
    /// under the `sim` process, bound to a `"s"`/`"t"`/`"f"` flow event
    /// carrying the [`pels_sim::FlowId`] as the binding id. Viewers draw
    /// arrows from slice to slice along each flow — the rendered causal
    /// thread from trigger edge to task retirement. Flows with fewer
    /// than two hops draw no arrow and are skipped.
    ///
    /// Binding ids from distinct calls are offset into disjoint ranges,
    /// so flow traces from independent runs (each minting ids from 1)
    /// can share one document without their arrows merging.
    pub fn add_flow_events(&mut self, flows: &FlowTrace) {
        let base = self.flow_id_base;
        for id in flows.flow_ids() {
            self.flow_id_base = self.flow_id_base.max(base + id.0);
            let hops: Vec<&FlowHop> = flows.hops_of(id).collect();
            if hops.len() < 2 {
                continue;
            }
            for (i, h) in hops.iter().enumerate() {
                let next = self.sim_tids.len() as u64 + 1;
                let tid = *self.sim_tids.entry(h.source).or_insert(next);
                self.name_thread(SIM_PID, tid, h.source.name());
                let ts = h.time.as_ps() as f64 / 1e6;
                // Anchor slice the flow event binds to (flow arrows
                // attach to slices, not instants).
                let name = format!("{}.{}", h.source.name(), h.stage);
                let w = self.event("X", &name, Some("flow"));
                w.key("ts").float(ts).key("dur").float(0.001);
                w.key("pid").uint(SIM_PID).key("tid").uint(tid).end_object();
                let ph = if i == 0 {
                    "s"
                } else if i + 1 == hops.len() {
                    "f"
                } else {
                    "t"
                };
                let w = self.event(ph, "flow", Some("flow"));
                w.key("id").uint(base + id.0).key("ts").float(ts);
                w.key("pid").uint(SIM_PID).key("tid").uint(tid);
                if ph == "f" {
                    w.key("bp").str("e");
                }
                w.end_object();
            }
        }
    }

    /// Adds host-time profiler intervals as complete (`"X"`) events, one
    /// track per profiled thread.
    pub fn add_host_spans(&mut self, spans: &[SpanEvent]) {
        for s in spans {
            self.name_thread(HOST_PID, s.thread, &format!("host thread {}", s.thread));
            let w = self.event("X", &s.path, Some("host"));
            w.key("ts").float(s.start_us).key("dur").float(s.dur_us);
            w.key("pid").uint(HOST_PID).key("tid").uint(s.thread).end_object();
        }
    }

    /// Number of events added so far (including metadata events).
    pub fn len(&self) -> usize {
        self.events
    }

    /// Whether no event was added (never true after [`ChromeTrace::new`],
    /// which names the two processes).
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Renders the `{"traceEvents": [...]}` document.
    pub fn finish(mut self) -> String {
        self.w.end_array().end_object();
        self.w.finish()
    }
}

/// Schema-checks a rendered trace document: well-formed JSON, a
/// `traceEvents` array, per-event field requirements (`ph`/`name`
/// strings, numeric `ts`/`pid`/`tid`, `dur` on complete events, numeric
/// or `null` counter series), and
/// flow-event well-formedness — every `"s"` start has a matching `"f"`
/// end with the same binding id, no step/end appears for a flow that was
/// never started, and every flow event binds to an enclosing `"X"` slice
/// on the same track.
///
/// This is the gate `bench_smoke.sh` runs (through the `obs_check`
/// binary) against `reproduce --obs` output.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate(doc: &str) -> Result<(), String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    let events = v
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    // (pid, tid, ts, dur) of every complete slice — the binding targets
    // flow events are checked against.
    let mut slices: Vec<(u64, u64, f64, f64)> = Vec::new();
    // (index, ph, id, pid, tid, ts) of every flow event.
    let mut flow_events: Vec<(usize, char, u64, u64, u64, f64)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("event {i}: {msg}");
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("missing string ph"))?;
        e.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("missing string name"))?;
        let mut ids = [0u64; 2];
        for (slot, field) in ids.iter_mut().zip(["pid", "tid"]) {
            *slot = e
                .get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| ctx(&format!("missing integer {field}")))?;
        }
        let [pid, tid] = ids;
        match ph {
            "M" => {}
            "i" | "I" | "X" | "B" | "E" => {
                let ts = e
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| ctx("missing numeric ts"))?;
                if ph == "X" {
                    let dur = e
                        .get("dur")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| ctx("missing numeric dur on X event"))?;
                    slices.push((pid, tid, ts, dur));
                }
            }
            "s" | "t" | "f" => {
                let ts = e
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| ctx("missing numeric ts"))?;
                let id = e
                    .get("id")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ctx("missing integer id on flow event"))?;
                flow_events.push((i, ph.chars().next().unwrap(), id, pid, tid, ts));
            }
            "C" => {
                e.get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| ctx("missing numeric ts"))?;
                let args = e
                    .get("args")
                    .and_then(Value::as_object)
                    .ok_or_else(|| ctx("missing args object on C event"))?;
                if args.is_empty() {
                    return Err(ctx("C event has no counter series"));
                }
                // `null` is a non-finite sample (see `add_counter`).
                for (key, value) in args {
                    if value.as_f64().is_none() && value != &Value::Null {
                        return Err(ctx(&format!("counter series `{key}` is not numeric")));
                    }
                }
            }
            other => return Err(ctx(&format!("unsupported phase {other:?}"))),
        }
    }
    // Flow well-formedness: matched start/end ids, slice-bound events.
    let starts: Vec<u64> = flow_events
        .iter()
        .filter(|f| f.1 == 's')
        .map(|f| f.2)
        .collect();
    for &(i, ph, id, pid, tid, ts) in &flow_events {
        match ph {
            's' => {
                if !flow_events.iter().any(|f| f.1 == 'f' && f.2 == id) {
                    return Err(format!("event {i}: flow {id} starts but never finishes"));
                }
            }
            _ => {
                if !starts.contains(&id) {
                    return Err(format!(
                        "event {i}: flow {id} has a {ph:?} event but no start"
                    ));
                }
            }
        }
        let bound = slices
            .iter()
            .any(|&(p, t, s_ts, dur)| p == pid && t == tid && s_ts <= ts && ts <= s_ts + dur);
        if !bound {
            return Err(format!(
                "event {i}: flow {id} {ph:?} event binds to no slice on pid {pid} tid {tid}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_sim::SimTime;

    fn sample_trace() -> Trace {
        let mut t = Trace::with_entries();
        t.record_named(SimTime::from_ns(10), "chrome-test-spi", "eot", 0);
        t.record_named(SimTime::from_ns(80), "chrome-test-gpio", "set", 1);
        t.record_named(SimTime::from_ns(120), "chrome-test-spi", "eot", 1);
        t
    }

    #[test]
    fn sim_trace_renders_instant_events_per_source_track() {
        let mut ct = ChromeTrace::new();
        ct.add_sim_trace(&sample_trace());
        let doc = ct.finish();
        validate(&doc).expect("valid document");
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let instants: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 3);
        assert_eq!(
            instants[0].get("name").and_then(Value::as_str),
            Some("chrome-test-spi.eot")
        );
        // 10 ns = 0.01 µs on the trace axis.
        assert_eq!(instants[0].get("ts").and_then(Value::as_f64), Some(0.01));
        // Same source, same track.
        assert_eq!(
            instants[0].get("tid").and_then(Value::as_u64),
            instants[2].get("tid").and_then(Value::as_u64)
        );
        assert_ne!(
            instants[0].get("tid").and_then(Value::as_u64),
            instants[1].get("tid").and_then(Value::as_u64)
        );
    }

    #[test]
    fn host_spans_render_complete_events() {
        let mut ct = ChromeTrace::new();
        ct.add_host_spans(&[SpanEvent {
            path: "outer/inner".into(),
            start_us: 5.0,
            dur_us: 2.5,
            thread: 3,
        }]);
        let doc = ct.finish();
        validate(&doc).expect("valid document");
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(doc.contains("\"name\": \"outer/inner\""));
        assert!(doc.contains("\"dur\": 2.5"));
        assert!(doc.contains(&format!("\"pid\": {HOST_PID}")));
    }

    #[test]
    fn thread_metadata_emitted_once_per_track() {
        let mut ct = ChromeTrace::new();
        ct.add_sim_trace(&sample_trace());
        ct.add_sim_trace(&sample_trace());
        let doc = ct.finish();
        assert_eq!(doc.matches("\"chrome-test-spi\"").count(), 1);
    }

    #[test]
    fn counter_events_render_and_validate() {
        let mut ct = ChromeTrace::new();
        ct.add_counter("power_uw", 0.5, &[("ibex", 120.25), ("sram", 80.0)]);
        ct.add_counter("power_uw", 1.5, &[("ibex", 60.5), ("sram", 80.0)]);
        let doc = ct.finish();
        validate(&doc).expect("valid document");
        let v = json::parse(&doc).unwrap();
        let counters: Vec<&Value> = v
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        let args = counters[0].get("args").unwrap();
        assert_eq!(args.get("ibex").and_then(Value::as_f64), Some(120.25));
        assert_eq!(args.get("sram").and_then(Value::as_f64), Some(80.0));
        assert_eq!(counters[1].get("ts").and_then(Value::as_f64), Some(1.5));
    }

    #[test]
    fn non_finite_counter_is_null_and_the_trace_stays_valid() {
        let mut ct = ChromeTrace::new();
        ct.add_counter("power", 1.0, &[("total", f64::NAN), ("ibex", f64::INFINITY)]);
        let doc = ct.finish();
        validate(&doc).expect("valid document");
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let args = events.last().unwrap().get("args").unwrap();
        assert_eq!(args.get("total"), Some(&Value::Null));
        assert_eq!(args.get("ibex"), Some(&Value::Null));
    }

    #[test]
    fn validate_gates_counter_events() {
        // No args object.
        assert!(validate(
            "{\"traceEvents\": [{\"ph\": \"C\", \"name\": \"p\", \"ts\": 1, \"pid\": 1, \"tid\": 0}]}"
        )
        .is_err());
        // Empty args.
        assert!(validate(
            "{\"traceEvents\": [{\"ph\": \"C\", \"name\": \"p\", \"ts\": 1, \"pid\": 1, \"tid\": 0, \"args\": {}}]}"
        )
        .is_err());
        // Non-numeric series.
        assert!(validate(
            "{\"traceEvents\": [{\"ph\": \"C\", \"name\": \"p\", \"ts\": 1, \"pid\": 1, \"tid\": 0, \"args\": {\"a\": \"x\"}}]}"
        )
        .is_err());
        // Well-formed.
        assert!(validate(
            "{\"traceEvents\": [{\"ph\": \"C\", \"name\": \"p\", \"ts\": 1, \"pid\": 1, \"tid\": 0, \"args\": {\"a\": 2.5}}]}"
        )
        .is_ok());
    }

    #[test]
    fn flow_events_render_bound_arrow_chains() {
        use pels_sim::ComponentId;
        let spi = ComponentId::intern("chrome-test-flow-spi");
        let link = ComponentId::intern("chrome-test-flow-link");
        let mut flows = FlowTrace::default();
        flows.raise(SimTime::from_ns(10), spi, 1, "eot");
        flows.cycle_end();
        assert!(flows.adopt_wire(SimTime::from_ns(20), link, 1, "trigger"));
        let mut ct = ChromeTrace::new();
        ct.add_flow_events(&flows);
        let doc = ct.finish();
        validate(&doc).expect("valid document");
        // One "s" and one "f" with the same binding id, each with an
        // anchor slice.
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let of_ph = |ph: &str| -> Vec<&Value> {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .collect()
        };
        let (starts, ends, slices) = (of_ph("s"), of_ph("f"), of_ph("X"));
        assert_eq!(starts.len(), 1);
        assert_eq!(ends.len(), 1);
        assert_eq!(slices.len(), 2);
        assert_eq!(
            starts[0].get("id").and_then(Value::as_u64),
            ends[0].get("id").and_then(Value::as_u64)
        );
        assert!(doc.contains("chrome-test-flow-spi.eot"));
        assert!(doc.contains("chrome-test-flow-link.trigger"));
        // Single-hop flows draw no arrow.
        let mut lone = FlowTrace::default();
        lone.raise(SimTime::ZERO, spi, 2, "compare");
        let mut ct = ChromeTrace::new();
        ct.add_flow_events(&lone);
        assert!(!ct.finish().contains("\"ph\": \"s\""));
    }

    #[test]
    fn validate_gates_flow_events() {
        let slice = "{\"ph\": \"X\", \"name\": \"a\", \"ts\": 1, \"dur\": 1, \"pid\": 1, \"tid\": 1}";
        // A started flow must finish.
        assert!(validate(&format!(
            "{{\"traceEvents\": [{slice}, {{\"ph\": \"s\", \"name\": \"flow\", \"id\": 7, \"ts\": 1, \"pid\": 1, \"tid\": 1}}]}}"
        ))
        .is_err());
        // A step without a start is rejected.
        assert!(validate(&format!(
            "{{\"traceEvents\": [{slice}, {{\"ph\": \"t\", \"name\": \"flow\", \"id\": 7, \"ts\": 1, \"pid\": 1, \"tid\": 1}}]}}"
        ))
        .is_err());
        // A flow event off any slice is rejected.
        assert!(validate(
            "{\"traceEvents\": [{\"ph\": \"s\", \"name\": \"flow\", \"id\": 7, \"ts\": 1, \"pid\": 1, \"tid\": 1}, \
             {\"ph\": \"f\", \"name\": \"flow\", \"id\": 7, \"bp\": \"e\", \"ts\": 2, \"pid\": 1, \"tid\": 1}]}"
        )
        .is_err());
        // Matched, slice-bound start/end validates.
        assert!(validate(&format!(
            "{{\"traceEvents\": [{slice}, \
             {{\"ph\": \"X\", \"name\": \"b\", \"ts\": 2, \"dur\": 1, \"pid\": 1, \"tid\": 1}}, \
             {{\"ph\": \"s\", \"name\": \"flow\", \"id\": 7, \"ts\": 1, \"pid\": 1, \"tid\": 1}}, \
             {{\"ph\": \"f\", \"name\": \"flow\", \"id\": 7, \"bp\": \"e\", \"ts\": 2, \"pid\": 1, \"tid\": 1}}]}}"
        ))
        .is_ok());
        // A flow event without an id is rejected.
        assert!(validate(&format!(
            "{{\"traceEvents\": [{slice}, {{\"ph\": \"s\", \"name\": \"flow\", \"ts\": 1, \"pid\": 1, \"tid\": 1}}]}}"
        ))
        .is_err());
    }

    #[test]
    fn validate_rejects_bad_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"traceEvents\": 3}").is_err());
        assert!(validate("{\"traceEvents\": []}").is_err());
        assert!(
            validate("{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": 1, \"pid\": 1, \"tid\": 1}]}")
                .is_err(),
            "X event without dur rejected"
        );
        assert!(
            validate("{\"traceEvents\": [{\"ph\": \"i\", \"name\": \"a\", \"ts\": 1, \"pid\": 1, \"tid\": 1}]}")
                .is_ok()
        );
    }
}
