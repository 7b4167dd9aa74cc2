//! Named counters and gauges in one sorted map.
//!
//! Layers publish into a [`MetricsSnapshot`] at observation points, after
//! a run (`Soc::publish_metrics`, `FleetReport::publish_metrics`, …). The
//! simulation loops keep their own plain-`u64` counters, so publishing
//! never perturbs a result.

use std::collections::BTreeMap;

use crate::json;

/// Named metric values, sorted by name for deterministic reporting and
/// diffing.
///
/// Gauges overwrite ([`MetricsSnapshot::set`]); counters add
/// ([`MetricsSnapshot::absorb`]). A metric whose value is zero has no
/// entry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Overwrites the metric `name` with `v`; zero removes it.
    pub fn set(&mut self, name: &str, v: u64) {
        if v == 0 {
            self.entries.remove(name);
        } else {
            self.entries.insert(name.to_owned(), v);
        }
    }

    /// Adds every entry of `other` into this snapshot (counters add).
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (name, v) in other.iter() {
            *self.entries.entry(name.to_owned()).or_default() += v;
        }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries.get(name).copied()
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.entries.iter().map(|(name, &v)| (name.as_str(), v))
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes as a flat JSON object (one `"name": value` pair per
    /// metric, sorted by name), numbers spelled by [`json::uint`].
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.begin_object();
        for (name, v) in self.iter() {
            w.key(name).uint(v);
        }
        w.end_object();
        w.finish()
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "metrics:")?;
        for (name, v) in self.iter() {
            writeln!(f, "  {name:<40} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_gauges_overwrite() {
        let mut m = MetricsSnapshot::default();
        m.set("gauge", 7);
        m.set("gauge", 5);
        assert_eq!(m.get("gauge"), Some(5));
        let mut other = MetricsSnapshot::default();
        other.set("counter", 2);
        m.absorb(&other);
        m.absorb(&other);
        assert_eq!(m.get("counter"), Some(4));
    }

    #[test]
    fn zero_leaves_no_entry() {
        let mut m = MetricsSnapshot::default();
        m.set("never", 0);
        assert!(m.is_empty());
        m.set("gone", 3);
        m.set("gone", 0);
        assert_eq!(m.get("gone"), None);
        m.absorb(&MetricsSnapshot::default());
        assert!(m.is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let mut m = MetricsSnapshot::default();
        m.set("z", 1);
        m.set("a", 2);
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("a"), Some(2));
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    fn json_is_flat_and_sorted() {
        let mut m = MetricsSnapshot::default();
        m.set("json.b", 2);
        m.set("json.a", 1);
        let j = m.to_json();
        assert_eq!(j, "{\n  \"json.a\": 1,\n  \"json.b\": 2\n}\n");
        // Round-trips through the crate's own parser.
        assert!(json::parse(&j).is_ok());
        assert_eq!(MetricsSnapshot::default().to_json(), "{\n}\n");
    }

    #[test]
    fn json_above_2_pow_53_reads_back() {
        let exact = json::MAX_EXACT_INT;
        let mut m = MetricsSnapshot::default();
        m.set("at", exact);
        m.set("above", exact + 1);
        m.set("max", u64::MAX);
        let j = m.to_json();
        assert!(j.contains("\"at\": 9007199254740992,"), "{j}");
        assert!(j.contains("\"above\": 9.007199254740993e15,"), "{j}");
        let v = json::parse(&j).expect("exponent form parses");
        assert_eq!(v.get("at").and_then(json::Value::as_u64), Some(exact));
        let read = |key: &str| v.get(key).and_then(json::Value::as_f64);
        assert_eq!(read("above"), Some((exact + 1) as f64));
        assert_eq!(read("max"), Some(u64::MAX as f64));
    }
}
