//! Component-name interning.
//!
//! Every model in the workspace identifies itself with a stable
//! hierarchical name (`"ibex"`, `"pels.link0"`, `"sram"`). The hot paths
//! — [`crate::ActivitySet::record`] and [`crate::Trace::record`] — run
//! once or more per simulated cycle, and keying them by `String` costs an
//! allocation per call. Interning maps each distinct name to a small
//! dense [`ComponentId`] exactly once, so the per-cycle paths work with
//! plain integer indices and `&'static str` lookups.
//!
//! The registry is global and append-only: names are never removed, and
//! the backing storage is leaked (`Box::leak`), which is bounded by the
//! number of *distinct* component names a process ever creates — a few
//! dozen in practice.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// A dense handle to an interned component name.
///
/// Identical strings intern to identical ids process-wide, so a
/// `ComponentId` can be compared, hashed, and used as an array index
/// without touching the string it names.
///
/// ```
/// use pels_sim::ComponentId;
/// let a = ComponentId::intern("gpio");
/// let b = ComponentId::intern("gpio");
/// assert_eq!(a, b);
/// assert_eq!(a.name(), "gpio");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(u16);

struct Registry {
    by_name: HashMap<&'static str, u16>,
    names: Vec<&'static str>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

impl ComponentId {
    /// Interns `name`, returning its stable id. The first call for a
    /// given name allocates (and leaks) one copy of the string; every
    /// subsequent call is a hash lookup.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` distinct names are interned — far
    /// beyond any realistic component inventory.
    pub fn intern(name: &str) -> ComponentId {
        let mut reg = registry().lock().expect("intern registry poisoned");
        if let Some(&id) = reg.by_name.get(name) {
            return ComponentId(id);
        }
        let id = u16::try_from(reg.names.len()).expect("component registry overflow");
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        reg.names.push(leaked);
        reg.by_name.insert(leaked, id);
        ComponentId(id)
    }

    /// Looks up an already-interned name without interning it. Returns
    /// `None` when the name was never registered — useful for queries,
    /// where an unknown component simply has no recorded activity.
    pub fn lookup(name: &str) -> Option<ComponentId> {
        let reg = registry().lock().expect("intern registry poisoned");
        reg.by_name.get(name).map(|&id| ComponentId(id))
    }

    /// The interned name.
    pub fn name(self) -> &'static str {
        let reg = registry().lock().expect("intern registry poisoned");
        reg.names[usize::from(self.0)]
    }

    /// The dense index backing this id (for direct counter indexing).
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Rebuilds an id from a dense index already known to be registered
    /// (counter rows only exist for recorded — hence interned — ids).
    pub(crate) fn from_index(i: usize) -> ComponentId {
        ComponentId(u16::try_from(i).expect("component index out of range"))
    }
}

/// Interns the name, so constructors can take a name or an id.
impl From<&str> for ComponentId {
    fn from(name: &str) -> ComponentId {
        ComponentId::intern(name)
    }
}

impl From<String> for ComponentId {
    fn from(name: String) -> ComponentId {
        ComponentId::intern(&name)
    }
}

/// A fixed component name interned on first use and then read without
/// the registry's lock: a model built many times per process names
/// itself through one `static`.
///
/// ```
/// use pels_sim::intern::FixedName;
/// use pels_sim::ComponentId;
/// static GPIO: FixedName = FixedName::new("gpio");
/// assert_eq!(GPIO.id(), ComponentId::intern("gpio"));
/// ```
#[derive(Debug)]
pub struct FixedName {
    name: &'static str,
    id: OnceLock<ComponentId>,
}

impl FixedName {
    /// A name not interned yet.
    pub const fn new(name: &'static str) -> FixedName {
        FixedName {
            name,
            id: OnceLock::new(),
        }
    }

    /// The name's id, interned by the first call.
    pub fn id(&self) -> ComponentId {
        *self.id.get_or_init(|| ComponentId::intern(self.name))
    }
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = ComponentId::intern("intern-test-a");
        let b = ComponentId::intern("intern-test-a");
        assert_eq!(a, b);
        assert_eq!(a.name(), "intern-test-a");
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let a = ComponentId::intern("intern-test-x");
        let b = ComponentId::intern("intern-test-y");
        assert_ne!(a, b);
        assert_ne!(a.index(), b.index());
    }

    #[test]
    fn lookup_finds_only_interned_names() {
        let a = ComponentId::intern("intern-test-lookup");
        assert_eq!(ComponentId::lookup("intern-test-lookup"), Some(a));
        assert_eq!(ComponentId::lookup("intern-test-never-registered"), None);
    }

    #[test]
    fn display_renders_the_name() {
        let a = ComponentId::intern("intern-test-display");
        assert_eq!(a.to_string(), "intern-test-display");
    }
}
