//! String interning and the compact (POD) event representation.
//!
//! The [`Interner`] assigns each distinct name a stable [`Sym`] id and
//! each distinct provenance triple a [`ProvId`]. Every sink receives the
//! kernel's instrumentation as [`CompactEvent`]s — a plain `Copy` struct
//! per def/use site, recorded without allocating — and the matcher works
//! in their dense index space. The string [`Event`](crate::Event), with
//! two heap `String`s and an optional provenance per event, is only a
//! rendering ([`CompactEvent::to_event`]).
//!
//! ## Determinism contract
//!
//! Sym ids are assigned in first-intern order, so they are only stable if
//! interning happens on deterministic, single-threaded control paths:
//! design construction, sequential simulation (the fault tap interns the
//! ghost names it fabricates into the cluster's interner), and log
//! conversion or corruption. The parallel matching stage never interns —
//! workers only resolve ids — which keeps reports byte-identical at any
//! `DFT_THREADS`. Nothing in the *output* ever depends on id order anyway
//! (all rendering goes through resolved strings), so a different
//! interning order can never change a report, only internal table
//! layouts.
//!
//! The table is append-only behind an `RwLock`: the hot path (looking up
//! an already-interned name) takes the read lock only.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

use crate::module::Event;
use crate::time::SimTime;
use crate::value::Provenance;

/// A stable interned-name id (model or variable name).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

/// A stable interned-provenance id; [`ProvId::NONE`] means "no feeding
/// provenance" (the compact analog of `feeding: None`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProvId(pub u32);

impl ProvId {
    /// The "no provenance" sentinel.
    pub const NONE: ProvId = ProvId(u32::MAX);

    /// Whether this id is the [`ProvId::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }
}

impl fmt::Debug for ProvId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "ProvId(NONE)")
        } else {
            write!(f, "ProvId({})", self.0)
        }
    }
}

/// Def or Use — the discriminant of a [`CompactEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A variable definition.
    Def,
    /// A variable use.
    Use,
}

/// The kernel's instrumentation event, in interned index space: `Copy`,
/// allocation-free to record, and 24 bytes instead of the two heap strings
/// plus an optional provenance of its rendering,
/// [`Event`](crate::Event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactEvent {
    /// Simulation time of the def/use.
    pub time: SimTime,
    /// Interned model (module instance) name.
    pub model: Sym,
    /// Interned variable name.
    pub var: Sym,
    /// Source line of the def/use site.
    pub line: u32,
    /// Def or Use.
    pub kind: EventKind,
    /// Interned feeding provenance (uses only); [`ProvId::NONE`] when the
    /// use has no sample provenance attached.
    pub prov: ProvId,
    /// For uses: whether the sample read was defined. Defs record `true`.
    pub defined: bool,
}

impl CompactEvent {
    /// Converts a string [`Event`] into compact form, interning any names
    /// it carries — for logs written by hand. Control-path only (interning
    /// mutates the table).
    pub fn from_event(event: &Event, interner: &Interner) -> CompactEvent {
        match event {
            Event::Def {
                time,
                model,
                var,
                line,
            } => CompactEvent {
                time: *time,
                model: interner.intern(model),
                var: interner.intern(var),
                line: *line,
                kind: EventKind::Def,
                prov: ProvId::NONE,
                defined: true,
            },
            Event::Use {
                time,
                model,
                var,
                line,
                feeding,
                defined,
            } => CompactEvent {
                time: *time,
                model: interner.intern(model),
                var: interner.intern(var),
                line: *line,
                kind: EventKind::Use,
                prov: feeding
                    .as_ref()
                    .map_or(ProvId::NONE, |p| interner.intern_prov(p)),
                defined: *defined,
            },
        }
    }

    /// Renders this record as the string [`Event`] it denotes
    /// ([`RecordingSink`](crate::RecordingSink) does so for every event).
    ///
    /// # Panics
    ///
    /// Panics if any id is not from `interner` (ids are never shared
    /// across interners).
    pub fn to_event(self, interner: &Interner) -> Event {
        let model = interner.resolve(self.model).to_string();
        let var = interner.resolve(self.var).to_string();
        match self.kind {
            EventKind::Def => Event::Def {
                time: self.time,
                model,
                var,
                line: self.line,
            },
            EventKind::Use => Event::Use {
                time: self.time,
                model,
                var,
                line: self.line,
                feeding: interner.resolve_prov(self.prov),
                defined: self.defined,
            },
        }
    }
}

#[derive(Default)]
struct NameTable {
    map: HashMap<Arc<str>, u32>,
    list: Vec<Arc<str>>,
}

#[derive(Default)]
struct ProvTable {
    map: HashMap<(u32, u32, u32), u32>,
    /// `(var, line, model)` — the [`Provenance`] field order.
    list: Vec<(Sym, u32, Sym)>,
}

/// Append-only, thread-safe name + provenance intern tables.
///
/// One interner is shared per design/cluster: the simulator's sink path
/// and the match automaton must agree on ids, so the session attaches the
/// design's interner to every cluster it simulates. See the module docs
/// for the determinism contract.
#[derive(Default)]
pub struct Interner {
    names: RwLock<NameTable>,
    provs: RwLock<ProvTable>,
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("names", &self.len())
            .field("provs", &self.prov_len())
            .finish()
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `name`, returning its stable id (existing or fresh).
    pub fn intern(&self, name: &str) -> Sym {
        if let Some(sym) = self.get(name) {
            return sym;
        }
        let mut t = self.names.write().unwrap_or_else(|p| p.into_inner());
        if let Some(&id) = t.map.get(name) {
            return Sym(id);
        }
        let id = u32::try_from(t.list.len()).expect("interner overflow");
        let arc: Arc<str> = Arc::from(name);
        t.list.push(Arc::clone(&arc));
        t.map.insert(arc, id);
        Sym(id)
    }

    /// The id of `name` if it is already interned (never interns — safe
    /// on parallel read-only paths).
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.names
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .map
            .get(name)
            .map(|&id| Sym(id))
    }

    /// The name behind `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is not from this interner.
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        Arc::clone(&self.names.read().unwrap_or_else(|p| p.into_inner()).list[sym.0 as usize])
    }

    /// Number of distinct names interned so far.
    pub fn len(&self) -> usize {
        self.names
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .list
            .len()
    }

    /// Whether no names are interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns a provenance triple, returning its stable id.
    pub fn intern_prov(&self, prov: &Provenance) -> ProvId {
        self.intern_triple(self.intern(&prov.var), prov.line, self.intern(&prov.model))
    }

    /// Interns the provenance triple `(var, line, model)` of already
    /// interned names, returning its stable id.
    pub fn intern_triple(&self, var: Sym, line: u32, model: Sym) -> ProvId {
        let key = (var.0, line, model.0);
        {
            let t = self.provs.read().unwrap_or_else(|p| p.into_inner());
            if let Some(&id) = t.map.get(&key) {
                return ProvId(id);
            }
        }
        let mut t = self.provs.write().unwrap_or_else(|p| p.into_inner());
        if let Some(&id) = t.map.get(&key) {
            return ProvId(id);
        }
        let id = u32::try_from(t.list.len()).expect("interner overflow");
        assert!(id != u32::MAX, "interner overflow");
        t.list.push((var, line, model));
        t.map.insert(key, id);
        ProvId(id)
    }

    /// The `(var, line, model)` triple behind `id`, or `None` for the
    /// [`ProvId::NONE`] sentinel.
    pub fn prov(&self, id: ProvId) -> Option<(Sym, u32, Sym)> {
        if id.is_none() {
            return None;
        }
        Some(self.provs.read().unwrap_or_else(|p| p.into_inner()).list[id.0 as usize])
    }

    /// Materializes the [`Provenance`] behind `id` (`None` for the
    /// sentinel).
    pub fn resolve_prov(&self, id: ProvId) -> Option<Provenance> {
        let (var, line, model) = self.prov(id)?;
        Some(Provenance::new(
            self.resolve(var).to_string(),
            line,
            self.resolve(model).to_string(),
        ))
    }

    /// Number of distinct provenance triples interned so far.
    pub fn prov_len(&self) -> usize {
        self.provs
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .list
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_idempotent() {
        let i = Interner::new();
        let a = i.intern("dac");
        let b = i.intern("adc");
        assert_ne!(a, b);
        assert_eq!(i.intern("dac"), a);
        assert_eq!(&*i.resolve(a), "dac");
        assert_eq!(&*i.resolve(b), "adc");
        assert_eq!(i.len(), 2);
        assert_eq!(i.get("dac"), Some(a));
        assert_eq!(i.get("nope"), None);
    }

    #[test]
    fn prov_interning_dedupes_triples() {
        let i = Interner::new();
        let p1 = i.intern_prov(&Provenance::new("op_v", 12, "dac"));
        let p2 = i.intern_prov(&Provenance::new("op_v", 12, "dac"));
        let p3 = i.intern_prov(&Provenance::new("op_v", 13, "dac"));
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        let back = i.resolve_prov(p1).unwrap();
        assert_eq!(back, Provenance::new("op_v", 12, "dac"));
        assert_eq!(i.resolve_prov(ProvId::NONE), None);
    }

    #[test]
    fn event_round_trips_through_compact_form() {
        let i = Interner::new();
        let def = Event::Def {
            time: SimTime::from_us(3),
            model: "TS".into(),
            var: "tmpr".into(),
            line: 4,
        };
        let use_with = Event::Use {
            time: SimTime::from_us(5),
            model: "DAC".into(),
            var: "ip_in".into(),
            line: 9,
            feeding: Some(Provenance::new("op_out", 4, "TS")),
            defined: true,
        };
        let use_without = Event::Use {
            time: SimTime::from_us(6),
            model: "DAC".into(),
            var: "m_gain".into(),
            line: 10,
            feeding: None,
            defined: false,
        };
        for ev in [&def, &use_with, &use_without] {
            let compact = CompactEvent::from_event(ev, &i);
            assert_eq!(&compact.to_event(&i), ev);
        }
    }

    #[test]
    fn interner_is_shareable_across_threads() {
        let i = Arc::new(Interner::new());
        let pre = i.intern("shared");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let i = Arc::clone(&i);
                s.spawn(move || {
                    assert_eq!(i.get("shared"), Some(pre));
                    assert_eq!(&*i.resolve(pre), "shared");
                });
            }
        });
    }
}
