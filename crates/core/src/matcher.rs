//! The match automaton: the dynamic analysis over interned symbols.
//!
//! A [`MatchAutomaton`] derives everything per-event matching needs —
//! per-model vocabularies, member seeds and the association index — from
//! the [`Design`] and its [`StaticAnalysis`] once, into dense tables
//! indexed by the design-wide interned ids ([`Sym`](tdf_sim::Sym)):
//!
//! * `model_row` maps a model symbol to a compact row id; per-row tables
//!   hold the start line, and per-slot flags (one slot per row and name)
//!   the lenient-mode vocabulary and the input ports (the only
//!   [`VarKind`](tdf_interp::VarKind) distinction matching cares about);
//! * `assoc_index` maps a fully-interned association key straight to its
//!   index in [`StaticAnalysis::associations`], so a run's coverage is a
//!   bitset built without a `HashSet<Association>` probe. Every
//!   association is tracked; subsumption stays a static report.
//!
//! A session's automaton reads each model's vocabulary from the
//! `processing()` CFG the static stage's per-model artifact already holds;
//! only [`MatchAutomaton::new`] builds the CFGs itself.
//!
//! The automaton is immutable after construction ([`Sync`]), so one
//! instance is shared read-only by every session over the same artifacts;
//! per-run mutable state lives in a [`MatchCursor`], which is itself the
//! simulator's [`EventSink`]: the kernel hands it each event through one
//! dynamic call.
//!
//! The cursor's one record of what a run exercised is two hash sets of
//! interned ids: the def sites and the def/use pairs seen so far. Only
//! warnings are rendered while the run lasts; [`MatchCursor::finish`]
//! derives the coverage bitset, the named `exercised` set and
//! `defs_executed` from the two sets in one pass. An event it has
//! already matched costs array lookups only:
//!
//! * the lenient-mode checks read one flag byte per `(row, var)` slot and
//!   one timestamp per row;
//! * the pending def of each slot sits in a dense table, and provenance
//!   triples in a table indexed by [`ProvId`], each resolved once;
//! * small direct-mapped memos hold the def sites and pairs the sets
//!   already record, keyed by slot and line (a pair's use line, since one
//!   slot's uses sit on several lines).
//!
//! A memo only ever names what its set holds, and a miss falls through to
//! the set, so results are those of the sets alone. `tests/match_equiv.rs`
//! checks them against a string-keyed reference matcher that re-derives
//! every table per call.
//!
//! Symbols interned *after* construction (fault-injected ghost names) are
//! `>= frozen` and deliberately fall off every dense table: they are
//! unknown models / out-of-vocabulary variables, exactly as never-declared
//! strings are.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use dataflow::{BitSet, Cfg};
use tdf_sim::{CompactEvent, EventKind, EventSink, Interner, ProvId, SimTime, Sym};

use crate::assoc::Association;
use crate::design::Design;
use crate::dynamic::{DynamicResult, DynamicWarning, MatchMode};
use crate::fx::{FxHashMap, FxHashSet};
use crate::statics::{StaticAnalysis, StaticBuild};

/// Fully-interned association key: `(var, def_line, def_model, use_line,
/// use_model)`.
type AssocKey = (u32, u32, u32, u32, u32);

/// Sentinel for "this symbol is not a known model".
const NO_ROW: u32 = u32::MAX;

/// Sentinel for "no pending definition" in the dense last-def table.
const NO_DEF: u32 = u32::MAX;

/// Slot flag: lenient mode admits the variable in the row's model — it is
/// in the model's vocabulary, or the model has none.
const ADMIT: u8 = 1;

/// Slot flag: the variable is one of the row model's input ports.
const INPORT: u8 = 2;

/// Sentinel for an empty [`Memo`] entry.
const NO_SLOT: u32 = u32::MAX;

/// log2 of each [`Memo`]'s entry count.
const MEMO_BITS: u32 = 10;

/// Precomputed matching tables for one design + static analysis (see the
/// module docs). Built once per set of
/// [`SessionArtifacts`](crate::SessionArtifacts); shared by reference.
///
/// Its `Debug` rendering resolves every id to its name and sorts rows and
/// keys, so automata built over different interners of the same design
/// render identically exactly when their tables agree.
pub struct MatchAutomaton {
    interner: Arc<Interner>,
    /// Number of interned names at build time. Symbols `>= frozen` were
    /// interned later (runtime ghosts) and are never known/in-vocabulary.
    frozen: usize,
    /// `Sym -> row` for every known model (declared interface, netlist
    /// module, or the cluster itself); `NO_ROW` otherwise.
    model_row: Vec<u32>,
    n_rows: usize,
    /// `processing()` declaration line per row (0 for sourceless models) —
    /// the pseudo-definition site of externally-driven input ports.
    row_start_line: Vec<u32>,
    /// Whether the row's model has a declared interface (and therefore a
    /// lenient-mode vocabulary entry).
    row_has_vocab: Vec<bool>,
    /// Dense `row * frozen + var_sym -> ADMIT | INPORT` flags.
    slot_flags: Vec<u8>,
    /// `(row, var_sym, start_line)` seeds for elaboration-initialised
    /// members, in declaration order.
    member_seeds: Vec<(u32, u32, u32)>,
    /// Fully-interned association key -> its index into
    /// [`StaticAnalysis::associations`].
    assoc_index: FxHashMap<AssocKey, u32>,
    n_assocs: usize,
}

impl fmt::Debug for MatchAutomaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |sym: u32| self.interner.resolve(Sym(sym));
        let names = |r: usize, flag: u8| {
            let row = &self.slot_flags[r * self.frozen..(r + 1) * self.frozen];
            let mut v: Vec<Arc<str>> = (0..self.frozen as u32)
                .filter(|&var| row[var as usize] & flag != 0)
                .map(name)
                .collect();
            v.sort();
            v
        };
        let key = |k: &AssocKey| (name(k.0), k.1, name(k.2), k.3, name(k.4));
        let mut frozen: Vec<Arc<str>> = (0..self.frozen as u32).map(name).collect();
        frozen.sort();
        let mut row_model: Vec<Arc<str>> = vec![Arc::from(""); self.n_rows];
        for (sym, &r) in self.model_row.iter().enumerate() {
            if r != NO_ROW {
                row_model[r as usize] = name(sym as u32);
            }
        }
        // (model, start line, vocabulary if declared, in-ports) per row.
        let mut rows: Vec<_> = (0..self.n_rows)
            .map(|r| {
                let vocab = self.row_has_vocab[r].then(|| names(r, ADMIT));
                let inports = names(r, INPORT);
                (row_model[r].clone(), self.row_start_line[r], vocab, inports)
            })
            .collect();
        rows.sort();
        let seeds: Vec<_> = self
            .member_seeds
            .iter()
            .map(|&(r, var, line)| (row_model[r as usize].clone(), name(var), line))
            .collect();
        let mut assocs: Vec<_> = self.assoc_index.iter().map(|(k, &i)| (key(k), i)).collect();
        assocs.sort();
        f.debug_struct("MatchAutomaton")
            .field("frozen", &frozen)
            .field("rows", &rows)
            .field("member_seeds", &seeds)
            .field("assocs", &assocs)
            .field("n_assocs", &self.n_assocs)
            .finish()
    }
}

/// Per-log mutable matching state — everything integer-keyed. Lives on the
/// calling worker's stack so the automaton itself stays shared and
/// immutable.
#[derive(Debug)]
struct LogState {
    /// Dense `row * frozen + var_sym -> last def line` (`NO_DEF` = none).
    last_def: Vec<u32>,
    /// Overflow last-def entries: unknown models (strict mode) and ghost
    /// variable symbols `>= frozen`.
    last_def_extra: FxHashMap<(u32, u32), u32>,
    /// Per-row latest observed timestamp (lenient mode; `ZERO` before
    /// the first, which no time precedes).
    last_time: Vec<SimTime>,
    /// Once-per-site warning gates.
    warned: FxHashSet<(u32, u32, u32)>,
    warned_models: FxHashSet<u32>,
    warned_times: FxHashSet<u32>,
    warned_vars: FxHashSet<(u32, u32)>,
    /// Def sites `(model, var, line)` executed so far.
    seen_def: FxHashSet<(u32, u32, u32)>,
    /// Def/use pairs exercised so far.
    seen_pair: FxHashSet<AssocKey>,
    /// `[slot, line]` of def sites in `seen_def`.
    def_memo: Memo<2>,
    /// `[slot, use line, def line]` of pairs within one model in
    /// `seen_pair`.
    local_memo: Memo<3>,
    /// `[slot, use line, provenance id]` of fed pairs in `seen_pair`
    /// (their def sites are in `seen_def` too).
    fed_memo: Memo<3>,
    /// Provenance ids resolved once per log, indexed by id; sized from
    /// the interner, `None` until an id is first seen.
    provs: Vec<Option<Fed>>,
}

/// A direct-mapped memo of keys a hash set already holds, each led by a
/// dense slot id: one entry per bucket, so a newer key evicts an older
/// one, and a miss only means "ask the set". `NO_SLOT` marks an empty
/// entry.
#[derive(Debug)]
struct Memo<const N: usize>(Vec<[u32; N]>);

impl<const N: usize> Memo<N> {
    fn new() -> Self {
        Memo(vec![[NO_SLOT; N]; 1 << MEMO_BITS])
    }

    /// Whether `key` is memoized. If not, it is memoized now, and the
    /// caller records it in the set.
    #[inline]
    fn hit(&mut self, key: [u32; N]) -> bool {
        // Fibonacci hashing: the product's top bits mix every key bit.
        let h = key
            .iter()
            .enumerate()
            .fold(0u64, |h, (i, &k)| h ^ (u64::from(k) << (21 * i)));
        let entry =
            &mut self.0[(h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_BITS)) as usize];
        if *entry == key {
            return true;
        }
        *entry = key;
        false
    }
}

/// One resolved provenance id.
#[derive(Debug, Clone, Copy)]
struct Fed {
    /// The `(var, line, model)` def site it names.
    site: (Sym, u32, Sym),
    /// Whether the model is a known one (lenient mode quarantines uses
    /// fed from unknown ones).
    known: bool,
}

impl MatchAutomaton {
    /// Builds the automaton for `design` + `statics`, interning every name
    /// either can mention and freezing the id space. Each model's
    /// `processing()` CFG is built here, once.
    ///
    /// `statics` lists each association tuple once (the static merge
    /// deduplicates them), so every key maps to exactly one index.
    pub fn new(design: &Design, statics: &StaticAnalysis) -> MatchAutomaton {
        Self::build(design, statics, |_| None)
    }

    /// [`Self::new`] for a design whose static stage produced `build`:
    /// each model's vocabulary is read from the `processing()` CFG its
    /// artifact already holds. Only a model without a healthy artifact —
    /// declared but not a netlist user module, or one whose classification
    /// panicked — gets a CFG built here.
    pub(crate) fn from_static_build(
        design: &Design,
        statics: &StaticAnalysis,
        build: &StaticBuild,
    ) -> MatchAutomaton {
        let cfgs = build.processing_cfgs();
        Self::build(design, statics, |model| cfgs.get(model).copied())
    }

    /// The one table-building body: `static_cfg` supplies a model's
    /// `processing()` CFG when the static stage already holds it; any
    /// other model with a `processing()` gets a fresh one. Names are
    /// interned in one fixed order — cluster, netlist modules, then per
    /// declared model its name, ports, members and CFG def/use names,
    /// then the association names — so a design's ids do not depend on
    /// where its CFGs came from.
    fn build<'c>(
        design: &Design,
        statics: &StaticAnalysis,
        static_cfg: impl Fn(&str) -> Option<&'c Cfg>,
    ) -> MatchAutomaton {
        let interner = design.interner().clone();
        let netlist = design.netlist();
        let cfgs: Vec<Option<Cow<'c, Cfg>>> = design
            .models()
            .iter()
            .map(|def| {
                static_cfg(&def.model).map(Cow::Borrowed).or_else(|| {
                    let f = design.processing(&def.model)?;
                    Some(Cow::Owned(Cfg::from_function(f)))
                })
            })
            .collect();

        // Intern everything the tables index by, so every "known" name is
        // guaranteed a stable id below `frozen`, recording each model's
        // vocabulary as it goes. Each distinct name is interned once, on
        // its first occurrence, so ids are those of interning every
        // occurrence; repeats resolve through `resolved`. Design
        // construction already interned the declarations.
        let mut resolved: FxHashMap<&str, Sym> = FxHashMap::default();
        let mut sym = |name| {
            *resolved
                .entry(name)
                .or_insert_with(|| interner.intern(name))
        };
        let cluster_sym = sym(&netlist.cluster);
        let mut module_syms = Vec::with_capacity(netlist.modules.len());
        for m in &netlist.modules {
            module_syms.push((sym(&m.name), m.name.as_str()));
            for p in m.in_ports.iter().chain(&m.out_ports) {
                sym(p);
            }
        }
        // Per declared model: its symbol, and the range of `vocab` holding
        // its ports, then members (the `members` sub-range), then the
        // def/use names of its CFG nodes.
        let mut vocab: Vec<u32> = Vec::new();
        let mut def_syms: Vec<(Sym, Range<usize>, Range<usize>)> = Vec::with_capacity(cfgs.len());
        for (def, cfg) in design.models().iter().zip(&cfgs) {
            let model = sym(&def.model);
            let begin = vocab.len();
            for p in def.interface.inputs.iter().chain(&def.interface.outputs) {
                vocab.push(sym(&p.name).0);
            }
            let members = vocab.len();
            for (member, _) in &def.interface.members {
                vocab.push(sym(member).0);
            }
            let members = members..vocab.len();
            if let Some(cfg) = cfg {
                for node in cfg.nodes() {
                    for d in &node.def_use.defs {
                        vocab.push(sym(&d.name).0);
                    }
                    for u in &node.def_use.uses {
                        vocab.push(sym(&u.name).0);
                    }
                }
            }
            def_syms.push((model, begin..vocab.len(), members));
        }
        // Associations come sorted by class, defining model and variable,
        // so each name field mostly repeats the previous association's.
        let mut last: [Option<(&str, Sym)>; 3] = [None; 3];
        let keys: Vec<AssocKey> = statics
            .associations
            .iter()
            .map(|ca| {
                let a = &ca.assoc;
                let mut field = |i: usize, name| match last[i] {
                    Some((prev, s)) if prev == name => s.0,
                    _ => {
                        let s = sym(name);
                        last[i] = Some((name, s));
                        s.0
                    }
                };
                let var = field(0, &a.var);
                let def_model = field(1, &a.def_model);
                let use_model = field(2, &a.use_model);
                (var, a.def_line, def_model, a.use_line, use_model)
            })
            .collect();
        let frozen = interner.len();

        // Rows: one per known model, in declared-then-netlist-then-cluster
        // order (the order is irrelevant to results; only membership is).
        let mut model_row = vec![NO_ROW; frozen];
        let mut row_names: Vec<&str> = Vec::new();
        let row_syms = design
            .models()
            .iter()
            .zip(&def_syms)
            .map(|(def, (sym, _, _))| (*sym, def.model.as_str()))
            .chain(module_syms)
            .chain([(cluster_sym, netlist.cluster.as_str())]);
        for (sym, name) in row_syms {
            let slot = &mut model_row[sym.0 as usize];
            if *slot == NO_ROW {
                *slot = row_names.len() as u32;
                row_names.push(name);
            }
        }
        let n_rows = row_names.len();

        let row_start_line: Vec<u32> = row_names.iter().map(|m| design.start_line(m)).collect();
        let mut row_has_vocab = vec![false; n_rows];
        // Each row's flags are indexed by name symbol; every name they
        // mention was interned before the freeze.
        let mut slot_flags = vec![0u8; n_rows * frozen];
        let mut member_seeds = Vec::new();
        for (def, (model, all, members)) in design.models().iter().zip(&def_syms) {
            let r = model_row[model.0 as usize] as usize;
            let row = &mut slot_flags[r * frozen..(r + 1) * frozen];
            row_has_vocab[r] = true;
            for &sym in &vocab[all.clone()] {
                row[sym as usize] |= ADMIT;
            }
            // Every input resolves as an in-port, exactly like
            // `Design::kind_of`.
            for p in &def.interface.inputs {
                row[sym(&p.name).0 as usize] |= INPORT;
            }
            for &sym in &vocab[members.clone()] {
                member_seeds.push((r as u32, sym, row_start_line[r]));
            }
        }
        // A model without a vocabulary admits every variable.
        for (r, _) in row_has_vocab.iter().enumerate().filter(|(_, has)| !**has) {
            for flags in &mut slot_flags[r * frozen..(r + 1) * frozen] {
                *flags |= ADMIT;
            }
        }

        let n_assocs = keys.len();
        let assoc_index: FxHashMap<AssocKey, u32> = keys.into_iter().zip(0..).collect();
        debug_assert_eq!(assoc_index.len(), n_assocs, "an association repeats");

        MatchAutomaton {
            interner,
            frozen,
            model_row,
            n_rows,
            row_start_line,
            row_has_vocab,
            slot_flags,
            member_seeds,
            assoc_index,
            n_assocs,
        }
    }

    /// The design-wide interner the automaton's ids refer to.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Number of static associations — the capacity of every coverage
    /// bitset this automaton produces.
    pub fn n_associations(&self) -> usize {
        self.n_assocs
    }

    #[inline]
    fn row_of(&self, model: Sym) -> Option<usize> {
        let i = model.0 as usize;
        if i < self.frozen {
            let r = self.model_row[i];
            if r != NO_ROW {
                return Some(r as usize);
            }
        }
        None
    }

    /// Whether lenient mode admits a variable of row `r` whose dense slot
    /// is `slot` (`None`: a name interned after the freeze, in no
    /// vocabulary).
    #[inline]
    fn admits(&self, r: usize, slot: Option<usize>) -> bool {
        slot.map_or(!self.row_has_vocab[r], |s| self.slot_flags[s] & ADMIT != 0)
    }

    /// Whether the variable of dense slot `slot` is an input port of its
    /// row's model.
    #[inline]
    fn is_inport(&self, slot: Option<usize>) -> bool {
        slot.is_some_and(|s| self.slot_flags[s] & INPORT != 0)
    }

    #[inline]
    fn name(&self, sym: Sym) -> String {
        self.interner.resolve(sym).to_string()
    }

    /// Matches a compact event log into exercised associations and
    /// runtime warnings (see [`MatchMode`] for how malformed logs are
    /// treated).
    pub fn analyse(&self, events: &[CompactEvent], mode: MatchMode) -> DynamicResult {
        self.analyse_with_coverage(events, mode).0
    }

    /// Starts an incremental matching pass: the returned [`MatchCursor`]
    /// consumes events one at a time ([`MatchCursor::feed`]) and yields the
    /// same `(DynamicResult, BitSet)` as [`Self::analyse_with_coverage`]
    /// when [`MatchCursor::finish`]ed — the streaming half of the
    /// simulate-and-match pipeline, holding only O(automaton state).
    pub fn cursor(&self, mode: MatchMode) -> MatchCursor<'_> {
        let frozen = self.frozen;
        let n_slots = self.n_rows * frozen;
        assert!(n_slots < NO_SLOT as usize, "slot ids fit a memo key");
        let mut st = LogState {
            last_def: vec![NO_DEF; n_slots],
            last_def_extra: FxHashMap::default(),
            last_time: vec![SimTime::ZERO; self.n_rows],
            warned: FxHashSet::default(),
            warned_models: FxHashSet::default(),
            warned_times: FxHashSet::default(),
            warned_vars: FxHashSet::default(),
            seen_def: FxHashSet::default(),
            seen_pair: FxHashSet::default(),
            def_memo: Memo::new(),
            local_memo: Memo::new(),
            fed_memo: Memo::new(),
            provs: vec![None; self.interner.prov_len()],
        };
        for &(row, var, line) in &self.member_seeds {
            st.last_def[row as usize * frozen + var as usize] = line;
        }
        MatchCursor {
            automaton: self,
            mode,
            st,
            warnings: Vec::new(),
            quarantined: 0,
            events: 0,
            streamed: 0,
        }
    }

    /// [`Self::analyse`] plus the coverage bitset over
    /// [`StaticAnalysis::associations`] indices: bit `i` is set iff
    /// `associations[i]` is in the returned `exercised` set.
    ///
    /// This is the whole-log entry point — a [`MatchCursor`] fed from a
    /// fully materialized log. Sessions drive the same cursor event by
    /// event instead (see [`Self::cursor`]), so the two are byte-identical
    /// by construction.
    pub fn analyse_with_coverage(
        &self,
        events: &[CompactEvent],
        mode: MatchMode,
    ) -> (DynamicResult, BitSet) {
        let _span = obs::span("stage.match");
        let mut cursor = self.cursor(mode);
        for ev in events {
            cursor.feed(ev);
        }
        cursor.finish()
    }
}

/// Incremental matching state over one event stream: the per-run mutable
/// half of [`MatchAutomaton::analyse_with_coverage`], split out so the
/// simulator can feed events as it produces them (the cursor is an
/// [`EventSink`]) with no materialized log. Memory is O(automaton state)
/// — the last-def table, fixed-size memos and the first-occurrence sets
/// of interned ids — independent of how many events are fed.
#[derive(Debug)]
pub struct MatchCursor<'a> {
    automaton: &'a MatchAutomaton,
    mode: MatchMode,
    st: LogState,
    warnings: Vec<DynamicWarning>,
    quarantined: u64,
    events: u64,
    /// Events that arrived through the [`EventSink`] impl.
    streamed: u64,
}

impl MatchCursor<'_> {
    /// Number of events fed so far.
    pub fn events_fed(&self) -> u64 {
        self.events
    }

    /// Consumes one event, updating the incremental state exactly as the
    /// corresponding iteration of the whole-log loop would.
    #[inline]
    pub fn feed(&mut self, ev: &CompactEvent) {
        self.events += 1;
        let automaton = self.automaton;
        let row = automaton.row_of(ev.model);
        let slot = LogState::slot(row, automaton.frozen, ev.var);
        let fed = (ev.kind == EventKind::Use && !ev.prov.is_none())
            .then(|| self.st.fed(automaton, ev.prov));
        if self.mode == MatchMode::Lenient {
            match row {
                Some(r)
                    if ev.time >= self.st.last_time[r]
                        && automaton.admits(r, slot)
                        && fed.is_none_or(|f| f.known) =>
                {
                    self.st.last_time[r] = ev.time;
                }
                _ => return self.quarantine(ev, row, slot, fed),
            }
        }
        let st = &mut self.st;
        match (ev.kind, fed) {
            (EventKind::Def, _) => {
                st.set_last_def(slot, ev.model, ev.var, ev.line);
                if !slot.is_some_and(|s| st.def_memo.hit([s as u32, ev.line])) {
                    st.seen_def.insert((ev.model.0, ev.var.0, ev.line));
                }
            }
            (EventKind::Use, Some(fed)) => {
                if slot.is_some_and(|s| st.fed_memo.hit([s as u32, ev.line, ev.prov.0])) {
                    return;
                }
                let (pv, pl, pm) = fed.site;
                st.seen_def.insert((pm.0, pv.0, pl));
                self.exercise(fed.site, (ev.line, ev.model));
            }
            (EventKind::Use, None) => {
                if automaton.is_inport(slot) {
                    let r = row.expect("inport implies a row");
                    if ev.defined {
                        let dline = automaton.row_start_line[r];
                        self.exercise_local(slot, (ev.var, dline, ev.model), ev.line);
                    } else if st.warned.insert((ev.model.0, ev.var.0, ev.line)) {
                        self.warnings.push(DynamicWarning::UndefinedSampleRead {
                            model: automaton.name(ev.model),
                            var: automaton.name(ev.var),
                            line: ev.line,
                            time: ev.time,
                        });
                    }
                } else {
                    match st.get_last_def(slot, ev.model, ev.var) {
                        Some(dline) => {
                            self.exercise_local(slot, (ev.var, dline, ev.model), ev.line);
                        }
                        None => {
                            if st.warned.insert((ev.model.0, ev.var.0, ev.line)) {
                                self.warnings.push(DynamicWarning::UseWithoutDef {
                                    model: automaton.name(ev.model),
                                    var: automaton.name(ev.var),
                                    line: ev.line,
                                    time: ev.time,
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    /// Quarantines an event lenient mode rejects (of model row `row`,
    /// dense slot `slot`, fed from `fed`), warning once per site about
    /// the first check it failed. A rejected def poisons its variable's
    /// pending definition: a quarantined def must not let later uses pair
    /// with a stale older one.
    #[cold]
    fn quarantine(
        &mut self,
        ev: &CompactEvent,
        row: Option<usize>,
        slot: Option<usize>,
        fed: Option<Fed>,
    ) {
        let automaton = self.automaton;
        let st = &mut self.st;
        // `None` once the site already warned.
        let warning = match row {
            None => st
                .warned_models
                .insert(ev.model.0)
                .then(|| DynamicWarning::UnknownModel {
                    model: automaton.name(ev.model),
                    time: ev.time,
                }),
            Some(r) if ev.time < st.last_time[r] => {
                st.warned_times
                    .insert(ev.model.0)
                    .then(|| DynamicWarning::NonMonotoneTimestamp {
                        model: automaton.name(ev.model),
                        time: ev.time,
                        last: st.last_time[r],
                    })
            }
            Some(r) if !automaton.admits(r, slot) => st
                .warned_vars
                .insert((ev.model.0, ev.var.0))
                .then(|| DynamicWarning::UnknownVariable {
                    model: automaton.name(ev.model),
                    var: automaton.name(ev.var),
                    time: ev.time,
                }),
            // Provenance must also name a real model, else the pair it
            // would exercise is fabricated.
            Some(_) => {
                let pm = fed.expect("the last check is the feeding model").site.2;
                st.warned_models
                    .insert(pm.0)
                    .then(|| DynamicWarning::UnknownModel {
                        model: automaton.name(pm),
                        time: ev.time,
                    })
            }
        };
        self.quarantined += 1;
        if let Some(w) = warning {
            self.warnings.push(w);
        }
        if ev.kind == EventKind::Def {
            st.remove_last_def(slot, ev.model, ev.var);
        }
    }

    /// [`Self::exercise`] for a pair within one model, unless the memo
    /// already holds it.
    #[inline]
    fn exercise_local(&mut self, slot: Option<usize>, def: (Sym, u32, Sym), use_line: u32) {
        if !slot.is_some_and(|s| self.st.local_memo.hit([s as u32, use_line, def.1])) {
            self.exercise(def, (use_line, def.2));
        }
    }

    /// Records the def site `(var, def_line, def_model)` paired with the
    /// use site `(use_line, use_model)`.
    fn exercise(
        &mut self,
        (var, def_line, def_model): (Sym, u32, Sym),
        (use_line, use_model): (u32, Sym),
    ) {
        self.st
            .seen_pair
            .insert((var.0, def_line, def_model.0, use_line, use_model.0));
    }

    /// Finalizes the pass: records the aggregate `match.*` counters and
    /// derives the result and the coverage bitset over
    /// [`StaticAnalysis::associations`] from the first-occurrence sets —
    /// byte-identical to [`MatchAutomaton::analyse_with_coverage`] over
    /// the same event sequence.
    pub fn finish(self) -> (DynamicResult, BitSet) {
        static EVENTS_MATCHED: obs::Counter = obs::Counter::new("match.events");
        static STREAMED: obs::Counter = obs::Counter::new("match.streamed_events");
        static ASSOC_EXERCISED: obs::Counter = obs::Counter::new("match.associations_exercised");
        static QUARANTINED: obs::Counter = obs::Counter::new("match.quarantined_events");
        EVENTS_MATCHED.add(self.events);
        STREAMED.add(self.streamed);
        ASSOC_EXERCISED.add(self.st.seen_pair.len() as u64);
        QUARANTINED.add(self.quarantined);
        let automaton = self.automaton;
        let name = |sym: u32| automaton.name(Sym(sym));
        let mut bits = BitSet::new(automaton.n_assocs);
        let mut exercised = HashSet::with_capacity(self.st.seen_pair.len());
        for &key in &self.st.seen_pair {
            if let Some(&i) = automaton.assoc_index.get(&key) {
                bits.insert(i as usize);
            }
            let (var, def_line, def_model, use_line, use_model) = key;
            exercised.insert(Association::new(
                name(var),
                def_line,
                name(def_model),
                use_line,
                name(use_model),
            ));
        }
        let defs_executed = self
            .st
            .seen_def
            .iter()
            .map(|&(model, var, line)| (name(model), name(var), line))
            .collect();
        (
            DynamicResult {
                exercised,
                defs_executed,
                warnings: self.warnings,
                quarantined: self.quarantined,
            },
            bits,
        )
    }
}

/// The cursor as the simulator's sink: each event is matched the moment
/// the kernel emits it. Events must carry ids from the automaton's
/// interner.
impl EventSink for MatchCursor<'_> {
    fn record_compact(&mut self, event: CompactEvent, interner: &Interner) {
        debug_assert!(
            std::ptr::eq(&*self.automaton.interner, interner),
            "compact events recorded against a foreign interner"
        );
        self.streamed += 1;
        self.feed(&event);
    }
}

impl LogState {
    /// Dense slot for `(row, var)` when the variable symbol predates the
    /// freeze; `None` routes to the overflow map.
    #[inline]
    fn slot(row: Option<usize>, frozen: usize, var: Sym) -> Option<usize> {
        match row {
            Some(r) if (var.0 as usize) < frozen => Some(r * frozen + var.0 as usize),
            _ => None,
        }
    }

    /// The provenance behind `id` (never the `NONE` sentinel), resolved
    /// on its first sight.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from the automaton's interner.
    #[inline]
    fn fed(&mut self, automaton: &MatchAutomaton, id: ProvId) -> Fed {
        match self.provs.get(id.0 as usize) {
            Some(&Some(fed)) => fed,
            _ => self.resolve(automaton, id),
        }
    }

    #[cold]
    fn resolve(&mut self, automaton: &MatchAutomaton, id: ProvId) -> Fed {
        let site = automaton
            .interner
            .prov(id)
            .expect("provenance id from a foreign interner");
        let fed = Fed {
            site,
            known: automaton.row_of(site.2).is_some(),
        };
        let i = id.0 as usize;
        if i >= self.provs.len() {
            // The simulation interns provenance after the cursor was
            // made; the interner, which now holds `id`, sizes the table.
            self.provs.resize(automaton.interner.prov_len(), None);
        }
        self.provs[i] = Some(fed);
        fed
    }

    #[inline]
    fn get_last_def(&self, slot: Option<usize>, model: Sym, var: Sym) -> Option<u32> {
        match slot {
            Some(s) => {
                let line = self.last_def[s];
                (line != NO_DEF).then_some(line)
            }
            None => self.last_def_extra.get(&(model.0, var.0)).copied(),
        }
    }

    #[inline]
    fn set_last_def(&mut self, slot: Option<usize>, model: Sym, var: Sym, line: u32) {
        match slot {
            Some(s) => self.last_def[s] = line,
            None => {
                self.last_def_extra.insert((model.0, var.0), line);
            }
        }
    }

    #[inline]
    fn remove_last_def(&mut self, slot: Option<usize>, model: Sym, var: Sym) {
        match slot {
            Some(s) => self.last_def[s] = NO_DEF,
            None => {
                self.last_def_extra.remove(&(model.0, var.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_interp::{Interface, TdfModelDef};
    use tdf_sim::{Event, ModuleClass, ModuleInfo, Netlist, Provenance, SimTime};

    fn design() -> Design {
        let src = "void M::processing()\n{\n    double t = ip_x;\n    op_y = t;\n}";
        let tu = minic::parse(src).unwrap();
        let models = vec![TdfModelDef::new(
            "M",
            Interface::new()
                .input("ip_x")
                .output("op_y")
                .member("m_s", 0i64),
        )];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![],
            modules: vec![ModuleInfo {
                name: "M".into(),
                class: ModuleClass::UserCode,
                in_ports: vec!["ip_x".into()],
                out_ports: vec!["op_y".into()],
            }],
        };
        Design::new(tu, models, netlist).unwrap()
    }

    fn fed(model: &str, var: &str, line: u32, prov: Provenance) -> Event {
        Event::Use {
            time: SimTime::ZERO,
            model: model.into(),
            var: var.into(),
            line,
            feeding: Some(prov),
            defined: true,
        }
    }

    /// `design()` plus a model `X` that is declared, with a body, but not
    /// bound in the netlist; built afresh, with its own interner.
    fn design_with_unbound_model() -> Design {
        let src = "void M::processing()\n{\n    double t = ip_x;\n    op_y = t;\n}\n\
                   void X::processing()\n{\n    double only_x = ip_a;\n    op_b = only_x;\n}";
        let base = design();
        let mut models = base.models().to_vec();
        models.push(TdfModelDef::new(
            "X",
            Interface::new()
                .input("ip_a")
                .output("op_b")
                .member("m_x", 1i64),
        ));
        Design::new(minic::parse(src).unwrap(), models, base.netlist().clone()).unwrap()
    }

    /// The automaton `SessionArtifacts::assemble` builds from `build`.
    fn assembled(design: &Design, build: &StaticBuild, statics: &StaticAnalysis) -> String {
        let automaton = MatchAutomaton::from_static_build(design, statics, build);
        format!("{automaton:?}")
    }

    /// A from-scratch automaton over a fresh copy of the design.
    fn cold(fresh: Design, statics: &StaticAnalysis) -> String {
        format!("{:?}", MatchAutomaton::new(&fresh, statics))
    }

    #[test]
    fn unbound_model_gets_the_same_row_from_the_static_build() {
        let d = design_with_unbound_model();
        let outcome = crate::statics::analyse_build(&d, 1, None, None);
        let cfgs = outcome.build.processing_cfgs();
        assert!(cfgs.contains_key("M") && !cfgs.contains_key("X"));
        let got = assembled(&d, &outcome.build, &outcome.analysis);
        assert_eq!(got, cold(design_with_unbound_model(), &outcome.analysis));
        // X's body names reached its vocabulary before the freeze.
        let only_x = d.interner().get("only_x").expect("interned");
        let automaton = MatchAutomaton::from_static_build(&d, &outcome.analysis, &outcome.build);
        assert!((only_x.0 as usize) < automaton.frozen);
        let x = automaton.row_of(d.interner().get("X").unwrap()).unwrap();
        let only_x = LogState::slot(Some(x), automaton.frozen, only_x);
        assert!(automaton.admits(x, only_x) && automaton.row_has_vocab[x]);
    }

    #[test]
    fn model_without_flow_gets_the_same_row_from_the_static_build() {
        let d = design();
        let mut outcome = crate::statics::analyse_build(&d, 1, None, None);
        outcome.build.drop_flow("M");
        assert!(outcome.build.processing_cfgs().is_empty());
        let got = assembled(&d, &outcome.build, &outcome.analysis);
        assert_eq!(got, cold(design(), &outcome.analysis));
        // M's local `t` is in its row's vocabulary: its CFG was built here.
        let automaton = MatchAutomaton::from_static_build(&d, &outcome.analysis, &outcome.build);
        let m = automaton.row_of(d.interner().get("M").unwrap()).unwrap();
        let t = d.interner().get("t").unwrap();
        let t = LogState::slot(Some(m), automaton.frozen, t);
        assert!(automaton.admits(m, t) && automaton.row_has_vocab[m]);
    }

    #[test]
    fn provenance_interned_after_the_cursor_is_resolved() {
        let d = design();
        let statics = crate::statics::analyse(&d);
        let automaton = MatchAutomaton::new(&d, &statics);
        let mut cursor = automaton.cursor(MatchMode::Lenient);
        // A simulation interns its write sites' provenance as it runs,
        // after the session made the cursor.
        let use_fed = fed("M", "ip_x", 3, Provenance::new("op_y", 4, "M"));
        let ev = CompactEvent::from_event(&use_fed, automaton.interner());
        assert!(ev.prov.0 as usize >= cursor.st.provs.len());
        cursor.feed(&ev);
        cursor.feed(&ev);
        let (result, _) = cursor.finish();
        let pair = Association::new("op_y", 4, "M", 3, "M");
        assert_eq!(result.exercised, [pair].into_iter().collect());
    }

    #[test]
    fn coverage_bits_index_the_static_association_list() {
        let d = design();
        let statics = crate::statics::analyse(&d);
        assert!(
            !statics.associations.is_empty(),
            "test design must yield associations"
        );
        let automaton = MatchAutomaton::new(&d, &statics);
        assert_eq!(automaton.n_associations(), statics.associations.len());
        // Exercise every static association directly by synthesising the
        // event that closes it.
        let events: Vec<Event> = statics
            .associations
            .iter()
            .map(|ca| {
                fed(
                    &ca.assoc.use_model,
                    "ip_x",
                    ca.assoc.use_line,
                    Provenance::new(&ca.assoc.var, ca.assoc.def_line, &ca.assoc.def_model),
                )
            })
            .collect();
        let compact: Vec<CompactEvent> = events
            .iter()
            .map(|e| CompactEvent::from_event(e, automaton.interner()))
            .collect();
        let (_, bits) = automaton.analyse_with_coverage(&compact, MatchMode::Strict);
        assert_eq!(bits.len(), statics.associations.len());
    }
}
