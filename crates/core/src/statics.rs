//! Stage 1 of Fig. 3: static analysis.
//!
//! Computes the over-approximated set of def-use associations of a design
//! and classifies each as Strong / Firm / PFirm / PWeak per §IV-B:
//!
//! * **intra-model** (locals and members): reaching definitions over the
//!   `processing()` CFG; Strong iff every static path def→use is a du-path,
//!   Firm otherwise. Member variables persist across activations, so their
//!   flows additionally wrap around the activation loop (def reaching the
//!   activation exit → upward-exposed use of the next activation).
//! * **cluster-level** (output ports): the netlist is traversed from every
//!   output port; branches that pass a redefining library element (delay,
//!   gain, buffer, …) carry that element's binding site as the new
//!   definition coordinate. Per using model: only original branches →
//!   Strong, original + redefined → PFirm, only redefined → PWeak.
//! * **externally-driven input ports** get a pseudo-definition at the model
//!   start line (§V: "input ports are assigned the start location of their
//!   TDF model"), e.g. `(ip_signal_in, 1, TS, 3, TS)`.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

use dataflow::{
    analyse_subsumption, path_facts, BitSet, Cfg, DefSite as FlowDef, DuPair, Liveness, NodeId,
    ReachingDefs, SubsumptionGraph, SUBSUMPTION_PATH_LIMIT,
};
use minic::Function;
use tdf_interp::VarKind;
use tdf_sim::{DefSite, ModuleClass, Netlist, PortRef};

use crate::assoc::{Association, Classification, ClassifiedAssoc};
use crate::design::Design;
use crate::error::panic_payload_str;
use crate::fx::FxHashMap;

/// Static-analysis findings that are not associations: suspicious shapes
/// the verification engineer should look at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaticLint {
    /// A local definition whose value can never be used (dead code; the
    /// paper maps these to component isolation at circuit level).
    DeadLocalDef {
        /// Model name.
        model: String,
        /// The variable.
        var: String,
        /// Definition line.
        line: u32,
    },
    /// An input port that is bound but never read by the model source.
    UnusedInputPort {
        /// Model name.
        model: String,
        /// Port name.
        port: String,
    },
    /// An output port the model never writes on any path (every reader
    /// sees undefined samples — §VI's "use of ports without definitions").
    NeverWrittenOutput {
        /// Model name.
        model: String,
        /// Port name.
        port: String,
    },
    /// Classifying this model panicked (an internal invariant tripped on
    /// its source). The panic was caught: the model contributes no
    /// associations, but every other model's analysis is unaffected.
    AnalysisPanicked {
        /// Model name.
        model: String,
        /// The panic payload (message), when it was a string.
        payload: String,
    },
}

/// Subsumption reduction over the final association set.
///
/// Indices are positions in [`StaticAnalysis::associations`]. An
/// association is *dropped* when exercising some other (frontier)
/// association statically guarantees it was exercised too (see
/// [`dataflow::analyse_subsumption`] for the relation and its soundness
/// boundary). This is a report and a test-generation weight: coverage
/// itself always observes every association. Only intra-model pairs whose
/// tuple maps one-to-one onto a du-pair participate; everything else
/// conservatively stays tracked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsumptionInfo {
    /// Bit `i` set iff association `i` is implied by a frontier
    /// association. Capacity equals the
    /// association count — a default (empty) value drops nothing.
    pub dropped: BitSet,
    /// `(frontier index, implied dropped indices)` for every frontier
    /// association that implies at least one dropped one, sorted by
    /// frontier index.
    pub implied_by: Vec<(u32, BitSet)>,
}

impl Default for SubsumptionInfo {
    fn default() -> Self {
        SubsumptionInfo {
            dropped: BitSet::new(0),
            implied_by: Vec::new(),
        }
    }
}

impl SubsumptionInfo {
    /// Number of associations implied by the frontier.
    pub fn dropped_count(&self) -> usize {
        self.dropped.len()
    }

    /// Whether association `i` is on the unsubsumed frontier.
    pub fn is_tracked(&self, i: usize) -> bool {
        !self.dropped.contains(i)
    }
}

/// The result of the static stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StaticAnalysis {
    /// All classified associations, deduplicated, in report order.
    pub associations: Vec<ClassifiedAssoc>,
    /// Non-association findings.
    pub lints: Vec<StaticLint>,
    /// Which associations are subsumed by others (tracking reduction).
    pub subsumption: SubsumptionInfo,
}

impl StaticAnalysis {
    /// Associations of one classification.
    pub fn of_class(&self, class: Classification) -> Vec<&ClassifiedAssoc> {
        self.associations
            .iter()
            .filter(|a| a.class == class)
            .collect()
    }

    /// Total number of associations.
    pub fn len(&self) -> usize {
        self.associations.len()
    }

    /// Whether no associations were found.
    pub fn is_empty(&self) -> bool {
        self.associations.is_empty()
    }
}

/// Per-model analysis artefacts, cached for reuse.
#[derive(Debug)]
struct ModelFlow {
    cfg: Cfg,
    rd: ReachingDefs,
    /// Use sites per variable: `(line, node)`.
    uses: HashMap<String, Vec<(u32, NodeId)>>,
    /// Flow of the optional `model::initialize()` function (its member
    /// definitions feed the first activation, §V).
    init: Option<(Cfg, ReachingDefs)>,
}

impl ModelFlow {
    fn compute(design: &Design, model: &str) -> ModelFlow {
        let f = design
            .tu()
            .processing(model)
            .expect("validated by Design::new");
        let cfg = Cfg::from_function(f);
        let rd = ReachingDefs::compute(&cfg);
        let mut uses: HashMap<String, Vec<(u32, NodeId)>> = HashMap::new();
        for n in cfg.nodes() {
            for u in &n.def_use.uses {
                uses.entry(u.name.clone()).or_default().push((u.line, n.id));
            }
        }
        let init = design.tu().function(model, "initialize").map(|init_f| {
            let icfg = Cfg::from_function(init_f);
            let ird = ReachingDefs::compute(&icfg);
            (icfg, ird)
        });
        ModelFlow {
            cfg,
            rd,
            uses,
            init,
        }
    }
}

/// FNV-1a accumulator — the same zero-dependency hash the interner and
/// `dft-serve`'s artifact cache use. Implements [`Hasher`] so fingerprints
/// stream `#[derive(Hash)]` AST/interface/netlist structure directly
/// instead of hashing their `Debug` renderings (an order of magnitude
/// cheaper, and it is also the `BuildHasherDefault` backing the merge-stage
/// maps below).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn lane(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a over 8-byte lanes (remainder byte-wise): same mixing
        // shape, one multiply per word instead of per byte. Keys are
        // process-internal, so the exact function only has to be
        // deterministic within one run.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.lane(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.lane(u64::from(b));
        }
    }

    // Integers — the lines and columns of every span, lengths and enum
    // discriminants — take one lane each instead of one per byte.
    fn write_u8(&mut self, n: u8) {
        self.lane(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.lane(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.lane(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.lane(n as u64);
    }
}

/// FNV-backed hash map for the merge stage: the keys are association
/// tuples (or their pre-computed keys) hashed many times per build, where
/// SipHash dominates.
type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv>>;

/// Content key of one model: everything `compute_model_artifact` reads.
///
/// * the model's functions, hashed **with spans** — association tuples
///   embed absolute source lines, so an edit that only shifts the model's
///   code must change the key;
/// * its [`Interface`](tdf_interp::Interface) (ports with rates/delays,
///   members with initial values, timestep);
/// * per input port, whether its upstream origin resolves external — the
///   one netlist-dependent fact the pseudo-def stage consumes.
///
/// `functions` are the model's functions in source order.
fn model_fingerprint(design: &Design, model: &str, functions: &[&Function]) -> u64 {
    let mut h = Fnv::new();
    model.hash(&mut h);
    for f in functions {
        f.hash(&mut h);
    }
    0x1fu8.hash(&mut h);
    if let Some(iface) = design.interface(model) {
        iface.hash(&mut h);
        for p in &iface.inputs {
            p.name.hash(&mut h);
            match upstream_origin(design.netlist(), model, &p.name) {
                Origin::UserModel => 1u8.hash(&mut h),
                Origin::External => 2u8.hash(&mut h),
            }
        }
    }
    h.finish()
}

/// Content key of the cluster binding information (the cluster-stage
/// traversal reads the whole netlist).
fn netlist_fingerprint(design: &Design) -> u64 {
    let mut h = Fnv::new();
    design.netlist().hash(&mut h);
    h.finish()
}

/// Pre-computed merge key of one association tuple. Stored next to every
/// emitted association at artifact/unit build time, so the merge's
/// count / dedup / index maps hash one `u64` per lookup instead of
/// re-hashing the tuple's strings on every build — cached artifacts carry
/// their keys along. Key equality is always confirmed by a tuple equality
/// check before it affects the output, so a 64-bit collision can never
/// change a report.
fn assoc_key(a: &Association) -> u64 {
    let mut h = Fnv::new();
    a.hash(&mut h);
    h.finish()
}

/// Subsumption candidates of one model, frozen at artifact-build time.
///
/// `candidates` are the Local/Member du-pairs whose association tuple was
/// emitted exactly once by *this model's own* stages — a superset of the
/// globally eligible set (another model or the cluster stage can still
/// collide on the tuple design-wide). The merge checks global uniqueness
/// and reuses `graph` when nothing collided, which is the overwhelmingly
/// common case.
#[derive(Debug)]
struct ModelSub {
    /// `(du-pair, its association tuple, the tuple's [`assoc_key`])` in
    /// `rd.pairs()` order.
    candidates: Vec<(DuPair, Association, u64)>,
    /// Subsumption graph over all `candidates` (`None` when fewer than 2).
    graph: Option<SubsumptionGraph>,
}

/// Everything the static stage derives from one model's keyed material:
/// flow (CFG + reaching definitions + warmed reachability cache),
/// intra-model associations in emission order, lints, and the per-model
/// subsumption candidates. Immutable once built and `Sync`, so one
/// `Arc<ModelArtifact>` is shared between the process-wide
/// [`ModelArtifactCache`], retained [`StaticBuild`]s and in-flight merges.
#[derive(Debug)]
pub(crate) struct ModelArtifact {
    /// `None` when classifying the model panicked — the artifact then
    /// carries the [`StaticLint::AnalysisPanicked`] lint instead.
    flow: Option<ModelFlow>,
    /// Intra-model + cross-activation + pseudo-def associations, in the
    /// exact order the worker emitted them (dedup keeps the first).
    assocs: Vec<ClassifiedAssoc>,
    /// [`assoc_key`] of each entry of `assocs`, same order.
    assoc_keys: Vec<u64>,
    lints: Vec<StaticLint>,
    /// `None` iff `flow` is `None`.
    sub: Option<ModelSub>,
}

/// Capacity of the process-wide model-artifact cache. Artifacts are small
/// (one CFG + reaching-defs + association vector per model); this bounds
/// residency far above any realistic concurrent design set.
const MODEL_CACHE_CAPACITY: usize = 1024;

/// A bounded, thread-safe, LRU cache of [`ModelArtifact`]s keyed by
/// [`model_fingerprint`] — same zero-dependency style as `dft-serve`'s
/// whole-design `ArtifactCache`, one level below it: every
/// `SessionArtifacts` build consults the process-wide instance so
/// re-analysing a design in which a model is unchanged pays a hash lookup
/// instead of a CFG + reaching-defs + classification rebuild for that
/// model.
///
/// Entries carry a recency stamp, so lookups and refreshes are O(1); only
/// an insert of a new key into a full cache scans, to evict the stalest.
pub(crate) struct ModelArtifactCache {
    state: Mutex<CacheState>,
    capacity: usize,
}

#[derive(Default)]
struct CacheState {
    /// Fingerprint -> (artifact, stamp of its last use).
    entries: FxHashMap<u64, (Arc<ModelArtifact>, u64)>,
    /// The next recency stamp.
    clock: u64,
}

impl CacheState {
    /// Marks `key` most recently used, returning its entry.
    fn touch(&mut self, key: u64) -> Option<&Arc<ModelArtifact>> {
        let stamp = self.clock;
        let (artifact, used) = self.entries.get_mut(&key)?;
        *used = stamp;
        self.clock += 1;
        Some(artifact)
    }
}

impl ModelArtifactCache {
    /// Creates a cache holding at most `capacity` model artifacts (min 1).
    pub(crate) fn new(capacity: usize) -> ModelArtifactCache {
        ModelArtifactCache {
            state: Mutex::new(CacheState::default()),
            capacity: capacity.max(1),
        }
    }

    /// The process-wide instance every
    /// [`SessionArtifacts`](crate::SessionArtifacts) build consults.
    pub(crate) fn global() -> &'static ModelArtifactCache {
        static GLOBAL: OnceLock<ModelArtifactCache> = OnceLock::new();
        GLOBAL.get_or_init(|| ModelArtifactCache::new(MODEL_CACHE_CAPACITY))
    }

    fn state(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Looks up `key`, promoting a hit to most-recently-used.
    fn lookup(&self, key: u64) -> Option<Arc<ModelArtifact>> {
        self.state().touch(key).cloned()
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when a new key finds the cache full.
    fn insert(&self, key: u64, artifact: &Arc<ModelArtifact>) {
        let mut state = self.state();
        if state.touch(key).is_some() {
            return;
        }
        if state.entries.len() >= self.capacity {
            let stalest = state
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(&k, _)| k);
            if let Some(k) = stalest {
                state.entries.remove(&k);
            }
        }
        let stamp = state.clock;
        state.clock += 1;
        state.entries.insert(key, (Arc::clone(artifact), stamp));
    }

    /// Number of resident artifacts.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.state().entries.len()
    }
}

/// Cluster-stage result of one model within a [`StaticBuild`].
#[derive(Debug)]
struct ClusterUnit {
    /// Cluster-level associations emitted from this model's output ports.
    assocs: Vec<ClassifiedAssoc>,
    /// [`assoc_key`] of each entry of `assocs`, same order.
    assoc_keys: Vec<u64>,
    /// The panic lint when the traversal panicked (assocs then empty).
    lint: Option<StaticLint>,
    /// Destination models whose flows the emission consulted; reuse of
    /// this unit requires each of their fingerprints unchanged.
    deps: Vec<String>,
}

/// One model's slot in a [`StaticBuild`].
#[derive(Debug)]
struct PerModelBuild {
    name: String,
    key: u64,
    artifact: Arc<ModelArtifact>,
    cluster: Arc<ClusterUnit>,
}

/// The per-model decomposition of one finished static analysis, retained
/// inside `SessionArtifacts` so a later build of an *edited* design can
/// splice every unchanged model's artifact — and every cluster unit whose
/// inputs (netlist, own model, destination models) are unchanged — instead
/// of recomputing them.
#[derive(Debug)]
pub(crate) struct StaticBuild {
    netlist_key: u64,
    models: Vec<PerModelBuild>,
}

impl StaticBuild {
    /// Number of user models this analysis covered.
    pub(crate) fn model_count(&self) -> usize {
        self.models.len()
    }

    /// The `processing()` CFG each model's artifact holds, by model name.
    /// A model whose classification panicked has no entry.
    pub(crate) fn processing_cfgs(&self) -> FxHashMap<&str, &Cfg> {
        self.models
            .iter()
            .filter_map(|m| Some((m.name.as_str(), &m.artifact.flow.as_ref()?.cfg)))
            .collect()
    }

    /// Replaces `model`'s artifact by the one a panicked classification
    /// leaves (no flow), for tests of the consumers' fallback.
    #[cfg(test)]
    pub(crate) fn drop_flow(&mut self, model: &str) {
        for m in self.models.iter_mut().filter(|m| m.name == model) {
            m.artifact = Arc::new(ModelArtifact {
                flow: None,
                assocs: Vec::new(),
                assoc_keys: Vec::new(),
                lints: Vec::new(),
                sub: None,
            });
        }
    }
}

/// A finished static stage: the analysis plus its per-model decomposition
/// and how many models actually had to be recomputed.
pub(crate) struct StaticOutcome {
    pub(crate) analysis: StaticAnalysis,
    pub(crate) build: StaticBuild,
    pub(crate) models_rebuilt: usize,
}

/// Runs the full static analysis over `design`, fanning the per-model work
/// out across [`crate::thread_count`] workers.
pub fn analyse(design: &Design) -> StaticAnalysis {
    analyse_with_threads(design, crate::thread_count())
}

/// Runs the full static analysis on an explicit worker count.
///
/// The result is byte-identical for every `threads` value: workers only
/// compute per-model artefacts, and the merge walks models in
/// `design.user_models()` order, exactly like the sequential loop.
///
/// Every model is analysed from scratch: this is the reference the
/// memoizing [`SessionArtifacts`](crate::SessionArtifacts) builds are
/// checked against, so it never consults the process-wide model cache.
pub fn analyse_with_threads(design: &Design, threads: usize) -> StaticAnalysis {
    analyse_build(design, threads, None, None).analysis
}

/// Computes one model's full artifact (the per-model worker body).
///
/// The work is isolated with `catch_unwind`: a panic while classifying one
/// model (an internal invariant tripping on its source) degrades to a
/// `StaticLint::AnalysisPanicked` instead of tearing down the whole
/// analysis. Workers only *read* the shared `&Design`, so an unwind cannot
/// leave shared state torn — `AssertUnwindSafe` is sound.
fn compute_model_artifact(design: &Design, model: &str) -> ModelArtifact {
    let _span = obs::span("static.model_classify");
    let isolated = catch_unwind(AssertUnwindSafe(|| {
        let flow = ModelFlow::compute(design, model);
        let mut assocs = Vec::new();
        let mut lints = Vec::new();
        intra_model(design, model, &flow, &mut assocs);
        member_cross_activation(design, model, &flow, &mut assocs);
        input_port_pseudo_defs(design, model, &flow, &mut assocs);
        lint_model(design, model, &flow, &mut lints);
        let sub = model_subsumption(design, model, &flow, &assocs);
        (flow, assocs, lints, sub)
    }));
    match isolated {
        Ok((flow, assocs, lints, sub)) => {
            let assoc_keys = assocs.iter().map(|c| assoc_key(&c.assoc)).collect();
            ModelArtifact {
                flow: Some(flow),
                assocs,
                assoc_keys,
                lints,
                sub: Some(sub),
            }
        }
        Err(payload) => ModelArtifact {
            flow: None,
            assocs: Vec::new(),
            assoc_keys: Vec::new(),
            lints: vec![StaticLint::AnalysisPanicked {
                model: model.to_owned(),
                payload: panic_payload_str(payload),
            }],
            sub: None,
        },
    }
}

/// Collects the model's subsumption candidates and pre-computes their
/// graph (moving that work off the merge thread and into the cacheable
/// per-model unit).
fn model_subsumption(
    design: &Design,
    model: &str,
    flow: &ModelFlow,
    own_emissions: &[ClassifiedAssoc],
) -> ModelSub {
    let mut count: HashMap<&Association, u32> = HashMap::new();
    for c in own_emissions {
        *count.entry(&c.assoc).or_insert(0) += 1;
    }
    let mut candidates: Vec<(DuPair, Association, u64)> = Vec::new();
    for pair in flow.rd.pairs() {
        match design.kind_of(model, &pair.var) {
            VarKind::Local | VarKind::Member => {}
            VarKind::InPort(_) | VarKind::OutPort(_) => continue,
        }
        let assoc = Association::new(
            pair.var.clone(),
            flow.rd.def(pair.def).line,
            model,
            pair.use_line,
            model,
        );
        if count.get(&assoc) != Some(&1) {
            continue;
        }
        let key = assoc_key(&assoc);
        candidates.push((pair.clone(), assoc, key));
    }
    let graph = (candidates.len() >= 2).then(|| {
        let pairs: Vec<DuPair> = candidates.iter().map(|(p, _, _)| p.clone()).collect();
        analyse_subsumption(&flow.cfg, &flow.rd, &pairs, SUBSUMPTION_PATH_LIMIT)
    });
    ModelSub { candidates, graph }
}

/// The full static stage with explicit memoization inputs: an optional
/// process-wide [`ModelArtifactCache`] and an optional previous
/// [`StaticBuild`] to splice unchanged models (and unchanged cluster
/// units) from. Both `None` is the exact cold path.
///
/// The merge is byte-identical to the historical single-pass analysis for
/// every combination of inputs: per-model association blocks concatenate
/// in `design.user_models()` order, then cluster blocks in the same order,
/// then the historical dedup / sort / subsumption mapping runs over the
/// concatenation.
pub(crate) fn analyse_build(
    design: &Design,
    threads: usize,
    cache: Option<&ModelArtifactCache>,
    prev: Option<&StaticBuild>,
) -> StaticOutcome {
    let _stage = obs::span("stage.static");
    static MODELS_ANALYSED: obs::Counter = obs::Counter::new("static.models_analysed");
    static MODEL_HIT: obs::Counter = obs::Counter::new("static.model_cache.hit");
    static MODEL_MISS: obs::Counter = obs::Counter::new("static.model_cache.miss");
    static REBUILT: obs::Counter = obs::Counter::new("incremental.models_rebuilt");
    let models = design.user_models();
    MODELS_ANALYSED.add(models.len() as u64);
    // Keys only matter when there is something to look them up in or a
    // build to splice from; the from-scratch path (`analyse`) skips the
    // fingerprint pass entirely. A build stored with zero keys can never
    // match a real fingerprint later, so splicing from it is a safe no-op.
    let keyed = cache.is_some() || prev.is_some();
    let (keys, netlist_key) = if keyed {
        let _span = obs::span("static.fingerprint");
        // Each model's functions, gathered in one pass over the unit.
        let mut functions: FxHashMap<&str, Vec<&Function>> = FxHashMap::default();
        for f in &design.tu().functions {
            functions.entry(f.model.as_str()).or_default().push(f);
        }
        let keys: Vec<u64> = models
            .iter()
            .map(|&m| model_fingerprint(design, m, functions.get(m).map_or(&[], Vec::as_slice)))
            .collect();
        (keys, netlist_fingerprint(design))
    } else {
        (vec![0; models.len()], 0)
    };

    // The previous build's models by fingerprint (the first of each
    // wins); a hit must also carry the same name.
    let mut prev_by_key: FxHashMap<u64, &PerModelBuild> = FxHashMap::default();
    for pm in prev.iter().flat_map(|p| &p.models) {
        prev_by_key.entry(pm.key).or_insert(pm);
    }
    let prev_model =
        |model: &str, key: u64| prev_by_key.get(&key).copied().filter(|pm| pm.name == model);

    // Resolve per-model artifacts: the previous build first (no lock, no
    // eviction pressure), then the shared cache; whatever is left fans out
    // to workers exactly like the cold path.
    let mut artifacts: Vec<Option<Arc<ModelArtifact>>> = vec![None; models.len()];
    if keyed {
        for (slot, (&model, &key)) in artifacts.iter_mut().zip(models.iter().zip(&keys)) {
            let found = prev_model(model, key)
                .map(|m| Arc::clone(&m.artifact))
                .or_else(|| cache.and_then(|c| c.lookup(key)));
            match found {
                Some(art) => {
                    MODEL_HIT.add(1);
                    *slot = Some(art);
                }
                None => MODEL_MISS.add(1),
            }
        }
    }
    let missing: Vec<usize> = (0..models.len())
        .filter(|&i| artifacts[i].is_none())
        .collect();
    let models_rebuilt = missing.len();
    REBUILT.add(models_rebuilt as u64);
    let rebuilt: Vec<Arc<ModelArtifact>> = crate::par::par_map(&missing, threads, |&i| {
        Arc::new(compute_model_artifact(design, models[i]))
    });
    for (&i, art) in missing.iter().zip(&rebuilt) {
        artifacts[i] = Some(Arc::clone(art));
    }
    let artifacts: Vec<Arc<ModelArtifact>> = artifacts
        .into_iter()
        .map(|a| a.expect("every slot resolved or rebuilt"))
        .collect();
    if let Some(cache) = cache {
        for (key, art) in keys.iter().zip(&artifacts) {
            cache.insert(*key, art);
        }
    }

    let mut lints: Vec<StaticLint> = Vec::new();
    for art in &artifacts {
        lints.extend(art.lints.iter().cloned());
    }

    // Flow lookup for the cluster stage, by name: a later same-named model
    // overwrites an earlier one, exactly like the historical HashMap
    // insert order. A missing entry means that model's classify stage
    // panicked; `cluster_ports` skips it.
    let mut flows: HashMap<&str, &ModelFlow> = HashMap::new();
    for (&model, art) in models.iter().zip(&artifacts) {
        if let Some(flow) = &art.flow {
            flows.insert(model, flow);
        }
    }

    // The cluster stage reads all flows at once, so it runs after the
    // fan-in above. A unit is spliced from the previous build iff the
    // netlist, the emitting model, and every destination model it
    // consulted are fingerprint-unchanged (panicked units never splice —
    // their dependency set is unknown); the rest recompute one model per
    // work item with the same per-model panic isolation as before.
    let mut cluster: Vec<Option<Arc<ClusterUnit>>> = vec![None; models.len()];
    if let Some(p) = prev {
        if p.netlist_key == netlist_key {
            // Fingerprint of the first model of each name, now and before.
            let mut cur_key: FxHashMap<&str, u64> = FxHashMap::default();
            for (&model, &key) in models.iter().zip(&keys) {
                cur_key.entry(model).or_insert(key);
            }
            let mut old_key: FxHashMap<&str, u64> = FxHashMap::default();
            for pm in &p.models {
                old_key.entry(pm.name.as_str()).or_insert(pm.key);
            }
            for (i, (&model, &key)) in models.iter().zip(&keys).enumerate() {
                let Some(pm) = prev_model(model, key) else {
                    continue;
                };
                if pm.cluster.lint.is_some() {
                    continue;
                }
                let deps_unchanged = pm.cluster.deps.iter().all(|dep| {
                    let dep = dep.as_str();
                    matches!((cur_key.get(dep), old_key.get(dep)), (Some(c), Some(o)) if c == o)
                });
                if deps_unchanged {
                    cluster[i] = Some(Arc::clone(&pm.cluster));
                }
            }
        }
    }
    let todo: Vec<usize> = (0..models.len())
        .filter(|&i| cluster[i].is_none())
        .collect();
    let computed: Vec<ClusterUnit> = crate::par::par_map(&todo, threads, |&i| {
        let _span = obs::span("static.cluster_ports");
        let isolated = catch_unwind(AssertUnwindSafe(|| {
            let mut assocs = Vec::new();
            let mut deps = BTreeSet::new();
            cluster_ports(design, models[i], &flows, &mut assocs, &mut deps);
            (assocs, deps)
        }));
        match isolated {
            Ok((assocs, deps)) => {
                let assoc_keys = assocs.iter().map(|c| assoc_key(&c.assoc)).collect();
                ClusterUnit {
                    assocs,
                    assoc_keys,
                    lint: None,
                    deps: deps.into_iter().collect(),
                }
            }
            Err(payload) => ClusterUnit {
                assocs: Vec::new(),
                assoc_keys: Vec::new(),
                lint: Some(StaticLint::AnalysisPanicked {
                    model: models[i].to_owned(),
                    payload: panic_payload_str(payload),
                }),
                deps: Vec::new(),
            },
        }
    });
    for (&i, unit) in todo.iter().zip(computed) {
        cluster[i] = Some(Arc::new(unit));
    }
    let cluster: Vec<Arc<ClusterUnit>> = cluster
        .into_iter()
        .map(|c| c.expect("every cluster slot spliced or computed"))
        .collect();
    for unit in &cluster {
        lints.extend(unit.lint.iter().cloned());
    }

    // Every association in emission order — per-model blocks, then
    // cluster blocks — borrowed from the artifacts and units; only the
    // ones that survive the dedup below are cloned into the analysis.
    let emitted = artifacts
        .iter()
        .map(|a| (&a.assocs, &a.assoc_keys))
        .chain(cluster.iter().map(|u| (&u.assocs, &u.assoc_keys)));
    let total = artifacts.iter().map(|a| a.assocs.len()).sum::<usize>()
        + cluster.iter().map(|u| u.assocs.len()).sum::<usize>();
    let mut out: Vec<(&ClassifiedAssoc, u64)> = Vec::with_capacity(total);
    for (assocs, keys) in emitted {
        out.extend(assocs.iter().zip(keys.iter().copied()));
    }

    let _merge_span = obs::span("static.merge");
    // Pre-dedup emission counts: a tuple emitted more than once (member
    // cross-activation wrap, same-line def collisions, …) does not map
    // one-to-one onto a du-pair, so the subsumption stage below must
    // leave it tracked.
    // One pass over the pre-computed keys computes both: the keep mask
    // ("is this the first occurrence") and the duplicate tuples — the
    // tuples emitted *more than once*. Candidate tuples were all emitted
    // (count >= 1), so "unique" == "not a duplicate", and duplicates are
    // rare, keeping the set (and its clones) tiny instead of cloning
    // every tuple in the design. Distinct tuples sharing a 64-bit key are
    // counted exactly in the equality-keyed overflow map, so a collision
    // can never merge two different tuples.
    let (keep, dup_tuples) = {
        let mut counts: FnvMap<u64, (u32, u32)> =
            FnvMap::with_capacity_and_hasher(out.len(), Default::default());
        let mut overflow: FnvMap<&Association, u32> = FnvMap::default();
        let mut keep: Vec<bool> = Vec::with_capacity(out.len());
        for (i, (c, key)) in out.iter().enumerate() {
            match counts.entry(*key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((i as u32, 1));
                    keep.push(true);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let (first, n) = e.get_mut();
                    if out[*first as usize].0.assoc == c.assoc {
                        *n += 1;
                        keep.push(false);
                    } else {
                        let n = overflow.entry(&c.assoc).or_insert(0);
                        keep.push(*n == 0);
                        *n += 1;
                    }
                }
            }
        }
        let mut dup_tuples: FnvMap<u64, Vec<Association>> = FnvMap::default();
        for (&key, &(first, n)) in &counts {
            if n > 1 {
                dup_tuples
                    .entry(key)
                    .or_default()
                    .push(out[first as usize].0.assoc.clone());
            }
        }
        for (assoc, &n) in &overflow {
            if n > 1 {
                dup_tuples
                    .entry(assoc_key(assoc))
                    .or_default()
                    .push((*assoc).clone());
            }
        }
        (keep, dup_tuples)
    };

    // Deduplicate on the tuple, keeping the first (intra-activation)
    // classification, then sort into report order.
    let mut it = keep.iter();
    out.retain(|_| *it.next().expect("keep mask covers every association"));
    out.sort_by(|(a, _), (b, _)| {
        (
            a.class,
            &a.assoc.def_model,
            &a.assoc.var,
            a.assoc.def_line,
            a.assoc.use_line,
        )
            .cmp(&(
                b.class,
                &b.assoc.def_model,
                &b.assoc.var,
                b.assoc.def_line,
                b.assoc.use_line,
            ))
    });

    let subsumption = merge_subsumption(&models, &artifacts, &out, &dup_tuples);
    let associations = out.into_iter().map(|(c, _)| c.clone()).collect();

    let build = StaticBuild {
        netlist_key,
        models: models
            .iter()
            .zip(keys)
            .zip(artifacts.iter().zip(cluster))
            .map(|((&name, key), (artifact, cluster))| PerModelBuild {
                name: name.to_owned(),
                key,
                artifact: Arc::clone(artifact),
                cluster,
            })
            .collect(),
    };
    StaticOutcome {
        analysis: StaticAnalysis {
            associations,
            lints,
            subsumption,
        },
        build,
        models_rebuilt,
    }
}

/// Maps the per-model subsumption graphs onto the final association set.
///
/// Per model (in `design.user_models()` order, so the result is identical
/// for every worker count), the eligible du-pairs — the artifact's
/// candidates whose tuple stayed unique *design-wide* — map their local
/// frontier/dropped indices onto global association indices. When every
/// candidate survived the global check (the common case) the artifact's
/// pre-computed graph is reused as-is; otherwise the graph is recomputed
/// over the filtered pair set, which is exactly what the historical
/// merge-thread pass computed. Everything ineligible stays tracked
/// conservatively.
fn merge_subsumption(
    models: &[&str],
    artifacts: &[Arc<ModelArtifact>],
    associations: &[(&ClassifiedAssoc, u64)],
    dup_tuples: &FnvMap<u64, Vec<Association>>,
) -> SubsumptionInfo {
    let _span = obs::span("static.subsumption");
    let n = associations.len();
    // Keyed by the pre-computed tuple key; first index wins (the entries
    // are already deduplicated, so two slots sharing a key is a 64-bit
    // collision of *distinct* tuples). Lookups equality-check the slot
    // before use — a collision victim just stays conservatively tracked.
    let mut index_of: FnvMap<u64, usize> = FnvMap::with_capacity_and_hasher(n, Default::default());
    for (i, (_, key)) in associations.iter().enumerate() {
        index_of.entry(*key).or_insert(i);
    }
    // Same-named duplicate resolution as the historical flows HashMap:
    // the last instance wins (duplicate names share all keyed material,
    // so their artifacts are identical anyway).
    let mut by_name: HashMap<&str, &ModelArtifact> = HashMap::new();
    for (&model, art) in models.iter().zip(artifacts) {
        if art.flow.is_some() {
            by_name.insert(model, art);
        }
    }
    let mut dropped = BitSet::new(n);
    let mut implied_by: Vec<(u32, BitSet)> = Vec::new();

    for &model in models {
        let Some(art) = by_name.get(model) else {
            continue;
        };
        let (Some(flow), Some(sub)) = (&art.flow, &art.sub) else {
            continue;
        };
        let eligible: Vec<(usize, usize)> = sub
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, (_, assoc, key))| {
                !dup_tuples
                    .get(key)
                    .is_some_and(|dups| dups.iter().any(|d| d == assoc))
            })
            .filter_map(|(i, (_, assoc, key))| {
                index_of
                    .get(key)
                    .filter(|&&gi| &associations[gi].0.assoc == assoc)
                    .map(|&gi| (i, gi))
            })
            .collect();
        if eligible.len() < 2 {
            continue;
        }
        let recomputed: Option<SubsumptionGraph>;
        let g: &SubsumptionGraph = if eligible.len() == sub.candidates.len() {
            match &sub.graph {
                Some(g) => g,
                None => continue,
            }
        } else {
            let pairs: Vec<DuPair> = eligible
                .iter()
                .map(|&(i, _)| sub.candidates[i].0.clone())
                .collect();
            recomputed = Some(analyse_subsumption(
                &flow.cfg,
                &flow.rd,
                &pairs,
                SUBSUMPTION_PATH_LIMIT,
            ));
            recomputed.as_ref().expect("just set")
        };
        for (k, &(_, gi)) in eligible.iter().enumerate() {
            if !g.frontier.contains(k) {
                dropped.insert(gi);
            }
        }
        for k in 0..eligible.len() {
            if !g.frontier.contains(k) {
                continue;
            }
            let mut implied = BitSet::new(n);
            for j in g.subsumes[k].iter() {
                if j != k && !g.frontier.contains(j) {
                    implied.insert(eligible[j].1);
                }
            }
            if !implied.is_empty() {
                implied_by.push((eligible[k].1 as u32, implied));
            }
        }
    }

    implied_by.sort_by_key(|(i, _)| *i);
    SubsumptionInfo {
        dropped,
        implied_by,
    }
}

/// Locals and members, same-activation flows.
fn intra_model(design: &Design, model: &str, flow: &ModelFlow, out: &mut Vec<ClassifiedAssoc>) {
    for pair in flow.rd.pairs() {
        match design.kind_of(model, &pair.var) {
            VarKind::Local | VarKind::Member => {
                let facts = path_facts(&flow.cfg, &flow.rd, pair);
                let class = if facts.all_paths_du() {
                    Classification::Strong
                } else {
                    Classification::Firm
                };
                out.push(ClassifiedAssoc {
                    assoc: Association::new(
                        pair.var.clone(),
                        flow.rd.def(pair.def).line,
                        model,
                        pair.use_line,
                        model,
                    ),
                    class,
                });
            }
            // Port flows are handled by the cluster / pseudo-def stages.
            VarKind::InPort(_) | VarKind::OutPort(_) => {}
        }
    }
}

/// Member flows that wrap around the activation loop: a definition reaching
/// the activation exit pairs with every upward-exposed use (a use reachable
/// from the entry without an intervening redefinition on some path).
fn member_cross_activation(
    design: &Design,
    model: &str,
    flow: &ModelFlow,
    out: &mut Vec<ClassifiedAssoc>,
) {
    let Some(iface) = design.interface(model) else {
        return;
    };
    for (var, _) in &iface.members {
        let escaping: Vec<&FlowDef> = flow.rd.defs_reaching_exit(&flow.cfg, var);
        // Definitions inside initialize() also feed the first activation
        // ("or location of initialize() function", §V).
        let init_defs: Vec<(u32, bool)> = flow
            .init
            .as_ref()
            .map(|(icfg, ird)| {
                let redefs: Vec<NodeId> = ird.defs_of(var).iter().map(|d| d.node).collect();
                ird.defs_reaching_exit(icfg, var)
                    .into_iter()
                    .map(|d| {
                        let clean = !redefs
                            .iter()
                            .any(|&k| k != d.node && icfg.reaches(d.node).contains(k));
                        (d.line, clean)
                    })
                    .collect()
            })
            .unwrap_or_default();
        if escaping.is_empty() && init_defs.is_empty() {
            continue;
        }
        let Some(uses) = flow.uses.get(var) else {
            continue;
        };
        let redef_nodes: Vec<NodeId> = flow.rd.defs_of(var).iter().map(|d| d.node).collect();
        for &(uline, unode) in uses {
            if !upward_exposed(&flow.cfg, unode, &redef_nodes) {
                continue;
            }
            // Classification: Strong iff (a) no redefinition lies after the
            // def on any path to the exit, and (b) no redefinition lies
            // before the use on any path from the entry.
            let use_clean = entry_to_use_clean(&flow.cfg, unode, &redef_nodes);
            for d in &escaping {
                let def_clean = !redef_nodes
                    .iter()
                    .any(|&k| k != d.node && flow.cfg.reaches(d.node).contains(k));
                let class = if def_clean && use_clean {
                    Classification::Strong
                } else {
                    Classification::Firm
                };
                out.push(ClassifiedAssoc {
                    assoc: Association::new(var.clone(), d.line, model, uline, model),
                    class,
                });
            }
            for (dline, def_clean) in &init_defs {
                let class = if *def_clean && use_clean {
                    Classification::Strong
                } else {
                    Classification::Firm
                };
                out.push(ClassifiedAssoc {
                    assoc: Association::new(var.clone(), *dline, model, uline, model),
                    class,
                });
            }
        }
    }
}

/// Whether some path entry→`use_node` carries no definition of the variable
/// (the use can observe the previous activation's value).
fn upward_exposed(cfg: &Cfg, use_node: NodeId, redefs: &[NodeId]) -> bool {
    // Backward BFS from the use, not expanding through redefining nodes.
    let mut seen = vec![false; cfg.len()];
    let mut work: Vec<NodeId> = cfg.preds(use_node).to_vec();
    while let Some(n) = work.pop() {
        if seen[n] {
            continue;
        }
        seen[n] = true;
        if n == cfg.entry() {
            return true;
        }
        if redefs.contains(&n) {
            continue; // this path is fed by the redefinition instead
        }
        work.extend(cfg.preds(n).iter().copied());
    }
    false
}

/// Whether *every* path entry→use is free of redefinitions (used for the
/// Strong/Firm split of cross-activation member pairs).
fn entry_to_use_clean(cfg: &Cfg, use_node: NodeId, redefs: &[NodeId]) -> bool {
    !redefs
        .iter()
        .any(|&k| k != use_node && cfg.reaches(k).contains(use_node))
}

/// Pseudo-definitions for input ports driven from outside the analysed
/// models (testbench or open), e.g. `(ip_signal_in, 1, TS, 3, TS)`.
fn input_port_pseudo_defs(
    design: &Design,
    model: &str,
    flow: &ModelFlow,
    out: &mut Vec<ClassifiedAssoc>,
) {
    let Some(iface) = design.interface(model) else {
        return;
    };
    for p in &iface.inputs {
        if upstream_origin(design.netlist(), model, &p.name) != Origin::External {
            continue;
        }
        let Some(uses) = flow.uses.get(&p.name) else {
            continue;
        };
        let start = design.start_line(model);
        for &(uline, _) in uses {
            out.push(ClassifiedAssoc {
                assoc: Association::new(p.name.clone(), start, model, uline, model),
                class: Classification::Strong,
            });
        }
    }
}

/// Where the samples feeding an input port originate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// A user-code model (handled by the forward cluster traversal).
    UserModel,
    /// A testbench source, an open input, or a component chain that starts
    /// at one.
    External,
}

fn upstream_origin<'a>(netlist: &'a Netlist, model: &'a str, port: &'a str) -> Origin {
    // One step per SISO element passed: a short walk, so a list of
    // borrowed names beats a hash set of owned ones.
    let mut visited: Vec<(&str, &str)> = Vec::new();
    let mut cur = (model, port);
    loop {
        if visited.contains(&cur) {
            return Origin::External; // component cycle without a model
        }
        visited.push(cur);
        let Some(binding) = netlist.driver(cur.0, cur.1) else {
            return Origin::External; // open input
        };
        match netlist.class_of(&binding.from.model) {
            Some(ModuleClass::UserCode) => return Origin::UserModel,
            Some(ModuleClass::Testbench) | None => return Origin::External,
            Some(ModuleClass::Redefining(_)) | Some(ModuleClass::Transparent) => {
                // SISO library element: continue from its (sole) input.
                let Some(info) = netlist.module(&binding.from.model) else {
                    return Origin::External;
                };
                let Some(inp) = info.in_ports.first() else {
                    return Origin::External; // source-like component
                };
                cur = (info.name.as_str(), inp.as_str());
            }
        }
    }
}

/// One resolved branch of an output port's fanout: `site` is `None` while
/// the signal is still the original definition, or the binding site of the
/// last redefining element passed.
#[derive(Debug, Clone)]
struct Branch {
    site: Option<DefSite>,
    dest: PortRef,
}

fn collect_branches(netlist: &Netlist, model: &str, port: &str) -> Vec<Branch> {
    let mut out = Vec::new();
    let mut visited: HashSet<(String, String)> = HashSet::new();
    walk_branches(netlist, model, port, None, &mut visited, &mut out);
    out
}

fn walk_branches(
    netlist: &Netlist,
    model: &str,
    port: &str,
    site: Option<DefSite>,
    visited: &mut HashSet<(String, String)>,
    out: &mut Vec<Branch>,
) {
    if !visited.insert((model.to_owned(), port.to_owned())) {
        return;
    }
    for b in netlist.fanout(model, port) {
        match netlist.class_of(&b.to.model) {
            Some(ModuleClass::UserCode) => out.push(Branch {
                site: site.clone(),
                dest: b.to.clone(),
            }),
            Some(ModuleClass::Testbench) | None => {}
            Some(ModuleClass::Transparent) => {
                if let Some(info) = netlist.module(&b.to.model) {
                    for op in info.out_ports.clone() {
                        walk_branches(netlist, &b.to.model, &op, site.clone(), visited, out);
                    }
                }
            }
            Some(ModuleClass::Redefining(s)) => {
                let s = s.clone();
                if let Some(info) = netlist.module(&b.to.model) {
                    for op in info.out_ports.clone() {
                        walk_branches(netlist, &b.to.model, &op, Some(s.clone()), visited, out);
                    }
                }
            }
        }
    }
}

/// Cluster-level associations from every output port of `model`.
///
/// `deps` collects the destination models whose flows the emission
/// consulted — the reuse precondition an incremental rebuild checks
/// (alongside the netlist and the emitting model itself) before splicing
/// this unit from a previous build.
fn cluster_ports(
    design: &Design,
    model: &str,
    flows: &HashMap<&str, &ModelFlow>,
    out: &mut Vec<ClassifiedAssoc>,
    deps: &mut BTreeSet<String>,
) {
    let Some(iface) = design.interface(model) else {
        return;
    };
    // No flow means this model's classify stage panicked; its cluster
    // pairs are sacrificed along with it.
    let Some(flow) = flows.get(model) else {
        return;
    };
    for p in &iface.outputs {
        let defs = flow.rd.defs_reaching_exit(&flow.cfg, &p.name);
        let branches = collect_branches(design.netlist(), model, &p.name);
        // Group branches by destination model (§IV-B.1 rule d). A BTreeMap
        // keeps the pre-dedup emission order independent of hasher state —
        // dedup keeps the *first* duplicate, so iteration order matters.
        let mut by_dest: BTreeMap<&str, Vec<&Branch>> = BTreeMap::new();
        for b in &branches {
            by_dest.entry(b.dest.model.as_str()).or_default().push(b);
        }
        for (dest_model, group) in by_dest {
            deps.insert(dest_model.to_owned());
            let has_original = group.iter().any(|b| b.site.is_none());
            let has_redefined = group.iter().any(|b| b.site.is_some());
            let class = match (has_original, has_redefined) {
                (true, false) => Classification::Strong,
                (true, true) => Classification::PFirm,
                (false, true) => Classification::PWeak,
                (false, false) => continue,
            };
            let Some(dest_flow) = flows.get(dest_model) else {
                continue;
            };
            for b in group {
                let Some(uses) = dest_flow.uses.get(&b.dest.port) else {
                    continue;
                };
                match &b.site {
                    None => {
                        for d in &defs {
                            for &(uline, _) in uses {
                                out.push(ClassifiedAssoc {
                                    assoc: Association::new(
                                        p.name.clone(),
                                        d.line,
                                        model,
                                        uline,
                                        dest_model,
                                    ),
                                    class,
                                });
                            }
                        }
                    }
                    Some(site) => {
                        for &(uline, _) in uses {
                            out.push(ClassifiedAssoc {
                                assoc: Association::new(
                                    p.name.clone(),
                                    site.line,
                                    site.model.clone(),
                                    uline,
                                    dest_model,
                                ),
                                class,
                            });
                        }
                    }
                }
            }
        }
    }
}

fn lint_model(design: &Design, model: &str, flow: &ModelFlow, lints: &mut Vec<StaticLint>) {
    let Some(iface) = design.interface(model) else {
        return;
    };
    // Escaping names: ports and members survive the activation.
    let escaping: Vec<String> = iface
        .outputs
        .iter()
        .map(|p| p.name.clone())
        .chain(iface.members.iter().map(|(m, _)| m.clone()))
        .collect();
    let lv = Liveness::compute(&flow.cfg, &escaping);
    for (node, var) in lv.dead_defs(&flow.cfg) {
        if design.kind_of(model, &var) == VarKind::Local {
            lints.push(StaticLint::DeadLocalDef {
                model: model.to_owned(),
                var,
                line: flow.cfg.node(node).line,
            });
        }
    }
    for p in &iface.inputs {
        if !flow.uses.contains_key(&p.name) {
            lints.push(StaticLint::UnusedInputPort {
                model: model.to_owned(),
                port: p.name.clone(),
            });
        }
    }
    for p in &iface.outputs {
        if flow.rd.defs_of(&p.name).is_empty() {
            lints.push(StaticLint::NeverWrittenOutput {
                model: model.to_owned(),
                port: p.name.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_interp::{Interface, TdfModelDef};
    use tdf_sim::{ModuleInfo, NetBinding};

    fn user(name: &str, ins: &[&str], outs: &[&str]) -> ModuleInfo {
        ModuleInfo {
            name: name.into(),
            class: ModuleClass::UserCode,
            in_ports: ins.iter().map(|s| s.to_string()).collect(),
            out_ports: outs.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn lib(name: &str, class: ModuleClass) -> ModuleInfo {
        ModuleInfo {
            name: name.into(),
            class,
            in_ports: vec!["tdf_i".into()],
            out_ports: vec!["tdf_o".into()],
        }
    }

    fn bind(fm: &str, fp: &str, tm: &str, tp: &str) -> NetBinding {
        NetBinding {
            from: PortRef::new(fm, fp),
            to: PortRef::new(tm, tp),
        }
    }

    fn find<'a>(
        sa: &'a StaticAnalysis,
        var: &str,
        d: u32,
        dm: &str,
        u: u32,
        um: &str,
    ) -> Option<&'a ClassifiedAssoc> {
        sa.associations
            .iter()
            .find(|c| c.assoc == Association::new(var, d, dm, u, um))
    }

    fn empty_artifact() -> Arc<ModelArtifact> {
        Arc::new(ModelArtifact {
            flow: None,
            assocs: Vec::new(),
            assoc_keys: Vec::new(),
            lints: Vec::new(),
            sub: None,
        })
    }

    #[test]
    fn model_artifact_cache_evicts_least_recently_used() {
        let cache = ModelArtifactCache::new(2);
        cache.insert(1, &empty_artifact());
        cache.insert(2, &empty_artifact());
        assert_eq!(cache.len(), 2);

        // Touch 1 so 2 becomes the LRU entry, then overflow.
        assert!(cache.lookup(1).is_some());
        cache.insert(3, &empty_artifact());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(2).is_none(), "LRU entry should be evicted");
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(3).is_some());

        // Re-inserting a resident key refreshes recency, never grows.
        cache.insert(1, &empty_artifact());
        assert_eq!(cache.len(), 2);
        cache.insert(4, &empty_artifact());
        assert!(cache.lookup(3).is_none(), "refreshed key should survive");
        assert!(cache.lookup(1).is_some());
    }

    /// A two-model design: A computes and drives B directly and through a
    /// delay (the PFirm shape), while a gain-only path feeds C (PWeak).
    fn pfirm_design() -> Design {
        let src = "\
void A::processing()
{
    double t = ip_in * 2;
    double o = 0;
    if (t > 1) { o = t; }
    op_y = o;
}
void B::processing()
{
    double v = ip_direct + ip_delayed;
    op_out = v;
}
void C::processing()
{
    double w = ip_scaled;
    op_out = w;
}";
        let tu = minic::parse(src).unwrap();
        let models = vec![
            TdfModelDef::new("A", Interface::new().input("ip_in").output("op_y")),
            TdfModelDef::new(
                "B",
                Interface::new()
                    .input("ip_direct")
                    .input("ip_delayed")
                    .output("op_out"),
            ),
            TdfModelDef::new("C", Interface::new().input("ip_scaled").output("op_out")),
        ];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![
                bind("src", "op_out", "A", "ip_in"),
                bind("A", "op_y", "B", "ip_direct"),
                bind("A", "op_y", "z1", "tdf_i"),
                bind("z1", "tdf_o", "B", "ip_delayed"),
                bind("A", "op_y", "g1", "tdf_i"),
                bind("g1", "tdf_o", "C", "ip_scaled"),
            ],
            modules: vec![
                ModuleInfo {
                    name: "src".into(),
                    class: ModuleClass::Testbench,
                    in_ports: vec![],
                    out_ports: vec!["op_out".into()],
                },
                user("A", &["ip_in"], &["op_y"]),
                user("B", &["ip_direct", "ip_delayed"], &["op_out"]),
                user("C", &["ip_scaled"], &["op_out"]),
                lib("z1", ModuleClass::Redefining(DefSite::new("top", 74))),
                lib("g1", ModuleClass::Redefining(DefSite::new("top", 77))),
            ],
        };
        Design::new(tu, models, netlist).unwrap()
    }

    #[test]
    fn local_strong_and_firm_split() {
        let sa = analyse(&pfirm_design());
        // (t, 3, A, 5, A): single path, Strong.
        assert_eq!(
            find(&sa, "t", 3, "A", 5, "A").unwrap().class,
            Classification::Strong
        );
        // (o, 4, A, 6, A): redefined on the then-branch, Firm.
        assert_eq!(
            find(&sa, "o", 4, "A", 6, "A").unwrap().class,
            Classification::Firm
        );
        // (o, 5, A, 6, A): the redefinition itself is Strong.
        assert_eq!(
            find(&sa, "o", 5, "A", 6, "A").unwrap().class,
            Classification::Strong
        );
    }

    #[test]
    fn mixed_branches_to_same_model_are_pfirm() {
        let sa = analyse(&pfirm_design());
        // Original branch into B (use of ip_direct at line 10).
        let orig = find(&sa, "op_y", 6, "A", 10, "B").unwrap();
        assert_eq!(orig.class, Classification::PFirm);
        // Redefined branch through the delay bound at top:74.
        let redef = find(&sa, "op_y", 74, "top", 10, "B").unwrap();
        assert_eq!(redef.class, Classification::PFirm);
    }

    #[test]
    fn purely_redefined_branch_is_pweak() {
        let sa = analyse(&pfirm_design());
        let pw = find(&sa, "op_y", 77, "top", 15, "C").unwrap();
        assert_eq!(pw.class, Classification::PWeak);
        // And no original-coordinate pair into C exists.
        assert!(find(&sa, "op_y", 6, "A", 15, "C").is_none());
    }

    #[test]
    fn testbench_driven_input_gets_pseudo_def_at_start_line() {
        let sa = analyse(&pfirm_design());
        // A::processing() is declared on line 1; ip_in is used on line 3.
        let p = find(&sa, "ip_in", 1, "A", 3, "A").unwrap();
        assert_eq!(p.class, Classification::Strong);
    }

    #[test]
    fn model_driven_input_has_no_pseudo_def() {
        let sa = analyse(&pfirm_design());
        // ip_direct is driven by A, so no pseudo-def pair at B's start.
        assert!(find(&sa, "ip_direct", 8, "B", 10, "B").is_none());
    }

    #[test]
    fn direct_connection_is_strong() {
        // A drives B directly with no component in between.
        let src = "void A::processing() { op_y = ip_in; }\n\
                   void B::processing() { op_z = ip_x; }";
        let tu = minic::parse(src).unwrap();
        let models = vec![
            TdfModelDef::new("A", Interface::new().input("ip_in").output("op_y")),
            TdfModelDef::new("B", Interface::new().input("ip_x").output("op_z")),
        ];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![bind("A", "op_y", "B", "ip_x")],
            modules: vec![
                user("A", &["ip_in"], &["op_y"]),
                user("B", &["ip_x"], &["op_z"]),
            ],
        };
        let d = Design::new(tu, models, netlist).unwrap();
        let sa = analyse(&d);
        let s = find(&sa, "op_y", 1, "A", 2, "B").unwrap();
        assert_eq!(s.class, Classification::Strong);
    }

    /// The paper's ctrl-style member: defined at the end of one activation,
    /// used at the start of the next — still Strong.
    #[test]
    fn member_cross_activation_pairs_are_found_strong() {
        let src = "\
void M::processing()
{
    if (ip_go) {
        if (m_state == 1) { op_y = 1; m_state = 0; }
        else { m_state = 1; }
    }
}";
        let tu = minic::parse(src).unwrap();
        let models = vec![TdfModelDef::new(
            "M",
            Interface::new()
                .input("ip_go")
                .output("op_y")
                .member("m_state", 0i64),
        )];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![],
            modules: vec![user("M", &["ip_go"], &["op_y"])],
        };
        let d = Design::new(tu, models, netlist).unwrap();
        let sa = analyse(&d);
        // def at 5 (else branch), use at 4 (next activation's condition):
        let a = find(&sa, "m_state", 5, "M", 4, "M").unwrap();
        assert_eq!(a.class, Classification::Strong);
        // def at 4 (then branch), use at 4 as well (next activation):
        let b = find(&sa, "m_state", 4, "M", 4, "M").unwrap();
        assert_eq!(b.class, Classification::Strong);
    }

    #[test]
    fn member_cross_activation_firm_when_redefined_before_use() {
        // m is unconditionally redefined at the top of the activation, so a
        // def surviving from the previous activation only feeds the line-3
        // use; the cross pair def(5) -> use(4) must not exist... but the
        // use at line 3 (before redefinition) pairs with def 5 and is
        // upward-exposed. The redefinition at line 3 kills everything else.
        let src = "\
void M::processing()
{
    double t = m_s;
    m_s = ip_in;
    op_y = m_s + t;
}";
        let tu = minic::parse(src).unwrap();
        let models = vec![TdfModelDef::new(
            "M",
            Interface::new()
                .input("ip_in")
                .output("op_y")
                .member("m_s", 0i64),
        )];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![],
            modules: vec![user("M", &["ip_in"], &["op_y"])],
        };
        let d = Design::new(tu, models, netlist).unwrap();
        let sa = analyse(&d);
        // Cross-activation: def(4) -> use(3) exists and is Strong (no other
        // defs of m_s anywhere on def->exit or entry->use segments).
        let a = find(&sa, "m_s", 4, "M", 3, "M").unwrap();
        assert_eq!(a.class, Classification::Strong);
        // Same-activation def(4) -> use(5) Strong as well.
        let b = find(&sa, "m_s", 4, "M", 5, "M").unwrap();
        assert_eq!(b.class, Classification::Strong);
        // The use at 5 is NOT upward-exposed (killed at 4): no pair with a
        // def from a previous activation — there is only one def anyway.
        assert_eq!(
            sa.associations
                .iter()
                .filter(|c| c.assoc.var == "m_s")
                .count(),
            2
        );
    }

    #[test]
    fn lints_flag_dead_defs_and_unused_ports() {
        let src = "\
void M::processing()
{
    double dead = 1;
    double used = 2;
    op_y = used;
}";
        let tu = minic::parse(src).unwrap();
        let models = vec![TdfModelDef::new(
            "M",
            Interface::new()
                .input("ip_never")
                .output("op_y")
                .output("op_never"),
        )];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![],
            modules: vec![user("M", &["ip_never"], &["op_y", "op_never"])],
        };
        let d = Design::new(tu, models, netlist).unwrap();
        let sa = analyse(&d);
        assert!(sa.lints.iter().any(|l| matches!(
            l,
            StaticLint::DeadLocalDef { var, .. } if var == "dead"
        )));
        assert!(sa.lints.iter().any(|l| matches!(
            l,
            StaticLint::UnusedInputPort { port, .. } if port == "ip_never"
        )));
        assert!(sa.lints.iter().any(|l| matches!(
            l,
            StaticLint::NeverWrittenOutput { port, .. } if port == "op_never"
        )));
    }

    #[test]
    fn open_input_gets_pseudo_def() {
        let src = "void M::processing() { op_y = ip_open; }";
        let tu = minic::parse(src).unwrap();
        let models = vec![TdfModelDef::new(
            "M",
            Interface::new().input("ip_open").output("op_y"),
        )];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![],
            modules: vec![user("M", &["ip_open"], &["op_y"])],
        };
        let d = Design::new(tu, models, netlist).unwrap();
        let sa = analyse(&d);
        assert!(find(&sa, "ip_open", 1, "M", 1, "M").is_some());
    }

    #[test]
    fn killed_port_def_does_not_escape() {
        let src = "\
void M::processing()
{
    op_y = 1;
    op_y = 2;
}
void N::processing() { op_z = ip_x; }";
        let tu = minic::parse(src).unwrap();
        let models = vec![
            TdfModelDef::new("M", Interface::new().output("op_y")),
            TdfModelDef::new("N", Interface::new().input("ip_x").output("op_z")),
        ];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![bind("M", "op_y", "N", "ip_x")],
            modules: vec![user("M", &[], &["op_y"]), user("N", &["ip_x"], &["op_z"])],
        };
        let d = Design::new(tu, models, netlist).unwrap();
        let sa = analyse(&d);
        assert!(find(&sa, "op_y", 3, "M", 6, "N").is_none(), "killed def");
        assert!(find(&sa, "op_y", 4, "M", 6, "N").is_some());
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let d = pfirm_design();
        let baseline = analyse_with_threads(&d, 1);
        for threads in [2, 3, 8] {
            assert_eq!(analyse_with_threads(&d, threads), baseline);
        }
        assert_eq!(analyse(&d), baseline, "default path agrees too");
    }

    #[test]
    fn subsumption_reduces_nested_local_windows() {
        // (t,3 -> 5) subsumes (t,3 -> 4) and (u,4 -> 5): both leave the
        // frontier and appear in its implied set.
        let src = "\
void M::processing()
{
    double t = ip_in;
    double u = t;
    op_y = t + u;
}";
        let tu = minic::parse(src).unwrap();
        let models = vec![TdfModelDef::new(
            "M",
            Interface::new().input("ip_in").output("op_y"),
        )];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![],
            modules: vec![user("M", &["ip_in"], &["op_y"])],
        };
        let d = Design::new(tu, models, netlist).unwrap();
        let sa = analyse(&d);
        let idx = |var: &str, dl: u32, ul: u32| {
            sa.associations
                .iter()
                .position(|c| c.assoc == Association::new(var, dl, "M", ul, "M"))
                .unwrap()
        };
        let t34 = idx("t", 3, 4);
        let t35 = idx("t", 3, 5);
        let u45 = idx("u", 4, 5);
        assert!(sa.subsumption.dropped.contains(t34));
        assert!(sa.subsumption.dropped.contains(u45));
        assert!(sa.subsumption.is_tracked(t35));
        assert_eq!(sa.subsumption.dropped_count(), 2);
        let (fi, implied) = sa
            .subsumption
            .implied_by
            .iter()
            .find(|(i, _)| *i as usize == t35)
            .expect("t35 implies the dropped pairs");
        assert_eq!(*fi as usize, t35);
        assert!(implied.contains(t34) && implied.contains(u45));
        // Port-level associations are never eligible, hence never dropped.
        for (i, c) in sa.associations.iter().enumerate() {
            if c.assoc.var.starts_with("ip_") || c.assoc.var.starts_with("op_") {
                assert!(sa.subsumption.is_tracked(i), "{} stays tracked", c.assoc);
            }
        }
    }

    #[test]
    fn every_dropped_association_is_implied_by_a_tracked_one() {
        let sa = analyse(&pfirm_design());
        for i in 0..sa.associations.len() {
            if sa.subsumption.is_tracked(i) {
                continue;
            }
            assert!(
                sa.subsumption
                    .implied_by
                    .iter()
                    .any(|(f, implied)| sa.subsumption.is_tracked(*f as usize)
                        && implied.contains(i)),
                "dropped {} has no tracked implier",
                sa.associations[i].assoc
            );
        }
    }

    #[test]
    fn member_cross_activation_tuples_stay_tracked() {
        // m_state tuples are emitted by both the intra-activation and the
        // cross-activation stage, so the one-to-one guard must keep every
        // one of them on the frontier.
        let src = "\
void M::processing()
{
    if (ip_go) {
        if (m_state == 1) { op_y = 1; m_state = 0; }
        else { m_state = 1; }
    }
}";
        let tu = minic::parse(src).unwrap();
        let models = vec![TdfModelDef::new(
            "M",
            Interface::new()
                .input("ip_go")
                .output("op_y")
                .member("m_state", 0i64),
        )];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![],
            modules: vec![user("M", &["ip_go"], &["op_y"])],
        };
        let d = Design::new(tu, models, netlist).unwrap();
        let sa = analyse(&d);
        for (i, c) in sa.associations.iter().enumerate() {
            if c.assoc.var == "m_state" {
                assert!(sa.subsumption.is_tracked(i), "{} must stay", c.assoc);
            }
        }
    }

    #[test]
    fn associations_are_deduplicated_and_sorted_by_class() {
        let sa = analyse(&pfirm_design());
        let mut seen = HashSet::new();
        for c in &sa.associations {
            assert!(seen.insert(c.assoc.clone()), "duplicate {c}");
        }
        let classes: Vec<Classification> = sa.associations.iter().map(|c| c.class).collect();
        let mut sorted = classes.clone();
        sorted.sort();
        assert_eq!(classes, sorted, "grouped by classification");
    }
}

#[cfg(test)]
mod cycle_tests {
    use super::*;
    use crate::design::Design;
    use tdf_interp::{Interface, TdfModelDef};
    use tdf_sim::{ModuleInfo, NetBinding, Netlist};

    /// A pathological netlist where two gains feed each other in a loop and
    /// one of them also feeds a model: traversal must terminate and the
    /// input's upstream origin must resolve as external.
    #[test]
    fn component_only_cycles_terminate() {
        let src = "void M::processing() { op_y = ip_x; }";
        let tu = minic::parse(src).unwrap();
        let models = vec![TdfModelDef::new(
            "M",
            Interface::new().input("ip_x").output("op_y"),
        )];
        let lib = |name: &str, line: u32| ModuleInfo {
            name: name.into(),
            class: ModuleClass::Redefining(DefSite::new("top", line)),
            in_ports: vec!["tdf_i".into()],
            out_ports: vec!["tdf_o".into()],
        };
        let bind = |fm: &str, fp: &str, tm: &str, tp: &str| NetBinding {
            from: PortRef::new(fm, fp),
            to: PortRef::new(tm, tp),
        };
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![
                // g1 <-> g2 loop, with g2 also feeding M and M feeding g1.
                bind("g1", "tdf_o", "g2", "tdf_i"),
                bind("g2", "tdf_o", "g1", "tdf_i"),
                bind("g2", "tdf_o", "M", "ip_x"),
                bind("M", "op_y", "g1", "tdf_i"),
            ],
            modules: vec![
                ModuleInfo {
                    name: "M".into(),
                    class: ModuleClass::UserCode,
                    in_ports: vec!["ip_x".into()],
                    out_ports: vec!["op_y".into()],
                },
                lib("g1", 10),
                lib("g2", 11),
            ],
        };
        let d = Design::new(tu, models, netlist).unwrap();
        let sa = analyse(&d); // must terminate
                              // M's own output loops back through g1/g2 into M: a purely
                              // redefined branch with g2's site.
        assert!(sa.associations.iter().any(|c| c.assoc.def_line == 11
            && c.assoc.def_model == "top"
            && c.class == Classification::PWeak));
    }

    #[test]
    fn upstream_origin_of_component_cycle_is_external() {
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![
                NetBinding {
                    from: PortRef::new("g1", "tdf_o"),
                    to: PortRef::new("M", "ip_x"),
                },
                NetBinding {
                    from: PortRef::new("g1", "tdf_o"),
                    to: PortRef::new("g1", "tdf_i"),
                },
            ],
            modules: vec![
                ModuleInfo {
                    name: "M".into(),
                    class: ModuleClass::UserCode,
                    in_ports: vec!["ip_x".into()],
                    out_ports: vec![],
                },
                ModuleInfo {
                    name: "g1".into(),
                    class: ModuleClass::Redefining(DefSite::new("top", 9)),
                    in_ports: vec!["tdf_i".into()],
                    out_ports: vec!["tdf_o".into()],
                },
            ],
        };
        assert_eq!(upstream_origin(&netlist, "M", "ip_x"), Origin::External);
    }
}
