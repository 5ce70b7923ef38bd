//! Deterministic fault injection for the TDF kernel and its
//! instrumentation stream.
//!
//! The dynamic half of the DFT pipeline only works if it survives the
//! event logs and models it is fed. This module makes every degradation
//! path *testable on demand*: a seeded [`FaultPlan`] drives a
//! [`FaultInjector`] that can corrupt a recorded log offline
//! ([`FaultInjector::corrupt_log`]), or wrap whole modules so they tamper
//! with the events they emit ([`FaultyEvents`]), emit NaN/Inf samples
//! ([`CorruptValues`]), panic ([`PanicAfter`]) or stall ([`StallAfter`])
//! after N activations. Event faults work on [`CompactEvent`]s and intern
//! the ghost names they fabricate into the events' own interner.
//!
//! Everything is driven by a small dependency-free xorshift RNG seeded
//! from the plan, so a given `(seed, probabilities)` pair reproduces the
//! exact same fault sequence on every run — fault-injection tests stay
//! deterministic. Each injected fault increments a `fault.injected.*`
//! counter in the observability registry (visible under `DFT_METRICS=1`).

use std::collections::VecDeque;
use std::time::Duration;

use crate::intern::{CompactEvent, Interner};
use crate::module::{EventSink, ModuleClass, ModuleSpec, ProcessingCtx, TdfModule};
use crate::time::SimTime;
use crate::value::Value;

static FAULT_DROP: obs::Counter = obs::Counter::new("fault.injected.drop");
static FAULT_DUP: obs::Counter = obs::Counter::new("fault.injected.duplicate");
static FAULT_REORDER: obs::Counter = obs::Counter::new("fault.injected.reorder");
static FAULT_CORRUPT: obs::Counter = obs::Counter::new("fault.injected.corrupt");
static FAULT_NAN: obs::Counter = obs::Counter::new("fault.injected.nan");
static FAULT_INF: obs::Counter = obs::Counter::new("fault.injected.inf");
static FAULT_PANIC: obs::Counter = obs::Counter::new("fault.injected.panic");
static FAULT_STALL: obs::Counter = obs::Counter::new("fault.injected.stall");

/// A tiny deterministic RNG (splitmix64 seed scramble + xorshift64*),
/// dependency-free so fault injection works without pulling `rand` into
/// the kernel.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Seeds the generator; any seed (including 0) yields a healthy stream.
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        FaultRng {
            state: (z ^ (z >> 31)) | 1,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }
}

/// What to inject and how often — the seed plus one probability per fault
/// class. All probabilities default to 0 (inject nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; the same seed replays the same fault sequence.
    pub seed: u64,
    /// Probability an event is silently dropped from the stream.
    pub drop_events: f64,
    /// Probability an event is recorded twice.
    pub duplicate_events: f64,
    /// Probability an event is held back and re-emitted after a later one
    /// (local reordering).
    pub reorder_events: f64,
    /// Maximum number of events the reorder hold can retain at once — the
    /// bound of the streaming pipeline's lookahead ring buffer. Depth 1
    /// (the default) reproduces the historical single-slot behaviour
    /// bit-for-bit; larger depths displace events further. A struct-literal
    /// depth of 0 is treated as 1 everywhere the plan is executed
    /// ([`FaultyEvents`], [`FaultInjector::corrupt_log`]), matching the
    /// [`FaultPlan::with_reorder_depth`] clamp.
    pub reorder_depth: usize,
    /// Probability an event's model/variable/timestamp is garbled.
    pub corrupt_events: f64,
    /// Probability an output sample's value is replaced with NaN
    /// (via [`CorruptValues`]).
    pub nan_outputs: f64,
    /// Probability an output sample's value is replaced with +Inf
    /// (via [`CorruptValues`]).
    pub inf_outputs: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_events: 0.0,
            duplicate_events: 0.0,
            reorder_events: 0.0,
            reorder_depth: 1,
            corrupt_events: 0.0,
            nan_outputs: 0.0,
            inf_outputs: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (seed 0).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the event-drop probability (builder style).
    pub fn with_drop_events(mut self, p: f64) -> Self {
        self.drop_events = p;
        self
    }

    /// Sets the event-duplication probability (builder style).
    pub fn with_duplicate_events(mut self, p: f64) -> Self {
        self.duplicate_events = p;
        self
    }

    /// Sets the event-reorder probability (builder style).
    pub fn with_reorder_events(mut self, p: f64) -> Self {
        self.reorder_events = p;
        self
    }

    /// Sets the reorder hold depth — the lookahead ring-buffer bound
    /// (builder style). Clamped to at least 1.
    pub fn with_reorder_depth(mut self, depth: usize) -> Self {
        self.reorder_depth = depth.max(1);
        self
    }

    /// Sets the event-corruption probability (builder style).
    pub fn with_corrupt_events(mut self, p: f64) -> Self {
        self.corrupt_events = p;
        self
    }

    /// Sets the NaN-output probability (builder style).
    pub fn with_nan_outputs(mut self, p: f64) -> Self {
        self.nan_outputs = p;
        self
    }

    /// Sets the +Inf-output probability (builder style).
    pub fn with_inf_outputs(mut self, p: f64) -> Self {
        self.inf_outputs = p;
        self
    }

    /// Returns the plan with `reorder_depth` clamped to at least 1, the
    /// invariant [`FaultPlan::with_reorder_depth`] maintains. Executors
    /// call this on entry so a struct-literal depth of 0 cannot silently
    /// disable the reorder hold.
    fn normalized(mut self) -> Self {
        self.reorder_depth = self.reorder_depth.max(1);
        self
    }
}

/// Garbles one event: unknown model, unknown variable, or a warped
/// timestamp (whichever the RNG picks). Ghost names are interned into
/// `interner`, the one the event's ids come from.
fn corrupt_event(mut e: CompactEvent, rng: &mut FaultRng, interner: &Interner) -> CompactEvent {
    match rng.next_u64() % 3 {
        0 => e.model = interner.intern(&format!("__ghost_model_{}", rng.next_u64() % 4)),
        1 => e.var = interner.intern(&format!("__ghost_var_{}", rng.next_u64() % 4)),
        // Warp the timestamp backwards to zero — non-monotone for any
        // event past the first activation.
        _ => e.time = SimTime::ZERO,
    }
    e
}

/// Shared fault pipeline for one event: drop → corrupt → reorder-hold →
/// duplicate → `deliver` (flushing all held events *after* this one).
///
/// The reorder hold is a **bounded ring buffer** of at most
/// [`FaultPlan::reorder_depth`] events — the only buffering the streaming
/// match pipeline ever needs, so peak lookahead memory stays O(depth)
/// regardless of run length. The `held.len() < depth` guard short-circuits
/// *before* the RNG draw, exactly like the historical `held.is_none()`
/// single-slot check, so depth 1 replays byte-identical fault sequences.
fn apply_event_faults(
    event: CompactEvent,
    interner: &Interner,
    plan: &FaultPlan,
    rng: &mut FaultRng,
    held: &mut VecDeque<CompactEvent>,
    mut deliver: impl FnMut(CompactEvent),
) {
    if rng.chance(plan.drop_events) {
        FAULT_DROP.add(1);
        return;
    }
    let event = if rng.chance(plan.corrupt_events) {
        FAULT_CORRUPT.add(1);
        corrupt_event(event, rng, interner)
    } else {
        event
    };
    if held.len() < plan.reorder_depth.max(1) && rng.chance(plan.reorder_events) {
        FAULT_REORDER.add(1);
        held.push_back(event);
        return;
    }
    if rng.chance(plan.duplicate_events) {
        FAULT_DUP.add(1);
        deliver(event);
    }
    deliver(event);
    held.drain(..).for_each(deliver);
}

/// Entry point for injecting faults from a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Creates an injector for `plan` (with `reorder_depth` clamped to
    /// at least 1, as [`FaultPlan::with_reorder_depth`] documents).
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan: plan.normalized(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Applies the plan's event faults to a recorded log, offline. Ghost
    /// names are interned into `interner`, the log's own; events still
    /// held when the log ends are appended, so reordering never loses
    /// one. Deterministic: the same plan and input produce the same
    /// output.
    pub fn corrupt_log(&self, events: &[CompactEvent], interner: &Interner) -> Vec<CompactEvent> {
        let mut rng = FaultRng::new(self.plan.seed);
        let mut held = VecDeque::new();
        let mut out = Vec::with_capacity(events.len());
        for &event in events {
            apply_event_faults(event, interner, &self.plan, &mut rng, &mut held, |e| {
                out.push(e)
            });
        }
        out.extend(held);
        out
    }
}

/// Wraps a module so it panics (deterministically) once it has been
/// activated more than `after` times. `initialize()` rearms the trigger.
pub struct PanicAfter {
    inner: Box<dyn TdfModule>,
    after: u64,
    count: u64,
}

impl PanicAfter {
    /// The first `after` activations run normally; the next one panics.
    pub fn new(inner: Box<dyn TdfModule>, after: u64) -> Self {
        PanicAfter {
            inner,
            after,
            count: 0,
        }
    }
}

impl TdfModule for PanicAfter {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn spec(&self) -> ModuleSpec {
        self.inner.spec()
    }
    fn class(&self) -> ModuleClass {
        self.inner.class()
    }
    fn initialize(&mut self) {
        self.count = 0;
        self.inner.initialize();
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        self.count += 1;
        if self.count > self.after {
            FAULT_PANIC.add(1);
            panic!(
                "fault-inject: module `{}` panicking after {} activations",
                self.inner.name(),
                self.after
            );
        }
        self.inner.processing(ctx);
    }
}

/// Wraps a module so every activation past the first `after` sleeps for
/// `stall` before delegating — a runaway model that a wall-clock budget
/// ([`crate::RunLimits::wall_budget`]) catches at the next firing boundary.
pub struct StallAfter {
    inner: Box<dyn TdfModule>,
    after: u64,
    stall: Duration,
    count: u64,
}

impl StallAfter {
    /// The first `after` activations run normally; later ones stall.
    pub fn new(inner: Box<dyn TdfModule>, after: u64, stall: Duration) -> Self {
        StallAfter {
            inner,
            after,
            stall,
            count: 0,
        }
    }
}

impl TdfModule for StallAfter {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn spec(&self) -> ModuleSpec {
        self.inner.spec()
    }
    fn class(&self) -> ModuleClass {
        self.inner.class()
    }
    fn initialize(&mut self) {
        self.count = 0;
        self.inner.initialize();
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        self.count += 1;
        if self.count > self.after {
            FAULT_STALL.add(1);
            std::thread::sleep(self.stall);
        }
        self.inner.processing(ctx);
    }
}

/// Wraps a module and replaces its output sample values with NaN/+Inf at
/// the plan's `nan_outputs` / `inf_outputs` rates (provenance and
/// definedness are left untouched — only the numeric payload is garbled).
pub struct CorruptValues {
    inner: Box<dyn TdfModule>,
    plan: FaultPlan,
    rng: FaultRng,
}

impl CorruptValues {
    /// Wraps `inner`, seeding the value-fault RNG from the plan.
    pub fn new(inner: Box<dyn TdfModule>, plan: FaultPlan) -> Self {
        let rng = FaultRng::new(plan.seed);
        CorruptValues { inner, plan, rng }
    }
}

impl TdfModule for CorruptValues {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn spec(&self) -> ModuleSpec {
        self.inner.spec()
    }
    fn class(&self) -> ModuleClass {
        self.inner.class()
    }
    fn initialize(&mut self) {
        self.rng = FaultRng::new(self.plan.seed);
        self.inner.initialize();
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        self.inner.processing(ctx);
        for port in ctx.outputs.iter_mut() {
            for sample in port.iter_mut() {
                if self.rng.chance(self.plan.nan_outputs) {
                    FAULT_NAN.add(1);
                    sample.value = Value::Double(f64::NAN);
                } else if self.rng.chance(self.plan.inf_outputs) {
                    FAULT_INF.add(1);
                    sample.value = Value::Double(f64::INFINITY);
                }
            }
        }
    }
}

/// Wraps a module so every event it emits passes through the plan's event
/// faults before reaching the real sink — the online counterpart of
/// [`FaultInjector::corrupt_log`]. Reordering acts within one activation:
/// the events still held when `processing()` returns are delivered then,
/// as `corrupt_log` appends those held at the end of its log, so no event
/// is lost to the hold. `initialize()` reseeds the RNG.
pub struct FaultyEvents {
    inner: Box<dyn TdfModule>,
    plan: FaultPlan,
    rng: FaultRng,
    held: VecDeque<CompactEvent>,
}

impl FaultyEvents {
    /// Wraps `inner`, seeding the event-fault RNG from the plan.
    pub fn new(inner: Box<dyn TdfModule>, plan: FaultPlan) -> Self {
        let plan = plan.normalized();
        let rng = FaultRng::new(plan.seed);
        FaultyEvents {
            inner,
            plan,
            rng,
            held: VecDeque::new(),
        }
    }
}

/// Borrowing event-fault tap used by [`FaultyEvents`]: the RNG and the
/// hold's buffer live in the wrapper, so an activation allocates nothing.
struct TapSink<'a> {
    inner: &'a mut dyn EventSink,
    plan: &'a FaultPlan,
    rng: &'a mut FaultRng,
    held: &'a mut VecDeque<CompactEvent>,
}

impl EventSink for TapSink<'_> {
    fn record_compact(&mut self, event: CompactEvent, interner: &Interner) {
        let inner = &mut *self.inner;
        apply_event_faults(event, interner, self.plan, self.rng, self.held, |e| {
            inner.record_compact(e, interner)
        });
    }
}

impl TdfModule for FaultyEvents {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn spec(&self) -> ModuleSpec {
        self.inner.spec()
    }
    fn class(&self) -> ModuleClass {
        self.inner.class()
    }
    fn initialize(&mut self) {
        self.rng = FaultRng::new(self.plan.seed);
        self.inner.initialize();
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let mut tap = TapSink {
            inner: ctx.sink,
            plan: &self.plan,
            rng: &mut self.rng,
            held: &mut self.held,
        };
        let mut derived = ProcessingCtx {
            time: ctx.time,
            timestep: ctx.timestep,
            inputs: ctx.inputs,
            outputs: ctx.outputs,
            sink: &mut tap,
            timestep_request: ctx.timestep_request,
            interner: ctx.interner,
        };
        self.inner.processing(&mut derived);
        for event in self.held.drain(..) {
            ctx.sink.record_compact(event, ctx.interner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::FnSource;
    use crate::intern::{EventKind, ProvId};
    use crate::module::NullSink;

    /// `n` defs of `TS.tmpr` at lines 4, 5, … one microsecond apart.
    fn sample_log(n: u32, interner: &Interner) -> Vec<CompactEvent> {
        let (model, var) = (interner.intern("TS"), interner.intern("tmpr"));
        (0..n)
            .map(|i| CompactEvent {
                time: SimTime::from_us(i as u64),
                model,
                var,
                line: 4 + i,
                kind: EventKind::Def,
                prov: ProvId::NONE,
                defined: true,
            })
            .collect()
    }

    fn lines(log: &[CompactEvent]) -> Vec<u32> {
        log.iter().map(|e| e.line).collect()
    }

    #[test]
    fn corrupt_log_is_deterministic() {
        let plan = FaultPlan::new()
            .with_seed(42)
            .with_drop_events(0.3)
            .with_duplicate_events(0.3)
            .with_reorder_events(0.3)
            .with_corrupt_events(0.3);
        let i = Interner::new();
        let log = sample_log(50, &i);
        let a = FaultInjector::new(plan.clone()).corrupt_log(&log, &i);
        let b = FaultInjector::new(plan).corrupt_log(&log, &i);
        assert_eq!(a, b, "same plan replays the same faults");
    }

    #[test]
    fn drop_probability_one_empties_the_log() {
        let i = Interner::new();
        let inj = FaultInjector::new(FaultPlan::new().with_drop_events(1.0));
        assert!(inj.corrupt_log(&sample_log(10, &i), &i).is_empty());
    }

    #[test]
    fn duplicate_probability_one_doubles_the_log() {
        let i = Interner::new();
        let inj = FaultInjector::new(FaultPlan::new().with_duplicate_events(1.0));
        assert_eq!(inj.corrupt_log(&sample_log(10, &i), &i).len(), 20);
    }

    #[test]
    fn reorder_never_loses_events() {
        let i = Interner::new();
        let inj = FaultInjector::new(FaultPlan::new().with_seed(7).with_reorder_events(0.8));
        let log = sample_log(40, &i);
        let out = inj.corrupt_log(&log, &i);
        assert_eq!(out.len(), log.len(), "reordering only permutes");
        let mut sorted_in = lines(&log);
        let mut sorted_out = lines(&out);
        sorted_in.sort_unstable();
        sorted_out.sort_unstable();
        assert_eq!(sorted_in, sorted_out, "same multiset of events");
        assert_ne!(
            lines(&log),
            lines(&out),
            "at 0.8 probability over 40 events some pair really swapped"
        );
    }

    #[test]
    fn reorder_depth_bounds_the_hold_ring() {
        let inj = FaultInjector::new(
            FaultPlan::new()
                .with_seed(9)
                .with_reorder_events(1.0)
                .with_reorder_depth(4),
        );
        let i = Interner::new();
        let log = sample_log(20, &i);
        let out = inj.corrupt_log(&log, &i);
        assert_eq!(out.len(), log.len(), "ring flushes everything");
        // At probability 1 the first four events fill the ring; the fifth
        // finds it full (no RNG draw), is delivered, and flushes the held
        // ones in arrival order.
        assert_eq!(&lines(&out)[..5], &[8, 4, 5, 6, 7]);
    }

    #[test]
    fn struct_literal_depth_zero_behaves_like_depth_one() {
        // A public-field struct literal can bypass with_reorder_depth's
        // clamp; the executors normalize it back to 1, so depth 0 must be
        // byte-identical to depth 1 — not a silently disabled hold.
        let zero = FaultPlan {
            reorder_depth: 0,
            ..FaultPlan::new().with_seed(11).with_reorder_events(0.7)
        };
        let one = zero.clone().with_reorder_depth(1);
        let i = Interner::new();
        let log = sample_log(30, &i);
        let out_zero = FaultInjector::new(zero.clone()).corrupt_log(&log, &i);
        let out_one = FaultInjector::new(one).corrupt_log(&log, &i);
        assert_eq!(out_zero, out_one, "depth 0 normalizes to depth 1");
        assert_eq!(out_zero.len(), log.len(), "the hold still flushes");
        assert_eq!(
            FaultInjector::new(zero).plan().reorder_depth,
            1,
            "the injector exposes the normalized plan"
        );
    }

    #[test]
    fn corrupted_events_differ_from_originals() {
        let i = Interner::new();
        let inj = FaultInjector::new(FaultPlan::new().with_seed(3).with_corrupt_events(1.0));
        let log = sample_log(10, &i);
        let out = inj.corrupt_log(&log, &i);
        assert_eq!(out.len(), log.len());
        assert!(out.iter().zip(&log).any(|(a, b)| a != b));
        // Each event lost its model, its variable or its timestamp; a
        // ghost name resolves through the log's interner.
        let ghost = |sym| i.resolve(sym).starts_with("__ghost_");
        for (a, b) in out.iter().zip(&log) {
            let garbled = [ghost(a.model), ghost(a.var), a.time.is_zero()];
            assert!(garbled.iter().any(|&g| g), "{a:?} from {b:?}");
        }
    }

    #[test]
    fn panic_after_fires_at_the_right_activation() {
        let src = FnSource::new("src", SimTime::from_us(1), |_| Value::Double(1.0));
        let mut wrapped = PanicAfter::new(Box::new(src), 2);
        let fire = |m: &mut PanicAfter| {
            let inputs: Vec<Vec<crate::value::Sample>> = Vec::new();
            let mut outputs = vec![Vec::new()];
            let mut req = None;
            let mut sink = NullSink;
            let interner = crate::Interner::new();
            let mut ctx = ProcessingCtx {
                time: SimTime::ZERO,
                timestep: SimTime::from_us(1),
                inputs: &inputs,
                outputs: &mut outputs,
                sink: &mut sink,
                timestep_request: &mut req,
                interner: &interner,
            };
            m.processing(&mut ctx);
        };
        fire(&mut wrapped);
        fire(&mut wrapped);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fire(&mut wrapped)));
        let payload = boom.unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert_eq!(
            msg,
            "fault-inject: module `src` panicking after 2 activations"
        );
        // initialize() rearms: two more healthy activations.
        wrapped.initialize();
        fire(&mut wrapped);
        fire(&mut wrapped);
    }

    #[test]
    fn corrupt_values_injects_nan() {
        let src = FnSource::new("src", SimTime::from_us(1), |_| Value::Double(1.0));
        let mut wrapped = CorruptValues::new(Box::new(src), FaultPlan::new().with_nan_outputs(1.0));
        let inputs: Vec<Vec<crate::value::Sample>> = Vec::new();
        let mut outputs = vec![Vec::new()];
        let mut req = None;
        let mut sink = NullSink;
        let interner = crate::Interner::new();
        let mut ctx = ProcessingCtx {
            time: SimTime::ZERO,
            timestep: SimTime::from_us(1),
            inputs: &inputs,
            outputs: &mut outputs,
            sink: &mut sink,
            timestep_request: &mut req,
            interner: &interner,
        };
        wrapped.processing(&mut ctx);
        assert!(outputs[0][0].value.as_f64().is_nan());
    }

    #[test]
    fn corrupt_log_appends_events_still_held() {
        // With a hold of one at probability 1, the first event is held,
        // the second finds the hold full and flushes it, and the third is
        // still held when the log ends.
        let i = Interner::new();
        let inj = FaultInjector::new(FaultPlan::new().with_seed(1).with_reorder_events(1.0));
        let out = inj.corrupt_log(&sample_log(3, &i), &i);
        assert_eq!(lines(&out), [5, 4, 6], "no event lost to the hold");
    }

    #[test]
    fn faulty_events_loses_no_event_to_the_hold() {
        // At probability 1 with a hold of one, every activation's single
        // tap event is held; the end of the activation delivers it, so a
        // run of five activations records five events, as `corrupt_log`
        // of five events returns five.
        use crate::cluster::Cluster;
        use crate::components::ParallelPrint;
        use crate::module::RecordingSink;
        use crate::sim::Simulator;
        use crate::DefSite;

        let plan = FaultPlan::new().with_seed(1).with_reorder_events(1.0);
        let mut c = Cluster::new("top");
        let src = FnSource::new("src", SimTime::from_us(1), |_| Value::Double(1.0));
        let src = c.add_module(Box::new(src)).unwrap();
        let tap = ParallelPrint::new("pp", DefSite::new("top", 76));
        let tap = c
            .add_module(Box::new(FaultyEvents::new(Box::new(tap), plan.clone())))
            .unwrap();
        c.connect(src, "op_out", tap, "tdf_i").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        let mut sink = RecordingSink::new();
        sim.run_periods(5, &mut sink).unwrap();
        assert_eq!(sink.events.len(), 5, "the hold is delivered");

        let i = Interner::new();
        let offline = FaultInjector::new(plan).corrupt_log(&sample_log(5, &i), &i);
        assert_eq!(offline.len(), 5);
    }
}
