//! The TDF simulation kernel: executes a [`Cluster`]'s static schedule,
//! moves samples (with provenance) across signals, and supports dynamic TDF
//! timestep changes with rescheduling at cluster-period boundaries.

use std::cell::Cell;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::cluster::{Cluster, ModuleId, Netlist};
use crate::error::{Result, TdfError};
use crate::intern::Sym;
use crate::module::{Event, EventSink, ProcessingCtx};
use crate::schedule::{compute_schedule, Schedule};
use crate::time::SimTime;
use crate::value::Sample;

static SIM_ACTIVATIONS: obs::Counter = obs::Counter::new("sim.activations");
static SIM_PERIODS: obs::Counter = obs::Counter::new("sim.periods");
static SIM_SAMPLES: obs::Counter = obs::Counter::new("sim.samples_transferred");
static SIM_RESCHEDULES: obs::Counter = obs::Counter::new("sim.reschedules");

/// Counters reported after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total module activations executed.
    pub activations: u64,
    /// Cluster periods completed.
    pub periods: u64,
    /// Samples moved across signals.
    pub samples_transferred: u64,
    /// Dynamic-TDF reschedules performed.
    pub reschedules: u64,
}

/// Budget caps for a bounded simulation run ([`Simulator::run_with_limits`]).
///
/// Every field defaults to `None` (unbounded); an all-`None` limit set takes
/// the exact same code path as [`Simulator::run`], so healthy runs pay
/// nothing. Bounds are checked *cooperatively between module activations*:
/// a module whose `processing()` body stalls is detected at its next firing
/// boundary, not mid-activation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunLimits {
    /// Abort once the simulator's cumulative activation count reaches this.
    pub max_activations: Option<u64>,
    /// Abort once the run has emitted this many instrumentation events.
    pub max_events: Option<u64>,
    /// Abort once the run has consumed this much wall-clock time.
    pub wall_budget: Option<Duration>,
    /// Abort once wall clock passes this absolute instant — the
    /// cancellation hook for callers that share one deadline across many
    /// runs (a served request maps its deadline here, so a runaway
    /// testcase hands its worker back instead of occupying it). Checked
    /// cooperatively between module activations, like `wall_budget`.
    pub deadline: Option<Instant>,
}

impl RunLimits {
    /// No limits at all — equivalent to [`Simulator::run`].
    pub fn none() -> Self {
        RunLimits::default()
    }

    /// Caps cumulative module activations (builder style).
    pub fn with_max_activations(mut self, n: u64) -> Self {
        self.max_activations = Some(n);
        self
    }

    /// Caps instrumentation events emitted by this run (builder style).
    pub fn with_max_events(mut self, n: u64) -> Self {
        self.max_events = Some(n);
        self
    }

    /// Caps wall-clock time for this run (builder style).
    pub fn with_wall_budget(mut self, budget: Duration) -> Self {
        self.wall_budget = Some(budget);
        self
    }

    /// Cancels the run once wall clock reaches `deadline` (builder style).
    /// Unlike [`RunLimits::with_wall_budget`], the bound is absolute, so
    /// the same limits value enforces one shared deadline across a whole
    /// batch of runs.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// True when no bound is set (the zero-cost fast path applies).
    pub fn is_unlimited(&self) -> bool {
        self.max_activations.is_none()
            && self.max_events.is_none()
            && self.wall_budget.is_none()
            && self.deadline.is_none()
    }
}

/// Counts events flowing to the wrapped sink so [`RunLimits::max_events`]
/// can be enforced without touching the sink implementations themselves.
/// Both entry points are forwarded, so compact-recording sinks (e.g.
/// [`crate::CompactRecordingSink`]) keep their allocation-free fast path
/// when wrapped.
struct CountingSink<'a> {
    inner: &'a mut dyn EventSink,
    recorded: &'a Cell<u64>,
}

impl EventSink for CountingSink<'_> {
    fn record(&mut self, event: Event) {
        self.recorded.set(self.recorded.get() + 1);
        self.inner.record(event);
    }

    fn record_compact(&mut self, event: crate::CompactEvent, interner: &crate::Interner) {
        self.recorded.set(self.recorded.get() + 1);
        self.inner.record_compact(event, interner);
    }

    // Sample observations are forwarded *uncounted*: they are monitor
    // input, not instrumentation events, so attaching monitors must not
    // change when `max_events` trips (degradation behaviour stays
    // byte-identical with and without assertions).
    fn wants_samples(&self) -> bool {
        self.inner.wants_samples()
    }

    fn record_sample(&mut self, time: SimTime, signal: crate::Sym, sample: &Sample) {
        self.inner.record_sample(time, signal, sample);
    }
}

/// One module's entry in the firing plan compiled at elaboration: its
/// wiring, the sample scratch its activations reuse (so a warm firing
/// neither allocates nor searches the netlist), its local time and its
/// pending dynamic-TDF timestep request.
struct Firing {
    /// Per in-port: the driving connection (`None` = open input) and rate.
    inputs: Vec<(Option<usize>, usize)>,
    /// Per out-port wiring and state.
    outputs: Vec<OutPort>,
    /// Samples handed to `processing()`, per in-port and per out-port.
    in_samples: Vec<Vec<Sample>>,
    out_samples: Vec<Vec<Sample>>,
    time: SimTime,
    request: Option<SimTime>,
}

struct OutPort {
    /// Connections this port fans out to.
    fanout: Vec<usize>,
    rate: usize,
    /// Last sample written; repeated when an activation leaves the port
    /// unwritten (the SystemC-AMS out-port buffer persists across
    /// activations). A port that was *never* written yields undefined
    /// samples instead.
    last: Option<Sample>,
    /// Interned `"{module}.{port}"` signal name, filled on the first sample
    /// observation (runs whose sink never wants samples intern nothing).
    sym: Option<Sym>,
}

/// An elaborated, executable TDF cluster.
pub struct Simulator {
    cluster: Cluster,
    schedule: Schedule,
    /// Timestep anchors as declared at elaboration (dynamic TDF may
    /// overwrite the live specs; [`Simulator::reset`] restores these).
    original_timesteps: Vec<Option<SimTime>>,
    /// One FIFO per connection.
    buffers: Vec<VecDeque<Sample>>,
    /// The firing plan, one entry per module.
    plan: Vec<Firing>,
    now: SimTime,
    stats: SimStats,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cluster", &self.cluster)
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Simulator {
    /// Elaborates `cluster`: validates bindings, computes the static
    /// schedule, fills delay tokens and initializes every module.
    ///
    /// # Errors
    ///
    /// Returns an error for unbound inputs (unless the cluster allows open
    /// inputs), rate/timestep inconsistencies or schedule deadlock.
    pub fn new(mut cluster: Cluster) -> Result<Simulator> {
        if !cluster.open_inputs_allowed() {
            if let Some((m, p)) = cluster.open_inputs().first().copied() {
                let module = cluster.module_name(m).to_owned();
                let port = cluster.module_spec(m).in_ports[p].name.clone();
                return Err(TdfError::UnboundInput { module, port });
            }
        }
        let schedule = compute_schedule(&cluster)?;
        let buffers = Self::fresh_buffers(&cluster);
        let plan = Self::compile_plan(&cluster);
        let original_timesteps = cluster.entries.iter().map(|e| e.spec.timestep).collect();
        for e in &mut cluster.entries {
            e.module.initialize();
        }
        Ok(Simulator {
            cluster,
            schedule,
            original_timesteps,
            buffers,
            plan,
            now: SimTime::ZERO,
            stats: SimStats::default(),
        })
    }

    fn compile_plan(cluster: &Cluster) -> Vec<Firing> {
        let mut plan: Vec<Firing> = (cluster.entries.iter())
            .map(|e| {
                let (ins, outs) = (&e.spec.in_ports, &e.spec.out_ports);
                Firing {
                    inputs: ins.iter().map(|p| (None, p.rate)).collect(),
                    outputs: (outs.iter())
                        .map(|p| OutPort {
                            fanout: Vec::new(),
                            rate: p.rate,
                            last: None,
                            sym: None,
                        })
                        .collect(),
                    in_samples: ins.iter().map(|p| Vec::with_capacity(p.rate)).collect(),
                    out_samples: outs.iter().map(|p| Vec::with_capacity(p.rate)).collect(),
                    time: SimTime::ZERO,
                    request: None,
                }
            })
            .collect();
        for (ci, c) in cluster.connections().iter().enumerate() {
            plan[c.to.0.index()].inputs[c.to.1].0 = Some(ci);
            plan[c.from.0.index()].outputs[c.from.1].fanout.push(ci);
        }
        plan
    }

    fn fresh_buffers(cluster: &Cluster) -> Vec<VecDeque<Sample>> {
        cluster
            .connections()
            .iter()
            .map(|c| {
                let out_spec = &cluster.module_spec(c.from.0).out_ports[c.from.1];
                let in_spec = &cluster.module_spec(c.to.0).in_ports[c.to.1];
                // Tokens from the writer side carry its initial value, then
                // the reader side's (matching SystemC-AMS, where each port's
                // set_initial_value applies to its own delay samples).
                (0..out_spec.delay)
                    .map(|_| Sample::new(out_spec.initial))
                    .chain((0..in_spec.delay).map(|_| Sample::new(in_spec.initial)))
                    .collect()
            })
            .collect()
    }

    /// The cluster's binding information.
    pub fn netlist(&self) -> Netlist {
        self.cluster.netlist()
    }

    /// The currently active static schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Current simulation time (start of the next period).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Rewinds the simulator to its post-elaboration state: time zero,
    /// fresh delay tokens, cleared out-port buffers, modules
    /// re-initialised, and the originally-declared timestep anchors
    /// restored (undoing any dynamic-TDF changes).
    ///
    /// # Errors
    ///
    /// Propagates schedule recomputation errors (none expected, since the
    /// original anchors elaborated once already).
    pub fn reset(&mut self) -> Result<()> {
        for (e, ts) in self
            .cluster
            .entries
            .iter_mut()
            .zip(&self.original_timesteps)
        {
            e.spec.timestep = *ts;
        }
        self.schedule = compute_schedule(&self.cluster)?;
        self.buffers = Self::fresh_buffers(&self.cluster);
        self.plan = Self::compile_plan(&self.cluster);
        for e in &mut self.cluster.entries {
            e.module.initialize();
        }
        self.now = SimTime::ZERO;
        self.stats = SimStats::default();
        Ok(())
    }

    /// Runs whole cluster periods until `duration` is covered.
    ///
    /// # Errors
    ///
    /// Propagates module output-rate violations and reschedule failures.
    pub fn run(&mut self, duration: SimTime, sink: &mut dyn EventSink) -> Result<SimStats> {
        let target = self.now + duration;
        self.drive(sink, |sim| sim.now < target, |_| Ok(()))
    }

    /// Runs exactly `n` cluster periods.
    ///
    /// # Errors
    ///
    /// Propagates module output-rate violations and reschedule failures.
    pub fn run_periods(&mut self, n: u64, sink: &mut dyn EventSink) -> Result<SimStats> {
        let end = self.stats.periods + n;
        self.drive(sink, |sim| sim.stats.periods < end, |_| Ok(()))
    }

    /// Runs whole cluster periods until `duration` is covered, aborting
    /// early when any bound in `limits` trips. With an unlimited `limits`
    /// this delegates to [`Simulator::run`] and is exactly as fast.
    ///
    /// Partial progress is preserved: time, buffers and stats reflect every
    /// activation that completed before the bound tripped, so a caller can
    /// still harvest whatever the sink recorded.
    ///
    /// # Errors
    ///
    /// Returns [`TdfError::ActivationLimit`], [`TdfError::EventLimit`] or
    /// [`TdfError::DeadlineExceeded`] when the corresponding budget is
    /// exhausted, and propagates the same errors as [`Simulator::run`].
    pub fn run_with_limits(
        &mut self,
        duration: SimTime,
        sink: &mut dyn EventSink,
        limits: &RunLimits,
    ) -> Result<SimStats> {
        if limits.is_unlimited() {
            return self.run(duration, sink);
        }
        let started = Instant::now();
        // Relative budget and absolute deadline collapse into one check:
        // whichever instant comes first wins, and the error reports the
        // effective wall budget that produced it.
        let relative = limits.wall_budget.map(|b| (started + b, b));
        let absolute = limits
            .deadline
            .map(|at| (at, at.saturating_duration_since(started)));
        let deadline = match (relative, absolute) {
            (Some(r), Some(a)) => Some(if r.0 <= a.0 { r } else { a }),
            (r, a) => r.or(a),
        };
        let recorded = Cell::new(0);
        let mut counting = CountingSink {
            inner: sink,
            recorded: &recorded,
        };
        let target = self.now + duration;
        self.drive(
            &mut counting,
            |sim| sim.now < target,
            |stats| match (limits.max_activations, limits.max_events, deadline) {
                (Some(limit), _, _) if stats.activations >= limit => {
                    Err(TdfError::ActivationLimit { limit })
                }
                (_, Some(limit), _) if recorded.get() >= limit => {
                    Err(TdfError::EventLimit { limit })
                }
                (_, _, Some((at, budget))) if Instant::now() >= at => {
                    Err(TdfError::DeadlineExceeded { budget })
                }
                _ => Ok(()),
            },
        )
    }

    /// The run loop: whole cluster periods while `more` holds, `check`ing
    /// the stats before every firing. The counter deltas are published
    /// even when the run fails.
    fn drive(
        &mut self,
        sink: &mut dyn EventSink,
        mut more: impl FnMut(&Self) -> bool,
        check: impl Fn(&SimStats) -> Result<()>,
    ) -> Result<SimStats> {
        let _span = obs::span("sim.run");
        let before = self.stats;
        let result = (|| {
            while more(self) {
                for i in 0..self.schedule.firings.len() {
                    check(&self.stats)?;
                    self.fire(self.schedule.firings[i], sink)?;
                }
                self.now += self.schedule.period;
                self.stats.periods += 1;
                self.apply_requests()?;
            }
            Ok(self.stats)
        })();
        self.record_stat_deltas(before);
        result
    }

    /// Publishes the step loop's counter deltas since `before` to the
    /// observability registry (one bulk add per run, so the per-firing hot
    /// path stays untouched).
    fn record_stat_deltas(&self, before: SimStats) {
        if !obs::metrics_enabled() {
            return;
        }
        let s = self.stats;
        SIM_ACTIVATIONS.add(s.activations - before.activations);
        SIM_PERIODS.add(s.periods - before.periods);
        SIM_SAMPLES.add(s.samples_transferred - before.samples_transferred);
        SIM_RESCHEDULES.add(s.reschedules - before.reschedules);
    }

    /// Applies pending dynamic-TDF timestep requests: the requesting module
    /// becomes the (sole) timing anchor of the cluster and the schedule is
    /// recomputed. Multiple simultaneous conflicting requests surface as a
    /// [`TdfError::TimestepConflict`].
    fn apply_requests(&mut self) -> Result<()> {
        if self.plan.iter().all(|f| f.request.is_none()) {
            return Ok(());
        }
        for (e, f) in self.cluster.entries.iter_mut().zip(&mut self.plan) {
            e.spec.timestep = f.request.take();
        }
        self.schedule = compute_schedule(&self.cluster)?;
        self.stats.reschedules += 1;
        Ok(())
    }

    fn fire(&mut self, m: usize, sink: &mut dyn EventSink) -> Result<()> {
        let (f, mid) = (&mut self.plan[m], ModuleId(m));
        for (samples, &(conn, rate)) in f.in_samples.iter_mut().zip(&f.inputs) {
            samples.clear();
            match conn {
                Some(ci) => {
                    let buf = &mut self.buffers[ci];
                    debug_assert!(
                        buf.len() >= rate,
                        "admissible schedule guarantees enough samples"
                    );
                    samples.extend(
                        (0..rate).map(|_| buf.pop_front().unwrap_or_else(Sample::undefined)),
                    );
                }
                // Open input: undefined samples.
                None => samples.resize(rate, Sample::undefined()),
            }
        }
        f.out_samples.iter_mut().for_each(Vec::clear);

        let (time, timestep) = (f.time, self.schedule.timesteps[m]);
        let mut ctx = ProcessingCtx {
            time,
            timestep,
            inputs: &f.in_samples,
            outputs: &mut f.out_samples,
            sink,
            timestep_request: &mut f.request,
            interner: &self.cluster.interner,
        };
        self.cluster.entries[m].module.processing(&mut ctx);
        f.time += timestep;
        self.stats.activations += 1;

        // Distribute outputs.
        for (p, (produced, port)) in f.out_samples.iter_mut().zip(&mut f.outputs).enumerate() {
            let rate = port.rate;
            if produced.len() > rate {
                return Err(TdfError::TooManySamples {
                    module: self.cluster.module_name(mid).to_owned(),
                    port: self.cluster.module_spec(mid).out_ports[p].name.clone(),
                    got: produced.len(),
                    rate,
                });
            }
            // Unwritten positions repeat the port's last written sample
            // (persistent out-port buffer); a never-written port delivers
            // undefined samples — the §VI "use without definition" bug.
            if let Some(&s) = produced.last() {
                port.last = Some(s);
            }
            produced.resize(rate, port.last.unwrap_or_else(Sample::undefined));
            // Monitor tap: one observation per produced sample per port,
            // independent of fan-out (unconnected ports are observable
            // too). Sample k of a rate-r activation at time t is stamped
            // t + k·(timestep/r); the u128 widening keeps the sub-step
            // exact and overflow-free for any representable timestep.
            if sink.wants_samples() {
                let cluster = &self.cluster;
                let sym = *port.sym.get_or_insert_with(|| {
                    let (name, spec) = (cluster.module_name(mid), cluster.module_spec(mid));
                    let signal = format!("{name}.{}", spec.out_ports[p].name);
                    cluster.interner.intern(&signal)
                });
                let ts_fs = timestep.as_fs() as u128;
                for (k, s) in produced.iter().enumerate() {
                    let offset = ((ts_fs * k as u128) / rate as u128) as u64;
                    sink.record_sample(time.saturating_add(SimTime::from_fs(offset)), sym, s);
                }
            }
            for &ci in &port.fanout {
                self.buffers[ci].extend(produced.iter().copied());
            }
            self.stats.samples_transferred += (port.fanout.len() * rate) as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Event, ModuleSpec, NullSink, PortSpec, RecordingSink, TdfModule};
    use crate::value::{Provenance, Value};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Emits an increasing ramp.
    struct Counter {
        name: String,
        next: i64,
    }

    impl TdfModule for Counter {
        fn name(&self) -> &str {
            &self.name
        }
        fn spec(&self) -> ModuleSpec {
            ModuleSpec::new()
                .output(PortSpec::new("op_y"))
                .with_timestep(SimTime::from_us(1))
        }
        fn initialize(&mut self) {
            self.next = 0;
        }
        fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
            let v = self.next;
            self.next += 1;
            let prov = Provenance::new("op_y", 1, self.name.as_str());
            ctx.write(0, Sample::stamped(v, ctx.interner().intern_prov(&prov)));
        }
    }

    /// Records every input sample.
    struct Collector {
        name: String,
        timestep: Option<SimTime>,
        seen: Rc<RefCell<Vec<Sample>>>,
    }

    impl TdfModule for Collector {
        fn name(&self) -> &str {
            &self.name
        }
        fn spec(&self) -> ModuleSpec {
            let mut spec = ModuleSpec::new().input(PortSpec::new("ip_x"));
            spec.timestep = self.timestep;
            spec
        }
        fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
            self.seen.borrow_mut().push(*ctx.input1(0));
        }
    }

    /// Emits a def event the way instrumented modules do.
    fn emit_def(ctx: &mut ProcessingCtx<'_>, model: &str, var: &str, line: u32) {
        let (model, var) = (model.into(), var.into());
        let time = ctx.time();
        let event = Event::Def {
            time,
            model,
            var,
            line,
        };
        let compact = crate::CompactEvent::from_event(&event, ctx.interner());
        ctx.emit_compact(compact);
    }

    fn counter(name: &str) -> Box<Counter> {
        Box::new(Counter {
            name: name.into(),
            next: 0,
        })
    }

    fn collector(name: &str) -> (Box<Collector>, Rc<RefCell<Vec<Sample>>>) {
        collector_with_ts(name, None)
    }

    fn collector_with_ts(
        name: &str,
        timestep: Option<SimTime>,
    ) -> (Box<Collector>, Rc<RefCell<Vec<Sample>>>) {
        let seen = Rc::new(RefCell::new(Vec::new()));
        (
            Box::new(Collector {
                name: name.into(),
                timestep,
                seen: seen.clone(),
            }),
            seen,
        )
    }

    #[test]
    fn samples_flow_with_provenance() {
        let mut c = Cluster::new("top");
        let a = c.add_module(counter("src")).unwrap();
        let (col, seen) = collector("dst");
        let b = c.add_module(col).unwrap();
        c.connect(a, "op_y", b, "ip_x").unwrap();
        let interner = c.interner().clone();
        let mut sim = Simulator::new(c).unwrap();
        sim.run_periods(3, &mut NullSink).unwrap();
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].value, Value::Int(0));
        assert_eq!(seen[2].value, Value::Int(2));
        assert_eq!(
            interner.resolve_prov(seen[0].prov),
            Some(Provenance::new("op_y", 1, "src"))
        );
    }

    #[test]
    fn unbound_input_rejected_unless_allowed() {
        let mut c = Cluster::new("top");
        let (col, _) = collector("dst");
        c.add_module(col).unwrap();
        assert!(matches!(
            Simulator::new(c),
            Err(TdfError::UnboundInput { .. })
        ));

        let mut c2 = Cluster::new("top");
        c2.allow_open_inputs(true);
        let (col2, seen) = collector_with_ts("dst", Some(SimTime::from_us(1)));
        c2.add_module(col2).unwrap();
        let mut sim = Simulator::new(c2).unwrap();
        sim.run_periods(1, &mut NullSink).unwrap();
        assert!(!seen.borrow()[0].defined, "open input reads undefined");
    }

    #[test]
    fn unwritten_output_pads_undefined() {
        struct Silent;
        impl TdfModule for Silent {
            fn name(&self) -> &str {
                "silent"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(1))
            }
            fn processing(&mut self, _ctx: &mut ProcessingCtx<'_>) {}
        }
        let mut c = Cluster::new("top");
        let a = c.add_module(Box::new(Silent)).unwrap();
        let (col, seen) = collector("dst");
        let b = c.add_module(col).unwrap();
        c.connect(a, "op_y", b, "ip_x").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        sim.run_periods(2, &mut NullSink).unwrap();
        assert!(seen.borrow().iter().all(|s| !s.defined));
    }

    #[test]
    fn over_production_is_an_error() {
        struct Chatty;
        impl TdfModule for Chatty {
            fn name(&self) -> &str {
                "chatty"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(1))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                ctx.write(0, Sample::new(1.0));
                ctx.write(0, Sample::new(2.0));
            }
        }
        let mut c = Cluster::new("top");
        let a = c.add_module(Box::new(Chatty)).unwrap();
        let (col, _) = collector("dst");
        let b = c.add_module(col).unwrap();
        c.connect(a, "op_y", b, "ip_x").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        let err = sim.run_periods(1, &mut NullSink).unwrap_err();
        assert!(matches!(err, TdfError::TooManySamples { .. }));
    }

    #[test]
    fn delay_tokens_shift_the_stream() {
        let mut c = Cluster::new("top");
        let a = c.add_module(counter("src")).unwrap();
        let (mut col, seen) = collector("dst");
        // Reader with one sample of input delay: sees an initial default 0.
        struct DelayedSpec(Box<Collector>);
        impl TdfModule for DelayedSpec {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new().input(PortSpec::new("ip_x").with_delay(1))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                self.0.processing(ctx);
            }
        }
        col.name = "dst".into();
        let b = c.add_module(Box::new(DelayedSpec(col))).unwrap();
        c.connect(a, "op_y", b, "ip_x").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        sim.run_periods(3, &mut NullSink).unwrap();
        let seen = seen.borrow();
        // First value is the delay token (default 0.0, no provenance), then
        // the counter stream 0, 1, ...
        assert_eq!(seen[0].value, Value::Double(0.0));
        assert!(seen[0].prov.is_none());
        assert_eq!(seen[1].value, Value::Int(0));
        assert_eq!(seen[2].value, Value::Int(1));
    }

    #[test]
    fn multirate_fan_in() {
        // src rate 2 out; dst rate 1 in -> dst fires twice per src firing.
        struct Two;
        impl TdfModule for Two {
            fn name(&self) -> &str {
                "two"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y").with_rate(2))
                    .with_timestep(SimTime::from_us(2))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                ctx.write(0, Sample::new(10.0));
                ctx.write(0, Sample::new(20.0));
            }
        }
        let mut c = Cluster::new("top");
        let a = c.add_module(Box::new(Two)).unwrap();
        let (col, seen) = collector("dst");
        let b = c.add_module(col).unwrap();
        c.connect(a, "op_y", b, "ip_x").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        assert_eq!(sim.schedule().repetitions, vec![1, 2]);
        assert_eq!(sim.schedule().timesteps[1], SimTime::from_us(1));
        sim.run_periods(1, &mut NullSink).unwrap();
        let vals: Vec<f64> = seen.borrow().iter().map(|s| s.value.as_f64()).collect();
        assert_eq!(vals, vec![10.0, 20.0]);
    }

    #[test]
    fn dynamic_timestep_request_reschedules() {
        struct Shrink {
            fired: u64,
        }
        impl TdfModule for Shrink {
            fn name(&self) -> &str {
                "shrink"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(4))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                ctx.write(0, Sample::new(1.0));
                self.fired += 1;
                if self.fired == 1 {
                    ctx.request_timestep(SimTime::from_us(1));
                }
            }
        }
        let mut c = Cluster::new("top");
        let a = c.add_module(Box::new(Shrink { fired: 0 })).unwrap();
        let (col, _) = collector("dst");
        let b = c.add_module(col).unwrap();
        c.connect(a, "op_y", b, "ip_x").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        assert_eq!(sim.schedule().period, SimTime::from_us(4));
        sim.run_periods(1, &mut NullSink).unwrap();
        assert_eq!(sim.schedule().period, SimTime::from_us(1));
        assert_eq!(sim.stats().reschedules, 1);
        // Running 4 more microseconds now takes 4 periods.
        sim.run(SimTime::from_us(4), &mut NullSink).unwrap();
        assert_eq!(sim.stats().periods, 5);
    }

    #[test]
    fn events_reach_the_sink() {
        struct Emitter;
        impl TdfModule for Emitter {
            fn name(&self) -> &str {
                "em"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(1))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                emit_def(ctx, "em", "x", 7);
                ctx.write(0, Sample::new(0.0));
            }
        }
        let mut c = Cluster::new("top");
        c.add_module(Box::new(Emitter)).unwrap();
        let mut sim = Simulator::new(c).unwrap();
        let mut sink = RecordingSink::new();
        sim.run_periods(2, &mut sink).unwrap();
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].line(), 7);
        if let Event::Def { time, .. } = &sink.events[1] {
            assert_eq!(*time, SimTime::from_us(1), "second activation at 1us");
        } else {
            panic!("expected def event");
        }
    }

    #[test]
    fn unwritten_port_repeats_last_value_once_written() {
        /// Writes 7 on the first activation only.
        struct Once {
            fired: bool,
        }
        impl TdfModule for Once {
            fn name(&self) -> &str {
                "once"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(1))
            }
            fn initialize(&mut self) {
                self.fired = false;
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                if !self.fired {
                    self.fired = true;
                    let prov = ctx
                        .interner()
                        .intern_prov(&Provenance::new("op_y", 3, "once"));
                    ctx.write(0, Sample::stamped(7.0, prov));
                }
            }
        }
        let mut c = Cluster::new("top");
        let a = c.add_module(Box::new(Once { fired: false })).unwrap();
        let (col, seen) = collector("dst");
        let b = c.add_module(col).unwrap();
        c.connect(a, "op_y", b, "ip_x").unwrap();
        let interner = c.interner().clone();
        let mut sim = Simulator::new(c).unwrap();
        sim.run_periods(3, &mut NullSink).unwrap();
        let seen = seen.borrow();
        // All three samples defined with the same value and provenance:
        // the out-port buffer persists across activations.
        for s in seen.iter() {
            assert!(s.defined);
            assert_eq!(s.value, Value::Double(7.0));
            assert_eq!(
                interner.resolve_prov(s.prov),
                Some(Provenance::new("op_y", 3, "once"))
            );
        }
    }

    #[test]
    fn run_covers_duration() {
        let mut c = Cluster::new("top");
        c.add_module(counter("src")).unwrap();
        let mut sim = Simulator::new(c).unwrap();
        sim.run(SimTime::from_us(10), &mut NullSink).unwrap();
        assert_eq!(sim.stats().periods, 10);
        assert_eq!(sim.now(), SimTime::from_us(10));
        assert_eq!(sim.stats().activations, 10);
    }

    #[test]
    fn unlimited_limits_match_plain_run() {
        let build = || {
            let mut c = Cluster::new("top");
            let a = c.add_module(counter("src")).unwrap();
            let (col, seen) = collector("dst");
            let b = c.add_module(col).unwrap();
            c.connect(a, "op_y", b, "ip_x").unwrap();
            (Simulator::new(c).unwrap(), seen)
        };
        let (mut plain, seen_plain) = build();
        plain.run(SimTime::from_us(5), &mut NullSink).unwrap();
        let (mut bounded, seen_bounded) = build();
        bounded
            .run_with_limits(SimTime::from_us(5), &mut NullSink, &RunLimits::none())
            .unwrap();
        assert_eq!(plain.stats(), bounded.stats());
        assert_eq!(*seen_plain.borrow(), *seen_bounded.borrow());
    }

    #[test]
    fn activation_limit_trips_with_partial_progress() {
        let mut c = Cluster::new("top");
        c.add_module(counter("src")).unwrap();
        let mut sim = Simulator::new(c).unwrap();
        let limits = RunLimits::none().with_max_activations(3);
        let err = sim
            .run_with_limits(SimTime::from_us(10), &mut NullSink, &limits)
            .unwrap_err();
        assert_eq!(err, TdfError::ActivationLimit { limit: 3 });
        assert_eq!(sim.stats().activations, 3, "partial progress preserved");
    }

    #[test]
    fn event_limit_trips_on_chatty_instrumentation() {
        struct Noisy;
        impl TdfModule for Noisy {
            fn name(&self) -> &str {
                "noisy"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(1))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                emit_def(ctx, "noisy", "x", 1);
                ctx.write(0, Sample::new(0.0));
            }
        }
        let mut c = Cluster::new("top");
        c.add_module(Box::new(Noisy)).unwrap();
        let mut sim = Simulator::new(c).unwrap();
        let mut sink = RecordingSink::new();
        let limits = RunLimits::none().with_max_events(4);
        let err = sim
            .run_with_limits(SimTime::from_us(100), &mut sink, &limits)
            .unwrap_err();
        assert_eq!(err, TdfError::EventLimit { limit: 4 });
        assert_eq!(sink.events.len(), 4, "recorded events survive the abort");
    }

    #[test]
    fn absolute_deadline_cancels_a_run() {
        struct Slow;
        impl TdfModule for Slow {
            fn name(&self) -> &str {
                "slow"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(1))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                std::thread::sleep(Duration::from_millis(5));
                ctx.write(0, Sample::new(0.0));
            }
        }
        let mut c = Cluster::new("top");
        c.add_module(Box::new(Slow)).unwrap();
        let mut sim = Simulator::new(c).unwrap();
        // A deadline already in the near past cancels at the first firing
        // boundary; the reported budget saturates to zero.
        let limits = RunLimits::none().with_deadline(Instant::now());
        assert!(!limits.is_unlimited());
        let err = sim
            .run_with_limits(SimTime::from_us(1000), &mut NullSink, &limits)
            .unwrap_err();
        assert!(matches!(err, TdfError::DeadlineExceeded { .. }));
        // The tighter of budget and deadline wins.
        let mut sim2 = Simulator::new({
            let mut c = Cluster::new("top");
            c.add_module(Box::new(Slow)).unwrap();
            c
        })
        .unwrap();
        let limits = RunLimits::none()
            .with_wall_budget(Duration::from_secs(3600))
            .with_deadline(Instant::now() + Duration::from_millis(2));
        let err = sim2
            .run_with_limits(SimTime::from_us(1000), &mut NullSink, &limits)
            .unwrap_err();
        assert!(matches!(
            err,
            TdfError::DeadlineExceeded { budget } if budget < Duration::from_secs(3600)
        ));
    }

    /// Buffers every sample observation the kernel taps out.
    struct SampleTap {
        seen: Vec<(SimTime, crate::Sym, f64, bool)>,
    }
    impl EventSink for SampleTap {
        fn record(&mut self, _event: Event) {}
        fn wants_samples(&self) -> bool {
            true
        }
        fn record_sample(&mut self, time: SimTime, signal: crate::Sym, sample: &Sample) {
            self.seen
                .push((time, signal, sample.value.as_f64(), sample.defined));
        }
    }

    #[test]
    fn sample_tap_observes_every_out_port_sample() {
        // A rate-2 producer: samples land at t and t + timestep/2, and the
        // tap sees them even though the port also fans out normally.
        struct Two;
        impl TdfModule for Two {
            fn name(&self) -> &str {
                "two"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y").with_rate(2))
                    .with_timestep(SimTime::from_us(2))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                ctx.write(0, Sample::new(10.0));
                ctx.write(0, Sample::new(20.0));
            }
        }
        let mut c = Cluster::new("top");
        let a = c.add_module(Box::new(Two)).unwrap();
        let (col, _) = collector("dst");
        let b = c.add_module(col).unwrap();
        c.connect(a, "op_y", b, "ip_x").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        let mut tap = SampleTap { seen: Vec::new() };
        sim.run_periods(2, &mut tap).unwrap();
        let producer: Vec<_> = tap.seen.iter().filter(|(_, _, v, _)| *v >= 10.0).collect();
        assert_eq!(producer.len(), 4, "2 samples x 2 periods");
        assert_eq!(producer[0].0, SimTime::ZERO);
        assert_eq!(producer[1].0, SimTime::from_us(1), "sub-step of rate 2");
        assert_eq!(producer[2].0, SimTime::from_us(2));
        assert_eq!(producer[0].2, 10.0);
        assert_eq!(producer[1].2, 20.0);
        // Every observation names the producing port.
        let sym = producer[0].1;
        assert!(producer.iter().all(|(_, s, _, _)| *s == sym));
    }

    #[test]
    fn sample_observations_do_not_count_toward_event_limits() {
        struct Noisy2;
        impl TdfModule for Noisy2 {
            fn name(&self) -> &str {
                "noisy"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(1))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                emit_def(ctx, "noisy", "x", 1);
                ctx.write(0, Sample::new(0.0));
            }
        }
        let mut c = Cluster::new("top");
        c.add_module(Box::new(Noisy2)).unwrap();
        let mut sim = Simulator::new(c).unwrap();
        let mut tap = SampleTap { seen: Vec::new() };
        let limits = RunLimits::none().with_max_events(4);
        let err = sim
            .run_with_limits(SimTime::from_us(100), &mut tap, &limits)
            .unwrap_err();
        assert_eq!(
            err,
            TdfError::EventLimit { limit: 4 },
            "the budget trips on instrumentation events exactly as without a tap"
        );
        assert_eq!(
            tap.seen.len(),
            4,
            "one tapped sample per activation that ran"
        );
    }

    #[test]
    fn wall_budget_trips_on_a_stalling_module() {
        struct Stall;
        impl TdfModule for Stall {
            fn name(&self) -> &str {
                "stall"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(1))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                std::thread::sleep(Duration::from_millis(25));
                ctx.write(0, Sample::new(0.0));
            }
        }
        let mut c = Cluster::new("top");
        c.add_module(Box::new(Stall)).unwrap();
        let mut sim = Simulator::new(c).unwrap();
        let limits = RunLimits::none().with_wall_budget(Duration::from_millis(5));
        let err = sim
            .run_with_limits(SimTime::from_us(1000), &mut NullSink, &limits)
            .unwrap_err();
        assert!(matches!(err, TdfError::DeadlineExceeded { .. }));
        assert!(
            sim.stats().activations < 1000,
            "the deadline aborted the run long before the duration was covered"
        );
    }
}

#[cfg(test)]
mod reset_tests {
    use super::*;
    use crate::module::{ModuleSpec, NullSink, PortSpec, TdfModule};
    use crate::value::Sample;

    struct Counter2 {
        next: i64,
    }
    impl TdfModule for Counter2 {
        fn name(&self) -> &str {
            "ctr"
        }
        fn spec(&self) -> ModuleSpec {
            ModuleSpec::new()
                .output(PortSpec::new("op_y"))
                .with_timestep(SimTime::from_us(4))
        }
        fn initialize(&mut self) {
            self.next = 0;
        }
        fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
            ctx.write(0, Sample::new(self.next));
            self.next += 1;
            if self.next == 2 {
                ctx.request_timestep(SimTime::from_us(1));
            }
        }
    }

    #[test]
    fn reset_rewinds_time_state_and_timesteps() {
        let mut c = Cluster::new("top");
        let a = c.add_module(Box::new(Counter2 { next: 7 })).unwrap();
        let (probe, buf) = crate::components::Probe::new("p");
        let p = c.add_module(Box::new(probe)).unwrap();
        c.connect(a, "op_y", p, "tdf_i").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        sim.run_periods(3, &mut NullSink).unwrap();
        assert!(sim.stats().reschedules >= 1, "dynamic TDF fired");
        assert_eq!(sim.schedule().period, SimTime::from_us(1));
        let first_run = buf.values_f64();
        assert_eq!(
            first_run[0], 0.0,
            "initialize() reset the counter at elaboration"
        );

        buf.clear();
        sim.reset().unwrap();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.stats(), SimStats::default());
        assert_eq!(
            sim.schedule().period,
            SimTime::from_us(4),
            "original anchor restored"
        );
        sim.run_periods(3, &mut NullSink).unwrap();
        assert_eq!(
            buf.values_f64()[..first_run.len().min(3)],
            first_run[..first_run.len().min(3)],
            "identical replay"
        );
    }

    /// A degraded (budget-aborted) run must not leak samples, stats or
    /// delay-line tokens into the next run: after `reset()`, replay matches
    /// a factory-fresh simulator byte for byte.
    #[test]
    fn reset_after_degraded_run_matches_fresh_simulator() {
        use crate::module::RecordingSink;

        let build = || {
            let mut c = Cluster::new("top");
            let a = c.add_module(Box::new(Counter2 { next: 7 })).unwrap();
            // A delayed probe: the connection carries a delay token, which a
            // leaky reset would leave half-consumed.
            struct DelayedProbe(crate::components::Probe);
            impl TdfModule for DelayedProbe {
                fn name(&self) -> &str {
                    self.0.name()
                }
                fn spec(&self) -> ModuleSpec {
                    ModuleSpec::new().input(PortSpec::new("tdf_i").with_delay(1))
                }
                fn class(&self) -> crate::module::ModuleClass {
                    crate::module::ModuleClass::Testbench
                }
                fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                    self.0.processing(ctx);
                }
            }
            let (probe, buf) = crate::components::Probe::new("p");
            let p = c.add_module(Box::new(DelayedProbe(probe))).unwrap();
            c.connect(a, "op_y", p, "tdf_i").unwrap();
            (Simulator::new(c).unwrap(), buf)
        };

        // Degrade: abort mid-schedule via an activation budget, leaving the
        // delay-line FIFO in a mid-period state.
        let (mut sim, buf) = build();
        let limits = RunLimits::none().with_max_activations(3);
        let err = sim
            .run_with_limits(SimTime::from_us(100), &mut NullSink, &limits)
            .unwrap_err();
        assert_eq!(err, TdfError::ActivationLimit { limit: 3 });
        assert_ne!(sim.stats(), SimStats::default());

        buf.clear();
        sim.reset().unwrap();
        assert_eq!(sim.stats(), SimStats::default(), "stats reset");
        assert_eq!(sim.now(), SimTime::ZERO);

        let mut replay_sink = RecordingSink::new();
        sim.run_periods(4, &mut replay_sink).unwrap();
        let replay_vals = buf.values_f64();
        let replay_stats = sim.stats();

        let (mut fresh, fresh_buf) = build();
        let mut fresh_sink = RecordingSink::new();
        fresh.run_periods(4, &mut fresh_sink).unwrap();

        assert_eq!(replay_vals, fresh_buf.values_f64(), "no leaked samples");
        assert_eq!(replay_stats, fresh.stats(), "no leaked stats");
        assert_eq!(replay_sink.events, fresh_sink.events, "no leaked events");
    }
}
