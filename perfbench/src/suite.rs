//! `suite-replay`: the four case-study testsuites, replayed testcase by
//! testcase against one warm session per design.
//!
//! One op is building the testcase's cluster plus `run_testcase`
//! (streamed simulate, match and monitor). Each design's pass ends with
//! `coverage()` and a Table II render; the seed shuffles the testcase
//! order of every pass. The static layers do no work here (they sit in
//! `setup_s`), the simulation layers nearly all of it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ams_models::{buck_boost, pid, sensor, window_lifter};
use dft_core::{
    render_table2, AssertionSpec, Classification, Coverage, Design, DftSession, MatchAutomaton,
    MatchMode, MonitorBank, MonitorSink, SessionArtifacts, Table2Row,
};
use stimuli::Testcase;
use tdf_sim::{Cluster, CompactRecordingSink, NullSink, Simulator};

use crate::expected::{verdict_str, Expected};
use crate::stats::{Checks, Metric, OpStats};
use crate::trace::{summarise, Span, Tracer};
use crate::{session_config, Rng};

type BuildCluster = fn(&Testcase) -> dft_core::Result<Cluster>;

/// Interleaved (`NullSink`, `MonitorSink`) replay pairs per monitored
/// testcase. The monitor tap costs a few percent of a run, so its figure
/// is a difference of two noisy times: the fastest run of each kind is
/// used, which interference from the host can only slow down.
const MONITOR_PAIRS: u64 = 8;

/// One case study: its design, testcases and cluster factory.
pub struct CaseStudy {
    /// Short key used in `expected.txt`.
    pub key: &'static str,
    /// Suite name as printed in Table II.
    pub suite_name: String,
    /// Every testcase of the suite, in suite order.
    pub testcases: Vec<Testcase>,
    /// How many of them form the suite's first iteration.
    pub iteration0: usize,
    /// Elaborates the analysable design.
    pub design: fn() -> dft_core::Result<Design>,
    /// Builds a fresh cluster for one testcase.
    pub build: BuildCluster,
    /// Assertions monitored alongside matching (PID only).
    pub assertions: Vec<AssertionSpec>,
}

/// The four case studies: sensor (with the buggy ADC), window lifter,
/// buck-boost and PID (with its assertions monitored).
pub fn case_studies() -> Vec<CaseStudy> {
    let sensor_suite = sensor::sensor_suite();
    let lifter = window_lifter::lifter_suite();
    let bb = buck_boost::bb_suite();
    vec![
        CaseStudy {
            key: "sensor",
            suite_name: sensor_suite.name.clone(),
            testcases: sensor_suite.all().to_vec(),
            iteration0: sensor_suite.size_at(0),
            design: || sensor::sensor_design(sensor::BUGGY_ADC_FULL_SCALE),
            build: |tc| {
                sensor::build_sensor_cluster(tc, sensor::BUGGY_ADC_FULL_SCALE).map(|(c, _)| c)
            },
            assertions: Vec::new(),
        },
        CaseStudy {
            key: "window-lifter",
            suite_name: lifter.name.clone(),
            testcases: lifter.all().to_vec(),
            iteration0: lifter.size_at(0),
            design: window_lifter::lifter_design,
            build: |tc| window_lifter::build_lifter_cluster(tc).map(|(c, _)| c),
            assertions: Vec::new(),
        },
        CaseStudy {
            key: "buck-boost",
            suite_name: bb.name.clone(),
            testcases: bb.all().to_vec(),
            iteration0: bb.size_at(0),
            design: buck_boost::bb_design,
            build: |tc| buck_boost::build_bb_cluster(tc).map(|(c, _)| c),
            assertions: Vec::new(),
        },
        CaseStudy {
            key: "pid",
            suite_name: "PID Loop".to_owned(),
            testcases: pid::pid_testcases(),
            iteration0: pid::pid_testcases().len(),
            design: pid::pid_design,
            build: |tc| pid::build_pid_cluster(tc, pid::PidTuning::nominal()).map(|(c, _)| c),
            assertions: pid::pid_assertions(),
        },
    ]
}

/// Elaborates `cs` and runs its static stage into a session. Returns the
/// session, the static-stage time and whether every model was rebuilt
/// (true exactly when the model cache was cold).
pub fn open_session(cs: &CaseStudy) -> dft_core::Result<(DftSession, Duration, bool)> {
    let config = session_config();
    let design = (cs.design)()?;
    let t = Instant::now();
    let artifacts = SessionArtifacts::build_with(design, &config);
    let static_time = t.elapsed();
    let cold = artifacts.models_rebuilt() == artifacts.model_count();
    let session =
        DftSession::from_artifacts(artifacts, config).with_assertions(cs.assertions.clone());
    Ok((session, static_time, cold))
}

/// A cold start in a fresh process: every design's session, from nothing
/// to ready. Returns (set-up time, static-stage time, problems).
pub fn cold_start() -> (Duration, Duration, Vec<String>) {
    let t0 = Instant::now();
    let mut statics = Duration::ZERO;
    let mut checks = Checks::default();
    for cs in case_studies() {
        match open_session(&cs) {
            Ok((_, static_time, cold)) => {
                statics += static_time;
                checks.expect(cold, || {
                    format!("{}: cold start hit a warm model cache", cs.key)
                });
            }
            Err(e) => checks.0.push(format!("{}: {e}", cs.key)),
        }
    }
    (t0.elapsed(), statics, checks.0)
}

struct Study {
    cs: CaseStudy,
    session: DftSession,
    /// Built only in traced mode, for the replay of the streamed path.
    automaton: Option<MatchAutomaton>,
}

/// Per-layer accumulators of one complete traced pass.
#[derive(Debug, Default, Clone, Copy)]
struct PassCounts {
    activations: u64,
    events: u64,
    samples: u64,
    null_ns: u64,
    record_ns: u64,
    feed_ns: u64,
    monitor_ns: u64,
    monitor_null_ns: u64,
    real_ns: u64,
    explained_ns: u64,
}

impl PassCounts {
    fn add(&mut self, o: &PassCounts) {
        self.activations += o.activations;
        self.events += o.events;
        self.samples += o.samples;
        self.null_ns += o.null_ns;
        self.record_ns += o.record_ns;
        self.feed_ns += o.feed_ns;
        self.monitor_ns += o.monitor_ns;
        self.monitor_null_ns += o.monitor_null_ns;
        self.real_ns += o.real_ns;
        self.explained_ns += o.explained_ns;
    }
}

/// The replay state: warm sessions, the position inside the current pass
/// and, in traced mode, the span recorder.
pub struct SuiteReplay {
    studies: Vec<Study>,
    expected: Expected,
    rng: Rng,
    study: usize,
    pos: usize,
    order: Vec<usize>,
    pass: u64,
    /// Traced mode: odd passes are traced, even passes run as in an
    /// untraced run, so the two can be compared for overhead.
    tracer: Option<Tracer>,
    pass_ns: u64,
    pass_counts: PassCounts,
    traced_counts: PassCounts,
    traced_passes: u64,
    pass_op_ns: [Vec<u64>; 2],
}

impl SuiteReplay {
    /// Opens one warm session per design and replays one untimed pass
    /// (which also checks the suites' shape targets).
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors.
    pub fn setup(seed: u64, traced: bool) -> dft_core::Result<(SuiteReplay, OpStats)> {
        let mut studies = Vec::new();
        for cs in case_studies() {
            let (session, _, _) = open_session(&cs)?;
            let automaton =
                traced.then(|| MatchAutomaton::new(session.design(), session.static_analysis()));
            studies.push(Study {
                cs,
                session,
                automaton,
            });
        }
        let mut replay = SuiteReplay {
            studies,
            expected: Expected::load(),
            rng: Rng::new(seed, 1),
            study: 0,
            pos: 0,
            order: Vec::new(),
            pass: 0,
            tracer: traced.then(|| Tracer::new(Instant::now())),
            pass_ns: 0,
            pass_counts: PassCounts::default(),
            traced_counts: PassCounts::default(),
            traced_passes: 0,
            pass_op_ns: [Vec::new(), Vec::new()],
        };
        let mut warmup = OpStats::default();
        let mut shape = Checks::default();
        while replay.pass == 0 {
            replay.step(&mut warmup, Some(&mut shape));
        }
        warmup.attempt(&shape.0);
        Ok((replay, warmup))
    }

    /// Runs ops until `deadline`.
    pub fn run_until(&mut self, deadline: Instant, stats: &mut OpStats) {
        while Instant::now() < deadline {
            self.step(stats, None);
        }
    }

    /// Finishes the pass the timed phase stopped inside, so every run
    /// measures whole passes: the same mix of short and long testcases.
    pub fn complete_pass(&mut self, stats: &mut OpStats) {
        while self.pos != 0 || self.study != 0 {
            self.step(stats, None);
        }
    }

    fn traced_pass(&self) -> bool {
        self.tracer.is_some() && !self.pass.is_multiple_of(2)
    }

    /// One op; ends the design's pass when it was the last testcase.
    /// `shape` collects the once-per-run checks of DESIGN.md's shape
    /// targets (the untimed warm-up pass).
    fn step(&mut self, stats: &mut OpStats, shape: Option<&mut Checks>) {
        if self.pos == 0 {
            let n = self.studies[self.study].cs.testcases.len();
            self.order = (0..n).collect();
            self.rng.shuffle(&mut self.order);
            self.studies[self.study].session.clear_runs();
        }
        let traced = self.traced_pass();
        let study = &mut self.studies[self.study];
        let tc = &study.cs.testcases[self.order[self.pos]];
        let build = study.cs.build;
        let t0 = Instant::now();
        let run = match self.tracer.as_mut().filter(|_| traced) {
            Some(tr) => {
                tr.begin_op();
                tr.enter("op");
                let cluster = tr.span("interp.cluster_build", || build(tc));
                tr.enter("session.run_testcase");
                let run = cluster.and_then(|c| {
                    study
                        .session
                        .run_testcase(&tc.name, c, tc.duration)
                        .map(drop)
                });
                let real = tr.exit();
                tr.exit();
                run.map(|()| Some(real))
            }
            None => build(tc)
                .and_then(|c| {
                    study
                        .session
                        .run_testcase(&tc.name, c, tc.duration)
                        .map(drop)
                })
                .map(|()| None),
        };
        let latency = t0.elapsed();
        self.pass_ns += latency.as_nanos() as u64;
        let real = match run {
            Ok(real) => real,
            Err(e) => {
                stats.attempt(&[format!("{}/{}: {e}", study.cs.key, tc.name)]);
                return self.advance(stats, shape);
            }
        };
        let result = study
            .session
            .runs()
            .last()
            .expect("run_testcase records a run");
        let exercised = result.exercised.len();
        let mut checks = Checks::default();
        let key = (study.cs.key.to_owned(), tc.name.clone());
        match self.expected.suite.get(&key) {
            Some((want, verdicts)) => {
                checks.expect(exercised == *want, || {
                    format!(
                        "{}/{}: exercised {exercised} != expected {want}",
                        key.0, key.1
                    )
                });
                let got: Vec<String> = result.verdicts.iter().map(verdict_str).collect();
                checks.expect(&got == verdicts, || {
                    format!("{}/{}: verdicts {got:?} != {verdicts:?}", key.0, key.1)
                });
            }
            None => checks
                .0
                .push(format!("{}/{}: no expected value", key.0, key.1)),
        }
        if let (Some(real), Some(tr)) = (real, self.tracer.as_mut()) {
            match replay_pieces(tr, study, tc, exercised, real) {
                Ok(c) => self.pass_counts.add(&c),
                Err(e) => checks.0.push(e),
            }
        }
        stats.record(latency, &checks.0);
        self.advance(stats, shape);
    }

    fn advance(&mut self, stats: &mut OpStats, shape: Option<&mut Checks>) {
        self.pos += 1;
        if self.pos == self.order.len() {
            self.end_design_pass(stats, shape);
        }
    }

    fn end_design_pass(&mut self, stats: &mut OpStats, shape: Option<&mut Checks>) {
        let traced = self.traced_pass();
        let study = &mut self.studies[self.study];
        let tr = self.tracer.as_mut().filter(|_| traced);
        let (cov, table) = match tr {
            Some(tr) => {
                tr.begin_op();
                let cov = tr.span("coverage.evaluate", || study.session.coverage());
                let table = tr.span("report.render", || table2(&study.cs, &cov));
                (cov, table)
            }
            None => {
                let cov = study.session.coverage();
                let table = table2(&study.cs, &cov);
                (cov, table)
            }
        };
        let mut checks = Checks::default();
        let key = study.cs.key;
        let got = cov.total_ratio();
        match self.expected.totals.get(key) {
            Some(&want) => checks
                .expect(got == want && table.contains(&study.cs.suite_name), || {
                    format!("{key}: pass coverage {got:?} != expected {want:?}")
                }),
            None => checks.0.push(format!("{key}: no expected total")),
        }
        if let Some(shape) = shape {
            shape_targets(study, &cov, shape);
        }
        stats.attempt(&checks.0);

        self.pos = 0;
        self.study = (self.study + 1) % self.studies.len();
        if self.study == 0 {
            if self.tracer.is_some() {
                self.pass_op_ns[usize::from(traced)].push(self.pass_ns);
                if traced {
                    self.traced_counts.add(&self.pass_counts);
                    self.traced_passes += 1;
                }
            }
            self.pass_ns = 0;
            self.pass_counts = PassCounts::default();
            self.pass += 1;
        }
    }

    /// Per-layer metrics of a traced phase.
    pub fn layer_metrics(&self) -> (Vec<Metric>, Vec<Span>) {
        let tr = self
            .tracer
            .as_ref()
            .expect("layer metrics need a traced run");
        let sums = summarise(tr.spans());
        let mean = |name: &str| sums.get(name).map_or(0.0, |t| t.mean_ms());
        let c = &self.traced_counts;
        let passes = self.traced_passes.max(1) as f64;
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        let pairs = self.pass_op_ns[0].len().min(self.pass_op_ns[1].len());
        let untraced: u64 = self.pass_op_ns[0][..pairs].iter().sum();
        let traced: u64 = self.pass_op_ns[1][..pairs].iter().sum();
        let metrics = vec![
            Metric::new(
                "interp.cluster_build_ms",
                mean("interp.cluster_build"),
                "ms",
            ),
            Metric::new("sim.elaborate_ms", mean("sim.elaborate"), "ms"),
            Metric::new(
                "sim.run_ns_per_activation",
                per(c.null_ns, c.activations),
                "ns",
            ),
            Metric::new(
                "sim.emit_ns_per_event",
                per(c.record_ns.saturating_sub(c.null_ns), c.events),
                "ns",
            ),
            Metric::new("matcher.feed_ns_per_event", per(c.feed_ns, c.events), "ns"),
            Metric::new(
                "monitor.ns_per_sample",
                (c.monitor_ns as f64 - c.monitor_null_ns as f64) / c.samples.max(1) as f64,
                "ns",
            ),
            Metric::new("coverage.evaluate_ms", mean("coverage.evaluate"), "ms"),
            Metric::new("report.render_ms", mean("report.render"), "ms"),
            Metric::new("sim.activations", c.activations as f64 / passes, "count"),
            Metric::new("sim.events", c.events as f64 / passes, "count"),
            Metric::new("monitor.samples", c.samples as f64 / passes, "count"),
            Metric::new(
                "session.unattributed_pct",
                100.0 * (c.real_ns as f64 - c.explained_ns as f64) / c.real_ns.max(1) as f64,
                "%",
            ),
            Metric::new(
                "obs.trace_overhead_pct",
                100.0 * (traced as f64 / untraced.max(1) as f64 - 1.0),
                "%",
            ),
        ];
        (metrics, tr.spans().to_vec())
    }
}

fn table2(cs: &CaseStudy, cov: &Coverage) -> String {
    let row = Table2Row::from_coverage(&cs.suite_name, 0, cs.testcases.len(), cov);
    render_table2(&[row])
}

/// DESIGN.md's shape targets: the lifter has no PFirm pairs; buck-boost
/// covers PFirm and PWeak fully from its first iteration on.
fn shape_targets(study: &Study, cov: &Coverage, checks: &mut Checks) {
    match study.cs.key {
        "window-lifter" => {
            let (_, pfirm) = cov.class_ratio(Classification::PFirm);
            checks.expect(pfirm == 0, || format!("lifter has {pfirm} PFirm pairs"));
        }
        "buck-boost" => {
            let first: Vec<&str> = study.cs.testcases[..study.cs.iteration0]
                .iter()
                .map(|tc| tc.name.as_str())
                .collect();
            let runs: Vec<_> = study
                .session
                .runs()
                .iter()
                .filter(|r| first.contains(&r.name.as_str()))
                .cloned()
                .collect();
            let it0 = Coverage::evaluate(study.session.static_analysis(), &runs);
            for class in [Classification::PFirm, Classification::PWeak] {
                let pct = it0.class_percent(class);
                checks.expect(pct == Some(100.0), || {
                    format!("buck-boost iteration 0 covers {class:?} at {pct:?}, not 100%")
                });
            }
        }
        _ => {}
    }
}

/// Replays one testcase through the public pieces of the streamed path —
/// `set_interner`, `Simulator::new`, `Simulator::run` into `NullSink`,
/// `CompactRecordingSink` and (with assertions) `MonitorSink`, then
/// `MatchAutomaton::cursor`/`feed`/`finish` over the recorded log — and
/// accounts the real `run_testcase` (`real`) against them.
fn replay_pieces(
    tr: &mut Tracer,
    study: &Study,
    tc: &Testcase,
    exercised: usize,
    real: Duration,
) -> Result<PassCounts, String> {
    #[derive(Clone, Copy, PartialEq)]
    enum SinkKind {
        Null,
        Record,
        MonitorNull,
        Monitor,
    }
    let interner = study.session.design().interner();
    let fail = |e: &dyn std::fmt::Display| format!("{}/{} replay: {e}", study.cs.key, tc.name);
    let mut c = PassCounts::default();
    let mut events = Vec::new();
    let first = tr.spans().len();
    tr.enter("replay");
    let mut sinks = vec![SinkKind::Null, SinkKind::Record];
    if !study.cs.assertions.is_empty() {
        (c.monitor_ns, c.monitor_null_ns) = (u64::MAX, u64::MAX);
        for _ in 0..MONITOR_PAIRS {
            sinks.extend([SinkKind::MonitorNull, SinkKind::Monitor]);
        }
    }
    for sink in sinks {
        let mut cluster = tr
            .span("replay.cluster_build", || (study.cs.build)(tc))
            .map_err(|e| fail(&e))?;
        tr.span("cluster.set_interner", || {
            cluster.set_interner(Arc::clone(interner))
        });
        let mut sim = tr
            .span("sim.elaborate", || Simulator::new(cluster))
            .map_err(|e| fail(&e))?;
        match sink {
            SinkKind::Null | SinkKind::MonitorNull => {
                tr.enter("sim.run.null");
                let run = sim.run(tc.duration, &mut NullSink);
                let ns = tr.exit().as_nanos() as u64;
                let activations = run.map_err(|e| fail(&e))?.activations;
                if sink == SinkKind::Null {
                    c.null_ns = ns;
                    c.activations = activations;
                } else {
                    c.monitor_null_ns = c.monitor_null_ns.min(ns);
                }
            }
            SinkKind::Record => {
                let mut sink = CompactRecordingSink::new(Arc::clone(interner));
                tr.enter("sim.run.record");
                let run = sim.run(tc.duration, &mut sink);
                c.record_ns = tr.exit().as_nanos() as u64;
                run.map_err(|e| fail(&e))?;
                events = sink.events;
            }
            SinkKind::Monitor => {
                let bank = Arc::new(Mutex::new(MonitorBank::compile(
                    &study.cs.assertions,
                    interner,
                )));
                let mut null = NullSink;
                let mut sink = MonitorSink::new(&mut null, Arc::clone(&bank));
                tr.enter("sim.run.monitor");
                let run = sim.run(tc.duration, &mut sink);
                c.monitor_ns = c.monitor_ns.min(tr.exit().as_nanos() as u64);
                run.map_err(|e| fail(&e))?;
                c.samples = bank.lock().expect("monitor bank lock").samples_observed();
            }
        }
    }
    let automaton = study
        .automaton
        .as_ref()
        .expect("traced mode builds automata");
    tr.enter("matcher.feed");
    let mut cursor = automaton.cursor(MatchMode::Lenient);
    for ev in &events {
        cursor.feed(ev);
    }
    let (matched, _) = cursor.finish();
    c.feed_ns = tr.exit().as_nanos() as u64;
    tr.exit();
    c.events = events.len() as u64;
    if matched.exercised.len() != exercised {
        return Err(fail(&format!(
            "replayed match exercised {} != real run's {exercised}",
            matched.exercised.len()
        )));
    }

    // The real run = set_interner + elaborate + a run whose emission and
    // matching happen inline (+ the monitor tap on PID). Pieces are
    // averaged over the replays that repeat them.
    let mut per: HashMap<&str, (u64, u64)> = HashMap::new();
    for s in &tr.spans()[first..] {
        let e = per.entry(s.name).or_default();
        e.0 += s.dur_ns();
        e.1 += 1;
    }
    let mean = |name: &str| per.get(name).map_or(0, |&(ns, n)| ns / n.max(1));
    let monitor_extra = c.monitor_ns.saturating_sub(c.monitor_null_ns);
    c.explained_ns = mean("cluster.set_interner")
        + mean("sim.elaborate")
        + c.record_ns
        + c.feed_ns
        + monitor_extra;
    c.real_ns = real.as_nanos() as u64;
    Ok(c)
}
