//! `edit-analyse`: the edit–analyse loop at design scale.
//!
//! On `synthetic_chain(64, true)` (704 associations), each op rewrites two
//! constants in one seeded-random model — keeping line numbers, so only
//! that model's fingerprint changes — rebuilds the `Design` and calls
//! `SessionArtifacts::build_incremental` against the previous build. The
//! static layers do all the work here and simulation none.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dft_core::synth::{synthetic_chain, SynthSpec};
use dft_core::{Design, MatchAutomaton, SessionArtifacts, SessionConfig, StaticAnalysis};

use crate::expected::Expected;
use crate::stats::{Checks, Metric, OpStats};
use crate::trace::{summarise, Span, Tracer};
use crate::{session_config, Rng};

/// Models in the edited chain.
pub const CHAIN_LEN: usize = 64;

/// Untimed edits before timing starts. Every edit adds one entry to the
/// 1,024-entry process-wide model cache, whose misses scan it linearly,
/// so per-edit latency rises until the cache is full (after ~960 edits on
/// top of the cold build's 64 entries); timing starts past that point.
pub const WARMUP_EDITS: usize = 1200;

/// Ops per block of a traced phase (see [`EditLoop::run_until`]).
const TRACE_BLOCK: u64 = 32;

/// The two constants each edit rewrites, as they appear in every model
/// body `synthetic_chain` generates.
const GAIN_SITE: &str = "ip_in * 2";
const LIMIT_SITE: &str = "m_state > 100";

/// One model's source with its two editable constants cut out.
struct Template {
    head: String,
    mid: String,
    tail: String,
}

/// A cold start in a fresh process: the chain's design plus a cold static
/// build. Returns (set-up time, static-stage time, problems).
pub fn cold_start() -> (Duration, Duration, Vec<String>) {
    let t0 = Instant::now();
    let mut checks = Checks::default();
    let spec = synthetic_chain(CHAIN_LEN, true);
    let statics = match spec.build_design() {
        Ok(design) => {
            let t = Instant::now();
            let artifacts = SessionArtifacts::build_with(design, &session_config());
            let statics = t.elapsed();
            checks.expect(
                artifacts.models_rebuilt() == artifacts.model_count(),
                || {
                    format!(
                        "chain cold start rebuilt {} of {} models",
                        artifacts.models_rebuilt(),
                        artifacts.model_count()
                    )
                },
            );
            statics
        }
        Err(e) => {
            checks.0.push(format!("chain design: {e}"));
            Duration::ZERO
        }
    };
    (t0.elapsed(), statics, checks.0)
}

/// The loop state: the chain's per-model templates and constants, the
/// previous build, and in traced mode the span recorder.
pub struct EditLoop {
    spec: SynthSpec,
    templates: Vec<Template>,
    constants: Vec<(u64, u64)>,
    prev: Arc<SessionArtifacts>,
    config: SessionConfig,
    rng: Rng,
    edits: u64,
    expected: Expected,
    tracer: Option<Tracer>,
    /// Op time of untraced / traced ops in a traced phase (alternating).
    op_ns: [u64; 2],
    ops: [u64; 2],
    rebuilt: u64,
    reanalysed: u64,
}

impl EditLoop {
    /// Cold-builds the chain, checks its associations, and runs the
    /// untimed warm-up edits.
    ///
    /// # Errors
    ///
    /// Propagates design construction errors, and a chain whose model
    /// bodies no longer contain the edited constants.
    pub fn setup(seed: u64, traced: bool) -> Result<(EditLoop, OpStats), String> {
        let spec = synthetic_chain(CHAIN_LEN, true);
        let mut templates = Vec::new();
        for chunk in spec.source.split_inclusive("\n}\n") {
            let (head, rest) = chunk
                .split_once(GAIN_SITE)
                .ok_or_else(|| format!("model body lacks {GAIN_SITE:?}"))?;
            let (mid, tail) = rest
                .split_once(LIMIT_SITE)
                .ok_or_else(|| format!("model body lacks {LIMIT_SITE:?}"))?;
            templates.push(Template {
                head: head.to_owned(),
                mid: mid.to_owned(),
                tail: tail.to_owned(),
            });
        }
        if templates.len() != CHAIN_LEN {
            return Err(format!(
                "chain source splits into {} models",
                templates.len()
            ));
        }
        let config = session_config();
        let design = spec.build_design().map_err(|e| e.to_string())?;
        let prev = SessionArtifacts::build_with(design, &config);
        let mut edit = EditLoop {
            spec,
            templates,
            constants: vec![(2, 100); CHAIN_LEN],
            prev,
            config,
            rng: Rng::new(seed, 2),
            edits: 0,
            expected: Expected::load(),
            tracer: traced.then(|| Tracer::new(Instant::now())),
            op_ns: [0; 2],
            ops: [0; 2],
            rebuilt: 0,
            reanalysed: 0,
        };
        let mut warmup = OpStats::default();
        let mut checks = Checks::default();
        edit.check_analysis(edit.prev.static_analysis(), &mut checks);
        warmup.attempt(&checks.0);
        for _ in 0..WARMUP_EDITS {
            edit.untraced_op(&mut warmup);
        }
        Ok((edit, warmup))
    }

    /// Runs ops until `deadline`; a traced loop alternates blocks of
    /// [`TRACE_BLOCK`] untraced and traced ops, so each op runs after ops
    /// of its own kind, as in a run of that kind.
    pub fn run_until(&mut self, deadline: Instant, stats: &mut OpStats) {
        while Instant::now() < deadline {
            if self.tracer.is_some() && !(self.edits / TRACE_BLOCK).is_multiple_of(2) {
                self.traced_op(stats);
            } else {
                self.untraced_op(stats);
            }
        }
    }

    /// Rewrites the two constants of one seeded-random model. The limit
    /// constant counts edits, so every edit is content the process has
    /// never seen and its model's fingerprint always misses.
    fn edit_source(&mut self) {
        self.edits += 1;
        let k = self.rng.below(CHAIN_LEN);
        self.constants[k] = (3 + self.rng.below(97) as u64, 100 + self.edits);
        let mut source = String::with_capacity(self.spec.source.len() + 256);
        for (t, (gain, limit)) in self.templates.iter().zip(&self.constants) {
            source.push_str(&t.head);
            source.push_str(&format!("ip_in * {gain}"));
            source.push_str(&t.mid);
            source.push_str(&format!("m_state > {limit}"));
            source.push_str(&t.tail);
        }
        self.spec.source = source;
    }

    fn untraced_op(&mut self, stats: &mut OpStats) {
        let t0 = Instant::now();
        self.edit_source();
        let next = self
            .spec
            .build_design()
            .map(|design| SessionArtifacts::build_incremental(design, &self.prev, &self.config));
        let latency = t0.elapsed();
        match next {
            Ok(next) => {
                let mut checks = Checks::default();
                self.check_analysis(next.static_analysis(), &mut checks);
                check_rebuilt(next.models_rebuilt(), &mut checks);
                // The previous build is freed after the answer is ready,
                // outside the op's latency.
                drop(std::mem::replace(&mut self.prev, next));
                stats.record(latency, &checks.0);
                self.op_ns[0] += latency.as_nanos() as u64;
                self.ops[0] += 1;
            }
            Err(e) => stats.attempt(&[format!("edit {}: {e}", self.edits)]),
        }
    }

    /// The same op split into its public pieces: `build_design`'s three
    /// steps, then `reanalyse` (the static stage of `build_incremental`)
    /// and `MatchAutomaton::new` (its automaton stage). The chain then
    /// advances with a `build_incremental` outside the op, which finds the
    /// edited model already cached.
    fn traced_op(&mut self, stats: &mut OpStats) {
        let config = self.config;
        match self.traced_pieces(&config) {
            Ok((design, analysis, rebuilt, latency)) => {
                let mut checks = Checks::default();
                self.check_analysis(&analysis, &mut checks);
                check_rebuilt(rebuilt, &mut checks);
                self.rebuilt += rebuilt as u64;
                self.reanalysed += CHAIN_LEN as u64;
                let tr = self.tracer.as_mut().expect("traced op needs a tracer");
                let next = tr.span("chain.advance", || {
                    SessionArtifacts::build_incremental(design, &self.prev, &config)
                });
                drop(std::mem::replace(&mut self.prev, next));
                stats.record(latency, &checks.0);
                self.op_ns[1] += latency.as_nanos() as u64;
                self.ops[1] += 1;
            }
            Err(e) => stats.attempt(&[format!("edit {}: {e}", self.edits)]),
        }
    }

    #[allow(clippy::type_complexity)]
    fn traced_pieces(
        &mut self,
        config: &SessionConfig,
    ) -> Result<(Design, StaticAnalysis, usize, Duration), String> {
        let t0 = Instant::now();
        let mut tr = self.tracer.take().expect("traced op needs a tracer");
        tr.begin_op();
        tr.enter("op");
        tr.span("bench.edit", || self.edit_source());
        let spec = &self.spec;
        let result = (|| {
            // The cluster only yields the netlist; dropping it is part of
            // the cluster layer's cost, as inside `build_design`.
            let netlist = tr
                .span("interp.cluster_build", || {
                    spec.build_cluster().map(|c| c.netlist())
                })
                .map_err(|e| e.to_string())?;
            let tu = tr
                .span("minic.parse", || minic::parse(&spec.source))
                .map_err(|e| e.to_string())?;
            let design = tr
                .span("design.new", || {
                    Design::new(tu, spec.models.clone(), netlist)
                })
                .map_err(|e| e.to_string())?;
            let (analysis, rebuilt) =
                tr.span("statics.reanalyse", || self.prev.reanalyse(&design, config));
            let automaton = tr.span("matcher.automaton_build", || {
                MatchAutomaton::new(&design, &analysis)
            });
            Ok((design, analysis, rebuilt, automaton))
        })();
        tr.exit();
        let latency = t0.elapsed();
        self.tracer = Some(tr);
        result.map(|(design, analysis, rebuilt, automaton)| {
            drop(automaton);
            (design, analysis, rebuilt, latency)
        })
    }

    /// The association count and class histogram edits must not change.
    fn check_analysis(&self, analysis: &StaticAnalysis, checks: &mut Checks) {
        let want = self.expected.edit_associations;
        checks.expect(analysis.len() == want, || {
            format!("chain has {} associations, expected {want}", analysis.len())
        });
        let got = class_histogram(analysis);
        checks.expect(got == self.expected.edit_classes, || {
            format!(
                "chain class histogram {got:?} != expected {:?}",
                self.expected.edit_classes
            )
        });
    }

    /// Per-layer metrics of a traced phase.
    pub fn layer_metrics(&self) -> (Vec<Metric>, Vec<Span>) {
        let tr = self
            .tracer
            .as_ref()
            .expect("layer metrics need a traced run");
        let sums = summarise(tr.spans());
        let mean = |name: &str| sums.get(name).map_or(0.0, |t| t.mean_ms());
        let op = sums.get("op").copied().unwrap_or_default();
        let per_op = |i: usize| self.op_ns[i] as f64 / self.ops[i].max(1) as f64;
        let metrics = vec![
            Metric::new("minic.parse_ms", mean("minic.parse"), "ms"),
            Metric::new(
                "interp.cluster_build_ms",
                mean("interp.cluster_build"),
                "ms",
            ),
            Metric::new("design.new_ms", mean("design.new"), "ms"),
            Metric::new("statics.reanalyse_ms", mean("statics.reanalyse"), "ms"),
            Metric::new(
                "matcher.automaton_build_ms",
                mean("matcher.automaton_build"),
                "ms",
            ),
            Metric::new(
                "statics.rebuilt_ratio",
                self.rebuilt as f64 / self.reanalysed.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "obs.unattributed_pct",
                100.0 * op.self_ns as f64 / op.total_ns.max(1) as f64,
                "%",
            ),
            Metric::new(
                "obs.trace_overhead_pct",
                100.0 * (per_op(1) / per_op(0).max(1.0) - 1.0),
                "%",
            ),
        ];
        (metrics, tr.spans().to_vec())
    }
}

/// Associations per class, by class name.
pub fn class_histogram(analysis: &StaticAnalysis) -> BTreeMap<String, usize> {
    let mut hist = BTreeMap::new();
    for a in &analysis.associations {
        *hist.entry(format!("{:?}", a.class)).or_default() += 1;
    }
    hist
}

fn check_rebuilt(rebuilt: usize, checks: &mut Checks) {
    checks.expect(rebuilt == 1, || {
        format!("a one-model edit rebuilt {rebuilt} models, expected 1")
    });
}
