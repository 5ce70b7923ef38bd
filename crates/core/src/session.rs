//! The three-stage DFT session of Fig. 3: static analysis once, then
//! dynamic analysis per testcase, then coverage evaluation — with the
//! uncovered-association work list driving the "tests addition" loop.
//!
//! The dynamic stage has one run path: a [`MatchCursor`] is the
//! simulation's event sink, so events are matched as the kernel produces
//! them and no per-testcase log is ever materialized — peak memory is
//! O(automaton state), which is what unlocks long-/infinite-horizon runs.
//! Every run is panic-isolated; a single [`DftSession::run_testcase`]
//! re-raises what a batch records as a degraded [`RunOutcome`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dft_monitor::{AssertionSpec, AssertionVerdict, MonitorBank, MonitorSink};
use obs::MetricsReport;
use tdf_sim::{Cluster, Interner, RunLimits, SimTime, Simulator, TdfError};

use crate::coverage::{Coverage, RunOutcome, TestcaseResult};
use crate::design::Design;
use crate::dynamic::MatchMode;
use crate::error::{panic_payload_str, DftError, Result};
use crate::matcher::{MatchAutomaton, MatchCursor};
use crate::statics::{analyse_build, ModelArtifactCache, StaticAnalysis, StaticBuild};

/// A session's pipeline knob, resolved **once** at construction.
///
/// The `DFT_THREADS` environment variable is read exactly once, by
/// [`SessionConfig::from_env`]; nothing on a session's hot path touches
/// the environment afterwards. That makes per-request runs immune to
/// concurrent `set_var` races and lets a multi-tenant embedder (e.g.
/// `dft-serve`) give every request its own worker count over the same
/// shared artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Worker count for the static-analysis fan-out (the `DFT_THREADS`
    /// knob; reports are byte-identical for every value).
    pub threads: usize,
}

impl SessionConfig {
    /// Resolves the knob from the environment — the configuration
    /// [`DftSession::new`] uses.
    pub fn from_env() -> SessionConfig {
        SessionConfig {
            threads: crate::thread_count(),
        }
    }

    /// Overrides the worker count (builder style).
    pub fn with_threads(mut self, threads: usize) -> SessionConfig {
        self.threads = threads.max(1);
        self
    }
}

impl Default for SessionConfig {
    /// Defaults to [`SessionConfig::from_env`] — the documented behaviour
    /// of a plain [`DftSession::new`].
    fn default() -> SessionConfig {
        SessionConfig::from_env()
    }
}

/// The frozen, immutable product of the static pipeline stage: the
/// [`Design`] (with its interner), the [`StaticAnalysis`] and the prebuilt
/// [`MatchAutomaton`]. Everything in here is read-only after construction
/// and `Sync`, so one `Arc<SessionArtifacts>` can back any number of
/// concurrent [`DftSession`]s — this is the unit a warm artifact cache
/// (e.g. `dft-serve`'s cache, keyed by design reference) stores, letting
/// repeat analyses of the same design skip elaboration and static
/// analysis entirely.
#[derive(Debug)]
pub struct SessionArtifacts {
    design: Design,
    statics: StaticAnalysis,
    automaton: MatchAutomaton,
    /// Per-model decomposition of the static stage, retained so a later
    /// [`SessionArtifacts::build_incremental`] can splice every unchanged
    /// model instead of recomputing it.
    static_build: StaticBuild,
    models_rebuilt: usize,
}

impl SessionArtifacts {
    /// Runs the static stage on `config.threads` workers and freezes the
    /// artifacts. Every model resolves from the process-wide model-artifact
    /// cache when an identical model was analysed before, and is computed
    /// otherwise.
    pub fn build_with(design: Design, config: &SessionConfig) -> Arc<SessionArtifacts> {
        Self::assemble(design, None, config, ModelArtifactCache::global())
    }

    /// Like [`SessionArtifacts::build_with`], but diffs `design`'s
    /// per-model content hashes against `prev` (a frozen build of an
    /// earlier revision, typically of the same design family) and reuses
    /// what did not change:
    ///
    /// * the static stage splices every unchanged model's artifact, and
    ///   every cluster unit whose inputs are unchanged, into the fresh
    ///   [`StaticAnalysis`]; the merge (dedup, sort, subsumption mapping)
    ///   runs over the whole design;
    /// * the [`MatchAutomaton`] is built anew for the new design's
    ///   interner; it reads each model's vocabulary from the
    ///   `processing()` CFG that model's artifact holds, and builds a CFG
    ///   only for a model without a healthy artifact.
    ///
    /// The result is byte-identical to a from-scratch
    /// [`analyse_with_threads`](crate::analyse_with_threads) plus
    /// [`MatchAutomaton::new`] of the same design; only the work spent
    /// differs.
    pub fn build_incremental(
        design: Design,
        prev: &SessionArtifacts,
        config: &SessionConfig,
    ) -> Arc<SessionArtifacts> {
        Self::assemble(design, Some(prev), config, ModelArtifactCache::global())
    }

    /// The one build body: the static stage against `cache` (and `prev`,
    /// if any), then the automaton over its CFGs.
    fn assemble(
        design: Design,
        prev: Option<&SessionArtifacts>,
        config: &SessionConfig,
        cache: &ModelArtifactCache,
    ) -> Arc<SessionArtifacts> {
        let outcome = analyse_build(
            &design,
            config.threads,
            Some(cache),
            prev.map(|p| &p.static_build),
        );
        let automaton =
            MatchAutomaton::from_static_build(&design, &outcome.analysis, &outcome.build);
        Arc::new(SessionArtifacts {
            design,
            statics: outcome.analysis,
            automaton,
            static_build: outcome.build,
            models_rebuilt: outcome.models_rebuilt,
        })
    }

    /// The design under verification.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The static-stage result (associations + lints).
    pub fn static_analysis(&self) -> &StaticAnalysis {
        &self.statics
    }

    /// How many user models the static stage actually recomputed when
    /// these artifacts were built (the rest were spliced from the
    /// process-wide model cache or a previous build).
    pub fn models_rebuilt(&self) -> usize {
        self.models_rebuilt
    }

    /// Number of user models in the design.
    pub fn model_count(&self) -> usize {
        self.static_build.model_count()
    }

    /// Re-runs only the static stage of an edited `design` against these
    /// artifacts, without building a match automaton. Returns the fresh
    /// analysis and how many models were actually recomputed. This is the
    /// measurement target for the incremental-vs-cold benchmark: it
    /// isolates exactly the work [`build_incremental`] saves, independent
    /// of design construction and automaton cost.
    ///
    /// [`build_incremental`]: SessionArtifacts::build_incremental
    pub fn reanalyse(&self, design: &Design, config: &SessionConfig) -> (StaticAnalysis, usize) {
        let outcome = analyse_build(
            design,
            config.threads,
            Some(ModelArtifactCache::global()),
            Some(&self.static_build),
        );
        (outcome.analysis, outcome.models_rebuilt)
    }
}

/// Backoff multiplier per further retry (`base`, `2·base`, `4·base`, …).
const BACKOFF_MULTIPLIER: u32 = 2;

/// Factor applied to every finite [`RunLimits`] budget (activations,
/// events, wall) per retry, so a run that timed out under a tight budget
/// gets escalating headroom. Absolute deadlines are *not* escalated — a
/// served request's deadline stays authoritative.
const BUDGET_ESCALATION: u32 = 2;

/// Exponential-backoff retry policy for the per-testcase supervisor
/// ([`DftSession::run_testcase_retrying`]): transient failures —
/// [`RunOutcome::Panicked`] and [`RunOutcome::TimedOut`] — are rerun up to
/// [`max_retries`] times, each with twice the previous backoff and twice
/// every finite budget, as long as the backoff ends before the run's
/// deadline, while [`RunOutcome::Failed`] (a deterministic
/// elaboration/simulation error) is permanent immediately.
///
/// [`max_retries`]: RetryPolicy::max_retries
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reruns after the first attempt (0 = never retry).
    pub max_retries: u32,
    /// Backoff slept before the first retry.
    pub backoff_base: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Never retries (a single supervised attempt).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The backoff slept before retry number `retry` (1-based):
    /// `base · 2^(retry-1)`, saturating.
    pub fn backoff_before(&self, retry: u32) -> Duration {
        let factor = BACKOFF_MULTIPLIER
            .checked_pow(retry.saturating_sub(1))
            .unwrap_or(u32::MAX);
        self.backoff_base.saturating_mul(factor)
    }

    /// `limits` with every finite budget escalated for attempt number
    /// `attempt` (0-based): factor `2^attempt`, saturating.
    pub fn escalate(&self, limits: &RunLimits, attempt: u32) -> RunLimits {
        if attempt == 0 {
            return *limits;
        }
        let factor = BUDGET_ESCALATION.checked_pow(attempt).unwrap_or(u32::MAX);
        let mut out = *limits;
        out.max_activations = limits
            .max_activations
            .map(|n| n.saturating_mul(u64::from(factor)));
        out.max_events = limits
            .max_events
            .map(|n| n.saturating_mul(u64::from(factor)));
        out.wall_budget = limits.wall_budget.map(|b| b.saturating_mul(factor));
        out
    }
}

/// One supervised attempt of a retried testcase.
#[derive(Debug, Clone)]
pub struct RetryAttempt {
    /// Attempt number (0 = the initial run).
    pub attempt: u32,
    /// How this attempt ended.
    pub outcome: RunOutcome,
    /// The (possibly escalated) budgets the attempt ran under.
    pub limits: RunLimits,
    /// The backoff scheduled after this attempt — `Some` exactly when a
    /// further attempt followed.
    pub backoff: Option<Duration>,
}

/// What [`DftSession::run_testcase_retrying`] did: every attempt with its
/// outcome, budgets and backoff. Only the **final** attempt's run is left
/// in the session — discarded attempts cannot contaminate the batch
/// report, so a testcase salvaged on retry reports byte-identically to one
/// that never failed.
#[derive(Debug, Clone)]
pub struct RetryReport {
    /// Testcase name.
    pub name: String,
    /// Every attempt, in order; never empty.
    pub attempts: Vec<RetryAttempt>,
}

impl RetryReport {
    /// The outcome of the final (kept) attempt.
    pub fn final_outcome(&self) -> &RunOutcome {
        &self.attempts.last().expect("never empty").outcome
    }

    /// True when earlier attempts degraded but the final one succeeded —
    /// coverage was salvaged from a flaky run.
    pub fn salvaged(&self) -> bool {
        self.attempts.len() > 1 && !self.final_outcome().is_degraded()
    }

    /// True when every attempt (including the kept one) degraded — the
    /// failure is classified permanent after the retry budget is spent.
    pub fn permanent_failure(&self) -> bool {
        self.final_outcome().is_degraded()
    }

    /// The backoffs slept between attempts, in order.
    pub fn backoff_schedule(&self) -> Vec<Duration> {
        self.attempts.iter().filter_map(|a| a.backoff).collect()
    }
}

/// One testcase prepared for [`DftSession::run_testcases`]: a freshly built
/// cluster plus its name and simulated duration.
#[derive(Debug)]
pub struct TestcaseSpec {
    /// Report name of the testcase.
    pub name: String,
    /// The elaboratable cluster (testcases differ in stimulus sources).
    pub cluster: Cluster,
    /// How long to simulate.
    pub duration: SimTime,
}

impl TestcaseSpec {
    /// Bundles a testcase.
    pub fn new(name: impl Into<String>, cluster: Cluster, duration: SimTime) -> TestcaseSpec {
        TestcaseSpec {
            name: name.into(),
            cluster,
            duration,
        }
    }
}

/// A data-flow-testing session over one design.
///
/// ```no_run
/// # fn design() -> dft_core::Design { unimplemented!() }
/// # fn build_cluster(_tc: &str) -> tdf_sim::Cluster { unimplemented!() }
/// use dft_core::DftSession;
/// use tdf_sim::SimTime;
///
/// let mut session = DftSession::new(design())?;
/// // Stage 1 ran at construction; stages 2+3 per testcase:
/// session.run_testcase("TC1", build_cluster("TC1"), SimTime::from_ms(1))?;
/// session.run_testcase("TC2", build_cluster("TC2"), SimTime::from_ms(1))?;
/// let cov = session.coverage();
/// println!("{}", dft_core::render_table1(&cov));
/// for missing in cov.uncovered() {
///     println!("add a testcase for {missing}");
/// }
/// # Ok::<(), dft_core::DftError>(())
/// ```
#[derive(Debug)]
pub struct DftSession {
    /// The frozen static-stage artifacts — design (with interner), static
    /// analysis and prebuilt [`MatchAutomaton`] — possibly shared with
    /// other sessions through an artifact cache.
    artifacts: Arc<SessionArtifacts>,
    /// Per-session knobs, resolved once at construction.
    config: SessionConfig,
    runs: Vec<TestcaseResult>,
    /// Assertions monitored alongside matching. Empty (the default) keeps
    /// the sample tap off and every run/report byte-identical to a
    /// session without monitor support.
    assertions: Vec<AssertionSpec>,
}

/// A monitor bank shared with the (possibly panicking) simulation pass.
type SharedBank = Arc<Mutex<MonitorBank>>;

impl DftSession {
    /// Creates a session and runs the static stage, with every knob
    /// resolved from the environment ([`SessionConfig::from_env`]).
    pub fn new(design: Design) -> Result<DftSession> {
        Self::with_config(design, SessionConfig::from_env())
    }

    /// Creates a session with an explicit configuration: the static stage
    /// runs on `config.threads` workers. Reports are byte-identical for
    /// every worker count.
    pub fn with_config(design: Design, config: SessionConfig) -> Result<DftSession> {
        Ok(Self::from_artifacts(
            SessionArtifacts::build_with(design, &config),
            config,
        ))
    }

    /// Creates a session over **already-frozen** artifacts — the warm
    /// path: elaboration and static analysis are skipped entirely, only
    /// per-session state (runs) is allocated. This is what an artifact
    /// cache hit costs.
    pub fn from_artifacts(artifacts: Arc<SessionArtifacts>, config: SessionConfig) -> DftSession {
        DftSession {
            artifacts,
            config,
            runs: Vec::new(),
            assertions: Vec::new(),
        }
    }

    /// Attaches assertions to be monitored alongside matching (builder
    /// style): every subsequent testcase evaluates them over its sample
    /// streams in the same simulation pass and carries the per-assertion
    /// verdicts in [`TestcaseResult::verdicts`], in spec order. Verdicts
    /// are byte-identical across `DFT_THREADS` (simulation is sequential);
    /// with no assertions the sample tap stays off and reports are
    /// byte-identical to a session without monitor support.
    pub fn with_assertions(mut self, assertions: Vec<AssertionSpec>) -> DftSession {
        self.assertions = assertions;
        self
    }

    /// Replaces the monitored assertions for subsequent testcases (the
    /// mutator twin of [`DftSession::with_assertions`]).
    pub fn set_assertions(&mut self, assertions: Vec<AssertionSpec>) {
        self.assertions = assertions;
    }

    /// The assertions currently monitored.
    pub fn assertions(&self) -> &[AssertionSpec] {
        &self.assertions
    }

    /// A fresh per-testcase monitor bank, `None` when no assertions are
    /// attached (keeping the kernel's sample tap disabled).
    fn monitor_bank(&self) -> Option<SharedBank> {
        if self.assertions.is_empty() {
            return None;
        }
        Some(Arc::new(Mutex::new(MonitorBank::compile(
            &self.assertions,
            self.design().interner(),
        ))))
    }

    /// The frozen artifacts backing this session (shareable with further
    /// sessions via [`DftSession::from_artifacts`]).
    pub fn artifacts(&self) -> &Arc<SessionArtifacts> {
        &self.artifacts
    }

    /// The session's resolved configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The design under verification.
    pub fn design(&self) -> &Design {
        self.artifacts.design()
    }

    /// The static-stage result (associations + lints).
    pub fn static_analysis(&self) -> &StaticAnalysis {
        self.artifacts.static_analysis()
    }

    /// The prebuilt match automaton shared by this session's runs.
    fn automaton(&self) -> &MatchAutomaton {
        &self.artifacts.automaton
    }

    /// Runs one testcase: elaborates `cluster` and simulates it for
    /// `duration` with instrumentation enabled, matching its def/use
    /// events into exercised associations as the simulation emits them.
    ///
    /// Events are matched in [`MatchMode::Lenient`], the same mode as the
    /// batch runners, so a batch of one reports identically to a single
    /// run even on malformed logs (lenient and strict matching are
    /// indistinguishable on well-formed ones).
    ///
    /// The cluster must be freshly built per testcase (testcases differ in
    /// their stimulus sources).
    ///
    /// # Errors
    ///
    /// Propagates elaboration/simulation errors; a module panic unwinds out
    /// of this call. Either way no run is appended.
    pub fn run_testcase(
        &mut self,
        name: &str,
        cluster: Cluster,
        duration: SimTime,
    ) -> Result<&TestcaseResult> {
        let monitor = self.monitor_bank();
        let mut cursor = self.automaton().cursor(MatchMode::Lenient);
        let run = run_isolated(
            cluster,
            duration,
            &RunLimits::none(),
            self.design().interner(),
            &mut cursor,
            monitor.as_ref(),
        );
        match run {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(e),
            Err(payload) => resume_unwind(payload),
        }
        let run = finish_run(name.to_owned(), cursor, monitor, duration, RunOutcome::Ok);
        self.runs.push(run);
        Ok(self.runs.last().expect("just pushed"))
    }

    /// Runs a batch of testcases in order. Results are appended in batch
    /// order, so reports are byte-identical to running
    /// [`DftSession::run_testcase`] once per entry.
    ///
    /// Unlike [`DftSession::run_testcase`], a failing testcase does **not**
    /// abort the batch: elaboration errors, simulation errors, tripped
    /// [`RunLimits`] budgets and even module panics are isolated to their
    /// testcase and recorded as a degraded [`RunOutcome`], and whatever the
    /// testcase streamed before failing still contributes (partial)
    /// coverage. Per-testcase failures are reported via
    /// [`TestcaseResult::outcome`].
    pub fn run_testcases(&mut self, testcases: Vec<TestcaseSpec>) -> &[TestcaseResult] {
        self.run_testcases_with(testcases, RunLimits::none())
    }

    /// [`DftSession::run_testcases`] with per-testcase [`RunLimits`]
    /// budgets. Each testcase is simulated under `limits`; a tripped budget
    /// degrades only that testcase ([`RunOutcome::TimedOut`]) while the
    /// events it streamed before stopping are still matched. Events of
    /// degraded testcases are matched in [`MatchMode::Lenient`] — as are
    /// healthy ones, which is indistinguishable from strict matching on a
    /// well-formed stream.
    pub fn run_testcases_with(
        &mut self,
        testcases: Vec<TestcaseSpec>,
        limits: RunLimits,
    ) -> &[TestcaseResult] {
        static DEGRADED: obs::Counter = obs::Counter::new("testcase.degraded");
        let start = self.runs.len();
        for tc in testcases {
            let monitor = self.monitor_bank();
            let mut cursor = self.automaton().cursor(MatchMode::Lenient);
            let run = run_isolated(
                tc.cluster,
                tc.duration,
                &limits,
                self.design().interner(),
                &mut cursor,
                monitor.as_ref(),
            );
            let outcome = outcome_of(run);
            if outcome.is_degraded() {
                DEGRADED.add(1);
            }
            let run = finish_run(tc.name, cursor, monitor, tc.duration, outcome);
            self.runs.push(run);
        }
        &self.runs[start..]
    }

    /// Runs one testcase under a retry supervisor: transient failures
    /// ([`RunOutcome::Panicked`] / [`RunOutcome::TimedOut`]) are rerun up
    /// to `policy.max_retries` times with exponential backoff and
    /// escalating budgets, salvaging full coverage from flaky runs, while
    /// deterministic failures ([`RunOutcome::Failed`]) are permanent
    /// immediately.
    ///
    /// `build_cluster` is invoked once per attempt (clusters are consumed
    /// by elaboration) with the 0-based attempt number. Failure isolation
    /// is the same as [`DftSession::run_testcases_with`] — a panicking or
    /// stalling module degrades the attempt, never the session.
    ///
    /// No retry starts whose backoff would end at or after
    /// `limits.deadline`: a served request's deadline bounds its retries
    /// as well as its runs.
    ///
    /// Exactly one run is appended to the session: the final attempt's.
    /// Discarded attempts leave no trace in the batch report, so a
    /// salvaged testcase reports byte-identically to one that never
    /// failed; when the retry budget or the deadline is spent, the last
    /// degraded run (and its partial coverage) is kept.
    pub fn run_testcase_retrying(
        &mut self,
        name: &str,
        mut build_cluster: impl FnMut(u32) -> Result<Cluster>,
        duration: SimTime,
        limits: RunLimits,
        policy: &RetryPolicy,
    ) -> RetryReport {
        static RETRIES: obs::Counter = obs::Counter::new("retry.reruns");
        static SALVAGED: obs::Counter = obs::Counter::new("retry.salvaged");
        static PERMANENT: obs::Counter = obs::Counter::new("retry.permanent_failures");
        let mut attempts = Vec::new();
        let mut attempt = 0u32;
        loop {
            let eff = policy.escalate(&limits, attempt);
            let outcome = match build_cluster(attempt) {
                Ok(cluster) => {
                    let spec = TestcaseSpec::new(name, cluster, duration);
                    self.run_testcases_with(vec![spec], eff);
                    self.runs.last().expect("batch of one").outcome.clone()
                }
                Err(e) => {
                    // Nothing simulated, so nothing was appended: record a
                    // placeholder run so the batch report names the failure.
                    let outcome = RunOutcome::Failed {
                        error: e.to_string(),
                    };
                    self.runs.push(TestcaseResult {
                        name: name.to_owned(),
                        outcome: outcome.clone(),
                        ..TestcaseResult::default()
                    });
                    outcome
                }
            };
            let transient = matches!(
                outcome,
                RunOutcome::Panicked { .. } | RunOutcome::TimedOut { .. }
            );
            let backoff = policy.backoff_before(attempt + 1);
            // The deadline stays authoritative: no retry starts whose
            // backoff would end at or after it.
            let retry = transient
                && attempt < policy.max_retries
                && limits.deadline.is_none_or(|at| {
                    Instant::now()
                        .checked_add(backoff)
                        .is_some_and(|end| end < at)
                });
            if retry {
                // Drop the degraded run: its partial coverage (and the
                // degradation footer) must not survive a later success.
                self.runs.truncate(self.runs.len() - 1);
                attempts.push(RetryAttempt {
                    attempt,
                    outcome,
                    limits: eff,
                    backoff: Some(backoff),
                });
                RETRIES.add(1);
                if backoff > Duration::ZERO {
                    std::thread::sleep(backoff);
                }
                attempt += 1;
                continue;
            }
            attempts.push(RetryAttempt {
                attempt,
                outcome,
                limits: eff,
                backoff: None,
            });
            break;
        }
        let report = RetryReport {
            name: name.to_owned(),
            attempts,
        };
        if report.salvaged() {
            SALVAGED.add(1);
        } else if report.attempts.len() > 1 && report.permanent_failure() {
            PERMANENT.add(1);
        }
        report
    }

    /// All testcase results so far.
    pub fn runs(&self) -> &[TestcaseResult] {
        &self.runs
    }

    /// Evaluates coverage over all testcases run so far.
    pub fn coverage(&self) -> Coverage {
        Coverage::evaluate(self.static_analysis(), &self.runs)
    }

    /// Drops all recorded runs (e.g. to replay a reduced testsuite).
    pub fn clear_runs(&mut self) {
        self.runs.clear();
    }

    /// Splits off and returns every run from index `start` on, leaving
    /// the session with its first `start` runs. This is the candidate
    /// protocol of coverage-guided generation: evaluate a batch
    /// ([`DftSession::run_testcases_with`]), take the appended
    /// results for fitness scoring, and [`DftSession::push_run`] back
    /// only the accepted ones — the statics never re-run.
    ///
    /// # Panics
    ///
    /// Panics if `start > self.runs().len()`.
    pub fn take_runs_from(&mut self, start: usize) -> Vec<TestcaseResult> {
        self.runs.split_off(start)
    }

    /// Appends an already-computed run (one previously returned by
    /// [`DftSession::take_runs_from`]) without re-simulating anything.
    pub fn push_run(&mut self, run: TestcaseResult) {
        self.runs.push(run);
    }

    /// Snapshot of the observability registry: per-stage wall times
    /// (`stage.schedule` / `stage.simulate` / `stage.static` /
    /// `stage.match`), reachability-cache hit/miss counts
    /// (`cfg.reach_cache.*`), kernel counters (`sim.*`) and the
    /// per-testcase series `testcase.events` / `testcase.wall` (one sample
    /// per testcase run, whatever its name).
    ///
    /// Empty unless the process runs with `DFT_METRICS=1` (or
    /// `DFT_TRACE=1`); render with [`MetricsReport::to_text`]. The
    /// registry is process-global, so concurrent sessions aggregate into
    /// the same report.
    pub fn metrics(&self) -> MetricsReport {
        MetricsReport::capture()
    }
}

/// Resolves a testcase's monitor bank into verdicts: `end` is the
/// requested run duration, `degraded` whether the simulation actually
/// reached it (a truncated trace keeps observed violations but never
/// reports a pass). `None` — no assertions attached — yields no verdicts.
fn finalize_bank(bank: Option<SharedBank>, end: SimTime, degraded: bool) -> Vec<AssertionVerdict> {
    match bank {
        Some(bank) => {
            let _span = obs::span("stage.monitor");
            bank.lock()
                .unwrap_or_else(|p| p.into_inner())
                .finalize(end, degraded)
        }
        None => Vec::new(),
    }
}

/// The session's one run path: elaborates `cluster` onto the design-wide
/// `interner` and simulates it for `duration` under `limits`, streaming
/// every event into `cursor` (and every sample into `monitor`, when
/// assertions are attached), then records the `testcase.*` metrics.
/// Errors come back as `Ok(Err(_))`, a module panic as `Err`.
///
/// Unwind-safety (the reason `AssertUnwindSafe` is sound here): the
/// closure owns the cluster and the simulator built from it, so a panic
/// can only tear state that dies with the closure. Two borrows cross the
/// unwind boundary. The cursor is borrowed, not locked: after a panic
/// mid-feed it holds exactly what poison recovery handed back when it sat
/// behind a mutex — every earlier event matched, and the final event at
/// worst partly applied, which can only *under*-report that event's
/// coverage. The monitor bank is fed one sample at a time under its
/// mutex, and a panicked run is finalized as degraded anyway.
fn run_isolated(
    mut cluster: Cluster,
    duration: SimTime,
    limits: &RunLimits,
    interner: &Arc<Interner>,
    cursor: &mut MatchCursor<'_>,
    monitor: Option<&SharedBank>,
) -> std::thread::Result<Result<()>> {
    let started = obs::metrics_enabled().then(Instant::now);
    cluster.set_interner(Arc::clone(interner));
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulator::new(cluster)?;
        let _span = obs::span("stage.simulate");
        match monitor {
            Some(bank) => {
                let mut monitored = MonitorSink::new(&mut *cursor, Arc::clone(bank));
                sim.run_with_limits(duration, &mut monitored, limits)?;
            }
            None => {
                sim.run_with_limits(duration, &mut *cursor, limits)?;
            }
        }
        Ok(())
    }));
    if let Some(t0) = started {
        obs::counter_add("testcase.events", cursor.events_fed());
        obs::observe_duration("testcase.wall", t0.elapsed());
    }
    run
}

/// Finishes a run's cursor and monitor bank into its [`TestcaseResult`];
/// `duration` is the requested run length.
fn finish_run(
    name: String,
    cursor: MatchCursor<'_>,
    monitor: Option<SharedBank>,
    duration: SimTime,
    outcome: RunOutcome,
) -> TestcaseResult {
    let (result, bits) = {
        let _span = obs::span("stage.match");
        cursor.finish()
    };
    let verdicts = finalize_bank(monitor, duration, outcome.is_degraded());
    TestcaseResult {
        name,
        exercised: result.exercised,
        defs_executed: result.defs_executed,
        warnings: result.warnings,
        outcome,
        exercised_idx: bits,
        verdicts,
    }
}

/// Maps an isolated run's `catch_unwind` result onto the degraded
/// [`RunOutcome`] taxonomy.
fn outcome_of(run: std::thread::Result<Result<()>>) -> RunOutcome {
    match run {
        Ok(Ok(())) => RunOutcome::Ok,
        Ok(Err(DftError::Sim(
            e @ (TdfError::ActivationLimit { .. }
            | TdfError::EventLimit { .. }
            | TdfError::DeadlineExceeded { .. }),
        ))) => RunOutcome::TimedOut {
            reason: e.to_string(),
        },
        Ok(Err(e)) => RunOutcome::Failed {
            error: e.to_string(),
        },
        Err(payload) => RunOutcome::Panicked {
            payload: panic_payload_str(payload),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::Association;
    use tdf_interp::{Interface, InterpModule, TdfModelDef};
    use tdf_sim::{FaultPlan, FaultyEvents, FnSource, PanicAfter, TdfModule, Value};

    const SRC: &str = "\
void A::processing()
{
    double t = ip_in * 1000;
    double o = 0;
    if (t > 30) { o = t; }
    op_y = o;
}
void B::processing()
{
    double v = ip_x;
    op_z = v;
}";

    fn defs() -> Vec<TdfModelDef> {
        vec![
            TdfModelDef::new(
                "A",
                Interface::new()
                    .input("ip_in")
                    .output("op_y")
                    .timestep(SimTime::from_us(1)),
            ),
            TdfModelDef::new("B", Interface::new().input("ip_x").output("op_z")),
        ]
    }

    /// The `src -> A -> B` cluster on a constant `level` source, each user
    /// module passed through `wrap` (with its index) before it is added.
    fn build_wrapped_cluster(
        level: f64,
        wrap: impl Fn(usize, Box<dyn TdfModule>) -> Box<dyn TdfModule>,
    ) -> (Cluster, Design) {
        let tu = minic::parse(SRC).unwrap();
        let mut cluster = Cluster::new("top");
        let src = cluster
            .add_module(Box::new(FnSource::new(
                "src",
                SimTime::from_us(1),
                move |_| Value::Double(level),
            )))
            .unwrap();
        let mut ids = Vec::new();
        for (i, d) in defs().into_iter().enumerate() {
            let m = InterpModule::new(&tu, &d.model, d.interface.clone()).unwrap();
            ids.push(cluster.add_module(wrap(i, Box::new(m))).unwrap());
        }
        cluster.connect(src, "op_out", ids[0], "ip_in").unwrap();
        cluster.connect(ids[0], "op_y", ids[1], "ip_x").unwrap();
        let design = Design::new(minic::parse(SRC).unwrap(), defs(), cluster.netlist()).unwrap();
        (cluster, design)
    }

    fn build_cluster(level: f64) -> (Cluster, Design) {
        build_wrapped_cluster(level, |_, m| m)
    }

    /// Like `build_cluster`, but module A's event stream passes through a
    /// deterministic fault tap that garbles events — the malformed-log
    /// scenario where match-mode choices become visible.
    fn build_faulty_cluster(level: f64, plan: FaultPlan) -> (Cluster, Design) {
        build_wrapped_cluster(level, |i, m| {
            if i == 0 {
                Box::new(FaultyEvents::new(m, plan.clone()))
            } else {
                m
            }
        })
    }

    /// Like `build_cluster`, but module B panics on its second activation,
    /// after A's first activations have streamed their events.
    fn build_panicking_cluster(level: f64) -> (Cluster, Design) {
        build_wrapped_cluster(level, |i, m| {
            if i == 1 {
                Box::new(PanicAfter::new(m, 1))
            } else {
                m
            }
        })
    }

    /// A cluster without a timestep: elaboration fails before any event.
    fn unelaboratable_cluster() -> Cluster {
        let tu = minic::parse(SRC).unwrap();
        let mut broken = Cluster::new("broken");
        let b = InterpModule::new(&tu, "B", Interface::new().input("ip_x").output("op_z")).unwrap();
        broken.add_module(Box::new(b)).unwrap();
        broken
    }

    #[test]
    fn full_pipeline_covers_expected_pairs() {
        let (cluster, design) = build_cluster(0.1); // 100 mV -> above threshold
        let mut session = DftSession::new(design).unwrap();
        assert!(!session.static_analysis().is_empty());
        session
            .run_testcase("TC1", cluster, SimTime::from_us(3))
            .unwrap();
        let cov = session.coverage();
        // (t, 3, A, 5, A) exercised.
        let idx = cov
            .associations()
            .iter()
            .position(|c| c.assoc == Association::new("t", 3, "A", 5, "A"))
            .expect("static pair exists");
        assert!(cov.is_covered(idx));
        // Cross-model Strong pair: op_y def at 6 used in B line 10.
        let cross = cov
            .associations()
            .iter()
            .position(|c| c.assoc == Association::new("op_y", 6, "A", 10, "B"))
            .expect("cluster pair exists");
        assert!(cov.is_covered(cross));
    }

    #[test]
    fn below_threshold_misses_then_branch_pair() {
        let (cluster, design) = build_cluster(0.01); // 10 mV -> then-branch never taken
        let mut session = DftSession::new(design).unwrap();
        session
            .run_testcase("TC1", cluster, SimTime::from_us(3))
            .unwrap();
        let cov = session.coverage();
        let idx = cov
            .associations()
            .iter()
            .position(|c| c.assoc == Association::new("o", 5, "A", 6, "A"))
            .expect("redefinition pair exists");
        assert!(!cov.is_covered(idx), "o = t never executed");
        assert!(!cov.uncovered().is_empty());
    }

    #[test]
    fn batch_run_matches_sequential_runs() {
        let (c1, design) = build_cluster(0.01);
        let mut seq = DftSession::new(design).unwrap();
        seq.run_testcase("TC1", c1, SimTime::from_us(3)).unwrap();
        let (c2, _) = build_cluster(0.1);
        seq.run_testcase("TC2", c2, SimTime::from_us(3)).unwrap();

        let (b1, design) = build_cluster(0.01);
        let (b2, _) = build_cluster(0.1);
        let mut batch = DftSession::new(design).unwrap();
        let appended = batch.run_testcases(vec![
            TestcaseSpec::new("TC1", b1, SimTime::from_us(3)),
            TestcaseSpec::new("TC2", b2, SimTime::from_us(3)),
        ]);
        assert_eq!(appended.len(), 2);

        assert_eq!(seq.runs().len(), batch.runs().len());
        for (s, b) in seq.runs().iter().zip(batch.runs()) {
            assert_eq!(s.name, b.name);
            assert_eq!(s.exercised, b.exercised);
            assert_eq!(s.defs_executed, b.defs_executed);
            assert_eq!(s.warnings, b.warnings);
        }
        assert_eq!(
            crate::render_table1(&seq.coverage()),
            crate::render_table1(&batch.coverage()),
            "reports byte-identical"
        );
    }

    #[test]
    fn take_and_push_runs_preserve_reports() {
        let (c1, design) = build_cluster(0.01);
        let (c2, _) = build_cluster(0.1);
        let mut session = DftSession::new(design).unwrap();
        session.run_testcases(vec![
            TestcaseSpec::new("TC1", c1, SimTime::from_us(3)),
            TestcaseSpec::new("TC2", c2, SimTime::from_us(3)),
        ]);
        let before = crate::render_table1(&session.coverage());

        // Candidate protocol: take everything, push it back, same report.
        let taken = session.take_runs_from(0);
        assert_eq!(taken.len(), 2);
        assert_eq!(session.runs().len(), 0);
        for run in taken {
            session.push_run(run);
        }
        assert_eq!(crate::render_table1(&session.coverage()), before);

        // Dropping the tail keeps the head intact.
        let tail = session.take_runs_from(1);
        assert_eq!(tail.len(), 1);
        assert_eq!(session.runs().len(), 1);
        assert_eq!(session.runs()[0].name, "TC1");
    }

    #[test]
    fn assertions_evaluate_in_one_pass_across_strategies() {
        use dft_monitor::{AssertionExpr, Verdict};
        // level 0.1 -> t = 100 > 30 -> op_y = 100 from the first activation.
        let specs = vec![
            AssertionSpec::new("cap", AssertionExpr::never_above("A.op_y", 50.0)),
            AssertionSpec::new("floor", AssertionExpr::never_below("A.op_y", -1.0)),
        ];
        let (cluster, design) = build_cluster(0.1);
        let mut session = DftSession::new(design).unwrap().with_assertions(specs);
        session
            .run_testcase("TC1", cluster, SimTime::from_us(3))
            .unwrap();
        // Coverage and verdicts both came out of the same run.
        let run = &session.runs()[0];
        assert!(!run.exercised.is_empty());
        assert_eq!(run.verdicts[0].name, "cap");
        assert_eq!(
            run.verdicts[0].verdict,
            Verdict::Fails {
                first_violation_time: SimTime::ZERO
            },
            "op_y jumps to 100 at the very first activation"
        );
        assert_eq!(run.verdicts[1].verdict, Verdict::Holds);
    }

    #[test]
    fn batch_verdicts_match_single_runs_and_degrade_to_inconclusive() {
        use dft_monitor::{AssertionExpr, Verdict};
        let specs = vec![
            AssertionSpec::new("cap", AssertionExpr::never_above("A.op_y", 50.0)),
            AssertionSpec::new("floor", AssertionExpr::never_below("A.op_y", -1.0)),
        ];
        let (c1, design) = build_cluster(0.1);
        let mut single = DftSession::new(design)
            .unwrap()
            .with_assertions(specs.clone());
        single.run_testcase("TC1", c1, SimTime::from_us(3)).unwrap();

        let (b1, design) = build_cluster(0.1);
        let mut batch = DftSession::new(design)
            .unwrap()
            .with_assertions(specs.clone());
        batch.run_testcases(vec![TestcaseSpec::new("TC1", b1, SimTime::from_us(3))]);
        assert_eq!(single.runs()[0].verdicts, batch.runs()[0].verdicts);

        // A tripped activation budget degrades the run: the latched
        // violation survives, the would-be pass is forced inconclusive.
        let (c2, design) = build_cluster(0.1);
        let mut degraded = DftSession::new(design).unwrap().with_assertions(specs);
        degraded.run_testcases_with(
            vec![TestcaseSpec::new("TC1", c2, SimTime::from_us(3))],
            RunLimits::none().with_max_activations(2),
        );
        let run = &degraded.runs()[0];
        assert!(run.outcome.is_degraded());
        assert!(run.verdicts[0].verdict.is_fail());
        assert_eq!(run.verdicts[1].verdict, Verdict::Inconclusive);
    }

    #[test]
    fn sessions_without_assertions_carry_no_verdicts() {
        let (cluster, design) = build_cluster(0.1);
        let mut session = DftSession::new(design).unwrap();
        session
            .run_testcase("TC1", cluster, SimTime::from_us(3))
            .unwrap();
        assert!(session.runs()[0].verdicts.is_empty());
        assert_eq!(crate::render_verdicts(session.runs()), "");
    }

    #[test]
    fn explicit_thread_counts_are_byte_identical() {
        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let (c1, design) = build_cluster(0.01);
            let (c2, _) = build_cluster(0.1);
            let config = SessionConfig::from_env().with_threads(threads);
            let mut session = DftSession::with_config(design, config).unwrap();
            assert_eq!(
                session.static_analysis(),
                &crate::statics::analyse_with_threads(session.design(), threads),
                "session statics differ from a from-scratch analysis"
            );
            session.run_testcases_with(
                vec![
                    TestcaseSpec::new("TC1", c1, SimTime::from_us(3)),
                    TestcaseSpec::new("TC2", c2, SimTime::from_us(3)),
                ],
                RunLimits::none(),
            );
            reports.push(crate::render_table1(&session.coverage()));
        }
        assert_eq!(reports[0], reports[1]);
    }

    /// The parallel fan-out itself: every build gets a fresh model cache,
    /// so each analyses all its models on 1 or 4 workers instead of
    /// splicing them from an earlier build.
    #[test]
    fn fresh_cache_builds_agree_across_thread_counts() {
        for length in [2usize, 5] {
            let spec = crate::synth::synthetic_chain(length, true);
            let mut outputs = Vec::new();
            for threads in [1usize, 4] {
                let config = SessionConfig::from_env().with_threads(threads);
                let cache = ModelArtifactCache::new(64);
                let design = spec.build_design().unwrap();
                let artifacts = SessionArtifacts::assemble(design, None, &config, &cache);
                assert_eq!(
                    artifacts.models_rebuilt(),
                    artifacts.model_count(),
                    "chain{length} at {threads} threads spliced a model"
                );
                let mut session = DftSession::from_artifacts(artifacts, config);
                let testcases = (0..3).map(|i| {
                    let cluster = spec.build_cluster().unwrap();
                    TestcaseSpec::new(format!("TC{i}"), cluster, SimTime::from_us(40))
                });
                session.run_testcases(testcases.collect());
                let warnings: Vec<_> = session.runs().iter().map(|r| r.warnings.clone()).collect();
                outputs.push((crate::render_table1(&session.coverage()), warnings));
            }
            assert_eq!(
                outputs[0], outputs[1],
                "chain{length} differs by thread count"
            );
        }
    }

    #[test]
    fn metrics_report_covers_all_pipeline_stages() {
        let was_on = obs::metrics_enabled();
        obs::set_metrics_enabled(true);

        let (cluster, design) = build_cluster(0.1);
        // The session's static stage may splice every model from the
        // process-wide cache another test filled, leaving no reachability
        // closure to build; `analyse` never memoizes, so it builds them.
        let _ = crate::statics::analyse(&design);
        let mut session = DftSession::new(design).unwrap();
        session
            .run_testcase("TC_metrics_probe", cluster, SimTime::from_us(3))
            .unwrap();
        let report = session.metrics();
        obs::set_metrics_enabled(was_on);

        assert!(!report.is_empty());
        for stage in [
            "stage.schedule",
            "stage.simulate",
            "stage.static",
            "stage.match",
        ] {
            let t = report
                .timer(stage)
                .unwrap_or_else(|| panic!("{stage} missing"));
            assert!(t.count >= 1, "{stage} recorded no spans");
        }
        assert!(
            report.counter("testcase.events") > 0,
            "per-testcase event count missing"
        );
        assert!(
            report.timer("testcase.wall").is_some(),
            "per-testcase wall timer missing"
        );
        // A testcase's name is client input (serve's custom testcases), so
        // it must not mint metric names in the process-global registry.
        let names = report.counters.keys().chain(report.timers.keys());
        for name in names {
            assert!(!name.contains("TC_metrics_probe"), "metric {name:?}");
        }
        // Static analysis queries reachability repeatedly per Cfg: at least
        // one closure build (miss) and at least one reuse (hit).
        assert!(report.counter("cfg.reach_cache.miss") >= 1);
        assert!(report.counter("cfg.reach_cache.hit") >= 1);
        assert!(report.counter("match.events") > 0);
        // The rendering includes every stage row.
        let text = report.to_text();
        assert!(text.contains("stage.simulate"), "{text}");
    }

    #[test]
    fn failing_testcases_do_not_leak_pooled_buffers() {
        let (warm, design) = build_cluster(0.1);
        let mut session = DftSession::new(design).unwrap();
        session
            .run_testcase("warm", warm, SimTime::from_us(3))
            .unwrap();
        // Elaboration of a timestep-less cluster fails before any event.
        for i in 0..4 {
            let run = session.run_testcase(
                &format!("bad{i}"),
                unelaboratable_cluster(),
                SimTime::from_us(1),
            );
            assert!(run.is_err(), "empty cluster must not elaborate");
        }
    }

    #[test]
    fn run_testcase_errors_and_panics_append_no_run() {
        let (_, design) = build_cluster(0.1);
        let mut session = DftSession::new(design).unwrap();

        let run = session.run_testcase("bad", unelaboratable_cluster(), SimTime::from_us(1));
        assert!(run.is_err(), "elaboration failure is an error");
        assert!(session.runs().is_empty(), "a failed run is not appended");

        let (panicking, _) = build_panicking_cluster(0.1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _ = session.run_testcase("boom", panicking, SimTime::from_us(3));
        }));
        assert!(
            caught.is_err(),
            "a module panic unwinds out of run_testcase"
        );
        assert!(session.runs().is_empty(), "a panicked run is not appended");

        // The same cluster in a batch degrades instead, keeping what A
        // streamed before B panicked.
        let (panicking, _) = build_panicking_cluster(0.1);
        session.run_testcases(vec![TestcaseSpec::new(
            "boom",
            panicking,
            SimTime::from_us(3),
        )]);
        let run = &session.runs()[0];
        assert!(
            matches!(run.outcome, RunOutcome::Panicked { .. }),
            "{:?}",
            run.outcome
        );
        assert!(
            run.exercised
                .contains(&Association::new("t", 3, "A", 5, "A")),
            "partial coverage survives the panic"
        );
    }

    #[test]
    fn single_and_batch_of_one_agree_on_malformed_logs() {
        // Ghost models/vars and warped timestamps in the event stream:
        // before the mode unification, a single run (Strict) reported
        // differently from a batch of one (Lenient) on exactly this input.
        let plan = FaultPlan::new().with_seed(11).with_corrupt_events(0.5);
        let (c_single, design) = build_faulty_cluster(0.1, plan.clone());
        let mut single = DftSession::new(design).unwrap();
        single
            .run_testcase("TC", c_single, SimTime::from_us(5))
            .unwrap();

        let (c_batch, design) = build_faulty_cluster(0.1, plan);
        let mut batch = DftSession::new(design).unwrap();
        batch.run_testcases(vec![TestcaseSpec::new("TC", c_batch, SimTime::from_us(5))]);

        let s = &single.runs()[0];
        let b = &batch.runs()[0];
        assert_eq!(s.exercised, b.exercised);
        assert_eq!(s.defs_executed, b.defs_executed);
        assert_eq!(s.warnings, b.warnings);
        assert_eq!(
            crate::render_table1(&single.coverage()),
            crate::render_table1(&batch.coverage()),
            "batch-of-one must report like a single run"
        );
    }

    #[test]
    fn adding_testcases_grows_coverage_monotonically() {
        let (c1, design) = build_cluster(0.01);
        let mut session = DftSession::new(design).unwrap();
        session
            .run_testcase("TC1", c1, SimTime::from_us(3))
            .unwrap();
        let before = session.coverage().exercised_count();
        let (c2, _) = build_cluster(0.1);
        session
            .run_testcase("TC2", c2, SimTime::from_us(3))
            .unwrap();
        let after = session.coverage().exercised_count();
        assert!(
            after > before,
            "TC2 exercises the hot branch: {before} -> {after}"
        );
        assert_eq!(session.runs().len(), 2);
        session.clear_runs();
        assert_eq!(session.coverage().exercised_count(), 0);
    }
}
