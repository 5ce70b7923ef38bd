//! The coverage-guided search engine: the paper's "tests addition" loop
//! (Fig. 3) closed automatically.
//!
//! Each iteration synthesizes a batch of candidate testcases (fresh
//! random, mutations of accepted suite members, and channel crossovers),
//! evaluates the whole batch through the budget-bounded
//! [`DftSession::run_testcases_with`] pipeline, scores every
//! candidate by the *class-weighted newly exercised* associations it
//! contributes, and greedily accepts candidates while they still add
//! coverage. Accepted cases become the next [`stimuli::Testsuite`]
//! iteration — exactly the refinement structure of Table II, grown by
//! search instead of by hand.
//!
//! Determinism: all RNG draws, simulations and acceptance decisions happen
//! on the single-threaded control path. A fixed `(seed, config)` therefore
//! produces byte-identical suites and reports at any `DFT_THREADS`.

use std::collections::HashSet;

use dft_core::{
    AssertionSpec, Classification, Coverage, Design, DftSession, Result, TestcaseResult,
    TestcaseSpec,
};
use stimuli::{Testcase, Testsuite};
use tdf_sim::{Cluster, RunLimits, SimTime};

use crate::minimize::greedy_minimize;
use crate::mutate::{crossover, mutate_testcase, random_testcase, ChannelSpec};
use crate::report::{GenIterationRow, GenReport};
use crate::rng::GenRng;

static GEN_ITERATIONS: obs::Counter = obs::Counter::new("gen.iterations");
static GEN_CANDIDATES: obs::Counter = obs::Counter::new("gen.candidates");
static GEN_ACCEPTED: obs::Counter = obs::Counter::new("gen.accepted");

/// Per-class fitness weights. Rare classes weigh more, so a candidate
/// that exercises one hard `PFirm`/`PWeak` pair beats one that sweeps up
/// a handful of easy `Strong` pairs. Weights are integers: candidate
/// scores are integer sums, which keeps scoring independent of the order
/// exercised sets are traversed in (no float-accumulation drift).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassWeights {
    /// Weight of a newly exercised Strong association.
    pub strong: u64,
    /// Weight of a newly exercised Firm association.
    pub firm: u64,
    /// Weight of a newly exercised PFirm association.
    pub pfirm: u64,
    /// Weight of a newly exercised PWeak association.
    pub pweak: u64,
}

impl Default for ClassWeights {
    fn default() -> Self {
        ClassWeights {
            strong: 1,
            firm: 2,
            pfirm: 8,
            pweak: 8,
        }
    }
}

impl ClassWeights {
    /// The weight of one classification.
    pub fn of(&self, class: Classification) -> u64 {
        match class {
            Classification::Strong => self.strong,
            Classification::Firm => self.firm,
            Classification::PFirm => self.pfirm,
            Classification::PWeak => self.pweak,
        }
    }
}

/// Search knobs. The defaults suit the three case-study models; shrink
/// `max_iterations`/`candidates_per_iteration` for smoke tests.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// RNG seed; a fixed seed reproduces the whole run byte-for-byte.
    pub seed: u64,
    /// Hard cap on refinement iterations.
    pub max_iterations: usize,
    /// Candidates synthesized and evaluated per iteration.
    pub candidates_per_iteration: usize,
    /// Stop after this many consecutive iterations without new coverage.
    pub stagnation_limit: usize,
    /// Per-candidate simulation budgets — hostile candidates degrade
    /// ([`dft_core::RunOutcome`]) instead of hanging the search.
    pub limits: RunLimits,
    /// Fitness weights per association class.
    pub weights: ClassWeights,
    /// Optional early-exit target: stop once this many distinct static
    /// associations are exercised (e.g. a hand-suite baseline to match).
    pub target_exercised: Option<usize>,
    /// Fitness bonus per assertion a candidate is the *first* to falsify
    /// (see [`Generator::with_assertions`]). Integer, like the class
    /// weights, so scoring stays byte-deterministic; 0 disables
    /// assertion-guided search even with assertions attached.
    pub assertion_weight: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 1,
            max_iterations: 20,
            candidates_per_iteration: 24,
            stagnation_limit: 6,
            limits: RunLimits::none()
                .with_max_activations(2_000_000)
                .with_wall_budget(std::time::Duration::from_secs(10)),
            weights: ClassWeights::default(),
            target_exercised: None,
            assertion_weight: 16,
        }
    }
}

/// What a finished generation run produced.
#[derive(Debug)]
pub struct GenOutcome {
    /// The generated suite, one [`Testsuite`] iteration per accepted
    /// refinement round (iteration 0 is the seed suite when one was
    /// given).
    pub suite: Testsuite,
    /// Greedily minimized subset of the accepted cases that preserves the
    /// full exercised-association set.
    pub minimized: Vec<Testcase>,
    /// Final coverage of the full generated suite.
    pub coverage: Coverage,
    /// Number of distinct static associations the minimized subset
    /// exercises (equal to `coverage.exercised_count()` by construction).
    pub minimized_exercised: usize,
    /// Per-iteration trajectory in the paper's Table II shape.
    pub report: GenReport,
}

/// The per-candidate cluster builder a [`Generator`] drives.
type BuildFn = Box<dyn Fn(&Testcase) -> Result<Cluster>>;

/// One accepted testcase with its exercised static-association indices.
struct Accepted {
    case: Testcase,
    exercised: Vec<usize>,
}

/// The coverage-guided testcase generator for one design.
///
/// ```no_run
/// # fn design() -> dft_core::Design { unimplemented!() }
/// # fn build(_tc: &stimuli::Testcase) -> dft_core::Result<tdf_sim::Cluster> { unimplemented!() }
/// use testgen::{ChannelSpec, GenConfig, Generator};
/// use tdf_sim::SimTime;
///
/// let channels = vec![ChannelSpec::new("ts_in", -0.1, 1.6)];
/// let gen = Generator::new(design(), channels, SimTime::from_ms(2), build, GenConfig::default())?;
/// let outcome = gen.run();
/// println!("{}", outcome.report.render());
/// # Ok::<(), dft_core::DftError>(())
/// ```
pub struct Generator {
    session: DftSession,
    build: BuildFn,
    channels: Vec<ChannelSpec>,
    duration: SimTime,
    cfg: GenConfig,
    rng: GenRng,
    /// `covered[i]`: static association `i` exercised by the accepted
    /// suite so far.
    covered: Vec<bool>,
    /// Per-association fitness weight, static index order.
    weight: Vec<u64>,
    accepted: Vec<Accepted>,
    suite: Testsuite,
    rows: Vec<GenIterationRow>,
    candidate_counter: usize,
    /// Assertion names already falsified by an accepted candidate; later
    /// falsifications of the same assertion score nothing (one witness
    /// per property is enough).
    falsified: HashSet<String>,
}

impl Generator {
    /// Creates a generator: runs the static stage once (associations are
    /// the search targets) and prepares an empty suite.
    ///
    /// # Errors
    ///
    /// Propagates static-stage construction errors.
    pub fn new(
        design: Design,
        channels: Vec<ChannelSpec>,
        duration: SimTime,
        build: impl Fn(&Testcase) -> Result<Cluster> + 'static,
        cfg: GenConfig,
    ) -> Result<Generator> {
        assert!(!channels.is_empty(), "generator needs at least one channel");
        assert!(!duration.is_zero(), "candidate duration must be positive");
        let session = DftSession::new(design)?;
        let statics = session.static_analysis();
        let n = statics.associations.len();
        // Fitness targets the unsubsumed frontier: a subsumed association
        // is exercised for free whenever its frontier implier is, so it
        // gets the minimum positive weight instead of its class weight.
        // (Weight 1, not 0: `done()` and the coverage ledger stay raw, and
        // a candidate that *only* closes subsumed pairs must still score.)
        let weight = statics
            .associations
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if !statics.subsumption.is_tracked(i) {
                    1
                } else {
                    cfg.weights.of(c.class)
                }
            })
            .collect();
        let rng = GenRng::new(cfg.seed);
        let suite = Testsuite::new("generated");
        Ok(Generator {
            session,
            build: Box::new(build),
            channels,
            duration,
            cfg,
            rng,
            covered: vec![false; n],
            weight,
            accepted: Vec::new(),
            suite,
            rows: Vec::new(),
            candidate_counter: 0,
            falsified: HashSet::new(),
        })
    }

    /// Attaches assertions to the underlying session (builder style):
    /// every candidate is monitored while it simulates, and a candidate
    /// that is the first to **falsify** an assertion earns
    /// [`GenConfig::assertion_weight`] on top of its coverage score — the
    /// search chases property violations as first-class targets alongside
    /// uncovered associations. Degraded candidates can still earn the
    /// bonus (a witnessed violation is real no matter how the run ended).
    pub fn with_assertions(mut self, assertions: Vec<AssertionSpec>) -> Generator {
        self.session.set_assertions(assertions);
        self
    }

    /// Assertion names falsified by accepted candidates so far.
    pub fn falsified(&self) -> &HashSet<String> {
        &self.falsified
    }

    /// Names the generated suite (and report) after the system under
    /// test; the default name is `generated`.
    pub fn named(mut self, system: impl Into<String>) -> Generator {
        self.suite.name = system.into();
        self
    }

    /// Seeds the search with an existing suite (the paper's hand-written
    /// initial testbench): every seed case is evaluated and kept
    /// unconditionally as iteration 0, and the search then only chases
    /// what the seed leaves uncovered.
    pub fn seed_suite(&mut self, seed: &Testsuite) {
        let cases: Vec<Testcase> = seed.all().to_vec();
        let evaluated = self.evaluate(&cases);
        let mut iteration = Vec::new();
        for (case, exercised, run) in evaluated {
            for &i in &exercised {
                self.covered[i] = true;
            }
            for v in &run.verdicts {
                if v.verdict.is_fail() {
                    self.falsified.insert(v.name.clone());
                }
            }
            self.session.push_run(run);
            self.accepted.push(Accepted {
                case: case.clone(),
                exercised,
            });
            iteration.push(case);
        }
        let n_seed = iteration.len();
        self.suite.add_iteration(iteration);
        self.push_row(n_seed, n_seed);
    }

    /// Runs the search to completion and returns the generated suite,
    /// its minimized subset, final coverage and the iteration report.
    pub fn run(mut self) -> GenOutcome {
        let mut stagnant = 0;
        while self.suite.iterations() < self.cfg.max_iterations {
            if self.done() {
                break;
            }
            GEN_ITERATIONS.add(1);
            let candidates = {
                let _span = obs::span("stage.generate");
                self.synthesize_batch()
            };
            GEN_CANDIDATES.add(candidates.len() as u64);
            let evaluated = self.evaluate(&candidates);
            let accepted = {
                let _span = obs::span("stage.generate");
                self.accept_greedily(evaluated)
            };
            GEN_ACCEPTED.add(accepted as u64);
            self.push_row(candidates.len(), accepted);
            if accepted == 0 {
                stagnant += 1;
                if stagnant >= self.cfg.stagnation_limit {
                    break;
                }
            } else {
                stagnant = 0;
            }
        }
        self.finish()
    }

    /// Whether a stop target is already met: every static association
    /// exercised (the all-dataflow criterion the paper's loop closes on),
    /// or the caller's explicit `target_exercised`.
    fn done(&self) -> bool {
        if self.covered.is_empty() {
            return true;
        }
        let exercised = self.covered.iter().filter(|&&c| c).count();
        if let Some(target) = self.cfg.target_exercised {
            if exercised >= target {
                return true;
            }
        }
        exercised == self.covered.len()
    }

    /// Synthesizes one candidate batch: mutations of accepted members,
    /// crossovers, and fresh random cases.
    fn synthesize_batch(&mut self) -> Vec<Testcase> {
        let mut batch = Vec::with_capacity(self.cfg.candidates_per_iteration);
        for _ in 0..self.cfg.candidates_per_iteration {
            self.candidate_counter += 1;
            let name = format!("c{}", self.candidate_counter);
            let tc = if self.accepted.is_empty() {
                random_testcase(&mut self.rng, name, &self.channels, self.duration)
            } else {
                let roll = self.rng.next_f64();
                if roll < 0.45 {
                    let p = self.rng.index(self.accepted.len());
                    mutate_testcase(
                        &mut self.rng,
                        &self.accepted[p].case,
                        name,
                        &self.channels,
                        self.duration,
                    )
                } else if roll < 0.70 && self.accepted.len() >= 2 {
                    let a = self.rng.index(self.accepted.len());
                    let b = self.rng.index(self.accepted.len());
                    crossover(
                        &mut self.rng,
                        &self.accepted[a].case,
                        &self.accepted[b].case,
                        name,
                        &self.channels,
                        self.duration,
                    )
                } else {
                    random_testcase(&mut self.rng, name, &self.channels, self.duration)
                }
            };
            batch.push(tc);
        }
        batch
    }

    /// Evaluates candidates through the session under the configured
    /// budgets and returns `(testcase, exercised static indices, run)`
    /// per candidate, batch order, with the indices ascending. Candidates whose cluster fails to
    /// build are dropped (counted, never fatal); the session's run list
    /// is left exactly as it was. Each candidate is matched *while it
    /// simulates*, so large candidate batches never materialize
    /// per-candidate event logs.
    fn evaluate(&mut self, candidates: &[Testcase]) -> Vec<(Testcase, Vec<usize>, TestcaseResult)> {
        let mut specs = Vec::with_capacity(candidates.len());
        let mut built = Vec::with_capacity(candidates.len());
        for tc in candidates {
            match (self.build)(tc) {
                Ok(cluster) => {
                    specs.push(TestcaseSpec::new(&tc.name, cluster, tc.duration));
                    built.push(tc.clone());
                }
                Err(_) => obs::counter_add("gen.build_failed", 1),
            }
        }
        let start = self.session.runs().len();
        self.session.run_testcases_with(specs, self.cfg.limits);
        let runs = self.session.take_runs_from(start);
        built
            .into_iter()
            .zip(runs)
            .map(|(tc, run)| (tc, run.exercised_idx.iter().collect(), run))
            .collect()
    }

    /// Greedy acceptance: repeatedly take the candidate with the highest
    /// class-weighted new-coverage score (ties to the earliest batch
    /// index), fold its coverage in, and re-score the rest; stop when no
    /// candidate adds anything. Accepted cases are renamed `G1, G2, …`
    /// in acceptance order and appended to the suite and the session.
    fn accept_greedily(&mut self, mut pool: Vec<(Testcase, Vec<usize>, TestcaseResult)>) -> usize {
        static GEN_FALSIFIED: obs::Counter = obs::Counter::new("gen.assertions_falsified");
        let mut iteration_cases = Vec::new();
        loop {
            let mut best: Option<(usize, u64)> = None;
            for (i, (_, exercised, run)) in pool.iter().enumerate() {
                let coverage_score: u64 = exercised
                    .iter()
                    .filter(|&&idx| !self.covered[idx])
                    .map(|&idx| self.weight[idx])
                    .sum();
                // A candidate that is the first to falsify an assertion
                // is a finding in itself (a stimulus witnessing a
                // property violation), so it earns weight even when it
                // adds no new coverage. Verdicts are iterated in spec
                // order and the bonus is an integer sum, keeping the
                // score byte-deterministic.
                let falsify_score: u64 = run
                    .verdicts
                    .iter()
                    .filter(|v| v.verdict.is_fail() && !self.falsified.contains(&v.name))
                    .count() as u64
                    * self.cfg.assertion_weight;
                let score = coverage_score + falsify_score;
                if score > 0 && best.is_none_or(|(_, s)| score > s) {
                    best = Some((i, score));
                }
            }
            let Some((i, _)) = best else { break };
            let (mut case, exercised, mut run) = pool.remove(i);
            let gname = format!("G{}", self.accepted.len() + 1);
            case.name = gname.clone();
            run.name = gname;
            for &idx in &exercised {
                self.covered[idx] = true;
            }
            for v in &run.verdicts {
                if v.verdict.is_fail() && self.falsified.insert(v.name.clone()) {
                    GEN_FALSIFIED.add(1);
                }
            }
            self.session.push_run(run);
            self.accepted.push(Accepted {
                case: case.clone(),
                exercised,
            });
            iteration_cases.push(case);
        }
        let n = iteration_cases.len();
        self.suite.add_iteration(iteration_cases);
        n
    }

    /// Records one Table-II-shaped trajectory row for the iteration that
    /// just closed.
    fn push_row(&mut self, candidates: usize, accepted: usize) {
        let iteration = self.suite.iterations() - 1;
        let cov = self.session.coverage();
        self.rows.push(GenIterationRow::new(
            iteration,
            candidates,
            accepted,
            self.suite.size_at(iteration),
            &cov,
        ));
    }

    /// Minimizes, packages the outcome.
    fn finish(self) -> GenOutcome {
        let sets: Vec<&[usize]> = self
            .accepted
            .iter()
            .map(|a| a.exercised.as_slice())
            .collect();
        let selected = greedy_minimize(&sets, &self.weight);
        let minimized: Vec<Testcase> = selected
            .iter()
            .map(|&i| self.accepted[i].case.clone())
            .collect();
        let mut union = vec![false; self.covered.len()];
        for &i in &selected {
            for &idx in &self.accepted[i].exercised {
                union[idx] = true;
            }
        }
        let minimized_exercised = union.iter().filter(|&&c| c).count();
        let coverage = self.session.coverage();
        let report = GenReport {
            system: self.suite.name.clone(),
            seed: self.cfg.seed,
            rows: self.rows,
        };
        GenOutcome {
            suite: self.suite,
            minimized,
            coverage,
            minimized_exercised,
            report,
        }
    }
}
