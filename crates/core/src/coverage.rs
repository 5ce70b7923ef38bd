//! Stage 3 of Fig. 3: coverage evaluation — combining the static
//! association set with per-testcase exercised sets into a coverage result
//! and the test-adequacy criteria of §IV-B.2.
//!
//! This stage only sees exercised [`BitSet`]s, so it is agnostic to how
//! stage 2 produced them — a whole recorded log or the streamed
//! [`crate::MatchCursor`] yield bit-identical inputs here.

use std::collections::HashSet;

use dataflow::BitSet;
use dft_monitor::AssertionVerdict;

use crate::assoc::{Association, Classification, ClassifiedAssoc};
use crate::dynamic::DynamicWarning;
use crate::statics::StaticAnalysis;

/// The test-adequacy criteria of §IV-B.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Criterion {
    /// All Strong associations covered.
    AllStrong,
    /// All Firm associations covered.
    AllFirm,
    /// All PFirm associations covered.
    AllPFirm,
    /// All PWeak associations covered.
    AllPWeak,
    /// At least one association covered per definition.
    AllDefs,
    /// Every association covered once — the classical all-uses criterion
    /// (each definition reaches each of its uses).
    AllUses,
    /// All of the above.
    AllDataflow,
}

impl std::fmt::Display for Criterion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Criterion::AllStrong => "all-Strong",
            Criterion::AllFirm => "all-Firm",
            Criterion::AllPFirm => "all-PFirm",
            Criterion::AllPWeak => "all-PWeak",
            Criterion::AllDefs => "all-defs",
            Criterion::AllUses => "all-uses",
            Criterion::AllDataflow => "all-dataflow",
        };
        write!(f, "{s}")
    }
}

/// How one testcase's simulation ended. Anything but [`RunOutcome::Ok`]
/// means the event log is partial: whatever was recorded before the
/// failure still contributes to coverage, and reports annotate the
/// degradation ([`crate::render_table1`] appends a footer naming the
/// degraded testcases).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum RunOutcome {
    /// Simulation covered the full requested duration.
    #[default]
    Ok,
    /// Elaboration or simulation returned an error.
    Failed {
        /// The rendered error.
        error: String,
    },
    /// A [`tdf_sim::RunLimits`] budget tripped (activations, events or
    /// wall clock) before the duration was covered.
    TimedOut {
        /// Which budget tripped, rendered.
        reason: String,
    },
    /// A module panicked mid-simulation; the panic was caught and
    /// isolated to this testcase.
    Panicked {
        /// The panic payload (message), when it was a string.
        payload: String,
    },
}

impl RunOutcome {
    /// True for every outcome except [`RunOutcome::Ok`].
    pub fn is_degraded(&self) -> bool {
        !matches!(self, RunOutcome::Ok)
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Ok => write!(f, "ok"),
            RunOutcome::Failed { error } => write!(f, "failed: {error}"),
            RunOutcome::TimedOut { reason } => write!(f, "timed out: {reason}"),
            RunOutcome::Panicked { payload } => write!(f, "panicked: {payload}"),
        }
    }
}

/// One executed testcase: its name and what it exercised.
#[derive(Debug, Clone, Default)]
pub struct TestcaseResult {
    /// Testcase name (e.g. `TC1`).
    pub name: String,
    /// Associations exercised by this testcase (static or not), by name.
    /// Coverage reads [`TestcaseResult::exercised_idx`] instead.
    pub exercised: HashSet<Association>,
    /// Definition sites `(model, var, line)` that executed at least once.
    pub defs_executed: HashSet<(String, String, u32)>,
    /// Runtime warnings raised during the run.
    pub warnings: Vec<DynamicWarning>,
    /// How the simulation ended; a degraded outcome means `exercised` was
    /// computed from a partial event log.
    pub outcome: RunOutcome,
    /// Exercised static associations as a bitset over
    /// [`StaticAnalysis::associations`] indices, as the session's
    /// [`MatchAutomaton`](crate::MatchAutomaton) produced it: the only
    /// record [`Coverage::evaluate`] reads. It agrees with `exercised`
    /// restricted to the static set. A run that never simulated (the
    /// default, capacity 0) covers nothing.
    pub exercised_idx: BitSet,
    /// Per-assertion verdicts, in spec order, when the session ran with
    /// assertions attached ([`DftSession::with_assertions`]); empty
    /// otherwise. Degraded runs keep observed `Fails` verdicts but report
    /// everything else `Inconclusive`.
    ///
    /// [`DftSession::with_assertions`]: crate::DftSession::with_assertions
    pub verdicts: Vec<AssertionVerdict>,
}

/// Why an uncovered association was missed (see
/// [`Coverage::diagnose_uncovered`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UncoveredReason {
    /// No testcase ever executed the definition statement — steer control
    /// flow to the def first (or the def is dead/infeasible code).
    DefinitionNeverExecuted,
    /// The definition executed, but its value never flowed to this use —
    /// a path/redefinition problem between def and use.
    FlowNotObserved,
}

impl std::fmt::Display for UncoveredReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UncoveredReason::DefinitionNeverExecuted => {
                write!(f, "definition never executed")
            }
            UncoveredReason::FlowNotObserved => write!(f, "flow not observed"),
        }
    }
}

/// The combined coverage result over a testsuite.
#[derive(Debug, Clone)]
pub struct Coverage {
    associations: Vec<ClassifiedAssoc>,
    /// One bitset per testcase over association indices: bit `i` of
    /// `covered[t]` means association `i` was exercised by testcase `t`.
    covered: Vec<BitSet>,
    /// Union of all testcase columns (bit `i`: covered by any testcase).
    any: BitSet,
    tc_names: Vec<String>,
    /// Per-testcase run outcomes, column order (same indexing as
    /// `tc_names`).
    outcomes: Vec<RunOutcome>,
}

impl Coverage {
    /// Evaluates `runs` against the static association set.
    ///
    /// Each run's column is its [`TestcaseResult::exercised_idx`] bitset,
    /// so exercised associations that the static stage did not predict
    /// (static analysis is an over- *and* under-approximation at the
    /// boundaries, e.g. member initial values) are ignored, as in the
    /// paper's tool. A bitset of capacity 0 — a run that never simulated,
    /// such as a placeholder for a testcase that failed to build — covers
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if a run's bitset has another nonzero capacity than the
    /// number of static associations (it indexes another static
    /// analysis).
    pub fn evaluate(statics: &StaticAnalysis, runs: &[TestcaseResult]) -> Coverage {
        let associations = statics.associations.clone();
        let n = associations.len();
        let covered: Vec<BitSet> = runs
            .iter()
            .map(|r| match r.exercised_idx.capacity() {
                0 => BitSet::new(n),
                cap => {
                    assert_eq!(cap, n, "run {:?} indexes another static analysis", r.name);
                    r.exercised_idx.clone()
                }
            })
            .collect();
        let mut any = BitSet::new(n);
        for bits in &covered {
            any.union_with(bits);
        }
        Coverage {
            associations,
            covered,
            any,
            tc_names: runs.iter().map(|r| r.name.clone()).collect(),
            outcomes: runs.iter().map(|r| r.outcome.clone()).collect(),
        }
    }

    /// The classified associations, report order.
    pub fn associations(&self) -> &[ClassifiedAssoc] {
        &self.associations
    }

    /// Testcase names, column order.
    pub fn testcase_names(&self) -> &[String] {
        &self.tc_names
    }

    /// Per-testcase run outcomes, column order (parallel to
    /// [`Coverage::testcase_names`]).
    pub fn outcomes(&self) -> &[RunOutcome] {
        &self.outcomes
    }

    /// `(name, outcome)` of every testcase that did not finish cleanly —
    /// their coverage columns were computed from partial event logs.
    pub fn degraded(&self) -> Vec<(&str, &RunOutcome)> {
        self.tc_names
            .iter()
            .zip(&self.outcomes)
            .filter(|(_, o)| o.is_degraded())
            .map(|(n, o)| (n.as_str(), o))
            .collect()
    }

    /// Whether association `i` was exercised by any testcase.
    pub fn is_covered(&self, i: usize) -> bool {
        assert!(
            i < self.associations.len(),
            "association index out of range"
        );
        self.any.contains(i)
    }

    /// Whether association `i` was exercised by testcase `t`.
    pub fn is_covered_by(&self, i: usize, t: usize) -> bool {
        assert!(
            i < self.associations.len(),
            "association index out of range"
        );
        self.covered[t].contains(i)
    }

    /// `(covered, total)` for one classification.
    pub fn class_ratio(&self, class: Classification) -> (usize, usize) {
        let mut covered = 0;
        let mut total = 0;
        for (i, c) in self.associations.iter().enumerate() {
            if c.class == class {
                total += 1;
                if self.is_covered(i) {
                    covered += 1;
                }
            }
        }
        (covered, total)
    }

    /// Coverage percentage of one classification (`None` when the class has
    /// no associations, like PFirm in the paper's window lifter study).
    pub fn class_percent(&self, class: Classification) -> Option<f64> {
        let (c, t) = self.class_ratio(class);
        if t == 0 {
            None
        } else {
            Some(100.0 * c as f64 / t as f64)
        }
    }

    /// `(covered, total)` over all associations.
    pub fn total_ratio(&self) -> (usize, usize) {
        let covered = (0..self.associations.len())
            .filter(|&i| self.is_covered(i))
            .count();
        (covered, self.associations.len())
    }

    /// Overall coverage percentage.
    pub fn total_percent(&self) -> f64 {
        let (c, t) = self.total_ratio();
        if t == 0 {
            100.0
        } else {
            100.0 * c as f64 / t as f64
        }
    }

    /// Number of distinct static associations exercised (the paper's
    /// "Dynamic (#)" column of Table II).
    pub fn exercised_count(&self) -> usize {
        self.total_ratio().0
    }

    /// Associations exercised by `self` but not by `earlier` — the
    /// newly-exercised set a refinement iteration contributed.
    ///
    /// Both results must come from the same static stage (the association
    /// vectors are compared index-wise, never rescanned per element), so
    /// fitness scoring over many candidate coverages is `O(associations)`
    /// per candidate instead of `O(associations²)`.
    ///
    /// # Panics
    ///
    /// Panics if the two coverages have different static association sets.
    pub fn delta(&self, earlier: &Coverage) -> Vec<&ClassifiedAssoc> {
        assert_eq!(
            self.associations.len(),
            earlier.associations.len(),
            "delta requires coverages over the same static analysis"
        );
        debug_assert!(self
            .associations
            .iter()
            .zip(&earlier.associations)
            .all(|(a, b)| a.assoc == b.assoc));
        self.associations
            .iter()
            .enumerate()
            .filter(|(i, _)| self.is_covered(*i) && !earlier.is_covered(*i))
            .map(|(_, c)| c)
            .collect()
    }

    /// Associations never exercised — the work list guiding testcase
    /// addition ("tests addition" loop of Fig. 3).
    pub fn uncovered(&self) -> Vec<&ClassifiedAssoc> {
        self.associations
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.is_covered(*i))
            .map(|(_, c)| c)
            .collect()
    }

    /// Whether `criterion` is satisfied. Class criteria are vacuously
    /// satisfied when the class is empty.
    pub fn satisfies(&self, criterion: Criterion) -> bool {
        match criterion {
            Criterion::AllStrong => self.class_satisfied(Classification::Strong),
            Criterion::AllFirm => self.class_satisfied(Classification::Firm),
            Criterion::AllPFirm => self.class_satisfied(Classification::PFirm),
            Criterion::AllPWeak => self.class_satisfied(Classification::PWeak),
            Criterion::AllDefs => self.all_defs_satisfied(),
            Criterion::AllUses => {
                let (c, t) = self.total_ratio();
                c == t
            }
            Criterion::AllDataflow => {
                Classification::ALL
                    .into_iter()
                    .all(|c| self.class_satisfied(c))
                    && self.all_defs_satisfied()
            }
        }
    }

    fn class_satisfied(&self, class: Classification) -> bool {
        let (c, t) = self.class_ratio(class);
        c == t
    }

    /// Triages every uncovered association per the paper's §IV-A: "an
    /// association can be missed due to 1) the testsuite is insufficient to
    /// cover it ... 2) the association is infeasible". The runtime def log
    /// splits the first case further: if the definition never executed, a
    /// testcase steering control flow to the *def* is needed; if it did,
    /// the def→use flow itself was never observed.
    pub fn diagnose_uncovered<'a>(
        &'a self,
        runs: &[TestcaseResult],
    ) -> Vec<(&'a ClassifiedAssoc, UncoveredReason)> {
        self.associations
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.is_covered(*i))
            .map(|(_, c)| {
                let coord = (
                    c.assoc.def_model.clone(),
                    c.assoc.var.clone(),
                    c.assoc.def_line,
                );
                let def_ran = runs.iter().any(|r| r.defs_executed.contains(&coord));
                let reason = if def_ran {
                    UncoveredReason::FlowNotObserved
                } else {
                    UncoveredReason::DefinitionNeverExecuted
                };
                (c, reason)
            })
            .collect()
    }

    fn all_defs_satisfied(&self) -> bool {
        let mut coords: Vec<(&str, u32, &str)> = Vec::new();
        for c in &self.associations {
            let coord = c.assoc.def_coord();
            if !coords.contains(&coord) {
                coords.push(coord);
            }
        }
        coords.iter().all(|coord| {
            self.associations
                .iter()
                .enumerate()
                .any(|(i, c)| c.assoc.def_coord() == *coord && self.is_covered(i))
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn statics_with(assocs: Vec<(Association, Classification)>) -> StaticAnalysis {
        StaticAnalysis {
            associations: assocs
                .into_iter()
                .map(|(assoc, class)| ClassifiedAssoc { assoc, class })
                .collect(),
            lints: Vec::new(),
            subsumption: Default::default(),
        }
    }

    /// A run of `st`'s session that exercised `exercised`.
    pub(crate) fn run(
        st: &StaticAnalysis,
        name: &str,
        exercised: &[Association],
    ) -> TestcaseResult {
        let mut bits = BitSet::new(st.associations.len());
        for (i, c) in st.associations.iter().enumerate() {
            if exercised.contains(&c.assoc) {
                bits.insert(i);
            }
        }
        TestcaseResult {
            name: name.into(),
            exercised: exercised.iter().cloned().collect(),
            exercised_idx: bits,
            ..TestcaseResult::default()
        }
    }

    fn a(var: &str, d: u32, u: u32) -> Association {
        Association::new(var, d, "M", u, "M")
    }

    #[test]
    fn ratios_and_percentages() {
        let st = statics_with(vec![
            (a("x", 1, 2), Classification::Strong),
            (a("x", 1, 3), Classification::Strong),
            (a("y", 4, 5), Classification::Firm),
        ]);
        let cov = Coverage::evaluate(&st, &[run(&st, "TC1", &[a("x", 1, 2)])]);
        assert_eq!(cov.class_ratio(Classification::Strong), (1, 2));
        assert_eq!(cov.class_ratio(Classification::Firm), (0, 1));
        assert_eq!(cov.class_percent(Classification::Strong), Some(50.0));
        assert_eq!(cov.class_percent(Classification::PWeak), None);
        assert_eq!(cov.total_ratio(), (1, 3));
        assert_eq!(cov.exercised_count(), 1);
        assert_eq!(cov.uncovered().len(), 2);
    }

    #[test]
    fn multiple_testcases_union() {
        let st = statics_with(vec![
            (a("x", 1, 2), Classification::Strong),
            (a("y", 4, 5), Classification::Firm),
        ]);
        let cov = Coverage::evaluate(
            &st,
            &[
                run(&st, "TC1", &[a("x", 1, 2)]),
                run(&st, "TC2", &[a("y", 4, 5)]),
            ],
        );
        assert!(cov.is_covered(0) && cov.is_covered(1));
        assert!(cov.is_covered_by(0, 0) && !cov.is_covered_by(0, 1));
        assert!(cov.satisfies(Criterion::AllStrong));
        assert!(cov.satisfies(Criterion::AllFirm));
        assert!(cov.satisfies(Criterion::AllDataflow));
        assert_eq!(
            cov.testcase_names(),
            &["TC1".to_string(), "TC2".to_string()]
        );
    }

    #[test]
    fn exercised_outside_static_set_ignored() {
        let st = statics_with(vec![(a("x", 1, 2), Classification::Strong)]);
        let cov = Coverage::evaluate(&st, &[run(&st, "TC1", &[a("ghost", 9, 9)])]);
        assert_eq!(cov.total_ratio(), (0, 1));
    }

    #[test]
    fn all_defs_requires_one_use_per_def() {
        let st = statics_with(vec![
            (a("x", 1, 2), Classification::Strong),
            (a("x", 1, 3), Classification::Strong),
            (a("x", 7, 8), Classification::Strong),
        ]);
        // Covering one use of def@1 but nothing of def@7.
        let cov = Coverage::evaluate(&st, &[run(&st, "TC1", &[a("x", 1, 3)])]);
        assert!(!cov.satisfies(Criterion::AllDefs));
        let cov2 = Coverage::evaluate(&st, &[run(&st, "TC1", &[a("x", 1, 3), a("x", 7, 8)])]);
        assert!(cov2.satisfies(Criterion::AllDefs));
        assert!(
            !cov2.satisfies(Criterion::AllStrong),
            "x@1->2 still missing"
        );
        assert!(!cov2.satisfies(Criterion::AllDataflow));
    }

    #[test]
    fn empty_class_is_vacuously_satisfied() {
        let st = statics_with(vec![(a("x", 1, 2), Classification::Strong)]);
        let cov = Coverage::evaluate(&st, &[run(&st, "TC1", &[a("x", 1, 2)])]);
        assert!(cov.satisfies(Criterion::AllPFirm));
        assert!(cov.satisfies(Criterion::AllPWeak));
        assert!(cov.satisfies(Criterion::AllDataflow));
    }

    #[test]
    fn delta_agrees_with_exercised_count() {
        let st = statics_with(vec![
            (a("x", 1, 2), Classification::Strong),
            (a("x", 1, 3), Classification::Strong),
            (a("y", 4, 5), Classification::Firm),
        ]);
        let earlier = Coverage::evaluate(&st, &[run(&st, "TC1", &[a("x", 1, 2)])]);
        let later = Coverage::evaluate(
            &st,
            &[
                run(&st, "TC1", &[a("x", 1, 2)]),
                run(&st, "TC2", &[a("x", 1, 3), a("y", 4, 5)]),
            ],
        );
        let delta = later.delta(&earlier);
        // Pinned against exercised_count(): a superset run's delta length
        // is exactly the exercised-count difference.
        assert_eq!(
            delta.len(),
            later.exercised_count() - earlier.exercised_count()
        );
        let names: Vec<String> = delta.iter().map(|c| c.assoc.to_string()).collect();
        assert_eq!(names.len(), 2);
        assert!(delta.iter().all(|c| {
            let i = later
                .associations()
                .iter()
                .position(|x| x.assoc == c.assoc)
                .unwrap();
            later.is_covered(i) && !earlier.is_covered(i)
        }));
        // Identical coverages have an empty delta.
        assert!(later.delta(&later).is_empty());
        assert!(earlier.delta(&later).is_empty(), "no regression possible");
    }

    #[test]
    #[should_panic]
    fn delta_rejects_mismatched_static_sets() {
        let st1 = statics_with(vec![(a("x", 1, 2), Classification::Strong)]);
        let st2 = statics_with(vec![
            (a("x", 1, 2), Classification::Strong),
            (a("y", 4, 5), Classification::Firm),
        ]);
        let c1 = Coverage::evaluate(&st1, &[]);
        let c2 = Coverage::evaluate(&st2, &[]);
        let _ = c2.delta(&c1);
    }

    #[test]
    #[should_panic(expected = "indexes another static analysis")]
    fn evaluate_rejects_a_bitset_of_another_static_analysis() {
        let st1 = statics_with(vec![(a("x", 1, 2), Classification::Strong)]);
        let st2 = statics_with(vec![
            (a("x", 1, 2), Classification::Strong),
            (a("y", 4, 5), Classification::Firm),
        ]);
        let _ = Coverage::evaluate(&st2, &[run(&st1, "TC1", &[a("x", 1, 2)])]);
    }

    #[test]
    fn a_run_that_never_simulated_covers_nothing() {
        let st = statics_with(vec![(a("x", 1, 2), Classification::Strong)]);
        let failed = RunOutcome::Failed {
            error: "build failed".into(),
        };
        let placeholder = TestcaseResult {
            name: "TC2".into(),
            outcome: failed.clone(),
            ..TestcaseResult::default()
        };
        let cov = Coverage::evaluate(&st, &[run(&st, "TC1", &[a("x", 1, 2)]), placeholder]);
        assert!(cov.is_covered_by(0, 0) && !cov.is_covered_by(0, 1));
        assert_eq!(cov.testcase_names(), ["TC1", "TC2"]);
        assert_eq!(cov.outcomes(), [RunOutcome::Ok, failed]);
        assert_eq!(cov.degraded(), [("TC2", &cov.outcomes()[1])]);
    }

    #[test]
    fn criterion_display() {
        assert_eq!(Criterion::AllDataflow.to_string(), "all-dataflow");
        assert_eq!(Criterion::AllPFirm.to_string(), "all-PFirm");
    }

    #[test]
    fn empty_static_set_is_fully_covered() {
        let st = statics_with(vec![]);
        let cov = Coverage::evaluate(&st, &[]);
        assert_eq!(cov.total_percent(), 100.0);
        assert!(cov.satisfies(Criterion::AllDataflow));
    }
}
