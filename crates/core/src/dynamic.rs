//! Stage 2 of Fig. 3: dynamic analysis.
//!
//! The instrumentation events of one testcase run yield the set of
//! *exercised* def-use associations plus runtime warnings (§V/§VI: "if
//! there exists a use, but no definition, it is notified as a warning").
//! [`crate::MatchAutomaton`] does the matching — fed one event at a time
//! through a [`crate::MatchCursor`] as the simulation emits them — and
//! this module holds the types it reports in:
//!
//! * a **use with feeding provenance** (an input-port read of a sample
//!   stamped by a remote model or a redefining component) exercises the
//!   cluster association `(prov.var, prov.line, prov.model, line, model)`;
//! * a **use of an externally-driven input port** (no provenance but
//!   defined) exercises the pseudo-def association at the model start line;
//! * a **local/member use** pairs with the most recent definition of that
//!   variable in the same model (members are seeded with a start-line
//!   pseudo-definition because elaboration initialises them).

use std::collections::HashSet;

use tdf_sim::SimTime;

use crate::assoc::Association;

/// How strictly the match automaton treats malformed event logs.
///
/// Strict mode trusts the log completely — the behaviour instrumented
/// simulations have always had. Lenient mode validates every event against
/// the design (known model, known variable, per-model monotone time) and
/// *quarantines* offenders instead of matching them: the event is dropped
/// from association matching, a structured [`DynamicWarning`] is recorded
/// once per offending site, and [`DynamicResult::quarantined`] counts the
/// total. On a healthy event log the two modes produce identical results;
/// on a corrupted log lenient mode never exercises *more* associations
/// than strict mode would.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MatchMode {
    /// Trust the event log (historical behaviour).
    #[default]
    Strict,
    /// Validate events against the design and quarantine offenders.
    Lenient,
}

/// A runtime finding of the dynamic analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicWarning {
    /// A local variable was read before any definition executed.
    UseWithoutDef {
        /// Model name.
        model: String,
        /// Variable name.
        var: String,
        /// Use line.
        line: u32,
        /// First occurrence time.
        time: SimTime,
    },
    /// An input port delivered an *undefined* sample (the driving model
    /// never wrote its output port this activation, or the input is open) —
    /// undefined behaviour per the SystemC-AMS standard, found in both of
    /// the paper's case studies.
    UndefinedSampleRead {
        /// Model name.
        model: String,
        /// Port name.
        var: String,
        /// Use line.
        line: u32,
        /// First occurrence time.
        time: SimTime,
    },
    /// (Lenient mode) An event carried a timestamp earlier than an
    /// already-observed event of the same model. Per-model local times are
    /// monotone non-decreasing in any well-formed log (global interleaving
    /// across models is *not* monotone, so the check is per model). The
    /// event was quarantined.
    NonMonotoneTimestamp {
        /// Model whose local time went backwards.
        model: String,
        /// The offending (earlier) timestamp.
        time: SimTime,
        /// The latest timestamp previously seen for this model.
        last: SimTime,
    },
    /// (Lenient mode) An event referenced a model that is neither a
    /// declared model, a netlist module, nor the cluster itself. The event
    /// was quarantined.
    UnknownModel {
        /// The unrecognised model name.
        model: String,
        /// First occurrence time.
        time: SimTime,
    },
    /// (Lenient mode) An event referenced a variable that appears neither
    /// in the model's interface nor anywhere in its `processing()` source.
    /// The event was quarantined.
    UnknownVariable {
        /// Model name.
        model: String,
        /// The unrecognised variable name.
        var: String,
        /// First occurrence time.
        time: SimTime,
    },
}

/// Result of analysing one testcase's event log.
#[derive(Debug, Clone, Default)]
pub struct DynamicResult {
    /// Distinct associations exercised by the testcase.
    pub exercised: HashSet<Association>,
    /// Definition sites that executed at least once: `(model, var, line)`.
    /// Used by the uncovered-pair diagnosis (definition never ran vs. flow
    /// not observed).
    pub defs_executed: HashSet<(String, String, u32)>,
    /// Deduplicated runtime warnings, in first-occurrence order.
    pub warnings: Vec<DynamicWarning>,
    /// Number of events quarantined by lenient validation (always 0 in
    /// strict mode).
    pub quarantined: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use crate::matcher::MatchAutomaton;
    use tdf_interp::{Interface, TdfModelDef};
    use tdf_sim::{CompactEvent, Event, ModuleClass, ModuleInfo, Netlist, Provenance};

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

    /// Matches `events` in `mode` with an automaton built from scratch
    /// over `design`.
    fn match_events(design: &Design, events: &[Event], mode: MatchMode) -> DynamicResult {
        let statics = crate::statics::analyse(design);
        let automaton = MatchAutomaton::new(design, &statics);
        let compact: Vec<CompactEvent> = events
            .iter()
            .map(|e| CompactEvent::from_event(e, automaton.interner()))
            .collect();
        automaton.analyse(&compact, mode)
    }

    fn def(model: &str, var: &str, line: u32) -> Event {
        Event::Def {
            time: SimTime::ZERO,
            model: model.into(),
            var: var.into(),
            line,
        }
    }

    fn use_local(model: &str, var: &str, line: u32) -> Event {
        Event::Use {
            time: SimTime::ZERO,
            model: model.into(),
            var: var.into(),
            line,
            feeding: None,
            defined: true,
        }
    }

    #[test]
    fn local_use_pairs_with_last_def() {
        let d = design();
        let events = vec![
            def("M", "t", 3),
            use_local("M", "t", 4),
            def("M", "t", 9),
            use_local("M", "t", 10),
        ];
        let r = match_events(&d, &events, MatchMode::Strict);
        assert!(r.exercised.contains(&Association::new("t", 3, "M", 4, "M")));
        assert!(r
            .exercised
            .contains(&Association::new("t", 9, "M", 10, "M")));
        assert!(!r
            .exercised
            .contains(&Association::new("t", 3, "M", 10, "M")));
        assert!(r.warnings.is_empty());
    }

    #[test]
    fn feeding_provenance_exercises_cluster_pair() {
        let d = design();
        let events = vec![Event::Use {
            time: SimTime::ZERO,
            model: "M".into(),
            var: "ip_x".into(),
            line: 3,
            feeding: Some(Provenance::new("op_out", 14, "TS")),
            defined: true,
        }];
        let r = match_events(&d, &events, MatchMode::Strict);
        assert!(r
            .exercised
            .contains(&Association::new("op_out", 14, "TS", 3, "M")));
    }

    #[test]
    fn external_input_exercises_pseudo_def() {
        let d = design();
        let events = vec![Event::Use {
            time: SimTime::ZERO,
            model: "M".into(),
            var: "ip_x".into(),
            line: 3,
            feeding: None,
            defined: true,
        }];
        let r = match_events(&d, &events, MatchMode::Strict);
        // M::processing() is on line 1.
        assert!(r
            .exercised
            .contains(&Association::new("ip_x", 1, "M", 3, "M")));
    }

    #[test]
    fn undefined_sample_warns_once() {
        let d = design();
        let ev = Event::Use {
            time: SimTime::from_us(3),
            model: "M".into(),
            var: "ip_x".into(),
            line: 3,
            feeding: None,
            defined: false,
        };
        let r = match_events(&d, &[ev.clone(), ev], MatchMode::Strict);
        assert_eq!(r.warnings.len(), 1);
        assert!(matches!(
            &r.warnings[0],
            DynamicWarning::UndefinedSampleRead { var, line: 3, .. } if var == "ip_x"
        ));
        assert!(r.exercised.is_empty());
    }

    #[test]
    fn local_use_without_def_warns() {
        let d = design();
        let r = match_events(&d, &[use_local("M", "t", 4)], MatchMode::Strict);
        assert_eq!(r.warnings.len(), 1);
        assert!(matches!(
            &r.warnings[0],
            DynamicWarning::UseWithoutDef { var, .. } if var == "t"
        ));
    }

    #[test]
    fn member_initial_value_counts_as_start_line_def() {
        let d = design();
        let r = match_events(&d, &[use_local("M", "m_s", 3)], MatchMode::Strict);
        assert!(
            r.warnings.is_empty(),
            "members are initialised at elaboration"
        );
        assert!(r
            .exercised
            .contains(&Association::new("m_s", 1, "M", 3, "M")));
    }

    #[test]
    fn member_redefinition_updates_pairing() {
        let d = design();
        let events = vec![
            def("M", "m_s", 7),
            use_local("M", "m_s", 3), // next activation, observes line 7
        ];
        let r = match_events(&d, &events, MatchMode::Strict);
        assert!(r
            .exercised
            .contains(&Association::new("m_s", 7, "M", 3, "M")));
    }

    fn def_at(model: &str, var: &str, line: u32, us: u64) -> Event {
        Event::Def {
            time: SimTime::from_us(us),
            model: model.into(),
            var: var.into(),
            line,
        }
    }

    fn use_at(model: &str, var: &str, line: u32, us: u64) -> Event {
        Event::Use {
            time: SimTime::from_us(us),
            model: model.into(),
            var: var.into(),
            line,
            feeding: None,
            defined: true,
        }
    }

    #[test]
    fn lenient_matches_strict_on_a_healthy_log() {
        let d = design();
        let events = vec![
            def_at("M", "t", 3, 0),
            use_at("M", "t", 4, 0),
            def_at("M", "m_s", 7, 1),
            use_at("M", "m_s", 3, 2),
            Event::Use {
                time: SimTime::from_us(2),
                model: "M".into(),
                var: "ip_x".into(),
                line: 3,
                feeding: Some(Provenance::new("op_y", 4, "M")),
                defined: true,
            },
        ];
        let strict = match_events(&d, &events, MatchMode::Strict);
        let lenient = match_events(&d, &events, MatchMode::Lenient);
        assert_eq!(strict.exercised, lenient.exercised);
        assert_eq!(strict.defs_executed, lenient.defs_executed);
        assert_eq!(strict.warnings, lenient.warnings);
        assert_eq!(lenient.quarantined, 0);
    }

    #[test]
    fn lenient_quarantines_unknown_models_and_warns_once() {
        let d = design();
        let events = vec![
            use_at("__ghost_model_0", "t", 4, 0),
            use_at("__ghost_model_0", "t", 4, 1),
        ];
        let r = match_events(&d, &events, MatchMode::Lenient);
        assert_eq!(r.quarantined, 2);
        assert_eq!(r.warnings.len(), 1);
        assert!(matches!(
            &r.warnings[0],
            DynamicWarning::UnknownModel { model, .. } if model == "__ghost_model_0"
        ));
        assert!(r.exercised.is_empty());
    }

    #[test]
    fn lenient_accepts_cluster_named_events() {
        // Provenance and parallel_print events carry the architecture name.
        let d = design();
        let events = vec![Event::Use {
            time: SimTime::ZERO,
            model: "M".into(),
            var: "ip_x".into(),
            line: 3,
            feeding: Some(Provenance::new("op_out", 14, "top")),
            defined: true,
        }];
        let r = match_events(&d, &events, MatchMode::Lenient);
        assert_eq!(r.quarantined, 0);
        assert!(r
            .exercised
            .contains(&Association::new("op_out", 14, "top", 3, "M")));
    }

    #[test]
    fn lenient_quarantines_backward_time_and_poisons_the_def() {
        let d = design();
        let events = vec![
            def_at("M", "t", 3, 10),
            def_at("M", "t", 9, 0), // time warped backwards: quarantined
            use_at("M", "t", 10, 10),
        ];
        let r = match_events(&d, &events, MatchMode::Lenient);
        assert_eq!(r.quarantined, 1);
        // The stale line-3 def must NOT pair with the line-10 use: the
        // quarantined redefinition poisoned it.
        assert!(r.exercised.is_empty());
        assert!(r.warnings.iter().any(
            |w| matches!(w, DynamicWarning::NonMonotoneTimestamp { model, .. } if model == "M")
        ));
        assert!(r
            .warnings
            .iter()
            .any(|w| matches!(w, DynamicWarning::UseWithoutDef { var, .. } if var == "t")));
    }

    #[test]
    fn lenient_quarantines_unknown_variables() {
        let d = design();
        let r = match_events(
            &d,
            &[use_at("M", "__ghost_var_0", 4, 0)],
            MatchMode::Lenient,
        );
        assert_eq!(r.quarantined, 1);
        assert!(matches!(
            &r.warnings[0],
            DynamicWarning::UnknownVariable { var, .. } if var == "__ghost_var_0"
        ));
        assert!(r.exercised.is_empty());
    }

    #[test]
    fn lenient_quarantines_fabricated_provenance() {
        let d = design();
        let events = vec![Event::Use {
            time: SimTime::ZERO,
            model: "M".into(),
            var: "ip_x".into(),
            line: 3,
            feeding: Some(Provenance::new("op_out", 14, "__ghost_model_2")),
            defined: true,
        }];
        let r = match_events(&d, &events, MatchMode::Lenient);
        assert_eq!(r.quarantined, 1);
        assert!(r.exercised.is_empty());
        assert!(matches!(
            &r.warnings[0],
            DynamicWarning::UnknownModel { model, .. } if model == "__ghost_model_2"
        ));
    }
}
