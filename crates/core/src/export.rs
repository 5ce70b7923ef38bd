//! Machine-readable exports of analysis and coverage results (CSV), for
//! spreadsheet triage and CI trend tracking.

use std::fmt::Write as _;

use crate::coverage::{Coverage, TestcaseResult, UncoveredReason};
use crate::statics::StaticAnalysis;

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Exports the static association set as CSV:
/// `class,var,def_line,def_model,use_line,use_model`.
pub fn associations_to_csv(sa: &StaticAnalysis) -> String {
    let mut out = String::from("class,var,def_line,def_model,use_line,use_model\n");
    for c in &sa.associations {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            c.class,
            csv_escape(&c.assoc.var),
            c.assoc.def_line,
            csv_escape(&c.assoc.def_model),
            c.assoc.use_line,
            csv_escape(&c.assoc.use_model),
        );
    }
    out
}

/// Exports the subsumption reduction as CSV:
/// `class,association,role,implies` — `role` is `tracked` (frontier) or
/// `dropped` (implied by a frontier row), `implies` is the number of
/// dropped associations a tracked row implies.
pub fn subsumption_to_csv(sa: &StaticAnalysis) -> String {
    let mut out = String::from("class,association,role,implies\n");
    for (i, c) in sa.associations.iter().enumerate() {
        let role = if sa.subsumption.is_tracked(i) {
            "tracked"
        } else {
            "dropped"
        };
        let implies = sa
            .subsumption
            .implied_by
            .iter()
            .find(|(f, _)| *f as usize == i)
            .map_or(0, |(_, s)| s.len());
        let _ = writeln!(
            out,
            "{},{},{},{}",
            c.class,
            csv_escape(&c.assoc.to_string()),
            role,
            implies
        );
    }
    out
}

/// Exports the coverage matrix as CSV: one row per association with a
/// column per testcase (`1` exercised / `0` not) plus a `covered` column.
pub fn coverage_to_csv(cov: &Coverage) -> String {
    let mut out = String::from("class,association,covered");
    for name in cov.testcase_names() {
        let _ = write!(out, ",{}", csv_escape(name));
    }
    out.push('\n');
    for (i, c) in cov.associations().iter().enumerate() {
        let _ = write!(
            out,
            "{},{},{}",
            c.class,
            csv_escape(&c.assoc.to_string()),
            u8::from(cov.is_covered(i))
        );
        for t in 0..cov.testcase_names().len() {
            let _ = write!(out, ",{}", u8::from(cov.is_covered_by(i, t)));
        }
        out.push('\n');
    }
    out
}

/// Exports the uncovered-pair triage as CSV:
/// `class,association,reason` (see [`Coverage::diagnose_uncovered`]).
pub fn diagnosis_to_csv(cov: &Coverage, runs: &[TestcaseResult]) -> String {
    let mut out = String::from("class,association,reason\n");
    for (c, reason) in cov.diagnose_uncovered(runs) {
        let reason_str = match reason {
            UncoveredReason::DefinitionNeverExecuted => "definition never executed",
            UncoveredReason::FlowNotObserved => "flow not observed",
        };
        let _ = writeln!(
            out,
            "{},{},{}",
            c.class,
            csv_escape(&c.assoc.to_string()),
            reason_str
        );
    }
    out
}

/// Exports per-testcase assertion verdicts as CSV:
/// `testcase,assertion,verdict,first_violation_fs` — the violation column
/// is empty for non-failing verdicts. Runs without verdicts contribute no
/// rows; with no verdicts anywhere the output is just the header.
pub fn verdicts_to_csv(runs: &[TestcaseResult]) -> String {
    use dft_monitor::Verdict;
    let mut out = String::from("testcase,assertion,verdict,first_violation_fs\n");
    for run in runs {
        for v in &run.verdicts {
            let (verdict, first) = match v.verdict {
                Verdict::Holds => ("holds", String::new()),
                Verdict::Fails {
                    first_violation_time,
                } => ("fails", first_violation_time.as_fs().to_string()),
                Verdict::Vacuous => ("vacuous", String::new()),
                Verdict::Inconclusive => ("inconclusive", String::new()),
            };
            let _ = writeln!(
                out,
                "{},{},{},{}",
                csv_escape(&run.name),
                csv_escape(&v.name),
                verdict,
                first
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::{Association, Classification, ClassifiedAssoc};

    fn statics() -> StaticAnalysis {
        StaticAnalysis {
            associations: vec![
                ClassifiedAssoc {
                    assoc: Association::new("tmpr", 4, "TS", 9, "TS"),
                    class: Classification::Strong,
                },
                ClassifiedAssoc {
                    assoc: Association::new("o", 5, "A", 6, "A"),
                    class: Classification::Firm,
                },
            ],
            lints: Vec::new(),
            subsumption: Default::default(),
        }
    }

    fn run_with(exercised: &[Association], defs: &[(&str, &str, u32)]) -> TestcaseResult {
        TestcaseResult {
            defs_executed: defs
                .iter()
                .map(|(m, v, l)| (m.to_string(), v.to_string(), *l))
                .collect(),
            ..crate::coverage::tests::run(&statics(), "TC1", exercised)
        }
    }

    #[test]
    fn associations_csv_has_header_and_rows() {
        let csv = associations_to_csv(&statics());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "class,var,def_line,def_model,use_line,use_model");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("Strong,tmpr,4,TS,9,TS"));
    }

    #[test]
    fn coverage_csv_marks_testcase_columns() {
        let runs = vec![run_with(&[Association::new("tmpr", 4, "TS", 9, "TS")], &[])];
        let cov = Coverage::evaluate(&statics(), &runs);
        let csv = coverage_to_csv(&cov);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "class,association,covered,TC1");
        assert!(lines[1].contains("\"(tmpr, 4, TS, 9, TS)\",1,1"));
        assert!(lines[2].ends_with(",0,0"));
    }

    #[test]
    fn verdicts_csv_rows_per_assertion() {
        use dft_monitor::{AssertionVerdict, Verdict};
        use tdf_sim::SimTime;
        let mut run = run_with(&[], &[]);
        run.verdicts = vec![
            AssertionVerdict {
                name: "overshoot".into(),
                verdict: Verdict::Fails {
                    first_violation_time: SimTime::from_us(7),
                },
            },
            AssertionVerdict {
                name: "settle, fast".into(),
                verdict: Verdict::Holds,
            },
        ];
        let csv = verdicts_to_csv(&[run, run_with(&[], &[])]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "testcase,assertion,verdict,first_violation_fs");
        assert_eq!(lines[1], "TC1,overshoot,fails,7000000000");
        assert_eq!(lines[2], "TC1,\"settle, fast\",holds,");
        assert_eq!(lines.len(), 3, "verdict-free runs contribute no rows");
    }

    /// Minimal RFC-4180 field parser used to prove escaping round-trips.
    fn csv_unescape(field: &str) -> String {
        if let Some(inner) = field
            .strip_prefix('"')
            .and_then(|rest| rest.strip_suffix('"'))
        {
            inner.replace("\"\"", "\"")
        } else {
            field.to_owned()
        }
    }

    #[test]
    fn csv_escape_round_trips_control_characters() {
        for raw in [
            "plain",
            "comma,field",
            "quote\"field",
            "newline\nfield",
            "carriage\rreturn",
            "crlf\r\nfield",
            "\r",
        ] {
            let escaped = csv_escape(raw);
            if raw.contains('\r') || raw.contains('\n') || raw.contains(',') || raw.contains('"') {
                assert!(
                    escaped.starts_with('"') && escaped.ends_with('"'),
                    "{raw:?} must be quoted, got {escaped:?}"
                );
            }
            assert_eq!(csv_unescape(&escaped), raw, "round-trip of {raw:?}");
        }
    }

    #[test]
    fn subsumption_csv_labels_roles_and_counts() {
        use crate::statics::SubsumptionInfo;
        use dataflow::BitSet;
        let mut st = statics();
        let mut dropped = BitSet::new(2);
        dropped.insert(1);
        let mut implied = BitSet::new(2);
        implied.insert(1);
        st.subsumption = SubsumptionInfo {
            dropped,
            implied_by: vec![(0, implied)],
        };
        let csv = subsumption_to_csv(&st);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "class,association,role,implies");
        assert!(lines[1].ends_with(",tracked,1"));
        assert!(lines[2].ends_with(",dropped,0"));
        // Default (empty) reduction: everything tracked, nothing implied.
        let csv0 = subsumption_to_csv(&statics());
        assert!(csv0.lines().skip(1).all(|l| l.ends_with(",tracked,0")));
    }

    #[test]
    fn diagnosis_distinguishes_reasons() {
        // The Firm pair's def ran but the flow never reached the use; the
        // Strong pair's def never ran at all.
        let runs = vec![run_with(&[], &[("A", "o", 5)])];
        let cov = Coverage::evaluate(&statics(), &runs);
        let csv = diagnosis_to_csv(&cov, &runs);
        assert!(csv.contains("(tmpr, 4, TS, 9, TS)\",definition never executed"));
        assert!(csv.contains("(o, 5, A, 6, A)\",flow not observed"));
    }
}
