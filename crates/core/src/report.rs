//! Report rendering: the paper's Table I (per-association coverage matrix)
//! and Table II (case-study iteration summaries) as text tables, plus the
//! subsumption-reduction summary (raw vs frontier numbers).
//!
//! Table I/II always report the *raw* association set — their output is
//! byte-identical whether the matcher tracked every row or only the
//! unsubsumed frontier. [`render_subsumption`] is the additive view that
//! shows how much the frontier reduction saved.

use std::fmt::Write as _;

use crate::assoc::Classification;
use crate::coverage::{Coverage, TestcaseResult};
use crate::statics::StaticAnalysis;

/// Renders a Table-I-style matrix: associations grouped by classification,
/// one column per testcase, `x` = exercised / `-` = not exercised.
///
/// ```text
/// Strong
///   (tmpr, 4, TS, 9, TS)                       x  x  -
///   ...
/// PFirm
///   (op_signal_out, 74, sense_top, 36, AM)     -  x  -
/// ```
pub fn render_table1(cov: &Coverage) -> String {
    let mut out = String::new();
    let width = cov
        .associations()
        .iter()
        .map(|c| c.assoc.to_string().len())
        .max()
        .unwrap_or(20)
        + 2;
    let _ = write!(out, "{:width$}", "Static Pairs");
    for name in cov.testcase_names() {
        let _ = write!(out, " {name:>4}");
    }
    out.push('\n');
    for class in Classification::ALL {
        let rows: Vec<usize> = cov
            .associations()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.class == class)
            .map(|(i, _)| i)
            .collect();
        if rows.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{class}");
        for i in rows {
            let tuple = cov.associations()[i].assoc.to_string();
            let _ = write!(out, "  {tuple:<w$}", w = width - 2);
            for t in 0..cov.testcase_names().len() {
                let mark = if cov.is_covered_by(i, t) { "x" } else { "-" };
                let _ = write!(out, " {mark:>4}");
            }
            out.push('\n');
        }
    }
    // Only degraded runs get a footer: a healthy testsuite renders
    // byte-identically to a report without outcome tracking.
    let degraded = cov.degraded();
    if !degraded.is_empty() {
        let _ = writeln!(out, "Degraded testcases (partial coverage)");
        for (name, outcome) in degraded {
            let _ = writeln!(out, "  {name}: {outcome}");
        }
    }
    out
}

/// One row of a Table-II-style case-study summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Case-study (AMS system) name.
    pub system: String,
    /// Iteration number (0 = initial testbench).
    pub iteration: usize,
    /// Testsuite size at this iteration.
    pub tests: usize,
    /// Statically identified associations.
    pub static_count: usize,
    /// Associations exercised dynamically.
    pub dynamic_count: usize,
    /// Coverage percentage per class; `None` when the class is empty.
    pub strong_pct: Option<f64>,
    /// Firm coverage percentage.
    pub firm_pct: Option<f64>,
    /// PFirm coverage percentage.
    pub pfirm_pct: Option<f64>,
    /// PWeak coverage percentage.
    pub pweak_pct: Option<f64>,
}

impl Table2Row {
    /// Builds a row from a coverage result.
    pub fn from_coverage(system: &str, iteration: usize, tests: usize, cov: &Coverage) -> Self {
        Table2Row {
            system: system.to_owned(),
            iteration,
            tests,
            static_count: cov.associations().len(),
            dynamic_count: cov.exercised_count(),
            strong_pct: cov.class_percent(Classification::Strong),
            firm_pct: cov.class_percent(Classification::Firm),
            pfirm_pct: cov.class_percent(Classification::PFirm),
            pweak_pct: cov.class_percent(Classification::PWeak),
        }
    }
}

fn pct(v: Option<f64>) -> String {
    match v {
        Some(p) => format!("{p:.0}"),
        None => "0".to_owned(), // the paper prints 0 for empty classes
    }
}

/// Renders Table II: one row per (system, iteration).
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>5} {:>6} {:>8} {:>8} {:>6} {:>6} {:>6} {:>6}",
        "AMS System", "Iter.", "Tests", "Static", "Dynamic", "S(%)", "F(%)", "PF(%)", "PW(%)"
    );
    let mut last_system = "";
    for r in rows {
        let system = if r.system == last_system {
            ""
        } else {
            &r.system
        };
        last_system = &r.system;
        let _ = writeln!(
            out,
            "{:<24} {:>5} {:>6} {:>8} {:>8} {:>6} {:>6} {:>6} {:>6}",
            system,
            r.iteration,
            r.tests,
            r.static_count,
            r.dynamic_count,
            pct(r.strong_pct),
            pct(r.firm_pct),
            pct(r.pfirm_pct),
            pct(r.pweak_pct),
        );
    }
    out
}

/// Renders a short coverage summary with criteria verdicts.
pub fn render_summary(cov: &Coverage) -> String {
    use crate::coverage::Criterion;
    let mut out = String::new();
    let (c, t) = cov.total_ratio();
    let _ = writeln!(
        out,
        "data flow coverage: {c}/{t} ({:.1}%)",
        cov.total_percent()
    );
    let degraded = cov.degraded();
    if !degraded.is_empty() {
        let _ = writeln!(
            out,
            "  ({} of {} testcases degraded; coverage is partial)",
            degraded.len(),
            cov.testcase_names().len()
        );
    }
    for class in Classification::ALL {
        let (cc, ct) = cov.class_ratio(class);
        if ct > 0 {
            let _ = writeln!(out, "  {class:<7} {cc}/{ct}");
        } else {
            let _ = writeln!(out, "  {class:<7} none identified");
        }
    }
    for crit in [
        Criterion::AllStrong,
        Criterion::AllFirm,
        Criterion::AllPFirm,
        Criterion::AllPWeak,
        Criterion::AllDefs,
        Criterion::AllUses,
        Criterion::AllDataflow,
    ] {
        let verdict = if cov.satisfies(crit) {
            "satisfied"
        } else {
            "NOT satisfied"
        };
        let _ = writeln!(out, "  {crit:<13} {verdict}");
    }
    out
}

/// Renders the per-testcase assertion-verdict table:
///
/// ```text
/// Assertion verdicts
///   TC1
///     overshoot   holds
///     settle      FAILS @ 1.2ms
/// ```
///
/// Returns the empty string when no run carries verdicts, so a session
/// without assertions renders byte-identically to one predating monitor
/// support.
pub fn render_verdicts(runs: &[TestcaseResult]) -> String {
    if runs.iter().all(|r| r.verdicts.is_empty()) {
        return String::new();
    }
    let width = runs
        .iter()
        .flat_map(|r| r.verdicts.iter())
        .map(|v| v.name.len())
        .max()
        .unwrap_or(0)
        + 2;
    let mut out = String::new();
    let _ = writeln!(out, "Assertion verdicts");
    for run in runs {
        if run.verdicts.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  {}", run.name);
        for v in &run.verdicts {
            let _ = writeln!(out, "    {:<width$} {}", v.name, v.verdict);
        }
    }
    out
}

/// Renders the subsumption-reduction summary: raw vs frontier association
/// counts (total and per class) and both coverage views. `cov` must have
/// been evaluated against the same `statics` (indices align).
///
/// The *raw* numbers here equal Table I/II exactly; the *frontier* view
/// counts only the unsubsumed associations.
pub fn render_subsumption(statics: &StaticAnalysis, cov: &Coverage) -> String {
    let sub = &statics.subsumption;
    let n = statics.associations.len();
    let tracked = n - sub.dropped_count();
    let mut out = String::new();
    let _ = writeln!(out, "subsumption-reduced tracking");
    let _ = writeln!(out, "  raw associations:     {n}");
    let reduction = if n > 0 {
        100.0 * sub.dropped_count() as f64 / n as f64
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "  frontier (tracked):   {tracked} ({} reduced away, {reduction:.1}%)",
        sub.dropped_count()
    );
    let _ = writeln!(out, "  per class (raw -> frontier):");
    for class in Classification::ALL {
        let raw = statics
            .associations
            .iter()
            .filter(|c| c.class == class)
            .count();
        if raw == 0 {
            continue;
        }
        let kept = statics
            .associations
            .iter()
            .enumerate()
            .filter(|(i, c)| c.class == class && sub.is_tracked(*i))
            .count();
        let _ = writeln!(out, "    {class:<7} {raw} -> {kept}");
    }
    let (c, t) = cov.total_ratio();
    let frontier_covered = (0..n)
        .filter(|&i| sub.is_tracked(i) && cov.is_covered(i))
        .count();
    let raw_pct = if t > 0 {
        100.0 * c as f64 / t as f64
    } else {
        0.0
    };
    let frontier_pct = if tracked > 0 {
        100.0 * frontier_covered as f64 / tracked as f64
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "  coverage: raw {c}/{t} ({raw_pct:.1}%), frontier {frontier_covered}/{tracked} ({frontier_pct:.1}%)"
    );
    let implied_total: usize = sub.implied_by.iter().map(|(_, s)| s.len()).sum();
    let _ = writeln!(
        out,
        "  implied reconstruction: {implied_total} implication(s) from {} frontier row(s)",
        sub.implied_by.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::{Association, ClassifiedAssoc};
    use crate::coverage::tests::run;

    fn coverage() -> Coverage {
        let st = StaticAnalysis {
            associations: vec![
                ClassifiedAssoc {
                    assoc: Association::new("tmpr", 4, "TS", 9, "TS"),
                    class: Classification::Strong,
                },
                ClassifiedAssoc {
                    assoc: Association::new("out_tmpr", 5, "TS", 14, "TS"),
                    class: Classification::Firm,
                },
                ClassifiedAssoc {
                    assoc: Association::new("op_mux_out", 77, "sense_top", 79, "sense_top"),
                    class: Classification::PWeak,
                },
            ],
            lints: Vec::new(),
            subsumption: Default::default(),
        };
        let tc1 = run(&st, "TC1", &[Association::new("tmpr", 4, "TS", 9, "TS")]);
        let tc2 = run(
            &st,
            "TC2",
            &[
                Association::new("tmpr", 4, "TS", 9, "TS"),
                Association::new("op_mux_out", 77, "sense_top", 79, "sense_top"),
            ],
        );
        Coverage::evaluate(&st, &[tc1, tc2])
    }

    #[test]
    fn table1_shape() {
        let t = render_table1(&coverage());
        assert!(t.contains("Strong\n"));
        assert!(t.contains("Firm\n"));
        assert!(t.contains("PWeak\n"));
        assert!(!t.contains("PFirm\n"), "empty classes are skipped");
        let tmpr_line = t.lines().find(|l| l.contains("tmpr, 4")).unwrap();
        assert!(tmpr_line.trim_end().ends_with("x    x"));
        let firm_line = t.lines().find(|l| l.contains("out_tmpr")).unwrap();
        assert!(firm_line.contains('-'));
    }

    #[test]
    fn table2_rows_render() {
        let cov = coverage();
        let row = Table2Row::from_coverage("Sensor System", 0, 3, &cov);
        assert_eq!(row.static_count, 3);
        assert_eq!(row.dynamic_count, 2);
        assert_eq!(row.strong_pct, Some(100.0));
        assert_eq!(row.firm_pct, Some(0.0));
        assert_eq!(row.pfirm_pct, None);
        let text = render_table2(&[
            row.clone(),
            Table2Row {
                iteration: 1,
                ..row
            },
        ]);
        assert!(text.contains("Sensor System"));
        assert!(text.contains("Static"));
        // Repeated system name suppressed on the second row.
        assert_eq!(text.matches("Sensor System").count(), 1);
    }

    #[test]
    fn subsumption_report_shows_raw_and_frontier_views() {
        use crate::statics::SubsumptionInfo;
        use dataflow::BitSet;
        // Same associations as `coverage()`, but pretend index 1 (the
        // uncovered Firm pair) was reduced away, implied by index 0.
        let mut st = StaticAnalysis {
            associations: vec![
                ClassifiedAssoc {
                    assoc: Association::new("tmpr", 4, "TS", 9, "TS"),
                    class: Classification::Strong,
                },
                ClassifiedAssoc {
                    assoc: Association::new("out_tmpr", 5, "TS", 14, "TS"),
                    class: Classification::Firm,
                },
                ClassifiedAssoc {
                    assoc: Association::new("op_mux_out", 77, "sense_top", 79, "sense_top"),
                    class: Classification::PWeak,
                },
            ],
            lints: Vec::new(),
            subsumption: Default::default(),
        };
        let mut dropped = BitSet::new(3);
        dropped.insert(1);
        let mut implied = BitSet::new(3);
        implied.insert(1);
        st.subsumption = SubsumptionInfo {
            dropped,
            implied_by: vec![(0, implied)],
        };
        let tc = run(&st, "TC1", &[Association::new("tmpr", 4, "TS", 9, "TS")]);
        let cov = Coverage::evaluate(&st, &[tc]);
        let s = render_subsumption(&st, &cov);
        assert!(s.contains("raw associations:     3"));
        assert!(s.contains("frontier (tracked):   2 (1 reduced away, 33.3%)"));
        assert!(s.contains("Strong 1 -> 1"));
        assert!(s.contains("Firm 1 -> 0"));
        assert!(s.contains("PWeak 1 -> 1"));
        assert!(s.contains("coverage: raw 1/3 (33.3%), frontier 1/2 (50.0%)"));
        assert!(s.contains("1 implication(s) from 1 frontier row(s)"));
        // A default (empty) reduction renders trivially.
        let cov0 = coverage();
        let st0 = StaticAnalysis {
            associations: cov0.associations().to_vec(),
            lints: Vec::new(),
            subsumption: Default::default(),
        };
        let s0 = render_subsumption(&st0, &cov0);
        assert!(s0.contains("frontier (tracked):   3 (0 reduced away, 0.0%)"));
    }

    #[test]
    fn summary_mentions_criteria() {
        let s = render_summary(&coverage());
        assert!(s.contains("all-dataflow"));
        assert!(s.contains("NOT satisfied"));
        assert!(
            s.contains("none identified"),
            "empty PFirm class called out"
        );
    }
}
