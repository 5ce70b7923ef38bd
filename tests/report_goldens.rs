//! Golden reports for the four case studies.
//!
//! Each case study (sensor TC1–TC3 with the buggy ADC, window lifter,
//! buck-boost, PID with its assertions monitored) runs its whole testsuite
//! iteration by iteration through one `DftSession`. The committed golden
//! file of a study holds, in order:
//!
//! * `render_table1` over the whole suite — every static association with
//!   its per-testcase marks;
//! * `render_table2` with one row per iteration;
//! * `render_subsumption` of the final coverage;
//! * `render_verdicts` of every run (empty without assertions).
//!
//! They pin the static classification and the dynamic matching on inputs
//! the synthetic chains never reach: members, `initialize()`, delays and
//! external inputs. The shape targets of DESIGN.md §4 are asserted on the
//! same runs.
//!
//! Regenerate (only when a change to the reported results is intended):
//! `cargo test --test report_goldens -- --ignored regenerate`.

use systemc_ams_dft::dft::{
    render_subsumption, render_table1, render_table2, render_verdicts, AssertionSpec, Coverage,
    Design, DftSession, Result, Table2Row,
};
use systemc_ams_dft::models::{buck_boost, pid, sensor, window_lifter};
use systemc_ams_dft::signals::{Testcase, Testsuite};
use systemc_ams_dft::sim::Cluster;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens");

type Build = fn(&Testcase) -> Result<Cluster>;

struct Study {
    /// Golden file stem.
    key: &'static str,
    suite: Testsuite,
    design: fn() -> Result<Design>,
    build: Build,
    assertions: Vec<AssertionSpec>,
}

/// What one study's run produced.
struct Outcome {
    rows: Vec<Table2Row>,
    coverage: Coverage,
    report: String,
}

fn studies() -> Vec<Study> {
    let mut pid_suite = Testsuite::new("PID Loop");
    pid_suite.add_iteration(pid::pid_testcases());
    vec![
        Study {
            key: "sensor",
            suite: sensor::sensor_suite(),
            design: || sensor::sensor_design(sensor::BUGGY_ADC_FULL_SCALE),
            build: |tc| {
                sensor::build_sensor_cluster(tc, sensor::BUGGY_ADC_FULL_SCALE).map(|(c, _)| c)
            },
            assertions: Vec::new(),
        },
        Study {
            key: "window_lifter",
            suite: window_lifter::lifter_suite(),
            design: window_lifter::lifter_design,
            build: |tc| window_lifter::build_lifter_cluster(tc).map(|(c, _)| c),
            assertions: Vec::new(),
        },
        Study {
            key: "buck_boost",
            suite: buck_boost::bb_suite(),
            design: buck_boost::bb_design,
            build: |tc| buck_boost::build_bb_cluster(tc).map(|(c, _)| c),
            assertions: Vec::new(),
        },
        Study {
            key: "pid",
            suite: pid_suite,
            design: pid::pid_design,
            build: |tc| pid::build_pid_cluster(tc, pid::PidTuning::nominal()).map(|(c, _)| c),
            assertions: pid::pid_assertions(),
        },
    ]
}

fn run(study: &Study) -> Outcome {
    let design = (study.design)().expect("case-study design builds");
    let mut session = DftSession::new(design)
        .expect("session")
        .with_assertions(study.assertions.clone());
    let suite = &study.suite;
    let mut rows = Vec::new();
    let mut done = 0;
    for it in 0..suite.iterations() {
        for tc in &suite.up_to(it)[done..] {
            let cluster = (study.build)(tc).expect("cluster builds");
            session
                .run_testcase(&tc.name, cluster, tc.duration)
                .expect("simulation");
        }
        done = suite.size_at(it);
        rows.push(Table2Row::from_coverage(
            &suite.name,
            it,
            done,
            &session.coverage(),
        ));
    }
    let coverage = session.coverage();
    let report = format!(
        "== table1\n{}== table2\n{}== subsumption\n{}== verdicts\n{}",
        render_table1(&coverage),
        render_table2(&rows),
        render_subsumption(session.static_analysis(), &coverage),
        render_verdicts(session.runs()),
    );
    Outcome {
        rows,
        coverage,
        report,
    }
}

fn golden_path(key: &str) -> String {
    format!("{GOLDEN_DIR}/report_{key}.txt")
}

#[test]
fn case_study_reports_match_goldens() {
    let mut diverged = Vec::new();
    for study in studies() {
        let want = std::fs::read_to_string(golden_path(study.key)).expect("golden is committed");
        let got = run(&study).report;
        if want != got {
            let first = want
                .lines()
                .zip(got.lines())
                .position(|(w, g)| w != g)
                .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
            diverged.push(format!(
                "{}: first difference at line {}\nwant {:?}\nhave {:?}",
                study.key,
                first + 1,
                want.lines().nth(first),
                got.lines().nth(first)
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "reports diverge from the goldens:\n{}",
        diverged.join("\n")
    );
}

#[test]
fn case_study_reports_keep_their_shape_targets() {
    for study in studies() {
        let out = run(&study);
        // Coverage is monotone across iterations and the static set fixed.
        for w in out.rows.windows(2) {
            assert_eq!(w[0].static_count, w[1].static_count, "{}", study.key);
            assert!(w[0].dynamic_count <= w[1].dynamic_count, "{}", study.key);
        }
        match study.key {
            "window_lifter" => {
                assert!(out.rows.iter().all(|r| r.pfirm_pct.is_none()), "no PFirm");
            }
            "buck_boost" => {
                assert_eq!(out.rows[0].pfirm_pct, Some(100.0));
                assert_eq!(out.rows[0].pweak_pct, Some(100.0));
            }
            "sensor" => {
                // Under the buggy ADC the controller never enters its T_LED
                // branch, so the pairs defined on lines 50-52 stay open.
                let cov = &out.coverage;
                let t_led: Vec<usize> = cov
                    .associations()
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| {
                        c.assoc.def_model == "ctrl" && (50..=52).contains(&c.assoc.def_line)
                    })
                    .map(|(i, _)| i)
                    .collect();
                assert!(t_led.len() >= 3, "sensor has T_LED branch pairs");
                assert!(t_led.iter().all(|&i| !cov.is_covered(i)));
            }
            _ => {}
        }
    }
}

#[test]
#[ignore = "rewrites the committed goldens"]
fn regenerate() {
    std::fs::create_dir_all(GOLDEN_DIR).unwrap();
    for study in studies() {
        std::fs::write(golden_path(study.key), run(&study).report).unwrap();
    }
}
