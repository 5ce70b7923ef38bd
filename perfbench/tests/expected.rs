//! Regenerates `expected.txt` from the current program:
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml \
//!     --test expected -- --ignored --nocapture
//! ```
//!
//! The values were recorded once from the program and checked against
//! DESIGN.md's shape targets (which every run re-checks); regenerate only
//! for a change that is meant to alter outputs, and say so.

use ams_models::{sensor, window_lifter};
use dft_core::{DftSession, SessionArtifacts};
use dft_perfbench::edit::{class_histogram, CHAIN_LEN};
use dft_perfbench::expected::verdict_str;
use dft_perfbench::session_config;
use dft_perfbench::suite::{case_studies, open_session};

#[test]
#[ignore = "prints expected.txt; run by hand"]
fn print_expected() {
    println!("# Expected outputs of the perfbench workloads (see src/expected.rs).");
    println!("# suite <design> <testcase> <exercised> [<verdicts>]");
    for cs in case_studies() {
        let (mut session, _, _) = open_session(&cs).unwrap();
        for tc in &cs.testcases {
            let cluster = (cs.build)(tc).unwrap();
            let r = session
                .run_testcase(&tc.name, cluster, tc.duration)
                .unwrap();
            let verdicts: Vec<String> = r.verdicts.iter().map(verdict_str).collect();
            let line = format!(
                "suite {} {} {} {}",
                cs.key,
                tc.name,
                r.exercised.len(),
                verdicts.join(",")
            );
            println!("{}", line.trim_end());
        }
        let (exercised, total) = session.coverage().total_ratio();
        println!("total {} {exercised} {total}", cs.key);
    }

    println!("# edit: synthetic_chain({CHAIN_LEN}, true)");
    let design = dft_core::synth::synthetic_chain(CHAIN_LEN, true)
        .build_design()
        .unwrap();
    let artifacts = SessionArtifacts::build_with(design, &session_config());
    println!("edit associations {}", artifacts.static_analysis().len());
    for (class, n) in class_histogram(artifacts.static_analysis()) {
        println!("edit class {class} {n}");
    }

    println!("# serve <design> <testcase> <coverage.exercised> (one-testcase request)");
    let sensor_design = || sensor::sensor_design(sensor::FIXED_ADC_FULL_SCALE).unwrap();
    for tc in sensor::sensor_testcases() {
        let mut s = DftSession::with_config(sensor_design(), session_config()).unwrap();
        let (c, _) = sensor::build_sensor_cluster(&tc, sensor::FIXED_ADC_FULL_SCALE).unwrap();
        s.run_testcase(&tc.name, c, tc.duration).unwrap();
        println!("serve sensor {} {}", tc.name, s.coverage().total_ratio().0);
    }
    for tc in window_lifter::lifter_suite().all() {
        let design = window_lifter::lifter_design().unwrap();
        let mut s = DftSession::with_config(design, session_config()).unwrap();
        let (c, _) = window_lifter::build_lifter_cluster(tc).unwrap();
        s.run_testcase(&tc.name, c, tc.duration).unwrap();
        println!(
            "serve window-lifter {} {}",
            tc.name,
            s.coverage().total_ratio().0
        );
    }
    println!("# models <design> <user models>");
    let count = |d: dft_core::Design| d.user_models().len();
    println!("models sensor {}", count(sensor_design()));
    println!(
        "models window-lifter {}",
        count(window_lifter::lifter_design().unwrap())
    );
}
