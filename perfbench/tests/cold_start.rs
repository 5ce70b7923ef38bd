//! Every `setup_s` sample must be a true cold start. Each runs in a fresh
//! child process, and the child itself checks that the static stage
//! rebuilt every model (or, for `serve-mixed`, that the first answers were
//! `artifact: cold` with every model rebuilt) and reports a `problem`
//! line otherwise — which the parent counts as a failed attempt.

use std::process::Command;

fn cold_start(workload: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dft-perfbench"))
        .args(["--cold-start", workload])
        .output()
        .expect("run the benchmark binary");
    assert!(out.status.success(), "{workload}: {}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 report")
}

#[test]
fn every_cold_start_sample_is_cold() {
    for workload in ["suite-replay", "edit-analyse", "serve-mixed"] {
        let report = cold_start(workload);
        let mut lines = report.lines();
        let first = lines.next().unwrap_or_default();
        let fields: Vec<f64> = first
            .strip_prefix("cold ")
            .unwrap_or_else(|| panic!("{workload}: no sample in {report:?}"))
            .split_whitespace()
            .map(|f| f.parse().expect("seconds"))
            .collect();
        assert_eq!(fields.len(), 2, "{workload}: {first:?}");
        assert!(fields[0] > 0.0 && fields[1] > 0.0 && fields[1] <= fields[0]);
        let problems: Vec<&str> = lines.collect();
        assert!(problems.is_empty(), "{workload}: {problems:?}");
    }
}

#[test]
fn a_warm_model_cache_is_reported() {
    // Two case-study cold starts in one process: the second finds every
    // model already cached, which the check must flag.
    let (_, _, first) = dft_perfbench::suite::cold_start();
    assert!(first.is_empty(), "{first:?}");
    let (_, _, second) = dft_perfbench::suite::cold_start();
    assert_eq!(second.len(), 4, "{second:?}");
}
