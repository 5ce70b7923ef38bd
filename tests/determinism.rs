//! The parallel static stage must be a pure speedup: whatever the worker
//! count, the static analysis has to come out byte-identical; and a batch
//! run must report exactly like the same testcases run one by one.

use systemc_ams_dft::dft::synth::synthetic_chain;
use systemc_ams_dft::dft::{
    analyse_with_threads, obs, render_summary, render_table1, DftSession, TestcaseSpec,
};
use systemc_ams_dft::models::sensor::{
    build_sensor_cluster, sensor_design, sensor_testcases, BUGGY_ADC_FULL_SCALE,
};

#[test]
fn static_analysis_is_thread_count_invariant() {
    let was_on = obs::metrics_enabled();
    obs::set_metrics_enabled(true);
    let rebuilt = || obs::MetricsReport::capture().counter("incremental.models_rebuilt");
    for design in [
        sensor_design(BUGGY_ADC_FULL_SCALE).unwrap(),
        synthetic_chain(12, true).build_design().unwrap(),
        synthetic_chain(5, false).build_design().unwrap(),
    ] {
        // Every call must classify every model itself: a call that spliced
        // cached artifacts would compare the cache with itself, not the
        // parallel fan-out with the sequential one. Concurrent tests can
        // only add to the counter.
        let models = design.user_models().len() as u64;
        let analyse_counted = |threads: usize| {
            let before = rebuilt();
            let analysis = analyse_with_threads(&design, threads);
            let advanced = rebuilt() - before;
            assert!(
                advanced >= models,
                "analyse_with_threads({threads}) rebuilt {advanced} of {models} models"
            );
            analysis
        };
        let baseline = analyse_counted(1);
        for threads in [2, 4, 16] {
            assert_eq!(
                analyse_counted(threads),
                baseline,
                "static analysis differs at {threads} threads"
            );
        }
    }
    obs::set_metrics_enabled(was_on);
}

#[test]
fn full_pipeline_reports_are_byte_identical() {
    // Sequential run_testcase loop…
    let mut seq = DftSession::new(sensor_design(BUGGY_ADC_FULL_SCALE).unwrap()).unwrap();
    for tc in sensor_testcases() {
        let (cluster, _) = build_sensor_cluster(&tc, BUGGY_ADC_FULL_SCALE).unwrap();
        seq.run_testcase(&tc.name, cluster, tc.duration).unwrap();
    }

    // …versus the batch API.
    let mut batch = DftSession::new(sensor_design(BUGGY_ADC_FULL_SCALE).unwrap()).unwrap();
    let specs = sensor_testcases()
        .into_iter()
        .map(|tc| {
            let (cluster, _) = build_sensor_cluster(&tc, BUGGY_ADC_FULL_SCALE).unwrap();
            TestcaseSpec::new(&tc.name, cluster, tc.duration)
        })
        .collect();
    batch.run_testcases(specs);

    let (cov_seq, cov_batch) = (seq.coverage(), batch.coverage());
    assert_eq!(render_table1(&cov_seq), render_table1(&cov_batch));
    assert_eq!(render_summary(&cov_seq), render_summary(&cov_batch));
    assert_eq!(seq.runs().len(), batch.runs().len());
    for (s, b) in seq.runs().iter().zip(batch.runs()) {
        assert_eq!(s.exercised, b.exercised);
        assert_eq!(s.warnings, b.warnings);
    }
}
