//! Benchmarks the full three-stage pipeline (E1/E6): static analysis +
//! instrumented simulation of TC1..TC3 + dynamic matching + coverage
//! evaluation on the sensor system — i.e. the cost of regenerating Table I.

use ams_models::sensor::{
    build_sensor_cluster, sensor_design, sensor_testcases, BUGGY_ADC_FULL_SCALE,
};
use criterion::{criterion_group, Criterion};
use dft_core::DftSession;
use std::hint::black_box;

fn bench_full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);

    group.bench_function("sensor_table1_full", |b| {
        b.iter(|| {
            let design = sensor_design(BUGGY_ADC_FULL_SCALE).unwrap();
            let mut session = DftSession::new(design).unwrap();
            for tc in sensor_testcases() {
                let (cluster, _) = build_sensor_cluster(&tc, BUGGY_ADC_FULL_SCALE).unwrap();
                session
                    .run_testcase(&tc.name, cluster, tc.duration)
                    .unwrap();
            }
            black_box(session.coverage().total_percent())
        })
    });

    group.bench_function("sensor_single_testcase", |b| {
        let design = sensor_design(BUGGY_ADC_FULL_SCALE).unwrap();
        let tc = &sensor_testcases()[0];
        b.iter(|| {
            let mut session = DftSession::new(design.clone()).unwrap();
            let (cluster, _) = build_sensor_cluster(tc, BUGGY_ADC_FULL_SCALE).unwrap();
            session
                .run_testcase(&tc.name, cluster, tc.duration)
                .unwrap();
            black_box(session.coverage().exercised_count())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_full_pipeline);

fn main() {
    benches();
    // Record the reachability-cache hit rate accumulated over the run
    // (needs DFT_METRICS=1; a fresh Cfg misses once, then every further
    // reaches() query hits the shared transitive closure).
    let report = dft_core::MetricsReport::capture();
    let (hits, misses) = (
        report.counter("cfg.reach_cache.hit"),
        report.counter("cfg.reach_cache.miss"),
    );
    if hits + misses > 0 {
        println!(
            "reach-cache: {hits} hits / {misses} misses ({:.1}% hit rate)",
            100.0 * hits as f64 / (hits + misses) as f64
        );
    }
}
