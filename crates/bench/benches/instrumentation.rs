//! Ablation A3: instrumentation overhead. The paper argues its
//! `parallel_print()` insertion is "less intrusive"; here we measure the
//! cost of def/use event emission by simulating the sensor system with a
//! sink that keeps every compact event versus the null sink
//! (uninstrumented baseline).

use std::hint::black_box;
use std::sync::Arc;

use ams_models::sensor::{build_sensor_cluster, sensor_testcases, BUGGY_ADC_FULL_SCALE};
use criterion::{criterion_group, criterion_main, Criterion};
use tdf_sim::{CompactRecordingSink, NullSink, Simulator};

fn bench_instrumentation(c: &mut Criterion) {
    let mut group = c.benchmark_group("instrumentation");
    group.sample_size(30);
    let tc = &sensor_testcases()[1]; // TC2: the busiest testcase

    group.bench_function("uninstrumented_null_sink", |b| {
        b.iter(|| {
            let (cluster, _) = build_sensor_cluster(tc, BUGGY_ADC_FULL_SCALE).unwrap();
            let mut sim = Simulator::new(cluster).unwrap();
            sim.run(tc.duration, &mut NullSink).unwrap();
            black_box(sim.stats().activations)
        })
    });

    group.bench_function("instrumented_compact_recording_sink", |b| {
        b.iter(|| {
            let (cluster, _) = build_sensor_cluster(tc, BUGGY_ADC_FULL_SCALE).unwrap();
            let mut sink = CompactRecordingSink::new(Arc::clone(cluster.interner()));
            let mut sim = Simulator::new(cluster).unwrap();
            sim.run(tc.duration, &mut sink).unwrap();
            black_box(sink.events.len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_instrumentation);
criterion_main!(benches);
