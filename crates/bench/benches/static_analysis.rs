//! Benchmarks the static stage (stage 1 of Fig. 3) on the three case-study
//! designs: association extraction + Strong/Firm/PFirm/PWeak
//! classification. The paper claims "a scalable static analysis"; this
//! bench quantifies it on real VPs (see `scalability.rs` for the sweep).

use ams_models::{buck_boost, sensor, window_lifter};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dataflow::{path_facts, Cfg, ReachingDefs};
use dft_core::synth::synthetic_chain;
use std::hint::black_box;

fn bench_static(c: &mut Criterion) {
    let mut group = c.benchmark_group("static_analysis");

    let sensor_design = sensor::sensor_design(sensor::BUGGY_ADC_FULL_SCALE).unwrap();
    group.bench_function("sensor_system", |b| {
        b.iter(|| black_box(dft_core::analyse(black_box(&sensor_design))))
    });

    let lifter_design = window_lifter::lifter_design().unwrap();
    group.bench_function("window_lifter", |b| {
        b.iter(|| black_box(dft_core::analyse(black_box(&lifter_design))))
    });

    let bb_design = buck_boost::bb_design().unwrap();
    group.bench_function("buck_boost", |b| {
        b.iter(|| black_box(dft_core::analyse(black_box(&bb_design))))
    });

    group.finish();
}

/// The du-path facts of every reaching pair of a synthetic chain, answered
/// from the cached transitive closure — the O(pairs × defs × E) hot spot a
/// per-query BFS would be.
fn bench_reachability_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("reachability_cache");
    for &n in &[8usize, 32] {
        let spec = synthetic_chain(n, true);
        let tu = minic::parse(&spec.source).unwrap();
        let flows: Vec<(Cfg, ReachingDefs)> = tu
            .functions
            .iter()
            .map(|f| {
                let cfg = Cfg::from_function(f).looped();
                let rd = ReachingDefs::compute(&cfg);
                (cfg, rd)
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("cached", n), &flows, |b, flows| {
            b.iter(|| {
                let mut non_du = 0usize;
                for (cfg, rd) in flows {
                    for pair in rd.pairs() {
                        non_du += usize::from(path_facts(cfg, rd, pair).has_non_du_path);
                    }
                }
                black_box(non_du)
            })
        });
    }
    group.finish();
}

/// Whole-stage thread scaling on a synthetic chain (the `DFT_THREADS`
/// knob, pinned explicitly here).
fn bench_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("static_thread_scaling");
    let design = synthetic_chain(32, true).build_design().unwrap();
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| black_box(dft_core::analyse_with_threads(black_box(&design), threads)))
            },
        );
    }
    group.finish();
}

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontend");
    group.bench_function("parse_sensor_src", |b| {
        b.iter(|| minic::parse(black_box(sensor::SENSOR_SRC)).unwrap())
    });
    group.bench_function("parse_lifter_src", |b| {
        b.iter(|| minic::parse(black_box(window_lifter::WINDOW_LIFTER_SRC)).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_static,
    bench_reachability_cache,
    bench_thread_scaling,
    bench_parse
);
criterion_main!(benches);
