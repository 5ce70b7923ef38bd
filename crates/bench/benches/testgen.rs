//! Coverage-guided generation throughput: candidates evaluated per
//! second on synthetic chain designs. The interesting ratio is chain
//! length versus throughput (the per-candidate cost is simulation with
//! streamed matching; generation bookkeeping should stay negligible).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dft_core::synth::synthetic_chain;
use std::hint::black_box;
use stimuli::Testcase;
use tdf_sim::{RunLimits, SimTime};
use testgen::{ChannelSpec, GenConfig, Generator};

fn run_generation(length: usize, iterations: usize, candidates: usize) -> usize {
    let spec = synthetic_chain(length, true);
    let design = spec.build_design().unwrap();
    let build = move |tc: &Testcase| {
        spec.build_cluster_with(Box::new(
            tc.signal("in").into_source("stim", SimTime::from_us(1)),
        ))
    };
    let cfg = GenConfig {
        seed: 0xBEEF,
        max_iterations: iterations,
        candidates_per_iteration: candidates,
        stagnation_limit: iterations, // never stop early: fixed work per run
        limits: RunLimits::none().with_max_activations(1_000_000),
        target_exercised: None,
        ..GenConfig::default()
    };
    let out = Generator::new(
        design,
        vec![ChannelSpec::new("in", -2.0, 8.0)],
        SimTime::from_us(50),
        build,
        cfg,
    )
    .unwrap()
    .run();
    out.coverage.exercised_count()
}

fn bench_testgen(c: &mut Criterion) {
    const ITERS: usize = 2;
    const CANDS: usize = 8;
    let mut group = c.benchmark_group("testgen_candidates");
    group.sample_size(10);
    // Every run evaluates exactly ITERS * CANDS candidates (stagnation is
    // disabled and the synthetic design is never fully covered).
    group.throughput(Throughput::Elements((ITERS * CANDS) as u64));

    for length in [2usize, 6] {
        group.bench_function(format!("chain{length}"), |b| {
            b.iter(|| black_box(run_generation(black_box(length), ITERS, CANDS)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_testgen);
criterion_main!(benches);
