//! Event-log matching: the interned-symbol match automaton over logs
//! captured from synthetic chain simulations. Throughput is events matched
//! per second; the end-to-end effect on candidate evaluation is covered by
//! `benches/testgen.rs`.
//!
//! Matching runs in lenient mode (the session default) so the figure
//! includes the validation prelude, not just association pairing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dft_core::synth::synthetic_chain;
use dft_core::{analyse, MatchAutomaton, MatchMode};
use std::hint::black_box;
use std::sync::Arc;
use tdf_sim::{CompactRecordingSink, SimTime, Simulator};

fn bench_matching(c: &mut Criterion) {
    for length in [2usize, 6] {
        let spec = synthetic_chain(length, true);
        let design = spec.build_design().unwrap();
        let mut cluster = spec.build_cluster().unwrap();
        cluster.set_interner(Arc::clone(design.interner()));
        let mut sim = Simulator::new(cluster).unwrap();
        let mut sink = CompactRecordingSink::new(Arc::clone(design.interner()));
        sim.run(SimTime::from_us(200), &mut sink).unwrap();
        let log = sink.events;
        let statics = analyse(&design);
        let automaton = MatchAutomaton::new(&design, &statics);

        let mut group = c.benchmark_group(format!("matching/chain{length}"));
        group.throughput(Throughput::Elements(log.len() as u64));
        group.bench_function("interned", |b| {
            b.iter(|| {
                black_box(automaton.analyse_with_coverage(black_box(&log), MatchMode::Lenient))
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
