//! Cold whole-design static analysis versus incremental one-model-edit
//! re-analysis, on the three case studies. The "edit" is the smallest
//! realistic change each design supports — a new ADC full-scale (sensor:
//! one interface member), a motor gain tweak (window lifter) and a PWM
//! scale tweak (buck-boost) — and is *varied per iteration* so the
//! process-wide model cache never absorbs it: every measured incremental
//! pass really recomputes the edited model and splices the rest from the
//! previous build. Byte-identity of the spliced analysis is asserted
//! before timing.
//!
//! Two measurements per case study, each against the never-memoized
//! reference:
//!
//! * `*_static` — the static stage alone (what the memoization actually
//!   accelerates): [`SessionArtifacts::reanalyse`] against
//!   [`analyse_with_threads`]; design construction is excluded via
//!   `iter_batched` setup.
//! * `*_full_build` — the end-to-end build including the match automaton,
//!   the figure a `dft-serve` client sees:
//!   [`SessionArtifacts::build_incremental`] against
//!   [`analyse_with_threads`] plus [`MatchAutomaton::new`].

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use ams_models::{buck_boost, sensor, window_lifter};
use dft_core::{analyse_with_threads, Design, MatchAutomaton, SessionArtifacts, SessionConfig};
use stimuli::Testcase;
use tdf_sim::SimTime;

fn base_sensor() -> Design {
    sensor::sensor_design(sensor::FIXED_ADC_FULL_SCALE).unwrap()
}

/// Edit `i`: a fresh ADC full-scale — a one-model interface edit.
fn edited_sensor(i: usize) -> Design {
    sensor::sensor_design(sensor::FIXED_ADC_FULL_SCALE + 1.0 + i as f64).unwrap()
}

fn base_lifter() -> Design {
    window_lifter::lifter_design().unwrap()
}

/// Edit `i`: a fresh motor smoothing gain — a one-model source edit
/// (line-count preserving, so every other model's spans are untouched).
fn edited_lifter(i: usize) -> Design {
    let src = window_lifter::WINDOW_LIFTER_SRC.replacen(
        "(target - m_speed) * 0.3",
        &format!("(target - m_speed) * 0.3{:04}", i % 10_000),
        1,
    );
    let dummy = Testcase::new("elab", SimTime::from_ms(1));
    let (cluster, _) = window_lifter::build_lifter_cluster(&dummy).unwrap();
    let tu = minic::parse(&src).unwrap();
    Design::new(tu, window_lifter::lifter_model_defs(), cluster.netlist()).unwrap()
}

fn base_bb() -> Design {
    buck_boost::bb_design().unwrap()
}

/// Edit `i`: a fresh PWM carrier scale — a one-model source edit in `pwm`.
fn edited_bb(i: usize) -> Design {
    let src = buck_boost::BUCK_BOOST_SRC.replacen(
        "ip_duty * 8",
        &format!("ip_duty * 8.{:04}", i % 10_000),
        1,
    );
    let dummy = Testcase::new("elab", SimTime::from_ms(1));
    let (cluster, _) = buck_boost::build_bb_cluster(&dummy).unwrap();
    let tu = minic::parse(&src).unwrap();
    Design::new(tu, buck_boost::bb_model_defs(), cluster.netlist()).unwrap()
}

struct Case {
    name: &'static str,
    base: fn() -> Design,
    edited: fn(usize) -> Design,
}

const CASES: &[Case] = &[
    Case {
        name: "sensor",
        base: base_sensor,
        edited: edited_sensor,
    },
    Case {
        name: "window_lifter",
        base: base_lifter,
        edited: edited_lifter,
    },
    Case {
        name: "buck_boost",
        base: base_bb,
        edited: edited_bb,
    },
];

fn bench_incremental(c: &mut Criterion) {
    // One worker on both sides: the single-worker baseline the other
    // benches use, so the comparison is work saved, not threads spent
    // (outputs are byte-identical at every thread count either way).
    let config = SessionConfig::from_env().with_threads(1);
    for case in CASES {
        let prev = SessionArtifacts::build_with((case.base)(), &config);

        // Exactness gate before any timing: the splice must reproduce the
        // cold analysis byte for byte, recomputing at most the one edited
        // model.
        let check = 1_000_000;
        let cold = analyse_with_threads(&(case.edited)(check), 1);
        let incr = SessionArtifacts::build_incremental((case.edited)(check), &prev, &config);
        assert_eq!(
            &cold,
            incr.static_analysis(),
            "{}: incremental != cold",
            case.name
        );
        assert!(
            incr.models_rebuilt() <= 1,
            "{}: one-model edit rebuilt {} models",
            case.name,
            incr.models_rebuilt()
        );

        let mut group = c.benchmark_group(format!("incremental/{}", case.name));
        // The ~5x cold/incremental ratio is the headline number; extra
        // samples keep the median stable on a loaded machine.
        group.sample_size(20);
        let edits = AtomicUsize::new(0);
        // Routines hand the design back alongside the result so its drop
        // is excluded from the timing like the output's.
        group.bench_function("cold_static", |b| {
            b.iter_batched(
                || (case.edited)(edits.fetch_add(1, Ordering::Relaxed)),
                |design| {
                    let analysis = black_box(analyse_with_threads(&design, 1));
                    (design, analysis)
                },
                BatchSize::PerIteration,
            )
        });
        group.bench_function("incremental_static_one_model_edit", |b| {
            b.iter_batched(
                || (case.edited)(edits.fetch_add(1, Ordering::Relaxed)),
                |design| {
                    let analysis = black_box(prev.reanalyse(&design, &config));
                    (design, analysis)
                },
                BatchSize::PerIteration,
            )
        });
        group.bench_function("cold_full_build", |b| {
            b.iter_batched(
                || (case.edited)(edits.fetch_add(1, Ordering::Relaxed)),
                |design| {
                    let analysis = analyse_with_threads(&design, 1);
                    let automaton = black_box(MatchAutomaton::new(&design, &analysis));
                    (design, analysis, automaton)
                },
                BatchSize::PerIteration,
            )
        });
        group.bench_function("incremental_full_build_one_model_edit", |b| {
            b.iter_batched(
                || (case.edited)(edits.fetch_add(1, Ordering::Relaxed)),
                |design| black_box(SessionArtifacts::build_incremental(design, &prev, &config)),
                BatchSize::PerIteration,
            )
        });
        group.finish();
    }
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
