//! Engine-level integration tests on the paper's sensor system (Fig. 2):
//! the search must rediscover what the hand-written TC1–TC3 suite covers,
//! stay byte-deterministic for a fixed seed, and minimize without losing
//! coverage.

use ams_models::sensor::{self, BUGGY_ADC_FULL_SCALE, HS_CHANNEL, TS_CHANNEL};
use dft_core::{render_table1, DftSession, Result};
use stimuli::Testcase;
use tdf_sim::{Cluster, SimTime};
use testgen::{ChannelSpec, GenConfig, Generator};

fn channels() -> Vec<ChannelSpec> {
    // The hand suite drives TS up to 0.65 V and HS up to 0.40 V; give the
    // search the same physical head-room the testbench author had.
    vec![
        ChannelSpec::new(TS_CHANNEL, -0.1, 1.6),
        ChannelSpec::new(HS_CHANNEL, -0.1, 0.5),
    ]
}

fn build(tc: &Testcase) -> Result<Cluster> {
    sensor::build_sensor_cluster(tc, BUGGY_ADC_FULL_SCALE).map(|(c, _)| c)
}

/// Exercised-association count of the paper's hand-written TC1–TC3.
fn hand_suite_exercised() -> usize {
    let design = sensor::sensor_design(BUGGY_ADC_FULL_SCALE).unwrap();
    let mut session = DftSession::new(design).unwrap();
    for tc in sensor::sensor_testcases() {
        let (cluster, _) = sensor::build_sensor_cluster(&tc, BUGGY_ADC_FULL_SCALE).unwrap();
        session
            .run_testcase(&tc.name, cluster, tc.duration)
            .unwrap();
    }
    session.coverage().exercised_count()
}

fn cfg(target: Option<usize>) -> GenConfig {
    GenConfig {
        seed: 0xDF7,
        max_iterations: 12,
        candidates_per_iteration: 16,
        stagnation_limit: 3,
        target_exercised: target,
        ..GenConfig::default()
    }
}

fn generator(target: Option<usize>) -> Generator {
    let design = sensor::sensor_design(BUGGY_ADC_FULL_SCALE).unwrap();
    Generator::new(design, channels(), SimTime::from_ms(2), build, cfg(target))
        .unwrap()
        .named("Sensor System")
}

#[test]
fn search_matches_the_hand_suite_from_nothing() {
    let baseline = hand_suite_exercised();
    assert!(baseline > 0);
    let outcome = generator(Some(baseline)).run();
    assert!(
        outcome.coverage.exercised_count() >= baseline,
        "generated {} < hand-written {baseline}\n{}",
        outcome.coverage.exercised_count(),
        outcome.report.render(),
    );
    // The trajectory is monotone: iterations only ever add coverage.
    let counts = outcome.report.dynamic_counts();
    assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
}

#[test]
fn fixed_seed_is_byte_identical_across_thread_counts() {
    let a = generator(None).run();
    let b = generator(None).run();
    assert_eq!(a.suite, b.suite, "suites diverge across same-seed runs");
    assert_eq!(a.minimized, b.minimized);
    assert_eq!(a.report.render(), b.report.render());
    assert_eq!(render_table1(&a.coverage), render_table1(&b.coverage));
}

#[test]
fn minimized_subset_preserves_coverage_through_a_fresh_session() {
    let outcome = generator(None).run();
    assert!(!outcome.minimized.is_empty());
    assert!(outcome.minimized.len() <= outcome.suite.all().len());
    assert_eq!(
        outcome.minimized_exercised,
        outcome.coverage.exercised_count(),
        "minimization dropped coverage"
    );
    // Replay the minimized subset through a fresh session end-to-end: the
    // preserved-exercised claim must hold under re-simulation, not just on
    // the engine's recorded index sets.
    let design = sensor::sensor_design(BUGGY_ADC_FULL_SCALE).unwrap();
    let mut session = DftSession::new(design).unwrap();
    for tc in &outcome.minimized {
        let (cluster, _) = sensor::build_sensor_cluster(tc, BUGGY_ADC_FULL_SCALE).unwrap();
        session
            .run_testcase(&tc.name, cluster, tc.duration)
            .unwrap();
    }
    assert_eq!(
        session.coverage().exercised_count(),
        outcome.coverage.exercised_count()
    );
}

#[test]
fn seeded_search_keeps_and_extends_the_hand_suite() {
    let baseline = hand_suite_exercised();
    let mut gen = generator(None);
    gen.seed_suite(&sensor::sensor_suite());
    let outcome = gen.run();
    // Iteration 0 is the seed verbatim.
    assert_eq!(outcome.suite.size_at(0), 3);
    assert_eq!(outcome.suite.all()[0].name, "TC1");
    assert!(
        outcome.coverage.exercised_count() >= baseline,
        "seeding can only add coverage"
    );
    // Seed cases count toward minimization's candidate pool.
    assert!(outcome.minimized_exercised == outcome.coverage.exercised_count());
}
