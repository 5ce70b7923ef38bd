//! Property-based tests for the coverage-guided generator over synthetic
//! chain designs and arbitrary seeds:
//!
//! * a whole generation run never panics, whatever the seed or chain
//!   shape, under the budget-bounded pipeline;
//! * a fixed seed is byte-identical across runs (suite, rendered report
//!   and rendered Table I all compare equal);
//! * the coverage trajectory is monotone — iterations only add coverage.

use std::time::Duration;

use proptest::prelude::*;

use systemc_ams_dft::dft::{render_table1, synth::synthetic_chain, Result as DftResult};
use systemc_ams_dft::gen::{ChannelSpec, GenConfig, GenOutcome, Generator};
use systemc_ams_dft::signals::Testcase;
use systemc_ams_dft::sim::{Cluster, RunLimits, SimTime};

/// Runs one small generation over a fresh `length`-model chain.
fn generate(length: usize, with_gains: bool, seed: u64) -> GenOutcome {
    let spec = synthetic_chain(length, with_gains);
    let design = spec.build_design().unwrap();
    let build = move |tc: &Testcase| -> DftResult<Cluster> {
        spec.build_cluster_with(Box::new(
            tc.signal("in").into_source("stim", SimTime::from_us(1)),
        ))
    };
    let cfg = GenConfig {
        seed,
        max_iterations: 4,
        candidates_per_iteration: 8,
        stagnation_limit: 2,
        // Deterministic activation cap plus a generous wall budget: the
        // wall clock must never decide an outcome on this healthy design,
        // or the determinism property below would flake.
        limits: RunLimits::none()
            .with_max_activations(100_000)
            .with_wall_budget(Duration::from_secs(5)),
        target_exercised: None,
        ..GenConfig::default()
    };
    Generator::new(
        design,
        vec![ChannelSpec::new("in", -2.0, 8.0)],
        SimTime::from_us(60),
        build,
        cfg,
    )
    .unwrap()
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whole-run safety: any seed on any small chain completes without
    /// panicking and yields a coverage-preserving minimized subset.
    #[test]
    fn generation_never_panics(
        seed in any::<u64>(),
        length in 2usize..5,
        with_gains in any::<bool>(),
    ) {
        let out = generate(length, with_gains, seed);
        prop_assert!(!out.suite.all().is_empty() || out.report.rows.iter().all(|r| r.accepted == 0));
        prop_assert!(out.minimized.len() <= out.suite.all().len());
        prop_assert_eq!(out.minimized_exercised, out.coverage.exercised_count());
    }

    /// Byte-determinism: the same seed produces identical suites, reports
    /// and Table I renderings on every run.
    #[test]
    fn same_seed_same_bytes_across_threads(seed in any::<u64>(), length in 2usize..4) {
        let first = generate(length, true, seed);
        let again = generate(length, true, seed);
        prop_assert_eq!(&first.suite, &again.suite);
        prop_assert_eq!(&first.minimized, &again.minimized);
        prop_assert_eq!(first.report.render(), again.report.render());
        prop_assert_eq!(render_table1(&first.coverage), render_table1(&again.coverage));
    }

    /// Monotonicity: accepted-only growth means the per-iteration dynamic
    /// count never decreases.
    #[test]
    fn coverage_is_monotone_across_iterations(seed in any::<u64>(), length in 2usize..5) {
        let out = generate(length, false, seed);
        let counts = out.report.dynamic_counts();
        prop_assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "non-monotone trajectory: {:?}", counts
        );
    }
}
