//! Coverage-guided testcase generation on all three case studies: the
//! paper's hand-refined suites (Table II) rediscovered by seeded search.
//!
//! For each AMS system this example (1) replays the paper's hand-written
//! testsuite to get its exercised-association baseline, (2) runs the
//! [`testgen::Generator`] from an *empty* suite until it matches that
//! baseline (or stagnates), (3) re-simulates the greedily minimized
//! subset through a fresh session to prove minimization preserved
//! coverage, and (4) re-runs the whole search with the same seed to prove
//! byte-identical determinism.
//!
//! Run with: `cargo run --release --example generate`
//!
//! Environment knobs (the CI smoke job shrinks the budget):
//!
//! * `DFT_GEN_SEED`  — search seed (default `3575`, i.e. `0xDF7`)
//! * `DFT_GEN_ITERS` — max refinement iterations (default 20)
//! * `DFT_GEN_CANDS` — candidates per iteration (default 32)
//! * `DFT_GEN_SMOKE` — set to `1` to skip the reach-the-baseline and
//!   determinism gates (small budgets cannot promise either)

use systemc_ams_dft::dft::{DftSession, Result as DftResult};
use systemc_ams_dft::gen::{ChannelSpec, GenConfig, GenOutcome, Generator};
use systemc_ams_dft::models::{buck_boost, sensor, window_lifter};
use systemc_ams_dft::signals::{Testcase, Testsuite};
use systemc_ams_dft::sim::{Cluster, SimTime};

/// One case study wired for generation.
struct System {
    name: &'static str,
    design: Box<dyn Fn() -> DftResult<systemc_ams_dft::dft::Design>>,
    build: fn(&Testcase) -> DftResult<Cluster>,
    hand_suite: fn() -> Testsuite,
    channels: Vec<ChannelSpec>,
    duration: SimTime,
}

fn systems() -> Vec<System> {
    vec![
        System {
            name: "Sensor System",
            design: Box::new(|| sensor::sensor_design(sensor::BUGGY_ADC_FULL_SCALE)),
            build: |tc| {
                sensor::build_sensor_cluster(tc, sensor::BUGGY_ADC_FULL_SCALE).map(|(c, _)| c)
            },
            hand_suite: sensor::sensor_suite,
            channels: vec![
                ChannelSpec::new(sensor::TS_CHANNEL, -0.1, 1.6),
                ChannelSpec::new(sensor::HS_CHANNEL, -0.1, 0.5),
            ],
            duration: SimTime::from_ms(2),
        },
        System {
            name: "Car Window Lifter",
            design: Box::new(window_lifter::lifter_design),
            build: |tc| window_lifter::build_lifter_cluster(tc).map(|(c, _)| c),
            hand_suite: window_lifter::lifter_suite,
            channels: vec![
                ChannelSpec::new(window_lifter::BTN_UP, 0.0, 1.0),
                ChannelSpec::new(window_lifter::BTN_DOWN, 0.0, 1.0),
                ChannelSpec::new(window_lifter::LOAD, 0.0, 5.0),
            ],
            duration: SimTime::from_ms(160),
        },
        System {
            name: "Buck Boost Converter",
            design: Box::new(buck_boost::bb_design),
            build: |tc| buck_boost::build_bb_cluster(tc).map(|(c, _)| c),
            hand_suite: buck_boost::bb_suite,
            channels: vec![
                ChannelSpec::new(buck_boost::VIN, 0.0, 32.0),
                ChannelSpec::new(buck_boost::VREF, 0.0, 45.0),
            ],
            duration: SimTime::from_ms(60),
        },
    ]
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Replays the hand-written suite and returns its exercised count.
fn baseline(sys: &System) -> Result<usize, Box<dyn std::error::Error>> {
    let mut session = DftSession::new((sys.design)()?)?;
    for tc in (sys.hand_suite)().all() {
        let cluster = (sys.build)(tc)?;
        session.run_testcase(&tc.name, cluster, tc.duration)?;
    }
    Ok(session.coverage().exercised_count())
}

fn generate(sys: &System, cfg: GenConfig) -> Result<GenOutcome, Box<dyn std::error::Error>> {
    let gen = Generator::new(
        (sys.design)()?,
        sys.channels.clone(),
        sys.duration,
        sys.build,
        cfg,
    )?
    .named(sys.name);
    Ok(gen.run())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = env_u64("DFT_GEN_SEED", 0xDF7);
    let iters = env_u64("DFT_GEN_ITERS", 20) as usize;
    let cands = env_u64("DFT_GEN_CANDS", 32) as usize;
    let smoke = env_u64("DFT_GEN_SMOKE", 0) == 1;
    println!(
        "Coverage-guided generation — seed {seed}, {iters} iterations x {cands} candidates{}\n",
        if smoke { " (smoke mode)" } else { "" }
    );

    for sys in systems() {
        let base = baseline(&sys)?;
        let hand = (sys.hand_suite)();
        let cfg = GenConfig {
            seed,
            max_iterations: iters,
            candidates_per_iteration: cands,
            target_exercised: Some(base),
            ..GenConfig::default()
        };

        let outcome = generate(&sys, cfg.clone())?;
        let exercised = outcome.coverage.exercised_count();
        println!("{}", outcome.report.render());
        println!(
            "  hand-written: {} cases -> {base} exercised | generated: {} cases -> {exercised} \
             exercised | minimized: {} cases -> {} exercised\n",
            hand.all().len(),
            outcome.suite.all().len(),
            outcome.minimized.len(),
            outcome.minimized_exercised,
        );

        if !smoke {
            assert!(
                exercised >= base,
                "{}: generated coverage {exercised} below hand-written baseline {base}",
                sys.name
            );

            // Minimization preserves coverage under re-simulation.
            let mut replay = DftSession::new((sys.design)()?)?;
            for tc in &outcome.minimized {
                let cluster = (sys.build)(tc)?;
                replay.run_testcase(&tc.name, cluster, tc.duration)?;
            }
            assert_eq!(
                replay.coverage().exercised_count(),
                exercised,
                "{}: minimized suite lost coverage on replay",
                sys.name
            );

            // Byte-determinism: the same seed, run again.
            let again = generate(&sys, cfg)?;
            assert_eq!(outcome.suite, again.suite, "{}: suites diverge", sys.name);
            assert_eq!(
                outcome.report.render(),
                again.report.render(),
                "{}: reports diverge",
                sys.name
            );
            println!("  determinism: a same-seed rerun is byte-identical\n");
        }
    }

    println!("all systems done");
    Ok(())
}
