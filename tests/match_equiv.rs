//! Property-based equivalence gate for the interned match automaton: on
//! random synthetic clusters and fault-injected event logs, the
//! [`MatchAutomaton`] must produce *byte-identical* results — exercised
//! sets, executed defs, warning sequences, quarantine counts and rendered
//! coverage reports — to the string-keyed reference matcher in
//! `tests/support/string_matcher.rs`, and session reports must match that
//! reference too.
//!
//! The quick variants run in the default suite; heavier case counts are
//! opted in with `--features fault-inject` (the CI fault-injection job).

mod support;

use std::collections::HashSet;
use std::sync::OnceLock;

use proptest::prelude::*;

use support::string_matcher::analyse_events_with_mode;
use systemc_ams_dft::dft::synth::synthetic_chain;
use systemc_ams_dft::dft::{
    analyse, obs, render_table1, Association, BitSet, Coverage, Design, DftSession, DynamicResult,
    DynamicWarning, MatchAutomaton, MatchMode, SessionConfig, StaticAnalysis, TestcaseResult,
    TestcaseSpec,
};
use systemc_ams_dft::interp::{Interface, TdfModelDef};
use systemc_ams_dft::sim::{
    CompactEvent, Event, FaultInjector, FaultPlan, ModuleClass, ModuleInfo, Netlist, Provenance,
    RecordingSink, SimTime, Simulator,
};

/// One synthetic chain design with its statics, a prebuilt automaton and a
/// healthy captured event log. Built once, shared across proptest cases.
struct Fixture {
    design: Design,
    statics: StaticAnalysis,
    automaton: MatchAutomaton,
    events: Vec<Event>,
}

fn fixtures() -> &'static Vec<Fixture> {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        [(2usize, true), (3, false), (5, true)]
            .into_iter()
            .map(|(length, gains)| {
                let spec = synthetic_chain(length, gains);
                let design = spec.build_design().unwrap();
                let statics = analyse(&design);
                // The automaton freezes the id space *before* any log is
                // converted, so fabricated ghost names land above the
                // freeze — the same situation as a live session.
                let automaton = MatchAutomaton::new(&design, &statics);
                let cluster = spec.build_cluster().unwrap();
                let mut sim = Simulator::new(cluster).unwrap();
                let mut sink = RecordingSink::new();
                sim.run(SimTime::from_us(100), &mut sink).unwrap();
                assert!(!sink.events.is_empty(), "fixture produced events");
                Fixture {
                    design,
                    statics,
                    automaton,
                    events: sink.events,
                }
            })
            .collect()
    })
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0f64..0.6,
        0.0f64..0.6,
        0.0f64..0.6,
        0.0f64..0.9,
    )
        .prop_map(|(seed, drop, dup, reorder, corrupt)| {
            FaultPlan::new()
                .with_seed(seed)
                .with_drop_events(drop)
                .with_duplicate_events(dup)
                .with_reorder_events(reorder)
                .with_corrupt_events(corrupt)
        })
}

/// The automaton and the reference matcher over the same (possibly
/// corrupted) log in `mode`: every result field and the rendered
/// single-testcase coverage report must be byte-identical, and the
/// coverage bitset must agree with the exercised set on every static
/// association index. Returns the automaton's result.
fn assert_matchers_equivalent(
    design: &Design,
    statics: &StaticAnalysis,
    automaton: &MatchAutomaton,
    log: &[Event],
    mode: MatchMode,
) -> (DynamicResult, BitSet) {
    let compact: Vec<CompactEvent> = log
        .iter()
        .map(|e| CompactEvent::from_event(e, automaton.interner()))
        .collect();
    let reference = analyse_events_with_mode(design, log, mode);
    let (fast, bits) = automaton.analyse_with_coverage(&compact, mode);

    assert_eq!(fast.exercised, reference.exercised, "exercised sets differ");
    assert_eq!(fast.defs_executed, reference.defs_executed, "defs differ");
    assert_eq!(
        fast.warnings, reference.warnings,
        "warning sequences differ"
    );
    assert_eq!(
        fast.quarantined, reference.quarantined,
        "quarantine counts differ"
    );
    for (i, ca) in statics.associations.iter().enumerate() {
        assert_eq!(
            bits.contains(i),
            fast.exercised.contains(&ca.assoc),
            "coverage bit {i} disagrees with the exercised set"
        );
    }

    // A coverage built from the automaton's bitset renders exactly like one
    // built from the reference's names mapped onto the static list.
    let reference_run = TestcaseResult {
        name: "TC".into(),
        exercised_idx: static_bits(statics, &reference.exercised),
        exercised: reference.exercised,
        defs_executed: reference.defs_executed,
        warnings: reference.warnings,
        ..TestcaseResult::default()
    };
    let fast_run = TestcaseResult {
        name: "TC".into(),
        exercised: fast.exercised.clone(),
        defs_executed: fast.defs_executed.clone(),
        warnings: fast.warnings.clone(),
        exercised_idx: bits.clone(),
        ..TestcaseResult::default()
    };
    assert_eq!(
        render_table1(&Coverage::evaluate(statics, &[reference_run])),
        render_table1(&Coverage::evaluate(statics, &[fast_run])),
        "rendered coverage reports differ"
    );
    (fast, bits)
}

/// The bitset over `statics.associations` of the ones in `exercised`: the
/// reference matcher's names mapped onto the static list.
fn static_bits(statics: &StaticAnalysis, exercised: &HashSet<Association>) -> BitSet {
    let mut bits = BitSet::new(statics.associations.len());
    for (i, ca) in statics.associations.iter().enumerate() {
        if exercised.contains(&ca.assoc) {
            bits.insert(i);
        }
    }
    bits
}

/// `plan` applied to the fixture's log in the automaton's id space, where
/// the ghost names it fabricates land above the freeze.
fn corrupt(fx: &Fixture, plan: FaultPlan) -> Vec<CompactEvent> {
    let interner = fx.automaton.interner();
    let log: Vec<CompactEvent> = fx
        .events
        .iter()
        .map(|e| CompactEvent::from_event(e, interner))
        .collect();
    FaultInjector::new(plan).corrupt_log(&log, interner)
}

/// [`assert_matchers_equivalent`] with the fixture's automaton.
fn assert_fixture_equivalent(fx: &Fixture, log: &[Event], mode: MatchMode) {
    assert_matchers_equivalent(&fx.design, &fx.statics, &fx.automaton, log, mode);
}

#[cfg(not(feature = "fault-inject"))]
const CASES: u32 = 32;
#[cfg(feature = "fault-inject")]
const CASES: u32 = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Fault-injected logs over random synthetic clusters: both matchers
    /// agree byte-for-byte in both modes.
    #[test]
    fn automaton_matches_legacy_on_injected_faults(
        which in 0usize..3,
        plan in arb_plan(),
    ) {
        let fx = &fixtures()[which];
        let corrupted: Vec<Event> = corrupt(fx, plan)
            .into_iter()
            .map(|e| e.to_event(fx.automaton.interner()))
            .collect();
        assert_fixture_equivalent(fx, &corrupted, MatchMode::Lenient);
        assert_fixture_equivalent(fx, &corrupted, MatchMode::Strict);
    }

    /// Healthy logs are the common case; cover them explicitly too.
    #[test]
    fn automaton_matches_legacy_on_healthy_logs(which in 0usize..3) {
        let fx = &fixtures()[which];
        assert_fixture_equivalent(fx, &fx.events, MatchMode::Lenient);
        assert_fixture_equivalent(fx, &fx.events, MatchMode::Strict);
    }

    /// The streaming cursor fed one event at a time must be byte-identical
    /// to the whole-log analysis — every result field, the coverage bitset
    /// and the rendered Table I — in both match modes, on fault-injected
    /// logs.
    #[test]
    fn cursor_streaming_matches_buffered_analysis(
        which in 0usize..3,
        plan in arb_plan(),
    ) {
        let fx = &fixtures()[which];
        let compact = corrupt(fx, plan);
        for mode in [MatchMode::Lenient, MatchMode::Strict] {
            let (buffered, buffered_bits) = fx.automaton.analyse_with_coverage(&compact, mode);
            let mut cursor = fx.automaton.cursor(mode);
            for ev in &compact {
                cursor.feed(ev);
            }
            prop_assert_eq!(cursor.events_fed(), compact.len() as u64);
            let (streamed, streamed_bits) = cursor.finish();
            prop_assert_eq!(&streamed.exercised, &buffered.exercised);
            prop_assert_eq!(&streamed.defs_executed, &buffered.defs_executed);
            prop_assert_eq!(&streamed.warnings, &buffered.warnings);
            prop_assert_eq!(streamed.quarantined, buffered.quarantined);
            prop_assert_eq!(&streamed_bits, &buffered_bits, "coverage bitsets differ");

            let run = |r: DynamicResult, bits| TestcaseResult {
                name: "TC".into(),
                exercised: r.exercised,
                defs_executed: r.defs_executed,
                warnings: r.warnings,
                exercised_idx: bits,
                ..TestcaseResult::default()
            };
            prop_assert_eq!(
                render_table1(&Coverage::evaluate(&fx.statics, &[run(streamed, streamed_bits)])),
                render_table1(&Coverage::evaluate(&fx.statics, &[run(buffered, buffered_bits)])),
                "rendered coverage reports differ"
            );
        }
    }
}

/// The three testcase clusters every session test below runs, by name.
fn chain_testcases(length: usize) -> Vec<TestcaseSpec> {
    let spec = synthetic_chain(length, true);
    (0..3)
        .map(|i| {
            TestcaseSpec::new(
                format!("TC{i}"),
                spec.build_cluster().unwrap(),
                SimTime::from_us(40),
            )
        })
        .collect()
}

/// Sessions configured for 1 and 4 workers render identical reports.
/// Only the first build of each chain runs the static stage; the second
/// splices every model from the process-wide model cache, so this compares
/// the session paths, not the parallel fan-out (dft-core's
/// `fresh_cache_builds_agree_across_thread_counts` does that).
#[test]
fn session_reports_identical_across_thread_counts() {
    for length in [2usize, 5] {
        let mut outputs = Vec::new();
        for threads in [1usize, 4] {
            let design = synthetic_chain(length, true).build_design().unwrap();
            let config = SessionConfig::from_env().with_threads(threads);
            let mut session = DftSession::with_config(design, config).unwrap();
            session.run_testcases(chain_testcases(length));
            let warnings: usize = session.runs().iter().map(|r| r.warnings.len()).sum();
            outputs.push((render_table1(&session.coverage()), warnings));
        }
        assert_eq!(
            outputs[0], outputs[1],
            "chain{length} differs by thread count"
        );
    }
}

/// A session's batch and single-run paths render the same Table I and the
/// same per-run warnings as the reference: each testcase's log recorded
/// whole, matched by the string-keyed matcher in the sessions' lenient
/// mode, over a from-scratch static analysis.
#[test]
fn session_strategies_identical_across_thread_counts() {
    for length in [2usize, 5] {
        let spec = synthetic_chain(length, true);
        let design = spec.build_design().unwrap();
        let statics = analyse(&design);
        let reference_runs: Vec<TestcaseResult> = chain_testcases(length)
            .into_iter()
            .map(|tc| {
                let mut sim = Simulator::new(tc.cluster).unwrap();
                let mut sink = RecordingSink::new();
                sim.run(tc.duration, &mut sink).unwrap();
                let r = analyse_events_with_mode(&design, &sink.events, MatchMode::Lenient);
                TestcaseResult {
                    name: tc.name,
                    exercised_idx: static_bits(&statics, &r.exercised),
                    exercised: r.exercised,
                    defs_executed: r.defs_executed,
                    warnings: r.warnings,
                    ..TestcaseResult::default()
                }
            })
            .collect();
        let report = |cov: &Coverage, runs: &[TestcaseResult]| {
            let warnings: Vec<_> = runs.iter().map(|r| r.warnings.clone()).collect();
            (render_table1(cov), warnings)
        };
        let reference = report(
            &Coverage::evaluate(&statics, &reference_runs),
            &reference_runs,
        );

        let mut batch = DftSession::new(spec.build_design().unwrap()).unwrap();
        assert_eq!(batch.static_analysis(), &statics, "chain{length}: statics");
        batch.run_testcases(chain_testcases(length));
        assert_eq!(
            report(&batch.coverage(), batch.runs()),
            reference,
            "chain{length}: batch differs from the reference"
        );

        let mut single = DftSession::new(spec.build_design().unwrap()).unwrap();
        for tc in chain_testcases(length) {
            single
                .run_testcase(&tc.name, tc.cluster, tc.duration)
                .unwrap();
        }
        assert_eq!(
            report(&single.coverage(), single.runs()),
            reference,
            "chain{length}: single runs differ from the reference"
        );
    }
}

/// Streamed sessions match events as the kernel emits them: every event
/// ticks the `match.streamed_events` counter instead of landing in a
/// materialized log. (The counter is process-global and tests run
/// concurrently, so the assertion is a strict increase, not an exact
/// delta.)
#[test]
fn streamed_sessions_materialize_no_log() {
    let was_on = obs::metrics_enabled();
    obs::set_metrics_enabled(true);

    let spec = synthetic_chain(3, true);
    let mut session = DftSession::new(spec.build_design().unwrap()).unwrap();
    let before = obs::MetricsReport::capture().counter("match.streamed_events");
    session
        .run_testcase(
            "TC_stream",
            spec.build_cluster().unwrap(),
            SimTime::from_us(50),
        )
        .unwrap();
    let after = obs::MetricsReport::capture().counter("match.streamed_events");
    obs::set_metrics_enabled(was_on);
    assert!(
        after > before,
        "every streamed event must tick match.streamed_events ({before} -> {after})"
    );
}

// ------------------------------------------------ hand-written scenarios

/// One model `M` (input `ip_x`, output `op_y`, member `m_s`) whose body
/// defines `t` on line 3 and uses it on line 4.
fn small_design() -> Design {
    let src = "void M::processing()\n{\n    double t = ip_x;\n    op_y = t;\n}";
    let tu = minic::parse(src).unwrap();
    let models = vec![TdfModelDef::new(
        "M",
        Interface::new()
            .input("ip_x")
            .output("op_y")
            .member("m_s", 0i64),
    )];
    let netlist = Netlist {
        cluster: "top".into(),
        bindings: vec![],
        modules: vec![ModuleInfo {
            name: "M".into(),
            class: ModuleClass::UserCode,
            in_ports: vec!["ip_x".into()],
            out_ports: vec!["op_y".into()],
        }],
    };
    Design::new(tu, models, netlist).unwrap()
}

fn def_at(model: &str, var: &str, line: u32, us: u64) -> Event {
    Event::Def {
        time: SimTime::from_us(us),
        model: model.into(),
        var: var.into(),
        line,
    }
}

fn use_at(model: &str, var: &str, line: u32, us: u64) -> Event {
    Event::Use {
        time: SimTime::from_us(us),
        model: model.into(),
        var: var.into(),
        line,
        feeding: None,
        defined: true,
    }
}

fn fed(model: &str, var: &str, line: u32, prov: Provenance) -> Event {
    Event::Use {
        time: SimTime::ZERO,
        model: model.into(),
        var: var.into(),
        line,
        feeding: Some(prov),
        defined: true,
    }
}

/// [`assert_matchers_equivalent`] with an automaton built from scratch
/// over `design`.
fn assert_equiv(design: &Design, events: &[Event], mode: MatchMode) -> (DynamicResult, BitSet) {
    let statics = analyse(design);
    let automaton = MatchAutomaton::new(design, &statics);
    assert_matchers_equivalent(design, &statics, &automaton, events, mode)
}

#[test]
fn matches_legacy_on_a_healthy_log_in_both_modes() {
    let d = small_design();
    let events = vec![
        def_at("M", "t", 3, 0),
        use_at("M", "t", 4, 0),
        def_at("M", "m_s", 7, 1),
        use_at("M", "m_s", 3, 2),
        use_at("M", "ip_x", 3, 2),
        fed("M", "ip_x", 3, Provenance::new("op_y", 4, "M")),
        fed("M", "ip_x", 3, Provenance::new("op_out", 14, "top")),
    ];
    let (strict, _) = assert_equiv(&d, &events, MatchMode::Strict);
    assert!(strict
        .exercised
        .contains(&Association::new("t", 3, "M", 4, "M")));
    assert!(strict
        .exercised
        .contains(&Association::new("ip_x", 1, "M", 3, "M")));
    assert!(strict
        .exercised
        .contains(&Association::new("op_out", 14, "top", 3, "M")));
    assert_equiv(&d, &events, MatchMode::Lenient);
}

#[test]
fn matches_legacy_on_unknown_models_in_strict_mode() {
    // Strict mode matches events of models the design never declared
    // (their symbols may even be interned post-freeze): they take the
    // overflow last-def path.
    let d = small_design();
    let events = vec![
        def_at("TS", "x", 5, 0),
        use_at("TS", "x", 6, 0),
        fed("M", "ip_x", 3, Provenance::new("op_out", 14, "TS")),
        use_at("TS", "y", 7, 0), // use without def in an unknown model
    ];
    let (strict, _) = assert_equiv(&d, &events, MatchMode::Strict);
    assert!(strict
        .exercised
        .contains(&Association::new("x", 5, "TS", 6, "TS")));
    assert!(strict
        .exercised
        .contains(&Association::new("op_out", 14, "TS", 3, "M")));
}

#[test]
fn matches_legacy_on_ghost_corruption_in_lenient_mode() {
    let d = small_design();
    let events = vec![
        use_at("__ghost_model_0", "t", 4, 0),
        use_at("__ghost_model_0", "t", 4, 1),
        use_at("M", "__ghost_var_0", 4, 0),
        fed(
            "M",
            "ip_x",
            3,
            Provenance::new("op_out", 14, "__ghost_model_2"),
        ),
        def_at("M", "t", 3, 0),
        use_at("M", "t", 4, 0),
    ];
    let (lenient, _) = assert_equiv(&d, &events, MatchMode::Lenient);
    assert_eq!(lenient.quarantined, 4);
    // Ghost events also match the reference when strict mode trusts them.
    assert_equiv(&d, &events, MatchMode::Strict);
}

#[test]
fn matches_legacy_on_backward_time_def_poisoning() {
    let d = small_design();
    let events = vec![
        def_at("M", "t", 3, 10),
        def_at("M", "t", 9, 0), // warped backwards: quarantined, poisons
        use_at("M", "t", 10, 10),
    ];
    let (lenient, bits) = assert_equiv(&d, &events, MatchMode::Lenient);
    assert_eq!(lenient.quarantined, 1);
    assert!(lenient.exercised.is_empty());
    assert!(bits.is_empty());
}

// ------------------------------------------------ memo edge cases
//
// The cursor answers a repeated def site or pair from memos of what its
// first-occurrence sets hold. These logs aim at the ways a memo could
// disagree with those sets.

/// Both modes against the reference; returns the lenient result.
fn assert_equiv_both(design: &Design, events: &[Event]) -> DynamicResult {
    assert_equiv(design, events, MatchMode::Strict);
    assert_equiv(design, events, MatchMode::Lenient).0
}

#[test]
fn memo_use_site_whose_reaching_def_alternates() {
    let d = small_design();
    let mut events = Vec::new();
    for round in 0..4 {
        for def_line in [3, 9] {
            events.push(def_at("M", "t", def_line, round));
            events.push(use_at("M", "t", 4, round));
            events.push(use_at("M", "t", 4, round));
        }
    }
    let lenient = assert_equiv_both(&d, &events);
    for def_line in [3, 9] {
        let pair = Association::new("t", def_line, "M", 4, "M");
        assert!(lenient.exercised.contains(&pair), "{pair:?}");
    }
    assert_eq!(lenient.exercised.len(), 2);
}

#[test]
fn memo_entries_evicted_by_more_sites_than_the_table_holds() {
    // Far more distinct def sites, local pairs and fed pairs of one slot
    // than any memo holds, twice over: the second round meets evicted
    // entries and must fall through to the sets.
    const SITES: u32 = 5_000;
    let d = small_design();
    let fed_from = Provenance::new("op_y", 4, "M");
    let mut events = Vec::new();
    for _round in 0..2 {
        for k in 0..SITES {
            events.push(def_at("M", "t", 10_000 + k, 0));
            events.push(use_at("M", "t", 20_000 + k, 0));
            events.push(fed("M", "ip_x", 30_000 + k, fed_from.clone()));
        }
    }
    let lenient = assert_equiv_both(&d, &events);
    assert_eq!(lenient.exercised.len(), 2 * SITES as usize);
    assert_eq!(lenient.defs_executed.len(), SITES as usize + 1);
    assert!(lenient.warnings.is_empty());
}

#[test]
fn memo_def_quarantined_between_two_identical_uses() {
    let d = small_design();
    let events = vec![
        def_at("M", "t", 3, 10),
        use_at("M", "t", 4, 10),
        def_at("M", "t", 9, 0), // warped backwards: quarantined, poisons
        use_at("M", "t", 4, 10),
    ];
    let lenient = assert_equiv_both(&d, &events);
    assert_eq!(lenient.quarantined, 1);
    assert_eq!(
        lenient.exercised,
        [Association::new("t", 3, "M", 4, "M")]
            .into_iter()
            .collect()
    );
    assert_eq!(
        lenient.warnings.last(),
        Some(&DynamicWarning::UseWithoutDef {
            model: "M".into(),
            var: "t".into(),
            line: 4,
            time: SimTime::from_us(10),
        })
    );
}

#[test]
fn memo_one_provenance_at_two_use_lines_of_one_slot() {
    let d = small_design();
    let fed_from = Provenance::new("op_y", 4, "M");
    let events: Vec<Event> = [3, 5, 3, 5, 5, 3]
        .into_iter()
        .map(|line| fed("M", "ip_x", line, fed_from.clone()))
        .collect();
    let lenient = assert_equiv_both(&d, &events);
    let expected = [3, 5].map(|line| Association::new("op_y", 4, "M", line, "M"));
    assert_eq!(lenient.exercised, expected.into_iter().collect());
    assert_eq!(lenient.defs_executed.len(), 1);
}
