//! Property-based tests for the fault-injection harness and lenient event
//! matching:
//!
//! * lenient matching never panics, whatever the corruption;
//! * on a corrupted stream, lenient mode never reports *more* exercised
//!   associations than strict mode would (quarantining only removes);
//! * both modes agree exactly on a healthy stream.
//!
//! Each property is checked on the match automaton and on the string-keyed
//! reference matcher in `tests/support/string_matcher.rs`.
//!
//! The quick variants run in the default suite; heavier case counts are
//! opted in with `--features fault-inject` (the CI fault-injection job).

mod support;

use std::fmt::Write as _;
use std::sync::OnceLock;

use proptest::prelude::*;

use support::string_matcher::analyse_events_with_mode;
use systemc_ams_dft::dft::{analyse, Design, DynamicResult, MatchAutomaton, MatchMode};
use systemc_ams_dft::interp::{Interface, InterpModule, TdfModelDef};
use systemc_ams_dft::sim::{
    Cluster, CompactEvent, Event, FaultInjector, FaultPlan, FnSource, Provenance, RecordingSink,
    SimTime, Simulator, Value,
};

const SRC: &str = "\
void producer::processing()
{
    double v = ip_in;
    double o = v * 2;
    op_y = o;
}
void consumer::processing()
{
    double got = ip_x;
    op_z = got + 1;
}";

/// The design of one healthy instrumented simulation, its match automaton
/// and its event log, shared across proptest cases.
struct Fixture {
    design: Design,
    automaton: MatchAutomaton,
    events: Vec<Event>,
}

fn healthy() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let tu = minic::parse(SRC).unwrap();
        let defs = vec![
            TdfModelDef::new(
                "producer",
                Interface::new()
                    .input("ip_in")
                    .output("op_y")
                    .timestep(SimTime::from_us(5)),
            ),
            TdfModelDef::new("consumer", Interface::new().input("ip_x").output("op_z")),
        ];
        let mut cluster = Cluster::new("top");
        let src = cluster
            .add_module(Box::new(FnSource::new("stim", SimTime::from_us(5), |t| {
                Value::Double((t.as_fs() / 1_000_000_000) as f64)
            })))
            .unwrap();
        let p = cluster
            .add_module(Box::new(
                InterpModule::new(&tu, "producer", defs[0].interface.clone()).unwrap(),
            ))
            .unwrap();
        let c = cluster
            .add_module(Box::new(
                InterpModule::new(&tu, "consumer", defs[1].interface.clone()).unwrap(),
            ))
            .unwrap();
        cluster.connect(src, "op_out", p, "ip_in").unwrap();
        cluster.connect(p, "op_y", c, "ip_x").unwrap();
        let design = Design::new(minic::parse(SRC).unwrap(), defs, cluster.netlist()).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        let mut sink = RecordingSink::new();
        sim.run(SimTime::from_us(60), &mut sink).unwrap();
        assert!(!sink.events.is_empty(), "fixture produced events");
        let automaton = MatchAutomaton::new(&design, &analyse(&design));
        Fixture {
            design,
            automaton,
            events: sink.events,
        }
    })
}

/// `events` matched in `mode` by the automaton and by the reference
/// matcher, labelled.
fn both_matchers(
    fx: &Fixture,
    events: &[Event],
    mode: MatchMode,
) -> [(&'static str, DynamicResult); 2] {
    let compact: Vec<CompactEvent> = events
        .iter()
        .map(|e| CompactEvent::from_event(e, fx.automaton.interner()))
        .collect();
    [
        ("automaton", fx.automaton.analyse(&compact, mode)),
        (
            "reference",
            analyse_events_with_mode(&fx.design, events, mode),
        ),
    ]
}

/// `plan` applied to the fixture's log in the automaton's id space,
/// rendered back into string events.
fn corrupt(fx: &Fixture, plan: FaultPlan) -> Vec<Event> {
    let interner = fx.automaton.interner();
    let log: Vec<CompactEvent> = fx
        .events
        .iter()
        .map(|e| CompactEvent::from_event(e, interner))
        .collect();
    FaultInjector::new(plan)
        .corrupt_log(&log, interner)
        .into_iter()
        .map(|e| e.to_event(interner))
        .collect()
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

/// Arbitrary garbage events, detached from any simulation: names drawn
/// from a pool mixing real and ghost identifiers, arbitrary times/lines.
fn arb_event() -> impl Strategy<Value = Event> {
    let name = prop_oneof![
        Just("producer".to_string()),
        Just("consumer".to_string()),
        Just("top".to_string()),
        Just("__ghost_model_1".to_string()),
        "[a-z_]{1,12}",
    ];
    let var = prop_oneof![
        Just("v".to_string()),
        Just("o".to_string()),
        Just("ip_in".to_string()),
        Just("op_y".to_string()),
        Just("__ghost_var_2".to_string()),
        "[a-z_]{1,12}",
    ];
    let time = (0u64..200).prop_map(SimTime::from_us);
    let prov = (any::<bool>(), var.clone(), 0u32..50, name.clone())
        .prop_map(|(some, v, l, m)| some.then(|| Provenance::new(v, l, m)));
    (
        (name, var, time),
        (0u32..50, prov, any::<bool>(), any::<bool>()),
    )
        .prop_map(|((model, var, time), (line, feeding, defined, is_def))| {
            if is_def {
                Event::Def {
                    time,
                    model,
                    var,
                    line,
                }
            } else {
                Event::Use {
                    time,
                    model,
                    var,
                    line,
                    feeding,
                    defined,
                }
            }
        })
}

fn assert_lenient_subset_of_strict(fx: &Fixture, events: &[Event]) {
    let strict = both_matchers(fx, events, MatchMode::Strict);
    let lenient = both_matchers(fx, events, MatchMode::Lenient);
    for ((matcher, strict), (_, lenient)) in strict.iter().zip(&lenient) {
        assert!(
            lenient.exercised.is_subset(&strict.exercised),
            "{matcher}: lenient invented associations: {:?}",
            lenient
                .exercised
                .difference(&strict.exercised)
                .collect::<Vec<_>>()
        );
        assert!(
            lenient.defs_executed.is_subset(&strict.defs_executed),
            "{matcher}: lenient invented executed defs"
        );
    }
}

#[cfg(not(feature = "fault-inject"))]
const CASES: u32 = 48;
#[cfg(feature = "fault-inject")]
const CASES: u32 = 512;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Injecting any fault plan into a healthy log: lenient mode neither
    /// panics nor exercises more than strict mode on the same stream.
    #[test]
    fn lenient_subset_on_injected_faults(plan in arb_plan()) {
        let fx = healthy();
        let corrupted = corrupt(fx, plan);
        assert_lenient_subset_of_strict(fx, &corrupted);
    }

    /// Same property on fully arbitrary event soup (no simulation at all).
    #[test]
    fn lenient_subset_on_arbitrary_garbage(events in prop::collection::vec(arb_event(), 0..60)) {
        assert_lenient_subset_of_strict(healthy(), &events);
    }

    /// A fault-free plan is the identity on the log, and both matching
    /// modes agree exactly on it.
    #[test]
    fn no_faults_means_identical_modes(seed in any::<u64>()) {
        let fx = healthy();
        let plan = FaultPlan::new().with_seed(seed);
        let untouched = corrupt(fx, plan);
        prop_assert_eq!(&untouched, &fx.events);
        let strict = both_matchers(fx, &untouched, MatchMode::Strict);
        let lenient = both_matchers(fx, &untouched, MatchMode::Lenient);
        for ((matcher, strict), (_, lenient)) in strict.iter().zip(&lenient) {
            prop_assert_eq!(&strict.exercised, &lenient.exercised, "{}", matcher);
            prop_assert_eq!(&strict.warnings, &lenient.warnings, "{}", matcher);
            prop_assert_eq!(lenient.quarantined, 0, "{}", matcher);
        }
    }
}

/// One line per event: kind, time, `model.var:line`, and for uses the
/// feeding provenance and whether the sample was defined.
fn render(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        match e {
            Event::Def {
                time,
                model,
                var,
                line,
            } => writeln!(out, "def {time} {model}.{var}:{line}"),
            Event::Use {
                time,
                model,
                var,
                line,
                feeding,
                defined,
            } => {
                let feeding = feeding
                    .as_ref()
                    .map_or(String::new(), |p| format!(" <- {p}"));
                let defined = if *defined { "" } else { " undefined" };
                writeln!(out, "use {time} {model}.{var}:{line}{feeding}{defined}")
            }
        }
        .unwrap();
    }
    out
}

/// `render` of the healthy log corrupted by the plan of
/// `fixed_plan_pins_the_corrupted_log`: drops, duplicates, ghost names,
/// time warps, reordered pairs, and the two events still held when the
/// log ends appended last.
const PINNED_LOG: &str = "\
use 0 s producer.ip_in:3
use 0 s producer.ip_in:3
def 0 s __ghost_model_3.v:3
def 0 s producer.o:4
use 0 s producer.o:5
def 0 s producer.op_y:5
use 0 s consumer.ip_x:9 <- (op_y, 5, producer)
def 0 s consumer.got:9
use 0 s consumer.got:10
def 5 us producer.v:3
def 0 s consumer.op_z:10
use 5 us producer.v:4
def 5 us producer.op_y:5
use 5 us producer.o:5
use 5 us consumer.ip_x:9 <- (op_y, 5, producer)
def 5 us consumer.got:9
use 5 us __ghost_model_0.got:10
def 5 us consumer.op_z:10
def 5 us consumer.op_z:10
use 10 us producer.ip_in:3
use 10 us producer.ip_in:3
def 10 us producer.v:3
use 10 us __ghost_model_3.v:4
def 10 us producer.o:4
use 10 us producer.o:5
def 10 us producer.op_y:5
def 10 us consumer.got:9
use 10 us consumer.got:10
def 10 us consumer.op_z:10
use 15 us producer.ip_in:3
def 15 us producer.v:3
use 15 us producer.v:4
use 15 us producer.o:5
def 15 us producer.o:4
def 15 us producer.op_y:5
def 15 us consumer.got:9
use 15 us consumer.ip_x:9 <- (op_y, 5, producer)
use 15 us consumer.__ghost_var_2:10
def 15 us consumer.op_z:10
def 20 us producer.v:3
use 20 us producer.v:4
def 20 us producer.o:4
use 20 us producer.o:5
def 20 us producer.op_y:5
use 20 us consumer.ip_x:9 <- (op_y, 5, producer)
def 20 us consumer.got:9
use 20 us consumer.got:10
use 20 us consumer.got:10
def 20 us consumer.op_z:10
def 20 us consumer.op_z:10
use 25 us producer.ip_in:3
def 25 us producer.v:3
def 25 us producer.o:4
use 25 us producer.v:4
use 25 us producer.o:5
def 25 us producer.op_y:5
def 25 us producer.op_y:5
use 25 us consumer.ip_x:9 <- (op_y, 5, producer)
def 25 us consumer.got:9
use 30 us producer.ip_in:3
def 30 us producer.v:3
def 30 us producer.v:3
def 30 us producer.o:4
def 30 us producer.o:4
use 30 us producer.o:5
def 30 us producer.op_y:5
use 30 us consumer.ip_x:9 <- (op_y, 5, producer)
def 30 us consumer.got:9
def 30 us consumer.got:9
use 30 us consumer.got:10
def 30 us consumer.op_z:10
use 35 us producer.ip_in:3
def 35 us producer.v:3
use 35 us producer.v:4
def 35 us producer.o:4
def 35 us producer.o:4
use 35 us producer.o:5
def 35 us producer.op_y:5
def 35 us producer.op_y:5
use 35 us consumer.ip_x:9 <- (op_y, 5, producer)
def 35 us consumer.got:9
def 35 us __ghost_model_2.op_z:10
use 35 us consumer.got:10
def 40 us producer.v:3
use 40 us producer.ip_in:3
use 40 us producer.o:5
use 40 us producer.v:4
def 40 us producer.o:4
def 40 us producer.op_y:5
def 40 us consumer.got:9
use 40 us consumer.ip_x:9 <- (op_y, 5, producer)
def 40 us consumer.op_z:10
use 40 us consumer.got:10
use 45 us producer.ip_in:3
def 45 us producer.v:3
def 45 us producer.o:4
use 45 us producer.v:4
use 45 us producer.o:5
use 45 us __ghost_model_1.ip_x:9 <- (op_y, 5, producer)
def 45 us consumer.got:9
use 45 us consumer.got:10
def 45 us consumer.op_z:10
def 50 us producer.v:3
use 50 us producer.ip_in:3
use 50 us producer.v:4
def 50 us producer.o:4
use 50 us producer.o:5
use 50 us consumer.ip_x:9 <- (op_y, 5, producer)
def 50 us producer.op_y:5
use 50 us consumer.got:10
use 50 us consumer.got:10
def 50 us consumer.op_z:10
def 55 us producer.v:3
use 55 us producer.ip_in:3
def 55 us producer.o:4
use 55 us producer.v:4
use 55 us producer.o:5
def 55 us producer.op_y:5
def 55 us consumer.op_z:10
use 55 us consumer.ip_x:9 <- (op_y, 5, producer)
def 55 us consumer.got:9
";

/// One fixed plan with every event fault on and a reorder hold of two
/// pins its exact output, so a rewrite of the fault pipeline must replay
/// the same RNG draws, ghost names and hold order.
#[test]
fn fixed_plan_pins_the_corrupted_log() {
    let plan = FaultPlan::new()
        .with_seed(5)
        .with_drop_events(0.1)
        .with_duplicate_events(0.1)
        .with_reorder_events(0.2)
        .with_reorder_depth(2)
        .with_corrupt_events(0.1);
    assert_eq!(render(&corrupt(healthy(), plan)), PINNED_LOG);
}
