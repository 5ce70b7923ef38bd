//! Graceful-degradation integration test: a batch containing a panicking
//! module, a stalled module and a corrupted event stream must still
//! complete, producing a per-testcase [`RunOutcome`] and a partial coverage
//! report that names the degraded testcases — byte-stable across worker
//! counts.

use std::time::Duration;

use systemc_ams_dft::dft::{
    render_summary, render_table1, Design, DftSession, DynamicWarning, RunOutcome, TestcaseSpec,
};
use systemc_ams_dft::interp::{Interface, InterpModule, TdfModelDef};
use systemc_ams_dft::sim::{
    Cluster, FaultPlan, FaultyEvents, FnSource, PanicAfter, RunLimits, SimTime, StallAfter,
    TdfModule, Value,
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

fn defs() -> Vec<TdfModelDef> {
    vec![
        TdfModelDef::new(
            "producer",
            Interface::new()
                .input("ip_in")
                .output("op_y")
                .timestep(SimTime::from_us(5)),
        ),
        TdfModelDef::new("consumer", Interface::new().input("ip_x").output("op_z")),
    ]
}

/// How the producer module is sabotaged in one testcase.
#[derive(Clone, Copy)]
enum Sabotage {
    None,
    /// Panic on the third activation.
    Panic,
    /// Corrupt the emitted def/use events (ghost models/vars, time warps).
    CorruptEvents,
    /// Stall every activation far past the wall budget.
    Stall,
}

fn build(level: f64, sabotage: Sabotage) -> (Cluster, Design) {
    let tu = minic::parse(SRC).unwrap();
    let mut cluster = Cluster::new("top");
    let src = cluster
        .add_module(Box::new(FnSource::new(
            "stim",
            SimTime::from_us(5),
            move |_| Value::Double(level),
        )))
        .unwrap();
    let producer: Box<dyn TdfModule> =
        Box::new(InterpModule::new(&tu, "producer", defs()[0].interface.clone()).unwrap());
    let producer: Box<dyn TdfModule> = match sabotage {
        Sabotage::None => producer,
        Sabotage::Panic => Box::new(PanicAfter::new(producer, 2)),
        Sabotage::CorruptEvents => Box::new(FaultyEvents::new(
            producer,
            FaultPlan::new().with_seed(7).with_corrupt_events(0.5),
        )),
        Sabotage::Stall => Box::new(StallAfter::new(producer, 0, Duration::from_millis(500))),
    };
    let p = cluster.add_module(producer).unwrap();
    let c = cluster
        .add_module(Box::new(
            InterpModule::new(&tu, "consumer", defs()[1].interface.clone()).unwrap(),
        ))
        .unwrap();
    cluster.connect(src, "op_out", p, "ip_in").unwrap();
    cluster.connect(p, "op_y", c, "ip_x").unwrap();
    let design = Design::new(minic::parse(SRC).unwrap(), defs(), cluster.netlist()).unwrap();
    (cluster, design)
}

fn batch_specs() -> (Vec<TestcaseSpec>, Design) {
    let dur = SimTime::from_us(40); // 8 activations at the 5 us timestep
    let (c1, design) = build(1.0, Sabotage::None);
    let (c2, _) = build(2.0, Sabotage::Panic);
    let (c3, _) = build(3.0, Sabotage::CorruptEvents);
    let (c4, _) = build(4.0, Sabotage::Stall);
    let (c5, _) = build(5.0, Sabotage::None);
    (
        vec![
            TestcaseSpec::new("TC1", c1, dur),
            TestcaseSpec::new("TC2", c2, dur),
            TestcaseSpec::new("TC3", c3, dur),
            TestcaseSpec::new("TC4", c4, dur),
            TestcaseSpec::new("TC5", c5, dur),
        ],
        design,
    )
}

/// Generous wall budget: healthy testcases here simulate in well under a
/// millisecond, while the stalled one sleeps 500 ms per activation.
fn limits() -> RunLimits {
    RunLimits::none().with_wall_budget(Duration::from_millis(100))
}

fn run_batch() -> DftSession {
    let (specs, design) = batch_specs();
    let mut session = DftSession::new(design).unwrap();
    session.run_testcases_with(specs, limits());
    session
}

#[test]
fn batch_survives_panic_stall_and_corruption() {
    let session = run_batch();
    let runs = session.runs();
    assert_eq!(runs.len(), 5, "every testcase produced a result");
    assert_eq!(
        runs.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
        ["TC1", "TC2", "TC3", "TC4", "TC5"]
    );

    // TC2: the producer panicked on its third activation; the panic was
    // caught and the first two activations still count.
    assert!(
        matches!(&runs[1].outcome, RunOutcome::Panicked { payload } if payload.contains("producer")),
        "TC2 outcome: {}",
        runs[1].outcome
    );
    assert!(
        !runs[1].exercised.is_empty(),
        "activations before the panic still contribute coverage"
    );

    // TC3: simulation finished, but the corrupted event stream was
    // quarantined by lenient matching.
    assert_eq!(runs[2].outcome, RunOutcome::Ok);
    assert!(
        runs[2].warnings.iter().any(|w| matches!(
            w,
            DynamicWarning::UnknownModel { .. }
                | DynamicWarning::UnknownVariable { .. }
                | DynamicWarning::NonMonotoneTimestamp { .. }
        )),
        "corruption surfaced as quarantine warnings: {:?}",
        runs[2].warnings
    );

    // TC4: the stalled module blew the wall budget.
    assert!(
        matches!(&runs[3].outcome, RunOutcome::TimedOut { reason } if reason.contains("wall-clock")),
        "TC4 outcome: {}",
        runs[3].outcome
    );

    // The three non-sabotaged-to-death testcases still produce coverage.
    for i in [0, 2, 4] {
        assert_eq!(runs[i].outcome, RunOutcome::Ok, "{} healthy", runs[i].name);
        assert!(!runs[i].exercised.is_empty(), "{} covered", runs[i].name);
    }

    // The report names the degraded testcases and why.
    let cov = session.coverage();
    assert_eq!(cov.degraded().len(), 2);
    let table = render_table1(&cov);
    assert!(table.contains("Degraded testcases"), "{table}");
    assert!(table.contains("TC2: panicked"), "{table}");
    assert!(table.contains("TC4: timed out"), "{table}");
    let summary = render_summary(&cov);
    assert!(summary.contains("2 of 5 testcases degraded"), "{summary}");
}

#[test]
fn degraded_batch_is_byte_stable_across_worker_counts() {
    std::env::set_var("DFT_THREADS", "1");
    let one = run_batch();
    std::env::set_var("DFT_THREADS", "4");
    let four = run_batch();
    std::env::remove_var("DFT_THREADS");

    assert_eq!(one.runs().len(), four.runs().len());
    for (a, b) in one.runs().iter().zip(four.runs()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.outcome, b.outcome, "{} outcome differs", a.name);
        assert_eq!(a.warnings, b.warnings, "{} warnings differ", a.name);
        assert_eq!(a.exercised, b.exercised, "{} exercised differs", a.name);
    }
    assert_eq!(
        render_table1(&one.coverage()),
        render_table1(&four.coverage())
    );
    assert_eq!(
        render_summary(&one.coverage()),
        render_summary(&four.coverage())
    );
}

#[test]
fn healthy_batch_renders_without_degradation_footer() {
    let dur = SimTime::from_us(40);
    let (c1, design) = build(1.0, Sabotage::None);
    let (c2, _) = build(5.0, Sabotage::None);
    let mut batch = DftSession::new(design).unwrap();
    batch.run_testcases(vec![
        TestcaseSpec::new("TC1", c1, dur),
        TestcaseSpec::new("TC2", c2, dur),
    ]);
    assert!(batch.runs().iter().all(|r| r.outcome == RunOutcome::Ok));
    assert!(batch.coverage().degraded().is_empty());

    // Byte-identical to the pre-existing sequential path: outcome tracking
    // is invisible when nothing degrades.
    let (s1, design) = build(1.0, Sabotage::None);
    let (s2, _) = build(5.0, Sabotage::None);
    let mut seq = DftSession::new(design).unwrap();
    seq.run_testcase("TC1", s1, dur).unwrap();
    seq.run_testcase("TC2", s2, dur).unwrap();
    let (t_batch, t_seq) = (
        render_table1(&batch.coverage()),
        render_table1(&seq.coverage()),
    );
    assert_eq!(t_batch, t_seq);
    assert!(!t_batch.contains("Degraded"), "{t_batch}");
    assert_eq!(
        render_summary(&batch.coverage()),
        render_summary(&seq.coverage())
    );
}

/// TC3's exact quarantine result (seed 7, corrupt rate 0.5): every
/// warning in first-occurrence order, and the associations the surviving
/// events still exercise.
#[test]
fn corrupted_testcase_pins_its_warnings_and_exercised_set() {
    let session = run_batch();
    let tc3 = &session.runs()[2];
    let warnings: Vec<String> = tc3.warnings.iter().map(|w| format!("{w:?}")).collect();
    assert_eq!(
        warnings,
        [
            r#"UnknownModel { model: "__ghost_model_2", time: SimTime(0) }"#,
            r#"UnknownModel { model: "__ghost_model_1", time: SimTime(0) }"#,
            r#"UnknownVariable { model: "producer", var: "__ghost_var_3", time: SimTime(0) }"#,
            r#"UseWithoutDef { model: "producer", var: "o", line: 5, time: SimTime(0) }"#,
            r#"UnknownVariable { model: "producer", var: "__ghost_var_1", time: SimTime(0) }"#,
            r#"UseWithoutDef { model: "producer", var: "v", line: 4, time: SimTime(5000000000) }"#,
            r#"NonMonotoneTimestamp { model: "producer", time: SimTime(0), last: SimTime(10000000000) }"#,
            r#"UnknownVariable { model: "producer", var: "__ghost_var_2", time: SimTime(10000000000) }"#,
            r#"UnknownVariable { model: "producer", var: "__ghost_var_0", time: SimTime(25000000000) }"#,
            r#"UnknownModel { model: "__ghost_model_0", time: SimTime(30000000000) }"#,
        ]
    );
    let mut exercised: Vec<String> = tc3.exercised.iter().map(ToString::to_string).collect();
    exercised.sort();
    assert_eq!(
        exercised,
        [
            "(got, 9, consumer, 10, consumer)",
            "(ip_in, 1, producer, 3, producer)",
            "(o, 4, producer, 5, producer)",
            "(op_y, 5, producer, 9, consumer)",
            "(v, 3, producer, 4, producer)",
        ]
    );
}
