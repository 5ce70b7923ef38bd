//! Deterministic retry-supervisor regression: a saboteur makes one
//! testcase of a batch fail transiently on its first two attempts and
//! succeed on the third. The supervisor must record the exponential
//! backoff schedule, salvage a final `RunOutcome::Ok`, and — the core
//! guarantee — leave a batch report **byte-identical** to a run where the
//! testcase never failed.

use std::time::{Duration, Instant};

use systemc_ams_dft::dft::{
    render_summary, render_table1, Design, DftSession, RetryPolicy, RunOutcome,
};
use systemc_ams_dft::interp::{Interface, InterpModule, TdfModelDef};
use systemc_ams_dft::sim::{
    Cluster, FnSource, PanicAfter, RunLimits, SimTime, StallAfter, TdfModule, Value,
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

const DURATION: SimTime = SimTime::from_us(40); // 8 activations at 5 us

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

/// How one attempt's producer is sabotaged.
#[derive(Clone, Copy)]
enum Sabotage {
    None,
    /// Panic on the third producer activation.
    Panic,
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
        Sabotage::Stall => Box::new(StallAfter::new(producer, 0, Duration::from_millis(200))),
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

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 3,
        backoff_base: Duration::from_millis(10),
    }
}

/// The reference: the same three-testcase batch with no saboteur at all.
fn fault_free_report() -> (String, String) {
    let (_, design) = build(1.0, Sabotage::None);
    let mut session = DftSession::new(design).unwrap();
    for (name, level) in [("TC1", 1.0), ("TC2", 2.0), ("TC3", 3.0)] {
        let (cluster, _) = build(level, Sabotage::None);
        session.run_testcase(name, cluster, DURATION).unwrap();
    }
    let cov = session.coverage();
    (render_table1(&cov), render_summary(&cov))
}

#[test]
fn flaky_testcase_salvaged_with_backoff_and_byte_identical_report() {
    let (_, design) = build(1.0, Sabotage::None);
    let mut session = DftSession::new(design).unwrap();
    let limits = RunLimits::none().with_wall_budget(Duration::from_millis(100));

    let r1 = session.run_testcase_retrying(
        "TC1",
        |_| Ok(build(1.0, Sabotage::None).0),
        DURATION,
        limits,
        &policy(),
    );
    // Testcase #2 panics on attempts 0 and 1, then runs clean.
    let r2 = session.run_testcase_retrying(
        "TC2",
        |attempt| {
            let sabotage = if attempt < 2 {
                Sabotage::Panic
            } else {
                Sabotage::None
            };
            Ok(build(2.0, sabotage).0)
        },
        DURATION,
        limits,
        &policy(),
    );
    let r3 = session.run_testcase_retrying(
        "TC3",
        |_| Ok(build(3.0, Sabotage::None).0),
        DURATION,
        limits,
        &policy(),
    );

    // Healthy testcases take exactly one attempt.
    assert_eq!(r1.attempts.len(), 1);
    assert_eq!(r3.attempts.len(), 1);
    assert!(!r1.salvaged() && !r3.salvaged());

    // The flaky one took three attempts, slept the exponential schedule,
    // and ended Ok.
    assert_eq!(r2.attempts.len(), 3);
    assert_eq!(
        r2.backoff_schedule(),
        vec![Duration::from_millis(10), Duration::from_millis(20)],
        "base * multiplier^(retry-1)"
    );
    assert!(matches!(
        r2.attempts[0].outcome,
        RunOutcome::Panicked { .. }
    ));
    assert!(matches!(
        r2.attempts[1].outcome,
        RunOutcome::Panicked { .. }
    ));
    assert_eq!(*r2.final_outcome(), RunOutcome::Ok);
    assert!(r2.salvaged());

    // Core guarantee: the salvaged batch reports byte-identically to one
    // that never failed — no partial coverage, no degradation footer.
    let cov = session.coverage();
    let (table1, summary) = fault_free_report();
    assert_eq!(render_table1(&cov), table1);
    assert_eq!(render_summary(&cov), summary);
    assert!(
        session.runs().iter().all(|r| r.outcome == RunOutcome::Ok),
        "no degraded run survives a salvage"
    );
}

#[test]
fn stalls_are_transient_and_budgets_escalate() {
    let (_, design) = build(1.0, Sabotage::None);
    let mut session = DftSession::new(design).unwrap();
    // Tight wall budget: the stalled attempt trips it, the clean retry
    // runs well inside it.
    let limits = RunLimits::none().with_wall_budget(Duration::from_millis(50));
    let report = session.run_testcase_retrying(
        "TC1",
        |attempt| {
            Ok(build(
                1.0,
                if attempt == 0 {
                    Sabotage::Stall
                } else {
                    Sabotage::None
                },
            )
            .0)
        },
        DURATION,
        limits,
        &policy(),
    );
    assert_eq!(report.attempts.len(), 2);
    assert!(matches!(
        report.attempts[0].outcome,
        RunOutcome::TimedOut { .. }
    ));
    assert_eq!(*report.final_outcome(), RunOutcome::Ok);
    // The retry ran under an escalated wall budget (50 ms -> 100 ms).
    assert_eq!(
        report.attempts[1].limits.wall_budget,
        Some(Duration::from_millis(100))
    );
    assert_eq!(session.runs().len(), 1, "one run per supervised testcase");
}

#[test]
fn deterministic_failures_exhaust_the_budget_and_stay_degraded() {
    let (_, design) = build(1.0, Sabotage::None);
    let mut session = DftSession::new(design).unwrap();
    let report = session.run_testcase_retrying(
        "TC1",
        |_| Ok(build(1.0, Sabotage::Panic).0), // panics on every attempt
        DURATION,
        RunLimits::none(),
        &policy(),
    );
    assert_eq!(report.attempts.len(), 4, "initial + max_retries attempts");
    assert!(matches!(
        report.final_outcome(),
        RunOutcome::Panicked { .. }
    ));
    assert!(!report.salvaged());
    assert!(report.permanent_failure());
    // The last degraded run (and its partial coverage) is kept.
    assert_eq!(session.runs().len(), 1);
    assert!(session.runs()[0].outcome.is_degraded());
}

#[test]
fn no_retry_starts_past_the_deadline() {
    let (_, design) = build(1.0, Sabotage::None);
    let mut session = DftSession::new(design).unwrap();
    let policy = RetryPolicy {
        max_retries: 6,
        backoff_base: Duration::from_millis(100),
    };
    // The stalled first attempt outlasts a deadline 50 ms away, so even
    // the first 100 ms backoff would end past it: the degraded run stands.
    let started = Instant::now();
    let limits = RunLimits::none().with_deadline(started + Duration::from_millis(50));
    let report = session.run_testcase_retrying(
        "TC1",
        |_| Ok(build(1.0, Sabotage::Stall).0),
        DURATION,
        limits,
        &policy,
    );
    assert_eq!(report.attempts.len(), 1);
    assert!(report.backoff_schedule().is_empty());
    assert!(matches!(
        report.final_outcome(),
        RunOutcome::TimedOut { .. }
    ));
    assert!(started.elapsed() < Duration::from_secs(1));
    assert_eq!(session.runs().len(), 1);
    assert!(session.runs()[0].outcome.is_degraded());

    // A retry whose backoff ends before a distant deadline still runs.
    let limits = RunLimits::none()
        .with_wall_budget(Duration::from_millis(50))
        .with_deadline(Instant::now() + Duration::from_secs(30));
    let report = session.run_testcase_retrying(
        "TC2",
        |attempt| {
            let sabotage = if attempt == 0 {
                Sabotage::Stall
            } else {
                Sabotage::None
            };
            Ok(build(1.0, sabotage).0)
        },
        DURATION,
        limits,
        &policy,
    );
    assert_eq!(report.backoff_schedule(), vec![Duration::from_millis(100)]);
    assert!(report.salvaged());
}
