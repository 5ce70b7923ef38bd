//! A PID-regulated first-order plant — the runtime-verification showcase
//! design. Unlike the three paper case studies, this loop ships with
//! *hand-written assertions* ([`pid_assertions`]): a settling-time
//! property, an overshoot bound and a control-effort bound, all evaluated
//! by the streaming monitor in the same simulation pass as coverage.
//!
//! The controller's gains are cluster parameters ([`PidTuning`]), so a
//! mis-tuned build is the natural fault-injection vector: the nominal
//! tuning satisfies every assertion, while [`PidTuning::detuned`] (an
//! aggressive integrator) drives the plant past the overshoot bound and
//! the monitor pins the first violation instant.

use std::sync::OnceLock;

use minic::TranslationUnit;
use stimuli::{Signal, Testcase};
use tdf_interp::{Interface, InterpModule, TdfModelDef};
use tdf_sim::{Cluster, PortSpec, Probe, SimTime, TraceBuffer};

use dft_core::{AssertionExpr, AssertionSpec, Design, Result};

/// The loop's behavioural models: a PI-D controller and a first-order lag
/// plant closed through a one-sample feedback delay.
pub const PID_SRC: &str = "\
void pid::processing()
{
    double r = ip_ref;
    double y = ip_y;
    double err = r - y;
    m_i = m_i + err * m_ki;
    if (m_i > m_ilim) m_i = m_ilim;
    if (m_i < 0.0 - m_ilim) m_i = 0.0 - m_ilim;
    double d = (err - m_prev) * m_kd;
    m_prev = err;
    double u = err * m_kp + m_i + d;
    if (u > m_umax) u = m_umax;
    if (u < 0) u = 0;
    op_u = u;
}

void plant::processing()
{
    double u = ip_u;
    m_y = m_y + (u - m_y) * 0.08;
    op_y = m_y;
}
";

/// Module activation period of the loop.
pub const PID_TIMESTEP: SimTime = SimTime::from_us(100);

/// Stimulus channel: the reference (setpoint) the loop tracks.
pub const REF: &str = "ref";

/// The reference level the shipped testcases step to.
pub const PID_TARGET: f64 = 10.0;

/// Controller gains — the cluster parameters the fault-injection demo
/// perturbs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidTuning {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain (per activation).
    pub ki: f64,
    /// Derivative gain (per activation).
    pub kd: f64,
    /// Anti-windup clamp on the integral term.
    pub ilim: f64,
}

impl PidTuning {
    /// The nominal tuning: settles on target with no overshoot beyond
    /// the assertion bound.
    #[must_use]
    pub fn nominal() -> Self {
        PidTuning {
            kp: 0.6,
            ki: 0.08,
            kd: 0.2,
            ilim: 12.0,
        }
    }

    /// The faulty tuning: an aggressive integrator whose anti-windup
    /// clamp is effectively disabled, so the wound-up integral carries
    /// the plant ~40% past the target — the monitor's prey.
    #[must_use]
    pub fn detuned() -> Self {
        PidTuning {
            kp: 0.6,
            ki: 0.6,
            kd: 0.0,
            ilim: 100.0,
        }
    }
}

/// The model interfaces of the loop under one tuning.
pub fn pid_model_defs(tuning: PidTuning) -> Vec<TdfModelDef> {
    vec![
        TdfModelDef::new(
            "pid",
            Interface::new()
                .input("ip_ref")
                .input_spec(PortSpec::new("ip_y").with_delay(1))
                .output("op_u")
                .member("m_i", 0.0)
                .member("m_prev", 0.0)
                .member("m_kp", tuning.kp)
                .member("m_ki", tuning.ki)
                .member("m_kd", tuning.kd)
                .member("m_ilim", tuning.ilim)
                .member("m_umax", 24.0),
        ),
        TdfModelDef::new(
            "plant",
            Interface::new()
                .input("ip_u")
                .output("op_y")
                .member("m_y", 0.0),
        ),
    ]
}

/// Observable outputs of a built loop cluster.
#[derive(Debug, Clone)]
pub struct PidProbes {
    /// Plant output (the regulated quantity).
    pub y: TraceBuffer,
    /// Controller output (control effort).
    pub u: TraceBuffer,
}

/// Builds the closed loop for one testcase (channel [`REF`]) under the
/// given tuning.
///
/// # Errors
///
/// Propagates parse/bind errors (none expected for the fixed source).
pub fn build_pid_cluster(tc: &Testcase, tuning: PidTuning) -> Result<(Cluster, PidProbes)> {
    pid_cluster_from(pid_tu()?, tc, tuning)
}

/// [`PID_SRC`], parsed once per process.
fn pid_tu() -> Result<&'static TranslationUnit> {
    static TU: OnceLock<minic::Result<TranslationUnit>> = OnceLock::new();
    crate::parse_once(&TU, PID_SRC)
}

/// [`build_pid_cluster`] over an already parsed [`PID_SRC`].
fn pid_cluster_from(
    tu: &TranslationUnit,
    tc: &Testcase,
    tuning: PidTuning,
) -> Result<(Cluster, PidProbes)> {
    let mut cluster = Cluster::new("pid_loop");
    let src = cluster.add_module(Box::new(
        tc.signal(REF).into_source("ref_src", PID_TIMESTEP),
    ))?;
    let defs = pid_model_defs(tuning);
    let pid = cluster.add_module(Box::new(InterpModule::new(
        tu,
        "pid",
        defs[0].interface.clone(),
    )?))?;
    let plant = cluster.add_module(Box::new(InterpModule::new(
        tu,
        "plant",
        defs[1].interface.clone(),
    )?))?;
    cluster.connect(src, "op_out", pid, "ip_ref")?;
    cluster.connect(pid, "op_u", plant, "ip_u")?;
    cluster.connect(plant, "op_y", pid, "ip_y")?;

    let (p_y, y) = Probe::new("y_probe");
    let (p_u, u) = Probe::new("u_probe");
    let py = cluster.add_module(Box::new(p_y))?;
    let pu = cluster.add_module(Box::new(p_u))?;
    cluster.connect(plant, "op_y", py, "tdf_i")?;
    cluster.connect(pid, "op_u", pu, "tdf_i")?;
    Ok((cluster, PidProbes { y, u }))
}

/// The analysable [`Design`] of the loop (nominal member values — the
/// def-use structure does not depend on the tuning).
///
/// # Errors
///
/// Propagates parse errors (none expected for the fixed source).
pub fn pid_design() -> Result<Design> {
    let tu = pid_tu()?;
    let dummy = Testcase::new("elab", SimTime::from_ms(1));
    let (cluster, _) = pid_cluster_from(tu, &dummy, PidTuning::nominal())?;
    Design::new(
        tu.clone(),
        pid_model_defs(PidTuning::nominal()),
        cluster.netlist(),
    )
}

/// The loop's testcases: an immediate step to [`PID_TARGET`] and the
/// same step delayed by 20 ms (both must meet the [`pid_assertions`]
/// settling deadline).
pub fn pid_testcases() -> Vec<Testcase> {
    let dur = SimTime::from_ms(100);
    vec![
        Testcase::new("step", dur).with(REF, Signal::Constant(PID_TARGET)),
        Testcase::new("step_late", dur).with(
            REF,
            Signal::Step {
                before: 0.0,
                after: PID_TARGET,
                at: SimTime::from_ms(20),
            },
        ),
    ]
}

/// The hand-written runtime properties of the step response, phrased
/// against the kernel's `module.port` sample streams:
///
/// * `settles` — `plant.op_y` stays within ±5% of the target for a
///   contiguous 10 ms window, achieved no later than 60 ms;
/// * `no_overshoot` — `plant.op_y` never exceeds the target by more
///   than 15%;
/// * `effort_bounded` — `pid.op_u` stays below the actuator ceiling.
pub fn pid_assertions() -> Vec<AssertionSpec> {
    vec![
        AssertionSpec::new(
            "settles",
            AssertionExpr::settles_by(
                "plant.op_y",
                PID_TARGET,
                PID_TARGET * 0.05,
                SimTime::from_ms(10),
                SimTime::from_ms(60),
            ),
        ),
        AssertionSpec::new(
            "no_overshoot",
            AssertionExpr::never_above("plant.op_y", PID_TARGET * 1.15),
        ),
        AssertionSpec::new(
            "effort_bounded",
            AssertionExpr::never_above("pid.op_u", 24.5),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_core::{analyse, DftSession, TestcaseSpec, Verdict};
    use tdf_sim::{NullSink, Simulator};

    fn step(name: &str) -> Testcase {
        Testcase::new(name, SimTime::from_ms(100)).with(REF, Signal::Constant(PID_TARGET))
    }

    #[test]
    fn design_analyses_with_associations() {
        let design = pid_design().unwrap();
        let sa = analyse(&design);
        assert!(sa.len() > 10, "got {}", sa.len());
    }

    #[test]
    fn nominal_tuning_settles_without_overshoot() {
        let t = step("nom");
        let (cluster, probes) = build_pid_cluster(&t, PidTuning::nominal()).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(t.duration, &mut NullSink).unwrap();
        let vals = probes.y.values_f64();
        let tail = &vals[vals.len() - 100..];
        let avg: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (avg - PID_TARGET).abs() < 0.3,
            "settles near {PID_TARGET}, got {avg:.2}"
        );
        assert!(probes.y.max_f64().unwrap() <= PID_TARGET * 1.15);
    }

    #[test]
    fn detuned_integrator_overshoots() {
        let t = step("det");
        let (cluster, probes) = build_pid_cluster(&t, PidTuning::detuned()).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(t.duration, &mut NullSink).unwrap();
        assert!(
            probes.y.max_f64().unwrap() > PID_TARGET * 1.15,
            "got {:.2}",
            probes.y.max_f64().unwrap()
        );
    }

    #[test]
    fn nominal_run_holds_every_assertion() {
        let mut session = DftSession::new(pid_design().unwrap())
            .unwrap()
            .with_assertions(pid_assertions());
        let t = step("nom");
        let (cluster, _) = build_pid_cluster(&t, PidTuning::nominal()).unwrap();
        session.run_testcase(&t.name, cluster, t.duration).unwrap();
        let verdicts = &session.runs()[0].verdicts;
        assert_eq!(verdicts.len(), 3);
        for v in verdicts {
            assert_eq!(v.verdict, Verdict::Holds, "{} must hold", v.name);
        }
    }

    #[test]
    fn fault_injected_tuning_fails_overshoot_at_a_pinned_instant() {
        let mut session = DftSession::new(pid_design().unwrap())
            .unwrap()
            .with_assertions(pid_assertions());
        let t = step("det");
        let (cluster, _) = build_pid_cluster(&t, PidTuning::detuned()).unwrap();
        session.run_testcase(&t.name, cluster, t.duration).unwrap();
        let verdicts = &session.runs()[0].verdicts;
        let overshoot = verdicts.iter().find(|v| v.name == "no_overshoot").unwrap();
        // The detuned loop first crosses 11.5 V on a fixed activation —
        // the monitor must report exactly that sample's timestamp.
        let expected = first_crossing_above(PID_TARGET * 1.15);
        assert_eq!(
            overshoot.verdict,
            Verdict::Fails {
                first_violation_time: expected
            },
            "first violation pinned to the crossing sample"
        );
        // Soundness: a failed property is never also reported as holding.
        assert!(verdicts
            .iter()
            .all(|v| v.verdict != Verdict::Holds || (v.name != "no_overshoot")));
    }

    /// Oracle for the pinned-violation test: replays the detuned loop
    /// through a probe and finds the first sample above `level`.
    fn first_crossing_above(level: f64) -> SimTime {
        let t = step("oracle");
        let (cluster, probes) = build_pid_cluster(&t, PidTuning::detuned()).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(t.duration, &mut NullSink).unwrap();
        probes
            .y
            .samples()
            .into_iter()
            .find(|(_, v)| v.as_f64() > level)
            .map(|(time, _)| time)
            .expect("detuned loop crosses the bound")
    }

    #[test]
    fn batch_and_single_runs_agree_on_pid_verdicts() {
        let t = step("batch");
        let build = || build_pid_cluster(&t, PidTuning::detuned()).unwrap().0;
        let mut single = DftSession::new(pid_design().unwrap())
            .unwrap()
            .with_assertions(pid_assertions());
        single.run_testcase(&t.name, build(), t.duration).unwrap();
        let mut batch = DftSession::new(pid_design().unwrap())
            .unwrap()
            .with_assertions(pid_assertions());
        batch.run_testcases(vec![TestcaseSpec::new(&t.name, build(), t.duration)]);
        assert_eq!(single.runs()[0].verdicts, batch.runs()[0].verdicts);
    }
}
