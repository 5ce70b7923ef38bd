//! The energy-efficient buck-boost converter of §VI-B (after Lefeuvre et
//! al.): a DC/DC converter operating as step-down (buck) or step-up
//! (boost), with a switching-frequency/duty control algorithm that monitors
//! the inductor current. The controller sets the mode, the expected output
//! voltage and the maximum current; the testbench programs an input voltage
//! and a target voltage and checks how fast and how stably the target is
//! reached.
//!
//! Topology notes matching the paper's Table II profile:
//!
//! * the output voltage reaches the controller **both** directly (fast
//!   over-voltage path) and through a redefining sense filter — a mixed
//!   original/redefined branch pair, so **PFirm pairs exist and are
//!   exercised by every testcase** (Table II: PFirm 100% from iteration 0);
//! * the inductor-current sense goes through the filter chain only —
//!   **PWeak**, also read unconditionally (PWeak 100% from iteration 0);
//! * a supervisor (OCP-event counting, cooldown gating) and a telemetry
//!   unit extend the design to the paper's multi-IP scale.

use minic::TranslationUnit;
use stimuli::{Signal, Testcase, Testsuite};
use tdf_interp::{Interface, InterpModule, TdfModelDef};
use tdf_sim::{Cluster, DefSite, LowPass, PortSpec, Probe, SimTime, TraceBuffer};

use dft_core::{Design, Result};

/// The converter's behavioural models.
pub const BUCK_BOOST_SRC: &str = "\
void ctrlr::processing()
{
    double vref = ip_vref;
    double vin = ip_vin;
    double vout = ip_vout;
    double vfast = ip_vout_fast;
    double il = ip_il;
    bool en = ip_enable;
    int mode = 0;
    if (vref > vin) mode = 1;
    double err = vref - vout;
    m_integ = m_integ + err * 0.02;
    if (m_integ > 4) m_integ = 4;
    if (m_integ < -4) m_integ = -4;
    double duty = 0.5 + err * 0.05 + m_integ * 0.05;
    if (duty > 0.92) duty = 0.92;
    if (duty < 0.08) duty = 0.08;
    bool ocp = false;
    if (il > m_imax) {
        duty = duty * 0.5;
        ocp = true;
        m_trips = m_trips + 1;
    }
    if (vfast > m_ovp) {
        duty = 0.08;
        mode = 0;
    }
    if (!en) {
        duty = 0.08;
    }
    op_mode = mode;
    op_duty = duty;
    op_ocp.write(ocp);
}

void pwm::processing()
{
    m_cnt = m_cnt + 1;
    if (m_cnt >= 8) m_cnt = 0;
    double level = ip_duty * 8;
    bool on = false;
    if (m_cnt < level) on = true;
    op_switch.write(on);
}

void plant::processing()
{
    double vin = ip_vin;
    bool sw = ip_switch;
    int mode = ip_mode;
    if (mode == 0) {
        if (sw) m_il = m_il + (vin - m_vc) * 0.12;
        else m_il = m_il - m_vc * 0.12;
    } else {
        if (sw) m_il = m_il + vin * 0.12;
        else m_il = m_il + (vin - m_vc) * 0.12;
    }
    if (m_il < 0) m_il = 0;
    if (m_il > 40) m_il = 40;
    double iload = m_vc * 0.08;
    m_vc = m_vc + (m_il - iload) * 0.04;
    if (m_vc < 0) m_vc = 0;
    op_vout = m_vc;
    op_il = m_il;
}

void supervisor::processing()
{
    bool ocp = ip_ocp;
    double vout = ip_vout;
    if (ocp) {
        m_ocp_count = m_ocp_count + 1;
    } else {
        if (m_ocp_count > 0) m_ocp_count = m_ocp_count - 1;
    }
    bool enable = true;
    if (m_ocp_count >= 8) {
        m_cooldown = 20;
        m_shutdowns = m_shutdowns + 1;
    }
    if (m_cooldown > 0) {
        m_cooldown = m_cooldown - 1;
        enable = false;
    }
    if (vout > m_vmax) m_vmax = vout;
    op_enable.write(enable);
}

void telemetry::processing()
{
    double v = ip_vout;
    double i = ip_il;
    int mode = ip_mode;
    m_samples = m_samples + 1;
    m_vsum = m_vsum + v;
    if (v > m_vpeak) m_vpeak = v;
    if (i > m_ipeak) m_ipeak = i;
    if (mode == 1) m_boost_time = m_boost_time + 1;
    op_stats = m_vsum / m_samples;
}
";

/// Netlist line of the vout sense-filter output binding (`bb_top:301`).
pub const VSENSE_SITE_LINE: u32 = 301;
/// Netlist line of the current sense-filter output binding (`bb_top:304`).
pub const ISENSE_SITE_LINE: u32 = 304;

/// Module activation period of the converter cluster.
pub const BB_TIMESTEP: SimTime = SimTime::from_us(50);

/// Stimulus channel: converter input voltage.
pub const VIN: &str = "vin";
/// Stimulus channel: programmed target voltage.
pub const VREF: &str = "vref";

/// The model interfaces of the buck-boost converter.
pub fn bb_model_defs() -> Vec<TdfModelDef> {
    vec![
        TdfModelDef::new(
            "ctrlr",
            Interface::new()
                .input("ip_vref")
                .input("ip_vin")
                .input_spec(PortSpec::new("ip_vout").with_delay(1))
                .input_spec(PortSpec::new("ip_vout_fast").with_delay(1))
                .input_spec(PortSpec::new("ip_il").with_delay(1))
                .input_spec(PortSpec::new("ip_enable").with_delay(1))
                .output("op_mode")
                .output("op_duty")
                .output("op_ocp")
                .member("m_integ", 0.0)
                .member("m_imax", 25i64)
                .member("m_ovp", 36i64)
                .member("m_trips", 0i64),
        ),
        TdfModelDef::new(
            "pwm",
            Interface::new()
                .input("ip_duty")
                .output("op_switch")
                .member("m_cnt", 0i64),
        ),
        TdfModelDef::new(
            "supervisor",
            Interface::new()
                .input("ip_ocp")
                .input("ip_vout")
                .output("op_enable")
                .member("m_ocp_count", 0i64)
                .member("m_cooldown", 0i64)
                .member("m_shutdowns", 0i64)
                .member("m_vmax", 0.0),
        ),
        TdfModelDef::new(
            "telemetry",
            Interface::new()
                .input("ip_vout")
                .input("ip_il")
                .input("ip_mode")
                .output("op_stats")
                .member("m_samples", 0i64)
                .member("m_vsum", 0.0)
                .member("m_vpeak", 0.0)
                .member("m_ipeak", 0.0)
                .member("m_boost_time", 0i64),
        ),
        TdfModelDef::new(
            "plant",
            Interface::new()
                .input("ip_vin")
                .input("ip_switch")
                .input("ip_mode")
                .output("op_vout")
                .output("op_il")
                .member("m_il", 0.0)
                .member("m_vc", 0.0),
        ),
    ]
}

/// Observable outputs of a built converter cluster.
#[derive(Debug, Clone)]
pub struct BbProbes {
    /// Converter output voltage.
    pub vout: TraceBuffer,
    /// Inductor current.
    pub il: TraceBuffer,
    /// Over-current protection flag.
    pub ocp: TraceBuffer,
    /// Telemetry running average of vout.
    pub stats: TraceBuffer,
}

/// Builds the converter cluster for one testcase (channels [`VIN`],
/// [`VREF`]).
///
/// # Errors
///
/// Propagates parse/bind errors (none expected for the fixed source).
pub fn build_bb_cluster(tc: &Testcase) -> Result<(Cluster, BbProbes)> {
    bb_cluster_from(&minic::parse(BUCK_BOOST_SRC)?, tc)
}

/// [`build_bb_cluster`] over an already parsed [`BUCK_BOOST_SRC`].
fn bb_cluster_from(tu: &TranslationUnit, tc: &Testcase) -> Result<(Cluster, BbProbes)> {
    let mut cluster = Cluster::new("bb_top");

    let vin_src =
        cluster.add_module(Box::new(tc.signal(VIN).into_source("vin_src", BB_TIMESTEP)))?;
    let vref_src = cluster.add_module(Box::new(
        tc.signal(VREF).into_source("vref_src", BB_TIMESTEP),
    ))?;

    let mut ids = std::collections::HashMap::new();
    for def in bb_model_defs() {
        let m = InterpModule::new(tu, &def.model, def.interface.clone())?;
        ids.insert(def.model.clone(), cluster.add_module(Box::new(m))?);
    }
    let (ctrlr, pwm, plant) = (ids["ctrlr"], ids["pwm"], ids["plant"]);
    let (supervisor, telemetry) = (ids["supervisor"], ids["telemetry"]);

    let vsense = cluster.add_module(Box::new(LowPass::new(
        "i_vsense_filter",
        0.5,
        DefSite::new("bb_top", VSENSE_SITE_LINE),
    )))?;
    let isense = cluster.add_module(Box::new(LowPass::new(
        "i_isense_filter",
        0.5,
        DefSite::new("bb_top", ISENSE_SITE_LINE),
    )))?;

    cluster.connect(vin_src, "op_out", ctrlr, "ip_vin")?;
    cluster.connect(vin_src, "op_out", plant, "ip_vin")?;
    cluster.connect(vref_src, "op_out", ctrlr, "ip_vref")?;
    cluster.connect(ctrlr, "op_duty", pwm, "ip_duty")?;
    cluster.connect(ctrlr, "op_mode", plant, "ip_mode")?;
    cluster.connect(pwm, "op_switch", plant, "ip_switch")?;
    // vout reaches the controller twice: filtered (redefined) and direct.
    cluster.connect(plant, "op_vout", vsense, "tdf_i")?;
    cluster.connect(vsense, "tdf_o", ctrlr, "ip_vout")?;
    cluster.connect(plant, "op_vout", ctrlr, "ip_vout_fast")?;
    // Inductor current only through the sense filter.
    cluster.connect(plant, "op_il", isense, "tdf_i")?;
    cluster.connect(isense, "tdf_o", ctrlr, "ip_il")?;
    // Supervisor: watches OCP and the filtered vout, gates the controller.
    cluster.connect(ctrlr, "op_ocp", supervisor, "ip_ocp")?;
    cluster.connect(vsense, "tdf_o", supervisor, "ip_vout")?;
    cluster.connect(supervisor, "op_enable", ctrlr, "ip_enable")?;
    // Telemetry: raw vout/mode plus the filtered current.
    cluster.connect(plant, "op_vout", telemetry, "ip_vout")?;
    cluster.connect(isense, "tdf_o", telemetry, "ip_il")?;
    cluster.connect(ctrlr, "op_mode", telemetry, "ip_mode")?;

    let (p_v, vout) = Probe::new("vout_probe");
    let (p_i, il) = Probe::new("il_probe");
    let (p_o, ocp) = Probe::new("ocp_probe");
    let (p_s, stats) = Probe::new("stats_probe");
    let pv = cluster.add_module(Box::new(p_v))?;
    let pi = cluster.add_module(Box::new(p_i))?;
    let po = cluster.add_module(Box::new(p_o))?;
    let ps = cluster.add_module(Box::new(p_s))?;
    cluster.connect(plant, "op_vout", pv, "tdf_i")?;
    cluster.connect(plant, "op_il", pi, "tdf_i")?;
    cluster.connect(ctrlr, "op_ocp", po, "tdf_i")?;
    cluster.connect(telemetry, "op_stats", ps, "tdf_i")?;

    Ok((
        cluster,
        BbProbes {
            vout,
            il,
            ocp,
            stats,
        },
    ))
}

/// The analysable [`Design`] of the converter.
///
/// # Errors
///
/// Propagates parse errors (none expected for the fixed source).
pub fn bb_design() -> Result<Design> {
    let tu = minic::parse(BUCK_BOOST_SRC)?;
    let dummy = Testcase::new("elab", SimTime::from_ms(1));
    let (cluster, _) = bb_cluster_from(&tu, &dummy)?;
    Design::new(tu, bb_model_defs(), cluster.netlist())
}

fn tc(name: &str, dur_ms: u64, vin: Signal, vref: Signal) -> Testcase {
    Testcase::new(name, SimTime::from_ms(dur_ms))
        .with(VIN, vin)
        .with(VREF, vref)
}

/// The converter testsuite with the paper's iteration sizes:
/// 10 initial testcases, then +5 / +5 / +4 (10 → 15 → 20 → 24, Table II).
///
/// Iteration 0 runs buck-mode regulation points only; iteration 1 adds
/// boost-mode targets (vref > vin), iteration 2 adds load/line transients,
/// iteration 3 adds over-current and over-voltage stress cases.
pub fn bb_suite() -> Testsuite {
    let mut suite = Testsuite::new("Buck Boost Converter");

    // Iteration 0: buck-mode regulation at ten set points.
    let mut iter0 = Vec::new();
    for (i, (vin, vref)) in [
        (12.0, 5.0),
        (12.0, 3.3),
        (12.0, 9.0),
        (10.0, 5.0),
        (15.0, 5.0),
        (15.0, 12.0),
        (9.0, 3.3),
        (9.0, 6.0),
        (24.0, 12.0),
        (24.0, 5.0),
    ]
    .iter()
    .enumerate()
    {
        iter0.push(tc(
            &format!("buck_{i}"),
            40,
            Signal::Constant(*vin),
            Signal::Constant(*vref),
        ));
    }
    suite.add_iteration(iter0);

    // Iteration 1: boost-mode targets (vref > vin).
    suite.add_iteration(vec![
        tc("boost_0", 40, Signal::Constant(5.0), Signal::Constant(12.0)),
        tc("boost_1", 40, Signal::Constant(5.0), Signal::Constant(9.0)),
        tc("boost_2", 40, Signal::Constant(3.3), Signal::Constant(5.0)),
        tc("boost_3", 60, Signal::Constant(9.0), Signal::Constant(24.0)),
        tc(
            "boost_4",
            60,
            Signal::Constant(12.0),
            Signal::Constant(18.0),
        ),
    ]);

    // Iteration 2: line/reference transients crossing the mode boundary.
    suite.add_iteration(vec![
        tc(
            "line_sag",
            80,
            Signal::Step {
                before: 12.0,
                after: 4.0,
                at: SimTime::from_ms(40),
            },
            Signal::Constant(9.0),
        ),
        tc(
            "ref_step_up",
            80,
            Signal::Constant(12.0),
            Signal::Step {
                before: 5.0,
                after: 15.0,
                at: SimTime::from_ms(40),
            },
        ),
        tc(
            "ref_step_down",
            80,
            Signal::Constant(12.0),
            Signal::Step {
                before: 15.0,
                after: 5.0,
                at: SimTime::from_ms(40),
            },
        ),
        tc(
            "vin_ripple",
            80,
            Signal::Constant(12.0).plus(Signal::Sine {
                offset: 0.0,
                amplitude: 2.0,
                freq_hz: 100.0,
            }),
            Signal::Constant(8.0),
        ),
        tc(
            "ref_sweep",
            100,
            Signal::Constant(10.0),
            Signal::Ramp {
                from: 3.0,
                to: 20.0,
                start: SimTime::from_ms(10),
                end: SimTime::from_ms(90),
            },
        ),
    ]);

    // Iteration 3: over-current and over-voltage stress.
    suite.add_iteration(vec![
        tc(
            "ocp_stress",
            80,
            Signal::Constant(30.0),
            Signal::Constant(28.0),
        ),
        tc(
            "ovp_stress",
            100,
            Signal::Constant(12.0),
            Signal::Constant(45.0),
        ),
        tc(
            "ocp_recover",
            120,
            Signal::Step {
                before: 30.0,
                after: 10.0,
                at: SimTime::from_ms(60),
            },
            Signal::Constant(26.0),
        ),
        tc(
            "cold_start_boost",
            60,
            Signal::Constant(4.0),
            Signal::Constant(30.0),
        ),
    ]);

    suite
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_core::{analyse, Classification, DftSession};
    use tdf_sim::{NullSink, Simulator};

    #[test]
    fn design_has_pfirm_and_pweak_pairs() {
        let design = bb_design().unwrap();
        let sa = analyse(&design);
        assert!(sa.len() > 60, "got {}", sa.len());
        assert!(
            !sa.of_class(Classification::PFirm).is_empty(),
            "dual vout path creates PFirm pairs"
        );
        assert!(
            !sa.of_class(Classification::PWeak).is_empty(),
            "filtered current sense creates PWeak pairs"
        );
    }

    #[test]
    fn buck_mode_regulates_to_target() {
        let t = tc("buck", 60, Signal::Constant(12.0), Signal::Constant(5.0));
        let (cluster, probes) = build_bb_cluster(&t).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(t.duration, &mut NullSink).unwrap();
        let vals = probes.vout.values_f64();
        let tail = &vals[vals.len() - 100..];
        let avg: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((avg - 5.0).abs() < 1.5, "settles near 5 V, got {avg:.2} V");
    }

    #[test]
    fn boost_mode_steps_up() {
        let t = tc("boost", 60, Signal::Constant(5.0), Signal::Constant(12.0));
        let (cluster, probes) = build_bb_cluster(&t).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(t.duration, &mut NullSink).unwrap();
        let vals = probes.vout.values_f64();
        let tail = &vals[vals.len() - 100..];
        let avg: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(avg > 6.0, "output above vin in boost, got {avg:.2} V");
    }

    #[test]
    fn over_current_protection_fires_under_stress() {
        let t = tc("ocp", 80, Signal::Constant(30.0), Signal::Constant(28.0));
        let (cluster, probes) = build_bb_cluster(&t).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(t.duration, &mut NullSink).unwrap();
        assert!(probes.ocp.max_f64().unwrap() > 0.0, "OCP observed");
        assert!(probes.il.max_f64().unwrap() > 25.0);
    }

    #[test]
    fn gentle_case_never_trips_ocp() {
        let t = tc("calm", 40, Signal::Constant(12.0), Signal::Constant(5.0));
        let (cluster, probes) = build_bb_cluster(&t).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(t.duration, &mut NullSink).unwrap();
        assert_eq!(probes.ocp.max_f64().unwrap(), 0.0);
    }

    #[test]
    fn suite_matches_paper_iteration_sizes() {
        let suite = bb_suite();
        assert_eq!(suite.iterations(), 4);
        assert_eq!(suite.size_at(0), 10);
        assert_eq!(suite.size_at(1), 15);
        assert_eq!(suite.size_at(2), 20);
        assert_eq!(suite.size_at(3), 24);
    }

    #[test]
    fn pfirm_and_pweak_fully_covered_from_iteration_0() {
        // Table II: "100% PFirm, and 100% PWeak def-use pairs were
        // exercised" already by the initial 10-testcase suite.
        let design = bb_design().unwrap();
        let suite = bb_suite();
        let mut session = DftSession::new(design).unwrap();
        for t in suite.up_to(0) {
            let (cluster, _) = build_bb_cluster(t).unwrap();
            session.run_testcase(&t.name, cluster, t.duration).unwrap();
        }
        let cov = session.coverage();
        assert_eq!(
            cov.class_percent(Classification::PFirm),
            Some(100.0),
            "all-PFirm satisfied at iteration 0"
        );
        assert_eq!(
            cov.class_percent(Classification::PWeak),
            Some(100.0),
            "all-PWeak satisfied at iteration 0"
        );
        assert!(cov.class_percent(Classification::Strong).unwrap() < 100.0);
    }

    #[test]
    fn ovp_stress_falsifies_an_output_bound_at_a_pinned_instant() {
        use dft_core::{AssertionExpr, AssertionSpec, Verdict};
        // The ovp_stress case programs a 45 V target, so the output blows
        // through a 30 V ceiling; the streaming monitor must report the
        // exact sample where it first does.
        let t = tc("ovp", 100, Signal::Constant(12.0), Signal::Constant(45.0));
        let (cluster, probes) = build_bb_cluster(&t).unwrap();
        let mut session = DftSession::new(bb_design().unwrap())
            .unwrap()
            .with_assertions(vec![AssertionSpec::new(
                "vout_ceiling",
                AssertionExpr::never_above("plant.op_vout", 30.0),
            )]);
        session.run_testcase(&t.name, cluster, t.duration).unwrap();
        // Oracle: the probe buffer records the same samples the monitor
        // streamed, so the first >30 V sample pins the violation time.
        let expected = probes
            .vout
            .samples()
            .into_iter()
            .find(|(_, v)| v.as_f64() > 30.0)
            .map(|(time, _)| time)
            .expect("stress case crosses 30 V");
        assert!(expected > SimTime::ZERO);
        assert_eq!(
            session.runs()[0].verdicts[0].verdict,
            Verdict::Fails {
                first_violation_time: expected
            }
        );
    }

    #[test]
    fn coverage_grows_over_iterations() {
        let design = bb_design().unwrap();
        let suite = bb_suite();
        let mut session = DftSession::new(design).unwrap();
        let mut per_iter = Vec::new();
        let mut done = 0;
        for it in 0..suite.iterations() {
            for t in &suite.up_to(it)[done..] {
                let (cluster, _) = build_bb_cluster(t).unwrap();
                session.run_testcase(&t.name, cluster, t.duration).unwrap();
            }
            done = suite.size_at(it);
            per_iter.push(session.coverage().exercised_count());
        }
        assert!(per_iter.windows(2).all(|w| w[0] <= w[1]));
        assert!(per_iter[3] > per_iter[0], "{per_iter:?}");
    }
}
