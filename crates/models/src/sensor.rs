//! The paper's running example (Fig. 1 / Fig. 2): an IoT sensor system with
//! a temperature sensor (TS), humidity sensor (HS), analog delay `Z⁻¹`,
//! 4×1 analog mux (AM), gain (G), 9-bit saturating ADC and a digital
//! control module — authored so that every statement sits on the *same
//! source line as in the paper's Fig. 2*, which makes the generated Table I
//! directly comparable.
//!
//! The deliberate interface bug is preserved: the 9-bit ADC saturates at
//! 511 mV, so the controller never sees temperatures above ~51 °C and the
//! `T_LED` branch (lines 49–52) stays unreachable — exactly what the paper's
//! TC2 uncovers ("the data flow associations related to lines between Line
//! 49 and Line 52 were never exercised").

use minic::TranslationUnit;
use stimuli::{Signal, Testcase, Testsuite};
use tdf_interp::{Interface, InterpModule, TdfModelDef};
use tdf_sim::{Cluster, DefSite, Delay, Gain, PortSpec, SimTime, TraceBuffer, Value};
use tdf_sim::{Probe, TdfModule};

use dft_core::{Design, Result};

/// Fig. 2 of the paper, line-for-line (lines 1–68), with the ADC model
/// appended after the netlist comment block (lines 83–90). Lines 70–82 are
/// comments standing in for `sense_top::architecture()`, which is realised
/// in Rust by [`build_sensor_cluster`]; the delay and gain output bindings
/// keep the paper's coordinates `sense_top:74` and `sense_top:77`.
pub const SENSOR_SRC: &str = "\
void TS::processing()
{
    double sig_in = ip_signal_in; // volts
    double tmpr = sig_in*1000; //millivolts
    double out_tmpr = 0;
    bool intr_ = false;
    if (!ip_hold){
        if (ip_clear) intr_ = 0;
        else if ((tmpr > 30) && (tmpr < 1500 )){
            out_tmpr = tmpr;
            intr_ = true;
        }
        op_intr.write(intr_);
        op_signal_out = out_tmpr;
    }
}

void HS::processing()
{
    double temp = ip_signal_in*1000; // mV
    double Tdepend = (B1*42 + B2)*temp + (B3*42+B4);
    double C = 153e-12; // capacitance
    double BC = 150e-12; // bulk capacitance at 30%RH
    double sensitivity = 0.25e-12;
    bool intr_ = false;
    double newRH = 30 + ((C - BC)/sensitivity) + Tdepend;
    if (newRH > 30) intr_ = true;
    op_intr.write( intr_);
    op_signal_out = newRH;
}

void AM::processing()
{
    double tmp_out = 0;
    if (ip_select == 0) tmp_out = ip_port_0;
    else if (ip_select == 1) tmp_out = ip_port_1;
    else if (ip_select == 2) tmp_out = ip_port_2;
    op_mux_out = tmp_out;
}

void ctrl::processing()
{
    if(ip_intr0)
        if((ip_DIN/10) < 60) {
            op_clear = 1;
            m_mux_s = 0;
            op_hold = 0;
        } else if (m_mux_s == 1 && (ip_DIN/10)>60){
            op_T_LED = 1;
            op_clear = 1;
            op_hold = 0;
            m_mux_s = 0;
        } else if (m_mux_s == 0 && (ip_DIN/10)>50){
            m_mux_s = 1;
            op_hold = 1;
        } else {
            op_hold = 0;
            op_clear = 1;
            m_mux_s = 0;
        }
    else if (ip_intr1 && m_mux_s == 2){
        if(ip_DIN > 45) op_H_LED = 1;
        m_mux_s = 0;
    } else if (ip_intr1)
        m_mux_s = 2;
    op_mux_s = m_mux_s;
    if(ip_intr0==0) op_clear = 0;
}

// void sense_top::architecture() — realised in Rust; see
// build_sensor_cluster(). The component bindings keep the paper's line
// coordinates:
//   line 73:  i_delay_tdf1->tdf_i.bind(op_signal_out);
//   line 74:  i_delay_tdf1->tdf_o.bind(op_delay_out);
//   line 75:
//   line 76:  i_gain_tdf1->tdf_i.bind(op_mux_out);
//   line 77:  i_gain_tdf1->tdf_o.bind(op_gain_out);
//   line 78:
//   line 79:  i_adc1->adc_i.bind(op_gain_out);
//   line 80:  i_adc1->adc_o.bind(op_adc_out);
//

void adc::processing()
{
    double code = ip_adc_in;
    if (code > m_full_scale) code = m_full_scale;
    if (code < 0) code = 0;
    op_adc_out = code;
}
";

/// The netlist line of the delay element's output binding (`sense_top:74`).
pub const DELAY_SITE_LINE: u32 = 74;
/// The netlist line of the gain element's output binding (`sense_top:77`).
pub const GAIN_SITE_LINE: u32 = 77;

/// Default module timestep of the sensor cluster.
pub const SENSOR_TIMESTEP: SimTime = SimTime::from_us(20);

/// The ADC full scale of the paper's buggy design: a 9-bit converter
/// saturating at 511 mV ("any signal above 512 mV was saturated").
pub const BUGGY_ADC_FULL_SCALE: f64 = 511.0;
/// A fixed 11-bit ADC full scale for the repaired design variant.
pub const FIXED_ADC_FULL_SCALE: f64 = 2047.0;

/// Stimulus channel names accepted by [`build_sensor_cluster`].
pub const TS_CHANNEL: &str = "ts_in";
/// Humidity-sensor stimulus channel.
pub const HS_CHANNEL: &str = "hs_in";

/// Model interfaces of the sensor system (the elaboration-time facts the
/// static analysis needs).
pub fn sensor_model_defs(adc_full_scale: f64) -> Vec<TdfModelDef> {
    vec![
        TdfModelDef::new(
            "TS",
            Interface::new()
                .input("ip_signal_in")
                .input_spec(PortSpec::new("ip_hold").with_delay(1))
                .input_spec(PortSpec::new("ip_clear").with_delay(1))
                .output("op_intr")
                .output("op_signal_out"),
        ),
        TdfModelDef::new(
            "HS",
            Interface::new()
                .input("ip_signal_in")
                .output("op_intr")
                .output("op_signal_out")
                .member("B1", 0.0014)
                .member("B2", 0.1325)
                .member("B3", -0.0317)
                .member("B4", -3.0876),
        ),
        TdfModelDef::new(
            "AM",
            Interface::new()
                .input_spec(PortSpec::new("ip_select").with_delay(1))
                .input("ip_port_0")
                .input("ip_port_1")
                .input("ip_port_2")
                .output("op_mux_out"),
        ),
        TdfModelDef::new(
            "ctrl",
            Interface::new()
                .input("ip_intr0")
                .input("ip_intr1")
                .input("ip_DIN")
                .output("op_clear")
                .output("op_hold")
                .output("op_T_LED")
                .output("op_H_LED")
                .output("op_mux_s")
                .member("m_mux_s", 0i64),
        ),
        TdfModelDef::new(
            "adc",
            Interface::new()
                .input("ip_adc_in")
                .output("op_adc_out")
                .member("m_full_scale", adc_full_scale),
        ),
    ]
}

/// Observable outputs of a built sensor cluster.
#[derive(Debug, Clone)]
pub struct SensorProbes {
    /// The temperature LED ("too hot").
    pub t_led: TraceBuffer,
    /// The humidity LED ("too humid").
    pub h_led: TraceBuffer,
    /// The ADC output code feeding the controller.
    pub adc_out: TraceBuffer,
}

/// Builds the Fig. 1 cluster for one testcase (stimuli drawn from the
/// testcase channels [`TS_CHANNEL`] and [`HS_CHANNEL`]).
///
/// # Errors
///
/// Propagates parse/bind errors (none expected for the fixed source).
pub fn build_sensor_cluster(tc: &Testcase, adc_full_scale: f64) -> Result<(Cluster, SensorProbes)> {
    sensor_cluster_from(&minic::parse(SENSOR_SRC)?, tc, adc_full_scale)
}

/// [`build_sensor_cluster`] over an already parsed [`SENSOR_SRC`].
fn sensor_cluster_from(
    tu: &TranslationUnit,
    tc: &Testcase,
    adc_full_scale: f64,
) -> Result<(Cluster, SensorProbes)> {
    let mut cluster = Cluster::new("sense_top");

    let ts_src = cluster.add_module(Box::new(
        tc.signal(TS_CHANNEL).into_source("ts_src", SENSOR_TIMESTEP),
    ))?;
    let hs_src = cluster.add_module(Box::new(
        tc.signal(HS_CHANNEL).into_source("hs_src", SENSOR_TIMESTEP),
    ))?;

    let mut ids = std::collections::HashMap::new();
    for def in sensor_model_defs(adc_full_scale) {
        let m = InterpModule::new(tu, &def.model, def.interface.clone())?;
        ids.insert(def.model.clone(), cluster.add_module(Box::new(m))?);
    }
    let (ts, hs, am, ctl, adc) = (ids["TS"], ids["HS"], ids["AM"], ids["ctrl"], ids["adc"]);

    let z1 = cluster.add_module(Box::new(Delay::new(
        "i_delay_tdf1",
        1,
        Value::Double(0.0),
        DefSite::new("sense_top", DELAY_SITE_LINE),
    )))?;
    let g1 = cluster.add_module(Box::new(Gain::new(
        "i_gain_tdf1",
        1.0,
        DefSite::new("sense_top", GAIN_SITE_LINE),
    )))?;

    cluster.connect(ts_src, "op_out", ts, "ip_signal_in")?;
    cluster.connect(hs_src, "op_out", hs, "ip_signal_in")?;
    cluster.connect(ts, "op_signal_out", am, "ip_port_0")?;
    cluster.connect(ts, "op_signal_out", z1, "tdf_i")?;
    cluster.connect(z1, "tdf_o", am, "ip_port_1")?;
    cluster.connect(hs, "op_signal_out", am, "ip_port_2")?;
    cluster.connect(am, "op_mux_out", g1, "tdf_i")?;
    cluster.connect(g1, "tdf_o", adc, "ip_adc_in")?;
    cluster.connect(adc, "op_adc_out", ctl, "ip_DIN")?;
    cluster.connect(ts, "op_intr", ctl, "ip_intr0")?;
    cluster.connect(hs, "op_intr", ctl, "ip_intr1")?;
    cluster.connect(ctl, "op_mux_s", am, "ip_select")?;
    cluster.connect(ctl, "op_hold", ts, "ip_hold")?;
    cluster.connect(ctl, "op_clear", ts, "ip_clear")?;

    let (t_probe, t_led) = Probe::new("t_led_probe");
    let (h_probe, h_led) = Probe::new("h_led_probe");
    let (a_probe, adc_out) = Probe::new("adc_probe");
    let tp = cluster.add_module(Box::new(t_probe))?;
    let hp = cluster.add_module(Box::new(h_probe))?;
    let ap = cluster.add_module(Box::new(a_probe))?;
    cluster.connect(ctl, "op_T_LED", tp, "tdf_i")?;
    cluster.connect(ctl, "op_H_LED", hp, "tdf_i")?;
    cluster.connect(adc, "op_adc_out", ap, "tdf_i")?;

    Ok((
        cluster,
        SensorProbes {
            t_led,
            h_led,
            adc_out,
        },
    ))
}

/// The analysable [`Design`] of the sensor system.
///
/// # Errors
///
/// Propagates parse errors (none expected for the fixed source).
pub fn sensor_design(adc_full_scale: f64) -> Result<Design> {
    let tu = minic::parse(SENSOR_SRC)?;
    let dummy = Testcase::new("elab", SimTime::from_us(1));
    let (cluster, _) = sensor_cluster_from(&tu, &dummy, adc_full_scale)?;
    Design::new(tu, sensor_model_defs(adc_full_scale), cluster.netlist())
}

/// The paper's three testcases (§IV-B.3):
///
/// * **TC1** — constant 0.1 V on TS (≙ 10 °C);
/// * **TC2** — sweep 0 V → 0.65 V → 0 V on TS (≙ 0 °C → 65 °C → 0 °C);
/// * **TC3** — constant 0.40 V on HS (≙ 45 °C equivalent).
pub fn sensor_testcases() -> Vec<Testcase> {
    let dur = SimTime::from_ms(2);
    // While a TS testcase runs, the humidity sensor idles below its
    // interrupt threshold (newRH ≤ 30 requires a slightly negative input
    // with the CN0346 coefficients); otherwise HS steals the mux.
    let hs_idle = Signal::Constant(-0.05);
    vec![
        Testcase::new("TC1", dur)
            .with(TS_CHANNEL, Signal::Constant(0.1))
            .with(HS_CHANNEL, hs_idle.clone()),
        Testcase::new("TC2", dur)
            .with(TS_CHANNEL, Signal::sweep(0.0, 0.65, SimTime::ZERO, dur))
            .with(HS_CHANNEL, hs_idle),
        Testcase::new("TC3", dur).with(HS_CHANNEL, Signal::Constant(0.40)),
    ]
}

/// The Table-I testsuite as a one-iteration [`Testsuite`].
pub fn sensor_suite() -> Testsuite {
    let mut suite = Testsuite::new("Sensor System");
    suite.add_iteration(sensor_testcases());
    suite
}

/// Convenience: a source module is required by [`TdfModule`] bounds in some
/// tests; re-exported builder for a constant TS input.
pub fn constant_ts_source(level: f64) -> impl TdfModule {
    Signal::Constant(level).into_source("ts_src", SENSOR_TIMESTEP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_core::{analyse, Association, Classification, DftSession};
    use tdf_sim::{NullSink, Simulator};

    #[test]
    fn source_lines_match_fig2() {
        let tu = minic::parse(SENSOR_SRC).unwrap();
        // Function start lines.
        assert_eq!(tu.processing("TS").unwrap().span.line(), 1);
        assert_eq!(tu.processing("HS").unwrap().span.line(), 18);
        assert_eq!(tu.processing("AM").unwrap().span.line(), 32);
        assert_eq!(tu.processing("ctrl").unwrap().span.line(), 41);
        // Landmark statements from Table I.
        let stmts = tu.all_stmts();
        let on_line = |line: u32| -> Vec<String> {
            stmts
                .iter()
                .filter(|(_, s)| s.span.line() == line)
                .map(|(_, s)| minic::pretty_stmt(s))
                .collect()
        };
        assert!(
            on_line(4).iter().any(|s| s.contains("tmpr")),
            "line 4: tmpr def"
        );
        assert!(on_line(13).iter().any(|s| s.contains("op_intr")), "line 13");
        assert!(on_line(14).iter().any(|s| s.contains("op_signal_out")));
        assert!(on_line(49).iter().any(|s| s.contains("op_T_LED")));
        assert!(on_line(62).iter().any(|s| s.contains("op_H_LED")));
        assert!(on_line(66).iter().any(|s| s.contains("op_mux_s")));
        assert!(on_line(67).iter().any(|s| s.contains("op_clear")));
    }

    #[test]
    fn static_analysis_reproduces_table1_landmarks() {
        let design = sensor_design(BUGGY_ADC_FULL_SCALE).unwrap();
        let sa = analyse(&design);
        let class_of = |a: Association| -> Option<Classification> {
            sa.associations
                .iter()
                .find(|c| c.assoc == a)
                .map(|c| c.class)
        };
        // Strong locals (Table I): (tmpr, 4, TS, 9, TS), (sig_in, 3, TS, 4, TS).
        assert_eq!(
            class_of(Association::new("tmpr", 4, "TS", 9, "TS")),
            Some(Classification::Strong)
        );
        assert_eq!(
            class_of(Association::new("sig_in", 3, "TS", 4, "TS")),
            Some(Classification::Strong)
        );
        // Firm locals: (out_tmpr, 5, TS, 14, TS), (intr_, 6, TS, 13, TS),
        // (tmp_out, 34, AM, 38, AM), (intr_, 25, HS, 28, HS).
        for (v, d, m, u) in [
            ("out_tmpr", 5, "TS", 14),
            ("intr_", 6, "TS", 13),
            ("tmp_out", 34, "AM", 38),
            ("intr_", 25, "HS", 28),
        ] {
            assert_eq!(
                class_of(Association::new(v, d, m, u, m)),
                Some(Classification::Firm),
                "({v}, {d}, {m}, {u}, {m})"
            );
        }
        // Strong cluster pairs: (op_intr, 13, TS, 43, ctrl), (op_hold, 55, ctrl, 7, TS).
        assert_eq!(
            class_of(Association::new("op_intr", 13, "TS", 43, "ctrl")),
            Some(Classification::Strong)
        );
        assert_eq!(
            class_of(Association::new("op_hold", 55, "ctrl", 7, "TS")),
            Some(Classification::Strong)
        );
        // PFirm: both branches of op_signal_out into AM.
        assert_eq!(
            class_of(Association::new("op_signal_out", 14, "TS", 35, "AM")),
            Some(Classification::PFirm)
        );
        assert_eq!(
            class_of(Association::new(
                "op_signal_out",
                DELAY_SITE_LINE,
                "sense_top",
                36,
                "AM"
            )),
            Some(Classification::PFirm)
        );
        // HS's op_signal_out into AM is a single original branch: Strong.
        assert_eq!(
            class_of(Association::new("op_signal_out", 29, "HS", 37, "AM")),
            Some(Classification::Strong)
        );
        // PWeak: op_mux_out through the gain into the adc model (use at
        // line 85: `double code = ip_adc_in;`).
        assert_eq!(
            class_of(Association::new(
                "op_mux_out",
                GAIN_SITE_LINE,
                "sense_top",
                85,
                "adc"
            )),
            Some(Classification::PWeak)
        );
        // Member pairs: (m_mux_s, 65, ctrl, 66, ctrl) and the
        // cross-activation (m_mux_s, 65, ctrl, 48, ctrl), both Strong.
        assert_eq!(
            class_of(Association::new("m_mux_s", 65, "ctrl", 66, "ctrl")),
            Some(Classification::Strong)
        );
        assert_eq!(
            class_of(Association::new("m_mux_s", 65, "ctrl", 48, "ctrl")),
            Some(Classification::Strong)
        );
        // Pseudo-def for the testbench-driven TS input.
        assert_eq!(
            class_of(Association::new("ip_signal_in", 1, "TS", 3, "TS")),
            Some(Classification::Strong)
        );
    }

    #[test]
    fn cluster_elaborates_and_runs() {
        let tcs = sensor_testcases();
        let (cluster, probes) = build_sensor_cluster(&tcs[0], BUGGY_ADC_FULL_SCALE).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(SimTime::from_ms(1), &mut NullSink).unwrap();
        assert!(probes.adc_out.len() > 10);
        // TC1: 0.1 V -> 100 mV code, below saturation (the code drops to 0
        // on interrupt-clear periods, so check the peak).
        assert!((probes.adc_out.max_f64().unwrap() - 100.0).abs() < 1.0);
    }

    #[test]
    fn adc_saturation_bug_keeps_t_led_off_under_tc2() {
        let tcs = sensor_testcases();
        // Buggy 9-bit ADC: T_LED never lights.
        let (cluster, probes) = build_sensor_cluster(&tcs[1], BUGGY_ADC_FULL_SCALE).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(tcs[1].duration, &mut NullSink).unwrap();
        assert_eq!(
            probes.t_led.max_f64().unwrap_or(0.0),
            0.0,
            "saturated ADC hides the over-temperature"
        );
        assert!(probes.adc_out.max_f64().unwrap() <= BUGGY_ADC_FULL_SCALE + 0.5);

        // Fixed ADC: the same TC2 lights the LED.
        let (cluster2, probes2) = build_sensor_cluster(&tcs[1], FIXED_ADC_FULL_SCALE).unwrap();
        let mut sim2 = Simulator::new(cluster2).unwrap();
        sim2.run(tcs[1].duration, &mut NullSink).unwrap();
        assert!(
            probes2.t_led.max_f64().unwrap() > 0.0,
            "fixed ADC lets ctrl see >60 °C and light T_LED"
        );
    }

    #[test]
    fn tc3_lights_humidity_led() {
        let tcs = sensor_testcases();
        let (cluster, probes) = build_sensor_cluster(&tcs[2], BUGGY_ADC_FULL_SCALE).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(tcs[2].duration, &mut NullSink).unwrap();
        assert!(probes.h_led.max_f64().unwrap() > 0.0, "H_LED on at 45RH+");
    }

    #[test]
    fn t_led_pairs_uncovered_with_buggy_adc() {
        let design = sensor_design(BUGGY_ADC_FULL_SCALE).unwrap();
        let mut session = DftSession::new(design).unwrap();
        for tc in sensor_testcases() {
            let (cluster, _) = build_sensor_cluster(&tc, BUGGY_ADC_FULL_SCALE).unwrap();
            session
                .run_testcase(&tc.name, cluster, tc.duration)
                .unwrap();
        }
        let cov = session.coverage();
        // The pairs defined inside the T_LED branch (lines 50-52: op_clear,
        // op_hold, m_mux_s) must be uncovered — "the data flow associations
        // related to lines between Line 49 and Line 52 were never
        // exercised" (§IV-B.3). op_T_LED itself feeds only the LED probe,
        // so it has no association, matching Table I.
        let branch_pairs: Vec<usize> = cov
            .associations()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.assoc.def_model == "ctrl" && (50..=52).contains(&c.assoc.def_line))
            .map(|(i, _)| i)
            .collect();
        assert!(
            branch_pairs.len() >= 3,
            "static analysis finds the branch pairs, got {}",
            branch_pairs.len()
        );
        for i in branch_pairs {
            assert!(
                !cov.is_covered(i),
                "ADC bug keeps lines 49-52 unexercised: {}",
                cov.associations()[i]
            );
        }
        // Yet plenty of coverage exists overall.
        assert!(
            cov.total_percent() > 50.0,
            "got {:.1}%",
            cov.total_percent()
        );
    }

    #[test]
    fn pweak_pair_exercised_by_every_testcase() {
        let design = sensor_design(BUGGY_ADC_FULL_SCALE).unwrap();
        let mut session = DftSession::new(design).unwrap();
        for tc in sensor_testcases() {
            let (cluster, _) = build_sensor_cluster(&tc, BUGGY_ADC_FULL_SCALE).unwrap();
            session
                .run_testcase(&tc.name, cluster, tc.duration)
                .unwrap();
        }
        let cov = session.coverage();
        let i = cov
            .associations()
            .iter()
            .position(|c| {
                c.assoc == Association::new("op_mux_out", GAIN_SITE_LINE, "sense_top", 85, "adc")
            })
            .expect("PWeak pair exists");
        for t in 0..3 {
            assert!(
                cov.is_covered_by(i, t),
                "Table I marks the PWeak pair exercised by all three TCs"
            );
        }
    }
}
