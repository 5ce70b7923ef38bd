//! The car window lifter system of §VI-A: an ECU (button decoder,
//! microcontroller, soft-start driver, motor-current filter, current ADC,
//! over-current detector, diagnostic unit, status-LED controller) plus the
//! window environment (motor, mechanics). During a run
//! an obstacle can be inserted and removed at different times and window
//! positions; the detector must trip and the MCU must halt the motor.
//!
//! The cluster topology deliberately reproduces the paper's coverage
//! profile: every model-to-model link is either direct (Strong) or passes
//! the full filter→ADC chain (PWeak) — **no PFirm pairs exist**, matching
//! "There were no PFirm def-use pairs identified" in Table II.

use minic::TranslationUnit;
use stimuli::{Signal, Testcase, Testsuite};
use tdf_interp::{Interface, InterpModule, TdfModelDef};
use tdf_sim::{Adc, Cluster, DefSite, LowPass, PortSpec, Probe, SimTime, TraceBuffer};

use dft_core::{Design, Result};

/// The ECU + window environment behavioural models.
pub const WINDOW_LIFTER_SRC: &str = "\
void updown::processing()
{
    bool up = ip_btn_up;
    bool down = ip_btn_down;
    int cmd = 0;
    if (up && !down) cmd = 1;
    else if (down && !up) cmd = -1;
    if (cmd == m_last) m_stable = m_stable + 1;
    else m_stable = 0;
    m_last = cmd;
    int out = 0;
    if (m_stable >= 2) out = cmd;
    op_cmd = out;
}

void mcu::processing()
{
    int cmd = ip_cmd;
    bool oc = ip_overcurrent;
    double pos = ip_position;
    bool at_end = ip_at_end;
    if (m_state == 3) {
        m_halt = m_halt - 1;
        if (m_halt <= 0) m_state = 0;
    } else if (oc) {
        m_state = 3;
        m_halt = 5;
    } else if (cmd == 1 && pos < 100) {
        m_state = 1;
    } else if (cmd == -1 && pos > 0) {
        m_state = 2;
    } else {
        m_state = 0;
    }
    if (at_end && m_state == 1 && pos >= 100) m_state = 0;
    if (at_end && m_state == 2 && pos <= 0) m_state = 0;
    double drive = 0;
    bool armed = false;
    if (m_state == 1) {
        drive = 12;
        armed = true;
    }
    if (m_state == 2) {
        drive = -12;
        armed = true;
    }
    op_drive = drive;
    op_armed.write(armed);
    op_status = m_state;
}

void motor::processing()
{
    double v = ip_drive;
    double load = ip_load;
    double target = v * 10;
    m_speed = m_speed + (target - m_speed) * 0.3;
    double stall = load * 20;
    double speed = m_speed;
    if (speed > 0) {
        speed = speed - stall;
        if (speed < 0) speed = 0;
    }
    if (speed < -120) speed = -120;
    if (speed > 120) speed = 120;
    double current = 0;
    if (v > 0.5 || v < -0.5) current = abs(v) * 0.2 + load * 1.5;
    op_current = current;
    op_speed = speed;
}

void window::processing()
{
    double sp = ip_speed;
    m_pos = m_pos + sp * 0.02;
    if (m_pos > 100) m_pos = 100;
    if (m_pos < 0) m_pos = 0;
    bool at_end = false;
    if (m_pos >= 100) at_end = true;
    if (m_pos <= 0) at_end = true;
    op_at_end.write(at_end);
    op_position = m_pos;
}

void detector::processing()
{
    bool armed = ip_armed;
    bool over = false;
    if (armed) {
        double code = ip_current_code;
        if (code > m_high) m_trip = m_trip + 3;
        else if (code > m_low) m_trip = m_trip + 1;
        else m_trip = 0;
    } else {
        m_trip = 0;
    }
    if (m_trip >= 3) {
        over = true;
        double peak = ip_current_code;
        if (peak > m_peak) m_peak = peak;
    }
    op_overcurrent.write(over);
}

void softstart::processing()
{
    double target = ip_target;
    double diff = target - m_out;
    double step = 3;
    if (diff > step) m_out = m_out + step;
    else if (diff < -step) m_out = m_out - step;
    else m_out = target;
    if (m_out > 12) m_out = 12;
    if (m_out < -12) m_out = -12;
    op_drive = m_out;
}

void diag::processing()
{
    bool oc = ip_overcurrent;
    double pos = ip_position;
    if (oc && !m_prev_oc) {
        m_events = m_events + 1;
        double code = ip_current_code;
        if (code > m_peak) m_peak = code;
        m_last_pos = pos;
    }
    m_prev_oc = oc;
    bool fault = false;
    if (m_events >= 3) fault = true;
    if (m_latched) fault = true;
    if (fault) m_latched = 1;
    op_fault.write(fault);
    op_events = m_events;
}

void ledctl::processing()
{
    int st = ip_status;
    bool fault = ip_fault;
    m_blink = m_blink + 1;
    if (m_blink >= 10) m_blink = 0;
    bool green = false;
    bool red = false;
    if (st == 1 || st == 2) green = true;
    if (st == 3) {
        if (m_blink < 5) red = true;
    }
    if (fault) red = true;
    op_led_green.write(green);
    op_led_red.write(red);
}
";

/// Netlist line of the current-filter output binding (`ecu_top:203`).
pub const FILTER_SITE_LINE: u32 = 203;
/// Netlist line of the current-ADC output binding (`ecu_top:206`).
pub const ADC_SITE_LINE: u32 = 206;

/// Module activation period of the window-lifter cluster.
pub const LIFTER_TIMESTEP: SimTime = SimTime::from_ms(1);

/// Stimulus channel: the "up" button.
pub const BTN_UP: &str = "btn_up";
/// Stimulus channel: the "down" button.
pub const BTN_DOWN: &str = "btn_down";
/// Stimulus channel: obstacle load on the motor (0 = free).
pub const LOAD: &str = "load";

/// The model interfaces of the window lifter.
pub fn lifter_model_defs() -> Vec<TdfModelDef> {
    vec![
        TdfModelDef::new(
            "updown",
            Interface::new()
                .input("ip_btn_up")
                .input("ip_btn_down")
                .output("op_cmd")
                .member("m_last", 0i64)
                .member("m_stable", 0i64),
        ),
        TdfModelDef::new(
            "mcu",
            Interface::new()
                .input("ip_cmd")
                .input_spec(PortSpec::new("ip_overcurrent").with_delay(1))
                .input_spec(PortSpec::new("ip_position").with_delay(1))
                .input_spec(PortSpec::new("ip_at_end").with_delay(1))
                .output("op_drive")
                .output("op_armed")
                .output("op_status")
                .member("m_state", 0i64)
                .member("m_halt", 0i64),
        ),
        TdfModelDef::new(
            "motor",
            Interface::new()
                .input("ip_drive")
                .input("ip_load")
                .output("op_current")
                .output("op_speed")
                .member("m_speed", 0.0),
        ),
        TdfModelDef::new(
            "window",
            Interface::new()
                .input("ip_speed")
                .output("op_at_end")
                .output("op_position")
                .member("m_pos", 0.0),
        ),
        TdfModelDef::new(
            "softstart",
            Interface::new()
                .input("ip_target")
                .output("op_drive")
                .member("m_out", 0.0),
        ),
        TdfModelDef::new(
            "diag",
            Interface::new()
                .input("ip_overcurrent")
                .input("ip_position")
                .input("ip_current_code")
                .output("op_fault")
                .output("op_events")
                .member("m_prev_oc", false)
                .member("m_events", 0i64)
                .member("m_peak", 0.0)
                .member("m_last_pos", 0.0)
                .member("m_latched", 0i64),
        ),
        TdfModelDef::new(
            "ledctl",
            Interface::new()
                .input("ip_status")
                .input("ip_fault")
                .output("op_led_green")
                .output("op_led_red")
                .member("m_blink", 0i64),
        ),
        TdfModelDef::new(
            "detector",
            Interface::new()
                .input("ip_armed")
                .input("ip_current_code")
                .output("op_overcurrent")
                .member("m_trip", 0i64)
                .member("m_peak", 0i64)
                .member("m_high", 160i64)
                .member("m_low", 90i64),
        ),
    ]
}

/// Observable outputs of a built window-lifter cluster.
#[derive(Debug, Clone)]
pub struct LifterProbes {
    /// Window position (0 = bottom, 100 = top).
    pub position: TraceBuffer,
    /// Motor drive voltage from the MCU.
    pub drive: TraceBuffer,
    /// Over-current detector output.
    pub overcurrent: TraceBuffer,
    /// Status LED ("moving").
    pub led_green: TraceBuffer,
    /// Fault/halt LED.
    pub led_red: TraceBuffer,
    /// Diagnostic event counter.
    pub events: TraceBuffer,
}

/// Builds the window-lifter cluster for one testcase (channels [`BTN_UP`],
/// [`BTN_DOWN`], [`LOAD`]).
///
/// # Errors
///
/// Propagates parse/bind errors (none expected for the fixed source).
pub fn build_lifter_cluster(tc: &Testcase) -> Result<(Cluster, LifterProbes)> {
    lifter_cluster_from(&minic::parse(WINDOW_LIFTER_SRC)?, tc)
}

/// [`build_lifter_cluster`] over an already parsed [`WINDOW_LIFTER_SRC`].
fn lifter_cluster_from(tu: &TranslationUnit, tc: &Testcase) -> Result<(Cluster, LifterProbes)> {
    let mut cluster = Cluster::new("ecu_top");

    let up_src = cluster.add_module(Box::new(
        tc.signal(BTN_UP).into_source("btn_up_src", LIFTER_TIMESTEP),
    ))?;
    let down_src = cluster.add_module(Box::new(
        tc.signal(BTN_DOWN)
            .into_source("btn_down_src", LIFTER_TIMESTEP),
    ))?;
    let load_src = cluster.add_module(Box::new(
        tc.signal(LOAD).into_source("load_src", LIFTER_TIMESTEP),
    ))?;

    let mut ids = std::collections::HashMap::new();
    for def in lifter_model_defs() {
        let m = InterpModule::new(tu, &def.model, def.interface.clone())?;
        ids.insert(def.model.clone(), cluster.add_module(Box::new(m))?);
    }
    let (updown, mcu, motor, window, detector) = (
        ids["updown"],
        ids["mcu"],
        ids["motor"],
        ids["window"],
        ids["detector"],
    );
    let (softstart, diag, ledctl) = (ids["softstart"], ids["diag"], ids["ledctl"]);

    let filt = cluster.add_module(Box::new(LowPass::new(
        "i_current_filter",
        0.6,
        DefSite::new("ecu_top", FILTER_SITE_LINE),
    )))?;
    let adc = cluster.add_module(Box::new(Adc::new(
        "i_current_adc",
        8,
        10.0,
        DefSite::new("ecu_top", ADC_SITE_LINE),
    )))?;

    cluster.connect(up_src, "op_out", updown, "ip_btn_up")?;
    cluster.connect(down_src, "op_out", updown, "ip_btn_down")?;
    cluster.connect(updown, "op_cmd", mcu, "ip_cmd")?;
    cluster.connect(mcu, "op_drive", softstart, "ip_target")?;
    cluster.connect(softstart, "op_drive", motor, "ip_drive")?;
    cluster.connect(load_src, "op_out", motor, "ip_load")?;
    cluster.connect(motor, "op_current", filt, "tdf_i")?;
    cluster.connect(filt, "tdf_o", adc, "adc_i")?;
    cluster.connect(adc, "adc_o", detector, "ip_current_code")?;
    cluster.connect(mcu, "op_armed", detector, "ip_armed")?;
    cluster.connect(detector, "op_overcurrent", mcu, "ip_overcurrent")?;
    cluster.connect(motor, "op_speed", window, "ip_speed")?;
    cluster.connect(window, "op_position", mcu, "ip_position")?;
    cluster.connect(window, "op_at_end", mcu, "ip_at_end")?;
    cluster.connect(detector, "op_overcurrent", diag, "ip_overcurrent")?;
    cluster.connect(window, "op_position", diag, "ip_position")?;
    cluster.connect(adc, "adc_o", diag, "ip_current_code")?;
    cluster.connect(mcu, "op_status", ledctl, "ip_status")?;
    cluster.connect(diag, "op_fault", ledctl, "ip_fault")?;

    let (p_pos, position) = Probe::new("pos_probe");
    let (p_drv, drive) = Probe::new("drive_probe");
    let (p_oc, overcurrent) = Probe::new("oc_probe");
    let (p_grn, led_green) = Probe::new("green_probe");
    let (p_red, led_red) = Probe::new("red_probe");
    let (p_ev, events) = Probe::new("events_probe");
    let pp = cluster.add_module(Box::new(p_pos))?;
    let pd = cluster.add_module(Box::new(p_drv))?;
    let po = cluster.add_module(Box::new(p_oc))?;
    let pg = cluster.add_module(Box::new(p_grn))?;
    let pr = cluster.add_module(Box::new(p_red))?;
    let pe = cluster.add_module(Box::new(p_ev))?;
    cluster.connect(window, "op_position", pp, "tdf_i")?;
    cluster.connect(mcu, "op_drive", pd, "tdf_i")?;
    cluster.connect(detector, "op_overcurrent", po, "tdf_i")?;
    cluster.connect(ledctl, "op_led_green", pg, "tdf_i")?;
    cluster.connect(ledctl, "op_led_red", pr, "tdf_i")?;
    cluster.connect(diag, "op_events", pe, "tdf_i")?;

    Ok((
        cluster,
        LifterProbes {
            position,
            drive,
            overcurrent,
            led_green,
            led_red,
            events,
        },
    ))
}

/// The analysable [`Design`] of the window lifter.
///
/// # Errors
///
/// Propagates parse errors (none expected for the fixed source).
pub fn lifter_design() -> Result<Design> {
    let tu = minic::parse(WINDOW_LIFTER_SRC)?;
    let dummy = Testcase::new("elab", SimTime::from_ms(1));
    let (cluster, _) = lifter_cluster_from(&tu, &dummy)?;
    Design::new(tu, lifter_model_defs(), cluster.netlist())
}

fn press(channel: &str, from_ms: u64, to_ms: u64) -> (String, Signal) {
    (
        channel.to_owned(),
        Signal::Piecewise(vec![
            (SimTime::ZERO, 0.0),
            (SimTime::from_ms(from_ms), 0.0),
            (SimTime::from_ms(from_ms) + SimTime::from_us(1), 1.0),
            (SimTime::from_ms(to_ms), 1.0),
            (SimTime::from_ms(to_ms) + SimTime::from_us(1), 0.0),
        ]),
    )
}

fn tc(name: &str, dur_ms: u64, channels: Vec<(String, Signal)>) -> Testcase {
    let mut t = Testcase::new(name, SimTime::from_ms(dur_ms));
    for (c, s) in channels {
        t = t.with(c, s);
    }
    t
}

/// The window-lifter testsuite with the paper's iteration sizes:
/// 17 initial testcases, then +3 / +3 / +3 (17 → 20 → 23 → 26, Table II).
///
/// Iteration 0 exercises normal up/down movement; later iterations add the
/// obstacle scenarios (over-current trip and MCU halt), soft-obstacle and
/// down-side cases, and end-stop travel — the branches the initial suite
/// misses.
pub fn lifter_suite() -> Testsuite {
    let mut suite = Testsuite::new("Car Window Lifter");

    // Iteration 0: 17 movement cases, no obstacle.
    let mut iter0 = Vec::new();
    for (i, (start, stop)) in [
        (2u64, 10u64),
        (2, 20),
        (2, 30),
        (5, 15),
        (5, 40),
        (10, 25),
        (1, 8),
        (3, 50),
    ]
    .iter()
    .enumerate()
    {
        iter0.push(tc(
            &format!("up_{i}"),
            80,
            vec![press(BTN_UP, *start, *stop)],
        ));
    }
    for (i, (start, stop)) in [(2u64, 12u64), (4, 25), (6, 35), (1, 6)].iter().enumerate() {
        iter0.push(tc(
            &format!("down_{i}"),
            80,
            vec![press(BTN_DOWN, *start, *stop)],
        ));
    }
    iter0.push(tc("idle", 30, vec![]));
    iter0.push(tc(
        "both_buttons",
        40,
        vec![press(BTN_UP, 2, 30), press(BTN_DOWN, 2, 30)],
    ));
    iter0.push(tc(
        "flicker",
        40,
        vec![(
            BTN_UP.to_owned(),
            Signal::Pwm {
                low: 0.0,
                high: 1.0,
                period: SimTime::from_ms(2),
                duty: 0.5,
            },
        )],
    ));
    iter0.push(tc("blip", 30, vec![press(BTN_UP, 2, 3)]));
    iter0.push(tc(
        "load_noise_idle",
        30,
        vec![(
            LOAD.to_owned(),
            Signal::Noise {
                lo: 0.0,
                hi: 0.2,
                seed: 7,
                hold: SimTime::from_ms(1),
            },
        )],
    ));
    assert_eq!(iter0.len(), 17);
    suite.add_iteration(iter0);

    // Iteration 1: obstacle while closing, at different times/positions.
    suite.add_iteration(vec![
        tc(
            "obstacle_early",
            100,
            vec![
                press(BTN_UP, 2, 90),
                (
                    LOAD.to_owned(),
                    Signal::Step {
                        before: 0.0,
                        after: 4.0,
                        at: SimTime::from_ms(15),
                    },
                ),
            ],
        ),
        tc(
            "obstacle_late",
            120,
            vec![
                press(BTN_UP, 2, 110),
                (
                    LOAD.to_owned(),
                    Signal::Step {
                        before: 0.0,
                        after: 4.0,
                        at: SimTime::from_ms(60),
                    },
                ),
            ],
        ),
        tc(
            "obstacle_removed",
            160,
            vec![
                press(BTN_UP, 2, 150),
                (
                    LOAD.to_owned(),
                    Signal::Piecewise(vec![
                        (SimTime::ZERO, 0.0),
                        (SimTime::from_ms(20), 0.0),
                        (SimTime::from_ms(21), 4.0),
                        (SimTime::from_ms(50), 4.0),
                        (SimTime::from_ms(51), 0.0),
                    ]),
                ),
            ],
        ),
    ]);

    // Iteration 2: soft obstacle (low-threshold band) and down-side cases.
    suite.add_iteration(vec![
        tc(
            "soft_obstacle",
            120,
            vec![
                press(BTN_UP, 2, 110),
                (
                    LOAD.to_owned(),
                    Signal::Step {
                        before: 0.0,
                        after: 0.8,
                        at: SimTime::from_ms(30),
                    },
                ),
            ],
        ),
        tc(
            "obstacle_down",
            160,
            vec![
                press(BTN_UP, 2, 60),
                press(BTN_DOWN, 80, 150),
                (
                    LOAD.to_owned(),
                    Signal::Step {
                        before: 0.0,
                        after: 4.0,
                        at: SimTime::from_ms(100),
                    },
                ),
            ],
        ),
        tc(
            "halt_resume",
            220,
            vec![
                press(BTN_UP, 2, 210),
                (
                    LOAD.to_owned(),
                    Signal::Piecewise(vec![
                        (SimTime::ZERO, 0.0),
                        (SimTime::from_ms(30), 0.0),
                        (SimTime::from_ms(31), 4.0),
                        (SimTime::from_ms(45), 4.0),
                        (SimTime::from_ms(46), 0.0),
                    ]),
                ),
            ],
        ),
    ]);

    // Iteration 3: end stops, long travels and the fault latch.
    suite.add_iteration(vec![
        tc(
            "repeated_obstacles",
            400,
            vec![
                press(BTN_UP, 2, 390),
                (
                    LOAD.to_owned(),
                    Signal::Pwm {
                        low: 0.0,
                        high: 4.0,
                        period: SimTime::from_ms(60),
                        duty: 0.3,
                    },
                ),
            ],
        ),
        tc(
            "full_up_then_down",
            500,
            vec![press(BTN_UP, 2, 240), press(BTN_DOWN, 260, 490)],
        ),
        tc("bottom_stop", 120, vec![press(BTN_DOWN, 2, 110)]),
    ]);

    suite
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_core::{analyse, Classification, DftSession};
    use tdf_sim::{NullSink, Simulator};

    #[test]
    fn design_builds_and_has_no_pfirm_pairs() {
        let design = lifter_design().unwrap();
        let sa = analyse(&design);
        assert!(sa.len() > 100, "a real VP has many pairs, got {}", sa.len());
        assert!(
            sa.of_class(Classification::PFirm).is_empty(),
            "Table II: no PFirm pairs in the window lifter"
        );
        assert!(!sa.of_class(Classification::PWeak).is_empty());
        assert!(!sa.of_class(Classification::Strong).is_empty());
        assert!(!sa.of_class(Classification::Firm).is_empty());
    }

    #[test]
    fn window_moves_up_on_button_press() {
        let t = tc("up", 80, vec![press(BTN_UP, 2, 70)]);
        let (cluster, probes) = build_lifter_cluster(&t).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(t.duration, &mut NullSink).unwrap();
        assert!(
            probes.position.max_f64().unwrap() > 20.0,
            "window moved: {:?}",
            probes.position.max_f64()
        );
        assert!(probes.drive.max_f64().unwrap() >= 12.0);
    }

    #[test]
    fn obstacle_trips_overcurrent_and_halts() {
        let t = tc(
            "obstacle",
            100,
            vec![
                press(BTN_UP, 2, 90),
                (
                    LOAD.to_owned(),
                    Signal::Step {
                        before: 0.0,
                        after: 4.0,
                        at: SimTime::from_ms(15),
                    },
                ),
            ],
        );
        let (cluster, probes) = build_lifter_cluster(&t).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(t.duration, &mut NullSink).unwrap();
        assert!(
            probes.overcurrent.max_f64().unwrap() > 0.0,
            "detector tripped"
        );
        // The MCU must cut the drive after the trip.
        let drive = probes.drive.values_f64();
        let tripped_at = probes
            .overcurrent
            .samples()
            .iter()
            .position(|(_, v)| v.as_f64() > 0.0)
            .unwrap();
        assert!(
            drive[tripped_at + 2..tripped_at + 5]
                .iter()
                .all(|&d| d == 0.0),
            "drive cut during halt"
        );
    }

    #[test]
    fn no_obstacle_no_trip() {
        let t = tc("up", 80, vec![press(BTN_UP, 2, 70)]);
        let (cluster, probes) = build_lifter_cluster(&t).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run(t.duration, &mut NullSink).unwrap();
        assert_eq!(probes.overcurrent.max_f64().unwrap(), 0.0);
    }

    #[test]
    fn suite_matches_paper_iteration_sizes() {
        let suite = lifter_suite();
        assert_eq!(suite.iterations(), 4);
        assert_eq!(suite.size_at(0), 17);
        assert_eq!(suite.size_at(1), 20);
        assert_eq!(suite.size_at(2), 23);
        assert_eq!(suite.size_at(3), 26);
    }

    #[test]
    fn coverage_grows_over_iterations() {
        let design = lifter_design().unwrap();
        let suite = lifter_suite();
        let mut session = DftSession::new(design).unwrap();
        let mut per_iter = Vec::new();
        let mut done = 0;
        for it in 0..suite.iterations() {
            for t in &suite.up_to(it)[done..] {
                let (cluster, _) = build_lifter_cluster(t).unwrap();
                session.run_testcase(&t.name, cluster, t.duration).unwrap();
            }
            done = suite.size_at(it);
            per_iter.push(session.coverage().exercised_count());
        }
        assert!(
            per_iter.windows(2).all(|w| w[0] <= w[1]),
            "monotone: {per_iter:?}"
        );
        assert!(
            per_iter[3] > per_iter[0],
            "added testcases exercise new pairs: {per_iter:?}"
        );
        let cov = session.coverage();
        let (s_cov, s_tot) = cov.class_ratio(Classification::Strong);
        assert!(s_cov > 0 && s_cov <= s_tot);
    }
}
