//! Integration test for the dynamic-TDF behaviour reported in §VI-A: "the
//! timestep was reduced to accurately determine the hindrance while closing
//! the window. Due to the change, the threshold comparisons failed in
//! certain cases ... leading to def-use pairs being not exercised."

use systemc_ams_dft::dft::{Design, DftSession};
use systemc_ams_dft::interp::{Interface, InterpModule, TdfModelDef};
use systemc_ams_dft::sim::{
    Cluster, FnSource, ModuleClass, ModuleSpec, NullSink, PortSpec, ProcessingCtx, SimTime,
    Simulator, TdfModule, Value,
};

/// A native module that requests a finer timestep once its input crosses a
/// threshold — the "reduce the timestep to determine the hindrance" shape.
struct AdaptiveSampler {
    fine: bool,
}

impl TdfModule for AdaptiveSampler {
    fn name(&self) -> &str {
        "sampler"
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new()
            .input(PortSpec::new("tdf_i"))
            .output(PortSpec::new("tdf_o"))
            .with_timestep(SimTime::from_us(100))
    }
    fn class(&self) -> ModuleClass {
        ModuleClass::Transparent
    }
    fn initialize(&mut self) {
        self.fine = false;
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let x = *ctx.input1(0);
        if !self.fine && x.value.as_f64() > 5.0 {
            self.fine = true;
            ctx.request_timestep(SimTime::from_us(10));
        }
        ctx.write(0, x);
    }
}

#[test]
fn timestep_reduction_reschedules_midrun() {
    let mut cluster = Cluster::new("top");
    let src = cluster
        .add_module(Box::new(FnSource::new(
            "stim",
            SimTime::from_us(100),
            |t| Value::Double(if t >= SimTime::from_us(300) { 9.0 } else { 1.0 }),
        )))
        .unwrap();
    let s = cluster
        .add_module(Box::new(AdaptiveSampler { fine: false }))
        .unwrap();
    let (probe, trace) = systemc_ams_dft::sim::Probe::new("p");
    let p = cluster.add_module(Box::new(probe)).unwrap();
    cluster.connect(src, "op_out", s, "tdf_i").unwrap();
    cluster.connect(s, "tdf_o", p, "tdf_i").unwrap();

    let mut sim = Simulator::new(cluster).unwrap();
    assert_eq!(sim.schedule().period, SimTime::from_us(100));
    sim.run(SimTime::from_ms(1), &mut NullSink).unwrap();
    assert!(
        sim.stats().reschedules >= 1,
        "dynamic TDF reschedule happened"
    );
    assert_eq!(
        sim.schedule().period,
        SimTime::from_us(10),
        "fine timestep active after the threshold crossing"
    );
    // Many more samples were taken after the switch than before.
    assert!(trace.len() > 30, "got {}", trace.len());
}

#[test]
fn coverage_pipeline_survives_reschedules() {
    // An interpreted model downstream of the adaptive sampler: def/use
    // events must keep matching after the timestep change.
    const SRC: &str = "\
void judge::processing()
{
    double v = ip_x;
    if (v > 5) op_fast = 1;
    else op_fast = 0;
}";
    let tu = minic::parse(SRC).unwrap();
    let defs = vec![TdfModelDef::new(
        "judge",
        Interface::new().input("ip_x").output("op_fast"),
    )];

    let mut cluster = Cluster::new("top");
    let src = cluster
        .add_module(Box::new(FnSource::new(
            "stim",
            SimTime::from_us(100),
            |t| Value::Double(if t >= SimTime::from_us(300) { 9.0 } else { 1.0 }),
        )))
        .unwrap();
    let s = cluster
        .add_module(Box::new(AdaptiveSampler { fine: false }))
        .unwrap();
    let j = cluster
        .add_module(Box::new(
            InterpModule::new(&tu, "judge", defs[0].interface.clone()).unwrap(),
        ))
        .unwrap();
    cluster.connect(src, "op_out", s, "tdf_i").unwrap();
    cluster.connect(s, "tdf_o", j, "ip_x").unwrap();

    let design = Design::new(minic::parse(SRC).unwrap(), defs, cluster.netlist()).unwrap();
    let mut session = DftSession::new(design).unwrap();
    let run = session
        .run_testcase("TC_adaptive", cluster, SimTime::from_ms(1))
        .unwrap();
    // Both branches of judge are exercised (before/after the threshold).
    assert!(run
        .exercised
        .iter()
        .any(|a| a.var == "v" && a.use_line == 4));
    let cov = session.coverage();
    // The sampler chain is transparent and originates at the testbench, so
    // the input gets a pseudo-def pair — covered despite the reschedule.
    let pseudo = cov
        .associations()
        .iter()
        .position(|c| c.assoc.var == "ip_x" && c.assoc.use_model == "judge")
        .expect("pseudo-def pair exists");
    assert!(
        cov.is_covered(pseudo),
        "coverage tracked across the reschedule"
    );
    assert_eq!(cov.uncovered().len(), 0, "tiny design fully covered");
}
