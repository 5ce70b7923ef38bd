//! The TDF component library — the analog of the SystemC-AMS building
//! blocks the paper's netlists instantiate (`sca_tdf::sca_delay`,
//! `sca_tdf::sca_gain`, …) plus testbench sources and probes.
//!
//! SISO elements are tagged with their coverage class:
//!
//! * **Redefining** (delay `Z⁻¹`, gain, buffer, saturating ADC, low-pass):
//!   the output sample's provenance is re-stamped with the component's
//!   netlist [`DefSite`] while keeping the original variable name — this is
//!   what turns `(op_signal_out, 14, TS)` into `(op_signal_out, 74,
//!   sense_top)` downstream of the delay.
//! * **Transparent** (wire): provenance passes through untouched.
//! * **Testbench** (sources, probes): excluded from coverage analysis.

use crate::intern::{CompactEvent, EventKind, Interner, ProvId, Sym};
use crate::module::{DefSite, ModuleClass, ModuleSpec, PortSpec, ProcessingCtx, TdfModule};
use crate::time::SimTime;
use crate::trace::TraceBuffer;
use crate::value::{Sample, Value};

/// A redefining element's netlist site and its provenance re-stamping:
/// each incoming id maps to the id of `(var, site.line, site.model)`
/// through a first-sight table for one interner (by address). A handful
/// of entries, so steady-state lookups neither hash, lock nor allocate.
#[derive(Debug)]
pub(crate) struct Redefines {
    site: DefSite,
    interner: usize,
    table: Vec<(ProvId, ProvId)>,
}

impl Redefines {
    pub(crate) fn new(site: DefSite) -> Self {
        Redefines {
            site,
            interner: 0,
            table: Vec::new(),
        }
    }

    pub(crate) fn class(&self) -> ModuleClass {
        ModuleClass::Redefining(self.site.clone())
    }

    /// The element's output sample carrying `value` for input `x`:
    /// definedness passes through, provenance is re-stamped at the site
    /// (undefined or unstamped inputs yield no provenance).
    pub(crate) fn out(&mut self, x: &Sample, value: Value, interner: &Interner) -> Sample {
        let addr = interner as *const Interner as usize;
        if self.interner != addr {
            (self.interner, self.table) = (addr, Vec::new());
        }
        let prov = if !x.defined || x.prov.is_none() {
            ProvId::NONE
        } else if let Some(&(_, out)) = self.table.iter().find(|(p, _)| *p == x.prov) {
            out
        } else {
            let (var, _, _) = interner.prov(x.prov).expect("not the sentinel");
            let model = interner.intern(&self.site.model);
            let out = interner.intern_triple(var, self.site.line, model);
            self.table.push((x.prov, out));
            out
        };
        Sample {
            value,
            prov,
            defined: x.defined,
        }
    }
}

/// A stimulus source driving a closure `f(t) -> Value` at a fixed timestep.
pub struct FnSource<F> {
    name: String,
    timestep: SimTime,
    f: F,
}

impl<F: FnMut(SimTime) -> Value> FnSource<F> {
    /// Creates a source named `name` producing `f(t)` every `timestep`.
    pub fn new(name: impl Into<String>, timestep: SimTime, f: F) -> Self {
        FnSource {
            name: name.into(),
            timestep,
            f,
        }
    }
}

impl<F: FnMut(SimTime) -> Value> TdfModule for FnSource<F> {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new()
            .output(PortSpec::new("op_out"))
            .with_timestep(self.timestep)
    }
    fn class(&self) -> ModuleClass {
        ModuleClass::Testbench
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let v = (self.f)(ctx.time());
        ctx.write(0, Sample::new(v));
    }
}

/// A stimulus source replaying a fixed sample vector (holding the last value
/// once exhausted).
pub struct SliceSource {
    name: String,
    timestep: SimTime,
    samples: Vec<Value>,
    pos: usize,
}

impl SliceSource {
    /// Creates a source replaying `samples` at `timestep`.
    pub fn new(name: impl Into<String>, timestep: SimTime, samples: Vec<Value>) -> Self {
        SliceSource {
            name: name.into(),
            timestep,
            samples,
            pos: 0,
        }
    }
}

impl TdfModule for SliceSource {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new()
            .output(PortSpec::new("op_out"))
            .with_timestep(self.timestep)
    }
    fn class(&self) -> ModuleClass {
        ModuleClass::Testbench
    }
    fn initialize(&mut self) {
        self.pos = 0;
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let v = self
            .samples
            .get(self.pos)
            .or(self.samples.last())
            .copied()
            .unwrap_or_default();
        if self.pos < self.samples.len() {
            self.pos += 1;
        }
        ctx.write(0, Sample::new(v));
    }
}

/// `sca_tdf::sca_gain`: `y = k · x`, a redefining SISO element.
pub struct Gain {
    name: String,
    k: f64,
    site: Redefines,
}

impl Gain {
    /// Creates a gain of `k` whose output binding sits at `site`.
    pub fn new(name: impl Into<String>, k: f64, site: DefSite) -> Self {
        Gain {
            name: name.into(),
            k,
            site: Redefines::new(site),
        }
    }
}

impl TdfModule for Gain {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new()
            .input(PortSpec::new("tdf_i"))
            .output(PortSpec::new("tdf_o"))
    }
    fn class(&self) -> ModuleClass {
        self.site.class()
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let x = *ctx.input1(0);
        let value = Value::Double(x.value.as_f64() * self.k);
        let out = self.site.out(&x, value, ctx.interner());
        ctx.write(0, out);
    }
}

/// `sca_tdf::sca_delay` (`Z⁻ⁿ`): delays the stream by `n` samples, a
/// redefining SISO element. The delay is realised as schedule-visible
/// tokens on the output port so feedback loops elaborate correctly.
pub struct Delay {
    name: String,
    n: usize,
    initial: Value,
    site: Redefines,
}

impl Delay {
    /// Creates an `n`-sample delay with `initial` fill value.
    pub fn new(name: impl Into<String>, n: usize, initial: Value, site: DefSite) -> Self {
        Delay {
            name: name.into(),
            n,
            initial,
            site: Redefines::new(site),
        }
    }
}

impl TdfModule for Delay {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new().input(PortSpec::new("tdf_i")).output(
            PortSpec::new("tdf_o")
                .with_delay(self.n)
                .with_initial(self.initial),
        )
    }
    fn class(&self) -> ModuleClass {
        self.site.class()
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let x = *ctx.input1(0);
        let out = self.site.out(&x, x.value, ctx.interner());
        ctx.write(0, out);
    }
}

/// A unity-gain buffer (signal regeneration), redefining per the paper.
pub struct Buffer {
    inner: Gain,
}

impl Buffer {
    /// Creates a buffer whose output binding sits at `site`.
    pub fn new(name: impl Into<String>, site: DefSite) -> Self {
        Buffer {
            inner: Gain::new(name, 1.0, site),
        }
    }
}

impl TdfModule for Buffer {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn spec(&self) -> ModuleSpec {
        self.inner.spec()
    }
    fn class(&self) -> ModuleClass {
        self.inner.class()
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        self.inner.processing(ctx);
    }
}

/// An ideal n-bit saturating ADC: quantises to `2^bits` levels over
/// `[0, vref]`, **saturating** above `vref` — the interface bug the paper's
/// TC2 exposes (a 9-bit ADC clipping at 512 mV).
pub struct Adc {
    name: String,
    bits: u32,
    vref: f64,
    site: Redefines,
}

impl Adc {
    /// Creates an ADC with `bits` resolution over full scale `vref` volts.
    pub fn new(name: impl Into<String>, bits: u32, vref: f64, site: DefSite) -> Self {
        Adc {
            name: name.into(),
            bits,
            vref,
            site: Redefines::new(site),
        }
    }

    /// The quantisation of `v` this ADC performs.
    pub fn quantise(&self, v: f64) -> i64 {
        let levels = (1u64 << self.bits) as f64;
        let clamped = v.clamp(0.0, self.vref);
        let code = (clamped / self.vref * (levels - 1.0)).round();
        code as i64
    }
}

impl TdfModule for Adc {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new()
            .input(PortSpec::new("adc_i"))
            .output(PortSpec::new("adc_o"))
    }
    fn class(&self) -> ModuleClass {
        self.site.class()
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let x = *ctx.input1(0);
        let value = Value::Int(self.quantise(x.value.as_f64()));
        let out = self.site.out(&x, value, ctx.interner());
        ctx.write(0, out);
    }
}

/// A single-pole low-pass IIR filter `y += α (x − y)`, redefining (used as
/// the window lifter's motor-current filter).
pub struct LowPass {
    name: String,
    alpha: f64,
    state: f64,
    site: Redefines,
}

impl LowPass {
    /// Creates a low-pass with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(name: impl Into<String>, alpha: f64, site: DefSite) -> Self {
        LowPass {
            name: name.into(),
            alpha,
            state: 0.0,
            site: Redefines::new(site),
        }
    }
}

impl TdfModule for LowPass {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new()
            .input(PortSpec::new("tdf_i"))
            .output(PortSpec::new("tdf_o"))
    }
    fn class(&self) -> ModuleClass {
        self.site.class()
    }
    fn initialize(&mut self) {
        self.state = 0.0;
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let x = *ctx.input1(0);
        self.state += self.alpha * (x.value.as_f64() - self.state);
        let value = Value::Double(self.state);
        let out = self.site.out(&x, value, ctx.interner());
        ctx.write(0, out);
    }
}

/// A transparent pass-through (plain wire): provenance untouched.
pub struct Wire {
    name: String,
}

impl Wire {
    /// Creates a wire.
    pub fn new(name: impl Into<String>) -> Self {
        Wire { name: name.into() }
    }
}

impl TdfModule for Wire {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new()
            .input(PortSpec::new("tdf_i"))
            .output(PortSpec::new("tdf_o"))
    }
    fn class(&self) -> ModuleClass {
        ModuleClass::Transparent
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let x = *ctx.input1(0);
        ctx.write(0, x);
    }
}

/// A testbench probe recording every sample it sees into a [`TraceBuffer`].
pub struct Probe {
    name: String,
    buffer: TraceBuffer,
}

impl Probe {
    /// Creates a probe; clone the returned handle before moving the probe
    /// into a cluster.
    pub fn new(name: impl Into<String>) -> (Self, TraceBuffer) {
        let buffer = TraceBuffer::new();
        (
            Probe {
                name: name.into(),
                buffer: buffer.clone(),
            },
            buffer,
        )
    }
}

impl TdfModule for Probe {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new().input(PortSpec::new("tdf_i"))
    }
    fn class(&self) -> ModuleClass {
        ModuleClass::Testbench
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let x = ctx.input1(0).value;
        self.buffer.push(ctx.time(), x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::module::NullSink;
    use crate::sim::Simulator;
    use crate::value::Provenance;

    fn site(line: u32) -> DefSite {
        DefSite::new("top", line)
    }

    fn run_chain(
        source: Box<dyn TdfModule>,
        element: Box<dyn TdfModule>,
        periods: u64,
    ) -> Vec<(SimTime, Value)> {
        let mut c = Cluster::new("top");
        let s = c.add_module(source).unwrap();
        let ename = element.name().to_owned();
        let e = c.add_module(element).unwrap();
        let (probe, buf) = Probe::new("probe");
        let p = c.add_module(Box::new(probe)).unwrap();
        let espec = c.module_spec(e).clone();
        c.connect(s, "op_out", e, &espec.in_ports[0].name).unwrap();
        c.connect(e, &espec.out_ports[0].name, p, "tdf_i").unwrap();
        let _ = ename;
        let mut sim = Simulator::new(c).unwrap();
        sim.run_periods(periods, &mut NullSink).unwrap();
        buf.samples()
    }

    fn ramp_source() -> Box<dyn TdfModule> {
        Box::new(FnSource::new("src", SimTime::from_us(1), |t: SimTime| {
            Value::Double((t.as_fs() / 1_000_000_000) as f64)
        }))
    }

    #[test]
    fn gain_scales() {
        let out = run_chain(ramp_source(), Box::new(Gain::new("g", 2.5, site(10))), 4);
        let vals: Vec<f64> = out.iter().map(|(_, v)| v.as_f64()).collect();
        assert_eq!(vals, vec![0.0, 2.5, 5.0, 7.5]);
    }

    #[test]
    fn delay_shifts_by_n() {
        let out = run_chain(
            ramp_source(),
            Box::new(Delay::new("z", 2, Value::Double(0.0), site(11))),
            5,
        );
        let vals: Vec<f64> = out.iter().map(|(_, v)| v.as_f64()).collect();
        // Two initial tokens (0.0) then the ramp 0, 1, 2.
        assert_eq!(vals, vec![0.0, 0.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn buffer_is_unity_gain_but_redefining() {
        let b = Buffer::new("b", site(12));
        assert!(matches!(b.class(), ModuleClass::Redefining(_)));
        let out = run_chain(ramp_source(), Box::new(b), 3);
        let vals: Vec<f64> = out.iter().map(|(_, v)| v.as_f64()).collect();
        assert_eq!(vals, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn adc_quantises_and_saturates() {
        let adc = Adc::new("adc", 9, 0.512, site(13));
        assert_eq!(adc.quantise(0.0), 0);
        assert_eq!(adc.quantise(0.512), 511);
        // Saturation: anything above vref clips to full scale — the Table I
        // interface bug (signals above 512 mV read as 512 mV).
        assert_eq!(adc.quantise(0.65), 511);
        assert_eq!(adc.quantise(1.0), 511);
        // Mid-scale is monotone.
        assert!(adc.quantise(0.2) < adc.quantise(0.3));
    }

    #[test]
    fn adc_in_chain_outputs_ints() {
        let out = run_chain(
            Box::new(FnSource::new("src", SimTime::from_us(1), |_| {
                Value::Double(0.256)
            })),
            Box::new(Adc::new("adc", 9, 0.512, site(13))),
            1,
        );
        assert!(matches!(out[0].1, Value::Int(_)));
        assert_eq!(out[0].1.as_i64(), 256, "half scale ≈ code 256");
    }

    #[test]
    fn lowpass_converges_to_input() {
        let out = run_chain(
            Box::new(FnSource::new("src", SimTime::from_us(1), |_| {
                Value::Double(1.0)
            })),
            Box::new(LowPass::new("lp", 0.5, site(14))),
            8,
        );
        let last = out.last().unwrap().1.as_f64();
        assert!((last - 1.0).abs() < 0.01, "converged to {last}");
        // Monotone rise.
        let vals: Vec<f64> = out.iter().map(|(_, v)| v.as_f64()).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn redefining_elements_restamp_provenance() {
        // source with provenance -> gain -> probe; check via a collector.
        use crate::module::{Event, EventSink};
        struct ProvSource;
        impl TdfModule for ProvSource {
            fn name(&self) -> &str {
                "m"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(1))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                let prov = ctx
                    .interner()
                    .intern_prov(&Provenance::new("op_y", 14, "m"));
                ctx.write(0, Sample::stamped(1.0, prov));
            }
        }
        struct Check;
        impl TdfModule for Check {
            fn name(&self) -> &str {
                "check"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new().input(PortSpec::new("ip_x"))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                let s = *ctx.input1(0);
                let p = ctx
                    .interner()
                    .resolve_prov(s.prov)
                    .expect("provenance survives");
                assert_eq!(p.var, "op_y", "variable name preserved");
                assert_eq!(p.line, 74, "line restamped to the netlist site");
                assert_eq!(p.model, "top");
                let event = Event::Use {
                    time: ctx.time(),
                    model: "check".into(),
                    var: "ip_x".into(),
                    line: 1,
                    feeding: Some(p),
                    defined: s.defined,
                };
                ctx.emit_compact(CompactEvent::from_event(&event, ctx.interner()));
            }
        }
        struct CountSink(usize);
        impl EventSink for CountSink {
            fn record_compact(&mut self, _e: CompactEvent, _interner: &Interner) {
                self.0 += 1;
            }
        }
        let mut c = Cluster::new("top");
        let m = c.add_module(Box::new(ProvSource)).unwrap();
        let g = c
            .add_module(Box::new(Gain::new("g", 3.0, site(74))))
            .unwrap();
        let k = c.add_module(Box::new(Check)).unwrap();
        c.connect(m, "op_y", g, "tdf_i").unwrap();
        c.connect(g, "tdf_o", k, "ip_x").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        let mut sink = CountSink(0);
        sim.run_periods(2, &mut sink).unwrap();
        assert_eq!(sink.0, 2);
    }

    #[test]
    fn wire_preserves_provenance() {
        let w = Wire::new("w");
        assert!(matches!(w.class(), ModuleClass::Transparent));
        let mut c = Cluster::new("top");
        struct ProvSource;
        impl TdfModule for ProvSource {
            fn name(&self) -> &str {
                "m"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(1))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                let prov = ctx
                    .interner()
                    .intern_prov(&Provenance::new("op_y", 14, "m"));
                ctx.write(0, Sample::stamped(1.0, prov));
            }
        }
        struct Check(Rc<RefCell<Option<Provenance>>>);
        use std::cell::RefCell;
        use std::rc::Rc;
        impl TdfModule for Check {
            fn name(&self) -> &str {
                "check"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new().input(PortSpec::new("ip_x"))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                *self.0.borrow_mut() = ctx.interner().resolve_prov(ctx.input1(0).prov);
            }
        }
        let got = Rc::new(RefCell::new(None));
        let m = c.add_module(Box::new(ProvSource)).unwrap();
        let wi = c.add_module(Box::new(w)).unwrap();
        let k = c.add_module(Box::new(Check(got.clone()))).unwrap();
        c.connect(m, "op_y", wi, "tdf_i").unwrap();
        c.connect(wi, "tdf_o", k, "ip_x").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        sim.run_periods(1, &mut NullSink).unwrap();
        assert_eq!(
            got.borrow().as_ref(),
            Some(&Provenance::new("op_y", 14, "m")),
            "wire leaves provenance untouched"
        );
    }

    #[test]
    fn slice_source_replays_and_holds() {
        let src = SliceSource::new(
            "s",
            SimTime::from_us(1),
            vec![Value::Double(1.0), Value::Double(2.0)],
        );
        let out = run_chain(Box::new(src), Box::new(Wire::new("w")), 4);
        let vals: Vec<f64> = out.iter().map(|(_, v)| v.as_f64()).collect();
        assert_eq!(vals, vec![1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn undefined_samples_propagate_without_provenance() {
        struct Silent;
        impl TdfModule for Silent {
            fn name(&self) -> &str {
                "silent"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(1))
            }
            fn processing(&mut self, _ctx: &mut ProcessingCtx<'_>) {}
        }
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Check(Rc<RefCell<Vec<Sample>>>);
        impl TdfModule for Check {
            fn name(&self) -> &str {
                "check"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new().input(PortSpec::new("ip_x"))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                self.0.borrow_mut().push(*ctx.input1(0));
            }
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut c = Cluster::new("top");
        let s = c.add_module(Box::new(Silent)).unwrap();
        let g = c
            .add_module(Box::new(Gain::new("g", 2.0, site(1))))
            .unwrap();
        let k = c.add_module(Box::new(Check(got.clone()))).unwrap();
        c.connect(s, "op_y", g, "tdf_i").unwrap();
        c.connect(g, "tdf_o", k, "ip_x").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        sim.run_periods(1, &mut NullSink).unwrap();
        let got = got.borrow();
        assert!(!got[0].defined);
        assert!(got[0].prov.is_none());
    }
}

#[cfg(test)]
mod initial_value_tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::module::NullSink;
    use crate::sim::Simulator;

    #[test]
    fn delay_initial_value_fills_the_first_samples() {
        let mut c = Cluster::new("top");
        let src = c
            .add_module(Box::new(FnSource::new("src", SimTime::from_us(1), |_| {
                Value::Double(9.0)
            })))
            .unwrap();
        let z = c
            .add_module(Box::new(Delay::new(
                "z",
                2,
                Value::Double(-1.5),
                DefSite::new("top", 1),
            )))
            .unwrap();
        let (probe, buf) = Probe::new("p");
        let p = c.add_module(Box::new(probe)).unwrap();
        c.connect(src, "op_out", z, "tdf_i").unwrap();
        c.connect(z, "tdf_o", p, "tdf_i").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        sim.run_periods(4, &mut NullSink).unwrap();
        assert_eq!(buf.values_f64(), vec![-1.5, -1.5, 9.0, 9.0]);
    }

    #[test]
    fn input_port_initial_value_applies_too() {
        use crate::module::{ModuleSpec, ProcessingCtx, TdfModule};
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Collect(Rc<RefCell<Vec<f64>>>);
        impl TdfModule for Collect {
            fn name(&self) -> &str {
                "c"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new().input(
                    PortSpec::new("ip_x")
                        .with_delay(1)
                        .with_initial(Value::Double(42.0)),
                )
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                self.0.borrow_mut().push(ctx.input1(0).value.as_f64());
            }
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut c = Cluster::new("top");
        let src = c
            .add_module(Box::new(FnSource::new("src", SimTime::from_us(1), |_| {
                Value::Double(1.0)
            })))
            .unwrap();
        let k = c.add_module(Box::new(Collect(got.clone()))).unwrap();
        c.connect(src, "op_out", k, "ip_x").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        sim.run_periods(3, &mut NullSink).unwrap();
        assert_eq!(*got.borrow(), vec![42.0, 1.0, 1.0]);
    }
}

/// The paper's `parallel_print()` helper (§V): a tap inserted *in parallel*
/// with a library component, so "the data (signal) flowing into the
/// redefinition element also flows into the parallel TDF model", which
/// reports it to the instrumentation sink without touching the component.
///
/// Each sample seen is emitted as a use at the tap's netlist site,
/// carrying the sample's provenance — the observation record the paper's
/// dynamic analysis combines into exercised pairs.
pub struct ParallelPrint {
    name: String,
    site: DefSite,
    /// The interner (by address) and the site model's and the tap's
    /// symbols in it.
    syms: Option<(usize, Sym, Sym)>,
}

impl ParallelPrint {
    /// Creates a tap bound at `site` (the line the paper would instrument).
    pub fn new(name: impl Into<String>, site: DefSite) -> Self {
        ParallelPrint {
            name: name.into(),
            site,
            syms: None,
        }
    }
}

impl TdfModule for ParallelPrint {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new().input(PortSpec::new("tdf_i"))
    }
    fn class(&self) -> ModuleClass {
        ModuleClass::Testbench
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let x = *ctx.input1(0);
        let interner = ctx.interner();
        let addr = interner as *const Interner as usize;
        if self.syms.is_none_or(|(a, _, _)| a != addr) {
            let (model, name) = (
                interner.intern(&self.site.model),
                interner.intern(&self.name),
            );
            self.syms = Some((addr, model, name));
        }
        let (_, model, name) = self.syms.expect("just bound");
        let var = interner.prov(x.prov).map_or(name, |(var, _, _)| var);
        ctx.emit_compact(CompactEvent {
            time: ctx.time(),
            model,
            var,
            line: self.site.line,
            kind: EventKind::Use,
            prov: x.prov,
            defined: x.defined,
        });
    }
}

#[cfg(test)]
mod parallel_print_tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::module::{Event, RecordingSink};
    use crate::sim::Simulator;
    use crate::value::Provenance;

    #[test]
    fn tap_reports_flowing_samples_without_disturbing_them() {
        struct Src;
        impl TdfModule for Src {
            fn name(&self) -> &str {
                "m"
            }
            fn spec(&self) -> ModuleSpec {
                ModuleSpec::new()
                    .output(PortSpec::new("op_y"))
                    .with_timestep(SimTime::from_us(1))
            }
            fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
                let prov = ctx
                    .interner()
                    .intern_prov(&Provenance::new("op_y", 14, "m"));
                ctx.write(0, Sample::stamped(3.0, prov));
            }
        }
        let mut c = Cluster::new("top");
        let s = c.add_module(Box::new(Src)).unwrap();
        let g = c
            .add_module(Box::new(Gain::new("g", 2.0, DefSite::new("top", 77))))
            .unwrap();
        let tap = c
            .add_module(Box::new(ParallelPrint::new("pp", DefSite::new("top", 76))))
            .unwrap();
        let (probe, buf) = Probe::new("probe");
        let p = c.add_module(Box::new(probe)).unwrap();
        // The tap sits in parallel with the gain input.
        c.connect(s, "op_y", g, "tdf_i").unwrap();
        c.connect(s, "op_y", tap, "tdf_i").unwrap();
        c.connect(g, "tdf_o", p, "tdf_i").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        let mut sink = RecordingSink::new();
        sim.run_periods(2, &mut sink).unwrap();
        // The gain output is untouched by the tap.
        assert_eq!(buf.values_f64(), vec![6.0, 6.0]);
        // Each sample was observed at the instrumented netlist line.
        let taps: Vec<&Event> = sink
            .events
            .iter()
            .filter(|e| matches!(e, Event::Use { line: 76, .. }))
            .collect();
        assert_eq!(taps.len(), 2);
        if let Event::Use { var, feeding, .. } = taps[0] {
            assert_eq!(var, "op_y");
            assert_eq!(feeding.as_ref().unwrap(), &Provenance::new("op_y", 14, "m"));
        } else {
            unreachable!();
        }
    }
}
