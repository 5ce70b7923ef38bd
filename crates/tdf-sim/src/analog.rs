//! Extended component library: comparators, sample-and-hold, integrator,
//! DAC, quantizer and the multirate decimator/interpolator pair (the only
//! library elements with rates ≠ 1, exercising the SDF balance-equation
//! scheduling end to end).
//!
//! Classification follows the paper's rule set: any SISO element whose
//! output is a *function of* (not identical to) its input is
//! [`ModuleClass::Redefining`]; elements with memory (delay-like) equally
//! so. All carry a [`DefSite`] naming their netlist binding line.

use crate::components::Redefines;
use crate::module::{DefSite, ModuleClass, ModuleSpec, PortSpec, ProcessingCtx, TdfModule};
use crate::value::Value;

/// A threshold comparator with optional hysteresis: `y = x > threshold`,
/// releasing only below `threshold - hysteresis`.
pub struct Comparator {
    name: String,
    threshold: f64,
    hysteresis: f64,
    state: bool,
    site: Redefines,
}

impl Comparator {
    /// Creates a comparator tripping above `threshold` with `hysteresis`.
    pub fn new(name: impl Into<String>, threshold: f64, hysteresis: f64, site: DefSite) -> Self {
        Comparator {
            name: name.into(),
            threshold,
            hysteresis,
            state: false,
            site: Redefines::new(site),
        }
    }
}

impl TdfModule for Comparator {
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
        self.state = false;
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let x = *ctx.input1(0);
        let v = x.value.as_f64();
        if v > self.threshold {
            self.state = true;
        } else if v < self.threshold - self.hysteresis {
            self.state = false;
        }
        let out = self.site.out(&x, Value::Bool(self.state), ctx.interner());
        ctx.write(0, out);
    }
}

/// A sample-and-hold: latches the input while the (second) gate input is
/// high, holding the last latched value otherwise.
pub struct SampleHold {
    name: String,
    held: f64,
    site: Redefines,
}

impl SampleHold {
    /// Creates a sample-and-hold.
    pub fn new(name: impl Into<String>, site: DefSite) -> Self {
        SampleHold {
            name: name.into(),
            held: 0.0,
            site: Redefines::new(site),
        }
    }
}

impl TdfModule for SampleHold {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new()
            .input(PortSpec::new("tdf_i"))
            .input(PortSpec::new("gate_i"))
            .output(PortSpec::new("tdf_o"))
    }
    fn class(&self) -> ModuleClass {
        self.site.class()
    }
    fn initialize(&mut self) {
        self.held = 0.0;
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let x = *ctx.input1(0);
        let gate = ctx.input1(1).value.as_bool();
        if gate {
            self.held = x.value.as_f64();
        }
        let out = self.site.out(&x, Value::Double(self.held), ctx.interner());
        ctx.write(0, out);
    }
}

/// A discrete-time integrator `y += k · x · Δt`, with symmetric clamping.
pub struct Integrator {
    name: String,
    gain: f64,
    clamp: f64,
    state: f64,
    site: Redefines,
}

impl Integrator {
    /// Creates an integrator with `gain` 1/s and output clamp `±clamp`.
    pub fn new(name: impl Into<String>, gain: f64, clamp: f64, site: DefSite) -> Self {
        Integrator {
            name: name.into(),
            gain,
            clamp,
            state: 0.0,
            site: Redefines::new(site),
        }
    }
}

impl TdfModule for Integrator {
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
        let dt = ctx.timestep().as_secs_f64();
        self.state += self.gain * x.value.as_f64() * dt;
        self.state = self.state.clamp(-self.clamp, self.clamp);
        let out = self.site.out(&x, Value::Double(self.state), ctx.interner());
        ctx.write(0, out);
    }
}

/// An ideal DAC: integer code × LSB volts.
pub struct Dac {
    name: String,
    lsb: f64,
    site: Redefines,
}

impl Dac {
    /// Creates a DAC with the given LSB weight in volts.
    pub fn new(name: impl Into<String>, lsb: f64, site: DefSite) -> Self {
        Dac {
            name: name.into(),
            lsb,
            site: Redefines::new(site),
        }
    }
}

impl TdfModule for Dac {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new()
            .input(PortSpec::new("dac_i"))
            .output(PortSpec::new("dac_o"))
    }
    fn class(&self) -> ModuleClass {
        self.site.class()
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let x = *ctx.input1(0);
        let out = self.site.out(
            &x,
            Value::Double(x.value.as_i64() as f64 * self.lsb),
            ctx.interner(),
        );
        ctx.write(0, out);
    }
}

/// A mid-tread quantizer: rounds to the nearest multiple of `step`.
pub struct Quantizer {
    name: String,
    step: f64,
    site: Redefines,
}

impl Quantizer {
    /// Creates a quantizer with the given step size.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive.
    pub fn new(name: impl Into<String>, step: f64, site: DefSite) -> Self {
        assert!(step > 0.0, "quantizer step must be positive");
        Quantizer {
            name: name.into(),
            step,
            site: Redefines::new(site),
        }
    }
}

impl TdfModule for Quantizer {
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
        let q = (x.value.as_f64() / self.step).round() * self.step;
        let out = self.site.out(&x, Value::Double(q), ctx.interner());
        ctx.write(0, out);
    }
}

/// An `n:1` decimator: consumes `n` samples per activation, emits the last
/// one. The input port rate is `n` — a true multirate element.
pub struct Decimator {
    name: String,
    factor: usize,
    site: Redefines,
}

impl Decimator {
    /// Creates an `n:1` decimator.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn new(name: impl Into<String>, factor: usize, site: DefSite) -> Self {
        assert!(factor > 0, "decimation factor must be positive");
        Decimator {
            name: name.into(),
            factor,
            site: Redefines::new(site),
        }
    }
}

impl TdfModule for Decimator {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new()
            .input(PortSpec::new("tdf_i").with_rate(self.factor))
            .output(PortSpec::new("tdf_o"))
    }
    fn class(&self) -> ModuleClass {
        self.site.class()
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let last = *ctx.input(0, self.factor - 1);
        let out = self.site.out(&last, last.value, ctx.interner());
        ctx.write(0, out);
    }
}

/// A `1:n` interpolator: zero-order hold, emitting each input sample `n`
/// times. The output port rate is `n`.
pub struct Interpolator {
    name: String,
    factor: usize,
    site: Redefines,
}

impl Interpolator {
    /// Creates a `1:n` interpolator.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn new(name: impl Into<String>, factor: usize, site: DefSite) -> Self {
        assert!(factor > 0, "interpolation factor must be positive");
        Interpolator {
            name: name.into(),
            factor,
            site: Redefines::new(site),
        }
    }
}

impl TdfModule for Interpolator {
    fn name(&self) -> &str {
        &self.name
    }
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new()
            .input(PortSpec::new("tdf_i"))
            .output(PortSpec::new("tdf_o").with_rate(self.factor))
    }
    fn class(&self) -> ModuleClass {
        self.site.class()
    }
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let x = *ctx.input1(0);
        let out = self.site.out(&x, x.value, ctx.interner());
        for _ in 0..self.factor {
            ctx.write(0, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::components::{FnSource, Probe};
    use crate::module::NullSink;
    use crate::sim::Simulator;
    use crate::time::SimTime;

    fn site() -> DefSite {
        DefSite::new("top", 42)
    }

    fn run_siso(
        element: Box<dyn TdfModule>,
        input: impl FnMut(SimTime) -> Value + 'static,
        periods: u64,
    ) -> Vec<Value> {
        let mut c = Cluster::new("top");
        let src = c
            .add_module(Box::new(FnSource::new("src", SimTime::from_us(1), input)))
            .unwrap();
        let spec = element.spec();
        let e = c.add_module(element).unwrap();
        let (probe, buf) = Probe::new("probe");
        let p = c.add_module(Box::new(probe)).unwrap();
        c.connect(src, "op_out", e, &spec.in_ports[0].name).unwrap();
        c.connect(e, &spec.out_ports[0].name, p, "tdf_i").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        sim.run_periods(periods, &mut NullSink).unwrap();
        buf.samples().into_iter().map(|(_, v)| v).collect()
    }

    #[test]
    fn comparator_with_hysteresis() {
        // 0, 2, 1.2, 0.4: trips at 2 (>1.5), stays at 1.2 (above 1.5-1.0),
        // releases at 0.4.
        let values = [0.0, 2.0, 1.2, 0.4];
        let mut i = 0usize;
        let out = run_siso(
            Box::new(Comparator::new("cmp", 1.5, 1.0, site())),
            move |_| {
                let v = values[i.min(3)];
                i += 1;
                Value::Double(v)
            },
            4,
        );
        let bools: Vec<bool> = out.iter().map(|v| v.as_bool()).collect();
        assert_eq!(bools, vec![false, true, true, false]);
    }

    #[test]
    fn integrator_accumulates_and_clamps() {
        let out = run_siso(
            Box::new(Integrator::new("int", 1e6, 3.0, site())),
            |_| Value::Double(1.0),
            6,
        );
        let vals: Vec<f64> = out.iter().map(|v| v.as_f64()).collect();
        // gain 1e6 /s * 1.0 * 1us = 1.0 per step, clamped at 3.
        let expect = [1.0, 2.0, 3.0, 3.0, 3.0, 3.0];
        for (got, want) in vals.iter().zip(expect) {
            assert!((got - want).abs() < 1e-9, "{vals:?}");
        }
    }

    #[test]
    fn dac_scales_codes() {
        let mut code = 0i64;
        let out = run_siso(
            Box::new(Dac::new("dac", 0.5, site())),
            move |_| {
                code += 1;
                Value::Int(code)
            },
            3,
        );
        let vals: Vec<f64> = out.iter().map(|v| v.as_f64()).collect();
        assert_eq!(vals, vec![0.5, 1.0, 1.5]);
    }

    #[test]
    fn quantizer_rounds_to_step() {
        let values = [0.1, 0.3, 0.55, -0.3];
        let mut i = 0usize;
        let out = run_siso(
            Box::new(Quantizer::new("q", 0.25, site())),
            move |_| {
                let v = values[i.min(3)];
                i += 1;
                Value::Double(v)
            },
            4,
        );
        let vals: Vec<f64> = out.iter().map(|v| v.as_f64()).collect();
        assert_eq!(vals, vec![0.0, 0.25, 0.5, -0.25]);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn quantizer_rejects_zero_step() {
        Quantizer::new("q", 0.0, site());
    }

    #[test]
    fn decimator_keeps_every_nth() {
        let mut n = 0i64;
        let out = run_siso(
            Box::new(Decimator::new("dec", 3, site())),
            move |_| {
                n += 1;
                Value::Int(n)
            },
            1, // one cluster period = 3 source firings, 1 decimator firing
        );
        let vals: Vec<i64> = out.iter().map(|v| v.as_i64()).collect();
        assert_eq!(vals, vec![3], "last of each group of three");
    }

    #[test]
    fn interpolator_repeats_samples() {
        // A 3us source keeps the downstream 1us timestep representable.
        let mut c = Cluster::new("top");
        let mut n = 0i64;
        let src = c
            .add_module(Box::new(FnSource::new(
                "src",
                SimTime::from_us(3),
                move |_| {
                    n += 1;
                    Value::Int(n)
                },
            )))
            .unwrap();
        let ip = c
            .add_module(Box::new(Interpolator::new("ip", 3, site())))
            .unwrap();
        let (probe, buf) = Probe::new("probe");
        let p = c.add_module(Box::new(probe)).unwrap();
        c.connect(src, "op_out", ip, "tdf_i").unwrap();
        c.connect(ip, "tdf_o", p, "tdf_i").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        assert_eq!(sim.schedule().repetitions, vec![1, 1, 3]);
        sim.run_periods(2, &mut NullSink).unwrap();
        let vals: Vec<i64> = buf.samples().iter().map(|(_, v)| v.as_i64()).collect();
        assert_eq!(vals, vec![1, 1, 1, 2, 2, 2], "zero-order hold upsampling");
    }

    #[test]
    fn multirate_timesteps_derive_correctly() {
        // src (1us) -> decimator 4:1 -> probe: the decimator activates
        // every 4us, the probe every 4us too.
        let mut c = Cluster::new("top");
        let src = c
            .add_module(Box::new(FnSource::new("src", SimTime::from_us(1), |_| {
                Value::Double(1.0)
            })))
            .unwrap();
        let d = c
            .add_module(Box::new(Decimator::new("dec", 4, site())))
            .unwrap();
        let (probe, buf) = Probe::new("probe");
        let p = c.add_module(Box::new(probe)).unwrap();
        c.connect(src, "op_out", d, "tdf_i").unwrap();
        c.connect(d, "tdf_o", p, "tdf_i").unwrap();
        let sim = Simulator::new(c).unwrap();
        assert_eq!(sim.schedule().period, SimTime::from_us(4));
        assert_eq!(sim.schedule().repetitions, vec![4, 1, 1]);
        let mut sim = sim;
        sim.run(SimTime::from_us(12), &mut NullSink).unwrap();
        assert_eq!(buf.len(), 3);
        let times: Vec<SimTime> = buf.samples().iter().map(|(t, _)| *t).collect();
        assert_eq!(
            times,
            vec![SimTime::ZERO, SimTime::from_us(4), SimTime::from_us(8)]
        );
    }

    #[test]
    fn sample_hold_latches_on_gate() {
        let mut c = Cluster::new("top");
        let sig = c
            .add_module(Box::new(FnSource::new("sig", SimTime::from_us(1), |t| {
                Value::Double(t.as_fs() as f64 / 1e9)
            })))
            .unwrap();
        let gate = c
            .add_module(Box::new(FnSource::new("gate", SimTime::from_us(1), |t| {
                Value::Bool(t >= SimTime::from_us(2) && t < SimTime::from_us(3))
            })))
            .unwrap();
        let sh = c
            .add_module(Box::new(SampleHold::new("sh", site())))
            .unwrap();
        let (probe, buf) = Probe::new("probe");
        let p = c.add_module(Box::new(probe)).unwrap();
        c.connect(sig, "op_out", sh, "tdf_i").unwrap();
        c.connect(gate, "op_out", sh, "gate_i").unwrap();
        c.connect(sh, "tdf_o", p, "tdf_i").unwrap();
        let mut sim = Simulator::new(c).unwrap();
        sim.run(SimTime::from_us(5), &mut NullSink).unwrap();
        let vals = buf.values_f64();
        // Held at 0 until the gate opens at t=2us (value 2.0), then held.
        assert_eq!(vals, vec![0.0, 0.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn redefining_class_with_site() {
        for class in [
            Comparator::new("c", 1.0, 0.0, site()).class(),
            SampleHold::new("s", site()).class(),
            Integrator::new("i", 1.0, 1.0, site()).class(),
            Dac::new("d", 1.0, site()).class(),
            Quantizer::new("q", 1.0, site()).class(),
            Decimator::new("de", 2, site()).class(),
            Interpolator::new("in", 2, site()).class(),
        ] {
            assert!(matches!(class, ModuleClass::Redefining(ref s) if s.line == 42));
        }
    }
}
