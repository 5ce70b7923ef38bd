//! Synthetic design generation for the scalability benchmarks (ablation A2
//! in DESIGN.md): parameterised chains of TDF models with branching bodies,
//! buildable both as a [`Design`] (for static analysis) and as a
//! [`Cluster`] (for end-to-end runs). The chain's netlist is written once,
//! from the declarations; the design carries it and each cluster is
//! instantiated from it.

use tdf_interp::{Interface, InterpModule, TdfModelDef};
use tdf_sim::{
    Cluster, DefSite, FnSource, Gain, ModuleClass, ModuleId, ModuleInfo, NetBinding, Netlist,
    PortRef, PortSpec, SimTime, TdfModule, Value,
};

use crate::design::Design;
use crate::error::Result;
use crate::fx::FxHashMap;

/// A generated synthetic design: sources + interfaces, with builders for
/// both analysis and simulation.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// The generated minic source of all models.
    pub source: String,
    /// Per-model interfaces.
    pub models: Vec<TdfModelDef>,
    /// Number of chained models.
    pub length: usize,
    /// Whether every other link goes through a redefining gain element.
    pub with_gains: bool,
}

/// Generates a chain of `length` models `m0 -> m1 -> … -> m{n-1}`, each
/// with a small branching body (one Firm-shaped local, one member, one
/// output). With `with_gains`, every second link passes through a
/// redefining gain, producing PWeak cluster pairs.
pub fn synthetic_chain(length: usize, with_gains: bool) -> SynthSpec {
    assert!(length >= 1, "chain needs at least one model");
    let mut source = String::new();
    let mut models = Vec::new();
    for i in 0..length {
        let name = format!("m{i}");
        source.push_str(&format!(
            "void {name}::processing()\n\
             {{\n\
                 double x = ip_in * 2;\n\
                 double acc = 0;\n\
                 if (x > 1) {{ acc = x; }}\n\
                 m_state = m_state + acc;\n\
                 if (m_state > 100) {{ m_state = 0; }}\n\
                 op_out = acc + m_state;\n\
             }}\n"
        ));
        models.push(TdfModelDef::new(
            &name,
            Interface::new()
                .input("ip_in")
                .output("op_out")
                .member("m_state", 0.0)
                .timestep(SimTime::from_us(1)),
        ));
    }
    SynthSpec {
        source,
        models,
        length,
        with_gains,
    }
}

impl SynthSpec {
    /// Builds a fresh simulation cluster (a stimulus source feeding the
    /// chain head; gains between every second pair when enabled).
    ///
    /// # Errors
    ///
    /// Propagates parse/lowering/bind errors (none expected for
    /// generated specs).
    pub fn build_cluster(&self) -> Result<Cluster> {
        self.build_cluster_with(default_stimulus())
    }

    /// [`SynthSpec::build_cluster`] with a caller-supplied stimulus
    /// module driving the chain head (its output port must be `op_out`,
    /// like [`FnSource`]'s). This is the hook coverage-guided test
    /// generation uses to run candidate signals through synthetic chains
    /// without hand-building the netlist.
    ///
    /// # Errors
    ///
    /// Propagates parse/lowering/bind errors (none expected for
    /// generated specs).
    pub fn build_cluster_with(&self, stim: Box<dyn TdfModule>) -> Result<Cluster> {
        let tu = minic::parse(&self.source)?;
        let netlist = self.netlist();
        let mut cluster = Cluster::new(netlist.cluster.as_str());
        let mut stim = Some(stim);
        // The netlist declares the models in `self.models` order.
        let mut defs = self.models.iter();
        let mut ids: FxHashMap<&str, ModuleId> = FxHashMap::default();
        for m in &netlist.modules {
            let module: Box<dyn TdfModule> = match &m.class {
                ModuleClass::UserCode => {
                    let def = defs.next().expect("one declaration per user model");
                    Box::new(InterpModule::new(&tu, &def.model, def.interface.clone())?)
                }
                ModuleClass::Redefining(site) => {
                    Box::new(Gain::new(m.name.as_str(), 1.5, site.clone()))
                }
                ModuleClass::Testbench => stim.take().expect("one stimulus"),
                ModuleClass::Transparent => unreachable!("the chain declares none"),
            };
            ids.insert(&m.name, cluster.add_module(module)?);
        }
        for b in &netlist.bindings {
            let (from, to) = (ids[b.from.model.as_str()], ids[b.to.model.as_str()]);
            cluster.connect(from, &b.from.port, to, &b.to.port)?;
        }
        Ok(cluster)
    }

    /// The chain's binding information, written from the declarations
    /// alone — the one place the topology is: the stimulus `stim`, then
    /// per model its instance and, on every second link with gains, the
    /// redefining gain `g{i}` in front of it.
    fn netlist(&self) -> Netlist {
        let names = |ports: &[PortSpec]| ports.iter().map(|p| p.name.clone()).collect();
        let mut modules = vec![ModuleInfo {
            name: "stim".into(),
            class: ModuleClass::Testbench,
            in_ports: Vec::new(),
            out_ports: vec!["op_out".into()],
        }];
        let mut bindings = Vec::new();
        let mut prev = PortRef::new("stim", "op_out");
        for (i, def) in self.models.iter().enumerate() {
            modules.push(ModuleInfo {
                name: def.model.clone(),
                class: ModuleClass::UserCode,
                in_ports: names(&def.interface.inputs),
                out_ports: names(&def.interface.outputs),
            });
            if self.with_gains && i > 0 && i % 2 == 0 {
                let gain = format!("g{i}");
                let site = DefSite::new("synth_top", 1000 + i as u32);
                modules.push(ModuleInfo {
                    name: gain.clone(),
                    class: ModuleClass::Redefining(site),
                    in_ports: vec!["tdf_i".into()],
                    out_ports: vec!["tdf_o".into()],
                });
                let to = PortRef::new(gain.as_str(), "tdf_i");
                bindings.push(NetBinding { from: prev, to });
                prev = PortRef::new(gain, "tdf_o");
            }
            let to = PortRef::new(def.model.as_str(), "ip_in");
            bindings.push(NetBinding { from: prev, to });
            prev = PortRef::new(def.model.as_str(), "op_out");
        }
        Netlist {
            cluster: "synth_top".into(),
            bindings,
            modules,
        }
    }

    /// Builds the analysable [`Design`] (sources + interfaces + netlist)
    /// from one parse and the declared netlist; no model is lowered, so
    /// the checks only lowering makes (unknown identifiers, writes to
    /// inputs) are left to [`SynthSpec::build_cluster`].
    ///
    /// # Errors
    ///
    /// Propagates parse errors (none expected for generated specs).
    pub fn build_design(&self) -> Result<Design> {
        let tu = minic::parse(&self.source)?;
        Design::new(tu, self.models.clone(), self.netlist())
    }
}

/// The stimulus [`SynthSpec::build_cluster`] drives the chain head with.
fn default_stimulus() -> Box<dyn TdfModule> {
    Box::new(FnSource::new("stim", SimTime::from_us(1), |t| {
        Value::Double((t.as_fs() % 7) as f64)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statics::analyse;
    use crate::DftSession;

    #[test]
    fn chain_generates_and_analyses() {
        let spec = synthetic_chain(4, false);
        let design = spec.build_design().unwrap();
        assert_eq!(design.user_models().len(), 4);
        let sa = analyse(&design);
        assert!(!sa.is_empty());
        // Each internal link is a direct Strong connection.
        let cross = sa
            .associations
            .iter()
            .filter(|c| !c.assoc.is_intra_model())
            .count();
        assert!(cross >= 3, "three links produce cluster pairs, got {cross}");
    }

    #[test]
    fn gains_introduce_pweak_pairs() {
        use crate::assoc::Classification;
        let spec = synthetic_chain(5, true);
        let design = spec.build_design().unwrap();
        let sa = analyse(&design);
        let pweak = sa.of_class(Classification::PWeak);
        assert!(!pweak.is_empty(), "gain links are purely redefined");
    }

    #[test]
    fn associations_scale_with_length() {
        let short = analyse(&synthetic_chain(2, false).build_design().unwrap()).len();
        let long = analyse(&synthetic_chain(8, false).build_design().unwrap()).len();
        assert!(long > short * 3, "roughly linear growth: {short} -> {long}");
    }

    #[test]
    fn declared_netlist_equals_the_built_clusters() {
        for length in 1..=9 {
            for with_gains in [false, true] {
                let spec = synthetic_chain(length, with_gains);
                let built = spec.build_cluster().unwrap().netlist();
                assert_eq!(spec.netlist(), built, "chain{length}, gains {with_gains}");
                assert_eq!(spec.build_design().unwrap().netlist(), &built);
            }
        }
        // The topology itself: a gain in front of every second model.
        let netlist = synthetic_chain(3, true).netlist();
        let names: Vec<&str> = netlist.modules.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["stim", "m0", "m1", "m2", "g2"]);
        let site = DefSite::new("synth_top", 1002);
        assert_eq!(netlist.class_of("g2"), Some(&ModuleClass::Redefining(site)));
        let links: Vec<String> = netlist
            .bindings
            .iter()
            .map(|NetBinding { from: f, to: t }| {
                format!("{}.{}->{}.{}", f.model, f.port, t.model, t.port)
            })
            .collect();
        let want = [
            "stim.op_out->m0.ip_in",
            "m0.op_out->m1.ip_in",
            "m1.op_out->g2.tdf_i",
            "g2.tdf_o->m2.ip_in",
        ];
        assert_eq!(links, want);
    }

    #[test]
    fn caller_stimulus_need_not_be_named_stim() {
        use tdf_sim::{RecordingSink, Simulator};
        let spec = synthetic_chain(5, true);
        let drive = FnSource::new("drive", SimTime::from_us(1), |_| Value::Double(3.0));
        let cluster = spec.build_cluster_with(Box::new(drive)).unwrap();
        let netlist = cluster.netlist();
        assert_eq!(netlist.modules[0].name, "drive");
        assert_eq!(netlist.bindings[0].from, PortRef::new("drive", "op_out"));
        assert_eq!(netlist.bindings[1..], spec.netlist().bindings[1..]);
        let mut sim = Simulator::new(cluster).unwrap();
        let mut sink = RecordingSink::new();
        sim.run(SimTime::from_us(5), &mut sink).unwrap();
        let tail_defs = sink.events.iter().filter(|e| {
            matches!(e, tdf_sim::Event::Def { model, var, .. } if model == "m4" && var == "op_out")
        });
        assert_eq!(tail_defs.count(), 5, "the chain tail fires once per step");
    }

    #[test]
    fn end_to_end_session_on_synthetic_design() {
        let spec = synthetic_chain(3, true);
        let design = spec.build_design().unwrap();
        let mut session = DftSession::new(design).unwrap();
        let cluster = spec.build_cluster().unwrap();
        session
            .run_testcase("TC1", cluster, SimTime::from_us(10))
            .unwrap();
        let cov = session.coverage();
        assert!(cov.exercised_count() > 0);
    }
}
