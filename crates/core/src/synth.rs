//! Synthetic design generation for the scalability benchmarks (ablation A2
//! in DESIGN.md): parameterised chains of TDF models with branching bodies,
//! buildable both as a [`Design`] (for static analysis) and as a
//! [`Cluster`] (for end-to-end runs).

use tdf_interp::{Interface, InterpModule, TdfModelDef};
use tdf_sim::{Cluster, DefSite, FnSource, Gain, SimTime, Value};

use crate::design::Design;
use crate::error::Result;

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
    /// Propagates parse/bind/elaboration errors (none expected for
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
    /// Propagates parse/bind/elaboration errors (none expected for
    /// generated specs).
    pub fn build_cluster_with(&self, stim: Box<dyn tdf_sim::TdfModule>) -> Result<Cluster> {
        self.cluster_from(&minic::parse(&self.source)?, stim)
    }

    /// The chain cluster over an already parsed `tu` of [`Self::source`]
    /// — the one place the netlist is built.
    fn cluster_from(
        &self,
        tu: &minic::TranslationUnit,
        stim: Box<dyn tdf_sim::TdfModule>,
    ) -> Result<Cluster> {
        let mut cluster = Cluster::new("synth_top");
        let src = cluster.add_module(stim)?;
        let mut prev_port = ("stim".to_owned(), "op_out".to_owned());
        let mut prev_id = src;
        for (i, def) in self.models.iter().enumerate() {
            let m = InterpModule::new(tu, &def.model, def.interface.clone())?;
            let mid = cluster.add_module(Box::new(m))?;
            if self.with_gains && i > 0 && i % 2 == 0 {
                let g = Gain::new(
                    format!("g{i}"),
                    1.5,
                    DefSite::new("synth_top", 1000 + i as u32),
                );
                let gid = cluster.add_module(Box::new(g))?;
                cluster.connect(prev_id, &prev_port.1, gid, "tdf_i")?;
                cluster.connect(gid, "tdf_o", mid, "ip_in")?;
            } else {
                cluster.connect(prev_id, &prev_port.1, mid, "ip_in")?;
            }
            prev_port = (def.model.clone(), "op_out".to_owned());
            prev_id = mid;
        }
        Ok(cluster)
    }

    /// Builds the analysable [`Design`] (sources + interfaces + netlist),
    /// parsing the source once for both the netlist and the design.
    ///
    /// # Errors
    ///
    /// Propagates parse errors (none expected for generated specs).
    pub fn build_design(&self) -> Result<Design> {
        let tu = minic::parse(&self.source)?;
        let netlist = self.cluster_from(&tu, default_stimulus())?.netlist();
        Design::new(tu, self.models.clone(), netlist)
    }
}

/// The stimulus [`SynthSpec::build_cluster`] drives the chain head with.
fn default_stimulus() -> Box<dyn tdf_sim::TdfModule> {
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
