//! The classical (TDF-unaware) def-use baseline, used by the ablation
//! benchmark: plain all-du pairs within each `processing()` function, no
//! port/cluster reasoning, no Strong/Firm/PFirm/PWeak split.
//!
//! §IV-B.3 of the paper argues this baseline is insufficient for
//! SystemC-AMS designs — it is blind to every signal that crosses a model
//! boundary, so interface bugs (like the saturating-ADC one) cannot be
//! expressed as uncovered associations at all.

use dataflow::{Cfg, ReachingDefs};

use crate::assoc::Association;
use crate::design::Design;

/// Computes the classical intra-procedural def-use pairs of every user
/// model: exactly what an off-the-shelf software DFT tool would report.
pub fn classical_pairs(design: &Design) -> Vec<Association> {
    let mut out = Vec::new();
    for model in design.user_models() {
        let f = design.processing(model).expect("validated by Design::new");
        let cfg = Cfg::from_function(f);
        let rd = ReachingDefs::compute(&cfg);
        for pair in rd.pairs() {
            out.push(Association::new(
                pair.var.clone(),
                rd.def(pair.def).line,
                model,
                pair.use_line,
                model,
            ));
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statics::analyse;
    use tdf_interp::{Interface, TdfModelDef};
    use tdf_sim::{ModuleClass, ModuleInfo, NetBinding, Netlist, PortRef};

    fn design() -> Design {
        let src = "\
void A::processing()
{
    double t = ip_in;
    op_y = t;
}
void B::processing()
{
    double v = ip_x;
    op_z = v;
}";
        let tu = minic::parse(src).unwrap();
        let models = vec![
            TdfModelDef::new("A", Interface::new().input("ip_in").output("op_y")),
            TdfModelDef::new("B", Interface::new().input("ip_x").output("op_z")),
        ];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![NetBinding {
                from: PortRef::new("A", "op_y"),
                to: PortRef::new("B", "ip_x"),
            }],
            modules: vec![
                ModuleInfo {
                    name: "A".into(),
                    class: ModuleClass::UserCode,
                    in_ports: vec!["ip_in".into()],
                    out_ports: vec!["op_y".into()],
                },
                ModuleInfo {
                    name: "B".into(),
                    class: ModuleClass::UserCode,
                    in_ports: vec!["ip_x".into()],
                    out_ports: vec!["op_z".into()],
                },
            ],
        };
        Design::new(tu, models, netlist).unwrap()
    }

    #[test]
    fn classical_sees_only_intra_model_pairs() {
        let d = design();
        let classical = classical_pairs(&d);
        assert!(classical.iter().all(|a| a.is_intra_model()));
        // t and v pairs exist...
        assert!(classical.contains(&Association::new("t", 3, "A", 4, "A")));
        assert!(classical.contains(&Association::new("v", 8, "B", 9, "B")));
        // ...but the cross-model op_y flow is invisible.
        assert!(!classical.iter().any(|a| !a.is_intra_model()));
    }

    #[test]
    fn tdf_aware_analysis_strictly_dominates() {
        let d = design();
        let classical = classical_pairs(&d);
        let tdf = analyse(&d);
        let cross = tdf
            .associations
            .iter()
            .filter(|c| !c.assoc.is_intra_model())
            .count();
        assert!(cross > 0, "TDF-aware analysis finds cluster pairs");
        assert!(tdf.associations.len() > classical.len());
    }
}
