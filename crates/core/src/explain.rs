//! Human-readable explanation of a single association: for intra-model
//! pairs, the enumerated static paths between def and use with intervening
//! redefinitions marked (why a pair is Firm rather than Strong); for
//! cluster pairs, the binding chain through the netlist with redefining
//! elements called out (why a pair is PFirm or PWeak).

use std::fmt::Write as _;

use dataflow::{enumerate_du_paths, Cfg, ReachingDefs};
use tdf_sim::ModuleClass;

use crate::assoc::Association;
use crate::design::Design;

/// Maximum number of static paths rendered per association.
const MAX_PATHS: usize = 16;

/// Renders an explanation of `assoc` against `design`, or `None` when the
/// association's coordinates cannot be resolved (e.g. a stale tuple).
pub fn explain_association(design: &Design, assoc: &Association) -> Option<String> {
    if assoc.is_intra_model() {
        explain_intra(design, assoc)
    } else {
        explain_cluster(design, assoc)
    }
}

fn explain_intra(design: &Design, assoc: &Association) -> Option<String> {
    let f = design.processing(&assoc.def_model)?;
    let cfg = Cfg::from_function(f);
    let rd = ReachingDefs::compute(&cfg);
    let pair = rd.pairs().iter().find(|p| {
        p.var == assoc.var && rd.def(p.def).line == assoc.def_line && p.use_line == assoc.use_line
    })?;
    let paths = enumerate_du_paths(&cfg, &rd, pair, MAX_PATHS);
    let mut out = String::new();
    let _ = writeln!(out, "{assoc}: {} static path(s) def -> use", paths.len());
    let redef_nodes: Vec<usize> = rd
        .defs_of(&assoc.var)
        .iter()
        .filter(|d| d.id != pair.def)
        .map(|d| d.node)
        .collect();
    for (k, p) in paths.iter().enumerate() {
        let verdict = if p.is_du_path {
            "du-path"
        } else {
            "NOT a du-path"
        };
        let _ = writeln!(out, "  path {}: {verdict}", k + 1);
        for &n in &p.nodes {
            let node = cfg.node(n);
            let marker = if redef_nodes.contains(&n) {
                "  <-- redefines "
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    line {:>3}: {}{}{}",
                node.line,
                node.label,
                marker,
                if marker.is_empty() { "" } else { &assoc.var }
            );
        }
    }
    if paths.len() == MAX_PATHS {
        let _ = writeln!(out, "  (truncated at {MAX_PATHS} paths)");
    }
    Some(out)
}

fn explain_cluster(design: &Design, assoc: &Association) -> Option<String> {
    let netlist = design.netlist();
    let mut out = String::new();
    let _ = writeln!(out, "{assoc}: cluster-level flow");
    // Walk forward from the defining side. For redefined pairs the
    // def_model is the netlist model; find the component whose site matches.
    let origin = if design.processing(&assoc.def_model).is_some() {
        (assoc.def_model.clone(), assoc.var.clone())
    } else {
        // Redefined: locate the component bound at (def_model, def_line).
        let comp = netlist.modules.iter().find(|m| {
            matches!(&m.class, ModuleClass::Redefining(site)
                if site.model == assoc.def_model && site.line == assoc.def_line)
        })?;
        let _ = writeln!(
            out,
            "  redefined by `{}` (binding at {}:{})",
            comp.name, assoc.def_model, assoc.def_line
        );
        (comp.name.clone(), comp.out_ports.first()?.clone())
    };
    // Render the chain from origin to the using model (first match).
    let mut cur = origin;
    let mut hops = 0;
    while hops < 32 {
        hops += 1;
        let mut advanced = false;
        for b in netlist.fanout(&cur.0, &cur.1) {
            match netlist.class_of(&b.to.model) {
                Some(ModuleClass::UserCode) if b.to.model == assoc.use_model => {
                    let _ = writeln!(
                        out,
                        "  {}.{} -> {}.{} (used at line {})",
                        b.from.model, b.from.port, b.to.model, b.to.port, assoc.use_line
                    );
                    return Some(out);
                }
                Some(ModuleClass::Redefining(site)) => {
                    let _ = writeln!(
                        out,
                        "  {}.{} -> {}.{} [redefining, site {site}]",
                        b.from.model, b.from.port, b.to.model, b.to.port
                    );
                    if let Some(info) = netlist.module(&b.to.model) {
                        if let Some(op) = info.out_ports.first() {
                            cur = (b.to.model.clone(), op.clone());
                            advanced = true;
                            break;
                        }
                    }
                }
                Some(ModuleClass::Transparent) => {
                    let _ = writeln!(
                        out,
                        "  {}.{} -> {}.{} [transparent]",
                        b.from.model, b.from.port, b.to.model, b.to.port
                    );
                    if let Some(info) = netlist.module(&b.to.model) {
                        if let Some(op) = info.out_ports.first() {
                            cur = (b.to.model.clone(), op.clone());
                            advanced = true;
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        if !advanced {
            break;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use tdf_interp::{Interface, TdfModelDef};
    use tdf_sim::{DefSite, ModuleInfo, NetBinding, Netlist, PortRef};

    fn design() -> Design {
        let src = "\
void A::processing()
{
    double o = 0;
    if (ip_c) { o = 1; }
    op_y = o;
}
void B::processing()
{
    double v = ip_x;
    op_z = v;
}";
        let tu = minic::parse(src).unwrap();
        let models = vec![
            TdfModelDef::new("A", Interface::new().input("ip_c").output("op_y")),
            TdfModelDef::new("B", Interface::new().input("ip_x").output("op_z")),
        ];
        let bind = |fm: &str, fp: &str, tm: &str, tp: &str| NetBinding {
            from: PortRef::new(fm, fp),
            to: PortRef::new(tm, tp),
        };
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![
                bind("A", "op_y", "g1", "tdf_i"),
                bind("g1", "tdf_o", "B", "ip_x"),
            ],
            modules: vec![
                ModuleInfo {
                    name: "A".into(),
                    class: tdf_sim::ModuleClass::UserCode,
                    in_ports: vec!["ip_c".into()],
                    out_ports: vec!["op_y".into()],
                },
                ModuleInfo {
                    name: "B".into(),
                    class: tdf_sim::ModuleClass::UserCode,
                    in_ports: vec!["ip_x".into()],
                    out_ports: vec!["op_z".into()],
                },
                ModuleInfo {
                    name: "g1".into(),
                    class: tdf_sim::ModuleClass::Redefining(DefSite::new("top", 77)),
                    in_ports: vec!["tdf_i".into()],
                    out_ports: vec!["tdf_o".into()],
                },
            ],
        };
        Design::new(tu, models, netlist).unwrap()
    }

    #[test]
    fn intra_explanation_shows_both_paths() {
        let d = design();
        let text =
            explain_association(&d, &Association::new("o", 3, "A", 5, "A")).expect("explains");
        assert!(text.contains("2 static path(s)"), "{text}");
        assert!(text.contains("NOT a du-path"), "{text}");
        assert!(text.contains("du-path"), "{text}");
        assert!(text.contains("redefines o"), "{text}");
    }

    #[test]
    fn cluster_explanation_names_the_redefining_element() {
        let d = design();
        let text = explain_association(&d, &Association::new("op_y", 77, "top", 9, "B"))
            .expect("explains");
        assert!(text.contains("redefined by `g1`"), "{text}");
        assert!(text.contains("used at line 9"), "{text}");
    }

    #[test]
    fn unknown_association_yields_none() {
        let d = design();
        assert!(explain_association(&d, &Association::new("ghost", 1, "A", 2, "A")).is_none());
    }
}
