//! The design under verification: parsed sources + model interfaces +
//! cluster binding information, bundled for analysis.

use std::sync::Arc;

use minic::{Function, TranslationUnit};
use tdf_interp::{Interface, TdfModelDef, VarKind};
use tdf_sim::{Interner, ModuleClass, Netlist, TdfError};

use crate::error::{DftError, Result};
use crate::fx::{FxHashMap, FxHashSet};

/// Everything the static analysis needs about a DUV:
///
/// * the parsed minic sources (`tu`) — one `processing()` per user model;
/// * the declared interfaces of those models;
/// * the cluster netlist (bindings + module classes) extracted at
///   elaboration.
///
/// A design names each model once, as the paper's association tuples
/// `(v, d, dm, u, um)` require: [`Design::new`] rejects a repeated netlist
/// module, model definition or function, and resolves every model name
/// into one index that each later lookup reads.
#[derive(Debug, Clone)]
pub struct Design {
    tu: TranslationUnit,
    models: Vec<TdfModelDef>,
    netlist: Netlist,
    /// Per model name: its definition and functions.
    index: FxHashMap<String, ModelEntry>,
    /// Design-wide name interner, seeded at construction with every name
    /// the design declares (cluster, modules, ports, members). Shared —
    /// clones of the design keep interning into the same table, so
    /// [`Sym`](tdf_sim::Sym) ids agree across every cluster/session built
    /// from this design.
    interner: Arc<Interner>,
}

/// What a design holds for one model name.
#[derive(Debug, Clone, Default)]
struct ModelEntry {
    /// Position of its [`TdfModelDef`] in `models`.
    def: Option<usize>,
    /// Positions of its functions in `tu.functions`, in source order.
    functions: Vec<usize>,
}

impl Design {
    /// Bundles and validates a design.
    ///
    /// # Errors
    ///
    /// * [`DftError::Sim`] with [`TdfError::DuplicateModule`] — the
    ///   netlist lists one module name twice, which a
    ///   [`Cluster`](tdf_sim::Cluster) refuses too.
    /// * [`DftError::DuplicateDefinition`] — two entries of `models` name
    ///   one model, or `tu` implements one `model::function` twice.
    /// * [`DftError::MissingSource`] — a netlist module classed
    ///   [`ModuleClass::UserCode`] has no `processing()` in `tu` or no
    ///   interface in `models`.
    pub fn new(tu: TranslationUnit, models: Vec<TdfModelDef>, netlist: Netlist) -> Result<Design> {
        let mut index: FxHashMap<String, ModelEntry> = FxHashMap::default();
        for (i, def) in models.iter().enumerate() {
            let entry = index.entry(def.model.clone()).or_default();
            if entry.def.replace(i).is_some() {
                return Err(DftError::DuplicateDefinition {
                    model: def.model.clone(),
                    function: None,
                });
            }
        }
        for (i, f) in tu.functions.iter().enumerate() {
            let entry = index.entry(f.model.clone()).or_default();
            if entry
                .functions
                .iter()
                .any(|&j| tu.functions[j].name == f.name)
            {
                return Err(DftError::DuplicateDefinition {
                    model: f.model.clone(),
                    function: Some(f.name.clone()),
                });
            }
            entry.functions.push(i);
        }
        let mut modules: FxHashSet<&str> = FxHashSet::default();
        for m in &netlist.modules {
            if !modules.insert(&m.name) {
                return Err(TdfError::DuplicateModule {
                    name: m.name.clone(),
                }
                .into());
            }
            if m.class == ModuleClass::UserCode {
                let complete = index.get(&m.name).is_some_and(|e| {
                    e.def.is_some()
                        && e.functions
                            .iter()
                            .any(|&i| tu.functions[i].name == "processing")
                });
                if !complete {
                    return Err(DftError::MissingSource {
                        model: m.name.clone(),
                    });
                }
            }
        }
        let interner = Arc::new(Interner::new());
        interner.intern(&netlist.cluster);
        for m in &netlist.modules {
            interner.intern(&m.name);
            for p in m.in_ports.iter().chain(&m.out_ports) {
                interner.intern(p);
            }
        }
        for def in &models {
            interner.intern(&def.model);
            for p in def.interface.inputs.iter().chain(&def.interface.outputs) {
                interner.intern(&p.name);
            }
            for (member, _) in &def.interface.members {
                interner.intern(member);
            }
        }
        Ok(Design {
            tu,
            models,
            netlist,
            index,
            interner,
        })
    }

    /// The design-wide name interner (see the field docs): every cluster
    /// simulated under this design should carry it
    /// ([`Cluster::set_interner`](tdf_sim::Cluster::set_interner)) so
    /// compact event ids agree with the analysis tables.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// The parsed sources.
    pub fn tu(&self) -> &TranslationUnit {
        &self.tu
    }

    /// The model definitions.
    pub fn models(&self) -> &[TdfModelDef] {
        &self.models
    }

    /// The cluster netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The interface of `model`, if declared.
    pub fn interface(&self, model: &str) -> Option<&Interface> {
        let def = self.index.get(model)?.def?;
        Some(&self.models[def].interface)
    }

    /// `model`'s functions, in source order.
    pub(crate) fn functions(&self, model: &str) -> impl Iterator<Item = &Function> {
        self.index
            .get(model)
            .into_iter()
            .flat_map(|e| &e.functions)
            .map(|&i| &self.tu.functions[i])
    }

    /// `model::processing()`, if the source implements it.
    pub(crate) fn processing(&self, model: &str) -> Option<&Function> {
        self.functions(model).find(|f| f.name == "processing")
    }

    /// `model::initialize()`, if the source implements it.
    pub(crate) fn initialize(&self, model: &str) -> Option<&Function> {
        self.functions(model).find(|f| f.name == "initialize")
    }

    /// Names of all user-code models present in both netlist and sources.
    pub fn user_models(&self) -> Vec<&str> {
        self.netlist
            .modules
            .iter()
            .filter(|m| m.class == ModuleClass::UserCode)
            .map(|m| m.name.as_str())
            .collect()
    }

    /// How `name` resolves inside `model` (ports/members from the
    /// interface; anything else is treated as a local).
    pub fn kind_of(&self, model: &str, name: &str) -> VarKind {
        self.interface(model)
            .and_then(|i| i.kind_of(name))
            .unwrap_or(VarKind::Local)
    }

    /// The source line on which `model::processing()` is declared — the
    /// pseudo-definition site assigned to externally-driven input ports
    /// ("the input ports are assigned the start location of their TDF
    /// model", §V).
    pub fn start_line(&self, model: &str) -> u32 {
        self.processing(model).map_or(0, |f| f.span.line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_sim::{ModuleInfo, NetBinding, PortRef};

    fn netlist_with(modules: Vec<ModuleInfo>) -> Netlist {
        Netlist {
            cluster: "top".into(),
            bindings: vec![NetBinding {
                from: PortRef::new("A", "op_y"),
                to: PortRef::new("B", "ip_x"),
            }],
            modules,
        }
    }

    fn user(name: &str, ins: &[&str], outs: &[&str]) -> ModuleInfo {
        ModuleInfo {
            name: name.into(),
            class: ModuleClass::UserCode,
            in_ports: ins.iter().map(|s| s.to_string()).collect(),
            out_ports: outs.iter().map(|s| s.to_string()).collect(),
        }
    }

    const SRC: &str = "void A::processing() { op_y = 1; }\n\
                       void B::processing() { double v = ip_x; }";

    fn defs() -> Vec<TdfModelDef> {
        vec![
            TdfModelDef::new("A", Interface::new().output("op_y")),
            TdfModelDef::new("B", Interface::new().input("ip_x")),
        ]
    }

    #[test]
    fn builds_and_queries() {
        let tu = minic::parse(SRC).unwrap();
        let nl = netlist_with(vec![user("A", &[], &["op_y"]), user("B", &["ip_x"], &[])]);
        let d = Design::new(tu, defs(), nl).unwrap();
        assert_eq!(d.user_models(), vec!["A", "B"]);
        assert_eq!(d.kind_of("A", "op_y"), VarKind::OutPort(0));
        assert_eq!(d.kind_of("B", "ip_x"), VarKind::InPort(0));
        assert_eq!(d.kind_of("B", "v"), VarKind::Local);
        assert_eq!(d.start_line("A"), 1);
        assert_eq!(d.start_line("B"), 2);
        assert!(d.interface("A").is_some());
        assert!(d.interface("Z").is_none());
        assert_eq!(d.processing("B").map(|f| f.span.line()), Some(2));
        assert!(d.initialize("A").is_none());
        assert_eq!(d.functions("A").count(), 1);
        assert_eq!(d.functions("Z").count(), 0);
    }

    #[test]
    fn missing_source_rejected() {
        let tu = minic::parse("void A::processing() { op_y = 1; }").unwrap();
        let nl = netlist_with(vec![user("A", &[], &["op_y"]), user("B", &["ip_x"], &[])]);
        let err = Design::new(tu, defs(), nl).unwrap_err();
        assert!(matches!(err, DftError::MissingSource { model } if model == "B"));
    }

    #[test]
    fn missing_interface_rejected() {
        let tu = minic::parse(SRC).unwrap();
        let nl = netlist_with(vec![user("A", &[], &["op_y"]), user("B", &["ip_x"], &[])]);
        let only_a = vec![TdfModelDef::new("A", Interface::new().output("op_y"))];
        let err = Design::new(tu, only_a, nl).unwrap_err();
        assert!(matches!(err, DftError::MissingSource { model } if model == "B"));
    }

    #[test]
    fn module_listed_twice_rejected() {
        // A cluster refuses a second module of one name; so does a design.
        let tu = minic::parse(SRC).unwrap();
        let a = user("A", &[], &["op_y"]);
        let nl = netlist_with(vec![a.clone(), user("B", &["ip_x"], &[]), a]);
        let err = Design::new(tu, defs(), nl).unwrap_err();
        assert!(
            matches!(&err, DftError::Sim(TdfError::DuplicateModule { name }) if name == "A"),
            "{err}"
        );
    }

    #[test]
    fn model_defined_twice_rejected() {
        let tu = minic::parse(SRC).unwrap();
        let nl = netlist_with(vec![user("A", &[], &["op_y"]), user("B", &["ip_x"], &[])]);
        let mut models = defs();
        models.push(TdfModelDef::new("B", Interface::new().input("ip_other")));
        let err = Design::new(tu, models, nl).unwrap_err();
        assert!(
            matches!(&err, DftError::DuplicateDefinition { model, function: None } if model == "B"),
            "{err}"
        );
        assert_eq!(err.to_string(), "model `B` is defined twice");
    }

    #[test]
    fn function_defined_twice_rejected() {
        let src = format!("{SRC}\nvoid A::processing() {{ op_y = 2; }}");
        let tu = minic::parse(&src).unwrap();
        let nl = netlist_with(vec![user("A", &[], &["op_y"]), user("B", &["ip_x"], &[])]);
        let err = Design::new(tu, defs(), nl).unwrap_err();
        assert!(
            matches!(&err, DftError::DuplicateDefinition { model, function: Some(f) }
                if model == "A" && f == "processing"),
            "{err}"
        );
        assert_eq!(
            err.to_string(),
            "function `A::processing()` is defined twice"
        );
    }

    #[test]
    fn library_modules_need_no_source() {
        let tu = minic::parse("void A::processing() { op_y = 1; }").unwrap();
        let mut lib = user("G", &["tdf_i"], &["tdf_o"]);
        lib.class = ModuleClass::Redefining(tdf_sim::DefSite::new("top", 7));
        let nl = netlist_with(vec![user("A", &[], &["op_y"]), lib]);
        let d = Design::new(
            tu,
            vec![TdfModelDef::new("A", Interface::new().output("op_y"))],
            nl,
        );
        assert!(d.is_ok());
    }
}
