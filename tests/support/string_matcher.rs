//! The string-keyed reference matcher: the dynamic analysis written
//! directly over the [`Event`] log, re-deriving every table it needs from
//! the [`Design`] on each call. It is slow and simple on purpose — the
//! oracle the interned [`MatchAutomaton`](systemc_ams_dft::dft::MatchAutomaton)
//! is compared against.

use std::collections::{HashMap, HashSet};

use systemc_ams_dft::dft::{Association, Design, DynamicResult, DynamicWarning, MatchMode};
use systemc_ams_dft::flow::Cfg;
use systemc_ams_dft::interp::VarKind;
use systemc_ams_dft::sim::{Event, SimTime};

/// True when `model` exists somewhere in the design: a declared model
/// interface, a netlist module instance (library components included), or
/// the cluster architecture itself (provenance stamped by redefining
/// components and `parallel_print` carries the architecture name).
fn model_is_known(design: &Design, model: &str) -> bool {
    design.interface(model).is_some()
        || design.netlist().module(model).is_some()
        || model == design.netlist().cluster
}

/// Per-model vocabulary for lenient validation: interface names (ports and
/// members) plus every variable read or written anywhere in the model's
/// `processing()` source. Only models with a declared interface get an
/// entry — events of library/architecture models are not vocabulary-checked
/// because their "variables" are netlist port names, not source symbols.
fn known_variables(design: &Design) -> HashMap<String, HashSet<String>> {
    let mut vocab: HashMap<String, HashSet<String>> = HashMap::new();
    for def in design.models() {
        let mut names: HashSet<String> = HashSet::new();
        for p in &def.interface.inputs {
            names.insert(p.name.clone());
        }
        for p in &def.interface.outputs {
            names.insert(p.name.clone());
        }
        for (m, _) in &def.interface.members {
            names.insert(m.clone());
        }
        if let Some(f) = design.tu().processing(&def.model) {
            let cfg = Cfg::from_function(f);
            for node in cfg.nodes() {
                for d in &node.def_use.defs {
                    names.insert(d.name.clone());
                }
                for u in &node.def_use.uses {
                    names.insert(u.name.clone());
                }
            }
        }
        vocab.insert(def.model.clone(), names);
    }
    vocab
}

/// Matches an event log into exercised associations in `mode`.
///
/// * a **use with feeding provenance** exercises the cluster association
///   `(prov.var, prov.line, prov.model, line, model)`;
/// * a **use of an externally-driven input port** (no provenance but
///   defined) exercises the pseudo-def association at the model start line;
/// * a **local/member use** pairs with the most recent definition of that
///   variable in the same model (members are seeded with a start-line
///   pseudo-definition because elaboration initialises them).
///
/// In [`MatchMode::Lenient`] each event is validated before matching:
/// unknown models, unknown variables and per-model backwards timestamps are
/// quarantined (skipped, warned once, counted). A quarantined *definition*
/// additionally poisons the pending `last_def` entry for its `(model, var)`
/// so that later uses report [`DynamicWarning::UseWithoutDef`] instead of
/// silently pairing with a stale older definition.
pub fn analyse_events_with_mode(
    design: &Design,
    events: &[Event],
    mode: MatchMode,
) -> DynamicResult {
    // Lenient-mode validation vocabulary, in owned string form.
    let vocab_src = match mode {
        MatchMode::Strict => HashMap::new(),
        MatchMode::Lenient => known_variables(design),
    };

    // Per-call borrowing interner: the maps below are keyed on these
    // compact ids; strings are materialised on the first occurrence of a
    // site (a warning, an exercised pair, an executed def).
    fn sym<'a>(ids: &mut HashMap<&'a str, u32>, s: &'a str) -> u32 {
        match ids.get(s) {
            Some(&id) => id,
            None => {
                let id = ids.len() as u32;
                ids.insert(s, id);
                id
            }
        }
    }
    let mut ids: HashMap<&str, u32> = HashMap::new();

    let mut exercised: HashSet<Association> = HashSet::new();
    let mut seen_pair: HashSet<(u32, u32, u32, u32, u32)> = HashSet::new();
    let mut defs_executed: HashSet<(String, String, u32)> = HashSet::new();
    let mut seen_def: HashSet<(u32, u32, u32)> = HashSet::new();
    let mut warnings: Vec<DynamicWarning> = Vec::new();
    let mut warned: HashSet<(u32, u32, u32)> = HashSet::new();
    // Last definition line per (model, var).
    let mut last_def: HashMap<(u32, u32), u32> = HashMap::new();

    // Lenient-mode validation state.
    let mut vocab: HashMap<u32, HashSet<u32>> = HashMap::new();
    for (model, names) in &vocab_src {
        let m = sym(&mut ids, model);
        let names: HashSet<u32> = names.iter().map(|n| sym(&mut ids, n)).collect();
        vocab.insert(m, names);
    }
    let mut last_time: HashMap<u32, SimTime> = HashMap::new();
    let mut quarantined: u64 = 0;
    let mut warned_models: HashSet<u32> = HashSet::new();
    let mut warned_times: HashSet<u32> = HashSet::new();
    let mut warned_vars: HashSet<(u32, u32)> = HashSet::new();
    // Design lookups scan the model list linearly; memoise per site.
    let mut known_memo: HashMap<u32, bool> = HashMap::new();
    let mut inport_memo: HashMap<(u32, u32), bool> = HashMap::new();
    let mut start_memo: HashMap<u32, u32> = HashMap::new();

    // Seed members with their elaboration-time initial values.
    for def in design.models() {
        let m = sym(&mut ids, &def.model);
        for (member, _) in &def.interface.members {
            let v = sym(&mut ids, member);
            last_def.insert((m, v), design.start_line(&def.model));
        }
    }

    for ev in events {
        let (time, model, var, line) = match ev {
            Event::Def {
                time,
                model,
                var,
                line,
            }
            | Event::Use {
                time,
                model,
                var,
                line,
                ..
            } => (*time, model.as_str(), var.as_str(), *line),
        };
        let msym = sym(&mut ids, model);
        let vsym = sym(&mut ids, var);
        if mode == MatchMode::Lenient {
            let known = *known_memo
                .entry(msym)
                .or_insert_with(|| model_is_known(design, model));
            // `Some(w)` quarantines the event; the inner option is the
            // warning to record (None once a site has already warned).
            let quarantine_reason: Option<Option<DynamicWarning>> =
                if !known {
                    Some(
                        warned_models
                            .insert(msym)
                            .then(|| DynamicWarning::UnknownModel {
                                model: model.to_string(),
                                time,
                            }),
                    )
                } else if let Some(&last) = last_time.get(&msym).filter(|&&last| time < last) {
                    Some(
                        warned_times
                            .insert(msym)
                            .then(|| DynamicWarning::NonMonotoneTimestamp {
                                model: model.to_string(),
                                time,
                                last,
                            }),
                    )
                } else if vocab.get(&msym).is_some_and(|names| !names.contains(&vsym)) {
                    Some(warned_vars.insert((msym, vsym)).then(|| {
                        DynamicWarning::UnknownVariable {
                            model: model.to_string(),
                            var: var.to_string(),
                            time,
                        }
                    }))
                } else if let Event::Use {
                    feeding: Some(prov),
                    ..
                } = ev
                {
                    // Provenance must also name a real model, else the pair
                    // it would exercise is fabricated.
                    let psym = sym(&mut ids, &prov.model);
                    let pknown = *known_memo
                        .entry(psym)
                        .or_insert_with(|| model_is_known(design, &prov.model));
                    (!pknown).then(|| {
                        warned_models
                            .insert(psym)
                            .then(|| DynamicWarning::UnknownModel {
                                model: prov.model.clone(),
                                time,
                            })
                    })
                } else {
                    None
                };
            if let Some(warning) = quarantine_reason {
                quarantined += 1;
                if let Some(w) = warning {
                    warnings.push(w);
                }
                // Poison the pending definition: a quarantined def must not
                // let later uses pair with an older, stale definition.
                if matches!(ev, Event::Def { .. }) {
                    last_def.remove(&(msym, vsym));
                }
                continue;
            }
            last_time.insert(msym, time);
        }
        match ev {
            Event::Def { .. } => {
                last_def.insert((msym, vsym), line);
                if seen_def.insert((msym, vsym, line)) {
                    defs_executed.insert((model.to_string(), var.to_string(), line));
                }
            }
            Event::Use {
                feeding, defined, ..
            } => {
                if let Some(prov) = feeding {
                    let pm = sym(&mut ids, &prov.model);
                    let pv = sym(&mut ids, &prov.var);
                    if seen_def.insert((pm, pv, prov.line)) {
                        defs_executed.insert((prov.model.clone(), prov.var.clone(), prov.line));
                    }
                    if seen_pair.insert((pv, prov.line, pm, line, msym)) {
                        exercised.insert(Association::new(
                            prov.var.clone(),
                            prov.line,
                            prov.model.clone(),
                            line,
                            model.to_string(),
                        ));
                    }
                    continue;
                }
                let inport = *inport_memo
                    .entry((msym, vsym))
                    .or_insert_with(|| matches!(design.kind_of(model, var), VarKind::InPort(_)));
                if inport {
                    if *defined {
                        let dline = *start_memo
                            .entry(msym)
                            .or_insert_with(|| design.start_line(model));
                        if seen_pair.insert((vsym, dline, msym, line, msym)) {
                            exercised.insert(Association::new(
                                var.to_string(),
                                dline,
                                model.to_string(),
                                line,
                                model.to_string(),
                            ));
                        }
                    } else if warned.insert((msym, vsym, line)) {
                        warnings.push(DynamicWarning::UndefinedSampleRead {
                            model: model.to_string(),
                            var: var.to_string(),
                            line,
                            time,
                        });
                    }
                } else {
                    match last_def.get(&(msym, vsym)) {
                        Some(&dline) => {
                            if seen_pair.insert((vsym, dline, msym, line, msym)) {
                                exercised.insert(Association::new(
                                    var.to_string(),
                                    dline,
                                    model.to_string(),
                                    line,
                                    model.to_string(),
                                ));
                            }
                        }
                        None => {
                            if warned.insert((msym, vsym, line)) {
                                warnings.push(DynamicWarning::UseWithoutDef {
                                    model: model.to_string(),
                                    var: var.to_string(),
                                    line,
                                    time,
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    DynamicResult {
        exercised,
        defs_executed,
        warnings,
        quarantined,
    }
}
