//! du-path reasoning: deciding whether *all* static paths between a
//! definition and a use are du-paths (no intervening redefinition), whether
//! *some* non-du-path exists, and bounded explicit path enumeration.
//!
//! These two facts drive the paper's intra-model classification:
//!
//! * **Strong (local)** — every static path def→use is a du-path.
//! * **Firm** — a du-path exists (the pair is real) but at least one static
//!   path def→use passes another definition of the variable.

use crate::cfg::{Cfg, NodeId};
use crate::reaching::{DuPair, ReachingDefs};

/// Path-shape facts about one def-use pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathFacts {
    /// At least one du-path exists (always true for pairs produced by
    /// reaching definitions).
    pub has_du_path: bool,
    /// At least one static path from def to use passes an intervening
    /// redefinition of the variable.
    pub has_non_du_path: bool,
}

impl PathFacts {
    /// Whether every static path between def and use is a du-path.
    pub fn all_paths_du(&self) -> bool {
        self.has_du_path && !self.has_non_du_path
    }
}

/// Computes [`PathFacts`] for `pair` without enumerating paths.
///
/// A non-du-path exists iff some *other* definition `k` of the same variable
/// lies strictly between the def and the use: `def →⁺ k` and `k →⁺ use`
/// (both with at least one edge, so a definition at the use node itself only
/// intervenes when the node sits on a cycle).
pub fn path_facts(cfg: &Cfg, rd: &ReachingDefs, pair: &DuPair) -> PathFacts {
    let def_site = rd.def(pair.def);
    let from_def = cfg.reaches(def_site.node);
    let mut has_non_du = false;
    for other in rd.defs_of(&pair.var) {
        if other.id == pair.def {
            continue;
        }
        if !from_def.contains(other.node) {
            continue;
        }
        if cfg.reaches(other.node).contains(pair.use_node) {
            has_non_du = true;
            break;
        }
    }
    PathFacts {
        has_du_path: true,
        has_non_du_path: has_non_du,
    }
}

/// One explicit static path between a definition and a use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticPath {
    /// Node sequence from the def node to the use node, inclusive.
    pub nodes: Vec<NodeId>,
    /// Whether the path is a du-path (no intervening redefinition).
    pub is_du_path: bool,
}

/// Enumerates up to `limit` acyclic static paths from the def of `pair` to
/// its use, marking each as du-path or not. Interior nodes are visited at
/// most once per path (the acyclic skeleton of the CFG), which matches the
/// usual finite-path interpretation of data-flow testing over loops.
///
/// Returns fewer than `limit` paths when the graph has fewer; an empty
/// result means def and use are disconnected (cannot happen for pairs from
/// [`ReachingDefs`]).
pub fn enumerate_du_paths(
    cfg: &Cfg,
    rd: &ReachingDefs,
    pair: &DuPair,
    limit: usize,
) -> Vec<StaticPath> {
    let def_site = rd.def(pair.def);
    let redefs: Vec<NodeId> = rd
        .defs_of(&pair.var)
        .iter()
        .filter(|d| d.id != pair.def)
        .map(|d| d.node)
        .collect();

    let mut out = Vec::new();
    let mut path = vec![def_site.node];
    let mut on_path = vec![false; cfg.len()];
    on_path[def_site.node] = true;
    dfs(
        cfg,
        def_site.node,
        pair.use_node,
        &redefs,
        limit,
        &mut path,
        &mut on_path,
        &mut out,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    cfg: &Cfg,
    current: NodeId,
    target: NodeId,
    redefs: &[NodeId],
    limit: usize,
    path: &mut Vec<NodeId>,
    on_path: &mut [bool],
    out: &mut Vec<StaticPath>,
) {
    if out.len() >= limit {
        return;
    }
    for &s in cfg.succs(current) {
        if out.len() >= limit {
            return;
        }
        // The target check must come before the `on_path` check: when the
        // pair's def and use share a node on a cycle, the target is on the
        // path from the start, and checking `on_path` first would silently
        // drop every such loop-carried pair.
        if s == target {
            let mut nodes = path.clone();
            nodes.push(s);
            // Interior nodes are those strictly between def and use.
            let is_du = nodes[1..nodes.len() - 1]
                .iter()
                .all(|n| !redefs.contains(n));
            out.push(StaticPath {
                nodes,
                is_du_path: is_du,
            });
            continue;
        }
        if on_path[s] {
            continue;
        }
        // Prune subtrees that cannot reach the use at all (the cached
        // closure makes this a bit test); they contribute no paths, so the
        // enumeration order of the paths that *are* found is unchanged.
        if !cfg.reaches(s).contains(target) {
            continue;
        }
        on_path[s] = true;
        path.push(s);
        dfs(cfg, s, target, redefs, limit, path, on_path, out);
        path.pop();
        on_path[s] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::reaching::ReachingDefs;
    use minic::parse;

    fn analyse(body: &str) -> (Cfg, ReachingDefs) {
        let src = format!("void M::processing() {{ {body} }}");
        let tu = parse(&src).unwrap();
        let cfg = Cfg::from_function(&tu.functions[0]);
        let rd = ReachingDefs::compute(&cfg);
        (cfg, rd)
    }

    /// The reference for [`path_facts`]: the same question answered with a
    /// fresh BFS per query instead of the cached transitive closure.
    fn path_facts_uncached(cfg: &Cfg, rd: &ReachingDefs, pair: &DuPair) -> PathFacts {
        let from_def = cfg.reachable_from(rd.def(pair.def).node, 1);
        let has_non_du_path = rd.defs_of(&pair.var).iter().any(|other| {
            other.id != pair.def
                && from_def.contains(other.node)
                && cfg.reachable_from(other.node, 1).contains(pair.use_node)
        });
        PathFacts {
            has_du_path: true,
            has_non_du_path,
        }
    }

    fn pair_of<'a>(rd: &'a ReachingDefs, var: &str, def_idx: usize) -> &'a DuPair {
        let def_id = rd.defs_of(var)[def_idx].id;
        rd.pairs()
            .iter()
            .find(|p| p.var == var && p.def == def_id)
            .expect("pair exists")
    }

    #[test]
    fn straight_line_is_all_du() {
        let (cfg, rd) = analyse("t = a; b = t;");
        let p = pair_of(&rd, "t", 0);
        let facts = path_facts(&cfg, &rd, p);
        assert!(facts.all_paths_du());
    }

    #[test]
    fn conditional_redefinition_creates_non_du_path() {
        // out_tmpr = 0; if (c) out_tmpr = tmpr; use(out_tmpr)
        // The pair (out_tmpr@1 -> use) has a du-path (else branch) and a
        // non-du-path (through the redefinition) — the paper's Firm shape.
        let (cfg, rd) = analyse("o = 0; if (c) { o = t; } u = o;");
        let p = pair_of(&rd, "o", 0);
        let facts = path_facts(&cfg, &rd, p);
        assert!(facts.has_du_path);
        assert!(facts.has_non_du_path);
        assert!(!facts.all_paths_du());
        // The redefinition's own pair is all-du.
        let p2 = pair_of(&rd, "o", 1);
        assert!(path_facts(&cfg, &rd, p2).all_paths_du());
    }

    #[test]
    fn redefinition_on_other_branch_does_not_intervene() {
        // Defs in the two if arms never lie on the same path.
        let (cfg, rd) = analyse("if (c) { x = 1; } else { x = 2; } y = x;");
        for i in 0..2 {
            let p = pair_of(&rd, "x", i);
            assert!(
                path_facts(&cfg, &rd, p).all_paths_du(),
                "branch defs are mutually exclusive"
            );
        }
    }

    #[test]
    fn loop_redefinition_intervenes_via_cycle() {
        // s = 0; while (c) { s = s + 1; } t = s;
        // Path s=0 -> while -> t is du; path s=0 -> while -> s=s+1 -> while -> t
        // passes the redefinition: non-du-path exists.
        let (cfg, rd) = analyse("s = 0; while (c) { s = s + 1; } t = s;");
        let defs = rd.defs_of("s");
        let init = defs[0].id;
        let p = rd
            .pairs()
            .iter()
            .find(|p| {
                p.def == init && p.var == "s" && {
                    // the use at t = s (not the use inside the loop)
                    cfg.node(p.use_node).label.starts_with("t")
                }
            })
            .unwrap();
        let facts = path_facts(&cfg, &rd, p);
        assert!(facts.has_non_du_path);
    }

    #[test]
    fn self_pair_in_loop() {
        // The loop-carried pair s=s+1 -> s=s+1 (around the back edge).
        let (cfg, rd) = analyse("s = 0; while (c) { s = s + 1; } t = s;");
        let loop_def = rd.defs_of("s")[1].id;
        let self_pair = rd
            .pairs()
            .iter()
            .find(|p| p.def == loop_def && p.use_node == rd.def(loop_def).node)
            .expect("loop-carried pair exists");
        let facts = path_facts(&cfg, &rd, self_pair);
        assert!(facts.has_du_path);
    }

    #[test]
    fn enumerate_paths_finds_both_branches() {
        let (cfg, rd) = analyse("o = 0; if (c) { o = t; } u = o;");
        let p = pair_of(&rd, "o", 0);
        let paths = enumerate_du_paths(&cfg, &rd, p, 16);
        assert_eq!(paths.len(), 2);
        let du: Vec<bool> = paths.iter().map(|p| p.is_du_path).collect();
        assert!(du.contains(&true) && du.contains(&false));
        for sp in &paths {
            assert_eq!(sp.nodes.first().copied(), Some(rd.def(p.def).node));
            assert_eq!(sp.nodes.last().copied(), Some(p.use_node));
        }
    }

    #[test]
    fn enumeration_respects_limit() {
        // A diamond ladder explodes combinatorially; the limit caps it.
        let body = "x = 0;\
            if (a) { t = 1; } \
            if (b) { t = 2; } \
            if (c) { t = 3; } \
            if (d) { t = 4; } \
            y = x;";
        let (cfg, rd) = analyse(body);
        let p = pair_of(&rd, "x", 0);
        let paths = enumerate_du_paths(&cfg, &rd, p, 5);
        assert_eq!(paths.len(), 5);
    }

    #[test]
    fn self_pair_on_cycle_is_enumerated() {
        // Regression: the loop-carried pair s=s+1 -> s=s+1 starts its DFS
        // with the def/use node already on the path; enumeration must still
        // emit the cycle path (def -> cond -> def) rather than dropping it.
        let (cfg, rd) = analyse("s = 0; while (c) { s = s + 1; } t = s;");
        let loop_def = rd.defs_of("s")[1].id;
        let self_pair = rd
            .pairs()
            .iter()
            .find(|p| p.def == loop_def && p.use_node == rd.def(loop_def).node)
            .expect("loop-carried pair exists");
        let paths = enumerate_du_paths(&cfg, &rd, self_pair, 16);
        assert!(!paths.is_empty(), "cycle self-pair must be enumerated");
        for sp in &paths {
            assert_eq!(sp.nodes.first(), sp.nodes.last(), "path is a cycle");
            assert!(sp.nodes.len() >= 2, "at least one edge");
            assert!(sp.is_du_path, "no other def of s on the loop");
        }
        // And the closed-form facts agree with the enumeration.
        let facts = path_facts(&cfg, &rd, self_pair);
        assert!(facts.has_du_path);
        assert!(!facts.has_non_du_path);
    }

    #[test]
    fn self_pair_around_activation_loop_is_enumerated() {
        // The same shape on a looped CFG: a member-style def at the end of
        // the body feeding its own use in the next activation.
        let src = "void M::processing() { y = m; m = x; }";
        let tu = parse(src).unwrap();
        let cfg = Cfg::from_function(&tu.functions[0]).looped();
        let rd = ReachingDefs::compute(&cfg);
        let pair = rd
            .pairs()
            .iter()
            .find(|p| p.var == "m")
            .expect("wrapped flow of m exists on the looped graph");
        let paths = enumerate_du_paths(&cfg, &rd, pair, 16);
        assert!(!paths.is_empty());
        let facts = path_facts(&cfg, &rd, pair);
        assert_eq!(facts.has_non_du_path, paths.iter().any(|p| !p.is_du_path));
    }

    #[test]
    fn cached_and_uncached_facts_agree() {
        let bodies = [
            "x = 1; y = x;",
            "x = 1; if (c) { x = 2; } y = x;",
            "s = 0; while (c) { s = s + 1; } t = s;",
            "for (int i = 0; i < 3; i++) { s = s + i; } t = s;",
            "x = 1; while (a) { if (b) { x = 2; } y = x; } z = x;",
        ];
        for body in bodies {
            let (plain, _) = analyse(body);
            let looped = plain.looped();
            for cfg in [&plain, &looped] {
                let rd = ReachingDefs::compute(cfg);
                for pair in rd.pairs() {
                    assert_eq!(
                        path_facts(cfg, &rd, pair),
                        path_facts_uncached(cfg, &rd, pair),
                        "{body}"
                    );
                }
            }
        }
    }

    #[test]
    fn facts_agree_with_enumeration_on_small_graphs() {
        let bodies = [
            "x = 1; y = x;",
            "x = 1; if (c) { x = 2; } y = x;",
            "x = 1; if (c) { x = 2; } else { x = 3; } y = x;",
            "x = 1; while (c) { x = x + 1; } y = x;",
        ];
        for body in bodies {
            let (cfg, rd) = analyse(body);
            for pair in rd.pairs().iter().filter(|p| p.var == "x") {
                let facts = path_facts(&cfg, &rd, pair);
                let paths = enumerate_du_paths(&cfg, &rd, pair, 1000);
                let enum_has_non_du = paths.iter().any(|p| !p.is_du_path);
                // `facts` may see non-du-paths that acyclic enumeration
                // misses (cycles), but never the other way around.
                if enum_has_non_du {
                    assert!(facts.has_non_du_path, "{body}");
                }
                assert!(paths.iter().any(|p| p.is_du_path), "{body}");
            }
        }
    }
}
