//! Subsumption analysis over intra-model def-use pairs (Chaim et al.,
//! *A Data Flow Analysis Framework for Data Flow Subsumption*).
//!
//! Pair A **subsumes** pair B when every du-path exercising A also
//! exercises B: any execution that covers A is guaranteed to have covered
//! B, so B carries no extra information as a test requirement: the
//! *unsubsumed frontier* is the set of requirements worth aiming at.
//!
//! The check enumerates A's acyclic du-paths ([`enumerate_du_paths`],
//! which prunes dead subtrees through the [`Cfg::reaches`] closure cache)
//! and requires B to be exercised on every one of them — B's def node
//! strictly before B's use node, with no other definition of B's variable
//! in between — replaying the runtime matcher's last-definition pairing
//! on the static path. Soundness boundary, stated precisely:
//!
//! * On an acyclic per-activation CFG the enumeration is complete for
//!   *same-activation* windows, so the relation is exact for those.
//! * A def-use window can also span activations (the matcher pairs a use
//!   with the last def anywhere earlier in the event stream). A pair
//!   whose window can wrap the activation loop — its def reaches the
//!   activation exit *and* its use is upward-exposed from the entry — is
//!   therefore never allowed to subsume others ([`can_wrap_activation`]).
//! * Enumeration is budgeted: a pair whose path count hits `limit` might
//!   be truncated and conservatively subsumes nothing.
//!
//! Callers must still treat the relation as a *reduction heuristic*, not
//! a correctness oracle: fault-injected or truncated event logs can
//! exercise a subsuming pair while the log's record of the subsumed one
//! was dropped. Exact raw coverage therefore comes from observing every
//! association dynamically (the `dft-core` matcher does), never from
//! this relation.

use std::collections::HashMap;

use crate::bitset::BitSet;
use crate::cfg::Cfg;
use crate::dupath::enumerate_du_paths;
use crate::reaching::{DuPair, ReachingDefs};

/// Default per-pair budget for [`analyse_subsumption`]'s du-path
/// enumeration. A pair whose enumeration hits the budget may be
/// truncated, so it conservatively subsumes nothing.
pub const SUBSUMPTION_PATH_LIMIT: usize = 256;

/// The subsumption relation over one CFG's pair set, reduced to the
/// unsubsumed frontier. Indices are positions in the `pairs` slice handed
/// to [`analyse_subsumption`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsumptionGraph {
    /// `subsumes[i]` contains `j` iff every du-path exercising pair `i`
    /// also exercises pair `j`. Self-bits are set (trivially true).
    pub subsumes: Vec<BitSet>,
    /// Pairs kept for tracking: not strictly subsumed by any other pair,
    /// and the lowest-index representative of their mutual-subsumption
    /// class. Every index outside the frontier is subsumed by at least
    /// one frontier index (the relation is transitive).
    pub frontier: BitSet,
}

impl SubsumptionGraph {
    /// Indices outside the frontier (strictly subsumed, or non-canonical
    /// members of a mutual-subsumption class).
    pub fn dropped(&self) -> BitSet {
        let n = self.subsumes.len();
        let mut out = BitSet::new(n);
        for i in 0..n {
            if !self.frontier.contains(i) {
                out.insert(i);
            }
        }
        out
    }
}

/// Whether `pair`'s def-use window can wrap the activation loop: its def
/// reaches the CFG exit and its use is reachable backwards from the entry
/// without passing any definition of the variable. Such a pair has
/// runtime windows the per-activation path enumeration cannot see, so it
/// must not act as a subsumer.
pub fn can_wrap_activation(cfg: &Cfg, rd: &ReachingDefs, pair: &DuPair) -> bool {
    let escapes = rd
        .defs_reaching_exit(cfg, &pair.var)
        .iter()
        .any(|d| d.id == pair.def);
    if !escapes {
        return false;
    }
    // Backward search from the use, not expanding through any definition
    // of the variable: reaching the entry means some next-activation path
    // re-exposes the use to the previous activation's value.
    let def_nodes: Vec<_> = rd.defs_of(&pair.var).iter().map(|d| d.node).collect();
    let mut seen = vec![false; cfg.len()];
    let mut work: Vec<_> = cfg.preds(pair.use_node).to_vec();
    while let Some(n) = work.pop() {
        if seen[n] {
            continue;
        }
        seen[n] = true;
        if n == cfg.entry() {
            return true;
        }
        if def_nodes.contains(&n) {
            continue;
        }
        work.extend(cfg.preds(n).iter().copied());
    }
    false
}

/// Computes the subsumption relation over `pairs` (all from this `cfg` /
/// `rd`) and reduces it to the unsubsumed frontier. `limit` bounds the
/// du-path enumeration per pair (see [`SUBSUMPTION_PATH_LIMIT`]).
pub fn analyse_subsumption(
    cfg: &Cfg,
    rd: &ReachingDefs,
    pairs: &[DuPair],
    limit: usize,
) -> SubsumptionGraph {
    let n = pairs.len();

    // Per-node use index and per-pair def node, so each path is walked
    // once for all candidate subsumees together.
    let mut uses_at: Vec<Vec<usize>> = vec![Vec::new(); cfg.len()];
    for (j, p) in pairs.iter().enumerate() {
        uses_at[p.use_node].push(j);
    }
    let def_node_of: Vec<_> = pairs.iter().map(|p| rd.def(p.def).node).collect();

    let mut subsumes: Vec<BitSet> = Vec::with_capacity(n);
    for (i, pair) in pairs.iter().enumerate() {
        let only_self = |n: usize, i: usize| {
            let mut row = BitSet::new(n);
            row.insert(i);
            row
        };
        if can_wrap_activation(cfg, rd, pair) {
            // Windows invisible to the path enumeration: no claims.
            subsumes.push(only_self(n, i));
            continue;
        }
        let paths = enumerate_du_paths(cfg, rd, pair, limit);
        let du: Vec<_> = paths.iter().filter(|p| p.is_du_path).collect();
        if paths.len() >= limit || du.is_empty() {
            // Possibly truncated (or degenerate): claim nothing but self.
            subsumes.push(only_self(n, i));
            continue;
        }
        let mut acc = BitSet::new(n);
        for k in 0..n {
            acc.insert(k);
        }
        for path in du {
            acc.intersect_with(&exercised_on(
                cfg,
                pairs,
                &uses_at,
                &def_node_of,
                &path.nodes,
            ));
            if acc.len() <= 1 {
                break; // only the self-bit can survive
            }
        }
        acc.insert(i); // trivially on every own du-path
        subsumes.push(acc);
    }

    // Frontier: keep i unless some j strictly subsumes it, or it is a
    // non-canonical member of a mutual class (the lowest index is the
    // class representative). Transitivity guarantees every dropped index
    // stays subsumed by a surviving frontier index.
    let mut frontier = BitSet::new(n);
    for i in 0..n {
        let dropped = (0..n)
            .any(|j| j != i && subsumes[j].contains(i) && (!subsumes[i].contains(j) || j < i));
        if !dropped {
            frontier.insert(i);
        }
    }

    SubsumptionGraph { subsumes, frontier }
}

/// The set of pairs exercised on `path`, replaying the matcher's
/// last-definition pairing: walking the nodes in order, a pair fires at
/// its use node when the most recent definition of its variable on the
/// path is the pair's own def node (uses evaluate before the node's own
/// definitions, matching [`ReachingDefs::compute`]).
fn exercised_on(
    cfg: &Cfg,
    pairs: &[DuPair],
    uses_at: &[Vec<usize>],
    def_node_of: &[usize],
    path: &[usize],
) -> BitSet {
    let mut out = BitSet::new(pairs.len());
    let mut last_def: HashMap<&str, usize> = HashMap::new();
    for &node in path {
        for &j in &uses_at[node] {
            if last_def.get(pairs[j].var.as_str()) == Some(&def_node_of[j]) {
                out.insert(j);
            }
        }
        for d in &cfg.node(node).def_use.defs {
            last_def.insert(d.name.as_str(), node);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::parse;

    fn analyse(body: &str) -> (Cfg, ReachingDefs) {
        let src = format!("void M::processing() {{ {body} }}");
        let tu = parse(&src).unwrap();
        let cfg = Cfg::from_function(&tu.functions[0]);
        let rd = ReachingDefs::compute(&cfg);
        (cfg, rd)
    }

    fn graph(body: &str) -> (SubsumptionGraph, Vec<DuPair>) {
        let (cfg, rd) = analyse(body);
        let pairs: Vec<DuPair> = rd.pairs().to_vec();
        let g = analyse_subsumption(&cfg, &rd, &pairs, SUBSUMPTION_PATH_LIMIT);
        (g, pairs)
    }

    #[test]
    fn nested_window_is_subsumed() {
        // t = a; u = t; z = t; — the (t -> z) window runs through the
        // (t -> u) window, so exercising (t -> z) forces (t -> u).
        let (g, pairs) = graph("double t = a;\nu = t;\nz = t;");
        let tu = pairs.iter().position(|p| p.use_line == 2).unwrap();
        let tz = pairs.iter().position(|p| p.use_line == 3).unwrap();
        assert!(g.subsumes[tz].contains(tu), "z's window passes u's use");
        assert!(!g.subsumes[tu].contains(tz), "u's window ends before z");
        assert!(g.frontier.contains(tz));
        assert!(
            !g.frontier.contains(tu),
            "subsumed pair leaves the frontier"
        );
        assert!(g.dropped().contains(tu));
    }

    #[test]
    fn branch_pair_does_not_subsume_the_other_arm() {
        // Exercising (x=1 -> y=x) says nothing about (x=2 -> y=x).
        let (g, pairs) = graph("if (c) { x = 1; } else { x = 2; }\ny = x;");
        let xs: Vec<usize> = pairs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.var == "x")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(xs.len(), 2);
        assert!(!g.subsumes[xs[0]].contains(xs[1]));
        assert!(!g.subsumes[xs[1]].contains(xs[0]));
        assert!(g.frontier.contains(xs[0]) && g.frontier.contains(xs[1]));
    }

    #[test]
    fn windows_outside_the_segment_are_not_claimed() {
        // t = a; if (c) { y = t; } z = t; — (t -> y)'s du-path ends at y
        // (z is outside the segment) and (t -> z) has a du-path skipping
        // the then-branch, so neither subsumes the other.
        let (g, pairs) = graph("double t = a;\nif (c) { y = t; }\nz = t;");
        let ty = pairs.iter().position(|p| p.use_line == 2).unwrap();
        let tz = pairs.iter().position(|p| p.use_line == 3).unwrap();
        assert!(!g.subsumes[ty].contains(tz), "du-path to y stops before z");
        assert!(!g.subsumes[tz].contains(ty), "the else path skips y");
        assert_eq!(g.frontier.len(), pairs.len());
    }

    #[test]
    fn mandatory_use_inside_a_guarded_window_is_subsumed() {
        // t = a; y = t; if (c) { z = t; } — every du-path of (t -> z)
        // passes y's use with t's def live, so (t -> z) subsumes (t -> y).
        let (g, pairs) = graph("double t = a;\ny = t;\nif (c) { z = t; }");
        let ty = pairs.iter().position(|p| p.use_line == 2).unwrap();
        let tz = pairs.iter().position(|p| p.use_line == 3).unwrap();
        assert!(g.subsumes[tz].contains(ty));
        assert!(!g.subsumes[ty].contains(tz));
        assert!(g.frontier.contains(tz));
        assert!(!g.frontier.contains(ty));
    }

    #[test]
    fn intervening_redefinition_blocks_subsumption() {
        // t = a; u = t; t = b; z = t; — the two t-windows are disjoint
        // segments: neither contains the other.
        let (g, pairs) = graph("double t = a;\nu = t;\nt = b;\nz = t;");
        let t1u = pairs
            .iter()
            .position(|p| p.var == "t" && p.use_line == 2)
            .unwrap();
        let t3z = pairs
            .iter()
            .position(|p| p.var == "t" && p.use_line == 4)
            .unwrap();
        assert!(!g.subsumes[t3z].contains(t1u), "line 2 precedes the window");
        assert!(!g.subsumes[t1u].contains(t3z), "u's window ends at line 2");
        assert!(g.frontier.contains(t1u) && g.frontier.contains(t3z));
    }

    #[test]
    fn every_dropped_pair_is_subsumed_by_a_frontier_pair() {
        for body in [
            "double t = a;\nu = t;\nz = t;",
            "double t = a;\ny = t;\nif (c) { z = t; }",
            "x = 1; if (c) { x = 2; } y = x;\nz = y;",
            "s = 0; while (c) { s = s + 1; } t = s;",
            "double t = a;\nu = t;\nt = b;\nz = t;",
        ] {
            let (g, pairs) = graph(body);
            for i in 0..pairs.len() {
                if g.frontier.contains(i) {
                    continue;
                }
                assert!(
                    (0..pairs.len()).any(|f| g.frontier.contains(f) && g.subsumes[f].contains(i)),
                    "dropped pair {i} uncovered in {body:?}"
                );
            }
        }
    }

    #[test]
    fn activation_wrapping_pairs_never_subsume() {
        // s's def reaches the exit and y's use is upward-exposed through
        // the else path, so the window can wrap to the next activation:
        // the pair is excluded as a subsumer.
        let (cfg, rd) = analyse("if (c) { s = 1; }\ny = s;\nz = s;");
        let pairs: Vec<DuPair> = rd.pairs().to_vec();
        let sy = pairs.iter().position(|p| p.use_line == 2).unwrap();
        let sz = pairs.iter().position(|p| p.use_line == 3).unwrap();
        assert!(can_wrap_activation(&cfg, &rd, &pairs[sy]));
        assert!(can_wrap_activation(&cfg, &rd, &pairs[sz]));
        let g = analyse_subsumption(&cfg, &rd, &pairs, SUBSUMPTION_PATH_LIMIT);
        // Within one activation (s -> z) would subsume (s -> y), but the
        // wrap guard forbids the claim.
        assert_eq!(g.subsumes[sz].len(), 1, "claims only itself");
        assert!(g.frontier.contains(sy) && g.frontier.contains(sz));
    }

    #[test]
    fn truncated_enumeration_subsumes_nothing() {
        let (cfg, rd) = analyse("double t = a;\nu = t;\nz = t;");
        let pairs: Vec<DuPair> = rd.pairs().to_vec();
        let g = analyse_subsumption(&cfg, &rd, &pairs, 1);
        for (i, row) in g.subsumes.iter().enumerate() {
            assert_eq!(row.len(), 1, "pair {i} claims only itself at limit 1");
        }
        assert_eq!(g.frontier.len(), pairs.len());
    }
}
