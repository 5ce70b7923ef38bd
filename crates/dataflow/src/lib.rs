//! # dataflow — control-flow graphs and data-flow analyses over minic ASTs
//!
//! This crate provides the *static analysis machinery* underneath the data
//! flow testing approach of the DATE 2019 paper: per-statement def/use
//! extraction, CFG construction, a generic GEN/KILL iterative solver,
//! reaching definitions with def-use chains, du-path facts (does every
//! static path between a def and a use avoid redefinition?), dominators and
//! liveness.
//!
//! The TDF-specific *classification* of associations (Strong/Firm/PFirm/
//! PWeak) lives in `dft-core`; this crate is deliberately unaware of ports,
//! clusters or bindings, so it can be reused for plain software DFT.
//!
//! ## Example
//!
//! ```
//! use dataflow::{Cfg, ReachingDefs, path_facts};
//!
//! let tu = minic::parse(
//!     "void TS::processing() {\n\
//!          out = 0;\n\
//!          if (hot) { out = t; }\n\
//!          op_y = out;\n\
//!      }",
//! )?;
//! let cfg = Cfg::from_function(&tu.functions[0]);
//! let rd = ReachingDefs::compute(&cfg);
//! // Two defs of `out` reach the use on line 4 — and the def on line 2 has
//! // a non-du-path (through the line-3 redefinition): the "Firm" shape.
//! let pairs: Vec<_> = rd.pairs().iter().filter(|p| p.var == "out").collect();
//! assert_eq!(pairs.len(), 2);
//! assert!(pairs
//!     .iter()
//!     .any(|p| path_facts(&cfg, &rd, p).has_non_du_path));
//! # Ok::<(), minic::MinicError>(())
//! ```

#![warn(missing_docs)]

mod bitset;
mod cfg;
mod defuse;
mod dominators;
mod dupath;
mod framework;
mod liveness;
mod reaching;
mod subsumption;

pub use bitset::BitSet;
pub use cfg::{Cfg, Node, NodeId, NodeKind};
pub use defuse::{stmt_def_use, StmtDefUse, VarAccess};
pub use dominators::Dominators;
pub use dupath::{enumerate_du_paths, path_facts, PathFacts, StaticPath};
pub use framework::{solve, Direction, Meet, Solution, Transfer};
pub use liveness::Liveness;
pub use reaching::{DefId, DefSite, DuPair, ReachingDefs};
pub use subsumption::{
    analyse_subsumption, can_wrap_activation, SubsumptionGraph, SUBSUMPTION_PATH_LIMIT,
};
