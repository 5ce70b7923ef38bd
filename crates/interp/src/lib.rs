//! # tdf-interp — interpreted minic models as TDF modules
//!
//! The paper's dynamic analysis instruments the C++ sources of every TDF
//! model (a print before each definition/use, plus `parallel_print()`
//! helpers next to library components) and executes the instrumented design
//! against the testsuite. This crate is the Rust-native equivalent: a minic
//! `processing()` body is *interpreted* inside the `tdf-sim` kernel, and the
//! interpreter emits a [`tdf_sim::CompactEvent`] for every definition and
//! use as it executes — the same observation stream the printf
//! instrumentation would produce, with exact source lines and feeding
//! provenance for input-port reads.
//!
//! ## Example
//!
//! ```
//! use tdf_interp::{Interface, InterpModule};
//! use tdf_sim::{Cluster, FnSource, Probe, RecordingSink, SimTime, Simulator, Value};
//!
//! let tu = minic::parse(
//!     "void TS::processing() {\n\
//!          double tmpr = ip_signal_in * 1000;\n\
//!          if (tmpr > 30) { op_signal_out = tmpr; } else { op_signal_out = 0; }\n\
//!      }",
//! ).expect("valid source");
//! let ts = InterpModule::new(
//!     &tu,
//!     "TS",
//!     Interface::new()
//!         .input("ip_signal_in")
//!         .output("op_signal_out")
//!         .timestep(SimTime::from_us(1)),
//! )?;
//!
//! let mut cluster = Cluster::new("top");
//! let src = cluster.add_module(Box::new(FnSource::new(
//!     "src", SimTime::from_us(1), |_| Value::Double(0.1),
//! ))).unwrap();
//! let tsid = cluster.add_module(Box::new(ts)).unwrap();
//! let (probe, trace) = Probe::new("probe");
//! let pid = cluster.add_module(Box::new(probe)).unwrap();
//! cluster.connect(src, "op_out", tsid, "ip_signal_in").unwrap();
//! cluster.connect(tsid, "op_signal_out", pid, "tdf_i").unwrap();
//!
//! let mut sim = Simulator::new(cluster).unwrap();
//! let mut sink = RecordingSink::new();
//! sim.run(SimTime::from_us(2), &mut sink).unwrap();
//! assert_eq!(trace.values_f64(), vec![100.0, 100.0]);
//! assert!(!sink.events.is_empty(), "def/use instrumentation recorded");
//! # Ok::<(), tdf_interp::InterpError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod interface;
mod module;

pub use error::{InterpError, Result};
pub use interface::{Interface, TdfModelDef, VarKind};
pub use module::InterpModule;
