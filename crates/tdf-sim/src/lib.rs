//! # tdf-sim — a Timed Data Flow (TDF) simulation kernel
//!
//! A Rust-native stand-in for the SystemC-AMS TDF model of computation the
//! DATE 2019 paper targets: modules with rated, delayed ports exchange
//! timestamped samples over signals inside a cluster, executed by a static
//! schedule derived from the classic SDF balance equations, with dynamic TDF
//! timestep changes applied at cluster-period boundaries.
//!
//! On top of plain simulation the kernel carries two instrumentation
//! features the data flow testing flow relies on:
//!
//! * every [`Sample`] carries a [`ProvId`], the interned [`Provenance`]
//!   `(var, line, model)` of the last definition feeding it ([`ProvId::NONE`]
//!   when unknown); redefining library components (delay, gain, buffer, …)
//!   re-stamp it with their netlist binding site, which is exactly the
//!   paper's `parallel_print()` observation point;
//! * modules can emit def/use [`CompactEvent`]s into an [`EventSink`]
//!   during `processing()` — the analog of the injected print
//!   instrumentation; [`RecordingSink`] renders them as string [`Event`]s.
//!
//! ## Example
//!
//! ```
//! use tdf_sim::{
//!     Cluster, DefSite, FnSource, Gain, NullSink, Probe, SimTime, Simulator, Value,
//! };
//!
//! let mut cluster = Cluster::new("top");
//! let src = cluster.add_module(Box::new(FnSource::new(
//!     "src",
//!     SimTime::from_us(1),
//!     |t| Value::Double((t.as_fs() / 1_000_000_000) as f64),
//! )))?;
//! let gain = cluster.add_module(Box::new(Gain::new("g", 2.0, DefSite::new("top", 7))))?;
//! let (probe, trace) = Probe::new("probe");
//! let probe = {
//!     let id = cluster.add_module(Box::new(probe))?;
//!     id
//! };
//! cluster.connect(src, "op_out", gain, "tdf_i")?;
//! cluster.connect(gain, "tdf_o", probe, "tdf_i")?;
//!
//! let mut sim = Simulator::new(cluster)?;
//! sim.run(SimTime::from_us(4), &mut NullSink)?;
//! assert_eq!(trace.values_f64(), vec![0.0, 2.0, 4.0, 6.0]);
//! # Ok::<(), tdf_sim::TdfError>(())
//! ```

#![warn(missing_docs)]

mod analog;
mod cluster;
mod components;
mod error;
mod fault;
mod intern;
mod module;
mod schedule;
mod sim;
mod time;
mod trace;
mod value;
mod vcd;

pub use analog::{Comparator, Dac, Decimator, Integrator, Interpolator, Quantizer, SampleHold};
pub use cluster::{Cluster, Connection, ModuleId, ModuleInfo, NetBinding, Netlist, PortRef};
pub use components::{
    Adc, Buffer, Delay, FnSource, Gain, LowPass, ParallelPrint, Probe, SliceSource, Wire,
};
pub use error::{Result, TdfError};
pub use fault::{
    CorruptValues, FaultInjector, FaultPlan, FaultRng, FaultyEvents, PanicAfter, StallAfter,
};
pub use intern::{CompactEvent, EventKind, Interner, ProvId, Sym};
pub use module::{
    CompactRecordingSink, DefSite, Event, EventSink, ModuleClass, ModuleSpec, NullSink, PortSpec,
    ProcessingCtx, RecordingSink, TdfModule,
};
pub use schedule::{compute_schedule, Schedule, MAX_TOTAL_FIRINGS};
pub use sim::{RunLimits, SimStats, Simulator};
pub use time::SimTime;
pub use trace::{render_traces, TraceBuffer};
pub use value::{Provenance, Sample, Value};
pub use vcd::write_vcd;
