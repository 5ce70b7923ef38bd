//! # dft-serve — resilient DFT-as-a-service
//!
//! A multi-tenant analysis server wrapping the [`dft_core`] pipeline:
//! long-lived TCP, one JSON request per line, one JSON response per line.
//! Built for *robustness* rather than raw throughput:
//!
//! * **admission control** ([`admission`]) — a bounded queue with
//!   per-tenant in-flight caps; overload answers `rejected` with a
//!   `retry_after_ms` hint instead of queueing without bound;
//! * **deadlines** — a request's `deadline_ms` maps onto the simulator's
//!   cooperative [`tdf_sim::RunLimits`] cancellation, so a runaway
//!   testcase returns `timed-out` with partial coverage instead of
//!   occupying a worker;
//! * **retry with backoff** — transient per-testcase failures (panics,
//!   tripped budgets) are rerun with exponential backoff and escalating
//!   budgets ([`dft_core::RetryPolicy`]); deterministic failures are
//!   permanent immediately;
//! * **artifact cache** ([`cache`]) — frozen design + static analysis +
//!   match automaton, keyed by the request's design reference and shared
//!   across tenants: warm requests skip elaboration entirely;
//! * **graceful shutdown** — SIGTERM or an in-band `shutdown` request
//!   drains in-flight work, rejects new work, then closes.
//!
//! Zero heavy dependencies, in the `obs` tradition: hand-rolled JSON
//! ([`json`]), `std::net` sockets, `Mutex` + `Condvar` scheduling.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod json;
pub mod probe;
pub mod proto;
pub mod server;

pub use admission::{AdmissionConfig, Queue, RejectReason, Rejection};
pub use cache::ArtifactCache;
pub use json::Json;
pub use proto::{AnalyseRequest, DesignRef, FaultSpec, ProtoError, Request, TestcaseSel};
pub use server::{start, ServeConfig, ServerHandle, MAX_LINE_BYTES};
