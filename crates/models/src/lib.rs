//! # ams-models — the case-study AMS virtual prototypes
//!
//! Rust reconstructions of the three designs the DATE 2019 paper evaluates:
//!
//! * [`sensor`] — the Fig. 1/Fig. 2 IoT **sensor system** (TS, HS, delay,
//!   mux, gain, saturating 9-bit ADC, control), authored with the paper's
//!   exact line numbers so Table I regenerates verbatim;
//! * [`window_lifter`] — the **car window lifter** ECU + window environment
//!   (button decoder, motor, mechanics, current filter, ADC, over-current
//!   detector, microcontroller) with its 17→26-testcase suite;
//! * [`buck_boost`] — the **buck-boost converter** (power stage, mode
//!   controller, PWM generator, sense filter) with its 10→24-testcase
//!   suite;
//! * [`pid`] — a PID-regulated first-order plant with hand-written
//!   runtime assertions (settling time, overshoot, control effort) for
//!   the streaming monitor, plus a detuned fault-injection variant.
//!
//! Each module exposes `*_design()` (for static analysis), a
//! `build_*_cluster(testcase)` factory (for simulation), and the paper's
//! testsuites.

#![warn(missing_docs)]

use std::sync::OnceLock;

use minic::TranslationUnit;

pub mod buck_boost;
pub mod pid;
pub mod sensor;
pub mod window_lifter;

/// Parses a case study's constant `src` into `cell` on first use; every
/// later call shares that parse (or its error), so a per-testcase cluster
/// build does not parse again.
fn parse_once(
    cell: &'static OnceLock<minic::Result<TranslationUnit>>,
    src: &str,
) -> dft_core::Result<&'static TranslationUnit> {
    cell.get_or_init(|| minic::parse(src))
        .as_ref()
        .map_err(|e| e.clone().into())
}
