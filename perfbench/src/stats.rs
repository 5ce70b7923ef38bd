//! Op accounting and the order statistics the metrics are built from.

use std::time::Duration;

/// One reported metric: name, value as measured, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Bundles a metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `0` for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latencies, attempts and failures of one timed phase.
#[derive(Debug, Default)]
pub struct OpStats {
    /// Latency of every completed op, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Ops (and cold-start samples) attempted.
    pub attempted: u64,
    /// Attempts whose output did not match the expected values.
    pub failed: u64,
    /// Wall time of the timed phase, cold-start pauses excluded.
    pub wall: Duration,
}

/// Failures printed to stderr per phase; the rest are only counted.
const REPORTED_FAILURES: u64 = 5;

impl OpStats {
    /// Records one completed op and whether its output checked out.
    pub fn record(&mut self, latency: Duration, problems: &[String]) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        self.attempt(problems);
    }

    /// Records one attempt without a latency (a cold-start sample, or an
    /// op that errored before completing).
    pub fn attempt(&mut self, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failed <= REPORTED_FAILURES {
                eprintln!("perfbench: failed attempt: {}", problems.join("; "));
            }
        }
    }

    /// Folds another phase's ops (a concurrent client's) into this one.
    pub fn merge(&mut self, other: OpStats) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Completed ops per second of phase wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Collects check failures for one op: `expect(cond, || message)`.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    /// Records `what` as a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}
