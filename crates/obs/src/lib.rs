//! # obs — pipeline observability for the DFT toolchain
//!
//! A zero-dependency layer of **monotonic counters**, **histogram timers**
//! and **trace spans** behind one `static` registry of atomics. Everything
//! is a no-op unless the process opts in via environment knobs (mirroring
//! the `DFT_THREADS` convention):
//!
//! * `DFT_METRICS` — record counters and timer histograms; snapshot them
//!   with [`MetricsReport::capture`] and render via
//!   [`MetricsReport::to_text`] (a stage-timing table).
//! * `DFT_TRACE` — additionally print every finished [`span`] to stderr
//!   (`[dft-trace] stage.schedule 12.3 µs`), indented by nesting depth.
//!
//! With neither knob set, every instrumentation call is one relaxed atomic
//! load and a branch — cheap enough to leave in release hot paths.
//!
//! Instrumentation sites use a `static` [`Counter`] handle (interned once,
//! then lock-free) for hot counters, [`span`] for scoped timings, and the
//! string-keyed [`counter_add`] / [`observe_duration`] for dynamically
//! named series such as per-testcase wall times.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of power-of-16 (ns) histogram buckets per timer.
pub const HISTOGRAM_BUCKETS: usize = 16;

// ---------------------------------------------------------------- gating

struct Flags {
    metrics: AtomicBool,
    trace: AtomicBool,
}

fn env_flag(name: &str) -> bool {
    match std::env::var(name) {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

fn flags() -> &'static Flags {
    static FLAGS: OnceLock<Flags> = OnceLock::new();
    FLAGS.get_or_init(|| Flags {
        metrics: AtomicBool::new(env_flag("DFT_METRICS")),
        trace: AtomicBool::new(env_flag("DFT_TRACE")),
    })
}

/// Whether metric recording is active (`DFT_METRICS`, or an explicit
/// [`set_metrics_enabled`] override; `DFT_TRACE` implies recording too,
/// since spans need somewhere to measure from).
pub fn metrics_enabled() -> bool {
    let f = flags();
    f.metrics.load(Ordering::Relaxed) || f.trace.load(Ordering::Relaxed)
}

/// Whether span tracing to stderr is active (`DFT_TRACE`).
pub fn trace_enabled() -> bool {
    flags().trace.load(Ordering::Relaxed)
}

/// Programmatic override of the `DFT_METRICS` knob (tests, embedders).
pub fn set_metrics_enabled(on: bool) {
    flags().metrics.store(on, Ordering::Relaxed);
}

/// Programmatic override of the `DFT_TRACE` knob (tests, embedders).
pub fn set_trace_enabled(on: bool) {
    flags().trace.store(on, Ordering::Relaxed);
}

// -------------------------------------------------------------- registry

struct TimerCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl TimerCell {
    fn new() -> TimerCell {
        TimerCell {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn zero(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Bucket index for a duration: log16(ns), i.e. bucket `i` holds
/// `[16^i, 16^(i+1))` ns — 16 buckets span 1 ns to ~18 000 s.
fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    (((63 - ns.leading_zeros()) / 4) as usize).min(HISTOGRAM_BUCKETS - 1)
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    timers: Mutex<BTreeMap<String, Arc<TimerCell>>>,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(Registry::default)
}

/// Recovers a poisoned registry guard: the maps are only ever mutated by
/// inserting interned entries (never left torn), so a panic elsewhere while
/// holding the lock cannot corrupt them — recording must keep working in
/// panic-isolating embedders instead of cascading the poison.
fn recover<'a, T>(
    r: std::sync::LockResult<std::sync::MutexGuard<'a, T>>,
) -> std::sync::MutexGuard<'a, T> {
    r.unwrap_or_else(|p| p.into_inner())
}

fn intern_counter(name: &str) -> Arc<AtomicU64> {
    let mut map = recover(registry().counters.lock());
    map.entry(name.to_owned()).or_default().clone()
}

fn intern_timer(name: &str) -> Arc<TimerCell> {
    let mut map = recover(registry().timers.lock());
    map.entry(name.to_owned())
        .or_insert_with(|| Arc::new(TimerCell::new()))
        .clone()
}

/// Zeroes every registered counter and timer (entries stay registered, so
/// `static` [`Counter`] handles remain valid). Intended for tests.
pub fn reset() {
    for c in recover(registry().counters.lock()).values() {
        c.store(0, Ordering::Relaxed);
    }
    for t in recover(registry().timers.lock()).values() {
        t.zero();
    }
}

// -------------------------------------------------------------- counters

/// A named monotonic counter with a site-local interned cell: after the
/// first [`Counter::add`], increments are a single lock-free `fetch_add`.
///
/// ```
/// static FIRINGS: obs::Counter = obs::Counter::new("schedule.firings");
/// obs::set_metrics_enabled(true);
/// FIRINGS.add(3);
/// assert!(obs::MetricsReport::capture().counter("schedule.firings") >= 3);
/// ```
pub struct Counter {
    name: &'static str,
    cell: OnceLock<Arc<AtomicU64>>,
}

impl Counter {
    /// Declares a counter handle (usually in a `static`).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Adds `delta`; no-op while metrics are disabled.
    pub fn add(&self, delta: u64) {
        if !metrics_enabled() {
            return;
        }
        self.cell
            .get_or_init(|| intern_counter(self.name))
            .fetch_add(delta, Ordering::Relaxed);
    }
}

/// Adds `delta` to the counter named `name` (string-keyed; use for
/// dynamically named series, [`Counter`] for hot static sites).
pub fn counter_add(name: &str, delta: u64) {
    if !metrics_enabled() {
        return;
    }
    intern_counter(name).fetch_add(delta, Ordering::Relaxed);
}

// ---------------------------------------------------------------- timers

/// Records one observation of `d` under the timer named `name`.
pub fn observe_duration(name: &str, d: Duration) {
    if !metrics_enabled() {
        return;
    }
    intern_timer(name).observe(saturating_ns(d));
}

fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static TRACE_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A scoped timer started by [`span`]; records its elapsed time into the
/// histogram timer of the same name on drop, and prints a trace line when
/// `DFT_TRACE` is set.
pub struct SpanTimer {
    name: &'static str,
    start: Option<Instant>,
}

/// Starts a scoped timer. While metrics are disabled this costs one atomic
/// load and returns an inert guard.
pub fn span(name: &'static str) -> SpanTimer {
    if !metrics_enabled() {
        return SpanTimer { name, start: None };
    }
    if trace_enabled() {
        TRACE_DEPTH.with(|d| d.set(d.get() + 1));
    }
    SpanTimer {
        name,
        start: Some(Instant::now()),
    }
}

/// Runs `f` inside a [`span`] named `name`.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = saturating_ns(start.elapsed());
        intern_timer(self.name).observe(ns);
        if trace_enabled() {
            let depth = TRACE_DEPTH.with(|d| {
                let v = d.get();
                d.set(v.saturating_sub(1));
                v.saturating_sub(1)
            });
            eprintln!(
                "[dft-trace] {:indent$}{} {}",
                "",
                self.name,
                format_ns(ns),
                indent = depth * 2
            );
        }
    }
}

// ---------------------------------------------------------------- report

/// Immutable snapshot of one timer's statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerStat {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, in nanoseconds.
    pub total_ns: u64,
    /// Smallest observation (0 when `count == 0`).
    pub min_ns: u64,
    /// Largest observation.
    pub max_ns: u64,
    /// log16(ns) histogram: bucket `i` counts observations in
    /// `[16^i, 16^(i+1))` ns.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl TimerStat {
    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// A snapshot of every counter and timer recorded so far.
///
/// The schema is stable: `counters` maps name → monotonic value;
/// `timers` maps name → `{count, total_ns, min_ns, max_ns, buckets[16]}`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Timer statistics by name.
    pub timers: BTreeMap<String, TimerStat>,
}

impl MetricsReport {
    /// Snapshots the global registry. Entries that never recorded anything
    /// (e.g. after [`reset`]) are omitted.
    pub fn capture() -> MetricsReport {
        let counters = recover(registry().counters.lock())
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .filter(|&(_, v)| v != 0)
            .collect();
        let timers = recover(registry().timers.lock())
            .iter()
            .filter_map(|(k, t)| {
                let count = t.count.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                let min = t.min_ns.load(Ordering::Relaxed);
                Some((
                    k.clone(),
                    TimerStat {
                        count,
                        total_ns: t.total_ns.load(Ordering::Relaxed),
                        min_ns: if min == u64::MAX { 0 } else { min },
                        max_ns: t.max_ns.load(Ordering::Relaxed),
                        buckets: std::array::from_fn(|i| t.buckets[i].load(Ordering::Relaxed)),
                    },
                ))
            })
            .collect();
        MetricsReport { counters, timers }
    }

    /// Whether nothing was recorded (knobs off, or nothing ran).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.timers.is_empty()
    }

    /// What happened **between** `earlier` and `self` (two snapshots of
    /// the same process-global registry, `earlier` taken first): counters
    /// and timer counts/totals/histograms subtract entry-wise, with
    /// all-zero entries dropped. A multi-request embedder uses it to
    /// report a request's window — snapshot before, snapshot after, report
    /// the delta. The registry is shared, so the window also counts any
    /// work that overlapped it, such as a concurrent request's.
    ///
    /// `min_ns`/`max_ns` are not derivable from two cumulative snapshots;
    /// the delta keeps the later snapshot's values, so treat them as
    /// process-lifetime extremes, not per-window ones.
    pub fn delta(&self, earlier: &MetricsReport) -> MetricsReport {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .filter(|&(_, v)| v != 0)
            .collect();
        let timers = self
            .timers
            .iter()
            .filter_map(|(k, t)| {
                let base = earlier.timer(k);
                let count = t.count.saturating_sub(base.map_or(0, |b| b.count));
                if count == 0 {
                    return None;
                }
                Some((
                    k.clone(),
                    TimerStat {
                        count,
                        total_ns: t.total_ns.saturating_sub(base.map_or(0, |b| b.total_ns)),
                        min_ns: t.min_ns,
                        max_ns: t.max_ns,
                        buckets: std::array::from_fn(|i| {
                            t.buckets[i].saturating_sub(base.map_or(0, |b| b.buckets[i]))
                        }),
                    },
                ))
            })
            .collect();
        MetricsReport { counters, timers }
    }

    /// The value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The statistics of timer `name`, if it recorded anything.
    pub fn timer(&self, name: &str) -> Option<&TimerStat> {
        self.timers.get(name)
    }

    /// Renders a human-readable stage-timing table plus counter list.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.timers.is_empty() {
            let width = self
                .timers
                .keys()
                .map(|k| k.len())
                .max()
                .unwrap_or(0)
                .max(5);
            let _ = writeln!(
                out,
                "{:<width$} {:>8} {:>11} {:>11} {:>11} {:>11}",
                "timer", "calls", "total", "mean", "min", "max"
            );
            for (name, t) in &self.timers {
                let _ = writeln!(
                    out,
                    "{:<width$} {:>8} {:>11} {:>11} {:>11} {:>11}",
                    name,
                    t.count,
                    format_ns(t.total_ns),
                    format_ns(t.mean_ns()),
                    format_ns(t.min_ns),
                    format_ns(t.max_ns)
                );
            }
        }
        if !self.counters.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let width = self
                .counters
                .keys()
                .map(|k| k.len())
                .max()
                .unwrap_or(0)
                .max(7);
            let _ = writeln!(out, "{:<width$} {:>12}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:<width$} {v:>12}");
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded — set DFT_METRICS=1)\n");
        }
        out
    }
}

/// Formats a nanosecond count with an adaptive unit (`ns`, `µs`, `ms`, `s`).
pub fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global, so the tests in this module share it;
    /// each locks this mutex, resets, and asserts only on its own names.
    fn with_clean_registry<R>(f: impl FnOnce() -> R) -> R {
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        let was_metrics = metrics_enabled();
        let was_trace = trace_enabled();
        set_metrics_enabled(true);
        reset();
        let r = f();
        set_metrics_enabled(was_metrics);
        set_trace_enabled(was_trace);
        r
    }

    #[test]
    fn disabled_instrumentation_records_nothing() {
        with_clean_registry(|| {
            set_metrics_enabled(false);
            set_trace_enabled(false);
            counter_add("test.disabled", 5);
            observe_duration("test.disabled_timer", Duration::from_micros(3));
            let _span = span("test.disabled_span");
            drop(_span);
            let r = MetricsReport::capture();
            assert_eq!(r.counter("test.disabled"), 0);
            assert!(r.timer("test.disabled_timer").is_none());
            assert!(r.timer("test.disabled_span").is_none());
        });
    }

    #[test]
    fn counters_accumulate_and_reset_zeroes() {
        with_clean_registry(|| {
            static C: Counter = Counter::new("test.counter");
            C.add(2);
            C.add(3);
            counter_add("test.counter", 1);
            assert_eq!(MetricsReport::capture().counter("test.counter"), 6);
            reset();
            assert_eq!(MetricsReport::capture().counter("test.counter"), 0);
            C.add(4); // the static handle survives reset
            assert_eq!(MetricsReport::capture().counter("test.counter"), 4);
        });
    }

    #[test]
    fn timer_stats_track_min_max_total() {
        with_clean_registry(|| {
            observe_duration("test.t", Duration::from_nanos(100));
            observe_duration("test.t", Duration::from_nanos(300));
            let r = MetricsReport::capture();
            let t = r.timer("test.t").expect("recorded");
            assert_eq!(t.count, 2);
            assert_eq!(t.total_ns, 400);
            assert_eq!(t.min_ns, 100);
            assert_eq!(t.max_ns, 300);
            assert_eq!(t.mean_ns(), 200);
            assert_eq!(t.buckets.iter().sum::<u64>(), 2);
        });
    }

    #[test]
    fn span_records_under_its_name() {
        with_clean_registry(|| {
            {
                let _s = span("test.span");
                std::hint::black_box(0);
            }
            let r = MetricsReport::capture();
            assert_eq!(r.timer("test.span").expect("recorded").count, 1);
        });
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(15), 0);
        assert_eq!(bucket_of(16), 1);
        assert_eq!(bucket_of(255), 1);
        assert_eq!(bucket_of(256), 2);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn text_renders() {
        with_clean_registry(|| {
            counter_add("test.render_counter", 7);
            observe_duration("test.render_timer", Duration::from_micros(5));
            let text = MetricsReport::capture().to_text();
            assert!(text.contains("test.render_counter"));
            assert!(text.contains("test.render_timer"));
            assert!(text.contains('7'));
        });
    }

    #[test]
    fn empty_report_renders_hint() {
        let r = MetricsReport::default();
        assert!(r.is_empty());
        assert!(r.to_text().contains("DFT_METRICS"));
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(999), "999 ns");
        assert_eq!(format_ns(1_500), "1.5 µs");
        assert_eq!(format_ns(2_500_000), "2.5 ms");
        assert_eq!(format_ns(3_210_000_000), "3.21 s");
    }

    #[test]
    fn delta_isolates_one_window() {
        with_clean_registry(|| {
            counter_add("test.delta_c", 5);
            observe_duration("test.delta_t", Duration::from_micros(10));
            let before = MetricsReport::capture();
            counter_add("test.delta_c", 7);
            counter_add("test.delta_fresh", 1);
            observe_duration("test.delta_t", Duration::from_micros(30));
            let after = MetricsReport::capture();
            let d = after.delta(&before);
            assert_eq!(d.counter("test.delta_c"), 7);
            assert_eq!(d.counter("test.delta_fresh"), 1);
            let t = d.timer("test.delta_t").expect("timer advanced");
            assert_eq!(t.count, 1);
            assert_eq!(t.total_ns, 30_000);
            assert_eq!(t.buckets.iter().sum::<u64>(), 1);
            // An idle window deltas to empty.
            assert!(after.delta(&after).is_empty());
        });
    }

    #[test]
    fn delta_drops_untouched_entries() {
        with_clean_registry(|| {
            counter_add("test.deltad_idle", 3);
            observe_duration("test.deltad_idle_t", Duration::from_micros(1));
            let before = MetricsReport::capture();
            counter_add("test.deltad_hot", 2);
            let d = MetricsReport::capture().delta(&before);
            assert_eq!(d.counter("test.deltad_hot"), 2);
            assert_eq!(d.counter("test.deltad_idle"), 0);
            assert!(!d.counters.contains_key("test.deltad_idle"));
            assert!(d.timer("test.deltad_idle_t").is_none());
        });
    }

    #[test]
    fn time_runs_closure_and_returns_value() {
        with_clean_registry(|| {
            let v = time("test.time_fn", || 41 + 1);
            assert_eq!(v, 42);
            assert_eq!(
                MetricsReport::capture()
                    .timer("test.time_fn")
                    .expect("recorded")
                    .count,
                1
            );
        });
    }
}
