//! The benchmark command:
//!
//! ```text
//! dft-perfbench --workload <suite-replay|edit-analyse|serve-mixed>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use dft_perfbench::cold::{self, ColdSample};
use dft_perfbench::edit::EditLoop;
use dft_perfbench::serve::ServeMixed;
use dft_perfbench::stats::{median, quantile, Metric, OpStats};
use dft_perfbench::suite::SuiteReplay;
use dft_perfbench::trace::{write_spans, Span};
use dft_perfbench::{
    dft_env_overrides, peak_rss_mb, phase, Workload, COLD_SAMPLES, SERVE_CLIENTS, SERVE_WORKERS,
    SESSION_THREADS,
};

/// Per-layer metrics, in `BENCHMARK.json` order. A traced run prints all
/// of them: the named workload's own layers from its traced phase, the
/// other workloads' layers from shorter companion phases.
const PER_LAYER: [&str; 30] = [
    "interp.cluster_build_ms",
    "sim.elaborate_ms",
    "sim.run_ns_per_activation",
    "sim.emit_ns_per_event",
    "matcher.feed_ns_per_event",
    "monitor.ns_per_sample",
    "coverage.evaluate_ms",
    "report.render_ms",
    "sim.activations",
    "sim.events",
    "monitor.samples",
    "session.unattributed_pct",
    "minic.parse_ms",
    "design.new_ms",
    "statics.reanalyse_ms",
    "matcher.automaton_build_ms",
    "statics.rebuilt_ratio",
    "statics.cold_ms",
    "obs.unattributed_pct",
    "serve.parse_us",
    "serve.response_kb",
    "serve.handle_ms",
    "serve.elaborate_ms",
    "serve.wait_ms",
    "serve.cache_hit_ratio",
    "serve.artifact_incremental",
    "serve.artifact_cold",
    "serve.models_rebuilt",
    "serve.attempts_per_testcase",
    "obs.trace_overhead_pct",
];

/// Cold-start samples of a companion phase (only `statics.cold_ms` reads
/// them).
const COMPANION_COLD_SAMPLES: usize = 8;

/// The workload under test.
enum Bench {
    Suite(SuiteReplay),
    Edit(EditLoop),
    Serve(ServeMixed),
}

impl Bench {
    /// Builds the workload and runs its untimed warm-up; the warm-up's
    /// checked outputs count as attempts.
    fn setup(w: Workload, seed: u64, traced: bool) -> Result<(Bench, OpStats), String> {
        match w {
            Workload::SuiteReplay => SuiteReplay::setup(seed, traced)
                .map(|(b, s)| (Bench::Suite(b), s))
                .map_err(|e| e.to_string()),
            Workload::EditAnalyse => {
                EditLoop::setup(seed, traced).map(|(b, s)| (Bench::Edit(b), s))
            }
            Workload::ServeMixed => ServeMixed::setup(seed, traced)
                .map(|(b, s)| (Bench::Serve(b), s))
                .map_err(|e| e.to_string()),
        }
    }

    fn run_until(&mut self, deadline: Instant, stats: &mut OpStats) {
        match self {
            Bench::Suite(b) => b.run_until(deadline, stats),
            Bench::Edit(b) => b.run_until(deadline, stats),
            Bench::Serve(b) => b.run_until(deadline, stats),
        }
    }

    /// Runs, timed, whatever the phase must not stop inside.
    fn complete(&mut self, stats: &mut OpStats) {
        if let Bench::Suite(b) = self {
            b.complete_pass(stats);
        }
    }

    /// Untimed tear-down.
    fn finish(&mut self) {
        if let Bench::Serve(b) = self {
            b.finish();
        }
    }

    fn layer_metrics(&self) -> (Vec<Metric>, Vec<Span>) {
        match self {
            Bench::Suite(b) => b.layer_metrics(),
            Bench::Edit(b) => b.layer_metrics(),
            Bench::Serve(b) => b.layer_metrics(),
        }
    }
}

/// One timed phase: the workload, its ops and its cold-start samples.
struct Phase {
    bench: Bench,
    stats: OpStats,
    cold: Vec<ColdSample>,
}

fn run_phase(
    w: Workload,
    seed: u64,
    seconds: f64,
    slices: usize,
    traced: bool,
) -> Result<Phase, String> {
    let (bench, warmup) = Bench::setup(w, seed, traced)?;
    let mut p = Phase {
        bench,
        stats: OpStats {
            attempted: warmup.attempted,
            failed: warmup.failed,
            ..OpStats::default()
        },
        cold: Vec::new(),
    };
    let wall = phase::run_sliced(
        &mut p,
        seconds,
        slices,
        |p, deadline| p.bench.run_until(deadline, &mut p.stats),
        |p| match cold::sample(w) {
            Ok(sample) => {
                p.stats.attempt(&[]);
                p.cold.push(sample);
            }
            Err(problems) => p.stats.attempt(&problems),
        },
    );
    let tail = Instant::now();
    p.bench.complete(&mut p.stats);
    p.stats.wall = wall + tail.elapsed();
    p.bench.finish();
    Ok(p)
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn untraced(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let p = run_phase(w, seed, seconds, COLD_SAMPLES, false)?;
    let lat = &p.stats.latencies_ms;
    let setups: Vec<f64> = p.cold.iter().map(|c| c.setup.as_secs_f64()).collect();
    eprintln!(
        "perfbench: {} seed {seed}: {} ops in {:.2} s, {} cold starts",
        w.name(),
        lat.len(),
        p.stats.wall.as_secs_f64(),
        setups.len()
    );
    Ok(Outcome {
        attempted: p.stats.attempted,
        failed: p.stats.failed,
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("ops_per_s", p.stats.ops_per_s(), "1/s"),
            Metric::new("op_p50_ms", quantile(lat, 0.5), "ms"),
            Metric::new("op_p95_ms", quantile(lat, 0.95), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    })
}

/// The traced run: the named workload for `seconds`, then each other
/// workload for a quarter of that, so every per-layer metric is reported.
fn traced(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut order = vec![w];
    order.extend(Workload::ALL.into_iter().filter(|&o| o != w));
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{seed}", w.name()));
    let mut layers: BTreeMap<&'static str, Metric> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for (i, &phase_w) in order.iter().enumerate() {
        let (secs, slices) = if i == 0 {
            (seconds, COLD_SAMPLES)
        } else {
            ((seconds / 4.0).max(1.0), COMPANION_COLD_SAMPLES)
        };
        let p = run_phase(phase_w, seed, secs, slices, true)?;
        attempted += p.stats.attempted;
        failed += p.stats.failed;
        let (mut metrics, spans) = p.bench.layer_metrics();
        let statics: Vec<f64> = p
            .cold
            .iter()
            .map(|c| c.statics.as_secs_f64() * 1e3)
            .collect();
        metrics.push(Metric::new("statics.cold_ms", median(&statics), "ms"));
        if let Err(e) = write_spans(&dir.join(format!("{}.jsonl", phase_w.name())), &spans) {
            eprintln!("perfbench: could not write spans: {e}");
        }
        for m in metrics {
            // The named workload's own value wins for shared layer names.
            if i == 0 || !layers.contains_key(m.name) {
                layers.insert(m.name, m);
            }
        }
    }
    let mut metrics = Vec::new();
    for name in PER_LAYER {
        match layers.remove(name) {
            Some(m) => metrics.push(m),
            None => return Err(format!("traced run produced no {name}")),
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// Formats a metric value as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_owned()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let overrides = dft_env_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: DFT_* variables switch pipeline paths",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--cold-start") {
        return match argv.get(1).and_then(|w| Workload::parse(w)) {
            Some(w) => ExitCode::from(cold::child_main(w) as u8),
            None => ExitCode::from(2),
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: dft-perfbench --workload <suite-replay|edit-analyse|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(args.workload, args.seed, args.seconds)
    } else {
        untraced(args.workload, args.seed, args.seconds)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        r#"{{"settings":{{"workload":"{}","seed":{},"seconds":{},"trace":{},"session_threads":{SESSION_THREADS},"serve_workers":{SERVE_WORKERS},"serve_clients":{SERVE_CLIENTS},"cold_samples":{COLD_SAMPLES},"available_parallelism":{}}}}}"#,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        outcome.failed == 0 && finite && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
