//! # dft-perfbench — one benchmark for the data-flow-testing pipeline
//!
//! Three closed-loop workloads, each measured end to end from one process
//! (`suite-replay`, `edit-analyse`, `serve-mixed`), plus a traced mode
//! that records the benchmark's own spans around each layer's public
//! functions. See `README.md` for why each workload exists and what each
//! metric predicts.

pub mod cold;
pub mod edit;
pub mod expected;
pub mod phase;
pub mod serve;
pub mod stats;
pub mod suite;
pub mod trace;

use dft_core::SessionConfig;

/// Worker count for the static-analysis and log-matching fan-outs. Pinned
/// instead of inherited from the machine, so results do not depend on how
/// many cores the host happens to expose.
pub const SESSION_THREADS: usize = 1;

/// `dft-serve` worker-pool size on `serve-mixed`.
pub const SERVE_WORKERS: usize = 2;

/// Closed-loop client connections driving `serve-mixed`.
pub const SERVE_CLIENTS: usize = 2;

/// Cold-start samples spread through an untraced run (one after each
/// slice of the timed phase). One-shot cold starts swing by more than half
/// their value on a shared host; the median of this many does not.
pub const COLD_SAMPLES: usize = 24;

/// The pipeline configuration every workload runs under. The environment
/// is checked for `DFT_*` overrides before anything runs (see
/// [`dft_env_overrides`]), so this is the documented default pipeline
/// with the thread count pinned.
pub fn session_config() -> SessionConfig {
    SessionConfig::from_env().with_threads(SESSION_THREADS)
}

/// Every `DFT_*` variable in the environment. Those switch pipeline paths
/// and metrics, so the benchmark refuses to run while any is set.
pub fn dft_env_overrides() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DFT_"))
        .collect()
}

/// The three workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The four case-study testsuites replayed testcase by testcase.
    SuiteReplay,
    /// One-model edits re-analysed incrementally on a 64-model chain.
    EditAnalyse,
    /// `dft-serve` under a seeded request mix from two clients.
    ServeMixed,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::SuiteReplay,
        Workload::EditAnalyse,
        Workload::ServeMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteReplay => "suite-replay",
            Workload::EditAnalyse => "edit-analyse",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A small deterministic generator (SplitMix64): the workload seed drives
/// every random choice the benchmark makes, and the program only ever sees
/// the generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under one workload seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
