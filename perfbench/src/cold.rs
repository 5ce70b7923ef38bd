//! Cold-start samples for `setup_s`: each runs in a fresh child process
//! (this executable with `--cold-start <workload>`), so every process-wide
//! cache — the model-artifact cache, the allocator, the server's artifact
//! cache — starts empty.

use std::process::{Command, Stdio};
use std::time::Duration;

use crate::{edit, serve, suite, Workload};

/// One cold start, as measured inside the child.
#[derive(Debug, Clone, Copy)]
pub struct ColdSample {
    /// From the cold start's beginning until the workload can answer.
    pub setup: Duration,
    /// The static stage inside it.
    pub statics: Duration,
}

/// The child side: runs one cold start and prints `cold <setup_s>
/// <static_s>`, then one `problem <text>` line per failed check. Returns
/// the process exit code.
pub fn child_main(workload: Workload) -> i32 {
    let (setup, statics, problems) = match workload {
        Workload::SuiteReplay => suite::cold_start(),
        Workload::EditAnalyse => edit::cold_start(),
        Workload::ServeMixed => serve::cold_start(),
    };
    println!("cold {} {}", setup.as_secs_f64(), statics.as_secs_f64());
    for p in &problems {
        println!("problem {p}");
    }
    0
}

/// The parent side: spawns a child, waits for it and parses its report.
///
/// # Errors
///
/// The child's problems (a cold start that hit a warm cache, a wrong
/// first answer), or why it could not be run.
pub fn sample(workload: Workload) -> Result<ColdSample, Vec<String>> {
    let exe = std::env::current_exe().map_err(|e| vec![format!("current_exe: {e}")])?;
    let out = Command::new(exe)
        .args(["--cold-start", workload.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| vec![format!("cold-start child: {e}")])?;
    let text = String::from_utf8_lossy(&out.stdout);
    let problems: Vec<String> = text
        .lines()
        .filter_map(|l| l.strip_prefix("problem "))
        .map(str::to_owned)
        .collect();
    let sample = text.lines().find_map(|l| {
        let mut f = l.strip_prefix("cold ")?.split_whitespace();
        let setup = f.next()?.parse::<f64>().ok()?;
        let statics = f.next()?.parse::<f64>().ok()?;
        Some(ColdSample {
            setup: Duration::from_secs_f64(setup),
            statics: Duration::from_secs_f64(statics),
        })
    });
    match sample {
        Some(s) if out.status.success() && problems.is_empty() => Ok(s),
        Some(_) if !problems.is_empty() => Err(problems),
        _ => Err(vec![format!("cold-start child exited with {}", out.status)]),
    }
}
