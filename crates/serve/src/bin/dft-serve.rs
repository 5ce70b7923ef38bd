//! The `dft-serve` binary: binds the analysis server, then runs until a
//! SIGTERM/SIGINT (or an in-band `shutdown` request) triggers a graceful
//! drain. The final metrics snapshot is printed to stderr on exit.
//!
//! Configuration via `DFT_SERVE_ADDR` (default `127.0.0.1:4870`) and the
//! other `DFT_SERVE_*` variables (see `ServeConfig::from_env`), plus the
//! pipeline's worker count (`DFT_THREADS`) and metrics switch
//! (`DFT_METRICS`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Async-signal-safe by construction: the handler only stores a
    // relaxed atomic. Raw libc `signal` via the C runtime the binary is
    // linked against anyway — no crate dependency.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::Relaxed);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    install_signal_handlers();
    let mut config = dft_serve::ServeConfig::from_env();
    if std::env::var("DFT_SERVE_ADDR").is_err() {
        config.addr = "127.0.0.1:4870".to_owned();
    }
    let handle = match dft_serve::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("dft-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    // The test harness greps for this exact line to learn the port.
    println!("dft-serve listening on {}", handle.addr());
    while !SHUTDOWN.load(Ordering::Relaxed) && !handle.is_draining() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("dft-serve: draining");
    handle.begin_shutdown();
    let report = handle.wait();
    let text = report.to_text();
    if !text.is_empty() {
        eprintln!("{text}");
    }
    eprintln!("dft-serve: drained, bye");
}
