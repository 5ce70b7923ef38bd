//! The shape every timed phase shares: the measured time is cut into equal
//! slices with one untimed cold-start sample after each, so set-up samples
//! are spread through the run instead of bunched at its start.

use std::time::{Duration, Instant};

/// Runs `slices` slices of `seconds / slices` each. `slice(state,
/// deadline)` runs ops until `deadline` (finishing the op in flight);
/// `between(state)` runs untimed after every slice. Returns the summed
/// wall time of the slices alone.
pub fn run_sliced<S>(
    state: &mut S,
    seconds: f64,
    slices: usize,
    mut slice: impl FnMut(&mut S, Instant),
    mut between: impl FnMut(&mut S),
) -> Duration {
    let len = Duration::from_secs_f64(seconds / slices.max(1) as f64);
    let mut wall = Duration::ZERO;
    for _ in 0..slices.max(1) {
        let start = Instant::now();
        slice(state, start + len);
        wall += start.elapsed();
        between(state);
    }
    wall
}
