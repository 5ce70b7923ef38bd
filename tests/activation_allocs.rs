//! Steady-state TDF activations do not allocate.
//!
//! A thread-local counting global allocator measures one testcase of each
//! case study after a one-period warm-up, once into `NullSink` and once
//! into a `MatchingSink` streaming into the design's match cursor. Each run
//! must stay under one allocation per 1,000 activations. What may remain
//! is amortized growth — probe traces doubling their buffers, the cursor
//! recording a def/use pair the first time it is exercised — which is
//! logarithmic in, or independent of, the run length. Each measured run
//! therefore executes half a million activations (continuing past the
//! testcase's nominal duration, with its stimuli holding), so the bound
//! means "none per activation".

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use systemc_ams_dft::dft::{analyse, Design, MatchAutomaton, MatchMode};
use systemc_ams_dft::models::{buck_boost, pid, sensor, window_lifter};
use systemc_ams_dft::signals::Testcase;
use systemc_ams_dft::sim::{Cluster, EventSink, MatchingSink, NullSink, Simulator};

/// Counts the allocations of the current thread, so tests running in
/// parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each of `System`'s guarantees and requirements carries over. The counter
// is a `const`-initialised thread-local `Cell` without a destructor: bumping
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Activations of each measured run.
const ACTIVATIONS: u64 = 500_000;

/// Simulates `cluster` into `sink` for one period of warm-up and then
/// [`ACTIVATIONS`] more; returns the allocations and activations of the
/// measured part.
fn measure(design: &Design, mut cluster: Cluster, sink: &mut dyn EventSink) -> (u64, u64) {
    cluster.set_interner(design.interner().clone());
    let mut sim = Simulator::new(cluster).unwrap();
    let warm = sim.run_periods(1, sink).unwrap().activations;
    let before = allocs();
    let stats = sim.run_periods(ACTIVATIONS.div_ceil(warm), sink).unwrap();
    (allocs() - before, stats.activations - warm)
}

fn check(study: &str, design: Design, tc: Testcase, build: impl Fn(&Testcase) -> Cluster) {
    let null = measure(&design, build(&tc), &mut NullSink);

    let statics = analyse(&design);
    let automaton = MatchAutomaton::new(&design, &statics);
    let mut cursor = automaton.cursor(MatchMode::default());
    let mut sink = MatchingSink::new(&mut cursor, design.interner().clone());
    let matching = measure(&design, build(&tc), &mut sink);
    drop(sink);
    let (result, _) = cursor.finish();
    assert!(!result.exercised.is_empty(), "{study}: the cursor matched");

    for (sink, (n, activations)) in [("NullSink", null), ("MatchingSink", matching)] {
        assert!(
            n * 1_000 < activations,
            "{study} into {sink}: {n} allocations over {activations} activations"
        );
    }
}

#[test]
fn sensor_activations_do_not_allocate() {
    let full_scale = sensor::BUGGY_ADC_FULL_SCALE;
    let tc = sensor::sensor_testcases().swap_remove(1); // TC2, the sweep
    check(
        "sensor",
        sensor::sensor_design(full_scale).unwrap(),
        tc,
        |tc| sensor::build_sensor_cluster(tc, full_scale).unwrap().0,
    );
}

#[test]
fn window_lifter_activations_do_not_allocate() {
    let tc = window_lifter::lifter_suite().all()[0].clone();
    check(
        "window lifter",
        window_lifter::lifter_design().unwrap(),
        tc,
        |tc| window_lifter::build_lifter_cluster(tc).unwrap().0,
    );
}

#[test]
fn buck_boost_activations_do_not_allocate() {
    let tc = buck_boost::bb_suite().all()[0].clone();
    check("buck-boost", buck_boost::bb_design().unwrap(), tc, |tc| {
        buck_boost::build_bb_cluster(tc).unwrap().0
    });
}

#[test]
fn pid_activations_do_not_allocate() {
    let tc = pid::pid_testcases().swap_remove(0);
    check("PID", pid::pid_design().unwrap(), tc, |tc| {
        pid::build_pid_cluster(tc, pid::PidTuning::nominal())
            .unwrap()
            .0
    });
}
