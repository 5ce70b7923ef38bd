//! Integration gate for the subsumption report on the three case studies
//! (sensor, window lifter, buck-boost):
//!
//! * the unsubsumed frontier is *strictly smaller* than the raw
//!   association set on every study (the reduction is non-trivial);
//! * every dropped association is implied by a tracked frontier one.
//!
//! Coverage itself always tracks every association; the rendered
//! subsumption report is pinned by `tests/report_goldens.rs`.

use systemc_ams_dft::dft::{analyse, Design, StaticAnalysis};
use systemc_ams_dft::models::{buck_boost, sensor, window_lifter};

/// A case study's design, by name.
fn studies() -> Vec<(&'static str, Design)> {
    vec![
        (
            "sensor",
            sensor::sensor_design(sensor::BUGGY_ADC_FULL_SCALE).expect("design"),
        ),
        (
            "window_lifter",
            window_lifter::lifter_design().expect("design"),
        ),
        ("buck_boost", buck_boost::bb_design().expect("design")),
    ]
}

fn assert_reduction_invariants(name: &str, sa: &StaticAnalysis) {
    let n = sa.associations.len();
    let dropped = sa.subsumption.dropped_count();
    assert!(n > 0, "{name}: no associations");
    assert!(
        dropped > 0,
        "{name}: frontier must be strictly smaller than the raw set"
    );
    assert!(dropped < n, "{name}: frontier must not be empty");
    for i in 0..n {
        if sa.subsumption.is_tracked(i) {
            continue;
        }
        assert!(
            sa.subsumption
                .implied_by
                .iter()
                .any(|(f, implied)| sa.subsumption.is_tracked(*f as usize) && implied.contains(i)),
            "{name}: dropped {} lacks a tracked implier",
            sa.associations[i].assoc
        );
    }
    // implied_by is sorted by frontier index and only names frontier rows.
    assert!(sa
        .subsumption
        .implied_by
        .windows(2)
        .all(|w| w[0].0 < w[1].0));
}

#[test]
fn case_study_frontiers_are_strictly_smaller() {
    for (name, design) in studies() {
        assert_reduction_invariants(name, &analyse(&design));
    }
}
