//! Golden event streams and probe traces for every case-study testcase.
//!
//! Each testcase of the four case studies (sensor TC1–TC3 with the buggy
//! ADC, window lifter, buck-boost, PID) is simulated on its own cluster.
//! The committed golden file records, per testcase, the activation count,
//! the number of def/use events, an FNV-1a hash of the event stream and an
//! FNV-1a hash of every probe trace.
//!
//! Events are hashed with every id resolved to its name — time, kind,
//! model, var, line, feeding `(var, line, model)` and definedness — so the
//! hash does not depend on the order in which names or provenance triples
//! were interned. Probe traces hash each sample's time and the bit pattern
//! of its value as `f64`.
//!
//! Regenerate (only when a change to the simulated behaviour is intended):
//! `cargo test --test event_goldens -- --ignored regenerate`.

use std::fmt::Write as _;
use std::sync::Arc;

use systemc_ams_dft::models::{buck_boost, pid, sensor, window_lifter};
use systemc_ams_dft::signals::Testcase;
use systemc_ams_dft::sim::{
    Cluster, CompactEvent, EventKind, EventSink, Interner, Simulator, TraceBuffer,
};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/event_streams.txt"
);

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }
}

/// Hashes the event stream in resolved form.
struct HashSink {
    hash: Fnv,
    events: u64,
}

impl EventSink for HashSink {
    fn record_compact(&mut self, event: CompactEvent, interner: &Interner) {
        let h = &mut self.hash;
        h.bytes(&event.time.as_fs().to_le_bytes());
        h.bytes(if event.kind == EventKind::Def {
            b"D"
        } else {
            b"U"
        });
        h.str(&interner.resolve(event.model));
        h.str(&interner.resolve(event.var));
        h.bytes(&event.line.to_le_bytes());
        match interner.prov(event.prov) {
            Some((v, l, m)) => {
                h.bytes(b"P");
                h.str(&interner.resolve(v));
                h.bytes(&l.to_le_bytes());
                h.str(&interner.resolve(m));
            }
            None => h.bytes(b"N"),
        }
        h.bytes(&[u8::from(event.defined)]);
        self.events += 1;
    }
}

fn trace_hash(trace: &TraceBuffer) -> u64 {
    let mut h = Fnv::new();
    for (time, value) in trace.samples() {
        h.bytes(&time.as_fs().to_le_bytes());
        h.bytes(&value.as_f64().to_bits().to_le_bytes());
    }
    h.0
}

type Built = (Cluster, Vec<(&'static str, TraceBuffer)>);
type Study = (&'static str, Vec<Testcase>, fn(&Testcase) -> Built);

fn sensor_build(tc: &Testcase) -> Built {
    let (c, p) = sensor::build_sensor_cluster(tc, sensor::BUGGY_ADC_FULL_SCALE).unwrap();
    (
        c,
        vec![
            ("t_led", p.t_led),
            ("h_led", p.h_led),
            ("adc_out", p.adc_out),
        ],
    )
}

fn lifter_build(tc: &Testcase) -> Built {
    let (c, p) = window_lifter::build_lifter_cluster(tc).unwrap();
    (
        c,
        vec![
            ("position", p.position),
            ("drive", p.drive),
            ("overcurrent", p.overcurrent),
            ("led_green", p.led_green),
            ("led_red", p.led_red),
            ("events", p.events),
        ],
    )
}

fn bb_build(tc: &Testcase) -> Built {
    let (c, p) = buck_boost::build_bb_cluster(tc).unwrap();
    (
        c,
        vec![
            ("vout", p.vout),
            ("il", p.il),
            ("ocp", p.ocp),
            ("stats", p.stats),
        ],
    )
}

fn pid_build(tc: &Testcase) -> Built {
    let (c, p) = pid::build_pid_cluster(tc, pid::PidTuning::nominal()).unwrap();
    (c, vec![("y", p.y), ("u", p.u)])
}

/// One golden line per case-study testcase, in suite order.
fn golden_lines() -> String {
    let studies: [Study; 4] = [
        ("sensor", sensor::sensor_testcases(), sensor_build),
        (
            "window-lifter",
            window_lifter::lifter_suite().all().to_vec(),
            lifter_build,
        ),
        (
            "buck-boost",
            buck_boost::bb_suite().all().to_vec(),
            bb_build,
        ),
        ("pid", pid::pid_testcases(), pid_build),
    ];
    let mut out = String::new();
    for (study, testcases, build) in studies {
        for tc in &testcases {
            let (mut cluster, probes) = build(tc);
            cluster.set_interner(Arc::new(Interner::new()));
            let mut sim = Simulator::new(cluster).unwrap();
            let mut sink = HashSink {
                hash: Fnv::new(),
                events: 0,
            };
            let stats = sim.run(tc.duration, &mut sink).unwrap();
            write!(
                out,
                "{study} {} activations={} events={} stream={:016x}",
                tc.name, stats.activations, sink.events, sink.hash.0
            )
            .unwrap();
            for (name, trace) in &probes {
                write!(out, " {name}={:016x}", trace_hash(trace)).unwrap();
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn case_study_event_streams_match_goldens() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    let got = golden_lines();
    let mismatches: Vec<String> = golden
        .lines()
        .zip(got.lines())
        .filter(|(want, have)| want != have)
        .map(|(want, have)| format!("want {want}\nhave {have}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} testcase(s) diverge from the goldens:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    assert_eq!(
        golden.lines().count(),
        got.lines().count(),
        "testcase count changed"
    );
    // sensor 3 + lifter 26 + buck-boost 24 + PID 2.
    assert_eq!(got.lines().count(), 55);
}

#[test]
#[ignore = "rewrites the committed goldens"]
fn regenerate() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN, golden_lines()).unwrap();
}
