//! The request half of the wire protocol: one JSON object per line.
//!
//! Every request carries an `op`:
//!
//! * `{"op":"ping"}` — liveness probe, answered immediately;
//! * `{"op":"metrics"}` — snapshot of the process-wide observability
//!   registry;
//! * `{"op":"shutdown"}` — begin a graceful drain (same path as SIGTERM);
//! * `{"op":"analyse", ...}` — run the full static → simulate → match
//!   pipeline over a design and a batch of testcases ([`AnalyseRequest`]).
//!
//! Parsing is total: malformed requests produce a [`ProtoError`] that the
//! server turns into an error *response*, never a dead connection.

use crate::json::Json;
use ams_models::{buck_boost, sensor, window_lifter};
use dft_core::{AssertionExpr, AssertionSpec, Design, Result as DftResult, SignalPred};
use stimuli::{Signal, Testcase};
use tdf_sim::{Cluster, SimTime};

/// A malformed or unsupported request; rendered into an error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtoError {}

fn bad(msg: impl Into<String>) -> ProtoError {
    ProtoError(msg.into())
}

/// The largest `*_us` field a request may carry: a [`SimTime`] counts
/// femtoseconds in a `u64`.
const MAX_US: u64 = u64::MAX / 1_000_000_000;

/// Converts the microsecond field `k` to a [`SimTime`]; past [`MAX_US`]
/// it is an error, where [`SimTime::from_us`] would panic.
fn us_field(k: &str, us: u64) -> Result<SimTime, ProtoError> {
    if us > MAX_US {
        return Err(bad(format!("\"{k}\" exceeds {MAX_US} us")));
    }
    Ok(SimTime::from_us(us))
}

/// One parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Observability snapshot.
    Metrics,
    /// Begin a graceful drain.
    Shutdown,
    /// A full analysis job.
    Analyse(Box<AnalyseRequest>),
}

impl Request {
    /// Parses one protocol line.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let v = Json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"op\""))?;
        match op {
            "ping" => Ok(Request::Ping),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "analyse" => Ok(Request::Analyse(Box::new(AnalyseRequest::parse(&v)?))),
            other => Err(bad(format!("unknown op {other:?}"))),
        }
    }
}

/// Which design a request targets. The three paper case studies plus a
/// tiny built-in `probe` design used by the fault-injection soak tests.
///
/// It keys the server's artifact cache: each design's source is fixed, so
/// equal references elaborate identical artifacts. `==` is exact because
/// parsing admits only a positive, finite `full_scale`.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignRef {
    /// The Fig. 1/2 IoT sensor system, parameterised by ADC full scale.
    Sensor {
        /// ADC full-scale constant (the paper's bug is 511, the fix 2047).
        full_scale: f64,
    },
    /// The car window lifter.
    WindowLifter,
    /// The buck-boost converter.
    BuckBoost,
    /// A minimal producer/consumer design whose producer can be sabotaged
    /// per request — the target of the fault-injection soak tests.
    Probe,
}

impl DesignRef {
    fn parse(v: &Json) -> Result<DesignRef, ProtoError> {
        let spec = v.get("design").ok_or_else(|| bad("missing \"design\""))?;
        // Accept both the shorthand `"design":"sensor"` and the object
        // form `"design":{"name":"sensor","full_scale":511}`.
        let (name, obj) = match spec {
            Json::Str(s) => (s.as_str(), None),
            Json::Obj(_) => (
                spec.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("design object missing \"name\""))?,
                Some(spec),
            ),
            _ => return Err(bad("\"design\" must be a string or object")),
        };
        match name {
            "sensor" => {
                let full_scale = obj
                    .and_then(|o| o.get("full_scale"))
                    .map(|j| {
                        j.as_f64()
                            .ok_or_else(|| bad("\"full_scale\" must be a number"))
                    })
                    .transpose()?
                    .unwrap_or(sensor::FIXED_ADC_FULL_SCALE);
                if !full_scale.is_finite() || full_scale <= 0.0 {
                    return Err(bad("\"full_scale\" must be positive and finite"));
                }
                Ok(DesignRef::Sensor { full_scale })
            }
            "window-lifter" | "lifter" => Ok(DesignRef::WindowLifter),
            "buck-boost" => Ok(DesignRef::BuckBoost),
            "probe" => Ok(DesignRef::Probe),
            other => Err(bad(format!("unknown design {other:?}"))),
        }
    }

    /// The design *family* the request belongs to: the design name without
    /// its elaboration parameters. The server's second cache tier keys its
    /// "previous build" slot on this, so an edited parameterisation (e.g.
    /// a changed sensor full scale) still finds the family's last frozen
    /// artifacts and can splice every unchanged model from them.
    pub fn family(&self) -> &'static str {
        match self {
            DesignRef::Sensor { .. } => "sensor",
            DesignRef::WindowLifter => "window-lifter",
            DesignRef::BuckBoost => "buck-boost",
            DesignRef::Probe => "probe",
        }
    }

    /// A stable, human-auditable label for reports and logs.
    pub fn label(&self) -> String {
        match self {
            DesignRef::Sensor { full_scale } => format!("sensor(fs={full_scale})"),
            DesignRef::WindowLifter => "window-lifter".to_owned(),
            DesignRef::BuckBoost => "buck-boost".to_owned(),
            DesignRef::Probe => "probe".to_owned(),
        }
    }

    /// Elaborates the design (the expensive cold-cache path).
    pub fn design(&self) -> DftResult<Design> {
        match self {
            DesignRef::Sensor { full_scale } => sensor::sensor_design(*full_scale),
            DesignRef::WindowLifter => window_lifter::lifter_design(),
            DesignRef::BuckBoost => buck_boost::bb_design(),
            DesignRef::Probe => crate::probe::probe_design(),
        }
    }

    /// The design's named testsuite (flattened across suite iterations).
    pub fn suite(&self) -> Vec<Testcase> {
        match self {
            DesignRef::Sensor { .. } => sensor::sensor_testcases(),
            DesignRef::WindowLifter => window_lifter::lifter_suite().all().to_vec(),
            DesignRef::BuckBoost => buck_boost::bb_suite().all().to_vec(),
            DesignRef::Probe => crate::probe::probe_testcases(),
        }
    }

    /// Builds a fresh simulation cluster for one testcase. `fault` only
    /// applies to [`DesignRef::Probe`] (validated at parse time).
    pub fn cluster(&self, tc: &Testcase, fault: Option<&FaultSpec>) -> DftResult<Cluster> {
        match self {
            DesignRef::Sensor { full_scale } => {
                sensor::build_sensor_cluster(tc, *full_scale).map(|(c, _)| c)
            }
            DesignRef::WindowLifter => window_lifter::build_lifter_cluster(tc).map(|(c, _)| c),
            DesignRef::BuckBoost => buck_boost::build_bb_cluster(tc).map(|(c, _)| c),
            DesignRef::Probe => crate::probe::probe_cluster(tc, fault),
        }
    }
}

/// A per-request saboteur applied to the probe design's producer module —
/// exercising the degradation paths end to end through the server. Only
/// accepted when the crate is built with the `fault-inject` feature.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Panic on the `after`-th producer activation.
    PanicAfter {
        /// 0-based activation index that panics.
        after: u64,
    },
    /// Stall every activation from `after` on for `stall_ms`.
    Stall {
        /// 0-based activation index the stalls start at.
        after: u64,
        /// Per-activation stall in milliseconds.
        stall_ms: u64,
    },
    /// Corrupt the producer's emitted def/use events.
    CorruptEvents {
        /// Deterministic corruption seed.
        seed: u64,
        /// Per-event corruption probability in `[0, 1]`.
        rate: f64,
    },
}

impl FaultSpec {
    fn parse(v: &Json) -> Result<FaultSpec, ProtoError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("fault missing \"kind\""))?;
        let u64_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("fault missing integer \"{k}\"")))
        };
        match kind {
            "panic_after" => Ok(FaultSpec::PanicAfter {
                after: u64_field("after")?,
            }),
            "stall" => Ok(FaultSpec::Stall {
                after: u64_field("after")?,
                stall_ms: u64_field("stall_ms")?,
            }),
            "corrupt_events" => {
                let rate = v
                    .get("rate")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("fault missing number \"rate\""))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(bad("fault \"rate\" must be in [0, 1]"));
                }
                Ok(FaultSpec::CorruptEvents {
                    seed: u64_field("seed")?,
                    rate,
                })
            }
            other => Err(bad(format!("unknown fault kind {other:?}"))),
        }
    }
}

/// One testcase selector: a suite name, or a fully custom stimulus.
#[derive(Debug, Clone, PartialEq)]
pub enum TestcaseSel {
    /// A named testcase from the design's suite (e.g. `"TC2"`).
    Named(String),
    /// A custom testcase built from per-channel signal specs.
    Custom(Testcase),
}

impl TestcaseSel {
    fn parse(v: &Json) -> Result<TestcaseSel, ProtoError> {
        match v {
            Json::Str(name) => Ok(TestcaseSel::Named(name.clone())),
            Json::Obj(_) => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("custom testcase missing \"name\""))?;
                let dur_us = v
                    .get("duration_us")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("custom testcase missing integer \"duration_us\""))?;
                if dur_us == 0 {
                    return Err(bad("\"duration_us\" must be positive"));
                }
                let mut tc = Testcase::new(name, us_field("duration_us", dur_us)?);
                if let Some(Json::Obj(channels)) = v.get("channels") {
                    for (channel, spec) in channels {
                        tc.set_signal(channel, parse_signal(spec)?);
                    }
                } else if v.get("channels").is_some() {
                    return Err(bad("\"channels\" must be an object"));
                }
                Ok(TestcaseSel::Custom(tc))
            }
            _ => Err(bad("testcase selector must be a string or object")),
        }
    }

    /// Resolves the selector against the design's suite.
    pub fn resolve(&self, suite: &[Testcase]) -> Result<Testcase, ProtoError> {
        match self {
            TestcaseSel::Named(name) => suite
                .iter()
                .find(|tc| tc.name == *name)
                .cloned()
                .ok_or_else(|| bad(format!("no testcase named {name:?} in suite"))),
            TestcaseSel::Custom(tc) => Ok(tc.clone()),
        }
    }
}

/// Parses one stimulus signal spec, e.g. `{"kind":"step","before":0,
/// "after":0.4,"at_us":500}`.
fn parse_signal(v: &Json) -> Result<Signal, ProtoError> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("signal missing \"kind\""))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| bad(format!("signal missing number \"{k}\"")))
    };
    let time_us = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(format!("signal missing integer \"{k}\"")))
            .and_then(|us| us_field(k, us))
    };
    match kind {
        "constant" => Ok(Signal::Constant(num("level")?)),
        "step" => Ok(Signal::Step {
            before: num("before")?,
            after: num("after")?,
            at: time_us("at_us")?,
        }),
        "ramp" => Ok(Signal::Ramp {
            from: num("from")?,
            to: num("to")?,
            start: time_us("start_us")?,
            end: time_us("end_us")?,
        }),
        "triangle" => Ok(Signal::Triangle {
            from: num("from")?,
            to: num("to")?,
            start: time_us("start_us")?,
            end: time_us("end_us")?,
        }),
        "sine" => Ok(Signal::Sine {
            offset: num("offset")?,
            amplitude: num("amplitude")?,
            freq_hz: num("freq_hz")?,
        }),
        "pwm" => {
            let duty = num("duty")?;
            if !(0.0..=1.0).contains(&duty) {
                return Err(bad("pwm \"duty\" must be in [0, 1]"));
            }
            Ok(Signal::Pwm {
                low: num("low")?,
                high: num("high")?,
                period: time_us("period_us")?,
                duty,
            })
        }
        other => Err(bad(format!("unknown signal kind {other:?}"))),
    }
}

/// A parsed `analyse` request.
///
/// Unknown keys are ignored. That includes `strategy`, which once chose
/// between streamed and buffered matching: every run now streams, so the
/// key is accepted and has no effect.
#[derive(Debug)]
pub struct AnalyseRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: String,
    /// Tenant the request is accounted against (in-flight caps).
    pub tenant: String,
    /// The design under test.
    pub design: DesignRef,
    /// The testcases to run, in order. Empty means the full suite.
    pub testcases: Vec<TestcaseSel>,
    /// Soft wall-clock deadline for the whole request, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-testcase activation budget.
    pub max_activations: Option<u64>,
    /// Per-testcase instrumentation-event budget.
    pub max_events: Option<u64>,
    /// Transient-failure retry budget (defaults to the server's).
    pub retries: Option<u32>,
    /// Static-analysis worker override (defaults to the server's). It
    /// only matters on an artifact-cache miss, where it sizes the static
    /// stage; matching always streams inside the sequential simulation.
    pub threads: Option<usize>,
    /// Whether to render Table I / Table II bodies in the response.
    pub tables: bool,
    /// Saboteur for the probe design (requires the `fault-inject` build).
    pub fault: Option<FaultSpec>,
    /// Assertions monitored alongside matching; the response carries a
    /// `verdicts` array exactly when this is non-empty.
    pub assertions: Vec<AssertionSpec>,
}

/// Most deeply nested combinator tree an assertion may carry; requests
/// past it are rejected (totality: no unbounded recursion on hostile
/// input).
const MAX_ASSERTION_DEPTH: usize = 16;

/// Parses one signal predicate, e.g. `{"kind":"above","level":1.2}` or
/// `{"kind":"in_band","center":5,"epsilon":0.1}`.
fn parse_pred(v: &Json) -> Result<SignalPred, ProtoError> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("predicate missing \"kind\""))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| bad(format!("predicate missing number \"{k}\"")))
    };
    match kind {
        "above" => Ok(SignalPred::Above(num("level")?)),
        "below" => Ok(SignalPred::Below(num("level")?)),
        "in_band" => Ok(SignalPred::InBand {
            center: num("center")?,
            epsilon: num("epsilon")?,
        }),
        other => Err(bad(format!("unknown predicate kind {other:?}"))),
    }
}

/// Parses one assertion operator tree (see the crate docs of
/// `dft-monitor` for semantics). Dense times come in as `*_us` integers,
/// like the stimulus signal specs.
fn parse_assertion_expr(v: &Json, depth: usize) -> Result<AssertionExpr, ProtoError> {
    if depth > MAX_ASSERTION_DEPTH {
        return Err(bad("assertion nests too deeply"));
    }
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("assertion missing \"op\""))?;
    let signal = |k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| bad(format!("assertion missing string \"{k}\"")))
    };
    let num = |k: &str| {
        v.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| bad(format!("assertion missing number \"{k}\"")))
    };
    let time_us = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(format!("assertion missing integer \"{k}\"")))
            .and_then(|us| us_field(k, us))
    };
    match op {
        "never_above" | "never_below" => {
            let expr = if op == "never_above" {
                AssertionExpr::never_above(signal("signal")?, num("level")?)
            } else {
                AssertionExpr::never_below(signal("signal")?, num("level")?)
            };
            match v.get("hysteresis") {
                None | Some(Json::Null) => Ok(expr),
                Some(j) => {
                    let h = j
                        .as_f64()
                        .ok_or_else(|| bad("\"hysteresis\" must be a number"))?;
                    Ok(expr.with_hysteresis(h))
                }
            }
        }
        "settles" => {
            let base = (
                signal("signal")?,
                num("target")?,
                num("epsilon")?,
                time_us("window_us")?,
            );
            match v.get("deadline_us") {
                None | Some(Json::Null) => {
                    Ok(AssertionExpr::settles(base.0, base.1, base.2, base.3))
                }
                Some(_) => Ok(AssertionExpr::settles_by(
                    base.0,
                    base.1,
                    base.2,
                    base.3,
                    time_us("deadline_us")?,
                )),
            }
        }
        "recurs" => {
            let pred = parse_pred(
                v.get("pred")
                    .ok_or_else(|| bad("assertion missing \"pred\""))?,
            )?;
            let count = v
                .get("count")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("assertion missing integer \"count\""))?;
            let count = u32::try_from(count).map_err(|_| bad("\"count\" too large"))?;
            let window = time_us("window_us")?;
            match v.get("bound").and_then(Json::as_str) {
                Some("at_least") => Ok(AssertionExpr::recurs_at_least(
                    signal("signal")?,
                    pred,
                    count,
                    window,
                )),
                Some("at_most") => Ok(AssertionExpr::recurs_at_most(
                    signal("signal")?,
                    pred,
                    count,
                    window,
                )),
                _ => Err(bad("\"bound\" must be \"at_least\" or \"at_most\"")),
            }
        }
        "within" => Ok(AssertionExpr::responds_within(
            signal("trigger_signal")?,
            parse_pred(
                v.get("trigger")
                    .ok_or_else(|| bad("assertion missing \"trigger\""))?,
            )?,
            signal("response_signal")?,
            parse_pred(
                v.get("response")
                    .ok_or_else(|| bad("assertion missing \"response\""))?,
            )?,
            time_us("within_us")?,
        )),
        "all_of" | "any_of" => {
            let items = match v.get("of") {
                Some(Json::Arr(items)) => items,
                _ => return Err(bad("assertion missing array \"of\"")),
            };
            let parsed = items
                .iter()
                .map(|j| parse_assertion_expr(j, depth + 1))
                .collect::<Result<Vec<_>, _>>()?;
            if op == "all_of" {
                Ok(AssertionExpr::all_of(parsed))
            } else {
                Ok(AssertionExpr::any_of(parsed))
            }
        }
        "not" => Ok(AssertionExpr::negate(parse_assertion_expr(
            v.get("of").ok_or_else(|| bad("assertion missing \"of\""))?,
            depth + 1,
        )?)),
        other => Err(bad(format!("unknown assertion op {other:?}"))),
    }
}

/// Parses the optional `assertions` array of an analyse request.
fn parse_assertions(v: &Json) -> Result<Vec<AssertionSpec>, ProtoError> {
    let items = match v.get("assertions") {
        None | Some(Json::Null) => return Ok(Vec::new()),
        Some(Json::Arr(items)) => items,
        Some(_) => return Err(bad("\"assertions\" must be an array")),
    };
    items
        .iter()
        .map(|item| {
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("assertion missing \"name\""))?;
            let expr = parse_assertion_expr(
                item.get("assert")
                    .ok_or_else(|| bad("assertion missing \"assert\""))?,
                0,
            )?;
            Ok(AssertionSpec::new(name, expr))
        })
        .collect()
}

impl AnalyseRequest {
    fn parse(v: &Json) -> Result<AnalyseRequest, ProtoError> {
        let design = DesignRef::parse(v)?;
        let testcases = match v.get("testcases") {
            None => Vec::new(),
            Some(Json::Arr(items)) => items
                .iter()
                .map(TestcaseSel::parse)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(bad("\"testcases\" must be an array")),
        };
        let opt_u64 = |k: &str| match v.get(k) {
            None | Some(Json::Null) => Ok(None),
            Some(j) => j
                .as_u64()
                .map(Some)
                .ok_or_else(|| bad(format!("\"{k}\" must be a non-negative integer"))),
        };
        let fault = match v.get("fault") {
            None | Some(Json::Null) => None,
            Some(spec) => {
                if cfg!(not(feature = "fault-inject")) {
                    return Err(bad(
                        "fault injection is disabled in this build (enable the \
                         \"fault-inject\" feature)",
                    ));
                }
                if design != DesignRef::Probe {
                    return Err(bad("\"fault\" requires the \"probe\" design"));
                }
                Some(FaultSpec::parse(spec)?)
            }
        };
        let deadline_ms = opt_u64("deadline_ms")?;
        if deadline_ms == Some(0) {
            return Err(bad("\"deadline_ms\" must be positive"));
        }
        Ok(AnalyseRequest {
            id: v.get("id").and_then(Json::as_str).unwrap_or("").to_owned(),
            tenant: v
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap_or("anonymous")
                .to_owned(),
            design,
            testcases,
            deadline_ms,
            max_activations: opt_u64("max_activations")?,
            max_events: opt_u64("max_events")?,
            retries: opt_u64("retries")?.map(|n| n.min(16) as u32),
            threads: opt_u64("threads")?.map(|n| n.clamp(1, 64) as usize),
            tables: v.get("tables").and_then(Json::as_bool).unwrap_or(true),
            fault,
            assertions: parse_assertions(v)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_four_ops() {
        assert!(matches!(
            Request::parse(r#"{"op":"ping"}"#),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            Request::parse(r#"{"op":"metrics"}"#),
            Ok(Request::Metrics)
        ));
        assert!(matches!(
            Request::parse(r#"{"op":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
        let req = Request::parse(r#"{"op":"analyse","design":"sensor","id":"r1"}"#).unwrap();
        match req {
            Request::Analyse(a) => {
                assert_eq!(a.id, "r1");
                assert_eq!(
                    a.design,
                    DesignRef::Sensor {
                        full_scale: sensor::FIXED_ADC_FULL_SCALE
                    }
                );
                assert!(a.testcases.is_empty(), "empty selector means full suite");
                assert_eq!(a.tenant, "anonymous");
            }
            other => panic!("expected analyse, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_become_errors_not_panics() {
        for bad_line in [
            "",
            "not json",
            "{}",
            r#"{"op":"launch-missiles"}"#,
            r#"{"op":"analyse"}"#,
            r#"{"op":"analyse","design":"no-such-design"}"#,
            r#"{"op":"analyse","design":"sensor","testcases":7}"#,
            r#"{"op":"analyse","design":"sensor","deadline_ms":0}"#,
            r#"{"op":"analyse","design":"sensor","testcases":[{"name":"x"}]}"#,
            r#"{"op":"analyse","design":{"name":"sensor","full_scale":-2}}"#,
        ] {
            assert!(Request::parse(bad_line).is_err(), "{bad_line:?}");
        }
    }

    #[test]
    fn custom_testcases_parse_signals() {
        let line = r#"{"op":"analyse","design":"sensor","testcases":[
            {"name":"X1","duration_us":2000,"channels":{
                "ts_in":{"kind":"triangle","from":0,"to":0.65,"start_us":0,"end_us":2000},
                "hs_in":{"kind":"constant","level":0.2}}}]}"#
            .replace('\n', " ");
        let Request::Analyse(a) = Request::parse(&line).unwrap() else {
            panic!("expected analyse")
        };
        let TestcaseSel::Custom(tc) = &a.testcases[0] else {
            panic!("expected custom")
        };
        assert_eq!(tc.name, "X1");
        assert_eq!(tc.duration, SimTime::from_us(2000));
        assert!(tc.drives("ts_in") && tc.drives("hs_in"));
    }

    /// Each kind of microsecond field — a testcase's duration, a signal's
    /// time, an assertion's window — parses at the largest value a
    /// `SimTime` holds and is an error, not a panic, one past it.
    #[test]
    fn microsecond_fields_are_checked_at_the_simtime_limit() {
        assert_eq!(MAX_US, 18_446_744_073);
        let lines = |us: u64| {
            let analyse = r#"{"op":"analyse","design":"sensor""#;
            [
                (
                    "duration_us",
                    format!(r#"{analyse},"testcases":[{{"name":"X","duration_us":{us}}}]}}"#),
                ),
                (
                    "at_us",
                    format!(
                        r#"{analyse},"testcases":[{{"name":"X","duration_us":1,"channels":{{
                            "ts_in":{{"kind":"step","before":0,"after":1,"at_us":{us}}}}}}}]}}"#
                    ),
                ),
                (
                    "window_us",
                    format!(
                        r#"{analyse},"assertions":[{{"name":"a","assert":{{"op":"settles",
                            "signal":"s","target":0,"epsilon":1,"window_us":{us}}}}}]}}"#
                    ),
                ),
            ]
        };
        for ((field, at_limit), (_, past_limit)) in lines(MAX_US).into_iter().zip(lines(MAX_US + 1))
        {
            assert!(Request::parse(&at_limit).is_ok(), "{field} at the limit");
            assert_eq!(
                Request::parse(&past_limit).unwrap_err().0,
                format!("\"{field}\" exceeds 18446744073 us"),
            );
        }
    }

    #[test]
    fn named_selectors_resolve_against_the_suite() {
        let suite = sensor::sensor_testcases();
        let sel = TestcaseSel::Named("TC2".to_owned());
        assert_eq!(sel.resolve(&suite).unwrap().name, "TC2");
        let missing = TestcaseSel::Named("TC99".to_owned());
        assert!(missing.resolve(&suite).is_err());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fault_specs_require_the_probe_design() {
        let ok = Request::parse(
            r#"{"op":"analyse","design":"probe","fault":{"kind":"panic_after","after":2}}"#,
        );
        assert!(ok.is_ok());
        let wrong_design = Request::parse(
            r#"{"op":"analyse","design":"sensor","fault":{"kind":"panic_after","after":2}}"#,
        );
        assert!(wrong_design.is_err());
    }

    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn fault_specs_are_rejected_without_the_feature() {
        let err = Request::parse(
            r#"{"op":"analyse","design":"probe","fault":{"kind":"panic_after","after":2}}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("fault-inject"), "{err}");
    }

    #[test]
    fn design_ref_equality_distinguishes_parameters() {
        let buggy = DesignRef::Sensor { full_scale: 511.0 };
        let fixed = DesignRef::Sensor { full_scale: 2047.0 };
        assert_ne!(buggy, fixed);
        assert_eq!(buggy, DesignRef::Sensor { full_scale: 511.0 });
        assert_ne!(DesignRef::WindowLifter, DesignRef::BuckBoost);
    }
}
