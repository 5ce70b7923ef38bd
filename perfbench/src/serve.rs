//! `serve-mixed`: `dft-serve` in-process on loopback with two workers,
//! driven by two closed-loop client connections with a seeded mix:
//!
//! * ~45% sensor named testcases, a third of them with `"tables":true`;
//! * ~25% sensor custom stimuli, two in five carrying assertions;
//! * ~25% window-lifter named testcases (the class `op_p95_ms` falls in);
//! * ~5% sensor requests whose `full_scale` is one of 12 values — more
//!   than the 8-entry artifact cache holds, so rebuilds and evictions keep
//!   recurring.
//!
//! No buck-boost: its ~50 ms requests make a two-client mix unsteady.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ams_models::window_lifter;
use dft_serve::{Json, Request, ServeConfig, ServerHandle};

use crate::expected::Expected;
use crate::stats::{Checks, Metric, OpStats};
use crate::trace::{summarise, Span, Tracer};
use crate::{Rng, SERVE_CLIENTS, SERVE_WORKERS};

/// ADC full-scale values of the cache-churning class (the default 2047
/// is deliberately absent: that key must stay warm).
const FULL_SCALES: [f64; 12] = [
    255.0, 383.0, 511.0, 639.0, 767.0, 895.0, 1023.0, 1279.0, 1535.0, 1791.0, 3071.0, 4095.0,
];

/// Untimed mixed requests per client before timing starts.
const WARMUP_REQUESTS: usize = 150;

/// The server configuration, explicit rather than inherited from the
/// environment.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: SERVE_WORKERS,
        ..ServeConfig::default()
    }
}

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    SensorNamed,
    SensorCustom,
    LifterNamed,
    SensorScale,
}

const CLASSES: usize = 4;

impl Class {
    fn index(self) -> usize {
        self as usize
    }
}

/// One generated request line and what its response must show.
struct Planned {
    class: Class,
    line: String,
    /// `(design, testcase)` whose pinned `coverage.exercised` applies.
    pinned: Option<(&'static str, String)>,
    assertions: bool,
    tables: bool,
}

/// The seeded request generator of one client.
struct Mix {
    rng: Rng,
    tenant: String,
    next_id: u64,
    lifter: Vec<String>,
}

impl Mix {
    fn new(seed: u64, client: usize) -> Mix {
        Mix {
            rng: Rng::new(seed, 100 + client as u64),
            tenant: format!("client{client}"),
            next_id: 0,
            lifter: window_lifter::lifter_suite()
                .all()
                .iter()
                .map(|tc| tc.name.clone())
                .collect(),
        }
    }

    fn next(&mut self) -> Planned {
        let u = self.rng.unit();
        let class = if u < 0.45 {
            Class::SensorNamed
        } else if u < 0.70 {
            Class::SensorCustom
        } else if u < 0.95 {
            Class::LifterNamed
        } else {
            Class::SensorScale
        };
        let fs = FULL_SCALES[self.rng.below(FULL_SCALES.len())];
        self.plan(class, fs)
    }

    /// A request of `class`; `fs` is the full scale of a `SensorScale`
    /// request.
    fn plan(&mut self, class: Class, fs: f64) -> Planned {
        self.next_id += 1;
        let head = format!(
            r#"{{"op":"analyse","id":"{}-{}","tenant":"{}","threads":1"#,
            self.tenant, self.next_id, self.tenant
        );
        let tc = format!("TC{}", 1 + self.rng.below(3));
        let mut planned = Planned {
            class,
            line: String::new(),
            pinned: None,
            assertions: false,
            tables: false,
        };
        planned.line = match class {
            Class::SensorNamed => {
                planned.tables = self.rng.below(3) == 0;
                planned.pinned = Some(("sensor", tc.clone()));
                format!(
                    r#"{head},"design":"sensor","testcases":["{tc}"],"tables":{}}}"#,
                    planned.tables
                )
            }
            Class::SensorCustom => {
                planned.assertions = self.rng.below(5) < 2;
                let custom = self.custom_testcase();
                let assertions = if planned.assertions {
                    r#","assertions":[{"name":"adc_in_range","assert":{"op":"never_above","signal":"adc.op_adc_out","level":2047}},{"name":"t_led_quiet","assert":{"op":"never_above","signal":"ctrl.op_T_LED","level":0.5}}]"#
                } else {
                    ""
                };
                format!(
                    r#"{head},"design":"sensor","testcases":[{custom}],"tables":false{assertions}}}"#
                )
            }
            Class::LifterNamed => {
                let name = self.lifter[self.rng.below(self.lifter.len())].clone();
                let line = format!(
                    r#"{head},"design":"window-lifter","testcases":["{name}"],"tables":false}}"#
                );
                planned.pinned = Some(("window-lifter", name));
                line
            }
            Class::SensorScale => {
                format!(
                    r#"{head},"design":{{"name":"sensor","full_scale":{fs}}},"testcases":["{tc}"],"tables":false}}"#
                )
            }
        };
        planned
    }

    /// A 2 ms sensor testcase with a seeded temperature stimulus and a
    /// humidity channel that mostly idles.
    fn custom_testcase(&mut self) -> String {
        let level = 0.7 * self.rng.unit();
        let ts = match self.rng.below(3) {
            0 => format!(r#"{{"kind":"constant","level":{level:.4}}}"#),
            1 => format!(
                r#"{{"kind":"step","before":0,"after":{level:.4},"at_us":{}}}"#,
                100 + self.rng.below(1500)
            ),
            _ => {
                format!(r#"{{"kind":"ramp","from":0,"to":{level:.4},"start_us":0,"end_us":2000}}"#)
            }
        };
        let hs = if self.rng.below(10) < 3 {
            format!(
                r#"{{"kind":"constant","level":{:.4}}}"#,
                0.6 * self.rng.unit()
            )
        } else {
            r#"{"kind":"constant","level":-0.05}"#.to_owned()
        };
        format!(
            r#"{{"name":"custom","duration_us":2000,"channels":{{"ts_in":{ts},"hs_in":{hs}}}}}"#
        )
    }
}

/// One closed-loop client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    mix: Mix,
    stats: OpStats,
    tracer: Option<Tracer>,
    requests: u64,
    layers: Layers,
    /// Traced phase: summed latency and count per class, untraced / traced.
    class_ns: [[(u64, u64); CLASSES]; 2],
}

/// Per-request layer figures summed over traced requests.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    requests: u64,
    response_bytes: u64,
    handle_ms: f64,
    elaborate_ms: f64,
    wait_ms: f64,
    warm: u64,
    incremental: u64,
    cold: u64,
    models_rebuilt: u64,
    attempts: u64,
    testcases: u64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.requests += o.requests;
        self.response_bytes += o.response_bytes;
        self.handle_ms += o.handle_ms;
        self.elaborate_ms += o.elaborate_ms;
        self.wait_ms += o.wait_ms;
        self.warm += o.warm;
        self.incremental += o.incremental;
        self.cold += o.cold;
        self.models_rebuilt += o.models_rebuilt;
        self.attempts += o.attempts;
        self.testcases += o.testcases;
    }
}

/// Sends one line and reads the one-line reply.
fn roundtrip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> std::io::Result<String> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    let mut response = String::new();
    if reader.read_line(&mut response)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(response)
}

fn connect(server: &ServerHandle) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let writer = TcpStream::connect(server.addr())?;
    writer.set_nodelay(true)?;
    let reader = BufReader::new(writer.try_clone()?);
    Ok((writer, reader))
}

/// The fields of a response the checks and layer metrics read.
struct Reply {
    json: Json,
    bytes: usize,
}

impl Reply {
    fn parse(line: &str) -> Result<Reply, String> {
        Json::parse(line.trim_end())
            .map(|json| Reply {
                json,
                bytes: line.len(),
            })
            .map_err(|e| format!("unparseable response: {e}"))
    }

    fn str(&self, key: &str) -> &str {
        self.json.get(key).and_then(Json::as_str).unwrap_or("")
    }

    fn num(&self, outer: &str, key: &str) -> f64 {
        self.json
            .get(outer)
            .and_then(|o| o.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn testcases(&self) -> &[Json] {
        self.json
            .get("testcases")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
    }
}

/// Checks one response against what its request class must show.
fn check(planned: &Planned, reply: &Reply, expected: &Expected) -> Vec<String> {
    let mut c = Checks::default();
    let id = reply.str("id").to_owned();
    c.expect(reply.str("status") == "ok", || {
        format!(
            "{id}: status {:?} ({})",
            reply.str("status"),
            reply.str("error")
        )
    });
    let artifact = reply.str("artifact");
    let artifact_ok = match planned.class {
        Class::SensorScale => matches!(artifact, "warm" | "incremental"),
        _ => artifact == "warm",
    };
    c.expect(artifact_ok, || {
        format!("{id}: artifact {artifact:?} for {:?}", planned.class)
    });
    let tcs = reply.testcases();
    c.expect(
        tcs.len() == 1
            && tcs
                .iter()
                .all(|t| t.get("outcome").and_then(Json::as_str) == Some("ok")),
        || format!("{id}: testcase outcomes {tcs:?}"),
    );
    if let Some((design, tc)) = &planned.pinned {
        let got = reply.num("coverage", "exercised");
        match expected.serve.get(&((*design).to_owned(), tc.clone())) {
            Some(&want) => c.expect(got == want as f64, || {
                format!("{id}: {design}/{tc} exercised {got} != expected {want}")
            }),
            None => {
                c.0.push(format!("{id}: no expected coverage for {design}/{tc}"))
            }
        }
    }
    if planned.assertions {
        let verdicts = reply
            .json
            .get("verdicts")
            .and_then(Json::as_arr)
            .and_then(|v| v.first())
            .and_then(|v| v.get("verdicts"))
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        c.expect(verdicts == 2, || {
            format!("{id}: {verdicts} verdicts, expected 2")
        });
    }
    if planned.tables {
        c.expect(reply.str("table1").contains("Static Pairs"), || {
            format!("{id}: Table I missing")
        });
    }
    c.0
}

impl Client {
    /// Issues requests until `deadline`. In a traced phase every other
    /// request is traced.
    fn run_until(&mut self, deadline: Instant, expected: &Expected) {
        while Instant::now() < deadline {
            let planned = self.mix.next();
            self.requests += 1;
            let traced = self.tracer.is_some() && self.requests.is_multiple_of(2);
            if traced {
                self.traced_request(&planned, expected);
            } else {
                let t0 = Instant::now();
                let response = roundtrip(&mut self.writer, &mut self.reader, &planned.line);
                let latency = t0.elapsed();
                match response
                    .map_err(|e| e.to_string())
                    .and_then(|r| Reply::parse(&r))
                {
                    Ok(reply) => {
                        let problems = check(&planned, &reply, expected);
                        self.stats.record(latency, &problems);
                        let slot = &mut self.class_ns[0][planned.class.index()];
                        slot.0 += latency.as_nanos() as u64;
                        slot.1 += 1;
                    }
                    Err(e) => self.stats.attempt(&[e]),
                }
            }
        }
    }

    /// One request inside an `op` span; the server's own `timings` become
    /// child spans (`serve.handle` ⊃ `serve.elaborate`) and the rest of the
    /// client latency is `serve.wait`. `Request::parse` is replayed on the
    /// same line outside the op.
    fn traced_request(&mut self, planned: &Planned, expected: &Expected) {
        let tr = self.tracer.as_mut().expect("traced request needs a tracer");
        tr.begin_op();
        tr.enter("op");
        let t0 = Instant::now();
        let response = roundtrip(&mut self.writer, &mut self.reader, &planned.line);
        let latency = t0.elapsed();
        let reply = response
            .map_err(|e| e.to_string())
            .and_then(|r| Reply::parse(&r));
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                tr.exit();
                self.stats.attempt(&[e]);
                return;
            }
        };
        let handle_ms = reply.num("timings", "total_ms");
        let elaborate_ms = reply.num("timings", "elaborate_ms");
        let handle = Duration::from_secs_f64(handle_ms.max(0.0) / 1e3);
        let elaborate = Duration::from_secs_f64(elaborate_ms.max(0.0) / 1e3);
        let wait = latency.saturating_sub(handle);
        let op_start = tr.now_ns() - latency.as_nanos() as u64;
        let half_wait = wait.as_nanos() as u64 / 2;
        let handle_start = op_start + half_wait;
        let op = tr.open_span();
        tr.record_remote("serve.wait", op_start, half_wait, op);
        let h = tr.record_remote("serve.handle", handle_start, handle.as_nanos() as u64, op);
        tr.record_remote(
            "serve.elaborate",
            handle_start,
            elaborate.as_nanos() as u64,
            Some(h),
        );
        tr.record_remote(
            "serve.wait",
            handle_start + handle.as_nanos() as u64,
            wait.as_nanos() as u64 - half_wait,
            op,
        );
        tr.exit();
        tr.span("serve.parse", || Request::parse(&planned.line).is_ok());

        let problems = check(planned, &reply, expected);
        self.stats.record(latency, &problems);
        let slot = &mut self.class_ns[1][planned.class.index()];
        slot.0 += latency.as_nanos() as u64;
        slot.1 += 1;
        let tcs = reply.testcases();
        let artifact = reply.str("artifact");
        self.layers.add(&Layers {
            requests: 1,
            response_bytes: reply.bytes as u64,
            handle_ms,
            elaborate_ms,
            wait_ms: wait.as_secs_f64() * 1e3,
            warm: u64::from(artifact == "warm"),
            incremental: u64::from(artifact == "incremental"),
            cold: u64::from(artifact == "cold"),
            models_rebuilt: reply.num("timings", "models_rebuilt") as u64,
            attempts: tcs
                .iter()
                .filter_map(|t| t.get("attempts").and_then(Json::as_u64))
                .sum(),
            testcases: tcs.len() as u64,
        });
    }
}

/// The running server and its client connections.
pub struct ServeMixed {
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    expected: Expected,
}

impl ServeMixed {
    /// Starts the server, connects the clients and warms every artifact
    /// the mix uses (each full scale once, then mixed requests).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn setup(seed: u64, traced: bool) -> std::io::Result<(ServeMixed, OpStats)> {
        let server = dft_serve::start(serve_config())?;
        let origin = Instant::now();
        let mut clients = Vec::new();
        for i in 0..SERVE_CLIENTS {
            let (writer, reader) = connect(&server)?;
            clients.push(Client {
                writer,
                reader,
                mix: Mix::new(seed, i),
                stats: OpStats::default(),
                tracer: traced.then(|| Tracer::new(origin)),
                requests: 0,
                layers: Layers::default(),
                class_ns: [[(0, 0); CLASSES]; 2],
            });
        }
        let expected = Expected::load();
        let mut warmup = OpStats::default();
        let first = &mut clients[0];
        // Every full scale once, then the two keys that must stay warm
        // (the 8-entry cache has evicted them by then).
        let mut lines: Vec<Planned> = FULL_SCALES
            .map(|fs| first.mix.plan(Class::SensorScale, fs))
            .into();
        lines.push(first.mix.plan(Class::SensorNamed, 0.0));
        lines.push(first.mix.plan(Class::LifterNamed, 0.0));
        for p in &lines {
            let reply = roundtrip(&mut first.writer, &mut first.reader, &p.line)?;
            let ok = Reply::parse(&reply).is_ok_and(|r| r.str("status") == "ok");
            warmup.attempt(&if ok {
                Vec::new()
            } else {
                vec![format!("warm-up request failed: {}", reply.trim_end())]
            });
        }
        let mut bench = ServeMixed {
            server: Some(server),
            clients,
            expected,
        };
        for c in &mut bench.clients {
            let tracer = c.tracer.take();
            for _ in 0..WARMUP_REQUESTS {
                let p = c.mix.next();
                let r = roundtrip(&mut c.writer, &mut c.reader, &p.line)
                    .map_err(|e| e.to_string())
                    .and_then(|r| Reply::parse(&r));
                warmup.attempt(&match r {
                    Ok(reply) => check(&p, &reply, &bench.expected),
                    Err(e) => vec![e],
                });
            }
            c.tracer = tracer;
        }
        Ok((bench, warmup))
    }

    /// Runs both clients concurrently until `deadline`, then folds their
    /// ops into `stats`.
    pub fn run_until(&mut self, deadline: Instant, stats: &mut OpStats) {
        let expected = &self.expected;
        std::thread::scope(|s| {
            for c in &mut self.clients {
                s.spawn(move || c.run_until(deadline, expected));
            }
        });
        for c in &mut self.clients {
            stats.merge(std::mem::take(&mut c.stats));
        }
    }

    /// Stops the server and waits for its threads.
    pub fn finish(&mut self) {
        if let Some(server) = self.server.take() {
            server.begin_shutdown();
            let _ = server.wait();
        }
    }

    /// Per-layer metrics of a traced phase.
    pub fn layer_metrics(&self) -> (Vec<Metric>, Vec<Span>) {
        let tracers: Vec<Tracer> = self
            .clients
            .iter()
            .filter_map(|c| c.tracer.clone())
            .collect();
        let spans = crate::trace::merge(&tracers);
        let sums = summarise(&spans);
        let mut l = Layers::default();
        let mut class_ns = [[(0u64, 0u64); CLASSES]; 2];
        for c in &self.clients {
            l.add(&c.layers);
            for (sum, side) in class_ns.iter_mut().zip(&c.class_ns) {
                for (s, x) in sum.iter_mut().zip(side) {
                    s.0 += x.0;
                    s.1 += x.1;
                }
            }
        }
        // Overhead per class, weighted by how often each class ran, so a
        // different class mix on the two sides does not read as overhead.
        let (mut extra, mut base) = (0.0, 0.0);
        for (&un, &tr) in class_ns[0].iter().zip(&class_ns[1]) {
            if un.1 > 0 && tr.1 > 0 {
                let n = (un.1 + tr.1) as f64;
                let mu = un.0 as f64 / un.1 as f64;
                extra += n * (tr.0 as f64 / tr.1 as f64 - mu);
                base += n * mu;
            }
        }
        let n = l.requests.max(1) as f64;
        let parse_us = sums
            .get("serve.parse")
            .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1e3);
        let metrics = vec![
            Metric::new("serve.parse_us", parse_us, "us"),
            Metric::new(
                "serve.response_kb",
                l.response_bytes as f64 / n / 1024.0,
                "KiB",
            ),
            Metric::new("serve.handle_ms", l.handle_ms / n, "ms"),
            Metric::new("serve.elaborate_ms", l.elaborate_ms / n, "ms"),
            Metric::new("serve.wait_ms", l.wait_ms / n, "ms"),
            Metric::new("serve.cache_hit_ratio", l.warm as f64 / n, "ratio"),
            Metric::new("serve.artifact_incremental", l.incremental as f64, "count"),
            Metric::new("serve.artifact_cold", l.cold as f64, "count"),
            Metric::new("serve.models_rebuilt", l.models_rebuilt as f64, "count"),
            Metric::new(
                "serve.attempts_per_testcase",
                l.attempts as f64 / l.testcases.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "obs.trace_overhead_pct",
                100.0 * extra / base.max(1e-9),
                "%",
            ),
        ];
        (metrics, spans)
    }
}

/// A cold start in a fresh process: server start until the first request
/// of each design (sensor, window lifter) is answered. Returns (set-up
/// time, summed `elaborate_ms` of those requests, problems).
pub fn cold_start() -> (Duration, Duration, Vec<String>) {
    let expected = Expected::load();
    let mut checks = Checks::default();
    let t0 = Instant::now();
    let server = match dft_serve::start(serve_config()) {
        Ok(server) => server,
        Err(e) => return (t0.elapsed(), Duration::ZERO, vec![format!("start: {e}")]),
    };
    let mut elaborate_ms = 0.0;
    let first_requests = [
        (
            "sensor",
            r#"{"op":"analyse","id":"cold-sensor","threads":1,"design":"sensor","testcases":["TC1"],"tables":false}"#,
        ),
        (
            "window-lifter",
            r#"{"op":"analyse","id":"cold-lifter","threads":1,"design":"window-lifter","testcases":["idle"],"tables":false}"#,
        ),
    ];
    let answered = connect(&server).and_then(|(mut w, mut r)| {
        let mut replies = Vec::new();
        for (design, line) in first_requests {
            replies.push((design, roundtrip(&mut w, &mut r, line)?));
        }
        Ok(replies)
    });
    let setup = t0.elapsed();
    match answered {
        Ok(replies) => {
            for (design, line) in replies {
                match Reply::parse(&line) {
                    Ok(reply) => {
                        elaborate_ms += reply.num("timings", "elaborate_ms");
                        let rebuilt = reply.num("timings", "models_rebuilt");
                        let models = expected.models.get(design).copied().unwrap_or(0);
                        checks.expect(
                            reply.str("status") == "ok"
                                && reply.str("artifact") == "cold"
                                && rebuilt == models as f64,
                            || {
                                format!(
                                    "{design}: first request {} / artifact {} rebuilt {rebuilt} of {models} models",
                                    reply.str("status"),
                                    reply.str("artifact")
                                )
                            },
                        );
                    }
                    Err(e) => checks.0.push(e),
                }
            }
        }
        Err(e) => checks.0.push(format!("first requests: {e}")),
    }
    server.begin_shutdown();
    let _ = server.wait();
    (
        setup,
        Duration::from_secs_f64(elaborate_ms.max(0.0) / 1e3),
        checks.0,
    )
}
