//! Property-based tests over the core data structures and invariants,
//! spanning crates: frontend round-trips, dataflow soundness, schedule
//! balance, coverage monotonicity and kernel determinism.

use proptest::prelude::*;

use systemc_ams_dft::dft::{Association, Classification, Coverage, StaticAnalysis, TestcaseResult};
use systemc_ams_dft::flow::{
    enumerate_du_paths, path_facts, BitSet, Cfg, DuPair, PathFacts, ReachingDefs,
};
use systemc_ams_dft::signals::Signal;
use systemc_ams_dft::sim::SimTime;

// ---------------------------------------------------------------- frontend

/// Generates a random minic program body over a small variable pool:
/// assignments, if/else and while blocks (bounded nesting).
fn arb_body(depth: u32) -> BoxedStrategy<String> {
    let vars = prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")];
    let expr = {
        let v = vars.clone();
        (v, 0i64..100, prop_oneof![Just("+"), Just("*"), Just("-")])
            .prop_map(|(x, k, op)| format!("{x} {op} {k}"))
    };
    let assign = (vars.clone(), expr.clone()).prop_map(|(t, e)| format!("{t} = {e};"));
    if depth == 0 {
        return prop::collection::vec(assign, 1..4)
            .prop_map(|v| v.join("\n"))
            .boxed();
    }
    let nested = arb_body(depth - 1);
    let iff = (vars.clone(), nested.clone(), nested.clone())
        .prop_map(|(c, t, e)| format!("if ({c} > 10) {{\n{t}\n}} else {{\n{e}\n}}"));
    let stmt = prop_oneof![3 => assign, 1 => iff];
    prop::collection::vec(stmt, 1..5)
        .prop_map(|v| v.join("\n"))
        .boxed()
}

/// Words of the minic grammar, so generated input gets past the lexer
/// and into the parser.
const MINIC_WORDS: &str = "void M :: processing ( ) { } ; = += ++ -- x ip_in op_out . write \
                           read , 1 2.5 true double int bool if else while for return break \
                           continue + - * / % ! && || == != < >=";

/// Printable ASCII: either arbitrary characters, or grammar words and
/// line breaks in any order, half the time after a function head.
fn arb_printable_source() -> impl Strategy<Value = String> {
    let words: Vec<&str> = MINIC_WORDS.split_whitespace().chain(["\n"]).collect();
    let word = (0..words.len()).prop_map(move |i| words[i]);
    let soup = (any::<bool>(), prop::collection::vec(word, 0..60)).prop_map(|(head, words)| {
        let head = if head { "void M::processing() { " } else { "" };
        format!("{head}{}", words.join(" "))
    });
    prop_oneof!["[ -~\n]{0,200}", soup]
}

fn arb_program() -> impl Strategy<Value = String> {
    arb_body(2).prop_map(|body| {
        format!("void M::processing()\n{{\na = 1;\nb = 2;\nc = 3;\nd = 4;\n{body}\n}}")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse → pretty → parse is a fixed point (structural round-trip).
    #[test]
    fn minic_pretty_parse_roundtrip(src in arb_program()) {
        let tu1 = minic::parse(&src).expect("generated programs parse");
        let printed1 = minic::pretty(&tu1);
        let tu2 = minic::parse(&printed1).expect("printed programs parse");
        let printed2 = minic::pretty(&tu2);
        prop_assert_eq!(printed1, printed2);
    }

    /// The lexer never panics on arbitrary ASCII input.
    #[test]
    fn lexer_total_on_ascii(src in "[ -~\n]{0,200}") {
        let _ = minic::lex(&src); // Ok or Err, never panic
    }

    /// The parser never panics on arbitrary printable input: `parse`
    /// returns `Ok`, or an error located inside the input (at most one
    /// column past the end of its line).
    #[test]
    fn parse_total_on_ascii(src in arb_printable_source()) {
        if let Err(e) = minic::parse(&src) {
            let loc = e.loc();
            let lines: Vec<&str> = src.split('\n').collect();
            prop_assert!(
                loc.line >= 1 && loc.line as usize <= lines.len(),
                "{e} lies outside {} lines", lines.len()
            );
            let width = lines[loc.line as usize - 1].len() as u32;
            prop_assert!(
                loc.col >= 1 && loc.col <= width + 1,
                "{e} lies outside a {width}-column line"
            );
        }
    }

    /// Every def-use pair found by reaching definitions has at least one
    /// explicit du-path, and the path facts agree with enumeration.
    #[test]
    fn reaching_pairs_have_du_paths(src in arb_program()) {
        let tu = minic::parse(&src).expect("parses");
        let cfg = Cfg::from_function(&tu.functions[0]);
        let rd = ReachingDefs::compute(&cfg);
        for pair in rd.pairs() {
            let paths = enumerate_du_paths(&cfg, &rd, pair, 512);
            // Acyclic enumeration can miss cycle-only pairs but these
            // programs are loop-free, so a du-path must exist.
            prop_assert!(
                paths.iter().any(|p| p.is_du_path),
                "pair {:?} has no du-path", pair
            );
            let facts = path_facts(&cfg, &rd, pair);
            prop_assert!(facts.has_du_path);
            if paths.len() < 512 {
                let enum_non_du = paths.iter().any(|p| !p.is_du_path);
                prop_assert_eq!(facts.has_non_du_path, enum_non_du);
            }
        }
    }
}

// ------------------------------------------------------- reachability cache

/// Like [`arb_body`] but with `while` loops in the mix, so the generated
/// CFGs contain cycles (the interesting case for the closure cache).
fn arb_loopy_body(depth: u32) -> BoxedStrategy<String> {
    let vars = prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")];
    let assign =
        (vars.clone(), vars.clone(), 0i64..100).prop_map(|(t, x, k)| format!("{t} = {x} + {k};"));
    if depth == 0 {
        return prop::collection::vec(assign, 1..4)
            .prop_map(|v| v.join("\n"))
            .boxed();
    }
    let nested = arb_loopy_body(depth - 1);
    let iff = (vars.clone(), nested.clone(), nested.clone())
        .prop_map(|(c, t, e)| format!("if ({c} > 10) {{\n{t}\n}} else {{\n{e}\n}}"));
    let wh =
        (vars.clone(), nested.clone()).prop_map(|(c, b)| format!("while ({c} < 50) {{\n{b}\n}}"));
    let stmt = prop_oneof![3 => assign, 1 => iff, 2 => wh];
    prop::collection::vec(stmt, 1..5)
        .prop_map(|v| v.join("\n"))
        .boxed()
}

fn arb_loopy_program() -> impl Strategy<Value = String> {
    arb_loopy_body(2).prop_map(|body| {
        format!("void M::processing()\n{{\na = 1;\nb = 2;\nc = 3;\nd = 4;\n{body}\n}}")
    })
}

/// The reference for [`path_facts`]: the same question answered with a
/// fresh BFS per query instead of the cached transitive closure.
fn path_facts_uncached(cfg: &Cfg, rd: &ReachingDefs, pair: &DuPair) -> PathFacts {
    let from_def = cfg.reachable_from(rd.def(pair.def).node, 1);
    let has_non_du_path = rd.defs_of(&pair.var).iter().any(|other| {
        other.id != pair.def
            && from_def.contains(other.node)
            && cfg.reachable_from(other.node, 1).contains(pair.use_node)
    });
    PathFacts {
        has_du_path: true,
        has_non_du_path,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cached transitive closure answers exactly what a fresh BFS
    /// answers, for every node of random cyclic CFGs (plain and with the
    /// activation loop), and the cached path facts match the uncached
    /// reference implementation on every reaching pair.
    #[test]
    fn closure_cache_agrees_with_fresh_bfs(src in arb_loopy_program()) {
        let tu = minic::parse(&src).expect("generated programs parse");
        let plain = Cfg::from_function(&tu.functions[0]);
        let looped = plain.looped();
        for cfg in [&plain, &looped] {
            for v in 0..cfg.len() {
                prop_assert_eq!(
                    cfg.reaches(v),
                    &cfg.reachable_from(v, 1),
                    "closure row of n{} in\n{}", v, src
                );
            }
            let rd = ReachingDefs::compute(cfg);
            for pair in rd.pairs() {
                prop_assert_eq!(
                    path_facts(cfg, &rd, pair),
                    path_facts_uncached(cfg, &rd, pair)
                );
            }
        }
    }
}

// ---------------------------------------------------------------- bitset

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// BitSet behaves like a HashSet<usize> under insert/remove/union.
    #[test]
    fn bitset_models_hashset(
        ops in prop::collection::vec((0usize..200, prop::bool::ANY), 0..100)
    ) {
        use std::collections::HashSet;
        let mut bs = BitSet::new(200);
        let mut hs: HashSet<usize> = HashSet::new();
        for (i, insert) in ops {
            if insert {
                prop_assert_eq!(bs.insert(i), hs.insert(i));
            } else {
                prop_assert_eq!(bs.remove(i), hs.remove(&i));
            }
        }
        prop_assert_eq!(bs.len(), hs.len());
        let mut from_bs: Vec<usize> = bs.iter().collect();
        let mut from_hs: Vec<usize> = hs.into_iter().collect();
        from_bs.sort_unstable();
        from_hs.sort_unstable();
        prop_assert_eq!(from_bs, from_hs);
    }
}

// ---------------------------------------------------------------- signals

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Ramps stay within their endpoint envelope.
    #[test]
    fn ramp_bounded(
        from in -100.0f64..100.0,
        to in -100.0f64..100.0,
        t_us in 0u64..10_000
    ) {
        let s = Signal::Ramp {
            from,
            to,
            start: SimTime::from_us(100),
            end: SimTime::from_us(900),
        };
        let v = s.value_at(SimTime::from_us(t_us));
        let (lo, hi) = (from.min(to), from.max(to));
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo}, {hi}]");
    }

    /// Triangles stay within their envelope and return to base.
    #[test]
    fn triangle_bounded(
        from in -10.0f64..10.0,
        to in -10.0f64..10.0,
        t_us in 0u64..2_000
    ) {
        let s = Signal::sweep(from, to, SimTime::ZERO, SimTime::from_us(1000));
        let v = s.value_at(SimTime::from_us(t_us));
        let (lo, hi) = (from.min(to), from.max(to));
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        prop_assert_eq!(s.value_at(SimTime::from_us(1500)), from);
    }

    /// Noise is deterministic in its seed and bounded.
    #[test]
    fn noise_deterministic(seed in any::<u64>(), t_us in 0u64..1_000) {
        let mk = || Signal::Noise {
            lo: -1.0,
            hi: 1.0,
            seed,
            hold: SimTime::from_us(10),
        };
        let t = SimTime::from_us(t_us);
        let v1 = mk().value_at(t);
        let v2 = mk().value_at(t);
        prop_assert_eq!(v1, v2);
        prop_assert!((-1.0..=1.0).contains(&v1));
    }

    /// sample_vec has exactly duration/timestep entries.
    #[test]
    fn sample_vec_length(n in 1u64..500) {
        let s = Signal::Constant(1.0);
        let v = s.sample_vec(SimTime::from_us(7), SimTime::from_us(7 * n));
        prop_assert_eq!(v.len() as u64, n);
    }
}

// ---------------------------------------------------------------- coverage

fn arb_assocs() -> impl Strategy<Value = Vec<Association>> {
    prop::collection::vec((0u32..20, 0u32..20), 1..30).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(d, u)| Association::new("v", d, "M", u, "M"))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adding a testcase never decreases coverage, and class ratios always
    /// sum to the total.
    #[test]
    fn coverage_monotone_and_consistent(
        assocs in arb_assocs(),
        hits1 in prop::collection::vec(any::<bool>(), 30),
        hits2 in prop::collection::vec(any::<bool>(), 30),
    ) {
        let mut dedup = assocs;
        dedup.sort();
        dedup.dedup();
        let statics = StaticAnalysis {
            associations: dedup
                .iter()
                .cloned()
                .map(|assoc| systemc_ams_dft::dft::ClassifiedAssoc {
                    assoc,
                    class: Classification::Strong,
                })
                .collect(),
            lints: Vec::new(),
            subsumption: Default::default(),
        };
        let pick = |hits: &[bool]| -> TestcaseResult {
            let mut exercised_idx = BitSet::new(dedup.len());
            for (i, _) in hits.iter().enumerate().take(dedup.len()).filter(|(_, h)| **h) {
                exercised_idx.insert(i);
            }
            TestcaseResult {
                name: "tc".into(),
                exercised: exercised_idx.iter().map(|i| dedup[i].clone()).collect(),
                exercised_idx,
                ..TestcaseResult::default()
            }
        };
        let one = Coverage::evaluate(&statics, &[pick(&hits1)]);
        let two = Coverage::evaluate(&statics, &[pick(&hits1), pick(&hits2)]);
        prop_assert!(two.exercised_count() >= one.exercised_count());

        // Class ratios partition the total.
        let total: usize = Classification::ALL
            .into_iter()
            .map(|c| two.class_ratio(c).1)
            .sum();
        prop_assert_eq!(total, two.associations().len());
        let covered: usize = Classification::ALL
            .into_iter()
            .map(|c| two.class_ratio(c).0)
            .sum();
        prop_assert_eq!(covered, two.exercised_count());
    }
}

// ---------------------------------------------------------------- schedule

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For a producer/consumer pair with arbitrary rates, the computed
    /// repetition vector satisfies the balance equation and the period is
    /// consistent.
    #[test]
    fn schedule_balance_equations(ra in 1usize..7, rb in 1usize..7) {
        use systemc_ams_dft::sim::{
            Cluster, compute_schedule, ModuleSpec, PortSpec, ProcessingCtx, TdfModule,
        };
        struct Stub(String, ModuleSpec);
        impl TdfModule for Stub {
            fn name(&self) -> &str { &self.0 }
            fn spec(&self) -> ModuleSpec { self.1.clone() }
            fn processing(&mut self, _ctx: &mut ProcessingCtx<'_>) {}
        }
        let mut c = Cluster::new("top");
        let a = c.add_module(Box::new(Stub(
            "a".into(),
            ModuleSpec::new()
                .output(PortSpec::new("o").with_rate(ra))
                .with_timestep(SimTime::from_us(ra as u64 * rb as u64)),
        ))).unwrap();
        let b = c.add_module(Box::new(Stub(
            "b".into(),
            ModuleSpec::new().input(PortSpec::new("i").with_rate(rb)),
        ))).unwrap();
        c.connect(a, "o", b, "i").unwrap();
        let s = compute_schedule(&c).unwrap();
        prop_assert_eq!(
            s.repetitions[0] as usize * ra,
            s.repetitions[1] as usize * rb,
            "balance equation"
        );
        prop_assert_eq!(s.period, s.timesteps[0] * s.repetitions[0]);
        prop_assert_eq!(s.period, s.timesteps[1] * s.repetitions[1]);
        // The firing sequence is admissible: tokens never go negative.
        let mut tokens = 0i64;
        for &m in &s.firings {
            if m == 0 { tokens += ra as i64; } else {
                tokens -= rb as i64;
                prop_assert!(tokens >= 0, "b fired without enough samples");
            }
        }
    }
}

// ---------------------------------------------------------------- kernel

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Simulating the same seeded design twice gives identical traces and
    /// identical coverage (full determinism).
    #[test]
    fn kernel_and_coverage_deterministic(seed in any::<u64>()) {
        use systemc_ams_dft::models::sensor::{
            build_sensor_cluster, sensor_design, BUGGY_ADC_FULL_SCALE, TS_CHANNEL,
        };
        use systemc_ams_dft::signals::Testcase;
        use systemc_ams_dft::dft::DftSession;

        let tc = Testcase::new("noise", SimTime::from_us(600)).with(
            TS_CHANNEL,
            Signal::Noise { lo: 0.0, hi: 0.3, seed, hold: SimTime::from_us(20) },
        );
        let run = || {
            let design = sensor_design(BUGGY_ADC_FULL_SCALE).unwrap();
            let mut session = DftSession::new(design).unwrap();
            let (cluster, probes) = build_sensor_cluster(&tc, BUGGY_ADC_FULL_SCALE).unwrap();
            session.run_testcase("noise", cluster, tc.duration).unwrap();
            (session.coverage().exercised_count(), probes.adc_out.values_f64())
        };
        let (c1, t1) = run();
        let (c2, t2) = run();
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(t1, t2);
    }
}

// ---------------------------------------------------------------- dominators

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dominator sanity on random programs: the entry dominates every
    /// reachable node; immediate dominators are themselves dominators; and
    /// dominance is transitive along idom chains.
    #[test]
    fn dominator_invariants(src in arb_program()) {
        use systemc_ams_dft::flow::Dominators;
        let tu = minic::parse(&src).expect("parses");
        let cfg = Cfg::from_function(&tu.functions[0]);
        let dom = Dominators::compute(&cfg);
        for n in 0..cfg.len() {
            if dom.idom(n).is_none() {
                continue; // unreachable
            }
            prop_assert!(dom.dominates(cfg.entry(), n));
            prop_assert!(dom.dominates(n, n), "reflexive");
            if n != cfg.entry() {
                let i = dom.idom(n).unwrap();
                prop_assert!(dom.dominates(i, n), "idom dominates");
                // Transitivity: idom's idom also dominates n.
                if let Some(gi) = dom.idom(i) {
                    prop_assert!(dom.dominates(gi, n));
                }
            }
        }
    }

    /// Liveness is consistent with reaching definitions: if a def reaches a
    /// use of the same variable, the variable is live-out at the def node.
    #[test]
    fn liveness_consistent_with_reaching(src in arb_program()) {
        use systemc_ams_dft::flow::Liveness;
        let tu = minic::parse(&src).expect("parses");
        let cfg = Cfg::from_function(&tu.functions[0]);
        let rd = ReachingDefs::compute(&cfg);
        let lv = Liveness::compute(&cfg, &[]);
        for pair in rd.pairs() {
            let def_node = rd.def(pair.def).node;
            if def_node == pair.use_node {
                continue; // same-node pairs read before the def
            }
            prop_assert!(
                lv.is_live_out(def_node, &pair.var),
                "{} reaches a use but is dead at its def", pair.var
            );
        }
    }
}

// ---------------------------------------------------------------- delays

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feedback loops elaborate iff the loop carries at least one delay
    /// token, and the schedule stays admissible with arbitrary extra delay.
    #[test]
    fn feedback_needs_delay(delay in 0usize..4) {
        use systemc_ams_dft::sim::{
            compute_schedule, Cluster, ModuleSpec, PortSpec, ProcessingCtx, TdfModule,
        };
        struct Stub(String, ModuleSpec);
        impl TdfModule for Stub {
            fn name(&self) -> &str { &self.0 }
            fn spec(&self) -> ModuleSpec { self.1.clone() }
            fn processing(&mut self, _ctx: &mut ProcessingCtx<'_>) {}
        }
        let mut c = Cluster::new("top");
        let a = c.add_module(Box::new(Stub(
            "a".into(),
            ModuleSpec::new()
                .input(PortSpec::new("i").with_delay(delay))
                .output(PortSpec::new("o"))
                .with_timestep(SimTime::from_us(1)),
        ))).unwrap();
        let b = c.add_module(Box::new(Stub(
            "b".into(),
            ModuleSpec::new()
                .input(PortSpec::new("i"))
                .output(PortSpec::new("o")),
        ))).unwrap();
        c.connect(a, "o", b, "i").unwrap();
        c.connect(b, "o", a, "i").unwrap();
        let result = compute_schedule(&c);
        if delay == 0 {
            prop_assert!(result.is_err(), "zero-delay loop must deadlock");
        } else {
            let s = result.expect("delayed loop schedules");
            prop_assert_eq!(s.firings.len(), 2);
            prop_assert_eq!(s.firings[0], 0, "delayed side fires first");
        }
    }
}
