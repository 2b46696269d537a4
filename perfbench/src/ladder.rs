//! The traced run: the per-layer metrics.
//!
//! Each round runs a cumulative ladder of public entry points over the
//! same batch of documents, one rung after another:
//!
//! | rung            | call                                             |
//! |-----------------|--------------------------------------------------|
//! | `xml.prescan`   | `flux_xml::simd::prescan_into`                   |
//! | `xml.reader`    | `XmlReader::advance` loop (DTD-seeded interner)  |
//! | `xsax.validate` | `XsaxParser::next_step` loop                     |
//! | `xsax.past`     | the same, with the plan's `past_regs` registered |
//! | `runtime.exec`  | `flux_runtime::execute_plan` into the sink       |
//! | `core.engine`   | `FluxEngine::run_input` into the sink            |
//!
//! Each rung does what the one below it does and more, so a layer's own
//! cost is the gap between adjacent rungs in the same round. Reference
//! rungs (tree build, the DOM and projection baselines, the 2-shard
//! reader, the cursor evaluator over pre-built trees) and an untraced
//! copy of the engine rung follow. Every call gets a span; the metrics
//! are derived from the spans when the rounds are done.

use crate::alloc;
use crate::measure::{host_ns_per_byte, median, Summary};
use crate::report::Outcome;
use crate::sink::HashSink;
use crate::trace::{Tracer, NO_DOC};
use crate::workloads::{Load, Spec};
use flux_dtd::Dtd;
use flux_lang::CompileOptions;
use flux_runtime::{compile_plan, execute_plan, Plan};
use flux_shard::{ShardConfig, ShardedReader};
use flux_xml::simd::{prescan_into, StructuralIndex};
use flux_xml::{Document, EventSource, RawEvent, ReaderConfig, TreeBuilder, XmlReader};
use flux_xquery::{CompiledExpr, CountingSink, CursorEvaluator, Slots};
use flux_xsax::{seeded_symbols, XsaxConfig, XsaxParser};
use fluxquery_core::{AnyEngine, EngineKind, FluxEngine, Input, Options};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cumulative ladder, bottom to top: each rung with its total and
/// self-cost metric.
const LADDER: [(&str, &str, &str); 6] = [
    ("xml.prescan", "xml.prescan.ns_per_byte", ""),
    (
        "xml.reader",
        "xml.reader.ns_per_byte",
        "xml.reader.self_ns_per_byte",
    ),
    (
        "xsax.validate",
        "xsax.validate.ns_per_byte",
        "xsax.validate.self_ns_per_byte",
    ),
    (
        "xsax.past",
        "xsax.past.ns_per_byte",
        "xsax.past.self_ns_per_byte",
    ),
    (
        "runtime.exec",
        "runtime.exec.ns_per_byte",
        "runtime.exec.self_ns_per_byte",
    ),
    (
        "core.engine",
        "core.engine.ns_per_byte",
        "core.engine.self_ns_per_byte",
    ),
];

/// Timed repetitions of each compile stage.
const SETUP_REPS: usize = 51;
/// Root-only document runs per round.
const EMPTY_REPS: usize = 50;

/// A document built into a tree with its query compiled against the
/// tree's names: the input of the evaluator rung.
struct EvalInput {
    tree: Document,
    expr: CompiledExpr,
    slots: Slots,
}

struct Engines {
    dtd: Dtd,
    plan: Plan,
    flux: FluxEngine,
    dom: AnyEngine,
    projection: AnyEngine,
}

pub fn run(
    spec: &Spec,
    load: &Load,
    seconds: f64,
    corrupt: bool,
    trace_out: Option<&Path>,
    seed: u64,
) -> Outcome {
    let mut tr = Tracer::new();
    let mut out = Outcome::default();
    let (dtd, plan) = compile_stages(spec, load, &mut tr, &mut out);
    let eng = Engines {
        dtd,
        plan,
        flux: FluxEngine::compile(spec.query(), spec.dtd, &Options::new())
            .expect("workload query compiles"),
        dom: Options::new()
            .compile(EngineKind::Dom, spec.query(), spec.dtd)
            .expect("DOM baseline compiles"),
        projection: Options::new()
            .compile(EngineKind::Projection, spec.query(), spec.dtd)
            .expect("projection baseline compiles"),
    };
    census(&eng, load, &mut out);
    let eval_inputs: Vec<EvalInput> = load.batches[0]
        .clone()
        .map(|i| eval_input(spec, &load.docs[i]))
        .collect();

    let mut sink = HashSink::new();
    if corrupt {
        sink.corrupt_next_output();
    }
    let mut ctx = Round {
        eng: &eng,
        load,
        tr: &mut tr,
        out: &mut out,
        sink: &mut sink,
        eval_inputs,
        evaluator: CursorEvaluator::new(),
    };
    // Warm-up round: checked and counted, its spans dropped.
    let warm = ctx.tr.spans().len();
    ctx.round(0);
    ctx.tr.truncate(warm);

    let mut rounds = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut host = host_ns_per_byte(load.batch(0));
    for b in (0..load.batches.len()).cycle() {
        if Instant::now() >= deadline && rounds.len() >= 3 {
            break;
        }
        let eval_events = ctx.round(b) as f64;
        let after = host_ns_per_byte(load.batch((b + 1) % load.batches.len()));
        rounds.push(RoundInfo {
            bytes: load.batch_bytes[b] as f64,
            eval_events,
            host: (host + after) / 2.0,
        });
        host = after;
    }
    let (tr, mut out) = (tr, out);
    derive(&tr, &rounds, &mut out);
    if let Some(path) = trace_out {
        if let Err(e) = tr.write(path, spec.name, seed) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    out
}

/// Times the compile stages one by one under a `setup` span, each
/// repetition between two host-speed measurements; the last DTD and plan
/// are kept for the runtime rungs.
fn compile_stages(spec: &Spec, load: &Load, tr: &mut Tracer, out: &mut Outcome) -> (Dtd, Plan) {
    let probe = load.probe();
    let root = tr.begin("setup", 0, NO_DOC);
    let mut last = None;
    let mut host = host_ns_per_byte(probe.iter().copied());
    let mut stage_us: [Vec<f64>; 3] = Default::default();
    for _ in 0..SETUP_REPS {
        let s = tr.begin("flux_dtd::Dtd::parse", root, NO_DOC);
        let dtd = Dtd::parse(spec.dtd).expect("workload DTD parses");
        tr.end(s);
        let q = tr.begin("flux_lang::compile", root, NO_DOC);
        let query = flux_lang::compile(spec.query(), &dtd, &CompileOptions::default())
            .expect("workload query compiles");
        tr.end(q);
        let p = tr.begin("flux_runtime::compile_plan", root, NO_DOC);
        let plan = compile_plan(&query, &dtd).expect("plan compiles");
        tr.end(p);
        let after = host_ns_per_byte(probe.iter().copied());
        let factor = (host + after) / 2.0;
        host = after;
        for (us, id) in stage_us.iter_mut().zip([s, q, p]) {
            us.push(tr.span(id).ns() as f64 / 1e3 / factor);
        }
        last = Some((dtd, plan));
    }
    tr.end(root);
    out.metric("dtd.parse_us", median(&stage_us[0]));
    out.metric("fluxlang.compile_us", median(&stage_us[1]));
    out.metric("runtime.plan_us", median(&stage_us[2]));
    last.expect("at least one compile")
}

/// One untimed pass over every document for the exact counts: events,
/// output and buffer traffic, allocator calls, the DOM baseline's peak.
fn census(eng: &Engines, load: &Load, out: &mut Outcome) {
    let mut sink = HashSink::new();
    let (mut events, mut output, mut buffered, mut peak_nodes) = (0u64, 0u64, 0u64, 0usize);
    let mut allocs = 0u64;
    let (mut reader_events, mut dom_peak) = (0u64, 0usize);
    for (doc, &expected) in load.docs.iter().zip(&load.oracle) {
        sink.reset();
        let before = alloc::allocs();
        let stats = eng.flux.run_input(shared(doc), &mut sink);
        allocs += alloc::allocs() - before;
        match stats {
            Ok(stats) => {
                out.count(sink.digest() == expected);
                events += stats.events;
                output += stats.output_bytes;
                buffered += stats.total_buffered_bytes;
                peak_nodes = peak_nodes.max(stats.peak_buffer_nodes);
            }
            Err(_) => out.count(false),
        }
        let mut reader =
            XmlReader::with_symbols(&doc[..], ReaderConfig::default(), seeded_symbols(&eng.dtd));
        let read = drain(&mut reader);
        out.count(read.is_some());
        reader_events += read.unwrap_or(0);
        let dom = eng.dom.run_input(shared(doc), &mut sink);
        out.count(dom.is_ok());
        if let Ok(stats) = dom {
            dom_peak = dom_peak.max(stats.peak_buffer_bytes);
        }
    }
    let bytes = load.total_bytes as f64;
    out.metric("input_bytes", bytes);
    out.metric("xml.reader.events", reader_events as f64);
    out.metric("runtime.events", events as f64);
    out.metric("runtime.output_bytes", output as f64);
    out.metric("runtime.total_buffered_bytes", buffered as f64);
    out.metric("runtime.peak_buffer_nodes", peak_nodes as f64);
    out.metric("runtime.buffered_per_input_byte", buffered as f64 / bytes);
    out.metric(
        "heap.allocs_per_doc",
        allocs as f64 / load.docs.len() as f64,
    );
    out.metric("heap.allocs_per_mb", allocs as f64 / (bytes / 1e6));
    out.metric("baseline.dom.peak_buffer_bytes", dom_peak as f64);
}

fn eval_input(spec: &Spec, doc: &[u8]) -> EvalInput {
    let mut reader = XmlReader::new(doc);
    let mut builder = TreeBuilder::new().with_shared_text();
    let mut ev = RawEvent::new();
    while reader
        .next_into(&mut ev)
        .expect("generated documents parse")
    {
        builder
            .raw_event(reader.symbols(), &ev)
            .expect("generated documents build");
    }
    let tree = builder.finish().expect("generated documents build");
    let parsed = flux_xquery::parse_query(spec.query()).expect("workload query parses");
    let normalized = flux_xquery::normalize(&parsed).expect("workload query normalizes");
    let mut slot_map = flux_xquery::SlotMap::new();
    let root = slot_map.slot(flux_xquery::ROOT_VAR);
    let expr = flux_xquery::compile_expr(&normalized, &mut slot_map, &mut |label| {
        tree.symbols().lookup(label)
    })
    .expect("workload query compiles");
    let mut slots = slot_map.make_slots();
    slots[root] = Some(tree.document_node());
    EvalInput { tree, expr, slots }
}

struct Round<'a> {
    eng: &'a Engines,
    load: &'a Load,
    tr: &'a mut Tracer,
    out: &'a mut Outcome,
    sink: &'a mut HashSink,
    eval_inputs: Vec<EvalInput>,
    evaluator: CursorEvaluator,
}

impl Round<'_> {
    /// Runs every rung over batch `b`; returns the evaluator rung's
    /// output events.
    fn round(&mut self, b: usize) -> u64 {
        let docs = self.load.batches[b].clone();
        let (eng, load) = (self.eng, self.load);
        let round = self.tr.begin("round", 0, NO_DOC);

        self.rung(
            round,
            "xml.prescan",
            "prescan_into",
            docs.clone(),
            |_, doc| {
                let mut idx = StructuralIndex::new();
                prescan_into(doc, 0, &mut idx);
                black_box(&idx);
                true
            },
        );
        self.rung(
            round,
            "xml.reader",
            "XmlReader::advance",
            docs.clone(),
            |_, doc| {
                let mut reader =
                    XmlReader::with_symbols(doc, ReaderConfig::default(), seeded_symbols(&eng.dtd));
                drain(&mut reader).is_some()
            },
        );
        let validate = |doc: &[u8], past: bool| {
            let Ok(mut parser) = XsaxParser::new(doc, &eng.dtd) else {
                return false;
            };
            if past {
                for reg in &eng.plan.past_regs {
                    if parser
                        .register_past(reg.element, reg.labels.clone())
                        .is_err()
                    {
                        return false;
                    }
                }
            }
            loop {
                match parser.next_step() {
                    Ok(Some(_)) => {}
                    Ok(None) => return true,
                    Err(_) => return false,
                }
            }
        };
        self.rung(
            round,
            "xsax.validate",
            "XsaxParser::next_step",
            docs.clone(),
            |_, doc| validate(doc, false),
        );
        self.rung(
            round,
            "xsax.past",
            "XsaxParser::next_step+past",
            docs.clone(),
            |_, doc| validate(doc, true),
        );
        self.checked_rung(
            round,
            "runtime.exec",
            "execute_plan",
            docs.clone(),
            |i, sink| {
                execute_plan(
                    &eng.plan,
                    &eng.dtd,
                    &load.docs[i][..],
                    sink,
                    XsaxConfig::default(),
                )
                .is_ok()
            },
        );
        self.checked_rung(
            round,
            "core.engine",
            "FluxEngine::run_input",
            docs.clone(),
            |i, sink| eng.flux.run_input(shared(&load.docs[i]), sink).is_ok(),
        );

        // The engine rung again, with one span for the whole batch instead
        // of one per document: the difference is the tracing overhead.
        let untraced = self.tr.begin("core.engine.untraced", round, NO_DOC);
        for i in docs.clone() {
            self.sink.reset();
            let ok = eng
                .flux
                .run_input(shared(&load.docs[i]), &mut *self.sink)
                .is_ok();
            self.out.count(ok && self.sink.digest() == load.oracle[i]);
        }
        self.tr.end(untraced);

        let empty = self.tr.begin("core.engine.empty", round, NO_DOC);
        for _ in 0..EMPTY_REPS {
            let s = self.tr.begin("FluxEngine::run_input", empty, NO_DOC);
            self.sink.reset();
            let ok = eng
                .flux
                .run_input(shared(&load.root_only), &mut *self.sink)
                .is_ok();
            self.tr.end(s);
            self.out
                .count(ok && self.sink.digest() == load.root_only_oracle);
        }
        self.tr.end(empty);

        self.rung(
            round,
            "xml.tree.build",
            "TreeBuilder::raw_event",
            docs.clone(),
            |_, doc| {
                let mut reader = XmlReader::new(doc);
                let mut builder = TreeBuilder::new().with_shared_text();
                let mut ev = RawEvent::new();
                loop {
                    match reader.next_into(&mut ev) {
                        Ok(true) => {
                            if builder.raw_event(reader.symbols(), &ev).is_err() {
                                return false;
                            }
                        }
                        Ok(false) => return black_box(builder.finish()).is_ok(),
                        Err(_) => return false,
                    }
                }
            },
        );
        self.checked_rung(
            round,
            "baseline.dom",
            "DomEngine::run_input",
            docs.clone(),
            |i, sink| eng.dom.run_input(shared(&load.docs[i]), sink).is_ok(),
        );
        self.checked_rung(
            round,
            "baseline.projection",
            "ProjectionEngine::run_input",
            docs.clone(),
            |i, sink| {
                eng.projection
                    .run_input(shared(&load.docs[i]), sink)
                    .is_ok()
            },
        );
        self.rung(
            round,
            "shard.x2",
            "ShardedReader::advance",
            docs.clone(),
            |i, _| {
                let mut reader = ShardedReader::with_shared_bytes(
                    Arc::clone(&load.docs[i]),
                    ShardConfig::new(2),
                    seeded_symbols(&eng.dtd),
                );
                drain(&mut reader).is_some()
            },
        );

        let eval = self.tr.begin("xquery.eval", round, NO_DOC);
        let mut events = 0u64;
        for (k, input) in self.eval_inputs.iter_mut().enumerate() {
            let s = self.tr.begin("CursorEvaluator::eval", eval, k as u32);
            let mut sink = CountingSink::default();
            let ok = self
                .evaluator
                .eval(&input.tree, &input.expr, &mut input.slots, &mut sink)
                .is_ok();
            self.tr.end(s);
            self.out.count(ok);
            events += sink.events;
        }
        self.tr.end(eval);

        self.tr.end(round);
        events
    }

    /// A rung of calls that produce no output: one span per document.
    fn rung(
        &mut self,
        parent: u32,
        name: &'static str,
        call: &'static str,
        docs: std::ops::Range<usize>,
        mut f: impl FnMut(usize, &[u8]) -> bool,
    ) {
        let id = self.tr.begin(name, parent, NO_DOC);
        for i in docs {
            let s = self.tr.begin(call, id, i as u32);
            let ok = f(i, &self.load.docs[i][..]);
            self.tr.end(s);
            self.out.count(ok);
        }
        self.tr.end(id);
    }

    /// A rung of engine runs whose output is checked against the
    /// reference.
    fn checked_rung(
        &mut self,
        parent: u32,
        name: &'static str,
        call: &'static str,
        docs: std::ops::Range<usize>,
        mut f: impl FnMut(usize, &mut HashSink) -> bool,
    ) {
        let id = self.tr.begin(name, parent, NO_DOC);
        for i in docs {
            self.sink.reset();
            let s = self.tr.begin(call, id, i as u32);
            let ok = f(i, &mut *self.sink);
            self.tr.end(s);
            self.out
                .count(ok && self.sink.digest() == self.load.oracle[i]);
        }
        self.tr.end(id);
    }
}

/// Pulls every event from `source`: the event count, or `None` on an
/// error.
fn drain(source: &mut impl EventSource) -> Option<u64> {
    let mut events = 0;
    loop {
        match source.advance() {
            Ok(true) => events += 1,
            Ok(false) => return Some(events),
            Err(_) => return None,
        }
    }
}

fn shared(doc: &Arc<Vec<u8>>) -> Input {
    Input::from_shared_bytes(Arc::clone(doc))
}

/// What a round ran over, and the host speed factor around it.
struct RoundInfo {
    bytes: f64,
    eval_events: f64,
    host: f64,
}

/// Turns the spans into the per-layer metrics. Times are divided by the
/// round's host speed factor, as in the untraced run.
fn derive(tr: &Tracer, rounds: &[RoundInfo], out: &mut Outcome) {
    let child_ns = tr.child_ns();
    // Per round: each rung's summed call time and its own span time.
    let mut calls: Vec<HashMap<&str, f64>> = Vec::new();
    let mut spans: Vec<HashMap<&str, f64>> = Vec::new();
    let mut round_index = HashMap::new();
    let mut empty_us = Vec::new();
    for s in tr.spans() {
        if s.name == "round" {
            round_index.insert(s.id, calls.len());
            calls.push(HashMap::new());
            spans.push(HashMap::new());
        } else if let Some(&r) = round_index.get(&s.parent) {
            let host = rounds[r].host;
            calls[r].insert(s.name, child_ns[s.id as usize - 1] as f64 / host);
            spans[r].insert(s.name, s.ns() as f64 / host);
        } else if s.parent != 0 && tr.span(s.parent).name == "core.engine.empty" {
            let r = round_index[&tr.span(s.parent).parent];
            empty_us.push(s.ns() as f64 / 1e3 / rounds[r].host);
        }
    }
    assert_eq!(calls.len(), rounds.len(), "one round span per round");
    let per_round = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..calls.len()).map(f).collect() };
    let ns_per_byte = |rung: &str| per_round(&|r| calls[r][rung] / rounds[r].bytes);

    println!(
        "layer ladder over {} rounds (reference-scan ns per input byte: median [q1, q3])",
        calls.len()
    );
    let mut ladder_sum = 0.0;
    for (k, &(rung, total_metric, self_metric)) in LADDER.iter().enumerate() {
        let total = Summary::of(&ns_per_byte(rung));
        out.metric(total_metric, total.median);
        let own = if k == 0 {
            total
        } else {
            let below = LADDER[k - 1].0;
            let own = Summary::of(&per_round(&|r| {
                (calls[r][rung] - calls[r][below]) / rounds[r].bytes
            }));
            out.metric(self_metric, own.median);
            own
        };
        ladder_sum += own.median;
        println!(
            "  {rung:<14} {:>8.2} [{:.2}, {:.2}]   self {:>7.2} [{:.2}, {:.2}]",
            total.median, total.q1, total.q3, own.median, own.q1, own.q3
        );
    }
    let top = median(&ns_per_byte("core.engine"));
    let residual = (ladder_sum - top) / top;
    println!("  self costs sum to {ladder_sum:.2} ns/B; top rung {top:.2} ns/B (residual {residual:+.4})");
    out.metric("ladder.residual_frac", residual);
    out.metric("core.engine.empty_doc_us", median(&empty_us));
    out.metric(
        "xquery.eval.ns_per_output_event",
        median(&per_round(&|r| {
            calls[r]["xquery.eval"] / rounds[r].eval_events.max(1.0)
        })),
    );
    for (rung, metric) in [
        ("shard.x2", "shard.x2.ns_per_byte"),
        ("xml.tree.build", "xml.tree.build_ns_per_byte"),
        ("baseline.dom", "baseline.dom.ns_per_byte"),
        ("baseline.projection", "baseline.projection.ns_per_byte"),
    ] {
        let s = Summary::of(&ns_per_byte(rung));
        println!("  {rung:<20} {:>8.2} [{:.2}, {:.2}]", s.median, s.q1, s.q3);
        out.metric(metric, s.median);
    }
    out.metric(
        "shard.x2.speedup",
        median(&per_round(&|r| {
            calls[r]["xml.reader"] / calls[r]["shard.x2"]
        })),
    );
    let gap = Summary::of(&per_round(&|r| {
        (calls[r]["core.engine"] - calls[r]["baseline.dom"]) / rounds[r].bytes
    }));
    println!(
        "  FluX minus DOM {:+.2} ns/B [{:+.2}, {:+.2}]",
        gap.median, gap.q1, gap.q3
    );
    out.metric("gap.flux_minus_dom.ns_per_byte", gap.median);
    out.metric(
        "trace.overhead_frac",
        median(&per_round(&|r| {
            spans[r]["core.engine"] / spans[r]["core.engine.untraced"] - 1.0
        })),
    );
    let host = Summary::of(&rounds.iter().map(|r| r.host).collect::<Vec<_>>());
    println!(
        "  host speed: reference scan {:.3} ns/B (q1 {:.3}, q3 {:.3})",
        host.median, host.q1, host.q3
    );
    out.metric("host.ref_ns_per_byte", host.median);
    println!(
        "  fail_ratio {} ({} failed of {} attempted)",
        out.fail_ratio(),
        out.failed,
        out.attempted
    );
}
