//! Regenerates every experiment table of EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p flux-bench --bin experiments [--eN ...]`
//! With no arguments, all experiments run.

use flux_bench::{catalog, fmt_bytes, run_engine, workloads, Domain, Q3};
use flux_shard::{ShardConfig, ShardedReader};
use flux_xmlgen::{bib_string, BibConfig};
use fluxquery_core::{AnyEngine, EngineKind, FluxEngine, Input, Options};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = ["--accept-workload"];
    let want =
        |id: &str| args.iter().all(|a| flags.contains(&a.as_str())) || args.iter().any(|a| a == id);
    let accept_workload = args.iter().any(|a| a == "--accept-workload");

    if want("--e1") {
        e1_buffer_q3();
    }
    if want("--e2") {
        e2_strong_dtd();
    }
    if want("--e3") {
        e3_memory_scaling();
    }
    if want("--e4") {
        e4_runtime_scaling();
    }
    if want("--e5") {
        e5_query_suite();
    }
    if want("--e6") {
        e6_ablation_merge();
    }
    if want("--e7") {
        e7_ablation_unsat();
    }
    if want("--e8") {
        e8_xsax_throughput(accept_workload);
    }
    if want("--e9") {
        e9_ablation_scheduling();
    }
}

fn header(id: &str, title: &str, source: &str) {
    println!("\n=== {id}: {title} ===");
    println!("    (paper source: {source})\n");
}

/// E1 — Q3 under the weak DTD: per-engine peak memory (Sec. 2 claim:
/// FluXQuery buffers the authors of one book at a time).
fn e1_buffer_q3() {
    header(
        "E1",
        "buffer use for XMP Q3, weak DTD",
        "Sec. 2: 'we only need to buffer the author children of one book node at a time'",
    );
    println!(
        "{:<10} {:>8} {:>14} {:>14} {:>14}",
        "books", "input", "fluxquery", "projection", "dom"
    );
    for &books in &[100usize, 500, 2_500] {
        let doc = bib_string(&BibConfig::weak(books, 42));
        let mut row = format!("{books:<10} {:>8}", fmt_bytes(doc.len()));
        for kind in [EngineKind::Flux, EngineKind::Projection, EngineKind::Dom] {
            let outcome = run_engine(kind, Q3, Domain::BibWeak.dtd(), doc.as_bytes()).expect("run");
            row.push_str(&format!(
                " {:>14}",
                fmt_bytes(outcome.stats.peak_buffer_bytes)
            ));
        }
        println!("{row}");
    }
    println!("\nshape: fluxquery flat (one book's authors); projection and dom grow linearly.");
}

/// E2 — Q3 under Figure 1's DTD: zero buffering (Sec. 2).
fn e2_strong_dtd() {
    header(
        "E2",
        "Q3 under the strong Figure 1 DTD",
        "Sec. 2: 'no buffering is required to execute query Q'",
    );
    for (label, dtd, domain) in [
        ("weak DTD", Domain::BibWeak.dtd(), Domain::BibWeak),
        ("Fig. 1 DTD", Domain::BibFig1.dtd(), Domain::BibFig1),
    ] {
        let engine = FluxEngine::compile(Q3, dtd, &Options::default()).expect("compile");
        let doc = domain.document(5.0, 42);
        let (_, stats) = engine.run_to_string(&doc).expect("run");
        println!(
            "{label:<12} buffered handlers: {}   peak content buffered: {:>10}   (input {})",
            engine.buffered_handler_count(),
            fmt_bytes(stats.peak_buffer_bytes),
            fmt_bytes(doc.len()),
        );
    }
    println!(
        "\nshape: Fig. 1 eliminates the on-first handler; the residual peak is scope shells only."
    );
}

/// E3 — peak memory vs. document size (the companion paper's memory curve).
fn e3_memory_scaling() {
    header(
        "E3",
        "peak buffered memory vs. document size (Q3, weak DTD)",
        "[8]-style evaluation: 'far less memory than other XQuery systems'",
    );
    println!(
        "{:<8} {:>10} {:>14} {:>14} {:>14}",
        "scale", "input", "fluxquery", "projection", "dom"
    );
    for &scale in &[0.5f64, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let doc = Domain::BibWeak.document(scale, 42);
        let mut row = format!("{scale:<8} {:>10}", fmt_bytes(doc.len()));
        for kind in [EngineKind::Flux, EngineKind::Projection, EngineKind::Dom] {
            let outcome = run_engine(kind, Q3, Domain::BibWeak.dtd(), doc.as_bytes()).expect("run");
            row.push_str(&format!(
                " {:>14}",
                fmt_bytes(outcome.stats.peak_buffer_bytes)
            ));
        }
        println!("{row}");
    }
}

/// E4 — runtime vs. document size (the companion paper's runtime curve).
fn e4_runtime_scaling() {
    header(
        "E4",
        "runtime vs. document size (Q3, weak DTD)",
        "[8]-style evaluation: 'far less runtime'",
    );
    println!(
        "{:<8} {:>10} {:>14} {:>14} {:>14}",
        "scale", "input", "fluxquery", "projection", "dom"
    );
    for &scale in &[1.0f64, 4.0, 16.0, 64.0] {
        let doc = Arc::new(Domain::BibWeak.document(scale, 42).into_bytes());
        let mut row = format!("{scale:<8} {:>10}", fmt_bytes(doc.len()));
        for kind in [EngineKind::Flux, EngineKind::Projection, EngineKind::Dom] {
            let engine = AnyEngine::compile(kind, Q3, Domain::BibWeak.dtd()).expect("compile");
            // Best of three runs to dampen noise.
            let mut best = std::time::Duration::MAX;
            for _ in 0..3 {
                let mut out = Vec::new();
                let start = Instant::now();
                engine
                    .run_input(Input::from_shared_bytes(Arc::clone(&doc)), &mut out)
                    .expect("run");
                best = best.min(start.elapsed());
            }
            row.push_str(&format!(" {:>14.2?}", best));
        }
        println!("{row}");
    }
}

/// E5 — the full query catalog: memory and runtime per engine.
fn e5_query_suite() {
    header(
        "E5",
        "per-query peak memory and runtime across the catalog",
        "[8]-style evaluation over XMP/XMark-style workloads",
    );
    println!(
        "{:<10} {:>10} | {:>12} {:>12} {:>12} | {:>10} {:>10} {:>10}",
        "query", "input", "flux-mem", "proj-mem", "dom-mem", "flux-t", "proj-t", "dom-t"
    );
    for q in catalog() {
        let doc = Arc::new(q.domain.document(2.0, 42).into_bytes());
        let mut mems = Vec::new();
        let mut times = Vec::new();
        for kind in [EngineKind::Flux, EngineKind::Projection, EngineKind::Dom] {
            let engine = AnyEngine::compile(kind, q.query, q.domain.dtd()).expect("compile");
            let mut out = Vec::new();
            let start = Instant::now();
            let stats = engine
                .run_input(Input::from_shared_bytes(Arc::clone(&doc)), &mut out)
                .expect("run");
            times.push(start.elapsed());
            mems.push(stats.peak_buffer_bytes);
        }
        println!(
            "{:<10} {:>10} | {:>12} {:>12} {:>12} | {:>10.1?} {:>10.1?} {:>10.1?}",
            q.id,
            fmt_bytes(doc.len()),
            fmt_bytes(mems[0]),
            fmt_bytes(mems[1]),
            fmt_bytes(mems[2]),
            times[0],
            times[1],
            times[2],
        );
    }
}

/// E6 — ablation: loop merging (R1) on/off (Sec. 3.1 cardinality rule).
fn e6_ablation_merge() {
    header(
        "E6",
        "ablation: for-loop merging under cardinality constraints",
        "Sec. 3.1: merging two publisher loops into one",
    );
    let q = r#"<out>{ for $b in $ROOT/bib/book return
        <r>{ for $x in $b/publisher return <a>{$x}</a> }
           { for $y in $b/publisher return <bb>{$y}</bb> }</r> }</out>"#;
    let doc = Domain::BibFig1.document(8.0, 42);
    for (label, options) in [
        ("optimizer on ", Options::default()),
        ("optimizer off", Options::new().algebraic_optimizer(false)),
    ] {
        let engine = FluxEngine::compile(q, Domain::BibFig1.dtd(), &options).expect("compile");
        let start = Instant::now();
        let (_, stats) = engine.run_to_string(&doc).expect("run");
        println!(
            "{label}  R1 fired: {:<5}  buffered handlers: {}  peak: {:>10}  total buffered: {:>10}  runtime: {:.2?}",
            engine.query().algebra_trace.iter().any(|r| r.rule == "R1"),
            engine.buffered_handler_count(),
            fmt_bytes(stats.peak_buffer_bytes),
            fmt_bytes(stats.total_buffered_bytes as usize),
            start.elapsed(),
        );
    }
    println!("\nshape: with R1 one publisher pass; without it the second loop buffers publishers.");
}

/// E7 — ablation: unsatisfiable-conditional elimination (R2, Sec. 3.1).
fn e7_ablation_unsat() {
    header(
        "E7",
        "ablation: unsatisfiable conditional elimination",
        "Sec. 3.1: author = 'Goedel' and editor = 'Goedel' can never hold",
    );
    let q = r#"<out>{ for $b in $ROOT/bib/book return
        if ($b/author = "Goedel" and $b/editor = "Goedel") then <hit>{$b}</hit> else () }</out>"#;
    let doc = Domain::BibFig1.document(8.0, 42);
    for (label, options) in [
        ("optimizer on ", Options::default()),
        ("optimizer off", Options::new().algebraic_optimizer(false)),
    ] {
        let engine = FluxEngine::compile(q, Domain::BibFig1.dtd(), &options).expect("compile");
        let start = Instant::now();
        let (out, stats) = engine.run_to_string(&doc).expect("run");
        println!(
            "{label}  R2 fired: {:<5}  buffered handlers: {}  peak: {:>10}  runtime: {:.2?}  output: {} bytes",
            engine.query().algebra_trace.iter().any(|r| r.rule == "R2"),
            engine.buffered_handler_count(),
            fmt_bytes(stats.peak_buffer_bytes),
            start.elapsed(),
            out.len(),
        );
    }
    println!("\nshape: both produce the same (hit-free) output; with R2 the whole-book buffer disappears.");
}

/// E9 — ablation: the order-constraint scheduler itself. A FluX engine
/// that buffers everything (no streaming handlers) vs. the real scheduler.
fn e9_ablation_scheduling() {
    header(
        "E9",
        "ablation: order-constraint scheduling vs. buffer-everything FluX",
        "the paper's primary contribution (Sec. 3.1, step 3)",
    );
    println!(
        "{:<22} {:>10} | {:>12} {:>14} {:>10}",
        "configuration", "handlers", "peak-mem", "buffer-traffic", "runtime"
    );
    for (domain, label) in [
        (Domain::BibWeak, "weak DTD"),
        (Domain::BibFig1, "Fig. 1 DTD"),
    ] {
        let doc = domain.document(8.0, 42);
        for (config, options) in [
            ("scheduled", Options::default()),
            ("buffer-everything", Options::new().streaming(false)),
        ] {
            let engine = FluxEngine::compile(Q3, domain.dtd(), &options).expect("compile");
            let start = Instant::now();
            let (_, stats) = engine.run_to_string(&doc).expect("run");
            println!(
                "{:<22} {:>10} | {:>12} {:>14} {:>10.1?}",
                format!("{config} ({label})"),
                engine.buffered_handler_count(),
                fmt_bytes(stats.peak_buffer_bytes),
                fmt_bytes(stats.total_buffered_bytes as usize),
                start.elapsed(),
            );
        }
    }
    println!("\nshape: without scheduling, FluX degenerates to per-node buffering — the order");
    println!("constraints are what make the difference, not the FluX representation itself.");
}

/// Pre-refactor (string-event) E8 figures, recorded on the dev host that
/// landed the interned-symbol event core PR (best of three release runs,
/// `Domain::BibFig1.document(32.0, 42)`). They anchor the perf trajectory
/// in `BENCH_events.json`; the printed deltas are only meaningful on
/// comparable hardware — on other machines, trend `BENCH_events.json`
/// runs from the *same* host against each other instead.
const BASELINE_HOST_NOTE: &str =
    "recorded on the PR-2 dev host; cross-machine deltas are not meaningful — \
     compare same-host runs over time";
const BASELINE_RAW: (u64, f64) = (59_318, 0.00703);
const BASELINE_VALIDATE: (u64, f64) = (59_318, 0.00990);
const BASELINE_PAST: (u64, f64) = (62_518, 0.01003);

/// One timed measurement: events delivered and best-of-three seconds.
struct Measured {
    events: u64,
    seconds: f64,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.seconds
    }

    /// Best of `n` runs of `f`, which returns the event count.
    fn best_of(n: usize, mut f: impl FnMut() -> u64) -> Measured {
        let mut events = 0;
        let mut seconds = f64::MAX;
        for _ in 0..n {
            let start = Instant::now();
            events = f();
            seconds = seconds.min(start.elapsed().as_secs_f64());
        }
        Measured { events, seconds }
    }
}

/// The workload stamp recorded in `BENCH_events.json`. Perf-trajectory
/// comparisons are only meaningful against the same workload, so E8
/// refuses to overwrite a file recorded for a different one (see
/// [`verify_recorded_workload`]).
fn e8_workload_stamp(doc_len: usize) -> String {
    format!("Domain::BibFig1.document(32.0, 42), {doc_len} bytes (engines: Q3 over BibWeak 8.0)")
}

/// Extracts the string value of a top-level `"key": "value"` pair from
/// `BENCH_events.json` (our own generator never escapes quotes in it).
fn extract_json_str<'j>(json: &'j str, key: &str) -> Option<&'j str> {
    let marker = format!("\"{key}\": \"");
    let start = json.find(&marker)? + marker.len();
    let end = json[start..].find('"')?;
    Some(&json[start..start + end])
}

/// Refuses to proceed when an existing `BENCH_events.json` was recorded
/// for a different workload than the one this binary just generated:
/// silently overwriting it would make the perf trajectory compare apples
/// to oranges. `--accept-workload` re-baselines explicitly.
fn verify_recorded_workload(workload: &str, accept: bool) {
    let Ok(existing) = std::fs::read_to_string("BENCH_events.json") else {
        return; // first recording on this checkout
    };
    let Some(recorded) = extract_json_str(&existing, "workload") else {
        eprintln!("error: BENCH_events.json exists but has no workload stamp; refusing to guess.");
        eprintln!("rerun with --accept-workload to overwrite it.");
        std::process::exit(1);
    };
    if recorded == workload {
        return;
    }
    if accept {
        println!("re-baselining BENCH_events.json:\n  old workload: {recorded}\n  new workload: {workload}");
        return;
    }
    eprintln!("error: BENCH_events.json was recorded for a different workload:");
    eprintln!("  recorded:  {recorded}");
    eprintln!("  generated: {workload}");
    eprintln!("events/sec deltas against it would not be apples-to-apples.");
    eprintln!("rerun with --accept-workload to re-baseline deliberately.");
    std::process::exit(1);
}

/// E8 — XSAX overhead: raw parsing vs. validation vs. validation with
/// registered past queries (Sec. 3.2), on the interned-symbol hot path,
/// plus the parallel sharded pipeline at 1/2/4/8 shards. Also writes
/// `BENCH_events.json` so the perf trajectory is machine-readable.
fn e8_xsax_throughput(accept_workload: bool) {
    header(
        "E8",
        "XSAX throughput: parse vs. validate vs. validate + on-first vs. sharded",
        "Sec. 3.2: the XSAX validating parser",
    );
    use flux_dtd::Dtd;
    use flux_xsax::{PastLabels, XsaxParser};
    let doc = Domain::BibFig1.document(32.0, 42);
    let dtd = Dtd::parse(Domain::BibFig1.dtd()).expect("dtd");
    verify_recorded_workload(&e8_workload_stamp(doc.len()), accept_workload);

    // Phase one alone: the vectorised structural prescan over the whole
    // document. "events" for this stage are *bytes swept* — the stage
    // exists so a kernel regression is visible separately from the
    // phase-two parse that consumes the index.
    let prescan = Measured::best_of(3, || {
        let mut idx = flux_xml::simd::StructuralIndex::new();
        flux_xml::simd::prescan_into(doc.as_bytes(), 0, &mut idx);
        std::hint::black_box(&idx);
        doc.len() as u64
    });
    println!(
        "structural prescan:  {:>8} bytes in {:.2?}  ({:.0} MB/s, {} kernel)",
        prescan.events,
        std::time::Duration::from_secs_f64(prescan.seconds),
        prescan.events_per_sec() / 1e6,
        flux_xml::simd::active_isa_name(),
    );

    // Raw well-formedness parsing on the zero-copy view pull (advance();
    // payloads stay in the scanner window / recycled buffers).
    let raw = Measured::best_of(3, || {
        let mut events = 0u64;
        let mut reader = flux_xml::XmlReader::new(doc.as_bytes());
        while reader.advance().expect("parse") {
            events += 1;
        }
        events
    });
    println!(
        "raw parse:           {:>8} events in {:.2?}",
        raw.events,
        std::time::Duration::from_secs_f64(raw.seconds)
    );

    // Validating parse on the step protocol (next_step(); delivered
    // events stay borrowed in the source).
    let validated = Measured::best_of(3, || {
        let mut events = 0u64;
        let mut parser = XsaxParser::new(doc.as_bytes(), &dtd).expect("xsax");
        while parser.next_step().expect("validate").is_some() {
            events += 1;
        }
        events
    });
    println!(
        "xsax validate:       {:>8} events in {:.2?}",
        validated.events,
        std::time::Duration::from_secs_f64(validated.seconds)
    );

    // Zero-copy tape replay: record the stream once (untimed), then
    // measure pure view replay — this is the serial tape→consumer term of
    // the sharded pipeline, now span arithmetic instead of per-event
    // copies.
    let tape = {
        let mut reader = flux_xml::XmlReader::new(doc.as_bytes());
        let mut tape = flux_xml::EventTape::with_capacity(doc.len() / 16, doc.len() / 2);
        while reader.advance().expect("parse") {
            tape.push(&reader.view(), reader.event_start(), reader.position());
        }
        tape
    };
    let replay = Measured::best_of(3, || {
        let mut events = 0u64;
        let mut touched = 0usize;
        for i in 0..tape.len() {
            let v = tape.view(i, flux_xml::SymbolRemap::identity());
            touched += v.text().len() + v.attr_count();
            events += 1;
        }
        std::hint::black_box(touched);
        events
    });
    println!(
        "tape replay:         {:>8} events in {:.2?}",
        replay.events,
        std::time::Duration::from_secs_f64(replay.seconds)
    );

    // Validation plus a past query on every book.
    let book = dtd.lookup("book").expect("book");
    let title = dtd.lookup("title").expect("title");
    let author = dtd.lookup("author").expect("author");
    let with_past = Measured::best_of(3, || {
        let mut events = 0u64;
        let mut parser = XsaxParser::new(doc.as_bytes(), &dtd).expect("xsax");
        parser
            .register_past(book, PastLabels::labels([title, author]))
            .expect("register");
        while parser.next_step().expect("validate").is_some() {
            events += 1;
        }
        events
    });
    println!(
        "xsax + on-first:     {:>8} events in {:.2?}",
        with_past.events,
        std::time::Duration::from_secs_f64(with_past.seconds)
    );

    // Parallel sharded raw parse: same byte stream, N worker threads, one
    // stitched event tape replayed to the consumer.
    let mut parallel: Vec<(usize, Measured)> = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        // Build the input vector outside the timed region: the sequential
        // arm parses borrowed bytes, so charging the sharded arm a full
        // input memcpy would skew the recorded speedup.
        let mut m = Measured {
            events: 0,
            seconds: f64::MAX,
        };
        for _ in 0..3 {
            let bytes = doc.clone().into_bytes();
            let mut reader = ShardedReader::new(bytes, ShardConfig::new(shards));
            let mut events = 0u64;
            let start = Instant::now();
            while reader.advance().expect("sharded parse") {
                events += 1;
            }
            m.events = events;
            m.seconds = m.seconds.min(start.elapsed().as_secs_f64());
        }
        assert_eq!(m.events, raw.events, "sharded event count must match");
        println!(
            "sharded parse x{shards}:    {:>8} events in {:>8.2?}  ({:.2}x vs sequential raw)",
            m.events,
            std::time::Duration::from_secs_f64(m.seconds),
            m.events_per_sec() / raw.events_per_sec(),
        );
        parallel.push((shards, m));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("(host exposes {cores} core(s); shard speedup is bounded by available cores)");
    println!(
        "\nshape: validation costs a small constant factor over raw parsing; past tracking is\n\
         nearly free; zero-copy tape replay is an order of magnitude cheaper than parsing, so\n\
         sharding scales raw parsing with cores (pipelined validation hides the replay term)."
    );
    for (label, m, (base_events, base_secs)) in [
        ("raw parse", &raw, BASELINE_RAW),
        ("xsax validate", &validated, BASELINE_VALIDATE),
        ("xsax + on-first", &with_past, BASELINE_PAST),
    ] {
        let base_eps = base_events as f64 / base_secs;
        println!(
            "{label:<16} {:>10.0} events/s vs string-era baseline {:>10.0} events/s ({:+.1}%)",
            m.events_per_sec(),
            base_eps,
            (m.events_per_sec() / base_eps - 1.0) * 100.0,
        );
    }
    println!("(baseline {BASELINE_HOST_NOTE})");

    write_bench_events_json(
        &doc, &prescan, &raw, &replay, &validated, &with_past, &parallel,
    );
}

/// Emits `BENCH_events.json`: events/sec for the event pipeline (including
/// the sharded-parallel stage) plus events/sec and peak buffer bytes per
/// engine, with the pre-refactor string-event baseline alongside for trend
/// tracking.
fn write_bench_events_json(
    doc: &str,
    prescan: &Measured,
    raw: &Measured,
    replay: &Measured,
    validated: &Measured,
    past: &Measured,
    parallel: &[(usize, Measured)],
) {
    fn entry(m: &Measured) -> String {
        format!(
            "{{\"events\": {}, \"seconds\": {:.6}, \"events_per_sec\": {:.0}}}",
            m.events,
            m.seconds,
            m.events_per_sec()
        )
    }
    let mut engines = String::new();
    let engine_doc = Arc::new(Domain::BibWeak.document(8.0, 42).into_bytes());
    for (i, kind) in [EngineKind::Flux, EngineKind::Projection, EngineKind::Dom]
        .into_iter()
        .enumerate()
    {
        let engine = AnyEngine::compile(kind, Q3, Domain::BibWeak.dtd()).expect("compile");
        let mut peak = 0usize;
        let m = Measured::best_of(3, || {
            let mut out = Vec::new();
            let stats = engine
                .run_input(Input::from_shared_bytes(Arc::clone(&engine_doc)), &mut out)
                .expect("run");
            peak = stats.peak_buffer_bytes;
            stats.events
        });
        if i > 0 {
            engines.push_str(",\n");
        }
        engines.push_str(&format!(
            "    \"{}\": {{\"events\": {}, \"seconds\": {:.6}, \"events_per_sec\": {:.0}, \"peak_buffer_bytes\": {}}}",
            kind.label(),
            m.events,
            m.seconds,
            m.events_per_sec(),
            peak
        ));
    }
    // The evaluator stage: the compiled cursor evaluator over an
    // already-buffered document with a counting (non-writing) sink —
    // isolates pure evaluation throughput from parsing and serialisation.
    // "events" are output events produced per evaluation.
    {
        use flux_xml::tree::TreeBuilder;
        use flux_xml::{RawEvent, ReaderConfig, SymbolTable, XmlReader};
        let mut reader =
            XmlReader::with_symbols(&engine_doc[..], ReaderConfig::default(), SymbolTable::new());
        let mut builder = TreeBuilder::new().with_shared_text();
        let mut ev = RawEvent::new();
        while reader.next_into(&mut ev).expect("parse") {
            builder.raw_event(reader.symbols(), &ev).expect("build");
        }
        let doc = builder.finish().expect("tree");
        let parsed = flux_xquery::parse_query(Q3).expect("parse query");
        let normalized = flux_xquery::normalize(&parsed).expect("normalize");
        let mut slot_map = flux_xquery::SlotMap::new();
        let root_slot = slot_map.slot(flux_xquery::ROOT_VAR);
        let compiled = flux_xquery::compile_expr(&normalized, &mut slot_map, &mut |label| {
            doc.symbols().lookup(label)
        })
        .expect("compile");
        let mut slots = slot_map.make_slots();
        slots[root_slot] = Some(doc.document_node());
        let mut evaluator = flux_xquery::CursorEvaluator::new();
        let m = Measured::best_of(3, || {
            let mut sink = flux_xquery::CountingSink::default();
            evaluator
                .eval(&doc, &compiled, &mut slots, &mut sink)
                .expect("eval");
            sink.events
        });
        println!(
            "cursor evaluator:    {:>8} output events in {:.2?}  ({:.0} events/s, buffered doc)",
            m.events,
            std::time::Duration::from_secs_f64(m.seconds),
            m.events_per_sec(),
        );
        engines.push_str(&format!(
            ",\n    \"evaluator\": {{\"events\": {}, \"seconds\": {:.6}, \"events_per_sec\": {:.0}}}",
            m.events,
            m.seconds,
            m.events_per_sec()
        ));
    }
    let baseline = |&(events, seconds): &(u64, f64)| {
        format!(
            "{{\"events\": {}, \"seconds\": {:.6}, \"events_per_sec\": {:.0}}}",
            events,
            seconds,
            events as f64 / seconds
        )
    };
    // One instrumented sharded engine run: the unified pipeline RunReport
    // (per-shard parse/replay spans, bounded-channel stalls and dwell,
    // prescan counters, buffer residency). A build without `--features
    // telemetry` still embeds the structure, flagged `"telemetry": false`.
    let run_report = {
        let engine = FluxEngine::compile(Q3, Domain::BibWeak.dtd(), &Options::new().shards(2))
            .expect("compile");
        let mut sink = Vec::new();
        let (_, report) = engine
            .run_input_with_report(Input::from_shared_bytes(Arc::clone(&engine_doc)), &mut sink)
            .expect("instrumented run");
        report
    };
    let pipeline = run_report.find("shard_pipeline");
    let lookup_counter = |name: &str| pipeline.and_then(|s| s.counter_value(name)).unwrap_or(0);
    let lookup_span = |name: &str| pipeline.and_then(|s| s.span_value(name)).unwrap_or(0);
    println!(
        "channel (report run): {} recv stall(s), {} ns stalled, {} ns tape dwell \
         (per-shard detail in run_report)",
        lookup_counter("recv_stalls"),
        lookup_span("recv_stall_ns"),
        lookup_span("dwell_ns"),
    );
    let mut parallel_section = String::new();
    // Bounded-channel behaviour of the instrumented sharded engine run:
    // stall counts and time spent blocked on the shard channel, plus how
    // long finished tapes sat queued before the consumer reached them.
    parallel_section.push_str(&format!(
        "    \"channel\": {{\"recv_stalls\": {}, \"recv_stall_ns\": {}, \"dwell_ns\": {}}},\n",
        lookup_counter("recv_stalls"),
        lookup_span("recv_stall_ns"),
        lookup_span("dwell_ns"),
    ));
    for (shards, m) in parallel {
        parallel_section.push_str(&format!(
            "    \"shards_{}\": {{\"events\": {}, \"seconds\": {:.6}, \"events_per_sec\": {:.0}, \"speedup_vs_sequential\": {:.2}}},\n",
            shards,
            m.events,
            m.seconds,
            m.events_per_sec(),
            m.events_per_sec() / raw.events_per_sec(),
        ));
    }
    parallel_section.push_str(&format!(
        "    \"host_cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    parallel_section.push_str(
        "    \"note\": \"raw parse over the same bytes via flux_shard::ShardedReader; \
         speedups are vs this file's current.raw_parse on the same host and are bounded \
         by host_cores (a 1-core recording host cannot exceed 1.0x). channel records the \
         run_report run's bounded-channel stalls and tape dwell, per-shard breakdown under \
         run_report.stages.shard_pipeline (all zeros when recorded without --features \
         telemetry)\"",
    );
    // The prescan stage counts bytes swept, not events — same shape so
    // perf_gate gates it like every other stage, with the unit spelled
    // out for human readers.
    let prescan_entry = format!(
        "{{\"events\": {}, \"seconds\": {:.6}, \"events_per_sec\": {:.0}, \"unit\": \"bytes\"}}",
        prescan.events,
        prescan.seconds,
        prescan.events_per_sec()
    );
    // Re-indent the report renderer's output to sit one level deep.
    let report_json = run_report.to_json().replace('\n', "\n  ");
    let json = format!(
        "{{\n  \"generated_by\": \"cargo run --release -p flux_bench --bin experiments -- --e8\",\n  \
         \"workload\": \"{}\",\n  \
         \"isa\": \"{}\",\n  \
         \"baseline_string_events\": {{\n    \"note\": \"pre-refactor string-event pipeline, {}\",\n    \
         \"raw_parse\": {},\n    \"xsax_validate\": {},\n    \"xsax_with_past\": {}\n  }},\n  \
         \"current\": {{\n    \"structural_prescan\": {},\n    \"raw_parse\": {},\n    \"tape_replay\": {},\n    \"xsax_validate\": {},\n    \"xsax_with_past\": {},\n{}\n  }},\n  \
         \"parallel\": {{\n{}\n  }},\n  \
         \"run_report\": {},\n{}}}\n",
        e8_workload_stamp(doc.len()),
        flux_xml::simd::active_isa_name(),
        BASELINE_HOST_NOTE,
        baseline(&BASELINE_RAW),
        baseline(&BASELINE_VALIDATE),
        baseline(&BASELINE_PAST),
        prescan_entry,
        entry(raw),
        entry(replay),
        entry(validated),
        entry(past),
        engines,
        parallel_section,
        report_json,
        workload_matrix_sections(),
    );
    match std::fs::write("BENCH_events.json", &json) {
        Ok(()) => println!("\nwrote BENCH_events.json"),
        Err(e) => eprintln!("\ncould not write BENCH_events.json: {e}"),
    }
}

/// Records one `"workload_<id>"` section per perf-gated entry of the
/// workload matrix: raw-parse throughput over the generated document plus,
/// where the workload carries a query, FluX throughput and
/// `peak_buffer_bytes`. `perf_gate` gates every one of these stages.
fn workload_matrix_sections() -> String {
    let mut out = String::new();
    for w in workloads().iter().filter(|w| w.perf_gated) {
        let doc = w.document(w.record_scale, 42);
        let parse = Measured::best_of(3, || {
            let mut events = 0u64;
            let mut reader = flux_xml::XmlReader::new(doc.as_bytes());
            while reader.advance().expect("workload parses") {
                events += 1;
            }
            events
        });
        println!(
            "{:<22} {:>9} bytes  parse {:>10.0} events/s",
            w.section_name(),
            doc.len(),
            parse.events_per_sec()
        );
        out.push_str(&format!(
            "  \"{}\": {{\n    \"bytes\": {},\n    \"scale\": {},\n    \
             \"parse\": {{\"events\": {}, \"seconds\": {:.6}, \"events_per_sec\": {:.0}}}",
            w.section_name(),
            doc.len(),
            w.record_scale,
            parse.events,
            parse.seconds,
            parse.events_per_sec(),
        ));
        if let (Some(query), Some(dtd)) = (w.query, w.dtd) {
            let engine = AnyEngine::compile(EngineKind::Flux, query, dtd).expect("compile");
            let mut peak = 0usize;
            let flux = Measured::best_of(3, || {
                let mut sink = Vec::new();
                let stats = engine
                    .run_input(Input::from_bytes(doc.clone().into_bytes()), &mut sink)
                    .expect("run");
                peak = stats.peak_buffer_bytes;
                stats.events
            });
            println!(
                "{:<22} {:>15}  flux  {:>10.0} events/s, peak {} bytes",
                "",
                "",
                flux.events_per_sec(),
                peak
            );
            out.push_str(&format!(
                ",\n    \"flux\": {{\"events\": {}, \"seconds\": {:.6}, \"events_per_sec\": {:.0}, \"peak_buffer_bytes\": {}}}",
                flux.events,
                flux.seconds,
                flux.events_per_sec(),
                peak,
            ));
        }
        out.push_str("\n  },\n");
    }
    out.push_str(&format!(
        "  \"workload_matrix_note\": \"one section per perf-gated flux_bench::workloads() entry, \
         documents generated at the registry's record_scale with seed 42; \
         {} sections recorded\"\n",
        workloads().iter().filter(|w| w.perf_gated).count()
    ));
    out
}
