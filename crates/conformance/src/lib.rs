//! # flux_conformance
//!
//! The differential conformance harness: one place that replays every
//! [`flux_bench::Workload`] of the matrix — and every entry of
//! the malformed corpus — through each execution configuration and
//! asserts that **nothing observable moves**:
//!
//! * **Stream tier** ([`assert_stream_equivalent`]): the sequential
//!   [`XmlReader`] versus the sharded reader at shard counts
//!   [`SHARD_COUNTS`], in both replay modes, with the interner unbounded
//!   and capped. The delivered event sequence must be identical, and on
//!   malformed input the terminal error must match **byte-exactly** —
//!   same rendered message, same offset, same line, same column.
//! * **Engine tier** ([`assert_engines_equivalent`]): FluXQuery, the
//!   projection baseline and the DOM baseline over the workload's query.
//!   Output bytes must agree across architectures; for the FluX engine,
//!   output *and* run statistics (peak/total buffer accounting, event
//!   counts) must be invariant across shard counts and interner caps, and
//!   across warm runs: an engine that has already run other documents
//!   and a failing one reproduces a fresh engine's output, statistics and
//!   errors exactly.
//!
//! The harness is a library so the workspace's release `conformance` CI
//! job, the proptest suites and one-off reproductions all drive the same
//! assertions.

use flux_bench::{run_engine_input, run_engine_with, RunOutcome};
use flux_shard::{ReplayMode, ShardConfig, ShardedReader};
use flux_xml::{EventSource, Position, RawEvent, ReaderConfig, XmlEvent, XmlReader};
use fluxquery_core::{AnyEngine, EngineKind, Input, Options, Parallelism, RunStats};

pub use flux_bench::{workload, workloads, Workload};
pub use flux_xmlgen::{corpus, CorpusEntry};

/// Shard counts every differential assertion covers.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// The tiny interner cap used for the bounded axis: small enough that
/// every workload's vocabulary overflows it, so the cap is genuinely
/// exercised rather than decorative.
pub const TINY_CAP: usize = 8;

/// Everything a raw parse observes: the delivered prefix and how it ended.
#[derive(Debug, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Owned events delivered before success or failure.
    pub events: Vec<XmlEvent>,
    /// Terminal error, rendered, with its exact position.
    pub error: Option<(String, Option<Position>)>,
}

fn drain<S: EventSource>(mut source: S) -> StreamOutcome {
    let mut ev = RawEvent::new();
    let mut events = Vec::new();
    loop {
        match source.next_into(&mut ev) {
            Ok(true) => events.push(ev.to_xml_event(source.symbols())),
            Ok(false) => {
                return StreamOutcome {
                    events,
                    error: None,
                }
            }
            Err(e) => {
                return StreamOutcome {
                    events,
                    error: Some((e.to_string(), e.position())),
                }
            }
        }
    }
}

/// Parses `bytes` with the sequential reader.
pub fn stream_sequential(bytes: &[u8], max_symbols: Option<usize>) -> StreamOutcome {
    drain(XmlReader::with_config(
        bytes,
        ReaderConfig {
            max_symbols,
            ..ReaderConfig::default()
        },
    ))
}

/// Parses `bytes` with the sharded reader.
pub fn stream_sharded(
    bytes: &[u8],
    shards: usize,
    mode: ReplayMode,
    max_symbols: Option<usize>,
) -> StreamOutcome {
    let mut config = ShardConfig::new(shards);
    config.min_shard_bytes = 1; // shard even small documents
    config.mode = mode;
    config.max_symbols = max_symbols;
    drain(ShardedReader::new(bytes.to_vec(), config))
}

/// Asserts the full stream-tier grid on one input: sequential versus
/// sharded × `SHARD_COUNTS` × both replay modes × unbounded/capped
/// interner. Returns the sequential outcome so callers can make further
/// assertions (e.g. against the corpus manifest).
pub fn assert_stream_equivalent(label: &str, bytes: &[u8]) -> StreamOutcome {
    let mut reference = None;
    for cap in [None, Some(TINY_CAP)] {
        let sequential = stream_sequential(bytes, cap);
        // The interner bound itself must be invisible to the event stream.
        if let Some(unbounded) = &reference {
            assert_eq!(
                &sequential, unbounded,
                "{label}: sequential stream changed under max_symbols={TINY_CAP}"
            );
        }
        for shards in SHARD_COUNTS {
            for mode in [ReplayMode::Joined, ReplayMode::Pipelined] {
                let sharded = stream_sharded(bytes, shards, mode, cap);
                assert_eq!(
                    sharded.events.len(),
                    sequential.events.len(),
                    "{label}: prefix length diverged ({shards} shards, {mode:?}, cap {cap:?}): \
                     sequential error {:?}, sharded error {:?}",
                    sequential.error,
                    sharded.error,
                );
                assert_eq!(
                    sharded, sequential,
                    "{label}: stream diverged ({shards} shards, {mode:?}, cap {cap:?})"
                );
            }
        }
        if reference.is_none() {
            reference = Some(sequential);
        }
    }
    reference.expect("loop ran")
}

/// The statistics that must be invariant across execution configurations
/// of the *same* engine (wall-clock time excluded).
pub fn stats_fingerprint(stats: &RunStats) -> (usize, usize, u64, u64, u64) {
    (
        stats.peak_buffer_bytes,
        stats.peak_buffer_nodes,
        stats.total_buffered_bytes,
        stats.output_bytes,
        stats.events,
    )
}

fn options(parallelism: Parallelism, cap: Option<usize>) -> Options {
    let mut o = match cap {
        Some(cap) => Options::new().max_symbols(cap),
        None => Options::new(),
    };
    o.parallelism = parallelism;
    o
}

/// Asserts the engine tier on one workload document: all architectures
/// agree on the output bytes, and the FluX engine's output *and* stats
/// are invariant across shard counts and interner caps. Panics on
/// workloads without a query (stream-tier-only shapes).
pub fn assert_engines_equivalent(w: &Workload, scale: f64, seed: u64) {
    let query = w
        .query
        .unwrap_or_else(|| panic!("workload {} has no engine tier", w.id));
    let dtd = w.dtd.expect("engine-tier workloads declare a DTD");
    let doc = w.document(scale, seed);

    // Reference: FluX, sequential, unbounded.
    let reference = run_engine_with(
        EngineKind::Flux,
        query,
        dtd,
        doc.as_bytes(),
        &options(Parallelism::Sequential, None),
    )
    .unwrap_or_else(|e| panic!("{}: flux sequential failed: {e}", w.id));

    // Architectures agree on the output bytes.
    for kind in [EngineKind::Projection, EngineKind::Dom] {
        let outcome = run_engine_with(
            kind,
            query,
            dtd,
            doc.as_bytes(),
            &options(Parallelism::Sequential, None),
        )
        .unwrap_or_else(|e| panic!("{}: {} failed: {e}", w.id, kind.label()));
        assert_eq!(
            outcome.output,
            reference.output,
            "{}: {} output diverged from flux (scale {scale}, seed {seed})",
            w.id,
            kind.label()
        );
        // The baselines must also be blind to the interner cap.
        let capped = run_engine_with(
            kind,
            query,
            dtd,
            doc.as_bytes(),
            &options(Parallelism::Sequential, Some(TINY_CAP)),
        )
        .unwrap_or_else(|e| panic!("{}: {} capped failed: {e}", w.id, kind.label()));
        assert_eq!(
            capped.output,
            outcome.output,
            "{}: {} output changed under max_symbols={TINY_CAP}",
            w.id,
            kind.label()
        );
        assert_eq!(
            stats_fingerprint(&capped.stats),
            stats_fingerprint(&outcome.stats),
            "{}: {} stats changed under max_symbols={TINY_CAP}\n  capped:    {}\n  unbounded: {}",
            w.id,
            kind.label(),
            capped.stats,
            outcome.stats
        );
    }

    // Streamed ingestion: the same document arriving through an opaque
    // `Read` (generator-backed where the workload has one, a cursor
    // otherwise) must be indistinguishable from the buffered slice —
    // output and stats, sequentially and with incremental shard
    // dispatch, which takes a different code path than buffered shards.
    for parallelism in [Parallelism::Sequential, Parallelism::Shards(2)] {
        let outcome = run_engine_input(
            EngineKind::Flux,
            query,
            dtd,
            Input::from_reader(w.stream(scale, seed)),
            &options(parallelism, None),
        )
        .unwrap_or_else(|e| panic!("{}: flux streamed {parallelism:?} failed: {e}", w.id));
        assert_eq!(
            outcome.output, reference.output,
            "{}: streamed ingestion diverged from buffered ({parallelism:?})",
            w.id
        );
        assert_eq!(
            stats_fingerprint(&outcome.stats),
            stats_fingerprint(&reference.stats),
            "{}: streamed ingestion stats diverged ({parallelism:?})\n  streamed: {}\n  buffered: {}",
            w.id,
            outcome.stats,
            reference.stats
        );
    }

    // Warm runs: recycled scratch must be unobservable.
    for cap in [None, Some(TINY_CAP)] {
        assert_warm_runs_equivalent(w, &doc, scale, seed, cap, &reference);
    }

    // FluX: output and stats invariant across shards × caps.
    for shards in SHARD_COUNTS {
        for cap in [None, Some(TINY_CAP)] {
            let outcome = run_engine_with(
                EngineKind::Flux,
                query,
                dtd,
                doc.as_bytes(),
                &options(Parallelism::Shards(shards), cap),
            )
            .unwrap_or_else(|e| panic!("{}: flux shards={shards} cap={cap:?} failed: {e}", w.id));
            assert_eq!(
                outcome.output, reference.output,
                "{}: flux output diverged (shards {shards}, cap {cap:?})",
                w.id
            );
            assert_eq!(
                stats_fingerprint(&outcome.stats),
                stats_fingerprint(&reference.stats),
                "{}: flux stats diverged (shards {shards}, cap {cap:?})\n  sharded:    {}\n  sequential: {}",
                w.id,
                outcome.stats,
                reference.stats
            );
        }
    }
}

/// What a FluX run observably produced: output bytes and the stats
/// fingerprint, or the rendered error (kind, message and position).
type Observed = Result<(Vec<u8>, (usize, usize, u64, u64, u64)), String>;

fn observe(engine: &AnyEngine, bytes: &[u8]) -> Observed {
    let mut output = Vec::new();
    engine
        .run_input(Input::from_bytes(bytes.to_vec()), &mut output)
        .map(|stats| (output, stats_fingerprint(&stats)))
        .map_err(|e| e.to_string())
}

/// The warm axis of the engine tier: one sequential FluX engine (interner
/// `cap`) runs another document of the workload, then `doc`, then a
/// failing corpus entry, then both documents again. Every run of `doc`
/// must reproduce the fresh `reference` (output and stats), and the
/// failing entry must fail exactly as on a fresh engine. The failed run
/// drops its scratch, so the last run also covers a pool refilled after a
/// failure.
fn assert_warm_runs_equivalent(
    w: &Workload,
    doc: &str,
    scale: f64,
    seed: u64,
    cap: Option<usize>,
    reference: &RunOutcome,
) {
    let query = w.query.expect("engine-tier workload");
    let dtd = w.dtd.expect("engine-tier workload");
    let compile = || {
        options(Parallelism::Sequential, cap)
            .compile(EngineKind::Flux, query, dtd)
            .unwrap_or_else(|e| panic!("{}: flux failed to compile: {e}", w.id))
    };
    let other = w.document(scale, seed + 1);
    let entries = corpus();
    let failing = &entries[seed as usize % entries.len()];
    let expected: Observed = Ok((
        reference.output.clone(),
        stats_fingerprint(&reference.stats),
    ));
    let fresh_failure = observe(&compile(), &failing.bytes);
    assert!(
        fresh_failure.is_err(),
        "{}: corpus entry {} ran cleanly",
        w.id,
        failing.id
    );

    let engine = compile();
    let warm_other = observe(&engine, other.as_bytes());
    assert_eq!(
        warm_other,
        observe(&compile(), other.as_bytes()),
        "{}: a first run diverged from a fresh engine (cap {cap:?})",
        w.id
    );
    let label = |step: &str| format!("{}: warm run {step} diverged (cap {cap:?})", w.id);
    assert_eq!(
        observe(&engine, doc.as_bytes()),
        expected,
        "{}",
        label("after another document")
    );
    assert_eq!(
        observe(&engine, &failing.bytes),
        fresh_failure,
        "{}",
        label(&format!("of corpus entry {}", failing.id))
    );
    assert_eq!(
        observe(&engine, other.as_bytes()),
        warm_other,
        "{}",
        label("after a failure")
    );
    for step in [
        "after another document and a failure",
        "of the same document",
    ] {
        assert_eq!(
            observe(&engine, doc.as_bytes()),
            expected,
            "{}",
            label(step)
        );
    }
}

/// Materialises `bytes` into a plain DOM and evaluates `query` with the
/// *reference* (materialising) evaluator — the oracle the streaming cursor
/// evaluator is differential-tested against. Returns the rendered output,
/// or the rendered error.
pub fn reference_output(query: &str, bytes: &[u8]) -> Result<String, String> {
    use flux_xml::tree::TreeBuilder;
    use flux_xml::SymbolTable;
    let parsed = flux_xquery::parse_query(query).map_err(|e| e.to_string())?;
    let normalized = flux_xquery::normalize(&parsed).map_err(|e| e.to_string())?;
    let mut reader = XmlReader::with_symbols(bytes, ReaderConfig::default(), SymbolTable::new());
    let mut builder = TreeBuilder::new();
    let mut ev = RawEvent::new();
    while reader.next_into(&mut ev).map_err(|e| e.to_string())? {
        builder
            .raw_event(reader.symbols(), &ev)
            .map_err(|e| e.to_string())?;
    }
    let doc = builder.finish().map_err(|e| e.to_string())?;
    flux_xquery::reference_eval_to_string(&doc, &normalized).map_err(|e| e.to_string())
}

/// Pins the compiled cursor evaluator to the reference evaluator: every
/// engine architecture, at shard counts {1, 2} with the interner unbounded
/// and capped, must reproduce the reference output byte-for-byte, and each
/// engine's run statistics must be invariant across the grid.
pub fn assert_cursor_matches_reference(label: &str, query: &str, dtd: &str, bytes: &[u8]) {
    let expected = reference_output(query, bytes)
        .unwrap_or_else(|e| panic!("{label}: reference evaluation failed: {e}\n{query}"));
    for kind in [EngineKind::Flux, EngineKind::Projection, EngineKind::Dom] {
        let mut fingerprint = None;
        for shards in [1usize, 2] {
            for cap in [None, Some(TINY_CAP)] {
                let outcome = run_engine_with(
                    kind,
                    query,
                    dtd,
                    bytes,
                    &options(Parallelism::Shards(shards), cap),
                )
                .unwrap_or_else(|e| {
                    panic!(
                        "{label}: {} shards={shards} cap={cap:?} failed: {e}\n{query}",
                        kind.label()
                    )
                });
                assert_eq!(
                    String::from_utf8_lossy(&outcome.output),
                    expected,
                    "{label}: {} diverged from the reference evaluator \
                     (shards {shards}, cap {cap:?})\n{query}",
                    kind.label()
                );
                let fp = stats_fingerprint(&outcome.stats);
                match &fingerprint {
                    None => fingerprint = Some(fp),
                    Some(first) => assert_eq!(
                        &fp,
                        first,
                        "{label}: {} stats moved across the grid (shards {shards}, cap {cap:?})",
                        kind.label()
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_tier_smoke() {
        let outcome = assert_stream_equivalent("smoke", b"<r><a>x</a><b k=\"v\"/></r>");
        assert!(outcome.error.is_none());
        assert!(!outcome.events.is_empty());
    }

    #[test]
    fn stream_tier_reports_errors() {
        let outcome = assert_stream_equivalent("smoke-err", b"<r><a>x</b></r>");
        let (msg, pos) = outcome.error.expect("mismatched tags must fail");
        assert!(msg.contains("mismatched end tag"), "{msg}");
        assert!(pos.is_some());
    }
}
