//! The engine facade: one type that compiles once and runs many times,
//! plus a uniform wrapper over the three architectures for experiments.

use crate::error::Result;
use flux_baseline::{DomEngine, ProjectionEngine};
use flux_dtd::Dtd;
use flux_lang::{compile as compile_flux, CompileOptions, FluxQuery, OptimizerConfig};
use flux_runtime::{compile_plan, Plan, RunReport, RunScratch, RunStats};
use flux_shard::{ShardConfig, ShardedReader};
use flux_xml::{Input, ResolvedInput};
use flux_xsax::XsaxConfig;
use std::io::Write;
use std::sync::{Mutex, PoisonError};

/// How the engine parses its input stream.
///
/// Sharded parsing fans tokenisation out over N threads (`flux_shard`);
/// the query evaluator and the XSAX DFA still consume one stitched,
/// exactly-sequential event stream, so results, validation verdicts and
/// buffer accounting are identical to [`Parallelism::Sequential`] — only
/// the parse work moves off the critical path. An in-memory [`Input`]
/// takes the zero-copy buffered shard path; a true stream (file, socket,
/// stdin) is dispatched chunk by chunk with bounded in-flight memory and
/// is never materialised. Prefer `Sequential` for latency-sensitive
/// streams, where the paper's token-bounded memory guarantee is tightest.
/// One visible difference on *malformed* input: buffered sharded runs
/// reject it up front (before emitting any output), while sequential and
/// streamed-sharded runs may stream a partial result before surfacing the
/// same error at the same byte position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One reader thread, token-bounded memory (the paper's model).
    #[default]
    Sequential,
    /// Parse with up to N parallel shards (N ≥ 1; 1 still pipelines but
    /// parses on one thread).
    Shards(usize),
}

/// Compilation and execution options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Algebraic optimizer configuration (all rules on by default).
    pub optimizer: OptimizerConfig,
    /// Verify the scheduled FluX query against the DTD (on by default).
    pub verify_safety: bool,
    /// Ablation: compile without streaming handlers (buffer everything).
    pub disable_streaming: bool,
    /// XSAX validation options.
    pub xsax: XsaxConfig,
    /// Input parsing strategy (default: sequential).
    pub parallelism: Parallelism,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            optimizer: OptimizerConfig::default(),
            verify_safety: true,
            disable_streaming: false,
            xsax: XsaxConfig::default(),
            parallelism: Parallelism::Sequential,
        }
    }
}

impl Options {
    pub fn new() -> Options {
        Options::default()
    }

    /// Chainable: parse the input with `n` parallel shards (see
    /// [`Parallelism::Shards`]).
    pub fn shards(mut self, n: usize) -> Options {
        self.parallelism = Parallelism::Shards(n);
        self
    }

    /// Chainable: cap the stream interner at `cap` distinct names
    /// (bounded-interner mode; see `ReaderConfig::max_symbols`). Past the
    /// cap, names travel by literal spelling — memory stops growing and
    /// query results are unchanged.
    pub fn max_symbols(mut self, cap: usize) -> Options {
        self.xsax.max_symbols = Some(cap);
        self
    }

    /// Chainable: enable or disable the algebraic optimizer (ablation).
    pub fn algebraic_optimizer(mut self, enabled: bool) -> Options {
        self.optimizer = if enabled {
            OptimizerConfig::default()
        } else {
            OptimizerConfig::disabled()
        };
        self
    }

    /// Chainable: enable or disable streaming handlers (the scheduling
    /// ablation — disabled means buffer everything).
    pub fn streaming(mut self, enabled: bool) -> Options {
        self.disable_streaming = !enabled;
        self
    }

    /// The one compilation entry point behind every architecture: compiles
    /// `query` for `kind` under these options and returns the uniform
    /// [`AnyEngine`] wrapper. The DTD is exploited only by the FluX
    /// variants — the baselines cannot use it, which is the paper's point;
    /// execution options (interner bound, parallelism) apply to every
    /// architecture that supports them.
    ///
    /// ```no_run
    /// # use fluxquery_core::{EngineKind, Input, Options};
    /// # let (query, dtd, doc) = ("", "", Vec::new());
    /// let engine = Options::new()
    ///     .shards(4)
    ///     .max_symbols(1 << 16)
    ///     .compile(EngineKind::Flux, query, dtd)?;
    /// engine.run_input(Input::from_bytes(doc), std::io::stdout())?;
    /// # Ok::<(), fluxquery_core::Error>(())
    /// ```
    pub fn compile(&self, kind: EngineKind, query: &str, dtd_text: &str) -> Result<AnyEngine> {
        match kind {
            EngineKind::Flux => Ok(AnyEngine::Flux(Box::new(FluxEngine::compile(
                query, dtd_text, self,
            )?))),
            EngineKind::FluxNoAlgebra => {
                let options = self.clone().algebraic_optimizer(false);
                Ok(AnyEngine::Flux(Box::new(FluxEngine::compile(
                    query, dtd_text, &options,
                )?)))
            }
            EngineKind::Dom => Ok(AnyEngine::Dom(
                DomEngine::compile(query)?,
                self.reader_config(),
            )),
            EngineKind::Projection => Ok(AnyEngine::Projection(
                ProjectionEngine::compile(query)?,
                self.reader_config(),
            )),
        }
    }

    fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            optimizer: self.optimizer,
            verify_safety: self.verify_safety,
            disable_streaming: self.disable_streaming,
        }
    }

    /// The reader configuration the baseline engines should stream with,
    /// mirroring the validating pipeline's interner bound.
    fn reader_config(&self) -> flux_xml::ReaderConfig {
        flux_xml::ReaderConfig {
            max_symbols: self.xsax.max_symbols,
            ..Default::default()
        }
    }
}

/// The FluXQuery engine: a query compiled against a DTD, ready to run over
/// any number of input streams.
///
/// Runs are **warm**: everything a run grows — reader window and interner,
/// XSAX tables and stacks, buffer arena, evaluator and writer pools — is
/// kept in a [`RunScratch`] and handed to the next run, reset to a fresh
/// run's state, instead of being rebuilt. The engine pools one scratch per
/// concurrent run: a run pops one (or starts cold), and pushes it back
/// only when it succeeded; the lock is held just for the pop and the push.
pub struct FluxEngine {
    dtd: Dtd,
    query: FluxQuery,
    plan: Plan,
    xsax: XsaxConfig,
    parallelism: Parallelism,
    scratch: Mutex<Vec<RunScratch>>,
}

// One compiled engine serves concurrent runs from many threads, each run
// with its own pooled scratch; the plan's shared handler bodies are `Arc`s
// for that reason.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<FluxEngine>();
    shareable::<AnyEngine>();
};

impl FluxEngine {
    /// Compiles `query` against `dtd_text` (standalone DTD syntax).
    pub fn compile(query: &str, dtd_text: &str, options: &Options) -> Result<FluxEngine> {
        let dtd = Dtd::parse(dtd_text)?;
        Self::compile_with_dtd(query, dtd, options)
    }

    /// Compiles `query` against a schema in either DTD or XML Schema
    /// syntax, auto-detected (the paper's footnote 1: constraints can be
    /// derived from XML Schema just as well).
    pub fn compile_with_schema(
        query: &str,
        schema_text: &str,
        options: &Options,
    ) -> Result<FluxEngine> {
        let trimmed = schema_text.trim_start();
        let looks_like_xsd = trimmed.starts_with('<')
            && !trimmed.starts_with("<!")
            && schema_text.contains("schema");
        let dtd = if looks_like_xsd {
            flux_dtd::parse_xsd(schema_text)?
        } else {
            Dtd::parse(schema_text)?
        };
        Self::compile_with_dtd(query, dtd, options)
    }

    /// Compiles against an already-parsed DTD.
    pub fn compile_with_dtd(query: &str, dtd: Dtd, options: &Options) -> Result<FluxEngine> {
        let compiled = compile_flux(query, &dtd, &options.compile_options())?;
        let plan = compile_plan(&compiled, &dtd)?;
        Ok(FluxEngine {
            dtd,
            query: compiled,
            plan,
            xsax: options.xsax.clone(),
            parallelism: options.parallelism,
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// Runs the query over a unified [`Input`], streaming results to
    /// `output`.
    ///
    /// The input's window and [`MemoryBudget`](flux_xml::MemoryBudget) are
    /// threaded into the pipeline, and the budget (if any) is enforced
    /// after the run: the run fails with a budget error if the tracked
    /// peak — scanner windows, in-flight shard tapes and chunks, runtime
    /// buffers — exceeded the limit. With [`Parallelism::Shards`], an in-memory
    /// input takes the zero-copy buffered shard path while a reader is
    /// dispatched incrementally and never materialised.
    pub fn run_input<W: Write>(&self, input: Input, output: W) -> Result<RunStats> {
        self.run_warm(input, output, false).map(|(stats, _)| stats)
    }

    /// [`run_input`](Self::run_input) plus the telemetry [`RunReport`].
    pub fn run_input_with_report<W: Write>(
        &self,
        input: Input,
        output: W,
    ) -> Result<(RunStats, RunReport)> {
        let (stats, report) = self.run_warm(input, output, true)?;
        Ok((stats, report.expect("report requested")))
    }

    /// Every run goes through here: pop a recycled scratch (or start
    /// cold), run, and pool the scratch again only if the run succeeded —
    /// a failed or panicking run drops it.
    fn run_warm<W: Write>(
        &self,
        input: Input,
        output: W,
        want_report: bool,
    ) -> Result<(RunStats, Option<RunReport>)> {
        let budget = input.memory_budget().cloned();
        let xsax = self.xsax_for(&input);
        let mut scratch = self.pool().pop().unwrap_or_default();
        let (stats, report) = match self.parallelism {
            Parallelism::Sequential => {
                let reader = resolve(input)?.into_reader();
                scratch.execute(&self.plan, &self.dtd, reader, output, xsax, want_report)?
            }
            Parallelism::Shards(n) => {
                let source = self.sharded_source(input, n)?;
                scratch.execute_source(&self.plan, &self.dtd, source, output, xsax, want_report)?
            }
        };
        if let Some(budget) = budget {
            budget
                .check_run(stats.peak_buffer_bytes)
                .map_err(flux_runtime::RuntimeError::from)?;
        }
        self.pool().push(scratch);
        Ok((stats, report))
    }

    /// The scratch pool. Its lock guards only a pop or a push, so a panic
    /// elsewhere cannot leave it inconsistent: a poisoned lock is used as is.
    fn pool(&self) -> std::sync::MutexGuard<'_, Vec<RunScratch>> {
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The validation config for one run: compile-time XSAX options plus
    /// the ingestion knobs the [`Input`] owns (window, budget).
    fn xsax_for(&self, input: &Input) -> XsaxConfig {
        let mut xsax = self.xsax.clone();
        xsax.window = input.window_bytes();
        xsax.budget = input.memory_budget().cloned();
        xsax
    }

    /// Builds the N-shard parallel source: zero-copy over resolved bytes,
    /// incremental chunk dispatch (bounded in-flight memory, input never
    /// materialised) over a resolved reader.
    fn sharded_source(&self, input: Input, shards: usize) -> Result<ShardedReader> {
        let mut shard_config = ShardConfig::new(shards);
        // Mirror the interner bound on the merged table; the seed
        // vocabulary always resolves, so only undeclared names overflow
        // (and travel by literal spelling).
        shard_config.max_symbols = self.xsax.max_symbols;
        shard_config.window = input.window_bytes();
        shard_config.budget = input.memory_budget().cloned();
        let symbols = flux_xsax::seeded_symbols(&self.dtd);
        Ok(match resolve(input)? {
            ResolvedInput::Bytes(bytes) => {
                ShardedReader::with_shared_bytes(bytes, shard_config, symbols)
            }
            ResolvedInput::Reader(reader) => {
                ShardedReader::from_stream_with_symbols(reader, shard_config, symbols)
            }
        })
    }

    /// Convenience: runs over a string, returning the output string.
    pub fn run_to_string(&self, input: &str) -> Result<(String, RunStats)> {
        let mut out = Vec::new();
        let stats = self.run_input(Input::from_bytes(input.as_bytes().to_vec()), &mut out)?;
        Ok((
            String::from_utf8(out).expect("output writer emits UTF-8"),
            stats,
        ))
    }

    /// The DTD this engine validates against.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// The compiled query with all intermediate stages.
    pub fn query(&self) -> &FluxQuery {
        &self.query
    }

    /// Number of buffering (`on-first`) handlers in the plan.
    pub fn buffered_handler_count(&self) -> usize {
        self.query.buffered_handler_count()
    }

    /// A multi-stage compilation report: normal form, applied algebraic
    /// rules, scheduling decisions, the FluX query, and the BDF.
    pub fn explain(&self) -> String {
        let mut out = self.query.explain();
        out.push_str("\n== buffer description forest ==\n");
        out.push_str(&self.plan.render_bdf());
        out
    }
}

/// Resolves an [`Input`] (opens the file, applies gzip detection), mapping
/// I/O failures into the engine error chain at the point the sequential
/// reader would surface them.
fn resolve(input: Input) -> Result<ResolvedInput> {
    input
        .into_source()
        .map_err(|e| flux_runtime::RuntimeError::from(flux_xsax::XsaxError::Xml(e.into())).into())
}

/// Which engine architecture to use (for the experiment harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// FluXQuery with full optimization.
    Flux,
    /// FluXQuery with the algebraic optimizer disabled (scheduling only).
    FluxNoAlgebra,
    /// Full-document DOM materialisation.
    Dom,
    /// Marian & Siméon-style projection.
    Projection,
}

impl EngineKind {
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Flux => "fluxquery",
            EngineKind::FluxNoAlgebra => "fluxquery-noalg",
            EngineKind::Dom => "dom",
            EngineKind::Projection => "projection",
        }
    }

    pub fn all() -> [EngineKind; 3] {
        [EngineKind::Flux, EngineKind::Projection, EngineKind::Dom]
    }
}

/// A uniform wrapper over the three architectures. Baseline engines carry
/// the reader configuration derived from the compile-time [`Options`]
/// (notably the interner bound), so all three architectures can be run
/// under identical streaming constraints.
pub enum AnyEngine {
    Flux(Box<FluxEngine>),
    Dom(DomEngine, flux_xml::ReaderConfig),
    Projection(ProjectionEngine, flux_xml::ReaderConfig),
}

impl AnyEngine {
    /// Compiles `query` for the chosen architecture with default options.
    /// Shorthand for [`Options::compile`] on [`Options::new`].
    pub fn compile(kind: EngineKind, query: &str, dtd_text: &str) -> Result<AnyEngine> {
        Options::new().compile(kind, query, dtd_text)
    }

    /// Runs over a unified [`Input`] — the one execution entry point every
    /// architecture shares. The input's window and budget apply to all
    /// three engines; gzip sources are decompressed transparently.
    pub fn run_input<W: Write>(&self, input: Input, output: W) -> Result<RunStats> {
        match self {
            AnyEngine::Flux(e) => e.run_input(input, output),
            AnyEngine::Dom(e, config) => Ok(e.run_input(input, output, config.clone())?),
            AnyEngine::Projection(e, config) => Ok(e.run_input(input, output, config.clone())?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_dtd::{PAPER_FIG1_DTD, PAPER_WEAK_DTD};
    use flux_xml::MemoryBudget;
    use std::sync::Arc;

    const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

    #[test]
    fn compile_and_run() {
        let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new()).unwrap();
        let (out, stats) = engine
            .run_to_string("<bib><book><author>A</author><title>T</title></book></bib>")
            .unwrap();
        assert_eq!(
            out,
            "<results><result><title>T</title><author>A</author></result></results>"
        );
        assert!(stats.peak_buffer_bytes > 0);
        assert_eq!(engine.buffered_handler_count(), 1);
    }

    #[test]
    fn explain_has_all_stages() {
        let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new()).unwrap();
        let explain = engine.explain();
        for section in [
            "== normalized query ==",
            "== scheduling ==",
            "== FluX query ==",
            "== buffer description forest ==",
        ] {
            assert!(explain.contains(section), "missing {section}:\n{explain}");
        }
        assert!(explain.contains("process-stream"), "{explain}");
        assert!(explain.contains("{author:*}"), "{explain}");
    }

    #[test]
    fn engine_reusable_across_runs() {
        let engine = FluxEngine::compile(Q3, PAPER_FIG1_DTD, &Options::new()).unwrap();
        let doc = "<bib><book><title>T</title><author>A</author><publisher>P</publisher><price>1</price></book></bib>";
        let (out1, _) = engine.run_to_string(doc).unwrap();
        let (out2, _) = engine.run_to_string(doc).unwrap();
        assert_eq!(out1, out2);
    }

    #[test]
    fn all_engines_agree() {
        let doc = "<bib><book><title>T1</title><author>A1</author></book><book><title>T2</title><author>A2</author><author>A3</author></book></bib>";
        let mut outputs = Vec::new();
        for kind in EngineKind::all() {
            let engine = AnyEngine::compile(kind, Q3, PAPER_WEAK_DTD).unwrap();
            let mut out = Vec::new();
            engine
                .run_input(Input::from_reader(doc.as_bytes()), &mut out)
                .unwrap();
            outputs.push((kind.label(), String::from_utf8(out).unwrap()));
        }
        let first = outputs[0].1.clone();
        for (label, out) in &outputs {
            assert_eq!(*out, first, "{label} diverged");
        }
    }

    #[test]
    fn concurrent_runs_match_fresh_sequential_runs() {
        use std::sync::Barrier;
        /// A sink whose first write waits until every thread is mid-run,
        /// so all four runs hold a scratch at once.
        struct Rendezvous<'a> {
            out: Vec<u8>,
            barrier: Option<&'a Barrier>,
        }
        impl Write for Rendezvous<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if let Some(barrier) = self.barrier.take() {
                    barrier.wait();
                }
                self.out.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let fingerprint = |s: &RunStats| {
            (
                s.peak_buffer_bytes,
                s.peak_buffer_nodes,
                s.total_buffered_bytes,
                s.output_bytes,
                s.events,
            )
        };
        let docs: Vec<String> = (0..16)
            .map(|d| {
                let mut doc = String::from("<bib>");
                for i in 0..d % 5 + 1 {
                    doc.push_str(&format!(
                        "<book extra{d}=\"x\"><author>A{d}.{i}</author><title>T{d}</title>\
                         <author>{}</author></book>",
                        "late ".repeat(d * i)
                    ));
                }
                doc.push_str("</bib>");
                doc
            })
            .collect();
        let fresh: Vec<_> = docs
            .iter()
            .map(|doc| {
                let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new()).unwrap();
                let (out, stats) = engine.run_to_string(doc).unwrap();
                (out.into_bytes(), fingerprint(&stats))
            })
            .collect();
        let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new()).unwrap();
        let barrier = Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (engine, docs, fresh, barrier) = (&engine, &docs, &fresh, &barrier);
                scope.spawn(move || {
                    for round in 0..3 {
                        for i in (t..docs.len()).step_by(4) {
                            let mut sink = Rendezvous {
                                out: Vec::new(),
                                barrier: (round == 0 && i == t).then_some(barrier),
                            };
                            let stats = engine
                                .run_input(Input::from_bytes(docs[i].clone()), &mut sink)
                                .unwrap();
                            assert_eq!(
                                (sink.out, fingerprint(&stats)),
                                fresh[i],
                                "thread {t}, round {round}, document {i}"
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(engine.pool().len(), 4, "one scratch per concurrent run");
    }

    #[test]
    fn sharded_run_matches_sequential() {
        let mut doc = String::from("<bib>");
        for i in 0..500 {
            doc.push_str(&format!(
                "<book><author>Author {i} &amp; co</author><title>Title {i}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        let sequential = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new()).unwrap();
        let (seq_out, seq_stats) = sequential.run_to_string(&doc).unwrap();
        for shards in [1, 2, 4] {
            let engine =
                FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new().shards(shards)).unwrap();
            let (out, stats) = engine.run_to_string(&doc).unwrap();
            assert_eq!(out, seq_out, "{shards} shards diverged");
            assert_eq!(
                stats.peak_buffer_bytes, seq_stats.peak_buffer_bytes,
                "buffer accounting must not depend on parallelism"
            );
        }
    }

    #[test]
    fn report_is_available_in_both_modes_and_parallelisms() {
        let mut doc = String::from("<bib>");
        for i in 0..50 {
            doc.push_str(&format!(
                "<book><author>A{i}</author><title>T{i}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        for options in [Options::new(), Options::new().shards(2)] {
            let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &options).unwrap();
            let mut out = Vec::new();
            let (stats, report) = engine
                .run_input_with_report(Input::from_bytes(doc.clone()), &mut out)
                .unwrap();
            let mut plain = Vec::new();
            let plain_stats = engine
                .run_input(Input::from_bytes(doc.clone()), &mut plain)
                .unwrap();
            assert_eq!(out, plain, "report assembly must not change output");
            assert_eq!(stats.peak_buffer_bytes, plain_stats.peak_buffer_bytes);
            let json = report.to_json();
            for needle in ["\"run_stats\"", "\"runtime\"", "\"xsax\"", "\"buffers\""] {
                assert!(json.contains(needle), "missing {needle} in:\n{json}");
            }
            // Text rendering never panics and carries the stats line.
            assert!(report.to_text().contains("run_stats:"));
        }
    }

    #[test]
    fn streamed_sharded_input_matches_sequential() {
        // A reader Input under Parallelism::Shards takes the incremental
        // dispatch path (never materialised); output and buffer accounting
        // must still match the sequential run byte for byte.
        let mut doc = String::from("<bib>");
        for i in 0..800 {
            doc.push_str(&format!(
                "<book><author>Author {i} &amp; co</author><title>Title {i}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        let sequential = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new()).unwrap();
        let (seq_out, seq_stats) = sequential.run_to_string(&doc).unwrap();
        for shards in [1, 2, 4] {
            let engine =
                FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new().shards(shards)).unwrap();
            let mut out = Vec::new();
            let stats = engine
                .run_input(
                    Input::from_reader(std::io::Cursor::new(doc.clone().into_bytes())),
                    &mut out,
                )
                .unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), seq_out, "{shards} shards");
            assert_eq!(stats.peak_buffer_bytes, seq_stats.peak_buffer_bytes);
        }
    }

    #[test]
    fn budget_is_enforced_post_run() {
        let mut doc = String::from("<bib>");
        for i in 0..200 {
            doc.push_str(&format!(
                "<book><author>A{i}</author><title>T{i}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        // A generous budget passes, in every parallelism and architecture.
        for options in [Options::new(), Options::new().shards(2)] {
            let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &options).unwrap();
            let budget = MemoryBudget::new(64 * 1024 * 1024);
            let mut out = Vec::new();
            engine
                .run_input(
                    Input::from_reader(std::io::Cursor::new(doc.clone().into_bytes()))
                        .budget(Arc::clone(&budget)),
                    &mut out,
                )
                .unwrap();
            assert!(budget.peak_total() > 0, "pipeline charged nothing");
        }
        // An absurdly small one fails post-run with a budget error naming
        // the pool that grew — on the flux engine and both baselines.
        for kind in EngineKind::all() {
            let engine = AnyEngine::compile(kind, Q3, PAPER_WEAK_DTD).unwrap();
            let mut out = Vec::new();
            let err = engine
                .run_input(
                    Input::from_bytes(doc.clone()).budget(MemoryBudget::new(16)),
                    &mut out,
                )
                .unwrap_err();
            assert!(
                err.to_string().contains("memory budget exceeded"),
                "{}: {err}",
                kind.label()
            );
        }
    }

    #[test]
    fn builder_path_compiles_every_architecture() {
        let doc = "<bib><book><title>T</title><author>A</author></book></bib>";
        for kind in [
            EngineKind::Flux,
            EngineKind::FluxNoAlgebra,
            EngineKind::Dom,
            EngineKind::Projection,
        ] {
            let engine = Options::new()
                .max_symbols(1 << 12)
                .compile(kind, Q3, PAPER_WEAK_DTD)
                .unwrap();
            let mut out = Vec::new();
            engine
                .run_input(Input::from_bytes(doc.as_bytes().to_vec()), &mut out)
                .unwrap();
            assert!(!out.is_empty(), "{}", kind.label());
        }
    }

    #[test]
    fn sharded_run_rejects_invalid_documents() {
        let engine = FluxEngine::compile(Q3, PAPER_FIG1_DTD, &Options::new().shards(4)).unwrap();
        // Wrong child order under the Fig. 1 DTD: validation must still
        // fail with sharded parsing.
        let doc = "<bib><book><author>A</author><title>T</title><publisher>P</publisher><price>9</price></book></bib>";
        assert!(engine.run_to_string(doc).is_err());
    }

    #[test]
    fn memory_hierarchy_flux_below_projection_below_dom() {
        // Generate a document large enough for the architecture to dominate.
        let mut doc = String::from("<bib>");
        for i in 0..200 {
            doc.push_str(&format!(
                "<book><author>Author{i:04}</author><title>Title number {i:04}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        let mut peaks = std::collections::HashMap::new();
        for kind in EngineKind::all() {
            let engine = AnyEngine::compile(kind, Q3, PAPER_WEAK_DTD).unwrap();
            let mut out = Vec::new();
            let stats = engine
                .run_input(Input::from_bytes(doc.clone()), &mut out)
                .unwrap();
            peaks.insert(kind.label(), stats.peak_buffer_bytes);
        }
        assert!(
            peaks["fluxquery"] < peaks["projection"],
            "flux {} < projection {}",
            peaks["fluxquery"],
            peaks["projection"]
        );
        assert!(
            peaks["projection"] <= peaks["dom"],
            "projection {} <= dom {}",
            peaks["projection"],
            peaks["dom"]
        );
    }
}
