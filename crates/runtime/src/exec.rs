//! The streamed query evaluator (paper Sec. 3.2).
//!
//! Drives XSAX events through the physical plan: per open element it keeps
//! a `Frame` recording which process-streams dispatch that element's
//! children, which buffers the element populates (per the BDF's projection
//! views), whether its events are being stream-copied to the output, and
//! which output end tags it owes. `on-first` events from XSAX trigger
//! buffered evaluation of handler bodies over the buffer store.
//!
//! The event loop runs on the **zero-copy view path**: each step exposes
//! the validated event as a borrowed [`RawEventRef`] whose payloads live
//! in the source's storage (scanner window or shard tape arena), handler
//! dispatch and buffer descent are symbol comparisons against the stream's
//! shared [`SymbolTable`], and the output writer maps symbols back through
//! the same table, streaming payload bytes straight from the view into the
//! sink, with zero payload copies for an event that only streams.
//!
//! Frames are `Copy` records of start offsets into four stacks the
//! executor owns (buffer targets, scopes, bindings, shells): opening an
//! element pushes onto them, closing truncates back, and a parent's runs
//! are read in place by index. Once those stacks, the buffer arena's
//! pools and the evaluator's pools have grown to the document's largest
//! element, the composed loop makes no heap allocation per event
//! (`tests/zero_alloc_exec.rs`).
//!
//! What a run grows outlives it in a [`RunScratch`]: the reader's window,
//! interner and name cache, the XSAX parser's registrations, tables and
//! stacks, and the executor's arena, bindings, frame stacks, evaluator
//! pools and writer stacks. A run over recycled scratch starts exactly
//! where a cold run starts — interners truncated to their seed, the arena
//! document emptied, a new text-gate generation, a fresh tracker — but
//! without rebuilding anything, and a successful run resets the scratch
//! (releasing whatever the input grew past the configured window) before
//! handing it back. A failed run leaves its scratch empty. The one free
//! entry point, [`execute_plan`], runs over an empty scratch; `FluxEngine`
//! pools scratches, so all of its runs after the first are warm.

use crate::buffer::BufferArena;
use crate::error::{Result, RuntimeError};
use crate::plan::{DocTiming, HandlerPlan, Plan, PlanExpr, PsId};
use crate::stats::RunStats;
use flux_dtd::Dtd;
use flux_telemetry::{RunReport, RuntimeCounters, Stage};
use flux_xml::recycle;
use flux_xml::tree::NodeId;
use flux_xml::{
    EventSource, RawEventKind, RawEventRef, ReaderParts, SymbolTable, WriterConfig, WriterParts,
    XmlWriter,
};
use flux_xquery::{CompiledExpr, CursorEvaluator, Slots};
use flux_xsax::{seeded_reader, XsaxConfig, XsaxParser, XsaxParts, XsaxStep};
use std::io::{Read, Write};
use std::time::Instant;

use crate::bdf::SpecView;

/// Per-open-element execution state. The four offsets mark where this
/// element's run starts in the matching [`ExecState`] stack; the run ends
/// where the next frame's starts (or at the stack's end for the top frame).
#[derive(Clone, Copy)]
struct Frame {
    /// Events inside this element are copied to the output.
    copying: bool,
    /// Output end tags owed when this element closes.
    closers: usize,
    /// Start of the buffer insertion points this element's content
    /// populates, in `ExecState::targets`.
    targets: usize,
    /// Start of the process-streams dispatching this element's children,
    /// in `ExecState::scopes`.
    scopes: usize,
    /// Start of the variable bindings to restore at close, in
    /// `ExecState::bindings`.
    bindings: usize,
    /// Start of the scope shells to free at close, in `ExecState::shells`.
    shells: usize,
}

/// Runs a pre-compiled physical plan over an input stream. Starts cold: a
/// [`RunScratch`] reused across runs of the same plan skips the set-up
/// this pays, and its methods also take a parallel source and assemble
/// the telemetry report.
pub fn execute_plan<R: Read, W: Write>(
    plan: &Plan,
    dtd: &Dtd,
    input: R,
    output: W,
    config: XsaxConfig,
) -> Result<RunStats> {
    let (stats, _) = RunScratch::default().execute(plan, dtd, input, output, config, false)?;
    Ok(stats)
}

/// Everything one run of a plan grows, kept for the next run of the same
/// plan: the sequential reader's storage (scanner window, interner, name
/// cache), the XSAX parser's (registrations, tables, stacks, queue) and
/// the executor's (buffer arena, bindings, the four frame stacks, the
/// cursor evaluator's pools, the writer's stacks).
///
/// A successful run resets every part to a fresh run's state before
/// keeping it — interners truncated back to their seed, name-cache entries
/// past the seed invalidated, the arena document emptied, a new text-gate
/// generation, a fresh memory tracker — and releases whatever the input
/// grew past the configured window, so reuse is unobservable in output,
/// statistics and errors, and retention stays bounded. A run that fails
/// leaves the scratch empty: the next run starts cold.
///
/// The scratch belongs to one plan (the XSAX registrations ride along):
/// never hand it to a run of a different plan or DTD.
#[derive(Default)]
pub struct RunScratch {
    reader: Option<ReaderParts>,
    xsax: XsaxParts,
    exec: ExecParts,
}

/// The executor's share of a [`RunScratch`].
#[derive(Default)]
struct ExecParts {
    arena: Option<BufferArena>,
    slots: Slots,
    evaluator: CursorEvaluator,
    writer: WriterParts,
    frames: Vec<Frame>,
    targets: Vec<(NodeId, SpecView)>,
    scopes: Vec<PsId>,
    bindings: Vec<(usize, Option<NodeId>)>,
    shells: Vec<NodeId>,
}

impl RunScratch {
    /// [`execute_plan`] over this scratch's recycled storage, plus the
    /// run's assembled telemetry [`RunReport`] when `want_report` is set.
    pub fn execute<R: Read, W: Write>(
        &mut self,
        plan: &Plan,
        dtd: &Dtd,
        input: R,
        output: W,
        config: XsaxConfig,
        want_report: bool,
    ) -> Result<(RunStats, Option<RunReport>)> {
        let max_bytes = config.window;
        let reader = seeded_reader(input, dtd, &config, self.reader.take());
        let parser = XsaxParser::from_parts(reader, dtd, config, std::mem::take(&mut self.xsax))?;
        let (stats, report, reader) = self.drive(plan, parser, output, want_report, max_bytes)?;
        self.reader = Some(reader.into_parts());
        Ok((stats, report))
    }

    /// [`RunScratch::execute`] over an arbitrary [`EventSource`] — the
    /// entry point for parallel input: hand it a `flux_shard::ShardedReader`
    /// seeded with `flux_xsax::seeded_symbols(&dtd)` and the shards parse
    /// on their own threads while this evaluator (and the XSAX DFA
    /// configuration it drives) consumes the stitched stream sequentially.
    /// Only the XSAX and executor storage is recycled; the source brings
    /// its own. With a sharded source, the report carries the per-shard
    /// pipeline timeline the source recorded.
    pub fn execute_source<S: EventSource, W: Write>(
        &mut self,
        plan: &Plan,
        dtd: &Dtd,
        source: S,
        output: W,
        config: XsaxConfig,
        want_report: bool,
    ) -> Result<(RunStats, Option<RunReport>)> {
        let max_bytes = config.window;
        let parser = XsaxParser::from_parts(source, dtd, config, std::mem::take(&mut self.xsax))?;
        let (stats, report, _source) = self.drive(plan, parser, output, want_report, max_bytes)?;
        Ok((stats, report))
    }

    /// The event loop. The executor and parser parts are taken out of
    /// `self` for the run and put back, reset and trimmed to `max_bytes`
    /// per buffer, only once it succeeded.
    fn drive<S: EventSource, W: Write>(
        &mut self,
        plan: &Plan,
        mut parser: XsaxParser<'_, S>,
        output: W,
        want_report: bool,
        max_bytes: usize,
    ) -> Result<(RunStats, Option<RunReport>, S)> {
        let start_time = Instant::now();
        // Recycled parser parts arrive with the plan's registrations armed.
        if parser.registration_count() == 0 {
            for reg in &plan.past_regs {
                parser.register_past(reg.element, reg.labels.clone())?;
            }
        }
        debug_assert_eq!(parser.registration_count(), plan.past_regs.len());
        let mut state = ExecState::from_parts(
            plan,
            parser.symbols(),
            output,
            std::mem::take(&mut self.exec),
        );
        while let Some(step) = parser.next_step()? {
            state.events += 1;
            match step {
                XsaxStep::Sax => {
                    let v = parser.view();
                    state.handle(&v, parser.symbols())?;
                }
                XsaxStep::Fire { id, depth } => state.on_first(id.index(), depth)?,
            }
        }
        state.writer.finish()?;
        let stats = RunStats {
            peak_buffer_bytes: state.arena.tracker().peak_bytes(),
            peak_buffer_nodes: state.arena.tracker().peak_nodes(),
            total_buffered_bytes: state.arena.tracker().total_allocated_bytes(),
            output_bytes: state.writer.bytes_written(),
            events: state.events,
            duration: start_time.elapsed(),
        };
        // Report assembly happens once, after the stream is drained — the
        // plain path skips even that.
        let report = want_report.then(|| assemble_report(&parser, &state, &stats));
        self.exec = state.into_parts(max_bytes);
        let (source, xsax) = parser.into_parts();
        self.xsax = xsax;
        Ok((stats, report, source))
    }
}

/// Builds the unified [`RunReport`]: the source's stages (scanner/reader,
/// shard pipeline), the XSAX stage, then the runtime and buffer stages
/// owned here.
fn assemble_report<S: EventSource, W: Write>(
    parser: &XsaxParser<'_, S>,
    state: &ExecState<'_, W>,
    stats: &RunStats,
) -> RunReport {
    let mut report = RunReport::new();
    parser.report_into(&mut report);
    let tracker = state.arena.tracker();
    let mut runtime = Stage::new("runtime");
    runtime.counter("events", state.events);
    runtime.absorb(state.tel.snapshot());
    runtime.absorb(tracker.telemetry().snapshot());
    runtime.counter("output_bytes", stats.output_bytes);
    runtime.rate("events_per_second", stats.events_per_second());
    report.stage(runtime);
    let mut buffers = Stage::new("buffers");
    buffers.counter("peak_bytes", stats.peak_buffer_bytes as u64);
    buffers.counter("peak_nodes", stats.peak_buffer_nodes as u64);
    buffers.counter("traffic_bytes", stats.total_buffered_bytes);
    buffers.samples = tracker.residency().snapshot();
    report.stage(buffers);
    report.stats_json = Some(stats.to_json());
    report
}

struct ExecState<'p, W: Write> {
    plan: &'p Plan,
    arena: BufferArena,
    /// Variable bindings, indexed by the plan's slot numbering.
    slots: Slots,
    /// The streaming evaluator for handler bodies — persistent across
    /// firings, so its cursor and string pools reach a steady state with
    /// zero allocations per firing.
    evaluator: CursorEvaluator,
    writer: XmlWriter<W>,
    /// One frame per open element, the document at index 0.
    frames: Vec<Frame>,
    /// Buffer insertion points, one run per frame.
    targets: Vec<(NodeId, SpecView)>,
    /// Installed process-streams, one run per frame.
    scopes: Vec<PsId>,
    /// Shadowed variable bindings (slot, saved value), one run per frame.
    bindings: Vec<(usize, Option<NodeId>)>,
    /// Scope shells, one run per frame.
    shells: Vec<NodeId>,
    events: u64,
    /// Handler-dispatch / on-first counters (zero-sized no-ops unless the
    /// `telemetry` feature is on).
    tel: RuntimeCounters,
}

impl<'p, W: Write> ExecState<'p, W> {
    /// Execution state for one run of `plan` over recycled `parts` (empty
    /// parts for a cold run).
    fn from_parts(plan: &'p Plan, symbols: &SymbolTable, output: W, parts: ExecParts) -> Self {
        let ExecParts {
            arena,
            mut slots,
            evaluator,
            writer,
            frames,
            targets,
            scopes,
            bindings,
            shells,
        } = parts;
        // The BDF's edges were interned at plan-compile time against the
        // DTD's table — the same index space the stream's seeded interner
        // uses — so per-event descent is pure symbol equality with no
        // per-run index build. The arena document seeds its name table
        // from the stream's, so buffered names import as integer copies;
        // a recycled arena was reset to that same seed.
        let arena = arena.unwrap_or_else(|| BufferArena::with_symbols(symbols.clone()));
        debug_assert_eq!(arena.doc().symbols().len(), symbols.len());
        slots.clear();
        slots.resize(plan.slots.len(), None);
        ExecState {
            plan,
            arena,
            slots,
            evaluator,
            writer: XmlWriter::from_parts(output, WriterConfig::default(), writer),
            frames,
            targets,
            scopes,
            bindings,
            shells,
            events: 0,
            tel: RuntimeCounters::default(),
        }
    }

    /// Ends the run and returns its storage reset for the next run of the
    /// same plan, keeping at most `max_bytes` per buffer or pool.
    fn into_parts(self, max_bytes: usize) -> ExecParts {
        let ExecState {
            mut arena,
            slots,
            mut evaluator,
            writer,
            mut frames,
            mut targets,
            mut scopes,
            mut bindings,
            mut shells,
            ..
        } = self;
        arena.reset(max_bytes);
        evaluator.trim(max_bytes);
        let (_, writer) = writer.into_parts(max_bytes);
        recycle::reuse(&mut frames, max_bytes);
        recycle::reuse(&mut targets, max_bytes);
        recycle::reuse(&mut scopes, max_bytes);
        recycle::reuse(&mut bindings, max_bytes);
        recycle::reuse(&mut shells, max_bytes);
        ExecParts {
            arena: Some(arena),
            slots,
            evaluator,
            writer,
            frames,
            targets,
            scopes,
            bindings,
            shells,
        }
    }

    fn handle(&mut self, ev: &RawEventRef<'_>, symbols: &SymbolTable) -> Result<()> {
        self.tel.handler_dispatches(1);
        match ev.kind() {
            RawEventKind::StartDocument => self.start_document(symbols),
            RawEventKind::DoctypeDecl => Ok(()),
            RawEventKind::StartElement => self.start_element(ev, symbols),
            RawEventKind::Text => self.text(ev.text()),
            RawEventKind::EndElement => self.end_element(),
            RawEventKind::EndDocument => self.end_document(symbols),
            RawEventKind::Comment | RawEventKind::ProcessingInstruction => {
                Err(RuntimeError::Plan {
                    message: format!("unexpected event {:?}", ev.kind()),
                })
            }
        }
    }

    /// A frame whose runs start at the current stack tops.
    fn open_frame(&self, copying: bool) -> Frame {
        Frame {
            copying,
            closers: 0,
            targets: self.targets.len(),
            scopes: self.scopes.len(),
            bindings: self.bindings.len(),
            shells: self.shells.len(),
        }
    }

    fn start_document(&mut self, symbols: &SymbolTable) -> Result<()> {
        let mut frame = self.open_frame(false);
        // The arena's own document node doubles as the $ROOT scope shell:
        // it is never freed (the run ends with it) and copying `$ROOT`
        // emits its children, as document-node semantics require.
        let shell = self.arena.doc().document_node();
        self.targets
            .push((shell, SpecView::Project(self.plan.root_spec)));
        let root_slot = self.plan.root_slot;
        let saved = self.slots[root_slot].replace(shell);
        self.bindings.push((root_slot, saved));
        // Evaluate the top prelude (constants, wrappers) and install the
        // top-level process-stream. `self.plan` is a shared reference with
        // lifetime 'p, so plan data can be borrowed independently of self.
        let plan: &'p Plan = self.plan;
        self.enter_plan(&plan.top, &mut frame, None, symbols)?;
        self.frames.push(frame);
        // Document-level on-first handlers that fire before the root.
        self.fire_doc_handlers(DocTiming::AtStart)
    }

    fn start_element(&mut self, ev: &RawEventRef<'_>, symbols: &SymbolTable) -> Result<()> {
        let sym = ev.name();
        let parent = *self
            .frames
            .last()
            .expect("XSAX guarantees events inside the document");
        let mut frame = self.open_frame(parent.copying);
        if parent.copying {
            self.writer.start_element_view(symbols, ev)?;
        }
        // Buffer population: descend every active view on symbol equality
        // (an OVERFLOW name from a bounded-interner stream falls back to
        // comparing the literal spelling, so `max_symbols` can never
        // change what is buffered). The parent's run ends where the new
        // frame's begins, so pushes below never disturb it.
        let literal = ev.name_str(symbols);
        for i in parent.targets..frame.targets {
            let (node, view) = self.targets[i];
            if let Some(child_view) = view.descend_event(&self.plan.specs, sym, literal) {
                let child_node = self.arena.append_element_view(node, symbols, ev);
                self.targets.push((child_node, child_view));
            }
        }
        // Handler dispatch: every matching `on` handler of every scope
        // hosted by the parent, in plan order.
        let plan: &'p Plan = self.plan;
        for i in parent.scopes..frame.scopes {
            for handler in &plan.ps[self.scopes[i]].handlers {
                let HandlerPlan::On {
                    label,
                    symbol,
                    var_slot,
                    spec,
                    body,
                    ..
                } = handler
                else {
                    continue;
                };
                // Symbol equality on the hot path; bounded-interner
                // OVERFLOW names dispatch by their literal spelling.
                let matches = if sym == SymbolTable::OVERFLOW {
                    label.as_str() == literal
                } else {
                    *symbol == Some(sym)
                };
                if !matches {
                    continue;
                }
                // The shell carries only the attributes the plan reads
                // (all of them when the whole subtree is kept): unread
                // minted names must never grow the arena's dictionary.
                let spec_node = plan.specs.node(*spec);
                let shell = if spec_node.whole {
                    self.arena.create_element_view(symbols, ev)
                } else {
                    self.arena
                        .create_element_view_projected(symbols, ev, &spec_node.attrs)
                };
                let saved = self.slots[*var_slot].replace(shell);
                self.bindings.push((*var_slot, saved));
                self.shells.push(shell);
                if !plan.specs.is_empty_spec(*spec) {
                    self.targets.push((shell, SpecView::Project(*spec)));
                }
                self.enter_plan(body, &mut frame, Some(ev), symbols)?;
            }
        }
        self.frames.push(frame);
        Ok(())
    }

    fn text(&mut self, t: &str) -> Result<()> {
        let frame = *self.frames.last().expect("text inside the document");
        if frame.copying {
            self.writer.text(t)?;
        }
        for &(node, view) in &self.targets[frame.targets..] {
            if view.keeps_text(&self.plan.specs) {
                self.arena.append_text(node, t);
            }
        }
        Ok(())
    }

    fn end_element(&mut self) -> Result<()> {
        let frame = self.frames.pop().expect("balanced events");
        if frame.copying {
            self.writer.end_element()?;
        }
        self.close_frame(frame)
    }

    fn end_document(&mut self, _symbols: &SymbolTable) -> Result<()> {
        self.fire_doc_handlers(DocTiming::AtEnd)?;
        let frame = self.frames.pop().expect("document frame");
        self.close_frame(frame)
    }

    /// Emits the frame's owed end tags, restores its bindings in reverse
    /// order, frees its shells in order and truncates every stack back to
    /// the frame's offsets.
    fn close_frame(&mut self, frame: Frame) -> Result<()> {
        for _ in 0..frame.closers {
            self.writer.end_element()?;
        }
        for (slot, saved) in self.bindings.drain(frame.bindings..).rev() {
            self.slots[slot] = saved;
        }
        for shell in self.shells.drain(frame.shells..) {
            self.arena.free_scope(shell);
        }
        self.targets.truncate(frame.targets);
        self.scopes.truncate(frame.scopes);
        Ok(())
    }

    /// The process-streams installed by the frame at `depth`: its run
    /// extends to the next frame's start, or to the stack's end for the
    /// top frame.
    fn scopes_at(&self, depth: usize) -> &[PsId] {
        let start = self.frames[depth].scopes;
        let end = self
            .frames
            .get(depth + 1)
            .map_or(self.scopes.len(), |next| next.scopes);
        &self.scopes[start..end]
    }

    fn on_first(&mut self, reg_index: usize, depth: usize) -> Result<()> {
        let plan: &'p Plan = self.plan;
        let reg = &plan.past_regs[reg_index];
        if depth >= self.frames.len() {
            return Ok(()); // scope not active here
        }
        if !self.scopes_at(depth).contains(&reg.ps) {
            return Ok(()); // a different plan position over the same element type
        }
        let HandlerPlan::OnFirstPast { body, .. } = &plan.ps[reg.ps].handlers[reg.handler_index]
        else {
            return Err(RuntimeError::Plan {
                message: "past registration points at a non-on-first handler".to_string(),
            });
        };
        self.tel.on_first_fires(1);
        self.eval_buffered(body)
    }

    /// Fires the top frame's document-level on-first handlers with the
    /// given timing, in handler order.
    fn fire_doc_handlers(&mut self, timing: DocTiming) -> Result<()> {
        let plan: &'p Plan = self.plan;
        let frame = *self.frames.last().expect("document frame");
        for i in frame.scopes..self.scopes.len() {
            for handler in &plan.ps[self.scopes[i]].handlers {
                if let HandlerPlan::OnFirstPast {
                    doc_timing, body, ..
                } = handler
                {
                    if *doc_timing == timing {
                        self.eval_buffered(body)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluates a compiled expression over the buffer store with the
    /// persistent cursor evaluator. Split-field borrows keep the arena
    /// document readable while the evaluator and writer are mutably held.
    fn eval_buffered(&mut self, body: &CompiledExpr) -> Result<()> {
        let ExecState {
            arena,
            evaluator,
            slots,
            writer,
            ..
        } = self;
        evaluator.eval(arena.doc(), body, slots, writer)?;
        Ok(())
    }

    /// Enters a plan expression at the current stream position: emits
    /// constants and wrappers, evaluates instant buffered expressions,
    /// installs nested process-streams and stream-copies for the element
    /// whose (not yet pushed) frame is `frame`.
    fn enter_plan(
        &mut self,
        plan: &PlanExpr,
        frame: &mut Frame,
        current_child: Option<&RawEventRef<'_>>,
        symbols: &SymbolTable,
    ) -> Result<()> {
        match plan {
            PlanExpr::Empty => Ok(()),
            PlanExpr::Text(s) => {
                self.writer.text(s)?;
                Ok(())
            }
            PlanExpr::BufferedEval(e) => self.eval_buffered(e),
            PlanExpr::Sequence(items) => {
                for item in items {
                    self.enter_plan(item, frame, current_child, symbols)?;
                }
                Ok(())
            }
            PlanExpr::Element {
                name,
                attributes,
                content,
                deferred_close,
            } => {
                {
                    let ExecState {
                        arena,
                        evaluator,
                        slots,
                        writer,
                        ..
                    } = self;
                    evaluator.start_element_with_attrs(
                        arena.doc(),
                        name,
                        attributes,
                        slots,
                        writer,
                    )?;
                }
                self.enter_plan(content, frame, current_child, symbols)?;
                if *deferred_close {
                    frame.closers += 1;
                } else {
                    self.writer.end_element()?;
                }
                Ok(())
            }
            PlanExpr::StreamCopy => {
                let child = current_child.ok_or_else(|| RuntimeError::Plan {
                    message: "stream-copy outside an on-handler".to_string(),
                })?;
                self.writer.start_element_view(symbols, child)?;
                frame.copying = true;
                Ok(())
            }
            PlanExpr::Ps(id) => {
                self.scopes.push(*id);
                Ok(())
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile_plan;
    use flux_dtd::{PAPER_FIG1_DTD, PAPER_WEAK_DTD};
    use flux_lang::{compile, CompileOptions, OptimizerConfig};
    use flux_xml::RawEvent;

    const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

    fn run(query: &str, dtd_text: &str, doc: &str) -> (String, RunStats) {
        let dtd = Dtd::parse(dtd_text).unwrap();
        let compiled = compile(query, &dtd, &CompileOptions::default()).unwrap();
        let plan = compile_plan(&compiled, &dtd).unwrap();
        let mut out = Vec::new();
        let stats = execute_plan(&plan, &dtd, doc.as_bytes(), &mut out, XsaxConfig::default())
            .unwrap_or_else(|e| panic!("execution failed: {e}"));
        (String::from_utf8(out).unwrap(), stats)
    }

    const WEAK_DOC: &str = "<bib><book><author>A1</author><title>T1</title><author>A2</author></book><book><title>T2</title></book></bib>";
    const FIG1_DOC: &str = "<bib><book><title>T1</title><author>A1</author><author>A2</author><publisher>P1</publisher><price>9</price></book><book><title>T2</title><editor>E1</editor><publisher>P2</publisher><price>5</price></book></bib>";

    #[test]
    fn q3_weak_dtd_reorders_correctly() {
        // Input has author BEFORE title; XQuery semantics demand titles
        // first. The buffered author handler must reproduce that.
        let (out, stats) = run(Q3, PAPER_WEAK_DTD, WEAK_DOC);
        assert_eq!(
            out,
            "<results><result><title>T1</title><author>A1</author><author>A2</author></result><result><title>T2</title></result></results>"
        );
        assert!(stats.peak_buffer_bytes > 0, "authors were buffered");
    }

    #[test]
    fn q3_fig1_dtd_streams_with_zero_buffer_growth() {
        let (out, stats) = run(Q3, PAPER_FIG1_DTD, FIG1_DOC);
        assert_eq!(
            out,
            "<results><result><title>T1</title><author>A1</author><author>A2</author></result><result><title>T2</title></result></results>"
        );
        // Scope shells are still created (book/bib bindings), but no child
        // content is ever buffered: total buffered bytes stay tiny and, in
        // particular, the author text never enters the store.
        assert!(
            !format!("{:?}", stats).contains("A1"),
            "sanity: stats don't embed data"
        );
        let (_, stats_big) = run(
            Q3,
            PAPER_FIG1_DTD,
            &FIG1_DOC.replace("A1", &"A".repeat(5000)),
        );
        assert!(
            stats_big.peak_buffer_bytes < 2000,
            "author content must not be buffered under Fig. 1: {} bytes",
            stats_big.peak_buffer_bytes
        );
    }

    #[test]
    fn weak_dtd_buffers_author_content() {
        let (_, stats_small) = run(Q3, PAPER_WEAK_DTD, WEAK_DOC);
        let big_doc = WEAK_DOC.replace("A1", &"A".repeat(5000));
        let (_, stats_big) = run(Q3, PAPER_WEAK_DTD, &big_doc);
        assert!(
            stats_big.peak_buffer_bytes > stats_small.peak_buffer_bytes + 4000,
            "weak DTD must buffer author text: {} vs {}",
            stats_big.peak_buffer_bytes,
            stats_small.peak_buffer_bytes
        );
    }

    #[test]
    fn buffer_is_per_book_not_per_document() {
        // 50 books with one author each: peak should be ~one author, not 50.
        let mut doc = String::from("<bib>");
        for i in 0..50 {
            doc.push_str(&format!(
                "<book><author>Author Number {i:04}</author><title>T{i}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        let (_, stats) = run(Q3, PAPER_WEAK_DTD, &doc);
        // One author is ~50 bytes of content; allow generous slack for the
        // shells, but far below 50 authors.
        assert!(
            stats.peak_buffer_bytes < 1200,
            "peak {} should reflect one book at a time",
            stats.peak_buffer_bytes
        );
    }

    #[test]
    fn stream_copy_whole_books() {
        let q = r#"<results>{ for $b in $ROOT/bib/book return $b }</results>"#;
        let (out, stats) = run(q, PAPER_WEAK_DTD, WEAK_DOC);
        assert_eq!(
            out,
            format!(
                "<results>{}</results>",
                &WEAK_DOC["<bib>".len()..WEAK_DOC.len() - "</bib>".len()]
            )
        );
        assert!(
            stats.peak_buffer_bytes < 600,
            "stream copy must not buffer content: {}",
            stats.peak_buffer_bytes
        );
    }

    #[test]
    fn empty_document_produces_wrapper() {
        let (out, _) = run(Q3, PAPER_WEAK_DTD, "<bib/>");
        assert_eq!(out, "<results></results>");
    }

    #[test]
    fn validation_errors_surface() {
        let dtd = Dtd::parse(PAPER_WEAK_DTD).unwrap();
        let compiled = compile(Q3, &dtd, &CompileOptions::default()).unwrap();
        let plan = compile_plan(&compiled, &dtd).unwrap();
        let mut out = Vec::new();
        let err = execute_plan(
            &plan,
            &dtd,
            "<bib><pamphlet/></bib>".as_bytes(),
            &mut out,
            XsaxConfig::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn whole_node_copy_via_buffer() {
        // {$b}{$b/title}: whole book buffered (past(*)), then title copy.
        let q = r#"<results>{ for $b in $ROOT/bib/book return <r>{$b}{$b/title}</r> }</results>"#;
        let (out, _) = run(
            q,
            PAPER_WEAK_DTD,
            "<bib><book><author>A</author><title>T</title></book></bib>",
        );
        assert_eq!(
            out,
            "<results><r><book><author>A</author><title>T</title></book><title>T</title></r></results>"
        );
    }

    #[test]
    fn conditions_on_buffered_data() {
        let q = r#"<results>{ for $b in $ROOT/bib/book return if ($b/author = "A1") then $b/title else () }</results>"#;
        let (out, _) = run(q, PAPER_WEAK_DTD, WEAK_DOC);
        assert_eq!(out, "<results><title>T1</title></results>");
    }

    #[test]
    fn attribute_templates_from_stream() {
        let dtd_text = "<!ELEMENT bib (book)*>\n<!ELEMENT book (title)>\n<!ELEMENT title (#PCDATA)>\n<!ATTLIST book year CDATA #IMPLIED>";
        let q = r#"<results>{ for $b in $ROOT/bib/book return <b y="{$b/@year}">{$b/title}</b> }</results>"#;
        let (out, _) = run(
            q,
            dtd_text,
            r#"<bib><book year="1994"><title>T</title></book></bib>"#,
        );
        assert_eq!(
            out,
            r#"<results><b y="1994"><title>T</title></b></results>"#
        );
    }

    #[test]
    fn shells_keep_read_attributes_and_drop_minted_ones() {
        // The plan reads only `@year`: a stream minting a fresh attribute
        // name per book must not grow the peak, while the read attribute
        // still resolves. This is the engine-level memory bound against
        // the name-minting adversary.
        let dtd_text = "<!ELEMENT bib (book)*>\n<!ELEMENT book (title)>\n<!ELEMENT title (#PCDATA)>\n<!ATTLIST book year CDATA #IMPLIED>";
        let q = r#"<results>{ for $b in $ROOT/bib/book return <b y="{$b/@year}"/> }</results>"#;
        let doc_with = |books: usize| {
            let mut doc = String::from("<bib>");
            for i in 0..books {
                doc.push_str(&format!(
                    "<book year=\"y{i}\" mint{i:05}=\"v\"><title>T</title></book>"
                ));
            }
            doc.push_str("</bib>");
            doc
        };
        let (out, stats_small) = run(q, dtd_text, &doc_with(5));
        assert!(
            out.starts_with(r#"<results><b y="y0"></b><b y="y1"></b>"#),
            "{out}"
        );
        let (_, stats_big) = run(q, dtd_text, &doc_with(500));
        assert!(
            stats_big.peak_buffer_bytes < stats_small.peak_buffer_bytes * 2,
            "minted attribute names leaked into the dictionary: {} -> {}",
            stats_small.peak_buffer_bytes,
            stats_big.peak_buffer_bytes
        );
    }

    #[test]
    fn join_across_sections_works() {
        let dtd_text = "<!ELEMENT top (bib, reviews)>\n<!ELEMENT bib (book)*>\n<!ELEMENT book (title)>\n<!ELEMENT reviews (entry)*>\n<!ELEMENT entry (title, price)>\n<!ELEMENT title (#PCDATA)>\n<!ELEMENT price (#PCDATA)>";
        let q = r#"<out>{ for $b in $ROOT/top/bib/book, $e in $ROOT/top/reviews/entry where $b/title = $e/title return <hit>{$b/title}{$e/price}</hit> }</out>"#;
        let doc = "<top><bib><book><title>A</title></book><book><title>B</title></book></bib><reviews><entry><title>B</title><price>5</price></entry><entry><title>A</title><price>7</price></entry></reviews></top>";
        let (out, _) = run(q, dtd_text, doc);
        assert_eq!(
            out,
            "<out><hit><title>A</title><price>7</price></hit><hit><title>B</title><price>5</price></hit></out>"
        );
    }

    #[test]
    fn constants_ordered_between_streams() {
        let q = r#"<results>{ for $b in $ROOT/bib/book return <r>{$b/title}{"|"}{$b/author}</r> }</results>"#;
        let (out, _) = run(
            q,
            PAPER_FIG1_DTD,
            "<bib><book><title>T</title><author>A</author><publisher>P</publisher><price>1</price></book></bib>",
        );
        assert_eq!(
            out,
            "<results><r><title>T</title>|<author>A</author></r></results>"
        );
    }

    #[test]
    fn doc_level_whole_copy() {
        let q = r#"<r>{$ROOT}{$ROOT}</r>"#;
        let doc = "<bib><book><title>T</title></book></bib>";
        let dtd_text =
            "<!ELEMENT bib (book)*>\n<!ELEMENT book (title)>\n<!ELEMENT title (#PCDATA)>";
        let (out, stats) = run(q, dtd_text, doc);
        assert_eq!(out, format!("<r>{doc}{doc}</r>"));
        assert!(
            stats.peak_buffer_bytes > doc.len(),
            "whole document buffered"
        );
    }

    /// Every frame stack is empty and every slot unbound again.
    fn assert_unwound<W: Write>(state: &ExecState<'_, W>) {
        assert!(state.frames.is_empty());
        assert!(state.targets.is_empty());
        assert!(state.scopes.is_empty());
        assert!(state.bindings.is_empty());
        assert!(state.shells.is_empty());
        assert!(state.slots.iter().all(Option::is_none));
    }

    #[test]
    fn on_first_for_an_outer_frame_reads_only_that_frames_scopes() {
        // XSAX delivers a fire while its element is the innermost open
        // one, so this drives the executor by hand to reach the case the
        // offset arithmetic must still get right: a fire for an outer
        // frame while inner frames are open. Under Q3 the on-first
        // registration's process-stream is installed by the book frame
        // (depth 2). Its scope run ends where the author frame's begins,
        // and the bib frame's run ends where the book frame's begins.
        let dtd = Dtd::parse(PAPER_WEAK_DTD).unwrap();
        let query = compile(Q3, &dtd, &CompileOptions::default()).unwrap();
        let plan = compile_plan(&query, &dtd).unwrap();
        let symbols = flux_xsax::seeded_symbols(&dtd);
        let book = dtd.lookup("book").unwrap();
        let reg = plan
            .past_regs
            .iter()
            .position(|r| r.element == book)
            .expect("Q3 registers an on-first on book");
        let mut state = ExecState::from_parts(&plan, &symbols, Vec::new(), ExecParts::default());
        let mut ev = RawEvent::new();
        state.start_document(&symbols).unwrap();
        for name in ["bib", "book", "author"] {
            ev.reset(RawEventKind::StartElement);
            ev.set_name(dtd.lookup(name).unwrap());
            state
                .start_element(&RawEventRef::from_event(&ev), &symbols)
                .unwrap();
        }
        state.text("A1").unwrap();
        assert_eq!(state.frames.len(), 4);

        let before = state.writer.bytes_written();
        state.on_first(reg, 1).unwrap();
        state.on_first(reg, 3).unwrap();
        state.on_first(reg, 4).unwrap();
        assert_eq!(
            state.writer.bytes_written(),
            before,
            "fired for a frame that does not host the registration's scope"
        );
        state.on_first(reg, 2).unwrap();
        assert!(
            state.writer.bytes_written() > before,
            "book frame fire lost"
        );

        for _ in 0..3 {
            state.end_element().unwrap();
        }
        state.end_document(&symbols).unwrap();
        assert_unwound(&state);
        state.writer.finish().unwrap();
        assert_eq!(
            String::from_utf8(state.writer.into_inner()).unwrap(),
            "<results><result><author>A1</author></result></results>"
        );
    }

    #[test]
    fn shadowing_on_handlers_restore_in_reverse() {
        // Unoptimised, this schedules two `on title as $t` handlers in one
        // process-stream: each title frame binds `$t`'s slot twice, over
        // the book-level `$t`. The past(title) handler then reads the
        // book-level `$t` right after the title frame closes, so restoring
        // the bindings in any order but reverse would hand it a freed
        // title shell.
        let q = r#"<r>{ for $t in $ROOT/bib/book return <x>{for $t in $t/title return <a/>}{for $t in $t/title return $t}{$t/title}</x> }</r>"#;
        let dtd = Dtd::parse(PAPER_FIG1_DTD).unwrap();
        let options = CompileOptions {
            optimizer: OptimizerConfig::disabled(),
            ..CompileOptions::default()
        };
        let query = compile(q, &dtd, &options).unwrap();
        let plan = compile_plan(&query, &dtd).unwrap();
        let title = dtd.lookup("title").unwrap();
        let shadowing: Vec<usize> = plan
            .ps
            .iter()
            .flat_map(|ps| &ps.handlers)
            .filter_map(|h| match h {
                HandlerPlan::On {
                    symbol, var_slot, ..
                } if *symbol == Some(title) => Some(*var_slot),
                _ => None,
            })
            .collect();
        assert_eq!(shadowing.len(), 2, "two `on title` handlers expected");
        assert_eq!(shadowing[0], shadowing[1], "both must bind one slot");

        let doc = "<bib><book><title>T1</title><author>A</author><publisher>P</publisher><price>1</price></book>\
                   <book><title>T2</title><editor>E</editor><publisher>P</publisher><price>2</price></book></bib>";
        let mut out = Vec::new();
        execute_plan(&plan, &dtd, doc.as_bytes(), &mut out, XsaxConfig::default()).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<r><x><a></a><title>T1</title><title>T1</title></x>\
             <x><a></a><title>T2</title><title>T2</title></x></r>"
        );
    }

    #[test]
    fn stream_copy_and_buffering_share_a_frame() {
        // The first `$b/title` stream-copies each title while the trailing
        // one needs it buffered: every title frame is copying to the
        // output and populating the book's buffer at once.
        let q =
            r#"<r>{ for $b in $ROOT/bib/book return <x>{$b/title}{$b/author}{$b/title}</x> }</r>"#;
        let dtd = Dtd::parse(PAPER_FIG1_DTD).unwrap();
        let query = compile(q, &dtd, &CompileOptions::default()).unwrap();
        let plan = compile_plan(&query, &dtd).unwrap();
        let symbols = flux_xsax::seeded_symbols(&dtd);
        let mut state = ExecState::from_parts(&plan, &symbols, Vec::new(), ExecParts::default());
        let mut ev = RawEvent::new();
        state.start_document(&symbols).unwrap();
        for name in ["bib", "book", "title"] {
            ev.reset(RawEventKind::StartElement);
            ev.set_name(dtd.lookup(name).unwrap());
            state
                .start_element(&RawEventRef::from_event(&ev), &symbols)
                .unwrap();
        }
        let frame = *state.frames.last().unwrap();
        assert!(frame.copying, "title is stream-copied");
        assert_eq!(
            state.targets.len() - frame.targets,
            1,
            "title is buffered into the book shell"
        );
        state.end_element().unwrap();
        assert_eq!(state.targets.len(), frame.targets, "title run truncated");
        for _ in 0..2 {
            state.end_element().unwrap();
        }
        state.end_document(&symbols).unwrap();
        assert_unwound(&state);

        let doc = "<bib><book><title>T1</title><author>A1</author><author>A2</author><publisher>P</publisher><price>1</price></book>\
                   <book><title>T2</title><editor>E</editor><publisher>P</publisher><price>2</price></book></bib>";
        let (out, _) = run(q, PAPER_FIG1_DTD, doc);
        assert_eq!(
            out,
            "<r><x><title>T1</title><author>A1</author><author>A2</author><title>T1</title></x>\
             <x><title>T2</title><title>T2</title></x></r>"
        );
    }
}
