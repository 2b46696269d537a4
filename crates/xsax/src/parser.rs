//! The XSAX parser: DTD validation + `on-first` event generation.
//!
//! The parser is **symbol-native**: at construction it clones the DTD's
//! [`SymbolTable`] into the underlying [`XmlReader`], so the symbols the
//! reader produces *are* the symbols the DTD's content-model DFAs
//! transition on — no per-event name lookup or re-hashing anywhere. Element
//! declarations and attribute lists are pre-resolved into dense
//! symbol-indexed tables.
//!
//! The hot pull API is the **zero-copy step protocol**:
//! [`XsaxParser::next_step`] advances and [`XsaxParser::view`] exposes the
//! delivered event as a borrowed [`RawEventRef`] — payload bytes flow from
//! the source's storage (scanner window or shard tape arena) to the
//! consumer without a copy. Attribute defaults a validating parser must
//! inject are kept in a side list and chained onto the view, so even
//! default injection does not force materialisation. It is the parser's
//! only pull API: a consumer that needs an owned event renders the view
//! with [`RawEventRef::to_xml_event`].

use crate::error::{Result, XsaxError};
use crate::event::{PastId, PastLabels, XsaxStep};
use flux_dtd::{AttDefault, Dfa, Dtd, ElementDecl, StateId, Symbol, SymbolTable};
use flux_telemetry::{RunReport, Stage, XsaxCounters};
use flux_xml::recycle::{self, relabel};
use flux_xml::{EventSource, RawEventKind, RawEventRef, ReaderParts, XmlEvent, XmlReader};
use std::collections::{HashMap, VecDeque};
use std::io::Read;

/// The symbol table an [`EventSource`] must be seeded with before it can
/// feed [`XsaxParser::from_source`]: the DTD's own table (element names)
/// plus every declared attribute name. Clones preserve indices, so symbols
/// produced by a seeded source *are* the symbols the DTD's content-model
/// DFAs transition on.
pub fn seeded_symbols(dtd: &Dtd) -> SymbolTable {
    let mut symbols = dtd.symbols().clone();
    for decl in dtd.elements() {
        for def in &decl.attlist {
            symbols.intern(&def.name);
        }
    }
    symbols
}

/// Configuration for [`XsaxParser`].
#[derive(Debug, Clone)]
pub struct XsaxConfig {
    /// Reject attributes that are not declared in an `ATTLIST` and require
    /// `#REQUIRED` attributes to be present. Defaults to `false`.
    pub strict_attributes: bool,
    /// Drop whitespace-only text between children of element-content
    /// elements ("ignorable whitespace"). Defaults to `true`.
    pub suppress_ignorable_whitespace: bool,
    /// Cap on the reader interner (see
    /// [`flux_xml::ReaderConfig::max_symbols`]); default `None`. The
    /// schema vocabulary is always pre-seeded, so on valid input the cap
    /// only affects undeclared names — which travel by literal spelling
    /// and never change validation verdicts or query output.
    pub max_symbols: Option<usize>,
    /// Scanner window size for the underlying reader (see
    /// [`flux_xml::ReaderConfig::window`]).
    pub window: usize,
    /// Memory budget threaded through to the reader's scanner (see
    /// [`flux_xml::ReaderConfig::budget`]).
    pub budget: Option<std::sync::Arc<flux_xml::MemoryBudget>>,
}

impl Default for XsaxConfig {
    fn default() -> Self {
        XsaxConfig {
            strict_attributes: false,
            suppress_ignorable_whitespace: true,
            max_symbols: None,
            window: flux_xml::DEFAULT_WINDOW,
            budget: None,
        }
    }
}

#[derive(Debug)]
struct Registration {
    /// Element type the query is registered on (kept for diagnostics).
    #[allow(dead_code)]
    element: Symbol,
    labels: PastLabels,
}

/// Per-instance tracker of one registration.
#[derive(Debug)]
struct Tracker {
    id: PastId,
    fired: bool,
}

struct OpenElement<'d> {
    symbol: Symbol,
    dfa: &'d Dfa,
    state: StateId,
    text_allowed: bool,
    /// Depth of this element (document = 0, root = 1).
    depth: usize,
    trackers: Vec<Tracker>,
}

/// One pre-resolved `ATTLIST` entry: interned name, requiredness, and the
/// default value to inject when the attribute is absent.
struct AttPlan<'d> {
    name: Symbol,
    required: bool,
    default: Option<&'d str>,
}

/// A queued deliverable: the parked sax event, or a fired past query.
enum Pending {
    Sax,
    Fire { id: PastId, depth: usize },
}

/// The XSAX validating parser. See the crate docs for the event-ordering
/// contract.
///
/// Generic over its [`EventSource`]: the classic constructors wrap a
/// sequential [`XmlReader`], while [`XsaxParser::from_source`] accepts any
/// seeded source — notably `flux_shard::ShardedReader`, whose shards parse
/// in parallel while this parser carries the content-model DFA
/// configuration (the single piece of cross-shard state) across every
/// shard seam, so validation verdicts are exactly the sequential ones.
pub struct XsaxParser<'d, S: EventSource> {
    source: S,
    dtd: &'d Dtd,
    config: XsaxConfig,
    registrations: Vec<Registration>,
    by_element: HashMap<Symbol, Vec<PastId>>,
    /// Dense per-symbol element declarations (`decls[sym.index()]`);
    /// symbols interned after construction (attribute names, undeclared
    /// element names) fall off the end and resolve to `None`.
    decls: Vec<Option<&'d ElementDecl>>,
    /// Every element's pre-resolved attribute plans, back to back.
    att_plans: Vec<AttPlan<'d>>,
    /// Per-symbol `(start, end)` run of `att_plans`, same indexing as
    /// `decls`.
    att_spans: Vec<(usize, usize)>,
    stack: Vec<OpenElement<'d>>,
    /// Emptied tracker vectors of closed elements, reused by the next
    /// element that has registrations (so their capacity is kept).
    spare_trackers: Vec<Vec<Tracker>>,
    /// Deliverables for the current stream seam, in delivery order.
    /// `Pending::Sax` refers to the *source's current event* — the source
    /// is not advanced again until the queue is drained, so the borrowed
    /// view stays valid across the queued deliveries.
    pending: VecDeque<Pending>,
    /// Attribute defaults injected for the current start element, chained
    /// onto the view after the literal attributes. Values borrow the DTD.
    injected: Vec<(Symbol, &'d str)>,
    started: bool,
    finished: bool,
    /// Validation/fire counters (zero-sized unless telemetry is enabled).
    tel: XsaxCounters,
}

/// The storage an [`XsaxParser`] recycles across runs: its past-query
/// registrations, the dense declaration and attribute tables, the element
/// stack, spare tracker vectors and the delivery queue. Registrations ride
/// along because they belong to one plan: parts taken from a parser must
/// only be handed to a parser for the same plan (the runtime keeps one
/// pool of parts per compiled engine). Default parts build a fresh parser.
///
/// Tables that borrow the DTD are kept as empty allocations only (see
/// [`flux_xml::recycle::relabel`]) and are refilled from the DTD by
/// [`XsaxParser::from_parts`].
#[derive(Default)]
pub struct XsaxParts {
    registrations: Vec<Registration>,
    by_element: HashMap<Symbol, Vec<PastId>>,
    decls: Vec<Option<&'static ElementDecl>>,
    att_plans: Vec<AttPlan<'static>>,
    att_spans: Vec<(usize, usize)>,
    stack: Vec<OpenElement<'static>>,
    spare_trackers: Vec<Vec<Tracker>>,
    pending: VecDeque<Pending>,
    injected: Vec<(Symbol, &'static str)>,
}

/// The sequential reader [`XsaxParser`] validates, seeded for `dtd` with
/// [`seeded_symbols`] and configured from `config`'s ingestion knobs
/// (interner cap, window, budget). `parts` are a previous reader's
/// recycled storage over the same schema, or `None` to seed a fresh one.
pub fn seeded_reader<R: Read>(
    src: R,
    dtd: &Dtd,
    config: &XsaxConfig,
    parts: Option<ReaderParts>,
) -> XmlReader<R> {
    let reader_config = flux_xml::ReaderConfig {
        max_symbols: config.max_symbols,
        window: config.window,
        budget: config.budget.clone(),
        ..Default::default()
    };
    let parts = parts.unwrap_or_else(|| ReaderParts::new(seeded_symbols(dtd)));
    XmlReader::from_parts(src, reader_config, parts)
}

impl<'d, R: Read> XsaxParser<'d, XmlReader<R>> {
    /// Creates a parser over `src` validating against `dtd`.
    ///
    /// Fails when the DTD has no known root element (parse it with
    /// [`Dtd::parse_with_root`] in that case).
    pub fn new(src: R, dtd: &'d Dtd) -> Result<Self> {
        Self::with_config(src, dtd, XsaxConfig::default())
    }

    pub fn with_config(src: R, dtd: &'d Dtd, config: XsaxConfig) -> Result<Self> {
        // Seed the reader's interner with the DTD's table (plus attlist
        // names): clones preserve indices, so stream symbols coincide with
        // schema symbols and attribute validation is symbol equality too.
        let reader = seeded_reader(src, dtd, &config, None);
        Self::from_source(reader, dtd, config)
    }
}

impl<'d, S: EventSource> XsaxParser<'d, S> {
    /// Wraps an already-seeded event source. `source.symbols()` must have
    /// been seeded with [`seeded_symbols`] (or a clone of it) so stream
    /// symbols coincide with schema symbols — this is how the parallel
    /// `ShardedReader` plugs in: its shards parse in parallel, and this
    /// parser threads the DFA configuration across their seams.
    pub fn from_source(source: S, dtd: &'d Dtd, config: XsaxConfig) -> Result<Self> {
        Self::from_parts(source, dtd, config, XsaxParts::default())
    }

    /// [`XsaxParser::from_source`] over recycled `parts` (see
    /// [`XsaxParts`]): the dense tables are refilled from `dtd` into the
    /// recycled allocations, and the parts' registrations are armed again.
    pub fn from_parts(
        source: S,
        dtd: &'d Dtd,
        config: XsaxConfig,
        parts: XsaxParts,
    ) -> Result<Self> {
        if dtd.content_dfa(SymbolTable::DOCUMENT).is_none() {
            return Err(XsaxError::Config {
                message: "the DTD has no unambiguous root element".to_string(),
            });
        }
        let symbols = source.symbols();
        let mut decls: Vec<Option<&'d ElementDecl>> = relabel(parts.decls);
        decls.resize(dtd.symbols().len(), None);
        let mut att_plans: Vec<AttPlan<'d>> = relabel(parts.att_plans);
        let mut att_spans = parts.att_spans;
        att_spans.clear();
        for decl in dtd.elements() {
            decls[decl.name.index()] = Some(decl);
            // Guard against unseeded sources: the dense tables below index
            // by schema symbol, which only works when the source's interner
            // agrees with the DTD's on every element name.
            if symbols.lookup(dtd.name(decl.name)) != Some(decl.name) {
                return Err(XsaxError::Config {
                    message: format!(
                        "event source symbols not seeded with element `{}` \
                         (seed the source with flux_xsax::seeded_symbols)",
                        dtd.name(decl.name)
                    ),
                });
            }
        }
        for decl in dtd.elements() {
            let start = att_plans.len();
            for def in &decl.attlist {
                att_plans.push(AttPlan {
                    name: symbols.lookup(&def.name).ok_or_else(|| XsaxError::Config {
                        message: format!(
                            "event source symbols not seeded with attribute `{}` \
                             (seed the source with flux_xsax::seeded_symbols)",
                            def.name
                        ),
                    })?,
                    required: matches!(def.default, AttDefault::Required),
                    default: match &def.default {
                        AttDefault::Default(v) | AttDefault::Fixed(v) => Some(v.as_str()),
                        _ => None,
                    },
                });
            }
            if att_spans.len() <= decl.name.index() {
                att_spans.resize(decl.name.index() + 1, (0, 0));
            }
            att_spans[decl.name.index()] = (start, att_plans.len());
        }
        Ok(XsaxParser {
            source,
            dtd,
            config,
            registrations: parts.registrations,
            by_element: parts.by_element,
            decls,
            att_plans,
            att_spans,
            stack: relabel(parts.stack),
            spare_trackers: parts.spare_trackers,
            pending: parts.pending,
            injected: relabel(parts.injected),
            started: false,
            finished: false,
            tel: XsaxCounters::default(),
        })
    }

    /// Ends this run and returns the source plus the parser's storage for
    /// the next run over the same plan, emptied, with anything the input
    /// grew past the configured window released (see
    /// [`flux_xml::recycle`]). Registrations are kept.
    pub fn into_parts(self) -> (S, XsaxParts) {
        let max_bytes = self.config.window;
        let XsaxParser {
            source,
            registrations,
            by_element,
            decls,
            att_plans,
            att_spans,
            stack,
            mut spare_trackers,
            mut pending,
            injected,
            ..
        } = self;
        let mut stack = relabel(stack);
        recycle::reuse(&mut stack, max_bytes);
        recycle::trim_pool(&mut spare_trackers, max_bytes);
        pending.clear();
        if pending.capacity() * std::mem::size_of::<Pending>() > max_bytes {
            pending = VecDeque::new();
        }
        let parts = XsaxParts {
            registrations,
            by_element,
            decls: relabel(decls),
            att_plans: relabel(att_plans),
            att_spans,
            stack,
            spare_trackers,
            pending,
            injected: relabel(injected),
        };
        (source, parts)
    }

    /// Registers a past query: fire once per `element` instance as soon as
    /// no child with a label in `labels` can occur any more. Must be called
    /// before the first event is pulled.
    pub fn register_past(&mut self, element: Symbol, labels: PastLabels) -> Result<PastId> {
        if self.started {
            return Err(XsaxError::Config {
                message: "register_past called after streaming started".to_string(),
            });
        }
        let id = PastId(u32::try_from(self.registrations.len()).expect("too many registrations"));
        self.by_element.entry(element).or_default().push(id);
        self.registrations.push(Registration { element, labels });
        Ok(id)
    }

    /// Number of registered past queries.
    pub fn registration_count(&self) -> usize {
        self.registrations.len()
    }

    /// The shared symbol table (DTD symbols plus names interned from the
    /// stream). Use it to render the symbols in raw events.
    pub fn symbols(&self) -> &SymbolTable {
        self.source.symbols()
    }

    /// Current input position.
    pub fn position(&self) -> flux_xml::Position {
        self.source.position()
    }

    /// Appends the source's telemetry stages (scanner/reader, and the
    /// shard pipeline when the source is sharded) followed by this
    /// parser's own `xsax` stage. Stages are empty when the `telemetry`
    /// feature is off.
    pub fn report_into(&self, report: &mut RunReport) {
        self.source.report_into(report);
        let mut stage = Stage::new("xsax");
        stage.counter("registrations", self.registrations.len() as u64);
        stage.absorb(self.tel.snapshot());
        report.stage(stage);
    }

    fn validation(&self, message: impl Into<String>) -> XsaxError {
        XsaxError::Validation {
            message: message.into(),
            pos: self.source.position(),
        }
    }

    /// Fires all trackers of `elem` whose past condition holds at `state`
    /// (or unconditionally with `force`), queueing fire deliverables.
    fn fire_ready(
        registrations: &[Registration],
        elem: &mut OpenElement<'_>,
        state: StateId,
        force: bool,
        out: &mut VecDeque<Pending>,
        tel: &mut XsaxCounters,
    ) {
        let dfa = elem.dfa;
        let text_allowed = elem.text_allowed;
        let depth = elem.depth;
        for tracker in &mut elem.trackers {
            if tracker.fired {
                continue;
            }
            tel.past_fire_checks(1);
            let reg = &registrations[tracker.id.index()];
            if force || is_past_at(dfa, text_allowed, &reg.labels, state) {
                tracker.fired = true;
                out.push_back(Pending::Fire {
                    id: tracker.id,
                    depth,
                });
            }
        }
    }

    /// Pulls the next step of the validated stream — the zero-copy hot
    /// path.
    ///
    /// Returns [`XsaxStep::Sax`] when the next validated event is readable
    /// through [`XsaxParser::view`], [`XsaxStep::Fire`] for a fired past
    /// query, or `None` after `EndDocument` has been delivered. No payload
    /// bytes are copied and no heap is touched: the event stays wherever
    /// the source keeps it (scanner window, tape arena) until the next
    /// step consumes it.
    pub fn next_step(&mut self) -> Result<Option<XsaxStep>> {
        loop {
            if let Some(p) = self.pending.pop_front() {
                // Counted at delivery, so every push site is covered once.
                return Ok(Some(match p {
                    Pending::Sax => {
                        self.tel.sax_events(1);
                        XsaxStep::Sax
                    }
                    Pending::Fire { id, depth } => {
                        self.tel.fires(1);
                        XsaxStep::Fire { id, depth }
                    }
                }));
            }
            if self.finished {
                return Ok(None);
            }
            self.started = true;
            self.injected.clear();
            if !self.source.advance()? {
                self.finished = true;
                return Ok(None);
            }
            match self.source.view().kind() {
                RawEventKind::StartDocument => self.pending.push_back(Pending::Sax),
                RawEventKind::DoctypeDecl => {
                    if let Some(root) = self.dtd.root() {
                        let v = self.source.view();
                        let name = v.target();
                        if self.dtd.lookup(name) != Some(root) {
                            let message = format!(
                                "DOCTYPE names `{name}` but the DTD root is `{}`",
                                self.dtd.name(root)
                            );
                            return Err(self.validation(message));
                        }
                    }
                    self.pending.push_back(Pending::Sax);
                }
                RawEventKind::StartElement => self.handle_start()?,
                RawEventKind::EndElement => self.handle_end()?,
                RawEventKind::Text => self.handle_text()?,
                RawEventKind::Comment | RawEventKind::ProcessingInstruction => {}
                RawEventKind::EndDocument => {
                    self.finished = true;
                    self.pending.push_back(Pending::Sax);
                }
            }
        }
    }

    /// A borrowed view of the event behind the last [`XsaxStep::Sax`]:
    /// the source's current event plus any injected attribute defaults,
    /// valid until the next [`XsaxParser::next_step`].
    pub fn view(&self) -> RawEventRef<'_> {
        self.source.view().with_defaults(&self.injected)
    }

    /// Looks up the pre-resolved declaration for a stream symbol.
    fn decl_of(&self, sym: Symbol) -> Option<&'d ElementDecl> {
        self.decls.get(sym.index()).copied().flatten()
    }

    fn handle_start(&mut self) -> Result<()> {
        let v = self.source.view();
        let sym = v.name();
        let Some(decl) = self.decl_of(sym) else {
            let message = format!(
                "element `{}` is not declared in the DTD",
                v.name_str(self.source.symbols())
            );
            return Err(self.validation(message));
        };

        // Transition the parent's content automaton (the document automaton
        // for the root) and queue parent seam fires, in delivery order
        // (before the start tag).
        self.tel.validation_steps(1);
        if let Some(parent) = self.stack.last_mut() {
            let next = parent.dfa.transition(parent.state, sym).ok_or_else(|| {
                let expected: Vec<String> = parent
                    .dfa
                    .transitions(parent.state)
                    .iter()
                    .map(|&(s, _)| self.dtd.name(s).to_string())
                    .collect();
                XsaxError::Validation {
                    message: format!(
                        "element `{}` not allowed here inside `{}` (expected one of: {})",
                        v.name_str(self.source.symbols()),
                        self.dtd.name(parent.symbol),
                        if expected.is_empty() {
                            "end of element".to_string()
                        } else {
                            expected.join(", ")
                        }
                    ),
                    pos: self.source.position(),
                }
            })?;
            parent.state = next;
            // Fire parent trackers whose guarantee starts at this seam,
            // except those that mention this very child's label (they fire
            // once the child completes).
            let regs = &self.registrations;
            let parent_state = parent.state;
            let dfa = parent.dfa;
            let text_allowed = parent.text_allowed;
            let depth = parent.depth;
            for tracker in &mut parent.trackers {
                if tracker.fired {
                    continue;
                }
                self.tel.past_fire_checks(1);
                let reg = &regs[tracker.id.index()];
                let involves_child = match &reg.labels {
                    PastLabels::All => true,
                    PastLabels::Labels(set) => set.contains(&sym),
                };
                if !involves_child && is_past_at(dfa, text_allowed, &reg.labels, parent_state) {
                    tracker.fired = true;
                    self.pending.push_back(Pending::Fire {
                        id: tracker.id,
                        depth,
                    });
                }
            }
        } else {
            // Root element: validate against the virtual document model.
            let doc_dfa = self
                .dtd
                .content_dfa(SymbolTable::DOCUMENT)
                .expect("checked in constructor");
            if doc_dfa.transition(doc_dfa.start(), sym).is_none() {
                let message = format!(
                    "root element `{}` does not match the DTD root `{}`",
                    v.name_str(self.source.symbols()),
                    self.dtd.root().map(|r| self.dtd.name(r)).unwrap_or("?")
                );
                return Err(self.validation(message));
            }
        }

        self.validate_attributes(sym)?;

        // Open the element and instantiate its trackers.
        let depth = self.stack.len() + 1;
        let mut trackers = Vec::new();
        if let Some(ids) = self.by_element.get(&sym) {
            trackers = self.spare_trackers.pop().unwrap_or_default();
            trackers.extend(ids.iter().map(|&id| Tracker { id, fired: false }));
        }
        let mut elem = OpenElement {
            symbol: sym,
            dfa: &decl.dfa,
            state: decl.dfa.start(),
            text_allowed: decl.text_allowed,
            depth,
            trackers,
        };

        // Delivery order: parent seam fires (already queued), then the
        // start tag, then immediately-past fires of the new element
        // (labels that can never occur in this element).
        self.pending.push_back(Pending::Sax);
        let start_state = elem.dfa.start();
        Self::fire_ready(
            &self.registrations,
            &mut elem,
            start_state,
            false,
            &mut self.pending,
            &mut self.tel,
        );

        self.stack.push(elem);
        Ok(())
    }

    fn handle_end(&mut self) -> Result<()> {
        // Document-mode readers and the stitched sharded reader guarantee
        // balance; guard anyway so a misused fragment source yields an
        // error, not a panic.
        let Some(elem) = self.stack.last_mut() else {
            return Err(XsaxError::Validation {
                message: "end tag with no open element (unbalanced event source)".to_string(),
                pos: self.source.position(),
            });
        };
        self.tel.validation_steps(1);
        if !elem.dfa.is_accepting(elem.state) {
            let expected: Vec<String> = elem
                .dfa
                .transitions(elem.state)
                .iter()
                .map(|&(s, _)| self.dtd.name(s).to_string())
                .collect();
            return Err(XsaxError::Validation {
                message: format!(
                    "content of `{}` is incomplete (expected one of: {})",
                    self.dtd.name(elem.symbol),
                    expected.join(", ")
                ),
                pos: self.source.position(),
            });
        }

        // Everything is past at the closing tag: fire all remaining trackers
        // before the end event.
        let state = elem.state;
        Self::fire_ready(
            &self.registrations,
            elem,
            state,
            true,
            &mut self.pending,
            &mut self.tel,
        );
        let mut trackers = self.stack.pop().expect("checked above").trackers;
        if trackers.capacity() > 0 {
            trackers.clear();
            self.spare_trackers.push(trackers);
        }

        self.pending.push_back(Pending::Sax);

        // A completed child may release parent trackers that were deferred
        // because the child's own label was in their set.
        if let Some(parent) = self.stack.last_mut() {
            let parent_state = parent.state;
            Self::fire_ready(
                &self.registrations,
                parent,
                parent_state,
                false,
                &mut self.pending,
                &mut self.tel,
            );
        }
        Ok(())
    }

    fn handle_text(&mut self) -> Result<()> {
        self.tel.validation_steps(1);
        let elem = self.stack.last().ok_or_else(|| XsaxError::Validation {
            message: "character data outside the root element (unbalanced event source)"
                .to_string(),
            pos: self.source.position(),
        })?;
        let whitespace_only = self.source.view().is_whitespace_text();
        if !elem.text_allowed {
            if !whitespace_only {
                return Err(self.validation(format!(
                    "character data is not allowed inside `{}` (element content)",
                    self.dtd.name(elem.symbol)
                )));
            }
            if self.config.suppress_ignorable_whitespace {
                return Ok(());
            }
        }
        self.pending.push_back(Pending::Sax);
        Ok(())
    }

    /// Validates the current start tag's attributes against the element's
    /// pre-resolved `ATTLIST` and collects declared defaults into the
    /// injected side list (chained onto the view after the literal
    /// attributes), as a validating parser must. Pure symbol equality — no
    /// string hashing, and no event materialisation.
    fn validate_attributes(&mut self, sym: Symbol) -> Result<()> {
        let v = self.source.view();
        let plans = match self.att_spans.get(sym.index()) {
            Some(&(start, end)) => &self.att_plans[start..end],
            None => &[],
        };
        if self.config.strict_attributes {
            for attr in v.attrs() {
                if !plans.iter().any(|d| d.name == attr.name) {
                    return Err(XsaxError::Validation {
                        message: format!(
                            "attribute `{}` is not declared for element `{}`",
                            attr.name_str(self.source.symbols()),
                            v.name_str(self.source.symbols())
                        ),
                        pos: self.source.position(),
                    });
                }
            }
            for def in plans {
                if def.required && !v.attrs().any(|a| a.name == def.name) {
                    return Err(XsaxError::Validation {
                        message: format!(
                            "required attribute `{}` missing on element `{}`",
                            self.source.symbols().name(def.name),
                            v.name_str(self.source.symbols())
                        ),
                        pos: self.source.position(),
                    });
                }
            }
        }
        for def in plans {
            let Some(value) = def.default else { continue };
            if !v.attrs().any(|a| a.name == def.name) {
                self.injected.push((def.name, value));
            }
        }
        Ok(())
    }
}

/// Whether `labels` is "past" at `state`: no label in the set can occur on
/// any continuation (text counts as always-possible while the element allows
/// character data).
fn is_past_at(dfa: &Dfa, text_allowed: bool, labels: &PastLabels, state: StateId) -> bool {
    match labels {
        PastLabels::All => false,
        PastLabels::Labels(set) => {
            if set.contains(&SymbolTable::TEXT) && text_allowed {
                return false;
            }
            let still = dfa.still_possible(state);
            set.iter()
                .filter(|&&s| s != SymbolTable::TEXT)
                .all(|s| !still.contains(s))
        }
    }
}

/// Convenience: validates a complete document, returning the number of
/// delivered events.
pub fn validate<R: Read>(src: R, dtd: &Dtd) -> Result<u64> {
    let mut parser = XsaxParser::new(src, dtd)?;
    let mut n = 0;
    while parser.next_step()?.is_some() {
        n += 1;
    }
    Ok(n)
}

/// Convenience for tests: runs a document through XSAX with the given past
/// registrations, returning a rendered event trace.
pub fn trace(
    input: &str,
    dtd: &Dtd,
    registrations: &[(Symbol, PastLabels)],
) -> Result<Vec<String>> {
    let mut parser = XsaxParser::new(input.as_bytes(), dtd)?;
    for (sym, labels) in registrations {
        parser.register_past(*sym, labels.clone())?;
    }
    let mut out = Vec::new();
    while let Some(step) = parser.next_step()? {
        match step {
            XsaxStep::Fire { id, .. } => out.push(format!("past#{}", id.0)),
            XsaxStep::Sax => match parser.view().to_xml_event(parser.symbols()) {
                XmlEvent::StartDocument | XmlEvent::EndDocument | XmlEvent::DoctypeDecl { .. } => {}
                XmlEvent::StartElement { name, .. } => out.push(format!("<{name}>")),
                XmlEvent::EndElement { name } => out.push(format!("</{name}>")),
                XmlEvent::Text(t) => out.push(format!("{t:?}")),
                other => out.push(other.kind().to_string()),
            },
        }
    }
    Ok(out)
}
#[cfg(test)]
mod tests {
    use super::*;
    use flux_dtd::{PAPER_FIG1_DTD, PAPER_WEAK_DTD};

    const FIG1_DOC: &str = "<bib><book><title>T1</title><author>A1</author><author>A2</author><publisher>P</publisher><price>9</price></book></bib>";
    const WEAK_DOC: &str =
        "<bib><book><author>A1</author><title>T1</title><author>A2</author></book></bib>";

    fn fig1() -> Dtd {
        Dtd::parse(PAPER_FIG1_DTD).unwrap()
    }

    fn weak() -> Dtd {
        Dtd::parse(PAPER_WEAK_DTD).unwrap()
    }

    #[test]
    fn validates_conforming_document() {
        let dtd = fig1();
        assert!(validate(FIG1_DOC.as_bytes(), &dtd).is_ok());
    }

    #[test]
    fn rejects_wrong_child_order() {
        let dtd = fig1();
        let doc = "<bib><book><author>A</author><title>T</title><publisher>P</publisher><price>9</price></book></bib>";
        let err = validate(doc.as_bytes(), &dtd).unwrap_err();
        assert!(matches!(err, XsaxError::Validation { .. }), "{err}");
    }

    #[test]
    fn rejects_incomplete_content() {
        let dtd = fig1();
        let doc = "<bib><book><title>T</title><author>A</author></book></bib>";
        let err = validate(doc.as_bytes(), &dtd).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("incomplete"), "{msg}");
    }

    #[test]
    fn rejects_undeclared_element() {
        let dtd = fig1();
        let doc = "<bib><pamphlet/></bib>";
        let err = validate(doc.as_bytes(), &dtd).unwrap_err();
        assert!(err.to_string().contains("not declared"), "{err}");
    }

    #[test]
    fn rejects_wrong_root() {
        let dtd = fig1();
        let err = validate("<book/>".as_bytes(), &dtd).unwrap_err();
        assert!(err.to_string().contains("root"), "{err}");
    }

    #[test]
    fn rejects_text_in_element_content() {
        let dtd = fig1();
        let doc = "<bib>stray text</bib>";
        let err = validate(doc.as_bytes(), &dtd).unwrap_err();
        assert!(err.to_string().contains("character data"), "{err}");
    }

    #[test]
    fn ignorable_whitespace_suppressed() {
        let dtd = fig1();
        let doc = "<bib>\n  <book><title>T</title><author>A</author><publisher>P</publisher><price>9</price></book>\n</bib>";
        let events = trace(doc, &dtd, &[]).unwrap();
        assert!(!events.iter().any(|e| e.contains("\\n")), "{events:?}");
    }

    #[test]
    fn rejects_author_and_editor_together() {
        let dtd = fig1();
        let doc = "<bib><book><title>T</title><author>A</author><editor>E</editor><publisher>P</publisher><price>9</price></book></bib>";
        assert!(validate(doc.as_bytes(), &dtd).is_err());
    }

    #[test]
    fn strong_dtd_past_fires_before_editor_branch() {
        // past(title, author) fires as soon as the first editor arrives:
        // the editor branch excludes authors.
        let dtd = fig1();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let author = dtd.lookup("author").unwrap();
        let doc = "<bib><book><title>T</title><editor>E</editor><publisher>P</publisher><price>9</price></book></bib>";
        let events = trace(doc, &dtd, &[(book, PastLabels::labels([title, author]))]).unwrap();
        let fire = events.iter().position(|e| e == "past#0").unwrap();
        let editor_start = events.iter().position(|e| e == "<editor>").unwrap();
        assert!(
            fire < editor_start,
            "past must fire before <editor> is delivered: {events:?}"
        );
    }

    #[test]
    fn strong_dtd_past_fires_after_last_author() {
        // Under Fig. 1, past(title, author) fires when <publisher> opens —
        // before its start event is delivered.
        let dtd = fig1();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let author = dtd.lookup("author").unwrap();
        let events = trace(
            FIG1_DOC,
            &dtd,
            &[(book, PastLabels::labels([title, author]))],
        )
        .unwrap();
        let fire = events.iter().position(|e| e == "past#0").unwrap();
        let last_author_end = events.iter().rposition(|e| e == "</author>").unwrap();
        let publisher_start = events.iter().position(|e| e == "<publisher>").unwrap();
        assert!(fire > last_author_end, "{events:?}");
        assert!(fire < publisher_start, "{events:?}");
    }

    #[test]
    fn weak_dtd_past_fires_only_at_close() {
        // (title|author)*: another title/author can always arrive, so the
        // guarantee only holds at </book>.
        let dtd = weak();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let author = dtd.lookup("author").unwrap();
        let events = trace(
            WEAK_DOC,
            &dtd,
            &[(book, PastLabels::labels([title, author]))],
        )
        .unwrap();
        let fire = events.iter().position(|e| e == "past#0").unwrap();
        let book_end = events.iter().position(|e| e == "</book>").unwrap();
        assert_eq!(
            fire + 1,
            book_end,
            "fires immediately before </book>: {events:?}"
        );
    }

    #[test]
    fn past_of_impossible_label_fires_at_open() {
        // `publisher` can never occur under the weak DTD's book.
        let dtd = weak();
        let book = dtd.lookup("book").unwrap();
        let mut parser = XsaxParser::new(WEAK_DOC.as_bytes(), &dtd).unwrap();
        // An undeclared label: intern it through a second DTD is impossible,
        // so use a label declared elsewhere — `bib` never occurs below book.
        let bib = dtd.lookup("bib").unwrap();
        parser
            .register_past(book, PastLabels::labels([bib]))
            .unwrap();
        let mut events = Vec::new();
        while let Some(step) = parser.next_step().unwrap() {
            match step {
                XsaxStep::Fire { .. } => events.push("fire".to_string()),
                XsaxStep::Sax => match parser.view().to_xml_event(parser.symbols()) {
                    XmlEvent::StartElement { name, .. } => events.push(format!("<{name}>")),
                    XmlEvent::EndElement { name } => events.push(format!("</{name}>")),
                    _ => {}
                },
            }
        }
        let book_start = events.iter().position(|e| e == "<book>").unwrap();
        assert_eq!(events[book_start + 1], "fire", "{events:?}");
    }

    #[test]
    fn fires_once_per_instance() {
        let dtd = weak();
        let book = dtd.lookup("book").unwrap();
        let author = dtd.lookup("author").unwrap();
        let doc = "<bib><book><author>A</author></book><book><title>T</title></book><book/></bib>";
        let events = trace(doc, &dtd, &[(book, PastLabels::labels([author]))]).unwrap();
        let fires = events.iter().filter(|e| *e == "past#0").count();
        assert_eq!(fires, 3, "one fire per book: {events:?}");
    }

    #[test]
    fn all_labels_fire_at_close_only() {
        let dtd = fig1();
        let book = dtd.lookup("book").unwrap();
        let events = trace(FIG1_DOC, &dtd, &[(book, PastLabels::All)]).unwrap();
        let fire = events.iter().position(|e| e == "past#0").unwrap();
        let book_end = events.iter().position(|e| e == "</book>").unwrap();
        assert_eq!(fire + 1, book_end, "{events:?}");
    }

    #[test]
    fn multiple_registrations_fire_in_order() {
        let dtd = fig1();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let events = trace(
            FIG1_DOC,
            &dtd,
            &[
                (book, PastLabels::labels([title])),
                (book, PastLabels::labels([title])),
            ],
        )
        .unwrap();
        let p0 = events.iter().position(|e| e == "past#0").unwrap();
        let p1 = events.iter().position(|e| e == "past#1").unwrap();
        assert!(p0 < p1, "{events:?}");
        // Both fire after </title> and before <author>.
        let title_end = events.iter().position(|e| e == "</title>").unwrap();
        let author_start = events.iter().position(|e| e == "<author>").unwrap();
        assert!(title_end < p0 && p1 < author_start, "{events:?}");
    }

    #[test]
    fn past_with_own_label_defers_to_child_end() {
        // past({title}) under Fig. 1 (title, ...): when <title> opens the
        // DFA already implies no second title, but the title itself is not
        // yet complete — the fire must come after </title>.
        let dtd = fig1();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let events = trace(FIG1_DOC, &dtd, &[(book, PastLabels::labels([title]))]).unwrap();
        let fire = events.iter().position(|e| e == "past#0").unwrap();
        let title_end = events.iter().position(|e| e == "</title>").unwrap();
        assert_eq!(
            fire,
            title_end + 1,
            "fires right after </title>: {events:?}"
        );
    }

    #[test]
    fn text_label_with_mixed_content_fires_at_close() {
        let dtd = Dtd::parse("<!ELEMENT note (#PCDATA)>").unwrap();
        let note = dtd.lookup("note").unwrap();
        let events = trace(
            "<note>some text</note>",
            &dtd,
            &[(note, PastLabels::labels([SymbolTable::TEXT]))],
        )
        .unwrap();
        assert_eq!(events, vec!["<note>", "\"some text\"", "past#0", "</note>"]);
    }

    #[test]
    fn text_label_with_element_content_fires_at_open() {
        let dtd = Dtd::parse("<!ELEMENT a (b*)>\n<!ELEMENT b EMPTY>").unwrap();
        let a = dtd.lookup("a").unwrap();
        let events = trace(
            "<a><b/></a>",
            &dtd,
            &[(a, PastLabels::labels([SymbolTable::TEXT]))],
        )
        .unwrap();
        assert_eq!(events[0], "<a>");
        assert_eq!(events[1], "past#0", "text can never occur: fires at open");
    }

    #[test]
    fn attribute_defaults_injected() {
        let dtd =
            Dtd::parse("<!ELEMENT a EMPTY>\n<!ATTLIST a lang CDATA \"en\" rel CDATA #FIXED \"x\">")
                .unwrap();
        let mut parser = XsaxParser::new("<a/>".as_bytes(), &dtd).unwrap();
        let mut found = false;
        while let Some(step) = parser.next_step().unwrap() {
            if step != XsaxStep::Sax {
                continue;
            }
            if let XmlEvent::StartElement { attributes, .. } =
                parser.view().to_xml_event(parser.symbols())
            {
                assert_eq!(attributes.len(), 2);
                assert_eq!(attributes[0].value, "en");
                assert_eq!(attributes[1].value, "x");
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn explicit_attribute_beats_default() {
        let dtd = Dtd::parse("<!ELEMENT a EMPTY>\n<!ATTLIST a lang CDATA \"en\">").unwrap();
        let mut parser = XsaxParser::new(r#"<a lang="de"/>"#.as_bytes(), &dtd).unwrap();
        while let Some(step) = parser.next_step().unwrap() {
            if step != XsaxStep::Sax {
                continue;
            }
            if let XmlEvent::StartElement { attributes, .. } =
                parser.view().to_xml_event(parser.symbols())
            {
                assert_eq!(attributes.len(), 1);
                assert_eq!(attributes[0].value, "de");
            }
        }
    }

    #[test]
    fn strict_attributes_enforced() {
        let dtd = Dtd::parse("<!ELEMENT a EMPTY>\n<!ATTLIST a id CDATA #REQUIRED>").unwrap();
        let config = XsaxConfig {
            strict_attributes: true,
            ..XsaxConfig::default()
        };
        // Missing required attribute.
        let mut p = XsaxParser::with_config("<a/>".as_bytes(), &dtd, config.clone()).unwrap();
        let err = loop {
            match p.next_step() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected validation error"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("required"), "{err}");
        // Undeclared attribute.
        let mut p =
            XsaxParser::with_config(r#"<a id="1" bogus="2"/>"#.as_bytes(), &dtd, config).unwrap();
        let err = loop {
            match p.next_step() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected validation error"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("not declared"), "{err}");
    }

    #[test]
    fn register_after_start_rejected() {
        let dtd = weak();
        let book = dtd.lookup("book").unwrap();
        let mut parser = XsaxParser::new(WEAK_DOC.as_bytes(), &dtd).unwrap();
        parser.next_step().unwrap();
        assert!(parser.register_past(book, PastLabels::All).is_err());
    }

    #[test]
    fn doctype_mismatch_rejected() {
        let dtd = fig1();
        let doc = "<!DOCTYPE book><bib></bib>";
        let err = validate(doc.as_bytes(), &dtd).unwrap_err();
        assert!(err.to_string().contains("DOCTYPE"), "{err}");
    }

    #[test]
    fn nested_instances_tracked_independently() {
        // Recursive DTD: section contains sections.
        let dtd = Dtd::parse(
            "<!ELEMENT doc (section)>\n<!ELEMENT section (head, section?, tail?)>\n<!ELEMENT head EMPTY>\n<!ELEMENT tail EMPTY>",
        )
        .unwrap();
        let section = dtd.lookup("section").unwrap();
        let head = dtd.lookup("head").unwrap();
        let doc = "<doc><section><head/><section><head/></section><tail/></section></doc>";
        let events = trace(doc, &dtd, &[(section, PastLabels::labels([head]))]).unwrap();
        let fires = events.iter().filter(|e| *e == "past#0").count();
        assert_eq!(
            fires, 2,
            "inner and outer section each fire once: {events:?}"
        );
        // The first fire (outer section) comes right after the first </head>.
        let first_head_end = events.iter().position(|e| e == "</head>").unwrap();
        assert_eq!(events[first_head_end + 1], "past#0", "{events:?}");
    }
}
