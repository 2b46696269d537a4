//! Physical query plans: the compiled form of a FluX query that the
//! streamed evaluator executes (paper Sec. 3.2: "query compiler").
//!
//! Compilation walks the FluX tree once, building
//! * the **BDF** (projection specs per scope variable, [`crate::bdf`]),
//! * the list of **past queries** to register with XSAX, in firing order,
//! * a mirrored plan tree with all schema lookups resolved.
//!
//! Handler bodies and attribute templates are not carried as AST: they
//! compile here, once, into [`CompiledExpr`]s whose path steps and
//! constructor names are pre-resolved [`Symbol`]s
//! ([`FluxQuery::resolve_label`] — the vocabulary the query compiler
//! interned against the DTD) and whose variables are dense slots in one
//! plan-wide [`SlotMap`]. The executor evaluates them with the streaming
//! cursor evaluator: no per-firing hash lookups for declared labels, no
//! per-firing environment maps.

use crate::bdf::{collect_needs, SpecArena, SpecId};
use crate::error::{Result, RuntimeError};
use flux_dtd::{Dtd, Symbol, SymbolTable};
use flux_lang::{FluxExpr, FluxQuery, Handler, PastSet};
use flux_xquery::{
    compile_attr, compile_expr, CompiledAttr, CompiledExpr, Expr, SlotMap, VarName, ROOT_VAR,
};
use flux_xsax::PastLabels;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Index of a process-stream plan.
pub type PsId = usize;

/// A compiled expression tree.
#[derive(Debug, Clone)]
pub enum PlanExpr {
    Empty,
    /// Constant text output.
    Text(String),
    /// Evaluate a compiled expression over the buffer store, now.
    BufferedEval(Arc<CompiledExpr>),
    Sequence(Vec<PlanExpr>),
    Element {
        name: String,
        /// Attribute templates, compiled against the plan's slot map.
        attributes: Arc<Vec<CompiledAttr>>,
        content: Box<PlanExpr>,
        /// True when the content contains a process-stream or stream-copy:
        /// the end tag is owed when the current child element closes.
        deferred_close: bool,
    },
    /// Copy the current child's events through to the output.
    StreamCopy,
    /// Enter a process-stream over the current scope.
    Ps(PsId),
}

/// One handler of a compiled process-stream.
#[derive(Debug, Clone)]
pub enum HandlerPlan {
    On {
        /// Dispatch label as text, for explain output.
        label: String,
        /// The label resolved against the DTD's symbol table; `None` when
        /// the query names an element the DTD does not declare — such a
        /// handler can never match a validated stream. The executor
        /// dispatches on this by symbol equality, never by string.
        symbol: Option<Symbol>,
        var: VarName,
        /// The bound variable's slot in the plan-wide [`SlotMap`].
        var_slot: usize,
        /// Buffer spec for the bound variable's scope shell.
        spec: SpecId,
        body: PlanExpr,
    },
    OnFirstPast {
        labels: PastSet,
        /// Index into [`Plan::past_regs`] (and the XSAX `PastId` space);
        /// `None` for document-level handlers, which the executor times
        /// itself via `doc_timing`.
        past_reg: Option<usize>,
        /// For document-level handlers: fire before or after the root.
        doc_timing: DocTiming,
        body: Arc<CompiledExpr>,
    },
}

/// When a document-level `on-first` handler fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocTiming {
    /// Not a document-level handler (fired by XSAX).
    Element,
    /// Before the root element is processed.
    AtStart,
    /// After the root element has closed.
    AtEnd,
}

/// A compiled process-stream.
#[derive(Debug, Clone)]
pub struct PsPlan {
    pub var: VarName,
    /// Element type of the scope (DOCUMENT for the `$ROOT` stream).
    pub element: Option<Symbol>,
    pub handlers: Vec<HandlerPlan>,
}

/// A past-query registration for XSAX.
#[derive(Debug, Clone)]
pub struct PastReg {
    pub element: Symbol,
    pub labels: PastLabels,
    pub ps: PsId,
    pub handler_index: usize,
}

/// The complete physical plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub top: PlanExpr,
    pub ps: Vec<PsPlan>,
    pub specs: SpecArena,
    /// Spec root for the `$ROOT` document scope.
    pub root_spec: SpecId,
    pub past_regs: Vec<PastReg>,
    /// Variable numbering shared by every compiled expression in the plan;
    /// the executor's binding array is sized from this.
    pub slots: SlotMap,
    /// `$ROOT`'s slot (always allocated first).
    pub root_slot: usize,
}

impl Plan {
    /// Renders the BDF for explain output.
    pub fn render_bdf(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("$ROOT: {}\n", self.specs.render(self.root_spec)));
        for ps in &self.ps {
            for handler in &ps.handlers {
                if let HandlerPlan::On {
                    label, var, spec, ..
                } = handler
                {
                    if !self.specs.is_empty_spec(*spec) {
                        out.push_str(&format!(
                            "${var} (on {label}): {}\n",
                            self.specs.render(*spec)
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Compiles a FluX query into a physical plan. The BDF's edges and the
/// compiled expressions' path steps are keyed by the symbols the query
/// compiler interned against the DTD ([`FluxQuery::label_symbols`]) — the
/// same index space the stream's seeded interner uses, so the executor
/// never builds a per-run index and never hashes a declared label.
pub fn compile_plan(query: &FluxQuery, dtd: &Dtd) -> Result<Plan> {
    let mut compiler = Compiler {
        dtd,
        query,
        specs: SpecArena::new(),
        ps: Vec::new(),
        past_regs: Vec::new(),
        scopes: Vec::new(),
        slots: SlotMap::new(),
    };
    let root_slot = compiler.slots.slot(ROOT_VAR);
    let root_spec = compiler.specs.new_root();
    compiler.scopes.push(ScopeEntry {
        var: ROOT_VAR.to_string(),
        spec: root_spec,
        element: Some(SymbolTable::DOCUMENT),
    });
    let top = compiler.compile(&query.flux)?;
    Ok(Plan {
        top,
        ps: compiler.ps,
        specs: compiler.specs,
        root_spec,
        past_regs: compiler.past_regs,
        slots: compiler.slots,
        root_slot,
    })
}

struct ScopeEntry {
    var: VarName,
    spec: SpecId,
    element: Option<Symbol>,
}

struct Compiler<'d> {
    dtd: &'d Dtd,
    /// The compiled query, for its label vocabulary.
    query: &'d FluxQuery,
    specs: SpecArena,
    ps: Vec<PsPlan>,
    past_regs: Vec<PastReg>,
    scopes: Vec<ScopeEntry>,
    /// Plan-wide variable numbering for every compiled expression.
    slots: SlotMap,
}

/// Whether a FluX subtree contains a process-stream or stream-copy (the
/// "spine"), which defers enclosing constructors' end tags.
fn contains_spine(expr: &FluxExpr) -> bool {
    match expr {
        FluxExpr::Empty | FluxExpr::StringLit(_) | FluxExpr::Buffered(_) => false,
        FluxExpr::StreamCopy(_) | FluxExpr::ProcessStream { .. } => true,
        FluxExpr::Sequence(items) => items.iter().any(contains_spine),
        FluxExpr::Element { content, .. } => contains_spine(content),
    }
}

impl<'d> Compiler<'d> {
    fn scope_pairs(&self) -> Vec<(VarName, SpecId)> {
        self.scopes
            .iter()
            .map(|s| (s.var.clone(), s.spec))
            .collect()
    }

    /// Records `e`'s buffering needs in the BDF, resolving path labels
    /// through the compile-time vocabulary (DTD fallback).
    fn collect_buffered_needs(&mut self, e: &Expr) {
        let pairs = self.scope_pairs();
        let (dtd, query) = (self.dtd, self.query);
        collect_needs(&mut self.specs, e, &pairs, &mut |label| {
            query.resolve_label(dtd, label)
        });
    }

    /// Compiles a buffered normal-form expression against the plan's slot
    /// map and the query's label vocabulary.
    fn compile_buffered(&mut self, e: &Expr) -> Result<CompiledExpr> {
        let (dtd, query, slots) = (self.dtd, self.query, &mut self.slots);
        compile_expr(e, slots, &mut |label| query.resolve_label(dtd, label)).map_err(Into::into)
    }

    fn compile(&mut self, expr: &FluxExpr) -> Result<PlanExpr> {
        match expr {
            FluxExpr::Empty => Ok(PlanExpr::Empty),
            FluxExpr::StringLit(s) => Ok(PlanExpr::Text(s.clone())),
            FluxExpr::StreamCopy(_) => Ok(PlanExpr::StreamCopy),
            FluxExpr::Buffered(e) => {
                self.collect_buffered_needs(e);
                Ok(PlanExpr::BufferedEval(Arc::new(self.compile_buffered(e)?)))
            }
            FluxExpr::Sequence(items) => Ok(PlanExpr::Sequence(
                items
                    .iter()
                    .map(|i| self.compile(i))
                    .collect::<Result<Vec<_>>>()?,
            )),
            FluxExpr::Element {
                name,
                attributes,
                content,
            } => {
                // Attribute templates read buffered data: record their
                // needs, then compile them against the plan's slot map.
                let mut compiled_attrs = Vec::with_capacity(attributes.len());
                for attr in attributes {
                    for part in &attr.value {
                        if let flux_xquery::AttrPart::Expr(e) = part {
                            self.collect_buffered_needs(e);
                        }
                    }
                    let (dtd, query, slots) = (self.dtd, self.query, &mut self.slots);
                    compiled_attrs.push(
                        compile_attr(attr, slots, &mut |label| query.resolve_label(dtd, label))
                            .map_err(RuntimeError::from)?,
                    );
                }
                let deferred_close = contains_spine(content);
                let content = self.compile(content)?;
                Ok(PlanExpr::Element {
                    name: name.clone(),
                    attributes: Arc::new(compiled_attrs),
                    content: Box::new(content),
                    deferred_close,
                })
            }
            FluxExpr::ProcessStream { var, handlers } => {
                let scope = self.scopes.last().expect("scope stack never empty");
                if scope.var != *var {
                    return Err(RuntimeError::Plan {
                        message: format!(
                            "process-stream ${var} does not match scope ${}",
                            scope.var
                        ),
                    });
                }
                let element = scope.element;
                let ps_id = self.ps.len();
                // Reserve the slot so nested process-streams get later ids.
                self.ps.push(PsPlan {
                    var: var.clone(),
                    element,
                    handlers: Vec::new(),
                });
                let mut compiled: Vec<HandlerPlan> = Vec::new();
                for handler in handlers {
                    match handler {
                        Handler::On {
                            label,
                            var: v,
                            body,
                        } => {
                            let spec = self.specs.new_root();
                            let var_slot = self.slots.slot(v);
                            self.scopes.push(ScopeEntry {
                                var: v.clone(),
                                spec,
                                element: self.dtd.lookup(label),
                            });
                            let body = self.compile(body);
                            self.scopes.pop();
                            compiled.push(HandlerPlan::On {
                                label: label.clone(),
                                symbol: self.dtd.lookup(label),
                                var: v.clone(),
                                var_slot,
                                spec,
                                body: body?,
                            });
                        }
                        Handler::OnFirstPast { labels, body } => {
                            let FluxExpr::Buffered(e) = body else {
                                return Err(RuntimeError::Plan {
                                    message: "on-first bodies must be buffered XQuery".to_string(),
                                });
                            };
                            self.collect_buffered_needs(e);
                            let handler_index = compiled.len();
                            let (past_reg, doc_timing) = match element {
                                Some(sym) if sym != SymbolTable::DOCUMENT => {
                                    let reg = self.past_regs.len();
                                    self.past_regs.push(PastReg {
                                        element: sym,
                                        labels: to_xsax_labels(labels, self.dtd),
                                        ps: ps_id,
                                        handler_index,
                                    });
                                    (Some(reg), DocTiming::Element)
                                }
                                Some(_) => (None, self.doc_timing(labels)),
                                None => {
                                    // Scope over an undeclared element: the
                                    // validator rejects such documents, so
                                    // the handler can never fire.
                                    (None, DocTiming::Element)
                                }
                            };
                            compiled.push(HandlerPlan::OnFirstPast {
                                labels: labels.clone(),
                                past_reg,
                                doc_timing,
                                body: Arc::new(self.compile_buffered(e)?),
                            });
                        }
                    }
                }
                self.ps[ps_id].handlers = compiled;
                Ok(PlanExpr::Ps(ps_id))
            }
        }
    }

    /// Document-level timing: the document's only child is the root
    /// element, so a past-set that does not mention it fires immediately.
    fn doc_timing(&self, labels: &PastSet) -> DocTiming {
        if labels.all {
            return DocTiming::AtEnd;
        }
        let Some(root) = self.dtd.root() else {
            return DocTiming::AtEnd;
        };
        let root_name = self.dtd.name(root);
        if labels.labels.contains(root_name) {
            DocTiming::AtEnd
        } else {
            DocTiming::AtStart
        }
    }
}

/// Converts a string-level past-set to XSAX symbols. Undeclared labels can
/// never occur in a valid stream and are dropped (they are trivially past).
fn to_xsax_labels(set: &PastSet, dtd: &Dtd) -> PastLabels {
    if set.all {
        return PastLabels::All;
    }
    let mut symbols: BTreeSet<Symbol> = set.labels.iter().filter_map(|l| dtd.lookup(l)).collect();
    if set.text {
        symbols.insert(SymbolTable::TEXT);
    }
    PastLabels::Labels(symbols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_dtd::{PAPER_FIG1_DTD, PAPER_WEAK_DTD};
    use flux_lang::{compile, CompileOptions};

    const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

    fn plan_for(q: &str, dtd: &Dtd) -> Plan {
        let compiled = compile(q, dtd, &CompileOptions::default()).unwrap();
        compile_plan(&compiled, dtd).unwrap()
    }

    #[test]
    fn q3_weak_plan_shape() {
        let dtd = Dtd::parse(PAPER_WEAK_DTD).unwrap();
        let plan = plan_for(Q3, &dtd);
        // Three nested process-streams: ROOT, bib, book.
        assert_eq!(plan.ps.len(), 3);
        // One past registration (the author handler on book).
        assert_eq!(plan.past_regs.len(), 1);
        let book = dtd.lookup("book").unwrap();
        assert_eq!(plan.past_regs[0].element, book);
        // The book scope buffers only authors (whole subtrees).
        let bdf = plan.render_bdf();
        assert!(bdf.contains("{author:*}"), "{bdf}");
        assert!(!bdf.contains("title"), "titles are never buffered: {bdf}");
    }

    #[test]
    fn q3_fig1_plan_buffers_nothing() {
        let dtd = Dtd::parse(PAPER_FIG1_DTD).unwrap();
        let plan = plan_for(Q3, &dtd);
        assert_eq!(plan.past_regs.len(), 0);
        for ps in &plan.ps {
            for h in &ps.handlers {
                if let HandlerPlan::On { spec, .. } = h {
                    assert!(plan.specs.is_empty_spec(*spec));
                }
            }
        }
    }

    #[test]
    fn deferred_close_marked() {
        let dtd = Dtd::parse(PAPER_WEAK_DTD).unwrap();
        let plan = plan_for(Q3, &dtd);
        match &plan.top {
            PlanExpr::Element {
                deferred_close,
                name,
                ..
            } => {
                assert_eq!(name, "results");
                assert!(deferred_close);
            }
            other => panic!("expected results element, got {other:?}"),
        }
    }

    #[test]
    fn doc_timing_classification() {
        // A query that buffers at document level: copy the whole document
        // twice (the second copy can only start once the stream has ended).
        let dtd = Dtd::parse(PAPER_WEAK_DTD).unwrap();
        let q = r#"<r>{$ROOT}{$ROOT}</r>"#;
        let plan = plan_for(q, &dtd);
        let doc_ps = plan
            .ps
            .iter()
            .find(|p| p.element == Some(SymbolTable::DOCUMENT))
            .expect("document scope present");
        let timings: Vec<DocTiming> = doc_ps
            .handlers
            .iter()
            .filter_map(|h| match h {
                HandlerPlan::OnFirstPast { doc_timing, .. } => Some(*doc_timing),
                _ => None,
            })
            .collect();
        assert!(!timings.is_empty());
        assert!(timings.iter().all(|t| *t == DocTiming::AtEnd));
    }
}
