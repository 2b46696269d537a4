//! The streaming cursor evaluator: runs a [`CompiledExpr`] over an
//! in-memory [`Document`].
//!
//! Shared by three consumers with identical semantics:
//! * the DOM baseline engine (whole document materialised),
//! * the projection baseline engine (projected document materialised),
//! * the FluXQuery runtime's buffered execution (`on-first` handler bodies
//!   run over the buffer arena).
//!
//! Evaluation is the second stage of the compile-then-stream pipeline
//! (see [`compile`](crate::compile)): names arrive pre-resolved as
//! [`Symbol`](flux_xml::Symbol)s, variables as dense slots, and sequences
//! stream through [`SequenceCursor`]s instead of materialising `Vec`s —
//! `for`-bodies iterate as matches surface, predicates short-circuit via
//! cursor probing, and buffered subtrees copy out through the sink's
//! symbol fast path. All scratch (cursor stacks, string values, attribute
//! buffers) is pooled on the evaluator, so steady-state evaluation over
//! already-buffered data allocates nothing.
//!
//! Comparison semantics are XPath-style *general comparisons*: `A op B`
//! holds iff some pair of items satisfies `op`, numerically when both
//! values parse as numbers, else by string comparison.

use crate::ast::{CmpOp, ROOT_VAR};
use crate::compile::{
    compile_for_document, CompiledAttr, CompiledAttrPart, CompiledCond, CompiledExpr,
    CompiledOperand, CompiledPath, PathTail, SlotMap, Slots,
};
use crate::cursor::{CursorItem, CursorPool, ItemCursor, PathCursor, SequenceCursor};
use crate::error::{Result, XQueryError};
use flux_xml::tree::{Document, NodeId, NodeKind};
use flux_xml::{Attribute, XmlWriter};
use std::io::Write;

/// Output receiver for query results.
pub trait QuerySink {
    fn start_element(&mut self, name: &str, attrs: &[Attribute]) -> Result<()>;
    fn end_element(&mut self) -> Result<()>;
    fn text(&mut self, text: &str) -> Result<()>;

    /// Start tag of a buffered element node — the symbol fast path used
    /// when copying stored subtrees out. The default materialises owned
    /// strings through [`QuerySink::start_element`]; sinks that can
    /// resolve names straight from the document's table (the XML writer)
    /// override it to allocate nothing.
    fn start_element_node(&mut self, doc: &Document, id: NodeId) -> Result<()> {
        let attrs: Vec<Attribute> = doc
            .attributes(id)
            .iter()
            .map(|a| Attribute::new(doc.symbols().name(a.name), a.value.clone()))
            .collect();
        let name = doc
            .name(id)
            .ok_or_else(|| XQueryError::eval("start_element_node on a non-element node"))?;
        self.start_element(name, &attrs)
    }
}

impl<W: Write> QuerySink for XmlWriter<W> {
    fn start_element(&mut self, name: &str, attrs: &[Attribute]) -> Result<()> {
        XmlWriter::start_element(self, name, attrs)
            .map_err(|e| XQueryError::eval(format!("output error: {e}")))
    }

    fn end_element(&mut self) -> Result<()> {
        XmlWriter::end_element(self).map_err(|e| XQueryError::eval(format!("output error: {e}")))
    }

    fn text(&mut self, text: &str) -> Result<()> {
        XmlWriter::text(self, text).map_err(|e| XQueryError::eval(format!("output error: {e}")))
    }

    fn start_element_node(&mut self, doc: &Document, id: NodeId) -> Result<()> {
        XmlWriter::start_element_node(self, doc, id)
            .map_err(|e| XQueryError::eval(format!("output error: {e}")))
    }
}

/// A sink that counts output bytes without storing them (benchmarks).
#[derive(Debug, Default)]
pub struct CountingSink {
    pub bytes: u64,
    pub events: u64,
    depth: usize,
}

impl CountingSink {
    /// The serialized-size model shared by both start paths: 2 bytes of
    /// tag punctuation, 4 per attribute (space, `=`, both quotes).
    fn count_start_tag(
        &mut self,
        name_len: usize,
        attr_lens: impl Iterator<Item = (usize, usize)>,
    ) {
        self.bytes += 2 + name_len as u64;
        for (name, value) in attr_lens {
            self.bytes += 4 + name as u64 + value as u64;
        }
        self.events += 1;
        self.depth += 1;
    }
}

impl QuerySink for CountingSink {
    fn start_element(&mut self, name: &str, attrs: &[Attribute]) -> Result<()> {
        self.count_start_tag(
            name.len(),
            attrs.iter().map(|a| (a.name.len(), a.value.len())),
        );
        Ok(())
    }

    fn end_element(&mut self) -> Result<()> {
        if self.depth == 0 {
            return Err(XQueryError::eval("unbalanced end element in output"));
        }
        self.depth -= 1;
        self.bytes += 3;
        self.events += 1;
        Ok(())
    }

    fn text(&mut self, text: &str) -> Result<()> {
        self.bytes += text.len() as u64;
        self.events += 1;
        Ok(())
    }

    fn start_element_node(&mut self, doc: &Document, id: NodeId) -> Result<()> {
        // Count through the symbol table without materialising anything.
        let name = doc
            .name(id)
            .ok_or_else(|| XQueryError::eval("start_element_node on a non-element node"))?;
        self.count_start_tag(
            name.len(),
            doc.attributes(id)
                .iter()
                .map(|a| (doc.symbols().name(a.name).len(), a.value.len())),
        );
        Ok(())
    }
}

/// A growable list of string values whose buffers are reused in place
/// (`clear` resets the length; the `String`s keep their capacity).
#[derive(Debug, Default)]
struct ValueBuf {
    strings: Vec<String>,
    len: usize,
}

impl ValueBuf {
    fn clear(&mut self) {
        self.len = 0;
    }

    fn push_slot(&mut self) -> &mut String {
        if self.len == self.strings.len() {
            self.strings.push(String::new());
        }
        let s = &mut self.strings[self.len];
        s.clear();
        self.len += 1;
        s
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        self.strings[..self.len].iter().map(String::as_str)
    }
}

/// A growable attribute list whose `Attribute` strings are reused in place.
#[derive(Debug, Default)]
struct AttrBuf {
    attrs: Vec<Attribute>,
    len: usize,
}

impl AttrBuf {
    fn clear(&mut self) {
        self.len = 0;
    }

    fn push_slot(&mut self) -> &mut Attribute {
        if self.len == self.attrs.len() {
            self.attrs
                .push(Attribute::new(String::new(), String::new()));
        }
        let a = &mut self.attrs[self.len];
        a.name.clear();
        a.value.clear();
        self.len += 1;
        a
    }

    fn as_slice(&self) -> &[Attribute] {
        &self.attrs[..self.len]
    }
}

/// The streaming evaluator. Owns every piece of evaluation scratch —
/// cursor stacks, atomization strings, comparison value lists, attribute
/// buffers — and recycles all of it across calls, so a long-lived
/// evaluator reaches an allocation-free steady state (proven by the
/// counting-allocator suite).
#[derive(Debug, Default)]
pub struct CursorEvaluator {
    pool: CursorPool,
    /// Pooled scratch strings (atomized node values).
    strings: Vec<String>,
    /// Comparison operand values, left and right.
    cmp_lhs: ValueBuf,
    cmp_rhs: ValueBuf,
    /// Pooled attribute lists for constructed elements.
    attr_bufs: Vec<AttrBuf>,
}

impl CursorEvaluator {
    pub fn new() -> Self {
        CursorEvaluator::default()
    }

    /// Keeps at most `max_bytes` of scratch per pool, releasing what one
    /// outsized evaluation grew (see [`flux_xml::recycle`]) — called
    /// before a long-lived evaluator is pooled for the next run.
    pub fn trim(&mut self, max_bytes: usize) {
        use flux_xml::recycle::trim_pool;
        self.pool.trim(max_bytes);
        trim_pool(&mut self.strings, max_bytes);
        for values in [&mut self.cmp_lhs, &mut self.cmp_rhs] {
            values.clear();
            trim_pool(&mut values.strings, max_bytes);
        }
        let mut total = 0usize;
        self.attr_bufs.retain_mut(|buf| {
            buf.clear();
            trim_pool(&mut buf.attrs, max_bytes);
            total += buf.attrs.capacity() * std::mem::size_of::<Attribute>();
            total <= max_bytes
        });
    }

    /// Evaluates a compiled expression over `doc` under `slots`, emitting
    /// results to `sink`.
    pub fn eval(
        &mut self,
        doc: &Document,
        expr: &CompiledExpr,
        slots: &mut Slots,
        sink: &mut impl QuerySink,
    ) -> Result<()> {
        match expr {
            CompiledExpr::Empty => Ok(()),
            CompiledExpr::StringLit(s) => sink.text(s),
            CompiledExpr::Var { slot, name } => {
                let node = bound(slots, *slot, name)?;
                copy_node(doc, node, sink)
            }
            CompiledExpr::Path(p) => {
                let start = bound(slots, p.start_slot, &p.start_name)?;
                let mut cursor = ItemCursor::new(doc, p, start, &mut self.pool);
                let result = loop {
                    match cursor.next_item() {
                        Some(CursorItem::Node(n)) => {
                            if let Err(e) = copy_node(doc, n, sink) {
                                break Err(e);
                            }
                        }
                        Some(CursorItem::Str(s)) => {
                            if let Err(e) = sink.text(s) {
                                break Err(e);
                            }
                        }
                        None => break Ok(()),
                    }
                };
                cursor.recycle(&mut self.pool);
                result
            }
            CompiledExpr::Sequence(items) => {
                for item in items {
                    self.eval(doc, item, slots, sink)?;
                }
                Ok(())
            }
            CompiledExpr::Element {
                name,
                attributes,
                content,
            } => {
                self.start_element_with_attrs(doc, &name.literal, attributes, slots, sink)?;
                self.eval(doc, content, slots, sink)?;
                sink.end_element()
            }
            CompiledExpr::For {
                var_slot,
                source,
                where_clause,
                body,
            } => {
                if source.tail != PathTail::None {
                    return Err(XQueryError::eval(format!(
                        "path {source} used where element nodes are required"
                    )));
                }
                let start = bound(slots, source.start_slot, &source.start_name)?;
                let mut cursor = PathCursor::new(doc, source, start, &mut self.pool);
                let result = loop {
                    let Some(node) = cursor.next_node() else {
                        break Ok(());
                    };
                    let shadowed = slots[*var_slot].replace(node);
                    let step = (|| -> Result<()> {
                        let keep = match where_clause {
                            Some(cond) => self.eval_cond(doc, cond, slots)?,
                            None => true,
                        };
                        if keep {
                            self.eval(doc, body, slots, sink)?;
                        }
                        Ok(())
                    })();
                    slots[*var_slot] = shadowed;
                    if let Err(e) = step {
                        break Err(e);
                    }
                };
                cursor.recycle(&mut self.pool);
                result
            }
            CompiledExpr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval_cond(doc, cond, slots)? {
                    self.eval(doc, then_branch, slots, sink)
                } else {
                    self.eval(doc, else_branch, slots, sink)
                }
            }
        }
    }

    /// Evaluates attribute templates and opens an element — without the
    /// matching end tag, for callers (the runtime's plan executor) that
    /// close elements on their own schedule.
    pub fn start_element_with_attrs(
        &mut self,
        doc: &Document,
        name: &str,
        attributes: &[CompiledAttr],
        slots: &mut Slots,
        sink: &mut impl QuerySink,
    ) -> Result<()> {
        if attributes.is_empty() {
            return sink.start_element(name, &[]);
        }
        let mut buf = self.attr_bufs.pop().unwrap_or_default();
        buf.clear();
        let result = (|| -> Result<()> {
            for attr in attributes {
                let mut value = self.strings.pop().unwrap_or_default();
                value.clear();
                let filled = self.eval_attr_template(doc, &attr.value, slots, &mut value);
                let slot = buf.push_slot();
                slot.name.push_str(&attr.name);
                slot.value.push_str(&value);
                self.strings.push(value);
                filled?;
            }
            sink.start_element(name, buf.as_slice())
        })();
        self.attr_bufs.push(buf);
        result
    }

    /// Evaluates an attribute value template into `out` (cleared first).
    /// Items within one expression part join with single spaces, per
    /// XQuery attribute semantics.
    pub fn eval_attr_template(
        &mut self,
        doc: &Document,
        parts: &[CompiledAttrPart],
        slots: &mut Slots,
        out: &mut String,
    ) -> Result<()> {
        out.clear();
        for part in parts {
            match part {
                CompiledAttrPart::Literal(t) => out.push_str(t),
                CompiledAttrPart::Expr(e) => {
                    let mut scratch = self.strings.pop().unwrap_or_default();
                    let mut first = true;
                    let r = self.atomize_into(doc, e, slots, out, &mut scratch, &mut first);
                    self.strings.push(scratch);
                    r?;
                }
            }
        }
        Ok(())
    }

    /// Streams the string values of an atomizable expression into `out`,
    /// space-separated (`first` tracks whether a separator is due).
    fn atomize_into(
        &mut self,
        doc: &Document,
        expr: &CompiledExpr,
        slots: &mut Slots,
        out: &mut String,
        scratch: &mut String,
        first: &mut bool,
    ) -> Result<()> {
        fn emit(out: &mut String, first: &mut bool, value: &str) {
            if !*first {
                out.push(' ');
            }
            *first = false;
            out.push_str(value);
        }
        match expr {
            CompiledExpr::Empty => Ok(()),
            CompiledExpr::StringLit(s) => {
                emit(out, first, s);
                Ok(())
            }
            CompiledExpr::Var { slot, name } => {
                let node = bound(slots, *slot, name)?;
                doc.string_value_into(node, scratch);
                emit(out, first, scratch);
                Ok(())
            }
            CompiledExpr::Path(p) => {
                let start = bound(slots, p.start_slot, &p.start_name)?;
                let mut cursor = ItemCursor::new(doc, p, start, &mut self.pool);
                while let Some(item) = cursor.next_item() {
                    match item {
                        CursorItem::Node(n) => {
                            doc.string_value_into(n, scratch);
                            emit(out, first, scratch);
                        }
                        CursorItem::Str(s) => emit(out, first, s),
                    }
                }
                cursor.recycle(&mut self.pool);
                Ok(())
            }
            CompiledExpr::Sequence(items) => {
                for item in items {
                    self.atomize_into(doc, item, slots, out, scratch, first)?;
                }
                Ok(())
            }
            other => Err(XQueryError::eval(format!(
                "expression cannot be atomized: {other:?}"
            ))),
        }
    }

    /// Evaluates a condition to a boolean. Existence probes pull at most
    /// one item from their cursor.
    pub fn eval_cond(
        &mut self,
        doc: &Document,
        cond: &CompiledCond,
        slots: &mut Slots,
    ) -> Result<bool> {
        match cond {
            CompiledCond::True => Ok(true),
            CompiledCond::False => Ok(false),
            CompiledCond::And(a, b) => {
                Ok(self.eval_cond(doc, a, slots)? && self.eval_cond(doc, b, slots)?)
            }
            CompiledCond::Or(a, b) => {
                Ok(self.eval_cond(doc, a, slots)? || self.eval_cond(doc, b, slots)?)
            }
            CompiledCond::Not(c) => Ok(!self.eval_cond(doc, c, slots)?),
            CompiledCond::Exists(p) => self.probe(doc, p, slots),
            CompiledCond::Empty(p) => Ok(!self.probe(doc, p, slots)?),
            CompiledCond::Cmp { lhs, op, rhs } => {
                // Operand value lists are tiny (usually one item); the
                // buffers are reused in place across comparisons.
                let mut left = std::mem::take(&mut self.cmp_lhs);
                let mut right = std::mem::take(&mut self.cmp_rhs);
                let filled = self
                    .operand_into(doc, lhs, slots, &mut left)
                    .and_then(|()| self.operand_into(doc, rhs, slots, &mut right));
                let held = filled.map(|()| {
                    left.iter()
                        .any(|a| right.iter().any(|b| compare(a, b, *op)))
                });
                self.cmp_lhs = left;
                self.cmp_rhs = right;
                held
            }
        }
    }

    /// True iff the path yields at least one item.
    fn probe(&mut self, doc: &Document, path: &CompiledPath, slots: &mut Slots) -> Result<bool> {
        let start = bound(slots, path.start_slot, &path.start_name)?;
        let mut cursor = ItemCursor::new(doc, path, start, &mut self.pool);
        let found = cursor.next_item().is_some();
        cursor.recycle(&mut self.pool);
        Ok(found)
    }

    /// Fills `values` with the string values of a comparison operand.
    fn operand_into(
        &mut self,
        doc: &Document,
        op: &CompiledOperand,
        slots: &mut Slots,
        values: &mut ValueBuf,
    ) -> Result<()> {
        values.clear();
        match op {
            CompiledOperand::StringLit(s) | CompiledOperand::NumberLit(s) => {
                values.push_slot().push_str(s);
                Ok(())
            }
            CompiledOperand::Path(p) => {
                let start = bound(slots, p.start_slot, &p.start_name)?;
                let mut cursor = ItemCursor::new(doc, p, start, &mut self.pool);
                while let Some(item) = cursor.next_item() {
                    match item {
                        CursorItem::Node(n) => doc.string_value_into(n, values.push_slot()),
                        CursorItem::Str(s) => values.push_slot().push_str(s),
                    }
                }
                cursor.recycle(&mut self.pool);
                Ok(())
            }
        }
    }
}

/// The node bound in `slot`, or the unbound-variable diagnostic.
#[inline]
fn bound(slots: &Slots, slot: usize, name: &str) -> Result<NodeId> {
    slots
        .get(slot)
        .copied()
        .flatten()
        .ok_or_else(|| XQueryError::eval(format!("unbound variable `${name}`")))
}

/// Copies a node's subtree to the sink. Element start tags go through the
/// sink's symbol fast path — no name strings materialise.
pub fn copy_node(doc: &Document, node: NodeId, sink: &mut impl QuerySink) -> Result<()> {
    match doc.kind(node) {
        NodeKind::Document => {
            for &c in doc.children(node) {
                copy_node(doc, c, sink)?;
            }
            Ok(())
        }
        NodeKind::Element { .. } => {
            sink.start_element_node(doc, node)?;
            for &c in doc.children(node) {
                copy_node(doc, c, sink)?;
            }
            sink.end_element()
        }
        _ => sink.text(doc.text(node).expect("text node")),
    }
}

/// General-comparison of two string values: numeric when both sides parse
/// as numbers, string comparison otherwise.
pub fn compare(a: &str, b: &str, op: CmpOp) -> bool {
    match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
        (Ok(x), Ok(y)) => match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        },
        _ => match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        },
    }
}

/// Convenience for tests and baselines: compiles `expr` against the
/// document's own symbol table, binds `$ROOT` to the document node, and
/// returns the serialized output.
pub fn eval_to_string(doc: &Document, expr: &crate::ast::Expr) -> Result<String> {
    let mut slot_map = SlotMap::new();
    let root = slot_map.slot(ROOT_VAR);
    let compiled = compile_for_document(expr, doc, &mut slot_map)?;
    let mut slots = slot_map.make_slots();
    slots[root] = Some(doc.document_node());
    let mut evaluator = CursorEvaluator::new();
    let mut writer = XmlWriter::new(Vec::new());
    evaluator.eval(doc, &compiled, &mut slots, &mut writer)?;
    writer
        .finish()
        .map_err(|e| XQueryError::eval(format!("output error: {e}")))?;
    String::from_utf8(writer.into_inner()).map_err(|_| XQueryError::eval("invalid UTF-8 output"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use crate::parser::parse_query;
    use crate::reference::reference_eval_to_string;

    const BIB: &str = r#"<bib><book year="1994"><title>TCP/IP</title><author>Stevens</author><author>Wright</author><publisher>AW</publisher><price>65.95</price></book><book year="2000"><title>Data on the Web</title><author>Abiteboul</author><publisher>MK</publisher><price>39.95</price></book></bib>"#;

    fn run(query: &str, doc_text: &str) -> String {
        let doc = Document::parse_str(doc_text).unwrap();
        let expr = parse_query(query).unwrap();
        let out = eval_to_string(&doc, &expr).unwrap();
        // Every unit case doubles as a differential check against the
        // materialising reference interpreter.
        assert_eq!(out, reference_eval_to_string(&doc, &expr).unwrap());
        out
    }

    fn run_normalized(query: &str, doc_text: &str) -> String {
        let doc = Document::parse_str(doc_text).unwrap();
        let expr = normalize(&parse_query(query).unwrap()).unwrap();
        eval_to_string(&doc, &expr).unwrap()
    }

    #[test]
    fn q3_direct() {
        let out = run(
            r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#,
            BIB,
        );
        assert_eq!(
            out,
            "<results><result><title>TCP/IP</title><author>Stevens</author><author>Wright</author></result><result><title>Data on the Web</title><author>Abiteboul</author></result></results>"
        );
    }

    #[test]
    fn normalized_equals_direct() {
        let q = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;
        assert_eq!(run(q, BIB), run_normalized(q, BIB));
    }

    #[test]
    fn where_filtering() {
        let out = run(
            r#"<r>{ for $b in $ROOT/bib/book where $b/publisher = "AW" return $b/title }</r>"#,
            BIB,
        );
        assert_eq!(out, "<r><title>TCP/IP</title></r>");
    }

    #[test]
    fn numeric_comparison_on_attribute() {
        let out = run(
            r#"<r>{ for $b in $ROOT/bib/book where $b/@year > 1994 return $b/title }</r>"#,
            BIB,
        );
        assert_eq!(out, "<r><title>Data on the Web</title></r>");
    }

    #[test]
    fn numeric_vs_string_comparison() {
        // 65.95 < 100 numerically (string comparison would say otherwise).
        let out = run(
            r#"<r>{ for $b in $ROOT/bib/book where $b/price < 100 return $b/title }</r>"#,
            BIB,
        );
        assert!(out.contains("TCP/IP") && out.contains("Data on the Web"));
    }

    #[test]
    fn existential_comparison_any_pair() {
        // Second author matches even though the first doesn't.
        let out = run(
            r#"<r>{ for $b in $ROOT/bib/book where $b/author = "Wright" return $b/title }</r>"#,
            BIB,
        );
        assert_eq!(out, "<r><title>TCP/IP</title></r>");
    }

    #[test]
    fn attribute_output() {
        let out = run(
            r#"<r>{ for $b in $ROOT/bib/book return <y>{$b/@year}</y> }</r>"#,
            BIB,
        );
        assert_eq!(out, "<r><y>1994</y><y>2000</y></r>");
    }

    #[test]
    fn attribute_value_template() {
        let out = run(
            r#"<r>{ for $b in $ROOT/bib/book return <book y="{$b/@year}-ed"/> }</r>"#,
            BIB,
        );
        assert_eq!(
            out,
            r#"<r><book y="1994-ed"></book><book y="2000-ed"></book></r>"#
        );
    }

    #[test]
    fn text_step() {
        let out = run(
            r#"<r>{ for $b in $ROOT/bib/book return <t>{$b/title/text()}</t> }</r>"#,
            BIB,
        );
        assert_eq!(out, "<r><t>TCP/IP</t><t>Data on the Web</t></r>");
    }

    #[test]
    fn whole_variable_copy() {
        let out = run(
            r#"<r>{ for $b in $ROOT/bib/book where $b/@year = 2000 return $b }</r>"#,
            BIB,
        );
        assert!(out.contains(r#"<book year="2000">"#));
        assert!(out.contains("<publisher>MK</publisher>"));
    }

    #[test]
    fn if_else_branches() {
        let out = run(
            r#"<r>{ for $b in $ROOT/bib/book return if ($b/author = "Stevens") then <s/> else <o/> }</r>"#,
            BIB,
        );
        assert_eq!(out, "<r><s></s><o></o></r>");
    }

    #[test]
    fn exists_and_empty() {
        let out = run(
            r#"<r>{ for $b in $ROOT/bib/book return if (exists($b/editor)) then <e/> else if (empty($b/editor)) then <n/> else () }</r>"#,
            BIB,
        );
        assert_eq!(out, "<r><n></n><n></n></r>");
    }

    #[test]
    fn join_across_branches() {
        let doc = r#"<top><bib><book><title>A</title></book><book><title>B</title></book></bib><reviews><entry><title>B</title><rating>5</rating></entry></reviews></top>"#;
        let out = run(
            r#"<out>{ for $b in $ROOT/top/bib/book, $e in $ROOT/top/reviews/entry where $b/title = $e/title return <hit>{$b/title}{$e/rating}</hit> }</out>"#,
            doc,
        );
        assert_eq!(
            out,
            "<out><hit><title>B</title><rating>5</rating></hit></out>"
        );
    }

    #[test]
    fn unbound_variable_is_error() {
        let doc = Document::parse_str("<a/>").unwrap();
        let expr = parse_query("<r>{$nope/x}</r>").unwrap();
        let err = eval_to_string(&doc, &expr).unwrap_err();
        assert_eq!(
            err.to_string(),
            reference_eval_to_string(&doc, &expr)
                .unwrap_err()
                .to_string()
        );
    }

    #[test]
    fn counting_sink_counts() {
        let doc = Document::parse_str(BIB).unwrap();
        let expr = parse_query(r#"<r>{ for $b in $ROOT/bib/book return $b/title }</r>"#).unwrap();
        let mut slot_map = SlotMap::new();
        let root = slot_map.slot(ROOT_VAR);
        let compiled = compile_for_document(&expr, &doc, &mut slot_map).unwrap();
        let mut slots = slot_map.make_slots();
        slots[root] = Some(doc.document_node());
        let mut evaluator = CursorEvaluator::new();
        let mut sink = CountingSink::default();
        evaluator
            .eval(&doc, &compiled, &mut slots, &mut sink)
            .unwrap();
        assert!(sink.bytes > 0);
        assert!(sink.events >= 6);
    }

    #[test]
    fn repeated_evaluation_reuses_scratch() {
        // Steady state: the second and later evaluations draw all cursor
        // stacks and string scratch from the evaluator's pools. (The
        // allocation-free property itself is proven by the
        // counting-allocator integration test; this pins pool plumbing.)
        let doc = Document::parse_str(BIB).unwrap();
        let expr = parse_query(
            r#"<r>{ for $b in $ROOT/bib/book where $b/price < 100 return <x p="{$b/@year}">{$b/title}</x> }</r>"#,
        )
        .unwrap();
        let mut slot_map = SlotMap::new();
        let root = slot_map.slot(ROOT_VAR);
        let compiled = compile_for_document(&expr, &doc, &mut slot_map).unwrap();
        let mut slots = slot_map.make_slots();
        slots[root] = Some(doc.document_node());
        let mut evaluator = CursorEvaluator::new();
        let mut first = None;
        for _ in 0..3 {
            let mut sink = CountingSink::default();
            evaluator
                .eval(&doc, &compiled, &mut slots, &mut sink)
                .unwrap();
            let snapshot = (sink.bytes, sink.events);
            assert_eq!(*first.get_or_insert(snapshot), snapshot);
        }
    }

    #[test]
    fn compare_function_directly() {
        assert!(compare("10", "9", CmpOp::Gt), "numeric comparison");
        assert!(!compare("10", "9", CmpOp::Lt));
        assert!(compare("abc", "abd", CmpOp::Lt), "string comparison");
        assert!(compare("1.5", "1.50", CmpOp::Eq), "numeric equality");
        assert!(!compare("1.5x", "1.50", CmpOp::Eq), "falls back to string");
    }
}
