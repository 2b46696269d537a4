//! Lazy sequence cursors over a buffered [`Document`].
//!
//! A [`SequenceCursor`] yields the items of a compiled path one at a time,
//! walking child spans in document order without materialising any
//! intermediate `Vec` — `for`-bodies iterate as matches surface, and
//! existence probes stop at the first item. Cursor scratch (the descent
//! stack and the per-step symbol vector) is pooled by the evaluator, so
//! steady-state construction allocates nothing.

use crate::compile::{CompiledPath, PathTail};
use flux_xml::tree::{Document, NodeId};
use flux_xml::Symbol;

/// One item yielded by a cursor: a buffered node or a borrowed string
/// (attribute value or text payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorItem<'d> {
    Node(NodeId),
    Str(&'d str),
}

/// A pull cursor over a lazily evaluated sequence.
pub trait SequenceCursor<'d> {
    /// The next item in document order, or `None` when exhausted.
    fn next_item(&mut self) -> Option<CursorItem<'d>>;

    /// `(lower, upper)` bounds on the remaining items, `Iterator`-style.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// Reusable cursor scratch: descent stacks and per-step symbol vectors,
/// recycled across evaluations so nested loops reach an allocation-free
/// steady state. Depth of the pool tracks the deepest live cursor nesting.
#[derive(Debug, Default)]
pub struct CursorPool {
    stacks: Vec<Vec<(NodeId, u32)>>,
    syms: Vec<Vec<Option<Symbol>>>,
}

impl CursorPool {
    pub fn new() -> Self {
        CursorPool::default()
    }

    fn take(&mut self) -> (Vec<(NodeId, u32)>, Vec<Option<Symbol>>) {
        (
            self.stacks.pop().unwrap_or_default(),
            self.syms.pop().unwrap_or_default(),
        )
    }

    /// Keeps at most `max_bytes` of pooled scratch per pool (see
    /// [`flux_xml::recycle`]).
    pub(crate) fn trim(&mut self, max_bytes: usize) {
        flux_xml::recycle::trim_pool(&mut self.stacks, max_bytes);
        flux_xml::recycle::trim_pool(&mut self.syms, max_bytes);
    }

    fn put(&mut self, mut stack: Vec<(NodeId, u32)>, mut syms: Vec<Option<Symbol>>) {
        stack.clear();
        syms.clear();
        self.stacks.push(stack);
        self.syms.push(syms);
    }
}

/// Streams the element nodes of a compiled child-step path in document
/// order: an explicit-stack descent where level `i` scans the children of
/// its node for step `i`'s symbol — integer equality only.
pub struct PathCursor<'d> {
    doc: &'d Document,
    /// `(node, next child index)` per live descent level.
    stack: Vec<(NodeId, u32)>,
    /// The resolved symbol of each child step; `None` (spelling absent
    /// from the document's table) matches nothing.
    syms: Vec<Option<Symbol>>,
    /// Start node, yielded directly for step-less paths.
    pending_start: Option<NodeId>,
}

impl<'d> PathCursor<'d> {
    /// Builds a cursor for `path` starting at `start`. Each step resolves
    /// to a symbol once, here: pre-compiled symbols copy straight over,
    /// and only undeclared spellings pay a table lookup.
    pub fn new(
        doc: &'d Document,
        path: &CompiledPath,
        start: NodeId,
        pool: &mut CursorPool,
    ) -> Self {
        let (mut stack, mut syms) = pool.take();
        syms.extend(path.steps.iter().map(|step| step.resolve(doc)));
        let pending_start = if syms.is_empty() {
            Some(start)
        } else {
            stack.push((start, 0));
            None
        };
        PathCursor {
            doc,
            stack,
            syms,
            pending_start,
        }
    }

    /// Returns the scratch buffers to the pool.
    pub fn recycle(self, pool: &mut CursorPool) {
        pool.put(self.stack, self.syms);
    }

    pub fn doc(&self) -> &'d Document {
        self.doc
    }

    /// The next matching element node in document order.
    pub fn next_node(&mut self) -> Option<NodeId> {
        if self.syms.is_empty() {
            return self.pending_start.take();
        }
        while let Some(&(node, idx)) = self.stack.last() {
            let depth = self.stack.len() - 1;
            let want = self.syms[depth];
            let children = self.doc.children(node);
            let mut i = idx as usize;
            let mut found = None;
            while i < children.len() {
                let c = children[i];
                i += 1;
                if want.is_some() && self.doc.name_sym(c) == want {
                    found = Some(c);
                    break;
                }
            }
            self.stack[depth].1 = i as u32;
            match found {
                Some(c) if depth + 1 == self.syms.len() => return Some(c),
                Some(c) => self.stack.push((c, 0)),
                None => {
                    self.stack.pop();
                }
            }
        }
        None
    }
}

impl<'d> SequenceCursor<'d> for PathCursor<'d> {
    fn next_item(&mut self) -> Option<CursorItem<'d>> {
        self.next_node().map(CursorItem::Node)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.syms.is_empty() {
            let n = usize::from(self.pending_start.is_some());
            (n, Some(n))
        } else if self.stack.is_empty() {
            (0, Some(0))
        } else {
            (0, None)
        }
    }
}

/// How an [`ItemCursor`] postprocesses the element nodes of its path.
enum TailState {
    /// Yield the nodes themselves.
    Nodes,
    /// Yield the value of this attribute (resolved once at build).
    Attribute(Option<Symbol>),
    /// Yield text-node children; holds the sub-scan position inside the
    /// current element.
    Text(Option<(NodeId, u32)>),
}

/// Streams the items of any compiled path, tail included: nodes for pure
/// element paths, borrowed strings for `/@attr` and `/text()` tails.
pub struct ItemCursor<'d> {
    inner: PathCursor<'d>,
    tail: TailState,
}

impl<'d> ItemCursor<'d> {
    pub fn new(
        doc: &'d Document,
        path: &CompiledPath,
        start: NodeId,
        pool: &mut CursorPool,
    ) -> Self {
        let tail = match &path.tail {
            PathTail::None => TailState::Nodes,
            PathTail::Attribute(name) => TailState::Attribute(name.resolve(doc)),
            PathTail::Text => TailState::Text(None),
        };
        ItemCursor {
            inner: PathCursor::new(doc, path, start, pool),
            tail,
        }
    }

    pub fn recycle(self, pool: &mut CursorPool) {
        self.inner.recycle(pool);
    }
}

impl<'d> SequenceCursor<'d> for ItemCursor<'d> {
    fn next_item(&mut self) -> Option<CursorItem<'d>> {
        let doc = self.inner.doc;
        loop {
            if let TailState::Text(scan) = &mut self.tail {
                if let Some((node, idx)) = scan {
                    let children = doc.children(*node);
                    let mut i = *idx as usize;
                    while i < children.len() {
                        let c = children[i];
                        i += 1;
                        if let Some(t) = doc.text(c) {
                            *idx = i as u32;
                            return Some(CursorItem::Str(t));
                        }
                    }
                    *scan = None;
                }
            }
            let node = self.inner.next_node()?;
            match &mut self.tail {
                TailState::Nodes => return Some(CursorItem::Node(node)),
                TailState::Attribute(sym) => {
                    if let Some(v) = sym.and_then(|s| doc.attribute_sym(node, s)) {
                        return Some(CursorItem::Str(v));
                    }
                }
                TailState::Text(scan) => *scan = Some((node, 0)),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.tail {
            TailState::Nodes => self.inner.size_hint(),
            // Tails filter (absent attributes) and fan out (multiple text
            // children): only a proven-empty inner path is conserved.
            _ => match self.inner.size_hint() {
                (_, Some(0)) if matches!(self.tail, TailState::Attribute(_)) => (0, Some(0)),
                _ => (0, None),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_path, SlotMap};
    use crate::parser::parse_query;
    use crate::Expr;

    const DOC: &str = r#"<bib><book year="1994"><title>A</title><author>X</author><author>Y</author></book><junk/><book><title>B</title></book></bib>"#;

    fn path_of(query: &str) -> crate::compile::CompiledPath {
        // Extract the single path inside `<r>{ ... }</r>`.
        let Expr::Element { content, .. } = parse_query(query).unwrap() else {
            panic!("element");
        };
        let Expr::Path(p) = *content else {
            panic!("path");
        };
        let mut slots = SlotMap::new();
        compile_path(&p, &mut slots, &mut |_| None).unwrap()
    }

    #[test]
    fn streams_matches_in_document_order() {
        let doc = Document::parse_str(DOC).unwrap();
        let path = path_of("<r>{$ROOT/bib/book/author}</r>");
        let mut pool = CursorPool::new();
        let mut cursor = PathCursor::new(&doc, &path, doc.document_node(), &mut pool);
        let mut names = Vec::new();
        while let Some(n) = cursor.next_node() {
            names.push(doc.string_value(n));
        }
        cursor.recycle(&mut pool);
        assert_eq!(names, ["X", "Y"]);
        // The pool holds the returned scratch for the next cursor.
        assert_eq!(pool.stacks.len(), 1);
    }

    #[test]
    fn stepless_path_yields_start_once() {
        let doc = Document::parse_str(DOC).unwrap();
        let mut slots = SlotMap::new();
        let path = compile_path(&crate::ast::Path::var("ROOT"), &mut slots, &mut |_| None).unwrap();
        let mut pool = CursorPool::new();
        let mut cursor = PathCursor::new(&doc, &path, doc.document_node(), &mut pool);
        assert_eq!(cursor.size_hint(), (1, Some(1)));
        assert_eq!(cursor.next_node(), Some(doc.document_node()));
        assert_eq!(cursor.next_node(), None);
    }

    #[test]
    fn attribute_tail_yields_borrowed_values() {
        let doc = Document::parse_str(DOC).unwrap();
        let path = path_of("<r>{$ROOT/bib/book/@year}</r>");
        let mut pool = CursorPool::new();
        let mut cursor = ItemCursor::new(&doc, &path, doc.document_node(), &mut pool);
        assert_eq!(cursor.next_item(), Some(CursorItem::Str("1994")));
        // The second book has no year: filtered out, not an empty string.
        assert_eq!(cursor.next_item(), None);
    }

    #[test]
    fn text_tail_walks_text_children() {
        let doc = Document::parse_str(DOC).unwrap();
        let path = path_of("<r>{$ROOT/bib/book/title/text()}</r>");
        let mut pool = CursorPool::new();
        let mut cursor = ItemCursor::new(&doc, &path, doc.document_node(), &mut pool);
        assert_eq!(cursor.next_item(), Some(CursorItem::Str("A")));
        assert_eq!(cursor.next_item(), Some(CursorItem::Str("B")));
        assert_eq!(cursor.next_item(), None);
    }

    #[test]
    fn unknown_step_matches_nothing() {
        let doc = Document::parse_str(DOC).unwrap();
        let path = path_of("<r>{$ROOT/bib/mystery}</r>");
        let mut pool = CursorPool::new();
        let mut cursor = PathCursor::new(&doc, &path, doc.document_node(), &mut pool);
        assert_eq!(cursor.next_node(), None);
    }
}
