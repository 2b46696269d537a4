//! A lightweight arena-based document tree with **interned names**.
//!
//! Used by the baseline engines (which materialise documents or projected
//! fragments) and by the FluXQuery runtime's buffer store (which materialises
//! only BDF-selected subtrees). Element and attribute names are stored as
//! [`Symbol`]s against a per-document [`SymbolTable`] — one copy of every
//! distinct name for the whole tree, integer name comparisons everywhere —
//! so a buffered node costs its *content* bytes, not its tag vocabulary.
//! Every structure reports its heap footprint so experiments can account
//! buffered memory deterministically.
//!
//! A document seeded from a stream's table ([`Document::with_symbols`])
//! shares that table's index space: importing a stream event's name is a
//! plain integer copy ([`Document::import_name`]), no hashing and no
//! allocation. Names the seed does not cover — including
//! [`SymbolTable::OVERFLOW`] names from a bounded-interner stream, whose
//! literal spelling rides the event's side channel — are interned into the
//! document's own (unbounded) table, so a tree never stores the sentinel.

use crate::error::{Result, XmlError};
use crate::event::{Attribute, RawEvent, RawEventKind, RawEventRef, XmlEvent};
use crate::reader::XmlReader;
use crate::writer::XmlWriter;
use flux_symbols::{Symbol, SymbolTable};
use std::collections::HashMap;
use std::io::Read;

/// Index of a node inside a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One attribute of an element node: interned name, owned value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeAttr {
    /// Interned against the owning [`Document`]'s table — never
    /// [`SymbolTable::OVERFLOW`].
    pub name: Symbol,
    pub value: String,
}

/// The payload of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The virtual document node; always the arena's first entry.
    Document,
    /// An element with its attributes. The name is interned against the
    /// owning [`Document`]'s table.
    Element {
        name: Symbol,
        attributes: Vec<NodeAttr>,
    },
    /// A text node.
    Text(String),
    /// A text node whose payload lives in the owning [`Document`]'s
    /// shared-text dictionary (see [`Document::intern_shared_text`]): one
    /// copy per distinct payload, however many nodes carry it. The node
    /// itself owns no content bytes.
    SharedText(u32),
}

/// One node of the arena.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: NodeKind,
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
}

impl Node {
    /// Deterministic content bytes of this node: attribute payloads and
    /// text lengths, excluding the child-pointer vector (which grows
    /// independently of this node's own data). Interned names cost nothing
    /// per node — the one copy per distinct name lives in the document's
    /// symbol table. Length-based rather than capacity-based so the number
    /// is stable across allocator behaviour.
    fn content_bytes(&self) -> usize {
        match &self.kind {
            NodeKind::Document => 0,
            NodeKind::Element { attributes, .. } => {
                attributes.len() * std::mem::size_of::<NodeAttr>()
                    + attributes.iter().map(|a| a.value.len()).sum::<usize>()
            }
            NodeKind::Text(t) => t.len(),
            // The one copy per distinct payload is charged on the
            // document's dictionary, exactly like interned names.
            NodeKind::SharedText(_) => 0,
        }
    }

    /// Content bytes plus the child-pointer vector.
    fn heap_bytes(&self) -> usize {
        self.content_bytes() + self.children.len() * std::mem::size_of::<NodeId>()
    }
}

/// An arena-allocated XML document or document fragment.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    /// Interner for element and attribute names stored in this tree.
    symbols: SymbolTable,
    /// Length of the table prefix shared (index-identically) with the
    /// stream table this document was seeded from: symbols below this
    /// index import as plain integer copies.
    aligned: usize,
    /// Heap bytes of the names *this document* interned beyond its seed
    /// (maintained incrementally; doubled like
    /// [`SymbolTable::heap_bytes`], covering both map directions). The
    /// seeded schema vocabulary is excluded — the document never copied
    /// it. This is the run-long dictionary cost of the symbol-keyed
    /// layout, reported by [`Document::memory_bytes`] and charged to the
    /// buffer accounting by the runtime's arena.
    interned_bytes: usize,
    /// The shared-text dictionary: one owned copy per distinct payload
    /// referenced by [`NodeKind::SharedText`] nodes.
    shared_texts: Vec<String>,
    /// Payload → dictionary index.
    shared_lookup: HashMap<String, u32>,
    /// Heap bytes of the dictionary, doubled like interned names (both the
    /// payload copy and its lookup key), maintained incrementally.
    shared_bytes: usize,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates a document containing only the virtual document node, with
    /// a fresh symbol table.
    pub fn new() -> Self {
        Self::with_symbols(SymbolTable::new())
    }

    /// Creates a document whose name table is seeded with `symbols`
    /// (typically a clone of the stream's table). Clones preserve indices,
    /// so stream symbols inside the seeded prefix import with no hashing
    /// at all — see [`Document::import_name`].
    pub fn with_symbols(symbols: SymbolTable) -> Self {
        let aligned = symbols.len();
        Document {
            nodes: vec![Node {
                kind: NodeKind::Document,
                parent: None,
                children: Vec::new(),
            }],
            symbols,
            aligned,
            interned_bytes: 0,
            shared_texts: Vec::new(),
            shared_lookup: HashMap::new(),
            shared_bytes: 0,
        }
    }

    /// Returns the document to the state [`Document::with_symbols`] built
    /// it in — only the document node, the name table truncated back to
    /// its seed, no interned-name bytes, an empty shared-text dictionary —
    /// so it can hold the next run's buffers. Storage is kept up to
    /// `max_bytes` per container (see [`crate::recycle`]).
    pub fn reset(&mut self, max_bytes: usize) {
        self.nodes.truncate(1);
        crate::recycle::reuse(&mut self.nodes[0].children, max_bytes);
        if self.nodes.capacity() * std::mem::size_of::<Node>() > max_bytes {
            self.nodes.shrink_to_fit();
        }
        self.symbols.truncate(self.aligned);
        self.interned_bytes = 0;
        crate::recycle::reuse(&mut self.shared_texts, max_bytes);
        self.shared_lookup.clear();
        if self.shared_lookup.capacity() * std::mem::size_of::<(String, u32)>() > max_bytes {
            self.shared_lookup = HashMap::new();
        }
        self.shared_bytes = 0;
    }

    /// The document's name table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Interns a name into the document's table, accounting first-sight
    /// name bytes (see [`Document::interned_name_bytes`]).
    pub fn intern(&mut self, name: &str) -> Symbol {
        let before = self.symbols.len();
        let sym = self.symbols.intern(name);
        if self.symbols.len() > before {
            self.interned_bytes += 2 * name.len();
        }
        sym
    }

    /// Heap bytes of the names this document interned beyond its seed —
    /// each distinct name exactly once, however many nodes carry it.
    pub fn interned_name_bytes(&self) -> usize {
        self.interned_bytes
    }

    /// Imports a stream event's name into this document's symbol space.
    ///
    /// * A symbol inside the seeded prefix is returned unchanged — an
    ///   integer copy, the hot path for schema-validated streams.
    /// * A stream symbol past the prefix re-interns by name (hash lookup,
    ///   allocation only on first sight).
    /// * [`SymbolTable::OVERFLOW`] (bounded-interner streams) resolves via
    ///   `literal`, the event's literal-name side channel — the tree never
    ///   stores the sentinel, so buffering an overflowed name can neither
    ///   panic nor misname the node.
    pub fn import_name(&mut self, stream: &SymbolTable, sym: Symbol, literal: &str) -> Symbol {
        if sym != SymbolTable::OVERFLOW && sym.index() < self.aligned {
            debug_assert_eq!(
                self.symbols.try_name(sym),
                stream.try_name(sym),
                "seeded prefix must agree with the stream table"
            );
            return sym;
        }
        match stream.try_name(sym) {
            Some(name) => self.intern(name),
            None => self.intern(literal),
        }
    }

    /// The virtual document node.
    pub fn document_node(&self) -> NodeId {
        NodeId(0)
    }

    /// The root element, if the document has one.
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(self.document_node())
            .iter()
            .copied()
            .find(|&id| matches!(self.kind(id), NodeKind::Element { .. }))
    }

    /// Number of nodes, including the document node.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Deterministic estimate of heap memory held by the whole tree, in
    /// bytes (length-based, so independent of allocator growth policies).
    /// Includes the name bytes this tree itself interned (each distinct
    /// name once), but not the seeded schema vocabulary.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.nodes.iter().map(Node::heap_bytes).sum::<usize>()
            + self.interned_bytes
            + self.shared_bytes
    }

    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Element name, or `None` for text/document nodes.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        self.name_sym(id).map(|s| self.symbols.name(s))
    }

    /// Element name symbol, or `None` for text/document nodes.
    pub fn name_sym(&self, id: NodeId) -> Option<Symbol> {
        match self.kind(id) {
            NodeKind::Element { name, .. } => Some(*name),
            _ => None,
        }
    }

    /// Text content, or `None` for element/document nodes. Shared-text
    /// nodes resolve through the dictionary.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match self.kind(id) {
            NodeKind::Text(t) => Some(t),
            NodeKind::SharedText(idx) => Some(&self.shared_texts[*idx as usize]),
            _ => None,
        }
    }

    /// Attributes of an element node (empty slice otherwise).
    pub fn attributes(&self, id: NodeId) -> &[NodeAttr] {
        match self.kind(id) {
            NodeKind::Element { attributes, .. } => attributes,
            _ => &[],
        }
    }

    /// Value of the named attribute, if present. The name resolves to a
    /// symbol once; the scan over the element's attributes is integer
    /// comparisons.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        let sym = self.symbols.lookup(name)?;
        self.attribute_sym(id, sym)
    }

    /// Symbol-keyed variant of [`Document::attribute`]: no hashing, a pure
    /// integer scan over the element's attributes.
    pub fn attribute_sym(&self, id: NodeId, sym: Symbol) -> Option<&str> {
        self.attributes(id)
            .iter()
            .find(|a| a.name == sym)
            .map(|a| a.value.as_str())
    }

    /// Child elements with the given name, in document order. The name
    /// resolves to a symbol once; the per-child filter is an integer
    /// comparison. A name the document has never interned matches nothing.
    pub fn children_named<'a>(
        &'a self,
        id: NodeId,
        name: &str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let sym = self.symbols.lookup(name);
        self.children_named_sym(id, sym)
    }

    /// Symbol-keyed variant of [`Document::children_named`]; `None`
    /// matches nothing.
    pub fn children_named_sym<'a>(
        &'a self,
        id: NodeId,
        sym: Option<Symbol>,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.children(id)
            .iter()
            .copied()
            .filter(move |&c| sym.is_some() && self.name_sym(c) == sym)
    }

    /// The XPath string value: concatenated descendant text in document order.
    pub fn string_value(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    /// [`Document::string_value`] into a caller-owned buffer (cleared
    /// first) — the allocation-free path once the buffer's capacity warms.
    pub fn string_value_into(&self, id: NodeId, out: &mut String) {
        out.clear();
        self.collect_text(id, out);
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match self.kind(id) {
            NodeKind::Text(t) => out.push_str(t),
            NodeKind::SharedText(idx) => out.push_str(&self.shared_texts[*idx as usize]),
            _ => {
                for &c in self.children(id) {
                    self.collect_text(c, out);
                }
            }
        }
    }

    /// Creates a detached element node from string-named parts (interns
    /// the names; the convenience path for tests and tools).
    pub fn create_element(&mut self, name: &str, attributes: Vec<Attribute>) -> NodeId {
        let name = self.intern(name);
        let attributes = attributes
            .into_iter()
            .map(|a| NodeAttr {
                name: self.intern(&a.name),
                value: a.value,
            })
            .collect();
        self.create_element_sym(name, attributes)
    }

    /// Creates a detached element node from already-interned parts — the
    /// allocation-free naming path. `name` and every attribute name must
    /// be symbols of *this* document's table.
    pub fn create_element_sym(&mut self, name: Symbol, attributes: Vec<NodeAttr>) -> NodeId {
        debug_assert!(
            self.symbols.try_name(name).is_some(),
            "element name must be interned in the document table"
        );
        self.push_node(NodeKind::Element { name, attributes })
    }

    /// Creates a detached element from a stream event, importing names
    /// through [`Document::import_name`] (only attribute values copy).
    pub fn create_element_raw(&mut self, stream: &SymbolTable, ev: &RawEvent) -> NodeId {
        let name = self.import_name(stream, ev.name(), ev.target());
        let attributes = ev
            .attributes()
            .iter()
            .map(|a| NodeAttr {
                name: self.import_name(stream, a.name, &a.overflow_name),
                value: a.value.clone(),
            })
            .collect();
        self.create_element_sym(name, attributes)
    }

    /// Creates a detached element from a borrowed event view, importing
    /// names through [`Document::import_name`].
    pub fn create_element_view(&mut self, stream: &SymbolTable, ev: &RawEventRef<'_>) -> NodeId {
        let name = self.import_name(stream, ev.name(), ev.target());
        let attributes = ev
            .attrs()
            .map(|a| NodeAttr {
                name: self.import_name(stream, a.name, a.overflow_name),
                value: a.value.to_string(),
            })
            .collect();
        self.create_element_sym(name, attributes)
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, text: impl Into<String>) -> NodeId {
        self.push_node(NodeKind::Text(text.into()))
    }

    /// Dictionary index of `text`, if it has been interned.
    pub fn shared_text_lookup(&self, text: &str) -> Option<u32> {
        self.shared_lookup.get(text).copied()
    }

    /// Interns a text payload into the shared dictionary, charging its
    /// bytes (doubled, like interned names) on first sight.
    pub fn intern_shared_text(&mut self, text: &str) -> u32 {
        if let Some(idx) = self.shared_lookup.get(text) {
            return *idx;
        }
        let idx = u32::try_from(self.shared_texts.len()).expect("shared-text dictionary too large");
        self.shared_texts.push(text.to_string());
        self.shared_lookup.insert(text.to_string(), idx);
        self.shared_bytes += 2 * text.len();
        idx
    }

    /// Heap bytes of the shared-text dictionary — each distinct payload
    /// exactly once, however many nodes reference it.
    pub fn shared_text_bytes(&self) -> usize {
        self.shared_bytes
    }

    /// Creates a detached text node referencing a dictionary payload.
    pub fn create_shared_text(&mut self, idx: u32) -> NodeId {
        debug_assert!((idx as usize) < self.shared_texts.len());
        self.push_node(NodeKind::SharedText(idx))
    }

    /// Creates a detached text node through the frequency gate: payloads
    /// the gate has seen often enough intern into the shared dictionary
    /// (one copy, charged once); everything else gets a plain owned node.
    pub fn gated_text(&mut self, gate: &mut TextGate, text: &str) -> NodeId {
        if !TextGate::eligible(text) {
            return self.create_text(text);
        }
        if let Some(idx) = self.shared_text_lookup(text) {
            return self.create_shared_text(idx);
        }
        if gate.admit(text) {
            let idx = self.intern_shared_text(text);
            self.create_shared_text(idx)
        } else {
            self.create_text(text)
        }
    }

    fn push_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("document too large"));
        self.nodes.push(Node {
            kind,
            parent: None,
            children: Vec::new(),
        });
        id
    }

    /// Appends `child` (which must be detached) to `parent`'s children.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        debug_assert!(
            self.nodes[child.index()].parent.is_none(),
            "child already attached"
        );
        self.nodes[child.index()].parent = Some(parent);
        self.nodes[parent.index()].children.push(child);
    }

    /// Deterministic bytes owned by one node (its payload strings and the
    /// node struct), excluding the child-pointer vector so the value is
    /// identical at allocation and free time. Used for buffer accounting.
    pub fn node_heap_bytes(&self, id: NodeId) -> usize {
        self.nodes[id.index()].content_bytes() + std::mem::size_of::<Node>()
    }

    /// Replaces a node's payload for arena recycling, returning the old
    /// payload so the caller can harvest its buffers. The parent link is
    /// cleared and the children list emptied **in place** (it keeps its
    /// capacity — recycled slots are re-populated without reallocating).
    /// The caller is responsible for ensuring nothing references `id`.
    pub fn reset_node(&mut self, id: NodeId, kind: NodeKind) -> NodeKind {
        let node = &mut self.nodes[id.index()];
        let old = std::mem::replace(&mut node.kind, kind);
        node.parent = None;
        node.children.clear();
        old
    }

    /// Appends text to an existing text node (buffer population merges
    /// adjacent text chunks); returns false if the node is not a text node.
    pub fn append_to_text(&mut self, id: NodeId, more: &str) -> bool {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Text(t) => {
                t.push_str(more);
                true
            }
            _ => false,
        }
    }

    /// Merges `more` into a trailing text node of either kind: plain text
    /// appends in place; shared text first *demotes* to an owned copy (the
    /// merged payload is a new spelling — sharing it would re-gate it).
    /// Returns false for non-text nodes. `scratch` provides the owned
    /// buffer for demotion so callers can recycle capacity.
    pub fn merge_text(&mut self, id: NodeId, more: &str, scratch: &mut String) -> bool {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Text(t) => {
                t.push_str(more);
                true
            }
            NodeKind::SharedText(idx) => {
                scratch.clear();
                scratch.push_str(&self.shared_texts[*idx as usize]);
                scratch.push_str(more);
                self.nodes[id.index()].kind = NodeKind::Text(std::mem::take(scratch));
                true
            }
            _ => false,
        }
    }

    /// Parses a complete document from a reader.
    pub fn parse_reader<R: Read>(reader: &mut XmlReader<R>) -> Result<Document> {
        let mut builder = TreeBuilder::new();
        let mut ev = RawEvent::new();
        loop {
            if !reader.next_into(&mut ev)? {
                return builder.finish();
            }
            builder.raw_event(reader.symbols(), &ev)?;
        }
    }

    /// Parses a complete document from a string.
    pub fn parse_str(input: &str) -> Result<Document> {
        let mut reader = XmlReader::new(input.as_bytes());
        Self::parse_reader(&mut reader)
    }

    /// Serialises the subtree rooted at `id` to the writer. Start tags go
    /// through the writer's symbol fast path — no name strings materialise.
    pub fn serialize_node<W: std::io::Write>(
        &self,
        id: NodeId,
        writer: &mut XmlWriter<W>,
    ) -> Result<()> {
        match self.kind(id) {
            NodeKind::Document => {
                for &c in self.children(id) {
                    self.serialize_node(c, writer)?;
                }
                Ok(())
            }
            NodeKind::Element { .. } => {
                writer.start_element_node(self, id)?;
                for &c in self.children(id) {
                    self.serialize_node(c, writer)?;
                }
                writer.end_element()
            }
            NodeKind::Text(t) => writer.text(t),
            NodeKind::SharedText(idx) => writer.text(&self.shared_texts[*idx as usize]),
        }
    }

    /// Serialises the whole document to a string.
    pub fn to_xml_string(&self) -> Result<String> {
        let mut writer = XmlWriter::new(Vec::new());
        self.serialize_node(self.document_node(), &mut writer)?;
        writer.finish()?;
        String::from_utf8(writer.into_inner()).map_err(|_| XmlError::WriterMisuse {
            message: "serialiser produced invalid UTF-8".to_string(),
        })
    }
}

/// Frequency gate deciding which text payloads are worth interning into a
/// document's shared dictionary.
///
/// A fixed-size array of approximate counters (FNV-hashed, overwrite on
/// collision): short payloads that keep recurring cross the gate and
/// intern; one-off payloads never pay a dictionary charge. The table is a
/// few KB, allocated once, never grows, and is deliberately *not* part of
/// buffer accounting — like the arena's recycling pools, it is a bounded
/// fixture of the machine, not data retained from the stream. Collisions
/// only delay (or rarely, hasten) interning; they never affect content,
/// because the dictionary itself is keyed by the full payload.
///
/// Sightings are scoped to a *generation* (see
/// [`TextGate::bump_generation`]): a holder that frees its buffered
/// content wholesale — the runtime's scoped arena — bumps the generation
/// on every free, so only payloads repeated while their earlier copies
/// are still live can cross the gate. Those are exactly the payloads
/// whose sharing lowers peak buffered bytes; a string that recurs once
/// per scope would charge the resident dictionary without ever saving a
/// live byte. Full-document materialisation never bumps, keeping the
/// plain whole-stream frequency semantics.
#[derive(Debug, Clone)]
pub struct TextGate {
    /// `(payload hash, sightings, generation)` per slot.
    slots: Vec<(u64, u32, u32)>,
    /// Current generation; slots stamped with an older one are stale.
    gen: u32,
}

/// Payloads longer than this never intern: long strings rarely repeat and
/// a mistaken charge would be expensive.
const SHARED_TEXT_MAX_LEN: usize = 64;
/// Sightings before a payload is interned.
const SHARED_TEXT_GATE: u32 = 4;
/// Counter slots (power of two).
const TEXT_GATE_SLOTS: usize = 1024;

impl Default for TextGate {
    fn default() -> Self {
        Self::new()
    }
}

impl TextGate {
    pub fn new() -> Self {
        TextGate {
            slots: vec![(0, 0, 0); TEXT_GATE_SLOTS],
            gen: 0,
        }
    }

    /// Starts a new sighting generation: every counter in the table is
    /// (lazily) reset, because a slot stamped with an older generation is
    /// stale. When the counter wraps back to 0 after 2^32 bumps the slots
    /// are re-zeroed eagerly, so a count stamped 2^32 generations ago can
    /// never pass for a current one: after the wrap the gate admits
    /// exactly as a fresh gate does.
    pub fn bump_generation(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.slots.fill((0, 0, 0));
        }
    }

    /// Whether a payload is even a sharing candidate.
    pub fn eligible(text: &str) -> bool {
        !text.is_empty() && text.len() <= SHARED_TEXT_MAX_LEN
    }

    /// Records a sighting; true once the payload has recurred enough to be
    /// worth interning.
    pub fn admit(&mut self, text: &str) -> bool {
        debug_assert!(Self::eligible(text));
        let h = fnv1a(text.as_bytes());
        let slot = &mut self.slots[(h as usize) & (TEXT_GATE_SLOTS - 1)];
        if slot.2 != self.gen {
            // Stale counter from an earlier generation: everything it saw
            // has been freed, so the tally restarts at this sighting.
            *slot = (h, 1, self.gen);
            false
        } else if slot.0 == h {
            slot.1 = slot.1.saturating_add(1);
            slot.1 >= SHARED_TEXT_GATE
        } else if slot.1 == 0 {
            *slot = (h, 1, self.gen);
            false
        } else {
            // Misra–Gries-style decay on collision: the incumbent loses a
            // sighting instead of being evicted outright, so genuinely
            // frequent payloads survive churn from one-off strings (unique
            // titles hashing into the same slot as a recurring author name
            // no longer reset its count).
            slot.1 -= 1;
            false
        }
    }
}

/// Deterministic FNV-1a (the gate must behave identically across runs for
/// reproducible buffer accounting).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Incremental tree construction from a stream of events.
///
/// Also usable for fragments: feed any balanced event sequence; the nodes end
/// up as children of the virtual document node.
pub struct TreeBuilder {
    doc: Document,
    stack: Vec<NodeId>,
    /// When present, text nodes route through the shared-text dictionary.
    gate: Option<TextGate>,
}

impl Default for TreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeBuilder {
    pub fn new() -> Self {
        Self::with_symbols(SymbolTable::new())
    }

    /// A builder whose document is seeded with `symbols` (see
    /// [`Document::with_symbols`]) so stream symbols inside the seeded
    /// prefix import without hashing.
    pub fn with_symbols(symbols: SymbolTable) -> Self {
        let doc = Document::with_symbols(symbols);
        let root = doc.document_node();
        TreeBuilder {
            doc,
            stack: vec![root],
            gate: None,
        }
    }

    /// Routes repeated short text payloads through the document's shared
    /// dictionary (see [`TextGate`]): full-document materialisation stops
    /// paying per-node for recurring strings.
    pub fn with_shared_text(mut self) -> Self {
        self.gate = Some(TextGate::new());
        self
    }

    /// Current insertion parent.
    fn top(&self) -> NodeId {
        *self.stack.last().expect("builder stack never empty")
    }

    /// Opens an element node created by one of the document's constructors.
    fn open(&mut self, id: NodeId) {
        let parent = self.top();
        self.doc.append_child(parent, id);
        self.stack.push(id);
    }

    /// Closes the innermost open element.
    fn end_node(&mut self) -> Result<()> {
        if self.stack.len() <= 1 {
            return Err(XmlError::WriterMisuse {
                message: "unbalanced end element fed to TreeBuilder".to_string(),
            });
        }
        self.stack.pop();
        Ok(())
    }

    /// Appends text, merging with a preceding text sibling to keep string
    /// values independent of how the input was chunked.
    fn text_node(&mut self, t: &str) {
        let parent = self.top();
        if let Some(&last) = self.doc.children(parent).last() {
            let mut scratch = String::new();
            if self.doc.merge_text(last, t, &mut scratch) {
                return;
            }
        }
        let id = match &mut self.gate {
            Some(gate) => self.doc.gated_text(gate, t),
            None => self.doc.create_text(t),
        };
        self.doc.append_child(parent, id);
    }

    /// Feeds one event into the tree.
    pub fn event(&mut self, ev: &XmlEvent) -> Result<()> {
        match ev {
            XmlEvent::StartDocument
            | XmlEvent::EndDocument
            | XmlEvent::DoctypeDecl { .. }
            | XmlEvent::Comment(_)
            | XmlEvent::ProcessingInstruction { .. } => Ok(()),
            XmlEvent::StartElement { name, attributes } => {
                let id = self.doc.create_element(name, attributes.clone());
                self.open(id);
                Ok(())
            }
            XmlEvent::EndElement { .. } => self.end_node(),
            XmlEvent::Text(t) => {
                self.text_node(t);
                Ok(())
            }
        }
    }

    /// Feeds one raw (interned) event, importing names through the
    /// document's table ([`Document::import_name`]). Materialising a tree
    /// inherently copies attribute values and text — names do not copy.
    pub fn raw_event(&mut self, symbols: &SymbolTable, ev: &RawEvent) -> Result<()> {
        match ev.kind() {
            RawEventKind::StartDocument
            | RawEventKind::EndDocument
            | RawEventKind::DoctypeDecl
            | RawEventKind::Comment
            | RawEventKind::ProcessingInstruction => Ok(()),
            RawEventKind::StartElement => {
                let id = self.doc.create_element_raw(symbols, ev);
                self.open(id);
                Ok(())
            }
            RawEventKind::EndElement => self.end_node(),
            RawEventKind::Text => {
                self.text_node(ev.text());
                Ok(())
            }
        }
    }

    /// Completes the build; fails if elements are still open.
    pub fn finish(self) -> Result<Document> {
        if self.stack.len() != 1 {
            return Err(XmlError::WriterMisuse {
                message: format!(
                    "{} element(s) still open in TreeBuilder",
                    self.stack.len() - 1
                ),
            });
        }
        Ok(self.doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_after_generation_wrap_admits_like_a_fresh_gate() {
        let payloads = [
            "Recurring Author",
            "Other",
            "Recurring Author",
            "Recurring Author",
            "Other",
            "Recurring Author",
            "Recurring Author",
        ];
        let mut wrapped = TextGate::new();
        // Counts stamped with generation 0, which the wrap comes back to.
        for _ in 0..3 {
            wrapped.admit("Recurring Author");
        }
        wrapped.gen = u32::MAX - 1;
        wrapped.bump_generation();
        assert_eq!(wrapped.gen, u32::MAX);
        for p in payloads {
            wrapped.admit(p);
        }
        wrapped.bump_generation();
        assert_eq!(wrapped.gen, 0, "the generation wrapped");
        let mut fresh = TextGate::new();
        let after_wrap: Vec<bool> = payloads.iter().map(|p| wrapped.admit(p)).collect();
        let from_fresh: Vec<bool> = payloads.iter().map(|p| fresh.admit(p)).collect();
        assert_eq!(after_wrap, from_fresh);
        assert_eq!(wrapped.slots, fresh.slots);
    }

    #[test]
    fn reset_returns_to_the_seeded_state() {
        let mut seed = SymbolTable::new();
        seed.intern("book");
        let mut doc = Document::with_symbols(seed.clone());
        let fresh = Document::with_symbols(seed);
        let book = doc.create_element("book", vec![Attribute::new("minted", "v")]);
        doc.append_child(doc.document_node(), book);
        let idx = doc.intern_shared_text("shared");
        let t = doc.create_shared_text(idx);
        doc.append_child(book, t);
        assert!(doc.memory_bytes() > fresh.memory_bytes());
        doc.reset(1 << 16);
        assert_eq!(doc.node_count(), 1);
        assert!(doc.children(doc.document_node()).is_empty());
        assert_eq!(doc.symbols().len(), fresh.symbols().len());
        assert_eq!(doc.symbols().lookup("minted"), None);
        assert_eq!(doc.shared_text_lookup("shared"), None);
        assert_eq!(doc.interned_name_bytes(), 0);
        assert_eq!(doc.shared_text_bytes(), 0);
        assert_eq!(doc.memory_bytes(), fresh.memory_bytes());
    }

    const BIB: &str = r#"<bib><book year="1994"><title>TCP/IP</title><author>Stevens</author><author>Wright</author></book><book year="2000"><title>Data</title></book></bib>"#;

    #[test]
    fn parse_and_navigate() {
        let doc = Document::parse_str(BIB).unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.name(root), Some("bib"));
        let books: Vec<_> = doc.children_named(root, "book").collect();
        assert_eq!(books.len(), 2);
        assert_eq!(doc.attribute(books[0], "year"), Some("1994"));
        let authors: Vec<_> = doc.children_named(books[0], "author").collect();
        assert_eq!(authors.len(), 2);
        assert_eq!(doc.string_value(authors[0]), "Stevens");
    }

    #[test]
    fn string_value_concatenates() {
        let doc = Document::parse_str("<a>one<b>two</b>three</a>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.string_value(root), "onetwothree");
    }

    #[test]
    fn round_trip() {
        let doc = Document::parse_str(BIB).unwrap();
        assert_eq!(doc.to_xml_string().unwrap(), BIB);
    }

    #[test]
    fn parent_links() {
        let doc = Document::parse_str("<a><b><c/></b></a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.children(a)[0];
        let c = doc.children(b)[0];
        assert_eq!(doc.parent(c), Some(b));
        assert_eq!(doc.parent(b), Some(a));
        assert_eq!(doc.parent(a), Some(doc.document_node()));
        assert_eq!(doc.parent(doc.document_node()), None);
    }

    #[test]
    fn memory_accounting_grows_with_content() {
        let small = Document::parse_str("<a/>").unwrap();
        let big = Document::parse_str(&format!("<a>{}</a>", "x".repeat(10_000))).unwrap();
        assert!(big.memory_bytes() > small.memory_bytes() + 9_000);
    }

    #[test]
    fn repeated_names_cost_one_table_entry() {
        // 50 identically-named elements must not store the name 50 times:
        // the per-node delta is pointer-sized bookkeeping, not name bytes.
        let longname = "averylongelementname".repeat(4);
        let one = Document::parse_str(&format!("<r><{longname}/></r>")).unwrap();
        let many = {
            let body: String = (0..50).map(|_| format!("<{longname}/>")).collect();
            Document::parse_str(&format!("<r>{body}</r>")).unwrap()
        };
        let per_node = (many.memory_bytes() - one.memory_bytes()) / 49;
        assert!(
            per_node < longname.len(),
            "per-node cost {per_node} must be below the name length {}",
            longname.len()
        );
    }

    #[test]
    fn builder_fragment() {
        let mut b = TreeBuilder::new();
        b.event(&XmlEvent::StartElement {
            name: "x".into(),
            attributes: vec![],
        })
        .unwrap();
        b.event(&XmlEvent::Text("hi".into())).unwrap();
        b.event(&XmlEvent::EndElement { name: "x".into() }).unwrap();
        b.event(&XmlEvent::StartElement {
            name: "y".into(),
            attributes: vec![],
        })
        .unwrap();
        b.event(&XmlEvent::EndElement { name: "y".into() }).unwrap();
        let doc = b.finish().unwrap();
        assert_eq!(doc.children(doc.document_node()).len(), 2);
    }

    #[test]
    fn builder_merges_adjacent_text() {
        let mut b = TreeBuilder::new();
        b.event(&XmlEvent::StartElement {
            name: "x".into(),
            attributes: vec![],
        })
        .unwrap();
        b.event(&XmlEvent::Text("a".into())).unwrap();
        b.event(&XmlEvent::Text("b".into())).unwrap();
        b.event(&XmlEvent::EndElement { name: "x".into() }).unwrap();
        let doc = b.finish().unwrap();
        let x = doc.root_element().unwrap();
        assert_eq!(doc.children(x).len(), 1);
        assert_eq!(doc.string_value(x), "ab");
    }

    #[test]
    fn builder_unbalanced_rejected() {
        let mut b = TreeBuilder::new();
        assert!(b.event(&XmlEvent::EndElement { name: "x".into() }).is_err());
        let mut b2 = TreeBuilder::new();
        b2.event(&XmlEvent::StartElement {
            name: "x".into(),
            attributes: vec![],
        })
        .unwrap();
        assert!(b2.finish().is_err());
    }

    #[test]
    fn detached_create_and_append() {
        let mut doc = Document::new();
        let e = doc.create_element("root", vec![Attribute::new("k", "v")]);
        let t = doc.create_text("body");
        let docnode = doc.document_node();
        doc.append_child(docnode, e);
        doc.append_child(e, t);
        assert_eq!(doc.to_xml_string().unwrap(), r#"<root k="v">body</root>"#);
    }

    #[test]
    fn interned_bytes_match_table_convention() {
        // The incremental counter and `SymbolTable::heap_bytes` encode the
        // same convention; this pins them together so neither can drift.
        let mut doc = Document::new();
        let base = doc.symbols().heap_bytes();
        doc.create_element("booky", vec![Attribute::new("year", "1994")]);
        doc.create_element("booky", vec![]); // repeats add nothing
        let mut stream = SymbolTable::new();
        stream.intern("imported");
        let sym = stream.lookup("imported").unwrap();
        doc.import_name(&stream, sym, "");
        doc.import_name(&stream, SymbolTable::OVERFLOW, "literalname");
        assert_eq!(doc.interned_name_bytes(), doc.symbols().heap_bytes() - base);
    }

    #[test]
    fn import_name_aligns_with_seed_and_resolves_overflow() {
        let mut stream = SymbolTable::new();
        let book = stream.intern("book");
        let mut doc = Document::with_symbols(stream.clone());
        // Seeded prefix: the symbol passes through unchanged.
        assert_eq!(doc.import_name(&stream, book, ""), book);
        // A stream symbol past the seed re-interns by name.
        let late = stream.intern("pamphlet");
        let imported = doc.import_name(&stream, late, "");
        assert_eq!(doc.symbols().name(imported), "pamphlet");
        // OVERFLOW resolves through the literal side channel.
        let ovf = doc.import_name(&stream, SymbolTable::OVERFLOW, "mystery");
        assert_eq!(doc.symbols().name(ovf), "mystery");
        assert_ne!(ovf, SymbolTable::OVERFLOW);
    }

    #[test]
    fn reset_node_recycles_children_capacity() {
        let mut doc = Document::new();
        let e = doc.create_element("a", vec![]);
        let c = doc.create_element("b", vec![]);
        doc.append_child(e, c);
        let old = doc.reset_node(e, NodeKind::Text(String::new()));
        assert!(matches!(old, NodeKind::Element { .. }));
        assert!(doc.children(e).is_empty());
        assert_eq!(doc.parent(e), None);
    }

    #[test]
    fn root_element_skips_nothing_but_finds_element() {
        let doc = Document::parse_str("<only/>").unwrap();
        assert_eq!(doc.name(doc.root_element().unwrap()), Some("only"));
    }
}
