//! The SAX-style event model shared by the reader, writer and higher layers.
//!
//! Three representations exist:
//!
//! * [`XmlEvent`] — the owned, string-named model. Convenient, allocates
//!   per event; kept for tests, tools and anything off the hot path.
//! * [`RawEvent`] — the recycled, interned model. One caller-owned
//!   `RawEvent` is rewritten in place by [`crate::XmlReader::next_into`];
//!   element and attribute names are [`Symbol`]s resolved against the
//!   reader's [`SymbolTable`], and text and attribute-value buffers are
//!   reused across events. In the steady state (every name seen once,
//!   buffers grown to the largest token) pulling an event performs
//!   **zero heap allocations**.
//! * [`RawEventRef`] — the borrowed, zero-copy view the streaming pipeline
//!   now runs on. A source ([`crate::EventSource`]) advances and then hands
//!   out a `RawEventRef` whose payloads borrow the source's own storage
//!   (the scanner window for sequential text runs, the event tape arena
//!   for sharded replay, or a recycled `RawEvent`). The view is valid
//!   until the source's next [`crate::EventSource::advance`] — delivering
//!   an event is a pointer hand-off, not a byte copy.

use crate::tape::{EncAttr, SymbolRemap};
use flux_symbols::{Symbol, SymbolTable};
use std::fmt;

/// A single attribute of a start-element tag. Values are stored unescaped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: String,
    pub value: String,
}

impl Attribute {
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            value: value.into(),
        }
    }
}

/// A parsed XML event.
///
/// Text content is delivered unescaped (entity references already resolved);
/// CDATA sections are delivered as [`XmlEvent::Text`] with a flag-free,
/// already-literal payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent {
    /// Start of the document. Emitted exactly once, before everything else.
    StartDocument,
    /// A `<!DOCTYPE name ...>` declaration. `internal_subset` holds the raw
    /// text between `[` and `]` when present; it can be fed to a DTD parser.
    DoctypeDecl {
        name: String,
        internal_subset: Option<String>,
    },
    /// `<name attr="v" ...>` (also emitted for the opening half of an
    /// empty-element tag `<name/>`, which is immediately followed by the
    /// matching [`XmlEvent::EndElement`]).
    StartElement {
        name: String,
        attributes: Vec<Attribute>,
    },
    /// `</name>` (or the synthetic close of `<name/>`).
    EndElement { name: String },
    /// Character data between tags, unescaped. Consecutive runs are merged
    /// by the reader (a single text node per gap between tags).
    Text(String),
    /// `<!-- ... -->`.
    Comment(String),
    /// `<?target data?>` (the XML declaration itself is consumed silently).
    ProcessingInstruction { target: String, data: String },
    /// End of the document. Emitted exactly once, after the root closes.
    EndDocument,
}

impl XmlEvent {
    /// Returns the element name for start/end element events.
    pub fn element_name(&self) -> Option<&str> {
        match self {
            XmlEvent::StartElement { name, .. } | XmlEvent::EndElement { name } => Some(name),
            _ => None,
        }
    }

    /// True for [`XmlEvent::Text`] consisting only of XML whitespace.
    pub fn is_whitespace_text(&self) -> bool {
        matches!(self, XmlEvent::Text(t) if t.bytes().all(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n')))
    }

    /// A short tag for diagnostics ("start-element", "text", ...).
    pub fn kind(&self) -> &'static str {
        match self {
            XmlEvent::StartDocument => "start-document",
            XmlEvent::DoctypeDecl { .. } => "doctype",
            XmlEvent::StartElement { .. } => "start-element",
            XmlEvent::EndElement { .. } => "end-element",
            XmlEvent::Text(_) => "text",
            XmlEvent::Comment(_) => "comment",
            XmlEvent::ProcessingInstruction { .. } => "processing-instruction",
            XmlEvent::EndDocument => "end-document",
        }
    }
}

impl fmt::Display for XmlEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlEvent::StartDocument => write!(f, "<start-document>"),
            XmlEvent::DoctypeDecl { name, .. } => write!(f, "<!DOCTYPE {name}>"),
            XmlEvent::StartElement { name, attributes } => {
                write!(f, "<{name}")?;
                for a in attributes {
                    write!(f, " {}=\"{}\"", a.name, a.value)?;
                }
                write!(f, ">")
            }
            XmlEvent::EndElement { name } => write!(f, "</{name}>"),
            XmlEvent::Text(t) => write!(f, "{t:?}"),
            XmlEvent::Comment(c) => write!(f, "<!--{c}-->"),
            XmlEvent::ProcessingInstruction { target, data } => write!(f, "<?{target} {data}?>"),
            XmlEvent::EndDocument => write!(f, "<end-document>"),
        }
    }
}

/// Discriminant of a [`RawEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawEventKind {
    StartDocument,
    DoctypeDecl,
    StartElement,
    EndElement,
    Text,
    Comment,
    ProcessingInstruction,
    EndDocument,
}

/// One attribute of a recycled [`RawEvent`]: interned name, recycled
/// (unescaped) value buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawAttr {
    pub name: Symbol,
    /// The literal attribute name when `name` is
    /// [`SymbolTable::OVERFLOW`] (the reader's bounded-interner mode
    /// declined to intern it); empty otherwise. A recycled buffer, like
    /// `value`.
    pub overflow_name: String,
    pub value: String,
}

impl RawAttr {
    /// The attribute name, resolving bounded-interner overflow. Use this
    /// instead of `symbols.name(attr.name)` wherever a stream may run in
    /// bounded mode.
    pub fn name_str<'a>(&'a self, symbols: &'a SymbolTable) -> &'a str {
        if self.name == SymbolTable::OVERFLOW {
            &self.overflow_name
        } else {
            symbols.name(self.name)
        }
    }

    /// Converts to the owned string representation.
    pub fn to_attribute(&self, symbols: &SymbolTable) -> Attribute {
        Attribute::new(self.name_str(symbols), self.value.clone())
    }
}

/// A recycled XML event.
///
/// The caller owns one `RawEvent` and passes it to
/// [`crate::XmlReader::next_into`], which rewrites it in place. Field
/// accessors are only meaningful for the matching [`RawEventKind`]:
///
/// | kind | [`name`](Self::name) | [`attributes`](Self::attributes) | [`text`](Self::text) | [`target`](Self::target) |
/// |---|---|---|---|---|
/// | `StartElement` | element | attributes | — | overflow name¹ |
/// | `EndElement` | element | — | — | overflow name¹ |
/// | `Text` | — | — | character data | — |
/// | `Comment` | — | — | comment text | — |
/// | `ProcessingInstruction` | — | — | data | PI target |
/// | `DoctypeDecl` | — | — | internal subset | doctype name |
///
/// ¹ Only in the reader's bounded-interner mode, when `name` is
/// [`SymbolTable::OVERFLOW`]: the literal element name rides in `target`.
/// [`Self::name_str`] resolves either representation.
///
/// Attribute value buffers beyond the live prefix are retained for reuse;
/// [`Self::attributes`] only exposes the live entries.
#[derive(Debug, Clone)]
pub struct RawEvent {
    kind: RawEventKind,
    name: Symbol,
    attrs: Vec<RawAttr>,
    attrs_len: usize,
    text: String,
    target: String,
    has_internal_subset: bool,
    text_synthetic: bool,
}

impl Default for RawEvent {
    fn default() -> Self {
        Self::new()
    }
}

impl RawEvent {
    pub fn new() -> Self {
        RawEvent {
            kind: RawEventKind::StartDocument,
            name: SymbolTable::TEXT,
            attrs: Vec::new(),
            attrs_len: 0,
            text: String::new(),
            target: String::new(),
            has_internal_subset: false,
            text_synthetic: false,
        }
    }

    pub fn kind(&self) -> RawEventKind {
        self.kind
    }

    /// The element name (start/end element events).
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// The element name as text, resolving bounded-interner overflow
    /// (where the literal name rides in the `target` buffer because the
    /// interner was at capacity).
    pub fn name_str<'a>(&'a self, symbols: &'a SymbolTable) -> &'a str {
        if self.name == SymbolTable::OVERFLOW {
            &self.target
        } else {
            symbols.name(self.name)
        }
    }

    /// Live attributes of a start-element event.
    pub fn attributes(&self) -> &[RawAttr] {
        &self.attrs[..self.attrs_len]
    }

    /// Character data / comment text / PI data / doctype internal subset.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// PI target or doctype name.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// The doctype internal subset, when one was present.
    pub fn internal_subset(&self) -> Option<&str> {
        self.has_internal_subset.then_some(self.text.as_str())
    }

    /// True for a text event consisting only of XML whitespace.
    pub fn is_whitespace_text(&self) -> bool {
        self.kind == RawEventKind::Text
            && self
                .text
                .bytes()
                .all(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
    }

    /// True when part of this text event's payload came from a character/
    /// entity reference or a CDATA section rather than literal characters.
    /// The sharded merger needs this to mirror the sequential reader's
    /// prolog/epilog rules: literal whitespace around the root is skipped,
    /// but `&#32;` or `<![CDATA[ ]]>` there is an error even though the
    /// *unescaped* payload is whitespace.
    pub fn is_text_synthetic(&self) -> bool {
        self.text_synthetic
    }

    // ----- producer API (the reader, and XSAX default-attribute injection) -----

    /// Rewrites the event as `kind`, clearing payloads but keeping every
    /// buffer's capacity for reuse.
    pub fn reset(&mut self, kind: RawEventKind) {
        self.kind = kind;
        self.attrs_len = 0;
        self.text.clear();
        self.target.clear();
        self.has_internal_subset = false;
        self.text_synthetic = false;
    }

    /// [`RawEvent::reset`] for a recycled event changing hands between
    /// inputs: buffers an outsized token grew past `max_bytes` are
    /// released (see [`crate::recycle`]).
    pub(crate) fn recycle(&mut self, max_bytes: usize) {
        self.reset(RawEventKind::StartDocument);
        self.name = SymbolTable::TEXT;
        crate::recycle::reuse(&mut self.text, max_bytes);
        crate::recycle::reuse(&mut self.target, max_bytes);
        let mut total = 0usize;
        self.attrs.retain_mut(|a| {
            crate::recycle::reuse(&mut a.value, max_bytes);
            crate::recycle::reuse(&mut a.overflow_name, max_bytes);
            total +=
                std::mem::size_of::<RawAttr>() + a.value.capacity() + a.overflow_name.capacity();
            total <= max_bytes
        });
        if self.attrs.capacity() * std::mem::size_of::<RawAttr>() > max_bytes {
            self.attrs.shrink_to_fit();
        }
    }

    pub fn set_name(&mut self, name: Symbol) {
        self.name = name;
    }

    /// Appends an attribute, recycling a spare value buffer when one is
    /// available; returns the cleared value buffer to fill.
    pub fn push_attr(&mut self, name: Symbol) -> &mut String {
        if self.attrs_len == self.attrs.len() {
            self.attrs.push(RawAttr {
                name,
                overflow_name: String::new(),
                value: String::new(),
            });
        } else {
            let slot = &mut self.attrs[self.attrs_len];
            slot.name = name;
            slot.overflow_name.clear();
            slot.value.clear();
        }
        self.attrs_len += 1;
        &mut self.attrs[self.attrs_len - 1].value
    }

    /// Appends an attribute whose name did not fit the bounded interner:
    /// the literal name is stored in the recycled `overflow_name` buffer
    /// and the symbol is [`SymbolTable::OVERFLOW`]. Returns the cleared
    /// value buffer to fill.
    pub fn push_attr_named(&mut self, name: &str) -> &mut String {
        self.push_attr(SymbolTable::OVERFLOW);
        let slot = &mut self.attrs[self.attrs_len - 1];
        slot.overflow_name.push_str(name);
        &mut slot.value
    }

    /// The recycled text buffer (character data, comment, PI data, subset).
    pub fn text_mut(&mut self) -> &mut String {
        &mut self.text
    }

    /// The recycled target buffer (PI target, doctype name).
    pub fn target_mut(&mut self) -> &mut String {
        &mut self.target
    }

    pub fn set_has_internal_subset(&mut self, yes: bool) {
        self.has_internal_subset = yes;
    }

    pub fn set_text_synthetic(&mut self, yes: bool) {
        self.text_synthetic = yes;
    }

    /// Converts to the owned, string-named representation (allocates) —
    /// the one owned rendering of the interned event, for tests and tools.
    pub fn to_xml_event(&self, symbols: &SymbolTable) -> XmlEvent {
        match self.kind {
            RawEventKind::StartDocument => XmlEvent::StartDocument,
            RawEventKind::EndDocument => XmlEvent::EndDocument,
            RawEventKind::DoctypeDecl => XmlEvent::DoctypeDecl {
                name: self.target.clone(),
                internal_subset: self.internal_subset().map(str::to_string),
            },
            RawEventKind::StartElement => XmlEvent::StartElement {
                name: self.name_str(symbols).to_string(),
                attributes: self
                    .attributes()
                    .iter()
                    .map(|a| a.to_attribute(symbols))
                    .collect(),
            },
            RawEventKind::EndElement => XmlEvent::EndElement {
                name: self.name_str(symbols).to_string(),
            },
            RawEventKind::Text => XmlEvent::Text(self.text.clone()),
            RawEventKind::Comment => XmlEvent::Comment(self.text.clone()),
            RawEventKind::ProcessingInstruction => XmlEvent::ProcessingInstruction {
                target: self.target.clone(),
                data: self.text.clone(),
            },
        }
    }
}

/// A borrowed view of one attribute: interned name, payloads borrowed
/// from the owning source ([`RawEvent`] buffers or a tape arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrRef<'a> {
    /// Interned attribute name ([`SymbolTable::OVERFLOW`] in the reader's
    /// bounded-interner mode — resolve via [`AttrRef::name_str`]).
    pub name: Symbol,
    /// The literal name when `name` is [`SymbolTable::OVERFLOW`]; empty
    /// otherwise.
    pub overflow_name: &'a str,
    /// The unescaped attribute value.
    pub value: &'a str,
}

impl<'a> AttrRef<'a> {
    /// The attribute name, resolving bounded-interner overflow.
    pub fn name_str(&self, symbols: &'a SymbolTable) -> &'a str {
        if self.name == SymbolTable::OVERFLOW {
            self.overflow_name
        } else {
            symbols.name(self.name)
        }
    }
}

/// Where a [`RawEventRef`]'s attributes live.
#[derive(Debug, Clone, Copy)]
enum AttrsRef<'a> {
    /// The live prefix of a recycled [`RawEvent`]'s attribute buffers.
    Owned(&'a [RawAttr]),
    /// Encoded spans into an event tape's arena (the sharded replay path):
    /// resolving an attribute is span arithmetic, not a copy.
    Tape {
        attrs: &'a [EncAttr],
        arena: &'a str,
        remap: SymbolRemap<'a>,
    },
}

/// Iterator over a view's attributes, literal attributes first, then any
/// defaults a validating layer injected.
#[derive(Debug, Clone)]
pub struct AttrsIter<'a> {
    attrs: AttrsRef<'a>,
    idx: usize,
    defaults: &'a [(Symbol, &'a str)],
    didx: usize,
}

impl<'a> Iterator for AttrsIter<'a> {
    type Item = AttrRef<'a>;

    fn next(&mut self) -> Option<AttrRef<'a>> {
        let literal = match self.attrs {
            AttrsRef::Owned(attrs) => attrs.get(self.idx).map(|a| AttrRef {
                name: a.name,
                overflow_name: &a.overflow_name,
                value: &a.value,
            }),
            AttrsRef::Tape {
                attrs,
                arena,
                remap,
            } => attrs.get(self.idx).map(|a| {
                let name = remap.resolve(a.name);
                // A translation may *introduce* OVERFLOW (bounded merged
                // table); the literal spelling then comes from the remap's
                // name list instead of the tape's overflow span.
                let overflow_name =
                    if name == SymbolTable::OVERFLOW && a.name != SymbolTable::OVERFLOW {
                        remap.literal(a.name).unwrap_or("")
                    } else {
                        &arena[a.overflow.0..a.overflow.1]
                    };
                AttrRef {
                    name,
                    overflow_name,
                    value: &arena[a.value.0..a.value.1],
                }
            }),
        };
        if let Some(attr) = literal {
            self.idx += 1;
            return Some(attr);
        }
        let (name, value) = *self.defaults.get(self.didx)?;
        self.didx += 1;
        Some(AttrRef {
            name,
            overflow_name: "",
            value,
        })
    }
}

/// A borrowed, zero-copy view of one XML event.
///
/// Produced by [`crate::EventSource::view`] after a successful
/// [`crate::EventSource::advance`]; every `&str` borrows the source's own
/// storage and stays valid until the next advance. `Copy`, pointer-sized
/// fields only — passing a view around costs nothing.
///
/// The field-per-kind table of [`RawEvent`] applies unchanged (including
/// the bounded-interner convention that an overflow element's literal name
/// rides in `target`).
#[derive(Debug, Clone, Copy)]
pub struct RawEventRef<'a> {
    kind: RawEventKind,
    name: Symbol,
    text: &'a str,
    target: &'a str,
    has_internal_subset: bool,
    text_synthetic: bool,
    attrs: AttrsRef<'a>,
    /// Attribute defaults injected by a validating layer (XSAX), delivered
    /// after the literal attributes — the event tape and reader never set
    /// this.
    defaults: &'a [(Symbol, &'a str)],
}

impl<'a> RawEventRef<'a> {
    /// Views an owned [`RawEvent`] (payloads borrow its buffers).
    pub fn from_event(ev: &'a RawEvent) -> RawEventRef<'a> {
        RawEventRef {
            kind: ev.kind(),
            name: ev.name(),
            text: ev.text(),
            target: ev.target(),
            has_internal_subset: ev.internal_subset().is_some(),
            text_synthetic: ev.is_text_synthetic(),
            attrs: AttrsRef::Owned(ev.attributes()),
            defaults: &[],
        }
    }

    /// A payload-free event of the given kind (`StartDocument` /
    /// `EndDocument` synthesised by a replay source).
    pub fn bare(kind: RawEventKind) -> RawEventRef<'static> {
        RawEventRef {
            kind,
            name: SymbolTable::TEXT,
            text: "",
            target: "",
            has_internal_subset: false,
            text_synthetic: false,
            attrs: AttrsRef::Owned(&[]),
            defaults: &[],
        }
    }

    /// Crate-internal constructor for the tape replay path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_tape(
        kind: RawEventKind,
        name: Symbol,
        text: &'a str,
        target: &'a str,
        has_internal_subset: bool,
        text_synthetic: bool,
        attrs: &'a [EncAttr],
        arena: &'a str,
        remap: SymbolRemap<'a>,
    ) -> RawEventRef<'a> {
        RawEventRef {
            kind,
            name,
            text,
            target,
            has_internal_subset,
            text_synthetic,
            attrs: AttrsRef::Tape {
                attrs,
                arena,
                remap,
            },
            defaults: &[],
        }
    }

    /// Replaces the text payload (the reader's borrowed-window fast path
    /// for text runs that did not cross a refill boundary).
    pub fn with_text(self, text: &'a str) -> RawEventRef<'a> {
        RawEventRef { text, ..self }
    }

    /// Attaches injected attribute defaults, delivered after the literal
    /// attributes (the XSAX default-injection path).
    pub fn with_defaults(self, defaults: &'a [(Symbol, &'a str)]) -> RawEventRef<'a> {
        RawEventRef { defaults, ..self }
    }

    pub fn kind(&self) -> RawEventKind {
        self.kind
    }

    /// The element name (start/end element events).
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// The element name as text, resolving bounded-interner overflow.
    pub fn name_str(&self, symbols: &'a SymbolTable) -> &'a str {
        if self.name == SymbolTable::OVERFLOW {
            self.target
        } else {
            symbols.name(self.name)
        }
    }

    /// Character data / comment text / PI data / doctype internal subset.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// PI target or doctype name.
    pub fn target(&self) -> &'a str {
        self.target
    }

    /// The doctype internal subset, when one was present.
    pub fn internal_subset(&self) -> Option<&'a str> {
        self.has_internal_subset.then_some(self.text)
    }

    /// True when part of the text payload came from a character/entity
    /// reference or a CDATA section (see [`RawEvent::is_text_synthetic`]).
    pub fn is_text_synthetic(&self) -> bool {
        self.text_synthetic
    }

    /// True for a text event consisting only of XML whitespace.
    pub fn is_whitespace_text(&self) -> bool {
        self.kind == RawEventKind::Text
            && self
                .text
                .bytes()
                .all(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
    }

    /// Attributes of a start-element event: literal attributes first, then
    /// injected defaults. Span resolution only — no copies.
    pub fn attrs(&self) -> AttrsIter<'a> {
        AttrsIter {
            attrs: self.attrs,
            idx: 0,
            defaults: self.defaults,
            didx: 0,
        }
    }

    /// Number of attributes (literal + injected defaults).
    pub fn attr_count(&self) -> usize {
        let literal = match self.attrs {
            AttrsRef::Owned(attrs) => attrs.len(),
            AttrsRef::Tape { attrs, .. } => attrs.len(),
        };
        literal + self.defaults.len()
    }

    /// Materialises the view into a recycled [`RawEvent`] (the copying
    /// compatibility path behind [`crate::EventSource::next_into`]).
    pub fn copy_into(&self, ev: &mut RawEvent) {
        ev.reset(self.kind);
        ev.set_name(self.name);
        ev.text_mut().push_str(self.text);
        ev.target_mut().push_str(self.target);
        ev.set_has_internal_subset(self.has_internal_subset);
        ev.set_text_synthetic(self.text_synthetic);
        for attr in self.attrs() {
            if attr.name == SymbolTable::OVERFLOW {
                ev.push_attr_named(attr.overflow_name).push_str(attr.value);
            } else {
                ev.push_attr(attr.name).push_str(attr.value);
            }
        }
    }

    /// Converts to the owned, string-named representation (allocates).
    pub fn to_xml_event(&self, symbols: &SymbolTable) -> XmlEvent {
        match self.kind {
            RawEventKind::StartDocument => XmlEvent::StartDocument,
            RawEventKind::EndDocument => XmlEvent::EndDocument,
            RawEventKind::DoctypeDecl => XmlEvent::DoctypeDecl {
                name: self.target.to_string(),
                internal_subset: self.internal_subset().map(str::to_string),
            },
            RawEventKind::StartElement => XmlEvent::StartElement {
                name: self.name_str(symbols).to_string(),
                attributes: self
                    .attrs()
                    .map(|a| Attribute::new(a.name_str(symbols), a.value))
                    .collect(),
            },
            RawEventKind::EndElement => XmlEvent::EndElement {
                name: self.name_str(symbols).to_string(),
            },
            RawEventKind::Text => XmlEvent::Text(self.text.to_string()),
            RawEventKind::Comment => XmlEvent::Comment(self.text.to_string()),
            RawEventKind::ProcessingInstruction => XmlEvent::ProcessingInstruction {
                target: self.target.to_string(),
                data: self.text.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_detection() {
        assert!(XmlEvent::Text("  \t\r\n".into()).is_whitespace_text());
        assert!(!XmlEvent::Text("  x ".into()).is_whitespace_text());
        assert!(!XmlEvent::StartDocument.is_whitespace_text());
        assert!(XmlEvent::Text(String::new()).is_whitespace_text());
    }

    #[test]
    fn element_name_access() {
        let start = XmlEvent::StartElement {
            name: "book".into(),
            attributes: vec![],
        };
        assert_eq!(start.element_name(), Some("book"));
        let end = XmlEvent::EndElement {
            name: "book".into(),
        };
        assert_eq!(end.element_name(), Some("book"));
        assert_eq!(XmlEvent::Text("x".into()).element_name(), None);
    }

    #[test]
    fn display_start_element() {
        let e = XmlEvent::StartElement {
            name: "a".into(),
            attributes: vec![Attribute::new("k", "v")],
        };
        assert_eq!(e.to_string(), "<a k=\"v\">");
    }

    #[test]
    fn raw_event_recycles_attr_buffers() {
        let mut symbols = SymbolTable::new();
        let a = symbols.intern("a");
        let k = symbols.intern("k");
        let mut ev = RawEvent::new();
        ev.reset(RawEventKind::StartElement);
        ev.set_name(a);
        ev.push_attr(k).push_str("a long attribute value");
        assert_eq!(ev.attributes().len(), 1);
        let cap = ev.attributes()[0].value.capacity();
        // Reset keeps the spare value buffer; the next push reuses it.
        ev.reset(RawEventKind::StartElement);
        assert!(ev.attributes().is_empty());
        ev.push_attr(k).push_str("short");
        assert_eq!(ev.attributes()[0].value, "short");
        assert_eq!(ev.attributes()[0].value.capacity(), cap);
    }

    #[test]
    fn raw_to_xml_event_round_trip() {
        let mut symbols = SymbolTable::new();
        let book = symbols.intern("book");
        let year = symbols.intern("year");
        let mut ev = RawEvent::new();
        ev.reset(RawEventKind::StartElement);
        ev.set_name(book);
        ev.push_attr(year).push_str("1994");
        assert_eq!(
            ev.to_xml_event(&symbols),
            XmlEvent::StartElement {
                name: "book".into(),
                attributes: vec![Attribute::new("year", "1994")],
            }
        );
        ev.reset(RawEventKind::Text);
        ev.text_mut().push_str("hi");
        assert!(!ev.is_whitespace_text());
        assert_eq!(ev.to_xml_event(&symbols), XmlEvent::Text("hi".into()));
    }
}
