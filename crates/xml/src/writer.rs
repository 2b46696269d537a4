//! Serialisation of XML events back to a byte stream.
//!
//! [`XmlWriter`] is the output side of the streamed query evaluator: result
//! events are written as soon as they are produced, so the output is itself
//! a stream.

use crate::error::{Result, XmlError};
use crate::escape::{escape_attr_into, escape_text_into};
use crate::event::{Attribute, RawAttr, RawEvent, RawEventKind, RawEventRef, XmlEvent};
use crate::tree::{Document, NodeId, NodeKind};
use flux_symbols::{Symbol, SymbolTable};
use std::io::Write;

/// Configuration for [`XmlWriter`].
#[derive(Debug, Clone, Default)]
pub struct WriterConfig {
    /// Pretty-print with two-space indentation. Only safe for data-oriented
    /// documents (it inserts whitespace between elements).
    pub indent: bool,
    /// Write an `<?xml version="1.0" encoding="UTF-8"?>` declaration first.
    pub xml_declaration: bool,
}

/// Streaming XML serialiser with well-formedness checking.
pub struct XmlWriter<W: Write> {
    sink: W,
    config: WriterConfig,
    stack: Vec<String>,
    /// Name buffers recycled from closed elements, so the steady-state
    /// output loop does not allocate per start tag.
    spare_names: Vec<String>,
    /// Whether anything was written inside the current element (affects
    /// indentation only).
    had_child: Vec<bool>,
    /// Bytes written so far.
    bytes_written: u64,
    scratch: String,
    wrote_declaration: bool,
}

/// The storage an [`XmlWriter`] recycles across outputs: the open-element
/// stack's name buffers, the indentation flags and the escape scratch.
/// Default parts build a fresh writer.
#[derive(Default)]
pub struct WriterParts {
    stack: Vec<String>,
    spare_names: Vec<String>,
    had_child: Vec<bool>,
    scratch: String,
}

impl<W: Write> XmlWriter<W> {
    pub fn new(sink: W) -> Self {
        Self::with_config(sink, WriterConfig::default())
    }

    pub fn with_config(sink: W, config: WriterConfig) -> Self {
        Self::from_parts(sink, config, WriterParts::default())
    }

    /// Creates a writer over recycled `parts` (see [`WriterParts`]).
    pub fn from_parts(sink: W, config: WriterConfig, parts: WriterParts) -> Self {
        let WriterParts {
            stack,
            spare_names,
            had_child,
            scratch,
        } = parts;
        XmlWriter {
            sink,
            config,
            stack,
            spare_names,
            had_child,
            bytes_written: 0,
            scratch,
            wrote_declaration: false,
        }
    }

    /// Releases the sink and returns the writer's storage for the next
    /// output, emptied, with anything past `max_bytes` released (see
    /// [`crate::recycle`]).
    pub fn into_parts(self, max_bytes: usize) -> (W, WriterParts) {
        let XmlWriter {
            sink,
            mut stack,
            mut spare_names,
            mut had_child,
            mut scratch,
            ..
        } = self;
        spare_names.append(&mut stack);
        crate::recycle::trim_pool(&mut spare_names, max_bytes);
        crate::recycle::reuse(&mut stack, max_bytes);
        crate::recycle::reuse(&mut had_child, max_bytes);
        crate::recycle::reuse(&mut scratch, max_bytes);
        (
            sink,
            WriterParts {
                stack,
                spare_names,
                had_child,
                scratch,
            },
        )
    }

    /// Number of bytes written so far (after escaping).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Consumes the writer, returning the underlying sink.
    pub fn into_inner(self) -> W {
        self.sink
    }

    fn raw(&mut self, s: &str) -> Result<()> {
        self.sink.write_all(s.as_bytes())?;
        self.bytes_written += s.len() as u64;
        Ok(())
    }

    fn newline_indent(&mut self) -> Result<()> {
        if self.config.indent && (!self.stack.is_empty() || self.bytes_written > 0) {
            let depth = self.stack.len();
            self.raw("\n")?;
            for _ in 0..depth {
                self.raw("  ")?;
            }
        }
        Ok(())
    }

    fn maybe_declaration(&mut self) -> Result<()> {
        if self.config.xml_declaration && !self.wrote_declaration {
            self.raw("<?xml version=\"1.0\" encoding=\"UTF-8\"?>")?;
            if self.config.indent {
                self.raw("\n")?;
            }
            self.wrote_declaration = true;
        }
        Ok(())
    }

    /// Opens a start tag (everything up to the attributes) and pushes the
    /// element name onto the open stack, recycling a spare name buffer.
    fn open_tag(&mut self, name: &str) -> Result<()> {
        self.maybe_declaration()?;
        if let Some(flag) = self.had_child.last_mut() {
            *flag = true;
        }
        self.newline_indent()?;
        self.raw("<")?;
        self.raw(name)?;
        let mut owned = self.spare_names.pop().unwrap_or_default();
        owned.clear();
        owned.push_str(name);
        self.stack.push(owned);
        Ok(())
    }

    /// Writes one escaped attribute.
    fn write_attr(&mut self, name: &str, value: &str) -> Result<()> {
        self.raw(" ")?;
        self.raw(name)?;
        self.raw("=\"")?;
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        escape_attr_into(value, &mut scratch);
        let res = self.raw(&scratch);
        scratch.clear();
        self.scratch = scratch;
        res?;
        self.raw("\"")
    }

    /// Writes a start tag.
    pub fn start_element(&mut self, name: &str, attributes: &[Attribute]) -> Result<()> {
        self.open_tag(name)?;
        for attr in attributes {
            self.write_attr(&attr.name, &attr.value)?;
        }
        self.raw(">")?;
        self.had_child.push(false);
        Ok(())
    }

    /// Writes a start tag from interned-symbol parts, mapping names back
    /// through the shared `symbols` table. The steady-state cost is the
    /// same as [`XmlWriter::start_element`] minus all name allocations.
    ///
    /// The element `name` must be a real table symbol: a bounded-interner
    /// [`SymbolTable::OVERFLOW`] element carries its literal name in the
    /// event's target buffer, which this signature cannot see — write such
    /// events through [`XmlWriter::write_raw_event`] instead (overflow
    /// *attributes* are fine; they carry their own name).
    pub fn start_element_raw(
        &mut self,
        symbols: &SymbolTable,
        name: Symbol,
        attributes: &[RawAttr],
    ) -> Result<()> {
        if name == SymbolTable::OVERFLOW {
            return Err(XmlError::WriterMisuse {
                message: "start_element_raw cannot resolve an overflow element name; \
                          use write_raw_event for bounded-interner events"
                    .to_string(),
            });
        }
        self.start_tag_raw(symbols.name(name), symbols, attributes)
    }

    /// Shared start-tag emission for the raw paths: resolved name string,
    /// overflow-aware attribute names.
    fn start_tag_raw(
        &mut self,
        name: &str,
        symbols: &SymbolTable,
        attributes: &[RawAttr],
    ) -> Result<()> {
        self.open_tag(name)?;
        for attr in attributes {
            self.write_attr(attr.name_str(symbols), &attr.value)?;
        }
        self.raw(">")?;
        self.had_child.push(false);
        Ok(())
    }

    /// Writes the start tag of a borrowed event view — the zero-copy
    /// output path: names resolve through `symbols`, attribute payloads
    /// stream straight from the view's backing storage into the sink.
    pub fn start_element_view(
        &mut self,
        symbols: &SymbolTable,
        ev: &RawEventRef<'_>,
    ) -> Result<()> {
        self.open_tag(ev.name_str(symbols))?;
        for attr in ev.attrs() {
            self.write_attr(attr.name_str(symbols), attr.value)?;
        }
        self.raw(">")?;
        self.had_child.push(false);
        Ok(())
    }

    /// Writes the start tag of a buffered element node — the symbol fast
    /// path for serialising tree nodes: the element and attribute names
    /// resolve through the document's own table and stream straight into
    /// the sink, so copying a buffered subtree out allocates nothing.
    pub fn start_element_node(&mut self, doc: &Document, id: NodeId) -> Result<()> {
        let NodeKind::Element { name, attributes } = doc.kind(id) else {
            return Err(XmlError::WriterMisuse {
                message: "start_element_node requires an element node".to_string(),
            });
        };
        self.open_tag(doc.symbols().name(*name))?;
        for attr in attributes {
            self.write_attr(doc.symbols().name(attr.name), &attr.value)?;
        }
        self.raw(">")?;
        self.had_child.push(false);
        Ok(())
    }

    /// Writes one borrowed event view, mapping symbols back through
    /// `symbols`. `StartDocument`/`EndDocument`/doctype events are
    /// accepted and ignored so a view stream can be piped through
    /// unchanged.
    pub fn write_event_ref(&mut self, symbols: &SymbolTable, ev: &RawEventRef<'_>) -> Result<()> {
        match ev.kind() {
            RawEventKind::StartDocument | RawEventKind::EndDocument | RawEventKind::DoctypeDecl => {
                Ok(())
            }
            RawEventKind::StartElement => self.start_element_view(symbols, ev),
            RawEventKind::EndElement => self.end_element(),
            RawEventKind::Text => self.text(ev.text()),
            RawEventKind::Comment => self.comment(ev.text()),
            RawEventKind::ProcessingInstruction => {
                self.processing_instruction(ev.target(), ev.text())
            }
        }
    }

    /// Writes an end tag for the innermost open element.
    pub fn end_element(&mut self) -> Result<()> {
        let name = self.stack.pop().ok_or_else(|| XmlError::WriterMisuse {
            message: "end_element with no open element".to_string(),
        })?;
        let had_child = self.had_child.pop().unwrap_or(false);
        if had_child {
            self.newline_indent()?;
        }
        self.raw("</")?;
        self.raw(&name)?;
        self.raw(">")?;
        self.spare_names.push(name);
        Ok(())
    }

    /// Writes character data (escaped).
    pub fn text(&mut self, text: &str) -> Result<()> {
        if text.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        escape_text_into(text, &mut scratch);
        let res = self.raw(&scratch);
        scratch.clear();
        self.scratch = scratch;
        res
    }

    /// Writes a comment.
    pub fn comment(&mut self, text: &str) -> Result<()> {
        if text.contains("--") {
            return Err(XmlError::WriterMisuse {
                message: "`--` is not allowed inside comments".to_string(),
            });
        }
        self.raw("<!--")?;
        self.raw(text)?;
        self.raw("-->")
    }

    /// Writes a processing instruction (shared by both event paths).
    fn processing_instruction(&mut self, target: &str, data: &str) -> Result<()> {
        self.raw("<?")?;
        self.raw(target)?;
        if !data.is_empty() {
            self.raw(" ")?;
            self.raw(data)?;
        }
        self.raw("?>")
    }

    /// Writes one event. `StartDocument`/`EndDocument` are accepted and
    /// ignored so an event stream can be piped through unchanged.
    pub fn write_event(&mut self, event: &XmlEvent) -> Result<()> {
        match event {
            XmlEvent::StartDocument | XmlEvent::EndDocument | XmlEvent::DoctypeDecl { .. } => {
                Ok(())
            }
            XmlEvent::StartElement { name, attributes } => self.start_element(name, attributes),
            XmlEvent::EndElement { .. } => self.end_element(),
            XmlEvent::Text(t) => self.text(t),
            XmlEvent::Comment(c) => self.comment(c),
            XmlEvent::ProcessingInstruction { target, data } => {
                self.processing_instruction(target, data)
            }
        }
    }

    /// Writes one raw (interned) event, mapping symbols back through
    /// `symbols`. `StartDocument`/`EndDocument`/doctype events are accepted
    /// and ignored so a raw event stream can be piped through unchanged.
    pub fn write_raw_event(&mut self, symbols: &SymbolTable, event: &RawEvent) -> Result<()> {
        match event.kind() {
            RawEventKind::StartDocument | RawEventKind::EndDocument | RawEventKind::DoctypeDecl => {
                Ok(())
            }
            RawEventKind::StartElement => {
                // Resolve names through the overflow-aware accessors so
                // bounded-interner streams serialise correctly.
                self.start_tag_raw(event.name_str(symbols), symbols, event.attributes())
            }
            RawEventKind::EndElement => self.end_element(),
            RawEventKind::Text => self.text(event.text()),
            RawEventKind::Comment => self.comment(event.text()),
            RawEventKind::ProcessingInstruction => {
                self.processing_instruction(event.target(), event.text())
            }
        }
    }

    /// Checks that all elements are closed and flushes the sink.
    pub fn finish(&mut self) -> Result<()> {
        if !self.stack.is_empty() {
            return Err(XmlError::WriterMisuse {
                message: format!("{} element(s) still open at finish", self.stack.len()),
            });
        }
        self.sink.flush()?;
        Ok(())
    }
}

/// Serialises a list of events to a string (tests and small outputs).
pub fn events_to_string(events: &[XmlEvent]) -> Result<String> {
    let mut writer = XmlWriter::new(Vec::new());
    for ev in events {
        writer.write_event(ev)?;
    }
    writer.finish()?;
    let bytes = writer.into_inner();
    String::from_utf8(bytes).map_err(|_| XmlError::WriterMisuse {
        message: "writer produced invalid UTF-8".to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::parse_to_events;

    #[test]
    fn simple_output() {
        let mut w = XmlWriter::new(Vec::new());
        w.start_element("a", &[Attribute::new("k", "v")]).unwrap();
        w.text("x < y").unwrap();
        w.end_element().unwrap();
        w.finish().unwrap();
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(out, r#"<a k="v">x &lt; y</a>"#);
    }

    #[test]
    fn attribute_escaping() {
        let mut w = XmlWriter::new(Vec::new());
        w.start_element("a", &[Attribute::new("k", "say \"hi\" & <go>")])
            .unwrap();
        w.end_element().unwrap();
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(out, r#"<a k="say &quot;hi&quot; &amp; &lt;go>"></a>"#);
    }

    #[test]
    fn unbalanced_end_rejected() {
        let mut w = XmlWriter::new(Vec::new());
        assert!(w.end_element().is_err());
    }

    #[test]
    fn unclosed_at_finish_rejected() {
        let mut w = XmlWriter::new(Vec::new());
        w.start_element("a", &[]).unwrap();
        assert!(w.finish().is_err());
    }

    #[test]
    fn bytes_written_counts_escapes() {
        let mut w = XmlWriter::new(Vec::new());
        w.start_element("a", &[]).unwrap();
        w.text("&").unwrap();
        w.end_element().unwrap();
        // <a>&amp;</a> = 12 bytes
        assert_eq!(w.bytes_written(), 12);
    }

    #[test]
    fn round_trip_through_reader() {
        let original = r#"<bib><book year="1994"><title>TCP/IP &amp; co</title><author>Stevens</author></book></bib>"#;
        let events = parse_to_events(original).unwrap();
        let written = events_to_string(&events).unwrap();
        assert_eq!(written, original);
        // And a second round trip is a fixpoint.
        let events2 = parse_to_events(&written).unwrap();
        assert_eq!(events, events2);
    }

    #[test]
    fn indentation() {
        let mut w = XmlWriter::with_config(
            Vec::new(),
            WriterConfig {
                indent: true,
                xml_declaration: false,
            },
        );
        w.start_element("a", &[]).unwrap();
        w.start_element("b", &[]).unwrap();
        w.end_element().unwrap();
        w.end_element().unwrap();
        w.finish().unwrap();
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(out, "<a>\n  <b></b>\n</a>");
    }

    #[test]
    fn xml_declaration_written_once() {
        let mut w = XmlWriter::with_config(
            Vec::new(),
            WriterConfig {
                indent: false,
                xml_declaration: true,
            },
        );
        w.start_element("a", &[]).unwrap();
        w.end_element().unwrap();
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(out, "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a></a>");
    }

    #[test]
    fn comment_with_double_dash_rejected() {
        let mut w = XmlWriter::new(Vec::new());
        assert!(w.comment("a--b").is_err());
    }

    #[test]
    fn event_pipe_through() {
        let input = r#"<r><x a="1">t</x><y/></r>"#;
        let events = parse_to_events(input).unwrap();
        let out = events_to_string(&events).unwrap();
        assert_eq!(out, r#"<r><x a="1">t</x><y></y></r>"#);
    }
}
