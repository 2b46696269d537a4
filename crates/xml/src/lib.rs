//! # flux-xml
//!
//! Streaming XML infrastructure for the FluXQuery engine: a from-scratch
//! pull parser ([`XmlReader`]), a streaming serialiser ([`XmlWriter`]), the
//! shared SAX-style event model ([`XmlEvent`]), entity escaping, and a
//! memory-accounted arena document tree ([`Document`]).
//!
//! The reader never materialises the document; its memory use is bounded by
//! the largest single token plus one interner entry per distinct name —
//! schema-sized on validated streams. That property is load-bearing for the
//! paper's claims: FluXQuery's buffer consumption is determined by the
//! query and the DTD, not by the document size, and the parsing layer must
//! not undermine that.
//!
//! The hot path is the **interned event core**: [`XmlReader::next_into`]
//! rewrites one caller-owned [`RawEvent`] in place, with element and
//! attribute names as [`Symbol`]s from the reader's [`SymbolTable`]
//! (seedable from a schema via [`XmlReader::with_symbols`]) and recycled
//! text/value buffers — zero heap allocations per event in the steady
//! state. The owned [`XmlEvent`] API remains as a convenience wrapper.

pub mod error;
pub mod escape;
pub mod event;
pub mod input;
pub mod reader;
pub mod recycle;
pub mod scan;
mod scanner;
pub mod simd;
pub mod source;
pub mod tape;
pub mod tree;
pub mod writer;

pub use error::{Position, Result, XmlError};
pub use event::{
    AttrRef, Attribute, AttrsIter, RawAttr, RawEvent, RawEventKind, RawEventRef, XmlEvent,
};
pub use flux_symbols::{Symbol, SymbolTable};
pub use input::{
    BudgetCharge, BudgetExceeded, BudgetKind, GzipMode, Input, MemoryBudget, ResolvedInput,
    DEFAULT_WINDOW,
};
pub use reader::{is_name_start, parse_to_events, ReaderConfig, ReaderParts, XmlReader};
pub use simd::{active_isa_name, StructuralIndex};
pub use source::EventSource;
pub use tape::{EventTape, SymbolRemap};
pub use tree::{Document, NodeAttr, NodeId, NodeKind, TextGate, TreeBuilder};
pub use writer::{events_to_string, WriterConfig, WriterParts, XmlWriter};
