//! The [`Dtd`] type: parsed schema plus per-element automata and the
//! constraint query API used by the optimizer, the scheduler and XSAX.

use crate::content_model::{AttDef, ContentSpec, Particle};
use crate::dfa::{is_one_unambiguous, Dfa};
use crate::error::{DtdError, Result};
use crate::glushkov::glushkov;
use crate::parser::DtdParser;
use flux_symbols::{Symbol, SymbolTable};
use std::collections::BTreeMap;

/// A declared element type with its compiled child-sequence automaton.
#[derive(Debug, Clone)]
pub struct ElementDecl {
    pub name: Symbol,
    pub spec: ContentSpec,
    /// DFA over the permitted child-element sequences.
    pub dfa: Dfa,
    /// Whether non-whitespace character data may occur among the children.
    pub text_allowed: bool,
    /// Whether the content model is 1-unambiguous as the XML spec requires.
    pub deterministic: bool,
    pub attlist: Vec<AttDef>,
}

/// A parsed and compiled DTD.
#[derive(Debug, Clone)]
pub struct Dtd {
    symbols: SymbolTable,
    elements: BTreeMap<Symbol, ElementDecl>,
    root: Option<Symbol>,
    /// DFA for the virtual document node: exactly one root element.
    document_dfa: Option<Dfa>,
    entities: BTreeMap<String, String>,
}

impl Dtd {
    /// Parses DTD text (a standalone file or an internal subset) and infers
    /// the root element: the unique declared element that appears in no
    /// other element's content model. Use [`Dtd::parse_with_root`] when the
    /// root is ambiguous.
    pub fn parse(input: &str) -> Result<Dtd> {
        Self::build(input, None)
    }

    /// Parses DTD text with an explicitly named root element (as given by a
    /// DOCTYPE declaration).
    pub fn parse_with_root(input: &str, root: &str) -> Result<Dtd> {
        Self::build(input, Some(root))
    }

    fn build(input: &str, root_name: Option<&str>) -> Result<Dtd> {
        let mut symbols = SymbolTable::new();
        let parsed = DtdParser::new(input, &mut symbols).parse()?;
        if parsed.elements.is_empty() {
            return Err(DtdError::new("DTD declares no elements"));
        }

        // Intern all declared names first so `ANY` can expand over them.
        let mut declared: Vec<Symbol> = Vec::new();
        for decl in &parsed.elements {
            let sym = symbols.intern(&decl.name);
            if declared.contains(&sym) {
                return Err(DtdError::new(format!(
                    "element `{}` declared twice",
                    decl.name
                )));
            }
            declared.push(sym);
        }

        let mut elements = BTreeMap::new();
        for decl in &parsed.elements {
            let sym = symbols.lookup(&decl.name).expect("interned above");
            let particle = decl.spec.to_particle(&declared);
            let g = glushkov(&particle);
            let deterministic = is_one_unambiguous(&g);
            let dfa = Dfa::from_glushkov(&g);
            elements.insert(
                sym,
                ElementDecl {
                    name: sym,
                    spec: decl.spec.clone(),
                    dfa,
                    text_allowed: decl.spec.allows_text(),
                    deterministic,
                    attlist: Vec::new(),
                },
            );
        }

        for attlist in &parsed.attlists {
            let sym = symbols
                .lookup(&attlist.element)
                .filter(|s| elements.contains_key(s))
                .ok_or_else(|| {
                    DtdError::new(format!(
                        "ATTLIST for undeclared element `{}`",
                        attlist.element
                    ))
                })?;
            let decl = elements.get_mut(&sym).expect("checked above");
            for att in &attlist.attributes {
                // Later declarations of the same attribute are ignored, as
                // the XML spec prescribes.
                if !decl.attlist.iter().any(|a| a.name == att.name) {
                    decl.attlist.push(att.clone());
                }
            }
        }

        let root = match root_name {
            Some(name) => {
                let sym = symbols
                    .lookup(name)
                    .filter(|s| elements.contains_key(s))
                    .ok_or_else(|| {
                        DtdError::new(format!("root element `{name}` is not declared"))
                    })?;
                Some(sym)
            }
            None => Self::infer_root(&elements, &declared),
        };

        let document_dfa = root.map(|r| Dfa::from_glushkov(&glushkov(&Particle::Name(r))));

        Ok(Dtd {
            symbols,
            elements,
            root,
            document_dfa,
            entities: parsed.entities.into_iter().collect(),
        })
    }

    /// The unique element that no content model mentions, if it exists.
    fn infer_root(elements: &BTreeMap<Symbol, ElementDecl>, declared: &[Symbol]) -> Option<Symbol> {
        let mut mentioned: Vec<Symbol> = Vec::new();
        for decl in elements.values() {
            match &decl.spec {
                ContentSpec::Children(p) | ContentSpec::MixedChildren(p) => {
                    p.symbols(&mut mentioned)
                }
                ContentSpec::Mixed(syms) => mentioned.extend(syms.iter().copied()),
                ContentSpec::Empty | ContentSpec::Any => {}
            }
        }
        let mut candidates = declared.iter().copied().filter(|s| !mentioned.contains(s));
        let first = candidates.next()?;
        if candidates.next().is_some() {
            None
        } else {
            Some(first)
        }
    }

    /// The symbol table (element names ↔ symbols).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Looks up the symbol for an element name, if the DTD mentions it.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.symbols.lookup(name)
    }

    /// The name behind a symbol.
    pub fn name(&self, sym: Symbol) -> &str {
        self.symbols.name(sym)
    }

    /// The inferred or declared root element.
    pub fn root(&self) -> Option<Symbol> {
        self.root
    }

    /// The declaration of an element type.
    pub fn element(&self, sym: Symbol) -> Option<&ElementDecl> {
        self.elements.get(&sym)
    }

    /// All declared element types, in symbol order.
    pub fn elements(&self) -> impl Iterator<Item = &ElementDecl> {
        self.elements.values()
    }

    /// General entities declared in the DTD.
    pub fn entity(&self, name: &str) -> Option<&str> {
        self.entities.get(name).map(String::as_str)
    }

    /// The child-sequence DFA of `parent`. [`SymbolTable::DOCUMENT`] yields
    /// the virtual document model (exactly one root element).
    pub fn content_dfa(&self, parent: Symbol) -> Option<&Dfa> {
        if parent == SymbolTable::DOCUMENT {
            self.document_dfa.as_ref()
        } else {
            self.elements.get(&parent).map(|e| &e.dfa)
        }
    }

    /// Whether non-whitespace text may occur directly below `parent`.
    pub fn text_allowed(&self, parent: Symbol) -> bool {
        if parent == SymbolTable::DOCUMENT {
            return false;
        }
        self.elements.get(&parent).is_some_and(|e| e.text_allowed)
    }

    // ----- constraint queries (all relative to a parent element type) -----
    //
    // Unknown parents yield the *weakest* answer (`false`): with no schema
    // information, no optimization applies — queries on undeclared elements
    // simply fall back to full buffering.

    /// Cardinality constraint `child ∈ ||≤1 parent`.
    pub fn at_most_one(&self, parent: Symbol, child: Symbol) -> bool {
        self.content_dfa(parent)
            .is_some_and(|d| d.at_most_one(child))
    }

    /// Every valid `parent` has at least one `child`.
    pub fn at_least_one(&self, parent: Symbol, child: Symbol) -> bool {
        self.content_dfa(parent)
            .is_some_and(|d| d.at_least_one(child))
    }

    /// Every valid `parent` has exactly one `child`.
    pub fn exactly_one(&self, parent: Symbol, child: Symbol) -> bool {
        self.content_dfa(parent)
            .is_some_and(|d| d.exactly_one(child))
    }

    /// No valid `parent` has an `a` child.
    pub fn never_occurs(&self, parent: Symbol, a: Symbol) -> bool {
        self.content_dfa(parent).is_some_and(|d| d.never_occurs(a))
    }

    /// Order constraint: under `parent`, every `a` child precedes every `b`
    /// child. For `a == b` this is the at-most-one cardinality constraint.
    ///
    /// Text is handled conservatively: if `parent` allows text, [`SymbolTable::TEXT`]
    /// can appear anywhere, so no order constraint involving text holds; if
    /// it does not, text never occurs and every constraint involving it
    /// holds vacuously.
    pub fn all_before(&self, parent: Symbol, a: Symbol, b: Symbol) -> bool {
        let text = SymbolTable::TEXT;
        if a == text || b == text {
            return !self.text_allowed(parent);
        }
        self.content_dfa(parent).is_some_and(|d| d.all_before(a, b))
    }

    /// Language constraint: no valid `parent` has both an `a` and a `b`
    /// child (the paper's author/editor example).
    pub fn never_together(&self, parent: Symbol, a: Symbol, b: Symbol) -> bool {
        if a == b {
            return false;
        }
        let text = SymbolTable::TEXT;
        if a == text || b == text {
            return false;
        }
        self.content_dfa(parent)
            .is_some_and(|d| d.never_together(a, b))
    }

    /// Renders the DTD back to declaration syntax (for `explain` output).
    pub fn to_dtd_string(&self) -> String {
        let mut out = String::new();
        for decl in self.elements.values() {
            out.push_str("<!ELEMENT ");
            out.push_str(self.symbols.name(decl.name));
            out.push(' ');
            match &decl.spec {
                ContentSpec::Empty => out.push_str("EMPTY"),
                ContentSpec::Any => out.push_str("ANY"),
                ContentSpec::Mixed(names) => {
                    out.push_str("(#PCDATA");
                    for &n in names {
                        out.push_str(" | ");
                        out.push_str(self.symbols.name(n));
                    }
                    out.push(')');
                    if !names.is_empty() {
                        out.push('*');
                    }
                }
                ContentSpec::Children(p) | ContentSpec::MixedChildren(p) => {
                    let rendered = p.display(&self.symbols).to_string();
                    if rendered.starts_with('(') {
                        out.push_str(&rendered);
                    } else {
                        out.push('(');
                        out.push_str(&rendered);
                        out.push(')');
                    }
                }
            }
            out.push_str(">\n");
        }
        out
    }

    /// Marks an element as allowing interleaved character data (used by the
    /// XML Schema frontend for `mixed="true"` complex types, which DTD
    /// declaration syntax cannot express).
    pub fn allow_text(&mut self, name: &str) {
        if let Some(sym) = self.symbols.lookup(name) {
            if let Some(decl) = self.elements.get_mut(&sym) {
                decl.text_allowed = true;
                if let ContentSpec::Children(p) = decl.spec.clone() {
                    decl.spec = ContentSpec::MixedChildren(p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The weak DTD from Section 2 of the paper.
    pub const WEAK: &str = "<!ELEMENT bib (book)*>\n<!ELEMENT book (title|author)*>\n<!ELEMENT title (#PCDATA)>\n<!ELEMENT author (#PCDATA)>";

    /// The strong DTD of Figure 1.
    pub const FIG1: &str = "<!ELEMENT bib (book)*>\n<!ELEMENT book (title,(author+|editor+),publisher,price)>\n<!ELEMENT title (#PCDATA)>\n<!ELEMENT author (#PCDATA)>\n<!ELEMENT editor (#PCDATA)>\n<!ELEMENT publisher (#PCDATA)>\n<!ELEMENT price (#PCDATA)>";

    #[test]
    fn root_inference() {
        let dtd = Dtd::parse(WEAK).unwrap();
        assert_eq!(dtd.name(dtd.root().unwrap()), "bib");
    }

    #[test]
    fn explicit_root() {
        let dtd = Dtd::parse_with_root(WEAK, "book").unwrap();
        assert_eq!(dtd.name(dtd.root().unwrap()), "book");
    }

    #[test]
    fn undeclared_root_rejected() {
        assert!(Dtd::parse_with_root(WEAK, "nope").is_err());
    }

    #[test]
    fn ambiguous_root_is_none() {
        let dtd = Dtd::parse("<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>").unwrap();
        assert_eq!(dtd.root(), None);
    }

    #[test]
    fn duplicate_element_rejected() {
        assert!(Dtd::parse("<!ELEMENT a EMPTY><!ELEMENT a ANY>").is_err());
    }

    #[test]
    fn fig1_constraints_via_dtd_api() {
        let dtd = Dtd::parse(FIG1).unwrap();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let author = dtd.lookup("author").unwrap();
        let editor = dtd.lookup("editor").unwrap();
        let publisher = dtd.lookup("publisher").unwrap();

        assert!(
            dtd.at_most_one(book, publisher),
            "paper: publisher ∈ ||≤1 book"
        );
        assert!(
            dtd.all_before(book, title, author),
            "paper: titles precede authors"
        );
        assert!(
            dtd.never_together(book, author, editor),
            "paper: author xor editor"
        );
        assert!(dtd.exactly_one(book, title));
        assert!(!dtd.at_most_one(book, author));
    }

    #[test]
    fn weak_dtd_offers_nothing() {
        let dtd = Dtd::parse(WEAK).unwrap();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let author = dtd.lookup("author").unwrap();
        assert!(!dtd.all_before(book, title, author));
        assert!(!dtd.at_most_one(book, title));
        assert!(!dtd.never_together(book, title, author));
    }

    #[test]
    fn document_level_constraints() {
        let dtd = Dtd::parse(WEAK).unwrap();
        let bib = dtd.lookup("bib").unwrap();
        let doc = SymbolTable::DOCUMENT;
        assert!(dtd.exactly_one(doc, bib));
        assert!(dtd.at_most_one(doc, bib));
        assert!(!dtd.text_allowed(doc));
    }

    #[test]
    fn text_order_constraints() {
        let dtd = Dtd::parse(FIG1).unwrap();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let text = SymbolTable::TEXT;
        // book has element content: text never occurs, constraints vacuous.
        assert!(dtd.all_before(book, text, title));
        assert!(dtd.all_before(book, title, text));
        // title is #PCDATA: text can always occur, no order constraint.
        let title_sym = title;
        assert!(!dtd.all_before(title_sym, text, text));
    }

    #[test]
    fn unknown_parent_is_weakest() {
        let dtd = Dtd::parse(WEAK).unwrap();
        let bogus = SymbolTable::TEXT; // not an element
        let title = dtd.lookup("title").unwrap();
        assert!(!dtd.at_most_one(bogus, title));
        assert!(!dtd.all_before(bogus, title, title));
    }

    #[test]
    fn attlist_merged_into_decl() {
        let dtd = Dtd::parse(
            "<!ELEMENT book (#PCDATA)>\n<!ATTLIST book year CDATA #REQUIRED>\n<!ATTLIST book year CDATA #IMPLIED lang CDATA #IMPLIED>",
        )
        .unwrap();
        let book = dtd.lookup("book").unwrap();
        let decl = dtd.element(book).unwrap();
        assert_eq!(
            decl.attlist.len(),
            2,
            "duplicate `year` ignored, `lang` added"
        );
        assert_eq!(decl.attlist[0].name, "year");
        assert_eq!(
            decl.attlist[0].default,
            crate::content_model::AttDefault::Required,
            "first declaration wins"
        );
    }

    #[test]
    fn attlist_for_unknown_element_rejected() {
        assert!(Dtd::parse("<!ELEMENT a EMPTY>\n<!ATTLIST b x CDATA #IMPLIED>").is_err());
    }

    #[test]
    fn entities_queryable() {
        let dtd = Dtd::parse("<!ELEMENT a EMPTY>\n<!ENTITY co \"ACME\">").unwrap();
        assert_eq!(dtd.entity("co"), Some("ACME"));
        assert_eq!(dtd.entity("nope"), None);
    }

    #[test]
    fn round_trip_rendering() {
        let dtd = Dtd::parse(FIG1).unwrap();
        let rendered = dtd.to_dtd_string();
        let dtd2 = Dtd::parse(&rendered).unwrap();
        assert_eq!(
            dtd.root().map(|r| dtd.name(r).to_string()),
            dtd2.root().map(|r| dtd2.name(r).to_string())
        );
        // Constraint set survives the round trip.
        let book = dtd2.lookup("book").unwrap();
        let author = dtd2.lookup("author").unwrap();
        let editor = dtd2.lookup("editor").unwrap();
        assert!(dtd2.never_together(book, author, editor));
    }

    #[test]
    fn determinism_flag() {
        let dtd = Dtd::parse(FIG1).unwrap();
        assert!(dtd.elements().all(|e| e.deterministic));
        let ambiguous = Dtd::parse("<!ELEMENT a ((b,c)|(b,d))>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>\n<!ELEMENT d EMPTY>").unwrap();
        let a = ambiguous.lookup("a").unwrap();
        assert!(!ambiguous.element(a).unwrap().deterministic);
    }
}
