//! XML Schema frontend (the paper's footnote 1: "the static information
//! required for optimization could just as well be derived from XML
//! Schema").
//!
//! Supports the structural core of XSD sufficient for schema-constraint
//! derivation: global and inline element declarations, `xs:complexType`
//! with `xs:sequence` / `xs:choice` / nested groups, `minOccurs` /
//! `maxOccurs` (including small integer bounds, expanded), `mixed="true"`,
//! `xs:attribute`, and string-typed simple content. The result is the same
//! [`crate::Dtd`] the DTD parser produces, so every automaton and
//! constraint works identically downstream.

use crate::content_model::{AttDef, AttDefault, ContentSpec, Particle};
use crate::dtd::Dtd;
use crate::error::{DtdError, Result};
use flux_xml::tree::{Document, NodeId};

/// Parses an XML Schema document into a [`Dtd`].
pub fn parse_xsd(input: &str) -> Result<Dtd> {
    let doc = Document::parse_str(input)
        .map_err(|e| DtdError::new(format!("XSD is not well-formed XML: {e}")))?;
    let schema = doc
        .root_element()
        .filter(|&r| local_name(doc.name(r).unwrap_or("")) == "schema")
        .ok_or_else(|| DtdError::new("expected an xs:schema root element"))?;

    let mut decls: Vec<(String, ContentSpec, Vec<AttDef>)> = Vec::new();
    let mut globals: Vec<NodeId> = Vec::new();
    for child in doc.children(schema) {
        if element_named(&doc, *child, "element") {
            globals.push(*child);
        }
    }
    if globals.is_empty() {
        return Err(DtdError::new("the schema declares no global elements"));
    }
    for element in &globals {
        collect_element(&doc, *element, &mut decls)?;
    }

    // Render the collected declarations as DTD text and reuse the DTD
    // build pipeline (duplicate detection, automata, root inference).
    let root_name = doc
        .attribute(globals[0], "name")
        .ok_or_else(|| DtdError::new("global xs:element without a name"))?
        .to_string();
    build_dtd(decls, &root_name)
}

fn local_name(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

fn element_named(doc: &Document, node: NodeId, local: &str) -> bool {
    doc.name(node).map(local_name) == Some(local)
}

/// Recursively collects an element declaration (and any inline local
/// declarations below it).
fn collect_element(
    doc: &Document,
    element: NodeId,
    decls: &mut Vec<(String, ContentSpec, Vec<AttDef>)>,
) -> Result<()> {
    let Some(name) = doc.attribute(element, "name") else {
        // `ref=` carries no declaration of its own.
        return Ok(());
    };
    let name = name.to_string();

    // Simple-typed element (`type="xs:string"` etc.): text content.
    if let Some(ty) = doc.attribute(element, "type") {
        let spec = match local_name(ty) {
            "string" | "anyURI" | "date" | "decimal" | "integer" | "int" | "token" | "NMTOKEN"
            | "ID" | "IDREF" => ContentSpec::Mixed(vec![]),
            other => {
                return Err(DtdError::new(format!(
                    "unsupported element type `{other}` on `{name}`"
                )))
            }
        };
        push_decl(decls, name, spec, Vec::new())?;
        return Ok(());
    }

    // Inline complex type, or nothing (EMPTY).
    let complex = doc
        .children(element)
        .iter()
        .copied()
        .find(|&c| element_named(doc, c, "complexType"));
    let Some(complex) = complex else {
        push_decl(decls, name, ContentSpec::Empty, Vec::new())?;
        return Ok(());
    };

    let mixed = doc.attribute(complex, "mixed") == Some("true");
    let mut attributes = Vec::new();
    let mut particle: Option<Particle> = None;
    for &child in doc.children(complex) {
        if element_named(doc, child, "attribute") {
            attributes.push(parse_attribute(doc, child)?);
        } else if element_named(doc, child, "sequence") || element_named(doc, child, "choice") {
            if particle.is_some() {
                return Err(DtdError::new(format!(
                    "element `{name}`: multiple content groups are not supported"
                )));
            }
            particle = Some(parse_group(doc, child, decls)?);
        }
    }

    let spec = match (particle, mixed) {
        (None, false) => ContentSpec::Empty,
        (None, true) => ContentSpec::Mixed(vec![]),
        (Some(p), false) => ContentSpec::Children(p),
        (Some(p), true) => ContentSpec::MixedChildren(p),
    };
    push_decl(decls, name, spec, attributes)?;
    Ok(())
}

fn push_decl(
    decls: &mut Vec<(String, ContentSpec, Vec<AttDef>)>,
    name: String,
    spec: ContentSpec,
    attributes: Vec<AttDef>,
) -> Result<()> {
    if let Some((_, existing, _)) = decls.iter().find(|(n, _, _)| *n == name) {
        if *existing != spec {
            return Err(DtdError::new(format!(
                "element `{name}` declared twice with different content models"
            )));
        }
        return Ok(());
    }
    decls.push((name, spec, attributes));
    Ok(())
}

fn parse_attribute(doc: &Document, node: NodeId) -> Result<AttDef> {
    let name = doc
        .attribute(node, "name")
        .ok_or_else(|| DtdError::new("xs:attribute without a name"))?
        .to_string();
    let att_type = doc
        .attribute(node, "type")
        .map(|t| local_name(t).to_uppercase())
        .unwrap_or_else(|| "CDATA".to_string());
    let default = match doc.attribute(node, "use") {
        Some("required") => AttDefault::Required,
        _ => match doc.attribute(node, "default") {
            Some(v) => AttDefault::Default(v.to_string()),
            None => AttDefault::Implied,
        },
    };
    Ok(AttDef {
        name,
        att_type: if att_type == "STRING" {
            "CDATA".to_string()
        } else {
            att_type
        },
        default,
    })
}

/// Parses an `xs:sequence` or `xs:choice` group into a particle, hoisting
/// inline element declarations.
fn parse_group(
    doc: &Document,
    group: NodeId,
    decls: &mut Vec<(String, ContentSpec, Vec<AttDef>)>,
) -> Result<Particle> {
    let mut parts = Vec::new();
    for &child in doc.children(group) {
        let base = if element_named(doc, child, "element") {
            collect_element(doc, child, decls)?;
            let name = doc
                .attribute(child, "name")
                .or_else(|| doc.attribute(child, "ref"))
                .ok_or_else(|| DtdError::new("xs:element needs name= or ref="))?;
            ParticleName(name.to_string())
        } else if element_named(doc, child, "sequence") || element_named(doc, child, "choice") {
            ParticleGroup(parse_group(doc, child, decls)?)
        } else {
            continue; // annotations etc.
        };
        let particle = apply_occurs(doc, child, base, decls)?;
        parts.push(particle);
    }
    if parts.is_empty() {
        return Err(DtdError::new("empty content group"));
    }
    Ok(if element_named(doc, group, "sequence") {
        if parts.len() == 1 {
            parts.pop().expect("checked")
        } else {
            Particle::Seq(parts)
        }
    } else if parts.len() == 1 {
        parts.pop().expect("checked")
    } else {
        Particle::Choice(parts)
    })
}

enum PendingParticle {
    ParticleName(String),
    ParticleGroup(Particle),
}
use PendingParticle::*;

fn apply_occurs(
    doc: &Document,
    node: NodeId,
    base: PendingParticle,
    decls: &mut Vec<(String, ContentSpec, Vec<AttDef>)>,
) -> Result<Particle> {
    // Names must be interned against the final symbol table, which doesn't
    // exist yet; defer by rendering names into a placeholder particle that
    // `build_dtd` resolves. We cheat minimally: keep names as single-name
    // particles in a side table keyed by position. To avoid that
    // complexity, names are resolved in `build_dtd` via the DTD text
    // round-trip — here we emit textual DTD content models instead.
    let _ = decls;
    let min: u32 = doc
        .attribute(node, "minOccurs")
        .map(|v| v.parse().map_err(|_| DtdError::new("bad minOccurs")))
        .transpose()?
        .unwrap_or(1);
    let max: Option<u32> = match doc.attribute(node, "maxOccurs") {
        None => Some(1),
        Some("unbounded") => None,
        Some(v) => Some(v.parse().map_err(|_| DtdError::new("bad maxOccurs"))?),
    };
    let base = match base {
        ParticleName(n) => Particle::Name(flux_symbols::Symbol::from_index(intern_placeholder(n))),
        ParticleGroup(p) => p,
    };
    particle_with_occurs(base, min, max)
}

// ---------------------------------------------------------------------
// Name interning workaround: XSD parsing happens before the Dtd's symbol
// table exists. We render the whole schema to DTD text and re-parse it,
// which keeps one single authoritative build path. The placeholder
// interner assigns stable indices to names for the intermediate particle
// representation used during rendering.
// ---------------------------------------------------------------------

use std::cell::RefCell;

thread_local! {
    static PLACEHOLDER_NAMES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn intern_placeholder(name: String) -> usize {
    PLACEHOLDER_NAMES.with(|names| {
        let mut names = names.borrow_mut();
        if let Some(i) = names.iter().position(|n| *n == name) {
            i
        } else {
            names.push(name);
            names.len() - 1
        }
    })
}

fn placeholder_name(index: usize) -> String {
    PLACEHOLDER_NAMES.with(|names| names.borrow()[index].clone())
}

fn particle_with_occurs(base: Particle, min: u32, max: Option<u32>) -> Result<Particle> {
    Ok(match (min, max) {
        (1, Some(1)) => base,
        (0, Some(1)) => Particle::Opt(Box::new(base)),
        (0, None) => Particle::Star(Box::new(base)),
        (1, None) => Particle::Plus(Box::new(base)),
        (min, Some(max)) if max >= min && max <= 8 => {
            // Expand small bounded repetitions: base^min, (base?)^(max-min).
            let mut parts = Vec::new();
            for _ in 0..min {
                parts.push(base.clone());
            }
            for _ in min..max {
                parts.push(Particle::Opt(Box::new(base.clone())));
            }
            match parts.len() {
                0 => Particle::Epsilon,
                1 => parts.pop().expect("checked"),
                _ => Particle::Seq(parts),
            }
        }
        (min, None) if min <= 8 => {
            let mut parts = Vec::new();
            for _ in 0..min.saturating_sub(1) {
                parts.push(base.clone());
            }
            parts.push(Particle::Plus(Box::new(base)));
            if parts.len() == 1 {
                parts.pop().expect("checked")
            } else {
                Particle::Seq(parts)
            }
        }
        _ => {
            return Err(DtdError::new(
                "maxOccurs bounds above 8 are not supported (expansion would explode)",
            ))
        }
    })
}

/// Renders collected declarations as DTD text and runs the normal DTD
/// build, keeping a single authoritative pipeline for automata and
/// constraints.
fn build_dtd(decls: Vec<(String, ContentSpec, Vec<AttDef>)>, root: &str) -> Result<Dtd> {
    let mut text = String::new();
    let mut mixed_children: Vec<String> = Vec::new();
    for (name, spec, attributes) in &decls {
        text.push_str("<!ELEMENT ");
        text.push_str(name);
        text.push(' ');
        match spec {
            ContentSpec::Empty => text.push_str("EMPTY"),
            ContentSpec::Any => text.push_str("ANY"),
            ContentSpec::Mixed(_) => text.push_str("(#PCDATA)"),
            ContentSpec::Children(p) => render_particle(p, &mut text),
            ContentSpec::MixedChildren(p) => {
                // DTD syntax cannot express "regex + text"; render the
                // regex and record the element for a text_allowed patch.
                render_particle(p, &mut text);
                mixed_children.push(name.clone());
            }
        }
        text.push_str(">\n");
        if !attributes.is_empty() {
            text.push_str("<!ATTLIST ");
            text.push_str(name);
            for att in attributes {
                text.push(' ');
                text.push_str(&att.name);
                text.push(' ');
                text.push_str(if att.att_type.is_empty() {
                    "CDATA"
                } else {
                    &att.att_type
                });
                match &att.default {
                    AttDefault::Required => text.push_str(" #REQUIRED"),
                    AttDefault::Implied => text.push_str(" #IMPLIED"),
                    AttDefault::Fixed(v) => {
                        text.push_str(" #FIXED \"");
                        text.push_str(v);
                        text.push('"');
                    }
                    AttDefault::Default(v) => {
                        text.push_str(" \"");
                        text.push_str(v);
                        text.push('"');
                    }
                }
            }
            text.push_str(">\n");
        }
    }
    let mut dtd = Dtd::parse_with_root(&text, root)?;
    for name in mixed_children {
        dtd.allow_text(&name);
    }
    PLACEHOLDER_NAMES.with(|names| names.borrow_mut().clear());
    Ok(dtd)
}

fn render_particle(p: &Particle, out: &mut String) {
    match p {
        Particle::Epsilon => out.push_str("EMPTY"),
        Particle::Name(s) => {
            out.push('(');
            out.push_str(&placeholder_name(s.index()));
            out.push(')');
        }
        _ => {
            render_inner(p, out);
        }
    }
}

fn render_inner(p: &Particle, out: &mut String) {
    match p {
        Particle::Epsilon => out.push_str("()"),
        Particle::Name(s) => out.push_str(&placeholder_name(s.index())),
        Particle::Seq(parts) => {
            out.push('(');
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_inner(part, out);
            }
            out.push(')');
        }
        Particle::Choice(parts) => {
            out.push('(');
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    out.push('|');
                }
                render_inner(part, out);
            }
            out.push(')');
        }
        Particle::Opt(inner) => {
            wrap(inner, out);
            out.push('?');
        }
        Particle::Star(inner) => {
            wrap(inner, out);
            out.push('*');
        }
        Particle::Plus(inner) => {
            wrap(inner, out);
            out.push('+');
        }
    }
}

fn wrap(p: &Particle, out: &mut String) {
    match p {
        Particle::Name(_) => {
            out.push('(');
            render_inner(p, out);
            out.push(')');
        }
        _ => render_inner(p, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An XSD equivalent of the paper's Figure 1 DTD.
    const FIG1_XSD: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="bib">
        <xs:complexType>
          <xs:sequence>
            <xs:element name="book" minOccurs="0" maxOccurs="unbounded">
              <xs:complexType>
                <xs:sequence>
                  <xs:element name="title" type="xs:string"/>
                  <xs:choice>
                    <xs:element name="author" type="xs:string" maxOccurs="unbounded"/>
                    <xs:element name="editor" type="xs:string" maxOccurs="unbounded"/>
                  </xs:choice>
                  <xs:element name="publisher" type="xs:string"/>
                  <xs:element name="price" type="xs:string"/>
                </xs:sequence>
                <xs:attribute name="year" type="xs:string" use="required"/>
              </xs:complexType>
            </xs:element>
          </xs:sequence>
        </xs:complexType>
      </xs:element>
    </xs:schema>"#;

    #[test]
    fn fig1_constraints_from_xsd() {
        let dtd = parse_xsd(FIG1_XSD).unwrap();
        assert_eq!(dtd.name(dtd.root().unwrap()), "bib");
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let author = dtd.lookup("author").unwrap();
        let editor = dtd.lookup("editor").unwrap();
        let publisher = dtd.lookup("publisher").unwrap();
        // The same constraints the DTD frontend derives (paper footnote 1).
        assert!(dtd.all_before(book, title, author));
        assert!(dtd.never_together(book, author, editor));
        assert!(dtd.at_most_one(book, publisher));
        assert!(dtd.exactly_one(book, title));
        // Attributes survive.
        let decl = dtd.element(book).unwrap();
        assert_eq!(decl.attlist.len(), 1);
        assert_eq!(decl.attlist[0].name, "year");
    }

    #[test]
    fn bounded_occurs_expanded() {
        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="r">
            <xs:complexType><xs:sequence>
              <xs:element name="x" type="xs:string" minOccurs="1" maxOccurs="3"/>
            </xs:sequence></xs:complexType>
          </xs:element>
        </xs:schema>"#;
        let dtd = parse_xsd(xsd).unwrap();
        let r = dtd.lookup("r").unwrap();
        let x = dtd.lookup("x").unwrap();
        let dfa = &dtd.element(r).unwrap().dfa;
        assert!(dfa.accepts([x]));
        assert!(dfa.accepts([x, x]));
        assert!(dfa.accepts([x, x, x]));
        assert!(!dfa.accepts([]));
        assert!(!dfa.accepts([x, x, x, x]));
        assert!(dtd.at_least_one(r, x));
        assert!(!dtd.at_most_one(r, x));
    }

    #[test]
    fn mixed_content_allows_text() {
        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="p">
            <xs:complexType mixed="true"><xs:sequence>
              <xs:element name="em" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
            </xs:sequence></xs:complexType>
          </xs:element>
        </xs:schema>"#;
        let dtd = parse_xsd(xsd).unwrap();
        let p = dtd.lookup("p").unwrap();
        assert!(dtd.text_allowed(p));
        let em = dtd.lookup("em").unwrap();
        // Text interleaves freely: no order constraint involving text.
        assert!(!dtd.all_before(p, crate::SymbolTable::TEXT, em));
    }

    #[test]
    fn empty_element() {
        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="top">
            <xs:complexType><xs:sequence>
              <xs:element name="leaf"/>
            </xs:sequence></xs:complexType>
          </xs:element>
        </xs:schema>"#;
        let dtd = parse_xsd(xsd).unwrap();
        let leaf = dtd.lookup("leaf").unwrap();
        assert!(matches!(
            dtd.element(leaf).unwrap().spec,
            ContentSpec::Empty
        ));
    }

    #[test]
    fn rejects_non_schema() {
        assert!(parse_xsd("<html/>").is_err());
        assert!(parse_xsd("not xml").is_err());
        assert!(parse_xsd("<xs:schema xmlns:xs=\"x\"/>").is_err());
    }

    #[test]
    fn unknown_simple_type_rejected() {
        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="r" type="xs:banana"/>
        </xs:schema>"#;
        assert!(parse_xsd(xsd).is_err());
    }
}
