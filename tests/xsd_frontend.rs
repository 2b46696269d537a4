//! End-to-end tests of the XML Schema frontend (the paper's footnote 1):
//! the same query compiled against an XSD equivalent of Figure 1 yields the
//! same fully-streaming plan and the same results as the DTD version.

use fluxquery::{FluxEngine, Input, Options, PAPER_FIG1_DTD};

const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

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
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

const DOC: &str = "<bib><book><title>T1</title><author>A1</author><author>A2</author><publisher>P</publisher><price>9</price></book></bib>";

#[test]
fn xsd_gives_same_streaming_plan_as_dtd() {
    let from_xsd = FluxEngine::compile_with_schema(Q3, FIG1_XSD, &Options::default()).unwrap();
    let from_dtd =
        FluxEngine::compile_with_schema(Q3, PAPER_FIG1_DTD, &Options::default()).unwrap();
    assert_eq!(
        from_xsd.buffered_handler_count(),
        0,
        "{}",
        from_xsd.explain()
    );
    assert_eq!(
        from_xsd.buffered_handler_count(),
        from_dtd.buffered_handler_count()
    );
}

#[test]
fn xsd_engine_produces_identical_output() {
    let from_xsd = FluxEngine::compile_with_schema(Q3, FIG1_XSD, &Options::default()).unwrap();
    let from_dtd =
        FluxEngine::compile_with_schema(Q3, PAPER_FIG1_DTD, &Options::default()).unwrap();
    let (out_xsd, _) = from_xsd.run_to_string(DOC).unwrap();
    let (out_dtd, _) = from_dtd.run_to_string(DOC).unwrap();
    assert_eq!(out_xsd, out_dtd);
    assert!(out_xsd.contains("<title>T1</title>"));
}

#[test]
fn xsd_validation_enforced() {
    let engine = FluxEngine::compile_with_schema(Q3, FIG1_XSD, &Options::default()).unwrap();
    // Author before title violates the schema's sequence.
    let bad = "<bib><book><author>A</author><title>T</title><publisher>P</publisher><price>9</price></book></bib>";
    let mut out = Vec::new();
    assert!(engine
        .run_input(Input::from_reader(bad.as_bytes()), &mut out)
        .is_err());
}

#[test]
fn goedel_optimization_from_xsd() {
    // The language constraint (author xor editor) must also be derived
    // from the XSD's xs:choice.
    let q = r#"<out>{ for $b in $ROOT/bib/book return
        if ($b/author = "Goedel" and $b/editor = "Goedel") then <hit/> else () }</out>"#;
    let engine = FluxEngine::compile_with_schema(q, FIG1_XSD, &Options::default()).unwrap();
    assert!(
        engine.query().algebra_trace.iter().any(|r| r.rule == "R2"),
        "{:?}",
        engine.query().algebra_trace
    );
}
