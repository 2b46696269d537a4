//! Failure injection: malformed queries, schema violations and broken
//! streams must surface as errors, never as wrong answers or panics.

use fluxquery::{FluxEngine, Input, Options, PAPER_FIG1_DTD, PAPER_WEAK_DTD};

const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

#[test]
fn malformed_query_rejected() {
    for bad in [
        "<r>{",
        "for $x in return ()",
        "<r>{ $x/ }</r>",
        "<a></b>",
        "<r>{ for $b in $ROOT//book return $b }</r>", // descendant axis
        "<r>{ if ($x/a) then <y/> }</r>",             // missing else
    ] {
        assert!(
            FluxEngine::compile(bad, PAPER_WEAK_DTD, &Options::default()).is_err(),
            "accepted: {bad}"
        );
    }
}

#[test]
fn malformed_dtd_rejected() {
    for bad in [
        "",
        "<!ELEMENT a (b,>",
        "<!ELEMENT a (#PCDATA | b)>", // mixed without *
        "<!BOGUS>",
        "<!ELEMENT a EMPTY><!ELEMENT a ANY>", // duplicate
    ] {
        assert!(
            FluxEngine::compile(Q3, bad, &Options::default()).is_err(),
            "accepted DTD: {bad}"
        );
    }
}

#[test]
fn invalid_documents_rejected_at_runtime() {
    let engine = FluxEngine::compile(Q3, PAPER_FIG1_DTD, &Options::default()).unwrap();
    for bad in [
        // wrong root
        "<book/>",
        // undeclared element
        "<bib><pamphlet/></bib>",
        // missing mandatory children
        "<bib><book><title>T</title></book></bib>",
        // wrong order
        "<bib><book><author>A</author><title>T</title><publisher>P</publisher><price>1</price></book></bib>",
        // author and editor together
        "<bib><book><title>T</title><author>A</author><editor>E</editor><publisher>P</publisher><price>1</price></book></bib>",
        // text in element content
        "<bib>text</bib>",
    ] {
        let mut out = Vec::new();
        assert!(engine.run_input(Input::from_reader(bad.as_bytes()), &mut out).is_err(), "accepted: {bad}");
    }
}

#[test]
fn broken_xml_rejected_at_runtime() {
    let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::default()).unwrap();
    for bad in [
        "<bib><book></bib>",      // mismatched tags
        "<bib>",                  // truncated
        "<bib><book x=1/></bib>", // unquoted attribute
        "<bib>&undefined;</bib>", // unknown entity
        "",                       // empty input
        "<bib/><bib/>",           // two roots
    ] {
        let mut out = Vec::new();
        assert!(
            engine
                .run_input(Input::from_reader(bad.as_bytes()), &mut out)
                .is_err(),
            "accepted: {bad:?}"
        );
    }
}

#[test]
fn truncated_stream_mid_element() {
    let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::default()).unwrap();
    let full = "<bib><book><title>T</title><author>A</author></book></bib>";
    // Every strict prefix must fail cleanly (error, not panic or success).
    for cut in 1..full.len() {
        let mut out = Vec::new();
        let result = engine.run_input(Input::from_reader(&full.as_bytes()[..cut]), &mut out);
        assert!(result.is_err(), "prefix of length {cut} accepted");
    }
}

#[test]
fn unbound_variable_rejected_at_compile_time_or_runtime() {
    // $nowhere is never bound: scheduling treats it as an outer unknown.
    let q = "<r>{ for $b in $nowhere/book return $b }</r>";
    let compile = FluxEngine::compile(q, PAPER_WEAK_DTD, &Options::default());
    match compile {
        Err(_) => {}
        Ok(engine) => {
            let mut out = Vec::new();
            assert!(engine
                .run_input(Input::from_reader("<bib/>".as_bytes()), &mut out)
                .is_err());
        }
    }
}

#[test]
fn reserved_variable_prefix_rejected() {
    let q = "<r>{ for $__flux1 in $ROOT/bib/book return $__flux1 }</r>";
    assert!(FluxEngine::compile(q, PAPER_WEAK_DTD, &Options::default()).is_err());
}
