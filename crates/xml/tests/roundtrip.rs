//! Property tests: serialise → parse is the identity on event streams, for
//! arbitrary trees and arbitrary text/attribute content.

use flux_xml::{
    escape, events_to_string, parse_to_events, Attribute, RawEvent, XmlEvent, XmlReader, XmlWriter,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NAMES: &[&str] = &["a", "b", "item", "x-y", "ns:tag", "_u"];

/// Characters that exercise escaping, multi-byte UTF-8 and whitespace.
const TEXT_POOL: &[&str] = &[
    "plain",
    "a<b",
    "x>y",
    "amp&",
    "quote\"",
    "apostrophe'",
    "grüße",
    "💡",
    "  spaced  ",
    "line\nbreak",
    "tab\t",
    "]]>",
    "--",
    "{brace}",
];

/// Generates a random balanced event sequence (one root element).
fn random_events(seed: u64) -> Vec<XmlEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut events = vec![XmlEvent::StartDocument];
    fn element(rng: &mut SmallRng, events: &mut Vec<XmlEvent>, depth: usize, budget: &mut i32) {
        let name = NAMES[rng.gen_range(0..NAMES.len())].to_string();
        let attrs = (0..rng.gen_range(0..3))
            .map(|i| {
                Attribute::new(
                    format!("k{i}"),
                    TEXT_POOL[rng.gen_range(0..TEXT_POOL.len())].to_string(),
                )
            })
            .collect();
        events.push(XmlEvent::StartElement {
            name: name.clone(),
            attributes: attrs,
        });
        let children = if depth == 0 || *budget <= 0 {
            0
        } else {
            rng.gen_range(0..4)
        };
        let mut last_was_text = false;
        for _ in 0..children {
            *budget -= 1;
            if !last_was_text && rng.gen_bool(0.4) {
                // Text child (the reader merges adjacent text, so never
                // emit two in a row).
                let t = TEXT_POOL[rng.gen_range(0..TEXT_POOL.len())].to_string();
                events.push(XmlEvent::Text(t));
                last_was_text = true;
            } else {
                element(rng, events, depth - 1, budget);
                last_was_text = false;
            }
        }
        events.push(XmlEvent::EndElement { name });
    }
    let mut budget = 30;
    element(&mut rng, &mut events, 4, &mut budget);
    events.push(XmlEvent::EndDocument);
    events
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 200,
        ..ProptestConfig::default()
    })]

    #[test]
    fn serialize_parse_round_trip(seed in 0u64..1_000_000) {
        let events = random_events(seed);
        let text = events_to_string(&events).expect("serialise");
        let reparsed = parse_to_events(&text)
            .unwrap_or_else(|e| panic!("reparse failed for:\n{text}\n{e}"));
        prop_assert_eq!(&events, &reparsed, "round trip changed events for:\n{}", text);
    }

    #[test]
    fn escape_unescape_identity(s in "\\PC*") {
        let escaped = escape::escape_text(&s);
        let back = escape::unescape(&escaped, flux_xml::Position::default()).expect("unescape");
        prop_assert_eq!(&back, &s);
        // Escaped text never contains raw markup-significant characters
        // outside entity references.
        prop_assert!(!escaped.contains('<'));
    }

    #[test]
    fn attr_escape_round_trip(s in "\\PC*") {
        let escaped = escape::escape_attr(&s);
        prop_assert!(!escaped.contains('"'));
        prop_assert!(!escaped.contains('<'));
        let back = escape::unescape(&escaped, flux_xml::Position::default()).expect("unescape");
        prop_assert_eq!(&back, &s);
    }

    /// The interned reader → writer pipeline is byte-identical to the
    /// string-based one on generated documents (names, attributes, text
    /// with entities — and CDATA via `kitchen_sink_raw_path` below).
    #[test]
    fn raw_path_matches_string_path(seed in 0u64..1_000_000) {
        let events = random_events(seed);
        let text = events_to_string(&events).expect("serialise");
        let via_strings = pipe_through_strings(&text);
        let via_symbols = pipe_through_symbols(&text);
        prop_assert_eq!(
            &via_strings, &via_symbols,
            "interned pipeline diverged for:\n{}", text
        );
    }

    /// Parsing is a fixpoint: parse(serialise(parse(x))) == parse(x).
    #[test]
    fn parse_serialise_fixpoint(seed in 0u64..1_000_000) {
        let events = random_events(seed);
        let text1 = events_to_string(&events).expect("serialise 1");
        let events2 = parse_to_events(&text1).expect("parse 1");
        let text2 = events_to_string(&events2).expect("serialise 2");
        prop_assert_eq!(text1, text2);
    }
}

/// Reads `text`, renders each event as an owned `XmlEvent` and
/// re-serialises it through the owned-event writer.
fn pipe_through_strings(text: &str) -> String {
    let mut reader = XmlReader::new(text.as_bytes());
    let mut writer = XmlWriter::new(Vec::new());
    let mut ev = RawEvent::new();
    while reader.next_into(&mut ev).expect("string-path parse") {
        writer
            .write_event(&ev.to_xml_event(reader.symbols()))
            .expect("string-path write");
    }
    writer.finish().expect("string-path finish");
    String::from_utf8(writer.into_inner()).expect("utf8 output")
}

/// Reads `text` with the recycled interned-event API and re-serialises it,
/// mapping symbols back through the reader's table.
fn pipe_through_symbols(text: &str) -> String {
    let mut reader = XmlReader::new(text.as_bytes());
    let mut writer = XmlWriter::new(Vec::new());
    let mut ev = RawEvent::new();
    while reader.next_into(&mut ev).expect("raw-path parse") {
        writer
            .write_raw_event(reader.symbols(), &ev)
            .expect("raw-path write");
    }
    writer.finish().expect("raw-path finish");
    String::from_utf8(writer.into_inner()).expect("utf8 output")
}

/// The raw path agrees byte-for-byte on a document with every syntactic
/// feature: doctype, comments, CDATA, entities, attributes in both quote
/// styles, multi-byte UTF-8.
#[test]
fn kitchen_sink_raw_path() {
    let doc = "<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r ANY>]>\
               <r a=\"1\" b='two &amp; three'><!-- comment -->text &lt;here&gt; grüße 💡\
               <child/><![CDATA[raw <stuff> &amp;]]><deep><deeper>x</deeper></deep></r>";
    assert_eq!(pipe_through_strings(doc), pipe_through_symbols(doc));
}

/// Documents with every syntactic feature survive a tree round trip.
#[test]
fn kitchen_sink_document() {
    let doc = "<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r ANY>]>\
               <r a=\"1\" b=\"two &amp; three\"><!-- comment -->text &lt;here&gt;\
               <child/><![CDATA[raw <stuff> &amp;]]><deep><deeper>x</deeper></deep></r>";
    let events = parse_to_events(doc).expect("parse");
    let text = events_to_string(&events).expect("serialise");
    let reparsed = parse_to_events(&text).expect("reparse");
    // Doctype is consumed by the serializer; drop it from the original too.
    let filtered: Vec<_> = events
        .into_iter()
        .filter(|e| !matches!(e, XmlEvent::DoctypeDecl { .. }))
        .collect();
    assert_eq!(filtered, reparsed);
}
