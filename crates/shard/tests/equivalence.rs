//! The sharded reader's contract: for any document and any shard count,
//! the stitched event stream is the sequential reader's event stream.
//!
//! Checked three ways: byte-identity of the re-serialised stream (the
//! acceptance criterion), owned-event identity (a strictly stronger
//! check, possible because seams sit on element tags so no text run ever
//! splits), and XSAX validation-verdict agreement when the sharded reader
//! feeds `XsaxParser::from_source`.

use flux_shard::{splitter, ShardConfig, ShardedReader};
use flux_xml::{is_name_start, parse_to_events, RawEvent, XmlEvent, XmlReader, XmlWriter};
use flux_xmlgen::{auction_string, bib_string, AuctionConfig, BibConfig};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Byte-at-a-time reference for the splitter's boundary rules: every byte
/// inspected individually, no SWAR kernels and no structural prescan.
/// [`splitter::split_points`] must place exactly these seams — the
/// vectorised `<` hop is an implementation detail, never a semantic one.
fn naive_split_points(input: &[u8], shards: usize) -> Vec<usize> {
    fn find(input: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
        (from..input.len()).find(|&i| input[i..].starts_with(needle))
    }
    fn naive_doctype_end(input: &[u8], start: usize) -> Option<usize> {
        let mut i = start + "<!DOCTYPE".len();
        let mut in_subset = false;
        while i < input.len() {
            match input[i] {
                b'"' | b'\'' => {
                    let quote = input[i];
                    i = find(input, i + 1, &[quote])? + 1;
                }
                b'[' => {
                    in_subset = true;
                    i += 1;
                }
                b']' => {
                    in_subset = false;
                    i += 1;
                }
                b'<' if in_subset && input[i..].starts_with(b"<!--") => {
                    i = find(input, i, b"-->")? + 3;
                }
                b'>' if !in_subset => return Some(i + 1),
                _ => i += 1,
            }
        }
        None
    }
    let mut points = vec![0usize];
    if shards <= 1 || input.is_empty() {
        return points;
    }
    let ideal = |i: usize| i * input.len() / shards;
    let mut next = 1;
    let mut pos = 0usize;
    while next < shards && pos < input.len() {
        let Some(at) = (pos..input.len()).find(|&i| input[i] == b'<') else {
            break;
        };
        let rest = &input[at..];
        if rest.starts_with(b"<!--") {
            match find(input, at, b"-->") {
                Some(end) => pos = end + 3,
                None => break,
            }
        } else if rest.starts_with(b"<![CDATA[") {
            match find(input, at, b"]]>") {
                Some(end) => pos = end + 3,
                None => break,
            }
        } else if rest.starts_with(b"<!DOCTYPE") {
            match naive_doctype_end(input, at) {
                Some(end) => pos = end,
                None => break,
            }
        } else if rest.starts_with(b"<?") {
            match find(input, at, b"?>") {
                Some(end) => pos = end + 2,
                None => break,
            }
        } else if rest.len() > 1 && (rest[1] == b'/' || is_name_start(rest[1])) {
            if at > 0 && at >= ideal(next) {
                points.push(at);
                next += 1;
                while next < shards && at >= ideal(next) {
                    next += 1;
                }
            }
            pos = at + 1;
        } else {
            pos = at + 1;
        }
    }
    points
}

fn assert_seams_match_naive(doc: &str) {
    for shards in SHARD_COUNTS {
        assert_eq!(
            splitter::split_points(doc.as_bytes(), shards),
            naive_split_points(doc.as_bytes(), shards),
            "seams diverged from the naive reference at {shards} shards"
        );
    }
}

/// Serialises whatever `next_into` source produces, raw-event path.
fn serialise_sequential(doc: &str) -> String {
    let mut reader = XmlReader::new(doc.as_bytes());
    let mut writer = XmlWriter::new(Vec::new());
    let mut ev = RawEvent::new();
    while reader.next_into(&mut ev).expect("sequential parse") {
        writer
            .write_raw_event(reader.symbols(), &ev)
            .expect("write");
    }
    writer.finish().expect("finish");
    String::from_utf8(writer.into_inner()).expect("utf8")
}

fn sharded_reader(doc: &str, shards: usize) -> ShardedReader {
    let mut config = ShardConfig::new(shards);
    config.min_shard_bytes = 1; // shard even small generated documents
    ShardedReader::new(doc.as_bytes().to_vec(), config)
}

fn serialise_sharded(doc: &str, shards: usize) -> String {
    let mut reader = sharded_reader(doc, shards);
    let mut writer = XmlWriter::new(Vec::new());
    let mut ev = RawEvent::new();
    while reader.next_into(&mut ev).expect("sharded parse") {
        writer
            .write_raw_event(reader.symbols(), &ev)
            .expect("write");
    }
    writer.finish().expect("finish");
    String::from_utf8(writer.into_inner()).expect("utf8")
}

fn sharded_owned_events(doc: &str, shards: usize) -> Vec<XmlEvent> {
    let mut reader = sharded_reader(doc, shards);
    let mut ev = RawEvent::new();
    let mut out = Vec::new();
    while reader.next_into(&mut ev).expect("sharded parse") {
        out.push(ev.to_xml_event(reader.symbols()));
    }
    out
}

fn assert_doc_equivalent(doc: &str) {
    assert_seams_match_naive(doc);
    let expected_bytes = serialise_sequential(doc);
    let expected_events = parse_to_events(doc).expect("sequential parse");
    for shards in SHARD_COUNTS {
        assert_eq!(
            serialise_sharded(doc, shards),
            expected_bytes,
            "serialised stream diverged at {shards} shards"
        );
        assert_eq!(
            sharded_owned_events(doc, shards),
            expected_events,
            "event sequence diverged at {shards} shards"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Generated bibliography documents (weak DTD shape): sharded and
    /// sequential streams are byte-identical via the writer.
    #[test]
    fn bib_weak_documents_equivalent(seed in 0u64..1_000_000, books in 1usize..120) {
        assert_doc_equivalent(&bib_string(&BibConfig::weak(books, seed)));
    }

    /// Figure 1 DTD shape.
    #[test]
    fn bib_fig1_documents_equivalent(seed in 0u64..1_000_000, books in 1usize..120) {
        assert_doc_equivalent(&bib_string(&BibConfig::fig1(books, seed)));
    }

    /// Auction documents: deeper nesting, attributes, joins corpus.
    #[test]
    fn auction_documents_equivalent(seed in 0u64..1_000_000) {
        assert_doc_equivalent(&auction_string(&AuctionConfig::scale(0.3, seed)));
    }
}

// ----- seam unit tests: constructs straddling an exact chunk boundary -----

/// Forces exactly two shards and checks equivalence. `min_shard_bytes = 1`
/// makes the split land near the middle of the document, which the caller
/// arranges to be inside the interesting construct.
fn assert_two_shard_equivalent(doc: &str) {
    assert_seams_match_naive(doc);
    let expected = serialise_sequential(doc);
    assert_eq!(serialise_sharded(doc, 2), expected, "doc: {doc}");
}

#[test]
fn seams_match_naive_reference_on_construct_heavy_doc() {
    // Every skip rule in one document: DOCTYPE with a bracketed subset
    // (holding a quoted `>` and a comment), PIs, comments and CDATA full
    // of fake tags, plus quoted `>` in attribute values.
    let decoys = "<!-- <fake/> --><![CDATA[<fake2/>]]><?pi <fake3/> ?>".repeat(12);
    let doc = format!(
        "<?xml version=\"1.0\"?><!DOCTYPE r [<!-- <x> --><!ENTITY g \"]<z>\">]>\
         <r>{decoys}<a k=\"a > b\" k2='c > d'>text</a>{decoys}</r>"
    );
    assert_seams_match_naive(&doc);
    // Seams stay honest on a document that ends mid-construct, too.
    let truncated = &doc[..doc.len() / 2];
    for shards in SHARD_COUNTS {
        assert_eq!(
            splitter::split_points(truncated.as_bytes(), shards),
            naive_split_points(truncated.as_bytes(), shards),
            "seams diverged on truncated doc at {shards} shards"
        );
    }
}

#[test]
fn seams_match_naive_across_prescan_blocks() {
    // A document big enough that the splitter's lazy prescan sweeps
    // several blocks, with boundaries landing both early and late.
    let doc = format!(
        "<r>{}</r>",
        "<item a=\"v > w\">body text</item>".repeat(8_000)
    );
    assert!(doc.len() > 128 * 1024, "must span multiple prescan blocks");
    for shards in [2usize, 5, 16, 64] {
        assert_eq!(
            splitter::split_points(doc.as_bytes(), shards),
            naive_split_points(doc.as_bytes(), shards),
            "seams diverged at {shards} shards"
        );
    }
}

#[test]
fn tag_name_straddles_boundary() {
    // The ideal midpoint falls inside `<straddling-name ...>`: the
    // splitter must move the boundary to the tag's `<` or past it, never
    // inside the name.
    let left = "x".repeat(40);
    let doc = format!("<r><a>{left}</a><straddling-name attr=\"value\">body</straddling-name></r>");
    assert_two_shard_equivalent(&doc);
}

#[test]
fn text_run_straddles_boundary() {
    // Midpoint inside a long text run: the whole run must stay one event
    // (the boundary moves to the next tag).
    let run = "long text with entities &amp; more ".repeat(4);
    let doc = format!("<r><t>{run}</t><u/></r>");
    assert_two_shard_equivalent(&doc);
    // And the run really is delivered as a single text event.
    let events = sharded_owned_events(&doc, 2);
    let texts: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, XmlEvent::Text(_)))
        .collect();
    assert_eq!(texts.len(), 1, "{events:?}");
}

#[test]
fn comment_straddles_boundary() {
    let doc = format!(
        "<r><a>x</a><!-- a comment with <fake-tags/> inside {} --><b>y</b></r>",
        "pad ".repeat(10)
    );
    assert_two_shard_equivalent(&doc);
}

#[test]
fn cdata_straddles_boundary() {
    let doc = format!(
        "<r><t>before<![CDATA[raw <not-a-tag> &amp; {}]]>after</t></r>",
        "pad ".repeat(10)
    );
    assert_two_shard_equivalent(&doc);
    // CDATA merges into the surrounding text run, exactly like the
    // sequential reader.
    let events = sharded_owned_events(&doc, 2);
    assert!(
        events.iter().any(
            |e| matches!(e, XmlEvent::Text(t) if t.starts_with("before") && t.ends_with("after"))
        ),
        "{events:?}"
    );
}

#[test]
fn attribute_value_straddles_boundary() {
    let value = "no lt allowed but entities &amp; quotes ' work ".repeat(2);
    let doc = format!("<r><a k=\"{value}\" k2='two'/><b/></r>");
    assert_two_shard_equivalent(&doc);
}

#[test]
fn element_spanning_all_shards() {
    // One element whose content crosses every seam: its start tag lives in
    // shard 0, its end tag in the last shard.
    let body = "<leaf>x</leaf>".repeat(64);
    let doc = format!("<root><wide>{body}</wide></root>");
    for shards in SHARD_COUNTS {
        assert_eq!(serialise_sharded(&doc, shards), serialise_sequential(&doc));
    }
}

// ----- XSAX verdict agreement over the sharded source -----

#[test]
fn xsax_verdicts_agree_with_sequential() {
    use flux_dtd::Dtd;
    use flux_xsax::{seeded_symbols, XsaxConfig, XsaxParser};

    let dtd = Dtd::parse(flux_dtd::PAPER_FIG1_DTD).expect("dtd");
    let valid = bib_string(&BibConfig::fig1(80, 7));
    let invalid = valid.replace("<title>", "<price>9</price><title>");

    for (doc, should_pass) in [(&valid, true), (&invalid, false)] {
        let sequential = {
            let mut p = XsaxParser::new(doc.as_bytes(), &dtd).expect("parser");
            let mut n = 0u64;
            loop {
                match p.next_step() {
                    Ok(Some(_)) => n += 1,
                    Ok(None) => break Ok(n),
                    Err(e) => break Err(e),
                }
            }
        };
        for shards in SHARD_COUNTS {
            let mut config = ShardConfig::new(shards);
            config.min_shard_bytes = 1;
            let source =
                ShardedReader::with_symbols(doc.as_bytes().to_vec(), config, seeded_symbols(&dtd));
            let mut p =
                XsaxParser::from_source(source, &dtd, XsaxConfig::default()).expect("from_source");
            let mut n = 0u64;
            let sharded: Result<u64, _> = loop {
                match p.next_step() {
                    Ok(Some(_)) => n += 1,
                    Ok(None) => break Ok(n),
                    Err(e) => break Err(e),
                }
            };
            match (&sequential, &sharded) {
                (Ok(a), Ok(b)) => {
                    assert!(should_pass, "both accepted an invalid doc");
                    assert_eq!(a, b, "event counts diverged at {shards} shards");
                }
                (Err(_), Err(_)) => {
                    assert!(!should_pass, "both rejected a valid doc")
                }
                (seq, sh) => panic!(
                    "verdicts diverged at {shards} shards: sequential {seq:?}, sharded {sh:?}"
                ),
            }
        }
    }
}

#[test]
fn xsax_past_fires_agree_over_sharded_source() {
    use flux_dtd::Dtd;
    use flux_xsax::{seeded_symbols, PastLabels, XsaxConfig, XsaxParser, XsaxStep};

    let dtd = Dtd::parse(flux_dtd::PAPER_FIG1_DTD).expect("dtd");
    let doc = bib_string(&BibConfig::fig1(60, 21));
    let book = dtd.lookup("book").unwrap();
    let title = dtd.lookup("title").unwrap();
    let author = dtd.lookup("author").unwrap();

    // A fire trace records (event ordinal, fired id) pairs.
    fn trace<S: flux_xml::EventSource>(
        mut parser: XsaxParser<'_, S>,
        book: flux_dtd::Symbol,
        labels: PastLabels,
    ) -> Vec<(u64, u32)> {
        parser.register_past(book, labels).expect("register");
        let mut ordinal = 0u64;
        let mut fires = Vec::new();
        while let Some(step) = parser.next_step().expect("step") {
            ordinal += 1;
            if let XsaxStep::Fire { id, .. } = step {
                fires.push((ordinal, id.0));
            }
        }
        fires
    }

    let labels = PastLabels::labels([title, author]);
    let sequential = trace(
        XsaxParser::new(doc.as_bytes(), &dtd).expect("parser"),
        book,
        labels.clone(),
    );
    assert!(!sequential.is_empty(), "the workload must fire");
    for shards in SHARD_COUNTS {
        let mut config = ShardConfig::new(shards);
        config.min_shard_bytes = 1;
        let source =
            ShardedReader::with_symbols(doc.as_bytes().to_vec(), config, seeded_symbols(&dtd));
        let parser =
            XsaxParser::from_source(source, &dtd, XsaxConfig::default()).expect("from_source");
        assert_eq!(
            trace(parser, book, labels.clone()),
            sequential,
            "fire positions diverged at {shards} shards"
        );
    }
}
