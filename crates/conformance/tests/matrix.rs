//! The full conformance matrix: every workload × every engine ×
//! shard counts {1, 2, 8} × bounded/unbounded interner.
//!
//! This is the release-mode CI `conformance` job's payload. Scales are
//! kept modest so the debug-mode run stays fast; the axes (not the
//! document sizes) are what the differential assertions exercise.

use flux_conformance::{
    assert_engines_equivalent, assert_stream_equivalent, workload, workloads, TINY_CAP,
};
use flux_xmlgen::{auction_string, AuctionConfig};

#[test]
fn stream_tier_full_matrix() {
    for w in workloads() {
        for (scale, seed) in [(0.2, 7), (0.6, 21)] {
            let doc = w.document(scale, seed);
            let outcome = assert_stream_equivalent(&format!("{} s={scale}", w.id), doc.as_bytes());
            assert!(
                outcome.error.is_none(),
                "{}: generated document failed to parse: {:?}",
                w.id,
                outcome.error
            );
        }
    }
}

#[test]
fn engine_tier_full_matrix() {
    for w in workloads() {
        if w.query.is_none() {
            continue; // stream-tier-only shape (covered above)
        }
        for (scale, seed) in [(0.2, 7), (0.6, 21)] {
            assert_engines_equivalent(&w, scale, seed);
        }
    }
}

#[test]
fn engine_tier_covers_every_query_workload() {
    // Guard against the matrix silently degenerating to stream-only.
    let with_query = workloads().iter().filter(|w| w.query.is_some()).count();
    assert!(with_query >= 5, "only {with_query} engine-tier workloads");
}

#[test]
fn auction_size_axis_reaches_multi_mb() {
    // The XMark-style document-size knob: a multi-MB auction document
    // still satisfies the full stream grid. One size is enough here —
    // this is the expensive end of the matrix.
    let doc = auction_string(&AuctionConfig::target_bytes(2 * 1_048_576, 5));
    assert!(doc.len() > 1_500_000, "size knob fell short: {}", doc.len());
    let outcome = assert_stream_equivalent("auction-2mb", doc.as_bytes());
    assert!(outcome.error.is_none());
}

#[test]
fn name_mint_adversary_is_marked() {
    assert!(workload("name_mint").adversarial_names);
}

#[test]
fn warm_runs_spell_minted_names_from_their_own_document() {
    // The reader's name cache maps a name to its symbol by the name's
    // first byte and length. A warm run starts from an interner truncated
    // back to its seed, so a cache entry left by an earlier document for
    // a name past the seed points at a symbol the next document may mint
    // for a different name. Here the second document mints `zq` first
    // (taking the symbol `ab` held in the first document), then reuses
    // `ab`, then mints `ax`, which shares `ab`'s cache way. Copying the
    // books out prints every attribute name, so a stale cache entry would
    // spell `ab` as `zq`.
    use fluxquery_core::{EngineKind, Input, Options};
    let dtd = "<!ELEMENT bib (book)*>\n<!ELEMENT book EMPTY>";
    let query = r#"<r>{ for $b in $ROOT/bib/book return $b }</r>"#;
    let first = r#"<bib><book ab="1"/></bib>"#;
    let second = r#"<bib><book zq="2"/><book ab="3"/><book ax="4"/></bib>"#;
    let expected = r#"<r><book zq="2"></book><book ab="3"></book><book ax="4"></book></r>"#;
    let run = |engine: &fluxquery_core::AnyEngine, doc: &str| {
        let mut out = Vec::new();
        engine
            .run_input(Input::from_bytes(doc.as_bytes().to_vec()), &mut out)
            .unwrap();
        String::from_utf8(out).unwrap()
    };
    for options in [Options::new(), Options::new().max_symbols(TINY_CAP)] {
        let engine = options.compile(EngineKind::Flux, query, dtd).unwrap();
        assert_eq!(run(&engine, first), r#"<r><book ab="1"></book></r>"#);
        for _ in 0..2 {
            assert_eq!(run(&engine, second), expected);
        }
    }
}
