//! Property-based proof that the bounded interner is **observationally
//! invisible**: capping `max_symbols` restores a hard memory bound on the
//! name tables, and must change *nothing* a query can observe — not the
//! output bytes, not the buffer accounting, not an error, not a position.
//!
//! Exercised across all three engine architectures (FluX streaming,
//! projection, DOM) and, for FluX, across sequential and sharded parsing
//! (shard counts 1 and 2, where the *merged* table is the bounded one).
//! The generated documents deliberately carry many distinct undeclared
//! attribute names, so a tiny cap genuinely overflows: query-relevant
//! names then travel as `OVERFLOW` + literal spelling through buffering,
//! projection descent and serialisation.

use flux_bench::run_engine_with;
use fluxquery::{EngineKind, Options, Parallelism, RunStats, PAPER_WEAK_DTD};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;
const FILTER: &str =
    r#"<hits>{ for $b in $ROOT/bib/book return if (exists($b/author)) then $b else () }</hits>"#;

/// A weak-DTD-valid bibliography whose elements carry undeclared
/// attributes with a wide name vocabulary — the part of the alphabet a
/// tiny interner cap overflows (declared names are pre-seeded from the
/// DTD and always resolve).
fn noisy_doc(books: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut doc = String::from("<bib>");
    for b in 0..books {
        doc.push_str(&format!("<book meta{}=\"m\">", rng.gen_range(0..500)));
        for _ in 0..rng.gen_range(0usize..4) {
            if rng.gen_bool(0.5) {
                doc.push_str(&format!(
                    "<title tag{}=\"t\">Title {b}-{}</title>",
                    rng.gen_range(0..500),
                    rng.gen_range(0..100)
                ));
            } else {
                doc.push_str(&format!(
                    "<author id{}=\"a\" ref{}=\"r\">Author {b}-{}</author>",
                    rng.gen_range(0..500),
                    rng.gen_range(0..500),
                    rng.gen_range(0..100)
                ));
            }
        }
        doc.push_str("</book>");
    }
    doc.push_str("</bib>");
    doc
}

/// The observable facts of one run.
fn verdict(stats: &RunStats) -> (usize, usize, u64, u64) {
    (
        stats.peak_buffer_bytes,
        stats.peak_buffer_nodes,
        stats.total_buffered_bytes,
        stats.events,
    )
}

/// Every engine/parallelism configuration under test, with a label.
fn configurations() -> Vec<(String, EngineKind, Parallelism)> {
    vec![
        ("flux".into(), EngineKind::Flux, Parallelism::Sequential),
        (
            "flux-shards-1".into(),
            EngineKind::Flux,
            Parallelism::Shards(1),
        ),
        (
            "flux-shards-2".into(),
            EngineKind::Flux,
            Parallelism::Shards(2),
        ),
        (
            "projection".into(),
            EngineKind::Projection,
            Parallelism::Sequential,
        ),
        ("dom".into(), EngineKind::Dom, Parallelism::Sequential),
    ]
}

fn options(cap: Option<usize>, parallelism: Parallelism) -> Options {
    let mut o = match cap {
        Some(cap) => Options::new().max_symbols(cap),
        None => Options::new(),
    };
    o.parallelism = parallelism;
    o
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// For every engine and shard count, a tiny interner cap leaves the
    /// output bytes and the run statistics byte-for-byte identical to the
    /// unbounded run.
    #[test]
    fn bounded_interner_never_changes_results(
        seed in 0u64..10_000,
        books in 1usize..24,
        cap in 0usize..6,
        query_pick in 0usize..2,
    ) {
        let doc = noisy_doc(books, seed);
        let query = if query_pick == 0 { Q3 } else { FILTER };
        for (label, kind, parallelism) in configurations() {
            let unbounded = run_engine_with(
                kind, query, PAPER_WEAK_DTD, doc.as_bytes(), &options(None, parallelism),
            ).unwrap_or_else(|e| panic!("{label} unbounded failed: {e}"));
            let bounded = run_engine_with(
                kind, query, PAPER_WEAK_DTD, doc.as_bytes(), &options(Some(cap), parallelism),
            ).unwrap_or_else(|e| panic!("{label} cap={cap} failed: {e}"));
            prop_assert_eq!(
                &bounded.output, &unbounded.output,
                "{} output changed under max_symbols={} (seed {}, books {})",
                label, cap, seed, books
            );
            prop_assert_eq!(
                verdict(&bounded.stats), verdict(&unbounded.stats),
                "{} stats changed under max_symbols={} (seed {}, books {})",
                label, cap, seed, books
            );
        }
    }
}

/// Errors are part of the observable behaviour too: an invalid document
/// must fail with the *same* rendered error whether or not the interner is
/// bounded, sequentially and sharded.
#[test]
fn bounded_interner_preserves_errors() {
    // `pamphlet` is not declared in the weak DTD: validation rejects it at
    // the same position in every configuration.
    let doc = "<bib><book><title>T</title></book><pamphlet/></bib>";
    for (label, kind, parallelism) in configurations() {
        let unbounded = run_engine_with(
            kind,
            Q3,
            PAPER_WEAK_DTD,
            doc.as_bytes(),
            &options(None, parallelism),
        );
        let bounded = run_engine_with(
            kind,
            Q3,
            PAPER_WEAK_DTD,
            doc.as_bytes(),
            &options(Some(0), parallelism),
        );
        match (unbounded, bounded) {
            (Err(u), Err(b)) => {
                assert_eq!(
                    u.to_string(),
                    b.to_string(),
                    "{label} error message changed"
                );
            }
            // The baselines do not validate; both modes must then succeed
            // with identical output.
            (Ok(u), Ok(b)) => assert_eq!(u.output, b.output, "{label} output changed"),
            (u, b) => panic!(
                "{label} verdict changed under the bounded interner: unbounded {:?}, bounded {:?}",
                u.map(|o| o.output).map_err(|e| e.to_string()),
                b.map(|o| o.output).map_err(|e| e.to_string()),
            ),
        }
    }
}

/// A document with mismatched tags whose names all overflow a zero cap:
/// errors must keep their exact sequential message and position under
/// sharding + bounding. In particular, two overflowed names must *not*
/// balance just because both carry the sentinel — the non-validating
/// engines reach the mismatch and must name both tags; the FluX engine
/// rejects the undeclared element first, with the same message in every
/// configuration.
#[test]
fn overflowed_tag_mismatch_still_detected() {
    let doc = "<bib><book><zzfirst>x</zzsecond></book></bib>";
    let mut flux_errors = Vec::new();
    for (label, kind, parallelism) in configurations() {
        let bounded = run_engine_with(
            kind,
            Q3,
            PAPER_WEAK_DTD,
            doc.as_bytes(),
            &options(Some(0), parallelism),
        );
        let unbounded = run_engine_with(
            kind,
            Q3,
            PAPER_WEAK_DTD,
            doc.as_bytes(),
            &options(None, parallelism),
        );
        let err = bounded.err().expect("the document must fail").to_string();
        let err_unbounded = unbounded.err().expect("the document must fail").to_string();
        assert_eq!(err, err_unbounded, "{label}: bounding changed the error");
        match kind {
            EngineKind::Flux => flux_errors.push(err),
            // DOM and projection do not validate: they stream up to the
            // well-formedness flaw and must name both overflowed tags.
            _ => assert!(
                err.contains("zzfirst") && err.contains("zzsecond"),
                "{label}: error must name both tags: {err}"
            ),
        }
    }
    // FluX sequential and both shard counts agree byte-for-byte.
    assert_eq!(flux_errors[0], flux_errors[1]);
    assert_eq!(flux_errors[0], flux_errors[2]);
}
