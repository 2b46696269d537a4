//! Memory-architecture assertions across engines: the shapes the paper's
//! evaluation reports (FluX flat in document size; projection and DOM
//! linear; FluX ≤ projection ≤ DOM).

use flux_bench::{run_engine, run_engine_with, workload, Domain, Q3};
use fluxquery::{EngineKind, Options};

fn peak(kind: EngineKind, scale: f64) -> usize {
    let doc = Domain::BibWeak.document(scale, 42);
    run_engine(kind, Q3, Domain::BibWeak.dtd(), doc.as_bytes())
        .unwrap()
        .stats
        .peak_buffer_bytes
}

#[test]
fn flux_memory_flat_in_document_size() {
    let small = peak(EngineKind::Flux, 0.2);
    let large = peak(EngineKind::Flux, 4.0);
    // 20x the document, near-constant peak (different random book shapes
    // allow modest variation).
    assert!(
        (large as f64) < (small as f64) * 2.0,
        "flux peak grew with document size: {small} -> {large}"
    );
}

#[test]
fn dom_memory_linear_in_document_size() {
    let small = peak(EngineKind::Dom, 0.2);
    let large = peak(EngineKind::Dom, 4.0);
    assert!(
        large > small * 10,
        "dom peak should track document size: {small} -> {large}"
    );
}

#[test]
fn projection_memory_linear_but_below_dom() {
    let small = peak(EngineKind::Projection, 0.2);
    let large = peak(EngineKind::Projection, 4.0);
    assert!(
        large > small * 10,
        "projection peak should track document size: {small} -> {large}"
    );
    let dom = peak(EngineKind::Dom, 4.0);
    assert!(large <= dom, "projection {large} must not exceed dom {dom}");
}

#[test]
fn hierarchy_on_auction_join() {
    let q = flux_bench::catalog_query("AUC-JOIN");
    let doc = Domain::Auction.document(1.0, 7);
    let mut peaks = Vec::new();
    for kind in EngineKind::all() {
        let outcome = run_engine(kind, q.query, Domain::Auction.dtd(), doc.as_bytes()).unwrap();
        peaks.push((kind.label(), outcome.stats.peak_buffer_bytes));
    }
    let flux = peaks[0].1;
    let dom = peaks.iter().find(|(l, _)| *l == "dom").unwrap().1;
    assert!(
        flux < dom,
        "flux must buffer less than DOM on the join: {peaks:?}"
    );
}

#[test]
fn strong_dtd_strictly_cheaper_than_weak() {
    // The same query on equivalent data: schema knowledge must pay off.
    let weak_doc = Domain::BibWeak.document(1.0, 9);
    let strong_doc = Domain::BibFig1.document(1.0, 9);
    let weak = run_engine(
        EngineKind::Flux,
        Q3,
        Domain::BibWeak.dtd(),
        weak_doc.as_bytes(),
    )
    .unwrap()
    .stats
    .peak_buffer_bytes;
    let strong = run_engine(
        EngineKind::Flux,
        Q3,
        Domain::BibFig1.dtd(),
        strong_doc.as_bytes(),
    )
    .unwrap()
    .stats
    .peak_buffer_bytes;
    assert!(
        strong < weak,
        "Figure 1 DTD must reduce buffering: strong {strong} vs weak {weak}"
    );
}

#[test]
fn name_mint_adversary_flat_under_bounded_interner() {
    // The name-minting adversary grows the distinct-name vocabulary
    // linearly with the document. Under a bounded interner the engine's
    // peak buffer must stay flat regardless: minted names the query never
    // reads must not reach the buffer store's dictionary, and the stream
    // interner itself is capped.
    let w = workload("name_mint");
    assert!(w.adversarial_names, "registry marks the adversary");
    let peak = |scale: f64| {
        let doc = w.document(scale, 42);
        run_engine_with(
            EngineKind::Flux,
            w.query.expect("name_mint runs the engine tier"),
            w.dtd.expect("name_mint has a DTD"),
            doc.as_bytes(),
            &Options::new().max_symbols(64),
        )
        .unwrap()
        .stats
        .peak_buffer_bytes
    };
    let small = peak(0.5);
    let large = peak(8.0); // 16x the books — and 16x the minted vocabulary
    assert!(
        (large as f64) < (small as f64) * 2.0,
        "bounded-interner peak grew with minted names: {small} -> {large}"
    );
}

#[test]
fn total_buffer_traffic_reported() {
    let doc = Domain::BibWeak.document(1.0, 3);
    let outcome = run_engine(EngineKind::Flux, Q3, Domain::BibWeak.dtd(), doc.as_bytes()).unwrap();
    // Authors of every book pass through the buffer, so the total traffic
    // exceeds the peak.
    assert!(outcome.stats.total_buffered_bytes > outcome.stats.peak_buffer_bytes as u64);
    assert!(outcome.stats.events > 0);
    assert!(outcome.stats.output_bytes > 0);
}
