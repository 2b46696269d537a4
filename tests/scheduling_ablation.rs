//! The buffer-everything ablation must still be *correct* — it only loses
//! the memory advantage. Its output must match the scheduled engine on the
//! whole catalog.

use flux_bench::{catalog, Domain};
use fluxquery::{FluxEngine, Options};

#[test]
fn buffer_everything_is_correct_across_catalog() {
    for q in catalog() {
        let doc = q.domain.document(0.3, 5);
        let scheduled = FluxEngine::compile(q.query, q.domain.dtd(), &Options::default()).unwrap();
        let ablated =
            FluxEngine::compile(q.query, q.domain.dtd(), &Options::new().streaming(false)).unwrap();
        let (out_s, stats_s) = scheduled.run_to_string(&doc).unwrap();
        let (out_a, stats_a) = ablated.run_to_string(&doc).unwrap();
        assert_eq!(out_s, out_a, "{} diverged under the ablation", q.id);
        assert!(
            stats_s.peak_buffer_bytes <= stats_a.peak_buffer_bytes,
            "{}: scheduling must never buffer more ({} vs {})",
            q.id,
            stats_s.peak_buffer_bytes,
            stats_a.peak_buffer_bytes
        );
    }
}

#[test]
fn ablated_plans_have_no_streaming_handlers() {
    let q = flux_bench::Q3;
    let engine =
        FluxEngine::compile(q, Domain::BibFig1.dtd(), &Options::new().streaming(false)).unwrap();
    let printed = fluxquery::lang::pretty_flux(&engine.query().flux);
    assert!(
        !printed.contains("\n") || !printed.contains(" on book as"),
        "{printed}"
    );
    assert!(printed.contains("on-first"), "{printed}");
    assert!(engine.buffered_handler_count() >= 1);
}

#[test]
fn scheduling_gap_grows_with_document() {
    // The ablation's peak grows with document scale on the Fig. 1 DTD (it
    // buffers per book — actually per item — while the scheduled engine
    // stays flat).
    let q = flux_bench::Q3;
    let scheduled = FluxEngine::compile(q, Domain::BibWeak.dtd(), &Options::default()).unwrap();
    let ablated =
        FluxEngine::compile(q, Domain::BibWeak.dtd(), &Options::new().streaming(false)).unwrap();
    let doc = Domain::BibWeak.document(4.0, 9);
    let (_, s) = scheduled.run_to_string(&doc).unwrap();
    let (_, a) = ablated.run_to_string(&doc).unwrap();
    assert!(
        a.peak_buffer_bytes > s.peak_buffer_bytes * 20,
        "ablated {} vs scheduled {}",
        a.peak_buffer_bytes,
        s.peak_buffer_bytes
    );
}
