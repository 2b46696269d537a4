//! E6 — ablation bench: loop merging (algebraic rule R1) on vs. off on the
//! paper's two-publisher-loops example.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flux_bench::Domain;
use fluxquery_core::{FluxEngine, Input, Options};
use std::sync::Arc;

const QUERY: &str = r#"<out>{ for $b in $ROOT/bib/book return
    <r>{ for $x in $b/publisher return <a>{$x}</a> }
       { for $y in $b/publisher return <bb>{$y}</bb> }</r> }</out>"#;

fn ablation_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_ablation_merge");
    let doc = Arc::new(Domain::BibFig1.document(8.0, 42).into_bytes());
    group.throughput(Throughput::Bytes(doc.len() as u64));
    for (label, options) in [
        ("optimized", Options::default()),
        ("unoptimized", Options::new().algebraic_optimizer(false)),
    ] {
        let engine = FluxEngine::compile(QUERY, Domain::BibFig1.dtd(), &options).expect("compile");
        group.bench_with_input(BenchmarkId::new(label, "fig1"), &doc, |b, doc| {
            b.iter(|| {
                let mut out = Vec::new();
                engine
                    .run_input(Input::from_shared_bytes(Arc::clone(doc)), &mut out)
                    .expect("run");
                out.len()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = ablation_merge
}
criterion_main!(benches);
