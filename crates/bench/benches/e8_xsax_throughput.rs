//! E8 — XSAX event throughput: raw well-formedness parsing vs. DTD
//! validation vs. validation with registered past queries.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flux_bench::Domain;
use flux_dtd::Dtd;
use flux_xml::{RawEvent, XmlReader};
use flux_xsax::{PastLabels, XsaxParser};

fn xsax_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_xsax_throughput");
    let doc = Domain::BibFig1.document(8.0, 42);
    let dtd = Dtd::parse(Domain::BibFig1.dtd()).expect("dtd");
    group.throughput(Throughput::Bytes(doc.len() as u64));

    group.bench_function("raw_parse", |b| {
        b.iter(|| {
            let mut n = 0u64;
            let mut reader = XmlReader::new(doc.as_bytes());
            let mut ev = RawEvent::new();
            while reader.next_into(&mut ev).expect("parse") {
                n += 1;
            }
            n
        })
    });

    group.bench_function("xsax_validate", |b| {
        b.iter(|| {
            let mut n = 0u64;
            let mut parser = XsaxParser::new(doc.as_bytes(), &dtd).expect("xsax");
            while parser.next_step().expect("validate").is_some() {
                n += 1;
            }
            n
        })
    });

    let book = dtd.lookup("book").expect("book");
    let title = dtd.lookup("title").expect("title");
    let author = dtd.lookup("author").expect("author");
    group.bench_function("xsax_with_past", |b| {
        b.iter(|| {
            let mut n = 0u64;
            let mut parser = XsaxParser::new(doc.as_bytes(), &dtd).expect("xsax");
            parser
                .register_past(book, PastLabels::labels([title, author]))
                .expect("register");
            while parser.next_step().expect("validate").is_some() {
                n += 1;
            }
            n
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = xsax_throughput
}
criterion_main!(benches);
