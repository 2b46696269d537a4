//! Proof that the composed FluX event loop — XSAX validation and past
//! tracking, handler dispatch, buffer population, `on-first` evaluation
//! and serialisation, all driven by `execute_plan` — allocates nothing per
//! element in the steady state.
//!
//! The per-layer proofs (`zero_alloc.rs`, `zero_alloc_cursor.rs`, and the
//! reader's in `flux_xml`) each cover one layer in isolation; this one
//! covers the loop that composes them. It runs Q3 over the paper's
//! weak-DTD bibliography, where authors may precede the title and must be
//! buffered per book, at N books and at 8N books. A run has a fixed set-up
//! cost (reader window, symbol-table clone, arena, plan slots, pools
//! warming to the largest book), but no allocation may scale with the
//! document: both sizes must allocate exactly the same number of times.
//!
//! N is large enough for the warm-up to finish inside the smaller
//! document. The slowest part is the reader's copy path for text runs that
//! straddle a scanner-window boundary: its scratch buffers grow the first
//! time each run length lands on a boundary, which takes a few hundred
//! books of this shape (~100 KB) to happen for every length.
//!
//! One test per file: no concurrent test can perturb the counter.

// The counting allocator is the one place the test needs `unsafe`: it
// wraps `System` one-to-one and adds a relaxed atomic increment.
#![allow(unsafe_code)]

use flux_dtd::{Dtd, PAPER_WEAK_DTD};
use flux_lang::{compile, CompileOptions};
use flux_runtime::{compile_plan, execute_plan, Plan};
use flux_xsax::XsaxConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth counts as an allocation: a stack or pool that regrows
        // per element would be a real per-element heap cost.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

/// A weak-DTD bibliography of `books` books. The book shapes cycle
/// through a fixed set (one to three authors before the title, sometimes
/// one after it), so every shape appears within the first few dozen books
/// and a larger document only repeats them.
fn bib(books: usize) -> String {
    let mut doc = String::from("<bib>");
    for i in 0..books {
        doc.push_str("<book>");
        for a in 0..i % 3 + 1 {
            write!(doc, "<author>Author {} {a}</author>", i % 7).unwrap();
        }
        write!(doc, "<title>Title number {}</title>", i % 5).unwrap();
        if i % 2 == 0 {
            write!(doc, "<author>Late author {}</author>", i % 11).unwrap();
        }
        doc.push_str("</book>");
    }
    doc.push_str("</bib>");
    doc
}

/// Allocations of one `execute_plan` run over `doc`, as the minimum over
/// several runs: the global counter also sees the test harness's own
/// threads, so a single run can pick up a stray allocation. A real
/// per-element cost repeats in every run; the minimum is the clean figure.
fn run_allocations(plan: &Plan, dtd: &Dtd, doc: &str) -> usize {
    (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let stats = execute_plan(
                plan,
                dtd,
                doc.as_bytes(),
                std::io::sink(),
                XsaxConfig::default(),
            )
            .expect("Q3 runs over a valid weak-DTD document");
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert!(stats.output_bytes > 0 && stats.peak_buffer_bytes > 0);
            allocations
        })
        .min()
        .unwrap()
}

#[test]
fn composed_event_loop_allocations_do_not_scale_with_document_size() {
    let dtd = Dtd::parse(PAPER_WEAK_DTD).unwrap();
    let query = compile(Q3, &dtd, &CompileOptions::default()).unwrap();
    let plan = compile_plan(&query, &dtd).unwrap();
    const N: usize = 1000;
    let small = bib(N);
    let large = bib(8 * N);

    let small_allocations = run_allocations(&plan, &dtd, &small);
    let large_allocations = run_allocations(&plan, &dtd, &large);
    assert_eq!(
        small_allocations,
        large_allocations,
        "the composed event loop allocates per element: {small_allocations} allocations \
         over {N} books but {large_allocations} over {} books",
        8 * N
    );
}
