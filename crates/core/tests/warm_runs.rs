//! Proof that `FluxEngine` runs are warm: a run after the first reuses the
//! previous run's pipeline storage instead of rebuilding it, and what the
//! engine keeps between runs stays bounded.
//!
//! Three phases, all on one engine compiled for XMP-Q3 over the paper's
//! weak DTD (`book (title|author)*`, authors buffered per book):
//!
//! * (a) a warm `run_input` of a four-book message makes at most
//!   [`WARM_RUN_ALLOCATIONS`] allocator calls, and the same number at run
//!   10 and at run 1000 — set-up is paid once per engine, not per run;
//! * (b) a document with a 1 MiB text node grows the reader's scratch and
//!   the arena's spare pool, but once the next message has run, the live
//!   heap is within [`RETENTION_SLACK`] of what the message alone leaves:
//!   outsized buffers are released before the scratch is pooled;
//! * (c) 1000 messages, each minting its own undeclared attribute name,
//!   leave the live heap flat: the interner is truncated back to its seed
//!   between runs.
//!
//! Counts are minima over windows of runs, as in the runtime's
//! `zero_alloc.rs` proofs: the counter is process-global, so a single run
//! can pick up a stray allocation from the test harness; a real per-run
//! cost repeats in every run. One test per file for the same reason.

// The counting allocator is the one place the test needs `unsafe`: it
// wraps `System` one-to-one and adds relaxed atomic bookkeeping.
#![allow(unsafe_code)]

use flux_dtd::PAPER_WEAK_DTD;
use fluxquery_core::{FluxEngine, Input, Options};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth counts as an allocation: a buffer regrown every run is
        // a real per-run heap cost.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

/// Allocator calls a warm run of the four-book message may make. What is
/// left is per-run plumbing outside the pipeline: resolving the `Input`
/// into a boxed reader, and the nodes the buffer arena creates afresh
/// after its document was emptied.
const WARM_RUN_ALLOCATIONS: usize = 16;

/// How much more live heap a pooled scratch may hold after an outsized
/// document than after the message alone.
const RETENTION_SLACK: usize = 16 * 1024;

/// A four-book weak-DTD message (~500 bytes), authors before and after
/// the title; `attr` adds an undeclared attribute to the first book.
fn message(attr: Option<&str>) -> Arc<Vec<u8>> {
    let mut doc = String::from("<bib>");
    for i in 0..4 {
        match (i, attr) {
            (0, Some(name)) => write!(doc, "<book {name}=\"v\">").unwrap(),
            _ => doc.push_str("<book>"),
        }
        for a in 0..i % 3 + 1 {
            write!(doc, "<author>Author {i} {a}</author>").unwrap();
        }
        write!(doc, "<title>A title for book number {i}</title>").unwrap();
        if i % 2 == 0 {
            write!(doc, "<author>Late author {i}</author>").unwrap();
        }
        doc.push_str("</book>");
    }
    doc.push_str("</bib>");
    Arc::new(doc.into_bytes())
}

fn run(engine: &FluxEngine, doc: &Arc<Vec<u8>>) {
    let input = Input::from_shared_bytes(Arc::clone(doc));
    let stats = engine
        .run_input(input, std::io::sink())
        .expect("Q3 runs over a valid weak-DTD document");
    assert!(stats.output_bytes > 0 && stats.peak_buffer_bytes > 0);
}

/// Allocator calls of one run, as the minimum over a window of five runs.
fn run_allocations(engine: &FluxEngine, doc: &Arc<Vec<u8>>) -> usize {
    (0..5)
        .map(|_| {
            let input = Input::from_shared_bytes(Arc::clone(doc));
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            engine
                .run_input(input, std::io::sink())
                .expect("Q3 runs over a valid weak-DTD document");
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

/// Live heap after a run of `doc`, as the minimum over a window of five
/// runs.
fn live_after(engine: &FluxEngine, doc: &Arc<Vec<u8>>) -> usize {
    (0..5)
        .map(|_| {
            run(engine, doc);
            LIVE_BYTES.load(Ordering::Relaxed)
        })
        .min()
        .unwrap()
}

#[test]
fn warm_runs_reuse_their_scratch_and_keep_it_bounded() {
    let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new()).unwrap();
    let msg = message(None);

    // (a) Warm runs allocate a small, constant number of times.
    run(&engine, &msg);
    for _ in 0..8 {
        run(&engine, &msg);
    }
    let at_10 = run_allocations(&engine, &msg);
    for _ in 15..995 {
        run(&engine, &msg);
    }
    let at_1000 = run_allocations(&engine, &msg);
    assert!(
        at_10 <= WARM_RUN_ALLOCATIONS,
        "a warm run of a four-book message made {at_10} allocator calls \
         (bound {WARM_RUN_ALLOCATIONS})"
    );
    assert_eq!(
        at_10, at_1000,
        "warm runs drift: {at_10} allocator calls at run 10, {at_1000} at run 1000"
    );

    // (b) One outsized document does not stay resident in the pool.
    let baseline = live_after(&engine, &msg);
    let big = {
        let mut doc = String::from("<bib><book><author>");
        doc.push_str(&"outsized text ".repeat(1 << 20).as_str()[..1 << 20]);
        doc.push_str("</author><title>T</title></book></bib>");
        Arc::new(doc.into_bytes())
    };
    run(&engine, &big);
    drop(big);
    let after_big = live_after(&engine, &msg);
    assert!(
        after_big <= baseline + RETENTION_SLACK,
        "a 1 MiB text node left {} bytes resident past the message's {baseline} \
         (bound {RETENTION_SLACK})",
        after_big.saturating_sub(baseline)
    );

    // (c) Minted names are forgotten between runs.
    let minted: Vec<_> = (0..1000)
        .map(|i| message(Some(&format!("mint{i:05}"))))
        .collect();
    for doc in &minted[..10] {
        run(&engine, doc);
    }
    let live_10 = LIVE_BYTES.load(Ordering::Relaxed);
    for doc in &minted[10..] {
        run(&engine, doc);
    }
    let live_1000 = LIVE_BYTES.load(Ordering::Relaxed);
    assert!(
        live_1000 <= live_10,
        "live heap grew from {live_10} to {live_1000} bytes over 990 messages \
         minting distinct attribute names"
    );
}
