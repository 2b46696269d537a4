//! The untraced run: the end-to-end metrics a user of the engine sees.
//!
//! One client thread, closed loop: each document run starts when the
//! previous one has returned. A pass is one batch of documents; passes
//! cycle through the batches until the measuring time is up.
//!
//! Every time is reported in reference-scan units: divided by the host
//! speed factor ([`host_ns_per_byte`]) measured just before and just after
//! the timed work, so a time reads the same whether a shared host ran at
//! full or half speed. On a host where the scan takes 1 ns per byte the
//! units are plain seconds; the raw figures are printed alongside.

use crate::alloc;
use crate::measure::{host_ns_per_byte, median, quantile, thread_cpu_ns, Summary};
use crate::report::Outcome;
use crate::sink::{Digest, HashSink};
use crate::workloads::{Load, Spec};
use fluxquery_core::{FluxEngine, Input, Options};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Compiles timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 301;

pub fn run(spec: &Spec, load: &Load, seconds: f64, corrupt: bool) -> Outcome {
    let probe = load.probe();
    let mut host = host_ns_per_byte(probe.iter().copied());
    let mut compile_s = Vec::with_capacity(SETUP_REPS);
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let compiled = FluxEngine::compile(spec.query(), spec.dtd, &Options::new())
            .expect("the workload query compiles against its DTD");
        let raw = start.elapsed().as_secs_f64();
        let after = host_ns_per_byte(probe.iter().copied());
        compile_s.push(raw / ((host + after) / 2.0));
        host = after;
        engine = Some(compiled);
    }
    let engine = engine.expect("at least one compile");

    let mut out = Outcome::default();
    let mut sink = HashSink::new();
    if corrupt {
        sink.corrupt_next_output();
    }
    // Warm-up: one batch, checked and counted but not timed.
    for i in load.batches[0].clone() {
        let run = run_doc(&engine, &load.docs[i], load.oracle[i], &mut sink);
        out.count(run.ok);
    }

    let mut pass_mb_per_s = Vec::new();
    let mut raw_mb_per_s = Vec::new();
    let mut doc_us = Vec::new();
    let mut heap_peak = Vec::new();
    let mut peak_buffer = 0usize;
    let (mut docs, mut bytes, mut busy_s) = (0u64, 0u64, 0.0f64);
    let mut host_ns = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // The thread CPU clock advances in scheduler ticks, too coarse for one
    // pass: it is read once around all timed passes.
    let cpu_start = thread_cpu_ns();
    let mut cpu_outside = Duration::ZERO;
    let mut host = host_ns_per_byte(load.batch(0));
    for b in (0..load.batches.len()).cycle() {
        if Instant::now() >= deadline && !pass_mb_per_s.is_empty() {
            break;
        }
        let first_doc = doc_us.len();
        let start = Instant::now();
        for i in load.batches[b].clone() {
            // A failed run is counted and still timed: the result line
            // then says `correct: false` instead of going missing.
            let run = run_doc(&engine, &load.docs[i], load.oracle[i], &mut sink);
            out.count(run.ok);
            doc_us.push(run.wall.as_secs_f64() * 1e6);
            heap_peak.push(run.heap_peak as f64);
            peak_buffer = peak_buffer.max(run.peak_buffer);
        }
        let raw_s = start.elapsed().as_secs_f64();
        // Host speed after this pass, on the next pass's bytes: it is also
        // the next pass's "before".
        let scan = Instant::now();
        let after = host_ns_per_byte(load.batch((b + 1) % load.batches.len()));
        cpu_outside += scan.elapsed();
        let factor = (host + after) / 2.0;
        host = after;
        host_ns.push(factor);
        for us in &mut doc_us[first_doc..] {
            *us /= factor;
        }
        let pass_bytes = load.batch_bytes[b] as f64;
        raw_mb_per_s.push(pass_bytes / raw_s / 1e6);
        pass_mb_per_s.push(pass_bytes / (raw_s / factor) / 1e6);
        docs += load.batches[b].len() as u64;
        bytes += load.batch_bytes[b];
        busy_s += raw_s / factor;
    }
    // Without a per-thread CPU clock the passes' wall time stands in. The
    // reference scans are taken out as wall time: they never block.
    let cpu_ns = match (cpu_start, thread_cpu_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 - cpu_outside.as_nanos() as f64,
        _ => busy_s * 1e9,
    };
    let host = median(&host_ns);

    let mut sorted_us = doc_us.clone();
    sorted_us.sort_by(f64::total_cmp);
    out.metric("setup_s", median(&compile_s));
    out.metric("mb_per_s", median(&pass_mb_per_s));
    out.metric("cpu_ns_per_byte", cpu_ns / bytes as f64 / host);
    out.metric("doc_us_p50", quantile(&sorted_us, 0.5));
    out.metric("doc_us_p99", quantile(&sorted_us, 0.99));
    out.metric("docs_per_s", docs as f64 / busy_s);
    out.metric("peak_buffer_bytes", peak_buffer as f64);
    out.metric("heap_peak_bytes", median(&heap_peak));

    let setup = Summary::of(&compile_s);
    let mbps = Summary::of(&pass_mb_per_s);
    let raw = Summary::of(&raw_mb_per_s);
    let hosts = Summary::of(&host_ns);
    println!(
        "{}: {} document(s), {} bytes, {} batch(es); {} passes timed",
        spec.name,
        load.docs.len(),
        load.total_bytes,
        load.batches.len(),
        mbps.n
    );
    println!(
        "  host speed: reference scan {:.3} ns/B (q1 {:.3}, q3 {:.3})",
        hosts.median, hosts.q1, hosts.q3
    );
    println!(
        "  setup_s   median {:.6} (q1 {:.6}, q3 {:.6}, n {})",
        setup.median, setup.q1, setup.q3, setup.n
    );
    println!(
        "  mb_per_s  median {:.3} (q1 {:.3}, q3 {:.3}); raw wall-clock median {:.3} (q1 {:.3}, q3 {:.3})",
        mbps.median, mbps.q1, mbps.q3, raw.median, raw.q1, raw.q3
    );
    println!(
        "  doc latency over {} runs: p50 {:.1} us, p99 {:.1} us",
        sorted_us.len(),
        quantile(&sorted_us, 0.5),
        quantile(&sorted_us, 0.99)
    );
    println!(
        "  fail_ratio {} ({} failed of {} attempted)",
        out.fail_ratio(),
        out.failed,
        out.attempted
    );
    out
}

struct DocRun {
    /// The run returned and its output matched the reference.
    ok: bool,
    wall: Duration,
    heap_peak: usize,
    peak_buffer: usize,
}

/// One engine run over one document into `sink`, checked against
/// `expected`.
fn run_doc(
    engine: &FluxEngine,
    doc: &Arc<Vec<u8>>,
    expected: Digest,
    sink: &mut HashSink,
) -> DocRun {
    static REPORTED: AtomicBool = AtomicBool::new(false);
    sink.reset();
    let input = Input::from_shared_bytes(Arc::clone(doc));
    let heap_base = alloc::reset_peak();
    let start = Instant::now();
    let result = engine.run_input(input, &mut *sink);
    let wall = start.elapsed();
    let heap_peak = alloc::peak_above(heap_base);
    let (ok, peak_buffer) = match result {
        Ok(stats) => (sink.digest() == expected, stats.peak_buffer_bytes),
        Err(e) => {
            if !REPORTED.swap(true, Relaxed) {
                eprintln!("perfbench: run failed: {e}");
            }
            (false, 0)
        }
    };
    DocRun {
        ok,
        wall,
        heap_peak,
        peak_buffer,
    }
}
