//! Clocks, the host-speed yardstick and order statistics.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// A fixed scan over XML bytes, owned by the benchmark and independent of
/// the engine: it counts tags, hashes the bytes inside them and tallies
/// the bytes outside them. Its speed is the yardstick for how fast the
/// host runs at a given moment.
fn reference_scan(bytes: &[u8], table: &mut [u32]) -> u64 {
    let (mut tags, mut in_tag, mut hash) = (0u64, false, 0xCBF2_9CE4_8422_2325u64);
    for &b in bytes {
        match b {
            b'<' => {
                in_tag = true;
                tags += 1;
                table[(hash >> 48) as usize] += 1;
            }
            b'>' => in_tag = false,
            _ if in_tag => hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3),
            _ => {
                let slot = &mut table[(hash as usize ^ usize::from(b)) & (TABLE - 1)];
                *slot = slot.wrapping_add(u32::from(b));
            }
        }
    }
    hash ^ tags ^ u64::from(table[usize::from(bytes.first().copied().unwrap_or(0))])
}

/// Entries in the scan's table. Its 256 KiB keep part of the scan's
/// working set in the second-level cache, as the engine's tables, buffers
/// and code are: a scan without one slows less than the engine when a
/// neighbour shares the core.
const TABLE: usize = 1 << 16;

/// Nanoseconds per byte the reference scan takes over `docs` right now:
/// the host's speed factor. Times divided by it are in "reference-scan
/// nanoseconds", which stay put while a shared host slows down or speeds
/// up under its other tenants.
pub fn host_ns_per_byte<'a>(docs: impl IntoIterator<Item = &'a [u8]>) -> f64 {
    let mut table = vec![0u32; TABLE];
    let start = Instant::now();
    let (mut bytes, mut acc) = (0usize, 0u64);
    for doc in docs {
        acc ^= reference_scan(black_box(doc), &mut table);
        bytes += doc.len();
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / bytes.max(1) as f64
}

/// CPU time the calling thread has run, in ns: the first field of
/// `/proc/thread-self/schedstat`. `None` where the kernel does not expose
/// it.
pub fn thread_cpu_ns() -> Option<u64> {
    let text = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// The `q`-quantile (0..=1) of `sorted`, linearly interpolated between
/// the closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.99) - 3.97).abs() < 1e-9);
    }

    #[test]
    fn host_speed_is_a_positive_rate() {
        let doc = b"<bib><book><title>T</title></book></bib>".repeat(1000);
        let ns = host_ns_per_byte([&doc[..]]);
        assert!(ns > 0.0 && ns.is_finite());
        let a = reference_scan(&doc, &mut vec![0u32; TABLE]);
        assert_ne!(a, reference_scan(&doc[1..], &mut vec![0u32; TABLE]));
    }

    #[test]
    fn thread_cpu_clock_advances() {
        let Some(start) = thread_cpu_ns() else { return };
        let mut x = 0u64;
        while thread_cpu_ns().unwrap() < start + 20_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }
}
