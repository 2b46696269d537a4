//! Bounded recycling of per-run scratch.
//!
//! A compiled engine streams many documents, and every layer it drives
//! grows working storage as a run goes: the scanner window, name caches,
//! element stacks, spare-buffer pools. Layers hand that storage to the
//! next run instead of rebuilding it. Two rules keep the reuse invisible
//! and bounded:
//!
//! * a recycled container is emptied, so the next run starts from the
//!   state a fresh run would start from;
//! * a container that one outsized run grew past the retention bound (the
//!   configured scanner window) gives its allocation back, so one long
//!   token or one large buffered subtree does not stay resident for the
//!   engine's lifetime.

use std::mem::size_of;

/// A pooled buffer: something that can be emptied for reuse and reports
/// the heap it holds.
pub trait Pooled {
    /// Empties the buffer, keeping its allocation.
    fn clear_for_reuse(&mut self);
    /// Heap bytes the buffer holds (capacity-based).
    fn heap_bytes(&self) -> usize;
}

impl Pooled for String {
    fn clear_for_reuse(&mut self) {
        self.clear();
    }

    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<T> Pooled for Vec<T> {
    fn clear_for_reuse(&mut self) {
        self.clear();
    }

    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>()
    }
}

impl Pooled for crate::event::Attribute {
    fn clear_for_reuse(&mut self) {
        self.name.clear();
        self.value.clear();
    }

    fn heap_bytes(&self) -> usize {
        self.name.capacity() + self.value.capacity()
    }
}

/// Empties `buf` for the next run and releases its allocation when it
/// holds more than `max_bytes`.
pub fn reuse<B: Pooled + Default>(buf: &mut B, max_bytes: usize) {
    buf.clear_for_reuse();
    if buf.heap_bytes() > max_bytes {
        *buf = B::default();
    }
}

/// Empties every buffer in a spare pool and keeps them, in order, while
/// the pool's combined heap (its own slots included) stays within
/// `max_bytes`; the rest are released.
pub fn trim_pool<B: Pooled>(pool: &mut Vec<B>, max_bytes: usize) {
    let mut total = 0usize;
    pool.retain_mut(|buf| {
        buf.clear_for_reuse();
        total = total.saturating_add(size_of::<B>() + buf.heap_bytes());
        total <= max_bytes
    });
    if pool.heap_bytes() > max_bytes {
        pool.shrink_to_fit();
    }
}

/// Reuses an emptied vector's allocation for a vector of another element
/// type. The types must share a layout for the allocation to carry over
/// (otherwise this returns a new, empty vector); its use is shedding the
/// borrowed lifetime of the run that filled the vector, so the capacity
/// can be pooled with an owner that outlives that borrow.
pub fn relabel<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    // In-place collection: an empty source maps nothing and the
    // allocation is handed over when the layouts match.
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_keeps_small_and_releases_large() {
        let mut small = String::with_capacity(16);
        small.push_str("abc");
        reuse(&mut small, 64);
        assert!(small.is_empty());
        assert_eq!(small.capacity(), 16);
        let mut large = vec![0u32; 100];
        reuse(&mut large, 64);
        assert!(large.is_empty());
        assert_eq!(large.capacity(), 0);
    }

    #[test]
    fn trim_pool_bounds_combined_heap() {
        let mut pool: Vec<String> = (0..10).map(|_| "x".repeat(100)).collect();
        trim_pool(&mut pool, 400);
        assert!(pool.iter().all(String::is_empty));
        let held: usize = pool
            .iter()
            .map(|s| size_of::<String>() + s.capacity())
            .sum();
        assert!(held <= 400, "{held}");
        assert!(!pool.is_empty());
    }

    #[test]
    fn relabel_hands_the_allocation_over() {
        let value = 7u64;
        let mut borrowed: Vec<&u64> = Vec::with_capacity(32);
        borrowed.push(&value);
        let ptr = borrowed.as_ptr() as usize;
        let owned: Vec<&'static u64> = relabel(borrowed);
        assert!(owned.is_empty());
        assert_eq!(owned.capacity(), 32);
        assert_eq!(owned.as_ptr() as usize, ptr);
    }
}
