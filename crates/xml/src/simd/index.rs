//! The structural index: delta-encoded position lanes filled by the
//! vectorised prescan and consumed by the scanner, reader and shard
//! splitter.
//!
//! One [`DeltaLane`] per structural byte class records the absolute input
//! offsets of every occurrence, stored as `u32` deltas between consecutive
//! positions (gaps wider than a `u32` are bridged by gap markers, so the
//! lane addresses the full `u64` offset space while paying four bytes per
//! entry). Consumption is strictly monotone — the scanner only ever moves
//! forward — so every read is a cursor advance, never a search.

/// Marker entry: "advance the cursor base by [`GAP_SPAN`] bytes, there is
/// no structural position here". Real deltas are always `< u32::MAX`.
const GAP: u32 = u32::MAX;

/// How far one gap marker advances the accumulated base.
const GAP_SPAN: u64 = u32::MAX as u64;

/// One structural byte class: absolute positions, delta-encoded.
///
/// The lane is an append-only queue with a consuming cursor. `push` must
/// be called with strictly increasing positions; `peek`/`pop` and the
/// range helpers resolve deltas back to absolute `u64` offsets.
#[derive(Debug, Default)]
pub struct DeltaLane {
    /// Deltas between consecutive recorded positions ([`GAP`] = marker).
    deltas: Vec<u32>,
    /// Index of the next unconsumed entry.
    head: usize,
    /// Absolute position the delta at `head` is relative to.
    head_base: u64,
    /// Absolute position of the most recently pushed entry (push side).
    tail_abs: u64,
}

impl DeltaLane {
    /// Appends an absolute position. Positions must be strictly
    /// increasing across the life of the lane (the prescan sweeps the
    /// input once, in order).
    #[inline]
    pub fn push(&mut self, abs: u64) {
        debug_assert!(
            self.deltas.is_empty() || abs > self.tail_abs,
            "lane positions must be strictly increasing"
        );
        let mut delta = abs - self.tail_abs;
        while delta >= GAP_SPAN {
            self.deltas.push(GAP);
            delta -= GAP_SPAN;
        }
        self.deltas.push(delta as u32);
        self.tail_abs = abs;
    }

    /// The next unconsumed position, without consuming it. Gap markers
    /// are folded into the cursor base as they are crossed.
    #[inline]
    pub fn peek(&mut self) -> Option<u64> {
        while let Some(&d) = self.deltas.get(self.head) {
            if d != GAP {
                return Some(self.head_base + d as u64);
            }
            self.head += 1;
            self.head_base += GAP_SPAN;
        }
        None
    }

    /// Consumes and returns the next position.
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        let abs = self.peek()?;
        self.head += 1;
        self.head_base = abs;
        Some(abs)
    }

    /// First recorded position `>= from`, consuming everything before it.
    /// Queries must be monotone non-decreasing (enforced by the scanner's
    /// forward-only consumption).
    #[inline]
    pub fn next_at_or_after(&mut self, from: u64) -> Option<u64> {
        loop {
            let abs = self.peek()?;
            if abs >= from {
                return Some(abs);
            }
            self.pop();
        }
    }

    /// Consumes every position in `[from, to)`, returning how many there
    /// were and the last one. Positions before `from` are consumed
    /// silently (they belong to bytes accounted for elsewhere).
    #[inline]
    pub fn take_range(&mut self, from: u64, to: u64) -> (usize, Option<u64>) {
        let mut count = 0usize;
        let mut last = None;
        while let Some(abs) = self.peek() {
            if abs >= to {
                break;
            }
            self.pop();
            if abs >= from {
                count += 1;
                last = Some(abs);
            }
        }
        (count, last)
    }

    /// Consumes every position `< bound` without reporting it. Used to
    /// discard entries for bytes the scanner has already moved past, so
    /// cursors start at the current position and lanes stay bounded by
    /// the window size, not the document size.
    #[inline]
    pub fn drop_before(&mut self, bound: u64) {
        while let Some(abs) = self.peek() {
            if abs >= bound {
                break;
            }
            self.pop();
        }
    }

    /// A read-only cursor over the unconsumed entries: peeking ahead
    /// without committing, so a speculative walk (e.g. the reader's
    /// quote-parity tag-end search) can bail and retry after a refill
    /// with nothing lost.
    #[inline]
    pub fn cursor(&self) -> LaneCursor<'_> {
        LaneCursor {
            deltas: &self.deltas,
            at: self.head,
            base: self.head_base,
        }
    }

    /// Releases the storage of consumed entries, keeping capacity for
    /// reuse — the steady-state parse loop allocates nothing once every
    /// lane has grown to its per-window high-water mark.
    pub fn release_consumed(&mut self) {
        if self.head == self.deltas.len() {
            self.deltas.clear();
        } else if self.head > 0 {
            self.deltas.drain(..self.head);
        }
        self.head = 0;
    }

    /// Returns the lane to its freshly-created state for the next input,
    /// keeping at most `max_bytes` of its storage.
    pub fn reset(&mut self, max_bytes: usize) {
        crate::recycle::reuse(&mut self.deltas, max_bytes);
        self.head = 0;
        self.head_base = 0;
        self.tail_abs = 0;
    }

    /// Number of unconsumed entries (gap markers excluded from positions
    /// but included here; used only by tests and diagnostics).
    pub fn pending(&self) -> usize {
        self.deltas.len() - self.head
    }
}

/// Non-consuming iterator over a lane's unconsumed positions.
pub struct LaneCursor<'a> {
    deltas: &'a [u32],
    at: usize,
    base: u64,
}

impl Iterator for LaneCursor<'_> {
    type Item = u64;

    /// The next position, advancing only this cursor.
    #[inline]
    fn next(&mut self) -> Option<u64> {
        while let Some(&d) = self.deltas.get(self.at) {
            self.at += 1;
            if d != GAP {
                self.base += d as u64;
                return Some(self.base);
            }
            self.base += GAP_SPAN;
        }
        None
    }
}

impl LaneCursor<'_> {
    /// The first remaining position `>= from`.
    #[inline]
    pub fn next_at_or_after(&mut self, from: u64) -> Option<u64> {
        self.find(|&abs| abs >= from)
    }
}

/// Structural byte classes the prescan records.
///
/// `Quote` merges `"` and `'` into one lane — the consumer knows which
/// quote character opened the construct and checks the byte itself, which
/// keeps the prescan at one comparison pair instead of two lanes with
/// separate cursors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `<` — markup start candidates.
    Lt,
    /// `>` — markup end candidates (may sit inside quoted values).
    Gt,
    /// `"` or `'` — quote-parity boundaries inside markup.
    Quote,
    /// `&` — entity/character reference starts.
    Amp,
    /// `\n` — newline positions feeding line/column accounting.
    Newline,
}

/// The structural index: one delta lane per byte class, covering a
/// contiguous, monotonically growing span of the input.
#[derive(Debug, Default)]
pub struct StructuralIndex {
    pub lt: DeltaLane,
    pub gt: DeltaLane,
    pub quote: DeltaLane,
    pub amp: DeltaLane,
    pub nl: DeltaLane,
}

impl StructuralIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// The lane for `class`.
    #[inline]
    pub fn lane(&mut self, class: Class) -> &mut DeltaLane {
        match class {
            Class::Lt => &mut self.lt,
            Class::Gt => &mut self.gt,
            Class::Quote => &mut self.quote,
            Class::Amp => &mut self.amp,
            Class::Newline => &mut self.nl,
        }
    }

    /// The lane indexing `byte`, when one exists.
    #[inline]
    pub fn lane_for_byte(&mut self, byte: u8) -> Option<&mut DeltaLane> {
        match byte {
            b'<' => Some(&mut self.lt),
            b'>' => Some(&mut self.gt),
            b'"' | b'\'' => Some(&mut self.quote),
            b'&' => Some(&mut self.amp),
            b'\n' => Some(&mut self.nl),
            _ => None,
        }
    }

    /// Discards positions `< bound` in every lane — everything behind the
    /// scanner's current offset is structurally dead.
    pub fn drop_before(&mut self, bound: u64) {
        self.lt.drop_before(bound);
        self.gt.drop_before(bound);
        self.quote.drop_before(bound);
        self.amp.drop_before(bound);
        self.nl.drop_before(bound);
    }

    /// Returns every lane to its freshly-created state for the next
    /// input, keeping at most `max_bytes` of storage per lane.
    pub fn reset(&mut self, max_bytes: usize) {
        self.lt.reset(max_bytes);
        self.gt.reset(max_bytes);
        self.quote.reset(max_bytes);
        self.amp.reset(max_bytes);
        self.nl.reset(max_bytes);
    }

    /// Releases consumed entries in every lane (called when the scanner
    /// compacts its window; capacities are kept).
    pub fn release_consumed(&mut self) {
        self.lt.release_consumed();
        self.gt.release_consumed();
        self.quote.release_consumed();
        self.amp.release_consumed();
        self.nl.release_consumed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_round_trip() {
        let mut lane = DeltaLane::default();
        let positions = [0u64, 1, 7, 8, 1000, 1001, 1_000_000];
        for &p in &positions {
            lane.push(p);
        }
        let mut out = Vec::new();
        while let Some(p) = lane.pop() {
            out.push(p);
        }
        assert_eq!(out, positions);
    }

    #[test]
    fn gap_markers_bridge_u32_overflow() {
        // Positions more than u32::MAX apart exercise the gap markers
        // without allocating 4 GiB of input.
        let mut lane = DeltaLane::default();
        let positions = [
            5u64,
            5 + GAP_SPAN,
            5 + GAP_SPAN + 1,
            20 + 3 * GAP_SPAN,
            u64::from(u32::MAX) * 5 + 17,
        ];
        for &p in &positions {
            lane.push(p);
        }
        let collected: Vec<u64> = std::iter::from_fn(|| lane.pop()).collect();
        assert_eq!(collected, positions);
    }

    #[test]
    fn next_at_or_after_consumes_prefix() {
        let mut lane = DeltaLane::default();
        for p in [2u64, 4, 9, 15] {
            lane.push(p);
        }
        assert_eq!(lane.next_at_or_after(0), Some(2));
        assert_eq!(lane.next_at_or_after(3), Some(4));
        assert_eq!(lane.next_at_or_after(10), Some(15));
        assert_eq!(lane.next_at_or_after(16), None);
    }

    #[test]
    fn take_range_counts_and_reports_last() {
        let mut lane = DeltaLane::default();
        for p in [1u64, 3, 5, 7, 11] {
            lane.push(p);
        }
        assert_eq!(lane.take_range(0, 4), (2, Some(3)));
        // Entries below `from` (none remain) are skipped silently.
        assert_eq!(lane.take_range(6, 12), (2, Some(11)));
        assert_eq!(lane.take_range(12, 100), (0, None));
    }

    #[test]
    fn release_consumed_keeps_pending_entries() {
        let mut lane = DeltaLane::default();
        for p in [10u64, 20, 30, 40] {
            lane.push(p);
        }
        assert_eq!(lane.pop(), Some(10));
        assert_eq!(lane.pop(), Some(20));
        lane.release_consumed();
        assert_eq!(lane.pending(), 2);
        assert_eq!(lane.pop(), Some(30));
        assert_eq!(lane.pop(), Some(40));
        lane.release_consumed();
        assert_eq!(lane.pending(), 0);
        // Pushes keep working across releases.
        lane.push(50);
        assert_eq!(lane.pop(), Some(50));
    }

    #[test]
    fn lane_for_byte_covers_all_classes() {
        let mut idx = StructuralIndex::new();
        for b in [b'<', b'>', b'"', b'\'', b'&', b'\n'] {
            assert!(idx.lane_for_byte(b).is_some(), "byte {b}");
        }
        assert!(idx.lane_for_byte(b'x').is_none());
    }
}
