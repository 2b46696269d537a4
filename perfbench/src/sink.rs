//! The output sink every timed run writes into: it keeps no bytes, only
//! their count and a 64-bit hash, so output neither grows the heap nor
//! costs a copy. The hash is independent of how the writer chunks its
//! writes.

use std::io::{self, Write};

const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Length and hash of one run's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: u64,
    pub hash: u64,
}

#[derive(Default)]
pub struct HashSink {
    len: u64,
    state: u64,
    tail: [u8; 8],
    tail_len: usize,
    /// Flip the lowest bit of the next byte written (the benchmark's own
    /// check that a wrong output is caught).
    corrupt_next: bool,
}

impl HashSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new output, discarding the current one.
    pub fn reset(&mut self) {
        self.len = 0;
        self.state = 0;
        self.tail_len = 0;
    }

    /// Makes the next output differ from what the engine wrote.
    pub fn corrupt_next_output(&mut self) {
        self.corrupt_next = true;
    }

    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(23) ^ word).wrapping_mul(K);
    }

    /// The digest of everything written since the last reset.
    pub fn digest(&self) -> Digest {
        let mut last = [0u8; 8];
        last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        let mut state = (self.state.rotate_left(23) ^ u64::from_le_bytes(last)).wrapping_mul(K);
        state = (state ^ self.len).wrapping_mul(K);
        Digest {
            len: self.len,
            hash: state ^ (state >> 32),
        }
    }
}

impl Write for HashSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.corrupt_next {
            self.corrupt_next = false;
            let first = [buf[0] ^ 1];
            self.write_all(&first)?;
            self.write_all(&buf[1..])?;
            return Ok(buf.len());
        }
        self.len += buf.len() as u64;
        let mut rest = buf;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(rest.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&rest[..take]);
            self.tail_len += take;
            rest = &rest[take..];
            if self.tail_len < 8 {
                return Ok(buf.len());
            }
            self.mix(u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rem = words.remainder();
        self.tail[..rem.len()].copy_from_slice(rem);
        self.tail_len = rem.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(chunks: &[&[u8]]) -> Digest {
        let mut sink = HashSink::new();
        for c in chunks {
            sink.write_all(c).unwrap();
        }
        sink.digest()
    }

    #[test]
    fn chunking_does_not_change_the_digest() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = digest_of(&[&data]);
        for cut in [1, 3, 7, 8, 9, 500, 999] {
            assert_eq!(digest_of(&[&data[..cut], &data[cut..]]), whole, "cut {cut}");
        }
        let bytes: Vec<&[u8]> = data.chunks(1).collect();
        assert_eq!(digest_of(&bytes), whole);
    }

    #[test]
    fn any_change_shows() {
        let base = digest_of(&[b"<results><result/></results>"]);
        assert_ne!(digest_of(&[b"<results><result/></results "]), base);
        assert_ne!(digest_of(&[b"<results><result/></results>\0"]), base);
        let mut sink = HashSink::new();
        sink.corrupt_next_output();
        sink.write_all(b"<results><result/></results>").unwrap();
        assert_ne!(sink.digest(), base);
        assert_eq!(sink.digest().len, base.len);
    }

    #[test]
    fn reset_starts_over() {
        let mut sink = HashSink::new();
        sink.write_all(b"abcdefghijk").unwrap();
        sink.reset();
        sink.write_all(b"xyz").unwrap();
        assert_eq!(sink.digest(), digest_of(&[b"xyz"]));
    }
}
