//! Spans recorded by the benchmark around its calls into the engine's
//! crates: name, start, end, parent and the document a call worked on.
//! They are kept in memory and written out when the run ends.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `Span::doc` of a span that covers no single document.
pub const NO_DOC: u32 = u32::MAX;

/// Spans written to the trace file at most; the rest are still used for
/// the metrics.
const MAX_WRITTEN: usize = 250_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based; 0 is "no span".
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub doc: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for a root) and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: u32, doc: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            doc,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Drops every span from the `len`-th on.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn span(&self, id: u32) -> &Span {
        &self.spans[id as usize - 1]
    }

    /// Per span (indexed by id - 1): the summed duration of its children.
    pub fn child_ns(&self) -> Vec<u64> {
        let mut sums = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                sums[s.parent as usize - 1] += s.ns();
            }
        }
        sums
    }

    /// Writes the spans as JSON: a name table, then one array per span,
    /// `[id, parent, name index, doc (-1: none), start_ns, end_ns]`.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut w = BufWriter::new(File::create(path)?);
        let written = self.spans.len().min(MAX_WRITTEN);
        writeln!(
            w,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans_total\": {}, \"spans_written\": {written},",
            self.spans.len()
        )?;
        writeln!(
            w,
            "\"fields\": [\"id\", \"parent\", \"name\", \"doc\", \"start_ns\", \"end_ns\"],"
        )?;
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(w, "\"names\": [{}],", quoted.join(", "))?;
        writeln!(w, "\"spans\": [")?;
        for (i, s) in self.spans[..written].iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name in table");
            let doc = if s.doc == NO_DOC {
                -1
            } else {
                i64::from(s.doc)
            };
            let sep = if i + 1 == written { "" } else { "," };
            writeln!(
                w,
                "[{}, {}, {name}, {doc}, {}, {}]{sep}",
                s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_sum_into_their_parent() {
        let mut t = Tracer::new();
        let root = t.begin("round", 0, NO_DOC);
        let a = t.begin("a", root, 0);
        t.end(a);
        let b = t.begin("b", root, 1);
        t.end(b);
        t.end(root);
        let sums = t.child_ns();
        assert_eq!(sums[root as usize - 1], t.span(a).ns() + t.span(b).ns());
        assert!(t.span(root).ns() >= sums[root as usize - 1]);
        assert_eq!(t.span(b).doc, 1);
    }
}
