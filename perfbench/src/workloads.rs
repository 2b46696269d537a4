//! The three workloads: how each is generated from the seed, the query
//! and schema it runs, and the reference output each document must give.
//!
//! The engine receives only the generated bytes. Every workload is a list
//! of documents cut into batches of about [`Scale::batch_bytes`]: a batch
//! is the unit one timed pass (and one ladder round) runs over, so the
//! large-document workloads have one document per batch.

use crate::sink::{Digest, HashSink};
use flux_bench::catalog_query;
use flux_xmlgen::{auction_string, bib_string, AuctionConfig, BibConfig, AUCTION_DTD};
use fluxquery_core::{AnyEngine, EngineKind, Input, Options, PAPER_WEAK_DTD};
use std::ops::Range;
use std::sync::Arc;

/// Input sizes: `Full` is what the benchmark measures, `Tiny` what its
/// own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    /// Bytes of one large document.
    fn doc_bytes(self) -> usize {
        match self {
            Scale::Full => 4_000_000,
            Scale::Tiny => 40_000,
        }
    }

    /// Small documents in `msg_stream`.
    fn messages(self) -> usize {
        match self {
            Scale::Full => 20_000,
            Scale::Tiny => 200,
        }
    }

    /// Bytes a batch of small documents reaches before it is closed.
    fn batch_bytes(self) -> usize {
        match self {
            Scale::Full => 250_000,
            Scale::Tiny => 16_000,
        }
    }
}

/// One workload as `BENCHMARK.json` describes it.
pub struct Spec {
    pub name: &'static str,
    pub generator: &'static str,
    /// The query's id in `flux_bench::catalog()`.
    pub query_id: &'static str,
    pub dtd: &'static str,
    /// The smallest valid document: the root with its required children.
    pub root_only: &'static str,
    generate: fn(u64, Scale) -> Vec<Vec<u8>>,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "bib_q3",
        generator: "flux_xmlgen::bib_string(BibConfig::weak), one ~4 MB document",
        query_id: "XMP-Q3",
        dtd: PAPER_WEAK_DTD,
        root_only: "<bib/>",
        generate: |seed, scale| vec![bib_document(scale.doc_bytes(), seed)],
    },
    Spec {
        name: "auction_exp",
        generator: "flux_xmlgen::auction_string(AuctionConfig::target_bytes), one ~4 MB document",
        query_id: "AUC-EXP",
        dtd: AUCTION_DTD,
        root_only: "<site><people/><items/><closed_auctions/></site>",
        generate: |seed, scale| {
            vec![auction_string(&AuctionConfig::target_bytes(scale.doc_bytes(), seed)).into_bytes()]
        },
    },
    Spec {
        name: "msg_stream",
        generator:
            "flux_xmlgen::bib_string(BibConfig::weak), 20000 documents of 1-8 books, distinct seeds",
        query_id: "XMP-Q3",
        dtd: PAPER_WEAK_DTD,
        root_only: "<bib/>",
        generate: |seed, scale| {
            let mut rng = SplitMix64(seed);
            (0..scale.messages())
                .map(|_| {
                    let books = 1 + (rng.next() % 8) as usize;
                    bib_string(&BibConfig::weak(books, rng.next())).into_bytes()
                })
                .collect()
        },
    },
];

impl Spec {
    pub fn query(&self) -> &'static str {
        catalog_query(self.query_id).query
    }
}

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A bibliography of about `bytes` bytes under the weak DTD.
fn bib_document(bytes: usize, seed: u64) -> Vec<u8> {
    const PROBE_BOOKS: usize = 200;
    let probe = bib_string(&BibConfig::weak(PROBE_BOOKS, seed)).len();
    let books = (bytes * PROBE_BOOKS / probe).max(1);
    bib_string(&BibConfig::weak(books, seed)).into_bytes()
}

/// The generated inputs of one run and their reference outputs.
pub struct Load {
    pub docs: Vec<Arc<Vec<u8>>>,
    /// Reference output of each document, from the DOM baseline.
    pub oracle: Vec<Digest>,
    pub batches: Vec<Range<usize>>,
    pub batch_bytes: Vec<u64>,
    pub total_bytes: u64,
    pub root_only: Arc<Vec<u8>>,
    pub root_only_oracle: Digest,
}

impl Load {
    pub fn new(spec: &Spec, seed: u64, scale: Scale) -> Load {
        // Decorrelate neighbouring seeds before they reach the generators.
        let seed = SplitMix64(seed ^ 0x5EED_F1A7_C0DE_0001).next();
        let docs: Vec<Arc<Vec<u8>>> = (spec.generate)(seed, scale)
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut batches = Vec::new();
        let mut batch_bytes = Vec::new();
        let (mut start, mut bytes) = (0, 0u64);
        for (i, doc) in docs.iter().enumerate() {
            bytes += doc.len() as u64;
            if bytes >= scale.batch_bytes() as u64 || i + 1 == docs.len() {
                batches.push(start..i + 1);
                batch_bytes.push(bytes);
                (start, bytes) = (i + 1, 0);
            }
        }
        let dom = Options::new()
            .compile(EngineKind::Dom, spec.query(), spec.dtd)
            .expect("the DOM baseline compiles every workload query");
        let oracle = docs.iter().map(|d| reference(&dom, d)).collect();
        let root_only = Arc::new(spec.root_only.as_bytes().to_vec());
        let root_only_oracle = reference(&dom, &root_only);
        Load {
            total_bytes: batch_bytes.iter().sum(),
            docs,
            oracle,
            batches,
            batch_bytes,
            root_only,
            root_only_oracle,
        }
    }

    /// About [`PROBE_BYTES`] of the workload's own bytes: what the host
    /// speed is measured on between set-up repetitions.
    pub fn probe(&self) -> Vec<&[u8]> {
        let mut left = PROBE_BYTES;
        let mut probe = Vec::new();
        for doc in &self.docs {
            if left == 0 {
                break;
            }
            let take = doc.len().min(left);
            probe.push(&doc[..take]);
            left -= take;
        }
        probe
    }

    /// The documents of batch `b`.
    pub fn batch(&self, b: usize) -> impl Iterator<Item = &[u8]> + '_ {
        self.docs[self.batches[b].clone()].iter().map(|d| &d[..])
    }
}

/// The output the DOM baseline gives: an independent architecture (load
/// the whole tree, then evaluate), so FluX must match it byte for byte.
fn reference(dom: &AnyEngine, doc: &Arc<Vec<u8>>) -> Digest {
    let mut sink = HashSink::new();
    dom.run_input(Input::from_shared_bytes(Arc::clone(doc)), &mut sink)
        .expect("generated documents are well-formed");
    sink.digest()
}

const PROBE_BYTES: usize = 32 * 1024;

/// SplitMix64: the workload seed's only source of randomness here.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for spec in &SPECS {
            let a = Load::new(spec, 7, Scale::Tiny);
            let b = Load::new(spec, 7, Scale::Tiny);
            let c = Load::new(spec, 8, Scale::Tiny);
            assert_eq!(a.docs, b.docs, "{}", spec.name);
            assert_ne!(a.docs, c.docs, "{}", spec.name);
            assert_eq!(
                a.total_bytes,
                a.docs.iter().map(|d| d.len() as u64).sum::<u64>()
            );
            let covered: usize = a.batches.iter().map(|r| r.len()).sum();
            assert_eq!(covered, a.docs.len());
        }
    }
}
