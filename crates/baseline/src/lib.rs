//! # flux-baseline
//!
//! The two comparison engines of the paper's evaluation:
//!
//! * [`DomEngine`] — materialise the whole document, then evaluate (the
//!   memory architecture of conventional main-memory XQuery engines);
//! * [`ProjectionEngine`] — stream, materialise only the query's projection
//!   paths, then evaluate (Marian & Siméon, the paper's reference \[10\]).
//!
//! Both use the same parser, tree and interpreter as the FluXQuery engine,
//! so measured differences reflect the *architecture* (what must be
//! buffered), not incidental implementation differences. Neither validates
//! against the DTD nor exploits it — that is precisely what FluXQuery adds.

pub mod dom;
pub mod error;
pub mod projection;

pub use dom::DomEngine;
pub use error::{BaselineError, Result};
pub use projection::ProjectionEngine;

use flux_xml::{Input, ReaderConfig, XmlError};
use std::io::Read;

/// Resolves a unified [`Input`] for a baseline run: opens the source
/// (path/gzip/stream) and threads the input's window and budget into
/// `config`. The caller enforces that budget post-run
/// ([`MemoryBudget::check_run`](flux_xml::MemoryBudget::check_run)).
pub(crate) fn resolve_input(
    input: Input,
    mut config: ReaderConfig,
) -> Result<(Box<dyn Read + Send>, ReaderConfig)> {
    config.window = input.window_bytes();
    config.budget = input.memory_budget().cloned();
    let reader = input.into_source().map_err(XmlError::from)?.into_reader();
    Ok((reader, config))
}
