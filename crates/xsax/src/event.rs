//! XSAX events and past-query registrations.

use flux_dtd::{Symbol, SymbolTable};
use std::collections::BTreeSet;
use std::fmt;

/// Handle for a registered past query, assigned by
/// [`crate::XsaxParser::register_past`] in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PastId(pub u32);

impl PastId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The label set of a past query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PastLabels {
    /// A finite set of child labels; may include [`SymbolTable::TEXT`],
    /// which can only become "past" at the closing tag when the element
    /// allows character data.
    Labels(BTreeSet<Symbol>),
    /// Everything below the element — fires only at the closing tag. Used
    /// when a handler needs the whole subtree (e.g. `{$x}`).
    All,
}

impl PastLabels {
    pub fn labels(syms: impl IntoIterator<Item = Symbol>) -> Self {
        PastLabels::Labels(syms.into_iter().collect())
    }

    /// True when the set mentions the text pseudo-label.
    pub fn mentions_text(&self) -> bool {
        match self {
            PastLabels::Labels(set) => set.contains(&SymbolTable::TEXT),
            PastLabels::All => true,
        }
    }
}

impl fmt::Display for PastLabels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PastLabels::Labels(set) => {
                write!(f, "past(")?;
                for (i, s) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, ")")
            }
            PastLabels::All => write!(f, "past(*)"),
        }
    }
}

/// The result of one [`crate::XsaxParser::next_step`] pull.
///
/// `Sax` means [`crate::XsaxParser::view`] now exposes the next validated
/// event; `Fire` is a fired past query and delivers no event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XsaxStep {
    Sax,
    /// The registered query `id` fired for the instance of its element type
    /// at nesting `depth` (root = 1).
    Fire {
        id: PastId,
        depth: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn past_labels_text_detection() {
        assert!(PastLabels::All.mentions_text());
        assert!(PastLabels::labels([SymbolTable::TEXT]).mentions_text());
        assert!(!PastLabels::labels([]).mentions_text());
    }
}
