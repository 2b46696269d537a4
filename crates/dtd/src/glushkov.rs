//! Glushkov (position automaton) construction for content models.
//!
//! Each `Name` occurrence in a particle becomes a *position*; the automaton
//! has one state per position plus a start state. XML requires content
//! models to be deterministic ("1-unambiguous"), in which case the Glushkov
//! automaton is already a DFA, but we run subset construction afterwards
//! ([`crate::dfa`]) so non-deterministic models are still handled correctly.

use crate::content_model::Particle;
use flux_symbols::Symbol;
use std::collections::BTreeSet;

/// The Glushkov decomposition of a particle.
#[derive(Debug, Clone)]
pub struct Glushkov {
    /// Symbol at each position (positions are 0-based).
    pub position_symbols: Vec<Symbol>,
    /// Whether the empty word is accepted.
    pub nullable: bool,
    /// Positions that can start a word.
    pub first: BTreeSet<usize>,
    /// Positions that can end a word.
    pub last: BTreeSet<usize>,
    /// `follow[p]` = positions that may directly follow position `p`.
    pub follow: Vec<BTreeSet<usize>>,
}

struct Builder {
    position_symbols: Vec<Symbol>,
    follow: Vec<BTreeSet<usize>>,
}

/// Per-subexpression facts computed bottom-up.
struct Facts {
    nullable: bool,
    first: BTreeSet<usize>,
    last: BTreeSet<usize>,
}

impl Builder {
    fn build(&mut self, p: &Particle) -> Facts {
        match p {
            Particle::Epsilon => Facts {
                nullable: true,
                first: BTreeSet::new(),
                last: BTreeSet::new(),
            },
            Particle::Name(sym) => {
                let pos = self.position_symbols.len();
                self.position_symbols.push(*sym);
                self.follow.push(BTreeSet::new());
                Facts {
                    nullable: false,
                    first: BTreeSet::from([pos]),
                    last: BTreeSet::from([pos]),
                }
            }
            Particle::Seq(parts) => {
                let mut acc = Facts {
                    nullable: true,
                    first: BTreeSet::new(),
                    last: BTreeSet::new(),
                };
                for part in parts {
                    let f = self.build(part);
                    // follow: every last of the accumulated prefix connects
                    // to every first of this part.
                    for &l in &acc.last {
                        for &fst in &f.first {
                            self.follow[l].insert(fst);
                        }
                    }
                    let new_first = if acc.nullable {
                        acc.first.union(&f.first).copied().collect()
                    } else {
                        acc.first
                    };
                    let new_last = if f.nullable {
                        acc.last.union(&f.last).copied().collect()
                    } else {
                        f.last
                    };
                    acc = Facts {
                        nullable: acc.nullable && f.nullable,
                        first: new_first,
                        last: new_last,
                    };
                }
                acc
            }
            Particle::Choice(parts) => {
                let mut acc = Facts {
                    nullable: false,
                    first: BTreeSet::new(),
                    last: BTreeSet::new(),
                };
                for part in parts {
                    let f = self.build(part);
                    acc.nullable |= f.nullable;
                    acc.first.extend(f.first);
                    acc.last.extend(f.last);
                }
                acc
            }
            Particle::Opt(inner) => {
                let f = self.build(inner);
                Facts {
                    nullable: true,
                    ..f
                }
            }
            Particle::Star(inner) => {
                let f = self.build(inner);
                for &l in &f.last {
                    for &fst in &f.first {
                        self.follow[l].insert(fst);
                    }
                }
                Facts {
                    nullable: true,
                    ..f
                }
            }
            Particle::Plus(inner) => {
                let f = self.build(inner);
                for &l in &f.last {
                    for &fst in &f.first {
                        self.follow[l].insert(fst);
                    }
                }
                Facts {
                    nullable: f.nullable,
                    ..f
                }
            }
        }
    }
}

/// Computes the Glushkov decomposition of `particle`.
pub fn glushkov(particle: &Particle) -> Glushkov {
    let mut builder = Builder {
        position_symbols: Vec::new(),
        follow: Vec::new(),
    };
    let facts = builder.build(particle);
    Glushkov {
        position_symbols: builder.position_symbols,
        nullable: facts.nullable,
        first: facts.first,
        last: facts.last,
        follow: builder.follow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_symbols::SymbolTable;

    fn syms() -> (SymbolTable, Symbol, Symbol, Symbol) {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let c = t.intern("c");
        (t, a, b, c)
    }

    #[test]
    fn single_name() {
        let (_, a, _, _) = syms();
        let g = glushkov(&Particle::Name(a));
        assert!(!g.nullable);
        assert_eq!(g.first, BTreeSet::from([0]));
        assert_eq!(g.last, BTreeSet::from([0]));
        assert!(g.follow[0].is_empty());
    }

    #[test]
    fn epsilon() {
        let g = glushkov(&Particle::Epsilon);
        assert!(g.nullable);
        assert!(g.first.is_empty());
        assert!(g.last.is_empty());
        assert!(g.position_symbols.is_empty());
    }

    #[test]
    fn sequence_follow_links() {
        let (_, a, b, _) = syms();
        // (a, b): follow(a-pos) = {b-pos}
        let g = glushkov(&Particle::Seq(vec![Particle::Name(a), Particle::Name(b)]));
        assert!(!g.nullable);
        assert_eq!(g.first, BTreeSet::from([0]));
        assert_eq!(g.last, BTreeSet::from([1]));
        assert_eq!(g.follow[0], BTreeSet::from([1]));
        assert!(g.follow[1].is_empty());
    }

    #[test]
    fn star_loops_back() {
        let (_, a, _, _) = syms();
        let g = glushkov(&Particle::Star(Box::new(Particle::Name(a))));
        assert!(g.nullable);
        assert_eq!(g.follow[0], BTreeSet::from([0]));
    }

    #[test]
    fn plus_not_nullable() {
        let (_, a, _, _) = syms();
        let g = glushkov(&Particle::Plus(Box::new(Particle::Name(a))));
        assert!(!g.nullable);
        assert_eq!(g.follow[0], BTreeSet::from([0]));
    }

    #[test]
    fn choice_unions() {
        let (_, a, b, _) = syms();
        let g = glushkov(&Particle::Choice(vec![
            Particle::Name(a),
            Particle::Name(b),
        ]));
        assert!(!g.nullable);
        assert_eq!(g.first, BTreeSet::from([0, 1]));
        assert_eq!(g.last, BTreeSet::from([0, 1]));
    }

    #[test]
    fn optional_sequence_head() {
        let (_, a, b, _) = syms();
        // (a?, b): first = {a-pos, b-pos}
        let g = glushkov(&Particle::Seq(vec![
            Particle::Opt(Box::new(Particle::Name(a))),
            Particle::Name(b),
        ]));
        assert_eq!(g.first, BTreeSet::from([0, 1]));
        assert_eq!(g.last, BTreeSet::from([1]));
        assert!(!g.nullable);
    }

    #[test]
    fn fig1_book_model() {
        // (title, (author+ | editor+), publisher, price)
        let mut t = SymbolTable::new();
        let title = t.intern("title");
        let author = t.intern("author");
        let editor = t.intern("editor");
        let publisher = t.intern("publisher");
        let price = t.intern("price");
        let p = Particle::Seq(vec![
            Particle::Name(title),
            Particle::Choice(vec![
                Particle::Plus(Box::new(Particle::Name(author))),
                Particle::Plus(Box::new(Particle::Name(editor))),
            ]),
            Particle::Name(publisher),
            Particle::Name(price),
        ]);
        let g = glushkov(&p);
        assert_eq!(
            g.position_symbols,
            vec![title, author, editor, publisher, price]
        );
        assert!(!g.nullable);
        assert_eq!(g.first, BTreeSet::from([0]));
        // title is followed by author or editor
        assert_eq!(g.follow[0], BTreeSet::from([1, 2]));
        // author loops to itself or moves to publisher (no editor!)
        assert_eq!(g.follow[1], BTreeSet::from([1, 3]));
        // editor loops to itself or moves to publisher (no author!)
        assert_eq!(g.follow[2], BTreeSet::from([2, 3]));
        assert_eq!(g.follow[3], BTreeSet::from([4]));
        assert_eq!(g.last, BTreeSet::from([4]));
    }
}
