//! Deterministic finite automata over child-element sequences, plus the
//! product-construction analyses from which all schema constraints derive.

use crate::glushkov::Glushkov;
use flux_symbols::Symbol;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Index of a DFA state. The start state is always `0`.
pub type StateId = u32;

#[derive(Debug, Clone)]
pub struct DfaState {
    /// Outgoing transitions, sorted by symbol for binary search.
    transitions: Vec<(Symbol, StateId)>,
    accepting: bool,
}

/// A DFA recognising the permitted child sequences of one element type.
#[derive(Debug, Clone)]
pub struct Dfa {
    states: Vec<DfaState>,
    /// `co_accessible[q]`: an accepting state is reachable from `q`
    /// (including `q` itself).
    co_accessible: Vec<bool>,
    /// `still_possible[q]`: symbols that can still occur on some path from
    /// `q` to an accepting state.
    still_possible: Vec<BTreeSet<Symbol>>,
    /// All symbols on any transition.
    alphabet: BTreeSet<Symbol>,
}

impl Dfa {
    /// Builds a DFA from a Glushkov decomposition via subset construction.
    pub fn from_glushkov(g: &Glushkov) -> Dfa {
        // NFA states: 0 = start, p + 1 = position p.
        let mut subset_ids: BTreeMap<BTreeSet<usize>, StateId> = BTreeMap::new();
        let mut states: Vec<DfaState> = Vec::new();
        let mut queue: VecDeque<BTreeSet<usize>> = VecDeque::new();

        let is_accepting = |set: &BTreeSet<usize>| -> bool {
            set.iter().any(|&s| {
                if s == 0 {
                    g.nullable
                } else {
                    g.last.contains(&(s - 1))
                }
            })
        };

        let start_set = BTreeSet::from([0usize]);
        subset_ids.insert(start_set.clone(), 0);
        states.push(DfaState {
            transitions: Vec::new(),
            accepting: is_accepting(&start_set),
        });
        queue.push_back(start_set);

        while let Some(set) = queue.pop_front() {
            let id = subset_ids[&set];
            // Successors grouped by symbol.
            let mut by_symbol: BTreeMap<Symbol, BTreeSet<usize>> = BTreeMap::new();
            for &nfa_state in &set {
                let succ_positions: Box<dyn Iterator<Item = usize>> = if nfa_state == 0 {
                    Box::new(g.first.iter().copied())
                } else {
                    Box::new(g.follow[nfa_state - 1].iter().copied())
                };
                for p in succ_positions {
                    by_symbol
                        .entry(g.position_symbols[p])
                        .or_default()
                        .insert(p + 1);
                }
            }
            let mut transitions = Vec::with_capacity(by_symbol.len());
            for (sym, target_set) in by_symbol {
                let next_id = match subset_ids.get(&target_set) {
                    Some(&existing) => existing,
                    None => {
                        let new_id = StateId::try_from(states.len()).expect("DFA too large");
                        subset_ids.insert(target_set.clone(), new_id);
                        states.push(DfaState {
                            transitions: Vec::new(),
                            accepting: is_accepting(&target_set),
                        });
                        queue.push_back(target_set);
                        new_id
                    }
                };
                transitions.push((sym, next_id));
            }
            states[id as usize].transitions = transitions;
        }

        let mut dfa = Dfa {
            states,
            co_accessible: Vec::new(),
            still_possible: Vec::new(),
            alphabet: BTreeSet::new(),
        };
        dfa.finalise();
        dfa
    }

    fn finalise(&mut self) {
        let n = self.states.len();
        for st in &self.states {
            for &(sym, _) in &st.transitions {
                self.alphabet.insert(sym);
            }
        }
        // co_accessible: backwards reachability from accepting states.
        let mut co = vec![false; n];
        let mut changed = true;
        while changed {
            changed = false;
            for q in 0..n {
                if co[q] {
                    continue;
                }
                let reaches = self.states[q].accepting
                    || self.states[q]
                        .transitions
                        .iter()
                        .any(|&(_, t)| co[t as usize]);
                if reaches {
                    co[q] = true;
                    changed = true;
                }
            }
        }
        self.co_accessible = co;
        // still_possible: fixpoint over edges into co-accessible states.
        let mut sp: Vec<BTreeSet<Symbol>> = vec![BTreeSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for q in 0..n {
                let mut add: Vec<Symbol> = Vec::new();
                for &(sym, t) in &self.states[q].transitions {
                    if self.co_accessible[t as usize] {
                        if !sp[q].contains(&sym) {
                            add.push(sym);
                        }
                        for &s in &sp[t as usize] {
                            if !sp[q].contains(&s) {
                                add.push(s);
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    sp[q].extend(add);
                    changed = true;
                }
            }
        }
        self.still_possible = sp;
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        0
    }

    /// Follows the transition labelled `sym` from `state`.
    pub fn transition(&self, state: StateId, sym: Symbol) -> Option<StateId> {
        let st = &self.states[state as usize];
        st.transitions
            .binary_search_by_key(&sym, |&(s, _)| s)
            .ok()
            .map(|i| st.transitions[i].1)
    }

    /// Whether `state` accepts (the child sequence may end here).
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.states[state as usize].accepting
    }

    /// Whether an accepting state is reachable from `state`.
    pub fn is_co_accessible(&self, state: StateId) -> bool {
        self.co_accessible[state as usize]
    }

    /// Symbols that can still occur on some continuation from `state` that
    /// reaches an accepting state. Empty at states where the element can
    /// only close.
    pub fn still_possible(&self, state: StateId) -> &BTreeSet<Symbol> {
        &self.still_possible[state as usize]
    }

    /// All symbols used by this automaton.
    pub fn alphabet(&self) -> &BTreeSet<Symbol> {
        &self.alphabet
    }

    /// Outgoing transitions of `state`.
    pub fn transitions(&self, state: StateId) -> &[(Symbol, StateId)] {
        &self.states[state as usize].transitions
    }

    /// Core product construction: does some *accepted* word take an edge
    /// labelled `x` at some position and an edge labelled `y` at a strictly
    /// later position? (`x == y` asks for two occurrences of the symbol.)
    pub fn exists_order(&self, x: Symbol, y: Symbol) -> bool {
        // Phases: 0 = nothing committed, 1 = committed an x, 2 = committed
        // an x then later a y. The "skip" choice (not committing an
        // occurrence) is encoded by also staying in the current phase.
        let n = self.states.len();
        let mut visited = vec![[false; 3]; n];
        let mut queue: VecDeque<(StateId, u8)> = VecDeque::new();
        visited[0][0] = true;
        queue.push_back((0, 0));
        while let Some((q, phase)) = queue.pop_front() {
            if phase == 2 && self.co_accessible[q as usize] {
                return true;
            }
            for &(sym, t) in &self.states[q as usize].transitions {
                let push =
                    |ph: u8, visited: &mut Vec<[bool; 3]>, queue: &mut VecDeque<(StateId, u8)>| {
                        if !visited[t as usize][ph as usize] {
                            visited[t as usize][ph as usize] = true;
                            queue.push_back((t, ph));
                        }
                    };
                push(phase, &mut visited, &mut queue);
                if phase == 0 && sym == x {
                    push(1, &mut visited, &mut queue);
                }
                if phase == 1 && sym == y {
                    push(2, &mut visited, &mut queue);
                }
            }
        }
        false
    }

    /// Cardinality constraint `a ∈ ||≤1`: every accepted word contains at
    /// most one `a`.
    pub fn at_most_one(&self, a: Symbol) -> bool {
        !self.exists_order(a, a)
    }

    /// Every accepted word contains at least one `a`.
    pub fn at_least_one(&self, a: Symbol) -> bool {
        // Can we accept while avoiding `a` entirely?
        let n = self.states.len();
        let mut visited = vec![false; n];
        let mut queue = VecDeque::from([0 as StateId]);
        visited[0] = true;
        while let Some(q) = queue.pop_front() {
            if self.states[q as usize].accepting {
                return false;
            }
            for &(sym, t) in &self.states[q as usize].transitions {
                if sym != a && !visited[t as usize] {
                    visited[t as usize] = true;
                    queue.push_back(t);
                }
            }
        }
        true
    }

    /// Every accepted word contains exactly one `a`.
    pub fn exactly_one(&self, a: Symbol) -> bool {
        self.at_most_one(a) && self.at_least_one(a)
    }

    /// No accepted word contains `a`.
    pub fn never_occurs(&self, a: Symbol) -> bool {
        !self.still_possible[0].contains(&a)
    }

    /// Order constraint: in every accepted word, every `a` occurs before
    /// every `b`. For `a == b` this degenerates to [`Dfa::at_most_one`].
    pub fn all_before(&self, a: Symbol, b: Symbol) -> bool {
        !self.exists_order(b, a)
    }

    /// Language constraint: no accepted word contains both `a` and `b`
    /// (the paper's author/editor example). Requires `a != b`.
    pub fn never_together(&self, a: Symbol, b: Symbol) -> bool {
        debug_assert_ne!(a, b, "never_together is about distinct labels");
        !self.exists_order(a, b) && !self.exists_order(b, a)
    }

    /// Runs the DFA over a word; `None` if rejected mid-way.
    pub fn run(&self, word: impl IntoIterator<Item = Symbol>) -> Option<StateId> {
        let mut state = self.start();
        for sym in word {
            state = self.transition(state, sym)?;
        }
        Some(state)
    }

    /// Convenience: whether the word is in the language.
    pub fn accepts(&self, word: impl IntoIterator<Item = Symbol>) -> bool {
        self.run(word).is_some_and(|q| self.is_accepting(q))
    }
}

/// Checks the XML 1-unambiguity ("deterministic content model") condition on
/// a Glushkov decomposition: no two positions with the same symbol compete
/// in `first` or in any `follow` set.
pub fn is_one_unambiguous(g: &Glushkov) -> bool {
    fn unambiguous(set: &BTreeSet<usize>, g: &Glushkov) -> bool {
        let mut seen = BTreeSet::new();
        for &p in set {
            if !seen.insert(g.position_symbols[p]) {
                return false;
            }
        }
        true
    }
    if !unambiguous(&g.first, g) {
        return false;
    }
    g.follow.iter().all(|f| unambiguous(f, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content_model::Particle;
    use crate::glushkov::glushkov;
    use flux_symbols::SymbolTable;

    struct Fixture {
        table: SymbolTable,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                table: SymbolTable::new(),
            }
        }
        fn sym(&mut self, s: &str) -> Symbol {
            self.table.intern(s)
        }
        fn dfa(&self, p: &Particle) -> Dfa {
            Dfa::from_glushkov(&glushkov(p))
        }
    }

    fn name(s: Symbol) -> Particle {
        Particle::Name(s)
    }

    #[test]
    fn accepts_fig1_words() {
        let mut fx = Fixture::new();
        let (t, a, e, pb, pr) = (
            fx.sym("title"),
            fx.sym("author"),
            fx.sym("editor"),
            fx.sym("publisher"),
            fx.sym("price"),
        );
        // (title, (author+ | editor+), publisher, price)
        let dfa = fx.dfa(&Particle::Seq(vec![
            name(t),
            Particle::Choice(vec![
                Particle::Plus(Box::new(name(a))),
                Particle::Plus(Box::new(name(e))),
            ]),
            name(pb),
            name(pr),
        ]));
        assert!(dfa.accepts([t, a, pb, pr]));
        assert!(dfa.accepts([t, a, a, a, pb, pr]));
        assert!(dfa.accepts([t, e, e, pb, pr]));
        assert!(
            !dfa.accepts([t, a, e, pb, pr]),
            "authors and editors exclude each other"
        );
        assert!(!dfa.accepts([a, t, pb, pr]), "title must come first");
        assert!(
            !dfa.accepts([t, pb, pr]),
            "need at least one author or editor"
        );
        assert!(!dfa.accepts([t, a, pb]), "price is mandatory");
    }

    #[test]
    fn constraints_on_fig1() {
        let mut fx = Fixture::new();
        let (t, a, e, pb, pr) = (
            fx.sym("title"),
            fx.sym("author"),
            fx.sym("editor"),
            fx.sym("publisher"),
            fx.sym("price"),
        );
        let dfa = fx.dfa(&Particle::Seq(vec![
            name(t),
            Particle::Choice(vec![
                Particle::Plus(Box::new(name(a))),
                Particle::Plus(Box::new(name(e))),
            ]),
            name(pb),
            name(pr),
        ]));
        // Cardinality constraints (paper: publisher ∈ ||≤1 book).
        assert!(dfa.at_most_one(pb));
        assert!(dfa.at_most_one(t));
        assert!(dfa.at_most_one(pr));
        assert!(!dfa.at_most_one(a));
        assert!(!dfa.at_most_one(e));
        assert!(dfa.exactly_one(t));
        assert!(dfa.at_least_one(pb));
        assert!(!dfa.at_least_one(a), "editor-only books have no authors");
        // Order constraints (paper: titles precede authors).
        assert!(dfa.all_before(t, a));
        assert!(dfa.all_before(t, e));
        assert!(dfa.all_before(a, pb));
        assert!(dfa.all_before(a, pr));
        assert!(!dfa.all_before(a, t));
        // Language constraint (paper: no book has both author and editor).
        assert!(dfa.never_together(a, e));
        assert!(!dfa.never_together(t, a));
    }

    #[test]
    fn weak_dtd_has_no_constraints() {
        let mut fx = Fixture::new();
        let (t, a) = (fx.sym("title"), fx.sym("author"));
        // (title | author)*
        let dfa = fx.dfa(&Particle::Star(Box::new(Particle::Choice(vec![
            name(t),
            name(a),
        ]))));
        assert!(dfa.accepts([]));
        assert!(dfa.accepts([a, t, a, t]));
        assert!(!dfa.at_most_one(t));
        assert!(!dfa.all_before(t, a));
        assert!(!dfa.all_before(a, t));
        assert!(!dfa.never_together(t, a));
        assert!(!dfa.at_least_one(t));
    }

    #[test]
    fn still_possible_tracks_progress() {
        let mut fx = Fixture::new();
        let (t, a, pb) = (fx.sym("title"), fx.sym("author"), fx.sym("publisher"));
        // (title, author*, publisher)
        let dfa = fx.dfa(&Particle::Seq(vec![
            name(t),
            Particle::Star(Box::new(name(a))),
            name(pb),
        ]));
        let q0 = dfa.start();
        assert_eq!(dfa.still_possible(q0), &BTreeSet::from([t, a, pb]));
        let q1 = dfa.transition(q0, t).unwrap();
        assert_eq!(
            dfa.still_possible(q1),
            &BTreeSet::from([a, pb]),
            "title is past"
        );
        let q2 = dfa.transition(q1, a).unwrap();
        assert_eq!(dfa.still_possible(q2), &BTreeSet::from([a, pb]));
        let q3 = dfa.transition(q2, pb).unwrap();
        assert!(dfa.still_possible(q3).is_empty(), "everything is past");
        assert!(dfa.is_accepting(q3));
    }

    #[test]
    fn never_occurs_detects_unreachable_labels() {
        let mut fx = Fixture::new();
        let (a, b) = (fx.sym("a"), fx.sym("b"));
        let dfa = fx.dfa(&name(a));
        assert!(dfa.never_occurs(b));
        assert!(!dfa.never_occurs(a));
    }

    #[test]
    fn empty_content() {
        let fx = Fixture::new();
        let dfa = fx.dfa(&Particle::Epsilon);
        assert!(dfa.accepts([]));
        assert_eq!(dfa.state_count(), 1);
        assert!(dfa.still_possible(0).is_empty());
    }

    #[test]
    fn exists_order_same_symbol() {
        let mut fx = Fixture::new();
        let a = fx.sym("a");
        let one = fx.dfa(&name(a));
        assert!(!one.exists_order(a, a));
        let many = fx.dfa(&Particle::Star(Box::new(name(a))));
        assert!(many.exists_order(a, a));
        // Exactly two a's also counts.
        let two = fx.dfa(&Particle::Seq(vec![name(a), name(a)]));
        assert!(two.exists_order(a, a));
    }

    #[test]
    fn order_constraint_respects_unreachable_suffix() {
        let mut fx = Fixture::new();
        let (a, b, c) = (fx.sym("a"), fx.sym("b"), fx.sym("c"));
        // (a, b) | (b, c): there IS a word where b precedes... nothing of a.
        // all_before(a, b) fails only if b can precede a in an ACCEPTED word.
        let dfa = fx.dfa(&Particle::Choice(vec![
            Particle::Seq(vec![name(a), name(b)]),
            Particle::Seq(vec![name(b), name(c)]),
        ]));
        assert!(dfa.all_before(a, b), "no accepted word has b before a");
        assert!(!dfa.all_before(b, a), "(a, b) violates it");
        assert!(dfa.never_together(a, c));
    }

    #[test]
    fn one_unambiguous_check() {
        let mut fx = Fixture::new();
        let (a, b) = (fx.sym("a"), fx.sym("b"));
        let ok = glushkov(&Particle::Seq(vec![name(a), name(b)]));
        assert!(is_one_unambiguous(&ok));
        // (a, b) | (a, c) is the classic ambiguous model.
        let c = fx.sym("c");
        let ambiguous = glushkov(&Particle::Choice(vec![
            Particle::Seq(vec![name(a), name(b)]),
            Particle::Seq(vec![name(a), name(c)]),
        ]));
        assert!(!is_one_unambiguous(&ambiguous));
    }

    #[test]
    fn subset_construction_handles_ambiguity() {
        let mut fx = Fixture::new();
        let (a, b, c) = (fx.sym("a"), fx.sym("b"), fx.sym("c"));
        // Ambiguous model still yields a correct DFA.
        let dfa = fx.dfa(&Particle::Choice(vec![
            Particle::Seq(vec![name(a), name(b)]),
            Particle::Seq(vec![name(a), name(c)]),
        ]));
        assert!(dfa.accepts([a, b]));
        assert!(dfa.accepts([a, c]));
        assert!(!dfa.accepts([a]));
        assert!(!dfa.accepts([b]));
    }

    #[test]
    fn run_reports_rejection() {
        let mut fx = Fixture::new();
        let (a, b) = (fx.sym("a"), fx.sym("b"));
        let dfa = fx.dfa(&name(a));
        assert!(dfa.run([b]).is_none());
        assert!(dfa.run([a]).is_some());
    }
}
