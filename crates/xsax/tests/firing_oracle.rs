//! Property tests of the `on-first` firing discipline over random content
//! models and random valid documents:
//!
//! 1. each registered query fires **exactly once** per element instance;
//! 2. the fire is never **premature**: after the fire seam, no child with a
//!    label in the past-set starts within the same instance (data would be
//!    incomplete — the bug class that matters for correctness);
//! 3. the fire happens **at or before** the closing tag.

// The oracle renders each delivered view as an owned event: the simplest
// full-fidelity view of the event stream under test.

use flux_dtd::{Dtd, Symbol};
use flux_xml::XmlEvent;
use flux_xsax::{PastLabels, XsaxParser, XsaxStep};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const LEAVES: &[&str] = &["a", "b", "c"];

/// Random content-model text over the leaf alphabet.
fn random_model(rng: &mut SmallRng, depth: usize) -> String {
    if depth == 0 || rng.gen_bool(0.35) {
        return LEAVES[rng.gen_range(0..LEAVES.len())].to_string();
    }
    let combine = |parts: Vec<String>, sep: &str| format!("({})", parts.join(sep));
    match rng.gen_range(0..5) {
        0 => {
            let parts = (0..rng.gen_range(2..=3))
                .map(|_| random_model(rng, depth - 1))
                .collect();
            combine(parts, ",")
        }
        1 => {
            let parts = (0..rng.gen_range(2..=3))
                .map(|_| random_model(rng, depth - 1))
                .collect();
            combine(parts, "|")
        }
        2 => format!("({})?", random_model(rng, depth - 1)),
        3 => format!("({})*", random_model(rng, depth - 1)),
        _ => format!("({})+", random_model(rng, depth - 1)),
    }
}

/// Builds a DTD with `root (model)` and EMPTY leaves; returns None if the
/// model is degenerate (e.g. rejects everything reachable in short walks).
fn build_dtd(model: &str) -> Dtd {
    let text = format!(
        "<!ELEMENT root ({model})>\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>"
    );
    // Unused leaves would make root inference ambiguous: name it explicitly.
    Dtd::parse_with_root(&text, "root").expect("generated DTD parses")
}

/// Random valid child word: a random accepting walk on the DFA, bounded.
fn random_valid_word(dtd: &Dtd, rng: &mut SmallRng) -> Option<Vec<Symbol>> {
    let root = dtd.lookup("root")?;
    let dfa = &dtd.element(root)?.dfa;
    let mut state = dfa.start();
    let mut word = Vec::new();
    for _ in 0..24 {
        if dfa.is_accepting(state) && (rng.gen_bool(0.3) || word.len() >= 16) {
            return Some(word);
        }
        let transitions = dfa.transitions(state);
        // Prefer transitions that stay co-accessible.
        let viable: Vec<_> = transitions
            .iter()
            .filter(|&&(_, t)| dfa.is_co_accessible(t))
            .collect();
        if viable.is_empty() {
            return if dfa.is_accepting(state) {
                Some(word)
            } else {
                None
            };
        }
        let &&(sym, next) = &viable[rng.gen_range(0..viable.len())];
        word.push(sym);
        state = next;
    }
    let final_ok = dfa.is_accepting(state);
    final_ok.then_some(word)
}

fn word_to_doc(dtd: &Dtd, word: &[Symbol]) -> String {
    let mut doc = String::from("<root>");
    for &s in word {
        doc.push('<');
        doc.push_str(dtd.name(s));
        doc.push_str("/>");
    }
    doc.push_str("</root>");
    doc
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 150,
        ..ProptestConfig::default()
    })]

    #[test]
    fn firing_discipline(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let model = random_model(&mut rng, 3);
        let dtd = build_dtd(&model);
        let Some(word) = random_valid_word(&dtd, &mut rng) else {
            return Ok(()); // degenerate model, nothing to check
        };
        let doc = word_to_doc(&dtd, &word);
        let root = dtd.lookup("root").expect("declared");

        // Random nonempty past-set over the leaves.
        let mut labels = std::collections::BTreeSet::new();
        for leaf in LEAVES {
            if rng.gen_bool(0.5) {
                if let Some(sym) = dtd.lookup(leaf) {
                    labels.insert(sym);
                }
            }
        }
        if labels.is_empty() {
            labels.insert(dtd.lookup("a").expect("declared"));
        }
        let watched = labels.clone();

        let mut parser = XsaxParser::new(doc.as_bytes(), &dtd).expect("parser");
        parser
            .register_past(root, PastLabels::Labels(labels))
            .expect("register");

        let mut fires = 0usize;
        let mut saw_watched_after_fire = false;
        let mut root_closed_before_fire = false;
        while let Some(step) = parser.next_step().unwrap_or_else(|e| panic!("{doc}: {e}")) {
            let ev = match step {
                XsaxStep::Fire { .. } => {
                    fires += 1;
                    continue;
                }
                XsaxStep::Sax => parser.view().to_xml_event(parser.symbols()),
            };
            match ev {
                XmlEvent::StartElement { ref name, .. } if name != "root" => {
                    let sym = dtd.lookup(name).expect("declared");
                    if fires > 0 && watched.contains(&sym) {
                        saw_watched_after_fire = true;
                    }
                }
                XmlEvent::EndElement { ref name } if name == "root"
                    && fires == 0 => {
                        root_closed_before_fire = true;
                    }
                _ => {}
            }
        }
        prop_assert_eq!(fires, 1, "exactly one fire per instance: {} {}", model, doc);
        prop_assert!(
            !saw_watched_after_fire,
            "premature fire: a watched label started after past() in model {} doc {}",
            model,
            doc
        );
        prop_assert!(
            !root_closed_before_fire,
            "fire must happen no later than the closing tag: {} {}",
            model,
            doc
        );
    }

    /// Validation agrees with the DFA: random valid words validate, and a
    /// random mutation that the DFA rejects is rejected by XSAX too.
    #[test]
    fn validation_matches_dfa(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let model = random_model(&mut rng, 3);
        let dtd = build_dtd(&model);
        let Some(word) = random_valid_word(&dtd, &mut rng) else {
            return Ok(());
        };
        let doc = word_to_doc(&dtd, &word);
        let mut parser = XsaxParser::new(doc.as_bytes(), &dtd).expect("parser");
        while let Some(_step) = parser.next_step().unwrap_or_else(|e| panic!("valid doc rejected: {doc} ({model}): {e}")) {}

        // Mutate: append one extra child; check XSAX agrees with the DFA.
        let root = dtd.lookup("root").expect("declared");
        let dfa = &dtd.element(root).expect("declared").dfa;
        let extra = dtd.lookup(LEAVES[rng.gen_range(0..LEAVES.len())]).expect("leaf");
        let mut mutated = word.clone();
        mutated.push(extra);
        let dfa_accepts = dfa.accepts(mutated.iter().copied());
        let mutated_doc = word_to_doc(&dtd, &mutated);
        let mut parser = XsaxParser::new(mutated_doc.as_bytes(), &dtd).expect("parser");
        let mut rejected = false;
        loop {
            match parser.next_step() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_) => {
                    rejected = true;
                    break;
                }
            }
        }
        prop_assert_eq!(
            rejected,
            !dfa_accepts,
            "XSAX and DFA disagree on {} under {}",
            mutated_doc,
            model
        );
    }
}
