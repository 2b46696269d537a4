//! Randomized query fuzzing: generate structurally valid queries of the
//! supported fragment from a seed, then check that all four engine
//! configurations produce byte-identical output on generated documents.
//!
//! This is the strongest correctness artifact in the suite: the scheduler's
//! streaming/buffering decisions, the algebraic rewrites, the XSAX firing
//! positions and the buffer projections all have to agree with the plain
//! tree-at-a-time semantics on every sampled query.

use flux_bench::{run_engine, Domain};
use fluxquery::xquery::{pretty, AttrConstructor, AttrPart, CmpOp, Cond, Expr, Operand, Path};
use fluxquery::EngineKind;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Labels that exist in the bibliography schemas (plus a bogus one the
/// optimizer should prune).
const LABELS: &[&str] = &[
    "book",
    "title",
    "author",
    "editor",
    "publisher",
    "price",
    "bogus",
];
const OUTPUT_NAMES: &[&str] = &["r", "item", "entry", "wrap", "x"];
const STRINGS: &[&str] = &["alpha", "beta", "", "Goedel", "x<y&z"];

struct QueryGen {
    rng: SmallRng,
    /// In-scope variables (innermost last).
    vars: Vec<String>,
    next_var: u32,
    budget: i32,
}

impl QueryGen {
    fn new(seed: u64) -> Self {
        QueryGen {
            rng: SmallRng::seed_from_u64(seed),
            vars: vec!["ROOT".to_string()],
            next_var: 0,
            budget: 40,
        }
    }

    fn pick<'a>(&mut self, options: &'a [&'a str]) -> &'a str {
        options[self.rng.gen_range(0..options.len())]
    }

    fn fresh_var(&mut self) -> String {
        self.next_var += 1;
        format!("v{}", self.next_var)
    }

    fn random_path(&mut self, max_steps: usize) -> Path {
        let start = self.vars[self.rng.gen_range(0..self.vars.len())].clone();
        let mut path = Path::var(start);
        let steps = self.rng.gen_range(0..=max_steps);
        for _ in 0..steps {
            let label = self.pick(LABELS).to_string();
            path = path.child(label);
        }
        // The document variable needs at least one step to be useful in a
        // for-source; content positions accept bare vars.
        if path.start == "ROOT" && path.steps.is_empty() {
            path = path.child("bib");
        }
        path
    }

    fn random_operand(&mut self) -> Operand {
        match self.rng.gen_range(0..3) {
            0 => Operand::Path(self.random_path(2)),
            1 => Operand::StringLit(self.pick(STRINGS).to_string()),
            _ => Operand::NumberLit(format!("{}", self.rng.gen_range(0..120))),
        }
    }

    fn random_cond(&mut self, depth: usize) -> Cond {
        self.budget -= 1;
        if depth == 0 || self.budget <= 0 {
            return Cond::Exists(self.random_path(2));
        }
        match self.rng.gen_range(0..7) {
            0 => Cond::Cmp {
                lhs: self.random_operand(),
                op: match self.rng.gen_range(0..6) {
                    0 => CmpOp::Eq,
                    1 => CmpOp::Ne,
                    2 => CmpOp::Lt,
                    3 => CmpOp::Le,
                    4 => CmpOp::Gt,
                    _ => CmpOp::Ge,
                },
                rhs: self.random_operand(),
            },
            1 => Cond::And(
                Box::new(self.random_cond(depth - 1)),
                Box::new(self.random_cond(depth - 1)),
            ),
            2 => Cond::Or(
                Box::new(self.random_cond(depth - 1)),
                Box::new(self.random_cond(depth - 1)),
            ),
            3 => Cond::Not(Box::new(self.random_cond(depth - 1))),
            4 => Cond::Empty(self.random_path(2)),
            5 => Cond::True,
            _ => Cond::Exists(self.random_path(2)),
        }
    }

    fn random_expr(&mut self, depth: usize) -> Expr {
        self.budget -= 1;
        if depth == 0 || self.budget <= 0 {
            return match self.rng.gen_range(0..3) {
                0 => Expr::StringLit(self.pick(STRINGS).to_string()),
                1 => {
                    // A bare variable (whole copy) — but never the document.
                    let v = self.vars[self.rng.gen_range(0..self.vars.len())].clone();
                    if v == "ROOT" {
                        Expr::StringLit("doc".to_string())
                    } else {
                        Expr::Var(v)
                    }
                }
                _ => Expr::Path(self.random_path(2)),
            };
        }
        match self.rng.gen_range(0..10) {
            0..=2 => {
                // for-loop over a schema path.
                let var = self.fresh_var();
                let source = {
                    let mut p = self.random_path(1);
                    if p.steps.is_empty() {
                        p = p.child(self.pick(LABELS).to_string());
                    }
                    p
                };
                let where_clause = if self.rng.gen_bool(0.4) {
                    Some(Box::new(self.random_cond(1)))
                } else {
                    None
                };
                self.vars.push(var.clone());
                let body = self.random_expr(depth - 1);
                self.vars.pop();
                Expr::For {
                    var,
                    source,
                    where_clause,
                    body: Box::new(body),
                }
            }
            3..=5 => {
                // element constructor, sometimes with an attribute template.
                let attributes = if self.rng.gen_bool(0.3) {
                    vec![AttrConstructor {
                        name: "k".to_string(),
                        value: vec![
                            AttrPart::Literal("v-".to_string()),
                            AttrPart::Expr(Expr::Path(self.random_path(1))),
                        ],
                    }]
                } else {
                    vec![]
                };
                let n = self.rng.gen_range(1..=3);
                let content = Expr::seq((0..n).map(|_| self.random_expr(depth - 1)).collect());
                Expr::Element {
                    name: self.pick(OUTPUT_NAMES).to_string(),
                    attributes,
                    content: Box::new(content),
                }
            }
            6 => Expr::If {
                cond: Box::new(self.random_cond(2)),
                then_branch: Box::new(self.random_expr(depth - 1)),
                else_branch: Box::new(self.random_expr(depth - 1)),
            },
            7 => {
                let n = self.rng.gen_range(2..=3);
                Expr::seq((0..n).map(|_| self.random_expr(depth - 1)).collect())
            }
            8 => Expr::Path(self.random_path(2)),
            _ => Expr::StringLit(self.pick(STRINGS).to_string()),
        }
    }
}

/// Builds a random closed query: a root constructor around a book loop with
/// random body.
fn random_query(seed: u64) -> String {
    let mut g = QueryGen::new(seed);
    let var = g.fresh_var();
    g.vars.push(var.clone());
    let body = g.random_expr(3);
    g.vars.pop();
    let query = Expr::Element {
        name: "out".to_string(),
        attributes: vec![],
        content: Box::new(Expr::For {
            var,
            source: Path::var("ROOT").child("bib").child("book"),
            where_clause: None,
            body: Box::new(body),
        }),
    };
    pretty(&query)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_queries_agree_across_engines(
        query_seed in 0u64..100_000,
        doc_seed in 0u64..1_000,
        weak in any::<bool>(),
    ) {
        let query = random_query(query_seed);
        let domain = if weak { Domain::BibWeak } else { Domain::BibFig1 };
        let doc = domain.document(0.15, doc_seed);
        let mut reference: Option<Vec<u8>> = None;
        for kind in [
            EngineKind::Flux,
            EngineKind::FluxNoAlgebra,
            EngineKind::Projection,
            EngineKind::Dom,
        ] {
            let outcome = run_engine(kind, &query, domain.dtd(), doc.as_bytes())
                .unwrap_or_else(|e| panic!(
                    "{} failed (query_seed={query_seed}):\n{query}\n{e}",
                    kind.label()
                ));
            match &reference {
                None => reference = Some(outcome.output),
                Some(expected) => {
                    prop_assert_eq!(
                        std::str::from_utf8(&outcome.output).unwrap_or("<non-utf8>"),
                        std::str::from_utf8(expected).unwrap_or("<non-utf8>"),
                        "{} diverged on query_seed={} doc_seed={} weak={}:\n{}",
                        kind.label(),
                        query_seed,
                        doc_seed,
                        weak,
                        query
                    );
                }
            }
        }
    }
}

/// A quick deterministic sweep (fast path for `cargo test` without
/// proptest's shrinking machinery) over a contiguous seed range, including
/// the buffer-everything scheduling ablation as a third implementation.
#[test]
fn seed_sweep_deterministic() {
    use fluxquery::{FluxEngine, Options};
    let doc_weak = Domain::BibWeak.document(0.1, 7);
    let doc_fig1 = Domain::BibFig1.document(0.1, 7);
    for seed in 0..150u64 {
        let query = random_query(seed);
        for (domain, doc) in [(Domain::BibWeak, &doc_weak), (Domain::BibFig1, &doc_fig1)] {
            let flux = run_engine(EngineKind::Flux, &query, domain.dtd(), doc.as_bytes())
                .unwrap_or_else(|e| panic!("flux failed on seed {seed}:\n{query}\n{e}"));
            let dom = run_engine(EngineKind::Dom, &query, domain.dtd(), doc.as_bytes())
                .unwrap_or_else(|e| panic!("dom failed on seed {seed}:\n{query}\n{e}"));
            assert_eq!(
                String::from_utf8_lossy(&flux.output),
                String::from_utf8_lossy(&dom.output),
                "divergence on seed {seed}:\n{query}"
            );
            let ablated =
                FluxEngine::compile(&query, domain.dtd(), &Options::new().streaming(false))
                    .unwrap_or_else(|e| {
                        panic!("ablated compile failed on seed {seed}:\n{query}\n{e}")
                    });
            let mut out = Vec::new();
            ablated
                .run_input(fluxquery::Input::from_bytes(doc.clone()), &mut out)
                .unwrap_or_else(|e| panic!("ablated run failed on seed {seed}:\n{query}\n{e}"));
            assert_eq!(
                String::from_utf8_lossy(&out),
                String::from_utf8_lossy(&dom.output),
                "ablated engine diverged on seed {seed}:\n{query}"
            );
        }
    }
}
