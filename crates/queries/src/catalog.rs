//! The executable FO query catalog: the Fig. 8 queries (and the standard
//! relational-algebra shapes they exercise) paired with small instances, as
//! one reusable list.
//!
//! The **evaluator-equivalence property tests** run every entry through each
//! evaluation pipeline and check the answers against the point oracle
//! (`frdb_core::fo::oracle`).  Entries are kept small: the oracle checks an
//! answer at one point per order type of its arity, so entries of arity ≤ 3
//! are checked exhaustively and the arity-4 sweep body is sampled.

use crate::programs::sweep_body;
use crate::reductions::{boolean_vector, majority_to_connectivity, parity_to_connectivity_3d};
use crate::workload::{random_graph, random_intervals, random_region2, single_relation_instance};
use frdb_core::dense::{DenseAtom, DenseOrder};
use frdb_core::logic::{Formula, Term, Var};
use frdb_core::relation::Instance;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One catalog entry: a named FO query with its free variables and a set of
/// instances to evaluate it on.
pub struct CatalogEntry {
    /// A short stable name (used in test failure messages and benchmark ids).
    pub name: &'static str,
    /// The query formula.
    pub formula: Formula<DenseAtom>,
    /// The free (answer) variables.
    pub free: Vec<Var>,
    /// Instances the query is meant to run on.
    pub instances: Vec<Instance<DenseOrder>>,
}

fn v(name: &str) -> Var {
    Var::new(name)
}

fn interval_instances() -> Vec<Instance<DenseOrder>> {
    [3usize, 5]
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let mut rng = StdRng::seed_from_u64(11 + i as u64);
            single_relation_instance("R", random_intervals(&mut rng, n, 40))
        })
        .collect()
}

fn region_instances() -> Vec<Instance<DenseOrder>> {
    let mut out: Vec<Instance<DenseOrder>> = [2usize, 3]
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let mut rng = StdRng::seed_from_u64(23 + i as u64);
            single_relation_instance("R", random_region2(&mut rng, n, 24))
        })
        .collect();
    // The Fig. 3 reduction region: the staircase + target of the majority
    // construction, renamed onto the catalog's column convention.
    let region = majority_to_connectivity(&boolean_vector(3, 2));
    out.push(single_relation_instance(
        "R",
        region.rename(vec![v("x"), v("y")]),
    ));
    out
}

fn graph_instances() -> Vec<Instance<DenseOrder>> {
    (0..2u64)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(37 + seed);
            single_relation_instance("S", random_graph(&mut rng, 4, 5))
        })
        .collect()
}

/// The "gap" query `{x | ¬R(x) ∧ ∃y (R(y) ∧ y < x) ∧ ∃z (R(z) ∧ x < z)}` —
/// a quantifier-depth-2 selection with negation over a monadic relation.
#[must_use]
pub fn gap_query() -> Formula<DenseAtom> {
    Formula::rel("R", [Term::var("x")])
        .not()
        .and(Formula::exists(
            ["y"],
            Formula::rel("R", [Term::var("y")])
                .and(Formula::Atom(DenseAtom::lt(Term::var("y"), Term::var("x")))),
        ))
        .and(Formula::exists(
            ["z"],
            Formula::rel("R", [Term::var("z")])
                .and(Formula::Atom(DenseAtom::lt(Term::var("x"), Term::var("z")))),
        ))
}

/// The two-hop join `{(x, z) | ∃y. S(x, y) ∧ S(y, z)}`.
#[must_use]
pub fn two_hop_query() -> Formula<DenseAtom> {
    Formula::exists(
        ["y"],
        Formula::rel("S", [Term::var("x"), Term::var("y")])
            .and(Formula::rel("S", [Term::var("y"), Term::var("z")])),
    )
}

/// The three-hop join `{(x, w) | ∃y ∃z. S(x,y) ∧ S(y,z) ∧ S(z,w)}` — the
/// multi-relation-join shape.
#[must_use]
pub fn three_hop_query() -> Formula<DenseAtom> {
    Formula::exists(
        ["y", "z"],
        Formula::conj([
            Formula::rel("S", [Term::var("x"), Term::var("y")]),
            Formula::rel("S", [Term::var("y"), Term::var("z")]),
            Formula::rel("S", [Term::var("z"), Term::var("w")]),
        ]),
    )
}

/// The "zigzag" multi-join `{(x, w) | ∃y ∃z. S(x,y) ∧ S(z,w) ∧ S(y,z)}` —
/// semantically the three-hop chain, deliberately *written* cross-product
/// first: syntactic-order evaluation multiplies `S(x,y) × S(z,w)` before the
/// linking conjunct `S(y,z)` arrives.  This is the shape the cost-guided
/// plan optimizer re-orders into the chain `S(x,y) ⋈ S(y,z) ⋈ S(z,w)`, and
/// the benchmark harness measures that win on it.
#[must_use]
pub fn zigzag_query() -> Formula<DenseAtom> {
    Formula::exists(
        ["y", "z"],
        Formula::conj([
            Formula::rel("S", [Term::var("x"), Term::var("y")]),
            Formula::rel("S", [Term::var("z"), Term::var("w")]),
            Formula::rel("S", [Term::var("y"), Term::var("z")]),
        ]),
    )
}

/// `{x | shadow_R(x) ↔ shadow-of-converse_R(x)}` over a binary region — the
/// bi-implication duplicates both shadow sub-formulas, exercising the
/// evaluator's hash-consing and memoization.
#[must_use]
pub fn iff_shadow_query() -> Formula<DenseAtom> {
    let shadow = Formula::exists(
        ["y"],
        Formula::<DenseAtom>::rel("R", [Term::var("x"), Term::var("y")]),
    );
    let converse = Formula::exists(
        ["y"],
        Formula::<DenseAtom>::rel("R", [Term::var("y"), Term::var("x")]),
    );
    shadow.iff(converse)
}

/// The full dense-order catalog.
#[must_use]
pub fn fo_catalog() -> Vec<CatalogEntry> {
    let mut entries = vec![
        CatalogEntry {
            name: "connectivity-1d",
            formula: crate::shape1d::connectivity_1d_sentence("R"),
            free: Vec::new(),
            instances: interval_instances(),
        },
        CatalogEntry {
            name: "gap",
            formula: gap_query(),
            free: vec![v("x")],
            instances: interval_instances(),
        },
        CatalogEntry {
            name: "shadow",
            formula: Formula::exists(["y"], Formula::rel("R", [Term::var("x"), Term::var("y")])),
            free: vec![v("x")],
            instances: region_instances(),
        },
        CatalogEntry {
            name: "iff-shadow",
            formula: iff_shadow_query(),
            free: vec![v("x")],
            instances: region_instances(),
        },
        CatalogEntry {
            name: "two-hop",
            formula: two_hop_query(),
            free: vec![v("x"), v("z")],
            instances: graph_instances(),
        },
        CatalogEntry {
            name: "three-hop",
            formula: three_hop_query(),
            free: vec![v("x"), v("w")],
            instances: graph_instances(),
        },
        CatalogEntry {
            name: "zigzag",
            formula: zigzag_query(),
            free: vec![v("x"), v("w")],
            instances: graph_instances(),
        },
        CatalogEntry {
            name: "diagonal-membership",
            formula: Formula::rel("S", [Term::var("x"), Term::var("x")]),
            free: vec![v("x")],
            instances: graph_instances(),
        },
        CatalogEntry {
            name: "nonempty-3d",
            formula: Formula::exists(
                ["x", "y", "z"],
                Formula::rel("R", [Term::var("x"), Term::var("y"), Term::var("z")]),
            ),
            free: Vec::new(),
            instances: vec![single_relation_instance(
                "R",
                parity_to_connectivity_3d(&boolean_vector(3, 2)),
            )],
        },
    ];
    // The Example 6.3 sweep body: the heaviest FO shape of the paper (five
    // relation atoms, three negated quantified sub-formulas), on tiny Fig. 3
    // staircase regions.
    let sweep_instances: Vec<Instance<DenseOrder>> = (0..2usize)
        .map(|ones| {
            let region = majority_to_connectivity(&boolean_vector(2, ones));
            single_relation_instance("R", region.rename(vec![v("x"), v("y")]))
        })
        .collect();
    entries.push(CatalogEntry {
        name: "sweep",
        formula: sweep_body("R"),
        free: vec![v("x"), v("y"), v("u"), v("v")],
        instances: sweep_instances,
    });
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use frdb_core::fo::eval_query;

    #[test]
    fn catalog_entries_evaluate_on_their_instances() {
        for entry in fo_catalog() {
            for (i, inst) in entry.instances.iter().enumerate() {
                let ans = eval_query(&entry.formula, &entry.free, inst)
                    .unwrap_or_else(|e| panic!("{} on instance {i}: {e}", entry.name));
                assert_eq!(ans.arity(), entry.free.len(), "{}", entry.name);
            }
        }
    }
}
