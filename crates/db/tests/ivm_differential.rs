//! The differential update-sequence harness: the correctness spine of
//! incremental view maintenance.
//!
//! Two databases execute identical randomized statement sequences —
//! interleaved `insert`/`delete` updates (including unsatisfiable tuples,
//! already-absorbed tuples, and deletes of never-inserted regions), plain
//! assignments, `run`s, and `fixpoint`s — one under
//! [`MaintenanceMode::Incremental`], one under the full-recompute oracle
//! [`MaintenanceMode::Recompute`].  After **every** statement the two
//! databases must hold *exactly* the same state: the same stored relations,
//! rendered part-for-part (exact DNF equality, not mere semantic
//! equivalence), and every materialized view must also match a fresh
//! from-scratch evaluation of its defining query.  At the end of every
//! dense-order sequence each materialized view is also checked against the
//! point oracle on its defining query.  Both bundled theories are
//! exercised, at every evaluator thread count in `FRDB_TEST_THREADS`
//! (default `1,2,4`); `FRDB_IVM_CASES` scales the number of randomized
//! sequences per configuration for seeded long runs.

use frdb_core::dense::DenseOrder;
use frdb_core::fo::oracle::check_answer;
use frdb_core::fo::{PlanCache, PlanConfig};
use frdb_db::{Database, DbConfig, DbErrorKind, MaintenanceMode};
use frdb_lang::AtomSyntax;
use frdb_linear::LinearOrder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// Evaluator thread counts to run every sequence at: `FRDB_TEST_THREADS`
/// (comma-separated) when set — the CI matrix pins one count per leg — or
/// `1,2,4` by default.
fn thread_counts() -> Vec<usize> {
    match std::env::var("FRDB_TEST_THREADS") {
        Ok(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .expect("FRDB_TEST_THREADS must be comma-separated thread counts")
            })
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

/// Randomized sequences per (theory, thread count): `FRDB_IVM_CASES` when
/// set (nightly long runs), a quick default otherwise.
fn case_count() -> u64 {
    std::env::var("FRDB_IVM_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

fn db<T: AtomSyntax>(mode: MaintenanceMode, threads: usize) -> Database<T>
where
    T::A: fmt::Display,
{
    Database::with_config(DbConfig {
        plan_config: PlanConfig {
            threads,
            ..PlanConfig::default()
        },
        plan_cache: Some(Arc::new(PlanCache::new())),
        maintenance: mode,
        ..DbConfig::default()
    })
}

/// Renders every stored relation of the database, name by name — the exact
/// representation (column list and generalized-tuple list in stored order),
/// not a normalized view of it.  Two databases agreeing on this string agree
/// on the exact DNF of their entire state.
fn dump<T: AtomSyntax>(db: &Database<T>) -> String
where
    T::A: fmt::Display,
{
    let snapshot = db.snapshot();
    let mut out = String::new();
    for (name, rel) in snapshot.instance().iter() {
        out.push_str(&format!("{name} = {rel}\n"));
    }
    out
}

/// Every view currently materialized from a named query, with its stored
/// value re-checked against a fresh from-scratch evaluation of the query.
fn check_views_fresh<T: AtomSyntax>(db: &Database<T>, context: &str)
where
    T::A: fmt::Display,
{
    let snapshot = db.snapshot();
    for name in ["lin", "joint", "wide"] {
        if !snapshot.is_materialized(name) {
            continue;
        }
        let stored = snapshot
            .relation(name)
            .expect("materialized views are stored");
        let fresh = snapshot
            .eval_query(name)
            .expect("materialized query re-evaluates");
        assert_eq!(
            format!("{stored}"),
            format!("{fresh}"),
            "{context}: maintained view `{name}` drifted from a from-scratch evaluation"
        );
    }
}

/// Every materialized view checked against the point oracle on its defining
/// query over the current instance.
fn check_views_against_oracle(db: &Database<DenseOrder>, context: &str) {
    let snapshot = db.snapshot();
    for name in ["lin", "joint", "wide"] {
        if !snapshot.is_materialized(name) {
            continue;
        }
        let def = snapshot
            .query(name)
            .expect("materialized views have a query");
        let stored = snapshot
            .relation(name)
            .expect("materialized views are stored");
        let check = check_answer(def.formula(), def.free(), snapshot.instance(), &[stored])
            .unwrap_or_else(|e| panic!("{context}: oracle rejects view `{name}`: {e}"));
        assert_eq!(
            check.counterexample, None,
            "{context}: view `{name}` disagrees with the point oracle"
        );
    }
}

/// One differential step: run the same statement on both databases; they
/// must agree on success/failure (same message) and end in exactly the same
/// state.
fn step<T: AtomSyntax>(ivm: &Database<T>, oracle: &Database<T>, stmt: &str, context: &str)
where
    T::A: fmt::Display,
{
    let mut sink = Vec::new();
    let a = ivm.execute_source(stmt, &mut sink);
    let b = oracle.execute_source(stmt, &mut sink);
    match (&a, &b) {
        (Ok(()), Ok(())) | (Err(_), Err(_)) => {}
        _ => panic!("{context}: modes disagree on `{stmt}`: incremental {a:?}, oracle {b:?}"),
    }
    if let (Err(ea), Err(eb)) = (&a, &b) {
        assert_eq!(
            ea.message, eb.message,
            "{context}: divergent errors for `{stmt}`"
        );
    }
    assert_eq!(
        dump(ivm),
        dump(oracle),
        "{context}: state diverged after `{stmt}`"
    );
    check_views_fresh(ivm, context);
}

/// A random axis-aligned box literal over `(x, y)` — sometimes degenerate
/// (a point), sometimes unsatisfiable (empty interval).
fn dense_literal(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.1) {
        // Unsatisfiable on purpose: must be a no-op on both sides.
        return "{(x, y) | x < 0 and 1 < x}".to_string();
    }
    let x0 = rng.gen_range(-6i64..6);
    let x1 = x0 + rng.gen_range(0i64..5);
    let y0 = rng.gen_range(-6i64..6);
    let y1 = y0 + rng.gen_range(0i64..5);
    format!("{{(x, y) | {x0} <= x and x <= {x1} and {y0} <= y and y <= {y1}}}")
}

/// A random half-plane-bounded region literal for the linear theory.
fn linear_literal(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.1) {
        return "{(x, y) | x + y < 0 and 1 < x + y}".to_string();
    }
    let lo = rng.gen_range(-6i64..4);
    let hi = lo + rng.gen_range(1i64..6);
    let cap = rng.gen_range(-4i64..10);
    format!("{{(x, y) | {lo} <= x and x <= {hi} and {lo} <= y and y <= {hi} and x + y <= {cap}}}")
}

/// A random single-edge literal for the closure program's input.
fn edge_literal(rng: &mut StdRng) -> String {
    let a = rng.gen_range(0i64..5);
    let b = rng.gen_range(0i64..5);
    format!("{{(x, y) | x = {a} and y = {b}}}")
}

/// The shared schema, query, and program prologue of every sequence.
///
/// `lin` is linear in `base` (maintainable), `joint` is linear in each of
/// `base` and `aux` (maintainable when one changes, recomputed when both
/// do), and `wide` disjoins a `base` branch with an `aux` branch — the case
/// where a maintained view must keep contributions the changed relation
/// never produced.  `closure` keeps a transitive closure fresh under `edge`
/// updates.
fn prologue() -> &'static str {
    "schema base/2, aux/2, edge/2;\n\
     query lin(x, y) := base(x, y) and x <= 4;\n\
     query joint(x, y) := base(x, y) and aux(x, y);\n\
     query wide(x, y) := base(x, y) or (aux(x, y) and y <= 2);\n\
     program closure {\n\
       tc(x, y) :- edge(x, y).\n\
       tc(x, y) :- tc(x, z), edge(z, y).\n\
     }\n"
}

/// One random statement of an update sequence.
fn random_stmt(rng: &mut StdRng, region: &dyn Fn(&mut StdRng) -> String) -> String {
    match rng.gen_range(0u32..20) {
        0..=5 => {
            let rel = ["base", "aux"][rng.gen_range(0usize..2)];
            format!("insert {rel} {};", region(rng))
        }
        6..=9 => {
            let rel = ["base", "aux"][rng.gen_range(0usize..2)];
            format!("delete {rel} {};", region(rng))
        }
        10 => format!("insert edge {};", edge_literal(rng)),
        11 => format!("delete edge {};", edge_literal(rng)),
        12 => format!("base := {};", region(rng)),
        13..=15 => {
            let q = ["lin", "joint", "wide"][rng.gen_range(0usize..3)];
            format!("run {q};")
        }
        16 => "fixpoint closure;".to_string(),
        17 => "insert ghost {(x) | x = 0};".to_string(),
        18 => "delete base {(x) | x = 0};".to_string(),
        _ => "run lin;".to_string(),
    }
}

/// Runs the randomized sequences; `at_end` inspects the incremental
/// database after each one.
fn run_sequences<T: AtomSyntax>(
    theory: &str,
    region: &dyn Fn(&mut StdRng) -> String,
    at_end: &dyn Fn(&Database<T>, &str),
) where
    T::A: fmt::Display,
{
    for threads in thread_counts() {
        for case in 0..case_count() {
            let seed = 0xF2DB * (case + 1) + threads as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let context = format!("{theory}, {threads} thread(s), case {case} (seed {seed})");
            let ivm: Database<T> = db(MaintenanceMode::Incremental, threads);
            let oracle: Database<T> = db(MaintenanceMode::Recompute, threads);
            step(&ivm, &oracle, prologue(), &context);
            // Materialize the views up front so the update stream exercises
            // refreshes from the first insert onward.
            step(&ivm, &oracle, "run lin;\nrun joint;\nrun wide;", &context);
            for _ in 0..24 {
                let stmt = random_stmt(&mut rng, region);
                step(&ivm, &oracle, &stmt, &format!("{context}, `{stmt}`"));
            }
            at_end(&ivm, &context);
        }
    }
}

#[test]
fn maintained_equals_recomputed_dense() {
    run_sequences::<DenseOrder>("dense", &dense_literal, &check_views_against_oracle);
}

#[test]
fn maintained_equals_recomputed_linear() {
    run_sequences::<LinearOrder>("linear", &linear_literal, &|_, _| {});
}

/// A deterministic sequence pinning that incremental maintenance actually
/// happens (the point of the machinery) and stays exact: the maintained
/// counter rises on the incremental side, stays zero on the oracle, and the
/// states agree part-for-part throughout.
#[test]
fn incremental_mode_actually_maintains() {
    let ivm: Database<DenseOrder> = db(MaintenanceMode::Incremental, 2);
    let oracle: Database<DenseOrder> = db(MaintenanceMode::Recompute, 2);
    let context = "deterministic maintenance sequence";
    step(&ivm, &oracle, prologue(), context);
    step(
        &ivm,
        &oracle,
        "insert base {(x, y) | 0 <= x and x <= 3 and 0 <= y and y <= 3};",
        context,
    );
    step(&ivm, &oracle, "run lin;\nrun wide;", context);
    // Single-relation updates against views linear in `base`: maintainable.
    step(
        &ivm,
        &oracle,
        "insert base {(x, y) | 5 <= x and x <= 7 and 1 <= y and y <= 2};",
        context,
    );
    step(
        &ivm,
        &oracle,
        "delete base {(x, y) | 1 <= x and x <= 2 and 1 <= y and y <= 2};",
        context,
    );
    // Absorbed insert and never-inserted delete: deltas are empty, nothing
    // needs re-evaluating, state still exact.
    step(
        &ivm,
        &oracle,
        "insert base {(x, y) | x = 1 and y = 0};",
        context,
    );
    step(
        &ivm,
        &oracle,
        "delete base {(x, y) | 40 <= x and x <= 41 and y = 0};",
        context,
    );
    let m = ivm.metrics();
    assert!(
        m.views_maintained >= 2,
        "expected maintained refreshes, got {}",
        m.views_maintained
    );
    assert_eq!(
        oracle.metrics().views_maintained,
        0,
        "the recompute oracle must never take the maintained path"
    );
    assert!(oracle.metrics().views_recomputed >= 2);
    assert_eq!(m.inserts, 3);
    assert_eq!(m.deletes, 2);
}

/// Satellite: the commit path rejects updates against undeclared relations
/// and wrong arities with *typed* errors, before anything is mutated.
#[test]
fn updates_against_bad_schema_are_typed_errors() {
    let db: Database<DenseOrder> = db(MaintenanceMode::Incremental, 1);
    let mut out = Vec::new();
    db.execute_source("schema r/2;", &mut out).unwrap();
    let g = db.generation();

    let err = db
        .execute_source("insert ghost {(x) | x = 0};", &mut out)
        .unwrap_err();
    assert_eq!(err.kind, DbErrorKind::UndeclaredRelation);
    assert!(err.message.contains("ghost"), "message: {}", err.message);

    let err = db
        .execute_source("delete r {(x) | x = 0};", &mut out)
        .unwrap_err();
    assert_eq!(err.kind, DbErrorKind::ArityMismatch);
    assert!(err.message.contains("r"), "message: {}", err.message);

    // Rejected updates publish nothing: no generation was consumed and the
    // update-counter metrics saw no effective delta.
    assert_eq!(db.generation(), g);
    assert_eq!(db.metrics().inserts, 0);
    assert_eq!(db.metrics().deletes, 0);
}
