//! Property tests pinning the relational-algebra evaluator against the point
//! oracle (`frdb_core::fo::oracle`): on randomized formulas over both the
//! dense-order and the linear theory, and on the whole `frdb_queries` FO
//! catalog, every evaluation pipeline's answer must agree with the oracle's
//! Tarskian truth at the order-type representatives of the answer's arity.
//! The oracle shares nothing with the symbolic kernel (closure, entailment,
//! simplification, elimination), so a kernel bug cannot pass it by being
//! repeated on both sides.
//!
//! Every agreement check runs **three** pipelines at the same points — the
//! optimized plan (the default), the unoptimized syntactic-order plan
//! (`OptLevel::None`), and the plan re-optimized on the instance's statistics
//! — and the parallel-executor tests additionally pin that plans evaluated at
//! 2 and 4 worker threads are *bit-identical* (same tuples, same order) to
//! the serial evaluation.
//!
//! The `*_matches_expand_*` tests keep the names they had when the reference
//! was the retired expand-then-eliminate evaluator: the proptest runner
//! derives each test's case seeds from its name, so the names keep the
//! generated cases the same.

use frdb_core::dense::{DenseAtom, DenseOrder};
use frdb_core::fo::oracle::{check_answer, AnswerCheck, PointOracle};
use frdb_core::fo::{
    compile_query, compile_query_with, eval_query, eval_sentence, PlanConfig, Statistics,
};
use frdb_core::logic::{Formula, Term, Var};
use frdb_core::relation::{GenTuple, Instance, Relation};
use frdb_core::schema::Schema;
use frdb_core::theory::Theory;
use frdb_linear::{LinAtom, LinExpr, LinearOrder};
use frdb_num::Rat;
use frdb_queries::catalog::fo_catalog;
use frdb_queries::convexity::{midpoint_convexity_sentence, to_linear_relation};
use frdb_queries::workload::{random_graph, random_intervals, single_relation_instance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Checks every evaluation pipeline on `{free | formula}` over `instance` —
/// the optimized plan, the unoptimized syntactic-order plan and the
/// statistics-reoptimized plan — against the point oracle at the same
/// order-type representatives, and returns the oracle's tally.
fn assert_matches_oracle<T: Theory>(
    formula: &Formula<T::A>,
    free: &[Var],
    instance: &Instance<T>,
    label: &str,
) -> AnswerCheck
where
    T::A: std::fmt::Display,
{
    const PIPELINES: [&str; 3] = ["optimized", "unoptimized", "statistics-reoptimized"];
    let answers = [
        eval_query(formula, free, instance),
        compile_query_with(formula, free, &PlanConfig::baseline()).eval(instance),
        compile_query(formula, free)
            .optimized_for(&Statistics::collect(instance))
            .eval(instance),
    ]
    .into_iter()
    .zip(PIPELINES)
    .map(|(answer, pipeline)| {
        answer.unwrap_or_else(|e| panic!("{label}: {pipeline} plan failed: {e}"))
    })
    .collect::<Vec<Relation<T>>>();
    let check = check_answer(formula, free, instance, &answers)
        .unwrap_or_else(|e| panic!("{label}: point oracle failed: {e}"));
    if let Some((i, point)) = &check.counterexample {
        panic!(
            "{label}: {} plan disagrees with the point oracle on {formula} at {point:?}\n  \
             answer: {}",
            PIPELINES[*i], answers[*i]
        );
    }
    check
}

/// Asserts that evaluating the (optimized) plan at 2 and 4 worker threads is
/// bit-identical to the serial evaluation.
fn assert_parallel_matches_serial<T: Theory>(
    formula: &Formula<T::A>,
    free: &[Var],
    instance: &Instance<T>,
    label: &str,
) where
    T::A: std::fmt::Display,
{
    let serial = compile_query::<T>(formula, free)
        .eval(instance)
        .unwrap_or_else(|e| panic!("{label}: serial evaluation failed: {e}"));
    for threads in [1usize, 2, 4] {
        let parallel = compile_query::<T>(formula, free)
            .with_threads(threads)
            .eval(instance)
            .unwrap_or_else(|e| panic!("{label}: evaluation at {threads} threads failed: {e}"));
        assert_eq!(
            serial.to_dnf(),
            parallel.to_dnf(),
            "{label}: {threads}-thread evaluation diverged from serial on {formula}"
        );
    }
}

// ---------------------------------------------------------------------------
// Randomized dense-order formulas
// ---------------------------------------------------------------------------

fn rand_term(rng: &mut StdRng) -> Term {
    match rng.gen_range(0..=4) {
        0 => Term::var("x"),
        1 => Term::var("y"),
        2 => Term::var("z"),
        _ => Term::cst(rng.gen_range(-2..=4)),
    }
}

fn rand_dense_atom(rng: &mut StdRng) -> DenseAtom {
    let (l, r) = (rand_term(rng), rand_term(rng));
    match rng.gen_range(0..=2) {
        0 => DenseAtom::lt(l, r),
        1 => DenseAtom::le(l, r),
        _ => DenseAtom::eq(l, r),
    }
}

fn rand_dense_leaf(rng: &mut StdRng) -> Formula<DenseAtom> {
    match rng.gen_range(0..=3) {
        0 | 1 => Formula::Atom(rand_dense_atom(rng)),
        2 => Formula::rel("R", [rand_term(rng)]),
        _ => Formula::rel("S", [rand_term(rng), rand_term(rng)]),
    }
}

fn rand_dense_formula(rng: &mut StdRng, depth: usize) -> Formula<DenseAtom> {
    if depth == 0 {
        return rand_dense_leaf(rng);
    }
    fn quant_var(rng: &mut StdRng) -> &'static str {
        match rng.gen_range(0..=2) {
            0 => "x",
            1 => "y",
            _ => "z",
        }
    }
    match rng.gen_range(0..=9) {
        0..=2 => Formula::And(
            (0..rng.gen_range(2..=3))
                .map(|_| rand_dense_formula(rng, depth - 1))
                .collect(),
        ),
        3..=5 => Formula::Or(
            (0..rng.gen_range(2..=3))
                .map(|_| rand_dense_formula(rng, depth - 1))
                .collect(),
        ),
        6 => rand_dense_formula(rng, depth - 1).not(),
        7 => {
            let v = quant_var(rng);
            Formula::exists([v], rand_dense_formula(rng, depth - 1))
        }
        8 => {
            let v = quant_var(rng);
            Formula::forall([v], rand_dense_formula(rng, depth - 1))
        }
        _ => rand_dense_leaf(rng),
    }
}

fn dense_instance(seed: u64) -> Instance<DenseOrder> {
    let mut rng = StdRng::seed_from_u64(seed);
    let r = random_intervals(&mut rng, 2, 12);
    let s = random_graph(&mut rng, 4, 4);
    let mut inst = Instance::new(Schema::from_pairs([("R", 1), ("S", 2)]));
    inst.set("R", r).unwrap();
    inst.set("S", s.rename(vec![Var::new("x"), Var::new("y")]))
        .unwrap();
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over dense order the oracle is exact: it decides every point.
    #[test]
    fn algebraic_matches_expand_on_random_dense_formulas(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.gen_range(1..=3);
        let formula = rand_dense_formula(&mut rng, depth);
        let free: Vec<Var> = formula.free_vars().into_iter().collect();
        let inst = dense_instance(seed ^ 0xABCD);
        let check = assert_matches_oracle(&formula, &free, &inst, "random dense formula");
        prop_assert_eq!(check.unknown, 0);
    }
}

// ---------------------------------------------------------------------------
// Randomized linear-constraint formulas (the algebra stays theory-generic)
// ---------------------------------------------------------------------------

fn rand_lin_expr(rng: &mut StdRng) -> LinExpr {
    let mut e = LinExpr::constant(Rat::from_i64(rng.gen_range(-3..=3)));
    for v in ["x", "y"] {
        let c = rng.gen_range(-2..=2);
        if c != 0 {
            e = e.add(&LinExpr::var(v).scale(&Rat::from_i64(c)));
        }
    }
    e
}

fn rand_lin_leaf(rng: &mut StdRng) -> Formula<LinAtom> {
    if rng.gen_range(0..=2) == 0 {
        let t = match rng.gen_range(0..=2) {
            0 => Term::var("x"),
            1 => Term::var("y"),
            _ => Term::cst(rng.gen_range(0..=10)),
        };
        return Formula::rel("R", [t]);
    }
    let (l, r) = (rand_lin_expr(rng), rand_lin_expr(rng));
    Formula::Atom(match rng.gen_range(0..=2) {
        0 => LinAtom::lt(l, r),
        1 => LinAtom::le(l, r),
        _ => LinAtom::eq(l, r),
    })
}

fn rand_lin_formula(rng: &mut StdRng, depth: usize) -> Formula<LinAtom> {
    if depth == 0 {
        return rand_lin_leaf(rng);
    }
    match rng.gen_range(0..=7) {
        0 | 1 => Formula::And((0..2).map(|_| rand_lin_formula(rng, depth - 1)).collect()),
        2 | 3 => Formula::Or((0..2).map(|_| rand_lin_formula(rng, depth - 1)).collect()),
        4 => rand_lin_formula(rng, depth - 1).not(),
        5 => Formula::exists(
            [if rng.gen_range(0..=1) == 0 { "x" } else { "y" }],
            rand_lin_formula(rng, depth - 1),
        ),
        _ => rand_lin_leaf(rng),
    }
}

fn linear_instance(seed: u64) -> Instance<LinearOrder> {
    let mut rng = StdRng::seed_from_u64(seed);
    let r = to_linear_relation(&random_intervals(&mut rng, 2, 10));
    let mut inst = Instance::new(Schema::from_pairs([("R", 1)]));
    inst.set("R", r).unwrap();
    inst
}

const LINEAR_CASES: u32 = 24;

/// Decided and unknown oracle points, and cases run, over the linear run.
static LINEAR_TALLY: Mutex<(usize, usize, u32)> = Mutex::new((0, 0, 0));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(LINEAR_CASES))]

    /// Over linear constraints the oracle is one-sided (an `∃` without a
    /// witness on its grid is unknown), so unknown points are skipped — but
    /// at least half of the points checked over the whole run must be
    /// decided, or the check would pass by deciding nothing.
    #[test]
    fn algebraic_matches_expand_on_random_linear_formulas(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.gen_range(1..=2);
        let formula = rand_lin_formula(&mut rng, depth);
        let free: Vec<Var> = formula.free_vars().into_iter().collect();
        let inst = linear_instance(seed ^ 0x5EED);
        let check = assert_matches_oracle(&formula, &free, &inst, "random linear formula");
        let mut tally = LINEAR_TALLY.lock().unwrap();
        tally.0 += check.decided;
        tally.1 += check.unknown;
        tally.2 += 1;
        if tally.2 == LINEAR_CASES {
            let (decided, unknown, _) = *tally;
            prop_assert!(
                2 * decided >= decided + unknown,
                "the linear oracle decided only {} of {} points",
                decided,
                decided + unknown
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The full FO catalog
// ---------------------------------------------------------------------------

/// Catalog entries whose order-type representatives outnumber the oracle's
/// `MAX_POINTS`, so a fixed-seed sample of them is checked.  Every other
/// entry — connectivity-1d, gap, shadow, iff-shadow, two-hop, three-hop,
/// zigzag, diagonal-membership and nonempty-3d — is checked exhaustively,
/// at every representative of every instance.  The test asserts this split.
const SAMPLED_CATALOG_ENTRIES: &[&str] = &["sweep"];

#[test]
fn algebraic_matches_expand_on_the_full_catalog() {
    for entry in fo_catalog() {
        let mut exhaustive = true;
        for (i, inst) in entry.instances.iter().enumerate() {
            let label = format!("catalog entry {} (instance {i})", entry.name);
            let check = assert_matches_oracle(&entry.formula, &entry.free, inst, &label);
            assert_eq!(check.unknown, 0, "{label}: the dense oracle is exact");
            exhaustive &= check.exhaustive;
        }
        assert_eq!(
            exhaustive,
            !SAMPLED_CATALOG_ENTRIES.contains(&entry.name),
            "catalog entry {}: exhaustive = {exhaustive}",
            entry.name
        );
    }
}

#[test]
fn parallel_executor_matches_serial_on_the_full_catalog() {
    for entry in fo_catalog() {
        for (i, inst) in entry.instances.iter().enumerate() {
            assert_parallel_matches_serial(
                &entry.formula,
                &entry.free,
                inst,
                &format!("catalog entry {} (instance {i})", entry.name),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_executor_matches_serial_on_random_dense_formulas(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.gen_range(1..=3);
        let formula = rand_dense_formula(&mut rng, depth);
        let free: Vec<Var> = formula.free_vars().into_iter().collect();
        let inst = dense_instance(seed ^ 0xF00D);
        assert_parallel_matches_serial(&formula, &free, &inst, "random dense formula (parallel)");
    }

    #[test]
    fn parallel_executor_matches_serial_on_random_linear_formulas(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.gen_range(1..=2);
        let formula = rand_lin_formula(&mut rng, depth);
        let free: Vec<Var> = formula.free_vars().into_iter().collect();
        let inst = linear_instance(seed ^ 0xBEEF);
        assert_parallel_matches_serial(&formula, &free, &inst, "random linear formula (parallel)");
    }
}

// ---------------------------------------------------------------------------
// Indexed joins vs the pairwise scan, at the Relation level (PR 6)
// ---------------------------------------------------------------------------

/// A random generalized tuple constraining each variable to nothing (the
/// sweep's wildcard class), a pin, a half-open ray, or a possibly-empty
/// closed/open interval — exactly the envelope shapes the interval index
/// classifies.
fn rand_interval_tuple(rng: &mut StdRng, vars: &[Var]) -> GenTuple<DenseAtom> {
    let mut atoms = Vec::new();
    for v in vars {
        let t = || Term::var(v.name());
        match rng.gen_range(0..=5) {
            0 => {}
            1 => atoms.push(DenseAtom::eq(t(), Term::cst(rng.gen_range(-4..=8)))),
            2 => {
                let lo = Term::cst(rng.gen_range(-4..=8));
                atoms.push(if rng.gen_range(0..=1) == 0 {
                    DenseAtom::le(lo, t())
                } else {
                    DenseAtom::lt(lo, t())
                });
            }
            3 => {
                let hi = Term::cst(rng.gen_range(-4..=8));
                atoms.push(if rng.gen_range(0..=1) == 0 {
                    DenseAtom::le(t(), hi)
                } else {
                    DenseAtom::lt(t(), hi)
                });
            }
            _ => {
                // Width 0 with strict endpoints yields unsatisfiable tuples,
                // on purpose: both join paths must prune them identically.
                let lo: i64 = rng.gen_range(-4..=6);
                let hi = lo + rng.gen_range(0..=4i64);
                atoms.push(if rng.gen_range(0..=1) == 0 {
                    DenseAtom::le(Term::cst(lo), t())
                } else {
                    DenseAtom::lt(Term::cst(lo), t())
                });
                atoms.push(if rng.gen_range(0..=1) == 0 {
                    DenseAtom::le(t(), Term::cst(hi))
                } else {
                    DenseAtom::lt(t(), Term::cst(hi))
                });
            }
        }
    }
    GenTuple::new(atoms)
}

fn rand_dense_relation(
    rng: &mut StdRng,
    vars: &[&str],
    min: usize,
    max: usize,
) -> Relation<DenseOrder> {
    let vars: Vec<Var> = vars.iter().map(Var::new).collect();
    let tuples = (0..rng.gen_range(min..=max))
        .map(|_| rand_interval_tuple(rng, &vars))
        .collect();
    Relation::new(vars, tuples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The indexed join (interval sweep + pin hashing) must produce the exact
    /// same DNF — same tuples, same order — as the pairwise candidate scan,
    /// on dense instances mixing pins, rays, intervals, wildcards, empty
    /// tuples, and empty relations.
    #[test]
    fn indexed_join_matches_pairwise_scan_on_dense_intervals(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_dense_relation(&mut rng, &["x", "y"], 0, 6);
        let b = rand_dense_relation(&mut rng, &["y", "z"], 0, 6);
        prop_assert_eq!(
            a.join_with(&b, 1).to_dnf(),
            a.join_scan(&b).to_dnf(),
            "indexed dense join diverged from the pairwise scan\n  a: {}\n  b: {}",
            a,
            b
        );
    }

    /// Same agreement over the linear theory, whose envelopes come from
    /// single-variable affine atoms instead of the dense order closure.
    #[test]
    fn indexed_join_matches_pairwise_scan_on_linear_intervals(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = to_linear_relation(&rand_dense_relation(&mut rng, &["x", "y"], 0, 6));
        let b = to_linear_relation(&rand_dense_relation(&mut rng, &["y", "z"], 0, 6));
        prop_assert_eq!(
            a.join_with(&b, 1).to_dnf(),
            a.join_scan(&b).to_dnf(),
            "indexed linear join diverged from the pairwise scan\n  a: {}\n  b: {}",
            a,
            b
        );
    }
}

/// Parallel indexed joins large enough to clear the cost gate must stay
/// bit-identical to the serial result (and to the pairwise scan) at 1, 2 and
/// 4 worker threads: every candidate path yields right indices in ascending
/// order and the parallel merge restores left order.
#[test]
fn parallel_indexed_join_is_bit_identical_to_serial() {
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        let a = rand_dense_relation(&mut rng, &["x", "y"], 96, 128);
        let b = rand_dense_relation(&mut rng, &["y", "z"], 96, 128);
        let reference = a.join_scan(&b).to_dnf();
        for threads in [1usize, 2, 4] {
            assert_eq!(
                a.join_with(&b, threads).to_dnf(),
                reference,
                "dense join at {threads} threads diverged from the scan (seed {seed})"
            );
        }
    }
    // One linear round: smaller, since context saturation is costlier there.
    let mut rng = StdRng::seed_from_u64(0x11EA2);
    let a = to_linear_relation(&rand_dense_relation(&mut rng, &["x", "y"], 64, 64));
    let b = to_linear_relation(&rand_dense_relation(&mut rng, &["y", "z"], 64, 64));
    let reference = a.join_scan(&b).to_dnf();
    for threads in [1usize, 2, 4] {
        assert_eq!(
            a.join_with(&b, threads).to_dnf(),
            reference,
            "linear join at {threads} threads diverged from the scan"
        );
    }
}

#[test]
fn midpoint_convexity_agrees_across_evaluators() {
    // The Lemma 5.4 convexity query evaluated over the linear theory: a convex
    // interval and a two-piece non-convex region.
    for (seed, n) in [(1u64, 1usize), (2, 3)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let region = random_intervals(&mut rng, n, 20);
        let mut inst: Instance<LinearOrder> = Instance::new(Schema::from_pairs([("R", 1)]));
        inst.set("R", to_linear_relation(&region)).unwrap();
        let sentence = midpoint_convexity_sentence("R", 1);
        let a = eval_sentence(&sentence, &inst).unwrap();
        let direct = frdb_queries::convexity::is_convex_1d(&region);
        assert_eq!(a, direct, "evaluator disagrees with the direct algorithm");
        // The linear oracle is one-sided: it must exhibit a non-convex
        // region's counterexample midpoint, and never refute a convex one.
        let oracle = PointOracle::new(&sentence, &[], &inst).unwrap().truth(&[]);
        if direct {
            assert_ne!(
                oracle,
                Some(false),
                "oracle refutes a convex region (seed {seed})"
            );
        } else {
            assert_eq!(
                oracle,
                Some(false),
                "oracle misses the midpoint (seed {seed})"
            );
        }
    }
}

#[test]
fn single_relation_instances_round_trip_between_engines() {
    // A smoke check that the catalog helpers stay aligned with the engines'
    // column conventions after renames.
    let mut rng = StdRng::seed_from_u64(9);
    let inst = single_relation_instance("R", random_intervals(&mut rng, 3, 30));
    let q: Formula<DenseAtom> = Formula::exists(["x"], Formula::rel("R", [Term::var("x")]));
    assert_eq!(
        Some(eval_sentence(&q, &inst).unwrap()),
        PointOracle::new(&q, &[], &inst).unwrap().truth(&[])
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The box-sweep strategy (second shared column's envelope index refining
    /// the first column's interval sweep) must stay exact against the pairwise
    /// scan when relations share *two* columns.
    #[test]
    fn box_join_matches_pairwise_scan_on_two_shared_columns(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_dense_relation(&mut rng, &["x", "y"], 0, 6);
        let b = rand_dense_relation(&mut rng, &["x", "y"], 0, 6);
        prop_assert_eq!(
            a.join_with(&b, 1).to_dnf(),
            a.join_scan(&b).to_dnf(),
            "box-sweep dense join diverged from the pairwise scan\n  a: {}\n  b: {}",
            a,
            b
        );
        let la = to_linear_relation(&a);
        let lb = to_linear_relation(&b);
        prop_assert_eq!(
            la.join_with(&lb, 1).to_dnf(),
            la.join_scan(&lb).to_dnf(),
            "box-sweep linear join diverged from the pairwise scan\n  a: {}\n  b: {}",
            la,
            lb
        );
    }
}
