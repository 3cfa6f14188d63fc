//! The cost-guided plan optimizer.
//!
//! [`super::compile_query`] produces a plan whose join operands appear in
//! **syntactic order** — whatever order the user wrote the conjuncts in.  This
//! pass rewrites that plan bottom-up, guided by a [`Statistics`] snapshot (or
//! uniform defaults when none is available):
//!
//! * **Join flattening + greedy cost ordering.**  Nested joins are flattened
//!   into one n-ary join set and re-ordered *cheapest-pair-first*: the two
//!   operands with the smallest estimated join cardinality open the fold, and
//!   each subsequent operand is the one minimizing the estimated size of the
//!   next intermediate.  Operands sharing columns with the accumulated prefix
//!   are preferred over cross products, so a conjunction written in a
//!   cross-product-first order (`S(x,y) ∧ S(z,w) ∧ S(y,z)`) evaluates as the
//!   chain `S(x,y) ⋈ S(y,z) ⋈ S(z,w)`.
//! * **Selection placement.**  Constraint atoms are detached from the join's
//!   merged selection and re-attached at the earliest fold position where all
//!   their variables are bound, so they prune intermediates as soon as they
//!   can and never bloat the closures of tuples they cannot yet constrain.
//! * **Complement pushdown.**  `¬(A ∪ B)` over leaf-like branches becomes
//!   `¬A ⋈ ¬B`: the per-branch complements are hash-consed (shared across the
//!   plan DAG and memoized by the evaluator) and the join prunes through
//!   cached contexts, where the monolithic complement would re-distribute the
//!   union's tuples from scratch.  Double complements were already folded at
//!   compile time.
//!
//! The rewrite is memoized on node identity and re-interns every node through
//! the compiler's hash-consing plan builder, so the invariant — structurally equal
//! sub-plans are pointer equal — survives optimization and the evaluator's
//! per-query memo table keeps firing.
//!
//! The cost model is deliberately small: a stored relation costs its tuple
//! count (default 8 when unknown); joining over a shared column divides the
//! pair count by the larger distinct-pin count of the two sides (default
//! halves it); a constraint atom halves its input; a union sums; a complement
//! is charged a small blow-up over its child.  Estimates only *order*
//! operands, so being wrong is never unsound — the property tests pin
//! optimized ≡ unoptimized on randomized formulas over both theories.

use super::stats::Statistics;
use super::{union_cols, Plan, PlanBuilder, PlanNode};
use crate::logic::{Term, Var};
use crate::theory::{Atom, Theory};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// How aggressively to rewrite compiled plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No rewriting: joins evaluate in syntactic order (the PR 2 baseline).
    None,
    /// Cost-guided rewriting: join flattening and greedy ordering, selection
    /// placement, and complement pushdown.
    #[default]
    Full,
}

/// Compilation configuration: optimization level and evaluator thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanConfig {
    /// The optimization level ([`OptLevel::Full`] by default).
    pub opt: OptLevel,
    /// Worker threads the evaluator may use for join partitioning and
    /// projection (1 = serial, the default).  Parallelism only engages on
    /// relations large enough to amortize the thread spawn; results are
    /// bit-identical to the serial path at any thread count.
    pub threads: usize,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            opt: OptLevel::Full,
            threads: 1,
        }
    }
}

impl PlanConfig {
    /// The configuration reproducing the unoptimized serial evaluator.
    #[must_use]
    pub fn baseline() -> PlanConfig {
        PlanConfig {
            opt: OptLevel::None,
            threads: 1,
        }
    }
}

/// Estimated rows of a stored relation absent statistics.
const DEFAULT_LEAF_ROWS: f64 = 8.0;
/// Selectivity charged per constraint atom applied to a bound prefix.
const ATOM_SELECTIVITY: f64 = 0.5;
/// Selectivity of one shared join column with no pin information.
const SHARED_COL_SELECTIVITY: f64 = 0.5;

/// The per-column envelope summary an estimate carries: what fraction of the
/// tuples have a two-sided constant envelope on the column, the value range
/// those envelopes span, and their average width.  Mirrors
/// [`super::stats::ColumnStats`] for one plan output.
#[derive(Clone, Copy, Debug)]
pub(super) struct ColBound {
    /// Fraction of tuples carrying a two-sided envelope (0..=1).
    frac: f64,
    /// Smallest lower endpoint across those envelopes.
    lo: f64,
    /// Largest upper endpoint across those envelopes.
    hi: f64,
    /// Average envelope width.
    avg_width: f64,
}

/// The cardinality estimate of a sub-plan: expected generalized-tuple count
/// plus, per column, the number of distinct constants the column is pinned to
/// and the envelope summary (each absent when unknown), plus the number of
/// factorized **parts** the factorized evaluator would hold the node in
/// (1 = materialized; >1 only at and downstream of union nodes).
#[derive(Clone, Debug)]
pub(super) struct Est {
    pub rows: f64,
    pub distinct: BTreeMap<Var, f64>,
    pub bounds: BTreeMap<Var, ColBound>,
    pub parts: usize,
}

impl Est {
    fn leaf(rows: f64) -> Est {
        Est {
            rows,
            distinct: BTreeMap::new(),
            bounds: BTreeMap::new(),
            parts: 1,
        }
    }
}

/// Interval-overlap selectivity of one shared column whose two sides carry
/// envelope summaries: the probability two random envelopes (average widths
/// `wa`, `wb`, lower endpoints spread over the union span) overlap, charged
/// output-proportionally — this is what the join's sorted-endpoint index
/// leaves for the compatibility filter.  Tuples without envelopes on either
/// side fall back to the uninformed shared-column selectivity.
fn overlap_selectivity(a: &ColBound, b: &ColBound) -> f64 {
    let span = (a.hi.max(b.hi) - a.lo.min(b.lo)).max(1e-9);
    let overlap = ((a.avg_width + b.avg_width) / span).min(1.0);
    let both = (a.frac * b.frac).clamp(0.0, 1.0);
    both * overlap + (1.0 - both) * SHARED_COL_SELECTIVITY
}

/// Estimated cardinality of joining `a` and `b` (given their column sets), and
/// the merged estimate.
fn join_est(a_cols: &BTreeSet<Var>, a: &Est, b_cols: &BTreeSet<Var>, b: &Est) -> Est {
    let mut selectivity = 1.0;
    let mut distinct = a.distinct.clone();
    for v in a_cols.intersection(b_cols) {
        let da = a.distinct.get(v).copied();
        let db = b.distinct.get(v).copied();
        let s = match (da, db) {
            (Some(da), Some(db)) => 1.0 / da.max(db).max(1.0),
            // No pins on one side: when both sides carry envelope summaries
            // the interval index prunes to the overlap-feasible pairs, so
            // charge the overlap probability instead of the uninformed half.
            _ => match (a.bounds.get(v), b.bounds.get(v)) {
                (Some(ba), Some(bb)) => overlap_selectivity(ba, bb),
                _ => SHARED_COL_SELECTIVITY,
            },
        };
        selectivity *= s;
    }
    for (v, db) in &b.distinct {
        distinct
            .entry(v.clone())
            .and_modify(|da| *da = da.min(*db))
            .or_insert(*db);
    }
    // Merged envelopes: keep the narrower summary per column (the joined
    // tuples satisfy both sides' constraints).
    let mut bounds = a.bounds.clone();
    for (v, bb) in &b.bounds {
        bounds
            .entry(v.clone())
            .and_modify(|ba| {
                if bb.avg_width < ba.avg_width {
                    *ba = *bb;
                }
            })
            .or_insert(*bb);
    }
    // Joins distribute over factorized parts (capped like the evaluator:
    // the side with more parts is merged when the product would overflow).
    let parts = if a.parts * b.parts <= super::MAX_PARTS {
        a.parts * b.parts
    } else {
        a.parts.min(b.parts)
    };
    Est {
        rows: (a.rows * b.rows * selectivity).max(0.0),
        distinct,
        bounds,
        parts,
    }
}

/// Estimates a plan's output cardinality, memoized over the plan DAG.
pub(super) fn estimate_plan<T: Theory>(
    plan: &Plan<T>,
    stats: &Statistics,
    memo: &mut HashMap<usize, Est>,
) -> Est {
    let key = Arc::as_ptr(&plan.0) as usize;
    if let Some(cached) = memo.get(&key) {
        return cached.clone();
    }
    let est = match &plan.0.node {
        PlanNode::Empty => Est::leaf(0.0),
        PlanNode::Universal => Est::leaf(1.0),
        PlanNode::Select(atoms) => Est::leaf(ATOM_SELECTIVITY.powi(atoms.len() as i32 - 1)),
        PlanNode::Rename { name, to } => match stats.relation(name) {
            None => Est::leaf(DEFAULT_LEAF_ROWS),
            Some(rs) => {
                let mut distinct = BTreeMap::new();
                let mut bounds = BTreeMap::new();
                for (i, var) in to.iter().enumerate() {
                    if let Some(col) = rs.columns.get(i) {
                        if col.distinct_pins > 0 && col.pinned == rs.tuples {
                            distinct.insert(var.clone(), col.distinct_pins as f64);
                        }
                        if col.bounded > 0 && rs.tuples > 0 {
                            bounds.insert(
                                var.clone(),
                                ColBound {
                                    frac: col.bounded as f64 / rs.tuples as f64,
                                    lo: col.lo,
                                    hi: col.hi,
                                    avg_width: col.avg_width,
                                },
                            );
                        }
                    }
                }
                Est {
                    rows: rs.tuples as f64,
                    distinct,
                    bounds,
                    parts: 1,
                }
            }
        },
        PlanNode::Scan { name, args } => {
            let rows = stats
                .relation(name)
                .map_or(DEFAULT_LEAF_ROWS, |rs| rs.tuples as f64);
            // Constant arguments and repeated variables act as selections.
            let mut seen: BTreeSet<&Var> = BTreeSet::new();
            let mut constrained = 0i32;
            for a in args {
                match a {
                    Term::Const(_) => constrained += 1,
                    Term::Var(v) => {
                        if !seen.insert(v) {
                            constrained += 1;
                        }
                    }
                }
            }
            Est::leaf(rows * ATOM_SELECTIVITY.powi(constrained))
        }
        PlanNode::Join(children) => {
            let mut acc: Option<(BTreeSet<Var>, Est)> = None;
            for child in children {
                let cols: BTreeSet<Var> = child.cols().iter().cloned().collect();
                let est = estimate_plan(child, stats, memo);
                acc = Some(match acc {
                    None => (cols, est),
                    Some((acc_cols, acc_est)) => {
                        let joined = join_est(&acc_cols, &acc_est, &cols, &est);
                        (acc_cols.union(&cols).cloned().collect(), joined)
                    }
                });
            }
            acc.map_or_else(|| Est::leaf(1.0), |(_, e)| e)
        }
        PlanNode::Union(children) => {
            let mut rows = 0.0;
            let mut parts = 0usize;
            for child in children {
                let child_est = estimate_plan(child, stats, memo);
                rows += child_est.rows;
                parts += child_est.parts;
            }
            // The factorized evaluator holds the union's children as parts,
            // merging eagerly only when the cap overflows.
            let mut est = Est::leaf(rows);
            est.parts = if parts <= super::MAX_PARTS { parts } else { 1 };
            est
        }
        PlanNode::Complement(input) => {
            let inner = estimate_plan(input, stats, memo);
            // Complementing a t-tuple DNF conjoins t atom-wise negations; the
            // result is usually comparable in size with a modest blow-up.
            Est::leaf(inner.rows * 1.5 + 1.0)
        }
        PlanNode::Project { input, eliminate } => {
            let mut inner = estimate_plan(input, stats, memo);
            for v in eliminate {
                inner.distinct.remove(v);
                inner.bounds.remove(v);
            }
            inner
        }
    };
    memo.insert(key, est.clone());
    est
}

/// Rewrites a plan bottom-up under the cost model; see the module docs.
/// The rewrite is memoized on node identity (DAG sharing is preserved) and
/// every produced node is re-interned through `builder`.
pub(super) fn optimize_plan<T: Theory>(
    plan: &Plan<T>,
    stats: &Statistics,
    builder: &mut PlanBuilder<T>,
) -> Plan<T> {
    let mut memo: HashMap<usize, Plan<T>> = HashMap::new();
    let mut est_memo: HashMap<usize, Est> = HashMap::new();
    rewrite(plan, stats, builder, &mut memo, &mut est_memo)
}

fn rewrite<T: Theory>(
    plan: &Plan<T>,
    stats: &Statistics,
    builder: &mut PlanBuilder<T>,
    memo: &mut HashMap<usize, Plan<T>>,
    est_memo: &mut HashMap<usize, Est>,
) -> Plan<T> {
    let key = Arc::as_ptr(&plan.0) as usize;
    if let Some(done) = memo.get(&key) {
        return done.clone();
    }
    let out = match &plan.0.node {
        PlanNode::Empty
        | PlanNode::Universal
        | PlanNode::Select(_)
        | PlanNode::Rename { .. }
        | PlanNode::Scan { .. } => plan.clone(),
        PlanNode::Join(children) => {
            let kids: Vec<Plan<T>> = children
                .iter()
                .map(|c| rewrite(c, stats, builder, memo, est_memo))
                .collect();
            order_join(kids, stats, builder, est_memo)
        }
        PlanNode::Union(children) => {
            let kids: Vec<Plan<T>> = children
                .iter()
                .map(|c| rewrite(c, stats, builder, memo, est_memo))
                .collect();
            builder.union_of(kids)
        }
        PlanNode::Complement(input) => {
            let inner = rewrite(input, stats, builder, memo, est_memo);
            let pushed = match &inner.0.node {
                // ¬(A ∪ B) → ¬A ⋈ ¬B over leaf-like branches: the branch
                // complements become shared, memoizable nodes and the join
                // prunes through cached contexts.
                PlanNode::Union(branches)
                    if branches.len() >= 2 && branches.iter().all(|b| is_leafish(b)) =>
                {
                    let comps: Vec<Plan<T>> = branches
                        .iter()
                        .map(|b| builder.complement_of(b.clone()))
                        .collect();
                    Some(order_join(comps, stats, builder, est_memo))
                }
                _ => None,
            };
            pushed.unwrap_or_else(|| builder.complement_of(inner))
        }
        PlanNode::Project { input, eliminate } => {
            let inner = rewrite(input, stats, builder, memo, est_memo);
            builder.project_of(inner, eliminate)
        }
    };
    memo.insert(key, out.clone());
    out
}

/// Whether a plan is cheap to complement independently (a leaf or selection).
fn is_leafish<T: Theory>(plan: &Plan<T>) -> bool {
    matches!(
        plan.0.node,
        PlanNode::Select(_) | PlanNode::Rename { .. } | PlanNode::Scan { .. }
    )
}

/// Builds a join over `children` with greedy cost ordering and selection
/// placement (the children are already optimized).
fn order_join<T: Theory>(
    children: Vec<Plan<T>>,
    stats: &Statistics,
    builder: &mut PlanBuilder<T>,
    est_memo: &mut HashMap<usize, Est>,
) -> Plan<T> {
    // Flatten nested joins and detach selection atoms.
    let mut atoms: Vec<T::A> = Vec::new();
    let mut ops: Vec<Plan<T>> = Vec::new();
    let mut stack: Vec<Plan<T>> = children.into_iter().rev().collect();
    let mut saw_empty = false;
    while let Some(c) = stack.pop() {
        match &c.0.node {
            PlanNode::Join(inner) => {
                for g in inner.iter().rev() {
                    stack.push(g.clone());
                }
            }
            PlanNode::Select(sel) => {
                for a in sel {
                    if !atoms.contains(a) {
                        atoms.push(a.clone());
                    }
                }
            }
            PlanNode::Universal => {}
            PlanNode::Empty => saw_empty = true,
            _ => {
                if !ops.iter().any(|k| k.ptr_eq(&c)) {
                    ops.push(c);
                }
            }
        }
    }
    let select_cols: Vec<Var> = atoms
        .iter()
        .flat_map(Atom::vars)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    if saw_empty {
        let mut cols = union_cols(&ops);
        for v in &select_cols {
            if !cols.contains(v) {
                cols.push(v.clone());
            }
        }
        return builder.empty(cols);
    }
    if ops.is_empty() {
        return if atoms.is_empty() {
            builder.universal(Vec::new())
        } else {
            builder.select(atoms)
        };
    }
    if ops.len() == 1 {
        // One relational operand: keep the compile-time shape (selection
        // first, pruning the operand's tuples through its context).
        let op = ops.pop().expect("length checked");
        if atoms.is_empty() {
            return op;
        }
        let sel = builder.select(atoms);
        let cols = union_cols(&[sel.clone(), op.clone()]);
        return builder.intern(PlanNode::Join(vec![sel, op]), cols);
    }

    // Greedy ordering: cheapest pair first, then always the operand that
    // minimizes the next intermediate estimate.
    let ests: Vec<(BTreeSet<Var>, Est)> = ops
        .iter()
        .map(|p| {
            (
                p.cols().iter().cloned().collect(),
                estimate_plan(p, stats, est_memo),
            )
        })
        .collect();
    // Cost of a step: primarily the estimated intermediate cardinality, with
    // the candidate-pair count (the work the join actually performs) breaking
    // ties — a 2×2 pair beats a 2×20 pair that happens to estimate equal.
    let step_cost = |a_cols: &BTreeSet<Var>, a: &Est, b_cols: &BTreeSet<Var>, b: &Est| {
        (join_est(a_cols, a, b_cols, b).rows, a.rows * b.rows)
    };
    let better = |a: (f64, f64), b: (f64, f64)| a.0 < b.0 || (a.0 == b.0 && a.1 < b.1);
    let mut remaining: Vec<usize> = (0..ops.len()).collect();
    let mut seq: Vec<usize> = Vec::new();
    let (mut first, mut second, mut best) = (0usize, 1usize, (f64::INFINITY, f64::INFINITY));
    for (ai, &i) in remaining.iter().enumerate() {
        for &j in remaining.iter().skip(ai + 1) {
            let cost = step_cost(&ests[i].0, &ests[i].1, &ests[j].0, &ests[j].1);
            if better(cost, best) {
                best = cost;
                // The smaller operand opens the fold.
                if ests[i].1.rows <= ests[j].1.rows {
                    (first, second) = (i, j);
                } else {
                    (first, second) = (j, i);
                }
            }
        }
    }
    seq.push(first);
    seq.push(second);
    remaining.retain(|&k| k != first && k != second);
    let mut acc_cols: BTreeSet<Var> = ests[first].0.union(&ests[second].0).cloned().collect();
    let mut acc_est = join_est(
        &ests[first].0,
        &ests[first].1,
        &ests[second].0,
        &ests[second].1,
    );
    while !remaining.is_empty() {
        let mut pick = 0usize;
        let mut pick_cost = (f64::INFINITY, f64::INFINITY);
        for (slot, &k) in remaining.iter().enumerate() {
            let cost = step_cost(&acc_cols, &acc_est, &ests[k].0, &ests[k].1);
            if better(cost, pick_cost) {
                pick_cost = cost;
                pick = slot;
            }
        }
        let k = remaining.remove(pick);
        acc_est = join_est(&acc_cols, &acc_est, &ests[k].0, &ests[k].1);
        acc_cols.extend(ests[k].0.iter().cloned());
        seq.push(k);
    }

    // Interleave the selection atoms at their earliest applicable position.
    let mut pending: Vec<T::A> = atoms;
    let mut ordered: Vec<Plan<T>> = Vec::new();
    let mut bound: BTreeSet<Var> = BTreeSet::new();
    // Ground atoms (and atoms covered by the very first operand) lead the
    // fold, mirroring the compile-time selection-first shape.
    for (step, &k) in seq.iter().enumerate() {
        let next_bound: BTreeSet<Var> = if step == 0 {
            ests[k].0.clone()
        } else {
            bound.union(&ests[k].0).cloned().collect()
        };
        let applicable: Vec<T::A> = pending
            .iter()
            .filter(|a| a.vars().iter().all(|v| next_bound.contains(v)))
            .cloned()
            .collect();
        pending.retain(|a| !applicable.contains(a));
        if step == 0 && !applicable.is_empty() {
            ordered.push(builder.select(applicable));
            ordered.push(ops[k].clone());
        } else {
            ordered.push(ops[k].clone());
            if !applicable.is_empty() {
                ordered.push(builder.select(applicable));
            }
        }
        bound = next_bound;
    }
    if !pending.is_empty() {
        // Atoms over variables no operand binds: joined in at the end, where
        // they extend the result cylinder without bloating intermediates.
        ordered.push(builder.select(pending));
    }
    let cols = union_cols(&ordered);
    builder.intern(PlanNode::Join(ordered), cols)
}

#[cfg(test)]
mod tests {
    use super::super::oracle::check_answer;
    use super::super::{compile_query, compile_query_with};
    use super::*;
    use crate::dense::{DenseAtom, DenseOrder};
    use crate::logic::Formula;
    use crate::relation::{Instance, Relation};
    use crate::schema::Schema;
    use frdb_num::Rat;

    type F = Formula<DenseAtom>;

    fn v(name: &str) -> Var {
        Var::new(name)
    }

    /// A scrambled chain: `∃y,z. S(x,y) ∧ S(z,w) ∧ S(y,z)` — the syntactic
    /// order opens with a cross product.
    fn scrambled() -> F {
        Formula::exists(
            ["y", "z"],
            Formula::conj([
                Formula::rel("S", [Term::var("x"), Term::var("y")]),
                Formula::rel("S", [Term::var("z"), Term::var("w")]),
                Formula::rel("S", [Term::var("y"), Term::var("z")]),
            ]),
        )
    }

    fn chain_instance(n: i64) -> Instance<DenseOrder> {
        let mut inst = Instance::new(Schema::from_pairs([("S", 2)]));
        let points: Vec<Vec<Rat>> = (0..n)
            .map(|i| vec![Rat::from_i64(i), Rat::from_i64(i + 1)])
            .collect();
        inst.set("S", Relation::from_points(vec![v("x"), v("y")], points))
            .unwrap();
        inst
    }

    #[test]
    fn scrambled_joins_are_reordered_into_a_chain() {
        let unopt = compile_query_with::<DenseOrder>(
            &scrambled(),
            &[v("x"), v("w")],
            &PlanConfig::baseline(),
        );
        let opt = compile_query::<DenseOrder>(&scrambled(), &[v("x"), v("w")]);
        // Syntactic order keeps the cross product first; the optimizer joins
        // along shared columns.
        assert_eq!(
            unopt.plan().to_string(),
            "π-{y,z}(S(x, y) ⋈ S(z, w) ⋈ S(y, z))"
        );
        assert_eq!(
            opt.plan().to_string(),
            "π-{y,z}(S(x, y) ⋈ S(y, z) ⋈ S(z, w))"
        );
        // Both agree with the point oracle.
        let inst = chain_instance(6);
        let answers = [unopt.eval(&inst).unwrap(), opt.eval(&inst).unwrap()];
        let check = check_answer(&scrambled(), &[v("x"), v("w")], &inst, &answers).unwrap();
        assert_eq!(check.counterexample, None);
    }

    #[test]
    fn selections_are_placed_where_their_variables_bind() {
        // `∃y. S(x,y) ∧ S(y,z) ∧ z < 2`: the constraint mentions the last
        // join variable, so the optimizer defers it to the fold position that
        // binds z instead of bloating the first intermediate.
        let q: F = Formula::exists(
            ["y"],
            Formula::conj([
                Formula::rel("S", [Term::var("x"), Term::var("y")]),
                Formula::rel("S", [Term::var("y"), Term::var("z")]),
                Formula::Atom(DenseAtom::lt(Term::var("z"), Term::cst(4))),
            ]),
        );
        let unopt =
            compile_query_with::<DenseOrder>(&q, &[v("x"), v("z")], &PlanConfig::baseline());
        let opt = compile_query::<DenseOrder>(&q, &[v("x"), v("z")]);
        assert_eq!(
            unopt.plan().to_string(),
            "π-{y}(σ[z < 4] ⋈ S(x, y) ⋈ S(y, z))"
        );
        assert_eq!(
            opt.plan().to_string(),
            "π-{y}(S(x, y) ⋈ S(y, z) ⋈ σ[z < 4])"
        );
        let inst = chain_instance(5);
        let a = opt.eval(&inst).unwrap();
        let b = unopt.eval(&inst).unwrap();
        assert!(a.equivalent(&b));
        assert!(a.contains(&[Rat::from_i64(0), Rat::from_i64(2)]));
        assert!(!a.contains(&[Rat::from_i64(2), Rat::from_i64(4)]));
    }

    #[test]
    fn complements_push_through_leaf_unions() {
        // ¬(R(x) ∨ S(x, y)) → ¬R(x) ⋈ ¬S(x, y): per-branch complements are
        // shared, memoizable nodes.
        let q: F = Formula::rel("R", [Term::var("x")])
            .or(Formula::rel("S", [Term::var("x"), Term::var("y")]))
            .not();
        let opt = compile_query::<DenseOrder>(&q, &[v("x"), v("y")]);
        assert_eq!(opt.plan().to_string(), "(¬R(x) ⋈ ¬S(x, y))");
        let mut inst = chain_instance(3);
        inst.declare("R", 1).unwrap();
        inst.set(
            "R",
            Relation::from_points(vec![v("x")], vec![vec![Rat::from_i64(0)]]),
        )
        .unwrap();
        let unopt =
            compile_query_with::<DenseOrder>(&q, &[v("x"), v("y")], &PlanConfig::baseline());
        assert!(opt
            .eval(&inst)
            .unwrap()
            .equivalent(&unopt.eval(&inst).unwrap()));
    }

    #[test]
    fn statistics_pick_the_cheapest_pair_first() {
        // A is much larger than B and C; the greedy order must open with the
        // (B, C) pair and leave A last, whatever the syntactic order says.
        let q: F = Formula::exists(
            ["y", "z"],
            Formula::conj([
                Formula::rel("A", [Term::var("x"), Term::var("y")]),
                Formula::rel("B", [Term::var("y"), Term::var("z")]),
                Formula::rel("C", [Term::var("z"), Term::var("w")]),
            ]),
        );
        let mut inst: Instance<DenseOrder> =
            Instance::new(Schema::from_pairs([("A", 2), ("B", 2), ("C", 2)]));
        let points = |n: i64| -> Vec<Vec<Rat>> {
            (0..n)
                .map(|i| vec![Rat::from_i64(i), Rat::from_i64(i + 1)])
                .collect()
        };
        inst.set("A", Relation::from_points(vec![v("x"), v("y")], points(20)))
            .unwrap();
        inst.set("B", Relation::from_points(vec![v("x"), v("y")], points(2)))
            .unwrap();
        inst.set("C", Relation::from_points(vec![v("x"), v("y")], points(2)))
            .unwrap();
        let compiled = compile_query::<DenseOrder>(&q, &[v("x"), v("w")]);
        let tuned = compiled.optimized_for(&Statistics::collect(&inst));
        assert_eq!(
            tuned.plan().to_string(),
            "π-{y,z}(B(y, z) ⋈ C(z, w) ⋈ A(x, y))"
        );
        assert!(tuned
            .eval(&inst)
            .unwrap()
            .equivalent(&compiled.eval(&inst).unwrap()));
    }

    #[test]
    fn optimization_preserves_hash_consing_across_shared_subplans() {
        // The iff expansion duplicates both sides; the optimized plan must
        // stay a DAG with single copies.
        let phi: F = Formula::exists(["y"], Formula::rel("S", [Term::var("x"), Term::var("y")]));
        let psi: F = Formula::rel("R", [Term::var("x")]);
        let q = phi.iff(psi);
        let unopt = compile_query_with::<DenseOrder>(&q, &[v("x")], &PlanConfig::baseline());
        let opt = compile_query::<DenseOrder>(&q, &[v("x")]);
        assert!(opt.plan().node_count() <= unopt.plan().node_count());
    }
}
