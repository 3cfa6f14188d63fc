//! The point-semantics oracle: Tarskian evaluation of a [`Formula`] at a
//! point through [`Relation::contains`] (Prop. 2.4) and [`Atom::eval`] only —
//! no closure, entailment, simplification or elimination.
//!
//! A quantifier ranges over a finite grid: every constant of the formula and
//! of the relations it reads, every assigned value, the midpoint of each gap
//! between them, and one point below and above them all.  By genericity
//! (Def. 4.2 / Prop. 4.10) the grid is exact for [`Atom::ORDER_GENERIC`]
//! atoms.  Otherwise it also holds each atom's [`Atom::boundary_points`], and
//! the evaluation is sound but not complete: an `∃` without a witness or a
//! `∀` without a counterexample is unknown (`None`).

use super::{answer_var_error, collect_rel_atoms, fetch, EvalError};
use crate::logic::{Formula, Term, Var};
use crate::relation::{Instance, Relation};
use crate::schema::RelName;
use crate::theory::{Atom, Theory};
use frdb_num::Rat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Above this many order-type representatives [`check_answer`] checks a
/// fixed-seed sample of this many.
pub const MAX_POINTS: usize = 2048;

/// A query `{free | formula}` bound to an instance, decided point by point.
pub struct PointOracle<'a, T: Theory> {
    formula: &'a Formula<T::A>,
    free: &'a [Var],
    relations: HashMap<RelName, Arc<Relation<T>>>,
    /// The constants of the formula and of the relations it reads.
    constants: BTreeSet<Rat>,
}

impl<'a, T: Theory> PointOracle<'a, T> {
    /// Binds `{free | formula}` to `instance`.
    ///
    /// # Errors
    /// The [`EvalError`] [`super::eval_query`] returns for the same query.
    pub fn new(
        formula: &'a Formula<T::A>,
        free: &'a [Var],
        instance: &Instance<T>,
    ) -> Result<Self, EvalError> {
        if let Some(e) = answer_var_error(formula, free) {
            return Err(e);
        }
        let mut rels = Vec::new();
        collect_rel_atoms(formula, &mut rels);
        let mut relations = HashMap::new();
        for (name, arity) in rels {
            relations.insert(name.clone(), fetch(instance, &name, arity)?);
        }
        let mut constants = formula.constants();
        constants.extend(relations.values().flat_map(|r| r.constants()));
        Ok(PointOracle {
            formula,
            free,
            relations,
            constants,
        })
    }

    /// The formula's truth at `point` (one value per answer variable), or
    /// `None` when unknown.
    #[must_use]
    pub fn truth(&self, point: &[Rat]) -> Option<bool> {
        assert_eq!(point.len(), self.free.len(), "point arity mismatch");
        let mut env: Vec<(Var, Rat)> = self.free.iter().cloned().zip(point.to_vec()).collect();
        self.eval(self.formula, &mut env)
    }

    fn eval(&self, formula: &Formula<T::A>, env: &mut Vec<(Var, Rat)>) -> Option<bool> {
        let value = |env: &[(Var, Rat)], v: &Var| bound(env, v).expect("variables are bound");
        match formula {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Atom(a) => Some(a.eval(&|v| value(env, v))),
            Formula::Rel { name, args } => {
                let point: Vec<Rat> = args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => value(env, v),
                        Term::Const(c) => c.clone(),
                    })
                    .collect();
                Some(self.relations[name].contains(&point))
            }
            Formula::Not(g) => self.eval(g, env).map(|b| !b),
            Formula::And(fs) => kleene(fs.iter().map(|g| self.eval(g, env)), false, true),
            Formula::Or(fs) => kleene(fs.iter().map(|g| self.eval(g, env)), true, true),
            Formula::Exists(vs, g) => self.quantify(vs, g, env, true),
            Formula::Forall(vs, g) => self.quantify(vs, g, env, false),
        }
    }

    /// `∃vs. body` (`witness = true`) or `∀vs. body` (`witness = false`),
    /// one variable at a time over the grid.
    fn quantify(
        &self,
        vs: &[Var],
        body: &Formula<T::A>,
        env: &mut Vec<(Var, Rat)>,
        witness: bool,
    ) -> Option<bool> {
        let Some((var, rest)) = vs.split_first() else {
            return self.eval(body, env);
        };
        let mut extra: Vec<Rat> = env.iter().map(|(_, r)| r.clone()).collect();
        if !T::A::ORDER_GENERIC {
            self.boundaries(body, var, env, &mut extra);
        }
        let base = merged(self.constants.iter().collect(), &extra);
        let outcomes = (0..=2 * base.len()).map(|i| {
            env.push((var.clone(), grid_point(&base, i)));
            let outcome = self.quantify(rest, body, env, witness);
            env.pop();
            outcome
        });
        kleene(outcomes, witness, T::A::ORDER_GENERIC)
    }

    /// Adds the boundary points in `var` of every atom under `formula`,
    /// relation atoms read through their stored tuples.
    fn boundaries(
        &self,
        formula: &Formula<T::A>,
        var: &Var,
        env: &[(Var, Rat)],
        out: &mut Vec<Rat>,
    ) {
        let lookup = |v: &Var| bound(env, v);
        match formula {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => out.extend(a.boundary_points(var, &lookup)),
            Formula::Rel { name, args } => {
                let rel = &self.relations[name];
                let columns: HashMap<Var, Term> = rel
                    .vars()
                    .iter()
                    .cloned()
                    .zip(args.iter().cloned())
                    .collect();
                for atom in rel.tuples().iter().flat_map(|t| t.atoms()) {
                    out.extend(
                        atom.subst_simultaneous(&columns)
                            .boundary_points(var, &lookup),
                    );
                }
            }
            Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => {
                self.boundaries(g, var, env, out);
            }
            Formula::And(fs) | Formula::Or(fs) => {
                for g in fs {
                    self.boundaries(g, var, env, out);
                }
            }
        }
    }
}

/// The value bound to `v` (innermost binding first), if any.
fn bound(env: &[(Var, Rat)], v: &Var) -> Option<Rat> {
    env.iter()
        .rev()
        .find(|(w, _)| w == v)
        .map(|(_, r)| r.clone())
}

/// Kleene's strong connectives: `dominant` as soon as one outcome is
/// `dominant` (`true` for `∨`/`∃`, `false` for `∧`/`∀`), else the other
/// value when every outcome was decided and `exhaustive`, else unknown.
fn kleene(
    outcomes: impl Iterator<Item = Option<bool>>,
    dominant: bool,
    exhaustive: bool,
) -> Option<bool> {
    let mut unknown = !exhaustive;
    for outcome in outcomes {
        match outcome {
            Some(b) if b == dominant => return Some(dominant),
            Some(_) => {}
            None => unknown = true,
        }
    }
    (!unknown).then_some(!dominant)
}

/// `sorted` (sorted and distinct) with the values of `extra` merged in.
fn merged<'r>(mut sorted: Vec<&'r Rat>, extra: &'r [Rat]) -> Vec<&'r Rat> {
    for v in extra {
        if let Err(pos) = sorted.binary_search(&v) {
            sorted.insert(pos, v);
        }
    }
    sorted
}

/// The `i`-th of the `2·base.len() + 1` grid points over `base` (sorted and
/// distinct): odd `i` is the value `base[i / 2]`, even `i` a point in the gap
/// just below it, or above every value for the last `i` — one representative
/// of each order type of a new value relative to `base`.
fn grid_point(base: &[&Rat], i: usize) -> Rat {
    let (below, above) = (i.checked_sub(1).map(|j| base[j / 2]), base.get(i / 2));
    match (i % 2 == 1, below, above) {
        (true, _, Some(v)) => (*v).clone(),
        (_, None, None) => Rat::zero(),
        (_, None, Some(hi)) => *hi - &Rat::one(),
        (_, Some(lo), None) => lo + &Rat::one(),
        (_, Some(lo), Some(hi)) => lo.midpoint(hi),
    }
}

/// One point per order type of `arity` coordinates relative to `constants`
/// (coordinates placed one after another over the grid, so coordinates in
/// one gap take distinct points in every relative order), or a fixed-seed
/// sample of [`MAX_POINTS`] of them when there are more; `true` if all.
fn representatives(arity: usize, constants: &BTreeSet<Rat>) -> (Vec<Vec<Rat>>, bool) {
    fn all(constants: &[&Rat], prefix: &mut Vec<Rat>, arity: usize, out: &mut Vec<Vec<Rat>>) {
        if prefix.len() == arity {
            out.push(prefix.clone());
            return;
        }
        let base = merged(constants.to_vec(), prefix);
        let grid: Vec<Rat> = (0..=2 * base.len()).map(|i| grid_point(&base, i)).collect();
        for c in grid {
            prefix.push(c);
            all(constants, prefix, arity, out);
            prefix.pop();
            if out.len() > MAX_POINTS {
                return;
            }
        }
    }
    let sorted: Vec<&Rat> = constants.iter().collect();
    let mut out = Vec::new();
    all(&sorted, &mut Vec::new(), arity, &mut out);
    if out.len() <= MAX_POINTS {
        return (out, true);
    }
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    let sample = (0..MAX_POINTS).map(|_| {
        let mut point = Vec::with_capacity(arity);
        for _ in 0..arity {
            let base = merged(sorted.clone(), &point);
            point.push(grid_point(&base, rng.gen_range(0..=2 * base.len())));
        }
        point
    });
    (sample.collect(), false)
}

/// The outcome of [`check_answer`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnswerCheck {
    /// Points the oracle decided and every answer agreed with.
    pub decided: usize,
    /// Points skipped because the oracle could not decide them.
    pub unknown: usize,
    /// Whether every order-type representative was checked (not a sample).
    pub exhaustive: bool,
    /// The first point where an answer (by index) disagrees with the oracle.
    pub counterexample: Option<(usize, Vec<Rat>)>,
}

/// Checks candidate answers of `{free | formula}` over `instance` against
/// the oracle at the same points: one per order type of their arity relative
/// to the constants of the formula, the relations it reads and the answers.
/// Over dense order two relations definable with those constants that differ
/// anywhere differ at one of them.  Stops at the first counterexample.
///
/// # Errors
/// As for [`PointOracle::new`].
pub fn check_answer<T: Theory>(
    formula: &Formula<T::A>,
    free: &[Var],
    instance: &Instance<T>,
    answers: &[Relation<T>],
) -> Result<AnswerCheck, EvalError> {
    let oracle = PointOracle::new(formula, free, instance)?;
    let mut constants = oracle.constants.clone();
    for answer in answers {
        assert_eq!(answer.arity(), free.len(), "answer arity mismatch");
        constants.extend(answer.constants());
    }
    let (points, exhaustive) = representatives(free.len(), &constants);
    let mut check = AnswerCheck {
        exhaustive,
        ..AnswerCheck::default()
    };
    for point in points {
        let Some(truth) = oracle.truth(&point) else {
            check.unknown += 1;
            continue;
        };
        if let Some(answer) = answers.iter().position(|a| a.contains(&point) != truth) {
            check.counterexample = Some((answer, point));
            break;
        }
        check.decided += 1;
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{DenseAtom, DenseOrder};
    use crate::relation::GenTuple;
    use crate::schema::Schema;

    type F = Formula<DenseAtom>;

    fn lt(a: &str, b: &str) -> F {
        Formula::Atom(DenseAtom::lt(Term::var(a), Term::var(b)))
    }

    fn le(a: &str, b: &str) -> F {
        Formula::Atom(DenseAtom::le(Term::var(a), Term::var(b)))
    }

    fn sentence(q: &F) -> Option<bool> {
        let inst: Instance<DenseOrder> = Instance::new(Schema::new());
        PointOracle::new(q, &[], &inst).unwrap().truth(&[])
    }

    #[test]
    fn density_holds() {
        // ∀x ∀y. x < y → ∃z. x < z < y
        let q = Formula::forall(
            ["x", "y"],
            lt("x", "y").implies(Formula::exists(["z"], lt("x", "z").and(lt("z", "y")))),
        );
        assert_eq!(sentence(&q), Some(true));
    }

    #[test]
    fn there_are_no_endpoints() {
        // ∃x ∀y. x ≤ y
        let q = Formula::exists(["x"], Formula::forall(["y"], le("x", "y")));
        assert_eq!(sentence(&q), Some(false));
    }

    #[test]
    fn errors_match_eval_query() {
        let inst: Instance<DenseOrder> = Instance::new(Schema::from_pairs([("R", 1)]));
        let x = || Term::var("x");
        let cases: [(F, Vec<Var>); 4] = [
            (Formula::rel("T", [x()]), vec![Var::new("x")]),
            (Formula::rel("R", [x(), x()]), vec![Var::new("x")]),
            (Formula::rel("R", [x()]), vec![]),
            (Formula::rel("R", [x()]), vec![Var::new("x"), Var::new("x")]),
        ];
        for (q, free) in &cases {
            let expected = super::super::eval_query(q, free, &inst).unwrap_err();
            assert_eq!(PointOracle::new(q, free, &inst).err(), Some(expected));
        }
    }

    #[test]
    fn representatives_cover_every_relative_order() {
        // Two coordinates, no constants: x < y, x = y, x > y.
        let (points, exhaustive) = representatives(2, &BTreeSet::new());
        assert!(exhaustive);
        assert_eq!(points.len(), 3);
        // Around one constant c: each coordinate below, at or above c, and
        // two coordinates on the same side of c in all three orders.
        let (points, _) = representatives(2, &BTreeSet::from([Rat::zero()]));
        assert_eq!(points.len(), 13);
    }

    fn segment(lo: i64, hi: i64, strict_hi: bool) -> GenTuple<DenseAtom> {
        let x = || Term::var("x");
        let upper = if strict_hi {
            DenseAtom::lt(x(), Term::cst(hi))
        } else {
            DenseAtom::le(x(), Term::cst(hi))
        };
        GenTuple::new(vec![DenseAtom::le(Term::cst(lo), x()), upper])
    }

    #[test]
    fn corrupted_answers_are_caught() {
        // R = [0, 10] ∪ [20, 30]; the query {x | R(x)} has R as its answer.
        let answer = |tuples: Vec<GenTuple<DenseAtom>>| Relation::new(vec![Var::new("x")], tuples);
        let mut inst: Instance<DenseOrder> = Instance::new(Schema::from_pairs([("R", 1)]));
        inst.set(
            "R",
            answer(vec![segment(0, 10, false), segment(20, 30, false)]),
        )
        .unwrap();
        let q: F = Formula::rel("R", [Term::var("x")]);
        let free = [Var::new("x")];
        let check = |tuples| check_answer(&q, &free, &inst, &[answer(tuples)]).unwrap();
        let correct = check(vec![segment(0, 10, false), segment(20, 30, false)]);
        assert_eq!(correct.counterexample, None);
        assert!(correct.exhaustive && correct.unknown == 0 && correct.decided > 0);
        for corrupted in [
            vec![segment(0, 10, false)],
            vec![segment(0, 10, true), segment(20, 30, false)],
            vec![segment(0, 11, false), segment(20, 30, false)],
        ] {
            let cx = check(corrupted.clone()).counterexample;
            assert!(cx.is_some(), "missed corruption {corrupted:?}");
        }
    }
}
