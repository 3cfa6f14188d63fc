//! # frdb-linear
//!
//! Linear constraints over the rationals — the language `FO(≤, +)` of Section 7 of
//! Grumbach & Su and of \[GST94\] — as a second full instantiation of the
//! [`frdb_core::theory::Theory`] interface.
//!
//! Atoms are affine comparisons `Σ cᵢ·xᵢ + c ⋈ 0` with `⋈ ∈ {<, ≤, =}` and rational
//! coefficients.  Quantifier elimination is Fourier–Motzkin: equalities are removed by
//! substitution, and a variable bounded from both sides contributes one constraint per
//! (lower, upper) pair.  The theory of `(Q, ≤, +)` admits elimination of quantifiers,
//! so the generic FO evaluator of `frdb-core` works unchanged over linear constraint
//! databases; the benchmark harness compares its cost against the pure dense-order
//! engine (experiment E12 of `DESIGN.md`).
//!
//! The module also provides the *k-bounded* measure of \[GST94\] (the number of `+`
//! occurrences per constraint), and the midpoint-convexity query used to realize the
//! paper's convexity query (Lemma 5.4) — see `frdb-queries`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use frdb_core::logic::{Term, Var};
use frdb_core::theory::{Atom, Conj, Dnf, Theory};
use frdb_num::Rat;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound as StdBound;

/// An affine expression `Σ cᵢ·xᵢ + c` with rational coefficients.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct LinExpr {
    coeffs: BTreeMap<Var, Rat>,
    constant: Rat,
}

impl LinExpr {
    /// The zero expression.
    #[must_use]
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// The expression consisting of a single variable.
    #[must_use]
    pub fn var(v: impl Into<Var>) -> Self {
        let mut e = LinExpr::zero();
        e.coeffs.insert(v.into(), Rat::one());
        e
    }

    /// A constant expression.
    #[must_use]
    pub fn constant(c: impl Into<Rat>) -> Self {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: c.into(),
        }
    }

    /// Converts a [`Term`] (variable or constant) into a linear expression.
    #[must_use]
    pub fn from_term(t: &Term) -> Self {
        match t {
            Term::Var(v) => LinExpr::var(v.clone()),
            Term::Const(c) => LinExpr::constant(c.clone()),
        }
    }

    /// The coefficient of a variable (zero if absent).
    #[must_use]
    pub fn coeff(&self, v: &Var) -> Rat {
        self.coeffs.get(v).cloned().unwrap_or_else(Rat::zero)
    }

    /// The constant term.
    #[must_use]
    pub fn constant_term(&self) -> &Rat {
        &self.constant
    }

    /// The variables with a non-zero coefficient.
    #[must_use]
    pub fn vars(&self) -> BTreeSet<Var> {
        self.coeffs.keys().cloned().collect()
    }

    /// Whether the expression is a constant.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Addition of expressions.
    #[must_use]
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        for (v, c) in &other.coeffs {
            let new = &out.coeff(v) + c;
            if new.is_zero() {
                out.coeffs.remove(v);
            } else {
                out.coeffs.insert(v.clone(), new);
            }
        }
        out.constant = &out.constant + &other.constant;
        out
    }

    /// Subtraction of expressions.
    #[must_use]
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scale(&Rat::from_i64(-1)))
    }

    /// Multiplication by a rational scalar.
    #[must_use]
    pub fn scale(&self, k: &Rat) -> LinExpr {
        if k.is_zero() {
            return LinExpr::zero();
        }
        LinExpr {
            coeffs: self
                .coeffs
                .iter()
                .map(|(v, c)| (v.clone(), c * k))
                .collect(),
            constant: &self.constant * k,
        }
    }

    /// Evaluates the expression under an assignment.
    #[must_use]
    pub fn eval(&self, assignment: &dyn Fn(&Var) -> Rat) -> Rat {
        let mut acc = self.constant.clone();
        for (v, c) in &self.coeffs {
            acc = &acc + &(c * &assignment(v));
        }
        acc
    }

    /// Substitutes an expression for a variable.
    #[must_use]
    pub fn subst_expr(&self, var: &Var, replacement: &LinExpr) -> LinExpr {
        let c = self.coeff(var);
        if c.is_zero() {
            return self.clone();
        }
        let mut without = self.clone();
        without.coeffs.remove(var);
        without.add(&replacement.scale(&c))
    }

    /// The number of `+` occurrences needed to write the expression: the *k-bounded*
    /// measure of \[GST94\] (one less than the number of monomials, at least zero).
    #[must_use]
    pub fn plus_occurrences(&self) -> usize {
        let monomials = self.coeffs.len() + usize::from(!self.constant.is_zero());
        monomials.saturating_sub(1)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.coeffs {
            if first {
                if *c == Rat::one() {
                    write!(f, "{v}")?;
                } else {
                    write!(f, "{c}·{v}")?;
                }
                first = false;
            } else if *c == Rat::one() {
                write!(f, " + {v}")?;
            } else {
                write!(f, " + {c}·{v}")?;
            }
        }
        if !self.constant.is_zero() || first {
            if first {
                write!(f, "{}", self.constant)?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

/// Comparison operators of linear atoms (the expression is compared to zero).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinOp {
    /// `expr < 0`.
    Lt,
    /// `expr ≤ 0`.
    Le,
    /// `expr = 0`.
    Eq,
}

/// A linear constraint atom `expr ⋈ 0`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LinAtom {
    /// The affine expression compared to zero.
    pub expr: LinExpr,
    /// The comparison operator.
    pub op: LinOp,
}

impl LinAtom {
    /// The atom `lhs < rhs`.
    #[must_use]
    pub fn lt(lhs: LinExpr, rhs: LinExpr) -> Self {
        LinAtom {
            expr: lhs.sub(&rhs),
            op: LinOp::Lt,
        }
    }

    /// The atom `lhs ≤ rhs`.
    #[must_use]
    pub fn le(lhs: LinExpr, rhs: LinExpr) -> Self {
        LinAtom {
            expr: lhs.sub(&rhs),
            op: LinOp::Le,
        }
    }

    /// The atom `lhs = rhs`.
    #[must_use]
    pub fn eq(lhs: LinExpr, rhs: LinExpr) -> Self {
        LinAtom {
            expr: lhs.sub(&rhs),
            op: LinOp::Eq,
        }
    }

    /// Normalizes the atom: scales so that the leading coefficient (first variable in
    /// order, else the constant) is `±1`, keeping the comparison direction.
    #[must_use]
    pub fn normalized(&self) -> LinAtom {
        let scale = self
            .expr
            .coeffs
            .values()
            .next()
            .cloned()
            .unwrap_or_else(|| self.expr.constant.clone());
        if scale.is_zero() {
            return self.clone();
        }
        let k = scale.abs().recip();
        LinAtom {
            expr: self.expr.scale(&k),
            op: self.op,
        }
    }

    /// The number of `+` occurrences of the constraint (\[GST94\] k-boundedness).
    #[must_use]
    pub fn plus_occurrences(&self) -> usize {
        self.expr.plus_occurrences()
    }
}

impl fmt::Display for LinAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.op {
            LinOp::Lt => "<",
            LinOp::Le => "≤",
            LinOp::Eq => "=",
        };
        write!(f, "{} {op} 0", self.expr)
    }
}

impl Atom for LinAtom {
    fn vars(&self) -> BTreeSet<Var> {
        self.expr.vars()
    }

    fn constants(&self) -> BTreeSet<Rat> {
        let mut out: BTreeSet<Rat> = self.expr.coeffs.values().cloned().collect();
        out.insert(self.expr.constant.clone());
        out
    }

    fn eval(&self, assignment: &dyn Fn(&Var) -> Rat) -> bool {
        let v = self.expr.eval(assignment);
        match self.op {
            LinOp::Lt => v < Rat::zero(),
            LinOp::Le => v <= Rat::zero(),
            LinOp::Eq => v.is_zero(),
        }
    }

    fn negate(&self) -> Vec<Self> {
        let neg = self.expr.scale(&Rat::from_i64(-1));
        match self.op {
            // ¬(e < 0) ≡ -e ≤ 0
            LinOp::Lt => vec![LinAtom {
                expr: neg,
                op: LinOp::Le,
            }],
            // ¬(e ≤ 0) ≡ -e < 0
            LinOp::Le => vec![LinAtom {
                expr: neg,
                op: LinOp::Lt,
            }],
            // ¬(e = 0) ≡ e < 0 ∨ -e < 0
            LinOp::Eq => vec![
                LinAtom {
                    expr: self.expr.clone(),
                    op: LinOp::Lt,
                },
                LinAtom {
                    expr: neg,
                    op: LinOp::Lt,
                },
            ],
        }
    }

    fn subst(&self, var: &Var, replacement: &Term) -> Self {
        LinAtom {
            expr: self.expr.subst_expr(var, &LinExpr::from_term(replacement)),
            op: self.op,
        }
    }

    fn subst_simultaneous(&self, map: &std::collections::HashMap<Var, Term>) -> Self {
        // One pass over the coefficient map: every substituted variable's
        // coefficient is redistributed onto its image expression.
        let mut expr = LinExpr {
            coeffs: BTreeMap::new(),
            constant: self.expr.constant.clone(),
        };
        for (v, c) in &self.expr.coeffs {
            match map.get(v) {
                None => {
                    let entry = expr.coeffs.entry(v.clone()).or_insert_with(Rat::zero);
                    *entry = &*entry + c;
                }
                Some(t) => {
                    let image = LinExpr::from_term(t).scale(c);
                    for (iv, ic) in &image.coeffs {
                        let entry = expr.coeffs.entry(iv.clone()).or_insert_with(Rat::zero);
                        *entry = &*entry + ic;
                    }
                    expr.constant = &expr.constant + &image.constant;
                }
            }
        }
        expr.coeffs.retain(|_, c| !c.is_zero());
        LinAtom { expr, op: self.op }
    }

    fn boundary_points(&self, var: &Var, assignment: &dyn Fn(&Var) -> Option<Rat>) -> Vec<Rat> {
        // a·var + Σ cᵢ·vᵢ + k ⋈ 0 changes truth only at var = -(Σ cᵢ·vᵢ + k) / a.
        let a = self.expr.coeff(var);
        if a.is_zero() {
            return Vec::new();
        }
        let mut rest = self.expr.constant.clone();
        for (v, c) in self.expr.coeffs.iter().filter(|(v, _)| *v != var) {
            match assignment(v) {
                Some(value) => rest += &(c * &value),
                None => return Vec::new(),
            }
        }
        vec![-(&rest / &a)]
    }

    fn map_constants(&self, f: &impl Fn(&Rat) -> Rat) -> Self {
        // The purely syntactic operation of Definition 4.3 (replace every constant of
        // the formula); note that for FO(≤,+) the automorphism group is smaller than
        // for FO(≤), so this is used for reporting rather than genericity proofs.
        LinAtom {
            expr: LinExpr {
                coeffs: self
                    .expr
                    .coeffs
                    .iter()
                    .map(|(v, c)| (v.clone(), f(c)))
                    .collect(),
                constant: f(&self.expr.constant),
            },
            op: self.op,
        }
    }
}

/// The linear-order theory `Th(Q, ≤, +, (q)_{q∈Q})` with Fourier–Motzkin elimination.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinearOrder;

impl LinearOrder {
    /// Eliminates one variable from a conjunction by substitution (if an equality pins
    /// it) or Fourier–Motzkin combination of lower and upper bounds.
    fn fm_eliminate(var: &Var, conj: &[LinAtom]) -> Vec<LinAtom> {
        // First look for an equality with a non-zero coefficient on `var`.
        if let Some((idx, atom)) = conj
            .iter()
            .enumerate()
            .find(|(_, a)| a.op == LinOp::Eq && !a.expr.coeff(var).is_zero())
        {
            let c = atom.expr.coeff(var);
            // var = -(rest)/c
            let mut rest = atom.expr.clone();
            rest.coeffs.remove(var);
            let solution = rest.scale(&(-Rat::one() / &c));
            return conj
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != idx)
                .map(|(_, a)| LinAtom {
                    expr: a.expr.subst_expr(var, &solution),
                    op: a.op,
                })
                .collect();
        }
        let mut lowers: Vec<(LinExpr, bool)> = Vec::new(); // (bound expr, strict): bound ⋈ var
        let mut uppers: Vec<(LinExpr, bool)> = Vec::new(); // var ⋈ bound
        let mut rest: Vec<LinAtom> = Vec::new();
        for a in conj {
            let c = a.expr.coeff(var);
            if c.is_zero() {
                rest.push(a.clone());
                continue;
            }
            // a: c·var + e ⋈ 0  ⇔  var ⋈ -e/c (if c > 0) or var ⋈⁻¹ -e/c (if c < 0).
            let mut e = a.expr.clone();
            e.coeffs.remove(var);
            let bound = e.scale(&(-Rat::one() / &c));
            let strict = a.op == LinOp::Lt;
            if c > Rat::zero() {
                uppers.push((bound, strict));
            } else {
                lowers.push((bound, strict));
            }
        }
        for (lo, ls) in &lowers {
            for (up, us) in &uppers {
                let expr = lo.sub(up); // lo - up ⋈ 0
                let op = if *ls || *us { LinOp::Lt } else { LinOp::Le };
                rest.push(LinAtom { expr, op });
            }
        }
        rest
    }

    /// Decides a conjunction of *ground* (variable-free) atoms.
    fn ground_consistent(conj: &[LinAtom]) -> bool {
        conj.iter().all(|a| {
            let v = &a.expr.constant;
            match a.op {
                LinOp::Lt => *v < Rat::zero(),
                LinOp::Le => *v <= Rat::zero(),
                LinOp::Eq => v.is_zero(),
            }
        })
    }
}

impl LinearOrder {
    /// Full Fourier–Motzkin satisfiability of a conjunction (the saturating
    /// operation of the theory; everything else is read off its verdict).
    fn fm_satisfiable(conj: &[LinAtom]) -> bool {
        let mut current: Vec<LinAtom> = conj.to_vec();
        loop {
            let vars: BTreeSet<Var> = current.iter().flat_map(Atom::vars).collect();
            match vars.into_iter().next() {
                None => return Self::ground_consistent(&current),
                Some(v) => {
                    current = Self::fm_eliminate(&v, &current);
                    // Drop trivially true ground atoms to keep the system small.
                    current.retain(|a| {
                        !(a.expr.is_constant()
                            && match a.op {
                                LinOp::Lt => a.expr.constant < Rat::zero(),
                                LinOp::Le => a.expr.constant <= Rat::zero(),
                                LinOp::Eq => a.expr.constant.is_zero(),
                            })
                    });
                    if current.iter().any(|a| a.expr.is_constant())
                        && !Self::ground_consistent(
                            &current
                                .iter()
                                .filter(|a| a.expr.is_constant())
                                .cloned()
                                .collect::<Vec<_>>(),
                        )
                    {
                        return false;
                    }
                }
            }
        }
    }
}

/// The canonical context of a linear conjunction: the atoms together with the
/// Fourier–Motzkin satisfiability verdict, computed once and cached by the
/// generalized tuples that carry it.
#[derive(Clone, Debug)]
pub struct LinCtx {
    conj: Vec<LinAtom>,
    satisfiable: bool,
}

impl Theory for LinearOrder {
    type A = LinAtom;
    type Ctx = LinCtx;

    fn name() -> &'static str {
        "linear order (Q, ≤, +)"
    }

    fn context(conj: &[LinAtom]) -> LinCtx {
        LinCtx {
            conj: conj.to_vec(),
            satisfiable: Self::fm_satisfiable(conj),
        }
    }

    fn ctx_satisfiable(ctx: &LinCtx) -> bool {
        ctx.satisfiable
    }

    fn ctx_canonical(ctx: &LinCtx) -> Option<Conj<LinAtom>> {
        if !ctx.satisfiable {
            return None;
        }
        let mut out: Vec<LinAtom> = ctx
            .conj
            .iter()
            .map(LinAtom::normalized)
            .filter(|a| {
                // Drop trivially true ground atoms.
                !(a.expr.is_constant()
                    && match a.op {
                        LinOp::Lt => a.expr.constant < Rat::zero(),
                        LinOp::Le => a.expr.constant <= Rat::zero(),
                        LinOp::Eq => a.expr.constant.is_zero(),
                    })
            })
            .collect();
        out.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        out.dedup();
        Some(out)
    }

    fn ctx_eliminate(ctx: &LinCtx, var: &Var) -> Dnf<LinAtom> {
        if !ctx.satisfiable {
            return Vec::new();
        }
        vec![Self::fm_eliminate(var, &ctx.conj)]
    }

    fn ctx_entails(ctx: &LinCtx, conclusion: &[LinAtom]) -> bool {
        if !ctx.satisfiable {
            return true;
        }
        conclusion.iter().all(|goal| {
            goal.negate().iter().all(|neg| {
                let mut system = ctx.conj.clone();
                system.push(neg.clone());
                !Self::fm_satisfiable(&system)
            })
        })
    }

    fn ctx_pinned(ctx: &LinCtx, var: &Var) -> Option<Rat> {
        if !ctx.satisfiable {
            return None;
        }
        // A syntactic single-variable equality `c·var + d = 0` pins the
        // variable to `-d/c`.  (Entailed equalities hiding behind several
        // atoms are left unpinned — `None` is always sound for the join's
        // hash partitioning.)
        ctx.conj.iter().find_map(|a| {
            if a.op != LinOp::Eq || a.expr.coeffs.len() != 1 {
                return None;
            }
            let (v, c) = a.expr.coeffs.iter().next()?;
            if v != var || c.is_zero() {
                return None;
            }
            Some(-(&(&a.expr.constant / c)))
        })
    }

    fn ctx_bounds(ctx: &LinCtx, var: &Var) -> Option<(StdBound<Rat>, StdBound<Rat>)> {
        if !ctx.satisfiable {
            return None;
        }
        // Syntactic single-variable atoms `c·var + d ⋈ 0` bound the variable
        // at `-d/c`: an upper bound when `c > 0`, a lower bound when `c < 0`,
        // both for an equality.  (Bounds entailed only through multi-variable
        // combinations are left undetected — an unbounded side is always
        // sound for the join's interval pruning.)
        let mut lower: Option<(Rat, bool)> = None; // (value, strict)
        let mut upper: Option<(Rat, bool)> = None;
        for a in &ctx.conj {
            if a.expr.coeffs.len() != 1 {
                continue;
            }
            let Some((v, c)) = a.expr.coeffs.iter().next() else {
                continue;
            };
            if v != var || c.is_zero() {
                continue;
            }
            let at = -(&(&a.expr.constant / c));
            let strict = a.op == LinOp::Lt;
            let mut tighten_upper = |at: &Rat, strict: bool| {
                if upper
                    .as_ref()
                    .is_none_or(|(uv, us)| at < uv || (at == uv && strict && !*us))
                {
                    upper = Some((at.clone(), strict));
                }
            };
            let mut tighten_lower = |at: &Rat, strict: bool| {
                if lower
                    .as_ref()
                    .is_none_or(|(lv, ls)| at > lv || (at == lv && strict && !*ls))
                {
                    lower = Some((at.clone(), strict));
                }
            };
            match a.op {
                LinOp::Eq => {
                    tighten_upper(&at, false);
                    tighten_lower(&at, false);
                }
                // c·var + d ⋈ 0  ⇔  var ⋈ -d/c when c > 0 (flipped when c < 0).
                LinOp::Lt | LinOp::Le => {
                    if *c > Rat::zero() {
                        tighten_upper(&at, strict);
                    } else {
                        tighten_lower(&at, strict);
                    }
                }
            }
        }
        if lower.is_none() && upper.is_none() {
            return None;
        }
        let to_bound = |side: Option<(Rat, bool)>| match side {
            None => StdBound::Unbounded,
            Some((v, true)) => StdBound::Excluded(v),
            Some((v, false)) => StdBound::Included(v),
        };
        Some((to_bound(lower), to_bound(upper)))
    }
}

/// Convenience constructors for linear formulas over [`Term`]s.
pub mod build {
    use super::{LinAtom, LinExpr};
    use frdb_core::logic::{Formula, Term};

    /// `lhs < rhs` as a formula.
    #[must_use]
    pub fn lt(lhs: &Term, rhs: &Term) -> Formula<LinAtom> {
        Formula::Atom(LinAtom::lt(
            LinExpr::from_term(lhs),
            LinExpr::from_term(rhs),
        ))
    }

    /// `lhs ≤ rhs` as a formula.
    #[must_use]
    pub fn le(lhs: &Term, rhs: &Term) -> Formula<LinAtom> {
        Formula::Atom(LinAtom::le(
            LinExpr::from_term(lhs),
            LinExpr::from_term(rhs),
        ))
    }

    /// `lhs = rhs` as a formula.
    #[must_use]
    pub fn eq(lhs: &Term, rhs: &Term) -> Formula<LinAtom> {
        Formula::Atom(LinAtom::eq(
            LinExpr::from_term(lhs),
            LinExpr::from_term(rhs),
        ))
    }

    /// `a + b = c` as a formula (the addition predicate of `FO(≤,+)`).
    #[must_use]
    pub fn sum_eq(a: &Term, b: &Term, c: &Term) -> Formula<LinAtom> {
        Formula::Atom(LinAtom::eq(
            LinExpr::from_term(a).add(&LinExpr::from_term(b)),
            LinExpr::from_term(c),
        ))
    }
}

/// The maximum number of `+` occurrences over the atoms of a conjunction — a
/// conjunction is *k-bounded* in the sense of \[GST94\] when this is at most `k`.
#[must_use]
pub fn k_boundedness(conj: &[LinAtom]) -> usize {
    conj.iter()
        .map(LinAtom::plus_occurrences)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frdb_core::fo::{eval_query, eval_sentence};
    use frdb_core::logic::Formula;
    use frdb_core::relation::{Instance, Relation};
    use frdb_core::schema::Schema;

    fn x() -> LinExpr {
        LinExpr::var("x")
    }
    fn y() -> LinExpr {
        LinExpr::var("y")
    }
    fn k(v: i64) -> LinExpr {
        LinExpr::constant(Rat::from_i64(v))
    }
    fn r(v: i64) -> Rat {
        Rat::from_i64(v)
    }

    #[test]
    fn satisfiability_basic() {
        // x + y ≤ 1 ∧ x ≥ 0 ∧ y ≥ 0: satisfiable.
        assert!(LinearOrder::satisfiable(&[
            LinAtom::le(x().add(&y()), k(1)),
            LinAtom::le(k(0), x()),
            LinAtom::le(k(0), y()),
        ]));
        // x + y ≤ 1 ∧ x ≥ 1 ∧ y ≥ 1: unsatisfiable.
        assert!(!LinearOrder::satisfiable(&[
            LinAtom::le(x().add(&y()), k(1)),
            LinAtom::le(k(1), x()),
            LinAtom::le(k(1), y()),
        ]));
        // Strictness matters: x < y ∧ y < x is unsat, x ≤ y ∧ y ≤ x is sat.
        assert!(!LinearOrder::satisfiable(&[
            LinAtom::lt(x(), y()),
            LinAtom::lt(y(), x())
        ]));
        assert!(LinearOrder::satisfiable(&[
            LinAtom::le(x(), y()),
            LinAtom::le(y(), x())
        ]));
        // Equalities: 2x = 3 ∧ x < 1 is unsat.
        assert!(!LinearOrder::satisfiable(&[
            LinAtom::eq(x().scale(&r(2)), k(3)),
            LinAtom::lt(x(), k(1)),
        ]));
    }

    #[test]
    fn elimination_is_projection() {
        // ∃y. x < y ∧ y < 1  ≡  x < 1.
        let out = LinearOrder::eliminate(
            &Var::new("y"),
            &[LinAtom::lt(x(), y()), LinAtom::lt(y(), k(1))],
        );
        assert_eq!(out.len(), 1);
        assert!(LinearOrder::implies(&out[0], &[LinAtom::lt(x(), k(1))]));
        assert!(LinearOrder::implies(&[LinAtom::lt(x(), k(1))], &out[0]));
        // ∃y. x = 2y ∧ 0 ≤ y ≤ 1  ≡  0 ≤ x ≤ 2.
        let out = LinearOrder::eliminate(
            &Var::new("y"),
            &[
                LinAtom::eq(x(), y().scale(&r(2))),
                LinAtom::le(k(0), y()),
                LinAtom::le(y(), k(1)),
            ],
        );
        assert!(LinearOrder::implies(
            &out[0],
            &[LinAtom::le(k(0), x()), LinAtom::le(x(), k(2))]
        ));
        assert!(LinearOrder::implies(
            &[LinAtom::le(k(0), x()), LinAtom::le(x(), k(2))],
            &out[0]
        ));
    }

    #[test]
    fn implication_with_arithmetic() {
        // x ≥ 1 ∧ y ≥ 1 implies x + y ≥ 2.
        assert!(LinearOrder::implies(
            &[LinAtom::le(k(1), x()), LinAtom::le(k(1), y())],
            &[LinAtom::le(k(2), x().add(&y()))],
        ));
        assert!(!LinearOrder::implies(
            &[LinAtom::le(k(1), x())],
            &[LinAtom::le(k(2), x().add(&y()))],
        ));
    }

    #[test]
    fn fo_evaluation_over_linear_constraints() {
        // R = the triangle {(x, y) | 0 ≤ x, 0 ≤ y, x + y ≤ 1}.
        let schema = Schema::from_pairs([("R", 2)]);
        let mut inst: Instance<LinearOrder> = Instance::new(schema);
        inst.set(
            "R",
            Relation::from_dnf(
                vec![Var::new("x"), Var::new("y")],
                vec![vec![
                    LinAtom::le(k(0), x()),
                    LinAtom::le(k(0), y()),
                    LinAtom::le(x().add(&y()), k(1)),
                ]],
            ),
        )
        .unwrap();
        // The projection ∃y.R(x,y) is exactly [0, 1].
        let q: Formula<LinAtom> =
            Formula::exists(["y"], Formula::rel("R", [Term::var("x"), Term::var("y")]));
        let ans = eval_query(&q, &[Var::new("x")], &inst).unwrap();
        assert!(ans.contains(&[r(0)]));
        assert!(ans.contains(&["1/2".parse().unwrap()]));
        assert!(ans.contains(&[r(1)]));
        assert!(!ans.contains(&[r(2)]));
        assert!(!ans.contains(&[r(-1)]));
        // The diagonal x + x ≤ 1 inside R: R(x,x) ⇔ 0 ≤ x ≤ 1/2.
        let q2: Formula<LinAtom> = Formula::rel("R", [Term::var("x"), Term::var("x")]);
        let ans2 = eval_query(&q2, &[Var::new("x")], &inst).unwrap();
        assert!(ans2.contains(&["1/2".parse().unwrap()]));
        assert!(!ans2.contains(&["2/3".parse().unwrap()]));
        // A sentence with addition: ∀x∀y. R(x,y) → x + y ≤ 1.
        let q3: Formula<LinAtom> = Formula::forall(
            ["x", "y"],
            Formula::rel("R", [Term::var("x"), Term::var("y")])
                .implies(Formula::Atom(LinAtom::le(x().add(&y()), k(1)))),
        );
        assert!(eval_sentence(&q3, &inst).unwrap());
    }

    #[test]
    fn negation_of_linear_atoms() {
        let a = LinAtom::le(x(), k(0));
        let neg = a.negate();
        let at = |v: i64| move |_: &Var| Rat::from_i64(v);
        assert!(a.eval(&at(0)) && a.eval(&at(-1)) && !a.eval(&at(1)));
        assert!(!neg.iter().any(|n| n.eval(&at(0))));
        assert!(neg.iter().any(|n| n.eval(&at(1))));
        assert_eq!(LinAtom::eq(x(), k(0)).negate().len(), 2);
    }

    #[test]
    fn k_boundedness_measures_plus_occurrences() {
        let simple = LinAtom::le(x(), k(1));
        assert_eq!(simple.plus_occurrences(), 1);
        let sum = LinAtom::le(x().add(&y()).add(&LinExpr::var("z")), k(0));
        assert_eq!(sum.plus_occurrences(), 2);
        assert_eq!(k_boundedness(&[simple, sum]), 2);
        assert_eq!(k_boundedness(&[]), 0);
    }

    #[test]
    fn expressions_evaluate_and_substitute() {
        let e = x().scale(&r(2)).add(&y()).add(&k(3));
        let assign = |v: &Var| if v.name() == "x" { r(1) } else { r(5) };
        assert_eq!(e.eval(&assign), r(10));
        let substituted = e.subst_expr(&Var::new("y"), &x());
        // 2x + x + 3 = 3x + 3 at x = 1 is 6.
        assert_eq!(substituted.eval(&assign), r(6));
        assert_eq!(e.plus_occurrences(), 2);
    }
}
