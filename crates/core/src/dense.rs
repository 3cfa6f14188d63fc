//! Dense-order constraints over `(Q, ≤)` — the language `L≤` of the paper.
//!
//! Atoms are comparisons `s ⋈ t` between terms (variables or rational constants) with
//! `⋈ ∈ {<, ≤, =}`; the other comparisons are normalized away (`s > t` becomes
//! `t < s`, `s ≠ t` is not an atom but the disjunction `s < t ∨ t < s`, exactly as in
//! the paper's primitive tuples, Definition 6.7).
//!
//! The decision procedure is the classic *order closure*: view a conjunction as a
//! directed graph whose nodes are the terms occurring in it (plus the implicit facts
//! between constants) and whose edges are `≤` (non-strict) or `<` (strict); compute the
//! transitive closure in the semiring `none < ≤ < <`.  Over a dense order without
//! endpoints (the theory of `Q`, complete and admitting quantifier elimination,
//! Theorem 2.1):
//!
//! * the conjunction is satisfiable iff no node reaches itself strictly;
//! * the strongest entailed relation between two terms is their closure entry;
//! * eliminating `∃x` is exactly restricting the closure to the remaining nodes
//!   (density supplies witnesses between strict bounds, the absence of endpoints
//!   supplies witnesses beyond one-sided bounds).
//!
//! This gives exact, polynomial-time quantifier elimination for conjunctions, which is
//! what the FO evaluator and the DATALOG¬ engine are built on.

use crate::logic::{Term, Var};
use crate::theory::{Atom, Conj, Dnf, Theory};
use frdb_num::Rat;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Bound;

/// Comparison operators of the dense-order language (after normalization).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CmpOp {
    /// Strict inequality `<`.
    Lt,
    /// Non-strict inequality `≤`.
    Le,
    /// Equality `=`.
    Eq,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmpOp::Lt => write!(f, "<"),
            CmpOp::Le => write!(f, "≤"),
            CmpOp::Eq => write!(f, "="),
        }
    }
}

/// A dense-order constraint atom `lhs ⋈ rhs`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DenseAtom {
    /// Left-hand term.
    pub lhs: Term,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand term.
    pub rhs: Term,
}

impl DenseAtom {
    /// The atom `lhs < rhs`.
    #[must_use]
    pub fn lt(lhs: impl Into<Term>, rhs: impl Into<Term>) -> Self {
        DenseAtom {
            lhs: lhs.into(),
            op: CmpOp::Lt,
            rhs: rhs.into(),
        }
    }

    /// The atom `lhs ≤ rhs`.
    #[must_use]
    pub fn le(lhs: impl Into<Term>, rhs: impl Into<Term>) -> Self {
        DenseAtom {
            lhs: lhs.into(),
            op: CmpOp::Le,
            rhs: rhs.into(),
        }
    }

    /// The atom `lhs = rhs`.
    #[must_use]
    pub fn eq(lhs: impl Into<Term>, rhs: impl Into<Term>) -> Self {
        DenseAtom {
            lhs: lhs.into(),
            op: CmpOp::Eq,
            rhs: rhs.into(),
        }
    }

    /// The atom `lhs > rhs`, normalized to `rhs < lhs`.
    #[must_use]
    pub fn gt(lhs: impl Into<Term>, rhs: impl Into<Term>) -> Self {
        DenseAtom::lt(rhs, lhs)
    }

    /// The atom `lhs ≥ rhs`, normalized to `rhs ≤ lhs`.
    #[must_use]
    pub fn ge(lhs: impl Into<Term>, rhs: impl Into<Term>) -> Self {
        DenseAtom::le(rhs, lhs)
    }

    fn term_value(t: &Term, assignment: &dyn Fn(&Var) -> Rat) -> Rat {
        match t {
            Term::Var(v) => assignment(v),
            Term::Const(c) => c.clone(),
        }
    }
}

impl fmt::Display for DenseAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

impl Atom for DenseAtom {
    const ORDER_GENERIC: bool = true;

    fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        if let Term::Var(v) = &self.lhs {
            out.insert(v.clone());
        }
        if let Term::Var(v) = &self.rhs {
            out.insert(v.clone());
        }
        out
    }

    fn constants(&self) -> BTreeSet<Rat> {
        let mut out = BTreeSet::new();
        if let Term::Const(c) = &self.lhs {
            out.insert(c.clone());
        }
        if let Term::Const(c) = &self.rhs {
            out.insert(c.clone());
        }
        out
    }

    fn eval(&self, assignment: &dyn Fn(&Var) -> Rat) -> bool {
        let l = Self::term_value(&self.lhs, assignment);
        let r = Self::term_value(&self.rhs, assignment);
        match self.op {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Eq => l == r,
        }
    }

    fn negate(&self) -> Vec<Self> {
        match self.op {
            // ¬(l < r)  ≡  r ≤ l
            CmpOp::Lt => vec![DenseAtom::le(self.rhs.clone(), self.lhs.clone())],
            // ¬(l ≤ r)  ≡  r < l
            CmpOp::Le => vec![DenseAtom::lt(self.rhs.clone(), self.lhs.clone())],
            // ¬(l = r)  ≡  l < r  ∨  r < l
            CmpOp::Eq => vec![
                DenseAtom::lt(self.lhs.clone(), self.rhs.clone()),
                DenseAtom::lt(self.rhs.clone(), self.lhs.clone()),
            ],
        }
    }

    fn subst(&self, var: &Var, replacement: &Term) -> Self {
        DenseAtom {
            lhs: self.lhs.subst(var, replacement),
            op: self.op,
            rhs: self.rhs.subst(var, replacement),
        }
    }

    fn subst_simultaneous(&self, map: &HashMap<Var, Term>) -> Self {
        DenseAtom {
            lhs: self.lhs.subst_simultaneous(map),
            op: self.op,
            rhs: self.rhs.subst_simultaneous(map),
        }
    }

    fn map_constants(&self, f: &impl Fn(&Rat) -> Rat) -> Self {
        let map = |t: &Term| match t {
            Term::Var(v) => Term::Var(v.clone()),
            Term::Const(c) => Term::Const(f(c)),
        };
        DenseAtom {
            lhs: map(&self.lhs),
            op: self.op,
            rhs: map(&self.rhs),
        }
    }
}

/// Strength of a derived order relation between two terms.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Rel {
    /// No entailed relation.
    None,
    /// Entailed `≤`.
    Le,
    /// Entailed `<`.
    Lt,
}

impl Rel {
    fn compose(self, other: Rel) -> Rel {
        match (self, other) {
            (Rel::None, _) | (_, Rel::None) => Rel::None,
            (Rel::Lt, _) | (_, Rel::Lt) => Rel::Lt,
            _ => Rel::Le,
        }
    }
}

/// The transitive order closure of a conjunction of dense-order atoms.
///
/// This is the workhorse of the dense-order theory: it decides satisfiability, yields
/// the canonical (tightest) conjunction, implements quantifier elimination by node
/// restriction, and exposes per-pair entailed relations for the normal-form machinery
/// in [`crate::normal`].
#[derive(Clone, Debug)]
pub struct OrderClosure {
    nodes: Vec<Term>,
    index: HashMap<Term, usize>,
    rel: Vec<Vec<Rel>>,
    satisfiable: bool,
}

impl OrderClosure {
    /// Builds the closure of a conjunction, additionally registering `extra_terms` as
    /// nodes (useful when callers want closure entries for terms of their own;
    /// entailment of atoms over foreign constants is exact even without them).
    #[must_use]
    pub fn new(conj: &[DenseAtom], extra_terms: &[Term]) -> Self {
        let mut index: HashMap<Term, usize> = HashMap::new();
        let mut nodes: Vec<Term> = Vec::new();
        let intern = |t: &Term, nodes: &mut Vec<Term>, index: &mut HashMap<Term, usize>| {
            if let Some(&i) = index.get(t) {
                i
            } else {
                let i = nodes.len();
                nodes.push(t.clone());
                index.insert(t.clone(), i);
                i
            }
        };
        for a in conj {
            intern(&a.lhs, &mut nodes, &mut index);
            intern(&a.rhs, &mut nodes, &mut index);
        }
        for t in extra_terms {
            intern(t, &mut nodes, &mut index);
        }
        let n = nodes.len();
        let mut rel = vec![vec![Rel::None; n]; n];
        for (i, row) in rel.iter_mut().enumerate() {
            row[i] = Rel::Le;
        }
        // Implicit facts between distinct constants.
        for i in 0..n {
            for j in 0..n {
                if let (Term::Const(a), Term::Const(b)) = (&nodes[i], &nodes[j]) {
                    if a < b {
                        rel[i][j] = Rel::Lt;
                    }
                }
            }
        }
        // Edges from the atoms.
        for a in conj {
            let i = index[&a.lhs];
            let j = index[&a.rhs];
            match a.op {
                CmpOp::Lt => rel[i][j] = rel[i][j].max(Rel::Lt),
                CmpOp::Le => rel[i][j] = rel[i][j].max(Rel::Le),
                CmpOp::Eq => {
                    rel[i][j] = rel[i][j].max(Rel::Le);
                    rel[j][i] = rel[j][i].max(Rel::Le);
                }
            }
        }
        // Floyd–Warshall over the {None, ≤, <} semiring.
        for k in 0..n {
            for i in 0..n {
                if rel[i][k] == Rel::None {
                    continue;
                }
                for j in 0..n {
                    let through = rel[i][k].compose(rel[k][j]);
                    if through > rel[i][j] {
                        rel[i][j] = through;
                    }
                }
            }
        }
        let satisfiable = (0..n).all(|i| rel[i][i] != Rel::Lt);
        OrderClosure {
            nodes,
            index,
            rel,
            satisfiable,
        }
    }

    /// Whether the underlying conjunction is satisfiable over `(Q, ≤)`.
    #[must_use]
    pub fn satisfiable(&self) -> bool {
        self.satisfiable
    }

    /// The interned nodes (terms) of the closure.
    #[must_use]
    pub fn nodes(&self) -> &[Term] {
        &self.nodes
    }

    fn idx(&self, t: &Term) -> Option<usize> {
        self.index.get(t).copied()
    }

    /// The strongest relation `node_i ⋈ c` entailed for a constant `c` that is
    /// not itself a node: every such entailment must factor through some
    /// constant node `d` with `node_i ⋈ d` in the closure (a quantifier-free
    /// premise can only bound a term through its own constants).
    fn rel_to_foreign_const(&self, i: usize, c: &Rat) -> Rel {
        let mut best = Rel::None;
        for (j, node) in self.nodes.iter().enumerate() {
            if let Term::Const(d) = node {
                let via = match d.cmp(c) {
                    std::cmp::Ordering::Less => self.rel[i][j].compose(Rel::Lt),
                    std::cmp::Ordering::Equal => self.rel[i][j],
                    std::cmp::Ordering::Greater => Rel::None,
                };
                best = best.max(via);
            }
        }
        best
    }

    /// The strongest relation `c ⋈ node_i` entailed for a foreign constant `c`.
    fn rel_from_foreign_const(&self, c: &Rat, i: usize) -> Rel {
        let mut best = Rel::None;
        for (j, node) in self.nodes.iter().enumerate() {
            if let Term::Const(d) = node {
                let via = match c.cmp(d) {
                    std::cmp::Ordering::Less => Rel::Lt.compose(self.rel[j][i]),
                    std::cmp::Ordering::Equal => self.rel[j][i],
                    std::cmp::Ordering::Greater => Rel::None,
                };
                best = best.max(via);
            }
        }
        best
    }

    /// The strongest entailed relation from `s` to `t`, covering terms that are
    /// not nodes of the closure: foreign constants are bounded exactly through
    /// the closure's own constants; foreign variables are unconstrained.
    fn directed_rel(&self, s: &Term, t: &Term) -> Rel {
        match (self.idx(s), self.idx(t)) {
            (Some(i), Some(j)) => self.rel[i][j],
            (Some(i), None) => match t {
                Term::Const(c) => self.rel_to_foreign_const(i, c),
                Term::Var(_) => Rel::None,
            },
            (None, Some(j)) => match s {
                Term::Const(c) => self.rel_from_foreign_const(c, j),
                Term::Var(_) => Rel::None,
            },
            (None, None) => Rel::None,
        }
    }

    /// Does the closure entail `lhs ⋈ rhs`?
    ///
    /// Exact for arbitrary terms: interned pairs read the closure table;
    /// constant–constant atoms are decided numerically; atoms against foreign
    /// constants are decided through the closure's constant bounds (complete
    /// over a dense order, where any entailed comparison with a constant
    /// outside the premise factors through a constant of the premise); foreign
    /// variables entail only reflexive facts.
    #[must_use]
    pub fn entails(&self, atom: &DenseAtom) -> bool {
        if !self.satisfiable {
            return true;
        }
        // Constant-constant atoms are decided numerically.
        if let (Term::Const(a), Term::Const(b)) = (&atom.lhs, &atom.rhs) {
            return match atom.op {
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Eq => a == b,
            };
        }
        if atom.lhs == atom.rhs {
            return matches!(atom.op, CmpOp::Le | CmpOp::Eq);
        }
        match atom.op {
            CmpOp::Lt => self.directed_rel(&atom.lhs, &atom.rhs) == Rel::Lt,
            CmpOp::Le => self.directed_rel(&atom.lhs, &atom.rhs) >= Rel::Le,
            CmpOp::Eq => {
                self.directed_rel(&atom.lhs, &atom.rhs) >= Rel::Le
                    && self.directed_rel(&atom.rhs, &atom.lhs) >= Rel::Le
            }
        }
    }

    /// The strongest entailed atom between two interned terms, if any.
    #[must_use]
    pub fn strongest(&self, s: &Term, t: &Term) -> Option<DenseAtom> {
        let (i, j) = (self.idx(s)?, self.idx(t)?);
        if self.rel[i][j] >= Rel::Le && self.rel[j][i] >= Rel::Le {
            Some(DenseAtom::eq(s.clone(), t.clone()))
        } else if self.rel[i][j] == Rel::Lt {
            Some(DenseAtom::lt(s.clone(), t.clone()))
        } else if self.rel[i][j] == Rel::Le {
            Some(DenseAtom::le(s.clone(), t.clone()))
        } else {
            None
        }
    }

    /// Emits the closure as a sorted, duplicate-free conjunction of atoms among the
    /// nodes satisfying `keep`, skipping trivial facts between constants and reflexive
    /// facts.  Used for canonicalization and for quantifier elimination (with `keep`
    /// excluding the eliminated variable).
    #[must_use]
    pub fn atoms_among(&self, keep: &dyn Fn(&Term) -> bool) -> Vec<DenseAtom> {
        let n = self.nodes.len();
        let mut out: BTreeSet<DenseAtom> = BTreeSet::new();
        for i in 0..n {
            if !keep(&self.nodes[i]) {
                continue;
            }
            for j in 0..n {
                if i == j || !keep(&self.nodes[j]) {
                    continue;
                }
                // Skip facts about two constants: they carry no information.
                if matches!(
                    (&self.nodes[i], &self.nodes[j]),
                    (Term::Const(_), Term::Const(_))
                ) {
                    continue;
                }
                let forward = self.rel[i][j];
                let backward = self.rel[j][i];
                if forward >= Rel::Le && backward >= Rel::Le {
                    // Emit equality once, with the smaller term first for determinism.
                    if self.nodes[i] < self.nodes[j] {
                        out.insert(DenseAtom::eq(self.nodes[i].clone(), self.nodes[j].clone()));
                    }
                } else if forward == Rel::Lt {
                    out.insert(DenseAtom::lt(self.nodes[i].clone(), self.nodes[j].clone()));
                } else if forward == Rel::Le {
                    out.insert(DenseAtom::le(self.nodes[i].clone(), self.nodes[j].clone()));
                }
            }
        }
        out.into_iter().collect()
    }

    /// A sound pairwise filter for joint satisfiability with another closure,
    /// answered **without building the merged closure**.
    ///
    /// For every pair of terms that both closures can relate (shared nodes,
    /// and each side's constant nodes, which [`OrderClosure::entails`]-style
    /// foreign-constant reasoning bounds exactly), the strongest directed
    /// relations of the two closures are combined; a pair whose combined
    /// forward and backward relations compose to a *strict* cycle proves the
    /// merged conjunction unsatisfiable.  Cycles alternating through three or
    /// more terms are left to the full merged closure, so `true` decides
    /// nothing — this is the dense-order implementation of
    /// [`crate::theory::Theory::ctx_compatible`], the join pre-filter.
    #[must_use]
    pub fn compatible_with(&self, other: &OrderClosure) -> bool {
        if !self.satisfiable || !other.satisfiable {
            return false;
        }
        // Terms both sides can bound: nodes of one closure that the other
        // either interns too or can reach through its constants.
        let mut terms: Vec<&Term> = Vec::new();
        for t in &self.nodes {
            if other.idx(t).is_some() || matches!(t, Term::Const(_)) {
                terms.push(t);
            }
        }
        for t in &other.nodes {
            if self.idx(t).is_none() && matches!(t, Term::Const(_)) {
                terms.push(t);
            }
        }
        for (i, s) in terms.iter().enumerate() {
            for t in terms.iter().skip(i + 1) {
                let forward = self.directed_rel(s, t).max(other.directed_rel(s, t));
                if forward == Rel::None {
                    continue;
                }
                let backward = self.directed_rel(t, s).max(other.directed_rel(t, s));
                if forward.compose(backward) == Rel::Lt {
                    return false;
                }
            }
        }
        true
    }

    /// The constant the closure pins a variable to: `Some(c)` iff the
    /// conjunction entails `var = c` (the variable's node is mutually `≤` with
    /// a constant node).  Exactness matters — the join hash-partitioning
    /// relies on `Some` meaning *forced* — and holds because the closure is
    /// transitively complete: any entailed equality with a constant appears as
    /// a two-way `≤` in the table.
    #[must_use]
    pub fn pinned_const(&self, var: &Var) -> Option<Rat> {
        if !self.satisfiable {
            return None;
        }
        let i = self.idx(&Term::Var(var.clone()))?;
        for (j, node) in self.nodes.iter().enumerate() {
            if let Term::Const(c) = node {
                if self.rel[i][j] >= Rel::Le && self.rel[j][i] >= Rel::Le {
                    return Some(c.clone());
                }
            }
        }
        None
    }

    /// The constant envelope the closure entails for a variable: the tightest
    /// lower and upper bounds by *constant nodes* of the closure, with
    /// strictness read off the entailed relation (`c < var` vs `c ≤ var`).
    /// `None` when neither side is bounded by a constant (or the variable is
    /// not interned, or the closure is unsatisfiable).
    ///
    /// Soundness mirrors [`OrderClosure::pinned_const`]: the closure is
    /// transitively complete, so every entailed comparison between the
    /// variable and a constant of the premise appears directly in the table —
    /// the envelope therefore contains every satisfying value.  (Bounds
    /// through constants *outside* the premise cannot be entailed over a
    /// dense order, so scanning the constant nodes is exhaustive.)
    #[must_use]
    pub fn const_bounds(&self, var: &Var) -> Option<(Bound<Rat>, Bound<Rat>)> {
        if !self.satisfiable {
            return None;
        }
        let i = self.idx(&Term::Var(var.clone()))?;
        let mut lower: Option<(Rat, bool)> = None; // (value, strict)
        let mut upper: Option<(Rat, bool)> = None;
        for (j, node) in self.nodes.iter().enumerate() {
            if let Term::Const(c) = node {
                // c ⋈ var: a lower bound.
                match self.rel[j][i] {
                    Rel::None => {}
                    r => {
                        let strict = r == Rel::Lt;
                        if lower
                            .as_ref()
                            .is_none_or(|(lv, ls)| c > lv || (c == lv && strict && !*ls))
                        {
                            lower = Some((c.clone(), strict));
                        }
                    }
                }
                // var ⋈ c: an upper bound.
                match self.rel[i][j] {
                    Rel::None => {}
                    r => {
                        let strict = r == Rel::Lt;
                        if upper
                            .as_ref()
                            .is_none_or(|(uv, us)| c < uv || (c == uv && strict && !*us))
                        {
                            upper = Some((c.clone(), strict));
                        }
                    }
                }
            }
        }
        if lower.is_none() && upper.is_none() {
            return None;
        }
        let to_bound = |side: Option<(Rat, bool)>| match side {
            None => Bound::Unbounded,
            Some((v, true)) => Bound::Excluded(v),
            Some((v, false)) => Bound::Included(v),
        };
        Some((to_bound(lower), to_bound(upper)))
    }

    /// Produces a satisfying assignment for the variables of the conjunction, if
    /// satisfiable: a concrete witness of density and of the absence of endpoints.
    ///
    /// Terms are grouped into equivalence classes (mutual `≤`); classes containing a
    /// constant are pinned to that constant; the remaining classes are assigned in a
    /// topological order of the entailed `≤` DAG, each placed strictly between the
    /// strongest bounds induced by the classes assigned so far.  Because the closure
    /// is transitively complete, every constant bound — even one reachable only
    /// through a not-yet-assigned variable class — is already visible when a class is
    /// placed, so the construction never backtracks.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // index-parallel sweeps over `class`/`rel`
    pub fn witness(&self) -> Option<BTreeMap<Var, Rat>> {
        if !self.satisfiable {
            return None;
        }
        let n = self.nodes.len();
        // Group nodes into equivalence classes (mutual ≤).
        let mut class = vec![usize::MAX; n];
        let mut reps: Vec<usize> = Vec::new();
        for i in 0..n {
            if class[i] != usize::MAX {
                continue;
            }
            let c = reps.len();
            class[i] = c;
            reps.push(i);
            for j in (i + 1)..n {
                if class[j] == usize::MAX && self.rel[i][j] >= Rel::Le && self.rel[j][i] >= Rel::Le
                {
                    class[j] = c;
                }
            }
        }
        let m = reps.len();
        let mut value: Vec<Option<Rat>> = vec![None; m];
        // Classes containing a constant are pinned to that value.
        for i in 0..n {
            if let Term::Const(v) = &self.nodes[i] {
                value[class[i]] = Some(v.clone());
            }
        }
        // Kahn-style assignment of the remaining classes: repeatedly pick a class all
        // of whose strict-partial-order predecessors are assigned.
        while let Some(c) = (0..m).find(|&c| {
            value[c].is_none()
                && (0..m).all(|d| {
                    d == c || value[d].is_some() || self.rel[reps[d]][reps[c]] == Rel::None
                })
        }) {
            let rc = reps[c];
            let mut lower: Option<(Rat, bool)> = None; // (value, strict)
            let mut upper: Option<(Rat, bool)> = None;
            for d in 0..m {
                if d == c {
                    continue;
                }
                let Some(v) = &value[d] else { continue };
                let rd = reps[d];
                if self.rel[rd][rc] != Rel::None {
                    let strict = self.rel[rd][rc] == Rel::Lt;
                    if lower.as_ref().is_none_or(|(lv, _)| v > lv) {
                        lower = Some((v.clone(), strict));
                    }
                }
                if self.rel[rc][rd] != Rel::None {
                    let strict = self.rel[rc][rd] == Rel::Lt;
                    if upper.as_ref().is_none_or(|(uv, _)| v < uv) {
                        upper = Some((v.clone(), strict));
                    }
                }
            }
            let v = match (&lower, &upper) {
                (None, None) => Rat::zero(),
                (Some((l, strict)), None) => {
                    if *strict {
                        l + &Rat::one()
                    } else {
                        l.clone()
                    }
                }
                (None, Some((u, strict))) => {
                    if *strict {
                        u - &Rat::one()
                    } else {
                        u.clone()
                    }
                }
                (Some((l, ls)), Some((u, us))) => {
                    if l == u {
                        // Bounds meet; a strict bound here would contradict
                        // satisfiability.  Enforced unconditionally: emitting a
                        // point on a strict bound would fabricate a witness
                        // that violates the constraints.
                        assert!(
                            !*ls && !*us,
                            "witness: strict bounds meet at {l} in a closure reported satisfiable"
                        );
                        l.clone()
                    } else if *ls || *us {
                        l.midpoint(u)
                    } else {
                        l.clone()
                    }
                }
            };
            value[c] = Some(v);
        }
        // Any class still unassigned has no path to an assigned class and no
        // unassigned predecessor — which cannot happen after the loop above unless
        // the DAG were cyclic (ruled out by satisfiability).  A release-mode
        // fallback value here could silently emit a point violating the
        // constraints, so the invariant is a hard error instead.
        let mut out = BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if let Term::Var(v) = node {
                let val = value[class[i]].clone().unwrap_or_else(|| {
                    panic!("witness: class of {v} left unassigned in a satisfiable closure")
                });
                out.insert(v.clone(), val);
            }
        }
        Some(out)
    }
}

/// The dense-order theory `Th(Q, =, ≤, (q)_{q∈Q})`: complete, decidable, with
/// quantifier elimination (Theorem 2.1 of the paper, after \[CK73\]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DenseOrder;

impl Theory for DenseOrder {
    type A = DenseAtom;
    type Ctx = OrderClosure;

    fn name() -> &'static str {
        "dense order (Q, ≤)"
    }

    fn context(conj: &[DenseAtom]) -> OrderClosure {
        OrderClosure::new(conj, &[])
    }

    fn ctx_satisfiable(ctx: &OrderClosure) -> bool {
        ctx.satisfiable()
    }

    fn ctx_canonical(ctx: &OrderClosure) -> Option<Conj<DenseAtom>> {
        if !ctx.satisfiable() {
            return None;
        }
        Some(ctx.atoms_among(&|_| true))
    }

    fn ctx_eliminate(ctx: &OrderClosure, var: &Var) -> Dnf<DenseAtom> {
        if !ctx.satisfiable() {
            return Vec::new();
        }
        let target = Term::Var(var.clone());
        vec![ctx.atoms_among(&|t| *t != target)]
    }

    fn ctx_entails(ctx: &OrderClosure, conclusion: &[DenseAtom]) -> bool {
        if !ctx.satisfiable() {
            return true;
        }
        conclusion.iter().all(|a| ctx.entails(a))
    }

    fn ctx_compatible(a: &OrderClosure, b: &OrderClosure) -> bool {
        a.compatible_with(b)
    }

    fn ctx_pinned(ctx: &OrderClosure, var: &Var) -> Option<Rat> {
        ctx.pinned_const(var)
    }

    fn ctx_bounds(ctx: &OrderClosure, var: &Var) -> Option<(Bound<Rat>, Bound<Rat>)> {
        ctx.const_bounds(var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Term {
        Term::var("x")
    }
    fn y() -> Term {
        Term::var("y")
    }
    fn z() -> Term {
        Term::var("z")
    }
    fn c(v: i64) -> Term {
        Term::cst(v)
    }

    #[test]
    fn satisfiability_basic() {
        assert!(DenseOrder::satisfiable(&[
            DenseAtom::lt(x(), y()),
            DenseAtom::lt(y(), z())
        ]));
        assert!(!DenseOrder::satisfiable(&[
            DenseAtom::lt(x(), y()),
            DenseAtom::lt(y(), x())
        ]));
        assert!(DenseOrder::satisfiable(&[
            DenseAtom::le(x(), y()),
            DenseAtom::le(y(), x())
        ]));
        assert!(!DenseOrder::satisfiable(&[
            DenseAtom::le(x(), y()),
            DenseAtom::le(y(), x()),
            DenseAtom::lt(x(), y())
        ]));
    }

    #[test]
    fn satisfiability_with_constants() {
        assert!(DenseOrder::satisfiable(&[
            DenseAtom::lt(c(0), x()),
            DenseAtom::lt(x(), c(1))
        ]));
        assert!(!DenseOrder::satisfiable(&[
            DenseAtom::lt(c(1), x()),
            DenseAtom::lt(x(), c(0))
        ]));
        assert!(!DenseOrder::satisfiable(&[
            DenseAtom::le(c(1), x()),
            DenseAtom::le(x(), c(0))
        ]));
        assert!(DenseOrder::satisfiable(&[
            DenseAtom::le(c(1), x()),
            DenseAtom::le(x(), c(1))
        ]));
        assert!(!DenseOrder::satisfiable(&[
            DenseAtom::eq(x(), c(3)),
            DenseAtom::eq(x(), c(4))
        ]));
    }

    #[test]
    fn elimination_transfers_bounds() {
        // ∃y. x < y ∧ y < z  ≡  x < z  over a dense order.
        let dnf = DenseOrder::eliminate(
            &Var::new("y"),
            &[DenseAtom::lt(x(), y()), DenseAtom::lt(y(), z())],
        );
        assert_eq!(dnf.len(), 1);
        assert!(DenseOrder::implies(&dnf[0], &[DenseAtom::lt(x(), z())]));
        assert!(DenseOrder::implies(&[DenseAtom::lt(x(), z())], &dnf[0]));
    }

    #[test]
    fn elimination_drops_one_sided_bounds() {
        // ∃y. y < x  ≡  true (no endpoints).
        let dnf = DenseOrder::eliminate(&Var::new("y"), &[DenseAtom::lt(y(), x())]);
        assert_eq!(dnf.len(), 1);
        assert!(dnf[0].iter().all(|a| !a.vars().contains(&Var::new("y"))));
        assert!(DenseOrder::implies(&[], &dnf[0]));
    }

    #[test]
    fn elimination_of_equality_substitutes() {
        // ∃y. x = y ∧ y < 3  ≡  x < 3.
        let dnf = DenseOrder::eliminate(
            &Var::new("y"),
            &[DenseAtom::eq(x(), y()), DenseAtom::lt(y(), c(3))],
        );
        assert_eq!(dnf.len(), 1);
        assert!(DenseOrder::implies(&dnf[0], &[DenseAtom::lt(x(), c(3))]));
        assert!(DenseOrder::implies(&[DenseAtom::lt(x(), c(3))], &dnf[0]));
    }

    #[test]
    fn implication() {
        assert!(DenseOrder::implies(
            &[DenseAtom::lt(x(), c(3))],
            &[DenseAtom::lt(x(), c(7))]
        ));
        assert!(!DenseOrder::implies(
            &[DenseAtom::lt(x(), c(7))],
            &[DenseAtom::lt(x(), c(3))]
        ));
        assert!(DenseOrder::implies(
            &[DenseAtom::lt(x(), y()), DenseAtom::lt(y(), z())],
            &[DenseAtom::lt(x(), z())]
        ));
        // An unsatisfiable premise implies anything.
        assert!(DenseOrder::implies(
            &[DenseAtom::lt(x(), x())],
            &[DenseAtom::eq(x(), c(42))]
        ));
        // Nothing implies a constraint on a fresh variable.
        assert!(!DenseOrder::implies(&[], &[DenseAtom::lt(x(), c(0))]));
        // But reflexive facts are free.
        assert!(DenseOrder::implies(&[], &[DenseAtom::le(x(), x())]));
    }

    #[test]
    fn canonicalize_detects_equalities() {
        let conj = [DenseAtom::le(x(), y()), DenseAtom::le(y(), x())];
        let canon = DenseOrder::canonicalize(&conj).unwrap();
        assert!(canon.contains(&DenseAtom::eq(x(), y())));
        assert!(DenseOrder::canonicalize(&[DenseAtom::lt(x(), x())]).is_none());
    }

    #[test]
    fn negation_covers_complement() {
        let a = DenseAtom::le(x(), c(2));
        let neg = a.negate();
        let assign_lo = |_: &Var| Rat::from_i64(1);
        let assign_hi = |_: &Var| Rat::from_i64(5);
        assert!(a.eval(&assign_lo) && !a.eval(&assign_hi));
        assert!(!neg.iter().any(|n| n.eval(&assign_lo)));
        assert!(neg.iter().any(|n| n.eval(&assign_hi)));
        let e = DenseAtom::eq(x(), c(2));
        assert_eq!(e.negate().len(), 2);
    }

    #[test]
    fn witness_satisfies_conjunction() {
        let conj = vec![
            DenseAtom::lt(c(0), x()),
            DenseAtom::lt(x(), y()),
            DenseAtom::lt(y(), c(1)),
            DenseAtom::eq(z(), c(5)),
        ];
        let closure = OrderClosure::new(&conj, &[]);
        let w = closure.witness().expect("satisfiable");
        let assign = |v: &Var| w[v].clone();
        assert!(conj.iter().all(|a| a.eval(&assign)));
        assert_eq!(w[&Var::new("z")], Rat::from_i64(5));
    }

    /// A small pool of atoms over {x, y, z} and the constants {0, 1, 5}, used
    /// to enumerate conjunctions exhaustively.
    fn atom_pool() -> Vec<DenseAtom> {
        vec![
            DenseAtom::lt(c(0), x()),
            DenseAtom::lt(x(), c(1)),
            DenseAtom::le(x(), c(0)),
            DenseAtom::eq(x(), c(5)),
            DenseAtom::lt(x(), y()),
            DenseAtom::le(y(), x()),
            DenseAtom::eq(x(), y()),
            DenseAtom::lt(y(), z()),
            DenseAtom::le(z(), c(1)),
            DenseAtom::eq(z(), c(0)),
        ]
    }

    #[test]
    fn every_witness_satisfies_its_conjunction() {
        // Exhaustively over all conjunctions of up to three pool atoms: whenever the
        // closure reports satisfiable, the constructed witness must satisfy every
        // atom — the regression for the former silent `Rat::zero()` fallback.
        let pool = atom_pool();
        let n = pool.len();
        for i in 0..n {
            for j in i..n {
                for k in j..n {
                    let conj = vec![pool[i].clone(), pool[j].clone(), pool[k].clone()];
                    let closure = OrderClosure::new(&conj, &[]);
                    let Some(w) = closure.witness() else {
                        assert!(!closure.satisfiable(), "witness lost for satisfiable conj");
                        continue;
                    };
                    let assign = |v: &Var| w[v].clone();
                    assert!(
                        conj.iter().all(|a| a.eval(&assign)),
                        "witness {w:?} violates {conj:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn compatibility_filter_is_sound_and_catches_pair_conflicts() {
        let pool = atom_pool();
        // Soundness: whenever the filter rejects a pair, the merged conjunction is
        // genuinely unsatisfiable.  Checked exhaustively over pairs of two-atom
        // conjunctions from the pool.
        let n = pool.len();
        for i in 0..n {
            for j in 0..n {
                let left = vec![pool[i].clone()];
                let right = vec![pool[j].clone()];
                let a = OrderClosure::new(&left, &[]);
                let b = OrderClosure::new(&right, &[]);
                let mut merged = left.clone();
                merged.extend(right.clone());
                if !a.compatible_with(&b) {
                    assert!(
                        !DenseOrder::satisfiable(&merged),
                        "filter rejected the satisfiable pair {left:?} / {right:?}"
                    );
                }
            }
        }
        // Effectiveness on the join-shaped conflicts the evaluator meets: points
        // pinned to different constants, and bound/pin contradictions.
        let pin2 = OrderClosure::new(&[DenseAtom::eq(y(), c(2))], &[]);
        let pin3 = OrderClosure::new(&[DenseAtom::eq(y(), c(3))], &[]);
        assert!(!pin2.compatible_with(&pin3));
        let below = OrderClosure::new(&[DenseAtom::lt(y(), c(2))], &[]);
        assert!(!pin3.compatible_with(&below));
        assert!(!pin2.compatible_with(&below));
        let pin1 = OrderClosure::new(&[DenseAtom::eq(y(), c(1))], &[]);
        assert!(pin1.compatible_with(&below));
    }

    #[test]
    fn entails_handles_foreign_constants() {
        let closure = OrderClosure::new(&[DenseAtom::lt(x(), c(3))], &[c(7)]);
        assert!(closure.entails(&DenseAtom::lt(x(), c(7))));
        assert!(!closure.entails(&DenseAtom::lt(x(), c(2))));
    }

    #[test]
    fn entails_foreign_constants_without_registration() {
        // The cached closure answers atoms over constants it has never seen:
        // entailment factors through the premise's own constants.
        let upper = OrderClosure::new(&[DenseAtom::lt(x(), c(3))], &[]);
        assert!(upper.entails(&DenseAtom::lt(x(), c(7))));
        assert!(upper.entails(&DenseAtom::le(x(), c(3))));
        assert!(!upper.entails(&DenseAtom::lt(x(), c(2))));
        assert!(!upper.entails(&DenseAtom::eq(x(), c(3))));

        let lower = OrderClosure::new(&[DenseAtom::lt(c(5), x())], &[]);
        assert!(lower.entails(&DenseAtom::lt(c(2), x())));
        assert!(!lower.entails(&DenseAtom::lt(c(6), x())));

        // Equality pins propagate through chains: y = x ∧ x = 4 entails y = 4.
        let pinned = OrderClosure::new(&[DenseAtom::eq(y(), x()), DenseAtom::eq(x(), c(4))], &[]);
        assert!(pinned.entails(&DenseAtom::eq(y(), c(4))));
        assert!(pinned.entails(&DenseAtom::lt(y(), c(9))));
        assert!(!pinned.entails(&DenseAtom::lt(y(), c(4))));
    }
}
