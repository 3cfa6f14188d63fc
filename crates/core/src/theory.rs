//! The constraint-theory abstraction.
//!
//! The paper's framework is parametric in the *context structure* and its first-order
//! language: the case study is `(Q, ≤)` (dense order, crate [`crate::dense`]), with
//! `(Q, ≤, +)` (linear constraints, crate `frdb-linear`) and the real field surveyed in
//! Section 7.  What the generic query evaluator actually needs from a context is
//! exactly the quantifier-elimination interface identified in Section 4.1 (question
//! Q1): decide satisfiability of a conjunction of atoms, tighten it to a canonical
//! form, eliminate one existentially quantified variable from it, and decide
//! implication between conjunctions.  [`Theory`] packages that interface.

use crate::logic::{Term, Var};
use frdb_num::Rat;
use std::collections::{BTreeSet, HashMap};
use std::fmt::{Debug, Display};
use std::hash::Hash;

/// A constraint atom of some first-order language interpreted over the rationals.
///
/// The `Send + Sync + 'static` bounds let conjunctions over any atom type carry
/// shared, lazily computed canonical caches (see
/// [`crate::relation::GenTuple`]).
pub trait Atom: Clone + Eq + Hash + Debug + Display + Send + Sync + 'static {
    /// The variables occurring in the atom.
    fn vars(&self) -> BTreeSet<Var>;

    /// The constants occurring in the atom.
    fn constants(&self) -> BTreeSet<Rat>;

    /// Evaluates the atom under a total assignment of rationals to variables.
    ///
    /// The assignment must cover every variable of the atom; this is the semantic
    /// satisfaction relation `A ⊨ φ(a̅)` of Definition 2.3.
    fn eval(&self, assignment: &dyn Fn(&Var) -> Rat) -> bool;

    /// The negation of the atom as a *disjunction* of atoms.
    ///
    /// Over a total dense order every negated atom is again expressible positively
    /// (`¬(s < t)` is `t ≤ s`, `¬(s = t)` is `s < t ∨ t < s`), which keeps generalized
    /// tuples negation-free as in the paper's primitive tuples (Definition 6.7).
    fn negate(&self) -> Vec<Self>;

    /// Substitutes a term (variable or constant) for a variable.
    fn subst(&self, var: &Var, replacement: &Term) -> Self;

    /// Applies a **simultaneous** substitution: every variable in `map` is
    /// replaced by its image in one pass, so permutations need no temporary
    /// variables (unlike chained [`Atom::subst`] calls).
    fn subst_simultaneous(&self, map: &HashMap<Var, Term>) -> Self;

    /// Applies a mapping to every constant of the atom (Definition 4.3).
    fn map_constants(&self, f: &impl Fn(&Rat) -> Rat) -> Self;

    /// Whether the atom is an order comparison between terms, so that its
    /// truth is invariant under every automorphism of `(Q, ≤)` fixing its
    /// constants.  Over such atoms the point oracle ([`crate::fo::oracle`])
    /// is exact (genericity, Prop. 4.10); otherwise it is one-sided.
    const ORDER_GENERIC: bool = false;

    /// The values of `var` at which the atom's truth can change once every
    /// other variable is fixed by `assignment` (`None` = unassigned, which
    /// leaves the atom without boundary points).  The point oracle adds them
    /// to its quantifier candidates; extra points never make it unsound.
    fn boundary_points(&self, _var: &Var, _assignment: &dyn Fn(&Var) -> Option<Rat>) -> Vec<Rat> {
        Vec::new()
    }
}

/// A conjunction of atoms: the paper's *generalized tuple* (Section 2.2).
pub type Conj<A> = Vec<A>;

/// A disjunction of conjunctions of atoms: a quantifier-free formula in disjunctive
/// normal form, i.e. a finite representation of a relation.
pub type Dnf<A> = Vec<Conj<A>>;

/// A first-order theory with quantifier elimination, sufficient to drive the
/// constraint query evaluator.
///
/// ## The canonical context
///
/// Every decision the evaluator needs — satisfiability, canonicalization,
/// quantifier elimination, implication — is a view of one saturated object per
/// conjunction (for dense order: the transitive order closure).  The
/// associated type [`Theory::Ctx`] names that object, [`Theory::context`]
/// builds it **once**, and the `ctx_*` methods answer every question from it
/// without re-saturating.  Generalized tuples cache their context (see
/// [`crate::relation::GenTuple`]), so repeated queries against the same
/// conjunction — the inner loops of DNF simplification and of the Datalog
/// fixpoint — cost closure lookups, not closure constructions.
///
/// The conjunction-level conveniences (`satisfiable`, `canonicalize`,
/// `eliminate`, `implies`) have default implementations that build a throwaway
/// context; callers holding a [`crate::relation::GenTuple`] should prefer the
/// `ctx_*` forms through the tuple's cache.
pub trait Theory: Sized + 'static {
    /// The atom type of the theory's language.
    type A: Atom;

    /// The saturated canonical context of a conjunction (e.g. the dense-order
    /// transitive closure), from which all decisions are read off.
    type Ctx: Clone + Send + Sync + 'static;

    /// Human-readable name of the theory (used in reports and benchmarks).
    fn name() -> &'static str;

    /// Builds the canonical context of a conjunction.  This is the only
    /// saturating (potentially super-linear) operation of the theory.
    fn context(conj: &[Self::A]) -> Self::Ctx;

    /// Whether the context's conjunction is satisfiable over the structure.
    fn ctx_satisfiable(ctx: &Self::Ctx) -> bool;

    /// The canonical (tightest) form of the context's conjunction, or `None`
    /// if unsatisfiable.
    ///
    /// Canonical means: two equivalent satisfiable conjunctions over the same
    /// variables and constants produce equal atom lists, so the result can be
    /// used for hash-based duplicate elimination.
    fn ctx_canonical(ctx: &Self::Ctx) -> Option<Conj<Self::A>>;

    /// Eliminates an existentially quantified variable, returning an
    /// equivalent quantifier-free DNF over the remaining variables.  The
    /// context is assumed satisfiable.
    ///
    /// For dense order and linear constraints the result is a single
    /// conjunction; the DNF return type leaves room for theories where
    /// elimination genuinely branches.
    fn ctx_eliminate(ctx: &Self::Ctx, var: &Var) -> Dnf<Self::A>;

    /// Whether the context's conjunction implies every atom of `conclusion`
    /// (with all variables implicitly universally quantified).  Must be exact
    /// even for constants of `conclusion` that do not occur in the premise.
    fn ctx_entails(ctx: &Self::Ctx, conclusion: &[Self::A]) -> bool;

    /// A cheap **sound pre-filter** for joint satisfiability of two contexts:
    /// returning `false` guarantees that the conjunction of the two underlying
    /// conjunctions is unsatisfiable; returning `true` decides nothing.
    ///
    /// This is the pruning hook of the relational-algebra evaluator's natural
    /// join ([`crate::relation::Relation::join`]): candidate tuple pairs are
    /// screened against both cached contexts *without* building the merged
    /// context, and only surviving pairs pay for a full saturation (which is
    /// then cached on the joined tuple).  The default accepts every pair;
    /// theories override it with whatever conflict test their context answers
    /// in sub-saturation time (dense order: pairwise strict-cycle detection
    /// across the two closures).
    fn ctx_compatible(_a: &Self::Ctx, _b: &Self::Ctx) -> bool {
        true
    }

    /// The constant the context **pins** a variable to — `Some(c)` only when
    /// the conjunction entails `var = c`.  Must be exact when returned:
    /// `Some(c)` with the conjunction satisfiable by any other value of `var`
    /// would let the join's hash partitioning drop valid pairs.  `None` is
    /// always safe (the tuple is treated as a wildcard).
    ///
    /// [`crate::relation::Relation::join`] buckets tuples by the pinned value
    /// of a shared column, so finite (point-like) relations join in near-linear
    /// time instead of enumerating the quadratic pair space.  The default pins
    /// nothing, which degrades joins to the filtered nested loop.
    fn ctx_pinned(_ctx: &Self::Ctx, _var: &Var) -> Option<Rat> {
        None
    }

    /// The constant **envelope** the context entails for a variable: `Some((lo,
    /// up))` only when the conjunction entails `lo ⋈ var` and/or `var ⋈ up`
    /// for constants `lo`, `up` (with [`std::ops::Bound::Excluded`] marking a
    /// strict comparison and [`std::ops::Bound::Unbounded`] an unconstrained
    /// side).  The envelope must be *sound* — every satisfying assignment
    /// places `var` inside it — but need not be tight; `None` (or a fully
    /// unbounded pair) is always safe and degrades the interval index to a
    /// wildcard.
    ///
    /// This is the hook behind [`crate::relation::Relation::join`]'s
    /// sorted-endpoint interval index: tuples whose envelopes on a shared
    /// column are disjoint are provably jointly unsatisfiable and never reach
    /// [`Theory::ctx_compatible`].  A pinned column ([`Theory::ctx_pinned`])
    /// is the degenerate zero-width envelope.  The default derives nothing.
    fn ctx_bounds(
        _ctx: &Self::Ctx,
        _var: &Var,
    ) -> Option<(std::ops::Bound<Rat>, std::ops::Bound<Rat>)> {
        None
    }

    /// Decides whether a conjunction of atoms is satisfiable over the context
    /// structure.
    fn satisfiable(conj: &[Self::A]) -> bool {
        Self::ctx_satisfiable(&Self::context(conj))
    }

    /// Tightens a conjunction to an equivalent canonical conjunction, or `None` if it
    /// is unsatisfiable.
    fn canonicalize(conj: &[Self::A]) -> Option<Conj<Self::A>> {
        Self::ctx_canonical(&Self::context(conj))
    }

    /// Eliminates an existentially quantified variable from a conjunction,
    /// returning an equivalent quantifier-free DNF over the remaining variables
    /// (empty if the conjunction is unsatisfiable).
    fn eliminate(var: &Var, conj: &[Self::A]) -> Dnf<Self::A> {
        let ctx = Self::context(conj);
        if !Self::ctx_satisfiable(&ctx) {
            return Vec::new();
        }
        Self::ctx_eliminate(&ctx, var)
    }

    /// Decides whether conjunction `premise` implies conjunction `conclusion` over the
    /// context structure (with all variables implicitly universally quantified).
    fn implies(premise: &[Self::A], conclusion: &[Self::A]) -> bool {
        Self::ctx_entails(&Self::context(premise), conclusion)
    }
}

/// Evaluates a conjunction of atoms under a total assignment.
#[must_use]
pub fn eval_conj<A: Atom>(conj: &[A], assignment: &dyn Fn(&Var) -> Rat) -> bool {
    conj.iter().all(|a| a.eval(assignment))
}

/// Evaluates a DNF under a total assignment.
#[must_use]
pub fn eval_dnf<A: Atom>(dnf: &[Conj<A>], assignment: &dyn Fn(&Var) -> Rat) -> bool {
    dnf.iter().any(|c| eval_conj(c, assignment))
}
