//! Variables, terms and the first-order formula AST.
//!
//! Following Section 2.1 of the paper, a first-order language `L` (here abstracted by
//! an atom type `A`) is kept disjoint from the database schema `σ`: [`Formula`]
//! distinguishes constraint atoms ([`Formula::Atom`]) from relation atoms
//! ([`Formula::Rel`]) over schema symbols.  A quantifier-free formula whose relation
//! atoms have been expanded is what finitely *represents* an infinite relation
//! (Definition 2.3).

use crate::intern::Sym;
use crate::schema::RelName;
use frdb_num::Rat;
use std::collections::BTreeSet;
use std::fmt;

/// A first-order variable, identified by an interned name.
///
/// Equality and hashing are single integer comparisons on the interned
/// [`Sym`]; ordering is lexicographic on the name, so variable sets iterate
/// deterministically regardless of interning order.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(Sym);

impl Var {
    /// Creates a variable with the given name (interning it).
    ///
    /// # Panics
    /// Panics if the name starts with `#`: that namespace is reserved for the
    /// internally generated fresh variables of [`Var::fresh`].  Accepting such
    /// names would let a user variable shadow a fresh one, so that a renaming
    /// through fresh variables could capture it silently — the reservation
    /// turns that latent capture into an immediate, loud error.
    #[must_use]
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        assert!(
            !name.starts_with('#'),
            "variable name {name:?} is reserved: the '#' prefix belongs to \
             internally generated fresh variables"
        );
        Var(Sym::new(name))
    }

    /// The variable's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.0.as_str()
    }

    /// The interned symbol behind the variable.
    #[must_use]
    pub fn sym(&self) -> Sym {
        self.0
    }

    /// A fresh variable guaranteed not to clash with any user-written
    /// variable, given a monotone counter: fresh names live in the `#k`
    /// namespace, which [`Var::new`] rejects for user code.
    #[must_use]
    pub fn fresh(counter: &mut usize) -> Var {
        let v = Var(Sym::new(&format!("#{counter}")));
        *counter += 1;
        v
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({})", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

impl From<String> for Var {
    fn from(s: String) -> Self {
        Var::new(s)
    }
}

impl From<Sym> for Var {
    /// Wraps an already interned symbol **without** the reserved-namespace
    /// check of [`Var::new`] — the internal escape hatch for machinery that
    /// round-trips existing variables through their symbols.
    fn from(s: Sym) -> Self {
        Var(s)
    }
}

/// A term of the dense-order language: a variable or a rational constant.
///
/// The paper assumes a constant symbol for every rational number (Section 2.1); terms
/// with function symbols only appear in richer languages handled by other crates.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A rational constant.
    Const(Rat),
}

impl Term {
    /// A variable term.
    #[must_use]
    pub fn var(name: impl AsRef<str>) -> Term {
        Term::Var(Var::new(name))
    }

    /// An integer constant term.
    #[must_use]
    pub fn cst(v: i64) -> Term {
        Term::Const(Rat::from_i64(v))
    }

    /// A rational constant term.
    #[must_use]
    pub fn rat(v: Rat) -> Term {
        Term::Const(v)
    }

    /// The variable, if this term is one.
    #[must_use]
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant, if this term is one.
    #[must_use]
    pub fn as_const(&self) -> Option<&Rat> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }

    /// Substitutes `replacement` for the variable `var` (no effect on other terms).
    #[must_use]
    pub fn subst(&self, var: &Var, replacement: &Term) -> Term {
        match self {
            Term::Var(v) if v == var => replacement.clone(),
            other => other.clone(),
        }
    }

    /// Applies a simultaneous substitution: if this term is a variable with an
    /// image in `map`, returns the image; otherwise returns the term unchanged.
    #[must_use]
    pub fn subst_simultaneous(&self, map: &std::collections::HashMap<Var, Term>) -> Term {
        match self {
            Term::Var(v) => map.get(v).cloned().unwrap_or_else(|| self.clone()),
            Term::Const(_) => self.clone(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<i64> for Term {
    fn from(v: i64) -> Self {
        Term::cst(v)
    }
}

impl From<Rat> for Term {
    fn from(v: Rat) -> Self {
        Term::Const(v)
    }
}

/// A first-order formula over constraint atoms of type `A` and schema relation atoms.
///
/// `Formula` is the query language of Section 4.1: each formula `φ` with free variables
/// `x₁,…,xₙ` defines the query `{(x₁,…,xₙ) | φ}`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula<A> {
    /// The true formula.
    True,
    /// The false formula.
    False,
    /// A constraint atom of the underlying language `L`.
    Atom(A),
    /// A relation atom `R(t₁,…,tₖ)` over a schema symbol.
    Rel {
        /// The relation name.
        name: RelName,
        /// Argument terms (variables or constants).
        args: Vec<Term>,
    },
    /// Negation.
    Not(Box<Formula<A>>),
    /// Conjunction (empty conjunction is `True`).
    And(Vec<Formula<A>>),
    /// Disjunction (empty disjunction is `False`).
    Or(Vec<Formula<A>>),
    /// Existential quantification over the listed variables.
    Exists(Vec<Var>, Box<Formula<A>>),
    /// Universal quantification over the listed variables.
    Forall(Vec<Var>, Box<Formula<A>>),
}

impl<A> Formula<A> {
    /// Conjunction of two formulas.
    #[must_use]
    pub fn and(self, other: Formula<A>) -> Formula<A> {
        Formula::And(vec![self, other])
    }

    /// Disjunction of two formulas.
    #[must_use]
    pub fn or(self, other: Formula<A>) -> Formula<A> {
        Formula::Or(vec![self, other])
    }

    /// Negation.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula<A> {
        Formula::Not(Box::new(self))
    }

    /// Implication `self → other`.
    #[must_use]
    pub fn implies(self, other: Formula<A>) -> Formula<A> {
        self.not().or(other)
    }

    /// Bi-implication `self ↔ other`.
    #[must_use]
    pub fn iff(self, other: Formula<A>) -> Formula<A>
    where
        A: Clone,
    {
        self.clone().implies(other.clone()).and(other.implies(self))
    }

    /// Existential quantification.
    #[must_use]
    pub fn exists(vars: impl IntoIterator<Item = impl Into<Var>>, body: Formula<A>) -> Formula<A> {
        Formula::Exists(vars.into_iter().map(Into::into).collect(), Box::new(body))
    }

    /// Universal quantification.
    #[must_use]
    pub fn forall(vars: impl IntoIterator<Item = impl Into<Var>>, body: Formula<A>) -> Formula<A> {
        Formula::Forall(vars.into_iter().map(Into::into).collect(), Box::new(body))
    }

    /// A relation atom `R(args…)`.
    #[must_use]
    pub fn rel(
        name: impl Into<RelName>,
        args: impl IntoIterator<Item = impl Into<Term>>,
    ) -> Formula<A> {
        Formula::Rel {
            name: name.into(),
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// Conjunction of an arbitrary number of formulas.
    #[must_use]
    pub fn conj(parts: impl IntoIterator<Item = Formula<A>>) -> Formula<A> {
        Formula::And(parts.into_iter().collect())
    }

    /// Disjunction of an arbitrary number of formulas.
    #[must_use]
    pub fn disj(parts: impl IntoIterator<Item = Formula<A>>) -> Formula<A> {
        Formula::Or(parts.into_iter().collect())
    }

    /// Quantifier depth (maximum nesting of quantifier blocks, each block counting its
    /// width), matching the quantifier-rank parameter `r` of the Ehrenfeucht–Fraïssé
    /// correspondence (Theorem 5.8).
    #[must_use]
    pub fn quantifier_rank(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Rel { .. } => 0,
            Formula::Not(f) => f.quantifier_rank(),
            Formula::And(fs) | Formula::Or(fs) => {
                fs.iter().map(Formula::quantifier_rank).max().unwrap_or(0)
            }
            Formula::Exists(vs, f) | Formula::Forall(vs, f) => vs.len() + f.quantifier_rank(),
        }
    }

    /// Names of the schema relations mentioned by the formula.
    #[must_use]
    pub fn relation_names(&self) -> BTreeSet<RelName> {
        let mut out = BTreeSet::new();
        self.collect_relation_names(&mut out);
        out
    }

    fn collect_relation_names(&self, out: &mut BTreeSet<RelName>) {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => {}
            Formula::Rel { name, .. } => {
                out.insert(name.clone());
            }
            Formula::Not(f) => f.collect_relation_names(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_relation_names(out);
                }
            }
            Formula::Exists(_, f) | Formula::Forall(_, f) => f.collect_relation_names(out),
        }
    }
}

impl<A: crate::theory::Atom> Formula<A> {
    /// The set of free variables of the formula.
    #[must_use]
    pub fn free_vars(&self) -> BTreeSet<Var> {
        match self {
            Formula::True | Formula::False => BTreeSet::new(),
            Formula::Atom(a) => a.vars(),
            Formula::Rel { args, .. } => args.iter().filter_map(Term::as_var).cloned().collect(),
            Formula::Not(f) => f.free_vars(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().flat_map(Formula::free_vars).collect(),
            Formula::Exists(vs, f) | Formula::Forall(vs, f) => {
                let mut set = f.free_vars();
                for v in vs {
                    set.remove(v);
                }
                set
            }
        }
    }

    /// Returns `true` iff the formula is a sentence (has no free variables).
    #[must_use]
    pub fn is_sentence(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Returns `true` iff the formula is quantifier free.
    #[must_use]
    pub fn is_quantifier_free(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Rel { .. } => true,
            Formula::Not(f) => f.is_quantifier_free(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_quantifier_free),
            Formula::Exists(..) | Formula::Forall(..) => false,
        }
    }

    /// Applies a mapping to all constants of the formula (Definition 4.3: the image of
    /// a formula under a morphism `µ` replaces every constant `c` by `µ(c)`).
    #[must_use]
    pub fn map_constants(&self, f: &impl Fn(&Rat) -> Rat) -> Formula<A> {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => Formula::Atom(a.map_constants(f)),
            Formula::Rel { name, args } => Formula::Rel {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => Term::Var(v.clone()),
                        Term::Const(c) => Term::Const(f(c)),
                    })
                    .collect(),
            },
            Formula::Not(g) => Formula::Not(Box::new(g.map_constants(f))),
            Formula::And(fs) => Formula::And(fs.iter().map(|g| g.map_constants(f)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|g| g.map_constants(f)).collect()),
            Formula::Exists(vs, g) => Formula::Exists(vs.clone(), Box::new(g.map_constants(f))),
            Formula::Forall(vs, g) => Formula::Forall(vs.clone(), Box::new(g.map_constants(f))),
        }
    }

    /// All constants occurring in the formula (constraint atoms and relation-atom
    /// arguments).
    #[must_use]
    pub fn constants(&self) -> BTreeSet<Rat> {
        match self {
            Formula::True | Formula::False => BTreeSet::new(),
            Formula::Atom(a) => a.constants(),
            Formula::Rel { args, .. } => args.iter().filter_map(Term::as_const).cloned().collect(),
            Formula::Not(f) => f.constants(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().flat_map(Formula::constants).collect(),
            Formula::Exists(_, f) | Formula::Forall(_, f) => f.constants(),
        }
    }
}

impl<A: fmt::Display> fmt::Display for Formula<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Rel { name, args } => write!(f, "{name}({})", Sep(args, ", ")),
            Formula::Not(g) => write!(f, "¬({g})"),
            Formula::And(fs) if fs.is_empty() => write!(f, "true"),
            Formula::And(fs) => write!(f, "({})", Sep(fs, " ∧ ")),
            Formula::Or(fs) if fs.is_empty() => write!(f, "false"),
            Formula::Or(fs) => write!(f, "({})", Sep(fs, " ∨ ")),
            Formula::Exists(vs, g) => write!(f, "∃{}.({g})", Sep(vs, ",")),
            Formula::Forall(vs, g) => write!(f, "∀{}.({g})", Sep(vs, ",")),
        }
    }
}

/// Displays a slice's items separated by a string, without allocating.
pub(crate) struct Sep<'a, I>(pub &'a [I], pub &'a str);

impl<I: fmt::Display> fmt::Display for Sep<'_, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(self.1)?;
            }
            write!(f, "{item}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseAtom;

    #[test]
    fn free_vars_and_rank() {
        let f: Formula<DenseAtom> = Formula::exists(
            ["x"],
            Formula::Atom(DenseAtom::lt(Term::var("x"), Term::var("y")))
                .and(Formula::rel("R", [Term::var("x"), Term::var("z")])),
        );
        let fv = f.free_vars();
        assert!(fv.contains(&Var::new("y")));
        assert!(fv.contains(&Var::new("z")));
        assert!(!fv.contains(&Var::new("x")));
        assert_eq!(f.quantifier_rank(), 1);
        assert!(!f.is_quantifier_free());
        assert!(!f.is_sentence());
        assert_eq!(f.relation_names().len(), 1);
    }

    #[test]
    fn display_is_readable() {
        let f: Formula<DenseAtom> = Formula::forall(
            ["x"],
            Formula::rel("R", [Term::var("x")])
                .implies(Formula::Atom(DenseAtom::le(Term::cst(0), Term::var("x")))),
        );
        let s = f.to_string();
        assert!(s.contains('∀'));
        assert!(s.contains("R(x)"));
    }

    #[test]
    fn fresh_variables_are_distinct() {
        let mut c = 0;
        let a = Var::fresh(&mut c);
        let b = Var::fresh(&mut c);
        assert_ne!(a, b);
        assert!(a.name().starts_with('#'));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn user_variables_cannot_shadow_fresh_names() {
        // A user variable literally named `#0` would shadow the first fresh
        // variable of relation expansion and could be captured silently; the
        // constructor rejects the whole `#` namespace instead.
        let _ = Var::new("#0");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_namespace_is_rejected_through_conversions_too() {
        let _: Var = String::from("#17").into();
    }
}
