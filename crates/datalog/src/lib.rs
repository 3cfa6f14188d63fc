//! # frdb-datalog
//!
//! Inflationary **Datalog with negation and constraints** (`DATALOG¬`) over finitely
//! representable databases — the fixpoint query language of Section 6 of Grumbach &
//! Su, *Finitely Representable Databases*.
//!
//! A `DATALOG¬` program is a finite set of rules
//!
//! ```text
//! A(x₁,…,xₙ)  ←  B(y₁,…,yₘ), …, ¬C(z₁,…,zₖ), …, s₁ ≤ t₁, …, sₗ ≤ tₗ
//! ```
//!
//! whose body mixes positive and negated relation atoms (over both the database schema
//! and the intensional predicates) with dense-order constraints.  The semantics is the
//! *inflationary* one used in the paper: every rule body is an FO query evaluated
//! against the current instance, the result is unioned into the head relation, and
//! iteration continues until a fixpoint.  Because dense-order quantifier elimination
//! introduces no constants outside the active domain, the fixpoint is reached after
//! finitely many rounds and the output is again a finitely representable relation
//! ("closed form", \[KKR95\]); the engine nevertheless takes a configurable iteration
//! cap as a defensive bound.
//!
//! `DATALOG¬` expresses exactly the order-generic PTIME queries (Theorem 6.6); the
//! query catalog in `frdb-queries` provides the programs the paper discusses
//! (transitive closure, region connectivity, …) and cross-checks them against direct
//! polynomial-time algorithms.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use frdb_core::fo::{CompiledQuery, EvalError, PlanCache, PlanConfig, Statistics};
use frdb_core::intern::Sym;
use frdb_core::logic::{Formula, Term, Var};
use frdb_core::relation::{GenTuple, Instance, Relation};
use frdb_core::schema::{RelName, Schema};
use frdb_core::theory::Theory;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A literal of a rule body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Literal<A> {
    /// A (possibly negated) relation atom over an EDB or IDB predicate.
    Rel {
        /// `false` for a negated occurrence `¬R(t̅)`.
        positive: bool,
        /// The relation name.
        name: RelName,
        /// Argument terms.
        args: Vec<Term>,
    },
    /// A constraint atom of the underlying theory.
    Constraint(A),
}

impl<A> Literal<A> {
    /// A positive relation literal.
    #[must_use]
    pub fn pos(name: impl Into<RelName>, args: impl IntoIterator<Item = impl Into<Term>>) -> Self {
        Literal::Rel {
            positive: true,
            name: name.into(),
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// A negated relation literal.
    #[must_use]
    pub fn neg(name: impl Into<RelName>, args: impl IntoIterator<Item = impl Into<Term>>) -> Self {
        Literal::Rel {
            positive: false,
            name: name.into(),
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// A constraint literal.
    #[must_use]
    pub fn constraint(atom: A) -> Self {
        Literal::Constraint(atom)
    }
}

impl<A: fmt::Display> fmt::Display for Literal<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Rel {
                positive,
                name,
                args,
            } => {
                if !positive {
                    write!(f, "¬")?;
                }
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Literal::Constraint(a) => write!(f, "{a}"),
        }
    }
}

/// A rule `head(vars) ← body`.
///
/// The body is either a list of literals (the syntax shown in Section 6 of the paper)
/// or, more generally, an arbitrary first-order formula over the EDB and IDB
/// predicates — the engine evaluates each rule body as an FO query anyway, and rules
/// such as the `Sweep` relation of Example 6.3 need an embedded universal quantifier
/// ("the segment between the two points is entirely in R").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule<A> {
    /// Head predicate name.
    pub head: RelName,
    /// Head variables (the columns of the derived relation).
    pub head_vars: Vec<Var>,
    /// Body literals (empty when `formula` is used instead).
    pub body: Vec<Literal<A>>,
    /// An explicit body formula taking precedence over `body` when present.
    formula: Option<Formula<A>>,
}

impl<A: frdb_core::theory::Atom> Rule<A> {
    /// Creates a rule from body literals.
    #[must_use]
    pub fn new(
        head: impl Into<RelName>,
        head_vars: impl IntoIterator<Item = impl Into<Var>>,
        body: Vec<Literal<A>>,
    ) -> Self {
        Rule {
            head: head.into(),
            head_vars: head_vars.into_iter().map(Into::into).collect(),
            body,
            formula: None,
        }
    }

    /// Creates a rule whose body is an arbitrary FO formula (free variables not in the
    /// head are implicitly existentially quantified by the evaluation).
    #[must_use]
    pub fn from_formula(
        head: impl Into<RelName>,
        head_vars: impl IntoIterator<Item = impl Into<Var>>,
        body: Formula<A>,
    ) -> Self {
        Rule {
            head: head.into(),
            head_vars: head_vars.into_iter().map(Into::into).collect(),
            body: Vec::new(),
            formula: Some(body),
        }
    }

    /// The body as an FO formula: the conjunction of the literals with all non-head
    /// variables existentially quantified.
    #[must_use]
    pub fn body_formula(&self) -> Formula<A> {
        self.body_formula_mapped(&|_, name| name.clone())
    }

    /// Like [`Rule::body_formula`], but the relation name of each body literal
    /// is passed through `map` together with its literal index — the hook the
    /// semi-naive evaluator uses to point one positive occurrence at a delta
    /// relation.  Formula-bodied rules ignore the mapping (they are evaluated
    /// naively).
    fn body_formula_mapped(&self, map: &dyn Fn(usize, &RelName) -> RelName) -> Formula<A> {
        if let Some(f) = &self.formula {
            let head_set: BTreeSet<Var> = self.head_vars.iter().cloned().collect();
            let free: Vec<Var> = f.free_vars().difference(&head_set).cloned().collect();
            return if free.is_empty() {
                f.clone()
            } else {
                Formula::Exists(free, Box::new(f.clone()))
            };
        }
        let mut parts: Vec<Formula<A>> = Vec::with_capacity(self.body.len());
        let mut body_vars: BTreeSet<Var> = BTreeSet::new();
        for (idx, lit) in self.body.iter().enumerate() {
            match lit {
                Literal::Rel {
                    positive,
                    name,
                    args,
                } => {
                    for a in args {
                        if let Term::Var(v) = a {
                            body_vars.insert(v.clone());
                        }
                    }
                    let atom = Formula::Rel {
                        name: map(idx, name),
                        args: args.clone(),
                    };
                    parts.push(if *positive { atom } else { atom.not() });
                }
                Literal::Constraint(a) => {
                    body_vars.extend(a.vars());
                    parts.push(Formula::Atom(a.clone()));
                }
            }
        }
        let head_set: BTreeSet<Var> = self.head_vars.iter().cloned().collect();
        let quantified: Vec<Var> = body_vars.difference(&head_set).cloned().collect();
        let conj = Formula::And(parts);
        if quantified.is_empty() {
            conj
        } else {
            Formula::Exists(quantified, Box::new(conj))
        }
    }

    /// Indices of the positive body literals over one of the given intensional
    /// predicates (empty for formula-bodied rules).
    fn positive_idb_literals(&self, idb: &BTreeMap<RelName, usize>) -> Vec<usize> {
        if self.formula.is_some() {
            return Vec::new();
        }
        self.body
            .iter()
            .enumerate()
            .filter_map(|(i, lit)| match lit {
                Literal::Rel {
                    positive: true,
                    name,
                    ..
                } if idb.contains_key(name) => Some(i),
                _ => None,
            })
            .collect()
    }

    /// Whether the rule's body mentions any of the given intensional predicates
    /// at all (positively, negatively, or inside a formula body).
    fn mentions_idb(&self, idb: &BTreeMap<RelName, usize>) -> bool {
        if let Some(f) = &self.formula {
            return f.relation_names().iter().any(|n| idb.contains_key(n));
        }
        self.body.iter().any(|lit| match lit {
            Literal::Rel { name, .. } => idb.contains_key(name),
            Literal::Constraint(_) => false,
        })
    }
}

impl<A: fmt::Display> fmt::Display for Rule<A> {
    /// Prints the rule in the surface syntax the `frdb-lang` parser reads
    /// back: literal bodies as a comma-separated literal list, formula bodies
    /// (which used to print as an empty body) as the body formula itself.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.head)?;
        for (i, v) in self.head_vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") ← ")?;
        if let Some(formula) = &self.formula {
            return write!(f, "{formula}");
        }
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

/// Errors raised while evaluating a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// A rule body failed to evaluate (unknown relation, arity mismatch, …).
    Eval(EvalError),
    /// The program did not reach a fixpoint within the configured iteration cap.
    IterationLimit(usize),
    /// Two rules for the same head predicate disagree on its arity.
    InconsistentHeadArity(String),
    /// A head predicate clashes with an EDB relation of the input schema.
    HeadShadowsEdb(String),
    /// A fixpoint seed names a predicate that is not an intensional head of
    /// the program, or disagrees with the head's arity.
    SeedMismatch(String),
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::Eval(e) => write!(f, "rule evaluation failed: {e}"),
            DatalogError::IterationLimit(n) => {
                write!(f, "no fixpoint reached within {n} iterations")
            }
            DatalogError::InconsistentHeadArity(r) => {
                write!(f, "rules for {r} use different head arities")
            }
            DatalogError::HeadShadowsEdb(r) => {
                write!(f, "intensional predicate {r} shadows an EDB relation")
            }
            DatalogError::SeedMismatch(r) => {
                write!(f, "seed relation {r} is not an intensional head of the program (or its arity disagrees)")
            }
        }
    }
}

impl std::error::Error for DatalogError {}

impl From<EvalError> for DatalogError {
    fn from(e: EvalError) -> Self {
        DatalogError::Eval(e)
    }
}

/// The name of the per-round delta relation of an intensional predicate
/// (semi-naive evaluation only): `#Δ{name}`, in the `#` namespace that
/// [`RelName::new`] rejects, so no user relation can collide with it.
fn delta_name(name: &RelName) -> RelName {
    RelName::from(Sym::new(&format!("#Δ{name}")))
}

/// The canonical column variables (`c0`, `c1`, …) of an intensional predicate.
fn idb_columns(arity: usize) -> Vec<Var> {
    (0..arity).map(|i| Var::new(format!("c{i}"))).collect()
}

/// Builds the combined evaluation schema (EDB relations plus IDB predicates,
/// plus their reserved delta relations when `with_deltas`), the initial
/// instance, and the empty IDB state.  Shared by both engines so the schema
/// assembly and column-naming convention — which their iteration-parity
/// contract depends on — cannot drift apart.
fn seed_state<A: frdb_core::theory::Atom, T: Theory<A = A>>(
    edb: &Instance<T>,
    idb: &BTreeMap<RelName, usize>,
    with_deltas: bool,
) -> (Instance<T>, BTreeMap<RelName, Relation<T>>) {
    let mut schema = Schema::new();
    for (name, arity) in edb.schema().iter() {
        schema.add(name.clone(), arity);
    }
    for (name, arity) in idb {
        schema.add(name.clone(), *arity);
        if with_deltas {
            schema.add(delta_name(name), *arity);
        }
    }
    let mut current: Instance<T> = Instance::new(schema);
    for (name, rel) in edb.iter() {
        current
            .set(name.clone(), rel.clone())
            .expect("engine-declared relation");
    }
    let idb_state: BTreeMap<RelName, Relation<T>> = idb
        .iter()
        .map(|(name, arity)| (name.clone(), Relation::empty(idb_columns(*arity))))
        .collect();
    for (name, rel) in &idb_state {
        current
            .set(name.clone(), rel.clone())
            .expect("engine-declared relation");
        if with_deltas {
            current
                .set(delta_name(name), rel.clone())
                .expect("engine-declared relation");
        }
    }
    (current, idb_state)
}

/// One rule compiled onto the relational-algebra evaluator: the full body and
/// the semi-naive delta variants become reusable plans, re-evaluated against
/// the changing instance every round without re-expanding or re-planning the
/// formula.
struct CompiledRule<T: Theory> {
    head: RelName,
    full_body: CompiledQuery<T>,
    /// (idb predicate whose delta gates the variant, rewritten body plan).
    variants: Vec<(RelName, CompiledQuery<T>)>,
    mentions_idb: bool,
    has_literal_body: bool,
}

/// Everything about a program that can be compiled once and reused across
/// `run` / `run_naive` calls: per-rule plans for both engines (the naive
/// engine evaluates each rule's full body).
struct CompiledProgram<T: Theory> {
    rules: Vec<CompiledRule<T>>,
}

/// Evaluates what one rule derives in the current round (`None` when the rule
/// has nothing to contribute this round).
fn derive_rule<T: Theory>(
    rule: &CompiledRule<T>,
    current: &Instance<T>,
    iteration: usize,
) -> Result<Option<Relation<T>>, DatalogError> {
    if iteration == 0 {
        // First round: every rule runs naively against the empty IDB.
        return Ok(Some(rule.full_body.eval(current)?));
    }
    if rule.has_literal_body && !rule.variants.is_empty() {
        // Semi-naive: one variant per positive IDB literal, gated on that
        // predicate's delta being nonempty.
        let mut acc: Option<Relation<T>> = None;
        for (gate, body) in &rule.variants {
            let gate_delta = current
                .get(&delta_name(gate))
                .expect("delta relations are declared");
            if gate_delta.is_empty() {
                continue;
            }
            let part = body.eval(current)?;
            acc = Some(match acc {
                None => part,
                Some(prev) => {
                    let part = part.rename(prev.vars().to_vec());
                    prev.union_delta(&part)
                }
            });
        }
        return Ok(acc);
    }
    if rule.mentions_idb {
        // Formula-bodied rule over the IDB: possibly non-monotone,
        // re-evaluate (its precompiled plan) every round.
        return Ok(Some(rule.full_body.eval(current)?));
    }
    // EDB-only rule: nothing new after the first round.
    Ok(None)
}

/// Evaluates one fixpoint round's rule bodies: sequentially, or — with a
/// thread budget — across a `std::thread::scope` worker pool, one chunk of
/// rules per worker.  All bodies read the same immutable `current` instance,
/// and results come back in rule order, so the round is deterministic at any
/// thread count.
fn eval_round<T: Theory>(
    rules: &[CompiledRule<T>],
    current: &Instance<T>,
    iteration: usize,
    threads: usize,
) -> Result<Vec<Option<Relation<T>>>, DatalogError> {
    if threads <= 1 || rules.len() < 2 {
        return rules
            .iter()
            .map(|rule| derive_rule(rule, current, iteration))
            .collect();
    }
    let chunk = rules.len().div_ceil(threads);
    let parts: Vec<Result<Vec<Option<Relation<T>>>, DatalogError>> = std::thread::scope(|s| {
        let handles: Vec<_> = rules
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|rule| derive_rule(rule, current, iteration))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rule worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(rules.len());
    for part in parts {
        out.extend(part?);
    }
    Ok(out)
}

/// An inflationary `DATALOG¬` program.
pub struct Program<A> {
    rules: Vec<Rule<A>>,
    max_iterations: usize,
    plan_config: PlanConfig,
    /// Rule bodies compiled once per theory and reused across `run` /
    /// `run_naive` calls (a `fixpoint` statement re-running a stored program
    /// used to re-plan every rule).  Keyed by the concrete theory through
    /// `Any`; reset by every mutation of the rule set or the configuration.
    compiled: OnceLock<Arc<dyn Any + Send + Sync>>,
}

impl<A: Clone> Clone for Program<A> {
    fn clone(&self) -> Self {
        Program {
            rules: self.rules.clone(),
            max_iterations: self.max_iterations,
            plan_config: self.plan_config,
            // The cache is shared: clones have identical rules, so the
            // compiled plans stay valid for both (mutation resets per value).
            compiled: self.compiled.clone(),
        }
    }
}

impl<A: fmt::Debug> fmt::Debug for Program<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("rules", &self.rules)
            .field("max_iterations", &self.max_iterations)
            .field("plan_config", &self.plan_config)
            .field("plans_cached", &self.compiled.get().is_some())
            .finish()
    }
}

impl<A: frdb_core::theory::Atom> Default for Program<A> {
    fn default() -> Self {
        Program::new()
    }
}

impl<A: fmt::Display> fmt::Display for Program<A> {
    /// One `.`-terminated rule per line — the body of a surface-language
    /// `program name { … }` block.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}.")?;
        }
        Ok(())
    }
}

/// The result of running a program: the final values of all intensional predicates.
#[derive(Debug)]
pub struct FixpointResult<T: Theory> {
    /// The combined instance (EDB relations plus the fixpoint of every IDB predicate).
    pub instance: Instance<T>,
    /// The number of iterations needed to reach the fixpoint.
    pub iterations: usize,
}

/// A per-round account of one fixpoint run (see [`Program::run_traced`]):
/// how many new tuples each head predicate derived per round, and whether the
/// rule plans were served warm from the process-wide plan cache.  Rendering
/// is deterministic — counts only, no timings — so `trace p;` transcripts can
/// be pinned by golden tests.
#[derive(Clone, Debug)]
pub struct FixpointTrace {
    /// Whether the compiled rule plans were already cached for this theory
    /// before the run (a cold run pays one compile through the plan cache).
    pub plans_warm: bool,
    /// One entry per round: `(head, new tuples derived this round)` for every
    /// head predicate in name order.  The final round derives nothing — that
    /// is the convergence test.
    pub rounds: Vec<Vec<(RelName, usize)>>,
}

impl fmt::Display for FixpointTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "rule plans: {}",
            if self.plans_warm { "warm" } else { "cold" },
        )?;
        for (i, round) in self.rounds.iter().enumerate() {
            let grown: Vec<String> = round
                .iter()
                .filter(|(_, n)| *n > 0)
                .map(|(name, n)| format!("{name} +{n}"))
                .collect();
            if grown.is_empty() {
                writeln!(f, "round {}: (no new tuples)", i + 1)?;
            } else {
                writeln!(f, "round {}: {}", i + 1, grown.join(", "))?;
            }
        }
        Ok(())
    }
}

impl<A: frdb_core::theory::Atom> Program<A> {
    /// Creates an empty program with the default iteration cap.
    #[must_use]
    pub fn new() -> Self {
        Program {
            rules: Vec::new(),
            max_iterations: 10_000,
            plan_config: PlanConfig::default(),
            compiled: OnceLock::new(),
        }
    }

    /// Creates a program from rules.
    #[must_use]
    pub fn from_rules(rules: Vec<Rule<A>>) -> Self {
        Program {
            rules,
            ..Program::new()
        }
    }

    /// Adds a rule.  Mutating the rule set invalidates the compiled-plan
    /// cache: the next `run` re-plans every body.
    pub fn add_rule(&mut self, rule: Rule<A>) -> &mut Self {
        self.rules.push(rule);
        self.compiled = OnceLock::new();
        self
    }

    /// Sets the defensive iteration cap (the paper guarantees termination for dense
    /// order; the cap protects against ill-formed theories).
    pub fn with_max_iterations(mut self, cap: usize) -> Self {
        self.max_iterations = cap;
        self
    }

    /// Sets the evaluation configuration — the optimization level rule bodies
    /// compile under, and the worker-thread budget: with `threads > 1`,
    /// independent rule bodies of each fixpoint round evaluate across a
    /// `std::thread::scope` pool (and each body's joins may partition
    /// further).  Thread count never changes the fixpoint or the iteration
    /// count.  Changing the configuration invalidates the compiled-plan
    /// cache.
    #[must_use]
    pub fn with_plan_config(mut self, config: PlanConfig) -> Self {
        self.plan_config = config;
        self.compiled = OnceLock::new();
        self
    }

    /// The evaluation configuration rule bodies compile under.
    #[must_use]
    pub fn plan_config(&self) -> &PlanConfig {
        &self.plan_config
    }

    /// Whether the compiled-plan cache is warm for theory `T` — plans are
    /// compiled on the first `run`/`run_naive` and reused by later calls
    /// until a rule is added or the configuration changes.  Observable so
    /// tests can pin the reuse-and-invalidation contract.
    #[must_use]
    pub fn plans_cached<T: Theory<A = A>>(&self) -> bool {
        self.compiled
            .get()
            .is_some_and(|c| c.clone().downcast::<CompiledProgram<T>>().is_ok())
    }

    /// The compiled plans for theory `T`, building and caching them on first
    /// use.  A cache slot occupied by a *different* theory over the same atom
    /// type stays correct: the plans are rebuilt for this call, uncached.
    ///
    /// Individual rule-body plans are compiled through the process-wide
    /// [`PlanCache`], so two programs sharing a rule body (or one program
    /// recompiled after a mutation that left some rules unchanged) share the
    /// compiled plans with each other and with the FO query path.
    fn compiled_for<T: Theory<A = A>>(
        &self,
        idb: &BTreeMap<RelName, usize>,
    ) -> Arc<CompiledProgram<T>> {
        let build = || {
            let config = self.plan_config;
            let cache = PlanCache::global();
            let rules: Vec<CompiledRule<T>> = self
                .rules
                .iter()
                .map(|rule| {
                    let variants = rule
                        .positive_idb_literals(idb)
                        .into_iter()
                        .map(|target| {
                            let gate = match &rule.body[target] {
                                Literal::Rel { name, .. } => name.clone(),
                                Literal::Constraint(_) => {
                                    unreachable!("target literal is a positive IDB literal")
                                }
                            };
                            let body = rule.body_formula_mapped(&|idx, name| {
                                if idx == target {
                                    delta_name(name)
                                } else {
                                    name.clone()
                                }
                            });
                            (gate, cache.compile::<T>(&body, &rule.head_vars, &config))
                        })
                        .collect();
                    CompiledRule {
                        head: rule.head.clone(),
                        full_body: cache.compile::<T>(
                            &rule.body_formula(),
                            &rule.head_vars,
                            &config,
                        ),
                        variants,
                        mentions_idb: rule.mentions_idb(idb),
                        has_literal_body: rule.formula.is_none(),
                    }
                })
                .collect();
            Arc::new(CompiledProgram { rules })
        };
        let entry = self
            .compiled
            .get_or_init(|| build() as Arc<dyn Any + Send + Sync>);
        match entry.clone().downcast::<CompiledProgram<T>>() {
            Ok(cached) => cached,
            Err(_) => build(),
        }
    }

    /// The rules of the program.
    #[must_use]
    pub fn rules(&self) -> &[Rule<A>] {
        &self.rules
    }

    /// The intensional (IDB) predicates with their arities.
    ///
    /// # Errors
    /// Returns an error if two rules disagree on a head arity.
    pub fn idb_schema(&self) -> Result<BTreeMap<RelName, usize>, DatalogError> {
        let mut out = BTreeMap::new();
        for rule in &self.rules {
            let arity = rule.head_vars.len();
            match out.insert(rule.head.clone(), arity) {
                Some(prev) if prev != arity => {
                    return Err(DatalogError::InconsistentHeadArity(rule.head.to_string()))
                }
                _ => {}
            }
        }
        Ok(out)
    }

    fn validated_idb(&self, edb_schema: &Schema) -> Result<BTreeMap<RelName, usize>, DatalogError> {
        let idb = self.idb_schema()?;
        for name in idb.keys() {
            if edb_schema.contains(name) {
                return Err(DatalogError::HeadShadowsEdb(name.to_string()));
            }
        }
        Ok(idb)
    }

    /// Runs the program to its inflationary fixpoint over an input instance
    /// using **semi-naive (delta) evaluation**.
    ///
    /// # Examples
    /// ```
    /// use frdb_core::prelude::*;
    /// use frdb_datalog::transitive_closure_program;
    ///
    /// // The transitive closure of a two-edge path 0 → 1 → 2.
    /// let mut edb: Instance<DenseOrder> = Instance::new(Schema::from_pairs([("edge", 2)]));
    /// edb.set(
    ///     "edge",
    ///     Relation::from_points(
    ///         vec![Var::new("x"), Var::new("y")],
    ///         vec![
    ///             vec![Rat::from_i64(0), Rat::from_i64(1)],
    ///             vec![Rat::from_i64(1), Rat::from_i64(2)],
    ///         ],
    ///     ),
    /// )
    /// .unwrap();
    /// let program = transitive_closure_program("edge", "tc");
    /// let result = program.run(&edb).unwrap();
    /// let tc = result.instance.get(&RelName::new("tc")).unwrap();
    /// assert!(tc.contains(&[Rat::from_i64(0), Rat::from_i64(2)]));
    /// ```
    ///
    /// Each round evaluates, for every rule with positive intensional body
    /// literals, one *delta variant* per such literal — the occurrence pointed
    /// at the tuples derived in the previous round (exposed in the evaluation
    /// instance under reserved `#`-prefixed names), all other literals at
    /// their full current values.  Because negated literals and constraints
    /// can only *lose* satisfying tuples as the intensional relations grow,
    /// every fact newly derivable in a round uses at least one delta tuple in
    /// a positive position, so the variants find exactly the naive round's new
    /// facts: the fixpoint **and the iteration count** coincide with
    /// [`Program::run_naive`].  Rules whose body is an arbitrary formula over
    /// an intensional predicate are re-evaluated naively each round (a formula
    /// may be non-monotone in the predicate, e.g. under a universal
    /// quantifier, so delta rewriting would be unsound for them); rules that
    /// never mention an intensional predicate run only in the first round.
    ///
    /// # Errors
    /// Returns an error if a rule fails to evaluate, head arities are inconsistent, an
    /// IDB predicate shadows an EDB relation, or the iteration cap is exceeded.
    pub fn run<T: Theory<A = A>>(
        &self,
        edb: &Instance<T>,
    ) -> Result<FixpointResult<T>, DatalogError> {
        self.run_with(edb, None, None)
    }

    /// Delta-aware fixpoint **re-entry**: runs the program with the
    /// intensional predicates seeded at `seed` instead of empty — the
    /// incremental-maintenance entry point after an update to the extensional
    /// database.  The seed doubles as the first round's semi-naive delta, so
    /// rules re-fire against the seeded tuples and the changed EDB without
    /// re-deriving the seed itself; the result is the inflationary fixpoint
    /// **containing the seed**.  For a monotone program whose seed is the
    /// previous fixpoint and whose EDB only grew, that is semantically
    /// equivalent to a from-scratch run — though the DNF representation may
    /// differ in shape, which is why the database layer's exact-equality
    /// commit path re-runs from scratch and leaves re-entry to embedders that
    /// only need semantic equivalence.
    ///
    /// # Errors
    /// As for [`Program::run`]; additionally [`DatalogError::SeedMismatch`]
    /// when a seed entry is not an intensional head (or disagrees on arity).
    pub fn run_seeded<T: Theory<A = A>>(
        &self,
        edb: &Instance<T>,
        seed: &BTreeMap<RelName, Relation<T>>,
    ) -> Result<FixpointResult<T>, DatalogError> {
        self.run_with(edb, None, Some(seed))
    }

    /// [`Program::run`] with a per-round trace: the fixpoint result plus a
    /// [`FixpointTrace`] recording, for every round, how many new tuples each
    /// head predicate derived, and whether the rule plans were already warm
    /// in the process-wide plan cache.  The trace renders
    /// deterministically (no timings), so `trace p;` transcripts are
    /// golden-testable.
    ///
    /// # Errors
    /// As for [`Program::run`].
    pub fn run_traced<T: Theory<A = A>>(
        &self,
        edb: &Instance<T>,
    ) -> Result<(FixpointResult<T>, FixpointTrace), DatalogError> {
        let mut trace = FixpointTrace {
            plans_warm: self.plans_cached::<T>(),
            rounds: Vec::new(),
        };
        let result = self.run_with(edb, Some(&mut trace), None)?;
        Ok((result, trace))
    }

    /// Overlays a fixpoint seed onto the freshly seeded evaluation state:
    /// validates every entry against the IDB schema, renames it onto the
    /// engine's canonical columns, and installs it as both the predicate's
    /// starting value and its first-round delta.
    fn apply_seed<T: Theory<A = A>>(
        seed: &BTreeMap<RelName, Relation<T>>,
        idb: &BTreeMap<RelName, usize>,
        current: &mut Instance<T>,
        idb_state: &mut BTreeMap<RelName, Relation<T>>,
    ) -> Result<(), DatalogError> {
        for (name, rel) in seed {
            let Some(&arity) = idb.get(name) else {
                return Err(DatalogError::SeedMismatch(name.to_string()));
            };
            if rel.arity() != arity {
                return Err(DatalogError::SeedMismatch(name.to_string()));
            }
            let seeded = rel.rename(idb_columns(arity));
            idb_state.insert(name.clone(), seeded.clone());
            current
                .set(name.clone(), seeded.clone())
                .expect("engine-declared relation");
            current
                .set(delta_name(name), seeded)
                .expect("engine-declared relation");
        }
        Ok(())
    }

    fn run_with<T: Theory<A = A>>(
        &self,
        edb: &Instance<T>,
        mut trace: Option<&mut FixpointTrace>,
        seed: Option<&BTreeMap<RelName, Relation<T>>>,
    ) -> Result<FixpointResult<T>, DatalogError> {
        let idb = self.validated_idb(edb.schema())?;
        // Compiled once per program and theory, reused across `run` calls
        // (the plans re-evaluate against the changing instance every round;
        // nothing is re-planned per call, let alone per iteration).
        let compiled = self.compiled_for::<T>(&idb);
        // Evaluation schema and state: EDB relations, IDB predicates, and
        // their deltas (initially empty, like the IDB itself — unless seeded
        // for a re-entrant run, in which case the seed is the first delta).
        let (mut current, mut idb_state) = seed_state(edb, &idb, true);
        if let Some(seed) = seed {
            Self::apply_seed(seed, &idb, &mut current, &mut idb_state)?;
        }

        // Re-optimize the cached plans once per run against statistics of the
        // seeded instance (cheap plan rewriting — the source formulas are not
        // touched).  IDB relations start empty, so their operands sort first,
        // which is exactly where the semi-naive deltas want them.
        let statistics = Statistics::collect(&current);
        // Budget split: when the round itself fans rules out across workers,
        // each body evaluates serially inside its worker — otherwise N rule
        // workers each spawning N join workers would oversubscribe to N².
        let threads = self.plan_config.threads.max(1);
        let body_threads = if threads > 1 && compiled.rules.len() >= 2 {
            1
        } else {
            threads
        };
        let rules: Vec<CompiledRule<T>> = compiled
            .rules
            .iter()
            .map(|rule| CompiledRule {
                head: rule.head.clone(),
                full_body: rule
                    .full_body
                    .optimized_for(&statistics)
                    .with_threads(body_threads),
                variants: rule
                    .variants
                    .iter()
                    .map(|(gate, body)| {
                        (
                            gate.clone(),
                            body.optimized_for(&statistics).with_threads(body_threads),
                        )
                    })
                    .collect(),
                mentions_idb: rule.mentions_idb,
                has_literal_body: rule.has_literal_body,
            })
            .collect();
        for iteration in 0..self.max_iterations {
            let mut changed = false;
            let mut next_delta: BTreeMap<RelName, Vec<GenTuple<A>>> =
                idb.keys().map(|n| (n.clone(), Vec::new())).collect();
            // Every rule body of a round reads the same `current` instance,
            // so the evaluations are independent: with a thread budget they
            // run on a scoped worker pool, merged below in rule order (the
            // fixpoint and iteration count are identical at any count).
            let derived_per_rule: Vec<Option<Relation<T>>> =
                eval_round(&rules, &current, iteration, threads)?;
            for (rule, derived) in rules.iter().zip(derived_per_rule) {
                let Some(derived) = derived else { continue };
                let existing = idb_state
                    .get_mut(&rule.head)
                    .expect("idb_schema lists every head predicate");
                let derived = derived.rename(existing.vars().to_vec());
                // Inflationary semantics: keep only the genuinely new tuples.
                let fresh: Vec<GenTuple<A>> = derived
                    .tuples()
                    .iter()
                    .filter(|t| !existing.covers_tuple(t))
                    .cloned()
                    .collect();
                if fresh.is_empty() {
                    continue;
                }
                changed = true;
                // `existing` is simplified, so merging the fresh tuples costs
                // `O(|existing|·|fresh|)` entailments, not a full re-simplify.
                let fresh_rel = Relation::new(existing.vars().to_vec(), fresh.clone());
                *existing = existing.union_delta(&fresh_rel);
                next_delta
                    .get_mut(&rule.head)
                    .expect("initialized for every head")
                    .extend(fresh);
            }
            if let Some(t) = trace.as_deref_mut() {
                t.rounds.push(
                    idb.keys()
                        .map(|name| (name.clone(), next_delta.get(name).map_or(0, Vec::len)))
                        .collect(),
                );
            }
            for (name, rel) in &idb_state {
                current
                    .set(name.clone(), rel.clone())
                    .expect("engine-declared relation");
            }
            for (name, arity) in &idb {
                let tuples = next_delta.remove(name).unwrap_or_default();
                let delta_rel = Relation::new(idb_columns(*arity), tuples);
                current
                    .set(delta_name(name), delta_rel)
                    .expect("engine-declared relation");
            }
            if !changed {
                // Return a clean instance without the reserved delta relations.
                let mut out_schema = Schema::new();
                for (name, arity) in edb.schema().iter() {
                    out_schema.add(name.clone(), arity);
                }
                for (name, arity) in &idb {
                    out_schema.add(name.clone(), *arity);
                }
                let mut out = Instance::new(out_schema);
                for (name, rel) in edb.iter() {
                    out.set(name.clone(), rel.clone())
                        .expect("engine-declared relation");
                }
                for (name, rel) in &idb_state {
                    out.set(name.clone(), rel.clone())
                        .expect("engine-declared relation");
                }
                return Ok(FixpointResult {
                    instance: out,
                    iterations: iteration + 1,
                });
            }
        }
        Err(DatalogError::IterationLimit(self.max_iterations))
    }

    /// Runs the program to its inflationary fixpoint by **naive re-evaluation**
    /// — every rule body against the full current instance, every round.
    ///
    /// Retained as the test reference: [`Program::run`] must produce the
    /// same fixpoint in the same number of iterations, and the benchmark
    /// harness measures the speedup of the delta engine against this path.
    ///
    /// # Errors
    /// As for [`Program::run`].
    pub fn run_naive<T: Theory<A = A>>(
        &self,
        edb: &Instance<T>,
    ) -> Result<FixpointResult<T>, DatalogError> {
        let idb = self.validated_idb(edb.schema())?;
        // Combined schema and state: EDB relations plus IDB predicates.
        let (mut current, mut idb_state) = seed_state(edb, &idb, false);

        // The full-body plans of the semi-naive engine, planned once per
        // program and theory and cached across calls (the "naive" in naive
        // evaluation is the full re-evaluation every round, not
        // re-compilation).
        let compiled = self.compiled_for::<T>(&idb);
        for iteration in 0..self.max_iterations {
            let mut changed = false;
            let mut next_state = idb_state.clone();
            for rule in &compiled.rules {
                let delta = rule.full_body.eval(&current)?;
                let existing = next_state
                    .get(&rule.head)
                    .expect("idb_schema lists every head predicate")
                    .clone();
                let delta = delta.rename(existing.vars().to_vec());
                // Inflationary semantics: the head only grows, so the fixpoint test
                // reduces to `delta ⊆ old`.
                if delta.subset_of(&existing) {
                    continue;
                }
                changed = true;
                next_state.insert(rule.head.clone(), existing.union(&delta));
            }
            idb_state = next_state;
            for (name, rel) in &idb_state {
                current
                    .set(name.clone(), rel.clone())
                    .expect("engine-declared relation");
            }
            if !changed {
                return Ok(FixpointResult {
                    instance: current,
                    iterations: iteration + 1,
                });
            }
        }
        Err(DatalogError::IterationLimit(self.max_iterations))
    }

    /// Runs the program and returns the fixpoint value of one predicate.
    ///
    /// # Errors
    /// As for [`Program::run`]; additionally if the predicate is unknown.
    pub fn run_for<T: Theory<A = A>>(
        &self,
        edb: &Instance<T>,
        answer: &RelName,
    ) -> Result<Relation<T>, DatalogError> {
        let result = self.run(edb)?;
        result
            .instance
            .get(answer)
            .ok_or_else(|| DatalogError::Eval(EvalError::UnknownRelation(answer.to_string())))
    }
}

/// Builds the classical transitive-closure program over a binary EDB relation `edge`:
///
/// ```text
/// tc(x, y) ← edge(x, y)
/// tc(x, y) ← tc(x, z), edge(z, y)
/// ```
#[must_use]
pub fn transitive_closure_program(
    edge: impl Into<RelName>,
    tc: impl Into<RelName>,
) -> Program<frdb_core::dense::DenseAtom> {
    let edge = edge.into();
    let tc = tc.into();
    let x = || Term::var("x");
    let y = || Term::var("y");
    let z = || Term::var("z");
    Program::from_rules(vec![
        Rule::new(
            tc.clone(),
            ["x", "y"],
            vec![Literal::pos(edge.clone(), [x(), y()])],
        ),
        Rule::new(
            tc.clone(),
            ["x", "y"],
            vec![Literal::pos(tc, [x(), z()]), Literal::pos(edge, [z(), y()])],
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use frdb_core::dense::{DenseAtom, DenseOrder};
    use frdb_core::fo::{eval_query, eval_sentence};
    use frdb_num::Rat;

    fn r(v: i64) -> Rat {
        Rat::from_i64(v)
    }

    fn path_graph(n: i64) -> Instance<DenseOrder> {
        // edge = {(i, i+1) | 0 ≤ i < n}
        let schema = Schema::from_pairs([("edge", 2)]);
        let mut inst = Instance::new(schema);
        let points: Vec<Vec<Rat>> = (0..n).map(|i| vec![r(i), r(i + 1)]).collect();
        inst.set(
            "edge",
            Relation::from_points(vec![Var::new("x"), Var::new("y")], points),
        )
        .unwrap();
        inst
    }

    #[test]
    fn transitive_closure_of_a_path() {
        let inst = path_graph(5);
        let program = transitive_closure_program("edge", "tc");
        let tc = program.run_for(&inst, &RelName::new("tc")).unwrap();
        for i in 0..=5i64 {
            for j in 0..=5i64 {
                assert_eq!(tc.contains(&[r(i), r(j)]), i < j, "tc({i},{j})");
            }
        }
    }

    #[test]
    fn fixpoint_iteration_count_is_reported() {
        let inst = path_graph(6);
        let program = transitive_closure_program("edge", "tc");
        let result = program.run(&inst).unwrap();
        // A path of length 6 needs several rounds plus one quiescent round.
        assert!(result.iterations >= 3);
    }

    /// Asserts that `head` satisfies its rule equation under the point
    /// oracle at every order-type representative of its arity: closure (a
    /// true rule body puts the point in `head`) and support (a point of
    /// `head` makes some rule body true).
    fn assert_rule_equation_holds(
        program: &Program<DenseAtom>,
        inst: &Instance<DenseOrder>,
        head: &str,
    ) {
        use frdb_core::fo::oracle::check_answer;
        let head = RelName::new(head);
        let rules: Vec<&Rule<DenseAtom>> =
            program.rules().iter().filter(|r| r.head == head).collect();
        let free = rules[0].head_vars.clone();
        assert!(rules.iter().all(|r| r.head_vars == free));
        let bodies = Formula::Or(rules.iter().map(|r| r.body_formula()).collect());
        let stored = [inst.get(&head).unwrap()];
        let check = check_answer(&bodies, &free, inst, &stored).unwrap();
        assert!(check.exhaustive && check.decided > 0);
        if let Some((_, point)) = check.counterexample {
            let law = if stored[0].contains(&point) {
                "support"
            } else {
                "closure"
            };
            panic!("{head} violates {law} at {point:?}");
        }
    }

    #[test]
    fn fixpoint_outputs_satisfy_their_rule_equation_pointwise() {
        let program = transitive_closure_program("edge", "tc");
        let result = program.run(&path_graph(5)).unwrap();
        assert_rule_equation_holds(&program, &result.instance, "tc");
        // A staircase of 4 interval edges: x ∈ [i, i+2], y ∈ [i+1, i+3].
        let tuples = (0..4i64)
            .map(|i| {
                GenTuple::new(vec![
                    DenseAtom::le(Term::cst(i), Term::var("x")),
                    DenseAtom::le(Term::var("x"), Term::cst(i + 2)),
                    DenseAtom::le(Term::cst(i + 1), Term::var("y")),
                    DenseAtom::le(Term::var("y"), Term::cst(i + 3)),
                ])
            })
            .collect();
        let mut inst: Instance<DenseOrder> = Instance::new(Schema::from_pairs([("edge", 2)]));
        inst.set(
            "edge",
            Relation::new(vec![Var::new("x"), Var::new("y")], tuples),
        )
        .unwrap();
        let result = program.run(&inst).unwrap();
        assert_rule_equation_holds(&program, &result.instance, "tc");
    }

    #[test]
    fn semi_naive_pins_iteration_count_on_path_closure() {
        // The linear tc rule extends paths by one edge per round: a path with n
        // edges needs n productive rounds plus the quiescent one, and the
        // semi-naive engine must take exactly as many rounds as the naive one.
        for n in [1i64, 2, 4, 5] {
            let inst = path_graph(n);
            let program = transitive_closure_program("edge", "tc");
            let semi = program.run(&inst).unwrap();
            let naive = program.run_naive(&inst).unwrap();
            assert_eq!(semi.iterations, naive.iterations, "path({n})");
            assert_eq!(semi.iterations as i64, n + 1, "path({n})");
        }
    }

    #[test]
    fn seeded_reentry_matches_from_scratch_semantically() {
        // Close a 5-path, then extend the graph by one edge and re-enter the
        // fixpoint from the previous closure: the result must be semantically
        // the closure of the grown graph, in fewer rounds than from scratch.
        let before = path_graph(5);
        let program = transitive_closure_program("edge", "tc");
        let tc_name = RelName::new("tc");
        let old = program.run(&before).unwrap();
        let seed: BTreeMap<RelName, Relation<DenseOrder>> =
            [(tc_name.clone(), old.instance.get(&tc_name).unwrap())]
                .into_iter()
                .collect();

        let after = path_graph(6);
        let scratch = program.run(&after).unwrap();
        let seeded = program.run_seeded(&after, &seed).unwrap();
        assert!(seeded
            .instance
            .get(&tc_name)
            .unwrap()
            .equivalent(&scratch.instance.get(&tc_name).unwrap()));
        assert!(
            seeded.iterations < scratch.iterations,
            "re-entry took {} rounds, from scratch {}",
            seeded.iterations,
            scratch.iterations
        );
    }

    #[test]
    fn empty_seed_matches_unseeded_run_exactly() {
        let inst = path_graph(4);
        let program = transitive_closure_program("edge", "tc");
        let plain = program.run(&inst).unwrap();
        let seeded = program.run_seeded(&inst, &BTreeMap::new()).unwrap();
        assert_eq!(plain.iterations, seeded.iterations);
        let tc = RelName::new("tc");
        assert_eq!(
            plain.instance.get(&tc).unwrap().to_dnf(),
            seeded.instance.get(&tc).unwrap().to_dnf(),
            "an empty seed must not perturb the run"
        );
    }

    #[test]
    fn seed_mismatch_is_a_typed_error() {
        let inst = path_graph(3);
        let program = transitive_closure_program("edge", "tc");
        let bogus_name: BTreeMap<RelName, Relation<DenseOrder>> = [(
            RelName::new("nosuch"),
            Relation::empty(vec![Var::new("c0"), Var::new("c1")]),
        )]
        .into_iter()
        .collect();
        assert_eq!(
            program.run_seeded(&inst, &bogus_name).unwrap_err(),
            DatalogError::SeedMismatch("nosuch".to_string())
        );
        let bogus_arity: BTreeMap<RelName, Relation<DenseOrder>> =
            [(RelName::new("tc"), Relation::empty(vec![Var::new("c0")]))]
                .into_iter()
                .collect();
        assert_eq!(
            program.run_seeded(&inst, &bogus_arity).unwrap_err(),
            DatalogError::SeedMismatch("tc".to_string())
        );
    }

    #[test]
    fn semi_naive_matches_naive_fixpoint_with_negation_and_constraints() {
        // A program mixing positive recursion, negation over an IDB predicate
        // and a constraint literal: the two engines must agree on every
        // intensional relation and on the round count.
        let mut inst = path_graph(4);
        let mut schema = Schema::from_pairs([("edge", 2), ("node", 1)]);
        schema.add("node", 1);
        let mut inst2 = Instance::new(schema);
        inst2
            .set("edge", inst.get(&RelName::new("edge")).unwrap())
            .unwrap();
        let nodes: Vec<Vec<Rat>> = (0..=4).chain(20..=21).map(|i| vec![r(i)]).collect();
        inst2
            .set("node", Relation::from_points(vec![Var::new("x")], nodes))
            .unwrap();
        inst = inst2;

        let mut program = transitive_closure_program("edge", "tc");
        program.add_rule(Rule::new(
            "reach0",
            ["x"],
            vec![Literal::pos("tc", [Term::cst(0), Term::var("x")])],
        ));
        program.add_rule(Rule::new(
            "far",
            ["x"],
            vec![
                Literal::pos("node", [Term::var("x")]),
                Literal::neg("reach0", [Term::var("x")]),
                Literal::constraint(DenseAtom::lt(Term::cst(1), Term::var("x"))),
            ],
        ));
        let semi = program.run(&inst).unwrap();
        let naive = program.run_naive(&inst).unwrap();
        assert_eq!(semi.iterations, naive.iterations);
        for name in ["tc", "reach0", "far"] {
            let a = semi.instance.get(&RelName::new(name)).unwrap();
            let b = naive.instance.get(&RelName::new(name)).unwrap();
            let b = b.rename(a.vars().to_vec());
            assert!(a.equivalent(&b), "fixpoints differ on {name}");
        }
    }

    #[test]
    fn semi_naive_handles_formula_bodied_rules() {
        // A formula-bodied rule over an IDB predicate is re-evaluated naively
        // inside the semi-naive engine; results must still agree.
        let inst = path_graph(3);
        let mut program = transitive_closure_program("edge", "tc");
        program.add_rule(Rule::from_formula(
            "has_succ",
            ["x"],
            Formula::exists(
                ["y"],
                Formula::<DenseAtom>::rel("tc", [Term::var("x"), Term::var("y")]),
            ),
        ));
        let semi = program.run(&inst).unwrap();
        let naive = program.run_naive(&inst).unwrap();
        assert_eq!(semi.iterations, naive.iterations);
        let a = semi.instance.get(&RelName::new("has_succ")).unwrap();
        let b = naive.instance.get(&RelName::new("has_succ")).unwrap();
        assert!(a.equivalent(&b.rename(a.vars().to_vec())));
        assert!(a.contains(&[r(0)]));
        assert!(!a.contains(&[r(3)]));
    }

    #[test]
    fn negation_in_bodies() {
        // unreachable-from-0 nodes of the vertex set: node(x) ∧ ¬tc0(x)
        // where tc0(x) ← tc(0, x) and tc is the closure of edge.
        let mut inst = path_graph(3);
        // add isolated vertices 10, 11 to the vertex relation
        let mut schema = Schema::from_pairs([("edge", 2), ("node", 1)]);
        schema.add("node", 1);
        let mut inst2 = Instance::new(schema);
        inst2
            .set("edge", inst.get(&RelName::new("edge")).unwrap())
            .unwrap();
        let nodes: Vec<Vec<Rat>> = (0..=3).chain(10..=11).map(|i| vec![r(i)]).collect();
        inst2
            .set("node", Relation::from_points(vec![Var::new("x")], nodes))
            .unwrap();
        inst = inst2;

        let mut program = transitive_closure_program("edge", "tc");
        program.add_rule(Rule::new(
            "reach0",
            ["x"],
            vec![Literal::pos("tc", [Term::cst(0), Term::var("x")])],
        ));
        program.add_rule(Rule::new(
            "isolated",
            ["x"],
            vec![
                Literal::pos("node", [Term::var("x")]),
                Literal::neg("reach0", [Term::var("x")]),
            ],
        ));
        // Note: with inflationary semantics the `isolated` rule may fire early while
        // `reach0` is still growing; re-running the body on the *final* instance is the
        // timestamp-free way to read off the intended answer (the paper's Example 6.3
        // makes the same point with its delayed connectivity check).
        let result = program.run(&inst).unwrap();
        let final_isolated = eval_query(
            &Formula::<DenseAtom>::rel("node", [Term::var("x")])
                .and(Formula::rel("reach0", [Term::var("x")]).not()),
            &[Var::new("x")],
            &result.instance,
        )
        .unwrap();
        assert!(final_isolated.contains(&[r(10)]));
        assert!(final_isolated.contains(&[r(11)]));
        assert!(!final_isolated.contains(&[r(2)]));
    }

    #[test]
    fn constraint_literals_restrict_derivations() {
        // bounded(x, y) ← edge(x, y), x < 3
        let inst = path_graph(5);
        let program = Program::from_rules(vec![Rule::new(
            "bounded",
            ["x", "y"],
            vec![
                Literal::pos("edge", [Term::var("x"), Term::var("y")]),
                Literal::constraint(DenseAtom::lt(Term::var("x"), Term::cst(3))),
            ],
        )]);
        let ans = program.run_for(&inst, &RelName::new("bounded")).unwrap();
        assert!(ans.contains(&[r(0), r(1)]));
        assert!(ans.contains(&[r(2), r(3)]));
        assert!(!ans.contains(&[r(3), r(4)]));
    }

    #[test]
    fn rules_can_derive_infinite_relations() {
        // between(x) ← edge(u, v), u < x, x < v: the open intervals spanned by edges.
        let inst = path_graph(2);
        let program = Program::from_rules(vec![Rule::new(
            "between",
            ["x"],
            vec![
                Literal::pos("edge", [Term::var("u"), Term::var("v")]),
                Literal::constraint(DenseAtom::lt(Term::var("u"), Term::var("x"))),
                Literal::constraint(DenseAtom::lt(Term::var("x"), Term::var("v"))),
            ],
        )]);
        let ans = program.run_for(&inst, &RelName::new("between")).unwrap();
        assert!(ans.contains(&["1/2".parse().unwrap()]));
        assert!(ans.contains(&["3/2".parse().unwrap()]));
        assert!(!ans.contains(&[r(2)]));
    }

    #[test]
    fn delta_prefixed_user_names_are_ordinary_relations() {
        // The engine's delta relations live in the reserved `#` namespace, so
        // a user relation named `Δ…` never collides with one: the semi-naive
        // engine treats it like any other name, exactly as the naive engine
        // does.  A rule body referencing an undeclared `Δtc` is an
        // unknown-relation error, never a read of the engine's delta of `tc`.
        let inst = path_graph(2);
        let mut program = transitive_closure_program("edge", "tc");
        program.add_rule(Rule::new(
            "p",
            ["x", "y"],
            vec![Literal::pos("Δtc", [Term::var("x"), Term::var("y")])],
        ));
        let semi = program.run(&inst);
        let naive = program.run_naive(&inst);
        assert!(matches!(semi, Err(DatalogError::Eval(_))));
        assert_eq!(semi.unwrap_err(), naive.unwrap_err());

        // A Δ-prefixed EDB relation computes the same fixpoint on both
        // engines.
        let mut inst2: Instance<DenseOrder> = Instance::new(Schema::from_pairs([("Δedge", 2)]));
        inst2
            .set(
                "Δedge",
                Relation::from_points(
                    vec![Var::new("x"), Var::new("y")],
                    vec![vec![r(1), r(2)], vec![r(2), r(3)]],
                ),
            )
            .unwrap();
        let p2 = transitive_closure_program("Δedge", "tc");
        let semi = p2.run(&inst2).unwrap();
        let naive = p2.run_naive(&inst2).unwrap();
        assert_eq!(semi.iterations, naive.iterations);
        let tc = RelName::new("tc");
        let (a, b) = (
            semi.instance.get(&tc).unwrap(),
            naive.instance.get(&tc).unwrap(),
        );
        assert!(a.equivalent(&b));
        assert!(a.contains(&[r(1), r(3)]));
    }

    #[test]
    fn errors_are_surfaced() {
        let inst = path_graph(2);
        // Head shadowing an EDB relation.
        let bad = Program::<DenseAtom>::from_rules(vec![Rule::new(
            "edge",
            ["x", "y"],
            vec![Literal::pos("edge", [Term::var("x"), Term::var("y")])],
        )]);
        assert!(matches!(
            bad.run(&inst),
            Err(DatalogError::HeadShadowsEdb(_))
        ));
        // Inconsistent arities.
        let bad2 = Program::<DenseAtom>::from_rules(vec![
            Rule::new(
                "p",
                ["x"],
                vec![Literal::pos("edge", [Term::var("x"), Term::var("y")])],
            ),
            Rule::new(
                "p",
                ["x", "y"],
                vec![Literal::pos("edge", [Term::var("x"), Term::var("y")])],
            ),
        ]);
        assert!(matches!(
            bad2.run(&inst),
            Err(DatalogError::InconsistentHeadArity(_))
        ));
        // Unknown EDB relation inside a body.
        let bad3 = Program::<DenseAtom>::from_rules(vec![Rule::new(
            "p",
            ["x"],
            vec![Literal::pos("ghost", [Term::var("x")])],
        )]);
        assert!(matches!(bad3.run(&inst), Err(DatalogError::Eval(_))));
    }

    #[test]
    fn compiled_plans_are_cached_across_runs_and_invalidated_on_mutation() {
        // Regression: a stored program re-run by a `fixpoint` statement used
        // to re-plan every rule body on each call.  Plans must now compile on
        // the first run, be reused by later runs, and be dropped the moment
        // the rule set changes (a stale cache would silently evaluate the old
        // program).
        let inst = path_graph(3);
        let mut program = transitive_closure_program("edge", "tc");
        assert!(!program.plans_cached::<DenseOrder>());
        let first = program.run(&inst).unwrap();
        assert!(program.plans_cached::<DenseOrder>());
        let second = program.run(&inst).unwrap();
        assert_eq!(first.iterations, second.iterations);
        // A clone shares the warm cache (same rules, same plans).
        let cloned = program.clone();
        assert!(cloned.plans_cached::<DenseOrder>());
        // Mutation invalidates: the added rule must be part of the next run.
        program.add_rule(Rule::new(
            "reach0",
            ["x"],
            vec![Literal::pos("tc", [Term::cst(0), Term::var("x")])],
        ));
        assert!(!program.plans_cached::<DenseOrder>());
        let third = program.run(&inst).unwrap();
        assert!(third
            .instance
            .get(&RelName::new("reach0"))
            .unwrap()
            .contains(&[r(3)]));
        // run_naive shares the same cache.
        let naive = program.run_naive(&inst).unwrap();
        assert_eq!(third.iterations, naive.iterations);
    }

    #[test]
    fn parallel_rule_evaluation_matches_serial_fixpoints() {
        // The worker-pool round evaluation must reproduce the serial engine's
        // fixpoint and iteration count exactly, at any thread count.
        use frdb_core::fo::PlanConfig;
        let mut inst = path_graph(4);
        let mut schema = Schema::from_pairs([("edge", 2), ("node", 1)]);
        schema.add("node", 1);
        let mut inst2 = Instance::new(schema);
        inst2
            .set("edge", inst.get(&RelName::new("edge")).unwrap())
            .unwrap();
        let nodes: Vec<Vec<Rat>> = (0..=4).chain(20..=21).map(|i| vec![r(i)]).collect();
        inst2
            .set("node", Relation::from_points(vec![Var::new("x")], nodes))
            .unwrap();
        inst = inst2;
        let base = {
            let mut p = transitive_closure_program("edge", "tc");
            p.add_rule(Rule::new(
                "reach0",
                ["x"],
                vec![Literal::pos("tc", [Term::cst(0), Term::var("x")])],
            ));
            p.add_rule(Rule::new(
                "far",
                ["x"],
                vec![
                    Literal::pos("node", [Term::var("x")]),
                    Literal::neg("reach0", [Term::var("x")]),
                    Literal::constraint(DenseAtom::lt(Term::cst(1), Term::var("x"))),
                ],
            ));
            p
        };
        let serial = base.run(&inst).unwrap();
        for threads in [2usize, 4] {
            let parallel = base.clone().with_plan_config(PlanConfig {
                threads,
                ..PlanConfig::default()
            });
            let result = parallel.run(&inst).unwrap();
            assert_eq!(serial.iterations, result.iterations, "threads={threads}");
            for name in ["tc", "reach0", "far"] {
                let a = serial.instance.get(&RelName::new(name)).unwrap();
                let b = result.instance.get(&RelName::new(name)).unwrap();
                assert!(
                    a.equivalent(&b.rename(a.vars().to_vec())),
                    "threads={threads}: fixpoints differ on {name}"
                );
            }
        }
    }

    #[test]
    fn interval_edb_fixpoint_is_thread_invariant() {
        // Interval-valued edges drive the rule bodies through the index-sweep
        // join path (no column is pinned, every column carries an envelope);
        // the fixpoint must agree with the serial engine at 2 and 4 threads.
        use frdb_core::fo::PlanConfig;
        use frdb_core::relation::GenTuple;
        let tuples = (0..12i64)
            .map(|i| {
                GenTuple::new(vec![
                    DenseAtom::le(Term::cst(i), Term::var("x")),
                    DenseAtom::le(Term::var("x"), Term::cst(i + 2)),
                    DenseAtom::le(Term::cst(i + 1), Term::var("y")),
                    DenseAtom::le(Term::var("y"), Term::cst(i + 3)),
                ])
            })
            .collect();
        let edge = Relation::new(vec![Var::new("x"), Var::new("y")], tuples);
        let mut inst: Instance<DenseOrder> = Instance::new(Schema::from_pairs([("edge", 2)]));
        inst.set("edge", edge).unwrap();
        let program = transitive_closure_program("edge", "tc");
        let serial = program.run(&inst).unwrap();
        for threads in [2usize, 4] {
            let parallel = program.clone().with_plan_config(PlanConfig {
                threads,
                ..PlanConfig::default()
            });
            let result = parallel.run(&inst).unwrap();
            assert_eq!(serial.iterations, result.iterations, "threads={threads}");
            let a = serial.instance.get(&RelName::new("tc")).unwrap();
            let b = result.instance.get(&RelName::new("tc")).unwrap();
            assert!(
                a.equivalent(&b.rename(a.vars().to_vec())),
                "threads={threads}: interval fixpoints differ on tc"
            );
        }
    }

    #[test]
    fn boolean_answers_via_sentences_on_the_fixpoint() {
        // The path graph is connected from 0 to 5: tc(0, 5) holds.
        let inst = path_graph(5);
        let program = transitive_closure_program("edge", "tc");
        let result = program.run(&inst).unwrap();
        let reachable: Formula<DenseAtom> = Formula::rel("tc", [Term::cst(0), Term::cst(5)]);
        assert!(eval_sentence(&reachable, &result.instance).unwrap());
        let not_reachable: Formula<DenseAtom> = Formula::rel("tc", [Term::cst(5), Term::cst(0)]);
        assert!(!eval_sentence(&not_reachable, &result.instance).unwrap());
    }
}
