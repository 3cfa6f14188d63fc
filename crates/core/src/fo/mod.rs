//! The first-order constraint query evaluator.
//!
//! Section 4.1 of the paper: a formula `φ` in `L ∪ σ` with free variables `x₁,…,xₙ`
//! defines the query `{(x₁,…,xₙ) | φ}`.  Evaluation is *bottom-up and closed-form*:
//! the result is again a finitely representable relation, so queries compose, and
//! data complexity is polynomial for a fixed query (Theorem 5.2 states the sharper
//! AC⁰ bound).
//!
//! The evaluator is the **relational-algebra evaluator** ([`eval_query`],
//! [`CompiledQuery`]).  The formula is compiled once into a small plan IR
//! (scan / rename / select / natural-join / union / complement /
//! project-via-eliminate), **hash-consed** so structurally equal sub-formulas
//! become the *same* plan node, and evaluated compositionally over
//! [`Relation`] values with a per-query memo table — a repeated sub-plan is
//! evaluated once per instance.  Intermediate unions stay **factorized** (a
//! lazy union of at most 16 parts) until the plan boundary.  Joins prune
//! candidate tuple pairs through the cached canonical contexts
//! ([`crate::theory::Theory::ctx_compatible`]) before any merged context is
//! saturated.
//!
//! Its answers are checked against [`oracle`], a point-semantics evaluator
//! that shares nothing with the symbolic kernel: it decides a formula at a
//! point by plain Tarskian evaluation over a finite grid of candidate values.
//!
//! Compiled plans pass through the **cost-guided optimizer** ([`optimize`]):
//! joins are flattened and greedily re-ordered on estimated intermediate
//! cardinality (driven by [`stats::Statistics`] snapshots of the instance),
//! selections are placed at their earliest applicable fold position, and
//! complements push through leaf unions — all while preserving hash-consing,
//! so memoization still fires across shared sub-plans.  [`compile_query`]
//! optimizes with uniform defaults; [`CompiledQuery::optimized_for`]
//! re-optimizes against a concrete instance's statistics, and
//! [`CompiledQuery::eval_traced`] additionally returns a [`QueryTrace`] plan
//! tree whose [`QueryTrace::explain`] rendering annotates every node with its
//! estimated and actual cardinality.  A
//! [`PlanConfig`] also carries the evaluator's worker-thread count: joins and
//! projections over large relations partition their tuples across a
//! `std::thread::scope` pool, bit-identically to the serial path.

pub mod cache;
pub mod optimize;
pub mod oracle;
pub mod stats;
pub mod trace;

pub use cache::{next_generation, PlanCache, PlanCacheStats};
pub use optimize::{OptLevel, PlanConfig};
pub use stats::{ColumnStats, RelationStats, Statistics};
pub use trace::{QueryTrace, TraceView};

use trace::TraceProbe;

use crate::logic::{Formula, Sep, Term, Var};
use crate::relation::{negate_tuples, GenTuple, Instance, JoinReport, Relation};
use crate::schema::RelName;
use crate::theory::{Atom, Theory};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Errors raised during query evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The formula mentions a relation symbol not declared by the instance's schema.
    UnknownRelation(String),
    /// A relation atom's argument count disagrees with the relation's arity.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Arity expected by the stored relation.
        expected: usize,
        /// Number of arguments in the atom.
        found: usize,
    },
    /// The formula has a free variable missing from the requested answer-variable
    /// list, so `{free | formula}` is not a well-formed query (Section 4.1 requires
    /// the answer variables to cover the formula's free variables).  Evaluating
    /// anyway used to build a relation whose tuples mention non-column variables —
    /// ill-formed, and a later membership test would panic.
    FreeVariableNotListed {
        /// The uncovered free variable.
        variable: String,
    },
    /// The requested answer-variable list repeats a variable; the answer
    /// relation's columns must be distinct (point substitution binds a
    /// repeated column only once, so membership answers would be wrong).
    DuplicateAnswerVariable {
        /// The repeated variable.
        variable: String,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnknownRelation(r) => write!(f, "unknown relation symbol {r}"),
            EvalError::ArityMismatch {
                relation,
                expected,
                found,
            } => write!(
                f,
                "relation {relation} expects {expected} arguments but the atom has {found}"
            ),
            EvalError::FreeVariableNotListed { variable } => write!(
                f,
                "free variable {variable} of the formula is not among the query's answer variables"
            ),
            EvalError::DuplicateAnswerVariable { variable } => {
                write!(f, "answer variable {variable} is listed more than once")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// The typed error for an ill-formed answer-variable list, if any: a
/// repeated variable, or a free variable of the formula missing from the list
/// (the well-formedness conditions of Section 4.1's query definition).
fn answer_var_error<A: Atom>(formula: &Formula<A>, free: &[Var]) -> Option<EvalError> {
    if let Some((_, v)) = free
        .iter()
        .enumerate()
        .find(|(i, v)| free[..*i].contains(v))
    {
        return Some(EvalError::DuplicateAnswerVariable {
            variable: v.to_string(),
        });
    }
    formula
        .free_vars()
        .into_iter()
        .find(|v| !free.contains(v))
        .map(|v| EvalError::FreeVariableNotListed {
            variable: v.to_string(),
        })
}

// ---------------------------------------------------------------------------
// The relational-algebra plan IR
// ---------------------------------------------------------------------------

/// A node of the relational-algebra plan IR.
///
/// Every node denotes a finitely representable relation over its column list
/// under *cylinder semantics*: a generalized tuple constrains only the
/// variables it mentions and is universal in every other variable, so union
/// branches and join operands over different column sets compose without
/// explicit padding, and complement is complement over all of `Qᵏ`.
enum PlanNode<T: Theory> {
    /// The empty relation (`false`).
    Empty,
    /// The universal relation (`true`).
    Universal,
    /// A conjunction of constraint atoms (selection from the universal
    /// relation).
    Select(Vec<T::A>),
    /// A stored relation read with its columns renamed to distinct argument
    /// variables — the fused scan + rename of the common case `R(x̅)`, which
    /// evaluates through [`Relation::rename`]'s single simultaneous pass (and
    /// shares the stored tuple caches when the renaming is the identity).
    Rename {
        /// The relation name.
        name: RelName,
        /// The distinct column variables after renaming.
        to: Vec<Var>,
    },
    /// A stored relation read under a general argument list (repeated
    /// variables and constants allowed): column variables are substituted by
    /// the argument terms, and unsatisfiable tuples are pruned — scan fused
    /// with the induced selection.
    Scan {
        /// The relation name.
        name: RelName,
        /// The argument terms of the relation atom.
        args: Vec<Term>,
    },
    /// Natural join of the children (conjunction).
    Join(Vec<Plan<T>>),
    /// Union of the children (disjunction).
    Union(Vec<Plan<T>>),
    /// Complement of the child within `Qᵏ` (negation).
    Complement(Plan<T>),
    /// Projection of the child **out of** the listed variables via quantifier
    /// elimination (existential quantification).
    Project {
        /// The child plan.
        input: Plan<T>,
        /// The variables eliminated.
        eliminate: Vec<Var>,
    },
}

struct PlanInner<T: Theory> {
    node: PlanNode<T>,
    /// Output columns: the free variables of the denoted sub-formula (after
    /// compile-time simplification).
    cols: Vec<Var>,
    /// Structural hash, precomputed at interning time; children contribute
    /// their own cached hashes, so hashing any node is O(local fields).
    hash: u64,
}

/// A hash-consed relational-algebra plan.
///
/// Plans are immutable and shared: the compiler interns every node, so
/// structurally equal sub-formulas of one query become the *same* (pointer
/// equal) plan node, and the evaluator's memo table then evaluates each
/// distinct sub-plan once per instance.  Equality and hashing are structural
/// (with a pointer fast path and the cached hash).
pub struct Plan<T: Theory>(Arc<PlanInner<T>>);

impl<T: Theory> Clone for Plan<T> {
    fn clone(&self) -> Self {
        Plan(Arc::clone(&self.0))
    }
}

impl<T: Theory> Plan<T> {
    /// The output columns of the plan: the free variables of the compiled
    /// (simplified) sub-formula.
    #[must_use]
    pub fn cols(&self) -> &[Var] {
        &self.0.cols
    }

    /// Number of distinct nodes in the plan DAG (shared nodes counted once) —
    /// the unit of the evaluator's memoization.
    #[must_use]
    pub fn node_count(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.count_nodes(&mut seen);
        seen.len()
    }

    fn count_nodes(&self, seen: &mut std::collections::HashSet<usize>) {
        if !seen.insert(Arc::as_ptr(&self.0) as usize) {
            return;
        }
        match &self.0.node {
            PlanNode::Empty
            | PlanNode::Universal
            | PlanNode::Select(_)
            | PlanNode::Rename { .. }
            | PlanNode::Scan { .. } => {}
            PlanNode::Join(children) | PlanNode::Union(children) => {
                for c in children {
                    c.count_nodes(seen);
                }
            }
            PlanNode::Complement(p) => p.count_nodes(seen),
            PlanNode::Project { input, .. } => input.count_nodes(seen),
        }
    }

    fn ptr_eq(&self, other: &Plan<T>) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl<T: Theory> PartialEq for Plan<T> {
    fn eq(&self, other: &Self) -> bool {
        if self.ptr_eq(other) {
            return true;
        }
        if self.0.hash != other.0.hash {
            return false;
        }
        node_eq(&self.0.node, &other.0.node)
    }
}

impl<T: Theory> Eq for Plan<T> {}

impl<T: Theory> Hash for Plan<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

fn node_eq<T: Theory>(a: &PlanNode<T>, b: &PlanNode<T>) -> bool {
    match (a, b) {
        (PlanNode::Empty, PlanNode::Empty) | (PlanNode::Universal, PlanNode::Universal) => true,
        (PlanNode::Select(x), PlanNode::Select(y)) => x == y,
        (PlanNode::Rename { name: n1, to: t1 }, PlanNode::Rename { name: n2, to: t2 }) => {
            n1 == n2 && t1 == t2
        }
        (PlanNode::Scan { name: n1, args: a1 }, PlanNode::Scan { name: n2, args: a2 }) => {
            n1 == n2 && a1 == a2
        }
        (PlanNode::Join(x), PlanNode::Join(y)) | (PlanNode::Union(x), PlanNode::Union(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p == q)
        }
        (PlanNode::Complement(x), PlanNode::Complement(y)) => x == y,
        (
            PlanNode::Project {
                input: i1,
                eliminate: e1,
            },
            PlanNode::Project {
                input: i2,
                eliminate: e2,
            },
        ) => e1 == e2 && i1 == i2,
        _ => false,
    }
}

fn node_hash<T: Theory>(node: &PlanNode<T>) -> u64 {
    let mut h = DefaultHasher::new();
    match node {
        PlanNode::Empty => h.write_u8(0),
        PlanNode::Universal => h.write_u8(1),
        PlanNode::Select(atoms) => {
            h.write_u8(2);
            for a in atoms {
                a.hash(&mut h);
            }
        }
        PlanNode::Rename { name, to } => {
            h.write_u8(3);
            name.hash(&mut h);
            to.hash(&mut h);
        }
        PlanNode::Scan { name, args } => {
            h.write_u8(4);
            name.hash(&mut h);
            args.hash(&mut h);
        }
        PlanNode::Join(children) => {
            h.write_u8(5);
            for c in children {
                h.write_u64(c.0.hash);
            }
        }
        PlanNode::Union(children) => {
            h.write_u8(6);
            for c in children {
                h.write_u64(c.0.hash);
            }
        }
        PlanNode::Complement(p) => {
            h.write_u8(7);
            h.write_u64(p.0.hash);
        }
        PlanNode::Project { input, eliminate } => {
            h.write_u8(8);
            h.write_u64(input.0.hash);
            eliminate.hash(&mut h);
        }
    }
    h.finish()
}

impl<T: Theory> fmt::Display for Plan<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0.node {
            PlanNode::Empty => write!(f, "⊥"),
            PlanNode::Universal => write!(f, "⊤"),
            PlanNode::Select(atoms) => write!(f, "σ[{}]", Sep(atoms, " ∧ ")),
            PlanNode::Rename { name, to } => write!(f, "{name}({})", Sep(to, ", ")),
            PlanNode::Scan { name, args } => write!(f, "scan {name}({})", Sep(args, ", ")),
            PlanNode::Join(children) => write!(f, "({})", Sep(children, " ⋈ ")),
            PlanNode::Union(children) => write!(f, "({})", Sep(children, " ∪ ")),
            PlanNode::Complement(p) => write!(f, "¬{p}"),
            PlanNode::Project { input, eliminate } => {
                write!(f, "π-{{{}}}{input}", Sep(eliminate, ","))
            }
        }
    }
}

impl<T: Theory> fmt::Debug for Plan<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Plan({self})")
    }
}

// ---------------------------------------------------------------------------
// Compilation (with hash-consing)
// ---------------------------------------------------------------------------

/// The hash-consing plan builder: structurally equal nodes constructed during
/// one compilation are interned to a single shared [`Plan`], so the evaluator
/// can memoize by node identity.
struct PlanBuilder<T: Theory> {
    interned: HashMap<u64, Vec<Plan<T>>>,
}

impl<T: Theory> PlanBuilder<T> {
    fn new() -> Self {
        PlanBuilder {
            interned: HashMap::new(),
        }
    }

    fn intern(&mut self, node: PlanNode<T>, cols: Vec<Var>) -> Plan<T> {
        let hash = node_hash(&node);
        let bucket = self.interned.entry(hash).or_default();
        for existing in bucket.iter() {
            if node_eq(&existing.0.node, &node) {
                return existing.clone();
            }
        }
        let plan = Plan(Arc::new(PlanInner { node, cols, hash }));
        bucket.push(plan.clone());
        plan
    }

    fn empty(&mut self, cols: Vec<Var>) -> Plan<T> {
        self.intern(PlanNode::Empty, cols)
    }

    fn universal(&mut self, cols: Vec<Var>) -> Plan<T> {
        self.intern(PlanNode::Universal, cols)
    }

    fn select(&mut self, atoms: Vec<T::A>) -> Plan<T> {
        let cols: Vec<Var> = atoms
            .iter()
            .flat_map(Atom::vars)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        self.intern(PlanNode::Select(atoms), cols)
    }

    /// `¬p`, with double negation and the trivial complements folded away.
    fn complement_of(&mut self, p: Plan<T>) -> Plan<T> {
        let cols = p.cols().to_vec();
        match &p.0.node {
            PlanNode::Complement(inner) => inner.clone(),
            PlanNode::Empty => self.universal(cols),
            PlanNode::Universal => self.empty(cols),
            _ => self.intern(PlanNode::Complement(p), cols),
        }
    }

    /// `∃ vs . p`, restricted to the variables actually among `p`'s columns;
    /// nested projections are merged into a single elimination list.
    fn project_of(&mut self, p: Plan<T>, vs: &[Var]) -> Plan<T> {
        let mut eliminate: Vec<Var> = Vec::new();
        for v in vs {
            if p.cols().contains(v) && !eliminate.contains(v) {
                eliminate.push(v.clone());
            }
        }
        if eliminate.is_empty() {
            return p;
        }
        let (input, eliminate) = match &p.0.node {
            PlanNode::Project {
                input,
                eliminate: inner,
            } => {
                let mut merged = inner.clone();
                merged.extend(eliminate);
                (input.clone(), merged)
            }
            _ => (p.clone(), eliminate),
        };
        let cols: Vec<Var> = input
            .cols()
            .iter()
            .filter(|v| !eliminate.contains(v))
            .cloned()
            .collect();
        match &input.0.node {
            // Projection cannot revive an empty relation or constrain a
            // universal one.
            PlanNode::Empty => self.empty(cols),
            PlanNode::Universal => self.universal(cols),
            _ => self.intern(PlanNode::Project { input, eliminate }, cols),
        }
    }

    /// Natural join of the children: nested joins are flattened, `⊤` operands
    /// and duplicates dropped, selections merged, and `⊥` annihilates.
    fn join_of(&mut self, children: Vec<Plan<T>>) -> Plan<T> {
        let mut flat: Vec<Plan<T>> = Vec::new();
        for c in children {
            match &c.0.node {
                PlanNode::Join(inner) => flat.extend(inner.iter().cloned()),
                _ => flat.push(c),
            }
        }
        let all_cols = union_cols(&flat);
        if flat.iter().any(|c| matches!(c.0.node, PlanNode::Empty)) {
            return self.empty(all_cols);
        }
        let mut atoms: Vec<T::A> = Vec::new();
        let mut kept: Vec<Plan<T>> = Vec::new();
        for c in flat {
            match &c.0.node {
                PlanNode::Universal => {}
                PlanNode::Select(sel) => {
                    for a in sel {
                        if !atoms.contains(a) {
                            atoms.push(a.clone());
                        }
                    }
                }
                _ => {
                    if !kept.iter().any(|k| k.ptr_eq(&c)) {
                        kept.push(c);
                    }
                }
            }
        }
        if !atoms.is_empty() {
            // A single merged selection, placed first so the join prunes early.
            kept.insert(0, self.select(atoms));
        }
        match kept.len() {
            0 => self.universal(all_cols),
            1 => kept.pop().expect("length checked"),
            _ => {
                let cols = union_cols(&kept);
                self.intern(PlanNode::Join(kept), cols)
            }
        }
    }

    /// Union of the children: nested unions are flattened, `⊥` operands and
    /// duplicates dropped, and `⊤` annihilates.
    fn union_of(&mut self, children: Vec<Plan<T>>) -> Plan<T> {
        let mut flat: Vec<Plan<T>> = Vec::new();
        for c in children {
            match &c.0.node {
                PlanNode::Union(inner) => flat.extend(inner.iter().cloned()),
                _ => flat.push(c),
            }
        }
        let all_cols = union_cols(&flat);
        if flat.iter().any(|c| matches!(c.0.node, PlanNode::Universal)) {
            return self.universal(all_cols);
        }
        let mut kept: Vec<Plan<T>> = Vec::new();
        for c in flat {
            match &c.0.node {
                PlanNode::Empty => {}
                _ => {
                    if !kept.iter().any(|k| k.ptr_eq(&c)) {
                        kept.push(c);
                    }
                }
            }
        }
        match kept.len() {
            0 => self.empty(all_cols),
            1 => kept.pop().expect("length checked"),
            _ => {
                let cols = union_cols(&kept);
                self.intern(PlanNode::Union(kept), cols)
            }
        }
    }

    fn compile(&mut self, formula: &Formula<T::A>) -> Plan<T> {
        match formula {
            Formula::True => self.universal(Vec::new()),
            Formula::False => self.empty(Vec::new()),
            Formula::Atom(a) => self.select(vec![a.clone()]),
            Formula::Rel { name, args } => {
                let arg_vars: Vec<Var> = args.iter().filter_map(Term::as_var).cloned().collect();
                let distinct = arg_vars.len() == args.len() && {
                    let mut seen = std::collections::HashSet::new();
                    arg_vars.iter().all(|v| seen.insert(v.clone()))
                };
                if distinct {
                    self.intern(
                        PlanNode::Rename {
                            name: name.clone(),
                            to: arg_vars.clone(),
                        },
                        arg_vars,
                    )
                } else {
                    let mut cols: Vec<Var> = Vec::new();
                    for v in &arg_vars {
                        if !cols.contains(v) {
                            cols.push(v.clone());
                        }
                    }
                    self.intern(
                        PlanNode::Scan {
                            name: name.clone(),
                            args: args.clone(),
                        },
                        cols,
                    )
                }
            }
            Formula::Not(g) => {
                let inner = self.compile(g);
                self.complement_of(inner)
            }
            Formula::And(fs) => {
                let children: Vec<Plan<T>> = fs.iter().map(|g| self.compile(g)).collect();
                self.join_of(children)
            }
            Formula::Or(fs) => {
                let children: Vec<Plan<T>> = fs.iter().map(|g| self.compile(g)).collect();
                self.union_of(children)
            }
            Formula::Exists(vs, g) => {
                let inner = self.compile(g);
                self.project_of(inner, vs)
            }
            Formula::Forall(vs, g) => {
                // ∀x̅.φ  ≡  ¬∃x̅.¬φ
                let inner = self.compile(g);
                let negated = self.complement_of(inner);
                let projected = self.project_of(negated, vs);
                self.complement_of(projected)
            }
        }
    }
}

/// The union of the children's column lists, in first-occurrence order.
fn union_cols<T: Theory>(children: &[Plan<T>]) -> Vec<Var> {
    let mut cols: Vec<Var> = Vec::new();
    for c in children {
        for v in c.cols() {
            if !cols.contains(v) {
                cols.push(v.clone());
            }
        }
    }
    cols
}

fn collect_rel_atoms<A>(formula: &Formula<A>, out: &mut Vec<(RelName, usize)>) {
    match formula {
        Formula::True | Formula::False | Formula::Atom(_) => {}
        Formula::Rel { name, args } => {
            if !out.iter().any(|(n, a)| n == name && *a == args.len()) {
                out.push((name.clone(), args.len()));
            }
        }
        Formula::Not(g) => collect_rel_atoms(g, out),
        Formula::And(fs) | Formula::Or(fs) => {
            for f in fs {
                collect_rel_atoms(f, out);
            }
        }
        Formula::Exists(_, g) | Formula::Forall(_, g) => collect_rel_atoms(g, out),
    }
}

/// A query compiled once into a (hash-consed) relational-algebra plan,
/// reusable across instances — the Datalog engine compiles every rule body a
/// single time and re-evaluates the plan each fixpoint round.
pub struct CompiledQuery<T: Theory> {
    plan: Plan<T>,
    free: Vec<Var>,
    /// The configuration the query was compiled with (optimization level and
    /// evaluator thread count).
    config: PlanConfig,
    /// Relation atoms of the source formula in traversal order, for upfront
    /// schema validation: every atom is checked before anything evaluates.
    rels: Vec<(RelName, usize)>,
    /// The answer-variable error ([`answer_var_error`]) — recorded at compile
    /// time, reported on evaluation (a query whose answer variables repeat or
    /// miss a free variable is ill-formed, and evaluating it would build
    /// relations whose tuples mention non-column variables).
    ill_formed: Option<EvalError>,
}

impl<T: Theory> Clone for CompiledQuery<T> {
    fn clone(&self) -> Self {
        CompiledQuery {
            plan: self.plan.clone(),
            free: self.free.clone(),
            config: self.config,
            rels: self.rels.clone(),
            ill_formed: self.ill_formed.clone(),
        }
    }
}

impl<T: Theory> fmt::Debug for CompiledQuery<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompiledQuery({})", self.plan)
    }
}

/// Compiles a query `{free | formula}` into a reusable plan with the default
/// configuration: cost-guided optimization against uniform statistics, serial
/// evaluation.
///
/// # Examples
/// ```
/// use frdb_core::prelude::*;
/// use frdb_core::fo::compile_query;
///
/// // Compile {x | ∃y. S(x, y)} once, evaluate it on an instance.
/// let q: Formula<DenseAtom> =
///     Formula::exists(["y"], Formula::rel("S", [Term::var("x"), Term::var("y")]));
/// let compiled = compile_query::<DenseOrder>(&q, &[Var::new("x")]);
///
/// let mut inst: Instance<DenseOrder> = Instance::new(Schema::from_pairs([("S", 2)]));
/// inst.set(
///     "S",
///     Relation::from_points(
///         vec![Var::new("x"), Var::new("y")],
///         vec![vec![Rat::from_i64(1), Rat::from_i64(2)]],
///     ),
/// )
/// .unwrap();
/// let answer = compiled.eval(&inst).unwrap();
/// assert!(answer.contains(&[Rat::from_i64(1)]));
/// ```
#[must_use]
pub fn compile_query<T: Theory>(formula: &Formula<T::A>, free: &[Var]) -> CompiledQuery<T> {
    compile_query_with(formula, free, &PlanConfig::default())
}

/// Compiles a query `{free | formula}` under an explicit [`PlanConfig`]:
/// [`OptLevel::None`] reproduces the syntactic-order plan exactly, and
/// `threads > 1` lets the evaluator partition large joins and projections
/// across a worker pool.
#[must_use]
pub fn compile_query_with<T: Theory>(
    formula: &Formula<T::A>,
    free: &[Var],
    config: &PlanConfig,
) -> CompiledQuery<T> {
    let mut builder = PlanBuilder::new();
    let plan = builder.compile(formula);
    let plan = match config.opt {
        OptLevel::None => plan,
        OptLevel::Full => optimize::optimize_plan(&plan, &Statistics::none(), &mut builder),
    };
    let mut rels = Vec::new();
    collect_rel_atoms(formula, &mut rels);
    CompiledQuery {
        plan,
        free: free.to_vec(),
        config: *config,
        rels,
        ill_formed: answer_var_error(formula, free),
    }
}

impl<T: Theory> CompiledQuery<T> {
    /// The compiled plan.
    #[must_use]
    pub fn plan(&self) -> &Plan<T> {
        &self.plan
    }

    /// The free (answer) variables.
    #[must_use]
    pub fn free(&self) -> &[Var] {
        &self.free
    }

    /// The configuration the query was compiled with.
    #[must_use]
    pub fn config(&self) -> &PlanConfig {
        &self.config
    }

    /// The relation symbols the source formula reads, with their arities —
    /// the right scope for a [`Statistics::collect_only`] snapshot when
    /// re-optimizing this query for an instance.
    #[must_use]
    pub fn relations(&self) -> &[(RelName, usize)] {
        &self.rels
    }

    /// The same query with the evaluator's worker-thread count replaced.
    /// Thread count never changes results — parallel joins and projections
    /// partition tuples and merge in order, bit-identically to serial
    /// evaluation.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Re-optimizes the compiled plan against a [`Statistics`] snapshot of a
    /// concrete instance (a no-op at [`OptLevel::None`]).  Re-optimization
    /// rewrites the existing plan — it does not need the source formula — and
    /// preserves hash-consing, so the rewritten plan memoizes exactly like
    /// the original.
    #[must_use]
    pub fn optimized_for(&self, statistics: &Statistics) -> CompiledQuery<T> {
        match self.config.opt {
            OptLevel::None => self.clone(),
            OptLevel::Full => {
                let mut builder = PlanBuilder::new();
                let plan = optimize::optimize_plan(&self.plan, statistics, &mut builder);
                CompiledQuery {
                    plan,
                    ..self.clone()
                }
            }
        }
    }

    /// Evaluates the plan on an instance, producing the answer relation over
    /// the compiled free-variable list.  Sub-plans are memoized per call, so
    /// every distinct node of the plan DAG is evaluated exactly once.
    ///
    /// # Errors
    /// Returns an error if the formula mentions undeclared relations or uses
    /// them with the wrong arity.
    ///
    /// # Examples
    /// ```
    /// use frdb_core::prelude::*;
    /// use frdb_core::fo::compile_query;
    ///
    /// let mut inst: Instance<DenseOrder> = Instance::new(Schema::from_pairs([("R", 1)]));
    /// inst.set(
    ///     "R",
    ///     Relation::from_points(vec![Var::new("x")], vec![vec![Rat::from_i64(3)]]),
    /// )
    /// .unwrap();
    /// // {x | R(x) ∧ x ≤ 5}
    /// let q: Formula<DenseAtom> = Formula::rel("R", [Term::var("x")])
    ///     .and(Formula::Atom(DenseAtom::le(Term::var("x"), Term::cst(5))));
    /// let answer = compile_query::<DenseOrder>(&q, &[Var::new("x")])
    ///     .eval(&inst)
    ///     .unwrap();
    /// assert!(answer.contains(&[Rat::from_i64(3)]));
    /// ```
    pub fn eval(&self, instance: &Instance<T>) -> Result<Relation<T>, EvalError> {
        let mut memo: HashMap<usize, Factored<T>> = HashMap::new();
        let mut reports: HashMap<usize, JoinReport> = HashMap::new();
        self.eval_with_memo(instance, &mut memo, &mut reports, &mut TraceProbe::Off)
    }

    /// Evaluates the plan *and* returns the [`QueryTrace`] plan tree: per
    /// plan node, the output cardinality and factorized part count, the join
    /// strategy with its candidate-pair pruning ratio, the column-index
    /// builds/reuses the node's own joins performed, the inclusive wall time,
    /// and the cost model's estimate under statistics collected from
    /// `instance`.  The trace's default rendering and its
    /// [`QueryTrace::explain`] rendering are deterministic at any thread
    /// count; wall times surface only through [`QueryTrace::timed`].
    ///
    /// # Errors
    /// As for [`CompiledQuery::eval`].
    pub fn eval_traced(
        &self,
        instance: &Instance<T>,
    ) -> Result<(Relation<T>, QueryTrace), EvalError> {
        let mut memo: HashMap<usize, Factored<T>> = HashMap::new();
        let mut reports: HashMap<usize, JoinReport> = HashMap::new();
        let mut probe = TraceProbe::On(trace::TraceData::default());
        let start = std::time::Instant::now();
        let answer = self.eval_with_memo(instance, &mut memo, &mut reports, &mut probe)?;
        let total = start.elapsed();
        let TraceProbe::On(data) = probe else {
            unreachable!("probe constructed on");
        };
        let statistics = Statistics::collect_only(instance, self.rels.iter().map(|(n, _)| n));
        let trace = QueryTrace::build(
            &self.plan,
            &statistics,
            &memo,
            &reports,
            &data,
            self.config.threads,
            total,
        );
        Ok((answer, trace))
    }

    fn eval_with_memo(
        &self,
        instance: &Instance<T>,
        memo: &mut HashMap<usize, Factored<T>>,
        reports: &mut HashMap<usize, JoinReport>,
        probe: &mut TraceProbe,
    ) -> Result<Relation<T>, EvalError> {
        if let Some(e) = &self.ill_formed {
            return Err(e.clone());
        }
        // Validate every relation atom upfront: compile-time simplification
        // may have pruned some from the plan, and the source formula's schema
        // errors must surface regardless of what the plan reads.  `fetch`
        // hands out the stored relation shared, so this copies nothing.
        for (name, arity) in &self.rels {
            fetch(instance, name, *arity)?;
        }
        let answer = eval_plan(&self.plan, instance, memo, reports, self.config, probe)?.merged();
        // Deferred absorption means the tuple order depends on how the parts
        // were split; the plan boundary sorts canonically so answers are
        // bit-identical at any thread count.
        let answer = answer.canonically_sorted();
        // The plan result is already canonical (every operator finishes in
        // `Relation::new`); when the requested free list covers its columns,
        // re-wrap without re-running simplification and absorption.
        if answer.vars().iter().all(|v| self.free.contains(v)) {
            Ok(answer.with_columns(self.free.clone()))
        } else {
            Ok(Relation::new(self.free.clone(), answer.tuples().to_vec()))
        }
    }
}

// ---------------------------------------------------------------------------
// Factorized intermediates
// ---------------------------------------------------------------------------

/// Cap on the number of parts a factorized intermediate may hold.  Beyond
/// this, deferred absorption stops paying for itself (every downstream join
/// distributes over the parts), so the evaluator merges back to a single
/// materialized part.  The optimizer's cost model mirrors the cap when
/// estimating part counts ([`optimize::Est`]).
pub(crate) const MAX_PARTS: usize = 16;

/// A factorized intermediate: a plan node's value held as a **lazy union of
/// parts** (each part a canonical [`Relation`] over the node's columns)
/// instead of one eagerly materialized DNF.  Union nodes concatenate their
/// children's parts without the quadratic cross-child absorption pass, joins
/// distribute over the parts pairwise (each pair still runs the indexed
/// pin-hash / index-sweep strategies), projection eliminates per part, and
/// complement intersects per-part complements.  Materialization to the exact
/// canonical DNF ([`Factored::merged`]) happens only at plan boundaries, so
/// answers are canonical and bit-identical at any thread count.
pub(crate) struct Factored<T: Theory> {
    /// The node's column list; every part is normalized onto it.
    cols: Vec<Var>,
    /// The union's parts.  An empty list is the empty relation; a single
    /// part is exactly the materialized value.
    parts: Vec<Relation<T>>,
}

// Manual impl: `T` is a phantom theory tag, not data — no `T: Clone` bound.
impl<T: Theory> Clone for Factored<T> {
    fn clone(&self) -> Self {
        Factored {
            cols: self.cols.clone(),
            parts: self.parts.clone(),
        }
    }
}

impl<T: Theory> Factored<T> {
    /// Wraps an already-materialized relation as a single-part value.
    fn single(rel: Relation<T>) -> Factored<T> {
        Factored {
            cols: rel.vars().to_vec(),
            parts: vec![rel],
        }
    }

    /// The empty value over `cols`.
    fn empty(cols: Vec<Var>) -> Factored<T> {
        Factored {
            cols,
            parts: Vec::new(),
        }
    }

    /// Number of parts held (0 for the empty value).
    pub(crate) fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Total generalized tuples across the parts — what a full expansion
    /// would start from, and what `EXPLAIN` reports as the node's actual
    /// size.
    pub(crate) fn num_tuples(&self) -> usize {
        self.parts.iter().map(Relation::num_tuples).sum()
    }

    /// Materializes the exact canonical DNF: a single part is already
    /// canonical and is returned as-is (its column indexes survive); several
    /// parts are concatenated and run through the deferred simplification
    /// pass (cross-part dedup + absorption).
    fn merged(mut self) -> Relation<T> {
        match self.parts.len() {
            0 => Relation::empty(self.cols),
            1 => self.parts.pop().expect("one part"),
            _ => Relation::simplified_unchecked(
                self.cols,
                self.parts
                    .iter()
                    .flat_map(|p| p.tuples().iter().cloned())
                    .collect(),
            ),
        }
    }

    /// The value itself while it holds at most [`MAX_PARTS`] parts, else
    /// merged into one.
    fn capped(self) -> Factored<T> {
        if self.parts.len() <= MAX_PARTS {
            self
        } else {
            Factored::single(self.merged())
        }
    }

    /// Re-aligns every part onto `cols` (see [`Relation::with_columns`]).
    fn with_columns(self, cols: Vec<Var>) -> Factored<T> {
        let parts = self
            .parts
            .into_iter()
            .map(|p| {
                if p.vars() == cols.as_slice() {
                    p
                } else {
                    p.with_columns(cols.clone())
                }
            })
            .collect();
        Factored { cols, parts }
    }
}

/// Merges a non-empty uniform-column part list into one canonical relation
/// (the join fold's cap fallback).
fn merge_parts<T: Theory>(parts: Vec<Relation<T>>) -> Relation<T> {
    let cols = parts[0].vars().to_vec();
    Factored { cols, parts }.merged()
}

// ---------------------------------------------------------------------------
// Plan evaluation (memoized)
// ---------------------------------------------------------------------------

fn eval_plan<T: Theory>(
    plan: &Plan<T>,
    instance: &Instance<T>,
    memo: &mut HashMap<usize, Factored<T>>,
    reports: &mut HashMap<usize, JoinReport>,
    config: PlanConfig,
    probe: &mut TraceProbe,
) -> Result<Factored<T>, EvalError> {
    let key = Arc::as_ptr(&plan.0) as usize;
    if let Some(cached) = memo.get(&key) {
        return Ok(cached.clone());
    }
    // One branch when tracing is off — the no-op probe costs nothing per
    // node beyond this discriminant check.
    let span = probe.begin();
    let cols = plan.cols().to_vec();
    let threads = config.threads;
    let result = match &plan.0.node {
        PlanNode::Empty => Factored::single(Relation::empty(cols)),
        PlanNode::Universal => Factored::single(Relation::universal(cols)),
        PlanNode::Select(atoms) => Factored::single(Relation::simplified_unchecked(
            cols,
            vec![GenTuple::new(atoms.clone())],
        )),
        PlanNode::Rename { name, to } => {
            let rel = fetch(instance, name, to.len())?;
            Factored::single(rel.rename(to.clone()))
        }
        PlanNode::Scan { name, args } => {
            let rel = fetch(instance, name, args.len())?;
            let subst: HashMap<Var, Term> = rel
                .vars()
                .iter()
                .cloned()
                .zip(args.iter().cloned())
                .collect();
            let tuples = rel
                .tuples()
                .iter()
                .map(|tuple| {
                    GenTuple::new(
                        tuple
                            .atoms()
                            .iter()
                            .map(|a| a.subst_simultaneous(&subst))
                            .collect(),
                    )
                })
                .collect();
            Factored::single(Relation::simplified_unchecked(cols, tuples))
        }
        PlanNode::Join(children) => {
            let joined =
                eval_join_fold(children, &[], instance, memo, reports, key, config, probe)?;
            match joined {
                None => Factored::empty(cols),
                Some(f) => f.with_columns(cols),
            }
        }
        PlanNode::Union(children) => {
            // The factorized union: concatenate the children's parts and
            // defer cross-part dedup/absorption to the plan boundary (or the
            // cap).
            let mut parts: Vec<Relation<T>> = Vec::new();
            for child in children {
                let f = eval_plan(child, instance, memo, reports, config, probe)?;
                for part in f.parts {
                    if part.is_empty() {
                        continue;
                    }
                    parts.push(if part.vars() == cols.as_slice() {
                        part
                    } else {
                        part.with_columns(cols.clone())
                    });
                }
            }
            Factored { cols, parts }.capped()
        }
        PlanNode::Complement(input) => {
            let f = eval_plan(input, instance, memo, reports, config, probe)?;
            if f.parts.is_empty() {
                // Complement of the empty relation: the universal relation.
                Factored::single(Relation::simplified_unchecked(
                    cols,
                    negate_tuples::<T>(&[]),
                ))
            } else {
                // ¬(P₁ ∨ … ∨ Pₖ) = ¬P₁ ⋈ … ⋈ ¬Pₖ: complement each part and
                // intersect, so a factorized union is negated without ever
                // materializing it.
                let mut acc: Option<Relation<T>> = None;
                for part in &f.parts {
                    let neg = Relation::simplified_unchecked(
                        cols.clone(),
                        negate_tuples::<T>(part.tuples()),
                    );
                    let next = match acc {
                        None => neg,
                        Some(prev) => prev.join_with(&neg, threads),
                    };
                    let empty = next.is_empty();
                    acc = Some(next);
                    if empty {
                        break;
                    }
                }
                let rel = acc.expect("parts checked non-empty");
                Factored::single(if rel.vars() == cols.as_slice() {
                    rel
                } else {
                    rel.with_columns(cols)
                })
            }
        }
        PlanNode::Project { input, eliminate } => {
            let f = if let PlanNode::Join(children) = &input.0.node {
                // Fused join + early projection (see `eval_join_fold`); the
                // join's report stays keyed on the fused join node.
                let join_key = Arc::as_ptr(&input.0) as usize;
                match eval_join_fold(
                    children, eliminate, instance, memo, reports, join_key, config, probe,
                )? {
                    None => {
                        probe.end(key, span);
                        return finish(memo, key, Factored::empty(cols));
                    }
                    Some(f) => f,
                }
            } else {
                eval_plan(input, instance, memo, reports, config, probe)?
            };
            // ∃ distributes over ∨: eliminate per part and defer the
            // cross-part absorption a merge would run.
            let parts: Vec<Relation<T>> = f
                .parts
                .iter()
                .map(|p| p.project_out_with(eliminate, threads))
                .filter(|p| !p.is_empty())
                .map(|p| {
                    if p.vars() == cols.as_slice() {
                        p
                    } else {
                        p.with_columns(cols.clone())
                    }
                })
                .collect();
            Factored { cols, parts }.capped()
        }
    };
    probe.end(key, span);
    finish(memo, key, result)
}

/// Folds a join's children left to right with **early projection**: a variable
/// from `eliminate` is projected out as soon as no remaining operand mentions
/// it (`∃y (φ ∧ ψ) = (∃y φ) ∧ ψ` when `y ∉ free(ψ)`), so intermediate results
/// collapse before they are multiplied further.  Returns `None` when the join
/// annihilates early — the remaining operands cannot revive it (their schema
/// errors were surfaced by the upfront validation).  Variables of `eliminate`
/// still present in the result are the caller's to project.
#[allow(clippy::too_many_arguments)]
fn eval_join_fold<T: Theory>(
    children: &[Plan<T>],
    eliminate: &[Var],
    instance: &Instance<T>,
    memo: &mut HashMap<usize, Factored<T>>,
    reports: &mut HashMap<usize, JoinReport>,
    report_key: usize,
    config: PlanConfig,
    probe: &mut TraceProbe,
) -> Result<Option<Factored<T>>, EvalError> {
    let threads = config.threads;
    // Aggregate the fold's pairwise join reports onto the join node, so
    // `EXPLAIN` shows the strategy and candidate-pair count even when the
    // join annihilated early or was fused into its parent projection.
    let mut report: Option<JoinReport> = None;
    let record = |reports: &mut HashMap<usize, JoinReport>, report: Option<JoinReport>| {
        if let Some(r) = report {
            reports.insert(report_key, r);
        }
    };
    let mut acc: Option<Vec<Relation<T>>> = None;
    for (i, child) in children.iter().enumerate() {
        let f = eval_plan(child, instance, memo, reports, config, probe)?;
        let child_cols = f.cols.clone();
        let next: Vec<Relation<T>> = f.parts.into_iter().filter(|p| !p.is_empty()).collect();
        let mut joined: Vec<Relation<T>> = match acc {
            None => next,
            Some(prev) => {
                if next.is_empty() {
                    // Joining with an empty operand annihilates; still run
                    // the (trivial) join so the node reports its strategy.
                    let idx = probe.index_base();
                    let (_, step) =
                        merge_parts(prev).join_with_report(&Relation::empty(child_cols), threads);
                    probe.add_index_delta(report_key, idx);
                    match &mut report {
                        None => report = Some(step),
                        Some(r) => r.absorb(&step),
                    }
                    Vec::new()
                } else {
                    // The join distributes over parts: (A₁∨A₂) ⋈ (B₁∨B₂) =
                    // ∨ᵢⱼ (Aᵢ ⋈ Bⱼ), each pairwise join running the indexed
                    // strategies.  When the cross product would blow the part
                    // cap, merge the side holding more parts first.
                    let (lhs, rhs) = if prev.len() * next.len() > MAX_PARTS {
                        if prev.len() >= next.len() {
                            (vec![merge_parts(prev)], next)
                        } else {
                            (prev, vec![merge_parts(next)])
                        }
                    } else {
                        (prev, next)
                    };
                    let mut out = Vec::new();
                    for a in &lhs {
                        for b in &rhs {
                            let idx = probe.index_base();
                            let (j, step) = a.join_with_report(b, threads);
                            probe.add_index_delta(report_key, idx);
                            match &mut report {
                                None => report = Some(step),
                                Some(r) => r.absorb(&step),
                            }
                            if !j.is_empty() {
                                out.push(j);
                            }
                        }
                    }
                    out
                }
            }
        };
        let dead: Vec<Var> = eliminate
            .iter()
            .filter(|v| {
                joined.iter().any(|p| p.vars().contains(v))
                    && !children[i + 1..].iter().any(|c| c.cols().contains(v))
            })
            .cloned()
            .collect();
        if !dead.is_empty() {
            joined = joined
                .iter()
                .map(|p| p.project_out_with(&dead, threads))
                .filter(|p| !p.is_empty())
                .collect();
        }
        if joined.is_empty() {
            record(reports, report);
            return Ok(None);
        }
        acc = Some(joined);
    }
    record(reports, report);
    let parts = acc.expect("join nodes have at least two children");
    let cols = parts[0].vars().to_vec();
    Ok(Some(Factored { cols, parts }))
}

fn finish<T: Theory>(
    memo: &mut HashMap<usize, Factored<T>>,
    key: usize,
    result: Factored<T>,
) -> Result<Factored<T>, EvalError> {
    memo.insert(key, result.clone());
    Ok(result)
}

/// The stored relation `name`, `Arc`-shared (no part-table copy), checked
/// against the arity of the atom reading it.
fn fetch<T: Theory>(
    instance: &Instance<T>,
    name: &RelName,
    arity: usize,
) -> Result<Arc<Relation<T>>, EvalError> {
    let rel = instance
        .get_shared(name)
        .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
    if rel.arity() != arity {
        return Err(EvalError::ArityMismatch {
            relation: name.to_string(),
            expected: rel.arity(),
            found: arity,
        });
    }
    Ok(rel)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Evaluates a (possibly non-Boolean) query `{free | formula}` on an instance
/// with the **relational-algebra evaluator**, producing the answer relation
/// over the listed free variables.
///
/// The formula is compiled to a hash-consed plan and evaluated with sub-plan
/// memoization; see the module documentation.  For one-shot evaluation this
/// convenience compiles and evaluates in one call — callers re-evaluating the
/// same query on changing instances (the Datalog engine) should compile once
/// via [`compile_query`].
///
/// # Errors
/// Returns an error if the formula mentions undeclared relations or uses them with the
/// wrong arity.
pub fn eval_query<T: Theory>(
    formula: &Formula<T::A>,
    free: &[Var],
    instance: &Instance<T>,
) -> Result<Relation<T>, EvalError> {
    compile_query(formula, free).eval(instance)
}

/// Evaluates a Boolean query (sentence) on an instance.
///
/// # Errors
/// Returns an error if the formula mentions undeclared relations or uses them with the
/// wrong arity.
pub fn eval_sentence<T: Theory>(
    formula: &Formula<T::A>,
    instance: &Instance<T>,
) -> Result<bool, EvalError> {
    let answer = eval_query(formula, &[], instance)?;
    Ok(!answer.is_empty())
}

#[cfg(test)]
mod tests {
    use super::oracle::{check_answer, PointOracle};
    use super::*;
    use crate::dense::{DenseAtom, DenseOrder};
    use crate::logic::Term;
    use crate::relation::GenTuple;
    use crate::schema::Schema;
    use frdb_num::Rat;

    type F = Formula<DenseAtom>;

    #[test]
    fn uncovered_free_variables_are_a_typed_error_in_both_evaluators() {
        // Regression: `{x | R(x, y)}` has the free variable y outside the
        // answer list; the evaluator used to build a relation whose tuples
        // mention a non-column variable, which panicked later inside
        // membership substitution.  It and the point oracle must report the
        // same typed error.
        let schema = Schema::from_pairs([("R", 2)]);
        let mut inst: Instance<DenseOrder> = Instance::new(schema);
        inst.set(
            "R",
            Relation::from_dnf(
                vec![Var::new("x"), Var::new("y")],
                vec![vec![DenseAtom::lt(Term::var("x"), Term::var("y"))]],
            ),
        )
        .unwrap();
        let q: F = Formula::rel("R", [Term::var("x"), Term::var("y")]);
        let free = [Var::new("x")];
        let expected = EvalError::FreeVariableNotListed {
            variable: "y".into(),
        };
        assert_eq!(eval_query(&q, &free, &inst).unwrap_err(), expected);
        assert_eq!(PointOracle::new(&q, &free, &inst).err(), Some(expected));
        // A superset of the free variables stays fine (universal in extras).
        let wide = [Var::new("x"), Var::new("y"), Var::new("z")];
        assert!(eval_query(&q, &wide, &inst).is_ok());
        assert!(PointOracle::new(&q, &wide, &inst).is_ok());
    }

    fn r(v: i64) -> Rat {
        Rat::from_i64(v)
    }

    fn interval_instance() -> Instance<DenseOrder> {
        // R = [0, 10] ∪ [20, 30]   (monadic), S = {(1,2), (2,3), (3,4)} (binary, finite)
        let schema = Schema::from_pairs([("R", 1), ("S", 2)]);
        let mut inst = Instance::new(schema);
        let seg = |lo: i64, hi: i64| {
            GenTuple::new(vec![
                DenseAtom::le(Term::cst(lo), Term::var("x")),
                DenseAtom::le(Term::var("x"), Term::cst(hi)),
            ])
        };
        inst.set(
            "R",
            Relation::new(vec![Var::new("x")], vec![seg(0, 10), seg(20, 30)]),
        )
        .unwrap();
        inst.set(
            "S",
            Relation::from_points(
                vec![Var::new("x"), Var::new("y")],
                vec![vec![r(1), r(2)], vec![r(2), r(3)], vec![r(3), r(4)]],
            ),
        )
        .unwrap();
        inst
    }

    /// The evaluator's answer, which must agree with the point oracle at
    /// every order-type representative.
    fn both(q: &F, free: &[Var], inst: &Instance<DenseOrder>) -> Relation<DenseOrder> {
        let answer = eval_query(q, free, inst).unwrap();
        let check = check_answer(q, free, inst, std::slice::from_ref(&answer)).unwrap();
        assert!(check.exhaustive);
        assert_eq!(check.counterexample, None, "{q}: answer {answer}");
        answer
    }

    /// The sentence's truth, which must agree with the point oracle's.
    fn sentence(q: &F, inst: &Instance<DenseOrder>) -> bool {
        let truth = eval_sentence(q, inst).unwrap();
        let oracle = PointOracle::new(q, &[], inst).unwrap().truth(&[]);
        assert_eq!(oracle, Some(truth), "{q}");
        truth
    }

    #[test]
    fn selection_query() {
        // {x | R(x) ∧ x < 5}
        let inst = interval_instance();
        let q: F = Formula::rel("R", [Term::var("x")])
            .and(Formula::Atom(DenseAtom::lt(Term::var("x"), Term::cst(5))));
        let ans = both(&q, &[Var::new("x")], &inst);
        assert!(ans.contains(&[r(3)]));
        assert!(!ans.contains(&[r(7)]));
        assert!(!ans.contains(&[r(25)]));
    }

    #[test]
    fn projection_query() {
        // {x | ∃y. S(x, y)} = {1, 2, 3}
        let inst = interval_instance();
        let q: F = Formula::exists(["y"], Formula::rel("S", [Term::var("x"), Term::var("y")]));
        let ans = both(&q, &[Var::new("x")], &inst);
        assert!(ans.contains(&[r(1)]) && ans.contains(&[r(2)]) && ans.contains(&[r(3)]));
        assert!(!ans.contains(&[r(4)]));
    }

    #[test]
    fn join_query() {
        // {(x, z) | ∃y. S(x, y) ∧ S(y, z)} = {(1,3), (2,4)}
        let inst = interval_instance();
        let q: F = Formula::exists(
            ["y"],
            Formula::rel("S", [Term::var("x"), Term::var("y")])
                .and(Formula::rel("S", [Term::var("y"), Term::var("z")])),
        );
        let ans = both(&q, &[Var::new("x"), Var::new("z")], &inst);
        assert!(ans.contains(&[r(1), r(3)]));
        assert!(ans.contains(&[r(2), r(4)]));
        assert!(!ans.contains(&[r(1), r(2)]));
        assert!(!ans.contains(&[r(3), r(1)]));
    }

    #[test]
    fn universal_quantifier() {
        // ∀x. R(x) → x ≤ 30   holds;   ∀x. R(x) → x ≤ 10   fails.
        let inst = interval_instance();
        let holds: F = Formula::forall(
            ["x"],
            Formula::rel("R", [Term::var("x")])
                .implies(Formula::Atom(DenseAtom::le(Term::var("x"), Term::cst(30)))),
        );
        let fails: F = Formula::forall(
            ["x"],
            Formula::rel("R", [Term::var("x")])
                .implies(Formula::Atom(DenseAtom::le(Term::var("x"), Term::cst(10)))),
        );
        assert!(sentence(&holds, &inst));
        assert!(!sentence(&fails, &inst));
    }

    #[test]
    fn negation_and_between() {
        // {x | ¬R(x) ∧ 0 ≤ x ∧ x ≤ 30}: the gap (10, 20).
        let inst = interval_instance();
        let q: F = Formula::rel("R", [Term::var("x")])
            .not()
            .and(Formula::Atom(DenseAtom::le(Term::cst(0), Term::var("x"))))
            .and(Formula::Atom(DenseAtom::le(Term::var("x"), Term::cst(30))));
        let ans = both(&q, &[Var::new("x")], &inst);
        assert!(ans.contains(&[r(15)]));
        assert!(!ans.contains(&[r(5)]));
        assert!(!ans.contains(&[r(25)]));
        assert!(!ans.contains(&[r(31)]));
    }

    #[test]
    fn density_is_visible_to_queries() {
        // ∀x ∀y. x < y → ∃z. x < z ∧ z < y  — density of the order, a valid sentence.
        let inst = Instance::new(Schema::new());
        let q: F = Formula::forall(
            ["x", "y"],
            Formula::Atom(DenseAtom::lt(Term::var("x"), Term::var("y"))).implies(Formula::exists(
                ["z"],
                Formula::Atom(DenseAtom::lt(Term::var("x"), Term::var("z")))
                    .and(Formula::Atom(DenseAtom::lt(Term::var("z"), Term::var("y")))),
            )),
        );
        assert!(sentence(&q, &inst));
        // No endpoints: ∃x ∀y. x ≤ y  is false.
        let q2: F = Formula::exists(
            ["x"],
            Formula::forall(
                ["y"],
                Formula::Atom(DenseAtom::le(Term::var("x"), Term::var("y"))),
            ),
        );
        assert!(!sentence(&q2, &inst));
    }

    #[test]
    fn constant_argument_in_relation_atom() {
        // R(25) is true, R(15) is false.
        let inst = interval_instance();
        let q_true: F = Formula::rel("R", [Term::cst(25)]);
        let q_false: F = Formula::rel("R", [Term::cst(15)]);
        assert!(sentence(&q_true, &inst));
        assert!(!sentence(&q_false, &inst));
    }

    #[test]
    fn repeated_variable_in_relation_atom() {
        // {x | S(x, x)} is empty for our S.
        let inst = interval_instance();
        let q: F = Formula::rel("S", [Term::var("x"), Term::var("x")]);
        let ans = both(&q, &[Var::new("x")], &inst);
        assert!(ans.is_empty());
    }

    #[test]
    fn errors_are_reported() {
        let inst = interval_instance();
        let unknown: F = Formula::rel("T", [Term::var("x")]);
        assert!(matches!(
            eval_query(&unknown, &[Var::new("x")], &inst),
            Err(EvalError::UnknownRelation(_))
        ));
        let wrong_arity: F = Formula::rel("S", [Term::var("x")]);
        assert!(matches!(
            eval_query(&wrong_arity, &[Var::new("x")], &inst),
            Err(EvalError::ArityMismatch { .. })
        ));
        // Errors surface even from sub-formulas the plan simplifier prunes.
        let pruned: F = Formula::False.and(Formula::rel("T", [Term::var("x")]));
        assert!(matches!(
            eval_query(&pruned, &[Var::new("x")], &inst),
            Err(EvalError::UnknownRelation(_))
        ));
        assert!(matches!(
            PointOracle::new(&pruned, &[Var::new("x")], &inst),
            Err(EvalError::UnknownRelation(_))
        ));
    }

    #[test]
    fn answers_are_finitely_representable_and_composable() {
        // Compose: the answer of one query is stored and queried again.
        let inst = interval_instance();
        let q: F = Formula::rel("R", [Term::var("x")])
            .and(Formula::Atom(DenseAtom::lt(Term::var("x"), Term::cst(5))));
        let ans = both(&q, &[Var::new("x")], &inst);
        let schema = Schema::from_pairs([("A", 1)]);
        let mut inst2 = Instance::new(schema);
        inst2.set("A", ans).unwrap();
        let q2: F = Formula::exists(["x"], Formula::rel("A", [Term::var("x")]));
        assert!(eval_sentence(&q2, &inst2).unwrap());
    }

    #[test]
    fn repeated_subformulas_are_hash_consed_and_memoized() {
        // φ ↔ ψ duplicates both sides; hash-consing must collapse the copies.
        let phi: F = Formula::exists(["y"], Formula::rel("S", [Term::var("x"), Term::var("y")]));
        let psi: F = Formula::rel("R", [Term::var("x")]);
        let q = phi.clone().iff(psi.clone());
        let compiled = compile_query::<DenseOrder>(&q, &[Var::new("x")]);
        // The naive tree has two copies of φ and ψ each (plus complements);
        // the DAG must contain a single φ node.
        let duplicated = {
            let tree: F = Formula::disj([phi.clone().not().and(psi.clone()), psi.not().and(phi)]);
            compile_query::<DenseOrder>(&tree, &[Var::new("x")])
        };
        assert!(compiled.plan().node_count() <= duplicated.plan().node_count());
        // And the evaluation agrees with the point oracle.
        let inst = interval_instance();
        let a = compiled.eval(&inst).unwrap();
        let check = check_answer(&q, &[Var::new("x")], &inst, &[a]).unwrap();
        assert_eq!(check.counterexample, None);
    }

    #[test]
    fn compiled_queries_are_reusable_across_instances() {
        let q: F = Formula::exists(["y"], Formula::rel("S", [Term::var("x"), Term::var("y")]));
        let compiled = compile_query::<DenseOrder>(&q, &[Var::new("x")]);
        let inst = interval_instance();
        let a = compiled.eval(&inst).unwrap();
        assert!(a.contains(&[r(1)]));
        // Second instance with a different S.
        let mut inst2 = Instance::new(Schema::from_pairs([("R", 1), ("S", 2)]));
        inst2
            .set(
                "S",
                Relation::from_points(vec![Var::new("x"), Var::new("y")], vec![vec![r(7), r(8)]]),
            )
            .unwrap();
        let b = compiled.eval(&inst2).unwrap();
        assert!(b.contains(&[r(7)]));
        assert!(!b.contains(&[r(1)]));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn queries_over_the_fresh_namespace_are_rejected() {
        // Capture regression: a query whose variable is literally named `#0`
        // would shadow the first fresh variable `Var::fresh` mints.
        // Constructing it fails loudly at the variable.
        let q: F = Formula::exists(
            ["#0"],
            Formula::rel("R", [Term::var("#0")])
                .and(Formula::Atom(DenseAtom::lt(Term::var("#0"), Term::cst(5)))),
        );
        let _ = eval_query(&q, &[], &interval_instance());
    }

    #[test]
    fn near_miss_fresh_names_do_not_confuse_expansion() {
        // Legal names resembling the fresh pattern ("f0", "x0") evaluate
        // correctly.
        let schema = Schema::from_pairs([("S", 2)]);
        let mut inst: Instance<DenseOrder> = Instance::new(schema);
        inst.set(
            "S",
            Relation::from_points(
                vec![Var::new("f0"), Var::new("f1")],
                vec![vec![r(1), r(2)], vec![r(2), r(3)]],
            ),
        )
        .unwrap();
        let q: F = Formula::exists(
            ["f1"],
            Formula::rel("S", [Term::var("f0"), Term::var("f1")])
                .and(Formula::rel("S", [Term::var("f1"), Term::var("x0")])),
        );
        let ans = both(&q, &[Var::new("f0"), Var::new("x0")], &inst);
        assert!(ans.contains(&[r(1), r(3)]));
        assert!(!ans.contains(&[r(2), r(3)]));
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_serial() {
        // A chain long enough to clear the parallel engagement threshold: the
        // two-hop join partitions across workers and must merge to exactly
        // the serial representation (same tuples, same order).
        let n = 64i64;
        let mut inst: Instance<DenseOrder> = Instance::new(Schema::from_pairs([("S", 2)]));
        let points: Vec<Vec<Rat>> = (0..n).map(|i| vec![r(i), r(i + 1)]).collect();
        inst.set(
            "S",
            Relation::from_points(vec![Var::new("x"), Var::new("y")], points),
        )
        .unwrap();
        let q: F = Formula::exists(
            ["y"],
            Formula::rel("S", [Term::var("x"), Term::var("y")])
                .and(Formula::rel("S", [Term::var("y"), Term::var("z")])),
        );
        let free = [Var::new("x"), Var::new("z")];
        let serial = compile_query::<DenseOrder>(&q, &free).eval(&inst).unwrap();
        for threads in [2usize, 4] {
            let parallel = compile_query::<DenseOrder>(&q, &free)
                .with_threads(threads)
                .eval(&inst)
                .unwrap();
            assert_eq!(
                serial.to_dnf(),
                parallel.to_dnf(),
                "threads={threads} diverged from serial"
            );
        }
    }

    #[test]
    fn plan_simplifier_folds_constants_and_double_negation() {
        let q: F = Formula::True.and(Formula::rel("R", [Term::var("x")]).not().not());
        let compiled = compile_query::<DenseOrder>(&q, &[Var::new("x")]);
        // ⊤ ∧ ¬¬R(x) collapses to the bare rename leaf.
        assert_eq!(compiled.plan().node_count(), 1);
        assert_eq!(compiled.plan().to_string(), "R(x)");
        let inst = interval_instance();
        let ans = both(&q, &[Var::new("x")], &inst);
        assert!(ans.contains(&[r(5)]));
    }
}
