//! Generalized relations and database instances.
//!
//! A *generalized tuple* is a conjunction of constraint atoms and a *generalized
//! (finitely representable) relation* is a finite set — semantically a disjunction — of
//! generalized tuples over a fixed list of free variables (Section 2.2, after
//! \[KKR95\]).  A database instance maps the schema's relation symbols to such relations
//! (Definition 2.7).
//!
//! The module implements the closure properties stated in Section 2.2: finitely
//! representable relations are closed under finite union, intersection and
//! **complement** (unlike finite relations), and membership of a point is decidable by
//! direct formula evaluation (Proposition 2.4).

use crate::logic::{Formula, Sep, Term, Var};
use crate::metrics::JoinStrategyCounts;
use crate::schema::{RelName, Schema, SchemaError};
use crate::theory::{eval_conj, Atom, Dnf, Theory};
use frdb_num::Rat;
use std::any::Any;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Bound;
use std::sync::{Arc, Mutex, OnceLock};

/// The lazily computed canonical state of one generalized tuple under one
/// theory: the saturated context (for dense order, the transitive closure),
/// the satisfiability verdict read off it, and — on demand — the canonical
/// atom list.
struct TupleCache<T: Theory> {
    ctx: T::Ctx,
    satisfiable: bool,
    canonical: OnceLock<Option<Vec<T::A>>>,
}

/// A generalized tuple: a conjunction of constraint atoms (a "k-ary generalized tuple"
/// in the sense of \[KKR95\] when it has k free variables).
///
/// The tuple lazily computes and **caches** its canonical context (see
/// [`Theory::Ctx`]), its satisfiability verdict and its canonical form.  The
/// cache is shared through an [`Arc`], so cloning a tuple — which the relation
/// algebra and the Datalog fixpoint do constantly — shares the work already
/// done instead of repeating it.  Equality, hashing and ordering look only at
/// the atoms; the cache is invisible.
pub struct GenTuple<A> {
    atoms: Vec<A>,
    cache: OnceLock<Arc<dyn Any + Send + Sync>>,
}

impl<A: fmt::Debug> fmt::Debug for GenTuple<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("GenTuple").field(&self.atoms).finish()
    }
}

impl<A: Clone> Clone for GenTuple<A> {
    fn clone(&self) -> Self {
        GenTuple {
            atoms: self.atoms.clone(),
            cache: self.cache.clone(),
        }
    }
}

impl<A: PartialEq> PartialEq for GenTuple<A> {
    fn eq(&self, other: &Self) -> bool {
        self.atoms == other.atoms
    }
}

impl<A: Eq> Eq for GenTuple<A> {}

impl<A: std::hash::Hash> std::hash::Hash for GenTuple<A> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.atoms.hash(state);
    }
}

impl<A: Atom> GenTuple<A> {
    /// Creates a generalized tuple from its atoms.
    #[must_use]
    pub fn new(atoms: Vec<A>) -> Self {
        GenTuple {
            atoms,
            cache: OnceLock::new(),
        }
    }

    /// The empty conjunction (the universal tuple).
    #[must_use]
    pub fn universal() -> Self {
        GenTuple::new(Vec::new())
    }

    /// The atoms of the conjunction.
    #[must_use]
    pub fn atoms(&self) -> &[A] {
        &self.atoms
    }

    /// Consumes the tuple, returning its atoms.
    #[must_use]
    pub fn into_atoms(self) -> Vec<A> {
        self.atoms
    }

    /// Variables occurring in the tuple.
    #[must_use]
    pub fn vars(&self) -> BTreeSet<Var> {
        self.atoms.iter().flat_map(Atom::vars).collect()
    }

    /// Constants occurring in the tuple.
    #[must_use]
    pub fn constants(&self) -> BTreeSet<Rat> {
        self.atoms.iter().flat_map(Atom::constants).collect()
    }

    /// Evaluates the conjunction at a point.
    #[must_use]
    pub fn eval(&self, assignment: &dyn Fn(&Var) -> Rat) -> bool {
        eval_conj(&self.atoms, assignment)
    }

    fn build_cache<T: Theory<A = A>>(atoms: &[A]) -> TupleCache<T> {
        let ctx = T::context(atoms);
        let satisfiable = T::ctx_satisfiable(&ctx);
        TupleCache::<T> {
            ctx,
            satisfiable,
            canonical: OnceLock::new(),
        }
    }

    fn cache_for<T: Theory<A = A>>(&self) -> Arc<TupleCache<T>> {
        let entry = self
            .cache
            .get_or_init(|| Arc::new(Self::build_cache::<T>(&self.atoms)));
        match entry.clone().downcast::<TupleCache<T>>() {
            Ok(cache) => cache,
            // The cache slot is occupied by a *different* theory over the same
            // atom type (possible for downstream theories sharing an atom
            // language).  Stay correct: build a fresh context for this call
            // instead of panicking.  Note this path re-saturates the context
            // on every query — a tuple population queried under two theories
            // should be cloned per theory (fresh `GenTuple::new` per side) so
            // each copy caches its own context.
            Err(_) => Arc::new(Self::build_cache::<T>(&self.atoms)),
        }
    }

    /// The cached satisfiability verdict of the conjunction under theory `T`.
    #[must_use]
    pub fn is_satisfiable<T: Theory<A = A>>(&self) -> bool {
        self.cache_for::<T>().satisfiable
    }

    /// Runs `f` against the cached canonical context of the conjunction under
    /// theory `T`, building it on first use.
    pub fn with_ctx<T: Theory<A = A>, R>(&self, f: impl FnOnce(&T::Ctx) -> R) -> R {
        let cache = self.cache_for::<T>();
        f(&cache.ctx)
    }

    /// The cached canonical form of the conjunction under theory `T`
    /// (`None` when unsatisfiable), computing it on first use.
    #[must_use]
    pub fn canonical<T: Theory<A = A>>(&self) -> Option<Vec<A>> {
        let cache = self.cache_for::<T>();
        cache
            .canonical
            .get_or_init(|| T::ctx_canonical(&cache.ctx))
            .clone()
    }

    /// Whether the conjunction entails every atom of `conclusion`, answered
    /// from the cached context.
    #[must_use]
    pub fn entails<T: Theory<A = A>>(&self, conclusion: &[A]) -> bool {
        let cache = self.cache_for::<T>();
        T::ctx_entails(&cache.ctx, conclusion)
    }

    /// The tuple rewritten to its canonical atom list, **sharing** the already
    /// computed cache (canonicalization is idempotent, and the canonical form
    /// represents the same conjunction, so the context stays valid).  `None`
    /// when unsatisfiable.
    #[must_use]
    fn to_canonical<T: Theory<A = A>>(&self) -> Option<GenTuple<A>> {
        let cache = self.cache_for::<T>();
        let atoms = cache
            .canonical
            .get_or_init(|| T::ctx_canonical(&cache.ctx))
            .clone()?;
        let slot = OnceLock::new();
        let _ = slot.set(cache as Arc<dyn Any + Send + Sync>);
        Some(GenTuple { atoms, cache: slot })
    }
}

impl<A: Atom> fmt::Display for GenTuple<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "true");
        }
        write!(f, "{}", Sep(&self.atoms, " ∧ "))
    }
}

/// Simplifies a disjunction of generalized tuples: canonicalizes every tuple
/// (via its cached context), drops unsatisfiable ones, removes structural
/// duplicates by **hashing** the canonical atom lists, and drops disjuncts
/// absorbed (implied) by another disjunct.
///
/// The absorption loop performs no closure construction: each premise uses the
/// tuple's cached context and each conclusion is the other tuple's cached
/// canonical form, so the quadratic pass costs only table lookups.
#[must_use]
pub fn simplify_tuples<T: Theory>(tuples: Vec<GenTuple<T::A>>) -> Vec<GenTuple<T::A>> {
    let mut canon: Vec<GenTuple<T::A>> = Vec::with_capacity(tuples.len());
    let mut seen: HashSet<Vec<T::A>> = HashSet::with_capacity(tuples.len());
    for tuple in tuples {
        let Some(canonical) = tuple.to_canonical::<T>() else {
            continue; // unsatisfiable
        };
        if seen.insert(canonical.atoms().to_vec()) {
            canon.push(canonical);
        }
    }
    // Absorption: drop any disjunct implied by another (it contributes nothing).
    let mut keep = vec![true; canon.len()];
    for i in 0..canon.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..canon.len() {
            if i == j || !keep[j] {
                continue;
            }
            // If disjunct i implies disjunct j, then i ⊆ j and i can be dropped.
            if canon[i].entails::<T>(canon[j].atoms()) {
                keep[i] = false;
                break;
            }
        }
    }
    canon
        .into_iter()
        .zip(keep)
        .filter_map(|(c, k)| if k { Some(c) } else { None })
        .collect()
}

/// Simplifies a bare DNF (compatibility wrapper over [`simplify_tuples`]).
#[must_use]
pub fn simplify_dnf<T: Theory>(dnf: Dnf<T::A>) -> Dnf<T::A> {
    simplify_tuples::<T>(dnf.into_iter().map(GenTuple::new).collect())
        .into_iter()
        .map(GenTuple::into_atoms)
        .collect()
}

/// Negates a disjunction of generalized tuples, returning the complement.
///
/// `¬(C₁ ∨ … ∨ Cₘ) = ¬C₁ ∧ … ∧ ¬Cₘ`, where each `¬Cᵢ` is the disjunction of the
/// (atomic) negations of its atoms; the conjunction of disjunctions is redistributed
/// into DNF with unsatisfiable branches pruned eagerly.  Each candidate's
/// satisfiability check seeds the context cache that the per-round
/// simplification then reuses for canonicalization and absorption.
#[must_use]
pub fn negate_tuples<T: Theory>(tuples: &[GenTuple<T::A>]) -> Vec<GenTuple<T::A>> {
    conjoin_negation::<T>(vec![GenTuple::universal()], tuples)
}

/// Conjoins `¬(t₁ ∨ … ∨ tₘ)` onto a seed DNF: for each negated tuple the
/// accumulated disjuncts are extended by one negated atom at a time, with
/// unsatisfiable branches pruned eagerly and each round simplified.  Shared by
/// [`negate_tuples`] (seed = the universal tuple) and the residual computation
/// behind difference/containment (seed = the tuple being covered), so the
/// pruning and simplification policy cannot drift between them.
fn conjoin_negation<'a, T: Theory>(
    seed: Vec<GenTuple<T::A>>,
    negated: impl IntoIterator<Item = &'a GenTuple<T::A>>,
) -> Vec<GenTuple<T::A>>
where
    T::A: 'a,
{
    let mut acc = seed;
    for tuple in negated {
        let mut next: Vec<GenTuple<T::A>> = Vec::new();
        for prefix in &acc {
            for atom in tuple.atoms() {
                for neg in atom.negate() {
                    let mut atoms = prefix.atoms().to_vec();
                    atoms.push(neg);
                    let candidate = GenTuple::new(atoms);
                    if candidate.is_satisfiable::<T>() {
                        next.push(candidate);
                    }
                }
            }
        }
        acc = simplify_tuples::<T>(next);
        if acc.is_empty() {
            return Vec::new();
        }
    }
    acc
}

/// Eliminates a list of variables from a generalized tuple by repeated
/// single-variable elimination; the first round reuses the tuple's cached
/// context.
#[must_use]
pub fn eliminate_tuple<T: Theory>(vars: &[Var], tuple: &GenTuple<T::A>) -> Vec<GenTuple<T::A>> {
    let mut tuples: Vec<GenTuple<T::A>> = vec![tuple.clone()];
    for v in vars {
        let mut next: Vec<GenTuple<T::A>> = Vec::new();
        for t in &tuples {
            if !t.is_satisfiable::<T>() {
                continue;
            }
            next.extend(
                t.with_ctx::<T, _>(|ctx| T::ctx_eliminate(ctx, v))
                    .into_iter()
                    .map(GenTuple::new),
            );
        }
        tuples = next;
    }
    tuples.retain(|t| t.is_satisfiable::<T>());
    tuples
}

/// Minimum estimated **candidate pairs** per worker before the parallel join
/// path engages — below this, thread spawn overhead dominates and the serial
/// path is used regardless of the configured thread count.  Unlike the old
/// `16 tuples/worker` gate, the threshold is stats-driven: the join estimates
/// its candidate-pair count per pruning strategy (bucket sizes for pin-hash,
/// index population for the sweep, `n·m` for the scan), so small instances
/// whose pruned pair space is tiny stay serial even at high thread budgets.
const JOIN_WORK_PER_WORKER: usize = 1024;

/// Minimum estimated **atom·variable eliminations** per worker before the
/// parallel projection path engages.  Calibrated against the `join_index`
/// bench's parallel-gate guards: intermediate relations of a few dozen
/// tuples must stay serial (their eliminations finish before a worker pool
/// amortizes), so the floor corresponds to a ≳128-tuple, several-atom
/// relation per worker.
const PROJ_WORK_PER_WORKER: usize = 1024;

/// Effective worker count for `items` independent units carrying an estimated
/// `work` basic operations, gated at `work_per_worker` operations per worker.
fn worker_count(threads: usize, items: usize, work: usize, work_per_worker: usize) -> usize {
    threads.min(work / work_per_worker.max(1)).min(items).max(1)
}

/// Whether two constant envelopes are provably disjoint on one side: `hi` the
/// upper bound of one envelope, `lo` the lower bound of the other.  `true`
/// guarantees no rational satisfies both; exact on strictness (touching
/// endpoints separate only when at least one side is strict).
fn separated(hi: &Bound<Rat>, lo: &Bound<Rat>) -> bool {
    match (hi, lo) {
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => false,
        (Bound::Included(h), Bound::Included(l)) => h < l,
        (Bound::Included(h) | Bound::Excluded(h), Bound::Included(l) | Bound::Excluded(l)) => {
            h <= l
        }
    }
}

/// A constant envelope on one column: `None` on a side means unbounded.
type Envelope = (Bound<Rat>, Bound<Rat>);

/// The endpoint value of a finite bound as `f64`, for the parallel gate's
/// work estimates (never used for correctness decisions).
fn bound_f64(b: &Bound<Rat>) -> Option<f64> {
    match b {
        Bound::Unbounded => None,
        Bound::Included(v) | Bound::Excluded(v) => Some(v.to_f64()),
    }
}

/// Discards envelopes that constrain nothing (both sides unbounded).
fn nontrivial(env: Envelope) -> Option<Envelope> {
    match env {
        (Bound::Unbounded, Bound::Unbounded) => None,
        e => Some(e),
    }
}

/// The lower-endpoint sort key of an envelope: `None` (sorting first) for an
/// unbounded lower side, otherwise the endpoint value.  Strictness is ignored
/// here — the sweep's prefix cut is value-level and the exact [`separated`]
/// test runs per candidate.
fn lower_key(env: &Envelope) -> Option<&Rat> {
    match &env.0 {
        Bound::Unbounded => None,
        Bound::Included(v) | Bound::Excluded(v) => Some(v),
    }
}

/// A per-column sorted-endpoint interval index over one relation's tuples,
/// built from the constant envelopes ([`Theory::ctx_bounds`]) the cached
/// canonical contexts entail for the column.
///
/// The index answers *interval stabbing* queries: given a query envelope, it
/// returns exactly the tuples whose envelope on the column overlaps it (plus
/// the envelope-free wildcards), in ascending tuple order.  Tuples it prunes
/// have provably disjoint envelopes, hence jointly unsatisfiable conjunctions
/// — they would be dropped by canonicalization anyway, so pruning them never
/// changes the join result, only the work.
#[derive(Debug)]
struct ColumnIndex {
    /// Per-tuple envelope (`None` = no usable bounds; tuple is a wildcard).
    bounds: Vec<Option<Envelope>>,
    /// Indices of enveloped tuples, sorted by lower endpoint ascending
    /// (unbounded-below first), ties by tuple index.
    by_lower: Vec<usize>,
    /// Lower-endpoint values parallel to `by_lower` (`None` = unbounded),
    /// kept flat so the prefix cut is one cache-friendly binary search.
    lower_keys: Vec<Option<Rat>>,
    /// Tuples without a usable envelope — always candidates.
    unbounded: Vec<usize>,
    /// Average width of the two-sided envelopes, as `f64` (0 when none) —
    /// feeds the parallel gate's expected-candidate estimate only.
    avg_width: f64,
    /// Width of the span covered by the two-sided envelopes (0 when none).
    span: f64,
}

impl ColumnIndex {
    fn build<T: Theory>(tuples: &[GenTuple<T::A>], var: &Var) -> ColumnIndex {
        let mut bounds: Vec<Option<Envelope>> = Vec::with_capacity(tuples.len());
        let mut by_lower: Vec<usize> = Vec::new();
        let mut unbounded: Vec<usize> = Vec::new();
        for (j, t) in tuples.iter().enumerate() {
            let env = t
                .with_ctx::<T, _>(|ctx| T::ctx_bounds(ctx, var))
                .and_then(nontrivial);
            match env {
                Some(e) => {
                    by_lower.push(j);
                    bounds.push(Some(e));
                }
                None => {
                    unbounded.push(j);
                    bounds.push(None);
                }
            }
        }
        by_lower.sort_by(|&a, &b| {
            let (ka, kb) = (
                bounds[a].as_ref().and_then(lower_key),
                bounds[b].as_ref().and_then(lower_key),
            );
            ka.cmp(&kb).then(a.cmp(&b))
        });
        let lower_keys = by_lower
            .iter()
            .map(|&j| bounds[j].as_ref().and_then(lower_key).cloned())
            .collect();
        let (mut lo_min, mut hi_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut width_sum, mut widths) = (0.0f64, 0usize);
        for env in bounds.iter().flatten() {
            if let (Some(lo), Some(hi)) = (bound_f64(&env.0), bound_f64(&env.1)) {
                lo_min = lo_min.min(lo);
                hi_max = hi_max.max(hi);
                width_sum += (hi - lo).max(0.0);
                widths += 1;
            }
        }
        ColumnIndex {
            bounds,
            by_lower,
            lower_keys,
            unbounded,
            avg_width: if widths == 0 {
                0.0
            } else {
                width_sum / widths as f64
            },
            span: if hi_max > lo_min {
                hi_max - lo_min
            } else {
                0.0
            },
        }
    }

    /// Expected number of candidates a sweep with `query` returns, assuming
    /// envelopes spread uniformly over the indexed span — the parallel
    /// gate's work estimate.  Half-open queries (or a degenerate span) fall
    /// back to the whole enveloped population.
    fn expected_candidates(&self, query: &Envelope) -> usize {
        let hits = match (bound_f64(&query.0), bound_f64(&query.1)) {
            (Some(lo), Some(hi)) if self.span > 0.0 => {
                let frac = (((hi - lo).max(0.0) + self.avg_width) / self.span).min(1.0);
                (self.enveloped() as f64 * frac).ceil() as usize
            }
            _ => self.enveloped(),
        };
        hits + self.unbounded.len()
    }

    /// Collects into `out` the indices of all tuples whose envelope overlaps
    /// the query envelope, plus the wildcards, in **ascending** index order —
    /// so every candidate-enumeration path of the join yields the same order
    /// and the result is bit-identical across strategies and thread counts.
    fn sweep_into(&self, query: &Envelope, out: &mut Vec<usize>) {
        let (qlo, qhi) = query;
        // Prefix cut: entries whose lower endpoint *value* exceeds the query's
        // upper value are disjoint regardless of strictness; the survivors get
        // the exact per-candidate separation test below.
        let prefix = match qhi {
            Bound::Unbounded => self.by_lower.len(),
            Bound::Included(v) | Bound::Excluded(v) => self
                .lower_keys
                .partition_point(|k| k.as_ref().is_none_or(|lk| lk <= v)),
        };
        for &j in &self.by_lower[..prefix] {
            let (tlo, thi) = self.bounds[j]
                .as_ref()
                .expect("enveloped tuple listed in by_lower");
            if separated(thi, qlo) || separated(qhi, tlo) {
                continue;
            }
            out.push(j);
        }
        out.extend_from_slice(&self.unbounded);
        out.sort_unstable();
    }

    /// Number of enveloped tuples (the population the sweep can prune).
    fn enveloped(&self) -> usize {
        self.by_lower.len()
    }
}

/// Lazily built per-column interval indexes of one relation, cached beside the
/// tuples.  Relations are immutable, so invalidation is construction-only:
/// constructors that produce a fresh tuple list start with an empty cache,
/// while `clone`/`with_columns`/`rename` — which preserve the tuple list
/// positionally — share the already built indexes too.  A [`ColumnIndex`]
/// stores only positional rational data (envelopes, endpoint orders), never
/// variable names, so a renamed alias reads and populates the same cache
/// through its stable *index names* (see [`Relation`]).
#[derive(Debug, Default)]
struct IndexCache {
    columns: Mutex<HashMap<Var, Arc<ColumnIndex>>>,
}

thread_local! {
    /// Column indexes built (cache misses) on this thread.
    static INDEX_BUILDS: Cell<u64> = const { Cell::new(0) };
    /// Column index cache hits on this thread.
    static INDEX_REUSES: Cell<u64> = const { Cell::new(0) };
    /// Joins resolved per strategy on this thread, indexed as pin-hash /
    /// index-sweep / box-sweep / scan / mixed.  The strategy is decided on
    /// the coordinating thread after worker counters merge, so the tallies
    /// are complete (and thread-count invariant) however wide the join ran.
    static JOIN_STRATEGIES: Cell<[u64; 5]> = const { Cell::new([0; 5]) };
    /// Containment-kernel work on this thread, indexed as entailed /
    /// screened out / negated (see [`containment_counters`]).
    static CONTAINMENT: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
}

/// This thread's cumulative `(built, reused)` column-index counters.
///
/// A *build* is a cache miss in a relation's lazy per-column index cache (the
/// sorted-endpoint construction actually ran); a *reuse* is a hit — including
/// hits through renamed or re-columned aliases of the same tuple list, and
/// across Datalog fixpoint rounds re-joining an unchanged stored relation.
/// Counters are thread-local so tests and single-threaded sessions observe
/// exactly their own joins; callers wanting a window take two snapshots and
/// subtract.
#[must_use]
pub fn column_index_counters() -> (u64, u64) {
    (INDEX_BUILDS.with(Cell::get), INDEX_REUSES.with(Cell::get))
}

/// This thread's cumulative `(entailed, screened_out, negated)` containment
/// counters — the work behind [`Relation::covers_tuple`],
/// [`Relation::subset_of`], [`Relation::difference`] and
/// [`Relation::equivalent`]:
///
/// * *entailed*: residual computations answered empty by the fast path (the
///   candidate entails one stored tuple, so nothing of it is left);
/// * *screened_out*: stored tuples skipped because their cached context is
///   provably incompatible with the candidate's (disjoint, so negating them
///   cannot remove a point);
/// * *negated*: stored tuples whose negation was actually distributed
///   across the candidate.
///
/// Like [`column_index_counters`], the counters are thread-local and
/// cumulative — callers wanting a window take two snapshots and subtract.
#[must_use]
pub fn containment_counters() -> (u64, u64, u64) {
    let [entailed, screened_out, negated] = CONTAINMENT.with(Cell::get);
    (entailed, screened_out, negated)
}

/// This thread's cumulative per-strategy join tallies: one count per
/// [`JoinStrategy`] a [`Relation::join_with_report`] run resolved to.
///
/// Like [`column_index_counters`], the tallies are thread-local (the strategy
/// is recorded on the coordinating thread, so parallel joins count exactly
/// once) and cumulative — callers wanting a window take two snapshots and
/// diff with [`JoinStrategyCounts::since`].
#[must_use]
pub fn join_strategy_counters() -> JoinStrategyCounts {
    let [pin_hash, index_sweep, box_sweep, scan, mixed] = JOIN_STRATEGIES.with(Cell::get);
    JoinStrategyCounts {
        pin_hash,
        index_sweep,
        box_sweep,
        scan,
        mixed,
    }
}

/// Bumps this thread's tally for one resolved join strategy.
fn record_join_strategy(strategy: JoinStrategy) {
    let slot = match strategy {
        JoinStrategy::PinHash => 0,
        JoinStrategy::IndexSweep => 1,
        JoinStrategy::BoxSweep => 2,
        JoinStrategy::Scan => 3,
        JoinStrategy::Mixed => 4,
    };
    JOIN_STRATEGIES.with(|c| {
        let mut counts = c.get();
        counts[slot] += 1;
        c.set(counts);
    });
}

/// Adds one residual computation's `[entailed, screened_out, negated]` to
/// this thread's containment counters.
fn record_containment(work: [u64; 3]) {
    CONTAINMENT.with(|c| {
        let mut counts = c.get();
        for (count, add) in counts.iter_mut().zip(work) {
            *count += add;
        }
        c.set(counts);
    });
}

/// How the join treats one left tuple on the shared bucket column.
enum LeftKind {
    /// Pinned to a constant: meets only the matching hash bucket + wildcards.
    Pinned(Rat),
    /// Carries a constant envelope: meets only the overlap-feasible tuples
    /// found by the right side's sorted-endpoint interval index.
    Bounded(Envelope),
    /// No constant information: meets every right tuple.
    Wild,
}

/// Join outputs tagged with their originating left-tuple index, so parallel
/// partitions can be merged back into the serial (left-order) sequence.
type TaggedTuples<A> = Vec<(usize, GenTuple<A>)>;

/// Per-strategy tallies of one join run (left tuples classified, candidate
/// pairs that reached [`Theory::ctx_compatible`]).
#[derive(Clone, Copy, Debug, Default)]
struct JoinCounters {
    pinned: usize,
    bounded: usize,
    wild: usize,
    /// Left tuples whose candidates were additionally pruned by the
    /// second-column (bounding-box) envelope filter.
    boxed: usize,
    candidate_pairs: usize,
}

impl JoinCounters {
    fn absorb(&mut self, other: &JoinCounters) {
        self.pinned += other.pinned;
        self.bounded += other.bounded;
        self.wild += other.wild;
        self.boxed += other.boxed;
        self.candidate_pairs += other.candidate_pairs;
    }
}

/// The candidate-pruning strategy a join ran with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Every left tuple carried a constant envelope: candidates came from the
    /// sorted-endpoint interval sweep.
    IndexSweep,
    /// Every left tuple was pinned to a constant: candidates came from hash
    /// buckets (the degenerate zero-width envelope case).
    PinHash,
    /// The sweep (or hash probe) on the first shared column was refined by a
    /// second shared column's envelope index — the two-column bounding-box
    /// case of spatial workloads.
    BoxSweep,
    /// No constant information (or no shared column): full pairwise scan.
    Scan,
    /// Left tuples of different kinds (or several folded joins disagreeing).
    Mixed,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinStrategy::IndexSweep => "index-sweep",
            JoinStrategy::PinHash => "pin-hash",
            JoinStrategy::BoxSweep => "box-sweep",
            JoinStrategy::Scan => "scan",
            JoinStrategy::Mixed => "mixed",
        })
    }
}

/// What one join did: the strategy and how much of the quadratic pair space
/// actually reached the compatibility filter.  [`JoinReport::absorb`] folds
/// reports of successive joins (a multi-way join folds pairwise), so `EXPLAIN`
/// can annotate one plan node with the aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinReport {
    /// The pruning strategy (uniform kind, or [`JoinStrategy::Mixed`]).
    pub strategy: JoinStrategy,
    /// Candidate pairs that reached [`Theory::ctx_compatible`].
    pub candidate_pairs: usize,
    /// The full pair space `n·m` the pruning was up against.
    pub total_pairs: usize,
}

impl JoinReport {
    /// Folds another join's report into this one (summed pair counts; the
    /// strategy stays when both agree and degrades to `Mixed` otherwise).
    pub fn absorb(&mut self, other: &JoinReport) {
        if self.strategy != other.strategy {
            self.strategy = JoinStrategy::Mixed;
        }
        self.candidate_pairs += other.candidate_pairs;
        self.total_pairs += other.total_pairs;
    }
}

impl fmt::Display for JoinReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}/{} pairs",
            self.strategy, self.candidate_pairs, self.total_pairs
        )
    }
}

/// Produces the join candidates of one partition of left tuples against the
/// (bucketed and index-carrying) right side; shared by the serial and parallel
/// join paths so the pruning policy cannot drift between them.  `order` lists
/// the *original* left indices to process, in processing order; each output
/// tuple is tagged with its left index so the parallel path can restore the
/// serial output order exactly.  All three candidate sources (hash bucket,
/// index sweep, full scan) yield right indices in ascending order, so the
/// output is the nested-loop order minus provably unsatisfiable pairs —
/// bit-identical across strategies and thread counts after simplification.
/// With `warm`, every candidate's canonical context and form are computed
/// here — in the parallel path this is the worker's real job, leaving the
/// caller's sequential simplification pass nothing but cache lookups.
///
/// When the relations share a **second** column, `box_ix` carries the right
/// side's envelope index on it and `box_envs` the left tuples' envelopes:
/// candidates whose second-column envelopes are provably disjoint from the
/// left's are dropped before the compatibility filter (the bounding-box
/// refinement).  The filter preserves ascending candidate order and only
/// removes pairs whose merged conjunction is unsatisfiable — which the final
/// simplification would prune anyway — so output stays bit-identical.
#[allow(clippy::too_many_arguments)]
fn join_partition<T: Theory>(
    left: &[GenTuple<T::A>],
    order: &[usize],
    classes: &[LeftKind],
    right: &[GenTuple<T::A>],
    buckets: &BTreeMap<Rat, Vec<usize>>,
    wild: &[usize],
    all: &[usize],
    index: Option<&ColumnIndex>,
    box_ix: Option<&ColumnIndex>,
    box_envs: &[Option<Envelope>],
    warm: bool,
    out: &mut Vec<(usize, GenTuple<T::A>)>,
    counters: &mut JoinCounters,
) {
    // One scratch buffer for the whole partition, pre-sized from the bucket
    // stats: the largest hash bucket plus the wildcards bounds the pin-hash
    // candidate count, the index population bounds the sweep's.
    let cap = buckets
        .values()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .max(index.map_or(0, |ix| ix.enveloped()))
        + wild.len()
        + index.map_or(0, |ix| ix.unbounded.len());
    let mut candidates: Vec<usize> = Vec::with_capacity(cap.min(right.len()));
    let mut boxed: Vec<usize> = Vec::new();
    let first = out.len();
    for &i in order {
        let a = &left[i];
        let rhs: &[usize] = if classes.is_empty() {
            counters.wild += 1;
            all
        } else {
            match &classes[i] {
                // Pinned left tuple: only the matching bucket and the
                // wildcards can be jointly satisfiable (a tuple pinning
                // the shared column to a different constant conflicts).
                LeftKind::Pinned(c) => {
                    counters.pinned += 1;
                    candidates.clear();
                    if let Some(bucket) = buckets.get(c) {
                        candidates.extend_from_slice(bucket);
                    }
                    candidates.extend_from_slice(wild);
                    candidates.sort_unstable();
                    &candidates
                }
                // Enveloped left tuple: sweep the right side's interval index.
                LeftKind::Bounded(env) => {
                    counters.bounded += 1;
                    let ix = index.expect("bounded left tuple without a right index");
                    candidates.clear();
                    ix.sweep_into(env, &mut candidates);
                    &candidates
                }
                LeftKind::Wild => {
                    counters.wild += 1;
                    all
                }
            }
        };
        // Bounding-box refinement: when this left tuple carries an envelope
        // on the second shared column, drop candidates whose envelope there
        // is provably disjoint (ascending order is preserved).
        let rhs: &[usize] = match (box_ix, box_envs.get(i).and_then(Option::as_ref)) {
            (Some(ix2), Some((llo, lhi))) => {
                counters.boxed += 1;
                boxed.clear();
                boxed.extend(rhs.iter().copied().filter(|&j| {
                    ix2.bounds[j]
                        .as_ref()
                        .is_none_or(|(rlo, rhi)| !separated(rhi, llo) && !separated(lhi, rlo))
                }));
                &boxed
            }
            _ => rhs,
        };
        counters.candidate_pairs += rhs.len();
        a.with_ctx::<T, _>(|ca| {
            for &j in rhs {
                let b = &right[j];
                if !b.with_ctx::<T, _>(|cb| T::ctx_compatible(ca, cb)) {
                    continue;
                }
                let mut atoms = a.atoms().to_vec();
                atoms.extend(b.atoms().iter().cloned());
                out.push((i, GenTuple::new(atoms)));
            }
        });
    }
    if warm {
        for (_, t) in &out[first..] {
            if t.is_satisfiable::<T>() {
                let _ = t.canonical::<T>();
            }
        }
    }
}

/// A finitely representable relation: a list of free variables (the relation's
/// columns) and a disjunction of generalized tuples over them.
///
/// The stored tuples are canonical and carry their cached contexts (see
/// [`GenTuple`]); cloning a relation shares every cache.
#[derive(Debug)]
pub struct Relation<T: Theory> {
    vars: Vec<Var>,
    tuples: Vec<GenTuple<T::A>>,
    /// Lazily built per-column interval indexes (see [`ColumnIndex`]); shared
    /// whenever the tuple list is preserved positionally (clone, column
    /// reinterpretation, **rename**), fresh otherwise.
    indexes: Arc<IndexCache>,
    /// The stable names the shared index cache is keyed by, positionally
    /// aligned with `vars` — `None` when they coincide with `vars` (the
    /// common case).  A [`ColumnIndex`] holds only positional rational data,
    /// so a renamed alias keeps serving (and populating) the original cache:
    /// column `i` of the alias looks up `index_names[i]`, not `vars[i]`.
    /// This is what makes index persistence real across Datalog fixpoint
    /// rounds and database commits: re-deriving `R(x, y)` from a stored
    /// relation over `(c0, c1)` every round reuses the index built once.
    index_names: Option<Vec<Var>>,
    // `fn() -> T` (not `T`) so relations are `Send + Sync` whenever the atom
    // type is, independent of the marker theory type — the parallel join and
    // projection paths share relations across `std::thread::scope` workers.
    _theory: PhantomData<fn() -> T>,
}

impl<T: Theory> Clone for Relation<T> {
    fn clone(&self) -> Self {
        Relation {
            vars: self.vars.clone(),
            tuples: self.tuples.clone(),
            indexes: self.indexes.clone(),
            index_names: self.index_names.clone(),
            _theory: PhantomData,
        }
    }
}

impl<T: Theory> Relation<T> {
    /// Builds a relation from generalized tuples, canonicalizing and pruning
    /// unsatisfiable tuples.
    ///
    /// # Panics
    /// Panics if a tuple mentions a variable outside `vars` — the invariant
    /// every later operation (membership, joins, quantifier elimination)
    /// relies on.  Checking here turns what used to be a panic deep inside
    /// point substitution into an immediate construction-time failure; callers
    /// handling untrusted input (file loaders, parsers) should use
    /// [`Relation::try_new`], which reports the same violation as a typed
    /// [`SchemaError`] instead.
    #[must_use]
    pub fn new(vars: Vec<Var>, tuples: Vec<GenTuple<T::A>>) -> Self {
        match Relation::try_new(vars, tuples) {
            Ok(rel) => rel,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a relation from generalized tuples, validating that the column
    /// list is duplicate-free and that every tuple mentions only column
    /// variables, then canonicalizing and pruning unsatisfiable tuples.
    ///
    /// # Errors
    /// Returns [`SchemaError::DuplicateColumn`] if `vars` repeats a variable
    /// (point substitution would silently bind only the last occurrence) and
    /// [`SchemaError::TupleVariableOutsideColumns`] if a tuple mentions a
    /// variable that is not one of `vars`.
    pub fn try_new(vars: Vec<Var>, tuples: Vec<GenTuple<T::A>>) -> Result<Self, SchemaError> {
        for (i, v) in vars.iter().enumerate() {
            if vars[..i].contains(v) {
                return Err(SchemaError::DuplicateColumn {
                    variable: v.to_string(),
                });
            }
        }
        for tuple in &tuples {
            for atom in tuple.atoms() {
                if let Some(loose) = atom.vars().into_iter().find(|v| !vars.contains(v)) {
                    return Err(SchemaError::TupleVariableOutsideColumns {
                        variable: loose.to_string(),
                        columns: vars.iter().map(ToString::to_string).collect(),
                    });
                }
            }
        }
        Ok(Relation::simplified_unchecked(vars, tuples))
    }

    /// Canonicalizes and stores tuples **without** the loose-variable check —
    /// the constructor for the relation algebra's internal operations (join,
    /// projection, complement, …), which maintain the columns-cover-tuples
    /// invariant by construction and sit on the evaluator's hot path.  Debug
    /// builds still assert the invariant, so the test suite would catch an
    /// operation violating it.
    pub(crate) fn simplified_unchecked(vars: Vec<Var>, tuples: Vec<GenTuple<T::A>>) -> Self {
        debug_assert!(
            tuples
                .iter()
                .flat_map(GenTuple::atoms)
                .all(|a| a.vars().iter().all(|v| vars.contains(v))),
            "internal relation construction violated the column invariant"
        );
        Relation {
            vars,
            tuples: simplify_tuples::<T>(tuples),
            indexes: Arc::new(IndexCache::default()),
            index_names: None,
            _theory: PhantomData,
        }
    }

    /// Builds a relation directly from a DNF of conjunctions.
    ///
    /// # Panics
    /// As for [`Relation::new`] when a conjunction mentions a variable outside
    /// `vars`.
    #[must_use]
    pub fn from_dnf(vars: Vec<Var>, dnf: Dnf<T::A>) -> Self {
        Relation::new(vars, dnf.into_iter().map(GenTuple::new).collect())
    }

    /// The empty relation of the given column variables.
    #[must_use]
    pub fn empty(vars: Vec<Var>) -> Self {
        Relation {
            vars,
            tuples: Vec::new(),
            indexes: Arc::new(IndexCache::default()),
            index_names: None,
            _theory: PhantomData,
        }
    }

    /// The universal relation (all of `Qᵏ`) over the given column variables.
    #[must_use]
    pub fn universal(vars: Vec<Var>) -> Self {
        Relation {
            vars,
            tuples: vec![GenTuple::universal()],
            indexes: Arc::new(IndexCache::default()),
            index_names: None,
            _theory: PhantomData,
        }
    }

    /// The column variables.
    #[must_use]
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The arity (number of columns).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// The generalized tuples (canonical, cache-carrying DNF).
    #[must_use]
    pub fn tuples(&self) -> &[GenTuple<T::A>] {
        &self.tuples
    }

    /// The representation as a bare DNF of atom lists (cloned; prefer
    /// [`Relation::tuples`] where the caches matter).
    #[must_use]
    pub fn to_dnf(&self) -> Dnf<T::A> {
        self.tuples.iter().map(|t| t.atoms().to_vec()).collect()
    }

    /// Number of generalized tuples in the representation.
    #[must_use]
    pub fn num_tuples(&self) -> usize {
        self.tuples.len()
    }

    /// Total number of constraint atoms in the representation — the `n` of
    /// Lemma 6.10 ("counting multiple occurrences of a constraint in distinct
    /// tuples").
    #[must_use]
    pub fn num_atoms(&self) -> usize {
        self.tuples.iter().map(|t| t.atoms().len()).sum()
    }

    /// Returns `true` iff the relation is (semantically) empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All constants occurring in the representation (the active domain used by the
    /// encoding of Section 6).
    #[must_use]
    pub fn constants(&self) -> BTreeSet<Rat> {
        self.tuples.iter().flat_map(GenTuple::constants).collect()
    }

    /// Membership of a point (Proposition 2.4: decidable by evaluating the
    /// quantifier-free representation).
    ///
    /// # Panics
    /// Panics if the point's length differs from the arity.
    #[must_use]
    pub fn contains(&self, point: &[Rat]) -> bool {
        assert_eq!(point.len(), self.arity(), "point arity mismatch");
        let map: BTreeMap<&Var, &Rat> = self.vars.iter().zip(point.iter()).collect();
        let assignment = |v: &Var| {
            map.get(v).map(|r| (*r).clone()).unwrap_or_else(|| {
                panic!("tuple mentions variable {v} outside the relation's columns")
            })
        };
        self.tuples.iter().any(|c| c.eval(&assignment))
    }

    /// Union with another relation over the same columns.
    ///
    /// # Panics
    /// Panics if the column variables differ.
    #[must_use]
    pub fn union(&self, other: &Relation<T>) -> Relation<T> {
        assert_eq!(
            self.vars, other.vars,
            "union of relations over different columns"
        );
        // Union with the empty relation is the identity — return the alias
        // so its tuple caches *and* built column indexes survive (a Datalog
        // round deriving nothing new keeps the stored relation's indexes).
        if other.tuples.is_empty() {
            return self.clone();
        }
        if self.tuples.is_empty() {
            return other.clone();
        }
        let mut tuples = self.tuples.clone();
        tuples.extend(other.tuples.iter().cloned());
        Relation::simplified_unchecked(self.vars.clone(), tuples)
    }

    /// Intersection with another relation over the same columns.
    ///
    /// # Panics
    /// Panics if the column variables differ.
    #[must_use]
    pub fn intersect(&self, other: &Relation<T>) -> Relation<T> {
        assert_eq!(
            self.vars, other.vars,
            "intersection of relations over different columns"
        );
        self.join(other)
    }

    /// The lazily built sorted-endpoint interval index of one column, shared
    /// through the relation's construction-scoped cache (relations are
    /// immutable, so a built index stays valid for the relation's lifetime
    /// and for every [`Relation::clone`]/[`Relation::with_columns`]/
    /// [`Relation::rename`] alias).  Lookups go through the column's stable
    /// *index name* (see the `index_names` field), so a renamed alias and the
    /// original relation hit the same entries: whoever builds first, everyone
    /// reuses.  The thread-local build/reuse tallies feed
    /// [`column_index_counters`].
    fn column_index(&self, var: &Var) -> Arc<ColumnIndex> {
        let key: &Var = match &self.index_names {
            None => var,
            Some(names) => {
                let pos = self
                    .vars
                    .iter()
                    .position(|v| v == var)
                    .expect("column_index of a non-column variable");
                &names[pos]
            }
        };
        let mut columns = self
            .indexes
            .columns
            .lock()
            .expect("column index cache poisoned");
        if let Some(ix) = columns.get(key) {
            INDEX_REUSES.with(|c| c.set(c.get() + 1));
            return ix.clone();
        }
        // Built from *this* alias's tuples and variable name — positionally
        // identical envelope data to what any other alias would build, since
        // renaming is a bijective variable substitution.
        let ix = Arc::new(ColumnIndex::build::<T>(&self.tuples, var));
        columns.insert(key.clone(), ix.clone());
        INDEX_BUILDS.with(|c| c.set(c.get() + 1));
        ix
    }

    /// Natural join with another relation: the columns are the union of the
    /// two column lists (`self`'s order first), and a tuple pair contributes
    /// the conjunction of its atoms.
    ///
    /// Three layers of pruning run off the **cached** tuple contexts, with no
    /// context construction in the inner loop:
    ///
    /// 1. **Hash partitioning** — when the relations share a column, right
    ///    tuples are bucketed by the constant that column is pinned to
    ///    ([`Theory::ctx_pinned`]); a pinned left tuple meets only the
    ///    matching bucket plus the unpinned wildcards, so finite (point-like)
    ///    relations join in near-linear time instead of the quadratic pair
    ///    space.
    /// 2. **Interval sweeping** — a left tuple whose context entails a
    ///    constant *envelope* on the shared column ([`Theory::ctx_bounds`])
    ///    queries the right side's lazily built sorted-endpoint column
    ///    index: only overlap-feasible pairs survive, so
    ///    range-constrained (dense-order) workloads do output-proportional
    ///    work.  Pin-hash is the degenerate zero-width case of this.
    /// 3. **Compatibility filtering** — every surviving pair is screened by
    ///    [`Theory::ctx_compatible`] (for dense order: strict-cycle detection
    ///    across the two closures), dropping visibly conflicting pairs before
    ///    the merged conjunction is built.
    ///
    /// Pairs passing the filters are canonicalized once by the final
    /// simplification, which also seeds the joined tuples' caches for
    /// downstream operators.
    #[must_use]
    pub fn join(&self, other: &Relation<T>) -> Relation<T> {
        self.join_with(other, 1)
    }

    /// [`Relation::join`] with an explicit worker-thread budget (see
    /// [`Relation::join_with_report`], discarding the report).
    #[must_use]
    pub fn join_with(&self, other: &Relation<T>, threads: usize) -> Relation<T> {
        self.join_with_report(other, threads).0
    }

    /// [`Relation::join`] with an explicit worker-thread budget, also
    /// returning a [`JoinReport`] of the pruning strategy that ran and the
    /// candidate-pair count it left for the compatibility filter.
    ///
    /// When the estimated candidate work is large enough to amortize thread
    /// spawns, the left tuples are split across a `std::thread::scope` pool.
    /// The parallel processing order sorts left tuples by their envelope's
    /// lower endpoint, so each worker's index sweeps land on a contiguous
    /// range of the right index (locality) — outputs are tagged with their
    /// left index and re-sorted, so the result is **bit-identical** to the
    /// serial join at any thread count.  Workers also **pre-saturate** their
    /// candidates' canonical contexts — the expensive part of the join — so
    /// the final sequential simplification pass costs only cache lookups.
    #[must_use]
    pub fn join_with_report(
        &self,
        other: &Relation<T>,
        threads: usize,
    ) -> (Relation<T>, JoinReport) {
        let mut vars = self.vars.clone();
        for v in other.vars() {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
        let (n, m) = (self.tuples.len(), other.tuples.len());
        // Partition the right side by the pinned value of the first shared
        // column (if any): `wild` holds the tuples that do not pin it.  Left
        // tuples are classified once: pinned, enveloped, or wildcard.
        let bucket_var = self.vars.iter().find(|v| other.vars.contains(v));
        let mut buckets: BTreeMap<Rat, Vec<usize>> = BTreeMap::new();
        let mut wild: Vec<usize> = Vec::new();
        let mut classes: Vec<LeftKind> = Vec::new();
        if let Some(bv) = bucket_var {
            for (j, b) in other.tuples.iter().enumerate() {
                match b.with_ctx::<T, _>(|cb| T::ctx_pinned(cb, bv)) {
                    Some(c) => buckets.entry(c).or_default().push(j),
                    None => wild.push(j),
                }
            }
            classes = self
                .tuples
                .iter()
                .map(|a| {
                    a.with_ctx::<T, _>(|ca| {
                        if let Some(c) = T::ctx_pinned(ca, bv) {
                            return LeftKind::Pinned(c);
                        }
                        match T::ctx_bounds(ca, bv).and_then(nontrivial) {
                            Some(env) => LeftKind::Bounded(env),
                            None => LeftKind::Wild,
                        }
                    })
                })
                .collect();
        }
        // The right-side interval index is built (or fetched from the cache)
        // only when some left tuple can actually use it.
        let index: Option<Arc<ColumnIndex>> = match bucket_var {
            Some(bv) if classes.iter().any(|k| matches!(k, LeftKind::Bounded(_))) => {
                Some(other.column_index(bv))
            }
            _ => None,
        };
        // Second shared column (the bounding-box case of spatial workloads):
        // left envelopes on it refine the first column's candidates through
        // the right side's envelope index there.  Engaged only when a left
        // tuple actually carries a second-column envelope.
        let box_var = bucket_var.and_then(|bv| {
            self.vars
                .iter()
                .find(|v| *v != bv && other.vars.contains(v))
        });
        let box_envs: Vec<Option<Envelope>> = match box_var {
            Some(bv2) if !classes.is_empty() => self
                .tuples
                .iter()
                .map(|a| a.with_ctx::<T, _>(|ca| T::ctx_bounds(ca, bv2).and_then(nontrivial)))
                .collect(),
            _ => Vec::new(),
        };
        let box_index: Option<Arc<ColumnIndex>> = match box_var {
            Some(bv2) if box_envs.iter().any(Option::is_some) => Some(other.column_index(bv2)),
            _ => None,
        };
        // A pinned left is the zero-width case of a bounded one.  Its bucket
        // path forwards the matching bucket plus *every* non-pinned right as
        // a candidate, while a zero-width sweep forwards only the rights
        // whose envelope contains the constant plus the envelope-free
        // leftovers — always a subset.  So once the index exists, pinned
        // lefts sweep too whenever the sweep prunes strictly more (there are
        // non-pinned rights that do carry envelopes); in point-only
        // workloads (`wild == unbounded`) the hash probe stays, as the sweep
        // would return the same set for a prefix-scan price.
        if let Some(ix) = &index {
            if wild.len() > ix.unbounded.len() {
                for k in &mut classes {
                    if let LeftKind::Pinned(c) = k {
                        let env = (Bound::Included(c.clone()), Bound::Included(c.clone()));
                        *k = LeftKind::Bounded(env);
                    }
                }
            }
        }
        let all: Vec<usize> = (0..m).collect();
        // Estimated candidate pairs per strategy — the stats-driven parallel
        // gate (replacing the old fixed tuples-per-worker threshold).
        let work: usize = if bucket_var.is_none() {
            n.saturating_mul(m)
        } else {
            classes
                .iter()
                .map(|k| match k {
                    LeftKind::Pinned(c) => buckets.get(c).map_or(0, Vec::len) + wild.len(),
                    LeftKind::Bounded(env) => {
                        index.as_ref().map_or(m, |ix| ix.expected_candidates(env))
                    }
                    LeftKind::Wild => m,
                })
                .sum()
        };
        let workers = worker_count(threads, n, work, JOIN_WORK_PER_WORKER);
        let mut counters = JoinCounters::default();
        let tuples: Vec<GenTuple<T::A>> = if workers <= 1 {
            let order: Vec<usize> = (0..n).collect();
            let mut out = Vec::new();
            join_partition::<T>(
                &self.tuples,
                &order,
                &classes,
                &other.tuples,
                &buckets,
                &wild,
                &all,
                index.as_deref(),
                box_index.as_deref(),
                &box_envs,
                false,
                &mut out,
                &mut counters,
            );
            out.into_iter().map(|(_, t)| t).collect()
        } else {
            // Sorted-endpoint range partitioning: workers take contiguous
            // slices of the lefts ordered by envelope lower endpoint (pinned
            // constants are zero-width envelopes, wildcards go last), so each
            // worker's sweeps touch a contiguous prefix region of the index.
            let mut order: Vec<usize> = (0..n).collect();
            if !classes.is_empty() {
                fn endpoint(k: &LeftKind) -> (u8, Option<&Rat>) {
                    match k {
                        LeftKind::Pinned(c) => (0, Some(c)),
                        LeftKind::Bounded(env) => (0, lower_key(env)),
                        LeftKind::Wild => (1, None),
                    }
                }
                order.sort_by(|&a, &b| {
                    endpoint(&classes[a])
                        .cmp(&endpoint(&classes[b]))
                        .then(a.cmp(&b))
                });
            }
            let chunk = n.div_ceil(workers);
            let parts: Vec<(TaggedTuples<T::A>, JoinCounters)> = std::thread::scope(|s| {
                let handles: Vec<_> = order
                    .chunks(chunk)
                    .map(|slice| {
                        let (classes, buckets, wild, all) = (&classes, &buckets, &wild, &all);
                        let (lhs, rhs) = (&self.tuples, &other.tuples);
                        let index = index.as_deref();
                        let box_index = box_index.as_deref();
                        let box_envs = &box_envs;
                        s.spawn(move || {
                            let mut out = Vec::new();
                            let mut counters = JoinCounters::default();
                            join_partition::<T>(
                                lhs,
                                slice,
                                classes,
                                rhs,
                                buckets,
                                wild,
                                all,
                                index,
                                box_index,
                                box_envs,
                                true,
                                &mut out,
                                &mut counters,
                            );
                            (out, counters)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("join worker panicked"))
                    .collect()
            });
            let mut out: Vec<(usize, GenTuple<T::A>)> = Vec::new();
            for (part, part_counters) in parts {
                counters.absorb(&part_counters);
                out.extend(part);
            }
            // Stable sort by left index restores the serial output order
            // (each left's candidates were already emitted ascending).
            out.sort_by_key(|(i, _)| *i);
            out.into_iter().map(|(_, t)| t).collect()
        };
        let strategy = match (counters.pinned > 0, counters.bounded > 0, counters.wild > 0) {
            (true, false, false) => JoinStrategy::PinHash,
            (false, true, false) => JoinStrategy::IndexSweep,
            (false, false, _) => JoinStrategy::Scan,
            _ => JoinStrategy::Mixed,
        };
        // The bounding-box refinement upgrades a uniform constant-driven
        // strategy; mixed and scan stay what they are.
        let strategy = if counters.boxed > 0
            && matches!(strategy, JoinStrategy::IndexSweep | JoinStrategy::PinHash)
        {
            JoinStrategy::BoxSweep
        } else {
            strategy
        };
        record_join_strategy(strategy);
        let report = JoinReport {
            strategy,
            candidate_pairs: counters.candidate_pairs,
            total_pairs: n.saturating_mul(m),
        };
        (Relation::simplified_unchecked(vars, tuples), report)
    }

    /// The reference pairwise-scan join: every `n·m` pair reaches the
    /// compatibility filter, with no hash or index pruning.  Serves as the
    /// correctness oracle for the indexed join (exact same output, including
    /// tuple order) and as the index-off baseline in the join benchmarks.
    #[must_use]
    pub fn join_scan(&self, other: &Relation<T>) -> Relation<T> {
        let mut vars = self.vars.clone();
        for v in other.vars() {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
        let order: Vec<usize> = (0..self.tuples.len()).collect();
        let all: Vec<usize> = (0..other.tuples.len()).collect();
        let buckets = BTreeMap::new();
        let mut out = Vec::new();
        let mut counters = JoinCounters::default();
        join_partition::<T>(
            &self.tuples,
            &order,
            &[],
            &other.tuples,
            &buckets,
            &[],
            &all,
            None,
            None,
            &[],
            false,
            &mut out,
            &mut counters,
        );
        Relation::simplified_unchecked(vars, out.into_iter().map(|(_, t)| t).collect())
    }

    /// Projects the listed columns *out* of the relation by quantifier
    /// elimination (`∃ drop . self`), keeping the remaining columns in order.
    /// Variables in `drop` that are not columns are eliminated from the tuples
    /// all the same (a no-op for tuples that do not mention them), so plans
    /// may project away variables contributed only by pruned sub-plans.
    #[must_use]
    pub fn project_out(&self, drop: &[Var]) -> Relation<T> {
        self.project_out_with(drop, 1)
    }

    /// [`Relation::project_out`] with an explicit worker-thread budget: each
    /// tuple's quantifier elimination is independent, so large relations split
    /// their tuples across a `std::thread::scope` pool (merged in order —
    /// results are bit-identical to the serial path at any thread count).
    #[must_use]
    pub fn project_out_with(&self, drop: &[Var], threads: usize) -> Relation<T> {
        if drop.is_empty() {
            return self.clone();
        }
        let keep: Vec<Var> = self
            .vars
            .iter()
            .filter(|v| !drop.contains(v))
            .cloned()
            .collect();
        // Work estimate: each dropped variable revisits every atom of every
        // tuple, so atoms × dropped variables is the unit count the parallel
        // gate weighs against the spawn overhead.
        let work = self.num_atoms().saturating_mul(drop.len());
        let workers = worker_count(threads, self.tuples.len(), work, PROJ_WORK_PER_WORKER);
        let tuples = if workers <= 1 {
            let mut tuples = Vec::new();
            for t in &self.tuples {
                tuples.extend(eliminate_tuple::<T>(drop, t));
            }
            tuples
        } else {
            let chunk = self.tuples.len().div_ceil(workers);
            let parts: Vec<Vec<GenTuple<T::A>>> = std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .tuples
                    .chunks(chunk)
                    .map(|part| {
                        s.spawn(move || {
                            let mut out = Vec::new();
                            for t in part {
                                out.extend(eliminate_tuple::<T>(drop, t));
                            }
                            // Pre-warm the canonical forms the sequential
                            // simplification pass will read.
                            for t in &out {
                                let _ = t.canonical::<T>();
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("projection worker panicked"))
                    .collect()
            });
            parts.concat()
        };
        Relation::simplified_unchecked(keep, tuples)
    }

    /// Reinterprets the relation over a superset (or reordering) of its
    /// columns without touching the tuples: the relation is universal in the
    /// added columns.  Used by the algebra evaluator to align union branches
    /// and join results onto a node's declared column list.
    ///
    /// # Panics
    /// Panics if a current column is missing from `vars`.
    #[must_use]
    pub fn with_columns(&self, vars: Vec<Var>) -> Relation<T> {
        assert!(
            self.vars.iter().all(|v| vars.contains(v)),
            "with_columns must keep every existing column"
        );
        // Same tuple list in the same order — the indexes stay valid, but the
        // stable index names must follow each kept column to its new
        // position; added columns key under their own name.  A fresh column
        // whose name collides with a kept column's hidden index name would
        // alias someone else's entries, so that (rare) case starts clean.
        let names: Vec<Var> = vars
            .iter()
            .map(|v| match self.vars.iter().position(|w| w == v) {
                Some(pos) => match &self.index_names {
                    None => v.clone(),
                    Some(names) => names[pos].clone(),
                },
                None => v.clone(),
            })
            .collect();
        let distinct = names.iter().collect::<HashSet<_>>().len().eq(&names.len());
        let (indexes, index_names) = if distinct {
            let index_names = if names == vars { None } else { Some(names) };
            (self.indexes.clone(), index_names)
        } else {
            (Arc::new(IndexCache::default()), None)
        };
        Relation {
            vars,
            tuples: self.tuples.clone(),
            indexes,
            index_names,
            _theory: PhantomData,
        }
    }

    /// Complement within `Qᵏ` (finitely representable relations are closed under
    /// complement, Section 2.2).
    #[must_use]
    pub fn complement(&self) -> Relation<T> {
        Relation::simplified_unchecked(self.vars.clone(), negate_tuples::<T>(&self.tuples))
    }

    /// The part of a single generalized tuple not covered by this relation:
    /// `tuple ∧ ¬self`.  The negation is distributed tuple by tuple with the
    /// conjunction as a seed, which prunes far more aggressively than computing the
    /// full complement first.
    ///
    /// Two screens run before any negation, both from cached contexts.  If
    /// the candidate entails some stored tuple, nothing of it is left.
    /// Otherwise only the stored tuples [`Theory::ctx_compatible`] with the
    /// candidate are negated: an incompatible one is disjoint from it, so
    /// its negation cannot remove a point (it would only split the seed).
    fn residual_of_tuple(&self, tuple: &GenTuple<T::A>) -> Vec<GenTuple<T::A>> {
        if !tuple.is_satisfiable::<T>() {
            return Vec::new();
        }
        let mut touching: Vec<&GenTuple<T::A>> = Vec::new();
        let mut screened_out = 0;
        for stored in &self.tuples {
            if !tuple.with_ctx::<T, _>(|ct| stored.with_ctx::<T, _>(|cs| T::ctx_compatible(ct, cs)))
            {
                screened_out += 1;
                continue;
            }
            if tuple.entails::<T>(stored.atoms()) {
                record_containment([1, screened_out, 0]);
                return Vec::new();
            }
            touching.push(stored);
        }
        record_containment([0, screened_out, touching.len() as u64]);
        conjoin_negation::<T>(vec![tuple.clone()], touching)
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &Relation<T>) -> Relation<T> {
        assert_eq!(
            self.vars, other.vars,
            "difference of relations over different columns"
        );
        let mut tuples: Vec<GenTuple<T::A>> = Vec::new();
        for tuple in &self.tuples {
            tuples.extend(other.residual_of_tuple(tuple));
        }
        Relation::simplified_unchecked(self.vars.clone(), tuples)
    }

    /// Union with a small update delta, doing work proportional to the delta:
    /// only the incoming tuples are canonicalized, and absorption is checked
    /// across the boundary (and within the delta) instead of over all pairs —
    /// `O(|self|·|delta|)` entailment checks, against `O((|self|+|delta|)²)`
    /// for [`Relation::union`].
    ///
    /// Assumes `self` is **simplified**: its tuples canonical, deduplicated,
    /// and mutually non-absorbing — the invariant every relation built by
    /// this crate's constructors and operators satisfies ([`Relation::new`],
    /// `union`, `difference`, join, …; [`Relation::rename`] aliases preserve
    /// it semantically).  Under that assumption the result is simplified and
    /// equals `self.union(delta)` as a generalized-tuple set; existing tuples
    /// are carried over verbatim, so their cached contexts and positions
    /// survive.  This is the commit path for first-class `insert` updates.
    ///
    /// # Panics
    /// Panics if the column variables differ.
    #[must_use]
    pub fn union_delta(&self, delta: &Relation<T>) -> Relation<T> {
        self.union_delta_report(delta).0
    }

    /// [`Relation::union_delta`] plus the exact part-level effect: which
    /// parts the result gained and which parts of `self` disappeared (an
    /// incoming tuple can *absorb* stored parts).  Consumers use the report
    /// to maintain part-aligned caches without re-diffing the two values.
    #[must_use]
    pub fn union_delta_report(&self, delta: &Relation<T>) -> (Relation<T>, PartDelta<T::A>) {
        assert_eq!(
            self.vars, delta.vars,
            "union of relations over different columns"
        );
        if delta.tuples.is_empty() {
            return (self.clone(), PartDelta::default());
        }
        // Dedup by direct comparison rather than a hash set of the stored
        // atoms: non-equal tuples diverge at their first atom, so the scan is
        // near-free, while hashing every stored tuple would cost `O(|self|)`
        // full-tuple traversals per commit.
        let mut fresh: Vec<GenTuple<T::A>> = Vec::new();
        for tuple in &delta.tuples {
            let Some(canonical) = tuple.to_canonical::<T>() else {
                continue; // unsatisfiable
            };
            let dup = self.tuples.iter().any(|t| t.atoms() == canonical.atoms())
                || fresh.iter().any(|f| f.atoms() == canonical.atoms());
            if !dup {
                fresh.push(canonical);
            }
        }
        if fresh.is_empty() {
            return (self.clone(), PartDelta::default());
        }
        // Absorption across the boundary: an old tuple implied by a fresh one
        // is dropped, and vice versa; fresh tuples also absorb each other.
        // Old-vs-old pairs need no check — `self` is absorption-free.
        let mut tuples: Vec<GenTuple<T::A>> = Vec::with_capacity(self.tuples.len() + fresh.len());
        let mut removed: Vec<GenTuple<T::A>> = Vec::new();
        for old in &self.tuples {
            if fresh.iter().any(|new| old.entails::<T>(new.atoms())) {
                removed.push(old.clone());
            } else {
                tuples.push(old.clone());
            }
        }
        let mut added: Vec<GenTuple<T::A>> = Vec::new();
        for (k, new) in fresh.iter().enumerate() {
            let absorbed = self.tuples.iter().any(|old| new.entails::<T>(old.atoms()))
                || fresh
                    .iter()
                    .enumerate()
                    .any(|(j, other)| j != k && new.entails::<T>(other.atoms()));
            if !absorbed {
                tuples.push(new.clone());
                added.push(new.clone());
            }
        }
        (
            Relation::assembled(self.vars.clone(), tuples),
            PartDelta { added, removed },
        )
    }

    /// Difference with a small update delta, doing work proportional to the
    /// parts the delta actually touches: stored tuples whose cached contexts
    /// are provably incompatible with every delta tuple
    /// ([`Theory::ctx_compatible`]) are carried over **verbatim** — no
    /// re-canonicalization, no residual computation — and only the touched
    /// tuples are split, canonicalized, and absorption-checked against the
    /// result.  This is the commit path for first-class `delete` updates.
    ///
    /// Assumes `self` is simplified (see [`Relation::union_delta`]).  The
    /// result is simplified and denotes exactly `self \ delta`; because
    /// untouched tuples are not re-split, its generalized-tuple shape can be
    /// *coarser* than what [`Relation::difference`] produces — never finer.
    ///
    /// # Panics
    /// Panics if the column variables differ.
    #[must_use]
    pub fn difference_delta(&self, delta: &Relation<T>) -> Relation<T> {
        self.difference_delta_report(delta).0
    }

    /// [`Relation::difference_delta`] plus the exact part-level effect:
    /// origins that were split or fully deleted show up in `removed`, their
    /// surviving residual pieces in `added`.  Untouched parts — including
    /// origins whose residual turned out to be themselves — appear in
    /// neither list.
    #[must_use]
    pub fn difference_delta_report(&self, delta: &Relation<T>) -> (Relation<T>, PartDelta<T::A>) {
        assert_eq!(
            self.vars, delta.vars,
            "difference of relations over different columns"
        );
        if delta.tuples.is_empty() || self.tuples.is_empty() {
            return (self.clone(), PartDelta::default());
        }
        // First pass: split the stored tuples into untouched survivors and
        // residual pieces of touched tuples, preserving the stored order.
        // Untouched survivors need no dedup — `self` is deduplicated, and a
        // piece can never equal an untouched tuple (that would make the
        // untouched tuple a subset of a touched one, which absorption
        // freeness of `self` rules out) — so only piece-vs-piece collisions
        // across different origins are checked.
        let mut removed: Vec<GenTuple<T::A>> = Vec::new();
        let mut kept: Vec<(bool, GenTuple<T::A>)> = Vec::new(); // (is_piece, tuple)
        for part in &self.tuples {
            let touching: Vec<GenTuple<T::A>> = delta
                .tuples
                .iter()
                .filter(|d| {
                    part.with_ctx::<T, _>(|cp| d.with_ctx::<T, _>(|cd| T::ctx_compatible(cp, cd)))
                })
                .cloned()
                .collect();
            if touching.is_empty() {
                kept.push((false, part.clone()));
                continue;
            }
            let pieces: Vec<GenTuple<T::A>> = conjoin_negation::<T>(vec![part.clone()], &touching)
                .into_iter()
                .filter_map(|piece| piece.to_canonical::<T>())
                .collect();
            // A compatibility false positive: the delta only *looked* like it
            // touched this part.  Carry the original through unchanged.
            if pieces.len() == 1 && pieces[0].atoms() == part.atoms() {
                kept.push((false, part.clone()));
                continue;
            }
            removed.push(part.clone());
            for canonical in pieces {
                let dup = kept
                    .iter()
                    .any(|(is_piece, t)| *is_piece && t.atoms() == canonical.atoms());
                if !dup {
                    kept.push((true, canonical));
                }
            }
        }
        // Second pass: absorption.  Untouched tuples never absorb each other
        // (`self` is absorption-free) and are never implied by a piece's
        // superset chain, so only pieces can be dropped: a piece contained in
        // any other surviving tuple contributes nothing.
        let survives = |i: usize, is_piece: bool, tuple: &GenTuple<T::A>| {
            !is_piece
                || !kept
                    .iter()
                    .enumerate()
                    .any(|(j, (_, other))| j != i && tuple.entails::<T>(other.atoms()))
        };
        let mut tuples: Vec<GenTuple<T::A>> = Vec::with_capacity(kept.len());
        let mut added: Vec<GenTuple<T::A>> = Vec::new();
        for (i, (is_piece, tuple)) in kept.iter().enumerate() {
            if survives(i, *is_piece, tuple) {
                tuples.push(tuple.clone());
                if *is_piece {
                    added.push(tuple.clone());
                }
            }
        }
        (
            Relation::assembled(self.vars.clone(), tuples),
            PartDelta { added, removed },
        )
    }

    /// Assembles a relation from tuples that are already simplified as a set
    /// (canonical, deduplicated, mutually non-absorbing) — the delta
    /// operations' constructor.  Debug builds verify canonicality.
    fn assembled(vars: Vec<Var>, tuples: Vec<GenTuple<T::A>>) -> Relation<T> {
        debug_assert!(
            tuples.iter().all(|t| t
                .to_canonical::<T>()
                .is_some_and(|c| c.atoms() == t.atoms())),
            "assembled relation holds a non-canonical tuple"
        );
        Relation {
            vars,
            tuples,
            indexes: Arc::new(IndexCache::default()),
            index_names: None,
            _theory: PhantomData,
        }
    }

    /// Containment `self ⊆ other` (both over the same columns), decided by checking
    /// that `self ∧ ¬other` is unsatisfiable, one generalized tuple at a time.
    ///
    /// # Panics
    /// Panics if the column variables differ.
    #[must_use]
    pub fn subset_of(&self, other: &Relation<T>) -> bool {
        assert_eq!(
            self.vars, other.vars,
            "containment of relations over different columns"
        );
        self.tuples
            .iter()
            .all(|tuple| other.residual_of_tuple(tuple).is_empty())
    }

    /// Whether a single generalized tuple is entirely contained in this
    /// relation (used by the semi-naive Datalog engine to compute deltas
    /// without a full relation difference).
    #[must_use]
    pub fn covers_tuple(&self, tuple: &GenTuple<T::A>) -> bool {
        self.residual_of_tuple(tuple).is_empty()
    }

    /// Semantic equivalence of two representations (query equivalence of §4.3 at the
    /// instance level).
    #[must_use]
    pub fn equivalent(&self, other: &Relation<T>) -> bool {
        self.subset_of(other) && other.subset_of(self)
    }

    /// Renames the column variables (the tuples are rewritten accordingly) in a
    /// **single simultaneous substitution pass** — permutations need no
    /// temporary variables, so each atom is rewritten exactly once.
    ///
    /// The per-column interval indexes survive the rename: a column index
    /// stores only positional envelope data, invariant under the bijective
    /// variable substitution, so the renamed relation shares the original's
    /// index cache keyed by the columns' stable index names.  This is the
    /// Datalog fixpoint's and the database commit path's index persistence:
    /// every round (or snapshot read) that renames the same stored relation
    /// rebuilds **zero** indexes.
    ///
    /// # Panics
    /// Panics if the number of new variables differs from the arity.
    #[must_use]
    pub fn rename(&self, new_vars: Vec<Var>) -> Relation<T> {
        assert_eq!(
            new_vars.len(),
            self.arity(),
            "rename with wrong number of columns"
        );
        if new_vars == self.vars {
            return self.clone();
        }
        let map: HashMap<Var, Term> = self
            .vars
            .iter()
            .zip(&new_vars)
            .filter(|(old, new)| old != new)
            .map(|(old, new)| (old.clone(), Term::Var(new.clone())))
            .collect();
        let tuples = self
            .tuples
            .iter()
            .map(|tuple| {
                GenTuple::new(
                    tuple
                        .atoms()
                        .iter()
                        .map(|a| a.subst_simultaneous(&map))
                        .collect(),
                )
            })
            .collect();
        // Positions are untouched, so the stable index names carry over
        // verbatim (defaulting to the pre-rename column names).
        let index_names = Some(match &self.index_names {
            Some(names) => names.clone(),
            None => self.vars.clone(),
        });
        Relation {
            vars: new_vars,
            tuples,
            indexes: self.indexes.clone(),
            index_names,
            _theory: PhantomData,
        }
    }

    /// The same relation with its generalized tuples in **canonical display
    /// order** (lexicographic by rendered atoms, ties kept stable).
    ///
    /// Operator pipelines order their output by evaluation history — which
    /// tuple was derived first — so two equivalent pipelines (the factorized
    /// and the eagerly materialized evaluator, say) can produce the same
    /// canonical tuple *set* in different orders.  Plan boundaries (query
    /// answers) normalize through this method, making answers reproducible
    /// across evaluation modes and pinnable by golden transcripts.
    #[must_use]
    pub fn canonically_sorted(&self) -> Relation<T> {
        let keys: Vec<String> = self
            .tuples
            .iter()
            .map(|t| {
                let mut key = String::new();
                for a in t.atoms() {
                    key.push_str(&a.to_string());
                    key.push('\u{1}');
                }
                key
            })
            .collect();
        let mut order: Vec<usize> = (0..self.tuples.len()).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
        if order.iter().enumerate().all(|(i, &j)| i == j) {
            return self.clone();
        }
        let tuples = order.iter().map(|&j| self.tuples[j].clone()).collect();
        Relation {
            vars: self.vars.clone(),
            tuples,
            indexes: Arc::new(IndexCache::default()),
            index_names: None,
            _theory: PhantomData,
        }
    }

    /// Applies a mapping to every constant in the representation (the image of the
    /// relation under a morphism, Definition 4.3 / Proposition 4.4).
    #[must_use]
    pub fn map_constants(&self, f: &impl Fn(&Rat) -> Rat) -> Relation<T> {
        let tuples = self
            .tuples
            .iter()
            .map(|tuple| GenTuple::new(tuple.atoms().iter().map(|a| a.map_constants(f)).collect()))
            .collect();
        Relation::simplified_unchecked(self.vars.clone(), tuples)
    }

    /// The quantifier-free formula representing the relation.
    #[must_use]
    pub fn to_formula(&self) -> Formula<T::A> {
        Formula::Or(
            self.tuples
                .iter()
                .map(|tuple| {
                    Formula::And(tuple.atoms().iter().cloned().map(Formula::Atom).collect())
                })
                .collect(),
        )
    }

    /// Builds a *finite* relation from explicit points — the classical relational
    /// model embedded into the constraint model (a tuple `[a, b]` abbreviates
    /// `x = a ∧ y = b`, Section 2.2).
    #[must_use]
    pub fn from_points(vars: Vec<Var>, points: impl IntoIterator<Item = Vec<Rat>>) -> Relation<T>
    where
        T::A: FromEquality,
    {
        let tuples: Vec<GenTuple<T::A>> = points
            .into_iter()
            .map(|p| {
                assert_eq!(p.len(), vars.len(), "point arity mismatch");
                GenTuple::new(
                    vars.iter()
                        .zip(p)
                        .map(|(v, c)| T::A::equality(Term::Var(v.clone()), Term::Const(c)))
                        .collect(),
                )
            })
            .collect();
        Relation::new(vars, tuples)
    }
}

impl<T: Theory> fmt::Display for Relation<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{({}) | ", Sep(&self.vars, ", "))?;
        if self.tuples.is_empty() {
            write!(f, "false")?;
        }
        for (i, tuple) in self.tuples.iter().enumerate() {
            let sep = if i > 0 { " ∨ " } else { "" };
            if tuple.atoms().is_empty() {
                write!(f, "{sep}true")?;
            } else {
                write!(f, "{sep}({tuple})")?;
            }
        }
        write!(f, "}}")
    }
}

/// The exact part-level effect of a delta operation on a relation's DNF:
/// `added` holds parts present in the result but not the receiver, `removed`
/// parts of the receiver that are gone.  Emptiness of both means the update
/// was a no-op (every incoming tuple absorbed, or nothing deleted), so
/// consumers can use the report both to skip work and to maintain
/// part-aligned caches without re-diffing the two values.
#[derive(Debug, Clone)]
pub struct PartDelta<A> {
    /// Parts the result gained.
    pub added: Vec<GenTuple<A>>,
    /// Parts of the receiver no longer present in the result.
    pub removed: Vec<GenTuple<A>>,
}

impl<A> Default for PartDelta<A> {
    fn default() -> Self {
        PartDelta {
            added: Vec::new(),
            removed: Vec::new(),
        }
    }
}

impl<A> PartDelta<A> {
    /// True when the operation changed nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Atom types that can express equality between a variable and a constant; needed to
/// embed classical finite relations (`Relation::from_points`).
pub trait FromEquality: Sized {
    /// The atom `lhs = rhs`.
    fn equality(lhs: Term, rhs: Term) -> Self;
}

impl FromEquality for crate::dense::DenseAtom {
    fn equality(lhs: Term, rhs: Term) -> Self {
        crate::dense::DenseAtom::eq(lhs, rhs)
    }
}

/// A finitely representable database instance: a mapping from schema relation names to
/// finitely representable relations (Definition 2.7).
#[derive(Debug)]
pub struct Instance<T: Theory> {
    schema: Schema,
    /// Stored values are `Arc`-shared so cloning an instance — the
    /// copy-on-write snapshot step of every engine commit — costs a map of
    /// pointer bumps, never a part-table copy.  Relations are immutable, so
    /// sharing is invisible; `set` replaces the whole pointer.
    relations: BTreeMap<RelName, Arc<Relation<T>>>,
}

impl<T: Theory> Clone for Instance<T> {
    fn clone(&self) -> Self {
        Instance {
            schema: self.schema.clone(),
            relations: self.relations.clone(),
        }
    }
}

impl<T: Theory> Instance<T> {
    /// An empty instance of the given schema (every relation empty).
    #[must_use]
    pub fn new(schema: Schema) -> Self {
        Instance {
            schema,
            relations: BTreeMap::new(),
        }
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Declares a relation symbol in place, extending the schema (a no-op when
    /// already declared at the same arity).  Stored relations are untouched.
    ///
    /// # Errors
    /// Returns [`SchemaError::ArityMismatch`] if the name is already declared
    /// with a different arity.
    pub fn declare(
        &mut self,
        name: impl Into<RelName>,
        arity: usize,
    ) -> Result<&mut Self, SchemaError> {
        let name = name.into();
        if let Some(declared) = self.schema.arity(&name) {
            if declared != arity {
                return Err(SchemaError::ArityMismatch {
                    relation: name.to_string(),
                    declared,
                    found: arity,
                });
            }
            return Ok(self);
        }
        self.schema.add(name, arity);
        Ok(self)
    }

    /// Removes a relation symbol (and any stored value) from the instance;
    /// returns the removed relation when one was stored.  Undeclared names are
    /// a no-op returning `None`.
    pub fn remove(&mut self, name: &RelName) -> Option<Relation<T>> {
        let stored = self.relations.remove(name);
        self.schema.remove(name);
        stored.map(|rel| Arc::try_unwrap(rel).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Sets a relation.
    ///
    /// # Errors
    /// Returns [`SchemaError::UndeclaredRelation`] if the relation name is not
    /// in the schema, and [`SchemaError::ArityMismatch`] if the relation's
    /// arity disagrees with the declaration.  (These used to be panics; a file
    /// loader cannot panic on bad input.)
    pub fn set(
        &mut self,
        name: impl Into<RelName>,
        relation: Relation<T>,
    ) -> Result<&mut Self, SchemaError> {
        let name = name.into();
        let declared = self
            .schema
            .arity(&name)
            .ok_or_else(|| SchemaError::UndeclaredRelation(name.to_string()))?;
        if declared != relation.arity() {
            return Err(SchemaError::ArityMismatch {
                relation: name.to_string(),
                declared,
                found: relation.arity(),
            });
        }
        self.relations.insert(name, Arc::new(relation));
        Ok(self)
    }

    /// Looks up a relation; undeclared names return `None`, declared-but-unset names
    /// return the empty relation.  The returned value is an owned copy; hot
    /// paths that only read should prefer [`Instance::get_shared`].
    #[must_use]
    pub fn get(&self, name: &RelName) -> Option<Relation<T>> {
        self.get_shared(name)
            .map(|rel| Arc::try_unwrap(rel).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Looks up a relation without copying its part table: the stored value
    /// is handed out `Arc`-shared, so the call is `O(1)` however large the
    /// relation.  Undeclared names return `None`, declared-but-unset names a
    /// freshly allocated empty relation.
    #[must_use]
    pub fn get_shared(&self, name: &RelName) -> Option<Arc<Relation<T>>> {
        let arity = self.schema.arity(name)?;
        Some(self.relations.get(name).cloned().unwrap_or_else(|| {
            Arc::new(Relation::empty(
                (0..arity).map(|i| Var::new(format!("x{i}"))).collect(),
            ))
        }))
    }

    /// Iterates over the stored relations.
    pub fn iter(&self) -> impl Iterator<Item = (&RelName, &Relation<T>)> {
        self.relations
            .iter()
            .map(|(name, rel)| (name, rel.as_ref()))
    }

    /// All constants occurring in the instance (the active domain `adom(I)` of
    /// Lemma 6.13).
    #[must_use]
    pub fn active_domain(&self) -> BTreeSet<Rat> {
        self.relations
            .values()
            .flat_map(|rel| rel.constants())
            .collect()
    }

    /// Applies a mapping to every constant of every relation (the image `µ(I)` of the
    /// instance under a morphism).
    #[must_use]
    pub fn map_constants(&self, f: &impl Fn(&Rat) -> Rat) -> Instance<T> {
        Instance {
            schema: self.schema.clone(),
            relations: self
                .relations
                .iter()
                .map(|(n, r)| (n.clone(), Arc::new(r.map_constants(f))))
                .collect(),
        }
    }

    /// Semantic equivalence of two instances over the same schema.
    #[must_use]
    pub fn equivalent(&self, other: &Instance<T>) -> bool {
        if self.schema != other.schema {
            return false;
        }
        self.schema
            .iter()
            .all(|(name, _)| match (self.get(name), other.get(name)) {
                (Some(a), Some(b)) => {
                    let b = b.rename(a.vars().to_vec());
                    a.equivalent(&b)
                }
                _ => false,
            })
    }
}

impl<T: Theory> fmt::Display for Instance<T>
where
    T::A: fmt::Display,
{
    /// Prints the instance as a surface-language script fragment: one `schema`
    /// statement listing every declared relation with its arity, followed by
    /// one assignment per stored relation.  The output is parseable by the
    /// `frdb-lang` script parser, so an instance can be dumped and reloaded —
    /// provided every relation and column name lexes as an identifier (a
    /// Unicode letter or `_` followed by letters, digits and `_`, and not one
    /// of the word operators `and`, `or`, `not`, `exists`, `forall`, `true`,
    /// `false`); names the Rust API permits beyond that have no textual
    /// spelling.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.schema.is_empty() {
            write!(f, "schema ")?;
            for (i, (name, arity)) in self.schema.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{name}/{arity}")?;
            }
            writeln!(f, ";")?;
        }
        for (name, rel) in &self.relations {
            writeln!(f, "{name} := {rel};")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{DenseAtom, DenseOrder};

    type Rel = Relation<DenseOrder>;

    fn x() -> Var {
        Var::new("x")
    }
    fn y() -> Var {
        Var::new("y")
    }
    fn r(v: i64) -> Rat {
        Rat::from_i64(v)
    }

    fn interval(lo: i64, hi: i64) -> GenTuple<DenseAtom> {
        GenTuple::new(vec![
            DenseAtom::le(Term::cst(lo), Term::var("x")),
            DenseAtom::le(Term::var("x"), Term::cst(hi)),
        ])
    }

    #[test]
    fn membership_of_intervals() {
        let rel = Rel::new(vec![x()], vec![interval(0, 2), interval(5, 7)]);
        assert!(rel.contains(&[r(1)]));
        assert!(rel.contains(&[r(0)]));
        assert!(rel.contains(&[r(6)]));
        assert!(!rel.contains(&[r(3)]));
        assert!(!rel.contains(&[r(-1)]));
    }

    #[test]
    fn union_intersection_complement() {
        let a = Rel::new(vec![x()], vec![interval(0, 4)]);
        let b = Rel::new(vec![x()], vec![interval(2, 6)]);
        let u = a.union(&b);
        let i = a.intersect(&b);
        assert!(u.contains(&[r(5)]) && u.contains(&[r(1)]));
        assert!(i.contains(&[r(3)]));
        assert!(!i.contains(&[r(1)]) && !i.contains(&[r(5)]));
        let c = a.complement();
        assert!(c.contains(&[r(5)]));
        assert!(!c.contains(&[r(2)]));
        // a ∪ ¬a is the whole line.
        assert!(a.union(&c).equivalent(&Rel::universal(vec![x()])));
        // a ∩ ¬a is empty.
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn containment_and_equivalence() {
        let small = Rel::new(vec![x()], vec![interval(1, 2)]);
        let big = Rel::new(vec![x()], vec![interval(0, 4)]);
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
        // Splitting an interval in two gives an equivalent relation.
        let split = Rel::new(vec![x()], vec![interval(0, 2), interval(2, 4)]);
        assert!(split.equivalent(&big));
        assert!(!split.equivalent(&small));
    }

    #[test]
    fn simplify_absorbs_redundant_tuples() {
        let rel = Rel::new(vec![x()], vec![interval(0, 10), interval(2, 3)]);
        // The inner interval is absorbed by the outer one.
        assert_eq!(rel.num_tuples(), 1);
    }

    #[test]
    fn unsatisfiable_tuples_are_dropped() {
        let rel = Rel::new(
            vec![x()],
            vec![GenTuple::new(vec![
                DenseAtom::lt(Term::var("x"), Term::cst(0)),
                DenseAtom::lt(Term::cst(1), Term::var("x")),
            ])],
        );
        assert!(rel.is_empty());
    }

    #[test]
    fn from_points_builds_finite_relation() {
        let rel = Rel::from_points(vec![x(), y()], vec![vec![r(1), r(2)], vec![r(3), r(4)]]);
        assert!(rel.contains(&[r(1), r(2)]));
        assert!(rel.contains(&[r(3), r(4)]));
        assert!(!rel.contains(&[r(1), r(4)]));
        assert_eq!(rel.num_tuples(), 2);
    }

    #[test]
    fn rename_permutes_columns() {
        let rel = Rel::from_points(vec![x(), y()], vec![vec![r(1), r(2)]]);
        let swapped = rel.rename(vec![y(), x()]);
        // Same semantics, columns relabelled: the point (1,2) on columns (y,x) means
        // y=1 ∧ x=2.
        assert!(swapped.contains(&[r(1), r(2)]));
        let back = swapped.rename(vec![x(), y()]);
        assert!(back.contains(&[r(1), r(2)]));
    }

    #[test]
    fn complement_of_cofinite_set() {
        // The set Q \ {0} of Section 2.2 is finitely representable; its complement is
        // the single point 0.
        let nonzero = Rel::from_dnf(
            vec![x()],
            vec![
                vec![DenseAtom::lt(Term::var("x"), Term::cst(0))],
                vec![DenseAtom::lt(Term::cst(0), Term::var("x"))],
            ],
        );
        let comp = nonzero.complement();
        assert!(comp.contains(&[r(0)]));
        assert!(!comp.contains(&[r(1)]));
        assert!(comp.equivalent(&Rel::from_points(vec![x()], vec![vec![r(0)]])));
    }

    #[test]
    fn instance_roundtrip() {
        let schema = Schema::from_pairs([("R", 1), ("S", 2)]);
        let mut inst: Instance<DenseOrder> = Instance::new(schema);
        inst.set("R", Rel::new(vec![x()], vec![interval(0, 1)]))
            .unwrap();
        assert!(inst.get(&RelName::new("R")).unwrap().contains(&[r(0)]));
        // Unset but declared relation is empty.
        assert!(inst.get(&RelName::new("S")).unwrap().is_empty());
        // Undeclared relation is None.
        assert!(inst.get(&RelName::new("T")).is_none());
        assert_eq!(inst.active_domain().len(), 2);
    }

    #[test]
    fn set_rejects_undeclared_relations_with_a_typed_error() {
        // Regression: this used to be `panic!("relation {name} not declared in
        // the schema")`, which a script loader could not recover from.
        let schema = Schema::from_pairs([("R", 1)]);
        let mut inst: Instance<DenseOrder> = Instance::new(schema);
        let err = inst
            .set("ghost", Rel::new(vec![x()], vec![interval(0, 1)]))
            .unwrap_err();
        assert_eq!(err, SchemaError::UndeclaredRelation("ghost".into()));
        // The instance is untouched by the failed insertion.
        assert!(inst.get(&RelName::new("ghost")).is_none());
    }

    #[test]
    fn set_rejects_arity_mismatches_with_a_typed_error() {
        let schema = Schema::from_pairs([("R", 2)]);
        let mut inst: Instance<DenseOrder> = Instance::new(schema);
        let err = inst
            .set("R", Rel::new(vec![x()], vec![interval(0, 1)]))
            .unwrap_err();
        assert_eq!(
            err,
            SchemaError::ArityMismatch {
                relation: "R".into(),
                declared: 2,
                found: 1,
            }
        );
    }

    #[test]
    fn try_new_rejects_tuples_with_loose_variables() {
        // Regression: a tuple mentioning a variable outside the relation's
        // columns used to be accepted silently and panic later, deep inside
        // `contains`'s point substitution.
        let loose = GenTuple::new(vec![DenseAtom::lt(Term::var("y"), Term::cst(0))]);
        let err = Rel::try_new(vec![x()], vec![loose]).unwrap_err();
        assert_eq!(
            err,
            SchemaError::TupleVariableOutsideColumns {
                variable: "y".into(),
                columns: vec!["x".into()],
            }
        );
    }

    #[test]
    fn try_new_rejects_duplicate_columns() {
        // Regression: `{(x, x) | 0 ≤ x ≤ 5}` used to build silently, and the
        // membership substitution bound only the last occurrence — `contains`
        // answered `true` for points like (8, 1).
        let tuple = GenTuple::new(vec![
            DenseAtom::le(Term::cst(0), Term::var("x")),
            DenseAtom::le(Term::var("x"), Term::cst(5)),
        ]);
        let err = Rel::try_new(vec![x(), x()], vec![tuple]).unwrap_err();
        assert_eq!(
            err,
            SchemaError::DuplicateColumn {
                variable: "x".into()
            }
        );
    }

    #[test]
    #[should_panic(expected = "outside the relation's columns")]
    fn new_panics_eagerly_on_loose_variables() {
        // The panicking constructor fails at construction time with the typed
        // error's message, not later inside substitution.
        let loose = GenTuple::new(vec![DenseAtom::lt(Term::var("y"), Term::cst(0))]);
        let _ = Rel::new(vec![x()], vec![loose]);
    }

    #[test]
    fn instance_display_is_a_script_fragment() {
        let schema = Schema::from_pairs([("R", 1), ("S", 2)]);
        let mut inst: Instance<DenseOrder> = Instance::new(schema);
        inst.set("R", Rel::new(vec![x()], vec![interval(0, 1)]))
            .unwrap();
        let text = inst.to_string();
        assert!(text.starts_with("schema R/1, S/2;\n"));
        assert!(text.contains("R := {(x) | "));
    }

    /// The delta union must be *identical* (same tuple set, not just
    /// equivalent) to the batch union whenever both sides are canonical and
    /// disjoint — the common commit-path shape.
    #[test]
    fn union_delta_matches_union_on_disjoint_parts() {
        let stored = Rel::new(vec![x()], vec![interval(0, 1), interval(4, 5)]);
        let delta = Rel::new(vec![x()], vec![interval(8, 9)]);
        let merged = stored.union_delta(&delta);
        let batch = stored.union(&delta);
        assert_eq!(merged.tuples(), batch.tuples());
        assert_eq!(merged.num_tuples(), 3);
    }

    #[test]
    fn union_delta_absorbs_in_both_directions() {
        let stored = Rel::new(vec![x()], vec![interval(0, 10), interval(20, 21)]);
        // One delta part falls inside a stored part; the other swallows one.
        let delta = Rel::new(vec![x()], vec![interval(2, 3), interval(19, 30)]);
        let (merged, report) = stored.union_delta_report(&delta);
        assert!(merged.equivalent(&stored.union(&delta)));
        assert_eq!(merged.num_tuples(), 2); // [0,10] and [19,30]
        assert!(merged.contains(&[r(25)]));
        assert!(!merged.contains(&[r(15)]));
        // The report records the absorbed stored part and the one survivor
        // of the delta; the absorbed delta part appears nowhere.
        assert_eq!(report.removed, vec![stored.tuples()[1].clone()]);
        assert_eq!(report.added.len(), 1);
        assert_eq!(report.added[0].atoms(), merged.tuples()[1].atoms());
    }

    #[test]
    fn union_delta_drops_unsatisfiable_and_duplicate_delta_parts() {
        let stored = Rel::new(vec![x()], vec![interval(0, 1)]);
        let unsat = GenTuple::new(vec![
            DenseAtom::lt(Term::var("x"), Term::cst(0)),
            DenseAtom::lt(Term::cst(1), Term::var("x")),
        ]);
        // `try_new` would simplify these away; feed them through a relation
        // that still carries them via new() on the raw list.
        let delta = Rel::new(vec![x()], vec![unsat, interval(0, 1), interval(0, 1)]);
        let merged = stored.union_delta(&delta);
        assert_eq!(merged.tuples(), stored.tuples());
    }

    #[test]
    fn union_delta_empty_sides_match_union() {
        let stored = Rel::new(vec![x()], vec![interval(0, 1)]);
        let empty = Rel::empty(vec![x()]);
        assert_eq!(stored.union_delta(&empty).tuples(), stored.tuples());
        assert_eq!(empty.union_delta(&stored).tuples(), stored.tuples());
    }

    #[test]
    fn difference_delta_carries_untouched_parts_verbatim() {
        let stored = Rel::new(vec![x()], vec![interval(0, 1), interval(10, 20)]);
        let delta = Rel::new(vec![x()], vec![interval(12, 14)]);
        let (out, report) = stored.difference_delta_report(&delta);
        assert!(out.equivalent(&stored.difference(&delta)));
        // The untouched part survives with its exact stored atoms.
        assert!(out.tuples().contains(&stored.tuples()[0]));
        assert!(out.contains(&[r(11)]) && out.contains(&[r(15)]));
        assert!(!out.contains(&[r(13)]));
        // The report names the split origin and its two residual pieces;
        // the untouched part appears in neither list.
        assert_eq!(report.removed, vec![stored.tuples()[1].clone()]);
        assert_eq!(report.added.len(), 2);
        assert!(report.added.iter().all(|p| !stored.tuples().contains(p)));
    }

    #[test]
    fn delta_reports_are_empty_exactly_on_no_ops() {
        let stored = Rel::new(vec![x()], vec![interval(0, 10)]);
        // Inserting an absorbed interval changes nothing.
        let (same, report) = stored.union_delta_report(&Rel::new(vec![x()], vec![interval(2, 3)]));
        assert!(report.is_empty());
        assert_eq!(same.tuples(), stored.tuples());
        // Deleting a disjoint region changes nothing either.
        let (same, report) =
            stored.difference_delta_report(&Rel::new(vec![x()], vec![interval(20, 30)]));
        assert!(report.is_empty());
        assert_eq!(same.tuples(), stored.tuples());
    }

    #[test]
    fn difference_delta_deletes_whole_parts_and_is_empty_safe() {
        let stored = Rel::new(vec![x()], vec![interval(0, 1), interval(4, 5)]);
        let exact = Rel::new(vec![x()], vec![interval(0, 1)]);
        let out = stored.difference_delta(&exact);
        assert!(out.equivalent(&Rel::new(vec![x()], vec![interval(4, 5)])));
        let all = stored.difference_delta(&stored);
        assert!(all.is_empty());
        let empty = Rel::empty(vec![x()]);
        assert_eq!(stored.difference_delta(&empty).tuples(), stored.tuples());
        assert!(empty.difference_delta(&stored).is_empty());
    }

    /// Randomized parity: over interval soups, the delta operations agree
    /// semantically with the batch operations (union also shape-exactly once
    /// both inputs are canonical).
    #[test]
    fn delta_operations_agree_with_batch_operations() {
        let mut seed = 0x9e37_79b9_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 33) as i64 % 24
        };
        for _ in 0..50 {
            let soup = |n: usize, next: &mut dyn FnMut() -> i64| {
                let parts = (0..n)
                    .map(|_| {
                        let lo = next();
                        interval(lo, lo + 1 + next().abs() % 5)
                    })
                    .collect::<Vec<_>>();
                Rel::new(vec![x()], parts)
            };
            let stored = soup(6, &mut next);
            let delta = soup(2, &mut next);
            assert!(
                stored.union_delta(&delta).equivalent(&stored.union(&delta)),
                "union divergence: {stored} vs {delta}"
            );
            assert!(
                stored
                    .difference_delta(&delta)
                    .equivalent(&stored.difference(&delta)),
                "difference divergence: {stored} vs {delta}"
            );
        }
    }

    #[test]
    fn containment_screens_disjoint_parts_and_short_circuits_on_entailment() {
        let window = |before: (u64, u64, u64), after: (u64, u64, u64)| {
            (after.0 - before.0, after.1 - before.1, after.2 - before.2)
        };
        // Every stored part is disjoint from the candidate: all screened
        // out, none negated.
        let stored = Rel::new(vec![x()], vec![interval(0, 1), interval(5, 6)]);
        let before = containment_counters();
        assert!(!stored.covers_tuple(&interval(2, 3)));
        assert_eq!(window(before, containment_counters()), (0, 2, 0));
        // The candidate lies inside one stored part: answered by the
        // entailment fast path, nothing negated.
        let stored = Rel::new(vec![x()], vec![interval(0, 4), interval(5, 6)]);
        let before = containment_counters();
        assert!(stored.covers_tuple(&interval(1, 2)));
        assert_eq!(window(before, containment_counters()), (1, 0, 0));
        // Straddling two touching parts needs the negation of both.
        let stored = Rel::new(
            vec![x()],
            vec![interval(0, 2), interval(2, 4), interval(7, 8)],
        );
        let before = containment_counters();
        assert!(stored.covers_tuple(&interval(1, 3)));
        assert_eq!(window(before, containment_counters()), (0, 1, 2));
    }
}
