//! # frdb-db
//!
//! The embeddable **concurrent database engine** over finitely representable
//! instances: what used to be the CLI's single-threaded `Session`/`State`
//! interpreter, refactored into a [`Database`] handle that many threads can
//! use at once.
//!
//! ## Concurrency model
//!
//! All committed state — the [`Instance`], named queries, stored `DATALOG¬`
//! programs, and the `run`/`fixpoint` bookkeeping — lives in one immutable
//! [`Arc`]-shared value behind an `ArcSwap`-style cell (an `RwLock` held only
//! for the pointer swap, never across any computation):
//!
//! * **Readers** call [`Database::snapshot`], which clones the `Arc` under a
//!   momentary read lock and then works entirely lock-free on that frozen
//!   state.  A snapshot is a consistent point-in-time view; it never blocks
//!   behind a writer, and a writer never invalidates it.
//! * **Writers** serialize on a commit mutex, clone the current state, apply
//!   their mutation to the clone, and swap the new `Arc` in — copy-on-write at
//!   statement granularity.  The expensive work (query evaluation, fixpoints)
//!   happens outside the reader lock, so reads stay wait-free throughout.
//!
//! Every committed state is stamped with a **schema generation**: a globally
//! unique token from [`frdb_core::fo::next_generation`].  Generations key the
//! statistics-reoptimized entries of the process-wide [`PlanCache`], so a
//! commit automatically invalidates stale per-instance plans — the next query
//! against the new snapshot re-optimizes once and the cache is warm again.
//!
//! ## Plan sharing
//!
//! Query compilation goes through the shared [`PlanCache`] (by default the
//! process-global one, [`PlanCache::global`]): compiled plans are keyed by
//! `(formula, answer variables, theory, opt level, threads)` and re-optimized
//! plans additionally by the snapshot generation.  Two sessions — or two
//! hundred reader threads — asking the same question pay the PR 5
//! compile/optimize cost once, and repeated reads at one generation perform
//! **zero** optimizer invocations (observable via [`PlanCache::stats`]).
//!
//! ## Script execution
//!
//! For theories with a concrete syntax ([`frdb_lang::AtomSyntax`]),
//! [`Database::execute_source`] parses and executes `.frdb` scripts with the
//! exact statement semantics the CLI has always had — including partial-script
//! effects persisting past a failing statement, because each statement is its
//! own commit.  Timing output is opt-in ([`DbConfig::timings`]), so script
//! transcripts are byte-deterministic by default.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
mod exec;

pub use error::{DbError, DbErrorKind};

use frdb_core::fo::{
    next_generation, CompiledQuery, PlanCache, PlanConfig, QueryTrace, Statistics,
};
use frdb_core::logic::{Formula, Var};
use frdb_core::metrics::{JoinStrategyCounts, MetricsRegistry, MetricsSnapshot};
use frdb_core::relation::{
    column_index_counters, join_strategy_counters, GenTuple, Instance, PartDelta, Relation,
};
use frdb_core::schema::{RelName, Schema};
use frdb_core::theory::Theory;
use frdb_datalog::{FixpointTrace, Program};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Runs `f`, measuring its wall time and the column-index / join-strategy
/// work it performed **on the calling thread** (the engine's counters are
/// thread-local and the coordinating thread records all index and strategy
/// work, so the deltas are exact even for parallel joins — and concurrent
/// readers each attribute exactly their own work).
fn measured<R>(f: impl FnOnce() -> R) -> (R, Duration, (u64, u64), JoinStrategyCounts) {
    let (builds0, reuses0) = column_index_counters();
    let strategies0 = join_strategy_counters();
    let start = Instant::now();
    let result = f();
    let elapsed = start.elapsed();
    let (builds1, reuses1) = column_index_counters();
    let index_delta = (
        builds1.saturating_sub(builds0),
        reuses1.saturating_sub(reuses0),
    );
    (
        result,
        elapsed,
        index_delta,
        join_strategy_counters().since(&strategies0),
    )
}

/// A named query: its declared answer variables, the source formula (the
/// plan-cache key), and the plan compiled once at definition time.
pub struct QueryDef<T: Theory> {
    free: Vec<Var>,
    formula: Formula<T::A>,
    compiled: CompiledQuery<T>,
}

impl<T: Theory> QueryDef<T> {
    /// The declared answer variables.
    #[must_use]
    pub fn free(&self) -> &[Var] {
        &self.free
    }

    /// The source formula.
    #[must_use]
    pub fn formula(&self) -> &Formula<T::A> {
        &self.formula
    }

    /// The compiled relational-algebra plan.
    #[must_use]
    pub fn compiled(&self) -> &CompiledQuery<T> {
        &self.compiled
    }
}

impl<T: Theory> Clone for QueryDef<T> {
    fn clone(&self) -> Self {
        QueryDef {
            free: self.free.clone(),
            formula: self.formula.clone(),
            compiled: self.compiled.clone(),
        }
    }
}

/// Maintenance provenance for one materialized view whose formula is
/// **linear** in a single stored relation `dep` (the relation occurs exactly
/// once, under no negation or universal quantifier).  For such a view the
/// compiled plan distributes over `dep`'s DNF parts: the answer is the
/// absorption-canonical union of `base` (what the plan derives with `dep`
/// empty — e.g. disjuncts that never mention it) and, per stored part of
/// `dep`, the parts the plan derives from that one part alone.  A refresh
/// after an update then re-evaluates only the parts of `dep` it has never
/// seen — insertions as new DNF parts joined through the existing plan,
/// deletions by their parts simply dropping out of the alignment — instead of
/// the whole instance.  When the refresh is driven by a first-class update,
/// its [`PartDelta`] report flows down the cascade and a pure insertion
/// skips the alignment entirely: prior groups carry over and only the added
/// parts evaluate, in time proportional to the update.  See "Incremental
/// maintenance" in docs/ARCHITECTURE.md.
struct ViewMaint<T: Theory> {
    /// The single relation the view's formula is linear in.
    dep: RelName,
    /// Answer parts derived with `dep` empty.
    base: Vec<GenTuple<T::A>>,
    /// Provenance groups, one per past refresh batch: disjoint sets of `dep`
    /// parts (matched by structural equality) coupled with the answer parts
    /// the plan derives from exactly those parts.  Batch granularity keeps
    /// the refresh at **one** plan evaluation however many parts an update
    /// adds, and each group is `Arc`-shared so unchanged groups carry over
    /// at reference-count cost.  A group that lost a part re-derives its
    /// survivors (bounded by the original batch size).
    groups: Vec<Arc<MaintGroup<T>>>,
}

/// One provenance group of a maintained view: `outs` is what the view's plan
/// derives when `dep` holds exactly `parts` — by linearity, the contributions
/// of these parts to the full answer.
struct MaintGroup<T: Theory> {
    parts: Vec<GenTuple<T::A>>,
    outs: Vec<GenTuple<T::A>>,
}

/// Counts how often `name` occurs in `f` as a relation atom, returning `None`
/// when `f` contains a construct (negation, universal quantification — and
/// thus the `implies`/`iff` sugar, which desugars to negation) under which
/// evaluation does not distribute over a relation's DNF parts.
fn linear_occurrences<A>(f: &Formula<A>, name: &RelName) -> Option<usize> {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => Some(0),
        Formula::Rel { name: n, .. } => Some(usize::from(n == name)),
        Formula::Not(_) | Formula::Forall(_, _) => None,
        Formula::And(fs) | Formula::Or(fs) => fs
            .iter()
            .try_fold(0, |acc, g| Some(acc + linear_occurrences(g, name)?)),
        Formula::Exists(_, g) => linear_occurrences(g, name),
    }
}

/// Exact (representation-level) equality of two stored relations: same
/// columns, same generalized tuples in the same order.  This is the change
/// detector the refresh cascade runs on — deliberately stricter than
/// [`Relation::equivalent`], because the differential harness pins *exact
/// DNF* equality between maintained and recomputed state.
fn same_value<T: Theory>(a: &Relation<T>, b: &Relation<T>) -> bool {
    a.vars() == b.vars() && a.tuples() == b.tuples()
}

/// One committed, immutable state of a database.  Shared by `Arc`: snapshots
/// hold it frozen while the handle swaps in successors.
struct EngineState<T: Theory> {
    /// The globally unique schema generation this state was committed at.
    generation: u64,
    /// The database instance.
    instance: Instance<T>,
    /// Named queries in definition order.
    queries: BTreeMap<String, QueryDef<T>>,
    /// Named `DATALOG¬` programs.
    programs: BTreeMap<String, Program<T::A>>,
    /// Relation names materialized by `fixpoint` merges.  A later `fixpoint`
    /// over a program whose heads are in this set strips them back out of the
    /// evaluation EDB first, so programs can be re-run; a head colliding with
    /// a *user* relation — including a derived name the user has since
    /// re-assigned, which drops it from this set — still errors.
    derived: BTreeSet<RelName>,
    /// Relation names materialized by `run`.  Re-running a query overwrites
    /// its own previous answer, but a query named like a *user* relation is
    /// refused rather than silently clobbering stored data.
    materialized: BTreeSet<RelName>,
    /// Per-view maintenance provenance, keyed by the materialized name.
    /// Built lazily by the first maintainable refresh, dropped whenever the
    /// view is recomputed, redefined, or reclaimed by the user.  `Arc`-shared
    /// so the copy-on-write commit path clones pointers, not part tables.
    maint: BTreeMap<String, Arc<ViewMaint<T>>>,
    /// Programs whose fixpoints are kept fresh: every program a `fixpoint`
    /// statement has run, until the user reclaims one of its heads with an
    /// explicit assignment or update (which deactivates the program).
    active_programs: BTreeSet<String>,
}

impl<T: Theory> EngineState<T> {
    fn fresh() -> Self {
        EngineState {
            generation: next_generation(),
            instance: Instance::new(Schema::new()),
            queries: BTreeMap::new(),
            programs: BTreeMap::new(),
            derived: BTreeSet::new(),
            materialized: BTreeSet::new(),
            maint: BTreeMap::new(),
            active_programs: BTreeSet::new(),
        }
    }

    /// A mutable copy for a commit in progress (same generation until the
    /// commit stamps its own).  Cheap: relations and compiled plans are
    /// `Arc`-shared, so this clones maps of pointers, not data.
    fn working(&self) -> Self {
        EngineState {
            generation: self.generation,
            instance: self.instance.clone(),
            queries: self.queries.clone(),
            programs: self.programs.clone(),
            derived: self.derived.clone(),
            materialized: self.materialized.clone(),
            maint: self.maint.clone(),
            active_programs: self.active_programs.clone(),
        }
    }
}

/// A consistent, immutable point-in-time view of a [`Database`].
///
/// Snapshots are cheap to take (one `Arc` clone under a momentary read lock)
/// and entirely lock-free to use: every read method works on state frozen at
/// [`Snapshot::generation`], unaffected by concurrent commits.  Query
/// evaluation through a snapshot hits the shared plan cache keyed by this
/// generation, so repeated reads re-use the statistics-optimized plan without
/// ever re-running the optimizer.
pub struct Snapshot<T: Theory> {
    state: Arc<EngineState<T>>,
    cache: Arc<PlanCache>,
    config: PlanConfig,
    metrics: Arc<MetricsRegistry>,
}

impl<T: Theory> Clone for Snapshot<T> {
    fn clone(&self) -> Self {
        Snapshot {
            state: Arc::clone(&self.state),
            cache: Arc::clone(&self.cache),
            config: self.config,
            metrics: Arc::clone(&self.metrics),
        }
    }
}

impl<T: Theory> Snapshot<T> {
    /// The globally unique schema generation this snapshot was committed at.
    /// Strictly increasing across commits of one database, and never shared
    /// between two database handles in the same process.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.state.generation
    }

    /// The instance frozen in this snapshot.
    #[must_use]
    pub fn instance(&self) -> &Instance<T> {
        &self.state.instance
    }

    /// The current value of a stored relation.
    #[must_use]
    pub fn relation(&self, name: &str) -> Option<Relation<T>> {
        self.state.instance.get(&RelName::new(name))
    }

    /// A named query definition.
    #[must_use]
    pub fn query(&self, name: &str) -> Option<&QueryDef<T>> {
        self.state.queries.get(name)
    }

    /// A named `DATALOG¬` program.
    #[must_use]
    pub fn program(&self, name: &str) -> Option<&Program<T::A>> {
        self.state.programs.get(name)
    }

    /// Whether `name` was materialized by a `fixpoint` merge.
    #[must_use]
    pub fn is_derived(&self, name: &str) -> bool {
        self.state.derived.contains(&RelName::new(name))
    }

    /// Whether `name` was materialized by a `run`.
    #[must_use]
    pub fn is_materialized(&self, name: &str) -> bool {
        self.state.materialized.contains(&RelName::new(name))
    }

    /// The statistics-reoptimized plan for a named query at this snapshot's
    /// generation: served from the shared plan cache when warm (zero optimizer
    /// work), built and cached once when cold.
    fn optimized(&self, name: &str) -> Result<CompiledQuery<T>, DbError> {
        let query = self
            .query(name)
            .ok_or_else(|| DbError::new(format!("unknown query `{name}`")))?;
        Ok(self.cache.reoptimize::<T>(
            &query.formula,
            &query.free,
            &self.config,
            self.state.generation,
            || {
                Statistics::collect_only(
                    &self.state.instance,
                    query.compiled.relations().iter().map(|(name, _)| name),
                )
            },
        ))
    }

    /// Evaluates a named query against this snapshot, returning the answer
    /// relation.  Pure read: nothing is materialized and no generation is
    /// consumed, so N threads can evaluate concurrently, all sharing one
    /// statistics-optimized plan from the cache.
    ///
    /// # Errors
    /// Returns an error if the query is unknown or evaluation fails.
    pub fn eval_query(&self, name: &str) -> Result<Relation<T>, DbError> {
        let optimized = self.optimized(name)?;
        let (answer, elapsed, index_delta, strategies) =
            measured(|| optimized.eval(&self.state.instance));
        self.metrics
            .record_query(self.generation(), elapsed, index_delta, &strategies);
        answer.map_err(|e| DbError::new(e.to_string()))
    }

    /// Evaluates a named query and returns the answer together with the
    /// [`QueryTrace`] plan tree of the statistics-optimized plan that ran:
    /// per node, the output cardinality and factorized part count, the join
    /// strategy with its pruning ratio, index builds/reuses, wall time, and
    /// the cost model's estimate.  The trace's default rendering and its
    /// [`QueryTrace::explain`] rendering are deterministic at any thread
    /// count (timings surface only through [`QueryTrace::timed`]).  Recorded
    /// in the metrics registry as one query evaluation.
    ///
    /// # Errors
    /// As for [`Snapshot::eval_query`].
    pub fn trace_query(&self, name: &str) -> Result<(Relation<T>, QueryTrace), DbError> {
        let optimized = self.optimized(name)?;
        let (traced, elapsed, index_delta, strategies) =
            measured(|| optimized.eval_traced(&self.state.instance));
        self.metrics
            .record_query(self.generation(), elapsed, index_delta, &strategies);
        traced.map_err(|e| DbError::new(e.to_string()))
    }

    /// Runs a stored program to its fixpoint against this snapshot **without
    /// committing anything**, returning the iteration count and the
    /// per-round [`FixpointTrace`].  Heads materialized by an earlier
    /// `fixpoint` are stripped from the evaluation EDB first, exactly like
    /// [`Database::run_fixpoint`] — the trace shows what a fixpoint statement
    /// would do from this snapshot.
    ///
    /// # Errors
    /// Returns an error if the program is unknown or fails to run.
    pub fn trace_fixpoint(&self, name: &str) -> Result<(usize, FixpointTrace), DbError> {
        let program = self
            .program(name)
            .ok_or_else(|| DbError::new(format!("unknown program `{name}`")))?;
        let idb = program
            .idb_schema()
            .map_err(|e| DbError::new(e.to_string()))?;
        let mut edb = self.state.instance.clone();
        for head in idb.keys() {
            if self.state.derived.contains(head) {
                edb.remove(head);
            }
        }
        let (result, elapsed, index_delta, strategies) = measured(|| program.run_traced(&edb));
        self.metrics
            .record_fixpoint(elapsed, index_delta, &strategies);
        let (result, trace) = result.map_err(|e| DbError::new(e.to_string()))?;
        Ok((result.iterations, trace))
    }

    /// Evaluates a sentence (Boolean query) against this snapshot.  The
    /// throwaway plan is cached too: repeated checks of one sentence compile
    /// once process-wide.
    ///
    /// # Errors
    /// Returns an error if evaluation fails (unknown relation, arity
    /// mismatch, or a non-sentence with free variables).
    pub fn check(&self, formula: &Formula<T::A>) -> Result<bool, DbError> {
        let compiled = self.cache.compile::<T>(formula, &[], &self.config);
        let (answer, elapsed, index_delta, strategies) =
            measured(|| compiled.eval(&self.state.instance));
        self.metrics
            .record_check(self.generation(), elapsed, index_delta, &strategies);
        let answer = answer.map_err(|e| DbError::new(e.to_string()))?;
        Ok(!answer.is_empty())
    }
}

/// How the engine refreshes materialized query answers and stored-program
/// fixpoints after a value-changing commit (`insert`, `delete`, assignment,
/// or a cascading refresh).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MaintenanceMode {
    /// Maintain incrementally where the view's shape allows it (formula
    /// linear in the one relation that changed), falling back to a full
    /// recompute otherwise.  The default.
    #[default]
    Incremental,
    /// Always recompute dependents from scratch.  Kept reachable as the
    /// differential-testing oracle for incremental maintenance: both modes
    /// run the identical refresh cascade and must publish *exactly* the same
    /// DNF.
    Recompute,
}

/// Construction-time configuration of a [`Database`].
#[derive(Clone, Default)]
pub struct DbConfig {
    /// Whether script execution prints wall-clock timings after `run`,
    /// `check`, and `fixpoint` statements.  Off by default, so transcripts
    /// are byte-deterministic (golden-testable); the CLI's `--timings` flag
    /// turns it on.
    pub timings: bool,
    /// The optimization level and evaluator thread budget queries compile
    /// under.
    pub plan_config: PlanConfig,
    /// The plan cache to share.  `None` (the default) uses the process-global
    /// cache; tests that assert on counters can pass a private one.
    pub plan_cache: Option<Arc<PlanCache>>,
    /// How materialized views and fixpoints react to updates.
    pub maintenance: MaintenanceMode,
}

/// The result of running a stored program to its fixpoint: what a `fixpoint`
/// statement reports.
pub struct FixpointRun<T: Theory> {
    /// Number of iterations to reach the fixpoint.
    pub iterations: usize,
    /// The fixpoint value of every intensional predicate, in name order.
    pub heads: Vec<(RelName, Relation<T>)>,
    /// Wall-clock evaluation time.
    pub elapsed: Duration,
}

/// An embeddable, concurrently usable database over one theory.
///
/// The handle is `Send + Sync`: share it behind an `Arc` (or plain references
/// under `std::thread::scope`) and let every thread take [`Snapshot`]s for
/// reads and call the mutating methods for writes.  See the module docs for
/// the concurrency model.
pub struct Database<T: Theory> {
    /// The committed state; the lock guards only the `Arc` swap.
    state: RwLock<Arc<EngineState<T>>>,
    /// Serializes writers.  Held across clone-apply-swap, never needed by
    /// readers.
    commit: Mutex<()>,
    cache: Arc<PlanCache>,
    plan_config: PlanConfig,
    timings: bool,
    maintenance: MaintenanceMode,
    /// This database's metrics registry.  Every operation brackets its
    /// evaluation with the engine's thread-local counters and folds the
    /// deltas in here, so the registry accounts exactly this database's work
    /// — no construction-time counter baselines needed.
    metrics: Arc<MetricsRegistry>,
}

impl<T: Theory> Default for Database<T> {
    fn default() -> Self {
        Database::new()
    }
}

impl<T: Theory> Database<T> {
    /// An empty database with the default configuration (shared global plan
    /// cache, default plan config, timings off).
    #[must_use]
    pub fn new() -> Self {
        Database::with_config(DbConfig::default())
    }

    /// An empty database with an explicit configuration.
    #[must_use]
    pub fn with_config(config: DbConfig) -> Self {
        Database {
            state: RwLock::new(Arc::new(EngineState::fresh())),
            commit: Mutex::new(()),
            cache: config
                .plan_cache
                .unwrap_or_else(|| Arc::clone(PlanCache::global())),
            plan_config: config.plan_config,
            timings: config.timings,
            maintenance: config.maintenance,
            metrics: Arc::new(MetricsRegistry::default()),
        }
    }

    /// How this database refreshes materialized views and fixpoints after
    /// updates.
    #[must_use]
    pub fn maintenance(&self) -> MaintenanceMode {
        self.maintenance
    }

    /// A point-in-time snapshot of this database's metrics registry —
    /// operation counters, join-strategy and column-index tallies, and the
    /// query/commit/fixpoint latency histograms — with the plan cache's
    /// counters attached.  Rendered by the `metrics;`
    /// ([`MetricsSnapshot::render_counters`]) and `stats;`
    /// ([`MetricsSnapshot::render_stats`]) script statements, and exportable
    /// as JSON via [`MetricsSnapshot::to_json`] (the CLI's `--metrics-out`
    /// flag).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            plan_cache: Some(self.cache.stats()),
            ..self.metrics.snapshot()
        }
    }

    /// The plan cache this database compiles through.
    #[must_use]
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The plan configuration queries compile under.
    #[must_use]
    pub fn plan_config(&self) -> &PlanConfig {
        &self.plan_config
    }

    /// Whether script execution prints timings.
    #[must_use]
    pub fn timings(&self) -> bool {
        self.timings
    }

    /// The current schema generation (that of the latest commit).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.current().generation
    }

    fn current(&self) -> Arc<EngineState<T>> {
        Arc::clone(&self.state.read().expect("state lock poisoned"))
    }

    /// A consistent point-in-time view of the database.  O(1): one `Arc`
    /// clone under a momentary read lock.  The snapshot never blocks behind
    /// writers and stays valid (and unchanged) for as long as it is held.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot<T> {
        self.metrics.record_snapshot();
        Snapshot {
            state: self.current(),
            cache: Arc::clone(&self.cache),
            config: self.plan_config,
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// The copy-on-write commit path: serialize on the commit mutex, clone
    /// the latest state, apply `mutate`, stamp a fresh generation, and swap
    /// the new state in.  On error nothing is published.  Readers are never
    /// blocked — the write lock is held only for the pointer swap.
    fn commit_with<R>(
        &self,
        mutate: impl FnOnce(&mut EngineState<T>) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        // A panic inside an earlier `mutate` poisons the mutex, but it ran on
        // a clone and nothing was swapped in: the guarded `()` holds no state
        // a panic could leave half-written, so later writers proceed.
        let _writer = self.commit.lock().unwrap_or_else(PoisonError::into_inner);
        let start = Instant::now();
        let mut work = self.current().working();
        let result = mutate(&mut work)?;
        work.generation = next_generation();
        *self.state.write().expect("state lock poisoned") = Arc::new(work);
        self.metrics.record_commit(start.elapsed());
        Ok(result)
    }

    /// Declares a relation in the schema.
    ///
    /// # Errors
    /// Returns an error if the name is already declared at a different arity.
    pub fn declare(&self, name: impl Into<RelName>, arity: usize) -> Result<(), DbError> {
        let name = name.into();
        self.commit_with(|work| {
            work.instance
                .declare(name.clone(), arity)
                .map(|_| ())
                .map_err(|e| DbError::new(e.to_string()))
        })
    }

    /// Sets a stored relation.  An explicit assignment makes the relation the
    /// user's again: a later `fixpoint` will not strip it, and a later `run`
    /// will refuse to clobber it.  Dependent materialized views and active
    /// fixpoints refresh within the same commit.
    ///
    /// # Errors
    /// Returns an error if the relation is undeclared or the arity disagrees.
    pub fn set_relation(
        &self,
        name: impl Into<RelName>,
        relation: Relation<T>,
    ) -> Result<(), DbError> {
        let name = name.into();
        self.commit_with(|work| {
            let old = work.instance.get(&name);
            work.instance
                .set(name.clone(), relation.clone())
                .map_err(|e| DbError::new(e.to_string()))?;
            work.derived.remove(&name);
            work.materialized.remove(&name);
            work.maint.remove(name.as_str());
            if old.is_none_or(|old| !same_value(&old, &relation)) {
                self.refresh_dependents(work, BTreeSet::from([name]), BTreeMap::new())?;
            }
            Ok(())
        })
    }

    /// Inserts generalized tuples into a stored relation (the `insert`
    /// statement): the new value is the absorption-canonical union of the old
    /// value and `relation`, so unsatisfiable or already-covered tuples
    /// change nothing.  Like an assignment, an explicit update makes the
    /// relation the user's again.  Dependent materialized views and active
    /// fixpoints refresh within the same commit, incrementally when
    /// [`MaintenanceMode::Incremental`] and the view's shape allow.
    ///
    /// # Errors
    /// Returns a typed error ([`DbErrorKind::UndeclaredRelation`] /
    /// [`DbErrorKind::ArityMismatch`]) when the update names an undeclared
    /// relation or disagrees with the declared arity; nothing is committed.
    pub fn insert_relation(
        &self,
        name: impl Into<RelName>,
        relation: Relation<T>,
    ) -> Result<(), DbError> {
        self.update_relation(name.into(), relation, true)
    }

    /// Deletes a region from a stored relation (the `delete` statement): the
    /// new value is the DNF difference `old \ relation` under the theory's
    /// entailment, so deleting never-inserted tuples changes nothing.
    /// Ownership and refresh semantics are as for
    /// [`Database::insert_relation`].
    ///
    /// # Errors
    /// As for [`Database::insert_relation`].
    pub fn delete_relation(
        &self,
        name: impl Into<RelName>,
        relation: Relation<T>,
    ) -> Result<(), DbError> {
        self.update_relation(name.into(), relation, false)
    }

    fn update_relation(
        &self,
        name: RelName,
        relation: Relation<T>,
        insert: bool,
    ) -> Result<(), DbError> {
        self.commit_with(|work| {
            // Validate against the schema *before* mutating anything, with
            // typed errors: `Instance::set` would also catch both cases, but
            // only after the expensive union/difference below.
            let declared = work.instance.schema().arity(&name).ok_or_else(|| {
                DbError::typed(
                    DbErrorKind::UndeclaredRelation,
                    format!("unknown relation `{name}`: declare it before updating"),
                )
            })?;
            if relation.arity() != declared {
                return Err(DbError::typed(
                    DbErrorKind::ArityMismatch,
                    format!(
                        "arity mismatch updating `{name}`: declared {declared}, \
                         the update has arity {found}",
                        found = relation.arity()
                    ),
                ));
            }
            let old = work
                .instance
                .get_shared(&name)
                .expect("declared relations always resolve");
            let incoming = relation.rename(old.vars().to_vec());
            // The delta variants do work proportional to the *update*, not the
            // stored relation — untouched parts are carried over verbatim —
            // which is what makes a small-delta commit cheap even on large
            // instances.  Their simplified-input precondition holds because
            // every stored relation was built by core's simplifying
            // constructors.
            let (updated, report) = if insert {
                old.union_delta_report(&incoming)
            } else {
                old.difference_delta_report(&incoming)
            };
            // The report is the *effective* part-level delta: absorbed
            // inserts and misses on delete contribute nothing.  It drives
            // the metrics tap, the no-op short-circuit, and — flowing down
            // the refresh cascade — the maintenance fast path that skips
            // re-aligning untouched provenance.
            if insert {
                self.metrics.record_insert(report.added.len() as u64);
            } else {
                self.metrics.record_delete(report.removed.len() as u64);
            }
            let changed = !report.is_empty();
            work.instance
                .set(name.clone(), updated)
                .map_err(|e| DbError::new(e.to_string()))?;
            work.derived.remove(&name);
            work.materialized.remove(&name);
            work.maint.remove(name.as_str());
            if changed {
                let deltas = BTreeMap::from([(name.clone(), Arc::new(report))]);
                self.refresh_dependents(work, BTreeSet::from([name]), deltas)?;
            }
            Ok(())
        })
    }

    /// Defines (or redefines) a named query.  The plan compiles through the
    /// shared cache, so redefining the same text — here or in any other
    /// session — is free after the first time.
    ///
    /// # Errors
    /// Commit-path errors only; definition itself cannot fail (ill-formed
    /// queries surface typed errors at evaluation).
    pub fn define_query(
        &self,
        name: &str,
        free: Vec<Var>,
        formula: Formula<T::A>,
    ) -> Result<(), DbError> {
        let compiled = self.cache.compile::<T>(&formula, &free, &self.plan_config);
        self.commit_with(|work| {
            work.queries.insert(
                name.to_string(),
                QueryDef {
                    free,
                    formula,
                    compiled,
                },
            );
            // Any maintenance provenance describes the *old* definition.
            work.maint.remove(name);
            Ok(())
        })
    }

    /// Defines (or redefines) a named `DATALOG¬` program.
    ///
    /// # Errors
    /// Commit-path errors only.
    pub fn define_program(&self, name: &str, program: Program<T::A>) -> Result<(), DbError> {
        self.commit_with(|work| {
            work.programs.insert(name.to_string(), program);
            Ok(())
        })
    }

    /// Runs a named query and **materializes** its answer under the query's
    /// name (the `run` statement): later queries and programs read it like
    /// any stored relation.  Re-running overwrites the previous answer; a
    /// *user* relation of the same name is never clobbered.
    ///
    /// # Errors
    /// Returns an error if the query is unknown, its name collides with a
    /// stored user relation, or evaluation fails.
    pub fn run_query(&self, name: &str) -> Result<(Relation<T>, Duration), DbError> {
        let cache = &self.cache;
        let config = self.plan_config;
        let metrics = &self.metrics;
        self.commit_with(|work| {
            let query = work
                .queries
                .get(name)
                .ok_or_else(|| DbError::new(format!("unknown query `{name}`")))?;
            let rel_name = RelName::new(name);
            if work.instance.schema().contains(&rel_name) && !work.materialized.contains(&rel_name)
            {
                return Err(DbError::new(format!(
                    "cannot materialize query `{name}`: a stored relation with that name \
                     already exists (rename the query)"
                )));
            }
            // The statistics-reoptimized plan for this generation, shared
            // through the cache (scoped statistics: only the relations this
            // query reads are scanned) — `explain` shows exactly this plan.
            let optimized = cache.reoptimize::<T>(
                &query.formula,
                &query.free,
                &config,
                work.generation,
                || {
                    Statistics::collect_only(
                        &work.instance,
                        query.compiled.relations().iter().map(|(name, _)| name),
                    )
                },
            );
            let (answer, elapsed, index_delta, strategies) =
                measured(|| optimized.eval(&work.instance));
            metrics.record_query(work.generation, elapsed, index_delta, &strategies);
            let answer = answer.map_err(|e| DbError::new(e.to_string()))?;
            // Only now that evaluation succeeded: a previous materialization
            // at a different arity (the query was redefined in between) is
            // stale; drop it so re-declaring below cannot fail.  A failed run
            // leaves the old answer untouched.
            if work.materialized.contains(&rel_name)
                && work.instance.schema().arity(&rel_name) != Some(answer.arity())
            {
                work.instance.remove(&rel_name);
            }
            let previous = work.instance.get(&rel_name);
            work.instance
                .declare(rel_name.clone(), answer.arity())
                .map_err(|e| DbError::new(e.to_string()))?;
            work.instance
                .set(rel_name.clone(), answer.clone())
                .map_err(|e| DbError::new(e.to_string()))?;
            work.materialized.insert(rel_name.clone());
            // A fresh full evaluation supersedes any maintenance provenance;
            // it is rebuilt lazily by the next maintainable refresh.
            work.maint.remove(name);
            if previous.is_none_or(|prev| !same_value(&prev, &answer)) {
                self.refresh_dependents(work, BTreeSet::from([rel_name]), BTreeMap::new())?;
            }
            Ok((answer, elapsed))
        })
    }

    /// Runs a stored program to its inflationary fixpoint and merges the
    /// result into the database (the `fixpoint` statement): the fixpoint
    /// instance (EDB + IDB) becomes the current instance, so later queries
    /// read the derived predicates.  Heads materialized by an earlier
    /// `fixpoint` are stripped from the evaluation EDB first, so programs can
    /// be re-run; a head colliding with a *user* relation errors.
    ///
    /// # Errors
    /// Returns an error if the program is unknown or fails to run.
    pub fn run_fixpoint(&self, name: &str) -> Result<FixpointRun<T>, DbError> {
        let metrics = &self.metrics;
        self.commit_with(|work| {
            let program = work
                .programs
                .get(name)
                .ok_or_else(|| DbError::new(format!("unknown program `{name}`")))?;
            let idb = program
                .idb_schema()
                .map_err(|e| DbError::new(e.to_string()))?;
            let mut edb = work.instance.clone();
            for head in idb.keys() {
                if work.derived.contains(head) {
                    edb.remove(head);
                }
            }
            let (result, elapsed, index_delta, strategies) = measured(|| program.run(&edb));
            metrics.record_fixpoint(elapsed, index_delta, &strategies);
            let result = result.map_err(|e| DbError::new(e.to_string()))?;
            let heads: Vec<(RelName, Relation<T>)> = idb
                .keys()
                .filter_map(|head| result.instance.get(head).map(|rel| (head.clone(), rel)))
                .collect();
            let changed: BTreeSet<RelName> = heads
                .iter()
                .filter(|(head, new)| {
                    work.instance
                        .get(head)
                        .is_none_or(|old| !same_value(&old, new))
                })
                .map(|(head, _)| head.clone())
                .collect();
            work.instance = result.instance;
            work.derived.extend(idb.keys().cloned());
            // The program's heads are now maintained: later updates to its
            // EDB re-run it within the updating commit.
            work.active_programs.insert(name.to_string());
            if !changed.is_empty() {
                self.refresh_dependents(work, changed, BTreeMap::new())?;
            }
            Ok(FixpointRun {
                iterations: result.iterations,
                heads,
                elapsed,
            })
        })
    }

    /// Refreshes every materialized view and active fixpoint that (directly
    /// or transitively) reads a relation in `initial`, until the cascade
    /// quiesces.  **Both** [`MaintenanceMode`]s run exactly this driver —
    /// the mode only decides *how* a single view refresh is computed
    /// (part-aligned maintenance vs. full re-evaluation) — so the
    /// differential harness compares identical cascade semantics and the two
    /// modes must publish identical DNF, part for part.
    ///
    /// Waves: the relations changed so far seed a wave; every dependent is
    /// refreshed once per wave (views in name order, then programs in name
    /// order), and dependents whose value actually changed seed the next
    /// wave.  A view whose only dirty dependency is itself is left alone
    /// (self-referential views would otherwise never quiesce), and a cycle
    /// of views that keeps oscillating exhausts the wave budget and fails
    /// the commit — publishing nothing.
    fn refresh_dependents(
        &self,
        work: &mut EngineState<T>,
        initial: BTreeSet<RelName>,
        mut deltas: BTreeMap<RelName, Arc<PartDelta<T::A>>>,
    ) -> Result<(), DbError> {
        let mut pending = initial;
        let budget = 2 * (work.queries.len() + work.programs.len()) + 2;
        let mut waves = 0usize;
        while !pending.is_empty() {
            waves += 1;
            if waves > budget {
                return Err(DbError::new(
                    "update cascade failed to quiesce: materialized views form an \
                     unstable dependency cycle",
                ));
            }
            let wave = std::mem::take(&mut pending);
            let views: Vec<RelName> = work.materialized.iter().cloned().collect();
            for view in views {
                let Some(qdef) = work.queries.get(view.as_str()).cloned() else {
                    continue;
                };
                let dirty: Vec<RelName> = qdef
                    .compiled
                    .relations()
                    .iter()
                    .map(|(n, _)| n.clone())
                    .filter(|n| *n != view && wave.contains(n))
                    .collect();
                if dirty.is_empty() {
                    continue;
                }
                let old = work
                    .instance
                    .get_shared(&view)
                    .expect("materialized views are always stored");
                let answer = self.refresh_view(work, &view, &qdef, &dirty, &deltas)?;
                if !same_value(&old, &answer) {
                    work.instance
                        .set(view.clone(), answer)
                        .map_err(|e| DbError::new(e.to_string()))?;
                    // The view's value changed wholesale; any update delta
                    // recorded under its name no longer describes it.
                    deltas.remove(&view);
                    pending.insert(view);
                }
            }
            let programs: Vec<String> = work.active_programs.iter().cloned().collect();
            for prog in programs {
                for changed in self.refresh_program(work, &prog, &wave)? {
                    deltas.remove(&changed);
                    pending.insert(changed);
                }
            }
        }
        Ok(())
    }

    /// Recomputes one materialized view — incrementally via part-aligned
    /// maintenance when the mode and the view's shape allow (exactly one
    /// dirty dependency, formula linear in it), from scratch otherwise.
    fn refresh_view(
        &self,
        work: &mut EngineState<T>,
        view: &RelName,
        qdef: &QueryDef<T>,
        dirty: &[RelName],
        deltas: &BTreeMap<RelName, Arc<PartDelta<T::A>>>,
    ) -> Result<Relation<T>, DbError> {
        if self.maintenance == MaintenanceMode::Incremental {
            if let [dep] = dirty {
                if linear_occurrences(&qdef.formula, dep) == Some(1) {
                    let delta = deltas.get(dep).cloned();
                    return self.maintain_view(work, view, qdef, dep, delta.as_deref());
                }
            }
        }
        // Full recompute through the definition-time plan (answers are
        // bit-identical across plan shapes, so this matches what a fresh
        // `run` would publish); stale provenance is dropped.
        work.maint.remove(view.as_str());
        self.metrics.record_view_recomputed();
        qdef.compiled
            .eval(&work.instance)
            .map_err(|e| DbError::new(e.to_string()))
    }

    /// Part-aligned incremental refresh: re-evaluates the view only for
    /// stored parts of `dep` that the provenance has never seen, re-using
    /// cached per-part answers for the rest, and recomposes the answer as
    /// the absorption-canonical union of all per-part contributions.
    fn maintain_view(
        &self,
        work: &mut EngineState<T>,
        view: &RelName,
        qdef: &QueryDef<T>,
        dep: &RelName,
        delta: Option<&PartDelta<T::A>>,
    ) -> Result<Relation<T>, DbError> {
        let dep_rel = work.instance.get_shared(dep).ok_or_else(|| {
            DbError::new(format!("view `{view}` reads undeclared relation `{dep}`"))
        })?;
        let prior = work
            .maint
            .get(view.as_str())
            .filter(|m| &m.dep == dep)
            .cloned();
        // Relations are `Arc`-shared inside the instance, so this scratch
        // copy costs a pointer map however large the stored data.
        let mut scratch = work.instance.clone();
        let mut eval_with_dep = |only: Relation<T>| -> Result<Vec<GenTuple<T::A>>, DbError> {
            scratch
                .set(dep.clone(), only)
                .map_err(|e| DbError::new(e.to_string()))?;
            let out = qdef
                .compiled
                .eval(&scratch)
                .map_err(|e| DbError::new(e.to_string()))?;
            Ok(out.tuples().to_vec())
        };
        let base = match &prior {
            Some(m) => m.base.clone(),
            None => eval_with_dep(Relation::empty(dep_rel.vars().to_vec()))?,
        };
        // Decide what to re-derive.  When the refresh was caused by a
        // first-class update whose part-level report shows pure growth —
        // nothing removed, every prior part still standing — the stored
        // delta IS the work list: every prior group carries over by bumping
        // its reference count, in time proportional to the *update*.  The
        // count cross-check guards against a provenance that has drifted
        // from the stored value (then the report does not describe it).
        let mut groups: Vec<Arc<MaintGroup<T>>> = Vec::new();
        let mut reeval: Vec<GenTuple<T::A>> = Vec::new();
        let insert_fast_path = match (&prior, delta) {
            (Some(m), Some(d)) if d.removed.is_empty() => {
                let covered: usize = m.groups.iter().map(|g| g.parts.len()).sum();
                covered + d.added.len() == dep_rel.tuples().len()
            }
            _ => false,
        };
        if insert_fast_path {
            let m = prior.as_ref().expect("fast path requires provenance");
            let d = delta.expect("fast path requires a delta");
            groups.extend(m.groups.iter().map(Arc::clone));
            reeval.extend(d.added.iter().cloned());
        } else {
            // Value alignment: two hash sets built once per refresh — a
            // linear scan here would make the refresh quadratic in the
            // stored relation even when nothing changed.  Intact groups
            // carry over by bumping their reference count; parts the
            // provenance has never seen, plus the survivors of any group
            // that lost a part, re-derive together in ONE plan evaluation.
            // (`GenTuple`'s interior mutability is its lazy closure caches;
            // `Eq`/`Hash` read only the atom list, so the keys are stable.)
            #[allow(clippy::mutable_key_type)]
            let dep_parts: HashSet<&GenTuple<T::A>> = dep_rel.tuples().iter().collect();
            #[allow(clippy::mutable_key_type)]
            let prior_parts: HashSet<&GenTuple<T::A>> = prior
                .as_ref()
                .map(|m| m.groups.iter().flat_map(|g| g.parts.iter()).collect())
                .unwrap_or_default();
            reeval.extend(
                dep_rel
                    .tuples()
                    .iter()
                    .filter(|part| !prior_parts.contains(part))
                    .cloned(),
            );
            for group in prior.as_ref().map(|m| m.groups.as_slice()).unwrap_or(&[]) {
                let survivors: Vec<GenTuple<T::A>> = group
                    .parts
                    .iter()
                    .filter(|part| dep_parts.contains(part))
                    .cloned()
                    .collect();
                if survivors.len() == group.parts.len() {
                    groups.push(Arc::clone(group));
                } else {
                    reeval.extend(survivors);
                }
            }
        }
        if !reeval.is_empty() {
            let outs = eval_with_dep(Relation::new(dep_rel.vars().to_vec(), reeval.clone()))?;
            groups.push(Arc::new(MaintGroup {
                parts: reeval,
                outs,
            }));
        }
        let mut parts = base.clone();
        parts.extend(groups.iter().flat_map(|g| g.outs.iter().cloned()));
        let answer = Relation::try_new(qdef.free.clone(), parts)
            .map_err(|e| DbError::new(e.to_string()))?
            .canonically_sorted();
        work.maint.insert(
            view.as_str().to_string(),
            Arc::new(ViewMaint {
                dep: dep.clone(),
                base,
                groups,
            }),
        );
        self.metrics.record_view_maintained();
        Ok(answer)
    }

    /// Re-runs one active program when this wave touched a relation its rule
    /// bodies read, merging the fixpoint back in; returns the heads whose
    /// value changed.  A program one of whose heads the user has reclaimed
    /// (by assignment or update) is deactivated instead.
    fn refresh_program(
        &self,
        work: &mut EngineState<T>,
        name: &str,
        wave: &BTreeSet<RelName>,
    ) -> Result<Vec<RelName>, DbError> {
        let Some(program) = work.programs.get(name).cloned() else {
            work.active_programs.remove(name);
            return Ok(Vec::new());
        };
        let idb = program
            .idb_schema()
            .map_err(|e| DbError::new(e.to_string()))?;
        if idb.keys().any(|head| !work.derived.contains(head)) {
            work.active_programs.remove(name);
            return Ok(Vec::new());
        }
        let reads: BTreeSet<RelName> = program
            .rules()
            .iter()
            .flat_map(|rule| rule.body_formula().relation_names())
            .filter(|n| !idb.contains_key(n))
            .collect();
        if reads.is_disjoint(wave) {
            return Ok(Vec::new());
        }
        let mut edb = work.instance.clone();
        for head in idb.keys() {
            edb.remove(head);
        }
        let result = program.run(&edb).map_err(|e| DbError::new(e.to_string()))?;
        let mut changed = Vec::new();
        for head in idb.keys() {
            let new = result.instance.get(head);
            let old = work.instance.get(head);
            match (old, new) {
                (Some(old), Some(new)) if same_value(&old, &new) => {}
                _ => changed.push(head.clone()),
            }
        }
        work.instance = result.instance;
        self.metrics.record_view_recomputed();
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frdb_core::dense::{DenseAtom, DenseOrder};
    use frdb_core::logic::Term;
    use frdb_num::Rat;

    fn points(vals: &[i64]) -> Relation<DenseOrder> {
        Relation::from_points(
            vec![Var::new("x")],
            vals.iter().map(|&v| vec![Rat::from_i64(v)]),
        )
    }

    #[test]
    fn snapshots_are_frozen_while_commits_advance() {
        let db: Database<DenseOrder> = Database::new();
        db.declare("R", 1).unwrap();
        db.set_relation("R", points(&[1, 2])).unwrap();
        let before = db.snapshot();
        let g = before.generation();
        db.set_relation("R", points(&[1, 2, 3])).unwrap();
        let after = db.snapshot();
        assert!(after.generation() > g);
        // The old snapshot still sees the old value; the new one the new.
        assert!(!before.relation("R").unwrap().contains(&[Rat::from_i64(3)]));
        assert!(after.relation("R").unwrap().contains(&[Rat::from_i64(3)]));
    }

    #[test]
    fn a_panicking_commit_leaves_later_writes_working() {
        let db: Database<DenseOrder> = Database::new();
        db.declare("R", 1).unwrap();
        let g = db.generation();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.commit_with(|_| -> Result<(), DbError> { panic!("mutation panicked") })
        }));
        assert!(panicked.is_err());
        assert_eq!(db.generation(), g, "the panicked commit published nothing");
        db.declare("S", 2).unwrap();
        assert!(db.generation() > g);
        assert_eq!(db.snapshot().instance().schema().len(), 2);
    }

    #[test]
    fn failed_commits_publish_nothing() {
        let db: Database<DenseOrder> = Database::new();
        db.declare("R", 1).unwrap();
        let g = db.generation();
        // Arity mismatch: the commit fails, generation and state are unchanged.
        let err = db
            .set_relation(
                "R",
                Relation::from_points(
                    vec![Var::new("x"), Var::new("y")],
                    vec![vec![Rat::from_i64(1), Rat::from_i64(2)]],
                ),
            )
            .unwrap_err();
        assert!(err.message.contains("ar"), "unexpected error: {err}");
        assert_eq!(db.generation(), g);
        assert!(db.snapshot().relation("R").unwrap().is_empty());
    }

    #[test]
    fn run_query_materializes_and_snapshot_reads_are_pure() {
        let db: Database<DenseOrder> = Database::new();
        db.declare("R", 1).unwrap();
        db.set_relation("R", points(&[0, 3, 7])).unwrap();
        let f: Formula<DenseAtom> = Formula::rel("R", [Term::var("x")])
            .and(Formula::Atom(DenseAtom::le(Term::var("x"), Term::cst(3))));
        db.define_query("small", vec![Var::new("x")], f).unwrap();
        let snap = db.snapshot();
        let g = snap.generation();
        let pure = snap.eval_query("small").unwrap();
        assert!(pure.contains(&[Rat::from_i64(3)]));
        // A pure read consumed no generation and materialized nothing.
        assert_eq!(db.generation(), g);
        assert!(db.snapshot().relation("small").is_none());
        // `run_query` materializes (and commits).
        let (ran, _) = db.run_query("small").unwrap();
        assert!(ran.equivalent(&pure.rename(ran.vars().to_vec())));
        assert!(db.snapshot().relation("small").is_some());
        assert!(db.generation() > g);
    }

    #[test]
    fn private_plan_cache_counters_observe_sharing() {
        let cache = Arc::new(PlanCache::new());
        let db: Database<DenseOrder> = Database::with_config(DbConfig {
            plan_cache: Some(Arc::clone(&cache)),
            ..DbConfig::default()
        });
        db.declare("R", 1).unwrap();
        db.set_relation("R", points(&[1, 2, 3])).unwrap();
        let f: Formula<DenseAtom> = Formula::rel("R", [Term::var("x")]);
        db.define_query("q", vec![Var::new("x")], f).unwrap();
        let snap = db.snapshot();
        snap.eval_query("q").unwrap();
        let warm = cache.stats();
        // Re-reading the same snapshot (or a fresh snapshot at the same
        // generation) runs zero additional optimizer invocations.
        snap.eval_query("q").unwrap();
        db.snapshot().eval_query("q").unwrap();
        assert_eq!(
            cache.stats().optimizer_invocations,
            warm.optimizer_invocations
        );
        assert_eq!(cache.stats().reoptimize_hits, warm.reoptimize_hits + 2);
    }
}
