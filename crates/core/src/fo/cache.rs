//! The process-wide compiled-plan cache.
//!
//! Compiling a query (formula → hash-consed plan IR) and re-optimizing it
//! against an instance's statistics are pure functions of
//! `(formula, answer variables, configuration, instance contents)`.  The PR 5
//! pipeline paid that cost once per *session object* (the Datalog engine
//! caches per program, the CLI per query definition); nothing was shared
//! across sessions, so N concurrent sessions asking the same question paid N
//! compile/optimize passes.
//!
//! [`PlanCache`] shares both stages process-wide:
//!
//! * **Compiled plans** are keyed by `(formula hash, theory, opt level,
//!   threads)` — instance-independent, so they survive every update.
//! * **Statistics-reoptimized plans** are additionally keyed by the **schema
//!   generation** of the instance they were optimized for.  A generation is a
//!   globally unique token ([`next_generation`]) stamped on every committed
//!   database snapshot; committing a write bumps the generation, so stale
//!   reoptimized plans are never served — the next query against the new
//!   snapshot misses, re-optimizes once, and repopulates the cache.
//!
//! Admission is 2Q-style (Johnson & Shasha, VLDB 1994): a plan's first miss
//! parks it in a small FIFO probation queue, and only a second request
//! while it is still there promotes it into the main table.  One-off
//! sentences — a check asked once with fresh constants — therefore cycle
//! through the queue instead of accumulating until the capacity reset, so a
//! long-running process holds a bounded number of plans it will never reuse.
//!
//! Lookups verify full formula equality behind the hash (a collision falls
//! back to an uncached compile, never a wrong plan), and [`PlanCacheStats`]
//! exposes hit/miss/optimizer counters so tests — and capacity planning — can
//! observe that a warm cache performs **zero** optimizer invocations on
//! repeated queries.  Both query engines go through this cache: the FO path
//! via [`PlanCache::compile`]/[`PlanCache::reoptimize`], and the Datalog
//! engine's per-program rule-plan cache, whose rule bodies are compiled
//! through [`PlanCache::global`].

use super::optimize::{OptLevel, PlanConfig};
use super::stats::Statistics;
use super::{compile_query_with, CompiledQuery};
use crate::logic::{Formula, Var};
use crate::theory::Theory;
use std::any::{Any, TypeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Hands out globally unique, monotonically increasing schema-generation
/// tokens.  Every committed database snapshot is stamped with one, so
/// generation-keyed cache entries can never be confused between two database
/// handles living in the same process.
pub fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Which compilation stage a cache entry holds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Stage {
    /// The instance-independent compiled plan (optimized against uniform
    /// statistics when the configuration asks for optimization at all).
    Compiled,
    /// The plan re-optimized against the statistics of the instance at this
    /// schema generation.
    Reoptimized(u64),
}

/// The cache key: a structural hash of `(formula, free)` plus everything else
/// that changes the compiled artifact.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Key {
    query_hash: u64,
    theory: TypeId,
    opt: OptLevel,
    threads: usize,
    stage: Stage,
}

/// A cached plan together with the query it was compiled from, so lookups can
/// verify equality behind the hash.
struct CachedPlan<T: Theory> {
    formula: Formula<T::A>,
    free: Vec<Var>,
    compiled: CompiledQuery<T>,
}

/// A cached plan behind its theory-erased handle.
type Entry = Arc<dyn Any + Send + Sync>;

/// The two parts of the cache, guarded by one lock.
#[derive(Default)]
struct Tables {
    /// Plans requested at least twice, in hash buckets: full equality is
    /// verified per entry, so a 64-bit collision degrades to an extra
    /// comparison, never a wrong plan.
    main: HashMap<Key, Vec<Entry>>,
    /// Number of plans in `main`, kept so a miss never sums the buckets.
    main_len: usize,
    /// Plans requested once so far, oldest first.
    probation: VecDeque<(Key, Entry)>,
}

impl Tables {
    fn len(&self) -> usize {
        self.main_len + self.probation.len()
    }

    fn clear(&mut self) {
        self.main.clear();
        self.main_len = 0;
        self.probation.clear();
    }
}

/// Counter snapshot of a [`PlanCache`]; see the field docs.  All counters are
/// process-lifetime monotone — tests should assert on deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Compile-stage lookups answered from the cache.
    pub compile_hits: u64,
    /// Compile-stage lookups that had to compile (and possibly optimize).
    pub compile_misses: u64,
    /// Reoptimize-stage lookups answered from the cache — no statistics were
    /// collected and no optimizer pass ran.
    pub reoptimize_hits: u64,
    /// Reoptimize-stage lookups that had to run the optimizer.
    pub reoptimize_misses: u64,
    /// Times the cost-guided optimizer actually ran on behalf of this cache
    /// (compile misses at [`OptLevel::Full`] plus reoptimize misses).  A warm
    /// cache serves repeated queries with **zero** new invocations.
    pub optimizer_invocations: u64,
    /// Entries dropped by capacity eviction, including one-off plans
    /// pushed out of the probation queue.
    pub evictions: u64,
}

/// A process-wide cache of compiled and statistics-reoptimized query plans,
/// shared by every session and both query engines.  See the module docs.
pub struct PlanCache {
    tables: Mutex<Tables>,
    compile_hits: AtomicU64,
    compile_misses: AtomicU64,
    reoptimize_hits: AtomicU64,
    reoptimize_misses: AtomicU64,
    optimizer_invocations: AtomicU64,
    evictions: AtomicU64,
    /// Bound on the plans held in both parts together.
    capacity: usize,
    /// Bound on the probation queue: `min(64, capacity / 2)`, at least 1.
    probation_capacity: usize,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Default maximum number of cached plans before eviction.
const DEFAULT_CAPACITY: usize = 4096;

impl PlanCache {
    /// An empty cache with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        PlanCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache evicting once more than `capacity` plans are held
    /// (probation queue and main table together).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            tables: Mutex::new(Tables::default()),
            compile_hits: AtomicU64::new(0),
            compile_misses: AtomicU64::new(0),
            reoptimize_hits: AtomicU64::new(0),
            reoptimize_misses: AtomicU64::new(0),
            optimizer_invocations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity: capacity.max(1),
            probation_capacity: (capacity / 2).clamp(1, 64),
        }
    }

    /// The process-wide shared cache: every `Database` handle defaults to it,
    /// and the Datalog engine compiles rule bodies through it.
    pub fn global() -> &'static Arc<PlanCache> {
        static GLOBAL: OnceLock<Arc<PlanCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(PlanCache::new()))
    }

    /// A counter snapshot (hits, misses, optimizer invocations, evictions).
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            compile_hits: self.compile_hits.load(Ordering::Relaxed),
            compile_misses: self.compile_misses.load(Ordering::Relaxed),
            reoptimize_hits: self.reoptimize_hits.load(Ordering::Relaxed),
            reoptimize_misses: self.reoptimize_misses.load(Ordering::Relaxed),
            optimizer_invocations: self.optimizer_invocations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of cached plans (both stages, probation queue included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables.lock().expect("plan cache poisoned").len()
    }

    /// Whether the cache holds no plans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan (counters are preserved).
    pub fn clear(&self) {
        self.tables.lock().expect("plan cache poisoned").clear();
    }

    /// The compiled plan for `{free | formula}` under `config`, compiling (and
    /// counting one optimizer invocation at [`OptLevel::Full`]) on the first
    /// request and sharing the plan with every later identical request.
    pub fn compile<T: Theory>(
        &self,
        formula: &Formula<T::A>,
        free: &[Var],
        config: &PlanConfig,
    ) -> CompiledQuery<T> {
        let key = self.key::<T>(formula, free, config, Stage::Compiled);
        if let Some(hit) = self.lookup::<T>(&key, formula, free) {
            self.compile_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.compile_misses.fetch_add(1, Ordering::Relaxed);
        if config.opt == OptLevel::Full {
            self.optimizer_invocations.fetch_add(1, Ordering::Relaxed);
        }
        let compiled = compile_query_with::<T>(formula, free, config);
        self.insert::<T>(key, formula, free, compiled.clone());
        compiled
    }

    /// The plan for `{free | formula}` re-optimized against the statistics of
    /// the instance at schema generation `generation`.  On a hit, neither
    /// `statistics` nor the optimizer runs; on a miss the compiled plan
    /// (itself cached) is re-optimized once and cached under the generation.
    /// A commit bumps the generation, so the stale entry is simply never
    /// asked for again.
    pub fn reoptimize<T: Theory>(
        &self,
        formula: &Formula<T::A>,
        free: &[Var],
        config: &PlanConfig,
        generation: u64,
        statistics: impl FnOnce() -> Statistics,
    ) -> CompiledQuery<T> {
        let compiled = self.compile::<T>(formula, free, config);
        if config.opt == OptLevel::None {
            // Nothing to re-optimize: the compiled plan is the final plan.
            return compiled;
        }
        let key = self.key::<T>(formula, free, config, Stage::Reoptimized(generation));
        if let Some(hit) = self.lookup::<T>(&key, formula, free) {
            self.reoptimize_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.reoptimize_misses.fetch_add(1, Ordering::Relaxed);
        self.optimizer_invocations.fetch_add(1, Ordering::Relaxed);
        let reoptimized = compiled.optimized_for(&statistics());
        self.insert::<T>(key, formula, free, reoptimized.clone());
        reoptimized
    }

    fn key<T: Theory>(
        &self,
        formula: &Formula<T::A>,
        free: &[Var],
        config: &PlanConfig,
        stage: Stage,
    ) -> Key {
        let mut h = DefaultHasher::new();
        formula.hash(&mut h);
        free.hash(&mut h);
        Key {
            query_hash: h.finish(),
            theory: TypeId::of::<T>(),
            opt: config.opt,
            threads: config.threads,
            stage,
        }
    }

    /// The plan cached under `key` for exactly `{free | formula}`.  A hit in
    /// the probation queue promotes the plan into the main table.
    fn lookup<T: Theory>(
        &self,
        key: &Key,
        formula: &Formula<T::A>,
        free: &[Var],
    ) -> Option<CompiledQuery<T>> {
        let matching = |entry: &Entry| {
            let cached = entry.downcast_ref::<CachedPlan<T>>()?;
            (cached.formula == *formula && cached.free == free).then(|| cached.compiled.clone())
        };
        let mut tables = self.tables.lock().expect("plan cache poisoned");
        if let Some(hit) = tables
            .main
            .get(key)
            .and_then(|bucket| bucket.iter().find_map(matching))
        {
            return Some(hit);
        }
        let (pos, hit) = tables
            .probation
            .iter()
            .enumerate()
            .filter(|(_, (k, _))| k == key)
            .find_map(|(pos, (_, entry))| Some((pos, matching(entry)?)))?;
        // Moving the plan between parts leaves the total unchanged, so the
        // capacity bound still holds.
        let (key, entry) = tables.probation.remove(pos).expect("position just found");
        tables.main.entry(key).or_default().push(entry);
        tables.main_len += 1;
        Some(hit)
    }

    /// Admits a freshly built plan into the probation queue, making room
    /// first: the queue drops its oldest plan when full, and once both parts
    /// together reach the capacity the main table is pruned.
    fn insert<T: Theory>(
        &self,
        key: Key,
        formula: &Formula<T::A>,
        free: &[Var],
        compiled: CompiledQuery<T>,
    ) {
        let entry: Entry = Arc::new(CachedPlan::<T> {
            formula: formula.clone(),
            free: free.to_vec(),
            compiled,
        });
        let mut tables = self.tables.lock().expect("plan cache poisoned");
        let before = tables.len();
        if tables.probation.len() >= self.probation_capacity {
            tables.probation.pop_front();
        } else if before >= self.capacity {
            // Generation-keyed entries go first: superseded generations are
            // unreachable anyway, and compile-stage plans are the expensive
            // ones to rebuild.  If that is not enough the whole main table
            // resets — it is a cache, correctness never depends on residency.
            tables.main.retain(|k, _| k.stage == Stage::Compiled);
            tables.main_len = tables.main.values().map(Vec::len).sum();
            if tables.len() >= self.capacity {
                tables.main.clear();
                tables.main_len = 0;
            }
        }
        self.evictions
            .fetch_add((before - tables.len()) as u64, Ordering::Relaxed);
        tables.probation.push_back((key, entry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{DenseAtom, DenseOrder};
    use crate::logic::Term;
    use crate::relation::{Instance, Relation};
    use crate::schema::Schema;
    use frdb_num::Rat;

    fn query() -> (Formula<DenseAtom>, Vec<Var>) {
        let f = Formula::exists(
            ["y"],
            Formula::rel("S", [Term::var("x"), Term::var("y")])
                .and(Formula::rel("S", [Term::var("y"), Term::var("z")])),
        );
        (f, vec![Var::new("x"), Var::new("z")])
    }

    fn instance() -> Instance<DenseOrder> {
        let mut inst = Instance::new(Schema::from_pairs([("S", 2)]));
        inst.set(
            "S",
            Relation::from_points(
                vec![Var::new("x"), Var::new("y")],
                vec![
                    vec![Rat::from_i64(1), Rat::from_i64(2)],
                    vec![Rat::from_i64(2), Rat::from_i64(3)],
                ],
            ),
        )
        .unwrap();
        inst
    }

    #[test]
    fn repeated_compiles_hit_and_run_no_optimizer() {
        let cache = PlanCache::new();
        let (f, free) = query();
        let config = PlanConfig::default();
        let a = cache.compile::<DenseOrder>(&f, &free, &config);
        let after_first = cache.stats();
        assert_eq!(after_first.compile_misses, 1);
        assert_eq!(after_first.optimizer_invocations, 1);
        let b = cache.compile::<DenseOrder>(&f, &free, &config);
        let after_second = cache.stats();
        assert_eq!(after_second.compile_hits, 1);
        assert_eq!(
            after_second.optimizer_invocations, 1,
            "a warm compile must not re-run the optimizer"
        );
        // The shared plan is the same artifact, and both evaluate identically.
        let inst = instance();
        assert!(a.eval(&inst).unwrap().equivalent(&b.eval(&inst).unwrap()));
    }

    #[test]
    fn generation_bump_invalidates_and_requery_repopulates() {
        let cache = PlanCache::new();
        let (f, free) = query();
        let config = PlanConfig::default();
        let inst = instance();
        let gen1 = next_generation();
        let stats = || Statistics::collect(&inst);
        let _ = cache.reoptimize::<DenseOrder>(&f, &free, &config, gen1, stats);
        let warm = cache.stats();
        assert_eq!(warm.reoptimize_misses, 1);
        // Warm repeat: zero new optimizer invocations, no statistics run.
        let _ = cache.reoptimize::<DenseOrder>(&f, &free, &config, gen1, || {
            panic!("statistics must not be collected on a cache hit")
        });
        assert_eq!(cache.stats().reoptimize_hits, 1);
        assert_eq!(
            cache.stats().optimizer_invocations,
            warm.optimizer_invocations
        );
        // Generation bump: the old entry is unreachable, the query re-optimizes
        // once and the cache is warm again for the new generation.
        let gen2 = next_generation();
        assert!(gen2 > gen1);
        let _ = cache.reoptimize::<DenseOrder>(&f, &free, &config, gen2, stats);
        assert_eq!(cache.stats().reoptimize_misses, 2);
        let _ = cache.reoptimize::<DenseOrder>(&f, &free, &config, gen2, || {
            panic!("statistics must not be collected on a cache hit")
        });
        assert_eq!(cache.stats().reoptimize_hits, 2);
    }

    #[test]
    fn identical_requests_share_one_entry() {
        let cache = PlanCache::new();
        let f: Formula<DenseAtom> = Formula::rel("R", [Term::var("x")]);
        let free = vec![Var::new("x")];
        let config = PlanConfig::default();
        let _ = cache.compile::<DenseOrder>(&f, &free, &config);
        let _ = cache.compile::<DenseOrder>(&f, &free, &config);
        assert_eq!(cache.stats().compile_hits, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_eviction_never_serves_a_wrong_plan() {
        let cache = PlanCache::with_capacity(4);
        let config = PlanConfig::default();
        let free = vec![Var::new("x")];
        for i in 0..16i64 {
            let f: Formula<DenseAtom> = Formula::rel("R", [Term::var("x")])
                .and(Formula::Atom(DenseAtom::le(Term::var("x"), Term::cst(i))));
            let _ = cache.compile::<DenseOrder>(&f, &free, &config);
        }
        assert!(cache.len() <= 4);
        assert!(cache.stats().evictions > 0);
        // A re-request after eviction recompiles correctly.
        let f: Formula<DenseAtom> = Formula::rel("R", [Term::var("x")])
            .and(Formula::Atom(DenseAtom::le(Term::var("x"), Term::cst(0))));
        let compiled = cache.compile::<DenseOrder>(&f, &free, &config);
        let mut inst = Instance::new(Schema::from_pairs([("R", 1)]));
        inst.set(
            "R",
            Relation::from_points(vec![Var::new("x")], vec![vec![Rat::from_i64(0)]]),
        )
        .unwrap();
        assert!(compiled.eval(&inst).unwrap().contains(&[Rat::from_i64(0)]));
    }

    /// A distinct one-off sentence per `i`.
    fn one_off(i: i64) -> Formula<DenseAtom> {
        Formula::rel("R", [Term::var("x")])
            .and(Formula::Atom(DenseAtom::le(Term::var("x"), Term::cst(i))))
    }

    #[test]
    fn one_off_compiles_stay_in_the_probation_queue() {
        let cache = PlanCache::new();
        let config = PlanConfig::default();
        let free = vec![Var::new("x")];
        let repeated: Formula<DenseAtom> = Formula::rel("R", [Term::var("x")]);
        let _ = cache.compile::<DenseOrder>(&repeated, &free, &config);
        let _ = cache.compile::<DenseOrder>(&repeated, &free, &config);
        for i in 0..10_000 {
            let _ = cache.compile::<DenseOrder>(&one_off(i), &free, &config);
        }
        assert!(cache.len() <= 64 + 1, "{} plans held", cache.len());
        let before = cache.stats().compile_hits;
        let _ = cache.compile::<DenseOrder>(&repeated, &free, &config);
        assert_eq!(cache.stats().compile_hits, before + 1);
    }

    #[test]
    fn a_second_request_within_the_queue_window_hits() {
        let cache = PlanCache::new();
        let config = PlanConfig::default();
        let free = vec![Var::new("x")];
        let _ = cache.compile::<DenseOrder>(&one_off(-1), &free, &config);
        for i in 0..63 {
            let _ = cache.compile::<DenseOrder>(&one_off(i), &free, &config);
        }
        let _ = cache.compile::<DenseOrder>(&one_off(-1), &free, &config);
        assert_eq!(cache.stats().compile_hits, 1);
        // Promoted: a full queue's worth of further one-offs keeps it.
        for i in 100..200 {
            let _ = cache.compile::<DenseOrder>(&one_off(i), &free, &config);
        }
        let _ = cache.compile::<DenseOrder>(&one_off(-1), &free, &config);
        assert_eq!(cache.stats().compile_hits, 2);
    }

    #[test]
    fn clear_empties_the_probation_queue() {
        let cache = PlanCache::new();
        let config = PlanConfig::default();
        let free = vec![Var::new("x")];
        for i in 0..8 {
            let _ = cache.compile::<DenseOrder>(&one_off(i), &free, &config);
        }
        assert_eq!(cache.len(), 8);
        cache.clear();
        assert!(cache.is_empty());
        let _ = cache.compile::<DenseOrder>(&one_off(0), &free, &config);
        assert_eq!(cache.stats().compile_hits, 0, "cleared plans must not hit");
    }

    #[test]
    fn probation_drops_count_as_evictions() {
        let cache = PlanCache::new();
        let config = PlanConfig::default();
        let free = vec![Var::new("x")];
        for i in 0..100 {
            let _ = cache.compile::<DenseOrder>(&one_off(i), &free, &config);
        }
        assert_eq!(cache.len(), 64);
        assert_eq!(cache.stats().evictions, 100 - 64);
    }
}
