//! Engine-wide metrics: atomic counters and log-bucketed latency histograms.
//!
//! A [`MetricsRegistry`] is the accumulation side — lock-free atomic counters
//! for operation counts (queries, commits, snapshots, fixpoints), per-strategy
//! join tallies, column-index build/reuse totals, and three latency
//! [`LatencyHistogram`]s (query evaluation, commit, fixpoint).  Every recording
//! path is a handful of relaxed atomic adds, so a registry can sit on the hot
//! path of a concurrent database handle without serializing readers.
//!
//! The observation side is [`MetricsRegistry::snapshot`]: a plain-data
//! [`MetricsSnapshot`] with resolved quantiles (p50/p90/p99/p999) per
//! histogram, renderable as a deterministic counter report
//! ([`MetricsSnapshot::render_counters`], and its cache-and-join subset
//! [`MetricsSnapshot::render_stats`]; both timing-free so script transcripts
//! stay golden-testable) and exportable as JSON ([`MetricsSnapshot::to_json`],
//! hand-rolled — the workspace carries no serde).
//!
//! Histograms bucket by the position of the value's highest set bit: bucket
//! `i` holds durations `v` (in nanoseconds) with `2^i ≤ v < 2^(i+1)` (bucket 0
//! also takes `v = 0`).  Sixty-four buckets cover the full `u64` range, and a
//! quantile resolves to the *upper bound* of the bucket holding it — a
//! deterministic over-estimate within a factor of two, which is plenty for
//! latency monitoring and keeps the accumulation path allocation-free.

use crate::fo::PlanCacheStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of power-of-two buckets: one per possible highest-bit position of a
/// `u64` nanosecond count.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free latency histogram with power-of-two buckets over nanoseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// The bucket index for a nanosecond value: the position of its highest set
/// bit (0 for values 0 and 1).
fn bucket_index(ns: u64) -> usize {
    (63 - ns.max(1).leading_zeros()) as usize
}

/// The inclusive `[lo, hi]` nanosecond range of bucket `i`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let lo = if i == 0 { 0 } else { 1u64 << i };
    let hi = if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    };
    (lo, hi)
}

impl LatencyHistogram {
    /// Records one observation.  Relaxed atomics: totals are exact, but a
    /// concurrent [`LatencyHistogram::snapshot`] may observe a count without
    /// its bucket (or vice versa) — quantiles are monitoring data, not an
    /// audit log.
    pub fn record(&self, elapsed: Duration) {
        self.record_value(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one raw `u64` observation — the histogram buckets by magnitude,
    /// so the same structure serves nanosecond latencies and size
    /// distributions (e.g. generalized-tuple counts of update deltas).
    pub fn record_value(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(value, Ordering::Relaxed);
    }

    /// The number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`], with quantile resolution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (`buckets[i]` counts `2^i ≤ ns < 2^(i+1)`).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0 < q ≤ 1`) in nanoseconds: the upper bound of the
    /// bucket containing the `⌈q·count⌉`-th smallest observation, or 0 when
    /// the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(HISTOGRAM_BUCKETS - 1).1
    }

    /// The mean observation in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The non-empty buckets as `(lo_ns, hi_ns, count)` triples — the compact
    /// form the JSON export and the load harness write out.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, n)
            })
            .collect()
    }

    /// Serializes the snapshot as a JSON object with count, sum, resolved
    /// p50/p90/p99/p999, and the non-empty buckets.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"buckets\": [",
            self.count,
            self.sum_ns,
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.quantile(0.999),
        ));
        for (k, (lo, hi, n)) in self.nonzero_buckets().into_iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{lo}, {hi}, {n}]"));
        }
        out.push_str("]}");
        out
    }
}

/// Per-strategy join counts — one field per [`JoinStrategy`] variant.
///
/// [`JoinStrategy`]: crate::relation::JoinStrategy
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStrategyCounts {
    /// Joins resolved purely by hash buckets on a pinned column.
    pub pin_hash: u64,
    /// Joins resolved purely by the sorted-endpoint interval sweep.
    pub index_sweep: u64,
    /// Joins refined by a second column's envelope index.
    pub box_sweep: u64,
    /// Full pairwise scans (no constant information or no shared column).
    pub scan: u64,
    /// Joins whose left tuples took different routes.
    pub mixed: u64,
}

impl JoinStrategyCounts {
    /// The element-wise difference `self - earlier` (saturating), for callers
    /// bracketing an operation with two snapshots.
    #[must_use]
    pub fn since(&self, earlier: &JoinStrategyCounts) -> JoinStrategyCounts {
        JoinStrategyCounts {
            pin_hash: self.pin_hash.saturating_sub(earlier.pin_hash),
            index_sweep: self.index_sweep.saturating_sub(earlier.index_sweep),
            box_sweep: self.box_sweep.saturating_sub(earlier.box_sweep),
            scan: self.scan.saturating_sub(earlier.scan),
            mixed: self.mixed.saturating_sub(earlier.mixed),
        }
    }

    /// Total joins across all strategies.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.pin_hash + self.index_sweep + self.box_sweep + self.scan + self.mixed
    }
}

/// How many recent generations the per-generation read tally remembers.
const READ_GENERATIONS: usize = 16;

/// Engine-wide metrics: operation counters, join-strategy and column-index
/// tallies, and latency histograms.  One registry per database handle; all
/// methods take `&self` and are safe under concurrent recording.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    queries: AtomicU64,
    checks: AtomicU64,
    commits: AtomicU64,
    snapshots: AtomicU64,
    fixpoints: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    views_maintained: AtomicU64,
    views_recomputed: AtomicU64,
    index_builds: AtomicU64,
    index_reuses: AtomicU64,
    joins_pin_hash: AtomicU64,
    joins_index_sweep: AtomicU64,
    joins_box_sweep: AtomicU64,
    joins_scan: AtomicU64,
    joins_mixed: AtomicU64,
    query_latency: LatencyHistogram,
    commit_latency: LatencyHistogram,
    fixpoint_latency: LatencyHistogram,
    /// Size distribution (generalized-tuple counts) of the semantic deltas
    /// applied by `insert`/`delete` commits.
    update_delta_parts: LatencyHistogram,
    /// Ring of `(generation, reads)` tallies for the most recent generations
    /// a read was served against.
    reads_by_generation: Mutex<Vec<(u64, u64)>>,
}

impl MetricsRegistry {
    /// Records one evaluated query (or explain/trace — anything that ran a
    /// compiled plan against a snapshot): its latency, the snapshot generation
    /// it read, and the column-index / join-strategy work it performed.
    pub fn record_query(
        &self,
        generation: u64,
        elapsed: Duration,
        index_delta: (u64, u64),
        strategy_delta: &JoinStrategyCounts,
    ) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.query_latency.record(elapsed);
        self.record_read_generation(generation);
        self.record_eval_work(index_delta, strategy_delta);
    }

    /// Records one sentence check (also counted as a read of `generation`).
    pub fn record_check(
        &self,
        generation: u64,
        elapsed: Duration,
        index_delta: (u64, u64),
        strategy_delta: &JoinStrategyCounts,
    ) {
        self.checks.fetch_add(1, Ordering::Relaxed);
        self.query_latency.record(elapsed);
        self.record_read_generation(generation);
        self.record_eval_work(index_delta, strategy_delta);
    }

    /// Records one committed write and its end-to-end latency.
    pub fn record_commit(&self, elapsed: Duration) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.commit_latency.record(elapsed);
    }

    /// Records one snapshot acquisition.
    pub fn record_snapshot(&self) {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fixpoint run: its latency and the evaluation work of all
    /// its rounds.
    pub fn record_fixpoint(
        &self,
        elapsed: Duration,
        index_delta: (u64, u64),
        strategy_delta: &JoinStrategyCounts,
    ) {
        self.fixpoints.fetch_add(1, Ordering::Relaxed);
        self.fixpoint_latency.record(elapsed);
        self.record_eval_work(index_delta, strategy_delta);
    }

    /// Records one `insert` update commit and the size (generalized-tuple
    /// count) of the semantic delta it applied — 0 when every inserted tuple
    /// was unsatisfiable or already absorbed by the stored value.
    pub fn record_insert(&self, delta_parts: u64) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.update_delta_parts.record_value(delta_parts);
    }

    /// Records one `delete` update commit and the size of the region it
    /// actually removed — 0 for deletes of never-inserted tuples.
    pub fn record_delete(&self, delta_parts: u64) {
        self.deletes.fetch_add(1, Ordering::Relaxed);
        self.update_delta_parts.record_value(delta_parts);
    }

    /// Records one materialized answer refreshed **incrementally** (its
    /// maintenance plan consumed the update delta).
    pub fn record_view_maintained(&self) {
        self.views_maintained.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one materialized answer (or fixpoint) refreshed by **full
    /// recomputation** — the fallback when no maintenance plan applies.
    pub fn record_view_recomputed(&self) {
        self.views_recomputed.fetch_add(1, Ordering::Relaxed);
    }

    fn record_eval_work(&self, index_delta: (u64, u64), strategy_delta: &JoinStrategyCounts) {
        self.index_builds
            .fetch_add(index_delta.0, Ordering::Relaxed);
        self.index_reuses
            .fetch_add(index_delta.1, Ordering::Relaxed);
        self.joins_pin_hash
            .fetch_add(strategy_delta.pin_hash, Ordering::Relaxed);
        self.joins_index_sweep
            .fetch_add(strategy_delta.index_sweep, Ordering::Relaxed);
        self.joins_box_sweep
            .fetch_add(strategy_delta.box_sweep, Ordering::Relaxed);
        self.joins_scan
            .fetch_add(strategy_delta.scan, Ordering::Relaxed);
        self.joins_mixed
            .fetch_add(strategy_delta.mixed, Ordering::Relaxed);
    }

    fn record_read_generation(&self, generation: u64) {
        let mut tallies = self
            .reads_by_generation
            .lock()
            .expect("metrics generation tally poisoned");
        if let Some(entry) = tallies.iter_mut().find(|(g, _)| *g == generation) {
            entry.1 += 1;
            return;
        }
        tallies.push((generation, 1));
        if tallies.len() > READ_GENERATIONS {
            // Evict the oldest generation (smallest stamp).
            if let Some(pos) = tallies
                .iter()
                .enumerate()
                .min_by_key(|(_, (g, _))| *g)
                .map(|(i, _)| i)
            {
                tallies.remove(pos);
            }
        }
    }

    /// A point-in-time copy of every counter and histogram.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut reads_by_generation = self
            .reads_by_generation
            .lock()
            .expect("metrics generation tally poisoned")
            .clone();
        reads_by_generation.sort_unstable();
        MetricsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            checks: self.checks.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            fixpoints: self.fixpoints.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            views_maintained: self.views_maintained.load(Ordering::Relaxed),
            views_recomputed: self.views_recomputed.load(Ordering::Relaxed),
            index_builds: self.index_builds.load(Ordering::Relaxed),
            index_reuses: self.index_reuses.load(Ordering::Relaxed),
            join_strategies: JoinStrategyCounts {
                pin_hash: self.joins_pin_hash.load(Ordering::Relaxed),
                index_sweep: self.joins_index_sweep.load(Ordering::Relaxed),
                box_sweep: self.joins_box_sweep.load(Ordering::Relaxed),
                scan: self.joins_scan.load(Ordering::Relaxed),
                mixed: self.joins_mixed.load(Ordering::Relaxed),
            },
            query_latency: self.query_latency.snapshot(),
            commit_latency: self.commit_latency.snapshot(),
            fixpoint_latency: self.fixpoint_latency.snapshot(),
            update_delta_parts: self.update_delta_parts.snapshot(),
            reads_by_generation,
            plan_cache: None,
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`] (plain data, no atomics).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Queries (and explains/traces) evaluated against snapshots.
    pub queries: u64,
    /// Sentence checks evaluated.
    pub checks: u64,
    /// Committed writes.
    pub commits: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Fixpoint runs.
    pub fixpoints: u64,
    /// `insert` update commits.
    pub inserts: u64,
    /// `delete` update commits.
    pub deletes: u64,
    /// Materialized answers refreshed incrementally by a maintenance plan.
    pub views_maintained: u64,
    /// Materialized answers (and fixpoints) refreshed by full recomputation.
    pub views_recomputed: u64,
    /// Column indexes built (cache misses) during recorded operations.
    pub index_builds: u64,
    /// Column index cache hits during recorded operations.
    pub index_reuses: u64,
    /// Per-strategy join counts during recorded operations.
    pub join_strategies: JoinStrategyCounts,
    /// Query-evaluation latency (queries and checks).
    pub query_latency: HistogramSnapshot,
    /// Commit latency.
    pub commit_latency: HistogramSnapshot,
    /// Fixpoint-run latency.
    pub fixpoint_latency: HistogramSnapshot,
    /// Size distribution (generalized-tuple counts) of the semantic deltas
    /// applied by `insert`/`delete` commits.
    pub update_delta_parts: HistogramSnapshot,
    /// Reads served per snapshot generation, ascending by generation: a
    /// capped ring holding only the most recent generations.
    pub reads_by_generation: Vec<(u64, u64)>,
    /// Plan-cache counters, when the owner attached them.
    pub plan_cache: Option<PlanCacheStats>,
}

impl MetricsSnapshot {
    /// The deterministic (timing-free) counter report behind the `metrics;`
    /// script statement: operation counts, join strategies, index counters,
    /// and histogram sample counts — never latency values, so transcripts are
    /// byte-stable across machines and thread counts.
    #[must_use]
    pub fn render_counters(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "metrics: {q} query eval(s), {c} check(s), {w} commit(s), {s} snapshot(s), {f} fixpoint run(s)\n",
            q = self.queries,
            c = self.checks,
            w = self.commits,
            s = self.snapshots,
            f = self.fixpoints,
        ));
        out.push_str(&self.join_strategies_line());
        out.push_str(&self.column_indexes_line());
        out.push_str(&format!(
            "updates: {i} insert(s), {d} delete(s); views: {m} maintained, {r} recomputed\n",
            i = self.inserts,
            d = self.deletes,
            m = self.views_maintained,
            r = self.views_recomputed,
        ));
        if let Some(plan) = &self.plan_cache {
            out.push_str(&plan_cache_lookups(plan));
            out.push('\n');
        }
        out.push_str(&format!(
            "latency samples: {q} query, {c} commit, {f} fixpoint\n",
            q = self.query_latency.count,
            c = self.commit_latency.count,
            f = self.fixpoint_latency.count,
        ));
        out
    }

    /// The three-line cache-and-join report behind the `stats;` script
    /// statement: the plan cache's lookups, optimizer runs and evictions (all
    /// zero when no plan cache is attached), then the column-index and
    /// join-strategy totals.  Timing-free, like
    /// [`MetricsSnapshot::render_counters`].
    #[must_use]
    pub fn render_stats(&self) -> String {
        let plan = self.plan_cache.unwrap_or_default();
        format!(
            "{}; {} optimizer run(s); {} eviction(s)\n{}{}",
            plan_cache_lookups(&plan),
            plan.optimizer_invocations,
            plan.evictions,
            self.column_indexes_line(),
            self.join_strategies_line(),
        )
    }

    fn join_strategies_line(&self) -> String {
        let j = &self.join_strategies;
        format!(
            "join strategies: {ph} pin-hash, {is} index-sweep, {bs} box-sweep, {sc} scan, {mx} mixed\n",
            ph = j.pin_hash,
            is = j.index_sweep,
            bs = j.box_sweep,
            sc = j.scan,
            mx = j.mixed,
        )
    }

    fn column_indexes_line(&self) -> String {
        format!(
            "column indexes: {b} built, {r} reused\n",
            b = self.index_builds,
            r = self.index_reuses,
        )
    }

    /// Serializes the full snapshot — counters, per-generation reads, and all
    /// three histograms with resolved quantiles — as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"counters\": {{\"queries\": {}, \"checks\": {}, \"commits\": {}, \"snapshots\": {}, \"fixpoints\": {}, \"inserts\": {}, \"deletes\": {}, \"views_maintained\": {}, \"views_recomputed\": {}}},\n",
            self.queries, self.checks, self.commits, self.snapshots, self.fixpoints,
            self.inserts, self.deletes, self.views_maintained, self.views_recomputed
        ));
        let j = &self.join_strategies;
        out.push_str(&format!(
            "  \"join_strategies\": {{\"pin_hash\": {}, \"index_sweep\": {}, \"box_sweep\": {}, \"scan\": {}, \"mixed\": {}}},\n",
            j.pin_hash, j.index_sweep, j.box_sweep, j.scan, j.mixed
        ));
        out.push_str(&format!(
            "  \"column_indexes\": {{\"built\": {}, \"reused\": {}}},\n",
            self.index_builds, self.index_reuses
        ));
        if let Some(p) = &self.plan_cache {
            out.push_str(&format!(
                "  \"plan_cache\": {{\"compile_hits\": {}, \"compile_misses\": {}, \"reoptimize_hits\": {}, \"reoptimize_misses\": {}}},\n",
                p.compile_hits, p.compile_misses, p.reoptimize_hits, p.reoptimize_misses
            ));
        }
        out.push_str("  \"reads_by_generation\": [");
        for (k, (g, n)) in self.reads_by_generation.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{g}, {n}]"));
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"query_latency_ns\": {},\n",
            self.query_latency.to_json()
        ));
        out.push_str(&format!(
            "  \"commit_latency_ns\": {},\n",
            self.commit_latency.to_json()
        ));
        out.push_str(&format!(
            "  \"fixpoint_latency_ns\": {},\n",
            self.fixpoint_latency.to_json()
        ));
        out.push_str(&format!(
            "  \"update_delta_parts\": {}\n",
            self.update_delta_parts.to_json()
        ));
        out.push('}');
        out
    }
}

/// The plan cache's lookup counts, `plan cache: compile … reoptimize …`
/// (no trailing newline).
fn plan_cache_lookups(plan: &PlanCacheStats) -> String {
    format!(
        "plan cache: compile {} hit(s) / {} miss(es); reoptimize {} hit(s) / {} miss(es)",
        plan.compile_hits, plan.compile_misses, plan.reoptimize_hits, plan.reoptimize_misses
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        for ns in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(ns);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= ns && ns <= hi, "ns={ns} bucket={i} range=[{lo},{hi}]");
        }
    }

    #[test]
    fn quantiles_resolve_to_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        // 90 fast observations (~1µs bucket) and 10 slow ones (~1ms bucket).
        for _ in 0..90 {
            h.record(Duration::from_nanos(1_100));
        }
        for _ in 0..10 {
            h.record(Duration::from_nanos(1_100_000));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        let fast = bucket_bounds(bucket_index(1_100)).1;
        let slow = bucket_bounds(bucket_index(1_100_000)).1;
        assert_eq!(snap.quantile(0.50), fast);
        assert_eq!(snap.quantile(0.90), fast);
        assert_eq!(snap.quantile(0.99), slow);
        assert_eq!(snap.quantile(0.999), slow);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = LatencyHistogram::default().snapshot();
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean_ns(), 0);
        assert!(snap.nonzero_buckets().is_empty());
    }

    #[test]
    fn registry_snapshot_accumulates() {
        let reg = MetricsRegistry::default();
        reg.record_snapshot();
        reg.record_query(
            3,
            Duration::from_micros(10),
            (2, 4),
            &JoinStrategyCounts {
                pin_hash: 1,
                ..JoinStrategyCounts::default()
            },
        );
        reg.record_commit(Duration::from_micros(50));
        let snap = reg.snapshot();
        assert_eq!(snap.snapshots, 1);
        assert_eq!(snap.queries, 1);
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.index_builds, 2);
        assert_eq!(snap.index_reuses, 4);
        assert_eq!(snap.join_strategies.pin_hash, 1);
        assert_eq!(snap.reads_by_generation, vec![(3, 1)]);
        assert_eq!(snap.query_latency.count, 1);
        assert_eq!(snap.commit_latency.count, 1);
    }

    #[test]
    fn generation_ring_keeps_most_recent() {
        let reg = MetricsRegistry::default();
        for g in 0..40u64 {
            reg.record_query(
                g,
                Duration::from_nanos(1),
                (0, 0),
                &JoinStrategyCounts::default(),
            );
        }
        let snap = reg.snapshot();
        assert_eq!(snap.reads_by_generation.len(), READ_GENERATIONS);
        // The oldest generations were evicted; the newest survive.
        assert!(snap.reads_by_generation.iter().all(|&(g, _)| g >= 24));
    }

    #[test]
    fn update_counters_and_delta_histogram_accumulate() {
        let reg = MetricsRegistry::default();
        reg.record_insert(3);
        reg.record_insert(0);
        reg.record_delete(1);
        reg.record_view_maintained();
        reg.record_view_recomputed();
        reg.record_view_recomputed();
        let snap = reg.snapshot();
        assert_eq!(snap.inserts, 2);
        assert_eq!(snap.deletes, 1);
        assert_eq!(snap.views_maintained, 1);
        assert_eq!(snap.views_recomputed, 2);
        assert_eq!(snap.update_delta_parts.count, 3);
        assert_eq!(snap.update_delta_parts.sum_ns, 4);
        assert!(snap
            .render_counters()
            .contains("updates: 2 insert(s), 1 delete(s); views: 1 maintained, 2 recomputed"));
    }

    #[test]
    fn json_export_names_every_section() {
        let reg = MetricsRegistry::default();
        reg.record_query(
            1,
            Duration::from_micros(3),
            (1, 0),
            &JoinStrategyCounts::default(),
        );
        reg.record_commit(Duration::from_micros(7));
        let mut snap = reg.snapshot();
        snap.plan_cache = Some(PlanCacheStats {
            compile_hits: 4,
            compile_misses: 2,
            reoptimize_hits: 2,
            reoptimize_misses: 2,
            ..PlanCacheStats::default()
        });
        let json = snap.to_json();
        for key in [
            "\"counters\"",
            "\"join_strategies\"",
            "\"column_indexes\"",
            "\"plan_cache\"",
            "\"reads_by_generation\"",
            "\"query_latency_ns\"",
            "\"commit_latency_ns\"",
            "\"fixpoint_latency_ns\"",
            "\"update_delta_parts\"",
            "\"inserts\"",
            "\"deletes\"",
            "\"views_maintained\"",
            "\"views_recomputed\"",
            "\"p50_ns\"",
            "\"p90_ns\"",
            "\"p99_ns\"",
            "\"p999_ns\"",
            "\"buckets\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
