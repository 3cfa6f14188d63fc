//! Query tracing and `EXPLAIN`: one deterministic plan tree mirroring the
//! (hash-consed) plan DAG, produced by [`super::CompiledQuery::eval_traced`]
//! and rendered three ways.
//!
//! The evaluator threads a `TraceProbe` through `eval_plan`; when
//! the probe is off — every path except `eval_traced` — the per-node cost is
//! a single enum-discriminant branch, so tracing compiles to zero work on the
//! hot paths.  When on, the probe records, per plan node, the **inclusive**
//! wall time of the node's evaluation, and per *join* node the column-index
//! builds/reuses its own pairwise joins performed (bracketed tightly around
//! the join calls, so child evaluation is excluded).
//!
//! After evaluation, one builder zips the probe's data with the evaluator's
//! memo table (the **actual** generalized-tuple count of every evaluated
//! node), its join reports, and the optimizer's cost model (the **estimate**
//! each node was ordered by, under statistics of the evaluated instance) into
//! a [`QueryTrace`].  One walker renders that tree:
//!
//! * [`fmt::Display`] — the `trace` form: input/output cardinalities and
//!   factorized part counts, join strategies with their candidate-pair
//!   pruning ratios, and index build/reuse counts.
//! * [`QueryTrace::explain`] — the `explain` form: estimated and actual
//!   cardinality per node, with the join strategies.
//! * [`QueryTrace::timed`] — the `trace` form annotated with per-span wall
//!   time and the configured worker budget; machine- and run-dependent,
//!   rendered only under the CLI's `--timings` flag (to stderr).
//!
//! The first two are **invariant under the evaluator's thread count**
//! (parallel joins merge bit-identically, and index decisions happen on the
//! coordinating thread before workers spawn), so `trace` and `explain`
//! transcripts are golden-testable at any thread count.
//!
//! Nodes shared through hash-consing are printed once and referenced by a
//! `#n` marker afterwards, making memoization visible in the output: a
//! sub-plan annotated `#1` is evaluated once per query however often it
//! appears.  Nodes the evaluator never materialized (operands of a join that
//! annihilated early, or joins fused into their parent projection) show
//! `actual=-` / `out=-`.

use super::optimize::{estimate_plan, Est};
use super::stats::Statistics;
use super::{Factored, Plan, PlanNode};
use crate::logic::Sep;
use crate::relation::{column_index_counters, JoinReport};
use crate::theory::Theory;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-node measurements collected by an active probe, keyed by plan-node
/// identity (the hash-consed `Arc` address, like the evaluator's memo).
#[derive(Debug, Default)]
pub(super) struct TraceData {
    /// Inclusive wall time of each node's evaluation (children included;
    /// memoized re-visits add nothing).
    timings: HashMap<usize, Duration>,
    /// Column-index `(builds, reuses)` performed by a join node's own
    /// pairwise joins (children excluded).
    index_deltas: HashMap<usize, (u64, u64)>,
}

/// The evaluator's tracing hook: off everywhere except
/// [`super::CompiledQuery::eval_traced`].
#[derive(Debug)]
pub(super) enum TraceProbe {
    /// No tracing: every probe call is a single branch.
    Off,
    /// Tracing: record spans and index deltas into the carried data.
    On(TraceData),
}

impl TraceProbe {
    /// Starts a span when tracing is on: the wall clock only.
    #[inline]
    pub(super) fn begin(&self) -> Option<Instant> {
        match self {
            TraceProbe::Off => None,
            TraceProbe::On(_) => Some(Instant::now()),
        }
    }

    /// Ends a span started by [`TraceProbe::begin`].
    #[inline]
    pub(super) fn end(&mut self, key: usize, started: Option<Instant>) {
        if let (TraceProbe::On(data), Some(start)) = (self, started) {
            data.timings.insert(key, start.elapsed());
        }
    }

    /// The current column-index counters when tracing is on — the "before"
    /// snapshot of a tight bracket around one join call.
    #[inline]
    pub(super) fn index_base(&self) -> Option<(u64, u64)> {
        match self {
            TraceProbe::Off => None,
            TraceProbe::On(_) => Some(column_index_counters()),
        }
    }

    /// Accumulates the index builds/reuses since `base` onto the join node
    /// `key` (index work happens on the coordinating thread, so thread-local
    /// counters see all of it at any worker count).
    #[inline]
    pub(super) fn add_index_delta(&mut self, key: usize, base: Option<(u64, u64)>) {
        if let (TraceProbe::On(data), Some((b0, r0))) = (self, base) {
            let (b1, r1) = column_index_counters();
            let entry = data.index_deltas.entry(key).or_insert((0, 0));
            entry.0 += b1.saturating_sub(b0);
            entry.1 += r1.saturating_sub(r0);
        }
    }
}

/// One node of the plan tree.
#[derive(Clone, Debug)]
struct TraceNode {
    /// Operator label, e.g. `⋈ join → (x, y)`, `alice(x, y)`, `σ[x < 2]`.
    label: String,
    /// Sharing marker: `Some(id)` when the node has several parents in the
    /// plan DAG.
    shared: Option<usize>,
    /// Whether this is a repeat visit to a shared node (children elided).
    repeat: bool,
    /// Output generalized-tuple count and factorized part count, when the
    /// evaluator produced the node.  A part count above 1 means the node's
    /// value was held factorized — its tuples were never run through the
    /// cross-part absorption pass a full materialization would pay for.
    output: Option<(usize, usize)>,
    /// Join strategy and candidate-pair pruning ratio; join nodes only.
    strategy: Option<JoinReport>,
    /// Column indexes `(built, reused)` by this join's own pairwise joins.
    index_delta: Option<(u64, u64)>,
    /// Inclusive span wall time (children included); `None` when the node was
    /// never evaluated (pruned by early annihilation).
    elapsed: Option<Duration>,
    /// Estimated output cardinality under the optimizer's cost model.
    est: f64,
    /// Children (empty on repeat visits to a shared node).
    children: Vec<TraceNode>,
}

/// The plan tree of one traced query evaluation.
///
/// Displayed as the deterministic `trace` rendering (byte-stable at any
/// thread count); see [`QueryTrace::explain`] for the estimate-vs-actual
/// form and [`QueryTrace::timed`] for the wall-clock-annotated form.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    root: TraceNode,
    /// The evaluator's configured worker-thread budget.
    threads: usize,
    /// End-to-end evaluation time (plan walk + boundary merge/sort).
    total: Duration,
}

impl QueryTrace {
    /// Builds the plan tree: estimates from `stats`, actuals from the
    /// evaluator's memo (`actuals`, keyed by node identity), join-strategy
    /// reports from its join runs (`reports`, keyed by join-node identity),
    /// and spans and index work from the probe's `data`.
    pub(super) fn build<T: Theory>(
        plan: &Plan<T>,
        stats: &Statistics,
        actuals: &HashMap<usize, Factored<T>>,
        reports: &HashMap<usize, JoinReport>,
        data: &TraceData,
        threads: usize,
        total: Duration,
    ) -> QueryTrace {
        // First pass: reference counts, to decide which nodes get `#n` ids.
        let mut refs: HashMap<usize, usize> = HashMap::new();
        count_refs(plan, &mut refs, true);
        let mut builder = Builder {
            stats,
            actuals,
            reports,
            data,
            refs,
            est_memo: HashMap::new(),
            ids: HashMap::new(),
        };
        QueryTrace {
            root: builder.node(plan),
            threads,
            total,
        }
    }

    /// The evaluator's configured worker-thread budget.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// End-to-end evaluation wall time.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.total
    }

    /// The `explain` rendering: every node annotated with the cost model's
    /// estimated cardinality and the actual generalized-tuple count the
    /// evaluator materialized, plus the join strategy that ran.
    /// Deterministic, so transcripts can be pinned by golden tests.
    #[must_use]
    pub fn explain(&self) -> TraceView<'_> {
        TraceView {
            trace: self,
            rendering: Rendering::Explain,
        }
    }

    /// The wall-clock-annotated rendering: every span line gains its
    /// inclusive time, and a header reports the total and the worker budget.
    /// Machine-dependent — keep it out of golden transcripts.
    #[must_use]
    pub fn timed(&self) -> TraceView<'_> {
        TraceView {
            trace: self,
            rendering: Rendering::Timed,
        }
    }
}

/// The nodes a plan node reads from, in plan order.
fn inputs<T: Theory>(plan: &Plan<T>) -> &[Plan<T>] {
    match &plan.0.node {
        PlanNode::Empty
        | PlanNode::Universal
        | PlanNode::Select(_)
        | PlanNode::Rename { .. }
        | PlanNode::Scan { .. } => &[],
        PlanNode::Join(children) | PlanNode::Union(children) => children,
        PlanNode::Complement(input) | PlanNode::Project { input, .. } => {
            std::slice::from_ref(input)
        }
    }
}

fn count_refs<T: Theory>(plan: &Plan<T>, refs: &mut HashMap<usize, usize>, root: bool) {
    let key = Arc::as_ptr(&plan.0) as usize;
    let n = refs.entry(key).or_insert(0);
    *n += 1;
    if *n > 1 && !root {
        return;
    }
    for input in inputs(plan) {
        count_refs(input, refs, false);
    }
}

/// The inputs of the tree builder, plus its sharing and estimate state.
struct Builder<'a, T: Theory> {
    stats: &'a Statistics,
    actuals: &'a HashMap<usize, Factored<T>>,
    reports: &'a HashMap<usize, JoinReport>,
    data: &'a TraceData,
    refs: HashMap<usize, usize>,
    est_memo: HashMap<usize, Est>,
    /// `#n` ids handed out so far, in first-visit order.
    ids: HashMap<usize, usize>,
}

impl<T: Theory> Builder<'_, T> {
    fn node(&mut self, plan: &Plan<T>) -> TraceNode {
        let key = Arc::as_ptr(&plan.0) as usize;
        let mut node = TraceNode {
            label: node_label(plan),
            shared: None,
            repeat: false,
            output: self
                .actuals
                .get(&key)
                .map(|f| (f.num_tuples(), f.num_parts())),
            strategy: match &plan.0.node {
                PlanNode::Join(_) => self.reports.get(&key).copied(),
                _ => None,
            },
            index_delta: self.data.index_deltas.get(&key).copied(),
            elapsed: self.data.timings.get(&key).copied(),
            est: estimate_plan(plan, self.stats, &mut self.est_memo).rows,
            children: Vec::new(),
        };
        if self.refs.get(&key).copied().unwrap_or(0) > 1 {
            if let Some(&id) = self.ids.get(&key) {
                // Repeat visit: reference the earlier occurrence.
                node.shared = Some(id);
                node.repeat = true;
                return node;
            }
            let id = self.ids.len() + 1;
            self.ids.insert(key, id);
            node.shared = Some(id);
        }
        node.children = inputs(plan).iter().map(|c| self.node(c)).collect();
        node
    }
}

/// The operator label of a node: leaves print themselves, inner nodes print a
/// short operator name (their full sub-tree follows as children).
fn node_label<T: Theory>(plan: &Plan<T>) -> String {
    let cols = Sep(plan.cols(), ", ");
    match &plan.0.node {
        PlanNode::Empty | PlanNode::Universal | PlanNode::Select(_) => plan.to_string(),
        PlanNode::Rename { .. } | PlanNode::Scan { .. } => plan.to_string(),
        PlanNode::Join(_) => format!("⋈ join → ({cols})"),
        PlanNode::Union(_) => format!("∪ union → ({cols})"),
        PlanNode::Complement(_) => format!("¬ complement → ({cols})"),
        PlanNode::Project { eliminate, .. } => {
            format!("π-{{{}}} project → ({cols})", Sep(eliminate, ","))
        }
    }
}

/// Formats an estimate: integers plainly, fractional values with one decimal.
fn fmt_est(est: f64) -> String {
    if (est - est.round()).abs() < 1e-9 {
        format!("{}", est.round() as i64)
    } else {
        format!("{est:.1}")
    }
}

/// Which annotations the walker writes per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rendering {
    /// Estimate, actual cardinality, join strategy.
    Explain,
    /// Input/output cardinality, join strategy, index work.
    Trace,
    /// The trace annotations plus inclusive wall time.
    Timed,
}

/// Writes a node's output cardinality as `{key}=n`, `{key}=n in p parts`, or
/// `{key}=-` when the node was never evaluated.
fn write_output(
    f: &mut fmt::Formatter<'_>,
    key: &str,
    output: Option<(usize, usize)>,
) -> fmt::Result {
    match output {
        Some((n, parts)) if parts > 1 => write!(f, "{key}={n} in {parts} parts"),
        Some((n, _)) => write!(f, "{key}={n}"),
        None => write!(f, "{key}=-"),
    }
}

/// One node's line, without the tree-drawing prefix.
fn line(node: &TraceNode, rendering: Rendering, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{}", node.label)?;
    if let Some(id) = node.shared {
        if node.repeat {
            return write!(f, "  #{id} (shared, evaluated once)");
        }
        write!(f, "  #{id}")?;
    }
    if rendering == Rendering::Explain {
        write!(f, "  [est≈{}, ", fmt_est(node.est))?;
        write_output(f, "actual", node.output)?;
    } else {
        write!(f, "  [")?;
        // Input cardinality: the sum of the direct children's outputs (what
        // the operator actually consumed), inner nodes only.
        let known: Option<Vec<usize>> = node
            .children
            .iter()
            .map(|c| c.output.map(|(n, _)| n))
            .collect();
        if let Some(known) = known.filter(|k| !k.is_empty()) {
            write!(f, "in={}, ", known.iter().sum::<usize>())?;
        }
        write_output(f, "out", node.output)?;
    }
    if let Some(report) = &node.strategy {
        write!(f, ", {report}")?;
    }
    if rendering != Rendering::Explain {
        if let Some((builds, reuses)) = node.index_delta {
            write!(f, ", idx {builds} built/{reuses} reused")?;
        }
    }
    if rendering == Rendering::Timed {
        if let Some(elapsed) = node.elapsed {
            write!(f, ", {:.2} ms", elapsed.as_secs_f64() * 1e3)?;
        }
    }
    write!(f, "]")
}

/// Writes `node` and its subtree, one line per node, with box-drawing
/// branches under `prefix`.
fn walk(
    node: &TraceNode,
    prefix: &str,
    is_last: bool,
    is_root: bool,
    rendering: Rendering,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    if !is_root {
        let branch = if is_last { "└─ " } else { "├─ " };
        write!(f, "{prefix}{branch}")?;
    }
    line(node, rendering, f)?;
    writeln!(f)?;
    let child_prefix = if is_root {
        String::new()
    } else if is_last {
        format!("{prefix}   ")
    } else {
        format!("{prefix}│  ")
    };
    for (i, c) in node.children.iter().enumerate() {
        let last = i + 1 == node.children.len();
        walk(c, &child_prefix, last, false, rendering, f)?;
    }
    Ok(())
}

impl fmt::Display for QueryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        walk(&self.root, "", true, true, Rendering::Trace, f)
    }
}

/// An alternate rendering of a [`QueryTrace`]: see [`QueryTrace::explain`]
/// and [`QueryTrace::timed`].
pub struct TraceView<'a> {
    trace: &'a QueryTrace,
    rendering: Rendering,
}

impl fmt::Display for TraceView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rendering == Rendering::Timed {
            writeln!(
                f,
                "-- total {:.2} ms, {} worker thread(s) budgeted",
                self.trace.total.as_secs_f64() * 1e3,
                self.trace.threads
            )?;
        }
        walk(&self.trace.root, "", true, true, self.rendering, f)
    }
}

#[cfg(test)]
mod tests {
    use super::super::compile_query;
    use crate::dense::{DenseAtom, DenseOrder};
    use crate::logic::{Formula, Term, Var};
    use crate::relation::{GenTuple, Instance, Relation};
    use crate::schema::Schema;

    fn rect(x0: i64, x1: i64, y0: i64, y1: i64) -> GenTuple<DenseAtom> {
        GenTuple::new(vec![
            DenseAtom::le(Term::cst(x0), Term::var("x")),
            DenseAtom::le(Term::var("x"), Term::cst(x1)),
            DenseAtom::le(Term::cst(y0), Term::var("y")),
            DenseAtom::le(Term::var("y"), Term::cst(y1)),
        ])
    }

    #[test]
    fn explain_renders_a_deterministic_tree_with_est_and_actual() {
        let mut inst: Instance<DenseOrder> =
            Instance::new(Schema::from_pairs([("alice", 2), ("bob", 2)]));
        let cols = || vec![Var::new("x"), Var::new("y")];
        inst.set(
            "alice",
            Relation::new(cols(), vec![rect(0, 4, 0, 4), rect(4, 8, 0, 2)]),
        )
        .unwrap();
        inst.set(
            "bob",
            Relation::new(cols(), vec![rect(6, 10, 1, 5), rect(20, 24, 0, 4)]),
        )
        .unwrap();
        let q: Formula<DenseAtom> = Formula::rel("alice", [Term::var("x"), Term::var("y")])
            .and(Formula::rel("bob", [Term::var("x"), Term::var("y")]));
        let compiled = compile_query::<DenseOrder>(&q, &cols());
        let (answer, trace) = compiled.eval_traced(&inst).unwrap();
        assert_eq!(answer.num_tuples(), 1);
        assert_eq!(
            trace.explain().to_string(),
            "⋈ join → (x, y)  [est≈1.3, actual=1, box-sweep 1/4 pairs]\n\
             ├─ alice(x, y)  [est≈2, actual=2]\n\
             └─ bob(x, y)  [est≈2, actual=2]\n"
        );
    }

    /// A rendering reduced to its tree: each line up to its bracketed
    /// annotations (drawing prefix, label and `#n` marker).
    fn shape(rendering: &str) -> Vec<String> {
        rendering
            .lines()
            .map(|l| l.split("  [").next().unwrap_or(l).to_string())
            .collect()
    }

    #[test]
    fn shared_subplans_are_marked_and_elided_on_repeat() {
        // φ ↔ ψ duplicates both sides; the DAG-shared nodes get `#n` markers.
        let phi: Formula<DenseAtom> =
            Formula::exists(["y"], Formula::rel("S", [Term::var("x"), Term::var("y")]));
        let psi: Formula<DenseAtom> = Formula::rel("R", [Term::var("x")]);
        let q = phi.iff(psi);
        let mut inst: Instance<DenseOrder> =
            Instance::new(Schema::from_pairs([("R", 1), ("S", 2)]));
        inst.set(
            "S",
            Relation::from_points(
                vec![Var::new("x"), Var::new("y")],
                vec![vec![1.into(), 2.into()]],
            ),
        )
        .unwrap();
        let compiled = compile_query::<DenseOrder>(&q, &[Var::new("x")]);
        let mut first: Option<(String, String)> = None;
        for threads in [1, 2, 4] {
            // One evaluation renders both views of the same tree.
            let (_, trace) = compiled
                .clone()
                .with_threads(threads)
                .eval_traced(&inst)
                .unwrap();
            let explain = trace.explain().to_string();
            let traced = trace.to_string();
            for text in [&explain, &traced] {
                assert!(text.contains("#1"), "no sharing marker in:\n{text}");
                assert!(
                    text.contains("(shared, evaluated once)"),
                    "no repeat elision in:\n{text}"
                );
            }
            assert_eq!(
                shape(&explain),
                shape(&traced),
                "explain and trace disagree on the tree at {threads} thread(s)"
            );
            match &first {
                None => first = Some((explain, traced)),
                Some((e, t)) => {
                    assert_eq!(&explain, e, "explain differs at {threads} thread(s)");
                    assert_eq!(&traced, t, "trace differs at {threads} thread(s)");
                }
            }
        }
    }
}
