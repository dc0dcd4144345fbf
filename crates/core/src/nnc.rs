//! Algorithm 1: NN-candidate computation, and its k-robust extension.
//!
//! Objects are visited in non-decreasing order of their **actual** minimal
//! distance `δ_min(V, Q)` via a best-first traversal of the global R-tree
//! (tree nodes are keyed by the MBR lower bound, objects by the exact
//! value). An object visited in this order can never be dominated by an
//! object visited later — a later object has `min(W_Q) ≥ min(V_Q)`, which
//! contradicts the `min` statistic required for dominance (Theorem 11) —
//! so checking each arrival against the candidates found *so far*
//! suffices; together with transitivity (Theorem 9) this makes the result
//! exact. Entries (subtrees) are discarded wholesale when a current
//! candidate MBR-dominates their MBR (Theorem 4 cover validation).
//!
//! ## k-robust candidates
//!
//! The same traversal computes `NNC_k(O, Q, SD)`: every object dominated
//! by **fewer than `k`** other objects (so `NNC_1` is the paper's NNC). The
//! set is a shortlist resilient to removing up to `k − 1` objects: if any
//! `k − 1` candidates are taken away (sold out, offline, …), the NN under
//! every covered function is still inside the set. Two decisions count
//! against `k`: an object is emitted while fewer than `k` emitted
//! candidates dominate it, and a subtree is pruned once `k` candidate MBRs
//! dominate it. Counting dominators among *emitted* candidates suffices —
//! every dominator of `V` precedes or ties it, and a preceding object that
//! was itself excluded (≥ k dominators) contributes its own dominators,
//! all of which also dominate `V` by transitivity (the classic k-skyband
//! argument).
//!
//! The traversal is **progressive**: candidates are final the moment they
//! are emitted, so callers can consume them one by one (Figure 14) or
//! through the [`Iterator`] implementation.

use crate::config::{FilterConfig, Stats};
use crate::ctx::CheckCtx;
#[cfg(test)]
use crate::db::Database;
use crate::index::SpatialIndex;
use crate::ops::Operator;
use crate::query::PreparedQuery;
use crate::warm::{WarmPool, WarmView};
use osd_geom::{mbr_dominates, mbr_dominates_strict, Mbr, MbrRef};
use osd_obs::{AttrValue, Counter, Phase, PhaseTimer, QueryMetrics, SpanId, Stopwatch, TraceData};
use osd_rtree::NodeRef;
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Duration;

/// One emitted NN candidate with bookkeeping for the progressive analysis.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Object id.
    pub id: usize,
    /// The exact `δ_min(U, Q)` — the traversal key at emission.
    pub min_dist: f64,
    /// Wall-clock time from query start until this candidate was emitted.
    pub elapsed: Duration,
}

/// Result of an NNC computation.
#[derive(Debug)]
pub struct NncResult {
    /// The candidates, in emission (non-decreasing `mindist`) order.
    pub candidates: Vec<Candidate>,
    /// Cost counters accumulated over the whole query.
    pub stats: Stats,
    /// Total number of objects that reached an instance-level dominance
    /// check (visited and not pruned at entry level).
    pub objects_checked: usize,
    /// Instrumentation registry of the query (all-zero no-op unless the
    /// `obs` feature is on).
    pub metrics: QueryMetrics,
    /// The query's structured trace tree — present only when
    /// `cfg.trace` was set *and* the `obs` feature is on. The batch
    /// executor stamps `seq` with the query's input index before feeding
    /// the trace to a flight recorder.
    pub trace: Option<TraceData>,
}

impl NncResult {
    /// Candidate ids, in emission order.
    pub fn ids(&self) -> Vec<usize> {
        self.candidates.iter().map(|c| c.id).collect()
    }
}

/// Result of a k-robust candidate computation.
#[derive(Debug)]
pub struct KnncResult {
    /// Kept candidates in emission order, each with the number of kept
    /// candidates dominating it (`< k`).
    pub candidates: Vec<(Candidate, usize)>,
    /// Cost counters.
    pub stats: Stats,
    /// Instrumentation registry of the query (all-zero no-op unless the
    /// `obs` feature is on).
    pub metrics: QueryMetrics,
    /// Structured trace tree of the query — present only when the filter
    /// configuration requested tracing *and* the `obs` feature is on.
    pub trace: Option<TraceData>,
}

impl KnncResult {
    /// Candidate ids in emission order.
    pub fn ids(&self) -> Vec<usize> {
        self.candidates.iter().map(|(c, _)| c.id).collect()
    }
}

enum Slot<'a> {
    /// A tree node, tagged with the shard whose global tree it came from
    /// (always 0 on a flat database) for per-shard attribution.
    Node(NodeRef<'a>, usize),
    Object(usize),
}

struct HeapItem<'a> {
    key: f64,
    slot: Slot<'a>,
}

impl HeapItem<'_> {
    /// Tie-break rank at equal keys: nodes before objects, then lower
    /// object id. Nodes-first guarantees every tied-key object is heaped
    /// before the first tied-key object pops, and the id order then fixes
    /// the emission sequence — which is what makes flat and sharded
    /// traversals emit identically even when keys collide.
    fn rank(&self) -> (u8, usize) {
        match self.slot {
            Slot::Node(..) => (0, 0),
            Slot::Object(id) => (1, id),
        }
    }
}

impl PartialEq for HeapItem<'_> {
    fn eq(&self, other: &Self) -> bool {
        // Defined via `Ord::cmp` so `==` agrees with the total order even
        // for NaN/±0.0 keys (the `Eq` impl requires the two to be
        // consistent).
        self.cmp(other).is_eq()
    }
}
impl Eq for HeapItem<'_> {}
impl PartialOrd for HeapItem<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key) // min-heap: smaller key pops first
            .then_with(|| other.rank().cmp(&self.rank()))
    }
}

/// Computes the NN candidates of `query` over `db` under the dominance
/// operator `op` (Algorithm 1).
pub fn nn_candidates(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    cfg: &FilterConfig,
) -> NncResult {
    drained(db, query, op, 1, cfg, None).into_result()
}

/// [`nn_candidates`] resolving snapshot-pure cache misses through `warm`
/// (see `core::warm`). Result ids, `min_dist` bits, ordering and `Stats`
/// are bit-identical to the cold path; warm traffic is counted only in
/// the dedicated `warm_hits` / `warm_misses` metrics.
pub fn nn_candidates_warm(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    cfg: &FilterConfig,
    warm: &WarmPool,
) -> NncResult {
    drained(db, query, op, 1, cfg, Some(warm.view_for(db, query))).into_result()
}

/// Computes the k-robust NN candidates (`k = 1` reproduces
/// [`nn_candidates`]).
///
/// ```
/// use osd_core::{k_nn_candidates, Database, FilterConfig, Operator, PreparedQuery};
/// use osd_geom::Point;
/// use osd_uncertain::UncertainObject;
///
/// // A dominance chain along a line: NNC_k is exactly the first k objects.
/// let objects: Vec<UncertainObject> = (0..5)
///     .map(|i| UncertainObject::uniform(vec![Point::from([2.0 + 3.0 * i as f64, 0.0])]))
///     .collect();
/// let db = Database::new(objects);
/// let q = PreparedQuery::new(UncertainObject::uniform(vec![Point::from([0.0, 0.0])]));
/// let res = k_nn_candidates(&db, &q, Operator::PSd, 2, &FilterConfig::all());
/// let mut ids = res.ids();
/// ids.sort_unstable();
/// assert_eq!(ids, vec![0, 1]);
/// ```
///
/// # Panics
/// Panics if `k == 0`.
pub fn k_nn_candidates(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    k: usize,
    cfg: &FilterConfig,
) -> KnncResult {
    drained(db, query, op, k, cfg, None).into_knnc_result()
}

/// [`k_nn_candidates`] resolving snapshot-pure cache misses through
/// `warm` (see `core::warm`). Candidate set, `min_dist` bits, order,
/// dominator counts and `Stats` are bit-identical to the cold path.
///
/// # Panics
/// Panics if `k == 0`.
pub fn k_nn_candidates_warm(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    k: usize,
    cfg: &FilterConfig,
    warm: &WarmPool,
) -> KnncResult {
    drained(db, query, op, k, cfg, Some(warm.view_for(db, query))).into_knnc_result()
}

/// A traversal run to exhaustion.
fn drained<'a>(
    db: &'a dyn SpatialIndex,
    query: &'a PreparedQuery,
    op: Operator,
    k: usize,
    cfg: &FilterConfig,
    warm: Option<WarmView>,
) -> ProgressiveNnc<'a> {
    let mut progressive = ProgressiveNnc::with_k(db, query, op, k, cfg, warm);
    while progressive.next_with_dominators().is_some() {}
    progressive
}

/// A resumable Algorithm-1 traversal that emits candidates one at a time —
/// the progressive behaviour evaluated in Figure 14 — and the only
/// traversal there is: [`nn_candidates`] is it at `k = 1`,
/// [`k_nn_candidates`] at any `k`.
///
/// Also an [`Iterator`] over [`Candidate`]s, so the traversal composes with
/// adapters: `ProgressiveNnc::new(..).take(3)` yields the first three
/// candidates without finishing the query.
pub struct ProgressiveNnc<'a> {
    op: Operator,
    /// Dominator budget: an object is emitted while fewer than `k`
    /// emitted candidates dominate it (1 for NNC).
    k: usize,
    heap: BinaryHeap<HeapItem<'a>>,
    candidates: Vec<Candidate>,
    /// Emitted candidates dominating each candidate (`< k`), parallel to
    /// `candidates`.
    dominators: Vec<usize>,
    /// MBR of each emitted candidate, cached at emission so entry pruning
    /// reads a contiguous list instead of chasing the store per check.
    /// `Arc`ed so a warm run shares the snapshot-scoped copy instead of
    /// cloning coordinates per query.
    cand_mbrs: Vec<Arc<Mbr>>,
    ctx: CheckCtx<'a>,
    objects_checked: usize,
    start: Stopwatch,
}

impl<'a> ProgressiveNnc<'a> {
    /// Starts an NNC traversal (`k = 1`).
    pub fn new(
        db: &'a dyn SpatialIndex,
        query: &'a PreparedQuery,
        op: Operator,
        cfg: &FilterConfig,
    ) -> Self {
        Self::with_k(db, query, op, 1, cfg, None)
    }

    /// Starts a traversal streaming the k-robust candidates (`k = 1` is
    /// NNC) whose context resolves snapshot-pure cache misses through
    /// `warm`, if given; results are bit-identical to the cold traversal.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn with_k(
        db: &'a dyn SpatialIndex,
        query: &'a PreparedQuery,
        op: Operator,
        k: usize,
        cfg: &FilterConfig,
        warm: Option<WarmView>,
    ) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let timer = PhaseTimer::start(Phase::Prepare);
        let mut ctx = CheckCtx::with_warm(db, query, *cfg, warm);
        let prep = ctx.trace.open("prepare");
        ctx.metrics.snapshot(
            db.epoch(),
            db.live_len() as u64,
            db.tombstone_count() as u64,
        );
        let mut heap = BinaryHeap::new();
        // Seed every shard root (a flat database has exactly one): the
        // traversal is then one best-first descent of the whole forest,
        // and cross-shard candidate pruning acts as a prune bound shared
        // by all shards — the `min_dist2_multi` trick, one level up.
        for shard in 0..db.shard_count() {
            if let Some(root) = db.shard_tree(shard).root() {
                heap.push(HeapItem {
                    key: root.mbr().min_dist2(query.mbr().view()),
                    slot: Slot::Node(root, shard),
                });
            }
        }
        ctx.metrics.incr_by(Counter::HeapPushes, heap.len() as u64);
        ctx.metrics.heap_depth(heap.len() as u64);
        if prep != SpanId::NONE {
            ctx.trace
                .attr(prep, "shards", AttrValue::U64(db.shard_count() as u64));
            ctx.trace
                .attr(prep, "seeds", AttrValue::U64(heap.len() as u64));
            ctx.trace.attr(prep, "epoch", AttrValue::U64(db.epoch()));
            if k > 1 {
                ctx.trace.attr(prep, "k", AttrValue::U64(k as u64));
            }
        }
        ctx.trace.close(prep);
        ctx.metrics.record(timer);
        ProgressiveNnc {
            op,
            k,
            heap,
            candidates: Vec::new(),
            dominators: Vec::new(),
            cand_mbrs: Vec::new(),
            ctx,
            objects_checked: 0,
            start: Stopwatch::start(),
        }
    }

    /// Candidates emitted so far.
    pub fn emitted(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Cost counters accumulated so far (readable mid-traversal).
    pub fn stats(&self) -> &Stats {
        &self.ctx.stats
    }

    /// Instrumentation registry accumulated so far (readable
    /// mid-traversal; all-zero unless the `obs` feature is on).
    pub fn metrics(&self) -> &QueryMetrics {
        &self.ctx.metrics
    }

    /// Objects that reached a full dominance check so far.
    pub fn objects_checked(&self) -> usize {
        self.objects_checked
    }

    /// The traversal's per-query cache, for structural tests.
    #[cfg(test)]
    pub(crate) fn cache(&self) -> &crate::cache::DominanceCache {
        &self.ctx.cache
    }

    /// Consumes the traversal into an [`NncResult`] with everything emitted
    /// so far.
    pub fn into_result(mut self) -> NncResult {
        // Stamp the warm gauges at completion, when resident bytes reflect
        // everything this query published (max-merged, so late is safe).
        if let Some(w) = self.ctx.cache.warm() {
            w.record_gauges(&mut self.ctx.metrics);
        }
        let mut trace = self.ctx.trace.finish();
        if let Some(t) = trace.as_mut() {
            t.label = Cow::Borrowed(self.op.label());
        }
        NncResult {
            candidates: self.candidates,
            stats: self.ctx.stats,
            objects_checked: self.objects_checked,
            metrics: self.ctx.metrics,
            trace,
        }
    }

    /// Consumes the traversal into a [`KnncResult`] with everything
    /// emitted so far, each candidate paired with its dominator count.
    pub fn into_knnc_result(mut self) -> KnncResult {
        let dominators = std::mem::take(&mut self.dominators);
        let r = self.into_result();
        KnncResult {
            candidates: r.candidates.into_iter().zip(dominators).collect(),
            stats: r.stats,
            metrics: r.metrics,
            trace: r.trace,
        }
    }

    /// Advances the traversal until the next candidate is found; `None` when
    /// the heap is exhausted.
    pub fn next_candidate(&mut self) -> Option<Candidate> {
        self.next_with_dominators().map(|(c, _)| c)
    }

    /// [`Self::next_candidate`] paired with the number of emitted
    /// candidates dominating it (always `< k`; 0 at `k = 1`).
    pub fn next_with_dominators(&mut self) -> Option<(Candidate, usize)> {
        while let Some(HeapItem { key, slot }) = self.heap.pop() {
            match slot {
                Slot::Object(v) => {
                    self.objects_checked += 1;
                    let dominators = self.dominator_count(v);
                    if dominators < self.k {
                        let c = Candidate {
                            id: v,
                            min_dist: key.max(0.0).sqrt(),
                            elapsed: self.start.elapsed(),
                        };
                        self.candidates.push(c.clone());
                        self.dominators.push(dominators);
                        let mbr = match self.ctx.cache.warm() {
                            Some(w) => w.object_mbr(self.ctx.db, v, &mut self.ctx.metrics),
                            None => Arc::new(self.ctx.db.object(v).mbr().clone()),
                        };
                        self.cand_mbrs.push(mbr);
                        self.ctx.metrics.candidate_emitted(self.op.label());
                        let event = self.ctx.trace.instant("candidate");
                        if event != SpanId::NONE {
                            self.ctx.trace.attr(event, "id", AttrValue::U64(v as u64));
                            self.ctx
                                .trace
                                .attr(event, "min_dist", AttrValue::F64(c.min_dist));
                            if self.k > 1 {
                                self.ctx.trace.attr(
                                    event,
                                    "dominators",
                                    AttrValue::U64(dominators as u64),
                                );
                            }
                        }
                        return Some((c, dominators));
                    }
                }
                Slot::Node(node, shard) => {
                    let timer = PhaseTimer::start(Phase::RtreeDescent);
                    let span = self.ctx.trace.open("rtree-descent");
                    if span != SpanId::NONE {
                        self.ctx
                            .trace
                            .attr(span, "shard", AttrValue::U64(shard as u64));
                        self.ctx.trace.attr(span, "key", AttrValue::F64(key));
                    }
                    self.ctx.stats.rtree_nodes_visited += 1;
                    self.ctx.metrics.incr(Counter::RtreeNodeVisits);
                    self.ctx.metrics.shard_visit(shard);
                    if !self.entry_pruned(node.mbr()) {
                        let depth_before = self.heap.len();
                        // per-shard descent: begin
                        if node.is_leaf() {
                            for (mbr, id) in node.entries() {
                                if !self.entry_pruned(mbr) {
                                    // Objects are keyed by their *actual*
                                    // minimal distance δ_min(V, Q): the
                                    // exactness argument (statistic rule on
                                    // `min`) needs the true value, and the
                                    // MBR distance is only a lower bound.
                                    let key = object_min_dist2(
                                        self.ctx.db,
                                        self.ctx.query,
                                        self.ctx.cfg.kernels,
                                        id,
                                        &mut self.ctx.stats,
                                        &mut self.ctx.metrics,
                                    );
                                    self.heap.push(HeapItem {
                                        key,
                                        slot: Slot::Object(id),
                                    });
                                }
                            }
                        } else {
                            for child in node.children() {
                                if !self.entry_pruned(child.mbr()) {
                                    self.heap.push(HeapItem {
                                        key: child.mbr().min_dist2(self.ctx.query.mbr().view()),
                                        slot: Slot::Node(child, shard),
                                    });
                                }
                            }
                        }
                        // per-shard descent: end
                        let pushed = (self.heap.len() - depth_before) as u64;
                        self.ctx.metrics.incr_by(Counter::HeapPushes, pushed);
                        self.ctx.metrics.heap_depth(self.heap.len() as u64);
                        self.ctx.trace.attr(span, "pushed", AttrValue::U64(pushed));
                    } else {
                        self.ctx.trace.attr(
                            span,
                            "pruned",
                            AttrValue::Str(Cow::Borrowed("mbr-dominated")),
                        );
                    }
                    self.ctx.trace.close(span);
                    self.ctx.metrics.record(timer);
                }
            }
        }
        None
    }

    /// Emitted candidates dominating object `v`, counted up to `k`: the
    /// scan stops at the `k`-th dominator (the first one at `k = 1`).
    fn dominator_count(&mut self, v: usize) -> usize {
        let mut dominators = 0;
        // Iterate over ids (cheap copy) because the dominance check needs
        // mutable access to the cache.
        for idx in 0..self.candidates.len() {
            let u = self.candidates[idx].id;
            if self.ctx.dominates(self.op, u, v) {
                dominators += 1;
                if dominators == self.k {
                    break;
                }
            }
        }
        dominators
    }

    /// Entry-level pruning against the candidates emitted so far.
    fn entry_pruned(&mut self, e_mbr: MbrRef<'_>) -> bool {
        mbr_pruned(
            &self.cand_mbrs,
            e_mbr,
            self.ctx.query.mbr(),
            self.op,
            self.k,
            self.ctx.cfg.mbr_validation,
            &mut self.ctx.stats,
        )
    }
}

/// Exact squared `δ_min(V, Q)` via the object's local R-tree — the
/// traversal key of [`ProgressiveNnc`], shared with the continuous repair
/// path ([`crate::continuous::ContinuousNnc`]) so both compute
/// bit-identical keys.
///
/// The kernel path answers all query instances in one pruned descent
/// sharing the running best as bound; `min` is monotone under
/// `sqrt`-then-square, so the result is bit-identical to the per-`q`
/// nearest searches of the scalar path (which square each nearest
/// distance before folding). `instance_comparisons` charges one unit
/// per query instance on both paths; the node-visit saving shows up in
/// `rtree_nodes_visited`, which is reported but not frozen.
pub(crate) fn object_min_dist2(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    kernels: bool,
    v: usize,
    stats: &mut Stats,
    metrics: &mut QueryMetrics,
) -> f64 {
    let tree = db.local_tree(v);
    let mut best = f64::INFINITY;
    let mut visits = 0u64;
    if kernels {
        stats.instance_comparisons += query.len() as u64;
        if let Some(d2) = tree.min_dist2_multi(query.instance_points(), &mut visits) {
            let d = d2.sqrt();
            best = d * d;
        }
    } else {
        for q in query.instance_points() {
            stats.instance_comparisons += 1;
            if let Some((_, d)) = tree.nearest_counting(q, &mut visits) {
                best = best.min(d * d);
            }
        }
    }
    stats.rtree_nodes_visited += visits;
    metrics.incr_by(Counter::RtreeNodeVisits, visits);
    best
}

/// Entry-level pruning: discard a subtree (or object) when at least `k`
/// MBRs in `cand_mbrs` fully dominate `e_mbr` w.r.t. the query MBR
/// (Theorem 4) — every object inside then has ≥ `k` dominators. The
/// strict operators use the strict MBR test so that a pruned subtree can
/// never contain a distribution-equal twin of a candidate.
///
/// Shared by the traversal's entry pruning and the continuous repair
/// pre-filter (`k = 1`) so both apply the exact same gate. Generic over
/// the MBR holder so the traversal's warm-shared `Arc<Mbr>` list and the
/// repair path's owned `Vec<Mbr>` go through the identical code.
pub(crate) fn mbr_pruned<M: Borrow<Mbr>>(
    cand_mbrs: &[M],
    e_mbr: MbrRef<'_>,
    query_mbr: &Mbr,
    op: Operator,
    k: usize,
    mbr_validation: bool,
    stats: &mut Stats,
) -> bool {
    if !mbr_validation && op != Operator::FPlusSd && op != Operator::FSd {
        // With validation disabled (BF-style ablations) entries are
        // never pruned for the strict operators, to keep the measured
        // work faithful to the unfiltered algorithm.
        return false;
    }
    let strict = !matches!(op, Operator::FPlusSd | Operator::FSd);
    let mut dominators = 0;
    for u_mbr in cand_mbrs {
        let u_mbr = u_mbr.borrow();
        stats.mbr_checks += 1;
        let dominated = if strict {
            mbr_dominates_strict(u_mbr, e_mbr, query_mbr)
        } else {
            mbr_dominates(u_mbr, e_mbr, query_mbr)
        };
        if dominated {
            dominators += 1;
            if dominators == k {
                return true;
            }
        }
    }
    false
}

impl Iterator for ProgressiveNnc<'_> {
    type Item = Candidate;

    fn next(&mut self) -> Option<Candidate> {
        self.next_candidate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;

    fn obj(pts: &[(f64, f64)]) -> UncertainObject {
        UncertainObject::uniform(pts.iter().map(|&(x, y)| Point::new(vec![x, y])).collect())
    }

    fn line_db() -> Database {
        // Objects at increasing distance along a line: each dominates all
        // the ones after it.
        Database::new(
            (0..6)
                .map(|i| {
                    let x = 2.0 + 3.0 * i as f64;
                    obj(&[(x, 0.0), (x + 0.5, 0.0)])
                })
                .collect(),
        )
    }

    #[test]
    fn iterator_matches_next_candidate() {
        let db = line_db();
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let via_iter: Vec<usize> =
            ProgressiveNnc::new(&db, &q, Operator::PSd, &FilterConfig::all())
                .map(|c| c.id)
                .collect();
        let via_batch = nn_candidates(&db, &q, Operator::PSd, &FilterConfig::all()).ids();
        assert_eq!(via_iter, via_batch);
    }

    #[test]
    fn iterator_composes_with_take() {
        let db = line_db();
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let first = ProgressiveNnc::new(&db, &q, Operator::SSd, &FilterConfig::all())
            .take(1)
            .map(|c| c.id)
            .collect::<Vec<_>>();
        assert_eq!(
            first,
            vec![0],
            "nearest object is always the first candidate"
        );
    }

    #[test]
    fn heap_item_eq_agrees_with_ord_on_special_floats() {
        // Identical NaN keys: the id tie-break decides, and Eq agrees.
        let a = HeapItem {
            key: f64::NAN,
            slot: Slot::Object(0),
        };
        let b = HeapItem {
            key: f64::NAN,
            slot: Slot::Object(1),
        };
        // `a` is greater in the reversed (min-heap) order: lower id pops
        // first among equal keys.
        assert_eq!(a.cmp(&b), Ordering::Greater);
        assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
        let same = HeapItem {
            key: f64::NAN,
            slot: Slot::Object(0),
        };
        assert_eq!(a.cmp(&same), Ordering::Equal);
        assert!(a == same, "Eq must agree with Ord for identical items");
        let z_pos = HeapItem {
            key: 0.0,
            slot: Slot::Object(2),
        };
        let z_neg = HeapItem {
            key: -0.0,
            slot: Slot::Object(2),
        };
        assert_eq!(
            z_pos == z_neg,
            z_pos.cmp(&z_neg) == Ordering::Equal,
            "±0.0 equality must match the total order"
        );
    }

    #[test]
    fn nodes_pop_before_objects_at_equal_keys() {
        let db = line_db();
        let root = db.global_tree().root().unwrap();
        let node = HeapItem {
            key: 1.0,
            slot: Slot::Node(root, 0),
        };
        let object = HeapItem {
            key: 1.0,
            slot: Slot::Object(0),
        };
        // Greater pops first from `BinaryHeap`.
        assert_eq!(node.cmp(&object), Ordering::Greater);
    }

    #[test]
    fn k1_equals_nnc() {
        let db = line_db();
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        for op in Operator::ALL {
            let k1 = k_nn_candidates(&db, &q, op, 1, &FilterConfig::all());
            let nnc = nn_candidates(&db, &q, op, &FilterConfig::all());
            assert_eq!(k1.ids(), nnc.ids(), "k=1 must equal NNC for {op:?}");
        }
    }

    #[test]
    fn chain_grows_one_per_k() {
        let db = line_db();
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        // On a dominance chain, NNC_k is exactly the first k objects.
        for k in 1..=6 {
            let res = k_nn_candidates(&db, &q, Operator::SSd, k, &FilterConfig::all());
            let mut ids = res.ids();
            ids.sort_unstable();
            assert_eq!(ids, (0..k).collect::<Vec<_>>(), "k = {k}");
        }
    }

    #[test]
    fn progressive_streams_the_k_robust_set() {
        let db = line_db();
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let cfg = FilterConfig::all();
        let mut stream = ProgressiveNnc::with_k(&db, &q, Operator::SSd, 3, &cfg, None);
        let mut streamed = Vec::new();
        while let Some((c, dominators)) = stream.next_with_dominators() {
            streamed.push((c.id, dominators));
        }
        // Object i on the chain is dominated by every object before it.
        assert_eq!(streamed, vec![(0, 0), (1, 1), (2, 2)]);
        let batch = k_nn_candidates(&db, &q, Operator::SSd, 3, &cfg);
        let batch: Vec<(usize, usize)> = batch.candidates.iter().map(|(c, d)| (c.id, *d)).collect();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn matches_bruteforce_on_random_data() {
        use crate::brute::k_nn_candidates_bruteforce;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let objects: Vec<UncertainObject> = (0..30)
            .map(|_| {
                let cx = rng.gen_range(0.0..100.0);
                let cy = rng.gen_range(0.0..100.0);
                obj(&[
                    (cx, cy),
                    (cx + rng.gen_range(0.0..5.0), cy + rng.gen_range(0.0..5.0)),
                ])
            })
            .collect();
        let db = Database::with_fanouts(objects, 4, 2);
        let q = PreparedQuery::new(obj(&[(50.0, 50.0), (52.0, 48.0)]));
        for op in Operator::ALL {
            for k in [1usize, 2, 3, 5] {
                let mut algo = k_nn_candidates(&db, &q, op, k, &FilterConfig::all()).ids();
                algo.sort_unstable();
                let brute = k_nn_candidates_bruteforce(&db, &q, op, k, &FilterConfig::all());
                assert_eq!(algo, brute, "k-NNC mismatch for {op:?}, k = {k}");
            }
        }
    }

    #[test]
    fn monotone_in_k() {
        let db = line_db();
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let mut prev: Vec<usize> = Vec::new();
        for k in 1..=6 {
            let mut ids = k_nn_candidates(&db, &q, Operator::PSd, k, &FilterConfig::all()).ids();
            ids.sort_unstable();
            assert!(
                prev.iter().all(|i| ids.contains(i)),
                "NNC_k must grow with k"
            );
            prev = ids;
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn k_zero_rejected() {
        let db = line_db();
        let q = PreparedQuery::new(obj(&[(0.0, 0.0)]));
        let _ = k_nn_candidates(&db, &q, Operator::SSd, 0, &FilterConfig::all());
    }
}
