//! Snapshot-scoped warm cache: cross-query reuse of snapshot-pure state.
//!
//! `core::cache` memoizes derived object state *per traversal*; everything
//! it holds that depends only on the snapshot — quantised masses, level
//! snapshots (group MBRs / masses / caps), object MBRs and the
//! per-(object, level) bound distributions of a repeated query — is
//! rebuilt from scratch by the next query. [`WarmCache`] promotes exactly
//! that subset to snapshot lifetime:
//!
//! * **Keying.** One cache is valid for one `(Arc::as_ptr(store), epoch)`
//!   pair. The cache pins its `Arc<InstanceStore>`, which both prevents
//!   pointer reuse (ABA) while the cache is alive and forces the epoch
//!   builders' `Arc::make_mut` down the clone path, so a published
//!   successor snapshot can never alias the pinned pointer.
//! * **Population.** Lock-free on read: a getter that finds its
//!   [`OnceLock`] slot empty builds the entry *off-lock* and publishes it
//!   with `set`, tolerating a lost race (the first published value wins;
//!   the loser adopts it). The query path never blocks on another
//!   builder. A bound table is sparse: an object's per-level slot array
//!   is created, under a short per-table mutex, the first time one of its
//!   bounds is requested; the slots inside publish lock-free as above.
//! * **Invalidation.** [`WarmPool::cache_for`] advances the cache to a
//!   newer epoch through [`EpochLog::changes_since`]: entries of objects
//!   untouched by the window are carried over (their derived state is
//!   bit-identical by construction), touched ids are evicted. When the
//!   log window is exhausted (`None`) — or the epoch regressed, i.e. the
//!   pool was fed a snapshot from a different chain — the whole cache is
//!   rebuilt, mirroring `ContinuousNnc`'s stale-window fallback.
//! * **Bit-identity.** Every entry is built by the same deterministic
//!   constructor as the cold path (`build_level_snapshot`,
//!   `build_bounds_*`, `quantize`), so a warm-served value is bit-for-bit
//!   the value the cold path would have built. Warm traffic is counted in
//!   the dedicated `warm_hits` / `warm_misses` counters; the legacy
//!   per-query `cache_hits` / `cache_misses` semantics are untouched.
//!
//! Bound distributions depend on the query as well as the snapshot, so
//! they live in per-query [`QueryBounds`] tables keyed by the query's
//! content fingerprint ([`PreparedQuery::fingerprint`]); the table is
//! resolved once per query into a [`WarmView`] and verified against the
//! full coordinate/probability bit pattern, so a 64-bit fingerprint
//! collision degrades to a private (unshared) table, never to wrong
//! bounds.
//!
//! One [`WarmPool`] must be fed snapshots of a single publish chain
//! (structurally guaranteed when the pool rides a `PublishedIndex`);
//! snapshots of unrelated indexes at coincidentally increasing epochs
//! would otherwise be taken for successors. The fallback rules above make
//! a mis-fed pool slow (full rebuilds), never wrong, as long as the two
//! chains' logs do not splice (`changes_since` of an unrelated log
//! answers `None` for a foreign epoch or describes different ids).

use crate::cache::{
    build_bounds_instance, build_bounds_whole, build_level_snapshot, BoundPair, LevelSnapshot,
};
use crate::index::SpatialIndex;
use crate::query::PreparedQuery;
use osd_geom::Mbr;
use osd_obs::{Counter, QueryMetrics};
use osd_uncertain::{quantize, touched_ids, InstanceStore};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// One lazily-published cache slot.
type Slot<T> = OnceLock<Arc<T>>;

/// Per-level slot array of one object (sized `num_levels` on first touch).
type LevelSlots<T> = Arc<[Slot<T>]>;

/// Sparse per-object slot arrays of one bound table, keyed by object id.
type SlotMap<T> = Mutex<BTreeMap<usize, LevelSlots<T>>>;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Publishes `value` into `slot`, tolerating a lost race: the first
/// published value wins and the loser adopts it. Returns the winning
/// value and whether *this* call published it (the publisher owns the
/// resident-bytes accounting).
fn publish<T>(slot: &Slot<T>, value: Arc<T>) -> (Arc<T>, bool) {
    match slot.set(Arc::clone(&value)) {
        Ok(()) => (value, true),
        Err(_) => (slot.get().map(Arc::clone).unwrap_or(value), false),
    }
}

fn empty_slots<T>(n: usize) -> Box<[Slot<T>]> {
    (0..n).map(|_| OnceLock::new()).collect()
}

/// Gets or installs the per-level slot array of object `id`.
fn level_slots<T>(map: &SlotMap<T>, id: usize, num_levels: usize) -> LevelSlots<T> {
    let mut map = lock(map);
    let slots = map
        .entry(id)
        .or_insert_with(|| (0..num_levels).map(|_| OnceLock::new()).collect());
    Arc::clone(slots)
}

fn filled<T>(slots: &[Slot<T>]) -> u64 {
    slots.iter().filter(|s| s.get().is_some()).count() as u64
}

/// Carries the slot arrays of the ids `keep` accepts into a fresh map:
/// their filled slots add to `bytes` (sized by `size`), the filled slots
/// of every dropped id add to `evicted`. Also answers whether any carried
/// slot is filled. Walks only the resident ids.
fn carry_slots<T>(
    from: &SlotMap<T>,
    keep: impl Fn(usize) -> bool,
    size: fn(&T) -> u64,
    evicted: &mut u64,
    bytes: &mut u64,
) -> (BTreeMap<usize, LevelSlots<T>>, bool) {
    let mut carried = BTreeMap::new();
    let mut any = false;
    for (&id, slots) in lock(from).iter() {
        let n = filled(slots);
        if keep(id) {
            *bytes += slots
                .iter()
                .flat_map(|s| s.get())
                .map(|v| size(v))
                .sum::<u64>();
            any = any || n > 0;
            carried.insert(id, Arc::clone(slots));
        } else {
            *evicted += n;
        }
    }
    (carried, any)
}

// ---- approximate resident sizes (gauge accounting, not allocator truth) ----

fn quanta_bytes(q: &[u64]) -> u64 {
    24 + 8 * q.len() as u64
}

fn mbr_bytes(m: &Mbr) -> u64 {
    16 * m.lo().len() as u64
}

fn snapshot_bytes(s: &LevelSnapshot) -> u64 {
    let mut b = 48u64;
    for idx in 1..=s.num_levels() {
        let lg = s.level(idx);
        b += 72;
        for m in &lg.mbrs {
            b += mbr_bytes(m) + 16;
        }
    }
    b
}

fn bound_pair_bytes(p: &BoundPair) -> u64 {
    64 + 16 * (p.0.support_size() + p.1.support_size()) as u64
}

fn bound_vec_bytes(v: &[BoundPair]) -> u64 {
    24 + v.iter().map(bound_pair_bytes).sum::<u64>()
}

/// Pool-level cumulative counters, for bench / CLI reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Lookups served from an already published entry.
    pub hits: u64,
    /// Lookups that built (or raced to build) the entry.
    pub misses: u64,
    /// Entries discarded by epoch invalidation (cumulative).
    pub evictions: u64,
    /// Approximate bytes resident in the current cache.
    pub resident_bytes: u64,
    /// Epoch of the current cache.
    pub epoch: u64,
}

/// The per-query bound tables of one warm cache, keyed by query content.
///
/// `whole` / `instance` map each object whose bounds were requested to
/// its per-clamped-level slots of the §5.1.1 optimistic/pessimistic bound
/// distributions — exactly the values `DominanceCache::level_bounds_*`
/// would build cold. Objects never asked about have no entry, so a table
/// costs O(1) to create and grows with the work its queries do.
pub struct QueryBounds {
    /// Exact coordinate/probability bit pattern of the owning query, used
    /// to verify fingerprint matches (collision ⇒ private table).
    key: Vec<u64>,
    whole: SlotMap<BoundPair>,
    instance: SlotMap<Vec<BoundPair>>,
}

impl std::fmt::Debug for QueryBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBounds")
            .field("whole_objects", &lock(&self.whole).len())
            .field("instance_objects", &lock(&self.instance).len())
            .finish_non_exhaustive()
    }
}

impl QueryBounds {
    fn new(key: Vec<u64>) -> Self {
        QueryBounds {
            key,
            whole: Mutex::default(),
            instance: Mutex::default(),
        }
    }

    /// Filled bound slots across every resident object.
    fn filled(&self) -> u64 {
        let whole: u64 = lock(&self.whole).values().map(|s| filled(s)).sum();
        let instance: u64 = lock(&self.instance).values().map(|s| filled(s)).sum();
        whole + instance
    }
}

/// The exact bit pattern of a query's instances — the collision-proof
/// identity its fingerprint abbreviates.
fn query_key(query: &PreparedQuery) -> Vec<u64> {
    let mut key = Vec::new();
    for inst in query.object().instances() {
        for &c in inst.point.coords() {
            key.push(c.to_bits());
        }
        key.push(inst.prob.to_bits());
    }
    key
}

/// A shared warm cache for one `(store pointer, epoch)` snapshot.
///
/// See the module docs for the keying / population / invalidation
/// protocol. The per-snapshot entry arrays (`quanta`, `levels`, `mbrs`)
/// are sized by the snapshot's logical id space (`db.len()`, tombstones
/// included) and built once per snapshot; the per-query bound tables are
/// sparse and hold only the objects whose bounds were requested.
pub struct WarmCache {
    /// Pinned store snapshot: identity key half, ABA guard, and CoW
    /// forcing (a pinned refcount makes `Arc::make_mut` clone).
    store: Arc<InstanceStore>,
    epoch: u64,
    quanta: Box<[Slot<Vec<u64>>]>,
    levels: Box<[Slot<LevelSnapshot>]>,
    mbrs: Box<[Slot<Mbr>]>,
    bounds: Mutex<BTreeMap<u64, Arc<QueryBounds>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Cumulative over the pool's lifetime (carried across advances).
    evictions: u64,
    resident_bytes: AtomicU64,
}

impl std::fmt::Debug for WarmCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmCache")
            .field("epoch", &self.epoch)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl WarmCache {
    /// A blank cache keyed to `db`'s current snapshot.
    fn blank(db: &dyn SpatialIndex) -> WarmCache {
        let n = db.len();
        WarmCache {
            store: Arc::clone(db.store()),
            epoch: db.epoch(),
            quanta: empty_slots(n),
            levels: empty_slots(n),
            mbrs: empty_slots(n),
            bounds: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: 0,
            resident_bytes: AtomicU64::new(0),
        }
    }

    /// Whether this cache is keyed to exactly `db`'s current snapshot.
    pub fn matches(&self, db: &dyn SpatialIndex) -> bool {
        Arc::ptr_eq(&self.store, db.store()) && self.epoch == db.epoch()
    }

    /// The epoch this cache is keyed to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative warm hits served by this cache (carried on advance).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative warm misses (entries built; carried on advance).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative entries evicted by epoch invalidation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Approximate bytes resident in this cache.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    fn stats(&self) -> WarmStats {
        WarmStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions,
            resident_bytes: self.resident_bytes(),
            epoch: self.epoch,
        }
    }

    fn add_bytes(&self, b: u64) {
        self.resident_bytes.fetch_add(b, Ordering::Relaxed);
    }

    fn quanta_entry(&self, db: &dyn SpatialIndex, id: usize) -> (Arc<Vec<u64>>, bool) {
        if let Some(q) = self.quanta[id].get() {
            return (Arc::clone(q), true);
        }
        let built = Arc::new(quantize(db.object(id).probs()));
        let (v, published) = publish(&self.quanta[id], built);
        if published {
            self.add_bytes(quanta_bytes(&v));
        }
        (v, false)
    }

    fn snapshot_entry(
        &self,
        db: &dyn SpatialIndex,
        id: usize,
        quanta: &[u64],
    ) -> (Arc<LevelSnapshot>, bool) {
        if let Some(s) = self.levels[id].get() {
            return (Arc::clone(s), true);
        }
        let built = Arc::new(build_level_snapshot(db, id, quanta));
        let (v, published) = publish(&self.levels[id], built);
        if published {
            self.add_bytes(snapshot_bytes(&v));
        }
        (v, false)
    }

    fn mbr_entry(&self, db: &dyn SpatialIndex, id: usize) -> (Arc<Mbr>, bool) {
        if let Some(m) = self.mbrs[id].get() {
            return (Arc::clone(m), true);
        }
        let built = Arc::new(db.object(id).mbr().clone());
        let (v, published) = publish(&self.mbrs[id], built);
        if published {
            self.add_bytes(mbr_bytes(&v));
        }
        (v, false)
    }

    /// The bound table of `query`, shared across equal repeated queries.
    /// A fingerprint collision (different content, same 64-bit key)
    /// returns a private unregistered table — correctness never rests on
    /// the hash.
    pub fn bounds_for(&self, query: &PreparedQuery) -> Arc<QueryBounds> {
        let key = query_key(query);
        let mut map = lock(&self.bounds);
        if let Some(t) = map.get(&query.fingerprint()) {
            if t.key == key {
                return Arc::clone(t);
            }
            return Arc::new(QueryBounds::new(key));
        }
        let t = Arc::new(QueryBounds::new(key));
        map.insert(query.fingerprint(), Arc::clone(&t));
        t
    }

    /// Entries currently published (used to count a full-rebuild
    /// eviction).
    fn resident_entries(&self) -> u64 {
        let bounds: u64 = lock(&self.bounds).values().map(|qb| qb.filled()).sum();
        filled(&self.quanta) + filled(&self.levels) + filled(&self.mbrs) + bounds
    }

    /// Advances `old` to `db`'s snapshot: incremental carry + targeted
    /// eviction when the epoch log covers the window, full rebuild
    /// otherwise.
    fn advance(old: &WarmCache, db: &dyn SpatialIndex) -> WarmCache {
        let window = if db.epoch() > old.epoch {
            db.changes_since(old.epoch)
        } else {
            // Epoch regressed (or a same-epoch snapshot with a different
            // store pointer): not a successor of ours — start over.
            None
        };
        let mut next = WarmCache::blank(db);
        next.hits = AtomicU64::new(old.hits());
        next.misses = AtomicU64::new(old.misses());
        let Some(changes) = window else {
            next.evictions = old.evictions + old.resident_entries();
            return next;
        };
        let touched = touched_ids(&changes);
        let n = next.quanta.len();
        let keep = |id: usize| id < n && touched.binary_search(&id).is_err();
        let mut evicted = 0u64;
        let mut bytes = 0u64;
        // Carry the snapshot-pure per-object entries of untouched ids.
        for id in 0..old.quanta.len() {
            let kept = keep(id);
            if let Some(v) = old.quanta[id].get() {
                if kept && next.quanta[id].set(Arc::clone(v)).is_ok() {
                    bytes += quanta_bytes(v);
                } else {
                    evicted += 1;
                }
            }
            if let Some(v) = old.levels[id].get() {
                if kept && next.levels[id].set(Arc::clone(v)).is_ok() {
                    bytes += snapshot_bytes(v);
                } else {
                    evicted += 1;
                }
            }
            if let Some(v) = old.mbrs[id].get() {
                if kept && next.mbrs[id].set(Arc::clone(v)).is_ok() {
                    bytes += mbr_bytes(v);
                } else {
                    evicted += 1;
                }
            }
        }
        // Carry per-query bound tables the same way, walking only their
        // resident ids: untouched objects keep their whole per-level slot
        // array (values are bit-identical across the window), touched
        // objects are dropped.
        let mut new_map = BTreeMap::new();
        for (fp, qb) in lock(&old.bounds).iter() {
            let (whole, any_whole) =
                carry_slots(&qb.whole, keep, bound_pair_bytes, &mut evicted, &mut bytes);
            let (instance, any_instance) = carry_slots(
                &qb.instance,
                keep,
                |v| bound_vec_bytes(v),
                &mut evicted,
                &mut bytes,
            );
            if any_whole || any_instance {
                let carried = QueryBounds {
                    key: qb.key.clone(),
                    whole: Mutex::new(whole),
                    instance: Mutex::new(instance),
                };
                new_map.insert(*fp, Arc::new(carried));
            }
        }
        next.evictions = old.evictions + evicted;
        next.resident_bytes = AtomicU64::new(bytes);
        next.bounds = Mutex::new(new_map);
        next
    }
}

/// A per-query window into a [`WarmCache`]: the cache plus the query's
/// resolved bound table. Cloning is two `Arc` bumps.
#[derive(Debug, Clone)]
pub struct WarmView {
    cache: Arc<WarmCache>,
    bounds: Arc<QueryBounds>,
}

impl WarmView {
    /// Resolves `query`'s bound table in `cache` (once per query).
    pub fn new(cache: Arc<WarmCache>, query: &PreparedQuery) -> WarmView {
        let bounds = cache.bounds_for(query);
        WarmView { cache, bounds }
    }

    /// The underlying shared cache.
    pub fn cache(&self) -> &Arc<WarmCache> {
        &self.cache
    }

    fn tally(&self, hit: bool, metrics: &mut QueryMetrics) {
        if hit {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            metrics.incr(Counter::WarmHits);
        } else {
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            metrics.incr(Counter::WarmMisses);
        }
    }

    /// Records the cache's eviction/resident gauges into `metrics`.
    pub fn record_gauges(&self, metrics: &mut QueryMetrics) {
        metrics.warm_cache(self.cache.evictions(), self.cache.resident_bytes());
    }

    /// Warm quantised masses of object `id`.
    pub fn quanta(
        &self,
        db: &dyn SpatialIndex,
        id: usize,
        metrics: &mut QueryMetrics,
    ) -> Arc<Vec<u64>> {
        let (v, hit) = self.cache.quanta_entry(db, id);
        self.tally(hit, metrics);
        v
    }

    /// Warm level snapshot of object `id` (`quanta` is the caller's
    /// already-resolved quantisation — the nested legacy lookup the cold
    /// path performs anyway).
    pub fn level_snapshot(
        &self,
        db: &dyn SpatialIndex,
        id: usize,
        quanta: &[u64],
        metrics: &mut QueryMetrics,
    ) -> Arc<LevelSnapshot> {
        let (v, hit) = self.cache.snapshot_entry(db, id, quanta);
        self.tally(hit, metrics);
        v
    }

    /// Warm MBR of object `id` (the emission-time candidate MBR).
    pub fn object_mbr(
        &self,
        db: &dyn SpatialIndex,
        id: usize,
        metrics: &mut QueryMetrics,
    ) -> Arc<Mbr> {
        let (v, hit) = self.cache.mbr_entry(db, id);
        self.tally(hit, metrics);
        v
    }

    /// Warm whole-`U_Q` bound pair of object `id` at `level`.
    pub fn bounds_whole(
        &self,
        query: &PreparedQuery,
        id: usize,
        snap: &LevelSnapshot,
        level: usize,
        metrics: &mut QueryMetrics,
    ) -> Arc<BoundPair> {
        let slots = level_slots(&self.bounds.whole, id, snap.num_levels());
        let idx = snap.clamped(level);
        if let Some(b) = slots[idx].get() {
            let v = Arc::clone(b);
            self.tally(true, metrics);
            return v;
        }
        let built = Arc::new(build_bounds_whole(query, snap.level(level)));
        let (v, published) = publish(&slots[idx], built);
        if published {
            self.cache.add_bytes(bound_pair_bytes(&v));
        }
        self.tally(false, metrics);
        v
    }

    /// Warm per-`U_q` bound pairs of object `id` at `level`.
    pub fn bounds_instance(
        &self,
        query: &PreparedQuery,
        id: usize,
        snap: &LevelSnapshot,
        level: usize,
        metrics: &mut QueryMetrics,
    ) -> Arc<Vec<BoundPair>> {
        let slots = level_slots(&self.bounds.instance, id, snap.num_levels());
        let idx = snap.clamped(level);
        if let Some(b) = slots[idx].get() {
            let v = Arc::clone(b);
            self.tally(true, metrics);
            return v;
        }
        let built = Arc::new(build_bounds_instance(query, snap.level(level)));
        let (v, published) = publish(&slots[idx], built);
        if published {
            self.cache.add_bytes(bound_vec_bytes(&v));
        }
        self.tally(false, metrics);
        v
    }
}

/// The shared home of a warm cache across queries and epochs.
///
/// Holds at most one [`WarmCache`] — the one keyed to the newest snapshot
/// it has been shown. [`WarmPool::cache_for`] swaps in an advanced cache
/// when the snapshot moves; queries still running against the old
/// snapshot keep their pinned `Arc<WarmCache>` and stay consistent.
#[derive(Debug, Default)]
pub struct WarmPool {
    current: Mutex<Option<Arc<WarmCache>>>,
}

impl WarmPool {
    /// An empty pool.
    pub const fn new() -> Self {
        WarmPool {
            current: Mutex::new(None),
        }
    }

    /// The cache keyed to `db`'s current snapshot, advancing (or
    /// rebuilding — see the module docs' fallback rules) as needed.
    pub fn cache_for(&self, db: &dyn SpatialIndex) -> Arc<WarmCache> {
        let mut cur = lock(&self.current);
        if let Some(c) = cur.as_ref() {
            if c.matches(db) {
                return Arc::clone(c);
            }
        }
        let next = Arc::new(match cur.take() {
            Some(old) => WarmCache::advance(&old, db),
            None => WarmCache::blank(db),
        });
        *cur = Some(Arc::clone(&next));
        next
    }

    /// A per-query view: the current cache plus `query`'s bound table.
    pub fn view_for(&self, db: &dyn SpatialIndex, query: &PreparedQuery) -> WarmView {
        WarmView::new(self.cache_for(db), query)
    }

    /// Cumulative pool counters (zero if no query has warmed the pool).
    pub fn stats(&self) -> WarmStats {
        let cur = lock(&self.current);
        cur.as_ref().map(|c| c.stats()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DominanceCache;
    use crate::config::Stats;
    use crate::db::Database;
    use crate::publish::PublishedIndex;
    use osd_geom::Point;
    use osd_uncertain::UncertainObject;

    fn p2(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    fn obj(x: f64) -> UncertainObject {
        UncertainObject::uniform(vec![p2(x, 0.0), p2(x + 1.0, 0.5), p2(x, 1.0)])
    }

    fn query() -> PreparedQuery {
        PreparedQuery::new(UncertainObject::uniform(vec![p2(0.0, 0.0), p2(0.5, 0.5)]))
    }

    #[test]
    fn same_snapshot_reuses_the_cache_and_its_entries() {
        let db = Database::new(vec![obj(1.0), obj(5.0)]);
        let pool = WarmPool::new();
        let q = query();
        let mut metrics = QueryMetrics::new();
        let v1 = pool.view_for(&db, &q);
        let a = v1.quanta(&db, 0, &mut metrics);
        let v2 = pool.view_for(&db, &q);
        assert!(Arc::ptr_eq(v1.cache(), v2.cache()), "same (ptr, epoch) key");
        let b = v2.quanta(&db, 0, &mut metrics);
        assert!(Arc::ptr_eq(&a, &b), "entry survives across views");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn bounds_tables_are_shared_by_equal_queries_only() {
        let db = Database::new(vec![obj(1.0)]);
        let pool = WarmPool::new();
        let q1 = query();
        let q2 = query(); // equal content, distinct allocation
        let q3 = PreparedQuery::new(UncertainObject::uniform(vec![p2(9.0, 9.0)]));
        let v1 = pool.view_for(&db, &q1);
        let v2 = pool.view_for(&db, &q2);
        let v3 = pool.view_for(&db, &q3);
        assert!(Arc::ptr_eq(&v1.bounds, &v2.bounds));
        assert!(!Arc::ptr_eq(&v1.bounds, &v3.bounds));
    }

    #[test]
    fn update_evicts_only_the_touched_object() {
        let idx = PublishedIndex::new(Database::new(vec![obj(1.0), obj(5.0)]));
        let pool = WarmPool::new();
        let q = query();
        let mut metrics = QueryMetrics::new();
        let snap0 = idx.pin();
        let v0 = pool.view_for(snap0.as_ref(), &q);
        let q0 = v0.quanta(snap0.as_ref(), 0, &mut metrics);
        let q1 = v0.quanta(snap0.as_ref(), 1, &mut metrics);
        idx.update(1, obj(7.0)).expect("update");
        let snap1 = idx.pin();
        let v1 = pool.view_for(snap1.as_ref(), &q);
        assert!(
            !Arc::ptr_eq(v0.cache(), v1.cache()),
            "stale (ptr, epoch) key must not be served"
        );
        let q0b = v1.quanta(snap1.as_ref(), 0, &mut metrics);
        assert!(Arc::ptr_eq(&q0, &q0b), "untouched object carried over");
        let q1b = v1.quanta(snap1.as_ref(), 1, &mut metrics);
        assert!(!Arc::ptr_eq(&q1, &q1b), "touched object rebuilt");
        assert!(pool.stats().evictions >= 1);
    }

    /// Resident ids of one bound map.
    fn resident<T>(map: &SlotMap<T>) -> Vec<usize> {
        lock(map).keys().copied().collect()
    }

    /// Requests the level-1 whole-`U_Q` and per-`U_q` bounds of `id`
    /// through a warm-backed `DominanceCache`.
    fn request_bounds(db: &dyn SpatialIndex, q: &PreparedQuery, view: &WarmView, id: usize) {
        let mut cache = DominanceCache::with_warm(Some(view.clone()));
        let mut stats = Stats::default();
        let mut metrics = QueryMetrics::new();
        let _ = cache.level_bounds_whole(db, q, id, 1, &mut stats, &mut metrics);
        let _ = cache.level_bounds_instance(db, q, id, 1, &mut stats, &mut metrics);
    }

    #[test]
    fn bound_table_stays_empty_until_a_bound_is_requested() {
        let db = Database::new((0..50).map(|i| obj(i as f64 * 3.0)).collect());
        let pool = WarmPool::new();
        let q = query();
        let view = pool.view_for(&db, &q);
        assert!(resident(&view.bounds.whole).is_empty());
        assert!(resident(&view.bounds.instance).is_empty());
        // Snapshot-pure entries do not populate the bound table either.
        let _ = view.quanta(&db, 7, &mut QueryMetrics::new());
        assert!(resident(&view.bounds.whole).is_empty());
        request_bounds(&db, &q, &view, 7);
        assert_eq!(resident(&view.bounds.whole), vec![7]);
        assert_eq!(resident(&view.bounds.instance), vec![7]);
        assert_eq!(view.bounds.filled(), 2);
    }

    /// An advance over a covered window carries exactly the resident,
    /// untouched ids of each bound table and counts every filled entry of
    /// the touched ones (snapshot-pure and bound slots alike) as evicted.
    #[test]
    fn advance_carries_untouched_resident_ids_and_evicts_touched_ones() {
        let idx = PublishedIndex::new(Database::new(
            (0..40).map(|i| obj(i as f64 * 3.0)).collect(),
        ));
        let pool = WarmPool::new();
        let q = query();
        let snap0 = idx.pin();
        let view0 = pool.view_for(snap0.as_ref(), &q);
        let resident_ids = [3usize, 9, 17, 25];
        for &id in &resident_ids {
            request_bounds(snap0.as_ref(), &q, &view0, id);
        }
        // Each resident id holds quanta + snapshot + 2 bound slots.
        let per_id = 4u64;
        assert_eq!(
            view0.cache().resident_entries(),
            per_id * resident_ids.len() as u64
        );
        let before = pool.stats().evictions;

        idx.update(9, obj(200.0)).expect("update");
        idx.delete(25).expect("delete");
        idx.delete(30).expect("delete of a never-cached id");
        let snap1 = idx.pin();
        let cache1 = pool.cache_for(snap1.as_ref());
        assert!(!Arc::ptr_eq(view0.cache(), &cache1));

        let map = lock(&cache1.bounds);
        let carried = map.get(&q.fingerprint()).expect("bound table carried");
        assert_eq!(resident(&carried.whole), vec![3, 17]);
        assert_eq!(resident(&carried.instance), vec![3, 17]);
        assert_eq!(carried.filled(), 4);
        drop(map);
        assert_eq!(pool.stats().evictions - before, 2 * per_id);
        assert_eq!(cache1.resident_entries(), 2 * per_id);
    }

    #[test]
    fn foreign_snapshot_forces_a_full_rebuild() {
        let a = Database::new(vec![obj(1.0)]);
        let b = Database::new(vec![obj(2.0)]); // unrelated chain, same epoch 0
        let pool = WarmPool::new();
        let q = query();
        let mut metrics = QueryMetrics::new();
        let va = pool.view_for(&a, &q);
        let _ = va.quanta(&a, 0, &mut metrics);
        let vb = pool.view_for(&b, &q);
        assert!(!Arc::ptr_eq(va.cache(), vb.cache()));
        let fresh = vb.quanta(&b, 0, &mut metrics);
        assert_eq!(fresh.len(), 3);
        assert_eq!(pool.stats().evictions, 1, "old entry counted as evicted");
    }
}
