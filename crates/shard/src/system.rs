//! [`ShardedBstSystem`]: the partitioned engine and its builder.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::HashKind;
use bst_core::error::BstError;
use bst_core::metrics::OpStats;
use bst_core::persistence::{self, PersistError, ShardManifest};
use bst_core::query::Query;
use bst_core::store::FilterId;
use bst_core::system::{BstConfig, BstSystem, BstSystemBuilder};
use bst_obs::{AtomicHistogram, Counter, Recorder, Tracer};
use bytes::{Buf, BufMut, BytesMut};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::query::{merge_weights, pick_shard, weigh, ShardQuery};
use crate::weight_cache::{
    filter_content_hash, CachedWeight, SlotKey, WeightCache, WeightCacheStats,
};

/// Magic bytes of a sharded-system snapshot.
const SHARD_MAGIC: &[u8; 4] = b"BSTH";

/// Shard boundaries for `shards` contiguous partitions of `[0, namespace)`:
/// `shards + 1` values, first 0, last `namespace`, widths within one of
/// each other. Every key belongs to exactly one `[b[s], b[s+1])` — the
/// routing rule [`ShardedBstSystem::shard_of`] implements (property-
/// tested in `tests/proptests.rs`).
///
/// # Panics
/// Panics unless `1 ≤ shards ≤ namespace` (the builder reports the same
/// condition as [`BstError::InvalidConfig`] instead).
pub fn shard_boundaries(namespace: u64, shards: usize) -> Vec<u64> {
    assert!(
        shards >= 1 && shards as u64 <= namespace,
        "shard count must satisfy 1 <= S <= namespace"
    );
    (0..=shards)
        .map(|i| ((i as u128 * namespace as u128) / shards as u128) as u64)
        .collect()
}

/// The machine's available parallelism (1 if unknown).
fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Mixes a batch seed with per-(shard, filter) coordinates so worker
/// scheduling cannot change which RNG stream serves which cell.
fn cell_seed(seed: u64, shard: u64, slot: u64) -> u64 {
    seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ slot.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Builder for a [`ShardedBstSystem`] — the same knobs as
/// [`bst_core::system::BstSystemBuilder`], plus the shard count. Every
/// shard is built from one shared plan, so filters and snapshots stay
/// interchangeable across shards.
pub struct ShardedBstSystemBuilder {
    namespace: u64,
    shards: usize,
    /// The per-shard builder every shard is cloned from; it owns the
    /// shared defaults.
    base: BstSystemBuilder,
    occupied: Option<Vec<u64>>,
}

impl ShardedBstSystemBuilder {
    fn new(namespace: u64) -> Self {
        ShardedBstSystemBuilder {
            namespace,
            shards: 4,
            base: BstSystem::builder(namespace),
            occupied: None,
        }
    }

    /// Number of shards `S` (default 4; must satisfy `1 ≤ S ≤ M`).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Target sampling accuracy in `(0, 1]` (drives the filter size `m`).
    pub fn accuracy(mut self, accuracy: f64) -> Self {
        self.base = self.base.accuracy(accuracy);
        self
    }

    /// Typical stored-set size the accuracy target refers to.
    pub fn expected_set_size(mut self, n: u64) -> Self {
        self.base = self.base.expected_set_size(n);
        self
    }

    /// Number of hash functions (paper default: 3).
    pub fn hash_count(mut self, k: usize) -> Self {
        self.base = self.base.hash_count(k);
        self
    }

    /// Hash family shared by every shard.
    pub fn hash_kind(mut self, kind: HashKind) -> Self {
        self.base = self.base.hash_kind(kind);
        self
    }

    /// Seed for the shared hash family.
    pub fn seed(mut self, seed: u64) -> Self {
        self.base = self.base.seed(seed);
        self
    }

    /// The full behaviour configuration (sampler + reconstructor).
    pub fn config(mut self, cfg: BstConfig) -> Self {
        self.base = self.base.config(cfg);
        self
    }

    /// Pins the tree depth instead of deriving it from the cost model.
    pub fn depth(mut self, depth: u32) -> Self {
        self.base = self.base.depth(depth);
        self
    }

    /// Restricts the initial occupancy to `occupied` (any order,
    /// duplicates allowed). Without this call every namespace id starts
    /// occupied. Occupancy keeps evolving later through
    /// [`ShardedBstSystem::insert_occupied`] /
    /// [`ShardedBstSystem::remove_occupied`].
    pub fn occupied<I: IntoIterator<Item = u64>>(mut self, occupied: I) -> Self {
        self.occupied = Some(occupied.into_iter().collect());
        self
    }

    /// Resolves the plan and constructs every shard.
    ///
    /// # Panics
    /// Panics on an invalid configuration; [`Self::try_build`] returns the
    /// typed error instead.
    pub fn build(self) -> ShardedBstSystem {
        match self.try_build() {
            Ok(system) => system,
            // bst-lint: allow(L001) — documented `# Panics` contract; try_build is the fallible API
            Err(e) => panic!("invalid ShardedBstSystem configuration: {e}"),
        }
    }

    /// [`Self::build`], reporting configuration problems as
    /// [`BstError::InvalidConfig`] instead of panicking.
    pub fn try_build(self) -> Result<ShardedBstSystem, BstError> {
        if self.namespace == 0 {
            return Err(BstError::InvalidConfig("namespace must be non-empty"));
        }
        if self.shards == 0 || self.shards as u64 > self.namespace {
            return Err(BstError::InvalidConfig(
                "shard count must satisfy 1 <= S <= namespace",
            ));
        }
        let boundaries = shard_boundaries(self.namespace, self.shards);
        let occupied = match self.occupied {
            Some(occ) => {
                let mut occ = occ;
                occ.sort_unstable();
                occ.dedup();
                if occ.last().is_some_and(|&last| last >= self.namespace) {
                    return Err(BstError::InvalidConfig("occupied id outside the namespace"));
                }
                occ
            }
            None => (0..self.namespace).collect(),
        };
        let mut shards = Vec::with_capacity(self.shards);
        let mut start = 0usize;
        for s in 0..self.shards {
            // Index walk over the intact sorted vec: draining per shard
            // would memmove the tail once per shard, O(M·S).
            let cut = start + occupied[start..].partition_point(|&x| x < boundaries[s + 1]);
            let mine = occupied[start..cut].iter().copied();
            start = cut;
            shards.push(self.base.clone().pruned(mine).try_build()?);
        }
        let shard_count = shards.len();
        Ok(ShardedBstSystem {
            shared: Arc::new(Shared {
                boundaries,
                shards,
                registry: RwLock::new(Registry {
                    next_id: 0,
                    map: BTreeMap::new(),
                }),
                weight_cache: WeightCache::new(shard_count),
                tracer: Tracer::disabled(),
                batch_obs: RwLock::new(None),
                cpus: cpu_count(),
            }),
        })
    }
}

/// Sharded filter ids → the per-shard store ids backing them.
struct Registry {
    next_id: u64,
    map: BTreeMap<u64, Vec<FilterId>>,
}

/// Metrics handles the two-phase batch path reports into once a serving
/// layer installs them ([`ShardedBstSystem::set_batch_obs`]). The
/// handles are plain `bst-obs` clones, so the installer keeps its own
/// copies registered on a [`bst_obs::MetricsRegistry`] — and can
/// re-install the same `Arc` into a replacement engine (a wire `LOAD`)
/// without losing continuity.
#[derive(Debug)]
pub struct BatchObs {
    /// Batches served through the two-phase scatter-gather.
    pub batches: Counter,
    /// Phase-1 (weighing) wall time per batch, microseconds. A warm
    /// batch over an unchanged filter population records ~0 here.
    pub weigh_us: AtomicHistogram,
    /// Phase-2 (sampling) wall time per batch, microseconds.
    pub sample_us: AtomicHistogram,
}

impl BatchObs {
    /// Fresh handles not yet registered anywhere (the installer
    /// registers clones under its own naming).
    pub fn unregistered() -> Self {
        BatchObs {
            batches: Counter::new(),
            weigh_us: AtomicHistogram::new(),
            sample_us: AtomicHistogram::new(),
        }
    }
}

struct Shared {
    /// `S + 1` ascending values; shard `s` owns `[b[s], b[s+1])`.
    boundaries: Vec<u64>,
    shards: Vec<BstSystem>,
    registry: RwLock<Registry>,
    /// Engine-level persistent per-(filter, shard) weight cache for the
    /// batch entry points (see [`crate::weight_cache`]).
    weight_cache: WeightCache,
    /// Engine-level tracing facade: batch spans go here; per-op spans go
    /// through each shard's own tracer (kept in lockstep by
    /// [`ShardedBstSystem::set_recorder`]).
    tracer: Tracer,
    /// Batch phase metrics, absent until a serving layer installs them.
    batch_obs: RwLock<Option<Arc<BatchObs>>>,
    /// Batch worker count for `threads == 0`, counted once per engine
    /// (the CPU count reads cgroup files on every call).
    cpus: usize,
}

/// A sharded BloomSampleTree engine over one namespace: `S` contiguous
/// shards, each a pruned-backend [`BstSystem`] sharing one plan, served
/// through scatter-gather queries whose merged results match a
/// single-tree system.
///
/// Cloning is an `Arc` bump; the handle is `Send + Sync`. Registered sets
/// span shards transparently: [`Self::create`] routes each key to its
/// owning shard and returns one sharded [`FilterId`] (its own id space —
/// distinct from the per-shard store ids it maps onto).
#[derive(Clone)]
pub struct ShardedBstSystem {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ShardedBstSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedBstSystem(M={}, shards={}, sets={})",
            self.namespace(),
            self.shard_count(),
            self.shared.registry.read().map.len()
        )
    }
}

impl ShardedBstSystem {
    /// Starts building a sharded system over `[0, namespace)`.
    pub fn builder(namespace: u64) -> ShardedBstSystemBuilder {
        ShardedBstSystemBuilder::new(namespace)
    }

    /// Number of shards `S`.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Shard boundaries: `S + 1` ascending values, first 0, last `M`.
    pub fn boundaries(&self) -> &[u64] {
        &self.shared.boundaries
    }

    /// Namespace size `M`.
    pub fn namespace(&self) -> u64 {
        self.shared.boundaries.last().copied().unwrap_or(0)
    }

    /// The shard owning `key`.
    ///
    /// # Panics
    /// Panics if `key` lies outside the namespace.
    pub fn shard_of(&self, key: u64) -> usize {
        assert!(key < self.namespace(), "key {key} outside the namespace");
        self.route(key)
    }

    /// The routing rule behind every key-addressed operation; callers
    /// validate `key < M` first.
    fn route(&self, key: u64) -> usize {
        self.shared.boundaries.partition_point(|&b| b <= key) - 1
    }

    /// The per-shard systems, in shard order (for introspection and
    /// benchmarks; all facade operations route automatically).
    pub fn shard_systems(&self) -> &[BstSystem] {
        &self.shared.shards
    }

    /// The behaviour configuration every shard runs.
    pub fn config(&self) -> BstConfig {
        self.shared.shards[0].config()
    }

    /// Stores a key set as a query Bloom filter valid against **every**
    /// shard (all shards share one plan and hash family).
    pub fn store<I: IntoIterator<Item = u64>>(&self, keys: I) -> BloomFilter {
        self.shared.shards[0].store(keys)
    }

    /// Splits `keys` by owning shard after validating the whole batch
    /// against the namespace (atomic: an out-of-range key rejects the
    /// batch before anything is applied anywhere).
    fn partition_keys<I: IntoIterator<Item = u64>>(
        &self,
        keys: I,
    ) -> Result<Vec<Vec<u64>>, BstError> {
        let namespace = self.namespace();
        let mut parts = vec![Vec::new(); self.shard_count()];
        for key in keys {
            if key >= namespace {
                return Err(BstError::KeyOutsideNamespace(key));
            }
            parts[self.route(key)].push(key);
        }
        Ok(parts)
    }

    /// Looks a sharded id up in the registry.
    fn backing_ids(&self, id: FilterId) -> Result<Vec<FilterId>, BstError> {
        self.shared
            .registry
            .read()
            .map
            .get(&id.raw())
            .cloned()
            .ok_or(BstError::UnknownFilterId(id))
    }

    // ------------------------------------------------------------------
    // The store facade: sets spanning shards, one sharded id each.
    // ------------------------------------------------------------------

    /// Registers a mutable set over `keys`: each key lands in its owning
    /// shard's store, and the whole span is addressed by one stable
    /// sharded [`FilterId`]. Keys outside the namespace are rejected
    /// atomically.
    pub fn create<I: IntoIterator<Item = u64>>(&self, keys: I) -> Result<FilterId, BstError> {
        let parts = self.partition_keys(keys)?;
        let mut per_shard = Vec::with_capacity(self.shard_count());
        for (sys, part) in self.shared.shards.iter().zip(parts) {
            per_shard.push(sys.create(part)?);
        }
        let mut registry = self.shared.registry.write();
        let id = registry.next_id;
        registry.next_id += 1;
        registry.map.insert(id, per_shard);
        Ok(FilterId::from_raw(id))
    }

    /// Inserts `keys` into the stored set, routing each to its owning
    /// shard (whose set generation bumps, invalidating open handles on
    /// that shard). Rejects the whole batch if any key lies outside the
    /// namespace.
    pub fn insert_keys<I: IntoIterator<Item = u64>>(
        &self,
        id: FilterId,
        keys: I,
    ) -> Result<(), BstError> {
        let parts = self.partition_keys(keys)?;
        let backing = self.backing_ids(id)?;
        for ((sys, fid), part) in self.shared.shards.iter().zip(&backing).zip(parts) {
            if !part.is_empty() {
                sys.insert_keys(*fid, part)?;
            }
        }
        Ok(())
    }

    /// Removes `keys` from the stored set (counting-filter semantics),
    /// routed like [`Self::insert_keys`].
    pub fn remove_keys<I: IntoIterator<Item = u64>>(
        &self,
        id: FilterId,
        keys: I,
    ) -> Result<(), BstError> {
        let parts = self.partition_keys(keys)?;
        let backing = self.backing_ids(id)?;
        for ((sys, fid), part) in self.shared.shards.iter().zip(&backing).zip(parts) {
            if !part.is_empty() {
                sys.remove_keys(*fid, part)?;
            }
        }
        Ok(())
    }

    /// Projects the whole stored span to one plain [`BloomFilter`]
    /// snapshot (the union of the per-shard projections — exactly the
    /// filter of the union, since all shards share one hash family).
    pub fn get(&self, id: FilterId) -> Result<BloomFilter, BstError> {
        let backing = self.backing_ids(id)?;
        let mut merged: Option<BloomFilter> = None;
        for (sys, fid) in self.shared.shards.iter().zip(&backing) {
            let part = sys.get(*fid)?;
            match &mut merged {
                None => merged = Some(part),
                Some(m) => m.union_with(&part),
            }
        }
        merged.ok_or(BstError::UnknownFilterId(id))
    }

    /// Unregisters a stored set everywhere; the sharded id is retired and
    /// open handles report [`BstError::UnknownFilterId`] from their next
    /// operation.
    pub fn drop_set(&self, id: FilterId) -> Result<(), BstError> {
        let backing = {
            let mut registry = self.shared.registry.write();
            registry
                .map
                .remove(&id.raw())
                .ok_or(BstError::UnknownFilterId(id))?
        };
        // Attempt every shard even if one fails (e.g. a backing set
        // dropped directly through shard_systems()): stopping early
        // would leak the remaining shards' sets with no id left to
        // reach them. The first error is still reported.
        let mut first_error = None;
        for (sys, fid) in self.shared.shards.iter().zip(&backing) {
            if let Err(e) = sys.drop_set(*fid) {
                first_error.get_or_insert(e);
            }
        }
        // Garbage-collect the retired id's weight-cache entry (sharded
        // ids are never reused, so this is hygiene, not invalidation).
        self.shared.weight_cache.remove_stored(id.raw());
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Number of registered (sharded) sets.
    pub fn len(&self) -> usize {
        self.shared.registry.read().map.len()
    }

    /// Whether no sets are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live sharded ids, ascending.
    pub fn ids(&self) -> Vec<FilterId> {
        self.shared
            .registry
            .read()
            .map
            .keys()
            .map(|&raw| FilterId::from_raw(raw))
            .collect()
    }

    // ------------------------------------------------------------------
    // The persistent weight cache (batch phase-1 amortization).
    // ------------------------------------------------------------------

    /// Whether the engine-level persistent weight cache is enabled (the
    /// default; see [`Self::set_weight_cache`]).
    pub fn weight_cache_enabled(&self) -> bool {
        self.shared.weight_cache.enabled()
    }

    /// Enables or bypasses the persistent weight cache at runtime.
    /// Disabling also clears it and resets its effectiveness counters,
    /// so batches after a later re-enable start cold — and bypassed
    /// batches always produce exactly what cached ones would, since
    /// cached weights equal recomputed ones (pinned in
    /// `tests/e2e_shard.rs`). Bypass exists for A/B measurement and for
    /// pinning cached ≡ uncached outputs in tests.
    pub fn set_weight_cache(&self, enabled: bool) {
        self.shared.weight_cache.set_enabled(enabled);
    }

    /// Hit/miss/repair counters of the persistent weight cache since
    /// construction or the last bypass — a warm repeated batch shows
    /// `S × slots` new hits and no new misses.
    pub fn weight_cache_stats(&self) -> WeightCacheStats {
        self.shared.weight_cache.stats()
    }

    /// Clones of the weight cache's `(hits, misses, repairs)` counter
    /// handles, for registration on a [`bst_obs::MetricsRegistry`].
    /// They share cells with the cache itself, so registered series and
    /// [`Self::weight_cache_stats`] always agree — including across the
    /// reset a [`Self::set_weight_cache`] bypass performs.
    pub fn weight_cache_counters(&self) -> (Counter, Counter, Counter) {
        self.shared.weight_cache.counters()
    }

    // ------------------------------------------------------------------
    // Observability (the `bst-obs` wiring).
    // ------------------------------------------------------------------

    /// The engine-level tracing facade (batch spans). Disabled by
    /// default; install a recorder with [`Self::set_recorder`].
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Installs (or with `None`, removes) one span recorder everywhere:
    /// the engine's own batch spans and every shard's per-op core spans
    /// report into it.
    pub fn set_recorder(&self, recorder: Option<Arc<dyn Recorder>>) {
        for sys in &self.shared.shards {
            sys.set_recorder(recorder.clone());
        }
        self.shared.tracer.set_recorder(recorder);
    }

    /// Installs (or with `None`, removes) the batch phase metrics sink
    /// the two-phase scatter reports into. The installer keeps its own
    /// clones of the handles (they are `Arc`-backed), so the same
    /// [`BatchObs`] can be re-installed into a replacement engine.
    pub fn set_batch_obs(&self, obs: Option<Arc<BatchObs>>) {
        *self.shared.batch_obs.write() = obs;
    }

    /// The installed batch phase metrics sink, if any.
    pub fn batch_obs(&self) -> Option<Arc<BatchObs>> {
        self.shared.batch_obs.read().clone()
    }

    /// Introspection/test hook: the cached per-shard weight cells for a
    /// stored sharded id, in shard order, if the cache holds an entry
    /// for it. Cells may be stale (lazy invalidation); their stamps say
    /// which state they reflect.
    pub fn cached_weights(&self, id: FilterId) -> Option<Vec<Option<CachedWeight>>> {
        self.shared.weight_cache.stored_cells(id.raw())
    }

    /// [`Self::cached_weights`] for an interned ad-hoc filter.
    pub fn cached_weights_for(&self, filter: &BloomFilter) -> Option<Vec<Option<CachedWeight>>> {
        self.shared.weight_cache.adhoc_cells(filter)
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// Opens a scatter-gather handle on a detached filter: every shard
    /// receives the same filter (valid everywhere — shared plan), and
    /// per-shard descent state accumulates independently.
    pub fn query(&self, filter: &BloomFilter) -> ShardQuery {
        let handles = self
            .shared
            .shards
            .iter()
            .map(|sys| sys.query(filter))
            .collect();
        ShardQuery::new(None, self.shared.boundaries.clone(), handles)
    }

    /// Opens a scatter-gather handle on a stored set: one generation-
    /// stamped per-shard handle each, so both store-churn and
    /// occupancy-churn staleness protocols apply per shard.
    pub fn query_id(&self, id: FilterId) -> Result<ShardQuery, BstError> {
        let backing = self.backing_ids(id)?;
        let mut handles = Vec::with_capacity(backing.len());
        for (sys, fid) in self.shared.shards.iter().zip(&backing) {
            handles.push(sys.query_id(*fid)?);
        }
        Ok(ShardQuery::new(
            Some(id),
            self.shared.boundaries.clone(),
            handles,
        ))
    }

    /// Draws one sample per query filter via a **two-phase** scatter over
    /// a crossbeam worker pool (`threads` workers; 0 = one per CPU,
    /// counted once per engine; capped at the `shards × filters` cell
    /// count — so a low-shard engine still spreads a wide batch across
    /// every requested worker). Phase 1 consults the engine's
    /// **persistent weight cache** first (each filter interned by content
    /// hash) and dispatches weighing work only for missing or stale
    /// (shard, filter) cells — a warm repeated batch over an unchanged
    /// filter population skips phase 1 entirely; the gather step picks
    /// one shard per filter proportionally to the weights; phase 2 then
    /// samples **only the chosen cells**, reusing any handles phase 1
    /// warmed (a cache-hit cell opens a fresh one: ad-hoc batches retain
    /// no handles) — ~S× less sampling work than sampling speculatively
    /// on every shard. Results align with `filters`; per-cell RNG
    /// seeding keeps the output deterministic for a fixed `seed`
    /// regardless of `threads`, and bit-identical whether weights came
    /// from the cache or a fresh walk.
    pub fn query_batch(
        &self,
        filters: &[BloomFilter],
        seed: u64,
        threads: usize,
    ) -> (Vec<Result<u64, BstError>>, OpStats) {
        let keys: Vec<Option<SlotKey<'_>>> = filters
            .iter()
            .map(|f| {
                Some(SlotKey::Adhoc {
                    hash: filter_content_hash(f),
                    filter: f,
                })
            })
            .collect();
        let (results, stats, _) =
            self.scatter_gather(filters.len(), seed, threads, &keys, |_, sys, slot| {
                Ok(Some(sys.query(&filters[slot])))
            });
        (results, stats)
    }

    /// [`Self::query_batch`] addressed by sharded store id (weight-cache
    /// entries are keyed by the id itself — no filter hashing). An
    /// unknown/dropped id yields `Err(UnknownFilterId)` for its slot
    /// without failing the rest of the batch.
    ///
    /// The per-shard handles of the batch's stored slots are **retained
    /// until the next id batch**, which samples its chosen cache-hit
    /// cells from them instead of opening cold ones (see
    /// [`crate::weight_cache`]). Draws are unchanged — a warm handle
    /// draws exactly what a cold one would — only `OpStats` fall.
    pub fn query_batch_ids(
        &self,
        ids: &[FilterId],
        seed: u64,
        threads: usize,
    ) -> (Vec<Result<u64, BstError>>, OpStats) {
        // Resolve the registry once; missing ids keep a None slot.
        let backing: Vec<Option<Vec<FilterId>>> = {
            let registry = self.shared.registry.read();
            ids.iter()
                .map(|id| registry.map.get(&id.raw()).cloned())
                .collect()
        };
        let keys: Vec<Option<SlotKey<'_>>> = ids
            .iter()
            .zip(&backing)
            .map(|(id, fids)| {
                fids.as_ref().map(|fids| SlotKey::Stored {
                    raw: id.raw(),
                    fids,
                })
            })
            .collect();
        let (mut results, stats, handles) =
            self.scatter_gather(ids.len(), seed, threads, &keys, |shard, sys, slot| {
                match backing[slot].as_ref() {
                    None => Ok(None),
                    // A per-shard open failure (e.g. the backing set was
                    // dropped directly on a shard system) is a hard
                    // error for the slot, not a silent dead shard.
                    Some(fids) => sys.query_id(fids[shard]).map(Some),
                }
            });
        for (slot, id) in ids.iter().enumerate() {
            if backing[slot].is_none() {
                results[slot] = Err(BstError::UnknownFilterId(*id));
            }
        }
        // Duplicate ids share the first slot's handle from here on.
        let shard_count = self.shard_count();
        let mut retained = HashMap::new();
        for (cell, handle) in handles.into_iter().enumerate() {
            if let Some(handle) = handle {
                let key = (ids[cell / shard_count].raw(), cell % shard_count);
                retained.entry(key).or_insert(handle);
            }
        }
        self.shared.weight_cache.retain(retained);
        (results, stats)
    }

    /// The shared **two-phase** scatter engine behind both batch entry
    /// points: `open(shard, sys, slot)` yields the per-shard handle for a
    /// slot: `Ok(None)` marks the slot dead on every shard (the caller
    /// patches its error in), `Err(e)` is a hard per-slot failure the
    /// gather step propagates. `keys[slot]` names the slot in the
    /// persistent weight cache (`None` = uncacheable, e.g. an unknown
    /// id).
    ///
    /// Phase 0 probes the weight cache for every (shard, slot) cell;
    /// hits (stamps current, possibly after a journal-repair delta) fill
    /// their grid cell with no filter work at all, and a stored hit
    /// takes the handle the last id batch retained for it, if any.
    /// Phase 1 weighs only the missing cells — no sampling — with the
    /// worker pool chunked over the *miss list* of the flattened cell
    /// grid, so even an S=1 engine parallelises a wide cold batch, and a
    /// fully warm batch spawns no weighing workers at all; fresh weights
    /// are written back to the cache. The gather step merges errors and
    /// picks one shard per slot from the weights; phase 2 samples only
    /// the chosen cells, from the handle phase 0 or phase 1 left in the
    /// cell, opening a fresh one only where there is none
    /// (warm-equals-cold keeps the draw identical either way). Per-cell
    /// seeding makes the result identical to the old one-phase scatter
    /// for the same `seed`, independent of worker placement and of the
    /// cache state.
    ///
    /// Returns the results, the merged `OpStats` and the handle grid
    /// (slot-major, `cell = slot * S + shard`), which holds every handle
    /// the batch used for a stored slot, for
    /// [`Self::query_batch_ids`] to retain.
    fn scatter_gather(
        &self,
        slots: usize,
        seed: u64,
        threads: usize,
        keys: &[Option<SlotKey<'_>>],
        open: impl Fn(usize, &BstSystem, usize) -> Result<Option<Query>, BstError> + Sync,
    ) -> (Vec<Result<u64, BstError>>, OpStats, HandleGrid) {
        let shard_count = self.shard_count();
        if slots == 0 {
            return (Vec::new(), OpStats::new(), Vec::new());
        }
        // Observability: both reads are one uncontended lock/atomic each
        // and resolve to `None` until a serving layer installs sinks.
        let obs = self.shared.batch_obs.read().clone();
        let span = self.shared.tracer.start();
        let cells = shard_count * slots;
        let workers = match threads {
            0 => self.shared.cpus,
            n => n,
        }
        .clamp(1, cells);

        // Phase 0: probe the persistent cache, one slot (= all S of its
        // cells) per call so the entry lookup and the ad-hoc collision
        // guard are paid once per slot. The grid is slot-major (cell
        // c = slot * S + shard), so a slot's outcomes form one slice; a
        // cell's outcome is its weight outcome, with dead and zero-weight
        // cells as Ok(0). A stored hit carries the handle the last id
        // batch retained for it (if any); misses are collected for
        // weighing.
        let cache = &self.shared.weight_cache;
        let shards = &self.shared.shards;
        let mut outcomes: Vec<Result<u64, BstError>> = vec![Ok(0); cells];
        let mut warmed: HandleGrid = vec![None; cells];
        let mut missing: Vec<usize> = Vec::new();
        for (slot, key) in keys.iter().enumerate() {
            let served = key.as_ref().map(|key| cache.probe_slot(shards, key));
            for shard in 0..shard_count {
                let cell = slot * shard_count + shard;
                match served.as_ref().and_then(|row| row[shard]) {
                    Some(outcome) => {
                        outcomes[cell] = outcome;
                        if let Some(SlotKey::Stored { raw, .. }) = key {
                            warmed[cell] = cache.retained(*raw, shard);
                        }
                    }
                    None => missing.push(cell),
                }
            }
        }
        let mut stats = OpStats::new();

        // Phase 1: weigh only the missing cells, chunked across the pool.
        let weigh_started = obs.as_ref().map(|_| std::time::Instant::now());
        if !missing.is_empty() {
            let weigh_workers = workers.min(missing.len());
            let chunk = missing.len().div_ceil(weigh_workers);
            type WeighedPart = Vec<(usize, WeighedCell)>;
            let mut weighed: Vec<(usize, WeighedPart, OpStats)> = crossbeam::scope(|scope| {
                let mut handles = Vec::new();
                for (w, batch) in missing.chunks(chunk).enumerate() {
                    let open = &open;
                    handles.push(scope.spawn(move |_| {
                        let mut stats = OpStats::new();
                        let mut part = Vec::with_capacity(batch.len());
                        for &cell in batch {
                            let (slot, shard) = (cell / shard_count, cell % shard_count);
                            let weighed = weigh_cell(open(shard, &shards[shard], slot), &mut stats);
                            part.push((cell, weighed));
                        }
                        (w, part, stats)
                    }));
                }
                handles
                    .into_iter()
                    // bst-lint: allow(L001) — a worker panic must propagate, not be swallowed
                    .map(|h| h.join().expect("cell worker panicked"))
                    .collect()
            })
            // bst-lint: allow(L001) — scope fails only if a child panicked; propagate
            .expect("crossbeam scope failed");
            weighed.sort_by_key(|(w, _, _)| *w);
            for (_, part, worker_stats) in weighed {
                stats += worker_stats;
                for (cell, (outcome, handle, stamped)) in part {
                    let (slot, shard) = (cell / shard_count, cell % shard_count);
                    // Write-back happens on the gather thread, keeping
                    // the weighing workers free of cache-lock traffic.
                    if let (Some(key), Some(stamped)) = (keys[slot].as_ref(), stamped) {
                        cache.fill(shard, key, stamped);
                    }
                    outcomes[cell] = outcome;
                    warmed[cell] = handle;
                }
            }
        }
        if let (Some(obs), Some(t0)) = (obs.as_ref(), weigh_started) {
            // Recorded even for fully-warm batches: a ~0 µs weighing
            // phase *is* the cache working.
            obs.weigh_us.record(t0.elapsed().as_secs_f64() * 1e6);
        }

        // Gather: per slot, merge the outcomes and pick a shard with the
        // same policy as the ShardQuery handle. Chosen cells hand their
        // handle to phase 2 (a hit the last id batch retained nothing
        // for has none; phase 2 opens one on demand). Only stored slots'
        // handles outlive the gather; ad-hoc ones are done after
        // weighing.
        let mut results: Vec<Result<u64, BstError>> = Vec::with_capacity(slots);
        let mut chosen: Vec<(usize, usize, Option<Arc<Query>>)> = Vec::new();
        let mut retained_cells = 0u64;
        for (slot, column) in outcomes.chunks(shard_count).enumerate() {
            let row = &mut warmed[slot * shard_count..(slot + 1) * shard_count];
            let picked = merge_weights(column).and_then(|total| {
                let mut rng = StdRng::seed_from_u64(cell_seed(seed, u64::MAX, slot as u64));
                pick_shard(column, rng.gen_range(0..total)).ok_or(BstError::NoLiveLeaf)
            });
            match picked {
                Ok(shard) => {
                    // A hit's handle can only have come from retention.
                    let hit = missing
                        .binary_search(&(slot * shard_count + shard))
                        .is_err();
                    if hit && row[shard].is_some() {
                        retained_cells += 1;
                    }
                    chosen.push((slot, shard, row[shard].clone()));
                    // Placeholder; phase 2 overwrites it.
                    results.push(Err(BstError::NoLiveLeaf));
                }
                Err(e) => results.push(Err(e)),
            }
            if !retains(&keys[slot]) {
                row.fill(None);
            }
        }

        // Phase 2: sample only the chosen cells, on the pool again. Each
        // cell's RNG stream depends on its (shard, slot) coordinates
        // alone, so placement cannot change a draw — and a retained or
        // freshly opened handle draws exactly what a phase-1-warmed one
        // would (warm-equals-cold).
        let sample_started = obs.as_ref().map(|_| std::time::Instant::now());
        if !chosen.is_empty() {
            let workers = workers.min(chosen.len());
            let chunk = chosen.len().div_ceil(workers);
            let sampled: Vec<Vec<SampledCell>> = crossbeam::scope(|scope| {
                let mut handles = Vec::new();
                for batch in chosen.chunks(chunk) {
                    let open = &open;
                    handles.push(scope.spawn(move |_| {
                        batch
                            .iter()
                            .map(|&(slot, shard, ref handle)| {
                                let cell = slot * shard_count + shard;
                                let mut rng = StdRng::seed_from_u64(cell_seed(
                                    seed,
                                    shard as u64,
                                    slot as u64,
                                ));
                                // A hit with no handle opens one now. A
                                // hard open failure (the backing set
                                // vanished mid-batch) is the slot's typed
                                // error, exactly as phase 1 would have
                                // reported it.
                                let (handle, opened) = match handle {
                                    Some(handle) => (Arc::clone(handle), false),
                                    None => match open(shard, &shards[shard], slot) {
                                        Ok(Some(handle)) => (Arc::new(handle), true),
                                        Ok(None) => {
                                            return (
                                                cell,
                                                Err(BstError::NoLiveLeaf),
                                                OpStats::new(),
                                                None,
                                            )
                                        }
                                        Err(e) => return (cell, Err(e), OpStats::new(), None),
                                    },
                                };
                                let out = handle.sample(&mut rng);
                                let stats = handle.take_stats();
                                let keep = opened && retains(&keys[slot]);
                                (cell, out, stats, keep.then_some(handle))
                            })
                            .collect()
                    }));
                }
                handles
                    .into_iter()
                    // bst-lint: allow(L001) — a worker panic must propagate, not be swallowed
                    .map(|h| h.join().expect("sample worker panicked"))
                    .collect()
            })
            // bst-lint: allow(L001) — scope fails only if a child panicked; propagate
            .expect("crossbeam scope failed");
            for (cell, out, sample_stats, opened) in sampled.into_iter().flatten() {
                results[cell / shard_count] = out;
                stats += sample_stats;
                if opened.is_some() {
                    warmed[cell] = opened;
                }
            }
        }
        if let Some(obs) = obs.as_ref() {
            if let Some(t0) = sample_started {
                obs.sample_us.record(t0.elapsed().as_secs_f64() * 1e6);
            }
            obs.batches.inc();
        }
        self.shared.tracer.record(
            "bst.shard.batch",
            span,
            &[
                ("slots", slots as u64),
                ("weighed_cells", missing.len() as u64),
                ("sampled_cells", chosen.len() as u64),
                ("retained_cells", retained_cells),
                ("intersections", stats.intersections),
                ("memberships", stats.memberships),
            ],
        );
        (results, stats, warmed)
    }

    // ------------------------------------------------------------------
    // Namespace occupancy (§5.2), routed to the owning shard.
    // ------------------------------------------------------------------

    /// Marks `key` occupied in its owning shard (bumping that shard's
    /// tree generation when the occupancy actually changed). Returns the
    /// owning shard's resulting tree generation.
    pub fn insert_occupied(&self, key: u64) -> Result<u64, BstError> {
        if key >= self.namespace() {
            return Err(BstError::KeyOutsideNamespace(key));
        }
        self.shared.shards[self.route(key)].insert_occupied(key)
    }

    /// Removes `key` from its owning shard's occupied set. Returns the
    /// owning shard's resulting tree generation.
    pub fn remove_occupied(&self, key: u64) -> Result<u64, BstError> {
        if key >= self.namespace() {
            return Err(BstError::KeyOutsideNamespace(key));
        }
        self.shared.shards[self.route(key)].remove_occupied(key)
    }

    /// Whether `key` is an occupied namespace element.
    pub fn contains_occupied(&self, key: u64) -> bool {
        key < self.namespace() && self.shared.shards[self.route(key)].contains_occupied(key)
    }

    /// Total occupied ids across all shards.
    pub fn occupied_count(&self) -> u64 {
        self.shared.shards.iter().map(|s| s.occupied_count()).sum()
    }

    /// All occupied ids, ascending (shards are range-ordered, so this is
    /// a concatenation).
    pub fn occupied_ids(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.occupied_count() as usize);
        for sys in &self.shared.shards {
            out.extend(sys.occupied_ids());
        }
        out
    }

    /// Whether every shard's maintained subtree weights match a
    /// from-scratch recount (the property suites' ground truth;
    /// `O(total nodes)`).
    pub fn weights_consistent(&self) -> bool {
        self.shared.shards.iter().all(|s| s.weights_consistent())
    }

    // ------------------------------------------------------------------
    // Whole-engine persistence.
    // ------------------------------------------------------------------

    /// Serializes the entire sharded engine — boundaries, the sharded id
    /// registry, and every shard's whole-system snapshot — into one
    /// buffer. Byte-deterministic for a given engine state.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(SHARD_MAGIC);
        buf.put_u8(persistence::VERSION);
        let manifest = {
            let registry = self.shared.registry.read();
            ShardManifest {
                boundaries: self.shared.boundaries.clone(),
                next_id: registry.next_id,
                // BTreeMap iterates ascending: deterministic bytes.
                entries: registry
                    .map
                    .iter()
                    .map(|(&id, fids)| (id, fids.iter().map(|f| f.raw()).collect()))
                    .collect(),
            }
        };
        persistence::put_shard_manifest(&mut buf, &manifest);
        for sys in &self.shared.shards {
            let payload = sys.to_bytes();
            buf.put_u64_le(payload.len() as u64);
            buf.put_slice(&payload);
        }
        buf.to_vec()
    }

    /// Restores an engine serialized with [`Self::to_bytes`]: the same
    /// boundaries, shards, stored spans and sharded ids, so scatter-
    /// gather results match the original for the same RNG state.
    pub fn from_bytes(input: &[u8]) -> Result<Self, BstError> {
        let mut input = input;
        persistence::check_header(&mut input, SHARD_MAGIC)?;
        let manifest = persistence::get_shard_manifest(&mut input)?;
        let namespace = match manifest.boundaries.last() {
            Some(&m) => m,
            None => {
                return Err(BstError::Persist(PersistError::Corrupt(
                    "shard manifest has no boundaries",
                )))
            }
        };
        let shard_count = manifest.boundaries.len() - 1;
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            if input.remaining() < 8 {
                return Err(PersistError::Truncated.into());
            }
            let len = input.get_u64_le() as usize;
            if input.remaining() < len {
                return Err(PersistError::Truncated.into());
            }
            let sys = BstSystem::from_bytes(&input[..len])?;
            input.advance(len);
            if sys.tree().namespace() != namespace || !sys.tree().is_pruned() {
                return Err(BstError::Persist(PersistError::Corrupt(
                    "shard system does not match the manifest",
                )));
            }
            // Routing invariant: a shard may only occupy its own range
            // (occupied_ids is ascending, so the extremes suffice) — a
            // snapshot violating it would mis-route every key-addressed
            // operation after restore.
            let s = shards.len();
            let occ = sys.occupied_ids();
            if occ.first().zip(occ.last()).is_some_and(|(&lo, &hi)| {
                lo < manifest.boundaries[s] || hi >= manifest.boundaries[s + 1]
            }) {
                return Err(BstError::Persist(PersistError::Corrupt(
                    "shard occupancy outside its boundary range",
                )));
            }
            shards.push(sys);
        }
        if !input.is_empty() {
            return Err(BstError::Persist(PersistError::Corrupt(
                "trailing bytes after sharded snapshot",
            )));
        }
        if let Some(first) = shards.first() {
            if shards
                .iter()
                .any(|s| s.tree().plan() != first.tree().plan())
            {
                return Err(BstError::Persist(PersistError::Corrupt(
                    "shards disagree on the tree plan",
                )));
            }
            if shards.iter().any(|s| s.config() != first.config()) {
                return Err(BstError::Persist(PersistError::Corrupt(
                    "shards disagree on the configuration",
                )));
            }
        }
        let mut map = BTreeMap::new();
        for (id, raw_fids) in manifest.entries {
            let fids: Vec<FilterId> = raw_fids.into_iter().map(FilterId::from_raw).collect();
            for (sys, fid) in shards.iter().zip(&fids) {
                if sys.filters().generation(*fid).is_err() {
                    return Err(BstError::Persist(PersistError::Corrupt(
                        "manifest references a missing per-shard set",
                    )));
                }
            }
            map.insert(id, fids);
        }
        let shard_count = shards.len();
        Ok(ShardedBstSystem {
            shared: Arc::new(Shared {
                boundaries: manifest.boundaries,
                shards,
                registry: RwLock::new(Registry {
                    next_id: manifest.next_id,
                    map,
                }),
                // The cache is derived state and never persisted; a
                // restored engine starts cold and enabled.
                weight_cache: WeightCache::new(shard_count),
                // Observability wiring is process state, not snapshot
                // state: the installer re-attaches after a restore.
                tracer: Tracer::disabled(),
                batch_obs: RwLock::new(None),
                cpus: cpu_count(),
            }),
        })
    }
}

/// A batch's per-cell handles, slot-major (`cell = slot * S + shard`).
type HandleGrid = Vec<Option<Arc<Query>>>;

/// One phase-2 outcome: `(cell, sample, stats drained from the handle,
/// the handle phase 2 opened if the batch keeps it)`.
type SampledCell = (usize, Result<u64, BstError>, OpStats, Option<Arc<Query>>);

/// One phase-1 cell: `(weight outcome, warmed handle, stamped cache cell)`.
type WeighedCell = (
    Result<u64, BstError>,
    Option<Arc<Query>>,
    Option<CachedWeight>,
);

/// Whether a slot's handles outlive its batch: only stored slots' do
/// ([`ShardedBstSystem::query_batch_ids`] retains them).
fn retains(key: &Option<SlotKey<'_>>) -> bool {
    matches!(key, Some(SlotKey::Stored { .. }))
}

/// Weighs one (shard, slot) cell — phase 1 does **no** sampling. Returns
/// the cell's weight outcome (a dead slot weighs `Ok(0)`; slot-level
/// errors such as unknown sharded ids are patched in by the caller), the
/// warmed handle phase 2 samples from if the cell is chosen, and the
/// stamped cell for the weight cache.
fn weigh_cell(handle: Result<Option<Query>, BstError>, stats: &mut OpStats) -> WeighedCell {
    match handle {
        // A hard per-shard open failure: the gather step propagates it.
        Err(e) => (Err(e), None, None),
        Ok(None) => (Ok(0), None, None),
        Ok(Some(handle)) => {
            let (outcome, stamped) = weigh(&handle);
            *stats += handle.take_stats();
            (outcome, Some(Arc::new(handle)), stamped)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(shards: usize) -> ShardedBstSystem {
        ShardedBstSystem::builder(8_192)
            .shards(shards)
            .expected_set_size(200)
            .seed(9)
            .build()
    }

    #[test]
    fn boundaries_partition_the_namespace() {
        for (namespace, shards) in [(8_192u64, 4usize), (1_000, 7), (5, 5), (1, 1)] {
            let b = shard_boundaries(namespace, shards);
            assert_eq!(b.len(), shards + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), namespace);
            assert!(b.windows(2).all(|w| w[0] < w[1]), "{namespace}/{shards}");
        }
    }

    #[test]
    fn shard_of_is_total_and_consistent() {
        let sys = ShardedBstSystem::builder(1_000)
            .shards(7)
            .expected_set_size(50)
            .build();
        let b = sys.boundaries().to_vec();
        for key in 0..1_000u64 {
            let s = sys.shard_of(key);
            assert!(b[s] <= key && key < b[s + 1], "key {key} shard {s}");
        }
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(matches!(
            ShardedBstSystem::builder(100).shards(0).try_build(),
            Err(BstError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedBstSystem::builder(4).shards(5).try_build(),
            Err(BstError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedBstSystem::builder(0).try_build(),
            Err(BstError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedBstSystem::builder(100)
                .shards(2)
                .occupied([100u64])
                .try_build(),
            Err(BstError::InvalidConfig(_))
        ));
    }

    #[test]
    fn shards_share_one_plan_and_split_occupancy() {
        let occ: Vec<u64> = (0..8_192u64).step_by(3).collect();
        let sys = ShardedBstSystem::builder(8_192)
            .shards(4)
            .expected_set_size(200)
            .seed(9)
            .occupied(occ.iter().copied())
            .build();
        let plan = sys.shard_systems()[0].tree().plan().clone();
        let mut total = 0;
        for (s, shard) in sys.shard_systems().iter().enumerate() {
            assert_eq!(shard.tree().plan(), &plan, "shard {s}");
            assert!(shard.tree().is_pruned());
            let ids = shard.occupied_ids();
            for id in &ids {
                assert_eq!(sys.shard_of(*id), s, "id {id} in wrong shard");
            }
            total += ids.len();
        }
        assert_eq!(total, occ.len());
        assert_eq!(sys.occupied_ids(), occ);
        assert_eq!(sys.occupied_count(), occ.len() as u64);
    }

    #[test]
    fn store_lifecycle_spans_shards() {
        let sys = engine(4);
        let keys: Vec<u64> = (0..300u64).map(|i| i * 27 % 8_192).collect();
        let id = sys.create(keys.iter().copied()).expect("create");
        assert_eq!(sys.len(), 1);
        assert_eq!(sys.ids(), vec![id]);
        let merged = sys.get(id).expect("get");
        for k in &keys {
            assert!(merged.contains(*k));
        }
        sys.insert_keys(id, [8_191u64]).expect("insert");
        sys.remove_keys(id, [0u64]).expect("remove");
        let rec = sys.query_id(id).expect("open").reconstruct().expect("rec");
        assert!(rec.binary_search(&8_191).is_ok());
        assert!(rec.binary_search(&0).is_err());
        // Atomic namespace validation.
        assert_eq!(
            sys.insert_keys(id, [5u64, 9_000]),
            Err(BstError::KeyOutsideNamespace(9_000))
        );
        sys.drop_set(id).expect("drop");
        assert_eq!(sys.get(id).unwrap_err(), BstError::UnknownFilterId(id));
        assert_eq!(sys.query_id(id).err(), Some(BstError::UnknownFilterId(id)));
        assert!(sys.is_empty());
        // Sharded ids are never reused.
        let id2 = sys.create([1u64]).expect("create");
        assert!(id2.raw() > id.raw());
    }

    #[test]
    fn detached_query_samples_and_reconstructs_across_shards() {
        let sys = engine(4);
        // Keys deliberately clustered into two shards.
        let keys: Vec<u64> = (100..200u64).chain(6_000..6_080).collect();
        let filter = sys.store(keys.iter().copied());
        let q = sys.query(&filter);
        // Full default occupancy: the positive set is the stored keys
        // plus Bloom false positives, exactly as on a dense single tree.
        let rec = q.reconstruct().expect("rec");
        assert!(rec.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        for k in &keys {
            assert!(rec.binary_search(k).is_ok(), "missing key {k}");
        }
        for x in &rec {
            assert!(filter.contains(*x), "non-positive {x}");
        }
        assert_eq!(q.live_weight(), Ok(rec.len() as u64));
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..200 {
            let s = q.sample(&mut rng).expect("sample");
            assert!(rec.binary_search(&s).is_ok(), "non-positive {s}");
            seen_low |= s < 4_096;
            seen_high |= s >= 4_096;
        }
        assert!(seen_low && seen_high, "both shards must serve samples");
        let many = q.sample_many(100, &mut rng).expect("many");
        assert!(!many.is_empty());
        for s in &many {
            assert!(rec.binary_search(s).is_ok());
        }
        // Range reconstruction clips to shard windows.
        assert_eq!(
            q.reconstruct_range(150..6_040).expect("range"),
            rec.iter()
                .copied()
                .filter(|&k| (150..6_040).contains(&k))
                .collect::<Vec<_>>()
        );
        assert_eq!(q.reconstruct_range(10..10).expect("empty"), vec![]);
    }

    #[test]
    fn empty_filters_and_unknown_ids_are_typed() {
        let sys = engine(2);
        let empty = sys.store(std::iter::empty());
        let q = sys.query(&empty);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(q.sample(&mut rng), Err(BstError::EmptyFilter));
        assert_eq!(q.reconstruct(), Err(BstError::EmptyFilter));
        assert_eq!(q.live_weight(), Err(BstError::EmptyFilter));
        let ghost = FilterId::from_raw(77);
        assert_eq!(
            sys.query_id(ghost).err(),
            Some(BstError::UnknownFilterId(ghost))
        );
        assert_eq!(sys.drop_set(ghost), Err(BstError::UnknownFilterId(ghost)));

        // The batch path types each failing slot exactly as a handle on
        // the same target does, and still serves the other slots.
        let foreign = ShardedBstSystem::builder(8_192)
            .shards(2)
            .expected_set_size(200)
            .seed(10)
            .build()
            .store([1u64, 2, 3]);
        let keys = |i: u64| (0..40u64).map(move |j| (i * 631 + j * 29) % 8_192);
        let filters = vec![empty, sys.store(keys(0)), foreign, sys.store(keys(1))];
        let (results, _) = sys.query_batch(&filters, 3, 2);
        let dropped = sys.create(keys(2)).expect("create");
        sys.drop_set(dropped).expect("drop");
        let ids = [
            sys.create(keys(3)).expect("create"),
            sys.create(std::iter::empty()).expect("create"),
            dropped,
        ];
        let (by_id, _) = sys.query_batch_ids(&ids, 3, 2);
        let mut handle_sample =
            |q: Result<ShardQuery, BstError>| q.and_then(|q| q.sample(&mut rng)).err();
        for (slot, expected) in [
            (0, BstError::EmptyFilter),
            (2, BstError::IncompatibleFilter),
        ] {
            assert_eq!(results[slot], Err(expected));
            assert_eq!(handle_sample(Ok(sys.query(&filters[slot]))), Some(expected));
        }
        for (slot, expected) in [
            (1, BstError::EmptyFilter),
            (2, BstError::UnknownFilterId(dropped)),
        ] {
            assert_eq!(by_id[slot], Err(expected));
            assert_eq!(handle_sample(sys.query_id(ids[slot])), Some(expected));
        }
        for (filter, slot) in [(&filters[1], results[1]), (&filters[3], results[3])] {
            assert!(filter.contains(slot.expect("sample")));
        }
        assert!(sys
            .get(ids[0])
            .expect("get")
            .contains(by_id[0].expect("sample")));
    }

    #[test]
    fn query_batch_aligns_and_is_thread_deterministic() {
        let sys = engine(4);
        let filters: Vec<BloomFilter> = (0..9)
            .map(|i| sys.store((0..60u64).map(|j| (i * 997 + j * 13) % 8_192)))
            .collect();
        let (r1, stats) = sys.query_batch(&filters, 11, 1);
        let (r2, _) = sys.query_batch(&filters, 11, 4);
        assert_eq!(r1, r2, "thread count must not change results");
        assert_eq!(r1.len(), filters.len());
        for (f, r) in filters.iter().zip(&r1) {
            assert!(f.contains(r.expect("sample")));
        }
        assert!(stats.total_ops() > 0);
        // Different seeds reroute.
        let (r3, _) = sys.query_batch(&filters, 12, 2);
        assert_ne!(r1, r3, "a different seed should change some draws");
    }

    #[test]
    fn query_batch_ids_reports_unknown_slots() {
        let sys = engine(3);
        let ids: Vec<FilterId> = (0..5)
            .map(|i| {
                sys.create((0..50u64).map(|j| (i * 911 + j * 17) % 8_192))
                    .expect("create")
            })
            .collect();
        let dropped = ids[1];
        sys.drop_set(dropped).expect("drop");
        let (results, _) = sys.query_batch_ids(&ids, 5, 2);
        assert_eq!(results.len(), ids.len());
        for (id, r) in ids.iter().zip(&results) {
            if *id == dropped {
                assert_eq!(*r, Err(BstError::UnknownFilterId(dropped)));
            } else {
                assert!(sys.get(*id).expect("get").contains(r.expect("sample")));
            }
        }
    }

    #[test]
    fn occupancy_routes_to_owning_shard() {
        let sys = ShardedBstSystem::builder(8_192)
            .shards(4)
            .expected_set_size(100)
            .occupied((0..8_192u64).step_by(2))
            .build();
        assert!(!sys.contains_occupied(4_097));
        sys.insert_occupied(4_097).expect("insert");
        assert!(sys.contains_occupied(4_097));
        let owner = sys.shard_of(4_097);
        assert_eq!(sys.shard_systems()[owner].tree_generation(), 1);
        for (s, shard) in sys.shard_systems().iter().enumerate() {
            if s != owner {
                assert_eq!(shard.tree_generation(), 0, "shard {s} untouched");
            }
        }
        sys.remove_occupied(4_097).expect("remove");
        assert!(!sys.contains_occupied(4_097));
        assert_eq!(
            sys.insert_occupied(8_192),
            Err(BstError::KeyOutsideNamespace(8_192))
        );
    }

    #[test]
    fn snapshot_roundtrips_deterministically() {
        let sys = engine(4);
        let a = sys
            .create((0..200u64).map(|i| i * 41 % 8_192))
            .expect("create");
        let b = sys
            .create((0..50u64).map(|i| i * 163 % 8_192))
            .expect("create");
        sys.insert_keys(a, [4_242u64]).expect("insert");
        sys.drop_set(b).expect("drop");
        sys.insert_occupied(1).ok();
        sys.remove_occupied(2).ok();

        let bytes = sys.to_bytes();
        let restored = ShardedBstSystem::from_bytes(&bytes).expect("restore");
        assert_eq!(restored.boundaries(), sys.boundaries());
        assert_eq!(restored.ids(), sys.ids());
        assert_eq!(restored.occupied_ids(), sys.occupied_ids());
        assert_eq!(bytes, restored.to_bytes(), "byte-deterministic");

        // Same samples for the same RNG state, same reconstruction.
        let q1 = sys.query_id(a).expect("open");
        let q2 = restored.query_id(a).expect("open");
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            assert_eq!(q1.sample(&mut r1), q2.sample(&mut r2));
        }
        assert_eq!(q1.reconstruct(), q2.reconstruct());

        // Sharded ids keep allocating past the restored next_id.
        let c = restored.create([3u64]).expect("create");
        assert!(c.raw() > a.raw());
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let sys = engine(2);
        let bytes = sys.to_bytes();
        assert!(ShardedBstSystem::from_bytes(&bytes[..10]).is_err());
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(
            ShardedBstSystem::from_bytes(&wrong).err(),
            Some(BstError::Persist(PersistError::BadMagic))
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            ShardedBstSystem::from_bytes(&trailing).err(),
            Some(BstError::Persist(PersistError::Corrupt(_)))
        ));
    }

    #[test]
    fn empty_shard_trees_report_empty_tree_on_both_paths() {
        // An engine with no occupancy anywhere: the handle path and the
        // batch path must report the same typed error for a non-empty
        // filter (EmptyTree, exactly like a single-tree system).
        let sys = ShardedBstSystem::builder(4_096)
            .shards(4)
            .expected_set_size(50)
            .occupied(std::iter::empty())
            .build();
        let filter = sys.store([1u64, 2, 3]);
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(
            sys.query(&filter).sample(&mut rng),
            Err(BstError::EmptyTree)
        );
        let (results, _) = sys.query_batch(&[filter], 9, 2);
        assert_eq!(results, vec![Err(BstError::EmptyTree)]);
        // An empty filter on an empty engine also reports EmptyTree on
        // both paths (core checks the tree before the filter, and a
        // single-tree system answers the same way).
        let empty = sys.store(std::iter::empty());
        assert_eq!(sys.query(&empty).sample(&mut rng), Err(BstError::EmptyTree));
        let (results, _) = sys.query_batch(&[empty], 9, 2);
        assert_eq!(results, vec![Err(BstError::EmptyTree)]);
    }

    #[test]
    fn weight_cache_tracks_interleaved_operations() {
        // Interleave weight-consuming ops with mutations through other
        // entry points of the SAME handle: the cached weights must never
        // outlive the state they were computed from.
        let sys = engine(4);
        let id = sys
            .create((0..120u64).map(|i| i * 61 % 8_192))
            .expect("create");
        let q = sys.query_id(id).expect("open");
        let w0 = q.live_weight().expect("weight");
        // Mutate, then touch the handle via reconstruct (which syncs the
        // per-shard handles past the cached stamps) before sampling.
        sys.insert_keys(id, [8_000u64, 8_001, 8_002])
            .expect("insert");
        let rec = q.reconstruct().expect("reconstruct");
        assert_eq!(
            q.live_weight().expect("weight"),
            rec.len() as u64,
            "weight must match the post-mutation reconstruction"
        );
        assert!(rec.len() as u64 >= w0, "members were added");
        sys.remove_keys(id, (0..120u64).map(|i| i * 61 % 8_192))
            .expect("remove");
        let rec = q.reconstruct().expect("reconstruct");
        assert_eq!(q.live_weight().expect("weight"), rec.len() as u64);
    }

    #[test]
    fn empty_filter_on_partially_occupied_engine_reports_empty_filter() {
        // Occupancy only in shard 0's range: shard 1's tree is empty.
        // An empty filter must classify as EmptyFilter (a single pruned
        // tree over the same occupancy has a root, so the filter is
        // what failed) — not as EmptyTree just because SOME shard is
        // tree-empty.
        let sys = ShardedBstSystem::builder(4_096)
            .shards(2)
            .expected_set_size(50)
            .occupied((0..1_000u64).step_by(2))
            .build();
        let empty = sys.store(std::iter::empty());
        let mut rng = StdRng::seed_from_u64(6);
        let q = sys.query(&empty);
        assert_eq!(q.sample(&mut rng), Err(BstError::EmptyFilter));
        assert_eq!(q.live_weight(), Err(BstError::EmptyFilter));
        assert_eq!(q.reconstruct(), Err(BstError::EmptyFilter));
        let (results, _) = sys.query_batch(&[empty], 9, 2);
        assert_eq!(results, vec![Err(BstError::EmptyFilter)]);
        // A window over the empty shard on a live engine is Ok(vec![]),
        // exactly like a single tree whose occupancy lives elsewhere.
        let live = sys.store([0u64, 2, 4]);
        assert_eq!(sys.query(&live).reconstruct_range(3_000..4_000), Ok(vec![]));
    }

    #[test]
    fn snapshot_rejects_misrouted_occupancy() {
        // Occupancy entirely in the upper half: shard 0 empty, shard 1
        // full. Swapping the two shard payloads yields structurally
        // valid systems whose occupancy violates the routing invariant;
        // from_bytes must reject it as corrupt.
        let sys = ShardedBstSystem::builder(4_096)
            .shards(2)
            .expected_set_size(50)
            .occupied((2_048..4_096u64).step_by(2))
            .build();
        let bytes = sys.to_bytes();
        // Layout: "BSTH" v | manifest (no sets: 4 + 3*8 + 8 + 4 = 40) |
        // len0 u64 | payload0 | len1 u64 | payload1.
        let manifest_end = 5 + 40;
        let len0 =
            u64::from_le_bytes(bytes[manifest_end..manifest_end + 8].try_into().unwrap()) as usize;
        let p0 = &bytes[manifest_end + 8..manifest_end + 8 + len0];
        let rest = &bytes[manifest_end + 8 + len0..];
        let len1 = u64::from_le_bytes(rest[..8].try_into().unwrap()) as usize;
        let p1 = &rest[8..8 + len1];
        let mut swapped = bytes[..manifest_end].to_vec();
        for payload in [p1, p0] {
            swapped.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            swapped.extend_from_slice(payload);
        }
        assert_eq!(
            ShardedBstSystem::from_bytes(&swapped).err(),
            Some(BstError::Persist(PersistError::Corrupt(
                "shard occupancy outside its boundary range"
            )))
        );
        // The untouched snapshot still restores.
        assert!(ShardedBstSystem::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn snapshot_rejects_shards_with_different_configs() {
        // Same plan, different behaviour configs: a default engine's
        // snapshot with shard 1's payload spliced in from a corrected
        // engine would sample shard 1 under another rule than the
        // config() the restored engine reports.
        let build = |cfg| {
            ShardedBstSystem::builder(4_096)
                .shards(2)
                .expected_set_size(50)
                .config(cfg)
                .build()
        };
        let default = build(BstConfig::default());
        let corrected = build(BstConfig::corrected());
        let bytes = default.to_bytes();
        // "BSTH" v | manifest (no sets: 40 bytes) | len u64 | payload, ×S.
        let mut spliced = bytes[..5 + 40].to_vec();
        for sys in [&default.shard_systems()[0], &corrected.shard_systems()[1]] {
            let payload = sys.to_bytes();
            spliced.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            spliced.extend_from_slice(&payload);
        }
        assert_eq!(
            ShardedBstSystem::from_bytes(&spliced).err(),
            Some(BstError::Persist(PersistError::Corrupt(
                "shards disagree on the configuration"
            )))
        );
        assert!(ShardedBstSystem::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn warm_repeated_batch_skips_phase_one() {
        let sys = engine(4);
        let filters: Vec<BloomFilter> = (0..8)
            .map(|i| sys.store((0..60u64).map(|j| (i * 997 + j * 13) % 8_192)))
            .collect();
        let cells = (sys.shard_count() * filters.len()) as u64;
        let (r1, cold_stats) = sys.query_batch(&filters, 11, 2);
        let after_cold = sys.weight_cache_stats();
        assert_eq!(after_cold.hits, 0, "first batch is all misses");
        assert_eq!(after_cold.misses, cells);
        let (r2, warm_stats) = sys.query_batch(&filters, 11, 2);
        let after_warm = sys.weight_cache_stats();
        assert_eq!(r1, r2, "cached weights must not change results");
        assert_eq!(after_warm.misses, after_cold.misses, "no new misses");
        assert_eq!(after_warm.hits, cells, "every cell served from cache");
        assert!(
            warm_stats.total_ops() < cold_stats.total_ops() / 2,
            "a warm batch skips the phase-1 weighing walks ({} vs {})",
            warm_stats.total_ops(),
            cold_stats.total_ops()
        );
    }

    #[test]
    fn batch_results_identical_with_cache_bypassed() {
        let sys = engine(4);
        let ids: Vec<FilterId> = (0..5)
            .map(|i| {
                sys.create((0..50u64).map(|j| (i * 911 + j * 17) % 8_192))
                    .expect("create")
            })
            .collect();
        let filters: Vec<BloomFilter> = (0..6)
            .map(|i| sys.store((0..40u64).map(|j| (i * 389 + j * 23) % 8_192)))
            .collect();
        // Warm the cache, then compare against the bypass path on the
        // same engine — outputs must be bit-identical.
        let (warm_f, _) = sys.query_batch(&filters, 7, 2);
        let (warm_f2, _) = sys.query_batch(&filters, 7, 2);
        let (warm_i, _) = sys.query_batch_ids(&ids, 9, 2);
        let (warm_i2, _) = sys.query_batch_ids(&ids, 9, 2);
        sys.set_weight_cache(false);
        assert!(!sys.weight_cache_enabled());
        let (bypass_f, _) = sys.query_batch(&filters, 7, 2);
        let (bypass_i, _) = sys.query_batch_ids(&ids, 9, 2);
        assert_eq!(warm_f, bypass_f);
        assert_eq!(warm_f2, bypass_f);
        assert_eq!(warm_i, bypass_i);
        assert_eq!(warm_i2, bypass_i);
        sys.set_weight_cache(true);
    }

    #[test]
    fn store_churn_invalidates_only_the_mutated_cells() {
        let sys = engine(4);
        let ids: Vec<FilterId> = (0..3)
            .map(|i| {
                sys.create((0..60u64).map(|j| (i * 701 + j * 29) % 8_192))
                    .expect("create")
            })
            .collect();
        sys.query_batch_ids(&ids, 3, 2);
        let primed = sys.weight_cache_stats();
        // Mutate one set with a key landing in exactly one shard: only
        // that (set, shard) cell's set generation moves.
        sys.insert_keys(ids[1], [10u64]).expect("insert");
        let owner = sys.shard_of(10);
        let (results, _) = sys.query_batch_ids(&ids, 3, 2);
        let after = sys.weight_cache_stats();
        assert_eq!(
            after.misses - primed.misses,
            1,
            "exactly the mutated (set, shard) cell re-weighs"
        );
        assert_eq!(
            after.hits - primed.hits,
            (sys.shard_count() * ids.len()) as u64 - 1
        );
        // The refilled cell reflects the new membership.
        let cells = sys.cached_weights(ids[1]).expect("entry");
        let cell = cells[owner].expect("cell");
        assert_eq!(
            cell.set_generation,
            sys.shard_systems()[owner]
                .filters()
                .generation(
                    sys.query_id(ids[1]).expect("open").shard_handles()[owner]
                        .filter_id()
                        .expect("stored")
                )
                .expect("generation")
        );
        for r in &results {
            r.expect("all slots live");
        }
    }

    #[test]
    fn occupancy_churn_repairs_cached_weights_by_delta() {
        let sys = ShardedBstSystem::builder(8_192)
            .shards(4)
            .expected_set_size(200)
            .seed(9)
            .occupied((0..8_192u64).step_by(2))
            .build();
        let filters: Vec<BloomFilter> = (0..4)
            .map(|i| sys.store((0..60u64).map(|j| (i * 997 + j * 26) % 8_192)))
            .collect();
        sys.query_batch(&filters, 13, 2);
        let primed = sys.weight_cache_stats();
        // Toggle an odd id: the owning shard's tree generation moves by
        // 2 and the journal covers the gap, so cached weights repair
        // instead of re-weighing.
        sys.insert_occupied(4_097).expect("insert");
        sys.remove_occupied(4_097).expect("remove");
        let (r, _) = sys.query_batch(&filters, 13, 2);
        let after = sys.weight_cache_stats();
        assert_eq!(after.misses, primed.misses, "no cell re-weighs");
        assert!(
            after.repairs > primed.repairs,
            "the mutated shard's cells repair through the journal"
        );
        // Repaired weights must equal recomputed ones.
        sys.set_weight_cache(false);
        let (bypass, _) = sys.query_batch(&filters, 13, 2);
        assert_eq!(r, bypass);
    }

    #[test]
    fn cached_weights_match_recomputation() {
        let sys = engine(4);
        let id = sys
            .create((0..200u64).map(|i| i * 37 % 8_192))
            .expect("create");
        let filter = sys.store((0..80u64).map(|i| i * 53 % 8_192));
        sys.query_batch_ids(&[id], 5, 2);
        sys.query_batch(std::slice::from_ref(&filter), 5, 2);
        let stored = sys.cached_weights(id).expect("stored entry");
        let q = sys.query_id(id).expect("open");
        for (shard, cell) in stored.iter().enumerate() {
            let cell = cell.expect("every shard weighed");
            let expect = q.shard_handles()[shard].live_weight();
            match (cell.outcome, expect) {
                (Ok(w), Ok(e)) => assert_eq!(w, e, "shard {shard}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "shard {shard}"),
                (a, b) => panic!("shard {shard}: cached {a:?} vs recomputed {b:?}"),
            }
        }
        let adhoc = sys.cached_weights_for(&filter).expect("interned entry");
        for (shard, cell) in adhoc.iter().enumerate() {
            let cell = cell.expect("every shard weighed");
            assert_eq!(
                cell.outcome,
                sys.shard_systems()[shard].live_weight_stamped(&filter).0,
                "shard {shard}"
            );
            assert_eq!(cell.set_generation, 0, "ad-hoc filters have no set");
        }
        // Dropping the set garbage-collects its entry.
        sys.drop_set(id).expect("drop");
        assert!(sys.cached_weights(id).is_none());
    }

    #[test]
    fn batch_obs_and_spans_track_scatter_gather_phases() {
        use bst_obs::RingRecorder;
        let sys = engine(4);
        let obs = std::sync::Arc::new(BatchObs::unregistered());
        sys.set_batch_obs(Some(obs.clone()));
        let ring = std::sync::Arc::new(RingRecorder::new(64));
        sys.set_recorder(Some(ring.clone()));

        let filters: Vec<_> = (0..3u64)
            .map(|f| sys.store((0..80u64).map(move |i| (i * 131 + f * 7) % 8_192)))
            .collect();
        let (results, _) = sys.query_batch(&filters, 5, 2);
        assert!(results.iter().all(|r| r.is_ok()));

        assert_eq!(obs.batches.get(), 1);
        // Cold batch: every (shard, filter) cell is weighed; both phase
        // histograms record once per batch, even when a phase is empty.
        assert_eq!(obs.weigh_us.snapshot().count(), 1);
        assert_eq!(obs.sample_us.snapshot().count(), 1);

        let spans = ring.recent();
        let batch = spans
            .iter()
            .find(|s| s.name == "bst.shard.batch")
            .expect("batch span");
        let attr = |name: &str| {
            batch
                .attrs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .expect("attr")
        };
        assert_eq!(attr("slots"), 3);
        assert_eq!(attr("weighed_cells"), 12, "4 shards x 3 filters, cold");
        assert_eq!(attr("sampled_cells"), 3, "one chosen shard per slot");
        assert_eq!(attr("retained_cells"), 0, "ad-hoc batches retain nothing");

        // Warm repeat: cache serves every weight, so no cells are
        // weighed, but the phase histogram still records the (near-zero)
        // phase time and the batch counter advances.
        let (results, _) = sys.query_batch(&filters, 6, 2);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(obs.batches.get(), 2);
        assert_eq!(obs.weigh_us.snapshot().count(), 2);
        let spans = ring.recent();
        let warm = spans
            .iter()
            .rfind(|s| s.name == "bst.shard.batch")
            .expect("warm batch span");
        let warm_weighed = warm
            .attrs
            .iter()
            .find(|(k, _)| *k == "weighed_cells")
            .map(|(_, v)| *v)
            .expect("attr");
        assert_eq!(warm_weighed, 0, "warm batch serves weights from cache");

        // Detaching both sinks stops all emission and recording.
        sys.set_recorder(None);
        sys.set_batch_obs(None);
        let before = ring.recorded_total();
        let _ = sys.query_batch(&filters, 7, 2);
        assert_eq!(ring.recorded_total(), before);
        assert_eq!(obs.batches.get(), 2);
    }

    #[test]
    fn retained_handles_draw_what_the_bypass_draws() {
        use bst_obs::RingRecorder;
        let occupied: Vec<u64> = (0..8_192u64).filter(|x| x % 5 != 0).collect();
        let build = || {
            ShardedBstSystem::builder(8_192)
                .shards(4)
                .expected_set_size(200)
                .seed(9)
                .config(BstConfig::corrected())
                .occupied(occupied.iter().copied())
                .build()
        };
        let (warm, cold) = (build(), build());
        cold.set_weight_cache(false);
        let ring = Arc::new(RingRecorder::new(64));
        warm.set_recorder(Some(ring.clone()));
        let mut ids = Vec::new();
        for i in 0..4u64 {
            let keys: Vec<u64> = (0..8_192u64).filter(|x| x % (7 + i) == i).collect();
            let id = warm.create(keys.iter().copied()).expect("create");
            assert_eq!(cold.create(keys).expect("create"), id);
            ids.push(id);
        }
        // ids[0] twice: duplicates share one retained handle per shard.
        let batch = [ids[0], ids[1], ids[2], ids[3], ids[0]];
        let same = |seed| {
            let (a, _) = warm.query_batch_ids(&batch, seed, 2);
            let (b, _) = cold.query_batch_ids(&batch, seed, 2);
            assert_eq!(a, b, "seed {seed}");
        };
        let retained = |sys: &ShardedBstSystem| sys.shared.weight_cache.retained_count();
        let retained_cells = || {
            let spans = ring.recent();
            let span = spans
                .iter()
                .rfind(|s| s.name == "bst.shard.batch")
                .expect("batch span");
            span.attrs
                .iter()
                .find(|(k, _)| *k == "retained_cells")
                .map(|(_, v)| *v)
                .expect("attr")
        };

        same(1);
        assert_eq!(
            retained(&warm),
            4 * 4,
            "one handle per (distinct id, shard)"
        );
        assert_eq!(retained(&cold), 0, "a bypassed cache retains nothing");
        assert_eq!(retained_cells(), 0, "a cold batch has nothing retained");
        for sys in [&warm, &cold] {
            sys.insert_keys(ids[1], [3u64, 4_001, 8_000])
                .expect("insert");
            sys.insert_occupied(5).expect("occupy");
            sys.drop_set(ids[2]).expect("drop");
        }
        assert_eq!(retained(&warm), 3 * 4, "drop_set releases its handles");
        same(2);
        assert!(retained_cells() > 0, "hits sample from retained handles");
        let held = retained(&warm);
        assert_eq!(held, 3 * 4);
        let keys: Vec<u64> = (0..8_192u64).step_by(9).collect();
        let (a, _) = warm.query_batch(&[warm.store(keys.iter().copied())], 3, 2);
        let (b, _) = cold.query_batch(&[cold.store(keys)], 3, 2);
        assert_eq!(a, b);
        assert_eq!(
            retained(&warm),
            held,
            "ad-hoc batches leave retention alone"
        );
        same(4);
        assert_eq!(retained_cells(), 4, "every live slot samples warm");
    }

    #[test]
    fn engine_is_cheap_to_clone_and_threadsafe() {
        fn assert_traits<T: Clone + Send + Sync + 'static>() {}
        assert_traits::<ShardedBstSystem>();
        fn assert_handle<T: Send + Sync + 'static>() {}
        assert_handle::<ShardQuery>();
    }

    #[test]
    fn single_shard_engine_matches_single_system_results() {
        // S = 1 is the degenerate case: one shard owning the whole
        // namespace must reconstruct exactly what a standalone pruned
        // system does.
        let occ: Vec<u64> = (0..4_096u64).step_by(3).collect();
        let sharded = ShardedBstSystem::builder(4_096)
            .shards(1)
            .expected_set_size(100)
            .seed(21)
            .occupied(occ.iter().copied())
            .build();
        let single = BstSystem::builder(4_096)
            .expected_set_size(100)
            .seed(21)
            .pruned(occ.iter().copied())
            .build();
        let keys: Vec<u64> = occ.iter().copied().step_by(5).collect();
        let f = sharded.store(keys.iter().copied());
        assert_eq!(
            sharded.query(&f).reconstruct().expect("sharded"),
            single.query(&f).reconstruct().expect("single"),
        );
    }
}
