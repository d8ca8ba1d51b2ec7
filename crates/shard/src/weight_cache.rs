//! The engine-level persistent weight cache behind
//! [`crate::system::ShardedBstSystem::query_batch`].
//!
//! PR 4's two-phase batch scatter left cold batches dominated by phase 1:
//! every batch over the same filter population re-weighs every
//! (shard, slot) cell from scratch, even though nothing changed between
//! batches. This cache makes those weights **persistent at the engine
//! level** — the "one tree, many filters, repeated operations" asymmetry
//! the paper's BSTSample design exploits, applied to the batch path, with
//! Bloofi's live per-filter metadata as the reference point.
//!
//! ## Shape
//!
//! A concurrent map from batch slot key to per-shard live-weight cells:
//!
//! * **Stored** sets are keyed by their sharded [`FilterId`] raw value
//!   (sharded ids are never reused, so a raw id names one set forever).
//! * **Ad-hoc** filters are *interned* by content hash — the entry keeps
//!   a clone of the filter, both as the collision guard (a 64-bit hash
//!   can collide; filter bits cannot) and as the input to journal repair.
//!   The interned side is bounded (`ADHOC_CAP` = 1024 entries, FIFO
//!   eviction).
//!
//! Each cell carries the weight outcome plus the `(store set-generation,
//! tree generation)` stamp pair it was computed at — the same two stamp
//! kinds that invalidate a [`crate::query::ShardQuery`]'s handle-level
//! cache. **Mutations never touch the cache** (no write-path cost beyond
//! the generation bumps that already happen); staleness is discovered
//! lazily at probe time by comparing stamps against the live generations:
//!
//! * both stamps current → **hit**, the weight is served as-is;
//! * tree stamp lags but the mutation journal covers the gap → the
//!   weight is **repaired** by the O(k)-per-mutation delta
//!   ([`bst_core::system::BstSystem::repair_live_weight`]) and re-served;
//! * set stamp moved, or the journal fell behind → **miss**, the cell is
//!   re-weighed and overwritten.
//!
//! Overwrites are stamp-monotonic (a cell is only replaced by one whose
//! stamps are at least as new), so a concurrent fill can never regress a
//! cell — `tests/stress_weights.rs` hammers this under parallel mutators.
//! Serving correctness never depends on the overwrite policy, though:
//! every probe re-validates stamps against the current generations, so a
//! superseded weight is structurally unservable.
//!
//! Cached weights are pure functions of `(tree, filter)` and equal what a
//! fresh weighing would produce, so batch *outputs* are bit-identical
//! with the cache enabled or bypassed (pinned in `tests/e2e_shard.rs`
//! and the crate proptests); only `OpStats` differ, since cache hits
//! perform no filter operations.
//!
//! ## Retained handles
//!
//! A weight hit spares phase 1, but the chosen cell still has to be
//! *sampled*, and a cold per-shard [`Query`] re-descends the tree from
//! scratch. So the stored side also keeps the per-shard handles of the
//! **last id batch's** stored slots (`(raw id, shard) → Arc<Query>`):
//! [`crate::system::ShardedBstSystem::query_batch_ids`] replaces them
//! wholesale at the end of every call, and a later id batch naming the
//! same sets samples its chosen cache-hit cells from those warm handles.
//! Retention is bounded by one id batch (S × slots handles, as many as
//! a cold batch holds during phase 1). Ad-hoc batches neither read nor
//! replace them. A handle revalidates its own stamps on every operation
//! (re-projecting on set churn, repairing its memo on occupancy churn),
//! and a warm handle draws exactly what a cold one would, so retention
//! needs no invalidation and cannot change a draw. `remove_stored`
//! releases a dropped id's handles; a bypassed cache retains nothing.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_core::error::BstError;
use bst_core::query::Query;
use bst_core::store::FilterId;
use bst_core::system::BstSystem;
use bst_obs::Counter;
use parking_lot::RwLock;

/// Bound on distinct interned ad-hoc filters (FIFO eviction beyond it).
/// Stored-set entries are bounded by the registry and are not capped.
pub(crate) const ADHOC_CAP: usize = 1024;

/// How one batch slot is keyed in the cache.
pub(crate) enum SlotKey<'a> {
    /// A registered sharded set: the sharded id's raw value plus the
    /// per-shard backing ids (for set-generation checks and projection).
    Stored {
        /// Raw sharded id (never reused by the registry).
        raw: u64,
        /// Per-shard backing store ids, shard order.
        fids: &'a [FilterId],
    },
    /// A detached filter, interned by content hash.
    Adhoc {
        /// Content hash of the filter (see [`filter_content_hash`]).
        hash: u64,
        /// The filter itself (cloned into the cache on first fill).
        filter: &'a BloomFilter,
    },
}

/// Content hash of a filter: FNV-1a over the parameterization and the
/// raw bit words. Collisions are guarded by comparing the interned
/// filter's bits on every probe, so the hash only has to be a good map
/// key, not a unique identity. Public so layers holding their own
/// per-filter caches (e.g. `bst-server` session handle caches) can key
/// them consistently with the engine's weight cache — callers must keep
/// the same collision-guard discipline (the hash is a map key, not an
/// identity).
pub fn filter_content_hash(filter: &BloomFilter) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(PRIME);
    mix(filter.m() as u64);
    mix(filter.k() as u64);
    for &w in filter.bits().words() {
        mix(w);
    }
    h
}

/// One cached (filter, shard) weight cell: the outcome plus the stamps
/// it was computed at. Only *soft* outcomes are cached (`Ok(weight)`,
/// `EmptyFilter`, `EmptyTree`); hard errors carry no meaningful stamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CachedWeight {
    /// The weight outcome a probe at matching stamps would serve.
    pub outcome: Result<u64, BstError>,
    /// Store set-generation of the shard's backing set when computed
    /// (constant 0 for ad-hoc filters, which have no backing set).
    pub set_generation: u64,
    /// The shard's tree generation when computed.
    pub tree_generation: u64,
}

impl CachedWeight {
    /// Stamp-monotonic overwrite rule: a cell may only be replaced by
    /// one computed at stamps at least as new in *both* dimensions.
    fn supersedes(&self, old: &CachedWeight) -> bool {
        self.set_generation >= old.set_generation && self.tree_generation >= old.tree_generation
    }
}

/// Effectiveness counters since construction or the last clear
/// (clearing — including the one `set_enabled(false)` performs — resets
/// them; a bypassed cache counts nothing at all).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WeightCacheStats {
    /// Cells served straight from the cache (stamps current).
    pub hits: u64,
    /// Probed cells with no servable entry: absent, or stale beyond
    /// repair. Each miss dispatches one weighing walk.
    pub misses: u64,
    /// Cells whose tree stamp lagged but were brought current by a
    /// journal-replay delta instead of a re-weigh (counted as hits too).
    pub repairs: u64,
}

/// A stored-set entry: one optional cell per shard.
struct StoredEntry {
    cells: Vec<Option<CachedWeight>>,
}

/// The stored side: live entries, the last id batch's retained
/// handles, and the tombstones of retired ids. All live under one lock
/// so a write-back racing `remove_stored` cannot resurrect a dropped
/// set's entry or handles.
#[derive(Default)]
struct StoredSide {
    map: HashMap<u64, StoredEntry>,
    /// Per-shard handles of the last id batch's stored slots, keyed by
    /// `(raw id, shard)`; replaced wholesale by [`WeightCache::retain`].
    retained: HashMap<(u64, usize), Arc<Query>>,
    /// Raw ids retired by `drop_set` — never probed again (sharded ids
    /// are not reused), so `fill` must not re-create their entries. One
    /// `u64` per set ever dropped, far below the S-cell entries it
    /// prevents from leaking.
    retired: HashSet<u64>,
}

/// An interned ad-hoc entry: the filter (collision guard + repair
/// input) plus one optional cell per shard.
struct AdhocEntry {
    filter: BloomFilter,
    cells: Vec<Option<CachedWeight>>,
}

struct AdhocSide {
    map: HashMap<u64, AdhocEntry>,
    /// Insertion order for FIFO eviction at [`ADHOC_CAP`].
    order: VecDeque<u64>,
}

/// The persistent per-(filter, shard) weight cache of a
/// [`crate::system::ShardedBstSystem`]. See the module docs for the
/// protocol; all methods are engine-internal.
pub(crate) struct WeightCache {
    shards: usize,
    enabled: AtomicBool,
    stored: RwLock<StoredSide>,
    adhoc: RwLock<AdhocSide>,
    /// Effectiveness counters as `bst-obs` handles, so a serving layer
    /// can register clones on its metrics registry and scrape them
    /// without an extra copy (recording cost is identical: one relaxed
    /// `fetch_add`).
    hits: Counter,
    misses: Counter,
    repairs: Counter,
}

impl WeightCache {
    /// An empty, enabled cache over `shards` shards.
    pub(crate) fn new(shards: usize) -> Self {
        WeightCache {
            shards,
            enabled: AtomicBool::new(true),
            stored: RwLock::new(StoredSide::default()),
            adhoc: RwLock::new(AdhocSide {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            hits: Counter::new(),
            misses: Counter::new(),
            repairs: Counter::new(),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Runtime toggle. Disabling also empties the cache (retained
    /// handles included) and resets the effectiveness counters (a
    /// bypassed cache must not serve pre-toggle state when re-enabled
    /// later); retired-id tombstones survive, so a dropped set stays
    /// dropped.
    pub(crate) fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
        if enabled {
            return;
        }
        let mut stored = self.stored.write();
        stored.map.clear();
        stored.retained.clear();
        drop(stored);
        let mut adhoc = self.adhoc.write();
        adhoc.map.clear();
        adhoc.order.clear();
        drop(adhoc);
        self.hits.reset();
        self.misses.reset();
        self.repairs.reset();
    }

    /// Retires a dropped stored set: removes its entry and retained
    /// handles and tombstones the raw id, so an in-flight batch's
    /// write-back (which resolved the registry before the drop) cannot
    /// resurrect an unreachable entry. Garbage collection, not
    /// invalidation — a retired raw id can never be probed again anyway.
    pub(crate) fn remove_stored(&self, raw: u64) {
        let mut stored = self.stored.write();
        stored.map.remove(&raw);
        for shard in 0..self.shards {
            stored.retained.remove(&(raw, shard));
        }
        stored.retired.insert(raw);
    }

    /// The retained handle of a stored id's shard cell, if the last id
    /// batch held one.
    pub(crate) fn retained(&self, raw: u64, shard: usize) -> Option<Arc<Query>> {
        self.stored.read().retained.get(&(raw, shard)).cloned()
    }

    /// Replaces the retained handles with `handles` (one id batch's).
    /// Like [`Self::fill`], re-checks the enabled flag and the
    /// tombstones under the write lock, so a batch racing a bypass or a
    /// `drop_set` retains nothing it must not. The superseded handles
    /// are released after the lock is let go.
    pub(crate) fn retain(&self, mut handles: HashMap<(u64, usize), Arc<Query>>) {
        let mut stored = self.stored.write();
        if !self.enabled() {
            return;
        }
        handles.retain(|(raw, _), _| !stored.retired.contains(raw));
        let released = std::mem::replace(&mut stored.retained, handles);
        drop(stored);
        drop(released);
    }

    /// Number of retained handles (tests pin the retention bounds).
    #[cfg(test)]
    pub(crate) fn retained_count(&self) -> usize {
        self.stored.read().retained.len()
    }

    pub(crate) fn stats(&self) -> WeightCacheStats {
        WeightCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            repairs: self.repairs.get(),
        }
    }

    /// Clones of the effectiveness counter handles `(hits, misses,
    /// repairs)` — for registration on a metrics registry. Note a
    /// bypass (`set_enabled(false)`) resets them through any registered
    /// clone (shared cells), so scrape-time callbacks over
    /// [`Self::stats`] and registered handles always agree.
    pub(crate) fn counters(&self) -> (Counter, Counter, Counter) {
        (self.hits.clone(), self.misses.clone(), self.repairs.clone())
    }

    /// Introspection: the cached per-shard cells for a stored id, if an
    /// entry exists.
    pub(crate) fn stored_cells(&self, raw: u64) -> Option<Vec<Option<CachedWeight>>> {
        self.stored.read().map.get(&raw).map(|e| e.cells.clone())
    }

    /// Introspection: the cached per-shard cells for an ad-hoc filter,
    /// if it is interned.
    pub(crate) fn adhoc_cells(&self, filter: &BloomFilter) -> Option<Vec<Option<CachedWeight>>> {
        let hash = filter_content_hash(filter);
        let adhoc = self.adhoc.read();
        let entry = adhoc.map.get(&hash)?;
        (entry.filter.bits() == filter.bits() && entry.filter.compatible_with(filter))
            .then(|| entry.cells.clone())
    }

    /// Probes one whole slot: every shard's cell in one pass, with the
    /// entry lookup (and, for ad-hoc keys, the collision guard's bit
    /// comparison) paid **once per slot** rather than once per cell.
    /// `out[shard] = Some(outcome)` means phase 1 can skip weighing that
    /// cell — the outcome is current, possibly after a journal repair;
    /// `None` is a miss the caller must weigh and [`Self::fill`].
    ///
    /// Repairs run inline on the calling thread: each is bounded by the
    /// journal horizon (≤ 256 `±contains` deltas, plus one O(m)
    /// projection for stored keys) — orders of magnitude under the
    /// counting walk a miss costs, so shipping them to the worker pool
    /// would buy little (measured in `results/weight_cache.md`,
    /// "warm + repair").
    pub(crate) fn probe_slot(
        &self,
        shards: &[BstSystem],
        key: &SlotKey<'_>,
    ) -> Vec<Option<Result<u64, BstError>>> {
        let mut out = vec![None; shards.len()];
        if !self.enabled() {
            return out;
        }
        let cells: Option<Vec<Option<CachedWeight>>> = match key {
            SlotKey::Adhoc { hash, filter } => {
                let adhoc = self.adhoc.read();
                adhoc.map.get(hash).and_then(|entry| {
                    // Collision guard: the interned filter must be bit-
                    // identical (and parameter-identical) to the probing
                    // one. One comparison covers all S cells.
                    (entry.filter.bits() == filter.bits() && entry.filter.compatible_with(filter))
                        .then(|| entry.cells.clone())
                })
            }
            SlotKey::Stored { raw, .. } => self.stored.read().map.get(raw).map(|e| e.cells.clone()),
        };
        if let Some(cells) = cells {
            for (shard, (cell, sys)) in cells.into_iter().zip(shards).enumerate() {
                out[shard] = cell.and_then(|cell| self.serve(sys, shard, key, cell));
            }
        }
        for served in &out {
            match served {
                Some(_) => self.hits.inc(),
                None => self.misses.inc(),
            };
        }
        out
    }

    /// Revalidates one cached cell against the shard's current
    /// generations: serve on matching stamps, repair a lagging Ok weight
    /// through the mutation journal, miss otherwise.
    fn serve(
        &self,
        sys: &BstSystem,
        shard: usize,
        key: &SlotKey<'_>,
        cell: CachedWeight,
    ) -> Option<Result<u64, BstError>> {
        // Set-generation check first (a dropped backing set is a miss:
        // the weighing walk reports the typed error through the normal
        // path); ad-hoc filters have no set, stamped constant 0.
        let set_now = match key {
            SlotKey::Adhoc { .. } => 0,
            SlotKey::Stored { fids, .. } => sys.filters().generation(fids[shard]).ok()?,
        };
        if cell.set_generation != set_now {
            return None;
        }
        let tree_now = sys.tree().generation();
        if cell.tree_generation == tree_now {
            return Some(cell.outcome);
        }
        // A lagging Ok weight may be repairable through the journal; any
        // other staleness (including stale soft errors — `EmptyTree` can
        // flip once occupancy arrives) is a miss.
        let weight = match cell.outcome {
            Ok(w) if cell.tree_generation < tree_now => w,
            _ => return None,
        };
        // The repair delta needs the filter: the interned clone for
        // ad-hoc keys; for stored keys the projection — O(m), far
        // cheaper than the counting walk it avoids — which must reflect
        // the stamped set generation exactly, or the repaired weight
        // would mix two set states.
        let (repaired, tree_generation) = match key {
            SlotKey::Adhoc { filter, .. } => {
                sys.repair_live_weight(filter, cell.tree_generation, weight)?
            }
            SlotKey::Stored { fids, .. } => {
                let (filter, generation) = sys.filters().snapshot(fids[shard]).ok()?;
                if generation != cell.set_generation {
                    return None;
                }
                sys.repair_live_weight(&filter, cell.tree_generation, weight)?
            }
        };
        self.repairs.inc();
        self.fill(
            shard,
            key,
            CachedWeight {
                outcome: Ok(repaired),
                set_generation: cell.set_generation,
                tree_generation,
            },
        );
        Some(Ok(repaired))
    }

    /// Records a freshly weighed (or just-repaired) cell. Only soft
    /// outcomes are cacheable; the weighing caller filters hard errors
    /// out. Overwrites are stamp-monotonic
    /// ([`CachedWeight::supersedes`]). The enabled flag is re-checked
    /// under the write lock: `set_enabled(false)` clears under that same
    /// lock, so an in-flight write-back can never repopulate a cache the
    /// toggle just emptied.
    pub(crate) fn fill(&self, shard: usize, key: &SlotKey<'_>, cell: CachedWeight) {
        match key {
            SlotKey::Stored { raw, .. } => {
                let mut stored = self.stored.write();
                if !self.enabled() || stored.retired.contains(raw) {
                    return;
                }
                let entry = stored.map.entry(*raw).or_insert_with(|| StoredEntry {
                    cells: vec![None; self.shards],
                });
                merge_cell(&mut entry.cells[shard], cell);
            }
            SlotKey::Adhoc { hash, filter } => {
                let mut adhoc = self.adhoc.write();
                if !self.enabled() {
                    return;
                }
                match adhoc.map.get_mut(hash) {
                    Some(entry)
                        if entry.filter.bits() == filter.bits()
                            && entry.filter.compatible_with(filter) =>
                    {
                        merge_cell(&mut entry.cells[shard], cell);
                    }
                    // A hash collision with a different interned filter:
                    // keep the resident (evicting on collision would let
                    // two filters thrash one slot).
                    Some(_) => {}
                    None => {
                        while adhoc.order.len() >= ADHOC_CAP {
                            match adhoc.order.pop_front() {
                                Some(evict) => {
                                    adhoc.map.remove(&evict);
                                }
                                None => break,
                            }
                        }
                        let mut cells = vec![None; self.shards];
                        cells[shard] = Some(cell);
                        adhoc.map.insert(
                            *hash,
                            AdhocEntry {
                                filter: (*filter).clone(),
                                cells,
                            },
                        );
                        adhoc.order.push_back(*hash);
                    }
                }
            }
        }
    }
}

/// Applies the stamp-monotonic overwrite rule to one cell slot.
fn merge_cell(slot: &mut Option<CachedWeight>, fresh: CachedWeight) {
    match slot {
        Some(old) if !fresh.supersedes(old) => {}
        _ => *slot = Some(fresh),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_core::system::BstSystem;

    /// Single-shard probe shorthand for the unit tests.
    fn probe(
        cache: &WeightCache,
        sys: &BstSystem,
        key: &SlotKey<'_>,
    ) -> Option<Result<u64, BstError>> {
        cache.probe_slot(std::slice::from_ref(sys), key)[0]
    }

    fn system() -> BstSystem {
        BstSystem::builder(4_096)
            .expected_set_size(100)
            .seed(7)
            .pruned((0..4_096u64).step_by(2))
            .build()
    }

    #[test]
    fn content_hash_tracks_bits() {
        let sys = system();
        let a = sys.store([2u64, 4, 8]);
        let b = sys.store([2u64, 4, 8]);
        let c = sys.store([2u64, 4, 10]);
        assert_eq!(filter_content_hash(&a), filter_content_hash(&b));
        assert_ne!(filter_content_hash(&a), filter_content_hash(&c));
    }

    #[test]
    fn probe_miss_fill_hit_roundtrip() {
        let sys = system();
        let cache = WeightCache::new(1);
        let filter = sys.store((0..100u64).map(|i| i * 2 % 4_096));
        let key = SlotKey::Adhoc {
            hash: filter_content_hash(&filter),
            filter: &filter,
        };
        assert_eq!(probe(&cache, &sys, &key), None, "cold probe misses");
        let (outcome, tree_generation) = sys.live_weight_stamped(&filter);
        cache.fill(
            0,
            &key,
            CachedWeight {
                outcome,
                set_generation: 0,
                tree_generation,
            },
        );
        assert_eq!(probe(&cache, &sys, &key), Some(outcome), "warm probe hits");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.repairs), (1, 1, 0));
    }

    #[test]
    fn tree_mutation_repairs_instead_of_missing() {
        let sys = system();
        let cache = WeightCache::new(1);
        let keys: Vec<u64> = (0..100u64).map(|i| i * 2 % 4_096).collect();
        let filter = sys.store(keys.iter().copied().chain([1u64]));
        let key = SlotKey::Adhoc {
            hash: filter_content_hash(&filter),
            filter: &filter,
        };
        let (outcome, tree_generation) = sys.live_weight_stamped(&filter);
        let w0 = outcome.expect("weight");
        cache.fill(
            0,
            &key,
            CachedWeight {
                outcome,
                set_generation: 0,
                tree_generation,
            },
        );
        // Occupy id 1 (odd, so previously unoccupied; the filter holds
        // it): the cached weight lags by one journal entry.
        sys.insert_occupied(1).expect("insert");
        let served = probe(&cache, &sys, &key).expect("repairable");
        assert_eq!(served, Ok(w0 + 1), "repair applies the +contains delta");
        assert_eq!(served, Ok(sys.live_weight(&filter).expect("recount")));
        assert_eq!(cache.stats().repairs, 1);
        // The repaired cell is now current: the next probe is a pure hit.
        assert_eq!(probe(&cache, &sys, &key), Some(Ok(w0 + 1)));
        assert_eq!(cache.stats().repairs, 1);
    }

    #[test]
    fn disabled_cache_never_serves() {
        let sys = system();
        let cache = WeightCache::new(1);
        let filter = sys.store([2u64, 4, 6]);
        let key = SlotKey::Adhoc {
            hash: filter_content_hash(&filter),
            filter: &filter,
        };
        let (outcome, tree_generation) = sys.live_weight_stamped(&filter);
        cache.fill(
            0,
            &key,
            CachedWeight {
                outcome,
                set_generation: 0,
                tree_generation,
            },
        );
        cache.set_enabled(false);
        assert_eq!(probe(&cache, &sys, &key), None, "bypassed");
        cache.set_enabled(true);
        assert_eq!(
            probe(&cache, &sys, &key),
            None,
            "disabling cleared the state"
        );
    }

    #[test]
    fn late_fill_cannot_resurrect_a_retired_stored_entry() {
        let cache = WeightCache::new(2);
        let fids = [FilterId::from_raw(0), FilterId::from_raw(1)];
        let key = SlotKey::Stored {
            raw: 9,
            fids: &fids,
        };
        let cell = CachedWeight {
            outcome: Ok(3),
            set_generation: 0,
            tree_generation: 0,
        };
        cache.fill(0, &key, cell);
        assert!(cache.stored_cells(9).is_some());
        cache.remove_stored(9);
        assert!(cache.stored_cells(9).is_none());
        // A write-back from an in-flight batch that resolved the id
        // before the drop arrives late: the tombstone must reject it,
        // or the unreachable entry would leak for the engine's lifetime.
        cache.fill(1, &key, cell);
        assert!(cache.stored_cells(9).is_none(), "retired id resurrected");
        // Clearing (a bypass round trip) keeps the tombstone: a dropped
        // set stays dropped.
        cache.set_enabled(false);
        cache.set_enabled(true);
        cache.fill(1, &key, cell);
        assert!(cache.stored_cells(9).is_none());
    }

    #[test]
    fn adhoc_interning_is_bounded_fifo() {
        let sys = system();
        let cache = WeightCache::new(1);
        let cell = CachedWeight {
            outcome: Ok(1),
            set_generation: 0,
            tree_generation: 0,
        };
        let filters: Vec<BloomFilter> = (0..ADHOC_CAP as u64 + 8)
            .map(|i| sys.store([2 * (i % 2_000), 2 * (i % 2_000) + 2]))
            .collect();
        for f in &filters {
            cache.fill(
                0,
                &SlotKey::Adhoc {
                    hash: filter_content_hash(f),
                    filter: f,
                },
                cell,
            );
        }
        let interned = cache.adhoc.read().map.len();
        assert!(interned <= ADHOC_CAP, "cap enforced: {interned}");
        assert_eq!(cache.adhoc.read().order.len(), interned);
        // The earliest fills were evicted; the latest survive.
        assert!(cache.adhoc_cells(filters.last().expect("some")).is_some());
    }

    #[test]
    fn merge_is_stamp_monotonic() {
        let newer = CachedWeight {
            outcome: Ok(5),
            set_generation: 2,
            tree_generation: 3,
        };
        let older = CachedWeight {
            outcome: Ok(4),
            set_generation: 1,
            tree_generation: 3,
        };
        let incomparable = CachedWeight {
            outcome: Ok(6),
            set_generation: 3,
            tree_generation: 2,
        };
        let mut slot = Some(newer);
        merge_cell(&mut slot, older);
        assert_eq!(slot, Some(newer), "older stamps never overwrite");
        merge_cell(&mut slot, incomparable);
        assert_eq!(slot, Some(newer), "incomparable stamps keep the resident");
        merge_cell(
            &mut slot,
            CachedWeight {
                outcome: Ok(7),
                set_generation: 2,
                tree_generation: 4,
            },
        );
        assert_eq!(slot.expect("cell").outcome, Ok(7), "newer stamps replace");
    }
}
