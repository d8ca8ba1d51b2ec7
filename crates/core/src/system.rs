//! High-level facade: one shared tree backend (dense or pruned) plus the
//! mutable filter store `D̄` behind an `Arc`, with the unified
//! configuration — the API a downstream user starts from.
//!
//! The paper's framework (§3.2) is asymmetric: *one* tree serves a
//! database of millions of stored sets, concurrently. [`BstSystem`] is
//! therefore a cheap `Clone` handle (`Arc` bump) that is `Send + Sync`,
//! so worker threads each hold their own handle to the same tree and
//! store. Sets registered with the system ([`BstSystem::create`]) live in
//! a [`BstStore`] as counting filters — they support `insert_keys` *and*
//! `remove_keys` — and are queried by stable [`FilterId`] through
//! [`BstSystem::query_id`], which returns a generation-stamped [`Query`]
//! handle: mutations invalidate the handle's cached descent state, never
//! its correctness.
//!
//! ```
//! use bst_core::system::BstSystem;
//!
//! // Namespace of 100k ids, 90% target sampling accuracy.
//! let system = BstSystem::builder(100_000).accuracy(0.9).build();
//!
//! // Register a mutable set; it is addressed by id from now on.
//! let community = system.create((0..500u64).map(|i| i * 7)).unwrap();
//! let query = system.query_id(community).unwrap();
//! let mut rng = rand::thread_rng();
//! // Samples come from the set's positives (stored keys ∪ false positives).
//! let member = query.sample(&mut rng).unwrap();
//! assert!(system.get(community).unwrap().contains(member));
//!
//! // Members churn; the open handle sees the new state on its next call.
//! system.insert_keys(community, [99_999u64]).unwrap();
//! system.remove_keys(community, [0u64]).unwrap();
//! let rebuilt = query.reconstruct().unwrap();
//! assert!(rebuilt.binary_search(&99_999).is_ok());
//!
//! // The whole system — plan, tree, store, config — snapshots to bytes.
//! let restored = BstSystem::from_bytes(&system.to_bytes()).unwrap();
//! assert_eq!(restored.query_id(community).unwrap().reconstruct().unwrap(), rebuilt);
//! ```

use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::HashKind;
use bst_bloom::params::{self, TreePlan};
use bst_obs::Tracer;
use bytes::{BufMut, BytesMut};

use crate::backend::TreeBackend;
use crate::error::BstError;
use crate::metrics::OpStats;
use crate::persistence::{self, PersistError};
use crate::pruned::PrunedBloomSampleTree;
use crate::query::Query;
use crate::reconstruct::{BstReconstructor, ReconstructConfig};
use crate::sampler::{Liveness, QueryMemo, SamplerConfig};
use crate::store::{BstStore, FilterId};
use crate::tree::BloomSampleTree;
use crate::tree::SampleTree;

/// Magic bytes of a whole-system snapshot.
const SYSTEM_MAGIC: &[u8; 4] = b"BSTS";

/// Unified behaviour configuration for a [`BstSystem`]: the sampling and
/// reconstruction knobs in one place, set once at build time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BstConfig {
    /// Sampling behaviour (liveness rule, ratio estimator, correction).
    pub sampler: SamplerConfig,
    /// Reconstruction behaviour (pruning discipline).
    pub reconstruct: ReconstructConfig,
}

impl BstConfig {
    /// Both algorithms exactly as the paper describes them (§5.3, §5.6):
    /// threshold pruning and Papapetrou estimates. Use for reproducing
    /// the paper's operation counts.
    pub fn paper() -> Self {
        BstConfig {
            sampler: SamplerConfig::paper(),
            reconstruct: ReconstructConfig::paper(),
        }
    }

    /// Sound defaults plus auto-tuned rejection correction: provably
    /// near-uniform samples at the cost of ~γ walks per sample.
    pub fn corrected() -> Self {
        BstConfig {
            sampler: SamplerConfig::corrected(),
            reconstruct: ReconstructConfig::default(),
        }
    }

    /// Replaces the sampling configuration.
    pub fn with_sampler(mut self, sampler: SamplerConfig) -> Self {
        self.sampler = sampler;
        self
    }

    /// Checks both algorithm configurations, naming the broken invariant.
    pub fn validate(&self) -> Result<(), BstError> {
        self.sampler.validate()?;
        self.reconstruct.validate()
    }
}

/// Builder for a [`BstSystem`].
#[derive(Clone)]
pub struct BstSystemBuilder {
    namespace: u64,
    accuracy: f64,
    expected_set_size: u64,
    k: usize,
    kind: HashKind,
    seed: u64,
    cfg: BstConfig,
    depth_override: Option<u32>,
    occupied: Option<Vec<u64>>,
}

impl BstSystemBuilder {
    fn new(namespace: u64) -> Self {
        BstSystemBuilder {
            namespace,
            accuracy: 0.9,
            expected_set_size: 1000,
            k: params::DEFAULT_K,
            kind: HashKind::Murmur3,
            seed: 0,
            cfg: BstConfig::default(),
            depth_override: None,
            occupied: None,
        }
    }

    /// Target sampling accuracy in `(0, 1]` (drives the filter size `m`).
    pub fn accuracy(mut self, accuracy: f64) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// Typical stored-set size the accuracy target refers to.
    pub fn expected_set_size(mut self, n: u64) -> Self {
        self.expected_set_size = n;
        self
    }

    /// Number of hash functions (paper default: 3).
    pub fn hash_count(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Hash family (paper default configurations use Simple/Murmur3/MD5).
    pub fn hash_kind(mut self, kind: HashKind) -> Self {
        self.kind = kind;
        self
    }

    /// Seed for the shared hash family.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The full behaviour configuration in one call.
    pub fn config(mut self, cfg: BstConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Pins the tree depth instead of deriving it from the cost model.
    pub fn depth(mut self, depth: u32) -> Self {
        self.depth_override = Some(depth);
        self
    }

    /// Serve from a [`PrunedBloomSampleTree`] (§5.2) materialised only
    /// over `occupied` namespace ids, instead of the dense complete tree.
    /// Ids may arrive in any order and with duplicates; out-of-namespace
    /// ids are reported by [`Self::try_build`] as
    /// [`BstError::InvalidConfig`].
    pub fn pruned<I: IntoIterator<Item = u64>>(mut self, occupied: I) -> Self {
        self.occupied = Some(occupied.into_iter().collect());
        self
    }

    /// Resolves the plan and constructs the tree.
    ///
    /// # Panics
    /// Panics on an invalid configuration; [`Self::try_build`] returns the
    /// typed error instead.
    pub fn build(self) -> BstSystem {
        match self.try_build() {
            Ok(system) => system,
            // bst-lint: allow(L001) — documented `# Panics` contract; try_build is the fallible API
            Err(e) => panic!("invalid BstSystem configuration: {e}"),
        }
    }

    /// [`Self::build`], reporting configuration problems as
    /// [`BstError::InvalidConfig`] instead of panicking.
    pub fn try_build(self) -> Result<BstSystem, BstError> {
        self.cfg.validate()?;
        let mut plan = TreePlan::for_accuracy(
            self.namespace,
            self.expected_set_size,
            self.accuracy,
            self.k,
            self.kind,
            self.seed,
            128.0,
        );
        if let Some(d) = self.depth_override {
            plan.depth = d;
            plan.leaf_capacity = params::leaf_size(self.namespace, d);
        }
        if plan.kind == HashKind::DeltaBlocked && plan.m < bst_bloom::MIN_BLOCKED_BITS {
            return Err(BstError::InvalidConfig(
                "blocked layout needs m >= one 128-bit block; raise accuracy or set size",
            ));
        }
        let tree = match self.occupied {
            None => TreeBackend::dense(BloomSampleTree::build_with_threads(&plan, 0)),
            Some(mut occ) => {
                occ.sort_unstable();
                occ.dedup();
                if occ.last().is_some_and(|&last| last >= self.namespace) {
                    return Err(BstError::InvalidConfig("occupied id outside the namespace"));
                }
                TreeBackend::pruned(PrunedBloomSampleTree::build(&plan, &occ))
            }
        };
        let store = BstStore::new(Arc::clone(tree.hasher()), tree.namespace());
        Ok(BstSystem {
            shared: Arc::new(SystemShared {
                tree,
                cfg: self.cfg,
                store,
                tracer: Tracer::disabled(),
            }),
        })
    }
}

/// The tree backend, filter store and configuration every handle points
/// at.
pub(crate) struct SystemShared {
    pub(crate) tree: TreeBackend,
    pub(crate) cfg: BstConfig,
    pub(crate) store: BstStore,
    /// Observability facade every [`Query`] op reports spans into;
    /// disabled (one branch per op) until a recorder is installed.
    pub(crate) tracer: Tracer,
}

/// A ready-to-use sampling/reconstruction system over one namespace: a
/// tree backend (dense or pruned) plus the mutable filter store `D̄`.
///
/// Cloning is an `Arc` bump: all clones share one tree and one store, and
/// the handle is `Send + Sync`, so a server can hand one clone to each
/// worker thread. Per-filter operations go through [`Self::query`]
/// (detached filters) or [`Self::query_id`] (store-registered sets).
#[derive(Clone)]
pub struct BstSystem {
    shared: Arc<SystemShared>,
}

impl std::fmt::Debug for BstSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BstSystem({:?}, handles={})",
            self.shared.tree,
            Arc::strong_count(&self.shared)
        )
    }
}

impl BstSystem {
    /// Starts building a system over `[0, namespace)`.
    pub fn builder(namespace: u64) -> BstSystemBuilder {
        BstSystemBuilder::new(namespace)
    }

    /// The underlying tree backend (dense or pruned). Acquire a
    /// [`crate::backend::TreeView`] via [`TreeBackend::read`] to plug it
    /// into the sampler/reconstructor layers directly.
    pub fn tree(&self) -> &TreeBackend {
        &self.shared.tree
    }

    /// The system's mutable filter database `D̄`.
    pub fn filters(&self) -> &BstStore {
        &self.shared.store
    }

    /// The full behaviour configuration.
    pub fn config(&self) -> BstConfig {
        self.shared.cfg
    }

    /// The system's tracing facade. Disabled by default; while disabled
    /// every [`Query`] operation pays one relaxed atomic load and a
    /// branch, nothing more.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Installs (or with `None`, removes) the span recorder every
    /// [`Query`] operation on this system reports into.
    pub fn set_recorder(&self, recorder: Option<std::sync::Arc<dyn bst_obs::Recorder>>) {
        self.shared.tracer.set_recorder(recorder);
    }

    /// Stores a key set as a query Bloom filter compatible with the tree.
    pub fn store<I: IntoIterator<Item = u64>>(&self, keys: I) -> BloomFilter {
        self.shared.tree.query_filter(keys)
    }

    /// Opens a [`Query`] handle on `filter`: the filter is captured once
    /// and descent state (node liveness, descent weights, leaf matches,
    /// the corrected sampler's frontier cache) accumulates across
    /// operations, so repeated sampling or reconstruction of the same
    /// filter skips already-evaluated tree intersections.
    pub fn query(&self, filter: &BloomFilter) -> Query {
        Query::new(self.clone(), filter.clone())
    }

    /// [`Self::query`] taking ownership of the filter (no clone).
    pub fn query_owned(&self, filter: BloomFilter) -> Query {
        Query::new(self.clone(), filter)
    }

    /// The live-leaf weight of `filter` — exactly the count
    /// [`Query::live_weight`] reports, i.e. the number of elements
    /// [`Query::reconstruct`] would return — computed in one shot,
    /// without opening (and paying for) a full handle. Useful for
    /// weighing many filters whose descent state is not worth keeping,
    /// e.g. when filling an external weight cache such as the sharded
    /// engine's.
    pub fn live_weight(&self, filter: &BloomFilter) -> Result<u64, BstError> {
        self.live_weight_stamped(filter).0
    }

    /// [`Self::live_weight`] plus the tree generation it was computed at,
    /// read under the same tree view as the walk — so a caller caching
    /// the weight can key it to exactly the occupancy state it reflects.
    /// On hard errors the generation is still the view's and should not
    /// be used for caching.
    pub fn live_weight_stamped(&self, filter: &BloomFilter) -> (Result<u64, BstError>, u64) {
        let view = self.shared.tree.read();
        let generation = view.generation();
        if let Some(root) = view.root() {
            if !filter.compatible_with(view.filter(root)) {
                return (Err(BstError::IncompatibleFilter), generation);
            }
        }
        let recon = BstReconstructor::with_config(&view, self.shared.cfg.reconstruct);
        let mut memo = QueryMemo::new();
        let mut stats = OpStats::new();
        (
            recon.try_count_memo(filter, &mut memo, &mut stats),
            generation,
        )
    }

    /// Journal-replay hook for **external** weight memos: brings a
    /// live-leaf `weight` for `filter`, computed at tree generation
    /// `since` (by [`Self::live_weight_stamped`] or a handle's
    /// [`Query::live_weight`]), up to the current generation by replaying
    /// the tree's bounded mutation journal — an O(k) delta per mutation
    /// instead of a counting walk. Returns the repaired weight and the
    /// generation it is now valid at.
    ///
    /// Returns `None` whenever the delta is not provably exact: the
    /// reconstruction liveness is not the sound `BitOverlap` rule, the
    /// journal no longer covers the generation gap, or the collision
    /// census blocks the positives-equal-count identity (see
    /// [`crate::backend::TreeView::replay_count`]) — the caller must
    /// then recompute. Set churn is *not* covered: this hook repairs
    /// across occupancy mutations only, so callers tracking a stored set
    /// must separately discard on set-generation movement.
    pub fn repair_live_weight(
        &self,
        filter: &BloomFilter,
        since: u64,
        weight: u64,
    ) -> Option<(u64, u64)> {
        if self.shared.cfg.reconstruct.liveness != Liveness::BitOverlap {
            return None;
        }
        let view = self.shared.tree.read();
        let generation = view.generation();
        if generation == since {
            return Some((weight, generation));
        }
        view.replay_count(since, filter, weight)
            .map(|w| (w, generation))
    }

    // ------------------------------------------------------------------
    // The store facade: D̄ as id-addressed mutable sets.
    // ------------------------------------------------------------------

    /// Registers a mutable set over `keys` in the system's store,
    /// returning its stable [`FilterId`]. Keys outside the namespace are
    /// rejected as [`BstError::KeyOutsideNamespace`] (they could never be
    /// sampled or reconstructed) without creating anything.
    pub fn create<I: IntoIterator<Item = u64>>(&self, keys: I) -> Result<FilterId, BstError> {
        self.shared.store.create(keys)
    }

    /// Inserts `keys` into the stored set, bumping its generation (open
    /// [`Query`] handles re-descend cold on their next operation).
    /// Returns the new generation.
    pub fn insert_keys<I: IntoIterator<Item = u64>>(
        &self,
        id: FilterId,
        keys: I,
    ) -> Result<u64, BstError> {
        self.shared.store.insert_keys(id, keys)
    }

    /// Removes `keys` from the stored set (counting-filter semantics),
    /// bumping its generation. Returns the new generation.
    pub fn remove_keys<I: IntoIterator<Item = u64>>(
        &self,
        id: FilterId,
        keys: I,
    ) -> Result<u64, BstError> {
        self.shared.store.remove_keys(id, keys)
    }

    /// Projects the stored set to a plain [`BloomFilter`] snapshot.
    pub fn get(&self, id: FilterId) -> Result<BloomFilter, BstError> {
        self.shared.store.get(id)
    }

    /// Unregisters a stored set; its id is retired and open handles
    /// report [`BstError::UnknownFilterId`] from their next operation.
    pub fn drop_set(&self, id: FilterId) -> Result<(), BstError> {
        self.shared.store.drop_set(id)
    }

    /// Opens a generation-stamped [`Query`] handle on a stored set. The
    /// handle re-checks the stamp on every operation: if `insert_keys` /
    /// `remove_keys` moved the set past the handle's generation, the
    /// filter is re-projected and the memo discarded before the operation
    /// runs, so results are never computed against a superseded set.
    pub fn query_id(&self, id: FilterId) -> Result<Query, BstError> {
        let (filter, generation) = self.shared.store.snapshot(id)?;
        Ok(Query::new_stored(self.clone(), id, filter, generation))
    }

    // ------------------------------------------------------------------
    // Whole-system persistence.
    // ------------------------------------------------------------------

    /// Serializes the entire system — behaviour configuration, tree
    /// backend, and filter store (counting filters + generations) — into
    /// one snapshot buffer. Byte-deterministic for a given system state.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(SYSTEM_MAGIC);
        buf.put_u8(persistence::VERSION);
        persistence::put_sampler_config(&mut buf, &self.shared.cfg.sampler);
        persistence::put_reconstruct_config(&mut buf, &self.shared.cfg.reconstruct);
        // The v1 layout keeps a journal-cap slot; the cap is no longer
        // configurable, so the slot always carries the default.
        buf.put_u32_le(crate::pruned::DEFAULT_JOURNAL_CAP as u32);
        self.shared.tree.put_bytes(&mut buf);
        self.shared.store.put_bytes(&mut buf);
        buf.to_vec()
    }

    /// Restores a system serialized with [`Self::to_bytes`]: the same
    /// plan, tree bits, stored sets, generations and configuration, so
    /// samples and reconstructions match the original for the same RNG
    /// state and [`FilterId`]s remain valid addresses.
    pub fn from_bytes(input: &[u8]) -> Result<Self, BstError> {
        let mut input = input;
        persistence::check_header(&mut input, SYSTEM_MAGIC)?;
        let sampler = persistence::get_sampler_config(&mut input)?;
        let reconstruct = persistence::get_reconstruct_config(&mut input)?;
        if bytes::Buf::remaining(&input) < 4 {
            return Err(BstError::Persist(PersistError::Truncated));
        }
        let journal_cap = bytes::Buf::get_u32_le(&mut input);
        let cfg = BstConfig {
            sampler,
            reconstruct,
        };
        if journal_cap == 0 || cfg.validate().is_err() {
            return Err(PersistError::Corrupt("snapshot configuration invalid").into());
        }
        let tree = TreeBackend::get_bytes(&mut input)?;
        let store = BstStore::get_bytes(&mut input, Arc::clone(tree.hasher()), tree.namespace())?;
        if !input.is_empty() {
            return Err(BstError::Persist(PersistError::Corrupt(
                "trailing bytes after system snapshot",
            )));
        }
        Ok(BstSystem {
            shared: Arc::new(SystemShared {
                tree,
                cfg,
                store,
                tracer: Tracer::disabled(),
            }),
        })
    }

    // ------------------------------------------------------------------
    // Namespace occupancy (§5.2), pruned backends only.
    // ------------------------------------------------------------------

    /// Marks a namespace id occupied on the pruned backend (§5.2 dynamic
    /// insertion), bumping the tree generation when the occupancy
    /// actually changed so every open [`Query`] handle repairs its
    /// cached descent state along the mutated path on its next
    /// operation. Subtree weights are maintained by an O(depth) delta
    /// along the same path. Returns the resulting tree generation.
    ///
    /// Dense backends are fully occupied by construction and report
    /// [`BstError::ImmutableBackend`]; ids outside `[0, M)` report
    /// [`BstError::KeyOutsideNamespace`].
    pub fn insert_occupied(&self, id: u64) -> Result<u64, BstError> {
        self.shared.tree.insert_occupied(id)
    }

    /// Removes a namespace id from the pruned backend's occupied set
    /// (path filters are rebuilt exactly; emptied subtrees unlink),
    /// bumping the tree generation when the occupancy actually changed.
    /// Returns the resulting tree generation. Same failure modes as
    /// [`Self::insert_occupied`].
    pub fn remove_occupied(&self, id: u64) -> Result<u64, BstError> {
        self.shared.tree.remove_occupied(id)
    }

    /// Whether `id` is an occupied namespace element (exact; always true
    /// inside the namespace on a dense backend).
    pub fn contains_occupied(&self, id: u64) -> bool {
        self.shared.tree.contains_occupied(id)
    }

    /// Number of occupied namespace ids (the full namespace for a dense
    /// backend).
    pub fn occupied_count(&self) -> u64 {
        self.shared.tree.occupied_count()
    }

    /// All occupied namespace ids, ascending. `O(M)` on a dense backend —
    /// intended for pruned backends and small dense systems.
    pub fn occupied_ids(&self) -> Vec<u64> {
        self.shared.tree.occupied_ids()
    }

    /// The backend's current tree generation (0 forever on a dense
    /// backend; the occupancy-mutation count on a pruned one).
    pub fn tree_generation(&self) -> u64 {
        self.shared.tree.generation()
    }

    /// Whether the pruned backend's maintained subtree weights match a
    /// from-scratch recount (trivially true on a dense backend). The
    /// conformance and property suites use this as ground truth;
    /// `O(nodes)`, so not a hot-path call.
    pub fn weights_consistent(&self) -> bool {
        self.shared.tree.weights_consistent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builder_defaults_produce_working_system() {
        let sys = BstSystem::builder(50_000).build();
        let keys: Vec<u64> = (0..200u64).map(|i| i * 11).collect();
        let f = sys.store(keys.iter().copied());
        let q = sys.query(&f);
        let mut rng = StdRng::seed_from_u64(1);
        let s = q.sample(&mut rng).expect("sample");
        assert!(f.contains(s));
        let rec = q.reconstruct().expect("reconstruct");
        for k in &keys {
            assert!(rec.binary_search(k).is_ok());
        }
    }

    #[test]
    fn accuracy_touches_filter_size() {
        let lo = BstSystem::builder(100_000).accuracy(0.5).build();
        let hi = BstSystem::builder(100_000).accuracy(0.99).build();
        assert!(hi.tree().plan().m > lo.tree().plan().m);
    }

    #[test]
    fn depth_override_respected() {
        let sys = BstSystem::builder(10_000).depth(3).build();
        assert_eq!(sys.tree().depth(), 3);
        assert_eq!(sys.tree().node_count(), 15);
    }

    #[test]
    fn hash_kind_flows_through() {
        let sys = BstSystem::builder(10_000)
            .hash_kind(HashKind::Simple)
            .build();
        assert!(sys.tree().hasher().is_invertible());
    }

    #[test]
    fn blocked_layout_flows_through_and_round_trips() {
        let sys = BstSystem::builder(10_000)
            .hash_kind(HashKind::DeltaBlocked)
            .pruned((0..10_000).step_by(3))
            .build();
        assert_eq!(sys.tree().hasher().kind(), HashKind::DeltaBlocked);
        let f = sys.store((0..10_000).step_by(9));
        let recon = sys.query(&f).reconstruct().unwrap();
        assert!(recon.iter().all(|x| x % 3 == 0));
        // Snapshots carry the layout tag: the restored system keeps the
        // blocked hasher and reconstructs identically.
        let bytes = sys.to_bytes();
        let back = BstSystem::from_bytes(&bytes).unwrap();
        assert_eq!(back.tree().hasher().kind(), HashKind::DeltaBlocked);
        assert_eq!(back.query(&f).reconstruct().unwrap(), recon);
    }

    #[test]
    fn blocked_layout_rejects_sub_block_filters() {
        // Accuracy sizing for a tiny expected set yields m < 128 bits,
        // which the blocked geometry cannot address.
        assert!(matches!(
            BstSystem::builder(10_000)
                .hash_kind(HashKind::DeltaBlocked)
                .expected_set_size(1)
                .accuracy(0.5)
                .try_build(),
            Err(crate::error::BstError::InvalidConfig(_))
        ));
    }

    #[test]
    fn system_is_cheap_to_clone_and_threadsafe() {
        fn assert_traits<T: Clone + Send + Sync + 'static>() {}
        assert_traits::<BstSystem>();
        let sys = BstSystem::builder(10_000).build();
        let clone = sys.clone();
        // Clones share the identical tree allocation.
        assert!(std::ptr::eq(sys.tree(), clone.tree()));
    }

    #[test]
    fn unified_config_reaches_both_algorithms() {
        let sys = BstSystem::builder(10_000)
            .config(BstConfig::paper())
            .build();
        assert_eq!(sys.config().sampler, SamplerConfig::paper());
        assert_eq!(sys.config().reconstruct, ReconstructConfig::paper());
        // Partial setters keep the rest of the config intact.
        let sys2 = BstSystem::builder(10_000)
            .config(BstConfig::default().with_sampler(SamplerConfig::corrected()))
            .build();
        assert_eq!(sys2.config().sampler, SamplerConfig::corrected());
        assert_eq!(sys2.config().reconstruct, ReconstructConfig::default());
    }

    #[test]
    fn try_build_rejects_invalid_configs() {
        use crate::sampler::Correction;
        let bad_gamma = BstConfig::default().with_sampler(SamplerConfig {
            correction: Correction::Rejection { gamma: 0.5 },
            ..SamplerConfig::default()
        });
        assert!(matches!(
            BstSystem::builder(10_000).config(bad_gamma).try_build(),
            Err(crate::error::BstError::InvalidConfig(_))
        ));
        let bad_tau = BstConfig::default().with_sampler(SamplerConfig {
            liveness: crate::sampler::Liveness::EstimateThreshold(-1.0),
            ..SamplerConfig::default()
        });
        assert!(matches!(
            BstSystem::builder(10_000).config(bad_tau).try_build(),
            Err(crate::error::BstError::InvalidConfig(_))
        ));
        assert!(BstSystem::builder(10_000).try_build().is_ok());
    }

    #[test]
    fn sample_many_works_via_query_handle() {
        let sys = BstSystem::builder(10_000).build();
        let f = sys.store((0..100u64).map(|i| i * 3));
        let q = sys.query(&f);
        let mut rng = StdRng::seed_from_u64(2);
        let samples = q.sample_many(50, &mut rng).expect("sample_many");
        assert_eq!(samples.len(), 50);
        for s in samples {
            assert!(f.contains(s));
        }
    }

    #[test]
    fn occupancy_evolves_through_the_facade() {
        let occ: Vec<u64> = (0..10_000u64).step_by(4).collect();
        let sys = BstSystem::builder(10_000)
            .pruned(occ.iter().copied())
            .build();
        assert_eq!(sys.occupied_count(), occ.len() as u64);
        assert_eq!(sys.occupied_ids(), occ);
        assert_eq!(sys.tree_generation(), 0);
        assert!(!sys.contains_occupied(3));
        assert_eq!(sys.insert_occupied(3), Ok(1));
        assert!(sys.contains_occupied(3));
        assert_eq!(sys.insert_occupied(3), Ok(1), "no-op insert keeps gen");
        assert_eq!(sys.remove_occupied(0), Ok(2));
        assert_eq!(sys.occupied_count(), occ.len() as u64);
        assert_eq!(
            sys.insert_occupied(10_000),
            Err(BstError::KeyOutsideNamespace(10_000))
        );
        // Dense backends refuse occupancy mutations with a typed error.
        let dense = BstSystem::builder(10_000).build();
        assert_eq!(dense.insert_occupied(3), Err(BstError::ImmutableBackend));
        assert_eq!(dense.remove_occupied(3), Err(BstError::ImmutableBackend));
        assert_eq!(dense.occupied_count(), 10_000);
        assert_eq!(dense.tree_generation(), 0);
    }

    #[test]
    fn pruned_backend_serves_the_same_surface() {
        let occ: Vec<u64> = (0..10_000u64).step_by(7).collect();
        let sys = BstSystem::builder(10_000)
            .pruned(occ.iter().copied())
            .build();
        assert!(sys.tree().is_pruned());
        assert_eq!(sys.tree().occupied_count(), occ.len() as u64);
        let keys: Vec<u64> = occ.iter().copied().step_by(5).collect();
        let f = sys.store(keys.iter().copied());
        let q = sys.query(&f);
        let mut rng = StdRng::seed_from_u64(21);
        let s = q.sample(&mut rng).expect("sample");
        assert!(occ.binary_search(&s).is_ok(), "samples only occupied ids");
        let rec = q.reconstruct().expect("reconstruct");
        for k in &keys {
            assert!(rec.binary_search(k).is_ok());
        }
    }

    #[test]
    fn pruned_builder_sorts_dedups_and_validates() {
        let sys = BstSystem::builder(4_096)
            .expected_set_size(10)
            .pruned([50u64, 3, 50, 999, 3])
            .build();
        assert_eq!(sys.tree().occupied_count(), 3);
        assert!(matches!(
            BstSystem::builder(4_096)
                .expected_set_size(10)
                .pruned([4_096u64])
                .try_build(),
            Err(BstError::InvalidConfig(_))
        ));
    }

    #[test]
    fn store_facade_lifecycle_and_query_id() {
        let sys = BstSystem::builder(10_000).build();
        let id = sys
            .create((0..120u64).map(|i| i * 13 % 10_000))
            .expect("create");
        assert_eq!(sys.filters().len(), 1);
        let q = sys.query_id(id).expect("open");
        let mut rng = StdRng::seed_from_u64(4);
        let s = q.sample(&mut rng).expect("sample");
        assert!(sys.get(id).expect("get").contains(s));
        // Mutate through the facade; the handle refreshes transparently.
        sys.insert_keys(id, [4_242u64]).expect("insert");
        let rec = q.reconstruct().expect("reconstruct");
        assert!(rec.binary_search(&4_242).is_ok());
        assert_eq!(q.generation(), 1);
        sys.drop_set(id).expect("drop");
        assert_eq!(sys.query_id(id).err(), Some(BstError::UnknownFilterId(id)));
        assert!(sys.filters().is_empty());
    }

    #[test]
    fn system_snapshot_roundtrip_dense_and_pruned() {
        for pruned in [false, true] {
            let mut builder = BstSystem::builder(8_192)
                .expected_set_size(100)
                .seed(17)
                .config(BstConfig::corrected());
            if pruned {
                builder = builder.pruned((0..8_192u64).step_by(3));
            }
            let sys = builder.build();
            let a = sys
                .create((0..300u64).map(|i| i * 27 % 8_192))
                .expect("create");
            let b = sys
                .create((0..90u64).map(|i| i * 81 % 8_192))
                .expect("create");
            sys.remove_keys(a, [0u64, 27]).expect("remove");
            sys.drop_set(b).expect("drop");

            let bytes = sys.to_bytes();
            let restored = BstSystem::from_bytes(&bytes).expect("restore");
            assert_eq!(restored.config(), sys.config());
            assert_eq!(restored.tree().is_pruned(), pruned);
            assert_eq!(restored.tree().plan(), sys.tree().plan());
            assert_eq!(restored.filters().ids(), sys.filters().ids());
            assert_eq!(restored.filters().generation(a), Ok(1));

            // Same samples for the same RNG state, same reconstruction.
            let q1 = sys.query_id(a).expect("open");
            let q2 = restored.query_id(a).expect("open");
            let mut r1 = StdRng::seed_from_u64(5);
            let mut r2 = StdRng::seed_from_u64(5);
            for _ in 0..20 {
                assert_eq!(q1.sample(&mut r1), q2.sample(&mut r2));
            }
            assert_eq!(q1.reconstruct(), q2.reconstruct());
            // Snapshot determinism.
            assert_eq!(bytes, restored.to_bytes());
        }
    }

    #[test]
    fn snapshot_decode_rejects_garbage() {
        let sys = BstSystem::builder(4_096).build();
        let bytes = sys.to_bytes();
        assert_eq!(
            BstSystem::from_bytes(&bytes[..10]).err(),
            Some(BstError::Persist(
                crate::persistence::PersistError::Truncated
            ))
        );
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(
            BstSystem::from_bytes(&wrong).err(),
            Some(BstError::Persist(
                crate::persistence::PersistError::BadMagic
            ))
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            BstSystem::from_bytes(&trailing).err(),
            Some(BstError::Persist(
                crate::persistence::PersistError::Corrupt(_)
            ))
        ));
    }
}
