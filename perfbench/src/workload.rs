//! Workload definitions: seeded inputs, engine set-up, and the request
//! generator every run (untraced, traced, replay) draws from.
//!
//! Everything here is a pure function of the workload and `--seed`: two
//! generators built from the same seed emit the same request sequence,
//! which is what lets the traced run replay the wire requests in-process
//! on twin engines.

use std::collections::{HashSet, VecDeque};
use std::path::Path;
use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::BloomHasher;
use bst_core::store::FilterId;
use bst_core::{BstConfig, BstError, OpStats};
use bst_server::protocol::{Request, Target as WireTarget};
use bst_shard::{DurableBstSystem, DurableConfig, ShardedBstSystem};
use bst_workloads::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shards in every workload's engine.
pub const SHARDS: usize = 4;
/// Hash seed of every engine (part of the system's configuration, not
/// of the workload; the workload seed only shapes the inputs).
const ENGINE_SEED: u64 = 0x0b57_2017;
/// `r` of every `SAMPLE_MANY`.
pub const SAMPLE_MANY_R: u32 = 16;
/// Hot stored sets of warm-read: the Zipf support, and the ids each
/// warm-read `BATCH` addresses.
pub const WARM_HOT: usize = 32;
/// Zipf exponent of warm-read's target draw.
const WARM_ZIPF_S: f64 = 1.0;
/// Keys of a cold-read ad-hoc `RECONSTRUCT` filter.
const COLD_RECON_KEYS: usize = 1000;
/// Filters in a cold-read `BATCH`, and keys per filter.
const COLD_BATCH: usize = 8;
const COLD_BATCH_KEYS: usize = 200;
/// Ids in a durable-churn `BATCH`.
const CHURN_BATCH: usize = 32;
/// Keys per durable-churn `INSERT_KEYS` / `REMOVE_KEYS`.
const CHURN_KEYS: usize = 4;
/// Keys of a small set durable-churn creates (and later drops).
const CHURN_SMALL_SET: usize = 32;
/// Small sets alive at once before durable-churn drops the oldest.
const CHURN_EXTRA_SETS: usize = 2;
/// Vacated ids waiting to be re-occupied before the generator forces an
/// `OCC_INSERT`, so occupancy does not drift.
const CHURN_PENDING_OCC: usize = 4;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmRead,
    ColdRead,
    DurableChurn,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "warm-read" => Some(Workload::WarmRead),
            "cold-read" => Some(Workload::ColdRead),
            "durable-churn" => Some(Workload::DurableChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmRead => "warm-read",
            Workload::ColdRead => "cold-read",
            Workload::DurableChurn => "durable-churn",
        }
    }

    pub fn namespace(self) -> u64 {
        match self {
            Workload::WarmRead => 1 << 18,
            Workload::ColdRead | Workload::DurableChurn => 1 << 16,
        }
    }

    pub fn sets(self) -> usize {
        match self {
            Workload::WarmRead => 256,
            Workload::ColdRead => 4096,
            Workload::DurableChurn => 64,
        }
    }

    pub fn set_size(self) -> usize {
        match self {
            Workload::WarmRead | Workload::DurableChurn => 1000,
            Workload::ColdRead => 200,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::DurableChurn
    }

    /// Requests sent before the timed phase starts.
    pub fn warmup_requests(self) -> usize {
        match self {
            Workload::WarmRead => 1500,
            Workload::ColdRead => 30,
            Workload::DurableChurn => 1000,
        }
    }

    /// The workload's parameters, for the result metadata.
    pub fn describe(self) -> String {
        let mix = match self {
            Workload::WarmRead => format!(
                "65% SAMPLE, 20% SAMPLE_MANY r={SAMPLE_MANY_R}, 10% BATCH of the {WARM_HOT} hot ids, \
                 5% RECONSTRUCT; targets Zipf(s={WARM_ZIPF_S}) over the {WARM_HOT} hottest sets"
            ),
            Workload::ColdRead => format!(
                "1/3 SAMPLE of a stored set uniform over all sets, 1/3 RECONSTRUCT of a fresh \
                 {COLD_RECON_KEYS}-key ad-hoc filter, 1/3 BATCH of {COLD_BATCH} fresh \
                 {COLD_BATCH_KEYS}-key ad-hoc filters"
            ),
            Workload::DurableChurn => format!(
                "40% SAMPLE (of the set written most recently and not read since), 10% BATCH of {CHURN_BATCH} ids, 20% INSERT_KEYS of {CHURN_KEYS}, \
                 15% REMOVE_KEYS of earlier inserts, 13% OCC_REMOVE/OCC_INSERT pairs, \
                 2% CREATE/DROP_SET of {CHURN_SMALL_SET}-key sets; fsync=Never, \
                 checkpoint_every={}",
                DurableConfig::default().checkpoint_every
            ),
        };
        format!(
            "{{\"namespace\": {}, \"shards\": {SHARDS}, \"occupied_share\": 0.75, \
             \"stored_sets\": {}, \"set_size\": {}, \"mix\": \"{mix}\"}}",
            self.namespace(),
            self.sets(),
            self.set_size()
        )
    }
}

/// Fisher-Yates over the first `take` positions (a uniform `take`-subset).
fn partial_shuffle<T>(v: &mut [T], take: usize, rng: &mut StdRng) {
    for i in 0..take.min(v.len()) {
        let j = rng.gen_range(i..v.len());
        v.swap(i, j);
    }
}

/// `n` distinct elements of `pool`, drawn uniformly.
fn distinct_from(pool: &[u64], n: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let x = pool[rng.gen_range(0..pool.len())];
        if seen.insert(x) {
            out.push(x);
        }
    }
    out
}

/// The seeded inputs of one run: occupancy and the stored sets' keys.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Occupied ids, ascending (exactly 3/4 of the namespace).
    pub occupied: Vec<u64>,
    /// Keys of every stored set, in creation order.
    pub sets: Vec<Vec<u64>>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7e_5eed_0000_0001);
        let m = workload.namespace();
        let mut ids: Vec<u64> = (0..m).collect();
        let occ_n = (m as usize) * 3 / 4;
        partial_shuffle(&mut ids, occ_n, &mut rng);
        let mut occupied = ids[..occ_n].to_vec();
        occupied.sort_unstable();
        let sets = (0..workload.sets())
            .map(|_| {
                let mut keys = distinct_from(&occupied, workload.set_size(), &mut rng);
                keys.sort_unstable();
                keys
            })
            .collect();
        Inputs {
            workload,
            seed,
            occupied,
            sets,
        }
    }

    /// A fresh engine over the workload's occupancy, no sets yet.
    pub fn build_engine(&self) -> ShardedBstSystem {
        ShardedBstSystem::builder(self.workload.namespace())
            .shards(SHARDS)
            .seed(ENGINE_SEED)
            .config(BstConfig::corrected())
            .occupied(self.occupied.iter().copied())
            .build()
    }

    /// A plain engine with every stored set created (ids 0..sets).
    pub fn populated_engine(&self) -> ShardedBstSystem {
        let sys = self.build_engine();
        for keys in &self.sets {
            sys.create(keys.iter().copied())
                .expect("stored set keys are inside the namespace");
        }
        sys
    }

    /// A durable engine in `dir` (which must not exist yet) with the first
    /// `sets` stored sets created through the log.
    pub fn populated_durable(&self, dir: &Path, sets: usize) -> DurableBstSystem {
        let durable = DurableBstSystem::open(dir, DurableConfig::default(), || self.build_engine())
            .expect("open a fresh WAL directory");
        for keys in self.sets.iter().take(sets) {
            durable
                .create(keys.iter().copied())
                .expect("stored set keys are inside the namespace");
        }
        durable
    }
}

/// A request target: a stored set or an ad-hoc filter (kept both decoded
/// and encoded, so neither encoding nor building falls inside a timed
/// interval).
#[derive(Clone)]
pub enum Target {
    Stored(u64),
    Adhoc(Arc<Adhoc>),
}

pub struct Adhoc {
    pub filter: BloomFilter,
    pub bytes: Vec<u8>,
}

impl Target {
    pub fn to_wire(&self) -> WireTarget {
        match self {
            Target::Stored(id) => WireTarget::Stored(*id),
            Target::Adhoc(a) => WireTarget::Adhoc(a.bytes.clone()),
        }
    }
}

/// Serves a `BATCH` in-process the way the server's handler does: stored
/// ids through `query_batch_ids`, ad-hoc filters through `query_batch`,
/// both with the request's seed, answers back in request order.
pub fn local_batch(
    sys: &ShardedBstSystem,
    targets: &[Target],
    seed: u64,
) -> (Vec<Result<u64, BstError>>, OpStats) {
    let (mut ids, mut filters) = (Vec::new(), Vec::new());
    for t in targets {
        match t {
            Target::Stored(id) => ids.push(FilterId::from_raw(*id)),
            Target::Adhoc(a) => filters.push(a.filter.clone()),
        }
    }
    let mut stats = OpStats::new();
    let mut stored = Vec::new().into_iter();
    if !ids.is_empty() {
        let (answers, s) = sys.query_batch_ids(&ids, seed, 0);
        stats += s;
        stored = answers.into_iter();
    }
    let mut adhoc = Vec::new().into_iter();
    if !filters.is_empty() {
        let (answers, s) = sys.query_batch(&filters, seed, 0);
        stats += s;
        adhoc = answers.into_iter();
    }
    let answers = targets
        .iter()
        .map(|t| {
            match t {
                Target::Stored(_) => stored.next(),
                Target::Adhoc(_) => adhoc.next(),
            }
            .expect("one answer per slot")
        })
        .collect();
    (answers, stats)
}

/// Request types, as the latency metrics group them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Sample,
    SampleMany,
    Batch,
    Reconstruct,
    Write,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Sample,
        Kind::SampleMany,
        Kind::Batch,
        Kind::Reconstruct,
        Kind::Write,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Sample => "sample",
            Kind::SampleMany => "sample_many",
            Kind::Batch => "batch",
            Kind::Reconstruct => "reconstruct",
            Kind::Write => "write",
        }
    }
}

/// One generated request.
#[derive(Clone)]
pub enum Op {
    Sample { target: Target, seed: u64 },
    SampleMany { target: Target, seed: u64 },
    Batch { targets: Vec<Target>, seed: u64 },
    Reconstruct { target: Target },
    InsertKeys { id: u64, keys: Vec<u64> },
    RemoveKeys { id: u64, keys: Vec<u64> },
    OccInsert { key: u64 },
    OccRemove { key: u64 },
    Create { keys: Vec<u64>, expect_id: u64 },
    DropSet { id: u64 },
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Sample { .. } => Kind::Sample,
            Op::SampleMany { .. } => Kind::SampleMany,
            Op::Batch { .. } => Kind::Batch,
            Op::Reconstruct { .. } => Kind::Reconstruct,
            _ => Kind::Write,
        }
    }

    pub fn to_request(&self) -> Request {
        match self {
            Op::Sample { target, seed } => Request::Sample {
                target: target.to_wire(),
                seed: *seed,
            },
            Op::SampleMany { target, seed } => Request::SampleMany {
                target: target.to_wire(),
                r: SAMPLE_MANY_R,
                seed: *seed,
            },
            Op::Batch { targets, seed } => Request::Batch {
                targets: targets.iter().map(Target::to_wire).collect(),
                seed: *seed,
            },
            Op::Reconstruct { target } => Request::Reconstruct {
                target: target.to_wire(),
            },
            Op::InsertKeys { id, keys } => Request::InsertKeys {
                id: *id,
                keys: keys.clone(),
            },
            Op::RemoveKeys { id, keys } => Request::RemoveKeys {
                id: *id,
                keys: keys.clone(),
            },
            Op::OccInsert { key } => Request::OccInsert { key: *key },
            Op::OccRemove { key } => Request::OccRemove { key: *key },
            Op::Create { keys, .. } => Request::Create { keys: keys.clone() },
            Op::DropSet { id } => Request::DropSet { id: *id },
        }
    }

    /// Bytes of user keys and ids a write carries (the write-amplification
    /// base); 0 for reads.
    pub fn user_bytes(&self) -> u64 {
        match self {
            Op::InsertKeys { keys, .. } | Op::RemoveKeys { keys, .. } => 8 + 8 * keys.len() as u64,
            Op::Create { keys, .. } => 8 * keys.len() as u64,
            Op::OccInsert { .. } | Op::OccRemove { .. } | Op::DropSet { .. } => 8,
            _ => 0,
        }
    }

    /// Applies a write to a plain engine (the twins); reads are a no-op.
    pub fn apply(&self, sys: &ShardedBstSystem) -> Result<(), String> {
        let r = match self {
            Op::InsertKeys { id, keys } => sys.insert_keys(FilterId::from_raw(*id), keys.clone()),
            Op::RemoveKeys { id, keys } => sys.remove_keys(FilterId::from_raw(*id), keys.clone()),
            Op::OccInsert { key } => sys.insert_occupied(*key).map(|_| ()),
            Op::OccRemove { key } => sys.remove_occupied(*key).map(|_| ()),
            Op::Create { keys, expect_id } => match sys.create(keys.clone()) {
                Ok(id) if id.raw() == *expect_id => Ok(()),
                Ok(id) => {
                    return Err(format!(
                        "twin CREATE gave id {}, wanted {expect_id}",
                        id.raw()
                    ))
                }
                Err(e) => Err(e),
            },
            Op::DropSet { id } => sys.drop_set(FilterId::from_raw(*id)),
            _ => Ok(()),
        };
        r.map_err(|e| format!("twin write failed: {e}"))
    }

    /// Applies a write through a durable engine.
    pub fn apply_durable(&self, d: &DurableBstSystem) -> Result<(), String> {
        let r = match self {
            Op::InsertKeys { id, keys } => d.insert_keys(FilterId::from_raw(*id), keys.clone()),
            Op::RemoveKeys { id, keys } => d.remove_keys(FilterId::from_raw(*id), keys.clone()),
            Op::OccInsert { key } => d.insert_occupied(*key).map(|_| ()),
            Op::OccRemove { key } => d.remove_occupied(*key).map(|_| ()),
            Op::Create { keys, expect_id } => match d.create(keys.clone()) {
                Ok(id) if id.raw() == *expect_id => Ok(()),
                Ok(id) => {
                    return Err(format!(
                        "durable CREATE gave id {}, wanted {expect_id}",
                        id.raw()
                    ))
                }
                Err(e) => Err(e),
            },
            Op::DropSet { id } => d.drop_set(FilterId::from_raw(*id)),
            _ => Ok(()),
        };
        r.map_err(|e| format!("durable write failed: {e}"))
    }
}

/// What the generator knows about the engine's state: occupancy and
/// each live stored set's keys. Reads are checked against it.
pub struct Model {
    pub occupied: Vec<bool>,
    /// Keys of each stored set, by raw id (`None` once dropped).
    pub keys: Vec<Option<HashSet<u64>>>,
}

impl Model {
    pub fn is_occupied(&self, key: u64) -> bool {
        self.occupied.get(key as usize).copied().unwrap_or(false)
    }

    pub fn live_ids(&self) -> Vec<u64> {
        (0..self.keys.len() as u64)
            .filter(|&id| self.keys[id as usize].is_some())
            .collect()
    }
}

/// The seeded request generator. It updates its [`Model`] as it emits
/// writes, so the emitted sequence depends on the seed alone.
pub struct Gen {
    workload: Workload,
    rng: StdRng,
    zipf: Zipf,
    hasher: Arc<BloomHasher>,
    occupied_list: Vec<u64>,
    pub model: Model,
    /// Keys the generator inserted into each base set, removable later.
    inserted: Vec<Vec<u64>>,
    /// Base sets written since their last `SAMPLE`, oldest first.
    unread: Vec<u64>,
    pending_occ: VecDeque<u64>,
    extra_sets: VecDeque<u64>,
    next_id: u64,
    seq: u64,
}

impl Gen {
    /// A generator over `inputs`; `proto` is any engine built from them
    /// (it supplies the Bloom parameters of ad-hoc filters).
    pub fn new(inputs: &Inputs, proto: &ShardedBstSystem) -> Self {
        let m = inputs.workload.namespace() as usize;
        let mut occupied = vec![false; m];
        for &x in &inputs.occupied {
            occupied[x as usize] = true;
        }
        let keys = inputs
            .sets
            .iter()
            .map(|k| Some(k.iter().copied().collect()))
            .collect();
        Gen {
            workload: inputs.workload,
            rng: StdRng::seed_from_u64(inputs.seed ^ 0x9e37_79b9_7f4a_7c15),
            zipf: Zipf::new(WARM_HOT as u64, WARM_ZIPF_S),
            hasher: proto.store(std::iter::empty()).hasher().clone(),
            occupied_list: inputs.occupied.clone(),
            model: Model { occupied, keys },
            inserted: vec![Vec::new(); inputs.sets.len()],
            unread: Vec::new(),
            pending_occ: VecDeque::new(),
            extra_sets: VecDeque::new(),
            next_id: inputs.sets.len() as u64,
            seq: 0,
        }
    }

    /// The hottest warm-read set (Zipf rank 1).
    pub fn hottest(&self) -> u64 {
        0
    }

    fn request_seed(&mut self) -> u64 {
        self.seq += 1;
        self.rng.gen::<u64>() ^ self.seq
    }

    fn adhoc(&mut self, n: usize) -> Target {
        let keys = distinct_from(&self.occupied_list, n, &mut self.rng);
        let filter = BloomFilter::from_keys(self.hasher.clone(), keys);
        let bytes = bst_bloom::codec::encode(&filter).to_vec();
        Target::Adhoc(Arc::new(Adhoc { filter, bytes }))
    }

    fn hot(&mut self) -> Target {
        Target::Stored(self.zipf.sample(&mut self.rng) - 1)
    }

    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::WarmRead => self.warm(),
            Workload::ColdRead => self.cold(),
            Workload::DurableChurn => self.churn(),
        }
    }

    fn warm(&mut self) -> Op {
        let u: f64 = self.rng.gen();
        let seed = self.request_seed();
        if u < 0.65 {
            Op::Sample {
                target: self.hot(),
                seed,
            }
        } else if u < 0.85 {
            Op::SampleMany {
                target: self.hot(),
                seed,
            }
        } else if u < 0.95 {
            let mut ids: Vec<u64> = (0..WARM_HOT as u64).collect();
            partial_shuffle(&mut ids, WARM_HOT, &mut self.rng);
            Op::Batch {
                targets: ids.into_iter().map(Target::Stored).collect(),
                seed,
            }
        } else {
            Op::Reconstruct { target: self.hot() }
        }
    }

    fn cold(&mut self) -> Op {
        let seed = self.request_seed();
        match self.seq % 3 {
            1 => Op::Sample {
                target: Target::Stored(self.rng.gen_range(0..self.workload.sets() as u64)),
                seed,
            },
            2 => Op::Reconstruct {
                target: self.adhoc(COLD_RECON_KEYS),
            },
            _ => Op::Batch {
                targets: (0..COLD_BATCH)
                    .map(|_| self.adhoc(COLD_BATCH_KEYS))
                    .collect(),
                seed,
            },
        }
    }

    fn note_unread(&mut self, id: u64) {
        self.unread.retain(|&x| x != id);
        self.unread.push(id);
    }

    fn base_id(&mut self) -> u64 {
        self.rng.gen_range(0..self.workload.sets() as u64)
    }

    fn churn(&mut self) -> Op {
        let u: f64 = self.rng.gen();
        let seed = self.request_seed();
        if u < 0.40 {
            // Read a set written since it was last read, newest first, so
            // the read pays for the write's invalidation.
            let id = match self.unread.pop() {
                Some(id) => id,
                None => self.base_id(),
            };
            return Op::Sample {
                target: Target::Stored(id),
                seed,
            };
        }
        if u < 0.50 {
            let mut ids: Vec<u64> = (0..self.workload.sets() as u64).collect();
            partial_shuffle(&mut ids, CHURN_BATCH, &mut self.rng);
            ids.truncate(CHURN_BATCH);
            return Op::Batch {
                targets: ids.into_iter().map(Target::Stored).collect(),
                seed,
            };
        }
        if u < 0.85 {
            let id = self.base_id();
            if u >= 0.70 && !self.inserted[id as usize].is_empty() {
                let list = &mut self.inserted[id as usize];
                let keep = list.len().saturating_sub(CHURN_KEYS);
                let keys = list.split_off(keep);
                let set = self.model.keys[id as usize]
                    .as_mut()
                    .expect("base sets live");
                for k in &keys {
                    set.remove(k);
                }
                self.note_unread(id);
                return Op::RemoveKeys { id, keys };
            }
            let m = self.workload.namespace();
            let mut keys = Vec::with_capacity(CHURN_KEYS);
            while keys.len() < CHURN_KEYS {
                let k = self.rng.gen_range(0..m);
                let set = self.model.keys[id as usize]
                    .as_mut()
                    .expect("base sets live");
                if set.insert(k) {
                    keys.push(k);
                }
            }
            self.inserted[id as usize].extend(&keys);
            self.note_unread(id);
            return Op::InsertKeys { id, keys };
        }
        if u < 0.98 {
            let reinsert = self.pending_occ.len() >= CHURN_PENDING_OCC
                || (!self.pending_occ.is_empty() && self.rng.gen::<bool>());
            if reinsert {
                let key = self.pending_occ.pop_front().expect("non-empty");
                self.model.occupied[key as usize] = true;
                return Op::OccInsert { key };
            }
            loop {
                let key = self.occupied_list[self.rng.gen_range(0..self.occupied_list.len())];
                if self.model.occupied[key as usize] {
                    self.model.occupied[key as usize] = false;
                    self.pending_occ.push_back(key);
                    return Op::OccRemove { key };
                }
            }
        }
        if self.extra_sets.len() < CHURN_EXTRA_SETS {
            let mut keys = distinct_from(&self.occupied_list, CHURN_SMALL_SET, &mut self.rng);
            keys.sort_unstable();
            let id = self.next_id;
            self.next_id += 1;
            self.extra_sets.push_back(id);
            self.model.keys.push(Some(keys.iter().copied().collect()));
            self.inserted.push(Vec::new());
            Op::Create {
                keys,
                expect_id: id,
            }
        } else {
            let id = self.extra_sets.pop_front().expect("non-empty");
            self.model.keys[id as usize] = None;
            Op::DropSet { id }
        }
    }
}
