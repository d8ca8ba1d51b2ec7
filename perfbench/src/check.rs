//! The correctness gate: every wire answer is checked against the
//! workload's model and a twin engine that receives the same writes.
//!
//! * A drawn key must be a positive of its target's filter and occupied.
//! * A `RECONSTRUCT` must equal the brute force
//!   `{occupied x : filter.contains(x)}` — the paper's exact definition.
//! * Every `replay_every`-th `SAMPLE` / `SAMPLE_MANY` / `BATCH` is
//!   replayed in-process on the twin with the same seed and must be
//!   bit-identical to the wire draw.
//! * A write must be acknowledged with the expected reply shape.

use std::collections::HashMap;
use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_core::store::FilterId;
use bst_server::protocol::{Response, WireError};
use bst_shard::{ShardQuery, ShardedBstSystem};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::util::Fifo;
use crate::workload::{local_batch, Model, Op, Target, SAMPLE_MANY_R};

/// Handles the twin keeps open for replays (as many as a server session).
const TWIN_HANDLES: usize = 64;

pub struct Checker {
    pub twin: ShardedBstSystem,
    filters: HashMap<u64, Arc<Vec<BloomFilter>>>,
    handles: Fifo<u64, ShardQuery>,
    /// Brute-force reconstructions of stored sets, valid while the set
    /// and occupancy are unchanged (static workloads only).
    reconstructed: HashMap<u64, Vec<u64>>,
    replay_every: u64,
    replayable: u64,
    pub replays: u64,
}

impl Checker {
    pub fn new(twin: ShardedBstSystem, replay_every: u64) -> Self {
        Checker {
            twin,
            filters: HashMap::new(),
            handles: Fifo::new(TWIN_HANDLES),
            reconstructed: HashMap::new(),
            replay_every,
            replayable: 0,
            replays: 0,
        }
    }

    /// The filter each shard answers `target` with: a stored set is
    /// partitioned across shards, each part in its own filter; an ad-hoc
    /// filter is the same on every shard.
    pub fn shard_filters(&mut self, target: &Target) -> Result<Arc<Vec<BloomFilter>>, String> {
        match target {
            Target::Adhoc(a) => Ok(Arc::new(vec![a.filter.clone(); self.twin.shard_count()])),
            Target::Stored(id) => {
                if let Some(f) = self.filters.get(id) {
                    return Ok(f.clone());
                }
                let q = self
                    .twin
                    .query_id(FilterId::from_raw(*id))
                    .map_err(|e| format!("twin has no set {id}: {e}"))?;
                let f = Arc::new(
                    q.shard_handles()
                        .iter()
                        .map(|h| h.filter())
                        .collect::<Vec<_>>(),
                );
                self.filters.insert(*id, f.clone());
                Ok(f)
            }
        }
    }

    fn positive(&mut self, target: &Target, key: u64, model: &Model) -> Result<(), String> {
        if !model.is_occupied(key) {
            return Err(format!("drawn key {key} is not occupied"));
        }
        if !self.shard_filters(target)?[self.twin.shard_of(key)].contains(key) {
            return Err(format!("drawn key {key} is not a positive of its target"));
        }
        Ok(())
    }

    /// `{occupied x : filter.contains(x)}`, ascending, each `x` tested
    /// against the filter of the shard that owns it.
    pub fn brute_force(&mut self, target: &Target, model: &Model) -> Result<Vec<u64>, String> {
        let filters = self.shard_filters(target)?;
        let bounds = self.twin.boundaries();
        let mut out = Vec::new();
        for (s, filter) in filters.iter().enumerate() {
            out.extend(
                (bounds[s]..bounds[s + 1]).filter(|&x| model.is_occupied(x) && filter.contains(x)),
            );
        }
        Ok(out)
    }

    /// Brute force, memoised per stored set (valid only while the engine
    /// is static, as on the read-only workloads).
    pub fn brute_force_static(
        &mut self,
        target: &Target,
        model: &Model,
    ) -> Result<Vec<u64>, String> {
        match target {
            Target::Stored(id) => {
                if let Some(keys) = self.reconstructed.get(id) {
                    return Ok(keys.clone());
                }
                let keys = self.brute_force(target, model)?;
                self.reconstructed.insert(*id, keys.clone());
                Ok(keys)
            }
            Target::Adhoc(_) => self.brute_force(target, model),
        }
    }

    fn replay_due(&mut self) -> bool {
        self.replayable += 1;
        self.replayable.is_multiple_of(self.replay_every)
    }

    /// Runs `f` on the twin's handle for `target` (stored handles stay
    /// open across calls, as in a server session).
    fn with_twin_handle<T>(
        &mut self,
        target: &Target,
        f: impl FnOnce(&ShardQuery) -> T,
    ) -> Result<T, String> {
        match target {
            Target::Adhoc(a) => Ok(f(&self.twin.query(&a.filter))),
            Target::Stored(id) => {
                let twin = &self.twin;
                self.handles
                    .get_or_open(*id, || twin.query_id(FilterId::from_raw(*id)))
                    .map(f)
                    .map_err(|e| format!("twin cannot open set {id}: {e}"))
            }
        }
    }

    /// Checks one wire answer. `static_engine` allows memoised brute
    /// force for stored-set reconstructions.
    pub fn check(
        &mut self,
        op: &Op,
        reply: Result<Response, String>,
        model: &Model,
        static_engine: bool,
    ) -> Result<(), String> {
        let reply = reply?;
        match (op, reply) {
            (Op::Sample { target, seed }, Response::Sampled { key }) => {
                self.positive(target, key, model)?;
                if self.replay_due() {
                    self.replays += 1;
                    let local = self
                        .with_twin_handle(target, |q| q.sample(&mut StdRng::seed_from_u64(*seed)))?
                        .map_err(|e| format!("twin SAMPLE failed: {e}"))?;
                    if local != key {
                        return Err(format!("SAMPLE replay drew {local}, wire drew {key}"));
                    }
                }
                Ok(())
            }
            (Op::SampleMany { target, seed }, Response::Keys { keys }) => {
                if keys.is_empty() || keys.len() > SAMPLE_MANY_R as usize {
                    return Err(format!("SAMPLE_MANY returned {} keys", keys.len()));
                }
                for &k in &keys {
                    self.positive(target, k, model)?;
                }
                if self.replay_due() {
                    self.replays += 1;
                    let local = self
                        .with_twin_handle(target, |q| {
                            q.sample_many(SAMPLE_MANY_R as usize, &mut StdRng::seed_from_u64(*seed))
                        })?
                        .map_err(|e| format!("twin SAMPLE_MANY failed: {e}"))?;
                    if local != keys {
                        return Err("SAMPLE_MANY replay differs from the wire draw".into());
                    }
                }
                Ok(())
            }
            (Op::Batch { targets, seed }, Response::Batch { results }) => {
                if results.len() != targets.len() {
                    return Err(format!(
                        "BATCH of {} answered {} slots",
                        targets.len(),
                        results.len()
                    ));
                }
                let mut keys = Vec::with_capacity(results.len());
                for (t, r) in targets.iter().zip(results) {
                    let key = r.map_err(|e: WireError| format!("BATCH slot failed: {e}"))?;
                    self.positive(t, key, model)?;
                    keys.push(key);
                }
                if self.replay_due() {
                    self.replays += 1;
                    let local = self.replay_batch(targets, *seed)?;
                    if local != keys {
                        return Err("BATCH replay differs from the wire draw".into());
                    }
                }
                Ok(())
            }
            (Op::Reconstruct { target }, Response::Keys { keys }) => {
                let want = if static_engine {
                    self.brute_force_static(target, model)?
                } else {
                    self.brute_force(target, model)?
                };
                if keys != want {
                    return Err(format!(
                        "RECONSTRUCT returned {} keys, brute force finds {}",
                        keys.len(),
                        want.len()
                    ));
                }
                Ok(())
            }
            (Op::Create { expect_id, .. }, Response::Created { id }) if id == *expect_id => Ok(()),
            (Op::InsertKeys { .. } | Op::RemoveKeys { .. } | Op::DropSet { .. }, Response::Ok) => {
                Ok(())
            }
            (Op::OccInsert { .. } | Op::OccRemove { .. }, Response::Generation { .. }) => Ok(()),
            (op, reply) => Err(format!(
                "unexpected reply {reply:?} to a {} request",
                op.kind().name()
            )),
        }
    }

    /// The batch the twin draws for `targets` with `seed`.
    pub fn replay_batch(&mut self, targets: &[Target], seed: u64) -> Result<Vec<u64>, String> {
        local_batch(&self.twin, targets, seed)
            .0
            .into_iter()
            .map(|r| r.map_err(|e| format!("twin BATCH slot failed: {e}")))
            .collect()
    }

    /// Applies an acknowledged write to the twin and forgets whatever it
    /// made stale.
    pub fn note_write(&mut self, op: &Op) -> Result<(), String> {
        op.apply(&self.twin)?;
        self.forget(op);
        Ok(())
    }

    /// Forgets what a write (already applied to the twin) made stale.
    pub fn forget(&mut self, op: &Op) {
        match op {
            Op::InsertKeys { id, .. } | Op::RemoveKeys { id, .. } | Op::DropSet { id } => {
                self.filters.remove(id);
                self.reconstructed.remove(id);
                self.handles.evict(id);
            }
            Op::OccInsert { .. } | Op::OccRemove { .. } => self.reconstructed.clear(),
            _ => {}
        }
    }
}
