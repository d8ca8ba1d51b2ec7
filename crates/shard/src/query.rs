//! [`ShardQuery`]: the scatter-gather query handle.

use std::ops::Range;

use bst_core::error::BstError;
use bst_core::metrics::OpStats;
use bst_core::query::Query;
use bst_core::store::FilterId;
use parking_lot::Mutex;
use rand::Rng;

use crate::weight_cache::CachedWeight;

/// A query handle spanning every shard of a
/// [`crate::system::ShardedBstSystem`]: one per-shard
/// [`bst_core::query::Query`] each, so descent state accumulates and
/// invalidates per shard (store generations *and* tree generations), and
/// the scatter-gather algebra lives here.
///
/// Uniformity: [`Self::sample`] draws a shard with probability
/// proportional to its **live-leaf weight** — the exact count of
/// elements the shard would reconstruct for this filter — then samples
/// inside the shard. With exact weights the merged distribution equals a
/// single tree's over the same positives (pinned by the `bst-stats`
/// conformance harness in `tests/e2e_shard.rs`). Weights come from
/// [`bst_core::query::Query::live_weight`], which is **maintained** in
/// the handle's memo: O(1) when warm, and after occupancy churn the
/// handle replays the tree's mutation journal — O(depth) memo repair
/// plus an O(k) count delta per mutation under sound reconstruction —
/// instead of recounting the shard; set churn still re-projects and
/// recounts on the next call.
pub struct ShardQuery {
    /// The sharded id this handle reads (`None` for detached filters).
    id: Option<FilterId>,
    /// `S + 1` ascending boundaries (for range clipping).
    boundaries: Vec<u64>,
    /// One core handle per shard, shard order.
    handles: Vec<Query>,
    /// Per-shard weight cache: a warm sample costs a staleness check per
    /// shard instead of a per-shard counting walk. A cell is valid while
    /// the shard handle still carries its stamps *and* the store/tree
    /// have not moved past them.
    weight_cache: Mutex<Vec<Option<CachedWeight>>>,
}

impl std::fmt::Debug for ShardQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardQuery(id={:?}, shards={})",
            self.id,
            self.handles.len()
        )
    }
}

impl ShardQuery {
    pub(crate) fn new(id: Option<FilterId>, boundaries: Vec<u64>, handles: Vec<Query>) -> Self {
        let weight_cache = Mutex::new(vec![None; handles.len()]);
        ShardQuery {
            id,
            boundaries,
            handles,
            weight_cache,
        }
    }

    /// The sharded store id this handle reads, for handles opened with
    /// [`crate::system::ShardedBstSystem::query_id`]; `None` for
    /// detached handles.
    pub fn filter_id(&self) -> Option<FilterId> {
        self.id
    }

    /// The per-shard core handles, shard order (for introspection).
    pub fn shard_handles(&self) -> &[Query] {
        &self.handles
    }

    /// Per-shard live-leaf weight outcomes for the current filter/tree
    /// state, shard order, served from the per-handle cache while its
    /// stamps are current. Evaluation stops at the first hard error,
    /// which [`merge_weights`] then reports.
    fn outcomes(&self) -> Vec<Result<u64, BstError>> {
        let mut cache = self.weight_cache.lock();
        let mut outcomes = Vec::with_capacity(self.handles.len());
        for (slot, handle) in cache.iter_mut().zip(&self.handles) {
            // A cached weight is reusable only while the handle still
            // carries the stamps it was computed at AND nothing has moved
            // past them (staleness re-checks the store and the tree in
            // one lock acquisition).
            let cached = match slot {
                Some(c) => match handle.staleness() {
                    Ok((set_gen, tree_gen, stale)) => {
                        (c.set_generation == set_gen && c.tree_generation == tree_gen && !stale)
                            .then_some(c.outcome)
                    }
                    Err(e) => Some(Err(e)),
                },
                None => None,
            };
            let outcome = cached.unwrap_or_else(|| {
                let (outcome, stamped) = weigh(handle);
                if stamped.is_some() {
                    *slot = stamped;
                }
                outcome
            });
            outcomes.push(outcome);
            if !is_soft(&outcome) {
                break;
            }
        }
        outcomes
    }

    /// The total live-leaf weight across shards: exactly the number of
    /// elements [`Self::reconstruct`] would return.
    pub fn live_weight(&self) -> Result<u64, BstError> {
        match merge_weights(&self.outcomes()) {
            Err(BstError::NoLiveLeaf) => Ok(0),
            merged => merged,
        }
    }

    /// Draws one near-uniform sample from the stored span: a shard
    /// proportional to its live-leaf weight, then a sample within it.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<u64, BstError> {
        let outcomes = self.outcomes();
        let total = merge_weights(&outcomes)?;
        match pick_shard(&outcomes, rng.gen_range(0..total)) {
            Some(shard) => self.handles[shard].sample(rng),
            None => Err(BstError::NoLiveLeaf),
        }
    }

    /// Draws `r` samples, splitting the request across shards with
    /// successive binomial draws over the live-leaf weights (the §5.3
    /// multi-path split lifted one level up), then one per-shard
    /// `sample_many` each. Results are grouped by shard, not shuffled.
    /// May return fewer than `r` when shard-internal paths die on
    /// false-positive routes.
    pub fn sample_many<R: Rng + ?Sized>(
        &self,
        r: usize,
        rng: &mut R,
    ) -> Result<Vec<u64>, BstError> {
        let outcomes = self.outcomes();
        let total = merge_weights(&outcomes)?;
        let mut out = Vec::with_capacity(r);
        let mut remaining = r;
        let mut weight_left = total;
        for (handle, outcome) in self.handles.iter().zip(outcomes) {
            let w = outcome.unwrap_or(0);
            if remaining == 0 || weight_left == 0 {
                break;
            }
            let take = if w == weight_left {
                remaining
            } else {
                bst_stats::binomial::sample_binomial(
                    rng,
                    remaining as u64,
                    w as f64 / weight_left as f64,
                ) as usize
            };
            weight_left -= w;
            if take > 0 {
                out.extend(handle.sample_many(take, rng)?);
                remaining -= take.min(remaining);
            }
        }
        Ok(out)
    }

    /// Reconstructs the stored span (`S ∪ S(B)` restricted to occupied
    /// ids), sorted ascending — per-shard answers are disjoint and
    /// range-ordered, so gathering is concatenation.
    pub fn reconstruct(&self) -> Result<Vec<u64>, BstError> {
        let mut out = Vec::new();
        let mut saw_ok = false;
        for handle in &self.handles {
            match handle.reconstruct() {
                Ok(part) => {
                    saw_ok = true;
                    out.extend(part);
                }
                Err(BstError::EmptyFilter) | Err(BstError::EmptyTree) => {}
                Err(e) => return Err(e),
            }
        }
        if !saw_ok {
            // No shard contributed: classify through the one merge
            // policy (which also covers the transient case where a
            // mutation landed between the loops).
            self.live_weight()?;
        }
        Ok(out)
    }

    /// Range-restricted reconstruction: shards disjoint from `window`
    /// are never consulted. An empty window yields `Ok(vec![])`.
    pub fn reconstruct_range(&self, window: Range<u64>) -> Result<Vec<u64>, BstError> {
        if window.start >= window.end {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        let mut saw_ok = false;
        for (s, handle) in self.handles.iter().enumerate() {
            let clipped =
                window.start.max(self.boundaries[s])..window.end.min(self.boundaries[s + 1]);
            if clipped.start >= clipped.end {
                continue;
            }
            match handle.reconstruct_range(clipped) {
                Ok(part) => {
                    saw_ok = true;
                    out.extend(part);
                }
                Err(BstError::EmptyFilter) | Err(BstError::EmptyTree) => {}
                Err(e) => return Err(e),
            }
        }
        if !saw_ok {
            // No consulted shard contributed; classify over the WHOLE
            // engine via the one merge policy (a window over empty
            // shards on a live engine is Ok(vec![]), exactly like a
            // single tree whose root exists elsewhere).
            self.live_weight()?;
        }
        Ok(out)
    }

    /// Whether any shard's handle is stale (set churn or occupancy churn
    /// past its stamps). Errors if the span was dropped.
    pub fn is_stale(&self) -> Result<bool, BstError> {
        let mut stale = false;
        for handle in &self.handles {
            stale |= handle.is_stale()?;
        }
        Ok(stale)
    }

    /// Operation counts accumulated across every shard handle.
    pub fn stats(&self) -> OpStats {
        let mut total = OpStats::new();
        for handle in &self.handles {
            total += handle.stats();
        }
        total
    }

    /// Returns the accumulated cross-shard stats and resets all shard
    /// counters.
    pub fn take_stats(&self) -> OpStats {
        let mut total = OpStats::new();
        for handle in &self.handles {
            total += handle.take_stats();
        }
        total
    }
}

/// Whether a per-shard weight outcome is *soft*: a weight, or an empty
/// projection/tree that merges as weight 0. Anything else is a hard
/// error that fails the whole scatter-gather operation.
fn is_soft(outcome: &Result<u64, BstError>) -> bool {
    matches!(
        outcome,
        Ok(_) | Err(BstError::EmptyFilter) | Err(BstError::EmptyTree)
    )
}

/// Weighs one shard handle: its live-leaf weight outcome plus, for soft
/// outcomes, the stamped cell a weight cache may keep (hard errors carry
/// no meaningful stamps and are never cached). The stamps come from the
/// computation's own state lock, not re-read afterwards: a concurrent
/// operation on the handle can advance them in between, and caching an
/// old weight under new stamps would pin it forever.
pub(crate) fn weigh(handle: &Query) -> (Result<u64, BstError>, Option<CachedWeight>) {
    let (outcome, set_generation, tree_generation) = handle.live_weight_stamped();
    let stamped = is_soft(&outcome).then_some(CachedWeight {
        outcome,
        set_generation,
        tree_generation,
    });
    (outcome, stamped)
}

/// The one scatter-gather merge policy over per-shard live-leaf weight
/// outcomes (shard order), shared by [`ShardQuery`] and the batch gather
/// step. The first hard error in shard order wins. If no shard produced
/// a weight, the error is classified the way a single-tree system would:
/// `EmptyTree` only when **every** shard's tree is empty (the engine
/// holds no occupancy at all — a single tree would have no root),
/// `EmptyFilter` otherwise (some tree exists, so the filter side is what
/// failed). A zero total is `NoLiveLeaf`.
pub(crate) fn merge_weights(outcomes: &[Result<u64, BstError>]) -> Result<u64, BstError> {
    let mut total = 0u64;
    let mut saw_weight = false;
    let mut empty_trees = 0usize;
    for outcome in outcomes {
        match *outcome {
            Ok(w) => {
                saw_weight = true;
                total += w;
            }
            Err(BstError::EmptyFilter) => {}
            Err(BstError::EmptyTree) => empty_trees += 1,
            Err(e) => return Err(e),
        }
    }
    if !saw_weight {
        return Err(if empty_trees == outcomes.len() {
            BstError::EmptyTree
        } else {
            BstError::EmptyFilter
        });
    }
    if total == 0 {
        return Err(BstError::NoLiveLeaf);
    }
    Ok(total)
}

/// Picks the shard a uniform `draw` in `0..total` lands on, each shard
/// owning a run of draws as long as its weight (errors weigh 0). A draw
/// past the total falls back to the last positive-weight shard, keeping
/// the serving path panic-free if weights ever raced; `None` only when
/// no shard has weight.
pub(crate) fn pick_shard(outcomes: &[Result<u64, BstError>], mut draw: u64) -> Option<usize> {
    let mut fallback = None;
    for (shard, outcome) in outcomes.iter().enumerate() {
        let w = outcome.unwrap_or(0);
        if draw < w {
            return Some(shard);
        }
        if w > 0 {
            fallback = Some(shard);
        }
        draw -= w;
    }
    fallback
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_core::error::BstError::*;

    #[test]
    fn merge_weights_classifies_like_a_single_tree() {
        assert_eq!(merge_weights(&[Ok(2), Err(EmptyFilter), Ok(3)]), Ok(5));
        assert_eq!(merge_weights(&[Ok(0), Err(EmptyTree)]), Err(NoLiveLeaf));
        assert_eq!(
            merge_weights(&[Err(EmptyTree), Err(EmptyFilter)]),
            Err(EmptyFilter)
        );
        assert_eq!(
            merge_weights(&[Err(EmptyTree), Err(EmptyTree)]),
            Err(EmptyTree)
        );
        // The first hard error in shard order wins over everything.
        let ghost = UnknownFilterId(FilterId::from_raw(7));
        assert_eq!(
            merge_weights(&[Ok(4), Err(IncompatibleFilter), Err(ghost)]),
            Err(IncompatibleFilter)
        );
    }

    #[test]
    fn pick_shard_walks_cumulative_weights() {
        let outcomes = [Ok(2), Err(EmptyFilter), Ok(0), Ok(3)];
        let picks: Vec<_> = (0..6).map(|draw| pick_shard(&outcomes, draw)).collect();
        // Draw 5 is past the total: the last positive shard serves it.
        assert_eq!(
            picks,
            [Some(0), Some(0), Some(3), Some(3), Some(3), Some(3)]
        );
        assert_eq!(pick_shard(&[Ok(0), Err(EmptyTree)], 0), None);
    }
}
