//! Property-based tests for shard routing and scatter-gather soundness:
//! the boundaries partition `[0, M)` exactly — every key maps to exactly
//! one shard, no gaps, no overlaps — and a sharded engine reconstructs
//! exactly what a single pruned system over the same occupancy does.

use bst_bloom::hash::HashKind;
use bst_core::system::BstSystem;
use bst_shard::{shard_boundaries, ShardedBstSystem};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Boundaries tile the namespace: `S + 1` strictly ascending values
    /// from 0 to `M`, so consecutive pairs cover `[0, M)` with no gaps
    /// and no overlaps, and widths stay within one of each other.
    #[test]
    fn boundaries_partition_exactly(
        namespace in 1u64..2_000_000,
        shards_raw in 1usize..64,
    ) {
        let shards = shards_raw.min(namespace as usize);
        let b = shard_boundaries(namespace, shards);
        prop_assert_eq!(b.len(), shards + 1);
        prop_assert_eq!(b[0], 0);
        prop_assert_eq!(*b.last().unwrap(), namespace);
        prop_assert!(b.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        // No gaps, no overlaps: consecutive ranges abut by construction,
        // and total width telescopes to M.
        let total: u64 = b.windows(2).map(|w| w[1] - w[0]).sum();
        prop_assert_eq!(total, namespace);
        // Balance: widths differ by at most one.
        let widths: Vec<u64> = b.windows(2).map(|w| w[1] - w[0]).collect();
        let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
        prop_assert!(max - min <= 1, "widths {min}..{max} unbalanced");
    }

    /// Every key maps to exactly one shard, and the routing rule
    /// (binary search over the boundaries) lands it in that shard.
    #[test]
    fn every_key_maps_to_exactly_one_shard(
        namespace in 1u64..1_000_000,
        shards_raw in 1usize..64,
        keys in prop::collection::vec(0u64..1_000_000, 1..50),
    ) {
        let shards = shards_raw.min(namespace as usize);
        let b = shard_boundaries(namespace, shards);
        for key in keys.into_iter().map(|k| k % namespace) {
            let owners: Vec<usize> = (0..shards)
                .filter(|&s| b[s] <= key && key < b[s + 1])
                .collect();
            prop_assert_eq!(owners.len(), 1, "key {} owned by {:?}", key, owners);
            let routed = b.partition_point(|&x| x <= key) - 1;
            prop_assert_eq!(routed, owners[0], "routing disagrees for key {}", key);
        }
    }

    /// A sharded engine reconstructs exactly what a single pruned system
    /// over the same occupancy does — occupancy is partitioned across
    /// shards, so even Bloom false positives agree.
    #[test]
    fn sharded_reconstruct_equals_single_tree(
        occupied in prop::collection::btree_set(0u64..2_048, 10..200),
        shards in 1usize..6,
        member_stride in 1usize..4,
    ) {
        let occ: Vec<u64> = occupied.iter().copied().collect();
        let sharded = ShardedBstSystem::builder(2_048)
            .shards(shards)
            .expected_set_size(64)
            .seed(33)
            .occupied(occ.iter().copied())
            .build();
        let single = BstSystem::builder(2_048)
            .expected_set_size(64)
            .seed(33)
            .pruned(occ.iter().copied())
            .build();
        let members: Vec<u64> = occ.iter().copied().step_by(member_stride).collect();
        let filter = sharded.store(members.iter().copied());
        let via_shards = sharded.query(&filter).reconstruct().expect("sharded");
        let via_single = single.query(&filter).reconstruct().expect("single");
        prop_assert_eq!(via_shards, via_single);
    }

    /// Under arbitrary interleaved `insert_occupied`/`remove_occupied`
    /// routed through the engine, every shard's maintained subtree
    /// weights exactly equal a from-scratch recount, per shard and in
    /// total — and a warm scatter-gather handle repaired through the
    /// mutation journals reports exactly what a cold handle computes.
    #[test]
    fn sharded_maintained_weights_equal_recount(
        occupied in prop::collection::btree_set(0u64..2_048, 5..150),
        shards in 1usize..6,
        ops in prop::collection::vec((any::<bool>(), 0u64..2_048), 1..60),
    ) {
        let occ: Vec<u64> = occupied.iter().copied().collect();
        let engine = ShardedBstSystem::builder(2_048)
            .shards(shards)
            .expected_set_size(64)
            .seed(41)
            .occupied(occ.iter().copied())
            .build();
        let members: Vec<u64> = (0..2_048u64).step_by(5).collect();
        let filter = engine.store(members.iter().copied());
        let warm = engine.query(&filter);
        let _ = warm.live_weight();
        let mut live = occupied.clone();
        for (insert, id) in ops {
            if insert {
                engine.insert_occupied(id).unwrap();
                live.insert(id);
            } else {
                engine.remove_occupied(id).unwrap();
                live.remove(&id);
            }
        }
        // Per shard and in total: maintained == recount.
        prop_assert!(engine.weights_consistent());
        let mut total = 0u64;
        for sys in engine.shard_systems() {
            let ids = sys.occupied_ids();
            prop_assert_eq!(sys.occupied_count(), ids.len() as u64);
            total += ids.len() as u64;
        }
        prop_assert_eq!(total, live.len() as u64);
        prop_assert_eq!(engine.occupied_count(), live.len() as u64);
        prop_assert_eq!(engine.occupied_ids(), live.into_iter().collect::<Vec<u64>>());
        // Warm handle ≡ cold handle after journal repair.
        let cold = engine.query(&filter);
        prop_assert_eq!(warm.live_weight(), cold.live_weight());
        prop_assert_eq!(warm.reconstruct(), cold.reconstruct());
    }

    /// The engine-level persistent weight cache never changes batch
    /// output: under arbitrary interleaved store churn, occupancy churn
    /// and repeated batches, a cache-enabled engine and a cache-bypassed
    /// twin driven identically produce bit-identical `query_batch` and
    /// `query_batch_ids` results — and every *fresh* cached cell equals
    /// a from-scratch recomputation of that shard's live weight. Runs
    /// under both filter layouts (classic and cache-line blocked).
    #[test]
    fn cached_batches_equal_bypassed_batches_under_churn(
        occupied in prop::collection::btree_set(0u64..2_048, 20..200),
        shards in 1usize..5,
        ops in prop::collection::vec((0u8..4, 0u64..2_048), 1..40),
        seed in any::<u64>(),
        kind in prop_oneof![Just(HashKind::Murmur3), Just(HashKind::DeltaBlocked)],
    ) {
        let occ: Vec<u64> = occupied.iter().copied().collect();
        let build = |cache: bool| {
            let engine = ShardedBstSystem::builder(2_048)
                .shards(shards)
                .expected_set_size(64)
                .seed(27)
                .hash_kind(kind)
                .occupied(occ.iter().copied())
                .build();
            engine.set_weight_cache(cache);
            engine
        };
        let cached = build(true);
        let bypass = build(false);
        let keysets: Vec<Vec<u64>> = (0..3u64)
            .map(|i| (0..40u64).map(|j| (i * 709 + j * 31) % 2_048).collect())
            .collect();
        let ids_cached: Vec<_> = keysets
            .iter()
            .map(|k| cached.create(k.iter().copied()).unwrap())
            .collect();
        let ids_bypass: Vec<_> = keysets
            .iter()
            .map(|k| bypass.create(k.iter().copied()).unwrap())
            .collect();
        let filters: Vec<_> = (0..3u64)
            .map(|i| cached.store((0..30u64).map(|j| (i * 523 + j * 41) % 2_048)))
            .collect();
        // Prime both engines, then interleave mutations with batches.
        cached.query_batch(&filters, seed, 2);
        cached.query_batch_ids(&ids_cached, seed, 2);
        bypass.query_batch(&filters, seed, 2);
        bypass.query_batch_ids(&ids_bypass, seed, 2);
        for (round, (op, id)) in ops.into_iter().enumerate() {
            match op {
                0 => {
                    cached.insert_occupied(id).unwrap();
                    bypass.insert_occupied(id).unwrap();
                }
                1 => {
                    cached.remove_occupied(id).unwrap();
                    bypass.remove_occupied(id).unwrap();
                }
                2 => {
                    let set = (id % 3) as usize;
                    cached.insert_keys(ids_cached[set], [id]).unwrap();
                    bypass.insert_keys(ids_bypass[set], [id]).unwrap();
                }
                _ => {
                    let set = (id % 3) as usize;
                    cached.remove_keys(ids_cached[set], [id]).unwrap();
                    bypass.remove_keys(ids_bypass[set], [id]).unwrap();
                }
            }
            let batch_seed = seed.wrapping_add(round as u64);
            let (rc, _) = cached.query_batch(&filters, batch_seed, 2);
            let (rb, _) = bypass.query_batch(&filters, batch_seed, 2);
            prop_assert_eq!(rc, rb, "detached batch diverged at round {}", round);
            let (rc, _) = cached.query_batch_ids(&ids_cached, batch_seed, 2);
            let (rb, _) = bypass.query_batch_ids(&ids_bypass, batch_seed, 2);
            prop_assert_eq!(rc, rb, "stored batch diverged at round {}", round);
        }
        // Every cached cell that claims freshness equals a recount.
        for (slot, id) in ids_cached.iter().enumerate() {
            let Some(cells) = cached.cached_weights(*id) else { continue };
            let handle = cached.query_id(*id).expect("open");
            for (shard, cell) in cells.iter().enumerate() {
                let Some(cell) = cell else { continue };
                let sys = &cached.shard_systems()[shard];
                let fid = handle.shard_handles()[shard].filter_id().expect("stored");
                let fresh = cell.set_generation == sys.filters().generation(fid).unwrap()
                    && cell.tree_generation == sys.tree_generation();
                if fresh {
                    prop_assert_eq!(
                        cell.outcome,
                        sys.live_weight_stamped(&sys.get(fid).unwrap()).0,
                        "stale weight served as fresh: set {} shard {}", slot, shard
                    );
                }
            }
        }
    }

    /// Scatter-gather sampling returns positives only, and the sharded
    /// live-leaf weight equals the single system's reconstruction size.
    #[test]
    fn sharded_samples_are_positives(
        occupied in prop::collection::btree_set(0u64..2_048, 20..200),
        shards in 1usize..6,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let occ: Vec<u64> = occupied.iter().copied().collect();
        let sharded = ShardedBstSystem::builder(2_048)
            .shards(shards)
            .expected_set_size(64)
            .seed(33)
            .occupied(occ.iter().copied())
            .build();
        let members: Vec<u64> = occ.iter().copied().step_by(3).collect();
        let filter = sharded.store(members.iter().copied());
        let q = sharded.query(&filter);
        let positives = q.reconstruct().expect("reconstruct");
        prop_assert_eq!(q.live_weight().expect("weight"), positives.len() as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            let s = q.sample(&mut rng).expect("sample");
            prop_assert!(positives.binary_search(&s).is_ok(), "non-positive {}", s);
        }
    }
}
