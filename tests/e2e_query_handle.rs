//! End-to-end coverage of the query-handle facade: handle reuse agrees
//! with one-shot calls, every `BstError` variant is reachable, and the
//! `Arc`-shared system serves multiple threads.

use bloomsampletree::core::sampler::{BstSampler, Correction, SamplerConfig};
use bloomsampletree::{
    BloomFilter, BstConfig, BstError, BstSystem, OpStats, PrunedBloomSampleTree, SampleTree,
    ShardedBstSystem,
};
use bst_bloom::bitvec::BitVec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn system() -> BstSystem {
    BstSystem::builder(50_000)
        .expected_set_size(400)
        .seed(404)
        .build()
}

#[test]
fn handle_reuse_matches_one_shot_calls() {
    // A warm handle must return exactly what a chain of fresh handles
    // would for the same RNG stream: caching only skips filter work, it
    // never changes routing or leaf picks.
    for cfg in [BstConfig::default(), BstConfig::corrected()] {
        let sys = BstSystem::builder(50_000)
            .expected_set_size(400)
            .seed(404)
            .config(cfg)
            .build();
        let keys: Vec<u64> = (0..400u64).map(|i| (i * 113 + 5) % 50_000).collect();
        let f = sys.store(keys.iter().copied());
        let reused = sys.query(&f);
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        for round in 0..60 {
            let warm = reused.sample(&mut rng_a);
            let cold = sys.query(&f).sample(&mut rng_b);
            assert_eq!(warm, cold, "round {round}");
        }
        // Reconstruction through the warm handle equals a fresh handle's.
        assert_eq!(reused.reconstruct(), sys.query(&f).reconstruct());
    }
}

#[test]
fn handle_amortizes_mixed_workload() {
    let sys = system();
    let keys: Vec<u64> = (0..300u64).map(|i| i * 61 % 50_000).collect();
    let f = sys.store(keys.iter().copied());
    let q = sys.query(&f);
    let mut rng = StdRng::seed_from_u64(2);

    // Cold phase: one of each operation.
    q.sample(&mut rng).expect("sample");
    q.sample_many(20, &mut rng).expect("sample_many");
    q.reconstruct().expect("reconstruct");
    let cold = q.take_stats();

    // Warm phase: the same workload again — the reconstruction walked the
    // full live frontier, so everything is cached.
    q.sample(&mut rng).expect("sample");
    q.sample_many(20, &mut rng).expect("sample_many");
    q.reconstruct().expect("reconstruct");
    let warm = q.take_stats();

    // Sampler evaluations and reconstruction liveness are separate cache
    // namespaces (their pruning rules can differ), so the warm pass may
    // still evaluate a handful of nodes — but never re-scan leaves.
    assert!(
        warm.total_ops() * 20 < cold.total_ops(),
        "warm workload ({} ops) should be a small fraction of cold ({} ops)",
        warm.total_ops(),
        cold.total_ops()
    );
    assert_eq!(
        warm.memberships, 0,
        "leaf scans are shared and fully cached"
    );
}

#[test]
fn error_empty_filter() {
    let sys = system();
    let empty = sys.store(std::iter::empty());
    let q = sys.query(&empty);
    let mut rng = StdRng::seed_from_u64(3);
    assert_eq!(q.sample(&mut rng), Err(BstError::EmptyFilter));
    assert_eq!(q.sample_many(5, &mut rng), Err(BstError::EmptyFilter));
    assert_eq!(q.reconstruct(), Err(BstError::EmptyFilter));
}

#[test]
fn error_incompatible_filter() {
    let sys = system();
    let foreign_sys = BstSystem::builder(50_000)
        .expected_set_size(400)
        .seed(777) // different hash family seed
        .build();
    let foreign = foreign_sys.store([1u64, 2, 3]);
    let q = sys.query(&foreign);
    let mut rng = StdRng::seed_from_u64(4);
    assert_eq!(q.sample(&mut rng), Err(BstError::IncompatibleFilter));
    assert_eq!(q.reconstruct(), Err(BstError::IncompatibleFilter));
}

/// A "ghost" filter: enough bits to pass liveness checks against dense
/// tree nodes, but no namespace element has *all* its bits — so every
/// leaf scan comes up empty.
fn ghost_filter(sys: &BstSystem) -> BloomFilter {
    let tree = sys.tree();
    let hasher = tree.hasher();
    let m = hasher.m();
    let mut bits = BitVec::new(m);
    for (x, skip) in [(42u64, 2usize), (999u64, 0usize)] {
        for i in 0..hasher.k() {
            if i != skip {
                bits.set(hasher.position(x, i));
            }
        }
    }
    let ghost = BloomFilter::from_parts(bits, Arc::clone(hasher));
    assert!(!ghost.is_empty());
    ghost
}

/// Tiny-m system: every node filter is saturated (m ≈ 740 bits holding
/// 1024-element leaves), so descents reach leaves instead of being pruned
/// early.
fn saturated_system(cfg: BstConfig) -> BstSystem {
    BstSystem::builder(4096)
        .accuracy(0.2)
        .expected_set_size(250)
        .depth(2)
        .seed(11)
        .config(cfg)
        .build()
}

#[test]
fn error_no_live_leaf() {
    let sys = saturated_system(BstConfig::default());
    let ghost = ghost_filter(&sys);
    // Sanity: no namespace element is a positive of the ghost filter.
    assert!((0..4096u64).all(|x| !ghost.contains(x)));
    let q = sys.query(&ghost);
    let mut rng = StdRng::seed_from_u64(5);
    assert_eq!(q.sample(&mut rng), Err(BstError::NoLiveLeaf));
}

#[test]
fn error_budget_exhausted() {
    // Corrected sampling on the same ghost filter: proposals keep
    // reaching (saturated, hence live-looking) leaves whose scans find
    // nothing, so the rejection budget runs dry.
    let sys = saturated_system(BstConfig::corrected());
    let ghost = ghost_filter(&sys);
    let q = sys.query(&ghost);
    let mut rng = StdRng::seed_from_u64(6);
    match q.sample(&mut rng) {
        Err(BstError::BudgetExhausted { attempts }) => assert!(attempts > 0),
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
}

#[test]
fn error_empty_tree() {
    // A pruned tree over an empty occupied set has no root; the sampler
    // layer reports it as such.
    let plan = bst_bloom::params::TreePlan {
        namespace: 4096,
        m: 1 << 14,
        k: 3,
        kind: bst_bloom::hash::HashKind::Murmur3,
        seed: 9,
        depth: 4,
        leaf_capacity: 256,
        target_accuracy: 0.9,
    };
    let tree = PrunedBloomSampleTree::empty(&plan);
    let q = tree.query_filter([1u64, 2, 3]);
    let sampler = BstSampler::new(&tree);
    let mut rng = StdRng::seed_from_u64(7);
    let mut stats = OpStats::new();
    assert_eq!(
        sampler.try_sample(&q, &mut rng, &mut stats),
        Err(BstError::EmptyTree)
    );
}

#[test]
fn error_invalid_config() {
    // The typed path: try_build reports the broken invariant by name.
    let bad = BstConfig::default().with_sampler(SamplerConfig {
        correction: Correction::Rejection { gamma: 0.5 },
        ..SamplerConfig::default()
    });
    match BstSystem::builder(50_000).config(bad).try_build() {
        Err(BstError::InvalidConfig(what)) => assert!(what.contains("gamma")),
        other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
    }
    // The panicking assertions at sampler construction are kept from the
    // old API for direct BstSampler users.
    let sys = system();
    let result = std::panic::catch_unwind(|| {
        let view = sys.tree().read();
        let _ = BstSampler::with_config(
            &view,
            SamplerConfig {
                correction: Correction::Rejection { gamma: 0.5 },
                ..SamplerConfig::default()
            },
        );
    });
    assert!(result.is_err(), "gamma < 1 must be rejected");
}

#[test]
fn system_clone_shares_tree_across_threads() {
    let sys = system();
    let keys: Vec<u64> = (0..200u64).map(|i| i * 17).collect();
    let f = sys.store(keys.iter().copied());
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let sys = sys.clone();
            let f = f.clone();
            std::thread::spawn(move || {
                let q = sys.query(&f);
                let mut rng = StdRng::seed_from_u64(100 + t);
                let mut picks = Vec::new();
                for _ in 0..50 {
                    picks.push(q.sample(&mut rng).expect("sample"));
                }
                (picks, q.reconstruct().expect("reconstruct"))
            })
        })
        .collect();
    let mut reconstructions = Vec::new();
    for h in handles {
        let (picks, rec) = h.join().expect("thread");
        for p in picks {
            assert!(f.contains(p));
        }
        reconstructions.push(rec);
    }
    // Every thread reconstructed the same set from the same shared tree.
    for rec in &reconstructions[1..] {
        assert_eq!(rec, &reconstructions[0]);
    }
}

#[test]
fn one_query_handle_shared_across_threads() {
    let sys = system();
    let keys: Vec<u64> = (0..150u64).map(|i| i * 37).collect();
    let f = sys.store(keys.iter().copied());
    let q = sys.query(&f);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let q = &q;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(200 + t);
                for _ in 0..30 {
                    let s = q.sample(&mut rng).expect("sample");
                    assert!(q.filter().contains(s));
                }
            });
        }
    });
    // All 120 samples accounted for in the shared stats.
    assert!(q.stats().total_ops() > 0);
    assert!(q.cached_evals() > 0);
}

#[test]
fn query_batch_end_to_end() {
    // Batches go through the sharded engine; at S = 1 that is one tree.
    let sys = ShardedBstSystem::builder(50_000)
        .shards(1)
        .expected_set_size(400)
        .seed(404)
        .build();
    let mut filters: Vec<_> = (0..24)
        .map(|i| sys.store((0..60u64).map(|j| (i * 641 + j * 19) % 50_000)))
        .collect();
    filters.push(sys.store(std::iter::empty()));
    let (results, stats) = sys.query_batch(&filters, 77, 0);
    assert_eq!(results.len(), 25);
    for (i, (f, r)) in filters.iter().zip(&results).enumerate() {
        if i == 24 {
            assert_eq!(*r, Err(BstError::EmptyFilter));
        } else {
            assert!(f.contains(r.expect("sample")), "filter {i}");
        }
    }
    assert!(stats.total_ops() > 0);
}
