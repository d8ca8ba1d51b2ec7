//! End-to-end sampling: workload generators → filters → BloomSampleTree →
//! sample quality, spanning all four crates.

use bloomsampletree::core::sampler::SamplerConfig;
use bloomsampletree::{BstSampler, BstSystem, OpStats, ShardedBstSystem};
use bst_stats::chi2_uniform_test;
use bst_workloads::querysets::{clustered_set, uniform_set};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn corrected_sampling_is_uniform_on_uniform_sets() {
    let system = BstSystem::builder(100_000)
        .accuracy(0.9)
        .expected_set_size(500)
        .seed(1)
        .build();
    let mut rng = StdRng::seed_from_u64(2);
    let keys = uniform_set(&mut rng, 100_000, 200);
    let q = system.store(keys.iter().copied());
    let view = system.tree().read();
    let sampler = BstSampler::with_config(&view, SamplerConfig::corrected());
    let mut counts = vec![0u64; keys.len()];
    let mut stats = OpStats::new();
    for _ in 0..130 * keys.len() {
        if let Some(s) = sampler.sample(&q, &mut rng, &mut stats) {
            if let Ok(i) = keys.binary_search(&s) {
                counts[i] += 1;
            }
        }
    }
    let res = chi2_uniform_test(&counts);
    // A correct uniform sampler yields p ~ Uniform(0,1), so asserting at
    // the paper's 0.08 level would flake 8% of the time by construction;
    // 0.01 still catches real non-uniformity (which lands at p < 1e-10).
    assert!(
        res.is_uniform_at(0.01),
        "chi2 rejected: p = {}",
        res.p_value
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn corrected_sampling_is_uniform_on_clustered_sets() {
    let system = BstSystem::builder(100_000)
        .accuracy(0.9)
        .expected_set_size(500)
        .seed(3)
        .build();
    let mut rng = StdRng::seed_from_u64(4);
    let keys = clustered_set(&mut rng, 100_000, 200, 10.0);
    let q = system.store(keys.iter().copied());
    let view = system.tree().read();
    let sampler = BstSampler::with_config(&view, SamplerConfig::corrected());
    let mut counts = vec![0u64; keys.len()];
    let mut stats = OpStats::new();
    for _ in 0..130 * keys.len() {
        if let Some(s) = sampler.sample(&q, &mut rng, &mut stats) {
            if let Ok(i) = keys.binary_search(&s) {
                counts[i] += 1;
            }
        }
    }
    let res = chi2_uniform_test(&counts);
    assert!(
        res.is_uniform_at(0.01),
        "chi2 rejected on clustered set: p = {}",
        res.p_value
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn measured_accuracy_tracks_target() {
    // Build for several accuracy targets; the fraction of true elements
    // among samples must come out near each target (Table 6's check).
    for target in [0.6, 0.8, 0.95] {
        let system = BstSystem::builder(200_000)
            .accuracy(target)
            .expected_set_size(1000)
            .seed(5)
            .build();
        let mut rng = StdRng::seed_from_u64(6);
        let keys = uniform_set(&mut rng, 200_000, 1000);
        let query = system.query(&system.store(keys.iter().copied()));
        let (mut trues, mut total) = (0u64, 0u64);
        for _ in 0..2000 {
            if let Ok(s) = query.sample(&mut rng) {
                total += 1;
                if keys.binary_search(&s).is_ok() {
                    trues += 1;
                }
            }
        }
        let measured = trues as f64 / total as f64;
        assert!(
            (measured - target).abs() < 0.08,
            "target {target}: measured {measured}"
        );
    }
}

#[test]
fn batch_sampling_agrees_with_sequential() {
    // The sharded batch path is thread-count-deterministic: a batch
    // fanned out over four workers returns exactly what a single
    // sequential worker returns, and every slot is a member of its set.
    let system = ShardedBstSystem::builder(50_000).shards(4).seed(7).build();
    let mut rng = StdRng::seed_from_u64(8);
    let filters: Vec<_> = (0..16)
        .map(|i| {
            let keys = uniform_set(&mut rng, 50_000, 100 + i * 10);
            system.store(keys)
        })
        .collect();
    let (sequential, stats) = system.query_batch(&filters, 11, 1);
    assert_eq!(sequential.len(), filters.len());
    for (filter, r) in filters.iter().zip(&sequential) {
        let s = r.expect("every filter yields a sample");
        assert!(filter.contains(s));
    }
    assert!(stats.memberships > 0);
    let (parallel, _) = system.query_batch(&filters, 11, 4);
    assert_eq!(parallel, sequential);
    // Per-filter handles serve the same filters.
    for filter in &filters {
        let s = system.query(filter).sample(&mut rng).expect("sample");
        assert!(filter.contains(s));
    }
}

#[test]
fn multi_sample_distribution_covers_set() {
    let system = BstSystem::builder(65_536).seed(9).build();
    let mut rng = StdRng::seed_from_u64(10);
    let keys = uniform_set(&mut rng, 65_536, 64);
    let query = system.query(&system.store(keys.iter().copied()));
    let samples = query.sample_many(2000, &mut rng).expect("sample_many");
    assert_eq!(samples.len(), 2000);
    let distinct: std::collections::HashSet<u64> = samples.iter().copied().collect();
    // 2000 draws over 64 near-uniform keys: all keys seen (coupon
    // collector needs ~ 64 ln 64 ≈ 266).
    assert!(
        distinct.len() >= 60,
        "only {} of 64 keys covered",
        distinct.len()
    );
}

#[test]
fn hash_families_all_work_end_to_end() {
    use bloomsampletree::HashKind;
    for kind in HashKind::ALL {
        let system = BstSystem::builder(20_000)
            .hash_kind(kind)
            .expected_set_size(200)
            .seed(11)
            .build();
        let mut rng = StdRng::seed_from_u64(12);
        let keys = uniform_set(&mut rng, 20_000, 200);
        let q = system.store(keys.iter().copied());
        let query = system.query(&q);
        let s = query.sample(&mut rng).expect("sample");
        assert!(q.contains(s), "{kind}: non-positive sample");
        let rec = query.reconstruct().expect("reconstruct");
        for k in &keys {
            assert!(rec.binary_search(k).is_ok(), "{kind}: lost {k}");
        }
    }
}
