//! Social-network communities — the paper's motivating scenario (§1):
//! "storing and subsequently sampling from a large number of dynamic,
//! online communities that form on social networks … that could help
//! advertisers determine where to target their products."
//!
//! A synthetic microblog stream (substitute for the paper's Twitter crawl,
//! see DESIGN.md) produces per-hashtag audiences. Each audience is
//! registered in the system's store — the filter database `D̄` — and
//! addressed by a stable id. A single pruned-backend `BstSystem` over the
//! sparsely occupied user-id namespace then answers:
//!
//! * "give me a random user who tweeted #tag" (ad targeting),
//! * "list the whole audience of #tag" (campaign export), and
//! * both again after the audience churns (members join and leave),
//!
//! at a fraction of the memory of a complete tree, using only public
//! facade API.
//!
//! Run with: `cargo run --release --example social_communities`

use bloomsampletree::{BstSystem, FilterId, OpStats};
use bst_workloads::occupancy::clustered_occupancy;
use bst_workloads::social::{SocialConfig, SocialStream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // A downscaled stream: 22M-wide id namespace, 72k active users
    // clustered into 30% of it, 240 hashtags.
    let cfg = SocialConfig::small();
    let mut rng = StdRng::seed_from_u64(0xFEED);
    let occupancy = clustered_occupancy(&mut rng, cfg.namespace, 256, 0.3);
    println!(
        "namespace: {} ids, occupied fraction {:.2} in {} contiguous ranges",
        cfg.namespace,
        occupancy.fraction(),
        occupancy.ranges().len()
    );

    let t0 = Instant::now();
    let stream = SocialStream::generate(cfg.clone(), &occupancy);
    println!(
        "generated {} users, {} hashtags in {:?}",
        stream.users().len(),
        cfg.hashtags,
        t0.elapsed()
    );

    // One facade call: filters planned for 80% accuracy (the paper's §8
    // setting), pruned tree over the occupied ids only.
    let t1 = Instant::now();
    let system = BstSystem::builder(cfg.namespace)
        .expected_set_size(1000)
        .accuracy(0.8)
        .seed(99)
        .pruned(stream.users().iter().copied())
        .build();
    println!(
        "pruned backend: {} nodes (complete tree would need {}), {:.1} MB, built in {:?}",
        system.tree().node_count(),
        (1u64 << (system.tree().depth() + 1)) - 1,
        system.tree().memory_bytes() as f64 / 1e6,
        t1.elapsed()
    );

    // Register the 40 most popular hashtag audiences in the store.
    let audiences: Vec<Vec<u64>> = (0..40).map(|tag| stream.audience(tag)).collect();
    let ids: Vec<FilterId> = audiences
        .iter()
        .map(|a| system.create(a.iter().copied()).expect("register audience"))
        .collect();
    println!(
        "\nregistered {} audiences in the store ({} KB per projection); sizes {}..{} users",
        ids.len(),
        system.tree().plan().m / 8 / 1024,
        audiences.iter().map(Vec::len).min().unwrap(),
        audiences.iter().map(Vec::len).max().unwrap()
    );

    // Ad targeting: one random member of each audience, addressed by id.
    let t2 = Instant::now();
    let mut target_rng = StdRng::seed_from_u64(7);
    let mut stats = OpStats::new();
    let picks: Vec<_> = ids
        .iter()
        .map(|&id| {
            let query = system.query_id(id).expect("open handle");
            let pick = query.sample(&mut target_rng);
            stats += query.take_stats();
            pick
        })
        .collect();
    let hit = picks
        .iter()
        .zip(&audiences)
        .filter(|(p, aud)| matches!(p, Ok(x) if aud.binary_search(x).is_ok()))
        .count();
    println!(
        "sampled one target user per audience in {:?} ({} of {} samples are true members)",
        t2.elapsed(),
        hit,
        picks.len()
    );
    println!("  targeting cost: {stats}");

    // Campaign export: reconstruct one audience from its stored filter.
    let tag = 3usize;
    let export_query = system.query_id(ids[tag]).expect("open handle");
    let t3 = Instant::now();
    let exported = export_query.reconstruct().expect("reconstruct");
    let truth = &audiences[tag];
    let recovered = truth
        .iter()
        .filter(|x| exported.binary_search(x).is_ok())
        .count();
    println!(
        "\nexported audience #{tag}: {} ids in {:?} ({} of {} true members, {} false positives)",
        exported.len(),
        t3.elapsed(),
        recovered,
        truth.len(),
        exported.len() - recovered
    );
    println!("  export cost: {}", export_query.take_stats());
    println!(
        "  a DictionaryAttack export would need {} membership queries",
        cfg.namespace
    );

    // Heavy-user overlap: sample repeatedly from one audience and count
    // cross-membership with another — the preferential-attachment
    // signature. Repeated samples share the handle's memo, so only the
    // first draw pays for the tree descent.
    let overlap_query = system.query_id(ids[0]).expect("open handle");
    let mut cross = 0usize;
    let mut draws = 0usize;
    for _ in 0..200 {
        if let Ok(u) = overlap_query.sample(&mut rng) {
            draws += 1;
            if audiences[1].binary_search(&u).is_ok() {
                cross += 1;
            }
        }
    }
    println!(
        "\naudience overlap probe: {cross}/{draws} samples from #0 are also in #1 \
         (heavy users span hashtags; 200 draws cost {} ops through the handle)",
        overlap_query.take_stats().total_ops()
    );

    // Audiences churn: a trending hashtag gains users, a fading one loses
    // half. The store mutates in place; the open export handle notices.
    let newcomers: Vec<u64> = stream.audience(100);
    system
        .insert_keys(ids[5], newcomers.iter().copied())
        .expect("insert");
    let (fading_leavers, _) = audiences[tag].split_at(truth.len() / 2);
    system
        .remove_keys(ids[tag], fading_leavers.iter().copied())
        .expect("remove");
    println!(
        "\nchurn: audience #5 gained {} users (gen {}), #{} lost {} (gen {}; export handle stale: {})",
        newcomers.len(),
        system.filters().generation(ids[5]).expect("generation"),
        tag,
        fading_leavers.len(),
        system.filters().generation(ids[tag]).expect("generation"),
        export_query.is_stale().expect("staleness"),
    );
    let re_export = export_query.reconstruct().expect("re-export");
    let ghosts = fading_leavers
        .iter()
        .filter(|x| re_export.binary_search(x).is_ok())
        .count();
    println!(
        "re-export of #{tag}: {} ids ({} ghost leavers), handle refreshed to generation {}",
        re_export.len(),
        ghosts,
        export_query.generation()
    );
}
