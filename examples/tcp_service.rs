//! The serving layer end to end, in one process: a `bst-server` bound
//! to an ephemeral loopback port, driven by the wire client through the
//! whole facade — set lifecycle, occupancy churn, warm-path sampling,
//! a mixed batch, a snapshot round-trip, and the METRICS page —
//! with the wire answers checked against an in-process handle on the
//! very same engine, and warm loopback sample latency measured against
//! the in-process equivalent.
//!
//! Run with: `cargo run --release --example tcp_service`

use std::time::Instant;

use bloomsampletree::ShardedBstSystem;
use bst_obs::expo::scrape;
use bst_server::client::Client;
use bst_server::protocol::Target;
use bst_server::server::{serve, ServerConfig};
use bst_server::stats::OpClass;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let namespace = 1u64 << 16;
    let engine = ShardedBstSystem::builder(namespace)
        .shards(4)
        .expected_set_size(512)
        .seed(11)
        .build();
    // The engine is an Arc clone: this handle and the server share state,
    // so in-process answers are ground truth for the wire's.
    let local = engine.clone();
    let handle = serve(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    println!(
        "bst-server on {} ({} ids, 4 shards)\n",
        handle.addr(),
        namespace
    );

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");

    // --- Set lifecycle over the wire ------------------------------------
    let members: Vec<u64> = (0..600u64).map(|i| (i * 109) % namespace).collect();
    let community = client.create(members.clone()).expect("create");
    client
        .insert_keys(community, vec![40_000, 40_001])
        .expect("insert");
    client
        .remove_keys(community, vec![members[0]])
        .expect("remove");
    println!(
        "stored set {community}: {} members shipped over the wire",
        members.len() + 1
    );

    // --- Occupancy churn -------------------------------------------------
    for key in 1_000..1_064u64 {
        client.occ_remove(key).expect("occ_remove");
    }
    for key in 1_000..1_032u64 {
        client.occ_insert(key).expect("occ_insert");
    }
    println!("occupancy churn: 64 ids vacated, 32 re-occupied\n");

    // --- Warm sampling: wire vs in-process, same engine state ------------
    let rounds = 2_000usize;
    let mut wire_keys = Vec::with_capacity(rounds);
    let started = Instant::now();
    for i in 0..rounds {
        wire_keys.push(
            client
                .sample(Target::Stored(community), i as u64)
                .expect("wire sample"),
        );
    }
    let wire_elapsed = started.elapsed();

    let query = local
        .query_id(bst_core::store::FilterId::from_raw(community))
        .expect("local handle");
    let mut local_keys = Vec::with_capacity(rounds);
    let started = Instant::now();
    for i in 0..rounds {
        let mut rng = StdRng::seed_from_u64(i as u64);
        local_keys.push(query.sample(&mut rng).expect("local sample"));
    }
    let local_elapsed = started.elapsed();
    assert_eq!(wire_keys, local_keys, "wire draws must be bit-identical");
    let wire_us = wire_elapsed.as_secs_f64() * 1e6 / rounds as f64;
    let local_us = local_elapsed.as_secs_f64() * 1e6 / rounds as f64;
    println!("warm sample, {rounds} rounds (seeded, bit-identical results):");
    println!("  over loopback : {wire_us:>8.1} µs/op");
    println!("  in-process    : {local_us:>8.1} µs/op");
    println!("  wire overhead : {:>8.1} µs/op\n", wire_us - local_us);

    // --- A mixed batch ---------------------------------------------------
    let adhoc = local.store((5_000..5_064u64).collect::<Vec<_>>());
    let results = client
        .batch(
            vec![
                Target::Stored(community),
                Target::adhoc(&adhoc),
                Target::Stored(community),
            ],
            77,
        )
        .expect("batch");
    let ok = results.iter().filter(|r| r.is_ok()).count();
    println!("mixed batch: {ok}/{} slots sampled", results.len());

    // --- Snapshot round-trip over the wire -------------------------------
    let snapshot = client.save().expect("save");
    client.load(snapshot.clone()).expect("load");
    assert_eq!(
        client.save().expect("save again"),
        snapshot,
        "byte-deterministic"
    );
    println!(
        "snapshot: {} bytes, SAVE → LOAD → SAVE byte-identical\n",
        snapshot.len()
    );

    // --- The metrics page -----------------------------------------------
    let page = client.metrics().expect("metrics");
    let value = |family: &str, labels: &[(&str, &str)]| {
        scrape(&page, family, labels).expect("series on the metrics page")
    };
    println!(
        "server metrics: {} sets, {} occupied, epoch {}, {} frames over {} sessions",
        value("bst_engine_sets", &[]),
        value("bst_engine_occupied", &[]),
        value("bst_engine_epoch", &[]),
        value("bst_server_frames_served_total", &[]),
        value("bst_server_sessions_served_total", &[])
    );
    let cache = |kind| value("bst_engine_weight_cache_total", &[("kind", kind)]);
    println!(
        "weight cache: {} hits / {} misses / {} repairs",
        cache("hits"),
        cache("misses"),
        cache("repairs")
    );
    println!("latency (µs):     count      p50      p95      p99");
    for class in OpClass::ALL {
        let op = ("op", class.name());
        let count = value("bst_server_request_latency_us_count", &[op]);
        if count == 0.0 {
            continue;
        }
        let q = |q| value("bst_server_request_latency_us", &[op, ("quantile", q)]);
        println!(
            "  {:<12} {count:>8} {:>8.1} {:>8.1} {:>8.1}",
            class.name(),
            q("0.5"),
            q("0.95"),
            q("0.99")
        );
    }

    client.shutdown_server().expect("shutdown");
    handle.join();
    println!("\nserver stopped cleanly");
}
