//! End-to-end tests over a real socket: concurrent clients, wire/warm
//! conformance, snapshot determinism through the protocol, adversarial
//! framing, backpressure, and clean shutdown.
//!
//! The engine is `Clone` over an `Arc`, so tests keep a handle on the
//! very engine being served and compare wire answers against in-process
//! answers **on the same state** — equality here is exact, not
//! statistical, wherever the request carries a seed.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use bst_obs::expo::scrape;
use bst_server::client::{Client, ClientError};
use bst_server::protocol::{Request, Target, WireError};
use bst_server::server::{serve, ServerConfig, ServerHandle};
use bst_shard::ShardedBstSystem;
use bst_stats::conformance::{chi2_homogeneity, ks_two_sample_ids, DEFAULT_ALPHA};

/// A served engine plus a clone of it for in-process reference answers.
fn spawn(namespace: u64, shards: usize, cfg: ServerConfig) -> (ServerHandle, ShardedBstSystem) {
    let engine = ShardedBstSystem::builder(namespace)
        .shards(shards)
        .expected_set_size((namespace / 8).max(8))
        .seed(7)
        .build();
    let reference = engine.clone();
    let handle = serve(engine, "127.0.0.1:0", cfg).expect("bind ephemeral port");
    (handle, reference)
}

fn member_keys(n: u64, namespace: u64) -> Vec<u64> {
    (0..n).map(|i| (i * 97 + 13) % namespace).collect()
}

/// One series' value off a METRICS page; the series must be present.
fn metric(page: &str, family: &str, labels: &[(&str, &str)]) -> f64 {
    scrape(page, family, labels).unwrap_or_else(|| panic!("no {family}{labels:?} on\n{page}"))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn concurrent_clients_get_warm_wire_samples_identical_to_in_process() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 2_000;
    let (handle, reference) = spawn(4_096, 4, ServerConfig::default());
    let set_keys = member_keys(250, 4_096);
    let set = reference.create(set_keys.iter().copied()).unwrap().raw();
    let addr = handle.addr();

    // Four clients hammer the same stored set concurrently, each with
    // its own seed stream. The per-connection session keeps the handle
    // warm after the first frame.
    let wire_samples: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    (0..ROUNDS)
                        .map(|i| {
                            let seed = (c as u64) * 1_000_000 + i as u64;
                            client.sample(Target::Stored(set), seed).expect("sample")
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Bit-identical: replay every seed on a warm in-process handle.
    let local = reference
        .query_id(bst_core::store::FilterId::from_raw(set))
        .unwrap();
    for (c, samples) in wire_samples.iter().enumerate() {
        for (i, &wire_key) in samples.iter().enumerate() {
            let seed = (c as u64) * 1_000_000 + i as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            assert_eq!(
                local.sample(&mut rng).unwrap(),
                wire_key,
                "client {c}, draw {i}: wire and in-process draws diverged"
            );
        }
    }

    // Distributional: pooled wire draws vs an independent in-process
    // seed stream must be chi²- and KS-indistinguishable.
    let support = local.reconstruct().unwrap();
    let pooled: Vec<u64> = wire_samples.iter().flatten().copied().collect();
    let mut wire_counts = vec![0u64; support.len()];
    for &key in &pooled {
        let slot = support.binary_search(&key).expect("sample outside support");
        wire_counts[slot] += 1;
    }
    let mut local_counts = vec![0u64; support.len()];
    let mut local_pool = Vec::with_capacity(pooled.len());
    for i in 0..pooled.len() {
        let mut rng = StdRng::seed_from_u64(0xFEED_0000 + i as u64);
        let key = local.sample(&mut rng).unwrap();
        local_counts[support.binary_search(&key).unwrap()] += 1;
        local_pool.push(key);
    }
    let chi2 = chi2_homogeneity(&wire_counts, &local_counts);
    assert!(
        chi2.p_value >= DEFAULT_ALPHA,
        "wire vs in-process chi² rejected: {chi2:?}"
    );
    let ks = ks_two_sample_ids(&pooled, &local_pool);
    assert!(
        ks.p_value >= DEFAULT_ALPHA,
        "wire vs in-process KS rejected: {ks:?}"
    );
}

#[test]
fn snapshot_save_load_roundtrips_byte_identically_through_the_protocol() {
    let (handle, reference) = spawn(2_048, 2, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let a = client.create(member_keys(40, 2_048)).unwrap();
    let b = client.create((100..160u64).collect()).unwrap();
    client.occ_remove(500).unwrap();
    client.occ_remove(501).unwrap();

    let snap1 = client.save().unwrap();
    assert_eq!(
        snap1,
        reference.to_bytes(),
        "wire SAVE equals in-process to_bytes"
    );
    client.load(snap1.clone()).unwrap();
    let snap2 = client.save().unwrap();
    assert_eq!(snap1, snap2, "SAVE → LOAD → SAVE must be byte-identical");

    // The restored engine serves the same sets; the epoch moved so the
    // session re-opened its handles against the new engine.
    assert_eq!(client.list_sets().unwrap(), vec![a, b]);
    let key = client.sample(Target::Stored(a), 9).unwrap();
    assert!(key < 2_048);
    let page = client.metrics().unwrap();
    assert_eq!(metric(&page, "bst_engine_epoch", &[]), 1.0);
    assert_eq!(metric(&page, "bst_engine_sets", &[]), 2.0);
    assert_eq!(
        metric(&page, "bst_engine_occupied", &[]),
        (2_048 - 2) as f64
    );
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let cfg = ServerConfig {
        max_frame: 4_096,
        ..ServerConfig::default()
    };
    let (handle, _reference) = spawn(1_024, 2, cfg);
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unsupported protocol version.
    let mut bad = bst_server::protocol::encode_request(&Request::Ping);
    bad[0] = 99;
    send_raw(client.stream(), &bad);
    assert!(matches!(
        client.read_reply(),
        Err(ClientError::Wire(WireError::BadVersion { got: 99 }))
    ));

    // Unknown opcode.
    let mut bad = bst_server::protocol::encode_request(&Request::Ping);
    bad[1] = 200;
    send_raw(client.stream(), &bad);
    assert!(matches!(
        client.read_reply(),
        Err(ClientError::Wire(WireError::UnknownOpcode { got: 200 }))
    ));

    // A stray STATS frame (opcode 17, retired in protocol version 2),
    // both as a current-version frame and in its original version 1.
    send_raw(client.stream(), &[bst_server::protocol::PROTO_VERSION, 17]);
    assert!(matches!(
        client.read_reply(),
        Err(ClientError::Wire(WireError::UnknownOpcode { got: 17 }))
    ));
    send_raw(client.stream(), &[1, 17]);
    assert!(matches!(
        client.read_reply(),
        Err(ClientError::Wire(WireError::BadVersion { got: 1 }))
    ));

    // Truncated body.
    let good = bst_server::protocol::encode_request(&Request::Create {
        keys: vec![1, 2, 3],
    });
    send_raw(client.stream(), &good[..good.len() - 4]);
    assert!(matches!(
        client.read_reply(),
        Err(ClientError::Wire(WireError::Malformed { .. }))
    ));

    // Zero-length frame.
    client.stream().write_all(&0u32.to_le_bytes()).unwrap();
    client.stream().flush().unwrap();
    assert!(matches!(
        client.read_reply(),
        Err(ClientError::Wire(WireError::Malformed { .. }))
    ));

    // Oversized frame: drained, refused with a typed verdict.
    let oversized = vec![0u8; 8_192];
    send_raw(client.stream(), &oversized);
    assert!(matches!(
        client.read_reply(),
        Err(ClientError::Wire(WireError::FrameTooLarge {
            declared: 8_192,
            max: 4_096
        }))
    ));

    // After all of that, the same connection still serves requests.
    client.ping().expect("connection survived the abuse");
}

#[test]
fn abrupt_disconnect_mid_frame_does_not_wedge_other_clients() {
    let (handle, _reference) = spawn(1_024, 2, ServerConfig::default());
    let mut healthy = Client::connect(handle.addr()).unwrap();
    healthy.ping().unwrap();

    {
        // Declare a 100-byte frame, send 3 bytes, vanish.
        let mut rude = TcpStream::connect(handle.addr()).unwrap();
        rude.write_all(&100u32.to_le_bytes()).unwrap();
        rude.write_all(&[1, 2, 3]).unwrap();
    } // dropped here

    std::thread::sleep(Duration::from_millis(100));
    healthy
        .ping()
        .expect("server loop survived the rude client");
    healthy
        .create((0..16u64).collect())
        .expect("mutations still served");
}

#[test]
fn backpressure_refuses_connections_over_the_cap_with_a_typed_frame() {
    let cfg = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let (handle, _reference) = spawn(1_024, 2, cfg);
    let mut first = Client::connect(handle.addr()).unwrap();
    first.ping().unwrap();

    // The second arrival is refused with Busy before any request.
    let mut refused = Client::connect(handle.addr()).unwrap();
    match refused.read_reply() {
        Err(ClientError::Wire(WireError::Busy { active: 1, max: 1 })) => {}
        other => panic!("expected Busy refusal, got {other:?}"),
    }

    // Once the first client leaves, the slot frees up (within the
    // worker's poll interval) and new connections are served again.
    drop(first);
    let mut again = retry_connect_and_ping(handle.addr());
    let page = again.metrics().unwrap();
    assert!(
        metric(&page, "bst_server_sessions_refused_total", &[]) >= 1.0,
        "refusal must be counted"
    );
    assert_eq!(metric(&page, "bst_server_active_connections", &[]), 1.0);
}

fn retry_connect_and_ping(addr: std::net::SocketAddr) -> Client {
    for _ in 0..100 {
        if let Ok(mut c) = Client::connect(addr) {
            if c.ping().is_ok() {
                return c;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server never freed the connection slot");
}

#[test]
fn mixed_batches_over_the_wire_match_in_process_scatter() {
    let (handle, reference) = spawn(2_048, 4, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let a = client.create(member_keys(60, 2_048)).unwrap();
    let b = client.create((300..380u64).collect()).unwrap();
    let adhoc_filter = reference.store((700..760u64).map(|k| k % 2_048));
    let seed = 0xBA7C4;

    let results = client
        .batch(
            vec![
                Target::Stored(a),
                Target::adhoc(&adhoc_filter),
                Target::Stored(b),
                Target::Stored(999_999),      // unknown id: fails alone
                Target::Adhoc(vec![1, 2, 3]), // garbage bytes: fails alone
            ],
            seed,
        )
        .unwrap();

    // The handler runs id-slots and filter-slots as separate engine
    // batches with the same seed; mirror that in-process.
    use bst_core::store::FilterId;
    let (id_answers, _) = reference.query_batch_ids(
        &[
            FilterId::from_raw(a),
            FilterId::from_raw(b),
            FilterId::from_raw(999_999),
        ],
        seed,
        0,
    );
    let (filter_answers, _) = reference.query_batch(&[adhoc_filter], seed, 0);
    assert_eq!(results.len(), 5);
    assert_eq!(results[0], id_answers[0].map_err(WireError::from));
    assert_eq!(results[2], id_answers[1].map_err(WireError::from));
    assert_eq!(results[3], id_answers[2].map_err(WireError::from));
    assert!(matches!(results[3], Err(WireError::UnknownFilterId { .. })));
    assert_eq!(results[1], filter_answers[0].map_err(WireError::from));
    assert!(matches!(results[4], Err(WireError::Malformed { .. })));

    // sample_many over the wire equals an in-process seeded draw too.
    let wire = client.sample_many(Target::Stored(a), 32, 77).unwrap();
    let local = reference
        .query_id(FilterId::from_raw(a))
        .unwrap()
        .sample_many(32, &mut StdRng::seed_from_u64(77))
        .unwrap();
    assert_eq!(wire, local);

    // And reconstruction: wire == in-process, both sorted.
    let wire_rec = client.reconstruct(Target::Stored(b)).unwrap();
    let local_rec = reference
        .query_id(FilterId::from_raw(b))
        .unwrap()
        .reconstruct()
        .unwrap();
    assert_eq!(wire_rec, local_rec);
    let windowed = client
        .reconstruct_range(Target::Stored(b), 300, 340)
        .unwrap();
    assert!(windowed.iter().all(|&k| (300..340).contains(&k)));
}

#[test]
fn stats_surface_reports_latencies_and_weight_cache() {
    let (handle, _reference) = spawn(1_024, 2, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let set = client.create(member_keys(30, 1_024)).unwrap();
    for i in 0..20 {
        client.sample(Target::Stored(set), i).unwrap();
    }
    client.batch(vec![Target::Stored(set)], 5).unwrap();
    let page = client.metrics().unwrap();
    assert_eq!(metric(&page, "bst_engine_namespace", &[]), 1_024.0);
    assert_eq!(metric(&page, "bst_engine_shards", &[]), 2.0);
    assert_eq!(metric(&page, "bst_engine_sets", &[]), 1.0);
    assert!(metric(&page, "bst_server_frames_served_total", &[]) >= 22.0);
    assert_eq!(metric(&page, "bst_server_active_connections", &[]), 1.0);
    // The batch path went through the persistent weight cache.
    let cache = |kind| metric(&page, "bst_engine_weight_cache_total", &[("kind", kind)]);
    assert!(
        cache("hits") + cache("misses") > 0.0,
        "batch must touch the weight cache"
    );
    // Sample and batch latency rows exist, with sane percentiles.
    let sample = [("op", "sample")];
    assert_eq!(
        metric(&page, "bst_server_request_latency_us_count", &sample),
        20.0
    );
    let q = |q| {
        metric(
            &page,
            "bst_server_request_latency_us",
            &[sample[0], ("quantile", q)],
        )
    };
    assert!(q("0.5") <= q("0.95"));
    assert!(q("0.95") <= q("0.99"));
    let total: f64 = bst_server::stats::OpClass::ALL
        .iter()
        .map(|c| {
            metric(
                &page,
                "bst_server_request_latency_us_count",
                &[("op", c.name())],
            )
        })
        .sum();
    assert!(total >= 22.0);
}

#[test]
fn wire_shutdown_stops_the_server_cleanly() {
    let (handle, _reference) = spawn(512, 2, ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    client.shutdown_server().unwrap();
    // join() returns because the wire shutdown stopped the accept loop.
    handle.join();
    // The listener is gone: fresh connections fail (or are reset
    // immediately on first use).
    let gone = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.ping().is_err(),
    };
    assert!(gone, "listener must be closed after wire shutdown");
}

/// Writes a pre-encoded payload as one frame.
fn send_raw(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
    stream.flush().unwrap();
}
