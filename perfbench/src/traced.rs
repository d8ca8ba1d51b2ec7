//! The traced run: per-layer attribution from outside the program.
//!
//! 1. **Wire phase.** The served engine on loopback, driven by the same
//!    seeded requests as the untraced run. Odd requests go through spans
//!    around the client's encode / socket / decode calls, even ones
//!    through the plain client, so the difference of the two is the
//!    tracing overhead. Answers are kept; METRICS is scraped at the end.
//! 2. **Replay phase.** The same requests, regenerated from the seed,
//!    are sent in-process to twin engines built from the same inputs:
//!    `shard` spans time `ShardQuery` / `query_batch*` calls on twin S
//!    (with the server session's handle-cache discipline), `core` spans
//!    time per-shard `Query` calls on twin C, and on durable-churn every
//!    write is timed through a `DurableBstSystem` and on plain C. Each
//!    shard answer must be bit-identical to the wire answer, every wire
//!    answer passes the correctness gate, and S's summed `OpStats` must
//!    equal the server's `bst_engine_ops_total` exactly.
//! 3. **Bloom phase.** `contains`, `for_each_member` and `codec::decode`
//!    over the workload's own filters.
//!
//! Spans live in memory and are written to `perfbench/out/` at the end.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bst_bloom::filter::BloomFilter;
use bst_core::error::BstError;
use bst_core::store::FilterId;
use bst_core::OpStats;
use bst_server::client::Client;
use bst_server::frame::{read_frame, write_frame, CLIENT_MAX_FRAME};
use bst_server::protocol::{
    decode_response, encode_request, encode_response, Request, Response, WireError,
};
use bst_shard::{
    filter_content_hash, BatchObs, DurableBstSystem, DurableConfig, ShardQuery, ShardedBstSystem,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::Checker;
use crate::util::{median, scrape, Fifo, Spans};
use crate::wire;
use crate::workload::{local_batch, Gen, Inputs, Kind, Op, Target, SAMPLE_MANY_R};
use crate::{Outcome, Report};

/// Handle slots of a server session (stored, ad-hoc), mirrored here.
const SESSION_STORED: usize = 64;
const SESSION_ADHOC: usize = 16;
/// Requests that get an extra fresh-handle `core` measurement, at most.
const FRESH_CAP: usize = 200;
/// Write pairs of the WAL probe, the stored sets it holds, and explicit
/// checkpoints timed per run.
const PROBE_WRITES: usize = 512;
const PROBE_SETS: usize = 64;
const CHECKPOINT_PROBES: usize = 3;
/// Filters and probe keys of the Bloom phase.
const BLOOM_FILTERS: usize = 32;
const BLOOM_KEYS: usize = 4096;
const BLOOM_REPS: usize = 5;

/// An ad-hoc handle's cache key: content hash plus the exact encoding as
/// collision guard, as the server session keys it.
struct AdhocKey {
    hash: u64,
    adhoc: Arc<crate::workload::Adhoc>,
}

impl PartialEq for AdhocKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.adhoc.bytes == other.adhoc.bytes
    }
}

/// The server session's handle caches, replayed against another engine.
struct SessionMirror {
    stored: Fifo<u64, ShardQuery>,
    adhoc: Fifo<AdhocKey, ShardQuery>,
}

impl SessionMirror {
    fn new() -> Self {
        SessionMirror {
            stored: Fifo::new(SESSION_STORED),
            adhoc: Fifo::new(SESSION_ADHOC),
        }
    }

    fn handle(&mut self, sys: &ShardedBstSystem, target: &Target) -> Result<&ShardQuery, BstError> {
        match target {
            Target::Stored(id) => self
                .stored
                .get_or_open(*id, || sys.query_id(FilterId::from_raw(*id))),
            Target::Adhoc(a) => {
                let key = AdhocKey {
                    hash: filter_content_hash(&a.filter),
                    adhoc: a.clone(),
                };
                self.adhoc.get_or_open(key, || Ok(sys.query(&a.filter)))
            }
        }
    }
}

/// What the wire phase hands to the replay.
struct WirePhase {
    replies: Vec<Result<Response, String>>,
    requests: usize,
    /// Round trips (µs) of plain and traced requests, by kind.
    plain_rt: [Vec<f64>; 5],
    traced_rt: [Vec<f64>; 5],
    codec_us: Vec<f64>,
    req_bytes: [Vec<f64>; 5],
    resp_bytes: [Vec<f64>; 5],
    engine_ops: OpStats,
    handler_sample_p50: f64,
    replayed_records: f64,
}

fn frame_exchange(client: &mut Client, payload: &[u8]) -> Result<Vec<u8>, String> {
    write_frame(client.stream(), payload).map_err(|e| e.to_string())?;
    read_frame(client.stream(), CLIENT_MAX_FRAME)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "server closed the connection".to_string())
}

fn wire_phase(
    inputs: &Inputs,
    seconds: f64,
    scratch: &Path,
    spans: &mut Spans,
) -> Result<WirePhase, String> {
    let w = inputs.workload;
    let dir = scratch.join("wal-traced");
    let served = wire::start(inputs, &dir);
    let mut client = Client::connect(served.handle.addr()).map_err(|e| e.to_string())?;
    let proto = inputs.build_engine();
    let mut gen = Gen::new(inputs, &proto);
    drop(proto);
    let mut out = WirePhase {
        replies: Vec::new(),
        requests: 0,
        plain_rt: Default::default(),
        traced_rt: Default::default(),
        codec_us: Vec::new(),
        req_bytes: Default::default(),
        resp_bytes: Default::default(),
        engine_ops: OpStats::new(),
        handler_sample_p50: f64::NAN,
        replayed_records: 0.0,
    };
    let mut t0 = Instant::now();
    let mut i = 0usize;
    while i < w.warmup_requests() || t0.elapsed().as_secs_f64() < seconds {
        if i == w.warmup_requests() {
            t0 = Instant::now();
        }
        let op = gen.next_op();
        let req: Request = op.to_request();
        let k = op.kind().index();
        let measured = i >= w.warmup_requests();
        let reply = if i % 2 == 1 {
            let root = spans.begin("wire.request", 0, i as u64);
            let (payload, enc) =
                spans.time("server.encode", root, i as u64, || encode_request(&req));
            let (frame, _) = spans.time("server.socket", root, i as u64, || {
                frame_exchange(&mut client, &payload)
            });
            let frame = frame?;
            let (decoded, dec) =
                spans.time("server.decode", root, i as u64, || decode_response(&frame));
            let rt = spans.end(root);
            if measured {
                out.traced_rt[k].push(rt);
                out.codec_us.push(enc + dec);
                out.req_bytes[k].push(payload.len() as f64);
                out.resp_bytes[k].push(frame.len() as f64);
            }
            match decoded {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(e)) => Err(format!("server error: {e}")),
                Err(e) => Err(format!("undecodable reply: {e}")),
            }
        } else {
            let t = Instant::now();
            let reply = client.request(&req).map_err(|e| e.to_string());
            let rt = t.elapsed().as_secs_f64() * 1e6;
            if measured {
                out.plain_rt[k].push(rt);
                out.req_bytes[k].push(encode_request(&req).len() as f64);
                if let Ok(r) = &reply {
                    out.resp_bytes[k].push(encode_response(r).len() as f64);
                }
            }
            reply
        };
        out.replies.push(reply);
        i += 1;
    }
    out.requests = i;
    let page = client
        .metrics()
        .map_err(|e| format!("METRICS scrape: {e}"))?;
    let op = |kind: &str| {
        scrape(&page, "bst_engine_ops_total", &format!("kind=\"{kind}\"")).unwrap_or(f64::NAN)
            as u64
    };
    out.engine_ops = OpStats {
        intersections: op("intersections"),
        memberships: op("memberships"),
        nodes_visited: op("nodes_visited"),
        backtracks: op("backtracks"),
    };
    out.handler_sample_p50 = scrape(
        &page,
        "bst_server_request_latency_us",
        "op=\"sample\",quantile=\"0.5\"",
    )
    .unwrap_or(f64::NAN);
    wire::stop(served, Some(client));
    if w.durable() {
        let reopened =
            DurableBstSystem::open(&dir, DurableConfig::default(), || inputs.build_engine())
                .map_err(|e| format!("reopen: {e}"))?;
        out.replayed_records = reopened.obs().replayed.get() as f64;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Everything the replay phase measures.
#[derive(Default)]
struct Replay {
    shard_ops: OpStats,
    batch_us: Vec<f64>,
    shard_sample_us: Vec<f64>,
    shard_self_us: Vec<f64>,
    core_sample_us: Vec<f64>,
    core_repair_us: Vec<f64>,
    cold_weigh_us: Vec<f64>,
    fresh_reconstruct_us: Vec<f64>,
    fresh_reconstruct_memberships: u64,
    fresh_reconstructs: usize,
    mirror_mismatches: u64,
    wal: WalTally,
    /// Records replayed when the WAL probe's directory is reopened
    /// (workloads without writes of their own).
    probe_replayed: Option<f64>,
    weigh_p50: f64,
    sample_phase_p50: f64,
    cache_lookups: u64,
    cache_hits: u64,
    cache_repairs: u64,
    batches: u64,
    filters: Vec<(BloomFilter, Vec<u8>)>,
}

/// What the `wal` layer did over a run of writes.
#[derive(Default)]
struct WalTally {
    /// Per write: durable mutation minus the same mutation on the plain
    /// twin, µs.
    append_us: Vec<f64>,
    /// Log growth plus checkpoint files written, bytes.
    bytes: f64,
    checkpoint_us: Vec<f64>,
    writes: u64,
    user_bytes: u64,
    log_prev: i64,
    checkpoints_seen: u64,
    checkpoints: f64,
    fsyncs: f64,
    appended: f64,
}

impl WalTally {
    fn start(&mut self, d: &DurableBstSystem) {
        self.log_prev = d.obs().log_bytes.get();
        self.checkpoints_seen = d.obs().checkpoints.get();
    }

    /// Times `op` through the durable engine and on the plain twin, and
    /// accounts the log and checkpoint bytes written since the last call.
    fn write(
        &mut self,
        op: &Op,
        d: &DurableBstSystem,
        plain: &ShardedBstSystem,
        spans: &mut Spans,
        (parent, rid): (usize, u64),
        measured: bool,
    ) -> Result<(), String> {
        let (plain_res, plain_us) =
            spans.time("shard.plain_write", parent, rid, || op.apply(plain));
        let (res, us) = spans.time("wal.durable_write", parent, rid, || op.apply_durable(d));
        self.writes += 1;
        self.user_bytes += op.user_bytes();
        if measured {
            self.append_us.push(us - plain_us);
        }
        self.note_disk(d);
        res.and(plain_res)
    }

    fn note_disk(&mut self, d: &DurableBstSystem) {
        let o = d.obs();
        let log = o.log_bytes.get();
        self.bytes += if log >= self.log_prev {
            log - self.log_prev
        } else {
            log
        } as f64;
        self.log_prev = log;
        let ck = o.checkpoints.get();
        if ck != self.checkpoints_seen {
            self.checkpoints_seen = ck;
            self.checkpoint_us.push(o.last_checkpoint_us.get() as f64);
            let file = d.dir().join("checkpoint.bst");
            self.bytes += std::fs::metadata(file).map_or(0, |m| m.len()) as f64;
        }
    }

    /// Times explicit checkpoints (the workload's own traffic may not fill
    /// `checkpoint_every` within one run) and takes the engine's counters.
    fn finish(&mut self, d: &DurableBstSystem, spans: &mut Spans) -> Result<(), String> {
        self.checkpoints = d.obs().checkpoints.get() as f64;
        for i in 0..CHECKPOINT_PROBES {
            spans
                .time("wal.checkpoint", 0, i as u64, || d.checkpoint())
                .0
                .map_err(|e| format!("checkpoint: {e}"))?;
            self.note_disk(d);
        }
        let o = d.obs();
        self.fsyncs = o.fsyncs.get() as f64;
        self.appended = o.appended.get() as f64;
        Ok(())
    }
}

/// Exercises the `wal` layer on a workload without writes of its own:
/// seeded `INSERT_KEYS` / `REMOVE_KEYS` pairs on the first
/// [`PROBE_SETS`] stored sets, timed through a `DurableBstSystem` over the
/// workload's occupancy holding those sets and on the plain twin, with
/// explicit checkpoints halfway, then a reopen whose replayed records are
/// counted. The store is cut to [`PROBE_SETS`] so a checkpoint stays a few
/// MB on cold-read's 4096-set engine.
fn wal_probe(
    inputs: &Inputs,
    plain: &ShardedBstSystem,
    dir: &Path,
    spans: &mut Spans,
    r: &mut Replay,
) -> Result<(), String> {
    let sets = PROBE_SETS.min(inputs.sets.len());
    let d = inputs.populated_durable(dir, sets);
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x3a1_9e0b);
    r.wal.start(&d);
    for i in 0..PROBE_WRITES {
        if i == PROBE_WRITES / 2 {
            r.wal.finish(&d, spans)?;
        }
        let id = rng.gen_range(0..sets as u64);
        let keys: Vec<u64> = (0..4)
            .map(|_| rng.gen_range(0..inputs.workload.namespace()))
            .collect();
        for op in [
            Op::InsertKeys {
                id,
                keys: keys.clone(),
            },
            Op::RemoveKeys { id, keys },
        ] {
            r.wal.write(&op, &d, plain, spans, (0, i as u64), true)?;
        }
    }
    drop(d);
    let reopened = DurableBstSystem::open(dir, DurableConfig::default(), || inputs.build_engine())
        .map_err(|e| format!("reopen: {e}"))?;
    r.probe_replayed = Some(reopened.obs().replayed.get() as f64);
    Ok(())
}

/// Times `core` repair on a workload without writes of its own: a kept,
/// weighed handle's shard weights right after its set gained keys.
fn repair_probe(inputs: &Inputs, sys: &ShardedBstSystem, spans: &mut Spans, r: &mut Replay) {
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x4e9a_1415);
    for i in 0..FRESH_CAP {
        let id = FilterId::from_raw(rng.gen_range(0..inputs.sets.len() as u64));
        let keys: Vec<u64> = (0..4)
            .map(|_| rng.gen_range(0..inputs.workload.namespace()))
            .collect();
        let Ok(q) = sys.query_id(id) else { continue };
        if q.live_weight().is_err() || sys.insert_keys(id, keys.clone()).is_err() {
            continue;
        }
        let mut us = 0.0;
        for h in q.shard_handles() {
            us += spans
                .time("core.repair_probe", 0, i as u64, || h.live_weight())
                .1;
        }
        r.core_repair_us.push(us);
        let _ = sys.remove_keys(id, keys);
    }
}

/// A handle opened now, sharing no memo with any other.
fn fresh_handle(sys: &ShardedBstSystem, target: &Target) -> Option<ShardQuery> {
    match target {
        Target::Stored(id) => sys.query_id(FilterId::from_raw(*id)).ok(),
        Target::Adhoc(a) => Some(sys.query(&a.filter)),
    }
}

/// Times the per-shard reconstructs of a fresh handle, with the
/// memberships they cost.
fn fresh_reconstruct(fq: &ShardQuery, spans: &mut Spans, parent: usize, rid: u64, r: &mut Replay) {
    r.fresh_reconstructs += 1;
    let mut total = 0.0;
    for h in fq.shard_handles() {
        total += spans
            .time("core.fresh_reconstruct", parent, rid, || h.reconstruct())
            .1;
    }
    r.fresh_reconstruct_us.push(total);
    r.fresh_reconstruct_memberships += fq.take_stats().memberships;
}

/// Times a `SAMPLE` the way `ShardQuery::sample` does its work, through
/// each shard's own `Query`: every shard's live weight, then one sample
/// on the shard the seeded draw picks. Returns the key and the µs spent
/// weighing and sampling.
fn core_sample(
    q: &ShardQuery,
    seed: u64,
    spans: &mut Spans,
    parent: usize,
    rid: u64,
) -> Option<(u64, f64, f64)> {
    let handles = q.shard_handles();
    let mut weights = Vec::with_capacity(handles.len());
    let mut weigh_us = 0.0;
    for h in handles {
        let (w, us) = spans.time("core.live_weight", parent, rid, || h.live_weight());
        weigh_us += us;
        weights.push(match w {
            Ok(w) => w,
            Err(BstError::EmptyFilter) | Err(BstError::EmptyTree) => 0,
            Err(_) => return None,
        });
    }
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pick = rng.gen_range(0..total);
    let shard = weights.iter().position(|&w| {
        if pick < w {
            true
        } else {
            pick -= w;
            false
        }
    })?;
    let (key, sample_us) = spans.time("core.sample", parent, rid, || {
        handles[shard].sample(&mut rng)
    });
    key.ok().map(|k| (k, weigh_us, sample_us))
}

fn replay_phase(
    inputs: &Inputs,
    wire: &WirePhase,
    scratch: &Path,
    spans: &mut Spans,
    errors: &mut Vec<String>,
) -> Result<Replay, String> {
    let w = inputs.workload;
    let dir = scratch.join("wal-replay");
    let durable = w
        .durable()
        .then(|| inputs.populated_durable(&dir, inputs.sets.len()));
    let s_sys = match &durable {
        Some(d) => d.system(),
        None => inputs.populated_engine(),
    };
    let c_sys = inputs.populated_engine();
    let obs = Arc::new(BatchObs::unregistered());
    s_sys.set_batch_obs(Some(obs.clone()));
    let cache0 = s_sys.weight_cache_stats();
    let mut gen = Gen::new(inputs, &c_sys);
    let mut checker = Checker::new(c_sys.clone(), u64::MAX);
    let mut s_session = SessionMirror::new();
    let mut c_session = SessionMirror::new();
    let mut r = Replay::default();
    let mut fresh_weighs = 0usize;
    let mut seen_filters = HashSet::new();
    if let Some(d) = &durable {
        r.wal.start(d);
    }

    for (i, reply) in wire.replies.iter().enumerate() {
        let op = gen.next_op();
        let rid = i as u64;
        let measured = i >= w.warmup_requests();
        let root = spans.begin("replay.request", 0, rid);
        // shard layer, with the session's handle caching
        let local: Result<Response, String> = match &op {
            Op::Sample { target, seed } => {
                let q = s_session.handle(&s_sys, target);
                match q {
                    Ok(q) => {
                        let (key, us) = spans.time("shard.sample", root, rid, || {
                            q.sample(&mut StdRng::seed_from_u64(*seed))
                        });
                        r.shard_ops += q.take_stats();
                        if measured {
                            r.shard_sample_us.push(us);
                        }
                        key.map(|key| Response::Sampled { key })
                            .map_err(|e| e.to_string())
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
            Op::SampleMany { target, seed } => match s_session.handle(&s_sys, target) {
                Ok(q) => {
                    let (keys, _) = spans.time("shard.sample_many", root, rid, || {
                        q.sample_many(SAMPLE_MANY_R as usize, &mut StdRng::seed_from_u64(*seed))
                    });
                    r.shard_ops += q.take_stats();
                    keys.map(|keys| Response::Keys { keys })
                        .map_err(|e| e.to_string())
                }
                Err(e) => Err(e.to_string()),
            },
            Op::Reconstruct { target } => match s_session.handle(&s_sys, target) {
                Ok(q) => {
                    let (keys, us) = spans.time("shard.reconstruct", root, rid, || q.reconstruct());
                    r.shard_ops += q.take_stats();
                    // core mirror on C: the same per-shard reconstructs
                    if let Ok(cq) = c_session.handle(&c_sys, target) {
                        let mut core_us = 0.0;
                        for h in cq.shard_handles() {
                            core_us += spans
                                .time("core.reconstruct", root, rid, || h.reconstruct())
                                .1;
                        }
                        if measured {
                            r.shard_self_us.push(us - core_us);
                        }
                    }
                    keys.map(|keys| Response::Keys { keys })
                        .map_err(|e| e.to_string())
                }
                Err(e) => Err(e.to_string()),
            },
            Op::Batch { targets, seed } => {
                let ((answers, stats), us) = spans.time("shard.batch", root, rid, || {
                    local_batch(&s_sys, targets, *seed)
                });
                r.shard_ops += stats;
                r.batches += 1;
                if measured {
                    r.batch_us.push(us);
                }
                Ok(Response::Batch {
                    results: answers
                        .into_iter()
                        .map(|a| a.map_err(WireError::from))
                        .collect(),
                })
            }
            write => {
                checker.forget(write);
                if let Op::DropSet { id } = write {
                    s_session.stored.evict(id);
                    c_session.stored.evict(id);
                }
                let res = match &durable {
                    Some(d) => r.wal.write(write, d, &c_sys, spans, (root, rid), measured),
                    None => write.apply(&c_sys),
                };
                res.map(|()| match write {
                    Op::Create { expect_id, .. } => Response::Created { id: *expect_id },
                    Op::OccInsert { .. } | Op::OccRemove { .. } => {
                        Response::Generation { generation: 0 }
                    }
                    _ => Response::Ok,
                })
            }
        };

        // core layer on C for SAMPLE: repair (stale kept handle) or warm
        if let Op::Sample { target, seed } = &op {
            if let Ok(cq) = c_session.handle(&c_sys, target) {
                let stale = cq.is_stale().unwrap_or(false);
                match core_sample(cq, *seed, spans, root, rid) {
                    Some((key, weigh_us, sample_us)) => {
                        if measured {
                            if stale {
                                r.core_repair_us.push(weigh_us);
                            }
                            r.core_sample_us.push(sample_us);
                            if let Some(&shard_us) = r.shard_sample_us.last() {
                                r.shard_self_us.push(shard_us - weigh_us - sample_us);
                            }
                        }
                        if !matches!(&local, Ok(Response::Sampled { key: k }) if *k == key) {
                            r.mirror_mismatches += 1;
                        }
                    }
                    None => r.mirror_mismatches += 1,
                }
            }
            // durable-churn's mix has no RECONSTRUCT: time the fresh
            // per-shard reconstruct of some of its SAMPLE targets instead
            if w.durable() && measured && r.fresh_reconstructs < FRESH_CAP && i % 5 == 0 {
                if let Some(fq) = fresh_handle(&c_sys, target) {
                    fresh_reconstruct(&fq, spans, root, rid, &mut r);
                }
            }
            // fresh handle: cold per-shard weigh
            if measured && fresh_weighs < FRESH_CAP && i % 3 == 0 {
                fresh_weighs += 1;
                if let Some(fq) = fresh_handle(&c_sys, target) {
                    for h in fq.shard_handles() {
                        let (_, us) = spans.time("core.cold_weigh", root, rid, || h.live_weight());
                        r.cold_weigh_us.push(us);
                    }
                }
            }
        }
        if let Op::Reconstruct { target } = &op {
            if measured && r.fresh_reconstructs < FRESH_CAP {
                if let Some(fq) = fresh_handle(&c_sys, target) {
                    fresh_reconstruct(&fq, spans, root, rid, &mut r);
                }
            }
        }
        spans.end(root);

        // the replayed shard answer must be the wire answer, bit for bit
        let same = match (&local, reply) {
            (Ok(a), Ok(b)) => match (a, b) {
                (Response::Generation { .. }, Response::Generation { .. }) => true,
                (a, b) => a == b,
            },
            _ => false,
        };
        if !same {
            errors.push(format!(
                "request {i} ({}): in-process replay differs from the wire answer",
                op.kind().name()
            ));
        }
        if let Err(e) = checker.check(&op, reply.clone(), &gen.model, !w.durable()) {
            errors.push(format!("request {i} ({}): {e}", op.kind().name()));
        }

        // keep a few of the workload's filters for the Bloom phase
        if r.filters.len() < BLOOM_FILTERS {
            let targets: Vec<Target> = match &op {
                Op::Sample { target, .. }
                | Op::SampleMany { target, .. }
                | Op::Reconstruct { target } => {
                    vec![target.clone()]
                }
                Op::Batch { targets, .. } => targets.clone(),
                _ => vec![],
            };
            for t in targets {
                let f = match &t {
                    Target::Adhoc(a) => Some((a.filter.clone(), a.bytes.clone())),
                    Target::Stored(id) if seen_filters.insert(*id) => c_sys
                        .query_id(FilterId::from_raw(*id))
                        .ok()
                        .map(|q| q.shard_handles()[0].filter())
                        .map(|f| {
                            let bytes = bst_bloom::codec::encode(&f).to_vec();
                            (f, bytes)
                        }),
                    Target::Stored(_) => None,
                };
                if let Some(f) = f {
                    if r.filters.len() < BLOOM_FILTERS {
                        r.filters.push(f);
                    }
                }
            }
        }
    }

    let cache1 = s_sys.weight_cache_stats();
    r.cache_hits = cache1.hits - cache0.hits;
    r.cache_repairs = cache1.repairs - cache0.repairs;
    r.cache_lookups = r.cache_hits + r.cache_repairs + (cache1.misses - cache0.misses);
    r.weigh_p50 = obs.weigh_us.snapshot().p50().unwrap_or(0.0);
    r.sample_phase_p50 = obs.sample_us.snapshot().p50().unwrap_or(0.0);
    drop(s_sys);
    match &durable {
        Some(d) => r.wal.finish(d, spans)?,
        None => {
            // The workload leaves `wal` and `core` repair idle; probe them
            // so every per-layer time is a measurement.
            wal_probe(inputs, &c_sys, &scratch.join("wal-probe"), spans, &mut r)?;
            repair_probe(inputs, &c_sys, spans, &mut r);
        }
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(scratch.join("wal-probe"));
    Ok(r)
}

/// Median ns per call of `contains`, and per candidate of
/// `for_each_member`, and median µs per `codec::decode`, over the
/// workload's filters.
fn bloom_phase(
    filters: &[(BloomFilter, Vec<u8>)],
    namespace: u64,
    seed: u64,
    spans: &mut Spans,
) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb100_f11e);
    let keys: Vec<u64> = (0..BLOOM_KEYS)
        .map(|_| rng.gen_range(0..namespace))
        .collect();
    let start = rng.gen_range(0..namespace.saturating_sub(BLOOM_KEYS as u64).max(1));
    let (mut contains, mut scan, mut decode) = (Vec::new(), Vec::new(), Vec::new());
    let mut sink = 0u64;
    for _ in 0..BLOOM_REPS {
        for (f, bytes) in filters {
            let (hits, us) = spans.time("bloom.contains", 0, 0, || {
                keys.iter().filter(|&&k| f.contains(k)).count()
            });
            sink += hits as u64;
            contains.push(us * 1000.0 / BLOOM_KEYS as f64);
            let (probed, us) = spans.time("bloom.member_scan", 0, 0, || {
                let mut n = 0u64;
                let probed = f.for_each_member(start..start + BLOOM_KEYS as u64, |_| n += 1);
                probed + n
            });
            sink += probed;
            scan.push(us * 1000.0 / BLOOM_KEYS as f64);
            let (d, us) = spans.time("bloom.decode", 0, 0, || bst_bloom::codec::decode(bytes));
            sink += d.map_or(0, |d| d.m() as u64);
            decode.push(us);
        }
    }
    std::hint::black_box(sink);
    (median(&contains), median(&scan), median(&decode))
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `median`, or 0 when the workload never ran that operation.
fn med0(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

pub fn run(inputs: &Inputs, seconds: u64, scratch: &Path, out_dir: &Path) -> Outcome {
    let w = inputs.workload;
    let mut report = Report::default();
    let mut spans = Spans::new();
    let mut errors = Vec::new();
    let wire = match wire_phase(inputs, seconds as f64 / 2.0, scratch, &mut spans) {
        Ok(p) => p,
        Err(e) => {
            return Outcome {
                attempted: 1,
                failed: 1,
                errors: vec![format!("wire phase: {e}")],
                report,
            }
        }
    };
    let replay = match replay_phase(inputs, &wire, scratch, &mut spans, &mut errors) {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                attempted: wire.requests as u64,
                failed: 1,
                errors: vec![format!("replay phase: {e}")],
                report,
            }
        }
    };
    let wire_failures = wire.replies.iter().filter(|r| r.is_err()).count();
    if replay.shard_ops != wire.engine_ops {
        errors.push(format!(
            "OpStats cross-check: in-process replay did {}, the server reports {}",
            replay.shard_ops, wire.engine_ops
        ));
    }
    let (contains_ns, scan_ns, decode_us) =
        bloom_phase(&replay.filters, w.namespace(), inputs.seed, &mut spans);

    let n = wire.requests as f64;
    let sample = Kind::Sample.index();
    report.metric("server.handler_us", wire.handler_sample_p50, "us");
    report.metric(
        "server.overhead_us",
        median(&wire.plain_rt[sample]) - median(&replay.shard_sample_us),
        "us",
    );
    report.metric("server.codec_us", median(&wire.codec_us), "us");
    let all = |v: &[Vec<f64>; 5]| v.iter().flatten().copied().collect::<Vec<f64>>();
    report.metric("server.request_bytes", mean(&all(&wire.req_bytes)), "bytes");
    report.metric(
        "server.response_bytes",
        mean(&all(&wire.resp_bytes)),
        "bytes",
    );
    report.metric("shard.batch_us", med0(&replay.batch_us), "us");
    report.metric("shard.weigh_us", replay.weigh_p50, "us");
    report.metric("shard.sample_phase_us", replay.sample_phase_p50, "us");
    report.metric(
        "shard.cache_hit_ratio",
        replay.cache_hits as f64 / replay.cache_lookups.max(1) as f64,
        "ratio",
    );
    report.metric(
        "shard.cache_repairs_per_batch",
        replay.cache_repairs as f64 / replay.batches.max(1) as f64,
        "count",
    );
    report.metric("shard.self_us", med0(&replay.shard_self_us), "us");
    report.metric("core.cold_weigh_us", med0(&replay.cold_weigh_us), "us");
    report.metric("core.sample_us", med0(&replay.core_sample_us), "us");
    let reconstruct_us = med0(&replay.fresh_reconstruct_us);
    report.metric("core.reconstruct_us", reconstruct_us, "us");
    report.metric("core.repair_us", med0(&replay.core_repair_us), "us");
    let ops = replay.shard_ops;
    report.metric(
        "core.intersections_per_op",
        ops.intersections as f64 / n,
        "count",
    );
    report.metric(
        "core.memberships_per_op",
        ops.memberships as f64 / n,
        "count",
    );
    report.metric("core.nodes_per_op", ops.nodes_visited as f64 / n, "count");
    report.metric("core.backtracks_per_op", ops.backtracks as f64 / n, "count");
    report.metric("bloom.contains_ns", contains_ns, "ns");
    report.metric("bloom.member_scan_ns", scan_ns, "ns");
    report.metric("bloom.decode_us", decode_us, "us");
    let memberships_per_reconstruct =
        replay.fresh_reconstruct_memberships as f64 / replay.fresh_reconstructs.max(1) as f64;
    report.metric(
        "bloom.probe_share",
        if reconstruct_us > 0.0 {
            memberships_per_reconstruct * contains_ns / (reconstruct_us * 1000.0)
        } else {
            0.0
        },
        "ratio",
    );
    let wal = &replay.wal;
    report.metric("wal.append_us", med0(&wal.append_us), "us");
    report.metric(
        "wal.bytes_per_write",
        wal.bytes / wal.writes.max(1) as f64,
        "bytes",
    );
    report.metric(
        "wal.write_amp",
        wal.bytes / wal.user_bytes.max(1) as f64,
        "ratio",
    );
    report.metric(
        "wal.fsyncs_per_write",
        wal.fsyncs / wal.appended.max(1.0),
        "ratio",
    );
    report.metric("wal.checkpoints", wal.checkpoints, "count");
    report.metric("wal.checkpoint_us", med0(&wal.checkpoint_us), "us");
    report.metric(
        "wal.replayed_records",
        replay.probe_replayed.unwrap_or(wire.replayed_records),
        "count",
    );

    // tracing overhead: traced minus plain wire round trips, per kind
    for kind in Kind::ALL {
        let (p, t) = (&wire.plain_rt[kind.index()], &wire.traced_rt[kind.index()]);
        if p.is_empty() || t.is_empty() {
            continue;
        }
        report.metric(
            &format!("trace.overhead_{}_us", kind.name()),
            median(t) - median(p),
            "us",
        );
        report.note(
            &format!("{}_requests", kind.name()),
            (p.len() + t.len()) as f64,
        );
        report.note(
            &format!("{}_request_bytes", kind.name()),
            mean(&wire.req_bytes[kind.index()]),
        );
        report.note(
            &format!("{}_response_bytes", kind.name()),
            mean(&wire.resp_bytes[kind.index()]),
        );
    }
    report.note("requests", n);
    report.note("wire_failures", wire_failures as f64);
    report.note("shard.cache_lookups", replay.cache_lookups as f64);
    report.note(
        "bloom.memberships_per_reconstruct",
        memberships_per_reconstruct,
    );
    report.note("core_mirror_mismatches", replay.mirror_mismatches as f64);
    report.note("fresh_reconstructs", replay.fresh_reconstructs as f64);
    report.note("cold_weighs", replay.cold_weigh_us.len() as f64);
    report.note("repairs_timed", replay.core_repair_us.len() as f64);
    report.note("wal.writes", replay.wal.writes as f64);
    report.note("wal.probe", replay.probe_replayed.is_some() as u8 as f64);
    for (name, self_us, count) in spans.self_times() {
        report.note(&format!("self_us.{name}"), self_us);
        report.note(&format!("spans.{name}"), count as f64);
    }
    let span_path = out_dir.join(format!("spans-{}-seed{}.tsv", w.name(), inputs.seed));
    if let Err(e) = spans.write(&span_path) {
        errors.push(format!("writing {}: {e}", span_path.display()));
    }
    for e in wire.replies.iter().filter_map(|r| r.as_ref().err()) {
        if errors.len() < 8 {
            errors.push(format!("wire request failed: {e}"));
        }
    }
    let failed = errors.len() as u64 + wire_failures as u64;
    errors.truncate(8);
    Outcome {
        attempted: wire.requests as u64,
        failed,
        errors,
        report,
    }
}
