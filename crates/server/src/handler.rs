//! Request dispatch: one decoded [`Request`] in, one typed reply out.
//!
//! The handler owns the mapping from wire commands onto the
//! `ShardedBstSystem` facade and the session's warm-handle caches.
//! Determinism contract: every sampling command carries a client
//! `seed`, and the server draws from a fresh `StdRng::seed_from_u64`
//! per request — so the same request against the same engine state
//! returns the same keys whether the handle was warm or cold, which the
//! e2e tests pin bit-for-bit against in-process draws.

use rand::rngs::StdRng;
use rand::SeedableRng;

use bst_core::error::BstError;
use bst_core::store::FilterId;
use bst_shard::{DurableError, ShardedBstSystem};

use crate::protocol::{Request, Response, Target, WireError};
use crate::server::ServerState;
use crate::session::Session;

/// The handler's verdict: a reply frame body, plus whether the server
/// should stop accepting after this reply is flushed.
pub struct Outcome {
    /// What to send back.
    pub reply: Result<Response, WireError>,
    /// True only for a served `SHUTDOWN`.
    pub shutdown_after: bool,
}

impl Outcome {
    fn reply(reply: Result<Response, WireError>) -> Self {
        Outcome {
            reply,
            shutdown_after: false,
        }
    }
}

/// Maps a durability failure onto the wire: engine rejections keep
/// their own typed variants; disk and replay trouble surfaces as
/// [`WireError::Persist`].
fn wire_durable(e: DurableError) -> WireError {
    match e {
        DurableError::Engine(e) => WireError::from(e),
        other => WireError::Persist {
            message: other.to_string(),
        },
    }
}

/// Serves one request against the shared state and this connection's
/// session. Never panics on adversarial input: decode failures arrive
/// pre-typed, and engine errors map through `WireError::from`.
pub fn handle(state: &ServerState, session: &mut Session, req: Request) -> Outcome {
    let engine = state.engine.read();
    session.sync(engine.epoch);
    let sys = &engine.system;
    match req {
        Request::Ping => Outcome::reply(Ok(Response::Pong)),
        // Mutations: with a durability layer present they route through
        // it — applied *and* logged before the reply frame is written,
        // so every acked mutation survives a crash. The durable engine
        // slot and `sys` are clones of the same shared system, so the
        // effect is visible to queries either way.
        Request::Create { keys } => Outcome::reply(match &state.durable {
            Some(d) => d
                .create(keys)
                .map(|id| Response::Created { id: id.raw() })
                .map_err(wire_durable),
            None => sys
                .create(keys)
                .map(|id| Response::Created { id: id.raw() })
                .map_err(WireError::from),
        }),
        Request::InsertKeys { id, keys } => Outcome::reply(match &state.durable {
            Some(d) => d
                .insert_keys(FilterId::from_raw(id), keys)
                .map(|()| Response::Ok)
                .map_err(wire_durable),
            None => sys
                .insert_keys(FilterId::from_raw(id), keys)
                .map(|()| Response::Ok)
                .map_err(WireError::from),
        }),
        Request::RemoveKeys { id, keys } => Outcome::reply(match &state.durable {
            Some(d) => d
                .remove_keys(FilterId::from_raw(id), keys)
                .map(|()| Response::Ok)
                .map_err(wire_durable),
            None => sys
                .remove_keys(FilterId::from_raw(id), keys)
                .map(|()| Response::Ok)
                .map_err(WireError::from),
        }),
        Request::DropSet { id } => {
            let out = match &state.durable {
                Some(d) => d.drop_set(FilterId::from_raw(id)).map_err(wire_durable),
                None => sys
                    .drop_set(FilterId::from_raw(id))
                    .map_err(WireError::from),
            };
            session.evict_stored(id);
            Outcome::reply(out.map(|()| Response::Ok))
        }
        Request::OccInsert { key } => Outcome::reply(match &state.durable {
            Some(d) => d
                .insert_occupied(key)
                .map(|generation| Response::Generation { generation })
                .map_err(wire_durable),
            None => sys
                .insert_occupied(key)
                .map(|generation| Response::Generation { generation })
                .map_err(WireError::from),
        }),
        Request::OccRemove { key } => Outcome::reply(match &state.durable {
            Some(d) => d
                .remove_occupied(key)
                .map(|generation| Response::Generation { generation })
                .map_err(wire_durable),
            None => sys
                .remove_occupied(key)
                .map(|generation| Response::Generation { generation })
                .map_err(WireError::from),
        }),
        Request::Get { id } => Outcome::reply(
            sys.get(FilterId::from_raw(id))
                .map(|f| Response::Filter {
                    bytes: bst_bloom::codec::encode(&f).to_vec(),
                })
                .map_err(WireError::from),
        ),
        Request::ListSets => {
            let mut ids: Vec<u64> = sys.ids().iter().map(|id| id.raw()).collect();
            ids.sort_unstable();
            Outcome::reply(Ok(Response::Sets { ids }))
        }
        Request::Sample { target, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            Outcome::reply(
                with_handle(state, session, sys, &target, |q| q.sample(&mut rng))
                    .map(|key| Response::Sampled { key }),
            )
        }
        Request::SampleMany { target, r, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            Outcome::reply(
                with_handle(state, session, sys, &target, |q| {
                    q.sample_many(r as usize, &mut rng)
                })
                .map(|keys| Response::Keys { keys }),
            )
        }
        Request::Reconstruct { target } => Outcome::reply(
            with_handle(state, session, sys, &target, |q| q.reconstruct())
                .map(|keys| Response::Keys { keys }),
        ),
        Request::ReconstructRange { target, start, end } => Outcome::reply(
            with_handle(state, session, sys, &target, |q| {
                q.reconstruct_range(start..end)
            })
            .map(|keys| Response::Keys { keys }),
        ),
        Request::Batch { targets, seed } => Outcome::reply(batch(state, sys, &targets, seed)),
        Request::Save => {
            // With a durability layer, SAVE is "checkpoint + truncate":
            // the snapshot is published atomically on disk and the log's
            // covered tail drops. The reply still carries the snapshot
            // bytes, so clients work identically in both modes.
            if let Some(d) = &state.durable {
                if let Err(e) = d.checkpoint() {
                    return Outcome::reply(Err(wire_durable(e)));
                }
            }
            Outcome::reply(Ok(Response::Snapshot {
                bytes: sys.to_bytes(),
            }))
        }
        Request::Load { bytes } => {
            // Decode outside any lock, swap under the write lock; the
            // epoch bump tells every session its handles are orphans.
            drop(engine);
            if let Some(d) = &state.durable {
                // Durable LOAD: an empty body recovers from disk
                // (newest checkpoint + log-tail replay); a snapshot
                // body is adopted as the new durable state. The write
                // lock is taken *before* the durable swap: every other
                // handler (mutations included) runs under the read
                // lock, so nothing can ack against the swapped-in
                // durable engine while `state.engine` still serves the
                // old one — that window lost acked creates.
                let decoded = if bytes.is_empty() {
                    None
                } else {
                    match ShardedBstSystem::from_bytes(&bytes) {
                        Ok(system) => Some(system),
                        Err(e) => return Outcome::reply(Err(WireError::from(e))),
                    }
                };
                let mut engine = state.engine.write();
                let recovered = match decoded {
                    None => d.recover_from_disk().map_err(wire_durable),
                    Some(system) => d
                        .adopt(system.clone())
                        .map_err(wire_durable)
                        .map(|()| system),
                };
                return match recovered {
                    Ok(system) => {
                        state.instrument_engine(&system);
                        engine.system = system;
                        engine.epoch += 1;
                        Outcome::reply(Ok(Response::Ok))
                    }
                    Err(e) => Outcome::reply(Err(e)),
                };
            }
            match ShardedBstSystem::from_bytes(&bytes) {
                Ok(system) => {
                    // The replacement engine reports into the same trace
                    // ring and batch histograms as the one it replaces.
                    state.instrument_engine(&system);
                    let mut engine = state.engine.write();
                    engine.system = system;
                    engine.epoch += 1;
                    Outcome::reply(Ok(Response::Ok))
                }
                Err(e) => Outcome::reply(Err(WireError::from(e))),
            }
        }
        Request::Metrics => {
            // Release the engine read lock first: scrape-time callbacks
            // re-enter it to read the live engine shape.
            drop(engine);
            Outcome::reply(Ok(Response::Metrics {
                text: bst_obs::expo::render(&state.metrics),
            }))
        }
        Request::Shutdown => Outcome {
            reply: Ok(Response::Ok),
            shutdown_after: true,
        },
    }
}

/// Resolves a target to a (possibly cached) handle and runs `f` on it,
/// then drains the handle's per-call [`bst_core::OpStats`] into the
/// server's cumulative engine totals. A stored handle that reports
/// `UnknownFilterId` is evicted so the session does not pin a handle
/// onto a dropped set.
fn with_handle<T>(
    state: &ServerState,
    session: &mut Session,
    sys: &ShardedBstSystem,
    target: &Target,
    f: impl FnOnce(&bst_shard::ShardQuery) -> Result<T, BstError>,
) -> Result<T, WireError> {
    match target {
        Target::Stored(raw) => {
            let out = match session.stored_handle(sys, *raw) {
                Ok(q) => {
                    let out = f(q);
                    state.note_engine_stats(q.take_stats());
                    out
                }
                Err(e) => Err(e),
            };
            if matches!(out, Err(BstError::UnknownFilterId(_))) {
                session.evict_stored(*raw);
            }
            out.map_err(WireError::from)
        }
        Target::Adhoc(bytes) => {
            let filter = bst_bloom::codec::decode(bytes).map_err(|e| WireError::Malformed {
                context: format!("ad-hoc filter: {e}"),
            })?;
            let q = session.adhoc_handle(sys, bytes, &filter);
            let out = f(q);
            state.note_engine_stats(q.take_stats());
            out.map_err(WireError::from)
        }
    }
}

/// Serves a mixed batch: id-addressed slots ride the engine's
/// `query_batch_ids` scatter (persistent weight cache), ad-hoc slots
/// ride `query_batch`, both with the same client seed, and the answers
/// are reassembled into request order. A slot whose filter bytes fail
/// to decode fails alone — the rest of the batch still runs. Batch
/// OpStats feed the server's cumulative engine totals.
fn batch(
    state: &ServerState,
    sys: &ShardedBstSystem,
    targets: &[Target],
    seed: u64,
) -> Result<Response, WireError> {
    let mut results: Vec<Option<Result<u64, WireError>>> = vec![None; targets.len()];
    let mut id_slots = Vec::new();
    let mut ids = Vec::new();
    let mut filter_slots = Vec::new();
    let mut filters = Vec::new();
    for (slot, target) in targets.iter().enumerate() {
        match target {
            Target::Stored(raw) => {
                id_slots.push(slot);
                ids.push(FilterId::from_raw(*raw));
            }
            Target::Adhoc(bytes) => match bst_bloom::codec::decode(bytes) {
                Ok(f) => {
                    filter_slots.push(slot);
                    filters.push(f);
                }
                Err(e) => {
                    results[slot] = Some(Err(WireError::Malformed {
                        context: format!("ad-hoc filter in batch slot {slot}: {e}"),
                    }))
                }
            },
        }
    }
    if !ids.is_empty() {
        let (answers, stats) = sys.query_batch_ids(&ids, seed, 0);
        state.note_engine_stats(stats);
        for (slot, ans) in id_slots.into_iter().zip(answers) {
            results[slot] = Some(ans.map_err(WireError::from));
        }
    }
    if !filters.is_empty() {
        let (answers, stats) = sys.query_batch(&filters, seed, 0);
        state.note_engine_stats(stats);
        for (slot, ans) in filter_slots.into_iter().zip(answers) {
            results[slot] = Some(ans.map_err(WireError::from));
        }
    }
    Ok(Response::Batch {
        results: results
            .into_iter()
            .enumerate()
            .map(|(slot, r)| match r {
                Some(a) => a,
                // Every slot is an id, an ad-hoc filter, or a decode
                // error, so this arm is dead; answer it in-protocol
                // rather than panicking the connection worker.
                None => Err(WireError::Malformed {
                    context: format!("batch slot {slot} produced no answer"),
                }),
            })
            .collect(),
    })
}
