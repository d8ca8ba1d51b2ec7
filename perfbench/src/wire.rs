//! The untraced run: the served system on loopback, one closed-loop
//! client, every answer checked. Produces the end-to-end metrics.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bst_obs::WalObs;
use bst_server::client::Client;
use bst_server::protocol::{Response, Target as WireTarget};
use bst_server::server::{serve, serve_durable, ServerConfig, ServerHandle};
use bst_shard::{DurableBstSystem, DurableConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::Checker;
use crate::util::{chunked_quantile, median, peak_rss_mib, scrape, P50_CHUNK, P99_CHUNK};
use crate::workload::{Gen, Inputs, Kind, Op, Target, Workload};
use crate::{Outcome, Report};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Every this many `SAMPLE` / `SAMPLE_MANY` / `BATCH` answers are
/// replayed on the twin.
const REPLAY_EVERY: u64 = 8;
/// Windows the timed phase is cut into; `ops_per_s` is their median.
const THROUGHPUT_WINDOWS: usize = 10;
/// Background checkpoints durable-churn waits for (up to twice
/// `--seconds`) before its timed phase stops.
const MIN_CHECKPOINTS: u64 = 1;
/// χ² guard: draws per positive of the hottest set, and the p-value
/// below which uniformity is rejected.
const CHI_DRAWS_PER_KEY: usize = 20;
const CHI_ALPHA: f64 = 1e-4;

/// A served engine and what the benchmark keeps to observe it.
pub struct Served {
    pub handle: ServerHandle,
    pub wal: Option<WalObs>,
}

/// Engine build, stored sets, server bind: everything `setup_s` times.
pub fn start(inputs: &Inputs, dir: &Path) -> Served {
    if inputs.workload.durable() {
        let durable = inputs.populated_durable(dir, inputs.sets.len());
        let wal = durable.obs();
        let handle =
            serve_durable(durable, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
        Served {
            handle,
            wal: Some(wal),
        }
    } else {
        let handle = serve(
            inputs.populated_engine(),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind loopback");
        Served { handle, wal: None }
    }
}

/// Stops a served engine and waits for every server thread.
pub fn stop(served: Served, client: Option<Client>) {
    drop(client);
    // Dropping the handle requests shutdown and joins the accept loop,
    // which joins every connection worker.
    drop(served.handle);
}

/// Median set-up time over `reps` fresh set-ups; returns the last one
/// still serving, and the directory it uses (durable workloads).
pub fn timed_setups(inputs: &Inputs, scratch: &Path, reps: usize) -> (Vec<f64>, Served, PathBuf) {
    let mut times = Vec::with_capacity(reps);
    let mut last: Option<(Served, PathBuf)> = None;
    for rep in 0..reps {
        if let Some((served, dir)) = last.take() {
            stop(served, None);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = scratch.join(format!("wal-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let served = start(inputs, &dir);
        times.push(t0.elapsed().as_secs_f64());
        last = Some((served, dir));
    }
    let (served, dir) = last.expect("at least one set-up");
    (times, served, dir)
}

/// Per-request bookkeeping of a closed-loop phase.
pub struct Tally {
    /// Round-trip µs per request type, in arrival order.
    pub latency: [Vec<f32>; 5],
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Time spent generating inputs and checking answers.
    pub overhead: Duration,
    /// Per recorded request: wall time since the previous request ended,
    /// less the time spent generating inputs and checking answers.
    pub busy_s: Vec<f32>,
    /// Keys drawn by single `SAMPLE`s of the hottest warm-read set.
    pub hot_draws: Vec<u64>,
}

impl Tally {
    pub fn new() -> Self {
        Tally {
            latency: Default::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            overhead: Duration::ZERO,
            busy_s: Vec::new(),
            hot_draws: Vec::new(),
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// Checks one answer and, for an acknowledged write on a mutable
/// workload, applies it to the twin.
pub fn settle(
    checker: &mut Checker,
    gen: &Gen,
    op: &Op,
    reply: Result<Response, String>,
    tally: &mut Tally,
    workload: Workload,
) {
    if workload == Workload::WarmRead {
        if let (
            Op::Sample {
                target: Target::Stored(id),
                ..
            },
            Ok(Response::Sampled { key }),
        ) = (op, &reply)
        {
            if *id == gen.hottest() {
                tally.hot_draws.push(*key);
            }
        }
    }
    let verdict = checker.check(op, reply, &gen.model, !workload.durable());
    let verdict = verdict.and_then(|()| {
        if op.kind() == Kind::Write {
            checker.note_write(op)
        } else {
            Ok(())
        }
    });
    if let Err(e) = verdict {
        tally.fail(format!("{}: {e}", op.kind().name()));
    }
}

/// One closed-loop request: generate, send, wait, check. Only the round
/// trip is timed.
pub fn step(
    client: &mut Client,
    gen: &mut Gen,
    checker: &mut Checker,
    tally: &mut Tally,
    w: Workload,
    record: bool,
) {
    let g0 = Instant::now();
    let op = gen.next_op();
    let req = op.to_request();
    let gen_time = g0.elapsed();
    let t0 = Instant::now();
    let reply = client.request(&req).map_err(|e| e.to_string());
    let rt = t0.elapsed();
    let c0 = Instant::now();
    tally.attempted += 1;
    if record {
        tally.latency[op.kind().index()].push(rt.as_secs_f64() as f32 * 1e6);
    }
    settle(checker, gen, &op, reply, tally, w);
    let overhead = gen_time + c0.elapsed();
    tally.overhead += overhead;
    if record {
        tally.busy_s.push((g0.elapsed() - overhead).as_secs_f32());
    }
}

/// χ² uniformity of single-`SAMPLE` draws from the hottest set over its
/// positives; tops the draws up over the wire to a fixed count first, so
/// the test's power does not depend on the machine's speed.
pub fn chi2_guard(
    client: &mut Client,
    checker: &mut Checker,
    gen: &Gen,
    draws: &mut Vec<u64>,
    seed: u64,
) -> Result<(usize, f64), String> {
    let hot = Target::Stored(gen.hottest());
    let positives = checker.brute_force(&hot, &gen.model)?;
    let want = CHI_DRAWS_PER_KEY * positives.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc41_5eed);
    while draws.len() < want {
        let key = client
            .sample(WireTarget::Stored(gen.hottest()), rng.gen())
            .map_err(|e| format!("χ² top-up SAMPLE failed: {e}"))?;
        draws.push(key);
    }
    draws.truncate(want);
    let mut counts = vec![0u64; positives.len()];
    for k in draws.iter() {
        let i = positives
            .binary_search(k)
            .map_err(|_| format!("hot draw {k} is not a positive"))?;
        counts[i] += 1;
    }
    let chi = bst_stats::chi2_uniform_test(&counts);
    if chi.p_value < CHI_ALPHA {
        return Err(format!(
            "χ² rejects uniform sampling of the hottest set: p = {:.3e} over {} draws",
            chi.p_value, want
        ));
    }
    Ok((want, chi.p_value))
}

/// durable-churn's restart: shut the server down, reopen the WAL
/// directory, time until the server answers again, and check that the
/// recovered engine answers exactly as the live one did.
fn restart_check(
    served: Served,
    mut client: Client,
    inputs: &Inputs,
    gen: &Gen,
    dir: &Path,
    report: &mut Report,
) -> Result<(f64, f64), String> {
    let live = gen.model.live_ids();
    let mut before = Vec::with_capacity(live.len());
    for &id in &live {
        let keys = client
            .reconstruct(WireTarget::Stored(id))
            .map_err(|e| format!("pre-shutdown RECONSTRUCT of {id}: {e}"))?;
        before.push(keys);
    }
    let occupied_before = served.handle.state().engine.read().system.occupied_ids();
    stop(served, Some(client));

    let t0 = Instant::now();
    let durable = DurableBstSystem::open(dir, DurableConfig::default(), || inputs.build_engine())
        .map_err(|e| format!("reopen: {e}"))?;
    let replayed = durable.obs().replayed.get() as f64;
    let handle = serve_durable(durable, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let mut client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
    client.ping().map_err(|e| e.to_string())?;
    let recover_s = t0.elapsed().as_secs_f64();

    let served = Served { handle, wal: None };
    let verdict = (|| {
        let occupied_after = served.handle.state().engine.read().system.occupied_ids();
        if occupied_after != occupied_before {
            return Err("recovered occupancy differs from the live engine's".to_string());
        }
        let model_occupied: Vec<u64> = (0..gen.model.occupied.len() as u64)
            .filter(|&x| gen.model.is_occupied(x))
            .collect();
        if occupied_after != model_occupied {
            return Err("recovered occupancy differs from the acknowledged writes".into());
        }
        for (&id, keys) in live.iter().zip(&before) {
            let after = client
                .reconstruct(WireTarget::Stored(id))
                .map_err(|e| format!("post-restart RECONSTRUCT of {id}: {e}"))?;
            if &after != keys {
                return Err(format!("set {id} reconstructs differently after restart"));
            }
            let set = gen.model.keys[id as usize].as_ref().expect("live");
            for &k in set {
                if gen.model.is_occupied(k) && after.binary_search(&k).is_err() {
                    return Err(format!("acknowledged key {k} of set {id} lost in restart"));
                }
            }
        }
        Ok(())
    })();
    report.note("restart_sets_checked", live.len() as f64);
    stop(served, Some(client));
    verdict.map(|()| (recover_s, replayed))
}

pub fn run(inputs: &Inputs, seconds: u64, scratch: &Path) -> Outcome {
    let w = inputs.workload;
    let mut report = Report::default();
    let (setups, served, dir) = timed_setups(inputs, scratch, SETUP_REPS);
    let setup_s = median(&setups);

    let twin = inputs.populated_engine();
    let mut gen = Gen::new(inputs, &twin);
    let mut checker = Checker::new(twin, REPLAY_EVERY);
    let mut client = Client::connect(served.handle.addr()).expect("connect to loopback server");
    let mut tally = Tally::new();

    for _ in 0..w.warmup_requests() {
        step(&mut client, &mut gen, &mut checker, &mut tally, w, false);
    }
    let budget = Duration::from_secs(seconds);
    let checkpoints = |s: &Served| s.wal.as_ref().map_or(0, |o| o.checkpoints.get());
    let ckpt0 = checkpoints(&served);
    let t0 = Instant::now();
    loop {
        step(&mut client, &mut gen, &mut checker, &mut tally, w, true);
        let elapsed = t0.elapsed();
        let enough_ckpts =
            !w.durable() || checkpoints(&served).saturating_sub(ckpt0) >= MIN_CHECKPOINTS;
        if elapsed >= budget && (enough_ckpts || elapsed >= 2 * budget) {
            break;
        }
    }
    let wall = t0.elapsed();
    let per = (tally.busy_s.len() / THROUGHPUT_WINDOWS).max(1);
    let window_rates: Vec<f64> = tally
        .busy_s
        .chunks(per)
        .filter(|c| c.len() == per)
        .map(|c| c.len() as f64 / c.iter().map(|&b| b as f64).sum::<f64>())
        .collect();
    let ops_per_s = median(&window_rates);
    report.note(
        "ops_per_s_window_min",
        window_rates.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.note(
        "ops_per_s_window_max",
        window_rates.iter().copied().fold(0.0, f64::max),
    );
    let ckpts = checkpoints(&served).saturating_sub(ckpt0);

    // The server's own OpStats totals per request (warm-up included),
    // scraped over METRICS; the traced run checks the same totals from its
    // wire phase against its in-process replay, exactly.
    if let Ok(page) = client.metrics() {
        for kind in [
            "intersections",
            "memberships",
            "nodes_visited",
            "backtracks",
        ] {
            let total = scrape(&page, "bst_engine_ops_total", &format!("kind=\"{kind}\""));
            report.note(
                &format!("server_{kind}_per_request"),
                total.unwrap_or(f64::NAN) / tally.attempted as f64,
            );
        }
    }
    if w == Workload::WarmRead {
        let mut draws = std::mem::take(&mut tally.hot_draws);
        match chi2_guard(&mut client, &mut checker, &gen, &mut draws, inputs.seed) {
            Ok((n, p)) => {
                report.note("chi2_draws", n as f64);
                report.note("chi2_p_value", p);
            }
            Err(e) => tally.fail(e),
        }
    }
    if w.durable() {
        report.note("checkpoints_in_timed_phase", ckpts as f64);
        match restart_check(served, client, inputs, &gen, &dir, &mut report) {
            Ok((recover_s, replayed)) => {
                report.metric("recover_s", recover_s, "s");
                report.note("replayed_records_at_reopen", replayed);
            }
            Err(e) => tally.fail(format!("restart: {e}")),
        }
    } else {
        stop(served, Some(client));
    }
    let _ = std::fs::remove_dir_all(&dir);

    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", ops_per_s, "req/s");
    report.metric(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    for kind in Kind::ALL {
        let lat = &tally.latency[kind.index()];
        if lat.is_empty() {
            continue;
        }
        let name = kind.name();
        report.metric(
            &format!("{name}_p50_us"),
            chunked_quantile(lat, 0.5, P50_CHUNK),
            "us",
        );
        report.metric(
            &format!("{name}_p99_us"),
            chunked_quantile(lat, 0.99, P99_CHUNK),
            "us",
        );
        report.note(&format!("{name}_requests"), lat.len() as f64);
        report.note(
            &format!("{name}_p50_chunks"),
            (lat.len() / P50_CHUNK).max(1) as f64,
        );
        report.note(
            &format!("{name}_p99_chunks"),
            (lat.len() / P99_CHUNK).max(1) as f64,
        );
    }
    report.note("setup_reps", setups.len() as f64);
    report.note("timed_wall_s", wall.as_secs_f64());
    report.note("twin_replays", checker.replays as f64);
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        report,
    }
}
