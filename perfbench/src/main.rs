//! Wire-level benchmark of the sharded BloomSampleTree service.
//!
//! ```text
//! perfbench --workload <warm-read|cold-read|durable-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` serves the engine on loopback, drives it from one
//! closed-loop client for `--seconds`, checks every answer and prints the
//! end-to-end metrics. `--trace 1` replays the same seeded requests
//! through each layer's public functions in-process and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The full
//! report (every metric, counts and metadata) is printed on the line
//! before it and written under `perfbench/out/`. See `perfbench/README.md`.

mod check;
mod traced;
mod util;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use util::{jn, js};
use workload::{Inputs, Workload};

/// The seed held out from tuning: a later claim of a gain is confirmed
/// on it as well as on the seeds it was measured with.
pub const HELD_OUT_SEED: u64 = 2017;

/// Metrics printed on the last line with `--trace 0` (see BENCHMARK.json).
const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "peak_rss_mb",
    "sample_p50_us",
    "batch_p50_us",
];

/// Metrics printed on the last line with `--trace 1` (see BENCHMARK.json).
const PER_LAYER: [&str; 30] = [
    "server.handler_us",
    "server.overhead_us",
    "server.codec_us",
    "server.request_bytes",
    "server.response_bytes",
    "shard.batch_us",
    "shard.weigh_us",
    "shard.sample_phase_us",
    "shard.cache_hit_ratio",
    "shard.cache_repairs_per_batch",
    "shard.self_us",
    "core.cold_weigh_us",
    "core.sample_us",
    "core.reconstruct_us",
    "core.repair_us",
    "core.intersections_per_op",
    "core.memberships_per_op",
    "core.nodes_per_op",
    "core.backtracks_per_op",
    "bloom.contains_ns",
    "bloom.member_scan_ns",
    "bloom.decode_us",
    "bloom.probe_share",
    "wal.append_us",
    "wal.bytes_per_write",
    "wal.write_amp",
    "wal.fsyncs_per_write",
    "wal.checkpoints",
    "wal.checkpoint_us",
    "wal.replayed_records",
];

/// Named measurements of one run: metrics (with units) and notes
/// (counts and context that back them).
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, String)>,
    pub notes: Vec<(String, f64)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.into(), value));
    }

    fn get(&self, name: &str) -> Option<(f64, &str)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, u)| (*v, u.as_str()))
    }
}

/// What a run hands back to be printed.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub report: Report,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// FNV-1a over every Rust source file of the engine and the benchmark,
/// in path order: identifies the code measured when there is no git.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <warm-read|cold-read|durable-churn> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("perfbench/out");
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let inputs = Inputs::generate(args.workload, args.seed);
    let outcome = if args.trace {
        traced::run(&inputs, args.seconds, &scratch, &out_dir)
    } else {
        wire::run(&inputs, args.seconds, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let correct = outcome.failed == 0;
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut missing = Vec::new();
    let mut metrics = Vec::new();
    for name in wanted {
        match outcome.report.get(name) {
            Some((v, unit)) if v.is_finite() => metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                js(name),
                jn(v),
                js(unit)
            )),
            _ => missing.push(*name),
        }
    }

    let r = &outcome.report;
    let mut full = format!(
        "{{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"trace\": {}, \
         \"seconds\": {}, \"nproc\": {}, \"git_rev\": {}, \"source_digest\": {}, \"profile\": {}, \
         \"params\": {}, \"errors\": [{}], \"metrics\": {{",
        js(args.workload.name()),
        args.seed,
        args.trace as u8,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        js(&git_rev()),
        js(&source_digest()),
        js(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        args.workload.describe(),
        outcome
            .errors
            .iter()
            .map(|e| js(e))
            .collect::<Vec<_>>()
            .join(", "),
    );
    full += &r
        .metrics
        .iter()
        .map(|(n, v, u)| format!("{}: {{\"value\": {}, \"unit\": {}}}", js(n), jn(*v), js(u)))
        .collect::<Vec<_>>()
        .join(", ");
    full += "}, \"counts\": {";
    full += &r
        .notes
        .iter()
        .map(|(n, v)| format!("{}: {}", js(n), jn(*v)))
        .collect::<Vec<_>>()
        .join(", ");
    full += "}}";
    let report_path = out_dir.join(format!(
        "report-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    let _ = std::fs::write(&report_path, format!("{full}\n"));

    for e in &outcome.errors {
        eprintln!("perfbench: correctness failure: {e}");
    }
    if !missing.is_empty() {
        eprintln!("perfbench: no value for {}", missing.join(", "));
    }
    println!("{full}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct && missing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
