#![forbid(unsafe_code)]
//! The `bst-server` binary: serve a sharded engine over TCP, or poke a
//! running server (`ping` / `metrics` / `shutdown`) from the same binary.
//!
//! ```text
//! bst-server serve [--addr 127.0.0.1:7878] [--namespace 65536]
//!                  [--shards 4] [--seed 42] [--max-conns 64]
//!                  [--max-frame-mib 64] [--wal-dir DIR]
//!                  [--fsync never|always] [--checkpoint-every 4096]
//! bst-server ping     [--addr 127.0.0.1:7878]
//! bst-server loadgen  [--addr 127.0.0.1:7878] [--sets 32] [--keys 64]
//!                     [--seed 42]
//! bst-server metrics  [--addr 127.0.0.1:7878]
//! bst-server shutdown [--addr 127.0.0.1:7878]
//! ```
//!
//! `metrics` scrapes the server's unified metrics registry and prints
//! the Prometheus text page to stdout — validated first, so a malformed
//! page is a non-zero exit rather than silent garbage (CI relies on
//! this).
//!
//! `serve` builds a fully occupied engine (every namespace id live, as
//! in the paper's dense experiments) and blocks until a client sends
//! SHUTDOWN or the process is killed. With `--wal-dir` the engine is
//! crash-safe: on a fresh directory the built engine is checkpointed
//! there, on a populated one the directory's state wins (checkpoint +
//! log-tail replay — the builder flags only describe the *initial*
//! engine), and every acked mutation hits the log before its reply.
//! `--fsync always` additionally flushes to stable storage per record.
//!
//! `loadgen` drives a deterministic burst of mutations (creates, key
//! inserts, occupancy churn) through a running server — the WAL crash
//! drill in CI uses it to populate state worth recovering. Flag parsing
//! is hand-rolled; no CLI dependency exists in the offline vendor set.

use std::process::ExitCode;

use bst_core::wal::FsyncPolicy;
use bst_server::client::Client;
use bst_server::server::{serve, serve_durable, ServerConfig};
use bst_shard::{DurableBstSystem, DurableConfig, ShardedBstSystem};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: bst-server <serve|ping|loadgen|metrics|shutdown> [flags]");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "serve" => cmd_serve(&args[1..]),
        "ping" => cmd_ping(&args[1..]),
        "loadgen" => cmd_loadgen(&args[1..]),
        "metrics" => cmd_metrics(&args[1..]),
        "shutdown" => cmd_shutdown(&args[1..]),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bst-server: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls `--name value` out of `args`, complaining about stray flags.
fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("flag {name} needs a value")),
            };
        }
        i += 2;
    }
    Ok(None)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("flag {name}: cannot parse `{v}`")),
    }
}

fn check_known_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        if !known.contains(&args[i].as_str()) {
            return Err(format!("unknown flag `{}`", args[i]));
        }
        i += 2;
    }
    Ok(())
}

fn addr_of(args: &[String]) -> Result<String, String> {
    parse(args, "--addr", "127.0.0.1:7878".to_string())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    check_known_flags(
        args,
        &[
            "--addr",
            "--namespace",
            "--shards",
            "--seed",
            "--max-conns",
            "--max-frame-mib",
            "--wal-dir",
            "--fsync",
            "--checkpoint-every",
        ],
    )?;
    let addr = addr_of(args)?;
    let namespace: u64 = parse(args, "--namespace", 65_536)?;
    let shards: usize = parse(args, "--shards", 4)?;
    let seed: u64 = parse(args, "--seed", 42)?;
    let cfg = ServerConfig {
        max_connections: parse(args, "--max-conns", ServerConfig::default().max_connections)?,
        max_frame: parse(
            args,
            "--max-frame-mib",
            ServerConfig::default().max_frame >> 20,
        )? << 20,
    };
    let wal_dir = flag_value(args, "--wal-dir")?;
    let fsync = match flag_value(args, "--fsync")?.as_deref() {
        None | Some("never") => FsyncPolicy::Never,
        Some("always") => FsyncPolicy::Always,
        Some(other) => {
            return Err(format!(
                "flag --fsync: expected never|always, got `{other}`"
            ))
        }
    };
    let checkpoint_every: u64 = parse(args, "--checkpoint-every", 4096)?;
    let build = || {
        ShardedBstSystem::builder(namespace)
            .shards(shards)
            .seed(seed)
            .build()
    };
    let handle = match &wal_dir {
        Some(dir) => {
            let durable = DurableBstSystem::open(
                std::path::Path::new(dir),
                DurableConfig {
                    fsync,
                    checkpoint_every,
                },
                build,
            )
            .map_err(|e| format!("open wal dir {dir}: {e}"))?;
            serve_durable(durable, &addr, cfg)
        }
        None => serve(build(), &addr, cfg),
    }
    .map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "bst-server listening on {} ({} ids, {} shards, max {} conns{})",
        handle.addr(),
        namespace,
        shards,
        cfg.max_connections,
        match &wal_dir {
            Some(dir) => format!(", wal {dir}"),
            None => String::new(),
        }
    );
    handle.join();
    println!("bst-server stopped");
    Ok(())
}

fn connect(args: &[String]) -> Result<Client, String> {
    check_known_flags(args, &["--addr"])?;
    let addr = addr_of(args)?;
    Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn cmd_ping(args: &[String]) -> Result<(), String> {
    connect(args)?.ping().map_err(|e| e.to_string())?;
    println!("pong");
    Ok(())
}

/// Drives a deterministic mutation burst through a running server:
/// `--sets` creates of `--keys` members each, a follow-up key insert
/// per set, and occupancy churn on a handful of ids. Every op is acked
/// before the next is sent, so against a WAL-backed server each printed
/// count is durably logged — the CI crash drill relies on that.
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    check_known_flags(args, &["--addr", "--sets", "--keys", "--seed"])?;
    let addr = addr_of(args)?;
    let sets: u64 = parse(args, "--sets", 32)?;
    let keys_per_set: u64 = parse(args, "--keys", 64)?;
    let seed: u64 = parse(args, "--seed", 42)?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let page = client.metrics().map_err(|e| e.to_string())?;
    let namespace = bst_obs::expo::scrape(&page, "bst_engine_namespace", &[])
        .ok_or("metrics page lacks bst_engine_namespace")? as u64;
    if namespace == 0 {
        return Err("server namespace is empty".into());
    }
    let mut mutations = 0u64;
    for s in 0..sets {
        let base = seed.wrapping_add(s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let members: Vec<u64> = (0..keys_per_set)
            .map(|j| base.wrapping_add(j.wrapping_mul(0x1000_0000_01B3)) % namespace)
            .collect();
        let id = client.create(members).map_err(|e| e.to_string())?;
        client
            .insert_keys(id, vec![base % namespace, base.wrapping_add(1) % namespace])
            .map_err(|e| e.to_string())?;
        mutations += 2;
        // Occupancy churn on a shifting window: vacate one id, restore
        // it, so the tree generation advances without shrinking state.
        if s % 4 == 0 {
            let key = base % namespace;
            client.occ_remove(key).map_err(|e| e.to_string())?;
            client.occ_insert(key).map_err(|e| e.to_string())?;
            mutations += 2;
        }
    }
    println!("loadgen: {sets} sets created, {mutations} follow-up mutations acked");
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let text = connect(args)?.metrics().map_err(|e| e.to_string())?;
    let series =
        bst_obs::expo::validate(&text).map_err(|e| format!("malformed metrics page: {e}"))?;
    print!("{text}");
    eprintln!("# scraped {series} samples, page well-formed");
    Ok(())
}

fn cmd_shutdown(args: &[String]) -> Result<(), String> {
    connect(args)?
        .shutdown_server()
        .map_err(|e| e.to_string())?;
    println!("server acknowledged shutdown");
    Ok(())
}
