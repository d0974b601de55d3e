//! `warpd` — the Warp compilation daemon.
//!
//! ```text
//! warpd [OPTIONS]
//!
//!   --socket PATH       listen on a Unix socket at PATH
//!                       (default: /tmp/warpd.sock)
//!   --tcp ADDR          listen on TCP instead (e.g. 127.0.0.1:7077;
//!                       port 0 picks a free port, printed on start)
//!   --workers N         concurrent compiles (default: CPU count)
//!   --queue N           admission queue depth before `overloaded`
//!                       (default: 64)
//!   --cache-dir DIR     persistent cache tier (default: in-memory)
//!   --farm N            compile on a build farm of N warpd-worker
//!                       OS processes instead of in-process threads;
//!                       workers store into --cache-dir, or without
//!                       it into a private per-build store whose
//!                       objects land in the in-memory cache
//!                       (see docs/FARM.md)
//!   --max-frame BYTES   frame size limit (default: 16777216)
//!   --trace FILE        write a Chrome trace_event JSON file with
//!                       per-request `service` spans on shutdown
//! ```
//!
//! The daemon prints `warpd listening on <endpoint>` once ready and
//! exits when a client sends `shutdown` (see `docs/SERVICE.md`).

use std::path::PathBuf;
use std::process::ExitCode;
use warp_service::daemon::{DaemonConfig, Endpoint, Warpd};

struct Args {
    endpoint: Endpoint,
    workers: Option<usize>,
    queue: Option<usize>,
    cache_dir: Option<PathBuf>,
    farm: Option<usize>,
    max_frame: Option<usize>,
    trace: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: warpd [--socket PATH | --tcp ADDR] [--workers N] [--queue N] \
         [--cache-dir DIR] [--farm N] [--max-frame BYTES] [--trace FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        endpoint: Endpoint::Unix(PathBuf::from("/tmp/warpd.sock")),
        workers: None,
        queue: None,
        cache_dir: None,
        farm: None,
        max_frame: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("warpd: {flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--socket" => args.endpoint = Endpoint::Unix(PathBuf::from(value("--socket"))),
            "--tcp" => args.endpoint = Endpoint::Tcp(value("--tcp")),
            "--workers" => {
                args.workers = Some(value("--workers").parse().unwrap_or_else(|_| usage()))
            }
            "--queue" => args.queue = Some(value("--queue").parse().unwrap_or_else(|_| usage())),
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--farm" => args.farm = Some(value("--farm").parse().unwrap_or_else(|_| usage())),
            "--max-frame" => {
                args.max_frame = Some(value("--max-frame").parse().unwrap_or_else(|_| usage()))
            }
            "--trace" => args.trace = Some(PathBuf::from(value("--trace"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("warpd: unknown argument `{other}`");
                usage()
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut config = DaemonConfig::new(args.endpoint);
    if let Some(w) = args.workers {
        config.workers = w;
    }
    if let Some(q) = args.queue {
        config.queue_depth = q;
    }
    if let Some(m) = args.max_frame {
        config.max_frame = m;
    }
    config.cache_dir = args.cache_dir;
    config.farm_workers = args.farm;
    config.trace = args.trace.is_some();

    let daemon = match Warpd::start(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("warpd: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("warpd listening on {}", daemon.endpoint());

    if let Some(trace_path) = args.trace {
        let trace = daemon.trace().clone();
        daemon.join();
        let json = warp_obs::chrome::to_chrome_json(&trace.snapshot());
        if let Err(e) = std::fs::write(&trace_path, json) {
            eprintln!("warpd: failed to write trace {}: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("warpd: trace written to {}", trace_path.display());
    } else {
        daemon.join();
    }
    ExitCode::SUCCESS
}
