//! `warpd-worker` — one build-farm worker process.
//!
//! Spawned by the farm coordinator ([`parcc::farm`]); never run by
//! hand. Connects back to the coordinator, handshakes, compiles the
//! `(section, function)` jobs it is sent, and exits when told to.

fn usage() -> ! {
    eprintln!("usage: warpd-worker --connect <unix:PATH> --worker <N>");
    std::process::exit(64);
}

fn main() {
    let mut connect: Option<String> = None;
    let mut worker: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => connect = args.next(),
            "--worker" => worker = args.next().and_then(|s| s.parse().ok()),
            _ => usage(),
        }
    }
    let (Some(connect), Some(worker)) = (connect, worker) else {
        usage();
    };
    std::process::exit(parcc::farm::run_worker(&connect, worker));
}
