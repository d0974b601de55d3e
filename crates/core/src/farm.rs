//! The build farm: real multi-process parallel compilation.
//!
//! [`threads`](crate::threads) reproduces the paper's master/worker
//! hierarchy with OS threads inside one process. This module is the
//! distributed version the paper actually ran: a **coordinator**
//! (the master of §3.2) spawns N `warpd-worker` OS processes and
//! drives them over a Unix socket with the same 4-byte
//! length-prefixed JSON frames as `warpd` ([`warp_wire`]).
//!
//! The division of labour follows §3.2 exactly:
//!
//! * the coordinator is the build pipeline ([`crate::build`]): it runs
//!   phase 1 (parse/sema) itself, probes the shared store, feeds the
//!   misses — in LPT order of the a-priori cost estimates — to the
//!   farm `Executor` defined here, and runs phase 4 (link) once
//!   every image is back;
//! * each worker receives the module source once at handshake,
//!   re-runs phase 1 locally (parsing is deterministic, so shipping
//!   the source is cheaper and simpler than serializing a checked
//!   AST), then compiles the `(section, function)` pairs it is told
//!   to.
//!
//! There is no static assignment: one connection thread per worker
//! takes the next attempt from the job queue the pipeline feeds —
//! the same queue the thread executor's compile threads pull from — so
//! a worker that finishes early takes load off the laggards, and a
//! lost worker's attempt simply comes back as crashed and is
//! re-dispatched to whoever is alive.
//!
//! Compiled objects travel **content-addressed**, and only that way:
//! a worker stores its [`CachedFunction`] under the job's [`CacheKey`]
//! in a directory the coordinator opened and replies with the hash
//! only, so no frame carries object bytes. That directory is the
//! build's own [`FnCache`] directory when it has a usable one, else
//! [`FarmConfig::cache_dir`] or a private store in the farm's scratch
//! dir, whose objects the coordinator copies into the build's cache. A
//! worker that cannot open the store refuses at handshake.
//!
//! Faults are first-class, decided by the same seeded [`ChaosPlan`]
//! and survived by the same recovery loop as every executor — except
//! the injected faults are *real* here: the coordinator SIGKILLs worker
//! processes mid-job, workers exit without replying, workers stall
//! past the timeout (and are killed when the master quiesces the
//! farm, so a wedged process can never hang a build). Under every
//! injected fault the final [`ModuleImage`] is bit-identical to a
//! sequential `warpcc` build — the farm chaos suite and the `farm` CI
//! job enforce this.
//!
//! The wire protocol is documented in `docs/FARM.md`; `farm` trace
//! spans follow `docs/TRACING.md`.
//!
//! [`ModuleImage`]: warp_target::program::ModuleImage
//! [`ChaosPlan`]: crate::threads::ChaosPlan

use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use warp_cache::CacheKey;
use warp_obs::{Trace, TrackId};
use warp_wire::{obj, read_message, write_message, FrameError, Json, MAX_FRAME_DEFAULT};

use crate::build::{Build, BuildReport, FarmCensus};
use crate::driver::{
    compile_function_traced, prepare, CompileError, CompileOptions, CompileResult,
};
use crate::exec::{probe, Ctx, Executor, JobQueue, Outcome};
use crate::fncache::{function_key, options_fingerprint, CachedFunction, FnCache};
use crate::threads::ChaosAction;

/// Version of the coordinator↔worker handshake. A worker whose
/// `hello` carries a different number is rejected before any source
/// is shipped.
pub const FARM_PROTOCOL_VERSION: u32 = 2;

/// Configuration of a farm of worker processes.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Worker processes to spawn.
    pub workers: usize,
    /// Shared on-disk object store for a build whose cache has no
    /// usable directory of its own. `None` uses a private directory
    /// under the farm's scratch dir (still shared with the workers, but
    /// discarded after the build).
    pub cache_dir: Option<PathBuf>,
    /// Worker executable. `None` resolves `$WARPD_WORKER`, then a
    /// `warpd-worker` binary next to the current executable.
    pub worker_cmd: Option<PathBuf>,
    /// How long the coordinator waits for spawned workers to connect
    /// and complete their handshake.
    pub handshake_timeout: Duration,
}

impl FarmConfig {
    /// A farm of `workers` processes with a private temporary store.
    pub fn new(workers: usize) -> FarmConfig {
        FarmConfig {
            workers: workers.max(1),
            cache_dir: None,
            worker_cmd: None,
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// Compiles `source` on a farm of worker processes: the build pipeline
/// with the farm executor, `cfg.workers` wide. See the module docs for
/// the architecture.
///
/// # Errors
///
/// Any phase error from the underlying compiler, or
/// [`CompileError::Worker`] for farm-level failures (no worker
/// connected, worker executable missing).
pub fn compile_farm(
    source: &str,
    opts: &CompileOptions,
    cfg: &FarmConfig,
) -> Result<(CompileResult, BuildReport), CompileError> {
    Build {
        jobs: cfg.workers,
        farm: Some(cfg),
        ..Build::new(source, opts)
    }
    .run()
}

/// Polls `listener` for one connection until `deadline`; `Ok(None)` on
/// timeout.
fn accept_until(listener: &UnixListener, deadline: Instant) -> io::Result<Option<UnixStream>> {
    loop {
        match listener.accept() {
            Ok((s, _)) => return Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
}

/// What a farm build owns on disk: its scratch directory (socket,
/// private store), removed on drop, and — for a build whose cache has
/// no directory the workers can store into — the handle on the object
/// store it shares with them instead. The directory name is unique per
/// process *and* per farm so parallel builds in one process cannot
/// collide.
pub(crate) struct Home {
    pub(crate) dir: PathBuf,
    pub(crate) store: Option<FnCache>,
}

impl Home {
    pub(crate) fn open(cfg: &FarmConfig, cache: Option<&FnCache>) -> Result<Home, CompileError> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "warp-farm-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| worker_err(format!("farm: temp dir: {e}")))?;
        let mut home = Home { dir, store: None };
        let shared = cache
            .and_then(FnCache::dir)
            .is_some_and(|d| std::fs::create_dir_all(d).is_ok());
        if !shared {
            let path = cfg
                .cache_dir
                .clone()
                .unwrap_or_else(|| home.dir.join("cache"));
            home.store = Some(
                FnCache::with_dir(&path)
                    .map_err(|e| worker_err(format!("farm: cache dir {}: {e}", path.display())))?,
            );
        }
        Ok(home)
    }
}

impl Drop for Home {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn worker_command(cfg: &FarmConfig) -> PathBuf {
    if let Some(p) = &cfg.worker_cmd {
        return p.clone();
    }
    if let Ok(p) = std::env::var("WARPD_WORKER") {
        if !p.is_empty() {
            return PathBuf::from(p);
        }
    }
    // All workspace binaries land in the same target directory; tests
    // run from target/{profile}/deps, one level deeper.
    if let Ok(exe) = std::env::current_exe() {
        let mut dir = exe.parent();
        while let Some(d) = dir {
            let cand = d.join("warpd-worker");
            if cand.is_file() {
                return cand;
            }
            dir = d.parent();
        }
    }
    PathBuf::from("warpd-worker")
}

fn worker_err(msg: impl Into<String>) -> CompileError {
    CompileError::Worker(msg.into())
}

/// A frame that says one thing: its kind, and one string field
/// (`reject`'s `reason`, `error`'s and `fail`'s `message`).
fn note(kind: &str, field: &'static str, text: &str) -> Json {
    obj(vec![
        ("kind", Json::Str(kind.into())),
        (field, Json::Str(text.into())),
    ])
}

// ---------------------------------------------------------------------------
// Handshake (coordinator side) — generic over the stream so the
// protocol tests can drive it with a socketpair.
// ---------------------------------------------------------------------------

/// Runs the coordinator's half of the handshake on one accepted
/// connection: read `hello`, validate the protocol version and worker
/// index, send `welcome`, read `ready`, validate the function count.
/// Returns the worker index the peer claimed and its pid.
pub(crate) fn serve_handshake(
    stream: &mut (impl Read + Write),
    welcome: &Json,
    n_workers: usize,
    n_functions: usize,
    deadline: Instant,
) -> Result<(usize, u32), String> {
    let keep = || Instant::now() < deadline;
    let hello = read_message(stream, MAX_FRAME_DEFAULT, keep)
        .map_err(|e| format!("hello: {e}"))?
        .map_err(|e| format!("hello: {e}"))?;
    if hello.str_field("kind") != Some("hello") {
        return Err("handshake: first frame is not hello".into());
    }
    let proto = hello.u64_field("protocol").unwrap_or(0);
    let worker = hello.u64_field("worker").unwrap_or(u64::MAX) as usize;
    let refusal = if proto != u64::from(FARM_PROTOCOL_VERSION) {
        Some(format!(
            "farm protocol {proto} != coordinator {FARM_PROTOCOL_VERSION}"
        ))
    } else if worker >= n_workers {
        Some(format!("unknown worker index {worker}"))
    } else {
        None
    };
    if let Some(reason) = refusal {
        let _ = write_message(stream, &note("reject", "reason", &reason));
        return Err(format!("handshake: {reason}"));
    }
    let pid = hello.u64_field("pid").unwrap_or(0) as u32;
    write_message(stream, welcome).map_err(|e| format!("welcome: {e}"))?;
    let ready = read_message(stream, MAX_FRAME_DEFAULT, keep)
        .map_err(|e| format!("ready: {e}"))?
        .map_err(|e| format!("ready: {e}"))?;
    match ready.str_field("kind") {
        Some("ready") => {}
        Some("error") => {
            return Err(format!(
                "worker {worker}: {}",
                ready.str_field("message").unwrap_or("unspecified error")
            ));
        }
        _ => return Err(format!("worker {worker}: expected ready frame")),
    }
    let funcs = ready.u64_field("functions").unwrap_or(u64::MAX) as usize;
    if funcs != n_functions {
        return Err(format!(
            "worker {worker} parsed {funcs} functions, coordinator has {n_functions} \
             (non-deterministic front end?)"
        ));
    }
    Ok((worker, pid))
}

fn encode_welcome(
    source: &str,
    opts: &CompileOptions,
    options_fp: u64,
    cache: &str,
    n_functions: usize,
) -> Json {
    obj(vec![
        ("kind", Json::Str("welcome".into())),
        ("module", Json::Str(source.to_string())),
        (
            "options",
            obj(vec![
                ("inline", Json::Bool(opts.inline.is_some())),
                ("ifconv", Json::Bool(opts.if_convert.is_some())),
                ("absint", Json::Bool(opts.absint)),
                ("verify", Json::Bool(opts.verify_each_pass)),
            ]),
        ),
        ("fingerprint", Json::Str(format!("{options_fp:016x}"))),
        ("cache", Json::Str(cache.to_string())),
        ("functions", Json::Num(n_functions as f64)),
    ])
}

// ---------------------------------------------------------------------------
// Coordinator: the farm executor
// ---------------------------------------------------------------------------

/// The farm [`Executor`]: the queue the pipeline feeds, the channel the
/// connection threads answer on, and a second handle on every socket so
/// a wedged worker can be hung up on from here.
struct Farm<'a> {
    queue: &'a JobQueue<'a>,
    hang_ups: Vec<UnixStream>,
    done_rx: Receiver<(usize, Outcome)>,
    job_timeout: Duration,
}

impl Farm<'_> {
    /// Drops what no worker has picked up and hangs up on every worker
    /// still holding an attempt: its connection thread sees the socket
    /// die, SIGKILLs and reaps the process, and reports the attempt
    /// crashed.
    fn abandon(&self) {
        for k in self.queue.abandon() {
            let _ = self.hang_ups[k].shutdown(Shutdown::Both);
        }
    }
}

impl Executor for Farm<'_> {
    fn dispatch(&mut self, job: usize, attempt: usize, action: ChaosAction) {
        self.queue.push((job, attempt, action));
    }

    fn next(&mut self, timeout: Duration) -> Option<(usize, Outcome)> {
        self.done_rx.recv_timeout(timeout).ok()
    }

    /// Waits at most one further `job_timeout` for the farm to go quiet
    /// by itself; then abandons the queue, so a wedged process can
    /// never hang a build.
    fn quiesce(&mut self) {
        let deadline = Instant::now() + self.job_timeout;
        if !self.queue.wait_idle(Some(deadline)) {
            self.abandon();
            self.queue.wait_idle(None);
        }
    }

    fn alive(&self) -> usize {
        self.queue.alive()
    }
}

impl Drop for Farm<'_> {
    /// The build is over: idle connections say goodbye, and whoever
    /// still holds an attempt (an aborted build) is hung up on.
    fn drop(&mut self) {
        self.queue.close();
        self.abandon();
    }
}

/// Reaps `child`: polite wait with a short grace period, then kill.
/// Never leaves a zombie behind.
fn reap(child: &mut Child, grace: Duration) {
    let deadline = Instant::now() + grace;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return;
            }
        }
    }
}

/// Spawns the worker processes, handshakes them, and runs `body`
/// against the farm [`Executor`]. On return every worker process has
/// been reaped and the listener is gone; `census` says who was there.
///
/// # Errors
///
/// [`CompileError::Worker`] when the farm cannot be stood up at all
/// (bind failure, worker executable missing, no worker connected).
pub(crate) fn with_farm<R>(
    cfg: &FarmConfig,
    home: &Home,
    ctx: &Ctx<'_>,
    job_timeout: Duration,
    coord: TrackId,
    census: &mut FarmCensus,
    body: impl FnOnce(&mut dyn Executor) -> R,
) -> Result<R, CompileError> {
    let own = ctx.cache.expect("a farm build always has a cache");
    let store = home.store.as_ref().unwrap_or(own);
    // What workers leave in a private store is copied into the build's
    // own cache, so the next build over that cache hits.
    let keep = (!std::ptr::eq(store, own)).then_some(own);
    let trace = ctx.trace;
    let n = ctx.fns.len();
    let sock = home.dir.join("farm.sock");
    let listener = UnixListener::bind(&sock)
        .and_then(|l| l.set_nonblocking(true).map(|()| l))
        .map_err(|e| worker_err(format!("farm: bind: {e}")))?;

    let cmd = worker_command(cfg);
    let mut children: Vec<Option<Child>> = Vec::new();
    for w in 0..cfg.workers.max(1) {
        let child = Command::new(&cmd)
            .arg("--connect")
            .arg(format!("unix:{}", sock.display()))
            .arg("--worker")
            .arg(w.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn();
        match child {
            Ok(c) => {
                census.pids.push(c.id());
                children.push(Some(c));
            }
            Err(e) if w == 0 => {
                return Err(worker_err(format!(
                    "farm: cannot spawn worker `{}`: {e}",
                    cmd.display()
                )));
            }
            Err(_) => children.push(None),
        }
    }
    let spawned = children.iter().flatten().count();

    // Handshake every worker that shows up before the deadline. The
    // workers store into `store`'s directory and reply with hashes.
    let path = store.dir().expect("a farm store has a directory");
    let path = path.display().to_string();
    let welcome = encode_welcome(ctx.source, ctx.opts, ctx.options_fp, &path, n);
    let deadline = Instant::now() + cfg.handshake_timeout;
    // (connection stream, worker index) per handshaken connection.
    let mut conns: Vec<(UnixStream, usize)> = Vec::new();
    while conns.len() < spawned && Instant::now() < deadline {
        let Ok(Some(mut stream)) = accept_until(&listener, deadline) else {
            break;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        match serve_handshake(&mut stream, &welcome, children.len(), n, deadline) {
            Ok((w, _pid)) => {
                trace.instant_now("farm", format!("worker {w} ready"), coord);
                conns.push((stream, w));
            }
            Err(e) => eprintln!("warp-farm: handshake failed: {e}"),
        }
    }
    let hang_ups: Vec<UnixStream> = conns
        .iter()
        .filter_map(|(s, _)| s.try_clone().ok())
        .collect();
    if conns.is_empty() || hang_ups.len() != conns.len() {
        for c in children.iter_mut().flatten() {
            reap(c, Duration::ZERO);
        }
        return Err(worker_err(format!(
            "farm: no workers connected within {:?} (worker cmd `{}`)",
            cfg.handshake_timeout,
            cmd.display()
        )));
    }
    census.spawned = conns.len();

    let queue = JobQueue::new(conns.len(), trace, coord);
    let (done_tx, done_rx) = channel();
    let out = std::thread::scope(|scope| {
        for (k, (stream, w)) in conns.into_iter().enumerate() {
            let queue = &queue;
            let (child, done_tx) = (children[w].take(), done_tx.clone());
            let track = trace.track(&format!("farm worker {w}"));
            scope.spawn(move || {
                connection(
                    k, w, stream, child, queue, ctx, store, keep, &done_tx, track,
                );
            });
        }
        drop(done_tx);
        body(&mut Farm {
            queue: &queue,
            hang_ups,
            done_rx,
            job_timeout,
        })
    });

    // Reap stragglers the connection threads did not own (workers
    // that spawned but never finished the handshake).
    for c in children.iter_mut().flatten() {
        reap(c, Duration::from_millis(100));
    }
    census.lost = census.spawned - queue.alive();
    Ok(out)
}

/// One connection thread: takes attempts from the queue as slot `k`,
/// ships each to worker `w`, reads each object back from `store` (and
/// copies it into `keep`), and answers with its [`Outcome`]. The
/// worker dying under an attempt — killed by chaos, hung up on by the
/// master, or gone by itself — is that attempt's `Crashed` and the end
/// of this connection. Owns (and always reaps) the worker's `Child`.
#[allow(clippy::too_many_arguments)]
fn connection(
    k: usize,
    w: usize,
    mut stream: UnixStream,
    mut child: Option<Child>,
    queue: &JobQueue<'_>,
    ctx: &Ctx<'_>,
    store: &FnCache,
    keep: Option<&FnCache>,
    done_tx: &Sender<(usize, Outcome)>,
    track: TrackId,
) {
    let trace = ctx.trace;
    let in_flight = format!("farm in-flight {w}");
    while let Some((job, attempt, action)) = queue.take(k) {
        let (si, fi) = ctx.fns[job];
        let key = ctx.keys[job];
        let (chaos, stall_ms) = match action {
            ChaosAction::None | ChaosAction::Panic => ("none", 0),
            ChaosAction::Lose => ("exit", 0),
            ChaosAction::Stall => ("stall", ctx.stall_for.as_millis() as u64),
        };
        let frame = obj(vec![
            ("kind", Json::Str("job".into())),
            ("job", Json::Num(job as f64)),
            ("section", Json::Num(si as f64)),
            ("function", Json::Num(fi as f64)),
            ("attempt", Json::Num(attempt as f64)),
            ("key", Json::Str(key.hex())),
            ("chaos", Json::Str(chaos.into())),
            ("stall_ms", Json::Num(stall_ms as f64)),
        ]);
        let t = Instant::now();
        let ts0 = trace.now_ns();
        trace.counter(&in_flight, track, ts0, 1.0);
        let sent = write_message(&mut stream, &frame).is_ok();
        if sent && action == ChaosAction::Panic {
            // The injected fault is a *real* SIGKILL mid-job.
            if let Some(c) = child.as_mut() {
                trace.instant_now("fault", format!("kill worker {w}"), track);
                let _ = c.kill();
            }
        }
        // `None`: the worker is gone (or broke protocol).
        let reply = sent.then(|| read_reply(&mut stream, job, key, store));
        let reply = reply.flatten();
        trace.counter(&in_flight, track, trace.now_ns(), 0.0);
        let lost = reply.is_none();
        let outcome = match reply {
            Some(Ok(cf)) => {
                if let Some(own) = keep {
                    own.store(key, cf.clone());
                }
                let dur = trace.now_ns().saturating_sub(ts0);
                let args = vec![("attempt", attempt as f64)];
                trace.record_span("farm", ctx.names[job], track, ts0, dur, args);
                Outcome::Done(cf, t.elapsed())
            }
            Some(Err(msg)) => Outcome::Error(worker_err(format!("worker {w}: {msg}"))),
            None => {
                trace.instant_now("fault", format!("worker {w} lost"), track);
                if let Some(c) = child.as_mut() {
                    let _ = c.kill();
                }
                Outcome::Crashed(format!("worker {w} lost"))
            }
        };
        // Strike a lost worker off before its outcome is read (whoever
        // reads it re-dispatches by the true head count), and release
        // only after delivering (a quiet farm implies every outcome is
        // already in the channel).
        if lost {
            queue.lose();
        }
        let _ = done_tx.send((job, outcome));
        queue.release(k);
        if lost {
            break;
        }
    }

    // Orderly goodbye (ignored if the worker is already gone), then
    // reap the process — never leave a zombie or a stray worker.
    let _ = write_message(&mut stream, &obj(vec![("kind", Json::Str("bye".into()))]));
    drop(stream);
    if let Some(mut c) = child {
        reap(&mut c, Duration::from_secs(2));
    }
}

/// Reads worker frames until `job` resolves: `Some(Ok)` with the
/// object fetched from the shared store by hash, `Some(Err)` with a
/// worker-reported compile failure, `None` when the connection died or
/// the worker broke protocol.
fn read_reply(
    stream: &mut UnixStream,
    job: usize,
    key: CacheKey,
    store: &FnCache,
) -> Option<Result<CachedFunction, String>> {
    loop {
        let msg = read_message(stream, MAX_FRAME_DEFAULT, || true)
            .ok()?
            .ok()?;
        match msg.str_field("kind") {
            Some("done") => {
                if msg.u64_field("job") != Some(job as u64) {
                    return None;
                }
                // A hash announced but an object unreadable is a
                // protocol violation: drop the worker.
                return store.lookup(key).map(Ok);
            }
            Some("fail") => {
                let msg = msg.str_field("message");
                return Some(Err(msg.unwrap_or("unspecified worker failure").to_string()));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

fn connect(addr: &str) -> Result<UnixStream, String> {
    let path = addr
        .strip_prefix("unix:")
        .ok_or_else(|| format!("bad --connect address `{addr}` (want unix:PATH)"))?;
    UnixStream::connect(path).map_err(|e| format!("connect {path}: {e}"))
}

fn decode_options(welcome: &Json) -> CompileOptions {
    let o = welcome.get("options");
    let flag = |k: &str| o.and_then(|o| o.bool_field(k)).unwrap_or(false);
    CompileOptions {
        inline: flag("inline").then(warp_ir::InlinePolicy::default),
        if_convert: flag("ifconv").then(warp_ir::IfConvPolicy::default),
        absint: flag("absint"),
        verify_each_pass: flag("verify"),
        ..CompileOptions::default()
    }
}

/// The `warpd-worker` main loop: connect to the coordinator,
/// handshake, compile jobs until `bye` (or the socket closes).
/// Returns the process exit code. Public so the thin `warpd-worker`
/// binary (and the farm tests) can call it.
pub fn run_worker(addr: &str, worker: usize) -> i32 {
    match worker_loop(addr, worker) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("warpd-worker[{worker}]: {e}");
            1
        }
    }
}

/// Answers the handshake with `error` instead of `ready`: the exit code
/// of a worker that refuses the build.
fn refuse(stream: &mut UnixStream, message: &str) -> Result<i32, String> {
    let _ = write_message(stream, &note("error", "message", message));
    Ok(2)
}

fn worker_loop(addr: &str, worker: usize) -> Result<i32, String> {
    let mut stream = connect(addr)?;
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| format!("set timeout: {e}"))?;

    let hello = obj(vec![
        ("kind", Json::Str("hello".into())),
        ("protocol", Json::Num(f64::from(FARM_PROTOCOL_VERSION))),
        ("worker", Json::Num(worker as f64)),
        ("pid", Json::Num(f64::from(std::process::id()))),
    ]);
    write_message(&mut stream, &hello).map_err(|e| format!("hello: {e}"))?;

    let welcome = match read_message(&mut stream, MAX_FRAME_DEFAULT, || true) {
        Ok(Ok(msg)) => msg,
        Ok(Err(e)) => return Err(format!("welcome: {e}")),
        Err(e) => return Err(format!("welcome: {e}")),
    };
    match welcome.str_field("kind") {
        Some("welcome") => {}
        Some("reject") => {
            eprintln!(
                "warpd-worker[{worker}]: rejected: {}",
                welcome.str_field("reason").unwrap_or("unspecified")
            );
            return Ok(2);
        }
        _ => return Err("expected welcome frame".into()),
    }

    let source = welcome
        .str_field("module")
        .ok_or("welcome carries no module source")?
        .to_string();
    let opts = decode_options(&welcome);
    let options_fp = options_fingerprint(&opts);
    // The wire carries only the four boolean options warpcc exposes;
    // the fingerprint proves nothing was lost in translation (an
    // unroll policy, a custom cell config) before we compile anything.
    let coord_fp = welcome.str_field("fingerprint").unwrap_or("");
    if format!("{options_fp:016x}") != coord_fp {
        let message = format!(
            "options fingerprint mismatch: coordinator {coord_fp}, worker {options_fp:016x} \
             (an option the farm wire cannot express?)"
        );
        return refuse(&mut stream, &message);
    }
    // Objects go home only through the store the coordinator opened.
    let cache = match welcome.str_field("cache").unwrap_or("") {
        "" => return refuse(&mut stream, "welcome names no object store"),
        path => match FnCache::with_dir(path) {
            Ok(cache) => cache,
            Err(e) => return refuse(&mut stream, &format!("object store {path}: {e}")),
        },
    };

    let trace = Trace::disabled();
    let track = trace.track("worker");
    let (checked, _units, _warnings) =
        prepare(&source, &opts, &trace, track).map_err(|e| format!("phase1: {e}"))?;
    let n: usize = checked
        .module
        .sections
        .iter()
        .map(|s| s.functions.len())
        .sum();
    let expected = welcome.u64_field("functions").unwrap_or(0) as usize;
    if n != expected {
        let message = format!("parsed {n} functions, coordinator announced {expected}");
        return refuse(&mut stream, &message);
    }

    let ready = obj(vec![
        ("kind", Json::Str("ready".into())),
        ("worker", Json::Num(worker as f64)),
        ("functions", Json::Num(n as f64)),
    ]);
    write_message(&mut stream, &ready).map_err(|e| format!("ready: {e}"))?;

    // One job: validate it against the local parse, fetch or compile
    // the object, and store it. `Err` is the message of a `fail` frame.
    let serve = |msg: &Json, job: u64| -> Result<Json, String> {
        let si = msg.u64_field("section").unwrap_or(0) as usize;
        let fi = msg.u64_field("function").unwrap_or(0) as usize;
        let sections = &checked.module.sections;
        let func = sections
            .get(si)
            .and_then(|s| s.functions.get(fi))
            .ok_or_else(|| format!("no function ({si},{fi})"))?;
        let key = function_key(&checked, &source, si, fi, options_fp);
        if msg.str_field("key") != Some(key.hex().as_str()) {
            return Err(format!(
                "cache key mismatch on ({si},{fi}): coordinator {}, worker {}",
                msg.str_field("key").unwrap_or("?"),
                key.hex()
            ));
        }
        // Another worker may have landed this object already (a
        // retried job): a store hit costs one lookup and ships a hash
        // instead of a compile.
        let cf = match probe(&cache, key, &func.name, &trace, track) {
            Some(cf) => cf,
            None => compile_function_traced(&checked, &source, si, fi, &opts, &trace, track)
                .map(|(image, record)| CachedFunction { image, record })
                .map_err(|e| e.to_string())?,
        };
        cache.store(key, cf);
        Ok(obj(vec![
            ("kind", Json::Str("done".into())),
            ("job", Json::Num(job as f64)),
            ("key", Json::Str(key.hex())),
        ]))
    };

    loop {
        let msg = match read_message(&mut stream, MAX_FRAME_DEFAULT, || true) {
            Ok(Ok(msg)) => msg,
            Ok(Err(e)) => return Err(format!("bad frame: {e}")),
            Err(FrameError::Closed) => return Ok(0),
            Err(e) => return Err(format!("read: {e}")),
        };
        match msg.str_field("kind") {
            Some("bye") => return Ok(0),
            Some("job") => {
                match msg.str_field("chaos") {
                    // Injected fault: die *silently*, mid-protocol —
                    // the coordinator sees a clean EOF with a job in
                    // flight, exactly a lost workstation.
                    Some("exit") => return Ok(3),
                    Some("stall") => {
                        let ms = msg.u64_field("stall_ms").unwrap_or(0);
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    _ => {}
                }
                let job = msg.u64_field("job").unwrap_or(0);
                let reply = serve(&msg, job).unwrap_or_else(|message| {
                    obj(vec![
                        ("kind", Json::Str("fail".into())),
                        ("job", Json::Num(job as f64)),
                        ("message", Json::Str(message)),
                    ])
                });
                if write_message(&mut stream, &reply).is_err() {
                    return Ok(0); // coordinator hung up
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    fn welcome_for_test() -> Json {
        encode_welcome(
            "module m;\nend;\n",
            &CompileOptions::default(),
            0xabcd,
            "",
            3,
        )
    }

    #[test]
    fn handshake_rejects_foreign_protocols_and_unknown_workers() {
        let ours = f64::from(FARM_PROTOCOL_VERSION);
        for (protocol, worker, complaint) in [
            (99.0, 0.0, "protocol 99"),
            (ours, 7.0, "unknown worker index 7"),
        ] {
            let (mut coord_side, mut worker_side) = UnixStream::pair().unwrap();
            coord_side
                .set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            let peer = std::thread::spawn(move || {
                let hello = obj(vec![
                    ("kind", Json::Str("hello".into())),
                    ("protocol", Json::Num(protocol)),
                    ("worker", Json::Num(worker)),
                    ("pid", Json::Num(1.0)),
                ]);
                write_message(&mut worker_side, &hello).unwrap();
                // The coordinator must answer with a reject frame.
                let reply = read_message(&mut worker_side, MAX_FRAME_DEFAULT, || true)
                    .unwrap()
                    .unwrap();
                assert_eq!(reply.str_field("kind"), Some("reject"));
                assert!(reply.str_field("reason").unwrap().contains(complaint));
            });
            let deadline = Instant::now() + Duration::from_secs(5);
            let err = serve_handshake(&mut coord_side, &welcome_for_test(), 4, 3, deadline)
                .expect_err("must be rejected");
            assert!(err.contains(complaint), "{err}");
            peer.join().unwrap();
        }
    }

    #[test]
    fn handshake_rejects_oversized_hello_frame() {
        let (mut coord_side, mut worker_side) = UnixStream::pair().unwrap();
        coord_side
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        // A length prefix claiming ~1 GiB: the coordinator must fail
        // the handshake without trying to allocate or read it.
        worker_side
            .write_all(&(1_000_000_000u32).to_le_bytes())
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = serve_handshake(&mut coord_side, &welcome_for_test(), 4, 3, deadline)
            .expect_err("an oversized hello must fail the handshake");
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn welcome_round_trips_options() {
        let opts = CompileOptions {
            inline: Some(warp_ir::InlinePolicy::default()),
            absint: true,
            ..CompileOptions::default()
        };
        let fp = options_fingerprint(&opts);
        let w = encode_welcome("src", &opts, fp, "/tmp/cache", 5);
        let decoded = decode_options(&w);
        assert_eq!(options_fingerprint(&decoded), fp);
        assert_eq!(w.str_field("fingerprint").unwrap(), format!("{fp:016x}"));
        assert_eq!(w.u64_field("functions"), Some(5));
    }

    #[test]
    fn a_worker_that_cannot_open_its_store_refuses_at_handshake() {
        let dir = std::env::temp_dir().join(format!("warp-refuse-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("not-a-dir");
        std::fs::write(&file, b"regular file").unwrap();
        let file = file.display().to_string();
        for (i, store) in [file.as_str(), ""].into_iter().enumerate() {
            let sock = dir.join(format!("w{i}.sock"));
            let listener = UnixListener::bind(&sock).unwrap();
            let addr = format!("unix:{}", sock.display());
            let worker = std::thread::spawn(move || run_worker(&addr, 0));
            let (mut coord_side, _) = listener.accept().unwrap();
            let hello = read_message(&mut coord_side, MAX_FRAME_DEFAULT, || true)
                .unwrap()
                .unwrap();
            assert_eq!(hello.str_field("kind"), Some("hello"));
            let opts = CompileOptions::default();
            let fp = options_fingerprint(&opts);
            let src = "module m; section s on cells 0..0; function f() begin end; end;";
            let welcome = encode_welcome(src, &opts, fp, store, 1);
            write_message(&mut coord_side, &welcome).unwrap();
            let reply = read_message(&mut coord_side, MAX_FRAME_DEFAULT, || true)
                .unwrap()
                .unwrap();
            assert_eq!(reply.str_field("kind"), Some("error"), "store `{store}`");
            let message = reply.str_field("message").unwrap();
            assert!(message.contains("object store"), "{message}");
            assert!(message.contains(store), "{message}");
            assert_eq!(worker.join().unwrap(), 2, "store `{store}`");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connect_rejects_malformed_address() {
        let err = connect("carrier-pigeon:coop").unwrap_err();
        assert!(err.contains("bad --connect"), "{err}");
    }
}
