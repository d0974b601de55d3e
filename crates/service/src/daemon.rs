//! The `warpd` daemon: a long-lived multi-tenant compilation service.
//!
//! One daemon owns one persistent function cache (`warp-cache`) and
//! serves any number of concurrent clients over a Unix socket (or TCP
//! behind a flag). Three mechanisms make it multi-tenant rather than
//! merely concurrent:
//!
//! * **shared warm cache** — every request probes and feeds the same
//!   two-tier [`FnCache`], so one tenant's build warms the next
//!   tenant's;
//! * **in-flight dedup** — identical function keys requested
//!   concurrently compile **once** ([`warp_cache::InFlight`] leases);
//!   the followers block briefly and then take the cache hit;
//! * **admission control** — at most `workers` compiles execute at a
//!   time and at most `queue_depth` wait; beyond that the daemon
//!   answers `overloaded` immediately instead of queueing unboundedly
//!   ([`Response::Overloaded`] is explicit backpressure, not an
//!   error).
//!
//! Every request lands on its own trace track with `service`-category
//! spans (`queue`, `request`) so per-request latency decomposes into
//! queue wait, compile time, and — via the nested `cache` spans — hit
//! lookups vs real compiles. See `docs/TRACING.md`.

use crate::proto::{
    read_message, write_message, ErrorCode, FrameError, HealthInfo, Request, Response,
    WireCacheStats, MAX_FRAME_DEFAULT, PROTOCOL_VERSION,
};
use parcc::{options_fingerprint, resolve_jobs, Build, FarmConfig, FnCache};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use warp_cache::InFlight;
use warp_obs::{ClockDomain, Trace};

/// Upper bound on per-request `jobs`: more threads than this buys
/// nothing and would let one request intern an unbounded number of
/// worker tracks in the shared trace.
pub const MAX_JOBS_PER_REQUEST: usize = 256;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path (the default transport).
    Unix(PathBuf),
    /// A TCP address such as `127.0.0.1:7077` (opt-in; port `0` asks
    /// the OS for a free port — read the resolved one back from
    /// [`Warpd::endpoint`]).
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Daemon configuration. Build one with [`DaemonConfig::new`] and
/// adjust fields as needed.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listening endpoint.
    pub endpoint: Endpoint,
    /// Maximum compile requests executing concurrently. Defaults to
    /// the machine's available parallelism.
    pub workers: usize,
    /// Maximum compile requests waiting for a worker slot before the
    /// daemon answers `overloaded`. `0` disables queueing entirely.
    pub queue_depth: usize,
    /// Directory for the persistent cache tier; `None` keeps the
    /// cache purely in memory.
    pub cache_dir: Option<PathBuf>,
    /// Compile on a build farm of this many real `warpd-worker` OS
    /// processes ([`parcc::farm`]) instead of in-process threads.
    /// The farm shares the daemon's cache as its content-addressed
    /// object store (by hash when `cache_dir` is set, by bytes
    /// otherwise).
    pub farm_workers: Option<usize>,
    /// Maximum accepted frame payload, bytes.
    pub max_frame: usize,
    /// Record `service`/`driver`/`worker`/`cache` spans for every
    /// request (exportable via [`Warpd::trace`]).
    pub trace: bool,
}

impl DaemonConfig {
    /// A config with conservative defaults listening on `endpoint`.
    pub fn new(endpoint: Endpoint) -> DaemonConfig {
        DaemonConfig {
            endpoint,
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            queue_depth: 64,
            cache_dir: None,
            farm_workers: None,
            max_frame: MAX_FRAME_DEFAULT,
            trace: false,
        }
    }
}

/// Counting semaphore with a bounded wait queue — the admission
/// controller. `try_enter` never blocks past the queue bound: when
/// `queue_depth` requests are already waiting it fails fast with the
/// numbers the `overloaded` response carries.
struct Admission {
    workers: u64,
    queue_depth: u64,
    /// `(running, waiting)`.
    state: Mutex<(u64, u64)>,
    freed: Condvar,
}

/// An admission slot; dropping it frees the slot and wakes a waiter.
struct Permit<'a>(&'a Admission);

impl Admission {
    fn new(workers: usize, queue_depth: usize) -> Admission {
        Admission {
            workers: workers.max(1) as u64,
            queue_depth: queue_depth as u64,
            state: Mutex::new((0, 0)),
            freed: Condvar::new(),
        }
    }

    /// Acquires a worker slot, waiting in the bounded queue if all
    /// slots are busy. `Err` carries `(active, queued, limit)` for the
    /// `overloaded` response.
    fn try_enter(&self) -> Result<Permit<'_>, (u64, u64, u64)> {
        let mut st = self.state.lock().expect("admission lock");
        if st.0 >= self.workers {
            if st.1 >= self.queue_depth {
                return Err((st.0, st.1, self.queue_depth));
            }
            st.1 += 1;
            while st.0 >= self.workers {
                st = self.freed.wait(st).expect("admission lock");
            }
            st.1 -= 1;
        }
        st.0 += 1;
        Ok(Permit(self))
    }

    fn counts(&self) -> (u64, u64) {
        let st = self.state.lock().expect("admission lock");
        (st.0, st.1)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().expect("admission lock");
        st.0 -= 1;
        self.0.freed.notify_one();
    }
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    cache: FnCache,
    /// `Some` routes compiles through a build farm of worker processes.
    farm: Option<FarmConfig>,
    inflight: InFlight,
    admission: Admission,
    trace: Trace,
    /// `false` once draining: compile requests are refused.
    accepting: AtomicBool,
    /// `true` once shutdown was requested: everything winds down.
    shutdown: AtomicBool,
    /// Total requests handled, all kinds.
    requests: AtomicU64,
    /// Open connections (the accept loop and `join` watch this).
    conns: AtomicU64,
    started: Instant,
    max_frame: usize,
}

impl Shared {
    fn handle(&self, req: Request, conn_id: u64) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::Compile {
                id,
                module,
                options,
                jobs,
            } => self.compile(id, &module, options, jobs, conn_id),
            Request::Fingerprint { id, options } => Response::Fingerprint {
                id,
                fingerprint: format!(
                    "{:016x}",
                    options_fingerprint(&options.to_compile_options())
                ),
            },
            Request::CacheStats { id } => {
                let s = self.cache.stats();
                Response::CacheStats {
                    id,
                    stats: WireCacheStats {
                        memory_hits: s.memory_hits,
                        disk_hits: s.disk_hits,
                        misses: s.misses,
                        stores: s.stores,
                        errors: s.errors,
                        resident: self.cache.len() as u64,
                    },
                }
            }
            Request::Health { id } => {
                let (active, queued) = self.admission.counts();
                Response::Health {
                    id,
                    info: HealthInfo {
                        status: if self.accepting.load(Ordering::Relaxed) {
                            "ok".to_string()
                        } else {
                            "draining".to_string()
                        },
                        protocol: PROTOCOL_VERSION,
                        uptime_ms: self.started.elapsed().as_millis() as u64,
                        requests: self.requests.load(Ordering::Relaxed),
                        active,
                        queued,
                    },
                }
            }
            Request::Drain { id } => {
                self.accepting.store(false, Ordering::Relaxed);
                Response::Draining { id }
            }
            Request::Shutdown { id } => {
                self.accepting.store(false, Ordering::Relaxed);
                self.shutdown.store(true, Ordering::Relaxed);
                Response::Bye { id }
            }
        }
    }

    fn compile(
        &self,
        id: u64,
        module: &str,
        options: crate::proto::RequestOptions,
        jobs: u64,
        conn_id: u64,
    ) -> Response {
        if !self.accepting.load(Ordering::Relaxed) {
            return Response::Error {
                id,
                code: ErrorCode::Draining,
                message: "daemon is draining; no new compiles".to_string(),
            };
        }
        let arrive_ns = self.trace.now_ns();
        let enq = Instant::now();
        let permit = match self.admission.try_enter() {
            Ok(p) => p,
            Err((active, queued, limit)) => {
                return Response::Overloaded {
                    id,
                    active,
                    queued,
                    limit,
                }
            }
        };
        let queue_ns = enq.elapsed().as_nanos() as u64;
        let track = self.trace.track(&format!("conn {conn_id} req {id}"));
        if queue_ns > 0 {
            self.trace
                .record_span("service", "queue", track, arrive_ns, queue_ns, vec![]);
        }
        let before = self.cache.stats();
        let compile_start = Instant::now();
        let opts = options.to_compile_options();
        // `0` means "daemon default"; the cap keeps a hostile request
        // from interning an unbounded number of worker tracks.
        let jobs = resolve_jobs(jobs as usize).min(MAX_JOBS_PER_REQUEST);
        // One pipeline either way; a farm's worker processes share the
        // daemon's cache as their object store (and dedup through it —
        // the pipeline ignores the in-process lease table for them).
        let result = Build {
            jobs,
            farm: self.farm.as_ref(),
            cache: Some(&self.cache),
            inflight: Some(&self.inflight),
            trace: &self.trace,
            track: Some(track),
            ..Build::new(module, &opts)
        }
        .run()
        .map(|(r, _)| r);
        let compile_ns = compile_start.elapsed().as_nanos() as u64;
        let after = self.cache.stats();
        drop(permit);
        // Deltas of the shared counters: exact when this request runs
        // alone, approximate under concurrent tenants (documented in
        // SERVICE.md).
        let cache_hits = (after.memory_hits + after.disk_hits)
            .saturating_sub(before.memory_hits + before.disk_hits);
        let cache_misses = after.misses.saturating_sub(before.misses);
        self.trace.record_span(
            "service",
            format!("request {id}"),
            track,
            arrive_ns,
            queue_ns + compile_ns,
            vec![
                ("queue_ns", queue_ns as f64),
                ("compile_ns", compile_ns as f64),
                ("cache_hits", cache_hits as f64),
                ("cache_misses", cache_misses as f64),
            ],
        );
        match result {
            Ok(r) => match warp_target::download::encode(&r.module_image) {
                Ok(bytes) => Response::Compiled {
                    id,
                    image_hex: crate::proto::to_hex(&bytes),
                    functions: r.records.len() as u64,
                    warnings: r.warnings as u64,
                    cache_hits,
                    cache_misses,
                    queue_ns,
                    compile_ns,
                },
                Err(e) => Response::Error {
                    id,
                    code: ErrorCode::CompileFailed,
                    message: format!("image encode failed: {e}"),
                },
            },
            Err(e) => Response::Error {
                id,
                code: ErrorCode::CompileFailed,
                message: e.to_string(),
            },
        }
    }
}

/// A live connection of either transport (either end of it: the
/// client holds one too).
pub(crate) enum Conn {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(d),
            Conn::Tcp(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Unix(path) => {
                // A stale socket file from a crashed daemon would make
                // bind fail; remove it (connect() to a dead socket
                // fails, so this cannot steal a live daemon's clients
                // by accident in normal operation).
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    fn endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Unix(_, path) => Ok(Endpoint::Unix(path.clone())),
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Warpd::stop`] or send a `shutdown` request, then [`Warpd::join`].
pub struct Warpd {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Warpd {
    /// Binds the endpoint and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Propagates bind/cache-directory I/O failures.
    pub fn start(config: DaemonConfig) -> io::Result<Warpd> {
        let cache = match &config.cache_dir {
            Some(dir) => FnCache::with_dir(dir)?,
            None => FnCache::in_memory(),
        };
        let shared = Arc::new(Shared {
            cache,
            farm: config.farm_workers.map(FarmConfig::new),
            inflight: InFlight::new(),
            admission: Admission::new(config.workers, config.queue_depth),
            trace: if config.trace {
                Trace::new(ClockDomain::Monotonic)
            } else {
                Trace::disabled()
            },
            accepting: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            started: Instant::now(),
            max_frame: config.max_frame,
        });
        let listener = Listener::bind(&config.endpoint)?;
        let endpoint = listener.endpoint()?;
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("warpd-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Warpd {
            shared,
            endpoint,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound endpoint, with OS-assigned TCP ports resolved.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The daemon's trace (disabled unless [`DaemonConfig::trace`] was
    /// set). Snapshot it after [`Warpd::join`] for a complete record.
    pub fn trace(&self) -> &Trace {
        &self.shared.trace
    }

    /// Whether shutdown has been requested yet.
    pub fn is_running(&self) -> bool {
        !self.shared.shutdown.load(Ordering::Relaxed)
    }

    /// Requests shutdown from the hosting process (equivalent to a
    /// `shutdown` request on the wire).
    pub fn stop(&self) {
        self.shared.accepting.store(false, Ordering::Relaxed);
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// Blocks until shutdown has been requested (over the wire or via
    /// [`Warpd::stop`]) and every connection has wound down.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        while self.shared.conns.load(Ordering::Relaxed) > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    let mut conn_id = 0u64;
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok(conn) => {
                conn_id += 1;
                let id = conn_id;
                let handler_shared = Arc::clone(&shared);
                shared.conns.fetch_add(1, Ordering::Relaxed);
                let spawned = std::thread::Builder::new()
                    .name(format!("warpd-conn-{id}"))
                    .spawn(move || {
                        handle_conn(&handler_shared, conn, id);
                        handler_shared.conns.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    shared.conns.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Dropping the listener unlinks the Unix socket file.
}

fn handle_conn(shared: &Shared, mut conn: Conn, conn_id: u64) {
    // Accepted sockets can inherit the listener's non-blocking mode;
    // switch to blocking reads with a short timeout so the loop polls
    // the shutdown flag between frames.
    if let Conn::Unix(s) = &conn {
        let _ = s.set_nonblocking(false);
    }
    if let Conn::Tcp(s) = &conn {
        let _ = s.set_nonblocking(false);
    }
    let _ = conn.set_read_timeout(Some(Duration::from_millis(50)));
    let keep_going = || !shared.shutdown.load(Ordering::Relaxed);
    loop {
        let msg = match read_message(&mut conn, shared.max_frame, keep_going) {
            Ok(m) => m,
            Err(FrameError::TooLarge { declared, limit }) => {
                // The payload is still unread in the pipe: answer once
                // (id 0 — the request was never parsed) and close.
                let resp = Response::Error {
                    id: 0,
                    code: ErrorCode::FrameTooLarge,
                    message: format!("frame of {declared} bytes exceeds the {limit}-byte limit"),
                };
                let _ = write_message(&mut conn, &resp.into_json());
                return;
            }
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => return,
        };
        let resp = match msg {
            Err(detail) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    id: 0,
                    code: ErrorCode::BadJson,
                    message: detail,
                }
            }
            Ok(json) => match Request::from_json_owned(json) {
                Err((id, code, message)) => {
                    shared.requests.fetch_add(1, Ordering::Relaxed);
                    Response::Error { id, code, message }
                }
                Ok(req) => shared.handle(req, conn_id),
            },
        };
        let bye = matches!(resp, Response::Bye { .. });
        if write_message(&mut conn, &resp.into_json()).is_err() || bye {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_bounds_running_and_waiting() {
        let adm = Arc::new(Admission::new(1, 1));
        let p1 = adm.try_enter().expect("first slot");
        assert_eq!(adm.counts(), (1, 0));

        // One waiter fits in the queue...
        let adm2 = Arc::clone(&adm);
        let waiter = std::thread::spawn(move || {
            let _p = adm2.try_enter().expect("queued slot");
        });
        while adm.counts().1 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...and the next is refused with the counts.
        assert_eq!(adm.try_enter().err(), Some((1, 1, 1)));
        drop(p1);
        waiter.join().unwrap();
        assert_eq!(adm.counts(), (0, 0));
    }

    #[test]
    fn endpoint_display_is_schemed() {
        assert_eq!(
            Endpoint::Unix(PathBuf::from("/tmp/w.sock")).to_string(),
            "unix:/tmp/w.sock"
        );
        assert_eq!(
            Endpoint::Tcp("127.0.0.1:1".to_string()).to_string(),
            "tcp:127.0.0.1:1"
        );
    }
}
