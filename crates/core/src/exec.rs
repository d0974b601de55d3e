//! The work-stealing worker loop and the in-process executors.
//!
//! One worker loop ([`worker_loop`]) serves the compile stage (phases 2
//! and 3), the only stage that runs in parallel; phases 1 and 4 run on
//! the master. Each worker drains its own FIFO deque
//! ([`crossbeam::deque`]) first, then the pool's shared injector, then
//! steals from its siblings. A worker that finds nothing anywhere is
//! done and **goes home** — it neither spins nor sleeps on the chance
//! of more work, so a healthy stage costs no wake-ups; work injected
//! later is picked up by whoever is still running, and if nobody is,
//! the injection starts a worker for it.
//!
//! [`with_threads`] runs that loop as the compile stage's thread
//! [`Executor`]: the first batch of attempts is seeded round-robin over
//! the deques (in the LPT order the pipeline dispatched them), retries
//! arrive through the injector.
//!
//! [`Executor`] is the whole interface between the build pipeline's
//! recovery loop ([`crate::build`]) and whatever runs the compiles:
//! [`Inline`] (the caller's thread), the thread pool here, or the
//! process farm in [`crate::farm`].
//!
//! # Observability
//!
//! With an enabled [`Trace`] the loop records the scheduler events
//! documented in `docs/TRACING.md`:
//!
//! * `sched` **steal** instants on the thief's track (`steal from
//!   worker V`, `steal from injector`);
//! * `sched` **idle** instants when a worker finds no work anywhere
//!   (one per idle episode, not per poll);
//! * a **`queue w`** counter per worker tracking its deque depth as
//!   jobs are seeded and drained.

use crate::driver::{compile_function_traced, CompileError, CompileOptions};
use crate::fncache::{function_key, CachedFunction, FnCache};
use crate::threads::ChaosAction;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};
use warp_cache::{CacheKey, InFlight};
use warp_lang::CheckedModule;
use warp_obs::{Trace, TrackId};

/// Interns one trace track per worker (`worker 0` … `worker N-1`).
/// Tracks are interned by name, so repeated calls — and the sequential
/// driver's own `worker 0` — share rows.
fn worker_tracks(trace: &Trace, workers: usize) -> Vec<TrackId> {
    (0..workers)
        .map(|w| trace.track(&format!("worker {w}")))
        .collect()
}

/// Extracts a readable message from a caught panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

// ---------------------------------------------------------------------------
// The pool and the one worker loop
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PoolState {
    /// Tasks seeded or injected whose *execution* has not finished yet
    /// (delivery is separate — a lost result still finishes
    /// executing). When this hits zero the pool is quiescent: any
    /// result that has not arrived by then never will.
    unfinished: usize,
    /// Workers that have not gone home yet.
    live: usize,
}

/// Coordination shared by a pool's owner and its workers: the injector
/// for work that arrives after seeding, the head count that decides
/// whether an injection needs a new worker, and the owner's quiescence
/// wait ([`Pool::wait_quiet`]). The per-worker deques live on the
/// worker threads themselves; only their stealers are shared.
struct Pool<T> {
    injector: Injector<T>,
    state: Mutex<PoolState>,
    /// Signalled when `unfinished` reaches zero.
    quiet: Condvar,
}

impl<T> Pool<T> {
    fn new() -> Pool<T> {
        Pool {
            injector: Injector::new(),
            state: Mutex::default(),
            quiet: Condvar::new(),
        }
    }

    /// Accounts for `tasks` dealt onto the deques of `workers` workers
    /// about to start.
    fn seeded(&self, tasks: usize, workers: usize) {
        let mut st = self.state.lock().expect("pool lock");
        st.unfinished += tasks;
        st.live += workers;
    }

    /// Injects a task. `true` when every worker has gone home: the
    /// caller must start one (it is already counted as live).
    fn submit(&self, task: T) -> bool {
        let mut st = self.state.lock().expect("pool lock");
        st.unfinished += 1;
        self.injector.push(task);
        let nobody_home = st.live == 0;
        st.live += usize::from(nobody_home);
        nobody_home
    }

    /// A worker finished executing one task (whether or not its result
    /// was delivered). Must be called *after* the result is sent, so
    /// that quiescence implies every delivered result is already
    /// buffered.
    fn finish_one(&self) {
        let mut st = self.state.lock().expect("pool lock");
        st.unfinished -= 1;
        if st.unfinished == 0 {
            self.quiet.notify_all();
        }
    }

    /// Blocks until every seeded and injected task has finished
    /// executing — the point after which a missing result is a *lost*
    /// result, not a slow one.
    fn wait_quiet(&self) {
        let mut st = self.state.lock().expect("pool lock");
        while st.unfinished > 0 {
            st = self.quiet.wait(st).expect("pool lock");
        }
    }

    /// An idle worker asks to go home. Refused (`false`) when the
    /// injector has work after all; deciding under the lock that
    /// [`Pool::submit`] pushes under means an injected task is always
    /// seen either by a worker on its way out or by the head count.
    /// (Sibling deques never grow after seeding, so a sweep in which
    /// every steal answered `Empty` — the worker loop re-sweeps after
    /// any `Retry` — cannot miss local work; only the injector can
    /// produce more.)
    fn retire(&self) -> bool {
        let mut st = self.state.lock().expect("pool lock");
        let done = self.injector.is_empty();
        st.live -= usize::from(done);
        done
    }
}

/// Seeds `tasks` round-robin over `workers` FIFO deques (pass an
/// LPT-sorted list to spread the expensive heads across workers) and
/// samples each `queue w` counter once.
fn seed<T>(
    workers: usize,
    tasks: impl IntoIterator<Item = T>,
    tracks: &[TrackId],
    trace: &Trace,
) -> (Vec<Worker<T>>, Vec<Stealer<T>>) {
    let locals: Vec<Worker<T>> = (0..workers).map(|_| Worker::new_fifo()).collect();
    let stealers = locals.iter().map(Worker::stealer).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        locals[i % workers].push(task);
    }
    if trace.is_enabled() {
        let ts = trace.now_ns();
        for (w, local) in locals.iter().enumerate() {
            let track = tracks.get(w).copied().unwrap_or(TrackId(0));
            trace.counter(format!("queue {w}"), track, ts, local.len() as f64);
        }
    }
    (locals, stealers)
}

/// The worker loop: pull continuously — local deque first, then the
/// pool's injector, then the siblings — and go home when all three
/// are empty.
fn worker_loop<T>(
    w: usize,
    local: &Worker<T>,
    stealers: &[Stealer<T>],
    pool: &Pool<T>,
    trace: &Trace,
    track: TrackId,
    mut run: impl FnMut(T),
) {
    let mut was_idle = false;
    loop {
        // A steal that lost a race (`Steal::Retry`) says nothing about
        // whether its queue is empty: note it and sweep again rather
        // than going home past a sibling's full deque.
        let mut contended = false;
        let mut steal = |s: Steal<T>| {
            contended |= matches!(s, Steal::Retry);
            s.success()
        };
        let mut task = local.pop();
        if task.is_none() {
            task = steal(pool.injector.steal());
            if task.is_some() && trace.is_enabled() {
                trace.instant_now("sched", "steal from injector", track);
            }
        }
        if task.is_none() {
            for off in 1..stealers.len() {
                let victim = (w + off) % stealers.len();
                if let Some(t) = steal(stealers[victim].steal()) {
                    if trace.is_enabled() {
                        trace.instant_now("sched", format!("steal from worker {victim}"), track);
                    }
                    task = Some(t);
                    break;
                }
            }
        }
        let Some(task) = task else {
            if contended {
                continue;
            }
            if !was_idle {
                was_idle = true;
                trace.instant_now("sched", "idle", track);
            }
            if pool.retire() {
                return;
            }
            continue;
        };
        was_idle = false;
        if trace.is_enabled() {
            let depth = local.len() as f64;
            trace.counter(format!("queue {w}"), track, trace.now_ns(), depth);
        }
        run(task);
        pool.finish_one();
    }
}

// ---------------------------------------------------------------------------
// The executor interface and the per-attempt step
// ---------------------------------------------------------------------------

/// One dispatched attempt: job (source-order index), attempt number,
/// and what the chaos plan does to it.
pub(crate) type Attempt = (usize, usize, ChaosAction);

/// How one attempt ended. (`Done` is both the big variant and the one
/// nearly every attempt ends in, so boxing it would only add an
/// allocation per compiled function.)
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum Outcome {
    /// The function compiled (or was fetched); the duration is the
    /// worker's wall time for it.
    Done(CachedFunction, Duration),
    /// A deterministic compiler error — retrying cannot help; the
    /// build aborts with it.
    Error(CompileError),
    /// The worker died under the attempt — a contained thread panic, a
    /// worker process that was killed, exited or hung up. Retried.
    Crashed(String),
}

/// The event source the build pipeline's recovery loop drives. *How* a
/// [`ChaosAction`] is applied is the executor's business (a thread
/// panics, loses its message or sleeps; a farm worker is SIGKILLed,
/// exits silently or stalls); *deciding* it, counting attempts,
/// timeouts, backoff, re-dispatch and the fallback all live in the
/// loop.
pub(crate) trait Executor {
    /// Hands one attempt to a worker. Never blocks on the compile.
    fn dispatch(&mut self, job: usize, attempt: usize, action: ChaosAction);
    /// The next finished attempt, or `None` after `timeout` of silence.
    fn next(&mut self, timeout: Duration) -> Option<(usize, Outcome)>;
    /// Returns once no dispatched attempt can still deliver: whatever
    /// [`Executor::next`] has not yielded after this and a drain with a
    /// zero timeout is lost.
    fn quiesce(&mut self);
    /// Workers that can still take an attempt.
    fn alive(&self) -> usize;
}

/// Everything an in-process attempt reads: the prepared module, the
/// job list, and the cache the per-job step goes through.
pub(crate) struct Ctx<'a> {
    pub checked: &'a CheckedModule,
    pub source: &'a str,
    pub opts: &'a CompileOptions,
    /// `(section, function)` of every job, in source order.
    pub fns: &'a [(usize, usize)],
    /// The function names, parallel to `fns`.
    pub names: &'a [&'a str],
    pub cache: Option<&'a FnCache>,
    /// With cross-request dedup the probe happens under the lease, on
    /// the worker; `keys` is then empty.
    pub inflight: Option<&'a InFlight>,
    /// The keys of the master's pre-probe, in source order (empty when
    /// there is no cache or the probe is the worker's).
    pub keys: &'a [CacheKey],
    pub options_fp: u64,
    pub trace: &'a Trace,
    /// How long an attempt struck by [`ChaosAction::Stall`] stalls.
    pub stall_for: Duration,
}

/// Probes `cache` for `key` and records the `cache` span (`hit NAME`
/// with the object size, or `miss NAME`) on `track` — the one
/// cache-probe implementation, used by the master's pre-probe, by the
/// per-job step under dedup, and by farm workers.
pub(crate) fn probe(
    cache: &FnCache,
    key: CacheKey,
    name: &str,
    trace: &Trace,
    track: TrackId,
) -> Option<CachedFunction> {
    let start = trace.now_ns();
    let found = cache.lookup(key);
    if trace.is_enabled() {
        let (label, args) = match &found {
            Some(cf) => ("hit", vec![("object_bytes", cf.record.object_bytes as f64)]),
            None => ("miss", Vec::new()),
        };
        let dur = trace.now_ns().saturating_sub(start);
        trace.record_span("cache", format!("{label} {name}"), track, start, dur, args);
    }
    found
}

impl Ctx<'_> {
    /// The per-job step: compile, and with a cache store the result
    /// for the next build. A job the master pre-probed is a known miss
    /// and goes straight to the compiler; otherwise (cross-request
    /// dedup) the step is lease → lookup → compile → store, so of N
    /// concurrent builders of one key exactly one compiles and the
    /// rest block on the lease and then hit.
    pub(crate) fn fetch_or_compile(
        &self,
        job: usize,
        track: TrackId,
    ) -> Result<CachedFunction, CompileError> {
        let (si, fi) = self.fns[job];
        let compile = || {
            compile_function_traced(
                self.checked,
                self.source,
                si,
                fi,
                self.opts,
                self.trace,
                track,
            )
            .map(|(image, record)| CachedFunction { image, record })
        };
        let Some(cache) = self.cache else {
            return compile();
        };
        let (key, _lease) = match self.keys.get(job) {
            Some(&key) => (key, None),
            None => {
                let key = function_key(self.checked, self.source, si, fi, self.options_fp);
                let lease = self.inflight.map(|i| i.lease(key));
                if let Some(hit) = probe(cache, key, self.names[job], self.trace, track) {
                    return Ok(hit);
                }
                (key, lease)
            }
        };
        let cf = compile()?;
        cache.store(key, cf.clone());
        Ok(cf)
    }

    /// Runs one attempt on the calling thread, applying `action` the
    /// in-process way: `Stall` sleeps first, `Panic` panics inside the
    /// containment, `Lose` compiles and then drops the result (`None`).
    fn attempt(&self, (job, attempt, action): Attempt, track: TrackId) -> Option<(usize, Outcome)> {
        if action == ChaosAction::Stall {
            std::thread::sleep(self.stall_for);
        }
        let span = self.trace.span("worker", self.names[job], track);
        let t = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if action == ChaosAction::Panic {
                panic!("injected worker panic (job {job}, attempt {attempt})");
            }
            self.fetch_or_compile(job, track)
        }));
        span.finish();
        let outcome = match caught {
            Ok(Ok(cf)) => Outcome::Done(cf, t.elapsed()),
            Ok(Err(e)) => Outcome::Error(e),
            Err(payload) => Outcome::Crashed(panic_message(payload)),
        };
        (action != ChaosAction::Lose).then_some((job, outcome))
    }
}

// ---------------------------------------------------------------------------
// Inline: the caller's thread
// ---------------------------------------------------------------------------

/// The degenerate executor: attempts run on the caller's thread, in
/// dispatch order, as [`Executor::next`] asks for them. No thread, no
/// channel — and never a real wait: an attempt whose result is lost is
/// simply skipped, so `None` means the queue has run dry and whatever
/// has not delivered by then never will.
pub(crate) struct Inline<'a> {
    ctx: &'a Ctx<'a>,
    track: TrackId,
    queued: VecDeque<Attempt>,
}

impl<'a> Inline<'a> {
    pub(crate) fn new(ctx: &'a Ctx<'a>, track: TrackId) -> Inline<'a> {
        Inline {
            ctx,
            track,
            queued: VecDeque::new(),
        }
    }
}

impl Executor for Inline<'_> {
    fn dispatch(&mut self, job: usize, attempt: usize, action: ChaosAction) {
        self.queued.push_back((job, attempt, action));
    }

    fn next(&mut self, _timeout: Duration) -> Option<(usize, Outcome)> {
        while let Some(a) = self.queued.pop_front() {
            match self.ctx.attempt(a, self.track) {
                // The caller's own thread is not a worker that can be
                // lost: a panic nobody injected is a compiler bug and
                // would strike every re-run too, so it aborts the
                // build at once instead of being retried.
                Some((job, Outcome::Crashed(msg))) if a.2 != ChaosAction::Panic => {
                    return Some((job, Outcome::Error(CompileError::Worker(msg))));
                }
                Some(done) => return Some(done),
                None => {}
            }
        }
        None
    }

    fn quiesce(&mut self) {}

    fn alive(&self) -> usize {
        1
    }
}

// ---------------------------------------------------------------------------
// Threads: the work-stealing pool
// ---------------------------------------------------------------------------

/// The thread executor. Attempts dispatched before the first
/// [`Executor::next`] are the seed batch: they are dealt round-robin
/// onto the workers' own deques and the workers spawned — at most one
/// per seeded attempt. Everything dispatched later is a retry and goes
/// through the injector, to whoever is still running — or, when every
/// worker has gone home, to one started for it.
struct Threads<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    ctx: &'env Ctx<'env>,
    pool: &'env Pool<Attempt>,
    workers: usize,
    /// The seed batch until the pool starts; `None` once it runs.
    seeds: Option<Vec<Attempt>>,
    stealers: Arc<Vec<Stealer<Attempt>>>,
    tracks: Vec<TrackId>,
    done_tx: Sender<(usize, Outcome)>,
    done_rx: Receiver<(usize, Outcome)>,
}

impl Threads<'_, '_> {
    /// Starts worker `w` on `local`. Section masters are folded into
    /// the pool: each worker plays function master for successive
    /// functions.
    fn spawn(&self, w: usize, local: Worker<Attempt>) {
        let (ctx, pool, track) = (self.ctx, self.pool, self.tracks[w]);
        let (stealers, done_tx) = (self.stealers.clone(), self.done_tx.clone());
        self.scope.spawn(move || {
            worker_loop(w, &local, &stealers, pool, ctx.trace, track, |a| {
                if let Some(done) = ctx.attempt(a, track) {
                    let _ = done_tx.send(done);
                }
            });
        });
    }

    fn start(&mut self) {
        let Some(seeds) = self.seeds.take() else {
            return;
        };
        let size = self.workers.min(seeds.len()).max(1);
        self.tracks = worker_tracks(self.ctx.trace, size);
        self.pool.seeded(seeds.len(), size);
        let (locals, stealers) = seed(size, seeds, &self.tracks, self.ctx.trace);
        self.stealers = Arc::new(stealers);
        for (w, local) in locals.into_iter().enumerate() {
            self.spawn(w, local);
        }
    }
}

impl Executor for Threads<'_, '_> {
    fn dispatch(&mut self, job: usize, attempt: usize, action: ChaosAction) {
        match &mut self.seeds {
            Some(seeds) => seeds.push((job, attempt, action)),
            // Nobody home means nobody is `worker 0` any more either.
            None if self.pool.submit((job, attempt, action)) => self.spawn(0, Worker::new_fifo()),
            None => {}
        }
    }

    fn next(&mut self, timeout: Duration) -> Option<(usize, Outcome)> {
        self.start();
        self.done_rx.recv_timeout(timeout).ok()
    }

    fn quiesce(&mut self) {
        self.start();
        self.pool.wait_quiet();
    }

    fn alive(&self) -> usize {
        self.workers
    }
}

/// Runs `body` against a pool of up to `workers` compile threads and
/// joins it.
pub(crate) fn with_threads<R>(
    ctx: &Ctx<'_>,
    workers: usize,
    body: impl FnOnce(&mut dyn Executor) -> R,
) -> R {
    let pool = Pool::new();
    let (done_tx, done_rx) = channel();
    std::thread::scope(|scope| {
        body(&mut Threads {
            scope,
            ctx,
            pool: &pool,
            workers,
            seeds: Some(Vec::new()),
            stealers: Arc::default(),
            tracks: Vec::new(),
            done_tx,
            done_rx,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_retries_injected_panics_only() {
        let src = "module m; section s on cells 0..0; function f() begin end; end;";
        let (checked, _, _) = crate::driver::run_phase1(src).expect("phase 1");
        // Job 1 names a function that does not exist: compiling it is
        // a genuine (index) panic inside the compiler.
        let ctx = Ctx {
            checked: &checked,
            source: src,
            opts: &CompileOptions::default(),
            fns: &[(0, 0), (0, 9)],
            names: &["f", "ghost"],
            cache: None,
            inflight: None,
            keys: &[],
            options_fp: 0,
            trace: &Trace::disabled(),
            stall_for: Duration::ZERO,
        };
        let mut inline = Inline::new(&ctx, TrackId(0));
        inline.dispatch(0, 0, ChaosAction::Panic);
        inline.dispatch(1, 0, ChaosAction::None);
        let injected = inline.next(Duration::ZERO);
        assert!(matches!(injected, Some((0, Outcome::Crashed(_)))));
        let genuine = inline.next(Duration::ZERO);
        assert!(matches!(
            genuine,
            Some((1, Outcome::Error(CompileError::Worker(_))))
        ));
    }

    #[test]
    fn sched_instants_and_queue_counters_are_recorded() {
        let bodies: String = (0..32)
            .map(|i| format!("function f{i}() begin end; "))
            .collect();
        let src = format!("module m; section s on cells 0..0; {bodies}end;");
        let (checked, _, _) = crate::driver::run_phase1(&src).expect("phase 1");
        let fns: Vec<(usize, usize)> = (0..32).map(|fi| (0, fi)).collect();
        let names: Vec<String> = (0..32).map(|i| format!("f{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let trace = Trace::new(warp_obs::ClockDomain::Monotonic);
        let ctx = Ctx {
            checked: &checked,
            source: &src,
            opts: &CompileOptions::default(),
            fns: &fns,
            names: &names,
            cache: None,
            inflight: None,
            keys: &[],
            options_fp: 0,
            trace: &trace,
            stall_for: Duration::from_millis(2),
        };
        let delivered = with_threads(&ctx, 4, |ex| {
            for job in 0..32 {
                let action = if job % 4 == 0 {
                    ChaosAction::Stall
                } else {
                    ChaosAction::None
                };
                ex.dispatch(job, 0, action);
            }
            let mut delivered = 0;
            while let Some((_, outcome)) = ex.next(Duration::from_secs(10)) {
                assert!(matches!(outcome, Outcome::Done(..)));
                delivered += 1;
                if delivered == 32 {
                    break;
                }
            }
            ex.quiesce();
            delivered
        });
        assert_eq!(delivered, 32);
        let snap = trace.snapshot();
        assert!(
            snap.counters.iter().any(|c| c.name.starts_with("queue ")),
            "queue-depth counters recorded"
        );
        // Steal/idle instants are timing-dependent, but with stalled
        // jobs on a seeded share at least one worker must have gone
        // hunting or idle at some point.
        assert!(
            snap.instants.iter().any(|i| i.cat == "sched"),
            "sched instants recorded: {:?}",
            snap.instants
        );
    }
}
