//! The job queue and the in-process executors.
//!
//! The compile stage (phases 2 and 3) is the only stage that runs in
//! parallel; phases 1 and 4 run on the master. Its attempts go through
//! one [`JobQueue`]: the pipeline pushes them in dispatch (LPT) order,
//! and every taker — a compile thread here, a farm connection in
//! [`crate::farm`] — blocks for the head, first come, first served, the
//! paper's master handing functions to function masters (§4.3). A
//! retry is one more push, taken by whichever taker is free first.
//!
//! [`with_threads`] runs the compile stage on threads that pull from
//! that queue the way farm connections do: a thread is spawned at most
//! once per slot, holds one attempt at a time, and blocks in
//! [`JobQueue::take`] until the queue is closed at the end of the build.
//!
//! [`Executor`] is the whole interface between the build pipeline's
//! recovery loop ([`crate::build`]) and whatever runs the compiles:
//! [`Inline`] (the caller's thread), the thread pool here, or the
//! process farm in [`crate::farm`].
//!
//! # Observability
//!
//! With an enabled [`Trace`] the queue samples a **`queue`** counter —
//! its depth — on the build's driver track at every push and take, and
//! when a farm that timed out drops what is left (`docs/TRACING.md`).

use crate::driver::{compile_function_traced, CompileError, CompileOptions};
use crate::fncache::{function_key, CachedFunction, FnCache};
use crate::threads::ChaosAction;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::Scope;
use std::time::{Duration, Instant};
use warp_cache::{CacheKey, InFlight};
use warp_lang::CheckedModule;
use warp_obs::{Trace, TrackId};

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
// The job queue
// ---------------------------------------------------------------------------

struct QueueState {
    /// Attempts dispatched and not yet taken by a slot.
    queue: VecDeque<Attempt>,
    /// Per slot: is it holding an attempt right now?
    holding: Vec<bool>,
    /// Slots whose worker can still take an attempt.
    alive: usize,
    /// Set once the build is over; every `take` answers `None`.
    shutdown: bool,
}

/// The one queue both parallel executors pull from. The pipeline's
/// thread pushes attempts; each of the queue's slots (a compile thread,
/// a farm connection) takes the head, holds it until it has delivered
/// the outcome, and releases it.
pub(crate) struct JobQueue<'a> {
    st: Mutex<QueueState>,
    /// Signalled on every change: push, take, release, lose, close.
    cv: Condvar,
    trace: &'a Trace,
    /// The build's driver track, where the `queue` counter lives.
    track: TrackId,
}

impl<'a> JobQueue<'a> {
    /// An open, empty queue with `slots` takers, all alive.
    pub(crate) fn new(slots: usize, trace: &'a Trace, track: TrackId) -> JobQueue<'a> {
        JobQueue {
            st: Mutex::new(QueueState {
                queue: VecDeque::new(),
                holding: vec![false; slots],
                alive: slots,
                shutdown: false,
            }),
            cv: Condvar::new(),
            trace,
            track,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.st.lock().expect("queue lock")
    }

    /// Samples the `queue` counter. Called under the lock, so the
    /// samples come in the order of the changes they record.
    fn sample(&self, st: &QueueState) {
        let depth = st.queue.len() as f64;
        self.trace
            .counter("queue", self.track, self.trace.now_ns(), depth);
    }

    pub(crate) fn push(&self, attempt: Attempt) {
        let mut st = self.lock();
        st.queue.push_back(attempt);
        self.sample(&st);
        self.cv.notify_all();
    }

    /// Blocks slot `k` until there is an attempt for it; `None` once
    /// the queue is closed.
    pub(crate) fn take(&self, k: usize) -> Option<Attempt> {
        let mut st = self.lock();
        loop {
            if st.shutdown {
                return None;
            }
            if let Some(attempt) = st.queue.pop_front() {
                st.holding[k] = true;
                self.sample(&st);
                return Some(attempt);
            }
            st = self.cv.wait(st).expect("queue lock");
        }
    }

    /// Slot `k` is done with its attempt — the outcome is already in
    /// the channel, so an idle queue has nothing left to deliver.
    pub(crate) fn release(&self, k: usize) {
        self.lock().holding[k] = false;
        self.cv.notify_all();
    }

    /// A slot's worker is lost: it takes no further attempt.
    pub(crate) fn lose(&self) {
        self.lock().alive -= 1;
        self.cv.notify_all();
    }

    /// Slots whose worker can still take an attempt.
    pub(crate) fn alive(&self) -> usize {
        self.lock().alive
    }

    /// Ends the build: every blocked and every later `take` answers
    /// `None`.
    pub(crate) fn close(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
    }

    /// Drops every attempt no slot has taken and returns the slots
    /// still holding one.
    pub(crate) fn abandon(&self) -> Vec<usize> {
        let mut st = self.lock();
        if !st.queue.is_empty() {
            st.queue.clear();
            self.sample(&st);
        }
        (0..st.holding.len()).filter(|&k| st.holding[k]).collect()
    }

    /// Blocks until the queue is idle — empty (or with nobody alive to
    /// take what is left) and no slot holding an attempt — or until
    /// `deadline` passes; `false` then.
    pub(crate) fn wait_idle(&self, deadline: Option<Instant>) -> bool {
        let mut st = self.lock();
        while st.holding.contains(&true) || (!st.queue.is_empty() && st.alive > 0) {
            st = match deadline {
                None => self.cv.wait(st).expect("queue lock"),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    self.cv.wait_timeout(st, left).expect("queue lock").0
                }
            };
        }
        true
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
// Threads: compile threads on the job queue
// ---------------------------------------------------------------------------

/// The thread executor. Every dispatch pushes the attempt onto the
/// queue and, while fewer than `jobs` threads exist, starts one more on
/// track `worker k`: a build starts at most one thread per dispatched
/// attempt, and a fully warm build starts none. Section masters are
/// folded into the pool: each thread plays function master for
/// successive functions.
struct Threads<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    ctx: &'env Ctx<'env>,
    queue: &'env JobQueue<'env>,
    jobs: usize,
    spawned: usize,
    done_tx: Sender<(usize, Outcome)>,
    done_rx: Receiver<(usize, Outcome)>,
}

impl Executor for Threads<'_, '_> {
    fn dispatch(&mut self, job: usize, attempt: usize, action: ChaosAction) {
        self.queue.push((job, attempt, action));
        if self.spawned == self.jobs {
            return;
        }
        let (k, ctx, queue, done_tx) = (self.spawned, self.ctx, self.queue, self.done_tx.clone());
        let track = ctx.trace.track(&format!("worker {k}"));
        self.scope.spawn(move || {
            while let Some(a) = queue.take(k) {
                if let Some(done) = ctx.attempt(a, track) {
                    let _ = done_tx.send(done);
                }
                queue.release(k);
            }
        });
        self.spawned += 1;
    }

    fn next(&mut self, timeout: Duration) -> Option<(usize, Outcome)> {
        self.done_rx.recv_timeout(timeout).ok()
    }

    /// A stalled thread always wakes, so waiting without a deadline
    /// cannot hang.
    fn quiesce(&mut self) {
        self.queue.wait_idle(None);
    }

    fn alive(&self) -> usize {
        self.queue.alive()
    }
}

impl Drop for Threads<'_, '_> {
    /// Closes the queue once `body` is done with the executor, so the
    /// scope can join the threads — even when `body` panicked.
    fn drop(&mut self) {
        self.queue.close();
    }
}

/// Runs `body` against up to `jobs` compile threads pulling from one
/// [`JobQueue`] whose `queue` counter lands on `track`, and joins them.
pub(crate) fn with_threads<R>(
    ctx: &Ctx<'_>,
    jobs: usize,
    track: TrackId,
    body: impl FnOnce(&mut dyn Executor) -> R,
) -> R {
    let queue = JobQueue::new(jobs, ctx.trace, track);
    let (done_tx, done_rx) = channel();
    std::thread::scope(|scope| {
        body(&mut Threads {
            scope,
            ctx,
            queue: &queue,
            jobs,
            spawned: 0,
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

    fn attempt(job: usize) -> Attempt {
        (job, 0, ChaosAction::None)
    }

    fn soon() -> Option<Instant> {
        Some(Instant::now() + Duration::from_millis(50))
    }

    #[test]
    fn take_returns_attempts_in_push_order() {
        let trace = Trace::disabled();
        let queue = JobQueue::new(1, &trace, TrackId(0));
        for job in 0..4 {
            queue.push(attempt(job));
        }
        for job in 0..4 {
            assert_eq!(queue.take(0), Some(attempt(job)));
            queue.release(0);
        }
    }

    #[test]
    fn a_late_push_is_taken_by_a_blocked_slot() {
        let trace = Trace::disabled();
        let queue = JobQueue::new(2, &trace, TrackId(0));
        queue.push(attempt(0));
        queue.push(attempt(1));
        let (tx, rx) = channel();
        std::thread::scope(|scope| {
            for k in 0..2 {
                let (queue, tx) = (&queue, tx.clone());
                scope.spawn(move || {
                    while let Some((job, ..)) = queue.take(k) {
                        tx.send(job).expect("send");
                        queue.release(k);
                    }
                });
            }
            let mut first = [rx.recv().expect("job"), rx.recv().expect("job")];
            first.sort_unstable();
            assert_eq!(first, [0, 1]);
            // Both slots drained the first batch and hold nothing: the
            // retry below can only reach one blocked in `take`.
            assert!(queue.wait_idle(None));
            queue.push(attempt(2));
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(2));
            queue.close();
        });
    }

    #[test]
    fn close_wakes_every_blocked_take() {
        let trace = Trace::disabled();
        let queue = JobQueue::new(3, &trace, TrackId(0));
        std::thread::scope(|scope| {
            let takers: Vec<_> = (0..3)
                .map(|k| {
                    let queue = &queue;
                    scope.spawn(move || queue.take(k))
                })
                .collect();
            std::thread::sleep(Duration::from_millis(10));
            queue.close();
            for taker in takers {
                assert_eq!(taker.join().expect("taker"), None);
            }
        });
    }

    #[test]
    fn a_held_attempt_keeps_the_queue_busy_until_released() {
        let trace = Trace::disabled();
        let queue = JobQueue::new(1, &trace, TrackId(0));
        queue.push(attempt(0));
        assert_eq!(queue.take(0), Some(attempt(0)));
        assert!(!queue.wait_idle(soon()));
        queue.release(0);
        assert!(queue.wait_idle(soon()));
    }

    #[test]
    fn a_queue_nobody_alive_can_take_from_is_idle() {
        let trace = Trace::disabled();
        let queue = JobQueue::new(2, &trace, TrackId(0));
        queue.push(attempt(0));
        assert!(!queue.wait_idle(soon()));
        queue.lose();
        queue.lose();
        assert_eq!(queue.alive(), 0);
        assert!(queue.wait_idle(None));
    }
}
