//! The build pipeline — written once.
//!
//! The paper has one compiler organisation: a master that parses, farms
//! the functions out to function masters, and assembles what comes back
//! (§3.2). [`Build`] is that organisation as one request type and
//! [`Build::run`] is the only place its steps are sequenced:
//!
//! 1. **prepare** — phase 1, then the inline extension, on the master;
//! 2. **job list** — every function in source order, dispatched in LPT
//!    order of the a-priori cost estimates when there is more than one
//!    worker;
//! 3. **cache probe** — the master probes every key itself and keeps
//!    only the misses (skipped under cross-request dedup, where the
//!    probe must happen under the lease, on the worker);
//! 4. **execute** — the misses run on an `Executor` (the caller's
//!    thread, the thread pool, or the process farm) under the one
//!    recovery loop;
//! 5. **fallback** — whatever is still missing the master compiles
//!    itself, panics contained;
//! 6. **link** — phase 4, on the master;
//! 7. **verify** — the module-image check under `verify_each_pass`.
//!
//! `jobs` picks the dispatch order (source order or LPT) and the
//! executor of step 4; phases 1 and 4 are the same on every executor.
//! Beyond that the pipeline branches on whether there is a cache, on
//! whether there is an in-flight table, and on `track` — nothing else.
//! `DESIGN.md` ("The build pipeline") states the contract.

use crate::driver::{link_module_traced, prepare, CompileError, CompileOptions, CompileResult};
use crate::exec::{self, panic_message, probe, Ctx, Executor, Inline, Outcome};
use crate::farm::{self, FarmConfig};
use crate::fncache::{function_keys, options_fingerprint, CachedFunction, FnCache};
use crate::threads::{lpt_dispatch_order, ChaosAction, ChaosPlan, FaultStats, RetryPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use warp_cache::InFlight;
use warp_obs::{Trace, TrackId};

/// Where builds that ask for no tracing record nothing.
static UNTRACED: Trace = Trace::disabled();

/// One build request: what to compile and how to run it. Fill in what
/// differs from [`Build::new`] and call [`Build::run`].
#[derive(Clone, Copy)]
pub struct Build<'a> {
    /// The module source.
    pub source: &'a str,
    /// Compilation options.
    pub opts: &'a CompileOptions,
    /// The width of the compile pool (phases 2 and 3): `<= 1` compiles
    /// the functions on the caller's thread in source order; more
    /// compiles them on that many worker threads in LPT order. Phases
    /// 1 and 4 run on the master either way.
    pub jobs: usize,
    /// Compile the functions on a farm of `warpd-worker` processes
    /// instead of in this process.
    pub farm: Option<&'a FarmConfig>,
    /// The incremental function cache; a farm build without one opens
    /// [`FarmConfig::cache_dir`] (or a private scratch store).
    pub cache: Option<&'a FnCache>,
    /// Cross-request dedup over a shared `cache` (the `warpd` request
    /// path): every probe happens under a lease on the function's key,
    /// so N concurrent builds of one key compile it once. Ignored by
    /// farm builds — their workers are other processes and meet in the
    /// shared store instead.
    pub inflight: Option<&'a InFlight>,
    /// Where spans are recorded.
    pub trace: &'a Trace,
    /// Put the driver's spans — and with `jobs <= 1` the worker and
    /// cache spans too — on this track instead of `driver`/`worker 0`,
    /// so a `warpd` request decomposes on its own trace row.
    pub track: Option<TrackId>,
    /// Seeded fault injection and the detection/recovery policy it is
    /// survived with. `None` injects nothing and recovers with
    /// [`RetryPolicy::default`].
    pub faults: Option<(&'a ChaosPlan, &'a RetryPolicy)>,
}

/// The worker processes of a farm build.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmCensus {
    /// The build's own scratch directory (socket, private store) —
    /// gone by the time the build returns.
    pub scratch_dir: PathBuf,
    /// OS pids of every worker spawned (tests use these to prove no
    /// process outlives the build).
    pub pids: Vec<u32>,
    /// Worker processes that connected and passed the handshake (0 when
    /// every job hit the cache: no process is started at all).
    pub spawned: usize,
    /// Workers lost mid-build (killed, exited, or hung up).
    pub lost: usize,
    /// Results that travelled as a content hash (object read from the
    /// shared store).
    pub hash_shipped: usize,
    /// Results that travelled as hex object bytes in the frame.
    pub bytes_shipped: usize,
}

/// What one build did: timings, faults survived, and for a farm build
/// the worker census.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildReport {
    /// Total wall time.
    pub wall: Duration,
    /// Phase-1 wall time (including the inline extension).
    pub phase1_wall: Duration,
    /// Wall time of the compile stage: probe, execute, fallback.
    pub compile_wall: Duration,
    /// Link (and module verify) wall time.
    pub link_wall: Duration,
    /// Per-function wall time, in source order: the compile on its
    /// worker, or the probe for a function the master found cached.
    pub per_function: Vec<(String, Duration)>,
    /// The build's `jobs`.
    pub workers: usize,
    /// Functions the master's pre-probe found in the cache.
    pub cache_hits: usize,
    /// Faults observed and recoveries performed.
    pub faults: FaultStats,
    /// The worker processes, for a farm build.
    pub farm: Option<FarmCensus>,
}

impl<'a> Build<'a> {
    /// The sequential compiler over `source`: one job, no farm, no
    /// cache, no tracing, no faults.
    pub fn new(source: &'a str, opts: &'a CompileOptions) -> Build<'a> {
        Build {
            source,
            opts,
            jobs: 1,
            farm: None,
            cache: None,
            inflight: None,
            trace: &UNTRACED,
            track: None,
            faults: None,
        }
    }

    /// Runs the pipeline (see the [module docs](self)). The output is
    /// byte-identical whatever the executor, the cache temperature and
    /// the injected faults.
    ///
    /// # Errors
    ///
    /// The first error of any phase; injected faults are recovered, not
    /// propagated. [`CompileError::Worker`] for failures outside the
    /// compiler proper (no farm worker connected, a panic during the
    /// in-master fallback).
    pub fn run(&self) -> Result<(CompileResult, BuildReport), CompileError> {
        let t0 = Instant::now();
        let (source, opts, trace) = (self.source, self.opts, self.trace);
        let jobs = self.jobs.max(1);
        let home = self
            .farm
            .map(|cfg| farm::Home::open(cfg, self.cache.is_none()))
            .transpose()?;
        let driver = self.track.unwrap_or_else(|| {
            trace.track(if home.is_some() {
                "farm coordinator"
            } else {
                "driver"
            })
        });
        let _whole = home
            .as_ref()
            .map(|_| trace.span("farm", "farm build", driver));

        // 1. Prepare.
        let (checked, phase1_units, warnings) = prepare(source, opts, trace, driver)?;
        let phase1_wall = t0.elapsed();

        // 2. The job list, in source order (== record order). With
        // more than one worker the dispatch order is LPT over the
        // a-priori cost estimates the load balancer would use (§4.3 —
        // available *before* compilation, from the AST alone).
        let sections = &checked.module.sections;
        let fns: Vec<(usize, usize)> = sections
            .iter()
            .enumerate()
            .flat_map(|(si, s)| (0..s.functions.len()).map(move |fi| (si, fi)))
            .collect();
        let names: Vec<&str> = fns
            .iter()
            .map(|&(si, fi)| sections[si].functions[fi].name.as_str())
            .collect();
        let mut todo: Vec<usize> = if jobs <= 1 {
            (0..fns.len()).collect()
        } else {
            lpt_dispatch_order(fns.iter().map(|&(si, fi)| {
                warp_workload::cost_estimate_of(&sections[si].functions[fi], source)
            }))
        };

        // 3. The cache probe. The master probes itself: hits bypass
        // the executor entirely, only misses are dispatched.
        let tc = Instant::now();
        let cache = self
            .cache
            .or_else(|| home.as_ref().and_then(|h| h.store.as_ref()));
        let inflight = self.inflight.filter(|_| home.is_none());
        let options_fp = cache.map_or(0, |_| options_fingerprint(opts));
        let mut slots = vec![None; fns.len()];
        let mut keys = Vec::new();
        if let (Some(cache), None) = (cache, inflight) {
            keys = function_keys(&checked, source, &fns, options_fp);
            todo.retain(|&j| {
                let t = Instant::now();
                slots[j] =
                    probe(cache, keys[j], names[j], trace, driver).map(|cf| (cf, t.elapsed()));
                slots[j].is_none()
            });
        }
        let cache_hits = fns.len() - todo.len();

        // 4. Execute the misses under the recovery loop. A build with
        // no misses starts no thread, channel or process.
        let compile_span = trace.span("driver", "compile", driver);
        let ctx = Ctx {
            checked: &checked,
            source,
            opts,
            fns: &fns,
            names: &names,
            cache,
            inflight,
            keys: &keys,
            options_fp,
            trace,
            stall_for: self.faults.map_or(Duration::ZERO, |(c, _)| c.stall_for),
        };
        let mut stage = Stage {
            names: &names,
            slots,
            stats: FaultStats::default(),
            trace,
            track: driver,
        };
        let mut census = home.as_ref().map(|h| FarmCensus {
            scratch_dir: h.dir.clone(),
            ..FarmCensus::default()
        });
        if !todo.is_empty() {
            let default_policy = RetryPolicy::default();
            let (chaos, policy) = match self.faults {
                Some((chaos, policy)) => (Some(chaos), policy),
                None => (None, &default_policy),
            };
            let mut drive = |exec: &mut dyn Executor| stage.recover(exec, &todo, chaos, policy);
            match (self.farm, &home, &mut census) {
                (Some(cfg), Some(home), Some(census)) => {
                    farm::with_farm(cfg, home, &ctx, policy.job_timeout, driver, census, drive)??
                }
                _ if jobs <= 1 => {
                    let track = self.track.unwrap_or_else(|| trace.track("worker 0"));
                    drive(&mut Inline::new(&ctx, track))?;
                }
                _ => exec::with_threads(&ctx, jobs, driver, drive)?,
            }
        }

        // 5. The in-master fallback for whatever is still missing.
        stage.fall_back(&todo, |j| ctx.fetch_or_compile(j, driver))?;
        compile_span.finish();
        let compile_wall = tc.elapsed();

        // 6. Link.
        let tl = Instant::now();
        let mut images = Vec::with_capacity(fns.len());
        let mut records = Vec::with_capacity(fns.len());
        let mut per_function = Vec::with_capacity(fns.len());
        // Every job was filled by the probe, a worker, a late drain or
        // the fallback.
        for (cf, dt) in stage.slots.into_iter().flatten() {
            per_function.push((cf.record.name.clone(), dt));
            images.push(cf.image);
            records.push(cf.record);
        }
        let (module_image, link_units) = link_module_traced(&checked, images, opts, trace, driver)?;

        // 7. Verify the linked module.
        if opts.verify_each_pass {
            let errs =
                warp_analyze::verify_module_image_traced(&module_image, &opts.cell, trace, driver);
            if !errs.is_empty() {
                return Err(CompileError::MachineVerify(errs));
            }
        }
        let link_wall = tl.elapsed();

        Ok((
            CompileResult {
                module_image,
                records,
                phase1_units,
                link_units,
                warnings,
            },
            BuildReport {
                wall: t0.elapsed(),
                phase1_wall,
                compile_wall,
                link_wall,
                per_function,
                workers: jobs,
                cache_hits,
                faults: stage.stats,
                farm: census,
            },
        ))
    }
}

/// The compile stage's state, shared by steps 4 and 5: one slot per
/// job (source order) for its object and wall time, the fault counters,
/// and where recovery events are traced.
struct Stage<'a> {
    names: &'a [&'a str],
    slots: Vec<Option<(CachedFunction, Duration)>>,
    stats: FaultStats,
    trace: &'a Trace,
    track: TrackId,
}

/// Per-job state of the recovery loop.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Dispatches so far — so also the next attempt number: the 0,1,2…
    /// sequence every [`ChaosPlan::decide`] draw is keyed on.
    attempts: usize,
    /// An attempt is out and has neither delivered nor been declared
    /// lost.
    in_flight: bool,
}

impl Stage<'_> {
    /// The recovery loop: dispatches `todo` (source-order job indices,
    /// in dispatch order) on `exec` and collects results one event at a
    /// time under the per-job timeout, filling the slots. A crashed
    /// attempt is re-dispatched at once; silence past the timeout makes
    /// the master [`Executor::quiesce`] the executor and drain every
    /// late result before anything is declared lost; retries wait out a
    /// bounded exponential backoff while the workers keep going. Jobs
    /// that run out of attempts — or are still out when every worker is
    /// dead — are left empty for [`Stage::fall_back`].
    ///
    /// # Errors
    ///
    /// The first deterministic compile error any attempt reports;
    /// nothing more is dispatched after it.
    fn recover(
        &mut self,
        exec: &mut dyn Executor,
        todo: &[usize],
        chaos: Option<&ChaosPlan>,
        policy: &RetryPolicy,
    ) -> Result<(), CompileError> {
        let (trace, track) = (self.trace, self.track);
        let mut tally = vec![Tally::default(); self.slots.len()];
        let mut outstanding = 0usize;
        let dispatch = |exec: &mut dyn Executor, tally: &mut [Tally], j: usize| {
            let attempt = tally[j].attempts;
            let action = chaos.map_or(ChaosAction::None, |c| c.decide(j, attempt));
            tally[j] = Tally {
                attempts: attempt + 1,
                in_flight: true,
            };
            exec.dispatch(j, attempt, action);
        };
        for &j in todo {
            dispatch(exec, &mut tally, j);
            outstanding += 1;
        }

        while outstanding > 0 {
            // With every worker dead there is nobody to wait for: only
            // what is already there is collected.
            let staffed = exec.alive() > 0;
            let mut event = exec.next(policy.job_timeout * u32::from(staffed));
            let timed_out = event.is_none();
            if timed_out {
                if !staffed {
                    // The rest falls back, without waiting out a timeout.
                    break;
                }
                self.stats.timeouts += 1;
                let what = format!("timeout ({outstanding} jobs outstanding)");
                trace.instant_now("fault", what, track);
                // Let stragglers finish, keep every late result, and
                // only then call the rest lost.
                exec.quiesce();
                event = exec.next(Duration::ZERO);
            }
            let mut to_retry: Vec<usize> = Vec::new();
            while let Some((j, outcome)) = event {
                if tally[j].in_flight {
                    tally[j].in_flight = false;
                    outstanding -= 1;
                }
                match outcome {
                    Outcome::Done(cf, dt) => {
                        self.slots[j].get_or_insert((cf, dt));
                    }
                    Outcome::Error(e) => return Err(e),
                    Outcome::Crashed(msg) => {
                        self.stats.crashes += 1;
                        trace.instant_now("fault", format!("panic (job {j}): {msg}"), track);
                        if tally[j].attempts < policy.max_attempts {
                            to_retry.push(j);
                        }
                    }
                }
                // Normally one event per turn; after a timeout,
                // everything that made it before the executor went quiet.
                event = timed_out.then(|| exec.next(Duration::ZERO)).flatten();
            }
            if timed_out {
                for (j, t) in tally.iter_mut().enumerate().filter(|(_, t)| t.in_flight) {
                    self.stats.lost += 1;
                    t.in_flight = false;
                    outstanding -= 1;
                    if t.attempts < policy.max_attempts {
                        to_retry.push(j);
                    }
                }
            }
            if to_retry.is_empty() || exec.alive() == 0 {
                continue;
            }
            // Re-dispatch with bounded exponential backoff; the workers
            // keep compiling other jobs while the master sleeps.
            self.stats.retries += to_retry.len();
            for &j in &to_retry {
                let (name, attempt) = (self.names[j], tally[j].attempts);
                let what = format!("retry {name} (attempt {attempt}, job {j})");
                trace.instant_now("retry", what, track);
            }
            let worst = to_retry.iter().map(|&j| tally[j].attempts).max();
            let shift = (worst.unwrap_or(1) - 1).min(16) as u32;
            let backoff = policy.backoff.saturating_mul(1u32 << shift);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            for &j in &to_retry {
                dispatch(exec, &mut tally, j);
                outstanding += 1;
            }
        }
        Ok(())
    }

    /// The in-master fallback: every job of `todo` still without a
    /// result is compiled by `compile` on the calling thread,
    /// sequentially. Injected chaos does not apply here (the master's
    /// own machine is the one host the paper assumes works), so this
    /// always terminates; a genuine panic inside the compiler is
    /// contained and surfaced as a diagnostic.
    ///
    /// # Errors
    ///
    /// The first compile error, or [`CompileError::Worker`] for a panic.
    fn fall_back(
        &mut self,
        todo: &[usize],
        compile: impl Fn(usize) -> Result<CachedFunction, CompileError>,
    ) -> Result<(), CompileError> {
        for &j in todo {
            if self.slots[j].is_some() {
                continue;
            }
            self.stats.fallbacks += 1;
            let name = self.names[j];
            let what = format!("fallback {name} (job {j})");
            self.trace.instant_now("retry", what, self.track);
            let t = Instant::now();
            let cf = catch_unwind(AssertUnwindSafe(|| compile(j))).map_err(|payload| {
                CompileError::Worker(format!(
                    "function `{name}` panicked during in-master fallback compilation: {}",
                    panic_message(payload)
                ))
            })??;
            self.slots[j] = Some((cf, t.elapsed()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A scripted executor: every attempt ends the way its
    /// [`ChaosAction`] says (`Panic` crashes, `Lose` is never heard of
    /// again, `Stall` delivers only once quiesced), except that
    /// attempts of `broken` report a compile error.
    struct Fake {
        object: CachedFunction,
        ready: VecDeque<(usize, Outcome)>,
        late: Vec<(usize, Outcome)>,
        broken: Option<usize>,
        alive: usize,
        dispatched: Vec<(usize, usize)>,
        quiesced: usize,
        longest_wait: Duration,
    }

    impl Executor for Fake {
        fn dispatch(&mut self, job: usize, attempt: usize, action: ChaosAction) {
            self.dispatched.push((job, attempt));
            let done = Outcome::Done(self.object.clone(), Duration::ZERO);
            match action {
                _ if self.broken == Some(job) => {
                    let e = CompileError::Worker("broken".into());
                    self.ready.push_back((job, Outcome::Error(e)));
                }
                ChaosAction::None => self.ready.push_back((job, done)),
                ChaosAction::Panic => self.ready.push_back((job, Outcome::Crashed("boom".into()))),
                ChaosAction::Lose => {}
                ChaosAction::Stall => self.late.push((job, done)),
            }
        }
        fn next(&mut self, timeout: Duration) -> Option<(usize, Outcome)> {
            self.longest_wait = self.longest_wait.max(timeout);
            self.ready.pop_front()
        }
        fn quiesce(&mut self) {
            self.quiesced += 1;
            self.ready.extend(self.late.drain(..));
        }
        fn alive(&self) -> usize {
            self.alive
        }
    }

    const JOBS: usize = 3;
    const NAMES: [&str; JOBS] = ["f0", "f1", "f2"];

    fn stage() -> Stage<'static> {
        Stage {
            names: &NAMES,
            slots: vec![None; JOBS],
            stats: FaultStats::default(),
            trace: &UNTRACED,
            track: TrackId(0),
        }
    }

    /// Drives the recovery loop over `JOBS` jobs on a fresh [`Fake`].
    fn drive(
        chaos: &ChaosPlan,
        max_attempts: usize,
        setup: impl FnOnce(&mut Fake),
    ) -> (Result<(), CompileError>, Fake, Stage<'static>) {
        let src = "module m; section s on cells 0..0; function f() begin end; end;";
        let opts = CompileOptions::default();
        let (checked, _, _) = crate::driver::run_phase1(src).expect("phase 1");
        let (image, record) =
            crate::driver::compile_function(&checked, src, 0, 0, &opts).expect("compile");
        let mut fake = Fake {
            object: CachedFunction { image, record },
            ready: VecDeque::new(),
            late: Vec::new(),
            broken: None,
            alive: 2,
            dispatched: Vec::new(),
            quiesced: 0,
            longest_wait: Duration::ZERO,
        };
        setup(&mut fake);
        let policy = RetryPolicy::fast(Duration::from_secs(60), max_attempts);
        let mut stage = stage();
        let todo: Vec<usize> = (0..JOBS).collect();
        let r = stage.recover(&mut fake, &todo, Some(chaos), &policy);
        (r, fake, stage)
    }

    #[test]
    fn a_crashed_attempt_is_retried_once() {
        let (r, fake, stage) = drive(&ChaosPlan::crash_one(1), 3, |_| {});
        r.expect("recovered");
        assert_eq!(fake.dispatched, [(0, 0), (1, 0), (2, 0), (1, 1)]);
        assert!(stage.slots.iter().all(Option::is_some));
        let expected = FaultStats {
            crashes: 1,
            retries: 1,
            ..FaultStats::default()
        };
        assert_eq!(stage.stats, expected);
    }

    #[test]
    fn a_late_result_is_kept_not_recompiled() {
        let chaos = ChaosPlan::stall_one(1, Duration::ZERO);
        let (r, fake, stage) = drive(&chaos, 3, |_| {});
        r.expect("recovered");
        assert_eq!(fake.quiesced, 1, "silence makes the master quiesce");
        assert_eq!(fake.dispatched.len(), JOBS, "nothing is dispatched twice");
        assert!(stage.slots.iter().all(Option::is_some));
        let expected = FaultStats {
            timeouts: 1,
            ..FaultStats::default()
        };
        assert_eq!(stage.stats, expected);
    }

    #[test]
    fn silence_with_nothing_late_is_counted_lost_and_retried() {
        let (r, fake, stage) = drive(&ChaosPlan::lose_one(2), 3, |_| {});
        r.expect("recovered");
        assert_eq!(fake.dispatched.last(), Some(&(2, 1)));
        assert!(stage.slots.iter().all(Option::is_some));
        let expected = FaultStats {
            lost: 1,
            timeouts: 1,
            retries: 1,
            ..FaultStats::default()
        };
        assert_eq!(stage.stats, expected);
    }

    #[test]
    fn an_exhausted_budget_leaves_the_job_to_the_fallback() {
        let chaos = ChaosPlan {
            first_attempt_only: false,
            ..ChaosPlan::crash_one(0)
        };
        let (r, fake, mut stage) = drive(&chaos, 2, |_| {});
        r.expect("the loop gives up quietly");
        assert_eq!(fake.dispatched, [(0, 0), (1, 0), (2, 0), (0, 1)]);
        assert_eq!((stage.stats.crashes, stage.stats.retries), (2, 1));
        let filled: Vec<bool> = stage.slots.iter().map(Option::is_some).collect();
        assert_eq!(filled, [false, true, true]);

        let object = fake.object.clone();
        let compiled = std::cell::Cell::new(0);
        stage
            .fall_back(&[0, 1, 2], |j| {
                compiled.set(compiled.get() + 1);
                assert_eq!(j, 0, "only the missing job is compiled");
                Ok(object.clone())
            })
            .expect("fallback");
        assert_eq!((compiled.get(), stage.stats.fallbacks), (1, 1));
        assert!(stage.slots[0].is_some());
    }

    #[test]
    fn a_dead_farm_falls_back_without_waiting_out_a_timeout() {
        let chaos = ChaosPlan {
            lose_prob: 1.0,
            ..ChaosPlan::default()
        };
        let (r, fake, stage) = drive(&chaos, 3, |f| f.alive = 0);
        r.expect("nothing to wait for");
        assert_eq!(fake.longest_wait, Duration::ZERO, "never a timed wait");
        assert_eq!(fake.dispatched.len(), JOBS, "and no retries into the void");
        assert!(stage.slots.iter().all(Option::is_none));
        assert!(stage.stats.is_quiet(), "{:?}", stage.stats);
    }

    #[test]
    fn a_compile_error_aborts_the_build_and_dispatches_nothing_more() {
        let (r, fake, stage) = drive(&ChaosPlan::crash_one(1), 3, |f| f.broken = Some(0));
        assert!(matches!(r, Err(CompileError::Worker(m)) if m == "broken"));
        assert_eq!(
            fake.dispatched.len(),
            JOBS,
            "the crashed job 1 is not retried"
        );
        assert_eq!(stage.stats.retries, 0);
    }

    #[test]
    fn a_fallback_panic_is_a_diagnostic_not_an_unwind() {
        let r = stage().fall_back(&[0], |_| panic!("compiler bug"));
        match r {
            Err(CompileError::Worker(msg)) => {
                assert!(
                    msg.contains("`f0` panicked during in-master fallback"),
                    "{msg}"
                );
                assert!(msg.contains("compiler bug"), "{msg}");
            }
            other => panic!("expected a Worker error, got {other:?}"),
        }
    }
}
