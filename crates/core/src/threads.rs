//! Real parallel compilation with OS threads pulling from one job
//! queue, and the fault model shared by every executor.
//!
//! The same master / section-master / function-master structure as the
//! simulated 1989 system, executed with actual parallelism on the host
//! machine. As in the paper, phases 1 and 4 run on the master and
//! phases 2–3 run one function at a time per compile thread —
//! bit-identical to the sequential compiler.
//!
//! [`compile_parallel`] and [`compile_parallel_cached`] are
//! constructors over [`crate::build::Build`], which runs the one
//! pipeline on the thread executor (`exec.rs`) when `jobs >= 2`
//! (`docs/PARALLELISM.md`). Its threads take attempts first come,
//! first served from the same queue the farm's connections take from.
//!
//! Jobs are dispatched in decreasing a-priori cost estimate (LoC ×
//! nesting, §4.3) rather than source order ([`lpt_dispatch_order`]),
//! so the largest function starts compiling first and can never be the
//! one job left running after every other worker drained the queue.
//!
//! # Fault tolerance
//!
//! The paper's build farm loses workers routinely — a diskless SUN
//! reboots, swaps itself to death, or falls off the Ethernet mid-build
//! — so the master never trusts a dispatched job to come back. What it
//! does about it is the pipeline's recovery loop
//! ([`crate::build`], `DESIGN.md` "The build pipeline"); this module
//! holds the vocabulary: the detection/recovery knobs
//! ([`RetryPolicy`]), the seeded, per-job, per-attempt injection plan
//! ([`ChaosPlan`]) that the chaos-matrix CI job and the tests use to
//! exercise every failure mode, and the counters a build reports
//! ([`FaultStats`]). Production builds pass no plan and pay only a
//! timed receive per result for the machinery. The policy knobs and
//! semantics are documented in `docs/FAULTS.md`.

use crate::build::{Build, BuildReport};
use crate::driver::{CompileError, CompileOptions, CompileResult};
use crate::fncache::FnCache;
use std::time::Duration;

/// Fault and recovery counters for one build, whatever ran it (all
/// zeros on a healthy run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Attempts whose worker died under them: a thread panic contained
    /// by `catch_unwind`, or a farm worker process that was killed,
    /// exited or hung up while holding the attempt.
    pub crashes: usize,
    /// Attempts whose result never arrived (lost message, wedged
    /// worker) — declared only after the executor went quiet.
    pub lost: usize,
    /// Times the master waited a whole [`RetryPolicy::job_timeout`]
    /// without hearing anything.
    pub timeouts: usize,
    /// Attempts re-dispatched after a crash or a loss.
    pub retries: usize,
    /// Jobs the master compiled itself after the attempt budget ran
    /// out or every worker died.
    pub fallbacks: usize,
}

impl FaultStats {
    /// `true` when no fault was observed and no recovery was needed.
    pub fn is_quiet(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// How the master detects and recovers from lost work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long the master waits for *some* result before declaring
    /// the outstanding jobs of the round lost.
    pub job_timeout: Duration,
    /// Dispatch attempts per job (1 = no retries) before the master
    /// falls back to compiling the job itself.
    pub max_attempts: usize,
    /// Base delay before a retry round; doubles each further round.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Generous defaults: a healthy build never times out, and a
        // genuinely wedged worker costs three 30 s windows before the
        // master takes the work back.
        RetryPolicy {
            job_timeout: Duration::from_secs(30),
            max_attempts: 3,
            backoff: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// A tight policy for tests and chaos runs: `timeout` per job,
    /// `max_attempts` rounds, 1 ms backoff.
    pub fn fast(timeout: Duration, max_attempts: usize) -> RetryPolicy {
        RetryPolicy {
            job_timeout: timeout,
            max_attempts,
            backoff: Duration::from_millis(1),
        }
    }
}

/// What the chaos plan does to one job attempt. The pipeline decides
/// it; each executor applies it its own way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Nothing — the job runs normally.
    None,
    /// The worker dies mid-job: a thread panics (contained by
    /// `catch_unwind`), a farm worker process is SIGKILLed.
    Panic,
    /// The result never comes back: a thread compiles the job and
    /// drops the message, a farm worker exits without replying.
    Lose,
    /// The worker stalls for [`ChaosPlan::stall_for`] before
    /// compiling, so its result arrives after the master's timeout.
    Stall,
}

/// A seeded, deterministic fault-injection plan for *real* builds
/// (threads or farm) — the `parcc` counterpart of the simulator's
/// [`warp_netsim::FaultPlan`]. Each `(job, attempt)` pair is struck
/// (or spared) by a pure function of the seed, so a chaos run is
/// exactly reproducible from its seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Seed for the per-job fault draw.
    pub seed: u64,
    /// Probability a job attempt panics its worker.
    pub crash_prob: f64,
    /// Probability a job attempt's result message is lost.
    pub lose_prob: f64,
    /// Probability a job attempt stalls past the master's timeout.
    pub stall_prob: f64,
    /// How long a stalled worker sleeps before compiling.
    pub stall_for: Duration,
    /// Restrict injection to one job index (for targeted tests).
    pub only_job: Option<usize>,
    /// Only strike first attempts, so every job's retry succeeds and
    /// the run is guaranteed to stay off the sequential fallback.
    pub first_attempt_only: bool,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan {
            seed: 0,
            crash_prob: 0.0,
            lose_prob: 0.0,
            stall_prob: 0.0,
            stall_for: Duration::from_millis(200),
            only_job: None,
            first_attempt_only: true,
        }
    }
}

/// splitmix64, the same stream generator the netsim fault plan uses.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl ChaosPlan {
    /// The mixed plan the chaos-matrix CI job runs: every fault class
    /// armed with moderate probability, first attempts only (so the
    /// build recovers through retries, exercising the whole detection
    /// and re-dispatch path on every seed).
    pub fn from_seed(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            crash_prob: 0.25,
            lose_prob: 0.20,
            stall_prob: 0.15,
            ..ChaosPlan::default()
        }
    }

    /// A plan that panics exactly one job's first attempt.
    pub fn crash_one(job: usize) -> ChaosPlan {
        ChaosPlan {
            crash_prob: 1.0,
            only_job: Some(job),
            ..ChaosPlan::default()
        }
    }

    /// A plan that loses exactly one job's first result.
    pub fn lose_one(job: usize) -> ChaosPlan {
        ChaosPlan {
            lose_prob: 1.0,
            only_job: Some(job),
            ..ChaosPlan::default()
        }
    }

    /// A plan that stalls exactly one job's first attempt for
    /// `stall_for`.
    pub fn stall_one(job: usize, stall_for: Duration) -> ChaosPlan {
        ChaosPlan {
            stall_prob: 1.0,
            stall_for,
            only_job: Some(job),
            ..ChaosPlan::default()
        }
    }

    /// The deterministic fault draw for `(job, attempt)`.
    pub fn decide(&self, job: usize, attempt: usize) -> ChaosAction {
        if self.first_attempt_only && attempt > 0 {
            return ChaosAction::None;
        }
        if self.only_job.is_some_and(|j| j != job) {
            return ChaosAction::None;
        }
        let mut state = self
            .seed
            .wrapping_add((job as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add((attempt as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        let roll = unit(splitmix64(&mut state));
        if roll < self.crash_prob {
            ChaosAction::Panic
        } else if roll < self.crash_prob + self.lose_prob {
            ChaosAction::Lose
        } else if roll < self.crash_prob + self.lose_prob + self.stall_prob {
            ChaosAction::Stall
        } else {
            ChaosAction::None
        }
    }
}

/// The default job count for parallel compilation: the machine's
/// available parallelism, or 1 when it cannot be queried. This is the
/// single source of truth behind `warpcc --jobs 0` and a `warpd`
/// compile request without a `jobs` field — callers that used to
/// hardcode worker counts resolve through here instead.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Resolves a requested job count: `0` (the wire/CLI spelling of
/// "default") becomes [`default_jobs`], anything else is used as-is.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        default_jobs()
    } else {
        requested
    }
}

/// Compiles `source` with up to `workers` concurrent function masters.
///
/// # Errors
///
/// Propagates the first compilation error (the whole compilation is
/// aborted, as the paper's master does).
pub fn compile_parallel(
    source: &str,
    opts: &CompileOptions,
    workers: usize,
) -> Result<(CompileResult, BuildReport), CompileError> {
    Build {
        jobs: workers,
        ..Build::new(source, opts)
    }
    .run()
}

/// [`compile_parallel`] with an incremental compilation cache: the
/// master probes every function's content address before dispatching;
/// hits are materialized directly (no worker queueing, no thread
/// hand-off) and only misses are compiled — then stored, so the next
/// build hits. A fully warm build runs phase 1, N cache probes and the
/// link, nothing else.
///
/// # Errors
///
/// Propagates the first compilation error.
pub fn compile_parallel_cached(
    source: &str,
    opts: &CompileOptions,
    workers: usize,
    cache: &FnCache,
) -> Result<(CompileResult, BuildReport), CompileError> {
    Build {
        jobs: workers,
        cache: Some(cache),
        ..Build::new(source, opts)
    }
    .run()
}

/// LPT (longest-processing-time-first) dispatch order over a-priori
/// cost estimates: indices sorted by decreasing estimate, source order
/// as the tie-break. Queueing jobs in this order means the most
/// expensive function starts compiling first — it can never be the one
/// job left running after every other worker has drained the queue,
/// which is the first-order Amdahl leak of source-order dispatch.
pub fn lpt_dispatch_order(estimates: impl IntoIterator<Item = u64>) -> Vec<usize> {
    let est: Vec<u64> = estimates.into_iter().collect();
    let mut order: Vec<usize> = (0..est.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(est[i]), i));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::compile_module_source;
    use warp_obs::Trace;
    use warp_workload::{synthetic_program, user_program, FunctionSize};

    #[test]
    fn parallel_result_matches_sequential() {
        let src = synthetic_program(FunctionSize::Small, 4);
        let opts = CompileOptions::default();
        let seq = compile_module_source(&src, &opts).expect("seq");
        let (par, report) = compile_parallel(&src, &opts, 4).expect("par");
        assert_eq!(seq.module_image, par.module_image, "bit-identical output");
        assert_eq!(seq.records.len(), par.records.len());
        assert_eq!(report.per_function.len(), 4);
        assert!(report.wall >= report.phase1_wall);
        assert!(report.faults.is_quiet(), "healthy build observes no faults");
    }

    #[test]
    fn user_program_compiles_in_parallel() {
        let src = user_program();
        let opts = CompileOptions::default();
        let seq = compile_module_source(&src, &opts).expect("seq");
        let (par, _) = compile_parallel(&src, &opts, 8).expect("par");
        assert_eq!(seq.module_image, par.module_image);
    }

    #[test]
    fn phase1_error_propagates() {
        let err = compile_parallel("module broken;", &CompileOptions::default(), 4);
        assert!(matches!(err, Err(CompileError::Phase1(_))));
    }

    #[test]
    fn single_worker_works() {
        let src = synthetic_program(FunctionSize::Tiny, 2);
        let (r, report) = compile_parallel(&src, &CompileOptions::default(), 1).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn lpt_order_is_decreasing_with_stable_ties() {
        assert_eq!(lpt_dispatch_order([10, 40, 20, 40]), vec![1, 3, 2, 0]);
        assert_eq!(lpt_dispatch_order([]), Vec::<usize>::new());
        assert_eq!(lpt_dispatch_order([7]), vec![0]);
    }

    mod lpt_props {
        use super::super::lpt_dispatch_order;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

            /// The dispatch order is a total, platform-independent
            /// function of the estimates: a permutation sorted by
            /// decreasing estimate with the job index as the explicit
            /// secondary key, so equal-cost estimates can never reorder
            /// output across platforms or sort implementations. The
            /// narrow estimate range forces heavy tie collisions.
            #[test]
            fn order_is_a_sorted_permutation_with_index_tiebreak(
                est in prop::collection::vec(0u64..4, 0..48),
            ) {
                let order = lpt_dispatch_order(est.iter().copied());
                let mut seen = order.clone();
                seen.sort_unstable();
                prop_assert_eq!(seen, (0..est.len()).collect::<Vec<_>>(), "permutation");
                for pair in order.windows(2) {
                    let (a, b) = (pair[0], pair[1]);
                    prop_assert!(
                        est[a] > est[b] || (est[a] == est[b] && a < b),
                        "jobs {} (est {}) and {} (est {}) out of LPT order",
                        a, est[a], b, est[b]
                    );
                }
                // Re-running on the same input reproduces the order
                // exactly (no unstable-sort nondeterminism).
                prop_assert_eq!(order, lpt_dispatch_order(est.iter().copied()));
            }
        }
    }

    #[test]
    fn warm_cached_build_is_bit_identical_and_all_hits() {
        let src = user_program();
        let opts = CompileOptions::default();
        let cache = crate::fncache::FnCache::in_memory();
        let (cold, _) = compile_parallel_cached(&src, &opts, 4, &cache).expect("cold");
        let n = cold.records.len() as u64;
        let after_cold = cache.stats();
        assert_eq!(after_cold.misses, n, "cold build misses every function");
        assert_eq!(after_cold.stores, n);

        let (warm, _) = compile_parallel_cached(&src, &opts, 4, &cache).expect("warm");
        let after_warm = cache.stats();
        assert_eq!(
            after_warm.hits() - after_cold.hits(),
            n,
            "warm build hits every function"
        );
        assert_eq!(
            after_warm.misses, after_cold.misses,
            "warm build misses nothing"
        );
        assert_eq!(cold.module_image, warm.module_image, "bit-identical output");
        assert_eq!(cold.records, warm.records, "identical work records");

        // And both match the plain sequential compiler.
        let seq = compile_module_source(&src, &opts).expect("seq");
        assert_eq!(seq.module_image, warm.module_image);
    }

    #[test]
    fn sequential_cached_matches_parallel_cached() {
        let src = synthetic_program(FunctionSize::Small, 4);
        let opts = CompileOptions::default();
        let cache = crate::fncache::FnCache::in_memory();
        let (seq, _) = Build {
            cache: Some(&cache),
            ..Build::new(&src, &opts)
        }
        .run()
        .expect("seq cold");
        let (par, _) = compile_parallel_cached(&src, &opts, 4, &cache).expect("par warm");
        assert_eq!(seq.module_image, par.module_image);
        // The parallel build was entirely served from the sequential
        // build's stores.
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits(), 4);
    }

    // ---- fault tolerance, on the real thread pool ----
    // (Every branch of the recovery loop is pinned one by one against
    // a scripted executor in `crate::build`; these run the real thing.)

    fn fast_policy() -> RetryPolicy {
        RetryPolicy::fast(Duration::from_millis(80), 3)
    }

    /// Small x4 on four workers under `chaos`: `None` when the output
    /// differs from the sequential compiler's.
    fn survive(chaos: &ChaosPlan, policy: &RetryPolicy, trace: &Trace) -> Option<FaultStats> {
        let src = synthetic_program(FunctionSize::Small, 4);
        let opts = CompileOptions::default();
        let seq = compile_module_source(&src, &opts).expect("seq");
        let (par, report) = Build {
            jobs: 4,
            trace,
            faults: Some((chaos, policy)),
            ..Build::new(&src, &opts)
        }
        .run()
        .expect("par");
        (seq.module_image == par.module_image).then_some(report.faults)
    }

    #[test]
    fn worker_panic_is_contained_and_job_retried() {
        for job in 0..4 {
            let faults = survive(
                &ChaosPlan::crash_one(job),
                &fast_policy(),
                &Trace::disabled(),
            )
            .unwrap_or_else(|| panic!("bit-identical despite crash of {job}"));
            assert_eq!(faults.crashes, 1, "{faults:?}");
            assert_eq!(faults.retries, 1, "{faults:?}");
            assert_eq!(faults.fallbacks, 0, "{faults:?}");
        }
    }

    #[test]
    fn lost_result_detected_by_timeout_and_retried() {
        let faults = survive(&ChaosPlan::lose_one(1), &fast_policy(), &Trace::disabled())
            .expect("bit-identical despite lost result");
        // The loss is noticed by the per-job timeout; once the pool is
        // quiet the job is marked lost and retried.
        assert!(faults.lost >= 1, "{faults:?}");
        assert!(faults.retries >= 1, "{faults:?}");
    }

    #[test]
    fn stalled_worker_late_result_is_used() {
        // The stall (250 ms) is far past the 80 ms timeout; the late
        // result is drained once the pool is quiet and no retry runs.
        let chaos = ChaosPlan::stall_one(2, Duration::from_millis(250));
        let faults = survive(&chaos, &fast_policy(), &Trace::disabled())
            .expect("bit-identical despite stall");
        assert!(faults.timeouts >= 1, "{faults:?}");
        assert_eq!(faults.retries, 0, "late result used, no retry: {faults:?}");
    }

    #[test]
    fn exhausted_pool_falls_back_to_in_master_sequential() {
        // Every attempt of every job panics; with 2 attempts the
        // master must compile all four functions itself.
        let chaos = ChaosPlan {
            crash_prob: 1.0,
            first_attempt_only: false,
            ..ChaosPlan::default()
        };
        let policy = RetryPolicy::fast(Duration::from_millis(80), 2);
        let faults =
            survive(&chaos, &policy, &Trace::disabled()).expect("bit-identical via fallback");
        assert_eq!(faults.fallbacks, 4, "{faults:?}");
        assert_eq!(faults.crashes, 8, "4 jobs × 2 attempts: {faults:?}");
    }

    #[test]
    fn chaos_run_with_tracing_records_fault_spans() {
        let trace = Trace::new(warp_obs::ClockDomain::Monotonic);
        let faults = survive(&ChaosPlan::crash_one(0), &fast_policy(), &trace).expect("par");
        assert_eq!(faults.crashes, 1);
        let snap = trace.snapshot();
        assert!(
            snap.instants
                .iter()
                .any(|i| i.cat == "fault" && i.name.starts_with("panic")),
            "panic instant recorded"
        );
        assert!(
            snap.instants
                .iter()
                .any(|i| i.cat == "retry" && i.name.starts_with("retry")),
            "retry instant recorded"
        );
    }

    #[test]
    fn seeded_chaos_matrix_is_bit_identical() {
        // The same property the CI chaos matrix checks per seed: a
        // mixed fault plan never changes the compiled output.
        let src = user_program();
        let opts = CompileOptions::default();
        let seq = compile_module_source(&src, &opts).expect("seq");
        for seed in [1u64, 2, 3] {
            let chaos = ChaosPlan::from_seed(seed);
            let (par, report) = Build {
                jobs: 4,
                faults: Some((&chaos, &fast_policy())),
                ..Build::new(&src, &opts)
            }
            .run()
            .expect("par");
            assert_eq!(
                seq.module_image, par.module_image,
                "bit-identical under chaos seed {seed}"
            );
            assert_eq!(report.per_function.len(), seq.records.len());
        }
    }

    #[test]
    fn chaos_decide_is_deterministic() {
        let plan = ChaosPlan::from_seed(17);
        for job in 0..32 {
            for attempt in 0..3 {
                assert_eq!(plan.decide(job, attempt), plan.decide(job, attempt));
            }
        }
        // first_attempt_only spares every retry.
        assert!((0..64).all(|j| plan.decide(j, 1) == ChaosAction::None));
    }
}
