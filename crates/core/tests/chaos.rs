//! The seeded chaos matrix: fault tolerance of both executors must be
//! invisible in the output and deterministic per seed.
//!
//! CI runs this suite once per seed (`WARP_FAULT_SEED=n cargo test
//! --test chaos`); locally, with the variable unset, every test sweeps
//! the full default seed list. On a failure each test first writes the
//! offending trace/report JSON under `chaos-artifacts/` (uploaded by
//! the CI job) and then panics with the path in the message.

use parcc::threads::{ChaosPlan, RetryPolicy};
use parcc::{compile_module_source, Build, CompileOptions, CompileResult, Experiment};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;
use warp_netsim::{simulate, simulate_faulted_traced, FaultPlan};
use warp_obs::{ClockDomain, Trace};
use warp_workload::{synthetic_program, FunctionSize};

/// The default seed sweep — the same eight seeds the CI matrix pins.
const DEFAULT_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Seeds to exercise: `WARP_FAULT_SEED` selects a single seed (one CI
/// matrix job per seed), otherwise the full default sweep runs.
fn seeds() -> Vec<u64> {
    match std::env::var("WARP_FAULT_SEED") {
        Ok(s) => {
            let seed = s
                .parse()
                .unwrap_or_else(|_| panic!("bad WARP_FAULT_SEED `{s}`"));
            vec![seed]
        }
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

/// Writes a failure artifact and returns its path (for the panic
/// message). CI uploads `chaos-artifacts/` when the job fails.
fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from("chaos-artifacts");
    std::fs::create_dir_all(&dir).expect("create chaos-artifacts/");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write chaos artifact");
    path
}

fn image_bytes(r: &CompileResult) -> Vec<u8> {
    warp_target::download::encode(&r.module_image).expect("encode module")
}

/// Compiles `src` under `chaos` and asserts the module is bit-identical
/// to the sequential compile; on divergence the run's trace goes to
/// `chaos-artifacts/` first.
fn assert_chaos_identical(
    src: &str,
    opts: &CompileOptions,
    workers: usize,
    chaos: &ChaosPlan,
    policy: &RetryPolicy,
    what: &str,
) {
    let reference = compile_module_source(src, opts).expect("sequential");
    let trace = Trace::new(ClockDomain::Monotonic);
    let (got, report) = Build {
        jobs: workers,
        trace: &trace,
        faults: Some((chaos, policy)),
        ..Build::new(src, opts)
    }
    .run()
    .unwrap_or_else(|e| panic!("{what}: chaos compile failed: {e}"));
    if image_bytes(&got) != image_bytes(&reference) || got.records != reference.records {
        let json = warp_obs::to_chrome_json(&trace.snapshot());
        let path = write_artifact(&format!("{what}.trace.json"), &json);
        let stats = write_artifact(&format!("{what}.stats.txt"), &format!("{report:#?}"));
        panic!(
            "{what}: chaos output diverged from sequential \
             (trace: {}, stats: {})",
            path.display(),
            stats.display()
        );
    }
}

/// Short timeout so lost/stalled jobs are detected in test time, not
/// the production 30 s.
fn fast_policy() -> RetryPolicy {
    RetryPolicy::fast(Duration::from_millis(200), 3)
}

#[test]
fn seeded_chaos_is_bit_identical_for_every_matrix_seed() {
    let opts = CompileOptions::default();
    let src = synthetic_program(FunctionSize::Medium, 8);
    // Worker-count sweep × the seed matrix: the thread executor must
    // reproduce the sequential bits at every pool width.
    for workers in [1, 2, 4, 8] {
        for seed in seeds() {
            let chaos = ChaosPlan::from_seed(seed);
            assert_chaos_identical(
                &src,
                &opts,
                workers,
                &chaos,
                &fast_policy(),
                &format!("threads-w{workers}-seed-{seed}"),
            );
        }
    }
}

#[test]
fn every_single_job_crash_is_bit_identical() {
    let opts = CompileOptions::default();
    let src = synthetic_program(FunctionSize::Small, 6);
    let n = compile_module_source(&src, &opts)
        .expect("sequential")
        .records
        .len();
    for job in 0..n {
        assert_chaos_identical(
            &src,
            &opts,
            3,
            &ChaosPlan::crash_one(job),
            &fast_policy(),
            &format!("crash-job-{job}"),
        );
        assert_chaos_identical(
            &src,
            &opts,
            3,
            &ChaosPlan::lose_one(job),
            &fast_policy(),
            &format!("lose-job-{job}"),
        );
    }
}

#[test]
fn stalled_jobs_do_not_change_the_bits() {
    let opts = CompileOptions::default();
    let src = synthetic_program(FunctionSize::Small, 4);
    // Stall past the detection timeout: the job is retried while the
    // stalled worker is still asleep, and its late result is drained
    // without corrupting the image.
    assert_chaos_identical(
        &src,
        &opts,
        2,
        &ChaosPlan::stall_one(1, Duration::from_millis(350)),
        &fast_policy(),
        "stall-job-1",
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Any seed and any injection mix still reproduces the sequential
    /// bits — the executor never trades correctness for liveness.
    #[test]
    fn arbitrary_chaos_mix_is_bit_identical(
        seed in 0u64..1_000_000,
        crash in 0.0f64..1.0,
        lose in 0.0f64..0.5,
    ) {
        let opts = CompileOptions::default();
        let src = synthetic_program(FunctionSize::Small, 4);
        let chaos = ChaosPlan {
            seed,
            crash_prob: crash,
            lose_prob: lose,
            ..ChaosPlan::default()
        };
        assert_chaos_identical(
            &src,
            &opts,
            3,
            &chaos,
            &fast_policy(),
            &format!("prop-seed-{seed}"),
        );
    }
}

/// Runs the faulted fig6 simulation once, returning the report's Debug
/// rendering and the chrome trace JSON (both must be byte-stable).
fn faulted_netsim_run(e: &Experiment, result: &CompileResult, seed: u64) -> (String, String) {
    let avail = e.model.host.workstations.saturating_sub(1);
    let assignment = parcc::fcfs(result.records.len(), avail);
    let horizon = simulate(
        e.model.host,
        parcc::simspec::par_spec(result, &e.model, &assignment),
    )
    .elapsed_s;
    let plan = FaultPlan::generate(seed, 3, e.model.host.workstations, horizon);
    let trace = Trace::new(ClockDomain::Virtual);
    let report = simulate_faulted_traced(
        e.model.host,
        plan,
        parcc::simspec::par_spec(result, &e.model, &assignment),
        &trace,
    );
    (
        format!("{report:#?}"),
        warp_obs::to_chrome_json(&trace.snapshot()),
    )
}

#[test]
fn netsim_fault_runs_are_byte_identical_per_seed() {
    let e = Experiment::default();
    let result = compile_module_source(&synthetic_program(FunctionSize::Medium, 8), &e.opts)
        .expect("compile");
    for seed in seeds() {
        let (report_a, trace_a) = faulted_netsim_run(&e, &result, seed);
        let (report_b, trace_b) = faulted_netsim_run(&e, &result, seed);
        if report_a != report_b {
            let pa = write_artifact(&format!("netsim-seed-{seed}.report-a.txt"), &report_a);
            let pb = write_artifact(&format!("netsim-seed-{seed}.report-b.txt"), &report_b);
            panic!(
                "seed {seed}: two identical faulted simulations produced different \
                 reports ({} vs {})",
                pa.display(),
                pb.display()
            );
        }
        if trace_a != trace_b {
            let pa = write_artifact(&format!("netsim-seed-{seed}.trace-a.json"), &trace_a);
            let pb = write_artifact(&format!("netsim-seed-{seed}.trace-b.json"), &trace_b);
            panic!(
                "seed {seed}: two identical faulted simulations produced different \
                 traces ({} vs {})",
                pa.display(),
                pb.display()
            );
        }
    }
}

#[test]
fn fig6_under_faults_matches_itself_per_seed() {
    let e = Experiment::default();
    for seed in seeds() {
        let a = e
            .fig6_under_faults(FunctionSize::Medium, 8, seed, &[0, 2])
            .expect("fig6");
        let b = e
            .fig6_under_faults(FunctionSize::Medium, 8, seed, &[0, 2])
            .expect("fig6");
        assert_eq!(a, b, "seed {seed}: fig6-under-faults not deterministic");
        assert!(
            a.points
                .iter()
                .all(|p| p.elapsed_s >= a.par_elapsed_s - 1e-9),
            "seed {seed}: faults made the build faster: {a:?}"
        );
    }
}
