//! The seeded chaos matrix against the *real* farm: injected faults
//! are actual SIGKILLed worker processes, silent worker exits, and
//! workers stalling past the dispatch timeout — not simulated thread
//! panics. Under every seed the module image must stay bit-identical
//! to the sequential compile.
//!
//! CI runs this suite once per seed (`WARP_FAULT_SEED=n cargo test
//! --test farm_chaos`), in the same matrix as the threaded chaos
//! suite; locally the full default sweep runs. Failures write their
//! trace and report under `farm-chaos-artifacts/` before panicking.

use parcc::farm::FarmConfig;
use parcc::threads::{ChaosPlan, RetryPolicy};
use parcc::{
    compile_module_source, Build, BuildReport, CompileError, CompileOptions, CompileResult,
};
use std::path::PathBuf;
use std::time::Duration;
use warp_obs::{ClockDomain, Trace};
use warp_workload::{synthetic_program, FunctionSize};

/// The default seed sweep — the same eight seeds the CI matrix pins.
const DEFAULT_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

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

fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from("farm-chaos-artifacts");
    std::fs::create_dir_all(&dir).expect("create farm-chaos-artifacts/");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write farm chaos artifact");
    path
}

fn image_bytes(r: &CompileResult) -> Vec<u8> {
    warp_target::download::encode(&r.module_image).expect("encode module")
}

/// A farm of `workers` real processes struck by `chaos`.
struct ChaosFarm {
    cfg: FarmConfig,
    chaos: ChaosPlan,
    policy: RetryPolicy,
}

fn chaos_config(workers: usize, chaos: ChaosPlan) -> ChaosFarm {
    ChaosFarm {
        cfg: FarmConfig {
            worker_cmd: Some(PathBuf::from(env!("CARGO_BIN_EXE_warpd-worker"))),
            ..FarmConfig::new(workers)
        },
        chaos,
        // Short timeout so lost/stalled jobs are detected in test
        // time; enough headroom that a healthy compile never trips it.
        policy: RetryPolicy::fast(Duration::from_secs(5), 3),
    }
}

impl ChaosFarm {
    fn compile(
        &self,
        src: &str,
        opts: &CompileOptions,
        trace: &Trace,
    ) -> Result<(CompileResult, BuildReport), CompileError> {
        Build {
            jobs: self.cfg.workers,
            farm: Some(&self.cfg),
            trace,
            faults: Some((&self.chaos, &self.policy)),
            ..Build::new(src, opts)
        }
        .run()
    }
}

/// Compiles `src` on a chaos-stricken farm and asserts the image is
/// bit-identical to the sequential compile; on divergence the trace
/// and fault report go to `farm-chaos-artifacts/` first.
fn assert_farm_chaos_identical(src: &str, opts: &CompileOptions, cfg: &ChaosFarm, what: &str) {
    let reference = compile_module_source(src, opts).expect("sequential");
    let trace = Trace::new(ClockDomain::Monotonic);
    let (got, report) = cfg
        .compile(src, opts, &trace)
        .unwrap_or_else(|e| panic!("{what}: farm chaos compile failed: {e}"));
    let identical =
        image_bytes(&got) == image_bytes(&reference) && got.records == reference.records;
    let mut leaked = Vec::new();
    for pid in &report.farm.as_ref().expect("census").pids {
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        let cmdline = String::from_utf8_lossy(&cmdline).replace('\0', " ");
        if cmdline.contains("warpd-worker") {
            leaked.push(*pid);
        }
    }
    if !identical || !leaked.is_empty() {
        let json = warp_obs::to_chrome_json(&trace.snapshot());
        let path = write_artifact(&format!("{what}.trace.json"), &json);
        let stats = write_artifact(&format!("{what}.stats.txt"), &format!("{report:#?}"));
        panic!(
            "{what}: {} (trace: {}, stats: {})",
            if identical {
                format!("leaked worker processes {leaked:?}")
            } else {
                "farm output diverged from sequential under chaos".to_string()
            },
            path.display(),
            stats.display()
        );
    }
}

#[test]
fn seeded_farm_chaos_is_bit_identical_for_every_matrix_seed() {
    let opts = CompileOptions::default();
    // The fig. 6 workload, as in the threaded matrix: 25% of first
    // attempts SIGKILL their worker, 20% exit silently, 15% stall
    // 200 ms. Kills and exits force real process loss and
    // rebalancing; the dedicated stall test below covers stalls that
    // outlive the dispatch timeout.
    let src = synthetic_program(FunctionSize::Medium, 8);
    for seed in seeds() {
        let chaos = ChaosPlan::from_seed(seed);
        assert_farm_chaos_identical(
            &src,
            &opts,
            &chaos_config(4, chaos),
            &format!("farm-w4-seed-{seed}"),
        );
    }
}

#[test]
fn every_single_job_kill_is_bit_identical() {
    let opts = CompileOptions::default();
    let src = synthetic_program(FunctionSize::Small, 6);
    let n = compile_module_source(&src, &opts)
        .expect("sequential")
        .records
        .len();
    for job in 0..n {
        // crash_one → a real SIGKILL of the worker holding `job`.
        assert_farm_chaos_identical(
            &src,
            &opts,
            &chaos_config(3, ChaosPlan::crash_one(job)),
            &format!("farm-kill-job-{job}"),
        );
        // lose_one → that worker exits silently mid-protocol.
        assert_farm_chaos_identical(
            &src,
            &opts,
            &chaos_config(3, ChaosPlan::lose_one(job)),
            &format!("farm-exit-job-{job}"),
        );
    }
}

#[test]
fn stalled_worker_past_timeout_is_bit_identical() {
    let opts = CompileOptions::default();
    let src = synthetic_program(FunctionSize::Small, 4);
    // Stall one job well past the dispatch timeout: the coordinator
    // must retry it elsewhere and absorb the late reply harmlessly.
    let mut cfg = chaos_config(2, ChaosPlan::stall_one(1, Duration::from_millis(900)));
    cfg.policy = RetryPolicy::fast(Duration::from_millis(300), 3);
    assert_farm_chaos_identical(&src, &opts, &cfg, "farm-stall-job-1");
}

#[test]
fn wedged_worker_is_killed_and_cannot_hang_the_build() {
    let opts = CompileOptions::default();
    let src = synthetic_program(FunctionSize::Small, 4);
    // One worker is told to stall for a minute under a 200 ms timeout.
    // The master waits out one timeout of silence and one more for the
    // farm to go quiet, then kills the process; the attempt comes back
    // crashed and is re-dispatched to the surviving worker.
    let mut cfg = chaos_config(2, ChaosPlan::stall_one(1, Duration::from_secs(60)));
    cfg.policy = RetryPolicy::fast(Duration::from_millis(200), 3);
    let t = std::time::Instant::now();
    let (got, report) = cfg.compile(&src, &opts, &Trace::disabled()).expect("farm");
    let took = t.elapsed();
    let reference = compile_module_source(&src, &opts).expect("sequential");
    assert_eq!(image_bytes(&reference), image_bytes(&got));
    assert!(took < Duration::from_secs(5), "build took {took:?}");
    assert_eq!(report.farm.expect("census").lost, 1, "{:?}", report.faults);
    assert!(report.faults.timeouts >= 1, "{:?}", report.faults);
    assert_eq!(report.faults.crashes, 1, "{:?}", report.faults);
    assert_eq!(report.faults.fallbacks, 0, "{:?}", report.faults);
}

#[test]
fn killing_every_worker_falls_back_to_the_coordinator() {
    let opts = CompileOptions::default();
    let src = synthetic_program(FunctionSize::Small, 4);
    // Every attempt of every job kills its worker: the whole farm
    // dies and the coordinator must compile everything itself.
    let chaos = ChaosPlan {
        crash_prob: 1.0,
        first_attempt_only: false,
        ..ChaosPlan::default()
    };
    let reference = compile_module_source(&src, &opts).expect("sequential");
    let (got, report) = chaos_config(2, chaos)
        .compile(&src, &opts, &Trace::disabled())
        .expect("farm");
    assert_eq!(image_bytes(&reference), image_bytes(&got));
    let census = report.farm.as_ref().expect("census");
    assert_eq!(census.lost, census.spawned);
    assert!(
        report.faults.fallbacks > 0,
        "the coordinator must have taken work back: {:?}",
        report.faults
    );
}

#[test]
fn farm_chaos_reports_count_real_faults() {
    let opts = CompileOptions::default();
    let src = synthetic_program(FunctionSize::Small, 6);
    // One guaranteed kill: the report must show it, and recovery must
    // leave no trace in the output.
    let (_, report) = chaos_config(3, ChaosPlan::crash_one(0))
        .compile(&src, &opts, &Trace::disabled())
        .expect("farm");
    assert_eq!(report.faults.crashes, 1, "{:?}", report.faults);
    assert_eq!(report.farm.expect("census").lost, 1, "{:?}", report.faults);
}
