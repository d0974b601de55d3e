//! The build farm against real `warpd-worker` processes.
//!
//! Every test spawns actual OS worker processes (the binary cargo
//! built for this workspace) and talks to them over sockets. The
//! anchor property is the three-way cross-validation the CI `farm`
//! job enforces: sequential `warpcc`, the threaded executor and the
//! multi-process farm must produce bit-identical module images.

use parcc::farm::{compile_farm, FarmConfig};
use parcc::threads::compile_parallel;
use parcc::{
    compile_module_source, Build, BuildReport, CompileError, CompileOptions, CompileResult,
    FarmCensus, FnCache,
};
use std::path::PathBuf;
use std::time::Duration;
use warp_workload::{synthetic_program, FunctionSize};

/// The worker binary cargo built alongside this test.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_warpd-worker"))
}

fn farm_config(workers: usize) -> FarmConfig {
    FarmConfig {
        worker_cmd: Some(worker_bin()),
        ..FarmConfig::new(workers)
    }
}

fn image_bytes(r: &CompileResult) -> Vec<u8> {
    warp_target::download::encode(&r.module_image).expect("encode module")
}

/// The worker census every farm build reports.
fn census(report: &BuildReport) -> &FarmCensus {
    report.farm.as_ref().expect("farm builds report a census")
}

/// A scratch dir under the target temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path =
            std::env::temp_dir().join(format!("warp-farm-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch dir");
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn farm_matches_sequential_and_threads_on_fig6_workload() {
    // The paper's fig. 6 workload: 8 medium functions, one section.
    let src = synthetic_program(FunctionSize::Medium, 8);
    let opts = CompileOptions::default();

    let sequential = compile_module_source(&src, &opts).expect("sequential");
    let (threaded, _) = compile_parallel(&src, &opts, 4).expect("threads");
    let (farmed, report) = compile_farm(&src, &opts, &farm_config(4)).expect("farm");

    assert_eq!(
        image_bytes(&sequential),
        image_bytes(&threaded),
        "threads diverged from sequential"
    );
    assert_eq!(
        image_bytes(&sequential),
        image_bytes(&farmed),
        "farm diverged from sequential"
    );
    assert_eq!(sequential.records, farmed.records, "farm records diverged");
    assert_eq!(census(&report).spawned, 4);
    assert_eq!(census(&report).lost, 0);
    assert!(
        report.faults.is_quiet(),
        "healthy build: {:?}",
        report.faults
    );
}

#[test]
fn cold_farm_ships_hashes_warm_farm_ships_nothing() {
    let src = synthetic_program(FunctionSize::Small, 6);
    let opts = CompileOptions::default();
    let scratch = Scratch::new("warm");
    let cfg = FarmConfig {
        cache_dir: Some(scratch.0.join("cache")),
        ..farm_config(3)
    };

    // Cold: every object travels as a content hash through the shared
    // store, so each one is left there.
    let (cold, cold_report) = compile_farm(&src, &opts, &cfg).expect("cold farm");
    let n = cold.records.len();
    assert_eq!(cold_report.cache_hits, 0);
    assert_eq!(cold_report.faults.fallbacks, 0, "{cold_report:?}");
    let store = cfg.cache_dir.as_ref().expect("store dir");
    let objects = std::fs::read_dir(store)
        .expect("store dir")
        .filter(|e| {
            let path = e.as_ref().expect("dir entry").path();
            path.extension().is_some_and(|x| x == "wco")
        })
        .count();
    assert_eq!(objects, n, "one stored object per function");

    // Warm: every job resolves from the store before dispatch; no
    // worker process is even spawned.
    let (warm, warm_report) = compile_farm(&src, &opts, &cfg).expect("warm farm");
    assert_eq!(warm_report.cache_hits, n);
    assert_eq!(
        census(&warm_report).spawned,
        0,
        "warm build spawned workers"
    );
    assert!(census(&warm_report).pids.is_empty(), "{warm_report:?}");
    assert_eq!(image_bytes(&cold), image_bytes(&warm));
    assert_eq!(cold.records, warm.records);
}

#[test]
fn farm_over_an_in_memory_cache_stays_warm() {
    // `warpd --farm N` without `--cache-dir`: the build's cache has no
    // directory for the workers to store into, yet a second build of
    // the same module must still be all hits.
    let src = synthetic_program(FunctionSize::Small, 4);
    let opts = CompileOptions::default();
    let cfg = farm_config(2);
    let cache = FnCache::in_memory();
    let build = Build {
        jobs: 2,
        farm: Some(&cfg),
        cache: Some(&cache),
        ..Build::new(&src, &opts)
    };
    let sequential = compile_module_source(&src, &opts).expect("sequential");

    let (cold, _) = build.run().expect("cold farm");
    let n = cold.records.len();
    assert_eq!(image_bytes(&sequential), image_bytes(&cold));
    assert_eq!(cache.len(), n, "every object lands in the build's cache");

    let (warm, report) = build.run().expect("warm farm");
    assert_eq!(report.cache_hits, n);
    assert_eq!(census(&report).spawned, 0, "warm build spawned workers");
    assert!(census(&report).pids.is_empty(), "{report:?}");
    assert_eq!(image_bytes(&cold), image_bytes(&warm));
}

#[test]
fn farm_survives_a_cache_dir_replaced_by_a_file() {
    let src = synthetic_program(FunctionSize::Small, 4);
    let opts = CompileOptions::default();
    let scratch = Scratch::new("filed");
    let dir = scratch.0.join("cache");
    let cache = FnCache::with_dir(&dir).expect("cache dir");
    std::fs::remove_dir(&dir).expect("remove cache dir");
    std::fs::write(&dir, b"not a directory").expect("file in its place");

    let cfg = farm_config(2);
    let (farmed, report) = Build {
        jobs: 2,
        farm: Some(&cfg),
        cache: Some(&cache),
        ..Build::new(&src, &opts)
    }
    .run()
    .expect("farm over a broken cache dir");
    let sequential = compile_module_source(&src, &opts).expect("sequential");
    assert_eq!(image_bytes(&sequential), image_bytes(&farmed));
    assert_eq!(report.faults.fallbacks, 0, "{report:?}");
}

#[test]
fn options_travel_the_wire() {
    // Non-default codegen options must reach the workers (the
    // fingerprint handshake would kill the build otherwise) and the
    // output must still match the sequential compile with the same
    // options.
    let src = synthetic_program(FunctionSize::Small, 4);
    let opts = CompileOptions {
        inline: Some(warp_ir::InlinePolicy::default()),
        if_convert: Some(warp_ir::IfConvPolicy::default()),
        absint: true,
        ..CompileOptions::default()
    };
    let sequential = compile_module_source(&src, &opts).expect("sequential");
    let (farmed, _) = compile_farm(&src, &opts, &farm_config(2)).expect("farm");
    assert_eq!(image_bytes(&sequential), image_bytes(&farmed));
    assert_eq!(sequential.records, farmed.records);
}

#[test]
fn no_worker_processes_or_sockets_outlive_the_build() {
    let src = synthetic_program(FunctionSize::Small, 4);
    let opts = CompileOptions::default();
    let (_, report) = compile_farm(&src, &opts, &farm_config(3)).expect("farm");
    let census = census(&report);
    assert_eq!(census.pids.len(), 3);

    // Every worker must be fully reaped: a zombie still has a /proc
    // entry, so an absent (or foreign) /proc/<pid> proves both exit
    // and reaping.
    for pid in &census.pids {
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        let cmdline = String::from_utf8_lossy(&cmdline).replace('\0', " ");
        assert!(
            !cmdline.contains("warpd-worker"),
            "worker {pid} still alive after the build: {cmdline}"
        );
    }

    // This build's own scratch dir (socket + private store) is gone.
    // (Sibling tests in this process have farms of their own open, so
    // only the directory the report names is this test's business.)
    let me = std::process::id();
    assert!(
        census
            .scratch_dir
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with(&format!("warp-farm-{me}-"))),
        "{census:?}"
    );
    assert!(
        !census.scratch_dir.exists(),
        "leaked farm dir {}",
        census.scratch_dir.display()
    );
}

#[test]
fn missing_worker_binary_is_a_clean_error() {
    let src = synthetic_program(FunctionSize::Small, 2);
    let opts = CompileOptions::default();
    let cfg = FarmConfig {
        worker_cmd: Some(PathBuf::from("/nonexistent/warpd-worker")),
        handshake_timeout: Duration::from_millis(500),
        ..FarmConfig::new(2)
    };
    match compile_farm(&src, &opts, &cfg) {
        Err(CompileError::Worker(msg)) => {
            assert!(
                msg.contains("warpd-worker"),
                "error should name the missing binary: {msg}"
            );
        }
        other => panic!("expected a Worker error, got {other:?}"),
    }
}

#[test]
fn farm_of_one_worker_still_works() {
    let src = synthetic_program(FunctionSize::Small, 3);
    let opts = CompileOptions::default();
    let sequential = compile_module_source(&src, &opts).expect("sequential");
    let (farmed, report) = compile_farm(&src, &opts, &farm_config(1)).expect("farm");
    assert_eq!(image_bytes(&sequential), image_bytes(&farmed));
    assert_eq!(census(&report).spawned, 1);
}

#[test]
fn every_executor_verifies_the_linked_module() {
    // Under `verify_each_pass` the pipeline checks the linked module
    // once, whatever ran the compiles: the `module:<name>` verify span
    // must be there for the caller's thread, the thread pool and the
    // farm alike.
    let src = synthetic_program(FunctionSize::Small, 3);
    let opts = CompileOptions {
        verify_each_pass: true,
        ..CompileOptions::default()
    };
    let cfg = farm_config(2);
    for (what, jobs, farm) in [
        ("inline", 1, None),
        ("threads", 2, None),
        ("farm", 2, Some(&cfg)),
    ] {
        let trace = warp_obs::Trace::new(warp_obs::ClockDomain::Monotonic);
        let (result, _) = Build {
            jobs,
            farm,
            trace: &trace,
            ..Build::new(&src, &opts)
        }
        .run()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
        let wanted = format!("module:{}", result.module_image.name);
        let snap = trace.snapshot();
        assert_eq!(
            snap.spans_in("verify").filter(|s| s.name == wanted).count(),
            1,
            "{what}: one `{wanted}` verify span"
        );
        if farm.is_some() {
            let coord = snap.tracks.iter().position(|t| t == "farm coordinator");
            let queue: Vec<_> = snap.counters.iter().filter(|c| c.name == "queue").collect();
            assert!(queue.iter().all(|c| Some(c.track.0 as usize) == coord));
            assert_eq!(
                queue.last().map(|c| c.value),
                Some(0.0),
                "farm queue drains"
            );
        }
    }
}
