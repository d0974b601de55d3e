//! Determinism of cached and parallel compilation: the bits of the
//! download module must not depend on worker count, dispatch order, or
//! whether a function was compiled or fetched from the cache.
//!
//! This is what makes the cache sound to use at all — a hit must be
//! indistinguishable from a recompilation.

use parcc::threads::{compile_parallel, compile_parallel_cached, ChaosPlan, RetryPolicy};
use parcc::{
    compile_module_source, Build, BuildReport, CompileError, CompileOptions, CompileResult, FnCache,
};
use proptest::prelude::*;
use std::time::Duration;
use warp_workload::{synthetic_program, FunctionSize};

fn image_bytes(r: &CompileResult) -> Vec<u8> {
    warp_target::download::encode(&r.module_image).expect("encode module")
}

fn chaos_cached_build(
    src: &str,
    opts: &CompileOptions,
    workers: usize,
    cache: &FnCache,
    chaos: &ChaosPlan,
    policy: &RetryPolicy,
) -> Result<(CompileResult, BuildReport), CompileError> {
    Build {
        jobs: workers,
        cache: Some(cache),
        faults: Some((chaos, policy)),
        ..Build::new(src, opts)
    }
    .run()
}

/// Compiles `src` every way — sequential, parallel at several widths,
/// cold cached, warm cached — and asserts all outputs are bit-identical.
fn assert_all_ways_identical(src: &str, opts: &CompileOptions) {
    let reference = compile_module_source(src, opts).expect("sequential");
    let ref_bytes = image_bytes(&reference);

    for workers in [1usize, 2, 4, 8] {
        let (par, _) = compile_parallel(src, opts, workers).expect("parallel");
        assert_eq!(
            image_bytes(&par),
            ref_bytes,
            "uncached parallel ({workers} workers) diverged from sequential"
        );
        assert_eq!(
            par.records, reference.records,
            "records diverged at {workers} workers"
        );

        let cache = FnCache::in_memory();
        let (cold, _) = compile_parallel_cached(src, opts, workers, &cache).expect("cold cached");
        assert_eq!(
            image_bytes(&cold),
            ref_bytes,
            "cold cached parallel ({workers} workers) diverged"
        );
        let (warm, _) = compile_parallel_cached(src, opts, workers, &cache).expect("warm cached");
        assert_eq!(
            image_bytes(&warm),
            ref_bytes,
            "warm cached parallel ({workers} workers) diverged"
        );
        assert_eq!(warm.records, reference.records, "warm records diverged");
        let stats = cache.stats();
        assert_eq!(
            stats.hits(),
            reference.records.len() as u64,
            "warm rebuild must hit every function: {stats}"
        );
    }
}

#[test]
fn fig6_workload_is_bit_identical_every_way() {
    let src = synthetic_program(FunctionSize::Medium, 8);
    assert_all_ways_identical(&src, &CompileOptions::default());
}

#[test]
fn chaos_matrix_is_bit_identical_across_workers_and_cache_temperature() {
    // The full determinism matrix the thread executor must
    // survive: 1/2/4/8 workers × {cold, warm cache} × the eight CI
    // chaos seeds. Warm runs take pure cache hits, so faults there
    // only strike the (empty) compile set — the interesting half is
    // cold-with-chaos, but warm must stay byte-stable too.
    let opts = CompileOptions::default();
    let src = synthetic_program(FunctionSize::Small, 6);
    let reference = compile_module_source(&src, &opts).expect("sequential");
    let ref_bytes = image_bytes(&reference);
    let policy = RetryPolicy::fast(Duration::from_millis(200), 3);

    for workers in [1usize, 2, 4, 8] {
        for seed in 1u64..=8 {
            let chaos = ChaosPlan::from_seed(seed);
            let cache = FnCache::in_memory();
            let (cold, _) = chaos_cached_build(&src, &opts, workers, &cache, &chaos, &policy)
                .expect("cold chaos compile");
            assert_eq!(
                image_bytes(&cold),
                ref_bytes,
                "cold cache, {workers} workers, seed {seed}: diverged"
            );
            let (warm, _) = chaos_cached_build(&src, &opts, workers, &cache, &chaos, &policy)
                .expect("warm chaos compile");
            assert_eq!(
                image_bytes(&warm),
                ref_bytes,
                "warm cache, {workers} workers, seed {seed}: diverged"
            );
            assert_eq!(warm.records, reference.records, "warm records diverged");
        }
    }
}

#[test]
fn every_example_program_is_bit_identical_under_chaos() {
    // The acceptance bar from the executor rewrite: every checked-in
    // example reproduces the sequential bits under every chaos seed.
    let opts = CompileOptions::default();
    let policy = RetryPolicy::fast(Duration::from_millis(200), 3);
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("read examples/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "w2") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read example");
        let reference = compile_module_source(&src, &opts).expect("sequential");
        let ref_bytes = image_bytes(&reference);
        for seed in 1u64..=8 {
            let cache = FnCache::in_memory();
            let (got, _) =
                chaos_cached_build(&src, &opts, 4, &cache, &ChaosPlan::from_seed(seed), &policy)
                    .expect("chaos compile");
            assert_eq!(
                image_bytes(&got),
                ref_bytes,
                "{}: seed {seed} diverged from sequential",
                path.display()
            );
        }
        checked += 1;
    }
    assert!(
        checked >= 3,
        "expected at least 3 example programs, found {checked}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Random (size, n) workloads stay bit-identical across worker
    /// counts and cache temperature.
    #[test]
    fn arbitrary_workloads_are_bit_identical(size_idx in 0usize..3, n in 1usize..5) {
        let size = [FunctionSize::Tiny, FunctionSize::Small, FunctionSize::Medium][size_idx];
        let src = synthetic_program(size, n);
        assert_all_ways_identical(&src, &CompileOptions::default());
    }
}
