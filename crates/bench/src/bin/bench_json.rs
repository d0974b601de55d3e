//! `bench_json` — real (wall-clock) compilation times on the Figure 6
//! workload, written as machine-readable JSON for CI and regression
//! tracking.
//!
//! ```text
//! cargo run -p parcc-bench --release --bin bench_json [-- OUT.json]
//! ```
//!
//! For each function count n ∈ {1, 2, 4, 8} of the medium-size
//! synthetic program, the harness measures the median over several
//! runs of:
//!
//! * `seq_s`  — sequential `compile_module_source`;
//! * `par_s`  — `compile_parallel` with 4 workers, no cache;
//! * `cold_s` — `compile_parallel_cached` against an empty cache
//!   (every function misses and is stored);
//! * `warm_s` — `compile_parallel_cached` against a fully primed
//!   cache (every function hits; no worker threads are spawned).
//!
//! The output schema is documented in EXPERIMENTS.md ("Incremental
//! compilation"). The default output path is `BENCH_parallel.json` in
//! the current directory.
//!
//! A second file, `BENCH_faults.json` (schema `warp-bench-faults/1`),
//! measures what the fault-tolerance machinery costs when nothing
//! faults: the n=8 workload compiled by the plain pool vs the
//! chaos-capable pool with a zero-probability plan. The harness asserts
//! the relative overhead stays under 5 % (plus a small absolute slack
//! for timer noise) and exits non-zero otherwise.

use parcc::threads::{compile_parallel, compile_parallel_cached, ChaosPlan, RetryPolicy};
use parcc::{compile_module_source, Build, CompileOptions, FnCache};
use std::fmt::Write as _;
use std::time::Instant;
use warp_workload::{synthetic_program, FunctionSize};

const NS: [usize; 4] = [1, 2, 4, 8];
const WORKERS: usize = 4;
const RUNS: usize = 5;

/// Median wall-clock seconds of `RUNS` invocations of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[RUNS / 2]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());
    let opts = CompileOptions::default();

    let mut rows = String::new();
    for (i, n) in NS.into_iter().enumerate() {
        eprintln!("measuring medium n={n} ({RUNS} runs per variant)...");
        let src = synthetic_program(FunctionSize::Medium, n);

        let seq_s = median_secs(|| {
            compile_module_source(&src, &opts).expect("seq");
        });
        let par_s = median_secs(|| {
            compile_parallel(&src, &opts, WORKERS).expect("par");
        });
        let cold_s = median_secs(|| {
            let cache = FnCache::in_memory();
            compile_parallel_cached(&src, &opts, WORKERS, &cache).expect("cold");
        });
        let primed = FnCache::in_memory();
        compile_parallel_cached(&src, &opts, WORKERS, &primed).expect("prime");
        let warm_s = median_secs(|| {
            compile_parallel_cached(&src, &opts, WORKERS, &primed).expect("warm");
        });

        let _ = write!(
            rows,
            "    {{\"n\": {n}, \"seq_s\": {seq_s:.6}, \"par_s\": {par_s:.6}, \
             \"cold_s\": {cold_s:.6}, \"warm_s\": {warm_s:.6}}}{}",
            if i + 1 < NS.len() { ",\n" } else { "\n" }
        );
    }

    let json = format!(
        "{{\n  \"schema\": \"warp-bench-parallel/1\",\n  \"workload\": \"fig6-medium\",\n  \
         \"workers\": {WORKERS},\n  \"runs\": {RUNS},\n  \"results\": [\n{rows}  ]\n}}\n"
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("bench_json: writing {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("wrote {out_path}");

    fault_overhead_bench();
}

/// Overhead budget for the fault-free chaos path, as a fraction of the
/// plain pool's time.
const FAULT_OVERHEAD_BUDGET: f64 = 0.05;
/// Absolute slack (seconds) so sub-10 ms workloads don't trip on timer
/// noise.
const FAULT_OVERHEAD_SLACK_S: f64 = 0.010;

/// Measures the fault-tolerance machinery on the fault-free n=8 fig6
/// workload and writes `BENCH_faults.json`. Exits non-zero when the
/// overhead blows the < 5 % budget.
fn fault_overhead_bench() {
    let opts = CompileOptions::default();
    let src = synthetic_program(FunctionSize::Medium, 8);
    // Zero-probability plan: every chaos code path is active (decide()
    // per job, recv_timeout collection, retry bookkeeping) but no fault
    // is ever injected, so this isolates the machinery's cost.
    let chaos = ChaosPlan::default();
    let policy = RetryPolicy::default();
    eprintln!("measuring fault-tolerance overhead (fault-free, medium n=8)...");

    let par_s = median_secs(|| {
        compile_parallel(&src, &opts, WORKERS).expect("par");
    });
    let chaos_s = median_secs(|| {
        Build {
            jobs: WORKERS,
            faults: Some((&chaos, &policy)),
            ..Build::new(&src, &opts)
        }
        .run()
        .expect("chaos");
    });
    let overhead = chaos_s / par_s - 1.0;

    let json = format!(
        "{{\n  \"schema\": \"warp-bench-faults/1\",\n  \"workload\": \"fig6-medium-n8\",\n  \
         \"workers\": {WORKERS},\n  \"runs\": {RUNS},\n  \"par_s\": {par_s:.6},\n  \
         \"chaos_fault_free_s\": {chaos_s:.6},\n  \"overhead_frac\": {overhead:.6},\n  \
         \"budget_frac\": {FAULT_OVERHEAD_BUDGET}\n}}\n"
    );
    let out_path = "BENCH_faults.json";
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("bench_json: writing {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("wrote {out_path}");

    if chaos_s > par_s * (1.0 + FAULT_OVERHEAD_BUDGET) + FAULT_OVERHEAD_SLACK_S {
        eprintln!(
            "bench_json: fault-tolerance overhead {:.1}% exceeds the {:.0}% budget \
             (par {par_s:.4}s vs chaos {chaos_s:.4}s)",
            overhead * 100.0,
            FAULT_OVERHEAD_BUDGET * 100.0
        );
        std::process::exit(1);
    }
}
