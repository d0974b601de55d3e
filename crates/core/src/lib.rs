//! # parcc — the parallel compiler
//!
//! The paper's contribution (*Parallel Compilation for a Parallel
//! Machine*, Gross/Zobel/Zolg, PLDI 1989): compile the functions of a
//! Warp module in parallel on a network of workstations, one function
//! master per function, coordinated by a master and per-section section
//! masters (§3.2).
//!
//! * [`build`] — the build pipeline: one [`Build`] request, run
//!   through prepare → probe → execute → fallback → link → verify on
//!   one of three executors (the caller's thread, threads, the farm)
//!   under one recovery loop;
//! * [`driver`] — the real compiler's phases (1–4) and the
//!   per-function work records;
//! * [`scheduler`] — FCFS distribution and cost-estimate grouping;
//! * [`costmodel`] / [`simspec`] — replay real compilations through the
//!   1989 host simulator;
//! * [`metrics`] — elapsed/CPU measurements and the §4.2.3 overhead
//!   decomposition (implementation vs system, possibly negative);
//! * [`experiment`] — one-call runners for every measurement in the
//!   evaluation, plus the §5.1 inlining ablation;
//! * [`parmake`] — the §3.4 parallel-make baseline and the combined
//!   parallel-make × parallel-compiler mode;
//! * [`threads`] — real parallel compilation with OS threads (the same
//!   hierarchy, on today's hardware) and the fault vocabulary every
//!   executor shares;
//! * [`farm`] — the distributed version: a coordinator driving real
//!   `warpd-worker` OS processes over sockets, content-addressed
//!   object exchange through the shared cache, seeded real-process
//!   fault injection;
//! * [`fuzz`] — the differential fuzzing harness: seeded W2 corpora
//!   run through the strict interpreter, the batched interpreter and
//!   the static verifier, with shrinking and regression fixtures.

#![warn(missing_docs)]

pub mod build;
pub mod costmodel;
pub mod driver;
mod exec;
pub mod experiment;
pub mod farm;
pub mod fncache;
pub mod fuzz;
pub mod katseff;
pub mod metrics;
pub mod parmake;
pub mod scheduler;
pub mod simspec;
pub mod threads;

pub use build::{Build, BuildReport, FarmCensus};
pub use costmodel::{CostModel, CALIBRATED};
pub use driver::{
    compile_function, compile_function_traced, compile_module_source, compile_module_traced,
    facts_report, link_module, link_module_parallel_traced, link_module_traced, run_phase1,
    run_phase1_parallel_traced, run_phase1_traced, CompileError, CompileOptions, CompileResult,
    FunctionRecord,
};
pub use experiment::{
    Comparison, ComparisonTraces, Experiment, FaultedFig6, FaultedPoint, InlineAblation, Placement,
};
pub use farm::{compile_farm, run_worker, FarmConfig, FARM_PROTOCOL_VERSION};
pub use fncache::{function_key, options_fingerprint, CachedFunction, FnCache};
pub use katseff::{assembler_sweep, katseff_comparison, AssemblerSweep};
pub use metrics::{overheads, speedup, Measurement, Overheads};
pub use parmake::{
    parmake_comparison, ParmakeReport, SystemModule, PARMAKE_FAULTS, PARMAKE_FAULT_SEED,
};
pub use scheduler::{fcfs, grouped_lpt, grouped_lpt_estimates, Assignment};
pub use threads::{
    compile_parallel, compile_parallel_cached, default_jobs, resolve_jobs, ChaosAction, ChaosPlan,
    FaultStats, RetryPolicy,
};
