//! # parcc-bench
//!
//! The measurement harness: regenerates every table and figure of the
//! paper's evaluation (§4, Figures 3–16) from the reproduction.
//!
//! The `figures` binary prints the same series the paper plots:
//!
//! ```text
//! cargo run -p parcc-bench --release --bin figures            # everything
//! cargo run -p parcc-bench --release --bin figures -- fig6    # one figure
//! ```
//!
//! Its complete output is checked in as `figures_output.txt` and
//! pinned byte for byte by `tests/figures_golden.rs`. Builds and
//! requests on a real clock are the standalone `benchmark/` crate's
//! subject, not this one's; `batch_bench` gates the batched
//! interpreter's throughput.

#![warn(missing_docs)]

pub mod figures;

pub use figures::{render, write_fig6_traces, EvalData, FIGURES};
