//! # warp-obs
//!
//! Unified span tracing for the Warp parallel-compilation stack. The
//! paper's contribution is empirical — §4 decomposes elapsed time into
//! master / parser / section / function work and overheads — and this
//! crate is the instrumentation layer that makes those decompositions
//! observable end to end instead of reconstructed from coarse
//! aggregates.
//!
//! One event model, two clock domains:
//!
//! * the **build pipeline** (`parcc::build`, `parcc::driver`) and
//!   the compiler passes record real monotonic time
//!   ([`ClockDomain::Monotonic`]);
//! * the **netsim engine** records its deterministic virtual timeline
//!   ([`ClockDomain::Virtual`]) — process dispatch/block/complete
//!   events and per-resource service spans at simulated 1989 scale.
//!
//! Both produce the same [`TraceSnapshot`], export to the same Chrome
//! `trace_event` JSON ([`to_chrome_json`], loadable in Perfetto or
//! `chrome://tracing`) and render the same text summary
//! ([`render_summary`]). The record schema and its stability
//! guarantees are specified in `docs/TRACING.md`.
//!
//! The crate is dependency-free and forbids `unsafe`; a disabled
//! [`Trace`] makes every instrumentation point a no-op, so the hot
//! paths pay nothing when tracing is off.
//!
//! # Example
//!
//! ```
//! use warp_obs::{ClockDomain, Trace};
//!
//! let trace = Trace::new(ClockDomain::Monotonic);
//! let track = trace.track("driver");
//! {
//!     let mut span = trace.span("driver", "parse", track);
//!     span.arg("tokens", 128.0);
//! } // recorded on drop
//! let snap = trace.snapshot();
//! assert_eq!(snap.spans.len(), 1);
//! let json = warp_obs::to_chrome_json(&snap);
//! assert!(warp_obs::validate_chrome_json(&json).unwrap().spans == 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod summary;
pub mod trace;

pub use chrome::{to_chrome_json, validate_chrome_json, ChromeTraceStats};
pub use summary::render_summary;
pub use trace::{
    ClockDomain, CounterRecord, InstantRecord, SpanGuard, SpanRecord, Trace, TraceSnapshot, TrackId,
};
