//! # warp-ir
//!
//! Compiler **phase 2** for the Warp parallel compiler: "construction
//! of the flowgraph, local optimization, and computation of global
//! dependencies" (paper §3.2). The dependences are computed once, on
//! the machine-level graph `warp_codegen::mdeps` builds after register
//! allocation — the graph phase 3 schedules with, which also sees the
//! anti and output dependences register reuse adds.
//!
//! * [`ir`] — the three-address IR over virtual registers and abstract
//!   arrays, organized as a CFG of basic blocks;
//! * [`lower`] — AST → IR lowering (one function at a time — the unit
//!   of parallel compilation);
//! * [`opt`] — constant folding, local value numbering (CSE + copy and
//!   constant propagation), dead-code elimination, unreachable-block
//!   removal, iterated to a fixpoint;
//! * [`dataflow`] — bitsets and iterative liveness analysis;
//! * [`loops`] — dominators, natural loops, loop nesting depth;
//! * [`inline`] — procedure inlining, the paper's §5.1 extension for
//!   programs of many small functions;
//! * [`phase2`](mod@phase2) — the driver a function master runs, with deterministic
//!   work counters for the host simulator;
//! * [`verify`] — the IR verifier (CFG well-formedness, types,
//!   def-before-use) run at every pass boundary under
//!   `verify_each_pass`.
//!
//! # Example
//!
//! ```
//! use warp_lang::phase1;
//! use warp_ir::phase2::phase2;
//!
//! let src = "module m; section a on cells 0..0;\n\
//!            function f(x: float): float\n\
//!            var t: float; v: float[8]; i: int;\n\
//!            begin t := 0.0; for i := 0 to 7 do t := t + v[i] * x; end; return t; end; end;";
//! let checked = phase1(src)?;
//! let f = &checked.module.sections[0].functions[0];
//! let result = phase2(f, &checked.sections[0].symbol_tables[0],
//!                     &checked.sections[0].signatures)?;
//! assert_eq!(result.loops.loops.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod absint;
pub mod dataflow;
pub mod eval;
pub mod ifconv;
pub mod inline;
pub mod ir;
pub mod loops;
pub mod lower;
pub mod opt;
pub mod phase2;
pub mod unroll;
pub mod verify;

pub use absint::{analyze, Analysis, DeadEdge, FactSet, LoopBound, Rewrite, Site};
pub use eval::{eval_ir, EvalOutcome, EvalTrap};
pub use ifconv::{if_convert, IfConvPolicy, IfConvStats};
pub use inline::{inline_module, InlinePolicy, InlineStats};
pub use ir::{ArrayId, Block, BlockId, FuncIr, Inst, IrBinOp, IrType, IrUnOp, Term, Val, VirtReg};
pub use loops::{Loop, LoopInfo};
pub use lower::{lower_function, lower_module, LowerError};
pub use opt::{apply_facts, optimize, optimize_traced, optimize_verified, FactOptStats, OptStats};
pub use phase2::{phase2, phase2_traced, phase2_verified, Phase2Error, Phase2Result, Phase2Work};
pub use unroll::{unroll_loops, UnrollPolicy, UnrollStats};
pub use verify::{verify_after, verify_func, VerifyError};
