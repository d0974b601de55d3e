//! Phase-2 driver: lower one function, optimize it, analyze its loops,
//! and account for the work done.
//!
//! This is the first half of what a *function master* executes in the
//! parallel compiler (paper §3.2); the second half (phase 3, dependence
//! analysis, software pipelining and code generation) lives in
//! `warp-codegen`.

use crate::absint::{analyze, FactSet};
use crate::ifconv::{if_convert, IfConvPolicy, IfConvStats};
use crate::ir::{BlockId, FuncIr};
use crate::loops::{analyze_loops, LoopInfo};
use crate::lower::{lower_function, LowerError};
use crate::opt::{apply_facts, optimize_traced, OptStats};
use crate::unroll::{unroll_loops, UnrollPolicy, UnrollStats};
use crate::verify::{verify_after, VerifyError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use warp_lang::ast::Function;
use warp_lang::sema::{Signature, SymbolTable};
use warp_obs::{Trace, TrackId};

/// Deterministic work counters for phase 2, consumed by the host
/// simulator to convert real compilations into 1989-scale times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Phase2Work {
    /// IR instructions after lowering (before optimization).
    pub lowered_insts: usize,
    /// IR instructions after optimization.
    pub optimized_insts: usize,
    /// Instructions visited by optimization passes.
    pub opt_visits: usize,
    /// Optimization pipeline iterations.
    pub opt_iterations: usize,
    /// Always 0: phase 2 builds no dependence graph; phase 3 counts its
    /// machine-level tests in `Phase3Work::dep_tests`. Kept only because
    /// the benchmark's `ir.dep_tests` metric reads it, and retired
    /// together with that metric.
    pub dep_tests: usize,
    /// Number of loops analyzed.
    pub loops: usize,
    /// Abstract-interpretation worklist iterations (0 when the absint
    /// pass is disabled), reported alongside the dataflow iteration
    /// counts so the cost model can charge the analysis work.
    pub absint_iterations: usize,
    /// Statically-infeasible branches pruned by the fact-driven pass.
    pub branches_pruned: usize,
    /// Trap checks elided by the fact-driven pass.
    pub trap_checks_elided: usize,
}

impl Phase2Work {
    /// A single scalar work measure (used as the simulator's unit of
    /// phase-2 CPU work). Weights reflect the relative cost of the
    /// activities in a Lisp implementation of the era.
    pub fn units(&self) -> u64 {
        self.lowered_insts as u64 * 4
            + self.opt_visits as u64 * 3
            + self.loops as u64 * 20
            + self.absint_iterations as u64 * 5
    }
}

/// Everything phase 2 produces for one function.
#[derive(Debug, Clone)]
pub struct Phase2Result {
    /// The optimized IR.
    pub ir: FuncIr,
    /// Loop forest.
    pub loops: LoopInfo,
    /// Optimization statistics.
    pub opt_stats: OptStats,
    /// Loop-unrolling statistics (zero unless unrolling was requested).
    pub unroll_stats: UnrollStats,
    /// If-conversion statistics (zero unless requested).
    pub ifconv_stats: IfConvStats,
    /// Facts proven by the abstract interpreter about the *final* IR
    /// (`None` unless the absint pass was requested).
    pub facts: Option<FactSet>,
    /// Work counters.
    pub work: Phase2Work,
}

impl Phase2Result {
    /// `true` if block `b` is a pipelinable (single-block) loop.
    pub fn is_pipeline_loop(&self, b: BlockId) -> bool {
        self.loops.pipelinable_blocks().contains(&b)
    }
}

/// Runs phase 2 on one function with no optional optimization (the
/// published compiler).
///
/// # Errors
///
/// Propagates [`LowerError`] (only possible on ASTs that did not pass
/// the checker).
pub fn phase2(
    func: &Function,
    symbols: &SymbolTable,
    signatures: &HashMap<String, Signature>,
) -> Result<Phase2Result, LowerError> {
    match phase2_verified(func, symbols, signatures, None, None, false, false) {
        Ok(r) => Ok(r),
        Err(Phase2Error::Lower(e)) => Err(e),
        Err(Phase2Error::Verify(e)) => unreachable!("verification disabled: {e}"),
    }
}

/// A phase-2 failure: either lowering rejected the AST or (with
/// `verify_each_pass` enabled) a pass broke an IR invariant.
#[derive(Debug, Clone)]
pub enum Phase2Error {
    /// Lowering failed.
    Lower(LowerError),
    /// A pass produced IR that fails verification.
    Verify(VerifyError),
}

impl fmt::Display for Phase2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase2Error::Lower(e) => e.fmt(f),
            Phase2Error::Verify(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Phase2Error {}

impl From<LowerError> for Phase2Error {
    fn from(e: LowerError) -> Self {
        Phase2Error::Lower(e)
    }
}

impl From<VerifyError> for Phase2Error {
    fn from(e: VerifyError) -> Self {
        Phase2Error::Verify(e)
    }
}

/// Phase 2 with the optional optimizations its arguments select —
/// if-conversion (making branchy loop bodies pipelinable) runs before
/// unrolling, then the fact-driven absint pass — and, with
/// `verify_each_pass`, the IR verifier run at every pass boundary:
/// after lowering, after each individual optimization pass, and after
/// if-conversion, unrolling and the absint pass. A failure names the
/// pass that broke the IR.
///
/// # Errors
///
/// Propagates [`LowerError`]; returns [`Phase2Error::Verify`] when
/// `verify_each_pass` is set and a pass breaks an invariant.
#[allow(clippy::too_many_arguments)]
pub fn phase2_verified(
    func: &Function,
    symbols: &SymbolTable,
    signatures: &HashMap<String, Signature>,
    unroll: Option<&UnrollPolicy>,
    ifconv: Option<&IfConvPolicy>,
    absint: bool,
    verify_each_pass: bool,
) -> Result<Phase2Result, Phase2Error> {
    phase2_traced(
        func,
        symbols,
        signatures,
        unroll,
        ifconv,
        absint,
        verify_each_pass,
        &Trace::disabled(),
        TrackId(0),
    )
}

/// One analyze→apply round of the fact-driven absint pass, iterated
/// until no rewrite fires (bounded). Emits `"absint"` spans for the
/// analysis and the rewrite application.
fn absint_stage(
    ir: &mut FuncIr,
    stage: &str,
    verify_each_pass: bool,
    trace: &Trace,
    track: TrackId,
) -> Result<(usize, usize, usize), Phase2Error> {
    let (mut iterations, mut pruned, mut elided) = (0usize, 0usize, 0usize);
    for round in 0..3 {
        let analysis = {
            let mut span = trace.span("absint", format!("absint:{stage}:analyze"), track);
            let a = analyze(ir);
            span.arg("iterations", a.facts.iterations as f64);
            span.arg("claims", a.facts.claim_count() as f64);
            span.arg("round", round as f64);
            a
        };
        iterations += analysis.facts.iterations;
        if analysis.rewrites.is_empty() {
            break;
        }
        let stats = {
            let _span = trace.span("absint", format!("absint:{stage}:apply_facts"), track);
            apply_facts(ir, &analysis.rewrites)
        };
        if verify_each_pass {
            let _span = trace.span("verify", "ir:apply_facts", track);
            verify_after(ir, "apply_facts")?;
        }
        pruned += stats.branches_pruned;
        elided += stats.trap_checks_elided;
        if !stats.changed() {
            break;
        }
    }
    Ok((iterations, pruned, elided))
}

/// [`phase2_verified`] with span tracing: records one `"pass"` span
/// per phase-2 stage (`lower`, each optimization pass via
/// [`crate::opt::optimize_traced`], `if_convert`, `unroll_loops`,
/// `analyze_loops`), `"absint"` spans for the abstract
/// interpreter and its fact-driven rewrites, and `"verify"` spans for
/// the per-pass IR verification, all on `track` of `trace`. With a
/// disabled trace this is exactly [`phase2_verified`].
///
/// # Errors
///
/// Propagates [`LowerError`]; returns [`Phase2Error::Verify`] when
/// `verify_each_pass` is set and a pass breaks an invariant.
#[allow(clippy::too_many_arguments)]
pub fn phase2_traced(
    func: &Function,
    symbols: &SymbolTable,
    signatures: &HashMap<String, Signature>,
    unroll: Option<&UnrollPolicy>,
    ifconv: Option<&IfConvPolicy>,
    absint: bool,
    verify_each_pass: bool,
    trace: &Trace,
    track: TrackId,
) -> Result<Phase2Result, Phase2Error> {
    let mut ir = {
        let _span = trace.span("pass", "lower", track);
        lower_function(func, symbols, signatures)?
    };
    if verify_each_pass {
        let _span = trace.span("verify", "ir:lower", track);
        verify_after(&ir, "lower")?;
    }
    let lowered_insts = ir.inst_count();
    // The absint pass runs right after lowering — cross-block facts
    // (zero-initialized accumulators, loop ranges) are visible here
    // that the purely local optimizer cannot see — and again after the
    // optimization pipeline, once cleanup has exposed new constants.
    let (mut absint_iterations, mut branches_pruned, mut trap_checks_elided) = (0, 0, 0);
    if absint {
        let (it, p, e) = absint_stage(&mut ir, "post-lower", verify_each_pass, trace, track)?;
        absint_iterations += it;
        branches_pruned += p;
        trap_checks_elided += e;
    }
    let mut opt_stats = optimize_traced(&mut ir, 10, verify_each_pass, trace, track)?;
    let mut ifconv_stats = IfConvStats::default();
    if let Some(policy) = ifconv {
        {
            let _span = trace.span("pass", "if_convert", track);
            ifconv_stats = if_convert(&mut ir, policy);
        }
        if verify_each_pass {
            let _span = trace.span("verify", "ir:if_convert", track);
            verify_after(&ir, "if_convert")?;
        }
        if ifconv_stats.converted > 0 {
            let again = optimize_traced(&mut ir, 6, verify_each_pass, trace, track)?;
            opt_stats.insts_visited += again.insts_visited;
            opt_stats.iterations += again.iterations;
        }
    }
    let mut unroll_stats = UnrollStats::default();
    if let Some(policy) = unroll {
        {
            let _span = trace.span("pass", "unroll_loops", track);
            unroll_stats = unroll_loops(&mut ir, policy);
        }
        if verify_each_pass {
            let _span = trace.span("verify", "ir:unroll_loops", track);
            verify_after(&ir, "unroll_loops")?;
        }
        if unroll_stats.unrolled > 0 {
            // Clean up the duplicated bodies (CSE across copies etc.).
            let again = optimize_traced(&mut ir, 4, verify_each_pass, trace, track)?;
            opt_stats.insts_visited += again.insts_visited;
            opt_stats.iterations += again.iterations;
        }
    }
    let _ = (&unroll_stats, &ifconv_stats);
    // Post-optimization absint round, then a final analysis so the
    // shipped facts describe the exact IR phase 3 will consume.
    let mut facts = None;
    if absint {
        let (it, p, e) = absint_stage(&mut ir, "post-opt", verify_each_pass, trace, track)?;
        absint_iterations += it;
        branches_pruned += p;
        trap_checks_elided += e;
        if p + e > 0 {
            let again = optimize_traced(&mut ir, 4, verify_each_pass, trace, track)?;
            opt_stats.insts_visited += again.insts_visited;
            opt_stats.iterations += again.iterations;
        }
        let final_analysis = {
            let mut span = trace.span("absint", "absint:final:analyze", track);
            let a = analyze(&ir);
            span.arg("iterations", a.facts.iterations as f64);
            span.arg("claims", a.facts.claim_count() as f64);
            a
        };
        absint_iterations += final_analysis.facts.iterations;
        facts = Some(final_analysis.facts);
    }
    let loops = {
        let _span = trace.span("pass", "analyze_loops", track);
        analyze_loops(&ir)
    };
    let work = Phase2Work {
        lowered_insts,
        optimized_insts: ir.inst_count(),
        opt_visits: opt_stats.insts_visited,
        opt_iterations: opt_stats.iterations,
        dep_tests: 0,
        loops: loops.loops.len(),
        absint_iterations,
        branches_pruned,
        trap_checks_elided,
    };
    Ok(Phase2Result {
        ir,
        loops,
        opt_stats,
        unroll_stats,
        ifconv_stats,
        facts,
        work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_lang::phase1;

    fn run(body: &str) -> Phase2Result {
        let src = format!(
            "module m; section a on cells 0..0; function f(x: float, n: int): float \
             var t: float; v: float[16]; i: int; begin {body} end; end;"
        );
        let checked = phase1(&src).expect("phase1");
        let f = &checked.module.sections[0].functions[0];
        phase2(
            f,
            &checked.sections[0].symbol_tables[0],
            &checked.sections[0].signatures,
        )
        .expect("phase2")
    }

    #[test]
    fn phase2_produces_consistent_result() {
        let r = run("t := 0.0; for i := 0 to 15 do t := t + v[i] * x; end; return t;");
        assert_eq!(r.loops.loops.len(), 1);
        assert!(r.work.units() > 0);
        assert!(r.work.optimized_insts <= r.work.lowered_insts);
        assert_eq!(r.work.dep_tests, 0);
        let hdr = r.loops.pipelinable_blocks()[0];
        assert!(r.is_pipeline_loop(hdr));
    }

    #[test]
    fn verified_phase2_accepts_valid_source() {
        let src = "module m; section a on cells 0..0; function f(x: float, n: int): float \
             var t: float; v: float[16]; i: int; begin t := 0.0; \
             for i := 0 to 15 do t := t + v[i] * x; end; return t; end; end;";
        let checked = phase1(src).expect("phase1");
        let f = &checked.module.sections[0].functions[0];
        let r = phase2_verified(
            f,
            &checked.sections[0].symbol_tables[0],
            &checked.sections[0].signatures,
            Some(&crate::unroll::UnrollPolicy::default()),
            Some(&crate::ifconv::IfConvPolicy::default()),
            true,
            true,
        )
        .expect("verified phase 2 must pass on valid source");
        let facts = r.facts.expect("absint requested");
        assert!(r.work.absint_iterations > 0);
        // No division anywhere, every consumed value defined, and the
        // base load of each unrolled group has a proven-bounded index.
        // (The +1/+2/+3 offset loads are beyond the interval domain:
        // the stride-4 entry set {0,4,8,12} abstracts to [0,15].)
        assert!(facts.div_trap_free, "{facts:?}");
        assert!(facts.def_free, "{facts:?}");
        assert!(facts.mem_safe >= 1, "{facts:?}");
    }

    #[test]
    fn absint_pass_prunes_infeasible_branch_and_elides_trap_check() {
        // t starts at 0.0, so `t > 0.5` is statically false on the
        // first branch... but t changes in the loop; instead use a
        // plainly infeasible diamond on a zero-initialized scalar
        // *before* the loop, plus an `i mod 16` whose left operand is
        // the loop counter bounded by the loop range — both beyond
        // the local optimizer (cross-block; non-constant operand).
        let src = "module m; section a on cells 0..0; \
             function f(x: float, n: int): float \
             var t: float; g: float; v: float[16]; i: int; k: int; begin \
             t := 0.0; g := 0.1; \
             if t > g then t := x; end; \
             for i := 0 to 15 do k := i mod 16; t := t + v[k] * x; end; \
             return t; end; end;";
        let checked = phase1(src).expect("phase1");
        let f = &checked.module.sections[0].functions[0];
        let r = phase2_verified(
            f,
            &checked.sections[0].symbol_tables[0],
            &checked.sections[0].signatures,
            None,
            None,
            true,
            true,
        )
        .expect("phase2");
        assert!(r.work.branches_pruned >= 1, "{:?}\n{}", r.work, r.ir.dump());
        assert!(
            r.work.trap_checks_elided >= 1,
            "{:?}\n{}",
            r.work,
            r.ir.dump()
        );
        assert!(r.work.units() > 0);
        let facts = r.facts.expect("facts shipped");
        assert!(facts.div_trap_free, "the mod was elided: {facts:?}");
    }

    #[test]
    fn work_scales_with_function_size() {
        let small = run("t := x; return t;");
        let large = run(
            "t := 0.0; for i := 0 to 15 do t := t + v[i] * x; v[i] := t; end; \
             for i := 0 to 15 do t := t + v[i]; end; return t;",
        );
        assert!(large.work.units() > small.work.units());
    }
}
