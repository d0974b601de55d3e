//! The compiler driver: real, complete compilation of a Warp module.
//!
//! [`compile_module_source`] is the *sequential compiler* of the paper
//! — the baseline "commonly in use" that every speedup is measured
//! against. [`compile_function`] is the unit of work a *function
//! master* performs (phases 2 and 3 for one function); every executor
//! of the build pipeline ([`crate::build`]) and the simulator
//! ([`crate::simspec`]) reuse it so that the parallel compiler provably
//! performs the same work. This module holds the phases themselves —
//! phase 1 ([`run_phase1`], [`prepare_module`]), the per-function
//! compile, phase 4 ([`link_module`]) — and the types they produce; the
//! pipeline that sequences them is written once, in
//! [`Build::run`](crate::build::Build::run). Phases 1 and 4 run on the
//! master, sequentially, as in the paper (§3.2).

use crate::build::Build;
use serde::{Deserialize, Serialize};
use std::fmt;
use warp_analyze::{MachineError, ScheduleError};
use warp_codegen::link::{assemble_module, link_section, LinkWork};
use warp_codegen::phase3::{phase3_traced, Phase3Work};
use warp_ir::phase2::{phase2_traced, Phase2Error, Phase2Work};
use warp_ir::FactSet;
use warp_lang::{CheckedModule, Phase1Error};
use warp_obs::{Trace, TrackId};
use warp_target::program::{FunctionImage, ModuleImage};
use warp_target::CellConfig;

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Target cell configuration.
    pub cell: CellConfig,
    /// Bound on the modulo scheduler's II search.
    pub max_ii: u32,
    /// Procedure inlining (the paper's §5.1 extension); `None`
    /// reproduces the published compiler, which performed "only
    /// minimal inter-procedural optimizations".
    pub inline: Option<warp_ir::InlinePolicy>,
    /// Loop unrolling (the §6 compile-time-for-code-quality trade);
    /// `None` reproduces the published compiler.
    pub unroll: Option<warp_ir::UnrollPolicy>,
    /// If-conversion: speculate small branch diamonds into selects so
    /// branchy loop bodies become software-pipelinable.
    pub if_convert: Option<warp_ir::IfConvPolicy>,
    /// Run the static verifiers at every pass boundary: the IR
    /// verifier after lowering and after each optimization pass, and
    /// the machine-code + schedule checkers on every emitted function
    /// image. Compilation fails on the first violated invariant.
    pub verify_each_pass: bool,
    /// Run the abstract-interpretation value/poison analysis per
    /// function (after lowering and again after optimization), apply
    /// its fact-driven rewrites, and ship the proven [`FactSet`] in
    /// the function record (and through the incremental cache).
    pub absint: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            cell: CellConfig::default(),
            max_ii: warp_codegen::DEFAULT_MAX_II,
            inline: None,
            unroll: None,
            if_convert: None,
            verify_each_pass: false,
            absint: false,
        }
    }
}

impl CompileOptions {
    /// Options with the §5.1 inlining extension enabled.
    pub fn with_inlining() -> Self {
        CompileOptions {
            inline: Some(warp_ir::InlinePolicy::default()),
            ..Self::default()
        }
    }
}

/// Compilation errors from any phase.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// Phase 1 (parse / semantic check) failed; the master aborts the
    /// compilation (paper §3.2).
    Phase1(Phase1Error),
    /// Lowering failed (internal error after a clean check).
    Lower(warp_ir::LowerError),
    /// Phase 3 failed for a function.
    Phase3(warp_codegen::Phase3Error),
    /// Linking failed.
    Link(warp_codegen::LinkError),
    /// The IR verifier rejected a pass's output
    /// (`verify_each_pass` only).
    Verify(warp_ir::VerifyError),
    /// The static machine-code verifier rejected an emitted image
    /// (`verify_each_pass` or an explicit `--verify` run).
    MachineVerify(Vec<MachineError>),
    /// The static schedule checker rejected a pipelined loop layout.
    ScheduleVerify(Vec<ScheduleError>),
    /// A worker thread failed outside the compiler proper — it
    /// panicked or its channel disconnected — and the failure survived
    /// every retry and the in-master sequential fallback. The payload
    /// is a human-readable diagnostic; the master reports it instead
    /// of panicking itself.
    Worker(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Phase1(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
            CompileError::Phase3(e) => write!(f, "{e}"),
            CompileError::Link(e) => write!(f, "{e}"),
            CompileError::Verify(e) => write!(f, "{e}"),
            CompileError::MachineVerify(errs) => {
                let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
                write!(f, "{}", msgs.join("\n"))
            }
            CompileError::ScheduleVerify(errs) => {
                let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
                write!(f, "{}", msgs.join("\n"))
            }
            CompileError::Worker(msg) => write!(f, "worker failure: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<Phase1Error> for CompileError {
    fn from(e: Phase1Error) -> Self {
        CompileError::Phase1(e)
    }
}

impl From<warp_ir::LowerError> for CompileError {
    fn from(e: warp_ir::LowerError) -> Self {
        CompileError::Lower(e)
    }
}

impl From<warp_codegen::Phase3Error> for CompileError {
    fn from(e: warp_codegen::Phase3Error) -> Self {
        CompileError::Phase3(e)
    }
}

impl From<warp_codegen::LinkError> for CompileError {
    fn from(e: warp_codegen::LinkError) -> Self {
        CompileError::Link(e)
    }
}

impl From<Phase2Error> for CompileError {
    fn from(e: Phase2Error) -> Self {
        match e {
            Phase2Error::Lower(e) => CompileError::Lower(e),
            Phase2Error::Verify(e) => CompileError::Verify(e),
        }
    }
}

/// Everything measured about compiling one function — the deterministic
/// work profile the host simulator turns into 1989 seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionRecord {
    /// Section index.
    pub section: usize,
    /// Function name.
    pub name: String,
    /// Source lines of the function (declaration through `end`).
    pub lines: usize,
    /// Maximum loop nesting depth.
    pub loop_depth: usize,
    /// Phase-1 work attributable to this function (its share of
    /// parsing; a function master re-parses its own function).
    pub parse_units: u64,
    /// Phase-2 work counters.
    pub p2: Phase2Work,
    /// Phase-3 work counters.
    pub p3: Phase3Work,
    /// Size of the produced object in bytes (what travels back over
    /// the network to the file server).
    pub object_bytes: u64,
    /// The load balancer's a-priori cost estimate (LoC × nesting,
    /// §4.3) — available to the master *before* compilation.
    pub cost_estimate: u64,
    /// Facts proven by the abstract interpreter about the final IR
    /// (`None` unless [`CompileOptions::absint`] was set). Cached with
    /// the function, so warm rebuilds skip re-analysis.
    pub facts: Option<FactSet>,
}

impl FunctionRecord {
    /// Total compile work in abstract units (phases 2 + 3; the
    /// function master's CPU burst).
    pub fn compile_units(&self) -> u64 {
        self.p2.units() + self.p3.units()
    }

    /// Total units including the function master's own parse.
    pub fn total_units(&self) -> u64 {
        self.parse_units + self.compile_units()
    }
}

/// The result of compiling a whole module.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The final linked, downloadable image.
    pub module_image: ModuleImage,
    /// Per-function work records, in source order.
    pub records: Vec<FunctionRecord>,
    /// Phase-1 work for the whole module in abstract units.
    pub phase1_units: u64,
    /// Phase-4 (assembly/link) work in abstract units.
    pub link_units: u64,
    /// Warnings the front end produced (the sema checker computes
    /// these even on success; surfaced in `--emit summary`).
    pub warnings: usize,
}

impl CompileResult {
    /// Total work units across all phases (the sequential compiler's
    /// CPU demand).
    pub fn total_units(&self) -> u64 {
        self.phase1_units
            + self
                .records
                .iter()
                .map(FunctionRecord::compile_units)
                .sum::<u64>()
            + self.link_units
    }
}

/// Runs phase 1 on a module source (the master's sequential step).
/// Returns the checked module, abstract work units, and the number of
/// front-end warnings.
///
/// # Errors
///
/// Returns the phase-1 diagnostics on failure.
pub fn run_phase1(source: &str) -> Result<(CheckedModule, u64, usize), CompileError> {
    run_phase1_traced(source, &Trace::disabled(), TrackId(0))
}

/// [`run_phase1`] with span tracing: the lex/parse and semantic-check
/// halves of phase 1 become separate `"driver"` spans (`parse`,
/// `sema`) on `track` of `trace`.
///
/// # Errors
///
/// Returns the phase-1 diagnostics on failure.
pub fn run_phase1_traced(
    source: &str,
    trace: &Trace,
    track: TrackId,
) -> Result<(CheckedModule, u64, usize), CompileError> {
    let (parsed, tokens) = {
        let mut span = trace.span("driver", "parse", track);
        let lexed = warp_lang::lexer::lex(source);
        let tokens = lexed.tokens.len();
        let parsed = warp_lang::parser::parse_lexed(lexed);
        span.arg("bytes", source.len() as f64);
        (parsed, tokens)
    };
    let mut diagnostics = parsed.diagnostics;
    let (checked, sema_diags) = {
        let _span = trace.span("driver", "sema", track);
        warp_lang::sema::check(parsed.module)
    };
    diagnostics.merge_sorted(sema_diags);
    if diagnostics.has_errors() {
        let rendered = diagnostics.render_all_with_source(source);
        return Err(CompileError::Phase1(Phase1Error {
            diagnostics,
            rendered,
        }));
    }
    let statements = warp_lang::statement_count(&checked.module);
    let units = tokens as u64 * 2 + statements as u64 * 3 + source.len() as u64 / 8;
    Ok((checked, units, diagnostics.warning_count()))
}

/// [`run_phase1_traced`] under the name of the parallel phase 1 it
/// replaced: phase 1 runs on the master, and `workers` is unused. Kept
/// only because the benchmark's layer probe calls it; the next change
/// to `benchmark/` retires it.
///
/// # Errors
///
/// Returns the phase-1 diagnostics on failure.
#[doc(hidden)]
pub fn run_phase1_parallel_traced(
    source: &str,
    _workers: usize,
    trace: &Trace,
    track: TrackId,
) -> Result<(CheckedModule, u64, usize), CompileError> {
    run_phase1_traced(source, trace, track)
}

/// Phase 1 plus the optional inlining extension: the checked module the
/// function masters will compile. When inlining runs, the transformed
/// module is re-checked (and the extra work charged to phase 1).
///
/// # Errors
///
/// Returns the phase-1 diagnostics on failure.
pub fn prepare_module(
    source: &str,
    opts: &CompileOptions,
) -> Result<(CheckedModule, u64, usize), CompileError> {
    prepare(source, opts, &Trace::disabled(), TrackId(0))
}

/// [`prepare_module`] for the pipeline, traced: phase 1
/// ([`run_phase1_traced`]), then the optional inlining extension (a
/// `"driver"` span, `inline`) and its defensive re-check — all on the
/// master, whatever executor runs the compiles.
///
/// # Errors
///
/// Returns the phase-1 diagnostics on failure.
pub(crate) fn prepare(
    source: &str,
    opts: &CompileOptions,
    trace: &Trace,
    track: TrackId,
) -> Result<(CheckedModule, u64, usize), CompileError> {
    let (checked, mut units, warnings) = run_phase1_traced(source, trace, track)?;
    let Some(policy) = &opts.inline else {
        return Ok((checked, units, warnings));
    };
    let mut span = trace.span("driver", "inline", track);
    let (inlined, stats) = warp_ir::inline_module(&checked.module, policy);
    span.arg("inlined_calls", stats.inlined_calls as f64);
    // Charge the transform + re-check as additional setup work.
    units += stats.inlined_calls as u64 * 200 + inlined.function_count() as u64 * 50;
    let (rechecked, diags) = warp_lang::sema::check(inlined);
    if diags.has_errors() {
        // Cannot happen for a module that passed phase 1; keep a
        // defensive error path rather than panicking.
        let rendered = diags
            .iter()
            .map(|d| d.message.clone())
            .collect::<Vec<_>>()
            .join("; ");
        return Err(CompileError::Phase1(warp_lang::Phase1Error {
            diagnostics: diags,
            rendered,
        }));
    }
    Ok((rechecked, units, warnings))
}

/// Compiles one function (phases 2 + 3): the function master's job.
///
/// # Errors
///
/// Returns [`CompileError`] if lowering or code generation fails.
pub fn compile_function(
    checked: &CheckedModule,
    source: &str,
    si: usize,
    fi: usize,
    opts: &CompileOptions,
) -> Result<(FunctionImage, FunctionRecord), CompileError> {
    compile_function_traced(
        checked,
        source,
        si,
        fi,
        opts,
        &Trace::disabled(),
        TrackId(0),
    )
}

/// [`compile_function`] with span tracing: every phase-2 and phase-3
/// pass (and, under `verify_each_pass`, every static check) is
/// recorded on `track` of `trace`. With a disabled trace this is
/// exactly [`compile_function`].
///
/// # Errors
///
/// Returns [`CompileError`] if lowering or code generation fails.
pub fn compile_function_traced(
    checked: &CheckedModule,
    source: &str,
    si: usize,
    fi: usize,
    opts: &CompileOptions,
    trace: &Trace,
    track: TrackId,
) -> Result<(FunctionImage, FunctionRecord), CompileError> {
    let func = &checked.module.sections[si].functions[fi];
    let symbols = &checked.sections[si].symbol_tables[fi];
    let signatures = &checked.sections[si].signatures;
    let p2 = phase2_traced(
        func,
        symbols,
        signatures,
        opts.unroll.as_ref(),
        opts.if_convert.as_ref(),
        opts.absint,
        opts.verify_each_pass,
        trace,
        track,
    )?;
    let p3 = phase3_traced(&p2, &opts.cell, opts.max_ii, trace, track)?;
    if opts.verify_each_pass {
        let errs =
            warp_analyze::verify_function_image_traced(&p3.image, &opts.cell, None, trace, track);
        if !errs.is_empty() {
            return Err(CompileError::MachineVerify(errs));
        }
        let errs =
            warp_analyze::verify_function_schedule_traced(&p3.pipelined, &p3.image, trace, track);
        if !errs.is_empty() {
            return Err(CompileError::ScheduleVerify(errs));
        }
    }
    let lines = func.line_count(source);
    let func_src_len = func.span.len() as usize;
    // The function master re-parses (roughly) its own function's text.
    let parse_units = (func_src_len as u64) / 4;
    let object_bytes = u64::from(p3.image.code_words()) * 16 + u64::from(p3.image.data_words) * 4;
    let record = FunctionRecord {
        section: si,
        name: func.name.clone(),
        lines,
        loop_depth: func.max_loop_depth(),
        parse_units,
        p2: p2.work,
        p3: p3.work,
        object_bytes,
        cost_estimate: warp_workload::cost_estimate(lines, func.max_loop_depth()),
        facts: p2.facts,
    };
    Ok((p3.image, record))
}

/// Renders the per-function fact report of an `--absint` build — the
/// `warpcc --emit facts` output and the golden files under
/// `tests/golden/absint/` compare this text verbatim, so the format is
/// deterministic: fixed line order, fixed flag order, claim lists in
/// program order.
pub fn facts_report(records: &[FunctionRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in records {
        let _ = writeln!(out, "== {}", r.name);
        let Some(f) = &r.facts else {
            let _ = writeln!(out, "facts: none (absint disabled)");
            continue;
        };
        let _ = writeln!(out, "iterations {}", f.iterations);
        let _ = writeln!(
            out,
            "sites div {}/{} mem {}/{} consume {}/{}",
            f.div_safe, f.div_sites, f.mem_safe, f.mem_sites, f.consume_safe, f.consume_sites
        );
        let mut flags: Vec<&str> = Vec::new();
        if f.div_trap_free {
            flags.push("div-trap-free");
        }
        if f.mem_trap_free {
            flags.push("mem-trap-free");
        }
        if f.def_free {
            flags.push("def-free");
        }
        if f.finite_return {
            flags.push("finite-return");
        }
        let _ = writeln!(
            out,
            "flags {}",
            if flags.is_empty() {
                "-".into()
            } else {
                flags.join(" ")
            }
        );
        for s in &f.safe_divs {
            let _ = writeln!(out, "safe-div b{}:{}", s.block, s.inst);
        }
        for s in &f.safe_mems {
            let _ = writeln!(out, "safe-mem b{}:{}", s.block, s.inst);
        }
        for e in &f.dead_edges {
            let _ = writeln!(
                out,
                "dead-edge b{} {}",
                e.block,
                if e.always_then { "else" } else { "then" }
            );
        }
        for l in &f.loop_bounds {
            let _ = writeln!(out, "loop-bound b{} {}", l.block, l.max_trips);
        }
    }
    out
}

/// Converts link work counters to abstract units.
fn link_units_of(work: &LinkWork) -> u64 {
    work.words_scanned as u64 + work.addrs_rebased as u64 * 2 + work.calls_resolved as u64 * 4
}

/// Links per-function images into the final module image (phase 4, the
/// section masters' + master's sequential step).
///
/// `images` must be in source order, grouped as produced by iterating
/// `checked.module.functions()`.
///
/// # Errors
///
/// Returns [`CompileError::Link`] on unresolved calls or overflow.
pub fn link_module(
    checked: &CheckedModule,
    images: Vec<FunctionImage>,
    opts: &CompileOptions,
) -> Result<(ModuleImage, u64), CompileError> {
    link_module_traced(checked, images, opts, &Trace::disabled(), TrackId(0))
}

/// [`link_module`] with span tracing: one `"driver"` span (`link`) on
/// `track` of `trace` covering every section link plus module
/// assembly; the span carries the section count as an argument.
///
/// # Errors
///
/// Returns [`CompileError::Link`] on unresolved calls or overflow.
pub fn link_module_traced(
    checked: &CheckedModule,
    images: Vec<FunctionImage>,
    opts: &CompileOptions,
    trace: &Trace,
    track: TrackId,
) -> Result<(ModuleImage, u64), CompileError> {
    let mut span = trace.span("driver", "link", track);
    let mut iter = images.into_iter();
    let mut sections = Vec::new();
    let mut units = 0u64;
    for section in &checked.module.sections {
        let fns: Vec<FunctionImage> = (0..section.functions.len())
            .map(|_| iter.next().expect("image per function"))
            .collect();
        let (img, work) = link_section(
            &section.name,
            section.first_cell,
            section.last_cell,
            fns,
            &opts.cell,
        )?;
        units += link_units_of(&work);
        sections.push(img);
    }
    span.arg("sections", sections.len() as f64);
    Ok((assemble_module(&checked.module.name, sections), units))
}

/// [`link_module_traced`] under the name of the parallel link it
/// replaced: phase 4 runs on the master, and `workers` is unused. Kept
/// only because the benchmark's layer probe calls it; the next change
/// to `benchmark/` retires it.
///
/// # Errors
///
/// Returns [`CompileError::Link`] on unresolved calls or overflow.
#[doc(hidden)]
pub fn link_module_parallel_traced(
    checked: &CheckedModule,
    images: Vec<FunctionImage>,
    opts: &CompileOptions,
    _workers: usize,
    trace: &Trace,
    track: TrackId,
) -> Result<(ModuleImage, u64), CompileError> {
    link_module_traced(checked, images, opts, trace, track)
}

/// The sequential compiler: phase 1, then every function in source
/// order, then assembly — all in one process (paper §3.2: "the
/// sequential compiler runs as a Common Lisp process on a single SUN
/// workstation").
///
/// # Errors
///
/// Returns the first error of any phase.
pub fn compile_module_source(
    source: &str,
    opts: &CompileOptions,
) -> Result<CompileResult, CompileError> {
    Build::new(source, opts).run().map(|(result, _)| result)
}

/// [`compile_module_source`] with span tracing. Driver-level work
/// (`parse`, `sema`, `link`, the module verify) lands on a `driver`
/// track; each function's compilation is wrapped in a `"worker"` span
/// on a `worker 0` track (the sequential compiler is the degenerate
/// one-worker case), with the per-pass spans nested inside it on the
/// same track. With a disabled trace this is exactly
/// [`compile_module_source`].
///
/// # Errors
///
/// Returns the first error of any phase.
pub fn compile_module_traced(
    source: &str,
    opts: &CompileOptions,
    trace: &Trace,
) -> Result<CompileResult, CompileError> {
    Build {
        trace,
        ..Build::new(source, opts)
    }
    .run()
    .map(|(result, _)| result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_workload::{synthetic_program, FunctionSize};

    #[test]
    fn compiles_synthetic_small_program() {
        let src = synthetic_program(FunctionSize::Small, 2);
        let r = compile_module_source(&src, &CompileOptions::default()).expect("compile");
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.module_image.section_images.len(), 1);
        assert!(r.module_image.section_images[0]
            .functions
            .iter()
            .all(|f| f.is_linked()));
        assert!(r.phase1_units > 0);
        assert!(r.link_units > 0);
        assert!(r.total_units() > r.phase1_units);
    }

    #[test]
    fn work_grows_with_size() {
        let opts = CompileOptions::default();
        let mut last = 0u64;
        for size in [
            FunctionSize::Tiny,
            FunctionSize::Small,
            FunctionSize::Medium,
        ] {
            let src = synthetic_program(size, 1);
            let r = compile_module_source(&src, &opts).expect("compile");
            let units = r.records[0].compile_units();
            assert!(units > last, "{size}: {units} <= {last}");
            last = units;
        }
    }

    #[test]
    fn parsing_is_small_fraction_of_total() {
        // Paper §3.4: "a sequential compiler spends less than 5% of its
        // time on parsing".
        let src = synthetic_program(FunctionSize::Medium, 2);
        let r = compile_module_source(&src, &CompileOptions::default()).unwrap();
        let frac = r.phase1_units as f64 / r.total_units() as f64;
        assert!(frac < 0.05, "parse fraction {frac}");
    }

    #[test]
    fn phase1_error_aborts() {
        let err = compile_module_source("module broken;", &CompileOptions::default());
        assert!(matches!(err, Err(CompileError::Phase1(_))));
    }

    #[test]
    fn records_carry_cost_estimates() {
        let src = synthetic_program(FunctionSize::Large, 1);
        let r = compile_module_source(&src, &CompileOptions::default()).unwrap();
        let rec = &r.records[0];
        assert!(rec.cost_estimate > 0);
        assert!(rec.lines >= 280);
        assert!(rec.loop_depth >= 2);
        assert!(rec.object_bytes > 0);
    }

    #[test]
    fn parallel_phase1_reports_sequential_errors() {
        // A build at every width fails with exactly the sequential
        // front end's diagnostics, rendering included.
        let opts = CompileOptions::default();
        for src in [
            "module broken;",
            "module m; section a on cells 0..0; function f(): float begin return q; end; end;",
            "module m; section a on cells 0..0; function f() begin x := section; end; end;",
            "module m; section a on cells 0..0; function f() begin t := ; end; end;",
        ] {
            let Err(CompileError::Phase1(seq)) = run_phase1(src) else {
                panic!("phase 1 accepts {src:?}")
            };
            for jobs in [1, 2, 4, 8] {
                let build = crate::build::Build {
                    jobs,
                    ..crate::build::Build::new(src, &opts)
                };
                let Err(CompileError::Phase1(e)) = build.run() else {
                    panic!("jobs {jobs} does not fail phase 1 on {src:?}")
                };
                assert_eq!(e.diagnostics, seq.diagnostics, "jobs {jobs}, {src:?}");
                assert_eq!(e.rendered, seq.rendered, "jobs {jobs}, {src:?}");
            }
        }
    }
}
