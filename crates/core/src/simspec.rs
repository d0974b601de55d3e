//! Building simulator process trees from real compilations.
//!
//! The compilation has already happened (really, in this process, via
//! [`crate::driver`]); these functions translate its deterministic work
//! profile into the process structure of paper §3.2 — master → section
//! masters → function masters — or into the single sequential Lisp
//! process, for the discrete-event host simulator.
//!
//! The naming constants below ([`SEQ_NAME`], [`MASTER_NAME`],
//! [`PARSER_NAME`], [`SECTION_PREFIX`], [`FN_PREFIX`]) are the shared
//! vocabulary between spec construction and measurement extraction:
//! both `Measurement::from_report` (prefix-summing the simulator's
//! process table) and `Measurement::from_trace` (prefix-summing `cpu`
//! spans in a virtual-time trace) attribute CPU time to the paper's
//! §4.2.3 categories by these prefixes. Renaming a process here is a
//! breaking change to the trace schema (`docs/TRACING.md`).

use crate::costmodel::CostModel;
use crate::driver::CompileResult;
use crate::scheduler::Assignment;
use warp_netsim::{ProcKind, ProcessSpec};

/// Name of the sequential-compiler process.
pub const SEQ_NAME: &str = "seqc";
/// Name of the master process.
pub const MASTER_NAME: &str = "master";
/// Name of the master's Lisp parser child.
pub const PARSER_NAME: &str = "parser";
/// Prefix of section-master process names.
pub const SECTION_PREFIX: &str = "section-master";
/// Prefix of function-master process names.
pub const FN_PREFIX: &str = "fn-master";

/// Appends a compile burst of `units` at `heap` live words: CPU work
/// in chunks with its paging traffic to the file server interleaved
/// (diskless workstations swap over the network — §4.2.3's "multiple
/// processes swap off the same file server").
fn compile_burst(mut p: ProcessSpec, cm: &CostModel, units: u64, heap: u64) -> ProcessSpec {
    let chunks = cm.compile_chunks.max(1);
    let swap = cm.swap_bytes(units, heap);
    p = p.heap(heap);
    for c in 0..chunks {
        // Distribute remainders deterministically.
        let u = units / chunks + u64::from(c < units % chunks);
        p = p.cpu(u);
        let b = swap / chunks + u64::from(c < swap % chunks);
        if b > 0 {
            p = p.disk(b);
        }
    }
    p
}

/// The sequential compiler: one Lisp process on workstation 0 that
/// parses, compiles every function in order (heap growing as it
/// retains results), then assembles. Its image carries every phase
/// plus whole-module data (`seq_extra_heap`), so larger programs push
/// it past physical memory.
pub fn seq_spec(result: &CompileResult, cm: &CostModel) -> ProcessSpec {
    seq_spec_inner(result, cm, None)
}

/// [`seq_spec`] with a compilation cache enabled: `warm[i]` marks
/// function `i` as a cache hit. A hit is serviced by probing the
/// index (`cache_lookup_units`) and fetching the stored object from
/// the file server ([`CostModel::hit_fetch_bytes`]) instead of the
/// phase-2/3 compile burst; the compiler still parses the module
/// (phase 1 builds the interface the cache key hashes) and still
/// assembles at the end. Misses additionally pay the lookup before
/// recompiling.
///
/// # Panics
///
/// Panics if `warm.len() != result.records.len()`.
pub fn seq_spec_cached(result: &CompileResult, cm: &CostModel, warm: &[bool]) -> ProcessSpec {
    assert_eq!(warm.len(), result.records.len());
    seq_spec_inner(result, cm, Some(warm))
}

fn seq_spec_inner(result: &CompileResult, cm: &CostModel, warm: Option<&[bool]>) -> ProcessSpec {
    let base = cm.base_lisp_heap + cm.seq_extra_heap;
    let mut p = ProcessSpec::new(SEQ_NAME, 0, ProcKind::Lisp)
        .heap(base)
        .cpu(result.phase1_units);
    let mut retained = 0u64;
    for (i, rec) in result.records.iter().enumerate() {
        if warm.is_some() {
            p = p.cpu(cm.cache_lookup_units);
        }
        if warm.is_some_and(|w| w[i]) {
            // Hit: fetch the cached object instead of compiling. The
            // image it retains for assembly is the same either way.
            p = p.disk(cm.hit_fetch_bytes(rec));
        } else {
            let heap = base + retained + cm.fn_heap(rec);
            p = compile_burst(p, cm, rec.compile_units(), heap);
        }
        retained += cm.seq_retained(rec);
    }
    let object_bytes: u64 = result.records.iter().map(|r| r.object_bytes).sum();
    p.heap(base + retained)
        .cpu(result.link_units)
        .disk(object_bytes)
}

/// The parallel compiler: the master (C) starts a Lisp parser for the
/// setup parse, forks one section master (C) per section, each of which
/// forks one function master (Lisp) per function on its assigned
/// workstation; the master finally runs the sequential assembly phase.
pub fn par_spec(result: &CompileResult, cm: &CostModel, assignment: &Assignment) -> ProcessSpec {
    par_spec_inner(result, cm, assignment, None)
}

/// [`par_spec`] with a compilation cache enabled: `warm[i]` marks
/// function `i` as a cache hit.
///
/// This mirrors the real build pipeline ([`crate::build`]): the
/// *master* probes every key itself (`cache_lookup_units` each) and
/// services hits directly — a fetch of the stored object from the
/// file server, no fork, no workstation, no section master involved.
/// Only misses are dispatched to function masters; a section whose
/// functions all hit forks no section master at all, so a fully warm
/// build collapses to parse → probe → fetch → assemble on the
/// master's workstation.
///
/// # Panics
///
/// Panics if `warm.len() != result.records.len()`.
pub fn par_spec_cached(
    result: &CompileResult,
    cm: &CostModel,
    assignment: &Assignment,
    warm: &[bool],
) -> ProcessSpec {
    assert_eq!(warm.len(), result.records.len());
    par_spec_inner(result, cm, assignment, Some(warm))
}

fn par_spec_inner(
    result: &CompileResult,
    cm: &CostModel,
    assignment: &Assignment,
    warm: Option<&[bool]>,
) -> ProcessSpec {
    assert_eq!(assignment.workstation.len(), result.records.len());
    let n_sections = 1 + result.records.iter().map(|r| r.section).max().unwrap_or(0);
    let is_hit = |i: usize| warm.is_some_and(|w| w[i]);

    let mut sections = Vec::new();
    for si in 0..n_sections {
        // Only cache misses need a function master; hits were already
        // serviced by the master before the section masters fork.
        let idxs: Vec<usize> = result
            .records
            .iter()
            .enumerate()
            .filter(|(i, r)| r.section == si && !is_hit(*i))
            .map(|(i, _)| i)
            .collect();
        if idxs.is_empty() {
            continue;
        }
        let mut fn_masters = Vec::with_capacity(idxs.len());
        for &i in &idxs {
            let rec = &result.records[i];
            let ws = assignment.workstation[i];
            let heap = cm.base_lisp_heap + cm.fn_heap(rec);
            let fm = ProcessSpec::new(format!("{FN_PREFIX} {}", rec.name), ws, ProcKind::Lisp);
            // The function master re-parses its function, then runs
            // phases 2 + 3 (with its paging traffic, if any), then
            // ships the object to the file server and its diagnostics
            // to the section master.
            let fm = compile_burst(fm, cm, rec.parse_units + rec.compile_units(), heap)
                .disk(rec.object_bytes)
                .net(cm.diag_bytes);
            fn_masters.push(fm);
        }
        let nf = idxs.len() as u64;
        sections.push(
            ProcessSpec::new(format!("{SECTION_PREFIX} {si}"), 0, ProcKind::C)
                .cpu(cm.section_units_per_fn * nf)
                .fork(fn_masters)
                .join()
                // Combine results and diagnostic output (§3.2).
                .cpu(cm.combine_units_per_fn * nf)
                .net(cm.diag_bytes * nf),
        );
    }

    let parser = ProcessSpec::new(PARSER_NAME, 0, ProcKind::Lisp)
        .heap(cm.base_lisp_heap + cm.parse_heap_per_line * total_lines(result))
        .cpu(result.phase1_units);
    let object_bytes: u64 = result.records.iter().map(|r| r.object_bytes).sum();

    let mut master = ProcessSpec::new(MASTER_NAME, 0, ProcKind::C)
        // Setup: one extra parse of the program, by a Lisp child.
        .fork(vec![parser])
        .join();
    if warm.is_some() {
        // Probe the cache for every function, then fetch the hits'
        // objects from the file server.
        master = master.cpu(cm.cache_lookup_units * result.records.len() as u64);
        let hit_bytes: u64 = result
            .records
            .iter()
            .enumerate()
            .filter(|(i, _)| is_hit(*i))
            .map(|(_, r)| cm.hit_fetch_bytes(r))
            .sum();
        if hit_bytes > 0 {
            master = master.disk(hit_bytes);
        }
    }
    let n_live_sections = sections.len() as u64;
    if n_live_sections > 0 {
        // Scheduling: coordinate the section masters that still have
        // work.
        master = master
            .cpu(cm.sched_units_per_section * n_live_sections)
            .net(cm.msg_bytes * n_live_sections)
            .fork(sections)
            .join();
    }
    master
        // Phase 4: assembly and download-module generation.
        .cpu(result.link_units)
        .disk(object_bytes)
}

fn total_lines(result: &CompileResult) -> u64 {
    result.records.iter().map(|r| r.lines as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::CALIBRATED;
    use crate::driver::{compile_module_source, CompileOptions};
    use crate::scheduler::fcfs;
    use warp_workload::{synthetic_program, FunctionSize};

    fn compiled(n: usize) -> CompileResult {
        let src = synthetic_program(FunctionSize::Small, n);
        compile_module_source(&src, &CompileOptions::default()).expect("compile")
    }

    #[test]
    fn seq_spec_is_single_process() {
        let r = compiled(3);
        let spec = seq_spec(&r, &CALIBRATED);
        assert_eq!(spec.process_count(), 1);
        assert_eq!(spec.name, SEQ_NAME);
    }

    #[test]
    fn par_spec_has_paper_process_hierarchy() {
        let r = compiled(3);
        let a = fcfs(3, 8);
        let spec = par_spec(&r, &CALIBRATED, &a);
        // master + parser + 1 section master + 3 function masters.
        assert_eq!(spec.process_count(), 6);
    }

    #[test]
    fn fn_masters_go_to_assigned_workstations() {
        let r = compiled(3);
        let a = fcfs(3, 8);
        let spec = par_spec(&r, &CALIBRATED, &a);
        // Walk the tree and collect fn-master workstations.
        fn collect(spec: &ProcessSpec, out: &mut Vec<(String, usize)>) {
            if spec.name.starts_with(FN_PREFIX) {
                out.push((spec.name.clone(), spec.workstation));
            }
            for s in &spec.steps {
                if let warp_netsim::Step::Fork { children } = s {
                    for c in children {
                        collect(c, out);
                    }
                }
            }
        }
        let mut ws = Vec::new();
        collect(&spec, &mut ws);
        assert_eq!(ws.len(), 3);
        let stations: Vec<usize> = ws.iter().map(|(_, w)| *w).collect();
        assert_eq!(stations, vec![1, 2, 3]);
    }

    #[test]
    fn cold_cached_spec_keeps_paper_hierarchy_plus_probe() {
        // All-cold warm mask: same process tree as the uncached spec
        // (master + parser + section masters + function masters); the
        // only extra work is the per-function probe.
        let r = compiled(3);
        let a = fcfs(3, 8);
        let spec = par_spec_cached(&r, &CALIBRATED, &a, &[false; 3]);
        assert_eq!(spec.process_count(), 6);
    }

    #[test]
    fn fully_warm_par_spec_forks_no_workers() {
        // Every function hits: the master services everything itself —
        // no section masters, no function masters.
        let r = compiled(3);
        let a = fcfs(3, 8);
        let spec = par_spec_cached(&r, &CALIBRATED, &a, &[true; 3]);
        assert_eq!(spec.process_count(), 2, "master + parser only");
    }

    #[test]
    fn warm_rebuild_is_under_half_of_cold_on_fig6_workload() {
        // The acceptance bar for the cache: on the Figure 6 workload
        // (medium functions, n ∈ {1,2,4,8}), a fully warm parallel
        // rebuild takes less than 50% of the cold parallel build.
        for n in [1usize, 2, 4, 8] {
            let src = synthetic_program(FunctionSize::Medium, n);
            let r = compile_module_source(&src, &CompileOptions::default()).unwrap();
            let a = fcfs(n, CALIBRATED.host.workstations - 1);
            let cold = warp_netsim::simulate(CALIBRATED.host, par_spec(&r, &CALIBRATED, &a));
            let warm = warp_netsim::simulate(
                CALIBRATED.host,
                par_spec_cached(&r, &CALIBRATED, &a, &vec![true; n]),
            );
            assert!(
                warm.elapsed_s < 0.5 * cold.elapsed_s,
                "n={n}: warm {} !< 50% of cold {}",
                warm.elapsed_s,
                cold.elapsed_s
            );
        }
    }

    #[test]
    fn one_edited_function_dominates_warm_rebuild() {
        // Editing one function of eight: the rebuild must pay for that
        // one compilation but stay far below cold (the other seven are
        // fetched).
        let n = 8;
        let src = synthetic_program(FunctionSize::Medium, n);
        let r = compile_module_source(&src, &CompileOptions::default()).unwrap();
        let a = fcfs(n, CALIBRATED.host.workstations - 1);
        let mut warm = vec![true; n];
        warm[3] = false;
        let cold = warp_netsim::simulate(CALIBRATED.host, par_spec(&r, &CALIBRATED, &a));
        let edited =
            warp_netsim::simulate(CALIBRATED.host, par_spec_cached(&r, &CALIBRATED, &a, &warm));
        let full = warp_netsim::simulate(
            CALIBRATED.host,
            par_spec_cached(&r, &CALIBRATED, &a, &[true; 8]),
        );
        assert!(
            edited.elapsed_s < cold.elapsed_s,
            "{} !< {}",
            edited.elapsed_s,
            cold.elapsed_s
        );
        assert!(
            full.elapsed_s < edited.elapsed_s,
            "{} !< {}",
            full.elapsed_s,
            edited.elapsed_s
        );
    }

    #[test]
    fn warm_sequential_beats_cold_sequential() {
        let src = synthetic_program(FunctionSize::Medium, 4);
        let r = compile_module_source(&src, &CompileOptions::default()).unwrap();
        let cold = warp_netsim::simulate(CALIBRATED.host, seq_spec(&r, &CALIBRATED));
        let warm = warp_netsim::simulate(
            CALIBRATED.host,
            seq_spec_cached(&r, &CALIBRATED, &[true; 4]),
        );
        assert!(
            warm.elapsed_s < 0.5 * cold.elapsed_s,
            "{} {}",
            warm.elapsed_s,
            cold.elapsed_s
        );
    }

    #[test]
    fn simulated_seq_vs_par_sanity() {
        // For several medium functions, parallel elapsed must be well
        // below sequential elapsed in the simulator.
        let src = synthetic_program(FunctionSize::Medium, 4);
        let r = compile_module_source(&src, &CompileOptions::default()).unwrap();
        let seq = warp_netsim::simulate(CALIBRATED.host, seq_spec(&r, &CALIBRATED));
        let a = fcfs(4, CALIBRATED.host.workstations - 1);
        let par = warp_netsim::simulate(CALIBRATED.host, par_spec(&r, &CALIBRATED, &a));
        assert!(
            par.elapsed_s < seq.elapsed_s,
            "par {} !< seq {}",
            par.elapsed_s,
            seq.elapsed_s
        );
    }
}
