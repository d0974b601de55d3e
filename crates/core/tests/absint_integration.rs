//! End-to-end tests of the absint pipeline: fact-driven rewrites fire
//! on the fig6 workload, facts ride the function cache so warm
//! rebuilds re-analyze nothing, and the facts report is stable across
//! cold and warm builds.

use parcc::{
    compile_module_source, facts_report, Build, CompileError, CompileOptions, CompileResult,
    FnCache,
};
use warp_workload::{synthetic_program, FunctionSize};

/// The sequential compiler with an incremental cache in front.
fn compile_cached(
    src: &str,
    opts: &CompileOptions,
    cache: &FnCache,
) -> Result<CompileResult, CompileError> {
    Build {
        cache: Some(cache),
        ..Build::new(src, opts)
    }
    .run()
    .map(|(result, _)| result)
}

fn absint_opts() -> CompileOptions {
    CompileOptions {
        absint: true,
        ..CompileOptions::default()
    }
}

/// The fig6 workload (the paper's S_n benchmark modules) contains
/// statically infeasible branches (loop guards with known bounds) and
/// provably-redundant trap checks (`i mod 16` under loop bounds ≤ 15);
/// the fact-driven pass must find and rewrite both.
#[test]
fn fig6_workload_prunes_branches_and_elides_trap_checks() {
    let src = synthetic_program(FunctionSize::Medium, 4);
    let r = compile_module_source(&src, &absint_opts()).expect("compile");
    let pruned: usize = r.records.iter().map(|x| x.p2.branches_pruned).sum();
    let elided: usize = r.records.iter().map(|x| x.p2.trap_checks_elided).sum();
    assert!(
        pruned >= 1,
        "no infeasible branch pruned on the fig6 workload"
    );
    assert!(elided >= 1, "no trap check elided on the fig6 workload");
    for rec in &r.records {
        let facts = rec
            .facts
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no facts", rec.name));
        assert!(
            rec.p2.absint_iterations > 0,
            "{}: analysis did no work",
            rec.name
        );
        assert!(facts.claim_count() > 0, "{}: no claims proven", rec.name);
    }
    // Without absint: no iterations charged, no facts shipped.
    let off = compile_module_source(&src, &CompileOptions::default()).expect("compile");
    for rec in &off.records {
        assert!(rec.facts.is_none());
        assert_eq!(rec.p2.absint_iterations, 0);
    }
}

/// Facts are part of the cached function payload: a warm rebuild with
/// `absint` on hits every entry (re-analyzes zero unchanged functions)
/// and restores bitwise-identical fact sets and work counters.
#[test]
fn warm_rebuild_reuses_cached_facts_without_reanalysis() {
    const N: usize = 4;
    let src = synthetic_program(FunctionSize::Medium, N);
    let cache = FnCache::in_memory();
    let cold = compile_cached(&src, &absint_opts(), &cache).expect("prime");
    let s = cache.stats();
    assert_eq!((s.hits(), s.misses), (0, N as u64), "cold prime: {s}");

    let warm = cache.fork_memory();
    let hot = compile_cached(&src, &absint_opts(), &warm).expect("rebuild");
    let s = warm.stats();
    assert_eq!(
        (s.hits(), s.misses),
        (N as u64, 0),
        "warm rebuild must re-analyze zero unchanged functions: {s}"
    );
    for (a, b) in cold.records.iter().zip(hot.records.iter()) {
        assert_eq!(a.facts, b.facts, "{}: cached facts differ", a.name);
        assert_eq!(
            a.p2.absint_iterations, b.p2.absint_iterations,
            "{}: cached work counters differ",
            a.name
        );
    }
    assert_eq!(facts_report(&cold.records), facts_report(&hot.records));
}

/// An absint-on cache entry is keyed separately from an absint-off
/// one: flipping the option cannot serve stale facts (or fact-less
/// records) from the other configuration.
#[test]
fn absint_option_does_not_share_cache_entries() {
    const N: usize = 2;
    let src = synthetic_program(FunctionSize::Small, N);
    let cache = FnCache::in_memory();
    compile_cached(&src, &CompileOptions::default(), &cache).expect("prime off");
    let warm = cache.fork_memory();
    let on = compile_cached(&src, &absint_opts(), &warm).expect("absint build");
    let s = warm.stats();
    assert_eq!(
        s.hits(),
        0,
        "absint build must not reuse absint-off entries: {s}"
    );
    assert!(on.records.iter().all(|r| r.facts.is_some()));
}

/// The facts report names every function and prints per-function
/// claim lines in a stable, machine-diffable format.
#[test]
fn facts_report_covers_every_function() {
    let src = synthetic_program(FunctionSize::Small, 3);
    let r = compile_module_source(&src, &absint_opts()).expect("compile");
    let report = facts_report(&r.records);
    for rec in &r.records {
        assert!(
            report.contains(&format!("== {}", rec.name)),
            "missing {}",
            rec.name
        );
    }
    assert!(report.contains("iterations "));
    assert!(report.contains("sites "));
    // Deterministic: a second compile prints the same report.
    let r2 = compile_module_source(&src, &absint_opts()).expect("compile");
    assert_eq!(report, facts_report(&r2.records));
}
