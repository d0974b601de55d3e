//! Cache-key soundness: exactly the right entries are invalidated.
//!
//! * Editing one function's body recompiles exactly that function;
//! * changing `CompileOptions` invalidates every entry (any knob can
//!   change generated code);
//! * changing the module-level interface a function can see (adding a
//!   function to its section) invalidates the whole section, because
//!   name resolution and inlining depend on it.
//!
//! All assertions go through the cache's hit/miss counters, so they
//! pin the *mechanism*, not just the output.

use parcc::{Build, CompileError, CompileOptions, CompileResult, FnCache};
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

const N: usize = 4;

/// A primed cache for the medium n=4 program plus the source text.
fn primed() -> (String, FnCache) {
    let src = synthetic_program(FunctionSize::Medium, N);
    let cache = FnCache::in_memory();
    compile_cached(&src, &CompileOptions::default(), &cache).expect("prime");
    let s = cache.stats();
    assert_eq!(
        (s.hits(), s.misses, s.stores),
        (0, N as u64, N as u64),
        "cold prime: {s}"
    );
    (src, cache)
}

#[test]
fn unchanged_rebuild_hits_everything() {
    let (src, cache) = primed();
    let warm = cache.fork_memory();
    compile_cached(&src, &CompileOptions::default(), &warm).expect("rebuild");
    let s = warm.stats();
    assert_eq!((s.hits(), s.misses, s.stores), (N as u64, 0, 0), "{s}");
}

#[test]
fn editing_one_function_recompiles_exactly_that_function() {
    let (src, cache) = primed();
    // Change one loop bound in the first function's body — a pure
    // body edit, no signature or interface change.
    let edited = src.replacen("0 to 15", "0 to 16", 1);
    assert_ne!(edited, src, "workload must contain the expected loop bound");
    let warm = cache.fork_memory();
    compile_cached(&edited, &CompileOptions::default(), &warm).expect("rebuild");
    let s = warm.stats();
    assert_eq!(
        (s.hits(), s.misses, s.stores),
        (N as u64 - 1, 1, 1),
        "one edit must cost one recompilation: {s}"
    );
}

#[test]
fn changing_compile_options_invalidates_everything() {
    let (src, cache) = primed();
    for (label, opts) in [
        (
            "verify_each_pass",
            CompileOptions {
                verify_each_pass: true,
                ..CompileOptions::default()
            },
        ),
        (
            "inline",
            CompileOptions {
                inline: Some(warp_ir::InlinePolicy::default()),
                ..CompileOptions::default()
            },
        ),
        (
            "if_convert",
            CompileOptions {
                if_convert: Some(warp_ir::IfConvPolicy::default()),
                ..CompileOptions::default()
            },
        ),
    ] {
        let warm = cache.fork_memory();
        compile_cached(&src, &opts, &warm).expect("rebuild");
        let s = warm.stats();
        assert_eq!(s.hits(), 0, "{label}: stale options must never hit: {s}");
        assert_eq!(s.misses, N as u64, "{label}: {s}");
    }
}

#[test]
fn changing_module_interface_invalidates_the_section() {
    let (src, cache) = primed();
    // Add a function to the (single) section: every function in it now
    // sees a different interface, so nothing may hit. The module's
    // closing `end;` is the last one in the source.
    let body = src
        .strip_suffix("end;\n")
        .expect("module must end with end;");
    let grown =
        format!("{body}function cache_probe(x: float): float begin return x + 1.0; end;\nend;\n");
    assert_ne!(grown, src);
    let warm = cache.fork_memory();
    compile_cached(&grown, &CompileOptions::default(), &warm).expect("rebuild");
    let s = warm.stats();
    assert_eq!(
        s.hits(),
        0,
        "interface change must invalidate the section: {s}"
    );
    assert_eq!(s.misses, N as u64 + 1, "{s}");
}

#[test]
fn options_roundtrip_back_to_hits() {
    // Sanity: invalidation is keyed, not a flush — switching options
    // away and back hits the original entries again.
    let (src, cache) = primed();
    let other = CompileOptions {
        verify_each_pass: true,
        ..CompileOptions::default()
    };
    compile_cached(&src, &other, &cache).expect("other options");
    let warm = cache.fork_memory();
    compile_cached(&src, &CompileOptions::default(), &warm).expect("back");
    let s = warm.stats();
    assert_eq!((s.hits(), s.misses), (N as u64, 0), "{s}");
}
