//! Shape assertions for the paper's headline results (DESIGN.md §4).
//!
//! These run a reduced set of the figure-harness measurements (the full
//! sweep lives in `parcc-bench`) and pin the qualitative claims:
//! parallel compilation loses on tiny functions, wins 3–6× on medium
//! and larger ones, system overhead can be negative, and the user
//! program behaves as §4.3 reports.

use warp_parallel_compilation::parcc::Experiment;
use warp_workload::FunctionSize;

#[test]
fn tiny_functions_never_profit() {
    // Paper Fig. 3/6: "for small functions, parallel compilation is of
    // no use" — speedup below 1 everywhere, worsening with n.
    let e = Experiment::default();
    let s1 = e.synthetic(FunctionSize::Tiny, 1).unwrap().speedup;
    let s8 = e.synthetic(FunctionSize::Tiny, 8).unwrap().speedup;
    assert!(s1 < 1.0, "{s1}");
    assert!(s8 < s1, "tiny speedup should fall with n: {s8} vs {s1}");
}

#[test]
fn speedup_grows_with_function_count() {
    // Paper Fig. 6: speedup > 1 and increasing with n for everything
    // beyond f_tiny.
    let e = Experiment::default();
    for size in [
        FunctionSize::Small,
        FunctionSize::Medium,
        FunctionSize::Large,
    ] {
        let s2 = e.synthetic(size, 2).unwrap().speedup;
        let s8 = e.synthetic(size, 8).unwrap().speedup;
        assert!(s2 > 1.0, "{size} n=2: {s2}");
        assert!(s8 > s2, "{size}: speedup must grow with n ({s2} → {s8})");
    }
}

#[test]
fn speedup_peaks_before_the_largest_size() {
    // Paper Fig. 7: performance "decreases again for f_huge" — the
    // largest function pays its own paging and is beaten by f_large.
    let e = Experiment::default();
    let large = e.synthetic(FunctionSize::Large, 8).unwrap().speedup;
    let huge = e.synthetic(FunctionSize::Huge, 8).unwrap().speedup;
    assert!(
        huge < large,
        "f_huge {huge} must trail f_large {large} at n=8"
    );
}

#[test]
fn size_barely_matters_at_one_function() {
    // Paper Fig. 7: "If the number of functions is small, the size of
    // the function does not influence speedup" (≈1 at n=1).
    let e = Experiment::default();
    for size in [
        FunctionSize::Medium,
        FunctionSize::Large,
        FunctionSize::Huge,
    ] {
        let s = e.synthetic(size, 1).unwrap().speedup;
        assert!((0.8..1.35).contains(&s), "{size} n=1 speedup {s} not ≈ 1");
    }
}

#[test]
fn medium_system_overhead_is_negative_at_small_n() {
    // Paper Fig. 9: the sequential compiler's swapping exceeds the
    // parallel compiler's startup for f_medium at 1–2 functions.
    let e = Experiment::default();
    for n in [1usize, 2] {
        let c = e.synthetic(FunctionSize::Medium, n).unwrap();
        assert!(
            c.overheads.system_s < 0.0,
            "medium n={n}: system overhead {:.1}s should be negative",
            c.overheads.system_s
        );
    }
}

#[test]
fn relative_overhead_increases_with_function_count() {
    // Paper §4.2.3: "in all tests the relative overhead increases with
    // the number of functions, regardless of their size."
    let e = Experiment::default();
    for size in [
        FunctionSize::Small,
        FunctionSize::Medium,
        FunctionSize::Large,
    ] {
        let o2 = e.synthetic(size, 2).unwrap().overheads.total_frac;
        let o8 = e.synthetic(size, 8).unwrap().overheads.total_frac;
        assert!(
            o8 > o2,
            "{size}: overhead fraction must grow with n ({o2} → {o8})"
        );
    }
}

#[test]
fn tiny_overhead_dominates_elapsed_time() {
    // Paper Fig. 8: for f_tiny the overhead reaches ~70%+ of elapsed.
    let e = Experiment::default();
    let c = e.synthetic(FunctionSize::Tiny, 8).unwrap();
    assert!(
        c.overheads.total_frac > 0.6,
        "tiny n=8 overhead fraction {:.2}",
        c.overheads.total_frac
    );
}

#[test]
fn user_program_matches_section_4_3() {
    let e = Experiment::default();
    let c2 = e.user_program(2).unwrap();
    let c5 = e.user_program(5).unwrap();
    let c9 = e.user_program(9).unwrap();
    // Super-ideal at 2 processors (sequential swapping).
    assert!(c2.speedup > 2.0, "user @2: {}", c2.speedup);
    // Headline range with ≤ 9 processors.
    assert!(
        c9.speedup > 3.0 && c9.speedup < 6.0,
        "user @9: {}",
        c9.speedup
    );
    // "the speedup for 5 processors is almost as good as … 9 processors".
    assert!(
        (c9.speedup - c5.speedup).abs() / c9.speedup < 0.1,
        "@5 {} vs @9 {}",
        c5.speedup,
        c9.speedup
    );
    // Monotone in processors.
    assert!(c2.speedup < c5.speedup);
}

#[test]
fn headline_speedups_in_paper_range() {
    // Abstract: "a speedup ranging from 3 to 6 using not more than 9
    // processors" for typical programs (medium-to-large functions).
    let e = Experiment::default();
    let medium = e.synthetic(FunctionSize::Medium, 4).unwrap().speedup;
    let large = e.synthetic(FunctionSize::Large, 4).unwrap().speedup;
    assert!((2.5..7.0).contains(&medium), "medium n=4: {medium}");
    assert!((3.0..7.0).contains(&large), "large n=4: {large}");
    // Eight function masters on eight workstations (the fig6 row
    // `f_medium n=8`) stay well clear of sequential and below linear.
    let medium8 = e.synthetic(FunctionSize::Medium, 8).unwrap().speedup;
    assert!((3.0..8.0).contains(&medium8), "medium n=8: {medium8}");
}
