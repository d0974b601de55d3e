//! Regeneration of every figure in the paper's evaluation.
//!
//! All series come from [`EvalData::collect`], which compiles each test
//! program once (for real) and replays sequential and parallel
//! compilation through the host simulator. The renderers print the same
//! quantities the paper plots; EXPERIMENTS.md records the comparison
//! against the published curves.

use parcc::{Comparison, Experiment};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use warp_workload::FunctionSize;

/// The function counts measured in §4.2 ("We varied the number of
/// functions in each program between 1, 2, 4 and 8").
pub const NS: [usize; 4] = [1, 2, 4, 8];

/// Processor counts for the user program (§4.3 reports 2, 3, 5 and 9).
pub const USER_PROCS: [usize; 4] = [2, 3, 5, 9];

/// All figure names accepted by [`render`].
pub const FIGURES: [&str; 25] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "user-table",
    "headline",
    "ablation-inline",
    "ablation-unroll",
    "parmake",
    "katseff",
    "scheduling",
    "utilization",
    "ablation-ifconv",
    "cache",
    "faults",
];

/// Every measurement the figures need, collected once.
pub struct EvalData {
    /// (size, n) → comparison.
    pub synthetic: BTreeMap<(FunctionSize, usize), Comparison>,
    /// processors → user-program comparison.
    pub user: BTreeMap<usize, Comparison>,
    /// Per-function sequential compile seconds of the user program.
    pub user_fn_seconds: Vec<(String, usize, f64)>,
}

impl EvalData {
    /// Compiles and simulates everything (a few seconds of real time).
    pub fn collect() -> EvalData {
        let e = Experiment::default();
        let mut synthetic = BTreeMap::new();
        for size in FunctionSize::ALL {
            for n in NS {
                let c = e
                    .synthetic(size, n)
                    .unwrap_or_else(|err| panic!("compile {size} n={n}: {err}"));
                synthetic.insert((size, n), c);
            }
        }
        let mut user = BTreeMap::new();
        for p in 2..=9usize {
            user.insert(p, e.user_program(p).expect("user program"));
        }
        // Per-function sequential times: replay each function's units
        // through the cost model at the sequential compiler's heap.
        let result = parcc::compile_module_source(&warp_workload::user_program(), &e.opts)
            .expect("user program");
        let seq_total: f64 = user[&9].seq.elapsed_s;
        let total_units: u64 = result.records.iter().map(|r| r.compile_units()).sum();
        let user_fn_seconds = result
            .records
            .iter()
            .map(|r| {
                // Attribute sequential elapsed proportionally to units
                // (close enough for the table; the sim does the real
                // accounting).
                let frac = r.compile_units() as f64 / total_units as f64;
                (r.name.clone(), r.lines, seq_total * frac)
            })
            .collect();
        EvalData {
            synthetic,
            user,
            user_fn_seconds,
        }
    }

    fn cmp(&self, size: FunctionSize, n: usize) -> &Comparison {
        &self.synthetic[&(size, n)]
    }
}

fn minutes(s: f64) -> f64 {
    s / 60.0
}

/// Renders the execution-time figure for one size (Figures 3, 4, 5,
/// 12, 13): elapsed and per-processor CPU time, sequential and
/// parallel, vs number of functions.
fn times_figure(data: &EvalData, size: FunctionSize, fig: &str, caption: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{fig}: execution times for {size} ({caption})");
    let _ = writeln!(
        out,
        "{:>4} {:>14} {:>14} {:>14} {:>14}",
        "n", "seq elapsed", "seq cpu", "par elapsed", "par cpu"
    );
    for n in NS {
        let c = data.cmp(size, n);
        let _ = writeln!(
            out,
            "{n:>4} {:>13.2}m {:>13.2}m {:>13.2}m {:>13.2}m",
            minutes(c.seq.elapsed_s),
            minutes(c.seq.max_cpu_s),
            minutes(c.par.elapsed_s),
            minutes(c.par.max_cpu_s),
        );
    }
    out
}

/// Figure 6: speedup over the sequential compiler vs number of
/// functions, for all five sizes.
fn fig6(data: &EvalData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "fig6: speedup over sequential compiler (elapsed time)");
    let mut header = format!("{:>4}", "n");
    for size in FunctionSize::ALL {
        let _ = write!(header, " {:>9}", size.paper_name());
    }
    let _ = writeln!(out, "{header}");
    for n in NS {
        let mut row = format!("{n:>4}");
        for size in FunctionSize::ALL {
            let _ = write!(row, " {:>9.2}", data.cmp(size, n).speedup);
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Figure 7: speedup vs function size (lines of code) for each n.
fn fig7(data: &EvalData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "fig7: speedup versus function size (lines of code)");
    let mut header = format!("{:>6}", "LoC");
    for n in NS {
        let _ = write!(header, " {:>8}", format!("n={n}"));
    }
    let _ = writeln!(out, "{header}");
    for size in FunctionSize::ALL {
        let mut row = format!("{:>6}", size.lines());
        for n in NS {
            let _ = write!(row, " {:>8.2}", data.cmp(size, n).speedup);
        }
        let _ = writeln!(out, "{row}  ({})", size.paper_name());
    }
    out
}

/// Relative overheads (% of parallel elapsed) for a set of sizes
/// (Figures 8, 9, 10).
fn overhead_figure(data: &EvalData, sizes: &[FunctionSize], fig: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{fig}: overheads as percentage of parallel elapsed time"
    );
    let mut header = format!("{:>4}", "n");
    for size in sizes {
        let _ = write!(
            header,
            " {:>12} {:>12}",
            format!("tot {size}"),
            format!("sys {size}")
        );
    }
    let _ = writeln!(out, "{header}");
    for n in NS {
        let mut row = format!("{n:>4}");
        for size in sizes {
            let o = &data.cmp(*size, n).overheads;
            let _ = write!(
                row,
                " {:>11.1}% {:>11.1}%",
                o.total_frac * 100.0,
                o.system_frac * 100.0
            );
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Absolute overheads in minutes (Figures 14, 15, 16).
fn abs_overhead_figure(data: &EvalData, sizes: &[FunctionSize], fig: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{fig}: absolute overheads (minutes)");
    let mut header = format!("{:>4}", "n");
    for size in sizes {
        let _ = write!(
            header,
            " {:>12} {:>12}",
            format!("tot {size}"),
            format!("sys {size}")
        );
    }
    let _ = writeln!(out, "{header}");
    for n in NS {
        let mut row = format!("{n:>4}");
        for size in sizes {
            let o = &data.cmp(*size, n).overheads;
            let _ = write!(
                row,
                " {:>11.2}m {:>11.2}m",
                minutes(o.total_s),
                minutes(o.system_s)
            );
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Figure 11: user-program speedup vs processors (grouped schedule).
fn fig11(data: &EvalData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "fig11: speedup for the user program (9 functions)");
    let _ = writeln!(
        out,
        "{:>6} {:>9} {:>14} {:>14}",
        "procs", "speedup", "seq elapsed", "par elapsed"
    );
    for p in 2..=9usize {
        let c = &data.user[&p];
        let _ = writeln!(
            out,
            "{p:>6} {:>9.2} {:>13.1}m {:>13.1}m",
            c.speedup,
            minutes(c.seq.elapsed_s),
            minutes(c.par.elapsed_s)
        );
    }
    out
}

/// §4.3 table: per-function sequential compile times of the user
/// program, plus the idle-time observation at 9 processors.
fn user_table(data: &EvalData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "user-table: sequential compile time per user-program function"
    );
    let _ = writeln!(out, "{:>16} {:>6} {:>10}", "function", "lines", "seq time");
    for (name, lines, secs) in &data.user_fn_seconds {
        let _ = writeln!(out, "{name:>16} {lines:>6} {:>9.1}m", minutes(*secs));
    }
    let c9 = &data.user[&9];
    let large_min = data
        .user_fn_seconds
        .iter()
        .filter(|(_, l, _)| *l > 200)
        .map(|(_, _, s)| *s)
        .fold(f64::INFINITY, f64::min);
    let small_max = data
        .user_fn_seconds
        .iter()
        .filter(|(_, l, _)| *l < 60)
        .map(|(_, _, s)| *s)
        .fold(0.0, f64::max);
    let _ = writeln!(
        out,
        "at 9 processors: elapsed {:.1}m; a small-function processor is idle ≥ {:.1}m",
        minutes(c9.par.elapsed_s),
        minutes(large_min - small_max).max(0.0)
    );
    out
}

/// The headline claim: speedup 3–6 with at most 9 processors for
/// typical programs.
fn headline(data: &EvalData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "headline: typical speedups with <= 9 processors");
    for (label, s) in [
        ("f_medium n=8", data.cmp(FunctionSize::Medium, 8).speedup),
        ("f_large  n=4", data.cmp(FunctionSize::Large, 4).speedup),
        ("f_large  n=8", data.cmp(FunctionSize::Large, 8).speedup),
        ("f_huge   n=8", data.cmp(FunctionSize::Huge, 8).speedup),
        ("user @ 9 procs", data.user[&9].speedup),
        ("user @ 5 procs", data.user[&5].speedup),
        ("user @ 2 procs", data.user[&2].speedup),
    ] {
        let _ = writeln!(out, "  {label:>15}: {s:.2}");
    }
    out
}

/// §5.1 ablation: procedure inlining on a call-heavy program.
fn ablation_inline() -> String {
    let e = Experiment::default();
    let a = e.inline_ablation().expect("ablation");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ablation-inline: §5.1 procedure inlining on a call-heavy program"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>12} {:>12} {:>9}",
        "variant", "functions", "seq elapsed", "par elapsed", "speedup"
    );
    for (label, funcs, c) in [
        ("baseline", a.baseline_functions, &a.baseline),
        ("inlined", a.inlined_functions, &a.inlined),
    ] {
        let _ = writeln!(
            out,
            "{label:>12} {funcs:>10} {:>11.1}m {:>11.1}m {:>9.2}",
            minutes(c.seq.elapsed_s),
            minutes(c.par.elapsed_s),
            c.speedup
        );
    }
    let _ = writeln!(
        out,
        "inlining merges many tiny tasks into fewer medium ones — the regime fig7 rewards"
    );
    out
}

/// §6 trade-off: unrolling buys code quality with compile time.
fn ablation_unroll() -> String {
    let e = Experiment::default();
    let points = e.unroll_ablation().expect("ablation");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ablation-unroll: §6 compile time vs code quality (64-element saxpy)"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>11} {:>12}",
        "factor", "compile units", "code words", "exec cycles"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:>8} {:>14} {:>11} {:>12}",
            p.factor, p.compile_units, p.code_words, p.cycles
        );
    }
    let _ = writeln!(
        out,
        "\"continued research in code optimization should not be bound by compile time\nconstraints … the compiler can employ more time consuming optimizations and\nthereby improve the quality of the code\" (§6)"
    );
    out
}

/// §3.4 comparison: parallel make over separate modules vs the parallel
/// compiler within one module, vs both combined.
fn parmake() -> String {
    let e = Experiment::default();
    let r = parcc::parmake::parmake_comparison(&e).expect("parmake");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "parmake: §3.4 parallel make vs parallel compiler (4-module system)"
    );
    let _ = writeln!(out, "{:>22} {:>14} {:>9}", "strategy", "elapsed", "speedup");
    for (label, elapsed) in [
        ("sequential make", r.sequential_s),
        ("parallel make", r.parallel_make_s),
        ("parallel compiler", r.parallel_compiler_s),
        ("combined", r.combined_s),
        ("combined + warm cache", r.combined_warm_s),
        ("combined, 3 faults", r.combined_faulted_s),
    ] {
        let _ = writeln!(
            out,
            "{label:>22} {:>13.1}m {:>9.2}",
            minutes(elapsed),
            r.sequential_s / elapsed
        );
    }
    let _ = writeln!(
        out,
        "\"both approaches could coexist, with the parallel compiler speeding up the\nindividual translations, and the parallel make system organizing the system\ngeneration effort\" (§3.4)"
    );
    out
}

/// Fig. 6 workload under k injected host faults: the medium/8 parallel
/// compilation re-simulated with seeded crashes, slowdowns, partitions
/// and server stalls. Speedup degrades gracefully — the master detects
/// lost function masters by timeout and re-dispatches them — and the
/// whole curve is a deterministic function of the seed.
fn faults_figure() -> String {
    let e = Experiment::default();
    let f = e
        .fig6_under_faults(FunctionSize::Medium, 8, 1989, &[0, 1, 2, 4])
        .expect("fig6 under faults");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "faults: fig6 medium/8 under k injected faults (seed {}, {} functions)",
        f.seed, f.functions
    );
    let _ = writeln!(
        out,
        "sequential {:.1}m, fault-free parallel {:.1}m",
        minutes(f.seq_elapsed_s),
        minutes(f.par_elapsed_s)
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>9} {:>7} {:>7} {:>12} {:>7}",
        "k faults", "elapsed", "speedup", "killed", "redisp", "slow/part/st", "parked"
    );
    for p in &f.points {
        let s = p.faults;
        let _ = writeln!(
            out,
            "{:>8} {:>9.1}m {:>9.2} {:>7} {:>7} {:>12} {:>7}",
            p.k_faults,
            minutes(p.elapsed_s),
            p.speedup,
            s.killed,
            s.redispatches,
            format!("{}/{}/{}", s.slowdowns, s.partitions, s.stalls),
            s.parked,
        );
    }
    let _ = writeln!(
        out,
        "every lost function master is re-dispatched after the detection timeout;\nthe same seed reproduces the same curve byte for byte (docs/FAULTS.md)"
    );
    out
}

/// If-conversion ablation: speculation into selects restores
/// pipelinability of branchy loops.
fn ablation_ifconv() -> String {
    let e = Experiment::default();
    let points = e.ifconv_ablation().expect("ablation");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ablation-ifconv: branchy 64-iteration kernel, with/without if-conversion"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>14} {:>10} {:>12}",
        "variant", "compile units", "pipelined", "exec cycles"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:>12} {:>14} {:>10} {:>12}",
            if p.converted {
                "if-convert"
            } else {
                "baseline"
            },
            p.compile_units,
            p.pipelined_loops,
            p.cycles
        );
    }
    let _ = writeln!(
        out,
        "speculating both arms into selects makes the loop body a single block the\nmodulo scheduler can pipeline"
    );
    out
}

/// Incremental compilation: warm-cache rebuilds of the Figure 6
/// workload (medium functions, n ∈ {1, 2, 4, 8}) through the 1989
/// host simulator.
fn cache_figure(data: &EvalData) -> String {
    use parcc::simspec::{par_spec, par_spec_cached};
    let e = Experiment::default();
    let mut out = String::new();
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    let _ = writeln!(
        out,
        "cache: warm-cache rebuilds of the fig6 workload (parallel compiler)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>12} {:>12} {:>12} {:>10}",
        "n", "cold", "warm", "1 edited", "warm/cold"
    );
    for n in NS {
        let src = warp_workload::synthetic_program(FunctionSize::Medium, n);
        let result = parcc::compile_module_source(&src, &e.opts)
            .unwrap_or_else(|err| panic!("compile medium n={n}: {err}"));
        let a = parcc::fcfs(n, e.model.host.workstations - 1);
        let cold = warp_netsim::simulate(e.model.host, par_spec(&result, &e.model, &a)).elapsed_s;
        let warm = warp_netsim::simulate(
            e.model.host,
            par_spec_cached(&result, &e.model, &a, &vec![true; n]),
        )
        .elapsed_s;
        let mut one_edited = vec![true; n];
        one_edited[n - 1] = false;
        let edited = warp_netsim::simulate(
            e.model.host,
            par_spec_cached(&result, &e.model, &a, &one_edited),
        )
        .elapsed_s;
        let _ = writeln!(
            out,
            "{n:>4} {:>11.2}m {:>11.2}m {:>11.2}m {:>9.1}%",
            minutes(cold),
            minutes(warm),
            minutes(edited),
            warm / cold * 100.0
        );
        lo = lo.min(cold / warm);
        hi = hi.max(cold / warm);
    }
    let fig6_top = NS
        .iter()
        .map(|&n| data.cmp(FunctionSize::Medium, n).speedup)
        .fold(0.0, f64::max);
    let _ = writeln!(
        out,
        "a warm rebuild fetches stored objects instead of recompiling: its cost is the\nmodule parse plus I/O, giving a speedup of {lo:.1}-{hi:.1}x over the cold build —\nbeyond what any processor count reaches on this workload (fig6 tops out at\n{fig6_top:.2}x), because recompilation is skipped rather than parallelized.\nEditing one function pays for exactly that function's recompilation."
    );
    out
}

/// §4.2.2 cross-check: the Katseff-style parallel assembler.
fn katseff() -> String {
    let e = Experiment::default();
    let sweeps = parcc::katseff_comparison(&e).expect("katseff");
    let mut out = String::new();
    let _ = writeln!(out, "katseff: §4.2.2 data-partitioned parallel assembler");
    for s in &sweeps {
        let _ = writeln!(out, "{} ({} functions):", s.label, s.functions);
        let mut procs = String::from("  procs  ");
        let mut speed = String::from("  speedup");
        for p in &s.points {
            let _ = write!(procs, " {:>5}", p.processors);
            let _ = write!(speed, " {:>5.2}", p.speedup);
        }
        let _ = writeln!(out, "{procs}");
        let _ = writeln!(out, "{speed}");
    }
    let _ = writeln!(
        out,
        "paper: \"speedup about 6 for a large program and 4 for a small one; adding\nprocessors past 8 for the large program (5 for the small one) yields no\nfurther decrease in elapsed time\""
    );
    out
}

/// §3.3/§4.3 scheduling comparison: FCFS vs cost-estimate grouping on
/// the user program across processor counts.
fn scheduling() -> String {
    use parcc::Placement;
    let e = Experiment::default();
    let src = warp_workload::user_program();
    let result = parcc::compile_module_source(&src, &e.opts).expect("compile");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scheduling: FCFS wrap-around vs LPT grouping (user program)"
    );
    let _ = writeln!(out, "{:>6} {:>12} {:>12}", "procs", "fcfs", "grouped");
    for p in [2usize, 3, 5, 9] {
        // FCFS restricted to p machines: emulate by a model with fewer
        // workstations visible to the wrap-around.
        let mut fcfs_model = e.clone();
        fcfs_model.model.host.workstations = p + 1; // + the master's
        let fcfs = fcfs_model.compare_result(&result, Placement::Fcfs);
        let grouped = e.compare_result(&result, Placement::Grouped { processors: p });
        let _ = writeln!(
            out,
            "{p:>6} {:>12.2} {:>12.2}",
            fcfs.speedup, grouped.speedup
        );
    }
    let _ = writeln!(
        out,
        "grouping by the LoC × nesting estimate matches or beats FCFS at every width\n(§4.3: \"smaller functions can be grouped and compiled on the same processor\")"
    );
    out
}

/// §5.2 host observations: shared-resource utilization during an
/// 8-way parallel compilation.
fn utilization() -> String {
    let e = Experiment::default();
    let src = warp_workload::synthetic_program(FunctionSize::Large, 8);
    let result = parcc::compile_module_source(&src, &e.opts).expect("compile");
    let a = parcc::fcfs(result.records.len(), e.model.host.workstations - 1);
    let rep = warp_netsim::simulate(
        e.model.host,
        parcc::simspec::par_spec(&result, &e.model, &a),
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "utilization: shared resources during parallel S8(f_large)"
    );
    let _ = writeln!(out, "  elapsed          {:>8.1} min", rep.elapsed_s / 60.0);
    let _ = writeln!(
        out,
        "  ethernet busy    {:>8.1} min ({:>4.1}% of elapsed)",
        rep.ethernet_busy_s / 60.0,
        rep.ethernet_busy_s / rep.elapsed_s * 100.0
    );
    let _ = writeln!(
        out,
        "  file-server busy {:>8.1} min ({:>4.1}% of elapsed)",
        rep.disk_busy_s / 60.0,
        rep.disk_busy_s / rep.elapsed_s * 100.0
    );
    let used = rep.workstations_used();
    let avg_cpu: f64 =
        rep.cpu_busy_s.iter().sum::<f64>() / used.max(1) as f64 / rep.elapsed_s * 100.0;
    let _ = writeln!(
        out,
        "  workstations     {used} used, avg CPU utilization {avg_cpu:.1}%"
    );
    let _ = writeln!(
        out,
        "\"general purpose systems such as workstations connected by local networks can\nserve as efficient parallel hosts\" (§5) — the file server is the shared\nbottleneck that limits scaling (§5.2)"
    );
    out
}

/// Writes the virtual-time traces behind the Figure 6 medium-size
/// series to `dir` as Chrome `trace_event` JSON (one `seq` and one
/// `par` file per function count), validating each file before it is
/// written. Returns the written paths. EXPERIMENTS.md documents how
/// the figures cross-check against these files.
///
/// # Errors
///
/// Returns an error if a trace fails validation or a file cannot be
/// written.
///
/// # Panics
///
/// Panics if a test program fails to compile (a bug in the workload
/// generator or compiler).
pub fn write_fig6_traces(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    use std::io::{Error, ErrorKind};
    std::fs::create_dir_all(dir)?;
    let e = Experiment::default();
    let mut written = Vec::new();
    for n in NS {
        let src = warp_workload::synthetic_program(FunctionSize::Medium, n);
        let result = parcc::compile_module_source(&src, &e.opts)
            .unwrap_or_else(|err| panic!("compile medium n={n}: {err}"));
        let (_, traces) = e.compare_result_traced(&result, parcc::Placement::Fcfs);
        for (kind, snap) in [("seq", &traces.seq), ("par", &traces.par)] {
            let json = warp_obs::to_chrome_json(snap);
            let stats = warp_obs::validate_chrome_json(&json)
                .map_err(|m| Error::new(ErrorKind::InvalidData, m))?;
            if stats.spans == 0 {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("fig6 {kind} n={n}: trace has no spans"),
                ));
            }
            let path = dir.join(format!("fig6-medium-n{n}-{kind}.json"));
            std::fs::write(&path, &json)?;
            written.push(path);
        }
    }
    Ok(written)
}

/// Renders one named figure from collected data.
///
/// # Panics
///
/// Panics on an unknown figure name (the binary validates first).
pub fn render(data: &EvalData, figure: &str) -> String {
    use FunctionSize::*;
    match figure {
        "fig3" => times_figure(data, Tiny, "fig3", "paper Figure 3"),
        "fig4" => times_figure(data, Large, "fig4", "paper Figure 4"),
        "fig5" => times_figure(data, Huge, "fig5", "paper Figure 5"),
        "fig12" => times_figure(data, Small, "fig12", "paper Figure 12"),
        "fig13" => times_figure(data, Medium, "fig13", "paper Figure 13"),
        "fig6" => fig6(data),
        "fig7" => fig7(data),
        "fig8" => overhead_figure(data, &[Tiny, Small], "fig8"),
        "fig9" => overhead_figure(data, &[Medium, Large], "fig9"),
        "fig10" => overhead_figure(data, &[Huge], "fig10"),
        "fig14" => abs_overhead_figure(data, &[Tiny, Small], "fig14"),
        "fig15" => abs_overhead_figure(data, &[Medium, Large], "fig15"),
        "fig16" => abs_overhead_figure(data, &[Huge], "fig16"),
        "fig11" => fig11(data),
        "user-table" => user_table(data),
        "headline" => headline(data),
        "ablation-inline" => ablation_inline(),
        "ablation-unroll" => ablation_unroll(),
        "parmake" => parmake(),
        "katseff" => katseff(),
        "scheduling" => scheduling(),
        "utilization" => utilization(),
        "ablation-ifconv" => ablation_ifconv(),
        "cache" => cache_figure(data),
        "faults" => faults_figure(),
        other => panic!("unknown figure `{other}`"),
    }
}
