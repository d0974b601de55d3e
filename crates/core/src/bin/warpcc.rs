//! `warpcc` — the Warp compiler driver, command-line edition.
//!
//! ```text
//! warpcc [OPTIONS] <FILE | ->
//!
//!   --emit ast|ir|vcode|asm|summary|facts  what to print
//!                               (default: summary)
//!   -o FILE                     write the binary download module
//!   --inline                    enable the §5.1 inlining extension
//!   --ifconv                    if-convert branchy loop bodies
//!   --absint                    run the abstract-interpretation
//!                               value/poison analysis per function,
//!                               apply its fact-driven rewrites, and
//!                               report proven facts (--emit facts
//!                               prints the full per-function report
//!                               and implies this flag)
//!   --jobs N, -j N              compile with N parallel jobs; 0 means
//!                               the machine's available parallelism
//!   --workers N                 alias for --jobs (the historical
//!                               spelling)
//!   --farm N                    compile on a build farm of N real
//!                               `warpd-worker` OS processes over
//!                               sockets (0 = available parallelism);
//!                               combines with --cache-dir (shared
//!                               object store), --fault-seed (real
//!                               process kills), --trace and --time
//!   --fault-seed N              inject seeded worker faults (panics,
//!                               lost results, stalls) into the thread
//!                               pool — or real process kills/exits/
//!                               stalls with --farm — and recover from
//!                               them; implies the default chaos mix
//!                               (needs --workers or --farm)
//!   --fault-spec SPEC           tune the injection: comma-separated
//!                               crash=P,lose=P,stall=P,timeout_ms=N,
//!                               attempts=N (needs --fault-seed)
//!   --run FUNC [ARGS...]        execute FUNC on a simulated cell
//!                               (args are floats; use iN for ints)
//!   --verify                    run the static verifiers at every
//!                               pass boundary and over the final image
//!   --lint                      print W2 source lints and exit
//!   --time                      print per-phase wall-clock times
//!   --trace FILE                write a Chrome trace_event JSON file
//!                               (load in Perfetto / chrome://tracing)
//!                               and print a span summary to stderr
//!   --cache-dir DIR             reuse compiled functions across runs:
//!                               content-addressed objects under DIR
//!   --cache-stats               print hit/miss/store counters to
//!                               stderr after compiling
//! ```
//!
//! Examples:
//!
//! ```text
//! warpcc program.w2
//! warpcc --emit asm program.w2
//! warpcc --verify program.w2
//! warpcc --lint program.w2
//! warpcc --jobs 8 --time program.w2
//! warpcc --jobs 0 program.w2        # all available cores
//! warpcc --jobs 8 --fault-seed 7 program.w2
//! warpcc --jobs 8 --fault-seed 7 --cache-dir .warpcc-cache program.w2
//! warpcc --farm 4 program.w2
//! warpcc --farm 4 --cache-dir .warpcc-cache program.w2
//! warpcc --farm 4 --fault-seed 7 program.w2
//! warpcc --jobs 8 --fault-seed 7 --fault-spec crash=0.5,attempts=4 program.w2
//! warpcc --trace trace.json program.w2
//! warpcc --cache-dir .warpcc-cache --cache-stats program.w2
//! warpcc --run dot8 2.0 i4 program.w2
//! ```

use parcc::threads::{ChaosPlan, RetryPolicy};
use parcc::{Build, CompileOptions, CompileResult, FnCache};
use std::io::Read;
use std::process::ExitCode;
use std::time::Duration;
use warp_obs::{ClockDomain, Trace};
use warp_target::interp::{Cell, Value};
use warp_target::isa::Reg;

struct Args {
    emit: String,
    inline: bool,
    ifconv: bool,
    absint: bool,
    verify: bool,
    lint: bool,
    workers: Option<usize>,
    farm: Option<usize>,
    fault_seed: Option<u64>,
    fault_spec: Option<String>,
    run: Option<(String, Vec<Value>)>,
    time: bool,
    trace: Option<String>,
    cache_dir: Option<String>,
    cache_stats: bool,
    input: Option<String>,
    output: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        emit: "summary".to_string(),
        inline: false,
        ifconv: false,
        absint: false,
        verify: false,
        lint: false,
        workers: None,
        farm: None,
        fault_seed: None,
        fault_spec: None,
        run: None,
        time: false,
        trace: None,
        cache_dir: None,
        cache_stats: false,
        input: None,
        output: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--emit" => {
                args.emit = it.next().ok_or("--emit needs a value")?;
                if !["ast", "ir", "vcode", "asm", "summary", "facts"].contains(&args.emit.as_str())
                {
                    return Err(format!("unknown emit kind `{}`", args.emit));
                }
            }
            "--inline" => args.inline = true,
            "--ifconv" => args.ifconv = true,
            "--absint" => args.absint = true,
            "--verify" => args.verify = true,
            "--lint" => args.lint = true,
            "-o" => args.output = Some(it.next().ok_or("-o needs a path")?),
            "--trace" => args.trace = Some(it.next().ok_or("--trace needs a path")?),
            "--cache-dir" => args.cache_dir = Some(it.next().ok_or("--cache-dir needs a path")?),
            "--cache-stats" => args.cache_stats = true,
            "--time" => args.time = true,
            "--jobs" | "-j" | "--workers" => {
                let n = it.next().ok_or(format!("{a} needs a number"))?;
                let raw: usize = n.parse().map_err(|_| format!("bad job count `{n}`"))?;
                // 0 = "use the machine": resolve through the shared
                // default instead of a hardcoded count.
                args.workers = Some(parcc::resolve_jobs(raw));
            }
            "--farm" => {
                let n = it.next().ok_or("--farm needs a number")?;
                let raw: usize = n.parse().map_err(|_| format!("bad worker count `{n}`"))?;
                args.farm = Some(parcc::resolve_jobs(raw));
            }
            "--fault-seed" => {
                let n = it.next().ok_or("--fault-seed needs a number")?;
                args.fault_seed = Some(n.parse().map_err(|_| format!("bad fault seed `{n}`"))?);
            }
            "--fault-spec" => {
                args.fault_spec = Some(it.next().ok_or("--fault-spec needs a value")?);
            }
            "--run" => {
                let func = it.next().ok_or("--run needs a function name")?;
                let mut vals = Vec::new();
                while let Some(next) = it.peek() {
                    if next.starts_with("--") || !looks_like_value(next) {
                        break;
                    }
                    let v = it.next().unwrap();
                    vals.push(parse_value(&v)?);
                }
                args.run = Some((func, vals));
            }
            "--help" | "-h" => {
                println!(
                    "usage: warpcc [--emit ast|ir|vcode|asm|summary|facts] [--inline] [--ifconv] \
                     [--absint] [--verify] [--lint] [--jobs N] [--farm N] [--fault-seed N] \
                     [--fault-spec SPEC] [--run FUNC ARGS...] [--time] \
                     [--trace FILE] [--cache-dir DIR] [--cache-stats] [-o FILE] <FILE | ->"
                );
                std::process::exit(0);
            }
            other if args.input.is_none() => args.input = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(args)
}

/// Parses a `--fault-spec` string (`crash=0.5,lose=0.1,stall=0.2,
/// timeout_ms=500,attempts=4`) on top of the seed's default chaos mix.
fn parse_fault_spec(
    spec: &str,
    mut chaos: ChaosPlan,
    mut policy: RetryPolicy,
) -> Result<(ChaosPlan, RetryPolicy), String> {
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or(format!("bad fault-spec entry `{part}` (want key=value)"))?;
        let prob = |v: &str| -> Result<f64, String> {
            let p: f64 = v
                .parse()
                .map_err(|_| format!("bad probability `{v}` in fault-spec"))?;
            if (0.0..=1.0).contains(&p) {
                Ok(p)
            } else {
                Err(format!("probability `{v}` outside [0, 1]"))
            }
        };
        match key {
            "crash" => chaos.crash_prob = prob(value)?,
            "lose" => chaos.lose_prob = prob(value)?,
            "stall" => chaos.stall_prob = prob(value)?,
            "timeout_ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("bad timeout_ms `{value}`"))?;
                policy.job_timeout = Duration::from_millis(ms);
            }
            "attempts" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("bad attempts `{value}`"))?;
                policy.max_attempts = n.max(1);
            }
            other => {
                return Err(format!(
                    "unknown fault-spec key `{other}` (crash/lose/stall/timeout_ms/attempts)"
                ))
            }
        }
    }
    Ok((chaos, policy))
}

fn looks_like_value(s: &str) -> bool {
    s.parse::<f32>().is_ok() || (s.starts_with('i') && s[1..].parse::<i32>().is_ok())
}

fn parse_value(s: &str) -> Result<Value, String> {
    if let Some(rest) = s.strip_prefix('i') {
        if let Ok(v) = rest.parse::<i32>() {
            return Ok(Value::I(v));
        }
    }
    s.parse::<f32>()
        .map(Value::F)
        .map_err(|_| format!("bad argument `{s}` (float or iN)"))
}

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn summary(result: &CompileResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "module `{}`: {} section(s), {} function(s), {} download words, {} warning(s)",
        result.module_image.name,
        result.module_image.section_images.len(),
        result.records.len(),
        result.module_image.download_words(),
        result.warnings
    );
    // Absint columns only appear on --absint builds, so the default
    // summary layout (and everything that parses it) is unchanged.
    let absint = result.records.iter().any(|r| r.facts.is_some());
    if absint {
        let _ = writeln!(
            out,
            "{:>18} {:>6} {:>6} {:>7} {:>10} {:>9} {:>7} {:>9} {:>7} {:>7}",
            "function",
            "lines",
            "depth",
            "words",
            "units",
            "pipelined",
            "spills",
            "absint-it",
            "pruned",
            "elided"
        );
    } else {
        let _ = writeln!(
            out,
            "{:>18} {:>6} {:>6} {:>7} {:>10} {:>9} {:>7}",
            "function", "lines", "depth", "words", "units", "pipelined", "spills"
        );
    }
    for r in &result.records {
        let _ = write!(
            out,
            "{:>18} {:>6} {:>6} {:>7} {:>10} {:>9} {:>7}",
            r.name,
            r.lines,
            r.loop_depth,
            r.p3.words,
            r.compile_units(),
            r.p3.pipelined_loops,
            r.p3.spills
        );
        if absint {
            let _ = write!(
                out,
                " {:>9} {:>7} {:>7}",
                r.p2.absint_iterations, r.p2.branches_pruned, r.p2.trap_checks_elided
            );
        }
        let _ = writeln!(out);
    }
    out
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let path = args
        .input
        .as_deref()
        .ok_or("no input file (use - for stdin)")?;
    let source = read_input(path)?;

    let mut opts = CompileOptions::default();
    if args.inline {
        opts.inline = Some(warp_ir::InlinePolicy::default());
    }
    if args.ifconv {
        opts.if_convert = Some(warp_ir::IfConvPolicy::default());
    }
    if args.absint || args.emit == "facts" {
        opts.absint = true;
    }
    if args.verify {
        opts.verify_each_pass = true;
    }

    // Lint mode: parse + check, then print the W2 lints and stop.
    if args.lint {
        let (checked, mut warnings) =
            warp_lang::phase1_with_warnings(&source).map_err(|e| e.to_string())?;
        warnings.merge_sorted(warp_lang::lint_module(&checked.module));
        if warnings.is_empty() {
            eprintln!("lint: no warnings");
        } else {
            print!("{}", warnings.render_all_with_source(&source));
            eprintln!("lint: {} warning(s)", warnings.warning_count());
        }
        return Ok(());
    }

    // Pre-compile emit modes that don't need the full pipeline.
    if args.emit == "ast" {
        let checked = warp_lang::phase1(&source).map_err(|e| e.to_string())?;
        print!("{}", warp_lang::pretty::module_to_source(&checked.module));
        return Ok(());
    }
    if args.emit == "ir" {
        let (checked, _, _) =
            parcc::driver::prepare_module(&source, &opts).map_err(|e| e.to_string())?;
        for (_, ir) in warp_ir::lower_module(&checked).map_err(|e| e.to_string())? {
            let mut ir = ir;
            warp_ir::optimize(&mut ir, 10);
            print!("{}", ir.dump());
        }
        return Ok(());
    }
    if args.emit == "vcode" {
        let (checked, _, _) =
            parcc::driver::prepare_module(&source, &opts).map_err(|e| e.to_string())?;
        for si in 0..checked.module.sections.len() {
            for fi in 0..checked.module.sections[si].functions.len() {
                let func = &checked.module.sections[si].functions[fi];
                let symbols = &checked.sections[si].symbol_tables[fi];
                let signatures = &checked.sections[si].signatures;
                let p2 = warp_ir::phase2_verified(
                    func,
                    symbols,
                    signatures,
                    opts.unroll.as_ref(),
                    opts.if_convert.as_ref(),
                    opts.absint,
                    opts.verify_each_pass,
                )
                .map_err(|e| e.to_string())?;
                let vf = warp_codegen::select(&p2.ir, &p2.loops.pipelinable_blocks());
                print!("{}", vf.dump());
            }
        }
        return Ok(());
    }

    let trace = match &args.trace {
        Some(_) => Trace::new(ClockDomain::Monotonic),
        None => Trace::disabled(),
    };
    if args.farm.is_some() && args.workers.is_some() {
        return Err("--farm does not combine with --jobs (pick one executor)".to_string());
    }
    // A --cache-dir persists compiled functions across runs (and is
    // the farm's shared object store); --cache-stats alone still
    // counts hits and misses in memory. A farm without --cache-dir
    // brings its own private on-disk store.
    let cache = match &args.cache_dir {
        Some(dir) => {
            Some(FnCache::with_dir(dir).map_err(|e| format!("opening cache dir {dir}: {e}"))?)
        }
        None if args.cache_stats && args.farm.is_none() => Some(FnCache::in_memory()),
        None => None,
    };
    // Fault injection exists in the threaded executor and the farm.
    let faults = match (args.fault_seed, &args.fault_spec) {
        (Some(seed), spec) => {
            if args.workers.is_none() && args.farm.is_none() {
                return Err("--fault-seed needs --jobs or --farm".to_string());
            }
            let chaos = ChaosPlan::from_seed(seed);
            let policy = RetryPolicy::default();
            Some(match spec {
                Some(s) => parse_fault_spec(s, chaos, policy)?,
                None => (chaos, policy),
            })
        }
        (None, Some(_)) => return Err("--fault-spec needs --fault-seed".to_string()),
        (None, None) => None,
    };
    let farm = args.farm.map(parcc::FarmConfig::new);
    let t0 = std::time::Instant::now();
    let (result, report) = Build {
        jobs: args.farm.or(args.workers).unwrap_or(1),
        farm: farm.as_ref(),
        cache: cache.as_ref(),
        trace: &trace,
        faults: faults.as_ref().map(|(chaos, policy)| (chaos, policy)),
        ..Build::new(&source, &opts)
    }
    .run()
    .map_err(|e| e.to_string())?;
    if args.time {
        eprintln!(
            "phase1 {:?}, compile {:?} ({} worker(s)), link {:?}",
            report.phase1_wall, report.compile_wall, report.workers, report.link_wall
        );
    }
    if let Some(census) = &report.farm {
        if args.cache_stats || args.cache_dir.is_some() {
            eprintln!(
                "farm cache: {} pre-dispatch hit(s), {} hash-shipped, {} bytes-shipped",
                report.cache_hits, census.hash_shipped, census.bytes_shipped
            );
        }
    }
    if let Some((chaos, _)) = &faults {
        let s = report.faults;
        eprintln!(
            "faults (seed {}): {} crash(es), {} lost, {} timeout(s), {} retry(ies), \
             {} in-master fallback(s)",
            chaos.seed, s.crashes, s.lost, s.timeouts, s.retries, s.fallbacks
        );
    }
    if args.time {
        eprintln!("total {:?}", t0.elapsed());
    }
    if let Some(c) = &cache {
        if args.cache_stats {
            eprintln!("cache: {}", c.stats());
        }
    }

    if let Some(path) = &args.trace {
        let snap = trace.snapshot();
        let json = warp_obs::to_chrome_json(&snap);
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        eprint!("{}", warp_obs::render_summary(&snap, 10));
        eprintln!(
            "trace: wrote {} events to {path}",
            snap.spans.len() + snap.instants.len()
        );
    }

    if args.verify {
        // Per-pass IR checks, per-function image checks and the check
        // of the linked module all ran inside the build.
        let functions: usize = result
            .module_image
            .section_images
            .iter()
            .map(|s| s.functions.len())
            .sum();
        let words: u32 = result
            .module_image
            .section_images
            .iter()
            .map(|s| s.code_words())
            .sum();
        eprintln!("verify: {functions} function(s), {words} words — ok");
    }

    if let Some(path) = &args.output {
        let bytes =
            warp_target::download::encode(&result.module_image).map_err(|e| e.to_string())?;
        std::fs::write(path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {} bytes to {path}", bytes.len());
    }

    match args.emit.as_str() {
        "asm" => {
            for sec in &result.module_image.section_images {
                print!("{}", sec.disassemble());
            }
        }
        "facts" => print!("{}", parcc::facts_report(&result.records)),
        _ => print!("{}", summary(&result)),
    }

    if let Some((func, vals)) = args.run {
        let sec = result
            .module_image
            .section_images
            .iter()
            .find(|s| s.function_index(&func).is_some())
            .ok_or(format!("function `{func}` not found"))?;
        let mut cell = Cell::new(warp_target::CellConfig::default(), sec.clone())
            .map_err(|e| e.to_string())?;
        cell.set_strict(true);
        cell.prepare_call(&func, &vals).map_err(|e| e.to_string())?;
        cell.run(100_000_000).map_err(|e| e.to_string())?;
        println!(
            "{func}({}) = {} ({} cycles)",
            vals.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            cell.reg(Reg::RET).map_err(|e| e.to_string())?,
            cell.cycle()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("warpcc: {msg}");
            ExitCode::FAILURE
        }
    }
}
