//! `warp-benchmark`: the repo's one real-clock, layered benchmark.
//!
//! ```text
//! warp-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! warp-benchmark selftest
//! warp-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! A run is: set-up, then a window of `S` seconds of cycles, then the
//! checks that need the window to be over. See `benchmark/README.md`
//! for every metric.

mod compare;
mod cycle;
mod layers;
mod spans;
mod stats;
mod sys;
mod workloads;
mod world;

use cycle::{Cycles, Tally, WIDTH};
use layers::Layers;
use spans::Recorder;
use stats::{floor, percentile, Samples};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use warp_service::Client;
use warp_wire::json::{obj, Json};
use workloads::Project;
use world::{Bins, Daemon, Executed, RunDir};

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 15] = [
    ("setup_s", "s"),
    ("build_seq_s", "s"),
    ("build_threads_s", "s"),
    ("build_farm_s", "s"),
    ("threads_cpu_s", "s"),
    ("farm_cpu_s", "s"),
    ("build_cold_cached_s", "s"),
    ("rebuild_warm_s", "s"),
    ("rebuild_edit_s", "s"),
    ("req_warm_p10_ms", "ms"),
    ("req_edit_p10_ms", "ms"),
    ("req_cold_p10_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("code_words", "count"),
    ("exec_cycles", "count"),
];

/// Samples per timing metric the ISSUE sized a 40 s window for
/// (`skewed` ≥10, `heavy` ≥15, `wide` and `tenants` ≥30); a shorter
/// window is held to the same rate.
fn minimum_samples(workload: &str, seconds: f64) -> usize {
    let per_40s = match workload {
        "skewed" => 10.0,
        "heavy" => 15.0,
        _ => 30.0,
    };
    (per_40s * seconds / 40.0).floor() as usize
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("selftest") => selftest(),
        Some("compare") => compare::run(&args[1..]),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("warp-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

/// Everything one set-up builds. `daemon` is declared before `dir` so
/// that it is stopped before its directory goes.
struct World {
    project: Project,
    daemon: Daemon,
    client: Client,
    dir: RunDir,
    executed: Executed,
    gen_s: f64,
}

/// Source generation, reference interpretation of the probe functions
/// (machine against AST interpreter), `warpd` spawn and health probe.
/// Nothing is seeded: every cycle brings sources no cache has seen.
fn set_up(
    workload: &str,
    seed: u64,
    bins: &Bins,
    dir: PathBuf,
    rec: &mut Recorder,
) -> Result<World, String> {
    let (project, gen) = rec.time("workload.gen_s", |_| Project::generate(workload));
    let project = project?;
    let executed = world::execute_probes(&project, seed, 0, rec)?;
    let dir = RunDir::create(dir)?;
    let (daemon, client) = Daemon::spawn(bins, dir.path())?;
    Ok(World {
        project,
        daemon,
        client,
        dir,
        executed,
        gen_s: gen.as_secs_f64(),
    })
}

/// One set-up inside a span, with the host sample that goes with every
/// timed operation; a set-up that succeeded is a `setup_s` sample.
fn timed_set_up(
    args: &Args,
    bins: &Bins,
    dir: PathBuf,
    rec: &mut Recorder,
    samples: &mut Samples,
) -> Result<World, String> {
    cycle::host_sample(samples);
    let (world, took) = rec.time("setup", |rec| {
        set_up(&args.workload, args.seed, bins, dir, rec)
    });
    if world.is_ok() {
        samples.push("setup_s", took.as_secs_f64());
    }
    world
}

fn run(args: &Args) -> Result<bool, String> {
    // Before any thread exists: the farm puts its sockets and private
    // caches under the temp dir, and children inherit the variable.
    let run_path = RunDir::path_for_this_process();
    std::env::set_var("TMPDIR", run_path.join("tmp"));
    let bins = Bins::locate()?;
    let load1 = sys::load1();
    let mut rec = Recorder::new(args.trace);

    let mut samples = Samples::default();
    let mut world = timed_set_up(args, &bins, run_path.clone(), &mut rec, &mut samples)?;

    let mut farm = parcc::FarmConfig::new(WIDTH);
    farm.worker_cmd = Some(bins.worker.clone());
    let mut cycles = Cycles::new(
        &world.project,
        args.seed,
        farm.clone(),
        world.dir.path(),
        &mut world.client,
        samples,
    );
    let mut layers = Layers::default();

    // The window. A cycle is never cut short; the last one starts only
    // if at least half of the longest so far still fits.
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut cycle = 0u32;
    loop {
        cycle += 1;
        let began = Instant::now();
        rec.time("cycle", |rec| cycles.run(cycle, rec));
        // Set-up again, beside the world in use: like every other
        // timed operation it gets one sample per cycle.
        let again = timed_set_up(
            args,
            &bins,
            run_path.join("again"),
            &mut rec,
            &mut cycles.samples,
        );
        cycles.tally.op(
            "set-up, warpd drained and reaped",
            again.and_then(|w| w.daemon.stop(w.client)),
        );
        if args.trace {
            let srcs = world.project.sources(args.seed, cycle);
            let pass = rec
                .time("layers", |rec| {
                    layers.pass(&world.project, &srcs, world.dir.path(), &farm, rec)
                })
                .0;
            cycles.tally.op("layer pass", pass);
        }
        longest = longest.max(began.elapsed());
        if start.elapsed() + longest / 2 >= window {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    // After the window: the checks that are not free.
    let edit_reference = match &cycles.last_edit {
        None => Err("no edit build succeeded".to_string()),
        Some((src, both_got)) => parcc::compile_module_source(src, &cycles.opts)
            .map_err(|e| e.to_string())
            .and_then(|r| cycle::image_bytes(&r))
            .and_then(|want| cycle::same_bytes(both_got, &want)),
    };
    cycles
        .tally
        .op("edit rebuild equals a sequential compile", edit_reference);
    let executed_last = world::execute_probes(&world.project, args.seed, cycle, &mut rec);
    cycles.tally.op(
        "execution equals the AST interpreter",
        executed_last.map(|_| ()),
    );

    let peak_rss_mb = sys::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
    let Cycles {
        samples,
        mut tally,
        code_words,
        farm_retries,
        cache_errors,
        warm_lookups,
        edit_lookups,
        overloaded,
        requests,
        request_s,
        ..
    } = cycles;
    let World {
        project,
        daemon,
        client,
        dir,
        executed,
        gen_s,
    } = world;
    let warpd_rss_mb = sys::peak_rss_mb(daemon.pid()).unwrap_or(f64::NAN);
    tally.op("warpd drained and reaped", daemon.stop(client));
    drop(dir);
    let needle = run_path.to_string_lossy().into_owned();
    let leftovers = sys::processes_mentioning(&needle);
    tally.op(
        "no process outlives the run",
        leftovers
            .is_empty()
            .then_some(())
            .ok_or(leftovers.join("; ")),
    );
    tally.op(
        "run directory removed",
        (!run_path.exists())
            .then_some(())
            .ok_or(format!("{needle} still exists")),
    );

    let mut trace_spans = 0;
    if args.trace {
        let path = format!("benchmark/out/trace-{}.json", project.name);
        let json = rec.to_chrome_json();
        let written = std::fs::write(&path, &json)
            .map_err(|e| format!("write {path}: {e}"))
            .and_then(|()| warp_obs::validate_chrome_json(&json))
            .map(|stats| trace_spans = stats.spans);
        tally.op("chrome trace valid", written);
    }

    // The numbers. `floors` holds them as the clock read them;
    // the timings among them are then brought to the reference host
    // speed (see `sys::reference_work`).
    let host_ref_s = percentile(samples.get("host_ref_s"), 10.0);
    let host_speed = sys::REFERENCE_S / host_ref_s;
    let req_p10 = |name: &str| percentile(samples.get(name), 10.0);
    let floors: Vec<f64> = vec![
        floor(samples.get("setup_s")),
        floor(samples.get("build_seq_s")),
        floor(samples.get("build_threads_s")),
        floor(samples.get("build_farm_s")),
        floor(samples.get("threads_cpu_s")),
        floor(samples.get("farm_cpu_s")),
        floor(samples.get("build_cold_cached_s")),
        floor(samples.get("rebuild_warm_s")),
        floor(samples.get("rebuild_edit_s")),
        req_p10("req_warm_ms"),
        req_p10("req_edit_ms"),
        req_p10("req_cold_ms"),
        peak_rss_mb,
        code_words.unwrap_or(0) as f64,
        executed.cycles as f64,
    ];
    let end_to_end: Vec<f64> = END_TO_END
        .iter()
        .zip(&floors)
        .map(|((_, unit), v)| {
            if matches!(*unit, "s" | "ms") {
                v * host_speed
            } else {
                *v
            }
        })
        .collect();
    let built = samples.get("build_seq_s").len();
    let minimum = minimum_samples(project.name, args.seconds);
    // A metric without a single good sample has no value to report.
    let missing: Vec<&str> = END_TO_END
        .iter()
        .zip(&end_to_end)
        .filter(|(_, v)| !v.is_finite())
        .map(|((name, _), _)| *name)
        .collect();
    if !missing.is_empty() {
        tally.failed += 1;
        eprintln!("FAILED no usable sample for {}", missing.join(", "));
    }

    let per_layer = args.trace.then(|| {
        per_layer_metrics(&PerLayerInput {
            project: &project,
            samples: &samples,
            layers: &layers,
            floors: &floors,
            host_ref_s,
            host_speed,
            gen_s,
            exec_s: executed.machine_s,
            farm_retries,
            cache_errors,
            warm_lookups,
            edit_lookups,
            overloaded,
            throughput_rps: requests as f64 / request_s,
            warpd_rss_mb,
            trace_spans,
        })
    });

    println!(
        "warp-benchmark {} seed {} trace {}: {} cycles in {:.1} s, host_cores {} load1 {:.2}",
        project.name,
        args.seed,
        u8::from(args.trace),
        cycle,
        measured_s,
        sys::host_cores(),
        load1
    );
    println!(
        "end-to-end (floors, p10 for requests; timings at reference host speed, this run's was {host_speed:.4} of it):"
    );
    println!("  {:<24} {:>16} {:>16}", "", "reported", "as clocked");
    for (((name, unit), value), clocked) in END_TO_END.iter().zip(&end_to_end).zip(&floors) {
        println!("  {name:<24} {value:>16.6} {clocked:>16.6} {unit}");
    }
    // A traced run spends half of each cycle in the layer pass; the
    // minimum is for the runs that produce the end-to-end numbers.
    if args.trace {
        println!("samples per timing metric: {built}");
    } else {
        println!(
            "samples per timing metric: {built} (minimum {minimum} for a {:.0} s window: {})",
            args.seconds,
            if built >= minimum { "met" } else { "NOT met" }
        );
    }
    print!("{}", samples.audit());
    if let Some(rows) = &per_layer {
        println!("per layer ({} passes):", layers.passes);
        for (name, unit, value) in rows {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
        println!("self time by span name:");
        for (name, secs, n) in spans::self_time_table(rec.spans()).iter().take(25) {
            println!("  {name:<32} {secs:>12.6} s in {n} spans");
        }
    }
    println!(
        "ops_attempted {} ops_failed {}",
        tally.attempted, tally.failed
    );

    let metrics: Vec<(&str, Json)> = match &per_layer {
        None => END_TO_END
            .iter()
            .zip(&end_to_end)
            .map(|((name, unit), v)| (*name, metric(*v, unit)))
            .collect(),
        Some(rows) => rows
            .iter()
            .map(|(name, unit, v)| (*name, metric(*v, unit)))
            .collect(),
    };
    let result = obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", obj(metrics)),
    ]);
    if let Some(out) = &args.out {
        let line = obj(vec![
            ("workload", Json::Str(project.name.to_string())),
            ("seed", Json::Num(args.seed as f64)),
            ("trace", Json::Bool(args.trace)),
            ("host_cores", Json::Num(sys::host_cores() as f64)),
            ("load1", Json::Num(load1)),
            ("samples", samples.to_json()),
            ("result", result.clone()),
        ]);
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("append to {}: {e}", out.display()))?;
    }
    println!("{result}");
    Ok(true)
}

/// A metric value for the result line. A value that could not be
/// measured is written as 0 next to `correct: false`: JSON has no NaN.
fn metric(value: f64, unit: &str) -> Json {
    obj(vec![
        (
            "value",
            Json::Num(if value.is_finite() { value } else { 0.0 }),
        ),
        ("unit", Json::Str(unit.to_string())),
    ])
}

struct PerLayerInput<'a> {
    project: &'a Project,
    samples: &'a Samples,
    layers: &'a Layers,
    /// The end-to-end metrics as the clock read them, so that they
    /// can be set against the layers' own floors.
    floors: &'a [f64],
    host_ref_s: f64,
    host_speed: f64,
    gen_s: f64,
    exec_s: f64,
    farm_retries: usize,
    cache_errors: u64,
    warm_lookups: (u64, u64),
    edit_lookups: (u64, u64),
    overloaded: u64,
    throughput_rps: f64,
    warpd_rss_mb: f64,
    trace_spans: usize,
}

/// The per-layer metrics of a traced run, layer by layer (the layers
/// are the crates). `netsim` is on no real-build path and has none.
fn per_layer_metrics(x: &PerLayerInput<'_>) -> Vec<(&'static str, &'static str, f64)> {
    let l = x.layers;
    let s = x.samples;
    let e2e = |name: &str| {
        let at = END_TO_END
            .iter()
            .position(|(n, _)| *n == name)
            .expect("known metric");
        x.floors[at]
    };
    let p = |name: &str, pct: f64| percentile(s.get(name), pct);
    let ratio = |hits_lookups: (u64, u64)| hits_lookups.0 as f64 / hits_lookups.1 as f64;
    let staged_total = [
        "lang.parse_s",
        "lang.sema_s",
        "ir.inline_s",
        "ir.phase2_s",
        "codegen.phase3_s",
        "analyze.verify_s",
        "codegen.link_s",
    ]
    .iter()
    .map(|n| l.floor(n))
    .sum::<f64>();
    let seq_cpu = floor(s.get("seq_cpu_s"));
    let mut rows: Vec<(&'static str, &'static str, f64)> = vec![
        ("host.ref_p10_s", "s", x.host_ref_s),
        ("host.speed", "ratio", x.host_speed),
        ("workload.gen_s", "s", x.gen_s),
        (
            "workload.source_bytes",
            "bytes",
            x.project
                .modules
                .iter()
                .map(|m| m.source_bytes())
                .sum::<usize>() as f64,
        ),
        ("workload.functions", "count", x.project.functions() as f64),
        ("lang.lex_s", "s", l.floor("lang.lex_s")),
        ("lang.parse_s", "s", l.floor("lang.parse_s")),
        ("lang.sema_s", "s", l.floor("lang.sema_s")),
        ("lang.tokens", "count", l.count("lang.tokens")),
        ("lang.statements", "count", l.count("lang.statements")),
        (
            "lang.tokens_per_s",
            "1/s",
            l.count("lang.tokens") / l.floor("lang.lex_s"),
        ),
        ("ir.inline_s", "s", l.floor("ir.inline_s")),
        ("ir.inlined_calls", "count", l.count("ir.inlined_calls")),
        ("ir.phase2_s", "s", l.floor("ir.phase2_s")),
        (
            "ir.absint_s",
            "s",
            if x.project.req.absint {
                l.floor("ir.phase2_s") - l.floor("ir.phase2_plain_s")
            } else {
                0.0
            },
        ),
    ];
    for name in [
        "ir.lowered_insts",
        "ir.optimized_insts",
        "ir.opt_visits",
        "ir.dep_tests",
        "ir.branches_pruned",
        "ir.trap_checks_elided",
    ] {
        rows.push((name, "count", l.count(name)));
    }
    for name in ["codegen.phase3_s", "codegen.phase3_max_s", "codegen.link_s"] {
        rows.push((name, "s", l.floor(name)));
    }
    for name in [
        "codegen.ops_selected",
        "codegen.modulo_attempts",
        "codegen.list_attempts",
        "codegen.pipelined_loops",
        "codegen.fallback_loops",
        "codegen.spills",
        "codegen.words",
    ] {
        rows.push((name, "count", l.count(name)));
    }
    rows.extend([
        ("analyze.verify_s", "s", l.floor("analyze.verify_s")),
        (
            "analyze.verify_errors",
            "count",
            l.count("analyze.verify_errors"),
        ),
        ("target.encode_s", "s", l.floor("target.encode_s")),
        ("target.decode_s", "s", l.floor("target.decode_s")),
        ("target.fn_encode_s", "s", l.floor("target.fn_encode_s")),
        ("target.fn_decode_s", "s", l.floor("target.fn_decode_s")),
        (
            "target.module_bytes",
            "bytes",
            l.count("target.module_bytes"),
        ),
        ("target.exec_s", "s", x.exec_s),
        ("cache.key_s", "s", l.floor("cache.key_s")),
        ("cache.store_s", "s", l.floor("cache.store_s")),
        ("cache.lookup_disk_s", "s", l.floor("cache.lookup_disk_s")),
        ("cache.lookup_mem_s", "s", l.floor("cache.lookup_mem_s")),
        ("cache.bytes", "bytes", l.count("cache.bytes")),
        ("cache.hit_ratio_warm", "ratio", ratio(x.warm_lookups)),
        ("cache.hit_ratio_edit", "ratio", ratio(x.edit_lookups)),
        (
            "cache.errors",
            "count",
            x.cache_errors as f64 + l.count("cache.errors"),
        ),
        ("core.phase1_s", "s", l.floor("core.phase1_s")),
        ("core.phase1_par_s", "s", l.floor("core.phase1_par_s")),
        ("core.compile_fn_s", "s", l.floor("core.compile_fn_s")),
        (
            "core.compile_fn_max_s",
            "s",
            l.floor("core.compile_fn_max_s"),
        ),
        ("core.link_par_s", "s", l.floor("core.link_par_s")),
        ("core.staged_total_s", "s", staged_total),
        (
            "core.driver_overhead_s",
            "s",
            e2e("build_seq_s") - staged_total,
        ),
        ("core.build_seq_p50_s", "s", p("build_seq_s", 50.0)),
        ("core.build_threads_p50_s", "s", p("build_threads_s", 50.0)),
        ("core.build_farm_p50_s", "s", p("build_farm_s", 50.0)),
        (
            "threads.speedup",
            "ratio",
            e2e("build_seq_s") / e2e("build_threads_s"),
        ),
        ("threads.cpu_ratio", "ratio", e2e("threads_cpu_s") / seq_cpu),
        (
            "farm.speedup",
            "ratio",
            e2e("build_seq_s") / e2e("build_farm_s"),
        ),
        ("farm.cpu_ratio", "ratio", e2e("farm_cpu_s") / seq_cpu),
        ("farm.sys_s", "s", floor(s.get("farm_sys_s"))),
        ("farm.spawn_s", "s", l.floor("farm.spawn_s")),
        ("farm.retries", "count", x.farm_retries as f64),
        ("wire.req_encode_s", "s", l.floor("wire.req_encode_s")),
        ("wire.req_decode_s", "s", l.floor("wire.req_decode_s")),
        ("wire.resp_encode_s", "s", l.floor("wire.resp_encode_s")),
        ("wire.resp_decode_s", "s", l.floor("wire.resp_decode_s")),
        ("wire.frame_rt_s", "s", l.floor("wire.frame_rt_s")),
        ("wire.req_bytes", "bytes", l.count("wire.req_bytes")),
        ("wire.resp_bytes", "bytes", l.count("wire.resp_bytes")),
        ("service.req_warm_p50_ms", "ms", p("req_warm_ms", 50.0)),
        ("service.req_warm_p95_ms", "ms", p("req_warm_ms", 95.0)),
        ("service.req_edit_p50_ms", "ms", p("req_edit_ms", 50.0)),
        ("service.req_cold_p50_ms", "ms", p("req_cold_ms", 50.0)),
        (
            "service.compile_warm_p50_ms",
            "ms",
            p("compile_warm_ms", 50.0),
        ),
        (
            "service.compile_edit_p50_ms",
            "ms",
            p("compile_edit_ms", 50.0),
        ),
        (
            "service.compile_cold_p50_ms",
            "ms",
            p("compile_cold_ms", 50.0),
        ),
        ("service.queue_p50_ms", "ms", p("queue_ms", 50.0)),
        (
            "service.overhead_warm_p10_ms",
            "ms",
            p("overhead_warm_ms", 10.0),
        ),
        ("service.throughput_rps", "1/s", x.throughput_rps),
        ("service.overloaded", "count", x.overloaded as f64),
        ("service.warpd_peak_rss_mb", "MB", x.warpd_rss_mb),
        (
            "obs.trace_overhead_ratio",
            "ratio",
            l.floor("obs.build_traced_s") / e2e("build_seq_s"),
        ),
        ("obs.spans", "count", x.trace_spans as f64),
    ]);
    rows
}

/// Names and units of the per-layer metrics, for `BENCHMARK.json`.
#[cfg(test)]
fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    let project = Project::generate("tenants").unwrap();
    per_layer_metrics(&PerLayerInput {
        project: &project,
        samples: &Samples::default(),
        layers: &Layers::default(),
        floors: &[0.0; END_TO_END.len()],
        host_ref_s: 0.0,
        host_speed: 1.0,
        gen_s: 0.0,
        exec_s: 0.0,
        farm_retries: 0,
        cache_errors: 0,
        warm_lookups: (0, 0),
        edit_lookups: (0, 0),
        overloaded: 0,
        throughput_rps: 0.0,
        warpd_rss_mb: 0.0,
        trace_spans: 0,
    })
    .into_iter()
    .map(|(name, unit, _)| (name, unit))
    .collect()
}

/// The checks must be able to fail: flips one byte of a built image
/// and one byte of a response and demands that both are reported.
fn selftest() -> Result<bool, String> {
    let project = Project::generate("tenants")?;
    let src = &project.sources(1, 0)[0];
    let opts = project.req.to_compile_options();
    let build = |src: &str| {
        parcc::compile_parallel(src, &opts, WIDTH)
            .map_err(|e| e.to_string())
            .and_then(|(r, _)| cycle::image_bytes(&r))
    };
    let reference = parcc::compile_module_source(src, &opts)
        .map_err(|e| e.to_string())
        .and_then(|r| cycle::image_bytes(&r))?;
    let n = project.modules[0].fns.len() as u64;
    let response = |bytes: &[u8]| warp_service::Response::Compiled {
        id: 1,
        image_hex: warp_wire::to_hex(bytes),
        functions: n,
        warnings: 0,
        cache_hits: 0,
        cache_misses: n,
        queue_ns: 0,
        compile_ns: 1,
    };

    let mut tally = Tally::default();
    let good = build(src)?;
    tally.op("intact image", cycle::same_bytes(&good, &reference));
    tally.op(
        "intact response",
        cycle::check_response(&response(&good), &reference, 0, n).map(|_| ()),
    );
    let clean = tally.failed == 0;

    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x01;
    eprintln!("selftest: the next two FAILED lines are the injected faults");
    tally.op(
        "flipped image byte",
        cycle::same_bytes(&flipped, &reference),
    );
    tally.op(
        "flipped response byte",
        cycle::check_response(&response(&flipped), &reference, 0, n).map(|_| ()),
    );
    let caught = tally.failed == 2;
    println!(
        "selftest: intact outputs {}, {} of 2 injected faults reported",
        if clean { "accepted" } else { "REJECTED" },
        tally.failed
    );
    Ok(clean && caught)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selftest_sees_both_injected_faults() {
        assert_eq!(selftest(), Ok(true));
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload heavy --seed 3 --seconds 28 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("heavy", 3, 28.0, true)
        );
        assert!(parse("--workload heavy --seed 3 --seconds 28").is_err());
        assert!(parse("--workload heavy --seed x --seconds 28 --trace 0").is_err());
        assert!(parse("--workload heavy --seed 3 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload heavy --seed 3 --seconds 28 --trace 2").is_err());
        assert!(parse("--bogus 1").is_err());
    }

    /// `BENCHMARK.json` and the program must name the same workloads
    /// and metrics, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let spec = compare::Spec::parse(&text).unwrap();
        let names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        assert_eq!(names, workloads::NAMES);
        let listed: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(listed, END_TO_END);
        let listed: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|(name, unit)| (name.as_str(), unit.as_str()))
            .collect();
        let program = per_layer_names();
        assert!(program.len() <= 128);
        assert_eq!(
            listed,
            program,
            "BENCHMARK.json per_layer should list, in this order: {}",
            program
                .iter()
                .map(|(n, u)| format!("{n}:{u}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    #[test]
    fn sample_minimums_scale_with_the_window() {
        assert_eq!(minimum_samples("skewed", 40.0), 10);
        assert_eq!(minimum_samples("heavy", 40.0), 15);
        assert_eq!(minimum_samples("wide", 28.0), 21);
    }
}
