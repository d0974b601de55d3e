//! Trace acceptance tests: the `warpcc --trace` CLI produces a
//! loadable Chrome trace with driver / per-pass / worker spans, the
//! netsim figure runs produce virtual-time traces, and the
//! span-buffer route to the paper's measurements
//! ([`parcc::Measurement::from_trace`]) agrees with the legacy
//! report-based route on the Figure 6 workload.

use parcc::simspec::{par_spec, seq_spec};
use parcc::{fcfs, overheads, CompileOptions, Experiment, Measurement, Placement};
use std::path::PathBuf;
use std::process::Command;
use warp_workload::{synthetic_program, FunctionSize};

fn example_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name)
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("warpcc-trace-{}-{tag}.json", std::process::id()))
}

#[test]
fn warpcc_trace_writes_chrome_trace_with_expected_scopes() {
    let out = temp_path("seq");
    let status = Command::new(env!("CARGO_BIN_EXE_warpcc"))
        .arg("--trace")
        .arg(&out)
        .arg(example_path("dot_product.w2"))
        .status()
        .expect("run warpcc");
    assert!(status.success());
    let json = std::fs::read_to_string(&out).expect("trace file");
    let _ = std::fs::remove_file(&out);
    let stats = warp_obs::validate_chrome_json(&json).expect("valid Chrome trace");
    assert!(stats.spans > 0, "{stats:?}");
    // Spans from the driver, per-pass, and worker scopes must all be
    // present (the acceptance bar for the tracing layer).
    for cat in ["driver", "pass", "worker"] {
        assert!(
            json.contains(&format!("\"cat\":\"{cat}\"")),
            "no {cat} spans in {json}"
        );
    }
    // Monotonic clock domain is declared in the file metadata.
    assert!(json.contains("\"clock_domain\":\"monotonic\""));
}

#[test]
fn warpcc_trace_with_workers_and_verify_adds_verify_spans() {
    let out = temp_path("par");
    let status = Command::new(env!("CARGO_BIN_EXE_warpcc"))
        .args(["--workers", "2", "--verify", "--trace"])
        .arg(&out)
        .arg(example_path("dot_product.w2"))
        .status()
        .expect("run warpcc");
    assert!(status.success());
    let json = std::fs::read_to_string(&out).expect("trace file");
    let _ = std::fs::remove_file(&out);
    let stats = warp_obs::validate_chrome_json(&json).expect("valid Chrome trace");
    assert!(stats.spans > 0);
    for cat in ["driver", "pass", "worker", "verify"] {
        assert!(
            json.contains(&format!("\"cat\":\"{cat}\"")),
            "no {cat} spans"
        );
    }
}

#[test]
fn parallel_compile_trace_has_the_documented_sched_shape() {
    // The scheduler-observability contract from docs/TRACING.md: one
    // `worker k` track per compile thread, and one `queue` counter on
    // the driver track, sampled at every push and every take.
    let workers = 4;
    let src = synthetic_program(FunctionSize::Small, 8);
    let trace = warp_obs::Trace::new(warp_obs::ClockDomain::Monotonic);
    let (result, _) = parcc::Build {
        jobs: workers,
        trace: &trace,
        ..parcc::Build::new(&src, &CompileOptions::default())
    }
    .run()
    .expect("parallel compile");
    assert_eq!(result.records.len(), 8);

    let snap = trace.snapshot();
    for w in 0..workers {
        let name = format!("worker {w}");
        assert_eq!(
            snap.tracks.iter().filter(|t| **t == name).count(),
            1,
            "one `{name}` track: {:?}",
            snap.tracks
        );
    }

    // 8 pushes and 8 takes, in the order the queue changed.
    let driver = snap.tracks.iter().position(|t| t == "driver");
    let queue: Vec<_> = snap.counters.iter().filter(|c| c.name == "queue").collect();
    assert_eq!(queue.len(), 16, "queue samples: {queue:?}");
    for c in &queue {
        assert_eq!(
            Some(c.track.0 as usize),
            driver,
            "`queue` off the driver track"
        );
        assert!((0.0..=8.0).contains(&c.value), "queue depth {}", c.value);
    }
    assert_eq!(queue.last().map(|c| c.value), Some(0.0));
    assert!(
        !snap.counters.iter().any(|c| c.name.starts_with("queue ")),
        "no per-worker queue counters: {:?}",
        snap.counters
    );
    assert_eq!(
        snap.instants.iter().filter(|i| i.cat == "sched").count(),
        0,
        "the compiler records no sched instants"
    );

    // The whole thing still exports as a loadable Chrome trace.
    let json = warp_obs::to_chrome_json(&snap);
    warp_obs::validate_chrome_json(&json).expect("valid Chrome trace");
}

#[test]
fn figure_run_produces_virtual_time_traces() {
    let e = Experiment::default();
    let src = synthetic_program(FunctionSize::Medium, 2);
    let result = parcc::compile_module_source(&src, &e.opts).expect("compile");
    let (_, traces) = e.compare_result_traced(&result, Placement::Fcfs);
    for snap in [&traces.seq, &traces.par] {
        assert_eq!(snap.domain, warp_obs::ClockDomain::Virtual);
        assert!(snap.spans_in("cpu").count() > 0);
        assert!(snap.spans_in("process").count() > 0);
        let json = warp_obs::to_chrome_json(snap);
        let stats = warp_obs::validate_chrome_json(&json).expect("valid Chrome trace");
        assert!(stats.spans > 0);
        assert!(json.contains("\"clock_domain\":\"virtual\""));
    }
    // The parallel run exercises the paper's process hierarchy.
    assert!(traces.par.spans_in("process").any(|s| s.name == "master"));
    assert!(traces
        .par
        .spans_in("process")
        .any(|s| s.name.starts_with("fn-master")));
}

#[test]
fn trace_derived_measurement_matches_report_on_fig6_workload() {
    let e = Experiment::default();
    let src = synthetic_program(FunctionSize::Medium, 4);
    let result = parcc::compile_module_source(&src, &CompileOptions::default()).expect("compile");
    let assignment = fcfs(
        result.records.len(),
        e.model.host.workstations.saturating_sub(1),
    );

    // Legacy route: simulator report → Measurement.
    let seq_report = warp_netsim::simulate(e.model.host, seq_spec(&result, &e.model));
    let par_report = warp_netsim::simulate(e.model.host, par_spec(&result, &e.model, &assignment));
    let seq_legacy = Measurement::from_report(&seq_report);
    let par_legacy = Measurement::from_report(&par_report);

    // Span-buffer route: traced simulation → Measurement.
    let (cmp, _) = e.compare_result_traced(&result, Placement::Fcfs);

    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    for (trace_m, legacy_m) in [(&cmp.seq, &seq_legacy), (&cmp.par, &par_legacy)] {
        assert!(
            close(trace_m.elapsed_s, legacy_m.elapsed_s),
            "{trace_m:?}\n{legacy_m:?}"
        );
        assert!(close(trace_m.max_cpu_s, legacy_m.max_cpu_s));
        assert!(close(trace_m.master_cpu_s, legacy_m.master_cpu_s));
        assert!(close(trace_m.parser_cpu_s, legacy_m.parser_cpu_s));
        assert!(close(trace_m.section_cpu_s, legacy_m.section_cpu_s));
        assert!(close(trace_m.compile_cpu_s, legacy_m.compile_cpu_s));
        assert!(close(trace_m.memory_overhead_s, legacy_m.memory_overhead_s));
        assert_eq!(
            trace_m.cpu_per_processor.len(),
            legacy_m.cpu_per_processor.len()
        );
        for (a, b) in trace_m
            .cpu_per_processor
            .iter()
            .zip(&legacy_m.cpu_per_processor)
        {
            assert!(close(*a, *b));
        }
    }

    // The §4.2.3 decomposition built on the span buffer matches the
    // decomposition built on the simulator report.
    let k = assignment.processors.max(1);
    let legacy_o = overheads(&par_legacy, &seq_legacy, k);
    assert_eq!(cmp.overheads.k, legacy_o.k);
    assert!(close(cmp.overheads.total_s, legacy_o.total_s));
    assert!(close(
        cmp.overheads.implementation_s,
        legacy_o.implementation_s
    ));
    assert!(close(cmp.overheads.system_s, legacy_o.system_s));
    assert!(close(cmp.overheads.total_frac, legacy_o.total_frac));
    assert!(close(cmp.overheads.system_frac, legacy_o.system_frac));
}
