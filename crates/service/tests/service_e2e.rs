//! End-to-end daemon behavior: bit-identical images vs direct
//! compilation, warm-cache hits across tenants, options fingerprints,
//! drain/shutdown lifecycle, and per-request service spans.

use std::time::Duration;
use warp_service::daemon::{DaemonConfig, Endpoint, Warpd};
use warp_service::proto::{from_hex, RequestOptions};
use warp_service::{Client, ErrorCode, Response};

fn tcp_config() -> DaemonConfig {
    DaemonConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()))
}

fn module(prefix: &str, functions: usize, lines: usize) -> String {
    let mut s = format!("module {prefix};\nsection main on cells 0..9;\n");
    for j in 0..functions {
        s.push_str(&warp_workload::function_source_with(
            &format!("{prefix}_f{j}"),
            lines,
            2,
        ));
        s.push('\n');
    }
    s.push_str("end;\n");
    s
}

fn connect(daemon: &Warpd) -> Client {
    Client::connect(daemon.endpoint(), Duration::from_secs(5)).expect("connect")
}

#[test]
fn daemon_image_is_bit_identical_to_direct_compilation() {
    let daemon = Warpd::start(tcp_config()).expect("start");
    let mut client = connect(&daemon);

    for options in [
        RequestOptions::default(),
        RequestOptions {
            inline: true,
            ifconv: true,
            absint: true,
            verify: false,
        },
    ] {
        let source = module("ident", 3, 20);
        let remote = match client.compile(&source, options).expect("compile") {
            Response::Compiled { image_hex, .. } => from_hex(&image_hex).expect("hex"),
            other => panic!("compile failed: {other:?}"),
        };
        let local = parcc::compile_module_source(&source, &options.to_compile_options())
            .expect("local compile");
        let local_bytes = warp_target::download::encode(&local.module_image).expect("encode");
        assert_eq!(
            remote, local_bytes,
            "daemon and warpcc images must be byte-identical"
        );
    }
    daemon.stop();
    daemon.join();
}

#[test]
fn jobs_request_is_bit_identical_to_sequential_and_direct() {
    let daemon = Warpd::start(tcp_config()).expect("start");
    let mut client = connect(&daemon);
    let source = module("jobs", 6, 18);

    // Per-request parallelism must never change the output bytes —
    // only latency. Compare jobs=1, an explicit jobs=4, and the
    // absent-field default against a direct in-process compile.
    let compile = |client: &mut Client, jobs: u64| match client
        .compile_jobs(&source, RequestOptions::default(), jobs)
        .expect("compile")
    {
        Response::Compiled { image_hex, .. } => from_hex(&image_hex).expect("hex"),
        other => panic!("compile (jobs={jobs}) failed: {other:?}"),
    };
    let sequential = compile(&mut client, 1);
    let parallel = compile(&mut client, 4);
    let defaulted = compile(&mut client, 0);
    let local =
        parcc::compile_module_source(&source, &RequestOptions::default().to_compile_options())
            .expect("local compile");
    let local_bytes = warp_target::download::encode(&local.module_image).expect("encode");
    assert_eq!(
        parallel, sequential,
        "jobs=4 must be byte-identical to jobs=1"
    );
    assert_eq!(
        defaulted, sequential,
        "daemon-default jobs must be byte-identical too"
    );
    assert_eq!(
        sequential, local_bytes,
        "daemon and warpcc images must be byte-identical"
    );
    daemon.stop();
    daemon.join();
}

#[test]
fn warm_recompile_hits_cache_for_every_function() {
    let daemon = Warpd::start(tcp_config()).expect("start");
    let mut client = connect(&daemon);
    let source = module("warm", 4, 16);

    match client
        .compile(&source, RequestOptions::default())
        .expect("cold")
    {
        Response::Compiled {
            cache_hits,
            cache_misses,
            ..
        } => {
            assert_eq!((cache_hits, cache_misses), (0, 4));
        }
        other => panic!("cold compile failed: {other:?}"),
    }
    // A second tenant compiling the identical module takes pure hits.
    let mut second = connect(&daemon);
    match second
        .compile(&source, RequestOptions::default())
        .expect("warm")
    {
        Response::Compiled {
            cache_hits,
            cache_misses,
            ..
        } => {
            assert_eq!((cache_hits, cache_misses), (4, 0));
        }
        other => panic!("warm compile failed: {other:?}"),
    }
    daemon.stop();
    daemon.join();
}

#[test]
fn single_function_edit_misses_exactly_once() {
    let daemon = Warpd::start(tcp_config()).expect("start");
    let mut client = connect(&daemon);

    let base = module("edit", 5, 16);
    assert!(matches!(
        client
            .compile(&base, RequestOptions::default())
            .expect("seed"),
        Response::Compiled { .. }
    ));

    // Regenerate function 2 with a longer body: same name, same
    // signature, different body — the other four keys survive.
    let mut edited = String::from("module edit;\nsection main on cells 0..9;\n");
    for j in 0..5 {
        let lines = if j == 2 { 17 } else { 16 };
        edited.push_str(&warp_workload::function_source_with(
            &format!("edit_f{j}"),
            lines,
            2,
        ));
        edited.push('\n');
    }
    edited.push_str("end;\n");

    match client
        .compile(&edited, RequestOptions::default())
        .expect("edit")
    {
        Response::Compiled {
            cache_hits,
            cache_misses,
            ..
        } => {
            assert_eq!(
                (cache_hits, cache_misses),
                (4, 1),
                "a one-function edit must recompile exactly that function"
            );
        }
        other => panic!("edit compile failed: {other:?}"),
    }
    daemon.stop();
    daemon.join();
}

#[test]
fn fingerprint_matches_local_and_distinguishes_options() {
    let daemon = Warpd::start(tcp_config()).expect("start");
    let mut client = connect(&daemon);

    let plain = RequestOptions::default();
    let tuned = RequestOptions {
        inline: true,
        ..RequestOptions::default()
    };
    let fp = |client: &mut Client, o: RequestOptions| match client.fingerprint(o).expect("fp") {
        Response::Fingerprint { fingerprint, .. } => fingerprint,
        other => panic!("unexpected {other:?}"),
    };
    let fp_plain = fp(&mut client, plain);
    let fp_tuned = fp(&mut client, tuned);
    assert_ne!(
        fp_plain, fp_tuned,
        "different options, different cache keyspace"
    );
    assert_eq!(
        fp_plain,
        format!(
            "{:016x}",
            parcc::options_fingerprint(&plain.to_compile_options())
        ),
        "daemon fingerprint must match the library's"
    );
    daemon.stop();
    daemon.join();
}

#[test]
fn drain_refuses_compiles_but_serves_introspection() {
    let daemon = Warpd::start(tcp_config()).expect("start");
    let mut client = connect(&daemon);

    assert!(matches!(
        client.drain().expect("drain"),
        Response::Draining { .. }
    ));

    // Compiles are refused with the stable `draining` code...
    let source = module("late", 1, 10);
    match client
        .compile(&source, RequestOptions::default())
        .expect("reply")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Draining),
        other => panic!("expected draining error, got {other:?}"),
    }
    // ...but health and stats still answer, and health says so.
    match client.health().expect("health") {
        Response::Health { info, .. } => assert_eq!(info.status, "draining"),
        other => panic!("unexpected {other:?}"),
    }
    assert!(matches!(
        client.cache_stats().expect("stats"),
        Response::CacheStats { .. }
    ));

    assert!(matches!(
        client.shutdown().expect("shutdown"),
        Response::Bye { .. }
    ));
    daemon.join();
}

#[test]
fn unix_socket_lifecycle_unlinks_on_shutdown() {
    let sock = std::env::temp_dir().join(format!(
        "warpd-e2e-{}-{:?}.sock",
        std::process::id(),
        std::thread::current().id()
    ));
    let daemon = Warpd::start(DaemonConfig::new(Endpoint::Unix(sock.clone()))).expect("start");
    assert!(sock.exists());

    let mut client = connect(&daemon);
    let source = module("unix", 2, 12);
    assert!(matches!(
        client
            .compile(&source, RequestOptions::default())
            .expect("compile"),
        Response::Compiled { .. }
    ));
    assert!(matches!(
        client.shutdown().expect("shutdown"),
        Response::Bye { .. }
    ));
    daemon.join();
    assert!(!sock.exists(), "socket file must be unlinked on shutdown");
}

/// Compiles a two-function module on a tracing daemon with `jobs`
/// workers and returns the trace plus the request's `service` span.
fn traced_request(jobs: u64) -> (warp_obs::TraceSnapshot, warp_obs::SpanRecord) {
    let mut config = tcp_config();
    config.trace = true;
    let daemon = Warpd::start(config).expect("start");
    let mut client = connect(&daemon);

    let source = module("traced", 2, 12);
    let (queue_ns, compile_ns) = match client
        .compile_jobs(&source, RequestOptions::default(), jobs)
        .expect("compile")
    {
        Response::Compiled {
            queue_ns,
            compile_ns,
            ..
        } => (queue_ns, compile_ns),
        other => panic!("compile failed: {other:?}"),
    };
    assert!(compile_ns > 0);

    let snap = daemon.trace().snapshot();
    let request_spans: Vec<_> = snap
        .spans_in("service")
        .filter(|s| s.name.starts_with("request"))
        .collect();
    assert_eq!(
        request_spans.len(),
        1,
        "one service request span per compile"
    );
    let span = request_spans[0].clone();
    assert_eq!(span.arg("compile_ns"), Some(compile_ns as f64));
    assert_eq!(span.arg("queue_ns"), Some(queue_ns as f64));
    assert_eq!(span.arg("cache_misses"), Some(2.0));

    // The whole thing exports as a valid Chrome trace.
    let json = warp_obs::chrome::to_chrome_json(&snap);
    warp_obs::chrome::validate_chrome_json(&json).expect("valid chrome trace");
    daemon.stop();
    daemon.join();
    (snap, span)
}

#[test]
fn requests_land_on_service_spans() {
    // `jobs = 1`: the compile's own spans — driver, worker, cache — all
    // share the request's track, so the per-request latency decomposes
    // in one trace row.
    let (snap, request) = traced_request(1);
    for cat in ["driver", "worker", "cache"] {
        let mut spans = snap.spans_in(cat).peekable();
        assert!(spans.peek().is_some(), "no {cat} spans");
        assert!(
            spans.all(|s| s.track == request.track),
            "{cat} spans must land on the request's track"
        );
    }
}

#[test]
fn parallel_request_keeps_driver_spans_and_shares_worker_rows() {
    // `jobs >= 2`: the driver spans stay on the request's track; the
    // function compiles (and their cache probes, taken under the
    // dedup lease) land on the shared `worker N` tracks.
    let (snap, request) = traced_request(2);
    let mut driver = snap.spans_in("driver").peekable();
    assert!(driver.peek().is_some(), "no driver spans");
    assert!(driver.all(|s| s.track == request.track));
    for cat in ["worker", "cache"] {
        let mut spans = snap.spans_in(cat).peekable();
        assert!(spans.peek().is_some(), "no {cat} spans");
        for s in spans {
            let track = snap.track_name(s.track);
            assert!(
                track.starts_with("worker "),
                "{cat} span `{}` on track `{track}`",
                s.name
            );
        }
    }
}
