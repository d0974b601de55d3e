//! Protocol edge-case tests against a live daemon, pinned to the
//! normative spec in `docs/SERVICE.md`: oversized frames, truncated
//! frames, unknown request kinds, malformed JSON, concurrent
//! duplicate dedup, and admission-control backpressure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use warp_service::daemon::{DaemonConfig, Endpoint, Warpd};
use warp_service::json;
use warp_service::proto::RequestOptions;
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

fn stop(daemon: Warpd) {
    daemon.stop();
    daemon.join();
}

/// No wait in this file is open-ended: anything that is not done
/// within this fails the test instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(120);

/// `h.join()` with a deadline.
fn join_within<T>(h: JoinHandle<T>, what: &str) -> T {
    let deadline = Instant::now() + PATIENCE;
    while !h.is_finished() {
        assert!(
            Instant::now() < deadline,
            "{what}: still running after {PATIENCE:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    h.join().unwrap_or_else(|_| panic!("{what}: panicked"))
}

#[test]
fn oversized_frame_gets_frame_too_large_then_close() {
    let mut config = tcp_config();
    config.max_frame = 256;
    let daemon = Warpd::start(config).expect("start");
    let mut client = connect(&daemon);

    // A frame whose declared length exceeds the limit. The daemon
    // must answer once with `frame-too-large` (id 0 — it never read
    // the payload) and close the connection.
    let payload = vec![b'x'; 512];
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    client.send_bytes(&frame).expect("send");
    match client.recv().expect("one response before close") {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 0);
            assert_eq!(code, ErrorCode::FrameTooLarge);
        }
        other => panic!("expected frame-too-large, got {other:?}"),
    }
    // The connection is now closed; further reads fail.
    assert!(client.recv().is_err());

    // The daemon itself is unharmed.
    let mut fresh = connect(&daemon);
    assert!(matches!(
        fresh.health().expect("health"),
        Response::Health { .. }
    ));
    stop(daemon);
}

#[test]
fn truncated_frame_drops_connection_but_not_daemon() {
    let daemon = Warpd::start(tcp_config()).expect("start");

    // Claim 100 bytes, send 10, hang up. The daemon must treat the
    // connection as dead and keep serving others.
    let mut client = connect(&daemon);
    let mut frame = 100u32.to_le_bytes().to_vec();
    frame.extend_from_slice(b"0123456789");
    client.send_bytes(&frame).expect("send");
    drop(client);

    let mut fresh = connect(&daemon);
    assert!(matches!(
        fresh.health().expect("health"),
        Response::Health { .. }
    ));
    stop(daemon);
}

#[test]
fn hostile_nesting_gets_bad_json_and_the_connection_lives() {
    let daemon = Warpd::start(tcp_config()).expect("start");
    let mut client = connect(&daemon);

    // 200 KB of `[`: a parser that recurses per level overflows the
    // connection thread's stack, and a stack overflow aborts the whole
    // daemon. The limit (32 levels, SERVICE.md) makes it `bad-json`.
    let payload = vec![b'['; 200_000];
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    client.send_bytes(&frame).expect("send");
    match client.recv().expect("reply") {
        Response::Error { id, code, message } => {
            assert_eq!((id, code), (0, ErrorCode::BadJson));
            assert!(message.contains("32 levels"), "names the limit: {message}");
        }
        other => panic!("expected bad-json, got {other:?}"),
    }
    // The frame boundary was intact: same connection, next request.
    assert!(matches!(
        client.health().expect("health on the same connection"),
        Response::Health { .. }
    ));
    stop(daemon);
}

#[test]
fn unknown_kind_and_bad_shapes_get_stable_codes() {
    let daemon = Warpd::start(tcp_config()).expect("start");
    let mut client = connect(&daemon);

    // Unknown kind: code `unknown-kind`, id echoed.
    let req = json::parse(r#"{"id": 7, "kind": "florp"}"#).unwrap();
    match client.call_raw(&req).expect("reply") {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 7);
            assert_eq!(code, ErrorCode::UnknownKind);
        }
        other => panic!("expected unknown-kind, got {other:?}"),
    }

    // Valid JSON, wrong shape (compile without module): `bad-request`.
    let req = json::parse(r#"{"id": 8, "kind": "compile"}"#).unwrap();
    match client.call_raw(&req).expect("reply") {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 8);
            assert_eq!(code, ErrorCode::BadRequest);
        }
        other => panic!("expected bad-request, got {other:?}"),
    }

    // Not JSON at all: `bad-json`, id 0. The connection survives all
    // three of these (frame boundaries were intact).
    let payload = b"this is not json";
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(payload);
    client.send_bytes(&frame).expect("send");
    match client.recv().expect("reply") {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 0);
            assert_eq!(code, ErrorCode::BadJson);
        }
        other => panic!("expected bad-json, got {other:?}"),
    }
    assert!(matches!(
        client.health().expect("health"),
        Response::Health { .. }
    ));
    stop(daemon);
}

#[test]
fn concurrent_duplicates_compile_each_function_once() {
    let mut config = tcp_config();
    config.workers = 8;
    config.queue_depth = 64;
    let daemon = Warpd::start(config).expect("start");

    const FUNCTIONS: usize = 4;
    const CLIENTS: usize = 6;
    let source = module("dup", FUNCTIONS, 18);

    let mut control = connect(&daemon);
    let misses_before = match control.cache_stats().expect("stats") {
        Response::CacheStats { stats, .. } => stats.misses,
        other => panic!("unexpected {other:?}"),
    };

    // All clients compile the same never-seen module at once. The
    // in-flight leases must collapse the duplicate work: each function
    // records exactly one miss (one compile) no matter how many
    // clients raced.
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let endpoint = daemon.endpoint().clone();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let source = source.clone();
            let endpoint = endpoint.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(&endpoint, Duration::from_secs(5)).expect("connect");
                barrier.wait();
                c.compile(&source, RequestOptions::default())
                    .expect("compile")
            })
        })
        .collect();
    let mut images = Vec::new();
    for h in handles {
        match join_within(h, "duplicate client") {
            Response::Compiled { image_hex, .. } => images.push(image_hex),
            other => panic!("compile failed: {other:?}"),
        }
    }
    // Every client got the same image.
    assert!(images.windows(2).all(|w| w[0] == w[1]));

    let misses_after = match control.cache_stats().expect("stats") {
        Response::CacheStats { stats, .. } => stats.misses,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(
        misses_after - misses_before,
        FUNCTIONS as u64,
        "expected exactly one miss per function across {CLIENTS} duplicate requests"
    );
    stop(daemon);
}

#[test]
fn full_admission_queue_answers_overloaded() {
    let mut config = tcp_config();
    config.workers = 1;
    config.queue_depth = 0; // no waiting room at all
    let daemon = Warpd::start(config).expect("start");

    // Keep the single worker busy for the whole probe: one client
    // submits slow, never-seen (so never cached) compiles back to back
    // until told to stop. A single slow compile would race the probe —
    // finish before it and the probe is admitted, not refused.
    let stop_busy = Arc::new(AtomicBool::new(false));
    let endpoint = daemon.endpoint().clone();
    let busy = std::thread::spawn({
        let stop_busy = Arc::clone(&stop_busy);
        move || {
            let mut c = Client::connect(&endpoint, Duration::from_secs(5)).expect("connect");
            let opts = RequestOptions {
                verify: true,
                absint: true,
                ..RequestOptions::default()
            };
            let mut compiled = 0u32;
            for round in 0.. {
                if stop_busy.load(Ordering::Relaxed) {
                    break;
                }
                let slow = module(&format!("slow{round}"), 3, 80);
                match c.compile(&slow, opts).expect("slow compile") {
                    Response::Compiled { .. } => compiled += 1,
                    // The probe got in between two of ours.
                    Response::Overloaded { .. } => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
            compiled
        }
    });

    // Probe until a compile is refused, not queued. (A probe that slips
    // into the gap between two slow compiles is admitted and answered;
    // the next one finds the worker busy again.)
    let mut control = connect(&daemon);
    let tiny = module("tiny", 1, 8);
    let deadline = Instant::now() + PATIENCE;
    loop {
        match control
            .compile(&tiny, RequestOptions::default())
            .expect("reply")
        {
            Response::Overloaded {
                active,
                queued,
                limit,
                ..
            } => {
                assert_eq!(active, 1);
                assert_eq!(queued, 0);
                assert_eq!(limit, 0);
                break;
            }
            Response::Compiled { .. } => assert!(
                Instant::now() < deadline,
                "a saturated daemon never answered overloaded"
            ),
            other => panic!("expected overloaded, got {other:?}"),
        }
    }

    stop_busy.store(true, Ordering::Relaxed);
    assert!(
        join_within(busy, "busy client") > 0,
        "the worker was kept busy"
    );
    // With the worker free again the same request succeeds.
    assert!(matches!(
        control
            .compile(&tiny, RequestOptions::default())
            .expect("reply"),
        Response::Compiled { .. }
    ));
    stop(daemon);
}
