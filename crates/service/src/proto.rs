//! The `warpd` wire protocol: framing, request/response types and
//! their JSON codec.
//!
//! The normative specification lives in `docs/SERVICE.md`; this module
//! implements it and the protocol tests pin the two against each
//! other. In short:
//!
//! * every message is one **frame**: a 4-byte little-endian payload
//!   length followed by that many bytes of UTF-8 JSON (one object);
//! * requests carry `id` (echoed verbatim in the response) and `kind`;
//! * responses carry `id` and `kind`; errors are ordinary responses of
//!   kind `error` with a stable machine-readable `code` from
//!   [`ErrorCode`];
//! * a frame whose declared length exceeds the receiver's limit is
//!   answered with `frame-too-large` (id 0 — the payload was never
//!   read) and the connection is closed.

use crate::json::{obj, Json};
use parcc::CompileOptions;

// The framing substrate lives in `warp-wire` (shared with the build
// farm); re-exported here so the daemon's public API is unchanged.
pub use warp_wire::frame::{
    from_hex, read_frame, read_message, to_hex, write_frame, write_message, FrameError,
    MAX_FRAME_DEFAULT,
};

/// Protocol version, carried in `health` responses. Bump on breaking
/// wire changes.
pub const PROTOCOL_VERSION: u32 = 1;

/// Stable machine-readable error codes (`docs/SERVICE.md` §Errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame payload was not valid JSON.
    BadJson,
    /// The JSON was valid but not a valid request shape.
    BadRequest,
    /// The request `kind` is not known to this daemon.
    UnknownKind,
    /// The declared frame length exceeds the daemon's limit.
    FrameTooLarge,
    /// Compilation failed; `message` carries the compiler diagnostics.
    CompileFailed,
    /// The daemon is draining and no longer accepts compile requests.
    Draining,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownKind => "unknown-kind",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::CompileFailed => "compile-failed",
            ErrorCode::Draining => "draining",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad-json" => ErrorCode::BadJson,
            "bad-request" => ErrorCode::BadRequest,
            "unknown-kind" => ErrorCode::UnknownKind,
            "frame-too-large" => ErrorCode::FrameTooLarge,
            "compile-failed" => ErrorCode::CompileFailed,
            "draining" => ErrorCode::Draining,
            _ => return None,
        })
    }
}

/// The compilation knobs a request may set — the subset of
/// [`CompileOptions`] that is meaningful per request (cell geometry
/// stays a daemon-wide setting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// Enable the §5.1 inlining extension.
    pub inline: bool,
    /// Enable if-conversion.
    pub ifconv: bool,
    /// Run the abstract interpreter and its fact-driven rewrites.
    pub absint: bool,
    /// Run the static verifiers at every pass boundary.
    pub verify: bool,
}

impl RequestOptions {
    /// Expands to full [`CompileOptions`] (defaults for everything the
    /// wire does not carry).
    pub fn to_compile_options(self) -> CompileOptions {
        CompileOptions {
            inline: self.inline.then(warp_ir::InlinePolicy::default),
            if_convert: self.ifconv.then(warp_ir::IfConvPolicy::default),
            absint: self.absint,
            verify_each_pass: self.verify,
            ..CompileOptions::default()
        }
    }

    fn to_json(self) -> Json {
        obj(vec![
            ("inline", Json::Bool(self.inline)),
            ("ifconv", Json::Bool(self.ifconv)),
            ("absint", Json::Bool(self.absint)),
            ("verify", Json::Bool(self.verify)),
        ])
    }

    fn from_json(v: Option<&Json>) -> Option<RequestOptions> {
        let Some(v) = v else {
            return Some(RequestOptions::default());
        };
        if !matches!(v, Json::Obj(_)) {
            return None;
        }
        let flag = |key: &str| match v.get(key) {
            None => Some(false),
            Some(Json::Bool(b)) => Some(*b),
            Some(_) => None,
        };
        Some(RequestOptions {
            inline: flag("inline")?,
            ifconv: flag("ifconv")?,
            absint: flag("absint")?,
            verify: flag("verify")?,
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile a module and return its download image.
    Compile {
        /// Request id, echoed in the response.
        id: u64,
        /// W2 module source text.
        module: String,
        /// Per-request compilation knobs.
        options: RequestOptions,
        /// Intra-request parallelism: how many jobs (threads) the
        /// daemon may use for this compilation. `0` — also what a
        /// request without the field decodes to, keeping old clients
        /// wire-compatible — means "daemon default", the machine's
        /// available parallelism. Does not affect cache keys or the
        /// output bytes, only latency.
        jobs: u64,
    },
    /// Return the options fingerprint these knobs produce — the prefix
    /// of every function cache key, letting clients predict cache
    /// affinity without compiling.
    Fingerprint {
        /// Request id.
        id: u64,
        /// The knobs to fingerprint.
        options: RequestOptions,
    },
    /// Return the shared cache's counters.
    CacheStats {
        /// Request id.
        id: u64,
    },
    /// Liveness/status probe.
    Health {
        /// Request id.
        id: u64,
    },
    /// Stop admitting compile requests; in-flight work completes.
    Drain {
        /// Request id.
        id: u64,
    },
    /// Terminate the daemon (implies drain).
    Shutdown {
        /// Request id.
        id: u64,
    },
}

impl Request {
    /// The request id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Compile { id, .. }
            | Request::Fingerprint { id, .. }
            | Request::CacheStats { id }
            | Request::Health { id }
            | Request::Drain { id }
            | Request::Shutdown { id } => *id,
        }
    }

    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> Json {
        self.clone().into_json()
    }

    /// [`Request::to_json`] by value: `module` is moved into the JSON,
    /// not copied.
    pub(crate) fn into_json(self) -> Json {
        let (kind, mut fields) = match self {
            Request::Compile {
                id,
                module,
                options,
                jobs,
            } => (
                "compile",
                vec![
                    ("id", Json::Num(id as f64)),
                    ("module", Json::Str(module)),
                    ("options", options.to_json()),
                    ("jobs", Json::Num(jobs as f64)),
                ],
            ),
            Request::Fingerprint { id, options } => (
                "fingerprint",
                vec![("id", Json::Num(id as f64)), ("options", options.to_json())],
            ),
            Request::CacheStats { id } => ("cache_stats", vec![("id", Json::Num(id as f64))]),
            Request::Health { id } => ("health", vec![("id", Json::Num(id as f64))]),
            Request::Drain { id } => ("drain", vec![("id", Json::Num(id as f64))]),
            Request::Shutdown { id } => ("shutdown", vec![("id", Json::Num(id as f64))]),
        };
        fields.push(("kind", Json::Str(kind.to_string())));
        obj(fields)
    }

    /// Parses a request from its wire JSON. `Err` carries the error
    /// code the daemon must answer with (plus the id, when one could
    /// be recovered).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`] for shape violations,
    /// [`ErrorCode::UnknownKind`] for an unrecognized `kind`.
    pub fn from_json(v: &Json) -> Result<Request, (u64, ErrorCode, String)> {
        Request::from_json_owned(v.clone())
    }

    /// [`Request::from_json`] by value: `module` is moved out of the
    /// JSON, not copied.
    pub(crate) fn from_json_owned(mut v: Json) -> Result<Request, (u64, ErrorCode, String)> {
        let id = v.u64_field("id").unwrap_or(0);
        let bad = |msg: &str| (id, ErrorCode::BadRequest, msg.to_string());
        if !matches!(v, Json::Obj(_)) {
            return Err(bad("request must be a JSON object"));
        }
        if v.u64_field("id").is_none() {
            return Err(bad("missing or non-integer `id`"));
        }
        let kind = v
            .take_str("kind")
            .ok_or_else(|| bad("missing string `kind`"))?;
        let options = |v: &Json| {
            RequestOptions::from_json(v.get("options"))
                .ok_or_else(|| bad("`options` must be an object of booleans"))
        };
        match kind.as_str() {
            "compile" => {
                let module = v
                    .take_str("module")
                    .ok_or_else(|| bad("compile needs a string `module`"))?;
                // Absent (old clients) decodes as 0 = daemon default.
                let jobs = match v.get("jobs") {
                    None => 0,
                    Some(_) => v
                        .u64_field("jobs")
                        .ok_or_else(|| bad("`jobs` must be a non-negative integer"))?,
                };
                Ok(Request::Compile {
                    id,
                    module,
                    options: options(&v)?,
                    jobs,
                })
            }
            "fingerprint" => Ok(Request::Fingerprint {
                id,
                options: options(&v)?,
            }),
            "cache_stats" => Ok(Request::CacheStats { id }),
            "health" => Ok(Request::Health { id }),
            "drain" => Ok(Request::Drain { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err((
                id,
                ErrorCode::UnknownKind,
                format!("unknown request kind `{other}`"),
            )),
        }
    }
}

/// Shared-cache counters as carried on the wire (mirrors
/// `warp_cache::CacheStats`, plus the number of resident objects).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCacheStats {
    /// Lookups served from the in-memory map.
    pub memory_hits: u64,
    /// Lookups served from the on-disk store.
    pub disk_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Objects stored.
    pub stores: u64,
    /// I/O or decode errors (each degraded to a miss).
    pub errors: u64,
    /// Objects currently resident in memory.
    pub resident: u64,
}

/// What the daemon reports about itself in a `health` response.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthInfo {
    /// `"ok"` or `"draining"`.
    pub status: String,
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub protocol: u32,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Requests handled (all kinds) since start.
    pub requests: u64,
    /// Compile requests currently executing.
    pub active: u64,
    /// Compile requests currently waiting for a worker slot.
    pub queued: u64,
}

/// A daemon response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful compilation.
    Compiled {
        /// Echoed request id.
        id: u64,
        /// The linked module image in download format, hex-encoded —
        /// byte-identical to `warpcc -o`'s output for the same source
        /// and options.
        image_hex: String,
        /// Functions compiled (records in the module).
        functions: u64,
        /// Front-end warnings.
        warnings: u64,
        /// Function-cache hits while serving this request.
        cache_hits: u64,
        /// Function-cache misses (functions actually compiled here).
        cache_misses: u64,
        /// Nanoseconds spent waiting for a worker slot.
        queue_ns: u64,
        /// Nanoseconds spent compiling (phase 1 through link).
        compile_ns: u64,
    },
    /// The options fingerprint for the requested knobs.
    Fingerprint {
        /// Echoed request id.
        id: u64,
        /// `parcc::options_fingerprint` as 16 lowercase hex digits.
        fingerprint: String,
    },
    /// Shared cache counters.
    CacheStats {
        /// Echoed request id.
        id: u64,
        /// The counters.
        stats: WireCacheStats,
    },
    /// Daemon status.
    Health {
        /// Echoed request id.
        id: u64,
        /// The status report.
        info: HealthInfo,
    },
    /// Drain acknowledged: no new compile requests will be admitted.
    Draining {
        /// Echoed request id.
        id: u64,
    },
    /// Shutdown acknowledged; the daemon exits after this frame.
    Bye {
        /// Echoed request id.
        id: u64,
    },
    /// Admission control rejected the request: the queue is full. The
    /// client may retry with backoff.
    Overloaded {
        /// Echoed request id.
        id: u64,
        /// Compile requests executing when the request was rejected.
        active: u64,
        /// Compile requests already waiting.
        queued: u64,
        /// The daemon's queue capacity.
        limit: u64,
    },
    /// Any failure. `code` is stable ([`ErrorCode`]); `message` is
    /// human-readable and unstable.
    Error {
        /// Echoed request id (0 when the request was unreadable).
        id: u64,
        /// Stable machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Compiled { id, .. }
            | Response::Fingerprint { id, .. }
            | Response::CacheStats { id, .. }
            | Response::Health { id, .. }
            | Response::Draining { id }
            | Response::Bye { id }
            | Response::Overloaded { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }

    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> Json {
        self.clone().into_json()
    }

    /// [`Response::to_json`] by value: `image_hex` is moved into the
    /// JSON, not copied.
    pub(crate) fn into_json(self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        match self {
            Response::Compiled {
                id,
                image_hex,
                functions,
                warnings,
                cache_hits,
                cache_misses,
                queue_ns,
                compile_ns,
            } => obj(vec![
                ("id", num(id)),
                ("kind", Json::Str("compiled".into())),
                ("image_hex", Json::Str(image_hex)),
                ("functions", num(functions)),
                ("warnings", num(warnings)),
                ("cache_hits", num(cache_hits)),
                ("cache_misses", num(cache_misses)),
                ("queue_ns", num(queue_ns)),
                ("compile_ns", num(compile_ns)),
            ]),
            Response::Fingerprint { id, fingerprint } => obj(vec![
                ("id", num(id)),
                ("kind", Json::Str("fingerprint".into())),
                ("fingerprint", Json::Str(fingerprint)),
            ]),
            Response::CacheStats { id, stats } => obj(vec![
                ("id", num(id)),
                ("kind", Json::Str("cache_stats".into())),
                ("memory_hits", num(stats.memory_hits)),
                ("disk_hits", num(stats.disk_hits)),
                ("misses", num(stats.misses)),
                ("stores", num(stats.stores)),
                ("errors", num(stats.errors)),
                ("resident", num(stats.resident)),
            ]),
            Response::Health { id, info } => obj(vec![
                ("id", num(id)),
                ("kind", Json::Str("health".into())),
                ("status", Json::Str(info.status)),
                ("protocol", num(u64::from(info.protocol))),
                ("uptime_ms", num(info.uptime_ms)),
                ("requests", num(info.requests)),
                ("active", num(info.active)),
                ("queued", num(info.queued)),
            ]),
            Response::Draining { id } => obj(vec![
                ("id", num(id)),
                ("kind", Json::Str("draining".into())),
            ]),
            Response::Bye { id } => obj(vec![("id", num(id)), ("kind", Json::Str("bye".into()))]),
            Response::Overloaded {
                id,
                active,
                queued,
                limit,
            } => obj(vec![
                ("id", num(id)),
                ("kind", Json::Str("overloaded".into())),
                ("active", num(active)),
                ("queued", num(queued)),
                ("limit", num(limit)),
            ]),
            Response::Error { id, code, message } => obj(vec![
                ("id", num(id)),
                ("kind", Json::Str("error".into())),
                ("code", Json::Str(code.as_str().into())),
                ("message", Json::Str(message)),
            ]),
        }
    }

    /// Parses a response from its wire JSON (the client side).
    ///
    /// # Errors
    ///
    /// A human-readable description of the shape violation.
    pub fn from_json(v: &Json) -> Result<Response, String> {
        Response::from_json_owned(v.clone())
    }

    /// [`Response::from_json`] by value: `image_hex` is moved out of
    /// the JSON, not copied.
    pub(crate) fn from_json_owned(mut v: Json) -> Result<Response, String> {
        let id = v.u64_field("id").ok_or("response missing `id`")?;
        let kind = v.take_str("kind").ok_or("response missing `kind`")?;
        let missing = |key: &str| format!("`{kind}` response missing `{key}`");
        let field = |v: &Json, key: &str| v.u64_field(key).ok_or_else(|| missing(key));
        let strf = |v: &mut Json, key: &str| v.take_str(key).ok_or_else(|| missing(key));
        Ok(match kind.as_str() {
            "compiled" => Response::Compiled {
                id,
                image_hex: strf(&mut v, "image_hex")?,
                functions: field(&v, "functions")?,
                warnings: field(&v, "warnings")?,
                cache_hits: field(&v, "cache_hits")?,
                cache_misses: field(&v, "cache_misses")?,
                queue_ns: field(&v, "queue_ns")?,
                compile_ns: field(&v, "compile_ns")?,
            },
            "fingerprint" => Response::Fingerprint {
                id,
                fingerprint: strf(&mut v, "fingerprint")?,
            },
            "cache_stats" => Response::CacheStats {
                id,
                stats: WireCacheStats {
                    memory_hits: field(&v, "memory_hits")?,
                    disk_hits: field(&v, "disk_hits")?,
                    misses: field(&v, "misses")?,
                    stores: field(&v, "stores")?,
                    errors: field(&v, "errors")?,
                    resident: field(&v, "resident")?,
                },
            },
            "health" => Response::Health {
                id,
                info: HealthInfo {
                    status: strf(&mut v, "status")?,
                    protocol: u32::try_from(field(&v, "protocol")?)
                        .map_err(|_| "protocol out of range".to_string())?,
                    uptime_ms: field(&v, "uptime_ms")?,
                    requests: field(&v, "requests")?,
                    active: field(&v, "active")?,
                    queued: field(&v, "queued")?,
                },
            },
            "draining" => Response::Draining { id },
            "bye" => Response::Bye { id },
            "overloaded" => Response::Overloaded {
                id,
                active: field(&v, "active")?,
                queued: field(&v, "queued")?,
                limit: field(&v, "limit")?,
            },
            "error" => {
                let code = strf(&mut v, "code")?;
                Response::Error {
                    id,
                    code: ErrorCode::parse(&code)
                        .ok_or_else(|| format!("unknown error code `{code}`"))?,
                    message: strf(&mut v, "message")?,
                }
            }
            other => return Err(format!("unknown response kind `{other}`")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Compile {
                id: 1,
                module: "module m;\nend;".into(),
                options: RequestOptions {
                    inline: true,
                    ..RequestOptions::default()
                },
                jobs: 0,
            },
            Request::Compile {
                id: 7,
                module: "module m;\nend;".into(),
                options: RequestOptions::default(),
                jobs: 8,
            },
            Request::Fingerprint {
                id: 2,
                options: RequestOptions::default(),
            },
            Request::CacheStats { id: 3 },
            Request::Health { id: 4 },
            Request::Drain { id: 5 },
            Request::Shutdown { id: 6 },
        ];
        for req in reqs {
            let json = req.to_json();
            let back =
                Request::from_json(&crate::json::parse(&json.to_string()).unwrap()).expect("parse");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Compiled {
                id: 1,
                image_hex: "a0b1".into(),
                functions: 4,
                warnings: 0,
                cache_hits: 3,
                cache_misses: 1,
                queue_ns: 1_000,
                compile_ns: 2_000_000,
            },
            Response::Fingerprint {
                id: 2,
                fingerprint: "00ff00ff00ff00ff".into(),
            },
            Response::CacheStats {
                id: 3,
                stats: WireCacheStats {
                    memory_hits: 9,
                    misses: 1,
                    ..Default::default()
                },
            },
            Response::Health {
                id: 4,
                info: HealthInfo {
                    status: "ok".into(),
                    protocol: PROTOCOL_VERSION,
                    uptime_ms: 12,
                    requests: 34,
                    active: 1,
                    queued: 0,
                },
            },
            Response::Draining { id: 5 },
            Response::Bye { id: 6 },
            Response::Overloaded {
                id: 7,
                active: 2,
                queued: 8,
                limit: 8,
            },
            Response::Error {
                id: 8,
                code: ErrorCode::CompileFailed,
                message: "boom".into(),
            },
        ];
        for resp in resps {
            let json = resp.to_json();
            let back = Response::from_json(&crate::json::parse(&json.to_string()).unwrap())
                .expect("parse");
            assert_eq!(back, resp);
        }
    }

    /// "Wire bytes unchanged" as a check: these frames were captured
    /// from the per-character writer this protocol shipped with.
    #[test]
    fn frames_are_byte_for_byte_what_version_1_has_always_sent() {
        let framed = |msg: &Json| {
            let mut frame = Vec::new();
            write_message(&mut frame, msg).unwrap();
            frame
        };
        let golden = |payload: &str| {
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(payload.as_bytes());
            frame
        };

        let resp = Response::Compiled {
            id: 7,
            image_hex: "57324d4f44a0b1ff".into(),
            functions: 4,
            warnings: 1,
            cache_hits: 3,
            cache_misses: 1,
            queue_ns: 2_100,
            compile_ns: 13_188_000,
        };
        let payload = concat!(
            r#"{"cache_hits":3,"cache_misses":1,"compile_ns":13188000,"functions":4,"id":7,"#,
            r#""image_hex":"57324d4f44a0b1ff","kind":"compiled","queue_ns":2100,"warnings":1}"#,
        );
        assert_eq!(payload.len(), 154);
        assert_eq!(framed(&resp.to_json()), golden(payload));
        assert_eq!(framed(&resp.clone().into_json()), golden(payload));
        assert_eq!(framed(&resp.to_json())[..4], [154, 0, 0, 0]);

        let req = Request::Compile {
            id: 3,
            module: "module m;\nsection \"s\" on cells 0..1;\n\tx := a\\b; { é }\nend;\n".into(),
            options: RequestOptions {
                inline: true,
                absint: true,
                ..RequestOptions::default()
            },
            jobs: 4,
        };
        let payload = concat!(
            r#"{"id":3,"jobs":4,"kind":"compile","#,
            r#""module":"module m;\nsection \"s\" on cells 0..1;\n\tx := a\\b; { é }\nend;\n","#,
            r#""options":{"absint":true,"ifconv":false,"inline":true,"verify":false}}"#,
        );
        assert_eq!(payload.len(), 184);
        assert_eq!(framed(&req.to_json()), golden(payload));
        assert_eq!(framed(&req.clone().into_json()), golden(payload));

        // And back, by reference and by value.
        let parsed = crate::json::parse(payload).unwrap();
        assert_eq!(Request::from_json(&parsed).unwrap(), req);
        assert_eq!(Request::from_json_owned(parsed).unwrap(), req);
    }

    #[test]
    fn compile_without_jobs_field_decodes_as_daemon_default() {
        // Old clients never send `jobs`; the daemon must keep
        // accepting them, decoding the absence as 0 = "default".
        let v = crate::json::parse(
            r#"{"id": 9, "kind": "compile", "module": "module m;\nend;", "options": {}}"#,
        )
        .unwrap();
        match Request::from_json(&v).expect("parse") {
            Request::Compile { jobs, .. } => assert_eq!(jobs, 0),
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn compile_with_bad_jobs_is_a_bad_request() {
        for bad in [r#""four""#, "-2", "1.5", "true"] {
            let raw = format!(
                r#"{{"id": 9, "kind": "compile", "module": "m", "options": {{}}, "jobs": {bad}}}"#
            );
            let v = crate::json::parse(&raw).unwrap();
            let (id, code, msg) = Request::from_json(&v).unwrap_err();
            assert_eq!((id, code), (9, ErrorCode::BadRequest), "jobs: {bad}");
            assert!(msg.contains("jobs"), "message should name the field: {msg}");
        }
    }

    #[test]
    fn unknown_kind_is_distinguished_from_bad_shape() {
        let v = crate::json::parse(r#"{"id": 3, "kind": "florp"}"#).unwrap();
        let (id, code, _) = Request::from_json(&v).unwrap_err();
        assert_eq!((id, code), (3, ErrorCode::UnknownKind));

        let v = crate::json::parse(r#"{"id": 4, "kind": "compile"}"#).unwrap();
        let (id, code, _) = Request::from_json(&v).unwrap_err();
        assert_eq!((id, code), (4, ErrorCode::BadRequest));
    }
}
