//! The per-layer pass of a traced run: the same project source taken
//! through every layer's public functions one at a time, each call in
//! a span named after the metric it feeds. Timing metrics are floors
//! over the run's passes; counts come from the last pass.

use crate::cycle::WIDTH;
use crate::spans::Recorder;
use crate::workloads::Project;
use crate::world::RunDir;
use parcc::{CachedFunction, CompileOptions, FarmConfig, FnCache};
use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::Path;
use warp_obs::trace::{ClockDomain, Trace, TrackId};
use warp_service::{Request, Response};
use warp_wire::{from_hex, read_message, to_hex, write_message, MAX_FRAME_DEFAULT};

/// What the passes of one run measured.
#[derive(Default)]
pub struct Layers {
    /// Smallest per-pass total, by span name.
    pub floors: BTreeMap<&'static str, f64>,
    /// Counts of the last pass.
    pub counts: BTreeMap<&'static str, f64>,
    pub passes: usize,
}

/// One pass: per-name totals, and the largest single span per name.
struct Pass<'r> {
    rec: &'r mut Recorder,
    sums: BTreeMap<&'static str, f64>,
    largest: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Pass<'_> {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, dt) = self.rec.time(name, |_| f());
        let s = dt.as_secs_f64();
        *self.sums.entry(name).or_default() += s;
        let largest = self.largest.entry(name).or_default();
        *largest = largest.max(s);
        out
    }

    fn count(&mut self, name: &'static str, n: impl TryInto<u64>) {
        *self.counts.entry(name).or_default() += n.try_into().unwrap_or(u64::MAX) as f64;
    }
}

impl Layers {
    pub fn floor(&self, name: &str) -> f64 {
        self.floors.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Takes `srcs` (one cycle's project source) through every layer.
    ///
    /// # Errors
    ///
    /// Any layer refusing input the whole-build paths accepted.
    pub fn pass(
        &mut self,
        project: &Project,
        srcs: &[String],
        dir: &Path,
        farm: &FarmConfig,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let opts = project.req.to_compile_options();
        let mut pass = Pass {
            rec,
            sums: BTreeMap::new(),
            largest: BTreeMap::new(),
            counts: BTreeMap::new(),
        };
        let cache_dir = RunDir::emptied(dir.join("layers"));
        for src in srcs {
            staged(&mut pass, project, src, &opts, &cache_dir)?;
        }
        pass.count("cache.bytes", dir_bytes(&cache_dir));
        whole_builds(&mut pass, srcs, &opts, farm)?;

        for (name, sum) in &pass.sums {
            let floor = self.floors.entry(name).or_insert(f64::INFINITY);
            *floor = floor.min(*sum);
        }
        for (from, to) in [
            ("codegen.phase3_s", "codegen.phase3_max_s"),
            ("core.compile_fn_s", "core.compile_fn_max_s"),
        ] {
            let floor = self.floors.entry(to).or_insert(f64::INFINITY);
            *floor = floor.min(pass.largest.get(from).copied().unwrap_or(0.0));
        }
        self.counts = pass.counts;
        self.passes += 1;
        Ok(())
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One module through lang → ir → codegen → analyze → target → cache
/// → core → wire, stage by stage.
fn staged(
    pass: &mut Pass<'_>,
    project: &Project,
    src: &str,
    opts: &CompileOptions,
    cache_dir: &Path,
) -> Result<(), String> {
    let off = Trace::disabled();
    let track = TrackId(0);

    // lang
    let tokens = pass
        .timed("lang.lex_s", || warp_lang::lexer::lex(src))
        .tokens
        .len();
    pass.count("lang.tokens", tokens);
    let parsed = pass.timed("lang.parse_s", || warp_lang::parser::parse(src));
    pass.count(
        "lang.statements",
        warp_lang::statement_count(&parsed.module),
    );
    let (mut checked, diags) = pass.timed("lang.sema_s", || warp_lang::sema::check(parsed.module));
    if parsed.diagnostics.has_errors() || diags.has_errors() {
        return Err("the front end rejected a generated module".into());
    }

    // ir: inlining (with its re-check, as the driver does), phase 2
    if let Some(policy) = &opts.inline {
        let (rechecked, stats) = pass.timed("ir.inline_s", || {
            let (inlined, stats) = warp_ir::inline_module(&checked.module, policy);
            (warp_lang::sema::check(inlined).0, stats)
        });
        pass.count("ir.inlined_calls", stats.inlined_calls);
        checked = rechecked;
    }
    let jobs: Vec<(usize, usize)> = checked
        .module
        .sections
        .iter()
        .enumerate()
        .flat_map(|(si, s)| (0..s.functions.len()).map(move |fi| (si, fi)))
        .collect();
    let phase2 = |si: usize, fi: usize, absint: bool| {
        warp_ir::phase2::phase2_traced(
            &checked.module.sections[si].functions[fi],
            &checked.sections[si].symbol_tables[fi],
            &checked.sections[si].signatures,
            opts.unroll.as_ref(),
            opts.if_convert.as_ref(),
            absint,
            opts.verify_each_pass,
            &off,
            track,
        )
        .map_err(|e| format!("phase 2: {e:?}"))
    };
    let mut images = Vec::with_capacity(jobs.len());
    for &(si, fi) in &jobs {
        let p2 = pass.timed("ir.phase2_s", || phase2(si, fi, opts.absint))?;
        if opts.absint {
            // The same function without the analysis; the difference
            // of the two floors is `ir.absint_s`.
            pass.timed("ir.phase2_plain_s", || phase2(si, fi, false))?;
        }
        let w = p2.work;
        pass.count("ir.lowered_insts", w.lowered_insts);
        pass.count("ir.optimized_insts", w.optimized_insts);
        pass.count("ir.opt_visits", w.opt_visits);
        pass.count("ir.dep_tests", w.dep_tests);
        pass.count("ir.branches_pruned", w.branches_pruned);
        pass.count("ir.trap_checks_elided", w.trap_checks_elided);

        // codegen: phase 3
        let p3 = pass
            .timed("codegen.phase3_s", || {
                warp_codegen::phase3(&p2, &opts.cell, opts.max_ii)
            })
            .map_err(|e| e.to_string())?;
        let w = p3.work;
        pass.count("codegen.ops_selected", w.ops_selected);
        pass.count("codegen.modulo_attempts", w.modulo_attempts);
        pass.count("codegen.list_attempts", w.list_attempts);
        pass.count("codegen.pipelined_loops", w.pipelined_loops);
        pass.count("codegen.fallback_loops", w.fallback_loops);
        pass.count("codegen.spills", w.spills);
        pass.count("codegen.words", w.words);

        // analyze: the static verifiers, when the workload runs them
        if opts.verify_each_pass {
            let errors = pass.timed("analyze.verify_s", || {
                warp_analyze::verify_function_image(&p3.image, &opts.cell, None).len()
                    + warp_analyze::verify_function_schedule(&p3.pipelined, &p3.image).len()
            });
            pass.count("analyze.verify_errors", errors);
        }
        images.push(p3.image);
    }
    let (module_image, _) = pass
        .timed("codegen.link_s", || {
            parcc::link_module(&checked, images.clone(), opts)
        })
        .map_err(|e| e.to_string())?;
    if opts.verify_each_pass {
        let errors = pass.timed("analyze.verify_s", || {
            warp_analyze::verify_module_image(&module_image, &opts.cell).len()
        });
        pass.count("analyze.verify_errors", errors);
    }

    // target: the download format, whole module and per function
    let bytes = pass
        .timed("target.encode_s", || {
            warp_target::download::encode(&module_image)
        })
        .map_err(|e| e.to_string())?;
    pass.count("target.module_bytes", bytes.len());
    pass.timed("target.decode_s", || warp_target::download::decode(&bytes))
        .map_err(|e| format!("decode: {e:?}"))?;
    for image in &images {
        let object = pass
            .timed("target.fn_encode_s", || {
                warp_target::download::encode_function(image)
            })
            .map_err(|e| e.to_string())?;
        pass.timed("target.fn_decode_s", || {
            warp_target::download::decode_function(&object)
        })
        .map_err(|e| format!("decode_function: {e:?}"))?;
    }

    // core: the driver's own steps, and what the cache stores
    pass.timed("core.phase1_s", || parcc::run_phase1(src))
        .map_err(|e| e.to_string())?;
    pass.timed("core.phase1_par_s", || {
        parcc::run_phase1_parallel_traced(src, WIDTH, &off, track)
    })
    .map_err(|e| e.to_string())?;
    let mut compiled = Vec::with_capacity(jobs.len());
    for &(si, fi) in &jobs {
        let (image, record) = pass
            .timed("core.compile_fn_s", || {
                parcc::compile_function(&checked, src, si, fi, opts)
            })
            .map_err(|e| e.to_string())?;
        compiled.push(CachedFunction { image, record });
    }
    pass.timed("core.link_par_s", || {
        parcc::link_module_parallel_traced(&checked, images, opts, WIDTH, &off, track)
    })
    .map_err(|e| e.to_string())?;

    // cache: keys, the write side, a disk read, a memory read
    let fp = parcc::options_fingerprint(opts);
    let keys: Vec<_> = pass.timed("cache.key_s", || {
        jobs.iter()
            .map(|&(si, fi)| parcc::function_key(&checked, src, si, fi, fp))
            .collect()
    });
    let writer = FnCache::with_dir(cache_dir).map_err(|e| format!("layers cache: {e}"))?;
    pass.timed("cache.store_s", || {
        for (key, value) in keys.iter().zip(compiled) {
            writer.store(*key, value);
        }
    });
    let reader = FnCache::with_dir(cache_dir).map_err(|e| format!("layers cache: {e}"))?;
    for name in ["cache.lookup_disk_s", "cache.lookup_mem_s"] {
        let found = pass.timed(name, || {
            keys.iter().filter(|k| reader.lookup(**k).is_some()).count()
        });
        if found != keys.len() {
            return Err(format!(
                "{name}: {found} of {} stored objects found",
                keys.len()
            ));
        }
    }
    let (w, r) = (writer.stats(), reader.stats());
    if (r.disk_hits, r.memory_hits) != (keys.len() as u64, keys.len() as u64) {
        return Err(format!("layers cache tiers served {r}"));
    }
    pass.count("cache.errors", w.errors + r.errors);

    // wire: the request and the response a warpd exchange would carry
    let request = Request::Compile {
        id: 1,
        module: src.to_string(),
        options: project.req,
        jobs: WIDTH as u64,
    };
    let text = pass.timed("wire.req_encode_s", || request.to_json().to_string());
    pass.count("wire.req_bytes", text.len());
    pass.timed("wire.req_decode_s", || {
        warp_wire::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|j| Request::from_json(&j).map_err(|(_, _, why)| why))
    })?;
    let message = pass.timed("wire.resp_encode_s", || {
        Response::Compiled {
            id: 1,
            image_hex: to_hex(&bytes),
            functions: jobs.len() as u64,
            warnings: 0,
            cache_hits: 0,
            cache_misses: jobs.len() as u64,
            queue_ns: 0,
            compile_ns: 0,
        }
        .to_json()
    });
    let text = pass.timed("wire.resp_encode_s", || message.to_string());
    pass.count("wire.resp_bytes", text.len());
    let back = pass.timed("wire.resp_decode_s", || {
        let json = warp_wire::parse(&text).map_err(|e| e.to_string())?;
        match Response::from_json(&json)? {
            Response::Compiled { image_hex, .. } => from_hex(&image_hex),
            other => Err(format!("{other:?}")),
        }
    })?;
    if back != bytes {
        return Err("the response did not survive its own wire format".into());
    }
    // One framed response across a socket pair. The writer needs its
    // own thread: the frame is larger than a socket buffer.
    let (mut tx, mut rx) = UnixStream::pair().map_err(|e| e.to_string())?;
    pass.timed("wire.frame_rt_s", || {
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| write_message(&mut tx, &message));
            let read = read_message(&mut rx, MAX_FRAME_DEFAULT, || true);
            writer
                .join()
                .expect("frame writer does not panic")
                .map_err(|e| e.to_string())?;
            match read {
                Ok(Ok(_)) => Ok(()),
                Ok(Err(e)) => Err(e),
                Err(e) => Err(e.to_string()),
            }
        })
    })
}

/// Whole-build costs the end-to-end run does not take: a sequential
/// build with tracing on, and the farm's fixed cost.
fn whole_builds(
    pass: &mut Pass<'_>,
    srcs: &[String],
    opts: &CompileOptions,
    farm: &FarmConfig,
) -> Result<(), String> {
    let mut spans = 0;
    for src in srcs {
        let trace = Trace::new(ClockDomain::Monotonic);
        pass.timed("obs.build_traced_s", || {
            parcc::compile_module_traced(src, opts, &trace)
        })
        .map_err(|e| e.to_string())?;
        spans += trace.snapshot().spans.len();
    }
    pass.count("obs.program_spans", spans);
    // A farm build of almost nothing: spawn, handshake, one job, reap.
    let tiny = warp_workload::synthetic_program(warp_workload::FunctionSize::Tiny, 1);
    pass.timed("farm.spawn_s", || {
        parcc::compile_farm(&tiny, &CompileOptions::default(), farm)
    })
    .map(|_| ())
    .map_err(|e| e.to_string())
}
