//! One cycle: every timed operation once, round-robin, each output
//! checked against the cycle's sequential build.
//!
//! Cycle `i` compiles variant `i` of the project (same shape, fresh
//! tags), so all caches are cold for it without anything being
//! cleared, and the sequential compiler's image — timed anyway — is
//! the reference every other executor must reproduce byte for byte:
//! threads, farm, cold-cached, warm rebuild and the `warpd` responses.
//! The edited module is built twice, by the cached driver and by
//! `warpd`, and the two must agree; the run compares the last one with
//! a sequential compile after the window.

use crate::spans::Recorder;
use crate::stats::Samples;
use crate::sys::Cpu;
use crate::workloads::Project;
use crate::world::RunDir;
use parcc::{CompileOptions, CompileResult, FarmConfig, FnCache};
use std::path::{Path, PathBuf};
use std::time::Duration;
use warp_cache::CacheStats;
use warp_service::{Client, Response};

/// Threads of a threads build, worker processes of a farm build, jobs
/// of a request, `warpd --workers`: the host has two cores.
pub const WIDTH: usize = 2;

/// Operations attempted and failed. A failed or refused build or
/// request, a byte mismatch and a reference mismatch all count as
/// failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; reports a failure on stderr.
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("FAILED {what}: {why}");
            }
        }
    }
}

/// The download bytes of a build.
pub fn image_bytes(result: &CompileResult) -> Result<Vec<u8>, String> {
    warp_target::download::encode(&result.module_image).map_err(|e| format!("encode: {e}"))
}

/// `got` must equal `want` byte for byte.
pub fn same_bytes(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got.iter().zip(want).position(|(a, b)| a != b);
    Err(match at {
        Some(at) => format!("image differs from the reference at byte {at}"),
        None => format!(
            "image has {} bytes, the reference {}",
            got.len(),
            want.len()
        ),
    })
}

/// What a `compiled` response reported about itself.
pub struct Served {
    pub queue_ms: f64,
    pub compile_ms: f64,
}

/// A response must be `compiled`, carry exactly `want`, and report the
/// expected cache hits and misses.
pub fn check_response(
    resp: &Response,
    want: &[u8],
    hits: u64,
    misses: u64,
) -> Result<Served, String> {
    let Response::Compiled {
        image_hex,
        cache_hits,
        cache_misses,
        queue_ns,
        compile_ns,
        ..
    } = resp
    else {
        return Err(format!("not compiled: {resp:?}"));
    };
    let got = warp_wire::from_hex(image_hex).map_err(|e| format!("image_hex: {e}"))?;
    same_bytes(&got, want)?;
    if (*cache_hits, *cache_misses) != (hits, misses) {
        return Err(format!(
            "cache hits/misses {cache_hits}/{cache_misses}, expected {hits}/{misses}"
        ));
    }
    Ok(Served {
        queue_ms: *queue_ns as f64 / 1e6,
        compile_ms: *compile_ns as f64 / 1e6,
    })
}

/// One sample of the host's speed (see [`crate::sys::reference_work`]),
/// taken next to every timed operation.
pub fn host_sample(samples: &mut Samples) {
    let start = std::time::Instant::now();
    std::hint::black_box(crate::sys::reference_work());
    samples.push("host_ref_s", start.elapsed().as_secs_f64());
}

/// A kind of request: its span name, and the sample names of the
/// latency the client observed and the compile time `warpd` reported.
struct Class {
    name: &'static str,
    observed: &'static str,
    compile: &'static str,
}

const COLD: Class = Class {
    name: "req_cold",
    observed: "req_cold_ms",
    compile: "compile_cold_ms",
};
const EDIT: Class = Class {
    name: "req_edit",
    observed: "req_edit_ms",
    compile: "compile_edit_ms",
};
const WARM: Class = Class {
    name: "req_warm",
    observed: "req_warm_ms",
    compile: "compile_warm_ms",
};

/// The state the cycles of one run share.
pub struct Cycles<'a> {
    pub project: &'a Project,
    pub seed: u64,
    pub opts: CompileOptions,
    pub farm: FarmConfig,
    pub dir: &'a Path,
    pub client: &'a mut Client,
    pub samples: Samples,
    pub tally: Tally,
    /// Code words of the linked project images; must repeat exactly.
    pub code_words: Option<u64>,
    pub farm_retries: usize,
    pub cache_errors: u64,
    /// `(hits, lookups)` of warm and of edit rebuilds.
    pub warm_lookups: (u64, u64),
    pub edit_lookups: (u64, u64),
    pub overloaded: u64,
    pub requests: u64,
    pub request_s: f64,
    /// The last cycle's edited module and the bytes both edit builds
    /// agreed on, for the sequential check after the window.
    pub last_edit: Option<(String, Vec<u8>)>,
}

/// One timed pass over the project's modules.
struct Built {
    images: Vec<Result<Vec<u8>, String>>,
    wall: Duration,
    /// `(self, self + children, sys)` CPU seconds.
    cpu: (f64, f64, f64),
}

impl<'a> Cycles<'a> {
    /// The state before the first cycle; `samples` already holds the
    /// first set-up's.
    pub fn new(
        project: &'a Project,
        seed: u64,
        farm: FarmConfig,
        dir: &'a Path,
        client: &'a mut Client,
        samples: Samples,
    ) -> Self {
        Cycles {
            project,
            seed,
            opts: project.req.to_compile_options(),
            farm,
            dir,
            client,
            samples,
            tally: Tally::default(),
            code_words: None,
            farm_retries: 0,
            cache_errors: 0,
            warm_lookups: (0, 0),
            edit_lookups: (0, 0),
            overloaded: 0,
            requests: 0,
            request_s: 0.0,
            last_edit: None,
        }
    }

    /// Times `build` over `srcs` inside a span called `name`; encoding
    /// the images for the comparison happens after the clock stops.
    fn build(
        samples: &mut Samples,
        rec: &mut Recorder,
        name: &'static str,
        srcs: &[String],
        mut build: impl FnMut(&str) -> Result<CompileResult, String>,
    ) -> (Built, Vec<Result<CompileResult, String>>) {
        host_sample(samples);
        let cpu0 = Cpu::now();
        let (results, wall) = rec.time(name, |rec| {
            srcs.iter()
                .map(|s| rec.time("module", |_| build(s)).0)
                .collect::<Vec<_>>()
        });
        let cpu = Cpu::since(cpu0);
        let images = results
            .iter()
            .map(|r| r.as_ref().map_err(String::clone).and_then(image_bytes))
            .collect();
        (Built { images, wall, cpu }, results)
    }

    /// Every module's image must equal the reference, and the cache
    /// (where one was involved) must have `served` as expected.
    fn check(
        &mut self,
        what: &str,
        built: &Built,
        reference: &[Vec<u8>],
        served: Result<(), String>,
    ) -> bool {
        let outcome = built
            .images
            .iter()
            .zip(reference)
            .try_for_each(|(got, want)| {
                got.as_ref()
                    .map_err(String::clone)
                    .and_then(|g| same_bytes(g, want))
            })
            .and(served);
        let ok = outcome.is_ok();
        self.tally.op(what, outcome);
        ok
    }

    /// The run's one cache directory of `kind`, with the objects of
    /// the previous cycle unlinked (see [`RunDir::emptied`]).
    fn empty_cache_dir(&self, kind: &str) -> PathBuf {
        RunDir::emptied(self.dir.join(kind))
    }

    /// A cached threads build of `srcs` through a fresh cache handle
    /// per module (what a new `warpcc --cache-dir` process sees: disk
    /// tier as found, memory tier empty). Opening the handle is part
    /// of the time.
    fn cached_build(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        srcs: &[String],
        dir: &Path,
    ) -> (Built, CacheStats) {
        let opts = self.opts;
        let mut total = CacheStats::default();
        let (built, _) = Cycles::build(&mut self.samples, rec, name, srcs, |s| {
            let cache = FnCache::with_dir(dir).map_err(|e| format!("open cache: {e}"))?;
            let r = parcc::compile_parallel_cached(s, &opts, WIDTH, &cache)
                .map(|(r, _)| r)
                .map_err(|e| e.to_string());
            let st = cache.stats();
            total.memory_hits += st.memory_hits;
            total.disk_hits += st.disk_hits;
            total.misses += st.misses;
            total.stores += st.stores;
            total.errors += st.errors;
            r
        });
        self.cache_errors += total.errors;
        (built, total)
    }

    /// One request over the run's one connection (closed loop: the
    /// next is sent when this one has been answered).
    fn request(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        src: &str,
    ) -> (Result<Response, String>, f64) {
        let req = self.project.req;
        let client = &mut *self.client;
        let (resp, dt) = rec.time(name, |_| client.compile_jobs(src, req, WIDTH as u64));
        let ms = dt.as_secs_f64() * 1e3;
        self.requests += 1;
        self.request_s += dt.as_secs_f64();
        if matches!(resp, Ok(Response::Overloaded { .. })) {
            self.overloaded += 1;
        }
        (resp.map_err(|e| e.to_string()), ms)
    }

    /// Sends every module of `srcs` as one request each; the sample is
    /// the mean latency per request, so that every sample of a
    /// multi-module project is the same work.
    fn request_round(
        &mut self,
        rec: &mut Recorder,
        class: &Class,
        srcs: &[&str],
        reference: &[&[u8]],
        expect: impl Fn(usize) -> (u64, u64),
    ) {
        host_sample(&mut self.samples);
        let (mut sum_ms, mut sum_compile, mut sum_queue) = (0.0, 0.0, 0.0);
        let mut all_ok = true;
        for (m, src) in srcs.iter().enumerate() {
            let (resp, ms) = self.request(rec, class.name, src);
            let (hits, misses) = expect(m);
            let served = resp.and_then(|r| check_response(&r, reference[m], hits, misses));
            match &served {
                Ok(s) => {
                    sum_ms += ms;
                    sum_compile += s.compile_ms;
                    sum_queue += s.queue_ms;
                }
                Err(_) => all_ok = false,
            }
            self.tally.op(class.name, served.map(|_| ()));
        }
        if all_ok {
            let n = srcs.len() as f64;
            self.samples.push(class.observed, sum_ms / n);
            self.samples.push(class.compile, sum_compile / n);
            self.samples.push("queue_ms", sum_queue / n);
            if class.name == WARM.name {
                self.samples
                    .push("overhead_warm_ms", (sum_ms - sum_queue - sum_compile) / n);
            }
        }
    }

    /// Runs cycle `cycle`.
    pub fn run(&mut self, cycle: u32, rec: &mut Recorder) {
        rec.set_id(u64::from(cycle));
        let project = self.project;
        let opts = self.opts;
        let srcs = project.sources(self.seed, cycle);

        // Sequential build: a timed operation and the cycle's reference.
        let (seq, results) = Cycles::build(&mut self.samples, rec, "build_seq", &srcs, |s| {
            parcc::compile_module_source(s, &opts).map_err(|e| e.to_string())
        });
        let reference: Result<Vec<Vec<u8>>, String> = seq.images.iter().cloned().collect();
        // Functions each module compiles (inlining may drop helpers),
        // which is what every cache is asked for.
        let fn_counts: Vec<u64> = results
            .iter()
            .map(|r| r.as_ref().map_or(0, |r| r.records.len() as u64))
            .collect();
        let total_fns: u64 = fn_counts.iter().sum();
        let words: u64 = results
            .iter()
            .flatten()
            .flat_map(|r| &r.module_image.section_images)
            .map(|s| u64::from(s.code_words()))
            .sum();
        let repeats = *self.code_words.get_or_insert(words) == words;
        let outcome = match (&reference, repeats) {
            (Err(e), _) => Err(e.clone()),
            (Ok(_), false) => Err(format!(
                "{words} code words, earlier cycles had {:?}",
                self.code_words
            )),
            (Ok(_), true) => Ok(()),
        };
        let usable = outcome.is_ok();
        self.tally.op("build_seq", outcome);
        let Ok(reference) = reference else { return };
        if usable {
            self.samples.push("build_seq_s", seq.wall.as_secs_f64());
            self.samples.push("seq_cpu_s", seq.cpu.0);
        }

        let (threads, _) = Cycles::build(&mut self.samples, rec, "build_threads", &srcs, |s| {
            parcc::compile_parallel(s, &opts, WIDTH)
                .map(|(r, _)| r)
                .map_err(|e| e.to_string())
        });
        if self.check("build_threads", &threads, &reference, Ok(())) {
            self.samples
                .push("build_threads_s", threads.wall.as_secs_f64());
            self.samples.push("threads_cpu_s", threads.cpu.0);
        }

        // The farm's object store is empty and of this build alone, as
        // its private default would be.
        let mut farm_cfg = self.farm.clone();
        farm_cfg.cache_dir = Some(self.empty_cache_dir("farm"));
        let mut retries = 0;
        let (farm, _) = Cycles::build(&mut self.samples, rec, "build_farm", &srcs, |s| {
            parcc::compile_farm(s, &opts, &farm_cfg)
                .map(|(r, report)| {
                    retries += report.faults.retries;
                    r
                })
                .map_err(|e| e.to_string())
        });
        self.farm_retries += retries;
        if self.check("build_farm", &farm, &reference, Ok(())) {
            self.samples.push("build_farm_s", farm.wall.as_secs_f64());
            self.samples.push("farm_cpu_s", farm.cpu.1);
            self.samples.push("farm_sys_s", farm.cpu.2);
        }

        // The on-disk function cache: write side, read side, one edit.
        let dir = self.empty_cache_dir("cc");
        let (cold, st) = self.cached_build(rec, "build_cold_cached", &srcs, &dir);
        let served = ((st.misses, st.stores) == (total_fns, total_fns))
            .then_some(())
            .ok_or_else(|| format!("an empty cache served {st}"));
        if self.check("build_cold_cached", &cold, &reference, served) {
            self.samples
                .push("build_cold_cached_s", cold.wall.as_secs_f64());
        }

        // Three times, like the two warm requests below: a warm rebuild
        // takes 10-20 ms on every workload, and the floor of a few dozen
        // samples repeats half as well as that of a hundred.
        for _ in 0..3 {
            let (warm, st) = self.cached_build(rec, "rebuild_warm", &srcs, &dir);
            self.warm_lookups.0 += st.hits();
            self.warm_lookups.1 += st.lookups();
            let served = ((st.disk_hits, st.misses) == (total_fns, 0))
                .then_some(())
                .ok_or_else(|| format!("a populated cache served {st}"));
            if self.check("rebuild_warm", &warm, &reference, served) {
                self.samples.push("rebuild_warm_s", warm.wall.as_secs_f64());
            }
        }

        let edit_module = project.edit.0;
        let edited_src = project.edited_module(self.seed, cycle);
        let mut edited_srcs = srcs.clone();
        edited_srcs[edit_module] = edited_src.clone();
        let (edit, st) = self.cached_build(rec, "rebuild_edit", &edited_srcs, &dir);
        self.edit_lookups.0 += st.hits();
        self.edit_lookups.1 += st.lookups();
        // Unedited modules must come out as before; the edited one is
        // checked against warpd's answer below.
        let edited_bytes = edit.images[edit_module].clone();
        let mut expected = reference.clone();
        if let Ok(bytes) = &edited_bytes {
            expected[edit_module] = bytes.clone();
        }
        let served = ((st.misses, st.hits()) == (1, total_fns - 1))
            .then_some(())
            .ok_or_else(|| format!("one edit should miss once, cache served {st}"));
        if self.check("rebuild_edit", &edit, &expected, served) {
            self.samples.push("rebuild_edit_s", edit.wall.as_secs_f64());
        }

        // The same sources through warpd: every function misses, then
        // one misses, then none does.
        let all: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let want: Vec<&[u8]> = reference.iter().map(Vec::as_slice).collect();
        self.request_round(rec, &COLD, &all, &want, |m| (0, fn_counts[m]));
        if let Ok(edited_bytes) = edited_bytes {
            let n = fn_counts[edit_module];
            self.request_round(rec, &EDIT, &[&edited_src], &[&edited_bytes], |_| (n - 1, 1));
            self.last_edit = Some((edited_src, edited_bytes));
        }
        for _ in 0..2 {
            self.request_round(rec, &WARM, &all, &want, |m| (fn_counts[m], 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_comparison_names_the_first_difference() {
        assert!(same_bytes(b"abc", b"abc").is_ok());
        assert!(same_bytes(b"abd", b"abc").unwrap_err().contains("byte 2"));
        assert!(same_bytes(b"ab", b"abc").unwrap_err().contains("2 bytes"));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.op("a", Ok(()));
        t.op("b", Err("no".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
