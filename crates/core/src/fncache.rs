//! Content-addressed incremental function compilation.
//!
//! The unit of caching is the unit of parallelism: one *function*
//! (phases 2 + 3, exactly what a function master computes). A cached
//! entry is the pair `(FunctionImage, FunctionRecord)` — the pre-link
//! object plus the deterministic work profile the simulator replays —
//! keyed by a stable hash of everything that compilation reads:
//!
//! * the function's **source slice** (drives `lines`, `parse_units`
//!   and the a-priori cost estimate in the record);
//! * the function's **post-inline AST** (under `--inline` a function's
//!   body also depends on its callees' bodies; the pretty-printed AST
//!   is what phase 2 actually lowers);
//! * the **module-level interface** the function can see: every
//!   signature of its section, sorted by name (calls compile against
//!   these), plus the section index;
//! * the [`CompileOptions`] **fingerprint** and the **compiler
//!   version** ([`options_fingerprint`]): any knob that changes
//!   generated code changes every key.
//!
//! Because the key covers all inputs, a hit may simply return the
//! stored pair — the invalidation tests in
//! `crates/core/tests/cache_invalidation.rs` pin the contract, and the
//! determinism property test asserts bit-identical module images for
//! cold vs warm builds at every worker count.

use crate::driver::{CompileOptions, FunctionRecord};
use warp_cache::{Cache, CacheKey, CacheValue, StableHasher};
use warp_codegen::phase3::Phase3Work;
use warp_ir::phase2::Phase2Work;
use warp_ir::{DeadEdge, FactSet, LoopBound, Site};
use warp_lang::ast::Function;
use warp_lang::CheckedModule;
use warp_target::download::{decode_function, encode_function};
use warp_target::program::FunctionImage;

/// Bump when the cached payload layout or the key recipe changes:
/// old on-disk objects then decode-fail (payload) or simply never
/// match (key), both degrading to misses.
pub const KEY_SCHEMA_VERSION: u32 = 3;

/// The function-compilation cache: what `warpcc --cache-dir` opens and
/// the build pipeline (`Build::cache`) consumes.
pub type FnCache = Cache<CachedFunction>;

/// One cached function compilation: the pre-link image plus its work
/// record.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedFunction {
    /// The compiled (unlinked) function image.
    pub image: FunctionImage,
    /// The work profile measured when the function was compiled.
    pub record: FunctionRecord,
}

/// Fingerprint of every compilation option that can change generated
/// code, salted with the compiler version and the cache schema
/// version. Computed once per build and folded into every function
/// key.
pub fn options_fingerprint(opts: &CompileOptions) -> u64 {
    let mut h = StableHasher::new();
    h.str(env!("CARGO_PKG_VERSION"));
    h.u32(KEY_SCHEMA_VERSION);
    h.u32(opts.cell.cells);
    h.u32(u32::from(opts.cell.num_regs));
    h.u32(opts.cell.data_mem_words);
    h.u32(opts.cell.inst_mem_words);
    h.u32(opts.cell.queue_depth);
    h.u32(opts.max_ii);
    match &opts.inline {
        None => h.bool(false),
        Some(p) => h
            .bool(true)
            .u64(p.max_callee_stmts as u64)
            .u64(p.max_rounds as u64)
            .bool(p.drop_subsumed),
    };
    match &opts.unroll {
        None => h.bool(false),
        Some(p) => h.bool(true).u32(p.factor).u64(p.max_body_insts as u64),
    };
    match &opts.if_convert {
        None => h.bool(false),
        Some(p) => h
            .bool(true)
            .u64(p.max_side_insts as u64)
            .u64(p.max_rounds as u64),
    };
    h.bool(opts.verify_each_pass);
    h.bool(opts.absint);
    h.finish()
}

/// Feeds the compiled form of `func` — the post-inline AST, exactly
/// what phase 2 lowers — into the hasher, via the canonical
/// pretty-printer.
fn hash_function_ast(h: &mut StableHasher, func: &Function) {
    h.str(&func.name);
    h.u64(func.params.len() as u64);
    for p in &func.params {
        h.str(&p.name);
        h.str(&format!("{:?}", p.ty));
    }
    match &func.ret {
        None => h.bool(false),
        Some(ty) => h.bool(true).str(&format!("{ty:?}")),
    };
    h.u64(func.vars.len() as u64);
    for v in &func.vars {
        h.str(&v.name);
        h.str(&format!("{:?}", v.ty));
    }
    h.u64(func.body.len() as u64);
    for stmt in &func.body {
        h.str(&warp_lang::pretty::stmt_to_source(stmt));
    }
}

/// The content address of compiling function `fi` of section `si`:
/// source slice, post-inline AST, section interface, section index
/// and options fingerprint (see the module docs for why each input is
/// required).
pub fn function_key(
    checked: &CheckedModule,
    source: &str,
    si: usize,
    fi: usize,
    options_fp: u64,
) -> CacheKey {
    function_keys(checked, source, &[(si, fi)], options_fp)[0]
}

/// [`function_key`] of every `(section, function)` of `fns`, a
/// section-major job list. The interface is the same for every
/// function of a section and costs more to put into words (sorting the
/// names, formatting every type) than to hash, so it is written out
/// once per section and the bytes fed to each function's hasher —
/// the hasher is byte-streaming, so the keys are exactly those of
/// hashing it field by field every time. On an 84-function section
/// this takes the master's key step from 3.8 ms to 0.5 ms, a third of
/// a warm rebuild.
pub(crate) fn function_keys(
    checked: &CheckedModule,
    source: &str,
    fns: &[(usize, usize)],
    options_fp: u64,
) -> Vec<CacheKey> {
    let mut interface = (usize::MAX, Vec::new());
    let key = |&(si, fi): &(usize, usize)| {
        if interface.0 != si {
            interface = (si, interface_bytes(checked, si));
        }
        let func = &checked.module.sections[si].functions[fi];
        let mut h = StableHasher::new();
        h.u64(options_fp);
        h.u64(si as u64);
        h.str(func.span.slice(source));
        hash_function_ast(&mut h, func);
        h.bytes(&interface.1);
        h.key()
    };
    fns.iter().map(key).collect()
}

/// Section `si`'s interface — every signature, sorted by name — in the
/// hasher's own encoding (which is the payload codec's).
fn interface_bytes(checked: &CheckedModule, si: usize) -> Vec<u8> {
    let sigs = &checked.sections[si].signatures;
    let mut names: Vec<&String> = sigs.keys().collect();
    names.sort();
    let mut buf = Vec::new();
    put_u64(&mut buf, names.len() as u64);
    for name in names {
        let sig = &sigs[name];
        put_str(&mut buf, &sig.name);
        put_u64(&mut buf, sig.params.len() as u64);
        for ty in &sig.params {
            put_str(&mut buf, &format!("{ty:?}"));
        }
        match &sig.ret {
            None => buf.push(0),
            Some(ty) => {
                buf.push(1);
                put_str(&mut buf, &format!("{ty:?}"));
            }
        }
    }
    buf
}

// ---- payload codec -------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

struct Take<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Take<'a> {
    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let v = u64::from_le_bytes(self.bytes.get(self.pos..end)?.try_into().ok()?);
        self.pos = end;
        Some(v)
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn str(&mut self) -> Option<String> {
        let len = self.usize()?;
        let end = self.pos.checked_add(len)?;
        let s = String::from_utf8(self.bytes.get(self.pos..end)?.to_vec()).ok()?;
        self.pos = end;
        Some(s)
    }

    fn blob(&mut self) -> Option<&'a [u8]> {
        let len = self.usize()?;
        let end = self.pos.checked_add(len)?;
        let b = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(b)
    }
}

impl CacheValue for CachedFunction {
    fn to_bytes(&self) -> Vec<u8> {
        let image = encode_function(&self.image)
            .expect("a compiled function image always fits the download format");
        let r = &self.record;
        let mut buf = Vec::with_capacity(image.len() + 256);
        put_u64(&mut buf, image.len() as u64);
        buf.extend_from_slice(&image);
        put_u64(&mut buf, r.section as u64);
        put_str(&mut buf, &r.name);
        put_u64(&mut buf, r.lines as u64);
        put_u64(&mut buf, r.loop_depth as u64);
        put_u64(&mut buf, r.parse_units);
        for v in [
            r.p2.lowered_insts,
            r.p2.optimized_insts,
            r.p2.opt_visits,
            r.p2.opt_iterations,
            r.p2.loops,
            r.p2.absint_iterations,
            r.p2.branches_pruned,
            r.p2.trap_checks_elided,
            r.p3.ops_selected,
            r.p3.regalloc_rounds,
            r.p3.spills,
            r.p3.list_attempts,
            r.p3.modulo_attempts,
            r.p3.dep_tests,
            r.p3.pipelined_loops,
            r.p3.fallback_loops,
        ] {
            put_u64(&mut buf, v as u64);
        }
        put_u64(&mut buf, u64::from(r.p3.words));
        put_u64(&mut buf, r.object_bytes);
        put_u64(&mut buf, r.cost_estimate);
        put_facts(&mut buf, r.facts.as_ref());
        buf
    }

    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut t = Take { bytes, pos: 0 };
        let image = decode_function(t.blob()?).ok()?;
        let section = t.usize()?;
        let name = t.str()?;
        let lines = t.usize()?;
        let loop_depth = t.usize()?;
        let parse_units = t.u64()?;
        let mut p2 = Phase2Work::default();
        let mut p3 = Phase3Work::default();
        for field in [
            &mut p2.lowered_insts,
            &mut p2.optimized_insts,
            &mut p2.opt_visits,
            &mut p2.opt_iterations,
            &mut p2.loops,
            &mut p2.absint_iterations,
            &mut p2.branches_pruned,
            &mut p2.trap_checks_elided,
            &mut p3.ops_selected,
            &mut p3.regalloc_rounds,
            &mut p3.spills,
            &mut p3.list_attempts,
            &mut p3.modulo_attempts,
            &mut p3.dep_tests,
            &mut p3.pipelined_loops,
            &mut p3.fallback_loops,
        ] {
            *field = t.usize()?;
        }
        p3.words = u32::try_from(t.u64()?).ok()?;
        let object_bytes = t.u64()?;
        let cost_estimate = t.u64()?;
        let facts = take_facts(&mut t)?;
        if t.pos != bytes.len() {
            return None;
        }
        Some(CachedFunction {
            image,
            record: FunctionRecord {
                section,
                name,
                lines,
                loop_depth,
                parse_units,
                p2,
                p3,
                object_bytes,
                cost_estimate,
                facts,
            },
        })
    }
}

/// Appends an optional [`FactSet`] to the payload (presence flag, the
/// scalar counters and summary bits, then the three claim lists).
fn put_facts(buf: &mut Vec<u8>, facts: Option<&FactSet>) {
    let Some(f) = facts else {
        put_u64(buf, 0);
        return;
    };
    put_u64(buf, 1);
    put_u64(buf, f.iterations as u64);
    for v in [
        f.div_sites,
        f.div_safe,
        f.mem_sites,
        f.mem_safe,
        f.consume_sites,
        f.consume_safe,
    ] {
        put_u64(buf, u64::from(v));
    }
    for b in [
        f.div_trap_free,
        f.mem_trap_free,
        f.def_free,
        f.finite_return,
    ] {
        put_u64(buf, u64::from(b));
    }
    for sites in [&f.safe_divs, &f.safe_mems] {
        put_u64(buf, sites.len() as u64);
        for s in sites {
            put_u64(buf, u64::from(s.block));
            put_u64(buf, u64::from(s.inst));
        }
    }
    put_u64(buf, f.dead_edges.len() as u64);
    for e in &f.dead_edges {
        put_u64(buf, u64::from(e.block));
        put_u64(buf, u64::from(e.always_then));
    }
    put_u64(buf, f.loop_bounds.len() as u64);
    for l in &f.loop_bounds {
        put_u64(buf, u64::from(l.block));
        put_u64(buf, l.max_trips);
    }
}

fn take_facts(t: &mut Take<'_>) -> Option<Option<FactSet>> {
    let tag = t.u64()?;
    if tag == 0 {
        return Some(None);
    }
    if tag != 1 {
        return None;
    }
    let mut f = FactSet {
        iterations: t.usize()?,
        ..FactSet::default()
    };
    for field in [
        &mut f.div_sites,
        &mut f.div_safe,
        &mut f.mem_sites,
        &mut f.mem_safe,
        &mut f.consume_sites,
        &mut f.consume_safe,
    ] {
        *field = u32::try_from(t.u64()?).ok()?;
    }
    for field in [
        &mut f.div_trap_free,
        &mut f.mem_trap_free,
        &mut f.def_free,
        &mut f.finite_return,
    ] {
        *field = match t.u64()? {
            0 => false,
            1 => true,
            _ => return None,
        };
    }
    for sites in [&mut f.safe_divs, &mut f.safe_mems] {
        let n = t.usize()?;
        for _ in 0..n {
            let block = u32::try_from(t.u64()?).ok()?;
            let inst = u32::try_from(t.u64()?).ok()?;
            sites.push(Site { block, inst });
        }
    }
    let n = t.usize()?;
    for _ in 0..n {
        let block = u32::try_from(t.u64()?).ok()?;
        let always_then = match t.u64()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        f.dead_edges.push(DeadEdge { block, always_then });
    }
    let n = t.usize()?;
    for _ in 0..n {
        let block = u32::try_from(t.u64()?).ok()?;
        let max_trips = t.u64()?;
        f.loop_bounds.push(LoopBound { block, max_trips });
    }
    Some(Some(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile_function, prepare_module};
    use warp_workload::{synthetic_program, FunctionSize};

    fn checked_small() -> (CheckedModule, String) {
        let src = synthetic_program(FunctionSize::Small, 2);
        let opts = CompileOptions::default();
        let (checked, _, _) = prepare_module(&src, &opts).expect("phase 1");
        (checked, src)
    }

    #[test]
    fn payload_round_trips() {
        let (checked, src) = checked_small();
        let opts = CompileOptions::default();
        let (image, record) = compile_function(&checked, &src, 0, 0, &opts).expect("compile");
        let cached = CachedFunction { image, record };
        let bytes = cached.to_bytes();
        assert_eq!(CachedFunction::from_bytes(&bytes), Some(cached));
        // Any truncation is rejected, not misread.
        assert_eq!(CachedFunction::from_bytes(&bytes[..bytes.len() - 1]), None);
        assert_eq!(CachedFunction::from_bytes(&[]), None);
    }

    #[test]
    fn payload_round_trips_with_facts() {
        let (checked, src) = checked_small();
        let opts = CompileOptions {
            absint: true,
            ..CompileOptions::default()
        };
        let (image, record) = compile_function(&checked, &src, 0, 0, &opts).expect("compile");
        assert!(record.facts.is_some(), "absint build must ship facts");
        let cached = CachedFunction { image, record };
        let bytes = cached.to_bytes();
        assert_eq!(CachedFunction::from_bytes(&bytes), Some(cached));
        assert_eq!(CachedFunction::from_bytes(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn keys_differ_per_function_and_options() {
        let (checked, src) = checked_small();
        let fp = options_fingerprint(&CompileOptions::default());
        let k0 = function_key(&checked, &src, 0, 0, fp);
        let k1 = function_key(&checked, &src, 0, 1, fp);
        assert_ne!(k0, k1, "distinct functions must have distinct keys");

        let mut opts = CompileOptions::default();
        opts.max_ii += 1;
        let fp2 = options_fingerprint(&opts);
        assert_ne!(fp, fp2);
        assert_ne!(k0, function_key(&checked, &src, 0, 0, fp2));
    }

    #[test]
    fn written_out_interface_hashes_as_its_fields_do() {
        let src = warp_workload::user_program();
        let (checked, _, _) = prepare_module(&src, &CompileOptions::default()).expect("phase 1");
        for si in 0..checked.module.sections.len() {
            let sigs = &checked.sections[si].signatures;
            let mut names: Vec<&String> = sigs.keys().collect();
            names.sort();
            let (mut fields, mut bytes) = (StableHasher::new(), StableHasher::new());
            fields.u64(names.len() as u64);
            for name in names {
                let sig = &sigs[name];
                fields.str(&sig.name).u64(sig.params.len() as u64);
                for ty in &sig.params {
                    fields.str(&format!("{ty:?}"));
                }
                match &sig.ret {
                    None => fields.bool(false),
                    Some(ty) => fields.bool(true).str(&format!("{ty:?}")),
                };
            }
            bytes.bytes(&interface_bytes(&checked, si));
            assert_eq!(fields.finish(), bytes.finish(), "section {si}");
        }
    }

    #[test]
    fn key_is_stable_across_recomputation() {
        let (checked, src) = checked_small();
        let fp = options_fingerprint(&CompileOptions::default());
        assert_eq!(
            function_key(&checked, &src, 0, 0, fp),
            function_key(&checked, &src, 0, 0, fp)
        );
    }

    #[test]
    fn every_option_knob_changes_the_fingerprint() {
        let base = options_fingerprint(&CompileOptions::default());
        let mut cell = CompileOptions::default();
        cell.cell.num_regs += 1;
        let ii = CompileOptions {
            max_ii: CompileOptions::default().max_ii + 1,
            ..CompileOptions::default()
        };
        let inline = CompileOptions::with_inlining();
        let unroll = CompileOptions {
            unroll: Some(warp_ir::UnrollPolicy::default()),
            ..CompileOptions::default()
        };
        let ifc = CompileOptions {
            if_convert: Some(warp_ir::IfConvPolicy::default()),
            ..CompileOptions::default()
        };
        let verify = CompileOptions {
            verify_each_pass: true,
            ..CompileOptions::default()
        };
        let absint = CompileOptions {
            absint: true,
            ..CompileOptions::default()
        };
        let fps: Vec<u64> = [cell, ii, inline, unroll, ifc, verify, absint]
            .iter()
            .map(options_fingerprint)
            .collect();
        for (i, fp) in fps.iter().enumerate() {
            assert_ne!(*fp, base, "knob {i} did not change the fingerprint");
        }
    }
}
