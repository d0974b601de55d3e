//! Golden files pinning the compiled code bytes and the phase-3 search.
//!
//! Every `examples/*.w2`, the `f_huge` benchmark function and the §4.3
//! user program are compiled under two option sets: the published
//! compiler (`CompileOptions::default()`) and every extension on
//! (inlining, if-conversion, unrolling, abstract interpretation and the
//! per-pass verifiers). Each pair becomes one line of
//! `tests/golden/code_hashes.txt`: the code words of the linked image,
//! the length of its `download::encode` bytes and their FNV-1a 64. A
//! change that claims to leave the generated code alone must leave this
//! file alone.
//!
//! Each function of each pair also becomes one line of
//! `tests/golden/phase3_work.txt`: every `Phase3Work` counter. Equal
//! bytes can hide a different search (other IIs tried, other probe
//! counts); a change that claims the same search must leave this file
//! alone too. Regenerate both with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test code_golden
//! ```

use parcc::{compile_module_source, CompileOptions};
use std::path::Path;
use warp_target::download;
use warp_workload::{synthetic_program, user_program, FunctionSize};

const GOLDEN: &str = "tests/golden/code_hashes.txt";
const WORK_GOLDEN: &str = "tests/golden/phase3_work.txt";

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn option_sets() -> [(&'static str, CompileOptions); 2] {
    let all = CompileOptions {
        inline: Some(warp_ir::InlinePolicy::default()),
        if_convert: Some(warp_ir::IfConvPolicy::default()),
        unroll: Some(warp_ir::UnrollPolicy::default()),
        absint: true,
        verify_each_pass: true,
        ..CompileOptions::default()
    };
    [("default", CompileOptions::default()), ("all", all)]
}

fn sources(root: &Path) -> Vec<(String, String)> {
    let mut examples: Vec<(String, String)> = std::fs::read_dir(root.join("examples"))
        .expect("examples dir")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "w2").then(|| {
                let name = p.file_stem().unwrap().to_str().unwrap().to_string();
                let src = std::fs::read_to_string(&p).expect("read example");
                (name, src)
            })
        })
        .collect();
    examples.sort();
    assert!(!examples.is_empty(), "no .w2 examples found");
    examples.push(("f_huge".into(), synthetic_program(FunctionSize::Huge, 1)));
    examples.push(("user_program".into(), user_program()));
    examples
}

/// Compares `report` with the golden file at `path`, or rewrites the
/// file under `UPDATE_GOLDEN`.
fn check_golden(root: &Path, path: &str, report: &str) {
    let golden_path = root.join(path);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, report).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        report, golden,
        "output drifted from {path} — rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn compiled_code_matches_golden_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut report = String::new();
    let mut work = String::new();
    for (name, src) in sources(root) {
        for (opts_name, opts) in option_sets() {
            let r = compile_module_source(&src, &opts)
                .unwrap_or_else(|e| panic!("{name} ({opts_name}): {e}"));
            let words: u64 = r
                .module_image
                .section_images
                .iter()
                .map(|s| u64::from(s.code_words()))
                .sum();
            let bytes = download::encode(&r.module_image).expect("encode");
            report.push_str(&format!(
                "{name} {opts_name} code_words={words} bytes={} fnv1a64={:016x}\n",
                bytes.len(),
                fnv1a64(&bytes)
            ));
            for rec in &r.records {
                work.push_str(&format!(
                    "{name} {opts_name} {}:{} {:?}\n",
                    rec.section, rec.name, rec.p3
                ));
            }
        }
    }
    check_golden(root, GOLDEN, &report);
    check_golden(root, WORK_GOLDEN, &work);
}
