//! End-to-end tests of the `warpcc` command-line driver.

use std::process::Command;

const PROGRAM: &str = "module cli;\nsection s on cells 0..1;\n\
  function triple(x: float): float begin return x * 3.0; end;\n\
end;\n";

fn warpcc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_warpcc"))
}

fn write_program() -> tempfile_path::TempPath {
    tempfile_path::write(PROGRAM)
}

/// Minimal temp-file helper (no extra dependencies).
mod tempfile_path {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// Every call gets its own file (pid + counter): tests sharing one
    /// program text must not overwrite — and on drop delete — each
    /// other's input.
    pub fn write(contents: &str) -> TempPath {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "warpcc-test-{}-{}.w2",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&p, contents).expect("write temp program");
        TempPath(p)
    }
}

#[test]
fn summary_lists_functions() {
    let f = write_program();
    let out = warpcc().arg(&f.0).output().expect("run warpcc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("module `cli`"), "{stdout}");
    assert!(stdout.contains("triple"), "{stdout}");
}

#[test]
fn run_executes_function() {
    let f = write_program();
    let out = warpcc()
        .args(["--run", "triple", "14.0"])
        .arg(&f.0)
        .output()
        .expect("run warpcc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("triple(14.0) = 42"), "{stdout}");
}

#[test]
fn emit_asm_disassembles() {
    let f = write_program();
    let out = warpcc()
        .args(["--emit", "asm"])
        .arg(&f.0)
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("section s"), "{stdout}");
    assert!(stdout.contains("br: ret"), "{stdout}");
}

#[test]
fn emit_ast_round_trips() {
    let f = write_program();
    let out = warpcc()
        .args(["--emit", "ast"])
        .arg(&f.0)
        .output()
        .expect("run");
    assert!(out.status.success());
    let printed = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(warp_lang::phase1(&printed).is_ok(), "{printed}");
}

#[test]
fn emit_facts_prints_the_fact_report() {
    const LOOPY: &str = "module cli;\nsection s on cells 0..1;\n\
      function f(x: float): float\n\
      var t: float; v: float[16]; i: int;\n\
      begin\n  t := x;\n  for i := 0 to 15 do v[i] := t; t := t + v[i]; end;\n\
      return t;\nend;\nend;\n";
    let f = tempfile_path::write(LOOPY);
    let out = warpcc()
        .args(["--emit", "facts"])
        .arg(&f.0)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== f"), "{stdout}");
    assert!(stdout.contains("iterations "), "{stdout}");
    assert!(stdout.contains("mem-trap-free"), "{stdout}");
}

#[test]
fn absint_flag_adds_summary_columns() {
    let f = write_program();
    let out = warpcc().arg("--absint").arg(&f.0).output().expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("absint-it"), "{stdout}");
    assert!(stdout.contains("pruned"), "{stdout}");
    // Without the flag the summary layout is unchanged.
    let out = warpcc().arg(&f.0).output().expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("absint-it"), "{stdout}");
}

#[test]
fn stdin_input_works() {
    use std::io::Write as _;
    let mut child = warpcc()
        .arg("-")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(PROGRAM.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
}

#[test]
fn bad_program_fails_with_diagnostics() {
    let f = tempfile_path::write("module broken;\n");
    let out = warpcc().arg(&f.0).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn unknown_flag_rejected() {
    let out = warpcc().arg("--frobnicate").output().expect("run");
    assert!(!out.status.success());
}

#[test]
fn help_exits_cleanly() {
    let out = warpcc().arg("--help").output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: warpcc"), "{stdout}");
}

#[test]
fn ifconv_flag_accepted() {
    let f = tempfile_path::write(PROGRAM);
    let out = warpcc()
        .args(["--ifconv", "--inline"])
        .arg(&f.0)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn jobs_flag_output_matches_sequential() {
    let f = write_program();
    let run = |args: &[&str]| {
        let out = warpcc().args(args).arg(&f.0).output().expect("run warpcc");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let sequential = run(&[]);
    assert_eq!(run(&["--jobs", "2"]), sequential);
    // 0 = all available cores; -j and --workers are spellings of --jobs.
    assert_eq!(run(&["--jobs", "0"]), sequential);
    assert_eq!(run(&["-j", "4"]), sequential);
    assert_eq!(run(&["--workers", "4"]), sequential);
}

#[test]
fn bad_jobs_count_rejected() {
    let f = write_program();
    let out = warpcc()
        .args(["--jobs", "lots"])
        .arg(&f.0)
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad job count"), "{stderr}");
}

#[test]
fn cache_dir_turns_second_run_into_hits() {
    let f = write_program();
    let mut dir = std::env::temp_dir();
    dir.push(format!("warpcc-test-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let run = || {
        warpcc()
            .args(["--cache-dir", dir.to_str().unwrap(), "--cache-stats"])
            .arg(&f.0)
            .output()
            .expect("run warpcc")
    };
    let cold = run();
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold_err.contains("cache:"), "{cold_err}");
    assert!(
        cold_err.contains("0 hit(s)"),
        "cold run must miss: {cold_err}"
    );

    let warm = run();
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("1 hit(s)"),
        "warm run must hit: {warm_err}"
    );
    assert!(warm_err.contains("0 miss(es)"), "{warm_err}");

    // Identical output either way.
    assert_eq!(cold.stdout, warm.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_stats_without_dir_counts_in_memory() {
    let f = write_program();
    let out = warpcc()
        .arg("--cache-stats")
        .arg(&f.0)
        .output()
        .expect("run warpcc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 miss(es)"), "{stderr}");
}

#[test]
fn farm_flag_output_matches_sequential() {
    let f = write_program();
    let run = |args: &[&str]| {
        let out = warpcc()
            .env("WARPD_WORKER", env!("CARGO_BIN_EXE_warpd-worker"))
            .args(args)
            .arg(&f.0)
            .output()
            .expect("run warpcc");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let sequential = run(&[]);
    assert_eq!(run(&["--farm", "2"]), sequential);
}

#[test]
fn farm_and_jobs_are_mutually_exclusive() {
    let f = write_program();
    let out = warpcc()
        .args(["--farm", "2", "--jobs", "2"])
        .arg(&f.0)
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--farm") && stderr.contains("--jobs"),
        "{stderr}"
    );
}

#[test]
fn faults_cache_and_trace_combine_and_stay_byte_identical() {
    let f = write_program();
    let scratch = std::env::temp_dir().join(format!("warpcc-test-combo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let path = |name: &str| scratch.join(name).to_str().expect("utf-8 path").to_string();

    let sequential = warpcc()
        .args(["-o", &path("seq.dl")])
        .arg(&f.0)
        .output()
        .expect("run warpcc");
    assert!(sequential.status.success());
    // Cold, then warm: both under injected faults, cached and traced.
    for _ in 0..2 {
        let out = warpcc()
            .args(["--jobs", "2", "--fault-seed", "3"])
            .args([
                "--cache-dir",
                &path("cache"),
                "--trace",
                &path("trace.json"),
            ])
            .args(["-o", &path("par.dl")])
            .arg(&f.0)
            .output()
            .expect("run warpcc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        assert!(stderr.contains("faults (seed 3):"), "{stderr}");
        assert_eq!(out.stdout, sequential.stdout);
        assert_eq!(
            std::fs::read(path("par.dl")).expect("parallel image"),
            std::fs::read(path("seq.dl")).expect("sequential image")
        );
        let trace = std::fs::read_to_string(path("trace.json")).expect("trace file");
        warp_obs::validate_chrome_json(&trace).expect("valid Chrome trace");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
