//! What a run stands on: its private directory, the spawned `warpd`,
//! and the reference execution of the generated programs. Building
//! all of it is what `setup_s` times.

use crate::spans::Recorder;
use crate::workloads::{Probe, Project};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use warp_lang::interp::{AstInterp, RtValue};
use warp_service::{Client, Endpoint, Response};
use warp_target::interp::{Cell, Value};
use warp_target::isa::Reg;

/// The executables the run measures, found next to the benchmark's
/// own (run.sh builds all three into one target directory).
pub struct Bins {
    pub warpd: PathBuf,
    pub worker: PathBuf,
}

impl Bins {
    /// # Errors
    ///
    /// Names the missing executable.
    pub fn locate() -> Result<Bins, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe.parent().ok_or("executable has no directory")?;
        let find = |name: &str| {
            let p = dir.join(name);
            p.is_file().then_some(p).ok_or_else(|| {
                format!(
                    "{name} not found in {} (use benchmark/run.sh)",
                    dir.display()
                )
            })
        };
        Ok(Bins {
            warpd: find("warpd")?,
            worker: find("warpd-worker")?,
        })
    }
}

/// The one directory a run writes to: sockets, cache directories and
/// (through `TMPDIR`) the farm's scratch directories. Removed on drop,
/// so also when the run fails.
///
/// The path is *relative* to the checkout root the benchmark runs
/// from: a Unix socket path must fit 108 bytes, and a relative one
/// does wherever the checkout lives.
pub struct RunDir(PathBuf);

impl RunDir {
    /// The directory of this process's run; later set-ups of the same
    /// run work in subdirectories of it.
    pub fn path_for_this_process() -> PathBuf {
        PathBuf::from(format!("benchmark/out/r{}", std::process::id()))
    }

    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn create(path: PathBuf) -> Result<RunDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(RunDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// `dir` with every file in it unlinked: how a cold build gets an
    /// empty cache. One directory per purpose, emptied before each
    /// use, keeps a run to a few hundred files at a time. The
    /// alternative, a fresh directory per cycle removed with the run,
    /// frees tens of thousands of inodes at once, and this host's ext4
    /// has no journal: without one the kernel steps over every inode
    /// freed in the last minutes, one by one, on each file creation in
    /// that block group. The next run's cold builds then pay up to
    /// 0.45 ms per object written, more than compiling it takes.
    pub fn emptied(dir: PathBuf) -> PathBuf {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let _ = std::fs::remove_file(entry.path());
        }
        dir
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A spawned `warpd --workers 2` as it runs by default: the cache in
/// memory. (With `--cache-dir` a cold request writes one file per
/// function, and `req_cold_p10_ms` would time the filesystem, not the
/// service: see [`RunDir::emptied`].)
pub struct Daemon {
    child: Child,
}

impl Daemon {
    /// Starts `warpd` under `dir`, waits until it answers a health
    /// probe, and returns it with the one client connection the run
    /// sends every request over.
    ///
    /// # Errors
    ///
    /// Spawn, connect or health failure; the child is killed.
    pub fn spawn(bins: &Bins, dir: &Path) -> Result<(Daemon, Client), String> {
        let socket = dir.join("warpd.sock");
        let mut child = Command::new(&bins.warpd)
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bins.warpd.display()))?;
        // warpd prints one line once it listens; reading it is the
        // wait, with no polling interval to show up in setup_s.
        let mut line = String::new();
        let ready = BufReader::new(child.stdout.take().expect("stdout is piped"))
            .read_line(&mut line)
            .map_err(|e| e.to_string())
            .and_then(|_| {
                line.starts_with("warpd listening")
                    .then_some(())
                    .ok_or_else(|| format!("warpd said `{}` instead of listening", line.trim()))
            })
            .and_then(|()| {
                Client::connect(&Endpoint::Unix(socket), Duration::from_secs(5))
                    .map_err(|e| format!("connect to warpd: {e}"))
            })
            .and_then(|mut client| match client.health() {
                Ok(Response::Health { info, .. }) if info.status == "ok" => Ok(client),
                other => Err(format!("warpd health: {other:?}")),
            });
        match ready {
            Ok(client) => Ok((Daemon { child }, client)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains and shuts the daemon down over `client`, and reaps it.
    ///
    /// # Errors
    ///
    /// A refused drain or shutdown, an unclean exit, or a daemon that
    /// had to be killed after five seconds.
    pub fn stop(mut self, mut client: Client) -> Result<(), String> {
        match client.drain() {
            Ok(Response::Draining { .. }) => {}
            other => return Err(format!("warpd drain: {other:?}")),
        }
        match client.shutdown() {
            Ok(Response::Bye { .. }) => {}
            other => return Err(format!("warpd shutdown: {other:?}")),
        }
        // warpd exits once its last connection has closed.
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("warpd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("warpd did not exit within 5 s of shutdown".into()),
                Err(e) => return Err(format!("wait for warpd: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // No-ops after a clean `stop`; the failure path's reaper.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Result of executing a workload's probe functions.
pub struct Executed {
    /// `warp_target::interp::Cell` cycles, summed over the functions.
    pub cycles: u64,
    /// Seconds the strict machine interpreter took.
    pub machine_s: f64,
}

/// Arguments every probe call uses. Fixed, so that `exec_cycles`
/// repeats for every seed; the seed reaches the executed code through
/// the tagged literals.
const ARG_FLOAT: f32 = 1.375;
const ARG_INT: i32 = 6;

/// Compiles each probe of cycle `cycle` sequentially and runs its
/// functions on the strict machine interpreter and on the independent
/// AST interpreter; the returned value and both output queues must be
/// bit-equal.
///
/// # Errors
///
/// The first compile error, machine fault, or disagreement.
pub fn execute_probes(
    project: &Project,
    seed: u64,
    cycle: u32,
    rec: &mut Recorder,
) -> Result<Executed, String> {
    let opts = project.req.to_compile_options();
    let mut done = Executed {
        cycles: 0,
        machine_s: 0.0,
    };
    for probe in &project.probes {
        let src = project.probe_source(probe, seed, cycle)?;
        let compiled =
            parcc::compile_module_source(&src, &opts).map_err(|e| format!("probe compile: {e}"))?;
        let checked = warp_lang::phase1(&src).map_err(|e| format!("probe phase 1: {e}"))?;
        for name in &probe.run {
            let (cycles, dt) = run_both(
                project,
                probe,
                name,
                &compiled.module_image,
                &checked,
                &opts,
                rec,
            )?;
            done.cycles += cycles;
            done.machine_s += dt;
        }
    }
    Ok(done)
}

fn run_both(
    project: &Project,
    probe: &Probe,
    name: &str,
    image: &warp_target::program::ModuleImage,
    checked: &warp_lang::CheckedModule,
    opts: &parcc::CompileOptions,
    rec: &mut Recorder,
) -> Result<(u64, f64), String> {
    let floats = &project.modules[probe.module]
        .fns
        .iter()
        .find(|f| f.name == name)
        .ok_or_else(|| format!("probe function `{name}` not found"))?
        .float_params;
    let machine_args: Vec<Value> = floats
        .iter()
        .map(|&f| {
            if f {
                Value::F(ARG_FLOAT)
            } else {
                Value::I(ARG_INT)
            }
        })
        .collect();
    let reference_args: Vec<RtValue> = floats
        .iter()
        .map(|&f| {
            if f {
                RtValue::F(ARG_FLOAT)
            } else {
                RtValue::I(ARG_INT)
            }
        })
        .collect();

    let mut cell = Cell::new(opts.cell, image.section_images[0].clone())
        .map_err(|e| format!("{name}: {e}"))?;
    cell.set_strict(true);
    cell.prepare_call(name, &machine_args)
        .map_err(|e| format!("{name}: {e}"))?;
    let (ran, dt) = rec.time("target.exec_s", |_| cell.run(50_000_000));
    let cycles = ran.map_err(|e| format!("{name}: machine: {e}"))?;
    let machine_bits = |v: &Value| match v {
        Value::F(f) => (true, f.to_bits()),
        Value::I(i) => (false, *i as u32),
    };
    let reference_bits = |v: &RtValue| match v {
        RtValue::F(f) => (true, f.to_bits()),
        RtValue::I(i) => (false, *i as u32),
    };

    let mut ast = AstInterp::new(checked, 0, 200_000_000);
    let want = ast
        .call(name, &reference_args)
        .map_err(|e| format!("{name}: reference: {e}"))?
        .ok_or_else(|| format!("{name}: reference returned nothing"))?;
    let got = cell.reg(Reg::RET).map_err(|e| format!("{name}: {e}"))?;
    if machine_bits(&got) != reference_bits(&want) {
        return Err(format!(
            "{name}: machine returned {got:?}, reference {want:?}"
        ));
    }
    let queues = [
        (&cell.out_left, &ast.queues.out_left, "left"),
        (&cell.out_right, &ast.queues.out_right, "right"),
    ];
    for (machine, reference, side) in queues {
        if !machine
            .iter()
            .map(machine_bits)
            .eq(reference.iter().map(reference_bits))
        {
            return Err(format!(
                "{name}: {side} output queue differs from the reference"
            ));
        }
    }
    Ok((cycles, dt.as_secs_f64()))
}
