//! What the benchmark asks the operating system: CPU time of this
//! process and of its reaped children, peak memory, load, and which
//! processes of this run are still alive. Linux, 64-bit.

use std::path::Path;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen
/// `long`s the benchmark does not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `(user, sys)` seconds consumed so far by `who`.
fn rusage(who: i32) -> (f64, f64) {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout
    // the 64-bit Linux ABI defines (144 bytes), and `who` is one of
    // the two constants the call accepts.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) cannot fail with valid arguments");
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    (secs(ru.utime), secs(ru.stime))
}

/// CPU seconds consumed so far, by this process and by the children it
/// has waited for (a farm build reaps its workers before it returns;
/// `warpd` is reaped only when the run ends).
#[derive(Clone, Copy)]
pub struct Cpu {
    self_total: f64,
    children_total: f64,
    sys: f64,
}

impl Cpu {
    pub fn now() -> Cpu {
        let (su, ss) = rusage(RUSAGE_SELF);
        let (cu, cs) = rusage(RUSAGE_CHILDREN);
        Cpu {
            self_total: su + ss,
            children_total: cu + cs,
            sys: ss + cs,
        }
    }

    /// `(self user+sys, self+children user+sys, self+children sys)`
    /// since `earlier`.
    pub fn since(earlier: Cpu) -> (f64, f64, f64) {
        let now = Cpu::now();
        let own = now.self_total - earlier.self_total;
        let children = now.children_total - earlier.children_total;
        (own, own + children, now.sys - earlier.sys)
    }
}

/// What [`reference_work`] takes on the host this benchmark was sized
/// on, in a quiet quarter of an hour (p10 of a run's samples). It only
/// sets the scale: timings are reported as if every run had met this
/// speed.
pub const REFERENCE_S: f64 = 0.0045;

/// The host's yardstick: a fixed piece of work of the kind a compiler
/// does (tree inserts, hashing, short strings, a sort), in this file so
/// that no change to the measured crates can alter it. The run times it
/// next to every timed operation; the 10th percentile of those samples
/// says how fast the host was during this run. This host changes speed
/// by 15% for minutes at a time, the same for all code, and a floor
/// taken inside one such period cannot know it.
///
/// The 10th percentile, not the floor: a run takes 100 to 500 of these
/// samples against 8 to 120 of an operation, and the smallest of 500
/// is a luckier draw than the smallest of 30. Over three sets of forty
/// runs the widest spread of a reported timing was 22% with the floor
/// as yardstick and 12% with any percentile from the 5th to the 25th.
pub fn reference_work() -> u64 {
    struct Node {
        key: u64,
        left: Option<Box<Node>>,
        right: Option<Box<Node>>,
    }
    fn fold(node: &Option<Box<Node>>) -> u64 {
        match node {
            None => 1,
            Some(n) => fold(&n.left).wrapping_mul(31).wrapping_add(fold(&n.right)) ^ n.key,
        }
    }
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut root: Option<Box<Node>> = None;
    for _ in 0..12_000 {
        let key = next();
        let mut at = &mut root;
        while let Some(n) = at {
            at = if key < n.key {
                &mut n.left
            } else {
                &mut n.right
            };
        }
        *at = Some(Box::new(Node {
            key,
            left: None,
            right: None,
        }));
    }
    let mut counts = std::collections::BTreeMap::new();
    let mut names = Vec::with_capacity(12_000);
    for _ in 0..12_000 {
        let key = next();
        *counts.entry(key % 4096).or_insert(0u32) += 1;
        names.push(format!("v{}", key % 100_000));
    }
    names.sort();
    fold(&root) ^ counts.len() as u64 ^ names[7].len() as u64
}

/// `VmHWM` of process `pid` in MB (its peak resident set).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One-minute load average.
pub fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Command lines of live processes, other than this one, that mention
/// `needle` — every child of a run is started with the run directory
/// in its arguments, so this finds `warpd` and `warpd-worker`
/// processes that outlived it.
pub fn processes_mentioning(needle: &str) -> Vec<String> {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| {
            let pid = e.file_name().into_string().ok()?;
            if pid == me || !pid.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let raw = std::fs::read(Path::new("/proc").join(&pid).join("cmdline")).ok()?;
            let cmdline = String::from_utf8_lossy(&raw).replace('\0', " ");
            cmdline
                .contains(needle)
                .then(|| format!("{pid}: {}", cmdline.trim()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = Cpu::now();
        let mut x = 0u64;
        while Cpu::since(before).0 < 0.01 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (own, all, sys) = Cpu::since(before);
        assert!(own >= 0.01 && all >= own && sys >= 0.0);
    }

    #[test]
    fn reference_work_is_the_same_work_every_time() {
        assert_eq!(reference_work(), reference_work());
    }

    #[test]
    fn own_process_reports_memory_and_is_not_a_leftover() {
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.1);
        assert!(host_cores() >= 1);
        assert!(processes_mentioning("no-such-run-directory-anywhere").is_empty());
    }
}
