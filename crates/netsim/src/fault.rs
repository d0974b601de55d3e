//! Deterministic fault injection: the chaos of the 1989 host, seeded.
//!
//! The paper's host is the flakiest part of the whole system — ~40
//! diskless SUNs on one shared Ethernet with an NFS file server, where
//! workstations reboot, swap themselves to death, or fall off the
//! network mid-build. A [`FaultPlan`] is a seeded, reproducible script
//! of such failures injected into the discrete-event engine:
//!
//! * [`FaultKind::Crash`] — a workstation dies at virtual time *t*
//!   (optionally rebooting later). Every process hosted on it is
//!   killed, together with its descendants; the master notices each
//!   loss after a per-job detection timeout and re-dispatches a clone
//!   of the lost process tree onto a surviving workstation, with
//!   exponential backoff per retry.
//! * [`FaultKind::Slowdown`] — a degraded CPU: bursts granted on the
//!   workstation during the window take `factor` times as long
//!   (thermal throttling, a user logging in, a runaway daemon).
//! * [`FaultKind::Partition`] — the workstation falls off the
//!   Ethernet: transfers it requests during the window park until the
//!   partition heals (retransmission after the segment recovers).
//! * [`FaultKind::ServerStall`] — the file server stops answering:
//!   every disk request during the window parks until it recovers.
//!
//! Plans never target workstation 0: that is the master's machine
//! (the user's own workstation in the paper's setup), assumed
//! reliable so the build as a whole can always complete — the same
//! role the in-master sequential fallback plays in real builds
//! (`parcc::build`).
//!
//! Everything is integer-deterministic: the same plan against the
//! same process tree produces a bit-identical [`crate::SimReport`]
//! and a bit-identical virtual-time trace.

use serde::{Deserialize, Serialize};

/// One failure mode of the simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Workstation `workstation` crashes; all processes hosted on it
    /// die. If `reboot_after_s > 0` the machine comes back that many
    /// seconds later, otherwise it stays down for the whole run.
    Crash {
        /// The workstation that dies (never 0).
        workstation: usize,
        /// Seconds until the machine reboots; `<= 0` means never.
        reboot_after_s: f64,
    },
    /// CPU bursts granted on `workstation` during the window take
    /// `factor` times as long.
    Slowdown {
        /// The degraded workstation (never 0).
        workstation: usize,
        /// Service-time multiplier (> 1).
        factor: f64,
        /// Window length in seconds.
        dur_s: f64,
    },
    /// Ethernet transfers requested by processes on `workstation`
    /// during the window are lost; the requester parks until the
    /// partition heals, then retransmits.
    Partition {
        /// The partitioned workstation (never 0).
        workstation: usize,
        /// Window length in seconds.
        dur_s: f64,
    },
    /// The file server stops serving: disk requests during the window
    /// park until it recovers (an NFS server "not responding, still
    /// trying").
    ServerStall {
        /// Window length in seconds.
        dur_s: f64,
    },
}

/// A fault scheduled at a virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Virtual time the fault strikes, in seconds.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, deterministic script of host failures plus the master's
/// recovery policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// Seconds after a process is lost before the master's per-job
    /// timeout fires and it re-dispatches the work.
    pub detect_timeout_s: f64,
    /// Base re-dispatch backoff in seconds; doubles with every retry
    /// of the same process.
    pub backoff_s: f64,
    /// Retries before the master gives up on spare workstations and
    /// pulls the work onto its own machine (workstation 0).
    pub max_retries: usize,
    /// The scripted faults.
    pub events: Vec<FaultEvent>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            detect_timeout_s: 5.0,
            backoff_s: 1.0,
            max_retries: 3,
            events: Vec::new(),
        }
    }
}

/// splitmix64: the deterministic stream behind [`FaultPlan::generate`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps 64 random bits onto `[0, 1)`.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// An empty plan: no faults, default recovery policy.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates `k` faults from `seed`, spread uniformly over
    /// `(0, horizon_s)` and over workstations `1..workstations`
    /// (workstation 0, the master's machine, is never targeted). The
    /// mix is weighted toward the failure modes the paper's host
    /// actually exhibited: crashes/reboots first, then degraded CPUs,
    /// network drop-outs and file-server stalls.
    ///
    /// The same `(seed, k, workstations, horizon_s)` always produces
    /// the same plan.
    pub fn generate(seed: u64, k: usize, workstations: usize, horizon_s: f64) -> FaultPlan {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        if workstations < 2 || horizon_s <= 0.0 {
            return plan;
        }
        let mut state = seed ^ 0xfa17_0b5e_1989_cafe;
        for _ in 0..k {
            let at_s = unit(splitmix64(&mut state)) * horizon_s;
            let ws = 1 + (splitmix64(&mut state) as usize % (workstations - 1));
            let roll = unit(splitmix64(&mut state));
            let kind = if roll < 0.40 {
                // Crash; 70% of crashed machines reboot.
                let reboots = unit(splitmix64(&mut state)) < 0.70;
                let reboot_after_s = if reboots {
                    10.0 + unit(splitmix64(&mut state)) * 0.3 * horizon_s
                } else {
                    0.0
                };
                FaultKind::Crash {
                    workstation: ws,
                    reboot_after_s,
                }
            } else if roll < 0.65 {
                FaultKind::Slowdown {
                    workstation: ws,
                    factor: 2.0 + unit(splitmix64(&mut state)) * 6.0,
                    dur_s: (0.1 + unit(splitmix64(&mut state)) * 0.4) * horizon_s,
                }
            } else if roll < 0.85 {
                FaultKind::Partition {
                    workstation: ws,
                    dur_s: (0.05 + unit(splitmix64(&mut state)) * 0.2) * horizon_s,
                }
            } else {
                FaultKind::ServerStall {
                    dur_s: (0.02 + unit(splitmix64(&mut state)) * 0.1) * horizon_s,
                }
            };
            plan.events.push(FaultEvent { at_s, kind });
        }
        // Strike order is part of the plan's identity: sort by time so
        // the engine can schedule the script directly.
        plan.events
            .sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite fault times"));
        plan
    }

    /// A plan containing exactly one fault, with the default recovery
    /// policy — convenient for targeted tests.
    pub fn single(at_s: f64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            events: vec![FaultEvent { at_s, kind }],
            ..FaultPlan::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = FaultPlan::generate(42, 8, 15, 300.0);
        let b = FaultPlan::generate(42, 8, 15, 300.0);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 8, 15, 300.0);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn generated_faults_stay_in_bounds() {
        for seed in 0..32u64 {
            let plan = FaultPlan::generate(seed, 16, 10, 100.0);
            assert_eq!(plan.events.len(), 16);
            for e in &plan.events {
                assert!(e.at_s >= 0.0 && e.at_s <= 100.0, "{e:?}");
                match e.kind {
                    FaultKind::Crash { workstation, .. }
                    | FaultKind::Slowdown { workstation, .. }
                    | FaultKind::Partition { workstation, .. } => {
                        assert!((1..10).contains(&workstation), "{e:?}");
                    }
                    FaultKind::ServerStall { dur_s } => assert!(dur_s > 0.0),
                }
            }
            // Sorted by strike time.
            for w in plan.events.windows(2) {
                assert!(w[0].at_s <= w[1].at_s);
            }
        }
    }

    #[test]
    fn degenerate_hosts_get_empty_plans() {
        assert!(FaultPlan::generate(1, 8, 1, 100.0).is_empty());
        assert!(FaultPlan::generate(1, 8, 0, 100.0).is_empty());
        assert!(FaultPlan::generate(1, 8, 15, 0.0).is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn every_fault_class_appears_across_seeds() {
        let mut crash = false;
        let mut slow = false;
        let mut part = false;
        let mut stall = false;
        for seed in 0..8u64 {
            for e in FaultPlan::generate(seed, 8, 15, 200.0).events {
                match e.kind {
                    FaultKind::Crash { .. } => crash = true,
                    FaultKind::Slowdown { .. } => slow = true,
                    FaultKind::Partition { .. } => part = true,
                    FaultKind::ServerStall { .. } => stall = true,
                }
            }
        }
        assert!(crash && slow && part && stall);
    }
}
