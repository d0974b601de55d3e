//! Processor assignment for function masters.
//!
//! The paper uses a simple first-come-first-served distribution (§3.3)
//! for the synthetic experiments and, for the user program, a grouped
//! assignment driven by the lines-of-code × loop-nesting estimate
//! (§4.3: "smaller functions can be grouped and compiled on the same
//! processor, so the same speedup can be observed using fewer
//! processors").
//!
//! Both strategies schedule from the *a-priori* cost estimate
//! (`FunctionRecord::cost_estimate`, LoC × nesting), never from the
//! measured compile time — the master must place functions before
//! compiling them, exactly the information asymmetry the paper's §4.3
//! comparison is about. The two are compared head-to-head by
//! `figures scheduling` (EXPERIMENTS.md, "Scheduling comparison").

use crate::driver::FunctionRecord;
use serde::{Deserialize, Serialize};

/// A processor assignment: workstation index per function (parallel to
/// the record list). Workstation 0 is reserved for the master
/// processes, so assignments are ≥ 1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Workstation per function.
    pub workstation: Vec<usize>,
    /// Number of distinct workstations used.
    pub processors: usize,
}

/// First-come-first-served: functions go to workstations `1..=avail`
/// in source order, wrapping when there are more functions than free
/// machines ("a simple first-come-first-served strategy that
/// distributes the tasks over the available processors", §3.3).
pub fn fcfs(n_functions: usize, available: usize) -> Assignment {
    let available = available.max(1);
    let workstation: Vec<usize> = (0..n_functions).map(|i| 1 + i % available).collect();
    let processors = n_functions.min(available);
    Assignment {
        workstation,
        processors,
    }
}

/// Grouped assignment onto exactly `processors` workstations using the
/// longest-processing-time heuristic over the a-priori cost estimates:
/// sort functions by decreasing estimate, always placing the next one
/// on the least-loaded machine.
pub fn grouped_lpt(records: &[FunctionRecord], processors: usize) -> Assignment {
    let estimates: Vec<u64> = records.iter().map(|r| r.cost_estimate).collect();
    grouped_lpt_estimates(&estimates, processors)
}

/// [`grouped_lpt`] over bare estimates — the schedulers only ever read
/// `FunctionRecord::cost_estimate`, and callers that plan before the
/// records exist (the farm coordinator, benches) pass the estimates
/// directly.
pub fn grouped_lpt_estimates(estimates: &[u64], processors: usize) -> Assignment {
    let processors = processors.max(1);
    let mut order: Vec<usize> = (0..estimates.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(estimates[i]));
    let mut load = vec![0u64; processors];
    let mut workstation = vec![0usize; estimates.len()];
    for i in order {
        let (best, _) = load
            .iter()
            .enumerate()
            .min_by_key(|&(w, l)| (*l, w))
            .expect("at least one processor");
        workstation[i] = 1 + best;
        load[best] += estimates[i].max(1);
    }
    Assignment {
        workstation,
        processors: estimates.len().min(processors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_codegen::phase3::Phase3Work;
    use warp_ir::phase2::Phase2Work;

    fn rec(cost: u64) -> FunctionRecord {
        FunctionRecord {
            section: 0,
            name: format!("f{cost}"),
            lines: 10,
            loop_depth: 1,
            parse_units: 1,
            p2: Phase2Work::default(),
            p3: Phase3Work::default(),
            object_bytes: 1,
            cost_estimate: cost,
            facts: None,
        }
    }

    #[test]
    fn fcfs_spreads_then_wraps() {
        let a = fcfs(5, 3);
        assert_eq!(a.workstation, vec![1, 2, 3, 1, 2]);
        assert_eq!(a.processors, 3);
        let b = fcfs(2, 8);
        assert_eq!(b.workstation, vec![1, 2]);
        assert_eq!(b.processors, 2);
    }

    #[test]
    fn lpt_separates_heavy_functions() {
        // Three heavy + three light onto 3 processors: each machine gets
        // one heavy function.
        let records = vec![rec(100), rec(5), rec(100), rec(6), rec(100), rec(7)];
        let a = grouped_lpt(&records, 3);
        let heavy_ws: Vec<usize> = [0, 2, 4].iter().map(|&i| a.workstation[i]).collect();
        let mut sorted = heavy_ws.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            3,
            "each heavy function on its own machine: {a:?}"
        );
    }

    #[test]
    fn lpt_balances_load() {
        let records: Vec<FunctionRecord> = [40, 30, 20, 10, 10, 10].map(rec).into();
        let a = grouped_lpt(&records, 2);
        let mut load = [0u64; 2];
        for (i, r) in records.iter().enumerate() {
            load[a.workstation[i] - 1] += r.cost_estimate;
        }
        let diff = load[0].abs_diff(load[1]);
        assert!(diff <= 10, "{load:?}");
    }

    #[test]
    fn single_processor_groups_everything() {
        let records = vec![rec(10), rec(20)];
        let a = grouped_lpt(&records, 1);
        assert!(a.workstation.iter().all(|&w| w == 1));
    }
}
