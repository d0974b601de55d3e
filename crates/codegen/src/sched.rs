//! Acyclic list scheduling.
//!
//! Packs an allocated block's operations into wide instruction words,
//! respecting dependences (with latencies) and functional-unit
//! resources (including iterative ops that occupy their unit for
//! several cycles). Priority is critical-path height. Used for every
//! non-loop block and as the fallback body for loops that cannot be
//! software-pipelined.

use crate::mdeps::MDepGraph;
use crate::vcode::{VBlock, VDest, VOp, VOperand};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use warp_target::fu::FuKind;
use warp_target::isa::{Op, Operand, Reg};

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledOp {
    /// Index of the op in the source block.
    pub op_idx: usize,
    /// Issue cycle relative to block entry.
    pub cycle: u32,
    /// Functional unit chosen.
    pub fu: FuKind,
}

/// A block schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockSchedule {
    /// Placements, in issue order.
    pub ops: Vec<ScheduledOp>,
    /// Number of instruction words the block occupies **excluding**
    /// the final branch word: all results have landed by `len`.
    pub len: u32,
    /// Work counter: placement attempts (cycle × unit probes).
    pub attempts: usize,
}

/// Tracks per-unit occupancy, including multi-cycle iterative ops.
#[derive(Debug, Default, Clone)]
pub struct ResourceTable {
    /// (fu, cycle) pairs occupied.
    busy: HashMap<(FuKind, u32), ()>,
}

impl ResourceTable {
    /// `true` if `fu` can accept an op at `cycle` occupying `ii` cycles.
    pub fn fits(&self, fu: FuKind, cycle: u32, ii: u32) -> bool {
        (cycle..cycle + ii).all(|c| !self.busy.contains_key(&(fu, c)))
    }

    /// Reserves `fu` for `ii` cycles starting at `cycle`.
    pub fn reserve(&mut self, fu: FuKind, cycle: u32, ii: u32) {
        for c in cycle..cycle + ii {
            self.busy.insert((fu, c), ());
        }
    }
}

/// Converts an allocated [`VOp`] into a target [`Op`].
///
/// # Panics
///
/// Panics if the op still contains virtual operands.
pub fn to_target_op(vop: &VOp) -> Op {
    let conv = |o: VOperand| -> Operand {
        match o {
            VOperand::Phys(r) => Operand::Reg(r),
            VOperand::ImmI(v) => Operand::ImmI(v),
            VOperand::ImmF(v) => Operand::ImmF(v),
            VOperand::Addr(a) => Operand::Addr(a),
            VOperand::Virt(v) => panic!("unallocated operand {v}"),
        }
    };
    let dst: Option<Reg> = match vop.dst {
        VDest::None => None,
        VDest::Phys(r) => Some(r),
        VDest::Virt(v) => panic!("unallocated destination {v}"),
    };
    Op {
        opcode: vop.opcode,
        dst,
        a: vop.a.map(conv),
        b: vop.b.map(conv),
    }
}

/// Critical-path height of every op over the distance-0 subgraph.
pub fn heights(block: &VBlock, graph: &MDepGraph) -> Vec<u32> {
    let n = block.ops.len();
    let mut h = vec![0u32; n];
    // Process in reverse topological order; the block order is a valid
    // topological order for distance-0 edges (they always point
    // forward).
    for i in (0..n).rev() {
        let lat = block.ops[i].opcode.timing().latency;
        let mut best = lat;
        for e in graph.succs_of(i).filter(|e| e.distance == 0) {
            best = best.max(e.delay + h[e.to]);
        }
        h[i] = best;
    }
    h
}

/// List-schedules `block` (non-loop semantics: only distance-0 edges
/// constrain).
pub fn list_schedule(block: &VBlock, graph: &MDepGraph) -> BlockSchedule {
    let n = block.ops.len();
    let h = heights(block, graph);
    let mut scheduled_at: Vec<Option<u32>> = vec![None; n];
    let mut placed = 0usize;
    let mut resources = ResourceTable::default();
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;

    let mut remaining_preds: Vec<usize> = (0..n)
        .map(|i| graph.preds_of(i).filter(|e| e.distance == 0).count())
        .collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| remaining_preds[i] == 0).collect();

    while placed < n {
        // Highest priority ready op (ties: earlier in program order).
        ready.sort_by_key(|&i| (std::cmp::Reverse(h[i]), i));
        let i = ready.remove(0);
        let est = graph
            .preds_of(i)
            .filter(|e| e.distance == 0)
            .map(|e| scheduled_at[e.from].expect("pred scheduled") + e.delay)
            .max()
            .unwrap_or(0);
        let timing = block.ops[i].opcode.timing();
        let mut cycle = est;
        let (fu, at) = 'place: loop {
            for &fu in block.ops[i].opcode.fu_candidates() {
                attempts += 1;
                if resources.fits(fu, cycle, timing.initiation_interval) {
                    break 'place (fu, cycle);
                }
            }
            cycle += 1;
        };
        resources.reserve(fu, at, timing.initiation_interval);
        scheduled_at[i] = Some(at);
        out.push(ScheduledOp {
            op_idx: i,
            cycle: at,
            fu,
        });
        placed += 1;
        for e in graph.succs_of(i).filter(|e| e.distance == 0) {
            remaining_preds[e.to] -= 1;
            if remaining_preds[e.to] == 0 {
                ready.push(e.to);
            }
        }
    }

    // Pad so every result (and iterative-unit occupancy) completes
    // inside the block.
    let len = out
        .iter()
        .map(|s| {
            let t = block.ops[s.op_idx].opcode.timing();
            s.cycle + t.latency.max(t.initiation_interval)
        })
        .max()
        .unwrap_or(0);
    out.sort_by_key(|s| (s.cycle, s.fu.slot_index()));
    BlockSchedule {
        ops: out,
        len,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdeps::mdep_graph;
    use crate::vcode::VTerm;
    use warp_target::isa::Opcode;

    fn r(n: u16) -> VOperand {
        VOperand::Phys(Reg(n))
    }

    fn op2(opcode: Opcode, dst: u16, a: VOperand, b: VOperand) -> VOp {
        VOp {
            opcode,
            dst: VDest::Phys(Reg(dst)),
            a: Some(a),
            b: Some(b),
        }
    }

    fn block(ops: Vec<VOp>) -> VBlock {
        VBlock {
            ops,
            term: VTerm::Return,
            is_pipeline_loop: false,
        }
    }

    fn verify(block: &VBlock, graph: &MDepGraph, sched: &BlockSchedule) {
        let at: HashMap<usize, u32> = sched.ops.iter().map(|s| (s.op_idx, s.cycle)).collect();
        for e in graph.edges.iter().filter(|e| e.distance == 0) {
            assert!(
                at[&e.to] >= at[&e.from] + e.delay,
                "edge {e:?} violated: {} -> {}",
                at[&e.from],
                at[&e.to]
            );
        }
        // One op per (fu, cycle), iterative occupancy disjoint.
        let mut seen: HashMap<(FuKind, u32), usize> = HashMap::new();
        for s in &sched.ops {
            let ii = block.ops[s.op_idx].opcode.timing().initiation_interval;
            for c in s.cycle..s.cycle + ii {
                assert!(
                    seen.insert((s.fu, c), s.op_idx).is_none(),
                    "resource conflict on {:?} cycle {c}",
                    s.fu
                );
            }
        }
    }

    #[test]
    fn independent_int_ops_pack_into_two_units() {
        let b = block(vec![
            op2(Opcode::IAdd, 12, r(20), VOperand::ImmI(1)),
            op2(Opcode::IAdd, 13, r(21), VOperand::ImmI(2)),
            op2(Opcode::IAdd, 14, r(22), VOperand::ImmI(3)),
            op2(Opcode::IAdd, 15, r(23), VOperand::ImmI(4)),
        ]);
        let g = mdep_graph(&b, false);
        let s = list_schedule(&b, &g);
        verify(&b, &g, &s);
        // 4 independent int ops on 2 units → 2 cycles of issue.
        let max_cycle = s.ops.iter().map(|o| o.cycle).max().unwrap();
        assert_eq!(max_cycle, 1, "{s:?}");
    }

    #[test]
    fn dependent_chain_respects_latency() {
        let b = block(vec![
            op2(Opcode::FAdd, 12, r(20), r(21)),
            op2(Opcode::FMul, 13, r(12), r(21)),
        ]);
        let g = mdep_graph(&b, false);
        let s = list_schedule(&b, &g);
        verify(&b, &g, &s);
        let t1 = s.ops.iter().find(|o| o.op_idx == 1).unwrap().cycle;
        assert!(t1 >= 5);
        assert!(s.len >= t1 + 5);
    }

    #[test]
    fn parallel_float_and_int_share_cycle() {
        let b = block(vec![
            op2(Opcode::FAdd, 12, r(20), r(21)),
            op2(Opcode::IAdd, 13, r(22), VOperand::ImmI(1)),
        ]);
        let g = mdep_graph(&b, false);
        let s = list_schedule(&b, &g);
        verify(&b, &g, &s);
        assert!(s.ops.iter().all(|o| o.cycle == 0));
    }

    #[test]
    fn iterative_op_blocks_unit() {
        let b = block(vec![
            op2(Opcode::FDiv, 12, r(20), r(21)),
            op2(Opcode::FMul, 13, r(22), r(23)), // independent, same unit
        ]);
        let g = mdep_graph(&b, false);
        let s = list_schedule(&b, &g);
        verify(&b, &g, &s);
        let div = s.ops.iter().find(|o| o.op_idx == 0).unwrap();
        let mul = s.ops.iter().find(|o| o.op_idx == 1).unwrap();
        // One of them went first; the other waits out the divide if the
        // divide is first.
        if div.cycle < mul.cycle {
            assert!(mul.cycle >= div.cycle + 12);
        }
    }

    #[test]
    fn empty_block_schedules_to_zero() {
        let b = block(vec![]);
        let g = mdep_graph(&b, false);
        let s = list_schedule(&b, &g);
        assert_eq!(s.len, 0);
        assert!(s.ops.is_empty());
    }

    #[test]
    fn to_target_op_converts_operands() {
        let vop = op2(Opcode::IAdd, 12, r(13), VOperand::Addr(5));
        let op = to_target_op(&vop);
        assert_eq!(op.dst, Some(Reg(12)));
        assert_eq!(op.a, Some(Operand::Reg(Reg(13))));
        assert_eq!(op.b, Some(Operand::Addr(5)));
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn to_target_op_rejects_virtual() {
        let vop = VOp {
            opcode: Opcode::IAdd,
            dst: VDest::Virt(warp_ir::VirtReg(0)),
            a: Some(r(1)),
            b: Some(r(2)),
        };
        let _ = to_target_op(&vop);
    }

    #[test]
    fn schedule_of_larger_dag_is_valid() {
        // Diamond-ish DAG with mixed units.
        let b = block(vec![
            op2(Opcode::FAdd, 12, r(20), r(21)),
            op2(Opcode::FMul, 13, r(20), r(21)),
            op2(Opcode::FAdd, 14, r(12), r(13)),
            op2(Opcode::IAdd, 15, r(22), VOperand::ImmI(1)),
            op2(Opcode::IMul, 16, r(15), r(15)),
            op2(Opcode::FSqrt, 17, r(14), r(14)),
        ]);
        let g = mdep_graph(&b, false);
        let s = list_schedule(&b, &g);
        verify(&b, &g, &s);
        assert!(s.attempts > 0);
        assert!(s.len >= 15);
    }
}
