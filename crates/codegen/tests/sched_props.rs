//! Property tests: the list scheduler produces hazard-free schedules
//! for arbitrary dependence DAGs.

use proptest::prelude::*;
use std::collections::HashMap;
use warp_codegen::mdeps::mdep_graph;
use warp_codegen::sched::list_schedule;
use warp_codegen::vcode::{VBlock, VDest, VOp, VOperand, VTerm};
use warp_target::fu::FuKind;
use warp_target::isa::{CmpKind, Opcode, Reg};

/// Opcodes safe to combine arbitrarily (register-only semantics).
fn opcode_pool() -> Vec<Opcode> {
    vec![
        Opcode::IAdd,
        Opcode::ISub,
        Opcode::IMul,
        Opcode::ICmp(CmpKind::Lt),
        Opcode::Move,
        Opcode::IMin,
        Opcode::IAbs,
        Opcode::IDiv, // iterative: exercises unit blocking
    ]
}

/// Builds a random straight-line block: op `i` writes register `12+i`
/// and reads earlier results or the inputs `r1`, `r2`.
fn block_strategy() -> impl Strategy<Value = VBlock> {
    prop::collection::vec((0usize..8, 0usize..32, 0usize..32), 1..24).prop_map(|specs| {
        let pool = opcode_pool();
        let ops: Vec<VOp> = specs
            .iter()
            .enumerate()
            .map(|(i, &(opx, a_sel, b_sel))| {
                let opcode = pool[opx % pool.len()];
                let avail = |sel: usize| -> VOperand {
                    if i == 0 || sel.is_multiple_of(3) {
                        VOperand::Phys(Reg(1 + (sel % 2) as u16))
                    } else {
                        VOperand::Phys(Reg(12 + (sel % i) as u16))
                    }
                };
                let unary = matches!(opcode, Opcode::Move | Opcode::IAbs);
                VOp {
                    opcode,
                    dst: VDest::Phys(Reg(12 + i as u16)),
                    a: Some(avail(a_sel)),
                    b: if unary {
                        None
                    } else {
                        // IDiv by a nonzero immediate avoids div-by-zero.
                        Some(if opcode == Opcode::IDiv {
                            VOperand::ImmI(3)
                        } else {
                            avail(b_sel)
                        })
                    },
                }
            })
            .collect();
        VBlock {
            ops,
            term: VTerm::Return,
            is_pipeline_loop: false,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn list_schedule_is_always_valid(block in block_strategy()) {
        let graph = mdep_graph(&block, false);
        let sched = list_schedule(&block, &graph);
        prop_assert_eq!(sched.ops.len(), block.ops.len(), "every op scheduled exactly once");

        let at: HashMap<usize, u32> = sched.ops.iter().map(|s| (s.op_idx, s.cycle)).collect();
        // Dependence delays respected.
        for e in graph.edges.iter().filter(|e| e.distance == 0) {
            prop_assert!(
                at[&e.to] >= at[&e.from] + e.delay,
                "edge {:?} violated ({} -> {})", e, at[&e.from], at[&e.to]
            );
        }
        // No resource double-booking (including iterative occupancy).
        let mut busy: HashMap<(FuKind, u32), usize> = HashMap::new();
        for s in &sched.ops {
            let ii = block.ops[s.op_idx].opcode.timing().initiation_interval;
            for c in s.cycle..s.cycle + ii {
                prop_assert!(
                    busy.insert((s.fu, c), s.op_idx).is_none(),
                    "unit {:?} double-booked at cycle {c}", s.fu
                );
            }
        }
        // Ops only go to units that can execute them.
        for s in &sched.ops {
            prop_assert!(block.ops[s.op_idx].opcode.fu_candidates().contains(&s.fu));
        }
        // The block length covers every latency.
        for s in &sched.ops {
            let t = block.ops[s.op_idx].opcode.timing();
            prop_assert!(s.cycle + t.latency.max(t.initiation_interval) <= sched.len);
        }
    }

    #[test]
    fn adjacency_lists_match_the_edge_scan(block in block_strategy(), is_loop in any::<bool>()) {
        let graph = mdep_graph(&block, is_loop);
        for i in 0..graph.n {
            prop_assert!(graph.preds_of(i).eq(graph.edges.iter().filter(|e| e.to == i)));
            prop_assert!(graph.succs_of(i).eq(graph.edges.iter().filter(|e| e.from == i)));
        }
    }

    #[test]
    fn schedules_are_deterministic(block in block_strategy()) {
        let g1 = mdep_graph(&block, false);
        let g2 = mdep_graph(&block, false);
        prop_assert_eq!(&g1, &g2);
        let s1 = list_schedule(&block, &g1);
        let s2 = list_schedule(&block, &g2);
        prop_assert_eq!(s1, s2);
    }
}
