//! Software pipelining via modulo scheduling.
//!
//! This is the expensive heart of phase 3 — the reason Warp
//! compilations took minutes to hours and the paper needed parallel
//! compilation at all. For each single-block counted loop the planner:
//!
//! 1. recognizes the induction register, step (±1) and limit from the
//!    allocated code;
//! 2. computes a lower bound on the initiation interval (resource MII);
//! 3. searches upward from MII, attempting a modulo schedule at each
//!    candidate II (every placement probe is counted as work);
//! 4. derives the stage count `S` and plans kernel, prologue and
//!    epilogue, plus counter-based loop control on reserved scratch
//!    registers.
//!
//! Because register allocation ran first, register-reuse anti
//! dependences automatically bound every value's lifetime by II — no
//! modulo variable expansion or rotating register file is needed; the
//! schedule is correct by construction (and verified by the strict
//! interpreter in tests).
//!
//! At run time a guard compares the trip count against `S`; loops too
//! short for the pipeline fall back to the list-scheduled body. Both
//! versions are emitted — one of the ways optimization grows code size
//! (paper §1).

use crate::mdeps::{find_induction_phys, mdep_graph, MDepGraph};
use crate::vcode::{VBlock, VDest, VOp, VOperand, VTerm};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use warp_target::fu::FuKind;
use warp_target::isa::{CmpKind, Opcode, Reg};

/// A placed op in the flat (pre-modulo) schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModPlacement {
    /// Index into the block's ops.
    pub op_idx: usize,
    /// Absolute schedule time (0-based); `stage = time / ii`,
    /// `slot = time % ii`.
    pub time: u32,
    /// Chosen unit.
    pub fu: FuKind,
}

/// Where the loop-control decrement sits relative to the kernel branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CounterStrategy {
    /// The decrement issues in an earlier word than the branch, which
    /// therefore reads the *new* value; the counter starts at `N`.
    EarlierWord {
        /// Kernel slot of the decrement.
        slot: u32,
        /// Unit used.
        fu: FuKind,
    },
    /// The decrement shares the branch's word; the branch reads the
    /// *old* value; the counter starts at `N − 1`.
    SameWord {
        /// Unit used.
        fu: FuKind,
    },
}

/// A complete software-pipelining plan for one loop block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopPlan {
    /// Initiation interval.
    pub ii: u32,
    /// Number of stages (`S`); prologue and epilogue have `S − 1` rows
    /// each.
    pub stages: u32,
    /// Placement of every body op.
    pub placements: Vec<ModPlacement>,
    /// Induction register.
    pub induction: Reg,
    /// Total signed induction step per kernel iteration (±1 for plain
    /// loops, ±U for loops unrolled by U).
    pub step: i64,
    /// Loop limit operand (register or immediate).
    pub limit: VOperand,
    /// Counter placement strategy.
    pub counter: CounterStrategy,
    /// Extra empty words after the epilogue so every latency drains
    /// before the exit block runs.
    pub drain: u32,
    /// Work counter: placement probes across all candidate IIs.
    pub attempts: usize,
    /// Initiation intervals tried before success.
    pub iis_tried: u32,
}

impl LoopPlan {
    /// Ops of prologue row `p` (0-based): those with `stage ≤ p`.
    pub fn prologue_row(&self, p: u32) -> impl Iterator<Item = &ModPlacement> {
        self.placements
            .iter()
            .filter(move |pl| pl.time / self.ii <= p)
    }

    /// Ops of epilogue row `r` (1-based): those with `stage ≥ r`.
    pub fn epilogue_row(&self, r: u32) -> impl Iterator<Item = &ModPlacement> {
        self.placements
            .iter()
            .filter(move |pl| pl.time / self.ii >= r)
    }
}

/// Why a loop could not be pipelined (it falls back to the
/// list-scheduled body).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NoPipeline {
    /// The terminator is not a self-branch.
    NotSelfLoop,
    /// No unambiguous `i := i ± c` induction update.
    NoInduction,
    /// The exit comparison does not match the expected
    /// `i ≤ limit` / `i ≥ limit` shape, or the limit is loop-variant.
    UnrecognizedExit,
    /// No feasible schedule up to the II bound.
    NoSchedule {
        /// Placement probes spent before giving up.
        attempts: usize,
    },
}

/// Outcome of pipeline planning, with the work spent.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// The plan, or the reason there is none.
    pub result: Result<LoopPlan, NoPipeline>,
    /// The loop-semantics machine dependence graph the search ran on.
    /// Only its `dep_tests` is read downstream: a loop that falls back
    /// to list scheduling gets a fresh non-loop graph.
    pub graph: MDepGraph,
}

/// Recognizes the loop-exit comparison: the branch condition must be
/// produced by `icmp.le i', limit` (step +1) or `icmp.ge i', limit`
/// (step −1) where `i'` is the induction register and `limit` is an
/// immediate or a register not written in the block.
fn recognize_exit(block: &VBlock, induction: Reg, step: i64) -> Option<VOperand> {
    let VTerm::Branch { cond, .. } = &block.term else {
        return None;
    };
    let cond_reg = cond.as_phys()?;
    // Registers holding the *final* induction value (entry + net step):
    // the register itself plus any chain temporary with the same delta
    // (copy propagation often rewrites the compare to read one).
    let (_, net, deltas) = crate::mdeps::induction_deltas(block)?;
    let mut aliases = vec![induction];
    for (r, (root, delta)) in &deltas {
        if *root == induction && *delta == net && *r != induction {
            aliases.push(*r);
        }
    }
    // Find the last op defining the condition register.
    let def = block
        .ops
        .iter()
        .rev()
        .find(|op| matches!(op.dst, VDest::Phys(r) if r == cond_reg))?;
    let want = if step > 0 { CmpKind::Le } else { CmpKind::Ge };
    let Opcode::ICmp(kind) = def.opcode else {
        return None;
    };
    if kind != want {
        return None;
    }
    let a = def.a?;
    if !aliases.contains(&a.as_phys()?) {
        return None;
    }
    let limit = def.b?;
    match limit {
        VOperand::ImmI(_) => Some(limit),
        VOperand::Phys(r) => {
            let written = block
                .ops
                .iter()
                .any(|op| matches!(op.dst, VDest::Phys(d) if d == r));
            if written {
                None
            } else {
                Some(limit)
            }
        }
        _ => None,
    }
}

/// Resource lower bound on the initiation interval.
fn res_mii(block: &VBlock) -> u32 {
    let mut single: HashMap<FuKind, u32> = HashMap::new();
    let mut int_load = 0u32;
    for op in &block.ops {
        let cands = op.opcode.fu_candidates();
        let ii = op.opcode.timing().initiation_interval;
        if cands.len() == 1 {
            *single.entry(cands[0]).or_insert(0) += ii;
        } else {
            int_load += ii;
        }
    }
    let mut mii = 1u32;
    let alu = single.get(&FuKind::Alu).copied().unwrap_or(0);
    let agu = single.get(&FuKind::Agu).copied().unwrap_or(0);
    mii = mii.max((alu + agu + int_load).div_ceil(2));
    for (fu, load) in &single {
        if !matches!(fu, FuKind::Alu | FuKind::Agu) {
            mii = mii.max(*load);
        }
    }
    mii
}

/// Modulo reservation table.
#[derive(Debug, Clone)]
struct Mrt {
    ii: u32,
    /// Unit occupancy, indexed `[fu slot_index * ii + kernel slot]`.
    busy: Vec<bool>,
    /// Register write-port owner (op index), indexed `[reg * ii + kernel
    /// slot]`; sized from the block's largest destination register.
    writes: Vec<Option<usize>>,
}

impl Mrt {
    fn new(ii: u32, block: &VBlock) -> Self {
        let regs = block
            .ops
            .iter()
            .filter_map(op_dst)
            .map(|r| r.0 as usize + 1)
            .max();
        Mrt {
            ii,
            busy: vec![false; FuKind::ALL.len() * ii as usize],
            writes: vec![None; regs.unwrap_or(0) * ii as usize],
        }
    }

    /// Index of `time`'s kernel slot in row `row` of a table.
    fn at(&self, row: usize, time: u32) -> usize {
        row * self.ii as usize + (time % self.ii) as usize
    }

    fn busy(&self, fu: FuKind, time: u32) -> bool {
        self.busy[self.at(fu.slot_index(), time)]
    }

    fn fits(&self, fu: FuKind, time: u32, occ: u32, dst: Option<Reg>, op_idx: usize) -> bool {
        if occ >= self.ii && occ > 1 {
            return false; // iterative op longer than the whole kernel
        }
        if (0..occ).any(|k| self.busy(fu, time + k)) {
            return false;
        }
        // The write port is free, or already this op's.
        dst.is_none_or(|d| {
            self.writes[self.at(d.0 as usize, time)].is_none_or(|owner| owner == op_idx)
        })
    }

    fn reserve(&mut self, fu: FuKind, time: u32, occ: u32, dst: Option<Reg>, op_idx: usize) {
        for k in 0..occ {
            let slot = self.at(fu.slot_index(), time + k);
            self.busy[slot] = true;
        }
        if let Some(d) = dst {
            let slot = self.at(d.0 as usize, time);
            self.writes[slot] = Some(op_idx);
        }
    }
}

fn op_dst(op: &VOp) -> Option<Reg> {
    match op.dst {
        VDest::Phys(r) => Some(r),
        _ => None,
    }
}

/// Attempts a modulo schedule at a fixed `ii`, placing ops in `order`.
/// Returns placements and adds probes to `attempts`.
fn try_ii(
    block: &VBlock,
    graph: &MDepGraph,
    order: &[usize],
    ii: u32,
    attempts: &mut usize,
) -> Option<(Vec<ModPlacement>, Mrt)> {
    let n = block.ops.len();
    let mut time: Vec<Option<u32>> = vec![None; n];
    let mut mrt = Mrt::new(ii, block);
    let mut placements = Vec::with_capacity(n);

    for &i in order {
        // Earliest start from placed predecessors.
        let mut est: i64 = 0;
        for e in graph.preds_of(i) {
            if let Some(t) = time[e.from] {
                est = est.max(t as i64 + e.delay as i64 - (ii as i64) * e.distance as i64);
            }
        }
        // Latest start from placed successors.
        let mut lst: i64 = i64::MAX;
        for e in graph.succs_of(i) {
            if let Some(t) = time[e.to] {
                lst = lst.min(t as i64 - e.delay as i64 + (ii as i64) * e.distance as i64);
            }
        }
        let est = est.max(0);
        if lst < est {
            return None;
        }
        let window_hi = lst.min(est + ii as i64 - 1);
        let timing = block.ops[i].opcode.timing();
        let dst = op_dst(&block.ops[i]);
        let mut placed = false;
        let mut t = est;
        while t <= window_hi {
            for &fu in block.ops[i].opcode.fu_candidates() {
                *attempts += 1;
                if mrt.fits(fu, t as u32, timing.initiation_interval, dst, i) {
                    mrt.reserve(fu, t as u32, timing.initiation_interval, dst, i);
                    time[i] = Some(t as u32);
                    placements.push(ModPlacement {
                        op_idx: i,
                        time: t as u32,
                        fu,
                    });
                    placed = true;
                    break;
                }
            }
            if placed {
                break;
            }
            t += 1;
        }
        if !placed {
            return None;
        }
    }

    // Final verification of every dependence (belt and braces — the
    // incremental windows should already guarantee this).
    for e in &graph.edges {
        let tf = time[e.from].unwrap() as i64;
        let tt = time[e.to].unwrap() as i64;
        if tt < tf + e.delay as i64 - (ii as i64) * e.distance as i64 {
            return None;
        }
    }
    placements.sort_by_key(|p| (p.time, p.fu.slot_index()));
    Some((placements, mrt))
}

/// Plans software pipelining for `block`, whose index in its function
/// is `self_idx` (the loop must continue via the *then* target — the
/// shape `for` lowering produces).
pub fn plan_pipeline(block: &VBlock, self_idx: usize, max_ii: u32) -> PipelineOutcome {
    let graph = mdep_graph(block, true);
    let plan = plan_inner(block, self_idx, &graph, max_ii);
    PipelineOutcome {
        result: plan,
        graph,
    }
}

fn plan_inner(
    block: &VBlock,
    self_idx: usize,
    graph: &MDepGraph,
    max_ii: u32,
) -> Result<LoopPlan, NoPipeline> {
    let VTerm::Branch { then_blk, .. } = &block.term else {
        return Err(NoPipeline::NotSelfLoop);
    };
    if *then_blk != self_idx {
        return Err(NoPipeline::NotSelfLoop);
    }
    let Some((induction, step)) = find_induction_phys(block) else {
        return Err(NoPipeline::NoInduction);
    };
    let Some(limit) = recognize_exit(block, induction, step) else {
        return Err(NoPipeline::UnrecognizedExit);
    };

    // Priority: height over distance-0 edges, the same at every II.
    let height = crate::sched::heights(block, graph);
    let mut order: Vec<usize> = (0..block.ops.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(height[i]), i));

    let mii = res_mii(block);
    let mut attempts = 0usize;
    for ii in mii..=max_ii {
        let iis_tried = ii - mii + 1;
        let Some((placements, mrt)) = try_ii(block, graph, &order, ii, &mut attempts) else {
            continue;
        };
        let max_t = placements.iter().map(|p| p.time).max().unwrap_or(0);
        let stages = max_t / ii + 1;
        // Find a home for the counter decrement.
        let counter = find_counter_slot(&mrt, ii);
        let Some(counter) = counter else { continue };
        let drain = block
            .ops
            .iter()
            .map(|o| {
                let t = o.opcode.timing();
                t.latency.max(t.initiation_interval)
            })
            .max()
            .unwrap_or(1);
        return Ok(LoopPlan {
            ii,
            stages,
            placements,
            induction,
            step,
            limit,
            counter,
            drain,
            attempts,
            iis_tried,
        });
    }
    Err(NoPipeline::NoSchedule { attempts })
}

/// Finds a free integer-unit slot for the counter decrement.
fn find_counter_slot(mrt: &Mrt, ii: u32) -> Option<CounterStrategy> {
    // Prefer an earlier word so the branch reads the fresh value.
    for slot in 0..ii.saturating_sub(1) {
        for fu in [FuKind::Alu, FuKind::Agu] {
            if !mrt.busy(fu, slot) {
                return Some(CounterStrategy::EarlierWord { slot, fu });
            }
        }
    }
    // Same word as the branch.
    for fu in [FuKind::Alu, FuKind::Agu] {
        if !mrt.busy(fu, ii - 1) {
            return Some(CounterStrategy::SameWord { fu });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regalloc::allocate;
    use crate::select::select;
    use warp_ir::phase2::phase2;
    use warp_lang::phase1;
    use warp_target::config::CellConfig;

    fn pipelined_block(body: &str) -> (crate::vcode::VFunc, usize) {
        let src = format!(
            "module m; section a on cells 0..0; function f(x: float, n: int): float \
             var t: float; u: float; v: float[64]; w: float[64]; i: int; begin {body} end; end;"
        );
        let checked = phase1(&src).expect("phase1");
        let f = &checked.module.sections[0].functions[0];
        let r = phase2(
            f,
            &checked.sections[0].symbol_tables[0],
            &checked.sections[0].signatures,
        )
        .expect("phase2");
        let mut vf = select(&r.ir, &r.loops.pipelinable_blocks());
        allocate(&mut vf, &CellConfig::default()).expect("regalloc");
        let idx = vf
            .blocks
            .iter()
            .position(|b| b.is_pipeline_loop)
            .expect("pipeline loop present");
        (vf, idx)
    }

    #[test]
    fn simple_vector_scale_pipelines() {
        let (vf, idx) = pipelined_block("for i := 0 to 63 do v[i] := w[i] * 2.0; end; return 0.0;");
        let out = plan_pipeline(&vf.blocks[idx], idx, 256);
        let plan = out.result.expect("should pipeline");
        assert!(plan.ii >= 1);
        assert!(plan.attempts > 0);
        // The loop body has a load, a mul, a store, address adds, the
        // induction update and the exit compare — II should be well
        // under the serial length.
        let serial: u32 = vf.blocks[idx]
            .ops
            .iter()
            .map(|o| o.opcode.timing().latency)
            .sum();
        assert!(plan.ii < serial, "ii={} serial={}", plan.ii, serial);
        assert_eq!(plan.step, 1);
        assert_eq!(plan.limit, VOperand::ImmI(63));
    }

    #[test]
    fn accumulator_ii_bounded_by_fadd_latency() {
        let (vf, idx) =
            pipelined_block("t := 0.0; for i := 0 to 63 do t := t + v[i]; end; return t;");
        let out = plan_pipeline(&vf.blocks[idx], idx, 256);
        let plan = out.result.expect("should pipeline");
        // The t += … recurrence forces II ≥ FAdd latency (5).
        assert!(plan.ii >= 5, "ii={}", plan.ii);
    }

    #[test]
    fn downto_loop_recognized() {
        let (vf, idx) =
            pipelined_block("t := 0.0; for i := 63 downto 0 do t := t + v[i]; end; return t;");
        let out = plan_pipeline(&vf.blocks[idx], idx, 256);
        let plan = out.result.expect("should pipeline");
        assert_eq!(plan.step, -1);
    }

    #[test]
    fn schedule_satisfies_all_dependences() {
        let (vf, idx) = pipelined_block(
            "t := 0.0; u := 1.0; for i := 0 to 63 do t := t + v[i] * w[i]; u := u * 1.5; v[i] := u; end; return t + u;",
        );
        let out = plan_pipeline(&vf.blocks[idx], idx, 512);
        let plan = out.result.expect("should pipeline");
        let time: HashMap<usize, i64> = plan
            .placements
            .iter()
            .map(|p| (p.op_idx, p.time as i64))
            .collect();
        for e in &out.graph.edges {
            assert!(
                time[&e.to]
                    >= time[&e.from] + e.delay as i64 - (plan.ii as i64) * e.distance as i64,
                "violated {e:?}"
            );
        }
    }

    #[test]
    fn prologue_epilogue_rows_partition_consistently() {
        let (vf, idx) =
            pipelined_block("t := 0.0; for i := 0 to 63 do t := t + v[i] * w[i]; end; return t;");
        let out = plan_pipeline(&vf.blocks[idx], idx, 256);
        let plan = out.result.expect("pipeline");
        let n_ops = plan.placements.len();
        // Every op appears in prologue row S−2 … and epilogue row 1
        // complements: |prologue_row(p)| + |epilogue_row(p+1)| == n.
        for p in 0..plan.stages.saturating_sub(1) {
            let pro = plan.prologue_row(p).count();
            let epi = plan.epilogue_row(p + 1).count();
            assert_eq!(pro + epi, n_ops, "row {p}");
        }
    }

    #[test]
    fn non_loop_block_rejected() {
        let (vf, _) = pipelined_block("for i := 0 to 3 do t := t + v[i]; end; return t;");
        // Block 0 is the entry — not a self loop.
        let out = plan_pipeline(&vf.blocks[0], 0, 64);
        assert!(matches!(
            out.result,
            Err(NoPipeline::NotSelfLoop) | Err(NoPipeline::NoInduction)
        ));
    }

    #[test]
    fn res_mii_counts_unit_pressure() {
        let (vf, idx) = pipelined_block(
            // Two loads + one store per iteration → Mem load of 3 → MII ≥ 3.
            "t := 0.0; for i := 0 to 63 do v[i] := v[i] + w[i]; end; return t;",
        );
        let mii = res_mii(&vf.blocks[idx]);
        assert!(mii >= 3, "mii={mii}");
        let out = plan_pipeline(&vf.blocks[idx], idx, 256);
        let plan = out.result.expect("pipeline");
        assert!(plan.ii >= mii);
    }

    #[test]
    fn counter_slot_found_or_loop_unpipelined() {
        let (vf, idx) =
            pipelined_block("t := 0.0; for i := 0 to 63 do t := t + v[i]; end; return t;");
        let out = plan_pipeline(&vf.blocks[idx], idx, 256);
        let plan = out.result.expect("pipeline");
        match plan.counter {
            CounterStrategy::EarlierWord { slot, .. } => assert!(slot < plan.ii),
            CounterStrategy::SameWord { .. } => {}
        }
    }

    #[test]
    fn sends_in_loop_still_pipeline() {
        let (vf, idx) = pipelined_block("for i := 0 to 63 do send(right, v[i]); end; return 0.0;");
        let out = plan_pipeline(&vf.blocks[idx], idx, 256);
        let plan = out.result.expect("pipeline");
        // Queue unit is serial: II at least 1 and sends stay ordered.
        assert!(plan.ii >= 1);
    }
}
