//! Emission: scheduled virtual code → a [`FunctionImage`] of wide
//! instruction words.
//!
//! Every block becomes a run of words; pipelined loops expand into
//! guard + prologue + kernel + epilogue + fallback regions. Branch
//! targets are patched after layout; call sites become relocations the
//! linker resolves by name.

use crate::mdeps::mdep_graph;
use crate::pipeline::{plan_pipeline, CounterStrategy, LoopPlan};
use crate::regalloc::SCRATCH;
use crate::sched::{list_schedule, to_target_op, BlockSchedule};
use crate::vcode::{VFunc, VOperand, VTerm};
use serde::{Deserialize, Serialize};
use warp_target::fu::FuKind;
use warp_target::isa::{BranchOp, CmpKind, Op, Opcode, Operand};
use warp_target::program::{CallReloc, FunctionImage};
use warp_target::word::InstructionWord;

/// Statistics and work counters from emission (the bulk of phase 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmitStats {
    /// Instruction words emitted.
    pub words: u32,
    /// List-scheduler placement probes.
    pub list_attempts: usize,
    /// Modulo-scheduler placement probes.
    pub modulo_attempts: usize,
    /// Dependence tests performed at machine level.
    pub dep_tests: usize,
    /// Loops successfully software-pipelined.
    pub pipelined_loops: usize,
    /// Loops that fell back to the plain schedule.
    pub fallback_loops: usize,
    /// Sum of achieved initiation intervals.
    pub total_ii: u32,
    /// Sum of initiation intervals tried.
    pub total_iis_tried: u32,
}

/// Layout metadata for one software-pipelined loop, recorded at
/// emission time so the static schedule checker (`warp-analyze`) can
/// audit the emitted region against the plan — II versus resource MII,
/// stage partitioning, counter start values — without re-running the
/// modulo scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelinedLoopInfo {
    /// Index of the loop block in the vcode function.
    pub block: usize,
    /// Address of the kernel's first word in the unlinked image.
    pub kernel_start: u32,
    /// The modulo-scheduling plan the region was laid out from.
    pub plan: LoopPlan,
    /// The loop body's machine ops, indexed by the plan's `op_idx`.
    pub ops: Vec<Op>,
}

/// A branch fixup: the word at `word` targets block `block`.
#[derive(Debug, Clone, Copy)]
enum Fixup {
    /// Patch a `Jump` target.
    Jump { word: usize, block: usize },
    /// Patch a `BrTrue` target.
    BrTrue { word: usize, block: usize },
    /// Patch a `BrTrue` target to this function's fallback region for
    /// the given block.
    BrTrueFallback { word: usize, block: usize },
}

struct Emitter {
    words: Vec<InstructionWord>,
    fixups: Vec<Fixup>,
    call_relocs: Vec<CallReloc>,
    /// Address of each block's first word.
    block_addr: Vec<Option<u32>>,
    /// Address of each pipelined block's fallback region.
    fallback_addr: Vec<Option<u32>>,
    /// Layout records of the pipelined loops.
    plans: Vec<PipelinedLoopInfo>,
}

impl Emitter {
    fn push(&mut self, w: InstructionWord) -> usize {
        self.words.push(w);
        self.words.len() - 1
    }

    fn place_scheduled(
        &mut self,
        block: &crate::vcode::VBlock,
        sched: &BlockSchedule,
        base: usize,
    ) {
        // Ensure capacity: words base .. base+len.
        while self.words.len() < base + sched.len as usize {
            self.words.push(InstructionWord::new());
        }
        for s in &sched.ops {
            let op = to_target_op(&block.ops[s.op_idx]);
            self.words[base + s.cycle as usize]
                .place(s.fu, op)
                .expect("scheduler produced conflicting placement");
        }
    }
}

fn operand_of(v: VOperand) -> Operand {
    match v {
        VOperand::Phys(r) => Operand::Reg(r),
        VOperand::ImmI(c) => Operand::ImmI(c),
        VOperand::ImmF(c) => Operand::ImmF(c),
        VOperand::Addr(a) => Operand::Addr(a),
        VOperand::Virt(v) => panic!("unallocated operand {v}"),
    }
}

/// Emits `vf` (fully register-allocated) into a function image.
///
/// `max_ii` bounds the modulo scheduler's search.
///
/// # Panics
///
/// Panics if the function still contains virtual registers.
pub fn emit_function(vf: &VFunc, max_ii: u32) -> (FunctionImage, EmitStats) {
    let (image, stats, _) = emit_function_with_plans(vf, max_ii);
    (image, stats)
}

/// Like [`emit_function`], additionally returning the layout record of
/// every software-pipelined loop for the static schedule checker.
///
/// # Panics
///
/// Panics if the function still contains virtual registers.
pub fn emit_function_with_plans(
    vf: &VFunc,
    max_ii: u32,
) -> (FunctionImage, EmitStats, Vec<PipelinedLoopInfo>) {
    let mut stats = EmitStats::default();
    let n = vf.blocks.len();
    let mut em = Emitter {
        words: Vec::new(),
        fixups: Vec::new(),
        call_relocs: Vec::new(),
        block_addr: vec![None; n],
        fallback_addr: vec![None; n],
        plans: Vec::new(),
    };

    for bi in 0..n {
        let block = &vf.blocks[bi];
        em.block_addr[bi] = Some(em.words.len() as u32);

        // Try software pipelining for marked loops.
        if block.is_pipeline_loop {
            let outcome = plan_pipeline(block, bi, max_ii);
            stats.dep_tests += outcome.graph.dep_tests;
            match outcome.result {
                Ok(plan) => {
                    stats.pipelined_loops += 1;
                    stats.modulo_attempts += plan.attempts;
                    stats.total_ii += plan.ii;
                    stats.total_iis_tried += plan.iis_tried;
                    emit_pipelined(&mut em, vf, bi, &plan, &mut stats);
                    continue;
                }
                Err(reason) => {
                    if let crate::pipeline::NoPipeline::NoSchedule { attempts } = reason {
                        stats.modulo_attempts += attempts;
                    }
                    stats.fallback_loops += 1;
                    // Fall through to normal emission below.
                }
            }
        }

        // Plain block: list-schedule and emit.
        let graph = mdep_graph(block, false);
        stats.dep_tests += graph.dep_tests;
        let sched = list_schedule(block, &graph);
        stats.list_attempts += sched.attempts;
        let base = em.words.len();
        em.place_scheduled(block, &sched, base);
        emit_terminator(&mut em, bi, &block.term, n);
    }

    // Patch fixups.
    for f in &em.fixups {
        match *f {
            Fixup::Jump { word, block } => {
                let target = em.block_addr[block].expect("target emitted");
                if let Some(BranchOp::Jump(t)) = &mut em.words[word].branch {
                    *t = target;
                } else {
                    unreachable!("fixup points at non-jump");
                }
            }
            Fixup::BrTrue { word, block } => {
                let target = em.block_addr[block].expect("target emitted");
                if let Some(BranchOp::BrTrue(_, t)) = &mut em.words[word].branch {
                    *t = target;
                } else {
                    unreachable!("fixup points at non-brtrue");
                }
            }
            Fixup::BrTrueFallback { word, block } => {
                let target = em.fallback_addr[block].expect("fallback emitted");
                if let Some(BranchOp::BrTrue(_, t)) = &mut em.words[word].branch {
                    *t = target;
                } else {
                    unreachable!("fixup points at non-brtrue");
                }
            }
        }
    }

    stats.words = em.words.len() as u32;
    let image = FunctionImage {
        name: vf.name.clone(),
        code: em.words,
        data_words: vf.data_words,
        param_count: vf.param_count,
        returns_value: vf.returns_value,
        call_relocs: em.call_relocs,
    };
    (image, stats, em.plans)
}

/// Emits the terminator of a plain block.
fn emit_terminator(em: &mut Emitter, bi: usize, term: &VTerm, nblocks: usize) {
    match term {
        VTerm::Return => {
            em.push(InstructionWord::branch_only(BranchOp::Ret));
        }
        VTerm::Jump(t) => {
            // Fallthrough when the target is the next block.
            if *t != bi + 1 || *t >= nblocks {
                let w = em.push(InstructionWord::branch_only(BranchOp::Jump(0)));
                em.fixups.push(Fixup::Jump { word: w, block: *t });
            }
        }
        VTerm::Branch {
            cond,
            then_blk,
            else_blk,
        } => {
            let cond = cond.as_phys().expect("allocated condition");
            let w = em.push(InstructionWord::branch_only(BranchOp::BrTrue(cond, 0)));
            em.fixups.push(Fixup::BrTrue {
                word: w,
                block: *then_blk,
            });
            if *else_blk != bi + 1 {
                let w = em.push(InstructionWord::branch_only(BranchOp::Jump(0)));
                em.fixups.push(Fixup::Jump {
                    word: w,
                    block: *else_blk,
                });
            }
        }
        VTerm::Call { callee, next } => {
            let w = em.push(InstructionWord::branch_only(BranchOp::Call(u32::MAX)));
            em.call_relocs.push(CallReloc {
                word: w as u32,
                callee: callee.clone(),
            });
            if *next != bi + 1 {
                let w = em.push(InstructionWord::branch_only(BranchOp::Jump(0)));
                em.fixups.push(Fixup::Jump {
                    word: w,
                    block: *next,
                });
            }
        }
    }
}

/// Emits the guard + prologue + kernel + epilogue + fallback expansion
/// of a pipelined loop.
fn emit_pipelined(em: &mut Emitter, vf: &VFunc, bi: usize, plan: &LoopPlan, stats: &mut EmitStats) {
    let block = &vf.blocks[bi];
    let VTerm::Branch { cond, else_blk, .. } = &block.term else {
        unreachable!("pipelined block must end in a branch");
    };
    let exit = *else_blk;
    let cond = cond.as_phys().expect("allocated condition");
    let [counter_reg, tmp_reg, guard_reg] = SCRATCH;
    let s = plan.stages;
    let ii = plan.ii;

    // ---- guard: trip count, counter init, stage check ----------------
    let ind = Operand::Reg(plan.induction);
    let limit = operand_of(plan.limit);
    // trip = (limit - i) + 1   (step = +1)   or (i - limit) + 1.
    let mut w = InstructionWord::new();
    let sub = if plan.step > 0 {
        Op {
            opcode: Opcode::ISub,
            dst: Some(tmp_reg),
            a: Some(limit),
            b: Some(ind),
        }
    } else {
        Op {
            opcode: Opcode::ISub,
            dst: Some(tmp_reg),
            a: Some(ind),
            b: Some(limit),
        }
    };
    w.place(FuKind::Alu, sub).expect("guard word");
    em.push(w);
    // Non-unit steps (unrolled or `by k` loops): iterations =
    // floor(diff / |step|) + 1. The divide is iterative (8 cycles) but
    // the guard runs once per loop entry.
    if plan.step.abs() > 1 {
        let mut w = InstructionWord::new();
        w.place(
            FuKind::Alu,
            Op {
                opcode: Opcode::IDiv,
                dst: Some(tmp_reg),
                a: Some(Operand::Reg(tmp_reg)),
                b: Some(Operand::ImmI(plan.step.unsigned_abs() as i32)),
            },
        )
        .expect("guard word");
        em.push(w);
        // The iterative divide occupies the ALU for its full latency;
        // space the next word so strict mode is satisfied.
        for _ in 0..Opcode::IDiv.timing().latency {
            em.push(InstructionWord::new());
        }
    }
    let mut w = InstructionWord::new();
    w.place(
        FuKind::Alu,
        Op {
            opcode: Opcode::IAdd,
            dst: Some(tmp_reg),
            a: Some(Operand::Reg(tmp_reg)),
            b: Some(Operand::ImmI(1)),
        },
    )
    .expect("guard word");
    em.push(w);
    // Counter init: N = trip - (S-1) for EarlierWord; N-1 for SameWord.
    let init_sub = match plan.counter {
        CounterStrategy::EarlierWord { .. } => (s - 1) as i32,
        CounterStrategy::SameWord { .. } => s as i32,
    };
    let mut w = InstructionWord::new();
    w.place(
        FuKind::Alu,
        Op {
            opcode: Opcode::ISub,
            dst: Some(counter_reg),
            a: Some(Operand::Reg(tmp_reg)),
            b: Some(Operand::ImmI(init_sub)),
        },
    )
    .expect("guard word");
    em.push(w);
    if s >= 2 {
        // if trip < S: fallback.
        let mut w = InstructionWord::new();
        w.place(
            FuKind::Alu,
            Op {
                opcode: Opcode::ICmp(CmpKind::Lt),
                dst: Some(guard_reg),
                a: Some(Operand::Reg(tmp_reg)),
                b: Some(Operand::ImmI(s as i32)),
            },
        )
        .expect("guard word");
        em.push(w);
        let gw = em.push(InstructionWord::branch_only(BranchOp::BrTrue(guard_reg, 0)));
        em.fixups.push(Fixup::BrTrueFallback {
            word: gw,
            block: bi,
        });
    }

    // ---- prologue rows ------------------------------------------------
    for p in 0..s - 1 {
        let base = em.words.len();
        for _ in 0..ii {
            em.push(InstructionWord::new());
        }
        for pl in plan.prologue_row(p) {
            let op = to_target_op(&block.ops[pl.op_idx]);
            let slot = (pl.time % ii) as usize;
            em.words[base + slot]
                .place(pl.fu, op)
                .expect("prologue placement");
        }
    }

    // ---- kernel ---------------------------------------------------------
    let kernel_start = em.words.len() as u32;
    em.plans.push(PipelinedLoopInfo {
        block: bi,
        kernel_start,
        plan: plan.clone(),
        ops: block.ops.iter().map(to_target_op).collect(),
    });
    let base = em.words.len();
    for _ in 0..ii {
        em.push(InstructionWord::new());
    }
    for pl in &plan.placements {
        let op = to_target_op(&block.ops[pl.op_idx]);
        let slot = (pl.time % ii) as usize;
        em.words[base + slot]
            .place(pl.fu, op)
            .expect("kernel placement");
    }
    // Counter decrement.
    let dec = Op {
        opcode: Opcode::ISub,
        dst: Some(counter_reg),
        a: Some(Operand::Reg(counter_reg)),
        b: Some(Operand::ImmI(1)),
    };
    match plan.counter {
        CounterStrategy::EarlierWord { slot, fu } => {
            em.words[base + slot as usize]
                .place(fu, dec)
                .expect("counter slot");
        }
        CounterStrategy::SameWord { fu } => {
            em.words[base + ii as usize - 1]
                .place(fu, dec)
                .expect("counter slot");
        }
    }
    // Loop-back branch in the kernel's last word.
    em.words[base + ii as usize - 1].branch = Some(BranchOp::BrTrue(counter_reg, kernel_start));

    // ---- epilogue rows ---------------------------------------------------
    for r in 1..s {
        let base = em.words.len();
        for _ in 0..ii {
            em.push(InstructionWord::new());
        }
        for pl in plan.epilogue_row(r) {
            let op = to_target_op(&block.ops[pl.op_idx]);
            let slot = (pl.time % ii) as usize;
            em.words[base + slot]
                .place(pl.fu, op)
                .expect("epilogue placement");
        }
    }

    // ---- drain + exit -----------------------------------------------------
    for _ in 0..plan.drain {
        em.push(InstructionWord::new());
    }
    let jw = em.push(InstructionWord::branch_only(BranchOp::Jump(0)));
    em.fixups.push(Fixup::Jump {
        word: jw,
        block: exit,
    });

    // ---- fallback: plain scheduled loop body ------------------------------
    em.fallback_addr[bi] = Some(em.words.len() as u32);
    let fb_start = em.words.len() as u32;
    let graph = mdep_graph(block, false);
    stats.dep_tests += graph.dep_tests;
    let sched = list_schedule(block, &graph);
    stats.list_attempts += sched.attempts;
    let base = em.words.len();
    em.place_scheduled(block, &sched, base);
    let bw = em.push(InstructionWord::branch_only(BranchOp::BrTrue(
        cond, fb_start,
    )));
    let _ = bw;
    let jw = em.push(InstructionWord::branch_only(BranchOp::Jump(0)));
    em.fixups.push(Fixup::Jump {
        word: jw,
        block: exit,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regalloc::allocate;
    use crate::select::select;
    use warp_ir::phase2::phase2;
    use warp_lang::phase1;
    use warp_target::config::CellConfig;
    use warp_target::interp::{Cell, Value};
    use warp_target::isa::Reg;
    use warp_target::program::SectionImage;

    fn compile_fn(src: &str, idx: usize) -> (FunctionImage, EmitStats) {
        let checked = phase1(src).expect("phase1");
        let f = &checked.module.sections[0].functions[idx];
        let r = phase2(
            f,
            &checked.sections[0].symbol_tables[idx],
            &checked.sections[0].signatures,
        )
        .expect("phase2");
        let mut vf = select(&r.ir, &r.loops.pipelinable_blocks());
        allocate(&mut vf, &CellConfig::default()).expect("regalloc");
        emit_function(&vf, 256)
    }

    fn image_of(funcs: Vec<FunctionImage>) -> SectionImage {
        crate::link::link_section("s", 0, 0, funcs, &CellConfig::default())
            .expect("link")
            .0
    }

    fn run_f32(img: &SectionImage, func: &str, args: &[Value], strict: bool) -> f32 {
        let mut cell = Cell::new(CellConfig::default(), img.clone()).unwrap();
        cell.set_strict(strict);
        cell.prepare_call(func, args).unwrap();
        cell.run(2_000_000).unwrap();
        match cell.reg(Reg::RET).unwrap() {
            Value::F(v) => v,
            Value::I(v) => v as f32,
        }
    }

    fn wrap(body: &str) -> String {
        format!(
            "module m; section a on cells 0..0; function f(x: float, n: int): float \
             var t: float; u: float; v: float[64]; w: float[64]; i: int; begin {body} end; end;"
        )
    }

    #[test]
    fn straight_line_executes_correctly() {
        let (img, _) = compile_fn(&wrap("t := x * 2.0 + 1.0; return t;"), 0);
        let sec = image_of(vec![img]);
        let got = run_f32(&sec, "f", &[Value::F(3.0), Value::I(0)], true);
        assert_eq!(got, 7.0);
    }

    #[test]
    fn branch_executes_correctly() {
        let (img, _) = compile_fn(
            &wrap("if x > 1.0 then t := 10.0; else t := 20.0; end; return t;"),
            0,
        );
        let sec = image_of(vec![img]);
        assert_eq!(
            run_f32(&sec, "f", &[Value::F(2.0), Value::I(0)], true),
            10.0
        );
        assert_eq!(
            run_f32(&sec, "f", &[Value::F(0.5), Value::I(0)], true),
            20.0
        );
    }

    #[test]
    fn pipelined_loop_executes_correctly_strict() {
        let (img, stats) = compile_fn(
            &wrap("t := 0.0; for i := 1 to 10 do t := t + float(i); end; return t;"),
            0,
        );
        assert!(stats.pipelined_loops >= 1, "{stats:?}");
        let sec = image_of(vec![img]);
        let got = run_f32(&sec, "f", &[Value::F(0.0), Value::I(0)], true);
        assert_eq!(got, 55.0);
    }

    #[test]
    fn pipelined_array_loop_strict() {
        let (img, stats) = compile_fn(
            &wrap(
                "for i := 0 to 63 do v[i] := float(i) * 2.0; end; \
                 t := 0.0; for i := 0 to 63 do t := t + v[i]; end; return t;",
            ),
            0,
        );
        assert!(stats.pipelined_loops >= 1, "{stats:?}");
        let sec = image_of(vec![img]);
        let got = run_f32(&sec, "f", &[Value::F(0.0), Value::I(0)], true);
        // sum of 2i for i in 0..64 = 2*2016 = 4032
        assert_eq!(got, 4032.0);
    }

    #[test]
    fn short_trip_count_uses_fallback_correctly() {
        // Loop bound depends on n; when the pipelined version needs more
        // iterations than available, the guard takes the fallback.
        let (img, _) = compile_fn(
            &wrap("t := 0.0; for i := 1 to n do t := t + float(i); end; return t;"),
            0,
        );
        let sec = image_of(vec![img]);
        for n in 0..12 {
            let got = run_f32(&sec, "f", &[Value::F(0.0), Value::I(n)], true);
            let expect = (n * (n + 1) / 2) as f32;
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn downto_loop_executes() {
        let (img, _) = compile_fn(
            &wrap("t := 0.0; for i := 10 downto 1 do t := t + float(i); end; return t;"),
            0,
        );
        let sec = image_of(vec![img]);
        assert_eq!(
            run_f32(&sec, "f", &[Value::F(0.0), Value::I(0)], true),
            55.0
        );
    }

    #[test]
    fn while_loop_executes() {
        let (img, _) = compile_fn(
            &wrap("t := x; while t < 100.0 do t := t * 2.0; end; return t;"),
            0,
        );
        let sec = image_of(vec![img]);
        assert_eq!(
            run_f32(&sec, "f", &[Value::F(3.0), Value::I(0)], true),
            192.0
        );
    }

    #[test]
    fn calls_execute_with_saves() {
        let src = "module m; section a on cells 0..0; \
             function g(y: float): float begin return y * 3.0; end; \
             function f(x: float): float var t: float; u: float; begin \
             t := x + 1.0; u := g(x); return t + u; end; end;";
        let (g_img, _) = compile_fn(src, 0);
        let (f_img, _) = compile_fn(src, 1);
        let (sec, _) =
            crate::link::link_section("a", 0, 0, vec![g_img, f_img], &CellConfig::default())
                .expect("link");
        let got = run_f32(&sec, "f", &[Value::F(2.0)], true);
        assert_eq!(got, 9.0); // (2+1) + 2*3
    }

    #[test]
    fn queue_ops_execute_in_order() {
        let (img, _) = compile_fn(
            &wrap("for i := 1 to 5 do send(right, float(i)); end; return 0.0;"),
            0,
        );
        let sec = image_of(vec![img]);
        let mut cell = Cell::new(CellConfig::default(), sec).unwrap();
        cell.set_strict(true);
        cell.prepare_call("f", &[Value::F(0.0), Value::I(0)])
            .unwrap();
        cell.run(1_000_000).unwrap();
        let got: Vec<f32> = cell
            .out_right
            .iter()
            .map(|v| match v {
                Value::F(f) => *f,
                Value::I(i) => *i as f32,
            })
            .collect();
        assert_eq!(got, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn pipelining_beats_fallback_on_cycles() {
        let (img, stats) = compile_fn(
            &wrap(
                "t := 0.0; for i := 0 to 63 do w[i] := 1.5; end; \
                 for i := 0 to 63 do v[i] := w[i] * 2.0 + 1.0; end; return t;",
            ),
            0,
        );
        assert!(stats.pipelined_loops >= 1);
        let sec = image_of(vec![img.clone()]);
        let mut cell = Cell::new(CellConfig::default(), sec).unwrap();
        cell.set_strict(true);
        cell.prepare_call("f", &[Value::F(0.0), Value::I(0)])
            .unwrap();
        cell.run(1_000_000).unwrap();
        let pipelined_cycles = cell.cycle();
        // Each serial body is ~15+ cycles; 2 × 64 iterations serial
        // would be ≥ 1800. The pipelined loops should be far below.
        assert!(pipelined_cycles < 1400, "cycles={pipelined_cycles}");
    }

    #[test]
    fn nested_loops_execute() {
        let (img, _) = compile_fn(
            &wrap(
                "t := 0.0; for i := 0 to 7 do u := 0.0; \
                 for n := 0 to 7 do u := u + 1.0; end; t := t + u; end; return t;",
            ),
            0,
        );
        let sec = image_of(vec![img]);
        assert_eq!(
            run_f32(&sec, "f", &[Value::F(0.0), Value::I(0)], true),
            64.0
        );
    }
}

#[cfg(test)]
mod debug_tests {
    use super::tests_debug_helper::*;

    #[test]
    fn debug_two_loop_function() {
        dump_two_loop();
    }
}

#[cfg(test)]
pub(crate) mod tests_debug_helper {
    use crate::regalloc::allocate;
    use crate::select::select;
    use warp_ir::phase2::phase2;
    use warp_lang::phase1;
    use warp_target::config::CellConfig;
    use warp_target::interp::{Cell, StepOutcome, Value};

    pub fn dump_two_loop() {
        let src = "module m; section a on cells 0..0; function f(x: float, n: int): float \
             var t: float; u: float; v: float[64]; w: float[64]; i: int; begin \
             t := 0.0; for i := 0 to 63 do w[i] := 1.5; end; \
             for i := 0 to 63 do v[i] := w[i] * 2.0 + 1.0; end; return t; end; end;";
        let checked = phase1(src).expect("phase1");
        let f = &checked.module.sections[0].functions[0];
        let r = phase2(
            f,
            &checked.sections[0].symbol_tables[0],
            &checked.sections[0].signatures,
        )
        .expect("phase2");
        let mut vf = select(&r.ir, &r.loops.pipelinable_blocks());
        allocate(&mut vf, &CellConfig::default()).expect("regalloc");
        let (img, _) = crate::emit::emit_function(&vf, 256);
        let (sec, _) =
            crate::link::link_section("a", 0, 0, vec![img], &CellConfig::default()).unwrap();
        let mut listing = String::new();
        for (i, w) in sec.functions[0].code.iter().enumerate() {
            listing.push_str(&format!("{i:4}: {w}\n"));
        }
        let mut cell = Cell::new(CellConfig::default(), sec).unwrap();
        cell.set_strict(true);
        cell.prepare_call("f", &[Value::F(0.0), Value::I(0)])
            .unwrap();
        for _ in 0..100000 {
            let (fi, pc, word) = cell.debug_position();
            match cell.step() {
                Ok(StepOutcome::Halted) => return,
                Ok(_) => {}
                Err(e) => {
                    panic!("error at fn{fi} pc{pc}: {word}\n  -> {e}\n{listing}");
                }
            }
        }
    }
}

#[cfg(test)]
mod ifconv_pipeline_tests {
    use crate::regalloc::allocate;
    use crate::select::select;
    use warp_ir::phase2::phase2_verified;
    use warp_lang::phase1;
    use warp_target::config::CellConfig;
    use warp_target::interp::{Cell, Value};
    use warp_target::isa::Reg;

    /// A loop whose body contains a branch: without if-conversion it is
    /// a multi-block loop the pipeliner skips; with it, a single-block
    /// kernel with selects that software-pipelines and still computes
    /// the right answer under strict checking.
    #[test]
    fn if_converted_loop_pipelines_and_is_correct() {
        let src = "module m; section a on cells 0..0;\n\
            function f(x: float): float\n\
            var t: float; u: float; i: int;\n\
            begin\n\
              t := 0.0;\n\
              for i := 0 to 31 do\n\
                u := float(i) * 0.5;\n\
                if u > 8.0 then t := t + u; else t := t - u; end;\n\
              end;\n\
              return t;\n\
            end;\nend;";
        let checked = phase1(src).unwrap();
        let f = &checked.module.sections[0].functions[0];

        let run = |ifconv: bool| -> (u64, f32, usize) {
            let policy = warp_ir::IfConvPolicy::default();
            let p2 = phase2_verified(
                f,
                &checked.sections[0].symbol_tables[0],
                &checked.sections[0].signatures,
                None,
                ifconv.then_some(&policy),
                false,
                false,
            )
            .unwrap();
            let mut vf = select(&p2.ir, &p2.loops.pipelinable_blocks());
            allocate(&mut vf, &CellConfig::default()).unwrap();
            let (img, stats) = crate::emit::emit_function(&vf, 256);
            let (sec, _) =
                crate::link::link_section("a", 0, 0, vec![img], &CellConfig::default()).unwrap();
            let mut cell = Cell::new(CellConfig::default(), sec).unwrap();
            cell.set_strict(true);
            cell.prepare_call("f", &[Value::F(0.0)]).unwrap();
            cell.run(1_000_000).unwrap();
            let v = match cell.reg(Reg::RET).unwrap() {
                Value::F(v) => v,
                Value::I(v) => v as f32,
            };
            (cell.cycle(), v, stats.pipelined_loops)
        };

        let (cycles_base, v_base, pipe_base) = run(false);
        let (cycles_conv, v_conv, pipe_conv) = run(true);
        // Expected: sum over i of ±(i/2) with sign flipping above 8.
        let expect: f32 = (0..32)
            .map(|i| {
                let u = i as f32 * 0.5;
                if u > 8.0 {
                    u
                } else {
                    -u
                }
            })
            .sum();
        assert_eq!(v_base, expect);
        assert_eq!(v_conv, expect);
        assert_eq!(pipe_base, 0, "branchy loop must not pipeline un-converted");
        assert!(pipe_conv >= 1, "if-converted loop must pipeline");
        assert!(
            cycles_conv < cycles_base,
            "pipelined selects should beat branching: {cycles_conv} !< {cycles_base}"
        );
    }
}
