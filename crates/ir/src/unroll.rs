//! Loop unrolling.
//!
//! The paper's opening motivation: "various important optimizations
//! (like loop unrolling, procedure inlining, or trace scheduling)
//! increase the size of the program to be compiled and thereby make a
//! bad situation even worse" — and its closing argument: with parallel
//! compilation "the compiler can employ more time consuming
//! optimizations and thereby improve the quality of the code" (§6).
//!
//! This pass unrolls *single-block counted loops with constant bounds*
//! by a factor that divides the trip count exactly (no cleanup loop is
//! needed). Each copy keeps its own induction update, so addresses stay
//! correct; the intermediate exit tests are dropped. The effect on the
//! modulo scheduler is exactly the paper's trade: more ops per
//! iteration → more scheduling work → better slot utilization and
//! fewer loop-control cycles per element.

use crate::ir::*;
use crate::loops::analyze_loops;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use warp_target::isa::CmpKind;

/// Unrolling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnrollPolicy {
    /// Desired unroll factor (tried first; smaller divisors of the trip
    /// count are tried next, down to 2).
    pub factor: u32,
    /// Do not unroll bodies beyond this instruction count (the unrolled
    /// body stays below `factor × max_body_insts`).
    pub max_body_insts: usize,
}

impl Default for UnrollPolicy {
    fn default() -> Self {
        UnrollPolicy {
            factor: 4,
            max_body_insts: 60,
        }
    }
}

/// What the pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnrollStats {
    /// Loops unrolled.
    pub unrolled: usize,
    /// Instructions added across all unrolled loops.
    pub insts_added: usize,
}

/// A recognized counted loop, ready to unroll.
struct Counted {
    block: BlockId,
    /// The induction register.
    ivar: VirtReg,
    /// +1 or −1.
    step: i64,
    /// Inclusive limit.
    limit: i32,
    /// Initial value (from the preheader).
    init: i32,
    /// Index of the exit compare inside the block.
    cmp_idx: usize,
}

/// Finds the constant initial value of `ivar`: the last `Copy ivar :=
/// const` in a non-self predecessor of the loop block.
fn const_init(f: &FuncIr, block: BlockId, ivar: VirtReg) -> Option<i32> {
    let preds = f.predecessors();
    let mut init = None;
    for p in &preds[block.index()] {
        if *p == block {
            continue;
        }
        for inst in f.blocks[p.index()].insts.iter().rev() {
            if inst.def() == Some(ivar) {
                match inst {
                    Inst::Copy {
                        src: Val::ConstI(c),
                        ..
                    } => {
                        if init.is_some_and(|v| v != *c) {
                            return None; // conflicting inits
                        }
                        init = Some(*c);
                    }
                    _ => return None,
                }
                break;
            }
        }
    }
    init
}

/// Recognizes the induction register of a single-block loop: the unique
/// register whose value at block exit is its entry value plus a nonzero
/// constant (`i := i ± c`, possibly through temporaries, possibly
/// updated several times in an unrolled body).
///
/// Returns `(register, total signed step per block iteration)`.
fn find_induction(block: &Block) -> Option<(VirtReg, i64)> {
    use std::collections::HashSet;
    // Symbolic ±constant chains from block-entry values:
    // expr[r] = (root, delta) means r currently holds root@entry + delta.
    let mut expr: HashMap<VirtReg, (VirtReg, i64)> = HashMap::new();
    let mut defined: HashSet<VirtReg> = HashSet::new();
    for inst in &block.insts {
        match inst {
            Inst::Bin {
                op,
                ty: IrType::Int,
                dst,
                a: Val::Reg(src),
                b: Val::ConstI(c),
            } if *op == IrBinOp::Add || *op == IrBinOp::Sub => {
                let c = if *op == IrBinOp::Add {
                    *c as i64
                } else {
                    -(*c as i64)
                };
                let entry = if let Some(&(root, delta)) = expr.get(src) {
                    Some((root, delta + c))
                } else if !defined.contains(src) {
                    Some((*src, c))
                } else {
                    None
                };
                match entry {
                    Some(e) => {
                        expr.insert(*dst, e);
                    }
                    None => {
                        expr.remove(dst);
                    }
                }
                defined.insert(*dst);
            }
            Inst::Copy {
                dst,
                src: Val::Reg(s),
            } => {
                let entry = if let Some(&e) = expr.get(s) {
                    Some(e)
                } else if !defined.contains(s) {
                    Some((*s, 0))
                } else {
                    None
                };
                match entry {
                    Some(e) => {
                        expr.insert(*dst, e);
                    }
                    None => {
                        expr.remove(dst);
                    }
                }
                defined.insert(*dst);
            }
            other => {
                if let Some(d) = other.def() {
                    expr.remove(&d);
                    defined.insert(d);
                }
            }
        }
    }
    let mut candidates: Vec<(VirtReg, i64)> = expr
        .iter()
        .filter(|(r, (root, delta))| *r == root && *delta != 0 && defined.contains(r))
        .map(|(r, (_, delta))| (*r, *delta))
        .collect();
    candidates.sort_by_key(|(r, _)| r.0);
    if candidates.len() != 1 {
        return None;
    }
    Some(candidates[0])
}

fn recognize(f: &FuncIr, block: BlockId) -> Option<Counted> {
    let b = &f.blocks[block.index()];
    let Term::Branch { cond, then_blk, .. } = &b.term else {
        return None;
    };
    if *then_blk != block {
        return None;
    }
    let (ivar, step) = find_induction(b)?;
    // Exit compare: last def of the condition register.
    let cond_reg = cond.as_reg()?;
    let cmp_idx = b.insts.iter().rposition(|i| i.def() == Some(cond_reg))?;
    let Inst::Cmp {
        kind,
        a,
        b: limit_v,
        ..
    } = &b.insts[cmp_idx]
    else {
        return None;
    };
    let want = if step > 0 { CmpKind::Le } else { CmpKind::Ge };
    if *kind != want {
        return None;
    }
    // The compare may read the induction register or the increment temp.
    let cmp_src = a.as_reg()?;
    let reads_induction = cmp_src == ivar
        || matches!(
            &b.insts[..cmp_idx].iter().rev().find(|i| i.def() == Some(cmp_src)),
            Some(Inst::Bin { op: IrBinOp::Add | IrBinOp::Sub, a: Val::Reg(r), b: Val::ConstI(_), .. })
                if *r == ivar
        );
    if !reads_induction {
        return None;
    }
    let Val::ConstI(limit) = limit_v else {
        return None;
    };
    if step.abs() != 1 {
        return None;
    }
    let init = const_init(f, block, ivar)?;
    Some(Counted {
        block,
        ivar,
        step,
        limit: *limit,
        init,
        cmp_idx,
    })
}

/// Unrolls eligible loops of `f` in place.
pub fn unroll_loops(f: &mut FuncIr, policy: &UnrollPolicy) -> UnrollStats {
    let mut stats = UnrollStats::default();
    let loops = analyze_loops(f);
    for header in loops.pipelinable_blocks() {
        let Some(counted) = recognize(f, header) else {
            continue;
        };
        let b = &f.blocks[header.index()];
        if b.insts.len() > policy.max_body_insts {
            continue;
        }
        // Trip count.
        let trip = if counted.step > 0 {
            (counted.limit as i64 - counted.init as i64) + 1
        } else {
            (counted.init as i64 - counted.limit as i64) + 1
        };
        if trip <= 1 {
            continue;
        }
        // Largest factor ≤ policy.factor that divides the trip count.
        let factor = (2..=policy.factor.min(trip as u32))
            .rev()
            .find(|&u| trip % u as i64 == 0);
        let Some(factor) = factor else { continue };

        let block = &mut f.blocks[counted.block.index()];
        let original = block.insts.clone();
        let mut body: Vec<Inst> = Vec::with_capacity(original.len() * factor as usize);
        for copy in 0..factor {
            for (i, inst) in original.iter().enumerate() {
                if i == counted.cmp_idx && copy + 1 < factor {
                    // Intermediate exit tests are dropped (the factor
                    // divides the trip count exactly).
                    continue;
                }
                body.push(inst.clone());
            }
        }
        stats.insts_added += body.len() - original.len();
        block.insts = body;
        stats.unrolled += 1;
        let _ = counted.ivar;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;
    use crate::opt::optimize;
    use warp_lang::phase1;

    fn lowered(body: &str) -> FuncIr {
        let src = format!(
            "module m; section a on cells 0..0; function f(x: float, n: int): float \
             var t: float; v: float[64]; w: float[64]; i: int; begin {body} end; end;"
        );
        let checked = phase1(&src).expect("phase1");
        let mut f = lower_module(&checked).expect("lower").remove(0).1;
        optimize(&mut f, 10);
        f
    }

    fn loop_block(f: &FuncIr) -> &Block {
        let li = analyze_loops(f);
        let hdr = li.pipelinable_blocks()[0];
        &f.blocks[hdr.index()]
    }

    #[test]
    fn induction_variable_found() {
        let f = lowered("t := 0.0; for i := 0 to 7 do t := t + v[i]; end; return t;");
        let blk = loop_block(&f);
        let (reg, step) = find_induction(blk).expect("induction");
        assert_eq!(step, 1);
        // The register must be an int.
        assert_eq!(f.vreg_type(reg), IrType::Int);
    }

    #[test]
    fn downto_induction_step_negative() {
        let f = lowered("t := 0.0; for i := 7 downto 0 do t := t + v[i]; end; return t;");
        let blk = loop_block(&f);
        let (_, step) = find_induction(blk).expect("induction");
        assert_eq!(step, -1);
    }

    #[test]
    fn unrolls_constant_loop_exactly() {
        let mut f = lowered("t := 0.0; for i := 0 to 15 do t := t + v[i]; end; return t;");
        let li = analyze_loops(&f);
        let hdr = li.pipelinable_blocks()[0];
        let before = f.blocks[hdr.index()].insts.len();
        let stats = unroll_loops(
            &mut f,
            &UnrollPolicy {
                factor: 4,
                max_body_insts: 60,
            },
        );
        assert_eq!(stats.unrolled, 1, "{stats:?}");
        let after = f.blocks[hdr.index()].insts.len();
        // 4 copies minus 3 dropped compares.
        assert_eq!(after, before * 4 - 3, "{before} → {after}");
    }

    #[test]
    fn indivisible_factor_falls_back_to_divisor() {
        // Trip count 15 (0..=14): factor 4 doesn't divide, 3 does.
        let mut f = lowered("t := 0.0; for i := 0 to 14 do t := t + v[i]; end; return t;");
        let stats = unroll_loops(
            &mut f,
            &UnrollPolicy {
                factor: 4,
                max_body_insts: 60,
            },
        );
        assert_eq!(stats.unrolled, 1);
        let li = analyze_loops(&f);
        let hdr = li.pipelinable_blocks()[0];
        // 3 copies minus 2 compares over the original length.
        let n = f.blocks[hdr.index()].insts.len();
        assert_eq!((n + 2) % 3, 0, "{n}");
    }

    #[test]
    fn prime_trip_count_not_unrolled() {
        let mut f = lowered("t := 0.0; for i := 0 to 12 do t := t + v[i]; end; return t;");
        // Trip 13 is prime and > factor: nothing divides.
        let stats = unroll_loops(
            &mut f,
            &UnrollPolicy {
                factor: 4,
                max_body_insts: 60,
            },
        );
        assert_eq!(stats.unrolled, 0);
    }

    #[test]
    fn variable_bounds_not_unrolled() {
        let mut f = lowered("t := 0.0; for i := 0 to n do t := t + v[i]; end; return t;");
        let stats = unroll_loops(&mut f, &UnrollPolicy::default());
        assert_eq!(stats.unrolled, 0);
    }

    #[test]
    fn oversized_bodies_skipped() {
        let mut f = lowered(
            "t := 0.0; for i := 0 to 15 do t := t + v[i] * w[i] + sqrt(abs(t) + 1.0); end; return t;",
        );
        let stats = unroll_loops(
            &mut f,
            &UnrollPolicy {
                factor: 4,
                max_body_insts: 2,
            },
        );
        assert_eq!(stats.unrolled, 0);
    }

    #[test]
    fn downto_loops_unroll() {
        let mut f = lowered("t := 0.0; for i := 15 downto 0 do t := t + v[i]; end; return t;");
        let stats = unroll_loops(
            &mut f,
            &UnrollPolicy {
                factor: 2,
                max_body_insts: 60,
            },
        );
        assert_eq!(stats.unrolled, 1, "{stats:?}\n{}", f.dump());
    }
}
