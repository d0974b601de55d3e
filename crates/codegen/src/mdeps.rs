//! Machine-level dependence graph: the compiler's one dependence
//! analysis, the paper's "computation of global dependencies" (§3.2).
//!
//! It runs after register allocation, on the code the scheduler places.
//! Every operand is then a physical register, so register dependences
//! (including the anti and output dependences introduced by register
//! reuse) are computed directly on the [`VOp`] list. Memory dependences
//! use the classic ZIV/SIV subscript tests on addresses affine in the
//! loop induction register, `coeff·i + Addr(base) + offset`; anything
//! unanalyzable is a conservative distance-1 dependence. Accesses to
//! different bases are independent (arrays and spill slots occupy
//! disjoint regions and the language bounds-checks constant
//! subscripts).

use crate::vcode::{VBlock, VOp, VOperand};
use serde::{Deserialize, Serialize};
use warp_target::isa::{Opcode, Reg};

/// The kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepKind {
    /// Read-after-write (true dependence).
    Flow,
    /// Write-after-read.
    Anti,
    /// Write-after-write.
    Output,
    /// Ordering between side-effecting operations (queues, calls,
    /// unanalyzable memory).
    Order,
}

/// A dependence edge between two machine ops of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MDep {
    /// Source op index.
    pub from: usize,
    /// Destination op index.
    pub to: usize,
    /// Kind.
    pub kind: DepKind,
    /// Iteration distance (0 in non-loop blocks).
    pub distance: u32,
    /// Required issue-cycle separation: `t(to) ≥ t(from) + delay − II·distance`.
    pub delay: u32,
}

/// The dependence graph of one block at machine level.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MDepGraph {
    /// Number of ops.
    pub n: usize,
    /// All edges.
    pub edges: Vec<MDep>,
    /// Work counter: dependence tests performed.
    pub dep_tests: usize,
    /// Per op, the indices into `edges` of its incoming edges, ascending.
    preds: Vec<Vec<u32>>,
    /// Per op, the indices into `edges` of its outgoing edges, ascending.
    succs: Vec<Vec<u32>>,
}

impl MDepGraph {
    /// Predecessor edges of op `i`, in edge order.
    pub fn preds_of(&self, i: usize) -> impl Iterator<Item = &MDep> {
        self.preds[i].iter().map(|&k| &self.edges[k as usize])
    }

    /// Successor edges of op `i`, in edge order.
    pub fn succs_of(&self, i: usize) -> impl Iterator<Item = &MDep> {
        self.succs[i].iter().map(|&k| &self.edges[k as usize])
    }
}

/// The physical register read by an operand, if any.
fn operand_reg(o: VOperand) -> Option<Reg> {
    match o {
        VOperand::Phys(r) => Some(r),
        VOperand::Virt(_) => panic!("mdeps requires allocated code"),
        _ => None,
    }
}

/// Registers read by `op`. [`Opcode::SelT`] also reads its destination
/// (the old value survives a false condition).
fn uses(op: &VOp) -> Vec<Reg> {
    let mut u: Vec<Reg> = op.operands().filter_map(operand_reg).collect();
    if op.opcode == Opcode::SelT {
        if let crate::vcode::VDest::Phys(d) = op.dst {
            u.push(d);
        }
    }
    u
}

/// Register written by `op`.
fn def(op: &VOp) -> Option<Reg> {
    match op.dst {
        crate::vcode::VDest::Phys(r) => Some(r),
        crate::vcode::VDest::Virt(_) => panic!("mdeps requires allocated code"),
        crate::vcode::VDest::None => None,
    }
}

fn delay_for(kind: DepKind, from_op: &VOp) -> u32 {
    match kind {
        DepKind::Flow => from_op.opcode.timing().latency,
        DepKind::Anti => 0,
        DepKind::Output | DepKind::Order => 1,
    }
}

/// Finds the induction register of an allocated self-loop block:
/// `iadd t, i, #c` (or `isub`) followed by `mov i, t`, or directly
/// `iadd i, i, #c`.
pub fn find_induction_phys(block: &VBlock) -> Option<(Reg, i64)> {
    induction_deltas(block).map(|(r, net, _)| (r, net))
}

/// Map of registers holding induction-chain values: `r -> (root,
/// delta)` meaning `r = root@entry + delta`.
pub type ChainMap = std::collections::HashMap<Reg, (Reg, i64)>;

/// Symbolic induction analysis: expresses every register that is a
/// ±constant chain from some block-entry value as `(root, delta)`.
/// Returns the unique register `r` whose final value is `r@entry + net`
/// with `net ≠ 0`, plus the map of all registers holding chain values
/// (used to validate the exit compare).
pub fn induction_deltas(block: &VBlock) -> Option<(Reg, i64, ChainMap)> {
    use std::collections::{HashMap, HashSet};
    let mut expr: HashMap<Reg, (Reg, i64)> = HashMap::new();
    let mut defined: HashSet<Reg> = HashSet::new();
    for op in &block.ops {
        let d = def(op);
        match (op.opcode, d, op.a, op.b) {
            (
                Opcode::IAdd | Opcode::ISub,
                Some(d),
                Some(VOperand::Phys(s)),
                Some(VOperand::ImmI(c)),
            ) => {
                let c = if op.opcode == Opcode::IAdd {
                    c as i64
                } else {
                    -(c as i64)
                };
                let entry = if let Some(&(root, delta)) = expr.get(&s) {
                    Some((root, delta + c))
                } else if !defined.contains(&s) {
                    Some((s, c))
                } else {
                    None
                };
                match entry {
                    Some(e) => {
                        expr.insert(d, e);
                    }
                    None => {
                        expr.remove(&d);
                    }
                }
                defined.insert(d);
            }
            (Opcode::Move, Some(d), Some(VOperand::Phys(s)), None) => {
                let entry = if let Some(&e) = expr.get(&s) {
                    Some(e)
                } else if !defined.contains(&s) {
                    Some((s, 0))
                } else {
                    None
                };
                match entry {
                    Some(e) => {
                        expr.insert(d, e);
                    }
                    None => {
                        expr.remove(&d);
                    }
                }
                defined.insert(d);
            }
            (_, Some(d), _, _) => {
                expr.remove(&d);
                defined.insert(d);
            }
            _ => {}
        }
    }
    // The induction register: redefined as a nonzero chain from itself.
    let mut candidates: Vec<(Reg, i64)> = expr
        .iter()
        .filter(|(r, (root, delta))| *r == root && *delta != 0 && defined.contains(r))
        .map(|(r, (_, delta))| (*r, *delta))
        .collect();
    candidates.sort_by_key(|(r, _)| r.0);
    if candidates.len() != 1 {
        return None;
    }
    let (reg, net) = candidates[0];
    Some((reg, net, expr))
}

/// An address recognized as `coeff·induction + base + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MAffine {
    coeff: i64,
    /// The symbolic `Addr` base, if one participates.
    base: Option<u32>,
    offset: i64,
}

fn maffine(
    block: &VBlock,
    pos: usize,
    o: VOperand,
    induction: Option<(Reg, i64)>,
    depth: usize,
) -> Option<MAffine> {
    if depth > 16 {
        return None;
    }
    match o {
        VOperand::ImmI(c) => Some(MAffine {
            coeff: 0,
            base: None,
            offset: c as i64,
        }),
        VOperand::Addr(b) => Some(MAffine {
            coeff: 0,
            base: Some(b),
            offset: 0,
        }),
        VOperand::ImmF(_) => None,
        VOperand::Virt(_) => panic!("mdeps requires allocated code"),
        VOperand::Phys(r) => {
            if let Some((ind, _)) = induction {
                if r == ind {
                    let updated_before = block.ops[..pos].iter().any(|op| def(op) == Some(r));
                    return if updated_before {
                        None
                    } else {
                        Some(MAffine {
                            coeff: 1,
                            base: None,
                            offset: 0,
                        })
                    };
                }
            }
            let def_pos = block.ops[..pos].iter().rposition(|op| def(op) == Some(r))?;
            let dop = &block.ops[def_pos];
            match dop.opcode {
                Opcode::Move => maffine(block, def_pos, dop.a?, induction, depth + 1),
                Opcode::IAdd | Opcode::ISub => {
                    let fa = maffine(block, def_pos, dop.a?, induction, depth + 1)?;
                    let fb = maffine(block, def_pos, dop.b?, induction, depth + 1)?;
                    if fa.base.is_some() && fb.base.is_some() {
                        return None;
                    }
                    let base = fa.base.or(fb.base);
                    Some(if dop.opcode == Opcode::IAdd {
                        MAffine {
                            coeff: fa.coeff + fb.coeff,
                            base,
                            offset: fa.offset + fb.offset,
                        }
                    } else {
                        if fb.base.is_some() {
                            return None; // base subtracted — not an address
                        }
                        MAffine {
                            coeff: fa.coeff - fb.coeff,
                            base,
                            offset: fa.offset - fb.offset,
                        }
                    })
                }
                Opcode::IMul => {
                    let fa = maffine(block, def_pos, dop.a?, induction, depth + 1)?;
                    let fb = maffine(block, def_pos, dop.b?, induction, depth + 1)?;
                    if fa.base.is_some() || fb.base.is_some() {
                        return None;
                    }
                    if fa.coeff == 0 {
                        Some(MAffine {
                            coeff: fa.offset * fb.coeff,
                            base: None,
                            offset: fa.offset * fb.offset,
                        })
                    } else if fb.coeff == 0 {
                        Some(MAffine {
                            coeff: fb.offset * fa.coeff,
                            base: None,
                            offset: fb.offset * fa.offset,
                        })
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemDep {
    None,
    Distance(u32),
    Unknown,
}

fn mem_test(a: Option<MAffine>, b: Option<MAffine>, step: i64, is_loop: bool) -> MemDep {
    match (a, b) {
        (Some(x), Some(y)) => {
            if x.base != y.base {
                // Disjoint storage regions.
                return MemDep::None;
            }
            if x.coeff == y.coeff {
                if x.coeff == 0 {
                    if x.offset == y.offset {
                        MemDep::Distance(0)
                    } else {
                        MemDep::None
                    }
                } else {
                    let denom = x.coeff * step;
                    if denom == 0 {
                        return MemDep::Unknown;
                    }
                    let diff = x.offset - y.offset;
                    if diff % denom != 0 {
                        MemDep::None
                    } else {
                        let d = diff / denom;
                        if d == 0 {
                            MemDep::Distance(0)
                        } else if !is_loop || d < 0 {
                            MemDep::None
                        } else {
                            MemDep::Distance(d.min(u32::MAX as i64) as u32)
                        }
                    }
                }
            } else {
                MemDep::Unknown
            }
        }
        _ => MemDep::Unknown,
    }
}

/// Builds the machine-level dependence graph of an allocated block.
///
/// # Panics
///
/// Panics if the block still contains virtual registers.
pub fn mdep_graph(block: &VBlock, is_loop: bool) -> MDepGraph {
    let n = block.ops.len();
    let mut edges: Vec<MDep> = Vec::new();
    let mut dep_tests = 0usize;
    let induction = if is_loop {
        find_induction_phys(block)
    } else {
        None
    };

    // The first edge pushed for a (from, to, kind, distance) wins.
    let mut seen = std::collections::HashSet::new();
    let mut push = |from: usize, to: usize, kind: DepKind, distance: u32, delay: u32| {
        if from == to && distance == 0 {
            return;
        }
        if seen.insert((from, to, kind, distance)) {
            edges.push(MDep {
                from,
                to,
                kind,
                distance,
                delay,
            });
        }
    };

    // Register dependences.
    let uses: Vec<Vec<Reg>> = block.ops.iter().map(uses).collect();
    let defs: Vec<Option<Reg>> = block.ops.iter().map(def).collect();
    for j in 0..n {
        for &u in &uses[j] {
            match defs[..j].iter().rposition(|&d| d == Some(u)) {
                Some(i) => {
                    let d = delay_for(DepKind::Flow, &block.ops[i]);
                    push(i, j, DepKind::Flow, 0, d);
                }
                None => {
                    if is_loop {
                        // The value read comes from the previous
                        // iteration, i.e. the block's *last* def.
                        if let Some(i) = defs.iter().rposition(|&d| d == Some(u)) {
                            if i >= j {
                                let d = delay_for(DepKind::Flow, &block.ops[i]);
                                push(i, j, DepKind::Flow, 1, d);
                            }
                        }
                    }
                }
            }
        }
        if let Some(d) = defs[j] {
            for i in 0..j {
                if uses[i].contains(&d) {
                    push(i, j, DepKind::Anti, 0, 0);
                }
                if defs[i] == Some(d) {
                    push(i, j, DepKind::Output, 0, 1);
                }
            }
            if is_loop {
                // Loop-carried anti: uses later in the block read this
                // iteration's value before next iteration's write.
                for (k, u) in uses.iter().enumerate().skip(j + 1) {
                    if u.contains(&d) {
                        push(k, j, DepKind::Anti, 1, 0);
                    }
                }
                // Loop-carried outputs: to itself, and from any later
                // writer of the same register back to this one (keeps
                // instances from colliding in the same kernel cycle).
                push(j, j, DepKind::Output, 1, 1);
                for (k, &dk) in defs.iter().enumerate().skip(j + 1) {
                    if dk == Some(d) {
                        push(k, j, DepKind::Output, 1, 1);
                    }
                }
            }
        }
    }

    // Memory dependences.
    let accesses: Vec<(usize, VOperand, bool)> = block
        .ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| match op.opcode {
            Opcode::Load => Some((i, op.a.expect("load address"), false)),
            Opcode::Store => Some((i, op.a.expect("store address"), true)),
            _ => None,
        })
        .collect();
    let forms: Vec<Option<MAffine>> = accesses
        .iter()
        .map(|&(i, addr, _)| maffine(block, i, addr, induction, 0))
        .collect();
    let step = induction.map(|(_, s)| s).unwrap_or(1);
    for (x, &(i, _, wr_i)) in accesses.iter().enumerate() {
        for (y, &(j, _, wr_j)) in accesses.iter().enumerate().skip(x + 1) {
            if !wr_i && !wr_j {
                continue;
            }
            dep_tests += 1;
            let (fa, fb) = (forms[x], forms[y]);
            let kind = match (wr_i, wr_j) {
                (true, false) => DepKind::Flow,
                (false, true) => DepKind::Anti,
                _ => DepKind::Output,
            };
            let rkind = match (wr_j, wr_i) {
                (true, false) => DepKind::Flow,
                (false, true) => DepKind::Anti,
                _ => DepKind::Output,
            };
            match mem_test(fa, fb, step, is_loop) {
                MemDep::None => {
                    if is_loop {
                        if let MemDep::Distance(d) = mem_test(fb, fa, step, true) {
                            if d > 0 {
                                let delay = delay_for(rkind, &block.ops[j]);
                                push(j, i, rkind, d, delay);
                            }
                        }
                    }
                }
                MemDep::Distance(d) => {
                    let delay = delay_for(kind, &block.ops[i]);
                    push(i, j, kind, d, delay);
                }
                MemDep::Unknown => {
                    let delay = delay_for(kind, &block.ops[i]);
                    push(i, j, kind, 0, delay);
                    if is_loop {
                        let delay = delay_for(rkind, &block.ops[j]);
                        push(j, i, rkind, 1, delay);
                    }
                }
            }
        }
    }

    // Queue ordering.
    let qops: Vec<(usize, &VOp)> = block
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op.opcode, Opcode::Send(_) | Opcode::Recv(_)))
        .collect();
    for (x, &(i, op_i)) in qops.iter().enumerate() {
        for &(j, op_j) in qops.iter().skip(x + 1) {
            let ordered = match (op_i.opcode, op_j.opcode) {
                (Opcode::Send(d1), Opcode::Send(d2)) => d1 == d2,
                (Opcode::Recv(d1), Opcode::Recv(d2)) => d1 == d2,
                _ => false,
            };
            if ordered {
                push(i, j, DepKind::Order, 0, 1);
                if is_loop {
                    push(j, i, DepKind::Order, 1, 1);
                }
            }
        }
    }

    let mut preds = vec![Vec::new(); n];
    let mut succs = vec![Vec::new(); n];
    for (k, e) in edges.iter().enumerate() {
        preds[e.to].push(k as u32);
        succs[e.from].push(k as u32);
    }
    MDepGraph {
        n,
        edges,
        dep_tests,
        preds,
        succs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcode::{VDest, VTerm};
    use warp_target::isa::QueueDir;

    fn r(n: u16) -> VOperand {
        VOperand::Phys(Reg(n))
    }

    fn block(ops: Vec<VOp>) -> VBlock {
        VBlock {
            ops,
            term: VTerm::Return,
            is_pipeline_loop: false,
        }
    }

    fn op2(opcode: Opcode, dst: u16, a: VOperand, b: VOperand) -> VOp {
        VOp {
            opcode,
            dst: VDest::Phys(Reg(dst)),
            a: Some(a),
            b: Some(b),
        }
    }

    #[test]
    fn flow_dep_with_latency() {
        let b = block(vec![
            op2(Opcode::FAdd, 12, r(13), r(14)),
            op2(Opcode::FMul, 15, r(12), r(14)),
        ]);
        let g = mdep_graph(&b, false);
        let e = g.edges.iter().find(|e| e.from == 0 && e.to == 1).unwrap();
        assert_eq!(e.kind, DepKind::Flow);
        assert_eq!(e.delay, 5);
    }

    #[test]
    fn anti_dep_zero_delay() {
        let b = block(vec![
            op2(Opcode::IAdd, 12, r(13), r(14)),
            op2(Opcode::IAdd, 13, r(15), r(15)),
        ]);
        let g = mdep_graph(&b, false);
        let e = g
            .edges
            .iter()
            .find(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::Anti)
            .unwrap();
        assert_eq!(e.delay, 0);
    }

    #[test]
    fn loop_carried_register_flow() {
        // acc := acc + x  (acc = r12): carried flow from the write to
        // next iteration's read.
        let b = block(vec![op2(Opcode::FAdd, 12, r(12), r(13))]);
        let g = mdep_graph(&b, true);
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 0 && e.kind == DepKind::Flow && e.distance == 1));
        // And a carried output-dep on itself.
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 0 && e.kind == DepKind::Output && e.distance == 1));
    }

    #[test]
    fn memory_different_bases_independent() {
        let b = block(vec![
            VOp {
                opcode: Opcode::Store,
                dst: VDest::None,
                a: Some(VOperand::Addr(0)),
                b: Some(r(12)),
            },
            VOp {
                opcode: Opcode::Load,
                dst: VDest::Phys(Reg(13)),
                a: Some(VOperand::Addr(8)),
                b: None,
            },
        ]);
        let g = mdep_graph(&b, false);
        assert!(
            !g.edges.iter().any(|e| e.from == 0 && e.to == 1),
            "{:?}",
            g.edges
        );
        assert_eq!(g.dep_tests, 1);
    }

    #[test]
    fn memory_same_address_flow() {
        let b = block(vec![
            VOp {
                opcode: Opcode::Store,
                dst: VDest::None,
                a: Some(VOperand::Addr(4)),
                b: Some(r(12)),
            },
            VOp {
                opcode: Opcode::Load,
                dst: VDest::Phys(Reg(13)),
                a: Some(VOperand::Addr(4)),
                b: None,
            },
        ]);
        let g = mdep_graph(&b, false);
        let e = g.edges.iter().find(|e| e.from == 0 && e.to == 1).unwrap();
        assert_eq!(e.kind, DepKind::Flow);
        assert_eq!(e.delay, 1);
    }

    #[test]
    fn induction_recognized_on_phys() {
        // iadd r13, r12, #1 ; mov r12, r13 (self-loop)
        let b = VBlock {
            ops: vec![
                op2(Opcode::IAdd, 13, r(12), VOperand::ImmI(1)),
                VOp {
                    opcode: Opcode::Move,
                    dst: VDest::Phys(Reg(12)),
                    a: Some(r(13)),
                    b: None,
                },
            ],
            term: VTerm::Branch {
                cond: r(14),
                then_blk: 0,
                else_blk: 1,
            },
            is_pipeline_loop: true,
        };
        let (reg, step) = find_induction_phys(&b).unwrap();
        assert_eq!(reg, Reg(12));
        assert_eq!(step, 1);
    }

    #[test]
    fn strided_array_accesses_in_loop() {
        // Loop: addr := i + base; store addr; iadd i,i,1
        let b = VBlock {
            ops: vec![
                op2(Opcode::IAdd, 13, r(12), VOperand::Addr(0)),
                VOp {
                    opcode: Opcode::Store,
                    dst: VDest::None,
                    a: Some(r(13)),
                    b: Some(r(14)),
                },
                op2(Opcode::IAdd, 12, r(12), VOperand::ImmI(1)),
            ],
            term: VTerm::Branch {
                cond: r(15),
                then_blk: 0,
                else_blk: 1,
            },
            is_pipeline_loop: true,
        };
        let g = mdep_graph(&b, true);
        // Store to v[i] each iteration: no self memory dep (distinct
        // addresses), so no Output edge from the store to itself.
        assert!(
            !g.edges
                .iter()
                .any(|e| e.from == 1 && e.to == 1 && e.kind == DepKind::Output && e.distance > 0),
            "{:?}",
            g.edges
        );
    }

    /// The subscript tests on real compiled loops: each source goes
    /// through phase 2, selection and register allocation, and the
    /// pipelined block's memory edges must be exactly the expected ones.
    #[test]
    fn compiled_loops_have_exactly_their_memory_edges() {
        use crate::regalloc::allocate;
        use crate::select::select;
        use warp_target::config::CellConfig;
        type MemEdge = (Opcode, Opcode, DepKind, u32);
        let cases: [(&str, &[MemEdge]); 3] = [
            (
                // v[i] := v[i-1] + 1.0: this iteration's store feeds the
                // next iteration's load.
                "v[0] := x; for i := 1 to 63 do v[i] := v[i - 1] + 1.0; end; return v[63];",
                &[(Opcode::Store, Opcode::Load, DepKind::Flow, 1)],
            ),
            (
                // Same element: the load must precede the store.
                "for i := 0 to 63 do v[i] := v[i] + 1.0; end; return 0.0;",
                &[(Opcode::Load, Opcode::Store, DepKind::Anti, 0)],
            ),
            (
                // Different arrays: independent.
                "for i := 0 to 63 do v[i] := w[i] * 2.0; end; return 0.0;",
                &[],
            ),
        ];
        for (body, expected) in cases {
            let src = format!(
                "module m; section a on cells 0..0; function f(x: float, n: int): float \
                 var t: float; v: float[64]; w: float[64]; i: int; begin {body} end; end;"
            );
            let checked = warp_lang::phase1(&src).expect("phase1");
            let p2 = warp_ir::phase2::phase2(
                &checked.module.sections[0].functions[0],
                &checked.sections[0].symbol_tables[0],
                &checked.sections[0].signatures,
            )
            .expect("phase2");
            let mut vf = select(&p2.ir, &p2.loops.pipelinable_blocks());
            allocate(&mut vf, &CellConfig::default()).expect("allocate");
            let b = vf
                .blocks
                .iter()
                .find(|b| b.is_pipeline_loop)
                .expect("pipelined block");
            let g = mdep_graph(b, true);
            // Two loads only ever share a register dependence; a memory
            // dependence needs a store at one end.
            let is_mem = |i: usize| matches!(b.ops[i].opcode, Opcode::Load | Opcode::Store);
            let is_store = |i: usize| b.ops[i].opcode == Opcode::Store;
            let mem: Vec<_> = g
                .edges
                .iter()
                .filter(|e| is_mem(e.from) && is_mem(e.to) && (is_store(e.from) || is_store(e.to)))
                .map(|e| (b.ops[e.from].opcode, b.ops[e.to].opcode, e.kind, e.distance))
                .collect();
            assert_eq!(mem, expected, "{body}\n{:?}", g.edges);
            // The adjacency lists yield exactly what a scan of the edge
            // list yields, in the same order.
            for i in 0..g.n {
                assert!(
                    g.preds_of(i).eq(g.edges.iter().filter(|e| e.to == i)),
                    "{body}"
                );
                assert!(
                    g.succs_of(i).eq(g.edges.iter().filter(|e| e.from == i)),
                    "{body}"
                );
            }
        }
    }

    #[test]
    fn repeated_operand_yields_one_flow_edge() {
        let b = block(vec![
            op2(Opcode::FAdd, 12, r(13), r(14)),
            op2(Opcode::FMul, 15, r(12), r(12)),
        ]);
        let g = mdep_graph(&b, false);
        let flows = g
            .edges
            .iter()
            .filter(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::Flow)
            .count();
        assert_eq!(flows, 1, "{:?}", g.edges);
    }

    #[test]
    fn first_pushed_duplicate_keeps_its_position() {
        // `selt r12, r12, r13` reads r12, r13, r12 (its own destination
        // last). The carried flow on r12 is pushed before the flow from
        // op 0 and again after it; the first push is the one kept.
        let b = VBlock {
            ops: vec![
                op2(Opcode::IAdd, 13, r(20), VOperand::ImmI(1)),
                op2(Opcode::SelT, 12, r(12), r(13)),
            ],
            term: VTerm::Return,
            is_pipeline_loop: true,
        };
        let g = mdep_graph(&b, true);
        let got: Vec<_> = g
            .edges
            .iter()
            .map(|e| (e.from, e.to, e.kind, e.distance))
            .collect();
        assert_eq!(
            got,
            [
                (1, 0, DepKind::Anti, 1),
                (0, 0, DepKind::Output, 1),
                (1, 1, DepKind::Flow, 1),
                (0, 1, DepKind::Flow, 0),
                (1, 1, DepKind::Output, 1),
            ]
        );
    }

    #[test]
    fn queue_order_preserved() {
        let b = block(vec![
            VOp {
                opcode: Opcode::Send(QueueDir::Right),
                dst: VDest::None,
                a: Some(r(12)),
                b: None,
            },
            VOp {
                opcode: Opcode::Send(QueueDir::Right),
                dst: VDest::None,
                a: Some(r(13)),
                b: None,
            },
        ]);
        let g = mdep_graph(&b, false);
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::Order));
    }
}
