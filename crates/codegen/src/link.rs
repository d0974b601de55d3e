//! Phase 4: assembly, linking, and download-module generation.
//!
//! The section master collects one [`FunctionImage`] per function and
//! links them: static data regions are laid out in cell memory,
//! function-local [`Operand::Addr`] references are rebased, and call
//! relocations are resolved to function indices. The master then
//! combines the section images and generates the host I/O driver,
//! producing the final [`ModuleImage`] (paper §3.2, phase 4 — performed
//! sequentially).

use serde::{Deserialize, Serialize};
use warp_target::config::CellConfig;
use warp_target::isa::{BranchOp, Operand};
use warp_target::program::{FunctionImage, ModuleImage, SectionImage};

/// Linking errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// A call references a function not present in the section.
    UnresolvedCall {
        /// Calling function.
        caller: String,
        /// Missing callee.
        callee: String,
    },
    /// The section's code exceeds instruction memory.
    CodeTooLarge {
        /// Words needed.
        needed: u64,
        /// Words available.
        available: u32,
    },
    /// The section's data exceeds data memory.
    DataTooLarge {
        /// Words needed.
        needed: u64,
        /// Words available.
        available: u32,
    },
    /// Recursion detected (static storage cannot support it).
    Recursive {
        /// A function on the cycle.
        name: String,
    },
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::UnresolvedCall { caller, callee } => {
                write!(f, "unresolved call from `{caller}` to `{callee}`")
            }
            LinkError::CodeTooLarge { needed, available } => {
                write!(
                    f,
                    "code needs {needed} words, instruction memory has {available}"
                )
            }
            LinkError::DataTooLarge { needed, available } => {
                write!(f, "data needs {needed} words, data memory has {available}")
            }
            LinkError::Recursive { name } => {
                write!(f, "recursive call cycle through `{name}` (static storage)")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Work counters for phase 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkWork {
    /// Instruction words scanned while rebasing.
    pub words_scanned: usize,
    /// Address operands rebased.
    pub addrs_rebased: usize,
    /// Call relocations resolved.
    pub calls_resolved: usize,
}

/// The data-layout plan for one section: a prefix sum over the
/// per-function data sizes gives each function's data base, which
/// [`resolve_function`] rebases onto.
struct SectionPlan {
    /// Base address of each function's data region, in function order.
    data_bases: Vec<u32>,
    /// Total data words of the section.
    data_words: u32,
    /// Callee-name → function-index map for call resolution.
    name_to_index: std::collections::HashMap<String, u32>,
}

/// Computes the section's data layout and checks its memory budgets.
///
/// # Errors
///
/// Returns [`LinkError::DataTooLarge`] / [`LinkError::CodeTooLarge`]
/// when the section exceeds cell memory (checked in that order).
fn plan_section(
    functions: &[FunctionImage],
    config: &CellConfig,
) -> Result<SectionPlan, LinkError> {
    let mut data_bases = Vec::with_capacity(functions.len());
    let mut next = 0u32;
    for f in functions {
        data_bases.push(next);
        next += f.data_words;
    }
    if u64::from(next) > u64::from(config.data_mem_words) {
        return Err(LinkError::DataTooLarge {
            needed: u64::from(next),
            available: config.data_mem_words,
        });
    }
    let code_words: u64 = functions.iter().map(|f| u64::from(f.code_words())).sum();
    if code_words > u64::from(config.inst_mem_words) {
        return Err(LinkError::CodeTooLarge {
            needed: code_words,
            available: config.inst_mem_words,
        });
    }
    let name_to_index = functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i as u32))
        .collect();
    Ok(SectionPlan {
        data_bases,
        data_words: next,
        name_to_index,
    })
}

/// Rebases one function's address operands onto its data base and
/// resolves its call relocations against the section's name map.
///
/// Returns the function's callees (its row of the section call graph)
/// plus the work counters for this function.
///
/// # Errors
///
/// Returns [`LinkError::UnresolvedCall`] for a callee missing from the
/// plan's name map; relocations are processed in order, so the first
/// bad one wins.
fn resolve_function(
    f: &mut FunctionImage,
    base: u32,
    plan_names: &std::collections::HashMap<String, u32>,
) -> Result<(Vec<u32>, LinkWork), LinkError> {
    let mut work = LinkWork::default();
    for w in &mut f.code {
        work.words_scanned += 1;
        for fu in warp_target::fu::FuKind::ALL {
            if fu == warp_target::fu::FuKind::Branch {
                continue;
            }
            // Rewrite in place via a take/modify/put on the slot.
            if let Some(op) = w.slot(fu).copied() {
                let mut op = op;
                let mut changed = false;
                for o in [&mut op.a, &mut op.b] {
                    if let Some(Operand::Addr(a)) = o {
                        *o = Some(Operand::ImmI((base + *a) as i32));
                        changed = true;
                        work.addrs_rebased += 1;
                    }
                }
                if changed {
                    w.replace(fu, op);
                }
            }
        }
    }
    let mut callees = Vec::new();
    let relocs = std::mem::take(&mut f.call_relocs);
    for r in relocs {
        let Some(&target) = plan_names.get(&r.callee) else {
            return Err(LinkError::UnresolvedCall {
                caller: f.name.clone(),
                callee: r.callee,
            });
        };
        f.code[r.word as usize].branch = Some(BranchOp::Call(target));
        callees.push(target);
        work.calls_resolved += 1;
    }
    Ok((callees, work))
}

/// Closes a section's link: whole-section recursion check, entry
/// selection, and [`SectionImage`] construction from resolved
/// functions. `call_graph[fi]` must be the callee list
/// [`resolve_function`] returned for function `fi`.
///
/// # Errors
///
/// Returns [`LinkError::Recursive`] if the call graph has a cycle.
fn finish_section(
    section_name: &str,
    first_cell: u32,
    last_cell: u32,
    functions: Vec<FunctionImage>,
    plan: SectionPlan,
    call_graph: &[Vec<u32>],
) -> Result<SectionImage, LinkError> {
    // Reject recursion: static data areas cannot support it.
    if let Some(cycle_node) = find_cycle(call_graph) {
        return Err(LinkError::Recursive {
            name: functions[cycle_node].name.clone(),
        });
    }
    let entry = functions.iter().position(|f| f.name == "main").unwrap_or(0);
    Ok(SectionImage {
        name: section_name.to_string(),
        first_cell,
        last_cell,
        functions,
        data_bases: plan.data_bases,
        data_words: plan.data_words,
        entry,
    })
}

/// Links the functions of one section into a [`SectionImage`]: plan
/// the data layout, resolve every function in order, then finish the
/// section.
///
/// `entry` rules: the function named `main` if present, else index 0.
///
/// # Errors
///
/// Returns [`LinkError`] for unresolved calls, memory overflow, or
/// recursion.
pub fn link_section(
    section_name: &str,
    first_cell: u32,
    last_cell: u32,
    mut functions: Vec<FunctionImage>,
    config: &CellConfig,
) -> Result<(SectionImage, LinkWork), LinkError> {
    let plan = plan_section(&functions, config)?;
    let mut work = LinkWork::default();
    let mut call_graph: Vec<Vec<u32>> = Vec::with_capacity(functions.len());
    for (fi, f) in functions.iter_mut().enumerate() {
        let (callees, w) = resolve_function(f, plan.data_bases[fi], &plan.name_to_index)?;
        call_graph.push(callees);
        work.words_scanned += w.words_scanned;
        work.addrs_rebased += w.addrs_rebased;
        work.calls_resolved += w.calls_resolved;
    }
    let image = finish_section(
        section_name,
        first_cell,
        last_cell,
        functions,
        plan,
        &call_graph,
    )?;
    Ok((image, work))
}

fn find_cycle(graph: &[Vec<u32>]) -> Option<usize> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        White,
        Gray,
        Black,
    }
    fn dfs(n: usize, graph: &[Vec<u32>], state: &mut [State]) -> bool {
        state[n] = State::Gray;
        for &m in &graph[n] {
            match state[m as usize] {
                State::Gray => return true,
                State::White => {
                    if dfs(m as usize, graph, state) {
                        return true;
                    }
                }
                State::Black => {}
            }
        }
        state[n] = State::Black;
        false
    }
    let mut state = vec![State::White; graph.len()];
    (0..graph.len()).find(|&n| state[n] == State::White && dfs(n, graph, &mut state))
}

/// Generates the host-side I/O driver for the module (phase 4). In the
/// real system this was C code that moved data between the host and the
/// Warp interface unit; here it is a deterministic textual artifact
/// whose size scales with the module interface.
pub fn generate_io_driver(name: &str, sections: &[SectionImage]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "/* I/O driver for module {name} (generated) */");
    for sec in sections {
        let _ = writeln!(
            s,
            "void download_{}(void) {{ /* cells {}..{}: {} code words, {} data words */ }}",
            sec.name,
            sec.first_cell,
            sec.last_cell,
            sec.code_words(),
            sec.data_words
        );
        for f in &sec.functions {
            let _ = writeln!(
                s,
                "void invoke_{}_{}(float *args) {{ /* {} params */ }}",
                sec.name, f.name, f.param_count
            );
        }
    }
    s
}

/// Combines linked sections into the final downloadable module image.
pub fn assemble_module(name: &str, sections: Vec<SectionImage>) -> ModuleImage {
    let io_driver = generate_io_driver(name, &sections);
    ModuleImage {
        name: name.to_string(),
        section_images: sections,
        io_driver,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_target::fu::FuKind;
    use warp_target::isa::{Op, Opcode, Reg};
    use warp_target::program::CallReloc;
    use warp_target::word::InstructionWord;

    fn img(name: &str, data_words: u32, code: Vec<InstructionWord>) -> FunctionImage {
        FunctionImage {
            name: name.into(),
            code,
            data_words,
            param_count: 0,
            returns_value: false,
            call_relocs: vec![],
        }
    }

    fn load_addr_word(addr: u32) -> InstructionWord {
        let mut w = InstructionWord::new();
        w.place(
            FuKind::Mem,
            Op::new1(Opcode::Load, Reg(12), Operand::Addr(addr)),
        )
        .unwrap();
        w
    }

    #[test]
    fn data_bases_are_cumulative_and_addrs_rebased() {
        let f1 = img("a", 10, vec![load_addr_word(3)]);
        let f2 = img("b", 5, vec![load_addr_word(0)]);
        let (sec, work) = link_section("s", 0, 0, vec![f1, f2], &CellConfig::default()).unwrap();
        assert_eq!(sec.data_bases, vec![0, 10]);
        assert_eq!(sec.data_words, 15);
        assert_eq!(work.addrs_rebased, 2);
        // f2's load now points at absolute 10.
        let op = sec.functions[1].code[0].slot(FuKind::Mem).unwrap();
        assert_eq!(op.a, Some(Operand::ImmI(10)));
        assert!(sec.functions.iter().all(|f| f.is_linked()));
    }

    #[test]
    fn calls_resolved_by_name() {
        let mut f1 = img(
            "caller",
            0,
            vec![InstructionWord::branch_only(BranchOp::Call(u32::MAX))],
        );
        f1.call_relocs.push(CallReloc {
            word: 0,
            callee: "callee".into(),
        });
        let f2 = img(
            "callee",
            0,
            vec![InstructionWord::branch_only(BranchOp::Ret)],
        );
        let (sec, work) = link_section("s", 0, 0, vec![f1, f2], &CellConfig::default()).unwrap();
        assert_eq!(work.calls_resolved, 1);
        assert_eq!(sec.functions[0].code[0].branch, Some(BranchOp::Call(1)));
    }

    #[test]
    fn unresolved_call_is_error() {
        let mut f1 = img(
            "caller",
            0,
            vec![InstructionWord::branch_only(BranchOp::Call(u32::MAX))],
        );
        f1.call_relocs.push(CallReloc {
            word: 0,
            callee: "ghost".into(),
        });
        let err = link_section("s", 0, 0, vec![f1], &CellConfig::default()).unwrap_err();
        assert!(matches!(err, LinkError::UnresolvedCall { .. }));
    }

    #[test]
    fn recursion_rejected() {
        let mut f1 = img(
            "a",
            0,
            vec![InstructionWord::branch_only(BranchOp::Call(u32::MAX))],
        );
        f1.call_relocs.push(CallReloc {
            word: 0,
            callee: "b".into(),
        });
        let mut f2 = img(
            "b",
            0,
            vec![InstructionWord::branch_only(BranchOp::Call(u32::MAX))],
        );
        f2.call_relocs.push(CallReloc {
            word: 0,
            callee: "a".into(),
        });
        let err = link_section("s", 0, 0, vec![f1, f2], &CellConfig::default()).unwrap_err();
        assert!(matches!(err, LinkError::Recursive { .. }));
    }

    #[test]
    fn data_overflow_detected() {
        let f1 = img("big", 1 << 20, vec![]);
        let err = link_section("s", 0, 0, vec![f1], &CellConfig::default()).unwrap_err();
        assert!(matches!(err, LinkError::DataTooLarge { .. }));
    }

    #[test]
    fn entry_prefers_main() {
        let f1 = img("helper", 0, vec![]);
        let f2 = img("main", 0, vec![]);
        let (sec, _) = link_section("s", 0, 0, vec![f1, f2], &CellConfig::default()).unwrap();
        assert_eq!(sec.entry, 1);
    }

    #[test]
    fn io_driver_mentions_sections_and_functions() {
        let f1 = img("foo", 0, vec![]);
        let (sec, _) = link_section("sec1", 0, 3, vec![f1], &CellConfig::default()).unwrap();
        let m = assemble_module("mod", vec![sec]);
        assert!(m.io_driver.contains("download_sec1"));
        assert!(m.io_driver.contains("invoke_sec1_foo"));
        assert_eq!(m.name, "mod");
    }
}
