//! # warp-lang
//!
//! Front end for the Warp (W2-style) language used by the PLDI 1989
//! paper *Parallel Compilation for a Parallel Machine* (Gross, Zobel &
//! Zolg). This crate implements compiler **phase 1**: lexing, parsing,
//! and semantic checking of a complete module.
//!
//! A Warp *module* consists of *section programs*, each mapped onto a
//! contiguous group of cells of the systolic array; a section contains
//! one or more *functions*, which are the units the parallel compiler
//! translates independently (paper §3.1).
//!
//! ```text
//! module S;
//! section s1 on cells 0..3;
//!   function f(x: float): float
//!   var acc: float; i: int;
//!   begin
//!     acc := 0.0;
//!     for i := 0 to 15 do acc := acc + x * x; end;
//!     send(right, acc);
//!     return acc;
//!   end;
//! end;
//! ```
//!
//! # Example
//!
//! ```
//! use warp_lang::phase1;
//!
//! let src = "module m; section a on cells 0..1;\n\
//!            function f(x: float): float begin return x * 2.0; end; end;";
//! let checked = phase1(src)?;
//! assert_eq!(checked.module.function_count(), 1);
//! # Ok::<(), warp_lang::Phase1Error>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod interp;
pub mod lexer;
pub mod lint;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod span;
pub mod token;

pub use ast::{Direction, Function, Module, ScalarType, Section, Type};
pub use diag::{Diagnostic, DiagnosticBag, Severity};
pub use interp::{AstInterp, EvalError, QueueIo, RtValue};
pub use lint::{lint_function, lint_module};
pub use sema::{CheckedModule, Signature, Symbol, SymbolTable};
pub use span::{LineCol, LineMap, Span};

use std::fmt;

/// Error returned by [`phase1`] when the module has lexical, syntactic,
/// or semantic errors.
#[derive(Debug, Clone)]
pub struct Phase1Error {
    /// All diagnostics, including non-errors, in source order.
    pub diagnostics: DiagnosticBag,
    /// Rendered messages (line:col resolved), one per line.
    pub rendered: String,
}

impl fmt::Display for Phase1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "phase 1 failed with {} error(s):\n{}",
            self.diagnostics.error_count(),
            self.rendered.trim_end()
        )
    }
}

impl std::error::Error for Phase1Error {}

/// Runs compiler phase 1 — parse and semantic check — on `source`.
///
/// On success returns the [`CheckedModule`] (AST + symbol tables +
/// signatures) that later phases consume. This corresponds to the work
/// the paper's master process performs before it sets up the parallel
/// compilation; if it fails, the compilation is aborted (paper §3.2).
///
/// # Errors
///
/// Returns [`Phase1Error`] carrying every diagnostic if the module does
/// not lex, parse, or type-check.
pub fn phase1(source: &str) -> Result<CheckedModule, Phase1Error> {
    phase1_with_warnings(source).map(|(checked, _)| checked)
}

/// Like [`phase1`], but on success also returns the non-fatal
/// diagnostics (warnings and notes) the front end produced, instead of
/// dropping them. Drivers surface the warning count in their
/// compilation summaries.
///
/// # Errors
///
/// Returns [`Phase1Error`] carrying every diagnostic if the module does
/// not lex, parse, or type-check.
pub fn phase1_with_warnings(source: &str) -> Result<(CheckedModule, DiagnosticBag), Phase1Error> {
    let parsed = parser::parse(source);
    let mut diagnostics = parsed.diagnostics;
    let (checked, sema_diags) = sema::check(parsed.module);
    diagnostics.merge_sorted(sema_diags);
    if diagnostics.has_errors() {
        let rendered = diagnostics.render_all_with_source(source);
        Err(Phase1Error {
            diagnostics,
            rendered,
        })
    } else {
        Ok((checked, diagnostics))
    }
}

/// Counts the statements of every function body in `module`, recursing
/// into `if`/`while`/`for` bodies — the statement metric of the
/// phase-1 work units the host simulator converts into 1989-scale
/// times. A driver computes it from the module it already holds.
pub fn statement_count(module: &ast::Module) -> usize {
    fn count_stmts(stmts: &[ast::Stmt]) -> usize {
        stmts
            .iter()
            .map(|s| {
                1 + match s {
                    ast::Stmt::If {
                        arms, else_body, ..
                    } => {
                        arms.iter().map(|a| count_stmts(&a.body)).sum::<usize>()
                            + count_stmts(else_body)
                    }
                    ast::Stmt::While { body, .. } | ast::Stmt::For { body, .. } => {
                        count_stmts(body)
                    }
                    _ => 0,
                }
            })
            .sum()
    }
    module
        .sections
        .iter()
        .flat_map(|s| &s.functions)
        .map(|f| count_stmts(&f.body))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase1_accepts_valid_module() {
        let src = "module m; section a on cells 0..1;\n\
                   function f(x: float): float begin return x * 2.0; end; end;";
        let checked = phase1(src).expect("valid module");
        assert_eq!(checked.module.name, "m");
    }

    #[test]
    fn phase1_rejects_semantic_error_with_rendered_location() {
        let src = "module m; section a on cells 0..1;\n\
                   function f(): float begin return q; end; end;";
        let err = phase1(src).unwrap_err();
        assert!(err.diagnostics.has_errors());
        assert!(err.rendered.contains("error"));
        assert!(err.to_string().contains("phase 1 failed"));
    }

    #[test]
    fn phase1_collects_parse_and_sema_errors_together() {
        // `x :=` is a parse error; `return q` would be a semantic error.
        let src = "module m; section a on cells 0..1;\n\
                   function f(): float var t: float; begin t := ; return q; end; end;";
        let err = phase1(src).unwrap_err();
        assert!(err.diagnostics.error_count() >= 2, "{}", err.rendered);
    }

    #[test]
    fn statement_count_is_positive_and_monotone() {
        let small = "module m; section a on cells 0..1;\n\
                     function f(x: float): float begin return x; end; end;";
        let large = "module m; section a on cells 0..1;\n\
                     function f(x: float): float var i: int; acc: float; begin \
                     acc := 0.0; for i := 0 to 9 do acc := acc + x; end; return acc; end; end;";
        let count = |src| statement_count(&parser::parse(src).module);
        assert!(count(small) > 0);
        assert!(count(large) > count(small));
    }
}
