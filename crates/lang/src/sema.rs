//! Semantic analysis for the Warp language (the rest of compiler
//! phase 1).
//!
//! The checker validates the whole module: section cell ranges, name
//! uniqueness, symbol resolution, and type checking of every statement
//! and expression. As in the paper (§3.2), this phase requires global
//! information about a section — e.g. a type mismatch between a
//! function's return value and a call site can only be found by looking
//! at the complete section program — which is why the paper runs it
//! sequentially before the parallel phases.
//!
//! The result is a [`CheckedModule`]: the AST plus, for every function,
//! a [`SymbolTable`] and for every section a signature map. The IR
//! lowering in `warp-ir` consumes these to rediscover expression types
//! without re-running the full checker.

use crate::ast::*;
use crate::diag::DiagnosticBag;
use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What kind of entity a symbol names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SymbolKind {
    /// A formal parameter.
    Param,
    /// A local variable.
    Var,
}

/// A resolved symbol: a parameter or local variable of one function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Symbol {
    /// The symbol's name.
    pub name: String,
    /// Its declared type.
    pub ty: Type,
    /// Parameter or variable.
    pub kind: SymbolKind,
    /// Declaration site.
    pub span: Span,
}

/// The symbols of one function, keyed by name.
///
/// Warp functions have a single flat scope (parameters + locals); there
/// are no nested blocks with shadowing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SymbolTable {
    symbols: HashMap<String, Symbol>,
    order: Vec<String>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a symbol; returns the previous symbol with the same name
    /// if there was one (a redeclaration).
    pub fn insert(&mut self, sym: Symbol) -> Option<Symbol> {
        let prev = self.symbols.insert(sym.name.clone(), sym.clone());
        if prev.is_none() {
            self.order.push(sym.name);
        }
        prev
    }

    /// Looks up a symbol by name.
    pub fn get(&self, name: &str) -> Option<&Symbol> {
        self.symbols.get(name)
    }

    /// Iterates over symbols in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.order.iter().map(|n| &self.symbols[n])
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// `true` if the table has no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Total data-memory words needed by all symbols (arrays dominate).
    pub fn data_words(&self) -> u64 {
        self.iter().map(|s| s.ty.size_words()).sum()
    }
}

/// The externally visible signature of a function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Signature {
    /// Function name.
    pub name: String,
    /// Parameter types in order.
    pub params: Vec<Type>,
    /// Return type (`None` for procedures).
    pub ret: Option<Type>,
}

/// Per-section check results: signatures of all functions in the
/// section plus each function's symbol table (parallel to
/// `Section::functions`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckedSection {
    /// Signature of every function, keyed by name. Calls may only
    /// target functions in the same section (or builtins).
    pub signatures: HashMap<String, Signature>,
    /// Symbol tables, one per function, in source order.
    pub symbol_tables: Vec<SymbolTable>,
}

/// A fully checked module: AST plus all binding/type information.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckedModule {
    /// The underlying AST.
    pub module: Module,
    /// Check results per section, parallel to `module.sections`.
    pub sections: Vec<CheckedSection>,
}

impl CheckedModule {
    /// The symbol table for function `fi` of section `si`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn symbols(&self, si: usize, fi: usize) -> &SymbolTable {
        &self.sections[si].symbol_tables[fi]
    }
}

/// Type-checks `module`.
///
/// Always returns the (possibly only partially checked) results plus a
/// diagnostic bag; callers should treat the module as uncompilable when
/// [`DiagnosticBag::has_errors`] is true — the paper's master process
/// aborts the parallel compilation in that case.
pub fn check(module: Module) -> (CheckedModule, DiagnosticBag) {
    let parts = module.sections.iter().map(check_section_isolated).collect();
    merge_checked(module, parts)
}

/// Checks one section in isolation, returning its [`CheckedSection`]
/// and the diagnostics it produced. Sections are independent (calls may
/// only target functions in the same section, §3.2), so a section's
/// result depends on its own text alone; [`merge_checked`] recombines
/// the per-section results into the module's, and [`check`] is exactly
/// that composition.
pub fn check_section_isolated(section: &Section) -> (CheckedSection, DiagnosticBag) {
    let mut diags = DiagnosticBag::new();
    let checked = check_section(section, &mut diags);
    (checked, diags)
}

/// Merges per-section results from [`check_section_isolated`] into the
/// checked module: the module-wide checks (cell-range overlap, duplicate
/// section names) run here. Diagnostics come out range errors first,
/// then per section its duplicate-name error followed by its own
/// diagnostics.
///
/// `parts` must be parallel to `module.sections`.
///
/// # Panics
///
/// Panics if `parts` and `module.sections` have different lengths.
pub fn merge_checked(
    module: Module,
    parts: Vec<(CheckedSection, DiagnosticBag)>,
) -> (CheckedModule, DiagnosticBag) {
    assert_eq!(module.sections.len(), parts.len(), "one part per section");
    let mut diags = DiagnosticBag::new();
    check_cell_ranges(&module, &mut diags);
    let mut seen_section_names: HashMap<&str, Span> = HashMap::new();
    let mut sections = Vec::with_capacity(parts.len());
    for (section, (checked, part_diags)) in module.sections.iter().zip(parts) {
        if let Some(&prev) = seen_section_names.get(section.name.as_str()) {
            diags.error(
                section.span,
                format!(
                    "duplicate section name `{}` (first declared at byte {})",
                    section.name, prev.start
                ),
            );
        } else {
            seen_section_names.insert(&section.name, section.span);
        }
        diags.extend(part_diags);
        sections.push(checked);
    }
    drop(seen_section_names);
    (CheckedModule { module, sections }, diags)
}

fn check_cell_ranges(module: &Module, diags: &mut DiagnosticBag) {
    let mut ranges: Vec<(u32, u32, &str, Span)> = module
        .sections
        .iter()
        .map(|s| (s.first_cell, s.last_cell, s.name.as_str(), s.span))
        .collect();
    ranges.sort_by_key(|r| r.0);
    for pair in ranges.windows(2) {
        let (_, a_end, a_name, _) = pair[0];
        let (b_start, _, b_name, b_span) = pair[1];
        if b_start <= a_end {
            diags.error(
                b_span,
                format!("section `{b_name}` overlaps cells with section `{a_name}`"),
            );
        }
    }
}

fn check_section(section: &Section, diags: &mut DiagnosticBag) -> CheckedSection {
    // Collect signatures first: forward calls within a section are legal.
    let mut signatures: HashMap<String, Signature> = HashMap::new();
    for f in &section.functions {
        if builtin_arity(&f.name).is_some() {
            diags.error(f.span, format!("function `{}` shadows a builtin", f.name));
        }
        if signatures.contains_key(&f.name) {
            diags.error(
                f.span,
                format!(
                    "duplicate function `{}` in section `{}`",
                    f.name, section.name
                ),
            );
            continue;
        }
        signatures.insert(
            f.name.clone(),
            Signature {
                name: f.name.clone(),
                params: f.params.iter().map(|p| p.ty.clone()).collect(),
                ret: f.ret.clone(),
            },
        );
    }

    let mut symbol_tables = Vec::with_capacity(section.functions.len());
    for f in &section.functions {
        symbol_tables.push(check_function(f, &signatures, diags));
    }

    CheckedSection {
        signatures,
        symbol_tables,
    }
}

fn check_function(
    f: &Function,
    signatures: &HashMap<String, Signature>,
    diags: &mut DiagnosticBag,
) -> SymbolTable {
    let mut table = SymbolTable::new();
    for p in &f.params {
        if !p.ty.is_scalar() {
            // The calling convention passes arguments in registers, so
            // parameters must be scalar (arrays are local to a function).
            diags.error(
                p.span,
                format!("parameter `{}` has array type `{}`", p.name, p.ty),
            );
        }
        let sym = Symbol {
            name: p.name.clone(),
            ty: p.ty.clone(),
            kind: SymbolKind::Param,
            span: p.span,
        };
        if table.insert(sym).is_some() {
            diags.error(p.span, format!("duplicate parameter `{}`", p.name));
        }
    }
    for v in &f.vars {
        let sym = Symbol {
            name: v.name.clone(),
            ty: v.ty.clone(),
            kind: SymbolKind::Var,
            span: v.span,
        };
        if table.insert(sym).is_some() {
            diags.error(v.span, format!("duplicate declaration of `{}`", v.name));
        }
    }

    if let Some(ret) = &f.ret {
        if !ret.is_scalar() {
            diags.error(
                f.span,
                format!("function `{}` returns an array type", f.name),
            );
        }
    }

    let mut ck = FnChecker {
        table: &table,
        signatures,
        ret: f.ret.clone(),
        diags,
        fn_name: &f.name,
    };
    ck.stmts(&f.body);

    if f.ret.is_some() && !always_returns(&f.body) {
        diags.warning(
            f.span,
            format!(
                "function `{}` may reach end of body without returning a value",
                f.name
            ),
        );
    }

    table
}

/// Conservative all-paths-return analysis.
fn always_returns(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Return { .. } => true,
        Stmt::If {
            arms, else_body, ..
        } => {
            !else_body.is_empty()
                && arms.iter().all(|a| always_returns(&a.body))
                && always_returns(else_body)
        }
        _ => false,
    })
}

struct FnChecker<'a> {
    table: &'a SymbolTable,
    signatures: &'a HashMap<String, Signature>,
    ret: Option<Type>,
    diags: &'a mut DiagnosticBag,
    fn_name: &'a str,
}

impl FnChecker<'_> {
    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Assign { target, value, .. } => {
                let target_ty = self.lvalue_type(target);
                let value_ty = self.expr(value);
                if let (Some(t), Some(v)) = (target_ty, value_ty) {
                    if !assignable(&t, &v) {
                        self.diags.error(
                            value.span,
                            format!("cannot assign `{v}` to location of type `{t}`"),
                        );
                    }
                }
            }
            Stmt::If {
                arms, else_body, ..
            } => {
                for arm in arms {
                    self.expect_bool(&arm.cond, "if condition");
                    self.stmts(&arm.body);
                }
                self.stmts(else_body);
            }
            Stmt::While { cond, body, .. } => {
                self.expect_bool(cond, "while condition");
                self.stmts(body);
            }
            Stmt::For {
                var,
                from,
                to,
                by,
                body,
                span,
                ..
            } => {
                match self.table.get(var) {
                    None => self
                        .diags
                        .error(*span, format!("loop variable `{var}` is not declared")),
                    Some(sym) if sym.ty != Type::int() => self.diags.error(
                        *span,
                        format!("loop variable `{var}` must be `int`, found `{}`", sym.ty),
                    ),
                    Some(_) => {}
                }
                self.expect_int(from, "loop bound");
                self.expect_int(to, "loop bound");
                if let Some(by) = by {
                    self.expect_int(by, "loop step");
                    if by.as_int_lit() == Some(0) {
                        self.diags.error(by.span, "loop step must be nonzero");
                    }
                }
                self.stmts(body);
            }
            Stmt::Call { name, args, span } => {
                // A call statement discards the value; calling a function
                // (not procedure) here is legal but pointless → warning.
                if let Some(ret) = self.check_call(name, args, *span) {
                    if ret.is_some() {
                        self.diags
                            .warning(*span, format!("result of function `{name}` is discarded"));
                    }
                }
            }
            Stmt::Send { value, .. } => {
                if let Some(ty) = self.expr(value) {
                    if !ty.is_scalar() {
                        self.diags.error(value.span, "can only send scalar values");
                    }
                }
            }
            Stmt::Receive { target, .. } => {
                if let Some(ty) = self.lvalue_type(target) {
                    if !ty.is_scalar() {
                        self.diags
                            .error(target.span, "can only receive into a scalar location");
                    }
                }
            }
            Stmt::Return { value, span } => match (self.ret.clone(), value) {
                (Some(expected), Some(e)) => {
                    let expected = &expected;
                    if let Some(actual) = self.expr(e) {
                        if !assignable(expected, &actual) {
                            self.diags.error(
                                e.span,
                                format!(
                                    "function `{}` returns `{expected}` but this value is `{actual}`",
                                    self.fn_name
                                ),
                            );
                        }
                    }
                }
                (Some(expected), None) => self.diags.error(
                    *span,
                    format!(
                        "function `{}` must return a `{expected}` value",
                        self.fn_name
                    ),
                ),
                (None, Some(e)) => self.diags.error(
                    e.span,
                    format!("procedure `{}` cannot return a value", self.fn_name),
                ),
                (None, None) => {}
            },
        }
    }

    fn expect_bool(&mut self, e: &Expr, what: &str) {
        if let Some(ty) = self.expr(e) {
            if ty != Type::bool() {
                self.diags
                    .error(e.span, format!("{what} must be `bool`, found `{ty}`"));
            }
        }
    }

    fn expect_int(&mut self, e: &Expr, what: &str) {
        if let Some(ty) = self.expr(e) {
            if ty != Type::int() {
                self.diags
                    .error(e.span, format!("{what} must be `int`, found `{ty}`"));
            }
        }
    }

    /// Type of an lvalue after applying its subscripts.
    fn lvalue_type(&mut self, lv: &LValue) -> Option<Type> {
        let Some(sym) = self.table.get(&lv.name) else {
            self.diags
                .error(lv.span, format!("undeclared variable `{}`", lv.name));
            // Still check subscripts for nested errors.
            for idx in &lv.indices {
                self.expr(idx);
            }
            return None;
        };
        let ty = sym.ty.clone();
        if lv.indices.len() > ty.dims.len() {
            self.diags.error(
                lv.span,
                format!(
                    "`{}` has {} dimension(s) but {} subscript(s) given",
                    lv.name,
                    ty.dims.len(),
                    lv.indices.len()
                ),
            );
            return None;
        }
        for idx in &lv.indices {
            self.expect_int(idx, "array subscript");
            // Static bounds check for constant subscripts.
            if let Some(c) = idx.as_int_lit() {
                let dim_pos = lv
                    .indices
                    .iter()
                    .position(|i| std::ptr::eq(i, idx))
                    .unwrap();
                let dim = ty.dims[dim_pos];
                if c < 0 || c as u64 >= dim as u64 {
                    self.diags.error(
                        idx.span,
                        format!("constant subscript {c} out of bounds for dimension of size {dim}"),
                    );
                }
            }
        }
        Some(Type {
            scalar: ty.scalar,
            dims: ty.dims[lv.indices.len()..].to_vec(),
        })
    }

    /// Checks a call and returns `Some(return type)` when the callee is
    /// known (builtin or section function), `None` after reporting an
    /// error.
    #[allow(clippy::type_complexity)]
    fn check_call(&mut self, name: &str, args: &[Expr], span: Span) -> Option<Option<Type>> {
        let arg_types: Vec<Option<Type>> = args.iter().map(|a| self.expr(a)).collect();
        if let Some(arity) = builtin_arity(name) {
            if args.len() != arity {
                self.diags.error(
                    span,
                    format!(
                        "builtin `{name}` takes {arity} argument(s), {} given",
                        args.len()
                    ),
                );
                return None;
            }
            for (a, ty) in args.iter().zip(&arg_types) {
                if let Some(ty) = ty {
                    if !ty.is_scalar() || ty.scalar == ScalarType::Bool {
                        self.diags.error(
                            a.span,
                            format!(
                                "builtin `{name}` requires numeric scalar arguments, found `{ty}`"
                            ),
                        );
                    }
                }
            }
            let ret = match name {
                "int" => Type::int(),
                "floor" => Type::int(),
                "abs" | "min" | "max" => {
                    // Polymorphic over int/float: result is float if any arg is.
                    let any_float = arg_types
                        .iter()
                        .flatten()
                        .any(|t| t.scalar == ScalarType::Float);
                    if any_float {
                        Type::float()
                    } else {
                        Type::int()
                    }
                }
                _ => Type::float(),
            };
            return Some(Some(ret));
        }
        let Some(sig) = self.signatures.get(name) else {
            self.diags.error(
                span,
                format!("call to unknown function `{name}` (functions may only call functions in the same section)"),
            );
            return None;
        };
        if sig.params.len() != args.len() {
            self.diags.error(
                span,
                format!(
                    "function `{name}` takes {} argument(s), {} given",
                    sig.params.len(),
                    args.len()
                ),
            );
            return None;
        }
        for ((a, expected), actual) in args.iter().zip(&sig.params).zip(&arg_types) {
            if let Some(actual) = actual {
                if !assignable(expected, actual) {
                    self.diags.error(
                        a.span,
                        format!(
                            "argument type `{actual}` does not match parameter type `{expected}`"
                        ),
                    );
                }
            }
        }
        Some(sig.ret.clone())
    }

    /// Infers the type of an expression, reporting errors along the way.
    fn expr(&mut self, e: &Expr) -> Option<Type> {
        match &e.kind {
            ExprKind::IntLit(_) => Some(Type::int()),
            ExprKind::FloatLit(_) => Some(Type::float()),
            ExprKind::BoolLit(_) => Some(Type::bool()),
            ExprKind::LValue(lv) => self.lvalue_type(lv),
            ExprKind::Unary { op, expr } => {
                let ty = self.expr(expr)?;
                match op {
                    UnOp::Neg => {
                        if ty == Type::int() || ty == Type::float() {
                            Some(ty)
                        } else {
                            self.diags
                                .error(e.span, format!("cannot negate a value of type `{ty}`"));
                            None
                        }
                    }
                    UnOp::Not => {
                        if ty == Type::bool() {
                            Some(ty)
                        } else {
                            self.diags.error(
                                e.span,
                                format!("`not` requires a `bool` operand, found `{ty}`"),
                            );
                            None
                        }
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.expr(lhs);
                let rt = self.expr(rhs);
                let (lt, rt) = (lt?, rt?);
                self.binary_type(*op, &lt, &rt, e.span)
            }
            ExprKind::Call { name, args } => match self.check_call(name, args, e.span)? {
                Some(ret) => Some(ret),
                None => {
                    self.diags.error(
                        e.span,
                        format!("procedure `{name}` does not return a value"),
                    );
                    None
                }
            },
        }
    }

    fn binary_type(&mut self, op: BinOp, lt: &Type, rt: &Type, span: Span) -> Option<Type> {
        if !lt.is_scalar() || !rt.is_scalar() {
            self.diags.error(span, "operators require scalar operands");
            return None;
        }
        let numeric = |t: &Type| t.scalar == ScalarType::Int || t.scalar == ScalarType::Float;
        match op {
            BinOp::And | BinOp::Or => {
                if lt == &Type::bool() && rt == &Type::bool() {
                    Some(Type::bool())
                } else {
                    self.diags.error(
                        span,
                        format!("`{op}` requires `bool` operands, found `{lt}` and `{rt}`"),
                    );
                    None
                }
            }
            BinOp::Eq | BinOp::Ne => {
                if (numeric(lt) && numeric(rt)) || (lt == &Type::bool() && rt == &Type::bool()) {
                    Some(Type::bool())
                } else {
                    self.diags
                        .error(span, format!("cannot compare `{lt}` with `{rt}`"));
                    None
                }
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if numeric(lt) && numeric(rt) {
                    Some(Type::bool())
                } else {
                    self.diags
                        .error(span, format!("cannot order `{lt}` and `{rt}`"));
                    None
                }
            }
            BinOp::IDiv | BinOp::Mod => {
                if lt == &Type::int() && rt == &Type::int() {
                    Some(Type::int())
                } else {
                    self.diags.error(
                        span,
                        format!("`{op}` requires `int` operands, found `{lt}` and `{rt}`"),
                    );
                    None
                }
            }
            BinOp::Div => {
                if numeric(lt) && numeric(rt) {
                    Some(Type::float())
                } else {
                    self.diags.error(
                        span,
                        format!("`/` requires numeric operands, found `{lt}` and `{rt}`"),
                    );
                    None
                }
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                if numeric(lt) && numeric(rt) {
                    if lt.scalar == ScalarType::Float || rt.scalar == ScalarType::Float {
                        Some(Type::float())
                    } else {
                        Some(Type::int())
                    }
                } else {
                    self.diags.error(
                        span,
                        format!("`{op}` requires numeric operands, found `{lt}` and `{rt}`"),
                    );
                    None
                }
            }
        }
    }
}

/// `true` if a value of type `from` may be stored in a location of type
/// `to`: exact match, or the implicit `int` → `float` promotion.
pub fn assignable(to: &Type, from: &Type) -> bool {
    if to == from {
        return true;
    }
    to.is_scalar()
        && from.is_scalar()
        && to.scalar == ScalarType::Float
        && from.scalar == ScalarType::Int
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> DiagnosticBag {
        let out = parse(src);
        assert!(
            !out.diagnostics.has_errors(),
            "parse failed: {:?}",
            out.diagnostics
        );
        let (_, diags) = check(out.module);
        diags
    }

    fn wrap(body: &str) -> String {
        format!(
            "module m; section a on cells 0..0; function f(x: float, n: int): float \
             var t: float; v: float[8]; i: int; b: bool; begin {body} end; end;"
        )
    }

    /// Per-section isolated checking merged via `merge_checked` must be
    /// indistinguishable from the whole-module `check`.
    fn assert_merged_matches(src: &str) {
        let module = parse(src).module;
        let (seq_checked, seq_diags) = check(module.clone());
        let parts: Vec<_> = module.sections.iter().map(check_section_isolated).collect();
        let (par_checked, par_diags) = merge_checked(module, parts);
        assert_eq!(
            par_checked, seq_checked,
            "checked module mismatch on {src:?}"
        );
        assert_eq!(
            par_diags.iter().collect::<Vec<_>>(),
            seq_diags.iter().collect::<Vec<_>>(),
            "diagnostics mismatch on {src:?}"
        );
    }

    #[test]
    fn merge_checked_matches_sequential_check() {
        // Clean multi-section module.
        assert_merged_matches(
            "module m;\n\
             section a on cells 0..1; function f(x: float): float begin return x; end; end;\n\
             section b on cells 2..3; function g() begin f2(); end; function f2() begin return; end; end;",
        );
        // Duplicate section names + overlapping cells + per-function
        // warnings: the module-wide and per-section diagnostics must
        // interleave exactly as `check` emits them.
        assert_merged_matches(
            "module m;\n\
             section a on cells 0..1; function f(): float begin return 1.0; end; end;\n\
             section a on cells 1..2; function g(x: int): int var u: int; begin return x; end; end;",
        );
        // Errors inside functions (undeclared variable, bad call).
        assert_merged_matches(&wrap("zz := 1.0; return x;"));
        // The order itself: range errors first, then per section its
        // duplicate-name error followed by its own diagnostics.
        let module = parse(
            "module m;\n\
             section a on cells 0..1; function f() begin p := 1; end; end;\n\
             section a on cells 1..2; function g() begin q := 1; end; end;",
        )
        .module;
        let messages: Vec<String> = check(module).1.iter().map(|d| d.message.clone()).collect();
        assert_eq!(
            messages,
            [
                "section `a` overlaps cells with section `a`",
                "undeclared variable `p`",
                "duplicate section name `a` (first declared at byte 10)",
                "undeclared variable `q`",
            ]
        );
    }

    #[test]
    fn clean_program_checks() {
        let d = check_src(&wrap("t := x * 2.0; v[n] := t; return v[0] + float(n);"));
        assert!(!d.has_errors(), "{d:?}");
    }

    #[test]
    fn undeclared_variable() {
        let d = check_src(&wrap("zz := 1.0; return x;"));
        assert!(d.has_errors());
    }

    #[test]
    fn int_promotes_to_float() {
        let d = check_src(&wrap("t := n; return t;"));
        assert!(!d.has_errors(), "{d:?}");
    }

    #[test]
    fn float_does_not_demote_to_int() {
        let d = check_src(&wrap("i := x; return x;"));
        assert!(d.has_errors());
    }

    #[test]
    fn condition_must_be_bool() {
        let d = check_src(&wrap("if n then t := 1.0; end; return t;"));
        assert!(d.has_errors());
        let d = check_src(&wrap("if n > 0 then t := 1.0; end; return t;"));
        assert!(!d.has_errors(), "{d:?}");
    }

    #[test]
    fn loop_var_must_be_declared_int() {
        let d = check_src(&wrap("for t := 0 to 3 do i := 0; end; return x;"));
        assert!(d.has_errors());
        let d = check_src(&wrap("for i := 0 to 3 do t := 0.0; end; return x;"));
        assert!(!d.has_errors(), "{d:?}");
    }

    #[test]
    fn zero_step_rejected() {
        let d = check_src(&wrap("for i := 0 to 3 by 0 do t := 0.0; end; return x;"));
        assert!(d.has_errors());
    }

    #[test]
    fn subscript_count_checked() {
        let d = check_src(&wrap("v[0][1] := 1.0; return x;"));
        assert!(d.has_errors());
    }

    #[test]
    fn constant_subscript_bounds_checked() {
        let d = check_src(&wrap("v[8] := 1.0; return x;"));
        assert!(d.has_errors());
        let d = check_src(&wrap("v[7] := 1.0; return x;"));
        assert!(!d.has_errors(), "{d:?}");
    }

    #[test]
    fn idiv_requires_ints() {
        let d = check_src(&wrap("t := x div 2; return t;"));
        assert!(d.has_errors());
        let d = check_src(&wrap("i := n div 2; return x;"));
        assert!(!d.has_errors(), "{d:?}");
    }

    #[test]
    fn slash_yields_float() {
        let d = check_src(&wrap("i := n / 2; return x;"));
        assert!(d.has_errors()); // float can't be stored into int
        let d = check_src(&wrap("t := n / 2; return x;"));
        assert!(!d.has_errors(), "{d:?}");
    }

    #[test]
    fn return_type_checked() {
        let d = check_src(
            "module m; section a on cells 0..0; function f(): int begin return true; end; end;",
        );
        assert!(d.has_errors());
    }

    #[test]
    fn missing_return_warns() {
        let d = check_src(
            "module m; section a on cells 0..0; function f(): int var i: int; begin i := 1; end; end;",
        );
        assert!(!d.has_errors());
        assert!(!d.is_empty());
    }

    #[test]
    fn call_within_section_ok_cross_section_error() {
        let ok = check_src(
            "module m; section a on cells 0..0; \
             function g(y: float): float begin return y; end; \
             function f(): float begin return g(1.0); end; end;",
        );
        assert!(!ok.has_errors(), "{ok:?}");
        let bad = check_src(
            "module m; \
             section a on cells 0..0; function g(y: float): float begin return y; end; end; \
             section b on cells 1..1; function f(): float begin return g(1.0); end; end;",
        );
        assert!(bad.has_errors());
    }

    #[test]
    fn builtin_calls() {
        let d = check_src(&wrap(
            "t := sqrt(x) + min(x, 2.0); i := floor(x); return t;",
        ));
        assert!(!d.has_errors(), "{d:?}");
        let d = check_src(&wrap("t := sqrt(x, x); return t;"));
        assert!(d.has_errors());
    }

    #[test]
    fn overlapping_cell_ranges_rejected() {
        let d = check_src(
            "module m; \
             section a on cells 0..4; function f() begin return; end; end; \
             section b on cells 3..9; function g() begin return; end; end;",
        );
        assert!(d.has_errors());
    }

    #[test]
    fn duplicate_names_rejected() {
        let d = check_src(
            "module m; section a on cells 0..0; \
             function f() begin return; end; function f() begin return; end; end;",
        );
        assert!(d.has_errors());

        let d = check_src(
            "module m; section a on cells 0..1; function f(x: int, x: int) begin return; end; end;",
        );
        assert!(d.has_errors());
    }

    #[test]
    fn arity_mismatch() {
        let d = check_src(
            "module m; section a on cells 0..0; \
             function g(y: float): float begin return y; end; \
             function f(): float begin return g(1.0, 2.0); end; end;",
        );
        assert!(d.has_errors());
    }

    #[test]
    fn procedure_in_expression_is_error() {
        let d = check_src(
            "module m; section a on cells 0..0; \
             function p() begin return; end; \
             function f(): float var t: float; begin t := p(); return t; end; end;",
        );
        assert!(d.has_errors());
    }

    #[test]
    fn discarded_function_result_warns() {
        let d = check_src(
            "module m; section a on cells 0..0; \
             function g(): float begin return 1.0; end; \
             function f() begin g(); return; end; end;",
        );
        assert!(!d.has_errors());
        assert!(!d.is_empty());
    }

    #[test]
    fn send_receive_types() {
        let d = check_src(&wrap("send(right, x + 1.0); receive(left, t); return t;"));
        assert!(!d.has_errors(), "{d:?}");
        let d = check_src(&wrap("send(right, v); return x;"));
        assert!(d.has_errors());
    }

    #[test]
    fn symbol_table_data_words() {
        let out = parse(&wrap("return x;"));
        let (checked, d) = check(out.module);
        assert!(!d.has_errors());
        // x(1) + n(1) + t(1) + v(8) + i(1) + b(1) = 13 words
        assert_eq!(checked.symbols(0, 0).data_words(), 13);
    }
}
