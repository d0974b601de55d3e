//! Recursive-descent parser for the Warp (W2-style) language.
//!
//! Grammar (EBNF, `[]` optional, `{}` repetition):
//!
//! ```text
//! module   = "module" ident ";" section { section } EOF
//! section  = "section" ident "on" "cells" int ".." int ";"
//!            function { function } "end" ";"
//! function = "function" ident "(" [ param { "," param } ] ")"
//!            [ ":" type ] [ vardecls ] "begin" { stmt } "end" ";"
//! param    = ident ":" type
//! vardecls = "var" ( ident { "," ident } ":" type ";" ) { ... }
//! type     = ( "int" | "float" | "bool" ) { "[" int "]" }
//! stmt     = if | while | for | send | receive | return | assign | call
//! expr     = or-expr with Pascal-like precedence
//! ```
//!
//! The parser recovers from errors by synchronizing to the next
//! semicolon or block keyword, so a single typo does not hide every
//! later diagnostic (the paper's compiler likewise reports all phase-1
//! errors before aborting).

use crate::ast::*;
use crate::diag::DiagnosticBag;
use crate::lexer::{lex, LexOutput};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Result of parsing: a best-effort module plus all diagnostics.
///
/// If [`ParseOutput::diagnostics`] contains errors the module may be
/// missing sections, functions or statements that failed to parse.
#[derive(Debug, Clone)]
pub struct ParseOutput {
    /// The parsed module. Present even when errors occurred, so tools
    /// can still inspect the recognizable parts.
    pub module: Module,
    /// Lexical and syntactic diagnostics.
    pub diagnostics: DiagnosticBag,
}

/// Parses `source` into a [`Module`], returning the module and any
/// diagnostics. This is compiler **phase 1** (minus semantic checking,
/// which lives in [`crate::sema`]).
pub fn parse(source: &str) -> ParseOutput {
    parse_lexed(lex(source))
}

/// [`parse`] for a caller that already holds the lexed source (and
/// wants its token count without lexing twice).
pub fn parse_lexed(lexed: LexOutput) -> ParseOutput {
    let mut parser = Parser {
        tokens: lexed.tokens,
        pos: 0,
        diagnostics: lexed.diagnostics,
    };
    let module = parser.module();
    ParseOutput {
        module,
        diagnostics: parser.diagnostics,
    }
}

// ---- split parsing ------------------------------------------------------
//
// The token stream can be split at every `section` keyword and the
// pieces parsed independently, so a caller can treat each section's
// parse as a unit of its own. On a module that parses cleanly this is
// exact: `section` is only legal at a section start, so a clean
// sequential parse consumes exactly the tokens of each piece for each
// section. Error recovery *can* consume a `section` token (crossing a
// piece boundary), so callers must fall back to the sequential
// [`parse`] whenever the combined diagnostics contain errors.

/// A token stream split at every `section` keyword for piece-wise
/// parsing. Produced by [`split_tokens`].
#[derive(Debug, Clone)]
pub struct TokenPieces {
    /// Everything before the first `section` token (the module header
    /// plus any stray tokens), terminated by a synthesized EOF.
    pub header: Vec<Token>,
    /// One piece per `section` token: the token through everything
    /// before the next `section` (trailing junk included), terminated
    /// by a synthesized EOF (the last piece keeps the real one).
    pub sections: Vec<Vec<Token>>,
}

/// Splits an EOF-terminated token stream at every `section` keyword.
pub fn split_tokens(tokens: Vec<Token>) -> TokenPieces {
    let starts: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t.kind, TokenKind::Section))
        .map(|(i, _)| i)
        .collect();
    if starts.is_empty() {
        return TokenPieces {
            header: tokens,
            sections: Vec::new(),
        };
    }
    let mut pieces: Vec<Vec<Token>> = Vec::with_capacity(starts.len());
    let mut rest = tokens;
    // Split back-to-front so each boundary is a cheap split_off; the
    // prefix is re-terminated with a synthesized EOF at the start of
    // the `section` keyword just split away, so the preceding piece's
    // parser stops exactly where the sequential parser would meet the
    // next section.
    for &s in starts.iter().rev() {
        let piece = rest.split_off(s);
        let eof_at = piece[0].span.start;
        rest.push(Token::new(TokenKind::Eof, Span::point(eof_at)));
        pieces.push(piece);
    }
    pieces.reverse();
    TokenPieces {
        header: rest,
        sections: pieces,
    }
}

/// Result of parsing a header piece via [`parse_header_piece`].
#[derive(Debug, Clone)]
pub struct HeaderParse {
    /// The module's name (`"<error>"` when missing).
    pub name: String,
    /// Span of the first token — the module span's start anchor.
    pub start: Span,
    /// Syntax diagnostics from the header tokens.
    pub diagnostics: DiagnosticBag,
}

/// Parses a [`TokenPieces::header`] piece: `module NAME ;` plus an
/// error for every stray token before the first section, exactly as the
/// sequential parser reports them.
pub fn parse_header_piece(header: Vec<Token>) -> HeaderParse {
    let mut p = Parser {
        tokens: header,
        pos: 0,
        diagnostics: DiagnosticBag::new(),
    };
    let start = p.peek_span();
    p.expect(&TokenKind::Module);
    let name = p
        .expect_ident("module")
        .map(|(n, _)| n)
        .unwrap_or_else(|| "<error>".to_string());
    p.expect(&TokenKind::Semicolon);
    while !p.at_eof() {
        // Only stray tokens can appear here: the split gave every
        // `section` keyword its own piece. This mirrors the sequential
        // module loop's non-`section` arm.
        p.diagnostics.error(
            p.peek_span(),
            format!("expected `section`, found {}", p.peek().describe()),
        );
        p.recover();
    }
    HeaderParse {
        name,
        start,
        diagnostics: p.diagnostics,
    }
}

/// Result of parsing one section piece via [`parse_section_piece`].
#[derive(Debug, Clone)]
pub struct PieceParse {
    /// The sections recognized in the piece (one, for a clean piece).
    pub sections: Vec<Section>,
    /// Syntax diagnostics from the piece's tokens.
    pub diagnostics: DiagnosticBag,
}

/// Parses one [`TokenPieces::sections`] piece — a `section` keyword
/// through everything before the next one — by running the sequential
/// parser's module loop over the piece's tokens.
pub fn parse_section_piece(tokens: Vec<Token>) -> PieceParse {
    let mut p = Parser {
        tokens,
        pos: 0,
        diagnostics: DiagnosticBag::new(),
    };
    let mut sections = Vec::new();
    while !p.at_eof() {
        if matches!(p.peek(), TokenKind::Section) {
            if let Some(s) = p.section() {
                sections.push(s);
            }
        } else {
            p.diagnostics.error(
                p.peek_span(),
                format!("expected `section`, found {}", p.peek().describe()),
            );
            p.recover();
        }
    }
    PieceParse {
        sections,
        diagnostics: p.diagnostics,
    }
}

/// Reassembles piece-parse results into a [`ParseOutput`] with the same
/// module and the same diagnostic order as the sequential [`parse`]:
/// lexer diagnostics first, then header diagnostics, then each piece's
/// diagnostics in source order. `eof_span` is the real EOF token's span
/// (the module span's end anchor).
pub fn assemble_pieces(
    lex_diagnostics: DiagnosticBag,
    header: HeaderParse,
    pieces: Vec<PieceParse>,
    eof_span: Span,
) -> ParseOutput {
    let mut diagnostics = lex_diagnostics;
    diagnostics.extend(header.diagnostics);
    let mut sections = Vec::new();
    for piece in pieces {
        sections.extend(piece.sections);
        diagnostics.extend(piece.diagnostics);
    }
    if sections.is_empty() {
        diagnostics.error(header.start, "module contains no section programs");
    }
    let module = Module {
        name: header.name,
        sections,
        span: header.start.merge(eof_span),
    };
    ParseOutput {
        module,
        diagnostics,
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diagnostics: DiagnosticBag,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn bump(&mut self) -> Token {
        let tok = self.tokens[self.pos].clone();
        if !matches!(tok.kind, TokenKind::Eof) {
            self.pos += 1;
        }
        tok
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Option<Token> {
        if self.peek() == kind {
            Some(self.bump())
        } else {
            self.diagnostics.error(
                self.peek_span(),
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek().describe()
                ),
            );
            None
        }
    }

    fn expect_ident(&mut self, what: &str) -> Option<(String, Span)> {
        if let TokenKind::Ident(name) = self.peek() {
            let name = name.clone();
            let tok = self.bump();
            Some((name, tok.span))
        } else {
            self.diagnostics.error(
                self.peek_span(),
                format!("expected {what} name, found {}", self.peek().describe()),
            );
            None
        }
    }

    fn expect_int(&mut self, what: &str) -> Option<i64> {
        if let TokenKind::IntLit(v) = *self.peek() {
            self.bump();
            Some(v)
        } else {
            self.diagnostics.error(
                self.peek_span(),
                format!("expected {what}, found {}", self.peek().describe()),
            );
            None
        }
    }

    /// [`Parser::synchronize`], but guaranteed to make progress: if the
    /// current token is itself a stop token the caller cannot handle,
    /// it is consumed. Use in loops that would otherwise spin.
    fn recover(&mut self) {
        let before = self.pos;
        self.synchronize();
        if self.pos == before && !self.at_eof() {
            self.bump();
        }
    }

    /// Skips tokens until a likely statement/declaration boundary.
    fn synchronize(&mut self) {
        while !self.at_eof() {
            match self.peek() {
                TokenKind::Semicolon => {
                    self.bump();
                    return;
                }
                TokenKind::End
                | TokenKind::Function
                | TokenKind::Section
                | TokenKind::Begin
                | TokenKind::Else
                | TokenKind::Elsif => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ---- declarations -------------------------------------------------

    fn module(&mut self) -> Module {
        let start = self.peek_span();
        self.expect(&TokenKind::Module);
        let name = self
            .expect_ident("module")
            .map(|(n, _)| n)
            .unwrap_or_else(|| "<error>".to_string());
        self.expect(&TokenKind::Semicolon);

        let mut sections = Vec::new();
        while !self.at_eof() {
            if matches!(self.peek(), TokenKind::Section) {
                if let Some(s) = self.section() {
                    sections.push(s);
                }
            } else {
                self.diagnostics.error(
                    self.peek_span(),
                    format!("expected `section`, found {}", self.peek().describe()),
                );
                self.recover();
            }
        }
        if sections.is_empty() {
            self.diagnostics
                .error(start, "module contains no section programs");
        }
        let end = self.peek_span();
        Module {
            name,
            sections,
            span: start.merge(end),
        }
    }

    fn section(&mut self) -> Option<Section> {
        let start = self.peek_span();
        self.expect(&TokenKind::Section)?;
        let (name, _) = self.expect_ident("section")?;
        self.expect(&TokenKind::On)?;
        self.expect(&TokenKind::Cells)?;
        let first = self.expect_int("first cell index")?;
        self.expect(&TokenKind::DotDot)?;
        let last = self.expect_int("last cell index")?;
        self.expect(&TokenKind::Semicolon)?;

        if first < 0 || last < first {
            self.diagnostics.error(
                start,
                format!("invalid cell range {first}..{last}: must be ascending and non-negative"),
            );
        }

        let mut functions = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Function => {
                    if let Some(f) = self.function() {
                        functions.push(f);
                    }
                }
                TokenKind::End => {
                    let end_tok = self.bump();
                    self.expect(&TokenKind::Semicolon);
                    if functions.is_empty() {
                        self.diagnostics
                            .error(start, format!("section `{name}` contains no functions"));
                    }
                    return Some(Section {
                        name,
                        first_cell: first.max(0) as u32,
                        last_cell: last.max(first.max(0)) as u32,
                        functions,
                        span: start.merge(end_tok.span),
                    });
                }
                TokenKind::Eof => {
                    self.diagnostics
                        .error(self.peek_span(), format!("unterminated section `{name}`"));
                    return Some(Section {
                        name,
                        first_cell: first.max(0) as u32,
                        last_cell: last.max(first.max(0)) as u32,
                        functions,
                        span: start.merge(self.peek_span()),
                    });
                }
                _ => {
                    self.diagnostics.error(
                        self.peek_span(),
                        format!(
                            "expected `function` or `end` in section, found {}",
                            self.peek().describe()
                        ),
                    );
                    self.recover();
                }
            }
        }
    }

    fn function(&mut self) -> Option<Function> {
        let start = self.peek_span();
        self.expect(&TokenKind::Function)?;
        let (name, _) = self.expect_ident("function")?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !matches!(self.peek(), TokenKind::RParen) {
            loop {
                if let Some(p) = self.param() {
                    params.push(p);
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;

        let ret = if self.eat(&TokenKind::Colon) {
            Some(self.ty()?)
        } else {
            None
        };

        let mut vars = Vec::new();
        if self.eat(&TokenKind::Var) {
            // Each group: name {, name} : type ;  — repeated until `begin`.
            while !matches!(self.peek(), TokenKind::Begin | TokenKind::Eof) {
                let mut names = Vec::new();
                loop {
                    match self.expect_ident("variable") {
                        Some((n, sp)) => names.push((n, sp)),
                        None => {
                            self.synchronize();
                            break;
                        }
                    }
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                if names.is_empty() {
                    break;
                }
                if self.expect(&TokenKind::Colon).is_none() {
                    self.synchronize();
                    continue;
                }
                let Some(ty) = self.ty() else {
                    self.synchronize();
                    continue;
                };
                self.expect(&TokenKind::Semicolon);
                for (n, sp) in names {
                    vars.push(VarDecl {
                        name: n,
                        ty: ty.clone(),
                        span: sp,
                    });
                }
            }
        }

        self.expect(&TokenKind::Begin)?;
        let body = self.stmts_until_block_end();
        let end_tok = self.expect(&TokenKind::End);
        self.expect(&TokenKind::Semicolon);
        let end_span = end_tok.map(|t| t.span).unwrap_or_else(|| self.peek_span());
        Some(Function {
            name,
            params,
            ret,
            vars,
            body,
            span: start.merge(end_span),
        })
    }

    fn param(&mut self) -> Option<Param> {
        let (name, span) = self.expect_ident("parameter")?;
        self.expect(&TokenKind::Colon)?;
        let ty = self.ty()?;
        Some(Param { name, ty, span })
    }

    fn ty(&mut self) -> Option<Type> {
        let scalar = match self.peek() {
            TokenKind::Int => ScalarType::Int,
            TokenKind::Float => ScalarType::Float,
            TokenKind::Bool => ScalarType::Bool,
            other => {
                let msg = format!("expected type, found {}", other.describe());
                self.diagnostics.error(self.peek_span(), msg);
                return None;
            }
        };
        self.bump();
        let mut dims = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            let span = self.peek_span();
            let d = self.expect_int("array dimension")?;
            if d <= 0 {
                self.diagnostics
                    .error(span, format!("array dimension must be positive, got {d}"));
            }
            dims.push(d.max(1) as u32);
            self.expect(&TokenKind::RBracket)?;
        }
        Some(Type { scalar, dims })
    }

    // ---- statements ---------------------------------------------------

    /// Parses statements until `end`, `else`, `elsif`, or EOF.
    fn stmts_until_block_end(&mut self) -> Vec<Stmt> {
        let mut stmts = Vec::new();
        loop {
            match self.peek() {
                TokenKind::End | TokenKind::Else | TokenKind::Elsif | TokenKind::Eof => {
                    return stmts
                }
                _ => match self.stmt() {
                    Some(s) => stmts.push(s),
                    None => self.recover(),
                },
            }
        }
    }

    fn stmt(&mut self) -> Option<Stmt> {
        match self.peek() {
            TokenKind::If => self.if_stmt(),
            TokenKind::While => self.while_stmt(),
            TokenKind::For => self.for_stmt(),
            TokenKind::Send => self.send_stmt(),
            TokenKind::Receive => self.receive_stmt(),
            TokenKind::Return => self.return_stmt(),
            TokenKind::Ident(_) => self.assign_or_call(),
            other => {
                let msg = format!("expected statement, found {}", other.describe());
                self.diagnostics.error(self.peek_span(), msg);
                None
            }
        }
    }

    fn if_stmt(&mut self) -> Option<Stmt> {
        let start = self.peek_span();
        self.expect(&TokenKind::If)?;
        let mut arms = Vec::new();
        let cond = self.expr()?;
        self.expect(&TokenKind::Then)?;
        let body = self.stmts_until_block_end();
        arms.push(IfArm { cond, body });
        let mut else_body = Vec::new();
        loop {
            if self.eat(&TokenKind::Elsif) {
                let cond = self.expr()?;
                self.expect(&TokenKind::Then)?;
                let body = self.stmts_until_block_end();
                arms.push(IfArm { cond, body });
            } else if self.eat(&TokenKind::Else) {
                else_body = self.stmts_until_block_end();
                break;
            } else {
                break;
            }
        }
        let end_tok = self.expect(&TokenKind::End);
        self.expect(&TokenKind::Semicolon);
        let end_span = end_tok.map(|t| t.span).unwrap_or(start);
        Some(Stmt::If {
            arms,
            else_body,
            span: start.merge(end_span),
        })
    }

    fn while_stmt(&mut self) -> Option<Stmt> {
        let start = self.peek_span();
        self.expect(&TokenKind::While)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::Do)?;
        let body = self.stmts_until_block_end();
        let end_tok = self.expect(&TokenKind::End);
        self.expect(&TokenKind::Semicolon);
        let end_span = end_tok.map(|t| t.span).unwrap_or(start);
        Some(Stmt::While {
            cond,
            body,
            span: start.merge(end_span),
        })
    }

    fn for_stmt(&mut self) -> Option<Stmt> {
        let start = self.peek_span();
        self.expect(&TokenKind::For)?;
        let (var, _) = self.expect_ident("loop variable")?;
        self.expect(&TokenKind::Assign)?;
        let from = self.expr()?;
        let downto = match self.peek() {
            TokenKind::To => {
                self.bump();
                false
            }
            TokenKind::Downto => {
                self.bump();
                true
            }
            other => {
                let msg = format!("expected `to` or `downto`, found {}", other.describe());
                self.diagnostics.error(self.peek_span(), msg);
                return None;
            }
        };
        let to = self.expr()?;
        let by = if self.eat(&TokenKind::By) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(&TokenKind::Do)?;
        let body = self.stmts_until_block_end();
        let end_tok = self.expect(&TokenKind::End);
        self.expect(&TokenKind::Semicolon);
        let end_span = end_tok.map(|t| t.span).unwrap_or(start);
        Some(Stmt::For {
            var,
            from,
            to,
            downto,
            by,
            body,
            span: start.merge(end_span),
        })
    }

    fn direction(&mut self) -> Option<Direction> {
        if let TokenKind::Ident(name) = self.peek() {
            let dir = match name.as_str() {
                "left" => Some(Direction::Left),
                "right" => Some(Direction::Right),
                _ => None,
            };
            if let Some(d) = dir {
                self.bump();
                return Some(d);
            }
        }
        self.diagnostics.error(
            self.peek_span(),
            format!(
                "expected `left` or `right`, found {}",
                self.peek().describe()
            ),
        );
        None
    }

    fn send_stmt(&mut self) -> Option<Stmt> {
        let start = self.peek_span();
        self.expect(&TokenKind::Send)?;
        self.expect(&TokenKind::LParen)?;
        let dir = self.direction()?;
        self.expect(&TokenKind::Comma)?;
        let value = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let semi = self.expect(&TokenKind::Semicolon);
        let end = semi.map(|t| t.span).unwrap_or(start);
        Some(Stmt::Send {
            dir,
            value,
            span: start.merge(end),
        })
    }

    fn receive_stmt(&mut self) -> Option<Stmt> {
        let start = self.peek_span();
        self.expect(&TokenKind::Receive)?;
        self.expect(&TokenKind::LParen)?;
        let dir = self.direction()?;
        self.expect(&TokenKind::Comma)?;
        let target = self.lvalue()?;
        self.expect(&TokenKind::RParen)?;
        let semi = self.expect(&TokenKind::Semicolon);
        let end = semi.map(|t| t.span).unwrap_or(start);
        Some(Stmt::Receive {
            dir,
            target,
            span: start.merge(end),
        })
    }

    fn return_stmt(&mut self) -> Option<Stmt> {
        let start = self.peek_span();
        self.expect(&TokenKind::Return)?;
        let value = if matches!(self.peek(), TokenKind::Semicolon) {
            None
        } else {
            Some(self.expr()?)
        };
        let semi = self.expect(&TokenKind::Semicolon);
        let end = semi.map(|t| t.span).unwrap_or(start);
        Some(Stmt::Return {
            value,
            span: start.merge(end),
        })
    }

    fn assign_or_call(&mut self) -> Option<Stmt> {
        let start = self.peek_span();
        let (name, name_span) = self.expect_ident("variable or procedure")?;
        if self.eat(&TokenKind::LParen) {
            // Procedure call statement.
            let mut args = Vec::new();
            if !matches!(self.peek(), TokenKind::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
            let semi = self.expect(&TokenKind::Semicolon);
            let end = semi.map(|t| t.span).unwrap_or(start);
            return Some(Stmt::Call {
                name,
                args,
                span: start.merge(end),
            });
        }
        // Assignment: optional subscripts then `:=`.
        let mut indices = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            indices.push(self.expr()?);
            self.expect(&TokenKind::RBracket)?;
        }
        let lv_span = start.merge(self.peek_span());
        let target = LValue {
            name,
            indices,
            span: name_span.merge(lv_span),
        };
        self.expect(&TokenKind::Assign)?;
        let value = self.expr()?;
        let semi = self.expect(&TokenKind::Semicolon);
        let end = semi.map(|t| t.span).unwrap_or(start);
        Some(Stmt::Assign {
            target,
            value,
            span: start.merge(end),
        })
    }

    fn lvalue(&mut self) -> Option<LValue> {
        let (name, name_span) = self.expect_ident("variable")?;
        let mut indices = Vec::new();
        let mut span = name_span;
        while self.eat(&TokenKind::LBracket) {
            indices.push(self.expr()?);
            let rb = self.expect(&TokenKind::RBracket)?;
            span = span.merge(rb.span);
        }
        Some(LValue {
            name,
            indices,
            span,
        })
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Option<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat(&TokenKind::Or) {
            let rhs = self.and_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary {
                    op: BinOp::Or,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        Some(lhs)
    }

    fn and_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&TokenKind::And) {
            let rhs = self.cmp_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary {
                    op: BinOp::And,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        Some(lhs)
    }

    fn cmp_expr(&mut self) -> Option<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Some(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        let span = lhs.span.merge(rhs.span);
        Some(Expr {
            kind: ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        })
    }

    fn add_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Some(lhs),
            };
            self.bump();
            let rhs = self.mul_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
    }

    fn mul_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Div => BinOp::IDiv,
                TokenKind::Mod => BinOp::Mod,
                _ => return Some(lhs),
            };
            self.bump();
            let rhs = self.unary_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
    }

    fn unary_expr(&mut self) -> Option<Expr> {
        let start = self.peek_span();
        let op = match self.peek() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Not => Some(UnOp::Not),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.unary_expr()?;
            let span = start.merge(expr.span);
            return Some(Expr {
                kind: ExprKind::Unary {
                    op,
                    expr: Box::new(expr),
                },
                span,
            });
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Option<Expr> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::IntLit(v) => {
                self.bump();
                Some(Expr {
                    kind: ExprKind::IntLit(v),
                    span,
                })
            }
            TokenKind::FloatLit(v) => {
                self.bump();
                Some(Expr {
                    kind: ExprKind::FloatLit(v),
                    span,
                })
            }
            TokenKind::BoolLit(v) => {
                self.bump();
                Some(Expr {
                    kind: ExprKind::BoolLit(v),
                    span,
                })
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Some(inner)
            }
            // `float(e)` / `int(e)` conversions: the names lex as type
            // keywords, so they need a dedicated production.
            kw @ (TokenKind::Float | TokenKind::Int) => {
                self.bump();
                let name = if matches!(kw, TokenKind::Float) {
                    "float"
                } else {
                    "int"
                };
                self.expect(&TokenKind::LParen)?;
                let arg = self.expr()?;
                let rp = self.expect(&TokenKind::RParen)?;
                Some(Expr {
                    kind: ExprKind::Call {
                        name: name.to_string(),
                        args: vec![arg],
                    },
                    span: span.merge(rp.span),
                })
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if !matches!(self.peek(), TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let rp = self.expect(&TokenKind::RParen)?;
                    Some(Expr {
                        kind: ExprKind::Call { name, args },
                        span: span.merge(rp.span),
                    })
                } else {
                    let mut indices = Vec::new();
                    let mut full = span;
                    while self.eat(&TokenKind::LBracket) {
                        indices.push(self.expr()?);
                        let rb = self.expect(&TokenKind::RBracket)?;
                        full = full.merge(rb.span);
                    }
                    Some(Expr {
                        kind: ExprKind::LValue(LValue {
                            name,
                            indices,
                            span: full,
                        }),
                        span: full,
                    })
                }
            }
            other => {
                self.diagnostics.error(
                    span,
                    format!("expected expression, found {}", other.describe()),
                );
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK_PROGRAM: &str = r#"
module s;
section s1 on cells 0..3;
  function f(x: float, n: int): float
  var
    acc: float;
    v: float[16];
    i: int;
  begin
    acc := 0.0;
    for i := 0 to 15 do
      v[i] := x * 2.0 + 1.0;
      acc := acc + v[i];
    end;
    if acc > 10.0 then
      acc := acc / 2.0;
    elsif acc > 5.0 then
      acc := acc - 1.0;
    else
      acc := 0.0;
    end;
    while acc > 0.0 do
      acc := acc - 1.0;
    end;
    receive(left, x);
    send(right, acc + x);
    return acc;
  end;
end;
"#;

    #[test]
    fn parses_full_program() {
        let out = parse(OK_PROGRAM);
        assert!(
            !out.diagnostics.has_errors(),
            "errors: {:?}",
            out.diagnostics.iter().collect::<Vec<_>>()
        );
        assert_eq!(out.module.name, "s");
        assert_eq!(out.module.sections.len(), 1);
        let sec = &out.module.sections[0];
        assert_eq!(sec.name, "s1");
        assert_eq!((sec.first_cell, sec.last_cell), (0, 3));
        assert_eq!(sec.functions.len(), 1);
        let f = &sec.functions[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Some(Type::float()));
        assert_eq!(f.vars.len(), 3);
        assert_eq!(f.body.len(), 7);
    }

    #[test]
    fn precedence_mul_over_add() {
        let out = parse(
            "module m; section a on cells 0..0; function f(): int begin return 1 + 2 * 3; end; end;",
        );
        assert!(!out.diagnostics.has_errors());
        let f = &out.module.sections[0].functions[0];
        let Stmt::Return { value: Some(e), .. } = &f.body[0] else {
            panic!("not return")
        };
        let ExprKind::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = &e.kind
        else {
            panic!("top is not +: {e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn precedence_and_over_or_and_cmp() {
        let out = parse(
            "module m; section a on cells 0..0; function f(x: int): bool begin return x > 1 or x < 0 and true; end; end;",
        );
        assert!(!out.diagnostics.has_errors());
        let f = &out.module.sections[0].functions[0];
        let Stmt::Return { value: Some(e), .. } = &f.body[0] else {
            panic!()
        };
        // or(x>1, and(x<0, true))
        let ExprKind::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
        } = &e.kind
        else {
            panic!("{e:?}")
        };
        assert!(matches!(lhs.kind, ExprKind::Binary { op: BinOp::Gt, .. }));
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn unary_binds_tighter_than_mul() {
        let out = parse(
            "module m; section a on cells 0..0; function f(x: int): int begin return -x * 3; end; end;",
        );
        assert!(!out.diagnostics.has_errors());
        let f = &out.module.sections[0].functions[0];
        let Stmt::Return { value: Some(e), .. } = &f.body[0] else {
            panic!()
        };
        let ExprKind::Binary {
            op: BinOp::Mul,
            lhs,
            ..
        } = &e.kind
        else {
            panic!("{e:?}")
        };
        assert!(matches!(lhs.kind, ExprKind::Unary { op: UnOp::Neg, .. }));
    }

    #[test]
    fn for_downto_and_by() {
        let out = parse(
            "module m; section a on cells 0..0; function f(): int var i: int; s: int; begin s := 0; for i := 10 downto 0 by 2 do s := s + i; end; return s; end; end;",
        );
        assert!(!out.diagnostics.has_errors());
        let f = &out.module.sections[0].functions[0];
        let Stmt::For { downto, by, .. } = &f.body[1] else {
            panic!()
        };
        assert!(*downto);
        assert!(by.is_some());
    }

    #[test]
    fn multiple_sections_and_functions() {
        let src = "module m;\n\
            section a on cells 0..1; function f(); begin return; end; function g(); begin return; end; end;\n\
            section b on cells 2..9; function h(); begin return; end; end;";
        // note: `function f();` style — empty parens, no ret type, no vars
        let src = src.replace("();", "()");
        let out = parse(&src);
        assert!(
            !out.diagnostics.has_errors(),
            "errors: {:?}",
            out.diagnostics.iter().collect::<Vec<_>>()
        );
        assert_eq!(out.module.sections.len(), 2);
        assert_eq!(out.module.function_count(), 3);
    }

    #[test]
    fn missing_semicolon_is_reported() {
        let out =
            parse("module m; section a on cells 0..0; function f(): int begin return 1 end; end;");
        assert!(out.diagnostics.has_errors());
    }

    #[test]
    fn error_recovery_finds_multiple_errors() {
        let out = parse(
            "module m; section a on cells 0..0; function f(): int begin x := ; y := ; return 1; end; end;",
        );
        assert!(out.diagnostics.error_count() >= 2, "{:?}", out.diagnostics);
        // The good statement after the bad ones still parses.
        let f = &out.module.sections[0].functions[0];
        assert!(f.body.iter().any(|s| matches!(s, Stmt::Return { .. })));
    }

    #[test]
    fn empty_module_is_error() {
        let out = parse("module m;");
        assert!(out.diagnostics.has_errors());
    }

    #[test]
    fn descending_cell_range_is_error() {
        let out = parse("module m; section a on cells 5..2; function f() begin return; end; end;");
        assert!(out.diagnostics.has_errors());
    }

    #[test]
    fn call_statement_vs_assignment() {
        let out = parse(
            "module m; section a on cells 0..0; function g() begin return; end; function f() begin g(); end; end;",
        );
        assert!(!out.diagnostics.has_errors());
        let f = &out.module.sections[0].functions[1];
        assert!(matches!(&f.body[0], Stmt::Call { name, .. } if name == "g"));
    }

    #[test]
    fn nested_array_access() {
        let out = parse(
            "module m; section a on cells 0..0; function f() var t: float[4][4]; i: int; begin t[i][i+1] := 0.5; end; end;",
        );
        assert!(!out.diagnostics.has_errors());
        let f = &out.module.sections[0].functions[0];
        let Stmt::Assign { target, .. } = &f.body[0] else {
            panic!()
        };
        assert_eq!(target.indices.len(), 2);
    }

    #[test]
    fn parenthesized_expression() {
        let out = parse(
            "module m; section a on cells 0..0; function f(x: int): int begin return (1 + x) * 3; end; end;",
        );
        assert!(!out.diagnostics.has_errors());
        let f = &out.module.sections[0].functions[0];
        let Stmt::Return { value: Some(e), .. } = &f.body[0] else {
            panic!()
        };
        let ExprKind::Binary {
            op: BinOp::Mul,
            lhs,
            ..
        } = &e.kind
        else {
            panic!()
        };
        assert!(matches!(lhs.kind, ExprKind::Binary { op: BinOp::Add, .. }));
    }

    /// Runs the split pipeline (split at sections, parse pieces,
    /// reassemble) and compares with the sequential parser. On clean
    /// inputs the results must be identical; on erroring inputs the
    /// split path must also report errors (the fall-back-to-sequential
    /// trigger), though the exact diagnostics may differ.
    fn split_parse(src: &str) -> ParseOutput {
        let lexed = lex(src);
        let eof_span = lexed.tokens.last().expect("EOF-terminated").span;
        let pieces = split_tokens(lexed.tokens);
        let header = parse_header_piece(pieces.header);
        let parsed: Vec<PieceParse> = pieces
            .sections
            .into_iter()
            .map(parse_section_piece)
            .collect();
        assemble_pieces(lexed.diagnostics, header, parsed, eof_span)
    }

    fn assert_split_matches(src: &str) {
        let seq = parse(src);
        let split = split_parse(src);
        if seq.diagnostics.has_errors() {
            assert!(
                split.diagnostics.has_errors(),
                "split parse missed errors on {src:?}"
            );
            return;
        }
        assert_eq!(split.module, seq.module, "module mismatch on {src:?}");
        assert_eq!(
            split.diagnostics.iter().collect::<Vec<_>>(),
            seq.diagnostics.iter().collect::<Vec<_>>(),
            "diagnostics mismatch on {src:?}"
        );
    }

    #[test]
    fn split_parse_matches_sequential_on_clean_modules() {
        assert_split_matches(OK_PROGRAM);
        assert_split_matches(
            "module m;\n\
             section a on cells 0..1; function f() begin return; end; end;\n\
             section b on cells 2..9; function g() begin return; end; function h() begin g(); end; end;\n\
             section c on cells 10..10; function k(x: int): int begin return x + 1; end; end;",
        );
    }

    #[test]
    fn split_parse_flags_errors_on_broken_modules() {
        for src in [
            "module m;",                                // no sections
            "section a on cells 0..0; function f() begin return; end; end;", // no header
            "module m; section a on cells 0..0; begin end;", // junk in section
            "module m; section a on cells 0..0; function f() begin x := section; end; end;", // `section` mid-body
            "module m; stray tokens here; section a on cells 0..0; function f() begin return; end; end;",
            "module m; section a on cells 0..0; function f() begin return; end; end; trailing junk",
        ] {
            assert_split_matches(src);
        }
    }
}
