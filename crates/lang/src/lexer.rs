//! Lexer for the Warp (W2-style) language.
//!
//! Converts source text into a vector of [`Token`]s. Comments come in
//! two forms: `-- line comment` and `{ block comment }` (Pascal style,
//! non-nesting). The lexer never fails catastrophically: invalid
//! characters produce error diagnostics and are skipped, so the parser
//! always receives a well-formed (if possibly truncated) stream.

use crate::diag::DiagnosticBag;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Result of lexing: the token stream plus any diagnostics produced.
#[derive(Debug, Clone)]
pub struct LexOutput {
    /// The tokens, always terminated by a single [`TokenKind::Eof`].
    pub tokens: Vec<Token>,
    /// Lexical errors (invalid characters, malformed numbers, unterminated
    /// comments). If non-empty, the tokens cover only the valid prefix
    /// portions of the input.
    pub diagnostics: DiagnosticBag,
}

/// Lexes `source` into tokens.
///
/// The returned token stream is always terminated by [`TokenKind::Eof`];
/// errors are reported through the output's diagnostic bag rather than
/// by failing, so `lex` is total.
pub fn lex(source: &str) -> LexOutput {
    Lexer::new(source).run()
}

struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    pos: usize,
    tokens: Vec<Token>,
    diagnostics: DiagnosticBag,
}

impl<'src> Lexer<'src> {
    fn new(src: &'src str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            tokens: Vec::new(),
            diagnostics: DiagnosticBag::new(),
        }
    }

    fn run(mut self) -> LexOutput {
        while self.pos < self.bytes.len() {
            self.skip_trivia();
            if self.pos >= self.bytes.len() {
                break;
            }
            let start = self.pos;
            let b = self.bytes[self.pos];
            match b {
                b'0'..=b'9' => self.number(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident_or_keyword(),
                _ => self.punct(),
            }
            // Defensive: every branch must make progress.
            debug_assert!(self.pos > start, "lexer failed to advance at byte {start}");
        }
        let eof = Span::point(self.src.len() as u32);
        self.tokens.push(Token::new(TokenKind::Eof, eof));
        LexOutput {
            tokens: self.tokens,
            diagnostics: self.diagnostics,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(start as u32, self.pos as u32)
    }

    fn emit(&mut self, kind: TokenKind, start: usize) {
        let span = self.span_from(start);
        self.tokens.push(Token::new(kind, span));
    }

    /// Skips whitespace and both comment forms.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'{') => {
                    let start = self.pos;
                    self.bump();
                    let mut closed = false;
                    while let Some(b) = self.bump() {
                        if b == b'}' {
                            closed = true;
                            break;
                        }
                    }
                    if !closed {
                        self.diagnostics
                            .error(self.span_from(start), "unterminated block comment");
                    }
                }
                _ => break,
            }
        }
    }

    fn number(&mut self) {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        let mut is_float = false;
        // A '.' starts a fraction only if not part of a `..` range token.
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(b'0'..=b'9')) {
            is_float = true;
            self.bump(); // '.'
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            let mut ahead = self.pos + 1;
            if matches!(self.bytes.get(ahead), Some(b'+' | b'-')) {
                ahead += 1;
            }
            if matches!(self.bytes.get(ahead), Some(b'0'..=b'9')) {
                is_float = true;
                self.pos = ahead;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            match text.parse::<f64>() {
                Ok(v) => self.emit(TokenKind::FloatLit(v), start),
                Err(_) => {
                    self.diagnostics.error(
                        self.span_from(start),
                        format!("invalid float literal `{text}`"),
                    );
                }
            }
        } else {
            match text.parse::<i64>() {
                Ok(v) => self.emit(TokenKind::IntLit(v), start),
                Err(_) => {
                    self.diagnostics.error(
                        self.span_from(start),
                        format!("integer literal `{text}` out of range"),
                    );
                }
            }
        }
    }

    fn ident_or_keyword(&mut self) {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
        ) {
            self.bump();
        }
        let text = &self.src[start..self.pos];
        let kind = TokenKind::keyword(text).unwrap_or_else(|| TokenKind::Ident(text.to_string()));
        self.emit(kind, start);
    }

    fn punct(&mut self) {
        let start = self.pos;
        let b = self.bump().expect("punct called at EOF");
        let kind = match b {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b',' => TokenKind::Comma,
            b';' => TokenKind::Semicolon,
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'=' => TokenKind::Eq,
            b':' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Assign
                } else {
                    TokenKind::Colon
                }
            }
            b'.' => {
                if self.peek() == Some(b'.') {
                    self.bump();
                    TokenKind::DotDot
                } else {
                    self.diagnostics
                        .error(self.span_from(start), "unexpected character `.`");
                    return;
                }
            }
            b'<' => match self.peek() {
                Some(b'=') => {
                    self.bump();
                    TokenKind::Le
                }
                Some(b'>') => {
                    self.bump();
                    TokenKind::Ne
                }
                _ => TokenKind::Lt,
            },
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            other => {
                self.diagnostics.error(
                    self.span_from(start),
                    format!("unexpected character `{}`", other as char),
                );
                return;
            }
        };
        self.emit(kind, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        let out = lex(src);
        assert!(
            out.diagnostics.is_empty(),
            "unexpected diagnostics: {:?}",
            out.diagnostics
        );
        out.tokens.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn empty_source_is_just_eof() {
        assert_eq!(kinds(""), vec![TokenKind::Eof]);
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("module m;"),
            vec![
                TokenKind::Module,
                TokenKind::Ident("m".into()),
                TokenKind::Semicolon,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("1 23 4.5 1e3 2.5e-2"),
            vec![
                TokenKind::IntLit(1),
                TokenKind::IntLit(23),
                TokenKind::FloatLit(4.5),
                TokenKind::FloatLit(1e3),
                TokenKind::FloatLit(2.5e-2),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn dotdot_after_integer_is_range() {
        assert_eq!(
            kinds("0..9"),
            vec![
                TokenKind::IntLit(0),
                TokenKind::DotDot,
                TokenKind::IntLit(9),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn compound_operators() {
        assert_eq!(
            kinds(":= <= >= <> < > = : .."),
            vec![
                TokenKind::Assign,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eq,
                TokenKind::Colon,
                TokenKind::DotDot,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn line_comments_are_skipped() {
        assert_eq!(
            kinds("a -- comment\nb"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn block_comments_are_skipped() {
        assert_eq!(
            kinds("a { anything \n at all } b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_reports_error() {
        let out = lex("a { oops");
        assert!(out.diagnostics.has_errors());
        assert_eq!(out.tokens.len(), 2); // `a` + EOF
    }

    #[test]
    fn invalid_character_reports_error_and_continues() {
        let out = lex("a # b");
        assert!(out.diagnostics.has_errors());
        let idents = out
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Ident(_)))
            .count();
        assert_eq!(idents, 2);
    }

    #[test]
    fn minus_alone_is_not_comment() {
        assert_eq!(
            kinds("a - b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Minus,
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn spans_cover_lexemes() {
        let out = lex("foo := 12");
        assert_eq!(out.tokens[0].span, Span::new(0, 3));
        assert_eq!(out.tokens[1].span, Span::new(4, 6));
        assert_eq!(out.tokens[2].span, Span::new(7, 9));
    }

    #[test]
    fn bool_literals() {
        assert_eq!(
            kinds("true false"),
            vec![
                TokenKind::BoolLit(true),
                TokenKind::BoolLit(false),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn huge_integer_overflow_is_diagnosed() {
        let out = lex("99999999999999999999999");
        assert!(out.diagnostics.has_errors());
    }
}
