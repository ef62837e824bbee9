//! The condition front end as it was before compiling became one pass:
//! `lex` reads the whole source into a token vector, `parse` builds a
//! tree over variable names, and `compile` checks it, resolves the
//! names in tree order and checks the resolved tree again. The
//! equivalence tests in `expr_roundtrip.rs` hold the one-pass
//! `CompiledCondition::compile` to what this accepted and rejected.

use std::fmt;

use rcm_core::condition::expr::{AggOp, BinOp, CompiledCondition, Expr, Field, ParseError, UnOp};
use rcm_core::{Error, VarId, VarRegistry};

/// Compiles `source` the two-pass way: no name is registered unless it
/// compiles.
pub fn compile(source: &str, registry: &mut VarRegistry) -> Result<CompiledCondition, Error> {
    let ast = parse(source)?;
    // Type errors do not depend on how variables are named, so the tree
    // is checked with the ids its names would get, in a scratch copy of
    // the registry, before any is registered.
    let mut scratch = registry.clone();
    let resolved = resolve(ast, &mut |name| scratch.register(&name));
    let cond = CompiledCondition::from_expr(source, resolved)?;
    *registry = scratch;
    Ok(cond)
}

/// The tree with every name resolved, left operand before right.
fn resolve(e: Expr<String>, f: &mut impl FnMut(String) -> VarId) -> Expr<VarId> {
    let mut sub = |e: Box<Expr<String>>| Box::new(resolve(*e, f));
    match e {
        Expr::Num(n) => Expr::Num(n),
        Expr::Bool(b) => Expr::Bool(b),
        Expr::Term { var, index, field } => Expr::Term { var: f(var), index, field },
        Expr::Consecutive(v) => Expr::Consecutive(f(v)),
        Expr::Agg { op, var, window } => Expr::Agg { op, var: f(var), window },
        Expr::Unary { op, expr } => Expr::Unary { op, expr: sub(expr) },
        Expr::Binary { op, lhs, rhs } => {
            let lhs = sub(lhs);
            Expr::Binary { op, lhs, rhs: sub(rhs) }
        }
        Expr::Abs(e) => Expr::Abs(sub(e)),
        Expr::Min(a, b) => {
            let a = sub(a);
            Expr::Min(a, sub(b))
        }
        Expr::Max(a, b) => {
            let a = sub(a);
            Expr::Max(a, sub(b))
        }
    }
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier: variable name, field name or builtin function.
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Dot => write!(f, "."),
            Token::Comma => write!(f, ","),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::EqEq => write!(f, "=="),
            Token::Ne => write!(f, "!="),
            Token::AndAnd => write!(f, "&&"),
            Token::OrOr => write!(f, "||"),
            Token::Bang => write!(f, "!"),
        }
    }
}

/// Lexical error: an unexpected character or malformed literal.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `src`, returning tokens with their byte offsets.
pub fn lex(src: &str) -> Result<Vec<(Token, usize)>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '#' => {
                // comment to end of line
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push((Token::LParen, start));
                i += 1;
            }
            ')' => {
                out.push((Token::RParen, start));
                i += 1;
            }
            '[' => {
                out.push((Token::LBracket, start));
                i += 1;
            }
            ']' => {
                out.push((Token::RBracket, start));
                i += 1;
            }
            '.' => {
                out.push((Token::Dot, start));
                i += 1;
            }
            ',' => {
                out.push((Token::Comma, start));
                i += 1;
            }
            '+' => {
                out.push((Token::Plus, start));
                i += 1;
            }
            '-' => {
                out.push((Token::Minus, start));
                i += 1;
            }
            '*' => {
                out.push((Token::Star, start));
                i += 1;
            }
            '/' => {
                out.push((Token::Slash, start));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Token::Le, start));
                    i += 2;
                } else {
                    out.push((Token::Lt, start));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Token::Ge, start));
                    i += 2;
                } else {
                    out.push((Token::Gt, start));
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Token::EqEq, start));
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: start,
                        message: "single '=' is not an operator; use '=='".into(),
                    });
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Token::Ne, start));
                    i += 2;
                } else {
                    out.push((Token::Bang, start));
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    out.push((Token::AndAnd, start));
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: start,
                        message: "single '&' is not an operator; use '&&'".into(),
                    });
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    out.push((Token::OrOr, start));
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: start,
                        message: "single '|' is not an operator; use '||'".into(),
                    });
                }
            }
            '0'..='9' => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                // Optional exponent: e / E, optional sign, digits.
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[start..i];
                let n: f64 = text.parse().map_err(|_| LexError {
                    offset: start,
                    message: format!("malformed number literal '{text}'"),
                })?;
                out.push((Token::Number(n), start));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push((Token::Ident(src[start..i].to_owned()), start));
            }
            other => {
                return Err(LexError {
                    offset: start,
                    message: format!("unexpected character '{other}'"),
                });
            }
        }
    }
    Ok(out)
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { offset: e.offset, message: e.message }
    }
}

/// Parses a condition expression into an AST over variable *names*.
///
/// The grammar, loosest binding first:
///
/// ```text
/// expr   := and ("||" and)*
/// and    := cmp ("&&" cmp)*
/// cmp    := sum (("<"|"<="|">"|">="|"=="|"!=") sum)?
/// sum    := prod (("+"|"-") prod)*
/// prod   := neg (("*"|"/") neg)*
/// neg    := ("-"|"!") neg | atom
/// atom   := number | "true" | "false" | "(" expr ")"
///         | ident "[" int "]" "." ("value"|"seqno")      # history term
///         | "consecutive" "(" ident ")"
///         | ("abs") "(" expr ")"
///         | ("min"|"max") "(" expr "," expr ")"
///         | ("min_over"|"max_over"|"avg_over"|"sum_over") "(" ident "," int ")"
/// ```
///
/// `!` and unary `-` bind tightest, as in C and Rust: `!a && b` is
/// `(!a) && b`, and negating a whole comparison needs parentheses,
/// `!(a > b)`.
///
/// # Errors
///
/// Returns a [`ParseError`] on any lexical or syntactic problem. Type
/// errors (e.g. `1 && 2`) are reported by the analysis pass, not here.
pub fn parse(src: &str) -> Result<Expr<String>, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0, src_len: src.len() };
    let e = p.expr()?;
    if let Some((tok, off)) = p.peek_with_offset() {
        return Err(ParseError {
            offset: off,
            message: format!("unexpected trailing token '{tok}'"),
        });
    }
    Ok(e)
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    src_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn peek_with_offset(&self) -> Option<(&Token, usize)> {
        self.tokens.get(self.pos).map(|(t, o)| (t, *o))
    }

    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.src_len, |(_, o)| *o)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(ParseError {
                offset: self.offset(),
                message: format!("expected '{want}', found '{t}'"),
            }),
            None => Err(ParseError {
                offset: self.src_len,
                message: format!("expected '{want}', found end of input"),
            }),
        }
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.offset(), message: message.into() }
    }

    fn expr(&mut self) -> Result<Expr<String>, ParseError> {
        let mut lhs = self.and()?;
        while self.peek() == Some(&Token::OrOr) {
            self.bump();
            let rhs = self.and()?;
            lhs = Expr::Binary { op: BinOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Expr<String>, ParseError> {
        let mut lhs = self.cmp()?;
        while self.peek() == Some(&Token::AndAnd) {
            self.bump();
            let rhs = self.cmp()?;
            lhs = Expr::Binary { op: BinOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn cmp(&mut self) -> Result<Expr<String>, ParseError> {
        let lhs = self.sum()?;
        let op = match self.peek() {
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            Some(Token::EqEq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.sum()?;
            return Ok(Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) });
        }
        Ok(lhs)
    }

    fn sum(&mut self) -> Result<Expr<String>, ParseError> {
        let mut lhs = self.prod()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.prod()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn prod(&mut self) -> Result<Expr<String>, ParseError> {
        let mut lhs = self.neg()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.neg()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn neg(&mut self) -> Result<Expr<String>, ParseError> {
        if self.peek() == Some(&Token::Minus) {
            self.bump();
            let inner = self.neg()?;
            return Ok(Expr::Unary { op: UnOp::Neg, expr: Box::new(inner) });
        }
        if self.peek() == Some(&Token::Bang) {
            self.bump();
            let inner = self.neg()?;
            return Ok(Expr::Unary { op: UnOp::Not, expr: Box::new(inner) });
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr<String>, ParseError> {
        match self.bump() {
            Some(Token::Number(n)) => Ok(Expr::Num(n)),
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => match name.as_str() {
                "true" => Ok(Expr::Bool(true)),
                "false" => Ok(Expr::Bool(false)),
                "consecutive" => {
                    self.expect(&Token::LParen)?;
                    let var = match self.bump() {
                        Some(Token::Ident(v)) => v,
                        _ => return Err(self.err_here("consecutive() takes a variable name")),
                    };
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Consecutive(var))
                }
                "abs" => {
                    self.expect(&Token::LParen)?;
                    let e = self.expr()?;
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Abs(Box::new(e)))
                }
                "min_over" | "max_over" | "avg_over" | "sum_over" => {
                    let op = match name.as_str() {
                        "min_over" => AggOp::Min,
                        "max_over" => AggOp::Max,
                        "avg_over" => AggOp::Avg,
                        _ => AggOp::Sum,
                    };
                    self.expect(&Token::LParen)?;
                    let var = match self.bump() {
                        Some(Token::Ident(v)) => v,
                        _ => {
                            return Err(self.err_here(format!(
                                "{}() takes a variable name and a window size",
                                op.name()
                            )))
                        }
                    };
                    self.expect(&Token::Comma)?;
                    let window = match self.bump() {
                        Some(Token::Number(n)) if n.fract() == 0.0 && n >= 1.0 => n as u64,
                        _ => return Err(self.err_here("window size must be a positive integer")),
                    };
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Agg { op, var, window })
                }
                "min" | "max" => {
                    self.expect(&Token::LParen)?;
                    let a = self.expr()?;
                    self.expect(&Token::Comma)?;
                    let b = self.expr()?;
                    self.expect(&Token::RParen)?;
                    if name == "min" {
                        Ok(Expr::Min(Box::new(a), Box::new(b)))
                    } else {
                        Ok(Expr::Max(Box::new(a), Box::new(b)))
                    }
                }
                _ => self.term(name),
            },
            Some(t) => Err(ParseError {
                offset: self.tokens[self.pos - 1].1,
                message: format!("unexpected token '{t}'"),
            }),
            None => {
                Err(ParseError { offset: self.src_len, message: "unexpected end of input".into() })
            }
        }
    }

    /// Parses the `[index].field` suffix of a history term whose
    /// variable name was already consumed.
    fn term(&mut self, var: String) -> Result<Expr<String>, ParseError> {
        self.expect(&Token::LBracket)?;
        let negative = if self.peek() == Some(&Token::Minus) {
            self.bump();
            true
        } else {
            false
        };
        let index = match self.bump() {
            Some(Token::Number(n)) if n.fract() == 0.0 => {
                let n = n as i64;
                if negative {
                    -n
                } else {
                    n
                }
            }
            _ => return Err(self.err_here("history index must be an integer")),
        };
        if index > 0 {
            return Err(self.err_here(format!(
                "history index must be zero or negative (H[0] is the newest update), got {index}"
            )));
        }
        self.expect(&Token::RBracket)?;
        self.expect(&Token::Dot)?;
        let field = match self.bump() {
            Some(Token::Ident(f)) if f == "value" => Field::Value,
            Some(Token::Ident(f)) if f == "seqno" => Field::Seqno,
            _ => return Err(self.err_here("expected '.value' or '.seqno'")),
        };
        Ok(Expr::Term { var, index, field })
    }
}
