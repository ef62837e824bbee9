//! Recursive-descent parser for condition expressions: one pass over
//! the source, pulling each token from the lexer as it is needed.

use std::fmt;

use super::ast::{AggOp, BinOp, Expr, Field, UnOp};
use super::lexer::{Lexer, Token};

/// Parse error with source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset the error was detected at (source length for
    /// unexpected end of input).
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

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
/// Returns a [`ParseError`] on any lexical or syntactic problem; if the
/// source holds a lexical error, its first is the one reported. Type
/// errors (e.g. `1 && 2`) are reported by the analysis pass, not here.
pub fn parse(src: &str) -> Result<Expr<String>, ParseError> {
    parse_with(src, str::to_owned)
}

/// [`parse`], each variable name read turned into a `V` by `resolve`,
/// in the order the names appear in the source.
pub(super) fn parse_with<'a, V>(
    src: &'a str,
    resolve: impl FnMut(&'a str) -> V,
) -> Result<Expr<V>, ParseError> {
    let mut p = Parser { lexer: Lexer::new(src), current: None, src_len: src.len(), resolve };
    let parsed = p.bump().and_then(|_| p.whole());
    parsed.map_err(|e| p.first_lex_error_or(e))
}

struct Parser<'a, R> {
    lexer: Lexer<'a>,
    /// The next token and its offset; `None` at the end of input.
    current: Option<(Token<'a>, usize)>,
    src_len: usize,
    resolve: R,
}

impl<'a, V, R: FnMut(&'a str) -> V> Parser<'a, R> {
    /// The whole source as one expression.
    fn whole(&mut self) -> Result<Expr<V>, ParseError> {
        let e = self.expr()?;
        if let Some((tok, offset)) = self.current {
            return Err(ParseError {
                offset,
                message: format!("unexpected trailing token '{tok}'"),
            });
        }
        Ok(e)
    }

    /// `error`, unless the rest of the source holds a lexical error:
    /// the source is rejected for the first one, wherever the parse
    /// stopped.
    fn first_lex_error_or(&mut self, error: ParseError) -> ParseError {
        loop {
            match self.lexer.next_token() {
                Ok(Some(_)) => {}
                Ok(None) => return error,
                Err(lexical) => return lexical,
            }
        }
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.current.map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.current.map_or(self.src_len, |(_, o)| o)
    }

    /// Consumes the current token, returning it with its offset.
    fn bump(&mut self) -> Result<Option<(Token<'a>, usize)>, ParseError> {
        let t = self.current;
        self.current = self.lexer.next_token()?;
        Ok(t)
    }

    fn expect(&mut self, want: Token<'_>) -> Result<(), ParseError> {
        match self.current {
            Some((t, _)) if t == want => {
                self.bump()?;
                Ok(())
            }
            Some((t, offset)) => {
                Err(ParseError { offset, message: format!("expected '{want}', found '{t}'") })
            }
            None => Err(ParseError {
                offset: self.src_len,
                message: format!("expected '{want}', found end of input"),
            }),
        }
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.offset(), message: message.into() }
    }

    /// Consumes a variable name and resolves it.
    fn var(&mut self, or_else: impl FnOnce() -> String) -> Result<V, ParseError> {
        match self.bump()? {
            Some((Token::Ident(name), _)) => Ok((self.resolve)(name)),
            _ => Err(self.err_here(or_else())),
        }
    }

    fn expr(&mut self) -> Result<Expr<V>, ParseError> {
        let mut lhs = self.and()?;
        while self.peek() == Some(Token::OrOr) {
            self.bump()?;
            let rhs = self.and()?;
            lhs = Expr::Binary { op: BinOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Expr<V>, ParseError> {
        let mut lhs = self.cmp()?;
        while self.peek() == Some(Token::AndAnd) {
            self.bump()?;
            let rhs = self.cmp()?;
            lhs = Expr::Binary { op: BinOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn cmp(&mut self) -> Result<Expr<V>, ParseError> {
        let lhs = self.sum()?;
        let op = match self.peek() {
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            Some(Token::EqEq) => BinOp::Eq,
            Some(Token::Ne) => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump()?;
        let rhs = self.sum()?;
        Ok(Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
    }

    fn sum(&mut self) -> Result<Expr<V>, ParseError> {
        let mut lhs = self.prod()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump()?;
            let rhs = self.prod()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn prod(&mut self) -> Result<Expr<V>, ParseError> {
        let mut lhs = self.neg()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.bump()?;
            let rhs = self.neg()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn neg(&mut self) -> Result<Expr<V>, ParseError> {
        let op = match self.peek() {
            Some(Token::Minus) => UnOp::Neg,
            Some(Token::Bang) => UnOp::Not,
            _ => return self.atom(),
        };
        self.bump()?;
        let inner = self.neg()?;
        Ok(Expr::Unary { op, expr: Box::new(inner) })
    }

    fn atom(&mut self) -> Result<Expr<V>, ParseError> {
        let Some((token, offset)) = self.bump()? else {
            return Err(ParseError {
                offset: self.src_len,
                message: "unexpected end of input".into(),
            });
        };
        let name = match token {
            Token::Number(n) => return Ok(Expr::Num(n)),
            Token::LParen => {
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                return Ok(e);
            }
            Token::Ident(name) => name,
            t => return Err(ParseError { offset, message: format!("unexpected token '{t}'") }),
        };
        match name {
            "true" => Ok(Expr::Bool(true)),
            "false" => Ok(Expr::Bool(false)),
            "consecutive" => {
                self.expect(Token::LParen)?;
                let var = self.var(|| "consecutive() takes a variable name".into())?;
                self.expect(Token::RParen)?;
                Ok(Expr::Consecutive(var))
            }
            "abs" => {
                self.expect(Token::LParen)?;
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(Expr::Abs(Box::new(e)))
            }
            "min_over" | "max_over" | "avg_over" | "sum_over" => {
                let op = match name {
                    "min_over" => AggOp::Min,
                    "max_over" => AggOp::Max,
                    "avg_over" => AggOp::Avg,
                    _ => AggOp::Sum,
                };
                self.expect(Token::LParen)?;
                let var = self
                    .var(|| format!("{}() takes a variable name and a window size", op.name()))?;
                self.expect(Token::Comma)?;
                let window = match self.bump()? {
                    Some((Token::Number(n), _)) if n.fract() == 0.0 && n >= 1.0 => n as u64,
                    _ => return Err(self.err_here("window size must be a positive integer")),
                };
                self.expect(Token::RParen)?;
                Ok(Expr::Agg { op, var, window })
            }
            "min" | "max" => {
                self.expect(Token::LParen)?;
                let a = Box::new(self.expr()?);
                self.expect(Token::Comma)?;
                let b = Box::new(self.expr()?);
                self.expect(Token::RParen)?;
                Ok(if name == "min" { Expr::Min(a, b) } else { Expr::Max(a, b) })
            }
            _ => {
                let var = (self.resolve)(name);
                self.term(var)
            }
        }
    }

    /// Parses the `[index].field` suffix of a history term whose
    /// variable name was already consumed.
    fn term(&mut self, var: V) -> Result<Expr<V>, ParseError> {
        self.expect(Token::LBracket)?;
        let negative = self.peek() == Some(Token::Minus);
        if negative {
            self.bump()?;
        }
        let index = match self.bump()? {
            Some((Token::Number(n), _)) if n.fract() == 0.0 => {
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
        self.expect(Token::RBracket)?;
        self.expect(Token::Dot)?;
        let field = match self.bump()? {
            Some((Token::Ident("value"), _)) => Field::Value,
            Some((Token::Ident("seqno"), _)) => Field::Seqno,
            _ => return Err(self.err_here("expected '.value' or '.seqno'")),
        };
        Ok(Expr::Term { var, index, field })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_c1() {
        let e = parse("x[0].value > 3000").unwrap();
        assert_eq!(
            e,
            Expr::Binary {
                op: BinOp::Gt,
                lhs: Box::new(Expr::Term { var: "x".into(), index: 0, field: Field::Value }),
                rhs: Box::new(Expr::Num(3000.0)),
            }
        );
    }

    #[test]
    fn parses_c3_with_consecutive() {
        let e = parse("x[0].value - x[-1].value > 200 && consecutive(x)").unwrap();
        match e {
            Expr::Binary { op: BinOp::And, rhs, .. } => {
                assert_eq!(*rhs, Expr::Consecutive("x".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_and_over_or_arith_over_cmp() {
        // a || b && c  parses as  a || (b && c)
        let e = parse("true || false && false").unwrap();
        match e {
            Expr::Binary { op: BinOp::Or, rhs, .. } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        // 1 + 2 * 3 > 6  parses as  (1 + (2*3)) > 6
        let e = parse("1 + 2 * 3 > 6").unwrap();
        match e {
            Expr::Binary { op: BinOp::Gt, lhs, .. } => {
                assert!(matches!(*lhs, Expr::Binary { op: BinOp::Add, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unary_minus_and_not() {
        let e = parse("-x[0].value > -5").unwrap();
        match e {
            Expr::Binary { op: BinOp::Gt, lhs, rhs } => {
                assert!(matches!(*lhs, Expr::Unary { op: UnOp::Neg, .. }));
                assert!(matches!(*rhs, Expr::Unary { op: UnOp::Neg, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("!!consecutive(x)").is_ok());
    }

    #[test]
    fn functions_parse() {
        assert!(parse("abs(x[0].value) > 1").is_ok());
        assert!(parse("min(x[0].value, y[0].value) > 1").is_ok());
        assert!(parse("max(x[0].value, 3) > 1").is_ok());
    }

    #[test]
    fn window_aggregates_parse() {
        let e = parse("x[0].value >= max_over(x, 4)").unwrap();
        match e {
            Expr::Binary { rhs, .. } => {
                assert_eq!(*rhs, Expr::Agg { op: AggOp::Max, var: "x".into(), window: 4 })
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("avg_over(t, 3) > 100").is_ok());
        assert!(parse("sum_over(t, 2) - min_over(t, 2) > 0").is_ok());
    }

    #[test]
    fn window_aggregates_reject_bad_args() {
        assert!(parse("max_over(x, 0) > 1").is_err()); // zero window
        assert!(parse("max_over(x, 1.5) > 1").is_err()); // fractional
        assert!(parse("max_over(1, 2) > 1").is_err()); // not a variable
        assert!(parse("max_over(x) > 1").is_err()); // missing window
    }

    #[test]
    fn rejects_positive_history_index() {
        let err = parse("x[1].value > 0").unwrap_err();
        assert!(err.message.contains("zero or negative"));
    }

    #[test]
    fn rejects_fractional_index() {
        assert!(parse("x[0.5].value > 0").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse("x[0].value > 0 )").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn rejects_bad_field() {
        let err = parse("x[0].weight > 0").unwrap_err();
        assert!(err.message.contains(".value") || err.message.contains(".seqno"));
    }

    #[test]
    fn rejects_truncated_input() {
        assert!(parse("x[0].value >").is_err());
        assert!(parse("(x[0].value > 1").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn paren_grouping_overrides_precedence() {
        let e = parse("(1 + 2) * 3 > 0").unwrap();
        match e {
            Expr::Binary { op: BinOp::Gt, lhs, .. } => match *lhs {
                Expr::Binary { op: BinOp::Mul, lhs, .. } => {
                    assert!(matches!(*lhs, Expr::Binary { op: BinOp::Add, .. }));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
