//! Tokenizer for the condition expression language: a cursor over the
//! source that hands the parser one borrowed token at a time.

use std::fmt;

use super::parser::ParseError;

/// A lexical token; an identifier borrows its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Token<'a> {
    /// Identifier: variable name, field name or builtin function.
    Ident(&'a str),
    /// Numeric literal.
    Number(f64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Dot,
    Comma,
    Plus,
    Minus,
    Star,
    Slash,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
    AndAnd,
    OrOr,
    Bang,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let symbol = match self {
            Token::Ident(s) => s,
            Token::Number(n) => return write!(f, "{n}"),
            Token::LParen => "(",
            Token::RParen => ")",
            Token::LBracket => "[",
            Token::RBracket => "]",
            Token::Dot => ".",
            Token::Comma => ",",
            Token::Plus => "+",
            Token::Minus => "-",
            Token::Star => "*",
            Token::Slash => "/",
            Token::Lt => "<",
            Token::Le => "<=",
            Token::Gt => ">",
            Token::Ge => ">=",
            Token::EqEq => "==",
            Token::Ne => "!=",
            Token::AndAnd => "&&",
            Token::OrOr => "||",
            Token::Bang => "!",
        };
        f.write_str(symbol)
    }
}

/// A cursor over `src`: each [`Lexer::next_token`] skips whitespace and
/// comments and reads one token.
pub(super) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(super) fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    /// The next token and its byte offset; `None` at the end of input.
    /// An unexpected character or a malformed literal is an error at
    /// its offset.
    pub(super) fn next_token(&mut self) -> Result<Option<(Token<'a>, usize)>, ParseError> {
        let bytes = self.src.as_bytes();
        let mut i = self.pos;
        // Whitespace, and comments to the end of the line.
        while let Some(&b) = bytes.get(i) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => i += 1,
                b'#' => {
                    while bytes.get(i).is_some_and(|&b| b != b'\n') {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        let start = i;
        let Some(&first) = bytes.get(start) else {
            self.pos = start;
            return Ok(None);
        };
        let second = bytes.get(start + 1).copied();
        let error = |message: String| Err(ParseError { offset: start, message });
        let (token, len) = match (first, second) {
            (b'(', _) => (Token::LParen, 1),
            (b')', _) => (Token::RParen, 1),
            (b'[', _) => (Token::LBracket, 1),
            (b']', _) => (Token::RBracket, 1),
            (b'.', _) => (Token::Dot, 1),
            (b',', _) => (Token::Comma, 1),
            (b'+', _) => (Token::Plus, 1),
            (b'-', _) => (Token::Minus, 1),
            (b'*', _) => (Token::Star, 1),
            (b'/', _) => (Token::Slash, 1),
            (b'<', Some(b'=')) => (Token::Le, 2),
            (b'<', _) => (Token::Lt, 1),
            (b'>', Some(b'=')) => (Token::Ge, 2),
            (b'>', _) => (Token::Gt, 1),
            (b'=', Some(b'=')) => (Token::EqEq, 2),
            (b'=', _) => return error("single '=' is not an operator; use '=='".into()),
            (b'!', Some(b'=')) => (Token::Ne, 2),
            (b'!', _) => (Token::Bang, 1),
            (b'&', Some(b'&')) => (Token::AndAnd, 2),
            (b'&', _) => return error("single '&' is not an operator; use '&&'".into()),
            (b'|', Some(b'|')) => (Token::OrOr, 2),
            (b'|', _) => return error("single '|' is not an operator; use '||'".into()),
            (b'0'..=b'9', _) => {
                let end = number_end(bytes, start);
                let text = &self.src[start..end];
                match text.parse() {
                    Ok(n) => (Token::Number(n), end - start),
                    Err(_) => return error(format!("malformed number literal '{text}'")),
                }
            }
            (c, _) if c.is_ascii_alphabetic() || c == b'_' => {
                let mut end = start + 1;
                while bytes.get(end).is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_') {
                    end += 1;
                }
                (Token::Ident(&self.src[start..end]), end - start)
            }
            // A byte of a multi-byte character reads as the Latin-1
            // character of that byte.
            (other, _) => return error(format!("unexpected character '{}'", other as char)),
        };
        self.pos = start + len;
        Ok(Some((token, start)))
    }
}

/// The end of the number literal starting at `start`: digits, an
/// optional fraction (a dot followed by a digit) and an optional
/// exponent (`e`/`E`, an optional sign and at least one digit).
fn number_end(bytes: &[u8], start: usize) -> usize {
    let digits = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let mut i = digits(start);
    if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
        i = digits(i + 1);
    }
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        let mut j = i + 1;
        if matches!(bytes.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if bytes.get(j).is_some_and(u8::is_ascii_digit) {
            i = digits(j);
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> Result<Vec<(Token<'_>, usize)>, ParseError> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        while let Some(token) = lexer.next_token()? {
            out.push(token);
        }
        Ok(out)
    }

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn lexes_c3() {
        let t = toks("x[0].value - x[-1].value > 200 && consecutive(x)");
        assert_eq!(t[0], Token::Ident("x"));
        assert_eq!(t[1], Token::LBracket);
        assert_eq!(t[2], Token::Number(0.0));
        assert!(t.contains(&Token::AndAnd));
        assert!(t.contains(&Token::Ident("consecutive")));
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            toks("<= >= == != && ||"),
            vec![Token::Le, Token::Ge, Token::EqEq, Token::Ne, Token::AndAnd, Token::OrOr]
        );
    }

    #[test]
    fn decimals_and_integers() {
        assert_eq!(toks("3.25 7"), vec![Token::Number(3.25), Token::Number(7.0)]);
        assert_eq!(
            toks("1e3 2.5e-2 1E+2"),
            vec![Token::Number(1000.0), Token::Number(0.025), Token::Number(100.0)]
        );
        // 'e' not followed by digits stays an identifier.
        assert_eq!(toks("1e"), vec![Token::Number(1.0), Token::Ident("e")]);
        // '5.' is Number(5) followed by Dot (field access style).
        assert_eq!(toks("5.x"), vec![Token::Number(5.0), Token::Dot, Token::Ident("x")]);
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("1 # the rest is ignored\n+ 2"),
            vec![Token::Number(1.0), Token::Plus, Token::Number(2.0)]
        );
    }

    #[test]
    fn rejects_single_ampersand_pipe_equals() {
        assert!(lex("a & b").is_err());
        assert!(lex("a | b").is_err());
        assert!(lex("a = b").is_err());
        assert!(lex("a $ b").is_err());
        let err = lex("a é").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (2, "unexpected character 'Ã'"));
    }

    #[test]
    fn offsets_point_at_tokens() {
        let lexed = lex("ab + cd").unwrap();
        assert_eq!(lexed[0].1, 0);
        assert_eq!(lexed[1].1, 3);
        assert_eq!(lexed[2].1, 5);
    }

    #[test]
    fn empty_input_is_no_tokens() {
        assert!(lex("   ").unwrap().is_empty());
        assert!(lex("# only a comment").unwrap().is_empty());
    }
}
