//! A parser for the paper's textual entangled-query syntax.
//!
//! The paper writes queries as `{P} H :- B`, e.g.
//!
//! ```text
//! q1: {R(Chris, x)} R(Gwyneth, x) :- Flights(x, Zurich)
//! ```
//!
//! This module parses that notation into [`EntangledQuery`] values,
//! following the paper's naming convention: identifiers starting with an
//! **uppercase** letter (or written as quoted strings / integers) are
//! constants; identifiers starting with a **lowercase** letter are
//! variables. The empty body may be written `∅` or omitted entirely.
//! [`parse_query`] round-trips with the query's `Display` implementation.
//!
//! ```
//! use coord_core::parse::parse_query;
//!
//! let q = parse_query("q1: {R(Chris, x)} R(Gwyneth, x) :- Flights(x, Zurich)").unwrap();
//! assert_eq!(q.name(), "q1");
//! assert_eq!(q.postconditions().len(), 1);
//! assert_eq!(q.to_string(), "q1: {R(Chris, x)} R(Gwyneth, x) :- Flights(x, Zurich)");
//! ```

use crate::error::CoordError;
use crate::query::{EntangledQuery, QueryBuilder};
use std::fmt;

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Str(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Colon,
    Turnstile, // ":-"
    EmptySet,  // "∅"
}

struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    tokens: Vec<(usize, Token)>,
}

impl<'a> Lexer<'a> {
    fn lex(input: &'a str) -> Result<Vec<(usize, Token)>, ParseError> {
        let mut l = Lexer {
            input,
            pos: 0,
            tokens: Vec::new(),
        };
        l.run()?;
        Ok(l.tokens)
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn run(&mut self) -> Result<(), ParseError> {
        while self.pos < self.input.len() {
            let rest = self.rest();
            let c = rest.chars().next().expect("non-empty rest");
            if c.is_whitespace() {
                self.pos += c.len_utf8();
                continue;
            }
            let start = self.pos;
            if rest.starts_with(":-") {
                self.tokens.push((start, Token::Turnstile));
                self.pos += 2;
            } else if rest.starts_with('∅') {
                self.tokens.push((start, Token::EmptySet));
                self.pos += '∅'.len_utf8();
            } else if let Some(tok) = Self::punct(c) {
                self.tokens.push((start, tok));
                self.pos += c.len_utf8();
            } else if c == '"' {
                self.lex_string()?;
            } else if c.is_ascii_digit()
                || (c == '-' && rest[1..].starts_with(|d: char| d.is_ascii_digit()))
            {
                self.lex_int()?;
            } else if c.is_alphanumeric() || c == '_' {
                self.lex_ident();
            } else {
                return Err(ParseError {
                    offset: start,
                    message: format!("unexpected character `{c}`"),
                });
            }
        }
        Ok(())
    }

    fn punct(c: char) -> Option<Token> {
        match c {
            '{' => Some(Token::LBrace),
            '}' => Some(Token::RBrace),
            '(' => Some(Token::LParen),
            ')' => Some(Token::RParen),
            ',' => Some(Token::Comma),
            ':' => Some(Token::Colon),
            _ => None,
        }
    }

    fn lex_string(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        self.pos += 1; // opening quote
        let mut out = String::new();
        for c in self.rest().chars() {
            self.pos += c.len_utf8();
            if c == '"' {
                self.tokens.push((start, Token::Str(out)));
                return Ok(());
            }
            out.push(c);
        }
        Err(ParseError {
            offset: start,
            message: "unterminated string".into(),
        })
    }

    fn lex_int(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        let mut end = self.pos;
        for (i, c) in self.rest().char_indices() {
            if (i == 0 && c == '-') || c.is_ascii_digit() {
                end = self.pos + i + c.len_utf8();
            } else {
                break;
            }
        }
        let text = &self.input[start..end];
        let value: i64 = text.parse().map_err(|_| ParseError {
            offset: start,
            message: format!("invalid integer `{text}`"),
        })?;
        self.tokens.push((start, Token::Int(value)));
        self.pos = end;
        Ok(())
    }

    fn lex_ident(&mut self) {
        let start = self.pos;
        let mut end = self.pos;
        for (i, c) in self.rest().char_indices() {
            if c.is_alphanumeric() || c == '_' || c == '*' {
                end = self.pos + i + c.len_utf8();
            } else {
                break;
            }
        }
        let text = self.input[start..end].to_string();
        self.tokens.push((start, Token::Ident(text)));
        self.pos = end;
    }
}

struct Parser {
    tokens: Vec<(usize, Token)>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map_or(self.input_len, |(o, _)| *o)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Token, what: &str) -> Result<(), ParseError> {
        let offset = self.offset();
        match self.next() {
            Some(ref t) if t == want => Ok(()),
            other => Err(ParseError {
                offset,
                message: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn eat(&mut self, want: &Token) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// atoms := atom (',' atom)*   (stops before `:-` / `}`)
    fn atoms(&mut self, b: &mut Option<QueryBuilder>, kind: AtomKind) -> Result<usize, ParseError> {
        let mut count = 0;
        loop {
            self.atom(b, kind)?;
            count += 1;
            if !self.eat(&Token::Comma) {
                return Ok(count);
            }
        }
    }

    fn atom(&mut self, b: &mut Option<QueryBuilder>, kind: AtomKind) -> Result<(), ParseError> {
        let offset = self.offset();
        let relation = match self.next() {
            Some(Token::Ident(name)) => name,
            other => {
                return Err(ParseError {
                    offset,
                    message: format!("expected relation name, found {other:?}"),
                })
            }
        };
        self.expect(&Token::LParen, "`(`")?;
        // Collect argument tokens first, then feed the builder closure.
        let mut args: Vec<Arg> = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                let offset = self.offset();
                match self.next() {
                    Some(Token::Ident(text)) => {
                        let first = text.chars().next().expect("non-empty ident");
                        if first.is_uppercase() {
                            args.push(Arg::Const(text));
                        } else {
                            args.push(Arg::Var(text));
                        }
                    }
                    Some(Token::Int(v)) => args.push(Arg::Int(v)),
                    Some(Token::Str(s)) => args.push(Arg::Const(s)),
                    other => {
                        return Err(ParseError {
                            offset,
                            message: format!("expected term, found {other:?}"),
                        })
                    }
                }
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(&Token::RParen, "`)`")?;

        let builder = b.take().expect("builder present");
        *b = Some(match kind {
            AtomKind::Postcondition => builder.postcondition(relation, |a| push_args(a, &args)),
            AtomKind::Head => builder.head(relation, |a| push_args(a, &args)),
            AtomKind::Body => builder.body(relation, |a| push_args(a, &args)),
        });
        Ok(())
    }
}

#[derive(Clone, Copy)]
enum AtomKind {
    Postcondition,
    Head,
    Body,
}

enum Arg {
    Var(String),
    Const(String),
    Int(i64),
}

fn push_args<'b>(mut a: crate::query::AtomArgs<'b>, args: &[Arg]) -> crate::query::AtomArgs<'b> {
    for arg in args {
        a = match arg {
            Arg::Var(name) => a.var(name),
            Arg::Const(text) => a.constant(text.as_str()),
            Arg::Int(v) => a.constant(*v),
        };
    }
    a
}

/// Parse one entangled query from the paper's notation.
///
/// Grammar (whitespace-insensitive):
///
/// ```text
/// query  := [name ':'] '{' [atoms] '}' atoms [':-' (atoms | '∅')]
/// atom   := relation '(' [term {',' term}] ')'
/// term   := Ident | integer | '"' chars '"'
/// ```
///
/// Uppercase-initial identifiers and quoted strings are constants;
/// lowercase-initial identifiers are variables.
pub fn parse_query(input: &str) -> Result<EntangledQuery, CoordError> {
    parse_query_inner(input).map_err(|e| CoordError::Parse {
        message: e.to_string(),
    })
}

fn parse_query_inner(input: &str) -> Result<EntangledQuery, ParseError> {
    let tokens = Lexer::lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
    };

    // Optional leading `name :` (only when followed by a colon that is
    // not part of `:-`, which the lexer already distinguishes).
    let name = match (p.peek(), p.tokens.get(p.pos + 1).map(|(_, t)| t)) {
        (Some(Token::Ident(n)), Some(Token::Colon)) => {
            let n = n.clone();
            p.pos += 2;
            n
        }
        _ => "q".to_string(),
    };

    let mut builder = Some(QueryBuilder::new(name));

    // Postconditions.
    p.expect(&Token::LBrace, "`{`")?;
    if p.peek() != Some(&Token::RBrace) {
        p.atoms(&mut builder, AtomKind::Postcondition)?;
    }
    p.expect(&Token::RBrace, "`}`")?;

    // Heads.
    p.atoms(&mut builder, AtomKind::Head)?;

    // Optional body.
    if p.eat(&Token::Turnstile) && !p.eat(&Token::EmptySet) {
        p.atoms(&mut builder, AtomKind::Body)?;
    }

    if p.peek().is_some() {
        return Err(ParseError {
            offset: p.offset(),
            message: "trailing input after query".into(),
        });
    }

    builder
        .expect("builder present")
        .build()
        .map_err(|e| ParseError {
            offset: 0,
            message: e.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coord_db::{Term, Value};

    #[test]
    fn parses_the_running_example() {
        let q = parse_query("q1: {R(Chris, x)} R(Gwyneth, x) :- Flights(x, Zurich)").unwrap();
        assert_eq!(q.name(), "q1");
        assert_eq!(q.postconditions().len(), 1);
        assert_eq!(q.heads().len(), 1);
        assert_eq!(q.body().len(), 1);
        // Same variable shared across the three atoms.
        let pv = q.postconditions()[0].terms[1].as_var().unwrap();
        let hv = q.heads()[0].terms[1].as_var().unwrap();
        let bv = q.body()[0].terms[0].as_var().unwrap();
        assert_eq!(pv, hv);
        assert_eq!(hv, bv);
    }

    #[test]
    fn display_round_trip() {
        let text = "qG: {R(C, y1), Q(C, y2)} R(G, y1), Q(G, y2) :- F(y1, Paris), H(y2, Paris)";
        let q = parse_query(text).unwrap();
        assert_eq!(q.to_string(), text);
        // Parsing the rendering again yields an equal query.
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn empty_postconditions_and_body() {
        let q = parse_query("{} C(1)").unwrap();
        assert!(q.postconditions().is_empty());
        assert!(q.body().is_empty());
        let q2 = parse_query("{} C(1) :- ∅").unwrap();
        assert!(q2.body().is_empty());
    }

    #[test]
    fn integers_and_quoted_strings_are_constants() {
        let q = parse_query(r#"{} R(42, "New York", x) :- D(x)"#).unwrap();
        let terms = &q.heads()[0].terms;
        assert_eq!(terms[0], Term::Const(Value::int(42)));
        assert_eq!(terms[1], Term::Const(Value::str("New York")));
        assert!(terms[2].as_var().is_some());
    }

    #[test]
    fn negative_integers() {
        let q = parse_query("{} R(-7)").unwrap();
        assert_eq!(q.heads()[0].terms[0], Term::Const(Value::int(-7)));
    }

    #[test]
    fn case_determines_var_vs_const() {
        let q = parse_query("{} R(chris, Chris)").unwrap();
        assert!(q.heads()[0].terms[0].as_var().is_some());
        assert_eq!(q.heads()[0].terms[1], Term::Const(Value::str("Chris")));
    }

    #[test]
    fn reduction_style_names_with_star() {
        // Appendix B uses literal names like X*1.
        let q = parse_query("{R(y, S1)} R(x, X*1) :- Fl(x, OneMar)").unwrap();
        assert_eq!(q.heads()[0].terms[1], Term::Const(Value::str("X*1")));
    }

    #[test]
    fn errors_carry_position_and_message() {
        let err = parse_query("q1: {R(Chris, x)} :- F(x)").unwrap_err();
        assert!(err.to_string().contains("expected relation name"), "{err}");
        let err2 = parse_query("{R(x)} R(x) :- F(x) garbage(").unwrap_err();
        assert!(err2.to_string().contains("trailing") || err2.to_string().contains("expected"));
        let err3 = parse_query("{} R(\"unterminated)").unwrap_err();
        assert!(err3.to_string().contains("unterminated"), "{err3}");
    }

    #[test]
    fn parsed_queries_coordinate_end_to_end() {
        let mut db = coord_db::Database::new();
        db.create_table("Flights", &["id", "dest"]).unwrap();
        db.insert("Flights", vec![Value::int(101), Value::str("Zurich")])
            .unwrap();
        let queries = vec![
            parse_query("q1: {R(Chris, x)} R(Gwyneth, x) :- Flights(x, Zurich)").unwrap(),
            parse_query("q2: {} R(Chris, y) :- Flights(y, Zurich)").unwrap(),
        ];
        let out = crate::scc::SccCoordinator::new(&db).run(&queries).unwrap();
        assert_eq!(out.best().unwrap().len(), 2);
    }
}
