//! Recursive-descent parser for the property surface syntax.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! clocked   := property ('@' context)?
//! property  := implies
//! implies   := untilrel ('->' implies)?                 (right-assoc)
//! untilrel  := or (('until' | 'release') or)*           (left-assoc)
//! or        := and ('||' and)*
//! and       := unary ('&&' unary)*
//! unary     := '!' unary
//!            | 'next' ('[' INT ']')? unary
//!            | 'next_et' '[' INT ',' INT ']' unary
//!            | 'always' unary
//!            | 'never' unary              (sugar: always !p)
//!            | 'eventually' unary
//!            | primary
//! primary   := 'true' | 'false' | '(' property ')' | atom
//! atom      := IDENT (('==' | '!=' | '<' | '<=' | '>' | '>=') INT)?
//! context   := 'clk' | 'clk_pos' | 'clk_neg' | 'true' | 'T_b'
//!            | '(' context_head '&&' property ')'
//! ```
//!
//! Boolean operators bind tighter than `until`/`release`, matching PSL.
//! Keywords cannot be used as signal names.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::ast::{ClockedProperty, Property};
use crate::atom::{Atom, CmpOp};
use crate::context::{ClockEdge, EvalContext};
use crate::lexer::{lex, LexError, Spanned, Token};

/// Keywords of the language; rejected as signal names.
const KEYWORDS: &[&str] = &[
    "always",
    "never",
    "eventually",
    "next",
    "next_et",
    "until",
    "release",
    "true",
    "false",
];

/// The deepest property the parser accepts. It bounds both the parser's
/// recursion (each parenthesis and each prefix operator, `!`, `next`,
/// `always`, …, is one level; so is each right-nested `->`) and the height
/// of the tree it builds, so that the parser and every pass recursing over
/// a parsed property (NNF, push-ahead, abstraction, display, checker
/// synthesis) stay well within a 2 MiB thread stack: 64 nested
/// parentheses take about 0.6 MB of stack in an unoptimised build. The
/// shipped suites nest at most 9 deep.
pub const MAX_DEPTH: usize = 64;

/// Error produced when a property fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset in the source where the failure was detected.
    pub pos: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.pos)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: format!("unexpected character `{}`", e.found),
            pos: e.pos,
        }
    }
}

/// Parses a bare property (no evaluation context).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing tokens.
///
/// ```
/// let p = psl::parser::parse_property("!ds || next[17] (out != 0)")?;
/// assert_eq!(p.signals(), vec!["ds", "out"]);
/// # Ok::<(), psl::ParseError>(())
/// ```
pub fn parse_property(src: &str) -> Result<Property, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(&tokens, src);
    let (prop, _) = p.property()?;
    p.expect_end()?;
    Ok(prop)
}

/// Parses a property followed by an optional `@` context (defaulting to the
/// base clock context `@true` when absent).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing tokens.
///
/// ```
/// let p = psl::parser::parse_clocked("always (!ds || next rdy) @clk_pos")?;
/// assert!(p.context.is_clock());
/// # Ok::<(), psl::ParseError>(())
/// ```
pub fn parse_clocked(src: &str) -> Result<ClockedProperty, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(&tokens, src);
    let (prop, _) = p.property()?;
    let context = if p.eat(&Token::At) {
        p.context()?
    } else {
        EvalContext::clk_true()
    };
    p.expect_end()?;
    Ok(ClockedProperty::new(prop, context))
}

impl FromStr for Property {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Property, ParseError> {
        parse_property(s)
    }
}

impl FromStr for ClockedProperty {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<ClockedProperty, ParseError> {
        parse_clocked(s)
    }
}

/// A parsed subtree and its height (nodes on its longest root-to-leaf
/// path).
type Tree = (Property, usize);

struct Parser<'a> {
    tokens: &'a [Spanned],
    idx: usize,
    len: usize,
    /// Current recursion depth, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: &'a [Spanned], src: &str) -> Parser<'a> {
        Parser {
            tokens,
            idx: 0,
            len: src.len(),
            depth: 0,
        }
    }

    /// The error for input nesting deeper than [`MAX_DEPTH`].
    fn too_deep(&self) -> ParseError {
        self.error(format!("property nests deeper than {MAX_DEPTH} levels"))
    }

    /// `height`, checked against [`MAX_DEPTH`].
    fn height(&self, height: usize) -> Result<usize, ParseError> {
        if height > MAX_DEPTH {
            Err(self.too_deep())
        } else {
            Ok(height)
        }
    }

    /// Parses with `f` one recursion level down, failing before the
    /// recursion exceeds [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// `inner` under `levels` more nodes built by `wrap`.
    fn wrap(
        &self,
        (inner, height): Tree,
        levels: usize,
        wrap: impl FnOnce(Property) -> Property,
    ) -> Result<Tree, ParseError> {
        Ok((wrap(inner), self.height(height + levels)?))
    }

    /// `lhs` and `rhs` joined under one node built by `join`.
    fn join(
        &self,
        (lhs, lh): Tree,
        (rhs, rh): Tree,
        join: impl FnOnce(Property, Property) -> Property,
    ) -> Result<Tree, ParseError> {
        Ok((join(lhs, rhs), self.height(lh.max(rh) + 1)?))
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.idx).map(|s| &s.token)
    }

    fn pos(&self) -> usize {
        self.tokens.get(self.idx).map_or(self.len, |s| s.pos)
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.idx).map(|s| &s.token);
        if t.is_some() {
            self.idx += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.idx += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected {t}")))
        }
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(self.error(format!("unexpected trailing {t}"))),
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            pos: self.pos(),
        }
    }

    fn int(&mut self) -> Result<u64, ParseError> {
        match self.peek() {
            Some(&Token::Int(v)) => {
                self.idx += 1;
                Ok(v)
            }
            other => {
                let msg = match other {
                    Some(t) => format!("expected integer, found {t}"),
                    None => "expected integer, found end of input".to_owned(),
                };
                Err(self.error(msg))
            }
        }
    }

    fn property(&mut self) -> Result<Tree, ParseError> {
        self.implies()
    }

    fn implies(&mut self) -> Result<Tree, ParseError> {
        let lhs = self.until_release()?;
        if self.eat(&Token::Arrow) {
            let rhs = self.nested(Self::implies)?;
            self.join(lhs, rhs, Property::implies)
        } else {
            Ok(lhs)
        }
    }

    fn until_release(&mut self) -> Result<Tree, ParseError> {
        let mut lhs = self.or()?;
        loop {
            let is_until = matches!(self.peek(), Some(Token::Ident(k)) if k == "until");
            let is_release = matches!(self.peek(), Some(Token::Ident(k)) if k == "release");
            if is_until {
                self.idx += 1;
                let rhs = self.or()?;
                lhs = self.join(lhs, rhs, Property::until)?;
            } else if is_release {
                self.idx += 1;
                let rhs = self.or()?;
                lhs = self.join(lhs, rhs, Property::release)?;
            } else {
                return Ok(lhs);
            }
        }
    }

    fn or(&mut self) -> Result<Tree, ParseError> {
        let mut lhs = self.and()?;
        while self.eat(&Token::OrOr) {
            let rhs = self.and()?;
            lhs = self.join(lhs, rhs, Property::or)?;
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Tree, ParseError> {
        let mut lhs = self.unary()?;
        while self.eat(&Token::AndAnd) {
            let rhs = self.unary()?;
            lhs = self.join(lhs, rhs, Property::and)?;
        }
        Ok(lhs)
    }

    /// The operand of a prefix operator, one recursion level down.
    fn operand(&mut self) -> Result<Tree, ParseError> {
        self.nested(Self::unary)
    }

    fn unary(&mut self) -> Result<Tree, ParseError> {
        if self.eat(&Token::Bang) {
            let p = self.operand()?;
            return self.wrap(p, 1, Property::not);
        }
        if let Some(Token::Ident(k)) = self.peek() {
            match k.as_str() {
                "next" => {
                    self.idx += 1;
                    let n = if self.eat(&Token::LBracket) {
                        let n = self.int()?;
                        self.expect(&Token::RBracket)?;
                        u32::try_from(n)
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| self.error("next[n] requires 1 <= n <= u32::MAX"))?
                    } else {
                        1
                    };
                    let inner = self.operand()?;
                    return self.wrap(inner, 1, |p| Property::next_n(n, p));
                }
                "next_et" => {
                    self.idx += 1;
                    self.expect(&Token::LBracket)?;
                    let tau = self.int()?;
                    let tau =
                        u32::try_from(tau).map_err(|_| self.error("next_et tau out of range"))?;
                    self.expect(&Token::Comma)?;
                    let eps = self.int()?;
                    self.expect(&Token::RBracket)?;
                    let inner = self.operand()?;
                    return self.wrap(inner, 1, |p| Property::next_et(tau, eps, p));
                }
                "always" => {
                    self.idx += 1;
                    let inner = self.operand()?;
                    return self.wrap(inner, 1, Property::always);
                }
                // PSL's `never p` is sugar for `always !p`.
                "never" => {
                    self.idx += 1;
                    let inner = self.operand()?;
                    return self.wrap(inner, 2, |p| Property::always(Property::not(p)));
                }
                "eventually" => {
                    self.idx += 1;
                    let inner = self.operand()?;
                    return self.wrap(inner, 1, Property::eventually);
                }
                _ => {}
            }
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Tree, ParseError> {
        match self.peek() {
            Some(Token::LParen) => {
                self.idx += 1;
                let p = self.nested(Self::property)?;
                self.expect(&Token::RParen)?;
                Ok(p)
            }
            Some(Token::Ident(k)) if k == "true" => {
                self.idx += 1;
                Ok((Property::t(), 1))
            }
            Some(Token::Ident(k)) if k == "false" => {
                self.idx += 1;
                Ok((Property::f(), 1))
            }
            Some(Token::Ident(name)) => {
                if KEYWORDS.contains(&name.as_str()) {
                    return Err(self.error(format!("keyword `{name}` cannot start a term here")));
                }
                let name: Arc<str> = name.as_str().into();
                self.idx += 1;
                let op = match self.peek() {
                    Some(Token::EqEq) => Some(CmpOp::Eq),
                    Some(Token::NotEq) => Some(CmpOp::Ne),
                    Some(Token::Lt) => Some(CmpOp::Lt),
                    Some(Token::Le) => Some(CmpOp::Le),
                    Some(Token::Gt) => Some(CmpOp::Gt),
                    Some(Token::Ge) => Some(CmpOp::Ge),
                    _ => None,
                };
                let atom = if let Some(op) = op {
                    self.idx += 1;
                    let value = self.int()?;
                    Atom::cmp(name, op, value)
                } else {
                    Atom::bool(name)
                };
                Ok((Property::Atom(atom), 1))
            }
            other => {
                let msg = match other {
                    Some(t) => format!("expected a property, found {t}"),
                    None => "expected a property, found end of input".to_owned(),
                };
                Err(self.error(msg))
            }
        }
    }

    fn context(&mut self) -> Result<EvalContext, ParseError> {
        if self.eat(&Token::LParen) {
            let head = self.context_head()?;
            self.expect(&Token::AndAnd)?;
            let (guard, _) = self.nested(Self::property)?;
            self.expect(&Token::RParen)?;
            if !guard.is_boolean() {
                return Err(self.error("context guard must be a boolean expression"));
            }
            Ok(match head {
                ContextHead::Clock(edge) => EvalContext::Clock {
                    edge,
                    guard: Some(Box::new(guard)),
                },
                ContextHead::Transaction => EvalContext::Transaction {
                    guard: Some(Box::new(guard)),
                },
            })
        } else {
            Ok(match self.context_head()? {
                ContextHead::Clock(edge) => EvalContext::Clock { edge, guard: None },
                ContextHead::Transaction => EvalContext::Transaction { guard: None },
            })
        }
    }

    fn context_head(&mut self) -> Result<ContextHead, ParseError> {
        match self.bump() {
            Some(Token::Ident(k)) => match k.as_str() {
                "clk" => Ok(ContextHead::Clock(ClockEdge::Any)),
                "clk_pos" => Ok(ContextHead::Clock(ClockEdge::Pos)),
                "clk_neg" => Ok(ContextHead::Clock(ClockEdge::Neg)),
                "true" => Ok(ContextHead::Clock(ClockEdge::True)),
                "T_b" => Ok(ContextHead::Transaction),
                other => {
                    let message = format!(
                        "unknown context `{other}` (expected clk, clk_pos, clk_neg, true or T_b)"
                    );
                    Err(ParseError {
                        message,
                        pos: self.pos(),
                    })
                }
            },
            _ => Err(self.error("expected a context after `@`")),
        }
    }
}

enum ContextHead {
    Clock(ClockEdge),
    Transaction,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_p1() {
        let p: Property = "always (!(ds && indata == 0) || next[17](out != 0))"
            .parse()
            .unwrap();
        let expected = Property::always(
            Property::not(Property::bool_signal("ds").and(Property::cmp("indata", CmpOp::Eq, 0)))
                .or(Property::next_n(17, Property::cmp("out", CmpOp::Ne, 0))),
        );
        assert_eq!(p, expected);
    }

    #[test]
    fn parses_paper_p2() {
        let p: ClockedProperty = "always (!ds || (next (!ds until next(rdy)))) @clk_pos"
            .parse()
            .unwrap();
        let expected = Property::always(
            Property::not(Property::bool_signal("ds")).or(Property::next(
                Property::not(Property::bool_signal("ds"))
                    .until(Property::next(Property::bool_signal("rdy"))),
            )),
        );
        assert_eq!(p.property, expected);
        assert_eq!(p.context, EvalContext::clk_pos());
    }

    #[test]
    fn parses_paper_q2_with_next_et() {
        let q: ClockedProperty =
            "always (!ds || (next_et[1,10](!ds) until next_et[2,20](rdy))) @T_b"
                .parse()
                .unwrap();
        let expected = Property::always(
            Property::not(Property::bool_signal("ds")).or(Property::next_et(
                1,
                10,
                Property::not(Property::bool_signal("ds")),
            )
            .until(Property::next_et(2, 20, Property::bool_signal("rdy")))),
        );
        assert_eq!(q.property, expected);
        assert_eq!(q.context, EvalContext::tb());
    }

    #[test]
    fn boolean_ops_bind_tighter_than_until() {
        let p: Property = "a || b until c && d".parse().unwrap();
        let expected = Property::bool_signal("a")
            .or(Property::bool_signal("b"))
            .until(Property::bool_signal("c").and(Property::bool_signal("d")));
        assert_eq!(p, expected);
    }

    #[test]
    fn implication_is_right_associative_and_lowest() {
        let p: Property = "a -> b -> c".parse().unwrap();
        let expected = Property::bool_signal("a")
            .implies(Property::bool_signal("b").implies(Property::bool_signal("c")));
        assert_eq!(p, expected);
    }

    #[test]
    fn until_is_left_associative() {
        let p: Property = "a until b until c".parse().unwrap();
        let expected = Property::bool_signal("a")
            .until(Property::bool_signal("b"))
            .until(Property::bool_signal("c"));
        assert_eq!(p, expected);
    }

    #[test]
    fn default_context_is_base_clock() {
        let p: ClockedProperty = "always rdy".parse().unwrap();
        assert_eq!(p.context, EvalContext::clk_true());
    }

    #[test]
    fn guarded_contexts() {
        let p: ClockedProperty = "rdy @(clk_pos && mode == 1)".parse().unwrap();
        assert_eq!(
            p.context,
            EvalContext::clock_guarded(ClockEdge::Pos, Property::cmp("mode", CmpOp::Eq, 1))
        );
        let q: ClockedProperty = "rdy @(T_b && mode == 1)".parse().unwrap();
        assert_eq!(
            q.context,
            EvalContext::tb_guarded(Property::cmp("mode", CmpOp::Eq, 1))
        );
    }

    #[test]
    fn rejects_temporal_guard() {
        let err = "rdy @(clk_pos && next rdy)"
            .parse::<ClockedProperty>()
            .unwrap_err();
        assert!(err.message.contains("boolean"), "{err}");
    }

    #[test]
    fn rejects_keyword_as_signal() {
        let err = "always && rdy".parse::<Property>().unwrap_err();
        assert!(
            err.message.contains("property") || err.message.contains("keyword"),
            "{err}"
        );
    }

    #[test]
    fn rejects_trailing_tokens() {
        let err = "rdy rdy".parse::<Property>().unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_next_zero() {
        let err = "next[0] rdy".parse::<Property>().unwrap_err();
        assert!(err.message.contains("next[n]"), "{err}");
    }

    #[test]
    fn rejects_unknown_context() {
        let err = "rdy @bogus".parse::<ClockedProperty>().unwrap_err();
        assert!(err.message.contains("unknown context"), "{err}");
    }

    #[test]
    fn hex_literals() {
        let p: Property = "out == 0xFF".parse().unwrap();
        assert_eq!(p, Property::cmp("out", CmpOp::Eq, 255));
    }

    #[test]
    fn never_desugars_to_always_not() {
        let p: Property = "never (rdy && ds)".parse().unwrap();
        let expected = Property::always(Property::not(
            Property::bool_signal("rdy").and(Property::bool_signal("ds")),
        ));
        assert_eq!(p, expected);
        // Round-trips through the desugared form.
        assert_eq!(p.to_string().parse::<Property>().unwrap(), p);
    }

    #[test]
    fn nesting_beyond_the_limit_is_a_parse_error() {
        let deep = 10 * MAX_DEPTH;
        let parens = format!("{}rdy{}", "(".repeat(deep), ")".repeat(deep));
        let bangs = format!("{}rdy", "!".repeat(2 * deep));
        let nexts = format!("{}rdy", "next ".repeat(deep));
        let chain = vec!["rdy"; deep].join(" && ");
        let implications = vec!["rdy"; deep].join(" -> ");
        let guard = format!("rdy @(clk_pos && {parens})");
        for src in [&parens, &bangs, &nexts, &chain, &implications, &guard] {
            let err = src.parse::<ClockedProperty>().unwrap_err();
            assert_eq!(
                err.message,
                format!("property nests deeper than {MAX_DEPTH} levels"),
                "{}…",
                &src[..20]
            );
            assert!(err.pos > 0 && err.pos < src.len(), "{err}");
        }
        // The 257th parenthesis is the one that does not fit.
        let err = parens.parse::<Property>().unwrap_err();
        assert_eq!(err.pos, MAX_DEPTH + 1);
    }

    #[test]
    fn the_deepest_accepted_property_survives_every_pass_on_a_small_stack() {
        // MAX_DEPTH levels of recursion (`always`, then `!(` … `)` pairs,
        // two levels each) and a tree of height MAX_DEPTH - 1 from a
        // conjunction chain inside.
        let pairs = (MAX_DEPTH - 2) / 2;
        let chain = vec!["rdy"; MAX_DEPTH - 2 - pairs].join(" && ");
        let src = format!(
            "always {}({chain}){} @clk_pos",
            "!(".repeat(pairs),
            ")".repeat(pairs)
        );
        let over = src.replacen("always ", "always !", 1);
        let sizes = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let p: ClockedProperty = src.parse().expect("at the limit");
                let nnf = crate::nnf::to_nnf(&p.property);
                let pushed = crate::push_ahead::push_ahead(&nnf).expect("pushes");
                (
                    p.property.size(),
                    nnf.size(),
                    pushed.size(),
                    p.to_string().len(),
                )
            })
            .expect("spawns")
            .join()
            .expect("no stack overflow");
        assert!(sizes.0 > MAX_DEPTH && sizes.1 > 0 && sizes.2 > 0 && sizes.3 > 0);
        // One level more is refused.
        assert!(over.parse::<ClockedProperty>().is_err());
    }

    #[test]
    fn double_negation_parses() {
        let p: Property = "!!rdy".parse().unwrap();
        assert_eq!(
            p,
            Property::not(Property::not(Property::bool_signal("rdy")))
        );
    }
}
