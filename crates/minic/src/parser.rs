//! Recursive-descent parser for minic.
//!
//! The grammar (roughly):
//!
//! ```text
//! unit      := function*
//! function  := "void" IDENT ("::" IDENT)? "(" ")" block
//! block     := "{" stmt* "}"
//! stmt      := decl | assign | write | if | while | for
//!            | "return" ";" | "break" ";" | "continue" ";" | block | expr ";"
//! decl      := type IDENT ("=" expr)? ";"
//! assign    := IDENT ("=" | "+=" | "-=" | "*=" | "/=") expr ";"
//!            | IDENT ("++" | "--") ";"
//! write     := IDENT "." "write" "(" expr ")" ";"
//! if        := "if" "(" expr ")" stmt ("else" stmt)?
//! while     := "while" "(" expr ")" stmt
//! for       := "for" "(" simple? ";" expr? ";" simple? ")" stmt
//! expr      := or
//! or        := and ("||" and)*
//! and       := eq ("&&" eq)*
//! eq        := rel (("=="|"!=") rel)*
//! rel       := add (("<"|"<="|">"|">=") add)*
//! add       := mul (("+"|"-") mul)*
//! mul       := unary (("*"|"/"|"%") unary)*
//! unary     := ("-"|"!") unary | primary
//! primary   := literal | IDENT | IDENT "(" args ")" | IDENT "." IDENT "(" args ")"
//!            | "(" expr ")"
//! ```
//!
//! Single statements in `if`/`while`/`for` bodies are normalised into
//! one-statement [`Block`]s so later stages only deal with blocks.

use crate::ast::*;
use crate::diag::{MinicError, Result};
use crate::lexer::lex;
use crate::token::{Span, Token, TokenKind};

/// Parses a full translation unit from source text.
///
/// # Errors
///
/// Returns the first lexical or syntax error encountered.
///
/// ```
/// let tu = minic::parse("void TS::processing() { double t = ip_in * 1000; }")?;
/// assert_eq!(tu.functions[0].model, "TS");
/// # Ok::<(), minic::MinicError>(())
/// ```
pub fn parse(src: &str) -> Result<TranslationUnit> {
    let tokens = lex(src)?;
    Parser::new(tokens).unit()
}

/// Parses a single statement (useful in tests and tools).
///
/// # Errors
///
/// Returns the first lexical or syntax error encountered.
pub fn parse_stmt(src: &str) -> Result<Stmt> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let s = p.stmt()?;
    p.expect_eof()?;
    Ok(s)
}

/// Parses a single expression.
///
/// # Errors
///
/// Returns the first lexical or syntax error encountered.
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            next_id: 0,
        }
    }

    fn fresh_id(&mut self) -> StmtId {
        let id = StmtId(self.next_id);
        self.next_id += 1;
        id
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek2_kind(&self) -> &TokenKind {
        let i = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    /// Consumes the current token. Its kind is moved out, not cloned: the
    /// parser never looks behind the cursor except at a consumed token's
    /// span. The final `Eof` is never consumed, so it stays in place.
    fn bump(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos >= last {
            return self.tokens[last].clone();
        }
        let t = &mut self.tokens[self.pos];
        self.pos += 1;
        Token {
            kind: std::mem::replace(&mut t.kind, TokenKind::Eof),
            span: t.span,
        }
    }

    /// Consumes the identifier the caller peeked.
    fn bump_ident(&mut self) -> (String, Span) {
        match self.bump() {
            Token {
                kind: TokenKind::Ident(name),
                span,
            } => (name, span),
            _ => unreachable!("caller peeked an identifier"),
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token> {
        if self.peek_kind() == &kind {
            Ok(self.bump())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek_kind().describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span)> {
        match self.peek_kind() {
            TokenKind::Ident(_) => Ok(self.bump_ident()),
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek_kind() == &TokenKind::Eof {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected end of input, found {}",
                self.peek_kind().describe()
            )))
        }
    }

    fn error(&self, msg: String) -> MinicError {
        MinicError::parse(self.peek().span.start, msg)
    }

    // ---------------------------------------------------------------- unit

    fn unit(&mut self) -> Result<TranslationUnit> {
        let mut functions = Vec::new();
        while self.peek_kind() != &TokenKind::Eof {
            functions.push(self.function()?);
        }
        Ok(TranslationUnit {
            functions,
            stmt_count: self.next_id,
        })
    }

    fn function(&mut self) -> Result<Function> {
        let start = self.expect(TokenKind::KwVoid)?.span;
        let (first, _) = self.expect_ident()?;
        let (model, name) = if self.eat(&TokenKind::ColonColon) {
            let (method, _) = self.expect_ident()?;
            (first, method)
        } else {
            (String::new(), first)
        };
        self.expect(TokenKind::LParen)?;
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.merge(body.span);
        Ok(Function {
            model,
            name,
            body,
            span,
        })
    }

    // ---------------------------------------------------------------- stmts

    fn block(&mut self) -> Result<Block> {
        let open = self.expect(TokenKind::LBrace)?.span;
        let mut stmts = Vec::new();
        while self.peek_kind() != &TokenKind::RBrace {
            if self.peek_kind() == &TokenKind::Eof {
                return Err(self.error("unclosed block: expected `}`".into()));
            }
            stmts.push(self.stmt()?);
        }
        let close = self.bump().span;
        Ok(Block {
            stmts,
            span: open.merge(close),
        })
    }

    /// Parses a statement; single statements after `if`/`while`/`for` are
    /// wrapped into one-statement blocks by [`Parser::body`].
    fn stmt(&mut self) -> Result<Stmt> {
        match self.peek_kind() {
            TokenKind::KwDouble | TokenKind::KwInt | TokenKind::KwBool => self.decl(),
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => self.while_stmt(),
            TokenKind::KwFor => self.for_stmt(),
            TokenKind::KwReturn => {
                let id = self.fresh_id();
                let span = self.bump().span;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    id,
                    kind: StmtKind::Return,
                    span: span.merge(end),
                })
            }
            TokenKind::KwBreak => {
                let id = self.fresh_id();
                let span = self.bump().span;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    id,
                    kind: StmtKind::Break,
                    span: span.merge(end),
                })
            }
            TokenKind::KwContinue => {
                let id = self.fresh_id();
                let span = self.bump().span;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    id,
                    kind: StmtKind::Continue,
                    span: span.merge(end),
                })
            }
            TokenKind::LBrace => {
                let id = self.fresh_id();
                let b = self.block()?;
                let span = b.span;
                Ok(Stmt {
                    id,
                    kind: StmtKind::Block(b),
                    span,
                })
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(TokenKind::Semi)?;
                Ok(s)
            }
        }
    }

    /// A statement without its trailing `;`: assignment, write, increment or
    /// bare expression. Used directly by `for(...)` headers.
    fn simple_stmt(&mut self) -> Result<Stmt> {
        if matches!(self.peek_kind(), TokenKind::Ident(_)) {
            // `p.write(e)` is a statement; `p.read()` stays inside an
            // expression statement.
            let write = matches!(self.peek3_kind(), TokenKind::Ident(m) if m == "write");
            match self.peek2_kind() {
                TokenKind::Assign
                | TokenKind::PlusAssign
                | TokenKind::MinusAssign
                | TokenKind::StarAssign
                | TokenKind::SlashAssign => {
                    let id = self.fresh_id();
                    let (name, start) = self.bump_ident();
                    let op = match self.bump().kind {
                        TokenKind::Assign => AssignOp::Assign,
                        TokenKind::PlusAssign => AssignOp::AddAssign,
                        TokenKind::MinusAssign => AssignOp::SubAssign,
                        TokenKind::StarAssign => AssignOp::MulAssign,
                        TokenKind::SlashAssign => AssignOp::DivAssign,
                        _ => unreachable!("guarded by peek2"),
                    };
                    let value = self.expr()?;
                    let span = start.merge(value.span);
                    return Ok(Stmt {
                        id,
                        kind: StmtKind::Assign {
                            target: name,
                            op,
                            value,
                        },
                        span,
                    });
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let id = self.fresh_id();
                    let (name, start) = self.bump_ident();
                    let op_tok = self.bump();
                    let op = if op_tok.kind == TokenKind::PlusPlus {
                        AssignOp::AddAssign
                    } else {
                        AssignOp::SubAssign
                    };
                    let span = start.merge(op_tok.span);
                    return Ok(Stmt {
                        id,
                        kind: StmtKind::Assign {
                            target: name,
                            op,
                            value: Expr::new(ExprKind::IntLit(1), op_tok.span),
                        },
                        span,
                    });
                }
                TokenKind::Dot if write => {
                    let id = self.fresh_id();
                    let (name, start) = self.bump_ident();
                    self.bump(); // dot
                    self.bump(); // write
                    self.expect(TokenKind::LParen)?;
                    let value = self.expr()?;
                    let end = self.expect(TokenKind::RParen)?.span;
                    return Ok(Stmt {
                        id,
                        kind: StmtKind::Write { port: name, value },
                        span: start.merge(end),
                    });
                }
                _ => {}
            }
        }
        let id = self.fresh_id();
        let e = self.expr()?;
        let span = e.span;
        Ok(Stmt {
            id,
            kind: StmtKind::Expr(e),
            span,
        })
    }

    fn peek3_kind(&self) -> &TokenKind {
        let i = (self.pos + 2).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn decl(&mut self) -> Result<Stmt> {
        let id = self.fresh_id();
        let ty_tok = self.bump();
        let ty = match ty_tok.kind {
            TokenKind::KwDouble => Type::Double,
            TokenKind::KwInt => Type::Int,
            TokenKind::KwBool => Type::Bool,
            _ => unreachable!("guarded by caller"),
        };
        let (name, _) = self.expect_ident()?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt {
            id,
            kind: StmtKind::Decl { ty, name, init },
            span: ty_tok.span.merge(end),
        })
    }

    /// Parses the body of a control statement, wrapping a single statement
    /// into a block.
    fn body(&mut self) -> Result<Block> {
        if self.peek_kind() == &TokenKind::LBrace {
            self.block()
        } else {
            let s = self.stmt()?;
            let span = s.span;
            Ok(Block {
                stmts: vec![s],
                span,
            })
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        let id = self.fresh_id();
        let start = self.expect(TokenKind::KwIf)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_branch = self.body()?;
        let mut span = start.merge(then_branch.span);
        let else_branch = if self.eat(&TokenKind::KwElse) {
            let b = self.body()?;
            span = span.merge(b.span);
            Some(b)
        } else {
            None
        };
        Ok(Stmt {
            id,
            kind: StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
            span,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt> {
        let id = self.fresh_id();
        let start = self.expect(TokenKind::KwWhile)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = self.body()?;
        let span = start.merge(body.span);
        Ok(Stmt {
            id,
            kind: StmtKind::While { cond, body },
            span,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt> {
        let id = self.fresh_id();
        let start = self.expect(TokenKind::KwFor)?.span;
        self.expect(TokenKind::LParen)?;
        let init = if self.peek_kind() == &TokenKind::Semi {
            self.bump();
            None
        } else if matches!(
            self.peek_kind(),
            TokenKind::KwDouble | TokenKind::KwInt | TokenKind::KwBool
        ) {
            Some(Box::new(self.decl()?)) // decl consumes the `;`
        } else {
            let s = self.simple_stmt()?;
            self.expect(TokenKind::Semi)?;
            Some(Box::new(s))
        };
        let cond = if self.peek_kind() == &TokenKind::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let step = if self.peek_kind() == &TokenKind::RParen {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect(TokenKind::RParen)?;
        let body = self.body()?;
        let span = start.merge(body.span);
        Ok(Stmt {
            id,
            kind: StmtKind::For {
                init,
                cond,
                step,
                body,
            },
            span,
        })
    }

    // ---------------------------------------------------------------- exprs

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat(&TokenKind::OrOr) {
            let rhs = self.and_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs)),
                span,
            );
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.eq_expr()?;
        while self.eat(&TokenKind::AndAnd) {
            let rhs = self.eq_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary(BinOp::And, Box::new(lhs), Box::new(rhs)),
                span,
            );
        }
        Ok(lhs)
    }

    fn eq_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.rel_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::EqEq => BinOp::Eq,
                TokenKind::NotEq => BinOp::Ne,
                _ => break,
            };
            self.bump();
            let rhs = self.rel_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn rel_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.add_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                _ => break,
            };
            self.bump();
            let rhs = self.add_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        let op = match self.peek_kind() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Not => Some(UnOp::Not),
            _ => None,
        };
        if let Some(op) = op {
            let start = self.bump().span;
            let inner = self.unary_expr()?;
            let span = start.merge(inner.span);
            return Ok(Expr::new(ExprKind::Unary(op, Box::new(inner)), span));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        match self.peek_kind() {
            &TokenKind::IntLit(v) => Ok(Expr::new(ExprKind::IntLit(v), self.bump().span)),
            &TokenKind::FloatLit(v) => Ok(Expr::new(ExprKind::FloatLit(v), self.bump().span)),
            &TokenKind::BoolLit(v) => Ok(Expr::new(ExprKind::BoolLit(v), self.bump().span)),
            TokenKind::LParen => {
                let open = self.bump().span;
                let inner = self.expr()?;
                let close = self.expect(TokenKind::RParen)?.span;
                Ok(Expr::new(inner.kind, open.merge(close)))
            }
            TokenKind::Ident(_) => {
                let (name, start) = self.bump_ident();
                if self.peek_kind() == &TokenKind::LParen {
                    let args = self.call_args()?;
                    let span = start.merge(self.tokens[self.pos - 1].span);
                    Ok(Expr::new(ExprKind::Call { callee: name, args }, span))
                } else if self.peek_kind() == &TokenKind::Dot {
                    self.bump();
                    let (method, _) = self.expect_ident()?;
                    let args = self.call_args()?;
                    let span = start.merge(self.tokens[self.pos - 1].span);
                    Ok(Expr::new(
                        ExprKind::MethodCall {
                            receiver: name,
                            method,
                            args,
                        },
                        span,
                    ))
                } else {
                    Ok(Expr::new(ExprKind::Var(name), start))
                }
            }
            other => Err(self.error(format!("expected expression, found {}", other.describe()))),
        }
    }

    fn call_args(&mut self) -> Result<Vec<Expr>> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.peek_kind() != &TokenKind::RParen {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig2_style_function() {
        let src = "\
void TS::processing()
{
    double sig_in = ip_signal_in;
    double tmpr = sig_in*1000;
    bool intr_ = false;
    if (!ip_hold){
        if (ip_clear) intr_ = 0;
        else if ((tmpr > 30) && (tmpr < 1500)){
            out_tmpr = tmpr;
            intr_ = true;
        }
        op_intr.write(intr_);
        op_signal_out = out_tmpr;
    }
}";
        let tu = parse(src).unwrap();
        assert_eq!(tu.functions.len(), 1);
        let f = &tu.functions[0];
        assert_eq!(f.model, "TS");
        assert_eq!(f.name, "processing");
        assert_eq!(f.body.stmts.len(), 4); // 3 decls + outer if
                                           // Check the decl on line 3 keeps its line number.
        assert_eq!(f.body.stmts[0].span.line(), 3);
    }

    #[test]
    fn else_if_chain_nests() {
        let src = "void f() { if (a) x = 1; else if (b) x = 2; else x = 3; }";
        let tu = parse(src).unwrap();
        let StmtKind::If { else_branch, .. } = &tu.functions[0].body.stmts[0].kind else {
            panic!("expected if");
        };
        let else_b = else_branch.as_ref().unwrap();
        assert_eq!(else_b.stmts.len(), 1);
        let StmtKind::If {
            else_branch: inner_else,
            ..
        } = &else_b.stmts[0].kind
        else {
            panic!("expected nested if");
        };
        assert!(inner_else.is_some());
    }

    #[test]
    fn port_write_is_write_stmt() {
        let s = parse_stmt("op_intr.write(intr_);").unwrap();
        let StmtKind::Write { port, value } = &s.kind else {
            panic!("expected write, got {:?}", s.kind);
        };
        assert_eq!(port, "op_intr");
        assert_eq!(value.reads(), vec!["intr_"]);
    }

    #[test]
    fn port_read_is_method_call_expr() {
        let e = parse_expr("ip_in.read()").unwrap();
        let ExprKind::MethodCall {
            receiver, method, ..
        } = &e.kind
        else {
            panic!("expected method call");
        };
        assert_eq!(receiver, "ip_in");
        assert_eq!(method, "read");
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("a + b * c").unwrap();
        let ExprKind::Binary(BinOp::Add, l, r) = &e.kind else {
            panic!("expected top-level add");
        };
        assert!(matches!(l.kind, ExprKind::Var(_)));
        assert!(matches!(r.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn precedence_and_over_or() {
        let e = parse_expr("a || b && c").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Or, _, _)));
    }

    #[test]
    fn precedence_comparison_over_logical() {
        let e = parse_expr("tmpr > 30 && tmpr < 1500").unwrap();
        let ExprKind::Binary(BinOp::And, l, r) = &e.kind else {
            panic!("expected and");
        };
        assert!(matches!(l.kind, ExprKind::Binary(BinOp::Gt, _, _)));
        assert!(matches!(r.kind, ExprKind::Binary(BinOp::Lt, _, _)));
    }

    #[test]
    fn unary_chains() {
        let e = parse_expr("!!a").unwrap();
        let ExprKind::Unary(UnOp::Not, inner) = &e.kind else {
            panic!();
        };
        assert!(matches!(inner.kind, ExprKind::Unary(UnOp::Not, _)));
        let e2 = parse_expr("-(-x)").unwrap();
        assert!(matches!(e2.kind, ExprKind::Unary(UnOp::Neg, _)));
    }

    #[test]
    fn compound_assignments() {
        let s = parse_stmt("x += y;").unwrap();
        let StmtKind::Assign { op, .. } = s.kind else {
            panic!()
        };
        assert_eq!(op, AssignOp::AddAssign);
    }

    #[test]
    fn increment_desugars_to_add_assign() {
        let s = parse_stmt("i++;").unwrap();
        let StmtKind::Assign { target, op, value } = s.kind else {
            panic!()
        };
        assert_eq!(target, "i");
        assert_eq!(op, AssignOp::AddAssign);
        assert_eq!(value.kind, ExprKind::IntLit(1));
    }

    #[test]
    fn for_loop_full_header() {
        let s = parse_stmt("for (int i = 0; i < 10; i++) { x = x + i; }").unwrap();
        let StmtKind::For {
            init, cond, step, ..
        } = &s.kind
        else {
            panic!()
        };
        assert!(init.is_some());
        assert!(cond.is_some());
        assert!(step.is_some());
    }

    #[test]
    fn for_loop_empty_header() {
        let s = parse_stmt("for (;;) { break; }").unwrap();
        let StmtKind::For {
            init, cond, step, ..
        } = &s.kind
        else {
            panic!()
        };
        assert!(init.is_none());
        assert!(cond.is_none());
        assert!(step.is_none());
    }

    #[test]
    fn while_with_single_stmt_body_wraps_in_block() {
        let s = parse_stmt("while (a) x = 1;").unwrap();
        let StmtKind::While { body, .. } = &s.kind else {
            panic!()
        };
        assert_eq!(body.stmts.len(), 1);
    }

    #[test]
    fn free_function_call_expr() {
        let e = parse_expr("abs(x - y)").unwrap();
        let ExprKind::Call { callee, args } = &e.kind else {
            panic!()
        };
        assert_eq!(callee, "abs");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn multiple_functions() {
        let tu = parse("void A::processing() { }\nvoid B::processing() { }").unwrap();
        assert_eq!(tu.functions.len(), 2);
        assert_eq!(tu.functions[1].model, "B");
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse("void f() { x = 1 }").unwrap_err();
        assert!(err.to_string().contains("expected `;`"), "{err}");
    }

    #[test]
    fn error_on_unclosed_block() {
        assert!(parse("void f() { x = 1;").is_err());
    }

    #[test]
    fn error_on_garbage_after_unit() {
        assert!(parse_expr("1 + 2 extra").is_err());
    }

    #[test]
    fn parenthesised_expression_keeps_inner_kind() {
        let e = parse_expr("(a + b)").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn decl_without_initializer() {
        let s = parse_stmt("double x;").unwrap();
        let StmtKind::Decl { init, .. } = &s.kind else {
            panic!()
        };
        assert!(init.is_none());
    }

    #[test]
    fn nested_blocks_parse() {
        let tu = parse("void f() { { { x = 1; } } }").unwrap();
        assert_eq!(tu.all_stmts().len(), 3);
    }
}
