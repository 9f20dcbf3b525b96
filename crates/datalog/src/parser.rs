//! Recursive-descent parser for the Datalog surface language.

use crate::ast::{Atom, BinOp, Body, Expr, FactLiteral, Item, TypeName};
use crate::error::DatalogError;
use crate::lexer::{tokenize, Spanned, Token};

/// Parses a source string into a list of top-level items.
///
/// # Errors
///
/// Returns a [`DatalogError`] on lexical or syntax errors.
pub fn parse_items(source: &str) -> Result<Vec<Item>, DatalogError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut items = Vec::new();
    while !parser.at_end() {
        items.push(parser.item()?);
    }
    Ok(items)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset).map(|s| &s.token)
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|s| s.position)
            .unwrap_or_else(|| self.tokens.last().map(|s| s.position + 1).unwrap_or(0))
    }

    fn error(&self, message: impl Into<String>) -> DatalogError {
        DatalogError::Parse {
            position: self.position(),
            message: message.into(),
        }
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        self.pos += 1;
        t
    }

    fn consume(&mut self, expected: &Token, what: &str) -> Result<(), DatalogError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, DatalogError> {
        match self.advance() {
            Some(Token::Ident(name)) => Ok(name),
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    fn keyword(&self) -> Option<&str> {
        match self.peek() {
            Some(Token::Ident(name)) => Some(name.as_str()),
            _ => None,
        }
    }

    fn item(&mut self) -> Result<Item, DatalogError> {
        match self.keyword() {
            Some("type") => {
                self.pos += 1;
                self.type_item()
            }
            Some("rel") => {
                self.pos += 1;
                self.rel_item()
            }
            Some("query") => {
                self.pos += 1;
                let name = self.ident("relation name after `query`")?;
                Ok(Item::Query { name })
            }
            _ => Err(self.error("expected `type`, `rel`, or `query`")),
        }
    }

    fn type_name(&mut self) -> Result<TypeName, DatalogError> {
        let name = self.ident("type name")?;
        Ok(match name.as_str() {
            "u8" | "u16" | "u32" | "u64" | "usize" => TypeName::U32,
            "i8" | "i16" | "i32" | "i64" | "isize" => TypeName::I64,
            "f32" | "f64" => TypeName::F64,
            "bool" => TypeName::Bool,
            "String" | "str" | "Symbol" | "symbol" => TypeName::Symbol,
            _ => TypeName::Alias(name),
        })
    }

    fn type_item(&mut self) -> Result<Item, DatalogError> {
        let name = self.ident("type or relation name")?;
        match self.peek() {
            Some(Token::Assign) => {
                self.pos += 1;
                let ty = self.type_name()?;
                Ok(Item::TypeAlias { name, ty })
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let mut params = Vec::new();
                if self.peek() != Some(&Token::RParen) {
                    loop {
                        let pname = self.ident("parameter name")?;
                        self.consume(&Token::Colon, "`:` after parameter name")?;
                        let ty = self.type_name()?;
                        params.push((pname, ty));
                        if self.peek() == Some(&Token::Comma) {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.consume(&Token::RParen, "`)` after relation parameters")?;
                Ok(Item::RelationDecl { name, params })
            }
            _ => Err(self.error("expected `=` or `(` after type name")),
        }
    }

    fn rel_item(&mut self) -> Result<Item, DatalogError> {
        let name = self.ident("relation name after `rel`")?;
        // Facts: `rel name = { ... }`.
        if self.peek() == Some(&Token::Assign) && self.peek_at(1) == Some(&Token::LBrace) {
            self.pos += 2;
            let facts = self.fact_list()?;
            self.consume(&Token::RBrace, "`}` closing fact set")?;
            return Ok(Item::Facts { name, facts });
        }
        // Rule: `rel name(args) = body` or `rel name(args) :- body`.
        self.consume(&Token::LParen, "`(` after relation name")?;
        let mut args = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                args.push(self.arith_expr()?);
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.consume(&Token::RParen, "`)` after head arguments")?;
        match self.peek() {
            Some(Token::Assign) | Some(Token::Turnstile) => {
                self.pos += 1;
            }
            other => return Err(self.error(format!("expected `=` or `:-`, found {other:?}"))),
        }
        let body = self.disjunction()?;
        Ok(Item::Rule {
            head: Atom { name, args },
            body,
        })
    }

    fn fact_list(&mut self) -> Result<Vec<FactLiteral>, DatalogError> {
        let mut facts = Vec::new();
        if self.peek() == Some(&Token::RBrace) {
            return Ok(facts);
        }
        loop {
            facts.push(self.fact()?);
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(facts)
    }

    fn fact(&mut self) -> Result<FactLiteral, DatalogError> {
        let probability = match (self.peek(), self.peek_at(1)) {
            (Some(Token::Float(p)), Some(Token::DoubleColon)) => {
                let p = *p;
                self.pos += 2;
                Some(p)
            }
            (Some(Token::Int(p)), Some(Token::DoubleColon)) => {
                let p = *p as f64;
                self.pos += 2;
                Some(p)
            }
            _ => None,
        };
        let mut values = Vec::new();
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            if self.peek() != Some(&Token::RParen) {
                loop {
                    values.push(self.arith_expr()?);
                    if self.peek() == Some(&Token::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }
            self.consume(&Token::RParen, "`)` closing fact tuple")?;
        } else {
            values.push(self.arith_expr()?);
        }
        Ok(FactLiteral {
            probability,
            values,
        })
    }

    fn disjunction(&mut self) -> Result<Body, DatalogError> {
        let mut parts = vec![self.conjunction()?];
        while self.keyword() == Some("or") {
            self.pos += 1;
            parts.push(self.conjunction()?);
        }
        Ok(match <[Body; 1]>::try_from(parts) {
            Ok([only]) => only,
            Err(parts) => Body::Or(parts),
        })
    }

    fn conjunction(&mut self) -> Result<Body, DatalogError> {
        let mut parts = vec![self.body_unit()?];
        loop {
            match self.peek() {
                Some(Token::Comma) => {
                    self.pos += 1;
                }
                Some(Token::Ident(name)) if name == "and" => {
                    self.pos += 1;
                }
                _ => break,
            }
            parts.push(self.body_unit()?);
        }
        Ok(match <[Body; 1]>::try_from(parts) {
            Ok([only]) => only,
            Err(parts) => Body::And(parts),
        })
    }

    fn body_unit(&mut self) -> Result<Body, DatalogError> {
        match self.peek() {
            Some(Token::LParen) => {
                self.pos += 1;
                let inner = self.disjunction()?;
                self.consume(&Token::RParen, "`)` closing grouped body")?;
                Ok(inner)
            }
            Some(Token::Ident(name))
                if !matches!(name.as_str(), "and" | "or" | "true" | "false")
                    && self.peek_at(1) == Some(&Token::LParen) =>
            {
                let name = self.ident("relation name")?;
                self.pos += 1; // consume `(`
                let mut args = Vec::new();
                if self.peek() != Some(&Token::RParen) {
                    loop {
                        args.push(self.arith_expr()?);
                        if self.peek() == Some(&Token::Comma) {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.consume(&Token::RParen, "`)` after atom arguments")?;
                Ok(Body::Atom(Atom { name, args }))
            }
            _ => Ok(Body::Constraint(self.comparison_expr()?)),
        }
    }

    fn comparison_expr(&mut self) -> Result<Expr, DatalogError> {
        let lhs = self.arith_expr()?;
        let op = match self.peek() {
            Some(Token::EqEq) => BinOp::Eq,
            Some(Token::NotEq) => BinOp::Ne,
            Some(Token::Less) => BinOp::Lt,
            Some(Token::LessEq) => BinOp::Le,
            Some(Token::Greater) => BinOp::Gt,
            Some(Token::GreaterEq) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.arith_expr()?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    fn arith_expr(&mut self) -> Result<Expr, DatalogError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.term()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, DatalogError> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Rem,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.factor()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr, DatalogError> {
        match self.advance() {
            Some(Token::Int(v)) => Ok(Expr::Int(v)),
            Some(Token::Float(v)) => Ok(Expr::Float(v)),
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            Some(Token::Underscore) => Ok(Expr::Wildcard),
            Some(Token::Minus) => Ok(Expr::Neg(Box::new(self.factor()?))),
            Some(Token::Ident(name)) => match name.as_str() {
                "true" => Ok(Expr::Bool(true)),
                "false" => Ok(Expr::Bool(false)),
                _ => Ok(Expr::Var(name)),
            },
            Some(Token::LParen) => {
                let inner = self.arith_expr()?;
                self.consume(&Token::RParen, "`)` closing grouped expression")?;
                Ok(inner)
            }
            other => Err(self.error(format!("expected an expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_type_declarations() {
        let items = parse_items("type Cell = u32  type edge(x: Cell, y: Cell)").unwrap();
        assert_eq!(items.len(), 2);
        assert!(matches!(&items[0], Item::TypeAlias { name, ty: TypeName::U32 } if name == "Cell"));
        assert!(
            matches!(&items[1], Item::RelationDecl { name, params } if name == "edge" && params.len() == 2)
        );
    }

    #[test]
    fn parses_recursive_rule_with_or() {
        let items =
            parse_items("rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))").unwrap();
        assert_eq!(items.len(), 1);
        match &items[0] {
            Item::Rule { head, body } => {
                assert_eq!(head.name, "path");
                assert_eq!(body.to_dnf().len(), 2);
            }
            other => panic!("expected rule, got {other:?}"),
        }
    }

    #[test]
    fn parses_constraints_and_turnstile() {
        let items =
            parse_items("rel connected() :- is_endpoint(x), is_endpoint(y), path(x, y), x != y")
                .unwrap();
        match &items[0] {
            Item::Rule { body, .. } => {
                let conj = body.to_dnf();
                assert_eq!(conj.len(), 1);
                assert_eq!(conj[0].len(), 4);
                assert!(matches!(conj[0][3], Body::Constraint(_)));
            }
            other => panic!("expected rule, got {other:?}"),
        }
    }

    #[test]
    fn parses_fact_sets_with_probabilities() {
        let items = parse_items(r#"rel edge = {(0, 1), 0.9::(1, 2), 1::(2, 3)}"#).unwrap();
        match &items[0] {
            Item::Facts { name, facts } => {
                assert_eq!(name, "edge");
                assert_eq!(facts.len(), 3);
                assert_eq!(facts[0].probability, None);
                assert_eq!(facts[1].probability, Some(0.9));
                assert_eq!(facts[2].probability, Some(1.0));
            }
            other => panic!("expected facts, got {other:?}"),
        }
    }

    #[test]
    fn parses_arithmetic_heads_and_bindings() {
        let items = parse_items(
            "rel next(x, x + 1) = cell(x), x < 10  rel total(z) = a(x), b(y), z == x * y + 1",
        )
        .unwrap();
        assert_eq!(items.len(), 2);
        match &items[0] {
            Item::Rule { head, .. } => {
                assert!(matches!(head.args[1], Expr::Binary(BinOp::Add, _, _)));
            }
            other => panic!("expected rule, got {other:?}"),
        }
    }

    #[test]
    fn parses_query_and_wildcard() {
        let items = parse_items("rel out(x) = pair(x, _)  query out").unwrap();
        assert!(matches!(&items[1], Item::Query { name } if name == "out"));
    }

    #[test]
    fn rejects_missing_body() {
        assert!(parse_items("rel path(x, y) = ").is_err());
        assert!(parse_items("query").is_err());
        assert!(parse_items("rel path(x y) = edge(x, y)").is_err());
    }

    #[test]
    fn parses_string_constants_in_atoms() {
        let items = parse_items(r#"rel mother(a, b) = kinship("mother", a, b)"#).unwrap();
        match &items[0] {
            Item::Rule { body, .. } => match body {
                Body::Atom(atom) => assert_eq!(atom.args[0], Expr::Str("mother".into())),
                other => panic!("expected atom body, got {other:?}"),
            },
            other => panic!("expected rule, got {other:?}"),
        }
    }
}
