//! Recursive-descent parser for the SQL subset.

use crate::ast::*;
use crate::token::{tokenize, Token};
use qcc_common::{QccError, Result, Value};

/// Parse a single `SELECT` statement (a trailing `;` is tolerated).
pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.select()?;
    // Allow a trailing semicolon.
    if p.peek_is(&Token::Semi) {
        p.advance();
    }
    if p.pos != p.tokens.len() {
        return Err(QccError::Parse(format!(
            "unexpected trailing input at token {}: {:?}",
            p.pos,
            p.tokens.get(p.pos)
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// Reserved words that terminate an expression / cannot be aliases.
const RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "ON", "AND",
    "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS", "NULL", "AS", "DISTINCT", "BY", "ASC", "DESC",
];

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_is(&self, t: &Token) -> bool {
        self.peek() == Some(t)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_keyword(kw))
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(QccError::Parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_token(&mut self, t: &Token) -> Result<()> {
        if self.peek_is(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(QccError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.advance() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(QccError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    // ---------------------------------------------------------------------
    // Statement
    // ---------------------------------------------------------------------

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let items = self.select_items()?;
        self.expect_keyword("FROM")?;
        let from = self.table_ref()?;
        let mut from_rest = vec![];
        while self.peek_is(&Token::Comma) {
            self.advance();
            from_rest.push(self.table_ref()?);
        }
        let mut joins = vec![];
        loop {
            if self.eat_keyword("INNER") {
                self.expect_keyword("JOIN")?;
            } else if !self.eat_keyword("JOIN") {
                break;
            }
            let table = self.table_ref()?;
            self.expect_keyword("ON")?;
            let on = self.expr()?;
            joins.push(JoinClause { table, on });
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = vec![];
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expr()?);
            while self.peek_is(&Token::Comma) {
                self.advance();
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = vec![];
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if self.peek_is(&Token::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.advance() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                other => {
                    return Err(QccError::Parse(format!(
                        "expected non-negative LIMIT count, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            from_rest,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_items(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = vec![self.select_item()?];
        while self.peek_is(&Token::Comma) {
            self.advance();
            items.push(self.select_item()?);
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.peek_is(&Token::Star) {
            self.advance();
            return Ok(SelectItem::Wildcard);
        }
        let expr = self.expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident()?)
        } else {
            match self.peek() {
                Some(Token::Ident(s)) if !is_reserved(s) => {
                    let a = s.clone();
                    self.advance();
                    Some(a)
                }
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.expect_ident()?;
        if is_reserved(&name) {
            return Err(QccError::Parse(format!(
                "reserved word '{name}' used as table name"
            )));
        }
        let alias = match self.peek() {
            Some(Token::Ident(s)) if !is_reserved(s) => {
                let a = s.clone();
                self.advance();
                Some(a)
            }
            _ => {
                if self.eat_keyword("AS") {
                    Some(self.expect_ident()?)
                } else {
                    None
                }
            }
        };
        Ok(TableRef { name, alias })
    }

    // ---------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ---------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.expr_bp(0)
    }

    fn expr_bp(&mut self, min_bp: u8) -> Result<Expr> {
        let mut lhs = self.prefix()?;
        loop {
            // The predicate postfix forms (IS NULL / [NOT] IN / BETWEEN /
            // LIKE) bind like comparisons; only consider them (and in
            // particular only consume a prefixed NOT) when the caller's
            // binding power admits a comparison here.
            let predicates_allowed = 4 >= min_bp;
            let negated = if predicates_allowed
                && self.peek_keyword("NOT")
                && self.tokens.get(self.pos + 1).is_some_and(|t| {
                    t.is_keyword("IN") || t.is_keyword("BETWEEN") || t.is_keyword("LIKE")
                }) {
                self.advance();
                true
            } else {
                false
            };
            if predicates_allowed && self.peek_keyword("IS") {
                self.advance();
                let neg = self.eat_keyword("NOT");
                self.expect_keyword("NULL")?;
                lhs = Expr::IsNull {
                    expr: Box::new(lhs),
                    negated: neg,
                };
                continue;
            }
            if predicates_allowed && self.peek_keyword("IN") {
                self.advance();
                self.expect_token(&Token::LParen)?;
                let mut list = vec![self.expr()?];
                while self.peek_is(&Token::Comma) {
                    self.advance();
                    list.push(self.expr()?);
                }
                self.expect_token(&Token::RParen)?;
                lhs = Expr::InList {
                    expr: Box::new(lhs),
                    list,
                    negated,
                };
                continue;
            }
            if predicates_allowed && self.peek_keyword("BETWEEN") {
                self.advance();
                // Bounds parse above AND precedence so the AND separating
                // the bounds is not swallowed.
                let low = self.expr_bp(5)?;
                self.expect_keyword("AND")?;
                let high = self.expr_bp(5)?;
                lhs = Expr::Between {
                    expr: Box::new(lhs),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                };
                continue;
            }
            if predicates_allowed && self.peek_keyword("LIKE") {
                self.advance();
                let pattern = match self.advance() {
                    Some(Token::Str(s)) => s,
                    other => {
                        return Err(QccError::Parse(format!(
                            "expected string pattern after LIKE, found {other:?}"
                        )))
                    }
                };
                lhs = Expr::Like {
                    expr: Box::new(lhs),
                    pattern,
                    negated,
                };
                continue;
            }
            if negated {
                return Err(QccError::Parse(
                    "expected IN, BETWEEN or LIKE after NOT".into(),
                ));
            }
            let op = match self.peek() {
                Some(Token::Eq) => BinaryOp::Eq,
                Some(Token::NotEq) => BinaryOp::NotEq,
                Some(Token::Lt) => BinaryOp::Lt,
                Some(Token::LtEq) => BinaryOp::LtEq,
                Some(Token::Gt) => BinaryOp::Gt,
                Some(Token::GtEq) => BinaryOp::GtEq,
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(t) if t.is_keyword("AND") => BinaryOp::And,
                Some(t) if t.is_keyword("OR") => BinaryOp::Or,
                _ => break,
            };
            let bp = op.precedence();
            if bp < min_bp {
                break;
            }
            self.advance();
            // Left-associative: the right side must bind strictly tighter.
            let rhs = self.expr_bp(bp + 1)?;
            lhs = Expr::Binary {
                op,
                left: Box::new(lhs),
                right: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn prefix(&mut self) -> Result<Expr> {
        match self.advance() {
            Some(Token::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(Token::Float(f)) => Ok(Expr::Literal(Value::Float(f))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Str(s))),
            Some(Token::Minus) => {
                let inner = self.expr_bp(7)?;
                // Fold `-<numeric literal>` into a negative literal so that
                // printed SQL round-trips to an identical AST.
                Ok(match inner {
                    Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                    Expr::Literal(Value::Float(x)) => Expr::Literal(Value::Float(-x)),
                    other => Expr::Unary {
                        op: UnaryOp::Neg,
                        expr: Box::new(other),
                    },
                })
            }
            Some(Token::LParen) => {
                let inner = self.expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(id)) => {
                if id.eq_ignore_ascii_case("NOT") {
                    let inner = self.expr_bp(3)?;
                    return Ok(Expr::Unary {
                        op: UnaryOp::Not,
                        expr: Box::new(inner),
                    });
                }
                if id.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if let Some(func) = agg_func(&id) {
                    if self.peek_is(&Token::LParen) {
                        self.advance();
                        let distinct = self.eat_keyword("DISTINCT");
                        let arg = if self.peek_is(&Token::Star) {
                            self.advance();
                            if func != AggFunc::Count {
                                return Err(QccError::Parse(format!(
                                    "{}(*) is only valid for COUNT",
                                    func.name()
                                )));
                            }
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.expect_token(&Token::RParen)?;
                        return Ok(Expr::Agg {
                            func,
                            arg,
                            distinct,
                        });
                    }
                }
                if is_reserved(&id) {
                    return Err(QccError::Parse(format!(
                        "reserved word '{id}' used as column"
                    )));
                }
                // Qualified column?
                if self.peek_is(&Token::Dot) {
                    self.advance();
                    let name = self.expect_ident()?;
                    Ok(Expr::Column {
                        table: Some(id),
                        name,
                    })
                } else {
                    Ok(Expr::Column {
                        table: None,
                        name: id,
                    })
                }
            }
            other => Err(QccError::Parse(format!(
                "unexpected token in expression: {other:?}"
            ))),
        }
    }
}

fn agg_func(id: &str) -> Option<AggFunc> {
    if id.eq_ignore_ascii_case("COUNT") {
        Some(AggFunc::Count)
    } else if id.eq_ignore_ascii_case("SUM") {
        Some(AggFunc::Sum)
    } else if id.eq_ignore_ascii_case("AVG") {
        Some(AggFunc::Avg)
    } else if id.eq_ignore_ascii_case("MIN") {
        Some(AggFunc::Min)
    } else if id.eq_ignore_ascii_case("MAX") {
        Some(AggFunc::Max)
    } else {
        None
    }
}

fn is_reserved(s: &str) -> bool {
    RESERVED.iter().any(|kw| s.eq_ignore_ascii_case(kw))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(sql: &str) -> SelectStmt {
        let stmt = parse_select(sql).unwrap_or_else(|e| panic!("parse {sql}: {e}"));
        let printed = stmt.to_string();
        let reparsed =
            parse_select(&printed).unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
        assert_eq!(stmt, reparsed, "round-trip mismatch for {sql}");
        stmt
    }

    #[test]
    fn minimal() {
        let s = roundtrip("SELECT * FROM t");
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
        assert_eq!(s.from.name, "t");
    }

    #[test]
    fn projection_aliases() {
        let s = roundtrip("SELECT a AS x, b y, a + 1 FROM t");
        assert_eq!(s.items.len(), 3);
        match &s.items[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("y")),
            _ => panic!(),
        }
    }

    #[test]
    fn where_precedence() {
        let s = roundtrip("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        // AND binds tighter than OR.
        match s.where_clause.unwrap() {
            Expr::Binary { op, right, .. } => {
                assert_eq!(op, BinaryOp::Or);
                assert!(matches!(
                    *right,
                    Expr::Binary {
                        op: BinaryOp::And,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = roundtrip("SELECT a + b * 2 FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => match expr {
                Expr::Binary { op, right, .. } => {
                    assert_eq!(*op, BinaryOp::Add);
                    assert!(matches!(
                        **right,
                        Expr::Binary {
                            op: BinaryOp::Mul,
                            ..
                        }
                    ));
                }
                other => panic!("unexpected {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn left_associativity() {
        let s = roundtrip("SELECT a - b - c FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr.to_string(), "((a - b) - c)");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn explicit_joins() {
        let s = roundtrip(
            "SELECT o.id, SUM(l.qty) FROM orders o JOIN lineitem l ON o.id = l.oid \
             WHERE o.total > 50 GROUP BY o.id HAVING COUNT(*) > 2 ORDER BY o.id DESC LIMIT 10",
        );
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].desc);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn comma_joins() {
        let s = roundtrip("SELECT * FROM a, b, c WHERE a.x = b.x AND b.y = c.y");
        assert_eq!(s.from_rest.len(), 2);
        assert_eq!(s.tables().len(), 3);
    }

    #[test]
    fn inner_join_keyword() {
        let s = parse_select("SELECT * FROM a INNER JOIN b ON a.x = b.x").unwrap();
        assert_eq!(s.joins.len(), 1);
    }

    #[test]
    fn between_and_in_and_like() {
        let s = roundtrip(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b IN (1, 2, 3) \
             AND c LIKE 'ab%' AND d NOT LIKE '_x' AND e NOT BETWEEN 5 AND 6 \
             AND f NOT IN ('p', 'q')",
        );
        let w = s.where_clause.unwrap().to_string();
        assert!(w.contains("BETWEEN 1 AND 10"));
        assert!(w.contains("NOT LIKE '_x'"));
        assert!(w.contains("NOT IN ('p', 'q')"));
    }

    #[test]
    fn is_null_forms() {
        let s = roundtrip("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL");
        let w = s.where_clause.unwrap().to_string();
        assert!(w.contains("a IS NULL"));
        assert!(w.contains("b IS NOT NULL"));
    }

    #[test]
    fn aggregates() {
        let s = roundtrip("SELECT COUNT(*), COUNT(DISTINCT a), AVG(b + 1) FROM t");
        assert_eq!(s.items.len(), 3);
        match &s.items[1] {
            SelectItem::Expr {
                expr: Expr::Agg { distinct, .. },
                ..
            } => assert!(distinct),
            _ => panic!(),
        }
    }

    #[test]
    fn count_star_only_for_count() {
        assert!(parse_select("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn unary_not_and_neg() {
        let s = roundtrip("SELECT * FROM t WHERE NOT a = 1 AND b = -5");
        let w = s.where_clause.unwrap().to_string();
        assert!(w.contains("NOT"));
        assert!(w.contains("-5"));
    }

    #[test]
    fn distinct_select() {
        let s = roundtrip("SELECT DISTINCT a FROM t");
        assert!(s.distinct);
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_select("SELECT * FROM t;").is_ok());
    }

    #[test]
    fn trailing_garbage_errors() {
        assert!(parse_select("SELECT * FROM t xyzzy garbage").is_err());
        assert!(parse_select("SELECT * FROM t; SELECT * FROM u").is_err());
    }

    #[test]
    fn reserved_word_as_table_errors() {
        assert!(parse_select("SELECT * FROM where").is_err());
    }

    #[test]
    fn missing_from_errors() {
        assert!(parse_select("SELECT a, b").is_err());
    }

    #[test]
    fn bad_limit_errors() {
        assert!(parse_select("SELECT * FROM t LIMIT x").is_err());
        assert!(parse_select("SELECT * FROM t LIMIT -1").is_err());
    }

    #[test]
    fn null_literal() {
        let s = roundtrip("SELECT * FROM t WHERE a = NULL");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn case_insensitive_keywords() {
        let s = parse_select("select a from t where a > 1 group by a order by a limit 5").unwrap();
        assert_eq!(s.limit, Some(5));
        assert_eq!(s.group_by.len(), 1);
    }

    #[test]
    fn nested_parens() {
        let s = roundtrip("SELECT * FROM t WHERE ((a + 1) * 2) > (3 - (4 / 2))");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn between_with_arithmetic_bounds() {
        let s = roundtrip("SELECT * FROM t WHERE a BETWEEN 1 + 2 AND 10 * 2");
        match s.where_clause.unwrap() {
            Expr::Between { low, high, .. } => {
                assert!(matches!(
                    *low,
                    Expr::Binary {
                        op: BinaryOp::Add,
                        ..
                    }
                ));
                assert!(matches!(
                    *high,
                    Expr::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Seeded mutation fuzz of the parser, the first thing a statement
    /// nobody has seen before meets: it never panics, it rejects with a
    /// `QccError::Parse`, and what it accepts prints to text that parses
    /// back to the same AST.
    #[test]
    fn mutated_statements_never_panic_and_accepted_ones_round_trip() {
        let seeds = crate::mutate::seed_statements();
        let mut rng = qcc_common::Pcg32::seed_from(0xf022);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..24_000 {
            let sql = crate::mutate::mutant(&mut rng, &seeds);
            let parsed = std::panic::catch_unwind(|| parse_select(&sql))
                .unwrap_or_else(|_| panic!("parse_select panicked on `{sql}`"));
            match parsed {
                Ok(stmt) => {
                    let printed = stmt.to_string();
                    let reparsed = parse_select(&printed)
                        .unwrap_or_else(|e| panic!("`{sql}` prints as `{printed}`: {e}"));
                    assert_eq!(stmt, reparsed, "`{sql}` prints as `{printed}`");
                    accepted += 1;
                }
                Err(QccError::Parse(_)) => rejected += 1,
                Err(other) => panic!("`{sql}` rejected with {other:?}"),
            }
        }
        assert!(
            accepted > 2_000 && rejected > 2_000,
            "{accepted} / {rejected}"
        );
    }
}
