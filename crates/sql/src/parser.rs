//! Recursive-descent parser for the dialect:
//!
//! ```text
//! query      := SELECT items FROM from_expr [GROUP BY names]
//! items      := item (',' item)*
//! item       := agg ['AS' ident] | qname
//! agg        := COUNT '(' '*' ')'
//!             | (COUNT|SUM|MIN|MAX|AVG) '(' [DISTINCT] qname ')'
//! from_expr  := term (join term ON condition)*
//! term       := table [['AS'] ident] | '(' from_expr ')'
//! join       := [INNER] JOIN | LEFT [OUTER] JOIN | FULL [OUTER] JOIN
//!             | SEMI JOIN | ANTI JOIN
//! condition  := cmp ('AND' cmp)*
//! cmp        := qname (= | <> | != | <= | >= | < | >) qname
//! qname      := ident ['.' ident]
//! ```
//!
//! Two size limits make the grammar's only recursion (`term` →
//! `from_expr` → `term`, once per `(`) and every recursion over what it
//! builds bounded, whatever text arrives: a `FROM` clause names at most
//! [`MAX_RELATIONS`] tables — what the optimizer's node sets hold — and
//! nests parentheses at most [`MAX_NESTING`] deep. A statement over either
//! is a [`SqlError`]; without them a few kilobytes of `(` overflow the
//! stack, which no `catch_unwind` contains.

use crate::ast::{AstComparison, AstFrom, AstItem, AstJoinKind, AstQuery, QName};
use crate::lexer::{lex, SqlError, Token};
use dpnext_algebra::CmpOp;
use dpnext_hypergraph::MAX_RELATIONS;

/// The deepest parenthesis nesting a `FROM` clause may have. A join tree
/// over [`MAX_RELATIONS`] tables needs fewer levels than it has tables, so
/// the limit only ever refuses redundant parentheses.
pub const MAX_NESTING: usize = MAX_RELATIONS;

/// Parse a query string into an AST.
pub fn parse(input: &str) -> Result<AstQuery, SqlError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        tables: 0,
        nesting: 0,
    };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(SqlError::new(format!(
            "trailing input at token {}",
            p.peek_desc()
        )));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Table occurrences parsed so far (at most [`MAX_RELATIONS`]).
    tables: usize,
    /// Parentheses of the `FROM` clause open around `pos` (at most
    /// [`MAX_NESTING`]).
    nesting: usize,
}

const AGG_FUNCS: [&str; 5] = ["count", "sum", "min", "max", "avg"];
/// The dialect's keywords, matched without regard to case wherever they
/// stand. None of them can be a table alias unless `AS` introduces it.
pub const RESERVED: [&str; 15] = [
    "select", "from", "group", "by", "join", "inner", "left", "full", "outer", "semi", "anti",
    "on", "and", "as", "distinct",
];

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_desc(&self) -> String {
        self.peek()
            .map_or_else(|| "<end>".into(), |t| t.to_string())
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::new(format!(
                "expected {kw}, found {}",
                self.peek_desc()
            )))
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), SqlError> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(SqlError::new(format!(
                "expected {t}, found {}",
                self.peek_desc()
            )))
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(SqlError::new(format!(
                "expected identifier, found {}",
                other.map_or_else(|| "<end>".into(), |t| t.to_string())
            ))),
        }
    }

    fn query(&mut self) -> Result<AstQuery, SqlError> {
        self.expect_kw("select")?;
        let mut items = vec![self.item()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            items.push(self.item()?);
        }
        self.expect_kw("from")?;
        let from = self.from_expr()?;
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.qname()?);
            while self.peek() == Some(&Token::Comma) {
                self.pos += 1;
                group_by.push(self.qname()?);
            }
        }
        Ok(AstQuery {
            items,
            from,
            group_by,
        })
    }

    fn item(&mut self) -> Result<AstItem, SqlError> {
        // Aggregate call?
        if let Some(Token::Ident(name)) = self.peek() {
            let lower = name.to_ascii_lowercase();
            if AGG_FUNCS.contains(&lower.as_str())
                && self.tokens.get(self.pos + 1) == Some(&Token::LParen)
            {
                let func = lower;
                self.pos += 2; // func + '('
                if func == "count" && self.peek() == Some(&Token::Star) {
                    self.pos += 1;
                    self.expect(&Token::RParen)?;
                    let alias = self.opt_alias()?;
                    return Ok(AstItem::Agg {
                        func: "count*".into(),
                        distinct: false,
                        arg: None,
                        alias,
                    });
                }
                let distinct = self.eat_kw("distinct");
                let arg = self.qname()?;
                self.expect(&Token::RParen)?;
                let alias = self.opt_alias()?;
                return Ok(AstItem::Agg {
                    func,
                    distinct,
                    arg: Some(arg),
                    alias,
                });
            }
        }
        Ok(AstItem::Column(self.qname()?))
    }

    fn opt_alias(&mut self) -> Result<Option<String>, SqlError> {
        if self.eat_kw("as") {
            return Ok(Some(self.ident()?));
        }
        Ok(None)
    }

    #[allow(clippy::wrong_self_convention)] // parses a FROM clause, not a conversion
    fn from_expr(&mut self) -> Result<AstFrom, SqlError> {
        let mut left = self.term()?;
        loop {
            let kind = if self.eat_kw("join") {
                AstJoinKind::Inner
            } else if self.eat_kw("inner") {
                self.expect_kw("join")?;
                AstJoinKind::Inner
            } else if self.eat_kw("left") {
                self.eat_kw("outer");
                self.expect_kw("join")?;
                AstJoinKind::LeftOuter
            } else if self.eat_kw("full") {
                self.eat_kw("outer");
                self.expect_kw("join")?;
                AstJoinKind::FullOuter
            } else if self.eat_kw("semi") {
                self.expect_kw("join")?;
                AstJoinKind::Semi
            } else if self.eat_kw("anti") {
                self.expect_kw("join")?;
                AstJoinKind::Anti
            } else {
                return Ok(left);
            };
            let right = self.term()?;
            self.expect_kw("on")?;
            let condition = self.condition()?;
            left = AstFrom::Join {
                kind,
                condition,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn term(&mut self) -> Result<AstFrom, SqlError> {
        if self.peek() == Some(&Token::LParen) {
            if self.nesting == MAX_NESTING {
                return Err(SqlError::new(format!(
                    "parentheses nested more than {MAX_NESTING} deep"
                )));
            }
            self.pos += 1;
            self.nesting += 1;
            let inner = self.from_expr()?;
            self.nesting -= 1;
            self.expect(&Token::RParen)?;
            return Ok(inner);
        }
        let name = self.ident()?;
        if self.tables == MAX_RELATIONS {
            return Err(SqlError::new(format!(
                "more than {MAX_RELATIONS} tables in one statement"
            )));
        }
        self.tables += 1;
        // Optional alias: `t a`, `t as a` — but not a following keyword.
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(s)) = self.peek() {
            if RESERVED.contains(&s.to_ascii_lowercase().as_str()) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(AstFrom::Table { name, alias })
    }

    fn condition(&mut self) -> Result<Vec<AstComparison>, SqlError> {
        let mut out = vec![self.comparison()?];
        while self.eat_kw("and") {
            out.push(self.comparison()?);
        }
        Ok(out)
    }

    fn comparison(&mut self) -> Result<AstComparison, SqlError> {
        let left = self.qname()?;
        let op = match self.next() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Ge) => CmpOp::Ge,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Gt) => CmpOp::Gt,
            other => {
                return Err(SqlError::new(format!(
                    "expected comparison operator, found {}",
                    other.map_or_else(|| "<end>".into(), |t| t.to_string())
                )))
            }
        };
        let right = self.qname()?;
        Ok(AstComparison { left, op, right })
    }

    fn qname(&mut self) -> Result<QName, SqlError> {
        let first = self.ident()?;
        if self.peek() == Some(&Token::Dot) {
            self.pos += 1;
            let name = self.ident()?;
            Ok(QName::qualified(first, name))
        } else {
            Ok(QName::bare(first))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_join_group() {
        let q = parse(
            "select x.a, count(*), sum(y.b) as total \
             from t1 x join t2 y on x.a = y.a group by x.a",
        )
        .unwrap();
        assert_eq!(3, q.items.len());
        assert_eq!(vec![QName::qualified("x", "a")], q.group_by);
        match &q.from {
            AstFrom::Join {
                kind, condition, ..
            } => {
                assert_eq!(AstJoinKind::Inner, *kind);
                assert_eq!(1, condition.len());
            }
            other => panic!("unexpected from: {other:?}"),
        }
        assert!(matches!(&q.items[2], AstItem::Agg { alias: Some(a), .. } if a == "total"));
    }

    #[test]
    fn the_paper_intro_query_parses() {
        let q = parse(
            "select ns.n_name, nc.n_name, count(*) \
             from (nation ns join supplier s on ns.n_nationkey = s.s_nationkey) \
             full outer join \
             (nation nc join customer c on nc.n_nationkey = c.c_nationkey) \
             on ns.n_nationkey = nc.n_nationkey \
             group by ns.n_name, nc.n_name",
        )
        .unwrap();
        assert_eq!(2, q.group_by.len());
        match &q.from {
            AstFrom::Join { kind, .. } => assert_eq!(AstJoinKind::FullOuter, *kind),
            other => panic!("unexpected from: {other:?}"),
        }
    }

    #[test]
    fn semi_anti_and_left() {
        let q = parse(
            "select a from t1 semi join t2 on t1.x = t2.y \
             left join t3 on t1.x = t3.z anti join t4 on t1.x = t4.w",
        )
        .unwrap();
        // Left-associative chain: ((t1 ⋉ t2) ⟕ t3) ▷ t4.
        let AstFrom::Join { kind, left, .. } = &q.from else {
            panic!()
        };
        assert_eq!(AstJoinKind::Anti, *kind);
        let AstFrom::Join { kind, left, .. } = left.as_ref() else {
            panic!()
        };
        assert_eq!(AstJoinKind::LeftOuter, *kind);
        let AstFrom::Join { kind, .. } = left.as_ref() else {
            panic!()
        };
        assert_eq!(AstJoinKind::Semi, *kind);
    }

    #[test]
    fn conjunctive_conditions_and_theta() {
        let q = parse("select a from t1 join t2 on t1.x = t2.y and t1.u < t2.v").unwrap();
        let AstFrom::Join { condition, .. } = &q.from else {
            panic!()
        };
        assert_eq!(2, condition.len());
        assert_eq!(CmpOp::Lt, condition[1].op);
    }

    #[test]
    fn distinct_and_avg() {
        let q = parse("select avg(t.a), count(distinct t.b) from t group by t.c").unwrap();
        assert!(matches!(&q.items[0], AstItem::Agg { func, distinct: false, .. } if func == "avg"));
        assert!(
            matches!(&q.items[1], AstItem::Agg { func, distinct: true, .. } if func == "count")
        );
        // "group" must not be swallowed as a table alias.
        assert_eq!(1, q.group_by.len());
    }

    /// `select t0.a from t0 join t1 on t0.a = t1.a join ...`, `n` tables.
    fn chain(n: usize) -> String {
        let mut text = String::from("select t0.a from t0");
        for i in 1..n {
            text += &format!(" join t{i} on t{}.a = t{i}.a", i - 1);
        }
        text
    }

    /// `select a from ((...(t)...))`, `depth` parentheses.
    fn nested(depth: usize) -> String {
        format!("select a from {}t{}", "(".repeat(depth), ")".repeat(depth))
    }

    #[test]
    fn a_statement_names_at_most_max_relations_tables() {
        assert!(parse(&chain(MAX_RELATIONS)).is_ok());
        let error = parse(&chain(MAX_RELATIONS + 1)).unwrap_err();
        assert!(error.message.contains("more than 64 tables"), "{error}");
        // Refused at the 65th table, not after the other 4,935.
        assert!(parse(&chain(5_000)).is_err());
    }

    #[test]
    fn parentheses_nest_at_most_max_nesting_deep() {
        assert!(parse(&nested(MAX_NESTING)).is_ok());
        let error = parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(error.message.contains("more than 64 deep"), "{error}");
        // Siblings do not add up: the limit is on depth.
        let siblings = format!("select a from (t0){}", " join (t1) on a = b".repeat(40));
        assert!(parse(&siblings).is_ok());
        // Depth 10,000 overflowed a 2 MiB stack; here it has an eighth of one.
        let deep = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| parse(&nested(10_000)))
            .unwrap();
        assert!(deep.join().unwrap().is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("select from t").is_err());
        assert!(parse("select a from t join").is_err());
        assert!(parse("select a from t1 join t2 on t1.a ~ t2.b").is_err());
        assert!(parse("select a from t extra garbage +").is_err());
        assert!(parse("select count(* from t").is_err());
    }
}
