//! # dpnext-sql
//!
//! A SQL frontend for the `dpnext` optimizer: the dialect covers exactly
//! the paper's query class — inner / left outer / full outer joins plus
//! `SEMI JOIN` / `ANTI JOIN`, conjunctive equality and theta `ON`
//! conditions, grouping, and the SQL aggregates of §2.1 (including
//! `distinct` variants and `avg`).
//!
//! ```
//! use dpnext_catalog::tpch_catalog;
//! use dpnext_sql::plan;
//!
//! let catalog = tpch_catalog();
//! let bound = plan(
//!     "select n.n_name, count(*) \
//!      from nation n join supplier s on n.n_nationkey = s.s_nationkey \
//!      group by n.n_name",
//!     &catalog,
//! ).unwrap();
//! assert_eq!(2, bound.query.table_count());
//! ```

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod parser;

pub use ast::{AstFrom, AstItem, AstJoinKind, AstQuery, QName};
pub use binder::{bind, plan, BoundQuery};
pub use lexer::{lex, SqlError, Token};
pub use parser::{parse, MAX_NESTING};
