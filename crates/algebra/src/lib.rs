//! # dpnext-algebra
//!
//! Bag-semantics relational algebra underpinning the `dpnext` reproduction
//! of Eich & Moerkotte, *"Dynamic Programming: The Next Step"* (ICDE 2015).
//!
//! The crate provides:
//!
//! * SQL-style [`Value`]s with three-valued NULL semantics,
//! * [`Relation`]s (bags of tuples over attribute [`Schema`]s),
//! * scalar [`Expr`]essions and conjunctive [`JoinPred`]icates,
//! * aggregate functions ([`agg`]) and their decomposability (§2.1),
//! * all algebraic operators of §2.2 ([`ops`], [`grouping`]), including the
//!   **left/full outerjoins with default vectors** and the **groupjoin**,
//! * an interpreter for executable operator trees ([`eval`]).
//!
//! Everything is deterministic and pure; the executor doubles as the
//! correctness oracle for the optimizer's plan transformations.

pub mod agg;
pub mod eval;
pub mod expr;
pub mod grouping;
pub mod ops;
pub mod relation;
pub mod schema;
pub mod value;

pub use agg::{AggCall, AggKind};
pub use eval::{AlgExpr, Database};
pub use expr::{CmpOp, Expr, JoinPred};
pub use grouping::{group_by, group_by_theta};
pub use relation::Relation;
pub use schema::{AttrGen, AttrId, Schema, Tuple};
pub use value::Value;
