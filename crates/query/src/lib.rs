//! # dpnext-query
//!
//! Query representation for the `dpnext` optimizer: table occurrences with
//! embedded statistics, initial operator trees over the join operators of
//! §2.2, and normalized grouping specifications.

pub mod optree;
pub mod query;
pub mod table;

pub use optree::{OpKind, OpTree};
pub use query::{AttrOrigins, GroupSpec, Query};
pub use table::QueryTable;
