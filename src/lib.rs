//! Facade crate re-exporting the dpnext workspace, plus the [`Optimizer`]
//! entry point running the full pipeline `SQL text → parse/bind → Query →
//! memo DP → Optimized` in one call.

pub use dpnext_algebra as algebra;
pub use dpnext_catalog as catalog;
pub use dpnext_conflict as conflict;
pub use dpnext_core as core;
pub use dpnext_cost as cost;
pub use dpnext_hypergraph as hypergraph;
pub use dpnext_keys as keys;
pub use dpnext_query as query;
pub use dpnext_sql as sql;
pub use dpnext_workload as workload;

mod optimizer;

pub use dpnext_core::{
    optimize_into, AdaptiveMode, Algorithm, Degradation, Memo, MemoStats, Optimized,
};
pub use optimizer::Optimizer;
