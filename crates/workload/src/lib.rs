//! # dpnext-workload
//!
//! Workload generation for the evaluation of §5: uniformly random operator
//! trees (via lexicographic Dyck-word unranking, Liebehenschel \[5\]) with
//! random operators, predicates, cardinalities and selectivities; small
//! synthetic databases for executor-backed correctness checks; the
//! paper's TPC-H queries (Ex, Q3, Q5, Q10), written as SQL and bound by
//! `dpnext-sql`; and request mixes for the serving layer's tests.

pub mod datagen;
pub mod fig11;
pub mod randquery;
pub mod requestmix;
pub mod tpch_queries;
pub mod unrank;

pub use datagen::generate_data;
pub use fig11::{fig11_database, fig11_query};
pub use randquery::{generate_query, GenConfig, OpWeights, Topology};
pub use requestmix::{request_mix, MixConfig, RequestMix};
pub use tpch_queries::{ex_query, q10, q3, q5, table2_queries, TpchQuery};
pub use unrank::{catalan, tree_count, unrank_tree, TreeShape};
