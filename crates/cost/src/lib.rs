//! # dpnext-cost
//!
//! Cardinality estimation and the `C_out` cost function of §4.4: the cost
//! of a plan is the sum of the cardinalities of all intermediate results
//! (scans and final projections are free).

pub mod card;

pub use card::{distinct_in, grouping_card, join_card, match_probability};
