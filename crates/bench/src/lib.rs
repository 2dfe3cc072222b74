//! # dpnext-bench
//!
//! The experiment harness regenerating the paper's evaluation (§5):
//! one binary per figure/table (`fig15` … `fig18`, `table1`, `table2`,
//! `intro_query`) plus Criterion microbenchmarks. See EXPERIMENTS.md for
//! the recorded paper-vs-measured comparison.

pub mod sweep;

pub use sweep::{print_memo_table, print_table, run_sweep, AlgoSpec, Args, Cell, SweepResult};
