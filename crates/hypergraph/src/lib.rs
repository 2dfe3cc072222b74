//! # dpnext-hypergraph
//!
//! Query hypergraphs and the DPhyp csg-cmp-pair enumerator — the second
//! component of the plan generator of §4.1 (Moerkotte & Neumann's
//! algorithm, cited as \[8\] in the paper).

pub mod bitset;
#[cfg(test)]
mod dpccp;
pub mod dphyp;
pub mod fxhash;
pub mod graph;

pub use bitset::{NodeSet, MAX_RELATIONS};
pub use dphyp::{
    ccp_lower_bound, count_ccps, count_ccps_bruteforce, count_ccps_capped, enumerate_ccps,
    try_enumerate_ccps, DpTable,
};
// perfbench-only
pub use dphyp::{stratify_ccps, CcpStrata};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use graph::{Hyperedge, Hypergraph};
