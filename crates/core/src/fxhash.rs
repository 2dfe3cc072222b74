//! Fast hashing for the optimizer's hot maps.
//!
//! The hasher itself lives in `dpnext_hypergraph::fxhash` (next to
//! [`dpnext_hypergraph::NodeSet`], its primary key type, so the
//! hypergraph crate's own dedup structures can use it without a
//! dependency cycle); this module is the core-crate face of it. Every
//! `NodeSet`- or attribute-keyed map on the enumeration hot path — the
//! memo's plan classes, the memoized `G⁺` cache, the context's
//! origin/distinct statistics — hashes through
//! [`FxHasher`] instead of the standard library's SipHash: the keys are
//! one or two machine words and produced by the optimizer itself, so
//! HashDoS resistance is irrelevant and the multiply-xor mix wins the
//! probe cost outright (see `crates/core/benches/fxhash.rs`).

pub use dpnext_hypergraph::fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
