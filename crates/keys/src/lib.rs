//! # dpnext-keys
//!
//! Key and functional-dependency inference (§2.3): candidate-key
//! propagation rules for every join operator, the `NeedsGrouping` test
//! (Fig. 7), and FD closures backing the dominance pruning of §4.6.

pub mod fd;
pub mod infer;
pub mod keyset;

pub use fd::{Fd, FdSet};
pub use infer::{
    infer_join_keys, infer_join_keys_presorted, join_duplicate_free, needs_grouping, JoinKeys,
    KeyInfo,
};
pub use keyset::{Key, KeySet, KeysRef, Span};
