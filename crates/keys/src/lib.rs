//! # dpnext-keys
//!
//! Key inference (§2.3): candidate-key propagation rules for every join
//! operator and the `NeedsGrouping` test (Fig. 7) — the key sets the
//! dominance pruning of §4.6 compares.

pub mod infer;
pub mod keyset;

pub use infer::{infer_join_keys_presorted, join_duplicate_free, needs_grouping, JoinKeys};
pub use keyset::{signature_may_imply, Key, KeySet, KeysRef, Span};
