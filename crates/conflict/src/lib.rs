//! # dpnext-conflict
//!
//! The conflict detector substrate (\[7\] in the paper): encodes which
//! reorderings of inner joins, outerjoins, semijoins, antijoins and
//! groupjoins are valid, via operator property tables, TES computation and
//! conflict rules, and exposes the `Applicable` test used by every plan
//! generator (§4.1, component 3).

pub mod detect;
pub mod tables;

pub use detect::{
    applicable_ops_into, detect, Applicability, ConflictRule, ConflictedQuery, OperatorInfo,
};
pub use tables::{assoc, l_asscom, r_asscom};
