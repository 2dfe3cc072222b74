//! EXPLAIN is rendered on demand, from the memo a run leaves behind and the
//! winner's id, and writes each node straight into its output. The text it
//! writes is pinned here, byte for byte, on a plan that shows every kind of
//! line: joins, groupings, partial aggregates, count columns, key sets and a
//! scan with no property at all (its line ends in two spaces).

use dpnext_core::{explain, optimize_prepared, Algorithm, Memo, OptContext, OptimizeOptions};
use dpnext_workload::q10;

/// TPC-H Q10 under H1, as rendered before EXPLAIN stopped building a
/// string per node.
#[rustfmt::skip]
const Q10_H1: &str = concat!(
    "operator                                                est. rows        C_out  properties\n",
    "⋈ [a25=a40]                                               99996.0    3299988.0  dup-free, keys={a24} {a29}, 1 partial agg(s), 1 count col(s)\n",
    "  ⋈ [a24=a29]                                             99996.0    3199992.0  dup-free, keys={a24} {a29}, 1 partial agg(s), 1 count col(s)\n",
    "    Scan c                                               150000.0          0.0  dup-free, keys={a24}\n",
    "    Γ [a29]                                               99996.0    3099996.0  dup-free, keys={a29}, 1 partial agg(s), 1 count col(s)\n",
    "      ⋈ [a28=a33]                                       1500000.0    3000000.0  dup-free, keys={a28} {a33}, 1 partial agg(s), 1 count col(s)\n",
    "        Scan o                                          1500000.0          0.0  dup-free, keys={a28}\n",
    "        Γ [a33]                                         1500000.0    1500000.0  dup-free, keys={a33}, 1 partial agg(s), 1 count col(s)\n",
    "          Scan l                                        6001215.0          0.0  \n",
    "  Scan n                                                     25.0          0.0  dup-free, keys={a40}\n",
);

#[test]
fn explain_text_is_byte_identical_on_tpch_q10() {
    let (ctx, mut memo) = (OptContext::new(q10().bound.query), Memo::new());
    let opts = OptimizeOptions::default();
    let (_, winner) = optimize_prepared(&ctx, Algorithm::H1, &opts, &mut memo);
    let text = explain(&ctx, &memo, winner);
    assert_eq!(text, Q10_H1, "EXPLAIN text changed:\n{text}");
}
