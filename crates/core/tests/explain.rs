//! EXPLAIN is rendered on every optimization that asks for it — every
//! serving miss — so it writes each node straight into its output. The
//! text it writes is pinned here, byte for byte, on a plan that shows every
//! kind of line: joins, groupings, partial aggregates, count columns, key
//! sets and a scan with no property at all (its line ends in two spaces).

use dpnext_core::{optimize, Algorithm};
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
    let explain = optimize(&q10().bound.query, Algorithm::H1).explain;
    assert_eq!(explain, Q10_H1, "EXPLAIN text changed:\n{explain}");
}
