//! The linearized-DP rung: exact DP restricted to **connected contiguous
//! intervals** of a linear relation order (IKKBZ-flavored — the order
//! comes from the greedy merge tree, whose every subtree is an interval
//! of it).
//!
//! For an order `π` the DP table is indexed by intervals `π[i..j)`; each
//! interval is built from every split `π[i..k) ◦ π[k..j)` whose halves
//! hold plans and whose cut some operator crosses. The pairs feed the
//! same engine (`op_trees` + dominance pruning) as the exact search, so
//! eager/lazy aggregation placement is explored at every split — only the
//! *join-order* space is restricted, from exponential to `O(n³)` splits.
//! Because the greedy tree's merges all appear as splits, the linearized
//! optimum is never worse than the greedy plan.

use crate::algo::Search;
use crate::context::OptContext;
use dpnext_hypergraph::NodeSet;

/// Run interval DP over `order` on `search`, bottom-up by interval
/// length. Returns `true` when every split was processed within the
/// budget; `false` when the budget ran out (the search keeps the best
/// complete plan seen so far, typically the greedy one).
pub(super) fn linearized_dp(search: &mut Search<'_>, ctx: &OptContext, order: &[usize]) -> bool {
    let n = order.len();
    debug_assert_eq!(n, ctx.query.table_count());
    // prefix[i] = set of the first i relations of the order, so the set
    // of interval [i, j) is prefix[j] \ prefix[i].
    let mut prefix = vec![NodeSet::EMPTY; n + 1];
    for (i, &rel) in order.iter().enumerate() {
        prefix[i + 1] = prefix[i].insert(rel);
    }
    let interval = |i: usize, j: usize| prefix[j].difference(prefix[i]);
    for len in 2..=n {
        for start in 0..=(n - len) {
            let end = start + len;
            let s = interval(start, end);
            // Disconnected intervals can never produce a plan; skipping
            // them early keeps the probe loop cheap on sparse topologies
            // (on a star order, only prefixes containing the hub survive).
            if !ctx.cq.graph.is_connected(s) {
                continue;
            }
            for split in start + 1..end {
                let a = interval(start, split);
                let b = interval(split, end);
                if search.memo().class(a).is_empty() || search.memo().class(b).is_empty() {
                    continue;
                }
                if !search.process(a, b) {
                    return false;
                }
            }
        }
    }
    true
}
