//! The linearized-DP rung: exact DP restricted to the **contiguous
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
use dpnext_hypergraph::NodeSet;

/// Run interval DP over `order` on `search`, bottom-up by interval
/// length. Returns `true` when every split was processed within the
/// budget; `false` when the budget ran out (the search keeps the best
/// complete plan seen so far, typically the greedy one).
pub(super) fn linearized_dp(search: &mut Search<'_>, order: &[usize]) -> bool {
    let n = order.len();
    // prefix[i] = set of the first i relations of the order, so the set
    // of interval [i, j) is prefix[j] \ prefix[i].
    let mut prefix = vec![NodeSet::EMPTY; n + 1];
    for (i, &rel) in order.iter().enumerate() {
        prefix[i + 1] = prefix[i].insert(rel);
    }
    let interval = |i: usize, j: usize| prefix[j].difference(prefix[i]);
    // held[at(i, j)]: the class of interval [i, j) has plans. A single
    // relation has its scan; a longer interval is read once all its splits
    // have been processed, and no later split adds to it. Only a split of
    // two held halves is processed (on a star order, past length 1 only
    // intervals that hold the hub are held).
    let at = |i: usize, j: usize| i * (n + 1) + j;
    let mut held = vec![false; at(n + 1, 0)];
    for i in 0..n {
        held[at(i, i + 1)] = true;
    }
    for len in 2..=n {
        for start in 0..=(n - len) {
            let end = start + len;
            for split in start + 1..end {
                if held[at(start, split)]
                    && held[at(split, end)]
                    && !search.process(interval(start, split), interval(split, end))
                {
                    return false;
                }
            }
            held[at(start, end)] = !search.memo().class(interval(start, end)).is_empty();
        }
    }
    true
}
