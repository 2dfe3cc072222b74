//! Property validation of the key-inference rules (§2.3) and the
//! cardinality estimator: for every plan EA-All enumerates on small random
//! queries, compile and execute it; every claimed candidate key must hold
//! on the actual result, and a claimed duplicate-free result must contain
//! no duplicates. Wrong key claims would make `NeedsGrouping` drop
//! necessary groupings — this test pins the soundness boundary.

use dpnext_core::{all_subplans, compile};
use dpnext_workload::{generate_data, generate_query, GenConfig, OpWeights};

#[test]
fn claimed_keys_hold_on_executed_results() {
    for n in 2..=4 {
        let mut cfg = GenConfig::oracle(n);
        cfg.ops = OpWeights::mixed();
        for seed in 700..715 {
            let query = generate_query(&cfg, seed);
            let db = generate_data(&query, 6, 0.1, seed);
            let (ctx, memo, plans) = all_subplans(&query);
            for &id in &plans {
                let plan = memo.plan(id);
                let rel = compile(&ctx, &memo, id).eval(&db);
                if plan.hot.duplicate_free() {
                    assert!(
                        rel.is_duplicate_free(),
                        "plan claims duplicate-freeness but result has duplicates \
                         (n={n}, seed={seed}):\n{}",
                        compile(&ctx, &memo, id)
                    );
                }
                for key in plan.keys().iter() {
                    // A key claim additionally requires duplicate-freeness
                    // to be meaningful for NeedsGrouping; check the
                    // combination the optimizer actually relies on.
                    if !plan.hot.duplicate_free() {
                        continue;
                    }
                    let key: Vec<_> = ctx.decode_key(key).collect();
                    let proj = dpnext_algebra::ops::project(&rel, &key, false);
                    assert!(
                        proj.is_duplicate_free(),
                        "claimed key {key:?} violated (n={n}, seed={seed}):\n{}",
                        compile(&ctx, &memo, id)
                    );
                }
            }
        }
    }
}

#[test]
fn subplan_enumeration_is_substantial() {
    // Guard against silently empty enumerations.
    let query = generate_query(&GenConfig::oracle(4), 3);
    let (_, _, plans) = all_subplans(&query);
    assert!(plans.len() > 10, "only {} plans enumerated", plans.len());
}
