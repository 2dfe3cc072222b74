//! The q-error chain end to end: a plan chosen under perturbed statistics
//! (`dpnext_workload::perturbed_pair`), re-costed under the true ones
//! ([`recost_plan`]), against the true EA-Prune optimum.

use dpnext_core::{
    optimize, optimize_prepared, recost_plan, Algorithm, Memo, OptContext, OptimizeOptions,
};
use dpnext_workload::{perturbed_pair, GenConfig, Topology};

/// At q = 1 the perturbation is the identity, so rebuilding the chosen
/// plan through the real constructors reproduces its optimized cost bit
/// for bit (drift exactly 1). At q > 1 the optimizer only ever sees the
/// perturbed statistics; what its plan costs in the true world is finite
/// and never below the true optimum (drift ≥ 1).
#[test]
fn recosted_plan_never_beats_the_true_optimum() {
    for topo in [Topology::Chain, Topology::Star] {
        for q in [1.0, 2.0, 4.0] {
            for seed in 0..3u64 {
                let what = format!("{topo:?} q={q} seed={seed}");
                let (truth, perturbed) = perturbed_pair(&GenConfig::topology(8, topo), seed, q);
                let true_optimum = optimize(&truth, Algorithm::EaPrune).plan.cost;

                // EA-Prune on the perturbed twin, keeping the memo and the
                // winner's id.
                let ctx = OptContext::new(perturbed);
                let mut memo = Memo::new();
                let opts = OptimizeOptions::default();
                let (chosen, winner) =
                    optimize_prepared(&ctx, Algorithm::EaPrune, &opts, &mut memo);

                let recosted = recost_plan(&OptContext::new(truth), &memo, winner)
                    .unwrap_or_else(|e| panic!("{what}: recost failed: {e}"));
                if q == 1.0 {
                    let chosen = chosen.plan.cost;
                    assert_eq!(chosen.to_bits(), recosted.cost.to_bits(), "{what}");
                    assert_eq!(true_optimum.to_bits(), recosted.cost.to_bits(), "{what}");
                } else {
                    assert!(recosted.cost.is_finite(), "{what}: {}", recosted.cost);
                    assert!(
                        recosted.cost >= true_optimum * (1.0 - 1e-9),
                        "{what}: recosted {} beats the true optimum {true_optimum}",
                        recosted.cost
                    );
                }
            }
        }
    }
}
