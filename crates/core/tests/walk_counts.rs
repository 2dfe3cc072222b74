//! What the exact searches walk, summed over the repository benchmark's
//! query sets: the `ccps` and `units` tags of each `engine.enumerate` span
//! and each run's `plans_built`. The DPhyp walk grows a side only into a
//! set whose class has plans, so a pair with a side that has none is never
//! walked; these sums pin that, next to the units and plans.
//!
//! Its own file on purpose: it installs a process-global [`RingSink`],
//! which the spans of another file's concurrent tests would reach.

use dpnext_core::{optimize, Algorithm};
use dpnext_obs::{RingSink, TagValue};
use dpnext_workload::{generate_query, GenConfig};
use std::sync::{Arc, Mutex, MutexGuard};

/// `(ccps, units, plans_built)` summed over `algo`'s runs of `paper(ns)` ×
/// seeds 0..24, read from the spans `sink` collects.
fn walked(sink: &RingSink, algo: Algorithm, ns: std::ops::RangeInclusive<usize>) -> [u64; 3] {
    let mut sums = [0; 3];
    for (n, seed) in ns.flat_map(|n| (0..24).map(move |seed| (n, seed))) {
        let run = optimize(&generate_query(&GenConfig::paper(n), seed), algo);
        sums[2] += run.plans_built;
        let spans = sink.take();
        let walks: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "engine.enumerate")
            .collect();
        assert_eq!(1, walks.len(), "paper({n}) seed {seed}: one walk");
        for (sum, tag) in sums.iter_mut().zip(["ccps", "units"]) {
            let Some(&TagValue::U64(value)) = walks[0].tag(tag) else {
                panic!("paper({n}) seed {seed}: no {tag} tag");
            };
            *sum += value;
        }
    }
    sums
}

/// Install a fresh sink for one test; the lock keeps the two tests of
/// this file from tracing into each other's sink.
fn traced() -> (MutexGuard<'static, ()>, Arc<RingSink>) {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let sink = Arc::new(RingSink::new(64));
    dpnext_obs::install_sink(sink.clone());
    (guard, sink)
}

/// EA-Prune on `paper(8..=11)` × 24 walks 4,454 of the 7,352 pairs of
/// joinable sets, since its interior bound leaves classes empty; DPhyp,
/// which bounds nothing, walks all 7,352.
#[test]
fn the_walk_feeds_only_pairs_whose_sides_have_plans() {
    let (_lock, sink) = traced();
    let prune = walked(&sink, Algorithm::EaPrune, 8..=11);
    let dphyp = walked(&sink, Algorithm::DPhyp, 8..=11);
    dpnext_obs::clear_sink();
    assert_eq!([4_454, 26_016, 106_349], prune, "EA-Prune, paper(8..=11)");
    assert_eq!(7_352, dphyp[0], "DPhyp, paper(8..=11)");
}

/// EA-All on `paper(5..=7)` × 24 walks 1,563 pairs. About 8 s in a debug
/// build, under one in release; the CI `slow-oracle` job runs it.
#[test]
#[ignore]
fn ea_all_walks_only_pairs_whose_sides_have_plans() {
    let (_lock, sink) = traced();
    let all = walked(&sink, Algorithm::EaAll, 5..=7);
    dpnext_obs::clear_sink();
    assert_eq!(1_563, all[0], "EA-All, paper(5..=7)");
}
