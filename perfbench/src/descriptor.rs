//! The metric names and units the benchmark prints. `BENCHMARK.json` at
//! the repository root states the same lists (plus direction and bound); a
//! test holds the two together.

/// `(name, unit)` of the end-to-end metrics, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("latency_geomean_us", "us"),
    ("plans_per_s", "1/s"),
    ("plan_cost_ratio", "ratio"),
    ("peak_live_bytes", "bytes"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
];

/// `(name, unit)` of the per-layer metrics, printed by `--trace 1`. The
/// prefix is the layer: a crate of the repository, the allocator, or the
/// harness itself (`trace.`, `bench.`). A `_us` value is the mean over a
/// pass's calls of that stage, each request entering with its best time.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("sql.lex_parse_us", "us"),
    ("sql.bind_us", "us"),
    ("sql.statements", "count"),
    ("sql.errors", "count"),
    ("core.context_us", "us"),
    ("hypergraph.ccp_pairs", "count"),
    ("hypergraph.ccp_walk_us", "us"),
    ("hypergraph.ccps_per_s", "1/s"),
    ("hypergraph.stratify_us", "us"),
    ("core.optimize_us", "us"),
    ("core.enumerate_self_us", "us"),
    ("core.enumerate_share", "ratio"),
    ("core.ns_per_plan", "ns"),
    ("core.plans_built", "count"),
    ("core.retained_plans", "count"),
    ("core.arena_plans", "count"),
    ("core.peak_class_width", "count"),
    ("core.prune_attempts", "count"),
    ("core.prune_hit_rate", "ratio"),
    ("core.live_bytes_peak", "bytes"),
    ("core.explain_us", "us"),
    ("core.t2_speedup", "ratio"),
    ("adaptive.ladder_us", "us"),
    ("adaptive.greedy_only_us", "us"),
    ("adaptive.plans_built", "count"),
    ("adaptive.budget_used_share", "ratio"),
    ("adaptive.wasted_plan_share", "ratio"),
    ("adaptive.rung.exact", "count"),
    ("adaptive.rung.partial-exact", "count"),
    ("adaptive.rung.linearized", "count"),
    ("adaptive.rung.greedy", "count"),
    ("adaptive.degraded.budget_gated", "count"),
    ("adaptive.degraded.budget_aborted", "count"),
    ("adaptive.cost_vs_greedy", "ratio"),
    ("adaptive.deadline_overshoot_ratio", "ratio"),
    ("serve.fingerprint_us", "us"),
    ("serve.cache_lookup_us", "us"),
    ("serve.cache_insert_us", "us"),
    ("serve.gate_wait_us", "us"),
    ("serve.pool_checkout_us", "us"),
    ("serve.pool_checkin_us", "us"),
    ("serve.hit_path_us", "us"),
    ("serve.miss_path_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.frontend_hit_share", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.pool_created", "count"),
    ("serve.pool_reuse_rate", "ratio"),
    ("serve.rejected", "count"),
    ("serve.panics", "count"),
    ("alloc.count_per_req", "count"),
    ("alloc.bytes_per_req", "bytes"),
    ("alloc.settle_us", "us"),
    ("algebra.oracle_checked", "count"),
    ("algebra.oracle_failed", "count"),
    ("algebra.eval_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("bench.pass_spread", "ratio"),
    ("bench.samples", "count"),
    ("bench.passes", "count"),
    ("bench.failed_share", "ratio"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn descriptor() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root")).unwrap()
    }

    fn names_units(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let d = descriptor();
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            owned(&END_TO_END),
            names_units(d.get("end_to_end").unwrap())
        );
        assert_eq!(owned(&PER_LAYER), names_units(d.get("per_layer").unwrap()));
        let workloads: Vec<&str> = d
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(ours, workloads);
    }

    #[test]
    fn benchmark_json_stays_within_the_contract_limits() {
        let d = descriptor();
        let keys: Vec<&str> = d
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            vec![
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ],
            keys
        );
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for list in ["end_to_end", "per_layer"] {
            for (name, unit) in names_units(d.get(list).unwrap()) {
                assert!(name_ok(&name), "{name}");
                assert!(unit_ok(&unit), "{name}: {unit}");
                assert!(seen.insert(name.clone()), "{name} used twice");
            }
        }
        let e2e = d.get("end_to_end").and_then(Json::as_arr).unwrap();
        for m in e2e {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m}");
            assert!(matches!(
                m.get("better").and_then(Json::as_str),
                Some("lower" | "higher")
            ));
        }
        let setup = e2e
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
            .unwrap();
        assert_eq!(Some("lower"), setup.get("better").and_then(Json::as_str));
        assert_eq!(Some("s"), setup.get("unit").and_then(Json::as_str));
        for w in d.get("workloads").and_then(Json::as_arr).unwrap() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let seconds = d.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
