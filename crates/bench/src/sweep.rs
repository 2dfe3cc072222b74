//! Sweep runner: optimize batches of random queries per relation count
//! with several algorithms and aggregate costs and runtimes, mirroring
//! the methodology of §5 (10 000 random trees per size in the paper; the
//! sample size here is configurable).

use dpnext::Optimizer;
use dpnext_core::Algorithm;
use dpnext_workload::{generate_query, GenConfig};
use std::time::Duration;

/// One algorithm with the largest query size it is allowed to attempt
/// (the paper stops EA-All at 8 and EA-Prune at 13 relations).
#[derive(Debug, Clone, Copy)]
pub struct AlgoSpec {
    pub algo: Algorithm,
    pub max_n: usize,
}

impl AlgoSpec {
    pub fn new(algo: Algorithm, max_n: usize) -> Self {
        AlgoSpec { algo, max_n }
    }
}

/// Aggregated measurements for one `(algorithm, n)` cell.
#[derive(Debug, Clone, Default)]
pub struct Cell {
    pub queries: usize,
    pub mean_cost: f64,
    pub mean_runtime: Duration,
    /// Geometric mean of per-query cost ratios against the reference
    /// algorithm (the first algorithm of the sweep); robust against the
    /// heavy-tailed outliers the paper reports.
    pub mean_rel_cost: f64,
    /// Arithmetic mean of the ratios (outlier sensitive).
    pub arith_rel_cost: f64,
    /// Largest per-query cost ratio observed (the paper's "extreme
    /// outliers").
    pub max_rel_cost: f64,
    pub mean_plans_built: f64,
    /// Mean memo arena size at the end: the retained DP state plus what
    /// rollback cannot reach (evicted incumbents, which stay alive as
    /// children of later plans, and the groupings under kept trees);
    /// refused candidates are popped as the search goes.
    pub mean_arena_plans: f64,
    /// Mean peak plan-class width.
    pub mean_peak_class_width: f64,
    /// Mean dominance-prune hit-rate (0 when the algorithm never prunes).
    pub mean_prune_hit_rate: f64,
}

/// Results of a sweep: `cells[algo_index][size_index]` (None where the
/// algorithm was size-capped).
pub struct SweepResult {
    pub sizes: Vec<usize>,
    pub algos: Vec<AlgoSpec>,
    pub cells: Vec<Vec<Option<Cell>>>,
}

/// Run the sweep. For every size, `queries` seeds are drawn; the same
/// query is fed to every algorithm. The *first* algorithm serves as the
/// reference for relative costs.
pub fn run_sweep(
    sizes: &[usize],
    queries: usize,
    base_seed: u64,
    algos: &[AlgoSpec],
    gen_cfg: impl Fn(usize) -> GenConfig,
) -> SweepResult {
    let mut cells: Vec<Vec<Option<Cell>>> = vec![vec![None; sizes.len()]; algos.len()];
    for (si, &n) in sizes.iter().enumerate() {
        let cfg = gen_cfg(n);
        let mut costs: Vec<Vec<f64>> = vec![Vec::new(); algos.len()];
        let mut times: Vec<Duration> = vec![Duration::ZERO; algos.len()];
        let mut plans: Vec<f64> = vec![0.0; algos.len()];
        let mut arena: Vec<f64> = vec![0.0; algos.len()];
        let mut width: Vec<f64> = vec![0.0; algos.len()];
        let mut hits: Vec<f64> = vec![0.0; algos.len()];
        for q in 0..queries {
            let seed = base_seed
                .wrapping_add(n as u64 * 1_000_003)
                .wrapping_add(q as u64 * 7_919);
            let query = generate_query(&cfg, seed);
            for (ai, spec) in algos.iter().enumerate() {
                if n > spec.max_n {
                    continue;
                }
                // EXPLAIN rendering off: sweeps time the search itself.
                let r = Optimizer::new(spec.algo).explain(false).optimize(&query);
                costs[ai].push(r.plan.cost);
                times[ai] += r.elapsed;
                plans[ai] += r.plans_built as f64;
                arena[ai] += r.memo.arena_plans as f64;
                width[ai] += r.memo.peak_class_width as f64;
                hits[ai] += r.memo.prune_hit_rate();
            }
        }
        for (ai, spec) in algos.iter().enumerate() {
            if n > spec.max_n || costs[ai].is_empty() {
                continue;
            }
            let m = costs[ai].len();
            let mean_cost = costs[ai].iter().sum::<f64>() / m as f64;
            let (mut rel_sum, mut log_sum, mut rel_max) = (0.0f64, 0.0f64, 0.0f64);
            for (c, r) in costs[0].iter().zip(costs[ai].iter()) {
                // This algorithm's cost relative to the reference.
                let ratio = if *c > 0.0 { r / c } else { 1.0 };
                rel_sum += ratio;
                log_sum += ratio.max(1e-30).ln();
                rel_max = rel_max.max(ratio);
            }
            cells[ai][si] = Some(Cell {
                queries: m,
                mean_cost,
                mean_runtime: times[ai] / m as u32,
                mean_rel_cost: (log_sum / m as f64).exp(),
                arith_rel_cost: rel_sum / m as f64,
                max_rel_cost: rel_max,
                mean_plans_built: plans[ai] / m as f64,
                mean_arena_plans: arena[ai] / m as f64,
                mean_peak_class_width: width[ai] / m as f64,
                mean_prune_hit_rate: hits[ai] / m as f64,
            });
        }
    }
    SweepResult {
        sizes: sizes.to_vec(),
        algos: algos.to_vec(),
        cells,
    }
}

/// Render a column-aligned table with one row per size. `value` extracts
/// the printed quantity from a cell.
pub fn print_table(title: &str, result: &SweepResult, value: impl Fn(&Cell) -> String) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&format!("{:>4}", "n"));
    for spec in &result.algos {
        out.push_str(&format!(" {:>16}", spec.algo.name()));
    }
    out.push('\n');
    for (si, n) in result.sizes.iter().enumerate() {
        out.push_str(&format!("{n:>4}"));
        for (ai, _) in result.algos.iter().enumerate() {
            match &result.cells[ai][si] {
                Some(cell) => out.push_str(&format!(" {:>16}", value(cell))),
                None => out.push_str(&format!(" {:>16}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Render the memo statistics of a sweep (arena size, peak class width,
/// prune hit-rate) as `arena/width/hit%` cells — the standard supplement
/// the figure binaries print after their headline table.
pub fn print_memo_table(result: &SweepResult) -> String {
    print_table(
        "Memo — mean arena plans / peak class width / prune hit-rate",
        result,
        |c| {
            format!(
                "{:.0}/{:.0}/{:.0}%",
                c.mean_arena_plans,
                c.mean_peak_class_width,
                100.0 * c.mean_prune_hit_rate
            )
        },
    )
}

/// Tiny command-line parsing:
/// `--queries N --min N --max N --seed N`.
pub struct Args {
    pub queries: usize,
    pub min_n: usize,
    pub max_n: usize,
    pub seed: u64,
}

impl Args {
    pub fn parse(default_queries: usize, default_min: usize, default_max: usize) -> Args {
        let mut args = Args {
            queries: default_queries,
            min_n: default_min,
            max_n: default_max,
            seed: 42,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let v = it
                .next()
                .unwrap_or_else(|| panic!("missing value for {flag}"));
            match flag.as_str() {
                "--queries" => args.queries = v.parse().expect("--queries"),
                "--min" => args.min_n = v.parse().expect("--min"),
                "--max" => args.max_n = v.parse().expect("--max"),
                "--seed" => args.seed = v.parse().expect("--seed"),
                other => panic!("unknown flag {other} (supported: --queries --min --max --seed)"),
            }
        }
        args
    }

    pub fn sizes(&self) -> Vec<usize> {
        (self.min_n..=self.max_n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_aggregates() {
        let algos = [
            AlgoSpec::new(Algorithm::DPhyp, 20),
            AlgoSpec::new(Algorithm::H1, 20),
            AlgoSpec::new(Algorithm::EaPrune, 5),
        ];
        let r = run_sweep(&[3, 6], 4, 7, &algos, GenConfig::paper);
        assert_eq!(2, r.sizes.len());
        // EA-Prune capped at 5: missing for n = 6.
        assert!(r.cells[2][0].is_some());
        assert!(r.cells[2][1].is_none());
        let c = r.cells[1][0].as_ref().unwrap();
        assert_eq!(4, c.queries);
        // H1 explores a superset of the baseline's trees; on average it
        // lands at or below the baseline (individual queries may regress —
        // that is the Bellman violation of §4.4).
        assert!(c.mean_rel_cost <= 2.0, "rel = {}", c.mean_rel_cost);
        let table = print_table("t", &r, |c| format!("{:.3}", c.mean_rel_cost));
        assert!(table.contains("DPhyp"));
        assert!(table.contains('-'));
    }
}
