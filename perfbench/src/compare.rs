//! `summary` and `compare`: read sets of result files and apply the
//! descriptor's bounds per (metric, workload) row.
//!
//! A *set* is a directory of `*.json` files, one per run, each an object
//! with `workload`, `trace` and the run's printed `result` (what
//! `run_benchmark.sh` writes). Per row, `compare` calls the candidate set
//! * `regression` when its median is worse than the baseline's by more
//!   than the bound,
//! * `unresolved` when either side's run-to-run spread (interquartile
//!   range over median) is wider than the bound — the runs cannot tell —
//!   unless every run of one side beats every run of the other,
//! * `improved` / `ok` otherwise.

use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::path::Path;

/// Metric values per `(workload, metric)`, in file-name order.
type Rows = BTreeMap<(String, String), Vec<f64>>;

pub struct ResultSet {
    pub end_to_end: Rows,
    pub per_layer: Rows,
    pub runs: usize,
    pub incorrect: Vec<String>,
}

pub fn load_set(dir: &Path) -> Result<ResultSet, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut set = ResultSet {
        end_to_end: Rows::new(),
        per_layer: Rows::new(),
        runs: 0,
        incorrect: Vec::new(),
    };
    for path in files {
        let at = |what: &str| format!("{}: {what}", path.display());
        let text = std::fs::read_to_string(&path).map_err(|e| at(&e.to_string()))?;
        let run = Json::parse(&text).map_err(|e| at(&e))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no `workload`"))?;
        let traced = run
            .get("trace")
            .and_then(Json::as_f64)
            .ok_or_else(|| at("no `trace`"))?
            != 0.0;
        let result = run.get("result").ok_or_else(|| at("no `result`"))?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            set.incorrect.push(path.display().to_string());
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| at("no `result.metrics`"))?;
        let rows = if traced {
            &mut set.per_layer
        } else {
            &mut set.end_to_end
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at(name))?;
            rows.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
        set.runs += 1;
    }
    if set.runs == 0 {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gated {
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics of the descriptor at `path`, by name.
fn gates(path: &Path) -> Result<BTreeMap<String, Gated>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let descriptor = Json::parse(&text)?;
    let list = descriptor
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("descriptor has no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without `better`")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without `bound`")?;
            Ok((
                name.to_string(),
                Gated {
                    higher_is_better: better == "higher",
                    bound,
                },
            ))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    Unresolved,
}

pub struct Row {
    pub verdict: Verdict,
    pub median_a: f64,
    pub median_b: f64,
    /// By how much of the baseline median the candidate is worse
    /// (negative: better).
    pub worse_by: f64,
    pub spread: f64,
}

pub fn judge(a: &[f64], b: &[f64], gate: Gated) -> Row {
    let (median_a, median_b) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let sign = if gate.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = if median_a == 0.0 {
        0.0
    } else {
        sign * (median_b - median_a) / median_a.abs()
    };
    let spread = spread(a).max(spread(b));
    let beats = |x: &[f64], y: &[f64]| {
        x.iter().all(|&x| {
            y.iter()
                .all(|&y| if gate.higher_is_better { x > y } else { x < y })
        })
    };
    let separated = beats(a, b) || beats(b, a);
    let verdict = if spread > gate.bound && !separated {
        Verdict::Unresolved
    } else if worse_by > gate.bound {
        Verdict::Regression
    } else if worse_by < -gate.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    Row {
        verdict,
        median_a,
        median_b,
        worse_by,
        spread,
    }
}

/// Print median and quartiles of every end-to-end row of one set.
pub fn summary(dir: &Path) -> Result<(), String> {
    let set = load_set(dir)?;
    println!("{} runs in {}", set.runs, dir.display());
    println!(
        "{:<16} {:<20} {:>4} {:>16} {:>16} {:>16} {:>8}",
        "workload", "metric", "runs", "q1", "median", "q3", "spread"
    );
    for ((workload, metric), values) in &set.end_to_end {
        let (q1, q3) = quartiles(&mut values.clone());
        println!(
            "{workload:<16} {metric:<20} {:>4} {q1:>16.4} {:>16.4} {q3:>16.4} {:>7.2}%",
            values.len(),
            median(&mut values.clone()),
            100.0 * spread(values)
        );
    }
    for file in &set.incorrect {
        println!("not correct: {file}");
    }
    Ok(())
}

/// Compare candidate set `b` with baseline set `a`. Returns the number of
/// regressions and of unresolved rows.
pub fn compare(a: &Path, b: &Path, descriptor: &Path) -> Result<(usize, usize), String> {
    let gates = gates(descriptor)?;
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    println!(
        "baseline {} ({} runs) vs candidate {} ({} runs)",
        a.display(),
        set_a.runs,
        b.display(),
        set_b.runs
    );
    println!(
        "{:<16} {:<20} {:>16} {:>16} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "spread", "bound"
    );
    let (mut regressions, mut unresolved) = (0, 0);
    for (key, values_a) in &set_a.end_to_end {
        let (workload, metric) = key;
        let Some(values_b) = set_b.end_to_end.get(key) else {
            return Err(format!(
                "{workload}/{metric} is missing from {}",
                b.display()
            ));
        };
        let gate = *gates
            .get(metric)
            .ok_or_else(|| format!("{metric} is not an end-to-end metric of the descriptor"))?;
        let row = judge(values_a, values_b, gate);
        match row.verdict {
            Verdict::Regression => regressions += 1,
            Verdict::Unresolved => unresolved += 1,
            Verdict::Ok | Verdict::Improved => {}
        }
        println!(
            "{workload:<16} {metric:<20} {:>16.4} {:>16.4} {:>8.2}% {:>7.2}% {:>6.2}%  {:?}",
            row.median_a,
            row.median_b,
            100.0 * row.worse_by,
            100.0 * row.spread,
            100.0 * gate.bound,
            row.verdict
        );
    }
    // Per-layer rows carry no bound: medians and the change, for reading.
    for (key, values_a) in &set_a.per_layer {
        if let Some(values_b) = set_b.per_layer.get(key) {
            let (ma, mb) = (median(&mut values_a.clone()), median(&mut values_b.clone()));
            if ma != mb {
                let change = if ma == 0.0 {
                    f64::INFINITY
                } else {
                    100.0 * (mb - ma) / ma.abs()
                };
                println!(
                    "{:<16} {:<36} {ma:>16.4} {mb:>16.4} {change:>+8.2}%",
                    key.0, key.1
                );
            }
        }
    }
    for file in set_a.incorrect.iter().chain(&set_b.incorrect) {
        println!("not correct: {file}");
        regressions += 1;
    }
    println!("{regressions} regressions, {unresolved} unresolved");
    Ok((regressions, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Gated = Gated {
        higher_is_better: false,
        bound: 0.10,
    };
    const HIGHER: Gated = Gated {
        higher_is_better: true,
        bound: 0.10,
    };

    #[test]
    fn within_the_bound_is_ok_and_beyond_it_a_regression() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            Verdict::Ok,
            judge(&a, &[105.0, 104.0, 106.0], LOWER).verdict
        );
        assert_eq!(
            Verdict::Regression,
            judge(&a, &[115.0, 114.0, 116.0], LOWER).verdict
        );
        assert_eq!(
            Verdict::Improved,
            judge(&a, &[85.0, 84.0, 86.0], LOWER).verdict
        );
        // The same numbers read the other way for a rate.
        assert_eq!(
            Verdict::Improved,
            judge(&a, &[115.0, 114.0, 116.0], HIGHER).verdict
        );
        assert_eq!(
            Verdict::Regression,
            judge(&a, &[85.0, 84.0, 86.0], HIGHER).verdict
        );
        let row = judge(&a, &[115.0, 114.0, 116.0], LOWER);
        assert!((row.worse_by - 0.15).abs() < 1e-12);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_the_sides_separate() {
        // Spread 40% on the baseline: medians 100 vs 112 cannot be told.
        let noisy = [80.0, 100.0, 120.0];
        assert_eq!(
            Verdict::Unresolved,
            judge(&noisy, &[112.0, 113.0, 111.0], LOWER).verdict
        );
        // Every candidate run is slower than every baseline run: resolved.
        assert_eq!(
            Verdict::Regression,
            judge(&noisy, &[130.0, 131.0, 132.0], LOWER).verdict
        );
        assert_eq!(
            Verdict::Improved,
            judge(&noisy, &[60.0, 61.0, 62.0], LOWER).verdict
        );
    }

    #[test]
    fn exact_metrics_regress_on_any_change() {
        let exact = Gated {
            higher_is_better: false,
            bound: 1e-9,
        };
        let a = [130_362_516.0; 3];
        assert_eq!(Verdict::Ok, judge(&a, &a, exact).verdict);
        assert_eq!(
            Verdict::Regression,
            judge(&a, &[130_362_517.0; 3], exact).verdict
        );
    }

    #[test]
    fn reads_a_set_written_as_the_runner_writes_it() {
        let dir = std::env::temp_dir().join(format!("perfbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, v) in [10.0, 11.0, 12.0].iter().enumerate() {
            let run = Json::Obj(vec![
                ("workload".into(), Json::Str("ea-prune-paper".into())),
                ("trace".into(), Json::Num(0.0)),
                (
                    "result".into(),
                    Json::Obj(vec![
                        ("correct".into(), Json::Bool(true)),
                        (
                            "metrics".into(),
                            Json::Obj(vec![(
                                "latency_p50_us".into(),
                                Json::Obj(vec![
                                    ("value".into(), Json::Num(*v)),
                                    ("unit".into(), Json::Str("us".into())),
                                ]),
                            )]),
                        ),
                    ]),
                ),
            ]);
            std::fs::write(dir.join(format!("run{i}.json")), run.to_string()).unwrap();
        }
        let set = load_set(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(3, set.runs);
        assert!(set.incorrect.is_empty() && set.per_layer.is_empty());
        let key = ("ea-prune-paper".to_string(), "latency_p50_us".to_string());
        assert_eq!(vec![10.0, 11.0, 12.0], set.end_to_end[&key]);
    }
}
