//! The repository's benchmark, described by `BENCHMARK.json` at the root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! benchmark summary <set>
//! benchmark compare <set-a> <set-b> [--descriptor <BENCHMARK.json>]
//! ```
//!
//! A run drives one workload in this process, closed loop, checks that the
//! outputs are correct, and prints as the last line of standard output one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Progress notes go to standard error. See `BENCHMARK.md`.

mod alloc;
mod compare;
mod descriptor;
mod json;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  benchmark summary <set>
  benchmark compare <set-a> <set-b> [--descriptor <BENCHMARK.json>]
workloads: ea-prune-paper, ea-all-paper, serve-sql-hot, adaptive-large";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

/// `--flag value` pairs; every flag is required unless it has a default.
fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn run(args: &RunArgs) -> ExitCode {
    let w = args.workload;
    let run::Outcome {
        metrics,
        attempted,
        failed,
        failures,
    } = if args.trace {
        layers::layered(w, args.seed, args.seconds, &args.out)
    } else {
        run::end_to_end(w, args.seed, args.seconds)
    };
    for f in &failures {
        eprintln!("[{w}] FAILED: {f}");
    }
    let correct = failed == 0 && failures.is_empty();
    let metrics = metrics
        .into_iter()
        .map(|(name, value)| {
            let unit =
                descriptor::unit_of(name).expect("every printed metric is in the descriptor");
            let entry = vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ];
            (name.to_string(), Json::Obj(entry))
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("summary") if args.len() == 2 => {
            compare::summary(Path::new(&args[1])).map(|()| ExitCode::SUCCESS)
        }
        Some("compare") if args.len() == 3 || (args.len() == 5 && args[3] == "--descriptor") => {
            let descriptor = args.get(4).map_or("BENCHMARK.json", String::as_str);
            compare::compare(
                Path::new(&args[1]),
                Path::new(&args[2]),
                Path::new(descriptor),
            )
            .map(
                |(regressions, unresolved)| match (regressions, unresolved) {
                    (0, 0) => ExitCode::SUCCESS,
                    (0, _) => ExitCode::from(2),
                    _ => ExitCode::FAILURE,
                },
            )
        }
        Some(flag) if flag.starts_with("--") => parse_run_args(&args).map(|a| run(&a)),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        ExitCode::from(64)
    })
}
