//! The REV reproduction's benchmark: two gated workloads (`sweep-quick`,
//! `serve-open`) and one run by name only (`sim-long`), end-to-end
//! metrics untraced and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload sweep-quick|sim-long|serve-open|all --seed N \
//!           --seconds S --trace 0|1 [--out-dir DIR]
//! ```
//!
//! Run from the repository root (it reads `baselines/quick.json`). Each
//! workload prints one summary line (host fingerprint, error rate,
//! every metric's median and quartiles, check results) and then the
//! result line: `{"correct", "attempted", "failed", "metrics"}`, with
//! the end-to-end metrics under `--trace 0` and the per-layer metrics
//! under `--trace 1`. See `perfbench/README.md` for the definitions.

mod report;
mod serve_open;
mod sim_long;
mod stats;
mod sweep;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use rev_trace::Json;
use std::path::PathBuf;

/// The workloads `BENCHMARK.json` lists; `all` runs these.
const WORKLOADS: [&str; 2] = ["sweep-quick", "serve-open"];
/// Run by name only: its timings spread too widely between runs on a
/// shared host to carry a regression bound (see `perfbench/README.md`).
const UNGATED: [&str; 1] = ["sim-long"];
const USAGE: &str = "usage: perfbench --workload sweep-quick|sim-long|serve-open|all \
--seed N --seconds S --trace 0|1 [--out-dir DIR]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut out_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
        .join("perfbench");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let known = WORKLOADS.iter().chain(&UNGATED).any(|w| *w == workload);
    if workload != "all" && !known {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args { workload, seed, seconds, trace, out_dir })
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let spans = args.out_dir.join(format!("spans-{name}-{}.jsonl", args.seed));
    match (name, args.trace) {
        ("sweep-quick", false) => sweep::run(args.seconds, &mut out),
        ("sweep-quick", true) => sweep::run_traced(&spans, &mut out),
        ("sim-long", false) => sim_long::run(args.seed, args.seconds, &mut out),
        ("sim-long", true) => sim_long::run_traced(args.seed, &spans, &mut out),
        ("serve-open", trace) => serve_open::run(args.seed, args.seconds, trace, &spans, &mut out),
        _ => unreachable!("workload names are validated"),
    }
    if args.trace {
        out.note("spans_file", Json::Str(spans.display().to_string()));
    }
    out
}

/// The metrics object of the result line.
fn metrics(out: &Outcome, trace: bool) -> Vec<(String, Json)> {
    let entry = |value: Json, unit: &str| {
        Json::obj(vec![("value", value), ("unit", Json::Str(unit.to_string()))])
    };
    if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let zero =
                    if matches!(unit, "count" | "bytes") { Json::Int(0) } else { Json::Float(0.0) };
                let value = out.layers.get(name).cloned().unwrap_or(zero);
                (name.to_string(), entry(value, unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|&(name, unit)| {
                let samples = out.e2e.get(name).filter(|s| !s.is_empty())?;
                Some((name.to_string(), entry(Json::Float(stats::median(samples)), unit)))
            })
            .collect()
    }
}

fn summary(name: &str, args: &Args, out: &Outcome, host: &Json) -> Json {
    let failed = out.failures.len() as u64;
    let spreads: Vec<(&str, Json)> = END_TO_END
        .iter()
        .filter_map(|&(m, unit)| {
            let s = out.e2e.get(m)?;
            let mut v = stats::spread(s);
            if let Json::Obj(pairs) = &mut v {
                pairs.push(("unit".to_string(), Json::Str(unit.to_string())));
            }
            Some((m, v))
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::Int(args.seed as i64)),
        ("trace", Json::Bool(args.trace)),
        ("host", host.clone()),
        ("error_rate", Json::Float(failed as f64 / out.attempted.max(1) as f64)),
        ("valid", Json::Bool(out.invalid.is_none())),
        ("invalid_reason", out.invalid.clone().map_or(Json::Null, Json::Str)),
        ("failures", Json::Arr(out.failures.iter().take(20).cloned().map(Json::Str).collect())),
        ("end_to_end", Json::obj(spreads)),
        ("notes", Json::Obj(out.notes.clone())),
    ])
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1) as i64)),
        ("failed", Json::Int(failed.min(attempted.max(1)) as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--grid-pass") {
        sweep::grid_pass_child(std::env::args().nth(2).as_deref() == Some("--setup-only"));
        return;
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if !std::path::Path::new("baselines/quick.json").is_file() {
        eprintln!("error: run from the repository root (baselines/quick.json not found)");
        std::process::exit(2);
    }
    let host = stats::host_fingerprint();
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let (mut all_correct, mut all_attempted, mut all_failed) = (true, 0, 0);
    let mut all_metrics = Vec::new();
    let mut last = None;
    for name in &names {
        let out = run_workload(name, &args);
        let failed = out.failures.len() as u64;
        let correct = failed == 0 && out.invalid.is_none();
        let m = metrics(&out, args.trace);
        println!("{}", summary(name, &args, &out, &host).render());
        all_correct &= correct;
        all_attempted += out.attempted;
        all_failed += failed;
        all_metrics.extend(m.iter().map(|(k, v)| (format!("{name}.{k}"), v.clone())));
        last = Some(result_line(correct, out.attempted, failed, m));
    }
    let result = if names.len() == 1 {
        last.expect("one workload ran")
    } else {
        result_line(all_correct, all_attempted, all_failed, all_metrics)
    };
    println!("{}", result.render());
}
