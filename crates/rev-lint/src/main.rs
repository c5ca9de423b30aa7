//! `rev-lint` — static whole-program verifier for REV guest programs and
//! signature tables.
//!
//! ```text
//! rev-lint [--all | --profile NAME ...] [--scale F] [--mode MODE]
//!          [--format text|json] [--oracle] [--instructions N]
//!          [--audit] [--audit-json PATH] [--jobs N] [--deny-warnings]
//! ```
//!
//! Exit status is nonzero iff any diagnostic at `error` severity was
//! emitted (or, under `--deny-warnings`, at `warning`) — this is the
//! gate `scripts/check.sh` relies on.

use rev_core::{BuildCache, RevConfig, RevSimulator};
use rev_lint::{audit, lint_tables, oracle, Report, Severity};
use rev_sigtable::ValidationMode;
use rev_trace::{parallel_map, MetricRegistry, Snapshot};
use rev_workloads::{generate, SpecProfile, ALL_PROFILES};

struct Options {
    profiles: Vec<&'static SpecProfile>,
    scale: f64,
    mode: ValidationMode,
    json: bool,
    oracle: bool,
    instructions: u64,
    audit: bool,
    audit_json: Option<String>,
    jobs: usize,
    deny_warnings: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rev-lint [--all | --profile NAME ...] [--scale F] \
         [--mode standard|aggressive|cfi-only] [--format text|json] \
         [--oracle] [--instructions N] [--audit] [--audit-json PATH] \
         [--jobs N] [--deny-warnings]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        profiles: Vec::new(),
        scale: 0.05,
        mode: ValidationMode::Standard,
        json: false,
        oracle: false,
        instructions: 200_000,
        audit: false,
        audit_json: None,
        jobs: 1,
        deny_warnings: false,
    };
    let mut args = std::env::args().skip(1);
    let mut all = false;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("rev-lint: {flag} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--all" => all = true,
            "--profile" => {
                let name = value("--profile");
                match SpecProfile::by_name(&name) {
                    Some(p) => opts.profiles.push(p),
                    None => {
                        eprintln!("rev-lint: unknown profile {name:?}");
                        usage();
                    }
                }
            }
            "--scale" => {
                opts.scale = value("--scale").parse().unwrap_or_else(|_| usage());
            }
            "--mode" => match value("--mode").as_str() {
                "standard" => opts.mode = ValidationMode::Standard,
                "aggressive" => opts.mode = ValidationMode::Aggressive,
                "cfi-only" | "cfi" => opts.mode = ValidationMode::CfiOnly,
                other => {
                    eprintln!("rev-lint: unknown mode {other:?}");
                    usage();
                }
            },
            "--format" => match value("--format").as_str() {
                "json" => opts.json = true,
                "text" => opts.json = false,
                other => {
                    eprintln!("rev-lint: unknown format {other:?}");
                    usage();
                }
            },
            "--oracle" => opts.oracle = true,
            "--instructions" => {
                opts.instructions = value("--instructions").parse().unwrap_or_else(|_| usage());
            }
            "--audit" => opts.audit = true,
            "--audit-json" => {
                opts.audit = true;
                opts.audit_json = Some(value("--audit-json"));
            }
            "--jobs" => {
                opts.jobs = value("--jobs").parse().unwrap_or_else(|_| usage());
            }
            "--deny-warnings" => opts.deny_warnings = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("rev-lint: unknown argument {other:?}");
                usage();
            }
        }
    }
    if all || opts.profiles.is_empty() {
        opts.profiles = ALL_PROFILES.iter().collect();
    }
    opts
}

/// Lints one profile, returning its (possibly oracle- and
/// audit-augmented) report plus the audit metrics when `--audit` is on.
fn lint_profile(profile: &SpecProfile, opts: &Options) -> (Report, Option<MetricRegistry>) {
    let program = generate(&profile.scaled(opts.scale));
    let config = RevConfig::paper_default().with_mode(opts.mode);
    let built = match BuildCache::global().tables(&program, &config, 0) {
        Ok(built) => built,
        Err(e) => {
            let mut report = Report::new();
            report.push(rev_lint::Diagnostic::new(
                rev_lint::Lint::AnalysisFailed,
                format!("simulator build failed: {e}"),
            ));
            return (report, None);
        }
    };
    let mut report = lint_tables(&program, &built.tables, config.bb_limits);
    let mut metrics = None;
    if opts.audit {
        let outcome = audit::audit_program(&program, &config);
        metrics = Some(outcome.metrics());
        report.merge(outcome.report);
    }
    if opts.oracle {
        let mut sim =
            RevSimulator::with_prebuilt(program, config, built.tables.clone(), built.stats.clone())
                .expect("invariant: the table build above validated the configuration");
        report.merge(oracle::run_oracle(&mut sim, opts.instructions).report);
    }
    report.sort();
    (report, metrics)
}

fn main() {
    let opts = parse_args();
    // Fan the per-profile work out, then print serially in profile order:
    // output is byte-identical for every --jobs value.
    let results = parallel_map(opts.jobs, &opts.profiles, |_w, profile| {
        (profile.name, lint_profile(profile, &opts))
    });
    let mut total_errors = 0usize;
    let mut audit_snapshot = opts.audit_json.as_ref().map(|_| {
        let mut snap = Snapshot::new();
        snap.meta_entry("source", rev_trace::Json::Str("rev-lint --audit".into()));
        snap.meta_entry("scale", rev_trace::Json::Float(opts.scale));
        snap
    });
    let mut first = true;
    if opts.json {
        println!("{{\"profiles\":[");
    }
    for (name, (report, metrics)) in results {
        total_errors += report.error_count();
        if opts.deny_warnings {
            total_errors +=
                report.diagnostics.iter().filter(|d| d.severity() == Severity::Warning).count();
        }
        if let (Some(snap), Some(reg)) = (audit_snapshot.as_mut(), metrics) {
            snap.add_metrics(name, "audit", reg);
        }
        if opts.json {
            if !first {
                println!(",");
            }
            print!("{{\"profile\":\"{}\",\"report\":{}}}", name, report.render_json());
        } else {
            println!("== {name} ==");
            if report.diagnostics.is_empty() {
                println!("clean");
            } else {
                print!("{}", report.render_text());
            }
            println!();
        }
        first = false;
    }
    if opts.json {
        println!("\n],\"errors\":{total_errors}}}");
    } else {
        println!("{} profile(s), {} error(s)", opts.profiles.len(), total_errors);
    }
    if let (Some(path), Some(snap)) = (&opts.audit_json, &audit_snapshot) {
        if let Err(e) = std::fs::write(path, snap.render()) {
            eprintln!("rev-lint: writing {path}: {e}");
            std::process::exit(2);
        }
    }
    if total_errors > 0 {
        std::process::exit(1);
    }
}
