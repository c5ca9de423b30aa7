//! `--preflight` reads each program's analysis once per sweep.
//!
//! The gate lints and audits each (profile, mode, BB limits) once and
//! shares the verdict across the sweep's items, from the same analysis
//! the base item's audit reads. This file is its own test binary, so the
//! process-wide build cache's counters see no other test's programs.

use rev_bench::{sweep_configs_pooled, BenchOptions, SweepConfig, SweepOutcome, WarmPool};
use rev_core::{BuildCache, RevConfig, ValidationMode};

/// The paper's five configurations, in the order of the default grid.
fn paper_configs() -> Vec<SweepConfig> {
    let aggr = |c: RevConfig| c.with_mode(ValidationMode::Aggressive);
    vec![
        SweepConfig::new("REV-32K", RevConfig::paper_default()),
        SweepConfig::new("REV-64K", RevConfig::paper_64k()),
        SweepConfig::new("aggr-32K", aggr(RevConfig::paper_default())),
        SweepConfig::new("aggr-64K", aggr(RevConfig::paper_64k())),
        SweepConfig::new("cfi-only", RevConfig::paper_default().with_mode(ValidationMode::CfiOnly)),
    ]
}

#[test]
fn a_preflighted_sweep_analyzes_its_program_once() {
    let opts = BenchOptions {
        instructions: 5_000,
        warmup: 1_000,
        scale: 0.05,
        benches: vec!["mcf".into()],
        quiet: true,
        jobs: 2,
        preflight: true,
        ..BenchOptions::default()
    };
    let before = BuildCache::global().stats();
    let SweepOutcome::Complete(runs) =
        sweep_configs_pooled(&opts, &paper_configs(), &WarmPool::new(None))
    else {
        panic!("a monolithic sweep assembles every item")
    };
    assert_eq!(runs[0].revs.len(), 5);
    let after = BuildCache::global().stats();
    assert_eq!(after.analyses - before.analyses, 1, "{before:?} -> {after:?}");
    assert_eq!(after.builds - before.builds, 3, "one table build per mode");
}
