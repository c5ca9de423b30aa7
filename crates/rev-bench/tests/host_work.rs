//! The host-work gate: the simulator's memo counters on the paper grid.
//!
//! The decoded-BB cache, the superblock memo and the four-lane CHG are
//! simulator shortcuts, not modeled hardware, so their counters stay out
//! of the measurement snapshot (which is byte-identical with them on or
//! off). They are deterministic all the same, and a change that stops
//! a memo from hitting slows the simulator without moving a single
//! snapshot byte. This test sweeps the default `reproduce_all` grid at
//! `--quick` windows through the one harness path and byte-compares one
//! line per (profile, configuration) with `baselines/host_work_quick.txt`.
//!
//! On a mismatch it prints the differing lines and the whole new text;
//! a deliberate change replaces the baseline file with that text.

use rev_bench::sections::{grid_configs, select};
use rev_bench::{sweep_configs_pooled, BenchOptions, SweepOutcome, WarmPool};

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/host_work_quick.txt");

/// One fixed-width line: profile, configuration, then the counters.
fn line(cells: [&str; 10]) -> String {
    let [profile, config, numbers @ ..] = cells;
    let mut out = format!("{profile:<10}  {config:<8}");
    for n in numbers {
        out.push_str(&format!("  {n:>10}"));
    }
    out.push('\n');
    out
}

/// The counters of every REV run of the quick paper grid, as text.
fn host_work_text() -> String {
    let opts = BenchOptions::parse(["--quick", "--quiet"]).expect("well-formed options");
    let configs = grid_configs(&select(&[]));
    let SweepOutcome::Complete(runs) = sweep_configs_pooled(&opts, &configs, &WarmPool::new(None))
    else {
        panic!("a monolithic sweep assembles every item")
    };
    let mut text = line([
        "profile",
        "config",
        "committed",
        "bb_hits",
        "bb_misses",
        "bb_inval",
        "sb_formed",
        "sb_hits",
        "sb_flushes",
        "chg_lanes",
    ]);
    for run in &runs {
        for (config, report) in configs.iter().zip(&run.revs) {
            let rev = &report.rev;
            text.push_str(&line([
                &run.name,
                &config.label,
                &report.cpu.committed_instrs.to_string(),
                &rev.bb_cache_hits.to_string(),
                &rev.bb_cache_misses.to_string(),
                &rev.bb_cache_invalidations.to_string(),
                &rev.sb_formed.to_string(),
                &rev.sb_hits.to_string(),
                &rev.sb_flushes.to_string(),
                &rev.chg_lanes.to_string(),
            ]));
        }
    }
    text
}

#[test]
fn host_work_counters_match_the_committed_baseline() {
    let actual = host_work_text();
    let expected = std::fs::read_to_string(BASELINE).unwrap_or_default();
    if actual == expected {
        return;
    }
    let (old, new): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    for i in 0..old.len().max(new.len()) {
        if old.get(i) != new.get(i) {
            eprintln!("line {}:", i + 1);
            eprintln!("  - {}", old.get(i).unwrap_or(&"(none)"));
            eprintln!("  + {}", new.get(i).unwrap_or(&"(none)"));
        }
    }
    panic!(
        "host-work counters differ from baselines/host_work_quick.txt (lines above); \
         if the change is deliberate, replace the file with this text:\n{actual}"
    );
}
