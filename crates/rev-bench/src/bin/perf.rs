//! Simulator-throughput benchmark: committed instructions per host second
//! and host nanoseconds per instruction, per workload profile.
//!
//! This measures the *simulator*, not the modeled hardware — the numbers
//! feed the ROADMAP's "as fast as the hardware allows" axis and the
//! `scripts/check.sh` soft regression gate, not any paper figure. Each
//! profile runs once under the paper-default REV configuration with the
//! wall clock taken around the measurement window only (generation, table
//! build, and warmup excluded). Runs are serial and ignore `--jobs`:
//! parallel runs would contend for the same cores and time noise, not
//! work.
//!
//! ```text
//! usage: perf [--check BASELINE] [--band PCT] plus the shared harness
//!             flags (`--quick`, `--bench NAME`, `--json PATH`, `--csv`,
//!             `--quiet`, `--ckpt-pool DIR`, ...)
//! ```
//!
//! Malformed input prints the usage text and exits with status 2.
//!
//! * `--json PATH` — write/merge the `perf` registries into `PATH`. If
//!   the file already holds a `rev-trace/1` snapshot (e.g. the
//!   `BENCH_rev.json` that `reproduce_all` wrote), its existing profiles
//!   and attack records are preserved and each profile gains/replaces a
//!   `perf` configuration; otherwise a fresh snapshot is created.
//! * `--check BASELINE` — compare `perf.instrs_per_sec` against a
//!   committed baseline snapshot with a ±`--band` percent tolerance
//!   (default 15). Out-of-band drift exits with code **2** (soft-warning
//!   semantics, mirroring `rev-trace compare`'s distinct exit codes);
//!   in-band runs exit 0.
//!
//! Throughput gauges are host-dependent; only the `perf.bbcache.*`,
//! `perf.superblock.*`, `rev.chg.lanes` and `perf.committed_instrs`
//! counters are deterministic. Never byte-diff this output — that is
//! what the band is for.

use rev_bench::{
    perf_registry, perf_sample, perf_soft_check, usage_exit, BenchOptions, Narrator, TablePrinter,
    UsageError, WarmPool, USAGE,
};
use rev_core::RevConfig;
use rev_trace::Snapshot;

/// `perf`'s own flags, shown under the shared usage summary.
const PERF_USAGE: &str = "perf also takes: [--check BASELINE] [--band PCT]";

/// Removes `flag VALUE` from `args` and returns the value.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, UsageError> {
    let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
    if i + 1 == args.len() {
        return Err(UsageError::new(format!("{flag} needs a value")));
    }
    args.remove(i);
    Ok(Some(args.remove(i)))
}

/// Takes `--check BASELINE` and `--band PCT` out of `args` and parses the
/// rest as the shared harness options.
fn parse(mut args: Vec<String>) -> Result<(BenchOptions, Option<String>, f64), UsageError> {
    let check = take_flag_value(&mut args, "--check")?;
    let band_pct = match take_flag_value(&mut args, "--band")? {
        Some(v) => v
            .parse()
            .map_err(|_| UsageError::new(format!("--band must be a float (percent), got '{v}'")))?,
        None => 15.0,
    };
    Ok((BenchOptions::parse(args)?, check, band_pct))
}

fn main() {
    let (opts, check, band_pct) = parse(std::env::args().skip(1).collect())
        .unwrap_or_else(|e| usage_exit(&e, &format!("{USAGE}\n{PERF_USAGE}")));

    let narrator = Narrator::new(opts.quiet);
    let pool = WarmPool::new(opts.ckpt_pool.as_deref());
    let profiles = opts.profiles();
    let mut samples = Vec::with_capacity(profiles.len());
    for profile in &profiles {
        narrator.note(&format!("[perf] {} ...", profile.name));
        samples.push(perf_sample(profile, &opts, RevConfig::paper_default(), &pool));
    }

    let mut table = TablePrinter::new(
        vec![
            "benchmark",
            "instrs/sec",
            "ns/instr",
            "bbcache hit%",
            "sb hit%",
            "sb flush",
            "wall ms",
        ],
        opts.csv,
    );
    let mut total_instrs = 0u64;
    let mut total_ns = 0u64;
    for s in &samples {
        let probes = s.bb_cache_hits + s.bb_cache_misses;
        let hit_pct =
            if probes == 0 { 0.0 } else { s.bb_cache_hits as f64 / probes as f64 * 100.0 };
        let sb_total = s.sb_hits + s.sb_formed;
        let sb_pct = if sb_total == 0 { 0.0 } else { s.sb_hits as f64 / sb_total as f64 * 100.0 };
        table.row(vec![
            s.name.clone(),
            format!("{:.0}", s.instrs_per_sec()),
            format!("{:.1}", s.ns_per_instr()),
            format!("{hit_pct:.1}"),
            format!("{sb_pct:.1}"),
            format!("{}", s.sb_flushes),
            format!("{:.1}", s.wall_ns as f64 / 1e6),
        ]);
        total_instrs += s.committed_instrs;
        total_ns += s.wall_ns;
    }
    table.print();
    if total_ns > 0 {
        println!(
            "aggregate: {:.0} committed instrs/sec over {} profiles",
            total_instrs as f64 / (total_ns as f64 / 1e9),
            samples.len()
        );
    }

    // Build the candidate snapshot (merging into an existing one when the
    // target file already holds a rev-trace/1 snapshot).
    let mut snap = match &opts.json {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Snapshot::parse(&text).unwrap_or_else(|e| {
                eprintln!("error: {path} exists but is not a rev-trace snapshot: {e}");
                std::process::exit(2);
            }),
            Err(_) => Snapshot::new(),
        },
        None => Snapshot::new(),
    };
    for s in &samples {
        snap.add_metrics(&s.name, "perf", perf_registry(s));
    }
    if let Some(path) = &opts.json {
        std::fs::write(path, snap.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        narrator.note(&format!("[snapshot] wrote {path}"));
    }

    if let Some(baseline_path) = check {
        let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!("error: reading {baseline_path}: {e}");
            std::process::exit(2);
        });
        let baseline = Snapshot::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: parsing {baseline_path}: {e}");
            std::process::exit(2);
        });
        let report = perf_soft_check(&baseline, &snap, band_pct);
        println!("perf check vs {baseline_path} (±{band_pct:.0}% band):");
        for line in &report.lines {
            println!("  {line}");
        }
        if report.drifted {
            println!("perf check: DRIFT (soft gate — exit 2)");
            std::process::exit(2);
        }
        println!("perf check: within band");
    }
}
