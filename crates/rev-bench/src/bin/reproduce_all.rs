//! Regenerates every table and figure in one pass and prints them in paper
//! order. All simulation work — base, REV-32K, REV-64K, both aggressive
//! variants and CFI-only — fans out across `--jobs` worker threads in a
//! single sweep, with each profile's baseline computed once and shared by
//! every configuration. The config-independent prefix (program, CFG
//! stats, table builds) is shared through one warm checkpoint pool
//! spanning the sweep *and* the table-sizes phase; a
//! `--shard i/N` run seals its share of the work items into `--shard-dir`
//! and prints nothing, and the `--resume` merge run renders output
//! byte-identical to a monolithic one.

use rev_bench::{
    mean, overhead_pct, parallel_map, record_attacks, snapshot_from_runs, sweep_configs_pooled,
    write_snapshot, BenchOptions, Narrator, SweepConfig, SweepOutcome, TablePrinter, WarmPool,
};
use rev_core::{CostModel, RevConfig, ValidationMode};
use rev_mem::Requester;
use rev_trace::Snapshot;
use std::time::Instant;

fn main() {
    let opts = BenchOptions::from_args();
    let narrator = Narrator::new(opts.quiet);
    let pool = WarmPool::new(opts.ckpt_pool.as_deref());
    let t_start = Instant::now();
    let mut snap = Snapshot::new();

    // One fan-out covers Figures 6-12 and the CFI-only section: per
    // profile one shared baseline plus five REV configurations.
    let configs = [
        SweepConfig::new("REV-32K", RevConfig::paper_default()),
        SweepConfig::new("REV-64K", RevConfig::paper_64k()),
        SweepConfig::new(
            "aggr-32K",
            RevConfig::paper_default().with_mode(ValidationMode::Aggressive),
        ),
        SweepConfig::new("aggr-64K", RevConfig::paper_64k().with_mode(ValidationMode::Aggressive)),
        SweepConfig::new("cfi-only", RevConfig::paper_default().with_mode(ValidationMode::CfiOnly)),
    ];

    if opts.shard.is_some() {
        // A shard run simulates and seals only its own work items and
        // keeps stdout empty — only the merge run (`--resume` without
        // `--shard`) renders tables, so exactly one output ever exists.
        match sweep_configs_pooled(&opts, &configs, &pool) {
            SweepOutcome::Partial { computed, resumed, skipped } => narrator.note(&format!(
                "[shard] sealed {computed} item(s), {resumed} already sealed, \
                 {skipped} left to other shards in {:.2?}",
                t_start.elapsed()
            )),
            SweepOutcome::Complete(_) => narrator.note(&format!(
                "[shard] every item computed or already sealed in {:.2?}",
                t_start.elapsed()
            )),
        }
        return;
    }

    println!("=== Table 1: attacks and detection ===");
    for (kind, out) in record_attacks(&mut snap) {
        println!(
            "  {:<28} detected: {:<5} via {:<32} tainted: {}",
            kind.to_string(),
            out.detected,
            out.violation.map(|v| v.kind.to_string()).unwrap_or_else(|| "-".into()),
            out.tainted
        );
    }
    println!();
    let t_attacks = t_start.elapsed();

    let t_sweep_start = Instant::now();
    let runs = match sweep_configs_pooled(&opts, &configs, &pool) {
        SweepOutcome::Complete(runs) => runs,
        SweepOutcome::Partial { .. } => unreachable!("partial sweeps only happen under --shard"),
    };
    let t_sweep = t_sweep_start.elapsed();
    let (rev32, rev64, agg32, agg64, cfi) = (0, 1, 2, 3, 4);

    println!("=== Sec. VIII BB statistics ===");
    let mut t =
        TablePrinter::new(vec!["benchmark", "static BBs", "instrs/BB", "succ/BB"], opts.csv);
    for r in &runs {
        t.row(vec![
            r.name.clone(),
            r.cfg.blocks.to_string(),
            format!("{:.2}", r.cfg.avg_instrs),
            format!("{:.2}", r.cfg.avg_successors),
        ]);
    }
    t.print();
    println!();

    println!("=== Figure 6: IPC (base, REV-32K, REV-64K) ===");
    let mut t = TablePrinter::new(vec!["benchmark", "base", "REV 32K", "REV 64K"], opts.csv);
    for r in &runs {
        t.row(vec![
            r.name.clone(),
            format!("{:.3}", r.base.cpu.ipc()),
            format!("{:.3}", r.revs[rev32].cpu.ipc()),
            format!("{:.3}", r.revs[rev64].cpu.ipc()),
        ]);
    }
    t.print();
    println!();

    println!("=== Figure 7: IPC overhead % ===");
    let ovh =
        |r: &rev_bench::ProfileRun, i: usize| overhead_pct(r.base.cpu.ipc(), r.revs[i].cpu.ipc());
    let mut t = TablePrinter::new(vec!["benchmark", "ovh 32K %", "ovh 64K %"], opts.csv);
    for r in &runs {
        t.row(vec![
            r.name.clone(),
            format!("{:.2}", ovh(r, rev32)),
            format!("{:.2}", ovh(r, rev64)),
        ]);
    }
    t.print();
    let o32: Vec<f64> = runs.iter().map(|r| ovh(r, rev32)).collect();
    let o64: Vec<f64> = runs.iter().map(|r| ovh(r, rev64)).collect();
    println!(
        "average: {:.2}% (32K) / {:.2}% (64K)   [paper: 1.87% / 1.63%]",
        mean(&o32),
        mean(&o64)
    );
    println!();

    println!("=== Figure 8: committed branches ===");
    let mut t = TablePrinter::new(vec!["benchmark", "committed branches"], opts.csv);
    for r in &runs {
        t.row(vec![r.name.clone(), r.revs[rev32].cpu.committed_branches.to_string()]);
    }
    t.print();
    println!();

    println!("=== Figure 9: unique branches ===");
    let mut t = TablePrinter::new(vec!["benchmark", "unique branches"], opts.csv);
    for r in &runs {
        t.row(vec![r.name.clone(), r.revs[rev32].cpu.unique_branches().to_string()]);
    }
    t.print();
    println!();

    println!("=== Figure 10: SC miss counts (32K SC) ===");
    let mut t = TablePrinter::new(
        vec!["benchmark", "partial", "complete", "miss rate %", "stall cycles"],
        opts.csv,
    );
    for r in &runs {
        let sc = r.revs[rev32].rev.sc;
        t.row(vec![
            r.name.clone(),
            sc.partial_misses.to_string(),
            sc.complete_misses.to_string(),
            format!("{:.3}", sc.miss_rate() * 100.0),
            r.revs[rev32].cpu.validation_stall_cycles.to_string(),
        ]);
    }
    t.print();
    println!();

    println!("=== Figure 11: cache stats servicing SC misses ===");
    let mut t = TablePrinter::new(
        vec!["benchmark", "L1D acc", "L1D miss", "L2 acc", "L2 miss", "DRAM"],
        opts.csv,
    );
    let i = Requester::SigFetch.idx();
    for r in &runs {
        let m = r.revs[rev32].mem;
        t.row(vec![
            r.name.clone(),
            m.l1_accesses[i].to_string(),
            m.l1_misses[i].to_string(),
            m.l2_accesses[i].to_string(),
            m.l2_misses[i].to_string(),
            m.dram_accesses[i].to_string(),
        ]);
    }
    t.print();
    println!();

    println!("=== Figure 12: aggressive-mode overhead % ===");
    let mut t = TablePrinter::new(vec!["benchmark", "aggr 32K %", "aggr 64K %"], opts.csv);
    let a32: Vec<f64> = runs.iter().map(|r| ovh(r, agg32)).collect();
    let a64: Vec<f64> = runs.iter().map(|r| ovh(r, agg64)).collect();
    for r in &runs {
        t.row(vec![
            r.name.clone(),
            format!("{:.2}", ovh(r, agg32)),
            format!("{:.2}", ovh(r, agg64)),
        ]);
    }
    t.print();
    println!("average: {:.2}% (32K) / {:.2}% (64K)", mean(&a32), mean(&a64));
    println!();

    println!("=== Sec. V.D: CFI-only overhead % ===");
    let mut t = TablePrinter::new(vec!["benchmark", "cfi-only ovh %"], opts.csv);
    let co: Vec<f64> = runs.iter().map(|r| ovh(r, cfi)).collect();
    for r in &runs {
        t.row(vec![r.name.clone(), format!("{:.2}", ovh(r, cfi))]);
    }
    t.print();
    println!("average: {:.2}%   [paper: 0.04%..1.68%]", mean(&co));
    println!();

    println!("=== Secs. V.B-V.D: signature-table sizes (% of code) ===");
    let t_tables_start = Instant::now();
    let mut t =
        TablePrinter::new(vec!["benchmark", "standard %", "aggressive %", "cfi-only %"], opts.csv);
    let profiles = opts.profiles();
    let size_rows = parallel_map(opts.jobs, &profiles, |worker, p| {
        narrator.note(&format!("[tables w{worker:02}] {} ...", p.name));
        // All three modes are build-cache hits: the sweep above already
        // built standard, aggressive and CFI-only tables for every profile.
        let ratio = |mode: ValidationMode| {
            let config = RevConfig::paper_default().with_mode(mode);
            pool.table_stats(p, &config)[0].ratio_to_code() * 100.0
        };
        (
            p.name.to_string(),
            ratio(ValidationMode::Standard),
            ratio(ValidationMode::Aggressive),
            ratio(ValidationMode::CfiOnly),
        )
    });
    let mut ss = Vec::new();
    for (name, s, a, c) in size_rows {
        ss.push(s);
        t.row(vec![name, format!("{s:.1}"), format!("{a:.1}"), format!("{c:.1}")]);
    }
    t.print();
    println!("standard average: {:.1}%   [paper: 15-52%, avg 37%]", mean(&ss));
    println!();
    let t_tables = t_tables_start.elapsed();

    println!("=== Sec. VI: cost model ===");
    let m = CostModel::paper_default();
    let r = m.evaluate(32 << 10, false);
    println!(
        "REV @ 32 KiB SC: {:.1}% core area, {:.1}% core power, {:.1}% chip power",
        r.core_area_overhead * 100.0,
        r.core_power_overhead * 100.0,
        r.chip_power_overhead * 100.0
    );
    println!("[paper: ~8% core area, ~7.2% core power, <5.5% chip power]");

    // Measurement snapshot: everything above, machine-readable and
    // schema-versioned, for `rev-trace compare` regression gating.
    snapshot_from_runs(&mut snap, &opts, &configs, &runs);
    let json_path = opts.json.clone().unwrap_or_else(|| "BENCH_rev.json".into());
    write_snapshot(&snap, &json_path, &narrator);

    // Timing narration goes to stderr: stdout (and the snapshot) stay
    // byte-identical across hosts and `--jobs` counts; wall-clock is the
    // "modulo timing" part.
    narrator.note("=== Timing ===");
    narrator.note(&format!("jobs:                {}", opts.jobs));
    narrator.note(&format!("attacks phase:       {t_attacks:>9.2?}"));
    narrator.note(&format!(
        "sweep phase:         {:>9.2?}  ({} profiles x (base + {} configs))",
        t_sweep,
        runs.len(),
        configs.len()
    ));
    narrator.note(&format!("table-sizes phase:   {t_tables:>9.2?}"));
    narrator.note(&format!("total wall clock:    {:>9.2?}", t_start.elapsed()));
}
