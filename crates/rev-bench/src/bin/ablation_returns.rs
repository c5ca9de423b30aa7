//! Ablation: the paper's delayed return validation (Sec. V.A) vs naive
//! eager validation of return targets (walking the return block's
//! return-site list, which lives in spill entries for any popularly
//! called function). The delayed scheme exists to avoid exactly that
//! walk; this measures what it saves.

use rev_bench::{overhead_pct, BenchOptions, TablePrinter, WarmPool};
use rev_core::RevConfig;

fn main() {
    let opts = BenchOptions::from_args();
    let pool = WarmPool::new(opts.ckpt_pool.as_deref());
    let mut t = TablePrinter::new(
        vec![
            "benchmark",
            "base IPC",
            "delayed ovh %",
            "naive ovh %",
            "delayed spills",
            "naive spills",
        ],
        opts.csv,
    );
    for p in opts.profiles() {
        eprintln!("[ablation_returns] {} ...", p.name);
        let base = {
            let sim = pool.cold_sim(&p, &RevConfig::paper_default());
            sim.run_baseline_with_warmup(opts.warmup, opts.instructions).cpu.ipc()
        };
        let run = |naive: bool| {
            let mut cfg = RevConfig::paper_default();
            cfg.naive_return_validation = naive;
            let (mut sim, _) = pool.warm_fork(&p, &cfg, opts.warmup);
            let r = sim.run(opts.instructions);
            (overhead_pct(base, r.cpu.ipc()), r.rev.spill_fetches)
        };
        let (d_ovh, d_spills) = run(false);
        let (n_ovh, n_spills) = run(true);
        t.row(vec![
            p.name.to_string(),
            format!("{base:.3}"),
            format!("{d_ovh:.2}"),
            format!("{n_ovh:.2}"),
            d_spills.to_string(),
            n_spills.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("delayed return validation should show fewer spill fetches and lower");
    println!("overhead, most visibly on call-heavy benchmarks.");
}
