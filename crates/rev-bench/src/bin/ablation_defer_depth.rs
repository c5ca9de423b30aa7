//! Ablation: post-commit deferred-store buffer depth and the artificial
//! BB split threshold (paper Sec. IV.A). Too shallow a buffer
//! back-pressures commit; too aggressive splitting multiplies
//! validations.

use rev_bench::{overhead_pct, BenchOptions, TablePrinter, WarmPool};
use rev_core::RevConfig;

fn main() {
    let opts = BenchOptions::from_args();
    let pool = WarmPool::new(opts.ckpt_pool.as_deref());
    let configs: [(usize, usize, usize); 5] = [
        // (defer capacity, max instrs/BB, max stores/BB)
        (8, 64, 8),
        (16, 64, 8),
        (48, 64, 8),
        (48, 16, 4),
        (48, 8, 2),
    ];
    let mut headers = vec!["benchmark".to_string(), "base IPC".to_string()];
    headers.extend(configs.iter().map(|(d, i, s)| format!("d{d}/i{i}/s{s} ovh%")));
    let mut t = TablePrinter::new(headers, opts.csv);
    for p in opts.profiles() {
        eprintln!("[ablation_defer] {} ...", p.name);
        let base = {
            let sim = pool.cold_sim(&p, &RevConfig::paper_default());
            sim.run_baseline(opts.instructions).cpu.ipc()
        };
        let mut row = vec![p.name.to_string(), format!("{base:.3}")];
        for &(defer, max_instrs, max_stores) in &configs {
            let mut cfg = RevConfig::paper_default();
            cfg.defer_capacity = defer;
            cfg.bb_limits.max_instrs = max_instrs;
            cfg.bb_limits.max_stores = max_stores;
            let mut sim = pool.cold_sim(&p, &cfg);
            let r = sim.run(opts.instructions);
            row.push(format!("{:.2}", overhead_pct(base, r.cpu.ipc())));
        }
        t.row(row);
    }
    t.print();
}
