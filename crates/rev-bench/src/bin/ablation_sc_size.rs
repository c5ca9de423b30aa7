//! Ablation: SC capacity sweep from 4 KiB to 256 KiB (the paper only
//! evaluates 32 KiB and 64 KiB), showing where the working set saturates.

use rev_bench::{overhead_pct, BenchOptions, TablePrinter, WarmPool};
use rev_core::RevConfig;

fn main() {
    let opts = BenchOptions::from_args();
    let pool = WarmPool::new(opts.ckpt_pool.as_deref());
    let sizes: [usize; 6] = [4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 256 << 10];
    let mut headers = vec!["benchmark".to_string(), "base IPC".to_string()];
    headers.extend(sizes.iter().map(|s| format!("{}K ovh %", s >> 10)));
    let mut t = TablePrinter::new(headers, opts.csv);
    for p in opts.profiles() {
        eprintln!("[ablation_sc_size] {} ...", p.name);
        let base = {
            let sim = pool.cold_sim(&p, &RevConfig::paper_default());
            sim.run_baseline(opts.instructions).cpu.ipc()
        };
        let mut row = vec![p.name.to_string(), format!("{base:.3}")];
        for &size in &sizes {
            let mut sim = pool.cold_sim(&p, &RevConfig::paper_default().with_sc_capacity(size));
            let r = sim.run(opts.instructions);
            row.push(format!("{:.2}", overhead_pct(base, r.cpu.ipc())));
        }
        t.row(row);
    }
    t.print();
}
