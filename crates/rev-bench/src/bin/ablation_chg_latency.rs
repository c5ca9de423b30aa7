//! Ablation: CHG hash latency `H` vs the pipeline's fetch-to-commit depth
//! `S` (= 16). The paper asserts full overlap when `H ≤ S` (Sec. VI);
//! this sweep shows overhead flat through H = 16 and climbing beyond —
//! the case where dummy post-commit stages would be needed.

use rev_bench::{overhead_pct, BenchOptions, TablePrinter, WarmPool};
use rev_core::RevConfig;

fn main() {
    let opts = BenchOptions::from_args();
    let pool = WarmPool::new(opts.ckpt_pool.as_deref());
    let latencies: [u64; 6] = [8, 12, 16, 24, 32, 48];
    let mut headers = vec!["benchmark".to_string(), "base IPC".to_string()];
    headers.extend(latencies.iter().map(|h| format!("H={h} ovh %")));
    let mut t = TablePrinter::new(headers, opts.csv);
    for p in opts.profiles() {
        eprintln!("[ablation_chg] {} ...", p.name);
        let base = {
            let sim = pool.cold_sim(&p, &RevConfig::paper_default());
            sim.run_baseline(opts.instructions).cpu.ipc()
        };
        let mut row = vec![p.name.to_string(), format!("{base:.3}")];
        for &h in &latencies {
            let mut cfg = RevConfig::paper_default();
            cfg.chg.latency = h;
            let mut sim = pool.cold_sim(&p, &cfg);
            let r = sim.run(opts.instructions);
            row.push(format!("{:.2}", overhead_pct(base, r.cpu.ipc())));
        }
        t.row(row);
    }
    t.print();
    println!();
    println!("expected: flat for H <= S (16), rising once the hash latency can no");
    println!("longer hide behind the fetch-to-commit distance.");
}
