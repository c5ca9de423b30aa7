//! Ablation: the two R5 containment policies side by side — the paper's
//! post-commit deferred-store buffer vs its stricter page-shadowing
//! alternative (Sec. IV.A).

use rev_bench::{overhead_pct, BenchOptions, TablePrinter, WarmPool};
use rev_core::{Containment, RevConfig};

fn main() {
    let opts = BenchOptions::from_args();
    let pool = WarmPool::new(opts.ckpt_pool.as_deref());
    let mut t = TablePrinter::new(
        vec!["benchmark", "base IPC", "defer ovh %", "shadow ovh %", "shadow pages"],
        opts.csv,
    );
    for p in opts.profiles() {
        eprintln!("[ablation_containment] {} ...", p.name);
        let base = {
            let sim = pool.cold_sim(&p, &RevConfig::paper_default());
            sim.run_baseline_with_warmup(opts.warmup, opts.instructions).cpu.ipc()
        };
        let run = |containment: Containment| {
            let mut cfg = RevConfig::paper_default();
            cfg.containment = containment;
            let (mut sim, _) = pool.warm_fork(&p, &cfg, opts.warmup);
            let r = sim.run(opts.instructions);
            (overhead_pct(base, r.cpu.ipc()), r.rev.shadow.pages_created)
        };
        let (d, _) = run(Containment::DeferredStores);
        let (s, pages) = run(Containment::ShadowPages);
        t.row(vec![
            p.name.to_string(),
            format!("{base:.3}"),
            format!("{d:.2}"),
            format!("{s:.2}"),
            pages.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("page shadowing trades copy-on-write traffic (and whole-run commit");
    println!("granularity) for the ROB/store-queue extensions; overheads should be");
    println!("close, with shadowing slightly worse on store-heavy footprints.");
}
