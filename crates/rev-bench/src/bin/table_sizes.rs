//! Secs. V.B–V.D: signature-table sizes as a fraction of the binary.
//! Paper: standard 15–52 % (avg 37 %); aggressive 40–65 %; CFI-only
//! 3–20 % (avg 9 %).

use rev_bench::{mean, program_for, BenchOptions, TablePrinter};
use rev_core::{BuildCache, RevConfig, ValidationMode};

fn main() {
    let opts = BenchOptions::from_args();
    let mut t = TablePrinter::new(
        vec!["benchmark", "code KiB", "standard %", "aggressive %", "cfi-only %"],
        opts.csv,
    );
    let mut stds = Vec::new();
    let mut aggs = Vec::new();
    let mut cfis = Vec::new();
    for p in opts.profiles() {
        eprintln!("[table_sizes] {} ...", p.name);
        let program = program_for(&p);
        let ratio = |mode: ValidationMode| {
            let config = RevConfig::paper_default().with_mode(mode);
            let built = BuildCache::global().tables(&program, &config, 0).expect("workload builds");
            built.stats[0].ratio_to_code() * 100.0
        };
        let s = ratio(ValidationMode::Standard);
        let a = ratio(ValidationMode::Aggressive);
        let c = ratio(ValidationMode::CfiOnly);
        stds.push(s);
        aggs.push(a);
        cfis.push(c);
        t.row(vec![
            p.name.to_string(),
            (program.total_code_len() >> 10).to_string(),
            format!("{s:.1}"),
            format!("{a:.1}"),
            format!("{c:.1}"),
        ]);
    }
    t.print();
    println!();
    println!(
        "averages: standard {:.1}% (paper avg 37%), aggressive {:.1}% (paper 40-65%), cfi-only {:.1}% (paper avg 9%)",
        mean(&stds),
        mean(&aggs),
        mean(&cfis)
    );
}
