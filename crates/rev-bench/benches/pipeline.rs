//! Criterion benchmarks for end-to-end simulation throughput: simulated
//! instructions per wall-clock second, base vs REV (the simulator's own
//! performance, not the simulated machine's). Program generation and the
//! table build happen once, outside the timed loop.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rev_core::{RevConfig, RevSimulator};
use rev_workloads::{generate, SpecProfile};
use std::hint::black_box;

const INSTRS: u64 = 50_000;

fn bench_baseline_sim(c: &mut Criterion) {
    let profile = SpecProfile::by_name("hmmer").expect("profile").scaled(0.05);
    let sim = RevSimulator::new(generate(&profile), RevConfig::paper_default()).expect("builds");
    let mut g = c.benchmark_group("simulator_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(INSTRS));
    g.bench_function("baseline", |b| {
        b.iter(|| black_box(sim.run_baseline(INSTRS)));
    });
    g.bench_function("rev_standard", |b| {
        b.iter(|| {
            let mut run = sim.fork().expect("fork");
            black_box(run.run(INSTRS))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_baseline_sim);
criterion_main!(benches);
