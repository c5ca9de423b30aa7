//! End-to-end checks of the observability layer: every exported metric is
//! documented, and real snapshots round-trip.

use rev_bench::{
    snapshot_from_runs, sweep_configs_pooled, BenchOptions, SweepConfig, SweepOutcome, WarmPool,
};
use rev_core::RevConfig;
use rev_trace::{MetricValue, Snapshot};

fn tiny_opts() -> BenchOptions {
    BenchOptions {
        instructions: 20_000,
        warmup: 4_000,
        scale: 0.05,
        benches: vec!["mcf".into()],
        quiet: true,
        jobs: 1,
        ..BenchOptions::default()
    }
}

fn tiny_snapshot() -> Snapshot {
    let opts = tiny_opts();
    let configs = [SweepConfig::new("REV-32K", RevConfig::paper_default())];
    let SweepOutcome::Complete(runs) = sweep_configs_pooled(&opts, &configs, &WarmPool::new(None))
    else {
        panic!("a monolithic sweep assembles every item")
    };
    let mut snap = Snapshot::new();
    snapshot_from_runs(&mut snap, &opts, &configs, &runs);
    snap
}

/// Every metric name a real run exports must appear in docs/METRICS.md.
/// Per-requester memory counters are documented once with a `{class}`
/// placeholder in place of the final path segment.
#[test]
fn every_exported_metric_is_documented() {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/METRICS.md");
    let doc = std::fs::read_to_string(doc_path).expect("docs/METRICS.md exists");
    let snap = tiny_snapshot();
    let mut missing = Vec::new();
    for (profile, configs) in &snap.profiles {
        for (config, reg) in configs {
            for name in reg.names() {
                let documented = doc.contains(&format!("`{name}`")) || {
                    let templated = match name.rsplit_once('.') {
                        Some((stem, _)) => format!("`{stem}.{{class}}`"),
                        None => String::new(),
                    };
                    doc.contains(&templated)
                };
                if !documented {
                    missing.push(format!("{profile}/{config}/{name}"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "metrics exported but not documented in docs/METRICS.md:\n  {}",
        missing.join("\n  ")
    );
}

/// A real snapshot serializes, parses back and re-renders byte-identically.
#[test]
fn real_snapshot_round_trips() {
    let snap = tiny_snapshot();
    let text = snap.render();
    let back = Snapshot::parse(&text).expect("own output parses");
    assert_eq!(back.render(), text, "render -> parse -> render must be a fixed point");
    assert_eq!(back.profiles.len(), 1);
    let reg = &back.profiles["mcf"]["REV-32K"];
    assert!(matches!(reg.get("rev.validations"), Some(MetricValue::Counter(n)) if *n > 0));
    assert!(matches!(reg.get("cpu.ipc"), Some(MetricValue::Gauge(v)) if *v > 0.0));
}
