//! End-to-end checks of the observability layer: every exported metric is
//! documented, every documented simulator metric is exported, and real
//! snapshots round-trip.

use rev_bench::{
    snapshot_from_runs, sweep_configs_pooled, BenchOptions, SweepConfig, SweepOutcome, WarmPool,
};
use rev_core::RevConfig;
use rev_mem::Requester;
use rev_trace::{MetricValue, Snapshot};
use std::collections::BTreeSet;

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

fn metrics_doc() -> String {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/METRICS.md");
    std::fs::read_to_string(doc_path).expect("docs/METRICS.md exists")
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
    let doc = metrics_doc();
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

/// The reverse direction: every `cpu.*`, `rev.*`, `mem.*`, `table.*` and
/// `cfg.*` row of docs/METRICS.md names a metric a real run exports (the
/// `{class}` rows once per requester), so a renamed or removed metric
/// leaves no stale row behind.
#[test]
fn every_documented_simulator_metric_is_exported() {
    let snap = tiny_snapshot();
    let exported: BTreeSet<&str> = snap
        .profiles
        .values()
        .flat_map(|configs| configs.values())
        .flat_map(|reg| reg.names())
        .collect();
    let doc = metrics_doc();
    let mut stale = Vec::new();
    for row in doc.lines().filter_map(|l| l.strip_prefix("| `")) {
        let name = row.split('`').next().unwrap_or_default();
        if !["cpu.", "rev.", "mem.", "table.", "cfg."].iter().any(|p| name.starts_with(p)) {
            continue;
        }
        let names: Vec<String> = if name.contains("{class}") {
            Requester::ALL.iter().map(|r| name.replace("{class}", r.label())).collect()
        } else {
            vec![name.to_string()]
        };
        stale.extend(names.into_iter().filter(|n| !exported.contains(n.as_str())));
    }
    assert!(
        stale.is_empty(),
        "metrics documented in docs/METRICS.md but not exported by a real run:\n  {}",
        stale.join("\n  ")
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
