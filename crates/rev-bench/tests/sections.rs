//! The section catalogue behind `reproduce_all --only`: every section
//! renders on a grid of its own, the default selection is the paper's
//! grid, and a configuration two sections share is one measurement.

use rev_bench::sections::{grid_configs, select, sweep_sections, Grid, SECTIONS};
use rev_bench::{BenchOptions, Narrator, SweepOutcome, WarmPool};
use rev_trace::Snapshot;

/// The harness binaries the catalogue replaced; each name is an id.
const OLD_BINARIES: [&str; 18] = [
    "table1_attacks",
    "bb_stats",
    "fig6_ipc",
    "fig7_overhead",
    "fig8_branches",
    "fig9_unique",
    "fig10_sc_miss",
    "fig11_mem",
    "fig12_aggressive",
    "cfi_only",
    "table_sizes",
    "cost_model",
    "table2_config",
    "ablation_sc_size",
    "ablation_chg_latency",
    "ablation_defer_depth",
    "ablation_returns",
    "ablation_containment",
];

fn quick(bench: &str) -> BenchOptions {
    BenchOptions::parse(["--quick", "--quiet", "--csv", "--jobs", "2", "--bench", bench])
        .expect("well-formed options")
}

/// Renders the `ids` sections over one grid, as `reproduce_all --only`
/// does, returning stdout and the snapshot.
fn render(opts: &BenchOptions, ids: &[&str]) -> (String, Snapshot) {
    let only: Vec<String> = ids.iter().map(ToString::to_string).collect();
    let sections = select(&only);
    assert_eq!(sections.len(), ids.len(), "{ids:?}: every id names a section");
    let pool = WarmPool::new(None);
    let narrator = Narrator::new(true);
    let (configs, outcome) = sweep_sections(opts, &sections, &pool);
    let SweepOutcome::Complete(runs) = outcome else { panic!("no --shard was given") };
    let grid = Grid { opts, pool: &pool, narrator: &narrator, configs, runs };
    let mut text = String::new();
    let mut snap = Snapshot::new();
    grid.render(&sections, &mut snap, |t| text.push_str(t));
    (text, snap)
}

/// The `header` cell of `bench`'s row in the first CSV table of `text`
/// that has such a column.
fn cell(text: &str, header: &str, bench: &str) -> String {
    let mut column = None;
    for line in text.lines() {
        let cells: Vec<&str> = line.split(',').collect();
        if cells[0] == "benchmark" {
            column = cells.iter().position(|c| *c == header);
        } else if let (true, Some(i)) = (cells[0] == bench, column) {
            return cells[i].to_string();
        }
    }
    panic!("no '{header}' cell for {bench} in:\n{text}")
}

#[test]
fn every_old_binary_is_a_section_and_the_default_is_the_paper_grid() {
    let ids: Vec<&str> = SECTIONS.iter().map(|s| s.id).collect();
    assert_eq!(ids, OLD_BINARIES, "one section per old binary, in rendering order");
    let paper: Vec<&str> = select(&[]).iter().map(|s| s.id).collect();
    assert_eq!(paper, OLD_BINARIES[..12], "the default run renders the paper's sections");
    let labels: Vec<String> = grid_configs(&select(&[])).into_iter().map(|c| c.label).collect();
    assert_eq!(labels, ["REV-32K", "REV-64K", "aggr-32K", "aggr-64K", "cfi-only"]);
}

/// Shared configurations are swept once: the 18 sections declare 33
/// configurations between them, of which 21 are distinct.
#[test]
fn shared_configurations_merge_into_one_grid() {
    let all: Vec<&_> = SECTIONS.iter().collect();
    let declared: usize = all.iter().map(|s| (s.configs)().len()).sum();
    let merged = grid_configs(&all);
    assert_eq!((declared, merged.len()), (33, 21));
    for (i, a) in merged.iter().enumerate() {
        assert!(merged[i + 1..].iter().all(|b| b.config != a.config && b.label != a.label));
    }
}

#[test]
fn every_section_renders_on_its_own_grid() {
    let opts = quick("mcf");
    for section in SECTIONS {
        let (text, snap) = render(&opts, &[section.id]);
        assert!(text.starts_with("=== "), "{}: no section header in\n{text}", section.id);
        assert!(!text.contains("NaN"), "{}:\n{text}", section.id);
        let simulates = !(section.configs)().is_empty();
        assert_eq!(snap.profiles.contains_key("mcf"), simulates, "{}: snapshot", section.id);
        if simulates || section.id == "bb_stats" || section.id == "table_sizes" {
            assert!(text.contains("\nmcf,"), "{}: no mcf row in\n{text}", section.id);
        }
    }
}

/// The paper-default REV-32K overhead is one measurement wherever it is
/// printed: Figure 7, the 32K column of the SC-capacity ablation and the
/// deferred-stores column of the containment ablation agree, whether each
/// section runs on its own grid or all three share one.
#[test]
fn paper_default_overhead_is_one_number_across_sections() {
    let opts = quick("gcc");
    let fig7 = cell(&render(&opts, &["fig7_overhead"]).0, "ovh 32K %", "gcc");
    let sc = cell(&render(&opts, &["ablation_sc_size"]).0, "32K ovh %", "gcc");
    let defer = cell(&render(&opts, &["ablation_containment"]).0, "defer ovh %", "gcc");
    assert_eq!((sc.as_str(), defer.as_str()), (fig7.as_str(), fig7.as_str()));
    let ids = ["fig7_overhead", "ablation_sc_size", "ablation_containment"];
    let (merged, _) = render(&opts, &ids);
    assert_eq!(cell(&merged, "ovh 32K %", "gcc"), fig7);
    assert_eq!(cell(&merged, "32K ovh %", "gcc"), fig7);
    assert_eq!(cell(&merged, "defer ovh %", "gcc"), fig7);
}
