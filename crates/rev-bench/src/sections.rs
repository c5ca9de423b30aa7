//! The section catalogue `reproduce_all` renders: every table, figure
//! and ablation of the evaluation is one [`Section`] with an id, the
//! sweep configurations it reads and one render function.
//!
//! The selected sections' configurations merge into one grid — a
//! configuration two sections share is simulated once per profile — and
//! the grid runs through [`sweep_configs_pooled`]. Every section thus
//! reads the same warmup, one shared baseline per profile, and honours
//! `--jobs`, `--preflight`, `--shard`/`--resume` and `--ckpt-pool`.
//! Sections that read no configuration run no sweep.

use crate::{
    mean, overhead_pct, parallel_map, record_attacks, snapshot_from_runs, sweep_configs_pooled,
    BenchOptions, Narrator, ProfileRun, SweepConfig, SweepOutcome, TablePrinter, UsageError,
    WarmPool, USAGE,
};
use rev_core::{
    Containment, CostModel, CpuConfig, MemConfig, RevConfig, RevReport, ValidationMode,
};
use rev_mem::Requester;
use rev_trace::Snapshot;

/// One entry of the catalogue.
#[derive(Debug)]
pub struct Section {
    /// The `--only` id.
    pub id: &'static str,
    /// Rendered by a run without `--only` (the paper's sections, in
    /// paper order).
    pub paper: bool,
    /// The labelled REV configurations the section reads.
    pub configs: fn() -> Vec<SweepConfig>,
    /// Renders the section's text; Table 1 also records its attacks
    /// into the snapshot.
    pub render: fn(&Grid<'_>, &mut Snapshot) -> String,
}

fn std32() -> RevConfig {
    RevConfig::paper_default()
}

fn std64() -> RevConfig {
    RevConfig::paper_64k()
}

fn aggr32() -> RevConfig {
    std32().with_mode(ValidationMode::Aggressive)
}

fn aggr64() -> RevConfig {
    std64().with_mode(ValidationMode::Aggressive)
}

fn cfi() -> RevConfig {
    std32().with_mode(ValidationMode::CfiOnly)
}

/// The paper's five configurations under their figure labels, in the
/// order of the default grid.
fn paper(range: std::ops::Range<usize>) -> Vec<SweepConfig> {
    let all = [
        SweepConfig::new("REV-32K", std32()),
        SweepConfig::new("REV-64K", std64()),
        SweepConfig::new("aggr-32K", aggr32()),
        SweepConfig::new("aggr-64K", aggr64()),
        SweepConfig::new("cfi-only", cfi()),
    ];
    all[range].to_vec()
}

/// `config` under its paper label if it is one of the five, else under
/// `label` — so a shared configuration keeps one name in the snapshot
/// whichever sections are selected.
fn labelled(label: String, config: RevConfig) -> SweepConfig {
    paper(0..5)
        .into_iter()
        .find(|c| c.config == config)
        .unwrap_or_else(|| SweepConfig::new(label, config))
}

/// The SC capacities of the capacity ablation, KiB.
const SC_KIB: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];

/// CHG latencies `H` of the CHG ablation, cycles.
const CHG_LATENCIES: [u64; 6] = [8, 12, 16, 24, 32, 48];

/// (deferred-store capacity, max instrs/BB, max stores/BB) points of the
/// deferral ablation.
const DEFER_POINTS: [(usize, usize, usize); 5] =
    [(8, 64, 8), (16, 64, 8), (48, 64, 8), (48, 16, 4), (48, 8, 2)];

fn naive_returns() -> RevConfig {
    RevConfig { naive_return_validation: true, ..std32() }
}

fn shadow_pages() -> RevConfig {
    RevConfig { containment: Containment::ShadowPages, ..std32() }
}

fn sc_configs() -> Vec<SweepConfig> {
    let sc = |k: usize| labelled(format!("sc-{k}K"), std32().with_sc_capacity(k << 10));
    SC_KIB.into_iter().map(sc).collect()
}

fn chg_configs() -> Vec<SweepConfig> {
    let chg = |h| {
        let mut config = std32();
        config.chg.latency = h;
        labelled(format!("chg-H{h}"), config)
    };
    CHG_LATENCIES.into_iter().map(chg).collect()
}

fn defer_configs() -> Vec<SweepConfig> {
    let point = |(d, i, s)| {
        let mut config = RevConfig { defer_capacity: d, ..std32() };
        config.bb_limits.max_instrs = i;
        config.bb_limits.max_stores = s;
        labelled(format!("defer-d{d}-i{i}-s{s}"), config)
    };
    DEFER_POINTS.into_iter().map(point).collect()
}

fn returns_configs() -> Vec<SweepConfig> {
    [paper(0..1), vec![SweepConfig::new("naive-returns", naive_returns())]].concat()
}

fn shadow_configs() -> Vec<SweepConfig> {
    [paper(0..1), vec![SweepConfig::new("shadow-pages", shadow_pages())]].concat()
}

/// Every section, in rendering order: the paper's sections first (a run
/// without `--only` renders exactly these), then Table 2 and the
/// ablations beyond the paper.
pub const SECTIONS: &[Section] = &[
    Section { id: "table1_attacks", paper: true, configs: Vec::new, render: table1_attacks },
    Section { id: "bb_stats", paper: true, configs: Vec::new, render: bb_stats },
    Section { id: "fig6_ipc", paper: true, configs: || paper(0..2), render: fig6_ipc },
    Section { id: "fig7_overhead", paper: true, configs: || paper(0..2), render: fig7_overhead },
    Section { id: "fig8_branches", paper: true, configs: || paper(0..1), render: fig8_branches },
    Section { id: "fig9_unique", paper: true, configs: || paper(0..1), render: fig9_unique },
    Section { id: "fig10_sc_miss", paper: true, configs: || paper(0..1), render: fig10_sc_miss },
    Section { id: "fig11_mem", paper: true, configs: || paper(0..1), render: fig11_mem },
    Section { id: "fig12_aggressive", paper: true, configs: || paper(2..4), render: fig12 },
    Section { id: "cfi_only", paper: true, configs: || paper(4..5), render: cfi_only },
    Section { id: "table_sizes", paper: true, configs: Vec::new, render: table_sizes },
    Section { id: "cost_model", paper: true, configs: Vec::new, render: cost_model },
    Section { id: "table2_config", paper: false, configs: Vec::new, render: table2_config },
    Section { id: "ablation_sc_size", paper: false, configs: sc_configs, render: sc_size },
    Section { id: "ablation_chg_latency", paper: false, configs: chg_configs, render: chg_latency },
    Section { id: "ablation_defer_depth", paper: false, configs: defer_configs, render: defer },
    Section { id: "ablation_returns", paper: false, configs: returns_configs, render: returns },
    Section {
        id: "ablation_containment",
        paper: false,
        configs: shadow_configs,
        render: containment,
    },
];

/// The `reproduce_all` usage summary: the shared flags, `--only` and
/// the valid section ids.
pub fn usage() -> String {
    let ids: Vec<&str> = SECTIONS.iter().map(|s| s.id).collect();
    format!("{USAGE} [--only ID]...\n--only ids: {}", ids.join(", "))
}

/// Splits the repeatable `--only ID` out of a `reproduce_all` command
/// line and parses the rest as the shared options.
///
/// # Errors
///
/// Returns [`UsageError`] for a malformed shared flag, a missing
/// `--only` value, or an id no section has.
pub fn parse_args<I>(args: I) -> Result<(BenchOptions, Vec<String>), UsageError>
where
    I: IntoIterator,
    I::Item: Into<String>,
{
    let mut rest = Vec::new();
    let mut only = Vec::new();
    let mut args = args.into_iter().map(Into::into);
    while let Some(arg) = args.next() {
        if arg != "--only" {
            rest.push(arg);
            continue;
        }
        let id = args.next().ok_or_else(|| UsageError::new("--only needs a value"))?;
        if !SECTIONS.iter().any(|s| s.id == id) {
            return Err(UsageError::new(format!("unknown --only id '{id}'")));
        }
        only.push(id);
    }
    Ok((BenchOptions::parse(rest)?, only))
}

/// The sections `only` names, in catalogue order; the paper's sections
/// when `only` is empty.
pub fn select(only: &[String]) -> Vec<&'static Section> {
    SECTIONS
        .iter()
        .filter(|s| if only.is_empty() { s.paper } else { only.iter().any(|id| id == s.id) })
        .collect()
}

/// The merged grid of `sections`: each distinct configuration once, in
/// order of first appearance.
pub fn grid_configs(sections: &[&Section]) -> Vec<SweepConfig> {
    let mut merged: Vec<SweepConfig> = Vec::new();
    for config in sections.iter().flat_map(|s| (s.configs)()) {
        if !merged.iter().any(|m| m.config == config.config) {
            merged.push(config);
        }
    }
    merged
}

/// Sweeps the merged grid of `sections`; a grid without configurations
/// runs nothing and is complete.
pub fn sweep_sections(
    opts: &BenchOptions,
    sections: &[&Section],
    pool: &WarmPool,
) -> (Vec<SweepConfig>, SweepOutcome) {
    let configs = grid_configs(sections);
    if configs.is_empty() {
        return (configs, SweepOutcome::Complete(Vec::new()));
    }
    let outcome = sweep_configs_pooled(opts, &configs, pool);
    (configs, outcome)
}

/// A swept grid and what the sections need to render from it.
#[derive(Debug)]
pub struct Grid<'a> {
    /// The harness options the grid was swept with.
    pub opts: &'a BenchOptions,
    /// The pool the sweep used; sections that read programs or tables
    /// without simulating take them from here.
    pub pool: &'a WarmPool,
    /// Progress narration for sections that fan out on their own.
    pub narrator: &'a Narrator,
    /// The merged configurations, in sweep order.
    pub configs: Vec<SweepConfig>,
    /// One run per selected profile (empty when nothing was swept).
    pub runs: Vec<ProfileRun>,
}

impl Grid<'_> {
    /// Renders `sections` one after another, separated by a blank line,
    /// handing each section's text to `emit`, then adds the swept grid
    /// to `snap`.
    pub fn render(&self, sections: &[&Section], snap: &mut Snapshot, mut emit: impl FnMut(&str)) {
        for (i, section) in sections.iter().enumerate() {
            if i > 0 {
                emit("\n");
            }
            emit(&(section.render)(self, snap));
        }
        if !self.configs.is_empty() {
            snapshot_from_runs(snap, self.opts, &self.configs, &self.runs);
        }
    }

    /// `run`'s report under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is not in the grid (a section reading a
    /// configuration it did not declare).
    fn rev<'r>(&self, run: &'r ProfileRun, config: &RevConfig) -> &'r RevReport {
        let i = self
            .configs
            .iter()
            .position(|c| c.config == *config)
            .unwrap_or_else(|| panic!("{config:?} is not in the swept grid"));
        &run.revs[i]
    }

    /// IPC overhead of `config` over `run`'s baseline, percent.
    fn ovh(&self, run: &ProfileRun, config: &RevConfig) -> f64 {
        overhead_pct(run.base.cpu.ipc(), self.rev(run, config).cpu.ipc())
    }

    /// A rendered table with one row per swept benchmark: its name, then
    /// `cells(run)`.
    fn per_run<S: Into<String>>(
        &self,
        headers: Vec<S>,
        cells: impl Fn(&ProfileRun) -> Vec<String>,
    ) -> String {
        let mut t = TablePrinter::new(headers, self.opts.csv);
        for r in &self.runs {
            t.row([vec![r.name.clone()], cells(r)].concat());
        }
        t.render()
    }

    /// An ablation table: benchmark, base IPC, then the overhead of each
    /// of `configs` under the column header `header` names it by.
    fn overhead_table(
        &self,
        configs: fn() -> Vec<SweepConfig>,
        header: impl Fn(&RevConfig) -> String,
    ) -> String {
        let columns: Vec<RevConfig> = configs().into_iter().map(|c| c.config).collect();
        let mut headers = vec!["benchmark".to_string(), "base IPC".to_string()];
        headers.extend(columns.iter().map(header));
        self.per_run(headers, |r| {
            let ovh = columns.iter().map(|c| format!("{:.2}", self.ovh(r, c)));
            std::iter::once(format!("{:.3}", r.base.cpu.ipc())).chain(ovh).collect()
        })
    }

    /// The mean overhead of `config` over the swept benchmarks, percent.
    fn mean_ovh(&self, config: &RevConfig) -> f64 {
        mean(&self.runs.iter().map(|r| self.ovh(r, config)).collect::<Vec<_>>())
    }
}

fn table1_attacks(_: &Grid<'_>, snap: &mut Snapshot) -> String {
    let mut out = "=== Table 1: attacks and detection ===\n".to_string();
    for (kind, o) in record_attacks(snap) {
        out += &format!(
            "  {:<28} detected: {:<5} via {:<32} tainted: {}\n",
            kind.to_string(),
            o.detected,
            o.violation.map(|v| v.kind.to_string()).unwrap_or_else(|| "-".into()),
            o.tainted
        );
    }
    out
}

fn bb_stats(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let mut t =
        TablePrinter::new(vec!["benchmark", "static BBs", "instrs/BB", "succ/BB"], grid.opts.csv);
    let profiles = grid.opts.profiles();
    let stats = parallel_map(grid.opts.jobs, &profiles, |_, p| grid.pool.program(p).1);
    for (p, s) in profiles.iter().zip(stats) {
        let (instrs, succs) = (format!("{:.2}", s.avg_instrs), format!("{:.2}", s.avg_successors));
        t.row(vec![p.name.to_string(), s.blocks.to_string(), instrs, succs]);
    }
    format!("=== Sec. VIII BB statistics ===\n{}", t.render())
}

fn fig6_ipc(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let t = grid.per_run(vec!["benchmark", "base", "REV 32K", "REV 64K"], |r| {
        let ipc = |c: &RevConfig| format!("{:.3}", grid.rev(r, c).cpu.ipc());
        vec![format!("{:.3}", r.base.cpu.ipc()), ipc(&std32()), ipc(&std64())]
    });
    format!("=== Figure 6: IPC (base, REV-32K, REV-64K) ===\n{t}")
}

fn fig7_overhead(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let t = grid.per_run(vec!["benchmark", "ovh 32K %", "ovh 64K %"], |r| {
        vec![format!("{:.2}", grid.ovh(r, &std32())), format!("{:.2}", grid.ovh(r, &std64()))]
    });
    let (o32, o64) = (grid.mean_ovh(&std32()), grid.mean_ovh(&std64()));
    format!(
        "=== Figure 7: IPC overhead % ===\n{t}\
         average: {o32:.2}% (32K) / {o64:.2}% (64K)   [paper: 1.87% / 1.63%]\n"
    )
}

fn fig8_branches(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let t = grid.per_run(vec!["benchmark", "committed branches"], |r| {
        vec![grid.rev(r, &std32()).cpu.committed_branches.to_string()]
    });
    format!("=== Figure 8: committed branches ===\n{t}")
}

fn fig9_unique(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let t = grid.per_run(vec!["benchmark", "unique branches"], |r| {
        vec![grid.rev(r, &std32()).cpu.unique_branches().to_string()]
    });
    format!("=== Figure 9: unique branches ===\n{t}")
}

fn fig10_sc_miss(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let headers = vec!["benchmark", "partial", "complete", "miss rate %", "stall cycles"];
    let t = grid.per_run(headers, |r| {
        let rev = grid.rev(r, &std32());
        let sc = rev.rev.sc;
        vec![
            sc.partial_misses.to_string(),
            sc.complete_misses.to_string(),
            format!("{:.3}", sc.miss_rate() * 100.0),
            rev.cpu.validation_stall_cycles.to_string(),
        ]
    });
    format!("=== Figure 10: SC miss counts (32K SC) ===\n{t}")
}

fn fig11_mem(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let i = Requester::SigFetch.idx();
    let headers = vec!["benchmark", "L1D acc", "L1D miss", "L2 acc", "L2 miss", "DRAM"];
    let t = grid.per_run(headers, |r| {
        let m = grid.rev(r, &std32()).mem;
        [m.l1_accesses, m.l1_misses, m.l2_accesses, m.l2_misses, m.dram_accesses]
            .iter()
            .map(|counts| counts[i].to_string())
            .collect()
    });
    format!("=== Figure 11: cache stats servicing SC misses ===\n{t}")
}

fn fig12(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let t = grid.per_run(vec!["benchmark", "aggr 32K %", "aggr 64K %"], |r| {
        vec![format!("{:.2}", grid.ovh(r, &aggr32())), format!("{:.2}", grid.ovh(r, &aggr64()))]
    });
    let (a32, a64) = (grid.mean_ovh(&aggr32()), grid.mean_ovh(&aggr64()));
    format!(
        "=== Figure 12: aggressive-mode overhead % ===\n{t}average: {a32:.2}% (32K) / {a64:.2}% (64K)\n"
    )
}

fn cfi_only(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let t = grid.per_run(vec!["benchmark", "cfi-only ovh %"], |r| {
        vec![format!("{:.2}", grid.ovh(r, &cfi()))]
    });
    let co = grid.mean_ovh(&cfi());
    format!("=== Sec. V.D: CFI-only overhead % ===\n{t}average: {co:.2}%   [paper: 0.04%..1.68%]\n")
}

fn table_sizes(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let headers = vec!["benchmark", "standard %", "aggressive %", "cfi-only %"];
    let mut t = TablePrinter::new(headers, grid.opts.csv);
    let profiles = grid.opts.profiles();
    let rows = parallel_map(grid.opts.jobs, &profiles, |worker, p| {
        grid.narrator.note(&format!("[tables w{worker:02}] {} ...", p.name));
        // Build-cache hits whenever the grid swept the profile.
        let ratio =
            |config: RevConfig| grid.pool.table_stats(p, &config)[0].ratio_to_code() * 100.0;
        [ratio(std32()), ratio(aggr32()), ratio(cfi())]
    });
    for (p, ratios) in profiles.iter().zip(&rows) {
        t.row([vec![p.name.to_string()], ratios.map(|r| format!("{r:.1}")).to_vec()].concat());
    }
    let standard = mean(&rows.iter().map(|r| r[0]).collect::<Vec<_>>());
    format!(
        "=== Secs. V.B-V.D: signature-table sizes (% of code) ===\n{}\
         standard average: {standard:.1}%   [paper: 15-52%, avg 37%]\n",
        t.render()
    )
}

/// `report` as "x% core area, y% core power, z% chip power".
fn cost_line(report: &rev_core::CostReport) -> String {
    format!(
        "{:.1}% core area, {:.1}% core power, {:.1}% chip power",
        report.core_area_overhead * 100.0,
        report.core_power_overhead * 100.0,
        report.chip_power_overhead * 100.0
    )
}

fn cost_model(_: &Grid<'_>, _: &mut Snapshot) -> String {
    let r = CostModel::paper_default().evaluate(32 << 10, false);
    format!(
        "=== Sec. VI: cost model ===\nREV @ 32 KiB SC: {}\n\
         [paper: ~8% core area, ~7.2% core power, <5.5% chip power]\n",
        cost_line(&r)
    )
}

fn table2_config(_: &Grid<'_>, _: &mut Snapshot) -> String {
    let (cpu, mem, rev) =
        (CpuConfig::paper_default(), MemConfig::paper_default(), RevConfig::paper_default());
    let cache = |c: rev_mem::CacheConfig| {
        format!("{} KiB, {} cycles, {}-way", c.size_bytes >> 10, c.latency, c.assoc)
    };
    let (p, d) = (cpu.predictor, mem.dram);
    let rows = [
        ("Fetch queue size", cpu.fetch_queue.to_string()),
        ("Dispatch width", cpu.width.to_string()),
        ("ROB size", cpu.rob_size.to_string()),
        ("LSQ size", cpu.lsq_size.to_string()),
        ("Unified register file", format!("{} registers", cpu.phys_regs)),
        (
            "Function units",
            format!(
                "{} ALU, {} FPU, {} store + {} load units",
                cpu.alu_units, cpu.fpu_units, cpu.store_units, cpu.load_units
            ),
        ),
        (
            "Fetch-to-commit depth S",
            format!("{} cycles (CHG latency H = {})", cpu.min_fetch_to_commit(), rev.chg.latency),
        ),
        ("L1D", cache(mem.l1d)),
        ("L1I", cache(mem.l1i)),
        ("L2", cache(mem.l2)),
        (
            "Memory",
            format!(
                "{} cycles first chunk, {} banks, {}-byte bursts",
                d.first_chunk_latency, d.banks, d.burst_bytes
            ),
        ),
        (
            "TLBs",
            format!(
                "{}-entry L1 I-TLB, {}-entry L1 D-TLB, {}-entry L2 TLB",
                mem.itlb.entries, mem.dtlb.entries, mem.l2tlb.entries
            ),
        ),
        (
            "Branch predictor",
            format!(
                "{}K gshare, {}-entry BTB, {}-deep RAS",
                p.gshare_entries / 1024,
                p.btb_entries,
                p.ras_depth
            ),
        ),
        (
            "REV",
            format!(
                "{} KiB {}-way SC (DTLB shared via extra port), {} mode",
                rev.sc_capacity >> 10,
                rev.sc_assoc,
                rev.mode
            ),
        ),
    ];
    let mut out = "=== Table 2: processor and memory configuration ===\n".to_string();
    for (name, value) in rows {
        out += &format!("{name:<24}: {value}\n");
    }
    out
}

/// SC capacity from 4 KiB to 256 KiB (the paper evaluates 32 KiB and
/// 64 KiB): the overhead per benchmark, then what each capacity costs in
/// area and power (Sec. VI model), so both sides of the trade-off sit in
/// one section.
fn sc_size(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let model = CostModel::paper_default();
    let headers = vec!["SC size", "area mm2", "power W", "core area %", "core pwr %", "chip pwr %"];
    let mut t = TablePrinter::new(headers, grid.opts.csv);
    for &kib in &SC_KIB {
        let r = model.evaluate(kib << 10, false);
        let pct = [r.core_area_overhead, r.core_power_overhead, r.chip_power_overhead]
            .map(|f| format!("{:.2}", f * 100.0));
        let abs = [format!("{:.3}", r.added_area_mm2), format!("{:.3}", r.added_power_w)];
        t.row([vec![format!("{kib} KiB")], abs.to_vec(), pct.to_vec()].concat());
    }
    format!(
        "=== Ablation: SC capacity (IPC overhead %, area and power) ===\n{}\n{}\
         32 KiB SC, AES shared with the core: {}\n",
        grid.overhead_table(sc_configs, |c| format!("{}K ovh %", c.sc_capacity >> 10)),
        t.render(),
        cost_line(&model.evaluate(32 << 10, true))
    )
}

/// CHG hash latency `H` against the fetch-to-commit depth `S` (= 16):
/// the paper asserts full overlap when `H ≤ S` (Sec. VI).
fn chg_latency(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    format!(
        "=== Ablation: CHG latency H vs pipeline depth S (IPC overhead %) ===\n{}\n\
         expected: flat for H <= S (16), rising once the hash latency can no\n\
         longer hide behind the fetch-to-commit distance.\n",
        grid.overhead_table(chg_configs, |c| format!("H={} ovh %", c.chg.latency))
    )
}

/// Post-commit deferred-store buffer depth and the artificial BB split
/// limits (Sec. IV.A): too shallow a buffer back-pressures commit, too
/// eager splitting multiplies validations.
fn defer(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let header = |c: &RevConfig| {
        let (i, s) = (c.bb_limits.max_instrs, c.bb_limits.max_stores);
        format!("d{}/i{i}/s{s} ovh%", c.defer_capacity)
    };
    format!(
        "=== Ablation: deferred-store depth / BB split limits (IPC overhead %) ===\n{}",
        grid.overhead_table(defer_configs, header)
    )
}

/// Delayed return validation (Sec. V.A) against naive eager walking of
/// the return block's spill-resident return-site list.
fn returns(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let headers = vec![
        "benchmark",
        "base IPC",
        "delayed ovh %",
        "naive ovh %",
        "delayed spills",
        "naive spills",
    ];
    let t = grid.per_run(headers, |r| {
        let spills = |c: &RevConfig| grid.rev(r, c).rev.spill_fetches.to_string();
        vec![
            format!("{:.3}", r.base.cpu.ipc()),
            format!("{:.2}", grid.ovh(r, &std32())),
            format!("{:.2}", grid.ovh(r, &naive_returns())),
            spills(&std32()),
            spills(&naive_returns()),
        ]
    });
    format!(
        "=== Ablation: delayed vs naive return validation ===\n{t}\n\
         delayed return validation should show fewer spill fetches and lower\n\
         overhead, most visibly on call-heavy benchmarks.\n"
    )
}

/// The two R5 containment policies (Sec. IV.A): the post-commit
/// deferred-store buffer against page shadowing.
fn containment(grid: &Grid<'_>, _: &mut Snapshot) -> String {
    let headers = vec!["benchmark", "base IPC", "defer ovh %", "shadow ovh %", "shadow pages"];
    let t = grid.per_run(headers, |r| {
        vec![
            format!("{:.3}", r.base.cpu.ipc()),
            format!("{:.2}", grid.ovh(r, &std32())),
            format!("{:.2}", grid.ovh(r, &shadow_pages())),
            grid.rev(r, &shadow_pages()).rev.shadow.pages_created.to_string(),
        ]
    });
    format!(
        "=== Ablation: deferred stores vs page shadowing ===\n{t}\n\
         page shadowing trades copy-on-write traffic (and whole-run commit\n\
         granularity) for the ROB/store-queue extensions; the two overheads\n\
         should be close.\n"
    )
}
