//! # rev-bench — regenerating the paper's tables and figures
//!
//! The harness behind `reproduce_all`, which renders every table, figure
//! and ablation as a section of one pooled sweep grid ([`sections`];
//! `--only ID` picks sections, see `DESIGN.md` §3 for the index). The
//! simulator's own speed is measured by the repo benchmark (`perfbench/`),
//! and its deterministic memo counters are pinned by
//! `tests/host_work.rs`. The shared flags ([`BenchOptions`]):
//!
//! * `--instructions N` — committed-instruction budget per run (default
//!   2 000 000; the paper used 2 000 000 000 on its testbed),
//! * `--scale F` — workload size scale factor (default 1.0 = the paper's
//!   static BB counts),
//! * `--quick` — shorthand for `--scale 0.05 --instructions 200000`,
//! * `--bench NAME` (repeatable) — restrict to specific benchmarks,
//! * `--csv` — CSV tables on stdout instead of aligned text,
//! * `--json PATH` — write the schema-versioned measurement snapshot
//!   (`rev-trace` format; see `docs/METRICS.md`) to `PATH`,
//! * `--quiet` — suppress worker progress and timing narration on stderr,
//! * `--ckpt-pool DIR` — persist warm checkpoints to `DIR` across runs,
//! * `--shard i/N`, `--shard-dir DIR`, `--resume` — partition a sweep
//!   across processes, seal per-item results, and merge them back into a
//!   byte-identical monolithic output (see `docs/CHECKPOINT.md`).

pub mod pool;
pub mod sections;
pub mod shard;

use rev_core::{BaselineReport, BuildCache, RevConfig, RevReport, RevSimulator};
use rev_prog::{BbLimits, Cfg, CfgStats, Program};
use rev_sigtable::{SignatureTable, TableStats};
use rev_trace::{AttackRecord, Json, MetricRegistry, MetricSink, Snapshot};
use rev_workloads::{generate, SpecProfile, ALL_PROFILES};
use std::io::Write;
use std::sync::Mutex;

pub use pool::{PoolFetch, PoolStats, WarmPool};
pub use shard::ShardSpec;

/// Parsed command-line options of `reproduce_all` (its `--only` is parsed
/// by [`sections::parse_args`]), also built in code by `rev-chaos`,
/// perfbench and the tests.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Committed-instruction budget per simulated run.
    pub instructions: u64,
    /// Warmup instructions before the measurement window (stats reset).
    pub warmup: u64,
    /// Workload scale factor (1.0 = paper-sized static footprints).
    pub scale: f64,
    /// Benchmark-name filter (`--bench`; empty = all 18).
    pub benches: Vec<String>,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Worker threads for the sweep fan-out (defaults to the host's
    /// available parallelism; `--jobs 1` forces the serial path).
    pub jobs: usize,
    /// Run the static lint gate (`rev-lint`) over every table before
    /// simulating; refuse to run anything that fails at error severity.
    pub preflight: bool,
    /// Where to write the JSON measurement snapshot (`BENCH_rev.json`);
    /// `None` keeps a binary's default.
    pub json: Option<String>,
    /// Suppress worker progress and timing narration on stderr.
    pub quiet: bool,
    /// Superblock memo replay in the monitor (no command-line flag; job
    /// specs and the equivalence suite turn it off, and every
    /// measurement snapshot is byte-identical either way).
    pub superblocks: bool,
    /// On-disk warm-checkpoint cache directory (`--ckpt-pool DIR`),
    /// shared across processes and runs.
    pub ckpt_pool: Option<String>,
    /// Simulate only this shard of the (profile × slot) work-item list
    /// (`--shard i/N`; requires `--shard-dir` to seal the results).
    pub shard: Option<ShardSpec>,
    /// Directory where computed work items are sealed (`--shard-dir`).
    pub shard_dir: Option<String>,
    /// Load valid sealed items from `--shard-dir` instead of recomputing
    /// them (`--resume`; invalid or missing entries recompute fail-open).
    pub resume: bool,
}

/// A malformed command line. [`BenchOptions::from_args`] reports it on
/// stderr with the usage summary and exits with status 2 — bad input is
/// a usage error, not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// What was wrong, naming the offending flag and value.
    pub message: String,
}

impl UsageError {
    /// Creates a usage error.
    pub fn new<S: Into<String>>(message: S) -> Self {
        UsageError { message: message.into() }
    }
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for UsageError {}

/// The flag summary printed under a usage error.
pub const USAGE: &str = "usage: [--instructions N] [--warmup N] [--scale F] [--quick] \
[--bench NAME]... [--csv] [--jobs N] [--preflight] [--json PATH] [--quiet] \
[--ckpt-pool DIR] [--shard i/N --shard-dir DIR] [--resume]";

/// Prints `err` and the `usage` summary to stderr and exits with status 2.
pub fn usage_exit(err: &UsageError, usage: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// The host's available parallelism (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            instructions: 2_000_000,
            warmup: 400_000,
            scale: 1.0,
            benches: Vec::new(),
            csv: false,
            jobs: default_jobs(),
            preflight: false,
            json: None,
            quiet: false,
            superblocks: true,
            ckpt_pool: None,
            shard: None,
            shard_dir: None,
            resume: false,
        }
    }
}

impl BenchOptions {
    /// Parses an argument list (everything after the binary name).
    ///
    /// # Errors
    ///
    /// Returns a [`UsageError`] naming the offending flag and value on
    /// any malformed input.
    pub fn parse<I>(args: I) -> Result<Self, UsageError>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        fn value(
            args: &mut impl Iterator<Item = String>,
            flag: &str,
        ) -> Result<String, UsageError> {
            args.next().ok_or_else(|| UsageError::new(format!("{flag} needs a value")))
        }
        fn parsed<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, UsageError> {
            v.parse().map_err(|_| UsageError::new(format!("{what}, got '{v}'")))
        }
        let mut opts = BenchOptions::default();
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--instructions" => {
                    let v = value(&mut args, "--instructions")?;
                    opts.instructions = parsed(&v, "--instructions must be an integer")?;
                }
                "--scale" => {
                    let v = value(&mut args, "--scale")?;
                    opts.scale = parsed(&v, "--scale must be a float")?;
                }
                "--quick" => {
                    opts.scale = 0.05;
                    opts.instructions = 200_000;
                    opts.warmup = 50_000;
                }
                "--warmup" => {
                    let v = value(&mut args, "--warmup")?;
                    opts.warmup = parsed(&v, "--warmup must be an integer")?;
                }
                "--bench" => opts.benches.push(value(&mut args, "--bench")?),
                "--csv" => opts.csv = true,
                "--preflight" => opts.preflight = true,
                "--json" => opts.json = Some(value(&mut args, "--json")?),
                "--quiet" => opts.quiet = true,
                "--ckpt-pool" => opts.ckpt_pool = Some(value(&mut args, "--ckpt-pool")?),
                "--shard" => {
                    let v = value(&mut args, "--shard")?;
                    opts.shard = Some(ShardSpec::parse(&v)?);
                }
                "--shard-dir" => opts.shard_dir = Some(value(&mut args, "--shard-dir")?),
                "--resume" => opts.resume = true,
                "--jobs" => {
                    let v = value(&mut args, "--jobs")?;
                    let n: usize = parsed(&v, "--jobs must be an integer")?;
                    opts.jobs = if n == 0 { default_jobs() } else { n };
                }
                other => return Err(UsageError::new(format!("unknown argument '{other}'"))),
            }
        }
        if opts.shard.is_some() && opts.shard_dir.is_none() {
            return Err(UsageError::new("--shard requires --shard-dir"));
        }
        Ok(opts)
    }

    /// Parses `std::env::args`, printing the error and usage summary to
    /// stderr and exiting with status 2 on malformed input.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e, USAGE))
    }

    /// The selected, scale-adjusted profiles.
    pub fn profiles(&self) -> Vec<SpecProfile> {
        ALL_PROFILES
            .iter()
            .filter(|p| self.benches.is_empty() || self.benches.iter().any(|n| n == p.name))
            .map(|p| if (self.scale - 1.0).abs() < 1e-9 { p.clone() } else { p.scaled(self.scale) })
            .collect()
    }
}

/// IPC overhead in percent.
pub fn overhead_pct(base_ipc: f64, rev_ipc: f64) -> f64 {
    if base_ipc <= 0.0 {
        0.0
    } else {
        (base_ipc - rev_ipc) / base_ipc * 100.0
    }
}

/// Static CFG statistics for a generated program's first module, read
/// from the build cache's linked analysis under the default BB limits
/// (the analysis the paper configurations' tables are built from).
pub fn cfg_stats_for(program: &Program) -> CfgStats {
    BuildCache::global().cfgs(program, BbLimits::default()).expect("generated programs analyze")[0]
        .stats()
}

/// The `--preflight` gate: statically lints the tables a built simulator
/// is about to consume, runs the `rev-audit` security analyses
/// (protection coverage, collision classes, latency bounds) of its mode,
/// and refuses to run anything failing at error severity.
///
/// # Panics
///
/// Panics with the rendered diagnostics when the gate fails.
pub fn preflight(sim: &RevSimulator) {
    let (program, config) = (sim.program(), sim.config());
    let cfgs = BuildCache::global()
        .cfgs(program, config.bb_limits)
        .expect("a built simulator's program analyzes");
    assert_gate(&gate_report(program, &cfgs, sim.monitor().sag().tables(), config));
}

/// The `--preflight` report for `tables`, built under `config` from the
/// linked `cfgs`: their lint plus the `rev-audit` findings of
/// `config.mode`. Both [`preflight`] and the pooled sweep's shared
/// verdicts ([`WarmPool`]) are made by this one function.
pub(crate) fn gate_report(
    program: &Program,
    cfgs: &[Cfg],
    tables: &[SignatureTable],
    config: &RevConfig,
) -> rev_lint::Report {
    let mut report = rev_lint::lint_linked(program, cfgs, tables, config.bb_limits);
    report.merge(rev_lint::audit::audit_tables(cfgs, &[(config.mode, tables)], config).report);
    report
}

/// Refuses to simulate past a static-check report with error-severity
/// findings.
///
/// # Panics
///
/// Panics with the rendered diagnostics when the gate fails.
pub(crate) fn assert_gate(report: &rev_lint::Report) {
    assert!(
        report.passes_gate(),
        "preflight: static lint found {} error(s); refusing to simulate:\n{}",
        report.error_count(),
        report.render_text()
    );
}

/// Runs one benchmark under REV only (reusing an externally supplied
/// baseline when the caller sweeps configurations).
pub fn run_rev_only(profile: &SpecProfile, opts: &BenchOptions, config: RevConfig) -> RevReport {
    let program = generate(profile);
    let config = config.with_superblocks(opts.superblocks);
    let mut sim = RevSimulator::new(program, config).expect("workload builds");
    if opts.preflight {
        preflight(&sim);
    }
    sim.warmup(opts.warmup);
    sim.run(opts.instructions)
}

/// The sweep fan-out primitive, now hosted in the dependency-leaf
/// `rev-trace` crate (so `rev-lint --jobs` can share it without a
/// dependency cycle) and re-exported here for existing call sites.
pub use rev_trace::parallel_map;

/// Serialized progress narration on stderr.
///
/// Worker threads announce what they are about to simulate; routing every
/// line through one locked writer keeps lines whole under any `--jobs`
/// count and gives `--quiet` a single switch. Measurement output never
/// goes through here — stdout stays byte-identical across job counts and
/// hosts, narration is the "modulo timing" channel.
#[derive(Debug)]
pub struct Narrator {
    quiet: bool,
    out: Mutex<()>,
}

impl Narrator {
    /// Creates a narrator; `quiet` swallows every line.
    pub fn new(quiet: bool) -> Self {
        Narrator { quiet, out: Mutex::new(()) }
    }

    /// Writes one progress line to stderr (no-op when quiet).
    pub fn note(&self, line: &str) {
        if self.quiet {
            return;
        }
        let _guard = self.out.lock().unwrap();
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{line}");
    }
}

/// One labelled REV configuration inside a [`sweep_configs_pooled`] fan-out.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Short label used in progress lines (e.g. `REV-32K`).
    pub label: String,
    /// The configuration to simulate.
    pub config: RevConfig,
}

impl SweepConfig {
    /// Convenience constructor.
    pub fn new<S: Into<String>>(label: S, config: RevConfig) -> Self {
        SweepConfig { label: label.into(), config }
    }
}

/// One benchmark measured at base plus every requested REV configuration.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    /// Benchmark name.
    pub name: String,
    /// Baseline run (computed **once** and shared by every configuration).
    pub base: BaselineReport,
    /// One REV report per requested configuration, in request order.
    pub revs: Vec<RevReport>,
    /// Table stats for the first configuration's table (first module).
    pub table: TableStats,
    /// Static CFG statistics.
    pub cfg: CfgStats,
    /// `rev-audit` metrics (`audit.*`): per-mode protection coverage,
    /// collision classes, and detection-latency bounds.
    pub audit: MetricRegistry,
}

pub(crate) enum SweepItemOut {
    Base(Box<(BaselineReport, CfgStats, TableStats, MetricRegistry)>),
    Rev(Box<RevReport>),
}

/// One worker's verdict on a sweep work item.
enum SweepItem {
    /// Simulated here (or loaded from a sealed file under `--resume`).
    Done { out: SweepItemOut, resumed: bool },
    /// Owned by another shard — not simulated, not loaded.
    Skipped,
}

/// Result of [`sweep_configs_pooled`].
#[derive(Debug)]
pub enum SweepOutcome {
    /// Every work item is present (a monolithic or merge run).
    Complete(Vec<ProfileRun>),
    /// A `--shard i/N` run: this process sealed its own items into
    /// `--shard-dir` and left the rest to the other shards, so no
    /// result set can be assembled. Callers print nothing to stdout.
    Partial {
        /// Items this process simulated (and sealed).
        computed: usize,
        /// Items satisfied by existing sealed files (`--resume`).
        resumed: usize,
        /// Items left to other shards.
        skipped: usize,
    },
}

/// The content address of one sweep work item: every option that can
/// change the item's measurements is in here, so a sealed result can
/// never be spliced into a sweep it doesn't belong to.
fn item_recipe(
    opts: &BenchOptions,
    configs: &[SweepConfig],
    profile: &SpecProfile,
    slot: usize,
) -> String {
    let label = if slot == 0 { "base" } else { configs[slot - 1].label.as_str() };
    format!(
        "sweep-item/2|{}|{profile:?}|slot={slot}|label={label}|instrs={}|warmup={}|scale={}|superblocks={}|preflight={}|configs={configs:?}",
        rev_trace::CKPT_SCHEMA,
        opts.instructions,
        opts.warmup,
        opts.scale,
        opts.superblocks,
        opts.preflight,
    )
}

/// Atomically writes a sealed item (temp file + rename, like the warm
/// pool's disk store). I/O failure is silently ignored: a missing seal
/// costs a recompute on resume, never correctness.
fn write_sealed(path: &std::path::Path, data: &[u8]) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let tmp = path.with_extension(format!("item.tmp.{}", std::process::id()));
    if std::fs::write(&tmp, data).is_ok() && std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Simulates one (profile, slot) work item through the warm pool.
/// `rev-bench/tests/equivalence.rs` pins its measurements to fresh
/// `RevSimulator::new` runs.
fn compute_item(
    opts: &BenchOptions,
    configs: &[SweepConfig],
    pool: &WarmPool,
    profile: &SpecProfile,
    slot: usize,
) -> SweepItemOut {
    if slot == 0 {
        let bundle = pool.program(profile);
        let audit = pool.checks(profile, configs, opts.preflight).audit.metrics();
        let sim = pool.cold_sim(profile, &configs[0].config);
        let base = sim.run_baseline_with_warmup(opts.warmup, opts.instructions);
        return SweepItemOut::Base(Box::new((base, bundle.1, sim.table_stats()[0], audit)));
    }
    let config = configs[slot - 1].config.with_superblocks(opts.superblocks);
    // The gate runs before anything is built for the item; its verdict
    // is made once per (profile, mode, BB limits) and shared.
    if opts.preflight {
        pool.checks(profile, configs, true).gate(&config);
    }
    let (mut sim, _fetch) = pool.warm_fork(profile, &config, opts.warmup);
    SweepItemOut::Rev(Box::new(sim.run(opts.instructions)))
}

/// Runs base + every configuration for every selected profile, fanning
/// the (profile, slot) work items across `opts.jobs` worker threads —
/// the one sweep entry point, shared by `reproduce_all`'s section grid,
/// perfbench and the equivalence suite.
///
/// The baseline runs **once per profile** and is shared by every
/// configuration, and the config-independent prefix (program, CFG
/// stats, table build) comes from `pool`, which also restores warmed
/// simulators from `opts.ckpt_pool` when set.
///
/// Work items are (profile, slot) pairs: slot 0 is the baseline run
/// (plus static CFG / table statistics and the audit registry), slot
/// k ≥ 1 is `configs[k - 1]`. Under `--shard i/N` only every N-th item
/// is simulated (and sealed into `--shard-dir`); under `--resume` valid
/// sealed items are loaded instead of recomputed. Results are ordered
/// by profile then configuration — identical output for any `--jobs`
/// value and any shard split.
pub fn sweep_configs_pooled(
    opts: &BenchOptions,
    configs: &[SweepConfig],
    pool: &WarmPool,
) -> SweepOutcome {
    assert!(!configs.is_empty(), "a sweep needs at least one configuration");
    let profiles = opts.profiles();
    let slots = configs.len() + 1;
    let items: Vec<(usize, usize)> =
        (0..profiles.len()).flat_map(|p| (0..slots).map(move |s| (p, s))).collect();
    let narrator = Narrator::new(opts.quiet);
    let shard_dir = opts.shard_dir.as_ref().map(std::path::Path::new);
    let outs = parallel_map(opts.jobs, &items, |worker, &(p, s)| {
        let profile = &profiles[p];
        let label = if s == 0 { "base" } else { configs[s - 1].label.as_str() };
        let recipe = item_recipe(opts, configs, profile, s);
        let sealed_path =
            shard_dir.map(|d| d.join(shard::item_file_name(profile.name, s, &recipe)));
        if opts.resume {
            if let Some(path) = &sealed_path {
                if let Ok(data) = std::fs::read(path) {
                    match shard::unseal_item(&data, &recipe) {
                        Ok(out) => {
                            narrator.note(&format!(
                                "[sweep w{worker:02}] {} {} (sealed)",
                                profile.name, label
                            ));
                            return SweepItem::Done { out, resumed: true };
                        }
                        Err(e) => narrator.note(&format!(
                            "[sweep w{worker:02}] {} {} sealed entry rejected ({e}); recomputing",
                            profile.name, label
                        )),
                    }
                }
            }
        }
        if let Some(spec) = opts.shard {
            if !spec.owns(p * slots + s) {
                return SweepItem::Skipped;
            }
        }
        narrator.note(&format!("[sweep w{worker:02}] {} {} ...", profile.name, label));
        let out = compute_item(opts, configs, pool, profile, s);
        if let Some(path) = &sealed_path {
            write_sealed(path, &shard::seal_item(&recipe, &out));
        }
        SweepItem::Done { out, resumed: false }
    });
    let (mut computed, mut resumed, mut skipped) = (0, 0, 0);
    let mut assembled: Vec<SweepItemOut> = Vec::new();
    for item in outs {
        match item {
            SweepItem::Done { out, resumed: was_resumed } => {
                if was_resumed {
                    resumed += 1;
                } else {
                    computed += 1;
                }
                assembled.push(out);
            }
            SweepItem::Skipped => skipped += 1,
        }
    }
    if skipped > 0 {
        return SweepOutcome::Partial { computed, resumed, skipped };
    }
    let mut outs = assembled.into_iter();
    let runs = profiles
        .iter()
        .map(|profile| {
            let Some(SweepItemOut::Base(base_out)) = outs.next() else {
                unreachable!("slot 0 is always the baseline item");
            };
            let (base, cfg, table, audit) = *base_out;
            let revs: Vec<RevReport> = (0..configs.len())
                .map(|_| {
                    let Some(SweepItemOut::Rev(rev)) = outs.next() else {
                        unreachable!("slots 1.. are always REV items");
                    };
                    *rev
                })
                .collect();
            ProfileRun { name: profile.name.to_string(), base, revs, table, cfg, audit }
        })
        .collect();
    SweepOutcome::Complete(runs)
}

/// Builds the schema-versioned measurement snapshot (`BENCH_rev.json`)
/// from a [`sweep_configs_pooled`] fan-out.
///
/// Per profile the snapshot carries one registry per simulated
/// configuration — `base` (cpu + mem), each [`SweepConfig`] label
/// (cpu + rev + mem) — plus a `static` registry (table + cfg metrics,
/// which depend only on the workload and the standard-mode table build)
/// and an `audit` registry (the `rev-audit` coverage/collision/latency
/// matrices, see `docs/METRICS.md`).
/// Registries serialize with sorted keys and meta in insertion order, so
/// the rendered file is byte-identical for any `--jobs` value.
pub fn snapshot_from_runs(
    snap: &mut Snapshot,
    opts: &BenchOptions,
    configs: &[SweepConfig],
    runs: &[ProfileRun],
) {
    snap.meta_entry("instructions", Json::Int(opts.instructions as i64));
    snap.meta_entry("warmup", Json::Int(opts.warmup as i64));
    snap.meta_entry("scale", Json::Float(opts.scale));
    snap.meta_entry(
        "configs",
        Json::Arr(configs.iter().map(|c| Json::Str(c.label.clone())).collect()),
    );
    for run in runs {
        let mut base = MetricRegistry::new();
        run.base.cpu.export_metrics(&mut base);
        run.base.mem.export_metrics(&mut base);
        snap.add_metrics(&run.name, "base", base);
        for (cfg, rev) in configs.iter().zip(&run.revs) {
            let mut reg = MetricRegistry::new();
            rev.cpu.export_metrics(&mut reg);
            rev.rev.export_metrics(&mut reg);
            rev.mem.export_metrics(&mut reg);
            snap.add_metrics(&run.name, &cfg.label, reg);
        }
        let mut st = MetricRegistry::new();
        run.table.export_metrics(&mut st);
        run.cfg.export_metrics(&mut st);
        snap.add_metrics(&run.name, "static", st);
        snap.add_metrics(&run.name, "audit", run.audit.clone());
    }
}

/// Mounts every attack from `rev-attacks` under the paper-default
/// configuration and records the outcomes into `snap` (Table 1's data;
/// `rev-trace compare` flags any detection flip as a regression).
pub fn record_attacks(
    snap: &mut Snapshot,
) -> Vec<(rev_attacks::AttackKind, rev_attacks::AttackOutcome)> {
    let mut outs = Vec::new();
    for kind in rev_attacks::AttackKind::ALL {
        let out = rev_attacks::mount(kind, RevConfig::paper_default())
            .unwrap_or_else(|e| panic!("attack scenario {kind} failed to mount: {e}"));
        snap.attacks.push(AttackRecord {
            kind: kind.to_string(),
            detected: out.detected,
            violation: out.violation.map(|v| v.kind.to_string()),
        });
        outs.push((kind, out));
    }
    outs
}

/// Writes a rendered snapshot to `path`, narrating the destination.
pub fn write_snapshot(snap: &Snapshot, path: &str, narrator: &Narrator) {
    std::fs::write(path, snap.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    narrator.note(&format!("[snapshot] wrote {path}"));
}

/// A simple fixed-width table printer (or CSV when `csv` is set).
#[derive(Debug)]
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    csv: bool,
}

impl TablePrinter {
    /// Creates a printer with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>, csv: bool) -> Self {
        TablePrinter {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            csv,
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The table as text: aligned columns under a rule, or CSV.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.csv {
            for r in std::iter::once(&self.headers).chain(&self.rows) {
                out.push_str(&r.join(","));
                out.push('\n');
            }
            return out;
        }
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut l = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    l.push_str(&format!("{:<w$}", cell, w = widths[i]));
                } else {
                    l.push_str(&format!("  {:>w$}", cell, w = widths[i]));
                }
            }
            l + "\n"
        };
        out.push_str(&line(&self.headers));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        assert!((overhead_pct(2.0, 1.9) - 5.0).abs() < 1e-9);
        assert_eq!(overhead_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn means() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn printer_formats() {
        let mut t = TablePrinter::new(vec!["name", "value"], false);
        t.row(vec!["a", "1"]);
        t.print(); // must not panic
        let mut c = TablePrinter::new(vec!["name", "value"], true);
        c.row(vec!["a", "1"]);
        c.print();
    }

    #[test]
    fn parse_accepts_every_flag() {
        let opts = BenchOptions::parse([
            "--instructions",
            "1234",
            "--warmup",
            "99",
            "--scale",
            "0.5",
            "--bench",
            "mcf",
            "--csv",
            "--jobs",
            "3",
            "--preflight",
            "--json",
            "out.json",
            "--quiet",
            "--ckpt-pool",
            "/tmp/pool",
            "--shard",
            "2/3",
            "--shard-dir",
            "/tmp/shards",
            "--resume",
        ])
        .expect("well-formed command line");
        assert_eq!(opts.instructions, 1234);
        assert_eq!(opts.warmup, 99);
        assert!((opts.scale - 0.5).abs() < 1e-12);
        assert_eq!(opts.benches, vec!["mcf".to_string()]);
        assert!(opts.csv && opts.preflight && opts.quiet && opts.resume);
        assert_eq!(opts.jobs, 3);
        assert_eq!(opts.json.as_deref(), Some("out.json"));
        assert_eq!(opts.ckpt_pool.as_deref(), Some("/tmp/pool"));
        assert_eq!(opts.shard, Some(ShardSpec { index: 2, total: 3 }));
        assert_eq!(opts.shard_dir.as_deref(), Some("/tmp/shards"));
    }

    #[test]
    fn parse_rejects_malformed_input_with_structured_errors() {
        let err = |args: &[&str]| BenchOptions::parse(args.iter().copied()).unwrap_err();
        assert!(err(&["--warmup", "soon"]).message.contains("--warmup"));
        assert!(err(&["--instructions", "-5"]).message.contains("--instructions"));
        assert!(err(&["--instructions"]).message.contains("needs a value"));
        assert!(err(&["--jobs", "many"]).message.contains("--jobs"));
        assert!(err(&["--scale", "x"]).message.contains("--scale"));
        assert!(err(&["--shard", "3/2"]).message.contains("--shard"));
        assert!(err(&["--shard", "1/2"]).message.contains("--shard-dir"));
        assert!(err(&["--superblocks"]).message.contains("unknown argument"));
        assert!(err(&["--superblocks=off"]).message.contains("unknown argument"));
        assert!(err(&["--pool=off"]).message.contains("unknown argument"));
        assert!(err(&["--frobnicate"]).message.contains("unknown argument"));
    }

    #[test]
    fn options_profiles_filter() {
        let mut o = BenchOptions::default();
        assert_eq!(o.profiles().len(), 18);
        assert!(o.jobs >= 1, "default jobs must be at least 1");
        o.benches = vec!["gcc".into(), "mcf".into()];
        assert_eq!(o.profiles().len(), 2);
        o.scale = 0.05;
        assert!(o.profiles()[0].static_bbs < 10_000);
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = parallel_map(1, &items, |_, &x| x * 3 + 1);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(parallel_map(jobs, &items, |_, &x| x * 3 + 1), serial, "jobs={jobs}");
        }
        let empty: Vec<u64> = parallel_map(4, &[] as &[u64], |_, &x| x);
        assert!(empty.is_empty());
    }

    /// The headline determinism guarantee: a sweep produces identical
    /// measurements no matter how many worker threads ran it.
    #[test]
    fn sweep_deterministic_across_job_counts() {
        let configs = [
            SweepConfig::new("REV-32K", RevConfig::paper_default()),
            SweepConfig::new("REV-64K", RevConfig::paper_64k()),
        ];
        let sweep = |jobs: usize| {
            let opts = BenchOptions {
                instructions: 20_000,
                warmup: 4_000,
                scale: 0.05,
                benches: vec!["mcf".into()],
                quiet: true,
                jobs,
                preflight: true,
                ..BenchOptions::default()
            };
            match sweep_configs_pooled(&opts, &configs, &WarmPool::new(None)) {
                SweepOutcome::Complete(runs) => runs,
                SweepOutcome::Partial { .. } => panic!("no --shard was given"),
            }
        };
        let serial = sweep(1);
        let parallel = sweep(4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.base.cpu.ipc(), p.base.cpu.ipc(), "base IPC must not depend on jobs");
            for (a, b) in s.revs.iter().zip(&p.revs) {
                assert_eq!(a.cpu.ipc(), b.cpu.ipc(), "REV IPC must not depend on jobs");
            }
            assert_eq!(s.table.image_bytes, p.table.image_bytes);
        }
    }
}
