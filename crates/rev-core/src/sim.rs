//! The top-level simulator: program + tables + REV-augmented core.
//!
//! [`RevSimulator`] plays the roles the paper assigns to the trusted
//! toolchain and OS: it analyzes each module, builds its encrypted
//! signature table, loads program and tables into simulated RAM,
//! initializes the SAG registers, and then runs the OoO core with the REV
//! monitor attached. A matching baseline (same program, same core, no
//! REV) is available for overhead measurements.

use crate::build::{BuildCache, BuiltTables};
use crate::config::RevConfig;
use crate::rev_monitor::RevMonitor;
use crate::sag::Sag;
use crate::stats::RevStats;
use rev_cpu::{CpuConfig, CpuStats, NullMonitor, Oracle, Pipeline, RunOutcome};
use rev_crypto::{Aes128, SignatureKey};
use rev_mem::{MainMemory, MemConfig, MemStats};
use rev_prog::{Cfg, CfgError, Program};
use rev_sigtable::{build_table, SignatureTable, TableBuildError, TableStats, ValidationMode};
use rev_trace::{Ckpt, TraceBus};
use std::fmt;

/// The CPU-internal master key used to wrap per-module table keys (models
/// the paper's TPM-like in-CPU key store, Secs. VII/IX).
const CPU_MASTER_KEY: [u8; 16] = [0xc3; 16];

/// Structured simulator errors: everything that can go wrong assembling
/// or re-linking a simulation, surfaced as a value instead of a panic so
/// harnesses (chaos campaigns, attack sweeps, fuzzers) degrade
/// gracefully on bad input.
#[derive(Debug)]
pub enum SimError {
    /// Static analysis failed on a module.
    Cfg {
        /// Module name.
        module: String,
        /// Underlying error.
        source: CfgError,
    },
    /// Table generation failed on a module.
    Table {
        /// Module name.
        module: String,
        /// Underlying error.
        source: TableBuildError,
    },
    /// The REV configuration is unrunnable (rejected by
    /// [`RevConfig::validate`]).
    Config(crate::config::RevConfigError),
    /// The memory-hierarchy configuration is unrunnable (rejected by
    /// [`MemConfig::validate`]).
    Mem(rev_mem::MemConfigError),
}

/// Former name of [`SimError`], kept for source compatibility.
pub type SimBuildError = SimError;

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Cfg { module, source } => {
                write!(f, "static analysis of module '{module}' failed: {source}")
            }
            SimError::Table { module, source } => {
                write!(f, "table generation for module '{module}' failed: {source}")
            }
            SimError::Config(e) => write!(f, "{e}"),
            SimError::Mem(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<crate::config::RevConfigError> for SimError {
    fn from(e: crate::config::RevConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<rev_mem::MemConfigError> for SimError {
    fn from(e: rev_mem::MemConfigError) -> Self {
        SimError::Mem(e)
    }
}

/// A REV run's full report.
#[derive(Debug, Clone)]
pub struct RevReport {
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Core counters (IPC, branches, stalls).
    pub cpu: CpuStats,
    /// REV counters (SC traffic, validations, containment).
    pub rev: RevStats,
    /// Memory-hierarchy counters (per-requester, Fig. 11).
    pub mem: MemStats,
}

rev_trace::ckpt_fields!(Ckpt for RevReport { outcome, cpu, rev => FinishedRevStats, mem });

/// A finished run's REV counters plus the terminal violation, which
/// [`RevStats`]' own encoding leaves out (live-session checkpoints never
/// carry one; a sealed finished run can).
struct FinishedRevStats;

impl FinishedRevStats {
    const MIN_BYTES: usize = <RevStats as Ckpt>::MIN_BYTES + 1;

    fn save(stats: &RevStats, w: &mut rev_trace::CkptWriter) {
        stats.save(w);
        stats.violation.save(w);
    }

    fn load(r: &mut rev_trace::CkptReader<'_>) -> Result<RevStats, rev_trace::CkptError> {
        let mut stats = RevStats::load(r)?;
        stats.violation = Ckpt::load(r)?;
        Ok(stats)
    }
}

impl fmt::Display for RevReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "outcome        : {:?}", self.outcome)?;
        writeln!(
            f,
            "instructions   : {} in {} cycles (IPC {:.3})",
            self.cpu.committed_instrs,
            self.cpu.cycles,
            self.cpu.ipc()
        )?;
        writeln!(
            f,
            "branches       : {} committed, {} unique, {:.1}% mispredicted",
            self.cpu.committed_branches,
            self.cpu.unique_branches(),
            self.cpu.mispredict_rate() * 100.0
        )?;
        writeln!(
            f,
            "validations    : {} ({} digest checks, {} return checks)",
            self.rev.validations, self.rev.digest_checks, self.rev.return_checks
        )?;
        writeln!(
            f,
            "SC             : {} probes, {:.2}% miss ({} partial, {} complete)",
            self.rev.sc.probes(),
            self.rev.sc.miss_rate() * 100.0,
            self.rev.sc.partial_misses,
            self.rev.sc.complete_misses
        )?;
        writeln!(
            f,
            "stalls         : {} validation cycles (chg {}, fill {}, spill {})",
            self.cpu.validation_stall_cycles,
            self.rev.stall_chg,
            self.rev.stall_fill,
            self.rev.stall_spill
        )?;
        write!(
            f,
            "containment    : {} stores released, {} discarded, peak buffer {}",
            self.rev.stores_released, self.rev.stores_discarded, self.rev.defer_peak
        )?;
        if let Some(v) = self.rev.violation {
            write!(
                f,
                "
VIOLATION      : {v}"
            )?;
        }
        Ok(())
    }
}

/// A baseline (no-REV) run's report.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Core counters.
    pub cpu: CpuStats,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
}

rev_trace::ckpt_fields!(Ckpt for BaselineReport { outcome, cpu, mem });

/// The trusted toolchain's analysis front half: analyzes every module and
/// stitches cross-module return linkage (paper Sec. IV.B). The returned
/// CFGs are exactly the ones table generation consumes — `rev-lint`'s
/// static verifier reads them too, so linter and linker can never drift
/// on block boundaries or return-site sets. Served by
/// [`BuildCache::global`], so a program analyzed for a table build is not
/// analyzed again; the result is a copy of the shared analysis.
///
/// # Errors
///
/// Returns [`SimBuildError`] if a module fails static analysis.
pub fn analyze_and_link(
    program: &Program,
    limits: rev_prog::BbLimits,
) -> Result<Vec<Cfg>, SimBuildError> {
    BuildCache::global().cfgs(program, limits).map(|cfgs| cfgs.to_vec())
}

/// The analysis behind [`analyze_and_link`], uncached.
pub(crate) fn link_cfgs(
    program: &Program,
    limits: rev_prog::BbLimits,
) -> Result<Vec<Cfg>, SimBuildError> {
    // Pass 1: analyze every module.
    let mut cfgs: Vec<Cfg> = Vec::new();
    for module in program.modules() {
        let cfg = Cfg::analyze(module, limits)
            .map_err(|source| SimBuildError::Cfg { module: module.name().to_string(), source })?;
        cfgs.push(cfg);
    }
    // Pass 2: for each call whose target lives in another module, link the
    // callee function's return instructions to the caller-side return site
    // so delayed return validation works across module boundaries.
    let mut stitches: Vec<(usize, u64, u64)> = Vec::new(); // (cfg idx, ret bb, ret site)
    for (ci, module) in program.modules().iter().enumerate() {
        for (target, ret_site) in cfgs[ci].external_call_edges(module.base(), module.code_end()) {
            let Some(callee_idx) = program.modules().iter().position(|m| m.contains_code(target))
            else {
                continue; // target outside every module: caught at run time
            };
            let callee_mod = &program.modules()[callee_idx];
            let Some(func) = callee_mod.function_at(target) else { continue };
            for ret_bb in cfgs[callee_idx].return_bb_addrs_in(func.entry, func.end) {
                stitches.push((ci, ret_bb, ret_site)); // caller side: pred
                stitches.push((callee_idx, ret_bb, ret_site)); // callee side: succ
            }
        }
    }
    for (idx, ret_bb, site) in stitches {
        cfgs[idx].add_return_linkage(ret_bb, site);
    }
    Ok(cfgs)
}

/// The trusted toolchain's full build under the default key generation:
/// [`analyze_and_link`] followed by table generation, served by
/// [`BuildCache::global`] and handed out as a copy for
/// [`RevSimulator::with_prebuilt`] (which [`RevSimulator::cached`] does
/// in one call).
///
/// # Errors
///
/// Returns [`SimBuildError`] if a module fails static analysis or table
/// generation.
pub fn linked_tables(
    program: &Program,
    config: &RevConfig,
) -> Result<(Vec<SignatureTable>, Vec<TableStats>), SimBuildError> {
    let built = BuildCache::global().tables(program, config, 0)?;
    Ok((built.tables.clone(), built.stats.clone()))
}

/// Pass 3 of the trusted toolchain: builds each module's encrypted
/// signature table from its linked CFG under `mode`, keyed for
/// `key_generation`.
pub(crate) fn build_tables(
    program: &Program,
    cfgs: &[Cfg],
    mode: ValidationMode,
    key_generation: u64,
) -> Result<BuiltTables, SimBuildError> {
    let cpu_master = Aes128::new(CPU_MASTER_KEY);
    let mut tables: Vec<SignatureTable> = Vec::new();
    let mut stats = Vec::new();
    for (module, cfg) in program.modules().iter().zip(cfgs) {
        let key = SignatureKey::from_seed(module.base() ^ 0x5eed ^ key_generation.rotate_left(17));
        let table = build_table(module, cfg, &key, mode, &cpu_master)
            .map_err(|source| SimBuildError::Table { module: module.name().to_string(), source })?;
        stats.push(table.stats());
        tables.push(table);
    }
    Ok(BuiltTables { tables, stats })
}

/// First address past every loadable segment, page aligned with a guard
/// gap — where the loader places the signature tables.
fn table_region_base(program: &Program) -> u64 {
    let highest =
        program.segments().iter().map(|s| s.end()).max().unwrap_or(0).max(program.initial_sp());
    (highest + 0xffff) & !0xfff
}

/// The trusted loader: writes every table image into each provided memory
/// view and loads the SAG registers.
fn place_tables(
    tables: Vec<SignatureTable>,
    mut table_base: u64,
    memories: &mut [&mut MainMemory],
    config: &RevConfig,
) -> Sag {
    let mut sag = Sag::new(config.sag_modules, config.sag_miss_penalty);
    for mut table in tables {
        table.set_base(table_base);
        for mem in memories.iter_mut() {
            mem.write_bytes(table_base, table.image());
        }
        table_base = (table_base + table.image().len() as u64 + 0xfff) & !0xfff;
        sag.register(table);
    }
    sag
}

/// The assembled simulator.
#[derive(Debug)]
pub struct RevSimulator {
    program: Program,
    config: RevConfig,
    cpu_config: CpuConfig,
    mem_config: MemConfig,
    pipeline: Pipeline,
    monitor: RevMonitor,
    table_stats: Vec<TableStats>,
    initial_memory: MainMemory,
}

impl RevSimulator {
    /// Builds a simulator with the paper's default core and memory
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimBuildError`] if a module fails static analysis or
    /// table generation.
    pub fn new(program: Program, config: RevConfig) -> Result<Self, SimBuildError> {
        Self::with_configs(program, config, CpuConfig::paper_default(), MemConfig::paper_default())
    }

    /// Builds a simulator with explicit core/memory configurations.
    ///
    /// # Errors
    ///
    /// Returns [`SimBuildError`] if a module fails static analysis or
    /// table generation.
    pub fn with_configs(
        program: Program,
        config: RevConfig,
        cpu_config: CpuConfig,
        mem_config: MemConfig,
    ) -> Result<Self, SimBuildError> {
        config.validate()?;
        mem_config.validate()?;
        let cfgs = link_cfgs(&program, config.bb_limits)?;
        let built = build_tables(&program, &cfgs, config.mode, 0)?;
        Ok(Self::assemble(program, config, cpu_config, mem_config, built.tables, built.stats))
    }

    /// Builds a simulator from [`BuildCache::global`]'s tables for the
    /// program and configuration, analyzing and encrypting only on a
    /// miss. Indistinguishable from [`RevSimulator::new`] on the same
    /// inputs — table construction is deterministic and placement happens
    /// here either way — which `rev-bench/tests/equivalence.rs` pins.
    ///
    /// # Errors
    ///
    /// Returns [`SimBuildError`] if the configuration is unrunnable or a
    /// module fails static analysis or table generation.
    pub fn cached(program: Program, config: RevConfig) -> Result<Self, SimBuildError> {
        let built = BuildCache::global().tables(&program, &config, 0)?;
        Self::with_prebuilt(program, config, built.tables.clone(), built.stats.clone())
    }

    /// Builds a simulator from tables produced by [`linked_tables`] for
    /// the *same* program and configuration, skipping static analysis and
    /// the AES-heavy table encryption. With matching inputs the result is
    /// indistinguishable from [`RevSimulator::new`] — table construction
    /// is deterministic, and placement happens here either way — which is
    /// what lets [`RevSimulator::cached`] reuse one build across every
    /// simulator of a program without perturbing a single counter.
    ///
    /// Uses the paper's default core and memory configuration, mirroring
    /// [`RevSimulator::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SimBuildError`] if the REV configuration is unrunnable.
    pub fn with_prebuilt(
        program: Program,
        config: RevConfig,
        tables: Vec<SignatureTable>,
        table_stats: Vec<TableStats>,
    ) -> Result<Self, SimBuildError> {
        config.validate()?;
        Ok(Self::assemble(
            program,
            config,
            CpuConfig::paper_default(),
            MemConfig::paper_default(),
            tables,
            table_stats,
        ))
    }

    /// The loader half of construction: places tables, wires up memory
    /// views, and assembles the pipeline + monitor. Shared by
    /// [`Self::with_configs`] and [`Self::with_prebuilt`] so the pooled
    /// and fresh build paths cannot drift.
    fn assemble(
        program: Program,
        config: RevConfig,
        cpu_config: CpuConfig,
        mem_config: MemConfig,
        tables: Vec<SignatureTable>,
        table_stats: Vec<TableStats>,
    ) -> Self {
        // Trusted loader: program image + tables into RAM.
        let mut memory = MainMemory::with_segments(&program.segments());
        let table_region = table_region_base(&program);
        let sag = place_tables(tables, table_region, &mut [&mut memory], &config);

        let oracle = Oracle::new(memory.clone(), program.entry(), program.initial_sp());
        let monitor = RevMonitor::new(config, sag, memory.clone());
        // REV shares the D-TLB/L1D with the SC through an *extra* port
        // (Table 2), so the REV machine gets one more than the baseline.
        let mut rev_mem_config = mem_config;
        rev_mem_config.l1d_ports += 1;
        let pipeline = Pipeline::new(cpu_config, rev_mem_config, oracle);
        RevSimulator {
            program,
            config,
            cpu_config,
            mem_config,
            pipeline,
            monitor,
            table_stats,
            initial_memory: memory,
        }
    }

    /// Forks the simulator: a structural copy of the complete state —
    /// pipeline, caches, predictor, REV monitor, both memory views —
    /// with no serialize/deserialize round-trip. The fork is detached
    /// from any trace bus the original had attached (exactly as a
    /// checkpoint → restore round-trip would leave it), so forking can
    /// never perturb a counter in either copy: the two simulators share
    /// no mutable state afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`rev_trace::CkptError::Malformed`] if a fault injector
    /// is armed or block tracing is on — the same refusal rules as
    /// [`crate::Session::checkpoint`], and for the same reason: both
    /// would silently drop campaign state the caller thinks is live.
    pub fn fork(&self) -> Result<Self, rev_trace::CkptError> {
        if self.monitor.fault_injector().is_enabled() {
            return Err(rev_trace::CkptError::Malformed(
                "cannot fork with a fault injector armed".to_string(),
            ));
        }
        if self.monitor.block_trace().is_some() {
            return Err(rev_trace::CkptError::Malformed(
                "cannot fork with block tracing enabled".to_string(),
            ));
        }
        let mut pipeline = self.pipeline.clone();
        pipeline.set_trace(TraceBus::disabled());
        let mut monitor = self.monitor.clone();
        monitor.set_trace(TraceBus::disabled());
        Ok(RevSimulator {
            program: self.program.clone(),
            config: self.config,
            cpu_config: self.cpu_config,
            mem_config: self.mem_config,
            pipeline,
            monitor,
            table_stats: self.table_stats.clone(),
            initial_memory: self.initial_memory.clone(),
        })
    }

    /// The REV configuration.
    pub fn config(&self) -> &RevConfig {
        &self.config
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Per-module signature-table statistics (size ratios, Sec. V).
    pub fn table_stats(&self) -> &[TableStats] {
        &self.table_stats
    }

    /// The REV monitor (SC, deferral buffer, committed memory).
    pub fn monitor(&self) -> &RevMonitor {
        &self.monitor
    }

    /// Mutable monitor access — used by `rev-lint`'s differential oracle
    /// to switch on dynamic block-trace recording before a run.
    pub fn monitor_mut(&mut self) -> &mut RevMonitor {
        &mut self.monitor
    }

    /// The pipeline (core + oracle + hierarchy).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Switches on event tracing with a ring buffer of `capacity` events
    /// and returns a handle to drain it. Every tap site — fetch, commit,
    /// SC probe, CHG issue, deferred release, DRAM access, validation
    /// verdict — feeds the same ring. Costs one branch per site while
    /// enabled-but-idle; the default (never calling this) costs one
    /// `Option` check per site.
    pub fn enable_tracing(&mut self, capacity: usize) -> TraceBus {
        let bus = TraceBus::with_capacity(capacity);
        self.pipeline.set_trace(bus.clone());
        self.monitor.set_trace(bus.clone());
        bus
    }

    /// Arms a fault injector across every corruption site (signature-line
    /// transfers, SC installs, SAG registers, the deferred-store buffer,
    /// the CHG output and the return latch) — the entry point `rev-chaos`
    /// campaigns use. Call after [`Self::enable_tracing`] if the faults
    /// should emit `FaultFired` events.
    pub fn set_fault_injector(&mut self, fault: rev_trace::FaultInjector) {
        self.monitor.set_fault_injector(fault);
    }

    /// Runs `instrs` committed instructions to warm the caches, branch
    /// predictor, TLBs and SC, then clears every statistic — the
    /// measurement-window methodology of the paper's simulations (which
    /// fast-forward and warm up before measuring 2 billion instructions).
    pub fn warmup(&mut self, instrs: u64) {
        let _ = self.pipeline.run(&mut self.monitor, instrs);
        self.pipeline.reset_stats();
        self.monitor.reset_stats();
    }

    /// Runs until `total_committed` correct-path instructions have
    /// committed (cumulative across calls since the last warmup reset), a
    /// halt, or a violation.
    pub fn run(&mut self, total_committed: u64) -> RevReport {
        let result = self.pipeline.run(&mut self.monitor, total_committed);
        self.report_from(result)
    }

    /// Correct-path instructions committed since the last warmup reset —
    /// the progress coordinate of a suspendable [`crate::Session`].
    pub fn committed_instrs(&self) -> u64 {
        self.pipeline.stats().committed_instrs
    }

    /// Advances the core until the cumulative committed count reaches
    /// `total_committed` without firing the end-of-run hook on the budget
    /// path (see [`rev_cpu::Pipeline::run_slice`]). [`crate::Session`]
    /// builds on this; direct callers should prefer [`Self::run`].
    pub(crate) fn run_slice(&mut self, total_committed: u64) -> rev_cpu::RunResult {
        self.pipeline.run_slice(&mut self.monitor, total_committed)
    }

    /// Fires the monitor's end-of-run hook — the terminal half of the
    /// [`Self::run_slice`] protocol, called exactly once per run.
    pub(crate) fn finish_run(&mut self) {
        self.pipeline.finish_run(&mut self.monitor);
    }

    /// Assembles the run report in the same field order as [`Self::run`]
    /// (cpu stats from the pipeline result, then REV stats, then memory
    /// stats — after the end-of-run hook, so SC/shadow captures are in).
    pub(crate) fn report_from(&self, result: rev_cpu::RunResult) -> RevReport {
        RevReport {
            outcome: result.outcome,
            cpu: result.stats,
            rev: self.monitor.stats().clone(),
            mem: self.pipeline.mem().stats(),
        }
    }

    /// A structural fingerprint of everything the checkpoint does *not*
    /// carry: the REV/CPU/memory configurations, the program's entry
    /// point, stack and module layout, and the signature-table placement.
    /// [`crate::Session::restore`] compares it against the checkpoint's
    /// stored value, so state can only ever be restored into a simulator
    /// rebuilt from the same recipe.
    pub fn fingerprint(&self) -> u64 {
        let mut ident = format!(
            "{:?}|{:?}|{:?}|entry={:#x}|sp={:#x}",
            self.config,
            self.cpu_config,
            self.mem_config,
            self.program.entry(),
            self.program.initial_sp()
        );
        for m in self.program.modules() {
            ident.push_str(&format!("|mod={}@{:#x}+{}", m.name(), m.base(), m.code().len()));
        }
        for t in self.monitor.sag().tables() {
            ident.push_str(&format!("|tbl@{:#x}+{}", t.base(), t.image().len()));
        }
        rev_trace::fnv1a64(ident.as_bytes())
    }

    /// Serializes the complete mutable simulator state (core pipeline +
    /// REV monitor) into an open checkpoint envelope. The static build
    /// products — program image, tables, configurations — are *not*
    /// written; restore targets a simulator freshly rebuilt from the same
    /// recipe, guarded by [`RevSimulator::fingerprint`]. Both memory
    /// views were cloned from the build image, and so is every restore
    /// target's, so each view writes only the pages that differ from it.
    pub fn save_state(&self, w: &mut rev_trace::CkptWriter) {
        self.pipeline.save_state(&self.initial_memory, w);
        self.monitor.save_state(&self.initial_memory, w);
    }

    /// Restores state saved by [`RevSimulator::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`rev_trace::CkptError`] on decode failure or any
    /// configuration mismatch. On error the simulator is partially
    /// overwritten and must be discarded (the caller rebuilt it from the
    /// recipe; rebuilding again is cheap and the contract is explicit).
    pub fn restore_state(
        &mut self,
        r: &mut rev_trace::CkptReader<'_>,
    ) -> Result<(), rev_trace::CkptError> {
        self.pipeline.restore_state(r)?;
        self.monitor.restore_state(r)
    }

    /// Dynamically loads `module` mid-run (`dlopen`, paper Sec. IV.B):
    /// the trusted dynamic linker writes the module's code and data into
    /// RAM, re-links every module (cross-module return linkage now covers
    /// the newcomer), regenerates the encrypted tables, reloads the SAG
    /// registers, and flushes the SC. Before loading, any transfer into
    /// the module's address range raises a `NoTable` violation.
    ///
    /// # Errors
    ///
    /// Returns [`SimBuildError`] if the module fails analysis or table
    /// generation.
    pub fn load_dynamic_module(&mut self, module: rev_prog::Module) -> Result<(), SimBuildError> {
        // Load the module image into both memory views.
        let code = module.code().to_vec();
        let base = module.base();
        let data = module.data().to_vec();
        let data_base = module.data_base();
        self.inject(|mem| {
            mem.write_bytes(base, &code);
            if !data.is_empty() {
                mem.write_bytes(data_base, &data);
            }
        });
        self.program.add_module(module);
        // Re-link and re-place all tables (fresh region past the old one).
        let built = BuildCache::global().tables(&self.program, &self.config, 0)?;
        let old_end = self
            .monitor
            .sag()
            .tables()
            .iter()
            .map(|t| t.base() + t.image().len() as u64)
            .max()
            .unwrap_or_else(|| table_region_base(&self.program));
        let region = (old_end.max(table_region_base(&self.program)) + 0xffff) & !0xfff;
        let sag = {
            // Disjoint field borrows: the oracle's live memory and the
            // monitor's committed memory both receive the table images.
            let oracle_mem = self.pipeline.oracle_mut().mem_mut();
            let committed = self.monitor.committed_mut();
            place_tables(built.tables.clone(), region, &mut [oracle_mem, committed], &self.config)
        };
        self.monitor.replace_sag(sag);
        self.table_stats = built.stats.clone();
        Ok(())
    }

    /// Re-keys every module (paper Sec. IX: "The signature tables can be
    /// re-encrypted with different symmetric keys by a trusted entity"):
    /// regenerates each table under a fresh key (digests are keyed, so
    /// regeneration, not just re-encryption), rewrites the RAM images,
    /// reloads the SAG key registers and flushes the SC.
    ///
    /// # Errors
    ///
    /// Returns [`SimBuildError`] if regeneration fails (it cannot for a
    /// program that built once, but the contract is explicit).
    pub fn rekey_modules(&mut self, generation: u64) -> Result<(), SimBuildError> {
        let built = BuildCache::global().tables(&self.program, &self.config, generation)?;
        let region = table_region_base(&self.program);
        let sag = {
            let oracle_mem = self.pipeline.oracle_mut().mem_mut();
            let committed = self.monitor.committed_mut();
            place_tables(built.tables.clone(), region, &mut [oracle_mem, committed], &self.config)
        };
        self.monitor.replace_sag(sag);
        self.table_stats = built.stats.clone();
        Ok(())
    }

    /// Models the REV enable/disable system call (paper Sec. IV.E): the
    /// OS momentarily turns validation off while trusted self-modifying
    /// code runs, then back on. While disabled, blocks commit ungated and
    /// stores write through; on re-enable the CHG memoization is flushed
    /// so rewritten code is re-hashed.
    pub fn set_rev_enabled(&mut self, enabled: bool) {
        self.monitor.set_enabled(enabled);
    }

    /// Applies an external memory write (attack injection, DMA): mutates
    /// both the live execution image and the committed image, and
    /// invalidates REV's memoized hashes so the CHG re-hashes the new
    /// bytes.
    pub fn inject<F: Fn(&mut MainMemory)>(&mut self, f: F) {
        f(self.pipeline.oracle_mut().mem_mut());
        f(self.monitor.committed_mut());
        self.monitor.invalidate_code_cache();
    }

    /// Runs the same program on the same core **without REV** (fresh
    /// pipeline, fresh caches) for `max_instrs` — the overhead baseline.
    pub fn run_baseline(&self, max_instrs: u64) -> BaselineReport {
        self.run_baseline_with_warmup(0, max_instrs)
    }

    /// Baseline run with a warmup phase of `warmup` committed instructions
    /// whose statistics are discarded (matching [`RevSimulator::warmup`]).
    pub fn run_baseline_with_warmup(&self, warmup: u64, max_instrs: u64) -> BaselineReport {
        let oracle = Oracle::new(
            self.initial_memory.clone(),
            self.program.entry(),
            self.program.initial_sp(),
        );
        let mut pipeline = Pipeline::new(self.cpu_config, self.mem_config, oracle);
        let mut monitor = NullMonitor::new(self.initial_memory.clone());
        if warmup > 0 {
            let _ = pipeline.run(&mut monitor, warmup);
            pipeline.reset_stats();
        }
        let result = pipeline.run(&mut monitor, max_instrs);
        BaselineReport { outcome: result.outcome, cpu: result.stats, mem: pipeline.mem().stats() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rev_cpu::ViolationKind;
    use rev_isa::{BranchCond, Instruction, Reg};
    use rev_prog::ModuleBuilder;
    use rev_sigtable::ValidationMode;

    fn demo_program() -> Program {
        let mut b = ModuleBuilder::new("demo", 0x1000);
        let f = b.begin_function("main");
        let top = b.new_label();
        let callee = b.new_label();
        let buf = b.data_zeroed(128);
        b.push(Instruction::Li { rd: Reg::R2, imm: 30 });
        b.li_data(Reg::R5, buf);
        b.bind(top);
        b.call(callee);
        b.push(Instruction::Store { rs: Reg::R1, rbase: Reg::R5, off: 0 });
        b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
        b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
        b.push(Instruction::Halt);
        b.end_function(f);
        let g = b.begin_function("callee");
        b.bind(callee);
        b.push(Instruction::AddI { rd: Reg::R4, rs: Reg::R4, imm: 1 });
        b.push(Instruction::Ret);
        b.end_function(g);
        let mut pb = Program::builder();
        pb.module(b.finish().unwrap());
        pb.build()
    }

    #[test]
    fn clean_run_validates_every_block() {
        let mut sim = RevSimulator::new(demo_program(), RevConfig::paper_default()).unwrap();
        let report = sim.run(100_000);
        assert_eq!(report.outcome, RunOutcome::Halted);
        assert!(report.rev.violation.is_none());
        assert!(report.rev.validations > 0);
        assert!(report.rev.return_checks > 0, "delayed return validation exercised");
    }

    #[test]
    fn stores_release_only_after_validation() {
        let mut sim = RevSimulator::new(demo_program(), RevConfig::paper_default()).unwrap();
        let report = sim.run(100_000);
        assert_eq!(report.outcome, RunOutcome::Halted);
        assert!(report.rev.stores_released > 0);
        assert_eq!(report.rev.stores_discarded, 0);
        // The final committed memory equals the oracle's view.
        let r5 = sim.pipeline().oracle().state().reg(Reg::R5);
        assert_eq!(sim.monitor().committed().read_u64(r5), 29);
        assert_eq!(sim.pipeline().oracle().mem().read_u64(r5), 29);
    }

    #[test]
    fn baseline_is_not_slower_than_rev() {
        let sim = RevSimulator::new(demo_program(), RevConfig::paper_default()).unwrap();
        let base = sim.run_baseline(100_000);
        let mut sim2 = RevSimulator::new(demo_program(), RevConfig::paper_default()).unwrap();
        let rev = sim2.run(100_000);
        assert_eq!(base.outcome, RunOutcome::Halted);
        assert!(base.cpu.ipc() >= rev.cpu.ipc() * 0.999, "REV must not speed things up");
    }

    #[test]
    fn code_injection_detected_and_contained() {
        let mut sim = RevSimulator::new(demo_program(), RevConfig::paper_default()).unwrap();
        // Overwrite the callee's first instruction (addi r4,...) with an
        // attacker's instruction of identical length.
        let callee_entry = sim.program().modules()[0].functions()[1].entry;
        let evil = Instruction::AddI { rd: Reg::R4, rs: Reg::R4, imm: 666 }.encode();
        sim.inject(|mem| mem.write_bytes(callee_entry, &evil));
        let report = sim.run(100_000);
        match report.outcome {
            RunOutcome::Violation(v) => {
                assert_eq!(v.kind, ViolationKind::HashMismatch);
            }
            other => panic!("expected violation, got {other:?}"),
        }
        assert!(report.rev.violation.is_some());
    }

    #[test]
    fn cfi_only_mode_runs_clean() {
        let cfg = RevConfig::paper_default().with_mode(ValidationMode::CfiOnly);
        let mut sim = RevSimulator::new(demo_program(), cfg).unwrap();
        let report = sim.run(100_000);
        assert_eq!(report.outcome, RunOutcome::Halted);
        assert!(report.rev.violation.is_none());
        assert!(report.rev.validations > 0, "returns are validated");
    }

    #[test]
    fn aggressive_mode_runs_clean() {
        let cfg = RevConfig::paper_default().with_mode(ValidationMode::Aggressive);
        let mut sim = RevSimulator::new(demo_program(), cfg).unwrap();
        let report = sim.run(100_000);
        assert_eq!(report.outcome, RunOutcome::Halted);
        assert!(report.rev.violation.is_none());
    }

    #[test]
    fn table_stats_reported_per_module() {
        let sim = RevSimulator::new(demo_program(), RevConfig::paper_default()).unwrap();
        assert_eq!(sim.table_stats().len(), 1);
        assert!(sim.table_stats()[0].ratio_to_code() > 0.0);
    }

    #[test]
    fn tracing_captures_the_validation_protocol() {
        use rev_trace::{EventKind, Verdict};
        let mut sim = RevSimulator::new(demo_program(), RevConfig::paper_default()).unwrap();
        let bus = sim.enable_tracing(1 << 16);
        let report = sim.run(100_000);
        assert_eq!(report.outcome, RunOutcome::Halted);
        let events = bus.drain();
        assert!(!events.is_empty());
        let mut fetches = 0u64;
        let mut commits = 0u64;
        let mut probes = 0u64;
        let mut chg = 0u64;
        let mut releases = 0u64;
        let mut validated = 0u64;
        for e in &events {
            match e.kind {
                EventKind::Fetch { .. } => fetches += 1,
                EventKind::Commit { .. } => commits += 1,
                EventKind::ScProbe { .. } => probes += 1,
                EventKind::ChgIssue { .. } => chg += 1,
                EventKind::DeferRelease { .. } => releases += 1,
                EventKind::ValidationVerdict { verdict, .. } => {
                    assert_eq!(verdict, Verdict::Validated);
                    validated += 1;
                }
                EventKind::DramAccess { .. } => {}
                // Fault-injection events: absent on a clean run.
                EventKind::FaultFired { .. } | EventKind::SigRetry { .. } => {
                    panic!("no faults armed in this run")
                }
            }
        }
        assert!(fetches > 0 && commits > 0 && probes > 0 && chg > 0);
        assert_eq!(validated, report.rev.validations, "one verdict per validation");
        assert_eq!(releases, report.rev.stores_released, "one event per released store");
    }

    #[test]
    fn tracing_disabled_emits_nothing() {
        let mut sim = RevSimulator::new(demo_program(), RevConfig::paper_default()).unwrap();
        let report = sim.run(100_000);
        assert_eq!(report.outcome, RunOutcome::Halted);
        // No bus was ever attached; nothing to drain anywhere. The real
        // assertion is in the overhead check (scripts/check.sh): the
        // disabled path is a single Option test per site.
        assert!(report.rev.validations > 0);
    }

    #[test]
    fn deterministic_reports() {
        let run = || {
            let mut sim = RevSimulator::new(demo_program(), RevConfig::paper_default()).unwrap();
            let r = sim.run(100_000);
            (r.cpu.cycles, r.rev.validations, r.rev.sc.probes())
        };
        assert_eq!(run(), run());
    }
}
