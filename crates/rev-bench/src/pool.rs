//! The warm-start checkpoint pool: build once, store on disk.
//!
//! Every (profile × configuration) work item in a sweep pays the same
//! config-independent prefix — program materialization, CFG statistics
//! and the AES-heavy signature-table build — plus, per full recipe, a
//! warmup run. [`WarmPool`] memoizes the generated programs in memory,
//! takes analyses and tables from `rev-core`'s process-wide
//! [`BuildCache`] (which the audit, the lint and `rev-serve` share), and
//! can persist each warmed simulator to disk (`--ckpt-pool DIR`) so a
//! later process restores it instead of re-running the warmup. Warmed
//! simulators are never kept in memory: a sweep asks for each full
//! recipe once, so every fetch hands its simulator straight to the
//! caller. A pooled sweep renders measurement snapshots byte-identical
//! to fresh `RevSimulator::new` runs — `rev-bench/tests/equivalence.rs`
//! pins that across all 18 profiles.
//!
//! ## Keying and invalidation (DESIGN.md §13)
//!
//! One in-memory shelf and one disk cache, each keyed by an FNV-1a-64
//! digest of a versioned recipe string:
//!
//! * **program** — `prog/1 | SpecProfile` → generated [`Program`] +
//!   [`CfgStats`]. Workload generation is deterministic in the profile.
//! * **warm** (disk only) — `rev-bench-pool/1 | CKPT_SCHEMA |
//!   SpecProfile | RevConfig | warmup` → a warmed [`RevSimulator`]. The
//!   full `RevConfig` debug form (which includes the superblocks flag)
//!   and the warmup budget are part of the key; the `CKPT_SCHEMA` schema
//!   version is included so any codec bump invalidates disk entries.
//!
//! * **checks** — `checks/1 | SpecProfile | sweep configurations |
//!   preflight` → the profile's `rev-audit` outcome under the sweep's
//!   base configuration and, under `--preflight`, the gate report of
//!   every (mode, BB limits, return policy) the sweep runs, all from one
//!   analysis per BB limits.
//!
//! Table content depends only on the program, the validation mode and the
//! BB limits, which is how the [`BuildCache`] keys it: SC size, deferral
//! depth etc. never reach the builder, so e.g. standard-mode 32K and 64K
//! slots share one AES schedule expansion.
//!
//! Warm entries persist under `--ckpt-pool DIR` as sealed `CKPT_SCHEMA`
//! envelopes (`Session::checkpoint` with the recipe string as the
//! envelope's recipe section). A disk entry is trusted only if the
//! trailing checksum verifies, the stored recipe string matches the
//! requested one byte-for-byte (a digest collision or stale schema shows
//! up here), and the structural fingerprint matches the freshly rebuilt
//! simulator. Any failure counts as `pool.corrupt` and the entry is
//! rebuilt fail-open — a corrupt cache can cost time, never correctness.

use crate::{cfg_stats_for, SweepConfig};
use rev_core::{BuildCache, RevConfig, RevSimulator, Session};
use rev_lint::{AuditOutcome, Report};
use rev_prog::{BbLimits, CfgStats, Program};
use rev_sigtable::{TableStats, ValidationMode};
use rev_trace::{fnv1a64, lock_unpoisoned, CKPT_SCHEMA};
use rev_workloads::{generate, SpecProfile};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A point-in-time copy of the pool's counters (perfbench reports them
/// as `bench.pool.warm_hit_ratio`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Warm fetches restored from a valid `--ckpt-pool` disk entry.
    pub hits: u64,
    /// Warm fetches that had to build (no valid disk entry).
    pub misses: u64,
    /// Disk entries rejected (checksum, recipe, or fingerprint) and
    /// rebuilt fail-open.
    pub corrupt: u64,
}

/// What one [`WarmPool::warm_fork`] call did, with host-side phase
/// timings for the config-independent prefix (perfbench's traced
/// `bench.pool.*` layers). Generation and table build are ~0 when the
/// program shelf and the build cache already hold the profile; on a
/// disk hit the warmup is replaced by a checkpoint restore.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolFetch {
    /// Restored from a valid disk entry rather than warmed up here.
    pub hit: bool,
    /// A disk entry existed but failed validation and was rebuilt.
    pub corrupt: bool,
    /// Program materialization + CFG statistics, nanoseconds.
    pub gen_ns: u64,
    /// Signature-table build (AES schedule expansion) + simulator
    /// assembly, nanoseconds.
    pub table_ns: u64,
    /// Warmup run (or disk-checkpoint restore on a disk hit), nanoseconds.
    pub warm_ns: u64,
}

/// A generated program and its CFG statistics.
type Generated = (Program, CfgStats);

/// A single-flight shelf: key → slot, where the slot's inner mutex is
/// held across the computation so concurrent requesters for the same key
/// block until the first one lands (requesters for other keys proceed —
/// the outer map lock is only held for the slot lookup).
type Shelf<V> = Mutex<HashMap<u64, Arc<Mutex<Option<Arc<V>>>>>>;

/// The value under `key` on `shelf`, computed by `make` on first request.
fn shelved<V>(shelf: &Shelf<V>, key: u64, make: impl FnOnce() -> V) -> Arc<V> {
    let slot = Arc::clone(lock_unpoisoned(shelf).entry(key).or_default());
    let mut guard = lock_unpoisoned(&slot);
    if let Some(value) = guard.as_ref() {
        return Arc::clone(value);
    }
    let value = Arc::new(make());
    *guard = Some(Arc::clone(&value));
    value
}

/// Every configuration field the `--preflight` report reads: the mode
/// and BB limits pick the tables and the analysis, and the audit's guard
/// sets and latency bounds read `naive_return_validation`. Two
/// configurations with one key get one verdict.
type GateKey = (ValidationMode, BbLimits, bool);

fn gate_key(config: &RevConfig) -> GateKey {
    (config.mode, config.bb_limits, config.naive_return_validation)
}

/// The static checks of one profile under a sweep's configurations
/// ([`WarmPool::checks`]).
#[derive(Debug)]
pub(crate) struct ProfileChecks {
    /// The `rev-audit` outcome under the sweep's base configuration.
    pub(crate) audit: AuditOutcome,
    /// Under `--preflight`: per distinct [`GateKey`] the sweep runs, the
    /// [`crate::gate_report`] of that configuration's tables.
    gates: Vec<(GateKey, Report)>,
}

impl ProfileChecks {
    /// The `--preflight` gate for `config`: passes when its tables' lint
    /// and audit found nothing at error severity.
    ///
    /// # Panics
    ///
    /// Panics with the rendered diagnostics when the gate fails, and if
    /// the checks were made without preflight or for other configurations.
    pub(crate) fn gate(&self, config: &RevConfig) {
        let key = gate_key(config);
        let (_, report) = self
            .gates
            .iter()
            .find(|(k, _)| *k == key)
            .expect("the checks were made for this configuration");
        crate::assert_gate(report);
    }
}

/// The warm-start pool: a per-process program shelf plus an optional
/// on-disk warm-checkpoint cache, over the process-wide [`BuildCache`].
/// Shared by reference across `parallel_map` workers; it holds no tables
/// and no simulators.
#[derive(Debug)]
pub struct WarmPool {
    disk: Option<PathBuf>,
    programs: Shelf<Generated>,
    checks: Shelf<ProfileChecks>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

impl WarmPool {
    /// Creates a pool; `disk_dir` (the `--ckpt-pool DIR` flag) enables
    /// the on-disk warm-checkpoint cache, created on first use.
    pub fn new(disk_dir: Option<&str>) -> Self {
        WarmPool {
            disk: disk_dir.map(PathBuf::from),
            programs: Mutex::default(),
            checks: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// The pool counters so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    /// The profile's generated program and CFG statistics, built once
    /// per process.
    pub fn program(&self, profile: &SpecProfile) -> Arc<Generated> {
        let key = fnv1a64(format!("prog/1|{profile:?}").as_bytes());
        shelved(&self.programs, key, || {
            let program = generate(profile);
            let cfg = cfg_stats_for(&program);
            (program, cfg)
        })
    }

    /// The static checks of `profile` in a sweep of `configs`, made once
    /// per pool: the `rev-audit` outcome under `configs[0]` (the base
    /// item's `audit.*` registry) and, with `preflight`, the gate report
    /// of every distinct [`GateKey`] in `configs`. The base
    /// analysis is held across the audit and the lints, so a preflighted
    /// sweep analyzes each program no more often than an unchecked one.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or the program fails analysis or
    /// table generation (generated workloads never do).
    pub(crate) fn checks(
        &self,
        profile: &SpecProfile,
        configs: &[SweepConfig],
        preflight: bool,
    ) -> Arc<ProfileChecks> {
        let key =
            fnv1a64(format!("checks/1|{profile:?}|{configs:?}|preflight={preflight}").as_bytes());
        shelved(&self.checks, key, || {
            let generated = self.program(profile);
            let program = &generated.0;
            let cache = BuildCache::global();
            let cfgs = |limits| cache.cfgs(program, limits).expect("workload analyzes");
            let base = &configs[0].config;
            let base_cfgs = cfgs(base.bb_limits);
            let audit = rev_lint::audit_linked(program, &base_cfgs, base);
            let mut gates: Vec<(GateKey, Report)> = Vec::new();
            for config in configs.iter().map(|c| &c.config).filter(|_| preflight) {
                let key = gate_key(config);
                if gates.iter().any(|(k, _)| *k == key) {
                    continue;
                }
                // The audit built every mode at the base limits, so the
                // cache no longer stores that analysis: use the held one.
                // Other limits are read before their tables are built,
                // while the cache still stores their analysis.
                let limits = config.bb_limits;
                let cfgs =
                    if limits == base.bb_limits { Arc::clone(&base_cfgs) } else { cfgs(limits) };
                let built = cache.tables(program, config, 0).expect("workload builds");
                gates.push((key, crate::gate_report(program, &cfgs, &built.tables, config)));
            }
            ProfileChecks { audit, gates }
        })
    }

    /// Per-module table statistics for `(profile, config)` without
    /// assembling a simulator — what the `table_sizes` section needs.
    pub fn table_stats(&self, profile: &SpecProfile, config: &RevConfig) -> Vec<TableStats> {
        let program = self.program(profile);
        BuildCache::global().tables(&program.0, config, 0).expect("workload builds").stats.clone()
    }

    /// Assembles a cold (unwarmed) simulator from the memoized program
    /// and the build cache's tables — indistinguishable from
    /// `RevSimulator::new` on the same inputs, minus the repeated
    /// analysis and AES work.
    pub fn cold_sim(&self, profile: &SpecProfile, config: &RevConfig) -> RevSimulator {
        let program = self.program(profile);
        RevSimulator::cached(program.0.clone(), *config).expect("workload builds")
    }

    /// The warm recipe string — the full content address of a pooled
    /// simulator. Anything that could change a single counter of a
    /// warmed run is in here.
    fn warm_recipe(profile: &SpecProfile, config: &RevConfig, warmup: u64) -> String {
        format!("rev-bench-pool/1|{CKPT_SCHEMA}|{profile:?}|{config:?}|warmup={warmup}")
    }

    /// A warmed simulator for `(profile, config, warmup)`: restored from
    /// a valid `--ckpt-pool` disk entry, or built from the program shelf
    /// and the build cache,
    /// warmed up and stored on disk. The caller owns the returned
    /// simulator; the pool keeps no copy. The returned [`PoolFetch`]
    /// carries the phase timings and hit/miss outcome.
    pub fn warm_fork(
        &self,
        profile: &SpecProfile,
        config: &RevConfig,
        warmup: u64,
    ) -> (RevSimulator, PoolFetch) {
        let recipe = Self::warm_recipe(profile, config, warmup);
        let key = fnv1a64(recipe.as_bytes());
        let mut fetch = PoolFetch::default();
        if let Some(sim) = self.disk_load(&recipe, key, profile, config, &mut fetch) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            fetch.hit = true;
            return (sim, fetch);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        self.program(profile);
        fetch.gen_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let mut sim = self.cold_sim(profile, config);
        fetch.table_ns = t.elapsed().as_nanos() as u64;
        if warmup > 0 {
            let t = Instant::now();
            sim.warmup(warmup);
            fetch.warm_ns = t.elapsed().as_nanos() as u64;
            sim = self.disk_store(&recipe, key, sim);
        }
        (sim, fetch)
    }

    fn warm_path(&self, key: u64) -> Option<PathBuf> {
        self.disk.as_ref().map(|d| d.join(format!("warm-{key:016x}.ckpt")))
    }

    /// Tries the on-disk warm cache. `None` means "no usable entry" —
    /// absent is silent, while a present-but-invalid entry (checksum,
    /// recipe, fingerprint, or decode failure) bumps `pool.corrupt` and
    /// falls through to a rebuild. A valid entry is restored into a
    /// cold simulator rebuilt from the shelf and the build cache, with
    /// the restore cost attributed to the warm phase.
    fn disk_load(
        &self,
        recipe: &str,
        key: u64,
        profile: &SpecProfile,
        config: &RevConfig,
        fetch: &mut PoolFetch,
    ) -> Option<RevSimulator> {
        let path = self.warm_path(key)?;
        let data = std::fs::read(&path).ok()?;
        let mut reject = || {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            fetch.corrupt = true;
        };
        let Ok(stored) = Session::recipe(&data) else {
            reject();
            return None;
        };
        if stored != recipe.as_bytes() {
            reject();
            return None;
        }
        let t = Instant::now();
        self.program(profile);
        fetch.gen_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let cold = self.cold_sim(profile, config);
        fetch.table_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let Ok(session) = Session::restore(cold, &data) else {
            reject();
            return None;
        };
        fetch.warm_ns = t.elapsed().as_nanos() as u64;
        Some(session.into_simulator())
    }

    /// Seals the warmed simulator into the disk cache (atomic
    /// temp-file + rename so a concurrent reader never sees a torn
    /// entry) and hands it back. Any I/O failure is silently ignored —
    /// the disk cache is an accelerator, never a correctness dependency.
    fn disk_store(&self, recipe: &str, key: u64, sim: RevSimulator) -> RevSimulator {
        let Some(path) = self.warm_path(key) else { return sim };
        let session = Session::new(sim, u64::MAX);
        if let Ok(envelope) = session.checkpoint(recipe.as_bytes()) {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            if std::fs::write(&tmp, &envelope).is_ok() && std::fs::rename(&tmp, &path).is_err() {
                let _ = std::fs::remove_file(&tmp);
            }
        }
        session.into_simulator()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rev_workloads::ALL_PROFILES;

    fn tiny_profile() -> SpecProfile {
        ALL_PROFILES.iter().find(|p| p.name == "mcf").unwrap().scaled(0.05)
    }

    /// The pool is shared by reference across `parallel_map` workers.
    #[test]
    fn pool_is_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<WarmPool>();
    }

    /// Without a disk cache every fetch builds: two fetches of one
    /// recipe are two independent, identical simulators.
    #[test]
    fn warm_forks_are_independent_and_counted() {
        let pool = WarmPool::new(None);
        let p = tiny_profile();
        let config = RevConfig::paper_default();
        let (mut a, fa) = pool.warm_fork(&p, &config, 2_000);
        let (mut b, fb) = pool.warm_fork(&p, &config, 2_000);
        assert!(!fa.hit && !fb.hit, "no disk cache, so both fetches build");
        assert!(fa.warm_ns > 0 && fb.warm_ns > 0, "each build pays the warmup");
        let ra = a.run(5_000);
        let rb = b.run(5_000);
        assert_eq!(ra.cpu.cycles, rb.cpu.cycles, "both builds must be indistinguishable");
        assert_eq!(pool.stats(), PoolStats { hits: 0, misses: 2, corrupt: 0 });
    }

    #[test]
    fn pooled_cold_sim_matches_fresh_build() {
        let pool = WarmPool::new(None);
        let p = tiny_profile();
        let config = RevConfig::paper_default();
        let mut pooled = pool.cold_sim(&p, &config);
        let mut fresh = RevSimulator::new(generate(&p), config).unwrap();
        assert_eq!(pooled.fingerprint(), fresh.fingerprint());
        let a = pooled.run(5_000);
        let b = fresh.run(5_000);
        assert_eq!(a.cpu.cycles, b.cpu.cycles);
        assert_eq!(a.rev.validations, b.rev.validations);
    }

    #[test]
    fn tables_are_shared_across_sc_sizes() {
        let pool = WarmPool::new(None);
        let p = tiny_profile();
        let program = pool.program(&p);
        let cache = BuildCache::global();
        let s32 = cache.tables(&program.0, &RevConfig::paper_default(), 0).unwrap();
        let s64 = cache.tables(&program.0, &RevConfig::paper_64k(), 0).unwrap();
        assert!(Arc::ptr_eq(&s32, &s64), "one build serves both SC sizes");
        assert_eq!(pool.table_stats(&p, &RevConfig::paper_64k()), s32.stats);
    }

    /// The gate report under `config`'s key.
    fn gate_of<'a>(checks: &'a ProfileChecks, config: &RevConfig) -> &'a Report {
        let key = gate_key(config);
        &checks.gates.iter().find(|(k, _)| *k == key).unwrap().1
    }

    /// A pooled verdict is the report [`crate::preflight`] computes from
    /// a built simulator, and configurations that differ in a field the
    /// report reads get verdicts of their own.
    #[test]
    fn pooled_gates_match_the_simulator_preflight() {
        let pool = WarmPool::new(None);
        let p = tiny_profile();
        let naive = RevConfig { naive_return_validation: true, ..RevConfig::paper_default() };
        let configs = [
            SweepConfig::new("REV-32K", RevConfig::paper_default()),
            SweepConfig::new("REV-64K", RevConfig::paper_64k()),
            SweepConfig::new("naive-returns", naive),
        ];
        let checks = pool.checks(&p, &configs, true);
        assert_eq!(checks.gates.len(), 2, "SC size shares a verdict; the return policy does not");
        for c in &configs {
            checks.gate(&c.config);
            let sim = pool.cold_sim(&p, &c.config);
            let cfgs = BuildCache::global().cfgs(sim.program(), c.config.bb_limits).unwrap();
            let placed =
                crate::gate_report(sim.program(), &cfgs, sim.monitor().sag().tables(), &c.config);
            assert_eq!(gate_of(&checks, &c.config).render_text(), placed.render_text());
        }
        assert_ne!(
            gate_of(&checks, &configs[0].config).render_text(),
            gate_of(&checks, &naive).render_text(),
            "the naive policy changes the audited latency bound"
        );
    }

    /// Checks holding one `config` gate with `report`.
    fn checks_with(config: &RevConfig, report: Report) -> ProfileChecks {
        let audit = AuditOutcome { report: Report::new(), modes: Vec::new() };
        ProfileChecks { audit, gates: vec![(gate_key(config), report)] }
    }

    #[test]
    #[should_panic(expected = "table ranges overlap: planted")]
    fn gate_refuses_an_error_finding_and_renders_it() {
        let config = RevConfig::paper_default();
        let mut report = Report::new();
        report.push(rev_lint::Diagnostic::new(
            rev_lint::Lint::SagOverlap,
            "table ranges overlap: planted",
        ));
        assert!(!report.passes_gate());
        checks_with(&config, report).gate(&config);
    }

    #[test]
    fn gate_passes_a_report_without_errors() {
        let config = RevConfig::paper_default();
        checks_with(&config, Report::new()).gate(&config);
    }

    #[test]
    #[should_panic(expected = "the checks were made for this configuration")]
    fn gate_refuses_a_configuration_it_was_not_made_for() {
        let config = RevConfig::paper_default();
        let other = config.with_mode(ValidationMode::Aggressive);
        checks_with(&config, Report::new()).gate(&other);
    }
}
