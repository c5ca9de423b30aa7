//! The trusted toolchain's build cache: each program is analyzed once
//! and each of its signature tables built once per process.
//!
//! The paper's toolchain generates a module's encrypted signature table
//! once, when the binary is built or loaded (Sec. IV.B). Inside one
//! process the same program reaches the toolchain from many consumers —
//! the sweep's warm pool, the `rev-audit` analyses, the `--preflight`
//! lint, `rev-serve` jobs and their crash restores — so the analysis and
//! the AES-heavy table encryption sit behind one process-wide,
//! single-flight cache, [`BuildCache::global`].
//!
//! ## Keys and what an entry keeps
//!
//! An entry is keyed by the program's content (a keyed SipHash of every
//! module: name, base, code, data, function extents and indirect target
//! sets) and the [`BbLimits`]. It holds
//!
//! * the linked CFGs of [`crate::analyze_and_link`], until every mode's
//!   tables are built and only while the entry is one of the
//!   [`CFG_ENTRIES`] most recently used — a quick-scale CFG weighs ~1 MiB
//!   and is re-read only by the next few builds and audits of the same
//!   program, so a later reader re-analyzes without storing;
//! * each validation mode's tables under key generation 0, unplaced.
//!
//! Tables under a later key generation ([`crate::RevSimulator::rekey_modules`])
//! reuse the entry's analysis but are handed out unretained: a re-key
//! happens once per generation, so nothing would re-read them. A
//! dynamically loaded module changes the program's content and so its
//! key; no request can see a stale entry.
//!
//! The cache holds at most [`BUILD_CACHE_ENTRIES`] entries and evicts the
//! least recently used. Each slot's lock is held across its build, so
//! concurrent requesters for one key wait for the first build instead of
//! repeating it, while other keys proceed. A build that panics leaves its
//! slot empty and the key rebuildable: locks are taken through
//! [`rev_trace::lock_unpoisoned`], and a slot only ever changes from
//! empty to a finished value.

use crate::config::RevConfig;
use crate::sim::{build_tables, link_cfgs, SimError};
use rev_prog::{BbLimits, Cfg, Program};
use rev_sigtable::{SignatureTable, TableStats, ValidationMode};
use rev_trace::lock_unpoisoned as lock;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Entries (program × [`BbLimits`]) the process-wide cache keeps. It
/// covers the paper's 18 profiles at one scale with room for the attack
/// victims and campaign programs a process builds alongside them.
pub const BUILD_CACHE_ENTRIES: usize = 32;

/// How many of the most recently used entries may keep their CFGs. A
/// sweep works on one or two profiles at a time (one per worker), so
/// four cover every build and audit of a profile; a gateway serving
/// many programs keeps no more than four analyses alive.
pub const CFG_ENTRIES: usize = 4;

/// One validation mode's built, unplaced signature tables — one per
/// module, in program order — with their statistics.
#[derive(Debug)]
pub struct BuiltTables {
    /// The encrypted tables; the loader places them.
    pub tables: Vec<SignatureTable>,
    /// Per-module table statistics, in the same order.
    pub stats: Vec<TableStats>,
}

/// What the cache has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildCacheStats {
    /// Static analyses run ([`crate::analyze_and_link`] passes).
    pub analyses: u64,
    /// Table sets built (one mode, all modules).
    pub builds: u64,
    /// Requests served from a stored analysis or table set.
    pub hits: u64,
    /// Entries dropped by the entry bound.
    pub evictions: u64,
}

/// The validation modes, one table slot each.
const MODES: usize = 3;

fn mode_index(mode: ValidationMode) -> usize {
    match mode {
        ValidationMode::Standard => 0,
        ValidationMode::Aggressive => 1,
        ValidationMode::CfiOnly => 2,
    }
}

/// [`Entry::built`] once every mode's tables are stored.
const ALL_BUILT: u8 = (1 << MODES) - 1;

/// A single-flight memo slot: its lock is held across the build.
type Slot<V> = Mutex<Option<Arc<V>>>;

#[derive(Debug, Default)]
struct Entry {
    cfgs: Slot<[Cfg]>,
    tables: [Slot<BuiltTables>; MODES],
    /// Bit `mode_index(m)` is set once mode `m`'s tables are stored.
    built: AtomicU8,
}

#[derive(Debug, Default)]
struct State {
    /// Least recently used first.
    entries: Vec<(u64, BbLimits, Arc<Entry>)>,
    stats: BuildCacheStats,
}

/// A bounded, single-flight cache of program analyses and signature
/// tables (see the module docs).
#[derive(Debug)]
pub struct BuildCache {
    bound: usize,
    hasher: RandomState,
    state: Mutex<State>,
}

impl BuildCache {
    /// An empty cache holding at most `bound` entries (at least one).
    pub(crate) fn new(bound: usize) -> Self {
        BuildCache {
            bound: bound.max(1),
            hasher: RandomState::new(),
            state: Mutex::new(State::default()),
        }
    }

    /// The process-wide cache every build consumer shares, bounded by
    /// [`BUILD_CACHE_ENTRIES`].
    pub fn global() -> &'static BuildCache {
        static CACHE: OnceLock<BuildCache> = OnceLock::new();
        CACHE.get_or_init(|| BuildCache::new(BUILD_CACHE_ENTRIES))
    }

    /// The counters so far.
    pub fn stats(&self) -> BuildCacheStats {
        lock(&self.state).stats
    }

    /// The linked CFGs of `program` under `limits`, analyzed once while
    /// the entry still feeds table builds (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Cfg`] if a module fails static analysis.
    /// Failures are never stored.
    pub fn cfgs(&self, program: &Program, limits: BbLimits) -> Result<Arc<[Cfg]>, SimError> {
        let entry = self.entry(program, limits);
        self.entry_cfgs(&entry, program, limits)
    }

    /// The tables of `program` for `config`'s validation mode and
    /// [`BbLimits`] under `key_generation` (0 is the build-time key).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is unrunnable (checked
    /// first, as [`crate::RevSimulator::new`] does) or a module fails
    /// static analysis or table generation. Failures are never stored.
    pub fn tables(
        &self,
        program: &Program,
        config: &RevConfig,
        key_generation: u64,
    ) -> Result<Arc<BuiltTables>, SimError> {
        config.validate()?;
        let limits = config.bb_limits;
        let entry = self.entry(program, limits);
        if key_generation != 0 {
            let cfgs = self.entry_cfgs(&entry, program, limits)?;
            let built = build_tables(program, &cfgs, config.mode, key_generation)?;
            lock(&self.state).stats.builds += 1;
            return Ok(Arc::new(built));
        }
        let index = mode_index(config.mode);
        let mut slot = lock(&entry.tables[index]);
        if let Some(built) = slot.as_ref() {
            lock(&self.state).stats.hits += 1;
            return Ok(Arc::clone(built));
        }
        let cfgs = self.entry_cfgs(&entry, program, limits)?;
        let built = Arc::new(build_tables(program, &cfgs, config.mode, 0)?);
        lock(&self.state).stats.builds += 1;
        *slot = Some(Arc::clone(&built));
        let bit = 1 << index;
        if entry.built.fetch_or(bit, Ordering::SeqCst) | bit == ALL_BUILT {
            *lock(&entry.cfgs) = None;
        }
        Ok(built)
    }

    /// The entry for `(program, limits)`, created if absent and moved to
    /// the most-recently-used end; the oldest entry beyond the bound is
    /// dropped (requesters still holding it finish undisturbed), and the
    /// entry this pushes out of the [`CFG_ENTRIES`] window drops its CFGs
    /// — unless a build is reading them right now, in which case they go
    /// with the entry's next demotion or eviction.
    fn entry(&self, program: &Program, limits: BbLimits) -> Arc<Entry> {
        let key = self.hasher.hash_one(program.modules());
        let mut st = lock(&self.state);
        let found = st.entries.iter().position(|(k, l, _)| *k == key && *l == limits);
        let entry = match found {
            Some(i) => st.entries.remove(i).2,
            None => Arc::default(),
        };
        st.entries.push((key, limits, Arc::clone(&entry)));
        if st.entries.len() > self.bound {
            st.entries.remove(0);
            st.stats.evictions += 1;
        }
        if let Some((_, _, cold)) = st.entries.iter().rev().nth(CFG_ENTRIES) {
            if let Ok(mut cfgs) = cold.cfgs.try_lock() {
                *cfgs = None;
            }
        }
        entry
    }

    /// The entry's CFGs, analyzing on a miss; the analysis is stored only
    /// while some mode's tables are still missing.
    fn entry_cfgs(
        &self,
        entry: &Entry,
        program: &Program,
        limits: BbLimits,
    ) -> Result<Arc<[Cfg]>, SimError> {
        let mut slot = lock(&entry.cfgs);
        if let Some(cfgs) = slot.as_ref() {
            lock(&self.state).stats.hits += 1;
            return Ok(Arc::clone(cfgs));
        }
        let cfgs: Arc<[Cfg]> = link_cfgs(program, limits)?.into();
        lock(&self.state).stats.analyses += 1;
        if entry.built.load(Ordering::SeqCst) != ALL_BUILT {
            *slot = Some(Arc::clone(&cfgs));
        }
        Ok(cfgs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RevSimulator;
    use rev_isa::{Instruction, Reg};
    use rev_prog::ModuleBuilder;

    fn program(name: &str, base: u64) -> Program {
        let mut b = ModuleBuilder::new(name, base);
        let main = b.begin_function("main");
        let callee = b.new_label();
        b.call(callee);
        b.push(Instruction::Halt);
        b.end_function(main);
        let f = b.begin_function("f");
        b.bind(callee);
        b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
        b.push(Instruction::Ret);
        b.end_function(f);
        let mut pb = Program::builder();
        pb.module(b.finish().unwrap());
        pb.build()
    }

    fn config(mode: ValidationMode) -> RevConfig {
        RevConfig::paper_default().with_mode(mode)
    }

    const ALL: [ValidationMode; MODES] =
        [ValidationMode::Standard, ValidationMode::Aggressive, ValidationMode::CfiOnly];

    #[test]
    fn one_analysis_feeds_every_mode_and_then_is_dropped() {
        let cache = BuildCache::new(8);
        let p = program("m", 0x1000);
        let cfgs = cache.cfgs(&p, BbLimits::default()).unwrap();
        for mode in ALL {
            cache.tables(&p, &config(mode), 0).unwrap();
            cache.tables(&p, &config(mode).with_superblocks(false), 0).unwrap();
        }
        let st = cache.stats();
        assert_eq!((st.analyses, st.builds), (1, 3), "{st:?}");
        assert_eq!(st.hits, 3 + 3, "each build reads the stored analysis, each repeat hits");
        // A finished entry keeps no CFGs: the next reader re-analyzes.
        let again = cache.cfgs(&p, BbLimits::default()).unwrap();
        assert_eq!(cache.stats().analyses, 2);
        assert_eq!(again.len(), cfgs.len());
        let tighter = BbLimits { max_instrs: 2, ..BbLimits::default() };
        cache.cfgs(&p, tighter).unwrap();
        assert_eq!(cache.stats().analyses, 3, "other limits are another entry");
    }

    #[test]
    fn only_the_most_recent_entries_keep_their_cfgs() {
        let cache = BuildCache::new(CFG_ENTRIES + 4);
        let limits = BbLimits::default();
        let programs: Vec<Program> =
            (0..=CFG_ENTRIES).map(|i| program(&format!("p{i}"), 0x1000)).collect();
        for p in &programs {
            cache.cfgs(p, limits).unwrap();
            cache.tables(p, &config(ValidationMode::Standard), 0).unwrap();
        }
        let analyses = cache.stats().analyses;
        assert_eq!(analyses, programs.len() as u64);
        cache.tables(&programs[0], &config(ValidationMode::CfiOnly), 0).unwrap();
        assert_eq!(cache.stats().analyses, analyses + 1, "the oldest dropped its CFGs");
        cache.tables(&programs[CFG_ENTRIES], &config(ValidationMode::CfiOnly), 0).unwrap();
        assert_eq!(cache.stats().analyses, analyses + 1, "a recent entry kept its CFGs");
        cache.tables(&programs[0], &config(ValidationMode::Standard), 0).unwrap();
        assert_eq!(cache.stats().builds, programs.len() as u64 + 2, "tables outlive the CFGs");
    }

    #[test]
    fn cached_tables_match_a_fresh_build() {
        let p = program("m", 0x1000);
        for mode in ALL {
            let mut cached = RevSimulator::cached(p.clone(), config(mode)).unwrap();
            let mut fresh = RevSimulator::new(p.clone(), config(mode)).unwrap();
            assert_eq!(cached.fingerprint(), fresh.fingerprint(), "{mode}");
            assert_eq!(cached.table_stats(), fresh.table_stats(), "{mode}");
            let (a, b) = (cached.run(1_000), fresh.run(1_000));
            assert_eq!((a.cpu.cycles, a.rev.validations), (b.cpu.cycles, b.rev.validations));
        }
    }

    #[test]
    fn rekeyed_and_dynamically_loaded_tables_are_never_stale() {
        let p = program("main", 0x1000);
        let image = |sim: &RevSimulator| -> Vec<Vec<u8>> {
            sim.monitor().sag().tables().iter().map(|t| t.image().to_vec()).collect()
        };
        let mut sim = RevSimulator::cached(p.clone(), config(ValidationMode::Standard)).unwrap();
        let gen0 = image(&sim);
        sim.rekey_modules(3).unwrap();
        let mut fresh = RevSimulator::new(p.clone(), config(ValidationMode::Standard)).unwrap();
        fresh.rekey_modules(3).unwrap();
        assert_ne!(image(&sim), gen0, "a re-key regenerates under the new key");
        assert_eq!(image(&sim), image(&fresh));
        sim.rekey_modules(0).unwrap();
        assert_eq!(image(&sim), gen0, "generation 0 is the build-time key");

        sim.load_dynamic_module(program("plugin", 0x8000).modules()[0].clone()).unwrap();
        assert_eq!(sim.table_stats().len(), 2, "the newcomer gets its table");
        let mut pb = Program::builder();
        pb.module(p.modules()[0].clone());
        pb.module(program("plugin", 0x8000).modules()[0].clone());
        let linked = RevSimulator::new(pb.build(), config(ValidationMode::Standard)).unwrap();
        assert_eq!(sim.table_stats(), linked.table_stats());
    }

    #[test]
    fn the_entry_bound_evicts_the_least_recently_used() {
        let cache = BuildCache::new(2);
        let (a, b, c) = (program("a", 0x1000), program("b", 0x1000), program("c", 0x1000));
        let limits = BbLimits::default();
        cache.cfgs(&a, limits).unwrap();
        cache.cfgs(&b, limits).unwrap();
        cache.cfgs(&a, limits).unwrap();
        cache.cfgs(&c, limits).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        cache.cfgs(&a, limits).unwrap();
        assert_eq!(cache.stats().analyses, 3, "a was used last, so b was evicted");
        cache.cfgs(&b, limits).unwrap();
        assert_eq!(cache.stats().analyses, 4, "b must be analyzed again");
        assert_eq!(lock(&cache.state).entries.len(), 2);
    }

    #[test]
    fn concurrent_requesters_for_one_key_build_once() {
        let cache = BuildCache::new(4);
        let p = program("m", 0x1000);
        let start = std::sync::Barrier::new(4);
        let built: Vec<Arc<BuiltTables>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cache.tables(&p, &config(ValidationMode::Aggressive), 0).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let st = cache.stats();
        assert_eq!((st.analyses, st.builds, st.hits), (1, 1, 3), "{st:?}");
        assert!(built.iter().all(|b| Arc::ptr_eq(b, &built[0])));
    }

    #[test]
    fn a_build_that_panics_leaves_the_key_rebuildable() {
        let cache = BuildCache::new(4);
        let p = program("m", 0x1000);
        let entry = cache.entry(&p, BbLimits::default());
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _tables = entry.tables[0].lock().unwrap();
            let _cfgs = entry.cfgs.lock().unwrap();
            panic!("the build dies holding its slots");
        }));
        assert!(crashed.is_err() && entry.tables[0].is_poisoned() && entry.cfgs.is_poisoned());
        let built = cache.tables(&p, &config(ValidationMode::Standard), 0).unwrap();
        assert_eq!(built.tables.len(), 1);
        assert_eq!(cache.stats().builds, 1);
        cache.tables(&p, &config(ValidationMode::Standard), 0).unwrap();
        assert_eq!(cache.stats().hits, 1, "the rebuilt slot serves later requests");
    }
}
