//! Equivalence guarantees for the hot-loop optimizations: the fan-out
//! width and the tracing taps are *observability* knobs, never
//! *measurement* knobs.
//!
//! * the rendered `rev-trace/1` snapshot is byte-identical for any
//!   `--jobs` value, across **all 18** workload profiles;
//! * a run with the TraceBus attached exports exactly the metrics of a
//!   run without it;
//! * the superblock memo layer (`RevConfig::superblocks`) never changes
//!   a rendered snapshot byte across all 18 profiles;
//! * the warm pool renders the bytes of fresh `RevSimulator::new` runs;
//! * the audit over the shared build cache renders the bytes of an audit
//!   over freshly analyzed CFGs and fresh `RevSimulator::new` tables.
//!
//! (Campaign-JSON determinism across runs and jobs lives next to the
//! engine in `crates/rev-chaos/tests/chaos.rs`; the self-modifying-code
//! invalidation contract lives in `crates/rev-core/tests/smc.rs`.)

use rev_bench::{
    run_rev_only, snapshot_from_runs, sweep_configs_pooled, BenchOptions, ProfileRun, ShardSpec,
    SweepConfig, SweepOutcome, WarmPool,
};
use rev_core::{RevConfig, RevSimulator, Session, SessionStatus, ValidationMode};
use rev_lint::audit::{audit_tables, AuditOutcome, AUDIT_MODES};
use rev_prog::{Cfg, Program};
use rev_trace::{fnv1a64, parallel_map, MetricRegistry, MetricSink, Snapshot, CKPT_SCHEMA};
use rev_workloads::generate;

/// A monolithic sweep of `configs` over a pool of its own.
fn sweep(opts: &BenchOptions, configs: &[SweepConfig]) -> Vec<ProfileRun> {
    match sweep_configs_pooled(opts, configs, &WarmPool::new(None)) {
        SweepOutcome::Complete(runs) => runs,
        SweepOutcome::Partial { .. } => panic!("a monolithic sweep assembles every item"),
    }
}

/// The audit of `program` rebuilt from scratch, bypassing the build
/// cache: each module analyzed anew (generated programs are one module,
/// so there is no cross-module linkage to stitch) and each mode's tables
/// read from a fresh `RevSimulator::new`.
fn fresh_audit(program: &Program, base: &RevConfig) -> AuditOutcome {
    assert_eq!(program.modules().len(), 1, "generated programs are one module");
    let cfgs: Vec<Cfg> =
        program.modules().iter().map(|m| Cfg::analyze(m, base.bb_limits).unwrap()).collect();
    let sims: Vec<(ValidationMode, RevSimulator)> = AUDIT_MODES
        .iter()
        .map(|&mode| (mode, RevSimulator::new(program.clone(), base.with_mode(mode)).unwrap()))
        .collect();
    let tables: Vec<_> =
        sims.iter().map(|(mode, sim)| (*mode, sim.monitor().sag().tables())).collect();
    audit_tables(&cfgs, &tables, base)
}

/// The audit over the shared build cache — one analysis and three table
/// builds per program, shared with the sweep — renders the `audit.*`
/// metrics and the findings of a fresh build, for all 18 quick profiles
/// under all three modes.
#[test]
fn cached_audit_matches_a_fresh_build() {
    let profiles = BenchOptions { scale: 0.05, ..BenchOptions::default() }.profiles();
    assert_eq!(profiles.len(), 18, "the paper's full profile set");
    let base = RevConfig::paper_default();
    parallel_map(rev_bench::default_jobs(), &profiles, |_, profile| {
        let program = generate(profile);
        let fresh = fresh_audit(&program, &base);
        let cached = rev_lint::audit_program(&program, &base);
        assert_eq!(cached.modes.len(), 3, "{}: every mode audited", profile.name);
        assert_eq!(
            cached.metrics().to_json().render(),
            fresh.metrics().to_json().render(),
            "{}: audit metrics",
            profile.name
        );
        assert_eq!(
            cached.report.render_json(),
            fresh.report.render_json(),
            "{}: findings",
            profile.name
        );
    });
}

fn tiny_opts() -> BenchOptions {
    BenchOptions {
        instructions: 10_000,
        warmup: 2_000,
        scale: 0.05,
        quiet: true,
        ..BenchOptions::default()
    }
}

/// The full-profile sweep renders the same snapshot bytes serially and
/// fanned out — the work plan is fixed before any worker runs, results
/// are reassembled in request order, and every registry serializes with
/// sorted keys.
#[test]
fn snapshot_is_byte_identical_across_jobs() {
    let configs = [SweepConfig::new("REV-32K", RevConfig::paper_default())];
    let render = |jobs: usize| {
        let mut opts = tiny_opts();
        opts.jobs = jobs;
        let runs = sweep(&opts, &configs);
        assert_eq!(runs.len(), opts.profiles().len(), "every profile must be swept");
        let mut snap = Snapshot::new();
        snapshot_from_runs(&mut snap, &opts, &configs, &runs);
        snap.render()
    };
    let serial = render(1);
    let fanned = render(4);
    assert_eq!(tiny_opts().profiles().len(), 18, "the paper's full profile set");
    assert_eq!(serial, fanned, "--jobs must never change a rendered byte");
}

/// Attaching the TraceBus (ring buffer, every tap site live) changes no
/// exported metric: same outcome, same cpu/rev/mem registries, bit for
/// bit, while the bus demonstrably carries events.
#[test]
fn tracing_does_not_perturb_measurements() {
    let opts = tiny_opts();
    for name in ["mcf", "gobmk"] {
        let sel = BenchOptions { benches: vec![name.to_string()], ..tiny_opts() };
        let profile = sel.profiles().remove(0);
        let registry_of = |traced: bool| {
            let mut sim =
                RevSimulator::new(generate(&profile), RevConfig::paper_default()).unwrap();
            let bus = traced.then(|| sim.enable_tracing(4096));
            sim.warmup(opts.warmup);
            let report = sim.run(opts.instructions);
            if let Some(bus) = bus {
                assert!(!bus.drain().is_empty(), "{name}: the bus must carry events");
            }
            let mut reg = MetricRegistry::new();
            report.cpu.export_metrics(&mut reg);
            report.rev.export_metrics(&mut reg);
            report.mem.export_metrics(&mut reg);
            (format!("{:?}", report.outcome), reg)
        };
        let (out_plain, reg_plain) = registry_of(false);
        let (out_traced, reg_traced) = registry_of(true);
        assert_eq!(out_plain, out_traced, "{name}: outcome must not depend on tracing");
        assert_eq!(reg_plain, reg_traced, "{name}: tracing must not move a single metric");
    }
}

/// Session slicing is exact: stepping a suspendable `Session` in budget
/// slices of 1, 7, 1000 or `∞` committed instructions produces, for
/// every one of the 18 workload profiles, the same outcome and
/// byte-identical cpu/rev/mem metric registries as one monolithic
/// `RevSimulator::run` call. This is the enabling property of the
/// `rev-serve` gateway (many interleaved sessions per worker thread) —
/// see `DESIGN.md` §12 for why a yield cannot perturb any counter.
#[test]
fn session_slicing_matches_monolithic_across_all_profiles() {
    let opts = tiny_opts();
    let profiles = opts.profiles();
    assert_eq!(profiles.len(), 18, "the paper's full profile set");
    let reports = parallel_map(rev_bench::default_jobs(), &profiles, |_, profile| {
        let fresh = || {
            let mut sim = RevSimulator::new(generate(profile), RevConfig::paper_default()).unwrap();
            sim.warmup(opts.warmup);
            sim
        };
        let fingerprint = |report: &rev_core::RevReport| {
            let mut reg = MetricRegistry::new();
            report.cpu.export_metrics(&mut reg);
            report.rev.export_metrics(&mut reg);
            report.mem.export_metrics(&mut reg);
            (format!("{:?}", report.outcome), reg.to_json().render())
        };
        let monolithic = fingerprint(&fresh().run(opts.instructions));
        let sliced: Vec<_> = [1, 7, 1000, u64::MAX]
            .into_iter()
            .map(|budget| {
                let mut session = Session::new(fresh(), opts.instructions);
                let report = loop {
                    match session.run(budget) {
                        SessionStatus::Yielded { committed } => {
                            assert!(
                                committed < opts.instructions,
                                "{}: a yield past the target",
                                profile.name
                            );
                        }
                        SessionStatus::Done(report) => break report,
                    }
                };
                (budget, fingerprint(&report))
            })
            .collect();
        (profile.name, monolithic, sliced)
    });
    for (name, monolithic, sliced) in reports {
        for (budget, got) in sliced {
            assert_eq!(
                got, monolithic,
                "{name}: budget={budget} slicing must not move a rendered metric byte"
            );
        }
    }
}

/// Checkpoint/restore is exact for every one of the 18 workload
/// profiles: suspending a warmed session at a budget boundary, sealing
/// it into a `CKPT_SCHEMA` envelope, restoring it into a *cold* fresh
/// simulator (warmup is not re-run — the warmed state travels inside
/// the envelope) and finishing produces the same outcome and
/// byte-identical cpu/rev/mem metric registries as one monolithic run.
/// Re-checkpointing the restored session reproduces the envelope byte
/// for byte. This is the property that lets `rev-serve` resume a
/// crashed job from its last checkpoint without moving a verdict byte.
/// Each envelope's `(len, fnv1a64)` must also match [`GOLDEN_ENVELOPES`],
/// which pins the `CKPT_SCHEMA` bytes themselves: a layout change made the
/// same way on the save and restore sides passes every round trip above
/// but fails here.
#[test]
fn checkpoint_restore_matches_monolithic_across_all_profiles() {
    let opts = tiny_opts();
    let profiles = opts.profiles();
    assert_eq!(profiles.len(), 18, "the paper's full profile set");
    let reports = parallel_map(rev_bench::default_jobs(), &profiles, |_, profile| {
        let warmed = || {
            let mut sim = RevSimulator::new(generate(profile), RevConfig::paper_default()).unwrap();
            sim.warmup(opts.warmup);
            sim
        };
        let fingerprint = |report: &rev_core::RevReport| {
            let mut reg = MetricRegistry::new();
            report.cpu.export_metrics(&mut reg);
            report.rev.export_metrics(&mut reg);
            report.mem.export_metrics(&mut reg);
            (format!("{:?}", report.outcome), reg.to_json().render())
        };
        let monolithic = fingerprint(&warmed().run(opts.instructions));
        // Suspend a third of the way in, seal, restore cold, finish.
        let mut session = Session::new(warmed(), opts.instructions);
        let mut sealed = None;
        let report = match session.run(opts.instructions / 3) {
            SessionStatus::Done(report) => report, // profile ended early: nothing to suspend
            SessionStatus::Yielded { .. } => {
                let envelope = session.checkpoint(profile.name.as_bytes()).unwrap();
                sealed = Some((envelope.len(), fnv1a64(&envelope)));
                assert_eq!(
                    Session::recipe(&envelope).unwrap(),
                    profile.name.as_bytes(),
                    "{}: recipe must round-trip",
                    profile.name
                );
                drop(session);
                let cold =
                    RevSimulator::new(generate(profile), RevConfig::paper_default()).unwrap();
                let restored = Session::restore(cold, &envelope).unwrap();
                assert_eq!(
                    restored.checkpoint(profile.name.as_bytes()).unwrap(),
                    envelope,
                    "{}: re-checkpoint must be byte-identical",
                    profile.name
                );
                let mut restored = restored;
                loop {
                    if let SessionStatus::Done(report) = restored.run(1000) {
                        break report;
                    }
                }
            }
        };
        (profile.name, monolithic, fingerprint(&report), sealed)
    });
    let mut envelopes = Vec::new();
    for (name, monolithic, restored, sealed) in reports {
        assert_eq!(
            restored, monolithic,
            "{name}: checkpoint/restore must not move a rendered metric byte"
        );
        envelopes.push((name, sealed));
    }
    assert_eq!(envelopes, GOLDEN_ENVELOPES, "{CKPT_SCHEMA} envelope bytes moved");
}

/// `(len, fnv1a64)` of each profile's envelope in
/// [`checkpoint_restore_matches_monolithic_across_all_profiles`]
/// (`None`: the profile ended before the suspension point).
const GOLDEN_ENVELOPES: [(&str, Option<(usize, u64)>); 18] = [
    ("astar", Some((97_970, 0x62fc484e0bdd33fa))),
    ("bzip2", Some((76_880, 0x530c1aa182effaaa))),
    ("cactusADM", Some((77_489, 0x6869ee8a6469e225))),
    ("calculix", Some((73_857, 0x17ce5acf8a5901ae))),
    ("dealII", Some((81_693, 0x49f695d15fb5bd9b))),
    ("gamess", Some((88_146, 0x7a3b93f8fbbe9867))),
    ("gcc", Some((94_886, 0x3917240ffbc532f8))),
    ("gobmk", Some((105_453, 0x712085a745036d37))),
    ("h264ref", Some((73_144, 0x54b656aa81431c8a))),
    ("hmmer", Some((76_797, 0xd49021d6cdef7ac1))),
    ("lbm", Some((66_052, 0xf981095a7e520a1a))),
    ("leslie3d", Some((60_715, 0x5cb0f50a569c0926))),
    ("libquantum", Some((74_934, 0x58f2857a289fc2b3))),
    ("mcf", Some((100_616, 0x0649d9e170041983))),
    ("milc", Some((74_986, 0xc3de03ab610a72bc))),
    ("namd", Some((83_087, 0x2f79840e49a2fed4))),
    ("sjeng", Some((94_140, 0x18caceb087558500))),
    ("soplex", Some((89_979, 0xeed83d57c737f416))),
];

/// A per-test scratch directory under the system temp dir, wiped on
/// entry so a stale run never leaks state in.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rev-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The warm-start checkpoint pool is a pure scheduling optimization:
/// sweeping all 18 profiles through the pool renders exactly the
/// snapshot bytes of a reference built here from fresh simulators
/// (`RevSimulator::new` per item, `run_rev_only` per REV slot). Two SC
/// sizes share one program generation and one table build per profile,
/// none of which may move a byte. The table-sizes section of
/// `reproduce_all` reads `WarmPool::table_stats`, so those must equal a
/// fresh simulator's `table_stats()` in every validation mode.
#[test]
fn pooled_sweep_renders_identical_snapshot() {
    let configs = [
        SweepConfig::new("REV-32K", RevConfig::paper_default()),
        SweepConfig::new("REV-64K", RevConfig::paper_64k()),
    ];
    let opts = tiny_opts();
    let render = |runs: &[ProfileRun]| {
        assert_eq!(runs.len(), opts.profiles().len(), "every profile must be swept");
        let mut snap = Snapshot::new();
        snapshot_from_runs(&mut snap, &opts, &configs, runs);
        snap.render()
    };
    let pool = WarmPool::new(None);
    let SweepOutcome::Complete(pooled) = sweep_configs_pooled(&opts, &configs, &pool) else {
        panic!("a monolithic sweep assembles every item")
    };
    let profiles = opts.profiles();
    assert_eq!(profiles.len(), 18, "the paper's full profile set");
    let fresh = parallel_map(rev_bench::default_jobs(), &profiles, |_, profile| {
        let program = generate(profile);
        let cfg = Cfg::analyze(&program.modules()[0], configs[0].config.bb_limits).unwrap().stats();
        let audit = fresh_audit(&program, &configs[0].config).metrics();
        let sim = RevSimulator::new(program, configs[0].config).unwrap();
        let base = sim.run_baseline_with_warmup(opts.warmup, opts.instructions);
        let revs = configs.iter().map(|c| run_rev_only(profile, &opts, c.config)).collect();
        for mode in [ValidationMode::Standard, ValidationMode::Aggressive, ValidationMode::CfiOnly]
        {
            let config = RevConfig::paper_default().with_mode(mode);
            let fresh = RevSimulator::new(generate(profile), config).unwrap();
            assert_eq!(
                pool.table_stats(profile, &config),
                fresh.table_stats(),
                "{} {mode:?}: pooled table stats must match a fresh build",
                profile.name
            );
        }
        let table = sim.table_stats()[0];
        ProfileRun { name: profile.name.to_string(), base, revs, table, cfg, audit }
    });
    assert_eq!(render(&pooled), render(&fresh), "the warm pool must never move a rendered byte");
}

/// Sharded sweeps merge byte-identically: partitioning the 18-profile
/// work-item list across 2 (and then 3) independent "processes" — each
/// with its own pool, sealing into a shared `--shard-dir` — and merging
/// with `--resume` renders exactly the monolithic snapshot. The sealed
/// items are shard-agnostic, so a 3-way split resumes seamlessly over a
/// 2-way split's seals, and a corrupted seal is recomputed fail-open.
#[test]
fn sharded_sweep_merges_byte_identical() {
    let configs = [SweepConfig::new("REV-32K", RevConfig::paper_default())];
    let monolithic = {
        let opts = tiny_opts();
        let runs = sweep(&opts, &configs);
        let mut snap = Snapshot::new();
        snapshot_from_runs(&mut snap, &opts, &configs, &runs);
        snap.render()
    };
    let dir = scratch_dir("shards");
    let dir_s = dir.to_string_lossy().into_owned();
    let shard_opts = |spec: Option<ShardSpec>, resume: bool| BenchOptions {
        shard: spec,
        shard_dir: Some(dir_s.clone()),
        resume,
        ..tiny_opts()
    };
    for index in 1..=2 {
        let opts = shard_opts(Some(ShardSpec { index, total: 2 }), false);
        match sweep_configs_pooled(&opts, &configs, &WarmPool::new(None)) {
            SweepOutcome::Partial { computed, resumed, skipped } => {
                assert!(computed > 0 && skipped > 0, "a 2-way shard owns a strict subset");
                assert_eq!(resumed, 0, "nothing to resume on first pass");
            }
            SweepOutcome::Complete(_) => panic!("a 2-way shard run cannot be complete"),
        }
    }
    let items = || {
        std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "item"))
            .collect::<Vec<_>>()
    };
    let sealed = items();
    assert_eq!(sealed.len(), 18 * 2, "every (profile, slot) item must be sealed");
    // Corrupt one seal: the merge must reject and recompute it, still
    // rendering monolithic bytes.
    let mut bytes = std::fs::read(&sealed[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&sealed[0], &bytes).unwrap();
    let merged = {
        let opts = shard_opts(None, true);
        let SweepOutcome::Complete(runs) =
            sweep_configs_pooled(&opts, &configs, &WarmPool::new(None))
        else {
            panic!("a merge run assembles every item")
        };
        let mut snap = Snapshot::new();
        snapshot_from_runs(&mut snap, &opts, &configs, &runs);
        snap.render()
    };
    assert_eq!(merged, monolithic, "a 2-way shard merge must render monolithic bytes");
    // 3-way split over the same dir: every item is already sealed (the
    // merge resealed the corrupted one), so all three shards resume
    // without recomputing and a final merge still matches.
    for index in 1..=3 {
        let opts = shard_opts(Some(ShardSpec { index, total: 3 }), true);
        match sweep_configs_pooled(&opts, &configs, &WarmPool::new(None)) {
            SweepOutcome::Complete(_) => {} // every item loaded from seals
            SweepOutcome::Partial { computed, .. } => {
                assert_eq!(computed, 0, "shard {index}/3 must not recompute sealed items");
            }
        }
    }
    let remerged = {
        let opts = shard_opts(None, true);
        let SweepOutcome::Complete(runs) =
            sweep_configs_pooled(&opts, &configs, &WarmPool::new(None))
        else {
            panic!("a merge run assembles every item")
        };
        let mut snap = Snapshot::new();
        snapshot_from_runs(&mut snap, &opts, &configs, &runs);
        snap.render()
    };
    assert_eq!(remerged, monolithic, "a 3-way resume merge must render monolithic bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted `--ckpt-pool` disk entry can cost time, never
/// correctness: the pool detects it (checksum / recipe / fingerprint),
/// counts `pool.corrupt`, rebuilds fail-open, and the rebuilt simulator
/// reproduces the same measurements as the original build and as a
/// valid disk hit.
#[test]
fn corrupt_disk_pool_entry_is_rebuilt_fail_open() {
    let dir = scratch_dir("ckpt-pool");
    let dir_s = dir.to_string_lossy().into_owned();
    let opts = BenchOptions { benches: vec!["mcf".to_string()], ..tiny_opts() };
    let profile = opts.profiles().remove(0);
    let config = RevConfig::paper_default();
    let run = |pool: &WarmPool| {
        let (mut sim, fetch) = pool.warm_fork(&profile, &config, opts.warmup);
        (sim.run(opts.instructions).cpu.cycles, fetch)
    };
    let first = WarmPool::new(Some(&dir_s));
    let (cycles_built, fetch_built) = run(&first);
    assert!(!fetch_built.hit, "an empty disk cache cannot hit");
    let second = WarmPool::new(Some(&dir_s));
    let (cycles_disk, fetch_disk) = run(&second);
    assert!(fetch_disk.hit && !fetch_disk.corrupt, "a fresh process must hit the disk entry");
    assert_eq!(cycles_built, cycles_disk, "a disk restore must be indistinguishable");
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .expect("one warm entry on disk");
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&entry, &bytes).unwrap();
    let third = WarmPool::new(Some(&dir_s));
    let (cycles_rebuilt, fetch_rebuilt) = run(&third);
    assert!(!fetch_rebuilt.hit && fetch_rebuilt.corrupt, "a corrupt entry must not be trusted");
    assert_eq!(third.stats().corrupt, 1, "the rejection must be counted");
    assert_eq!(cycles_built, cycles_rebuilt, "the rebuild must reproduce the measurements");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The superblock replay layer is a pure simulator fast path: rendering
/// the full 18-profile sweep with `superblocks` off produces exactly the
/// bytes of the default run. (The SMC / DMA / retry invalidation
/// contracts live in `crates/rev-core/tests/smc.rs` and
/// `retry_bound.rs`.)
#[test]
fn superblocks_off_renders_identical_snapshot() {
    let configs = [SweepConfig::new("REV-32K", RevConfig::paper_default())];
    let render = |superblocks: bool| {
        let mut opts = tiny_opts();
        opts.superblocks = superblocks;
        let runs = sweep(&opts, &configs);
        assert_eq!(runs.len(), opts.profiles().len(), "every profile must be swept");
        let mut snap = Snapshot::new();
        snapshot_from_runs(&mut snap, &opts, &configs, &runs);
        snap.render()
    };
    assert_eq!(render(true), render(false), "superblock replay must never move a rendered byte");
}
