//! Every counter travels: each field of each `stats!` struct, set to a
//! distinct nonzero value, survives a checkpoint round-trip and reaches
//! the registry under its documented name, or, for a host-work counter,
//! the `HostWork` iterator and never the registry. A field dropped from
//! either path fails here.

use rev_core::{RevStats, ScStats, ShadowStats};
use rev_cpu::{CpuStats, InstrMix, Violation, ViolationKind};
use rev_prog::CfgStats;
use rev_sigtable::TableStats;
use rev_trace::{
    Ckpt, CkptReader, CkptWriter, Histogram, HostWork, MetricRegistry, MetricSink, MetricValue,
};
use std::fmt::Debug;

/// `value` after a checkpoint round-trip, and the registry it exports.
fn travel<T: Ckpt + MetricSink>(value: &T) -> (T, MetricRegistry) {
    let mut w = CkptWriter::new();
    value.save(&mut w);
    let data = w.finish();
    let mut r = CkptReader::new(&data).unwrap();
    let back = T::load(&mut r).unwrap();
    r.finish().unwrap();
    let mut reg = MetricRegistry::new();
    value.export_metrics(&mut reg);
    (back, reg)
}

/// Asserts the round-trip kept `value`, that the registry holds exactly
/// `exported` plus the `derived` names, and that the host-work iterator
/// yields exactly `host`, none of it exported.
fn assert_travels<T: Ckpt + MetricSink + HostWork + PartialEq + Debug>(
    value: &T,
    exported: &[(&str, MetricValue)],
    derived: &[&str],
    host: &[(&str, u64)],
) {
    let (back, reg) = travel(value);
    assert_eq!(&back, value, "a checkpoint round-trip changed a field");
    for (name, expected) in exported {
        assert_eq!(reg.get(name), Some(expected), "metric {name}");
    }
    let mut names: Vec<&str> =
        exported.iter().map(|(n, _)| *n).chain(derived.iter().copied()).collect();
    names.sort_unstable();
    assert_eq!(reg.names().collect::<Vec<_>>(), names, "exported names");
    assert_eq!(value.host_work().collect::<Vec<_>>(), host, "host-work counters");
    for (name, _) in host {
        assert!(reg.get(name).is_none(), "host-work counter {name} exported");
    }
}

fn counter(name: &str, n: u64) -> (&str, MetricValue) {
    (name, MetricValue::Counter(n))
}

fn histogram(value: u64) -> Histogram {
    let mut h = Histogram::new();
    h.record(value);
    h
}

#[test]
fn every_rev_counter_travels() {
    let stats = RevStats {
        sc: ScStats { hits: 1, partial_misses: 2, complete_misses: 3, evictions: 4 },
        validations: 5,
        digest_checks: 6,
        spill_fetches: 7,
        fill_touches: 8,
        commit_misses: 9,
        sag_refills: 10,
        stores_released: 11,
        stores_discarded: 12,
        defer_peak: 13,
        artificial_splits: 14,
        return_checks: 15,
        stall_chg: 16,
        stall_fill: 17,
        stall_spill: 18,
        shadow: ShadowStats {
            pages_created: 19,
            stores_buffered: 20,
            pages_promoted: 21,
            pages_discarded: 22,
        },
        sigline_retries: 23,
        sigline_recoveries: 24,
        bb_cache_hits: 25,
        bb_cache_misses: 26,
        bb_cache_invalidations: 27,
        sb_formed: 28,
        sb_hits: 29,
        sb_flushes: 30,
        chg_lanes: 31,
        defer_occupancy: histogram(32),
        fill_latency: histogram(33),
        violation: None,
    };
    let hist = |v| MetricValue::Histogram(Box::new(histogram(v)));
    assert_travels(
        &stats,
        &[
            counter("rev.sc.hits", 1),
            counter("rev.sc.partial_misses", 2),
            counter("rev.sc.complete_misses", 3),
            counter("rev.sc.evictions", 4),
            counter("rev.validations", 5),
            counter("rev.digest_checks", 6),
            counter("rev.spill_fetches", 7),
            counter("rev.fill.touches", 8),
            counter("rev.sc.commit_misses", 9),
            counter("rev.sag_refills", 10),
            counter("rev.stores.released", 11),
            counter("rev.stores.discarded", 12),
            counter("rev.defer.peak", 13),
            counter("rev.artificial_splits", 14),
            counter("rev.return_checks", 15),
            counter("rev.stall.chg", 16),
            counter("rev.stall.fill", 17),
            counter("rev.stall.spill", 18),
            counter("rev.shadow.pages_created", 19),
            counter("rev.shadow.stores_buffered", 20),
            counter("rev.shadow.pages_promoted", 21),
            counter("rev.shadow.pages_discarded", 22),
            counter("rev.sigline.retries", 23),
            counter("rev.sigline.recoveries", 24),
            ("rev.defer.occupancy", hist(32)),
            ("rev.fill.latency", hist(33)),
        ],
        &["rev.sc.miss_rate"],
        &[
            ("bb_hits", 25),
            ("bb_misses", 26),
            ("bb_inval", 27),
            ("sb_formed", 28),
            ("sb_hits", 29),
            ("sb_flushes", 30),
            ("chg_lanes", 31),
        ],
    );
}

/// The terminal violation is excluded from the checkpoint by name: a
/// restored run resumes with it unset.
#[test]
fn the_violation_does_not_travel() {
    let violation = Violation {
        kind: ViolationKind::HashMismatch,
        bb_addr: 0x1000,
        actual_target: 0x2000,
        cycle: 7,
    };
    let stats = RevStats { validations: 3, violation: Some(violation), ..RevStats::default() };
    let (back, _) = travel(&stats);
    assert_eq!(back, RevStats { violation: None, ..stats });
}

#[test]
fn every_cpu_counter_travels() {
    let stats = CpuStats {
        cycles: 1,
        committed_instrs: 2,
        committed_branches: 3,
        committed_cond_branches: 4,
        mispredicts: 5,
        committed_computed: 6,
        wrong_path_fetched: 7,
        validation_stall_cycles: 8,
        defer_full_stall_cycles: 9,
        mix: InstrMix { int_alu: 10, fp: 11, loads: 12, stores: 13, branches: 14, other: 15 },
        unique_branch_addrs: [0x40, 0x80, 0xc0].into_iter().collect(),
    };
    assert_travels(
        &stats,
        &[
            counter("cpu.cycles", 1),
            counter("cpu.instructions", 2),
            counter("cpu.branches.committed", 3),
            counter("cpu.branches.conditional", 4),
            counter("cpu.branches.mispredicts", 5),
            counter("cpu.branches.computed", 6),
            counter("cpu.wrong_path_fetched", 7),
            counter("cpu.stall.validation", 8),
            counter("cpu.stall.defer_full", 9),
            counter("cpu.mix.int_alu", 10),
            counter("cpu.mix.fp", 11),
            counter("cpu.mix.loads", 12),
            counter("cpu.mix.stores", 13),
            counter("cpu.mix.branches", 14),
            counter("cpu.mix.other", 15),
            counter("cpu.branches.unique", 3),
        ],
        &["cpu.ipc", "cpu.branches.mispredict_rate"],
        &[],
    );
}

#[test]
fn every_table_and_cfg_statistic_travels() {
    let table = TableStats { primaries: 1, spills: 2, slots: 3, image_bytes: 4, code_bytes: 5 };
    assert_travels(
        &table,
        &[
            counter("table.primaries", 1),
            counter("table.spills", 2),
            counter("table.slots", 3),
            counter("table.image_bytes", 4),
            counter("table.code_bytes", 5),
        ],
        &["table.ratio_to_code"],
        &[],
    );
    let cfg = CfgStats {
        blocks: 1,
        avg_instrs: 2.5,
        avg_successors: 3.5,
        computed_terminators: 4,
        code_bytes: 5,
    };
    assert_travels(
        &cfg,
        &[
            counter("cfg.blocks", 1),
            ("cfg.avg_instrs", MetricValue::Gauge(2.5)),
            ("cfg.avg_successors", MetricValue::Gauge(3.5)),
            counter("cfg.computed_terminators", 4),
            counter("cfg.code_bytes", 5),
        ],
        &[],
        &[],
    );
}
