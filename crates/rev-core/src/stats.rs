//! REV-specific run statistics.

use crate::sc::ScStats;
use crate::shadow::ShadowStats;
use rev_cpu::Violation;
use rev_trace::{Histogram, MetricRegistry, MetricSink};

/// Counters accumulated by the REV monitor over one run.
#[derive(Debug, Clone, Default)]
pub struct RevStats {
    /// Signature-cache traffic (Fig. 10).
    pub sc: ScStats,
    /// Basic blocks validated successfully.
    pub validations: u64,
    /// Digest comparisons performed (chain candidates examined).
    pub digest_checks: u64,
    /// Spill-record fetches (partial-miss services).
    pub spill_fetches: u64,
    /// Table-walk memory touches on complete misses.
    pub fill_touches: u64,
    /// Commit-time SC misses (entry evicted between fetch and commit, or
    /// never probed because the terminator was discovered late).
    pub commit_misses: u64,
    /// Cross-module SAG refill exceptions.
    pub sag_refills: u64,
    /// Deferred stores released after validation.
    pub stores_released: u64,
    /// Deferred stores discarded by a violation (taint contained).
    pub stores_discarded: u64,
    /// Peak deferred-buffer occupancy.
    pub defer_peak: usize,
    /// Deferred-buffer occupancy distribution, sampled at each store push
    /// (sizes the hardware buffer beyond the single peak number).
    pub defer_occupancy: Histogram,
    /// SC fill latency distribution in cycles (table-walk start to entry
    /// ready), the delay an unlucky commit-time miss exposes.
    pub fill_latency: Histogram,
    /// Artificial BB splits applied by the front end.
    pub artificial_splits: u64,
    /// Return-latch validations performed (delayed return checks).
    pub return_checks: u64,
    /// Stall cycles charged while waiting for the CHG hash.
    pub stall_chg: u64,
    /// Stall cycles charged while waiting for an SC fill.
    pub stall_fill: u64,
    /// Stall cycles charged while waiting for spill fetches.
    pub stall_spill: u64,
    /// Shadow-page counters (zero unless `Containment::ShadowPages`).
    pub shadow: ShadowStats,
    /// Signature-line re-fetches after a failed integrity check (the
    /// transient-fault recovery path, `RevConfig::sigline_retries`).
    pub sigline_retries: u64,
    /// Integrity failures that healed on a re-fetch (the line validated
    /// after re-reading — a transient fault, not a tamper).
    pub sigline_recoveries: u64,
    /// Decoded-BB cache hits (body hash served from the memo).
    ///
    /// The `bb_cache_*` trio is simulator-performance instrumentation,
    /// not modeled-hardware behavior, so it is *not* exported through
    /// [`MetricSink`] (which feeds the deterministic `rev.*` snapshots);
    /// `rev-bench`'s `tests/host_work.rs` pins it against
    /// `baselines/host_work_quick.txt`.
    pub bb_cache_hits: u64,
    /// Decoded-BB cache misses (body hashed by the CHG model).
    pub bb_cache_misses: u64,
    /// Code-generation bumps (cache-wide invalidations: code writes,
    /// re-enables, table swaps).
    pub bb_cache_invalidations: u64,
    /// Superblocks formed (a stable BB validation promoted to a memo).
    ///
    /// Like `bb_cache_*`, the `sb_*` trio and `chg_lanes` are
    /// simulator-performance instrumentation, not modeled-hardware
    /// behavior: they never go through [`MetricSink`] (the deterministic
    /// `rev.*` snapshots must be byte-identical with superblocks on or
    /// off); the same host-work gate pins them.
    pub sb_formed: u64,
    /// Superblock replays (commits validated by the memo fast path).
    pub sb_hits: u64,
    /// Superblock memos discarded as stale (generation bump, SC miss,
    /// target change, or explicit flush).
    pub sb_flushes: u64,
    /// CHG body hashes computed through the multi-lane (4x) hasher.
    pub chg_lanes: u64,
    /// The violation that ended the run, if any.
    pub violation: Option<Violation>,
}

impl RevStats {
    /// Total SC misses (partial + complete).
    pub fn sc_misses(&self) -> u64 {
        self.sc.misses()
    }
}

// Every counter and both distributions, exactly. The terminal `violation`
// is not written: checkpoints are only taken from live (non-violated)
// sessions, so a restored run always resumes with it unset —
// `Session::checkpoint` enforces the precondition.
rev_trace::ckpt_fields!(Ckpt for RevStats {
    sc, validations, digest_checks, spill_fetches, fill_touches, commit_misses, sag_refills,
    stores_released, stores_discarded, defer_peak, artificial_splits, return_checks, stall_chg,
    stall_fill, stall_spill, shadow, sigline_retries, sigline_recoveries, bb_cache_hits,
    bb_cache_misses, bb_cache_invalidations, sb_formed, sb_hits, sb_flushes, chg_lanes,
    defer_occupancy, fill_latency,
    ..RevStats::default()
});

impl MetricSink for RevStats {
    fn export_metrics(&self, reg: &mut MetricRegistry) {
        reg.counter("rev.validations", self.validations);
        reg.counter("rev.digest_checks", self.digest_checks);
        reg.counter("rev.return_checks", self.return_checks);
        reg.counter("rev.sc.hits", self.sc.hits);
        reg.counter("rev.sc.partial_misses", self.sc.partial_misses);
        reg.counter("rev.sc.complete_misses", self.sc.complete_misses);
        reg.counter("rev.sc.evictions", self.sc.evictions);
        reg.gauge("rev.sc.miss_rate", self.sc.miss_rate());
        reg.counter("rev.sc.commit_misses", self.commit_misses);
        reg.counter("rev.fill.touches", self.fill_touches);
        reg.histogram("rev.fill.latency", self.fill_latency.clone());
        reg.counter("rev.spill_fetches", self.spill_fetches);
        reg.counter("rev.sag_refills", self.sag_refills);
        reg.counter("rev.stores.released", self.stores_released);
        reg.counter("rev.stores.discarded", self.stores_discarded);
        reg.counter("rev.defer.peak", self.defer_peak as u64);
        reg.histogram("rev.defer.occupancy", self.defer_occupancy.clone());
        reg.counter("rev.artificial_splits", self.artificial_splits);
        reg.counter("rev.sigline.retries", self.sigline_retries);
        reg.counter("rev.sigline.recoveries", self.sigline_recoveries);
        reg.counter("rev.stall.chg", self.stall_chg);
        reg.counter("rev.stall.fill", self.stall_fill);
        reg.counter("rev.stall.spill", self.stall_spill);
        reg.counter("rev.shadow.pages_created", self.shadow.pages_created);
        reg.counter("rev.shadow.stores_buffered", self.shadow.stores_buffered);
        reg.counter("rev.shadow.pages_promoted", self.shadow.pages_promoted);
        reg.counter("rev.shadow.pages_discarded", self.shadow.pages_discarded);
    }
}
