//! REV-specific run statistics.

use crate::sc::ScStats;
use crate::shadow::ShadowStats;
use rev_cpu::Violation;
use rev_trace::Histogram;

rev_trace::stats! {
    /// Counters accumulated by the REV monitor over one run. The `host`
    /// counters measure the simulator, not the modeled hardware (see
    /// [`rev_trace::HostWork`]). The terminal `violation` is not
    /// checkpointed: only live sessions are (`Session::checkpoint`).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct RevStats {
        /// Signature-cache traffic (Fig. 10).
        pub sc: ScStats => nested,
        /// Basic blocks validated successfully.
        pub validations: u64 => "rev.validations",
        /// Digest comparisons performed (chain candidates examined).
        pub digest_checks: u64 => "rev.digest_checks",
        /// Spill-record fetches (partial-miss services).
        pub spill_fetches: u64 => "rev.spill_fetches",
        /// Table-walk memory touches on complete misses.
        pub fill_touches: u64 => "rev.fill.touches",
        /// Commit-time SC misses (entry evicted between fetch and commit, or
        /// never probed because the terminator was discovered late).
        pub commit_misses: u64 => "rev.sc.commit_misses",
        /// Cross-module SAG refill exceptions.
        pub sag_refills: u64 => "rev.sag_refills",
        /// Deferred stores released after validation.
        pub stores_released: u64 => "rev.stores.released",
        /// Deferred stores discarded by a violation (taint contained).
        pub stores_discarded: u64 => "rev.stores.discarded",
        /// Peak deferred-buffer occupancy.
        pub defer_peak: usize => "rev.defer.peak",
        /// Artificial BB splits applied by the front end.
        pub artificial_splits: u64 => "rev.artificial_splits",
        /// Return-latch validations performed (delayed return checks).
        pub return_checks: u64 => "rev.return_checks",
        /// Stall cycles charged while waiting for the CHG hash.
        pub stall_chg: u64 => "rev.stall.chg",
        /// Stall cycles charged while waiting for an SC fill.
        pub stall_fill: u64 => "rev.stall.fill",
        /// Stall cycles charged while waiting for spill fetches.
        pub stall_spill: u64 => "rev.stall.spill",
        /// Shadow-page counters (zero unless `Containment::ShadowPages`).
        pub shadow: ShadowStats => nested,
        /// Signature-line re-fetches after a failed integrity check (the
        /// transient-fault recovery path, `RevConfig::sigline_retries`).
        pub sigline_retries: u64 => "rev.sigline.retries",
        /// Integrity failures that healed on a re-fetch (the line validated
        /// after re-reading — a transient fault, not a tamper).
        pub sigline_recoveries: u64 => "rev.sigline.recoveries",
        /// Decoded-BB cache hits (body hash served from the memo).
        pub bb_cache_hits: u64 => host "bb_hits",
        /// Decoded-BB cache misses (body hashed by the CHG model).
        pub bb_cache_misses: u64 => host "bb_misses",
        /// Code-generation bumps (cache-wide invalidations: code writes,
        /// re-enables, table swaps).
        pub bb_cache_invalidations: u64 => host "bb_inval",
        /// Superblocks formed (a stable BB validation promoted to a memo).
        pub sb_formed: u64 => host "sb_formed",
        /// Superblock replays (commits validated by the memo fast path).
        pub sb_hits: u64 => host "sb_hits",
        /// Superblock memos discarded as stale (generation bump, SC miss,
        /// target change, or explicit flush).
        pub sb_flushes: u64 => host "sb_flushes",
        /// CHG body hashes computed through the multi-lane (4x) hasher.
        pub chg_lanes: u64 => host "chg_lanes",
        /// Deferred-buffer occupancy distribution, sampled at each store push
        /// (sizes the hardware buffer beyond the single peak number).
        pub defer_occupancy: Histogram => "rev.defer.occupancy",
        /// SC fill latency distribution in cycles (table-walk start to entry
        /// ready), the delay an unlucky commit-time miss exposes.
        pub fill_latency: Histogram => "rev.fill.latency",
        /// The violation that ended the run, if any.
        pub violation: Option<Violation> => skip,
    }
}
