//! Page shadowing — the paper's stricter alternative for requirement R5
//! (Sec. IV.A, citing Nagarajan & Gupta's architectural shadow-memory):
//!
//! > "Initially, the original pages accessed by the program are mapped to
//! > a set of shadow pages with identical initial content. All memory
//! > updates are made on the shadow pages during execution and when the
//! > entire execution is authenticated, the shadow pages are mapped in as
//! > the program's original pages. Also, while execution is going on, no
//! > output operation (that is, DMA) is allowed out of a shadow page."
//!
//! [`ShadowStats`] exports as the `rev.shadow.*` metrics via the run's
//! [`RevStats`](crate::stats::RevStats) sink (see `docs/METRICS.md`).
//!
//! Compared to the per-block deferred-store buffer, shadowing is coarser:
//! nothing at all becomes architectural until the *whole* execution
//! authenticates, and a single violation discards every update the program
//! ever made.

use rev_cpu::WindowWord;
use std::collections::BTreeSet;

const PAGE_SHIFT: u32 = 12;

rev_trace::stats! {
    /// Counters for the shadow-page mechanism.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ShadowStats {
        /// Shadow pages materialized (first store touch).
        pub pages_created: u64 => "rev.shadow.pages_created",
        /// Stores absorbed by shadow pages.
        pub stores_buffered: u64 => "rev.shadow.stores_buffered",
        /// Pages mapped in after successful authentication.
        pub pages_promoted: u64 => "rev.shadow.pages_promoted",
        /// Pages discarded after a violation.
        pub pages_discarded: u64 => "rev.shadow.pages_discarded",
    }
}

/// The pages the shadow window covers.
///
/// The window's bytes live in the simulator's memory
/// ([`rev_cpu::Memory::shadow`]), in front of committed memory, exactly
/// as the shadow pages stand in front of the original ones: the oracle
/// reads them, memory does not hold them. Promotion maps them into
/// memory; a violation discards the window and they never reach it. This
/// set keeps the page numbers: the copy-on-write traffic and the
/// `rev.shadow.*` counters.
#[derive(Debug, Clone, Default)]
pub struct ShadowMemory {
    pages: BTreeSet<u64>,
    stats: ShadowStats,
}

impl ShadowMemory {
    /// Creates an empty shadow set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ShadowStats {
        self.stats
    }

    /// Number of live shadow pages.
    pub fn live_pages(&self) -> usize {
        self.pages.len()
    }

    /// Whether `addr` currently resolves to a shadow page.
    pub fn covers(&self, addr: u64) -> bool {
        self.pages.contains(&(addr >> PAGE_SHIFT))
    }

    /// Absorbs a committed 64-bit store at `addr`. Returns `true` if it
    /// touched a page the window had not shadowed yet (the copy-on-write
    /// fill).
    pub fn hold(&mut self, addr: u64) -> bool {
        self.stats.stores_buffered += 1;
        let created = self.shadow_pages_of(addr);
        self.stats.pages_created += created;
        created > 0
    }

    /// Shadows the page(s) an 8-byte store at `addr` touches (it may
    /// straddle two); returns how many were new.
    fn shadow_pages_of(&mut self, addr: u64) -> u64 {
        let (first, last) = (addr >> PAGE_SHIFT, addr.wrapping_add(7) >> PAGE_SHIFT);
        u64::from(self.pages.insert(first)) + u64::from(last != first && self.pages.insert(last))
    }

    /// The whole execution authenticated: the shadow pages are mapped in
    /// as the program's architectural pages (the caller promotes the
    /// memory's window).
    pub fn promote(&mut self) {
        self.stats.pages_promoted += self.pages.len() as u64;
        self.pages.clear();
    }

    /// Validation failed: every update the execution made is discarded.
    pub fn discard(&mut self) -> u64 {
        let discarded = self.pages.len() as u64;
        self.pages.clear();
        self.stats.pages_discarded += discarded;
        discarded
    }

    /// Restores the counters and re-derives the shadowed pages from a
    /// restored window.
    pub fn restore(&mut self, stats: ShadowStats, window: &[WindowWord]) {
        self.stats = stats;
        self.pages = window.iter().map(|&(word, ..)| word >> (PAGE_SHIFT - 3)).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promote_maps_pages_in() {
        let mut shadow = ShadowMemory::new();
        shadow.hold(0x4000);
        shadow.hold(0x9000);
        assert_eq!(shadow.live_pages(), 2);
        shadow.promote();
        assert_eq!(shadow.live_pages(), 0);
        assert_eq!(shadow.stats().pages_promoted, 2);
    }

    #[test]
    fn discard_drops_the_window() {
        let mut shadow = ShadowMemory::new();
        shadow.hold(0x4000);
        assert_eq!(shadow.discard(), 1);
        assert!(!shadow.covers(0x4000));
    }

    #[test]
    fn a_restore_derives_the_pages_from_the_window() {
        let mut shadow = ShadowMemory::new();
        let stats = ShadowStats { pages_created: 3, stores_buffered: 4, ..Default::default() };
        shadow
            .restore(stats, &[(0x1ff8 >> 3, 0, 0x80), (0x2000 >> 3, 0, 0x01), (0x5008 >> 3, 0, 1)]);
        assert_eq!(shadow.live_pages(), 3);
        assert!(shadow.covers(0x1fff) && shadow.covers(0x2000) && shadow.covers(0x5000));
        assert_eq!(shadow.stats(), stats);
    }

    #[test]
    fn straddling_write_materializes_both_pages() {
        let mut shadow = ShadowMemory::new();
        assert!(shadow.hold(0x1ffc));
        assert!(shadow.covers(0x1ffc));
        assert!(shadow.covers(0x2000));
        assert_eq!(shadow.stats().pages_created, 2);
    }

    #[test]
    fn second_write_to_page_reuses_it() {
        let mut shadow = ShadowMemory::new();
        assert!(shadow.hold(0x5000));
        assert!(!shadow.hold(0x5008));
        assert_eq!(shadow.stats().pages_created, 1);
        assert_eq!(shadow.stats().stores_buffered, 2);
    }
}
