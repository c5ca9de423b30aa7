//! TLB model: fully-associative, true-LRU translation caches.
//!
//! The paper's Table 2 configuration: 32-entry L1 I-TLB, 128-entry L1
//! D-TLB, each backed by a 512-entry L2 TLB; the D-TLB is shared with the
//! signature cache through an extra port. The simulator runs with identity
//! translation (a single flat address space), so TLBs only contribute
//! timing: an L1 TLB miss probes the L2 TLB, and an L2 miss pays the page
//! walk.

use rev_trace::CkptError;

/// TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
}

impl TlbConfig {
    /// 4 KiB pages with `entries` slots.
    pub const fn with_entries(entries: usize) -> Self {
        TlbConfig { entries, page_bytes: 4096 }
    }
}

/// TLB hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups performed.
    pub accesses: u64,
    /// Lookups that missed.
    pub misses: u64,
}

/// A fully-associative LRU TLB.
///
/// A hash index over resident VPNs plus a last-hit slot cache replace the
/// per-access linear scan; eviction (miss path only) still does the exact
/// min-tick scan, so the replacement sequence is identical to the naive
/// model.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    entries: Vec<(u64, u64)>,          // (vpn, lru tick)
    index: crate::FlatMap<u64, usize>, // vpn -> slot in `entries`
    last: Option<(u64, usize)>,        // last-hit (vpn, slot)
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.page_bytes.is_power_of_two(), "page size must be a power of two");
        Tlb {
            config,
            entries: Vec::with_capacity(config.entries),
            index: crate::FlatMap::default(),
            last: None,
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Zeroes the counters (entries stay).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    #[inline]
    fn vpn(&self, addr: u64) -> u64 {
        addr / self.config.page_bytes
    }

    /// Looks up `addr`; fills on miss. Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let vpn = self.vpn(addr);
        if let Some((last_vpn, slot)) = self.last {
            if last_vpn == vpn {
                self.entries[slot].1 = self.tick;
                return true;
            }
        }
        if let Some(&slot) = self.index.get(&vpn) {
            self.entries[slot].1 = self.tick;
            self.last = Some((vpn, slot));
            return true;
        }
        self.stats.misses += 1;
        if self.entries.len() >= self.config.entries {
            // A zero-entry TLB (ruled out by `MemConfig::validate`)
            // degrades to an always-miss TLB instead of panicking.
            let lru = self.entries.iter().enumerate().min_by_key(|(_, (_, t))| *t).map(|(i, _)| i);
            let Some(lru) = lru else {
                debug_assert!(false, "TLB has at least one entry");
                return false;
            };
            self.index.remove(&self.entries[lru].0);
            self.entries.swap_remove(lru);
            if let Some((moved_vpn, _)) = self.entries.get(lru) {
                self.index.insert(*moved_vpn, lru);
            }
            self.last = None;
        }
        self.index.insert(vpn, self.entries.len());
        self.entries.push((vpn, self.tick));
        false
    }

    /// Probes without filling or touching LRU.
    pub fn probe(&self, addr: u64) -> bool {
        self.index.contains_key(&self.vpn(addr))
    }

    /// Rebuilds the derived hash index and last-hit slot from restored
    /// entries, rejecting more entries than this TLB holds or a VPN
    /// cached twice.
    fn check_restored(&mut self) -> Result<(), CkptError> {
        if self.entries.len() > self.config.entries {
            return Err(CkptError::Malformed(format!(
                "TLB entry count {} exceeds capacity {}",
                self.entries.len(),
                self.config.entries
            )));
        }
        self.index = crate::FlatMap::default();
        self.last = None;
        for (slot, &(vpn, _)) in self.entries.iter().enumerate() {
            if self.index.insert(vpn, slot).is_some() {
                return Err(CkptError::Malformed(format!("duplicate TLB entry for vpn {vpn:#x}")));
            }
        }
        Ok(())
    }
}

// The entry vector order is part of the deterministic model (fills push,
// evictions `swap_remove`), so it is written as-is; the hash index and
// last-hit accelerator are derived state, rebuilt on restore.
rev_trace::ckpt_fields!(CkptFields for Tlb { tick, stats, entries } then Tlb::check_restored);
rev_trace::ckpt_fields!(Ckpt for TlbStats { accesses, misses });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_hit() {
        let mut t = Tlb::new(TlbConfig::with_entries(2));
        assert!(!t.access(0x1000));
        assert!(t.access(0x1fff), "same page");
        assert!(!t.access(0x2000), "next page misses");
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(TlbConfig::with_entries(2));
        t.access(0x0000);
        t.access(0x1000);
        t.access(0x0000); // touch page 0
        t.access(0x2000); // evicts page 1
        assert!(t.probe(0x0000));
        assert!(!t.probe(0x1000));
        assert!(t.probe(0x2000));
    }

    #[test]
    fn stats_track_misses() {
        let mut t = Tlb::new(TlbConfig::with_entries(4));
        t.access(0);
        t.access(0);
        t.access(0x1000);
        assert_eq!(t.stats().accesses, 3);
        assert_eq!(t.stats().misses, 2);
    }
}
