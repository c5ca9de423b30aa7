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

use rev_mem::MainMemory;
use rev_trace::{CkptError, CkptReader, CkptWriter};
use std::collections::BTreeMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;

/// Counters for the shadow-page mechanism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowStats {
    /// Shadow pages materialized (first store touch).
    pub pages_created: u64,
    /// Stores absorbed by shadow pages.
    pub stores_buffered: u64,
    /// Pages mapped in after successful authentication.
    pub pages_promoted: u64,
    /// Pages discarded after a violation.
    pub pages_discarded: u64,
}

/// The shadow page set: copy-on-write overlays above committed memory.
#[derive(Debug, Clone, Default)]
pub struct ShadowMemory {
    pages: BTreeMap<u64, Box<[u8; PAGE_BYTES as usize]>>,
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
        self.pages.contains_key(&(addr >> PAGE_SHIFT))
    }

    /// Absorbs a 64-bit store. On the first touch of a page, its current
    /// content is copied from `backing` (copy-on-write). Returns `true`
    /// if a new shadow page was created.
    pub fn write_u64(&mut self, backing: &MainMemory, addr: u64, value: u64) -> bool {
        self.stats.stores_buffered += 1;
        let mut created = false;
        // A u64 may straddle two pages; materialize both.
        for a in [addr, addr + 7] {
            let vpn = a >> PAGE_SHIFT;
            if let std::collections::btree_map::Entry::Vacant(slot) = self.pages.entry(vpn) {
                let mut page = Box::new([0u8; PAGE_BYTES as usize]);
                backing.read_into(vpn << PAGE_SHIFT, &mut page[..]);
                slot.insert(page);
                self.stats.pages_created += 1;
                created = true;
            }
        }
        let bytes = value.to_le_bytes();
        for (i, b) in bytes.iter().enumerate() {
            let a = addr + i as u64;
            let page = self.pages.get_mut(&(a >> PAGE_SHIFT)).expect("materialized");
            page[(a & (PAGE_BYTES - 1)) as usize] = *b;
        }
        created
    }

    /// Reads a 64-bit value through the shadow (falling back to `backing`
    /// for unshadowed bytes).
    pub fn read_u64(&self, backing: &MainMemory, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            let a = addr + i as u64;
            *b = match self.pages.get(&(a >> PAGE_SHIFT)) {
                Some(page) => page[(a & (PAGE_BYTES - 1)) as usize],
                None => backing.read_u8(a),
            };
        }
        u64::from_le_bytes(bytes)
    }

    /// The whole execution authenticated: map every shadow page in as the
    /// program's architectural pages.
    pub fn promote(&mut self, backing: &mut MainMemory) -> u64 {
        let promoted = self.pages.len() as u64;
        for (vpn, page) in std::mem::take(&mut self.pages) {
            backing.write_bytes(vpn << PAGE_SHIFT, &page[..]);
        }
        self.stats.pages_promoted += promoted;
        promoted
    }

    /// Validation failed: every update the execution made is discarded.
    pub fn discard(&mut self) -> u64 {
        let discarded = self.pages.len() as u64;
        self.pages.clear();
        self.stats.pages_discarded += discarded;
        discarded
    }
}

rev_trace::ckpt_fields!(Ckpt for ShadowStats {
    pages_created, stores_buffered, pages_promoted, pages_discarded,
});

rev_trace::ckpt_fields!(Ckpt for ShadowMemory { pages => ShadowPages, stats });

/// Live shadow pages travel as `(page number, 4 KiB)` records in
/// ascending page order (the `BTreeMap` order is already canonical); an
/// out-of-order page number is rejected.
struct ShadowPages;

impl ShadowPages {
    const MIN_BYTES: usize = 8;

    fn save(pages: &BTreeMap<u64, Box<[u8; PAGE_BYTES as usize]>>, w: &mut CkptWriter) {
        w.len(pages.len());
        for (vpn, page) in pages {
            w.u64(*vpn);
            w.raw(&page[..]);
        }
    }

    fn load(
        r: &mut CkptReader<'_>,
    ) -> Result<BTreeMap<u64, Box<[u8; PAGE_BYTES as usize]>>, CkptError> {
        let n = r.len(8 + PAGE_BYTES as usize)?;
        let mut pages = BTreeMap::new();
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let vpn = r.u64()?;
            if prev.is_some_and(|p| p >= vpn) {
                return Err(CkptError::Malformed(format!(
                    "shadow pages out of order at vpn {vpn:#x}"
                )));
            }
            prev = Some(vpn);
            let mut page = Box::new([0u8; PAGE_BYTES as usize]);
            page.copy_from_slice(r.raw(PAGE_BYTES as usize)?);
            pages.insert(vpn, page);
        }
        Ok(pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_on_write_preserves_surrounding_bytes() {
        let mut backing = MainMemory::new();
        backing.write_u64(0x1000, 0x1111);
        backing.write_u64(0x1008, 0x2222);
        let mut shadow = ShadowMemory::new();
        assert!(shadow.write_u64(&backing, 0x1008, 0x9999));
        // The shadow sees the new value plus copied neighbors...
        assert_eq!(shadow.read_u64(&backing, 0x1008), 0x9999);
        assert_eq!(shadow.read_u64(&backing, 0x1000), 0x1111);
        // ...while the backing store is untouched.
        assert_eq!(backing.read_u64(0x1008), 0x2222);
    }

    #[test]
    fn promote_maps_pages_in() {
        let mut backing = MainMemory::new();
        let mut shadow = ShadowMemory::new();
        shadow.write_u64(&backing, 0x4000, 42);
        shadow.write_u64(&backing, 0x9000, 43);
        assert_eq!(shadow.live_pages(), 2);
        assert_eq!(shadow.promote(&mut backing), 2);
        assert_eq!(backing.read_u64(0x4000), 42);
        assert_eq!(backing.read_u64(0x9000), 43);
        assert_eq!(shadow.live_pages(), 0);
        assert_eq!(shadow.stats().pages_promoted, 2);
    }

    #[test]
    fn discard_leaves_backing_untouched() {
        let mut backing = MainMemory::new();
        backing.write_u64(0x4000, 7);
        let mut shadow = ShadowMemory::new();
        shadow.write_u64(&backing, 0x4000, 666);
        assert_eq!(shadow.discard(), 1);
        assert_eq!(backing.read_u64(0x4000), 7, "poison never lands");
        assert!(!shadow.covers(0x4000));
    }

    #[test]
    fn straddling_write_materializes_both_pages() {
        let backing = MainMemory::new();
        let mut shadow = ShadowMemory::new();
        shadow.write_u64(&backing, 0x1ffc, u64::MAX);
        assert!(shadow.covers(0x1ffc));
        assert!(shadow.covers(0x2000));
        assert_eq!(shadow.read_u64(&backing, 0x1ffc), u64::MAX);
        assert_eq!(shadow.stats().pages_created, 2);
    }

    #[test]
    fn second_write_to_page_reuses_it() {
        let backing = MainMemory::new();
        let mut shadow = ShadowMemory::new();
        assert!(shadow.write_u64(&backing, 0x5000, 1));
        assert!(!shadow.write_u64(&backing, 0x5008, 2));
        assert_eq!(shadow.stats().pages_created, 1);
        assert_eq!(shadow.stats().stores_buffered, 2);
    }
}
