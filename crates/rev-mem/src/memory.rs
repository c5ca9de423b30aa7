//! Flat, sparse, functional main memory.
//!
//! Holds the program image and all run-time data. The timing model
//! ([`crate::Hierarchy`]) is tag-only, so this is the single source of
//! functional truth for both the oracle execution engine and the committed
//! state. Pages are allocated lazily.
//!
//! The page table is a hand-rolled open-addressed hash table (linear
//! probing, power-of-two capacity, no deletion — pages are never freed
//! within a run) fronted by a last-page slot cache, so the per-instruction
//! fetch path costs one multiply and usually zero probes instead of a
//! SipHash `HashMap` lookup per byte.

use rev_prog::Segment;
use rev_trace::FaultInjector;
use std::cell::Cell;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Checkpoint section marker for main-memory page content.
const TAG_MEM: u8 = 0x6d; // 'm'

/// Sentinel page index marking an empty slot (real indices are
/// `addr >> 12`, so the top bits can never all be set).
const EMPTY: u64 = u64::MAX;

/// Open-addressed page-index → page storage with linear probing. Grows at
/// 3/4 load; never shrinks or deletes (a resident page stays resident for
/// the run, which keeps probe chains tombstone-free).
#[derive(Debug, Clone, Default)]
struct PageTable {
    slots: Vec<Option<(u64, Box<[u8; PAGE_SIZE]>)>>,
    len: usize,
}

impl PageTable {
    #[inline]
    fn probe_start(&self, idx: u64) -> usize {
        // Multiplicative hash; high bits are the well-mixed ones, so take
        // the slot index from the top.
        let h = idx.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Returns the slot index and page for `idx`, if resident.
    #[inline]
    fn get(&self, idx: u64) -> Option<(usize, &[u8; PAGE_SIZE])> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(idx);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, p)) if *k == idx => return Some((i, p)),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Re-reads a known slot; used to validate the last-page cache.
    #[inline]
    fn slot(&self, i: usize) -> Option<(u64, &[u8; PAGE_SIZE])> {
        match self.slots.get(i) {
            Some(Some((k, p))) => Some((*k, p)),
            _ => None,
        }
    }

    /// Returns the slot index and page for `idx`, allocating a zero page
    /// if absent.
    #[inline]
    fn get_or_insert(&mut self, idx: u64) -> (usize, &mut [u8; PAGE_SIZE]) {
        if self.slots.is_empty() || self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(idx);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == idx => break,
                None => {
                    self.slots[i] = Some((idx, Box::new([0; PAGE_SIZE])));
                    self.len += 1;
                    break;
                }
                Some(_) => i = (i + 1) & mask,
            }
        }
        let page = self.slots[i].as_mut().map(|(_, p)| &mut **p).expect("slot just filled");
        (i, page)
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(64);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(new_cap, || None);
        let mask = new_cap - 1;
        for entry in old.into_iter().flatten() {
            let mut i = self.probe_start(entry.0);
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(entry);
        }
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &[u8; PAGE_SIZE])> + '_ {
        self.slots.iter().flatten().map(|(k, p)| (*k, &**p))
    }
}

/// Sparse 64-bit byte-addressable memory.
///
/// # Example
///
/// ```
/// use rev_mem::MainMemory;
///
/// let mut mem = MainMemory::new();
/// mem.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(mem.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(mem.read_u8(0x9999), 0); // untouched memory reads zero
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    pages: PageTable,
    /// Last page touched: `(page index, slot)`. Validated against the
    /// table on use (the slot may have moved on growth), so it is purely
    /// an accelerator. `Cell` keeps the read path `&self`.
    last: Cell<(u64, usize)>,
    /// Fault filter applied to [`Self::read_bytes`] transfers (window-
    /// gated to the signature-table region; disabled by default).
    fault: FaultInjector,
}

impl Default for MainMemory {
    fn default() -> Self {
        MainMemory {
            pages: PageTable::default(),
            last: Cell::new((EMPTY, 0)),
            fault: FaultInjector::disabled(),
        }
    }
}

impl MainMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a memory pre-loaded with `segments`.
    pub fn with_segments(segments: &[Segment]) -> Self {
        let mut mem = Self::new();
        for seg in segments {
            mem.write_bytes(seg.addr, &seg.bytes);
        }
        mem
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        let idx = addr >> PAGE_SHIFT;
        let (last_idx, last_slot) = self.last.get();
        if last_idx == idx {
            if let Some((k, p)) = self.pages.slot(last_slot) {
                if k == idx {
                    return Some(p);
                }
            }
        }
        let (slot, p) = self.pages.get(idx)?;
        self.last.set((idx, slot));
        Some(p)
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let idx = addr >> PAGE_SHIFT;
        let (slot, p) = self.pages.get_or_insert(idx);
        self.last.set((idx, slot));
        p
    }

    /// Reads one byte (unmapped memory reads zero).
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr).map(|p| p[(addr as usize) & (PAGE_SIZE - 1)]).unwrap_or(0)
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads a little-endian u64 (may straddle pages).
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        self.read_into(addr, &mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian u64.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Copies `buf.len()` bytes starting at `addr` into `buf`,
    /// page-chunked: one table lookup per page touched, not per byte.
    #[inline]
    pub fn read_into(&self, addr: u64, buf: &mut [u8]) {
        let mut a = addr;
        let mut rest = buf;
        while !rest.is_empty() {
            let off = (a as usize) & (PAGE_SIZE - 1);
            let take = (PAGE_SIZE - off).min(rest.len());
            match self.page(a) {
                Some(p) => rest[..take].copy_from_slice(&p[off..off + take]),
                None => rest[..take].fill(0),
            }
            a = a.wrapping_add(take as u64);
            rest = &mut rest[take..];
        }
    }

    /// [`Self::read_into`] plus the bulk-transfer fault filter — the
    /// allocation-free equivalent of [`Self::read_bytes`] for hot callers
    /// with a stack buffer (instruction fetch).
    #[inline]
    pub fn read_filtered(&self, addr: u64, buf: &mut [u8]) {
        self.read_into(addr, buf);
        if self.fault.is_enabled() {
            self.fault.filter_read(addr, buf);
        }
    }

    /// Returns `len` bytes starting at `addr`. This is the bulk-transfer
    /// path signature-table line fetches use, so an attached
    /// [`FaultInjector`] filters the returned bytes (the stored pages are
    /// never altered — the fault models corruption *in flight*).
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0; len];
        self.read_filtered(addr, &mut buf);
        buf
    }

    /// Attaches a fault injector to the bulk-read path (chaos campaigns).
    pub fn set_fault_injector(&mut self, fault: FaultInjector) {
        self.fault = fault;
    }

    /// Whether a fault injector is attached (armed or counting). Callers
    /// that memoize read results must bypass their caches while this is
    /// true: [`Self::read_filtered`] may alter bytes in flight, and even a
    /// counting-only injector tallies per-read site visits.
    #[inline]
    pub fn fault_enabled(&self) -> bool {
        self.fault.is_enabled()
    }

    /// A deterministic digest of all resident content strictly below
    /// `limit` (FNV-1a over sorted page indices and bytes; all-zero pages
    /// are skipped so lazily-materialized zero pages don't perturb it).
    /// Chaos campaigns compare a faulted run's committed memory against a
    /// fault-free reference with the signature-table region masked off.
    pub fn content_digest(&self, limit: u64) -> u64 {
        let mut pages: Vec<(u64, &[u8; PAGE_SIZE])> =
            self.pages.iter().filter(|&(i, _)| (i << PAGE_SHIFT) < limit).collect();
        pages.sort_unstable_by_key(|&(idx, _)| idx);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (idx, page) in pages {
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            for b in idx.to_le_bytes() {
                mix(b);
            }
            let end = (PAGE_SIZE as u64).min(limit.saturating_sub(idx << PAGE_SHIFT)) as usize;
            for &b in &page[..end] {
                mix(b);
            }
        }
        h
    }

    /// Writes a byte slice starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut a = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (a as usize) & (PAGE_SIZE - 1);
            let take = (PAGE_SIZE - off).min(rest.len());
            self.page_mut(a)[off..off + take].copy_from_slice(&rest[..take]);
            a += take as u64;
            rest = &rest[take..];
        }
    }

    /// Number of resident pages (for tests / footprint reporting).
    pub fn resident_pages(&self) -> usize {
        self.pages.len
    }

    /// Serializes the resident pages whose bytes differ from `base`,
    /// sorted by page index (canonical order — re-serializing a restored
    /// memory is byte-identical). `base` is the build image the restore
    /// target starts from, so only what the run changed is written. A
    /// page absent from `base` is compared against zeros: a build-time
    /// page zeroed mid-run is written (it must restore as zero, not
    /// revert to its build content), while a page materialized mid-run
    /// and left all-zero is not (an absent page already reads zero).
    pub fn save_state(&self, base: &MainMemory, w: &mut rev_trace::CkptWriter) {
        const ZERO: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        w.tag(TAG_MEM);
        let mut changed: Vec<(u64, &[u8; PAGE_SIZE])> = self
            .pages
            .iter()
            .filter(|&(idx, page)| page != base.pages.get(idx).map_or(&ZERO, |(_, p)| p))
            .collect();
        changed.sort_unstable_by_key(|&(idx, _)| idx);
        w.len(changed.len());
        for (idx, page) in changed {
            w.u64(idx);
            w.raw(page);
        }
    }

    /// Restores pages saved by [`MainMemory::save_state`], overwriting
    /// this memory's contents page by page. Restore targets a memory
    /// equal to the `base` the checkpoint was taken against (a fresh
    /// rebuild of the same build image): every page the run changed is
    /// in the checkpoint, and every page it did not change already holds
    /// the right bytes, so overlaying the listed pages reproduces the
    /// saved contents exactly. A section that also lists pages equal to
    /// the base (as full-image checkpoints do) restores identically. The
    /// fault injector is left untouched; the last-page accelerator is
    /// reset.
    ///
    /// # Errors
    ///
    /// Returns [`rev_trace::CkptError`] on decode failure or an unsorted
    /// page list.
    pub fn restore_state(
        &mut self,
        r: &mut rev_trace::CkptReader<'_>,
    ) -> Result<(), rev_trace::CkptError> {
        r.tag(TAG_MEM)?;
        let n = r.len(8 + PAGE_SIZE)?;
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let idx = r.u64()?;
            if prev.is_some_and(|p| p >= idx) {
                return Err(rev_trace::CkptError::Malformed(format!(
                    "page index {idx:#x} out of order"
                )));
            }
            prev = Some(idx);
            let bytes = r.raw(PAGE_SIZE)?;
            let (_, page) = self.pages.get_or_insert(idx);
            page.copy_from_slice(bytes);
        }
        self.last.set((EMPTY, 0));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero() {
        let mem = MainMemory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u64(0xffff_ffff_ffff_fff0), 0);
    }

    #[test]
    fn u64_round_trip_cross_page() {
        let mut mem = MainMemory::new();
        let addr = (1 << PAGE_SHIFT) - 3; // straddles a page boundary
        mem.write_u64(addr, 0x0123_4567_89ab_cdef);
        assert_eq!(mem.read_u64(addr), 0x0123_4567_89ab_cdef);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn segment_loading() {
        let segs = vec![Segment { addr: 0x2000, bytes: vec![1, 2, 3], writable: false }];
        let mem = MainMemory::with_segments(&segs);
        assert_eq!(mem.read_bytes(0x2000, 3), vec![1, 2, 3]);
    }

    #[test]
    fn write_bytes_cross_page() {
        let mut mem = MainMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        let addr = (1 << PAGE_SHIFT) - 100;
        mem.write_bytes(addr, &data);
        assert_eq!(mem.read_bytes(addr, 256), data);
    }

    #[test]
    fn table_growth_keeps_contents() {
        let mut mem = MainMemory::new();
        // Enough distinct pages to force several table growths.
        for i in 0..500u64 {
            mem.write_u64(i * (PAGE_SIZE as u64), i + 1);
        }
        assert_eq!(mem.resident_pages(), 500);
        for i in 0..500u64 {
            assert_eq!(mem.read_u64(i * (PAGE_SIZE as u64)), i + 1, "page {i}");
        }
    }

    #[test]
    fn read_filtered_matches_read_bytes() {
        let mut mem = MainMemory::new();
        mem.write_bytes(0x3000, &[9, 8, 7, 6, 5]);
        let mut buf = [0u8; 5];
        mem.read_filtered(0x3000, &mut buf);
        assert_eq!(buf.to_vec(), mem.read_bytes(0x3000, 5));
    }

    #[test]
    fn clone_is_independent() {
        let mut a = MainMemory::new();
        a.write_u64(0x1000, 1);
        let mut b = a.clone();
        b.write_u64(0x1000, 2);
        assert_eq!(a.read_u64(0x1000), 1);
        assert_eq!(b.read_u64(0x1000), 2);
    }

    /// A build image of three resident pages: two of code at 0x1000 and
    /// one of data at 0x8000.
    fn build_image() -> MainMemory {
        let code: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 251) as u8 + 1).collect();
        MainMemory::with_segments(&[
            Segment { addr: 0x1000, bytes: code, writable: false },
            Segment { addr: 0x8000, bytes: vec![7; 64], writable: true },
        ])
    }

    fn delta(mem: &MainMemory, base: &MainMemory) -> Vec<u8> {
        let mut w = rev_trace::CkptWriter::new();
        mem.save_state(base, &mut w);
        w.finish()
    }

    /// The page indices a sealed memory section lists.
    fn listed(env: &[u8]) -> Vec<u64> {
        let mut r = rev_trace::CkptReader::new(env).unwrap();
        r.tag(TAG_MEM).unwrap();
        let n = r.len(8 + PAGE_SIZE).unwrap();
        (0..n)
            .map(|_| {
                let idx = r.u64().unwrap();
                r.raw(PAGE_SIZE).unwrap();
                idx
            })
            .collect()
    }

    /// Overlays a sealed section onto a fresh copy of `base`.
    fn restored(base: &MainMemory, env: &[u8]) -> MainMemory {
        let mut mem = base.clone();
        let mut r = rev_trace::CkptReader::new(env).unwrap();
        mem.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        mem
    }

    #[test]
    fn clone_of_base_writes_no_pages() {
        let base = build_image();
        assert_eq!(listed(&delta(&base.clone(), &base)), Vec::<u64>::new());
    }

    #[test]
    fn one_byte_write_writes_one_page() {
        let base = build_image();
        let mut mem = base.clone();
        mem.write_u8(0x1abc, 0);
        let env = delta(&mem, &base);
        assert_eq!(listed(&env), vec![1]);
        let back = restored(&base, &env);
        assert_eq!(back.read_bytes(0x1000, 2 * PAGE_SIZE), mem.read_bytes(0x1000, 2 * PAGE_SIZE));
        assert_eq!(delta(&back, &base), env, "re-save must be byte-identical");
    }

    #[test]
    fn zeroed_build_page_is_written_and_restores_zero() {
        let base = build_image();
        let mut mem = base.clone();
        mem.write_bytes(0x8000, &[0; 64]);
        let env = delta(&mem, &base);
        assert_eq!(listed(&env), vec![8]);
        let back = restored(&base, &env);
        assert_eq!(back.read_bytes(0x8000, 64), vec![0; 64], "must not revert to build content");
    }

    #[test]
    fn new_all_zero_page_is_not_written_and_reads_zero() {
        let base = build_image();
        let mut mem = base.clone();
        mem.write_u64(0x20_0000, 5);
        mem.write_u64(0x20_0000, 0);
        assert_eq!(mem.resident_pages(), base.resident_pages() + 1);
        let env = delta(&mem, &base);
        assert_eq!(listed(&env), Vec::<u64>::new());
        assert_eq!(restored(&base, &env).read_u64(0x20_0000), 0);
    }

    #[test]
    fn full_section_restores_like_delta() {
        // Full-image checkpoints list every resident page, including the
        // ones equal to the base; overlaying them must change nothing.
        let base = build_image();
        let mut mem = base.clone();
        mem.write_u8(0x2010, 0xee);
        mem.write_u64(0x40_0000, 9);
        let mut pages: Vec<(u64, &[u8; PAGE_SIZE])> = mem.pages.iter().collect();
        pages.sort_unstable_by_key(|&(idx, _)| idx);
        let mut w = rev_trace::CkptWriter::new();
        w.tag(TAG_MEM);
        w.len(pages.len());
        for (idx, page) in pages {
            w.u64(idx);
            w.raw(page);
        }
        let full = w.finish();
        let env = delta(&mem, &base);
        assert_eq!(listed(&env), vec![2, 0x400]);
        let (from_full, from_delta) = (restored(&base, &full), restored(&base, &env));
        assert_eq!(from_full.content_digest(u64::MAX), mem.content_digest(u64::MAX));
        assert_eq!(from_delta.content_digest(u64::MAX), mem.content_digest(u64::MAX));
        assert_eq!(delta(&from_full, &base), env);
    }
}
