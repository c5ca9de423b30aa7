//! Flat, sparse, functional main memory.
//!
//! Holds the program image and all run-time data. The timing model
//! ([`crate::Hierarchy`]) is tag-only, so this is the single source of
//! functional truth: a simulator's committed state, which its oracle
//! reads through the stores it has in flight. Pages are allocated
//! lazily.
//!
//! The page table is a hand-rolled open-addressed hash table (linear
//! probing, power-of-two capacity, no deletion — pages are never freed
//! within a run) fronted by a last-page slot cache, so the per-instruction
//! fetch path costs one multiply and usually zero probes instead of a
//! SipHash `HashMap` lookup per byte.
//!
//! Pages are copy-on-write. [`MainMemory::freeze`] turns every resident
//! page into a shared, immutable one; a clone then shares those pages
//! instead of copying them, and a memory copies a shared page into a
//! private one the first time it writes it. A simulator's build image,
//! its memory and every fork of them therefore hold one copy of each
//! page none of them has written. The copy happens once
//! per page, so a store to a private page costs what it always did: no
//! reference count is touched on the per-store path.

use rev_prog::Segment;
use std::cell::Cell;
use std::sync::Arc;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

type PageBytes = [u8; PAGE_SIZE];

/// Checkpoint section marker for main-memory page content.
const TAG_MEM: u8 = 0x6d; // 'm'

/// Byte runs of a checkpointed page separated by fewer equal bytes than
/// this are written as one run (a run header costs 4 bytes).
const RUN_MERGE_GAP: usize = 8;

/// Encoded size of the smallest run: offset, length and one byte.
const RUN_MIN_BYTES: usize = 2 + 2 + 1;

/// Encoded size of the smallest checkpointed page: index, run count and
/// one run.
const PAGE_MIN_BYTES: usize = 8 + 2 + RUN_MIN_BYTES;

const ZERO_PAGE: PageBytes = [0; PAGE_SIZE];

/// Sentinel page index marking an empty slot (real indices are
/// `addr >> 12`, so the top bits can never all be set).
const EMPTY: u64 = u64::MAX;

/// One resident page.
#[derive(Debug, Clone)]
enum Page {
    /// Private to this memory: written in place. Cloning copies it.
    Owned(Box<PageBytes>),
    /// Frozen and shared with the memories cloned from the same image:
    /// never written. Cloning shares it; a write first copies it into an
    /// owned page.
    Shared(Arc<PageBytes>),
}

impl Page {
    #[inline]
    fn bytes(&self) -> &PageBytes {
        match self {
            Page::Owned(bytes) => bytes,
            Page::Shared(bytes) => bytes,
        }
    }

    /// The page's bytes for writing, copying a shared page first.
    #[inline]
    fn bytes_mut(&mut self) -> &mut PageBytes {
        if let Page::Shared(shared) = self {
            *self = Page::Owned(Box::new(**shared));
        }
        match self {
            Page::Owned(bytes) => bytes,
            Page::Shared(_) => unreachable!("a shared page was just copied"),
        }
    }

    /// Whether both are the same shared page (not merely equal bytes).
    #[inline]
    fn is_shared_with(&self, other: &Page) -> bool {
        matches!((self, other), (Page::Shared(a), Page::Shared(b)) if Arc::ptr_eq(a, b))
    }
}

/// Open-addressed page-index → page storage with linear probing. Grows at
/// 3/4 load; never shrinks or deletes (a resident page stays resident for
/// the run, which keeps probe chains tombstone-free).
#[derive(Debug, Clone, Default)]
struct PageTable {
    slots: Vec<Option<(u64, Page)>>,
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
    fn get(&self, idx: u64) -> Option<(usize, &Page)> {
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
    fn slot(&self, i: usize) -> Option<(u64, &PageBytes)> {
        match self.slots.get(i) {
            Some(Some((k, p))) => Some((*k, p.bytes())),
            _ => None,
        }
    }

    /// The slot holding `idx`, or the empty slot it would take — growing
    /// first, so that slot exists.
    #[inline]
    fn find_slot(&mut self, idx: u64) -> usize {
        if self.slots.is_empty() || self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(idx);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == idx => return i,
                None => return i,
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Returns the slot index and writable page for `idx`, allocating a
    /// zero page if absent and copying a shared one.
    #[inline]
    fn get_or_insert(&mut self, idx: u64) -> (usize, &mut PageBytes) {
        let i = self.find_slot(idx);
        let slot = &mut self.slots[i];
        if slot.is_none() {
            *slot = Some((idx, Page::Owned(Box::new([0; PAGE_SIZE]))));
            self.len += 1;
        }
        let page = slot.as_mut().map(|(_, p)| p.bytes_mut()).expect("slot just filled");
        (i, page)
    }

    /// Makes `page` the page at `idx`, replacing any resident one.
    fn insert(&mut self, idx: u64, page: Page) {
        let i = self.find_slot(idx);
        if self.slots[i].is_none() {
            self.len += 1;
        }
        self.slots[i] = Some((idx, page));
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

    fn iter(&self) -> impl Iterator<Item = (u64, &Page)> + '_ {
        self.slots.iter().flatten().map(|(k, p)| (*k, p))
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
}

impl Default for MainMemory {
    fn default() -> Self {
        MainMemory { pages: PageTable::default(), last: Cell::new((EMPTY, 0)) }
    }
}

impl MainMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a memory pre-loaded with `segments`. Only their bytes are
    /// written: a zero-filled tail already reads zero, and allocates a
    /// page only when a store first touches it.
    pub fn with_segments(segments: &[Segment]) -> Self {
        let mut mem = Self::new();
        for seg in segments {
            mem.write_bytes(seg.addr, &seg.bytes);
        }
        mem
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&PageBytes> {
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
        Some(p.bytes())
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut PageBytes {
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

    /// Returns `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0; len];
        self.read_into(addr, &mut buf);
        buf
    }

    /// A deterministic digest of all resident content strictly below
    /// `limit` (FNV-1a over sorted page indices and bytes; all-zero pages
    /// are skipped so lazily-materialized zero pages don't perturb it).
    /// Chaos campaigns compare a faulted run's committed memory against a
    /// fault-free reference with the signature-table region masked off.
    pub fn content_digest(&self, limit: u64) -> u64 {
        let mut pages: Vec<(u64, &PageBytes)> = self
            .pages
            .iter()
            .filter(|&(i, _)| (i << PAGE_SHIFT) < limit)
            .map(|(i, p)| (i, p.bytes()))
            .collect();
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

    /// Freezes every resident page: each becomes shared and immutable,
    /// so clones of this memory share them until they write them (see
    /// the module docs). The loader freezes a simulator's build image
    /// once, before cloning its views from it.
    pub fn freeze(&mut self) {
        for (_, page) in self.pages.slots.iter_mut().flatten() {
            if let Page::Owned(bytes) = page {
                *page = Page::Shared(Arc::new(**bytes));
            }
        }
    }

    /// Number of resident pages that are frozen and shared rather than
    /// private to this memory (footprint reporting: the private ones,
    /// `resident_pages() - shared_pages()`, are what this memory costs
    /// beside the image it was cloned from).
    pub fn shared_pages(&self) -> usize {
        self.pages.iter().filter(|(_, p)| matches!(p, Page::Shared(_))).count()
    }

    /// Number of resident pages that are the very pages of `other` — the
    /// same shared allocation, not merely equal bytes.
    pub fn pages_shared_with(&self, other: &MainMemory) -> usize {
        self.pages
            .iter()
            .filter(|&(idx, page)| {
                other.pages.get(idx).is_some_and(|(_, o)| page.is_shared_with(o))
            })
            .count()
    }

    /// Number of resident pages whose bytes are all zero (footprint
    /// reporting: such a page costs memory and reads like an absent one).
    pub fn zero_pages(&self) -> usize {
        self.pages.iter().filter(|(_, p)| *p.bytes() == ZERO_PAGE).count()
    }

    /// Serializes the resident pages whose bytes differ from `base`,
    /// sorted by page index (canonical order — re-serializing a restored
    /// memory is byte-identical). `base` is the build image the restore
    /// target starts from, so only what the run changed is written, and
    /// of each changed page only its changed bytes, as byte runs: sorted,
    /// disjoint and non-empty, with runs fewer than 8 equal bytes apart
    /// merged, so the encoding is canonical. A page still shared with
    /// `base` is skipped without reading it; any other page is compared
    /// by content. A page absent from `base` is compared against zeros: a
    /// build-time byte zeroed mid-run is written (it must restore as
    /// zero, not revert to its build content), while a page materialized
    /// mid-run and left all-zero is not (an absent page already reads
    /// zero).
    ///
    /// Section layout: a u64 page count, then per page its u64 index, a
    /// u16 run count, and per run a u16 offset, a u16 length and the
    /// run's bytes.
    pub fn save_state(&self, base: &MainMemory, w: &mut rev_trace::CkptWriter) {
        w.tag(TAG_MEM);
        let mut changed: Vec<(u64, &PageBytes, &PageBytes)> = self
            .pages
            .iter()
            .filter_map(|(idx, page)| {
                let b = match base.pages.get(idx) {
                    Some((_, b)) if page.is_shared_with(b) => return None,
                    b => b.map_or(&ZERO_PAGE, |(_, p)| p.bytes()),
                };
                (page.bytes() != b).then_some((idx, page.bytes(), b))
            })
            .collect();
        changed.sort_unstable_by_key(|&(idx, ..)| idx);
        w.len(changed.len());
        let mut runs = Vec::new();
        for (idx, page, base) in changed {
            page_runs(page, base, &mut runs);
            w.u64(idx);
            w.u16(runs.len() as u16);
            for &(start, end) in &runs {
                w.u16(start as u16);
                w.u16((end - start) as u16);
                w.raw(&page[start..end]);
            }
        }
    }

    /// Restores pages saved by [`MainMemory::save_state`]. Restore
    /// targets a memory equal to the `base` the checkpoint was taken
    /// against (a fresh rebuild of the same build image): every byte the
    /// run changed is in the checkpoint, and every other byte already
    /// holds the right value. Each listed page is this memory's page (or
    /// zeros, where it has none) with the runs applied, installed as a
    /// new private page, so a shared base page is replaced, never
    /// written. The last-page accelerator is reset.
    ///
    /// # Errors
    ///
    /// Returns [`rev_trace::CkptError`] on decode failure, and
    /// [`rev_trace::CkptError::Malformed`] on a page index out of order
    /// or past the address space, a page with no runs, a run count the
    /// section cannot hold, an empty run, a run past the page end, or
    /// runs out of order or overlapping.
    pub fn restore_state(
        &mut self,
        r: &mut rev_trace::CkptReader<'_>,
    ) -> Result<(), rev_trace::CkptError> {
        use rev_trace::CkptError::Malformed;
        r.tag(TAG_MEM)?;
        let n = r.len(PAGE_MIN_BYTES)?;
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let idx = r.u64()?;
            if prev.is_some_and(|p| p >= idx) || idx > u64::MAX >> PAGE_SHIFT {
                return Err(Malformed(format!("page index {idx:#x} out of order or range")));
            }
            prev = Some(idx);
            let runs = usize::from(r.u16()?);
            if runs == 0 {
                return Err(Malformed(format!("page {idx:#x} lists no runs")));
            }
            if runs * RUN_MIN_BYTES > r.remaining() {
                return Err(Malformed(format!(
                    "page {idx:#x}: {runs} runs exceed remaining {}B",
                    r.remaining()
                )));
            }
            let mut page = Box::new(self.pages.get(idx).map_or(ZERO_PAGE, |(_, p)| *p.bytes()));
            let mut end = 0;
            for _ in 0..runs {
                let start = usize::from(r.u16()?);
                let len = usize::from(r.u16()?);
                if len == 0 || start < end || start + len > PAGE_SIZE {
                    return Err(Malformed(format!(
                        "page {idx:#x}: run [{start}, {}) after byte {end}",
                        start + len
                    )));
                }
                end = start + len;
                page[start..end].copy_from_slice(r.raw(len)?);
            }
            self.pages.insert(idx, Page::Owned(page));
        }
        self.last.set((EMPTY, 0));
        Ok(())
    }
}

/// Sets `runs` to the byte runs `[start, end)` where `page` differs from
/// `base`: sorted, disjoint and non-empty, with any two runs separated
/// by fewer than [`RUN_MERGE_GAP`] equal bytes merged into one. The
/// result is a function of the two pages alone, so the encoding is
/// canonical. Pages are compared 8 bytes at a time; the first and last
/// differing byte of a word come from its XOR's zero counts.
fn page_runs(page: &PageBytes, base: &PageBytes, runs: &mut Vec<(usize, usize)>) {
    runs.clear();
    let mut open: Option<(usize, usize)> = None;
    for (i, (a, b)) in page.chunks_exact(8).zip(base.chunks_exact(8)).enumerate() {
        let x = u64::from_le_bytes(a.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(b.try_into().expect("8 bytes"));
        if x == 0 {
            continue;
        }
        let start = i * 8 + (x.trailing_zeros() / 8) as usize;
        let end = i * 8 + 8 - (x.leading_zeros() / 8) as usize;
        match &mut open {
            // A word holds at most 6 equal bytes between two differing
            // ones, fewer than the gap, so only runs across words can
            // stay apart.
            Some((_, e)) if start - *e < RUN_MERGE_GAP => *e = end,
            _ => runs.extend(open.replace((start, end))),
        }
    }
    runs.extend(open);
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
        let segs =
            vec![Segment { addr: 0x2000, bytes: vec![1, 2, 3], zero_fill: 0, writable: false }];
        let mem = MainMemory::with_segments(&segs);
        assert_eq!(mem.read_bytes(0x2000, 3), vec![1, 2, 3]);
    }

    #[test]
    fn zero_fill_allocates_no_page() {
        let segs = vec![
            Segment { addr: 0x2000, bytes: vec![1, 2, 3], zero_fill: 5 * 4096, writable: true },
            Segment { addr: 0x10_0000, bytes: Vec::new(), zero_fill: 1 << 20, writable: true },
        ];
        let mut mem = MainMemory::with_segments(&segs);
        assert_eq!((mem.resident_pages(), mem.zero_pages()), (1, 0));
        assert_eq!(mem.read_bytes(0x2000, 6), vec![1, 2, 3, 0, 0, 0]);
        assert_eq!(mem.read_u64(0x10_0000 + 4096), 0);
        mem.write_u64(0x10_0000 + 4096, 0);
        assert_eq!((mem.resident_pages(), mem.zero_pages()), (2, 1));
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
    fn clone_is_independent() {
        let mut a = MainMemory::new();
        a.write_u64(0x1000, 1);
        let mut b = a.clone();
        b.write_u64(0x1000, 2);
        assert_eq!(a.read_u64(0x1000), 1);
        assert_eq!(b.read_u64(0x1000), 2);
    }

    #[test]
    fn clones_of_a_frozen_image_share_pages_until_written() {
        let mut base = build_image();
        assert_eq!(base.shared_pages(), 0, "a loaded image is private until frozen");
        base.freeze();
        let mut view = base.clone();
        assert_eq!((view.shared_pages(), view.pages_shared_with(&base)), (3, 3));
        view.write_u8(0x1abc, 0xff);
        view.write_u8(0x1abd, 0xfe);
        assert_eq!(view.shared_pages(), 2, "the first write copies one page, once");
        assert_eq!(view.pages_shared_with(&base), 2);
        assert_eq!(base.read_u8(0x1abc), build_image().read_u8(0x1abc), "the base never changes");
        let fork = view.clone();
        assert_eq!(fork.pages_shared_with(&base), 2, "a private page is copied, not shared");
        assert_eq!(fork.read_bytes(0x1abc, 2), vec![0xff, 0xfe]);
    }

    #[test]
    fn restore_installs_private_pages_over_shared_ones() {
        let mut base = build_image();
        base.freeze();
        let mut mem = base.clone();
        mem.write_u8(0x8001, 3);
        let env = delta(&mem, &base);
        let back = restored(&base, &env);
        assert_eq!((back.shared_pages(), back.pages_shared_with(&base)), (2, 2));
        assert_eq!(back.read_u8(0x8001), 3);
        assert_eq!(base.read_u8(0x8001), 7);
        assert_eq!(delta(&back, &base), env);
    }

    /// A build image of three resident pages: two of code at 0x1000 and
    /// one of data at 0x8000.
    fn build_image() -> MainMemory {
        let code: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 251) as u8 + 1).collect();
        MainMemory::with_segments(&[
            Segment { addr: 0x1000, bytes: code, zero_fill: 0, writable: false },
            Segment { addr: 0x8000, bytes: vec![7; 64], zero_fill: 0, writable: true },
        ])
    }

    fn delta(mem: &MainMemory, base: &MainMemory) -> Vec<u8> {
        let mut w = rev_trace::CkptWriter::new();
        mem.save_state(base, &mut w);
        w.finish()
    }

    /// One listed page: its index and its runs as `(offset, bytes)`.
    type Listed = (u64, Vec<(u16, Vec<u8>)>);

    /// The pages a sealed memory section lists.
    fn listed(env: &[u8]) -> Vec<Listed> {
        let mut r = rev_trace::CkptReader::new(env).unwrap();
        r.tag(TAG_MEM).unwrap();
        let n = r.len(PAGE_MIN_BYTES).unwrap();
        (0..n)
            .map(|_| {
                let idx = r.u64().unwrap();
                let runs = (0..r.u16().unwrap())
                    .map(|_| {
                        let off = r.u16().unwrap();
                        let len = r.u16().unwrap();
                        (off, r.raw(usize::from(len)).unwrap().to_vec())
                    })
                    .collect();
                (idx, runs)
            })
            .collect()
    }

    /// A sealed memory section written field by field: per page its
    /// index and its runs as `(offset, length)`, each run's bytes 0xaa.
    /// `runs_claimed` overrides the run count of every page.
    fn section(pages: &[(u64, &[(u16, u16)])], runs_claimed: Option<u16>) -> Vec<u8> {
        let mut w = rev_trace::CkptWriter::new();
        w.tag(TAG_MEM);
        w.len(pages.len());
        for &(idx, runs) in pages {
            w.u64(idx);
            w.u16(runs_claimed.unwrap_or(runs.len() as u16));
            for &(off, len) in runs {
                w.u16(off);
                w.u16(len);
                w.raw(&vec![0xaa; usize::from(len)]);
            }
        }
        w.finish()
    }

    /// Restores a hand-written section into a copy of the build image.
    fn restore_section(env: &[u8]) -> Result<(), rev_trace::CkptError> {
        let mut mem = build_image();
        let mut r = rev_trace::CkptReader::new(env).unwrap();
        mem.restore_state(&mut r)?;
        r.finish()
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
        assert_eq!(listed(&delta(&base.clone(), &base)), vec![]);
    }

    #[test]
    fn one_byte_write_writes_one_byte() {
        let base = build_image();
        let mut mem = base.clone();
        mem.write_u8(0x1abc, 0);
        let env = delta(&mem, &base);
        assert_eq!(listed(&env), vec![(1, vec![(0xabc, vec![0])])]);
        let back = restored(&base, &env);
        assert_eq!(back.read_bytes(0x1000, 2 * PAGE_SIZE), mem.read_bytes(0x1000, 2 * PAGE_SIZE));
        assert_eq!(delta(&back, &base), env, "re-save must be byte-identical");
    }

    #[test]
    fn zeroed_build_bytes_are_written_and_restore_zero() {
        let base = build_image();
        let mut mem = base.clone();
        mem.write_bytes(0x8000, &[0; 64]);
        let env = delta(&mem, &base);
        assert_eq!(listed(&env), vec![(8, vec![(0, vec![0; 64])])]);
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
        assert_eq!(listed(&env), vec![]);
        assert_eq!(restored(&base, &env).read_u64(0x20_0000), 0);
    }

    #[test]
    fn runs_closer_than_the_gap_merge() {
        let base = build_image();
        let mut mem = base.clone();
        // Past the 64 bytes of 7s the data page holds zeros. Two bytes 7
        // equal bytes apart form one run; the third, 8 equal bytes
        // further on, starts its own. A page absent from the base is
        // taken against zeros.
        mem.write_u8(0x8100, 1);
        mem.write_u8(0x8108, 2);
        mem.write_u8(0x8111, 3);
        mem.write_u8(0x20_0ffe, 4);
        let env = delta(&mem, &base);
        let first = vec![1, 0, 0, 0, 0, 0, 0, 0, 2];
        assert_eq!(
            listed(&env),
            vec![(8, vec![(0x100, first), (0x111, vec![3])]), (0x200, vec![(0xffe, vec![4])])]
        );
        assert_eq!(delta(&restored(&base, &env), &base), env);
    }

    #[test]
    fn whole_page_runs_restore_like_the_delta() {
        // A section whose runs also cover bytes equal to the base (every
        // resident page as one 4096-byte run) is not what the encoder
        // writes, but it restores to the same memory.
        let base = build_image();
        let mut mem = base.clone();
        mem.write_u8(0x2010, 0xee);
        mem.write_u64(0x40_0000, 9);
        let mut pages: Vec<(u64, &Page)> = mem.pages.iter().collect();
        pages.sort_unstable_by_key(|&(idx, _)| idx);
        let mut w = rev_trace::CkptWriter::new();
        w.tag(TAG_MEM);
        w.len(pages.len());
        for (idx, page) in pages {
            w.u64(idx);
            w.u16(1);
            w.u16(0);
            w.u16(PAGE_SIZE as u16);
            w.raw(page.bytes());
        }
        let full = w.finish();
        let env = delta(&mem, &base);
        assert_eq!(listed(&env).iter().map(|(idx, _)| *idx).collect::<Vec<_>>(), vec![2, 0x400]);
        let (from_full, from_delta) = (restored(&base, &full), restored(&base, &env));
        assert_eq!(from_full.content_digest(u64::MAX), mem.content_digest(u64::MAX));
        assert_eq!(from_delta.content_digest(u64::MAX), mem.content_digest(u64::MAX));
        assert_eq!(delta(&from_full, &base), env);
    }

    #[test]
    fn well_formed_hand_section_restores() {
        restore_section(&section(&[(1, &[(0, 1), (8, 4088)]), (9, &[(4095, 1)])], None)).unwrap();
    }

    fn malformed(env: &[u8]) -> String {
        match restore_section(env) {
            Err(rev_trace::CkptError::Malformed(msg)) => msg,
            other => panic!("expected a malformed section, got {other:?}"),
        }
    }

    #[test]
    fn run_past_the_page_end_is_malformed() {
        assert!(malformed(&section(&[(1, &[(4090, 7)])], None)).contains("run [4090, 4097)"));
        assert!(malformed(&section(&[(1, &[(0, 4097)])], None)).contains("run [0, 4097)"));
    }

    #[test]
    fn empty_run_is_malformed() {
        assert!(malformed(&section(&[(1, &[(16, 0), (32, 8)])], None)).contains("run [16, 16)"));
    }

    #[test]
    fn unsorted_or_overlapping_runs_are_malformed() {
        let unsorted = malformed(&section(&[(1, &[(100, 4), (10, 4)])], None));
        assert!(unsorted.contains("run [10, 14) after byte 104"), "{unsorted}");
        let overlapping = malformed(&section(&[(1, &[(100, 4), (103, 4)])], None));
        assert!(overlapping.contains("run [103, 107) after byte 104"), "{overlapping}");
    }

    #[test]
    fn page_without_runs_is_malformed() {
        let pages: [(u64, &[(u16, u16)]); 2] = [(1, &[]), (2, &[(0, 100)])];
        assert!(malformed(&section(&pages, None)).contains("page 0x1 lists no runs"));
    }

    #[test]
    fn run_count_beyond_the_section_is_malformed() {
        let msg = malformed(&section(&[(1, &[(0, 1)])], Some(u16::MAX)));
        assert!(msg.contains("65535 runs exceed remaining"), "{msg}");
    }

    #[test]
    fn page_index_out_of_order_is_malformed() {
        let pages: [(u64, &[(u16, u16)]); 2] = [(9, &[(0, 1)]), (1, &[(0, 1)])];
        assert!(malformed(&section(&pages, None)).contains("page index 0x1 out of order"));
        let repeated: [(u64, &[(u16, u16)]); 2] = [(1, &[(0, 1)]), (1, &[(8, 1)])];
        assert!(malformed(&section(&repeated, None)).contains("out of order"));
        let beyond: [(u64, &[(u16, u16)]); 1] = [(u64::MAX, &[(0, 1)])];
        assert!(malformed(&section(&beyond, None)).contains("out of order"));
    }
}
