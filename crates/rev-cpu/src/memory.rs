//! The simulator's one memory: committed state plus the overlay of
//! in-flight stores.
//!
//! [`Memory`] holds a single [`MainMemory`] with committed state only,
//! the way REV's hardware does: a store the core has executed stays in
//! the store queue (and, past commit, in REV's deferred-store buffer)
//! until its block validates. The oracle executes ahead of commit, so it
//! reads through a [`StoreOverlay`] of the stores it has executed whose
//! values have not reached memory yet, and writes into that overlay.
//!
//! A store's value reaches memory when the attached monitor says so:
//! [`Memory::release`] writes it and drops its overlay entry. Values
//! reach memory oldest first, so a release never changes what the oracle
//! reads. A store that never gets released (contained after a
//! violation) stays in the overlay: the oracle, which ran it, still sees
//! it, and memory never does.
//!
//! Page shadowing (paper Sec. IV.A) holds committed stores back for a
//! whole window of execution. [`Memory::shadow`] moves a committed store
//! out of the overlay into the *shadow window*, which stands between
//! memory and the overlay and keeps one value per byte written, like the
//! shadow pages it models: it grows with the bytes a run writes, not with
//! how often it writes them. [`Memory::promote_window`] maps it into
//! memory; after a violation it never is.
//!
//! External writes (DMA, attack injection, table placement) go to
//! [`Memory::committed_mut`]: they land in memory *beneath* the overlay,
//! so an in-flight store to the same bytes still wins, in the oracle's
//! view now and in memory once it is released — a store the core
//! executed before the write drains after it.

use rev_mem::{FlatMap, MainMemory};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Buckets of the overlay's counting address filter (a power of two).
/// Word `w` counts in bucket `w % FILTER_BUCKETS`, so the stores in
/// flight around a stack frame fall in distinct buckets and a load
/// elsewhere is rejected without a hash probe.
const FILTER_BUCKETS: usize = 512;

/// One executed store whose value has not reached memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlayEntry {
    /// Fetch sequence number of the store.
    pub seq: u64,
    /// Effective address.
    pub addr: u64,
    /// The 8 bytes it stores, little-endian.
    pub value: u64,
}

/// The stores executed but not yet released, in seq order, indexed by
/// the 8-byte words they touch.
///
/// Entries are numbered in insertion order; the index maps a word to the
/// number of entries touching it and the youngest of them, so an aligned
/// load over an aligned store is one probe. A counting filter in front of
/// the index rejects most loads without probing it.
#[derive(Debug, Clone)]
pub struct StoreOverlay {
    entries: VecDeque<OverlayEntry>,
    /// Number of `entries[0]`.
    first: u64,
    /// Word → (entries touching it, number of the youngest of them).
    index: FlatMap<u64, (u32, u64)>,
    /// Entries touching a word of each bucket (see [`FILTER_BUCKETS`]).
    filter: Vec<u32>,
}

impl Default for StoreOverlay {
    fn default() -> Self {
        StoreOverlay {
            entries: VecDeque::new(),
            first: 0,
            index: FlatMap::default(),
            filter: vec![0; FILTER_BUCKETS],
        }
    }
}

impl StoreOverlay {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no store is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &OverlayEntry> + '_ {
        self.entries.iter()
    }

    #[inline]
    fn bucket(word: u64) -> usize {
        (word as usize) & (FILTER_BUCKETS - 1)
    }

    fn push(&mut self, entry: OverlayEntry) {
        debug_assert!(self.entries.back().is_none_or(|b| b.seq < entry.seq), "seq order");
        let number = self.first + self.entries.len() as u64;
        for w in Self::words_of(entry.addr, 8) {
            self.filter[Self::bucket(w)] += 1;
            let slot = self.index.entry(w).or_insert((0, number));
            *slot = (slot.0 + 1, number);
        }
        self.entries.push_back(entry);
    }

    fn pop_front(&mut self) -> Option<OverlayEntry> {
        let entry = self.entries.pop_front()?;
        self.first += 1;
        for w in Self::words_of(entry.addr, 8) {
            self.filter[Self::bucket(w)] -= 1;
            if let Entry::Occupied(mut slot) = self.index.entry(w) {
                if slot.get().0 > 1 {
                    slot.get_mut().0 -= 1;
                } else {
                    slot.remove();
                }
            }
        }
        Some(entry)
    }

    /// Removes the entry of `seq`: the oldest one on every path a run
    /// takes, any one otherwise (the index is then rebuilt).
    fn remove(&mut self, seq: u64) -> Option<OverlayEntry> {
        if self.entries.front()?.seq == seq {
            return self.pop_front();
        }
        let at = self.entries.binary_search_by_key(&seq, |e| e.seq).ok()?;
        let entry = self.entries.remove(at);
        let rest: Vec<OverlayEntry> = self.entries.drain(..).collect();
        *self = StoreOverlay::default();
        rest.into_iter().for_each(|e| self.push(e));
        entry
    }

    /// The words `len > 0` bytes at `addr` touch, lowest first.
    #[inline]
    pub(crate) fn words_of(addr: u64, len: usize) -> impl Iterator<Item = u64> {
        let first = addr >> 3;
        let span = (addr.wrapping_add(len as u64 - 1) >> 3).wrapping_sub(first);
        (0..=span).map(move |i| first.wrapping_add(i))
    }

    /// Overwrites `buf` (the bytes at `addr` as memory holds them) with
    /// the youngest overlay bytes covering each of its bytes.
    #[inline]
    fn apply(&self, addr: u64, buf: &mut [u8]) {
        if !self.entries.is_empty()
            && Self::words_of(addr, buf.len()).any(|w| self.filter[Self::bucket(w)] != 0)
        {
            self.apply_indexed(addr, buf);
        }
    }

    /// [`Self::apply`] past the filter.
    fn apply_indexed(&self, addr: u64, buf: &mut [u8]) {
        if buf.len() == 8 && addr & 7 == 0 {
            // An aligned word: its youngest entry, when aligned too,
            // covers every byte.
            let Some(&(_, youngest)) = self.index.get(&(addr >> 3)) else { return };
            let e = &self.entries[(youngest - self.first) as usize];
            if e.addr == addr {
                buf.copy_from_slice(&e.value.to_le_bytes());
                return;
            }
        } else if !Self::words_of(addr, buf.len()).any(|w| self.index.contains_key(&w)) {
            return;
        }
        // General case: youngest first, each byte takes the first entry
        // that covers it.
        let len = buf.len() as u64;
        let mut unresolved: u32 = if len >= 32 { u32::MAX } else { (1 << len) - 1 };
        for e in self.entries.iter().rev() {
            for (i, b) in e.value.to_le_bytes().into_iter().enumerate() {
                let off = e.addr.wrapping_add(i as u64).wrapping_sub(addr);
                if off < len && unresolved & (1 << off) != 0 {
                    buf[off as usize] = b;
                    unresolved &= !(1 << off);
                }
            }
            if unresolved == 0 {
                return;
            }
        }
    }
}

/// A shadow-window word as a checkpoint carries it: the word number
/// (address / 8), its bytes (little-endian) and the mask of the bytes the
/// window holds.
pub type WindowWord = (u64, u64, u8);

/// The bits of the bytes `mask` selects.
#[inline]
fn byte_bits(mask: u8) -> u64 {
    (0..8).filter(|i| mask & (1 << i) != 0).fold(0, |bits, i| bits | 0xff << (8 * i))
}

/// Committed memory plus the overlay of in-flight stores (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct Memory {
    main: MainMemory,
    /// Page shadowing's window: word → (bytes, mask of the bytes held).
    window: FlatMap<u64, (u64, u8)>,
    overlay: StoreOverlay,
}

impl Memory {
    /// A memory holding `main` as its committed state, with no store in
    /// flight.
    pub fn new(main: MainMemory) -> Self {
        Memory { main, window: FlatMap::default(), overlay: StoreOverlay::default() }
    }

    /// Committed memory: every released store, no in-flight one.
    pub fn committed(&self) -> &MainMemory {
        &self.main
    }

    /// Committed memory for an external write (DMA, attack injection,
    /// table placement): it lands beneath the overlay.
    pub fn committed_mut(&mut self) -> &mut MainMemory {
        &mut self.main
    }

    /// The in-flight stores.
    pub fn overlay(&self) -> &StoreOverlay {
        &self.overlay
    }

    /// Reads `buf.len()` bytes (at most 32) at `addr` as the oracle sees
    /// them: committed memory under the shadow window under the in-flight
    /// stores.
    #[inline]
    pub fn read_into(&self, addr: u64, buf: &mut [u8]) {
        debug_assert!(buf.len() <= 32, "overlay reads are instruction- or word-sized");
        self.main.read_into(addr, buf);
        if !buf.is_empty() {
            if !self.window.is_empty() {
                self.apply_window(addr, buf);
            }
            self.overlay.apply(addr, buf);
        }
    }

    /// Overwrites `buf` with the window bytes covering any of its bytes.
    fn apply_window(&self, addr: u64, buf: &mut [u8]) {
        for w in StoreOverlay::words_of(addr, buf.len()) {
            let Some(&(bytes, mask)) = self.window.get(&w) else { continue };
            for (i, b) in bytes.to_le_bytes().into_iter().enumerate() {
                let off = (w << 3).wrapping_add(i as u64).wrapping_sub(addr);
                if mask & (1 << i) != 0 && off < buf.len() as u64 {
                    buf[off as usize] = b;
                }
            }
        }
    }

    /// Reads a little-endian u64 as the oracle sees it.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        self.read_into(addr, &mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// The oracle executed a store: it joins the overlay.
    #[inline]
    pub(crate) fn execute_store(&mut self, seq: u64, addr: u64, value: u64) {
        self.overlay.push(OverlayEntry { seq, addr, value });
    }

    /// The store `seq` reaches memory: `value` is written at `addr` and
    /// the store leaves the overlay. The caller passes the value it
    /// holds (REV's deferred-store buffer, or the committing slot), so a
    /// value damaged in that buffer lands as damaged as it is.
    pub fn release(&mut self, seq: u64, addr: u64, value: u64) {
        self.main.write_u64(addr, value);
        let entry = self.overlay.remove(seq);
        debug_assert!(entry.is_some(), "released store {seq} is not in flight");
    }

    /// Every in-flight store with `seq <= through` reaches memory with
    /// its overlay value, oldest first. Returns how many did.
    pub fn release_through(&mut self, through: u64) -> usize {
        let mut released = 0;
        while self.overlay.entries.front().is_some_and(|e| e.seq <= through) {
            let e = self.overlay.pop_front().expect("front checked");
            self.main.write_u64(e.addr, e.value);
            released += 1;
        }
        released
    }

    /// The committed store `seq` leaves the overlay for the shadow window
    /// (page shadowing): the oracle still reads it, memory does not hold
    /// it until [`Memory::promote_window`]. Window bytes are older than
    /// every store in flight, so no read changes.
    pub fn shadow(&mut self, seq: u64) {
        let Some(e) = self.overlay.remove(seq) else {
            debug_assert!(false, "shadowed store {seq} is not in flight");
            return;
        };
        let k = e.addr & 7;
        self.window_merge(e.addr >> 3, e.value << (8 * k), 0xff << k);
        if k != 0 {
            self.window_merge(
                (e.addr >> 3).wrapping_add(1),
                e.value >> (64 - 8 * k),
                0xff >> (8 - k),
            );
        }
    }

    /// Writes the `mask` bytes of `bytes` into window word `word`.
    fn window_merge(&mut self, word: u64, bytes: u64, mask: u8) {
        let slot = self.window.entry(word).or_insert((0, 0));
        let bits = byte_bits(mask);
        *slot = ((slot.0 & !bits) | (bytes & bits), slot.1 | mask);
    }

    /// Page shadowing's promotion: the whole window reaches memory and
    /// empties. Returns how many words did.
    pub fn promote_window(&mut self) -> usize {
        let window = std::mem::take(&mut self.window);
        let words = window.len();
        for (word, (bytes, mask)) in window {
            let addr = word << 3;
            if mask == 0xff {
                self.main.write_u64(addr, bytes);
            } else {
                for (i, b) in bytes.to_le_bytes().into_iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        self.main.write_u8(addr + i as u64, b);
                    }
                }
            }
        }
        words
    }

    /// The shadow window, lowest word first.
    pub fn window(&self) -> Vec<WindowWord> {
        let mut words: Vec<WindowWord> =
            self.window.iter().map(|(&w, &(b, m))| (w, b, m)).collect();
        words.sort_unstable_by_key(|&(w, ..)| w);
        words
    }

    /// Replaces the shadow window with `words` (a restored run's, lowest
    /// first).
    ///
    /// # Errors
    ///
    /// Returns [`rev_trace::CkptError::Malformed`] when the words are not
    /// strictly increasing, a mask is empty, or a byte lies outside its
    /// mask — a window no run holds.
    pub fn restore_window(&mut self, words: &[WindowWord]) -> Result<(), rev_trace::CkptError> {
        let malformed = |what: &str| Err(rev_trace::CkptError::Malformed(what.to_string()));
        if !words.windows(2).all(|p| p[0].0 < p[1].0) {
            return malformed("shadow-window words out of order");
        }
        if words.iter().any(|&(_, bytes, mask)| mask == 0 || bytes & !byte_bits(mask) != 0) {
            return malformed("shadow-window word with an empty mask or a byte outside it");
        }
        self.window = words.iter().map(|&(w, b, m)| (w, (b, m))).collect();
        Ok(())
    }

    /// Replaces the overlay with `stores` (a restored run's in-flight
    /// stores, oldest first).
    ///
    /// # Errors
    ///
    /// Returns [`rev_trace::CkptError::Malformed`] when the seqs are not
    /// strictly increasing.
    pub fn rebuild_overlay(
        &mut self,
        stores: impl IntoIterator<Item = OverlayEntry>,
    ) -> Result<(), rev_trace::CkptError> {
        self.overlay = StoreOverlay::default();
        for e in stores {
            if self.overlay.entries.back().is_some_and(|b| b.seq >= e.seq) {
                return Err(rev_trace::CkptError::Malformed(format!(
                    "in-flight store {} out of seq order",
                    e.seq
                )));
            }
            self.overlay.push(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory() -> Memory {
        let mut main = MainMemory::new();
        main.write_bytes(0x1000, &[0x11; 64]);
        Memory::new(main)
    }

    #[test]
    fn in_flight_stores_show_over_memory_and_not_in_it() {
        let mut m = memory();
        m.execute_store(1, 0x1008, 0xaaaa);
        assert_eq!(m.read_u64(0x1008), 0xaaaa);
        assert_eq!(m.committed().read_u64(0x1008), 0x1111_1111_1111_1111);
        m.release(1, 0x1008, 0xaaaa);
        assert!(m.overlay().is_empty());
        assert_eq!(m.committed().read_u64(0x1008), 0xaaaa);
        assert_eq!(m.read_u64(0x1008), 0xaaaa);
    }

    #[test]
    fn the_youngest_overlapping_bytes_win() {
        let mut m = memory();
        m.execute_store(1, 0x1000, u64::from_le_bytes([1; 8]));
        m.execute_store(2, 0x1004, u64::from_le_bytes([2; 8]));
        m.execute_store(3, 0x1002, u64::from_le_bytes([3, 3, 0, 0, 0, 0, 0, 0]));
        let mut buf = [0u8; 16];
        m.read_into(0x1000, &mut buf);
        assert_eq!(buf, [1, 1, 3, 3, 0, 0, 0, 0, 0, 0, 2, 2, 0x11, 0x11, 0x11, 0x11]);
        // An aligned read over an unaligned youngest store.
        assert_eq!(m.read_u64(0x1008).to_le_bytes(), [0, 0, 2, 2, 0x11, 0x11, 0x11, 0x11]);
    }

    #[test]
    fn a_store_straddling_a_word_and_a_page_is_seen_from_both_sides() {
        let mut m = memory();
        m.execute_store(7, 0x1ffd, u64::from_le_bytes([9, 8, 7, 6, 5, 4, 3, 2]));
        assert_eq!(m.read_u64(0x1ff8).to_le_bytes(), [0, 0, 0, 0, 0, 9, 8, 7]);
        assert_eq!(m.read_u64(0x2000).to_le_bytes(), [6, 5, 4, 3, 2, 0, 0, 0]);
    }

    #[test]
    fn releases_keep_the_view_and_drop_only_their_entry() {
        let mut m = memory();
        for seq in 1..=4 {
            m.execute_store(seq, 0x1010, seq);
        }
        let view = m.read_u64(0x1010);
        for seq in 1..=3 {
            m.release(seq, 0x1010, seq);
            assert_eq!(m.read_u64(0x1010), view, "release {seq} changed the view");
        }
        assert_eq!(m.overlay().len(), 1);
        assert_eq!(m.committed().read_u64(0x1010), 3);
    }

    #[test]
    fn release_through_drains_oldest_first() {
        let mut m = memory();
        m.execute_store(3, 0x1020, 30);
        m.execute_store(5, 0x1020, 50);
        m.execute_store(9, 0x1028, 90);
        assert_eq!(m.release_through(5), 2);
        assert_eq!(m.committed().read_u64(0x1020), 50);
        assert_eq!(m.read_u64(0x1028), 90);
        assert_eq!(m.committed().read_u64(0x1028), 0x1111_1111_1111_1111);
    }

    #[test]
    fn an_out_of_order_release_keeps_the_rest_indexed() {
        let mut m = memory();
        m.execute_store(1, 0x1000, 10);
        m.execute_store(2, 0x1008, 20);
        m.execute_store(3, 0x1000, 30);
        m.release(2, 0x1008, 20);
        assert_eq!((m.read_u64(0x1000), m.read_u64(0x1008)), (30, 20));
        m.release(1, 0x1000, 10);
        m.release(3, 0x1000, 30);
        assert!(m.overlay().is_empty());
        assert_eq!(m.read_u64(0x1000), 30);
    }

    /// An external write lands in memory beneath the overlay: a store
    /// executed before it still wins, in the oracle's view at once and in
    /// memory once released; bytes the store does not cover show the
    /// external write at once.
    #[test]
    fn an_external_write_lands_beneath_an_in_flight_store() {
        let mut m = memory();
        m.execute_store(1, 0x1004, u64::from_le_bytes([7; 8]));
        m.committed_mut().write_bytes(0x1000, &[0xee; 16]);
        assert_eq!(m.read_u64(0x1000).to_le_bytes(), [0xee, 0xee, 0xee, 0xee, 7, 7, 7, 7]);
        m.release(1, 0x1004, u64::from_le_bytes([7; 8]));
        let head = m.committed().read_u64(0x1000).to_le_bytes();
        assert_eq!(head, [0xee, 0xee, 0xee, 0xee, 7, 7, 7, 7]);
        let tail = m.committed().read_u64(0x1008).to_le_bytes();
        assert_eq!(tail, [7, 7, 7, 7, 0xee, 0xee, 0xee, 0xee]);
    }

    /// The shadow window keeps one value per byte: the oracle reads it,
    /// memory gets it only at promotion, and a rewrite costs nothing.
    #[test]
    fn the_shadow_window_holds_bytes_until_promotion() {
        let mut m = memory();
        m.execute_store(1, 0x1000, 10);
        m.execute_store(2, 0x1004, u64::from_le_bytes([2; 8]));
        m.execute_store(3, 0x1000, 30);
        m.execute_store(4, 0x1ffd, u64::from_le_bytes([4; 8]));
        m.execute_store(5, 0x1020, 50);
        for seq in 1..=4 {
            m.shadow(seq);
        }
        assert_eq!(m.overlay().len(), 1, "the uncommitted store stays in flight");
        assert_eq!(m.window().len(), 4, "0x1000, 0x1008, 0x1ff8, 0x2000");
        let mut view = [0u8; 16];
        m.read_into(0x1000, &mut view);
        assert_eq!(view, [30, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 0x11, 0x11, 0x11, 0x11]);
        assert_eq!(m.read_u64(0x1ff8).to_le_bytes(), [0, 0, 0, 0, 0, 4, 4, 4]);
        assert_eq!(m.committed().read_u64(0x1000), 0x1111_1111_1111_1111);
        assert_eq!(m.promote_window(), 4);
        let mut held = [0u8; 16];
        m.committed().read_into(0x1000, &mut held);
        assert_eq!(held, view);
        assert_eq!(m.committed().read_u64(0x2000).to_le_bytes(), [4, 4, 4, 4, 4, 0, 0, 0]);
        assert!(m.window().is_empty());
        assert_eq!(m.read_u64(0x1020), 50);
    }

    #[test]
    fn a_restored_window_must_be_one_a_run_holds() {
        let mut m = memory();
        m.restore_window(&[(0x200, 7, 0x01), (0x201, 0xff00, 0x02)]).unwrap();
        assert_eq!(m.read_u64(0x1000).to_le_bytes()[0], 7);
        assert!(m.restore_window(&[(0x201, 1, 1), (0x200, 1, 1)]).is_err(), "out of order");
        assert!(m.restore_window(&[(0x200, 0, 0)]).is_err(), "empty mask");
        assert!(m.restore_window(&[(0x200, 0x100, 0x01)]).is_err(), "byte outside the mask");
    }

    #[test]
    fn rebuild_rejects_stores_out_of_order() {
        let mut m = memory();
        let e = |seq| OverlayEntry { seq, addr: 0x1000, value: seq };
        m.rebuild_overlay([e(1), e(4)]).unwrap();
        assert_eq!(m.read_u64(0x1000), 4);
        assert!(m.rebuild_overlay([e(4), e(4)]).is_err());
    }
}
