//! Property tests: the set-associative cache against a reference model,
//! main-memory read/write consistency, copy-on-write page sharing
//! against deep copies, and the byte-run memory section: exact round
//! trips, and no panic on any resealed corruption.

use proptest::prelude::*;
use rev_mem::{
    Cache, CacheConfig, Hierarchy, MainMemory, MemConfig, Request, Requester, Tlb, TlbConfig,
};
use rev_prog::Segment;
use rev_trace::{ckpt_checksum, CkptFields, CkptReader, CkptWriter};
use std::collections::VecDeque;

/// Bytes of the address window the page-sharing properties write: eight
/// pages, so random writes land on shared pages often.
const WINDOW: u64 = 8 * 4096;

/// A build image over the window: five of its eight pages resident, with
/// content that differs page to page.
fn image() -> MainMemory {
    let bytes: Vec<u8> = (0..5 * 4096).map(|i: usize| (i % 253) as u8 ^ (i / 4096) as u8).collect();
    MainMemory::with_segments(&[Segment { addr: 0x1000, bytes, zero_fill: 0, writable: true }])
}

/// The window's bytes, read back.
fn window(mem: &MainMemory) -> Vec<u8> {
    mem.read_bytes(0, WINDOW as usize)
}

/// The sealed memory section of `mem` taken against `base`.
fn delta(mem: &MainMemory, base: &MainMemory) -> Vec<u8> {
    let mut w = CkptWriter::new();
    mem.save_state(base, &mut w);
    w.finish()
}

/// Reference model: per-set LRU list of line addresses.
#[derive(Debug)]
struct RefCache {
    sets: Vec<VecDeque<u64>>, // front = MRU
    assoc: usize,
    line: u64,
}

impl RefCache {
    fn new(sets: usize, assoc: usize, line: u64) -> Self {
        RefCache { sets: (0..sets).map(|_| VecDeque::new()).collect(), assoc, line }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line_addr = addr / self.line;
        let set = (line_addr % self.sets.len() as u64) as usize;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&l| l == line_addr) {
            s.remove(pos);
            s.push_front(line_addr);
            true
        } else {
            s.push_front(line_addr);
            if s.len() > self.assoc {
                s.pop_back();
            }
            false
        }
    }
}

proptest! {
    /// The cache's hit/miss behavior matches a reference LRU model for
    /// arbitrary access traces.
    #[test]
    fn cache_matches_reference_lru(addrs in proptest::collection::vec(0u64..8192, 1..400)) {
        let config = CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 64, latency: 1 };
        let mut dut = Cache::new(config);
        let mut model = RefCache::new(config.num_sets(), config.assoc, 64);
        for &a in &addrs {
            let expected = model.access(a);
            let got = dut.access(a, false).hit;
            prop_assert_eq!(got, expected, "divergence at addr {:#x}", a);
        }
    }

    /// Main memory: the last write wins, and reads never disturb state.
    #[test]
    fn memory_last_write_wins(
        writes in proptest::collection::vec((0u64..10_000, any::<u64>()), 1..100),
    ) {
        let mut mem = MainMemory::new();
        let mut model = std::collections::HashMap::new();
        for &(addr, val) in &writes {
            let addr = addr * 8; // aligned, non-overlapping cells
            mem.write_u64(addr, val);
            model.insert(addr, val);
        }
        for (&addr, &val) in &model {
            prop_assert_eq!(mem.read_u64(addr), val);
        }
    }

    /// Byte-level and word-level access views agree.
    #[test]
    fn memory_byte_word_consistency(addr in 0u64..1_000_000, val in any::<u64>()) {
        let mut mem = MainMemory::new();
        mem.write_u64(addr, val);
        let bytes = mem.read_bytes(addr, 8);
        prop_assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), val);
    }

    /// TLB hit rate model: accesses within one page always hit after the
    /// first touch, regardless of history, while capacity is respected.
    #[test]
    fn tlb_same_page_hits(pages in proptest::collection::vec(0u64..64, 1..100)) {
        let mut tlb = Tlb::new(TlbConfig::with_entries(8));
        for &p in &pages {
            let addr = p * 4096;
            let first = tlb.access(addr);
            let second = tlb.access(addr + 123);
            // After the fill, the very next access to the same page hits.
            prop_assert!(second, "page {p} missed immediately after fill (first={first})");
        }
    }

    /// Copy-on-write views read exactly like deep copies. Random byte
    /// and word writes, clones and freezes run over a frozen base image
    /// and a tree of clones (each cloned from the base or from an earlier
    /// clone, some frozen in turn), against one plain byte vector per
    /// memory that is copied on every clone. A write reaches only the
    /// memory it was made to, and the base never changes.
    #[test]
    fn shared_pages_behave_like_deep_copies(
        ops in proptest::collection::vec((0u8..6, 0usize..64, 0u64..WINDOW - 8, any::<u64>()), 1..160),
    ) {
        let mut base = image();
        base.freeze();
        let mut mems = vec![base];
        let mut models = vec![window(&mems[0])];
        for &(kind, who, addr, value) in &ops {
            // The base (memory 0) is only ever cloned from.
            let k = who % mems.len();
            match kind {
                0 | 1 if k > 0 => {
                    mems[k].write_u8(addr, value as u8);
                    models[k][addr as usize] = value as u8;
                }
                2 if k > 0 => {
                    mems[k].write_u64(addr, value);
                    models[k][addr as usize..addr as usize + 8].copy_from_slice(&value.to_le_bytes());
                }
                3 if k > 0 => mems[k].freeze(),
                _ if mems.len() < 10 => {
                    mems.push(mems[k].clone());
                    models.push(models[k].clone());
                }
                _ => {}
            }
        }
        for (i, (mem, model)) in mems.iter().zip(&models).enumerate() {
            prop_assert!(window(mem) == *model, "memory {} diverged from its deep copy", i);
        }
        prop_assert_eq!(window(&mems[0]), window(&image()));
    }

    /// A checkpoint's memory section does not depend on whether the base
    /// shares pages with the memory: saved against the frozen base it
    /// came from, and against a deep copy of that base (an equal image
    /// that shares nothing), a view writes the same bytes — also when
    /// the view froze its own written pages (shared, but not the base's).
    #[test]
    fn save_against_shared_base_matches_deep_copy(
        writes in proptest::collection::vec((0u64..WINDOW + 4096, any::<u8>()), 0..40),
        freeze_view in any::<bool>(),
    ) {
        let mut base = image();
        base.freeze();
        let mut view = base.clone();
        for &(addr, value) in &writes {
            view.write_u8(addr, value);
        }
        if freeze_view {
            view.freeze();
        }
        prop_assert_eq!(delta(&view, &base), delta(&view, &image()));
    }

    /// A view's memory section restores exactly: overlaid on a copy of
    /// the base it reads like the view, and saving it again writes the
    /// same bytes. Writes mix random bytes with bytes equal to the base
    /// (`same`), so runs split, merge and vanish.
    #[test]
    fn byte_run_section_round_trips(
        writes in proptest::collection::vec((0u64..WINDOW + 4096, any::<u8>(), any::<bool>()), 0..60),
    ) {
        let mut base = image();
        base.freeze();
        let mut view = base.clone();
        for &(addr, value, same) in &writes {
            view.write_u8(addr, if same { base.read_u8(addr) } else { value });
        }
        let env = delta(&view, &base);
        let mut back = base.clone();
        let mut r = CkptReader::new(&env).unwrap();
        back.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert!(back.read_bytes(0, (WINDOW + 4096) as usize) == view.read_bytes(0, (WINDOW + 4096) as usize));
        prop_assert_eq!(delta(&back, &base), env);
    }

    /// The byte-run decoder never panics: one byte of a real section
    /// (several pages, several runs each) XORed, the checksum re-sealed,
    /// and the restore either succeeds or returns a structured error.
    #[test]
    fn resealed_run_corruption_never_panics(pos_seed in any::<u64>(), xor in 1u8..=255) {
        let mut base = image();
        base.freeze();
        let mut view = base.clone();
        for (i, addr) in [0x10, 0x30, 0x1ff8, 0x2400, 0x5000, 0x7ffe].into_iter().enumerate() {
            view.write_u8(addr, 0x80 | i as u8);
        }
        let mut env = delta(&view, &base);
        // Skip the header (magic, version); keep the checksum last.
        let body = 12..env.len() - 8;
        env[body.start + (pos_seed % body.len() as u64) as usize] ^= xor;
        let sum = ckpt_checksum(&env[..body.end]);
        env[body.end..].copy_from_slice(&sum.to_le_bytes());
        let mut back = base.clone();
        let mut r = CkptReader::new(&env).unwrap();
        let _ = back.restore_state(&mut r).and_then(|()| r.finish());
    }

    /// The sparse cache-line decoder never panics: one byte of a real
    /// hierarchy section (valid lines in every level, TLBs, DRAM) XORed,
    /// the checksum re-sealed, and the restore either succeeds or
    /// returns a structured error.
    #[test]
    fn resealed_hierarchy_corruption_never_panics(pos_seed in any::<u64>(), xor in 1u8..=255) {
        let mut hier = Hierarchy::new(MemConfig::paper_default());
        for i in 0..64u64 {
            let addr = i.wrapping_mul(0x9e37_79b9) & 0xf_ffc0;
            hier.data_access(Request { addr, is_write: i % 3 == 0, requester: Requester::Data, cycle: i * 10 });
            hier.fetch_access(0x1000 + i * 64, i * 10);
        }
        let mut w = CkptWriter::new();
        hier.save_fields(&mut w);
        let mut env = w.finish();
        let body = 12..env.len() - 8;
        env[body.start + (pos_seed % body.len() as u64) as usize] ^= xor;
        let sum = ckpt_checksum(&env[..body.end]);
        env[body.end..].copy_from_slice(&sum.to_le_bytes());
        let mut back = Hierarchy::new(MemConfig::paper_default());
        let mut r = CkptReader::new(&env).unwrap();
        let _ = back.load_fields(&mut r).and_then(|()| r.finish());
    }
}
