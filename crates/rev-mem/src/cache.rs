//! Set-associative, write-back, write-allocate tag-only cache model with
//! true-LRU replacement.

#[cfg(test)]
use rev_trace::CkptFields;
use rev_trace::{Ckpt, CkptError, CkptReader, CkptWriter};

/// Static configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Access (hit) latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// `assoc * line_bytes`, or line size not a power of two).
    pub fn num_sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        let per_way = self.assoc * self.line_bytes;
        assert!(self.size_bytes.is_multiple_of(per_way), "capacity must divide evenly into sets");
        self.size_bytes / per_way
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses (including cold).
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]` (0 if never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64, // larger = more recently used
}

/// The result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Address of a dirty line evicted to make room (write-back traffic).
    pub evicted_dirty: Option<u64>,
}

/// A single tag-only cache level.
///
/// # Example
///
/// ```
/// use rev_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig {
///     size_bytes: 1024, assoc: 2, line_bytes: 64, latency: 2,
/// });
/// assert!(!c.access(0x40, false).hit); // cold miss
/// assert!(c.access(0x40, false).hit);  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// All ways of all sets in one flat allocation: set `s` occupies
    /// `lines[s * assoc .. (s + 1) * assoc]`. One contiguous stripe per
    /// probe instead of a `Vec<Vec<_>>` double indirection.
    lines: Vec<Line>,
    num_sets: usize,
    stats: CacheStats,
    tick: u64,
    offset_bits: u32,
    index_mask: u64,
}

impl Cache {
    /// Creates a cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            config,
            lines: vec![Line::default(); config.assoc * num_sets],
            num_sets,
            stats: CacheStats::default(),
            tick: 0,
            offset_bits: config.line_bytes.trailing_zeros(),
            index_mask: num_sets as u64 - 1,
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the counters (contents stay).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.offset_bits;
        ((line & self.index_mask) as usize, line >> self.num_sets.trailing_zeros())
    }

    #[inline]
    fn set(&self, set_idx: usize) -> &[Line] {
        &self.lines[set_idx * self.config.assoc..(set_idx + 1) * self.config.assoc]
    }

    /// Accesses `addr`; on a miss, allocates the line (write-allocate) and
    /// reports any dirty eviction. `is_write` marks the line dirty.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        self.tick += 1;
        self.stats.accesses += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let set_shift = self.num_sets.trailing_zeros();
        let assoc = self.config.assoc;
        let set = &mut self.lines[set_idx * assoc..(set_idx + 1) * assoc];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            line.dirty |= is_write;
            return CacheAccess { hit: true, evicted_dirty: None };
        }

        self.stats.misses += 1;
        // Victim: invalid line if any, else true LRU. A zero-way set
        // (ruled out by `MemConfig::validate`) degrades to an
        // allocate-nothing miss instead of panicking.
        let victim_idx = set
            .iter()
            .position(|l| !l.valid)
            .or_else(|| set.iter().enumerate().min_by_key(|(_, l)| l.lru).map(|(i, _)| i));
        let Some(victim_idx) = victim_idx else {
            debug_assert!(false, "cache set has at least one way");
            return CacheAccess { hit: false, evicted_dirty: None };
        };
        let victim = set[victim_idx];
        let evicted_dirty = if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            // Reconstruct the victim's address for write-back traffic.
            let line_addr = (victim.tag << set_shift | set_idx as u64) << self.offset_bits;
            Some(line_addr)
        } else {
            None
        };
        set[victim_idx] = Line { tag, valid: true, dirty: is_write, lru: self.tick };
        CacheAccess { hit: false, evicted_dirty }
    }

    /// Probes without side effects (no LRU update, no allocation).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.set(set_idx).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates the line containing `addr`, if resident. Returns `true`
    /// if a line was dropped.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        let assoc = self.config.assoc;
        for line in &mut self.lines[set_idx * assoc..(set_idx + 1) * assoc] {
            if line.valid && line.tag == tag {
                line.valid = false;
                return true;
            }
        }
        false
    }

    /// Hit latency in cycles.
    pub fn latency(&self) -> u64 {
        self.config.latency
    }
}

/// The valid lines of a cache: an invalid line restores as
/// `Line::default()`, since no access reads an invalid line's tag, dirty
/// bit or LRU stamp.
struct ValidLines;

impl rev_trace::SparseTable for ValidLines {
    type Slot = Line;

    fn occupied(line: &Line) -> bool {
        line.valid
    }
}

// The flat line order is part of the deterministic model state; only
// valid lines travel, each at its position.
rev_trace::ckpt_fields!(CkptFields for Cache { tick, stats, lines => rev_trace::Sparse<ValidLines> });
rev_trace::ckpt_fields!(Ckpt for CacheStats { accesses, misses, writebacks });

/// A line packs its valid and dirty bits into one flag byte (bit 0
/// valid, bit 1 dirty); the golden envelope tests pin this layout.
impl Ckpt for Line {
    const MIN_BYTES: usize = 17;

    fn save(&self, w: &mut CkptWriter) {
        w.u64(self.tag);
        w.u8(u8::from(self.valid) | (u8::from(self.dirty) << 1));
        w.u64(self.lru);
    }

    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let mut line = Line::default();
        line.load_into(r)?;
        Ok(line)
    }

    /// In place: a restore rewrites every line of a constructor-built
    /// cache, and building each line as a returned value costs twice as
    /// much.
    fn load_into(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.tag = r.u64()?;
        let flags = r.u8()?;
        if flags > 0b11 {
            return Err(CkptError::Malformed(format!("cache line flag byte {flags:#04x}")));
        }
        self.valid = flags & 1 != 0;
        self.dirty = flags & 2 != 0;
        self.lru = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B
        Cache::new(CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 64, latency: 2 })
    }

    /// The cache's sealed state: tick, stats, then the sparse lines.
    fn sealed(c: &Cache) -> Vec<u8> {
        let mut w = CkptWriter::new();
        c.save_fields(&mut w);
        w.finish()
    }

    #[test]
    fn only_valid_lines_travel_and_invalid_ones_restore_default() {
        let mut c = small();
        c.access(0x000, true);
        c.access(0x040, false);
        let env = sealed(&c);
        // tick + three stats + length + count + two (u32, 17-byte) lines.
        assert_eq!(env.len(), 12 + 8 + 24 + 8 + 8 + 2 * 21 + 8);
        let mut back = small();
        back.access(0x1000, false); // a line the checkpoint must clear
        let mut r = CkptReader::new(&env).unwrap();
        back.load_fields(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(sealed(&back), env);
        assert!(back.access(0x000, false).hit && back.access(0x040, false).hit);
        assert!(!back.access(0x1000, false).hit, "an unlisted line restores invalid");
    }

    #[test]
    fn a_listed_invalid_line_is_malformed() {
        let c = small();
        let mut w = CkptWriter::new();
        c.tick.save(&mut w);
        c.stats.save(&mut w);
        w.len(c.lines.len());
        w.len(1);
        w.u32(0);
        Line { tag: 3, valid: false, dirty: false, lru: 1 }.save(&mut w);
        let env = w.finish();
        let mut back = small();
        let mut r = CkptReader::new(&env).unwrap();
        let err = back.load_fields(&mut r).unwrap_err();
        assert!(
            matches!(err, CkptError::Malformed(ref m) if m.contains("listed unoccupied")),
            "{err}"
        );
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().num_sets(), 2);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x00, false).hit);
        assert!(c.access(0x00, false).hit);
        assert!(c.access(0x3f, false).hit, "same line");
        assert!(!c.access(0x40, false).hit, "different set");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set 0 holds lines with addr bits [6] == 0: 0x000, 0x080, 0x100...
        c.access(0x000, false);
        c.access(0x080, false); // set 0 now full
        c.access(0x000, false); // touch 0x000, making 0x080 LRU
        c.access(0x100, false); // evicts 0x080
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0x000, true); // dirty
        c.access(0x080, false);
        let r = c.access(0x100, false); // evicts dirty 0x000
        assert_eq!(r.evicted_dirty, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x080, false);
        let r = c.access(0x100, false);
        assert_eq!(r.evicted_dirty, None);
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut c = small();
        c.access(0x000, false);
        let before = c.stats();
        assert!(c.probe(0x000));
        assert!(!c.probe(0x40));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn invalidate_drops_line() {
        let mut c = small();
        c.access(0x000, false);
        assert!(c.invalidate(0x000));
        assert!(!c.probe(0x000));
        assert!(!c.invalidate(0x000));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.misses, 2);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x000, true); // dirty via hit
        c.access(0x080, false);
        let r = c.access(0x100, false);
        assert_eq!(r.evicted_dirty, Some(0x000));
    }
}
