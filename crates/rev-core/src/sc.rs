//! The signature cache (SC): a small set-associative cache of decrypted
//! reference signatures, probed by BB address (paper Secs. IV.A, IV.C).
//!
//! Each resident entry carries the candidate variants for one BB address
//! (several entry leaders can share a terminator) with a bounded
//! most-recently-used successor/predecessor window per variant; transfers
//! outside the MRU window are **partial misses** that fetch only the
//! missing spill records from RAM.
//!
//! Observability: every probe can emit an [`EventKind::ScProbe`] on an
//! attached [`TraceBus`], and [`ScStats`] surfaces as the `rev.sc.*`
//! metrics (Fig. 10's hit/partial/complete breakdown — see
//! `docs/METRICS.md`).

use rev_sigtable::{EntryKind, SigVariant};
use rev_trace::{
    CkptError, EventKind, FaultInjector, FaultLayer, ProbeOutcome, TraceBus, TraceEvent,
};

rev_trace::stats! {
    /// SC traffic counters (feeds the paper's Fig. 10).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ScStats {
        /// Probes that found a ready entry with the needed successor cached.
        pub hits: u64 => "rev.sc.hits",
        /// Probes that found the entry but not the needed successor/
        /// predecessor record (spill fetch required).
        pub partial_misses: u64 => "rev.sc.partial_misses",
        /// Probes that found no entry (full chain fetch required).
        pub complete_misses: u64 => "rev.sc.complete_misses",
        /// Entries evicted to make room.
        pub evictions: u64 => "rev.sc.evictions",
    }
    then |s, reg| reg.gauge("rev.sc.miss_rate", s.miss_rate())
}

impl ScStats {
    /// All misses (partial + complete).
    pub fn misses(&self) -> u64 {
        self.partial_misses + self.complete_misses
    }

    /// Total probes.
    pub fn probes(&self) -> u64 {
        self.hits + self.partial_misses + self.complete_misses
    }

    /// Miss ratio in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        let p = self.probes();
        if p == 0 {
            0.0
        } else {
            self.misses() as f64 / p as f64
        }
    }
}

/// One cached signature variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScVariant {
    /// Terminator classification from the table entry.
    pub kind: EntryKind,
    /// Stored 4-byte digest (`None` in CFI-only mode).
    pub digest: Option<u32>,
    /// Successor address(es) the digest binds.
    pub bound_succs: Vec<u64>,
    /// Predecessor address the digest binds.
    pub bound_pred: Option<u64>,
    /// Full successor set (functional truth from the table walk).
    pub succs: Vec<u64>,
    /// Full predecessor set.
    pub preds: Vec<u64>,
    /// Format discriminator tag, when the entry format carries one.
    pub tag: Option<u16>,
    /// RAM addresses of this variant's spill entries (partial-miss
    /// fetch targets).
    pub spill_addrs: Vec<u64>,
    /// MRU successor window actually resident in the SC entry.
    pub mru_succs: Vec<u64>,
    /// MRU predecessor window actually resident.
    pub mru_preds: Vec<u64>,
}

impl ScVariant {
    /// Builds a cached variant from a table-walk result, seeding the MRU
    /// windows with the inline (non-spill) addresses.
    pub fn from_sig(v: &SigVariant, mru: usize) -> Self {
        let inline_succs: Vec<u64> = v.bound_succs.iter().copied().take(mru).collect();
        let inline_preds: Vec<u64> = v.bound_pred.iter().copied().take(mru).collect();
        ScVariant {
            kind: v.kind,
            digest: v.digest,
            bound_succs: v.bound_succs.clone(),
            bound_pred: v.bound_pred,
            succs: v.succs.clone(),
            preds: v.preds.clone(),
            tag: v.tag,
            spill_addrs: v.spill_addrs.clone(),
            mru_succs: inline_succs,
            mru_preds: inline_preds,
        }
    }

    /// Whether `target` is resident in the MRU successor window.
    pub fn succ_resident(&self, target: u64) -> bool {
        self.mru_succs.contains(&target)
    }

    /// Whether `pred` is resident in the MRU predecessor window.
    pub fn pred_resident(&self, pred: u64) -> bool {
        self.mru_preds.contains(&pred)
    }

    /// Whether fetching spills could reveal more successors/predecessors.
    pub fn has_spills(&self) -> bool {
        !self.spill_addrs.is_empty()
    }

    /// Installs `target` into the MRU successor window (evicting the
    /// least-recent on overflow).
    pub fn touch_succ(&mut self, target: u64, mru: usize) {
        self.mru_succs.retain(|&t| t != target);
        self.mru_succs.insert(0, target);
        self.mru_succs.truncate(mru);
    }

    /// Installs `pred` into the MRU predecessor window.
    pub fn touch_pred(&mut self, pred: u64, mru: usize) {
        self.mru_preds.retain(|&t| t != pred);
        self.mru_preds.insert(0, pred);
        self.mru_preds.truncate(mru);
    }
}

/// One SC entry: all variants for one BB address.
#[derive(Debug, Clone)]
pub struct ScEntry {
    /// The BB (terminator) address.
    pub bb_addr: u64,
    /// Cycle at which the fill completed (probes before this stall).
    pub ready_at: u64,
    /// Candidate variants.
    pub variants: Vec<ScVariant>,
    lru: u64,
}

/// Probe result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScProbe {
    /// Entry present and ready.
    Hit,
    /// Entry present but still filling; ready at the given cycle.
    Filling(u64),
    /// No entry.
    Miss,
}

/// Tag marking an unoccupied way in the flattened tag array (BB addresses
/// are code addresses, never `u64::MAX`).
const EMPTY_TAG: u64 = u64::MAX;

/// The signature cache.
///
/// Lookups scan a flattened tag array (`num_sets * assoc` contiguous
/// `u64`s, mirroring way occupancy) instead of walking the heavyweight
/// `ScEntry` ways; the entry payloads are only touched on a tag match.
#[derive(Debug, Clone)]
pub struct SignatureCache {
    sets: Vec<Vec<ScEntry>>,
    /// `tags[set * assoc + way]` == `sets[set][way].bb_addr`, or
    /// [`EMPTY_TAG`] for unoccupied ways.
    tags: Vec<u64>,
    assoc: usize,
    tick: u64,
    stats: ScStats,
    trace: TraceBus,
    fault: FaultInjector,
}

impl SignatureCache {
    /// Creates an SC with `capacity_bytes` total, `assoc` ways, and
    /// `entry_size` bytes per entry (the table's entry size — 16 B
    /// standard, 32 B aggressive, 8 B CFI-only).
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two set count.
    pub fn new(capacity_bytes: usize, assoc: usize, entry_size: usize) -> Self {
        let entries = capacity_bytes / entry_size;
        let num_sets = (entries / assoc).max(1);
        assert!(num_sets.is_power_of_two(), "SC set count must be a power of two");
        SignatureCache {
            sets: vec![Vec::with_capacity(assoc); num_sets],
            tags: vec![EMPTY_TAG; num_sets * assoc],
            assoc,
            tick: 0,
            stats: ScStats::default(),
            trace: TraceBus::disabled(),
            fault: FaultInjector::disabled(),
        }
    }

    /// Attaches a trace bus; every probe emits an
    /// [`EventKind::ScProbe`] event through it.
    pub fn set_trace(&mut self, trace: TraceBus) {
        self.trace = trace;
    }

    /// Attaches a fault injector; installs become
    /// [`FaultLayer::ScEntry`] corruption sites (chaos campaigns).
    pub fn set_fault_injector(&mut self, fault: FaultInjector) {
        self.fault = fault;
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ScStats {
        self.stats
    }

    /// Direct (non-statistical) mutable stats access for the monitor's
    /// classification of hits vs partial misses.
    pub fn stats_mut(&mut self) -> &mut ScStats {
        &mut self.stats
    }

    /// Zeroes the counters (resident entries stay).
    pub fn reset_stats(&mut self) {
        self.stats = ScStats::default();
    }

    fn set_of(&self, bb_addr: u64) -> usize {
        ((bb_addr >> 1) as usize) & (self.sets.len() - 1)
    }

    /// Finds the way holding `bb_addr` in `set` via the tag array.
    #[inline]
    fn way_of(&self, set: usize, bb_addr: u64) -> Option<usize> {
        let base = set * self.assoc;
        self.tags[base..base + self.assoc].iter().position(|&t| t == bb_addr)
    }

    /// Probes for `bb_addr` at `cycle`, updating LRU. Does not classify
    /// hit/partial/complete in the stats — the monitor does, because the
    /// partial/complete distinction depends on which successor is needed.
    pub fn probe(&mut self, bb_addr: u64, cycle: u64) -> ScProbe {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(bb_addr);
        let result = match self.way_of(set, bb_addr) {
            Some(way) => {
                let e = &mut self.sets[set][way];
                e.lru = tick;
                if e.ready_at <= cycle {
                    ScProbe::Hit
                } else {
                    ScProbe::Filling(e.ready_at)
                }
            }
            None => ScProbe::Miss,
        };
        self.trace.emit_with(|| {
            let outcome = match result {
                ScProbe::Hit => ProbeOutcome::Hit,
                ScProbe::Filling(_) => ProbeOutcome::Filling,
                ScProbe::Miss => ProbeOutcome::Miss,
            };
            TraceEvent { cycle, kind: EventKind::ScProbe { bb_addr, outcome } }
        });
        result
    }

    /// Locates `bb_addr`'s `(set, way)` without touching LRU, stats, or
    /// the trace, so a caller that must first inspect and then update the
    /// same entry (the superblock replay's check-then-touch sequence)
    /// pays the tag scan once instead of once per phase. The handle stays
    /// valid until the next `install` or `invalidate`.
    pub fn locate(&self, bb_addr: u64) -> Option<(usize, usize)> {
        let set = self.set_of(bb_addr);
        self.way_of(set, bb_addr).map(|way| (set, way))
    }

    /// Shared access to an entry located by [`SignatureCache::locate`].
    pub fn entry_at(&self, set: usize, way: usize) -> &ScEntry {
        &self.sets[set][way]
    }

    /// Mutable access to an entry located by [`SignatureCache::locate`].
    pub fn entry_at_mut(&mut self, set: usize, way: usize) -> &mut ScEntry {
        &mut self.sets[set][way]
    }

    /// Returns the entry for `bb_addr`, if resident.
    pub fn entry(&self, bb_addr: u64) -> Option<&ScEntry> {
        let set = self.set_of(bb_addr);
        self.way_of(set, bb_addr).map(|way| &self.sets[set][way])
    }

    /// Mutable entry access (MRU updates after spill fetches).
    pub fn entry_mut(&mut self, bb_addr: u64) -> Option<&mut ScEntry> {
        let set = self.set_of(bb_addr);
        self.way_of(set, bb_addr).map(|way| &mut self.sets[set][way])
    }

    /// Installs an entry (fill completion), evicting LRU on conflict.
    /// With a fault injector attached, every install is a
    /// [`FaultLayer::ScEntry`] site: on the trigger visit one bit of the
    /// first digest-carrying variant is flipped as the entry lands in the
    /// array (modeling SRAM corruption of the decrypted signature).
    pub fn install(&mut self, bb_addr: u64, ready_at: u64, mut variants: Vec<ScVariant>) {
        if self.fault.is_enabled() {
            let mut d = variants.iter().find_map(|v| v.digest).unwrap_or(0);
            if self.fault.corrupt_u32(FaultLayer::ScEntry, &mut d) {
                if let Some(v) = variants.iter_mut().find(|v| v.digest.is_some()) {
                    v.digest = Some(d);
                }
            }
        }
        self.tick += 1;
        let tick = self.tick;
        let assoc = self.assoc;
        let set_idx = self.set_of(bb_addr);
        if let Some(way) = self.way_of(set_idx, bb_addr) {
            // Replace in place: the tag is unchanged.
            let e = &mut self.sets[set_idx][way];
            e.ready_at = ready_at.min(e.ready_at);
            e.variants = variants;
            e.lru = tick;
            return;
        }
        let base = set_idx * assoc;
        let set = &mut self.sets[set_idx];
        if set.len() >= assoc {
            // A zero-way SC (ruled out by `RevConfig::validate`) degrades
            // to never caching instead of panicking.
            let lru_idx = set.iter().enumerate().min_by_key(|(_, e)| e.lru).map(|(i, _)| i);
            let Some(lru_idx) = lru_idx else {
                debug_assert!(false, "SC set has at least one way");
                return;
            };
            set.swap_remove(lru_idx);
            self.tags[base + lru_idx] = self.tags[base + set.len()];
            self.tags[base + set.len()] = EMPTY_TAG;
            self.stats.evictions += 1;
        }
        self.tags[base + set.len()] = bb_addr;
        set.push(ScEntry { bb_addr, ready_at, variants, lru: tick });
    }

    /// Drops the entry for `bb_addr`, if resident. This is the monitor's
    /// re-fetch retry path: a failed integrity check evicts the suspect
    /// entry so the next probe re-reads the reference line from RAM.
    /// Returns `true` if an entry was dropped. (Not counted in
    /// [`ScStats::evictions`], which tracks capacity pressure.)
    pub fn evict(&mut self, bb_addr: u64) -> bool {
        let set = self.set_of(bb_addr);
        if let Some(i) = self.way_of(set, bb_addr) {
            self.sets[set].swap_remove(i);
            let base = set * self.assoc;
            let len = self.sets[set].len();
            self.tags[base + i] = self.tags[base + len];
            self.tags[base + len] = EMPTY_TAG;
            true
        } else {
            false
        }
    }

    /// Drops every entry (used when the OS re-keys or swaps tables).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.tags.fill(EMPTY_TAG);
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// `true` if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

rev_trace::ckpt_fields!(Ckpt for ScVariant {
    kind, digest, bound_succs, bound_pred, succs, preds, tag, spill_addrs, mru_succs, mru_preds,
});

rev_trace::ckpt_fields!(Ckpt for ScEntry { bb_addr, ready_at, lru, variants });

// The complete SC contents: every resident entry in its physical way
// order (deterministic model state), LRU stamps, the tick counter and
// traffic stats. The flattened tag array is derived state, rebuilt on
// restore.
rev_trace::ckpt_fields!(CkptFields for SignatureCache { tick, stats, sets }
    then SignatureCache::check_restored);

impl SignatureCache {
    /// Rejects restored sets that do not fit this SC's geometry and
    /// rebuilds the tag array.
    fn check_restored(&mut self) -> Result<(), CkptError> {
        if self.sets.len() != self.tags.len() / self.assoc {
            return Err(CkptError::Malformed(format!(
                "SC set count {}, expected {}",
                self.sets.len(),
                self.tags.len() / self.assoc
            )));
        }
        self.tags.fill(EMPTY_TAG);
        for (set_idx, set) in self.sets.iter().enumerate() {
            if set.len() > self.assoc {
                return Err(CkptError::Malformed(format!(
                    "SC set {set_idx} holds {} ways, associativity is {}",
                    set.len(),
                    self.assoc
                )));
            }
            for (way, e) in set.iter().enumerate() {
                self.tags[set_idx * self.assoc + way] = e.bb_addr;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn variant(digest: u32) -> ScVariant {
        ScVariant {
            kind: EntryKind::Implicit,
            digest: Some(digest),
            bound_succs: vec![0x10],
            bound_pred: None,
            succs: vec![0x10, 0x20, 0x30],
            preds: vec![],
            tag: None,
            spill_addrs: vec![0x9000],
            mru_succs: vec![0x10],
            mru_preds: vec![],
        }
    }

    fn sc() -> SignatureCache {
        // 4 sets x 2 ways x 16B = 128 B
        SignatureCache::new(128, 2, 16)
    }

    #[test]
    fn geometry() {
        assert_eq!(sc().num_sets(), 4);
        assert_eq!(SignatureCache::new(32 << 10, 4, 16).num_sets(), 512);
    }

    #[test]
    fn miss_then_install_then_hit() {
        let mut c = sc();
        assert_eq!(c.probe(0x100, 5), ScProbe::Miss);
        c.install(0x100, 10, vec![variant(1)]);
        assert_eq!(c.probe(0x100, 5), ScProbe::Filling(10));
        assert_eq!(c.probe(0x100, 10), ScProbe::Hit);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = sc();
        // Addresses mapping to the same set: set = (addr>>1) & 3.
        let a = 0x8; // set 0
        let b = 0x8 + 8; // (0x10>>1)&3 = 0 -> same set
        let d = 0x8 + 16; // (0x18>>1)&3 = 4&3... compute: 0x18>>1=0xc, &3=0 -> same set
        c.install(a, 0, vec![variant(1)]);
        c.install(b, 0, vec![variant(2)]);
        c.probe(a, 0); // touch a
        c.install(d, 0, vec![variant(3)]); // evicts b
        assert!(c.entry(a).is_some());
        assert!(c.entry(b).is_none());
        assert!(c.entry(d).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn mru_window_updates() {
        let mut v = variant(1);
        assert!(v.succ_resident(0x10));
        assert!(!v.succ_resident(0x20));
        v.touch_succ(0x20, 2);
        assert!(v.succ_resident(0x20));
        assert!(v.succ_resident(0x10));
        v.touch_succ(0x30, 2);
        assert!(v.succ_resident(0x30));
        assert!(!v.succ_resident(0x10), "LRU successor displaced");
    }

    #[test]
    fn reinstall_refreshes_variants() {
        let mut c = sc();
        c.install(0x100, 0, vec![variant(1)]);
        c.install(0x100, 0, vec![variant(2), variant(3)]);
        assert_eq!(c.entry(0x100).unwrap().variants.len(), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn flush_empties() {
        let mut c = sc();
        c.install(0x100, 0, vec![variant(1)]);
        c.flush();
        assert!(c.is_empty());
        assert_eq!(c.probe(0x100, 100), ScProbe::Miss);
    }

    #[test]
    fn stats_arithmetic() {
        let s = ScStats { hits: 90, partial_misses: 4, complete_misses: 6, evictions: 0 };
        assert_eq!(s.misses(), 10);
        assert_eq!(s.probes(), 100);
        assert!((s.miss_rate() - 0.1).abs() < 1e-12);
    }
}
