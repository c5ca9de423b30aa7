//! The REV execution monitor: ties the CHG, SC, SAG and deferral buffer
//! into the pipeline's fetch/commit protocol.

use crate::config::{Containment, RevConfig};
use crate::defer::{DeferredStore, DeferredStoreBuffer};
use crate::sag::Sag;
use crate::sc::{ScProbe, ScVariant, SignatureCache};
use crate::shadow::ShadowMemory;
use crate::stats::RevStats;
use rev_cpu::{
    CommitGate, CommitQuery, ExecMonitor, FetchEvent, StoreCommit, Violation, ViolationKind,
};
use rev_crypto::{
    bb_body_hash_with, bb_body_hash_x4, entry_digest_with, BodyHash, ChgPipeline, ChgTag, CubeHash,
    CubeHashX4, SignatureKey, X4_LANES,
};
use rev_isa::InstrClass;
use rev_mem::{FlatMap, Hierarchy, MainMemory, Request, Requester};
use rev_sigtable::{EntryKind, ValidationMode};
use rev_trace::{EventKind, FaultInjector, FaultLayer, TraceBus, TraceEvent, Verdict};
use std::collections::{BTreeSet, VecDeque};

/// Service number of the REV-disable system call (paper Sec. VII: "The
/// second system call is used to enable or disable the REV mechanism and
/// this is only used when safe, self-modifying executables are running").
/// Takes effect when the syscall commits (and validates).
pub const SYSCALL_REV_DISABLE: u16 = 0xfe;
/// Service number of the REV-enable system call. Recognized at fetch
/// while validation is off; tracking re-synchronizes at the next block
/// boundary.
pub const SYSCALL_REV_ENABLE: u16 = 0xff;

/// Checkpoint section marker for the REV monitor.
const TAG_REV: u8 = 0x52; // 'R'

/// A fetched-but-not-yet-validated basic block.
#[derive(Debug, Clone, Copy)]
struct PendingBb {
    start: u64,
    bb_addr: u64,
    /// CHG output. A placeholder (all zeros) while `needs_hash` is set —
    /// the deferred-batch path fills it in before any gate reads it.
    body: BodyHash,
    /// `true` while this block's body hash sits in the unhashed queue
    /// awaiting batched resolution at commit handoff.
    needs_hash: bool,
    chg_ready: u64,
}

/// In-flight pending blocks, ordered by fetch sequence. Sequences only
/// ever arrive in increasing order (the pipeline's fetch counter), commits
/// consume from the front and flushes cut a suffix — so a deque with a
/// front fast path and binary-search fallback replaces the `BTreeMap` this
/// used to be, with zero per-block node allocation.
#[derive(Debug, Clone, Default)]
struct PendingQueue {
    entries: VecDeque<(u64, PendingBb)>,
}

impl PendingQueue {
    fn get(&self, seq: u64) -> Option<&PendingBb> {
        if let Some((s, pb)) = self.entries.front() {
            if *s == seq {
                return Some(pb);
            }
        }
        self.entries.binary_search_by_key(&seq, |&(s, _)| s).ok().map(|i| &self.entries[i].1)
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut PendingBb> {
        let idx = if self.entries.front().map(|&(s, _)| s == seq).unwrap_or(false) {
            0
        } else {
            self.entries.binary_search_by_key(&seq, |&(s, _)| s).ok()?
        };
        Some(&mut self.entries[idx].1)
    }

    fn insert(&mut self, seq: u64, pb: PendingBb) {
        debug_assert!(
            self.entries.back().map(|&(s, _)| s < seq).unwrap_or(true),
            "pending blocks arrive in fetch order"
        );
        self.entries.push_back((seq, pb));
    }

    fn remove(&mut self, seq: u64) {
        if self.entries.front().map(|&(s, _)| s == seq).unwrap_or(false) {
            self.entries.pop_front();
            return;
        }
        if let Ok(i) = self.entries.binary_search_by_key(&seq, |&(s, _)| s) {
            self.entries.remove(i);
        }
    }

    /// Drops every block with `seq >= from_seq` (pipeline flush).
    fn truncate_from(&mut self, from_seq: u64) {
        while self.entries.back().map(|&(s, _)| s >= from_seq).unwrap_or(false) {
            self.entries.pop_back();
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// One memoized digest-scan input, exactly as commit gate 3 reads it from
/// an SC variant: the stored digest (`None` = unsigned variant, skipped
/// without a digest comparison) and the two digest-bound fields.
type SbCand = (Option<u32>, u64, u64);

/// A superblock memo: the full commit-gate outcome for one validated
/// `(start, body-hash)` dynamic block, replayable while nothing it
/// depended on can have drifted — same code generation, and a resident SC
/// entry still presenting exactly the digest-scan prefix that produced
/// the match. Hot chains of such blocks replay back-to-back as O(1)
/// checks per terminator: the superblock. See DESIGN.md §10.
#[derive(Debug, Clone)]
struct SbEntry {
    /// Code generation at formation; any later code write strands this
    /// memo (it is discarded lazily on the next replay attempt).
    gen: u64,
    /// Dynamic block identity: leader address and CHG body hash.
    start: u64,
    body: BodyHash,
    /// The digest-scan inputs for variants `0..=vi` as gate 3 saw them.
    /// Replay re-verifies the resident entry still presents this exact
    /// prefix, which makes the memoized match provably identical to a
    /// re-scan (the expected digest is a pure function of data the memo
    /// pins: body hash, bound fields, table key).
    prefix: Vec<SbCand>,
    /// The matched variant index and its terminator classification.
    vi: usize,
    kind: EntryKind,
    /// Digest comparisons the scan consumed (`Some`-digest prefix count);
    /// replayed into `stats.digest_checks` so counters stay identical.
    k: u64,
}

/// A dynamically discovered basic block, exactly as the hardware sees it:
/// the entry leader's address, the terminating instruction's address (the
/// paper's "address of the BB") and the CHG body hash over the fetched
/// bytes. `rev-lint`'s differential oracle compares these against the
/// statically predicted set.
pub type DynBlockTriple = (u64, u64, [u8; 32]);

type DigestKey = (u64, [u8; 32], u64, u64, usize);

/// The REV hardware state, implementing [`ExecMonitor`].
///
/// `Clone` is a structural copy that *shares* the attached [`TraceBus`]
/// and [`FaultInjector`] handles; callers forking a monitor for
/// independent reuse must sever both (see `RevSimulator::fork`).
#[derive(Debug, Clone)]
pub struct RevMonitor {
    config: RevConfig,
    sag: Sag,
    sc: SignatureCache,
    chg: ChgPipeline,
    committed: MainMemory,
    defer: DeferredStoreBuffer,
    shadow: ShadowMemory,
    stats: RevStats,
    // Front-end speculative BB tracking.
    cur_start: Option<u64>,
    cur_bytes: Vec<u8>,
    cur_instrs: usize,
    cur_stores: usize,
    pending: PendingQueue,
    // Delayed return validation latch (paper Sec. V.A).
    ret_latch: Option<u64>,
    // The decoded-BB cache: CHG output per static block, keyed by
    // (start, end) with a code-generation stamp, plus memoized digest
    // derivations. Entries from an older generation (any code write since
    // they were cached) are treated as misses and recomputed; on top of
    // that, the hashed bytes are stored and re-verified on every hit, so
    // even a code write that lands *between* generation bumps (deferred
    // containment releases after the fetch that observed the new bytes)
    // is caught exactly as the hardware CHG — which hashes the fetched
    // bytes — would see it. Cache keys are Copy tuples, so the hit path
    // performs no heap allocation.
    body_cache: FlatMap<(u64, u64), (u64, Vec<u8>, BodyHash)>,
    /// Bumped by [`Self::invalidate_code_cache`]; stale-generation body
    /// entries recompute. O(1) where a full `clear()` used to churn.
    code_gen: u64,
    /// Merged `[lo, hi)` bound over every registered module's code
    /// section: a store outside it cannot touch code, so the per-table
    /// scan in [`Self::store_touches_code`] only runs for the rare store
    /// landing inside the bound. Recomputed on [`Self::replace_sag`].
    code_bounds: (u64, u64),
    digest_cache: FlatMap<DigestKey, u32>,
    /// Superblock memos by terminator address (see [`SbEntry`]). Purely a
    /// simulator fast path: every architectural counter and snapshot is
    /// byte-identical with `config.superblocks` off.
    sb_cache: FlatMap<u64, SbEntry>,
    /// Reusable scratch for the commit-time digest-candidate scan.
    candidates_buf: Vec<(usize, Option<u32>, u64, u64)>,
    /// One reusable CubeHash instance for every per-BB hash and digest
    /// derivation (reset between uses; avoids both the digest allocation
    /// and the 10·r initialization rounds per block).
    hasher: CubeHash,
    /// The four-lane CHG engine for batched pending-BB hashing (shares
    /// the scalar hasher's precomputed initialization rounds in spirit:
    /// its own IV is expanded once here). See DESIGN.md §10.
    hasher_x4: CubeHashX4,
    /// Fetched blocks whose body hash is deferred: `(seq, start, end,
    /// bytes)` in fetch order. Resolved up to [`X4_LANES`] at a time when
    /// the oldest reaches commit (the committing block plus the youngest
    /// still-speculative ones share one multi-lane pass). Only populated
    /// with superblocks on and fault injection off; flushed suffixes are
    /// dropped unhashed.
    unhashed: VecDeque<(u64, u64, u64, Vec<u8>)>,
    /// When `Some`, every validated block is recorded as a
    /// (leader, terminator, body-hash) triple — the differential oracle's
    /// dynamic side. `None` (the default) costs one branch per validation.
    trace: Option<BTreeSet<DynBlockTriple>>,
    /// Observability event bus (disabled by default: one branch per site).
    bus: TraceBus,
    /// Fault-injection handle (disabled by default: one branch per site).
    /// Clones of it sit inside the SC, SAG, deferred buffer and committed
    /// memory; the monitor itself uses it for the CHG-digest and
    /// return-latch corruption sites.
    fault: FaultInjector,
    /// Commit-level re-validation budget already spent on the retrying
    /// terminator, as `(seq, attempts)`. Only the ROB head can be mid-
    /// retry (the gate stalls commit, commit is in order, and flushes only
    /// squash younger sequences), so a single slot replaces the map this
    /// used to be — bounded by construction instead of growing per run.
    retry: Option<(u64, u32)>,
    violated: bool,
    enabled: bool,
    /// After re-enabling, skip gating until the next terminator passes so
    /// BB tracking re-synchronizes on a block boundary (the OS performs
    /// the enabling system call at exactly such a boundary).
    resync: bool,
}

impl RevMonitor {
    /// Creates a monitor over the SAG (with all module tables registered)
    /// and the committed-memory image (program + tables as loaded).
    pub fn new(config: RevConfig, sag: Sag, committed: MainMemory) -> Self {
        let code_bounds = Self::compute_code_bounds(&sag);
        RevMonitor {
            sc: SignatureCache::new(config.sc_capacity, config.sc_assoc, config.mode.entry_size()),
            chg: ChgPipeline::new(config.chg),
            defer: DeferredStoreBuffer::new(config.defer_capacity),
            shadow: ShadowMemory::new(),
            config,
            sag,
            committed,
            stats: RevStats::default(),
            cur_start: None,
            cur_bytes: Vec::with_capacity(512),
            cur_instrs: 0,
            cur_stores: 0,
            pending: PendingQueue::default(),
            ret_latch: None,
            body_cache: FlatMap::default(),
            code_gen: 0,
            code_bounds,
            digest_cache: FlatMap::default(),
            sb_cache: FlatMap::default(),
            candidates_buf: Vec::new(),
            hasher: CubeHash::new(),
            hasher_x4: CubeHashX4::new(),
            unhashed: VecDeque::new(),
            trace: None,
            bus: TraceBus::disabled(),
            fault: FaultInjector::disabled(),
            retry: None,
            violated: false,
            enabled: true,
            resync: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RevConfig {
        &self.config
    }

    /// REV statistics accumulated so far.
    pub fn stats(&self) -> &RevStats {
        &self.stats
    }

    /// The validated (committed) memory image. Deferred stores from
    /// unvalidated blocks are *not* visible here — that is the point.
    pub fn committed(&self) -> &MainMemory {
        &self.committed
    }

    /// Mutable committed memory (external writes: DMA, attacks).
    pub fn committed_mut(&mut self) -> &mut MainMemory {
        &mut self.committed
    }

    /// The signature cache (inspection).
    pub fn sc(&self) -> &SignatureCache {
        &self.sc
    }

    /// The SAG (registered signature tables and their RAM placement).
    pub fn sag(&self) -> &Sag {
        &self.sag
    }

    /// Swaps in a freshly linked SAG (the trusted dynamic linker just
    /// loaded or re-keyed modules): flushes the SC, the memoized digests
    /// and all in-flight validation state, exactly as a table swap must.
    pub fn replace_sag(&mut self, sag: Sag) {
        self.code_bounds = Self::compute_code_bounds(&sag);
        self.sag = sag;
        self.sc.flush();
        self.digest_cache.clear();
        self.stats.sb_flushes += self.sb_cache.len() as u64;
        self.sb_cache.clear();
        self.invalidate_code_cache();
        self.pending.clear();
        self.unhashed.clear();
        self.retry = None;
        self.ret_latch = None;
        self.cur_start = None;
        self.cur_bytes.clear();
        self.cur_instrs = 0;
        self.cur_stores = 0;
        self.resync = true;
    }

    /// Current deferred-store occupancy (inspection).
    pub fn deferred_stores(&self) -> usize {
        self.defer.len()
    }

    /// Attaches an observability bus: CHG issues, SC probes, deferred
    /// releases and validation verdicts emit [`TraceEvent`]s through it.
    pub fn set_trace(&mut self, bus: TraceBus) {
        self.sc.set_trace(bus.clone());
        self.defer.set_trace(bus.clone());
        self.fault.set_trace(bus.clone());
        self.bus = bus;
    }

    /// Threads a fault injector through every corruption site: the
    /// committed-memory read path (signature-line transfers, window-gated
    /// to the loaded tables), the SC install path, the SAG register file,
    /// the deferred-store buffer, and the monitor's own CHG-digest and
    /// return-latch sites. All clones share one state, so a single armed
    /// [`rev_trace::FaultSpec`] strikes exactly once per run.
    pub fn set_fault_injector(&mut self, fault: FaultInjector) {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for t in self.sag.tables() {
            lo = lo.min(t.base());
            hi = hi.max(t.base() + t.image().len() as u64);
        }
        if lo < hi {
            fault.set_window(lo, hi);
        }
        fault.set_trace(self.bus.clone());
        self.sc.set_fault_injector(fault.clone());
        self.sag.set_fault_injector(fault.clone());
        self.defer.set_fault_injector(fault.clone());
        self.committed.set_fault_injector(fault.clone());
        self.fault = fault;
    }

    /// The attached fault injector (disabled unless a chaos campaign
    /// armed one).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// Switches on dynamic block-trace recording: every block that
    /// validates from now on is remembered as a [`DynBlockTriple`].
    /// CFI-only mode computes no hashes, so nothing is recorded there.
    pub fn enable_block_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(BTreeSet::new());
        }
    }

    /// The recorded dynamic blocks, or `None` if tracing was never
    /// enabled.
    pub fn block_trace(&self) -> Option<&BTreeSet<DynBlockTriple>> {
        self.trace.as_ref()
    }

    /// Models the paper's second REV system call (Secs. IV.E, VII):
    /// momentarily disables validation while trusted self-modifying code
    /// (a JIT, a boot loader) runs, or re-enables it. Disabling drops all
    /// pending validation state; re-enabling flushes the memoized hashes
    /// (the code may have changed) and restarts BB tracking cleanly.
    pub fn set_enabled(&mut self, enabled: bool) {
        if self.enabled == enabled {
            return;
        }
        self.enabled = enabled;
        self.pending.clear();
        self.unhashed.clear();
        self.retry = None;
        self.ret_latch = None;
        self.cur_start = None;
        self.cur_bytes.clear();
        self.cur_instrs = 0;
        self.cur_stores = 0;
        if enabled {
            self.invalidate_code_cache();
            self.resync = true;
        }
    }

    /// Whether validation is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Zeroes all statistics (SC contents, caches and pending state stay)
    /// — ends a warmup phase.
    pub fn reset_stats(&mut self) {
        self.stats = RevStats::default();
        self.sc.reset_stats();
    }

    /// Invalidates the memoized CHG outputs. Must be called by anything
    /// that rewrites code bytes at run time (the attack injectors and
    /// shadow-page/direct code writes do), so subsequent hashing reflects
    /// the new bytes exactly as the hardware CHG would. O(1): bumps the
    /// code generation, demoting every cached body to a stale miss.
    pub fn invalidate_code_cache(&mut self) {
        self.code_gen = self.code_gen.wrapping_add(1);
        self.stats.bb_cache_invalidations += 1;
    }

    fn body_hash(&mut self, start: u64, end: u64, bytes: &[u8]) -> BodyHash {
        if let Some((gen, cached_bytes, hash)) = self.body_cache.get(&(start, end)) {
            if *gen == self.code_gen && cached_bytes == bytes {
                self.stats.bb_cache_hits += 1;
                return *hash;
            }
        }
        self.stats.bb_cache_misses += 1;
        let hash = bb_body_hash_with(&mut self.hasher, bytes);
        self.body_cache.insert((start, end), (self.code_gen, bytes.to_vec(), hash));
        hash
    }

    /// Consults the decoded-BB cache without hashing on a miss (the
    /// deferral decision at fetch). Hit/miss accounting matches the
    /// eager path: the miss is counted here, at fetch, and the deferred
    /// hash resolves later without further counting.
    fn body_cache_probe(&mut self, start: u64, end: u64, bytes: &[u8]) -> Option<BodyHash> {
        if let Some((gen, cached_bytes, hash)) = self.body_cache.get(&(start, end)) {
            if *gen == self.code_gen && cached_bytes == bytes {
                self.stats.bb_cache_hits += 1;
                return Some(*hash);
            }
        }
        self.stats.bb_cache_misses += 1;
        None
    }

    /// Resolves deferred body hashes once the oldest unhashed block
    /// reaches commit: the committing block and up to three younger
    /// pending blocks are hashed through one [`CubeHashX4`] pass (the
    /// commit-path batch handoff — `rev.chg.lanes` counts the lanes).
    /// Each resolved hash lands in both the pending record and the
    /// decoded-BB cache, exactly where the eager path would have put it;
    /// the hashed bytes were pinned at fetch, so a code write between
    /// fetch and commit changes nothing (the CHG hashes fetched bytes).
    fn resolve_pending_hashes(&mut self, seq: u64) {
        if self.unhashed.front().map(|&(s, ..)| s > seq).unwrap_or(true) {
            return;
        }
        while self.unhashed.front().map(|&(s, ..)| s <= seq).unwrap_or(false) {
            // Drain one batch: skip entries an earlier batch already
            // resolved into the cache (duplicate static blocks in flight).
            let mut batch: Vec<(u64, u64, u64, Vec<u8>)> = Vec::with_capacity(X4_LANES);
            while batch.len() < X4_LANES {
                let Some((bseq, start, end, bytes)) = self.unhashed.pop_front() else { break };
                let cached = self
                    .body_cache
                    .get(&(start, end))
                    .filter(|(gen, cb, _)| *gen == self.code_gen && cb == &bytes)
                    .map(|&(_, _, hash)| hash);
                if let Some(hash) = cached {
                    self.assign_body(bseq, hash);
                } else {
                    batch.push((bseq, start, end, bytes));
                }
            }
            if batch.len() >= 2 {
                let mut msgs: [&[u8]; X4_LANES] = [&[]; X4_LANES];
                for (lane, (_, _, _, bytes)) in batch.iter().enumerate() {
                    msgs[lane] = bytes;
                }
                let hashes = bb_body_hash_x4(&self.hasher_x4, msgs);
                self.stats.chg_lanes += batch.len() as u64;
                for ((bseq, start, end, bytes), hash) in batch.into_iter().zip(hashes) {
                    self.body_cache.insert((start, end), (self.code_gen, bytes, hash));
                    self.assign_body(bseq, hash);
                }
            } else if let Some((bseq, start, end, bytes)) = batch.pop() {
                let hash = bb_body_hash_with(&mut self.hasher, &bytes);
                self.body_cache.insert((start, end), (self.code_gen, bytes, hash));
                self.assign_body(bseq, hash);
            }
        }
    }

    /// Writes a resolved body hash into its pending record (a record
    /// discarded by a disable toggle may be gone; the cache insert above
    /// still pays forward).
    fn assign_body(&mut self, seq: u64, hash: BodyHash) {
        if let Some(pb) = self.pending.get_mut(seq) {
            pb.body = hash;
            pb.needs_hash = false;
        }
    }

    fn expected_digest(
        &mut self,
        key: &SignatureKey,
        table_idx: usize,
        bb_addr: u64,
        body: &BodyHash,
        bound_succ: u64,
        bound_pred: u64,
    ) -> u32 {
        self.stats.digest_checks += 1;
        let cache_key = (bb_addr, body.0, bound_succ, bound_pred, table_idx);
        if let Some(&digest) = self.digest_cache.get(&cache_key) {
            return digest;
        }
        let digest =
            entry_digest_with(&mut self.hasher, key, bb_addr, body, bound_succ, bound_pred).0;
        self.digest_cache.insert(cache_key, digest);
        digest
    }

    /// How the digest binds successors, per mode (must mirror the builder).
    fn bound_succ_value(mode: ValidationMode, v: &ScVariant) -> u64 {
        match mode {
            ValidationMode::Standard => v.bound_succs.first().copied().unwrap_or(0),
            ValidationMode::Aggressive => {
                v.bound_succs.first().copied().unwrap_or(0)
                    | (v.bound_succs.get(1).copied().unwrap_or(0) << 32)
            }
            ValidationMode::CfiOnly => 0,
        }
    }

    /// Starts a table walk for `bb_addr` and installs the SC entry; returns
    /// the fill-completion cycle, or `None` if no table covers the address.
    fn start_fill(&mut self, mem: &mut Hierarchy, bb_addr: u64, cycle: u64) -> Option<u64> {
        let (table_idx, sag_penalty) = self.sag.resolve(bb_addr)?;
        if sag_penalty > 0 {
            self.stats.sag_refills += 1;
        }
        let lookup = {
            let table = self.sag.table(table_idx);
            let committed = &self.committed;
            let mut read = |addr: u64, len: usize| committed.read_bytes(addr, len);
            table.lookup_with(&mut read, bb_addr)
        };
        // Timing: dependent chain of entry reads through the hierarchy,
        // each followed by the AES decrypt.
        let mut t = cycle + sag_penalty;
        for &addr in &lookup.primary_touch {
            let out = mem.data_access(Request {
                addr,
                is_write: false,
                requester: Requester::SigFetch,
                cycle: t,
            });
            t = out.complete_at + self.config.decrypt_latency;
            self.stats.fill_touches += 1;
        }
        if lookup.primary_touch.is_empty() {
            // Empty slot: one read to discover it.
            let table_base = self.sag.table(table_idx).base();
            let out = mem.data_access(Request {
                addr: table_base + 16,
                is_write: false,
                requester: Requester::SigFetch,
                cycle: t,
            });
            t = out.complete_at;
            self.stats.fill_touches += 1;
        }
        let mut variants: Vec<ScVariant> =
            lookup.variants.iter().map(|v| ScVariant::from_sig(v, self.config.sc_mru)).collect();
        if lookup.parse_failure {
            // Tampered table: install an empty, poisoned entry. No digest
            // can ever match it, so validation fails closed.
            variants.clear();
        }
        self.sc.install(bb_addr, t, variants);
        self.stats.fill_latency.record(t - cycle);
        Some(t)
    }

    /// Fetch-side spill prefetch: if the predicted successor is known to a
    /// variant but outside its MRU window, fetch the spill records now
    /// (the paper's partial miss).
    fn prefetch_spills_for(
        &mut self,
        mem: &mut Hierarchy,
        bb_addr: u64,
        needed_succ: u64,
        cycle: u64,
    ) -> bool {
        let mru = self.config.sc_mru;
        let mode = self.config.mode;
        let naive_returns = self.config.naive_return_validation;
        let Some(entry) = self.sc.entry_mut(bb_addr) else { return false };
        let mut fetch_addrs: Vec<u64> = Vec::new();
        let mut found = false;
        for v in &mut entry.variants {
            // Only variants whose outgoing target is explicitly validated
            // need their successor records resident. Returns are excluded
            // in standard mode — that is the whole point of the paper's
            // delayed return validation (Sec. V.A): the successor list of
            // a popular function's return is never walked.
            let relevant = match mode {
                ValidationMode::Standard => {
                    v.kind == EntryKind::Computed || (naive_returns && v.kind == EntryKind::Return)
                }
                ValidationMode::Aggressive => v.kind != EntryKind::Return,
                ValidationMode::CfiOnly => v.kind == EntryKind::Computed,
            };
            if !relevant {
                continue;
            }
            if v.succ_resident(needed_succ) {
                return false; // already resident somewhere: plain hit
            }
            if !found && v.has_spills() {
                if let Some(pos) = v.succs.iter().position(|&s| s == needed_succ) {
                    // Walk the spill chain only as far as the entry that
                    // holds the needed address (3 addresses per spill).
                    let inline = v.bound_succs.len();
                    let spill_idx = pos.saturating_sub(inline) / 3;
                    let take = (spill_idx + 1).min(v.spill_addrs.len());
                    fetch_addrs = v.spill_addrs[..take].to_vec();
                    v.touch_succ(needed_succ, mru);
                    found = true;
                }
            }
        }
        if !found {
            return false;
        }
        let mut t = cycle;
        for addr in fetch_addrs {
            let out = mem.data_access(Request {
                addr,
                is_write: false,
                requester: Requester::SigFetch,
                cycle: t,
            });
            t = out.complete_at + self.config.decrypt_latency;
            self.stats.spill_fetches += 1;
        }
        if let Some(entry) = self.sc.entry_mut(bb_addr) {
            entry.ready_at = entry.ready_at.max(t);
        }
        true
    }

    fn violation(&mut self, kind: ViolationKind, q: &CommitQuery) -> CommitGate {
        self.violated = true;
        let discarded = self.defer.discard_all();
        self.stats.stores_discarded += discarded as u64;
        if self.config.containment == Containment::ShadowPages {
            self.stats.stores_discarded += self.shadow.stats().stores_buffered;
            self.shadow.discard();
        }
        let v =
            Violation { kind, bb_addr: q.bb_addr, actual_target: q.actual_target, cycle: q.cycle };
        self.stats.violation = Some(v);
        self.bus.emit_with(|| {
            let verdict = match kind {
                ViolationKind::HashMismatch => Verdict::HashMismatch,
                ViolationKind::IllegalTarget => Verdict::IllegalTarget,
                ViolationKind::ReturnMismatch => Verdict::ReturnMismatch,
                ViolationKind::NoTable => Verdict::NoTable,
                ViolationKind::TableCorrupt => Verdict::TableCorrupt,
                ViolationKind::ParityError => Verdict::ParityError,
            };
            TraceEvent {
                cycle: q.cycle,
                kind: EventKind::ValidationVerdict { bb_addr: q.bb_addr, verdict },
            }
        });
        CommitGate::Violation(v)
    }

    /// Merged code-section bound over all registered modules (see the
    /// `code_bounds` field). `(MAX, 0)` when no tables are registered —
    /// the empty interval, so every store fast-rejects.
    fn compute_code_bounds(sag: &Sag) -> (u64, u64) {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for t in sag.tables() {
            lo = lo.min(t.module_base());
            hi = hi.max(t.module_end());
        }
        (lo, hi)
    }

    /// Whether `addr` falls inside any registered module's code section —
    /// a store there is (attempted) self-modification and must flush the
    /// memoized CHG outputs so subsequent fetches re-hash the new bytes.
    /// The merged-bound check fast-rejects the common data store; only
    /// stores landing inside the bound pay the per-table scan.
    fn store_touches_code(&self, addr: u64) -> bool {
        addr + 8 > self.code_bounds.0
            && addr < self.code_bounds.1
            && self.sag.tables().iter().any(|t| addr + 8 > t.module_base() && addr < t.module_end())
    }

    /// Releases validated stores into committed memory. `Err` means a
    /// buffered store failed its parity re-check — the buffer was
    /// corrupted after commit — and the caller must escalate to a
    /// [`ViolationKind::ParityError`] instead of letting the damaged
    /// value become architectural.
    fn release_stores(
        &mut self,
        mem: &mut Hierarchy,
        boundary_seq: u64,
        cycle: u64,
    ) -> Result<(), crate::defer::ParityViolation> {
        if !self.defer.has_releasable(boundary_seq) {
            // Nothing this validation freed (the common commit in the
            // non-deferred modes): skip the release pass entirely.
            return Ok(());
        }
        let committed = &mut self.committed;
        let mut released = 0u64;
        let mut touched_code = false;
        let tables = self.sag.tables();
        let (code_lo, code_hi) = self.code_bounds;
        let result = self.defer.release_until(boundary_seq, cycle, |s| {
            committed.write_u64(s.addr, s.value);
            touched_code |= s.addr + 8 > code_lo
                && s.addr < code_hi
                && tables.iter().any(|t| s.addr + 8 > t.module_base() && s.addr < t.module_end());
            mem.data_access(Request {
                addr: s.addr,
                is_write: true,
                requester: Requester::Data,
                cycle,
            });
            released += 1;
        });
        self.stats.stores_released += released;
        if touched_code {
            self.invalidate_code_cache();
        }
        result
    }

    /// Bounded transient-fault recovery: a signature check that fails at
    /// commit may be a one-shot fault in the encrypted line's DRAM
    /// transfer rather than a tamper. Evict the suspect SC entry and let
    /// the re-probe trigger a fresh table walk, up to
    /// `config.sigline_retries` times per terminator; a genuine tamper
    /// (or persistent fault) re-fails and falls through to the kill
    /// verdict. Returns the stall gate while budget remains.
    fn try_sigline_retry(&mut self, q: &CommitQuery, bb_addr: u64) -> Option<CommitGate> {
        if self.config.sigline_retries == 0 {
            return None;
        }
        let attempts = match self.retry {
            Some((seq, a)) if seq == q.seq => a,
            _ => 0,
        };
        if attempts >= self.config.sigline_retries {
            self.retry = None;
            return None;
        }
        let attempt = attempts + 1;
        self.retry = Some((q.seq, attempt));
        self.sc.evict(bb_addr);
        self.stats.sigline_retries += 1;
        self.bus.emit_with(|| TraceEvent {
            cycle: q.cycle,
            kind: EventKind::SigRetry { bb_addr, attempt },
        });
        Some(CommitGate::StallUntil(q.cycle + 1))
    }

    /// Superblock replay: validates this commit from the memo formed by an
    /// earlier slow-path pass over the same `(start, body)` block, skipping
    /// gates 3–5. `None` falls through to the slow path (nothing mutated);
    /// `Some(gate)` is the commit verdict with every slow-path side effect
    /// (stats, SAG/SC LRU, latch, store release, CHG retire) replicated.
    ///
    /// Only called after gates 1–2 passed (hash ready, SC probe hit), with
    /// superblocks on, no fault injector armed and no retry in flight.
    fn try_superblock_replay(
        &mut self,
        mem: &mut Hierarchy,
        q: &CommitQuery,
        pb: &PendingBb,
    ) -> Option<CommitGate> {
        let memo = self.sb_cache.get(&pb.bb_addr)?;
        if memo.gen != self.code_gen {
            // Code was written since formation: drop the stranded memo;
            // the slow path re-validates against fresh hashes and re-forms.
            self.stats.sb_flushes += 1;
            self.sb_cache.remove(&pb.bb_addr);
            return None;
        }
        if memo.start != pb.start || memo.body != pb.body {
            return None;
        }
        let (vi, kind) = (memo.vi, memo.kind);
        let mode = self.config.mode;
        let naive_returns = self.config.naive_return_validation;
        let latch = self.ret_latch;
        // Read-only checks against the live SC entry. The digest-scan
        // prefix must be exactly what gate 3 matched at formation: the
        // expected digest is a pure function of (body, bound fields, key),
        // all pinned, so an unchanged prefix re-scans to the same match at
        // the same cost. An entry refilled from a tampered table presents
        // a different prefix and falls through to the full gates.
        let (sc_set, sc_way) = self.sc.locate(pb.bb_addr)?;
        {
            let entry = self.sc.entry_at(sc_set, sc_way);
            if entry.variants.len() <= vi {
                return None;
            }
            for (v, cand) in entry.variants[..=vi].iter().zip(&memo.prefix) {
                if v.digest != cand.0
                    || Self::bound_succ_value(mode, v) != cand.1
                    || v.bound_pred.unwrap_or(0) != cand.2
                {
                    return None;
                }
            }
            let v = &entry.variants[vi];
            if v.kind != kind {
                return None;
            }
            let target_checked = match mode {
                ValidationMode::Aggressive => !v.succs.is_empty() || kind == EntryKind::Computed,
                ValidationMode::Standard => {
                    kind == EntryKind::Computed || (naive_returns && kind == EntryKind::Return)
                }
                ValidationMode::CfiOnly => return None,
            };
            if target_checked
                && !(v.succs.contains(&q.actual_target) && v.succ_resident(q.actual_target))
            {
                // Illegal or spill-resident target: the slow path decides
                // (violation, spill fetch, or MRU touch).
                return None;
            }
            if let Some(r) = latch {
                if !(v.preds.contains(&r) && v.pred_resident(r)) {
                    return None; // delayed return check needs the slow path
                }
            }
        }
        // Committed to the replay: replicate the slow path's effects in
        // order. The SAG resolve (tick/LRU/refill side effects) happens
        // exactly once per commit attempt on either path.
        if self.sag.resolve(pb.bb_addr).is_none() {
            return Some(self.violation(ViolationKind::NoTable, q));
        }
        self.stats.digest_checks += memo.k;
        if latch.is_some() {
            self.stats.return_checks += 1;
            self.ret_latch = None;
        }
        if kind == EntryKind::Return && mode == ValidationMode::Standard && !naive_returns {
            // Fault injection is off on this path (replay precondition),
            // so the latch takes the address uncorrupted.
            self.ret_latch = Some(pb.bb_addr);
        }
        let mru = self.config.sc_mru;
        // Nothing between `locate` and here installs or invalidates, so
        // the (set, way) handle from the check phase is still the entry.
        self.sc.entry_at_mut(sc_set, sc_way).variants[vi].touch_succ(q.actual_target, mru);
        if let Some(trace) = self.trace.as_mut() {
            trace.insert((pb.start, pb.bb_addr, pb.body.0));
        }
        if self.release_stores(mem, q.seq, q.cycle).is_err() {
            return Some(self.violation(ViolationKind::ParityError, q));
        }
        self.chg.retire(ChgTag(q.seq));
        self.pending.remove(q.seq);
        self.stats.validations += 1;
        self.stats.defer_peak = self.stats.defer_peak.max(self.defer.peak());
        self.stats.sb_hits += 1;
        self.bus.emit_with(|| TraceEvent {
            cycle: q.cycle,
            kind: EventKind::ValidationVerdict { bb_addr: pb.bb_addr, verdict: Verdict::Validated },
        });
        Some(CommitGate::Proceed)
    }

    /// Memoizes a just-validated block (slow-path success) for replay. The
    /// candidate scan's inputs are still in `candidates_buf`. Skipped for
    /// syscall terminators (the disable path must always run the slow
    /// sequence) and whenever a fault campaign is armed.
    fn form_superblock(&mut self, pb: &PendingBb, vi: usize, kind: EntryKind) {
        let cands = &self.candidates_buf[..=vi];
        if let Some(old) = self.sb_cache.get(&pb.bb_addr) {
            // Unchanged outcome: keep the existing memo (no reallocation).
            if old.gen == self.code_gen
                && old.start == pb.start
                && old.body == pb.body
                && old.vi == vi
                && old.kind == kind
                && old.prefix.len() == cands.len()
                && old.prefix.iter().zip(cands).all(|(p, &(_, d, bs, bp))| *p == (d, bs, bp))
            {
                return;
            }
        }
        let prefix: Vec<SbCand> = cands.iter().map(|&(_, d, bs, bp)| (d, bs, bp)).collect();
        let k = prefix.iter().filter(|c| c.0.is_some()).count() as u64;
        self.stats.sb_formed += 1;
        self.sb_cache.insert(
            pb.bb_addr,
            SbEntry { gen: self.code_gen, start: pb.start, body: pb.body, prefix, vi, kind, k },
        );
    }

    /// Serializes the complete REV state: SAG residency, SC contents, CHG
    /// in-flight queue, the committed-memory pages that differ from the
    /// build image `base`, deferred stores, shadow pages, statistics, the
    /// speculative BB tracker, pending blocks, the return latch and the
    /// enable/resync machinery. Simulator-performance
    /// caches (decoded-BB memos, digest memos, superblock memos) are
    /// *not* state — they restore cold and refill, which is functionally
    /// invisible (the architectural `rev.*` counters are pinned identical
    /// with the caches on or off).
    pub fn save_state(&self, base: &MainMemory, w: &mut rev_trace::CkptWriter) {
        w.tag(TAG_REV);
        self.sag.save_state(w);
        self.sc.save_state(w);
        let (in_flight, enqueued, flushed) = self.chg.snapshot();
        w.len(in_flight.len());
        for (tag, ready_at) in &in_flight {
            w.u64(*tag);
            w.u64(*ready_at);
        }
        w.u64(enqueued);
        w.u64(flushed);
        self.committed.save_state(base, w);
        self.defer.save_state(w);
        self.shadow.save_state(w);
        self.stats.save_state(w);
        w.opt_u64(self.cur_start);
        w.bytes(&self.cur_bytes);
        w.u64(self.cur_instrs as u64);
        w.u64(self.cur_stores as u64);
        w.len(self.pending.entries.len());
        for (seq, pb) in &self.pending.entries {
            w.u64(*seq);
            w.u64(pb.start);
            w.u64(pb.bb_addr);
            w.raw(&pb.body.0);
            w.bool(pb.needs_hash);
            w.u64(pb.chg_ready);
        }
        w.opt_u64(self.ret_latch);
        w.u64(self.code_gen);
        w.len(self.unhashed.len());
        for (seq, start, end, bytes) in &self.unhashed {
            w.u64(*seq);
            w.u64(*start);
            w.u64(*end);
            w.bytes(bytes);
        }
        match self.retry {
            Some((seq, attempts)) => {
                w.bool(true);
                w.u64(seq);
                w.u32(attempts);
            }
            None => w.bool(false),
        }
        w.bool(self.violated);
        w.bool(self.enabled);
        w.bool(self.resync);
    }

    /// Restores state saved by [`RevMonitor::save_state`] into a monitor
    /// freshly built with the identical configuration, SAG and committed
    /// image. The performance caches restart cold; the trace/fault
    /// attachments stay as constructed (disabled).
    ///
    /// # Errors
    ///
    /// Returns [`rev_trace::CkptError`] on decode failure or any
    /// configuration/geometry mismatch.
    pub fn restore_state(
        &mut self,
        r: &mut rev_trace::CkptReader<'_>,
    ) -> Result<(), rev_trace::CkptError> {
        r.tag(TAG_REV)?;
        self.sag.restore_state(r)?;
        self.sc.restore_state(r)?;
        let n = r.len(16)?;
        let mut in_flight = Vec::with_capacity(n);
        for _ in 0..n {
            in_flight.push((r.u64()?, r.u64()?));
        }
        if in_flight.len() > self.config.chg.capacity
            || !in_flight.windows(2).all(|p| p[0].0 < p[1].0)
        {
            return Err(rev_trace::CkptError::Malformed(
                "CHG in-flight queue over capacity or out of order".to_string(),
            ));
        }
        let (enqueued, flushed) = (r.u64()?, r.u64()?);
        self.chg.restore(&in_flight, enqueued, flushed);
        self.committed.restore_state(r)?;
        self.defer.restore_state(r)?;
        self.shadow.restore_state(r)?;
        self.stats.restore_state(r)?;
        self.cur_start = r.opt_u64()?;
        self.cur_bytes.clear();
        self.cur_bytes.extend_from_slice(r.bytes()?);
        self.cur_instrs = r.u64()? as usize;
        self.cur_stores = r.u64()? as usize;
        let n = r.len(58)?;
        self.pending.clear();
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let seq = r.u64()?;
            if prev.is_some_and(|p| p >= seq) {
                return Err(rev_trace::CkptError::Malformed(
                    "pending blocks out of fetch order".to_string(),
                ));
            }
            prev = Some(seq);
            let start = r.u64()?;
            let bb_addr = r.u64()?;
            let mut body = [0u8; 32];
            body.copy_from_slice(r.raw(32)?);
            let needs_hash = r.bool()?;
            let chg_ready = r.u64()?;
            self.pending.insert(
                seq,
                PendingBb { start, bb_addr, body: BodyHash(body), needs_hash, chg_ready },
            );
        }
        self.ret_latch = r.opt_u64()?;
        self.code_gen = r.u64()?;
        let n = r.len(32)?;
        self.unhashed.clear();
        for _ in 0..n {
            let (seq, start, end) = (r.u64()?, r.u64()?, r.u64()?);
            self.unhashed.push_back((seq, start, end, r.bytes()?.to_vec()));
        }
        self.retry = if r.bool()? { Some((r.u64()?, r.u32()?)) } else { None };
        self.violated = r.bool()?;
        self.enabled = r.bool()?;
        self.resync = r.bool()?;
        // Performance caches restart cold: stale memos must never survive
        // into a restored run whose code generation they cannot know.
        self.body_cache.clear();
        self.digest_cache.clear();
        self.sb_cache.clear();
        self.candidates_buf.clear();
        self.code_bounds = Self::compute_code_bounds(&self.sag);
        Ok(())
    }

    fn commit_standard(&mut self, mem: &mut Hierarchy, q: &CommitQuery) -> CommitGate {
        if !self.enabled {
            // Validation was switched off after this block was fetched
            // (the disable syscall committed while it was in flight). The
            // enable syscall may itself commit in this window.
            if let rev_isa::Instruction::Syscall { num: SYSCALL_REV_ENABLE } = q.insn {
                self.set_enabled(true);
            }
            return CommitGate::Proceed;
        }
        let Some(&pb) = self.pending.get(q.seq) else {
            // The slot straddled a disable/enable window; its tracking
            // state was discarded at the toggle.
            return CommitGate::Proceed;
        };
        debug_assert!(!pb.needs_hash, "deferred hash resolved before the gates read it");
        // Gate 1: the CHG must have produced the hash (H ≤ S makes this
        // free in the common case).
        if q.cycle < pb.chg_ready {
            self.stats.stall_chg += pb.chg_ready - q.cycle;
            return CommitGate::StallUntil(pb.chg_ready);
        }
        // Gate 2: the SC entry must be resident and ready.
        match self.sc.probe(pb.bb_addr, q.cycle) {
            ScProbe::Hit => {}
            ScProbe::Filling(ready) => {
                self.stats.stall_fill += ready - q.cycle;
                return CommitGate::StallUntil(ready);
            }
            ScProbe::Miss => {
                self.stats.commit_misses += 1;
                self.sc.stats_mut().complete_misses += 1;
                return match self.start_fill(mem, pb.bb_addr, q.cycle) {
                    Some(ready) => {
                        self.stats.stall_fill += ready.max(q.cycle + 1) - q.cycle;
                        CommitGate::StallUntil(ready.max(q.cycle + 1))
                    }
                    None => self.violation(ViolationKind::NoTable, q),
                };
            }
        }
        // Superblock fast path: an earlier validation of this exact
        // (start, body) block replays as one memo check instead of the
        // full gate 3–5 sequence (DESIGN.md §10). Falls through whenever
        // anything it depends on may have drifted.
        if self.config.superblocks && self.retry.is_none() && !self.fault.is_enabled() {
            if let Some(gate) = self.try_superblock_replay(mem, q, &pb) {
                return gate;
            }
        }
        // Gate 3: digest match against the chain candidates.
        let table_idx = match self.sag.resolve(pb.bb_addr) {
            Some((idx, _)) => idx,
            None => return self.violation(ViolationKind::NoTable, q),
        };
        let key = self.sag.table(table_idx).key();
        let mode = self.config.mode;
        let mut candidates = std::mem::take(&mut self.candidates_buf);
        candidates.clear();
        {
            let entry = self.sc.entry(pb.bb_addr).expect("probed hit");
            candidates.extend(entry.variants.iter().enumerate().map(|(i, v)| {
                (i, v.digest, Self::bound_succ_value(mode, v), v.bound_pred.unwrap_or(0))
            }));
        }
        if candidates.is_empty() {
            self.candidates_buf = candidates;
            // Poisoned (tampered) or genuinely empty chain — possibly a
            // transient fault on the line's DRAM transfer; re-fetch first.
            if let Some(gate) = self.try_sigline_retry(q, pb.bb_addr) {
                return gate;
            }
            return self.violation(ViolationKind::TableCorrupt, q);
        }
        let mut matched: Option<usize> = None;
        for &(i, digest, bound_succ, bound_pred) in &candidates {
            let Some(digest) = digest else { continue };
            let expected =
                self.expected_digest(&key, table_idx, pb.bb_addr, &pb.body, bound_succ, bound_pred);
            if expected == digest {
                matched = Some(i);
                break;
            }
        }
        self.candidates_buf = candidates;
        let Some(vi) = matched else {
            if let Some(gate) = self.try_sigline_retry(q, pb.bb_addr) {
                return gate;
            }
            return self.violation(ViolationKind::HashMismatch, q);
        };
        if self.retry.map(|(seq, _)| seq == q.seq).unwrap_or(false) {
            // The re-fetched line checked out: the earlier failure was a
            // transient fault, healed without a kill verdict.
            self.retry = None;
            self.stats.sigline_recoveries += 1;
        }

        // Gate 4: explicit target validation.
        let (kind, succ_resident, succ_known, pred_resident_latch, pred_known_latch, has_spills) = {
            let entry = self.sc.entry(pb.bb_addr).expect("resident");
            let v = &entry.variants[vi];
            let latch = self.ret_latch;
            (
                v.kind,
                v.succ_resident(q.actual_target),
                v.succs.contains(&q.actual_target),
                latch.map(|r| v.pred_resident(r)),
                latch.map(|r| v.preds.contains(&r)),
                v.has_spills(),
            )
        };

        let has_successors =
            self.sc.entry(pb.bb_addr).map(|e| !e.variants[vi].succs.is_empty()).unwrap_or(false);
        let naive_returns = self.config.naive_return_validation;
        let target_checked = match mode {
            // Aggressive: every branch target verified. Terminal blocks
            // (halt — no successors) have nothing to verify unless the
            // terminator computes its target.
            ValidationMode::Aggressive => has_successors || kind == EntryKind::Computed,
            ValidationMode::Standard => {
                kind == EntryKind::Computed || (naive_returns && kind == EntryKind::Return)
            }
            ValidationMode::CfiOnly => unreachable!("handled in commit_cfi"),
        };
        if target_checked {
            if !succ_known {
                return self.violation(ViolationKind::IllegalTarget, q);
            }
            if !succ_resident {
                // Partial miss at validation: fetch the spill records.
                if has_spills {
                    self.sc.stats_mut().partial_misses += 1;
                    if self.prefetch_spills_for(mem, pb.bb_addr, q.actual_target, q.cycle) {
                        let ready =
                            self.sc.entry(pb.bb_addr).map(|e| e.ready_at).unwrap_or(q.cycle + 1);
                        self.stats.stall_spill += ready.max(q.cycle + 1) - q.cycle;
                        return CommitGate::StallUntil(ready.max(q.cycle + 1));
                    }
                } else if let Some(e) = self.sc.entry_mut(pb.bb_addr) {
                    let mru = self.config.sc_mru;
                    e.variants[vi].touch_succ(q.actual_target, mru);
                }
            }
        }

        // Gate 5: delayed return validation (the previous block ended in a
        // return; this block's predecessor set must list it).
        if let Some(r) = self.ret_latch {
            self.stats.return_checks += 1;
            match (pred_known_latch, pred_resident_latch) {
                (Some(true), Some(true)) => {}
                (Some(true), Some(false)) => {
                    if has_spills {
                        self.sc.stats_mut().partial_misses += 1;
                        // Reuse the spill path; charge the fetch.
                        let spill_addrs: Vec<u64> = self
                            .sc
                            .entry(pb.bb_addr)
                            .map(|e| e.variants[vi].spill_addrs.clone())
                            .unwrap_or_default();
                        let mut t = q.cycle;
                        for addr in spill_addrs {
                            let out = mem.data_access(Request {
                                addr,
                                is_write: false,
                                requester: Requester::SigFetch,
                                cycle: t,
                            });
                            t = out.complete_at + self.config.decrypt_latency;
                            self.stats.spill_fetches += 1;
                        }
                        let mru = self.config.sc_mru;
                        if let Some(e) = self.sc.entry_mut(pb.bb_addr) {
                            e.variants[vi].touch_pred(r, mru);
                            e.ready_at = e.ready_at.max(t);
                        }
                        self.stats.stall_spill += t.max(q.cycle + 1) - q.cycle;
                        return CommitGate::StallUntil(t.max(q.cycle + 1));
                    }
                    let mru = self.config.sc_mru;
                    if let Some(e) = self.sc.entry_mut(pb.bb_addr) {
                        e.variants[vi].touch_pred(r, mru);
                    }
                }
                _ => return self.violation(ViolationKind::ReturnMismatch, q),
            }
            self.ret_latch = None;
        }
        if kind == EntryKind::Return && mode == ValidationMode::Standard && !naive_returns {
            // Latch the return's address; the next validated block checks it.
            let mut r = pb.bb_addr;
            if self.fault.is_enabled() {
                // A flipped latch bit makes the *next* block's predecessor
                // check fail closed (ReturnMismatch) — never forge a pass.
                self.fault.corrupt_u64(FaultLayer::RetLatch, &mut r);
            }
            self.ret_latch = Some(r);
        }

        // Validated: update the MRU successor window, release the block's
        // stores, retire the CHG entry.
        let mru = self.config.sc_mru;
        if let Some(e) = self.sc.entry_mut(pb.bb_addr) {
            e.variants[vi].touch_succ(q.actual_target, mru);
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.insert((pb.start, pb.bb_addr, pb.body.0));
        }
        if self.release_stores(mem, q.seq, q.cycle).is_err() {
            return self.violation(ViolationKind::ParityError, q);
        }
        self.chg.retire(ChgTag(q.seq));
        self.pending.remove(q.seq);
        self.stats.validations += 1;
        self.stats.defer_peak = self.stats.defer_peak.max(self.defer.peak());
        self.bus.emit_with(|| TraceEvent {
            cycle: q.cycle,
            kind: EventKind::ValidationVerdict { bb_addr: pb.bb_addr, verdict: Verdict::Validated },
        });
        if self.config.superblocks
            && !self.fault.is_enabled()
            && !matches!(q.insn, rev_isa::Instruction::Syscall { .. })
        {
            self.form_superblock(&pb, vi, kind);
        }
        if let rev_isa::Instruction::Syscall { num: SYSCALL_REV_DISABLE } = q.insn {
            // The disable syscall itself validated; everything after it
            // runs unvalidated until the enable syscall (trusted
            // self-modifying code, paper Sec. IV.E). Release the
            // quarantine first — the block that asked was genuine.
            if self.release_stores(mem, q.seq + 1, q.cycle).is_err() {
                return self.violation(ViolationKind::ParityError, q);
            }
            self.set_enabled(false);
        }
        CommitGate::Proceed
    }

    fn commit_cfi(&mut self, mem: &mut Hierarchy, q: &CommitQuery) -> CommitGate {
        if !self.enabled {
            if let rev_isa::Instruction::Syscall { num: SYSCALL_REV_ENABLE } = q.insn {
                self.set_enabled(true);
            }
            return CommitGate::Proceed;
        }
        let Some(&pb) = self.pending.get(q.seq) else {
            return CommitGate::Proceed;
        };
        match self.sc.probe(pb.bb_addr, q.cycle) {
            ScProbe::Hit => {}
            ScProbe::Filling(ready) => return CommitGate::StallUntil(ready),
            ScProbe::Miss => {
                self.stats.commit_misses += 1;
                self.sc.stats_mut().complete_misses += 1;
                return match self.start_fill(mem, pb.bb_addr, q.cycle) {
                    Some(ready) => CommitGate::StallUntil(ready.max(q.cycle + 1)),
                    None => self.violation(ViolationKind::NoTable, q),
                };
            }
        }
        let tag = (pb.bb_addr & 0xfff) as u16;
        let ok = self
            .sc
            .entry(pb.bb_addr)
            .map(|e| {
                e.variants
                    .iter()
                    .filter(|v| v.tag == Some(tag))
                    .any(|v| v.succs.contains(&q.actual_target))
            })
            .unwrap_or(false);
        if !ok {
            return self.violation(ViolationKind::IllegalTarget, q);
        }
        self.pending.remove(q.seq);
        self.stats.validations += 1;
        self.bus.emit_with(|| TraceEvent {
            cycle: q.cycle,
            kind: EventKind::ValidationVerdict { bb_addr: pb.bb_addr, verdict: Verdict::Validated },
        });
        CommitGate::Proceed
    }
}

impl ExecMonitor for RevMonitor {
    fn on_fetch(&mut self, mem: &mut Hierarchy, event: &FetchEvent) -> bool {
        if self.violated {
            return false;
        }
        if !self.enabled {
            // Only the enable system call is watched while validation is
            // off (correct path only; the resync machinery re-aligns BB
            // tracking at the next boundary).
            if !event.wrong_path {
                if let rev_isa::Instruction::Syscall { num: SYSCALL_REV_ENABLE } = event.insn {
                    self.set_enabled(true);
                }
            }
            return false;
        }
        let cfi_only = self.config.mode == ValidationMode::CfiOnly;
        if cfi_only {
            // Only computed transfers are validated; no hashing, no
            // deferral, no artificial splits.
            if !event.insn.has_computed_target() {
                return false;
            }
            if self.sc.probe(event.addr, event.cycle) == ScProbe::Miss {
                if !event.wrong_path {
                    self.sc.stats_mut().complete_misses += 1;
                    let _ = self.start_fill(mem, event.addr, event.cycle);
                }
            } else {
                self.sc.stats_mut().hits += 1;
            }
            self.pending.insert(
                event.seq,
                PendingBb {
                    start: event.addr,
                    bb_addr: event.addr,
                    body: BodyHash([0; 32]),
                    needs_hash: false,
                    chg_ready: event.cycle,
                },
            );
            return true;
        }

        // Standard / aggressive: track the dynamic BB byte stream.
        if self.cur_start.is_none() {
            self.cur_start = Some(event.addr);
            self.cur_bytes.clear();
            self.cur_instrs = 0;
            self.cur_stores = 0;
        }
        self.cur_bytes.extend_from_slice(event.byte_slice());
        self.cur_instrs += 1;
        if matches!(event.insn.class(), InstrClass::Store) {
            self.cur_stores += 1;
        }
        let natural = event.insn.is_bb_terminator();
        let artificial = !natural
            && (self.cur_instrs >= self.config.bb_limits.max_instrs
                || self.cur_stores >= self.config.bb_limits.max_stores);
        if !natural && !artificial {
            return false;
        }
        if self.resync {
            // First boundary after re-enable: discard the partial block
            // and start clean tracking from the next instruction.
            self.resync = false;
            self.cur_start = None;
            self.cur_bytes.clear();
            self.cur_instrs = 0;
            self.cur_stores = 0;
            return false;
        }
        if artificial {
            self.stats.artificial_splits += 1;
        }

        let bb_start = self.cur_start.take().expect("tracking active");
        let bb_addr = event.addr;
        let end = event.addr + event.len as u64;
        let bytes = std::mem::take(&mut self.cur_bytes);
        // Deferred batching only when nothing observes per-hash order:
        // a fault campaign needs the hash (and its corruption site) at
        // fetch, and superblocks-off must replicate the scalar path
        // byte for byte.
        let defer = self.config.superblocks && !self.fault.is_enabled();
        let (mut body, needs_hash) = if defer {
            match self.body_cache_probe(bb_start, end, &bytes) {
                Some(hash) => (hash, false),
                None => {
                    self.unhashed.push_back((event.seq, bb_start, end, bytes.clone()));
                    (BodyHash([0; 32]), true)
                }
            }
        } else {
            (self.body_hash(bb_start, end, &bytes), false)
        };
        self.cur_bytes = bytes;
        self.cur_bytes.clear();
        if self.fault.is_enabled() {
            // CHG output-register fault: corrupt this block's in-flight
            // hash only (the memo cache keeps the true value, so the
            // damage is transient). The digest check at commit fails
            // closed; re-fetch retries cannot heal a wrong hash, so the
            // fault escalates to the HashMismatch kill verdict.
            rev_crypto::apply_chg_fault(&self.fault, &mut body);
        }

        // CHG: the hash is ready `latency` cycles after the last byte
        // enters the pipeline.
        if !self.chg.has_capacity() {
            // Over-deep speculation: retire the oldest in-flight hash (its
            // pending record keeps its own ready cycle).
            self.chg.flush_all();
        }
        let chg_ready = self.chg.enqueue(ChgTag(event.seq), event.cycle);
        self.bus.emit_with(|| TraceEvent {
            cycle: event.cycle,
            kind: EventKind::ChgIssue { seq: event.seq, ready_at: chg_ready },
        });

        // SC probe along the predicted path. Fills are only initiated for
        // correct-path fetches: the paper cancels SC fetches issued along
        // a mispredicted path once the misprediction is discovered
        // (Sec. IV.A), and in this front end the discovery is immediate.
        match self.sc.probe(bb_addr, event.cycle) {
            ScProbe::Miss => {
                if !event.wrong_path {
                    self.sc.stats_mut().complete_misses += 1;
                    let _ = self.start_fill(mem, bb_addr, event.cycle);
                }
            }
            ScProbe::Filling(_) => {
                self.sc.stats_mut().hits += 1;
            }
            ScProbe::Hit => {
                // Partial miss if the predicted successor is outside every
                // variant's MRU window but fetchable from spills.
                if !event.wrong_path
                    && self.prefetch_spills_for(mem, bb_addr, event.predicted_next, event.cycle)
                {
                    self.sc.stats_mut().partial_misses += 1;
                } else {
                    self.sc.stats_mut().hits += 1;
                }
            }
        }

        self.pending
            .insert(event.seq, PendingBb { start: bb_start, bb_addr, body, needs_hash, chg_ready });
        true
    }

    fn on_flush(&mut self, from_seq: u64) {
        self.pending.truncate_from(from_seq);
        while self.unhashed.back().map(|&(s, ..)| s >= from_seq).unwrap_or(false) {
            self.unhashed.pop_back();
        }
        if self.retry.map(|(seq, _)| seq >= from_seq).unwrap_or(false) {
            self.retry = None;
        }
        self.chg.flush_from(ChgTag(from_seq));
        // Fetch resumes at a block boundary (mispredicts happen only on
        // terminators), so the tracker restarts cleanly.
        self.cur_start = None;
        self.cur_bytes.clear();
        self.cur_instrs = 0;
        self.cur_stores = 0;
    }

    fn on_terminator_commit(&mut self, mem: &mut Hierarchy, query: &CommitQuery) -> CommitGate {
        if !self.unhashed.is_empty() {
            self.resolve_pending_hashes(query.seq);
        }
        match self.config.mode {
            ValidationMode::CfiOnly => self.commit_cfi(mem, query),
            _ => self.commit_standard(mem, query),
        }
    }

    fn on_store_commit(&mut self, mem: &mut Hierarchy, store: StoreCommit) {
        if self.config.mode == ValidationMode::CfiOnly || !self.enabled {
            // CFI-only trusts code integrity; stores commit directly.
            if self.store_touches_code(store.addr) {
                self.invalidate_code_cache();
            }
            self.committed.write_u64(store.addr, store.value);
            mem.data_access(Request {
                addr: store.addr,
                is_write: true,
                requester: Requester::Data,
                cycle: store.cycle,
            });
            return;
        }
        match self.config.containment {
            Containment::DeferredStores => {
                self.defer.push(DeferredStore {
                    seq: store.seq,
                    addr: store.addr,
                    value: store.value,
                });
                self.stats.defer_occupancy.record(self.defer.len() as u64);
            }
            Containment::ShadowPages => {
                if self.store_touches_code(store.addr) {
                    self.invalidate_code_cache();
                }
                let created = self.shadow.write_u64(&self.committed, store.addr, store.value);
                // The write lands in the shadow page; a first touch also
                // pays the copy-on-write traffic (modeled as one extra
                // line access off the critical path).
                mem.data_access(Request {
                    addr: store.addr,
                    is_write: true,
                    requester: Requester::Data,
                    cycle: store.cycle,
                });
                if created {
                    mem.data_access(Request {
                        addr: store.addr & !63,
                        is_write: false,
                        requester: Requester::Data,
                        cycle: store.cycle,
                    });
                }
            }
        }
    }

    fn can_accept_store(&self) -> bool {
        self.config.mode == ValidationMode::CfiOnly
            || self.config.containment == Containment::ShadowPages
            || self.defer.has_room()
    }

    fn forwards_store(&self, addr: u64) -> bool {
        self.defer.forwards(addr)
    }

    fn on_run_end(&mut self, _mem: &mut Hierarchy, _cycle: u64) {
        self.stats.sc = self.sc.stats();
        self.stats.defer_peak = self.stats.defer_peak.max(self.defer.peak());
        if self.config.containment == Containment::ShadowPages && !self.violated {
            // The execution authenticated end to end: map the shadow
            // pages in (paper Sec. IV.A).
            self.shadow.promote(&mut self.committed);
        }
        self.stats.shadow = self.shadow.stats();
    }
}
