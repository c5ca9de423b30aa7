//! The out-of-order pipeline: fetch → decode/rename → dispatch → issue →
//! execute → writeback → commit, with oracle-driven correct-path fetch and
//! real wrong-path fetch along mispredicted paths.
//!
//! ## Hot-loop layout
//!
//! The per-cycle stages are the simulator's innermost loop, so the ROB is
//! engineered for scan cost, not elegance:
//!
//! * [`Slot`] is `#[repr(C)]` with the scan-hot fields (stage, flags,
//!   seq, sources, completion cycle) packed into the leading bytes, and
//!   everything an instruction only needs once (oracle results, predictor
//!   checkpoint) behind them. Per-slot facts that used to be recomputed
//!   per probe (`InstrClass`, load/store-ness, the oracle's effective
//!   address) are resolved once at fetch into plain fields and flag bits.
//! * Issue is event-driven and never rescans the ROB: dispatch registers
//!   each slot's in-flight sources in a slab-backed [`WakeupTable`],
//!   completion wakes the subscribed consumers, and issue walks only the
//!   sorted ready list (plus a sorted waiting-store list that preserves
//!   the conservative disambiguation the old full scan derived from
//!   not-yet-issued stores). Committed/in-flight store addresses live in
//!   a slab-backed [`StoreTracker`] updated at issue/complete/commit/
//!   squash.
//! * Completion keeps a count of executing slots and the minimum
//!   `complete_at` among them, so cycles with nothing to retire skip the
//!   stage entirely.

use crate::bpred::{BranchPredictor, PredictorCheckpoint};
use crate::config::CpuConfig;
use crate::monitor::{CommitGate, CommitQuery, ExecMonitor, FetchEvent, StoreCommit, Violation};
use crate::oracle::Oracle;
use crate::stats::CpuStats;
use rev_isa::{decode, FReg, InstrClass, Instruction, Reg, MAX_INSTR_LEN, REG_SP};
use rev_mem::{FlatMap, Hierarchy, MainMemory, MemConfig, Request, Requester};
use rev_trace::{EventKind, TraceBus, TraceEvent};
use std::collections::VecDeque;

/// Why a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The committed-instruction budget was reached.
    BudgetReached,
    /// The program executed `halt`.
    Halted,
    /// The monitor reported a validation violation.
    Violation(Violation),
    /// The oracle hit undecodable bytes (control flow escaped into garbage
    /// before any validation boundary could fire).
    OracleFault {
        /// Faulting PC.
        pc: u64,
    },
}

/// Result of [`Pipeline::run`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Counters.
    pub stats: CpuStats,
}

/// Unified integer/FP architectural register id for renaming (0–31 int,
/// 32–63 fp).
fn rid(r: Reg) -> u8 {
    r.index() as u8
}
fn fid(f: FReg) -> u8 {
    32 + f.index() as u8
}

/// Registers read by an instruction (rename sources).
fn reads_of(insn: &Instruction, out: &mut Vec<u8>) {
    out.clear();
    match *insn {
        Instruction::Alu { rs1, rs2, .. } => {
            out.push(rid(rs1));
            out.push(rid(rs2));
        }
        Instruction::AddI { rs, .. }
        | Instruction::AndI { rs, .. }
        | Instruction::XorI { rs, .. }
        | Instruction::MulI { rs, .. }
        | Instruction::Mov { rs, .. } => out.push(rid(rs)),
        Instruction::Fpu { fs1, fs2, .. } => {
            out.push(fid(fs1));
            out.push(fid(fs2));
        }
        Instruction::FMov { fs, .. } => out.push(fid(fs)),
        Instruction::CvtIF { rs, .. } => out.push(rid(rs)),
        Instruction::CvtFI { fs, .. } => out.push(fid(fs)),
        Instruction::Load { rbase, .. } | Instruction::LoadF { rbase, .. } => out.push(rid(rbase)),
        Instruction::Store { rs, rbase, .. } => {
            out.push(rid(rs));
            out.push(rid(rbase));
        }
        Instruction::StoreF { fs, rbase, .. } => {
            out.push(fid(fs));
            out.push(rid(rbase));
        }
        Instruction::Branch { rs1, rs2, .. } => {
            out.push(rid(rs1));
            out.push(rid(rs2));
        }
        Instruction::JmpInd { rt } => out.push(rid(rt)),
        Instruction::CallInd { rt } => {
            out.push(rid(rt));
            out.push(rid(REG_SP));
        }
        Instruction::Call { .. } | Instruction::Ret => out.push(rid(REG_SP)),
        Instruction::Nop
        | Instruction::Halt
        | Instruction::Li { .. }
        | Instruction::Jmp { .. }
        | Instruction::Syscall { .. } => {}
    }
    out.retain(|&r| r != 0); // r0 reads are always ready
}

/// Register written by an instruction (rename destination).
fn write_of(insn: &Instruction) -> Option<u8> {
    match *insn {
        Instruction::Alu { rd, .. }
        | Instruction::AddI { rd, .. }
        | Instruction::AndI { rd, .. }
        | Instruction::XorI { rd, .. }
        | Instruction::MulI { rd, .. }
        | Instruction::Li { rd, .. }
        | Instruction::Mov { rd, .. }
        | Instruction::CvtFI { rd, .. }
        | Instruction::Load { rd, .. } => (rd != Reg::R0).then(|| rid(rd)),
        Instruction::Fpu { fd, .. }
        | Instruction::FMov { fd, .. }
        | Instruction::CvtIF { fd, .. }
        | Instruction::LoadF { fd, .. } => Some(fid(fd)),
        Instruction::Call { .. } | Instruction::CallInd { .. } | Instruction::Ret => {
            Some(rid(REG_SP))
        }
        _ => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Stage {
    Waiting,
    Executing,
    Done,
}

// Slot flag bits, resolved once at fetch.
const F_WRONG_PATH: u16 = 1 << 0;
const F_BOUNDARY: u16 = 1 << 1;
const F_LOAD: u16 = 1 << 2;
const F_STORE: u16 = 1 << 3;
const F_WRITES_REG: u16 = 1 << 4;
const F_MISPREDICTED: u16 = 1 << 5;
const F_RECOVERY_DONE: u16 = 1 << 6;
const F_HAS_DYN: u16 = 1 << 7; // correct path: oracle fields valid
const F_TAKEN: u16 = 1 << 8;
const F_HALTED: u16 = 1 << 9;
const F_HAS_MEM: u16 = 1 << 10; // `mem_addr` valid

/// Checkpoint section marker for the pipeline.
const TAG_CPU: u8 = 0x50; // 'P'

/// One in-flight instruction. `#[repr(C)]` keeps the issue/complete scan
/// fields in the leading bytes so a skipped slot touches one cache line.
#[derive(Debug, Clone)]
#[repr(C)]
struct Slot {
    stage: Stage,
    class: InstrClass,
    src_count: u8,
    /// Source producers still in flight (wakeup scheduling); the slot
    /// enters the ready list when this reaches zero.
    unready: u8,
    flags: u16,
    seq: u64,
    mem_addr: u64, // valid iff F_HAS_MEM
    complete_at: u64,
    srcs: [u64; 2],
    addr: u64,
    next_pc: u64,     // oracle next PC, valid iff F_HAS_DYN
    store_value: u64, // oracle store value (0 when absent)
    dispatch_ready: u64,
    history_at_predict: u64,
    insn: Instruction,
    checkpoint: Option<PredictorCheckpoint>,
}

impl Slot {
    #[inline]
    fn is_load(&self) -> bool {
        self.flags & F_LOAD != 0
    }

    #[inline]
    fn is_store(&self) -> bool {
        self.flags & F_STORE != 0
    }

    #[inline]
    fn flag(&self, f: u16) -> bool {
        self.flags & f != 0
    }

    fn save_state(&self, w: &mut rev_trace::CkptWriter) {
        w.u8(self.stage as u8);
        w.u8(self.src_count);
        w.u8(self.unready);
        w.u16(self.flags);
        w.u64(self.seq);
        w.u64(self.mem_addr);
        w.u64(self.complete_at);
        w.u64(self.srcs[0]);
        w.u64(self.srcs[1]);
        w.u64(self.addr);
        w.u64(self.next_pc);
        w.u64(self.store_value);
        w.u64(self.dispatch_ready);
        w.u64(self.history_at_predict);
        w.bytes(&self.insn.encode());
        match self.checkpoint {
            Some(cp) => {
                w.bool(true);
                cp.save_state(w);
            }
            None => w.bool(false),
        }
    }

    fn restore_state(r: &mut rev_trace::CkptReader<'_>) -> Result<Slot, rev_trace::CkptError> {
        let stage = match r.u8()? {
            0 => Stage::Waiting,
            1 => Stage::Executing,
            2 => Stage::Done,
            b => return Err(rev_trace::CkptError::Malformed(format!("slot stage byte {b:#04x}"))),
        };
        let src_count = r.u8()?;
        let unready = r.u8()?;
        let flags = r.u16()?;
        let seq = r.u64()?;
        let mem_addr = r.u64()?;
        let complete_at = r.u64()?;
        let srcs = [r.u64()?, r.u64()?];
        let addr = r.u64()?;
        let next_pc = r.u64()?;
        let store_value = r.u64()?;
        let dispatch_ready = r.u64()?;
        let history_at_predict = r.u64()?;
        let enc = r.bytes()?;
        let (insn, used) = decode(enc).map_err(|e| {
            rev_trace::CkptError::Malformed(format!("slot instruction bytes: {e:?}"))
        })?;
        if used != enc.len() {
            return Err(rev_trace::CkptError::Malformed(format!(
                "slot instruction encoding has {} trailing bytes",
                enc.len() - used
            )));
        }
        let checkpoint =
            if r.bool()? { Some(PredictorCheckpoint::restore_state(r)?) } else { None };
        Ok(Slot {
            stage,
            class: insn.class(),
            src_count,
            unready,
            flags,
            seq,
            mem_addr,
            complete_at,
            srcs,
            addr,
            next_pc,
            store_value,
            dispatch_ready,
            history_at_predict,
            insn,
            checkpoint,
        })
    }
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct WakeNode {
    consumer: u64,
    next: u32,
}

/// Producer-seq → waiting-consumer-seq lists for event-driven issue: a
/// consumer whose source is still executing registers here at dispatch and
/// is woken (its `unready` count dropped) when the producer completes.
/// Nodes live in a slab with a free list, so steady state allocates
/// nothing. Entries for squashed consumers are skipped lazily at wake time
/// (seqs are never reused); entries keyed by a squashed producer are
/// dropped eagerly during the squash walk.
#[derive(Debug, Clone, Default)]
struct WakeupTable {
    heads: FlatMap<u64, u32>,
    slab: Vec<WakeNode>,
    free: Vec<u32>,
}

impl WakeupTable {
    fn register(&mut self, producer: u64, consumer: u64) {
        let next = self.heads.get(&producer).copied().unwrap_or(NIL);
        let node = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = WakeNode { consumer, next };
                i
            }
            None => {
                self.slab.push(WakeNode { consumer, next });
                (self.slab.len() - 1) as u32
            }
        };
        self.heads.insert(producer, node);
    }

    /// Removes the producer's list, pushing its consumers into `out`.
    fn drain(&mut self, producer: u64, out: &mut Vec<u64>) {
        let Some(head) = self.heads.remove(&producer) else { return };
        let mut cur = head;
        while cur != NIL {
            let n = self.slab[cur as usize];
            out.push(n.consumer);
            self.free.push(cur);
            cur = n.next;
        }
    }

    /// Drops the producer's list without waking anyone (squash path: every
    /// registered consumer is younger and being squashed too).
    fn remove_key(&mut self, producer: u64) {
        let Some(head) = self.heads.remove(&producer) else { return };
        let mut cur = head;
        while cur != NIL {
            self.free.push(cur);
            cur = self.slab[cur as usize].next;
        }
    }

    /// Serializes the logical content (producer → sorted consumer list).
    /// Slab layout and hash order never leak into the checkpoint; drain
    /// order is commutative (each wake only decrements a counter and
    /// sorted-inserts into the ready list), so rebuilding from sorted
    /// lists is behavior-identical.
    fn save_state(&self, w: &mut rev_trace::CkptWriter) {
        let mut producers: Vec<u64> = self.heads.keys().copied().collect();
        producers.sort_unstable();
        w.len(producers.len());
        let mut consumers = Vec::new();
        for p in producers {
            consumers.clear();
            let mut cur = self.heads[&p];
            while cur != NIL {
                let n = self.slab[cur as usize];
                consumers.push(n.consumer);
                cur = n.next;
            }
            consumers.sort_unstable();
            w.u64(p);
            w.u64_slice(&consumers);
        }
    }

    fn restore_state(
        &mut self,
        r: &mut rev_trace::CkptReader<'_>,
    ) -> Result<(), rev_trace::CkptError> {
        *self = WakeupTable::default();
        let n = r.len(8)?;
        for _ in 0..n {
            let p = r.u64()?;
            for c in r.u64_slice()? {
                self.register(p, c);
            }
        }
        Ok(())
    }
}

/// Inserts `seq` into an ascending sorted vec (no-op duplicate guard in
/// debug builds only; callers never insert twice).
#[inline]
fn sorted_insert(v: &mut Vec<u64>, seq: u64) {
    match v.last() {
        Some(&last) if last < seq => v.push(seq),
        None => v.push(seq),
        _ => {
            let i = v.partition_point(|&s| s < seq);
            debug_assert!(v.get(i) != Some(&seq), "duplicate ready/store seq");
            v.insert(i, seq);
        }
    }
}

/// Removes `seq` from an ascending sorted vec, if present.
#[inline]
fn sorted_remove(v: &mut Vec<u64>, seq: u64) {
    let i = v.partition_point(|&s| s < seq);
    if v.get(i) == Some(&seq) {
        v.remove(i);
    }
}

#[derive(Debug, Clone, Copy)]
struct StoreNode {
    seq: u64,
    next: u32,
    done: bool,
}

/// Issued-store disambiguation state, maintained incrementally so the
/// issue stage never rescans the ROB for store addresses. Per address the
/// tracker keeps a seq-ascending intrusive list of in-flight stores whose
/// effective address is known (issued but not yet committed/squashed);
/// nodes live in a slab with a free list, so steady state allocates
/// nothing.
#[derive(Debug, Clone, Default)]
struct StoreTracker {
    heads: FlatMap<u64, u32>,
    slab: Vec<StoreNode>,
    free: Vec<u32>,
}

impl StoreTracker {
    /// A store's address became known (it issued): track it, keeping the
    /// per-address list sorted by seq.
    fn insert(&mut self, addr: u64, seq: u64) {
        let node = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = StoreNode { seq, next: NIL, done: false };
                i
            }
            None => {
                self.slab.push(StoreNode { seq, next: NIL, done: false });
                (self.slab.len() - 1) as u32
            }
        };
        match self.heads.get_mut(&addr) {
            None => {
                self.heads.insert(addr, node);
            }
            Some(head) => {
                if self.slab[*head as usize].seq > seq {
                    self.slab[node as usize].next = *head;
                    *head = node;
                } else {
                    let mut cur = *head;
                    loop {
                        let nxt = self.slab[cur as usize].next;
                        if nxt == NIL || self.slab[nxt as usize].seq > seq {
                            self.slab[node as usize].next = nxt;
                            self.slab[cur as usize].next = node;
                            break;
                        }
                        cur = nxt;
                    }
                }
            }
        }
    }

    /// The store's data is ready (it completed): younger loads may forward.
    fn mark_done(&mut self, addr: u64, seq: u64) {
        if let Some(&head) = self.heads.get(&addr) {
            let mut cur = head;
            while cur != NIL {
                if self.slab[cur as usize].seq == seq {
                    self.slab[cur as usize].done = true;
                    return;
                }
                cur = self.slab[cur as usize].next;
            }
        }
        debug_assert!(false, "completed store missing from tracker");
    }

    /// The store left the window (committed or squashed).
    fn remove(&mut self, addr: u64, seq: u64) {
        let Some(head) = self.heads.get_mut(&addr) else {
            debug_assert!(false, "removed store missing from tracker");
            return;
        };
        let mut cur = *head;
        if self.slab[cur as usize].seq == seq {
            let nxt = self.slab[cur as usize].next;
            if nxt == NIL {
                self.heads.remove(&addr);
            } else {
                *head = nxt;
            }
            self.free.push(cur);
            return;
        }
        loop {
            let nxt = self.slab[cur as usize].next;
            if nxt == NIL {
                debug_assert!(false, "removed store missing from tracker");
                return;
            }
            if self.slab[nxt as usize].seq == seq {
                self.slab[cur as usize].next = self.slab[nxt as usize].next;
                self.free.push(nxt);
                return;
            }
            cur = nxt;
        }
    }

    /// The youngest tracked store at `addr` older than `before_seq`
    /// (the forwarding candidate for a load with that seq).
    fn youngest_older(&self, addr: u64, before_seq: u64) -> Option<(u64, bool)> {
        let &head = self.heads.get(&addr)?;
        let mut best = None;
        let mut cur = head;
        while cur != NIL {
            let n = self.slab[cur as usize];
            if n.seq >= before_seq {
                break; // list is seq-ascending
            }
            best = Some((n.seq, n.done));
            cur = n.next;
        }
        best
    }

    /// Serializes the logical content: per address (sorted), the
    /// seq-ascending list of in-flight stores with their data-ready bits.
    fn save_state(&self, w: &mut rev_trace::CkptWriter) {
        let mut addrs: Vec<u64> = self.heads.keys().copied().collect();
        addrs.sort_unstable();
        w.len(addrs.len());
        for a in addrs {
            w.u64(a);
            let mut entries = Vec::new();
            let mut cur = self.heads[&a];
            while cur != NIL {
                let n = self.slab[cur as usize];
                entries.push((n.seq, n.done));
                cur = n.next;
            }
            w.len(entries.len());
            for (seq, done) in entries {
                w.u64(seq);
                w.bool(done);
            }
        }
    }

    fn restore_state(
        &mut self,
        r: &mut rev_trace::CkptReader<'_>,
    ) -> Result<(), rev_trace::CkptError> {
        *self = StoreTracker::default();
        let n = r.len(8)?;
        for _ in 0..n {
            let addr = r.u64()?;
            let m = r.len(9)?;
            for _ in 0..m {
                let seq = r.u64()?;
                let done = r.bool()?;
                self.insert(addr, seq);
                if done {
                    self.mark_done(addr, seq);
                }
            }
        }
        Ok(())
    }
}

/// The out-of-order core.
///
/// Construct with a loaded [`Oracle`] and run against an [`ExecMonitor`].
///
/// `Clone` produces a structural copy that *shares* the attached
/// [`TraceBus`] handle; callers forking a pipeline for independent reuse
/// must sever it with [`Pipeline::set_trace`]`(TraceBus::disabled())`.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: CpuConfig,
    oracle: Oracle,
    mem: Hierarchy,
    bpred: BranchPredictor,
    fetch_queue: VecDeque<Slot>,
    rob: VecDeque<Slot>,
    // Incremental ROB occupancy by stage/kind, kept in sync by
    // dispatch/issue/commit/squash so dispatch doesn't rescan the ROB.
    iq_occupancy: usize,
    lsq_occupancy: usize,
    // Complete scan bounds: conservative lower bound on the seq of the
    // oldest Executing slot (u64::MAX = none), plus the executing
    // population and its earliest completion cycle.
    first_executing_seq: u64,
    executing_count: usize,
    next_complete_at: u64,
    // Event-driven issue: sorted seqs of Waiting slots whose sources are
    // all complete (or committed), sorted seqs of Waiting store-class
    // slots (conservative disambiguation), and the producer → consumer
    // wakeup lists that maintain `ready` without rescanning the ROB.
    ready: Vec<u64>,
    waiting_stores: Vec<u64>,
    wakeups: WakeupTable,
    ready_scratch: Vec<u64>,
    wake_buf: Vec<u64>,
    stores: StoreTracker,
    last_writer: [Option<u64>; 64],
    in_flight_writers: usize,
    next_seq: u64,
    now: u64,
    fetch_pc: u64,
    fetch_resume: u64,
    wrong_path_mode: bool,
    wrong_path_stuck: bool,
    fetch_stopped: bool, // oracle halted or faulted
    oracle_fault: Option<u64>,
    cur_line: Option<(u64, u64)>,        // (line addr, ready cycle)
    prefetched_line: Option<(u64, u64)>, // (line addr, prefetch done cycle)
    head_retry_at: u64,
    stats: CpuStats,
    stats_start_cycle: u64,
    trace: TraceBus,
    fpu_free: Vec<u64>,
    alu_free: Vec<u64>,
    reads_buf: Vec<u8>,
}

impl Pipeline {
    /// Creates a pipeline over a ready-to-run oracle.
    pub fn new(config: CpuConfig, mem_config: MemConfig, oracle: Oracle) -> Self {
        let entry = oracle.state().pc;
        Pipeline {
            bpred: BranchPredictor::new(config.predictor),
            fpu_free: vec![0; config.fpu_units],
            alu_free: vec![0; config.alu_units],
            config,
            oracle,
            mem: Hierarchy::new(mem_config),
            fetch_queue: VecDeque::new(),
            rob: VecDeque::new(),
            iq_occupancy: 0,
            lsq_occupancy: 0,
            first_executing_seq: u64::MAX,
            executing_count: 0,
            next_complete_at: u64::MAX,
            ready: Vec::new(),
            waiting_stores: Vec::new(),
            wakeups: WakeupTable::default(),
            ready_scratch: Vec::new(),
            wake_buf: Vec::new(),
            stores: StoreTracker::default(),
            last_writer: [None; 64],
            in_flight_writers: 0,
            next_seq: 1,
            now: 0,
            fetch_pc: entry,
            fetch_resume: 0,
            wrong_path_mode: false,
            wrong_path_stuck: false,
            fetch_stopped: false,
            oracle_fault: None,
            cur_line: None,
            prefetched_line: None,
            head_retry_at: 0,
            stats: CpuStats::default(),
            stats_start_cycle: 0,
            trace: TraceBus::disabled(),
            reads_buf: Vec::with_capacity(4),
        }
    }

    /// Attaches a trace bus: fetch and commit events flow through it, and
    /// the memory hierarchy gets a clone for DRAM-access events.
    pub fn set_trace(&mut self, trace: TraceBus) {
        self.mem.set_trace(trace.clone());
        self.trace = trace;
    }

    /// The memory hierarchy (stats inspection).
    pub fn mem(&self) -> &Hierarchy {
        &self.mem
    }

    /// The oracle (architectural state inspection).
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Mutable oracle access (attack injection between cycles).
    pub fn oracle_mut(&mut self) -> &mut Oracle {
        &mut self.oracle
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Clears all statistics (counters restart from zero) without touching
    /// microarchitectural state — ends a cache/predictor warmup phase, the
    /// same methodology as the paper's measurement windows.
    pub fn reset_stats(&mut self) {
        self.stats = CpuStats::default();
        self.stats_start_cycle = self.now;
        self.mem.reset_stats();
    }

    /// Serializes the complete mid-flight core state — oracle
    /// (architectural registers + the live memory pages that differ from
    /// the build image `base`), memory hierarchy, branch predictor, fetch
    /// queue, ROB, every issue/disambiguation structure, and stats — into
    /// a checkpoint section. Scratch buffers and the
    /// trace bus are not state (restored pipelines start with tracing
    /// disabled, matching the fresh-build default); slab-backed tables
    /// are written as canonical sorted logical content, so a restored
    /// pipeline re-serializes byte-identically.
    pub fn save_state(&self, base: &MainMemory, w: &mut rev_trace::CkptWriter) {
        w.tag(TAG_CPU);
        self.oracle.save_state(base, w);
        self.mem.save_state(w);
        self.bpred.save_state(w);
        w.len(self.fetch_queue.len());
        for s in &self.fetch_queue {
            s.save_state(w);
        }
        w.len(self.rob.len());
        for s in &self.rob {
            s.save_state(w);
        }
        w.u64(self.iq_occupancy as u64);
        w.u64(self.lsq_occupancy as u64);
        w.u64(self.first_executing_seq);
        w.u64(self.executing_count as u64);
        w.u64(self.next_complete_at);
        w.u64_slice(&self.ready);
        w.u64_slice(&self.waiting_stores);
        self.wakeups.save_state(w);
        self.stores.save_state(w);
        for writer in self.last_writer {
            w.opt_u64(writer);
        }
        w.u64(self.in_flight_writers as u64);
        w.u64(self.next_seq);
        w.u64(self.now);
        w.u64(self.fetch_pc);
        w.u64(self.fetch_resume);
        w.bool(self.wrong_path_mode);
        w.bool(self.wrong_path_stuck);
        w.bool(self.fetch_stopped);
        w.opt_u64(self.oracle_fault);
        w.opt_u64(self.cur_line.map(|(l, _)| l));
        w.opt_u64(self.cur_line.map(|(_, c)| c));
        w.opt_u64(self.prefetched_line.map(|(l, _)| l));
        w.opt_u64(self.prefetched_line.map(|(_, c)| c));
        w.u64(self.head_retry_at);
        self.stats.save_state(w);
        w.u64(self.stats_start_cycle);
        w.u64_slice(&self.fpu_free);
        w.u64_slice(&self.alu_free);
    }

    /// Restores state saved by [`Pipeline::save_state`] into a pipeline
    /// freshly built with the identical configuration, program, and
    /// initial memory image (the enclosing checkpoint carries a
    /// fingerprint guarding this). Scratch buffers reset; the trace bus
    /// stays as constructed (disabled).
    ///
    /// # Errors
    ///
    /// Returns [`rev_trace::CkptError`] on decode failure or a
    /// configuration mismatch.
    pub fn restore_state(
        &mut self,
        r: &mut rev_trace::CkptReader<'_>,
    ) -> Result<(), rev_trace::CkptError> {
        r.tag(TAG_CPU)?;
        self.oracle.restore_state(r)?;
        self.mem.restore_state(r)?;
        self.bpred.restore_state(r)?;
        let n = r.len(1)?;
        self.fetch_queue.clear();
        for _ in 0..n {
            self.fetch_queue.push_back(Slot::restore_state(r)?);
        }
        let n = r.len(1)?;
        self.rob.clear();
        for _ in 0..n {
            self.rob.push_back(Slot::restore_state(r)?);
        }
        self.iq_occupancy = r.u64()? as usize;
        self.lsq_occupancy = r.u64()? as usize;
        self.first_executing_seq = r.u64()?;
        self.executing_count = r.u64()? as usize;
        self.next_complete_at = r.u64()?;
        self.ready = r.u64_slice()?;
        self.waiting_stores = r.u64_slice()?;
        self.wakeups.restore_state(r)?;
        self.stores.restore_state(r)?;
        for writer in &mut self.last_writer {
            *writer = r.opt_u64()?;
        }
        self.in_flight_writers = r.u64()? as usize;
        self.next_seq = r.u64()?;
        self.now = r.u64()?;
        self.fetch_pc = r.u64()?;
        self.fetch_resume = r.u64()?;
        self.wrong_path_mode = r.bool()?;
        self.wrong_path_stuck = r.bool()?;
        self.fetch_stopped = r.bool()?;
        self.oracle_fault = r.opt_u64()?;
        self.cur_line = match (r.opt_u64()?, r.opt_u64()?) {
            (Some(l), Some(c)) => Some((l, c)),
            (None, None) => None,
            _ => {
                return Err(rev_trace::CkptError::Malformed(
                    "half-present current fetch line".to_string(),
                ))
            }
        };
        self.prefetched_line = match (r.opt_u64()?, r.opt_u64()?) {
            (Some(l), Some(c)) => Some((l, c)),
            (None, None) => None,
            _ => {
                return Err(rev_trace::CkptError::Malformed(
                    "half-present prefetched line".to_string(),
                ))
            }
        };
        self.head_retry_at = r.u64()?;
        self.stats.restore_state(r)?;
        self.stats_start_cycle = r.u64()?;
        let fpu_free = r.u64_slice()?;
        let alu_free = r.u64_slice()?;
        if fpu_free.len() != self.fpu_free.len() || alu_free.len() != self.alu_free.len() {
            return Err(rev_trace::CkptError::Malformed(format!(
                "functional-unit counts {}/{} do not match configuration {}/{}",
                fpu_free.len(),
                alu_free.len(),
                self.fpu_free.len(),
                self.alu_free.len()
            )));
        }
        self.fpu_free = fpu_free;
        self.alu_free = alu_free;
        self.ready_scratch.clear();
        self.wake_buf.clear();
        self.reads_buf.clear();
        Ok(())
    }

    /// Runs until `max_instrs` correct-path instructions commit, the
    /// program halts, or the monitor reports a violation.
    ///
    /// This is the monolithic run-to-completion loop: the monitor's
    /// end-of-run hook fires on **every** exit path, including
    /// [`RunOutcome::BudgetReached`]. Suspendable sessions instead call
    /// [`Pipeline::run_slice`] repeatedly and [`Pipeline::finish_run`]
    /// exactly once, which composes to the same hook sequence.
    pub fn run<M: ExecMonitor>(&mut self, monitor: &mut M, max_instrs: u64) -> RunResult {
        let result = self.run_slice(monitor, max_instrs);
        if result.outcome == RunOutcome::BudgetReached {
            self.finish_run(monitor);
        }
        result
    }

    /// Fires the monitor's end-of-run hook (terminal state flush: shadow
    /// promotion, SC stat capture). [`Pipeline::run`] does this
    /// implicitly; a caller stepping the core through [`Self::run_slice`]
    /// budget slices must call it exactly once, when the run is truly
    /// over — an intermediate yield is *not* an end of run, and firing
    /// the hook there would promote shadow pages mid-execution.
    pub fn finish_run<M: ExecMonitor>(&mut self, monitor: &mut M) {
        monitor.on_run_end(&mut self.mem, self.now);
    }

    /// Runs until the **cumulative** committed-instruction count (since
    /// the last [`Self::reset_stats`]) reaches `max_instrs`, the program
    /// halts, or the monitor reports a violation — then returns *without*
    /// firing the monitor's end-of-run hook on the budget path, so the
    /// caller can resume from the exact microarchitectural state later.
    /// Halt and violation exits are terminal and do fire the hook.
    ///
    /// The per-cycle loop is byte-for-byte the monolithic one: a slice
    /// boundary is only an early return between two cycles, never a
    /// different cycle, so stepping in arbitrary budget slices commits
    /// the same instructions on the same cycles as one big run (the
    /// session-slicing equivalence suite in `rev-bench` pins this across
    /// all 18 workload profiles).
    pub fn run_slice<M: ExecMonitor>(&mut self, monitor: &mut M, max_instrs: u64) -> RunResult {
        // A previous slice can end on the exact cycle the program drains
        // (the halt commits and the budget hits together): the budget
        // return below pre-empts the empty check, so the drained state is
        // only discovered here, on resume. Re-derive it *before* stepping
        // a cycle — the monolithic loop sees empty in the same iteration,
        // and resumption must not charge a cycle it never ran.
        if self.pipeline_empty() {
            monitor.on_run_end(&mut self.mem, self.now);
            let outcome = match self.oracle_fault {
                Some(pc) => RunOutcome::OracleFault { pc },
                None => RunOutcome::Halted,
            };
            return RunResult { outcome, stats: self.stats.clone() };
        }
        let mut last_commit_cycle = self.now;
        let mut last_committed = self.stats.committed_instrs;
        loop {
            if let Some(v) = self.cycle(monitor) {
                monitor.on_run_end(&mut self.mem, self.now);
                return RunResult { outcome: RunOutcome::Violation(v), stats: self.stats.clone() };
            }
            if self.stats.committed_instrs != last_committed {
                last_committed = self.stats.committed_instrs;
                last_commit_cycle = self.now;
            }
            if self.stats.committed_instrs >= max_instrs {
                return RunResult { outcome: RunOutcome::BudgetReached, stats: self.stats.clone() };
            }
            if self.pipeline_empty() {
                monitor.on_run_end(&mut self.mem, self.now);
                let outcome = match self.oracle_fault {
                    Some(pc) => RunOutcome::OracleFault { pc },
                    None => RunOutcome::Halted,
                };
                return RunResult { outcome, stats: self.stats.clone() };
            }
            assert!(
                self.now - last_commit_cycle < 1_000_000,
                "pipeline deadlock at cycle {} (head: {:?})",
                self.now,
                self.rob.front().map(|s| (s.seq, s.addr, s.insn, s.stage))
            );
            // Pre-gate on the cheapest disqualifier (issue always acts on
            // a non-empty ready list) so busy cycles don't pay the full
            // idle-condition scan.
            if self.ready.is_empty() {
                self.skip_idle_cycles();
            }
        }
    }

    /// Fast-forwards `now` over cycles in which no stage can act (a
    /// long-latency load at the ROB head with the whole machine drained
    /// behind it, an i-cache line fill in flight): every stage's blocking
    /// condition is re-derived here with *no* side effects, and the next
    /// stepped cycle becomes the earliest event that could unblock any of
    /// them. Windows where a stage charges per-cycle stall statistics (a
    /// commit-eligible head held by the monitor or defer-buffer
    /// back-pressure) are never skipped, so counters and timing are
    /// exactly as if every idle cycle had been stepped.
    fn skip_idle_cycles(&mut self) {
        let t = self.now + 1;
        let mut next_event = u64::MAX;
        // Commit: only a not-yet-committable head is skippable (a Done
        // head past its commit delay may retire or charge stall counters).
        if let Some(h) = self.rob.front() {
            if h.stage == Stage::Done {
                if t < h.complete_at + 2 {
                    next_event = next_event.min(h.complete_at + 2);
                } else {
                    return;
                }
            }
        }
        // Complete.
        if self.executing_count > 0 {
            if t < self.next_complete_at {
                next_event = next_event.min(self.next_complete_at);
            } else {
                return;
            }
        }
        // Issue (re-checked for callers other than the gated run loop).
        if !self.ready.is_empty() {
            return;
        }
        // Dispatch: resource blocks (ROB/IQ/LSQ/physical registers) only
        // clear via commit or issue, both established idle above, so they
        // carry no wake-up event of their own.
        if let Some(f) = self.fetch_queue.front() {
            if t < f.dispatch_ready {
                next_event = next_event.min(f.dispatch_ready);
            } else {
                let blocked = self.rob.len() >= self.config.rob_size
                    || self.iq_occupancy >= self.config.iq_size
                    || ((f.is_load() || f.is_store())
                        && self.lsq_occupancy >= self.config.lsq_size)
                    || (f.flag(F_WRITES_REG)
                        && self.in_flight_writers + 64 >= self.config.phys_regs);
                if !blocked {
                    return;
                }
            }
        }
        // Fetch: a full fetch queue drains only via dispatch (idle above);
        // a pending i-line wait has a known ready cycle; anything else
        // would touch the memory system, so no skip.
        if !self.fetch_stopped && !self.wrong_path_stuck {
            if t < self.fetch_resume {
                next_event = next_event.min(self.fetch_resume);
            } else if self.fetch_queue.len() < self.config.fetch_queue {
                let line_mask = !(self.mem.config().l1i.line_bytes as u64 - 1);
                match self.cur_line {
                    Some((l, ready)) if l == self.fetch_pc & line_mask && t < ready => {
                        next_event = next_event.min(ready);
                    }
                    _ => return,
                }
            }
        }
        if next_event != u64::MAX && next_event > t {
            self.now = next_event - 1;
        }
    }

    fn pipeline_empty(&self) -> bool {
        self.fetch_stopped && self.rob.is_empty() && self.fetch_queue.is_empty()
    }

    /// Advances one cycle. Returns a violation if the monitor raised one.
    pub fn cycle<M: ExecMonitor>(&mut self, monitor: &mut M) -> Option<Violation> {
        self.now += 1;
        self.stats.cycles = self.now - self.stats_start_cycle;
        if let Some(v) = self.commit_stage(monitor) {
            return Some(v);
        }
        self.complete_stage(monitor);
        self.issue_stage(monitor);
        self.dispatch_stage();
        self.fetch_stage(monitor);
        None
    }

    /// Index of the first ROB slot whose seq is `>= bound` (scan starting
    /// point for the hint-bounded stages; the ROB is seq-ascending).
    ///
    /// Seqs grow by at least one per slot (monotonic fetch numbering,
    /// head/tail-only removal), so slot `i` holds seq `>= head.seq + i`:
    /// `bound - head.seq` is *exact* while the window holds no squash gap
    /// (the overwhelmingly common case) and an upper bound otherwise, where
    /// a binary search over the tightened prefix finishes the job.
    #[inline]
    fn rob_idx_of(&self, bound: u64) -> usize {
        if bound == u64::MAX {
            return self.rob.len();
        }
        let Some(front) = self.rob.front() else { return 0 };
        if bound <= front.seq {
            return 0;
        }
        let cand = (bound - front.seq) as usize;
        if cand < self.rob.len() {
            if self.rob[cand].seq == bound {
                return cand; // dense window — O(1) probe hit
            }
        } else if self.rob.back().map(|s| s.seq < bound).unwrap_or(true) {
            return self.rob.len();
        }
        // A squash gap sits between the head and `bound`: the answer is
        // somewhere in `[0, cand]`.
        let (mut lo, mut hi) = (0usize, cand.min(self.rob.len()));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.rob[mid].seq < bound {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    // ----- commit ---------------------------------------------------------

    fn commit_stage<M: ExecMonitor>(&mut self, monitor: &mut M) -> Option<Violation> {
        for _ in 0..self.config.width {
            let Some(head) = self.rob.front() else { break };
            debug_assert!(!head.flag(F_WRONG_PATH), "wrong-path at ROB head");
            if head.stage != Stage::Done || self.now < head.complete_at + 2 {
                break;
            }
            if head.is_store() && !monitor.can_accept_store() {
                self.stats.defer_full_stall_cycles += 1;
                break;
            }
            if head.flag(F_BOUNDARY) {
                if self.now < self.head_retry_at {
                    self.stats.validation_stall_cycles += 1;
                    break;
                }
                debug_assert!(head.flag(F_HAS_DYN), "correct-path head has oracle info");
                let query = CommitQuery {
                    seq: head.seq,
                    bb_addr: head.addr,
                    cycle: self.now,
                    actual_target: head.next_pc,
                    insn: head.insn,
                };
                match monitor.on_terminator_commit(&mut self.mem, &query) {
                    CommitGate::Proceed => {}
                    CommitGate::StallUntil(c) => {
                        self.head_retry_at = c.max(self.now + 1);
                        self.stats.validation_stall_cycles += 1;
                        break;
                    }
                    CommitGate::Violation(v) => return Some(v),
                }
            }
            let slot = self.rob.pop_front().expect("head exists");
            self.trace.emit_with(|| TraceEvent {
                cycle: self.now,
                kind: EventKind::Commit { seq: slot.seq, addr: slot.addr },
            });
            self.head_retry_at = 0;
            if slot.is_load() || slot.is_store() {
                self.lsq_occupancy -= 1;
            }
            if slot.flag(F_WRITES_REG) {
                self.in_flight_writers -= 1;
            }
            debug_assert!(slot.flag(F_HAS_DYN), "correct path");
            // Train the predictor with the architectural outcome.
            match slot.class {
                InstrClass::CondBranch => {
                    self.bpred.update_cond(slot.addr, slot.flag(F_TAKEN), slot.history_at_predict);
                    self.stats.committed_cond_branches += 1;
                    if slot.flag(F_MISPREDICTED) {
                        self.stats.mispredicts += 1;
                    }
                }
                InstrClass::JumpIndirect | InstrClass::CallIndirect => {
                    self.bpred.update_indirect(slot.addr, slot.next_pc);
                }
                _ => {}
            }
            if slot.insn.is_bb_terminator() && !matches!(slot.insn, Instruction::Halt) {
                self.stats.committed_branches += 1;
                self.stats.unique_branch_addrs.insert(slot.addr);
            }
            if slot.is_store() {
                debug_assert!(slot.flag(F_HAS_MEM), "stores have addresses");
                self.stores.remove(slot.mem_addr, slot.seq);
                monitor.on_store_commit(
                    &mut self.mem,
                    StoreCommit {
                        seq: slot.seq,
                        addr: slot.mem_addr,
                        value: slot.store_value,
                        cycle: self.now,
                    },
                );
            }
            self.stats.committed_instrs += 1;
            self.stats.mix.record(slot.class);
            if slot.flag(F_HALTED) {
                self.fetch_stopped = true;
            }
        }
        None
    }

    // ----- complete / branch resolution -----------------------------------

    fn complete_stage<M: ExecMonitor>(&mut self, monitor: &mut M) {
        if self.executing_count == 0 || self.now < self.next_complete_at {
            return;
        }
        let start = self.rob_idx_of(self.first_executing_seq);
        let mut recover_from: Option<usize> = None;
        let mut remaining = self.executing_count;
        let mut new_first = u64::MAX;
        let mut new_next = u64::MAX;
        let mut woken = std::mem::take(&mut self.wake_buf);
        woken.clear();
        for i in start..self.rob.len() {
            if remaining == 0 {
                break;
            }
            let (seq, complete_at, flags, mem_addr) = {
                let s = &self.rob[i];
                if s.stage != Stage::Executing {
                    continue;
                }
                (s.seq, s.complete_at, s.flags, s.mem_addr)
            };
            remaining -= 1;
            if self.now >= complete_at {
                let s = &mut self.rob[i];
                s.stage = Stage::Done;
                self.executing_count -= 1;
                self.wakeups.drain(seq, &mut woken);
                if flags & (F_STORE | F_HAS_MEM) == (F_STORE | F_HAS_MEM) {
                    self.stores.mark_done(mem_addr, seq);
                }
                if flags & F_MISPREDICTED != 0
                    && flags & F_WRONG_PATH == 0
                    && flags & F_RECOVERY_DONE == 0
                {
                    self.rob[i].flags |= F_RECOVERY_DONE;
                    recover_from = Some(i);
                    break; // the oldest resolving mispredict wins
                }
            } else {
                if new_first == u64::MAX {
                    new_first = seq;
                }
                new_next = new_next.min(complete_at);
            }
        }
        self.first_executing_seq = new_first;
        self.next_complete_at = new_next;
        // Wake consumers of the newly completed producers. Registrations
        // for consumers that were squashed since dispatch are skipped (the
        // seq no longer resolves to a slot).
        for &consumer in &woken {
            let idx = self.rob_idx_of(consumer);
            let Some(s) = self.rob.get_mut(idx) else { continue };
            if s.seq != consumer || s.stage != Stage::Waiting {
                continue;
            }
            debug_assert!(s.unready > 0, "woken slot has no pending sources");
            s.unready -= 1;
            if s.unready == 0 {
                sorted_insert(&mut self.ready, consumer);
            }
        }
        woken.clear();
        self.wake_buf = woken;
        if let Some(i) = recover_from {
            self.recover_from_mispredict(i, monitor);
        }
    }

    fn recover_from_mispredict<M: ExecMonitor>(&mut self, rob_idx: usize, monitor: &mut M) {
        let branch_seq = self.rob[rob_idx].seq;
        debug_assert!(self.rob[rob_idx].flag(F_HAS_DYN), "correct path");
        let actual = self.rob[rob_idx].next_pc;
        let taken = self.rob[rob_idx].flag(F_TAKEN);
        let cp = self.rob[rob_idx].checkpoint;
        let is_cond = matches!(self.rob[rob_idx].class, InstrClass::CondBranch);

        // Squash everything younger than the branch.
        self.squash_after(branch_seq);
        monitor.on_flush(branch_seq + 1);

        if let Some(cp) = cp {
            self.bpred.restore(cp, is_cond.then_some(taken));
        }
        self.fetch_pc = actual;
        self.fetch_resume = self.now + 1;
        self.wrong_path_mode = false;
        self.wrong_path_stuck = false;
        self.cur_line = None;
    }

    fn squash_after(&mut self, seq: u64) {
        while self.rob.back().map(|s| s.seq > seq).unwrap_or(false) {
            let s = self.rob.pop_back().expect("non-empty");
            if s.flag(F_WRITES_REG) {
                self.in_flight_writers -= 1;
            }
            if s.flag(F_WRONG_PATH) {
                self.stats.wrong_path_fetched += 1;
            }
            match s.stage {
                Stage::Waiting => {
                    self.iq_occupancy -= 1;
                    if s.unready == 0 {
                        sorted_remove(&mut self.ready, s.seq);
                    }
                    if s.is_store() {
                        sorted_remove(&mut self.waiting_stores, s.seq);
                    }
                }
                Stage::Executing => self.executing_count -= 1,
                Stage::Done => {}
            }
            if s.stage != Stage::Waiting && s.flags & (F_STORE | F_HAS_MEM) == (F_STORE | F_HAS_MEM)
            {
                self.stores.remove(s.mem_addr, s.seq);
            }
            if s.is_load() || s.is_store() {
                self.lsq_occupancy -= 1;
            }
            // Any wakeup list keyed by this producer only names younger
            // consumers, all squashed in this same walk: drop it whole.
            self.wakeups.remove_key(s.seq);
        }
        for s in self.fetch_queue.drain(..) {
            if s.flag(F_WRITES_REG) {
                self.in_flight_writers -= 1;
            }
            if s.flag(F_WRONG_PATH) {
                self.stats.wrong_path_fetched += 1;
            }
        }
        // Rebuild the rename map from the survivors.
        self.last_writer = [None; 64];
        let mut rebuilt = [None; 64];
        for s in &self.rob {
            if let Some(w) = write_of(&s.insn) {
                rebuilt[w as usize] = Some(s.seq);
            }
        }
        self.last_writer = rebuilt;
    }

    // ----- issue -----------------------------------------------------------

    fn issue_stage<M: ExecMonitor>(&mut self, monitor: &mut M) {
        if self.ready.is_empty() {
            return;
        }
        let mut issued = 0usize;
        let mut load_used = 0usize;
        let mut store_used = 0usize;
        // Walk this cycle's ready slots oldest-first (the list is sorted by
        // seq). A slot that stays blocked — port-limited, disambiguation,
        // waiting on a forwarding store's data — simply remains in the
        // ready list for next cycle. Conservative disambiguation consults
        // `waiting_stores` live: a store still listed when a younger load
        // is considered either was not ready or did not claim a port, which
        // is exactly the old scan's `older_store_addr_unknown` condition.
        let mut candidates = std::mem::take(&mut self.ready_scratch);
        candidates.clear();
        candidates.extend_from_slice(&self.ready);
        for &seq in &candidates {
            if issued >= self.config.width {
                break;
            }
            let idx = self.rob_idx_of(seq);
            debug_assert!(
                self.rob.get(idx).map(|s| s.seq == seq && s.stage == Stage::Waiting) == Some(true),
                "ready list out of sync with ROB"
            );
            let (flags, mem_addr, class) = {
                let s = &self.rob[idx];
                (s.flags, s.mem_addr, s.class)
            };

            // Functional-unit availability.
            let complete_at = match class {
                InstrClass::IntAlu
                | InstrClass::CondBranch
                | InstrClass::Jump
                | InstrClass::JumpIndirect
                | InstrClass::Syscall
                | InstrClass::Other => match self.claim_alu() {
                    Some(()) => self.now + 1,
                    None => continue,
                },
                InstrClass::IntMul => match self.claim_alu() {
                    Some(()) => self.now + self.config.mul_latency,
                    None => continue,
                },
                InstrClass::Fp => match self.claim_fpu(1) {
                    Some(()) => self.now + self.config.fp_latency,
                    None => continue,
                },
                InstrClass::FpDiv => match self.claim_fpu(self.config.fpdiv_latency) {
                    Some(()) => self.now + self.config.fpdiv_latency,
                    None => continue,
                },
                InstrClass::Load | InstrClass::Return => {
                    if load_used >= self.config.load_units {
                        continue;
                    }
                    if flags & F_WRONG_PATH != 0 {
                        load_used += 1;
                        self.now + 3 // wrong-path load: no oracle address
                    } else {
                        if self.waiting_stores.first().map(|&s| s < seq).unwrap_or(false) {
                            continue; // conservative disambiguation
                        }
                        debug_assert!(flags & F_HAS_MEM != 0, "correct-path loads have addresses");
                        let addr = mem_addr;
                        match self.stores.youngest_older(addr, seq) {
                            Some((_, false)) => {
                                continue; // wait for the forwarding store's data
                            }
                            Some((_, true)) => {
                                load_used += 1;
                                self.now + 2 // store-to-load forward
                            }
                            None => {
                                if monitor.forwards_store(addr) {
                                    load_used += 1;
                                    self.now + 2 // forward from the deferred buffer
                                } else {
                                    load_used += 1;
                                    let out = self.mem.data_access(Request {
                                        addr,
                                        is_write: false,
                                        requester: Requester::Data,
                                        cycle: self.now,
                                    });
                                    out.complete_at
                                }
                            }
                        }
                    }
                }
                InstrClass::Store | InstrClass::CallDirect | InstrClass::CallIndirect => {
                    if store_used >= self.config.store_units {
                        // Ready but port-limited: its address stays unknown
                        // to younger loads this cycle (it remains listed in
                        // `waiting_stores`).
                        continue;
                    }
                    store_used += 1;
                    self.now + 1 // address generation; data written post-commit
                }
            };

            let s = &mut self.rob[idx];
            s.stage = Stage::Executing;
            s.complete_at = complete_at;
            issued += 1;
            self.iq_occupancy -= 1;
            self.executing_count += 1;
            self.first_executing_seq = self.first_executing_seq.min(seq);
            self.next_complete_at = self.next_complete_at.min(complete_at);
            sorted_remove(&mut self.ready, seq);
            if flags & F_STORE != 0 {
                sorted_remove(&mut self.waiting_stores, seq);
            }
            if flags & (F_STORE | F_HAS_MEM) == (F_STORE | F_HAS_MEM) {
                self.stores.insert(mem_addr, seq);
            }
        }
        self.ready_scratch = candidates;
    }

    fn claim_alu(&mut self) -> Option<()> {
        let now = self.now;
        let slot = self.alu_free.iter_mut().find(|f| **f <= now)?;
        *slot = now + 1;
        Some(())
    }

    fn claim_fpu(&mut self, occupy: u64) -> Option<()> {
        let now = self.now;
        let slot = self.fpu_free.iter_mut().find(|f| **f <= now)?;
        *slot = now + occupy;
        Some(())
    }

    // ----- dispatch --------------------------------------------------------

    fn dispatch_stage(&mut self) {
        debug_assert_eq!(
            self.iq_occupancy,
            self.rob.iter().filter(|s| s.stage == Stage::Waiting).count(),
            "iq occupancy counter out of sync"
        );
        debug_assert_eq!(
            self.lsq_occupancy,
            self.rob.iter().filter(|s| s.is_load() || s.is_store()).count(),
            "lsq occupancy counter out of sync"
        );
        debug_assert_eq!(
            self.executing_count,
            self.rob.iter().filter(|s| s.stage == Stage::Executing).count(),
            "executing counter out of sync"
        );
        debug_assert_eq!(
            self.ready.len(),
            self.rob.iter().filter(|s| s.stage == Stage::Waiting && s.unready == 0).count(),
            "ready list out of sync"
        );
        debug_assert_eq!(
            self.waiting_stores.len(),
            self.rob.iter().filter(|s| s.stage == Stage::Waiting && s.is_store()).count(),
            "waiting-store list out of sync"
        );
        let mut dispatched = 0;
        while dispatched < self.config.width {
            let Some(front) = self.fetch_queue.front() else { break };
            if self.now < front.dispatch_ready {
                break;
            }
            if self.rob.len() >= self.config.rob_size {
                break;
            }
            if self.iq_occupancy >= self.config.iq_size {
                break;
            }
            let front_mem = front.is_load() || front.is_store();
            if front_mem && self.lsq_occupancy >= self.config.lsq_size {
                break;
            }
            if front.flag(F_WRITES_REG) && self.in_flight_writers + 64 >= self.config.phys_regs {
                break;
            }
            let mut slot = self.fetch_queue.pop_front().expect("front exists");
            // Rename: resolve source producers.
            reads_of(&slot.insn, &mut self.reads_buf);
            let mut n = 0usize;
            for &r in &self.reads_buf {
                if let Some(p) = self.last_writer[r as usize] {
                    slot.srcs[n] = p;
                    n += 1;
                }
            }
            slot.src_count = n as u8;
            if let Some(w) = write_of(&slot.insn) {
                self.last_writer[w as usize] = Some(slot.seq);
            }
            slot.stage = Stage::Waiting;
            // Wakeup scheduling: count the sources still in flight and
            // subscribe to their completions; a slot with none is ready
            // now. (A source older than the ROB head has committed.)
            let head_seq = self.rob.front().map(|s| s.seq).unwrap_or(u64::MAX);
            let mut unready = 0u8;
            for k in 0..n {
                let p = slot.srcs[k];
                if p >= head_seq {
                    // The producer is still in the ROB (renamed at dispatch,
                    // rebuilt on squash, younger than the head): read its
                    // stage directly instead of keeping a side done-set.
                    let i = self.rob_idx_of(p);
                    let done =
                        self.rob.get(i).map(|s| s.seq == p && s.stage == Stage::Done) == Some(true);
                    if !done {
                        unready += 1;
                        self.wakeups.register(p, slot.seq);
                    }
                }
            }
            slot.unready = unready;
            if unready == 0 {
                sorted_insert(&mut self.ready, slot.seq);
            }
            if slot.is_store() {
                sorted_insert(&mut self.waiting_stores, slot.seq);
            }
            self.iq_occupancy += 1;
            if front_mem {
                self.lsq_occupancy += 1;
            }
            self.rob.push_back(slot);
            dispatched += 1;
        }
    }

    // ----- fetch -----------------------------------------------------------

    fn fetch_stage<M: ExecMonitor>(&mut self, monitor: &mut M) {
        if self.fetch_stopped || self.wrong_path_stuck || self.now < self.fetch_resume {
            return;
        }
        let line_mask = !(self.mem.config().l1i.line_bytes as u64 - 1);
        for _ in 0..self.config.fetch_width {
            if self.fetch_queue.len() >= self.config.fetch_queue {
                break;
            }
            // Instruction-cache line availability (with next-line stream
            // prefetch: sequential line fills are overlapped, fills after
            // taken control transfers pay the full miss).
            let line = self.fetch_pc & line_mask;
            match self.cur_line {
                Some((l, ready)) if l == line => {
                    if self.now < ready {
                        break;
                    }
                }
                _ => {
                    let out = self.mem.fetch_access(line, self.now);
                    let mut ready = out.complete_at;
                    if let Some((pl, prdy)) = self.prefetched_line {
                        if pl == line {
                            // The line is resident thanks to the prefetch,
                            // but not usable before the prefetch completes.
                            ready = ready.max(prdy);
                        }
                    }
                    let line_bytes = self.mem.config().l1i.line_bytes as u64;
                    let pf_done = self.mem.prefetch_line(line + line_bytes, self.now);
                    self.prefetched_line = Some((line + line_bytes, pf_done));
                    self.cur_line = Some((line, ready));
                    if self.now < ready {
                        self.fetch_resume = ready;
                        break;
                    }
                }
            }

            // Obtain the instruction: oracle step (correct path) or raw
            // decode (wrong path). The oracle fills `bytes` with the very
            // code it decoded, so the fetch event needs no second read.
            let mut bytes = [0u8; MAX_INSTR_LEN];
            let (insn, len, dyn_op) = if self.wrong_path_mode {
                self.oracle.mem().read_filtered(self.fetch_pc, &mut bytes);
                match decode(&bytes) {
                    Ok((insn, len)) => (insn, len as u8, None),
                    Err(_) => {
                        // Wrong-path fetch ran into garbage: stall until
                        // the mispredict resolves.
                        self.wrong_path_stuck = true;
                        break;
                    }
                }
            } else {
                match self.oracle.step_fetched(&mut bytes) {
                    Ok(op) => (op.insn, op.len, Some(op)),
                    Err(e) => {
                        let crate::oracle::OracleError::IllegalInstruction { pc } = e;
                        self.oracle_fault = Some(pc);
                        self.fetch_stopped = true;
                        break;
                    }
                }
            };
            for b in &mut bytes[len as usize..] {
                *b = 0;
            }
            let addr = self.fetch_pc;
            let fall_through = addr + len as u64;

            // Predict the next fetch address.
            let mut checkpoint = None;
            let mut history_at_predict = self.bpred.history();
            let predicted_next = match insn {
                Instruction::Branch { disp, .. } => {
                    checkpoint = Some(self.bpred.checkpoint());
                    history_at_predict = self.bpred.history();
                    let predicted_taken = self.bpred.predict_cond(addr);
                    // Speculative history: actual outcome on the correct
                    // path (known from the oracle), prediction otherwise.
                    let history_bit = match &dyn_op {
                        Some(d) => d.taken,
                        None => predicted_taken,
                    };
                    self.bpred.push_history(history_bit);
                    if predicted_taken {
                        fall_through.wrapping_add(disp as i64 as u64)
                    } else {
                        fall_through
                    }
                }
                Instruction::Jmp { disp } => fall_through.wrapping_add(disp as i64 as u64),
                Instruction::Call { disp } => {
                    checkpoint = Some(self.bpred.checkpoint());
                    self.bpred.ras_push(fall_through);
                    fall_through.wrapping_add(disp as i64 as u64)
                }
                Instruction::JmpInd { .. } => {
                    checkpoint = Some(self.bpred.checkpoint());
                    self.bpred.predict_indirect(addr).unwrap_or(fall_through)
                }
                Instruction::CallInd { .. } => {
                    checkpoint = Some(self.bpred.checkpoint());
                    self.bpred.ras_push(fall_through);
                    self.bpred.predict_indirect(addr).unwrap_or(fall_through)
                }
                Instruction::Ret => {
                    checkpoint = Some(self.bpred.checkpoint());
                    self.bpred.ras_pop().unwrap_or(fall_through)
                }
                Instruction::Halt => addr,
                _ => fall_through,
            };

            let mispredicted = match &dyn_op {
                Some(d) => !d.halted && predicted_next != d.next_pc,
                None => false,
            };

            let seq = self.next_seq;
            self.next_seq += 1;
            let event = FetchEvent {
                seq,
                addr,
                insn,
                bytes,
                len,
                cycle: self.now,
                predicted_next,
                wrong_path: self.wrong_path_mode,
            };
            self.trace.emit_with(|| TraceEvent {
                cycle: self.now,
                kind: EventKind::Fetch { seq, addr, wrong_path: self.wrong_path_mode },
            });
            let is_boundary = monitor.on_fetch(&mut self.mem, &event);

            let class = insn.class();
            let mut flags = 0u16;
            if self.wrong_path_mode {
                flags |= F_WRONG_PATH;
            }
            if is_boundary {
                flags |= F_BOUNDARY;
            }
            if matches!(class, InstrClass::Load | InstrClass::Return) {
                flags |= F_LOAD;
            }
            if matches!(
                class,
                InstrClass::Store | InstrClass::CallDirect | InstrClass::CallIndirect
            ) {
                flags |= F_STORE;
            }
            let writes_reg = write_of(&insn).is_some();
            if writes_reg {
                flags |= F_WRITES_REG;
            }
            if mispredicted {
                flags |= F_MISPREDICTED;
            }
            let (mut mem_addr, mut next_pc, mut store_value) = (0u64, 0u64, 0u64);
            if let Some(d) = &dyn_op {
                flags |= F_HAS_DYN;
                if d.taken {
                    flags |= F_TAKEN;
                }
                if d.halted {
                    flags |= F_HALTED;
                }
                if let Some(a) = d.mem_addr {
                    flags |= F_HAS_MEM;
                    mem_addr = a;
                }
                next_pc = d.next_pc;
                store_value = d.store_value.unwrap_or(0);
            }

            self.fetch_queue.push_back(Slot {
                stage: Stage::Waiting,
                class,
                src_count: 0,
                unready: 0,
                flags,
                seq,
                mem_addr,
                complete_at: 0,
                srcs: [0; 2],
                addr,
                next_pc,
                store_value,
                dispatch_ready: self.now + self.config.frontend_depth,
                history_at_predict,
                insn,
                checkpoint,
            });
            if writes_reg {
                self.in_flight_writers += 1;
            }

            if let Some(d) = &dyn_op {
                if d.halted {
                    self.fetch_stopped = true;
                    break;
                }
            }
            if mispredicted {
                self.wrong_path_mode = true;
            }
            self.fetch_pc = predicted_next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NullMonitor;
    use rev_isa::BranchCond;
    use rev_mem::MainMemory;
    use rev_prog::{ModuleBuilder, Program};

    fn build_pipeline<F: FnOnce(&mut ModuleBuilder)>(f: F) -> (Pipeline, NullMonitor) {
        let mut b = ModuleBuilder::new("t", 0x1000);
        f(&mut b);
        let m = b.finish().unwrap();
        let mut pb = Program::builder();
        pb.module(m);
        let p = pb.build();
        let mem = MainMemory::with_segments(&p.segments());
        let monitor = NullMonitor::new(mem.clone());
        let oracle = Oracle::new(mem, p.entry(), p.initial_sp());
        (Pipeline::new(CpuConfig::paper_default(), MemConfig::paper_default(), oracle), monitor)
    }

    #[test]
    fn straight_line_commits_all() {
        let (mut p, mut m) = build_pipeline(|b| {
            for i in 0..20 {
                b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: i });
            }
            b.push(Instruction::Halt);
        });
        let r = p.run(&mut m, 1_000);
        assert_eq!(r.outcome, RunOutcome::Halted);
        assert_eq!(r.stats.committed_instrs, 21);
        assert!(r.stats.cycles >= 16, "min fetch-to-commit depth");
    }

    #[test]
    fn ipc_exceeds_one_on_ilp() {
        let (mut p, mut m) = build_pipeline(|b| {
            // A loop of independent adds on distinct registers: once the
            // I-cache warms, both ALUs should stay busy.
            let top = b.new_label();
            b.push(Instruction::Li { rd: Reg::R30, imm: 300 });
            b.bind(top);
            for i in 0..16 {
                let rd = Reg::from_index(1 + (i % 16) as u8).unwrap();
                b.push(Instruction::AddI { rd, rs: Reg::R0, imm: i });
            }
            b.push(Instruction::AddI { rd: Reg::R20, rs: Reg::R20, imm: 1 });
            b.branch(BranchCond::Lt, Reg::R20, Reg::R30, top);
            b.push(Instruction::Halt);
        });
        let r = p.run(&mut m, 100_000);
        assert_eq!(r.outcome, RunOutcome::Halted);
        assert!(r.stats.ipc() > 1.0, "ipc {} should exceed 1", r.stats.ipc());
    }

    #[test]
    fn dependent_chain_is_serial() {
        let (mut p, mut m) = build_pipeline(|b| {
            for _ in 0..200 {
                b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
            }
            b.push(Instruction::Halt);
        });
        let r = p.run(&mut m, 10_000);
        assert!(r.stats.ipc() <= 1.05, "serial chain ipc {} must be ~1", r.stats.ipc());
        assert_eq!(p.oracle().state().reg(Reg::R1), 200, "functional result intact");
    }

    #[test]
    fn loop_with_predictable_branch() {
        let (mut p, mut m) = build_pipeline(|b| {
            let top = b.new_label();
            b.push(Instruction::Li { rd: Reg::R2, imm: 200 });
            b.bind(top);
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
            b.push(Instruction::AddI { rd: Reg::R3, rs: Reg::R3, imm: 2 });
            b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
            b.push(Instruction::Halt);
        });
        let r = p.run(&mut m, 100_000);
        assert_eq!(r.outcome, RunOutcome::Halted);
        assert_eq!(r.stats.committed_cond_branches, 200);
        // Loop branch should become nearly perfectly predicted.
        assert!(r.stats.mispredict_rate() < 0.10, "mispredict rate {}", r.stats.mispredict_rate());
        assert_eq!(p.oracle().state().reg(Reg::R3), 400);
    }

    #[test]
    fn mispredicts_cost_cycles() {
        // A data-dependent unpredictable branch (LCG bit) vs an
        // always-taken one: the former must run slower.
        let run = |chaotic: bool| {
            let (mut p, mut m) = build_pipeline(|b| {
                let top = b.new_label();
                let skip = b.new_label();
                b.push(Instruction::Li { rd: Reg::R2, imm: 400 });
                b.push(Instruction::Li { rd: Reg::R10, imm: 12345 });
                b.bind(top);
                b.push(Instruction::MulI { rd: Reg::R10, rs: Reg::R10, imm: 1103515245 });
                b.push(Instruction::AddI { rd: Reg::R10, rs: Reg::R10, imm: 12345 });
                if chaotic {
                    // test bit 17 of the LCG
                    b.push(Instruction::Alu {
                        op: rev_isa::AluOp::Shr,
                        rd: Reg::R11,
                        rs1: Reg::R10,
                        rs2: Reg::R12,
                    });
                    b.push(Instruction::AndI { rd: Reg::R11, rs: Reg::R11, imm: 1 });
                } else {
                    b.push(Instruction::Li { rd: Reg::R11, imm: 0 });
                    b.push(Instruction::Nop);
                }
                b.branch(BranchCond::Ne, Reg::R11, Reg::R0, skip);
                b.push(Instruction::AddI { rd: Reg::R3, rs: Reg::R3, imm: 1 });
                b.bind(skip);
                b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
                b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
                b.push(Instruction::Halt);
            });
            // R12 = 17 must be set before the loop; do it via injection.
            p.oracle_mut().state_mut().regs[12] = 17;
            let r = p.run(&mut m, 100_000);
            assert_eq!(r.outcome, RunOutcome::Halted);
            (r.stats.cycles, r.stats.mispredict_rate())
        };
        let (fast_cycles, fast_rate) = run(false);
        let (slow_cycles, slow_rate) = run(true);
        assert!(slow_rate > fast_rate + 0.1, "rates {slow_rate} vs {fast_rate}");
        assert!(slow_cycles > fast_cycles, "cycles {slow_cycles} vs {fast_cycles}");
    }

    #[test]
    fn call_ret_predicted_by_ras() {
        let (mut p, mut m) = build_pipeline(|b| {
            let main = b.begin_function("main");
            let top = b.new_label();
            let callee = b.new_label();
            b.push(Instruction::Li { rd: Reg::R2, imm: 100 });
            b.bind(top);
            b.call(callee);
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
            b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
            b.push(Instruction::Halt);
            b.end_function(main);
            let f = b.begin_function("callee");
            b.bind(callee);
            b.push(Instruction::AddI { rd: Reg::R4, rs: Reg::R4, imm: 1 });
            b.push(Instruction::Ret);
            b.end_function(f);
        });
        let r = p.run(&mut m, 100_000);
        assert_eq!(r.outcome, RunOutcome::Halted);
        assert_eq!(p.oracle().state().reg(Reg::R4), 100);
        assert_eq!(r.stats.committed_branches, 100 + 100 + 100); // call+ret+loop branch
    }

    #[test]
    fn stores_reach_committed_memory_via_monitor() {
        let (mut p, mut m) = build_pipeline(|b| {
            let buf = b.data_zeroed(64);
            b.li_data(Reg::R5, buf);
            b.push(Instruction::Li { rd: Reg::R6, imm: 0xabcd });
            b.push(Instruction::Store { rs: Reg::R6, rbase: Reg::R5, off: 16 });
            b.push(Instruction::Halt);
        });
        let r = p.run(&mut m, 1_000);
        assert_eq!(r.outcome, RunOutcome::Halted);
        // Find the data address from the oracle's view and compare.
        let data_addr = {
            // li_data loaded R5.
            p.oracle().state().reg(Reg::R5) + 16
        };
        assert_eq!(m.committed().read_u64(data_addr), 0xabcd);
    }

    #[test]
    fn load_forwards_from_inflight_store() {
        let (mut p, mut m) = build_pipeline(|b| {
            let buf = b.data_zeroed(64);
            b.li_data(Reg::R5, buf);
            b.push(Instruction::Li { rd: Reg::R6, imm: 7 });
            b.push(Instruction::Store { rs: Reg::R6, rbase: Reg::R5, off: 0 });
            b.push(Instruction::Load { rd: Reg::R7, rbase: Reg::R5, off: 0 });
            b.push(Instruction::AddI { rd: Reg::R8, rs: Reg::R7, imm: 1 });
            b.push(Instruction::Halt);
        });
        let r = p.run(&mut m, 1_000);
        assert_eq!(r.outcome, RunOutcome::Halted);
        assert_eq!(p.oracle().state().reg(Reg::R8), 8);
    }

    #[test]
    fn unique_branch_addresses_counted() {
        let (mut p, mut m) = build_pipeline(|b| {
            let top = b.new_label();
            b.push(Instruction::Li { rd: Reg::R2, imm: 50 });
            b.bind(top);
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
            b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
            b.push(Instruction::Halt);
        });
        let r = p.run(&mut m, 10_000);
        assert_eq!(r.stats.committed_branches, 50);
        assert_eq!(r.stats.unique_branches(), 1, "one static branch");
    }

    #[test]
    fn deterministic_across_runs() {
        let run_once = || {
            let (mut p, mut m) = build_pipeline(|b| {
                let top = b.new_label();
                b.push(Instruction::Li { rd: Reg::R2, imm: 300 });
                b.push(Instruction::Li { rd: Reg::R10, imm: 99 });
                b.bind(top);
                b.push(Instruction::MulI { rd: Reg::R10, rs: Reg::R10, imm: 6364136 });
                b.push(Instruction::AndI { rd: Reg::R11, rs: Reg::R10, imm: 0xff });
                b.push(Instruction::Store { rs: Reg::R11, rbase: rev_isa::REG_SP, off: -64 });
                b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
                b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
                b.push(Instruction::Halt);
            });
            let r = p.run(&mut m, 100_000);
            (r.stats.cycles, r.stats.committed_instrs, r.stats.mispredicts)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn wrong_path_instructions_are_fetched_and_squashed() {
        let (mut p, mut m) = build_pipeline(|b| {
            // A loop whose branch alternates taken/not-taken is hard to
            // predict early on, guaranteeing wrong-path fetches.
            let top = b.new_label();
            let skip = b.new_label();
            b.push(Instruction::Li { rd: Reg::R2, imm: 64 });
            b.bind(top);
            b.push(Instruction::AndI { rd: Reg::R3, rs: Reg::R1, imm: 1 });
            b.branch(BranchCond::Ne, Reg::R3, Reg::R0, skip);
            b.push(Instruction::AddI { rd: Reg::R4, rs: Reg::R4, imm: 1 });
            b.bind(skip);
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
            b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
            b.push(Instruction::Halt);
        });
        let r = p.run(&mut m, 100_000);
        assert_eq!(r.outcome, RunOutcome::Halted);
        assert!(r.stats.wrong_path_fetched > 0, "expected wrong-path fetches");
        assert_eq!(p.oracle().state().reg(Reg::R4), 32);
    }
}
