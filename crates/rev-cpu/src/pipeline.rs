//! The out-of-order pipeline: fetch → decode/rename → dispatch → issue →
//! execute → writeback → commit, with oracle-driven correct-path fetch and
//! real wrong-path fetch along mispredicted paths.
//!
//! ## Hot-loop layout
//!
//! The per-cycle stages are the simulator's innermost loop, so the ROB is
//! engineered for lookup cost, not elegance:
//!
//! * The [`Rob`] is a fixed ring of `rob_size.next_power_of_two()`
//!   slots. An instruction keeps its slot index (its [`Handle`]) from
//!   dispatch to commit or squash, so every cross-reference — the rename
//!   map, the ready/waiting-store/executing lists, the wakeup lists — is
//!   a direct index, never a search by seq. Seq stays the age order and
//!   the guard against stale handles (a squashed slot's seq is cleared).
//! * [`Slot`] is `#[repr(C)]` with the hot fields (stage, flags, seq,
//!   completion cycle) packed into the leading bytes, and everything an
//!   instruction only needs once (oracle results, predictor checkpoint)
//!   behind them. Per-slot facts that used to be recomputed per probe
//!   (`InstrClass`, load/store-ness, the oracle's effective address) are
//!   resolved once at fetch into plain fields and flag bits.
//! * Issue is event-driven and never rescans the ROB: dispatch registers
//!   each slot's in-flight sources in a per-slot [`WakeupTable`],
//!   completion wakes the subscribed consumers, and issue walks only the
//!   age-ordered ready list (plus an age-ordered waiting-store list that
//!   preserves the conservative disambiguation the old full scan derived
//!   from not-yet-issued stores). Committed/in-flight store addresses
//!   live in a slab-backed [`StoreTracker`] updated at issue/complete/
//!   commit/squash.
//! * Completion walks an age-ordered list of the executing slots and
//!   their completion cycles, and keeps the minimum `complete_at` among
//!   them, so cycles with nothing to retire skip the stage entirely.

use crate::bpred::{BranchPredictor, PredictorCheckpoint};
use crate::config::CpuConfig;
use crate::monitor::{CommitGate, CommitQuery, ExecMonitor, FetchEvent, StoreCommit, Violation};
use crate::oracle::Oracle;
use crate::stats::CpuStats;
use rev_isa::{decode, FReg, InstrClass, Instruction, Reg, MAX_INSTR_LEN, REG_SP};
use rev_mem::{FlatMap, Hierarchy, MainMemory, MemConfig, Request, Requester};
use rev_trace::{
    Ckpt, CkptError, CkptFields, CkptReader, CkptWriter, EventKind, TraceBus, TraceEvent,
};
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

/// An outcome travels as a one-byte variant code and its payload.
impl Ckpt for RunOutcome {
    const MIN_BYTES: usize = 1;

    fn save(&self, w: &mut CkptWriter) {
        match self {
            RunOutcome::BudgetReached => w.u8(0),
            RunOutcome::Halted => w.u8(1),
            RunOutcome::Violation(v) => {
                w.u8(2);
                v.save(w);
            }
            RunOutcome::OracleFault { pc } => {
                w.u8(3);
                w.u64(*pc);
            }
        }
    }

    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(match r.u8()? {
            0 => RunOutcome::BudgetReached,
            1 => RunOutcome::Halted,
            2 => RunOutcome::Violation(Violation::load(r)?),
            3 => RunOutcome::OracleFault { pc: r.u64()? },
            other => return Err(malformed(format!("unknown outcome tag {other}"))),
        })
    }
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
#[inline]
fn rid(r: Reg) -> u8 {
    r.index() as u8
}
#[inline]
fn fid(f: FReg) -> u8 {
    32 + f.index() as u8
}

/// Registers read by an instruction (rename sources).
#[inline]
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
#[inline]
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

/// One in-flight instruction. `#[repr(C)]` keeps the fields the stages
/// touch per cycle in the leading bytes.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Slot {
    stage: Stage,
    class: InstrClass,
    src_count: u8,
    /// Source producers still in flight (wakeup scheduling); the slot
    /// enters the ready list when this reaches zero.
    unready: u8,
    flags: u16,
    /// Fetch order; 0 marks a vacant (never filled or squashed) ROB slot.
    seq: u64,
    mem_addr: u64, // valid iff F_HAS_MEM
    complete_at: u64,
    /// Producer seqs as renamed at dispatch (checkpoint content only:
    /// the wakeup lists carry the live dependences).
    srcs: [u64; 2],
    addr: u64,
    next_pc: u64,     // oracle next PC, valid iff F_HAS_DYN
    store_value: u64, // oracle store value (0 when absent)
    dispatch_ready: u64,
    history_at_predict: u64,
    insn: Instruction,
    checkpoint: Option<PredictorCheckpoint>,
}

// Slots move in and out of the ROB by value every cycle: at 128 bytes or
// less rustc copies one inline instead of calling `memmove`.
const _: () = assert!(std::mem::size_of::<Slot>() <= 128);

impl Slot {
    const VACANT: Slot = Slot {
        stage: Stage::Done,
        class: InstrClass::Other,
        src_count: 0,
        unready: 0,
        flags: 0,
        seq: 0,
        mem_addr: 0,
        complete_at: 0,
        srcs: [0; 2],
        addr: 0,
        next_pc: 0,
        store_value: 0,
        dispatch_ready: 0,
        history_at_predict: 0,
        insn: Instruction::Nop,
        checkpoint: None,
    };

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

    /// The class is derived from the decoded instruction, never stored.
    fn derive_class(&mut self) {
        self.class = self.insn.class();
    }
}

rev_trace::ckpt_enum!(Stage { Waiting = 0, Executing = 1, Done = 2 });

rev_trace::ckpt_fields!(Ckpt for Slot {
    stage, src_count, unready, flags, seq, mem_addr, complete_at, srcs, addr, next_pc, store_value,
    dispatch_ready, history_at_predict, insn => InsnBytes, checkpoint,
    ..Slot::VACANT
} then Slot::derive_class);

/// A slot's instruction travels as its length-prefixed `rev-isa`
/// encoding and decodes back through `rev-isa`.
struct InsnBytes;

impl InsnBytes {
    const MIN_BYTES: usize = 8;

    fn save(insn: &Instruction, w: &mut CkptWriter) {
        w.bytes(&insn.encode());
    }

    fn load(r: &mut CkptReader<'_>) -> Result<Instruction, CkptError> {
        let enc = r.bytes()?;
        let (insn, used) =
            decode(enc).map_err(|e| malformed(format!("slot instruction bytes: {e:?}")))?;
        if used != enc.len() {
            return Err(malformed(format!(
                "slot instruction encoding has {} trailing bytes",
                enc.len() - used
            )));
        }
        Ok(insn)
    }
}

/// A `(line address, cycle)` fetch-line register travels as two
/// `Option<u64>`s; exactly one present is rejected. `PREFETCH` names the
/// register in the error.
struct SplitLine<const PREFETCH: bool>;

impl<const PREFETCH: bool> SplitLine<PREFETCH> {
    fn save(line: &Option<(u64, u64)>, w: &mut CkptWriter) {
        line.map(|(l, _)| l).save(w);
        line.map(|(_, c)| c).save(w);
    }

    fn load(r: &mut CkptReader<'_>) -> Result<Option<(u64, u64)>, CkptError> {
        match (Option::load(r)?, Option::load(r)?) {
            (Some(l), Some(c)) => Ok(Some((l, c))),
            (None, None) => Ok(None),
            _ => Err(malformed(format!(
                "half-present {} line",
                if PREFETCH { "prefetched" } else { "current fetch" }
            ))),
        }
    }
}

const NIL: u32 = u32::MAX;

/// A ROB slot index. An instruction keeps its handle from dispatch until
/// it commits or is squashed; its seq tells a live handle from a stale one.
type Handle = u32;

/// The reorder buffer: a fixed ring of `rob_size.next_power_of_two()`
/// slots, oldest at `head`. Handles index `slots` directly, and a live
/// handle's distance from the head is its age rank, so nothing ever
/// searches the window by seq.
#[derive(Debug, Clone)]
struct Rob {
    slots: Vec<Slot>,
    head: usize,
    len: usize,
    mask: usize,
}

impl Rob {
    fn new(rob_size: usize) -> Rob {
        let cap = rob_size.next_power_of_two();
        Rob { slots: vec![Slot::VACANT; cap], head: 0, len: 0, mask: cap - 1 }
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Age rank of a live handle (0 = head).
    #[inline]
    fn age(&self, h: Handle) -> usize {
        (h as usize).wrapping_sub(self.head) & self.mask
    }

    /// The handle at age rank `age`.
    #[inline]
    fn handle(&self, age: usize) -> Handle {
        ((self.head + age) & self.mask) as Handle
    }

    #[inline]
    fn front(&self) -> Option<&Slot> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    #[inline]
    fn push_back(&mut self, slot: Slot) -> Handle {
        debug_assert!(self.len < self.capacity(), "ROB ring overflow");
        let h = self.handle(self.len);
        self.slots[h as usize] = slot;
        self.len += 1;
        h
    }

    #[inline]
    fn pop_front(&mut self) -> Slot {
        debug_assert!(self.len > 0, "pop from an empty ROB");
        let s = self.slots[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        s
    }

    /// Drops every slot younger than the first `len` (squash).
    #[inline]
    fn truncate(&mut self, len: usize) {
        debug_assert!(len <= self.len);
        self.len = len;
    }

    fn clear(&mut self) {
        self.slots.fill(Slot::VACANT);
        self.head = 0;
        self.len = 0;
    }

    /// Live handles, oldest first.
    #[inline]
    fn handles(&self) -> impl Iterator<Item = Handle> + '_ {
        (0..self.len).map(|a| self.handle(a))
    }

    /// Live slots, oldest first.
    fn iter(&self) -> impl Iterator<Item = &Slot> + '_ {
        self.handles().map(|h| &self.slots[h as usize])
    }

    /// Where an entry for live handle `h` goes in an age-ordered list.
    #[inline]
    fn age_pos<T>(&self, list: &[T], h: Handle, key: impl Fn(&T) -> Handle) -> usize {
        let age = self.age(h);
        match list.last() {
            Some(last) if self.age(key(last)) < age => list.len(),
            None => 0,
            _ => list.partition_point(|e| self.age(key(e)) < age),
        }
    }

    /// Removes `h` from an age-ordered handle list, if present.
    #[inline]
    fn age_remove(&self, list: &mut Vec<Handle>, h: Handle) {
        let i = self.age_pos(list, h, |&e| e);
        if list.get(i) == Some(&h) {
            list.remove(i);
        }
    }

    /// Drops the entries of an age-ordered list that are no longer live
    /// (the squashed tail).
    fn truncate_dead<T>(&self, list: &mut Vec<T>, key: impl Fn(&T) -> Handle) {
        let keep = list.partition_point(|e| self.age(key(e)) < self.len);
        list.truncate(keep);
    }
}

impl std::ops::Index<Handle> for Rob {
    type Output = Slot;
    #[inline]
    fn index(&self, h: Handle) -> &Slot {
        &self.slots[h as usize]
    }
}

impl std::ops::IndexMut<Handle> for Rob {
    #[inline]
    fn index_mut(&mut self, h: Handle) -> &mut Slot {
        &mut self.slots[h as usize]
    }
}

#[derive(Debug, Clone, Copy)]
struct WakeNode {
    consumer: Handle,
    next: u32,
    seq: u64, // the consumer's seq at registration
}

/// Per-producer lists of waiting consumers for event-driven issue: a
/// consumer whose source is still executing registers under the
/// producer's handle at dispatch and is woken (its `unready` count
/// dropped) when the producer completes. Nodes live in a slab with a free
/// list, so steady state allocates nothing. Entries for squashed
/// consumers are skipped lazily at wake time (their recorded seq no
/// longer matches the slot); lists of a squashed producer are dropped
/// eagerly during the squash walk.
#[derive(Debug, Clone)]
struct WakeupTable {
    heads: Vec<u32>, // per ROB slot
    slab: Vec<WakeNode>,
    free: Vec<u32>,
}

impl WakeupTable {
    fn new(slots: usize) -> WakeupTable {
        WakeupTable { heads: vec![NIL; slots], slab: Vec::new(), free: Vec::new() }
    }

    #[inline]
    fn register(&mut self, producer: Handle, consumer: Handle, seq: u64) {
        let next = self.heads[producer as usize];
        let node = WakeNode { consumer, next, seq };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = node;
                i
            }
            None => {
                self.slab.push(node);
                (self.slab.len() - 1) as u32
            }
        };
        self.heads[producer as usize] = i;
    }

    /// Empties the producer's list, pushing its `(consumer, seq)` entries
    /// into `out`.
    #[inline]
    fn drain(&mut self, producer: Handle, out: &mut Vec<(Handle, u64)>) {
        let mut cur = std::mem::replace(&mut self.heads[producer as usize], NIL);
        while cur != NIL {
            let n = self.slab[cur as usize];
            out.push((n.consumer, n.seq));
            self.free.push(cur);
            cur = n.next;
        }
    }

    /// Drops the producer's list without waking anyone (squash path: every
    /// registered consumer is younger and being squashed too).
    #[inline]
    fn remove_key(&mut self, producer: Handle) {
        let mut cur = std::mem::replace(&mut self.heads[producer as usize], NIL);
        while cur != NIL {
            self.free.push(cur);
            cur = self.slab[cur as usize].next;
        }
    }

    #[inline]
    fn has_waiters(&self, producer: Handle) -> bool {
        self.heads[producer as usize] != NIL
    }

    /// The producer's registered entries, newest registration first.
    fn entries(&self, producer: Handle) -> impl Iterator<Item = WakeNode> + '_ {
        let mut cur = self.heads[producer as usize];
        std::iter::from_fn(move || {
            (cur != NIL).then(|| {
                let n = self.slab[cur as usize];
                cur = n.next;
                n
            })
        })
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
    #[inline]
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
    #[inline]
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
    #[inline]
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
    #[inline]
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

    /// Every tracked store as `(addr, seq, data ready)`, each address's
    /// stores in list order.
    fn entries(&self) -> impl Iterator<Item = (u64, u64, bool)> + '_ {
        self.heads.iter().flat_map(move |(&addr, &head)| {
            let mut cur = head;
            std::iter::from_fn(move || {
                (cur != NIL).then(|| {
                    let n = self.slab[cur as usize];
                    cur = n.next;
                    (addr, n.seq, n.done)
                })
            })
        })
    }

    /// The logical content checkpoints carry: per address (sorted), the
    /// seq-ascending list of in-flight stores with their data-ready bits.
    fn content(&self) -> Vec<(u64, Vec<(u64, bool)>)> {
        let mut addrs: Vec<u64> = self.heads.keys().copied().collect();
        addrs.sort_unstable();
        addrs
            .into_iter()
            .map(|a| {
                let mut list = Vec::new();
                let mut cur = self.heads[&a];
                while cur != NIL {
                    let n = self.slab[cur as usize];
                    list.push((n.seq, n.done));
                    cur = n.next;
                }
                (a, list)
            })
            .collect()
    }

    /// Rebuilds a tracker from [`StoreTracker::content`].
    fn from_content(content: &[(u64, Vec<(u64, bool)>)]) -> Self {
        let mut t = StoreTracker::default();
        for &(addr, ref list) in content {
            for &(seq, done) in list {
                t.insert(addr, seq);
                if done {
                    t.mark_done(addr, seq);
                }
            }
        }
        t
    }
}

/// Issue slots and memory ports claimed so far in one cycle.
#[derive(Debug, Default)]
struct IssuePorts {
    issued: usize,
    loads: usize,
    stores: usize,
}

fn malformed(what: String) -> rev_trace::CkptError {
    rev_trace::CkptError::Malformed(what)
}

/// The pipeline's cross-structure content keyed by seq, the form
/// checkpoints carry: lists sorted by seq, wakeup lists as producer →
/// sorted consumers, the store tracker's content, and the rename map's
/// writer seqs.
#[derive(Debug, Clone)]
struct SeqLinks {
    iq_occupancy: u64,
    lsq_occupancy: u64,
    first_executing_seq: u64,
    executing_count: u64,
    next_complete_at: u64,
    ready: Vec<u64>,
    waiting_stores: Vec<u64>,
    wakeups: Vec<(u64, Vec<u64>)>,
    stores: Vec<(u64, Vec<(u64, bool)>)>,
    last_writer: [Option<u64>; 64],
    in_flight_writers: u64,
}

rev_trace::ckpt_fields!(Ckpt for SeqLinks {
    iq_occupancy, lsq_occupancy, first_executing_seq, executing_count, next_complete_at, ready,
    waiting_stores, wakeups, stores, last_writer, in_flight_writers,
});

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
    rob: Rob,
    // Incremental ROB occupancy by stage/kind, kept in sync by
    // dispatch/issue/commit/squash so dispatch doesn't rescan the ROB.
    iq_occupancy: usize,
    lsq_occupancy: usize,
    // Executing slots in age order with their completion cycles, and the
    // earliest of those cycles (u64::MAX = none).
    executing: Vec<(Handle, u64)>,
    next_complete_at: u64,
    // Event-driven issue: age-ordered Waiting slots whose sources are all
    // complete (or committed), age-ordered Waiting store-class slots
    // (conservative disambiguation), and the producer → consumer wakeup
    // lists that maintain `ready` without rescanning the ROB.
    ready: Vec<Handle>,
    waiting_stores: Vec<Handle>,
    wakeups: WakeupTable,
    wake_buf: Vec<(Handle, u64)>,
    stores: StoreTracker,
    // Rename map: each register's last writer as (handle, seq). The
    // handle is only valid while the writer is still in the ROB (its seq
    // is at least the head's); a committed writer's slot may be reused.
    last_writer: [Option<(Handle, u64)>; 64],
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

// The fields after the seq-keyed links (see `Pipeline::save_state`).
rev_trace::ckpt_fields!(CkptFields for Pipeline {
    next_seq, now, fetch_pc, fetch_resume, wrong_path_mode, wrong_path_stuck, fetch_stopped,
    oracle_fault, cur_line => SplitLine<false>, prefetched_line => SplitLine<true>, head_retry_at,
    stats, stats_start_cycle, fpu_free, alu_free,
} then Pipeline::check_units);

impl Pipeline {
    /// Creates a pipeline over a ready-to-run oracle.
    pub fn new(config: CpuConfig, mem_config: MemConfig, oracle: Oracle) -> Self {
        let entry = oracle.state().pc;
        let rob = Rob::new(config.rob_size);
        let wakeups = WakeupTable::new(rob.capacity());
        Pipeline {
            bpred: BranchPredictor::new(config.predictor),
            fpu_free: vec![0; config.fpu_units],
            alu_free: vec![0; config.alu_units],
            config,
            oracle,
            mem: Hierarchy::new(mem_config),
            fetch_queue: VecDeque::new(),
            rob,
            iq_occupancy: 0,
            lsq_occupancy: 0,
            executing: Vec::new(),
            next_complete_at: u64::MAX,
            ready: Vec::new(),
            waiting_stores: Vec::new(),
            wakeups,
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
    /// disabled, matching the fresh-build default); slab-backed and
    /// handle-keyed tables are written as canonical seq-sorted logical
    /// content, so a restored pipeline re-serializes byte-identically.
    pub fn save_state(&self, base: &MainMemory, w: &mut rev_trace::CkptWriter) {
        self.write_state(base, w, &self.seq_links());
    }

    /// The seq-keyed form of every handle-keyed structure, as
    /// checkpoints carry it (handles name ring positions of one process
    /// and never leave it).
    fn seq_links(&self) -> SeqLinks {
        let seqs = |list: &[Handle]| list.iter().map(|&h| self.rob[h].seq).collect();
        let mut wakeups = Vec::new();
        for h in self.rob.handles().filter(|&h| self.wakeups.has_waiters(h)) {
            let mut consumers: Vec<u64> = self.wakeups.entries(h).map(|n| n.seq).collect();
            consumers.sort_unstable();
            wakeups.push((self.rob[h].seq, consumers));
        }
        SeqLinks {
            iq_occupancy: self.iq_occupancy as u64,
            lsq_occupancy: self.lsq_occupancy as u64,
            first_executing_seq: self.executing.first().map_or(u64::MAX, |&(h, _)| self.rob[h].seq),
            executing_count: self.executing.len() as u64,
            next_complete_at: self.next_complete_at,
            ready: seqs(&self.ready),
            waiting_stores: seqs(&self.waiting_stores),
            wakeups,
            stores: self.stores.content(),
            last_writer: self.last_writer.map(|w| w.map(|(_, seq)| seq)),
            in_flight_writers: self.in_flight_writers as u64,
        }
    }

    fn write_state(&self, base: &MainMemory, w: &mut CkptWriter, links: &SeqLinks) {
        w.tag(TAG_CPU);
        self.oracle.save_state(base, w);
        self.mem.save_fields(w);
        self.bpred.save_fields(w);
        self.fetch_queue.save(w);
        w.len(self.rob.len());
        for s in self.rob.iter() {
            s.save(w);
        }
        links.save(w);
        self.save_fields(w);
    }

    /// Restores state saved by [`Pipeline::save_state`] into a pipeline
    /// freshly built with the identical configuration, program, and
    /// initial memory image (the enclosing checkpoint carries a
    /// fingerprint guarding this). Scratch buffers reset; the trace bus
    /// stays as constructed (disabled).
    ///
    /// # Errors
    ///
    /// Returns [`rev_trace::CkptError`] on decode failure, a
    /// configuration mismatch, or cross-structure content no run could
    /// have produced (a window larger than configured, a list entry
    /// naming no matching slot, counters that disagree with the ROB).
    pub fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        r.tag(TAG_CPU)?;
        self.oracle.restore_state(r)?;
        self.mem.load_fields(r)?;
        self.bpred.load_fields(r)?;
        self.fetch_queue = Ckpt::load(r)?;
        if self.fetch_queue.len() > self.config.fetch_queue {
            return Err(malformed(format!(
                "fetch queue holds {} slots, configured for {}",
                self.fetch_queue.len(),
                self.config.fetch_queue
            )));
        }
        let rob: Vec<Slot> = Ckpt::load(r)?;
        if rob.len() > self.config.rob_size {
            return Err(malformed(format!(
                "ROB holds {} slots, configured for {}",
                rob.len(),
                self.config.rob_size
            )));
        }
        self.rob.clear();
        for s in rob {
            self.rob.push_back(s);
        }
        let links = SeqLinks::load(r)?;
        self.load_fields(r)?;
        self.wake_buf.clear();
        self.reads_buf.clear();
        self.relink(&links)
    }

    /// Rejects restored functional-unit horizons whose counts differ from
    /// this core's configuration.
    fn check_units(&mut self) -> Result<(), CkptError> {
        if self.fpu_free.len() != self.config.fpu_units
            || self.alu_free.len() != self.config.alu_units
        {
            return Err(malformed(format!(
                "functional-unit counts {}/{} do not match configuration {}/{}",
                self.fpu_free.len(),
                self.alu_free.len(),
                self.config.fpu_units,
                self.config.alu_units
            )));
        }
        Ok(())
    }

    /// Rebuilds the handle-keyed structures from checkpointed seq-keyed
    /// content (the ROB was just restored at ring position 0, so a live
    /// slot's handle is its index). Content no run could have produced is
    /// rejected: left in, it would index past the window, underflow an
    /// occupancy counter or stall the core forever.
    fn relink(&mut self, l: &SeqLinks) -> Result<(), rev_trace::CkptError> {
        let mut prev = 0;
        for s in self.rob.iter().chain(&self.fetch_queue) {
            if s.seq <= prev || s.seq >= self.next_seq {
                return Err(malformed(format!("slot seq {} out of fetch order", s.seq)));
            }
            prev = s.seq;
        }
        for s in self.rob.iter() {
            if s.src_count > 2 || s.unready > s.src_count {
                return Err(malformed(format!("slot seq {} has bad source counts", s.seq)));
            }
        }
        for cp in self.rob.iter().chain(&self.fetch_queue).filter_map(|s| s.checkpoint.as_ref()) {
            cp.check_ras(self.config.predictor.ras_depth)?;
        }
        let count = |f: fn(&Slot) -> bool| self.rob.iter().filter(|&s| f(s)).count() as u64;
        let writers =
            self.rob.iter().chain(&self.fetch_queue).filter(|s| s.flag(F_WRITES_REG)).count();
        if l.iq_occupancy != count(|s| s.stage == Stage::Waiting)
            || l.lsq_occupancy != count(|s| s.is_load() || s.is_store())
            || l.in_flight_writers != writers as u64
        {
            return Err(malformed("occupancy counters disagree with the ROB".to_string()));
        }

        let live = &self.rob.slots[..self.rob.len()];
        let find = |seq: u64| live.binary_search_by_key(&seq, |s| s.seq).ok().map(|i| i as Handle);
        // Seqs below this were dispatched (ROB, committed or squashed).
        let undispatched = self.fetch_queue.front().map_or(self.next_seq, |s| s.seq);

        let executing = self.handles_where(|s| s.stage == Stage::Executing);
        let first = executing.first().map_or(u64::MAX, |&h| self.rob[h].seq);
        let next = executing.iter().map(|&h| self.rob[h].complete_at).min().unwrap_or(u64::MAX);
        if l.executing_count != executing.len() as u64
            || l.first_executing_seq != first
            || l.next_complete_at != next
        {
            return Err(malformed("executing summary disagrees with the ROB".to_string()));
        }
        let ready = self.handles_where(|s| s.stage == Stage::Waiting && s.unready == 0);
        let waiting_stores = self.handles_where(|s| s.stage == Stage::Waiting && s.is_store());
        for (list, seqs, what) in
            [(&ready, &l.ready, "ready"), (&waiting_stores, &l.waiting_stores, "waiting-store")]
        {
            if !list.iter().map(|&h| self.rob[h].seq).eq(seqs.iter().copied()) {
                return Err(malformed(format!("{what} list does not match the ROB")));
            }
        }

        let mut wakeups = WakeupTable::new(self.rob.capacity());
        let mut pending = vec![0u32; live.len()];
        let mut prev = 0;
        for &(p, ref consumers) in &l.wakeups {
            let producer = find(p).filter(|&h| p > prev && live[h as usize].stage != Stage::Done);
            let Some(ph) = producer else {
                return Err(malformed(format!("wakeup list of seq {p} has no in-flight producer")));
            };
            prev = p;
            for &c in consumers {
                let ch = match find(c) {
                    Some(h) if c > p && live[h as usize].stage == Stage::Waiting => {
                        pending[h as usize] += 1;
                        h
                    }
                    // A squashed consumer: its seq never matches a slot again.
                    None if c > p && c < undispatched => 0,
                    _ => {
                        return Err(malformed(format!(
                            "wakeup entry {p} -> {c} names no younger waiting slot"
                        )))
                    }
                };
                wakeups.register(ph, ch, c);
            }
        }
        if live
            .iter()
            .zip(&pending)
            .any(|(s, &n)| s.stage == Stage::Waiting && n != s.unready as u32)
        {
            return Err(malformed("pending-source counts disagree with the wakeup lists".into()));
        }

        // The store tracker holds exactly the issued correct-path stores,
        // each address's list in ascending seq order.
        let tracked = |s: &Slot| {
            s.stage != Stage::Waiting && s.flags & (F_STORE | F_HAS_MEM) == (F_STORE | F_HAS_MEM)
        };
        self.stores = StoreTracker::from_content(&l.stores);
        let (mut entries, mut last) = (0, (u64::MAX, 0));
        for (addr, seq, done) in self.stores.entries() {
            let slot = find(seq).map(|h| &live[h as usize]);
            let matches = slot.is_some_and(|s| {
                tracked(s) && s.mem_addr == addr && done == (s.stage == Stage::Done)
            });
            if !matches || (addr == last.0 && seq <= last.1) {
                return Err(malformed(format!("store tracker entry {seq} names no issued store")));
            }
            (entries, last) = (entries + 1, (addr, seq));
        }
        if entries != live.iter().filter(|s| tracked(s)).count() {
            return Err(malformed("store tracker misses an issued store".to_string()));
        }

        let committed_below = self.rob.front().map_or(undispatched, |s| s.seq);
        let mut last_writer = [None; 64];
        for (dst, &writer) in last_writer.iter_mut().zip(&l.last_writer) {
            *dst = match writer {
                None => None,
                Some(p) => match find(p) {
                    Some(h) => Some((h, p)),
                    // Committed: the handle is never dereferenced.
                    None if p < committed_below => Some((0, p)),
                    None => return Err(malformed(format!("rename map names unknown seq {p}"))),
                },
            };
        }

        self.iq_occupancy = l.iq_occupancy as usize;
        self.lsq_occupancy = l.lsq_occupancy as usize;
        self.in_flight_writers = l.in_flight_writers as usize;
        self.executing = executing.iter().map(|&h| (h, self.rob[h].complete_at)).collect();
        self.next_complete_at = next;
        self.ready = ready;
        self.waiting_stores = waiting_stores;
        self.wakeups = wakeups;
        self.last_writer = last_writer;
        Ok(())
    }

    /// Live handles whose slot satisfies `want`, oldest first.
    fn handles_where(&self, want: impl Fn(&Slot) -> bool) -> Vec<Handle> {
        self.rob.handles().filter(|&h| want(&self.rob[h])).collect()
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
    #[inline]
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
        if !self.executing.is_empty() {
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

    #[inline]
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
            let slot = self.rob.pop_front();
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
        if self.executing.is_empty() || self.now < self.next_complete_at {
            return;
        }
        let mut recover_from: Option<Handle> = None;
        let mut new_next = u64::MAX;
        let mut woken = std::mem::take(&mut self.wake_buf);
        woken.clear();
        // Compact the still-executing entries to the front, oldest first.
        let mut kept = 0;
        let mut i = 0;
        while i < self.executing.len() {
            let (h, complete_at) = self.executing[i];
            i += 1;
            if self.now < complete_at {
                self.executing[kept] = (h, complete_at);
                kept += 1;
                new_next = new_next.min(complete_at);
                continue;
            }
            let s = &mut self.rob[h];
            s.stage = Stage::Done;
            let (seq, flags, mem_addr) = (s.seq, s.flags, s.mem_addr);
            self.wakeups.drain(h, &mut woken);
            if flags & (F_STORE | F_HAS_MEM) == (F_STORE | F_HAS_MEM) {
                self.stores.mark_done(mem_addr, seq);
            }
            if flags & F_MISPREDICTED != 0
                && flags & F_WRONG_PATH == 0
                && flags & F_RECOVERY_DONE == 0
            {
                self.rob[h].flags |= F_RECOVERY_DONE;
                recover_from = Some(h);
                break; // the oldest resolving mispredict wins
            }
        }
        // Entries past a resolving mispredict are younger than it: the
        // squash below truncates them.
        self.executing.drain(kept..i);
        self.next_complete_at = new_next;
        // Wake consumers of the newly completed producers. Registrations
        // for consumers that were squashed since dispatch are skipped (the
        // slot no longer carries their seq).
        for &(h, seq) in &woken {
            let s = &mut self.rob[h];
            if s.seq != seq {
                continue;
            }
            debug_assert!(s.stage == Stage::Waiting && s.unready > 0, "woken slot not pending");
            s.unready -= 1;
            if s.unready == 0 {
                let at = self.rob.age_pos(&self.ready, h, |&e| e);
                self.ready.insert(at, h);
            }
        }
        woken.clear();
        self.wake_buf = woken;
        if let Some(h) = recover_from {
            self.recover_from_mispredict(h, monitor);
        }
    }

    fn recover_from_mispredict<M: ExecMonitor>(&mut self, branch: Handle, monitor: &mut M) {
        let b = self.rob[branch];
        debug_assert!(b.flag(F_HAS_DYN), "correct path");

        // Squash everything younger than the branch.
        self.squash_after(branch);
        monitor.on_flush(b.seq + 1);

        if let Some(cp) = b.checkpoint {
            let is_cond = matches!(b.class, InstrClass::CondBranch);
            self.bpred.restore(cp, is_cond.then_some(b.flag(F_TAKEN)));
        }
        self.fetch_pc = b.next_pc;
        self.fetch_resume = self.now + 1;
        self.wrong_path_mode = false;
        self.wrong_path_stuck = false;
        self.cur_line = None;
    }

    #[inline]
    fn squash_after(&mut self, branch: Handle) {
        let survivors = self.rob.age(branch) + 1;
        for age in (survivors..self.rob.len()).rev() {
            let h = self.rob.handle(age);
            let s = &mut self.rob[h];
            let (stage, flags, seq, mem_addr) = (s.stage, s.flags, s.seq, s.mem_addr);
            s.seq = 0; // stale wakeup entries must never match this slot
            if flags & F_WRITES_REG != 0 {
                self.in_flight_writers -= 1;
            }
            if flags & F_WRONG_PATH != 0 {
                self.stats.wrong_path_fetched += 1;
            }
            if stage == Stage::Waiting {
                self.iq_occupancy -= 1;
            } else if flags & (F_STORE | F_HAS_MEM) == (F_STORE | F_HAS_MEM) {
                self.stores.remove(mem_addr, seq);
            }
            if flags & (F_LOAD | F_STORE) != 0 {
                self.lsq_occupancy -= 1;
            }
            // Any wakeup list keyed by this producer only names younger
            // consumers, all squashed in this same walk: drop it whole.
            self.wakeups.remove_key(h);
        }
        self.rob.truncate(survivors);
        self.rob.truncate_dead(&mut self.ready, |&h| h);
        self.rob.truncate_dead(&mut self.waiting_stores, |&h| h);
        self.rob.truncate_dead(&mut self.executing, |&(h, _)| h);
        for s in self.fetch_queue.drain(..) {
            if s.flag(F_WRITES_REG) {
                self.in_flight_writers -= 1;
            }
            if s.flag(F_WRONG_PATH) {
                self.stats.wrong_path_fetched += 1;
            }
        }
        // Rebuild the rename map from the survivors.
        let mut rebuilt = [None; 64];
        for h in self.rob.handles() {
            let s = &self.rob[h];
            if let Some(w) = write_of(&s.insn) {
                rebuilt[w as usize] = Some((h, s.seq));
            }
        }
        self.last_writer = rebuilt;
    }

    // ----- issue -----------------------------------------------------------

    fn issue_stage<M: ExecMonitor>(&mut self, monitor: &mut M) {
        if self.ready.is_empty() {
            return;
        }
        let mut ports = IssuePorts::default();
        // Walk this cycle's ready slots oldest-first (the list is in age
        // order), compacting the ones that stay in place. A slot that
        // stays blocked — port-limited, disambiguation, waiting on a
        // forwarding store's data — simply remains ready for next cycle.
        // Nothing joins the list during issue (wakeups happen at
        // completion), so compacting it in place is safe.
        let mut ready = std::mem::take(&mut self.ready);
        let mut kept = 0;
        for i in 0..ready.len() {
            let h = ready[i];
            if ports.issued < self.config.width {
                if let Some(complete_at) = self.issue_latency(h, &mut ports, monitor) {
                    self.start_executing(h, complete_at);
                    continue;
                }
            }
            ready[kept] = h;
            kept += 1;
        }
        ready.truncate(kept);
        self.ready = ready;
    }

    /// The completion cycle of ready slot `h` if it can issue this cycle,
    /// claiming its functional unit or port. Conservative disambiguation
    /// consults `waiting_stores` live: a store still listed when a younger
    /// load is considered either was not ready or did not claim a port,
    /// which is exactly the old scan's `older_store_addr_unknown`
    /// condition.
    fn issue_latency<M: ExecMonitor>(
        &mut self,
        h: Handle,
        ports: &mut IssuePorts,
        monitor: &mut M,
    ) -> Option<u64> {
        let s = &self.rob[h];
        debug_assert!(s.stage == Stage::Waiting, "ready list out of sync with ROB");
        let (seq, flags, mem_addr) = (s.seq, s.flags, s.mem_addr);
        let complete_at = match s.class {
            InstrClass::IntAlu
            | InstrClass::CondBranch
            | InstrClass::Jump
            | InstrClass::JumpIndirect
            | InstrClass::Syscall
            | InstrClass::Other => {
                self.claim_alu()?;
                self.now + 1
            }
            InstrClass::IntMul => {
                self.claim_alu()?;
                self.now + self.config.mul_latency
            }
            InstrClass::Fp => {
                self.claim_fpu(1)?;
                self.now + self.config.fp_latency
            }
            InstrClass::FpDiv => {
                self.claim_fpu(self.config.fpdiv_latency)?;
                self.now + self.config.fpdiv_latency
            }
            InstrClass::Load | InstrClass::Return => {
                if ports.loads >= self.config.load_units {
                    return None;
                }
                if flags & F_WRONG_PATH != 0 {
                    ports.loads += 1;
                    self.now + 3 // wrong-path load: no oracle address
                } else {
                    let age = self.rob.age(h);
                    if self.waiting_stores.first().is_some_and(|&st| self.rob.age(st) < age) {
                        return None; // conservative disambiguation
                    }
                    debug_assert!(flags & F_HAS_MEM != 0, "correct-path loads have addresses");
                    let addr = mem_addr;
                    match self.stores.youngest_older(addr, seq) {
                        Some((_, false)) => return None, // wait for the forwarding store's data
                        Some((_, true)) => {
                            ports.loads += 1;
                            self.now + 2 // store-to-load forward
                        }
                        None => {
                            ports.loads += 1;
                            if monitor.forwards_store(addr) {
                                self.now + 2 // forward from the deferred buffer
                            } else {
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
                if ports.stores >= self.config.store_units {
                    // Ready but port-limited: its address stays unknown to
                    // younger loads this cycle (it remains listed in
                    // `waiting_stores`).
                    return None;
                }
                ports.stores += 1;
                self.now + 1 // address generation; data written post-commit
            }
        };
        ports.issued += 1;
        Some(complete_at)
    }

    /// Moves an issuing slot from the ready state to executing.
    #[inline]
    fn start_executing(&mut self, h: Handle, complete_at: u64) {
        let s = &mut self.rob[h];
        s.stage = Stage::Executing;
        s.complete_at = complete_at;
        let (seq, flags, mem_addr) = (s.seq, s.flags, s.mem_addr);
        self.iq_occupancy -= 1;
        let at = self.rob.age_pos(&self.executing, h, |&(e, _)| e);
        self.executing.insert(at, (h, complete_at));
        self.next_complete_at = self.next_complete_at.min(complete_at);
        if flags & F_STORE != 0 {
            self.rob.age_remove(&mut self.waiting_stores, h);
        }
        if flags & (F_STORE | F_HAS_MEM) == (F_STORE | F_HAS_MEM) {
            self.stores.insert(mem_addr, seq);
        }
    }

    #[inline]
    fn claim_alu(&mut self) -> Option<()> {
        let now = self.now;
        let slot = self.alu_free.iter_mut().find(|f| **f <= now)?;
        *slot = now + 1;
        Some(())
    }

    #[inline]
    fn claim_fpu(&mut self, occupy: u64) -> Option<()> {
        let now = self.now;
        let slot = self.fpu_free.iter_mut().find(|f| **f <= now)?;
        *slot = now + occupy;
        Some(())
    }

    // ----- dispatch --------------------------------------------------------

    /// Debug-build check that every incremental structure agrees with the
    /// ROB it summarizes.
    #[cfg(debug_assertions)]
    fn assert_in_sync(&self) {
        let count = |f: fn(&Slot) -> bool| self.rob.iter().filter(|&s| f(s)).count();
        assert_eq!(self.iq_occupancy, count(|s| s.stage == Stage::Waiting), "iq occupancy");
        assert_eq!(self.lsq_occupancy, count(|s| s.is_load() || s.is_store()), "lsq occupancy");
        // Every list handle resolves to the live slot of the right kind,
        // and each list is exactly its slot set in age (= seq) order.
        let exec: Vec<(Handle, u64)> = self
            .handles_where(|s| s.stage == Stage::Executing)
            .into_iter()
            .map(|h| (h, self.rob[h].complete_at))
            .collect();
        assert_eq!(self.executing, exec, "executing list out of sync");
        let next = exec.iter().map(|&(_, c)| c).min().unwrap_or(u64::MAX);
        assert_eq!(self.next_complete_at, next, "next completion cycle out of sync");
        let ready = self.handles_where(|s| s.stage == Stage::Waiting && s.unready == 0);
        assert_eq!(self.ready, ready, "ready list out of sync");
        let stores = self.handles_where(|s| s.stage == Stage::Waiting && s.is_store());
        assert_eq!(self.waiting_stores, stores, "waiting-store list out of sync");
        // The rename map's in-window writers resolve to their slots.
        let head_seq = self.rob.front().map_or(u64::MAX, |s| s.seq);
        for &(h, seq) in self.last_writer.iter().flatten() {
            if seq >= head_seq {
                assert_eq!(self.rob[h].seq, seq, "rename map handle is stale");
                assert!(self.rob.age(h) < self.rob.len(), "rename map handle not live");
            }
        }
        // Wakeup lists hang only off in-flight producers and name younger
        // Waiting consumers; a squashed consumer's entry no longer matches
        // any live slot. Each Waiting slot has one entry per pending source.
        let mut pending = vec![0u8; self.rob.capacity()];
        for h in 0..self.rob.capacity() as Handle {
            if !self.wakeups.has_waiters(h) {
                continue;
            }
            let p = &self.rob[h];
            assert!(self.rob.age(h) < self.rob.len(), "wakeup list on a dead slot");
            assert!(p.stage != Stage::Done, "wakeup list on a completed producer");
            for n in self.wakeups.entries(h) {
                assert!(n.seq > p.seq, "wakeup entry names an older slot");
                let c = &self.rob[n.consumer];
                if c.seq == n.seq {
                    assert!(self.rob.age(n.consumer) < self.rob.len(), "stale consumer matched");
                    assert_eq!(c.stage, Stage::Waiting, "woken consumer is not waiting");
                    pending[n.consumer as usize] += 1;
                }
            }
        }
        for h in self.rob.handles() {
            let s = &self.rob[h];
            if s.stage == Stage::Waiting {
                assert_eq!(pending[h as usize], s.unready, "pending sources out of sync");
            }
        }
    }

    #[inline]
    fn dispatch_stage(&mut self) {
        #[cfg(debug_assertions)]
        self.assert_in_sync();
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
            let mut producers = [(0, 0); 2];
            let mut n = 0usize;
            for &r in &self.reads_buf {
                if let Some(p) = self.last_writer[r as usize] {
                    producers[n] = p;
                    slot.srcs[n] = p.1;
                    n += 1;
                }
            }
            slot.src_count = n as u8;
            slot.stage = Stage::Waiting;
            let (seq, is_store) = (slot.seq, slot.is_store());
            // Wakeup scheduling: count the sources still in flight and
            // subscribe to their completions; a slot with none is ready
            // now. (A source older than the ROB head has committed.)
            let head_seq = self.rob.front().map_or(u64::MAX, |s| s.seq);
            let h = self.rob.push_back(slot);
            if let Some(w) = write_of(&self.rob[h].insn) {
                self.last_writer[w as usize] = Some((h, seq));
            }
            let mut unready = 0u8;
            for &(ph, p) in &producers[..n] {
                // The producer is still in the ROB (renamed at dispatch,
                // rebuilt on squash, younger than the head): read its stage
                // directly instead of keeping a side done-set.
                if p >= head_seq && self.rob[ph].stage != Stage::Done {
                    unready += 1;
                    self.wakeups.register(ph, h, seq);
                }
            }
            self.rob[h].unready = unready;
            // The new slot is the youngest, so it goes at the lists' ends.
            if unready == 0 {
                self.ready.push(h);
            }
            if is_store {
                self.waiting_stores.push(h);
            }
            self.iq_occupancy += 1;
            if front_mem {
                self.lsq_occupancy += 1;
            }
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

            // Obtain the instruction: oracle step (correct path) or a
            // decode without execution (wrong path), both through the
            // oracle's decode memo. The oracle fills `bytes` with the very
            // code it decoded, so the fetch event needs no second read.
            let mut bytes = [0u8; MAX_INSTR_LEN];
            let (insn, len, dyn_op) = if self.wrong_path_mode {
                match self.oracle.fetch_decode(self.fetch_pc, &mut bytes) {
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
        let (p, m, _) = build_with(CpuConfig::paper_default(), f);
        (p, m)
    }

    /// A pipeline, its monitor and the build image (checkpoint base).
    fn build_with<F: FnOnce(&mut ModuleBuilder)>(
        config: CpuConfig,
        f: F,
    ) -> (Pipeline, NullMonitor, MainMemory) {
        let mut b = ModuleBuilder::new("t", 0x1000);
        f(&mut b);
        let m = b.finish().unwrap();
        let mut pb = Program::builder();
        pb.module(m);
        let p = pb.build();
        let mem = MainMemory::with_segments(&p.segments());
        let monitor = NullMonitor::new(mem.clone());
        let oracle = Oracle::new(mem.clone(), p.entry(), p.initial_sp());
        (Pipeline::new(config, MemConfig::paper_default(), oracle), monitor, mem)
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

    /// An LCG-driven loop whose branch direction is a pseudo-random bit,
    /// so about half its branches mispredict. Each iteration also starts
    /// a load that misses to DRAM: the branch resolves behind it, and
    /// the refetched path dispatches while the load still holds the head,
    /// so the ROB keeps seq gaps from squashed wrong-path runs, with
    /// loads, stores and dependence chains in flight around them.
    fn mispredict_heavy(b: &mut ModuleBuilder) {
        let top = b.new_label();
        let skip = b.new_label();
        let buf = b.data_zeroed(300 * 520 + 64);
        b.li_data(Reg::R5, buf);
        b.push(Instruction::Li { rd: Reg::R2, imm: 300 });
        b.push(Instruction::Li { rd: Reg::R10, imm: 12345 });
        b.push(Instruction::Li { rd: Reg::R12, imm: 17 });
        b.bind(top);
        let alu = |op, rd, rs1, rs2| Instruction::Alu { op, rd, rs1, rs2 };
        b.push(alu(rev_isa::AluOp::Add, Reg::R15, Reg::R5, Reg::R14));
        b.push(Instruction::Load { rd: Reg::R13, rbase: Reg::R15, off: 0 });
        b.push(alu(rev_isa::AluOp::Add, Reg::R16, Reg::R16, Reg::R13));
        b.push(Instruction::AddI { rd: Reg::R14, rs: Reg::R14, imm: 520 });
        b.push(Instruction::MulI { rd: Reg::R10, rs: Reg::R10, imm: 1103515245 });
        b.push(Instruction::AddI { rd: Reg::R10, rs: Reg::R10, imm: 12345 });
        b.push(alu(rev_isa::AluOp::Shr, Reg::R11, Reg::R10, Reg::R12));
        b.push(Instruction::AndI { rd: Reg::R11, rs: Reg::R11, imm: 1 });
        b.push(Instruction::Store { rs: Reg::R10, rbase: rev_isa::REG_SP, off: -64 });
        b.push(Instruction::Load { rd: Reg::R17, rbase: rev_isa::REG_SP, off: -64 });
        b.branch(BranchCond::Ne, Reg::R11, Reg::R0, skip);
        b.push(Instruction::AddI { rd: Reg::R3, rs: Reg::R3, imm: 1 });
        b.push(Instruction::Store { rs: Reg::R3, rbase: rev_isa::REG_SP, off: -72 });
        b.bind(skip);
        b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
        b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
        b.push(Instruction::Halt);
    }

    fn has_seq_gap(p: &Pipeline) -> bool {
        let seqs: Vec<u64> = p.rob.iter().map(|s| s.seq).collect();
        seqs.windows(2).any(|w| w[1] > w[0] + 1)
    }

    fn envelope(p: &Pipeline, base: &MainMemory) -> Vec<u8> {
        let mut w = rev_trace::CkptWriter::new();
        p.save_state(base, &mut w);
        w.finish()
    }

    fn stats_bytes(s: &CpuStats) -> Vec<u8> {
        let mut w = rev_trace::CkptWriter::new();
        s.save(&mut w);
        w.finish()
    }

    fn commits(bus: &TraceBus) -> Vec<(u64, u64)> {
        bus.drain()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Commit { seq, addr } => Some((seq, addr)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn checkpoints_across_squash_gaps_restore_exactly() {
        let (mut reference, mut m, _) = build_with(CpuConfig::paper_default(), mispredict_heavy);
        let ref_bus = TraceBus::with_capacity(1 << 20);
        reference.set_trace(ref_bus.clone());
        let want = reference.run(&mut m, u64::MAX);
        assert_eq!(want.outcome, RunOutcome::Halted);
        assert!(want.stats.mispredicts > 50, "program must mispredict often");

        let (mut p, mut m, base) = build_with(CpuConfig::paper_default(), mispredict_heavy);
        let bus = TraceBus::with_capacity(1 << 20);
        p.set_trace(bus.clone());
        let (mut budget, mut restored) = (0, 0);
        let got = loop {
            budget += 7;
            let r = p.run_slice(&mut m, budget);
            if r.outcome != RunOutcome::BudgetReached {
                break r;
            }
            if !has_seq_gap(&p) {
                continue;
            }
            let bytes = envelope(&p, &base);
            let (mut fresh, _, _) = build_with(CpuConfig::paper_default(), mispredict_heavy);
            let mut rd = rev_trace::CkptReader::new(&bytes).unwrap();
            fresh.restore_state(&mut rd).unwrap();
            rd.finish().unwrap();
            assert_eq!(envelope(&fresh, &base), bytes, "re-serialization at budget {budget}");
            fresh.set_trace(bus.clone());
            p = fresh;
            restored += 1;
        };
        assert!(restored >= 20, "only {restored} slices ended with a seq gap in the ROB");
        assert_eq!(got.outcome, want.outcome);
        assert_eq!(stats_bytes(&got.stats), stats_bytes(&want.stats), "CpuStats differ");
        assert_eq!(commits(&bus), commits(&ref_bus), "committed stream differs");
    }

    /// Steps the mispredict-heavy program until the ROB is deep and holds
    /// waiting, executing and subscribed slots at once.
    fn busy_pipeline() -> (Pipeline, MainMemory) {
        let (mut p, mut m, base) = build_with(CpuConfig::paper_default(), mispredict_heavy);
        for _ in 0..100_000 {
            assert!(p.cycle(&mut m).is_none());
            let subscribed = p.rob.handles().any(|h| p.wakeups.has_waiters(h));
            if p.rob.len() >= 24
                && p.fetch_queue.len() >= 4
                && !p.executing.is_empty()
                && !p.ready.is_empty()
                && subscribed
            {
                return (p, base);
            }
        }
        panic!("the program never filled the window");
    }

    fn restore_into(config: CpuConfig, bytes: &[u8]) -> Result<(), rev_trace::CkptError> {
        let (mut fresh, _, _) = build_with(config, mispredict_heavy);
        let mut r = rev_trace::CkptReader::new(bytes)?;
        fresh.restore_state(&mut r)
    }

    #[test]
    fn restore_rejects_inconsistent_cross_structure_content() {
        let (p, base) = busy_pipeline();
        let save = |links: &SeqLinks| {
            let mut w = rev_trace::CkptWriter::new();
            p.write_state(&base, &mut w, links);
            w.finish()
        };
        let good = p.seq_links();
        let cfg = CpuConfig::paper_default();
        restore_into(cfg, &save(&good)).expect("untampered content restores");

        let rob: Vec<Slot> = p.rob.iter().copied().collect();
        let tail = rob.last().unwrap().seq;
        let find = |f: fn(&Slot) -> bool| rob.iter().find(|&s| f(s)).expect("slot kind").seq;
        let done = find(|s| s.stage == Stage::Done);
        let executing = find(|s| s.stage == Stage::Executing);
        let non_store = find(|s| s.stage == Stage::Waiting && !s.is_store());

        let mut cases: Vec<(&str, SeqLinks)> = Vec::new();
        let mut tamper = |what, f: &dyn Fn(&mut SeqLinks)| {
            let mut l = good.clone();
            f(&mut l);
            cases.push((what, l));
        };
        tamper("ready entry past the ROB tail", &|l| l.ready.push(tail + 1));
        tamper("ready entry naming an executing slot", &|l| {
            l.ready.insert(0, executing);
        });
        tamper("ready list missing an entry", &|l| {
            l.ready.pop();
        });
        tamper("waiting-store entry past the ROB tail", &|l| l.waiting_stores.push(tail + 1));
        tamper("waiting-store entry naming a non-store", &|l| {
            l.waiting_stores.push(non_store);
            l.waiting_stores.sort_unstable();
        });
        tamper("wakeup producer past the ROB tail", &|l| {
            l.wakeups.push((tail + 1, vec![tail + 2]))
        });
        tamper("wakeup producer already done", &|l| {
            l.wakeups.push((done, vec![tail]));
            l.wakeups.sort_unstable();
        });
        tamper("wakeup consumer older than its producer", &|l| {
            let (p, c) = &mut l.wakeups[0];
            c.insert(0, *p - 1);
        });
        tamper("wakeup consumer not yet dispatched", &|l| l.wakeups[0].1.push(u64::MAX - 1));
        tamper("extra executing count", &|l| l.executing_count += 1);
        tamper("executing head naming a waiting slot", &|l| l.first_executing_seq = tail + 1);
        tamper("completion cycle ahead of every executing slot", &|l| l.next_complete_at += 1);
        tamper("rename map naming a squashed-range seq", &|l| l.last_writer[1] = Some(tail + 1));
        tamper("issue-queue count", &|l| l.iq_occupancy += 1);
        tamper("in-flight writer count", &|l| l.in_flight_writers -= 1);
        for (what, links) in cases {
            let err = restore_into(cfg, &save(&links));
            assert!(
                matches!(err, Err(rev_trace::CkptError::Malformed(_))),
                "{what}: expected Malformed, got {err:?}"
            );
        }

        // A store-tracker entry for a slot that is not an issued store.
        let mut q = p.clone();
        q.stores.insert(0x40, tail + 1);
        let mut w = rev_trace::CkptWriter::new();
        q.save_state(&base, &mut w);
        let err = restore_into(cfg, &w.finish());
        assert!(matches!(err, Err(rev_trace::CkptError::Malformed(_))), "tracker: {err:?}");

        // A branch checkpoint whose RAS position is past the restoring
        // core's stack: restored, the first squash through it followed by
        // a call fetch would index past the RAS.
        let deep = crate::PredictorConfig { ras_depth: 64, ..cfg.predictor };
        let mut bp = BranchPredictor::new(deep);
        for ret in 0..cfg.predictor.ras_depth as u64 {
            bp.ras_push(ret);
        }
        let mut q = p.clone();
        let h = q.rob.handles().find(|&h| q.rob[h].checkpoint.is_some()).expect("a branch slot");
        q.rob[h].checkpoint = Some(bp.checkpoint());
        let mut w = rev_trace::CkptWriter::new();
        q.save_state(&base, &mut w);
        let err = restore_into(cfg, &w.finish());
        assert!(matches!(err, Err(rev_trace::CkptError::Malformed(_))), "RAS: {err:?}");

        // A window deeper than the restoring core's configuration.
        let bytes = save(&good);
        let small_rob = CpuConfig { rob_size: p.rob.len() - 1, ..cfg };
        assert!(matches!(restore_into(small_rob, &bytes), Err(rev_trace::CkptError::Malformed(_))));
        let small_fq = CpuConfig { fetch_queue: p.fetch_queue.len() - 1, ..cfg };
        assert!(matches!(restore_into(small_fq, &bytes), Err(rev_trace::CkptError::Malformed(_))));
    }
}
