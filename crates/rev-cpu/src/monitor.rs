//! The attachment point for REV (or any execution monitor).
//!
//! The pipeline reports front-end and commit events; the monitor decides
//! basic-block boundaries, gates terminator commits (validation stalls),
//! takes custody of committed stores (deferred memory update), and reacts
//! to squashes. [`NullMonitor`] is the unmodified baseline core: stores
//! write straight to committed memory and nothing ever stalls.

use rev_isa::{Instruction, MAX_INSTR_LEN};
use rev_mem::{Hierarchy, MainMemory};
use std::fmt;

/// A fetched instruction, reported in fetch order (including wrong-path
/// instructions, which are later flushed).
#[derive(Debug, Clone, Copy)]
pub struct FetchEvent {
    /// Global fetch sequence number (monotone; wrong-path included).
    pub seq: u64,
    /// Instruction address.
    pub addr: u64,
    /// The decoded instruction.
    pub insn: Instruction,
    /// Raw encoded bytes (`len` of them) — the CHG's hash input.
    pub bytes: [u8; MAX_INSTR_LEN],
    /// Encoded length.
    pub len: u8,
    /// Fetch cycle.
    pub cycle: u64,
    /// Address the front end will fetch next (predicted path).
    pub predicted_next: u64,
    /// `true` if this instruction is beyond an unresolved misprediction.
    pub wrong_path: bool,
}

impl FetchEvent {
    /// The instruction's encoded bytes.
    pub fn byte_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

/// A BB-terminator instruction at the ROB head asking to commit.
#[derive(Debug, Clone, Copy)]
pub struct CommitQuery {
    /// Fetch sequence number of the committing instruction.
    pub seq: u64,
    /// Its address — the BB address used for the SC probe.
    pub bb_addr: u64,
    /// Current cycle.
    pub cycle: u64,
    /// The architecturally actual transfer target (next PC).
    pub actual_target: u64,
    /// The committing instruction.
    pub insn: Instruction,
}

/// Monitor's verdict on a terminator commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitGate {
    /// Commit may proceed this cycle.
    Proceed,
    /// Commit must wait; re-query at the given cycle (SC miss service,
    /// CHG latency, spill fetch...).
    StallUntil(u64),
    /// Validation failed: raise the REV exception and stop.
    Violation(Violation),
}

/// Why validation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// No reference entry digest-matched the executed block (code was
    /// modified, or control entered a block unknown to static analysis).
    HashMismatch,
    /// The computed branch/return transferred to an address not in the
    /// reference target set.
    IllegalTarget,
    /// A block entered via return did not list the latched return
    /// instruction among its predecessors.
    ReturnMismatch,
    /// No signature table covers the executing address (SAG limit check
    /// failed).
    NoTable,
    /// The in-RAM signature table failed to parse after decryption
    /// (tampering).
    TableCorrupt,
    /// A deferred store failed its parity check at release (the
    /// post-commit buffer was corrupted between commit and validation).
    ParityError,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::HashMismatch => "basic-block hash mismatch",
            ViolationKind::IllegalTarget => "illegal computed-branch target",
            ViolationKind::ReturnMismatch => "return-address validation failed",
            ViolationKind::NoTable => "no signature table for executing module",
            ViolationKind::TableCorrupt => "signature table corrupt",
            ViolationKind::ParityError => "deferred-store buffer parity error",
        };
        f.write_str(s)
    }
}

rev_trace::ckpt_enum!(ViolationKind {
    HashMismatch = 0,
    IllegalTarget = 1,
    ReturnMismatch = 2,
    NoTable = 3,
    TableCorrupt = 4,
    ParityError = 5,
});

/// A validation failure report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Failure class.
    pub kind: ViolationKind,
    /// BB address of the offending block.
    pub bb_addr: u64,
    /// The actual transfer target observed.
    pub actual_target: u64,
    /// Cycle of detection.
    pub cycle: u64,
}

rev_trace::ckpt_fields!(Ckpt for Violation { kind, bb_addr, actual_target, cycle });

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "REV violation at BB {:#x} (target {:#x}, cycle {}): {}",
            self.bb_addr, self.actual_target, self.cycle, self.kind
        )
    }
}

/// A store handed over at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreCommit {
    /// Fetch sequence number.
    pub seq: u64,
    /// Effective address.
    pub addr: u64,
    /// 64-bit store value.
    pub value: u64,
    /// Commit cycle.
    pub cycle: u64,
}

/// Hooks the pipeline calls into. See the crate docs for the call protocol.
pub trait ExecMonitor {
    /// An instruction was fetched. Return `true` if the monitor designates
    /// it a basic-block boundary whose commit must be gated (control-flow
    /// terminators and artificial split points).
    fn on_fetch(&mut self, mem: &mut Hierarchy, event: &FetchEvent) -> bool;

    /// All instructions with `seq >= from_seq` were squashed.
    fn on_flush(&mut self, from_seq: u64);

    /// A boundary instruction at the ROB head wants to commit.
    fn on_terminator_commit(&mut self, mem: &mut Hierarchy, query: &CommitQuery) -> CommitGate;

    /// A store (or call push) reached commit. The monitor owns committed
    /// memory and decides when the value becomes architectural.
    fn on_store_commit(&mut self, mem: &mut Hierarchy, store: StoreCommit);

    /// Whether the monitor's deferred-store buffers can accept another
    /// store (the post-commit store-queue extension back-pressure).
    fn can_accept_store(&self) -> bool {
        true
    }

    /// Whether a load at `addr` would forward from a deferred (committed
    /// but unvalidated) store.
    fn forwards_store(&self, addr: u64) -> bool {
        let _ = addr;
        false
    }

    /// The run ended (budget, halt, or violation); flush any terminal
    /// state (e.g. release remaining validated stores).
    fn on_run_end(&mut self, mem: &mut Hierarchy, cycle: u64) {
        let _ = (mem, cycle);
    }
}

/// The baseline (no REV) monitor: BB boundaries are never gated and stores
/// commit directly to its committed-memory image.
#[derive(Debug)]
pub struct NullMonitor {
    committed: MainMemory,
}

impl NullMonitor {
    /// Creates a baseline monitor whose committed state starts from the
    /// loaded program image.
    pub fn new(initial: MainMemory) -> Self {
        NullMonitor { committed: initial }
    }

    /// The committed memory image.
    pub fn committed(&self) -> &MainMemory {
        &self.committed
    }

    /// Mutable committed memory (external/attack writes).
    pub fn committed_mut(&mut self) -> &mut MainMemory {
        &mut self.committed
    }
}

impl ExecMonitor for NullMonitor {
    #[inline]
    fn on_fetch(&mut self, _mem: &mut Hierarchy, event: &FetchEvent) -> bool {
        event.insn.is_bb_terminator()
    }

    #[inline]
    fn on_flush(&mut self, _from_seq: u64) {}

    #[inline]
    fn on_terminator_commit(&mut self, _mem: &mut Hierarchy, _query: &CommitQuery) -> CommitGate {
        CommitGate::Proceed
    }

    #[inline]
    fn on_store_commit(&mut self, mem: &mut Hierarchy, store: StoreCommit) {
        // The baseline drains stores straight to memory (one cache write).
        mem.data_access(rev_mem::Request {
            addr: store.addr,
            is_write: true,
            requester: rev_mem::Requester::Data,
            cycle: store.cycle,
        });
        self.committed.write_u64(store.addr, store.value);
    }
}
