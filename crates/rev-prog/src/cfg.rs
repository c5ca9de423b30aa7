//! Static control-flow analysis: REV-style basic-block enumeration.
//!
//! REV identifies a basic block by the address of the control-flow
//! instruction that **terminates** it, and the CHG hashes the instructions
//! from the point where the previous block's validation boundary ended. A
//! block in REV's sense is therefore a *dynamic* block: the run of
//! instructions from an entry point (leader) to the next terminator. Two
//! different leaders that fall into the same terminator give two distinct
//! blocks with the same BB address but different bodies — the signature
//! table stores one entry per such block, discriminated by hash and the
//! entry's tag fields (paper Sec. V.B).
//!
//! Over-long blocks are split artificially so that the post-commit ROB and
//! store-queue extensions never overflow: a block also ends after
//! [`BbLimits::max_instrs`] instructions or [`BbLimits::max_stores`] stores,
//! whichever comes first (paper Sec. IV.A). The front end applies the same
//! counting rule at run time, so static table and hardware agree on the
//! boundaries.

use crate::module::Module;
use rev_isa::{DecodeError, InstrClass, Instruction};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

/// Artificial basic-block splitting limits (paper Sec. IV.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BbLimits {
    /// Maximum instructions per block before an artificial split.
    pub max_instrs: usize,
    /// Maximum stores per block before an artificial split.
    pub max_stores: usize,
}

impl Default for BbLimits {
    fn default() -> Self {
        BbLimits { max_instrs: 64, max_stores: 8 }
    }
}

/// Identifier of a block within a [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// How a block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermKind {
    /// PC-relative conditional branch.
    CondBranch,
    /// Direct unconditional jump.
    Jump,
    /// Direct call.
    CallDirect,
    /// Computed jump (explicit target validation).
    JumpIndirect,
    /// Computed call (explicit target validation).
    CallIndirect,
    /// Return (delayed validation).
    Return,
    /// System call.
    Syscall,
    /// Halt.
    Halt,
    /// Artificial split: the block hit [`BbLimits`] and falls through.
    Artificial,
}

impl TermKind {
    /// `true` if REV validates this block's outgoing target explicitly
    /// (computed branches and returns, paper Sec. V).
    pub fn needs_target_check(self) -> bool {
        matches!(self, TermKind::JumpIndirect | TermKind::CallIndirect | TermKind::Return)
    }
}

/// One REV basic block.
#[derive(Debug, Clone)]
pub struct BlockInfo {
    /// Identifier within the owning [`Cfg`].
    pub id: BlockId,
    /// Address of the first instruction (the block's entry leader).
    pub start: u64,
    /// Address of the terminating instruction — the paper's "address of
    /// the BB", the key for all signature lookups.
    pub bb_addr: u64,
    /// Address one past the last byte of the block.
    pub end: u64,
    /// The block's instructions, in order, with their addresses.
    pub instrs: Vec<(u64, Instruction)>,
    /// Number of store instructions in the block.
    pub num_stores: usize,
    /// Terminator classification.
    pub term: TermKind,
    /// Start addresses of legitimate successor blocks.
    pub successors: Vec<u64>,
    /// BB addresses (terminator addresses) of predecessor blocks.
    pub predecessors: Vec<u64>,
}

impl BlockInfo {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` if the block holds no instructions (never produced by
    /// analysis; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Byte length of the block.
    pub fn byte_len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// The terminating instruction.
    pub fn terminator(&self) -> Instruction {
        self.instrs.last().expect("blocks are non-empty").1
    }
}

/// Errors from CFG analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// Instruction bytes at `addr` failed to decode.
    Decode {
        /// Address of the undecodable bytes.
        addr: u64,
        /// Underlying decode error.
        source: DecodeError,
    },
    /// A computed jump/call at `addr` has no recorded target set.
    MissingIndirectTargets {
        /// Address of the indirect control-flow instruction.
        addr: u64,
    },
    /// A control-flow target points outside the module's code.
    TargetOutOfRange {
        /// Address of the referencing instruction.
        at: u64,
        /// The out-of-range target.
        target: u64,
    },
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::Decode { addr, source } => write!(f, "decode failed at {addr:#x}: {source}"),
            CfgError::MissingIndirectTargets { addr } => {
                write!(f, "computed branch at {addr:#x} has no recorded target set")
            }
            CfgError::TargetOutOfRange { at, target } => {
                write!(f, "target {target:#x} of instruction at {at:#x} is outside the module")
            }
        }
    }
}

impl std::error::Error for CfgError {}

rev_trace::stats! {
    /// Aggregate statistics over a CFG — the quantities the paper reports
    /// in Sec. VIII (BB counts, instructions per BB, successors per BB).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct CfgStats {
        /// Number of basic blocks.
        pub blocks: usize => "cfg.blocks",
        /// Mean instructions per block.
        pub avg_instrs: f64 => "cfg.avg_instrs",
        /// Mean successors per block.
        pub avg_successors: f64 => "cfg.avg_successors",
        /// Blocks ending in computed jumps/calls or returns.
        pub computed_terminators: usize => "cfg.computed_terminators",
        /// Total code bytes covered by blocks (with overlap from shared
        /// terminators counted once per block).
        pub code_bytes: usize => "cfg.code_bytes",
    }
}

/// The control-flow graph of one module.
#[derive(Debug, Clone)]
pub struct Cfg {
    blocks: Vec<BlockInfo>,
    by_start: HashMap<u64, BlockId>,
    by_bb_addr: HashMap<u64, Vec<BlockId>>,
    /// function entry -> return-site addresses (addr after each call).
    ret_sites: BTreeMap<u64, Vec<u64>>,
    limits: BbLimits,
}

impl Cfg {
    /// Analyzes `module` into REV basic blocks.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError`] if the code does not decode, a computed branch
    /// lacks a recorded target set, or a target escapes the module.
    pub fn analyze(module: &Module, limits: BbLimits) -> Result<Self, CfgError> {
        // Full linear decode (dense instruction stream by construction).
        let mut insns: BTreeMap<u64, (Instruction, usize)> = BTreeMap::new();
        {
            let mut addr = module.base();
            while addr < module.code_end() {
                let (insn, len) =
                    module.decode_at(addr).map_err(|source| CfgError::Decode { addr, source })?;
                insns.insert(addr, (insn, len));
                addr += len as u64;
            }
        }

        let check_target = |at: u64, target: u64| -> Result<u64, CfgError> {
            if insns.contains_key(&target) {
                Ok(target)
            } else {
                Err(CfgError::TargetOutOfRange { at, target })
            }
        };

        // Return-site sets per function entry, from every call site.
        let mut ret_sites: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (&addr, &(insn, len)) in &insns {
            let site = addr + len as u64;
            match insn {
                Instruction::Call { disp } => {
                    let target = check_target(addr, site.wrapping_add(disp as i64 as u64))?;
                    ret_sites.entry(target).or_default().push(site);
                }
                Instruction::CallInd { .. } => {
                    let targets = module
                        .indirect_targets(addr)
                        .ok_or(CfgError::MissingIndirectTargets { addr })?;
                    // External (cross-module) targets are legal for
                    // computed calls; their return linkage is stitched by
                    // the trusted linker across modules.
                    for &t in targets.iter().filter(|&&t| insns.contains_key(&t)) {
                        ret_sites.entry(t).or_default().push(site);
                    }
                }
                _ => {}
            }
        }

        // Successor starts of a terminator at `addr`.
        let successors_of =
            |addr: u64, insn: Instruction, len: usize| -> Result<(TermKind, Vec<u64>), CfgError> {
                let next = addr + len as u64;
                Ok(match insn {
                    Instruction::Branch { disp, .. } => {
                        let taken = check_target(addr, next.wrapping_add(disp as i64 as u64))?;
                        let mut succ = vec![taken];
                        if insns.contains_key(&next) && next != taken {
                            succ.push(next);
                        }
                        (TermKind::CondBranch, succ)
                    }
                    Instruction::Jmp { disp } => (
                        TermKind::Jump,
                        vec![check_target(addr, next.wrapping_add(disp as i64 as u64))?],
                    ),
                    Instruction::Call { disp } => (
                        TermKind::CallDirect,
                        vec![check_target(addr, next.wrapping_add(disp as i64 as u64))?],
                    ),
                    Instruction::JmpInd { .. } | Instruction::CallInd { .. } => {
                        let targets = module
                            .indirect_targets(addr)
                            .ok_or(CfgError::MissingIndirectTargets { addr })?;
                        let kind = if matches!(insn, Instruction::JmpInd { .. }) {
                            TermKind::JumpIndirect
                        } else {
                            TermKind::CallIndirect
                        };
                        (kind, targets.to_vec())
                    }
                    Instruction::Ret => {
                        // Successors = return sites of the enclosing function.
                        let sites = module
                            .function_at(addr)
                            .and_then(|f| ret_sites.get(&f.entry))
                            .cloned()
                            .unwrap_or_default();
                        (TermKind::Return, sites)
                    }
                    Instruction::Syscall { .. } => {
                        let succ = if insns.contains_key(&next) { vec![next] } else { vec![] };
                        (TermKind::Syscall, succ)
                    }
                    Instruction::Halt => (TermKind::Halt, vec![]),
                    _ => unreachable!("not a terminator"),
                })
            };

        // Seed leaders: entry points that static analysis can name.
        let mut worklist: VecDeque<u64> = VecDeque::new();
        let mut seeds: BTreeSet<u64> = BTreeSet::new();
        seeds.insert(module.base());
        for f in module.functions() {
            seeds.insert(f.entry);
        }
        for (_, targets) in module.all_indirect_targets() {
            seeds.extend(targets.iter().copied());
        }
        for (&addr, &(insn, len)) in &insns {
            if insn.is_bb_terminator() {
                let (_, succ) = successors_of(addr, insn, len)?;
                seeds.extend(succ);
                // Return sites are leaders: control re-enters there after
                // the callee returns (including cross-module callees whose
                // return linkage is stitched later by the trusted linker).
                if matches!(insn, Instruction::Call { .. } | Instruction::CallInd { .. })
                    && insns.contains_key(&(addr + len as u64))
                {
                    seeds.insert(addr + len as u64);
                }
            }
        }
        worklist.extend(seeds.iter().copied());

        // Walk from each leader to the next terminator or artificial limit.
        let mut blocks: Vec<BlockInfo> = Vec::new();
        let mut by_start: HashMap<u64, BlockId> = HashMap::new();
        let mut by_bb_addr: HashMap<u64, Vec<BlockId>> = HashMap::new();

        while let Some(start) = worklist.pop_front() {
            if by_start.contains_key(&start) {
                continue;
            }
            if !insns.contains_key(&start) {
                // External (cross-module) successor: analyzed by the
                // other module's CFG.
                continue;
            }
            let mut instrs: Vec<(u64, Instruction)> = Vec::new();
            let mut num_stores = 0usize;
            let mut addr = start;
            let (term, successors, end) = loop {
                let &(insn, len) = insns.get(&addr).expect("dense stream");
                instrs.push((addr, insn));
                if matches!(insn.class(), InstrClass::Store) {
                    num_stores += 1;
                }
                let next = addr + len as u64;
                if insn.is_bb_terminator() {
                    let (kind, succ) = successors_of(addr, insn, len)?;
                    break (kind, succ, next);
                }
                if instrs.len() >= limits.max_instrs || num_stores >= limits.max_stores {
                    // Artificial split; falls through to `next`.
                    let succ = if insns.contains_key(&next) { vec![next] } else { vec![] };
                    break (TermKind::Artificial, succ, next);
                }
                if !insns.contains_key(&next) {
                    // Ran off the end of the code without a terminator.
                    break (TermKind::Artificial, vec![], next);
                }
                addr = next;
            };
            let bb_addr = instrs.last().expect("non-empty").0;
            let id = BlockId(blocks.len() as u32);
            for &s in &successors {
                if !by_start.contains_key(&s) {
                    worklist.push_back(s);
                }
            }
            by_start.insert(start, id);
            by_bb_addr.entry(bb_addr).or_default().push(id);
            blocks.push(BlockInfo {
                id,
                start,
                bb_addr,
                end,
                instrs,
                num_stores,
                term,
                successors,
                predecessors: Vec::new(),
            });
        }

        // Predecessor linkage: for each edge B -> s, the block starting at s
        // records B's BB address.
        let edges: Vec<(u64, u64)> =
            blocks.iter().flat_map(|b| b.successors.iter().map(move |&s| (s, b.bb_addr))).collect();
        for (succ_start, pred_bb_addr) in edges {
            if let Some(&id) = by_start.get(&succ_start) {
                let preds = &mut blocks[id.0 as usize].predecessors;
                if !preds.contains(&pred_bb_addr) {
                    preds.push(pred_bb_addr);
                }
            }
        }

        Ok(Cfg { blocks, by_start, by_bb_addr, ret_sites, limits })
    }

    /// All blocks, in discovery order.
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }

    /// The block whose first instruction is at `start`.
    pub fn block_by_start(&self, start: u64) -> Option<&BlockInfo> {
        self.by_start.get(&start).map(|id| &self.blocks[id.0 as usize])
    }

    /// All blocks terminated by the instruction at `bb_addr` (several
    /// entry leaders may share one terminator).
    pub fn blocks_by_bb_addr(&self, bb_addr: u64) -> &[BlockId] {
        self.by_bb_addr.get(&bb_addr).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Looks up a block by id.
    pub fn block(&self, id: BlockId) -> &BlockInfo {
        &self.blocks[id.0 as usize]
    }

    /// Return sites recorded for the function entered at `entry`.
    pub fn ret_sites(&self, entry: u64) -> &[u64] {
        self.ret_sites.get(&entry).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The splitting limits the analysis ran with.
    pub fn limits(&self) -> BbLimits {
        self.limits
    }

    /// Raw bytes of `block` within `module` (the CHG's hash input).
    pub fn block_bytes<'m>(&self, module: &'m Module, block: &BlockInfo) -> &'m [u8] {
        let lo = (block.start - module.base()) as usize;
        let hi = (block.end - module.base()) as usize;
        &module.code()[lo..hi]
    }

    /// BB addresses of `Return`-terminated blocks whose address lies in
    /// `[lo, hi)` — used by the cross-module linker to find a callee
    /// function's return instructions.
    pub fn return_bb_addrs_in(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .blocks
            .iter()
            .filter(|b| b.term == TermKind::Return && (lo..hi).contains(&b.bb_addr))
            .map(|b| b.bb_addr)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Records a cross-module return edge (the trusted linker's job,
    /// paper Sec. IV.B): the return instruction at `ret_bb_addr` (in
    /// another module) may transfer to the block starting at
    /// `return_site` in this module. Updates the return-site block's
    /// predecessor set; if `ret_bb_addr` belongs to this module, its
    /// blocks also gain `return_site` as a successor.
    pub fn add_return_linkage(&mut self, ret_bb_addr: u64, return_site: u64) {
        if let Some(&id) = self.by_start.get(&return_site) {
            let preds = &mut self.blocks[id.0 as usize].predecessors;
            if !preds.contains(&ret_bb_addr) {
                preds.push(ret_bb_addr);
            }
        }
        let ids: Vec<BlockId> = self.blocks_by_bb_addr(ret_bb_addr).to_vec();
        for id in ids {
            let succs = &mut self.blocks[id.0 as usize].successors;
            if !succs.contains(&return_site) {
                succs.push(return_site);
            }
        }
    }

    /// Call-terminated blocks whose successor set includes an address
    /// outside `[lo, hi)` — the module's cross-module call sites, paired
    /// with (external target, local return site).
    pub fn external_call_edges(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for b in &self.blocks {
            if !matches!(b.term, TermKind::CallDirect | TermKind::CallIndirect) {
                continue;
            }
            for &t in &b.successors {
                if !(lo..hi).contains(&t) {
                    out.push((t, b.end));
                }
            }
        }
        out
    }

    /// Aggregate statistics (paper Sec. VIII).
    pub fn stats(&self) -> CfgStats {
        let blocks = self.blocks.len();
        let instrs: usize = self.blocks.iter().map(|b| b.len()).sum();
        let succs: usize = self.blocks.iter().map(|b| b.successors.len()).sum();
        let computed = self.blocks.iter().filter(|b| b.term.needs_target_check()).count();
        let bytes: usize = self.blocks.iter().map(|b| b.byte_len()).sum();
        CfgStats {
            blocks,
            avg_instrs: instrs as f64 / blocks.max(1) as f64,
            avg_successors: succs as f64 / blocks.max(1) as f64,
            computed_terminators: computed,
            code_bytes: bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use rev_isa::{BranchCond, Reg};

    fn build<F: FnOnce(&mut ModuleBuilder)>(f: F) -> Module {
        let mut b = ModuleBuilder::new("t", 0x1000);
        f(&mut b);
        b.finish().unwrap()
    }

    #[test]
    fn straight_line_with_branch() {
        let m = build(|b| {
            let out = b.new_label();
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R0, imm: 1 });
            b.branch(BranchCond::Eq, Reg::R1, Reg::R0, out);
            b.push(Instruction::AddI { rd: Reg::R2, rs: Reg::R0, imm: 2 });
            b.bind(out);
            b.push(Instruction::Halt);
        });
        let cfg = Cfg::analyze(&m, BbLimits::default()).unwrap();
        let entry = cfg.block_by_start(0x1000).expect("entry block");
        assert_eq!(entry.term, TermKind::CondBranch);
        assert_eq!(entry.successors.len(), 2);
        // Both paths converge on the halt block.
        let halt_start = *entry.successors.iter().max().unwrap();
        let halt_blocks: Vec<_> =
            cfg.blocks().iter().filter(|b| b.term == TermKind::Halt).collect();
        // Two leaders share the halt terminator: the branch target and the
        // fall-through run — here the branch target IS the halt instruction
        // and the fall-through block covers addi2+halt.
        assert!(!halt_blocks.is_empty());
        assert!(halt_blocks.iter().any(|b| b.start == halt_start || b.successors.is_empty()));
    }

    #[test]
    fn shared_terminator_two_leaders() {
        // L1: addi; addi; halt   with a jump targeting the second addi.
        let m = build(|b| {
            let mid = b.new_label();
            let top = b.new_label();
            b.bind(top);
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R0, imm: 1 });
            b.bind(mid);
            b.push(Instruction::AddI { rd: Reg::R2, rs: Reg::R0, imm: 2 });
            b.push(Instruction::Halt);
            b.jmp(mid); // unreachable jump that makes `mid` a target
        });
        let cfg = Cfg::analyze(&m, BbLimits::default()).unwrap();
        // The halt instruction terminates two distinct blocks.
        let halt_addr = cfg.blocks().iter().find(|b| b.term == TermKind::Halt).unwrap().bb_addr;
        assert_eq!(cfg.blocks_by_bb_addr(halt_addr).len(), 2);
        let starts: Vec<u64> =
            cfg.blocks_by_bb_addr(halt_addr).iter().map(|id| cfg.block(*id).start).collect();
        assert!(starts.contains(&0x1000));
    }

    #[test]
    fn call_and_return_edges() {
        let m = build(|b| {
            let main = b.begin_function("main");
            let callee = b.new_label();
            b.call(callee);
            b.push(Instruction::Halt);
            b.end_function(main);
            let f = b.begin_function("callee");
            b.bind(callee);
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
            b.push(Instruction::Ret);
            b.end_function(f);
        });
        let cfg = Cfg::analyze(&m, BbLimits::default()).unwrap();
        let ret_block = cfg.blocks().iter().find(|b| b.term == TermKind::Return).unwrap();
        // The return's successor is the instruction after the call.
        assert_eq!(ret_block.successors.len(), 1);
        let ret_site = ret_block.successors[0];
        let rb = cfg.block_by_start(ret_site).expect("return-site block");
        // RB's predecessor list carries the address of the ret instruction
        // (the paper's delayed return validation keys on this).
        assert!(rb.predecessors.contains(&ret_block.bb_addr));
        assert_eq!(rb.term, TermKind::Halt);
    }

    #[test]
    fn indirect_jump_targets_become_blocks() {
        let m = build(|b| {
            let t1 = b.new_label();
            let t2 = b.new_label();
            b.jmp_ind(Reg::R3, &[t1, t2]);
            b.bind(t1);
            b.push(Instruction::Halt);
            b.bind(t2);
            b.push(Instruction::Halt);
        });
        let cfg = Cfg::analyze(&m, BbLimits::default()).unwrap();
        let ind = cfg.block_by_start(0x1000).unwrap();
        assert_eq!(ind.term, TermKind::JumpIndirect);
        assert_eq!(ind.successors.len(), 2);
        for &s in &ind.successors {
            assert!(cfg.block_by_start(s).is_some(), "target {s:#x} analyzed");
        }
    }

    #[test]
    fn missing_indirect_targets_is_error() {
        // Bypass the builder's recording by pushing the raw instruction.
        let m = build(|b| {
            b.push(Instruction::JmpInd { rt: Reg::R1 });
            b.push(Instruction::Halt);
        });
        let err = Cfg::analyze(&m, BbLimits::default()).unwrap_err();
        assert!(matches!(err, CfgError::MissingIndirectTargets { addr: 0x1000 }));
    }

    #[test]
    fn artificial_split_on_instr_limit() {
        let m = build(|b| {
            for i in 0..10 {
                b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: i });
            }
            b.push(Instruction::Halt);
        });
        let limits = BbLimits { max_instrs: 4, max_stores: 8 };
        let cfg = Cfg::analyze(&m, limits).unwrap();
        let first = cfg.block_by_start(0x1000).unwrap();
        assert_eq!(first.term, TermKind::Artificial);
        assert_eq!(first.len(), 4);
        assert_eq!(first.successors.len(), 1);
        // The continuation is itself a block.
        let cont = cfg.block_by_start(first.successors[0]).unwrap();
        assert_eq!(cont.len(), 4);
        // Predecessor linkage crosses the artificial boundary.
        assert!(cont.predecessors.contains(&first.bb_addr));
    }

    #[test]
    fn artificial_split_on_store_limit() {
        let m = build(|b| {
            for _ in 0..5 {
                b.push(Instruction::Store { rs: Reg::R1, rbase: Reg::R29, off: 0 });
            }
            b.push(Instruction::Halt);
        });
        let limits = BbLimits { max_instrs: 64, max_stores: 2 };
        let cfg = Cfg::analyze(&m, limits).unwrap();
        let first = cfg.block_by_start(0x1000).unwrap();
        assert_eq!(first.term, TermKind::Artificial);
        assert_eq!(first.num_stores, 2);
    }

    #[test]
    fn split_hits_instr_and_store_limit_same_instruction() {
        // The third instruction is a store and also the max_instrs-th
        // instruction: both limits trip at once and must charge exactly one
        // artificial split, never two.
        let m = build(|b| {
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
            b.push(Instruction::AddI { rd: Reg::R2, rs: Reg::R2, imm: 2 });
            b.push(Instruction::Store { rs: Reg::R1, rbase: Reg::R29, off: 0 });
            b.push(Instruction::Nop);
            b.push(Instruction::Halt);
        });
        let limits = BbLimits { max_instrs: 3, max_stores: 1 };
        let cfg = Cfg::analyze(&m, limits).unwrap();
        let first = cfg.block_by_start(0x1000).unwrap();
        assert_eq!(first.term, TermKind::Artificial);
        assert_eq!(first.len(), 3);
        assert_eq!(first.num_stores, 1);
        assert_eq!(first.successors.len(), 1);
        let cont = cfg.block_by_start(first.successors[0]).unwrap();
        assert_eq!(cont.start, first.end, "split falls through contiguously");
        assert_eq!(cont.len(), 2, "nop + halt remain in one continuation");
        assert_eq!(cont.term, TermKind::Halt);
        assert!(cont.predecessors.contains(&first.bb_addr));
    }

    #[test]
    fn natural_terminator_exactly_at_split_boundary() {
        // The max_instrs-th instruction IS a terminator: the natural
        // terminator must win (the front end checks it before the counter),
        // so no artificial block appears and no duplicate boundary exists.
        let m = build(|b| {
            let out = b.new_label();
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
            b.push(Instruction::AddI { rd: Reg::R2, rs: Reg::R2, imm: 2 });
            b.push(Instruction::AddI { rd: Reg::R3, rs: Reg::R3, imm: 3 });
            b.jmp(out);
            b.bind(out);
            b.push(Instruction::Halt);
        });
        let limits = BbLimits { max_instrs: 4, max_stores: 8 };
        let cfg = Cfg::analyze(&m, limits).unwrap();
        let first = cfg.block_by_start(0x1000).unwrap();
        assert_eq!(first.len(), 4, "terminator included in the block");
        assert_eq!(first.term, TermKind::Jump);
        assert!(
            cfg.blocks().iter().all(|b| b.term != TermKind::Artificial),
            "no artificial split may coincide with a natural terminator"
        );
    }

    #[test]
    fn two_leaders_one_terminator_are_distinct_blocks() {
        // A jump into the middle of the entry run creates a second leader
        // for the same halt terminator: REV needs two table entries with
        // the same BB address but different bodies (paper Sec. V.B).
        let m = build(|b| {
            let mid = b.new_label();
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R0, imm: 1 });
            b.bind(mid);
            b.push(Instruction::AddI { rd: Reg::R2, rs: Reg::R0, imm: 2 });
            b.push(Instruction::Halt);
            b.jmp(mid);
        });
        let cfg = Cfg::analyze(&m, BbLimits::default()).unwrap();
        let halt_addr = cfg.blocks().iter().find(|b| b.term == TermKind::Halt).unwrap().bb_addr;
        let ids = cfg.blocks_by_bb_addr(halt_addr);
        assert_eq!(ids.len(), 2, "one block per leader");
        let (a, b) = (cfg.block(ids[0]), cfg.block(ids[1]));
        assert_eq!(a.bb_addr, b.bb_addr);
        assert_ne!(a.start, b.start, "distinct leaders");
        assert_ne!(
            cfg.block_bytes(&m, a),
            cfg.block_bytes(&m, b),
            "distinct bodies ⇒ distinct digests ⇒ two table entries"
        );
        assert_ne!(a.len(), b.len());
    }

    #[test]
    fn stats_are_consistent() {
        let m = build(|b| {
            let out = b.new_label();
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R0, imm: 1 });
            b.branch(BranchCond::Ne, Reg::R1, Reg::R0, out);
            b.push(Instruction::Nop);
            b.bind(out);
            b.push(Instruction::Halt);
        });
        let cfg = Cfg::analyze(&m, BbLimits::default()).unwrap();
        let s = cfg.stats();
        assert_eq!(s.blocks, cfg.blocks().len());
        assert!(s.avg_instrs >= 1.0);
        assert!(s.avg_successors > 0.0);
    }

    #[test]
    fn block_bytes_hashable_region() {
        let m = build(|b| {
            b.push(Instruction::Nop);
            b.push(Instruction::Halt);
        });
        let cfg = Cfg::analyze(&m, BbLimits::default()).unwrap();
        let blk = cfg.block_by_start(0x1000).unwrap();
        let bytes = cfg.block_bytes(&m, blk);
        assert_eq!(bytes, &[0x00, 0x01]); // nop, halt opcodes
    }

    #[test]
    fn every_successor_has_a_block_and_back_edge() {
        let m = build(|b| {
            let f = b.begin_function("main");
            let loop_top = b.new_label();
            let exit = b.new_label();
            b.bind(loop_top);
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
            b.branch(BranchCond::Lt, Reg::R1, Reg::R2, loop_top);
            b.branch(BranchCond::Eq, Reg::R0, Reg::R0, exit);
            b.push(Instruction::Nop);
            b.bind(exit);
            b.push(Instruction::Halt);
            b.end_function(f);
        });
        let cfg = Cfg::analyze(&m, BbLimits::default()).unwrap();
        for b in cfg.blocks() {
            for &s in &b.successors {
                let succ = cfg.block_by_start(s).expect("successor analyzed");
                assert!(
                    succ.predecessors.contains(&b.bb_addr),
                    "missing back edge {:#x} -> {:#x}",
                    b.bb_addr,
                    s
                );
            }
        }
    }
}
