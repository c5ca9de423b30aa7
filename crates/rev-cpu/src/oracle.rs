//! The functional (oracle) execution engine.
//!
//! Executes the program architecturally, one instruction at a time, against
//! the *live* memory image — so run-time attacks that rewrite code bytes or
//! clobber return addresses genuinely divert the oracle's control flow, and
//! REV's job is to catch the divergence. The timing pipeline consumes the
//! oracle's [`DynOp`] stream for correct-path instructions and reads raw
//! bytes for wrong-path fetch; each consumed op surfaces as a `Fetch`
//! (and later `Commit`) trace event when the pipeline's `TraceBus` is
//! enabled (see `docs/METRICS.md`).

use rev_isa::{decode, DecodeError, Instruction, Reg, REG_SP};
use rev_mem::MainMemory;
use rev_trace::CkptFields;
use std::fmt;

/// Architectural register state.
#[derive(Debug, Clone)]
pub struct ArchState {
    /// Integer registers (`r0` reads as zero).
    pub regs: [u64; 32],
    /// Floating-point registers.
    pub fregs: [f64; 32],
    /// Program counter.
    pub pc: u64,
}

impl ArchState {
    /// Fresh state with `pc` at `entry` and `sp` at `sp`.
    pub fn new(entry: u64, sp: u64) -> Self {
        let mut s = ArchState { regs: [0; 32], fregs: [0.0; 32], pc: entry };
        s.regs[REG_SP.index()] = sp;
        s
    }

    /// Reads an integer register (`r0` is hardwired zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r == Reg::R0 {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes an integer register (writes to `r0` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if r != Reg::R0 {
            self.regs[r.index()] = v;
        }
    }
}

/// One architecturally executed instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynOp {
    /// Instruction address.
    pub addr: u64,
    /// The instruction.
    pub insn: Instruction,
    /// Encoded length in bytes.
    pub len: u8,
    /// Architecturally correct next PC.
    pub next_pc: u64,
    /// For conditional branches, whether the branch was taken.
    pub taken: bool,
    /// Effective address of the memory access, if any (includes the stack
    /// push of calls and pop of returns).
    pub mem_addr: Option<u64>,
    /// Value stored, for memory-writing instructions.
    pub store_value: Option<u64>,
    /// `true` if this instruction halted the machine.
    pub halted: bool,
}

/// Functional execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// Bytes at `pc` did not decode (e.g. control flow jumped into data or
    /// clobbered code).
    IllegalInstruction {
        /// Faulting PC.
        pc: u64,
    },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::IllegalInstruction { pc } => {
                write!(f, "illegal instruction at {pc:#x}")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// Slot count of the direct-mapped decode memo (index = low PC bits);
/// must be a power of two. 8 Ki slots cover the modeled code footprints
/// with an indexed load instead of a hash probe on the per-fetch path.
const DEC_SLOTS: usize = 8192;

/// One memoized fetch+decode: the tag PC (`u64::MAX` = empty), the
/// instruction, its encoded length, and the fetch bytes exactly as a
/// fresh read-plus-tail-zero would produce them (only `bytes[..len]`
/// carries semantics; the tail is zeroed at fill so replays are
/// byte-identical to the uncached path).
#[derive(Debug, Clone, Copy)]
struct DecEntry {
    pc: u64,
    len: u8,
    insn: Instruction,
    bytes: [u8; rev_isa::MAX_INSTR_LEN],
}

impl DecEntry {
    const EMPTY: DecEntry = DecEntry {
        pc: u64::MAX,
        len: 0,
        insn: Instruction::Nop,
        bytes: [0; rev_isa::MAX_INSTR_LEN],
    };
}

/// The oracle: architectural state + live memory.
#[derive(Debug, Clone)]
pub struct Oracle {
    state: ArchState,
    mem: MainMemory,
    halted: bool,
    executed: u64,
    /// Direct-mapped PC → decoded-instruction memo for the fetch hot
    /// path. Purely a simulator-performance cache: it is bypassed
    /// entirely while a fault injector is attached (in-flight corruption
    /// and site-visit counting must see every read), cleared whenever
    /// [`Oracle::mem_mut`] hands out mutable memory (external writes —
    /// SMC attacks, DMA, table placement), and cleared when the oracle's
    /// own stores land inside the cached code range.
    dec_cache: Vec<DecEntry>,
    /// `[lo, hi)` union of `pc..pc+len` over cached entries — the
    /// store-invalidation fast-reject bound. `(u64::MAX, 0)` when empty.
    dec_bounds: (u64, u64),
}

impl Oracle {
    /// Creates an oracle at `entry` with stack pointer `sp` over `mem`.
    pub fn new(mem: MainMemory, entry: u64, sp: u64) -> Self {
        Oracle {
            state: ArchState::new(entry, sp),
            mem,
            halted: false,
            executed: 0,
            dec_cache: vec![DecEntry::EMPTY; DEC_SLOTS],
            dec_bounds: (u64::MAX, 0),
        }
    }

    /// Current architectural state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Mutable architectural state (used by attack injectors that model
    /// register-clobbering exploits; normal operation never needs this).
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.state
    }

    /// The live memory image.
    pub fn mem(&self) -> &MainMemory {
        &self.mem
    }

    /// Mutable live memory (attack injection, table loading). Drops the
    /// decode memo: the caller may rewrite code bytes the memo pinned.
    pub fn mem_mut(&mut self) -> &mut MainMemory {
        self.clear_dec_cache();
        &mut self.mem
    }

    fn clear_dec_cache(&mut self) {
        self.dec_cache.fill(DecEntry::EMPTY);
        self.dec_bounds = (u64::MAX, 0);
    }

    /// Invalidates the decode memo if an 8-byte store at `addr` could
    /// overlap any cached instruction's bytes. Stores land in data/stack
    /// pages in any well-formed run, so the bound check almost always
    /// rejects in two compares; self-modifying code pays a full refill.
    #[inline]
    fn note_store(&mut self, addr: u64) {
        let (lo, hi) = self.dec_bounds;
        if addr + 8 > lo && addr < hi {
            self.clear_dec_cache();
        }
    }

    /// Whether a `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Serializes architectural state and the live memory pages that
    /// differ from `base` (see [`MainMemory::save_state`]). The decode
    /// memo is a simulator-performance cache and is *not* saved — a
    /// restored oracle refills it cold, which is functionally invisible
    /// (memoized replays are byte-identical to fresh fetches).
    pub fn save_state(&self, base: &MainMemory, w: &mut rev_trace::CkptWriter) {
        self.save_fields(w);
        self.mem.save_state(base, w);
    }

    /// Restores state saved by [`Oracle::save_state`]. The decode memo
    /// restarts cold.
    ///
    /// # Errors
    ///
    /// Returns [`rev_trace::CkptError`] on decode failure.
    pub fn restore_state(
        &mut self,
        r: &mut rev_trace::CkptReader<'_>,
    ) -> Result<(), rev_trace::CkptError> {
        self.load_fields(r)?;
        self.mem.restore_state(r)?;
        self.clear_dec_cache();
        Ok(())
    }

    /// Number of instructions executed.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::IllegalInstruction`] if the bytes at the PC
    /// do not decode.
    pub fn step(&mut self) -> Result<DynOp, OracleError> {
        let mut bytes = [0u8; rev_isa::MAX_INSTR_LEN];
        self.step_fetched(&mut bytes)
    }

    /// Fetches and decodes the instruction at `pc` from live memory
    /// without executing it — the pipeline's wrong-path fetch, and the
    /// first half of [`Oracle::step_fetched`]. Served from the decode
    /// memo, which is bypassed while a fault injector is armed; a decode
    /// failure is never memoized. `bytes[..len]` holds the encoding; the
    /// tail is unspecified.
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeError`] of bytes that do not decode.
    #[inline]
    pub fn fetch_decode(
        &mut self,
        pc: u64,
        bytes: &mut [u8; rev_isa::MAX_INSTR_LEN],
    ) -> Result<(Instruction, usize), DecodeError> {
        let faulted = self.mem.fault_enabled();
        let slot = (pc as usize) & (DEC_SLOTS - 1);
        let e = &self.dec_cache[slot];
        if !faulted && e.pc == pc {
            *bytes = e.bytes;
            return Ok((e.insn, e.len as usize));
        }
        self.mem.read_filtered(pc, bytes);
        let (insn, len) = decode(&bytes[..])?;
        if !faulted {
            // Pin the post-zeroing byte image so a memo replay is
            // indistinguishable from this fresh fetch.
            let mut pinned = *bytes;
            for b in &mut pinned[len..] {
                *b = 0;
            }
            self.dec_cache[slot] = DecEntry { pc, len: len as u8, insn, bytes: pinned };
            self.dec_bounds.0 = self.dec_bounds.0.min(pc);
            self.dec_bounds.1 = self.dec_bounds.1.max(pc + len as u64);
        }
        Ok((insn, len))
    }

    /// Executes one instruction, exposing the code bytes it fetched in
    /// `bytes` (so a caller that also needs the raw encoding — the
    /// pipeline's fetch event — avoids a second memory read).
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::IllegalInstruction`] if the bytes at the PC
    /// do not decode.
    pub fn step_fetched(
        &mut self,
        bytes: &mut [u8; rev_isa::MAX_INSTR_LEN],
    ) -> Result<DynOp, OracleError> {
        let pc = self.state.pc;
        let (insn, len) =
            self.fetch_decode(pc, bytes).map_err(|_| OracleError::IllegalInstruction { pc })?;
        let next_seq = pc + len as u64;
        let mut op = DynOp {
            addr: pc,
            insn,
            len: len as u8,
            next_pc: next_seq,
            taken: false,
            mem_addr: None,
            store_value: None,
            halted: false,
        };
        let s = &mut self.state;
        match insn {
            Instruction::Nop => {}
            Instruction::Halt => {
                self.halted = true;
                op.halted = true;
                op.next_pc = pc; // stay
            }
            Instruction::Alu { op: aop, rd, rs1, rs2 } => {
                let v = aop.eval(s.reg(rs1), s.reg(rs2));
                s.set_reg(rd, v);
            }
            Instruction::AddI { rd, rs, imm } => {
                s.set_reg(rd, s.reg(rs).wrapping_add(imm as i64 as u64));
            }
            Instruction::AndI { rd, rs, imm } => {
                s.set_reg(rd, s.reg(rs) & (imm as i64 as u64));
            }
            Instruction::XorI { rd, rs, imm } => {
                s.set_reg(rd, s.reg(rs) ^ (imm as i64 as u64));
            }
            Instruction::MulI { rd, rs, imm } => {
                s.set_reg(rd, s.reg(rs).wrapping_mul(imm as i64 as u64));
            }
            Instruction::Li { rd, imm } => s.set_reg(rd, imm),
            Instruction::Mov { rd, rs } => {
                let v = s.reg(rs);
                s.set_reg(rd, v);
            }
            Instruction::Fpu { op: fop, fd, fs1, fs2 } => {
                s.fregs[fd.index()] = fop.eval(s.fregs[fs1.index()], s.fregs[fs2.index()]);
            }
            Instruction::FMov { fd, fs } => s.fregs[fd.index()] = s.fregs[fs.index()],
            Instruction::CvtIF { fd, rs } => s.fregs[fd.index()] = s.reg(rs) as i64 as f64,
            Instruction::CvtFI { rd, fs } => {
                let v = s.fregs[fs.index()] as i64 as u64;
                s.set_reg(rd, v);
            }
            Instruction::Load { rd, rbase, off } => {
                let addr = s.reg(rbase).wrapping_add(off as i64 as u64);
                op.mem_addr = Some(addr);
                let v = self.mem.read_u64(addr);
                s.set_reg(rd, v);
            }
            Instruction::Store { rs, rbase, off } => {
                let addr = s.reg(rbase).wrapping_add(off as i64 as u64);
                let v = s.reg(rs);
                op.mem_addr = Some(addr);
                op.store_value = Some(v);
                self.mem.write_u64(addr, v);
            }
            Instruction::LoadF { fd, rbase, off } => {
                let addr = s.reg(rbase).wrapping_add(off as i64 as u64);
                op.mem_addr = Some(addr);
                s.fregs[fd.index()] = f64::from_bits(self.mem.read_u64(addr));
            }
            Instruction::StoreF { fs, rbase, off } => {
                let addr = s.reg(rbase).wrapping_add(off as i64 as u64);
                let v = s.fregs[fs.index()].to_bits();
                op.mem_addr = Some(addr);
                op.store_value = Some(v);
                self.mem.write_u64(addr, v);
            }
            Instruction::Branch { cond, rs1, rs2, disp } => {
                op.taken = cond.eval(s.reg(rs1), s.reg(rs2));
                if op.taken {
                    op.next_pc = next_seq.wrapping_add(disp as i64 as u64);
                }
            }
            Instruction::Jmp { disp } => {
                op.next_pc = next_seq.wrapping_add(disp as i64 as u64);
            }
            Instruction::Call { disp } => {
                let sp = s.reg(REG_SP).wrapping_sub(8);
                s.set_reg(REG_SP, sp);
                self.mem.write_u64(sp, next_seq);
                op.mem_addr = Some(sp);
                op.store_value = Some(next_seq);
                op.next_pc = next_seq.wrapping_add(disp as i64 as u64);
            }
            Instruction::CallInd { rt } => {
                let target = s.reg(rt);
                let sp = s.reg(REG_SP).wrapping_sub(8);
                s.set_reg(REG_SP, sp);
                self.mem.write_u64(sp, next_seq);
                op.mem_addr = Some(sp);
                op.store_value = Some(next_seq);
                op.next_pc = target;
            }
            Instruction::JmpInd { rt } => {
                op.next_pc = s.reg(rt);
            }
            Instruction::Ret => {
                let sp = s.reg(REG_SP);
                let ret = self.mem.read_u64(sp);
                s.set_reg(REG_SP, sp.wrapping_add(8));
                op.mem_addr = Some(sp);
                op.next_pc = ret;
            }
            Instruction::Syscall { .. } => {
                // Modeled as a validated no-op boundary (kernel execution
                // itself would be validated with the kernel module's table).
            }
        }
        // Every memory-writing arm (stores, call pushes) set `store_value`:
        // check the one written address against the decode memo's bounds.
        if op.store_value.is_some() {
            if let Some(addr) = op.mem_addr {
                self.note_store(addr);
            }
        }
        self.state.pc = op.next_pc;
        if !op.halted {
            self.executed += 1;
        }
        Ok(op)
    }
}

rev_trace::ckpt_fields!(Ckpt for ArchState { regs, fregs, pc });

// The fields ahead of the memory section (which needs the build image,
// see `Oracle::save_state`).
rev_trace::ckpt_fields!(CkptFields for Oracle { state, halted, executed });

#[cfg(test)]
mod tests {
    use super::*;
    use rev_isa::{AluOp, BranchCond};
    use rev_prog::{ModuleBuilder, Program};

    fn run_program<F: FnOnce(&mut ModuleBuilder)>(build: F) -> (Oracle, Vec<DynOp>) {
        let mut b = ModuleBuilder::new("t", 0x1000);
        build(&mut b);
        let m = b.finish().unwrap();
        let mut pb = Program::builder();
        pb.module(m);
        let p = pb.build();
        let mem = MainMemory::with_segments(&p.segments());
        let mut oracle = Oracle::new(mem, p.entry(), p.initial_sp());
        let mut ops = Vec::new();
        for _ in 0..1000 {
            let op = oracle.step().unwrap();
            let halted = op.halted;
            ops.push(op);
            if halted {
                break;
            }
        }
        (oracle, ops)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (oracle, ops) = run_program(|b| {
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R0, imm: 40 });
            b.push(Instruction::AddI { rd: Reg::R2, rs: Reg::R1, imm: 2 });
            b.push(Instruction::Halt);
        });
        assert_eq!(oracle.state().reg(Reg::R2), 42);
        assert!(ops.last().unwrap().halted);
        assert_eq!(oracle.executed(), 2);
    }

    /// A wrong-path fetch memoizes `x`; a later store on the correct path
    /// rewrites `x`'s bytes; the correct path must then run the new bytes.
    #[test]
    fn a_memoized_wrong_path_decode_sees_a_later_store() {
        let old = Instruction::AddI { rd: Reg::R1, rs: Reg::R0, imm: 1 };
        let new = Instruction::AddI { rd: Reg::R1, rs: Reg::R0, imm: 7 };
        let mut patch = new.encode();
        patch.extend(Instruction::Halt.encode());
        patch.resize(8, 0);
        let value = u64::from_le_bytes(patch.try_into().unwrap());
        let prefix = |x: u64| {
            [
                Instruction::Li { rd: Reg::R5, imm: x },
                Instruction::Li { rd: Reg::R6, imm: value },
                Instruction::Store { rs: Reg::R6, rbase: Reg::R5, off: 0 },
            ]
        };
        let x = 0x1000 + prefix(0).iter().map(rev_isa::encoded_len).sum::<usize>() as u64;
        let mut b = ModuleBuilder::new("smc", 0x1000);
        for insn in prefix(x) {
            b.push(insn);
        }
        b.push(old);
        b.push(Instruction::Halt);
        let mut pb = Program::builder();
        pb.module(b.finish().unwrap());
        let p = pb.build();
        let mut oracle =
            Oracle::new(MainMemory::with_segments(&p.segments()), p.entry(), p.initial_sp());
        let mut bytes = [0u8; rev_isa::MAX_INSTR_LEN];
        assert_eq!(oracle.fetch_decode(x, &mut bytes).unwrap().0, old, "wrong path memoizes x");
        for _ in 0..3 {
            oracle.step().unwrap();
        }
        assert_eq!(oracle.step().unwrap().insn, new, "the store invalidated the memo");
        assert_eq!(oracle.state().reg(Reg::R1), 7);
        assert!(oracle.step().unwrap().halted);
    }

    #[test]
    fn r0_stays_zero() {
        let (oracle, _) = run_program(|b| {
            b.push(Instruction::AddI { rd: Reg::R0, rs: Reg::R0, imm: 99 });
            b.push(Instruction::Halt);
        });
        assert_eq!(oracle.state().reg(Reg::R0), 0);
    }

    #[test]
    fn taken_branch_loops() {
        let (oracle, ops) = run_program(|b| {
            let top = b.new_label();
            b.push(Instruction::Li { rd: Reg::R2, imm: 5 });
            b.bind(top);
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
            b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
            b.push(Instruction::Halt);
        });
        assert_eq!(oracle.state().reg(Reg::R1), 5);
        let branches: Vec<&DynOp> =
            ops.iter().filter(|o| matches!(o.insn, Instruction::Branch { .. })).collect();
        assert_eq!(branches.len(), 5);
        assert!(branches[0].taken);
        assert!(!branches[4].taken);
    }

    #[test]
    fn call_ret_uses_stack() {
        let (oracle, ops) = run_program(|b| {
            let f = b.new_label();
            b.call(f);
            b.push(Instruction::Halt);
            b.bind(f);
            b.push(Instruction::AddI { rd: Reg::R3, rs: Reg::R0, imm: 7 });
            b.push(Instruction::Ret);
        });
        assert_eq!(oracle.state().reg(Reg::R3), 7);
        // Call pushed; ret popped; sp back to initial.
        let call_op = ops.iter().find(|o| matches!(o.insn, Instruction::Call { .. })).unwrap();
        let ret_op = ops.iter().find(|o| matches!(o.insn, Instruction::Ret)).unwrap();
        assert_eq!(call_op.mem_addr, ret_op.mem_addr);
        assert_eq!(ret_op.next_pc, call_op.addr + call_op.len as u64);
        assert!(ops.last().unwrap().halted);
    }

    #[test]
    fn corrupted_return_address_diverts_control() {
        // Overwrite the saved return address mid-run via a store: the ret
        // must follow the attacker-controlled value.
        let (oracle, ops) = run_program(|b| {
            let f = b.new_label();
            let evil = b.new_label();
            b.call(f);
            b.push(Instruction::Halt); // legitimate return site
            b.bind(evil);
            b.push(Instruction::AddI { rd: Reg::R9, rs: Reg::R0, imm: 0x66 });
            b.push(Instruction::Halt);
            b.bind(f);
            // Overwrite [sp] with &evil.
            b.li_label(Reg::R8, evil);
            b.push(Instruction::Store { rs: Reg::R8, rbase: REG_SP, off: 0 });
            b.push(Instruction::Ret);
        });
        assert_eq!(oracle.state().reg(Reg::R9), 0x66, "control must reach evil block");
        let ret_op = ops.iter().find(|o| matches!(o.insn, Instruction::Ret)).unwrap();
        assert_ne!(ret_op.next_pc, ret_op.addr + 1);
    }

    #[test]
    fn load_store_round_trip() {
        let (oracle, _) = run_program(|b| {
            let buf = b.data_zeroed(64);
            b.li_data(Reg::R5, buf);
            b.push(Instruction::Li { rd: Reg::R6, imm: 0xfeed });
            b.push(Instruction::Store { rs: Reg::R6, rbase: Reg::R5, off: 8 });
            b.push(Instruction::Load { rd: Reg::R7, rbase: Reg::R5, off: 8 });
            b.push(Instruction::Halt);
        });
        assert_eq!(oracle.state().reg(Reg::R7), 0xfeed);
    }

    #[test]
    fn indirect_jump_through_table() {
        let (oracle, _) = run_program(|b| {
            let t0 = b.new_label();
            let t1 = b.new_label();
            let table = b.data_label_table(&[t0, t1]);
            b.li_data(Reg::R5, table);
            b.push(Instruction::Load { rd: Reg::R6, rbase: Reg::R5, off: 8 }); // entry 1
            b.jmp_ind(Reg::R6, &[t0, t1]);
            b.bind(t0);
            b.push(Instruction::AddI { rd: Reg::R7, rs: Reg::R0, imm: 1 });
            b.push(Instruction::Halt);
            b.bind(t1);
            b.push(Instruction::AddI { rd: Reg::R7, rs: Reg::R0, imm: 2 });
            b.push(Instruction::Halt);
        });
        assert_eq!(oracle.state().reg(Reg::R7), 2);
    }

    #[test]
    fn fp_pipeline() {
        let (oracle, _) = run_program(|b| {
            b.push(Instruction::Li { rd: Reg::R1, imm: 6 });
            b.push(Instruction::Li { rd: Reg::R2, imm: 3 });
            b.push(Instruction::CvtIF { fd: rev_isa::FReg::F1, rs: Reg::R1 });
            b.push(Instruction::CvtIF { fd: rev_isa::FReg::F2, rs: Reg::R2 });
            b.push(Instruction::Fpu {
                op: rev_isa::FpuOp::Div,
                fd: rev_isa::FReg::F3,
                fs1: rev_isa::FReg::F1,
                fs2: rev_isa::FReg::F2,
            });
            b.push(Instruction::CvtFI { rd: Reg::R3, fs: rev_isa::FReg::F3 });
            b.push(Instruction::Halt);
        });
        assert_eq!(oracle.state().reg(Reg::R3), 2);
    }

    #[test]
    fn illegal_bytes_error() {
        let mut mem = MainMemory::new();
        mem.write_bytes(0x100, &[0xff, 0xff]);
        let mut o = Oracle::new(mem, 0x100, 0x8000);
        assert!(matches!(o.step(), Err(OracleError::IllegalInstruction { pc: 0x100 })));
    }

    #[test]
    fn slt_alu() {
        let (oracle, _) = run_program(|b| {
            b.push(Instruction::Li { rd: Reg::R1, imm: (-5i64) as u64 });
            b.push(Instruction::Li { rd: Reg::R2, imm: 3 });
            b.push(Instruction::Alu { op: AluOp::Slt, rd: Reg::R3, rs1: Reg::R1, rs2: Reg::R2 });
            b.push(Instruction::Halt);
        });
        assert_eq!(oracle.state().reg(Reg::R3), 1);
    }
}
