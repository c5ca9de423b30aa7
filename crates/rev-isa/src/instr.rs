//! Instruction set definition, byte encoding, and decoding.
//!
//! Encodings are variable length (1–10 bytes): one opcode byte followed by
//! operand bytes. Branch/jump displacements are relative to the address of
//! the *next* instruction (i.e. target = addr + len + disp), matching the
//! common x86 convention the paper's substrate simulated.

use crate::reg::{FReg, Reg};
use std::fmt;

/// Maximum length in bytes of any encoded instruction.
pub const MAX_INSTR_LEN: usize = 10;

/// Condition tested by a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Branch if `rs1 == rs2`.
    Eq,
    /// Branch if `rs1 != rs2`.
    Ne,
    /// Branch if `rs1 < rs2` (signed).
    Lt,
    /// Branch if `rs1 >= rs2` (signed).
    Ge,
    /// Branch if `rs1 < rs2` (unsigned).
    Ltu,
    /// Branch if `rs1 >= rs2` (unsigned).
    Geu,
}

impl BranchCond {
    /// Evaluates the condition on two operand values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }

    fn code(self) -> u8 {
        match self {
            BranchCond::Eq => 0,
            BranchCond::Ne => 1,
            BranchCond::Lt => 2,
            BranchCond::Ge => 3,
            BranchCond::Ltu => 4,
            BranchCond::Geu => 5,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => BranchCond::Eq,
            1 => BranchCond::Ne,
            2 => BranchCond::Lt,
            3 => BranchCond::Ge,
            4 => BranchCond::Ltu,
            5 => BranchCond::Geu,
            _ => return None,
        })
    }
}

/// Binary integer ALU operation selector for the three-register form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical left shift (by low 6 bits of rhs).
    Shl,
    /// Logical right shift (by low 6 bits of rhs).
    Shr,
    /// Wrapping multiplication.
    Mul,
    /// Set to 1 if lhs < rhs (signed), else 0.
    Slt,
}

impl AluOp {
    /// Applies the operation to two operand values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Slt => u64::from((a as i64) < (b as i64)),
        }
    }

    fn code(self) -> u8 {
        match self {
            AluOp::Add => 0,
            AluOp::Sub => 1,
            AluOp::And => 2,
            AluOp::Or => 3,
            AluOp::Xor => 4,
            AluOp::Shl => 5,
            AluOp::Shr => 6,
            AluOp::Mul => 7,
            AluOp::Slt => 8,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => AluOp::Add,
            1 => AluOp::Sub,
            2 => AluOp::And,
            3 => AluOp::Or,
            4 => AluOp::Xor,
            5 => AluOp::Shl,
            6 => AluOp::Shr,
            7 => AluOp::Mul,
            8 => AluOp::Slt,
            _ => return None,
        })
    }
}

/// Binary floating-point operation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// Floating add.
    Add,
    /// Floating subtract.
    Sub,
    /// Floating multiply.
    Mul,
    /// Floating divide.
    Div,
}

impl FpuOp {
    /// Applies the operation to two `f64` operands.
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            FpuOp::Add => a + b,
            FpuOp::Sub => a - b,
            FpuOp::Mul => a * b,
            FpuOp::Div => a / b,
        }
    }

    fn code(self) -> u8 {
        match self {
            FpuOp::Add => 0,
            FpuOp::Sub => 1,
            FpuOp::Mul => 2,
            FpuOp::Div => 3,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => FpuOp::Add,
            1 => FpuOp::Sub,
            2 => FpuOp::Mul,
            3 => FpuOp::Div,
            _ => return None,
        })
    }
}

/// A decoded instruction.
///
/// Displacements (`disp`) in control-flow instructions are relative to the
/// address immediately after the instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// No operation (1 byte).
    Nop,
    /// Stop the machine (1 byte). Terminates a basic block.
    Halt,
    /// Three-register integer ALU operation (4 bytes).
    Alu {
        /// Operation selector.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// Register–immediate addition (7 bytes).
    AddI {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
        /// Immediate addend.
        imm: i32,
    },
    /// Register–immediate bitwise AND (7 bytes).
    AndI {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
        /// Immediate mask.
        imm: i32,
    },
    /// Register–immediate XOR (7 bytes).
    XorI {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
        /// Immediate operand.
        imm: i32,
    },
    /// Register–immediate multiply (7 bytes).
    MulI {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
        /// Immediate multiplicand.
        imm: i32,
    },
    /// Load a 64-bit immediate into a register (10 bytes).
    Li {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// Register move (3 bytes).
    Mov {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// Three-register floating-point operation (4 bytes).
    Fpu {
        /// Operation selector.
        op: FpuOp,
        /// Destination register.
        fd: FReg,
        /// First source register.
        fs1: FReg,
        /// Second source register.
        fs2: FReg,
    },
    /// Floating-point register move (3 bytes).
    FMov {
        /// Destination register.
        fd: FReg,
        /// Source register.
        fs: FReg,
    },
    /// Convert integer to floating point (3 bytes).
    CvtIF {
        /// Destination FP register.
        fd: FReg,
        /// Source integer register.
        rs: Reg,
    },
    /// Convert floating point to integer (3 bytes).
    CvtFI {
        /// Destination integer register.
        rd: Reg,
        /// Source FP register.
        fs: FReg,
    },
    /// 64-bit load: `rd = mem[rbase + off]` (7 bytes).
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rbase: Reg,
        /// Signed byte offset.
        off: i32,
    },
    /// 64-bit store: `mem[rbase + off] = rs` (7 bytes).
    Store {
        /// Source (value) register.
        rs: Reg,
        /// Base address register.
        rbase: Reg,
        /// Signed byte offset.
        off: i32,
    },
    /// 64-bit FP load (7 bytes).
    LoadF {
        /// Destination FP register.
        fd: FReg,
        /// Base address register.
        rbase: Reg,
        /// Signed byte offset.
        off: i32,
    },
    /// 64-bit FP store (7 bytes).
    StoreF {
        /// Source FP register.
        fs: FReg,
        /// Base address register.
        rbase: Reg,
        /// Signed byte offset.
        off: i32,
    },
    /// PC-relative conditional branch (8 bytes). Terminates a basic block.
    Branch {
        /// Condition to test.
        cond: BranchCond,
        /// First comparison operand.
        rs1: Reg,
        /// Second comparison operand.
        rs2: Reg,
        /// Displacement from the next instruction when taken.
        disp: i32,
    },
    /// PC-relative unconditional jump (6 bytes). Terminates a basic block.
    Jmp {
        /// Displacement from the next instruction.
        disp: i32,
    },
    /// PC-relative direct call (6 bytes). Pushes the return address at
    /// `[sp - 8]` and decrements `sp`. Terminates a basic block.
    Call {
        /// Displacement from the next instruction.
        disp: i32,
    },
    /// Computed (register-indirect) jump (2 bytes). Terminates a basic
    /// block; its target is validated explicitly by REV.
    JmpInd {
        /// Register holding the target address.
        rt: Reg,
    },
    /// Computed (register-indirect) call (2 bytes). Pushes the return
    /// address like [`Instruction::Call`]. Terminates a basic block; its
    /// target is validated explicitly by REV.
    CallInd {
        /// Register holding the target address.
        rt: Reg,
    },
    /// Return (1 byte): pops the return address from `[sp]`, increments
    /// `sp`. Terminates a basic block; validated by REV's delayed return
    /// validation (paper Sec. V.A).
    Ret,
    /// System call (3 bytes). Terminates a basic block.
    Syscall {
        /// Service number.
        num: u16,
    },
}

/// Broad execution class of an instruction, used by the pipeline model to
/// pick functional units and latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Simple integer ALU operation.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Floating-point add/sub/mul/mov/convert.
    Fp,
    /// Floating-point divide (long latency, unpipelined).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    CondBranch,
    /// Direct unconditional jump.
    Jump,
    /// Direct call (also performs a store of the return address).
    CallDirect,
    /// Computed jump.
    JumpIndirect,
    /// Computed call (also performs a store of the return address).
    CallIndirect,
    /// Return (also performs a load of the return address).
    Return,
    /// System call.
    Syscall,
    /// No-op / halt.
    Other,
}

// Opcode byte assignments. Grouped so unknown bytes are dense and easy to
// reject.
const OP_NOP: u8 = 0x00;
const OP_HALT: u8 = 0x01;
const OP_RET: u8 = 0x02;
const OP_ALU_BASE: u8 = 0x10; // 0x10..=0x18 indexed by AluOp::code
const OP_ADDI: u8 = 0x20;
const OP_ANDI: u8 = 0x21;
const OP_XORI: u8 = 0x22;
const OP_MULI: u8 = 0x23;
const OP_LI: u8 = 0x24;
const OP_MOV: u8 = 0x25;
const OP_FPU_BASE: u8 = 0x30; // 0x30..=0x33 indexed by FpuOp::code
const OP_FMOV: u8 = 0x34;
const OP_CVTIF: u8 = 0x35;
const OP_CVTFI: u8 = 0x36;
const OP_LOAD: u8 = 0x40;
const OP_STORE: u8 = 0x41;
const OP_LOADF: u8 = 0x42;
const OP_STOREF: u8 = 0x43;
const OP_BRANCH_BASE: u8 = 0x50; // 0x50..=0x55 indexed by BranchCond::code
const OP_JMP: u8 = 0x60;
const OP_CALL: u8 = 0x61;
const OP_JMPIND: u8 = 0x62;
const OP_CALLIND: u8 = 0x63;
const OP_SYSCALL: u8 = 0x70;

impl Instruction {
    /// Encodes the instruction into its byte representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MAX_INSTR_LEN);
        self.encode_into(&mut out);
        out
    }

    /// Appends the instruction's byte encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            Instruction::Nop => out.push(OP_NOP),
            Instruction::Halt => out.push(OP_HALT),
            Instruction::Ret => out.push(OP_RET),
            Instruction::Alu { op, rd, rs1, rs2 } => {
                out.extend_from_slice(&[
                    OP_ALU_BASE + op.code(),
                    rd.into(),
                    rs1.into(),
                    rs2.into(),
                ]);
            }
            Instruction::AddI { rd, rs, imm } => enc_ri(out, OP_ADDI, rd, rs, imm),
            Instruction::AndI { rd, rs, imm } => enc_ri(out, OP_ANDI, rd, rs, imm),
            Instruction::XorI { rd, rs, imm } => enc_ri(out, OP_XORI, rd, rs, imm),
            Instruction::MulI { rd, rs, imm } => enc_ri(out, OP_MULI, rd, rs, imm),
            Instruction::Li { rd, imm } => {
                out.push(OP_LI);
                out.push(rd.into());
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Instruction::Mov { rd, rs } => out.extend_from_slice(&[OP_MOV, rd.into(), rs.into()]),
            Instruction::Fpu { op, fd, fs1, fs2 } => {
                out.extend_from_slice(&[
                    OP_FPU_BASE + op.code(),
                    fd.into(),
                    fs1.into(),
                    fs2.into(),
                ]);
            }
            Instruction::FMov { fd, fs } => out.extend_from_slice(&[OP_FMOV, fd.into(), fs.into()]),
            Instruction::CvtIF { fd, rs } => {
                out.extend_from_slice(&[OP_CVTIF, fd.into(), rs.into()])
            }
            Instruction::CvtFI { rd, fs } => {
                out.extend_from_slice(&[OP_CVTFI, rd.into(), fs.into()])
            }
            Instruction::Load { rd, rbase, off } => enc_mem(out, OP_LOAD, rd.into(), rbase, off),
            Instruction::Store { rs, rbase, off } => enc_mem(out, OP_STORE, rs.into(), rbase, off),
            Instruction::LoadF { fd, rbase, off } => enc_mem(out, OP_LOADF, fd.into(), rbase, off),
            Instruction::StoreF { fs, rbase, off } => {
                enc_mem(out, OP_STOREF, fs.into(), rbase, off)
            }
            Instruction::Branch { cond, rs1, rs2, disp } => {
                out.push(OP_BRANCH_BASE + cond.code());
                out.push(rs1.into());
                out.push(rs2.into());
                out.extend_from_slice(&disp.to_le_bytes());
                out.push(0); // pad to 8 bytes so branches are distinctive in the byte stream
            }
            Instruction::Jmp { disp } => {
                out.push(OP_JMP);
                out.extend_from_slice(&disp.to_le_bytes());
                out.push(0);
            }
            Instruction::Call { disp } => {
                out.push(OP_CALL);
                out.extend_from_slice(&disp.to_le_bytes());
                out.push(0);
            }
            Instruction::JmpInd { rt } => out.extend_from_slice(&[OP_JMPIND, rt.into()]),
            Instruction::CallInd { rt } => out.extend_from_slice(&[OP_CALLIND, rt.into()]),
            Instruction::Syscall { num } => {
                out.push(OP_SYSCALL);
                out.extend_from_slice(&num.to_le_bytes());
            }
        }
    }

    /// Returns the instruction's execution class.
    #[inline]
    pub fn class(&self) -> InstrClass {
        match self {
            Instruction::Nop | Instruction::Halt => InstrClass::Other,
            Instruction::Alu { op: AluOp::Mul, .. } | Instruction::MulI { .. } => {
                InstrClass::IntMul
            }
            Instruction::Alu { .. }
            | Instruction::AddI { .. }
            | Instruction::AndI { .. }
            | Instruction::XorI { .. }
            | Instruction::Li { .. }
            | Instruction::Mov { .. } => InstrClass::IntAlu,
            Instruction::Fpu { op: FpuOp::Div, .. } => InstrClass::FpDiv,
            Instruction::Fpu { .. }
            | Instruction::FMov { .. }
            | Instruction::CvtIF { .. }
            | Instruction::CvtFI { .. } => InstrClass::Fp,
            Instruction::Load { .. } | Instruction::LoadF { .. } => InstrClass::Load,
            Instruction::Store { .. } | Instruction::StoreF { .. } => InstrClass::Store,
            Instruction::Branch { .. } => InstrClass::CondBranch,
            Instruction::Jmp { .. } => InstrClass::Jump,
            Instruction::Call { .. } => InstrClass::CallDirect,
            Instruction::JmpInd { .. } => InstrClass::JumpIndirect,
            Instruction::CallInd { .. } => InstrClass::CallIndirect,
            Instruction::Ret => InstrClass::Return,
            Instruction::Syscall { .. } => InstrClass::Syscall,
        }
    }

    /// Returns `true` if this instruction terminates a basic block.
    ///
    /// These are the instructions at whose commit REV performs the
    /// signature-cache authentication check (paper Sec. IV.A: "a branch,
    /// jump, return, exit etc.").
    #[inline]
    pub fn is_bb_terminator(&self) -> bool {
        matches!(
            self.class(),
            InstrClass::CondBranch
                | InstrClass::Jump
                | InstrClass::CallDirect
                | InstrClass::JumpIndirect
                | InstrClass::CallIndirect
                | InstrClass::Return
                | InstrClass::Syscall
        ) || matches!(self, Instruction::Halt)
    }

    /// Returns `true` for control-flow instructions whose target is computed
    /// at run time (computed jumps/calls and returns) — the cases whose
    /// targets REV validates explicitly against the reference signature.
    #[inline]
    pub fn has_computed_target(&self) -> bool {
        matches!(
            self.class(),
            InstrClass::JumpIndirect | InstrClass::CallIndirect | InstrClass::Return
        )
    }

    /// Returns `true` if this instruction writes memory (stores; calls push
    /// the return address).
    pub fn writes_memory(&self) -> bool {
        matches!(
            self.class(),
            InstrClass::Store | InstrClass::CallDirect | InstrClass::CallIndirect
        )
    }

    /// Returns `true` if this instruction reads memory (loads; returns pop
    /// the return address).
    pub fn reads_memory(&self) -> bool {
        matches!(self.class(), InstrClass::Load | InstrClass::Return)
    }
}

#[inline]
fn enc_ri(out: &mut Vec<u8>, op: u8, rd: Reg, rs: Reg, imm: i32) {
    out.push(op);
    out.push(rd.into());
    out.push(rs.into());
    out.extend_from_slice(&imm.to_le_bytes());
}

#[inline]
fn enc_mem(out: &mut Vec<u8>, op: u8, r: u8, rbase: Reg, off: i32) {
    out.push(op);
    out.push(r);
    out.push(rbase.into());
    out.extend_from_slice(&off.to_le_bytes());
}

/// Returns the encoded length in bytes of an instruction without encoding it.
pub fn encoded_len(insn: &Instruction) -> usize {
    match insn {
        Instruction::Nop | Instruction::Halt | Instruction::Ret => 1,
        Instruction::JmpInd { .. } | Instruction::CallInd { .. } => 2,
        Instruction::Mov { .. }
        | Instruction::FMov { .. }
        | Instruction::CvtIF { .. }
        | Instruction::CvtFI { .. }
        | Instruction::Syscall { .. } => 3,
        Instruction::Alu { .. } | Instruction::Fpu { .. } => 4,
        Instruction::Jmp { .. } | Instruction::Call { .. } => 6,
        Instruction::AddI { .. }
        | Instruction::AndI { .. }
        | Instruction::XorI { .. }
        | Instruction::MulI { .. }
        | Instruction::Load { .. }
        | Instruction::Store { .. }
        | Instruction::LoadF { .. }
        | Instruction::StoreF { .. } => 7,
        Instruction::Branch { .. } => 8,
        Instruction::Li { .. } => 10,
    }
}

/// Error returned when a byte sequence cannot be decoded as an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode byte is not assigned to any instruction.
    UnknownOpcode(u8),
    /// A register field held an out-of-range index.
    InvalidRegister(u8),
    /// The byte stream ended before the instruction's operands.
    Truncated,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode byte {op:#04x}"),
            DecodeError::InvalidRegister(r) => write!(f, "invalid register index {r}"),
            DecodeError::Truncated => write!(f, "instruction truncated"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes one instruction from the start of `bytes`.
///
/// Returns the instruction and its encoded length.
///
/// # Errors
///
/// Returns [`DecodeError`] if the opcode is unknown, a register index is out
/// of range, or `bytes` is shorter than the instruction's encoding.
pub fn decode(bytes: &[u8]) -> Result<(Instruction, usize), DecodeError> {
    let op = *bytes.first().ok_or(DecodeError::Truncated)?;
    let reg = |i: usize| -> Result<Reg, DecodeError> {
        let b = *bytes.get(i).ok_or(DecodeError::Truncated)?;
        Reg::from_index(b).ok_or(DecodeError::InvalidRegister(b))
    };
    let freg = |i: usize| -> Result<FReg, DecodeError> {
        let b = *bytes.get(i).ok_or(DecodeError::Truncated)?;
        FReg::from_index(b).ok_or(DecodeError::InvalidRegister(b))
    };
    let i32_at = |i: usize| -> Result<i32, DecodeError> {
        let s = bytes.get(i..i + 4).ok_or(DecodeError::Truncated)?;
        Ok(i32::from_le_bytes(s.try_into().expect("4-byte slice")))
    };

    let (insn, len) = match op {
        OP_NOP => (Instruction::Nop, 1),
        OP_HALT => (Instruction::Halt, 1),
        OP_RET => (Instruction::Ret, 1),
        o if (OP_ALU_BASE..OP_ALU_BASE + 9).contains(&o) => {
            let aop = AluOp::from_code(o - OP_ALU_BASE).expect("range checked");
            (Instruction::Alu { op: aop, rd: reg(1)?, rs1: reg(2)?, rs2: reg(3)? }, 4)
        }
        OP_ADDI => (Instruction::AddI { rd: reg(1)?, rs: reg(2)?, imm: i32_at(3)? }, 7),
        OP_ANDI => (Instruction::AndI { rd: reg(1)?, rs: reg(2)?, imm: i32_at(3)? }, 7),
        OP_XORI => (Instruction::XorI { rd: reg(1)?, rs: reg(2)?, imm: i32_at(3)? }, 7),
        OP_MULI => (Instruction::MulI { rd: reg(1)?, rs: reg(2)?, imm: i32_at(3)? }, 7),
        OP_LI => {
            let s = bytes.get(2..10).ok_or(DecodeError::Truncated)?;
            (Instruction::Li { rd: reg(1)?, imm: u64::from_le_bytes(s.try_into().expect("8")) }, 10)
        }
        OP_MOV => (Instruction::Mov { rd: reg(1)?, rs: reg(2)? }, 3),
        o if (OP_FPU_BASE..OP_FPU_BASE + 4).contains(&o) => {
            let fop = FpuOp::from_code(o - OP_FPU_BASE).expect("range checked");
            (Instruction::Fpu { op: fop, fd: freg(1)?, fs1: freg(2)?, fs2: freg(3)? }, 4)
        }
        OP_FMOV => (Instruction::FMov { fd: freg(1)?, fs: freg(2)? }, 3),
        OP_CVTIF => (Instruction::CvtIF { fd: freg(1)?, rs: reg(2)? }, 3),
        OP_CVTFI => (Instruction::CvtFI { rd: reg(1)?, fs: freg(2)? }, 3),
        OP_LOAD => (Instruction::Load { rd: reg(1)?, rbase: reg(2)?, off: i32_at(3)? }, 7),
        OP_STORE => (Instruction::Store { rs: reg(1)?, rbase: reg(2)?, off: i32_at(3)? }, 7),
        OP_LOADF => (Instruction::LoadF { fd: freg(1)?, rbase: reg(2)?, off: i32_at(3)? }, 7),
        OP_STOREF => (Instruction::StoreF { fs: freg(1)?, rbase: reg(2)?, off: i32_at(3)? }, 7),
        o if (OP_BRANCH_BASE..OP_BRANCH_BASE + 6).contains(&o) => {
            let cond = BranchCond::from_code(o - OP_BRANCH_BASE).expect("range checked");
            if bytes.len() < 8 {
                return Err(DecodeError::Truncated);
            }
            (Instruction::Branch { cond, rs1: reg(1)?, rs2: reg(2)?, disp: i32_at(3)? }, 8)
        }
        OP_JMP => {
            if bytes.len() < 6 {
                return Err(DecodeError::Truncated);
            }
            (Instruction::Jmp { disp: i32_at(1)? }, 6)
        }
        OP_CALL => {
            if bytes.len() < 6 {
                return Err(DecodeError::Truncated);
            }
            (Instruction::Call { disp: i32_at(1)? }, 6)
        }
        OP_JMPIND => (Instruction::JmpInd { rt: reg(1)? }, 2),
        OP_CALLIND => (Instruction::CallInd { rt: reg(1)? }, 2),
        OP_SYSCALL => {
            let s = bytes.get(1..3).ok_or(DecodeError::Truncated)?;
            (Instruction::Syscall { num: u16::from_le_bytes(s.try_into().expect("2")) }, 3)
        }
        other => return Err(DecodeError::UnknownOpcode(other)),
    };
    Ok((insn, len))
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Nop => write!(f, "nop"),
            Instruction::Halt => write!(f, "halt"),
            Instruction::Ret => write!(f, "ret"),
            Instruction::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", format!("{op:?}").to_lowercase())
            }
            Instruction::AddI { rd, rs, imm } => write!(f, "addi {rd}, {rs}, {imm}"),
            Instruction::AndI { rd, rs, imm } => write!(f, "andi {rd}, {rs}, {imm:#x}"),
            Instruction::XorI { rd, rs, imm } => write!(f, "xori {rd}, {rs}, {imm:#x}"),
            Instruction::MulI { rd, rs, imm } => write!(f, "muli {rd}, {rs}, {imm}"),
            Instruction::Li { rd, imm } => write!(f, "li {rd}, {imm:#x}"),
            Instruction::Mov { rd, rs } => write!(f, "mov {rd}, {rs}"),
            Instruction::Fpu { op, fd, fs1, fs2 } => {
                write!(f, "f{} {fd}, {fs1}, {fs2}", format!("{op:?}").to_lowercase())
            }
            Instruction::FMov { fd, fs } => write!(f, "fmov {fd}, {fs}"),
            Instruction::CvtIF { fd, rs } => write!(f, "cvtif {fd}, {rs}"),
            Instruction::CvtFI { rd, fs } => write!(f, "cvtfi {rd}, {fs}"),
            Instruction::Load { rd, rbase, off } => write!(f, "ld {rd}, {off}({rbase})"),
            Instruction::Store { rs, rbase, off } => write!(f, "st {rs}, {off}({rbase})"),
            Instruction::LoadF { fd, rbase, off } => write!(f, "fld {fd}, {off}({rbase})"),
            Instruction::StoreF { fs, rbase, off } => write!(f, "fst {fs}, {off}({rbase})"),
            Instruction::Branch { cond, rs1, rs2, disp } => {
                write!(f, "b{} {rs1}, {rs2}, {disp:+}", format!("{cond:?}").to_lowercase())
            }
            Instruction::Jmp { disp } => write!(f, "jmp {disp:+}"),
            Instruction::Call { disp } => write!(f, "call {disp:+}"),
            Instruction::JmpInd { rt } => write!(f, "jmp *{rt}"),
            Instruction::CallInd { rt } => write!(f, "call *{rt}"),
            Instruction::Syscall { num } => write!(f, "syscall {num}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Reg, REG_SP};

    fn sample_instructions() -> Vec<Instruction> {
        vec![
            Instruction::Nop,
            Instruction::Halt,
            Instruction::Ret,
            Instruction::Alu { op: AluOp::Add, rd: Reg::R1, rs1: Reg::R2, rs2: Reg::R3 },
            Instruction::Alu { op: AluOp::Slt, rd: Reg::R31, rs1: Reg::R0, rs2: Reg::R15 },
            Instruction::AddI { rd: Reg::R4, rs: Reg::R4, imm: -8 },
            Instruction::AndI { rd: Reg::R5, rs: Reg::R27, imm: 0xff },
            Instruction::XorI { rd: Reg::R6, rs: Reg::R6, imm: i32::MIN },
            Instruction::MulI { rd: Reg::R7, rs: Reg::R7, imm: 6364136 },
            Instruction::Li { rd: Reg::R8, imm: u64::MAX },
            Instruction::Mov { rd: Reg::R9, rs: Reg::R10 },
            Instruction::Fpu { op: FpuOp::Div, fd: FReg::F1, fs1: FReg::F2, fs2: FReg::F3 },
            Instruction::FMov { fd: FReg::F4, fs: FReg::F5 },
            Instruction::CvtIF { fd: FReg::F6, rs: Reg::R11 },
            Instruction::CvtFI { rd: Reg::R12, fs: FReg::F7 },
            Instruction::Load { rd: Reg::R13, rbase: REG_SP, off: 16 },
            Instruction::Store { rs: Reg::R14, rbase: REG_SP, off: -24 },
            Instruction::LoadF { fd: FReg::F8, rbase: Reg::R15, off: 0 },
            Instruction::StoreF { fs: FReg::F9, rbase: Reg::R16, off: 8 },
            Instruction::Branch { cond: BranchCond::Ne, rs1: Reg::R1, rs2: Reg::R0, disp: -128 },
            Instruction::Jmp { disp: 1024 },
            Instruction::Call { disp: -4096 },
            Instruction::JmpInd { rt: Reg::R17 },
            Instruction::CallInd { rt: Reg::R18 },
            Instruction::Syscall { num: 60 },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for insn in sample_instructions() {
            let bytes = insn.encode();
            assert_eq!(bytes.len(), encoded_len(&insn), "length mismatch for {insn}");
            let (back, len) = decode(&bytes).expect("decodes");
            assert_eq!(back, insn);
            assert_eq!(len, bytes.len());
        }
    }

    #[test]
    fn decode_with_trailing_bytes_uses_only_prefix() {
        let insn = Instruction::Mov { rd: Reg::R1, rs: Reg::R2 };
        let mut bytes = insn.encode();
        bytes.extend_from_slice(&[0xaa, 0xbb, 0xcc]);
        let (back, len) = decode(&bytes).unwrap();
        assert_eq!(back, insn);
        assert_eq!(len, 3);
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert_eq!(decode(&[0xff, 0, 0, 0]), Err(DecodeError::UnknownOpcode(0xff)));
        assert_eq!(decode(&[0x80]), Err(DecodeError::UnknownOpcode(0x80)));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
        let insn = Instruction::Li { rd: Reg::R1, imm: 7 };
        let bytes = insn.encode();
        for cut in 1..bytes.len() {
            assert_eq!(decode(&bytes[..cut]), Err(DecodeError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn invalid_register_rejected() {
        // Mov with register index 99.
        assert_eq!(decode(&[0x25, 99, 0]), Err(DecodeError::InvalidRegister(99)));
    }

    #[test]
    fn terminator_classification() {
        assert!(Instruction::Ret.is_bb_terminator());
        assert!(Instruction::Halt.is_bb_terminator());
        assert!(Instruction::Syscall { num: 0 }.is_bb_terminator());
        assert!(Instruction::Jmp { disp: 0 }.is_bb_terminator());
        assert!(Instruction::Branch { cond: BranchCond::Eq, rs1: Reg::R0, rs2: Reg::R0, disp: 0 }
            .is_bb_terminator());
        assert!(!Instruction::Nop.is_bb_terminator());
        assert!(!Instruction::Load { rd: Reg::R1, rbase: Reg::R2, off: 0 }.is_bb_terminator());
    }

    #[test]
    fn computed_target_classification() {
        assert!(Instruction::Ret.has_computed_target());
        assert!(Instruction::JmpInd { rt: Reg::R1 }.has_computed_target());
        assert!(Instruction::CallInd { rt: Reg::R1 }.has_computed_target());
        assert!(!Instruction::Jmp { disp: 4 }.has_computed_target());
        assert!(!Instruction::Call { disp: 4 }.has_computed_target());
    }

    #[test]
    fn memory_effects() {
        assert!(Instruction::Call { disp: 0 }.writes_memory());
        assert!(Instruction::CallInd { rt: Reg::R1 }.writes_memory());
        assert!(Instruction::Ret.reads_memory());
        assert!(Instruction::Store { rs: Reg::R1, rbase: Reg::R2, off: 0 }.writes_memory());
        assert!(!Instruction::Store { rs: Reg::R1, rbase: Reg::R2, off: 0 }.reads_memory());
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(!BranchCond::Ne.eval(5, 5));
        assert!(BranchCond::Lt.eval(u64::MAX, 0)); // -1 < 0 signed
        assert!(!BranchCond::Ltu.eval(u64::MAX, 0));
        assert!(BranchCond::Geu.eval(u64::MAX, 0));
        assert!(BranchCond::Ge.eval(0, u64::MAX)); // 0 >= -1 signed
    }

    #[test]
    fn alu_eval() {
        assert_eq!(AluOp::Add.eval(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.eval(0, 1), u64::MAX);
        assert_eq!(AluOp::Shl.eval(1, 65), 2); // shift masked to 6 bits
        assert_eq!(AluOp::Shr.eval(0x80, 4), 8);
        assert_eq!(AluOp::Slt.eval(u64::MAX, 0), 1);
        assert_eq!(AluOp::Slt.eval(0, u64::MAX), 0);
        assert_eq!(AluOp::Mul.eval(3, 5), 15);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn classes_are_stable() {
        assert_eq!(
            Instruction::MulI { rd: Reg::R1, rs: Reg::R1, imm: 3 }.class(),
            InstrClass::IntMul
        );
        assert_eq!(
            Instruction::Fpu { op: FpuOp::Div, fd: FReg::F0, fs1: FReg::F0, fs2: FReg::F0 }.class(),
            InstrClass::FpDiv
        );
        assert_eq!(Instruction::Ret.class(), InstrClass::Return);
    }

    #[test]
    fn opcode_space_is_dense_and_total() {
        // Every byte either decodes (with a fully valid payload) or is a
        // clean UnknownOpcode — no panics, no aliasing surprises.
        let mut known = 0;
        for op in 0u8..=255 {
            // Payload: all register fields 1, immediates small positive.
            let bytes = [op, 1, 1, 1, 1, 0, 0, 0, 0, 0];
            match decode(&bytes) {
                Ok((insn, len)) => {
                    known += 1;
                    assert!(len <= MAX_INSTR_LEN);
                    // Re-encoding must produce the same opcode byte.
                    assert_eq!(insn.encode()[0], op, "opcode {op:#04x} not stable");
                }
                Err(DecodeError::UnknownOpcode(b)) => assert_eq!(b, op),
                Err(other) => panic!("opcode {op:#04x}: unexpected error {other:?}"),
            }
        }
        // 3 singles + 9 ALU + 4 RI + li + mov + 4 FPU + 3 FP-moves
        // + 4 mem + 6 branches + 4 jumps/calls + syscall = 40.
        assert_eq!(known, 40, "opcode population changed — update the ISA docs");
    }

    #[test]
    fn display_formats() {
        let insn =
            Instruction::Branch { cond: BranchCond::Lt, rs1: Reg::R1, rs2: Reg::R2, disp: -4 };
        assert_eq!(insn.to_string(), "blt r1, r2, -4");
        assert_eq!(Instruction::JmpInd { rt: Reg::R5 }.to_string(), "jmp *r5");
    }
}
