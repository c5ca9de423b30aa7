//! Executable modules: named, independently keyed units of code + data.
//!
//! Each module corresponds to the paper's notion of an independently
//! compiled/linked component (main executable, shared library, kernel
//! module, …) with "its own encrypted signature table" (Sec. IV.B). The
//! SAG's base/limit/key register triples switch between modules at run time.

use rev_isa::{decode, DecodeError, Instruction};
use std::collections::BTreeMap;
use std::fmt;

/// A function's extent within a module, recorded by the builder so the
/// static analyzer can compute return-site sets per function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Function {
    /// Human-readable name.
    pub name: String,
    /// Address of the first instruction.
    pub entry: u64,
    /// Address one past the last byte of the function.
    pub end: u64,
}

impl Function {
    /// Returns `true` if `addr` lies inside this function's extent.
    pub fn contains(&self, addr: u64) -> bool {
        (self.entry..self.end).contains(&addr)
    }
}

/// An assembled executable module. `Hash` covers every field, so the
/// build cache in `rev-core` can key a module's analysis by content.
#[derive(Debug, Clone, Hash)]
pub struct Module {
    name: String,
    base: u64,
    code: Vec<u8>,
    data_base: u64,
    data: Vec<u8>,
    functions: Vec<Function>,
    /// Statically known target sets of computed jumps/calls, keyed by the
    /// address of the indirect control-flow instruction.
    indirect_targets: BTreeMap<u64, Vec<u64>>,
}

impl Module {
    pub(crate) fn from_parts(
        name: String,
        base: u64,
        code: Vec<u8>,
        data_base: u64,
        data: Vec<u8>,
        functions: Vec<Function>,
        indirect_targets: BTreeMap<u64, Vec<u64>>,
    ) -> Self {
        Module { name, base, code, data_base, data, functions, indirect_targets }
    }

    /// The module's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Load address of the first code byte.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Address one past the last code byte.
    pub fn code_end(&self) -> u64 {
        self.base + self.code.len() as u64
    }

    /// The raw code bytes.
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// Load address of the data section (jump tables, constants).
    pub fn data_base(&self) -> u64 {
        self.data_base
    }

    /// The raw data bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The functions recorded by the builder, in address order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// The function containing `addr`, if any.
    pub fn function_at(&self, addr: u64) -> Option<&Function> {
        self.functions.iter().find(|f| f.contains(addr))
    }

    /// Statically known targets of the computed jump/call at `addr`.
    pub fn indirect_targets(&self, addr: u64) -> Option<&[u64]> {
        self.indirect_targets.get(&addr).map(Vec::as_slice)
    }

    /// All recorded (indirect-instruction address → target set) pairs.
    pub fn all_indirect_targets(&self) -> impl Iterator<Item = (u64, &[u64])> {
        self.indirect_targets.iter().map(|(a, t)| (*a, t.as_slice()))
    }

    /// Merges indirect-branch targets discovered by profiling runs into
    /// the module's static target sets (the paper's Sec. IV.D fallback
    /// when static analysis cannot enumerate computed-branch targets).
    /// Duplicates are ignored; new addresses are appended.
    pub fn merge_indirect_targets<I>(&mut self, discovered: I)
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        for (src, target) in discovered {
            let entry = self.indirect_targets.entry(src).or_default();
            if !entry.contains(&target) {
                entry.push(target);
            }
        }
    }

    /// Returns `true` if `addr` lies within the module's code section
    /// (the SAG limit-register check).
    pub fn contains_code(&self, addr: u64) -> bool {
        (self.base..self.code_end()).contains(&addr)
    }

    /// Decodes the instruction starting at virtual address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if `addr` is outside the code section or the
    /// bytes at `addr` do not decode.
    pub fn decode_at(&self, addr: u64) -> Result<(Instruction, usize), DecodeError> {
        if !self.contains_code(addr) {
            return Err(DecodeError::Truncated);
        }
        let off = (addr - self.base) as usize;
        decode(&self.code[off..])
    }

    /// Iterates over `(address, instruction, encoded length)` by linear
    /// sweep from the module base. The builder emits a dense instruction
    /// stream, so linear disassembly is exact (we are the compiler — no
    /// data is interleaved with code).
    pub fn instructions(&self) -> InstructionIter<'_> {
        InstructionIter { module: self, addr: self.base }
    }

    /// Total code size in bytes (the denominator of the paper's
    /// signature-table-size-to-binary-size ratios).
    pub fn code_len(&self) -> usize {
        self.code.len()
    }
}

/// Iterator returned by [`Module::instructions`].
#[derive(Debug)]
pub struct InstructionIter<'a> {
    module: &'a Module,
    addr: u64,
}

impl Iterator for InstructionIter<'_> {
    type Item = Result<(u64, Instruction, usize), DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.addr >= self.module.code_end() {
            return None;
        }
        let addr = self.addr;
        match self.module.decode_at(addr) {
            Ok((insn, len)) => {
                self.addr += len as u64;
                Some(Ok((addr, insn, len)))
            }
            Err(e) => {
                self.addr = self.module.code_end(); // stop iteration after error
                Some(Err(e))
            }
        }
    }
}

// Display shows a short summary, not a full disassembly.
impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "module {} @ {:#x} ({} code bytes, {} functions)",
            self.name,
            self.base,
            self.code.len(),
            self.functions.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use rev_isa::Reg;

    fn demo_module() -> Module {
        let mut b = ModuleBuilder::new("demo", 0x4000);
        let f = b.begin_function("f");
        b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R0, imm: 5 });
        b.push(Instruction::Mov { rd: Reg::R2, rs: Reg::R1 });
        b.push(Instruction::Ret);
        b.end_function(f);
        b.finish().unwrap()
    }

    #[test]
    fn linear_sweep_decodes_everything() {
        let m = demo_module();
        let insns: Vec<_> = m.instructions().collect::<Result<_, _>>().unwrap();
        assert_eq!(insns.len(), 3);
        assert_eq!(insns[0].0, 0x4000);
        let total: usize = insns.iter().map(|(_, _, l)| l).sum();
        assert_eq!(total, m.code_len());
    }

    #[test]
    fn decode_at_outside_code_errors() {
        let m = demo_module();
        assert!(m.decode_at(0x1).is_err());
        assert!(m.decode_at(m.code_end()).is_err());
    }

    #[test]
    fn function_extent_lookup() {
        let m = demo_module();
        let f = m.function_at(0x4000).expect("function at entry");
        assert_eq!(f.name, "f");
        assert!(f.contains(m.code_end() - 1));
        assert!(m.function_at(m.code_end()).is_none());
    }

    #[test]
    fn contains_code_respects_bounds() {
        let m = demo_module();
        assert!(m.contains_code(m.base()));
        assert!(!m.contains_code(m.base() - 1));
        assert!(!m.contains_code(m.code_end()));
    }
}
