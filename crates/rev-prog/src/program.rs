//! Whole programs: a set of modules plus stack/heap layout, and the loader
//! view (flat segments) consumed by the memory system.

use crate::module::Module;
use std::fmt;

/// Default stack size for loaded programs (1 MiB).
pub const STACK_SIZE_DEFAULT: u64 = 1 << 20;

/// A contiguous memory region produced by the loader: its initial
/// bytes, then `zero_fill` bytes that read zero (like an ELF segment's
/// bss). The loader writes only `bytes`; memory never written reads
/// zero, so the zero-filled tail costs no page until a store touches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Base virtual address.
    pub addr: u64,
    /// Initial contents.
    pub bytes: Vec<u8>,
    /// Length of the zero-filled region after `bytes`.
    pub zero_fill: u64,
    /// Whether the program may write the region (code is read-only; attacks
    /// that inject code deliberately violate this, modeling a compromised
    /// page-protection setup — see `rev-attacks`).
    pub writable: bool,
}

impl Segment {
    /// Address one past the last byte, zero-filled tail included.
    pub fn end(&self) -> u64 {
        self.addr + self.bytes.len() as u64 + self.zero_fill
    }
}

/// A complete, linked program ready to load.
#[derive(Debug, Clone)]
pub struct Program {
    modules: Vec<Module>,
    entry: u64,
    stack_base: u64,
    stack_size: u64,
    extra: Vec<Segment>,
}

impl Program {
    /// Starts building a program.
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder::new()
    }

    /// The linked modules.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Entry-point address.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Initial stack pointer (the top of the stack region; the stack grows
    /// down).
    pub fn initial_sp(&self) -> u64 {
        self.stack_base + self.stack_size
    }

    /// Base address of the stack region.
    pub fn stack_base(&self) -> u64 {
        self.stack_base
    }

    /// The module whose code section contains `addr`, if any — the same
    /// question the SAG's limit registers answer in hardware.
    pub fn module_containing(&self, addr: u64) -> Option<&Module> {
        self.modules.iter().find(|m| m.contains_code(addr))
    }

    /// Flattens the program into loadable segments: per-module code
    /// (read-only) and data (writable), the zero-filled stack, and any
    /// extra segments.
    pub fn segments(&self) -> Vec<Segment> {
        let mut segs = Vec::new();
        for m in &self.modules {
            segs.push(Segment {
                addr: m.base(),
                bytes: m.code().to_vec(),
                zero_fill: 0,
                writable: false,
            });
            if !m.data().is_empty() {
                segs.push(Segment {
                    addr: m.data_base(),
                    bytes: m.data().to_vec(),
                    zero_fill: 0,
                    writable: true,
                });
            }
        }
        segs.push(Segment {
            addr: self.stack_base,
            bytes: Vec::new(),
            zero_fill: self.stack_size,
            writable: true,
        });
        segs.extend(self.extra.iter().cloned());
        segs
    }

    /// Total code bytes across modules.
    pub fn total_code_len(&self) -> usize {
        self.modules.iter().map(Module::code_len).sum()
    }

    /// Appends a module after construction — the dynamic-loading path
    /// (`dlopen`-style). The caller is responsible for choosing a base
    /// address that does not overlap existing segments.
    pub fn add_module(&mut self, module: Module) {
        self.modules.push(module);
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program: {} modules, entry {:#x}, {} code bytes",
            self.modules.len(),
            self.entry,
            self.total_code_len()
        )
    }
}

/// Builder for [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    modules: Vec<Module>,
    entry: Option<u64>,
    stack_base: Option<u64>,
    stack_size: u64,
    extra: Vec<Segment>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder { stack_size: STACK_SIZE_DEFAULT, ..Default::default() }
    }

    /// Adds a linked module.
    pub fn module(&mut self, module: Module) -> &mut Self {
        self.modules.push(module);
        self
    }

    /// Sets the entry point (defaults to the first module's base).
    pub fn entry(&mut self, entry: u64) -> &mut Self {
        self.entry = Some(entry);
        self
    }

    /// Places the stack explicitly (defaults to just past the highest
    /// loaded address, 4 KiB aligned, plus a guard gap).
    pub fn stack(&mut self, base: u64, size: u64) -> &mut Self {
        self.stack_base = Some(base);
        self.stack_size = size;
        self
    }

    /// Adds an extra writable segment (workload arrays, heap, …).
    pub fn segment(&mut self, addr: u64, bytes: Vec<u8>) -> &mut Self {
        self.extra.push(Segment { addr, bytes, zero_fill: 0, writable: true });
        self
    }

    /// Adds an extra zero-filled writable segment.
    pub fn zeroed_segment(&mut self, addr: u64, len: usize) -> &mut Self {
        self.extra.push(Segment { addr, bytes: Vec::new(), zero_fill: len as u64, writable: true });
        self
    }

    /// Finalizes the program.
    ///
    /// # Panics
    ///
    /// Panics if no modules were added.
    pub fn build(&mut self) -> Program {
        assert!(!self.modules.is_empty(), "a program needs at least one module");
        let entry = self.entry.unwrap_or_else(|| self.modules[0].base());
        let highest = self
            .modules
            .iter()
            .map(|m| m.data_base() + m.data().len() as u64)
            .chain(self.modules.iter().map(|m| m.code_end()))
            .chain(self.extra.iter().map(Segment::end))
            .max()
            .expect("non-empty");
        let stack_base = self.stack_base.unwrap_or_else(|| (highest + 0x1_0000) & !0xfff);
        Program {
            modules: std::mem::take(&mut self.modules),
            entry,
            stack_base,
            stack_size: self.stack_size,
            extra: std::mem::take(&mut self.extra),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use rev_isa::Instruction;

    fn tiny_module(name: &str, base: u64) -> Module {
        let mut b = ModuleBuilder::new(name, base);
        b.push(Instruction::Nop);
        b.push(Instruction::Halt);
        b.finish().unwrap()
    }

    #[test]
    fn segments_cover_code_data_stack() {
        let mut pb = Program::builder();
        pb.module(tiny_module("a", 0x1000));
        pb.zeroed_segment(0x9000, 64);
        let p = pb.build();
        let segs = p.segments();
        assert!(segs.iter().any(|s| s.addr == 0x1000 && !s.writable));
        assert!(segs.iter().any(|s| s.addr == 0x9000 && s.writable));
        assert!(segs.iter().any(|s| s.addr == p.stack_base() && s.writable));
        assert_eq!(p.initial_sp(), p.stack_base() + STACK_SIZE_DEFAULT);
    }

    #[test]
    fn entry_defaults_to_first_module() {
        let mut pb = Program::builder();
        pb.module(tiny_module("a", 0x4000));
        let p = pb.build();
        assert_eq!(p.entry(), 0x4000);
    }

    #[test]
    fn module_containing_resolves_by_code_range() {
        let mut pb = Program::builder();
        pb.module(tiny_module("a", 0x1000));
        pb.module(tiny_module("b", 0x8000));
        let p = pb.build();
        assert_eq!(p.module_containing(0x1001).unwrap().name(), "a");
        assert_eq!(p.module_containing(0x8000).unwrap().name(), "b");
        assert!(p.module_containing(0x5000).is_none());
    }

    #[test]
    fn stack_avoids_loaded_segments() {
        let mut pb = Program::builder();
        pb.module(tiny_module("a", 0x1000));
        pb.zeroed_segment(0x2_0000, 4096);
        let p = pb.build();
        assert!(p.stack_base() >= 0x2_0000 + 4096);
    }

    #[test]
    #[should_panic(expected = "at least one module")]
    fn empty_program_rejected() {
        Program::builder().build();
    }
}
