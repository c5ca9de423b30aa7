//! # rev-core — the Run-time Execution Validator
//!
//! The paper's contribution, assembled: as a program runs on the
//! out-of-order core (`rev-cpu`), REV
//!
//! 1. hashes the instruction bytes of every dynamic basic block in the
//!    pipelined **CHG** as they are fetched (latency fully overlapped with
//!    the fetch→commit depth),
//! 2. probes the on-chip **signature cache (SC)** with the BB's address,
//!    filling it from the encrypted in-RAM signature table through the
//!    normal memory hierarchy on a miss (partial misses fetch only the
//!    missing successor/predecessor spill records),
//! 3. locates the module's table and key through the **SAG**'s
//!    base/limit/key register triples (cross-module calls switch tables),
//! 4. at commit of the block's terminating instruction, compares the
//!    generated hash + actual transfer target against the reference — on a
//!    mismatch an exception fires and, crucially,
//! 5. holds every committed store in a **post-commit deferral buffer**
//!    until its block validates, so compromised code can never taint
//!    memory (requirement R5).
//!
//! The top-level entry point is [`RevSimulator`]:
//!
//! ```
//! use rev_core::{RevSimulator, RevConfig};
//! use rev_prog::{ModuleBuilder, Program};
//! use rev_isa::{Instruction, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ModuleBuilder::new("demo", 0x1000);
//! b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R0, imm: 7 });
//! b.push(Instruction::Halt);
//! let mut pb = Program::builder();
//! pb.module(b.finish()?);
//! let program = pb.build();
//!
//! let mut sim = RevSimulator::new(program, RevConfig::paper_default())?;
//! let report = sim.run(1_000);
//! assert!(report.rev.violation.is_none());
//! # Ok(())
//! # }
//! ```

mod build;
mod config;
mod cost;
mod defer;
mod profile;
mod rev_monitor;
mod sag;
mod sc;
mod session;
mod shadow;
mod sim;
mod stats;

pub use build::{BuildCache, BuildCacheStats, BuiltTables, BUILD_CACHE_ENTRIES, CFG_ENTRIES};
pub use config::{Containment, RevConfig, RevConfigError};
pub use cost::{CostModel, CostReport};
pub use defer::{DeferredStore, DeferredStoreBuffer};
pub use profile::{profile_indirect_targets, IndirectProfile};
pub use rev_monitor::{DynBlockTriple, RevMonitor, SYSCALL_REV_DISABLE, SYSCALL_REV_ENABLE};
pub use sag::{Sag, SagEntry};
pub use sc::{ScEntry, ScProbe, ScStats, ScVariant, SignatureCache};
pub use session::{Session, SessionStatus};
pub use shadow::{ShadowMemory, ShadowStats};
pub use sim::{
    analyze_and_link, linked_tables, BaselineReport, RevReport, RevSimulator, SimBuildError,
    SimError,
};
pub use stats::RevStats;

// Re-export the pieces users need alongside the simulator.
pub use rev_cpu::{CpuConfig, RunOutcome, Violation, ViolationKind};
pub use rev_mem::MemConfig;
pub use rev_sigtable::ValidationMode;
