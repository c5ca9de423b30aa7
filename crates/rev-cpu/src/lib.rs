//! # rev-cpu — the out-of-order core under REV
//!
//! An execution-driven, cycle-level model of the paper's Table 2 machine:
//!
//! * 4-wide fetch/dispatch/issue/commit, 32-entry fetch queue,
//! * 128-entry ROB, 92-entry LSQ, 256-register unified physical file,
//! * 2 ALU + 2 FPU + 2 load + 2 store functional units,
//! * 32K-counter gshare + 4K-entry BTB + return address stack,
//! * a front-end depth of 16 cycles from fetch to earliest commit — the
//!   `S` that the CHG's hash latency `H` must not exceed (paper Sec. VI).
//!
//! Execution is **oracle-driven**: a functional engine ([`Oracle`]) steps
//! the program along the architecturally correct path; the timing model
//! fetches along the *predicted* path, so wrong-path instructions are
//! fetched (from the real memory image), occupy resources, pollute the
//! CHG/SC, and are squashed on branch resolution — the behaviors REV's
//! post-commit validation must tolerate (paper requirement R6).
//!
//! REV attaches through the [`ExecMonitor`] trait: the pipeline reports
//! fetched instructions (for CHG hashing, BB-boundary tracking, SC
//! prefetch), asks permission for BB-terminator commits (validation gate),
//! hands over committed stores (deferred-update containment) and reports
//! flushes. A [`NullMonitor`] yields the baseline machine.
//!
//! The simulator keeps one [`Memory`]: committed state, with the stores
//! the oracle has executed but the monitor has not yet released held in
//! an overlay in front of it.

mod bpred;
mod config;
mod memory;
mod monitor;
mod oracle;
mod pipeline;
mod stats;

pub use bpred::{BranchPredictor, PredictorConfig};
pub use config::CpuConfig;
pub use memory::{Memory, OverlayEntry, StoreOverlay, WindowWord};
pub use monitor::{
    CommitGate, CommitQuery, ExecMonitor, FetchEvent, NullMonitor, StoreCommit, Violation,
    ViolationKind,
};
pub use oracle::{ArchState, DynOp, Oracle, OracleError};
pub use pipeline::{Pipeline, RunOutcome, RunResult};
pub use stats::{CpuStats, InstrMix};
