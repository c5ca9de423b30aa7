//! # rev-lint — static whole-program verification for REV
//!
//! REV validates executions against signature tables emitted by a trusted
//! toolchain. That trust is only as good as the table generator: a table
//! that misses a reachable block, disagrees with the splitting rule, or
//! maps an address to the wrong module turns a *correct* run into a
//! violation (or worse, fails open). `rev-lint` is the static analysis
//! pass that audits a guest [`rev_prog::Program`] together with its built
//! [`rev_sigtable::SignatureTable`]s before anything is simulated.
//!
//! The checks, grouped by lint-code family:
//!
//! - **Coverage (REV-L00x)** — every statically reachable basic block has
//!   a digest-matching table entry; orphan and duplicate entries flagged.
//! - **Splitting (REV-L01x)** — the artificial split rule
//!   ([`rev_prog::BbLimits`]) re-derived and diffed against the CFG.
//! - **SAG sanity (REV-L02x)** — overlapping base/limit ranges, tables
//!   resolving to no module, modules without tables, unreachable modules.
//! - **Indirect flow (REV-L03x)** — indirect branches with empty target
//!   sets or targets escaping every module.
//! - **Returns (REV-L04x)** — delayed return validation needs the
//!   return-site block's predecessor linkage; missing sites flagged.
//! - **Memory hazards (REV-L05x)** — code mapped in writable segments
//!   (self-modifying / overlapping code defeats hash binding).
//! - **Differential oracle (REV-L06x)** — runs the program on the
//!   simulated core and asserts every dynamically discovered
//!   (leader, terminator, hash) triple was statically predicted.
//! - **Decode (REV-L07x)** — entry chains that fail to parse.
//! - **Security audit (REV-A1xx)** — the [`audit`] module's
//!   protection-coverage matrix, digest-collision classes and
//!   detection-latency bounds per validation mode, cross-checked by the
//!   dynamic oracle in `rev-chaos` (violations are REV-A000).
//!
//! Diagnostics are structured ([`Diagnostic`]) and render as human text or
//! JSON. The severity gate ([`Report::passes_gate`]) fails on any `error`;
//! bench drivers consult it via `--preflight`.

pub mod audit;
pub mod diag;
pub mod lint;
pub mod oracle;

pub use audit::{
    audit_linked, audit_program, AuditOutcome, CollisionStats, CoverageMatrix, LatencyBounds,
    ModeAudit, AUDIT_MODES,
};
pub use diag::{Diagnostic, Lint, Report, Severity};
pub use lint::{lint_build, lint_linked, lint_tables};
pub use oracle::{run_oracle, static_triples, OracleOutcome};
