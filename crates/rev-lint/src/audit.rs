//! `rev-audit` — static protection-coverage and detection-latency bound
//! analysis over the CFG + built signature tables (the `REV-A` family).
//!
//! Where the `REV-L` lints ask *"is the table consistent with the
//! program?"*, the audit asks the paper's security questions and answers
//! them statically, per validation mode:
//!
//! 1. **Digest-collision classes** — equivalence classes of table
//!    entries the validator cannot tell apart (standard mode: truncated
//!    digest + bound successor; aggressive mode additionally the 16-bit
//!    BB tag; CFI-only mode: the 12-bit source tag). Entries sharing a
//!    class are interchangeable to an attacker.
//! 2. **Per-edge protection classification** — every static CFG edge is
//!    labelled with the checks guarding it (body hash, target check,
//!    return latch, store containment) under each mode, yielding the
//!    per-profile × per-mode coverage matrix behind Table 1's claims.
//! 3. **Worst-case detection-latency bounds** — a static upper bound, in
//!    committed instructions, between a fault striking a block's
//!    validation state and the kill verdict, from the in-flight window
//!    (ROB), the block's own commit run, and return-latch deferral.
//!
//! Every quantity is closed dynamically by the differential oracle in
//! `rev-chaos` (chaos-measured latencies must stay ≤ the bound; attack
//! outcomes must match the coverage prediction), whose violations
//! surface as `REV-A000`.

use crate::diag::{Diagnostic, Lint, Report};
use rev_core::{BuildCache, CpuConfig, RevConfig};
use rev_prog::{BlockInfo, Cfg, Program, TermKind};
use rev_sigtable::{RawEntry, SignatureTable, ValidationMode};
use rev_trace::MetricRegistry;
use std::collections::BTreeMap;

/// How many collision-class findings to report per module before folding
/// the remainder into one summarizing diagnostic.
const PER_AUDIT_CAP: usize = 8;

/// Guard-set bit flags for [`CoverageMatrix`] edge classification.
pub mod guard {
    /// The source block's bytes are hashed by the CHG and bound into a
    /// keyed digest — any byte (including an embedded static target)
    /// that changes kills the block at commit.
    pub const BODY_HASH: u8 = 1 << 0;
    /// The taken target is compared against the entry's bound successor
    /// set at commit (gate 4).
    pub const TARGET_CHECK: u8 = 1 << 1;
    /// The return target is validated one block late through the return
    /// latch against the successor block's predecessor set (gate 5).
    pub const RETURN_LATCH: u8 = 1 << 2;
    /// Stores from the source block are quarantined (deferred-store
    /// buffer or shadow pages) until the block validates.
    pub const STORE_CONTAIN: u8 = 1 << 3;
}

/// The audited modes, in report order.
pub const AUDIT_MODES: [ValidationMode; 3] =
    [ValidationMode::Standard, ValidationMode::Aggressive, ValidationMode::CfiOnly];

/// Short metric-namespace label for a mode (`audit.{label}.*`).
pub fn mode_label(mode: ValidationMode) -> &'static str {
    match mode {
        ValidationMode::Standard => "std",
        ValidationMode::Aggressive => "aggr",
        ValidationMode::CfiOnly => "cfi",
    }
}

/// Per-mode protection-coverage matrix: how many static CFG edges each
/// check class guards, and how many no check guards at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageMatrix {
    /// Total static CFG edges (one per block successor).
    pub edges: u64,
    /// Edges whose source block's bytes are hashed.
    pub body_hash: u64,
    /// Edges whose taken target is checked against the entry.
    pub target_check: u64,
    /// Edges validated one block late through the return latch.
    pub return_latch: u64,
    /// Edges whose source block's stores are quarantined until
    /// validation.
    pub store_contain: u64,
    /// Edges carrying **no** check — the attack surface.
    pub unguarded: u64,
    /// Return edges (subset of `edges`).
    pub return_edges: u64,
    /// Return edges carrying at least one check.
    pub return_guarded: u64,
    /// Computed (indirect jump/call) edges.
    pub computed_edges: u64,
    /// Computed edges carrying at least one check.
    pub computed_guarded: u64,
}

/// Per-mode digest-collision statistics over the decoded table entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollisionStats {
    /// Identity-bearing entries examined (primaries; CFI transfers).
    pub entries: u64,
    /// Distinct identity classes.
    pub classes: u64,
    /// Classes holding two or more entries.
    pub colliding: u64,
    /// Size of the largest class.
    pub max_class: u64,
    /// Entries an attacker could swap for a classmate
    /// (`entries - classes`).
    pub substitutable: u64,
}

/// Per-mode worst-case detection-latency bound, in committed
/// instructions between a fault strike and the kill verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBounds {
    /// Commits from older in-flight instructions between the strike and
    /// the faulted block's own terminator commit (ROB capacity).
    pub inflight: u64,
    /// Longest block body (instructions incl. terminator) — commits of
    /// the faulted block itself.
    pub max_block: u64,
    /// Longest return-latch deferral: the max successor-block length
    /// over all return sites (standard mode's delayed validation).
    pub max_latch_defer: u64,
    /// The bound: `inflight + max over blocks of (len + latch defer)` —
    /// the longest ≤ 2-block detection path through the CFG.
    pub bound: u64,
}

/// One mode's complete audit.
#[derive(Debug, Clone, Copy)]
pub struct ModeAudit {
    /// The audited validation mode.
    pub mode: ValidationMode,
    /// Edge protection coverage.
    pub coverage: CoverageMatrix,
    /// Entry collision classes.
    pub collision: CollisionStats,
    /// Detection-latency bound.
    pub latency: LatencyBounds,
}

/// The full audit of one program: findings plus the three per-mode
/// matrices behind them.
#[derive(Debug)]
pub struct AuditOutcome {
    /// REV-A findings (info/warning summaries; errors refute a claim).
    pub report: Report,
    /// Per-mode audits, in [`AUDIT_MODES`] order.
    pub modes: Vec<ModeAudit>,
}

impl AuditOutcome {
    /// The audit of `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` was not audited (all three always are).
    pub fn mode(&self, mode: ValidationMode) -> &ModeAudit {
        self.modes.iter().find(|m| m.mode == mode).expect("all modes audited")
    }

    /// Exports the matrices into the `audit.*` metric namespace
    /// (documented in `docs/METRICS.md`) — the deterministic JSON
    /// section merged into `BENCH_rev.json` and
    /// `baselines/audit_quick.json`.
    pub fn metrics(&self) -> MetricRegistry {
        let mut reg = MetricRegistry::new();
        for ma in &self.modes {
            let m = mode_label(ma.mode);
            let cov = &ma.coverage;
            reg.counter(&format!("audit.{m}.edges"), cov.edges);
            reg.counter(&format!("audit.{m}.edges.body_hash"), cov.body_hash);
            reg.counter(&format!("audit.{m}.edges.target_check"), cov.target_check);
            reg.counter(&format!("audit.{m}.edges.return_latch"), cov.return_latch);
            reg.counter(&format!("audit.{m}.edges.store_contain"), cov.store_contain);
            reg.counter(&format!("audit.{m}.edges.unguarded"), cov.unguarded);
            let col = &ma.collision;
            reg.counter(&format!("audit.{m}.entries"), col.entries);
            reg.counter(&format!("audit.{m}.collision.classes"), col.classes);
            reg.counter(&format!("audit.{m}.collision.colliding"), col.colliding);
            reg.counter(&format!("audit.{m}.collision.max_class"), col.max_class);
            reg.counter(&format!("audit.{m}.collision.substitutable"), col.substitutable);
            let lat = &ma.latency;
            reg.counter(&format!("audit.{m}.latency.inflight"), lat.inflight);
            reg.counter(&format!("audit.{m}.latency.max_block"), lat.max_block);
            reg.counter(&format!("audit.{m}.latency.latch_defer"), lat.max_latch_defer);
            reg.counter(&format!("audit.{m}.latency.bound"), lat.bound);
        }
        reg
    }
}

/// The guard set protecting every outgoing edge of `block` under `mode`
/// — a static restatement of the commit gates in
/// `rev-core::rev_monitor` (gates 3–5 and the containment policy).
pub fn edge_guards(config: &RevConfig, mode: ValidationMode, block: &BlockInfo) -> u8 {
    let computed = matches!(block.term, TermKind::JumpIndirect | TermKind::CallIndirect);
    let ret = block.term == TermKind::Return;
    match mode {
        ValidationMode::Standard => {
            let mut g = guard::BODY_HASH;
            if computed || (ret && config.naive_return_validation) {
                g |= guard::TARGET_CHECK;
            }
            if ret && !config.naive_return_validation {
                g |= guard::RETURN_LATCH;
            }
            if block.num_stores > 0 {
                g |= guard::STORE_CONTAIN;
            }
            g
        }
        ValidationMode::Aggressive => {
            // Every branch target is bound into the entry and verified
            // inline; returns included (no latch deferral).
            let mut g = guard::BODY_HASH | guard::TARGET_CHECK;
            if block.num_stores > 0 {
                g |= guard::STORE_CONTAIN;
            }
            g
        }
        ValidationMode::CfiOnly => {
            // No hashing, no deferral: only computed transfers (and
            // returns, which carry a computed target) are checked.
            if computed || ret {
                guard::TARGET_CHECK
            } else {
                0
            }
        }
    }
}

/// Accumulates the per-edge coverage matrix for one module's CFG.
fn coverage_for(config: &RevConfig, mode: ValidationMode, cfg: &Cfg, acc: &mut CoverageMatrix) {
    for block in cfg.blocks() {
        let g = edge_guards(config, mode, block);
        let n = block.successors.len() as u64;
        if n == 0 {
            continue;
        }
        acc.edges += n;
        if g & guard::BODY_HASH != 0 {
            acc.body_hash += n;
        }
        if g & guard::TARGET_CHECK != 0 {
            acc.target_check += n;
        }
        if g & guard::RETURN_LATCH != 0 {
            acc.return_latch += n;
        }
        if g & guard::STORE_CONTAIN != 0 {
            acc.store_contain += n;
        }
        if g == 0 {
            acc.unguarded += n;
        }
        if block.term == TermKind::Return {
            acc.return_edges += n;
            if g != 0 {
                acc.return_guarded += n;
            }
        }
        if matches!(block.term, TermKind::JumpIndirect | TermKind::CallIndirect) {
            acc.computed_edges += n;
            if g != 0 {
                acc.computed_guarded += n;
            }
        }
    }
}

/// The identity a mode's validator actually compares when matching an
/// entry, for classing decoded entries into interchangeability classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EntryIdentity {
    /// Standard: truncated digest + bound primary successor (the gate 3
    /// scan key plus the gate 4 successor signature).
    Standard(u32, u32),
    /// Aggressive: digest + both inline successors + the 16-bit BB tag
    /// chain discriminator.
    Aggressive(u32, [u32; 2], u16),
    /// CFI-only: the 12-bit source tag is the *only* source identity —
    /// every entry sharing a tag is accepted for every aliased source.
    CfiTag(u16),
}

/// Classes the decoded entries of one table; returns per-class counts
/// keyed by identity.
fn entry_classes(table: &SignatureTable) -> BTreeMap<EntryIdentity, u64> {
    let mut classes: BTreeMap<EntryIdentity, u64> = BTreeMap::new();
    for entry in table.decode_entries().iter().flatten() {
        let id = match entry {
            RawEntry::Primary { digest, succ, .. } => EntryIdentity::Standard(*digest, *succ),
            RawEntry::AggressivePrimary { digest, succs, bb_tag, .. } => {
                EntryIdentity::Aggressive(*digest, *succs, *bb_tag)
            }
            RawEntry::Cfi { src_tag, .. } => EntryIdentity::CfiTag(*src_tag),
            RawEntry::Invalid | RawEntry::Spill { .. } => continue,
        };
        *classes.entry(id).or_insert(0) += 1;
    }
    classes
}

/// Folds one table's classes into the mode's [`CollisionStats`] and
/// emits per-class findings (collisions in hashed modes are truncation
/// collisions — warnings; CFI tag aliasing is the mode's designed
/// weakness — a single summarizing info finding).
fn collision_for(
    table: &SignatureTable,
    mode: ValidationMode,
    acc: &mut CollisionStats,
    report: &mut Report,
) {
    let classes = entry_classes(table);
    let mut colliding = Vec::new();
    let mut aliased_entries = 0u64;
    for (id, n) in &classes {
        acc.entries += n;
        acc.classes += 1;
        acc.max_class = acc.max_class.max(*n);
        if *n > 1 {
            acc.colliding += 1;
            acc.substitutable += n - 1;
            match id {
                EntryIdentity::Standard(digest, succ) => colliding.push(
                    Diagnostic::new(
                        Lint::AuditDigestCollision,
                        format!(
                            "{n} entries share digest {digest:#010x} / successor {succ:#x}: \
                             interchangeable under standard validation"
                        ),
                    )
                    .module(table.module_name())
                    .hint("aggressive mode's BB tag discriminates such classes"),
                ),
                EntryIdentity::Aggressive(digest, _, tag) => colliding.push(
                    Diagnostic::new(
                        Lint::AuditDigestCollision,
                        format!(
                            "{n} entries share digest {digest:#010x} / tag {tag:#06x}: \
                             interchangeable even under aggressive validation"
                        ),
                    )
                    .module(table.module_name()),
                ),
                EntryIdentity::CfiTag(_) => aliased_entries += n,
            }
        }
    }
    for d in colliding.into_iter().take(PER_AUDIT_CAP) {
        report.push(d);
    }
    if mode == ValidationMode::CfiOnly && acc.colliding > 0 {
        report.push(
            Diagnostic::new(
                Lint::AuditTagAlias,
                format!(
                    "{} source-tag class(es) alias {} entries (12-bit tags): aliased \
                     sources accept each other's target sets",
                    acc.colliding, aliased_entries
                ),
            )
            .module(table.module_name())
            .hint("expected for CFI-only; hashed modes bind the full BB address"),
        );
    }
}

/// Computes the per-mode detection-latency bound by the longest ≤ 2-block
/// path: the faulted block's own commit run plus (standard mode only) the
/// return latch's one-block deferral into its longest return site.
///
/// Stalls never widen the window: signature-cache misses, table walks and
/// the bounded sigline retry all *stall* the terminator's commit, so no
/// instruction commits while they run; superblock memo replay re-executes
/// the same gates at the same commit point (and is bypassed entirely
/// while a fault campaign is armed).
fn latency_for(config: &RevConfig, mode: ValidationMode, cfgs: &[Cfg]) -> LatencyBounds {
    let inflight = CpuConfig::paper_default().rob_size as u64;
    let block_len_at = |addr: u64| -> u64 {
        cfgs.iter().find_map(|c| c.block_by_start(addr)).map_or(0, |b| b.len() as u64)
    };
    let mut max_block = 0u64;
    let mut max_latch = 0u64;
    let mut worst_path = 0u64;
    for cfg in cfgs {
        for block in cfg.blocks() {
            let len = block.len() as u64;
            max_block = max_block.max(len);
            let latch = if mode == ValidationMode::Standard
                && !config.naive_return_validation
                && block.term == TermKind::Return
            {
                block.successors.iter().map(|&s| block_len_at(s)).max().unwrap_or(0)
            } else {
                0
            };
            max_latch = max_latch.max(latch);
            worst_path = worst_path.max(len + latch);
        }
    }
    LatencyBounds { inflight, max_block, max_latch_defer: max_latch, bound: inflight + worst_path }
}

/// Runs the full audit of `program` under `base` and each of
/// [`AUDIT_MODES`]: the linked CFGs and each mode's tables come from
/// [`BuildCache::global`] — exactly what a run would load — and
/// [`audit_tables`] computes the three analyses.
///
/// A program that fails static analysis reports [`Lint::AnalysisFailed`]
/// and an empty mode list; a mode whose tables fail to build reports it
/// and is left out.
pub fn audit_program(program: &Program, base: &RevConfig) -> AuditOutcome {
    match BuildCache::global().cfgs(program, base.bb_limits) {
        Ok(cfgs) => audit_linked(program, &cfgs, base),
        Err(e) => {
            let mut report = Report::new();
            report.push(Diagnostic::new(
                Lint::AnalysisFailed,
                format!("audit: static analysis failed: {e}"),
            ));
            AuditOutcome { report, modes: Vec::new() }
        }
    }
}

/// [`audit_program`] over linked CFGs the caller already holds — the
/// program's [`BuildCache::cfgs`] under `base`'s BB limits — so a caller
/// that audits and lints one program reads one analysis.
pub fn audit_linked(program: &Program, cfgs: &[Cfg], base: &RevConfig) -> AuditOutcome {
    let cache = BuildCache::global();
    let mut failed = Report::new();
    let mut built = Vec::with_capacity(AUDIT_MODES.len());
    for mode in AUDIT_MODES {
        let config = base.with_mode(mode);
        match cache.tables(program, &config, 0) {
            Ok(tables) => built.push((mode, tables)),
            Err(e) => failed.push(Diagnostic::new(
                Lint::AnalysisFailed,
                format!("audit: {mode} table build failed: {e}"),
            )),
        }
    }
    let tables: Vec<_> = built.iter().map(|(mode, t)| (*mode, t.tables.as_slice())).collect();
    let mut outcome = audit_tables(cfgs, &tables, base);
    outcome.report.merge(failed);
    outcome.report.sort();
    outcome
}

/// The audit proper: coverage, collision classes and latency bounds of
/// one program from its linked CFGs and, per audited mode, the tables
/// built from them (in [`AUDIT_MODES`] order). Builds no simulator and
/// reads only what it is given.
pub fn audit_tables(
    cfgs: &[Cfg],
    tables: &[(ValidationMode, &[SignatureTable])],
    base: &RevConfig,
) -> AuditOutcome {
    let mut report = Report::new();
    let mut modes = Vec::with_capacity(tables.len());
    for &(mode, mode_tables) in tables {
        let config = base.with_mode(mode);
        let mut coverage = CoverageMatrix::default();
        let mut collision = CollisionStats::default();
        for cfg in cfgs {
            coverage_for(&config, mode, cfg, &mut coverage);
        }
        for table in mode_tables {
            collision_for(table, mode, &mut collision, &mut report);
        }
        let latency = latency_for(&config, mode, cfgs);

        // Refutation tripwire: a hashed mode must leave no edge
        // unguarded — every block is hashed, so an unguarded edge means
        // the classification (or a new terminator kind) broke.
        if mode.uses_hashes() && coverage.unguarded > 0 {
            report.push(Diagnostic::new(
                Lint::AuditUnguardedEdge,
                format!(
                    "{} of {} edge(s) carry no check under {mode} validation",
                    coverage.unguarded, coverage.edges
                ),
            ));
        }
        if mode == ValidationMode::CfiOnly && coverage.unguarded > 0 {
            report.push(
                Diagnostic::new(
                    Lint::AuditCfiUnguarded,
                    format!(
                        "{} of {} edge(s) carry no check under cfi-only validation \
                         (implicit transfers and all code bytes are unprotected)",
                        coverage.unguarded, coverage.edges
                    ),
                )
                .hint("this is CFI's designed trade-off; see the coverage matrix"),
            );
        }
        report.push(Diagnostic::new(
            Lint::AuditLatencyBound,
            format!(
                "{mode}: worst-case detection latency {} commits \
                 (in-flight {} + worst block path {}; max block {}, max latch defer {})",
                latency.bound,
                latency.inflight,
                latency.bound - latency.inflight,
                latency.max_block,
                latency.max_latch_defer
            ),
        ));
        modes.push(ModeAudit { mode, coverage, collision, latency });
    }

    // Quantify the standard -> aggressive refinement (tentpole claim:
    // aggressive shrinks the interchangeability classes).
    if let (Some(std_a), Some(aggr)) = (
        modes.iter().find(|m| m.mode == ValidationMode::Standard),
        modes.iter().find(|m| m.mode == ValidationMode::Aggressive),
    ) {
        report.push(Diagnostic::new(
            Lint::AuditRefinement,
            format!(
                "aggressive refines standard identities: colliding classes {} -> {}, \
                 substitutable entries {} -> {}",
                std_a.collision.colliding,
                aggr.collision.colliding,
                std_a.collision.substitutable,
                aggr.collision.substitutable
            ),
        ));
    }
    report.sort();
    AuditOutcome { report, modes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rev_isa::{Instruction, Reg};
    use rev_prog::ModuleBuilder;

    fn small_program() -> Program {
        let mut b = ModuleBuilder::new("m", 0x1000);
        let main = b.begin_function("main");
        let callee = b.new_label();
        b.call(callee);
        b.push(Instruction::Halt);
        b.end_function(main);
        let f = b.begin_function("f");
        b.bind(callee);
        b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
        b.push(Instruction::Ret);
        b.end_function(f);
        let mut pb = Program::builder();
        pb.module(b.finish().unwrap());
        pb.build()
    }

    #[test]
    fn hashed_modes_leave_no_edge_unguarded() {
        let out = audit_program(&small_program(), &RevConfig::paper_default());
        assert!(out.report.passes_gate(), "{}", out.report.render_text());
        for mode in [ValidationMode::Standard, ValidationMode::Aggressive] {
            let ma = out.mode(mode);
            assert_eq!(ma.coverage.unguarded, 0, "{mode}");
            assert_eq!(ma.coverage.body_hash, ma.coverage.edges, "{mode}: every edge hashed");
        }
    }

    #[test]
    fn cfi_mode_leaves_implicit_edges_unguarded() {
        let out = audit_program(&small_program(), &RevConfig::paper_default());
        let cfi = out.mode(ValidationMode::CfiOnly);
        assert!(cfi.coverage.unguarded > 0, "call/fallthrough edges carry no CFI check");
        assert_eq!(cfi.coverage.body_hash, 0);
        // Return edges stay guarded: returns carry a computed target.
        assert_eq!(cfi.coverage.return_guarded, cfi.coverage.return_edges);
        assert!(!out.report.with_lint(Lint::AuditCfiUnguarded).is_empty());
    }

    #[test]
    fn return_edges_latched_in_standard_checked_in_aggressive() {
        let out = audit_program(&small_program(), &RevConfig::paper_default());
        let std_a = out.mode(ValidationMode::Standard);
        assert!(std_a.coverage.return_latch > 0);
        let aggr = out.mode(ValidationMode::Aggressive);
        assert_eq!(aggr.coverage.return_latch, 0, "aggressive validates returns inline");
        assert_eq!(aggr.coverage.target_check, aggr.coverage.edges);
    }

    #[test]
    fn latency_bound_covers_rob_plus_worst_path() {
        let out = audit_program(&small_program(), &RevConfig::paper_default());
        let lat = out.mode(ValidationMode::Standard).latency;
        assert_eq!(lat.inflight, CpuConfig::paper_default().rob_size as u64);
        assert!(lat.bound >= lat.inflight + lat.max_block);
        // Aggressive has no latch deferral, so its bound never exceeds
        // standard's.
        let aggr = out.mode(ValidationMode::Aggressive).latency;
        assert!(aggr.bound <= lat.bound);
        assert_eq!(aggr.max_latch_defer, 0);
    }

    #[test]
    fn metrics_are_deterministic_and_namespaced() {
        let a = audit_program(&small_program(), &RevConfig::paper_default()).metrics();
        let b = audit_program(&small_program(), &RevConfig::paper_default()).metrics();
        assert_eq!(a.to_json().render(), b.to_json().render());
        assert!(a.names().all(|n| n.starts_with("audit.")));
        assert!(a.get("audit.std.latency.bound").is_some());
        assert!(a.get("audit.cfi.edges.unguarded").is_some());
    }
}
