//! The static checks: program-shape lints over the stitched CFGs and
//! differential audits of the built signature tables.
//!
//! The linter re-derives every quantity the trusted linker computes —
//! block boundaries via [`rev_core::analyze_and_link`] (the *same* pass
//! the table generator consumes, so block boundaries cannot drift) and
//! entry digests via an independent re-implementation of the builder's
//! binding rules — then diffs the derivations against what the encrypted
//! table actually contains.

use crate::diag::{Diagnostic, Lint, Report};
use rev_core::{BuildCache, RevConfig};
use rev_crypto::{bb_body_hash, entry_digest};
use rev_prog::{BbLimits, BlockInfo, Cfg, Module, Program, TermKind};
use rev_sigtable::{SignatureTable, ValidationMode};
use std::collections::{HashMap, HashSet};

/// How many findings of one lint to report per module before folding the
/// remainder into a single summarizing diagnostic. Keeps a badly corrupted
/// table from producing megabytes of output while preserving the count.
const PER_LINT_CAP: usize = 16;

/// Lints a program against its built signature tables.
///
/// `tables` must be the tables the simulator will consume (one per module,
/// in any order — pairing is by base/limit range). `limits` must match the
/// configuration the tables were built with.
pub fn lint_tables(program: &Program, tables: &[SignatureTable], limits: BbLimits) -> Report {
    let mut report = Report::new();
    let cfgs = match BuildCache::global().cfgs(program, limits) {
        Ok(cfgs) => cfgs,
        Err(e) => {
            report.push(
                Diagnostic::new(Lint::AnalysisFailed, format!("static analysis failed: {e}"))
                    .hint("fix the module (or its recorded indirect target sets) so it analyzes"),
            );
            return report;
        }
    };

    check_sag_sanity(program, tables, &mut report);
    check_writable_code(program, &mut report);
    check_module_reachability(program, &cfgs, &mut report);
    for (module, cfg) in program.modules().iter().zip(cfgs.iter()) {
        check_split_rules(module, cfg, limits, &mut report);
        check_indirect_targets(program, &cfgs, module, cfg, &mut report);
        check_return_sites(program, &cfgs, module, cfg, &mut report);
        if let Some(table) = table_for_module(tables, module) {
            check_table_against_cfg(module, cfg, table, &mut report);
        }
    }
    report.sort();
    report
}

/// Convenience wrapper: takes the tables for `program` under `config`
/// from [`BuildCache::global`] (exactly what a run would consume) and
/// lints them. An unrunnable configuration or unbuildable program
/// reports as [`Lint::AnalysisFailed`].
pub fn lint_build(program: Program, config: RevConfig) -> Report {
    match BuildCache::global().tables(&program, &config, 0) {
        Ok(built) => lint_tables(&program, &built.tables, config.bb_limits),
        Err(e) => {
            let mut report = Report::new();
            report.push(
                Diagnostic::new(Lint::AnalysisFailed, format!("build failed: {e}"))
                    .hint("fix the module so analysis and table generation succeed"),
            );
            report
        }
    }
}

/// The table whose base/limit range exactly covers `module`, if any
/// (missing/mismatched pairings are reported by [`check_sag_sanity`]).
fn table_for_module<'t>(
    tables: &'t [SignatureTable],
    module: &Module,
) -> Option<&'t SignatureTable> {
    tables.iter().find(|t| t.module_base() == module.base() && t.module_end() == module.code_end())
}

/// Pushes `diags` capped at [`PER_LINT_CAP`], folding the overflow into a
/// final count-carrying diagnostic.
fn push_capped(report: &mut Report, lint: Lint, module: &str, diags: Vec<Diagnostic>) {
    let total = diags.len();
    for d in diags.into_iter().take(PER_LINT_CAP) {
        report.push(d);
    }
    if total > PER_LINT_CAP {
        report.push(
            Diagnostic::new(
                lint,
                format!("... and {} more {} finding(s)", total - PER_LINT_CAP, lint.name()),
            )
            .module(module),
        );
    }
}

/// SAG module sanity: overlapping ranges, tables resolving to no module,
/// and modules covered by no table.
fn check_sag_sanity(program: &Program, tables: &[SignatureTable], report: &mut Report) {
    // Overlap: any two table ranges intersecting makes resolution
    // ambiguous (which key decrypts a block in the overlap?).
    let mut ranges: Vec<(u64, u64, &str)> =
        tables.iter().map(|t| (t.module_base(), t.module_end(), t.module_name())).collect();
    ranges.sort_unstable();
    for pair in ranges.windows(2) {
        let (lo_base, lo_end, lo_name) = pair[0];
        let (hi_base, _, hi_name) = pair[1];
        if hi_base < lo_end {
            report.push(
                Diagnostic::new(
                    Lint::SagOverlap,
                    format!(
                        "table ranges overlap: '{lo_name}' [{lo_base:#x},{lo_end:#x}) and '{hi_name}' starting {hi_base:#x}"
                    ),
                )
                .module(lo_name)
                .addr(hi_base)
                .hint("re-link the modules at disjoint bases"),
            );
        }
    }
    // Tables that resolve to no loaded module.
    for t in tables {
        let matches_module = program
            .modules()
            .iter()
            .any(|m| m.base() == t.module_base() && m.code_end() == t.module_end());
        if !matches_module {
            report.push(
                Diagnostic::new(
                    Lint::SagNoModule,
                    format!(
                        "table '{}' covers [{:#x},{:#x}) which matches no loaded module",
                        t.module_name(),
                        t.module_base(),
                        t.module_end()
                    ),
                )
                .module(t.module_name())
                .addr(t.module_base())
                .hint("regenerate the table from the module actually loaded"),
            );
        }
    }
    // Modules with no covering table: every transfer into them raises
    // NoTable at run time.
    for m in program.modules() {
        if table_for_module(tables, m).is_none() {
            report.push(
                Diagnostic::new(
                    Lint::ModuleUntabled,
                    format!(
                        "module code range [{:#x},{:#x}) has no signature table",
                        m.base(),
                        m.code_end()
                    ),
                )
                .module(m.name())
                .addr(m.base())
                .hint("build and register a table for the module"),
            );
        }
    }
}

/// Self-modifying / overlapping-code hazard: a module's code range
/// intersecting a writable segment means the hashed bytes can change
/// under REV's feet.
fn check_writable_code(program: &Program, report: &mut Report) {
    let segments = program.segments();
    for m in program.modules() {
        for seg in segments.iter().filter(|s| s.writable) {
            if m.base() < seg.end() && seg.addr < m.code_end() {
                report.push(
                    Diagnostic::new(
                        Lint::CodeInWritableMemory,
                        format!(
                            "code [{:#x},{:#x}) intersects writable segment [{:#x},{:#x})",
                            m.base(),
                            m.code_end(),
                            seg.addr,
                            seg.end()
                        ),
                    )
                    .module(m.name())
                    .addr(seg.addr.max(m.base()))
                    .hint("move the data/stack segment or mark the region read-only"),
                );
            }
        }
    }
}

/// Modules unreachable from the program entry through any static edge.
fn check_module_reachability(program: &Program, cfgs: &[Cfg], report: &mut Report) {
    let modules = program.modules();
    let module_of = |addr: u64| modules.iter().position(|m| m.contains_code(addr));
    let Some(entry_idx) = module_of(program.entry()) else {
        // Entry outside every module is a load-time failure, not a lint.
        return;
    };
    // BFS over cross-module static edges.
    let mut reachable = vec![false; modules.len()];
    let mut stack = vec![entry_idx];
    reachable[entry_idx] = true;
    while let Some(i) = stack.pop() {
        for block in cfgs[i].blocks() {
            for &s in &block.successors {
                if let Some(j) = module_of(s) {
                    if !reachable[j] {
                        reachable[j] = true;
                        stack.push(j);
                    }
                }
            }
        }
    }
    for (i, m) in modules.iter().enumerate() {
        if !reachable[i] {
            report.push(
                Diagnostic::new(
                    Lint::ModuleUnreachable,
                    "no static path from the program entry reaches this module",
                )
                .module(m.name())
                .addr(m.base())
                .hint("drop the module or add the missing call/jump edge"),
            );
        }
    }
}

/// Split-rule consistency: every re-derived block must obey the limits,
/// and no natural terminator may sit in a block's interior.
fn check_split_rules(module: &Module, cfg: &Cfg, limits: BbLimits, report: &mut Report) {
    let mut diags = Vec::new();
    for block in cfg.blocks() {
        if block.len() > limits.max_instrs || block.num_stores > limits.max_stores {
            diags.push(
                Diagnostic::new(
                    Lint::SplitLimitExceeded,
                    format!(
                        "block (leader {:#x}) has {} instrs / {} stores, limits are {} / {}",
                        block.start,
                        block.len(),
                        block.num_stores,
                        limits.max_instrs,
                        limits.max_stores
                    ),
                )
                .module(module.name())
                .addr(block.bb_addr)
                .hint("rebuild the table with the limits the hardware enforces"),
            );
        }
        for &(addr, insn) in block.instrs.iter().take(block.len().saturating_sub(1)) {
            if insn.is_bb_terminator() {
                diags.push(
                    Diagnostic::new(
                        Lint::SplitInteriorTerminator,
                        format!("terminator at {addr:#x} sits inside the block's interior"),
                    )
                    .module(module.name())
                    .addr(block.bb_addr)
                    .hint("re-run block discovery; interior terminators must end blocks"),
                );
            }
        }
    }
    push_capped(report, Lint::SplitLimitExceeded, module.name(), diags);
}

/// Indirect-branch target-set inference: computed jumps/calls with empty
/// target sets, and targets escaping every module (or landing off any
/// analyzed block leader).
fn check_indirect_targets(
    program: &Program,
    cfgs: &[Cfg],
    module: &Module,
    cfg: &Cfg,
    report: &mut Report,
) {
    let mut diags = Vec::new();
    for block in cfg.blocks() {
        if !matches!(block.term, TermKind::JumpIndirect | TermKind::CallIndirect) {
            continue;
        }
        if block.successors.is_empty() {
            report.push(
                Diagnostic::new(
                    Lint::IndirectEmptyTargets,
                    format!("computed branch at {:#x} has an empty target set", block.bb_addr),
                )
                .module(module.name())
                .addr(block.bb_addr)
                .hint("record the branch's legitimate targets (profile or points-to analysis)"),
            );
            continue;
        }
        for &target in &block.successors {
            let owner = program.modules().iter().position(|m| m.contains_code(target));
            let landed = match owner {
                None => false,
                Some(j) => cfgs[j].block_by_start(target).is_some(),
            };
            if !landed {
                let why = if owner.is_none() {
                    "escapes every loaded module"
                } else {
                    "is not an analyzed block leader in its module"
                };
                diags.push(
                    Diagnostic::new(
                        Lint::IndirectEscapingTarget,
                        format!(
                            "target {target:#x} of computed branch at {:#x} {why}",
                            block.bb_addr
                        ),
                    )
                    .module(module.name())
                    .addr(target)
                    .hint("fix the recorded target set or load the module it points into"),
                );
            }
        }
    }
    push_capped(report, Lint::IndirectEscapingTarget, module.name(), diags);
}

/// Return-site audit: every return's latched-validation successor block
/// must exist and carry the return's BB address in its predecessor set —
/// the two facts delayed return validation consults (paper Sec. V.A).
fn check_return_sites(
    program: &Program,
    cfgs: &[Cfg],
    module: &Module,
    cfg: &Cfg,
    report: &mut Report,
) {
    let mut diags = Vec::new();
    let mut dead = Vec::new();
    for block in cfg.blocks() {
        if block.term != TermKind::Return {
            continue;
        }
        if block.successors.is_empty() {
            dead.push(
                Diagnostic::new(
                    Lint::ReturnNeverCalled,
                    format!(
                        "return at {:#x} has no return sites (function never called)",
                        block.bb_addr
                    ),
                )
                .module(module.name())
                .addr(block.bb_addr)
                .hint("dead function: executing its return can only raise a violation"),
            );
            continue;
        }
        for &site in &block.successors {
            let owner = program.modules().iter().position(|m| m.contains_code(site));
            let site_block = owner.and_then(|j| cfgs[j].block_by_start(site));
            match site_block {
                None => diags.push(
                    Diagnostic::new(
                        Lint::ReturnSiteMissing,
                        format!(
                            "return site {site:#x} of return at {:#x} has no analyzed block",
                            block.bb_addr
                        ),
                    )
                    .module(module.name())
                    .addr(site)
                    .hint("the call-site successor must be a block leader; re-run analysis"),
                ),
                Some(sb) if !sb.predecessors.contains(&block.bb_addr) => diags.push(
                    Diagnostic::new(
                        Lint::ReturnSiteMissing,
                        format!(
                            "return-site block {site:#x} lacks predecessor linkage to return {:#x}",
                            block.bb_addr
                        ),
                    )
                    .module(module.name())
                    .addr(site)
                    .hint("re-link: delayed return validation reads the site's predecessor set"),
                ),
                Some(_) => {}
            }
        }
    }
    push_capped(report, Lint::ReturnNeverCalled, module.name(), dead);
    push_capped(report, Lint::ReturnSiteMissing, module.name(), diags);
}

/// The terminator classification the builder stores (mirror of
/// `rev-sigtable::build`'s mapping — re-derived here on purpose).
fn is_implicit(term: TermKind) -> bool {
    !matches!(term, TermKind::JumpIndirect | TermKind::CallIndirect | TermKind::Return)
}

/// Predecessors the standard-mode builder stores: return-terminated ones,
/// plus external (cross-module) addresses it cannot classify locally.
fn stored_preds(cfg: &Cfg, block: &BlockInfo) -> Vec<u64> {
    block
        .predecessors
        .iter()
        .filter(|&&p| {
            let ids = cfg.blocks_by_bb_addr(p);
            if ids.is_empty() {
                true
            } else {
                ids.iter().any(|id| cfg.block(*id).term == TermKind::Return)
            }
        })
        .copied()
        .collect()
}

/// The digest the builder must have stored for `block` — an independent
/// re-derivation of the binding rules in `rev-sigtable::build`.
fn expected_digest(
    table: &SignatureTable,
    module: &Module,
    cfg: &Cfg,
    block: &BlockInfo,
) -> Option<u32> {
    let key = table.key();
    let body = bb_body_hash(cfg.block_bytes(module, block));
    match table.mode() {
        ValidationMode::Standard => {
            let succ = if is_implicit(block.term) {
                0
            } else {
                block.successors.first().copied().unwrap_or(0)
            };
            let pred = stored_preds(cfg, block).first().copied().unwrap_or(0);
            Some(entry_digest(&key, block.bb_addr, &body, succ, pred).0)
        }
        ValidationMode::Aggressive => {
            let s0 = block.successors.first().copied().unwrap_or(0);
            let s1 = block.successors.get(1).copied().unwrap_or(0);
            let pred = block.predecessors.first().copied().unwrap_or(0);
            Some(entry_digest(&key, block.bb_addr, &body, s0 | (s1 << 32), pred).0)
        }
        ValidationMode::CfiOnly => None,
    }
}

/// Differential table audit for one module: coverage (every block has its
/// entry, with a complete target set), orphan and duplicate entries, and
/// chain/entry decode failures.
fn check_table_against_cfg(
    module: &Module,
    cfg: &Cfg,
    table: &SignatureTable,
    report: &mut Report,
) {
    let mode = table.mode();
    let mut coverage = Vec::new();
    let mut parse_failures: HashSet<u64> = HashSet::new();

    // Expected identities, for the orphan/duplicate sweep below. Standard
    // and aggressive entries are identified by digest; CFI entries by
    // (source tag, target) pair.
    let mut expected_digests: HashSet<u32> = HashSet::new();
    let mut expected_cfi: HashSet<(u16, u64)> = HashSet::new();

    for block in cfg.blocks() {
        let lookup = table.lookup(block.bb_addr);
        if lookup.parse_failure && parse_failures.insert(block.bb_addr) {
            coverage.push(
                Diagnostic::new(
                    Lint::ChainParseFailure,
                    format!("entry chain for BB {:#x} fails to decode", block.bb_addr),
                )
                .module(module.name())
                .addr(block.bb_addr)
                .hint("the table image is corrupt; regenerate it"),
            );
        }
        match mode {
            ValidationMode::Standard | ValidationMode::Aggressive => {
                let expected = expected_digest(table, module, cfg, block).expect("hashed mode");
                expected_digests.insert(expected);
                let variant = lookup.variants.iter().find(|v| v.digest == Some(expected));
                match variant {
                    None => coverage.push(
                        Diagnostic::new(
                            Lint::CoverageMissing,
                            format!(
                                "block (leader {:#x}, terminator {:#x}) has no digest-matching entry",
                                block.start, block.bb_addr
                            ),
                        )
                        .module(module.name())
                        .addr(block.bb_addr)
                        .hint("regenerate the table; running this block will raise a violation"),
                    ),
                    Some(v) if !is_implicit(block.term) => {
                        for &s in &block.successors {
                            if !v.succs.contains(&s) {
                                coverage.push(
                                    Diagnostic::new(
                                        Lint::CoverageMissing,
                                        format!(
                                            "entry for BB {:#x} lacks successor {s:#x} in its target set",
                                            block.bb_addr
                                        ),
                                    )
                                    .module(module.name())
                                    .addr(block.bb_addr)
                                    .hint("regenerate the table with the full successor list"),
                                );
                            }
                        }
                    }
                    Some(_) => {}
                }
            }
            ValidationMode::CfiOnly => {
                // Only computed terminators with non-empty target sets get
                // entries (the builder skips the rest).
                if !block.term.needs_target_check() || block.successors.is_empty() {
                    continue;
                }
                let tag = (block.bb_addr & 0xfff) as u16;
                for &s in &block.successors {
                    expected_cfi.insert((tag, s));
                }
                let variant = lookup.variants.iter().find(|v| v.tag == Some(tag));
                let missing: Vec<u64> = match variant {
                    None => block.successors.clone(),
                    Some(v) => {
                        block.successors.iter().copied().filter(|s| !v.succs.contains(s)).collect()
                    }
                };
                for s in missing {
                    coverage.push(
                        Diagnostic::new(
                            Lint::CoverageMissing,
                            format!("CFI entry for BB {:#x} lacks target {s:#x}", block.bb_addr),
                        )
                        .module(module.name())
                        .addr(block.bb_addr)
                        .hint("regenerate the table; this transfer will raise a violation"),
                    );
                }
            }
        }
    }
    push_capped(report, Lint::CoverageMissing, module.name(), coverage);

    // Orphans, duplicates, and undecodable entries: one decrypting sweep
    // over the raw entry region.
    let mut orphans = Vec::new();
    let mut seen_digests: HashMap<u32, usize> = HashMap::new();
    let mut seen_cfi: HashMap<(u16, u64), usize> = HashMap::new();
    for (idx, entry) in table.decode_entries().iter().enumerate() {
        let Some(entry) = entry else {
            report.push(
                Diagnostic::new(
                    Lint::ChainParseFailure,
                    format!("table entry #{idx} fails to decode"),
                )
                .module(module.name())
                .hint("the table image is corrupt; regenerate it"),
            );
            continue;
        };
        let mut digest: Option<u32> = None;
        let mut cfi: Option<(u16, u64)> = None;
        match entry {
            rev_sigtable::RawEntry::Primary { digest: d, .. }
            | rev_sigtable::RawEntry::AggressivePrimary { digest: d, .. } => digest = Some(*d),
            rev_sigtable::RawEntry::Cfi { target, src_tag, .. } => {
                cfi = Some((*src_tag, *target as u64));
            }
            rev_sigtable::RawEntry::Invalid | rev_sigtable::RawEntry::Spill { .. } => continue,
        }
        if let Some(d) = digest {
            *seen_digests.entry(d).or_insert(0) += 1;
            if !expected_digests.is_empty() && !expected_digests.contains(&d) {
                orphans.push(
                    Diagnostic::new(
                        Lint::OrphanEntry,
                        format!("entry #{idx} (digest {d:#010x}) matches no predicted block"),
                    )
                    .module(module.name())
                    .hint("stale or foreign entry; regenerate the table"),
                );
            }
        }
        if let Some(pair) = cfi {
            *seen_cfi.entry(pair).or_insert(0) += 1;
            if !expected_cfi.contains(&pair) {
                orphans.push(
                    Diagnostic::new(
                        Lint::OrphanEntry,
                        format!(
                            "CFI entry #{idx} (tag {:#x} -> {:#x}) matches no predicted transfer",
                            pair.0, pair.1
                        ),
                    )
                    .module(module.name())
                    .addr(pair.1)
                    .hint("stale or foreign entry; regenerate the table"),
                );
            }
        }
    }
    push_capped(report, Lint::OrphanEntry, module.name(), orphans);
    let mut duplicates = Vec::new();
    for (d, n) in seen_digests.into_iter().filter(|&(_, n)| n > 1) {
        duplicates.push(
            Diagnostic::new(
                Lint::DuplicateEntry,
                format!("digest {d:#010x} appears in {n} entries"),
            )
            .module(module.name())
            .hint("duplicate entries waste SC capacity; deduplicate at build time"),
        );
    }
    for ((tag, target), n) in seen_cfi.into_iter().filter(|&(_, n)| n > 1) {
        duplicates.push(
            Diagnostic::new(
                Lint::DuplicateEntry,
                format!("CFI pair (tag {tag:#x} -> {target:#x}) appears in {n} entries"),
            )
            .module(module.name())
            .addr(target)
            .hint("duplicate entries waste SC capacity; deduplicate at build time"),
        );
    }
    duplicates.sort_by(|a, b| a.message.cmp(&b.message));
    push_capped(report, Lint::DuplicateEntry, module.name(), duplicates);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rev_isa::{Instruction, Reg};
    use rev_prog::ModuleBuilder;

    fn clean_program() -> Program {
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
    fn clean_program_passes_gate_in_all_modes() {
        for mode in [ValidationMode::Standard, ValidationMode::Aggressive, ValidationMode::CfiOnly]
        {
            let report = lint_build(clean_program(), RevConfig::paper_default().with_mode(mode));
            assert!(
                report.passes_gate(),
                "mode {mode}: unexpected errors:\n{}",
                report.render_text()
            );
        }
    }

    #[test]
    fn never_called_function_warns() {
        let mut b = ModuleBuilder::new("m", 0x1000);
        let main = b.begin_function("main");
        b.push(Instruction::Halt);
        b.end_function(main);
        let f = b.begin_function("dead");
        b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
        b.push(Instruction::Ret);
        b.end_function(f);
        let mut pb = Program::builder();
        pb.module(b.finish().unwrap());
        let report = lint_build(pb.build(), RevConfig::paper_default());
        assert!(report.passes_gate(), "{}", report.render_text());
        assert!(!report.with_lint(Lint::ReturnNeverCalled).is_empty());
    }

    #[test]
    fn missing_table_is_an_error() {
        let program = clean_program();
        let report = lint_tables(&program, &[], BbLimits::default());
        assert!(!report.passes_gate());
        assert!(!report.with_lint(Lint::ModuleUntabled).is_empty());
    }

    #[test]
    fn unparseable_program_reports_analysis_failed() {
        // A raw indirect jump with no recorded target set fails analysis.
        let mut b = ModuleBuilder::new("m", 0x1000);
        b.push(Instruction::JmpInd { rt: Reg::R1 });
        b.push(Instruction::Halt);
        let mut pb = Program::builder();
        pb.module(b.finish().unwrap());
        let report = lint_build(pb.build(), RevConfig::paper_default());
        assert!(!report.passes_gate());
        assert!(!report.with_lint(Lint::AnalysisFailed).is_empty());
    }
}
