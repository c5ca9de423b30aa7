//! The differential CFG oracle: static prediction vs. dynamic discovery.
//!
//! The static side enumerates every (leader, terminator, body-hash) triple
//! the analysis predicts, via the same [`rev_core::analyze_and_link`] pass
//! the table generator consumes. The dynamic side runs the program on the
//! simulated REV core with block-trace recording switched on, collecting
//! the triples the hardware front end actually discovers and validates.
//!
//! The guarantee being checked: **dynamic ⊆ static**. A dynamically
//! discovered block absent from the static set is a lint bug (the table
//! generator would have missed it too — the run would raise a spurious
//! violation), reported at `error` severity. The reverse direction,
//! static-minus-dynamic, is merely cold code and reported as `info`.

use crate::diag::{Diagnostic, Lint, Report};
use rev_core::{BuildCache, DynBlockTriple, RevSimulator, SimBuildError};
use rev_crypto::bb_body_hash;
use rev_prog::{BbLimits, Program};
use rev_sigtable::ValidationMode;
use std::collections::BTreeSet;

/// How many dynamic-not-static triples to report individually before
/// folding the rest into one summarizing diagnostic.
const PER_RUN_CAP: usize = 16;

/// The oracle's result: the findings plus the set sizes behind them.
#[derive(Debug)]
pub struct OracleOutcome {
    /// Findings (empty but for cold-code info when the oracle passes).
    pub report: Report,
    /// Distinct (leader, terminator, hash) triples discovered dynamically.
    pub dynamic_blocks: usize,
    /// Distinct triples predicted statically.
    pub static_blocks: usize,
    /// Statically predicted triples that never executed.
    pub cold_blocks: usize,
}

impl OracleOutcome {
    /// `true` when every dynamic triple was statically predicted.
    pub fn dynamic_subset_of_static(&self) -> bool {
        self.report.with_lint(Lint::OracleDynamicNotStatic).is_empty()
    }
}

/// Statically predicts every (leader, terminator, body-hash) triple for
/// `program` — one per CFG block, hashed exactly as the CHG will hash it.
///
/// # Errors
///
/// Returns [`SimBuildError`] if a module fails static analysis.
pub fn static_triples(
    program: &Program,
    limits: BbLimits,
) -> Result<BTreeSet<DynBlockTriple>, SimBuildError> {
    let cfgs = BuildCache::global().cfgs(program, limits)?;
    let mut set = BTreeSet::new();
    for (module, cfg) in program.modules().iter().zip(cfgs.iter()) {
        for block in cfg.blocks() {
            let body = bb_body_hash(cfg.block_bytes(module, block));
            set.insert((block.start, block.bb_addr, body.0));
        }
    }
    Ok(set)
}

/// Runs the differential oracle on an already-built simulator: switches on
/// block-trace recording, commits up to `instructions` instructions, and
/// diffs the discovered triples against the static prediction.
///
/// Only the hashed modes (standard, aggressive) record body hashes; for a
/// CFI-only simulator the oracle reports nothing (the CFG agreement it
/// certifies is a property of the hashed tables).
pub fn run_oracle(sim: &mut RevSimulator, instructions: u64) -> OracleOutcome {
    let mut report = Report::new();
    if sim.config().mode == ValidationMode::CfiOnly {
        return OracleOutcome { report, dynamic_blocks: 0, static_blocks: 0, cold_blocks: 0 };
    }
    let static_set = match static_triples(sim.program(), sim.config().bb_limits) {
        Ok(s) => s,
        Err(e) => {
            report.push(Diagnostic::new(
                Lint::AnalysisFailed,
                format!("static prediction failed: {e}"),
            ));
            return OracleOutcome { report, dynamic_blocks: 0, static_blocks: 0, cold_blocks: 0 };
        }
    };

    sim.monitor_mut().enable_block_trace();
    let run = sim.run(instructions);
    if let Some(v) = run.rev.violation {
        report.push(
            Diagnostic::new(
                Lint::OracleDynamicNotStatic,
                format!("oracle run raised a violation: {v}"),
            )
            .hint("a clean program must validate end to end; the table or CFG is wrong"),
        );
    }
    let dynamic: BTreeSet<DynBlockTriple> =
        sim.monitor().block_trace().cloned().unwrap_or_default();

    let mut escaped = 0usize;
    for triple in &dynamic {
        if static_set.contains(triple) {
            continue;
        }
        escaped += 1;
        if escaped <= PER_RUN_CAP {
            let (leader, terminator, _) = *triple;
            report.push(
                Diagnostic::new(
                    Lint::OracleDynamicNotStatic,
                    format!(
                        "dynamic block (leader {leader:#x}, terminator {terminator:#x}) was not statically predicted"
                    ),
                )
                .addr(terminator)
                .hint("block discovery and the hardware front end disagree; fix the analysis"),
            );
        }
    }
    if escaped > PER_RUN_CAP {
        report.push(Diagnostic::new(
            Lint::OracleDynamicNotStatic,
            format!("... and {} more unpredicted dynamic block(s)", escaped - PER_RUN_CAP),
        ));
    }

    let cold = static_set.difference(&dynamic).count();
    if cold > 0 {
        report.push(
            Diagnostic::new(
                Lint::OracleColdCode,
                format!(
                    "{cold} of {} statically predicted block(s) never executed (cold code)",
                    static_set.len()
                ),
            )
            .hint("expected for short runs; raise --instructions to shrink"),
        );
    }
    report.sort();
    OracleOutcome {
        report,
        dynamic_blocks: dynamic.len(),
        static_blocks: static_set.len(),
        cold_blocks: cold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rev_core::RevConfig;
    use rev_isa::{BranchCond, Instruction, Reg};
    use rev_prog::ModuleBuilder;

    fn looping_program() -> Program {
        let mut b = ModuleBuilder::new("m", 0x1000);
        let f = b.begin_function("main");
        let top = b.new_label();
        b.push(Instruction::AddI { rd: Reg::R2, rs: Reg::R0, imm: 50 });
        b.bind(top);
        b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
        b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
        b.push(Instruction::Halt);
        b.end_function(f);
        let mut pb = Program::builder();
        pb.module(b.finish().unwrap());
        pb.build()
    }

    #[test]
    fn dynamic_is_subset_of_static_on_clean_program() {
        let mut sim = RevSimulator::new(looping_program(), RevConfig::paper_default()).unwrap();
        let outcome = run_oracle(&mut sim, 10_000);
        assert!(outcome.dynamic_blocks > 0, "the loop must discover blocks");
        assert!(
            outcome.dynamic_subset_of_static(),
            "unexpected escapes:\n{}",
            outcome.report.render_text()
        );
        assert!(outcome.report.passes_gate());
        assert_eq!(
            outcome.static_blocks,
            outcome.dynamic_blocks + outcome.cold_blocks,
            "set arithmetic must be consistent"
        );
    }

    #[test]
    fn cfi_mode_is_a_no_op() {
        let config = RevConfig::paper_default().with_mode(ValidationMode::CfiOnly);
        let mut sim = RevSimulator::new(looping_program(), config).unwrap();
        let outcome = run_oracle(&mut sim, 5_000);
        assert_eq!(outcome.dynamic_blocks, 0);
        assert!(outcome.report.diagnostics.is_empty());
    }
}
