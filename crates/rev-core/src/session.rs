//! Suspendable validation sessions: the run-to-completion loop as a
//! steppable, `Send` object.
//!
//! A [`Session`] owns a fully assembled [`RevSimulator`] (pipeline +
//! memory hierarchy + REV state) and a committed-instruction *target*.
//! Instead of running to completion in one call, the caller repeatedly
//! grants a *budget* — [`Session::run`] advances the core by at most
//! that many committed instructions and yields. One thread can therefore
//! multiplex many concurrent simulations with round-robin fairness,
//! which is exactly what the `rev-serve` gateway's worker pool does.
//!
//! Slicing is **exact**: the per-cycle loop is the monolithic one
//! (`Pipeline::run_slice` shares its body with `Pipeline::run`), a yield
//! is an early return *between* two cycles, and the monitor's end-of-run
//! hook (shadow-page promotion, SC stat capture) fires exactly once, at
//! the true end. A session stepped with budgets of 1, 7, 1000 or `∞`
//! commits the same instructions on the same cycles and produces
//! byte-identical metric snapshots to [`RevSimulator::run`] — the
//! equivalence suite in `rev-bench/tests/equivalence.rs` pins this
//! across all 18 workload profiles. See `DESIGN.md` §12 for why budget
//! slicing cannot perturb architectural counters.

use crate::sim::{RevReport, RevSimulator};
use rev_cpu::RunOutcome;
use rev_trace::{CkptError, CkptReader, CkptWriter};

/// What a [`Session::run`] call produced.
#[derive(Debug)]
pub enum SessionStatus {
    /// The budget slice was exhausted before the target was reached; the
    /// session is suspended mid-flight and can be resumed (on any
    /// thread — it is `Send`) with another [`Session::run`] call.
    Yielded {
        /// Correct-path instructions committed so far (cumulative).
        committed: u64,
    },
    /// The run is over: the target was reached, the program halted, or
    /// validation raised a violation. The report is identical to what
    /// one monolithic [`RevSimulator::run`] call would have returned.
    Done(Box<RevReport>),
}

/// A suspendable validation run: simulator + target + completion state.
///
/// ```
/// use rev_core::{RevConfig, RevSimulator, Session, SessionStatus};
/// use rev_isa::{Instruction, Reg};
/// use rev_prog::{ModuleBuilder, Program};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ModuleBuilder::new("demo", 0x1000);
/// b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R0, imm: 7 });
/// b.push(Instruction::Halt);
/// let mut pb = Program::builder();
/// pb.module(b.finish()?);
/// let sim = RevSimulator::new(pb.build(), RevConfig::paper_default())?;
///
/// let mut session = Session::new(sim, 1_000);
/// let report = loop {
///     match session.run(10) {
///         SessionStatus::Yielded { .. } => continue, // fair-share point
///         SessionStatus::Done(report) => break report,
///     }
/// };
/// assert!(report.rev.violation.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    sim: RevSimulator,
    target: u64,
    finished: bool,
}

impl Session {
    /// Wraps an assembled simulator into a session that will commit
    /// `target` correct-path instructions (cumulative since the last
    /// warmup reset; `u64::MAX` runs until halt or violation). Warm the
    /// simulator *before* wrapping it — [`RevSimulator::warmup`] resets
    /// the committed count the target is measured against.
    pub fn new(sim: RevSimulator, target: u64) -> Self {
        Session { sim, target, finished: false }
    }

    /// The committed-instruction target.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Correct-path instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.sim.committed_instrs()
    }

    /// Whether a previous [`Session::run`] call already returned
    /// [`SessionStatus::Done`].
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The simulator being stepped (tables, program, config, monitor).
    pub fn simulator(&self) -> &RevSimulator {
        &self.sim
    }

    /// Abandons the run and surrenders the simulator mid-flight (used by
    /// cancellation paths that want a post-mortem look; dropping the
    /// session is the cheaper way to cancel).
    pub fn into_simulator(self) -> RevSimulator {
        self.sim
    }

    /// Forks the suspended session: a cheap in-memory structural copy,
    /// with no serialize/deserialize round-trip on the hot path. The
    /// fork resumes from exactly this point with the same target, fully
    /// independent of the original — byte-equivalent to sealing a
    /// [`Session::checkpoint`] and restoring it into a freshly rebuilt
    /// simulator (the fork suite in `tests/ckpt.rs` pins the two
    /// envelopes byte-identical). The warm-start pool in `rev-bench`
    /// builds on this: one warmed session, many forked measurement runs.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Malformed`] under [`Session::checkpoint`]'s
    /// refusal rules — the session already finished, a fault injector is
    /// armed, or block tracing is on.
    pub fn fork(&self) -> Result<Self, CkptError> {
        if self.finished {
            return Err(CkptError::Malformed("cannot fork a finished session".to_string()));
        }
        let sim = self.sim.fork()?;
        Ok(Session { sim, target: self.target, finished: false })
    }

    /// Serializes the suspended session into a sealed `CKPT_SCHEMA`
    /// envelope (see `docs/CHECKPOINT.md`). `recipe` is an opaque,
    /// caller-owned section — `rev-serve` stores the job spec there so a
    /// checkpoint is self-describing; [`Session::recipe`] reads it back.
    ///
    /// The envelope carries only *mutable* state plus a structural
    /// fingerprint: to restore, rebuild an identical simulator from the
    /// recipe (program, configs, warmup **not** re-run — warmed state is
    /// inside the checkpoint) and hand it to [`Session::restore`].
    /// Trace buses and fault injectors do not survive a checkpoint;
    /// sessions with an armed fault injector or block trace refuse to
    /// checkpoint rather than silently drop campaign state.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Malformed`] if the session already finished,
    /// a fault injector is armed, or block tracing is on.
    pub fn checkpoint(&self, recipe: &[u8]) -> Result<Vec<u8>, CkptError> {
        if self.finished {
            return Err(CkptError::Malformed("cannot checkpoint a finished session".to_string()));
        }
        if self.sim.monitor().fault_injector().is_enabled() {
            return Err(CkptError::Malformed(
                "cannot checkpoint with a fault injector armed".to_string(),
            ));
        }
        if self.sim.monitor().block_trace().is_some() {
            return Err(CkptError::Malformed(
                "cannot checkpoint with block tracing enabled".to_string(),
            ));
        }
        let mut w = CkptWriter::new();
        w.bytes(recipe);
        w.u64(self.target);
        w.u64(self.sim.fingerprint());
        self.sim.save_state(&mut w);
        Ok(w.finish())
    }

    /// Verifies a checkpoint envelope's integrity and returns its recipe
    /// section — the first step of a restore: the caller uses the recipe
    /// to rebuild the simulator [`Session::restore`] needs.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError`] if the envelope fails any integrity check
    /// (truncation, checksum, magic, version).
    pub fn recipe(envelope: &[u8]) -> Result<Vec<u8>, CkptError> {
        let mut r = CkptReader::new(envelope)?;
        Ok(r.bytes()?.to_vec())
    }

    /// Rebuilds a suspended session from a checkpoint envelope and a
    /// simulator freshly constructed from the envelope's recipe. The
    /// simulator's structural fingerprint must match the one sealed into
    /// the checkpoint; every mutable structure is then overwritten with
    /// the checkpointed state. The restored session resumes exactly where
    /// [`Session::checkpoint`] left off — the equivalence suite pins that
    /// a restored run finishes byte-identical to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError`] on any integrity failure, decode error, or
    /// fingerprint/geometry mismatch, and [`CkptError::Malformed`] if
    /// `sim` has already stepped: a checkpoint lists only the memory
    /// pages that differ from the build image, so it restores exactly
    /// only onto a simulator whose memory still *is* that image. The
    /// passed simulator is consumed; on error it is dropped (partially
    /// overwritten state must never be run).
    pub fn restore(mut sim: RevSimulator, envelope: &[u8]) -> Result<Self, CkptError> {
        let mut r = CkptReader::new(envelope)?;
        if sim.pipeline().now() != 0 {
            return Err(CkptError::Malformed(
                "cannot restore into a simulator that has already run".to_string(),
            ));
        }
        let _recipe = r.bytes()?;
        let target = r.u64()?;
        let fingerprint = r.u64()?;
        let have = sim.fingerprint();
        if fingerprint != have {
            return Err(CkptError::Malformed(format!(
                "simulator fingerprint {have:#018x} does not match checkpoint {fingerprint:#018x}"
            )));
        }
        sim.restore_state(&mut r)?;
        r.finish()?;
        Ok(Session { sim, target, finished: false })
    }

    /// Advances the run by at most `budget` committed instructions.
    ///
    /// Returns [`SessionStatus::Yielded`] when the budget ran out first
    /// and [`SessionStatus::Done`] when the run ended (target reached,
    /// halt, or violation). The monitor's end-of-run hook fires exactly
    /// once, on the `Done` transition — intermediate yields leave every
    /// microarchitectural structure untouched, which is what makes the
    /// sliced and monolithic runs indistinguishable.
    ///
    /// # Panics
    ///
    /// Panics if called again after `Done` (the run is over; a finished
    /// session has no more instructions to commit).
    pub fn run(&mut self, budget: u64) -> SessionStatus {
        assert!(!self.finished, "Session::run called after the session completed");
        let slice_target = self.committed().saturating_add(budget).min(self.target);
        let result = self.sim.run_slice(slice_target);
        match result.outcome {
            RunOutcome::BudgetReached if result.stats.committed_instrs < self.target => {
                SessionStatus::Yielded { committed: result.stats.committed_instrs }
            }
            RunOutcome::BudgetReached => {
                // The overall target, not just the slice budget: this is
                // the true end of the run, so fire the end-of-run hook
                // (the monolithic loop fires it on this path too).
                self.sim.finish_run();
                self.finished = true;
                SessionStatus::Done(Box::new(self.sim.report_from(result)))
            }
            // Halt, violation, oracle fault: terminal exits on which the
            // slice loop already fired the end-of-run hook.
            RunOutcome::Halted | RunOutcome::Violation(_) | RunOutcome::OracleFault { .. } => {
                self.finished = true;
                SessionStatus::Done(Box::new(self.sim.report_from(result)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RevConfig;
    use rev_isa::{BranchCond, Instruction, Reg};
    use rev_prog::{ModuleBuilder, Program};

    fn demo_program() -> Program {
        let mut b = ModuleBuilder::new("demo", 0x1000);
        let f = b.begin_function("main");
        let top = b.new_label();
        b.push(Instruction::Li { rd: Reg::R2, imm: 200 });
        b.bind(top);
        b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
        b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
        b.push(Instruction::Halt);
        b.end_function(f);
        let mut pb = Program::builder();
        pb.module(b.finish().unwrap());
        pb.build()
    }

    fn fresh(target: u64) -> Session {
        let sim = RevSimulator::new(demo_program(), RevConfig::paper_default()).unwrap();
        Session::new(sim, target)
    }

    /// Sessions are the unit the serve scheduler moves between worker
    /// threads; this must stay `Send`.
    #[test]
    fn session_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
        assert_send::<SessionStatus>();
    }

    #[test]
    fn sliced_report_matches_monolithic() {
        let mut mono = RevSimulator::new(demo_program(), RevConfig::paper_default()).unwrap();
        let want = mono.run(300);
        for budget in [1, 7, 1000, u64::MAX] {
            let mut s = fresh(300);
            let got = loop {
                match s.run(budget) {
                    SessionStatus::Yielded { committed } => assert!(committed < 300),
                    SessionStatus::Done(report) => break report,
                }
            };
            assert_eq!(format!("{:?}", got.outcome), format!("{:?}", want.outcome));
            assert_eq!(got.cpu.cycles, want.cpu.cycles, "budget={budget}");
            assert_eq!(got.cpu.committed_instrs, want.cpu.committed_instrs);
            assert_eq!(got.rev.validations, want.rev.validations);
            assert_eq!(got.rev.sc.probes(), want.rev.sc.probes());
        }
    }

    #[test]
    fn halt_ends_the_session_early() {
        // The demo program halts after ~400 committed instructions; a
        // huge target ends at the halt, exactly like the monolithic run.
        let mut s = fresh(u64::MAX);
        let report = loop {
            if let SessionStatus::Done(report) = s.run(64) {
                break report;
            }
        };
        assert_eq!(report.outcome, RunOutcome::Halted);
        assert!(s.is_finished());
    }

    #[test]
    fn progress_is_monotone_and_budget_bounded() {
        let mut s = fresh(250);
        let mut last = 0;
        loop {
            match s.run(50) {
                SessionStatus::Yielded { committed } => {
                    assert!(committed > last, "progress must be monotone");
                    assert!(committed <= last + 50 + 8, "a slice overshoots by at most one BB");
                    last = committed;
                }
                SessionStatus::Done(report) => {
                    assert!(report.cpu.committed_instrs >= 250);
                    break;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "after the session completed")]
    fn running_a_finished_session_panics() {
        let mut s = fresh(10);
        loop {
            if let SessionStatus::Done(_) = s.run(u64::MAX) {
                break;
            }
        }
        let _ = s.run(1);
    }
}
