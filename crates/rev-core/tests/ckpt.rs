//! Checkpoint/restore contract tests for the `rev-ckpt/1` envelope.
//!
//! The suite pins the three guarantees `docs/CHECKPOINT.md` documents:
//! a restore is exact (re-checkpointing a restored session reproduces
//! the envelope byte-for-byte), a restored run finishes identically to
//! an uninterrupted one, and a corrupted envelope is always rejected by
//! the trailing checksum — never silently restored.

use proptest::prelude::*;
use rev_core::{RevConfig, RevSimulator, Session, SessionStatus, ValidationMode};
use rev_isa::{BranchCond, Instruction, Reg};
use rev_prog::{ModuleBuilder, Program};
use rev_trace::CkptError;

fn demo_program() -> Program {
    let mut b = ModuleBuilder::new("demo", 0x1000);
    let f = b.begin_function("main");
    let top = b.new_label();
    b.push(Instruction::Li { rd: Reg::R2, imm: 200 });
    b.bind(top);
    b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
    b.push(Instruction::Store { rs: Reg::R1, rbase: Reg::R0, off: 0x200 });
    b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
    b.push(Instruction::Halt);
    b.end_function(f);
    let mut pb = Program::builder();
    pb.module(b.finish().unwrap());
    pb.build()
}

fn fresh_sim() -> RevSimulator {
    RevSimulator::new(demo_program(), RevConfig::paper_default()).unwrap()
}

/// Runs a fresh session for `budget` committed instructions and returns
/// it suspended (panics if the demo program finishes first).
fn suspended_at(budget: u64) -> Session {
    let mut s = Session::new(fresh_sim(), u64::MAX);
    match s.run(budget) {
        SessionStatus::Yielded { .. } => s,
        SessionStatus::Done(_) => panic!("demo program ended inside budget {budget}"),
    }
}

/// Full-fidelity fingerprint of a finished run: the outcome plus the
/// Debug form of every stats block (all counters and distributions).
///
/// The simulator-performance memo counters (`bb_cache_*`, `sb_*`,
/// `chg_lanes`) are masked: caches restore cold by design, so those
/// counters legitimately diverge after a restore. They are never
/// exported through `MetricSink` into the deterministic `rev.*`
/// snapshots — everything that is, is compared here exactly.
fn report_text(report: &rev_core::RevReport) -> String {
    let mut rev = report.rev.clone();
    rev.bb_cache_hits = 0;
    rev.bb_cache_misses = 0;
    rev.bb_cache_invalidations = 0;
    rev.sb_formed = 0;
    rev.sb_hits = 0;
    rev.sb_flushes = 0;
    rev.chg_lanes = 0;
    format!("{:?}|{:?}|{:?}|{:?}", report.outcome, report.cpu, rev, report.mem)
}

fn finish(mut s: Session) -> String {
    loop {
        if let SessionStatus::Done(report) = s.run(u64::MAX) {
            return report_text(&report);
        }
    }
}

#[test]
fn checkpoint_restore_rechckpoint_is_byte_identical() {
    let s = suspended_at(100);
    let env = s.checkpoint(b"job-recipe").unwrap();
    let restored = Session::restore(fresh_sim(), &env).unwrap();
    let env2 = restored.checkpoint(b"job-recipe").unwrap();
    assert_eq!(env, env2, "restore must be exact: re-checkpoint differs");
}

#[test]
fn restored_session_finishes_identical_to_uninterrupted() {
    let uninterrupted = finish(Session::new(fresh_sim(), u64::MAX));
    let s = suspended_at(100);
    let env = s.checkpoint(b"").unwrap();
    drop(s);
    let restored = Session::restore(fresh_sim(), &env).unwrap();
    assert_eq!(finish(restored), uninterrupted);
}

#[test]
fn recipe_round_trips() {
    let s = suspended_at(50);
    let env = s.checkpoint(b"{\"profile\":\"demo\"}").unwrap();
    assert_eq!(Session::recipe(&env).unwrap(), b"{\"profile\":\"demo\"}");
}

#[test]
fn single_bit_flips_are_rejected() {
    // Single-bit flips across a real envelope must all be rejected by
    // the trailing FNV checksum — never silently restored. The per-bit
    // *exhaustive* sweep lives in rev-trace's codec tests
    // (`every_bit_flip_is_rejected`, small buffers); each integrity
    // check here rehashes the whole envelope, so this level samples: every bit of the 12-byte header and the 8-byte
    // checksum, plus strided positions through the body, each with a
    // position-dependent bit.
    let s = suspended_at(60);
    let env = s.checkpoint(b"r").unwrap();
    let mut positions: Vec<usize> = (0..12).chain(env.len() - 8..env.len()).collect();
    let stride = (env.len() / 24).max(1);
    positions.extend((12..env.len() - 8).step_by(stride));
    let mut corrupt = env.clone();
    for &byte in &positions {
        for bit in 0..8 {
            // Header/checksum bytes get all 8 bits; body samples one
            // position-dependent bit to bound the rehash cost.
            if byte >= 12 && byte < env.len() - 8 && bit != (byte % 8) as u32 {
                continue;
            }
            corrupt[byte] ^= 1 << bit;
            assert!(
                matches!(Session::recipe(&corrupt), Err(CkptError::ChecksumMismatch { .. })),
                "byte {byte} bit {bit}: flip must be rejected by the checksum"
            );
            corrupt[byte] ^= 1 << bit;
        }
    }
    assert_eq!(corrupt, env);
    // restore() itself must hit the same gate before any state reaches
    // the simulator: check the envelope edges and a mid-body flip.
    for byte in [0, 12, env.len() / 2, env.len() - 1] {
        corrupt[byte] ^= 0x40;
        match Session::restore(fresh_sim(), &corrupt) {
            Err(CkptError::ChecksumMismatch { .. }) => {}
            other => panic!("byte {byte}: expected ChecksumMismatch, got {other:?}"),
        }
        corrupt[byte] ^= 0x40;
    }
}

#[test]
fn truncation_is_rejected() {
    let s = suspended_at(60);
    let env = s.checkpoint(b"r").unwrap();
    for cut in [0, 1, 11, env.len() / 2, env.len() - 1] {
        assert!(
            Session::restore(fresh_sim(), &env[..cut]).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }
}

#[test]
fn fingerprint_mismatch_is_rejected() {
    // A checkpoint from a Standard-mode session must refuse to restore
    // into a CfiOnly simulator: same program, different structural
    // fingerprint.
    let s = suspended_at(60);
    let env = s.checkpoint(b"r").unwrap();
    let other = RevSimulator::new(
        demo_program(),
        RevConfig::paper_default().with_mode(ValidationMode::CfiOnly),
    )
    .unwrap();
    match Session::restore(other, &env) {
        Err(CkptError::Malformed(msg)) => {
            assert!(msg.contains("fingerprint"), "unexpected message: {msg}");
        }
        other => panic!("expected fingerprint rejection, got {other:?}"),
    }
}

#[test]
fn finished_session_refuses_to_checkpoint() {
    let mut s = Session::new(fresh_sim(), 10);
    loop {
        if let SessionStatus::Done(_) = s.run(u64::MAX) {
            break;
        }
    }
    assert!(s.checkpoint(b"").is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Checkpointing at an arbitrary budget boundary and restoring is
    /// exact: the re-checkpoint is byte-identical and the resumed run
    /// finishes with the same outcome and metrics as the uninterrupted
    /// one, regardless of where the cut lands or how the resumed run is
    /// re-sliced.
    #[test]
    fn restore_is_exact_at_any_boundary(cut in 1u64..400, resume_slice in 1u64..97) {
        let uninterrupted = finish(Session::new(fresh_sim(), u64::MAX));
        let mut s = Session::new(fresh_sim(), u64::MAX);
        let status = s.run(cut);
        if let SessionStatus::Done(report) = status {
            // The cut landed past the halt: nothing to checkpoint, but
            // the monolithic outcome must still match.
            prop_assert_eq!(report_text(&report), uninterrupted);
            return Ok(());
        }
        let env = s.checkpoint(b"prop").unwrap();
        let restored = Session::restore(fresh_sim(), &env).unwrap();
        prop_assert_eq!(&restored.checkpoint(b"prop").unwrap(), &env);
        // Resume in odd-sized slices; the finish line must not move.
        let mut r = restored;
        let report = loop {
            if let SessionStatus::Done(report) = r.run(resume_slice) {
                break report;
            }
        };
        prop_assert_eq!(report_text(&report), uninterrupted);
    }

    /// Random byte-level corruption anywhere in the envelope is always
    /// detected as a checksum mismatch — never a silent restore, never
    /// a panic.
    #[test]
    fn random_corruption_never_restores(pos_seed in any::<u64>(), xor in 1u8..=255) {
        let s = suspended_at(80);
        let mut env = s.checkpoint(b"prop").unwrap();
        let pos = (pos_seed % env.len() as u64) as usize;
        env[pos] ^= xor;
        prop_assert!(matches!(
            Session::restore(fresh_sim(), &env),
            Err(CkptError::ChecksumMismatch { .. })
        ));
    }
}

/// The fork contract: [`Session::fork`] is byte-equivalent to sealing a
/// checkpoint and restoring it — the two paths must be interchangeable,
/// which is what lets the warm-start pool fork one warmed session per
/// sweep slot instead of round-tripping through the codec.
#[test]
fn fork_equals_checkpoint_restore_byte_for_byte() {
    let s = suspended_at(100);
    let forked = s.fork().unwrap();
    let env_orig = s.checkpoint(b"job-recipe").unwrap();
    let env_fork = forked.checkpoint(b"job-recipe").unwrap();
    assert_eq!(env_orig, env_fork, "fork must checkpoint byte-identical to its original");
    // And the fork resumes exactly like the restored session would.
    let restored = Session::restore(fresh_sim(), &env_orig).unwrap();
    assert_eq!(finish(forked), finish(restored));
}

/// Forking must not perturb the original: it finishes exactly as an
/// unforked run, and fork-of-fork stays on the same trajectory.
#[test]
fn fork_of_fork_and_original_all_finish_identical() {
    let uninterrupted = finish(Session::new(fresh_sim(), u64::MAX));
    let s = suspended_at(100);
    let fork1 = s.fork().unwrap();
    let fork2 = fork1.fork().unwrap();
    assert_eq!(
        fork1.checkpoint(b"x").unwrap(),
        fork2.checkpoint(b"x").unwrap(),
        "fork-of-fork must checkpoint byte-identical"
    );
    assert_eq!(finish(s), uninterrupted, "forking must not disturb the original");
    assert_eq!(finish(fork1), uninterrupted);
    assert_eq!(finish(fork2), uninterrupted);
}

/// Fork mirrors checkpoint's refusal rules: a finished session and a
/// session with an armed fault injector both refuse.
#[test]
fn fork_refusal_mirrors_checkpoint_rules() {
    let mut done = Session::new(fresh_sim(), 10);
    loop {
        if let SessionStatus::Done(_) = done.run(u64::MAX) {
            break;
        }
    }
    assert!(matches!(done.fork(), Err(CkptError::Malformed(_))));

    let mut sim = fresh_sim();
    sim.set_fault_injector(rev_trace::FaultInjector::armed(rev_trace::FaultSpec {
        layer: rev_trace::FaultLayer::ScEntry,
        kind: rev_trace::FaultKind::Transient,
        trigger: 1,
        bit: 0,
    }));
    let mut s = Session::new(sim, u64::MAX);
    match s.run(50) {
        SessionStatus::Yielded { .. } => {}
        SessionStatus::Done(_) => panic!("demo program ended inside budget"),
    }
    match s.fork() {
        Err(CkptError::Malformed(msg)) => {
            assert!(msg.contains("fault injector"), "unexpected message: {msg}");
        }
        other => panic!("expected injector refusal, got {other:?}"),
    }
}

/// Regression: a slice budget landing on the exact cycle the halt
/// commits used to pre-empt the drained-pipeline check, and the resumed
/// slice charged one cycle the monolithic run never ran. Every uniform
/// slicing of a halt-terminated run must finish cycle-identical.
#[test]
fn halt_on_slice_boundary_is_cycle_transparent() {
    let uninterrupted = finish(Session::new(fresh_sim(), u64::MAX));
    for budget in 1..=16u64 {
        let mut s = Session::new(fresh_sim(), u64::MAX);
        let text = loop {
            if let SessionStatus::Done(r) = s.run(budget) {
                break report_text(&r);
            }
        };
        assert_eq!(text, uninterrupted, "budget={budget}");
    }
}

/// A delta checkpoint restores exactly only onto a fresh build, so a
/// simulator that has already stepped is refused before any state
/// reaches it.
#[test]
fn restore_refuses_a_simulator_that_has_run() {
    let env = suspended_at(60).checkpoint(b"r").unwrap();
    let mut warmed = fresh_sim();
    warmed.warmup(30);
    match Session::restore(warmed, &env) {
        Err(CkptError::Malformed(msg)) => {
            assert!(msg.contains("already run"), "unexpected message: {msg}");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
}

/// A counting loop whose bound is loaded from the module's data section
/// on every iteration.
fn data_bound_program() -> Program {
    let mut b = ModuleBuilder::new("bound", 0x1000);
    let bound = b.data_u64s(&[400]);
    let f = b.begin_function("main");
    let top = b.new_label();
    b.li_data(Reg::R3, bound);
    b.bind(top);
    b.push(Instruction::Load { rd: Reg::R2, rbase: Reg::R3, off: 0 });
    b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
    b.push(Instruction::Store { rs: Reg::R1, rbase: Reg::R0, off: 0x200 });
    b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
    b.push(Instruction::Halt);
    b.end_function(f);
    let mut pb = Program::builder();
    pb.module(b.finish().unwrap());
    pb.build()
}

/// Finishes `s` and renders the report plus digests of both memory
/// views, so a lost or stale page shows up even where no counter moves.
fn finish_with_memory(mut s: Session) -> String {
    let report = loop {
        if let SessionStatus::Done(report) = s.run(u64::MAX) {
            break report;
        }
    };
    let sim = s.simulator();
    format!(
        "{}|live={:#x}|committed={:#x}",
        report_text(&report),
        sim.pipeline().oracle().mem().content_digest(u64::MAX),
        sim.monitor().committed().content_digest(u64::MAX)
    )
}

/// Build-image pages rewritten mid-run by `inject` — the loop bound in
/// the data section and the final `halt` in the code — differ from the
/// build image, so a checkpoint must carry them: the restored run
/// finishes exactly like the uninterrupted one, and re-checkpointing the
/// restored session reproduces the envelope byte for byte.
#[test]
fn injected_code_and_data_survive_delta_checkpoint() {
    let (halt_at, bound_at) = {
        let p = data_bound_program();
        let m = &p.modules()[0];
        assert_eq!(m.decode_at(m.code_end() - 1).unwrap().0, Instruction::Halt);
        (m.code_end() - 1, m.data_base())
    };
    let warmed = |inject: bool| {
        let mut sim = RevSimulator::new(data_bound_program(), RevConfig::paper_default()).unwrap();
        sim.warmup(100);
        if inject {
            sim.inject(|mem| {
                mem.write_u64(bound_at, 250);
                mem.write_bytes(halt_at, &Instruction::Nop.encode());
            });
        }
        Session::new(sim, u64::MAX)
    };
    let untouched = finish_with_memory(warmed(false));
    let uninterrupted = finish_with_memory(warmed(true));
    assert_ne!(uninterrupted, untouched, "the injection must change the run");

    let mut s = warmed(true);
    assert!(matches!(s.run(200), SessionStatus::Yielded { .. }), "must park mid-loop");
    let env = s.checkpoint(b"inject").unwrap();
    drop(s);
    let fresh = RevSimulator::new(data_bound_program(), RevConfig::paper_default()).unwrap();
    let restored = Session::restore(fresh, &env).unwrap();
    assert_eq!(restored.checkpoint(b"inject").unwrap(), env, "re-checkpoint differs");
    assert_eq!(finish_with_memory(restored), uninterrupted);
}
