//! Mounting attacks and adjudicating detection + containment.

use crate::victim::{victim_program, VictimMap, TAINT_VALUE};
use crate::{AttackError, AttackKind};
use rev_core::{RevConfig, RevSimulator, Violation};
use rev_cpu::{CpuConfig, NullMonitor, Oracle, Pipeline};
use rev_isa::{Instruction, Reg};
use rev_mem::{MainMemory, MemConfig};

/// Instructions committed before the attacker strikes.
const WARMUP: u64 = 30_000;
/// Total committed-instruction budget for the post-attack window.
const TOTAL: u64 = 300_000;

/// The result of mounting one attack.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Which attack ran.
    pub kind: AttackKind,
    /// Whether REV raised a violation.
    pub detected: bool,
    /// The violation details, if detected.
    pub violation: Option<Violation>,
    /// Whether any malicious store reached validated memory (the canary
    /// cell). REV's containment guarantee (requirement R5) demands this
    /// stays `false`.
    pub tainted: bool,
    /// Correct-path instructions committed when the run ended.
    pub committed: u64,
}

/// Emits the attack's external memory writes through `write`.
fn attack_writes(kind: AttackKind, map: &VictimMap, write: &mut dyn FnMut(u64, &[u8])) {
    match kind {
        AttackKind::DirectCodeInjection => {
            // Overwrite the marker instruction (same length) with a store
            // of the loop counter over the canary: `st r15, 16(r10)`.
            let evil = Instruction::Store { rs: Reg::R15, rbase: Reg::R10, off: 16 }.encode();
            write(map.patch_addr, &evil);
        }
        AttackKind::IndirectCodeInjection => {
            // Shellcode in writable memory + stack-smash redirect to it.
            let mut code = Vec::new();
            Instruction::Li { rd: Reg::R9, imm: TAINT_VALUE }.encode_into(&mut code);
            Instruction::Li { rd: Reg::R10, imm: map.canary_addr }.encode_into(&mut code);
            Instruction::Store { rs: Reg::R9, rbase: Reg::R10, off: 0 }.encode_into(&mut code);
            Instruction::Halt.encode_into(&mut code);
            write(map.inject_region, &code);
            write(map.flag_addr, &1u64.to_le_bytes());
            write(map.evil_addr, &map.inject_region.to_le_bytes());
        }
        AttackKind::ReturnOriented => {
            write(map.flag_addr, &1u64.to_le_bytes());
            write(map.evil_addr, &map.gadget_addr.to_le_bytes());
        }
        AttackKind::JumpOriented => {
            write(map.jt_slot_addr, &map.gadget_addr.to_le_bytes());
        }
        AttackKind::VtableCompromise => {
            write(map.vtable_slot_addr, &map.lonely_addr.to_le_bytes());
        }
        AttackKind::ReturnToLibc => {
            write(map.flag_addr, &1u64.to_le_bytes());
            write(map.evil_addr, &map.libc_privileged_addr.to_le_bytes());
        }
        AttackKind::TableTamper => {
            unreachable!("table tampering needs table placement; handled in mount()")
        }
    }
}

/// Mounts `kind` against the victim on a REV-protected machine.
///
/// # Errors
///
/// Returns [`AttackError`] if the victim fails to assemble, the
/// simulator rejects the configuration, or the victim violates during
/// warmup (a broken scenario, not a detected attack).
pub fn mount(kind: AttackKind, config: RevConfig) -> Result<AttackOutcome, AttackError> {
    // Table tampering is only observable when the SC re-reads the table,
    // so that scenario runs with a miss-prone (tiny) SC.
    let config =
        if kind == AttackKind::TableTamper { config.with_sc_capacity(256) } else { config };
    let (program, map) = victim_program()?;
    // Tables come from the build cache, one build per mode; tampering
    // XORs the copy placed in simulated memory, never the cached tables.
    let mut sim = RevSimulator::cached(program, config)?;
    let warm = sim.run(WARMUP);
    if let Some(v) = warm.rev.violation {
        return Err(AttackError::DirtyWarmup(v));
    }
    if kind == AttackKind::TableTamper {
        let ranges: Vec<(u64, usize)> =
            sim.monitor().sag().tables().iter().map(|t| (t.base(), t.image().len())).collect();
        sim.inject(move |mem| {
            for &(base, len) in &ranges {
                for off in (16..len as u64).step_by(16) {
                    let b = mem.read_u8(base + off);
                    mem.write_u8(base + off, b ^ 0xa5);
                }
            }
        });
    } else {
        sim.inject(|mem| {
            attack_writes(kind, &map, &mut |addr, bytes| mem.write_bytes(addr, bytes));
        });
    }
    let report = sim.run(WARMUP + TOTAL);
    let violation = report.rev.violation;
    Ok(AttackOutcome {
        kind,
        detected: violation.is_some(),
        violation,
        tainted: sim.monitor().committed().read_u64(map.canary_addr) != 0,
        committed: report.cpu.committed_instrs,
    })
}

/// Mounts `kind` against the victim on an **unprotected** machine (no
/// REV): demonstrates that the attacks genuinely work — the canary gets
/// tainted — when nothing validates the execution.
///
/// # Errors
///
/// Returns [`AttackError`] if the victim fails to assemble.
pub fn mount_unprotected(kind: AttackKind) -> Result<AttackOutcome, AttackError> {
    let (program, map) = victim_program()?;
    let memory = MainMemory::with_segments(&program.segments());
    let oracle = Oracle::new(memory.clone(), program.entry(), program.initial_sp());
    let mut pipeline =
        Pipeline::new(CpuConfig::paper_default(), MemConfig::paper_default(), oracle);
    let mut monitor = NullMonitor::new(memory);
    pipeline.run(&mut monitor, WARMUP);
    if kind != AttackKind::TableTamper {
        let mut writes: Vec<(u64, Vec<u8>)> = Vec::new();
        attack_writes(kind, &map, &mut |addr, bytes| writes.push((addr, bytes.to_vec())));
        for (addr, bytes) in &writes {
            pipeline.oracle_mut().mem_mut().write_bytes(*addr, bytes);
            monitor.committed_mut().write_bytes(*addr, bytes);
        }
    }
    let result = pipeline.run(&mut monitor, WARMUP + TOTAL);
    Ok(AttackOutcome {
        kind,
        detected: false,
        violation: None,
        tainted: monitor.committed().read_u64(map.canary_addr) != 0,
        committed: result.stats.committed_instrs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rev_core::ViolationKind;

    fn check(kind: AttackKind, expect: &[ViolationKind]) {
        let out = mount(kind, RevConfig::paper_default()).expect("scenario mounts");
        assert!(out.detected, "{kind} not detected");
        let got = out.violation.expect("violation present").kind;
        assert!(expect.contains(&got), "{kind}: expected one of {expect:?}, got {got:?}");
        assert!(!out.tainted, "{kind}: tainted store escaped containment");
    }

    #[test]
    fn direct_code_injection_detected() {
        check(AttackKind::DirectCodeInjection, &[ViolationKind::HashMismatch]);
    }

    #[test]
    fn indirect_code_injection_detected() {
        check(
            AttackKind::IndirectCodeInjection,
            &[ViolationKind::NoTable, ViolationKind::HashMismatch],
        );
    }

    #[test]
    fn rop_detected() {
        check(
            AttackKind::ReturnOriented,
            &[ViolationKind::ReturnMismatch, ViolationKind::HashMismatch],
        );
    }

    #[test]
    fn jop_detected() {
        check(AttackKind::JumpOriented, &[ViolationKind::IllegalTarget]);
    }

    #[test]
    fn vtable_detected() {
        check(AttackKind::VtableCompromise, &[ViolationKind::IllegalTarget]);
    }

    #[test]
    fn return_to_libc_detected() {
        check(
            AttackKind::ReturnToLibc,
            &[ViolationKind::ReturnMismatch, ViolationKind::HashMismatch],
        );
    }

    #[test]
    fn table_tamper_detected() {
        let out =
            mount(AttackKind::TableTamper, RevConfig::paper_default()).expect("scenario mounts");
        assert!(out.detected);
        assert!(matches!(
            out.violation.unwrap().kind,
            ViolationKind::TableCorrupt | ViolationKind::HashMismatch
        ));
    }

    #[test]
    fn unprotected_machine_is_actually_compromised() {
        // The attacks must be real: without REV, the canary gets tainted.
        for kind in [
            AttackKind::DirectCodeInjection,
            AttackKind::IndirectCodeInjection,
            AttackKind::ReturnOriented,
            AttackKind::JumpOriented,
            AttackKind::VtableCompromise,
            AttackKind::ReturnToLibc,
        ] {
            let out = mount_unprotected(kind).expect("scenario mounts");
            assert!(out.tainted, "{kind} failed to compromise the unprotected machine");
        }
    }
}
