//! Tests of the pipeline↔monitor protocol: commit gating (StallUntil and
//! Violation), store custody, deferral back-pressure and flush reporting.

use rev_cpu::{
    CommitGate, CommitQuery, CpuConfig, ExecMonitor, FetchEvent, Memory, Oracle, Pipeline,
    RunOutcome, StoreCommit, Violation, ViolationKind,
};
use rev_isa::{BranchCond, Instruction, Reg};
use rev_mem::{Hierarchy, MainMemory, MemConfig};
use rev_prog::{ModuleBuilder, Program};

fn program<F: FnOnce(&mut ModuleBuilder)>(f: F) -> Program {
    let mut b = ModuleBuilder::new("t", 0x1000);
    f(&mut b);
    let mut pb = Program::builder();
    pb.module(b.finish().expect("assembles"));
    pb.build()
}

fn pipeline(p: &Program) -> Pipeline {
    let mem = MainMemory::with_segments(&p.segments());
    let oracle = Oracle::new(mem, p.entry(), p.initial_sp());
    Pipeline::new(CpuConfig::paper_default(), MemConfig::paper_default(), oracle)
}

/// A monitor that stalls every terminator commit by a fixed number of
/// cycles, counts protocol events, and can refuse stores or raise a
/// violation on demand.
#[derive(Debug, Default)]
struct ProtocolMonitor {
    stall_cycles: u64,
    fetches: u64,
    wrong_path_fetches: u64,
    boundaries: u64,
    commits_gated: u64,
    stores: Vec<StoreCommit>,
    flushes: u64,
    refuse_stores: bool,
    refuse_store_polls: u64,
    violate_at_commit: Option<u64>,
    retries: u64,
}

impl ExecMonitor for ProtocolMonitor {
    fn on_fetch(&mut self, _mem: &mut Hierarchy, _memory: &Memory, event: &FetchEvent) -> bool {
        self.fetches += 1;
        if event.wrong_path {
            self.wrong_path_fetches += 1;
        }
        let b = event.insn.is_bb_terminator();
        if b {
            self.boundaries += 1;
        }
        b
    }

    fn on_flush(&mut self, _from_seq: u64) {
        self.flushes += 1;
    }

    fn on_terminator_commit(
        &mut self,
        _mem: &mut Hierarchy,
        _memory: &mut Memory,
        q: &CommitQuery,
    ) -> CommitGate {
        if let Some(n) = self.violate_at_commit {
            if self.commits_gated >= n {
                return CommitGate::Violation(Violation {
                    kind: ViolationKind::HashMismatch,
                    bb_addr: q.bb_addr,
                    actual_target: q.actual_target,
                    cycle: q.cycle,
                });
            }
        }
        // Stall each boundary once, then proceed on the retry.
        if self.stall_cycles > 0 && self.retries == 0 {
            self.retries = 1;
            return CommitGate::StallUntil(q.cycle + self.stall_cycles);
        }
        self.retries = 0;
        self.commits_gated += 1;
        CommitGate::Proceed
    }

    fn on_store_commit(&mut self, _mem: &mut Hierarchy, memory: &mut Memory, store: StoreCommit) {
        memory.release(store.seq, store.addr, store.value);
        self.stores.push(store);
    }

    fn can_accept_store(&self) -> bool {
        !self.refuse_stores
    }

    fn forwards_store(&self, _addr: u64) -> bool {
        false
    }
}

// can_accept_store has no &mut self, so polling counts are approximated by
// observing stall statistics instead.

#[test]
fn stall_until_delays_commit_by_the_requested_amount() {
    let p = program(|b| {
        for _ in 0..50 {
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
            b.push(Instruction::Nop);
        }
        b.push(Instruction::Halt);
    });
    let run = |stall: u64| {
        let mut pl = pipeline(&p);
        let mut m = ProtocolMonitor { stall_cycles: stall, ..Default::default() };
        let r = pl.run(&mut m, 10_000);
        assert_eq!(r.outcome, RunOutcome::Halted);
        (r.stats.cycles, r.stats.validation_stall_cycles, m.commits_gated)
    };
    let (free_cycles, free_stall, gated) = run(0);
    let (slow_cycles, slow_stall, gated2) = run(40);
    assert_eq!(gated, gated2, "same boundaries either way");
    assert_eq!(free_stall, 0);
    assert!(slow_stall > 0, "stalls recorded");
    // Only one boundary (the halt): the stall should show up in cycles.
    assert!(slow_cycles > free_cycles, "{slow_cycles} vs {free_cycles}");
}

#[test]
fn violation_from_monitor_ends_the_run_and_reports() {
    let p = program(|b| {
        let top = b.new_label();
        b.push(Instruction::Li { rd: Reg::R2, imm: 1_000_000 });
        b.bind(top);
        b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
        b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
        b.push(Instruction::Halt);
    });
    let mut pl = pipeline(&p);
    let mut m = ProtocolMonitor { violate_at_commit: Some(5), ..Default::default() };
    let r = pl.run(&mut m, 1_000_000);
    match r.outcome {
        RunOutcome::Violation(v) => assert_eq!(v.kind, ViolationKind::HashMismatch),
        other => panic!("expected violation, got {other:?}"),
    }
    assert_eq!(m.commits_gated, 5, "exactly five boundaries committed before the violation");
}

#[test]
fn refused_stores_stall_commit_forever_is_detected_as_deadlock() {
    let p = program(|b| {
        b.push(Instruction::Li { rd: Reg::R5, imm: 0x9000 });
        b.push(Instruction::Store { rs: Reg::R5, rbase: Reg::R5, off: 0 });
        b.push(Instruction::Halt);
    });
    let mut pl = pipeline(&p);
    let mut m = ProtocolMonitor { refuse_stores: true, ..Default::default() };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pl.run(&mut m, 1_000)));
    assert!(result.is_err(), "a permanently refused store must trip the deadlock guard");
    let _ = m.refuse_store_polls;
}

#[test]
fn stores_arrive_in_commit_order_with_values() {
    let p = program(|b| {
        let buf = b.data_zeroed(64);
        b.li_data(Reg::R5, buf);
        for i in 0..5 {
            b.push(Instruction::Li { rd: Reg::R6, imm: 100 + i });
            b.push(Instruction::Store { rs: Reg::R6, rbase: Reg::R5, off: (8 * i) as i32 });
        }
        b.push(Instruction::Halt);
    });
    let mut pl = pipeline(&p);
    let mut m = ProtocolMonitor::default();
    let r = pl.run(&mut m, 1_000);
    assert_eq!(r.outcome, RunOutcome::Halted);
    assert_eq!(m.stores.len(), 5);
    for (i, s) in m.stores.iter().enumerate() {
        assert_eq!(s.value, 100 + i as u64);
    }
    assert!(m.stores.windows(2).all(|w| w[0].seq < w[1].seq), "commit order");
}

#[test]
fn wrong_path_fetches_are_reported_then_flushed() {
    let p = program(|b| {
        // A data-dependent (unpredictable) branch drives wrong-path fetch.
        let top = b.new_label();
        let skip = b.new_label();
        b.push(Instruction::Li { rd: Reg::R2, imm: 200 });
        b.push(Instruction::Li { rd: Reg::R10, imm: 7 });
        b.bind(top);
        b.push(Instruction::MulI { rd: Reg::R10, rs: Reg::R10, imm: 1_103_515_245 });
        b.push(Instruction::AndI { rd: Reg::R11, rs: Reg::R10, imm: 0x40 });
        b.branch(BranchCond::Ne, Reg::R11, Reg::R0, skip);
        b.push(Instruction::AddI { rd: Reg::R3, rs: Reg::R3, imm: 1 });
        b.bind(skip);
        b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
        b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
        b.push(Instruction::Halt);
    });
    let mut pl = pipeline(&p);
    let mut m = ProtocolMonitor::default();
    let r = pl.run(&mut m, 100_000);
    assert_eq!(r.outcome, RunOutcome::Halted);
    assert!(m.wrong_path_fetches > 0, "wrong-path fetches reported to the monitor");
    assert!(m.flushes > 0, "flushes reported");
    assert_eq!(m.flushes, r.stats.mispredicts, "one flush per resolved mispredict");
}

#[test]
fn instruction_mix_accounts_for_every_commit() {
    let p = program(|b| {
        let buf = b.data_zeroed(64);
        b.li_data(Reg::R5, buf);
        b.push(Instruction::Li { rd: Reg::R6, imm: 7 });
        b.push(Instruction::Store { rs: Reg::R6, rbase: Reg::R5, off: 0 });
        b.push(Instruction::Load { rd: Reg::R7, rbase: Reg::R5, off: 0 });
        b.push(Instruction::Fpu {
            op: rev_isa::FpuOp::Add,
            fd: rev_isa::FReg::F1,
            fs1: rev_isa::FReg::F1,
            fs2: rev_isa::FReg::F2,
        });
        b.push(Instruction::Halt);
    });
    let mut pl = pipeline(&p);
    let mut m = ProtocolMonitor::default();
    let r = pl.run(&mut m, 1_000);
    assert_eq!(r.outcome, RunOutcome::Halted);
    let mix = r.stats.mix;
    assert_eq!(mix.total(), r.stats.committed_instrs);
    assert_eq!(mix.stores, 1);
    assert_eq!(mix.loads, 1);
    assert_eq!(mix.fp, 1);
    assert!(mix.int_alu >= 2); // li + li_data
    assert_eq!(mix.other, 1); // halt
}
