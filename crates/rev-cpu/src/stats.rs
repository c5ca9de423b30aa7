//! Run statistics — the counters behind the paper's Figures 6–9.

use rev_isa::InstrClass;
use rev_mem::FlatSet;
use rev_trace::{MetricRegistry, MetricSink};

/// Committed-instruction mix by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrMix {
    /// Integer ALU (including multiplies).
    pub int_alu: u64,
    /// Floating-point operations.
    pub fp: u64,
    /// Loads (including return-address pops).
    pub loads: u64,
    /// Stores (including call pushes).
    pub stores: u64,
    /// Control-flow instructions.
    pub branches: u64,
    /// Everything else (nop/halt/syscall).
    pub other: u64,
}

impl InstrMix {
    /// Records one committed instruction.
    pub fn record(&mut self, class: InstrClass) {
        match class {
            InstrClass::IntAlu | InstrClass::IntMul => self.int_alu += 1,
            InstrClass::Fp | InstrClass::FpDiv => self.fp += 1,
            InstrClass::Load => self.loads += 1,
            InstrClass::Store => self.stores += 1,
            InstrClass::CondBranch
            | InstrClass::Jump
            | InstrClass::CallDirect
            | InstrClass::JumpIndirect
            | InstrClass::CallIndirect
            | InstrClass::Return => self.branches += 1,
            InstrClass::Syscall | InstrClass::Other => self.other += 1,
        }
    }

    /// Total committed instructions recorded.
    pub fn total(&self) -> u64 {
        self.int_alu + self.fp + self.loads + self.stores + self.branches + self.other
    }
}

/// Aggregate counters for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct CpuStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Correct-path instructions committed.
    pub committed_instrs: u64,
    /// Committed control-flow instructions (paper Fig. 8).
    pub committed_branches: u64,
    /// Committed conditional branches.
    pub committed_cond_branches: u64,
    /// Conditional branches whose direction mispredicted.
    pub mispredicts: u64,
    /// Computed jumps/calls + returns committed.
    pub committed_computed: u64,
    /// Wrong-path instructions fetched then squashed.
    pub wrong_path_fetched: u64,
    /// Cycles the ROB head was blocked by the monitor's commit gate
    /// (REV validation stalls; 0 in the baseline).
    pub validation_stall_cycles: u64,
    /// Cycles commit was blocked because the deferred-store buffer was full.
    pub defer_full_stall_cycles: u64,
    /// Committed-instruction mix by class.
    pub mix: InstrMix,
    /// Distinct committed BB-terminator addresses (paper Fig. 9,
    /// "unique branches during execution").
    pub unique_branch_addrs: FlatSet<u64>,
}

impl CpuStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_instrs as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.committed_cond_branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.committed_cond_branches as f64
        }
    }

    /// Number of unique committed branch addresses.
    pub fn unique_branches(&self) -> usize {
        self.unique_branch_addrs.len()
    }
}

rev_trace::ckpt_fields!(Ckpt for InstrMix { int_alu, fp, loads, stores, branches, other });

// The unique-branch set travels as sorted logical content, so hash
// iteration order never leaks into a checkpoint.
rev_trace::ckpt_fields!(Ckpt for CpuStats {
    cycles, committed_instrs, committed_branches, committed_cond_branches, mispredicts,
    committed_computed, wrong_path_fetched, validation_stall_cycles, defer_full_stall_cycles, mix,
    unique_branch_addrs,
});

impl MetricSink for CpuStats {
    fn export_metrics(&self, reg: &mut MetricRegistry) {
        reg.counter("cpu.cycles", self.cycles);
        reg.counter("cpu.instructions", self.committed_instrs);
        reg.gauge("cpu.ipc", self.ipc());
        reg.counter("cpu.branches.committed", self.committed_branches);
        reg.counter("cpu.branches.conditional", self.committed_cond_branches);
        reg.counter("cpu.branches.computed", self.committed_computed);
        reg.counter("cpu.branches.mispredicts", self.mispredicts);
        reg.gauge("cpu.branches.mispredict_rate", self.mispredict_rate());
        reg.counter("cpu.branches.unique", self.unique_branches() as u64);
        reg.counter("cpu.wrong_path_fetched", self.wrong_path_fetched);
        reg.counter("cpu.stall.validation", self.validation_stall_cycles);
        reg.counter("cpu.stall.defer_full", self.defer_full_stall_cycles);
        reg.counter("cpu.mix.int_alu", self.mix.int_alu);
        reg.counter("cpu.mix.fp", self.mix.fp);
        reg.counter("cpu.mix.loads", self.mix.loads);
        reg.counter("cpu.mix.stores", self.mix.stores);
        reg.counter("cpu.mix.branches", self.mix.branches);
        reg.counter("cpu.mix.other", self.mix.other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_rates() {
        let mut s = CpuStats::default();
        assert_eq!(s.ipc(), 0.0);
        s.cycles = 100;
        s.committed_instrs = 150;
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        s.committed_cond_branches = 10;
        s.mispredicts = 1;
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);
        s.unique_branch_addrs.insert(1);
        s.unique_branch_addrs.insert(1);
        s.unique_branch_addrs.insert(2);
        assert_eq!(s.unique_branches(), 2);
    }
}
