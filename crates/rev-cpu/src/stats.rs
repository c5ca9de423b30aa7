//! Run statistics — the counters behind the paper's Figures 6–9.

use rev_isa::InstrClass;
use rev_mem::FlatSet;

rev_trace::stats! {
    /// Committed-instruction mix by class.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct InstrMix {
        /// Integer ALU (including multiplies).
        pub int_alu: u64 => "cpu.mix.int_alu",
        /// Floating-point operations.
        pub fp: u64 => "cpu.mix.fp",
        /// Loads (including return-address pops).
        pub loads: u64 => "cpu.mix.loads",
        /// Stores (including call pushes).
        pub stores: u64 => "cpu.mix.stores",
        /// Control-flow instructions.
        pub branches: u64 => "cpu.mix.branches",
        /// Everything else (nop/halt/syscall).
        pub other: u64 => "cpu.mix.other",
    }
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

rev_trace::stats! {
    /// Aggregate counters for one simulation run.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct CpuStats {
        /// Cycles simulated.
        pub cycles: u64 => "cpu.cycles",
        /// Correct-path instructions committed.
        pub committed_instrs: u64 => "cpu.instructions",
        /// Committed control-flow instructions (paper Fig. 8).
        pub committed_branches: u64 => "cpu.branches.committed",
        /// Committed conditional branches.
        pub committed_cond_branches: u64 => "cpu.branches.conditional",
        /// Conditional branches whose direction mispredicted.
        pub mispredicts: u64 => "cpu.branches.mispredicts",
        /// Computed jumps/calls + returns committed.
        pub committed_computed: u64 => "cpu.branches.computed",
        /// Wrong-path instructions fetched then squashed.
        pub wrong_path_fetched: u64 => "cpu.wrong_path_fetched",
        /// Cycles the ROB head was blocked by the monitor's commit gate
        /// (REV validation stalls; 0 in the baseline).
        pub validation_stall_cycles: u64 => "cpu.stall.validation",
        /// Cycles commit was blocked because the deferred-store buffer was full.
        pub defer_full_stall_cycles: u64 => "cpu.stall.defer_full",
        /// Committed-instruction mix by class.
        pub mix: InstrMix => nested,
        /// Distinct committed BB-terminator addresses (paper Fig. 9,
        /// "unique branches during execution"). It travels as sorted
        /// logical content, so hash iteration order never leaks into a
        /// checkpoint.
        pub unique_branch_addrs: FlatSet<u64> => ckpt,
    }
    then |s, reg| {
        reg.gauge("cpu.ipc", s.ipc());
        reg.gauge("cpu.branches.mispredict_rate", s.mispredict_rate());
        reg.counter("cpu.branches.unique", s.unique_branches() as u64);
    }
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
