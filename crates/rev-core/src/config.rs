//! REV mechanism configuration.

use rev_crypto::ChgConfig;
use rev_prog::BbLimits;
use rev_sigtable::ValidationMode;

/// How unvalidated memory updates are contained (requirement R5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Containment {
    /// The paper's main design: committed stores wait in the post-commit
    /// ROB/store-queue extension until their basic block validates
    /// (Sec. IV.A, Fig. 1).
    DeferredStores,
    /// The paper's stricter alternative: page shadowing — no update
    /// becomes architectural until the *entire* execution authenticates;
    /// a violation discards everything (Sec. IV.A).
    ShadowPages,
}

/// Configuration of the REV hardware additions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevConfig {
    /// Validation mode (standard / aggressive / CFI-only).
    pub mode: ValidationMode,
    /// Signature-cache capacity in bytes (the paper evaluates 32 KiB and
    /// 64 KiB).
    pub sc_capacity: usize,
    /// Signature-cache associativity (paper: 4).
    pub sc_assoc: usize,
    /// Successor/predecessor addresses kept per SC entry (the paper's
    /// "most recently used branches are maintained within the SC entry").
    pub sc_mru: usize,
    /// CHG pipeline (latency `H`; the paper assumes `H = S = 16`).
    pub chg: ChgConfig,
    /// AES decrypt latency charged per table entry on the SC-fill path.
    pub decrypt_latency: u64,
    /// Artificial BB split limits (bounds the post-commit buffers).
    pub bb_limits: BbLimits,
    /// Post-commit deferred-store buffer capacity (the store-queue
    /// extension of Fig. 1).
    pub defer_capacity: usize,
    /// SAG base/limit/key register triples (`B`; paper suggests 16–32).
    pub sag_modules: usize,
    /// Penalty in cycles when a cross-module transfer misses all SAG
    /// registers and the management exception handler must run.
    pub sag_miss_penalty: u64,
    /// Memory-update containment policy.
    pub containment: Containment,
    /// Ablation switch: validate return targets eagerly by walking the
    /// return block's (potentially long) successor list, instead of the
    /// paper's delayed two-step scheme (Sec. V.A). The paper introduces
    /// delayed validation precisely to avoid this walk; enabling this
    /// reproduces the cost it avoids.
    pub naive_return_validation: bool,
    /// Bounded re-fetch budget for signature-line integrity failures: a
    /// reference line that fails its post-decrypt check is re-read from
    /// RAM up to this many extra times (a transient DRAM fault heals; a
    /// real tamper or stuck fault re-fails and escalates to the kill
    /// verdict). 0 restores fail-on-first-mismatch.
    pub sigline_retries: u32,
    /// Superblock memoization: replay validated hot chains of basic
    /// blocks as one cached check instead of the full per-BB gate
    /// sequence. A pure simulator-speed memo — every architectural
    /// counter and snapshot is byte-identical with it off (the
    /// equivalence suite enforces this). Default on; `rev-serve` job specs
    /// and the equivalence tests turn it off to run the legacy path.
    pub superblocks: bool,
}

/// A rejected [`RevConfig`] parameter: user-supplied geometry the REV
/// hardware model cannot run with. Produced by [`RevConfig::validate`] so
/// misconfiguration surfaces at build time as a structured error instead
/// of a constructor panic mid-build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevConfigError {
    /// The offending field.
    pub parameter: &'static str,
    /// The rejected value.
    pub value: u64,
    /// What the field must satisfy.
    pub requirement: &'static str,
}

impl std::fmt::Display for RevConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "REV config: {} = {} but {}", self.parameter, self.value, self.requirement)
    }
}

impl std::error::Error for RevConfigError {}

impl RevConfig {
    /// Rejects geometry the model cannot run with: a zero-way or
    /// non-power-of-two-set SC, a zero-capacity deferred-store buffer or
    /// CHG. `RevSimulator` calls this before constructing the monitor.
    pub fn validate(&self) -> Result<(), RevConfigError> {
        let err =
            |parameter, value, requirement| Err(RevConfigError { parameter, value, requirement });
        if self.sc_assoc < 1 {
            return err("sc_assoc", self.sc_assoc as u64, "must be at least 1");
        }
        let entries = self.sc_capacity / self.mode.entry_size();
        let num_sets = (entries / self.sc_assoc).max(1);
        if !num_sets.is_power_of_two() {
            return err(
                "sc_capacity",
                self.sc_capacity as u64,
                "must imply a power-of-two SC set count",
            );
        }
        if self.defer_capacity < 1 {
            return err("defer_capacity", self.defer_capacity as u64, "must be at least 1");
        }
        if self.chg.capacity < 1 {
            return err("chg.capacity", self.chg.capacity as u64, "must be at least 1");
        }
        Ok(())
    }

    /// The paper's evaluated configuration: standard validation, 32 KiB
    /// 4-way SC, 16-cycle CHG.
    pub fn paper_default() -> Self {
        RevConfig {
            mode: ValidationMode::Standard,
            sc_capacity: 32 << 10,
            sc_assoc: 4,
            sc_mru: 2,
            chg: ChgConfig::default(),
            decrypt_latency: 2,
            bb_limits: BbLimits::default(),
            defer_capacity: 48,
            sag_modules: 16,
            sag_miss_penalty: 400,
            containment: Containment::DeferredStores,
            naive_return_validation: false,
            sigline_retries: 2,
            superblocks: true,
        }
    }

    /// Same machine with a 64 KiB SC (the paper's second design point).
    pub fn paper_64k() -> Self {
        RevConfig { sc_capacity: 64 << 10, ..Self::paper_default() }
    }

    /// Switches the validation mode.
    pub fn with_mode(mut self, mode: ValidationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Switches the SC capacity.
    pub fn with_sc_capacity(mut self, bytes: usize) -> Self {
        self.sc_capacity = bytes;
        self
    }

    /// Toggles superblock memoization (default on).
    pub fn with_superblocks(mut self, enabled: bool) -> Self {
        self.superblocks = enabled;
        self
    }
}

impl Default for RevConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = RevConfig::paper_default();
        assert_eq!(c.sc_capacity, 32 << 10);
        assert_eq!(c.sc_assoc, 4);
        assert_eq!(c.chg.latency, 16);
        assert_eq!(c.mode, ValidationMode::Standard);
        assert_eq!(RevConfig::paper_64k().sc_capacity, 64 << 10);
    }

    #[test]
    fn builder_style_updates() {
        let c =
            RevConfig::paper_default().with_mode(ValidationMode::CfiOnly).with_sc_capacity(8 << 10);
        assert_eq!(c.mode, ValidationMode::CfiOnly);
        assert_eq!(c.sc_capacity, 8 << 10);
        assert!(c.superblocks, "superblocks default on");
        assert!(!c.with_superblocks(false).superblocks);
    }
}
