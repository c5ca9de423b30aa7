//! DRAM timing model: banks, open-page row buffers, burst transfer.
//!
//! Matches the paper's Table 2: "100 cycles for first chunk, 8 banks,
//! 64-byte bursts" with faster accesses to open DRAM pages.

use rev_trace::CkptError;

/// DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks (power of two).
    pub banks: usize,
    /// Row (page) size in bytes per bank.
    pub row_bytes: u64,
    /// Latency of the first chunk on a row-buffer miss.
    pub first_chunk_latency: u64,
    /// Latency when the row is already open.
    pub row_hit_latency: u64,
    /// Burst granularity in bytes (one cache line).
    pub burst_bytes: u64,
    /// Cycles per additional burst beat after the first chunk.
    pub burst_beat: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 8,
            row_bytes: 4096,
            first_chunk_latency: 100,
            row_hit_latency: 36,
            burst_bytes: 64,
            burst_beat: 4,
        }
    }
}

/// DRAM traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Cycles spent waiting for a busy bank.
    pub bank_conflict_cycles: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// The DRAM device model.
///
/// # Example
///
/// ```
/// use rev_mem::{Dram, DramConfig};
///
/// let mut d = Dram::new(DramConfig::default());
/// let t1 = d.access(0x0, 0);        // row miss: 100 cycles
/// let t2 = d.access(0x40, t1);      // same row, now open: faster
/// assert!(t2 - t1 < t1);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    banks: Vec<Bank>,
    stats: DramStats,
}

impl Dram {
    /// Creates the device.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.banks.is_power_of_two(), "bank count must be a power of two");
        Dram { config, banks: vec![Bank::default(); config.banks], stats: DramStats::default() }
    }

    /// Returns the configuration.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Zeroes the counters (open rows stay).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Performs a line-sized access at `addr` issued at `cycle`; returns
    /// the completion cycle.
    pub fn access(&mut self, addr: u64, cycle: u64) -> u64 {
        self.stats.accesses += 1;
        let row = addr / self.config.row_bytes;
        // Interleave rows across banks.
        let bank_idx = (row as usize) & (self.config.banks - 1);
        let bank = &mut self.banks[bank_idx];

        let start = cycle.max(bank.busy_until);
        self.stats.bank_conflict_cycles += start - cycle;

        let row_hit = bank.open_row == Some(row);
        if row_hit {
            self.stats.row_hits += 1;
        }
        let access_latency =
            if row_hit { self.config.row_hit_latency } else { self.config.first_chunk_latency };
        // One line = burst_bytes; extra beats beyond the first chunk.
        let beats = (self.config.burst_bytes / 16).saturating_sub(1);
        let done = start + access_latency + beats * self.config.burst_beat;
        bank.open_row = Some(row);
        bank.busy_until = done;
        done
    }

    /// Rejects a restored bank array that does not match this device's
    /// configuration.
    fn check_restored(&mut self) -> Result<(), CkptError> {
        if self.banks.len() != self.config.banks {
            return Err(CkptError::Malformed(format!(
                "DRAM bank count {} does not match configuration ({})",
                self.banks.len(),
                self.config.banks
            )));
        }
        Ok(())
    }
}

rev_trace::ckpt_fields!(CkptFields for Dram { stats, banks } then Dram::check_restored);
rev_trace::ckpt_fields!(Ckpt for DramStats { accesses, row_hits, bank_conflict_cycles });
rev_trace::ckpt_fields!(Ckpt for Bank { open_row, busy_until });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_miss_then_hit() {
        let mut d = Dram::new(DramConfig::default());
        let t1 = d.access(0x0, 0);
        assert_eq!(t1, 100 + 3 * 4);
        let t2 = d.access(0x40, t1);
        assert_eq!(t2 - t1, 36 + 3 * 4);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn different_rows_same_bank_conflict() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        // rows 0 and 8 both map to bank 0 (8 banks).
        let t1 = d.access(0, 0);
        let t2 = d.access(8 * cfg.row_bytes, 0);
        assert!(t2 > t1, "second access waits for the busy bank");
        assert!(d.stats().bank_conflict_cycles > 0);
    }

    #[test]
    fn different_banks_overlap() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        let t1 = d.access(0, 0);
        let t2 = d.access(cfg.row_bytes, 0); // row 1 -> bank 1
        assert_eq!(t1, t2, "independent banks service in parallel");
    }

    #[test]
    fn open_row_tracked_per_bank() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        d.access(0, 0);
        d.access(cfg.row_bytes, 0); // bank 1, row 1
        let t = d.access(0x80, 1000); // bank 0 row 0 still open
        assert_eq!(t - 1000, cfg.row_hit_latency + 3 * cfg.burst_beat);
    }
}
