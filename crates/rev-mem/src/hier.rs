//! The composed memory hierarchy: TLBs → L1 → L2 → DRAM, with
//! per-requester attribution and the paper's priority ordering.
//!
//! Latencies compose along the miss path (a cycle-level, not cycle-accurate
//! model): TLB penalty + L1 + (L2 + (DRAM)) with port occupancy at each
//! cache level. Requests carry a [`Requester`] class; when a request finds
//! all ports of a level busy it queues, and lower-priority classes pay an
//! extra beat per priority rank below [`Requester::Data`] — a deterministic
//! approximation of the paper's arbitration rule "memory accesses for
//! servicing SC misses have a priority lower than that of compulsory misses
//! on the data caches, but a higher priority than instruction misses and
//! prefetching requests" (Sec. IV.A).

use crate::cache::{Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};
use crate::tlb::{Tlb, TlbConfig};
use rev_trace::{EventKind, MetricRegistry, MetricSink, TraceBus, TraceEvent};

/// Checkpoint section marker for the memory hierarchy.
const TAG_HIER: u8 = 0x4d; // 'M'

/// The L1I has one fetch port.
const L1I_PORTS: usize = 1;

/// Who issued a memory request (in decreasing priority order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Requester {
    /// Demand data access (load/store miss path).
    Data = 0,
    /// Signature-cache fill (REV reference-signature fetch).
    SigFetch = 1,
    /// Instruction fetch miss.
    IFetch = 2,
    /// Prefetch.
    Prefetch = 3,
}

impl Requester {
    /// All requester classes, highest priority first.
    pub const ALL: [Requester; 4] =
        [Requester::Data, Requester::SigFetch, Requester::IFetch, Requester::Prefetch];

    /// Index for stats arrays.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Lowercase label used in metric names (`docs/METRICS.md`).
    pub fn label(self) -> &'static str {
        match self {
            Requester::Data => "data",
            Requester::SigFetch => "sigfetch",
            Requester::IFetch => "ifetch",
            Requester::Prefetch => "prefetch",
        }
    }
}

/// One memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Byte address.
    pub addr: u64,
    /// Store (`true`) or load (`false`).
    pub is_write: bool,
    /// Issuing class.
    pub requester: Requester,
    /// Issue cycle.
    pub cycle: u64,
}

/// Result of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the data is available.
    pub complete_at: u64,
    /// L1 (I or D, by path) hit.
    pub l1_hit: bool,
    /// L2 hit (`None` if the L2 was not consulted).
    pub l2_hit: Option<bool>,
    /// DRAM row-buffer hit (`None` if DRAM was not consulted).
    pub dram_row_hit: Option<bool>,
    /// L1 TLB hit.
    pub tlb_hit: bool,
}

/// Full hierarchy configuration (defaults = paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// DRAM device.
    pub dram: DramConfig,
    /// L1 I-TLB.
    pub itlb: TlbConfig,
    /// L1 D-TLB (shared with the SC via an extra port).
    pub dtlb: TlbConfig,
    /// Unified L2 TLB.
    pub l2tlb: TlbConfig,
    /// L2 TLB hit penalty in cycles.
    pub l2tlb_latency: u64,
    /// Page-walk penalty in cycles on an L2 TLB miss.
    pub walk_latency: u64,
    /// Ports on the L1 D-cache (Table 2 assumes an extra port for the SC,
    /// so REV configs use one more than the baseline).
    pub l1d_ports: usize,
    /// Ports on the L2.
    pub l2_ports: usize,
}

/// A rejected [`MemConfig`] parameter: user-supplied geometry that the
/// model cannot run with. Produced by [`MemConfig::validate`] so
/// misconfiguration surfaces as a structured error at build time instead
/// of a panic mid-simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfigError {
    /// Dotted path of the offending field (e.g. `"l1d.line_bytes"`).
    pub parameter: String,
    /// The rejected value.
    pub value: u64,
    /// What the field must satisfy.
    pub requirement: &'static str,
}

impl std::fmt::Display for MemConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory config: {} = {} but {}", self.parameter, self.value, self.requirement)
    }
}

impl std::error::Error for MemConfigError {}

fn check(
    ok: bool,
    parameter: &str,
    value: u64,
    requirement: &'static str,
) -> Result<(), MemConfigError> {
    if ok {
        Ok(())
    } else {
        Err(MemConfigError { parameter: parameter.to_string(), value, requirement })
    }
}

fn validate_cache(name: &str, c: &CacheConfig) -> Result<(), MemConfigError> {
    check(
        c.line_bytes.is_power_of_two(),
        &format!("{name}.line_bytes"),
        c.line_bytes as u64,
        "must be a power of two",
    )?;
    check(c.assoc >= 1, &format!("{name}.assoc"), c.assoc as u64, "must be at least 1")?;
    let per_way = c.assoc * c.line_bytes;
    check(
        per_way > 0 && c.size_bytes.is_multiple_of(per_way),
        &format!("{name}.size_bytes"),
        c.size_bytes as u64,
        "must divide evenly into assoc * line_bytes sets",
    )?;
    check(
        (c.size_bytes / per_way).is_power_of_two(),
        &format!("{name}.size_bytes"),
        c.size_bytes as u64,
        "must imply a power-of-two set count",
    )
}

fn validate_tlb(name: &str, t: &TlbConfig) -> Result<(), MemConfigError> {
    check(t.entries >= 1, &format!("{name}.entries"), t.entries as u64, "must be at least 1")?;
    check(
        t.page_bytes.is_power_of_two(),
        &format!("{name}.page_bytes"),
        t.page_bytes,
        "must be a power of two",
    )
}

impl MemConfig {
    /// The paper's Table 2 configuration.
    pub fn paper_default() -> Self {
        MemConfig {
            l1i: CacheConfig { size_bytes: 64 << 10, assoc: 4, line_bytes: 64, latency: 2 },
            l1d: CacheConfig { size_bytes: 64 << 10, assoc: 4, line_bytes: 64, latency: 2 },
            l2: CacheConfig { size_bytes: 512 << 10, assoc: 8, line_bytes: 64, latency: 5 },
            dram: DramConfig::default(),
            itlb: TlbConfig::with_entries(32),
            dtlb: TlbConfig::with_entries(128),
            l2tlb: TlbConfig::with_entries(512),
            l2tlb_latency: 2,
            walk_latency: 30,
            l1d_ports: 2,
            l2_ports: 1,
        }
    }

    /// Rejects geometry the model cannot run with (zero ports, zero-way
    /// caches, non-power-of-two line/bank/page sizes). `RevSimulator`
    /// calls this before constructing the hierarchy, so a malformed
    /// user-supplied config becomes a structured build error rather than
    /// a constructor panic.
    pub fn validate(&self) -> Result<(), MemConfigError> {
        validate_cache("l1i", &self.l1i)?;
        validate_cache("l1d", &self.l1d)?;
        validate_cache("l2", &self.l2)?;
        validate_tlb("itlb", &self.itlb)?;
        validate_tlb("dtlb", &self.dtlb)?;
        validate_tlb("l2tlb", &self.l2tlb)?;
        check(
            self.dram.banks.is_power_of_two(),
            "dram.banks",
            self.dram.banks as u64,
            "must be a power of two",
        )?;
        check(
            self.dram.row_bytes >= 1,
            "dram.row_bytes",
            self.dram.row_bytes,
            "must be at least 1",
        )?;
        check(self.l1d_ports >= 1, "l1d_ports", self.l1d_ports as u64, "must be at least 1")?;
        check(self.l2_ports >= 1, "l2_ports", self.l2_ports as u64, "must be at least 1")
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-requester, per-level traffic counters (feeds the paper's Fig. 11).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemStats {
    /// L1 accesses by requester class (L1D for Data/SigFetch, L1I for IFetch).
    pub l1_accesses: [u64; 4],
    /// L1 misses by requester class.
    pub l1_misses: [u64; 4],
    /// L2 accesses by requester class.
    pub l2_accesses: [u64; 4],
    /// L2 misses by requester class.
    pub l2_misses: [u64; 4],
    /// DRAM accesses by requester class.
    pub dram_accesses: [u64; 4],
    /// TLB walk count by requester class.
    pub tlb_walks: [u64; 4],
}

impl MemStats {
    /// L1 miss rate for a requester class.
    pub fn l1_miss_rate(&self, r: Requester) -> f64 {
        let a = self.l1_accesses[r.idx()];
        if a == 0 {
            0.0
        } else {
            self.l1_misses[r.idx()] as f64 / a as f64
        }
    }

    /// L2 miss rate for a requester class.
    pub fn l2_miss_rate(&self, r: Requester) -> f64 {
        let a = self.l2_accesses[r.idx()];
        if a == 0 {
            0.0
        } else {
            self.l2_misses[r.idx()] as f64 / a as f64
        }
    }
}

impl MetricSink for MemStats {
    fn export_metrics(&self, reg: &mut MetricRegistry) {
        for r in Requester::ALL {
            let c = r.label();
            reg.counter(&format!("mem.l1.accesses.{c}"), self.l1_accesses[r.idx()]);
            reg.counter(&format!("mem.l1.misses.{c}"), self.l1_misses[r.idx()]);
            reg.counter(&format!("mem.l2.accesses.{c}"), self.l2_accesses[r.idx()]);
            reg.counter(&format!("mem.l2.misses.{c}"), self.l2_misses[r.idx()]);
            reg.counter(&format!("mem.dram.accesses.{c}"), self.dram_accesses[r.idx()]);
            reg.counter(&format!("mem.tlb.walks.{c}"), self.tlb_walks[r.idx()]);
        }
        // Fig. 11 reports miss statistics for SC fill traffic specifically.
        reg.gauge("mem.l1.miss_rate.sigfetch", self.l1_miss_rate(Requester::SigFetch));
        reg.gauge("mem.l2.miss_rate.sigfetch", self.l2_miss_rate(Requester::SigFetch));
    }
}

#[derive(Debug, Clone)]
struct Ports {
    free_at: Vec<u64>,
}

impl Ports {
    fn new(n: usize) -> Self {
        Ports { free_at: vec![0; n] }
    }

    /// Claims the earliest-free port at or after `cycle`, holding it for
    /// `hold` cycles. Returns (start, contended). A zero-port bank (ruled
    /// out by [`MemConfig::validate`]) degrades to an uncontended pass-
    /// through instead of panicking.
    #[inline]
    fn claim(&mut self, cycle: u64, hold: u64) -> (u64, bool) {
        let Some((idx, &free)) = self.free_at.iter().enumerate().min_by_key(|(_, &f)| f) else {
            debug_assert!(false, "port bank has at least one port");
            return (cycle, false);
        };
        let start = cycle.max(free);
        self.free_at[idx] = start + hold;
        (start, start > cycle)
    }
}

rev_trace::ckpt_fields!(Ckpt for Ports { free_at });

/// The timing memory hierarchy.
///
/// # Example
///
/// ```
/// use rev_mem::{Hierarchy, MemConfig, Request, Requester};
///
/// let mut h = Hierarchy::new(MemConfig::paper_default());
/// let cold = h.data_access(Request { addr: 0x1000, is_write: false, requester: Requester::Data, cycle: 0 });
/// let warm = h.data_access(Request { addr: 0x1000, is_write: false, requester: Requester::Data, cycle: cold.complete_at });
/// assert!(warm.complete_at - cold.complete_at < cold.complete_at);
/// assert!(warm.l1_hit);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: MemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dram: Dram,
    itlb: Tlb,
    dtlb: Tlb,
    l2tlb: Tlb,
    l1i_ports: Ports,
    l1d_ports: Ports,
    l2_ports: Ports,
    stats: MemStats,
    trace: TraceBus,
}

impl Hierarchy {
    /// Builds the hierarchy.
    pub fn new(config: MemConfig) -> Self {
        Hierarchy {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            dram: Dram::new(config.dram),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            l2tlb: Tlb::new(config.l2tlb),
            l1i_ports: Ports::new(L1I_PORTS),
            l1d_ports: Ports::new(config.l1d_ports),
            l2_ports: Ports::new(config.l2_ports),
            stats: MemStats::default(),
            trace: TraceBus::disabled(),
        }
    }

    /// Attaches a trace bus; DRAM accesses emit
    /// [`EventKind::DramAccess`] events through it.
    pub fn set_trace(&mut self, trace: TraceBus) {
        self.trace = trace;
    }

    /// Returns the configuration.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Returns per-requester statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Zeroes every counter in the hierarchy (cache/TLB/DRAM contents are
    /// untouched — this ends a warmup phase).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.dram.reset_stats();
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
        self.l2tlb.reset_stats();
    }

    /// Raw L1D/L1I/L2/DRAM component stats (for reports).
    pub fn component_stats(
        &self,
    ) -> (crate::CacheStats, crate::CacheStats, crate::CacheStats, crate::DramStats) {
        (self.l1i.stats(), self.l1d.stats(), self.l2.stats(), self.dram.stats())
    }

    #[inline]
    fn tlb_penalty(&mut self, addr: u64, instruction: bool, requester: Requester) -> (u64, bool) {
        let l1_hit = if instruction { self.itlb.access(addr) } else { self.dtlb.access(addr) };
        if l1_hit {
            return (0, true);
        }
        if self.l2tlb.access(addr) {
            (self.config.l2tlb_latency, false)
        } else {
            self.stats.tlb_walks[requester.idx()] += 1;
            (self.config.l2tlb_latency + self.config.walk_latency, false)
        }
    }

    #[inline]
    fn l2_and_below(
        &mut self,
        addr: u64,
        is_write: bool,
        cycle: u64,
        requester: Requester,
    ) -> (u64, bool, Option<bool>) {
        self.stats.l2_accesses[requester.idx()] += 1;
        let priority_penalty = requester.idx() as u64;
        let (start, contended) = self.l2_ports.claim(cycle, 1);
        let start = if contended { start + priority_penalty } else { start };
        let l2 = self.l2.access(addr, is_write);
        if let Some(wb) = l2.evicted_dirty {
            // Write-back to DRAM happens off the critical path; count it.
            self.dram.access(wb, start);
        }
        if l2.hit {
            (start + self.config.l2.latency, true, None)
        } else {
            self.stats.l2_misses[requester.idx()] += 1;
            self.stats.dram_accesses[requester.idx()] += 1;
            self.trace.emit_with(|| TraceEvent {
                cycle: start,
                kind: EventKind::DramAccess { addr, requester: requester.idx() as u8 },
            });
            let before_rows = self.dram.stats().row_hits;
            let done = self.dram.access(addr, start + self.config.l2.latency);
            let row_hit = self.dram.stats().row_hits > before_rows;
            (done, false, Some(row_hit))
        }
    }

    /// A data-side access (loads, stores, and SC fills — the SC uses the
    /// L1D extra port, paper Sec. VIII).
    #[inline]
    pub fn data_access(&mut self, req: Request) -> AccessOutcome {
        let r = req.requester;
        let (tlb_pen, tlb_hit) = self.tlb_penalty(req.addr, false, r);
        self.stats.l1_accesses[r.idx()] += 1;
        let (start, _) = self.l1d_ports.claim(req.cycle + tlb_pen, 1);
        let l1 = self.l1d.access(req.addr, req.is_write);
        if let Some(wb) = l1.evicted_dirty {
            let (done, _, _) = self.l2_and_below(wb, true, start, r);
            let _ = done; // write-back off the critical path
        }
        if l1.hit {
            return AccessOutcome {
                complete_at: start + self.config.l1d.latency,
                l1_hit: true,
                l2_hit: None,
                dram_row_hit: None,
                tlb_hit,
            };
        }
        self.stats.l1_misses[r.idx()] += 1;
        let (done, l2_hit, row) =
            self.l2_and_below(req.addr, false, start + self.config.l1d.latency, r);
        // Stream prefetcher: demand data misses pull the next line into
        // the L2 off the critical path (signature fetches are hash-
        // scattered, so they are not prefetched).
        if r == Requester::Data {
            let next = req.addr + self.config.l1d.line_bytes as u64;
            if !self.l2.probe(next) {
                self.stats.l1_accesses[Requester::Prefetch.idx()] += 1;
                let _ = self.l2_and_below(next, false, done, Requester::Prefetch);
            }
        }
        AccessOutcome {
            complete_at: done,
            l1_hit: false,
            l2_hit: Some(l2_hit),
            dram_row_hit: row,
            tlb_hit,
        }
    }

    /// A next-line instruction prefetch: fills the L1I through the
    /// hierarchy at [`Requester::Prefetch`] priority without blocking
    /// anything (the sequential-stream prefetcher every modern front end
    /// has; without it, cold straight-line code would expose every DRAM
    /// line fill to the fetch stage).
    #[inline]
    pub fn prefetch_line(&mut self, addr: u64, cycle: u64) -> u64 {
        if self.l1i.probe(addr) {
            return cycle;
        }
        let r = Requester::Prefetch;
        self.stats.l1_accesses[r.idx()] += 1;
        let l1 = self.l1i.access(addr, false);
        if !l1.hit {
            self.stats.l1_misses[r.idx()] += 1;
            let (done, _, _) = self.l2_and_below(addr, false, cycle, r);
            return done;
        }
        cycle
    }

    /// Rejects restored port banks whose sizes differ from this
    /// hierarchy's configuration.
    fn check_restored(&mut self) -> Result<(), rev_trace::CkptError> {
        for (ports, want) in [
            (&self.l1i_ports, L1I_PORTS),
            (&self.l1d_ports, self.config.l1d_ports),
            (&self.l2_ports, self.config.l2_ports),
        ] {
            if ports.free_at.len() != want {
                return Err(rev_trace::CkptError::Malformed(format!(
                    "port count {} does not match configuration ({want})",
                    ports.free_at.len()
                )));
            }
        }
        Ok(())
    }

    /// An instruction-fetch access (L1I path).
    #[inline]
    pub fn fetch_access(&mut self, addr: u64, cycle: u64) -> AccessOutcome {
        let r = Requester::IFetch;
        let (tlb_pen, tlb_hit) = self.tlb_penalty(addr, true, r);
        self.stats.l1_accesses[r.idx()] += 1;
        let (start, _) = self.l1i_ports.claim(cycle + tlb_pen, 1);
        let l1 = self.l1i.access(addr, false);
        if l1.hit {
            return AccessOutcome {
                complete_at: start + self.config.l1i.latency,
                l1_hit: true,
                l2_hit: None,
                dram_row_hit: None,
                tlb_hit,
            };
        }
        self.stats.l1_misses[r.idx()] += 1;
        let (done, l2_hit, row) =
            self.l2_and_below(addr, false, start + self.config.l1i.latency, r);
        AccessOutcome {
            complete_at: done,
            l1_hit: false,
            l2_hit: Some(l2_hit),
            dram_row_hit: row,
            tlb_hit,
        }
    }
}

// Every piece of mutable hierarchy state: cache/TLB contents and clocks,
// DRAM bank rows, port horizons and the per-requester counters. The
// configuration is *not* written: restore targets a hierarchy freshly
// built with the identical `MemConfig` (the enclosing simulator
// checkpoint carries a config fingerprint), and the trace bus stays as
// constructed (disabled).
rev_trace::ckpt_fields!(CkptFields for Hierarchy, tag TAG_HIER {
    l1i, l1d, l2, dram, itlb, dtlb, l2tlb, l1i_ports, l1d_ports, l2_ports, stats,
} then Hierarchy::check_restored);
rev_trace::ckpt_fields!(Ckpt for MemStats {
    l1_accesses, l1_misses, l2_accesses, l2_misses, dram_accesses, tlb_walks,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn req(addr: u64, cycle: u64, requester: Requester) -> Request {
        Request { addr, is_write: false, requester, cycle }
    }

    #[test]
    fn cold_miss_goes_to_dram() {
        let mut h = Hierarchy::new(MemConfig::paper_default());
        let out = h.data_access(req(0x10_0000, 0, Requester::Data));
        assert!(!out.l1_hit);
        assert_eq!(out.l2_hit, Some(false));
        assert!(out.dram_row_hit.is_some());
        assert!(out.complete_at > 100);
    }

    #[test]
    fn warm_hit_is_l1_latency() {
        let mut h = Hierarchy::new(MemConfig::paper_default());
        let cold = h.data_access(req(0x10_0000, 0, Requester::Data));
        let warm = h.data_access(req(0x10_0000, cold.complete_at, Requester::Data));
        assert!(warm.l1_hit);
        assert_eq!(warm.complete_at - cold.complete_at, 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        let cfg = MemConfig::paper_default();
        let mut h = Hierarchy::new(cfg);
        // Fill one L1D set (4 ways, 256 sets, 64B lines): same index every 16 KiB.
        let stride = 64 * 256;
        let mut cycle = 0;
        for i in 0..5u64 {
            let out = h.data_access(req(i * stride as u64, cycle, Requester::Data));
            cycle = out.complete_at;
        }
        // Address 0 was evicted from L1 but lives in L2.
        let out = h.data_access(req(0, cycle, Requester::Data));
        assert!(!out.l1_hit);
        assert_eq!(out.l2_hit, Some(true));
    }

    #[test]
    fn sig_fetch_attributed_separately() {
        let mut h = Hierarchy::new(MemConfig::paper_default());
        h.data_access(req(0x1000, 0, Requester::SigFetch));
        h.data_access(req(0x2000, 0, Requester::Data));
        let s = h.stats();
        assert_eq!(s.l1_accesses[Requester::SigFetch.idx()], 1);
        assert_eq!(s.l1_misses[Requester::SigFetch.idx()], 1);
        assert_eq!(s.l1_accesses[Requester::Data.idx()], 1);
    }

    #[test]
    fn ifetch_uses_l1i() {
        let mut h = Hierarchy::new(MemConfig::paper_default());
        let cold = h.fetch_access(0x4000, 0);
        assert!(!cold.l1_hit);
        let warm = h.fetch_access(0x4000, cold.complete_at);
        assert!(warm.l1_hit);
        // L1D must be untouched.
        assert_eq!(h.stats().l1_accesses[Requester::Data.idx()], 0);
    }

    #[test]
    fn tlb_walk_counted() {
        let mut h = Hierarchy::new(MemConfig::paper_default());
        let out = h.data_access(req(0x1000, 0, Requester::Data));
        assert!(!out.tlb_hit);
        assert_eq!(h.stats().tlb_walks[Requester::Data.idx()], 1);
        let out2 = h.data_access(req(0x1008, out.complete_at, Requester::Data));
        assert!(out2.tlb_hit);
    }

    #[test]
    fn port_contention_serializes_same_cycle() {
        let mut cfg = MemConfig::paper_default();
        cfg.l1d_ports = 1;
        let mut h = Hierarchy::new(cfg);
        // Warm two lines first.
        let a = h.data_access(req(0x1000, 0, Requester::Data));
        let b = h.data_access(req(0x2000, a.complete_at, Requester::Data));
        let t = b.complete_at + 10;
        let first = h.data_access(req(0x1000, t, Requester::Data));
        let second = h.data_access(req(0x2000, t, Requester::Data));
        assert!(second.complete_at > first.complete_at, "single port serializes");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut h = Hierarchy::new(MemConfig::paper_default());
            let mut cycle = 0;
            let mut sum = 0u64;
            for i in 0..200u64 {
                let out = h.data_access(req((i * 4096) % 65536, cycle, Requester::Data));
                cycle = out.complete_at;
                sum = sum.wrapping_add(out.complete_at);
            }
            sum
        };
        assert_eq!(run(), run());
    }
}
