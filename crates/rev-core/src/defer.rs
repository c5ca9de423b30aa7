//! The post-commit deferred-store buffer (the paper's ROB + store-queue
//! extension, Fig. 1 / requirement R5).
//!
//! Stores that reach commit are *not* released to memory until the basic
//! block that produced them validates. On validation of the block's
//! terminator (fetch sequence `t`), every buffered store with `seq < t` is
//! released; on a validation failure the buffer is discarded wholesale —
//! compromised code never taints memory. Loads probe the buffer for
//! forwarding (the paper extends the store queue past commit).
//!
//! Observability: each release can emit an [`EventKind::DeferRelease`] on
//! an attached [`TraceBus`]; occupancy shows up as the `rev.defer.peak`
//! counter and `rev.defer.occupancy` histogram (see `docs/METRICS.md`).

use rev_mem::FlatMap;
use rev_trace::{CkptError, EventKind, FaultInjector, TraceBus, TraceEvent};
use std::collections::VecDeque;

/// One committed-but-unvalidated store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeferredStore {
    /// Fetch sequence of the store instruction.
    pub seq: u64,
    /// Effective address.
    pub addr: u64,
    /// 64-bit value.
    pub value: u64,
}

/// A deferred store whose parity check failed at release: the buffer
/// entry was corrupted between commit and validation. Releasing it would
/// write unverifiable data to committed memory, so the monitor escalates
/// to a `ParityError` violation instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityViolation {
    /// Fetch sequence of the corrupted store.
    pub seq: u64,
    /// Its (possibly corrupted) effective address.
    pub addr: u64,
}

/// Byte-fold parity over a store's fields, computed when the store enters
/// the buffer and re-checked at release — the cheap hardware ECC stand-in
/// that keeps buffer corruption from becoming silent memory corruption.
fn parity(s: &DeferredStore) -> u8 {
    let mut p = 0u8;
    for b in s.seq.to_le_bytes() {
        p ^= b;
    }
    for b in s.addr.to_le_bytes() {
        p ^= b;
    }
    for b in s.value.to_le_bytes() {
        p ^= b;
    }
    p
}

/// FIFO buffer of committed-but-unvalidated stores.
#[derive(Debug, Clone, Default)]
pub struct DeferredStoreBuffer {
    entries: VecDeque<(DeferredStore, u8)>, // (store, parity at entry)
    /// Buffered-store count per address, so [`Self::forwards`] (probed
    /// per issued load) is a map lookup instead of a buffer scan. Keyed
    /// on the *buffered* (possibly fault-corrupted) address — exactly
    /// what the scan it replaces saw.
    addr_index: FlatMap<u64, u32>,
    capacity: usize,
    peak: usize,
    total_released: u64,
    total_discarded: u64,
    trace: TraceBus,
    fault: FaultInjector,
}

impl DeferredStoreBuffer {
    /// Creates a buffer with the given capacity.
    pub fn new(capacity: usize) -> Self {
        DeferredStoreBuffer { capacity, ..Default::default() }
    }

    /// Attaches a trace bus; releases emit [`EventKind::DeferRelease`]
    /// events through it.
    pub fn set_trace(&mut self, trace: TraceBus) {
        self.trace = trace;
    }

    /// Attaches a fault injector; pushes become
    /// [`rev_trace::FaultLayer::DeferStore`] corruption sites (the entry
    /// is corrupted *after* its parity is computed, so the release-time
    /// check catches the damage).
    pub fn set_fault_injector(&mut self, fault: FaultInjector) {
        self.fault = fault;
    }

    /// Whether another store fits (commit back-pressure otherwise).
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Buffers a committed store.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (the pipeline must check
    /// [`Self::has_room`] and stall commit).
    pub fn push(&mut self, store: DeferredStore) {
        assert!(self.has_room(), "deferred-store buffer overflow");
        debug_assert!(
            self.entries.back().map(|(s, _)| s.seq <= store.seq).unwrap_or(true),
            "stores arrive in commit order"
        );
        let p = parity(&store);
        let mut store = store;
        if self.fault.is_enabled() {
            // Corruption strikes the buffered copy after parity was
            // latched — exactly what a bit flip inside the SRAM buffer
            // looks like to the release-time check.
            self.fault.corrupt_store(&mut store.addr, &mut store.value);
        }
        *self.addr_index.entry(store.addr).or_insert(0) += 1;
        self.entries.push_back((store, p));
        self.peak = self.peak.max(self.entries.len());
    }

    /// Whether any buffered store is older than `boundary_seq` — i.e.
    /// whether [`Self::release_until`] would release anything. The
    /// monitor's per-commit release pass (and every superblock replay)
    /// checks this first to skip the release machinery on the common
    /// commit that buffered nothing.
    pub fn has_releasable(&self, boundary_seq: u64) -> bool {
        self.entries.front().map(|(s, _)| s.seq < boundary_seq).unwrap_or(false)
    }

    /// Releases every store with `seq < boundary_seq` (the just-validated
    /// block's stores), in order, into `sink`. `cycle` stamps the trace
    /// events (the validation cycle that freed the stores).
    ///
    /// Each store's parity is re-checked on the way out; a mismatch stops
    /// the release immediately and returns the corrupted store's identity
    /// so the monitor can raise a `ParityError` violation (the remaining
    /// buffer is left for `discard_all`).
    pub fn release_until<F: FnMut(DeferredStore)>(
        &mut self,
        boundary_seq: u64,
        cycle: u64,
        mut sink: F,
    ) -> Result<(), ParityViolation> {
        while self.entries.front().map(|(s, _)| s.seq < boundary_seq).unwrap_or(false) {
            let (s, p) = self.entries.pop_front().expect("checked");
            self.unindex(s.addr);
            if parity(&s) != p {
                return Err(ParityViolation { seq: s.seq, addr: s.addr });
            }
            self.total_released += 1;
            self.trace.emit_with(|| TraceEvent {
                cycle,
                kind: EventKind::DeferRelease { seq: s.seq, addr: s.addr },
            });
            sink(s);
        }
        Ok(())
    }

    /// Discards everything (validation failed: taint containment).
    /// Returns the number of stores suppressed.
    pub fn discard_all(&mut self) -> usize {
        let n = self.entries.len();
        self.total_discarded += n as u64;
        self.entries.clear();
        self.addr_index.clear();
        n
    }

    fn unindex(&mut self, addr: u64) {
        if let Some(n) = self.addr_index.get_mut(&addr) {
            *n -= 1;
            if *n == 0 {
                self.addr_index.remove(&addr);
            }
        } else {
            debug_assert!(false, "popped store address missing from index");
        }
    }

    /// Whether any buffered store targets `addr` (store-to-load forwarding
    /// from the post-commit extension).
    pub fn forwards(&self, addr: u64) -> bool {
        self.addr_index.contains_key(&addr)
    }

    /// The buffered stores, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &DeferredStore> + '_ {
        self.entries.iter().map(|(s, _)| s)
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// High-water mark (sizing the hardware buffer).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Stores released over the run.
    pub fn total_released(&self) -> u64 {
        self.total_released
    }

    /// Stores discarded by violations.
    pub fn total_discarded(&self) -> u64 {
        self.total_discarded
    }

    /// Rejects a restored occupancy beyond this buffer's capacity and
    /// rebuilds the derived address index.
    fn check_restored(&mut self) -> Result<(), CkptError> {
        if self.entries.len() > self.capacity {
            return Err(CkptError::Malformed(format!(
                "deferred-store occupancy {} exceeds capacity {}",
                self.entries.len(),
                self.capacity
            )));
        }
        self.addr_index.clear();
        for (s, _) in &self.entries {
            *self.addr_index.entry(s.addr).or_insert(0) += 1;
        }
        Ok(())
    }
}

rev_trace::ckpt_fields!(Ckpt for DeferredStore { seq, addr, value });

// The buffer contents (each store with its latched parity byte, in FIFO
// order) and lifetime counters. The address index is derived state,
// rebuilt on restore.
rev_trace::ckpt_fields!(CkptFields for DeferredStoreBuffer {
    entries, peak, total_released, total_discarded,
} then DeferredStoreBuffer::check_restored);

#[cfg(test)]
mod tests {
    use super::*;

    fn st(seq: u64, addr: u64, value: u64) -> DeferredStore {
        DeferredStore { seq, addr, value }
    }

    #[test]
    fn release_respects_boundary() {
        let mut b = DeferredStoreBuffer::new(8);
        b.push(st(1, 0x10, 1));
        b.push(st(2, 0x20, 2));
        b.push(st(5, 0x30, 3)); // belongs to the next block
        let mut out = Vec::new();
        b.release_until(4, 0, |s| out.push(s.seq)).unwrap();
        assert_eq!(out, vec![1, 2]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.total_released(), 2);
    }

    #[test]
    fn discard_contains_taint() {
        let mut b = DeferredStoreBuffer::new(8);
        b.push(st(1, 0x10, 1));
        b.push(st(2, 0x20, 2));
        assert_eq!(b.discard_all(), 2);
        assert!(b.is_empty());
        assert_eq!(b.total_discarded(), 2);
        let mut out = Vec::new();
        b.release_until(100, 0, |s| out.push(s)).unwrap();
        assert!(out.is_empty(), "discarded stores must never release");
    }

    #[test]
    fn forwarding_probe() {
        let mut b = DeferredStoreBuffer::new(4);
        b.push(st(1, 0x40, 9));
        assert!(b.forwards(0x40));
        assert!(!b.forwards(0x48));
        b.release_until(2, 0, |_| {}).unwrap();
        assert!(!b.forwards(0x40));
    }

    #[test]
    fn capacity_and_peak() {
        let mut b = DeferredStoreBuffer::new(2);
        b.push(st(1, 0, 0));
        assert!(b.has_room());
        b.push(st(2, 8, 0));
        assert!(!b.has_room());
        assert_eq!(b.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut b = DeferredStoreBuffer::new(1);
        b.push(st(1, 0, 0));
        b.push(st(2, 8, 0));
    }

    #[test]
    fn corrupted_entry_fails_parity_at_release() {
        use rev_trace::{FaultInjector, FaultKind, FaultLayer, FaultSpec};
        let mut b = DeferredStoreBuffer::new(4);
        b.set_fault_injector(FaultInjector::armed(FaultSpec {
            layer: FaultLayer::DeferStore,
            kind: FaultKind::Transient,
            trigger: 2,
            bit: 5,
        }));
        b.push(st(1, 0x10, 7)); // clean
        b.push(st(2, 0x20, 7)); // bit 5 of the value flips in the buffer
        let mut out = Vec::new();
        let err = b.release_until(10, 0, |s| out.push(s.seq)).unwrap_err();
        assert_eq!(out, vec![1], "clean store released before the check trips");
        assert_eq!(err, ParityViolation { seq: 2, addr: 0x20 });
        assert_eq!(b.discard_all(), 0, "corrupted store already popped");
    }
}
