//! The signature address generation unit (SAG).
//!
//! Holds up to `B` base/limit/key register triples — one per executable
//! module — and resolves, for any control-transfer address, which module's
//! signature table (and decryption key) applies (paper Sec. IV.B). When
//! more modules are live than registers, the paper's management exception
//! refills a register; we model that as an LRU replacement with a fixed
//! penalty.

use rev_sigtable::SignatureTable;
use rev_trace::{Ckpt, CkptError, CkptFields, CkptReader, CkptWriter, FaultInjector, FaultLayer};

/// One resident SAG register triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SagEntry {
    /// Index into the registered-table array.
    pub table_idx: usize,
    /// Module code range low bound (limit register pair).
    pub lo: u64,
    /// Module code range high bound.
    pub hi: u64,
}

/// The SAG: registered tables + the resident register window.
///
/// `Clone` copies every registered table image and shares the attached
/// [`FaultInjector`] handle; forking callers re-arm via
/// [`Sag::set_fault_injector`].
#[derive(Debug, Clone)]
pub struct Sag {
    tables: Vec<SignatureTable>,
    /// Table indices sorted by module base, so `resolve` can binary-search
    /// instead of scanning every registered table per lookup.
    by_base: Vec<usize>,
    resident: Vec<(SagEntry, u64)>, // (entry, lru tick)
    capacity: usize,
    miss_penalty: u64,
    tick: u64,
    misses: u64,
    fault: FaultInjector,
}

impl Sag {
    /// Creates a SAG with `capacity` register triples and the given refill
    /// penalty.
    pub fn new(capacity: usize, miss_penalty: u64) -> Self {
        Sag {
            tables: Vec::new(),
            by_base: Vec::new(),
            resident: Vec::new(),
            capacity: capacity.max(1),
            miss_penalty,
            tick: 0,
            misses: 0,
            fault: FaultInjector::disabled(),
        }
    }

    /// Attaches a fault injector; every resolve becomes a
    /// [`FaultLayer::SagRegister`] stuck-at site (chaos campaigns).
    pub fn set_fault_injector(&mut self, fault: FaultInjector) {
        self.fault = fault;
    }

    /// Registers a module's table (the trusted linker/loader path). The
    /// first `capacity` registered tables start resident.
    pub fn register(&mut self, table: SignatureTable) {
        let idx = self.tables.len();
        let entry = SagEntry { table_idx: idx, lo: table.module_base(), hi: table.module_end() };
        let base = table.module_base();
        let pos = self.by_base.partition_point(|&i| self.tables[i].module_base() <= base);
        self.by_base.insert(pos, idx);
        self.tables.push(table);
        if self.resident.len() < self.capacity {
            self.tick += 1;
            self.resident.push((entry, self.tick));
        }
    }

    /// All registered tables.
    pub fn tables(&self) -> &[SignatureTable] {
        &self.tables
    }

    /// Number of SAG-miss exceptions taken.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resolves the table covering `addr`. Returns the table index and the
    /// cycle penalty paid (0 on a resident hit, `miss_penalty` when the
    /// management handler had to refill a register). `None` if no
    /// registered module covers the address — the REV `NoTable` violation.
    pub fn resolve(&mut self, addr: u64) -> Option<(usize, u64)> {
        self.tick += 1;
        let tick = self.tick;
        if self.fault.is_enabled() {
            // Stuck-at fault in the first resident base/limit register
            // pair: the forced bit re-asserts on every resolve. The
            // registered-table array (the OS's truth) is untouched, so
            // a corrupted window mis-routes or misses — it cannot forge
            // coverage the binary-search fallback would not confirm.
            if let Some((bit, forced)) = self.fault.stuck_at(FaultLayer::SagRegister) {
                if let Some((e, _)) = self.resident.first_mut() {
                    let (reg, b) = if bit < 64 { (&mut e.lo, bit) } else { (&mut e.hi, bit - 64) };
                    let mask = 1u64 << (b % 64);
                    if forced {
                        *reg |= mask;
                    } else {
                        *reg &= !mask;
                    }
                }
            }
        }
        if let Some((e, lru)) = self.resident.iter_mut().find(|(e, _)| (e.lo..e.hi).contains(&addr))
        {
            *lru = tick;
            return Some((e.table_idx, 0));
        }
        // Not resident: is it registered at all? Binary-search the
        // base-sorted index for the last module starting at or below `addr`.
        let pos = self.by_base.partition_point(|&i| self.tables[i].module_base() <= addr);
        let idx = pos
            .checked_sub(1)
            .map(|p| self.by_base[p])
            .filter(|&i| addr < self.tables[i].module_end())?;
        self.misses += 1;
        let entry = SagEntry {
            table_idx: idx,
            lo: self.tables[idx].module_base(),
            hi: self.tables[idx].module_end(),
        };
        if self.resident.len() >= self.capacity {
            let lru_idx = self
                .resident
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, l))| *l)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.resident.swap_remove(lru_idx);
        }
        self.resident.push((entry, tick));
        Some((idx, self.miss_penalty))
    }

    /// The table at `idx`.
    pub fn table(&self, idx: usize) -> &SignatureTable {
        &self.tables[idx]
    }

    /// Serializes the SAG's mutable state: the resident register window
    /// (physical order — deterministic model state), tick and miss
    /// counters. The registered tables are static build products; their
    /// RAM bases are written first as a drift guard so a checkpoint
    /// taken after a `dlopen`/re-key can never restore into a simulator
    /// rebuilt without it.
    pub fn save_state(&self, w: &mut CkptWriter) {
        self.table_bases().save(w);
        self.save_fields(w);
    }

    /// Restores state saved by [`Sag::save_state`] into a SAG with the
    /// identical registered-table set.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError`] on decode failure, when the registered
    /// tables differ from the checkpoint's (count or base), or when the
    /// register window does not fit this SAG.
    pub fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let bases: Vec<u64> = Ckpt::load(r)?;
        if bases.len() != self.tables.len() {
            return Err(CkptError::Malformed(format!(
                "checkpoint has {} signature tables, simulator has {}",
                bases.len(),
                self.tables.len()
            )));
        }
        if let Some((base, rebuilt)) =
            bases.into_iter().zip(self.table_bases()).find(|(b, t)| b != t)
        {
            return Err(CkptError::Malformed(format!(
                "signature table base {base:#x} differs from rebuilt {rebuilt:#x}"
            )));
        }
        self.load_fields(r)
    }

    fn table_bases(&self) -> Vec<u64> {
        self.tables.iter().map(SignatureTable::base).collect()
    }

    /// Rejects a restored register window larger than this SAG or naming
    /// an unregistered table.
    fn check_restored(&mut self) -> Result<(), CkptError> {
        if self.resident.len() > self.capacity {
            return Err(CkptError::Malformed(format!(
                "SAG residency {} exceeds capacity {}",
                self.resident.len(),
                self.capacity
            )));
        }
        if let Some((e, _)) = self.resident.iter().find(|(e, _)| e.table_idx >= self.tables.len()) {
            return Err(CkptError::Malformed(format!(
                "SAG register names table {}, only {} registered",
                e.table_idx,
                self.tables.len()
            )));
        }
        Ok(())
    }
}

rev_trace::ckpt_fields!(Ckpt for SagEntry { table_idx, lo, hi });

// The fields after the table-base guard (see `Sag::save_state`).
rev_trace::ckpt_fields!(CkptFields for Sag { tick, misses, resident } then Sag::check_restored);

#[cfg(test)]
mod tests {
    use super::*;
    use rev_crypto::{Aes128, SignatureKey};
    use rev_isa::Instruction;
    use rev_prog::{BbLimits, Cfg, ModuleBuilder};
    use rev_sigtable::{build_table, ValidationMode};

    fn table_for(name: &str, base: u64) -> SignatureTable {
        let mut b = ModuleBuilder::new(name, base);
        b.push(Instruction::Nop);
        b.push(Instruction::Halt);
        let m = b.finish().unwrap();
        let cfg = Cfg::analyze(&m, BbLimits::default()).unwrap();
        build_table(
            &m,
            &cfg,
            &SignatureKey::from_seed(base),
            ValidationMode::Standard,
            &Aes128::new([1; 16]),
        )
        .unwrap()
    }

    #[test]
    fn resolve_by_range() {
        let mut sag = Sag::new(4, 100);
        sag.register(table_for("a", 0x1000));
        sag.register(table_for("b", 0x8000));
        assert_eq!(sag.resolve(0x1001), Some((0, 0)));
        assert_eq!(sag.resolve(0x8000), Some((1, 0)));
        assert_eq!(sag.resolve(0x4000), None);
    }

    #[test]
    fn abutting_ranges_resolve_unchanged() {
        // Two modules whose code ranges abut: the boundary address must
        // resolve to the higher module, the address just below it to the
        // lower one — regardless of registration order, and identically to
        // the old linear scan.
        let a = table_for("a", 0x1000);
        let b_base = a.module_end();
        let b = table_for("b", b_base);
        assert_eq!(a.module_end(), b.module_base(), "ranges must abut for this test");

        // Capacity 1 forces every other lookup through the non-resident
        // (binary-search) path rather than the resident register window.
        let mut sag = Sag::new(1, 100);
        sag.register(a);
        sag.register(b);
        assert_eq!(sag.resolve(b_base).map(|(i, _)| i), Some(1));
        assert_eq!(sag.resolve(b_base - 1).map(|(i, _)| i), Some(0));
        assert_eq!(sag.resolve(0x1000).map(|(i, _)| i), Some(0));

        // Reverse registration order: indices swap, resolution targets don't.
        let a = table_for("a", 0x1000);
        let b = table_for("b", b_base);
        let mut sag = Sag::new(1, 100);
        sag.register(b);
        sag.register(a);
        assert_eq!(sag.resolve(b_base - 1).map(|(i, _)| i), Some(1));
        assert_eq!(sag.resolve(b_base).map(|(i, _)| i), Some(0));
    }

    #[test]
    fn lru_refill_with_penalty() {
        let mut sag = Sag::new(1, 100);
        sag.register(table_for("a", 0x1000));
        sag.register(table_for("b", 0x8000)); // not resident (capacity 1)
        assert_eq!(sag.resolve(0x1000).unwrap().1, 0);
        let (idx, penalty) = sag.resolve(0x8000).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(penalty, 100, "refill pays the handler penalty");
        assert_eq!(sag.misses(), 1);
        // Now b is resident, a is not.
        assert_eq!(sag.resolve(0x8000).unwrap().1, 0);
        assert_eq!(sag.resolve(0x1000).unwrap().1, 100);
    }
}
