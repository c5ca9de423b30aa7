//! The trusted linker's table generator.
//!
//! Consumes a module's static CFG and produces the encrypted, hash-indexed
//! signature table image (paper Sec. V). Placement: primary entries land in
//! their hash slot when free; colliding primaries and all spill
//! continuations append to the spill area past the slot region, linked by
//! the entries' next-index fields into a single chain per slot.

use crate::format::{EntryKind, RawEntry, ValidationMode, ENTRY_NONE, NEXT20_NONE, NEXT24_NONE};
use crate::lookup::SignatureTable;
use rev_crypto::{bb_body_hash_with, entry_digest_with, Aes128, CubeHash, SignatureKey};
use rev_prog::{BlockInfo, Cfg, Module, TermKind};
use std::collections::BTreeSet;
use std::fmt;

rev_trace::stats! {
    /// Size statistics for a built table (paper Secs. V.B–V.D report these
    /// as percentages of the executable size).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct TableStats {
        /// Primary (per-block-variant) entries.
        pub primaries: usize => "table.primaries",
        /// Spill entries (extra successors/predecessors + collision overflow).
        pub spills: usize => "table.spills",
        /// Primary hash slots allocated.
        pub slots: usize => "table.slots",
        /// Total image bytes (header + slots + spill area).
        pub image_bytes: usize => "table.image_bytes",
        /// Module code bytes (the ratio's denominator).
        pub code_bytes: usize => "table.code_bytes",
    }
    then |s, reg| reg.gauge("table.ratio_to_code", s.ratio_to_code())
}

impl TableStats {
    /// Table size as a fraction of the binary's code size.
    pub fn ratio_to_code(&self) -> f64 {
        self.image_bytes as f64 / self.code_bytes.max(1) as f64
    }
}

/// Errors during table construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableBuildError {
    /// An address did not fit the 32-bit entry fields.
    AddressOverflow {
        /// The offending address.
        addr: u64,
    },
    /// The table grew past the 24-bit (or 20-bit for CFI) index space.
    TooManyEntries,
}

impl fmt::Display for TableBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableBuildError::AddressOverflow { addr } => {
                write!(f, "address {addr:#x} exceeds the 32-bit entry fields")
            }
            TableBuildError::TooManyEntries => write!(f, "table exceeds the next-index space"),
        }
    }
}

impl std::error::Error for TableBuildError {}

/// Multiplicative hash of a BB address into the slot space (the paper's
/// "A mod P" with a mixing step so nearby addresses spread).
pub(crate) fn slot_index(bb_addr: u64, slots: usize) -> usize {
    let mixed = bb_addr.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (bb_addr >> 7);
    (mixed % slots as u64) as usize
}

fn addr32(addr: u64) -> Result<u32, TableBuildError> {
    u32::try_from(addr).map_err(|_| TableBuildError::AddressOverflow { addr })
}

fn entry_kind(term: TermKind) -> EntryKind {
    match term {
        TermKind::JumpIndirect | TermKind::CallIndirect => EntryKind::Computed,
        TermKind::Return => EntryKind::Return,
        _ => EntryKind::Implicit,
    }
}

fn set_next(entry: &mut RawEntry, value: u32) {
    match entry {
        RawEntry::Primary { next, .. }
        | RawEntry::Spill { next, .. }
        | RawEntry::AggressivePrimary { next, .. }
        | RawEntry::Cfi { next, .. } => *next = value,
        RawEntry::Invalid => panic!("cannot link an invalid entry"),
    }
}

/// A logical chain segment: one primary entry plus its spill continuations.
struct Segment {
    entries: Vec<RawEntry>,
}

/// An entry field's value as the digest binds it: an absent address
/// binds as 0.
fn bound(field: u32) -> u64 {
    if field == ENTRY_NONE {
        0
    } else {
        u64::from(field)
    }
}

fn spill_run(is_pred: bool, addrs: &[u32]) -> Vec<RawEntry> {
    addrs
        .chunks(3)
        .map(|c| RawEntry::Spill { is_pred, addrs: c.to_vec(), next: NEXT24_NONE })
        .collect()
}

/// Builds the logical segment for one block in standard mode.
///
/// Space optimizations straight from the paper's Sec. V: the targets of
/// non-computed branches are *not* stored ("since we verify the integrity
/// of the committed instruction in the BB, there is no need to verify the
/// target addresses for the non-computed branches"), and predecessors are
/// stored only when they are return instructions — the single case the
/// delayed return validation consults.
///
/// `sign(bound_succ, bound_pred)` is the primary entry's digest over the
/// block's body and the bound fields.
fn standard_segment(
    cfg: &Cfg,
    block: &BlockInfo,
    sign: impl FnOnce(u64, u64) -> u32,
) -> Result<Segment, TableBuildError> {
    // Successor lists are stored only where a target can change at run
    // time: computed branches, and returns ("the signature table entry
    // for the return instruction terminating such a function should list
    // multiple targets", Sec. V) — static branch targets are authenticated
    // by the block hash itself and are omitted.
    let succs: Vec<u32> = if entry_kind(block.term) != EntryKind::Implicit {
        block.successors.iter().map(|&a| addr32(a)).collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };
    let preds: Vec<u32> = block
        .predecessors
        .iter()
        .filter(|&&p| {
            let ids = cfg.blocks_by_bb_addr(p);
            if ids.is_empty() {
                // Not in this module's CFG: an external (cross-module)
                // return stitched in by the trusted linker — keep it.
                true
            } else {
                ids.iter().any(|id| cfg.block(*id).term == TermKind::Return)
            }
        })
        .map(|&a| addr32(a))
        .collect::<Result<_, _>>()?;
    let primary_succ = succs.first().copied().unwrap_or(ENTRY_NONE);
    let primary_pred = preds.first().copied().unwrap_or(ENTRY_NONE);
    let mut entries = vec![RawEntry::Primary {
        kind: entry_kind(block.term),
        digest: sign(bound(primary_succ), bound(primary_pred)),
        succ: primary_succ,
        pred: primary_pred,
        next: NEXT24_NONE,
    }];
    if succs.len() > 1 {
        entries.extend(spill_run(false, &succs[1..]));
    }
    if preds.len() > 1 {
        entries.extend(spill_run(true, &preds[1..]));
    }
    Ok(Segment { entries })
}

/// Builds the logical segment for one block in aggressive mode: two inline
/// verified targets per entry, both bound by the digest (paper Fig. 5).
/// `sign` is as for [`standard_segment`].
fn aggressive_segment(
    block: &BlockInfo,
    sign: impl FnOnce(u64, u64) -> u32,
) -> Result<Segment, TableBuildError> {
    let succs: Vec<u32> = block.successors.iter().map(|&a| addr32(a)).collect::<Result<_, _>>()?;
    let preds: Vec<u32> =
        block.predecessors.iter().map(|&a| addr32(a)).collect::<Result<_, _>>()?;
    let s0 = succs.first().copied().unwrap_or(ENTRY_NONE);
    let s1 = succs.get(1).copied().unwrap_or(ENTRY_NONE);
    let primary_pred = preds.first().copied().unwrap_or(ENTRY_NONE);
    let bound_targets = bound(s0) | (bound(s1) << 32);
    let mut entries = vec![RawEntry::AggressivePrimary {
        kind: entry_kind(block.term),
        digest: sign(bound_targets, bound(primary_pred)),
        succs: [s0, s1],
        pred: primary_pred,
        next: NEXT24_NONE,
        bb_tag: (block.bb_addr & 0xffff) as u16,
    }];
    if succs.len() > 2 {
        entries.extend(spill_run(false, &succs[2..]));
    }
    if preds.len() > 1 {
        entries.extend(spill_run(true, &preds[1..]));
    }
    Ok(Segment { entries })
}

/// Builds the CFI-only segment for one computed-terminator BB address: one
/// 8-byte entry per distinct target (paper Sec. V.D).
fn cfi_segment(bb_addr: u64, targets: &BTreeSet<u64>) -> Result<Segment, TableBuildError> {
    let src_tag = (bb_addr & 0xfff) as u16;
    let entries = targets
        .iter()
        .map(|&t| Ok(RawEntry::Cfi { target: addr32(t)?, src_tag, next: NEXT20_NONE }))
        .collect::<Result<Vec<_>, TableBuildError>>()?;
    Ok(Segment { entries })
}

/// Builds the encrypted signature table for `module`.
///
/// `cpu` is the CPU-resident master key used to wrap the module's symmetric
/// key into the table header (paper Sec. IX: "the encrypted symmetric key
/// is stored at the beginning of the signature table").
///
/// # Errors
///
/// Returns [`TableBuildError`] on 32-bit field overflow or index-space
/// exhaustion.
pub fn build_table(
    module: &Module,
    cfg: &Cfg,
    key: &SignatureKey,
    mode: ValidationMode,
    cpu: &Aes128,
) -> Result<SignatureTable, TableBuildError> {
    // 1. Logical segments keyed by BB address. One reused CHG hashes each
    //    block body, then signs the primary entry over it.
    let mut segments: Vec<(u64, Segment)> = Vec::new();
    match mode {
        ValidationMode::Standard | ValidationMode::Aggressive => {
            let mut h = CubeHash::new();
            for block in cfg.blocks() {
                let body = bb_body_hash_with(&mut h, cfg.block_bytes(module, block));
                let sign =
                    |succ, pred| entry_digest_with(&mut h, key, block.bb_addr, &body, succ, pred).0;
                let segment = match mode {
                    ValidationMode::Standard => standard_segment(cfg, block, sign)?,
                    _ => aggressive_segment(block, sign)?,
                };
                segments.push((block.bb_addr, segment));
            }
        }
        ValidationMode::CfiOnly => {
            // One segment per computed-terminator address; merge target
            // sets across block variants sharing the terminator.
            let mut by_addr: std::collections::BTreeMap<u64, BTreeSet<u64>> = Default::default();
            for block in cfg.blocks() {
                if entry_kind(block.term).needs_target_check() {
                    by_addr.entry(block.bb_addr).or_default().extend(&block.successors);
                }
            }
            for (addr, targets) in &by_addr {
                if targets.is_empty() {
                    // A computed terminator with no legitimate targets
                    // (e.g. the return of a never-called function) gets no
                    // entry: executing it can only be a violation.
                    continue;
                }
                segments.push((*addr, cfi_segment(*addr, targets)?));
            }
        }
    }

    // 2. Placement: slot region sized ~1.15x the segment count (denser
    //    packing costs slightly longer collision chains, the trade-off the
    //    paper accepts to keep tables small).
    let slots = (segments.len() * 23 / 20).max(8) | 1; // odd, >= 8
    let mut entries: Vec<RawEntry> = vec![RawEntry::Invalid; slots];
    let mut chain_tail: Vec<Option<usize>> = vec![None; slots]; // tail index per slot chain
    let next_limit = match mode {
        ValidationMode::CfiOnly => NEXT20_NONE as usize,
        _ => NEXT24_NONE as usize,
    };

    let mut primaries = 0usize;
    let mut spills = 0usize;
    for (bb_addr, segment) in segments {
        let slot = slot_index(bb_addr, slots);
        let mut seg_iter = segment.entries.into_iter();
        let first = seg_iter.next().expect("segments are non-empty");
        primaries += 1;
        // Place the first entry: into the slot if free, else appended and
        // linked from the current chain tail.
        let first_idx = if matches!(entries[slot], RawEntry::Invalid) {
            entries[slot] = first;
            slot
        } else {
            entries.push(first);
            let idx = entries.len() - 1;
            if idx >= next_limit {
                return Err(TableBuildError::TooManyEntries);
            }
            let tail = chain_tail[slot].unwrap_or(slot);
            set_next(&mut entries[tail], idx as u32);
            idx
        };
        // Append the segment's continuation entries.
        let mut tail = first_idx;
        for entry in seg_iter {
            spills += 1;
            entries.push(entry);
            let idx = entries.len() - 1;
            if idx >= next_limit {
                return Err(TableBuildError::TooManyEntries);
            }
            set_next(&mut entries[tail], idx as u32);
            tail = idx;
        }
        chain_tail[slot] = Some(tail);
    }

    // 3. Serialize + encrypt (16-byte blocks, tweak = block index within
    //    the entry region, so each block decrypts independently).
    let entry_size = mode.entry_size();
    let mut region: Vec<u8> = Vec::with_capacity(entries.len() * entry_size);
    for e in &entries {
        region.extend_from_slice(&e.pack(mode));
    }
    // Pad to a whole number of AES blocks (CFI entries are 8 B).
    while !region.len().is_multiple_of(16) {
        region.push(0);
    }
    let aes = Aes128::new(*key.as_bytes());
    for (block_idx, chunk) in region.chunks_mut(16).enumerate() {
        aes.encrypt_tweaked(block_idx as u64, chunk);
    }

    // 4. Header: the module key wrapped by the CPU master key.
    let wrapped = cpu.encrypt_block(key.as_bytes());
    let mut image = Vec::with_capacity(16 + region.len());
    image.extend_from_slice(&wrapped);
    image.extend_from_slice(&region);

    let stats = TableStats {
        primaries,
        spills,
        slots,
        image_bytes: image.len(),
        code_bytes: module.code_len(),
    };
    Ok(SignatureTable::from_parts(
        module.name().to_string(),
        module.base(),
        module.code_end(),
        mode,
        slots,
        entries.len(),
        image,
        *key,
        aes,
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rev_isa::{BranchCond, Instruction, Reg};
    use rev_prog::{BbLimits, ModuleBuilder};

    fn demo() -> (Module, Cfg) {
        let mut b = ModuleBuilder::new("demo", 0x1000);
        let f = b.begin_function("main");
        let out = b.new_label();
        b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R0, imm: 1 });
        b.branch(BranchCond::Eq, Reg::R1, Reg::R0, out);
        b.push(Instruction::AddI { rd: Reg::R2, rs: Reg::R0, imm: 2 });
        b.bind(out);
        b.push(Instruction::Halt);
        b.end_function(f);
        let m = b.finish().unwrap();
        let cfg = Cfg::analyze(&m, BbLimits::default()).unwrap();
        (m, cfg)
    }

    fn cpu() -> Aes128 {
        Aes128::new([0x33; 16])
    }

    #[test]
    fn build_all_modes() {
        let (m, cfg) = demo();
        let key = SignatureKey::from_seed(1);
        for mode in [ValidationMode::Standard, ValidationMode::Aggressive, ValidationMode::CfiOnly]
        {
            let t = build_table(&m, &cfg, &key, mode, &cpu()).unwrap();
            assert_eq!(t.mode(), mode);
            assert!(t.image().len() >= 16);
            assert_eq!(t.image().len() % 16, 0);
        }
    }

    #[test]
    fn standard_has_entry_per_block() {
        let (m, cfg) = demo();
        let key = SignatureKey::from_seed(2);
        let t = build_table(&m, &cfg, &key, ValidationMode::Standard, &cpu()).unwrap();
        assert_eq!(t.stats().primaries, cfg.blocks().len());
    }

    #[test]
    fn cfi_only_is_much_smaller() {
        let (m, cfg) = demo();
        let key = SignatureKey::from_seed(3);
        let std_t = build_table(&m, &cfg, &key, ValidationMode::Standard, &cpu()).unwrap();
        let cfi_t = build_table(&m, &cfg, &key, ValidationMode::CfiOnly, &cpu()).unwrap();
        assert!(cfi_t.image().len() < std_t.image().len());
    }

    #[test]
    fn aggressive_is_larger_than_standard() {
        let (m, cfg) = demo();
        let key = SignatureKey::from_seed(4);
        let std_t = build_table(&m, &cfg, &key, ValidationMode::Standard, &cpu()).unwrap();
        let agg_t = build_table(&m, &cfg, &key, ValidationMode::Aggressive, &cpu()).unwrap();
        assert!(agg_t.image().len() > std_t.image().len());
    }

    #[test]
    fn wrapped_key_unwraps_with_cpu_key() {
        let (m, cfg) = demo();
        let key = SignatureKey::from_seed(5);
        let c = cpu();
        let t = build_table(&m, &cfg, &key, ValidationMode::Standard, &c).unwrap();
        assert_eq!(t.unwrap_key(&c), key);
    }

    #[test]
    fn image_is_actually_encrypted() {
        let (m, cfg) = demo();
        let key = SignatureKey::from_seed(6);
        let t = build_table(&m, &cfg, &key, ValidationMode::Standard, &cpu()).unwrap();
        // A plaintext table would contain many all-zero invalid slots; the
        // ciphertext must not.
        let zero_blocks = t.image()[16..].chunks(16).filter(|c| c.iter().all(|&b| b == 0)).count();
        assert_eq!(zero_blocks, 0, "encrypted image must not leak zero slots");
    }

    #[test]
    fn duplicate_leaders_pin_table_stats() {
        use rev_crypto::{bb_body_hash, entry_digest};
        // Hand-written module with duplicate leaders: an (unreachable)
        // jump targets the middle of the entry run, so the halt terminator
        // owns two distinct blocks with the same BB address.
        let mut b = ModuleBuilder::new("dup", 0x1000);
        let mid = b.new_label();
        b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R0, imm: 1 });
        b.bind(mid);
        b.push(Instruction::AddI { rd: Reg::R2, rs: Reg::R0, imm: 2 });
        b.push(Instruction::Halt);
        b.jmp(mid);
        let m = b.finish().unwrap();
        let cfg = Cfg::analyze(&m, BbLimits::default()).unwrap();
        assert_eq!(cfg.blocks().len(), 2, "two leaders into one terminator");
        let halt_addr = cfg.blocks()[0].bb_addr;
        assert!(cfg.blocks().iter().all(|blk| blk.bb_addr == halt_addr));

        let key = SignatureKey::from_seed(20);
        let t = build_table(&m, &cfg, &key, ValidationMode::Standard, &cpu()).unwrap();
        let s = t.stats();
        // Pin the exact table shape: one primary per block variant, no
        // spills (no computed targets, no return predecessors), the
        // minimum slot count, and one collision-appended entry (both
        // variants hash to the same slot by construction).
        assert_eq!(s.primaries, 2);
        assert_eq!(s.spills, 0);
        assert_eq!(s.slots, 9); // (2 * 23 / 20).max(8) | 1
        assert_eq!(t.total_entries(), 10, "slot region + 1 collision entry");
        assert_eq!(s.image_bytes, 16 + 10 * 16);
        assert_eq!(s.code_bytes, m.code_len());

        // The two variants produce two digest-distinct entries on one
        // chain, each matching exactly one block body.
        let lookup = t.lookup(halt_addr);
        assert!(!lookup.parse_failure);
        assert_eq!(lookup.variants.len(), 2);
        assert_ne!(lookup.variants[0].digest, lookup.variants[1].digest);
        for block in cfg.blocks() {
            let body = bb_body_hash(cfg.block_bytes(&m, block));
            let matching = lookup
                .variants
                .iter()
                .filter(|v| v.digest == Some(entry_digest(&key, halt_addr, &body, 0, 0).0))
                .count();
            assert_eq!(matching, 1, "leader at {:#x}", block.start);
        }
    }

    #[test]
    fn over_long_block_pins_table_stats() {
        use rev_crypto::{bb_body_hash, entry_digest};
        // A block far past the split limit: 10 instructions at
        // max_instrs = 4 must become ceil-split artificial segments, each
        // with its own table entry.
        let mut b = ModuleBuilder::new("long", 0x1000);
        for i in 0..10 {
            b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: i });
        }
        b.push(Instruction::Halt);
        let m = b.finish().unwrap();
        let limits = BbLimits { max_instrs: 4, max_stores: 8 };
        let cfg = Cfg::analyze(&m, limits).unwrap();
        assert_eq!(cfg.blocks().len(), 3, "4 + 4 + (2 + halt)");

        let key = SignatureKey::from_seed(21);
        let t = build_table(&m, &cfg, &key, ValidationMode::Standard, &cpu()).unwrap();
        let s = t.stats();
        // Artificial splits get Implicit entries: no successor or
        // predecessor storage, hence zero spills.
        assert_eq!(s.primaries, 3);
        assert_eq!(s.spills, 0);
        assert_eq!(s.slots, 9); // (3 * 23 / 20).max(8) | 1
                                // Entry count is slot region + collision overflow; derive the
                                // expected overflow from the (deterministic) slot hash so the
                                // pinned value survives only genuine layout changes.
        let distinct_slots: std::collections::HashSet<usize> =
            cfg.blocks().iter().map(|blk| slot_index(blk.bb_addr, s.slots)).collect();
        let expected_total = s.slots + (cfg.blocks().len() - distinct_slots.len());
        assert_eq!(t.total_entries(), expected_total);
        assert_eq!(s.image_bytes, 16 + expected_total * 16);

        // Every split segment is digest-findable under its own BB address.
        for block in cfg.blocks() {
            let body = bb_body_hash(cfg.block_bytes(&m, block));
            let found = t
                .lookup(block.bb_addr)
                .variants
                .iter()
                .any(|v| v.digest == Some(entry_digest(&key, block.bb_addr, &body, 0, 0).0));
            assert!(found, "split block at {:#x} has an entry", block.bb_addr);
        }
    }

    #[test]
    fn slot_index_spreads() {
        let mut used = std::collections::HashSet::new();
        for i in 0..100u64 {
            used.insert(slot_index(0x1000 + i * 8, 131));
        }
        assert!(used.len() > 50, "hash should spread addresses");
    }
}
