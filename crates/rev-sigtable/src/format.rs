//! On-"disk" (in-RAM) entry formats and their packing.
//!
//! All multi-byte fields are little-endian. Addresses are stored as 32-bit
//! values: the simulated address space fits in 32 bits, standing in for the
//! paper's module-relative offsets ("using offsets instead of full
//! addresses", Sec. V.B). `0xffff_ffff` marks an absent address.

use std::fmt;

/// Sentinel for "no address" / "no next entry".
pub const ENTRY_NONE: u32 = u32::MAX;
/// Sentinel for a 24-bit next-index field.
pub const NEXT24_NONE: u32 = 0x00ff_ffff;
/// Sentinel for a 20-bit next-index field (CFI-only entries).
pub const NEXT20_NONE: u32 = 0x000f_ffff;

/// Which validation flavor a table implements (paper Secs. V.B–V.D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationMode {
    /// Hash + implicit static-branch validation + explicit computed-branch
    /// and return validation (the paper's main design).
    Standard,
    /// Hash + explicit validation of **every** branch target; two inline
    /// targets per 32-byte entry (paper Sec. V.C, Fig. 5).
    Aggressive,
    /// Control-flow-integrity only: no hashes, entries only for computed
    /// branches and returns (paper Sec. V.D).
    CfiOnly,
}

impl ValidationMode {
    /// Entry size in bytes for this mode.
    pub fn entry_size(self) -> usize {
        match self {
            ValidationMode::Standard => 16,
            ValidationMode::Aggressive => 32,
            ValidationMode::CfiOnly => 8,
        }
    }

    /// Whether this mode stores and checks BB crypto hashes.
    pub fn uses_hashes(self) -> bool {
        !matches!(self, ValidationMode::CfiOnly)
    }
}

impl fmt::Display for ValidationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationMode::Standard => write!(f, "standard"),
            ValidationMode::Aggressive => write!(f, "aggressive"),
            ValidationMode::CfiOnly => write!(f, "cfi-only"),
        }
    }
}

/// Terminator classification stored in primary entries (2 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// Static control flow (conditional branch, direct jump/call, syscall,
    /// artificial split): target validated implicitly by the BB hash.
    Implicit,
    /// Computed jump/call: target validated explicitly.
    Computed,
    /// Return: delayed validation via the successor block's predecessor
    /// field (paper Sec. V.A).
    Return,
}

rev_trace::ckpt_enum!(EntryKind { Implicit = 0, Computed = 1, Return = 2 });

impl EntryKind {
    fn code(self) -> u8 {
        match self {
            EntryKind::Implicit => 0,
            EntryKind::Computed => 1,
            EntryKind::Return => 2,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => EntryKind::Implicit,
            1 => EntryKind::Computed,
            2 => EntryKind::Return,
            _ => return None,
        })
    }

    /// Whether the actual transfer target must be membership-checked
    /// against the successor list in standard mode.
    pub fn needs_target_check(self) -> bool {
        matches!(self, EntryKind::Computed | EntryKind::Return)
    }
}

/// A decoded (plaintext) table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawEntry {
    /// An unused slot.
    Invalid,
    /// A standard-mode primary entry (16 B).
    Primary {
        /// Terminator classification.
        kind: EntryKind,
        /// Keyed 4-byte digest (binds bytes, BB addr, succ, pred).
        digest: u32,
        /// Primary successor (start address of the successor block), or
        /// [`ENTRY_NONE`].
        succ: u32,
        /// Primary predecessor (BB address of the predecessor block), or
        /// [`ENTRY_NONE`].
        pred: u32,
        /// Next entry index (spill continuation or collision chain), 24-bit.
        next: u32,
    },
    /// Additional successor or predecessor addresses (16 B, up to 3).
    Spill {
        /// `true` if the addresses extend the predecessor list, `false`
        /// for the successor list.
        is_pred: bool,
        /// 1–3 addresses.
        addrs: Vec<u32>,
        /// Next entry index, 24-bit.
        next: u32,
    },
    /// An aggressive-mode primary entry (32 B, two inline targets).
    AggressivePrimary {
        /// Terminator classification.
        kind: EntryKind,
        /// Keyed 4-byte digest.
        digest: u32,
        /// Up to two inline successor addresses.
        succs: [u32; 2],
        /// Primary predecessor.
        pred: u32,
        /// Next entry index, 24-bit.
        next: u32,
        /// Low 16 bits of the BB address (chain discriminator).
        bb_tag: u16,
    },
    /// A CFI-only entry (8 B): one target per entry.
    Cfi {
        /// Full (32-bit) target address.
        target: u32,
        /// Low 12 bits of the source BB address (discriminator).
        src_tag: u16,
        /// Next entry index, 20-bit ([`NEXT20_NONE`] = none).
        next: u32,
    },
}

impl RawEntry {
    /// The entry's next-index, if any.
    pub fn next(&self) -> Option<u32> {
        match self {
            RawEntry::Invalid => None,
            RawEntry::Primary { next, .. }
            | RawEntry::Spill { next, .. }
            | RawEntry::AggressivePrimary { next, .. } => {
                if *next == NEXT24_NONE {
                    None
                } else {
                    Some(*next)
                }
            }
            RawEntry::Cfi { next, .. } => {
                if *next == NEXT20_NONE {
                    None
                } else {
                    Some(*next)
                }
            }
        }
    }

    /// Packs the entry into `mode.entry_size()` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the entry does not belong to `mode`, an index field
    /// overflows its width, or a spill holds 0 or more than 3 addresses.
    pub fn pack(&self, mode: ValidationMode) -> Vec<u8> {
        let mut out = vec![0u8; mode.entry_size()];
        match (self, mode) {
            (RawEntry::Invalid, _) => {
                // All zeros; type bits 0 = invalid.
            }
            (RawEntry::Primary { kind, digest, succ, pred, next }, ValidationMode::Standard) => {
                assert!(*next <= NEXT24_NONE, "next index overflows 24 bits");
                let has_succ = *succ != ENTRY_NONE;
                let has_pred = *pred != ENTRY_NONE;
                out[0] = 0b01
                    | (kind.code() << 2)
                    | (u8::from(has_succ) << 4)
                    | (u8::from(has_pred) << 5);
                out[1..5].copy_from_slice(&digest.to_le_bytes());
                out[5..9].copy_from_slice(&succ.to_le_bytes());
                out[9..13].copy_from_slice(&pred.to_le_bytes());
                out[13..16].copy_from_slice(&next.to_le_bytes()[..3]);
            }
            (RawEntry::Spill { is_pred, addrs, next }, ValidationMode::Standard)
            | (RawEntry::Spill { is_pred, addrs, next }, ValidationMode::Aggressive) => {
                assert!(*next <= NEXT24_NONE, "next index overflows 24 bits");
                assert!((1..=3).contains(&addrs.len()), "spill holds 1..=3 addresses");
                out[0] = 0b10 | (u8::from(*is_pred) << 2) | (((addrs.len() - 1) as u8) << 3);
                for (i, a) in addrs.iter().enumerate() {
                    out[1 + 4 * i..5 + 4 * i].copy_from_slice(&a.to_le_bytes());
                }
                out[13..16].copy_from_slice(&next.to_le_bytes()[..3]);
            }
            (
                RawEntry::AggressivePrimary { kind, digest, succs, pred, next, bb_tag },
                ValidationMode::Aggressive,
            ) => {
                assert!(*next <= NEXT24_NONE, "next index overflows 24 bits");
                out[0] = 0b01 | (kind.code() << 2);
                out[1..5].copy_from_slice(&digest.to_le_bytes());
                out[5..9].copy_from_slice(&succs[0].to_le_bytes());
                out[9..13].copy_from_slice(&succs[1].to_le_bytes());
                out[13..17].copy_from_slice(&pred.to_le_bytes());
                out[17..20].copy_from_slice(&next.to_le_bytes()[..3]);
                out[20..22].copy_from_slice(&bb_tag.to_le_bytes());
            }
            (RawEntry::Cfi { target, src_tag, next }, ValidationMode::CfiOnly) => {
                assert!(*src_tag < (1 << 12), "source tag overflows 12 bits");
                assert!(*next <= NEXT20_NONE, "next index overflows 20 bits");
                out[0..4].copy_from_slice(&target.to_le_bytes());
                let meta = (*src_tag as u32) | (next << 12);
                out[4..8].copy_from_slice(&meta.to_le_bytes());
            }
            (entry, mode) => panic!("entry {entry:?} does not belong to mode {mode}"),
        }
        out
    }

    /// Unpacks an entry from `bytes` (must be `mode.entry_size()` long).
    ///
    /// Returns `None` for bytes that do not parse as an entry of `mode`
    /// (e.g. after tampering with the encrypted table, decryption yields
    /// garbage that frequently fails to parse; garbage that *does* parse is
    /// caught by the digest check instead).
    pub fn unpack(mode: ValidationMode, bytes: &[u8]) -> Option<RawEntry> {
        if bytes.len() != mode.entry_size() {
            return None;
        }
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
        let next24 = |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], 0]);
        match mode {
            ValidationMode::Standard => {
                let ty = bytes[0] & 0b11;
                match ty {
                    0b00 => Some(RawEntry::Invalid),
                    0b01 => {
                        let kind = EntryKind::from_code((bytes[0] >> 2) & 0b11)?;
                        Some(RawEntry::Primary {
                            kind,
                            digest: u32_at(1),
                            succ: u32_at(5),
                            pred: u32_at(9),
                            next: next24(13),
                        })
                    }
                    0b10 => {
                        let is_pred = (bytes[0] >> 2) & 1 == 1;
                        let count = ((bytes[0] >> 3) & 0b11) as usize + 1;
                        if count > 3 {
                            return None;
                        }
                        let addrs = (0..count).map(|i| u32_at(1 + 4 * i)).collect();
                        Some(RawEntry::Spill { is_pred, addrs, next: next24(13) })
                    }
                    _ => None,
                }
            }
            ValidationMode::Aggressive => {
                let ty = bytes[0] & 0b11;
                match ty {
                    0b00 => Some(RawEntry::Invalid),
                    0b01 => {
                        let kind = EntryKind::from_code((bytes[0] >> 2) & 0b11)?;
                        Some(RawEntry::AggressivePrimary {
                            kind,
                            digest: u32_at(1),
                            succs: [u32_at(5), u32_at(9)],
                            pred: u32_at(13),
                            next: next24(17),
                            bb_tag: u16::from_le_bytes([bytes[20], bytes[21]]),
                        })
                    }
                    0b10 => {
                        let is_pred = (bytes[0] >> 2) & 1 == 1;
                        let count = ((bytes[0] >> 3) & 0b11) as usize + 1;
                        if count > 3 {
                            return None;
                        }
                        let addrs = (0..count).map(|i| u32_at(1 + 4 * i)).collect();
                        Some(RawEntry::Spill { is_pred, addrs, next: next24(13) })
                    }
                    _ => None,
                }
            }
            ValidationMode::CfiOnly => {
                let target = u32_at(0);
                let meta = u32_at(4);
                if target == 0 && meta == 0 {
                    return Some(RawEntry::Invalid);
                }
                Some(RawEntry::Cfi { target, src_tag: (meta & 0xfff) as u16, next: meta >> 12 })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_primary_round_trip() {
        let e = RawEntry::Primary {
            kind: EntryKind::Computed,
            digest: 0xdead_beef,
            succ: 0x1234,
            pred: ENTRY_NONE,
            next: 42,
        };
        let bytes = e.pack(ValidationMode::Standard);
        assert_eq!(bytes.len(), 16);
        assert_eq!(RawEntry::unpack(ValidationMode::Standard, &bytes), Some(e));
    }

    #[test]
    fn spill_round_trip_all_counts() {
        for count in 1..=3usize {
            for is_pred in [false, true] {
                let e = RawEntry::Spill {
                    is_pred,
                    addrs: (0..count as u32).map(|i| 0x1000 + i).collect(),
                    next: NEXT24_NONE,
                };
                let bytes = e.pack(ValidationMode::Standard);
                assert_eq!(RawEntry::unpack(ValidationMode::Standard, &bytes), Some(e));
            }
        }
    }

    #[test]
    fn aggressive_round_trip() {
        let e = RawEntry::AggressivePrimary {
            kind: EntryKind::Return,
            digest: 1,
            succs: [0x10, 0x20],
            pred: 0x30,
            next: 7,
            bb_tag: 0xabcd,
        };
        let bytes = e.pack(ValidationMode::Aggressive);
        assert_eq!(bytes.len(), 32);
        assert_eq!(RawEntry::unpack(ValidationMode::Aggressive, &bytes), Some(e));
    }

    #[test]
    fn cfi_round_trip() {
        let e = RawEntry::Cfi { target: 0x4000, src_tag: 0x123, next: 99 };
        let bytes = e.pack(ValidationMode::CfiOnly);
        assert_eq!(bytes.len(), 8);
        assert_eq!(RawEntry::unpack(ValidationMode::CfiOnly, &bytes), Some(e));
    }

    #[test]
    fn invalid_is_all_zero() {
        let bytes = RawEntry::Invalid.pack(ValidationMode::Standard);
        assert!(bytes.iter().all(|&b| b == 0));
        assert_eq!(RawEntry::unpack(ValidationMode::Standard, &bytes), Some(RawEntry::Invalid));
    }

    #[test]
    fn next_sentinel_means_none() {
        let e = RawEntry::Primary {
            kind: EntryKind::Implicit,
            digest: 0,
            succ: 0,
            pred: 0,
            next: NEXT24_NONE,
        };
        assert_eq!(e.next(), None);
        let e2 = RawEntry::Cfi { target: 1, src_tag: 0, next: NEXT20_NONE };
        assert_eq!(e2.next(), None);
        let e3 = RawEntry::Cfi { target: 1, src_tag: 0, next: 5 };
        assert_eq!(e3.next(), Some(5));
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn wrong_mode_pack_panics() {
        let e = RawEntry::Cfi { target: 1, src_tag: 0, next: 0 };
        let _ = e.pack(ValidationMode::Standard);
    }

    #[test]
    fn unpack_wrong_length_is_none() {
        assert_eq!(RawEntry::unpack(ValidationMode::Standard, &[0u8; 8]), None);
    }

    #[test]
    fn mode_properties() {
        assert_eq!(ValidationMode::Standard.entry_size(), 16);
        assert_eq!(ValidationMode::Aggressive.entry_size(), 32);
        assert_eq!(ValidationMode::CfiOnly.entry_size(), 8);
        assert!(ValidationMode::Standard.uses_hashes());
        assert!(!ValidationMode::CfiOnly.uses_hashes());
    }
}
