//! REV signature derivations.
//!
//! The paper's validation hash binds four things together (Sec. V.B): the
//! instruction bytes of the basic block, the address of the BB (the address
//! of its terminating control-flow instruction), the successor (target)
//! address recorded in the table entry, and the predecessor address. The
//! stored reference value is the **last 4 bytes** of the crypto hash
//! (Sec. V.C — the deliberate truncation the "aggressive" mode exists to
//! compensate for). The hash is keyed with the module's secret key so that
//! an adversary who can read the (encrypted) table still cannot forge
//! entries.

use crate::cubehash::{CubeHash, CubeHashX4, X4_LANES};
use std::fmt;

/// Full-width digest of a basic block's instruction bytes, as produced by
/// the CHG while the block's instructions stream through the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BodyHash(pub [u8; 32]);

impl rev_trace::Ckpt for BodyHash {
    const MIN_BYTES: usize = 32;

    fn save(&self, w: &mut rev_trace::CkptWriter) {
        w.raw(&self.0);
    }

    fn load(r: &mut rev_trace::CkptReader<'_>) -> Result<Self, rev_trace::CkptError> {
        rev_trace::Ckpt::load(r).map(BodyHash)
    }
}

/// The truncated 4-byte reference digest stored in a signature-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EntryDigest(pub u32);

impl fmt::Display for EntryDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", self.0)
    }
}

impl fmt::LowerHex for EntryDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A per-module secret key used both to key the validation hash and to
/// encrypt the module's signature table (paper Sec. IX: the symmetric key is
/// itself wrapped with a CPU-specific public key; key wrapping is modeled in
/// `rev-sigtable`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignatureKey([u8; 16]);

impl fmt::Debug for SignatureKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SignatureKey(..)")
    }
}

impl SignatureKey {
    /// Wraps raw key bytes.
    pub const fn from_bytes(bytes: [u8; 16]) -> Self {
        SignatureKey(bytes)
    }

    /// Returns the raw key bytes (for the AES table-encryption path).
    pub const fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Derives a key deterministically from a seed (convenience for tests
    /// and workload setup; production keys come from the TPM-like store).
    pub fn from_seed(seed: u64) -> Self {
        let digest = CubeHash::digest(&seed.to_le_bytes());
        let mut key = [0u8; 16];
        key.copy_from_slice(&digest[..16]);
        SignatureKey(key)
    }
}

/// Hashes a basic block's raw instruction bytes, exactly as the pipelined
/// CHG does while the block streams through the fetch stages.
pub fn bb_body_hash(instr_bytes: &[u8]) -> BodyHash {
    let mut h = CubeHash::new();
    bb_body_hash_with(&mut h, instr_bytes)
}

/// [`bb_body_hash`] through a caller-owned reusable hasher: the
/// allocation-free hot path. The hasher is reset before and after use, so
/// any parameters-compatible instance can be shared across calls.
///
/// # Panics
///
/// Panics if the hasher's digest length is not 32 bytes (the CHG digest
/// width).
pub fn bb_body_hash_with(h: &mut CubeHash, instr_bytes: &[u8]) -> BodyHash {
    h.reset();
    h.update(instr_bytes);
    let digest = h.finalize_reset();
    let mut out = [0u8; 32];
    out.copy_from_slice(&digest);
    BodyHash(out)
}

/// Derives the 4-byte reference digest for one signature-table entry.
///
/// Binds `(key, bb_addr, body, target, pred)`; any change to the block's
/// bytes, its address, the recorded successor, or the recorded predecessor
/// produces a different digest (with 2⁻³² collision probability — see the
/// paper's Sec. V.C discussion and the `Aggressive` mode).
pub fn entry_digest(
    key: &SignatureKey,
    bb_addr: u64,
    body: &BodyHash,
    target: u64,
    pred: u64,
) -> EntryDigest {
    let mut h = CubeHash::new();
    entry_digest_with(&mut h, key, bb_addr, body, target, pred)
}

/// [`entry_digest`] through a caller-owned reusable hasher: the
/// allocation-free hot path used by the run-time monitor, which derives one
/// digest per validated basic block. The hasher is reset before and after
/// use.
pub fn entry_digest_with(
    h: &mut CubeHash,
    key: &SignatureKey,
    bb_addr: u64,
    body: &BodyHash,
    target: u64,
    pred: u64,
) -> EntryDigest {
    h.reset();
    h.update(&key.0);
    h.update(&bb_addr.to_le_bytes());
    h.update(&body.0);
    h.update(&target.to_le_bytes());
    h.update(&pred.to_le_bytes());
    let digest = h.finalize_reset();
    // "the last 4 bytes of the crypto hash value" (paper Sec. V.C)
    let tail: [u8; 4] = digest[digest.len() - 4..].try_into().expect("4 bytes");
    EntryDigest(u32::from_le_bytes(tail))
}

/// Four [`bb_body_hash`]es in one multi-lane pass: the batched CHG path
/// of the monitor's pending-BB batches. Lane `i` of the
/// result is bit-equal to `bb_body_hash(bodies[i])` — [`CubeHashX4`]
/// carries the equivalence proof — so batched and scalar hashing are
/// freely interchangeable.
pub fn bb_body_hash_x4(h: &CubeHashX4, bodies: [&[u8]; X4_LANES]) -> [BodyHash; X4_LANES] {
    let digests = h.digest4(bodies);
    std::array::from_fn(|lane| {
        let mut out = [0u8; 32];
        out.copy_from_slice(&digests[lane]);
        BodyHash(out)
    })
}

/// Chaos-campaign injection site for CHG output corruption: consults the
/// injector at [`rev_trace::FaultLayer::ChgDigest`] and, on the trigger
/// visit, flips one bit of `hash` — modeling a transient fault in the
/// hash generator's output latch. Returns `true` when the digest was
/// altered. A disabled injector makes this a single branch.
pub fn apply_chg_fault(fault: &rev_trace::FaultInjector, hash: &mut BodyHash) -> bool {
    fault.corrupt_bytes(rev_trace::FaultLayer::ChgDigest, &mut hash.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(bytes: &[u8]) -> BodyHash {
        bb_body_hash(bytes)
    }

    /// The multi-lane body-hash path must match its scalar counterpart
    /// lane for lane (mixed-length bodies included).
    #[test]
    fn x4_sig_helpers_match_scalar() {
        let h4 = CubeHashX4::new();
        let bodies: [&[u8]; 4] = [&[], &[0x10], &[1, 2, 3, 4, 5, 6, 7], &[0xee; 90]];
        let hashes = bb_body_hash_x4(&h4, bodies);
        for (lane, (got, raw)) in hashes.iter().zip(bodies).enumerate() {
            assert_eq!(*got, bb_body_hash(raw), "body lane {lane}");
        }
    }

    #[test]
    fn digest_binds_every_field() {
        let key = SignatureKey::from_seed(1);
        let b = body(&[1, 2, 3]);
        let base = entry_digest(&key, 0x1000, &b, 0x2000, 0x3000);
        assert_ne!(base, entry_digest(&key, 0x1008, &b, 0x2000, 0x3000), "bb addr");
        assert_ne!(base, entry_digest(&key, 0x1000, &b, 0x2008, 0x3000), "target");
        assert_ne!(base, entry_digest(&key, 0x1000, &b, 0x2000, 0x3008), "pred");
        assert_ne!(base, entry_digest(&key, 0x1000, &body(&[1, 2, 4]), 0x2000, 0x3000), "body");
        assert_ne!(
            base,
            entry_digest(&SignatureKey::from_seed(2), 0x1000, &b, 0x2000, 0x3000),
            "key"
        );
    }

    #[test]
    fn digest_is_deterministic() {
        let key = SignatureKey::from_seed(9);
        let b = body(b"block");
        assert_eq!(entry_digest(&key, 7, &b, 8, 9), entry_digest(&key, 7, &b, 8, 9));
    }

    #[test]
    fn key_debug_redacts() {
        let key = SignatureKey::from_bytes([0xaa; 16]);
        assert_eq!(format!("{key:?}"), "SignatureKey(..)");
    }

    #[test]
    fn from_seed_is_stable_and_distinct() {
        assert_eq!(SignatureKey::from_seed(5), SignatureKey::from_seed(5));
        assert_ne!(SignatureKey::from_seed(5), SignatureKey::from_seed(6));
    }

    /// The reusable-hasher variants must agree exactly with the one-shot
    /// functions, across repeated uses of one instance.
    #[test]
    fn reusable_variants_match_oneshot() {
        let mut h = CubeHash::new();
        let key = SignatureKey::from_seed(3);
        for (i, bytes) in [&b"alpha"[..], b"beta", b"", b"gamma gamma"].iter().enumerate() {
            let b = bb_body_hash_with(&mut h, bytes);
            assert_eq!(b, bb_body_hash(bytes), "body hash diverged on use {i}");
            let d = entry_digest_with(&mut h, &key, 0x100 + i as u64, &b, 0x200, 0x300);
            assert_eq!(
                d,
                entry_digest(&key, 0x100 + i as u64, &b, 0x200, 0x300),
                "entry digest diverged on use {i}"
            );
        }
    }
}
