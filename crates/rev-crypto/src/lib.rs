//! # rev-crypto — cryptographic primitives and the CHG model for REV
//!
//! The REV paper relies on two cryptographic components, both implemented
//! here from scratch (no external crypto crates):
//!
//! * **CubeHash** ([`CubeHash`]) — the paper's crypto hash generator (CHG)
//!   is a pipelined hardware CubeHash implementation; a 5-round variant
//!   meets the 16-cycle latency budget (paper Sec. VI, citing Bernstein's
//!   SHA-3 round-2 candidate). We implement the full CubeHash`r`/`b`
//!   algorithm with parameterizable rounds, block size and digest length.
//! * **AES-128** ([`Aes128`]) — reference signature tables are stored in RAM
//!   encrypted with a per-module symmetric key (paper Secs. IV.A, IX).
//!   Newer CPUs already carry AES units, which the paper leans on for its
//!   area estimate. Implemented per FIPS-197 with the S-box derived from the
//!   GF(2⁸) inverse (validated against the FIPS-197 test vector).
//!
//! On top of the primitives sit the REV-specific derivations
//! ([`SignatureKey`], [`bb_body_hash`], [`entry_digest`]) and the
//! cycle-level timing model of the pipelined hash generator ([`ChgPipeline`])
//! with speculative-tag flushing, mirroring the paper's Figure 1 component.
//!
//! # Example
//!
//! ```
//! use rev_crypto::{CubeHash, SignatureKey, bb_body_hash, entry_digest};
//!
//! // Hash a basic block's instruction bytes the way the CHG does.
//! let body = bb_body_hash(&[0x10, 0x01, 0x02, 0x03]);
//!
//! // Derive the 4-byte reference digest stored in the signature table.
//! let key = SignatureKey::from_bytes([7u8; 16]);
//! let d = entry_digest(&key, 0x1000, &body, 0x1040, 0x0f00);
//! assert_eq!(d, entry_digest(&key, 0x1000, &body, 0x1040, 0x0f00));
//! ```

mod aes;
mod chg;
mod cubehash;
mod sig;

pub use aes::{Aes128, BLOCK_LEN};
pub use chg::{ChgConfig, ChgPipeline, ChgTag};
pub use cubehash::{CubeHash, CubeHashParams, CubeHashX4, Digest, MAX_DIGEST_BYTES, X4_LANES};
pub use sig::{
    apply_chg_fault, bb_body_hash, bb_body_hash_with, bb_body_hash_x4, entry_digest,
    entry_digest_with, BodyHash, EntryDigest, SignatureKey,
};
