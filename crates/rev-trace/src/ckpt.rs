//! The binary checkpoint codec; [`CKPT_SCHEMA`] names its current layout.
//!
//! A checkpoint is a self-delimiting byte envelope:
//!
//! ```text
//! +----------+---------+----------------+-----------+------------+
//! | magic 8B | ver u32 | recipe (bytes) | state ... | fnv64  8B  |
//! +----------+---------+----------------+-----------+------------+
//! ```
//!
//! * **magic** — the literal bytes `REVCKPT1`.
//! * **version** — [`CKPT_VERSION`], little-endian. Any layout change to
//!   the state body bumps it; readers reject unknown versions.
//! * **recipe** — an opaque, caller-owned section (length-prefixed).
//!   `rev-serve` stores the job spec JSON here so a checkpoint file is
//!   self-describing; the codec never interprets it.
//! * **state** — the serialized mutable simulator state, written through
//!   [`CkptWriter`]'s primitive encoders and tagged section markers.
//!   Each struct describes its state once, as a field list given to
//!   [`ckpt_fields!`](crate::ckpt_fields) (see [`Ckpt`] and
//!   [`CkptFields`]); fieldless enums map to byte codes through
//!   [`ckpt_enum!`](crate::ckpt_enum).
//! * **checksum** — FNV-1a 64 over every preceding byte. Verified
//!   *before* any field is parsed, so a corrupted checkpoint (any single
//!   bit flip, anywhere) is rejected with
//!   [`CkptError::ChecksumMismatch`] and can never be silently restored.
//!
//! Reading is panic-free: every accessor bounds-checks and returns a
//! structured [`CkptError`]. Canonical encoding is the writer's job —
//! container state is serialized as sorted logical content, so
//! `serialize → deserialize → serialize` is byte-identical (pinned by
//! the round-trip suite in `rev-core`).
//!
//! `docs/CHECKPOINT.md` is the normative schema reference.

use crate::metrics::{Histogram, MetricRegistry};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// The 8-byte envelope magic.
pub const CKPT_MAGIC: [u8; 8] = *b"REVCKPT1";

/// The current state-body layout version.
pub const CKPT_VERSION: u32 = 4;

/// The schema identifier advertised in docs and service handshakes.
pub const CKPT_SCHEMA: &str = "rev-ckpt/4";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes`, byte by byte — the digest of golden tables,
/// table images and cache keys.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The envelope's trailing checksum over `body` (every byte before it):
/// FNV-1a 64 over the body's little-endian u64 words, then its tail
/// bytes one at a time. Each step — xor one word or byte into the state,
/// multiply by the odd FNV prime — is a bijection of the state, so a
/// change confined to one word or tail byte (any single bit flip) always
/// changes the sum. Eight bytes per multiply make it about eight times
/// cheaper than [`fnv1a64`] on a large envelope.
#[must_use]
pub fn ckpt_checksum(body: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut words = body.chunks_exact(8);
    for word in &mut words {
        h ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A structured checkpoint decode failure. Restores never panic and never
/// partially apply: any error leaves the target untouched by contract
/// (callers restore into a freshly built simulator and discard it on
/// error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The envelope is shorter than the fixed header + checksum.
    Truncated {
        /// Byte offset at which data ran out.
        at: usize,
    },
    /// The first eight bytes are not [`CKPT_MAGIC`].
    BadMagic,
    /// The version field names a layout this reader does not speak.
    BadVersion(u32),
    /// The trailing FNV-1a 64 does not match the envelope bytes.
    ChecksumMismatch {
        /// Checksum stored in the envelope.
        stored: u64,
        /// Checksum computed over the envelope bytes.
        computed: u64,
    },
    /// A section marker byte differed from the expected tag.
    BadTag {
        /// Tag the reader expected.
        expected: u8,
        /// Tag actually present.
        found: u8,
        /// Byte offset of the marker.
        offset: usize,
    },
    /// A semantic invariant failed (fingerprint mismatch, impossible
    /// length, out-of-range enum discriminant).
    Malformed(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated { at } => write!(f, "checkpoint truncated at byte {at}"),
            CkptError::BadMagic => write!(f, "not a rev-ckpt envelope (bad magic)"),
            CkptError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build speaks {CKPT_VERSION})")
            }
            CkptError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            CkptError::BadTag { expected, found, offset } => write!(
                f,
                "checkpoint section tag mismatch at byte {offset}: expected {expected:#04x}, \
                 found {found:#04x}"
            ),
            CkptError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Appends the envelope header and primitive encodings to a byte buffer.
///
/// All integers are little-endian; variable-length payloads carry a u64
/// length prefix. [`CkptWriter::finish`] seals the envelope with the
/// trailing checksum.
#[derive(Debug)]
pub struct CkptWriter {
    buf: Vec<u8>,
}

impl Default for CkptWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// The buffer a writer starts with. A simulator envelope is mostly fixed
/// state (predictor tables, valid cache lines, the signature cache) of a
/// few hundred KiB, so starting here seals it with one allocation, where
/// growing by doubling from 4 KiB took seven reallocations and copies on
/// every checkpoint of every job; `finish` returns the unused tail.
const INITIAL_CAPACITY: usize = 1 << 19;

impl CkptWriter {
    /// Starts an envelope: magic + version are written immediately.
    #[must_use]
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(INITIAL_CAPACITY);
        buf.extend_from_slice(&CKPT_MAGIC);
        buf.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        CkptWriter { buf }
    }

    /// Writes a section marker byte (checked by the reader).
    #[inline]
    pub fn tag(&mut self, t: u8) {
        self.buf.push(t);
    }

    /// Writes one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a little-endian u16.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a usize as a little-endian u64.
    #[inline]
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed byte slice.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Writes raw bytes with no length prefix (fixed-size payloads).
    #[inline]
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Seals the envelope: appends [`ckpt_checksum`] over everything written and
    /// returns a buffer exactly as large as the envelope (the writer grows
    /// by doubling, and a caller may keep the envelope for a long time).
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let sum = ckpt_checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf.shrink_to_fit();
        self.buf
    }
}

/// Bounds-checked reader over a sealed envelope.
///
/// [`CkptReader::new`] verifies length, checksum, magic and version
/// before handing out a single field, so every later accessor operates
/// on an integrity-checked byte range and can only fail on structural
/// mismatches ([`CkptError::Truncated`] / [`CkptError::BadTag`] /
/// [`CkptError::Malformed`]).
#[derive(Debug)]
pub struct CkptReader<'a> {
    /// Envelope body (magic through last state byte; checksum stripped).
    data: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    /// Opens an envelope: checks length, checksum, magic, version.
    ///
    /// # Errors
    ///
    /// Returns a [`CkptError`] describing the first integrity failure.
    pub fn new(data: &'a [u8]) -> Result<Self, CkptError> {
        let min = CKPT_MAGIC.len() + 4 + 8;
        if data.len() < min {
            return Err(CkptError::Truncated { at: data.len() });
        }
        let (body, sum_bytes) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().expect("split at 8"));
        let computed = ckpt_checksum(body);
        if stored != computed {
            return Err(CkptError::ChecksumMismatch { stored, computed });
        }
        if body[..8] != CKPT_MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
        if version != CKPT_VERSION {
            return Err(CkptError::BadVersion(version));
        }
        Ok(CkptReader { data: body, pos: 12 })
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self.pos.checked_add(n).ok_or(CkptError::Truncated { at: self.pos })?;
        if end > self.data.len() {
            return Err(CkptError::Truncated { at: self.pos });
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads and checks a section marker.
    ///
    /// # Errors
    ///
    /// [`CkptError::BadTag`] if the marker differs from `expected`.
    #[inline]
    pub fn tag(&mut self, expected: u8) -> Result<(), CkptError> {
        let offset = self.pos;
        let found = self.u8()?;
        if found != expected {
            return Err(CkptError::BadTag { expected, found, offset });
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] past the end of the envelope.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte, rejecting anything but 0/1.
    ///
    /// # Errors
    ///
    /// [`CkptError::Malformed`] on a non-boolean byte.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CkptError::Malformed(format!("bool byte {b:#04x}"))),
        }
    }

    /// Reads a little-endian u16.
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] past the end of the envelope.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] past the end of the envelope.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] past the end of the envelope.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a length prefix, sanity-bounded by the remaining envelope
    /// size (`per_item` bytes per element) so a corrupt length can never
    /// drive an allocation larger than the checkpoint itself.
    ///
    /// # Errors
    ///
    /// [`CkptError::Malformed`] if the announced length cannot fit.
    #[inline]
    pub fn len(&mut self, per_item: usize) -> Result<usize, CkptError> {
        let raw = self.u64()?;
        let n = usize::try_from(raw)
            .map_err(|_| CkptError::Malformed(format!("length {raw} overflows usize")))?;
        let remaining = self.remaining();
        if n.checked_mul(per_item.max(1)).is_none_or(|need| need > remaining) {
            return Err(CkptError::Malformed(format!(
                "length {n} x {per_item}B exceeds remaining {remaining}B"
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte slice (borrowed from the envelope).
    ///
    /// # Errors
    ///
    /// Propagates length/bounds failures.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Bytes left before the end of the envelope body — the bound a
    /// decoder checks a count against before looping over it.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads `n` raw bytes (fixed-size payloads, no length prefix).
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] past the end of the envelope.
    #[inline]
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        self.take(n)
    }

    /// Asserts the whole envelope was consumed (trailing garbage in a
    /// checksummed envelope means a writer/reader layout skew).
    ///
    /// # Errors
    ///
    /// [`CkptError::Malformed`] when bytes remain.
    pub fn finish(self) -> Result<(), CkptError> {
        if self.pos != self.data.len() {
            return Err(CkptError::Malformed(format!(
                "{} unread bytes after the last field",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// A value with one checkpoint encoding, used in both directions.
///
/// Implemented here for the primitives (`usize` travels as a u64),
/// `bool`, `f64`, `Option<T>` (presence byte, then the value), `[T; N]`
/// (no prefix), `Vec<T>`/`VecDeque<T>` (u64 length prefix), hash sets
/// (sorted, as a `Vec<T>`), tuples, [`Histogram`] and [`MetricRegistry`]; structs get theirs from [`ckpt_fields!`](crate::ckpt_fields)
/// (stats structs from [`stats!`](crate::stats)), fieldless enums from
/// [`ckpt_enum!`](crate::ckpt_enum).
pub trait Ckpt: Sized {
    /// The fewest bytes one encoded value occupies. `Vec<T>` passes it to
    /// [`CkptReader::len`], so a corrupt length can never drive an
    /// allocation larger than the envelope.
    const MIN_BYTES: usize;

    /// Appends the encoding of `self`.
    fn save(&self, w: &mut CkptWriter);

    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// Returns a [`CkptError`] on truncation or malformed content.
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError>;

    /// Decodes one value over `self`. Containers override it to reuse
    /// their allocation (a restore overwrites tables the constructor
    /// already sized).
    ///
    /// # Errors
    ///
    /// As [`Ckpt::load`].
    fn load_into(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        *self = Self::load(r)?;
        Ok(())
    }
}

/// State restored *in place*, into a value whose constructor already
/// built what the checkpoint does not carry (geometry, configuration,
/// static build products). Every [`Ckpt`] value is trivially one; a
/// struct with constructor-owned fields gets its impl from
/// [`ckpt_fields!`](crate::ckpt_fields)`(CkptFields for …)`.
pub trait CkptFields {
    /// Appends the checkpointed fields.
    fn save_fields(&self, w: &mut CkptWriter);

    /// Overwrites the checkpointed fields, leaving every other field as
    /// the constructor built it.
    ///
    /// # Errors
    ///
    /// Returns a [`CkptError`] on decode failure or content that does
    /// not fit this value's geometry.
    fn load_fields(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError>;
}

impl<T: Ckpt> CkptFields for T {
    fn save_fields(&self, w: &mut CkptWriter) {
        self.save(w);
    }

    fn load_fields(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.load_into(r)
    }
}

/// [`Ckpt::MIN_BYTES`] of the field `get` projects (type inference for
/// [`ckpt_fields!`](crate::ckpt_fields), which knows field names only).
#[doc(hidden)]
#[must_use]
pub const fn field_min_bytes<S, T: Ckpt>(_get: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// What a [`ckpt_fields!`](crate::ckpt_fields) `then` hook may return:
/// `()` for a hook that only rebuilds derived state, or a `Result` for
/// one that can reject the restored fields.
#[doc(hidden)]
pub trait HookOutcome {
    /// The hook's verdict as a `Result`.
    ///
    /// # Errors
    ///
    /// The hook's own rejection.
    fn into_result(self) -> Result<(), CkptError>;
}

impl HookOutcome for () {
    fn into_result(self) -> Result<(), CkptError> {
        Ok(())
    }
}

impl HookOutcome for Result<(), CkptError> {
    fn into_result(self) -> Self {
        self
    }
}

macro_rules! ckpt_int {
    ($($t:ident),*) => {$(
        impl Ckpt for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn save(&self, w: &mut CkptWriter) {
                w.$t(*self);
            }
            fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
                r.$t()
            }
        }
    )*};
}
ckpt_int!(u8, u16, u32, u64);

impl Ckpt for usize {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.len(*self);
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| CkptError::Malformed(format!("{v} overflows usize")))
    }
}

impl Ckpt for bool {
    const MIN_BYTES: usize = 1;
    fn save(&self, w: &mut CkptWriter) {
        w.bool(*self);
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        r.bool()
    }
}

/// By bit pattern (exact round trip).
impl Ckpt for f64 {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.u64(self.to_bits());
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        r.u64().map(f64::from_bits)
    }
}

impl<T: Ckpt> Ckpt for Option<T> {
    const MIN_BYTES: usize = 1;
    fn save(&self, w: &mut CkptWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        if r.bool()? {
            Ok(Some(T::load(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Ckpt + Copy + Default, const N: usize> Ckpt for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn save(&self, w: &mut CkptWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let mut items = [T::default(); N];
        for v in &mut items {
            *v = T::load(r)?;
        }
        Ok(items)
    }
}

impl<T: Ckpt> Ckpt for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.len(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let mut items = Vec::new();
        items.load_into(r)?;
        Ok(items)
    }
    /// Decodes over the existing items first (nested containers keep
    /// their allocations too), then appends or truncates.
    fn load_into(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let n = r.len(T::MIN_BYTES)?;
        self.truncate(n);
        for v in self.iter_mut() {
            v.load_into(r)?;
        }
        self.reserve(n - self.len());
        for _ in self.len()..n {
            self.push(T::load(r)?);
        }
        Ok(())
    }
}

impl<T: Ckpt> Ckpt for VecDeque<T> {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.len(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let mut items = VecDeque::new();
        items.load_into(r)?;
        Ok(items)
    }
    fn load_into(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let n = r.len(T::MIN_BYTES)?;
        self.clear();
        self.reserve(n);
        for _ in 0..n {
            self.push_back(T::load(r)?);
        }
        Ok(())
    }
}

/// A hash set travels as its sorted content (the same bytes as a sorted
/// `Vec<T>`), so hash iteration order never leaks into a checkpoint.
impl<T: Ckpt + Ord + Hash, S: BuildHasher + Default> Ckpt for HashSet<T, S> {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        w.len(items.len());
        for v in items {
            v.save(w);
        }
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(Vec::load(r)?.into_iter().collect())
    }
}

/// What [`Sparse`] needs of a fixed-size table: its slot type and which
/// slots are occupied. An unoccupied slot must be unobservable, so it can
/// restore as `Default` whatever it held.
pub trait SparseTable {
    /// One slot of the table.
    type Slot: Ckpt + Default;

    /// Whether `slot` holds state a checkpoint must carry.
    fn occupied(slot: &Self::Slot) -> bool;
}

/// Codec of a constructor-sized table that writes only its occupied
/// slots: the table's length, the occupied count, and per occupied slot
/// a u32 position and the slot. A restore loads in place into the
/// constructor-built table (nothing is allocated from a checkpointed
/// length) and resets every unlisted slot to `Default`.
pub struct Sparse<S>(std::marker::PhantomData<S>);

impl<S: SparseTable> Sparse<S> {
    /// Appends the occupied slots of `table`.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than `u32::MAX + 1` slots.
    pub fn save(table: &[S::Slot], w: &mut CkptWriter) {
        w.len(table.len());
        w.len(table.iter().filter(|s| S::occupied(s)).count());
        for (pos, slot) in table.iter().enumerate().filter(|(_, s)| S::occupied(s)) {
            w.u32(u32::try_from(pos).expect("sparse table positions fit a u32"));
            slot.save(w);
        }
    }

    /// Loads the occupied slots into `table`, resetting the rest.
    ///
    /// # Errors
    ///
    /// [`CkptError::Malformed`] on a length other than the table's,
    /// positions not strictly increasing or past the table, or a listed
    /// slot that is not occupied; decode failures of a slot propagate.
    pub fn load_into(table: &mut [S::Slot], r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let len = r.u64()?;
        if len != table.len() as u64 {
            return Err(CkptError::Malformed(format!(
                "sparse table of {len} slots, geometry holds {}",
                table.len()
            )));
        }
        let listed = r.len(4 + S::Slot::MIN_BYTES)?;
        let mut next = 0usize;
        for _ in 0..listed {
            let pos = r.u32()? as usize;
            if pos < next || pos >= table.len() {
                return Err(CkptError::Malformed(format!(
                    "sparse slot {pos} out of order or past {} slots",
                    table.len()
                )));
            }
            table[next..pos].fill_with(Default::default);
            table[pos].load_into(r)?;
            if !S::occupied(&table[pos]) {
                return Err(CkptError::Malformed(format!("sparse slot {pos} listed unoccupied")));
            }
            next = pos + 1;
        }
        table[next..].fill_with(Default::default);
        Ok(())
    }
}

macro_rules! ckpt_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Ckpt),+> Ckpt for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;
            fn save(&self, w: &mut CkptWriter) {
                $(self.$i.save(w);)+
            }
            fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
                Ok(($($t::load(r)?,)+))
            }
        }
    };
}
ckpt_tuple!(A.0, B.1);
ckpt_tuple!(A.0, B.1, C.2);
ckpt_tuple!(A.0, B.1, C.2, D.3);

crate::ckpt_fields!(Ckpt for Histogram { buckets, count, sum, max });

/// A registry travels as its deterministic JSON text:
/// [`MetricRegistry::to_json`] renders sorted keys and
/// [`MetricRegistry::from_json`] reconstructs them losslessly.
impl Ckpt for MetricRegistry {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.bytes(self.to_json().render().as_bytes());
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let text = std::str::from_utf8(r.bytes()?)
            .map_err(|_| CkptError::Malformed("metric registry is not UTF-8".to_string()))?;
        let json = crate::json::parse(text)
            .map_err(|e| CkptError::Malformed(format!("metric registry: {e}")))?;
        MetricRegistry::from_json(&json)
            .ok_or_else(|| CkptError::Malformed("metric registry shape mismatch".to_string()))
    }
}

/// Derives a struct's checkpoint encoding from one field list, in the
/// order the fields travel.
///
/// * `ckpt_fields!(Ckpt for T { a, b, c })` implements [`Ckpt`]: `load`
///   builds `T` with a struct literal, so the list must name every field
///   (a forgotten one is a compile error), or end in `..BASE` to take the
///   unlisted fields from the expression `BASE`.
/// * `ckpt_fields!(CkptFields for T { a, b })` implements [`CkptFields`]:
///   the loader overwrites only the listed fields, in place, so geometry
///   and configuration fields built by the constructor stay untouched.
///   `tag NAME` after the type writes and checks a section marker first.
///
/// A field spelled `f => C` travels through the codec type `C` instead
/// of its own impl (`C::MIN_BYTES`, `C::save(&T, w)`, and `C::load(r)`
/// for `Ckpt` or `C::load_into(&mut T, r)` for `CkptFields`), for the
/// few encodings a test pins, a safety check needs or a table writes
/// sparsely ([`Sparse`]). `then HOOK`
/// runs `HOOK(&mut value)` after the fields load: the place for a
/// `Malformed` check against the geometry (returning a `Result`), or for
/// rebuilding derived state (returning `()`).
#[macro_export]
macro_rules! ckpt_fields {
    (Ckpt for $ty:ty { $($f:ident $(=> $codec:ty)?),+ $(, ..$rest:expr)? $(,)? }
        $(then $hook:expr)?) => {
        impl $crate::Ckpt for $ty {
            const MIN_BYTES: usize = 0 $(+ $crate::ckpt_fields!(@min $ty, $f $(, $codec)?))+;
            fn save(&self, w: &mut $crate::CkptWriter) {
                $($crate::ckpt_fields!(@save self, w, $f $(, $codec)?);)+
            }
            fn load(r: &mut $crate::CkptReader<'_>) -> Result<Self, $crate::CkptError> {
                let v = Self {
                    $($f: $crate::ckpt_fields!(@load r, $f $(, $codec)?),)+
                    $(..$rest)?
                };
                $(
                    let mut v = v;
                    $crate::ckpt::HookOutcome::into_result($hook(&mut v))?;
                )?
                Ok(v)
            }
        }
    };
    (CkptFields for $ty:ty $(, tag $tag:ident)? { $($f:ident $(=> $codec:ty)?),+ $(,)? }
        $(then $hook:expr)?) => {
        impl $crate::CkptFields for $ty {
            fn save_fields(&self, w: &mut $crate::CkptWriter) {
                $(w.tag($tag);)?
                $($crate::ckpt_fields!(@save self, w, $f $(, $codec)?);)+
            }
            fn load_fields(
                &mut self,
                r: &mut $crate::CkptReader<'_>,
            ) -> Result<(), $crate::CkptError> {
                $(r.tag($tag)?;)?
                $($crate::ckpt_fields!(@load_into self, r, $f $(, $codec)?);)+
                $($crate::ckpt::HookOutcome::into_result($hook(self))?;)?
                Ok(())
            }
        }
    };
    (@min $ty:ty, $f:ident) => { $crate::ckpt::field_min_bytes::<$ty, _>(|s| &s.$f) };
    (@min $ty:ty, $f:ident, $codec:ty) => { <$codec>::MIN_BYTES };
    (@save $s:ident, $w:ident, $f:ident) => { $crate::CkptFields::save_fields(&$s.$f, $w) };
    (@save $s:ident, $w:ident, $f:ident, $codec:ty) => { <$codec>::save(&$s.$f, $w) };
    (@load $r:ident, $f:ident) => { $crate::Ckpt::load($r)? };
    (@load $r:ident, $f:ident, $codec:ty) => { <$codec>::load($r)? };
    (@load_into $s:ident, $r:ident, $f:ident) => {
        $crate::CkptFields::load_fields(&mut $s.$f, $r)?
    };
    (@load_into $s:ident, $r:ident, $f:ident, $codec:ty) => {
        <$codec>::load_into(&mut $s.$f, $r)?
    };
}

/// Maps a fieldless enum to one-byte codes:
/// `ckpt_enum!(Stage { Waiting = 0, Executing = 1, Done = 2 })`. An
/// unknown code loads as [`CkptError::Malformed`].
#[macro_export]
macro_rules! ckpt_enum {
    ($ty:ty { $($variant:ident = $code:literal),+ $(,)? }) => {
        impl $crate::Ckpt for $ty {
            const MIN_BYTES: usize = 1;
            fn save(&self, w: &mut $crate::CkptWriter) {
                w.u8(match self {
                    $(Self::$variant => $code,)+
                });
            }
            fn load(r: &mut $crate::CkptReader<'_>) -> Result<Self, $crate::CkptError> {
                match r.u8()? {
                    $($code => Ok(Self::$variant),)+
                    b => Err($crate::CkptError::Malformed(format!(
                        "{} code {b:#04x}",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = CkptWriter::new();
        w.tag(0x10);
        w.u8(7);
        w.bool(true);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        (-0.5f64).save(&mut w);
        w.bytes(b"hello");
        let data = w.finish();

        let mut r = CkptReader::new(&data).unwrap();
        r.tag(0x10).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(f64::load(&mut r).unwrap(), -0.5);
        assert_eq!(r.bytes().unwrap(), b"hello");
        r.finish().unwrap();
    }

    /// A struct described once, with an in-place sibling, an enum and a
    /// codec field — the shapes the simulator crates use.
    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        count: u64,
        mode: Mode,
        flags: [bool; 3],
        label: Option<u16>,
        items: Vec<(u32, Vec<u8>)>,
        packed: u8,
        hist: Histogram,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Off,
        On,
    }

    crate::ckpt_enum!(Mode { Off = 0, On = 1 });

    /// Writes a u8 as a u32, to show a codec owns its bytes.
    struct Wide;

    impl Wide {
        const MIN_BYTES: usize = 4;
        fn save(v: &u8, w: &mut CkptWriter) {
            w.u32(u32::from(*v));
        }
        fn load(r: &mut CkptReader<'_>) -> Result<u8, CkptError> {
            let v = r.u32()?;
            u8::try_from(v).map_err(|_| CkptError::Malformed(format!("wide byte {v}")))
        }
    }

    crate::ckpt_fields!(Ckpt for Sample { count, mode, flags, label, items, packed => Wide, hist });

    /// Geometry (`size`) comes from the constructor; `then` checks it.
    struct Grid {
        size: usize,
        cells: Vec<u64>,
        hits: u64,
    }

    impl Grid {
        fn check(&mut self) -> Result<(), CkptError> {
            if self.cells.len() != self.size {
                return Err(CkptError::Malformed(format!("{} cells", self.cells.len())));
            }
            Ok(())
        }
    }

    crate::ckpt_fields!(CkptFields for Grid, tag TAG { cells, hits } then Grid::check);
    const TAG: u8 = 0x42;

    #[test]
    fn derived_encodings_round_trip_byte_identically() {
        let mut hist = Histogram::new();
        hist.record(300);
        let sample = Sample {
            count: 7,
            mode: Mode::On,
            flags: [true, false, true],
            label: Some(9),
            items: vec![(1, vec![2, 3]), (4, vec![])],
            packed: 200,
            hist,
        };
        let mut w = CkptWriter::new();
        sample.save(&mut w);
        Grid { size: 2, cells: vec![5, 6], hits: 8 }.save_fields(&mut w);
        let data = w.finish();

        let mut r = CkptReader::new(&data).unwrap();
        assert_eq!(Sample::load(&mut r).unwrap(), sample);
        let mut sized = Grid { size: 2, cells: Vec::new(), hits: 0 };
        sized.load_fields(&mut r).unwrap();
        assert_eq!((sized.size, sized.cells, sized.hits), (2, vec![5, 6], 8));
        r.finish().unwrap();
        assert_eq!(Sample::MIN_BYTES, 8 + 1 + 3 + 1 + 8 + 4 + 8 * (crate::HISTOGRAM_BUCKETS + 3));

        // The same bytes restored into the wrong geometry are rejected.
        let mut r = CkptReader::new(&data).unwrap();
        Sample::load(&mut r).unwrap();
        let mut small = Grid { size: 1, cells: Vec::new(), hits: 0 };
        assert_eq!(small.load_fields(&mut r), Err(CkptError::Malformed("2 cells".to_string())));
    }

    #[test]
    fn unknown_enum_code_is_malformed() {
        let mut w = CkptWriter::new();
        w.u8(2);
        let data = w.finish();
        let mut r = CkptReader::new(&data).unwrap();
        assert!(matches!(Mode::load(&mut r), Err(CkptError::Malformed(_))));
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let mut w = CkptWriter::new();
        w.u64(0x0123_4567_89ab_cdef);
        w.bytes(b"payload");
        let data = w.finish();
        for bit in 0..data.len() * 8 {
            let mut bad = data.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let err = match CkptReader::new(&bad) {
                Err(e) => e,
                Ok(_) => panic!("bit flip {bit} accepted"),
            };
            assert!(
                matches!(err, CkptError::ChecksumMismatch { .. }),
                "bit {bit}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let data = CkptWriter::new().finish();
        for cut in 0..data.len() {
            assert!(CkptReader::new(&data[..cut]).is_err(), "prefix {cut} accepted");
        }
    }

    /// A toy table for [`Sparse`]: a slot is occupied when nonzero.
    struct Nonzero;

    impl SparseTable for Nonzero {
        type Slot = u64;

        fn occupied(slot: &u64) -> bool {
            *slot != 0
        }
    }

    /// A sealed sparse section: `len`, then `(position, slot)` records.
    fn sparse_section(len: u64, slots: &[(u32, u64)]) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.u64(len);
        w.len(slots.len());
        for &(pos, v) in slots {
            w.u32(pos);
            w.u64(v);
        }
        w.finish()
    }

    fn load_sparse(env: &[u8], table: &mut [u64]) -> Result<(), CkptError> {
        let mut r = CkptReader::new(env)?;
        Sparse::<Nonzero>::load_into(table, &mut r)?;
        r.finish()
    }

    #[test]
    fn sparse_table_round_trips_in_place_and_resets_the_rest() {
        let table = [0, 7, 0, 0, 9, 0];
        let mut w = CkptWriter::new();
        Sparse::<Nonzero>::save(&table, &mut w);
        let env = w.finish();
        assert_eq!(env, sparse_section(6, &[(1, 7), (4, 9)]));
        let mut back = [5u64; 6];
        load_sparse(&env, &mut back).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn sparse_positions_out_of_order_are_malformed() {
        let mut table = [0u64; 8];
        for slots in [&[(4, 1), (2, 1)][..], &[(3, 1), (3, 2)][..]] {
            let err = load_sparse(&sparse_section(8, slots), &mut table).unwrap_err();
            assert!(
                matches!(err, CkptError::Malformed(ref m) if m.contains("out of order")),
                "{err}"
            );
        }
    }

    #[test]
    fn sparse_positions_past_the_geometry_are_malformed() {
        let mut table = [0u64; 8];
        let err = load_sparse(&sparse_section(8, &[(8, 1)]), &mut table).unwrap_err();
        assert!(matches!(err, CkptError::Malformed(ref m) if m.contains("past 8 slots")), "{err}");
        let err = load_sparse(&sparse_section(9, &[]), &mut table).unwrap_err();
        assert!(
            matches!(err, CkptError::Malformed(ref m) if m.contains("geometry holds 8")),
            "{err}"
        );
        let mut w = CkptWriter::new();
        w.u64(8);
        w.u64(u64::MAX); // an absurd count, correctly checksummed
        let err = load_sparse(&w.finish(), &mut table).unwrap_err();
        assert!(matches!(err, CkptError::Malformed(_)), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        // A syntactically valid envelope of the previous layout: set the
        // version field to 1 and re-seal the checksum.
        let mut data = CkptWriter::new().finish();
        data.truncate(data.len() - 8);
        data[8] = 1;
        let sum = ckpt_checksum(&data);
        data.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(CkptReader::new(&data).unwrap_err(), CkptError::BadVersion(1));
    }

    #[test]
    fn sealed_envelope_is_exactly_sized() {
        let mut w = CkptWriter::new();
        for i in 0..3000u64 {
            w.u64(i);
        }
        let data = w.finish();
        assert_eq!(data.len(), 12 + 3000 * 8 + 8);
        assert_eq!(data.capacity(), data.len());
    }

    #[test]
    fn corrupt_length_cannot_overallocate() {
        let mut w = CkptWriter::new();
        w.u64(u64::MAX); // an absurd length prefix, correctly checksummed
        let data = w.finish();
        let mut r = CkptReader::new(&data).unwrap();
        assert!(matches!(r.bytes(), Err(CkptError::Malformed(_))));
        // The generic `Vec<T>` path bounds by `T::MIN_BYTES`: eight u64s
        // of payload can announce at most one 8-byte item.
        let mut w = CkptWriter::new();
        w.u64(u64::MAX);
        let data = w.finish();
        let mut r = CkptReader::new(&data).unwrap();
        assert!(matches!(Vec::<u64>::load(&mut r), Err(CkptError::Malformed(_))));
        let mut w = CkptWriter::new();
        w.len(2);
        w.u64(1);
        w.u64(2);
        let data = w.finish();
        let mut r = CkptReader::new(&data).unwrap();
        assert!(matches!(Vec::<(u64, u64)>::load(&mut r), Err(CkptError::Malformed(_))));
        let mut r = CkptReader::new(&data).unwrap();
        assert_eq!(Vec::<u64>::load(&mut r).unwrap(), vec![1, 2]);
    }

    #[test]
    fn tag_mismatch_is_structured() {
        let mut w = CkptWriter::new();
        w.tag(0x20);
        let data = w.finish();
        let mut r = CkptReader::new(&data).unwrap();
        let err = r.tag(0x30).unwrap_err();
        assert_eq!(err, CkptError::BadTag { expected: 0x30, found: 0x20, offset: 12 });
    }
}
