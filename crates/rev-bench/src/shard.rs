//! Sweep scale-out: `--shard i/N` partitioning and sealed work items.
//!
//! A sharded sweep partitions the (profile × slot) work-item list
//! round-robin across N independent processes; each process simulates
//! only its own items and *seals* every result into `--shard-dir` as a
//! `CKPT_SCHEMA` envelope. A final merge run (`--resume`, no `--shard`)
//! loads every sealed item and renders output byte-identical to a
//! monolithic run — the same contract `rev-bench/tests/equivalence.rs`
//! pins for `--jobs` and pooling, extended across process boundaries.
//!
//! A sealed item is self-describing: its recipe section is the exact
//! item recipe string (profile, slot, every result-affecting option and
//! the full configuration grid), so a resume can never splice a stale
//! or mismatched result into a sweep — recipe mismatch, checksum
//! failure, truncation, or trailing garbage all read as "not sealed"
//! and the item is recomputed fail-open.

use crate::{SweepItemOut, UsageError};
use rev_trace::{fnv1a64, Ckpt, CkptError, CkptReader, CkptWriter};

/// One shard of a partitioned sweep: `--shard i/N` (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This process's 1-based shard index.
    pub index: usize,
    /// Total shard count.
    pub total: usize,
}

impl ShardSpec {
    /// Parses `"i/N"` with `1 <= i <= N`.
    ///
    /// # Errors
    ///
    /// Returns [`UsageError`] on any other form.
    pub fn parse(s: &str) -> Result<Self, UsageError> {
        let err = || UsageError::new(format!("--shard must be i/N with 1 <= i <= N, got '{s}'"));
        let (i, n) = s.split_once('/').ok_or_else(err)?;
        let index: usize = i.parse().map_err(|_| err())?;
        let total: usize = n.parse().map_err(|_| err())?;
        if index == 0 || total == 0 || index > total {
            return Err(err());
        }
        Ok(ShardSpec { index, total })
    }

    /// Whether this shard owns the `item_index`-th work item
    /// (round-robin, so profiles spread evenly across shards).
    pub fn owns(&self, item_index: usize) -> bool {
        item_index % self.total == self.index - 1
    }
}

/// Tags distinguishing the two sealed item kinds.
const TAG_BASE: u8 = 0xB0;
const TAG_REV: u8 = 0xB1;

/// The deterministic sealed-item file name: profile, slot, and a digest
/// of the full recipe — two option sets can never collide on a file.
pub(crate) fn item_file_name(profile_name: &str, slot: usize, recipe: &str) -> String {
    format!("{profile_name}-s{slot}-{:016x}.item", fnv1a64(recipe.as_bytes()))
}

/// Seals one sweep work-item result into a self-describing envelope.
pub(crate) fn seal_item(recipe: &str, out: &SweepItemOut) -> Vec<u8> {
    let mut w = CkptWriter::new();
    w.bytes(recipe.as_bytes());
    match out {
        SweepItemOut::Base(b) => {
            w.tag(TAG_BASE);
            b.save(&mut w);
        }
        SweepItemOut::Rev(rev) => {
            w.tag(TAG_REV);
            rev.save(&mut w);
        }
    }
    w.finish()
}

/// Opens a sealed item, verifying the checksum and that the stored
/// recipe matches `recipe` exactly.
///
/// # Errors
///
/// Returns [`CkptError`] on any integrity failure or recipe mismatch —
/// resume paths treat every error as "not sealed" and recompute.
pub(crate) fn unseal_item(data: &[u8], recipe: &str) -> Result<SweepItemOut, CkptError> {
    let mut r = CkptReader::new(data)?;
    let stored = r.bytes()?;
    if stored != recipe.as_bytes() {
        return Err(CkptError::Malformed("sealed item recipe mismatch".to_string()));
    }
    let out = match r.u8()? {
        TAG_BASE => SweepItemOut::Base(Box::new(Ckpt::load(&mut r)?)),
        TAG_REV => SweepItemOut::Rev(Box::new(Ckpt::load(&mut r)?)),
        other => return Err(CkptError::Malformed(format!("unknown item tag {other:#x}"))),
    };
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchOptions, SweepConfig, WarmPool};
    use proptest::prelude::*;
    use rev_core::RevConfig;
    use rev_cpu::{RunOutcome, Violation, ViolationKind};
    use std::sync::OnceLock;

    /// A real sealed base item and REV item of a tiny mcf sweep, with
    /// the recipe each was sealed under.
    fn sealed_items() -> &'static [(String, Vec<u8>); 2] {
        static ITEMS: OnceLock<[(String, Vec<u8>); 2]> = OnceLock::new();
        ITEMS.get_or_init(|| {
            let opts = BenchOptions {
                instructions: 2_000,
                warmup: 500,
                scale: 0.05,
                benches: vec!["mcf".into()],
                quiet: true,
                ..BenchOptions::default()
            };
            let configs = [SweepConfig::new("REV-32K", RevConfig::paper_default())];
            let pool = WarmPool::new(None);
            let profile = &opts.profiles()[0];
            [0, 1].map(|slot| {
                let recipe = crate::item_recipe(&opts, &configs, profile, slot);
                let out = crate::compute_item(&opts, &configs, &pool, profile, slot);
                let sealed = seal_item(&recipe, &out);
                (recipe, sealed)
            })
        })
    }

    #[test]
    fn sealed_items_unseal() {
        for (recipe, sealed) in sealed_items() {
            unseal_item(sealed, recipe).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The item decoders never panic: one byte of a real sealed item
        /// XORed, the trailing FNV-1a rewritten so the checksum passes,
        /// and the unseal either succeeds or returns an error.
        #[test]
        fn resealed_corruption_never_panics(
            item in 0usize..2,
            pos_seed in any::<u64>(),
            xor in 1u8..=255,
        ) {
            let (recipe, sealed) = &sealed_items()[item];
            let mut data = sealed.clone();
            let body = data.len() - 8;
            data[(pos_seed % body as u64) as usize] ^= xor;
            let sum = rev_trace::ckpt_checksum(&data[..body]);
            data[body..].copy_from_slice(&sum.to_le_bytes());
            let _ = unseal_item(&data, recipe);
        }
    }

    #[test]
    fn shard_spec_parses_and_partitions() {
        assert_eq!(ShardSpec::parse("1/1").unwrap(), ShardSpec { index: 1, total: 1 });
        assert_eq!(ShardSpec::parse("2/3").unwrap(), ShardSpec { index: 2, total: 3 });
        for bad in ["", "0/2", "3/2", "1/0", "a/b", "1", "1/2/3", "-1/2"] {
            assert!(ShardSpec::parse(bad).is_err(), "'{bad}' must be rejected");
        }
        // Every item is owned by exactly one of N shards.
        let shards: Vec<ShardSpec> = (1..=3).map(|i| ShardSpec { index: i, total: 3 }).collect();
        for item in 0..20 {
            assert_eq!(shards.iter().filter(|s| s.owns(item)).count(), 1, "item {item}");
        }
    }

    #[test]
    fn outcome_and_violation_round_trip() {
        let outcomes = [
            RunOutcome::BudgetReached,
            RunOutcome::Halted,
            RunOutcome::Violation(Violation {
                kind: ViolationKind::ReturnMismatch,
                bb_addr: 0x1234,
                actual_target: 0x5678,
                cycle: 99,
            }),
            RunOutcome::OracleFault { pc: 0xdead },
        ];
        for outcome in outcomes {
            let mut w = CkptWriter::new();
            outcome.save(&mut w);
            let sealed = w.finish();
            let mut r = CkptReader::new(&sealed).unwrap();
            let back = RunOutcome::load(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(format!("{outcome:?}"), format!("{back:?}"));
        }
    }
}
