//! Pins the bytes of every signature-table image the quick sweep builds.
//!
//! The snapshot pins each table's size statistics, not its bytes. This
//! test builds the 18 profiles at `--quick` scale under each validation
//! mode and folds every module's encrypted image, in profile order and
//! length-prefixed, into one FNV-1a-64 digest per mode. A table-builder
//! change that moves a single image byte moves its mode's digest.

use rev_bench::BenchOptions;
use rev_core::{BuildCache, RevConfig, ValidationMode};
use rev_trace::fnv1a64;

/// The digest of every quick-scale image of one mode.
fn images_digest(mode: ValidationMode) -> u64 {
    let opts = BenchOptions::parse(["--quick", "--quiet"]).expect("well-formed options");
    let config = RevConfig::paper_default().with_mode(mode);
    let mut bytes = Vec::new();
    for profile in opts.profiles() {
        let program = rev_workloads::generate(&profile);
        let built = BuildCache::global().tables(&program, &config, 0).expect("tables build");
        for table in &built.tables {
            bytes.extend_from_slice(&(table.image().len() as u64).to_le_bytes());
            bytes.extend_from_slice(table.image());
        }
    }
    fnv1a64(&bytes)
}

#[test]
fn every_quick_table_image_is_pinned() {
    let actual = [ValidationMode::Standard, ValidationMode::Aggressive, ValidationMode::CfiOnly]
        .map(|mode| (mode, images_digest(mode)));
    let expected = [
        (ValidationMode::Standard, 0xb838_4253_1082_f7a5),
        (ValidationMode::Aggressive, 0x1743_54c6_b462_91db),
        (ValidationMode::CfiOnly, 0x3533_19a3_c6ac_a7f7),
    ];
    assert_eq!(actual, expected, "a quick-scale table image changed");
}
