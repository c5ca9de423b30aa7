//! `Snapshot::parse` never panics on damaged input: the committed quick
//! baseline with one byte replaced, deleted or the text cut short either
//! parses or returns an error.

use proptest::prelude::*;
use rev_trace::Snapshot;
use std::sync::OnceLock;

/// The committed quick-sweep snapshot, the largest real input the
/// parser sees.
fn baseline() -> &'static [u8] {
    static TEXT: OnceLock<Vec<u8>> = OnceLock::new();
    TEXT.get_or_init(|| {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/quick.json");
        std::fs::read(path).expect("baselines/quick.json exists")
    })
}

/// Bytes a one-byte edit most often turns JSON structure into.
const STRUCTURAL: &[u8] = b"{}[]\",:-+.0123456789eEtfn\\ \n\x00\xff";

#[test]
fn the_baseline_itself_parses() {
    let text = std::str::from_utf8(baseline()).unwrap();
    let snap = Snapshot::parse(text).expect("the committed baseline parses");
    assert!(!snap.profiles.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_snapshot_text_never_panics(
        kind in 0u8..4,
        pos_seed in any::<u64>(),
        pick in any::<u8>(),
    ) {
        let mut bytes = baseline().to_vec();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        match kind {
            0 => bytes[pos] = STRUCTURAL[pick as usize % STRUCTURAL.len()],
            1 => bytes[pos] = pick,
            2 => {
                bytes.remove(pos);
            }
            _ => bytes.truncate(pos),
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = Snapshot::parse(&text);
    }
}
