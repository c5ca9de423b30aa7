//! Mounting attacks builds the victim's tables once per validation mode:
//! `mount` takes them from the process-wide build cache. This file holds
//! one test so no other test of the process builds tables concurrently.

use rev_attacks::{mount, AttackKind};
use rev_core::{BuildCache, RevConfig, ValidationMode};

#[test]
fn a_second_mount_in_one_mode_builds_no_tables() {
    let cache = BuildCache::global();
    let config = RevConfig::paper_default();
    let start = cache.stats().builds;
    let rop = mount(AttackKind::ReturnOriented, config).unwrap();
    assert_eq!(cache.stats().builds, start + 1, "the first mount builds the standard tables");
    // Table tampering runs with a tiny SC, which never reaches the table
    // builder, and XORs the copy placed in simulated memory.
    for kind in [AttackKind::JumpOriented, AttackKind::TableTamper, AttackKind::ReturnOriented] {
        let out = mount(kind, config).unwrap();
        assert!(out.detected && !out.tainted, "{kind}: {out:?}");
        if kind == AttackKind::ReturnOriented {
            assert_eq!(format!("{out:?}"), format!("{rop:?}"), "tampering reached the cache");
        }
    }
    assert_eq!(cache.stats().builds, start + 1, "later mounts in one mode build nothing");
    mount(AttackKind::ReturnOriented, config.with_mode(ValidationMode::CfiOnly)).unwrap();
    assert_eq!(cache.stats().builds, start + 2, "another mode builds its own tables");
}
